//! Branch-and-bound TSP with a central work queue: the paper's Fig. 4
//! workload as a standalone application.
//!
//! Demonstrates the "central data structures on one node, fetched through
//! the DSM by everyone else" pattern the paper discusses, and how the two
//! access-detection protocols cope with it.
//!
//! ```text
//! cargo run --release --example tsp_search -- [nodes] [cities]
//! ```

use hyperion::prelude::*;
use hyperion_apps::tsp::{self, TspParams};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let nodes: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(4);
    let cities: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(10);
    let params = TspParams {
        cities,
        seed: 2001,
        queue_depth: 2,
    };

    println!("TSP: {cities} cities, {nodes} nodes (200MHz/Myrinet), central queue on node 0\n");

    let optimal = tsp::sequential(&params);
    println!("sequential branch-and-bound optimum: {optimal}\n");

    let mut times = Vec::new();
    for protocol in ProtocolKind::all() {
        let config = HyperionConfig::new(myrinet_200(), nodes, protocol);
        let out = tsp::run(config, &params);
        assert_eq!(
            out.result.best_tour, optimal,
            "distributed search must find the same optimal tour"
        );
        println!(
            "{} -> optimal tour {} after expanding {} queue entries",
            out.report.summary(),
            out.result.best_tour,
            out.result.tours_expanded
        );
        println!();
        times.push((protocol, out.report.seconds()));
    }

    let ic = times
        .iter()
        .find(|(p, _)| *p == ProtocolKind::JavaIc)
        .unwrap()
        .1;
    let pf = times
        .iter()
        .find(|(p, _)| *p == ProtocolKind::JavaPf)
        .unwrap()
        .1;
    println!(
        "java_pf improvement over java_ic: {:.1}%",
        (ic - pf) / ic * 100.0
    );
}
