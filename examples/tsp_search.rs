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

use std::io::{self, ErrorKind, Write};

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
    // A reader that stops early (`| head`) ends the search quietly.
    match search(nodes, &params) {
        Err(e) if e.kind() == ErrorKind::BrokenPipe => {}
        result => result.expect("writing the search to stdout"),
    }
}

/// Solve `params` on `nodes` nodes under both protocols, checked against
/// the sequential optimum, and print the reports and the comparison.
fn search(nodes: usize, params: &TspParams) -> io::Result<()> {
    let mut out = io::stdout().lock();
    writeln!(
        out,
        "TSP: {} cities, {nodes} nodes (200MHz/Myrinet), central queue on node 0\n",
        params.cities
    )?;

    let optimal = tsp::sequential(params);
    writeln!(out, "sequential branch-and-bound optimum: {optimal}\n")?;

    let mut times = Vec::new();
    for protocol in ProtocolKind::all() {
        let config = HyperionConfig::new(myrinet_200(), nodes, protocol);
        let run = tsp::run(config, params);
        assert_eq!(
            run.result.best_tour, optimal,
            "distributed search must find the same optimal tour"
        );
        writeln!(
            out,
            "{} -> optimal tour {} after expanding {} queue entries\n",
            run.report.summary(),
            run.result.best_tour,
            run.result.tours_expanded
        )?;
        times.push((protocol, run.report.seconds()));
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
    writeln!(
        out,
        "java_pf improvement over java_ic: {:.1}%",
        (ic - pf) / ic * 100.0
    )
}
