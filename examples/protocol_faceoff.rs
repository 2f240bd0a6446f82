//! Protocol face-off: sweep one benchmark over node counts, protocols and
//! clusters, printing a CSV plus per-run statistics.
//!
//! This is the interactive version of the figure-regeneration harness: it
//! lets you reproduce any single curve of the paper's Figures 1-5 from the
//! command line and inspect *why* one protocol wins (locality checks vs page
//! faults vs `mprotect` calls vs bytes moved).
//!
//! ```text
//! cargo run --release --example protocol_faceoff -- [pi|jacobi|barnes|tsp|asp] [scale] [protocol]
//!   scale:    quick (default) | harness | paper
//!   protocol: ic | pf | ad (default: all three)
//! ```

use hyperion::prelude::*;
use hyperion_apps::common::{parse_protocol, protocols_under_test};
use hyperion_apps::{asp, barnes, common::Benchmark, jacobi, pi, tsp};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let app = args.get(1).map(String::as_str).unwrap_or("jacobi");
    let scale = args.get(2).map(String::as_str).unwrap_or("quick");
    let protocols: Vec<ProtocolKind> = match args.get(3) {
        Some(name) => match parse_protocol(name) {
            Some(p) => vec![p],
            None => {
                eprintln!("unknown protocol '{name}'; use ic|pf|ad (or java_ic|java_pf|java_ad)");
                std::process::exit(1);
            }
        },
        None => protocols_under_test().to_vec(),
    };

    let bench: Box<dyn Benchmark> = match (app, scale) {
        ("pi", "paper") => Box::new(pi::PiParams::paper()),
        ("pi", "harness") => Box::new(pi::PiParams::harness()),
        ("pi", _) => Box::new(pi::PiParams::quick()),
        ("jacobi", "paper") => Box::new(jacobi::JacobiParams::paper()),
        ("jacobi", "harness") => Box::new(jacobi::JacobiParams::harness()),
        ("jacobi", _) => Box::new(jacobi::JacobiParams::quick()),
        ("barnes", "paper") => Box::new(barnes::BarnesParams::paper()),
        ("barnes", "harness") => Box::new(barnes::BarnesParams::harness()),
        ("barnes", _) => Box::new(barnes::BarnesParams::quick()),
        ("tsp", "paper") => Box::new(tsp::TspParams::paper()),
        ("tsp", "harness") => Box::new(tsp::TspParams::harness()),
        ("tsp", _) => Box::new(tsp::TspParams::quick()),
        ("asp", "paper") => Box::new(asp::AspParams::paper()),
        ("asp", "harness") => Box::new(asp::AspParams::harness()),
        ("asp", _) => Box::new(asp::AspParams::quick()),
        _ => {
            eprintln!("unknown benchmark '{app}'; use pi|jacobi|barnes|tsp|asp");
            std::process::exit(1);
        }
    };

    println!(
        "# {} ({scale} scale) — execution times are virtual seconds",
        bench.name()
    );
    println!(
        "cluster,protocol,nodes,exec_s,checks,faults,mprotect,page_loads,diff_msgs,bytes,remote_monitor"
    );
    for cluster in [myrinet_200(), sci_450()] {
        let node_counts: Vec<usize> = [1usize, 2, 4, 6, 8, 12]
            .into_iter()
            .filter(|&n| n <= cluster.max_nodes)
            .collect();
        for &protocol in &protocols {
            for &nodes in &node_counts {
                let config = HyperionConfig::new(cluster.clone(), nodes, protocol);
                let (_digest, report) = bench.execute(config);
                let t = report.total_stats();
                println!(
                    "{},{},{},{:.4},{},{},{},{},{},{},{}",
                    report.cluster_label,
                    protocol,
                    nodes,
                    report.seconds(),
                    t.locality_checks,
                    t.page_faults,
                    t.mprotect_calls,
                    t.page_loads,
                    t.diff_messages,
                    t.bytes_moved(),
                    t.remote_monitor_acquires,
                );
            }
        }
    }
}
