//! Jacobi heat diffusion on a cluster: the paper's Fig. 2 workload as a
//! standalone application.
//!
//! Runs the Jacobi benchmark on a chosen cluster and node count, under both
//! protocols, verifies the result against the sequential reference and
//! prints a small temperature profile of the final plate together with the
//! protocol comparison.
//!
//! ```text
//! cargo run --release --example jacobi_heat -- [nodes] [size] [steps]
//! ```

use std::io::{self, ErrorKind, Write};

use hyperion::prelude::*;
use hyperion_apps::jacobi::{self, JacobiParams};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let nodes: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(4);
    let size: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(96);
    let steps: usize = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(20);
    // A reader that stops early (`| head`) ends the runs quietly.
    match heat(nodes, JacobiParams { size, steps }) {
        Err(e) if e.kind() == ErrorKind::BrokenPipe => {}
        result => result.expect("writing the runs to stdout"),
    }
}

/// Run `params` on `nodes` nodes under both protocols, checked against the
/// sequential reference, and print the reports and the comparison.
fn heat(nodes: usize, params: JacobiParams) -> io::Result<()> {
    let JacobiParams { size, steps } = params;
    let mut out = io::stdout().lock();
    writeln!(
        out,
        "Jacobi: {size}x{size} plate, {steps} timesteps, {nodes} nodes (200MHz/Myrinet)\n"
    )?;

    let (seq_sum, seq_center) = jacobi::sequential(&params);

    let mut times = Vec::new();
    for protocol in ProtocolKind::all() {
        let config = HyperionConfig::new(myrinet_200(), nodes, protocol);
        let run = jacobi::run(config, &params);
        assert!(
            (run.result.interior_sum - seq_sum).abs() < 1e-6,
            "distributed result diverged from the sequential reference"
        );
        writeln!(out, "{}", run.report.summary())?;
        times.push((protocol, run.report.seconds()));
        if protocol == ProtocolKind::JavaPf {
            writeln!(
                out,
                "  centre temperature: {:.4} (sequential reference: {:.4})",
                run.result.center, seq_center
            )?;
        }
        writeln!(out)?;
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
        "java_pf improvement over java_ic: {:.1}% (paper reports ~38% for Jacobi on this cluster)",
        (ic - pf) / ic * 100.0
    )
}
