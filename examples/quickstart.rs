//! Quickstart: the smallest useful Hyperion-RS program.
//!
//! A four-node cluster runs a threaded "Java" program twice — once under
//! each access-detection protocol — and prints the virtual execution time
//! plus the event counts that explain the difference, exactly the
//! comparison the paper makes in §4.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::io::{self, ErrorKind, Write};

use hyperion::prelude::*;

/// A small shared-memory workload: every worker increments a shared
/// histogram under a monitor and then smooths a shared vector it owns a
/// block of, coordinating with a barrier — a miniature of the paper's
/// benchmark structure.
fn workload(protocol: ProtocolKind) -> RunOutcome<f64> {
    let nodes = 4;
    let config = HyperionConfig::new(myrinet_200(), nodes, protocol);
    let runtime = HyperionRuntime::new(config).expect("valid configuration");

    runtime.run(move |ctx| {
        let len = 4096usize;
        // A shared vector distributed by blocks over the nodes, plus the
        // output buffer of the smoothing pass (double-buffered so the
        // boundary read below is deterministic — smoothing in place would
        // race with the left neighbour's own smoothing).
        let data: HArray<f64> = ctx.alloc_array(len, NodeId(0));
        let smoothed: HArray<f64> = ctx.alloc_array(len, NodeId(0));
        let histogram = ctx.alloc_array::<u64>(16, NodeId(0));
        let hist_monitor = ctx.new_monitor(NodeId(0));
        let barrier = JBarrier::new(ctx, nodes, NodeId(0));

        let mut handles = Vec::new();
        for t in 0..nodes {
            let hist_monitor = hist_monitor.clone();
            let barrier = barrier.clone();
            handles.push(ctx.spawn_on(NodeId(t as u32), move |worker| {
                let chunk = len / 4;
                let start = t * chunk;
                // Fill my block.
                for i in start..start + chunk {
                    data.put(worker, i, (i % 97) as f64);
                }
                // Tally my block into the shared histogram (synchronized).
                hist_monitor.synchronized(worker, |w| {
                    for i in start..start + chunk {
                        let v = data.get(w, i) as usize % 16;
                        let old: u64 = histogram.get(w, v);
                        histogram.put(w, v, old + 1);
                    }
                });
                barrier.arrive(worker);
                // Smooth my block into the output buffer, reading one
                // neighbour value across the block boundary (remote for
                // t > 0).
                for i in start.max(1)..start + chunk {
                    let left = data.get(worker, i - 1);
                    let here = data.get(worker, i);
                    smoothed.put(worker, i, 0.5 * (left + here));
                    worker.charge_mix(&OpCounts::new().with(Op::FpAdd, 2.0).with(Op::FpMul, 1.0));
                }
                barrier.arrive(worker);
            }));
        }
        for h in handles {
            ctx.join(h);
        }

        // Checksum so both protocols can be compared for correctness too.
        // Main reads the final state through pinned views: detection is
        // paid once per page, and the element reads are free.
        assert_eq!(ctx.home_of(smoothed.base()), NodeId(0));
        let smoothed_view = smoothed.view(ctx, ..);
        let hist_view = histogram.view(ctx, ..);
        let mut sum: f64 = smoothed_view.iter().sum();
        sum += hist_view.iter().map(|v| v as f64).sum::<f64>();
        sum
    })
}

fn main() {
    // A reader that stops early (`| head`) ends the comparison quietly.
    match compare() {
        Err(e) if e.kind() == ErrorKind::BrokenPipe => {}
        result => result.expect("writing the comparison to stdout"),
    }
}

/// Run the workload under both protocols and print their reports, the
/// shared checksum and which protocol won.
fn compare() -> io::Result<()> {
    let mut out = io::stdout().lock();
    writeln!(
        out,
        "Hyperion-RS quickstart: 4 nodes of the 200MHz/Myrinet cluster\n"
    )?;
    let mut results = Vec::new();
    for protocol in ProtocolKind::all() {
        let run = workload(protocol);
        writeln!(out, "{}\n", run.report.summary())?;
        results.push((protocol, run.result, run.report.seconds()));
    }
    let (p0, sum0, t0) = &results[0];
    let (p1, sum1, t1) = &results[1];
    assert_eq!(sum0, sum1, "both protocols must compute the same answer");
    writeln!(out, "checksum (identical under both protocols): {sum0:.3}")?;
    let ((fast, t_fast), (slow, t_slow)) = if t1 < t0 {
        ((p1, t1), (p0, t0))
    } else {
        ((p0, t0), (p1, t1))
    };
    writeln!(
        out,
        "{} is {:.1}% faster than {} on this workload",
        fast.name(),
        (t_slow - t_fast) / t_slow * 100.0,
        slow.name()
    )
}
