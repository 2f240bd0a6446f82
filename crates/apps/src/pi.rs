//! Pi: embarrassingly parallel Riemann-sum estimation of π (Fig. 1).
//!
//! The paper's description (§4.1): "The Pi program estimates π by calculating
//! a Riemann sum of 50 million values. [...] Pi is embarrassingly parallel,
//! with threads coordinating only to compute a global sum of the partial
//! sums computed by the threads for their share of the Riemann intervals."
//!
//! Each thread integrates `4 / (1 + x²)` over its block of intervals using
//! only stack-local values, then adds its partial sum into a shared
//! accumulator under a monitor.  Because the kernel performs (almost) no
//! object accesses, the two protocols perform essentially identically — the
//! paper's Fig. 1 shows the two curves on top of each other, and the tests
//! below assert exactly that property.

use hyperion::prelude::*;

use crate::common::{benchmark, block_range, Benchmark, BenchmarkName};

/// Parameters of the Pi benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PiParams {
    /// Number of Riemann intervals.
    pub intervals: u64,
}

impl PiParams {
    /// The paper's problem size: 50 million intervals.
    pub fn paper() -> Self {
        PiParams {
            intervals: 50_000_000,
        }
    }

    /// Default harness scale (keeps the full sweep fast on a laptop).
    pub fn harness() -> Self {
        PiParams {
            intervals: 5_000_000,
        }
    }

    /// A tiny instance for unit tests.
    pub fn quick() -> Self {
        PiParams { intervals: 50_000 }
    }
}

/// Result of a Pi run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PiResult {
    /// The estimate of π.
    pub estimate: f64,
}

/// Per-interval instruction mix of the integration kernel
/// (`x = (i + 0.5) * h; sum += 4.0 / (1.0 + x * x)`).
fn interval_mix() -> OpCounts {
    OpCounts::new()
        .with(Op::FpAdd, 3.0)
        .with(Op::FpMul, 2.0)
        .with(Op::FpDiv, 1.0)
        .with(Op::IntAlu, 1.0)
        .with(Op::Branch, 1.0)
}

/// Sequential reference implementation.
pub fn sequential(intervals: u64) -> f64 {
    let h = 1.0 / intervals as f64;
    let mut sum = 0.0;
    for i in 0..intervals {
        let x = (i as f64 + 0.5) * h;
        sum += 4.0 / (1.0 + x * x);
    }
    sum * h
}

/// Run the Pi benchmark under `config`.
pub fn run(config: HyperionConfig, params: &PiParams) -> RunOutcome<PiResult> {
    let runtime = HyperionRuntime::new(config).expect("invalid Hyperion configuration");
    let threads = runtime.nodes();
    let intervals = params.intervals;

    runtime.run(move |ctx| {
        // Shared accumulator (a Java `double` field) and its monitor.
        let accumulator = ctx.alloc_array::<f64>(1, NodeId(0));
        accumulator.put(ctx, 0, 0.0);
        let sum_monitor = ctx.new_monitor(NodeId(0));

        let per_interval = ctx.estimate(&interval_mix());
        let h = 1.0 / intervals as f64;

        let mut handles = Vec::with_capacity(threads);
        for t in 0..threads {
            let monitor = sum_monitor.clone();
            handles.push(ctx.spawn_on(NodeId(t as u32), move |worker| {
                let (start, end) = block_range(intervals as usize, threads, t);
                // The whole integration runs on stack-local values: no
                // DSM traffic, just compute time.
                let mut partial = 0.0f64;
                for i in start..end {
                    let x = (i as f64 + 0.5) * h;
                    partial += 4.0 / (1.0 + x * x);
                }
                worker.charge_iters(&per_interval, (end - start) as u64);

                // Global sum: the only coordination in the program.
                monitor.synchronized(worker, |worker| {
                    let global = accumulator.get(worker, 0);
                    accumulator.put(worker, 0, global + partial);
                });
            }));
        }
        for h in handles {
            ctx.join(h);
        }

        let estimate = accumulator.get(ctx, 0) * h;
        PiResult { estimate }
    })
}

benchmark!(PiParams, Pi, |result| result.estimate);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::config;

    #[test]
    fn sequential_estimate_converges_to_pi() {
        let est = sequential(200_000);
        assert!((est - std::f64::consts::PI).abs() < 1e-9);
    }

    #[test]
    fn parallel_matches_sequential_for_both_protocols() {
        let params = PiParams::quick();
        let expected = sequential(params.intervals);
        for protocol in ProtocolKind::all() {
            for nodes in [1, 3] {
                let out = run(config(nodes, protocol), &params);
                assert!(
                    (out.result.estimate - expected).abs() < 1e-9,
                    "{protocol:?} on {nodes} nodes: {} vs {}",
                    out.result.estimate,
                    expected
                );
            }
        }
    }

    #[test]
    fn pi_shows_near_linear_speedup() {
        let params = PiParams::quick();
        let t1 = run(config(1, ProtocolKind::JavaPf), &params)
            .report
            .execution_time;
        let t4 = run(config(4, ProtocolKind::JavaPf), &params)
            .report
            .execution_time;
        let speedup = t1.as_secs_f64() / t4.as_secs_f64();
        assert!(
            speedup > 3.0,
            "expected near-linear speedup on an embarrassingly parallel code, got {speedup:.2}"
        );
    }

    #[test]
    fn protocols_perform_essentially_identically() {
        // The paper: "The two protocols performed essentially identically on
        // both clusters for the Pi program."  A moderately sized instance is
        // needed so the constant start-up costs do not dominate the ratio.
        let params = PiParams {
            intervals: 2_000_000,
        };
        for nodes in [1, 4] {
            let ic = run(config(nodes, ProtocolKind::JavaIc), &params)
                .report
                .execution_time
                .as_secs_f64();
            let pf = run(config(nodes, ProtocolKind::JavaPf), &params)
                .report
                .execution_time
                .as_secs_f64();
            let rel = (ic - pf).abs() / pf;
            assert!(
                rel < 0.02,
                "Pi protocols diverge by {:.1}% on {nodes} nodes",
                rel * 100.0
            );
        }
    }

    #[test]
    fn pi_generates_almost_no_dsm_traffic() {
        let params = PiParams::quick();
        let out = run(config(4, ProtocolKind::JavaIc), &params);
        let total = out.report.total_stats();
        // Only the accumulator updates and the thread/join bookkeeping touch
        // shared memory.
        assert!(total.field_accesses() < 100);
        assert!(total.locality_checks < 100);
        assert_eq!(out.report.nodes, 4);
    }

    #[test]
    fn benchmark_trait_reports_figure_one() {
        let params = PiParams::quick();
        assert_eq!(params.name().figure(), 1);
        // One node under `java_pf`.
        let (digest, report) = params.execute(config(1, ProtocolKind::JavaPf));
        assert!((digest - std::f64::consts::PI).abs() < 1e-3);
        assert_eq!(report.nodes, 1);
    }
}
