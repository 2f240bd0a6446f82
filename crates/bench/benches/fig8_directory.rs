//! Figure 8 (extension): deferred release flushing, on figure 7's
//! split-transaction transport (`TransportConfig::directory()`) and on the
//! default one.
//!
//! A verification pass over the modeled results (host time is
//! `benchmark/`'s business); a violation panics, so `cargo bench` is a
//! gate:
//!
//! * **Ov+deferred** (Jacobi, ASP under `java_pf`): adding deferred
//!   release flushing to the overlapped transport (`latency_hiding()` →
//!   `directory()`) must strictly reduce modeled wall time and compute the
//!   same answer.  The overlapped transport prefetches along the
//!   requester's stride: its waste — stride fetches invalidated untouched —
//!   must stay within 1/8 of those issued over both apps.
//! * **Deferred** (all five apps): deferred flushing only moves *when*
//!   flush latency is charged (from the release to the next acquire of the
//!   same monitor), so it must never increase modeled wall time.
//!
//! Each timed leg is one strict round with an aggregate of fresh rounds on
//! a miss (miss rates in the comments).

use hyperion_bench::{deferred_pair, sweep_directory, Scale, TransportPair, ADAPTIVE_NODES};

/// The modeled times of `rounds` fresh draws of a deferred-flush pair on
/// top of the draw at hand: `(baseline total, enabled total)`.
fn aggregate(pair: &TransportPair, rounds: usize) -> (f64, f64) {
    let overlapped = pair.baseline.mechanism == "ov+deferred";
    let (mut base_total, mut on_total) = (pair.baseline.seconds, pair.enabled.seconds);
    for _ in 0..rounds {
        let fresh = deferred_pair(pair.baseline.app, Scale::Quick, overlapped);
        base_total += fresh.baseline.seconds;
        on_total += fresh.enabled.seconds;
    }
    println!(
        "  {}: strict round missed; aggregate of {}: {on_total:.4}s vs {base_total:.4}s",
        pair.baseline.app,
        rounds + 1
    );
    (base_total, on_total)
}

fn main() {
    println!();
    println!(
        "== fig8 verification: deferred release flushing, quick scale, {ADAPTIVE_NODES} nodes =="
    );
    let mut stride_issued = 0u64;
    let mut stride_wasted = 0u64;
    for pair in sweep_directory(Scale::Quick) {
        let base = &pair.baseline;
        let on = &pair.enabled;
        println!(
            "{:<12} {:<10} {}: {:.4}s  ->  {}: {:.4}s (stride {} issued/{} done/{} wasted, \
             deferred {}, flush hidden {} cy)",
            base.app.to_string(),
            base.mechanism,
            base.protocol_label(),
            base.seconds,
            on.protocol_label(),
            on.seconds,
            on.stats.stride_fetches_issued,
            on.stats.stride_fetches_completed,
            on.stats.stride_fetches_wasted,
            on.stats.deferred_flushes,
            on.stats.flush_overlap_cycles_hidden,
        );
        assert!(
            base.same_digest(on),
            "{}: {} transport changed the answer ({} vs {})",
            base.app,
            base.mechanism,
            base.digest,
            on.digest
        );
        match base.mechanism {
            "ov+deferred" => {
                stride_issued += on.stats.stride_fetches_issued;
                stride_wasted += on.stats.stride_fetches_wasted;
                assert!(
                    on.stats.deferred_flushes > 0,
                    "{}: no deferred flushes",
                    base.app
                );
                // Wall time: strict round first, then an aggregate re-draw.
                // Medians of 15 quick-scale runs: Jacobi 5.013 → 5.003 ms,
                // ASP 32.069 → 32.040 ms.  Over 10 runs of this gate Jacobi's
                // strict round never missed; ASP's (both sides move in
                // ~0.04 ms steps with its pivot-row race) missed 3 times and
                // the aggregate passed each time, by 0.3–0.7 ms in 673.
                if on.seconds < base.seconds {
                    continue;
                }
                let rounds = 20;
                let (base_total, on_total) = aggregate(&pair, rounds);
                assert!(
                    on_total < base_total,
                    "{}: deferred flushing did not reduce the overlapped transport's \
                     modeled wall time ({on_total:.4}s >= {base_total:.4}s aggregated over \
                     {} rounds)",
                    base.app,
                    rounds + 1
                );
            }
            "deferred" => {
                // Deferring only moves when flush latency is charged: wall
                // time must never grow (tiny epsilon for rounding).
                if on.seconds <= base.seconds * 1.001 {
                    continue;
                }
                // The deferred effect is below the residual per-round jitter
                // (~1 %), so a missed strict round is re-assessed over ten
                // rounds in aggregate.  Observed over 20 runs on the
                // virtual-time order: ASP's strict round missed 3 times and
                // the aggregate passed each time; no other app missed.
                let rounds = 9;
                let (base_total, on_total) = aggregate(&pair, rounds);
                assert!(
                    on_total <= base_total * 1.005,
                    "{}: deferred flushing increased modeled wall time \
                     ({on_total:.4}s > {base_total:.4}s aggregated over {} rounds)",
                    base.app,
                    rounds + 1
                );
            }
            other => panic!("unknown mechanism {other}"),
        }
    }
    // Waste bound across the overlapped pairs: stride fetches invalidated
    // untouched must stay within 1/8 of those issued (floor of 16 so a run
    // that hardly prefetches cannot fail on a single unlucky one).
    assert!(
        stride_wasted * 8 <= stride_issued.max(16),
        "stride waste {stride_wasted} exceeds 1/8 of {stride_issued} issued"
    );
    println!("  stride waste: {stride_wasted}/{stride_issued} issued (bound: 1/8)");
    println!();
}
