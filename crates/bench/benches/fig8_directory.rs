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
//! Each leg is one round: a run repeats exactly (`tests/repeatability.rs`).

use hyperion_bench::{sweep_directory, Scale, ADAPTIVE_NODES};

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
                assert!(
                    on.seconds < base.seconds,
                    "{}: deferred flushing did not reduce the overlapped transport's \
                     modeled wall time ({:.6}s >= {:.6}s)",
                    base.app,
                    on.seconds,
                    base.seconds
                );
            }
            "deferred" => {
                // Deferring only moves when flush latency is charged: wall
                // time must never grow (tiny epsilon for rounding).
                assert!(
                    on.seconds <= base.seconds * 1.001,
                    "{}: deferred flushing increased modeled wall time ({:.6}s > {:.6}s)",
                    base.app,
                    on.seconds,
                    base.seconds
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
