//! Figure 7 (extension): the split-transaction transport against the
//! blocking transport of the paper.
//!
//! A verification pass over the modeled results (host time is
//! `benchmark/`'s business); a violation panics, so `cargo bench` is a
//! gate:
//!
//! * **Overlap** (Jacobi, ASP under `java_pf`): overlapped fetches must
//!   strictly reduce the modeled wall time against the blocking transport,
//!   hide a non-zero amount of round-trip latency, keep page traffic
//!   identical and compute the same answer.
//! * The `java_ad` page-load bound of the fig6 gate must keep holding with
//!   the overlapped transport enabled.
//!
//! The wall-time legs are gated on one strict round: the 12- and 20-round
//! aggregates they carried while monitor hand-off, barrier release and the
//! work queues followed host order were run 20 times on the virtual-time
//! order and never tripped, so they are gone.  What still trips (ASP's
//! ±1–2 page loads) keeps its slack, with the observed miss rate in its
//! comment.

use hyperion::prelude::*;
use hyperion::TransportConfig;
use hyperion_apps::common::BenchmarkName;
use hyperion_bench::{sweep_transport, Point, Scale, ADAPTIVE_NODES};

fn main() {
    println!();
    println!(
        "== fig7 verification: split-transaction vs blocking transport, quick scale, \
         {ADAPTIVE_NODES} nodes =="
    );
    for pair in sweep_transport(Scale::Quick) {
        let base = &pair.baseline;
        let on = &pair.enabled;
        println!(
            "{:<12} {:<10} {}: {:.4}s/{} diffs  ->  {}: {:.4}s/{} diffs (hidden {} cy)",
            base.app.to_string(),
            base.mechanism,
            base.protocol_label(),
            base.seconds,
            base.stats.diff_messages,
            on.protocol_label(),
            on.seconds,
            on.stats.diff_messages,
            on.stats.fetch_overlap_cycles_hidden,
        );
        assert!(
            base.same_digest(on),
            "{}: transport changed the answer ({} vs {})",
            base.app,
            base.digest,
            on.digest
        );
        // Deterministic invariants of the split transport.
        assert!(
            on.stats.fetch_overlap_cycles_hidden > 0,
            "{}: overlapped transport hid no latency",
            base.app
        );
        // Overlap defers when latency is charged, not what is fetched; page
        // traffic stays equal up to a slack of 5 % + one load per node.
        // Still needed: Jacobi's loads were equal in 20 of 20 runs on the
        // virtual-time order, ASP's differed by 1–2 of 388 in 5 of 20 (its
        // pivot row races its page-mate's flush — `tests/repeatability.rs`
        // names the counter).
        let slack = base.stats.page_loads / 20 + ADAPTIVE_NODES as u64;
        assert!(
            on.stats.page_loads.abs_diff(base.stats.page_loads) <= slack,
            "{}: overlap changed page traffic: {} vs {}",
            base.app,
            on.stats.page_loads,
            base.stats.page_loads
        );
        // Wall time, one strict round.  Jacobi's overlap effect is ~15–20 %;
        // ASP's honest window (the leading pivot-free work of each Floyd
        // iteration plus the pipelined digest) is ~1 %.  The 12- and
        // 20-round aggregates that used to clear the barrier-contention
        // jitter never ran in 20 of 20 runs.
        assert!(
            on.seconds < base.seconds,
            "{}: overlapped transport did not reduce modeled wall time \
             ({:.6}s >= {:.6}s)",
            base.app,
            on.seconds,
            base.seconds
        );
    }

    // The fig6 acceptance bound must survive the new transport: java_ad's
    // unforced page loads stay within the worse of the paper's two
    // protocols with overlapped fetches on.  Strict round first, aggregate
    // of three on a miss — the fallback stays: on the virtual-time order the
    // strict round missed in 1 of 40 runs (ASP, 389 loads against 388: the
    // pivot-row race named in `tests/repeatability.rs`), Jacobi never.
    for app in [BenchmarkName::Jacobi, BenchmarkName::Asp] {
        let run = |protocol| {
            Point {
                transport: TransportConfig::latency_hiding(),
                ..Point::new(app, Scale::Quick, protocol)
            }
            .run()
        };
        let round = || {
            let ic = run(ProtocolKind::JavaIc);
            let pf = run(ProtocolKind::JavaPf);
            let ad = run(ProtocolKind::JavaAd);
            (
                ic.unforced_loads().max(pf.unforced_loads()),
                ad.unforced_loads(),
            )
        };
        let (worst, ad_loads) = round();
        if ad_loads <= worst {
            continue;
        }
        let mut worst_total = 0u64;
        let mut ad_total = 0u64;
        for _ in 0..3 {
            let (w, a) = round();
            worst_total += w;
            ad_total += a;
        }
        println!(
            "  {app}: strict loads round missed ({ad_loads} > {worst}); \
             aggregate of 3: {ad_total} vs {worst_total}"
        );
        // The strict keeper of this bound is the fig6 gate (default
        // transport); here a few pages of slack absorb the ±1-page noise
        // that `worse(two draws)` vs a third draw shows.
        assert!(
            ad_total <= worst_total + 8,
            "{app}: java_ad unforced page loads {ad_total} exceed worse(ic, pf) {worst_total} \
             under the latency-hiding transport (aggregated over 3 rounds)"
        );
    }
    println!();
}
