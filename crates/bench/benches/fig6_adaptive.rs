//! Figure 6 (extension): the adaptive protocol `java_ad` against the
//! paper's `java_ic` / `java_pf` across all five applications.
//!
//! A verification pass over the modeled results (host time is
//! `benchmark/`'s business): for every app it asserts that `java_ad`
//! produces the same answer as the paper's protocols and that its modeled
//! page loads never exceed the worse of ic/pf — the acceptance criterion of
//! the adaptive protocol.  A violation panics, so `cargo bench` is a gate.

use hyperion::prelude::*;
use hyperion_apps::common::BenchmarkName;
use hyperion_bench::{threshold_ablation, FigureRow, Point, Scale, ADAPTIVE_NODES};

/// The modeled-result gate: same answers, and `java_ad` page loads bounded
/// by the worse of the paper's two protocols on every app.
///
/// One strict round per app and, on a miss, five fresh rounds in aggregate.
/// The dynamically scheduled apps (TSP's branch-and-bound, Barnes-Hut's
/// chunk counter) used to explore a host-schedule-dependent amount of work,
/// which made a single draw a coin flip and bought them an extra retry; with
/// their queues and counters granted in virtual-time order their strict
/// round held in 60 of 60 runs and the retry is gone.  The aggregate stays
/// for ASP: its loads still differ by ±1 of 388 between runs (the pivot row
/// races its page-mate's flush, see `tests/repeatability.rs`) and the strict
/// round missed in 2 of 60.
fn main() {
    println!();
    println!(
        "== fig6 verification: java_ad vs worse(ic, pf), quick scale, {ADAPTIVE_NODES} nodes =="
    );
    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>10} {:>10}",
        "App", "ic loads", "pf loads", "ad loads", "ad batches", "ad time(s)"
    );
    for app in BenchmarkName::all() {
        let round = || -> (FigureRow, FigureRow, FigureRow) {
            let run = |protocol| Point::new(app, Scale::Quick, protocol).run();
            (
                run(ProtocolKind::JavaIc),
                run(ProtocolKind::JavaPf),
                run(ProtocolKind::JavaAd),
            )
        };
        let (ic, pf, ad) = round();
        println!(
            "{:<12} {:>12} {:>12} {:>12} {:>10} {:>10.4}",
            app.to_string(),
            ic.stats.page_loads,
            pf.stats.page_loads,
            ad.stats.page_loads,
            ad.stats.batched_fetches,
            ad.seconds,
        );
        assert!(
            ic.same_digest(&pf) && ic.same_digest(&ad),
            "{app}: protocol digests diverge (ic {}, pf {}, ad {})",
            ic.digest,
            pf.digest,
            ad.digest
        );
        let worst = ic.stats.page_loads.max(pf.stats.page_loads);
        if ad.stats.page_loads <= worst {
            continue;
        }
        // Aggregate five fresh rounds, tolerating one load of jitter per
        // round — systematic inflation still fails by a margin.
        const ROUNDS: u64 = 5;
        let mut ad_total = 0u64;
        let mut worst_total = 0u64;
        for _ in 0..ROUNDS {
            let (ic, pf, ad) = round();
            ad_total += ad.stats.page_loads;
            worst_total += ic.stats.page_loads.max(pf.stats.page_loads);
        }
        println!(
            "  {app}: strict round missed ({} > {worst}); aggregate of {ROUNDS}: ad {ad_total} vs worse {worst_total}",
            ad.stats.page_loads
        );
        assert!(
            ad_total <= worst_total + ROUNDS,
            "{app}: java_ad page loads exceed the worse of ic/pf even aggregated \
             over {ROUNDS} rounds ({ad_total} > {worst_total} + {ROUNDS})"
        );
    }
    println!();
    println!("-- switching-threshold ablation (Jacobi, hi multiple of break-even) --");
    for (hi, row) in threshold_ablation(BenchmarkName::Jacobi, Scale::Quick, &[0.25, 1.0, 4.0]) {
        println!(
            "hi = {hi:>5.2} * n_star: exec {:>9.4}s  checks {:>8}  faults {:>6}  switches {:>4}",
            row.seconds,
            row.stats.locality_checks,
            row.stats.page_faults,
            row.stats.protocol_switches,
        );
    }
    println!();
}
