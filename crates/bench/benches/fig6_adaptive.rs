//! Figure 6 (extension): the adaptive protocol `java_ad` against the
//! paper's `java_ic` / `java_pf` across all five applications.
//!
//! A verification pass over the modeled results (host time is
//! `benchmark/`'s business): for every app it asserts that `java_ad`
//! produces the same answer as the paper's protocols and that the page loads
//! no write notice forced never exceed the worse of ic/pf — the acceptance
//! criterion of the adaptive protocol — with overlapped fetches, their
//! stride prefetch and deferred release flushes on, as on every run.  Two
//! checks of the transport ride along on the barrier apps (Jacobi, ASP)
//! under `java_pf`: the prefetches they issue right after each acquire must
//! hide some round-trip latency, and the stride prefetch's waste (tickets
//! still pending at an invalidation) must stay within 1/8 of the fetches
//! it issued.  A violation panics, so `cargo bench` is a gate.
//!
//! What counts as forced: [`FigureRow::unforced_loads`].

use hyperion::prelude::*;
use hyperion_apps::common::BenchmarkName;
use hyperion_bench::{threshold_ablation, FigureRow, Point, Scale, ADAPTIVE_NODES};

/// The modeled-result gate: same answers, and `java_ad`'s unforced page
/// loads bounded by the worse of the paper's two protocols on every app.
/// One round: a run repeats exactly (`tests/repeatability.rs`).
fn main() {
    println!();
    println!(
        "== fig6 verification: java_ad vs worse(ic, pf), quick scale, {ADAPTIVE_NODES} nodes =="
    );
    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>10} {:>10}",
        "App", "ic loads", "pf loads", "ad loads", "ad batches", "ad time(s)"
    );
    println!("{:<12} {:>12} {:>12} {:>12}", "", "(unforced)", "", "");
    let (mut stride_issued, mut stride_wasted) = (0u64, 0u64);
    for app in BenchmarkName::all() {
        let run = |protocol| Point::new(app, Scale::Quick, protocol).run();
        let (ic, pf, ad) = (
            run(ProtocolKind::JavaIc),
            run(ProtocolKind::JavaPf),
            run(ProtocolKind::JavaAd),
        );
        let loads = |r: &FigureRow| format!("{} ({})", r.stats.page_loads, r.unforced_loads());
        println!(
            "{:<12} {:>12} {:>12} {:>12} {:>10} {:>10.4}",
            app.to_string(),
            loads(&ic),
            loads(&pf),
            loads(&ad),
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
        let worst = ic.unforced_loads().max(pf.unforced_loads());
        assert!(
            ad.unforced_loads() <= worst,
            "{app}: java_ad unforced page loads exceed the worse of ic/pf ({} > {worst})",
            ad.unforced_loads()
        );
        if matches!(app, BenchmarkName::Jacobi | BenchmarkName::Asp) {
            assert!(
                pf.stats.fetch_overlap_cycles_hidden > 0,
                "{app}: the prefetches after each acquire hid no latency"
            );
            stride_issued += pf.stats.stride_fetches_issued;
            stride_wasted += pf.stats.stride_fetches_wasted;
        }
    }
    // Stride fetches invalidated untouched must stay within 1/8 of those
    // issued (floor of 16 so a run that hardly prefetches cannot fail on a
    // single unlucky one).
    assert!(
        stride_wasted * 8 <= stride_issued.max(16),
        "stride waste {stride_wasted} exceeds 1/8 of {stride_issued} issued"
    );
    println!(
        "  Jacobi+ASP java_pf stride waste: {stride_wasted}/{stride_issued} issued (bound: 1/8)"
    );
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
