//! Figure 6 (extension): the adaptive protocol `java_ad` against the
//! paper's `java_ic` / `java_pf` across all five applications.
//!
//! A verification pass over the modeled results (host time is
//! `benchmark/`'s business): for every app it asserts that `java_ad`
//! produces the same answer as the paper's protocols and that the page loads
//! no write notice forced never exceed the worse of ic/pf — the acceptance
//! criterion of the adaptive protocol.  A violation panics, so `cargo bench`
//! is a gate.
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
