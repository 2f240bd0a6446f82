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
//! Every leg is one round: a run repeats exactly (`tests/repeatability.rs`).

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
            "{:<12} {:<10} {}: {:.4}s/{} loads  ->  {}: {:.4}s/{} loads (hidden {} cy)",
            base.app.to_string(),
            base.mechanism,
            base.protocol_label(),
            base.seconds,
            base.stats.page_loads,
            on.protocol_label(),
            on.seconds,
            on.stats.page_loads,
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
        // Overlap defers when latency is charged, not what is fetched.
        assert_eq!(
            on.stats.page_loads, base.stats.page_loads,
            "{}: overlap changed page traffic",
            base.app
        );
        // Wall time.  Jacobi's overlap effect is ~15–20 %; ASP's honest
        // window (the leading pivot-free work of each Floyd iteration plus
        // the pipelined digest) is ~1 %.
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
    // protocols with overlapped fetches on.
    for app in [BenchmarkName::Jacobi, BenchmarkName::Asp] {
        let run = |protocol| {
            Point {
                transport: TransportConfig::latency_hiding(),
                ..Point::new(app, Scale::Quick, protocol)
            }
            .run()
            .unforced_loads()
        };
        let worst = run(ProtocolKind::JavaIc).max(run(ProtocolKind::JavaPf));
        let ad = run(ProtocolKind::JavaAd);
        println!("  {app} unforced loads under latency_hiding(): ad {ad}, worse(ic, pf) {worst}");
        assert!(
            ad <= worst,
            "{app}: java_ad unforced page loads {ad} exceed worse(ic, pf) {worst} under the \
             latency-hiding transport"
        );
    }
    println!();
}
