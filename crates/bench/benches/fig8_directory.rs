//! Figure 8 (extension): the cluster-wide prefetch directory and deferred
//! release flushing against figure 7's split-transaction transport.
//!
//! Besides the Criterion-style wall-clock measurements this bench performs
//! a verification pass over the modeled results; a violation panics, so
//! `cargo bench` doubles as a gate:
//!
//! * **Directory** (Jacobi, ASP under `java_pf`): the directory
//!   transport (hints + deferred release, ASP's pivot loop issuing its
//!   fetch a statement-window early) must strictly reduce modeled wall
//!   time against the plain overlapped transport, send hints, and compute
//!   the same answer.  Hint waste — hinted pages invalidated untouched —
//!   must stay within 1/8 of the hints sent.
//! * **Deferred** (all five apps): deferred flushing only moves *when*
//!   flush latency is charged (from the release to the next acquire of the
//!   same monitor), so it must never increase modeled wall time.
//!
//! Each leg is one strict round with an aggregate of fresh rounds on a
//! miss.  The fallbacks were run 20 times on the virtual-time monitor order:
//! the extra retry and the 1.5× ceiling TSP and Barnes-Hut had never
//! tripped and are gone; the aggregates still run (miss rates in their
//! comments), and the ASP directory leg has turned from a noisy win into a
//! near-exact tie that fails more often than not.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hyperion::prelude::*;
use hyperion::TransportConfig;
use hyperion_apps::common::BenchmarkName;
use hyperion_bench::{
    deferred_pair, directory_pair, run_point_configured, sweep_directory, DirectoryPair, Scale,
    ADAPTIVE_NODES,
};

fn bench_fig8(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig8_directory");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    for (app, transport, label) in [
        (
            BenchmarkName::Asp,
            TransportConfig {
                overlapped_fetches: true,
                ..TransportConfig::default()
            },
            "overlapped",
        ),
        (
            BenchmarkName::Asp,
            TransportConfig::directory(),
            "directory",
        ),
        (
            BenchmarkName::Jacobi,
            TransportConfig::directory(),
            "directory",
        ),
    ] {
        group.bench_with_input(
            BenchmarkId::new(app.to_string(), label),
            &transport,
            |b, transport| {
                b.iter(|| {
                    run_point_configured(
                        app,
                        Scale::Quick,
                        &myrinet_200(),
                        ProtocolKind::JavaPf,
                        ADAPTIVE_NODES,
                        &AdaptiveParams::default(),
                        transport,
                        String::new(),
                    )
                    .seconds
                })
            },
        );
    }
    group.finish();
}

/// One fresh draw of the same pair (same app, mechanism, configurations).
fn redraw(pair: &DirectoryPair) -> DirectoryPair {
    match pair.mechanism {
        "directory" => directory_pair(pair.baseline.app, Scale::Quick)
            .expect("pair app is in the directory sweep"),
        "deferred" => deferred_pair(pair.baseline.app, Scale::Quick),
        other => panic!("unknown mechanism {other}"),
    }
}

fn assert_same_digest(pair: &DirectoryPair) {
    let base = &pair.baseline;
    let on = &pair.enabled;
    let tolerance = base.digest.abs().max(1.0) * 1e-9;
    assert!(
        (base.digest - on.digest).abs() <= tolerance,
        "{}: {} transport changed the answer ({} vs {})",
        base.app,
        pair.mechanism,
        base.digest,
        on.digest
    );
}

fn verify_directory_invariants(_c: &mut Criterion) {
    println!();
    println!(
        "== fig8 verification: prefetch directory & deferred release, quick scale, \
         {ADAPTIVE_NODES} nodes =="
    );
    let mut hints_sent = 0u64;
    let mut hints_wasted = 0u64;
    for pair in sweep_directory(Scale::Quick) {
        let base = &pair.baseline;
        let on = &pair.enabled;
        println!(
            "{:<12} {:<10} {}: {:.4}s  ->  {}: {:.4}s (hints {} sent/{} done/{} wasted, \
             deferred {}, flush hidden {} cy)",
            base.app.to_string(),
            pair.mechanism,
            base.protocol_label(),
            base.seconds,
            on.protocol_label(),
            on.seconds,
            on.stats.hints_sent,
            on.stats.hinted_fetches_completed,
            on.stats.hinted_fetches_wasted,
            on.stats.deferred_flushes,
            on.stats.flush_overlap_cycles_hidden,
        );
        assert_same_digest(&pair);
        match pair.mechanism {
            "directory" => {
                hints_sent += on.stats.hints_sent;
                hints_wasted += on.stats.hinted_fetches_wasted;
                // The directory must actually participate: hints on the
                // wire and deferred flushes at the barriers.
                assert!(on.stats.hints_sent > 0, "{}: no hints sent", base.app);
                assert!(
                    on.stats.deferred_flushes > 0,
                    "{}: no deferred flushes",
                    base.app
                );
                assert_eq!(base.stats.hints_sent, 0, "baseline must not hint");
                // Wall time: strict round first, then an aggregate re-draw.
                // Observed over 20 runs on the virtual-time order — Jacobi:
                // strict round missed 4 times, aggregate passed 4 of 4
                // (0.1252 s vs 0.1253 s over 25 rounds); ASP: strict round
                // missed 16 times and the aggregate then *failed* 13 times,
                // by 0.0002–0.0005 s in 0.6735 s.  Host order used to spread
                // ASP's rounds over 0.036–0.043 s and hid ~100 k cycles of
                // flush latency per run behind barrier drift; in order the
                // rounds are 0.0320–0.0321 s, 5 880 cycles are hidden, and
                // what is left of the directory's effect on ASP at quick
                // scale is a tie.  The inequality is not weakened to make
                // that pass (it failed every second run before, for noise);
                // ROADMAP item 5b lists directory hints among the mechanisms
                // to keep or cut with these numbers.
                if on.seconds < base.seconds {
                    continue;
                }
                let rounds = if base.app == BenchmarkName::Asp {
                    20
                } else {
                    24
                };
                let (mut base_total, mut on_total) = (base.seconds, on.seconds);
                for _ in 0..rounds {
                    let fresh = redraw(&pair);
                    base_total += fresh.baseline.seconds;
                    on_total += fresh.enabled.seconds;
                    hints_sent += fresh.enabled.stats.hints_sent;
                    hints_wasted += fresh.enabled.stats.hinted_fetches_wasted;
                }
                println!(
                    "  {}: strict round missed; aggregate of {}: {on_total:.4}s vs {base_total:.4}s",
                    base.app,
                    rounds + 1
                );
                assert!(
                    on_total < base_total,
                    "{}: directory transport did not reduce modeled wall time \
                     ({on_total:.4}s >= {base_total:.4}s aggregated over {} rounds)",
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
                // the aggregate passed each time; no other app missed, so
                // the extra retry and the 1.5× ceiling TSP and Barnes-Hut
                // used to get are gone and every app holds the tight bound.
                let (mut base_total, mut on_total) = (base.seconds, on.seconds);
                let rounds = 9;
                for _ in 0..rounds {
                    let fresh = redraw(&pair);
                    base_total += fresh.baseline.seconds;
                    on_total += fresh.enabled.seconds;
                }
                println!(
                    "  {}: strict round missed; aggregate of {}: {on_total:.4}s vs {base_total:.4}s",
                    base.app,
                    rounds + 1
                );
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
    // Cluster-wide hint-waste bound across the directory pairs: hinted
    // pages that were invalidated untouched must stay within 1/8 of the
    // hints the homes sent (floor of 16 so a near-hintless run cannot fail
    // on a single unlucky conversion).
    assert!(
        hints_wasted * 8 <= hints_sent.max(16),
        "hint waste {hints_wasted} exceeds 1/8 of {hints_sent} hints sent"
    );
    println!("  hint waste: {hints_wasted}/{hints_sent} sent (bound: 1/8)");
    println!();
}

criterion_group!(benches, bench_fig8, verify_directory_invariants);
criterion_main!(benches);
