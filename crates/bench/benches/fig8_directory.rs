//! Figure 8 (extension): the cluster-wide prefetch directory and deferred
//! release flushing against figure 7's split-transaction transport.
//!
//! Besides the Criterion-style wall-clock measurements this bench performs
//! a verification pass over the modeled results; a violation panics, so
//! `cargo bench` doubles as a gate:
//!
//! * **Ov+deferred** (Jacobi, ASP under `java_pf`): adding deferred
//!   release flushing to the plain overlapped transport must strictly
//!   reduce modeled wall time and compute the same answer.
//! * **Hints** (Jacobi, ASP): adding the prefetch directory to that (which
//!   makes it `TransportConfig::directory()`, ASP's pivot loop issuing its
//!   fetch a statement-window early) must send hints and compute the same
//!   answer.  Hint waste — hinted pages invalidated untouched — must stay
//!   within 1/8 of the hints sent.  Its time pair is printed, not gated:
//!   at quick scale hints cost 0.1–0.2 % on either app (ROADMAP item 6a
//!   has the harness-scale table).
//! * **Deferred** (all five apps): deferred flushing only moves *when*
//!   flush latency is charged (from the release to the next acquire of the
//!   same monitor), so it must never increase modeled wall time.
//!
//! Each timed leg is one strict round with an aggregate of fresh rounds on
//! a miss (miss rates in the comments).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hyperion::prelude::*;
use hyperion::TransportConfig;
use hyperion_apps::common::BenchmarkName;
use hyperion_bench::report::append_step_summary;
use hyperion_bench::{
    deferred_pair, run_point_configured, sweep_directory, Scale, TransportPair, ADAPTIVE_NODES,
};

fn bench_fig8(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig8_directory");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    for (app, transport, label) in [
        (
            BenchmarkName::Asp,
            TransportConfig::latency_hiding(),
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

/// The modeled times of `rounds` fresh draws of a deferred-flush pair on
/// top of the draw at hand: `(baseline total, enabled total)`.
fn aggregate(pair: &TransportPair, rounds: usize) -> (f64, f64) {
    let overlapped = pair.mechanism == "ov+deferred";
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

fn assert_same_digest(pair: &TransportPair) {
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
    let mut hints_summary = String::from(
        "### fig8: what hints add to overlap + deferred flush (printed, not gated)\n\n\
         | app | +ov+dfl (ms) | directory() (ms) | delta | hints sent | completed | wasted |\n\
         |---|---:|---:|---:|---:|---:|---:|\n",
    );
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
            "ov+deferred" => {
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
            "hints" => {
                hints_sent += on.stats.hints_sent;
                hints_wasted += on.stats.hinted_fetches_wasted;
                assert!(on.stats.hints_sent > 0, "{}: no hints sent", base.app);
                assert_eq!(base.stats.hints_sent, 0, "baseline must not hint");
                // The time pair is printed, not gated: hints cost
                // 0.12–0.16 % on either app at quick scale (3–4 extra page
                // loads, 3–4 of 6–8 hinted fetches wasted), and ROADMAP item
                // 6a decides the directory on the harness-scale table, not
                // on this one.
                let row = format!(
                    "| {} | {:.3} | {:.3} | {:+.2} % | {} | {} | {} |\n",
                    base.app,
                    base.seconds * 1e3,
                    on.seconds * 1e3,
                    (on.seconds / base.seconds - 1.0) * 100.0,
                    on.stats.hints_sent,
                    on.stats.hinted_fetches_completed,
                    on.stats.hinted_fetches_wasted,
                );
                print!("  hints pair {row}");
                hints_summary.push_str(&row);
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
    // Cluster-wide hint-waste bound across the hints pairs: hinted
    // pages that were invalidated untouched must stay within 1/8 of the
    // hints the homes sent (floor of 16 so a near-hintless run cannot fail
    // on a single unlucky conversion).
    assert!(
        hints_wasted * 8 <= hints_sent.max(16),
        "hint waste {hints_wasted} exceeds 1/8 of {hints_sent} hints sent"
    );
    println!("  hint waste: {hints_wasted}/{hints_sent} sent (bound: 1/8)");
    println!();
    append_step_summary(&hints_summary);
}

criterion_group!(benches, bench_fig8, verify_directory_invariants);
criterion_main!(benches);
