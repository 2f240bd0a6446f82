//! Protocol-equivalence properties of the adaptive protocol `java_ad`.
//!
//! The adaptive protocol re-decides the access-detection technique per page
//! at every invalidation and speculatively batches page fetches — none of
//! which may be observable at the application level.  For each of the five
//! benchmark programs these tests assert that:
//!
//! 1. `java_ic`, `java_pf` and `java_ad` compute the same answer;
//! 2. `java_ad`'s total modeled cost (virtual execution time) does not
//!    exceed the worse of the two fixed protocols;
//! 3. `java_ad` never inflates the modeled page traffic beyond the worse of
//!    the two fixed protocols.
//!
//! The dynamically scheduled apps (TSP branch-and-bound, Barnes-Hut's chunk
//! counter) do a schedule-dependent amount of work, so their absolute
//! page-load and time measurements vary between runs under *every*
//! protocol.  As in the `fig6_adaptive` bench gate, properties 2 and 3 are
//! therefore checked strictly on a first round and re-assessed in aggregate
//! over three fresh rounds when the first round misses — an adaptive
//! protocol that systematically inflated cost or traffic still fails.

use hyperion_workspace::apps::common::Benchmark;
use hyperion_workspace::apps::{asp, barnes, graph, jacobi, kvstore, pi, tsp};
use hyperion_workspace::dsm::policy::{
    DetectionSpec, FlushSpec, MigrationSpec, PolicySpec, PredictorSpec, ReplicationSpec,
    TopologySpec,
};
use hyperion_workspace::dsm::AdaptiveParams;
use hyperion_workspace::prelude::*;
use hyperion_workspace::{HyperionConfig, ProtocolKind, TransportBackend, TransportConfig};

const NODES: usize = 3;

/// The transport the suite treats as its default.  CI re-runs the whole
/// suite once with `HYPERION_EQUIV_TRANSPORT` set to a non-default —
/// but semantics-preserving — policy mix, so every equivalence property is
/// also exercised with the latency-hiding / directory policies selected.
fn base_transport() -> TransportConfig {
    match std::env::var("HYPERION_EQUIV_TRANSPORT").as_deref() {
        Ok("latency-hiding") => TransportConfig::latency_hiding(),
        Ok("directory") => TransportConfig::directory(),
        Ok(other) => panic!("unknown HYPERION_EQUIV_TRANSPORT policy mix `{other}`"),
        Err(_) => TransportConfig::default(),
    }
}

fn all_benchmarks() -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(pi::PiParams::quick()),
        Box::new(jacobi::JacobiParams::quick()),
        Box::new(barnes::BarnesParams::quick()),
        Box::new(tsp::TspParams::quick()),
        Box::new(asp::AspParams::quick()),
    ]
}

/// The serving-style workloads (figure 9).  They share the digest and
/// mechanism-bound properties with the paper's batch kernels but not the
/// adaptive cost/traffic dominance ones: a Zipf-skewed request stream gives
/// the adaptive protocol's speculative warm-up a page or two of genuine
/// overhead over the better fixed protocol, which the serving gate prices
/// in throughput (see `fig9_serving`) rather than in raw page loads.
fn serving_benchmarks() -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(kvstore::KvStoreParams::quick()),
        Box::new(graph::PageRankParams::quick()),
    ]
}

fn execute(bench: &dyn Benchmark, protocol: ProtocolKind) -> (f64, RunReport) {
    execute_with(bench, protocol, &base_transport())
}

fn execute_with(
    bench: &dyn Benchmark,
    protocol: ProtocolKind,
    transport: &TransportConfig,
) -> (f64, RunReport) {
    let config = HyperionConfig::builder()
        .cluster(myrinet_200())
        .nodes(NODES)
        .protocol(protocol)
        .transport(transport.clone())
        .build()
        .expect("valid test configuration");
    bench.execute(config)
}

/// Like [`execute_with`] but with an explicit [`PolicySpec`] on top of the
/// transport — the typed surface the policy layer added.
fn execute_with_policies(
    bench: &dyn Benchmark,
    protocol: ProtocolKind,
    transport: &TransportConfig,
    policies: PolicySpec,
) -> (f64, RunReport) {
    let config = HyperionConfig::builder()
        .cluster(myrinet_200())
        .nodes(NODES)
        .protocol(protocol)
        .transport(transport.clone())
        .policies(policies)
        .build()
        .expect("valid test configuration");
    bench.execute(config)
}

#[test]
fn all_three_protocols_compute_identical_results() {
    for bench in all_benchmarks() {
        let (ic, _) = execute(bench.as_ref(), ProtocolKind::JavaIc);
        let (pf, _) = execute(bench.as_ref(), ProtocolKind::JavaPf);
        let (ad, _) = execute(bench.as_ref(), ProtocolKind::JavaAd);
        // Pi's global sum accumulates thread contributions in monitor
        // acquisition order, so its digest is only reproducible to floating
        // point re-association; every other app is order-independent.
        let tolerance = ic.abs().max(1.0) * 1e-9;
        assert!(
            (ic - pf).abs() <= tolerance,
            "{}: ic {ic} vs pf {pf}",
            bench.name()
        );
        assert!(
            (ic - ad).abs() <= tolerance,
            "{}: ic {ic} vs ad {ad}",
            bench.name()
        );
    }
}

#[test]
fn serving_apps_preserve_digests_across_protocols_and_backends() {
    // The serving workloads draw their request streams from seeded
    // generators and commit every write under a monitor, so the digest must
    // be bit-for-bit reproducible across all three protocols and across the
    // in-process simulator vs the Unix-domain socket backend — and every
    // run must actually report serving ops with a non-zero modeled p99.
    let socket = TransportConfig {
        backend: TransportBackend::UnixSocket,
        ..TransportConfig::default()
    };
    for bench in serving_benchmarks() {
        let (reference, _) = execute(bench.as_ref(), ProtocolKind::JavaIc);
        let tolerance = reference.abs().max(1.0) * 1e-9;
        for protocol in [
            ProtocolKind::JavaIc,
            ProtocolKind::JavaPf,
            ProtocolKind::JavaAd,
        ] {
            for (label, transport) in [
                ("sim", TransportConfig::default()),
                ("socket", socket.clone()),
            ] {
                let (digest, report) = execute_with(bench.as_ref(), protocol, &transport);
                assert!(
                    (digest - reference).abs() <= tolerance,
                    "{}/{} ({label}): digest {digest} diverged from the ic/sim \
                     reference {reference}",
                    bench.name(),
                    protocol.name()
                );
                let total = report.total_stats();
                assert!(
                    total.serving_ops > 0,
                    "{}/{} ({label}): no serving ops recorded",
                    bench.name(),
                    protocol.name()
                );
                assert!(
                    report.serving_p99 > VTime::ZERO,
                    "{}/{} ({label}): zero modeled p99 over {} ops",
                    bench.name(),
                    protocol.name(),
                    total.serving_ops
                );
            }
        }
    }
}

#[test]
fn adaptive_cost_never_exceeds_the_worse_fixed_protocol() {
    for bench in all_benchmarks() {
        let round = || {
            let (_, ic) = execute(bench.as_ref(), ProtocolKind::JavaIc);
            let (_, pf) = execute(bench.as_ref(), ProtocolKind::JavaPf);
            let (_, ad) = execute(bench.as_ref(), ProtocolKind::JavaAd);
            (
                ic.execution_time
                    .as_secs_f64()
                    .max(pf.execution_time.as_secs_f64()),
                ad.execution_time.as_secs_f64(),
            )
        };
        let (worst, ad) = round();
        // 2% headroom for virtual-time jitter from host scheduling.
        if ad <= worst * 1.02 {
            continue;
        }
        let mut worst_total = 0.0;
        let mut ad_total = 0.0;
        for _ in 0..3 {
            let (w, a) = round();
            worst_total += w;
            ad_total += a;
        }
        assert!(
            ad_total <= worst_total * 1.02,
            "{}: java_ad cost {ad_total:.6}s exceeds the worse of ic/pf \
             {worst_total:.6}s aggregated over 3 rounds",
            bench.name()
        );
    }
}

#[test]
fn adaptive_page_loads_never_exceed_the_worse_fixed_protocol() {
    for bench in all_benchmarks() {
        let round = || {
            let (_, ic) = execute(bench.as_ref(), ProtocolKind::JavaIc);
            let (_, pf) = execute(bench.as_ref(), ProtocolKind::JavaPf);
            let (_, ad) = execute(bench.as_ref(), ProtocolKind::JavaAd);
            (
                ic.total_stats().page_loads.max(pf.total_stats().page_loads),
                ad.total_stats().page_loads,
            )
        };
        let (worst, ad) = round();
        if ad <= worst {
            continue;
        }
        let mut worst_total = 0u64;
        let mut ad_total = 0u64;
        for _ in 0..5 {
            let (w, a) = round();
            worst_total += w;
            ad_total += a;
        }
        assert!(
            ad_total <= worst_total,
            "{}: java_ad page loads {ad_total} exceed the worse of ic/pf \
             {worst_total} aggregated over 5 rounds",
            bench.name()
        );
    }
}

#[test]
fn all_three_protocols_compute_identical_results_under_latency_hiding_transport() {
    // Overlapped fetches, batched diff flushing and home migration all on:
    // the transport may change *when* latency is charged and *how many*
    // RPCs carry the bytes, never what a program computes.
    let transport = TransportConfig::latency_hiding();
    for bench in all_benchmarks() {
        let (ic, _) = execute_with(bench.as_ref(), ProtocolKind::JavaIc, &transport);
        let (pf, _) = execute_with(bench.as_ref(), ProtocolKind::JavaPf, &transport);
        let (ad, _) = execute_with(bench.as_ref(), ProtocolKind::JavaAd, &transport);
        // And each must agree with the blocking transport's answer.
        let (blocking, _) = execute(bench.as_ref(), ProtocolKind::JavaIc);
        let tolerance = ic.abs().max(1.0) * 1e-9;
        for (label, v) in [("pf", pf), ("ad", ad), ("blocking ic", blocking)] {
            assert!(
                (ic - v).abs() <= tolerance,
                "{}: overlapped ic {ic} vs {label} {v}",
                bench.name()
            );
        }
    }
}

#[test]
fn overlapped_transport_never_costs_wall_time_over_blocking() {
    // The split transactions only defer when fetch latency is charged, so
    // the modeled wall time with overlap must not exceed the blocking
    // baseline on any app.  The claim decomposes per app:
    //
    // * Pi, TSP and Barnes-Hut open no prefetch windows under `java_pf`, so
    //   the two transports run a mechanism-identical engine — the property
    //   holds by construction, which the run itself proves by recording
    //   zero split transactions.  (A raw time comparison would only compare
    //   two draws of their schedule-chaotic exploration.)
    // * Jacobi and ASP do open windows; their modeled times are compared
    //   directly, strictly first and in aggregate on a miss.
    let overlapped = TransportConfig {
        overlapped_fetches: true,
        ..TransportConfig::default()
    };
    for bench in [
        Box::new(pi::PiParams::quick()) as Box<dyn Benchmark>,
        Box::new(tsp::TspParams::quick()),
        Box::new(barnes::BarnesParams::quick()),
    ] {
        let (_, split) = execute_with(bench.as_ref(), ProtocolKind::JavaPf, &overlapped);
        assert_eq!(
            split.total_stats().fetch_overlap_cycles_hidden,
            0,
            "{}: no prefetch windows, so the overlapped transport must have \
             run identically to the blocking one",
            bench.name()
        );
    }
    for bench in [
        Box::new(jacobi::JacobiParams::quick()) as Box<dyn Benchmark>,
        Box::new(asp::AspParams::quick()),
    ] {
        let round = || {
            let (_, blocking) = execute_with(
                bench.as_ref(),
                ProtocolKind::JavaPf,
                &TransportConfig::default(),
            );
            let (_, split) = execute_with(bench.as_ref(), ProtocolKind::JavaPf, &overlapped);
            (
                blocking.execution_time.as_secs_f64(),
                split.execution_time.as_secs_f64(),
            )
        };
        let (blocking, split) = round();
        if split <= blocking * 1.02 {
            continue;
        }
        let mut blocking_total = 0.0;
        let mut split_total = 0.0;
        for _ in 0..5 {
            let (b, s) = round();
            blocking_total += b;
            split_total += s;
        }
        assert!(
            split_total <= blocking_total * 1.02,
            "{}: overlapped transport cost {split_total:.6}s exceeds the blocking \
             baseline {blocking_total:.6}s aggregated over 5 rounds",
            bench.name()
        );
    }
}

#[test]
fn home_migration_preserves_results_and_bounds_diff_inflation() {
    // The strict *reduction* property lives in the fig7 gate, which runs
    // the central-structure apps at 4 nodes where a remote writer can
    // actually dominate.  Migration is a heuristic: on a workload whose
    // writers rotate faster than the dominance vote can track (TSP at 3
    // nodes, where the home owns a third of the queue traffic), a grant
    // made during a home-quiet burst turns some of the home's later writes
    // into diffs.  What must hold *unconditionally* is that the answers are
    // unchanged and that the per-page exponential back-off keeps any such
    // inflation bounded — the diff traffic may not blow past 2× the
    // baseline on any app.
    let migrating = TransportConfig {
        home_migration: true,
        ..TransportConfig::default()
    };
    for bench in all_benchmarks() {
        let mut base_total = 0u64;
        let mut mig_total = 0u64;
        for _ in 0..3 {
            let (d0, base) = execute(bench.as_ref(), ProtocolKind::JavaAd);
            let (d1, mig) = execute_with(bench.as_ref(), ProtocolKind::JavaAd, &migrating);
            assert!(
                (d0 - d1).abs() <= d0.abs().max(1.0) * 1e-9,
                "{}: migration changed the answer",
                bench.name()
            );
            base_total += base.total_stats().diff_messages;
            mig_total += mig.total_stats().diff_messages;
        }
        assert!(
            mig_total <= base_total * 2 + 16,
            "{}: migration inflated diff RPCs past the back-off bound \
             ({mig_total} vs {base_total})",
            bench.name()
        );
    }
}

#[test]
fn all_three_protocols_compute_identical_results_under_directory_transport() {
    // The prefetch directory (cluster-wide hints converted to in-flight
    // tickets) and deferred release flushing both only move *when* latency
    // is charged; neither may be observable at the application level.
    let transport = TransportConfig::directory();
    for bench in all_benchmarks() {
        let (ic, _) = execute_with(bench.as_ref(), ProtocolKind::JavaIc, &transport);
        let (pf, _) = execute_with(bench.as_ref(), ProtocolKind::JavaPf, &transport);
        let (ad, _) = execute_with(bench.as_ref(), ProtocolKind::JavaAd, &transport);
        // And each must agree with the blocking transport's answer.
        let (blocking, _) = execute(bench.as_ref(), ProtocolKind::JavaIc);
        let tolerance = ic.abs().max(1.0) * 1e-9;
        for (label, v) in [("pf", pf), ("ad", ad), ("blocking ic", blocking)] {
            assert!(
                (ic - v).abs() <= tolerance,
                "{}: directory ic {ic} vs {label} {v}",
                bench.name()
            );
        }
    }
}

#[test]
fn directory_hint_waste_stays_within_an_eighth_of_hints_sent() {
    // Cluster-wide bound over every app under the directory transport:
    // hinted pages invalidated untouched must stay within 1/8 of the hints
    // the homes sent (floor of 32 for near-hintless runs — PageRank's
    // irregular traversal yields only a couple dozen hints at quick scale,
    // and a few unlucky conversions must not trip the ratio on a sample
    // that small).
    let transport = TransportConfig::directory();
    for bench in all_benchmarks().into_iter().chain(serving_benchmarks()) {
        let (_, report) = execute_with(bench.as_ref(), ProtocolKind::JavaPf, &transport);
        let total = report.total_stats();
        assert!(
            total.hinted_fetches_wasted * 8 <= total.hints_sent.max(32),
            "{}: hint waste {} exceeds 1/8 of {} hints sent",
            bench.name(),
            total.hinted_fetches_wasted,
            total.hints_sent,
        );
        // Conversions are a subset of what was sent plus the abandoned
        // tickets re-armed at an acquire, and completions plus waste can
        // never exceed what was issued.
        assert!(total.hinted_fetches_issued <= total.hints_sent + total.hinted_fetches_reissued);
        assert!(
            total.hinted_fetches_completed + total.hinted_fetches_wasted
                <= total.hinted_fetches_issued
        );
    }
}

#[test]
fn socket_transport_preserves_every_digest() {
    // The Unix-domain socket backend serves each node's RPC handler table
    // from behind a real socket, but it carries the same byte-precise wire
    // payloads and charges the same caller-side virtual-time costs as the
    // in-process simulator — so every app must produce the same digest
    // under every protocol, and the run must report real wire traffic.
    let socket = TransportConfig {
        backend: TransportBackend::UnixSocket,
        ..TransportConfig::default()
    };
    for bench in all_benchmarks() {
        for protocol in [
            ProtocolKind::JavaIc,
            ProtocolKind::JavaPf,
            ProtocolKind::JavaAd,
        ] {
            let (sim_digest, _) = execute(bench.as_ref(), protocol);
            let (sock_digest, report) = execute_with(bench.as_ref(), protocol, &socket);
            let tolerance = sim_digest.abs().max(1.0) * 1e-9;
            assert!(
                (sim_digest - sock_digest).abs() <= tolerance,
                "{}/{}: sim digest {sim_digest} vs socket digest {sock_digest}",
                bench.name(),
                protocol.name()
            );
            assert_eq!(report.transport, "unix-socket");
            // Every RPC round trip crossed the socket and was counted.
            let wire_rpcs: u64 = report.wire.iter().map(|(_, w)| w.messages).sum();
            assert_eq!(
                wire_rpcs,
                report.total_stats().rpc_requests,
                "{}/{}: wire round trips must match modeled RPC requests",
                bench.name(),
                protocol.name()
            );
        }
    }
}

#[test]
fn deferred_release_flushing_preserves_every_answer() {
    // Deferred flushing re-times the release-side diff RPCs (completion at
    // the next acquire of the same monitor); the bytes, their application
    // order at the homes, and therefore every answer must be unchanged.
    let deferred = TransportConfig {
        deferred_flush: true,
        ..TransportConfig::default()
    };
    for bench in all_benchmarks() {
        let (base, _) = execute(bench.as_ref(), ProtocolKind::JavaPf);
        let (defer, report) = execute_with(bench.as_ref(), ProtocolKind::JavaPf, &deferred);
        assert!(
            (base - defer).abs() <= base.abs().max(1.0) * 1e-9,
            "{}: deferred flushing changed the answer ({base} vs {defer})",
            bench.name()
        );
        // Diff traffic is identical in count — only its completion moved.
        let total = report.total_stats();
        assert!(
            total.deferred_flushes <= total.diff_messages,
            "{}: deferred flushes exceed diff messages",
            bench.name()
        );
    }
}

#[test]
fn adaptive_speculation_waste_stays_throttled() {
    // The waste-feedback throttle must keep speculative prefetching from
    // running away on every app: wasted prefetches are bounded by a
    // sixteenth of the *speculative* prefetches (bulk-covered riders never
    // waste and are excluded from the ratio), plus each node's start-up
    // allowance and one last in-flight batch that may complete after the
    // throttle trips.
    for bench in all_benchmarks().into_iter().chain(serving_benchmarks()) {
        let (_, report) = execute(bench.as_ref(), ProtocolKind::JavaAd);
        let total = report.total_stats();
        assert!(
            total.pages_prefetch_wasted <= total.pages_prefetch_speculative / 16 + 9 * NODES as u64,
            "{}: wasted {} of {} speculative prefetches",
            bench.name(),
            total.pages_prefetch_wasted,
            total.pages_prefetch_speculative,
        );
        // Consistency: every batched fetch carried at least one extra page,
        // and speculative riders are a subset of all riders.
        assert!(total.pages_prefetched >= total.batched_fetches);
        assert!(total.pages_prefetch_speculative <= total.pages_prefetched);
    }
}

/// The Noop/synchronous policy selection equivalent to every mechanism
/// flag being off, with the detection policy matching `protocol`.
fn noop_spec(protocol: ProtocolKind) -> PolicySpec {
    PolicySpec {
        detection: match protocol {
            ProtocolKind::JavaIc => DetectionSpec::InlineCheck,
            ProtocolKind::JavaPf => DetectionSpec::PageProtect,
            ProtocolKind::JavaAd => DetectionSpec::Adaptive(AdaptiveParams::default()),
        },
        predictor: PredictorSpec::Noop,
        migration: MigrationSpec::Noop,
        flush: FlushSpec::Batched { max_pages: 1 },
        replication: ReplicationSpec::Noop,
        topology: TopologySpec::Flat,
    }
}

/// A fixed, single-threaded access pattern: two remote multi-page arrays
/// read and written across four monitor epochs.  It exercises page
/// fetches, field-granularity diffs, invalidation epochs and — under
/// `java_ad` — per-page mode switches and batched speculative fetches.
/// With one OS thread the whole event sequence is deterministic, so two
/// runs of equivalent configurations must agree in *every* stat counter,
/// not just in aggregate.
fn deterministic_workload(
    protocol: ProtocolKind,
    transport: &TransportConfig,
    policies: Option<PolicySpec>,
) -> (u64, RunReport) {
    use hyperion_workspace::pm2::SLOTS_PER_PAGE;
    let mut builder = HyperionConfig::builder()
        .cluster(myrinet_200())
        .nodes(NODES)
        .protocol(protocol)
        .transport(transport.clone());
    if let Some(spec) = policies {
        builder = builder.policies(spec);
    }
    let config = builder.build().expect("valid test configuration");
    let rt = HyperionRuntime::new(config).expect("valid test runtime");
    let outcome = rt.run(|ctx| {
        let slots = (3 * SLOTS_PER_PAGE) as u64;
        let near = ctx.alloc_slots_page_aligned(slots as usize, NodeId(1));
        let far = ctx.alloc_slots_page_aligned(slots as usize, NodeId(2));
        let mon = ctx.new_monitor(NodeId(1));
        let mut acc = 0u64;
        for epoch in 1..=4u64 {
            mon.enter(ctx);
            // A strided sweep (re-fetches everything invalidated at the
            // acquire) plus a dense tail on the far array (drives java_ad
            // towards page faults and batched fetches on those pages).
            for k in (0..slots).step_by(97) {
                acc = acc.wrapping_add(ctx.get_slot(near.offset(k)));
                ctx.put_slot(near.offset(k), epoch.wrapping_mul(k + 1));
            }
            for k in slots - SLOTS_PER_PAGE as u64..slots {
                acc = acc.wrapping_add(ctx.get_slot(far.offset(k)));
                ctx.put_slot(far.offset(k), epoch.wrapping_add(k));
            }
            mon.exit(ctx);
        }
        acc
    });
    (outcome.result, outcome.report)
}

#[test]
fn noop_policies_are_byte_identical_to_disabled_flags() {
    // The legacy flag surface disables a mechanism by leaving its boolean
    // off; the policy surface disables it by selecting the `Noop` policy
    // (or the unbatched synchronous flush).  Both must drive the engine
    // down exactly the same path.  The deterministic single-threaded
    // workload pins that down to the strongest possible claim — every one
    // of the stat counters byte-identical, per node, under all three
    // protocols, on the in-process simulator and behind a real socket
    // alike.  (The five benchmark apps run real threads, whose host
    // interleaving perturbs even cluster-wide counter totals between runs
    // of the *same* configuration; see
    // `noop_policies_preserve_every_app_digest` for the app-level claim.)
    for backend in [TransportBackend::Sim, TransportBackend::UnixSocket] {
        let transport = TransportConfig {
            backend,
            ..TransportConfig::blocking()
        };
        for protocol in [
            ProtocolKind::JavaIc,
            ProtocolKind::JavaPf,
            ProtocolKind::JavaAd,
        ] {
            let (flag_result, flag_report) = deterministic_workload(protocol, &transport, None);
            let (policy_result, policy_report) =
                deterministic_workload(protocol, &transport, Some(noop_spec(protocol)));
            assert_eq!(
                flag_result,
                policy_result,
                "{}/{backend:?}: Noop policies changed the computed result",
                protocol.name()
            );
            assert_eq!(flag_report.node_stats.len(), policy_report.node_stats.len());
            for (node, (flags, policies)) in flag_report
                .node_stats
                .iter()
                .zip(&policy_report.node_stats)
                .enumerate()
            {
                for ((counter, by_flag), (_, by_policy)) in
                    flags.fields().into_iter().zip(policies.fields())
                {
                    assert_eq!(
                        by_flag,
                        by_policy,
                        "{}/{backend:?} node {node}: `{counter}` differs between \
                         the disabled-flag and Noop-policy paths",
                        protocol.name()
                    );
                }
            }
        }
    }
}

#[test]
fn noop_policies_preserve_every_app_digest() {
    // App-level side of the Noop-equivalence claim, on all five benchmarks
    // under all three protocols: the digest must be unchanged, and every
    // counter of the mechanisms both surfaces disabled must be exactly
    // zero on both paths.  (Counter-for-counter equality between two runs
    // is a single-thread-only property — see
    // `noop_policies_are_byte_identical_to_disabled_flags`.)
    const DISABLED_MECHANISM_COUNTERS: [&str; 10] = [
        "hints_sent",
        "hinted_fetches_issued",
        "hinted_fetches_completed",
        "hinted_fetches_wasted",
        "hinted_fetches_reissued",
        "pages_migrated",
        "deferred_flushes",
        "batched_flushes",
        "fetch_overlap_cycles_hidden",
        "flush_overlap_cycles_hidden",
    ];
    let transport = TransportConfig::blocking();
    for bench in all_benchmarks() {
        for protocol in [
            ProtocolKind::JavaIc,
            ProtocolKind::JavaPf,
            ProtocolKind::JavaAd,
        ] {
            let (flag_digest, flag_report) = execute_with(bench.as_ref(), protocol, &transport);
            let (policy_digest, policy_report) =
                execute_with_policies(bench.as_ref(), protocol, &transport, noop_spec(protocol));
            // Pi's digest accumulates in monitor-acquisition order, so it
            // is only reproducible to float re-association; the others
            // agree exactly but share the check.
            let tolerance = flag_digest.abs().max(1.0) * 1e-9;
            assert!(
                (flag_digest - policy_digest).abs() <= tolerance,
                "{}/{}: flag digest {flag_digest} vs Noop-policy digest {policy_digest}",
                bench.name(),
                protocol.name()
            );
            for (label, report) in [("flags", &flag_report), ("policies", &policy_report)] {
                for (counter, value) in report.total_stats().fields() {
                    if DISABLED_MECHANISM_COUNTERS.contains(&counter) {
                        assert_eq!(
                            value,
                            0,
                            "{}/{} ({label}): disabled mechanism counter \
                             `{counter}` is non-zero",
                            bench.name(),
                            protocol.name()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn validation_riders_keep_the_ledger_and_agree_across_backends() {
    // The rider ledger on quick KV under `java_pf`, one client per node and
    // the default transport, over the simulator and over Unix sockets:
    // every fault ends in an RPC or in a rider's confirmation being used,
    // never in neither, and the confirmations save real fetches.
    let kv = kvstore::KvStoreParams::quick();
    let mut digests = Vec::new();
    for backend in [TransportBackend::Sim, TransportBackend::UnixSocket] {
        let transport = TransportConfig {
            backend,
            ..TransportConfig::default()
        };
        let (digest, report) = execute_with(&kv, ProtocolKind::JavaPf, &transport);
        let t = report.total_stats();
        assert_eq!(
            t.page_faults,
            t.page_loads + t.rider_opens,
            "{backend:?}: a fault ended in neither a fetch nor an open"
        );
        assert!(t.rider_opens > 0, "{backend:?}: no rider was ever used");
        assert!(t.page_loads < t.page_faults, "{backend:?}");
        assert!(t.validation_riders >= t.rider_opens, "{backend:?}");
        digests.push(digest);
    }
    assert_eq!(digests[0], digests[1], "transport changed the KV digest");

    // KV's clients interleave as the host schedules them, so which pages a
    // home finds changed differs from run to run on either backend.  With
    // one thread the event sequence is fixed, and the two backends must
    // agree on the modeled time and on every counter, riders included.
    for protocol in ProtocolKind::all_extended() {
        let run = |backend| {
            let transport = TransportConfig {
                backend,
                ..TransportConfig::default()
            };
            deterministic_workload(protocol, &transport, None)
        };
        let (sim_result, sim) = run(TransportBackend::Sim);
        let (unix_result, unix) = run(TransportBackend::UnixSocket);
        assert_eq!(sim_result, unix_result, "{protocol:?}");
        assert_eq!(sim.execution_time, unix.execution_time, "{protocol:?}");
        assert_eq!(sim.node_stats, unix.node_stats, "{protocol:?}");
        let t = sim.total_stats();
        assert!(
            t.rider_opens > 0 && t.validation_riders >= t.rider_opens,
            "{protocol:?}: the workload never used a rider ({} sent)",
            t.validation_riders
        );
    }
}
