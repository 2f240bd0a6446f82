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
use hyperion_workspace::prelude::*;
use hyperion_workspace::{HyperionConfig, ProtocolKind, TransportBackend, TransportConfig};

const NODES: usize = 3;

/// The transports the suite treats as its base: every property stated
/// against "the" transport is checked under the default one and under a
/// non-default — but semantics-preserving — mix (overlapped fetches with
/// their stride prefetch, deferred flushing), so each is also proved
/// against a live deferred-flush policy and live in-flight tickets.
fn base_transports() -> [TransportConfig; 2] {
    [TransportConfig::default(), TransportConfig::directory()]
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

/// True if two digests agree up to floating-point re-association: Pi's
/// global sum accumulates thread contributions in monitor acquisition
/// order; every other app is order-independent and agrees exactly.
fn same_digest(a: f64, b: f64) -> bool {
    (a - b).abs() <= a.abs().max(1.0) * 1e-9
}

/// Every base transport paired with every benchmark of `benches`.
fn bases_times(
    benches: fn() -> Vec<Box<dyn Benchmark>>,
) -> impl Iterator<Item = (TransportConfig, Box<dyn Benchmark>)> {
    base_transports()
        .into_iter()
        .flat_map(move |base| benches().into_iter().map(move |b| (base.clone(), b)))
}

#[test]
fn all_three_protocols_compute_identical_results() {
    for (base, bench) in bases_times(all_benchmarks) {
        let (ic, _) = execute_with(bench.as_ref(), ProtocolKind::JavaIc, &base);
        let (pf, _) = execute_with(bench.as_ref(), ProtocolKind::JavaPf, &base);
        let (ad, _) = execute_with(bench.as_ref(), ProtocolKind::JavaAd, &base);
        assert!(same_digest(ic, pf), "{}: ic {ic} vs pf {pf}", bench.name());
        assert!(same_digest(ic, ad), "{}: ic {ic} vs ad {ad}", bench.name());
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
    let [default, directory] = base_transports();
    for bench in serving_benchmarks() {
        let (reference, _) = execute_with(bench.as_ref(), ProtocolKind::JavaIc, &default);
        for protocol in ProtocolKind::all_extended() {
            for (label, transport) in [
                ("sim", default.clone()),
                ("sim+dir", directory.clone()),
                ("socket", socket.clone()),
            ] {
                let (digest, report) = execute_with(bench.as_ref(), protocol, &transport);
                assert!(
                    same_digest(digest, reference),
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
    for (base, bench) in bases_times(all_benchmarks) {
        let round = || {
            let (_, ic) = execute_with(bench.as_ref(), ProtocolKind::JavaIc, &base);
            let (_, pf) = execute_with(bench.as_ref(), ProtocolKind::JavaPf, &base);
            let (_, ad) = execute_with(bench.as_ref(), ProtocolKind::JavaAd, &base);
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
    for (base, bench) in bases_times(all_benchmarks) {
        let round = || {
            let (_, ic) = execute_with(bench.as_ref(), ProtocolKind::JavaIc, &base);
            let (_, pf) = execute_with(bench.as_ref(), ProtocolKind::JavaPf, &base);
            let (_, ad) = execute_with(bench.as_ref(), ProtocolKind::JavaAd, &base);
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
    // Overlapped fetches and batched diff flushing on: the transport may
    // change *when* latency is charged and *how many* RPCs carry the bytes,
    // never what a program computes.
    const DISABLED_MECHANISM_COUNTERS: [&str; 7] = [
        "stride_fetches_issued",
        "stride_fetches_completed",
        "stride_fetches_wasted",
        "deferred_flushes",
        "batched_flushes",
        "fetch_overlap_cycles_hidden",
        "flush_overlap_cycles_hidden",
    ];
    let transport = TransportConfig::latency_hiding();
    for bench in all_benchmarks() {
        let (reference, _) = execute_with(
            bench.as_ref(),
            ProtocolKind::JavaIc,
            &TransportConfig::default(),
        );
        for protocol in ProtocolKind::all_extended() {
            let (overlapped, _) = execute_with(bench.as_ref(), protocol, &transport);
            // Each must agree with the paper's blocking transport's answer,
            // under which every counter of a mechanism it switches off is
            // exactly zero.
            let (blocking, report) =
                execute_with(bench.as_ref(), protocol, &TransportConfig::blocking());
            for (label, v) in [("overlapped", overlapped), ("blocking", blocking)] {
                assert!(
                    same_digest(reference, v),
                    "{}: default ic {reference} vs {label} {} {v}",
                    bench.name(),
                    protocol.name()
                );
            }
            for (counter, value) in report.total_stats().fields() {
                assert!(
                    value == 0 || !DISABLED_MECHANISM_COUNTERS.contains(&counter),
                    "{}/{}: `{counter}` is {value} under the blocking transport",
                    bench.name(),
                    protocol.name()
                );
            }
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
fn all_three_protocols_compute_identical_results_under_directory_transport() {
    // The stride prefetch (in-flight tickets ahead of a scan) and deferred
    // release flushing both only move *when* latency is charged; neither
    // may be observable at the application level.
    let transport = TransportConfig::directory();
    for bench in all_benchmarks() {
        let (ic, _) = execute_with(bench.as_ref(), ProtocolKind::JavaIc, &transport);
        let (pf, _) = execute_with(bench.as_ref(), ProtocolKind::JavaPf, &transport);
        let (ad, _) = execute_with(bench.as_ref(), ProtocolKind::JavaAd, &transport);
        // And each must agree with the default transport's answer.
        let (default, _) = execute_with(
            bench.as_ref(),
            ProtocolKind::JavaIc,
            &TransportConfig::default(),
        );
        for (label, v) in [("pf", pf), ("ad", ad), ("default ic", default)] {
            assert!(
                same_digest(ic, v),
                "{}: directory ic {ic} vs {label} {v}",
                bench.name()
            );
        }
    }
}

#[test]
fn stride_prefetch_waste_stays_within_an_eighth_of_what_it_issued() {
    // The bound over every app under the directory transport: stride
    // fetches invalidated untouched must stay within 1/8 of those issued —
    // what the gate in `issue_stride_fetches` itself holds a node to (floor
    // of 32: on a sample that small a few unlucky prefetches must not trip
    // the ratio).
    let transport = TransportConfig::directory();
    for bench in all_benchmarks().into_iter().chain(serving_benchmarks()) {
        let (_, report) = execute_with(bench.as_ref(), ProtocolKind::JavaPf, &transport);
        let total = report.total_stats();
        assert!(
            total.stride_fetches_wasted * 8 <= total.stride_fetches_issued.max(32),
            "{}: stride waste {} exceeds 1/8 of {} issued",
            bench.name(),
            total.stride_fetches_wasted,
            total.stride_fetches_issued,
        );
        // Completions plus waste can never exceed what was issued.
        assert!(
            total.stride_fetches_completed + total.stride_fetches_wasted
                <= total.stride_fetches_issued
        );
    }
    // TSP at harness scale (the instance the audit measured the home-side
    // directory slower on): no worker fetches two neighbouring pages of one
    // home in a row, so the rule stays silent.  (The quick instance's short
    // work queue does draw one pair per node, wasted, and then the gate is
    // shut.)
    let tsp = tsp::TspParams::harness();
    let (_, report) = execute_with(&tsp, ProtocolKind::JavaPf, &transport);
    assert_eq!(report.total_stats().stride_fetches_issued, 0);
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
        for protocol in ProtocolKind::all_extended() {
            let (sock_digest, report) = execute_with(bench.as_ref(), protocol, &socket);
            for base in base_transports() {
                let (sim_digest, _) = execute_with(bench.as_ref(), protocol, &base);
                assert!(
                    same_digest(sim_digest, sock_digest),
                    "{}/{}: sim digest {sim_digest} vs socket digest {sock_digest}",
                    bench.name(),
                    protocol.name()
                );
            }
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
        let (defer, report) = execute_with(bench.as_ref(), ProtocolKind::JavaPf, &deferred);
        for base in base_transports() {
            let (base, _) = execute_with(bench.as_ref(), ProtocolKind::JavaPf, &base);
            assert!(
                same_digest(base, defer),
                "{}: deferred flushing changed the answer ({base} vs {defer})",
                bench.name()
            );
        }
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
    for (base, bench) in bases_times(all_benchmarks).chain(bases_times(serving_benchmarks)) {
        let (_, report) = execute_with(bench.as_ref(), ProtocolKind::JavaAd, &base);
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

/// A fixed, single-threaded access pattern: two remote multi-page arrays
/// read and written across four monitor epochs.  It exercises page
/// fetches, field-granularity diffs, invalidation epochs and — under
/// `java_ad` — per-page mode switches and batched speculative fetches.
/// With one OS thread the whole event sequence is deterministic, so two
/// runs of equivalent configurations must agree in *every* stat counter,
/// not just in aggregate.
fn deterministic_workload(protocol: ProtocolKind, transport: &TransportConfig) -> (u64, RunReport) {
    use hyperion_workspace::pm2::SLOTS_PER_PAGE;
    let config = HyperionConfig::builder()
        .cluster(myrinet_200())
        .nodes(NODES)
        .protocol(protocol)
        .transport(transport.clone())
        .build()
        .expect("valid test configuration");
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
            deterministic_workload(protocol, &transport)
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
