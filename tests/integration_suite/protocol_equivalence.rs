//! Protocol equivalence: every app computes the same answer under
//! `java_ic`, `java_pf` and the adaptive `java_ad`, on the in-process
//! simulator and over Unix-domain sockets, and the adaptive protocol never
//! costs more than the worse of the paper's two.
//!
//! `java_ad` re-decides the access-detection technique per page at every
//! invalidation and speculatively batches page fetches; the one transport
//! overlaps fetches with their stride prefetch and batches and defers
//! release flushes.  None of it may be observable at the application
//! level.  Every run repeats exactly, so each configuration runs once: one
//! test runs every app under the three protocols in process, one over
//! sockets, and both compare each answer with the app's reference — a
//! one-node run (no page is remote, so nothing is on the wire; the quick
//! matrix's) for the paper's five, the sequential replay for the serving
//! apps.

use hyperion_bench::{benchmark_at, Point, Scale};
use hyperion_workspace::apps::common::{Benchmark, BenchmarkName};
use hyperion_workspace::apps::{graph, kvstore, tsp};
use hyperion_workspace::hyperion::StatsSnapshot;
use hyperion_workspace::prelude::*;
use hyperion_workspace::{HyperionConfig, ProtocolKind, TransportBackend, TransportConfig};

use crate::matrix;

const NODES: usize = 3;

fn transport(backend: TransportBackend) -> TransportConfig {
    TransportConfig {
        backend,
        ..TransportConfig::default()
    }
}

fn execute(
    bench: &dyn Benchmark,
    protocol: ProtocolKind,
    backend: TransportBackend,
) -> (f64, RunReport) {
    let config =
        HyperionConfig::new(myrinet_200(), NODES, protocol).with_transport(transport(backend));
    bench.execute(config)
}

/// True if two digests agree up to floating-point re-association: Pi's
/// global sum accumulates thread contributions in monitor acquisition
/// order; every other app is order-independent and agrees exactly.
fn same_digest(a: f64, b: f64) -> bool {
    (a - b).abs() <= a.abs().max(1.0) * 1e-9
}

/// `app` under `java_ic` on one node, which puts nothing on the wire.
fn one_node_digest(app: BenchmarkName) -> f64 {
    let row = matrix::row(&Point {
        nodes: 1,
        ..Point::new(app, Scale::Quick, ProtocolKind::JavaIc)
    });
    assert_eq!(row.stats.rpc_requests, 0, "{app}");
    row.digest
}

/// One app's runs at [`NODES`] nodes under `java_ic`, `java_pf` and
/// `java_ad`, in that order, with each run's counters summed over nodes.
struct AppRuns {
    name: BenchmarkName,
    runs: [(f64, RunReport); 3],
    stats: [StatsSnapshot; 3],
}

/// Every app's quick instance under the three protocols over `backend`,
/// each answer checked against the app's reference and against `java_ic`'s.
fn run_every_app(backend: TransportBackend) -> Vec<AppRuns> {
    BenchmarkName::all_extended()
        .into_iter()
        .map(|name| {
            let reference = match name {
                // One client per node.
                BenchmarkName::KvStore => {
                    kvstore::sequential(&kvstore::KvStoreParams::quick(), NODES).digest
                }
                BenchmarkName::PageRank => {
                    graph::sequential(&graph::PageRankParams::quick()).digest
                }
                _ => one_node_digest(name),
            };
            let bench = benchmark_at(name, Scale::Quick);
            let runs = ProtocolKind::all_extended().map(|p| execute(bench.as_ref(), p, backend));
            let ic = runs[0].0;
            for (digest, report) in &runs {
                let label = format!("{name}/{} ({backend:?})", report.protocol.name());
                assert!(
                    same_digest(reference, *digest),
                    "{label}: {digest} vs the reference {reference}"
                );
                assert!(
                    same_digest(ic, *digest),
                    "{label}: {digest} vs java_ic's {ic}"
                );
            }
            let stats = [0, 1, 2].map(|i| runs[i].1.total_stats());
            AppRuns { name, runs, stats }
        })
        .collect()
}

/// What a serving run must report: ops, and a modeled p99 over them.
fn assert_serving(name: BenchmarkName, report: &RunReport) {
    let label = format!("{name}/{} ({})", report.protocol.name(), report.transport);
    let ops = report.total_stats().serving_ops;
    assert!(ops > 0, "{label}: no serving ops recorded");
    assert!(
        report.serving_p99 > VTime::ZERO,
        "{label}: zero modeled p99 over {ops} ops"
    );
}

/// The fetch ledger on quick KV under `java_pf`, one client per node:
/// every fault and every miss the pending check found ends in one fetch,
/// the acquires keep cached copies open, and
/// the answer is exactly the sequential replay's.
fn assert_kv_fetch_ledger(every_app: &[AppRuns]) {
    let kv = every_app
        .iter()
        .find(|app| app.name == BenchmarkName::KvStore);
    let (digest, report) = &kv.expect("the KV store ran").runs[1];
    let (backend, t) = (report.transport, report.total_stats());
    // A miss is a fault, or an access the pending check found at an open
    // stale copy: each ends in exactly one fetch.
    assert_eq!(
        t.page_faults + t.pending_misses,
        t.page_loads,
        "{backend}: a miss that did not end in a fetch"
    );
    assert!(t.pages_kept > 0, "{backend}: no acquire kept a copy open");
    let sequential = kvstore::sequential(&kvstore::KvStoreParams::quick(), NODES);
    assert_eq!(
        *digest, sequential.digest,
        "{backend}: the transport changed the KV digest"
    );
}

/// `java_pf` modeled time of the paper's five apps at [`NODES`] nodes under
/// the blocking transport the one transport replaced, in picoseconds
/// (blocking fetches, no deferred flushes; measured at the last commit that
/// had it).
const BLOCKING_PF_PS: [(BenchmarkName, u64); 5] = [
    (BenchmarkName::Pi, 4_831_468_000),
    (BenchmarkName::Jacobi, 3_254_946_000),
    (BenchmarkName::Barnes, 6_740_843_497),
    (BenchmarkName::Tsp, 3_200_250_000),
    (BenchmarkName::Asp, 8_094_409_747),
];

#[test]
fn all_three_protocols_compute_identical_results() {
    let every_app = run_every_app(TransportBackend::Sim);
    let (paper, serving) = every_app.split_at(BLOCKING_PF_PS.len());
    for (app, (name, blocking_ps)) in paper.iter().zip(BLOCKING_PF_PS) {
        assert_eq!(app.name, name);
        let [(_, ic), (_, pf), (_, ad)] = &app.runs;
        let [ic_stats, pf_stats, ad_stats] = &app.stats;
        // java_ad's modeled cost and the page loads no write notice forced
        // (every load but the refetches of copies an acquire dropped, a
        // speculative copy dropped untouched counting as unforced) never
        // exceed the worse of the fixed protocols.
        let worst = ic.execution_time.max(pf.execution_time);
        assert!(
            ad.execution_time <= worst,
            "{name}: java_ad cost {} exceeds {worst}",
            ad.execution_time
        );
        let unforced = |s: &StatsSnapshot| {
            (s.page_loads + s.pages_prefetch_wasted).saturating_sub(s.pages_invalidated)
        };
        let worst = unforced(ic_stats).max(unforced(pf_stats));
        assert!(
            unforced(ad_stats) <= worst,
            "{name}: java_ad unforced page loads {} exceed the worse of ic/pf {worst}",
            unforced(ad_stats)
        );
        // The split transactions only defer when latency is charged, so no
        // app runs longer under java_pf than it did under the blocking
        // transport.  Jacobi and ASP open prefetch windows right after their
        // acquires, so they hide latency and run strictly faster; Pi, TSP and
        // Barnes-Hut open none, and the run proves it by hiding nothing.
        let (ps, hidden) = (
            pf.execution_time.as_ps(),
            pf_stats.fetch_overlap_cycles_hidden,
        );
        if matches!(name, BenchmarkName::Jacobi | BenchmarkName::Asp) {
            assert!(hidden > 0, "{name}: no latency hidden");
            assert!(
                ps < blocking_ps,
                "{name}: {ps} ps vs blocking {blocking_ps}"
            );
        } else {
            assert_eq!(hidden, 0, "{name}: no prefetch window, nothing to hide");
            assert!(
                ps <= blocking_ps,
                "{name}: {ps} ps vs blocking {blocking_ps}"
            );
        }
    }
    // Each protocol's agreement is proved with the stride prefetch and
    // deferred release flushing live in its runs of the paper's five.
    for (i, protocol) in ProtocolKind::all_extended().into_iter().enumerate() {
        let stride: u64 = paper
            .iter()
            .map(|app| app.stats[i].stride_fetches_issued)
            .sum();
        let deferred: u64 = paper.iter().map(|app| app.stats[i].deferred_flushes).sum();
        assert!(
            stride > 0,
            "{}: no app issued a stride fetch",
            protocol.name()
        );
        assert!(deferred > 0, "{}: no app deferred a flush", protocol.name());
    }
    for app in &every_app {
        let name = app.name;
        for t in &app.stats {
            // The mechanisms' counters balance.
            let label = format!("{name}: {t:?}");
            assert!(
                t.stride_fetches_completed + t.stride_fetches_wasted <= t.stride_fetches_issued,
                "{label}"
            );
            assert!(t.stride_fetches_issued <= t.page_loads, "{label}");
            assert!(
                t.deferred_flushes + t.release_diffs <= t.diff_messages,
                "{label}"
            );
            assert!(t.batched_flushes <= t.diff_messages, "{label}");
        }
        let [_, pf, ad] = &app.stats;
        // Stride fetches invalidated untouched stay within 1/8 of those
        // issued — what the gate in `issue_stride_fetches` itself holds a
        // node to (floor of 32: on a sample that small a few unlucky
        // prefetches must not trip the ratio).
        assert!(
            pf.stride_fetches_wasted * 8 <= pf.stride_fetches_issued.max(32),
            "{name}: stride waste {} exceeds 1/8 of {} issued",
            pf.stride_fetches_wasted,
            pf.stride_fetches_issued,
        );
        // The waste-feedback throttle keeps java_ad's speculation from
        // running away: wasted prefetches stay within a sixteenth of the
        // speculative ones (bulk-covered riders never waste), plus each
        // node's start-up allowance and one last in-flight batch that may
        // complete after the throttle trips.  Every batched fetch carried
        // at least one extra page, and speculative riders are a subset of
        // all riders.
        assert!(
            ad.pages_prefetch_wasted <= ad.pages_prefetch_speculative / 16 + 9 * NODES as u64,
            "{name}: wasted {} of {} speculative prefetches",
            ad.pages_prefetch_wasted,
            ad.pages_prefetch_speculative,
        );
        assert!(ad.pages_prefetched >= ad.batched_fetches, "{name}");
        assert!(
            ad.pages_prefetch_speculative <= ad.pages_prefetched,
            "{name}"
        );
    }
    for app in serving {
        for (_, report) in &app.runs {
            assert_serving(app.name, report);
        }
    }
    assert_kv_fetch_ledger(&every_app);
}

#[test]
fn socket_transport_preserves_every_digest() {
    // The socket backend serves each node's RPC handler table from behind a
    // real socket, with the byte-precise wire payloads and caller-side
    // virtual-time costs of the simulator: every RPC round trip crossed the
    // socket and was counted.
    let every_app = run_every_app(TransportBackend::UnixSocket);
    for app in &every_app {
        for (_, report) in &app.runs {
            let label = format!("{}/{}", app.name, report.protocol.name());
            assert_eq!(report.transport, "unix-socket", "{label}");
            let wire_rpcs: u64 = report.wire.iter().map(|(_, w)| w.messages).sum();
            assert_eq!(
                wire_rpcs,
                report.total_stats().rpc_requests,
                "{label}: wire round trips must match modeled RPC requests"
            );
            if BenchmarkName::serving().contains(&app.name) {
                assert_serving(app.name, report);
            }
        }
    }
    assert_kv_fetch_ledger(&every_app);
}

#[test]
fn tsp_at_harness_scale_uses_every_stride_fetch_it_issues() {
    // Every monitor and every shared page live on node 0, so the grants of
    // the queue's and the bound's monitors patch the workers' stale copies
    // in place.  With fewer demand fetches left (36 page loads),
    // neighbouring same-home fetches come back to back, and the rule issues
    // 16 stride fetches (none before grants carried patches) — every one of
    // them used, none wasted.  (The quick instance's short work queue draws
    // one pair per node, wasted, and then the gate is shut.)
    let (_, report) = execute(
        &tsp::TspParams::harness(),
        ProtocolKind::JavaPf,
        TransportBackend::Sim,
    );
    let s = report.total_stats();
    let stride = (s.stride_fetches_issued, s.stride_fetches_completed);
    assert_eq!((stride, s.stride_fetches_wasted), ((16, 16), 0));
}

/// A fixed, single-threaded access pattern: two remote multi-page arrays
/// read and written across four monitor epochs.  It exercises page
/// fetches, field-granularity diffs, invalidation epochs and — under
/// `java_ad` — per-page mode switches and batched speculative fetches.
/// With one OS thread the whole event sequence is deterministic, so two
/// runs of equivalent configurations must agree in *every* stat counter,
/// not just in aggregate.
fn deterministic_workload(protocol: ProtocolKind, backend: TransportBackend) -> (u64, RunReport) {
    use hyperion_workspace::pm2::SLOTS_PER_PAGE;
    let config =
        HyperionConfig::new(myrinet_200(), NODES, protocol).with_transport(transport(backend));
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
fn one_thread_runs_agree_on_every_counter_across_backends() {
    // With one thread the event sequence is fixed, and the two backends
    // must agree on the modeled time and on every counter.
    for protocol in ProtocolKind::all_extended() {
        let (sim_result, sim) = deterministic_workload(protocol, TransportBackend::Sim);
        let (unix_result, unix) = deterministic_workload(protocol, TransportBackend::UnixSocket);
        assert_eq!(sim_result, unix_result, "{protocol:?}");
        assert_eq!(sim.execution_time, unix.execution_time, "{protocol:?}");
        assert_eq!(sim.node_stats, unix.node_stats, "{protocol:?}");
        assert!(sim.total_stats().pages_kept > 0, "{protocol:?}");
    }
}
