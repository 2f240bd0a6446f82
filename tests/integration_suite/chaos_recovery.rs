//! Chaos tests of the fault plane: seeded fault schedules injected at the
//! transport must never change what a program *computes*, only what it
//! costs — plus exact-counter accounting of the retry path and of the
//! re-election after a node kill (a dead home's pages go to the lowest-id
//! live node).
//!
//! The digest property runs every app under every protocol with random (but
//! seeded, hence replayable) [`FaultSpec`] schedules that drop, delay and
//! duplicate frames, inject handler panics, and kill at most one node at a
//! virtual instant.  Each faulted digest is compared against the fault-free run
//! of the same configuration, the quick matrix's row.  The failing seed is
//! part of every assertion message; re-running a failure needs nothing but
//! that seed.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hyperion_bench::{benchmark_at, Point, Scale};
use hyperion_workspace::apps::common::{Benchmark, BenchmarkName};
use hyperion_workspace::apps::jacobi;
use hyperion_workspace::dsm::{DsmStore, DsmSystem};
use hyperion_workspace::model::{myrinet_200, StatsSnapshot, ThreadClock, VTime};
use hyperion_workspace::pm2::{
    Cluster, FaultKill, FaultSpec, GlobalAddr, IsoAllocator, NodeId, PageId, TransportBackend,
};
use hyperion_workspace::prelude::*;
use hyperion_workspace::{HyperionConfig, ProtocolKind, TransportConfig};

use crate::matrix;

/// Node count of the chaos app runs: enough that every protocol has real
/// remote traffic and a kill leaves several survivors.  The fault-free runs
/// are the quick matrix's, which has every app under every protocol here.
const NODES: usize = 4;

/// Run `body` once per seed, labelling failures with the seed.
fn property(cases: u64, body: impl Fn(u64, &mut StdRng)) {
    for seed in 0..cases {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ seed);
        body(seed, &mut rng);
    }
}

/// Host-time limit of one app run (they take well under a second): a run
/// still going after this long is deadlocked, not slow.
const WATCHDOG: std::time::Duration = std::time::Duration::from_secs(120);

/// Run `body` on a thread of its own under the [`WATCHDOG`] limit.  A hang
/// cannot be unwound (its threads are parked for good), so on expiry the
/// whole test process exits with the replayable `label` instead of sitting
/// in CI until the job times out.
fn watchdog<T: Send>(label: &str, body: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|scope| {
        let (done, finished) = std::sync::mpsc::channel();
        let run = scope.spawn(move || {
            let out = body();
            let _ = done.send(());
            out
        });
        if finished.recv_timeout(WATCHDOG) == Err(std::sync::mpsc::RecvTimeoutError::Timeout) {
            eprintln!("chaos watchdog: {label} still running after {WATCHDOG:?} — deadlocked");
            std::process::exit(101);
        }
        // Finished, or panicked (sender dropped): hand the outcome on.
        run.join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    })
}

/// `bench` under `protocol` with the faults of `spec` (a fault-free run is
/// the quick matrix's).
fn execute(bench: &dyn Benchmark, protocol: ProtocolKind, spec: FaultSpec) -> (f64, RunReport) {
    let transport = TransportConfig {
        fault: Some(spec),
        ..TransportConfig::default()
    };
    let config = HyperionConfig::new(myrinet_200(), NODES, protocol).with_transport(transport);
    let label = format!("{} under {} with `{spec}`", bench.name(), protocol.name());
    watchdog(&label, || bench.execute(config))
}

/// A random — but valid — fault schedule: moderate drop/dup/panic rates, a
/// small frame delay, and a coin-flip node kill inside the window the quick
/// workloads actually execute in.
fn random_spec(rng: &mut StdRng) -> FaultSpec {
    let spec = FaultSpec {
        seed: rng.gen_range(0u64..u64::MAX),
        drop_ppm: rng.gen_range(0..30_000),
        drop_first: rng.gen_range(0..3),
        delay_ppm: rng.gen_range(0..20_000),
        delay_by: VTime::from_us(rng.gen_range(1..50)),
        dup_ppm: rng.gen_range(0..10_000),
        panic_ppm: rng.gen_range(0..5_000),
        kill: if rng.gen_range(0u32..2) == 1 {
            Some(FaultKill {
                node: rng.gen_range(0..NODES as u32),
                at: VTime::from_us(rng.gen_range(100..2_000)),
            })
        } else {
            None
        },
    };
    spec.validate(NODES).expect("generated spec is valid");
    spec
}

/// The tentpole chaos property: random seeded fault schedules across all
/// five apps and both protocols preserve every digest.  Faults change
/// timing and traffic, never values — even when a home node is killed and
/// its pages are re-homed onto a survivor mid-run.
#[test]
fn seeded_fault_schedules_preserve_all_digests() {
    for app in BenchmarkName::all() {
        let bench = benchmark_at(app, Scale::Quick);
        for protocol in ProtocolKind::all() {
            let reference = matrix::row(&Point::new(app, Scale::Quick, protocol)).digest;
            // Pi's global sum accumulates thread contributions in monitor
            // acquisition order, so its digest is only reproducible to
            // floating-point re-association; every other app is
            // order-independent.
            let tolerance = reference.abs().max(1.0) * 1e-9;
            property(3, |seed, rng| {
                let spec = random_spec(rng);
                let (digest, report) = execute(bench.as_ref(), protocol, spec);
                assert!(
                    (digest - reference).abs() <= tolerance,
                    "{} under {} diverged with seed {seed} / spec `{spec}`: \
                     fault-free {reference} vs faulted {digest}",
                    bench.name(),
                    protocol.name(),
                );
                let total = report.total_stats();
                if spec.kill.is_some() {
                    // At most one node died, and resynced pages imply a
                    // recorded failure (never the other way round).
                    assert!(total.nodes_failed <= 1, "seed {seed}: two nodes failed");
                    if total.pages_resynced > 0 {
                        assert_eq!(total.nodes_failed, 1, "seed {seed}");
                    }
                } else {
                    assert_eq!(total.nodes_failed, 0, "seed {seed}");
                    assert_eq!(total.pages_resynced, 0, "seed {seed}");
                }
            });
        }
    }
}

/// The serving tentpole's chaos property: a Zipf-skewed KV serving run with
/// a node kill in the middle of its request stream still completes every
/// operation and computes the same digest.  Unlike the digest sweep above,
/// the kill here is unconditional and aimed inside the serving window, and
/// the op count is checked exactly: recovery may re-route and retry, but it
/// may neither drop nor double-count a serving operation.
#[test]
fn kv_store_kill_schedules_preserve_digest_and_op_count() {
    let bench = benchmark_at(BenchmarkName::KvStore, Scale::Quick);
    let clean = matrix::row(&Point::new(
        BenchmarkName::KvStore,
        Scale::Quick,
        ProtocolKind::JavaPf,
    ));
    let (reference, expected_ops) = (clean.digest, clean.stats.serving_ops);
    assert!(expected_ops > 0, "quick KV run recorded no serving ops");
    property(3, |seed, rng| {
        let mut spec = random_spec(rng);
        spec.kill = Some(FaultKill {
            node: rng.gen_range(0..NODES as u32),
            at: VTime::from_us(rng.gen_range(100..2_000)),
        });
        let (digest, report) = execute(bench.as_ref(), ProtocolKind::JavaPf, spec);
        assert!(
            (digest - reference).abs() <= reference.abs().max(1.0) * 1e-9,
            "KVStore diverged with seed {seed} / spec `{spec}`: \
             fault-free {reference} vs faulted {digest}",
        );
        let total = report.total_stats();
        assert_eq!(
            total.serving_ops, expected_ops,
            "seed {seed}: serving ops dropped or double-counted under faults"
        );
        assert!(total.nodes_failed <= 1, "seed {seed}: two nodes failed");
    });
}

/// Replaying the same spec must reproduce the run exactly — modeled time
/// and every counter of every node — the whole point of seeded schedules (a
/// chaos failure is re-runnable).  One application thread runs at a time, so
/// the per-call draws come in one order: every kind of fault, a node kill
/// included, replays bit for bit on every app under every protocol.
#[test]
fn identical_specs_replay_identical_fault_counters() {
    let replay = |bench: &dyn Benchmark, protocol, spec| {
        let run = || {
            let (digest, report) = execute(bench, protocol, spec);
            (digest.to_bits(), report.execution_time, report.node_stats)
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b, "{} under {protocol} with `{spec}`", bench.name());
        StatsSnapshot::total(b.2.iter())
    };
    let drops = FaultSpec {
        seed: 99,
        drop_ppm: 25_000,
        dup_ppm: 10_000,
        ..FaultSpec::default()
    };
    let jacobi = jacobi::JacobiParams::quick();
    replay(&jacobi, ProtocolKind::JavaPf, drops);
    let every = "seed=7,drop=20000,dup=10000,panic=5000,delay=20000@10us,kill=2@600us";
    let every = FaultSpec::parse(every).expect("valid spec");
    let mut runs = Vec::new();
    for app in BenchmarkName::all() {
        let bench = benchmark_at(app, Scale::Quick);
        for protocol in ProtocolKind::all() {
            runs.push(replay(bench.as_ref(), protocol, every));
        }
    }
    let total = StatsSnapshot::total(&runs);
    assert!(
        total.frames_dropped_injected > 0 && total.nodes_failed > 0,
        "{total:?}"
    );
}

// ----- exact-counter unit suite --------------------------------------------

/// A DSM system over a fault-injecting transport, with one page homed on
/// each node.
fn build_faulty_dsm(nodes: usize, spec: FaultSpec) -> (Arc<DsmSystem>, Vec<GlobalAddr>) {
    let cluster = Cluster::for_backend_with_faults(
        myrinet_200().machine,
        nodes,
        TransportBackend::Sim,
        Some(spec),
    );
    let alloc = Arc::new(IsoAllocator::new(nodes));
    let store = DsmStore::new(Arc::clone(&alloc), nodes);
    let dsm = DsmSystem::new(cluster, store, ProtocolKind::JavaIc);
    let addrs = (0..nodes)
        .map(|home| alloc.alloc_page_aligned(4, NodeId(home as u32)))
        .collect();
    (dsm, addrs)
}

/// `drop_first=2` drops exactly the first two remote frames: the demand
/// fetch retries twice under the fixed schedule and every retry is
/// accounted once — no more, no less.  Against a fault-free twin the
/// caller is exactly two timeouts and the first two backoffs later.
#[test]
fn dropped_frames_are_retried_and_counted_exactly() {
    let fetch_at = |spec: FaultSpec| {
        let (dsm, addrs) = build_faulty_dsm(2, spec);
        let mut clock0 = ThreadClock::new();
        dsm.put(NodeId(0), &mut clock0, addrs[0], 9);
        let mut clock1 = ThreadClock::new();
        assert_eq!(dsm.get(NodeId(1), &mut clock1, addrs[0]), 9);
        (dsm, addrs, clock1)
    };
    let (_, _, clean) = fetch_at(FaultSpec::default());
    let (dsm, addrs, mut clock1) = fetch_at(FaultSpec {
        seed: 5,
        drop_first: 2,
        ..FaultSpec::default()
    });
    let stats = dsm.cluster().node_stats(NodeId(1));
    assert_eq!(stats.frames_dropped_injected, 2);
    assert_eq!(stats.rpc_timeouts, 2);
    assert_eq!(stats.rpc_retries, 2);
    // Each lost frame charged the 500 us RPC timeout plus its backoff slot
    // (100 us, then 200 us) to the caller's virtual clock, and nothing else.
    assert_eq!(
        clock1.now(),
        clean.now() + VTime::from_us(2 * 500 + 100 + 200),
        "the drop-2 fetch is exactly two timeouts and two backoffs late"
    );

    // The fault plane stays out of the way once the schedule is spent: a
    // second miss (after invalidation) completes first try.
    dsm.invalidate_cache(NodeId(1), &mut clock1);
    assert_eq!(dsm.get(NodeId(1), &mut clock1, addrs[0]), 9);
    let stats = dsm.cluster().node_stats(NodeId(1));
    assert_eq!(stats.rpc_retries, 2);
}

/// When every attempt is dropped, the five attempts of the fixed schedule
/// run out and the typed failure surfaces through the single top-level die
/// with service-name context.
#[test]
fn exhausted_retry_budget_dies_with_service_context() {
    let spec = FaultSpec {
        seed: 6,
        drop_ppm: 1_000_000,
        ..FaultSpec::default()
    };
    let (dsm, addrs) = build_faulty_dsm(2, spec);
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut clock = ThreadClock::new();
        dsm.get(NodeId(1), &mut clock, addrs[0])
    }))
    .expect_err("an all-drop schedule must exhaust the retry budget");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| "<non-string panic>".into());
    assert!(
        msg.contains("dsm.page_fetch") && msg.contains("5 attempts"),
        "panic lost its service context: {msg}"
    );
    let stats = dsm.cluster().node_stats(NodeId(1));
    assert_eq!(stats.rpc_retries, 4);
    assert_eq!(stats.rpc_timeouts, 5);
}

/// Kill a home node and let a survivor trip over it: the store elects the
/// lowest-id live node as the page's home, re-routes, re-syncs, and the
/// read observes the last released write.  The only node that read and
/// wrote the page is not the lowest live one, and it does not inherit the
/// page: the election reads no access history.  Counters are exact: one
/// failed node, each page the dead node homed resynced once.
#[test]
fn a_killed_home_goes_to_the_lowest_live_node_and_recovers_once() {
    let spec = FaultSpec {
        seed: 7,
        kill: Some(FaultKill {
            node: 0,
            at: VTime::from_us(500),
        }),
        ..FaultSpec::default()
    };
    let (dsm, addrs) = build_faulty_dsm(4, spec);
    let page = addrs[0].page();
    let store = dsm.store();
    let homed_by_0 = (0..store.allocator().num_pages() as u64)
        .filter(|&p| store.home_of(PageId(p)) == NodeId(0))
        .count() as u64;

    // Node 0 (the home) seeds the page; node 3 reads it, then writes and
    // releases.  All of this happens before the kill instant.
    let mut clock0 = ThreadClock::new();
    dsm.put(NodeId(0), &mut clock0, addrs[0], 7);
    let mut clock3 = ThreadClock::new();
    assert_eq!(dsm.get(NodeId(3), &mut clock3, addrs[0]), 7);
    dsm.put(NodeId(3), &mut clock3, addrs[0], 42);
    dsm.update_main_memory(NodeId(3), &mut clock3);
    assert!(
        clock3.now() < VTime::from_us(500),
        "workload outran the kill"
    );

    // Node 2 arrives after the kill instant: its fetch hits the dead home,
    // triggers recovery, and completes against the elected home.
    let mut clock2 = ThreadClock::new();
    clock2.advance(VTime::from_us(1_000));
    assert_eq!(dsm.get(NodeId(2), &mut clock2, addrs[0]), 42);

    let stats = dsm.cluster().node_stats(NodeId(2));
    assert_eq!((stats.nodes_failed, stats.pages_resynced), (1, homed_by_0));
    assert_eq!(
        store.home_of(page),
        NodeId(1),
        "the lowest live node must win the election, not the page's reader"
    );

    // The re-homed page keeps working: node 2 writes through the new home
    // and node 1 (now the home) observes the value in main memory.
    dsm.put(NodeId(2), &mut clock2, addrs[0], 1234);
    dsm.update_main_memory(NodeId(2), &mut clock2);
    let mut clock1 = ThreadClock::new();
    clock1.advance(VTime::from_us(2_000));
    dsm.invalidate_cache(NodeId(1), &mut clock1);
    assert_eq!(dsm.get(NodeId(1), &mut clock1, addrs[0]), 1234);

    // Recovery ran once; the next observer re-routed without repeating it.
    clock3.advance(VTime::from_us(2_000));
    dsm.invalidate_cache(NodeId(3), &mut clock3);
    assert_eq!(dsm.get(NodeId(3), &mut clock3, addrs[0]), 1234);
    for node in [1, 3] {
        let stats = dsm.cluster().node_stats(NodeId(node));
        assert_eq!(stats.nodes_failed, 0, "only the first observer accounts");
    }
    assert_eq!(dsm.cluster().total_stats().pages_resynced, homed_by_0);
}

/// A re-homing breaks the page's change history: the new home starts a
/// stride above the old stamps with no steps on record, so a holder of a
/// copy from before the kill is shipped the page, never a patch — although
/// the write it has missed is a single slot.
#[test]
fn a_rehomed_page_is_shipped_whole_to_the_holder_of_an_older_copy() {
    let spec = FaultSpec {
        seed: 9,
        kill: Some(FaultKill {
            node: 0,
            at: VTime::from_us(500),
        }),
        ..FaultSpec::default()
    };
    let (dsm, addrs) = build_faulty_dsm(3, spec);
    let (mut clock1, mut clock2) = (ThreadClock::new(), ThreadClock::new());
    // Node 1, the lowest live node once node 0 is dead, writes; node 2
    // holds the older copy.
    assert_eq!(dsm.get(NodeId(1), &mut clock1, addrs[0]), 0);
    assert_eq!(dsm.get(NodeId(2), &mut clock2, addrs[0]), 0);
    // Before the kill a missed write arrives by patch...
    dsm.put(NodeId(1), &mut clock1, addrs[0], 41);
    dsm.update_main_memory(NodeId(1), &mut clock1);
    dsm.invalidate_cache(NodeId(2), &mut clock2);
    assert_eq!(dsm.get(NodeId(2), &mut clock2, addrs[0]), 41);
    assert_eq!(dsm.cluster().node_stats(NodeId(2)).pages_patched, 1);
    dsm.put(NodeId(1), &mut clock1, addrs[0], 42);
    dsm.update_main_memory(NodeId(1), &mut clock1);
    assert!(clock1.now().max(clock2.now()) < VTime::from_us(500));

    // ...after it, from the elected home, the page does.
    clock2.advance(VTime::from_us(1_000));
    dsm.invalidate_cache(NodeId(2), &mut clock2);
    let before = dsm.cluster().node_stats(NodeId(2));
    assert_eq!(dsm.get(NodeId(2), &mut clock2, addrs[0]), 42);
    let after = dsm.cluster().node_stats(NodeId(2));
    assert_eq!(after.nodes_failed, 1);
    assert_eq!(dsm.store().home_of(addrs[0].page()), NodeId(1));
    assert_eq!(after.pages_patched, before.pages_patched);
    assert_eq!(after.pages_revalidated, before.pages_revalidated);
    assert!(after.bytes_received - before.bytes_received > 4096);
}

/// A killed home's own threads keep computing.  A `put` it makes after the
/// kill instant, before anyone has noticed, is in the snapshot the recovery
/// demotes and re-homes; after the recovery the same node's writes to the
/// page are dirty-tracked and flush to the new home like any other node's.
#[test]
fn a_killed_homes_put_survives_the_recovery_that_demotes_its_page() {
    let spec = FaultSpec {
        seed: 3,
        kill: Some(FaultKill {
            node: 0,
            at: VTime::from_us(500),
        }),
        ..FaultSpec::default()
    };
    let (dsm, addrs) = build_faulty_dsm(3, spec);
    let (page, mut dead, mut reader) = (addrs[0], ThreadClock::new(), ThreadClock::new());
    assert_eq!(dsm.get(NodeId(2), &mut reader, page), 0);
    dead.advance(VTime::from_us(1_000));
    dsm.put(NodeId(0), &mut dead, page, 7);
    reader.advance(VTime::from_us(1_000));
    dsm.invalidate_cache(NodeId(2), &mut reader);
    assert_eq!(dsm.get(NodeId(2), &mut reader, page), 7, "in the snapshot");
    assert_eq!(dsm.store().home_of(page.page()), NodeId(1));
    assert_eq!(dsm.cluster().node_stats(NodeId(2)).nodes_failed, 1);

    dsm.put(NodeId(0), &mut dead, page.offset(1), 8);
    dsm.update_main_memory(NodeId(0), &mut dead);
    assert_eq!(dsm.cluster().node_stats(NodeId(0)).diff_messages, 1);
    let mut home = ThreadClock::new();
    assert_eq!(dsm.get(NodeId(1), &mut home, page), 7);
    assert_eq!(dsm.get(NodeId(1), &mut home, page.offset(1)), 8);
}
