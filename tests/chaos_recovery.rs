//! Chaos tests of the fault plane: seeded fault schedules injected at the
//! transport must never change what a program *computes*, only what it
//! costs — plus exact-counter accounting of the retry path and of quorum
//! re-election after a node kill.
//!
//! The digest property runs every app under every protocol with random (but
//! seeded, hence replayable) [`FaultSpec`] schedules that drop, delay and
//! duplicate frames, inject handler panics, and kill at most one node at a
//! virtual instant, with quorum replication armed so a killed home can be
//! re-elected.  Each faulted digest is compared against the fault-free run
//! of the same configuration.  The failing seed is part of every assertion
//! message; re-running a failure needs nothing but that seed.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hyperion_workspace::apps::common::Benchmark;
use hyperion_workspace::apps::{asp, barnes, jacobi, kvstore, pi, tsp};
use hyperion_workspace::dsm::{AdaptiveParams, DsmStore, DsmSystem};
use hyperion_workspace::model::{myrinet_200, ThreadClock, VTime};
use hyperion_workspace::pm2::{
    Cluster, FaultKill, FaultSpec, GlobalAddr, IsoAllocator, NodeId, RetryPolicy, TransportBackend,
};
use hyperion_workspace::prelude::*;
use hyperion_workspace::{HyperionConfig, ProtocolKind, TransportConfig};

/// Node count of the chaos app runs: enough that every protocol has real
/// remote traffic and a kill leaves a quorum of survivors.
const NODES: usize = 4;

/// Run `body` once per seed, labelling failures with the seed.
fn property(cases: u64, body: impl Fn(u64, &mut StdRng)) {
    for seed in 0..cases {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ seed);
        body(seed, &mut rng);
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

fn execute(
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
        .expect("valid chaos configuration");
    let label = match &transport.fault {
        Some(spec) => format!("{} under {} with `{spec}`", bench.name(), protocol.name()),
        None => format!("{} under {} fault-free", bench.name(), protocol.name()),
    };
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
/// five apps and all three protocols preserve every digest.  Faults change
/// timing and traffic, never values — even when a home node is killed and
/// its pages are re-homed onto quorum survivors mid-run.
#[test]
fn seeded_fault_schedules_preserve_all_digests() {
    let protocols = [
        ProtocolKind::JavaIc,
        ProtocolKind::JavaPf,
        ProtocolKind::JavaAd,
    ];
    for bench in all_benchmarks() {
        for protocol in protocols {
            let (reference, _) = execute(bench.as_ref(), protocol, &TransportConfig::default());
            // Pi's global sum accumulates thread contributions in monitor
            // acquisition order, so its digest is only reproducible to
            // floating-point re-association; every other app is
            // order-independent.
            let tolerance = reference.abs().max(1.0) * 1e-9;
            property(3, |seed, rng| {
                let spec = random_spec(rng);
                let transport = TransportConfig {
                    fault: Some(spec),
                    replication: Some((2, 2)),
                    ..TransportConfig::default()
                };
                let (digest, report) = execute(bench.as_ref(), protocol, &transport);
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
    let bench = kvstore::KvStoreParams::quick();
    let (reference, clean) = execute(&bench, ProtocolKind::JavaAd, &TransportConfig::default());
    let expected_ops = clean.total_stats().serving_ops;
    assert!(expected_ops > 0, "quick KV run recorded no serving ops");
    property(3, |seed, rng| {
        let mut spec = random_spec(rng);
        spec.kill = Some(FaultKill {
            node: rng.gen_range(0..NODES as u32),
            at: VTime::from_us(rng.gen_range(100..2_000)),
        });
        let transport = TransportConfig {
            fault: Some(spec),
            replication: Some((2, 2)),
            ..TransportConfig::default()
        };
        let (digest, report) = execute(&bench, ProtocolKind::JavaAd, &transport);
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

/// Replaying the same spec must reproduce the fault counters exactly — the
/// whole point of seeded schedules (a chaos failure is re-runnable).
#[test]
fn identical_specs_replay_identical_fault_counters() {
    let spec = FaultSpec {
        seed: 99,
        drop_ppm: 25_000,
        dup_ppm: 10_000,
        ..FaultSpec::default()
    };
    let transport = TransportConfig {
        fault: Some(spec),
        ..TransportConfig::default()
    };
    let bench = jacobi::JacobiParams::quick();
    let (da, ra) = execute(&bench, ProtocolKind::JavaPf, &transport);
    let (db, rb) = execute(&bench, ProtocolKind::JavaPf, &transport);
    assert_eq!(da.to_bits(), db.to_bits());
    let (a, b) = (ra.total_stats(), rb.total_stats());
    assert_eq!(a.frames_dropped_injected, b.frames_dropped_injected);
    assert_eq!(a.rpc_retries, b.rpc_retries);
    assert_eq!(a.rpc_timeouts, b.rpc_timeouts);
}

// ----- exact-counter unit suite --------------------------------------------

/// A DSM system over a fault-injecting transport, with one page homed on
/// each node.
fn build_faulty_dsm(
    nodes: usize,
    spec: FaultSpec,
    transport: &TransportConfig,
) -> (Arc<DsmSystem>, Vec<GlobalAddr>) {
    let cluster = Cluster::for_backend_with_faults(
        myrinet_200().machine,
        nodes,
        TransportBackend::Sim,
        Some(spec),
    );
    let alloc = Arc::new(IsoAllocator::new(nodes));
    let store = DsmStore::new(Arc::clone(&alloc), nodes);
    let dsm = DsmSystem::with_config(
        cluster,
        store,
        ProtocolKind::JavaIc,
        &AdaptiveParams::default(),
        transport,
    );
    let addrs = (0..nodes)
        .map(|home| alloc.alloc_page_aligned(4, NodeId(home as u32)))
        .collect();
    (dsm, addrs)
}

/// `drop_first=2` drops exactly the first two remote frames: the demand
/// fetch retries twice under the backoff schedule and every retry is
/// accounted once — no more, no less.
#[test]
fn dropped_frames_are_retried_and_counted_exactly() {
    let spec = FaultSpec {
        seed: 5,
        drop_first: 2,
        ..FaultSpec::default()
    };
    let transport = TransportConfig::default();
    let (dsm, addrs) = build_faulty_dsm(2, spec, &transport);
    let mut clock0 = ThreadClock::new();
    dsm.put(NodeId(0), &mut clock0, addrs[0], 9);

    let mut clock1 = ThreadClock::new();
    assert_eq!(dsm.get(NodeId(1), &mut clock1, addrs[0]), 9);
    let stats = dsm.cluster().node_stats(NodeId(1));
    assert_eq!(stats.frames_dropped_injected, 2);
    assert_eq!(stats.rpc_timeouts, 2);
    assert_eq!(stats.rpc_retries, 2);
    // Each lost frame charged the full RPC timeout plus its backoff slot
    // (100us, then 200us) to the caller's virtual clock.
    let policy = RetryPolicy::default();
    let charged = policy.rpc_timeout + policy.rpc_timeout + policy.backoff(0) + policy.backoff(1);
    assert!(
        clock1.now() >= charged,
        "caller clock {:?} below the mandatory retry charge {charged:?}",
        clock1.now()
    );

    // The fault plane stays out of the way once the schedule is spent: a
    // second miss (after invalidation) completes first try.
    dsm.invalidate_cache(NodeId(1), &mut clock1);
    assert_eq!(dsm.get(NodeId(1), &mut clock1, addrs[0]), 9);
    let stats = dsm.cluster().node_stats(NodeId(1));
    assert_eq!(stats.rpc_retries, 2);
}

/// When every attempt is dropped, the retry budget runs out and the typed
/// failure surfaces through the single top-level die with service-name
/// context.
#[test]
fn exhausted_retry_budget_dies_with_service_context() {
    let spec = FaultSpec {
        seed: 6,
        drop_ppm: 1_000_000,
        ..FaultSpec::default()
    };
    let transport = TransportConfig {
        retry: RetryPolicy {
            max_attempts: 2,
            ..RetryPolicy::default()
        },
        ..TransportConfig::default()
    };
    let (dsm, addrs) = build_faulty_dsm(2, spec, &transport);
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
        msg.contains("dsm.page_fetch") && msg.contains("2 attempts"),
        "panic lost its service context: {msg}"
    );
    let stats = dsm.cluster().node_stats(NodeId(1));
    assert_eq!(stats.rpc_retries, 1);
    assert_eq!(stats.rpc_timeouts, 2);
}

/// Kill a home node and let a survivor trip over it: the store re-elects
/// the newest quorum replica as the page's home, re-routes, re-syncs, and
/// the read observes the last released write.  Counters are exact: one
/// failed node, at least the written page resynced, and the re-elected home
/// is the replica holder — not an arbitrary survivor.
#[test]
fn killed_home_is_reelected_from_the_newest_quorum_replica() {
    let spec = FaultSpec {
        seed: 7,
        kill: Some(FaultKill {
            node: 0,
            at: VTime::from_us(500),
        }),
        ..FaultSpec::default()
    };
    let transport = TransportConfig {
        replication: Some((2, 2)),
        ..TransportConfig::default()
    };
    let (dsm, addrs) = build_faulty_dsm(3, spec, &transport);
    let page = addrs[0].page();

    // Node 0 (the home) seeds the page; node 1 reads it — becoming a
    // replica holder — then writes and releases, which quorum-stamps its
    // replica at version 1.  All of this happens before the kill instant.
    let mut clock0 = ThreadClock::new();
    dsm.put(NodeId(0), &mut clock0, addrs[0], 7);
    let mut clock1 = ThreadClock::new();
    assert_eq!(dsm.get(NodeId(1), &mut clock1, addrs[0]), 7);
    dsm.put(NodeId(1), &mut clock1, addrs[0], 42);
    dsm.update_main_memory(NodeId(1), &mut clock1);
    assert!(
        clock1.now() < VTime::from_us(500),
        "workload outran the kill"
    );

    // Node 2 arrives after the kill instant: its fetch hits the dead home,
    // triggers recovery, and completes against the re-elected home.
    let mut clock2 = ThreadClock::new();
    clock2.advance(VTime::from_us(1_000));
    assert_eq!(dsm.get(NodeId(2), &mut clock2, addrs[0]), 42);

    let stats = dsm.cluster().node_stats(NodeId(2));
    assert_eq!(stats.nodes_failed, 1);
    assert!(
        stats.pages_resynced >= 1,
        "recovery resynced no pages: {stats:?}"
    );
    assert_eq!(
        dsm.store().home_of(page),
        NodeId(1),
        "the quorum holder must win the election"
    );

    // The re-homed page keeps working: node 2 writes through the new home
    // and node 1 (now the home) observes the value in main memory.
    dsm.put(NodeId(2), &mut clock2, addrs[0], 1234);
    dsm.update_main_memory(NodeId(2), &mut clock2);
    let mut clock1b = ThreadClock::new();
    clock1b.advance(VTime::from_us(2_000));
    dsm.invalidate_cache(NodeId(1), &mut clock1b);
    assert_eq!(dsm.get(NodeId(1), &mut clock1b, addrs[0]), 1234);

    // Recovery ran once; the second observer re-routed without repeating it.
    let mut clock1c = ThreadClock::new();
    clock1c.advance(VTime::from_us(2_000));
    assert_eq!(dsm.get(NodeId(1), &mut clock1c, addrs[0]), 1234);
    let total = dsm.cluster().node_stats(NodeId(1));
    assert_eq!(total.nodes_failed, 0, "only the first observer accounts");
}

/// A page never replicated still recovers: the election falls back to the
/// lowest-id live node, which re-syncs from the authoritative frame.
#[test]
fn unreplicated_pages_fall_back_to_the_lowest_live_node() {
    let spec = FaultSpec {
        seed: 8,
        kill: Some(FaultKill {
            node: 1,
            at: VTime::ZERO,
        }),
        ..FaultSpec::default()
    };
    let transport = TransportConfig {
        replication: Some((2, 2)),
        ..TransportConfig::default()
    };
    let (dsm, addrs) = build_faulty_dsm(3, spec, &transport);
    let page = addrs[1].page();

    // Node 1 seeds its own page locally (home writes need no RPC), then is
    // dead to everyone from virtual time zero.
    let mut clock1 = ThreadClock::new();
    dsm.put(NodeId(1), &mut clock1, addrs[1], 77);

    let mut clock2 = ThreadClock::new();
    assert_eq!(dsm.get(NodeId(2), &mut clock2, addrs[1]), 77);
    assert_eq!(
        dsm.store().home_of(page),
        NodeId(0),
        "with no replicas the lowest live node inherits the page"
    );
    let stats = dsm.cluster().node_stats(NodeId(2));
    assert_eq!(stats.nodes_failed, 1);
    assert!(stats.pages_resynced >= 1);
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
    let transport = TransportConfig {
        replication: Some((2, 2)),
        ..TransportConfig::default()
    };
    let (dsm, addrs) = build_faulty_dsm(3, spec, &transport);
    let (mut clock1, mut clock2) = (ThreadClock::new(), ThreadClock::new());
    // Node 1 registers as the first replica holder, so it is the one the
    // quorum writes keep current and the election picks.
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

    // ...after it, from the re-elected home, the page does.
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
