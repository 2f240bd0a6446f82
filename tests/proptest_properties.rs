//! Randomised property tests for the core data structures and the DSM
//! consistency protocols.
//!
//! Formerly written against `proptest`; the build environment is offline, so
//! the file now drives the same properties from a small self-contained
//! harness: every property runs over a fixed set of seeds through the
//! deterministic workspace RNG, which keeps failures reproducible (the seed
//! is part of every assertion message).
//!
//! The central property is a model check of the DSM layer: an arbitrary
//! sequence of `put` / `get` / `updateMainMemory` / `invalidateCache`
//! operations, executed against the real protocol engine, must observe
//! exactly the values predicted by a tiny executable specification of
//! home-based Java consistency (per-node caches over a single main memory).
//! Both protocols must satisfy it — they are *detection* mechanisms for
//! the same consistency model.  A second model check drives the bulk
//! `read_slice` / `write_slice` path against the element-wise loop and
//! demands identical values *and* compatible statistics.

use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hyperion_workspace::dsm::{DsmStore, DsmSystem, ProtocolKind};
use hyperion_workspace::model::sync::lock;
use hyperion_workspace::model::{myrinet_200, StatsSnapshot, ThreadClock, VTime};
use hyperion_workspace::pm2::{Cluster, GlobalAddr, IsoAllocator, NodeId, PageId};

/// Run `body` once per seed, labelling failures with the seed.
fn property(cases: u64, body: impl Fn(u64, &mut StdRng)) {
    for seed in 0..cases {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ seed);
        body(seed, &mut rng);
    }
}

/// One step of the random DSM program.
#[derive(Clone, Debug)]
enum DsmOp {
    Put { node: u8, slot: u8, value: u64 },
    Get { node: u8, slot: u8 },
    Flush { node: u8 },
    Invalidate { node: u8 },
}

fn random_op(rng: &mut StdRng, nodes: u8, slots: u8) -> DsmOp {
    match rng.gen_range(0u32..4) {
        0 => DsmOp::Put {
            node: rng.gen_range(0..nodes),
            slot: rng.gen_range(0..slots),
            value: rng.gen_range(0u64..u64::MAX / 2),
        },
        1 => DsmOp::Get {
            node: rng.gen_range(0..nodes),
            slot: rng.gen_range(0..slots),
        },
        2 => DsmOp::Flush {
            node: rng.gen_range(0..nodes),
        },
        _ => DsmOp::Invalidate {
            node: rng.gen_range(0..nodes),
        },
    }
}

fn random_ops(rng: &mut StdRng, nodes: u8, slots: u8, max_len: usize) -> Vec<DsmOp> {
    let len = rng.gen_range(1..max_len);
    (0..len).map(|_| random_op(rng, nodes, slots)).collect()
}

/// Executable specification of home-based Java consistency for a single
/// driving thread: a main memory plus one (cache, dirty-set) pair per node.
struct SpecMemory {
    num_slots: usize,
    homes: Vec<usize>,
    main: Vec<u64>,
    cache: Vec<HashMap<usize, u64>>,
    dirty: Vec<HashMap<usize, u64>>,
}

impl SpecMemory {
    fn new(nodes: usize, num_slots: usize, homes: Vec<usize>) -> Self {
        SpecMemory {
            num_slots,
            homes,
            main: vec![0; num_slots],
            cache: (0..nodes).map(|_| HashMap::new()).collect(),
            dirty: (0..nodes).map(|_| HashMap::new()).collect(),
        }
    }

    fn get(&mut self, node: usize, slot: usize) -> u64 {
        if self.homes[slot] == node {
            return self.main[slot];
        }
        if let Some(&v) = self.cache[node].get(&slot) {
            return v;
        }
        // Miss: the whole "page" (here: every slot with the same home) is
        // brought in.
        let home = self.homes[slot];
        for s in 0..self.num_slots {
            if self.homes[s] == home {
                self.cache[node].insert(s, self.main[s]);
            }
        }
        self.cache[node][&slot]
    }

    fn put(&mut self, node: usize, slot: usize, value: u64) {
        if self.homes[slot] == node {
            self.main[slot] = value;
            return;
        }
        // Write allocate, exactly like the real engine.
        self.get(node, slot);
        self.cache[node].insert(slot, value);
        self.dirty[node].insert(slot, value);
    }

    fn flush(&mut self, node: usize) {
        for (slot, value) in self.dirty[node].drain() {
            self.main[slot] = value;
        }
    }

    fn invalidate(&mut self, node: usize) {
        // The engine flushes pending writes before dropping copies so no
        // update can be lost.
        self.flush(node);
        self.cache[node].clear();
    }
}

/// Build a real DSM system with `nodes` nodes and two shared "objects":
/// `slots_per_home` slots homed on each node, all on distinct pages.
fn build_dsm(
    protocol: ProtocolKind,
    nodes: usize,
    slots_per_home: usize,
) -> (Arc<DsmSystem>, Vec<GlobalAddr>, Vec<usize>) {
    let cluster = Cluster::new(myrinet_200().machine, nodes);
    let alloc = Arc::new(IsoAllocator::new(nodes));
    let store = DsmStore::new(Arc::clone(&alloc), nodes);
    let dsm = DsmSystem::new(cluster, store, protocol);
    let mut addrs = Vec::new();
    let mut homes = Vec::new();
    for home in 0..nodes {
        let base = alloc.alloc_page_aligned(slots_per_home, NodeId(home as u32));
        for s in 0..slots_per_home {
            addrs.push(base.offset(s as u64));
            homes.push(home);
        }
    }
    (dsm, addrs, homes)
}

/// The real protocol engines agree with the executable specification on
/// every read, for arbitrary operation sequences, under both protocols:
/// the stride prefetch installs pages ahead of the demand misses, but
/// every read must still observe exactly the values the specification
/// predicts.
#[test]
fn dsm_matches_the_consistency_specification() {
    let patched = std::cell::Cell::new(0u64);
    property(48, |seed, rng| {
        let ops = random_ops(rng, 3, 12, 120);
        for protocol in ProtocolKind::all() {
            let nodes = 3usize;
            let slots_per_home = 4usize;
            let (dsm, addrs, homes) = build_dsm(protocol, nodes, slots_per_home);
            let mut spec = SpecMemory::new(nodes, addrs.len(), homes);
            let mut clocks: Vec<ThreadClock> = (0..nodes).map(|_| ThreadClock::new()).collect();

            for op in &ops {
                match *op {
                    DsmOp::Put { node, slot, value } => {
                        let node = node as usize;
                        let slot = slot as usize % addrs.len();
                        dsm.put(NodeId(node as u32), &mut clocks[node], addrs[slot], value);
                        spec.put(node, slot, value);
                    }
                    DsmOp::Get { node, slot } => {
                        let node = node as usize;
                        let slot = slot as usize % addrs.len();
                        let real = dsm.get(NodeId(node as u32), &mut clocks[node], addrs[slot]);
                        let expected = spec.get(node, slot);
                        assert_eq!(
                            real, expected,
                            "seed {seed}: {protocol:?} read mismatch at slot {slot}"
                        );
                    }
                    DsmOp::Flush { node } => {
                        let node = node as usize;
                        dsm.update_main_memory(NodeId(node as u32), &mut clocks[node]);
                        spec.flush(node);
                    }
                    DsmOp::Invalidate { node } => {
                        let node = node as usize;
                        dsm.invalidate_cache(NodeId(node as u32), &mut clocks[node]);
                        spec.invalidate(node);
                    }
                }
            }

            // Quiesce: flush everything and check main memory agrees slot by
            // slot (read from each slot's home node).
            for (node, clock) in clocks.iter_mut().enumerate() {
                dsm.update_main_memory(NodeId(node as u32), clock);
                spec.flush(node);
            }
            for (slot, addr) in addrs.iter().enumerate() {
                let home = spec.homes[slot];
                let real = dsm.get(NodeId(home as u32), &mut clocks[home], *addr);
                assert_eq!(
                    real, spec.main[slot],
                    "seed {seed}: {protocol:?} final state, slot {slot}"
                );
            }
            let stats = dsm.cluster().total_stats();
            patched.set(patched.get() + stats.pages_patched);
        }
    });
    // Every patched copy above was compared with its home slot for slot
    // (debug builds); the programs have to get there at all.
    assert!(patched.get() > 0, "no sequence crossed a patch");
}

/// One step of a thread's random program for the monitor-level check.
#[derive(Clone, Debug)]
enum ThreadOp {
    /// A section of monitor `m`: reads (`None`) and writes of its slots.
    Section(usize, Vec<(usize, Option<u64>)>),
    /// A read of any slot outside every section: it caches the page, its
    /// value races with the writers and is not checked.
    Peek(usize, usize),
    /// Start a child running `program` on `node`.
    Spawn(u32, Vec<ThreadOp>),
    /// Join this thread's oldest child not yet joined.
    Join,
}

fn random_program(rng: &mut StdRng, depth: u32) -> Vec<ThreadOp> {
    (0..rng.gen_range(1..10))
        .map(|_| match rng.gen_range(0u32..8) {
            0..=3 => {
                let ops = (0..rng.gen_range(1..5))
                    .map(|_| {
                        let k = rng.gen_range(0..3);
                        (
                            k,
                            (rng.gen_range(0..2) == 0).then(|| rng.gen_range(1..u64::MAX)),
                        )
                    })
                    .collect();
                ThreadOp::Section(rng.gen_range(0..2), ops)
            }
            4 | 5 => ThreadOp::Peek(rng.gen_range(0..2), rng.gen_range(0..3)),
            6 if depth < 2 => ThreadOp::Spawn(rng.gen_range(0..3), random_program(rng, depth + 1)),
            _ => ThreadOp::Join,
        })
        .collect()
}

/// What every thread of a monitor-level program shares: slot `k` of monitor
/// `m` is slot `m` of page `k`, homed on node `k` (so every page holds a slot
/// of each monitor), and per monitor the value each slot last had written in
/// that monitor's order.
#[derive(Clone)]
struct World {
    seed: u64,
    pages: [hyperion_workspace::hyperion::HArray<u64>; 3],
    monitors: [hyperion_workspace::hyperion::HMonitor; 2],
    last: Arc<[std::sync::Mutex<[u64; 3]>; 2]>,
}

fn run_program(t: &mut hyperion_workspace::ThreadCtx, program: Vec<ThreadOp>, w: &World) {
    let mut children = std::collections::VecDeque::new();
    for op in program {
        match op {
            ThreadOp::Section(m, ops) => {
                // Checked once the monitor is free again: a failure inside
                // the section would leave every other thread waiting on it.
                let stale = w.monitors[m].synchronized(t, |t| {
                    let mut last = lock(&w.last[m]);
                    ops.into_iter().find_map(|(k, write)| match write {
                        Some(value) => {
                            w.pages[k].put(t, m, value);
                            last[k] = value;
                            None
                        }
                        None => Some((k, w.pages[k].get(t, m), last[k])).filter(|r| r.1 != r.2),
                    })
                });
                assert_eq!(
                    stale, None,
                    "seed {}: (slot, read, last written) of {m}",
                    w.seed
                );
            }
            ThreadOp::Peek(m, k) => {
                let _ = w.pages[k].get(t, m);
            }
            ThreadOp::Spawn(node, program) => {
                let w = w.clone();
                children.push_back(t.spawn_on(NodeId(node), move |c| run_program(c, program, &w)));
            }
            ThreadOp::Join => {
                if let Some(child) = children.pop_front() {
                    t.join(child);
                }
            }
        }
    }
    children.into_iter().for_each(|child| {
        t.join(child);
    });
}

/// The monitor-level reference check: random programs of get / put / enter
/// / exit / spawn / join on 3 nodes with 2 monitors, every slot written
/// under one fixed monitor.  Every read inside a section of that monitor
/// returns the value of the slot's last write in the monitor's order —
/// whatever the copies the reading node kept across its acquires.
#[test]
fn every_read_in_a_section_sees_the_last_write_in_monitor_order() {
    use hyperion_workspace::{HyperionConfig, HyperionRuntime};
    let (kept, dropped) = (std::cell::Cell::new(0), std::cell::Cell::new(0));
    property(48, |seed, rng| {
        let program = random_program(rng, 0);
        for protocol in ProtocolKind::all() {
            let config = HyperionConfig::new(myrinet_200(), 3, protocol);
            let rt = HyperionRuntime::new(config).expect("valid configuration");
            let program = program.clone();
            let out = rt.run(move |ctx| {
                let page = |ctx: &mut hyperion_workspace::ThreadCtx, k| {
                    ctx.alloc_array_page_aligned::<u64>(2, NodeId(k))
                };
                let w = World {
                    seed,
                    pages: [page(ctx, 0), page(ctx, 1), page(ctx, 2)],
                    monitors: [ctx.new_monitor(NodeId(0)), ctx.new_monitor(NodeId(1))],
                    last: Arc::new(Default::default()),
                };
                run_program(ctx, program, &w);
            });
            let t = out.report.total_stats();
            kept.set(kept.get() + t.pages_kept);
            dropped.set(dropped.get() + t.pages_invalidated);
        }
    });
    // The programs have to get there at all: copies kept open across
    // acquires, and copies dropped by them.
    assert!(kept.get() > 0 && dropped.get() > 0);
}

/// Stride prefetches and deferred flushing never change an application's
/// digest, across randomised problem instances of two apps whose access
/// patterns actually draw them: three nodes compute exactly what one node,
/// with nothing on the wire, computes.
#[test]
fn three_nodes_match_one_node_on_random_jacobi_and_asp_sizes() {
    use hyperion_workspace::apps::{asp, jacobi};
    use hyperion_workspace::HyperionConfig;

    let config = |nodes| HyperionConfig::new(myrinet_200(), nodes, ProtocolKind::JavaPf);
    property(4, |seed, rng| {
        // Sizes chosen so rows regularly span page boundaries (the pattern
        // that draws stride prefetches) without making the run slow.
        let jacobi_params = jacobi::JacobiParams {
            size: 40 + rng.gen_range(0u64..5) as usize * 10,
            steps: 3 + rng.gen_range(0u64..3) as usize,
        };
        let base = jacobi::run(config(1), &jacobi_params);
        let dist = jacobi::run(config(3), &jacobi_params);
        assert_eq!(
            base.result, dist.result,
            "seed {seed}: the wire changed Jacobi's answer ({jacobi_params:?})"
        );

        let asp_params = asp::AspParams {
            vertices: 36 + rng.gen_range(0u64..4) as usize * 12,
            seed: seed.wrapping_mul(0x9E37_79B9).wrapping_add(7),
            edge_percent: 20 + rng.gen_range(0u64..40) as u32,
        };
        let base = asp::run(config(1), &asp_params);
        let dist = asp::run(config(3), &asp_params);
        assert_eq!(
            base.result, dist.result,
            "seed {seed}: the wire changed ASP's answer ({asp_params:?})"
        );
    });
}

/// One step of the random *slice* program used by the bulk-equivalence
/// model check.
#[derive(Clone, Debug)]
enum SliceOp {
    Write { node: u8, start: u16, len: u16 },
    Read { node: u8, start: u16, len: u16 },
    Flush { node: u8 },
    Invalidate { node: u8 },
}

/// Slices must stay inside one home's (contiguous) region: the per-home
/// regions are page-aligned and therefore *not* adjacent in the global
/// address space, so a slice crossing regions would not be comparable with
/// the element-wise loop over `addrs`.
fn random_slice_ops(
    rng: &mut StdRng,
    nodes: u8,
    slots_per_home: u16,
    max_len: usize,
) -> Vec<SliceOp> {
    let len = rng.gen_range(1..max_len);
    (0..len)
        .map(|_| {
            let region = rng.gen_range(0..nodes as u16);
            let offset = rng.gen_range(0..slots_per_home);
            let start = region * slots_per_home + offset;
            let span = rng.gen_range(0..slots_per_home - offset) + 1;
            match rng.gen_range(0u32..4) {
                0 | 1 => SliceOp::Write {
                    node: rng.gen_range(0..nodes),
                    start,
                    len: span,
                },
                2 => SliceOp::Read {
                    node: rng.gen_range(0..nodes),
                    start,
                    len: span,
                },
                _ => {
                    if rng.gen_range(0u32..2) == 0 {
                        SliceOp::Flush {
                            node: rng.gen_range(0..nodes),
                        }
                    } else {
                        SliceOp::Invalidate {
                            node: rng.gen_range(0..nodes),
                        }
                    }
                }
            }
        })
        .collect()
}

/// Bulk `read_slice` / `write_slice` produce identical values and identical
/// final main memory as the element-wise loop, under both protocols, and
/// their statistics obey the per-page detection contract: same element and
/// page traffic, never more in-line checks.
#[test]
fn bulk_slice_transfers_match_the_elementwise_loop() {
    // Two pages per home so slices regularly span a page boundary.
    let slots_per_home = hyperion_workspace::pm2::SLOTS_PER_PAGE + 24;
    let nodes = 2usize;
    property(24, |seed, rng| {
        let ops = random_slice_ops(rng, nodes as u8, slots_per_home as u16, 40);
        for protocol in [ProtocolKind::JavaIc, ProtocolKind::JavaPf] {
            let (dsm_b, addrs_b, _) = build_dsm(protocol, nodes, slots_per_home);
            let (dsm_e, addrs_e, homes) = build_dsm(protocol, nodes, slots_per_home);
            let mut clocks_b: Vec<ThreadClock> = (0..nodes).map(|_| ThreadClock::new()).collect();
            let mut clocks_e: Vec<ThreadClock> = (0..nodes).map(|_| ThreadClock::new()).collect();
            let mut fill = 0u64;

            for op in &ops {
                match *op {
                    SliceOp::Write { node, start, len } => {
                        let (node, start, len) = (node as usize, start as usize, len as usize);
                        let values: Vec<u64> = (0..len)
                            .map(|i| {
                                fill = fill.wrapping_add(0x9E37_79B9_7F4A_7C15);
                                fill ^ i as u64
                            })
                            .collect();
                        dsm_b.write_slice(
                            NodeId(node as u32),
                            &mut clocks_b[node],
                            addrs_b[start],
                            &values,
                        );
                        for (i, v) in values.iter().enumerate() {
                            dsm_e.put(
                                NodeId(node as u32),
                                &mut clocks_e[node],
                                addrs_e[start + i],
                                *v,
                            );
                        }
                    }
                    SliceOp::Read { node, start, len } => {
                        let (node, start, len) = (node as usize, start as usize, len as usize);
                        let mut bulk = vec![0u64; len];
                        dsm_b.read_slice(
                            NodeId(node as u32),
                            &mut clocks_b[node],
                            addrs_b[start],
                            &mut bulk,
                        );
                        let elem: Vec<u64> = (0..len)
                            .map(|i| {
                                dsm_e.get(
                                    NodeId(node as u32),
                                    &mut clocks_e[node],
                                    addrs_e[start + i],
                                )
                            })
                            .collect();
                        assert_eq!(
                            bulk, elem,
                            "seed {seed}: {protocol:?} slice read mismatch at {start}+{len}"
                        );
                    }
                    SliceOp::Flush { node } => {
                        let node = node as usize;
                        dsm_b.update_main_memory(NodeId(node as u32), &mut clocks_b[node]);
                        dsm_e.update_main_memory(NodeId(node as u32), &mut clocks_e[node]);
                    }
                    SliceOp::Invalidate { node } => {
                        let node = node as usize;
                        dsm_b.invalidate_cache(NodeId(node as u32), &mut clocks_b[node]);
                        dsm_e.invalidate_cache(NodeId(node as u32), &mut clocks_e[node]);
                    }
                }
            }

            // Quiesce both systems and compare main memory slot by slot.
            for node in 0..nodes {
                dsm_b.update_main_memory(NodeId(node as u32), &mut clocks_b[node]);
                dsm_e.update_main_memory(NodeId(node as u32), &mut clocks_e[node]);
            }
            for (slot, home) in homes.iter().enumerate() {
                let vb = dsm_b.get(NodeId(*home as u32), &mut clocks_b[*home], addrs_b[slot]);
                let ve = dsm_e.get(NodeId(*home as u32), &mut clocks_e[*home], addrs_e[slot]);
                assert_eq!(vb, ve, "seed {seed}: {protocol:?} final slot {slot}");
            }

            // Statistics invariants: identical element and page traffic,
            // identical flush traffic, and never more in-line checks on the
            // bulk side.
            let sb: StatsSnapshot = dsm_b.cluster().total_stats();
            let se: StatsSnapshot = dsm_e.cluster().total_stats();
            assert_eq!(sb.field_reads, se.field_reads, "seed {seed}: {protocol:?}");
            assert_eq!(
                sb.field_writes, se.field_writes,
                "seed {seed}: {protocol:?}"
            );
            assert_eq!(sb.page_loads, se.page_loads, "seed {seed}: {protocol:?}");
            assert_eq!(
                sb.diff_slots_flushed, se.diff_slots_flushed,
                "seed {seed}: {protocol:?}"
            );
            assert_eq!(
                sb.pages_invalidated, se.pages_invalidated,
                "seed {seed}: {protocol:?}"
            );
            assert!(
                sb.locality_checks <= se.locality_checks,
                "seed {seed}: {protocol:?} bulk side performed more checks"
            );
            match protocol {
                ProtocolKind::JavaIc => {
                    assert_eq!(sb.page_faults, 0, "seed {seed}");
                    assert_eq!(sb.mprotect_calls, 0, "seed {seed}");
                }
                ProtocolKind::JavaPf => {
                    assert_eq!(sb.locality_checks, 0, "seed {seed}");
                    assert!(sb.mprotect_calls >= sb.page_faults, "seed {seed}");
                    assert_eq!(sb.page_faults, se.page_faults, "seed {seed}");
                }
            }
        }
    });
}

/// Virtual time never decreases and only `java_ic` performs checks.
#[test]
fn protocol_costs_are_monotone_and_protocol_specific() {
    property(32, |seed, rng| {
        let ops = random_ops(rng, 2, 8, 60);
        for protocol in [ProtocolKind::JavaIc, ProtocolKind::JavaPf] {
            let (dsm, addrs, _homes) = build_dsm(protocol, 2, 4);
            let mut clock = ThreadClock::new();
            let mut last = VTime::ZERO;
            for op in &ops {
                match *op {
                    DsmOp::Put { slot, value, .. } => dsm.put(
                        NodeId(0),
                        &mut clock,
                        addrs[slot as usize % addrs.len()],
                        value,
                    ),
                    DsmOp::Get { slot, .. } => {
                        let _ = dsm.get(NodeId(0), &mut clock, addrs[slot as usize % addrs.len()]);
                    }
                    DsmOp::Flush { .. } => dsm.update_main_memory(NodeId(0), &mut clock),
                    DsmOp::Invalidate { .. } => dsm.invalidate_cache(NodeId(0), &mut clock),
                }
                assert!(clock.now() >= last, "seed {seed}: time went backwards");
                last = clock.now();
            }
            let stats = dsm.cluster().total_stats();
            match protocol {
                ProtocolKind::JavaIc => {
                    assert_eq!(stats.page_faults, 0, "seed {seed}");
                    assert_eq!(stats.mprotect_calls, 0, "seed {seed}");
                    assert_eq!(
                        stats.locality_checks,
                        stats.field_reads + stats.field_writes,
                        "seed {seed}"
                    );
                }
                ProtocolKind::JavaPf => {
                    assert_eq!(stats.locality_checks, 0, "seed {seed}");
                    assert!(stats.mprotect_calls >= stats.page_faults, "seed {seed}");
                }
            }
        }
    });
}

/// The iso-address allocator never hands out overlapping ranges and always
/// records a home for every allocated page.
#[test]
fn allocator_ranges_never_overlap() {
    property(40, |seed, rng| {
        let alloc = IsoAllocator::new(4);
        let mut seen: Vec<(u64, u64)> = Vec::new();
        let count = rng.gen_range(1usize..40);
        for _ in 0..count {
            let slots = rng.gen_range(1usize..200);
            let home = rng.gen_range(0u32..4);
            let addr = alloc.alloc(slots, NodeId(home));
            let start = addr.0;
            let end = start + slots as u64;
            for &(s, e) in &seen {
                assert!(
                    end <= s || start >= e,
                    "seed {seed}: ranges [{start},{end}) and [{s},{e}) overlap"
                );
            }
            // Every page of the range is homed on the requested node.
            for page in addr.page().0..=addr.offset(slots as u64 - 1).page().0 {
                assert_eq!(alloc.home_of(PageId(page)), NodeId(home), "seed {seed}");
            }
            seen.push((start, end));
        }
    });
}

/// `block_range` tiles the index space for arbitrary sizes.
#[test]
fn block_range_tiles_any_size() {
    property(100, |seed, rng| {
        let total = rng.gen_range(0usize..10_000);
        let parts = rng.gen_range(1usize..64);
        let mut covered = 0usize;
        let mut prev_end = 0usize;
        for idx in 0..parts {
            let (s, e) = hyperion_workspace::apps::block_range(total, parts, idx);
            assert_eq!(s, prev_end, "seed {seed}: blocks must be contiguous");
            assert!(e >= s, "seed {seed}");
            assert!(e - s <= total / parts + 1, "seed {seed}: unbalanced block");
            covered += e - s;
            prev_end = e;
        }
        assert_eq!(covered, total, "seed {seed}");
    });
}

/// Every byte-precise wire form in `dsm::diff` survives an encode → decode
/// round trip — the one conditional fetch request (one page, its retained
/// version zero or non-zero, with and without riders; a byte
/// after the last field and a first page with bit 63 set are rejected), single and batched
/// field-granularity diffs, and the versioned diff acknowledgement — and
/// every truncation of every form, and an acknowledgement with anything
/// after its last version, decodes to an error, never a panic.
#[test]
fn diff_wire_encodings_round_trip() {
    use hyperion_workspace::dsm::diff::{
        decode_diff_message, decode_diff_reply, decode_fetch_request, encode_diff,
        encode_diff_batch, encode_diff_reply, encode_fetch_request, DiffEntry, WireError,
    };
    use hyperion_workspace::pm2::{PAGE_BYTES, SLOTS_PER_PAGE};

    // Real page numbers never use the top bit (it is the batched diff's
    // tag), so the generator stays below it.
    let random_page = |rng: &mut StdRng| PageId(rng.gen_range(0u64..1 << 40));
    let random_entries = |rng: &mut StdRng, max: usize| -> Vec<DiffEntry> {
        let len = rng.gen_range(0..max);
        (0..len)
            .map(|_| {
                (
                    rng.gen_range(0..SLOTS_PER_PAGE as u16),
                    rng.gen_range(0u64..u64::MAX),
                )
            })
            .collect()
    };
    // Every strict prefix of a well-formed payload must be rejected.
    fn prefixes_fail<T>(seed: u64, what: &str, wire: &[u8], decode: impl Fn(&[u8]) -> Option<T>) {
        for cut in 0..wire.len() {
            assert!(
                decode(&wire[..cut]).is_none(),
                "seed {seed}: {what} truncated to {cut} of {} bytes decoded",
                wire.len()
            );
        }
    }

    property(64, |seed, rng| {
        // The one fetch request form: one page, its retained version either
        // "none" (0) or a real stamp, and 0..8 riders at real stamps.
        let page = random_page(rng);
        let retained = match rng.gen_range(0u32..3) {
            0 => 0,
            _ => rng.gen_range(1u64..u64::MAX),
        };
        let riders: Vec<(PageId, u64)> = (0..rng.gen_range(0usize..8))
            .map(|_| (random_page(rng), rng.gen_range(1u64..u64::MAX)))
            .collect();
        let wire = encode_fetch_request(page, retained, &riders);
        let request = decode_fetch_request(&wire).expect("well-formed request");
        assert_eq!(
            (request.page, request.retained, &request.riders),
            (page, retained, &riders),
            "seed {seed}"
        );
        prefixes_fail(seed, "fetch request", &wire, |b| {
            decode_fetch_request(b).ok()
        });
        // Longer it is refused too — by a byte, or by what was once a
        // rider trailer (`r u16 · r × (page u64 · version u64)`) — as is a
        // first page that sets bit 63 (once the no-hint tag; it was
        // silently stripped).
        for extra in [1, 2 + 16 * rng.gen_range(1usize..9)] {
            let mut long = wire.clone();
            long.extend((0..extra).map(|_| rng.gen_range(0u32..256) as u8));
            assert!(decode_fetch_request(&long).is_err(), "seed {seed}");
        }
        let mut tagged = wire.clone();
        tagged[7] |= 0x80;
        assert_eq!(
            decode_fetch_request(&tagged),
            Err(WireError::Invalid("fetch request page id")),
            "seed {seed}"
        );

        // Single diff.
        let entries = random_entries(rng, 40);
        let wire = encode_diff(page, &entries);
        assert_eq!(
            decode_diff_message(&wire),
            Ok(vec![(page, entries)]),
            "seed {seed}"
        );
        prefixes_fail(seed, "diff", &wire, |b| decode_diff_message(b).ok());

        // Batched diff over contiguous pages.
        let first = random_page(rng);
        let pages: Vec<Vec<DiffEntry>> = (0..rng.gen_range(1usize..6))
            .map(|_| random_entries(rng, 20))
            .collect();
        let expected: Vec<(PageId, Vec<DiffEntry>)> = pages
            .iter()
            .enumerate()
            .map(|(k, e)| (PageId(first.0 + k as u64), e.clone()))
            .collect();
        let wire = encode_diff_batch(first, &pages);
        assert_eq!(decode_diff_message(&wire), Ok(expected), "seed {seed}");
        prefixes_fail(seed, "batched diff", &wire, |b| decode_diff_message(b).ok());

        // The acknowledgement: one post-apply version per page and nothing
        // else.
        let acked: Vec<u64> = pages
            .iter()
            .map(|_| rng.gen_range(2u64..u64::MAX))
            .collect();
        let wire = encode_diff_reply(&acked);
        assert_eq!(
            decode_diff_reply(&wire, acked.len()),
            Ok(acked.clone()),
            "seed {seed}"
        );
        prefixes_fail(seed, "diff reply", &wire, |b| {
            decode_diff_reply(b, acked.len()).ok()
        });
        // Trailing garbage of any length is rejected: one stray byte, a
        // whole extra version, a page id with a page of bytes behind it.
        for extra in [1, 8, rng.gen_range(1usize..64), 8 + PAGE_BYTES] {
            let mut long = wire.clone();
            long.extend((0..extra).map(|_| rng.gen_range(0u32..256) as u8));
            assert!(
                decode_diff_reply(&long, acked.len()).is_err(),
                "seed {seed}: {extra} trailing bytes decoded"
            );
        }
    });
}

/// Page-fetch replies — the page's answer ("not modified", a patch or the
/// page), then any mix of riders' answers ("no answer", "not modified",
/// patches) — parse back to exactly what went in; truncated, extended and
/// garbage replies, and a page shipped to a rider, are errors, never panics.
#[test]
fn fetch_reply_forms_round_trip_and_reject_garbage() {
    use hyperion_workspace::dsm::diff::{
        decode_fetch_reply, push_page_reply, DiffEntry, PageReply, WireError, MAX_PATCH_ENTRIES,
        NO_ANSWER,
    };
    use hyperion_workspace::pm2::PAGE_BYTES;

    // Up to a patch's most entries, slots ascending.
    let random_patch = |rng: &mut StdRng| {
        let mut entries: Vec<DiffEntry> = (0..rng.gen_range(0..MAX_PATCH_ENTRIES + 1))
            .map(|_| (rng.gen_range(0u16..512), rng.gen_range(0..u64::MAX)))
            .collect();
        entries.sort_unstable_by_key(|e| e.0);
        entries.dedup_by_key(|e| e.0);
        entries
    };
    property(64, |seed, rng| {
        // The version the requester retains and the home's answer: not
        // modified at it, a patch from it, or the page whatever it was
        // (0 = no copy).
        let shipped: Vec<u8> = (0..PAGE_BYTES)
            .map(|_| rng.gen_range(0u8..u8::MAX))
            .collect();
        let version = rng.gen_range(2u64..u64::MAX);
        let (retained, expected) = match rng.gen_range(0u32..3) {
            0 => (version, PageReply::NotModified(version)),
            1 => (
                rng.gen_range(0..version),
                PageReply::Full(version, &shipped),
            ),
            _ => (
                rng.gen_range(1..version),
                PageReply::Patch(version, random_patch(rng)),
            ),
        };
        // Per rider the version it was named at and the home's answer: none,
        // not modified at it, or a patch from it.
        let (riders, rode): (Vec<u64>, Vec<Option<PageReply<'_>>>) = (0..rng.gen_range(0..6))
            .map(|_| {
                let version = rng.gen_range(2u64..u64::MAX);
                match rng.gen_range(0u32..3) {
                    0 => (version, None),
                    1 => (version, Some(PageReply::NotModified(version))),
                    _ => {
                        let patch = PageReply::Patch(version, random_patch(rng));
                        (rng.gen_range(1..version), Some(patch))
                    }
                }
            })
            .unzip();
        let mut reply = Vec::new();
        push_page_reply(&mut reply, &expected);
        for answer in &rode {
            match answer {
                Some(answer) => push_page_reply(&mut reply, answer),
                None => reply.push(NO_ANSWER),
            }
        }
        let got = decode_fetch_reply(&reply, retained, &riders).expect("well-formed reply");
        assert_eq!(got, (expected, rode), "seed {seed}: answers corrupted");

        // Every truncation is an error, and so is any byte after the last
        // answer (where a hint trailer used to be parsed).
        for cut in 0..reply.len() {
            assert!(
                decode_fetch_reply(&reply[..cut], retained, &riders).is_err(),
                "seed {seed}: reply truncated to {cut} bytes decoded"
            );
        }
        for extra in [1, 2, 12, rng.gen_range(1usize..64)] {
            let mut long = reply.clone();
            long.extend((0..extra).map(|_| rng.gen_range(0u32..256) as u8));
            assert_eq!(
                decode_fetch_reply(&long, retained, &riders),
                Err(WireError::TrailingBytes("fetch reply")),
                "seed {seed}: {extra} trailing bytes decoded"
            );
        }
        // Garbage of the same length never panics the decoder.
        let garbage: Vec<u8> = (0..reply.len().min(64))
            .map(|_| rng.gen_range(0u8..u8::MAX))
            .collect();
        let _ = decode_fetch_reply(&garbage, retained, &riders);
        let named = [&riders[..], &[7]].concat();
        assert!(decode_fetch_reply(&reply, retained, &named).is_err());
        // A rider is never answered with the page.
        push_page_reply(&mut reply, &PageReply::Full(7, &shipped));
        assert_eq!(
            decode_fetch_reply(&reply, retained, &named),
            Err(WireError::Invalid("fetch reply rider answer")),
            "seed {seed}"
        );
    });
}

/// The socket transport's frame header round-trips for every kind and every
/// field value, and the decoder *rejects* (never panics on) truncated
/// bodies and unknown kind tags — this is the boundary where bytes from
/// another process enter the node.
#[test]
fn socket_frames_round_trip_and_reject_garbage() {
    use hyperion_workspace::pm2::socket::{
        decode_frame, encode_frame, FrameHeader, FrameKind, FRAME_HEADER_BYTES,
    };

    property(64, |seed, rng| {
        let kind = match rng.gen_range(0u32..3) {
            0 => FrameKind::Request,
            1 => FrameKind::Reply,
            _ => FrameKind::Error,
        };
        let header = FrameHeader {
            kind,
            service: rng.gen_range(0u32..u32::MAX),
            from: rng.gen_range(0u32..u32::MAX),
            to: rng.gen_range(0u32..u32::MAX),
            aux: rng.gen_range(0u64..u64::MAX),
        };
        let payload: Vec<u8> = (0..rng.gen_range(0usize..200))
            .map(|_| rng.gen_range(0u8..u8::MAX))
            .collect();

        let frame = encode_frame(header, &payload);
        let body_len = u32::from_le_bytes(frame[0..4].try_into().expect("4 bytes")) as usize;
        assert_eq!(
            body_len,
            frame.len() - 4,
            "seed {seed}: length prefix disagrees with the body"
        );
        assert_eq!(body_len, FRAME_HEADER_BYTES + payload.len(), "seed {seed}");

        let body = &frame[4..];
        let (got_header, got_payload) = decode_frame(body)
            .unwrap_or_else(|e| panic!("seed {seed}: well-formed frame rejected: {e}"));
        assert_eq!(got_header, header, "seed {seed}");
        assert_eq!(got_payload, &payload[..], "seed {seed}");

        // Every truncation of the header region is an error, not a panic.
        let cut = rng.gen_range(0..FRAME_HEADER_BYTES);
        assert!(
            decode_frame(&body[..cut]).is_err(),
            "seed {seed}: truncated body of {cut} bytes was accepted"
        );

        // An unknown kind tag is rejected with the full header present.
        let mut bad = body.to_vec();
        bad[0] = rng.gen_range(4u8..u8::MAX);
        assert!(
            decode_frame(&bad).is_err(),
            "seed {seed}: unknown kind tag {} was accepted",
            bad[0]
        );
    });
}

/// VTime arithmetic: saturating, commutative max, order-compatible.
#[test]
fn vtime_algebra() {
    property(200, |seed, rng| {
        let a = rng.gen_range(0u64..u64::MAX / 4);
        let b = rng.gen_range(0u64..u64::MAX / 4);
        let ta = VTime::from_ps(a);
        let tb = VTime::from_ps(b);
        assert_eq!(ta + tb, tb + ta, "seed {seed}");
        assert_eq!(ta.max(tb), tb.max(ta), "seed {seed}");
        assert!((ta + tb) >= ta, "seed {seed}");
        assert_eq!((ta + tb) - tb, ta, "seed {seed}");
        assert_eq!(ta.times(3).as_ps(), a * 3, "seed {seed}");
    });
}
