//! Behavior tests of the DSM protocol engine under each protocol's access
//! detection.  They exercise only the public API, so they run as an
//! integration test.

use std::sync::Arc;

use hyperion_dsm::{AdaptiveParams, DsmStore, DsmSystem, ProtocolKind, TransportConfig};
use hyperion_model::{myrinet_200, ThreadClock, VTime};
use hyperion_pm2::{
    Cluster, FaultKill, FaultSpec, GlobalAddr, IsoAllocator, NodeId, PageId, SLOTS_PER_PAGE,
};

struct Fixture {
    cluster: Arc<Cluster>,
    alloc: Arc<IsoAllocator>,
    dsm: Arc<DsmSystem>,
}

fn fixture(nodes: usize, kind: ProtocolKind) -> Fixture {
    fixture_with(
        nodes,
        kind,
        &AdaptiveParams::default(),
        &TransportConfig::default(),
    )
}

fn fixture_with(
    nodes: usize,
    kind: ProtocolKind,
    params: &AdaptiveParams,
    transport: &TransportConfig,
) -> Fixture {
    let machine = myrinet_200().machine;
    let cluster =
        Cluster::for_backend_with_faults(machine, nodes, transport.backend, transport.fault);
    let alloc = Arc::new(IsoAllocator::new(nodes));
    let store = DsmStore::new(Arc::clone(&alloc), nodes);
    let dsm = DsmSystem::with_config(Arc::clone(&cluster), store, kind, params);
    Fixture {
        cluster,
        alloc,
        dsm,
    }
}

/// True if `node` holds an open cached copy of `page`: present and not
/// protected, so an access reads it without DSM traffic.
fn cached(dsm: &DsmSystem, node: NodeId, page: PageId) -> bool {
    let frame = dsm.store().frame(node, page);
    !frame.is_home() && frame.is_present() && !frame.is_protected()
}

/// True if `node` can access `page` without DSM traffic: it homes the page,
/// or holds an open copy of it.
fn resident(dsm: &DsmSystem, node: NodeId, page: PageId) -> bool {
    dsm.store().frame(node, page).is_home() || cached(dsm, node, page)
}

/// A frame exists per page per node up to the highest page the node
/// touched, most of them never accessed, so per-copy state has to fit what
/// a frame already takes: 80 bytes on 64-bit Linux (168 while the frame
/// held `java_ad`'s state and its own dirty bitmap), at most 120 anywhere.
#[test]
fn a_page_frame_fits_in_80_bytes() {
    let size = std::mem::size_of::<hyperion_dsm::PageFrame>();
    assert!(size <= 120, "a page frame takes {size} bytes");
    if cfg!(all(target_os = "linux", target_pointer_width = "64")) {
        assert_eq!(size, 80);
    }
}

#[test]
fn protocol_kind_names_match_paper() {
    assert_eq!(ProtocolKind::JavaIc.name(), "java_ic");
    assert_eq!(ProtocolKind::JavaPf.name(), "java_pf");
    assert_eq!(ProtocolKind::JavaAd.name(), "java_ad");
    assert_eq!(ProtocolKind::all().len(), 2);
    assert_eq!(ProtocolKind::all_extended().len(), 3);
    assert_eq!(format!("{}", ProtocolKind::JavaPf), "java_pf");
    assert_eq!(format!("{}", ProtocolKind::JavaAd), "java_ad");
}

#[test]
fn home_access_round_trips_values() {
    for kind in ProtocolKind::all() {
        let f = fixture(1, kind);
        let addr = f.alloc.alloc(8, NodeId(0));
        let mut clock = ThreadClock::new();
        f.dsm.put(NodeId(0), &mut clock, addr.offset(3), 42);
        assert_eq!(f.dsm.get(NodeId(0), &mut clock, addr.offset(3)), 42);
        assert_eq!(f.dsm.get(NodeId(0), &mut clock, addr.offset(4)), 0);
    }
}

#[test]
fn ic_charges_checks_even_on_home_pages_pf_does_not() {
    let ic = fixture(1, ProtocolKind::JavaIc);
    let pf = fixture(1, ProtocolKind::JavaPf);
    let a_ic = ic.alloc.alloc(4, NodeId(0));
    let a_pf = pf.alloc.alloc(4, NodeId(0));

    let mut c_ic = ThreadClock::new();
    let mut c_pf = ThreadClock::new();
    for i in 0..100 {
        ic.dsm.put(NodeId(0), &mut c_ic, a_ic, i);
        pf.dsm.put(NodeId(0), &mut c_pf, a_pf, i);
    }
    assert_eq!(ic.cluster.node_stats(NodeId(0)).locality_checks, 100);
    assert_eq!(pf.cluster.node_stats(NodeId(0)).locality_checks, 0);
    assert_eq!(pf.cluster.node_stats(NodeId(0)).page_faults, 0);
    // The in-line check protocol is strictly slower on an all-local run.
    assert!(c_ic.now() > c_pf.now());
    assert_eq!(c_pf.now(), VTime::ZERO);
}

#[test]
fn remote_read_fetches_page_and_sees_home_values() {
    for kind in ProtocolKind::all_extended() {
        let f = fixture(2, kind);
        let addr = f.alloc.alloc(8, NodeId(1));
        // The home node writes a value directly.
        let mut home_clock = ThreadClock::new();
        f.dsm.put(NodeId(1), &mut home_clock, addr, 1234);

        // Node 0 reads it remotely.
        let mut clock = ThreadClock::new();
        let v = f.dsm.get(NodeId(0), &mut clock, addr);
        assert_eq!(v, 1234, "{kind:?}");

        let s0 = f.cluster.node_stats(NodeId(0));
        assert_eq!(s0.page_loads, 1);
        match kind {
            ProtocolKind::JavaIc => {
                assert_eq!(s0.page_faults, 0);
                assert_eq!(s0.mprotect_calls, 0);
                assert_eq!(s0.locality_checks, 1);
            }
            ProtocolKind::JavaPf => {
                assert_eq!(s0.page_faults, 1);
                assert_eq!(s0.mprotect_calls, 1);
                assert_eq!(s0.locality_checks, 0);
            }
            // A fresh page starts in check mode: ic mechanics.
            ProtocolKind::JavaAd => {
                assert_eq!(s0.page_faults, 0);
                assert_eq!(s0.mprotect_calls, 0);
                assert_eq!(s0.locality_checks, 1);
            }
        }
        // Second read hits the cache: no further page loads.
        let before = clock.now();
        let _ = f.dsm.get(NodeId(0), &mut clock, addr);
        assert_eq!(f.cluster.node_stats(NodeId(0)).page_loads, 1);
        match kind {
            ProtocolKind::JavaIc | ProtocolKind::JavaAd => assert!(clock.now() > before),
            ProtocolKind::JavaPf => assert_eq!(clock.now(), before),
        }
    }
}

#[test]
fn remote_miss_is_more_expensive_under_pf_but_hits_are_free() {
    let ic = fixture(2, ProtocolKind::JavaIc);
    let pf = fixture(2, ProtocolKind::JavaPf);
    let a_ic = ic.alloc.alloc(4, NodeId(1));
    let a_pf = pf.alloc.alloc(4, NodeId(1));

    let mut c_ic = ThreadClock::new();
    let mut c_pf = ThreadClock::new();
    let _ = ic.dsm.get(NodeId(0), &mut c_ic, a_ic);
    let _ = pf.dsm.get(NodeId(0), &mut c_pf, a_pf);
    // The pf miss pays the fault and the mprotect on top of the fetch.
    assert!(c_pf.now() > c_ic.now());
    let machine = pf.cluster.machine();
    assert!(c_pf.now() >= c_ic.now() + machine.dsm.page_fault);
}

#[test]
fn prefetch_effect_neighbouring_object_on_same_page_is_free() {
    let f = fixture(2, ProtocolKind::JavaIc);
    // Two small objects allocated back to back share a page.
    let a = f.alloc.alloc(4, NodeId(1));
    let b = f.alloc.alloc(4, NodeId(1));
    assert_eq!(a.page(), b.page());
    let mut clock = ThreadClock::new();
    let _ = f.dsm.get(NodeId(0), &mut clock, a);
    let _ = f.dsm.get(NodeId(0), &mut clock, b);
    assert_eq!(f.cluster.node_stats(NodeId(0)).page_loads, 1);
}

#[test]
fn diff_flush_propagates_writes_to_home() {
    for kind in ProtocolKind::all() {
        let f = fixture(2, kind);
        let addr = f.alloc.alloc(8, NodeId(1));
        let mut w = ThreadClock::new();
        f.dsm.put(NodeId(0), &mut w, addr.offset(2), 99);
        // Before the flush the home still sees the old value.
        let mut h = ThreadClock::new();
        assert_eq!(f.dsm.get(NodeId(1), &mut h, addr.offset(2)), 0);
        // Flush.
        f.dsm.update_main_memory(NodeId(0), &mut w);
        assert_eq!(f.dsm.get(NodeId(1), &mut h, addr.offset(2)), 99);
        let s0 = f.cluster.node_stats(NodeId(0));
        assert_eq!(s0.diff_messages, 1);
        assert_eq!(s0.diff_slots_flushed, 1);
        // A second flush with nothing dirty sends nothing.
        f.dsm.update_main_memory(NodeId(0), &mut w);
        assert_eq!(f.cluster.node_stats(NodeId(0)).diff_messages, 1);
    }
}

#[test]
fn invalidate_forces_refetch_and_charges_mprotect_only_under_pf() {
    for kind in ProtocolKind::all_extended() {
        let f = fixture(2, kind);
        let addr = f.alloc.alloc(8, NodeId(1));
        let mut clock = ThreadClock::new();
        let _ = f.dsm.get(NodeId(0), &mut clock, addr);
        assert!(resident(&f.dsm, NodeId(0), addr.page()));
        assert_eq!(f.dsm.store().cached_on(NodeId(0)), 1);

        let mprotect_before = f.cluster.node_stats(NodeId(0)).mprotect_calls;
        f.dsm.invalidate_cache(NodeId(0), &mut clock);
        assert!(!resident(&f.dsm, NodeId(0), addr.page()));
        assert_eq!(f.dsm.store().cached_on(NodeId(0)), 0);
        let s = f.cluster.node_stats(NodeId(0));
        assert_eq!(s.cache_invalidations, 1);
        assert_eq!(s.pages_invalidated, 1);
        match kind {
            ProtocolKind::JavaIc => assert_eq!(s.mprotect_calls, mprotect_before),
            ProtocolKind::JavaPf => assert_eq!(s.mprotect_calls, mprotect_before + 1),
            // One sparse access leaves the page in check mode, so no
            // re-protection is due.
            ProtocolKind::JavaAd => assert_eq!(s.mprotect_calls, mprotect_before),
        }

        // The next access loads the page again.
        let _ = f.dsm.get(NodeId(0), &mut clock, addr);
        assert_eq!(f.cluster.node_stats(NodeId(0)).page_loads, 2);
    }
}

#[test]
fn invalidate_flushes_pending_writes_first() {
    let f = fixture(2, ProtocolKind::JavaPf);
    let addr = f.alloc.alloc(8, NodeId(1));
    let mut clock = ThreadClock::new();
    f.dsm.put(NodeId(0), &mut clock, addr, 7);
    f.dsm.invalidate_cache(NodeId(0), &mut clock);
    // The home must have received the value even though the cache copy
    // was dropped.
    let mut h = ThreadClock::new();
    assert_eq!(f.dsm.get(NodeId(1), &mut h, addr), 7);
}

#[test]
fn invalidate_on_clean_cacheless_node_is_cheap() {
    let f = fixture(2, ProtocolKind::JavaPf);
    let _ = f.alloc.alloc(8, NodeId(1));
    let mut clock = ThreadClock::new();
    f.dsm.invalidate_cache(NodeId(0), &mut clock);
    assert_eq!(clock.now(), VTime::ZERO);
    assert_eq!(f.cluster.node_stats(NodeId(0)).mprotect_calls, 0);
}

#[test]
fn explicit_load_into_cache_prefetches() {
    for kind in ProtocolKind::all() {
        let f = fixture(2, kind);
        let addr = f.alloc.alloc(8, NodeId(1));
        let mut clock = ThreadClock::new();
        f.dsm.load_into_cache(NodeId(0), &mut clock, addr.page(), 1);
        assert!(resident(&f.dsm, NodeId(0), addr.page()));
        let loads_before = f.cluster.node_stats(NodeId(0)).page_loads;
        let faults_before = f.cluster.node_stats(NodeId(0)).page_faults;
        let _ = f.dsm.get(NodeId(0), &mut clock, addr);
        let s = f.cluster.node_stats(NodeId(0));
        assert_eq!(
            s.page_loads, loads_before,
            "{kind:?}: access after prefetch reloaded"
        );
        assert_eq!(s.page_faults, faults_before);
        // Loading an already-cached or home page is a no-op.
        f.dsm.load_into_cache(NodeId(0), &mut clock, addr.page(), 1);
        f.dsm.load_into_cache(NodeId(1), &mut clock, addr.page(), 1);
        assert_eq!(f.cluster.node_stats(NodeId(0)).page_loads, loads_before);
        assert_eq!(f.cluster.node_stats(NodeId(1)).page_loads, 0);
    }
}

/// Two threads of one node share its copy: the second finds the page the
/// first loaded.  They take turns, as the DSM's one caller at a time.
#[test]
fn concurrent_threads_on_one_node_fetch_a_page_once() {
    let f = fixture(2, ProtocolKind::JavaIc);
    let addr = f.alloc.alloc(8, NodeId(1));
    let (mut first, mut second) = (ThreadClock::new(), ThreadClock::new());
    assert_eq!(f.dsm.get(NodeId(0), &mut first, addr), 0);
    assert_eq!(f.dsm.get(NodeId(0), &mut second, addr.offset(1)), 0);
    assert_eq!(f.cluster.node_stats(NodeId(0)).page_loads, 1);
}

#[test]
fn locality_classification_tracks_protocol_state() {
    let f = fixture(2, ProtocolKind::JavaPf);
    let addr = f.alloc.alloc(8, NodeId(1));
    let page = addr.page();
    // The home's frame is the page; node 0 starts with no open copy.
    assert!(f.dsm.store().frame(NodeId(1), page).is_home());
    assert!(!resident(&f.dsm, NodeId(0), page));

    let mut clock = ThreadClock::new();
    let _ = f.dsm.get(NodeId(0), &mut clock, addr);
    assert!(cached(&f.dsm, NodeId(0), page));

    f.dsm.invalidate_cache(NodeId(0), &mut clock);
    assert!(!resident(&f.dsm, NodeId(0), page));
    // Under java_pf the access counts no in-line check.
    assert_eq!(f.cluster.total_stats().locality_checks, 0);
}

#[test]
fn bulk_read_checks_once_per_page_under_ic() {
    let f = fixture(2, ProtocolKind::JavaIc);
    let slots = SLOTS_PER_PAGE * 2 + 10; // spans three pages
    let addr = f.alloc.alloc_page_aligned(slots, NodeId(1));
    let mut clock = ThreadClock::new();
    let mut out = vec![0u64; slots];
    f.dsm.read_slice(NodeId(0), &mut clock, addr, &mut out);
    let s = f.cluster.node_stats(NodeId(0));
    assert_eq!(s.locality_checks, 3, "one in-line check per touched page");
    assert_eq!(s.page_loads, 3);
    assert_eq!(s.field_reads, slots as u64);
    assert_eq!(s.bulk_reads, 1);

    // The element-wise loop pays one check per element on a fresh system.
    let g = fixture(2, ProtocolKind::JavaIc);
    let addr2 = g.alloc.alloc_page_aligned(slots, NodeId(1));
    let mut clock2 = ThreadClock::new();
    for i in 0..slots {
        let _ = g.dsm.get(NodeId(0), &mut clock2, addr2.offset(i as u64));
    }
    let t = g.cluster.node_stats(NodeId(0));
    assert_eq!(t.locality_checks, slots as u64);
    assert_eq!(t.page_loads, 3, "page traffic is identical either way");
    assert!(clock.now() < clock2.now(), "bulk must be cheaper under ic");
}

#[test]
fn bulk_write_round_trips_and_flushes_field_granularity_diffs() {
    for kind in ProtocolKind::all() {
        let f = fixture(2, kind);
        let addr = f.alloc.alloc_page_aligned(SLOTS_PER_PAGE + 4, NodeId(1));
        let values: Vec<u64> = (0..SLOTS_PER_PAGE as u64 + 4).map(|v| v * 3 + 1).collect();
        let mut clock = ThreadClock::new();
        f.dsm.write_slice(NodeId(0), &mut clock, addr, &values);
        let mut out = vec![0u64; values.len()];
        f.dsm.read_slice(NodeId(0), &mut clock, addr, &mut out);
        assert_eq!(out, values, "{kind:?}");

        // Flush and verify the home sees every slot.
        f.dsm.update_main_memory(NodeId(0), &mut clock);
        let s = f.cluster.node_stats(NodeId(0));
        assert_eq!(s.diff_slots_flushed, values.len() as u64);
        assert_eq!(s.bulk_writes, 1);
        let mut home_clock = ThreadClock::new();
        let mut home = vec![0u64; values.len()];
        f.dsm
            .read_slice(NodeId(1), &mut home_clock, addr, &mut home);
        assert_eq!(home, values);
    }
}

#[test]
fn bulk_ops_match_elementwise_results_exactly() {
    for kind in ProtocolKind::all() {
        let bulk = fixture(2, kind);
        let elem = fixture(2, kind);
        let n = 100usize;
        let ab = bulk.alloc.alloc(n, NodeId(1));
        let ae = elem.alloc.alloc(n, NodeId(1));
        let values: Vec<u64> = (0..n as u64).map(|v| v.wrapping_mul(0x9E3779B9)).collect();

        let mut cb = ThreadClock::new();
        bulk.dsm.write_slice(NodeId(0), &mut cb, ab, &values);
        let mut out_b = vec![0u64; n];
        bulk.dsm.read_slice(NodeId(0), &mut cb, ab, &mut out_b);

        let mut ce = ThreadClock::new();
        for (i, v) in values.iter().enumerate() {
            elem.dsm.put(NodeId(0), &mut ce, ae.offset(i as u64), *v);
        }
        let out_e: Vec<u64> = (0..n)
            .map(|i| elem.dsm.get(NodeId(0), &mut ce, ae.offset(i as u64)))
            .collect();

        assert_eq!(out_b, out_e, "{kind:?}");
        let sb = bulk.cluster.node_stats(NodeId(0));
        let se = elem.cluster.node_stats(NodeId(0));
        assert_eq!(sb.field_reads, se.field_reads);
        assert_eq!(sb.field_writes, se.field_writes);
        assert_eq!(sb.page_loads, se.page_loads);
        assert!(sb.locality_checks <= se.locality_checks);
    }
}

#[test]
fn field_granularity_flush_does_not_clobber_concurrent_home_writes() {
    // Node 0 writes slot 0, the home writes slot 1; after node 0 flushes,
    // both values must survive at the home (no false sharing).
    let f = fixture(2, ProtocolKind::JavaIc);
    let addr = f.alloc.alloc(8, NodeId(1));
    let mut c0 = ThreadClock::new();
    let mut c1 = ThreadClock::new();
    let _ = f.dsm.get(NodeId(0), &mut c0, addr); // cache the page
    f.dsm.put(NodeId(1), &mut c1, addr.offset(1), 111); // home writes slot 1
    f.dsm.put(NodeId(0), &mut c0, addr.offset(0), 222); // cached write slot 0
    f.dsm.update_main_memory(NodeId(0), &mut c0);
    assert_eq!(f.dsm.get(NodeId(1), &mut c1, addr.offset(0)), 222);
    assert_eq!(f.dsm.get(NodeId(1), &mut c1, addr.offset(1)), 111);
}

// ----- java_ad -----------------------------------------------------------

#[test]
fn adaptive_home_accesses_are_free_like_pf() {
    let f = fixture(1, ProtocolKind::JavaAd);
    let addr = f.alloc.alloc(4, NodeId(0));
    let mut clock = ThreadClock::new();
    for i in 0..100 {
        f.dsm.put(NodeId(0), &mut clock, addr, i);
    }
    assert_eq!(clock.now(), VTime::ZERO);
    let s = f.cluster.node_stats(NodeId(0));
    assert_eq!(s.locality_checks, 0);
    assert_eq!(s.page_faults, 0);
}

#[test]
fn adaptive_dense_page_switches_to_protection_and_back() {
    let f = fixture(2, ProtocolKind::JavaAd);
    let addr = f.alloc.alloc(8, NodeId(1));
    let (hi, lo) = f.dsm.adaptive_thresholds();
    assert!(hi > 1, "break-even must exceed one access");
    assert!(lo < hi);

    // Epoch 1: very dense re-access (checks all the way, ic mechanics).
    // 4·hi accesses push the smoothed average to exactly hi in a single
    // epoch (avg ← closed / 4 from a cold start).
    let mut clock = ThreadClock::new();
    for _ in 0..4 * hi {
        let _ = f.dsm.get(NodeId(0), &mut clock, addr);
    }
    let s = f.cluster.node_stats(NodeId(0));
    assert_eq!(s.locality_checks, 4 * hi);
    assert_eq!(s.page_faults, 0);
    assert_eq!(s.protocol_switches, 0);

    // The invalidation closes the epoch and flips the page: the cached
    // region is re-protected, which costs one mprotect like java_pf.
    f.dsm.invalidate_cache(NodeId(0), &mut clock);
    let s = f.cluster.node_stats(NodeId(0));
    assert_eq!(s.protocol_switches, 1);
    assert_eq!(s.mprotect_calls, 1);

    // Epoch 2: the page is protection-detected — one fault, then free.
    let checks_before = s.locality_checks;
    for _ in 0..hi {
        let _ = f.dsm.get(NodeId(0), &mut clock, addr);
    }
    let s = f.cluster.node_stats(NodeId(0));
    assert_eq!(
        s.locality_checks, checks_before,
        "no checks in protect mode"
    );
    assert_eq!(s.page_faults, 1);

    // Sparse epochs decay the smoothed average below the low-water mark
    // and flip the page back — the hysteresis means it takes a few.
    f.dsm.invalidate_cache(NodeId(0), &mut clock);
    for _ in 0..8 {
        if f.cluster.node_stats(NodeId(0)).protocol_switches == 2 {
            break;
        }
        let _ = f.dsm.get(NodeId(0), &mut clock, addr);
        f.dsm.invalidate_cache(NodeId(0), &mut clock);
    }
    let s = f.cluster.node_stats(NodeId(0));
    assert_eq!(s.protocol_switches, 2, "sparse access must flip it back");
    let faults_before = s.page_faults;
    let checks_before = s.locality_checks;
    let _ = f.dsm.get(NodeId(0), &mut clock, addr);
    let s = f.cluster.node_stats(NodeId(0));
    assert_eq!(s.page_faults, faults_before, "back to ic mechanics");
    assert_eq!(s.locality_checks, checks_before + 1);
}

#[test]
fn adaptive_bulk_read_batches_contiguous_pages_into_one_rpc() {
    let ad = fixture(2, ProtocolKind::JavaAd);
    let ic = fixture(2, ProtocolKind::JavaIc);
    let slots = SLOTS_PER_PAGE * 3; // three whole pages
    let a_ad = ad.alloc.alloc_page_aligned(slots, NodeId(1));
    let a_ic = ic.alloc.alloc_page_aligned(slots, NodeId(1));

    let mut c_ad = ThreadClock::new();
    let mut c_ic = ThreadClock::new();
    let mut out = vec![0u64; slots];
    ad.dsm.read_slice(NodeId(0), &mut c_ad, a_ad, &mut out);
    ic.dsm.read_slice(NodeId(0), &mut c_ic, a_ic, &mut out);

    let s_ad = ad.cluster.node_stats(NodeId(0));
    let s_ic = ic.cluster.node_stats(NodeId(0));
    // Identical page traffic, but one RPC instead of three.
    assert_eq!(s_ad.page_loads, 3);
    assert_eq!(s_ic.page_loads, 3);
    assert_eq!(s_ad.batched_fetches, 1);
    assert_eq!(s_ad.pages_prefetched, 2);
    assert_eq!(s_ad.rpc_requests, 1);
    assert_eq!(s_ic.rpc_requests, 3);
    assert!(
        c_ad.now() < c_ic.now(),
        "batching must beat three round trips: {} vs {}",
        c_ad.now(),
        c_ic.now()
    );
}

#[test]
fn adaptive_history_prefetch_needs_a_stable_streak() {
    let f = fixture(2, ProtocolKind::JavaAd);
    let slots = SLOTS_PER_PAGE * 2;
    let addr = f.alloc.alloc_page_aligned(slots, NodeId(1));
    let second = addr.offset(SLOTS_PER_PAGE as u64);
    let mut clock = ThreadClock::new();

    // Three epochs of scalar access to both pages: no prefetch yet (the
    // streak is built from *completed* epochs), each page loads alone —
    // but for the third epoch's second page.  Its copy, dropped with its
    // last answer a "not modified" (which fits a grant), rides the first
    // page's fetch as a rider and is reopened: no load, no prefetch.
    for loads in [2, 4, 5] {
        let _ = f.dsm.get(NodeId(0), &mut clock, addr);
        let _ = f.dsm.get(NodeId(0), &mut clock, second);
        f.dsm.invalidate_cache(NodeId(0), &mut clock);
        assert_eq!(f.cluster.node_stats(NodeId(0)).page_loads, loads);
    }
    let s = f.cluster.node_stats(NodeId(0));
    assert_eq!((s.batched_fetches, s.pages_prefetched), (0, 0));
    assert_eq!((s.page_faults, s.pages_revalidated), (0, 4));

    // Fourth epoch: both pages now have a streak of 3, so the miss on
    // the first page pulls the second one into the same fetch.
    let _ = f.dsm.get(NodeId(0), &mut clock, addr);
    let s = f.cluster.node_stats(NodeId(0));
    assert_eq!(s.batched_fetches, 1);
    assert_eq!(s.pages_prefetched, 1);
    assert_eq!(s.page_loads, 7);
    // The prefetched neighbour is served without any further load.
    let loads_before = s.page_loads;
    let _ = f.dsm.get(NodeId(0), &mut clock, second);
    assert_eq!(f.cluster.node_stats(NodeId(0)).page_loads, loads_before);
}

/// An explicit prefetch is certain, never speculative: a one-page
/// `load_into_cache` fetches its page alone, although the next page's
/// streak would let a demand miss on the page batch it.
#[test]
fn adaptive_explicit_prefetch_of_one_page_never_speculates() {
    let f = fixture(2, ProtocolKind::JavaAd);
    let addr = f.alloc.alloc_page_aligned(SLOTS_PER_PAGE * 2, NodeId(1));
    let second = addr.offset(SLOTS_PER_PAGE as u64);
    let mut clock = ThreadClock::new();
    // Three epochs of access to the second page: a streak of 3.
    for _ in 0..3 {
        let _ = f.dsm.get(NodeId(0), &mut clock, second);
        f.dsm.invalidate_cache(NodeId(0), &mut clock);
    }
    let before = f.cluster.node_stats(NodeId(0));
    f.dsm.load_into_cache(NodeId(0), &mut clock, addr.page(), 1);
    let s = f.cluster.node_stats(NodeId(0));
    assert_eq!(s.page_loads, before.page_loads + 1, "the page alone");
    assert_eq!(
        (s.batched_fetches, s.pages_prefetch_speculative),
        (before.batched_fetches, before.pages_prefetch_speculative)
    );
    assert!(resident(&f.dsm, NodeId(0), addr.page()));
    assert!(!resident(&f.dsm, NodeId(0), second.page()));
}

#[test]
fn adaptive_batch_never_crosses_a_home_boundary() {
    let f = fixture(3, ProtocolKind::JavaAd);
    // Page on node 1 followed in the address space by a page on node 2.
    let a = f.alloc.alloc_page_aligned(SLOTS_PER_PAGE, NodeId(1));
    let b = f.alloc.alloc_page_aligned(SLOTS_PER_PAGE, NodeId(2));
    assert_eq!(b.page().index(), a.page().index() + 1);

    let mut clock = ThreadClock::new();
    // Build a streak on both pages.
    for _ in 0..3 {
        let _ = f.dsm.get(NodeId(0), &mut clock, a);
        let _ = f.dsm.get(NodeId(0), &mut clock, b);
        f.dsm.invalidate_cache(NodeId(0), &mut clock);
    }
    let _ = f.dsm.get(NodeId(0), &mut clock, a);
    // The neighbour is homed elsewhere: it must not ride along.
    let s = f.cluster.node_stats(NodeId(0));
    assert_eq!(s.batched_fetches, 0);
    assert_eq!(s.pages_prefetched, 0);
}

#[test]
fn adaptive_batch_pays_mprotect_for_protect_mode_members() {
    let f = fixture(2, ProtocolKind::JavaAd);
    let slots = SLOTS_PER_PAGE * 2;
    let addr = f.alloc.alloc_page_aligned(slots, NodeId(1));
    let second = addr.offset(SLOTS_PER_PAGE as u64);
    let (hi, _) = f.dsm.adaptive_thresholds();
    let mut clock = ThreadClock::new();

    // Three epochs: the first page stays sparse (check mode), the second
    // is dense enough to flip to protection while building its streak.
    for _ in 0..3 {
        let _ = f.dsm.get(NodeId(0), &mut clock, addr);
        for _ in 0..4 * hi {
            let _ = f.dsm.get(NodeId(0), &mut clock, second);
        }
        f.dsm.invalidate_cache(NodeId(0), &mut clock);
    }
    let before = f.cluster.node_stats(NodeId(0));
    assert!(before.protocol_switches >= 1);

    // Fourth epoch: the check-mode miss on the first page prefetches the
    // protection-detected neighbour — opening it costs one mprotect even
    // though the demanded page itself needs none.
    let _ = f.dsm.get(NodeId(0), &mut clock, addr);
    let s = f.cluster.node_stats(NodeId(0));
    assert_eq!(s.batched_fetches, before.batched_fetches + 1);
    assert_eq!(
        s.pages_prefetch_speculative,
        before.pages_prefetch_speculative + 1
    );
    assert_eq!(s.mprotect_calls, before.mprotect_calls + 1);
    // The opened member is then accessed for free, like any pf-resident
    // page.
    let t = clock.now();
    let _ = f.dsm.get(NodeId(0), &mut clock, second);
    assert_eq!(clock.now(), t);
    assert_eq!(f.cluster.node_stats(NodeId(0)).page_loads, s.page_loads);
}

#[test]
fn adaptive_custom_params_shift_the_thresholds() {
    let n_star = myrinet_200().machine.adaptive_break_even();
    let marks = |hi_multiple| {
        let tuned = AdaptiveParams { hi_multiple };
        let f = fixture_with(2, ProtocolKind::JavaAd, &tuned, &TransportConfig::default());
        f.dsm.adaptive_thresholds()
    };
    // The low mark is half the high one.
    assert_eq!(marks(4.0), (4 * n_star, 2 * n_star));
    assert_eq!(
        marks(0.5),
        ((n_star as f64 * 0.5).ceil() as u64, n_star / 4)
    );
    // Default parameters sit at the break-even itself.
    assert_eq!(AdaptiveParams::default().hi_multiple, 1.0);
    assert_eq!(marks(1.0), (n_star, n_star / 2));
}

// ----- split-transaction transport --------------------------------------

#[test]
fn overlapped_prefetch_hides_latency_behind_compute() {
    // Prefetch, compute for a window shorter than the round trip, then use
    // the value: the use pays only the residual (round trip − window), so it
    // completes at exactly the instant it does with no window at all, and
    // exactly the window is booked as hidden.
    let compute = VTime::from_us(20);
    let ps_per_cycle = myrinet_200().machine.cpu.ps_per_cycle();
    for kind in ProtocolKind::all_extended() {
        let run = |window: VTime| {
            let f = fixture(2, kind);
            let a = f.alloc.alloc(8, NodeId(1));
            f.dsm.put(NodeId(1), &mut ThreadClock::new(), a, 11);
            let mut clock = ThreadClock::new();
            f.dsm.load_into_cache(NodeId(0), &mut clock, a.page(), 1);
            clock.advance(window);
            assert_eq!(f.dsm.get(NodeId(0), &mut clock, a), 11, "{kind:?}");
            (clock.now(), f.cluster.node_stats(NodeId(0)))
        };
        let (stalled, s0) = run(VTime::ZERO);
        let (overlapped, s) = run(compute);
        assert!(stalled > compute, "{kind:?}: the window must be shorter");
        assert_eq!(
            overlapped, stalled,
            "{kind:?}: the compute window must hide inside the round trip"
        );
        assert_eq!(s0.fetch_overlap_cycles_hidden, 0, "{kind:?}");
        assert_eq!(
            s.fetch_overlap_cycles_hidden,
            (compute.as_ps() as f64 / ps_per_cycle) as u64,
            "{kind:?}"
        );
        // Identical protocol traffic either way.
        assert_eq!((s.page_loads, s0.page_loads), (1, 1), "{kind:?}");
    }
}

#[test]
fn overlapped_ticket_completes_exactly_once_and_clears_on_invalidate() {
    let f = fixture(2, ProtocolKind::JavaPf);
    let addr = f.alloc.alloc(8, NodeId(1));
    let mut clock = ThreadClock::new();

    // Prefetch and never use: the invalidation abandons the ticket and
    // no hidden cycles are recorded.
    f.dsm.load_into_cache(NodeId(0), &mut clock, addr.page(), 1);
    let frame = f.dsm.store().frame(NodeId(0), addr.page());
    assert!(frame.has_inflight());
    f.dsm.invalidate_cache(NodeId(0), &mut clock);
    assert!(!frame.has_inflight());
    assert_eq!(
        f.cluster.node_stats(NodeId(0)).fetch_overlap_cycles_hidden,
        0
    );

    // Prefetch and use twice: the ticket is consumed exactly once (the
    // second access is an ordinary cached hit).
    f.dsm.load_into_cache(NodeId(0), &mut clock, addr.page(), 1);
    clock.advance(VTime::from_us(5));
    let _ = f.dsm.get(NodeId(0), &mut clock, addr);
    let hidden = f.cluster.node_stats(NodeId(0)).fetch_overlap_cycles_hidden;
    assert!(hidden > 0);
    let _ = f.dsm.get(NodeId(0), &mut clock, addr);
    assert_eq!(
        f.cluster.node_stats(NodeId(0)).fetch_overlap_cycles_hidden,
        hidden
    );
}

#[test]
fn batched_flush_coalesces_contiguous_same_home_dirty_pages() {
    let values: Vec<u64> = (0..SLOTS_PER_PAGE as u64 * 3).map(|v| v * 7 + 1).collect();

    // Three pages of one home written in full, contiguous (`gap` 1) or with
    // a clean page between each two (`gap` 2); returns the flush's cost.
    let run = |gap: usize| -> (VTime, u64, u64, u64, u64) {
        let f = fixture(2, ProtocolKind::JavaIc);
        let addr = f.alloc.alloc_page_aligned(SLOTS_PER_PAGE * 5, NodeId(1));
        let mut clock = ThreadClock::new();
        let pages: Vec<_> = values.chunks(SLOTS_PER_PAGE).enumerate().collect();
        for &(k, page) in &pages {
            f.dsm
                .write_slice(NodeId(0), &mut clock, page_of(addr, k * gap), page);
        }
        let start = clock.now();
        f.dsm.update_main_memory(NodeId(0), &mut clock);
        let flush = clock.now() - start;
        // The home sees every slot either way.
        for &(k, page) in &pages {
            let mut out = vec![0u64; SLOTS_PER_PAGE];
            let at = page_of(addr, k * gap);
            f.dsm
                .read_slice(NodeId(1), &mut ThreadClock::new(), at, &mut out);
            assert_eq!(out, page);
        }
        let s = f.cluster.node_stats(NodeId(0));
        (
            flush,
            s.diff_messages,
            s.batched_flushes,
            s.diff_slots_flushed,
            s.diff_bytes,
        )
    };

    let (t_b, msgs_b, batches_b, slots_b, bytes_b) = run(1);
    let (t_u, msgs_u, batches_u, slots_u, bytes_u) = run(2);
    assert_eq!(msgs_b, 1, "three contiguous pages share one diff RPC");
    assert_eq!(batches_b, 1);
    assert_eq!(msgs_u, 3);
    assert_eq!(batches_u, 0);
    assert_eq!(slots_b, slots_u);
    assert!(bytes_b > 0 && bytes_u > 0);
    assert!(
        t_b < t_u,
        "one RPC must beat three round trips: {t_b} vs {t_u}"
    );
}

#[test]
fn flush_batches_never_cross_home_boundaries() {
    let f = fixture(3, ProtocolKind::JavaIc);
    let a = f.alloc.alloc_page_aligned(SLOTS_PER_PAGE, NodeId(1));
    let b = f.alloc.alloc_page_aligned(SLOTS_PER_PAGE, NodeId(2));
    assert_eq!(b.page().index(), a.page().index() + 1);
    let mut clock = ThreadClock::new();
    f.dsm.put(NodeId(0), &mut clock, a, 1);
    f.dsm.put(NodeId(0), &mut clock, b, 2);
    f.dsm.update_main_memory(NodeId(0), &mut clock);
    let s = f.cluster.node_stats(NodeId(0));
    assert_eq!(s.diff_messages, 2, "different homes, different RPCs");
    assert_eq!(s.batched_flushes, 0);
}

// ----- stride prefetch -----------------------------------------------------

/// The address of page `k` of the run starting at `first`.
fn page_of(first: GlobalAddr, k: usize) -> GlobalAddr {
    first.offset((SLOTS_PER_PAGE * k) as u64)
}

/// Let `node` earn a healthy accuracy record the way a program would: it
/// scans a fresh region homed on `home` front to back, so every fetch the
/// stride prefetch puts in flight is completed by a real use.
fn earn_stride_credit(f: &Fixture, node: NodeId, home: NodeId, clock: &mut ThreadClock) {
    let pages = 48;
    let region = f.alloc.alloc_page_aligned(SLOTS_PER_PAGE * pages, home);
    for k in 0..pages {
        let _ = f.dsm.get(node, clock, page_of(region, k));
    }
    let s = f.cluster.node_stats(node);
    assert!(s.stride_fetches_issued >= 36 && s.stride_fetches_wasted == 0);
    assert_eq!(s.stride_fetches_completed, s.stride_fetches_issued);
}

#[test]
fn litmus_a_scan_has_tickets_in_flight_from_its_second_miss() {
    for kind in ProtocolKind::all_extended() {
        let f = fixture(2, kind);
        let pages = 8;
        let addr = f
            .alloc
            .alloc_page_aligned(SLOTS_PER_PAGE * pages, NodeId(1));
        let mut h = ThreadClock::new();
        for k in 0..pages {
            f.dsm
                .put(NodeId(1), &mut h, page_of(addr, k), 100 + k as u64);
        }
        let issued = || f.cluster.node_stats(NodeId(0)).stride_fetches_issued;
        let frame = |k| f.dsm.store().frame(NodeId(0), page_of(addr, k).page());

        // The first miss starts nowhere in particular; the second starts
        // where the first ended, and a newcomer takes two tickets.
        let mut clock = ThreadClock::new();
        assert_eq!(f.dsm.get(NodeId(0), &mut clock, addr), 100, "{kind:?}");
        assert_eq!(issued(), 0, "{kind:?}");
        assert_eq!(f.dsm.get(NodeId(0), &mut clock, page_of(addr, 1)), 101);
        assert_eq!(issued(), 2, "{kind:?}");
        assert!(frame(2).inflight_is_stride() && frame(3).inflight_is_stride());
        assert!(!frame(4).is_present(), "{kind:?}");

        // Their first uses complete them without a load, and the prefetched
        // pages moved the scan's end along: the miss on page 4 continues
        // the run past the first window.
        let loads = f.cluster.node_stats(NodeId(0)).page_loads;
        assert_eq!(f.dsm.get(NodeId(0), &mut clock, page_of(addr, 2)), 102);
        assert_eq!(f.dsm.get(NodeId(0), &mut clock, page_of(addr, 3)), 103);
        assert_eq!(f.cluster.node_stats(NodeId(0)).page_loads, loads);
        assert_eq!(f.dsm.get(NodeId(0), &mut clock, page_of(addr, 4)), 104);
        assert_eq!(issued(), 4, "{kind:?}");
        for k in 5..pages {
            assert_eq!(
                f.dsm.get(NodeId(0), &mut clock, page_of(addr, k)),
                100 + k as u64
            );
        }
        f.dsm.invalidate_cache(NodeId(0), &mut clock);
        let s = f.cluster.node_stats(NodeId(0));
        assert_eq!(s.page_loads, pages as u64, "{kind:?}: every page once");
        assert!(s.stride_fetches_completed > 0, "{kind:?}");
        assert_eq!(s.stride_fetches_completed, s.stride_fetches_issued);
        assert_eq!(s.stride_fetches_wasted, 0, "{kind:?}");
    }
}

#[test]
fn stride_run_extends_fetches_across_the_window() {
    let f = fixture(2, ProtocolKind::JavaIc);
    let addr = f.alloc.alloc_page_aligned(SLOTS_PER_PAGE * 4, NodeId(1));

    let mut clock = ThreadClock::new();
    let _ = f.dsm.get(NodeId(0), &mut clock, addr);
    // The second fetch extends a stride run: node 0 puts both remaining
    // pages of the span in flight.
    let _ = f.dsm.get(NodeId(0), &mut clock, page_of(addr, 1));
    let s = f.cluster.node_stats(NodeId(0));
    assert_eq!(s.stride_fetches_issued, 2);
    assert_eq!(s.page_loads, 4);
    // Scanning on completes the tickets without further loads.
    let _ = f.dsm.get(NodeId(0), &mut clock, page_of(addr, 2));
    let _ = f.dsm.get(NodeId(0), &mut clock, page_of(addr, 3));
    let s = f.cluster.node_stats(NodeId(0));
    assert_eq!(s.page_loads, 4);
    assert_eq!(s.stride_fetches_completed, 2);
}

#[test]
fn litmus_a_walk_that_never_steps_to_the_next_page_issues_nothing() {
    let f = fixture(3, ProtocolKind::JavaPf);
    let pages = 12;
    let walked = f
        .alloc
        .alloc_page_aligned(SLOTS_PER_PAGE * pages, NodeId(1));
    let other = f.alloc.alloc_page_aligned(SLOTS_PER_PAGE, NodeId(2));
    let pair = f
        .alloc
        .alloc_page_aligned(SLOTS_PER_PAGE * pages, NodeId(1));
    let mut clock = ThreadClock::new();
    // Every other page up, then the odd ones from 9 back down.
    for k in (0..pages).step_by(2).chain((0..pages - 2).rev().step_by(2)) {
        let _ = f.dsm.get(NodeId(0), &mut clock, page_of(walked, k));
    }
    // Two neighbours with another page of their home fetched in between.
    for k in [7, 2, 5, 3] {
        let _ = f.dsm.get(NodeId(0), &mut clock, page_of(pair, k));
    }
    let s = f.cluster.node_stats(NodeId(0));
    assert_eq!((s.stride_fetches_issued, s.page_loads), (0, 15));
    // With only another home's page in between they are consecutive
    // fetches from *their* home, and that is a stride.
    let _ = f.dsm.get(NodeId(0), &mut clock, page_of(pair, 8));
    let _ = f.dsm.get(NodeId(0), &mut clock, other);
    let _ = f.dsm.get(NodeId(0), &mut clock, page_of(pair, 9));
    assert_eq!(f.cluster.node_stats(NodeId(0)).stride_fetches_issued, 2);
}

#[test]
fn litmus_a_stride_run_stops_at_a_home_boundary_and_at_the_last_page() {
    let f = fixture(3, ProtocolKind::JavaIc);
    let a = f.alloc.alloc_page_aligned(SLOTS_PER_PAGE * 3, NodeId(1));
    let behind = f.alloc.alloc_page_aligned(SLOTS_PER_PAGE * 3, NodeId(2));
    let mut clock = ThreadClock::new();
    // Proven, node 0 would take a whole window of four.
    earn_stride_credit(&f, NodeId(0), NodeId(1), &mut clock);
    let issued = || f.cluster.node_stats(NodeId(0)).stride_fetches_issued;

    // Three pages of home 1 with home 2's right behind them: the run is the
    // third page and stops.
    let before = issued();
    let _ = f.dsm.get(NodeId(0), &mut clock, a);
    let _ = f.dsm.get(NodeId(0), &mut clock, page_of(a, 1));
    assert_eq!(issued(), before + 1);
    assert!(!resident(&f.dsm, NodeId(0), behind.page()));

    // The same at the end of the address space: one page is left to run to.
    let last = f.alloc.alloc_page_aligned(SLOTS_PER_PAGE * 3, NodeId(2));
    let before = issued();
    let _ = f.dsm.get(NodeId(0), &mut clock, last);
    let _ = f.dsm.get(NodeId(0), &mut clock, page_of(last, 1));
    assert_eq!(issued(), before + 1);

    // With room, the window is four.
    let roomy = f.alloc.alloc_page_aligned(SLOTS_PER_PAGE * 8, NodeId(1));
    let before = issued();
    let _ = f.dsm.get(NodeId(0), &mut clock, roomy);
    let _ = f.dsm.get(NodeId(0), &mut clock, page_of(roomy, 1));
    assert_eq!(issued(), before + 4);
}

#[test]
fn unused_stride_fetches_are_counted_as_waste_at_invalidation() {
    let f = fixture(3, ProtocolKind::JavaPf);
    let addr = f.alloc.alloc_page_aligned(SLOTS_PER_PAGE * 4, NodeId(2));

    let mut c1 = ThreadClock::new();
    let _ = f.dsm.get(NodeId(1), &mut c1, addr);
    let _ = f.dsm.get(NodeId(1), &mut c1, page_of(addr, 1));
    assert_eq!(f.cluster.node_stats(NodeId(1)).stride_fetches_issued, 2);
    let _ = f.dsm.get(NodeId(1), &mut c1, page_of(addr, 2));

    // Node 1 never touches the fourth page: the acquire-side invalidation
    // books the pending ticket as waste.
    f.dsm.invalidate_cache(NodeId(1), &mut c1);
    let s1 = f.cluster.node_stats(NodeId(1));
    assert_eq!(s1.stride_fetches_wasted, 1);
    assert_eq!(s1.stride_fetches_completed, 1);
}

#[test]
fn litmus_a_ticket_abandoned_at_an_acquire_is_wasted_and_not_reissued() {
    for kind in ProtocolKind::all_extended() {
        let f = fixture(3, kind);
        let mut c1 = ThreadClock::new();
        // A healthy record: one waste does not shut the gate, so nothing
        // but the rule itself keeps the ticket from being re-armed.
        earn_stride_credit(&f, NodeId(1), NodeId(0), &mut c1);
        let addr = f.alloc.alloc_page_aligned(SLOTS_PER_PAGE * 3, NodeId(2));
        let third = page_of(addr, 2);
        let mut h = ThreadClock::new();
        f.dsm.put(NodeId(2), &mut h, third, 77);

        let _ = f.dsm.get(NodeId(1), &mut c1, addr);
        let _ = f.dsm.get(NodeId(1), &mut c1, page_of(addr, 1));
        let frame = f.dsm.store().frame(NodeId(1), third.page());
        assert!(frame.inflight_is_stride(), "{kind:?}");
        let before = f.cluster.node_stats(NodeId(1));

        // The acquire comes before the predicted miss, and the home writes.
        f.dsm.put(NodeId(2), &mut h, third, 78);
        acquire(&f, 1, &mut c1);
        let s1 = f.cluster.node_stats(NodeId(1));
        assert_eq!(s1.stride_fetches_wasted, before.stride_fetches_wasted + 1);
        assert_eq!(s1.stride_fetches_issued, before.stride_fetches_issued);
        assert_eq!(s1.page_loads, before.page_loads, "{kind:?}: no re-issue");
        assert!(!frame.has_inflight() && !frame.is_present(), "{kind:?}");

        // The miss that does come pays its own round trip and sees the home.
        assert_eq!(f.dsm.get(NodeId(1), &mut c1, third), 78, "{kind:?}");
        let s1 = f.cluster.node_stats(NodeId(1));
        assert_eq!(s1.page_loads, before.page_loads + 1, "{kind:?}");
        assert_eq!(s1.stride_fetches_completed, before.stride_fetches_completed);
    }
}

#[test]
fn stride_prefetch_is_throttled_by_measured_waste() {
    let f = fixture(3, ProtocolKind::JavaPf);
    let addr = f.alloc.alloc_page_aligned(SLOTS_PER_PAGE * 4, NodeId(2));
    let mut c1 = ThreadClock::new();

    // Round after round, node 1 starts the scan, abandons it, and
    // invalidates.  The measured-waste throttle must stop the node from
    // prefetching long before the rounds run out.
    for _ in 0..12 {
        let _ = f.dsm.get(NodeId(1), &mut c1, addr);
        let _ = f.dsm.get(NodeId(1), &mut c1, page_of(addr, 1));
        f.dsm.invalidate_cache(NodeId(1), &mut c1);
    }
    let s1 = f.cluster.node_stats(NodeId(1));
    assert!(
        s1.stride_fetches_issued <= 2,
        "throttle must stop the prefetch: issued {}",
        s1.stride_fetches_issued
    );
    assert_eq!(s1.stride_fetches_wasted, s1.stride_fetches_issued);
}

#[test]
fn stride_fetches_never_change_observed_values() {
    // A scan the stride prefetch runs ahead of reads exactly what the home
    // wrote.
    let f = fixture(2, ProtocolKind::JavaIc);
    let slots = SLOTS_PER_PAGE * 4;
    let addr = f.alloc.alloc_page_aligned(slots, NodeId(1));
    let mut home = ThreadClock::new();
    for k in 0..slots as u64 {
        f.dsm.put(NodeId(1), &mut home, addr.offset(k), k * 3 + 1);
    }
    let mut clock = ThreadClock::new();
    let seen: Vec<u64> = (0..slots as u64)
        .map(|k| f.dsm.get(NodeId(0), &mut clock, addr.offset(k)))
        .collect();
    let written: Vec<u64> = (0..slots as u64).map(|k| k * 3 + 1).collect();
    assert_eq!(seen, written);
    let s = f.cluster.node_stats(NodeId(0));
    assert_eq!(
        (s.stride_fetches_issued, s.stride_fetches_completed),
        (2, 2)
    );
}

// ----- deferred release flushing -----------------------------------------

/// A release of a monitor homed on node 0 by node 0, with a dirty copy of a
/// page homed on node 1: the diff does not ride the release, it is deferred
/// to the monitor's next acquire, which merges the instant returned.
fn release_deferring(f: &Fixture, clock: &mut ThreadClock) -> VTime {
    let mut cursor = 0;
    (f.dsm
        .release(NodeId(0), clock, &mut cursor, Some(NodeId(0))))
    .0
}

#[test]
fn deferred_flush_returns_a_watermark_and_applies_the_diffs() {
    let f = fixture(2, ProtocolKind::JavaIc);
    let addr = f.alloc.alloc(8, NodeId(1));
    let mut w = ThreadClock::new();
    f.dsm.put(NodeId(0), &mut w, addr, 41);

    let deferred = release_deferring(&f, &mut w);
    // Only the issue path was charged; the completion lies ahead.
    assert!(w.now() < deferred, "{} vs {deferred}", w.now());
    let s0 = f.cluster.node_stats(NodeId(0));
    assert_eq!(s0.deferred_flushes, 1);
    assert_eq!(s0.diff_messages, 1);
    // The home already holds the value (the wire carried it; only the
    // latency accounting is deferred).
    let mut h = ThreadClock::new();
    assert_eq!(f.dsm.get(NodeId(1), &mut h, addr), 41);
    // Nothing dirty: a second release defers nothing.
    assert_eq!(release_deferring(&f, &mut w), VTime::ZERO);
}

#[test]
fn deferred_flush_issue_path_is_cheaper_than_blocking() {
    let run = |defer: bool| -> VTime {
        let f = fixture(2, ProtocolKind::JavaIc);
        let addr = f.alloc.alloc(8, NodeId(1));
        let mut w = ThreadClock::new();
        f.dsm.put(NodeId(0), &mut w, addr, 1);
        if defer {
            release_deferring(&f, &mut w);
        } else {
            f.dsm.update_main_memory(NodeId(0), &mut w);
        }
        w.now()
    };
    let t_blocking = run(false);
    let t_deferred = run(true);
    assert!(
        t_deferred < t_blocking,
        "deferred release must not stall: {t_deferred} vs {t_blocking}"
    );
}

// ----- page versions & conditional fetch: litmus tests ----------------------
//
// Each runs under java_ic, java_pf and java_ad.  `acquire` / `release` are
// the DSM halves of a monitor entry / exit.  In debug builds every "not
// modified" answer below is additionally checked slot-for-slot against the
// home frame by the engine's own oracle.

fn acquire(f: &Fixture, node: u32, clock: &mut ThreadClock) {
    f.dsm.invalidate_cache(NodeId(node), clock);
}

fn release(f: &Fixture, node: u32, clock: &mut ThreadClock) {
    f.dsm.update_main_memory(NodeId(node), clock);
}

/// `(page_loads, pages_revalidated, bytes_received)` of `node`.
fn fetch_counters(f: &Fixture, node: u32) -> (u64, u64, u64) {
    let s = f.cluster.node_stats(NodeId(node));
    (s.page_loads, s.pages_revalidated, s.bytes_received)
}

#[test]
fn litmus_remote_write_under_a_monitor_ships_the_page_to_the_next_acquirer() {
    for kind in ProtocolKind::all_extended() {
        let f = fixture(3, kind);
        let addr = f.alloc.alloc(8, NodeId(0));
        let (mut w, mut r) = (ThreadClock::new(), ThreadClock::new());
        assert_eq!(f.dsm.get(NodeId(2), &mut r, addr), 0);

        // Writer (node 1): acquire M, write, release M.
        acquire(&f, 1, &mut w);
        f.dsm.put(NodeId(1), &mut w, addr, 41);
        release(&f, 1, &mut w);

        // Reader (node 2) acquires M afterwards: its retained copy predates
        // the diff, so the home ships what the diff changed — of the page,
        // the one slot — and the new value is seen.
        let before = fetch_counters(&f, 2);
        let patched = f.cluster.node_stats(NodeId(2)).pages_patched;
        acquire(&f, 2, &mut r);
        assert_eq!(f.dsm.get(NodeId(2), &mut r, addr), 41, "{kind:?}");
        let after = fetch_counters(&f, 2);
        assert_eq!(after.0, before.0 + 1, "{kind:?}: one fetch");
        assert_eq!(after.1, before.1, "{kind:?}: not a revalidation");
        assert!(after.2 - before.2 < 128, "{kind:?}: a slot, not the page");
        let now = f.cluster.node_stats(NodeId(2)).pages_patched;
        assert_eq!(now, patched + 1, "{kind:?}");
    }
}

#[test]
fn litmus_home_write_without_a_diff_reaches_the_holders_next_acquire() {
    for kind in ProtocolKind::all_extended() {
        let f = fixture(2, kind);
        let addr = f.alloc.alloc(8, NodeId(0));
        let (mut h, mut r) = (ThreadClock::new(), ThreadClock::new());
        f.dsm.put(NodeId(0), &mut h, addr, 1);
        assert_eq!(f.dsm.get(NodeId(1), &mut r, addr), 1);

        // The home writes in place — no diff, no RPC, nothing but the flag
        // the next fetch folds into the stamp.
        f.dsm.put(NodeId(0), &mut h, addr, 2);
        acquire(&f, 1, &mut r);
        assert_eq!(f.dsm.get(NodeId(1), &mut r, addr), 2, "{kind:?}");
        assert_eq!(fetch_counters(&f, 1).1, 0, "{kind:?}: page was shipped");

        // Nothing changed since: the next acquire revalidates.
        acquire(&f, 1, &mut r);
        assert_eq!(f.dsm.get(NodeId(1), &mut r, addr), 2, "{kind:?}");
        assert_eq!(fetch_counters(&f, 1).1, 1, "{kind:?}");
    }
}

#[test]
fn litmus_unchanged_page_is_revalidated_without_moving_page_bytes() {
    for kind in ProtocolKind::all_extended() {
        let f = fixture(2, kind);
        let addr = f.alloc.alloc(8, NodeId(0));
        let mut h = ThreadClock::new();
        for slot in 0..8 {
            f.dsm.put(NodeId(0), &mut h, addr.offset(slot), 100 + slot);
        }
        let mut r = ThreadClock::new();
        assert_eq!(f.dsm.get(NodeId(1), &mut r, addr), 100);
        let miss_cost = r.now();

        let before = fetch_counters(&f, 1);
        let home_before = f.cluster.node_stats(NodeId(0)).bytes_sent;
        acquire(&f, 1, &mut r);
        let start = r.now();
        for slot in 0..8 {
            let v = f.dsm.get(NodeId(1), &mut r, addr.offset(slot));
            assert_eq!(v, 100 + slot, "{kind:?}: retained data intact");
        }
        let after = fetch_counters(&f, 1);
        assert_eq!(after.0, before.0 + 1, "{kind:?}: still one fetch RPC");
        assert_eq!(after.1, before.1 + 1, "{kind:?}: exactly one revalidation");
        // Header + tag + version: no page bytes in either direction.
        assert!(
            after.2 - before.2 < 128,
            "{kind:?}: {} B",
            after.2 - before.2
        );
        assert!(f.cluster.node_stats(NodeId(0)).bytes_sent - home_before < 128);
        // Cheaper than the first miss by the page transfer and the copy,
        // but still a round trip (and, under pf, a fault and an mprotect).
        let revalidation_cost = r.now() - start;
        assert!(revalidation_cost < miss_cost, "{kind:?}");
        assert!(
            revalidation_cost > VTime::from_us(20),
            "{kind:?}: no free lunch"
        );
    }
}

#[test]
fn litmus_sole_writer_keeps_its_copy_until_someone_else_writes() {
    for kind in ProtocolKind::all_extended() {
        let f = fixture(3, kind);
        let addr = f.alloc.alloc(8, NodeId(0));
        let (mut h, mut w, mut o) = (ThreadClock::new(), ThreadClock::new(), ThreadClock::new());

        // Sole writer: the diff acknowledgement forwards the new stamp, so
        // the copy that already holds the written value stays current.
        f.dsm.put(NodeId(1), &mut w, addr, 1);
        release(&f, 1, &mut w);
        acquire(&f, 1, &mut w);
        assert_eq!(f.dsm.get(NodeId(1), &mut w, addr), 1, "{kind:?}");
        assert_eq!(
            fetch_counters(&f, 1).1,
            1,
            "{kind:?}: kept across own release"
        );

        // A foreign diff lands between the writer's fetch and its release:
        // the acknowledged stamp is two steps on, the copy is not forwarded.
        f.dsm.put(NodeId(1), &mut w, addr, 2);
        f.dsm.put(NodeId(2), &mut o, addr.offset(1), 77);
        release(&f, 2, &mut o);
        release(&f, 1, &mut w);
        acquire(&f, 1, &mut w);
        assert_eq!(f.dsm.get(NodeId(1), &mut w, addr.offset(1)), 77, "{kind:?}");
        assert_eq!(f.dsm.get(NodeId(1), &mut w, addr), 2, "{kind:?}");
        assert_eq!(
            fetch_counters(&f, 1).1,
            1,
            "{kind:?}: foreign diff forces a refetch"
        );

        // Same with a home write in between.
        f.dsm.put(NodeId(1), &mut w, addr, 3);
        f.dsm.put(NodeId(0), &mut h, addr.offset(2), 88);
        release(&f, 1, &mut w);
        acquire(&f, 1, &mut w);
        assert_eq!(f.dsm.get(NodeId(1), &mut w, addr.offset(2)), 88, "{kind:?}");
        assert_eq!(
            fetch_counters(&f, 1).1,
            1,
            "{kind:?}: home write forces a refetch"
        );

        // And with nobody interfering the writer is current again.
        f.dsm.put(NodeId(1), &mut w, addr, 4);
        release(&f, 1, &mut w);
        acquire(&f, 1, &mut w);
        assert_eq!(f.dsm.get(NodeId(1), &mut w, addr), 4, "{kind:?}");
        assert_eq!(fetch_counters(&f, 1).1, 2, "{kind:?}");
    }
}

#[test]
fn litmus_no_retained_copy_validates_against_a_re_elected_home() {
    use hyperion_pm2::{FaultKill, FaultSpec, TransportBackend};
    for kind in ProtocolKind::all_extended() {
        let spec = FaultSpec {
            seed: 3,
            kill: Some(FaultKill {
                node: 0,
                at: VTime::from_us(2_000),
            }),
            ..FaultSpec::default()
        };
        let cluster = Cluster::for_backend_with_faults(
            myrinet_200().machine,
            3,
            TransportBackend::Sim,
            Some(spec),
        );
        let alloc = Arc::new(IsoAllocator::new(3));
        let store = DsmStore::new(Arc::clone(&alloc), 3);
        let dsm = DsmSystem::with_config(
            Arc::clone(&cluster),
            store,
            kind,
            &AdaptiveParams::default(),
        );
        let addr = alloc.alloc(8, NodeId(0));
        let (mut h, mut r) = (ThreadClock::new(), ThreadClock::new());
        dsm.put(NodeId(0), &mut h, addr, 5);
        // Node 2 fetches and revalidates once while the home is alive.
        assert_eq!(dsm.get(NodeId(2), &mut r, addr), 5);
        dsm.invalidate_cache(NodeId(2), &mut r);
        assert_eq!(dsm.get(NodeId(2), &mut r, addr), 5);
        assert_eq!(cluster.node_stats(NodeId(2)).pages_revalidated, 1);
        assert!(r.now() < VTime::from_us(2_000), "workload outran the kill");

        // After the kill the page is re-homed on the lowest live node; the
        // copy node 2 retains from the dead home must not validate there.
        r.advance(VTime::from_us(3_000));
        dsm.invalidate_cache(NodeId(2), &mut r);
        assert_eq!(dsm.get(NodeId(2), &mut r, addr), 5, "{kind:?}");
        assert_eq!(dsm.store().home_of(addr.page()), NodeId(1), "{kind:?}");
        let s = cluster.node_stats(NodeId(2));
        assert_eq!((s.nodes_failed, s.pages_revalidated), (1, 1), "{kind:?}");
        // Re-fetched from the new home, it revalidates again.
        dsm.invalidate_cache(NodeId(2), &mut r);
        assert_eq!(dsm.get(NodeId(2), &mut r, addr), 5, "{kind:?}");
        assert_eq!(cluster.node_stats(NodeId(2)).pages_revalidated, 2);

        // The dead node stopped serving, but its own thread keeps
        // computing.  Its demoted frame is an ordinary cached copy now:
        // dropped at the next acquire, and the stamp it keeps from its own
        // tenure as home does not validate against the new home either —
        // the page is shipped.
        dsm.invalidate_cache(NodeId(0), &mut h);
        assert_eq!(dsm.get(NodeId(0), &mut h, addr), 5, "{kind:?}");
        let s = cluster.node_stats(NodeId(0));
        assert_eq!((s.page_loads, s.pages_revalidated), (1, 0), "{kind:?}");
    }
}

/// A page allocated on the failed node after its recovery is homed by the
/// survivor the recovery elected, like the pages it re-homed: the home rule
/// covers every page whose static home failed, so no access goes to the
/// dead node.
#[test]
fn a_page_allocated_on_the_failed_node_after_recovery_is_served_by_the_survivor() {
    let spec = FaultSpec {
        kill: Some(FaultKill {
            node: 1,
            at: VTime::from_us(1_000),
        }),
        ..FaultSpec::default()
    };
    let transport = TransportConfig {
        fault: Some(spec),
        ..TransportConfig::default()
    };
    let f = fixture_with(
        3,
        ProtocolKind::JavaPf,
        &AdaptiveParams::default(),
        &transport,
    );
    let (n0, n1) = (NodeId(0), NodeId(1));
    let before = f.alloc.alloc_page_aligned(SLOTS_PER_PAGE, n1);
    let (mut r, mut w) = (ThreadClock::new(), ThreadClock::new());
    // Node 0's read at 2 ms finds node 1 down and runs the recovery.
    r.advance(VTime::from_us(2_000));
    assert_eq!(f.dsm.get(n0, &mut r, before), 0);
    assert_eq!(f.cluster.node_stats(n0).nodes_failed, 1);

    // The dead node's threads keep computing: their write flushes to the
    // page's home, which must be live.
    let after = f.alloc.alloc_page_aligned(SLOTS_PER_PAGE, n1);
    w.advance(VTime::from_us(2_000));
    f.dsm.put(n1, &mut w, after, 7);
    f.dsm.update_main_memory(n1, &mut w);
    f.dsm.invalidate_cache(n0, &mut r);
    assert_eq!(f.dsm.get(n0, &mut r, after), 7);
    assert_eq!(f.dsm.store().home_of(after.page()), n0);
}

// ----- write notices ---------------------------------------------------------

/// Litmus: a copy the home confirmed ("not modified") and nobody has used
/// since is outdated by the next acquire that learns a write to it — by the
/// notice the writer's release left, not by a blanket drop.
#[test]
fn litmus_an_acquire_outdates_a_confirmation_nobody_used() {
    for kind in ProtocolKind::all_extended() {
        let f = fixture(3, kind);
        let b = f.alloc.alloc_page_aligned(SLOTS_PER_PAGE, NodeId(0));
        let (mut h, mut r, mut w) = (ThreadClock::new(), ThreadClock::new(), ThreadClock::new());
        f.dsm.put(NodeId(0), &mut h, b, 20);
        assert_eq!(f.dsm.get(NodeId(1), &mut r, b), 20);
        acquire(&f, 1, &mut r);
        assert_eq!(f.dsm.get(NodeId(1), &mut r, b.offset(1)), 0, "{kind:?}");
        assert_eq!(fetch_counters(&f, 1).1, 1, "{kind:?}: confirmed");

        // Node 2 writes `b` and releases; node 1 acquires what that release
        // named.
        let mut cursor = f.dsm.write_log_end(NodeId(2));
        f.dsm.put(NodeId(2), &mut w, b, 22);
        let (_, written, _) = f.dsm.release(NodeId(2), &mut w, &mut cursor, None);
        assert_eq!(written.len(), 1, "{kind:?}");
        let loads = fetch_counters(&f, 1).0;
        f.dsm.acquire(NodeId(1), &mut r, &written, None);
        assert!(!resident(&f.dsm, NodeId(1), b.page()), "{kind:?}");
        assert_eq!(f.dsm.get(NodeId(1), &mut r, b), 22, "{kind:?}");
        assert_eq!(fetch_counters(&f, 1).0, loads + 1, "{kind:?}");
    }
}

// ----- patches: the slots that changed, not the page ------------------------
//
// By value first, by counter second.  In debug builds every patched copy is
// also compared with its home slot for slot by the engine's own oracle
// (`oracle.rs`): with `PageFrame::changes_since` mutated to drop the first
// missed step from its OR, litmus (a) and (b) below die there with
// "stale copy revalidated".

/// `(page_loads, pages_patched, pages_revalidated)` of `node`.
fn patch_counters(f: &Fixture, node: u32) -> (u64, u64, u64) {
    let s = f.cluster.node_stats(NodeId(node));
    (s.page_loads, s.pages_patched, s.pages_revalidated)
}

/// The answer to the one page `fetch` makes `node` load: `Some(true)` a
/// patch, `Some(false)` the page, `None` a confirmation (or no such load).
fn next_fetch_is_a_patch(f: &Fixture, node: u32, fetch: impl FnOnce()) -> Option<bool> {
    let before = patch_counters(f, node);
    fetch();
    let after = patch_counters(f, node);
    match (after.0 - before.0, after.1 - before.1, after.2 - before.2) {
        (1, 1, 0) => Some(true),
        (1, 0, 0) => Some(false),
        _ => None,
    }
}

/// One thread's unflushed write to a cached page, then another thread of
/// the same node acquiring a notice for that page: the copy is flushed
/// before it is dropped, and the refetch holds both writes.
#[test]
fn litmus_a_dirty_copy_a_notice_outdates_is_flushed_before_the_drop() {
    for kind in ProtocolKind::all_extended() {
        let f = fixture(3, kind);
        let addr = f.alloc.alloc_page_aligned(16, NodeId(0));
        let (mut t1, mut t2, mut w) = (ThreadClock::new(), ThreadClock::new(), ThreadClock::new());
        f.dsm.put(NodeId(2), &mut t1, addr, 5);
        f.dsm.put(NodeId(1), &mut w, addr.offset(1), 9);
        let written = f.dsm.release(NodeId(1), &mut w, &mut 0, None).1;
        let before = f.cluster.node_stats(NodeId(2));
        f.dsm.acquire(NodeId(2), &mut t2, &written, None);
        let after = f.cluster.node_stats(NodeId(2));
        let flushed = after.diff_messages - before.diff_messages;
        let dropped = after.pages_invalidated - before.pages_invalidated;
        assert_eq!((flushed, dropped), (1, 1), "{kind:?}");
        assert_eq!(f.dsm.get(NodeId(0), &mut w, addr), 5, "{kind:?}: home");
        assert_eq!(f.dsm.get(NodeId(2), &mut t2, addr), 5, "{kind:?}");
        assert_eq!(f.dsm.get(NodeId(2), &mut t2, addr.offset(1)), 9, "{kind:?}");
    }
}

/// Litmus (a): a remote diff reaches a holder of the previous copy as
/// exactly its slot — a slot the holder wrote itself and has not flushed
/// yet survives, which a shipped page would have overwritten.
#[test]
fn litmus_a_remote_diff_arrives_as_a_patch_of_exactly_its_slot() {
    for kind in ProtocolKind::all_extended() {
        let f = fixture(3, kind);
        let addr = f.alloc.alloc_page_aligned(16, NodeId(0));
        let (mut r, mut w, mut h) = (ThreadClock::new(), ThreadClock::new(), ThreadClock::new());
        assert_eq!(f.dsm.get(NodeId(1), &mut r, addr), 0);
        f.dsm.put(NodeId(1), &mut r, addr.offset(5), 55);

        acquire(&f, 2, &mut w);
        f.dsm.put(NodeId(2), &mut w, addr.offset(3), 33);
        release(&f, 2, &mut w);

        // The holder's copy goes absent with slot 5 still unflushed (another
        // thread of its node re-protecting the page under it).
        let frame = f.dsm.store().frame(NodeId(1), addr.page());
        frame.invalidate(kind == ProtocolKind::JavaPf);
        let patched = next_fetch_is_a_patch(&f, 1, || {
            assert_eq!(f.dsm.get(NodeId(1), &mut r, addr.offset(3)), 33, "{kind:?}");
        });
        assert_eq!(patched, Some(true), "{kind:?}");
        assert_eq!(f.dsm.get(NodeId(1), &mut r, addr.offset(5)), 55, "{kind:?}");
        assert!(frame.slot_is_dirty(5), "{kind:?}: still to be flushed");
        release(&f, 1, &mut r);
        assert_eq!(f.dsm.get(NodeId(0), &mut h, addr.offset(5)), 55, "{kind:?}");
        assert_eq!(f.dsm.get(NodeId(0), &mut h, addr.offset(3)), 33, "{kind:?}");
    }
}

/// Litmus (b): writes of the home itself — plain stores, no diff — between
/// two fetches of a holder arrive by patch too, all of them in one step.
#[test]
fn litmus_home_local_writes_between_two_fetches_arrive_by_patch() {
    for kind in ProtocolKind::all_extended() {
        let f = fixture(2, kind);
        let addr = f.alloc.alloc_page_aligned(16, NodeId(0));
        let (mut h, mut r) = (ThreadClock::new(), ThreadClock::new());
        f.dsm.put(NodeId(0), &mut h, addr, 1);
        assert_eq!(f.dsm.get(NodeId(1), &mut r, addr), 1);
        for round in 0..3u64 {
            f.dsm.put(NodeId(0), &mut h, addr.offset(2), 20 + round);
            f.dsm.put(NodeId(0), &mut h, addr.offset(9), 90 + round);
            acquire(&f, 1, &mut r);
            let patched = next_fetch_is_a_patch(&f, 1, || {
                assert_eq!(f.dsm.get(NodeId(1), &mut r, addr.offset(9)), 90 + round);
            });
            assert_eq!(patched, Some(true), "{kind:?} round {round}");
            assert_eq!(f.dsm.get(NodeId(1), &mut r, addr.offset(2)), 20 + round);
            assert_eq!(f.dsm.get(NodeId(1), &mut r, addr), 1, "{kind:?}");
        }
        // Nothing written: the next acquire's fetch is a confirmation.
        acquire(&f, 1, &mut r);
        let revalidated = patch_counters(&f, 1).2;
        assert_eq!(f.dsm.get(NodeId(1), &mut r, addr), 1, "{kind:?}");
        assert_eq!(patch_counters(&f, 1).2, revalidated + 1, "{kind:?}");
    }
}

/// Litmus (c): what the history cannot vouch for is shipped whole — no copy
/// to patch, a step the ring has dropped, a patch that would not be shorter
/// than the page.  (A re-homed page: the root package's
/// `tests/integration_suite/chaos_recovery.rs`.)
#[test]
fn litmus_a_copy_the_history_cannot_reach_is_shipped_whole() {
    use hyperion_dsm::diff::MAX_PATCH_ENTRIES;
    use hyperion_dsm::page::HISTORY_DEPTH;
    for kind in ProtocolKind::all_extended() {
        let f = fixture(3, kind);
        let addr = f.alloc.alloc_page_aligned(SLOTS_PER_PAGE, NodeId(0));
        let (mut r, mut w) = (ThreadClock::new(), ThreadClock::new());
        let first_touch = next_fetch_is_a_patch(&f, 1, || {
            assert_eq!(f.dsm.get(NodeId(1), &mut r, addr), 0);
        });
        assert_eq!(first_touch, Some(false), "{kind:?}");

        // As many steps as the ring holds are patched over, one more is not.
        let mut value = 0;
        for steps in [HISTORY_DEPTH, HISTORY_DEPTH + 1] {
            for _ in 0..steps {
                value += 1;
                acquire(&f, 2, &mut w);
                f.dsm.put(NodeId(2), &mut w, addr.offset(value % 7), value);
                release(&f, 2, &mut w);
            }
            acquire(&f, 1, &mut r);
            let patched = next_fetch_is_a_patch(&f, 1, || {
                assert_eq!(f.dsm.get(NodeId(1), &mut r, addr.offset(value % 7)), value);
            });
            assert_eq!(patched, Some(steps == HISTORY_DEPTH), "{kind:?} {steps}");
        }

        // The longest patch is one entry short of a page; a rewrite of the
        // whole page (Jacobi's rows) is the page.
        for slots in [MAX_PATCH_ENTRIES, MAX_PATCH_ENTRIES + 1, SLOTS_PER_PAGE] {
            value += 1;
            acquire(&f, 2, &mut w);
            f.dsm
                .write_slice(NodeId(2), &mut w, addr, &vec![value; slots]);
            release(&f, 2, &mut w);
            acquire(&f, 1, &mut r);
            let patched = next_fetch_is_a_patch(&f, 1, || {
                assert_eq!(
                    f.dsm.get(NodeId(1), &mut r, addr.offset(slots as u64 - 1)),
                    value
                );
            });
            assert_eq!(
                patched,
                Some(slots == MAX_PATCH_ENTRIES),
                "{kind:?} {slots}"
            );
        }
    }
}

/// Litmus (d): a diff lands between the handler's stamp read and its value
/// reads (the two steps of `serve_fetch`, taken apart here).  The copy is
/// stamped older than some of its bytes, never newer: the next fetch
/// mismatches and delivers the slot the first one missed.
#[test]
fn litmus_a_diff_between_the_stamp_and_the_values_is_caught_by_the_next_fetch() {
    for kind in ProtocolKind::all_extended() {
        let f = fixture(3, kind);
        let addr = f.alloc.alloc_page_aligned(16, NodeId(0));
        let (mut r, mut w) = (ThreadClock::new(), ThreadClock::new());
        assert_eq!(f.dsm.get(NodeId(1), &mut r, addr), 0);
        let holder = f.dsm.store().frame(NodeId(1), addr.page());
        let home = f.dsm.store().frame(NodeId(0), addr.page());
        let write = |w: &mut ThreadClock, slot: u64, value: u64| {
            acquire(&f, 2, w);
            f.dsm.put(NodeId(2), w, addr.offset(slot), value);
            release(&f, 2, w);
        };
        write(&mut w, 3, 33);

        // The handler reads the stamp and the steps the holder missed...
        acquire(&f, 1, &mut r);
        let (stamp, changed) = home.changes_since(holder.version());
        // ...a second diff lands, on a slot of the patch and on another...
        write(&mut w, 3, 34);
        write(&mut w, 4, 44);
        // ...and only now are the values read and the patch installed.
        let entries = home.load_slots(&changed.expect("one step, in the ring"));
        assert_eq!(
            entries,
            vec![(3, 34)],
            "{kind:?}: the newer value of the old step"
        );
        holder.apply_patch(&entries, stamp);
        assert_eq!(
            f.dsm.get(NodeId(1), &mut r, addr.offset(4)),
            0,
            "{kind:?}: raced"
        );

        acquire(&f, 1, &mut r);
        let patched = next_fetch_is_a_patch(&f, 1, || {
            assert_eq!(f.dsm.get(NodeId(1), &mut r, addr.offset(4)), 44, "{kind:?}");
        });
        assert_eq!(patched, Some(true), "{kind:?}: the stamp had moved on");
        assert_eq!(f.dsm.get(NodeId(1), &mut r, addr.offset(3)), 34, "{kind:?}");
    }
}

/// Litmus (e): one batched `java_ad` reply mixes all three answers.
#[test]
fn litmus_a_batched_reply_mixes_confirmation_patch_and_page() {
    let f = fixture(3, ProtocolKind::JavaAd);
    let addr = f.alloc.alloc_page_aligned(3 * SLOTS_PER_PAGE, NodeId(0));
    let page = |k: usize| addr.offset((k * SLOTS_PER_PAGE) as u64);
    let (mut r, mut w) = (ThreadClock::new(), ThreadClock::new());
    let mut seen = vec![0u64; 3 * SLOTS_PER_PAGE];
    f.dsm.read_slice(NodeId(1), &mut r, addr, &mut seen);

    acquire(&f, 2, &mut w);
    f.dsm.put(NodeId(2), &mut w, page(1).offset(7), 17);
    f.dsm
        .write_slice(NodeId(2), &mut w, page(2), &[2; SLOTS_PER_PAGE]);
    release(&f, 2, &mut w);

    acquire(&f, 1, &mut r);
    let before = f.cluster.node_stats(NodeId(1));
    f.dsm.read_slice(NodeId(1), &mut r, addr, &mut seen);
    let after = f.cluster.node_stats(NodeId(1));
    assert_eq!(after.rpc_requests, before.rpc_requests + 1, "one batch");
    assert_eq!(after.page_loads, before.page_loads + 3);
    assert_eq!(after.pages_revalidated, before.pages_revalidated + 1);
    assert_eq!(after.pages_patched, before.pages_patched + 1);
    let shipped = after.bytes_received - before.bytes_received;
    assert!((4096..2 * 4096).contains(&shipped), "one page of three");
    let mut expected = vec![0u64; 3 * SLOTS_PER_PAGE];
    expected[SLOTS_PER_PAGE + 7] = 17;
    expected[2 * SLOTS_PER_PAGE..].fill(2);
    assert_eq!(seen, expected);
}

/// One deterministic single-thread run on 3 nodes that reaches every
/// decision the protocols differ in: a page-mate writer, a scan long enough
/// for the stride prefetch, a `read_slice` `java_ad` batches, a page dense
/// enough for `java_ad` to switch it (and sparse enough later to switch it
/// back), explicit prefetches, and deferred release flushes, under
/// `transport`'s faults.  Renders each node's final clock and every
/// non-zero counter.
fn golden_run(kind: ProtocolKind, transport: &TransportConfig) -> [String; 3] {
    let f = fixture_with(3, kind, &AdaptiveParams::default(), transport);
    let (n0, n1, n2) = (NodeId(0), NodeId(1), NodeId(2));
    let page = |addr: GlobalAddr, k: u64| addr.offset(k * SLOTS_PER_PAGE as u64);
    let mate = f.alloc.alloc_page_aligned(SLOTS_PER_PAGE, n0);
    let scan = f.alloc.alloc_page_aligned(16 * SLOTS_PER_PAGE, n1);
    let bulk = f.alloc.alloc_page_aligned(4 * SLOTS_PER_PAGE, n2);
    let dense = f.alloc.alloc_page_aligned(SLOTS_PER_PAGE, n1);
    let span = f.alloc.alloc_page_aligned(3 * SLOTS_PER_PAGE, n2);
    let mut t = [ThreadClock::new(), ThreadClock::new(), ThreadClock::new()];
    let mut out = vec![0u64; 4 * SLOTS_PER_PAGE];
    let (mut deferred, mut cursor) = (VTime::ZERO, 0);
    for round in 0..10u64 {
        // Page-mate writers: nodes 1 and 2 write their own slots of a page
        // homed at node 0.
        for (k, n) in [n1, n2].into_iter().enumerate() {
            let c = &mut t[n.index()];
            f.dsm.invalidate_cache(n, c);
            f.dsm
                .put(n, c, mate.offset(64 * k as u64 + round), round + 1);
            f.dsm.update_main_memory(n, c);
        }
        let c = &mut t[0];
        c.merge(deferred);
        f.dsm.invalidate_cache(n0, c);
        let mut sum = f.dsm.get(n0, c, mate.offset(round));
        for k in 0..16 {
            sum += f.dsm.get(n0, c, page(scan, k).offset(round));
        }
        f.dsm.read_slice(n0, c, bulk, &mut out);
        let dense_accesses = if round < 4 { 3000 } else { 0 };
        for i in 0..dense_accesses {
            sum += f.dsm.get(n0, c, dense.offset(i % 512));
        }
        f.dsm.put(n0, c, mate.offset(200 + round), sum);
        f.dsm.put(n0, c, page(scan, round).offset(300), sum);
        // Spans two same-home pages: one diff RPC.
        let tail = page(bulk, 2).offset(SLOTS_PER_PAGE as u64 - 2);
        f.dsm.write_slice(n0, c, tail, &[round; 3]);
        if round % 2 == 0 {
            f.dsm.load_into_cache(n0, c, page(span, 1).page(), 1);
        } else {
            f.dsm.load_into_cache(n0, c, span.page(), 3);
        }
        // A release of a monitor node 0 homes: every diff is deferred.
        deferred = f.dsm.release(n0, c, &mut cursor, Some(n0)).0;
        // A second reader of the scan's head.
        let c = &mut t[2];
        f.dsm.invalidate_cache(n2, c);
        f.dsm.get(n2, c, page(scan, round).offset(300));
    }
    std::array::from_fn(|n| {
        let stats = f.cluster.node_stats(NodeId(n as u32));
        let mut line = format!("clock={}", t[n].now().as_ps());
        for (name, value) in stats.fields() {
            if value != 0 {
                line += &format!(" {name}={value}");
            }
        }
        line
    })
}

/// The counters and clocks `golden_run` produces: every protocol × {default,
/// kill} transport, per node.  A refactor leaves them alone; a deliberate
/// behaviour change regenerates them and says which numbers moved and why
/// (the last one: a multi-page protection change costs one `mprotect` per
/// range of pages that flipped or already had the target protection, not
/// per run of consecutive pages, so only `java_pf`'s `mprotect_calls` and
/// clocks moved — node 0 pays 105 → 83 calls by default, 63 → 49 under the
/// kill — and every other counter of every protocol is the same).
const GOLDEN: &[(&str, [&str; 3])] = &[
    (
        "java_ic/default",
        [
            "clock=2650283000 locality_checks=12250 page_loads=64 pages_invalidated=212 cache_invalidations=10 diff_messages=20 diff_slots_flushed=40 rpc_requests=84 rpc_served=40 bytes_sent=21716 bytes_received=109444 field_reads=32650 field_writes=50 bulk_reads=10 bulk_writes=10 batched_flushes=10 diff_bytes=720 fetch_overlap_cycles_hidden=138170 stride_fetches_issued=27 stride_fetches_completed=26 stride_fetches_wasted=1 deferred_flushes=20 pages_revalidated=212 rpc_service_ps=128250000 rpc_queue_wait_ps=8817000",
            "clock=651738000 locality_checks=10 page_loads=10 pages_invalidated=9 cache_invalidations=10 diff_messages=10 diff_slots_flushed=10 rpc_requests=20 rpc_served=64 bytes_sent=118251 bytes_received=13474 field_writes=10 diff_bytes=220 pages_patched=9 rpc_service_ps=295845000 rpc_queue_wait_ps=45031006",
            "clock=1298899000 locality_checks=20 page_loads=22 pages_invalidated=32 cache_invalidations=20 diff_messages=10 diff_slots_flushed=10 rpc_requests=32 rpc_served=32 bytes_sent=34418 bytes_received=51467 field_reads=10 field_writes=10 diff_bytes=220 stride_fetches_issued=2 stride_fetches_wasted=2 pages_revalidated=13 pages_patched=11 rpc_service_ps=125830000 rpc_queue_wait_ps=3180000",
        ],
    ),
    (
        "java_ic/kill",
        [
            "clock=2658972000 locality_checks=12250 page_loads=39 pages_invalidated=59 cache_invalidations=10 diff_messages=11 diff_slots_flushed=31 rpc_requests=50 rpc_served=53 bytes_sent=58937 bytes_received=107447 field_reads=32650 field_writes=50 bulk_reads=10 bulk_writes=10 batched_flushes=10 diff_bytes=522 fetch_overlap_cycles_hidden=92657 stride_fetches_issued=15 stride_fetches_completed=14 stride_fetches_wasted=1 deferred_flushes=11 nodes_failed=1 pages_resynced=17 pages_revalidated=59 rpc_service_ps=202672500 rpc_queue_wait_ps=25120996",
            "clock=664501996 locality_checks=10 page_loads=10 pages_invalidated=26 cache_invalidations=10 diff_messages=10 diff_slots_flushed=10 rpc_requests=20 rpc_served=17 bytes_sent=72573 bytes_received=7190 field_writes=10 diff_bytes=220 pages_patched=9 rpc_service_ps=116280000 rpc_queue_wait_ps=14310000",
            "clock=1280133492 locality_checks=20 page_loads=22 pages_invalidated=57 cache_invalidations=20 diff_messages=10 diff_slots_flushed=10 rpc_requests=32 rpc_served=32 bytes_sent=34874 bytes_received=51747 field_reads=10 field_writes=10 diff_bytes=220 stride_fetches_issued=2 stride_fetches_wasted=2 pages_revalidated=30 pages_patched=20 rpc_service_ps=125830000 rpc_queue_wait_ps=4250000",
        ],
    ),
    (
        "java_pf/default",
        [
            "clock=3587293000 page_faults=32 mprotect_calls=83 page_loads=64 pages_invalidated=212 cache_invalidations=10 diff_messages=20 diff_slots_flushed=40 rpc_requests=84 rpc_served=40 bytes_sent=21716 bytes_received=109444 field_reads=32650 field_writes=50 bulk_reads=10 bulk_writes=10 batched_flushes=10 diff_bytes=720 fetch_overlap_cycles_hidden=172068 stride_fetches_issued=27 stride_fetches_completed=26 stride_fetches_wasted=1 deferred_flushes=20 pages_revalidated=212 rpc_service_ps=128250000 rpc_queue_wait_ps=12237000",
            "clock=1064858000 page_faults=10 mprotect_calls=19 page_loads=10 pages_invalidated=9 cache_invalidations=10 diff_messages=10 diff_slots_flushed=10 rpc_requests=20 rpc_served=64 bytes_sent=118251 bytes_received=13474 field_writes=10 diff_bytes=220 pages_patched=9 rpc_service_ps=295845000 rpc_queue_wait_ps=41273004",
            "clock=2174540998 page_faults=20 mprotect_calls=46 page_loads=22 pages_invalidated=32 cache_invalidations=20 diff_messages=10 diff_slots_flushed=10 rpc_requests=32 rpc_served=32 bytes_sent=34418 bytes_received=51467 field_reads=10 field_writes=10 diff_bytes=220 stride_fetches_issued=2 stride_fetches_wasted=2 pages_revalidated=13 pages_patched=11 rpc_service_ps=125830000 rpc_queue_wait_ps=3180000",
        ],
    ),
    (
        "java_pf/kill",
        [
            "clock=2997483000 page_faults=19 mprotect_calls=49 page_loads=39 pages_invalidated=59 cache_invalidations=10 diff_messages=10 diff_slots_flushed=30 rpc_requests=49 rpc_served=53 bytes_sent=58853 bytes_received=103278 field_reads=32650 field_writes=50 bulk_reads=10 bulk_writes=10 batched_flushes=10 diff_bytes=500 fetch_overlap_cycles_hidden=108609 stride_fetches_issued=15 stride_fetches_completed=14 stride_fetches_wasted=1 deferred_flushes=10 nodes_failed=1 pages_resynced=17 pages_revalidated=59 rpc_service_ps=202672500 rpc_queue_wait_ps=18494498",
            "clock=1070545498 page_faults=10 mprotect_calls=19 page_loads=10 pages_invalidated=26 cache_invalidations=10 diff_messages=10 diff_slots_flushed=10 rpc_requests=20 rpc_served=16 bytes_sent=68404 bytes_received=7106 field_writes=10 diff_bytes=220 pages_patched=9 rpc_service_ps=109440000 rpc_queue_wait_ps=14310000",
            "clock=2336563492 page_faults=20 mprotect_calls=64 page_loads=22 pages_invalidated=57 cache_invalidations=20 diff_messages=10 diff_slots_flushed=10 rpc_requests=32 rpc_served=32 bytes_sent=34874 bytes_received=51747 field_reads=10 field_writes=10 diff_bytes=220 stride_fetches_issued=2 stride_fetches_wasted=2 pages_revalidated=30 pages_patched=20 rpc_service_ps=125830000 rpc_queue_wait_ps=5320000",
        ],
    ),
    (
        "java_ad/default",
        [
            "clock=2546659000 locality_checks=6230 mprotect_calls=14 page_loads=137 pages_invalidated=212 cache_invalidations=10 diff_messages=20 diff_slots_flushed=40 rpc_requests=76 rpc_served=40 bytes_sent=20524 bytes_received=108932 field_reads=32650 field_writes=50 bulk_reads=10 bulk_writes=10 protocol_switches=2 batched_fetches=18 pages_prefetched=81 pages_prefetch_speculative=49 batched_flushes=10 diff_bytes=720 fetch_overlap_cycles_hidden=120735 stride_fetches_issued=22 stride_fetches_completed=22 deferred_flushes=20 pages_revalidated=212 rpc_service_ps=128250000 rpc_queue_wait_ps=8817000",
            "clock=651738000 locality_checks=10 page_loads=10 pages_invalidated=9 cache_invalidations=10 diff_messages=10 diff_slots_flushed=10 rpc_requests=20 rpc_served=64 bytes_sent=118251 bytes_received=13082 field_writes=10 diff_bytes=220 pages_patched=9 rpc_service_ps=310545000 rpc_queue_wait_ps=62191006",
            "clock=1316059000 locality_checks=20 page_loads=22 pages_invalidated=32 cache_invalidations=20 diff_messages=10 diff_slots_flushed=10 rpc_requests=32 rpc_served=24 bytes_sent=33906 bytes_received=50667 field_reads=10 field_writes=10 diff_bytes=220 stride_fetches_issued=2 stride_fetches_wasted=2 pages_revalidated=13 pages_patched=11 rpc_service_ps=111430000 rpc_queue_wait_ps=378000",
        ],
    ),
    (
        "java_ad/kill",
        [
            "clock=2298284000 locality_checks=3077 page_loads=63 pages_invalidated=59 cache_invalidations=10 diff_messages=11 diff_slots_flushed=31 rpc_requests=42 rpc_served=53 bytes_sent=58137 bytes_received=106935 field_reads=32650 field_writes=50 bulk_reads=10 bulk_writes=10 batched_fetches=11 pages_prefetched=32 batched_flushes=10 diff_bytes=522 fetch_overlap_cycles_hidden=75222 stride_fetches_issued=10 stride_fetches_completed=10 deferred_flushes=11 nodes_failed=1 pages_resynced=17 pages_revalidated=59 rpc_service_ps=202672500 rpc_queue_wait_ps=25120996",
            "clock=664501996 locality_checks=10 page_loads=10 pages_invalidated=26 cache_invalidations=10 diff_messages=10 diff_slots_flushed=10 rpc_requests=20 rpc_served=17 bytes_sent=72573 bytes_received=7190 field_writes=10 diff_bytes=220 pages_patched=9 rpc_service_ps=116280000 rpc_queue_wait_ps=14310000",
            "clock=1280133492 locality_checks=20 page_loads=22 pages_invalidated=57 cache_invalidations=20 diff_messages=10 diff_slots_flushed=10 rpc_requests=32 rpc_served=24 bytes_sent=34362 bytes_received=50947 field_reads=10 field_writes=10 diff_bytes=220 stride_fetches_issued=2 stride_fetches_wasted=2 pages_revalidated=30 pages_patched=20 rpc_service_ps=111430000 rpc_queue_wait_ps=5638000",
        ],
    ),
];

#[test]
fn golden_counters_match_the_parent_commit() {
    // Node 1 dies as a server mid-run; node 0 trips over it on its next
    // fetch of a node-1 page and re-homes node 1's pages onto itself.
    let kill = TransportConfig {
        fault: Some(FaultSpec {
            kill: Some(FaultKill {
                node: 1,
                at: VTime::from_us(1_000),
            }),
            ..FaultSpec::default()
        }),
        ..TransportConfig::default()
    };
    let presets = [("default", TransportConfig::default()), ("kill", kill)];
    let mut rendered = Vec::new();
    for kind in ProtocolKind::all_extended() {
        for (preset, transport) in &presets {
            rendered.push((format!("{kind}/{preset}"), golden_run(kind, transport)));
        }
    }
    assert_eq!(rendered.len(), GOLDEN.len());
    for ((name, nodes), (want_name, want)) in rendered.iter().zip(GOLDEN) {
        assert_eq!(name, want_name);
        for (n, (got, want)) in nodes.iter().zip(want).enumerate() {
            assert_eq!(got, want, "{name} node {n}");
        }
    }
}
