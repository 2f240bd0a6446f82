//! The open stale copies a monitor's acquire leaves behind the pending
//! check (`hyperion_dsm`'s `pending.rs`), litmus by litmus, under every
//! protocol: a copy is dropped but stays open (unprotected) past the
//! monitor's exit, and every read that happens after the write that
//! outdated it sees that write — because the access's check finds the
//! copy, a grant from its home patches it, or a thread-level acquire
//! re-protects it first.
//!
//! The world: a page homed on node 0, a writer on node 0 that writes slot 7
//! under monitor A (homed on node 1, so A's grant patches nothing of the
//! page), and a reader on node 2 that cached the page densely (so `java_ad`
//! detects it by page protection too) and enters and exits A after the
//! write.  Under `java_ic` the entry drops and closes the copy; under page
//! protection it stays open.
//!
//! Mutations on record, each applied to a copy of the tree, with the
//! `hyperion` and `hyperion-dsm` test suites run under it:
//!
//! * the access path skipping its pending check (`DsmSystem::ensure_access`
//!   never calls `drop_if_stale`): the debug oracle's `open stale copy read
//!   unchecked` fails (a), (b), (e) and rule 3's test here, 20
//!   `write_notices.rs` tests (the open-copy section, the message-passing
//!   pair and the barrier round among them), a `host_order.rs` test and
//!   two `monitor.rs` unit tests; (c), (d), (f), rules 1 and 2 and the
//!   prefetch test pass — the grant's patch, the start's settle, the
//!   release's close and the fetch's own end of the copy need no check;
//! * a grant that takes a named open copy for patched without patching it
//!   (`DsmSystem::drop_copies`): (c) fails, and 3 `write_notices.rs` tests;
//! * the check skipped and neither thread-level edge settling
//!   (`DsmSystem::acquire` and `DsmSystem::release` with no `settle`): (d)
//!   fails too.  With only the acquire's settle gone it passed (recorded
//!   before open copies were absent): the parent's release at
//!   `Thread.start` settles the node first;
//! * each of the three rules below broken alone: its own test fails (rule
//!   1: an acquire's notices hold only present copies, which fails rule 2's
//!   test too; rule 2: a release's drop ignores open copies; rule 3: the
//!   unclosed drop abandons the ticket).

use std::sync::mpsc::channel;
use std::sync::Arc;

use hyperion::prelude::*;
use hyperion::StatsSnapshot;
use hyperion_dsm::{DsmStore, DsmSystem, Notices, PageFrame};
use hyperion_model::ThreadClock;
use hyperion_pm2::{Cluster, GlobalAddr, IsoAllocator};

const SLOTS: usize = 512;

/// Reads that make `java_ad` detect a page by protection (well past its
/// break-even), as `write_notices.rs` does.
const PROTECTED: usize = 5_000;

/// What one litmus run returns: protocol, the value read, and the reader
/// node's counters before and after the read.
type Litmus = (ProtocolKind, u64, [StatsSnapshot; 2]);

/// A monitor W and a flag under it, both homed on node 3.
type Signal = (HMonitor, HArray<u64>);

/// What runs on the reader: it gets the page, W's [`Signal`] and the
/// cluster, and returns the value it reads.
type Read = fn(&mut ThreadCtx, HArray<u64>, Signal, &Cluster) -> u64;

/// Run the world (module docs) under every protocol.  `partner`, if any,
/// runs on node 3 from the start; `read` runs on the reader after A's exit.
fn after_exit(partner: Option<fn(&mut ThreadCtx, Signal)>, read: Read) -> Vec<Litmus> {
    world(false, partner, read)
}

/// [`after_exit`], with `read` inside A's section if `inside`.
fn world(inside: bool, partner: Option<fn(&mut ThreadCtx, Signal)>, read: Read) -> Vec<Litmus> {
    let mut out = Vec::new();
    for protocol in ProtocolKind::all_extended() {
        let rt = HyperionRuntime::new(HyperionConfig::new(myrinet_200(), 4, protocol)).unwrap();
        let cluster: Arc<Cluster> = Arc::clone(rt.cluster());
        let run = rt.run(move |ctx| {
            let data = ctx.alloc_array_page_aligned::<u64>(SLOTS, NodeId(0));
            let flag = ctx.alloc_array_page_aligned::<u64>(SLOTS, NodeId(3));
            let (a, w) = (ctx.new_monitor(NodeId(1)), ctx.new_monitor(NodeId(3)));
            let (seen_tx, seen) = channel();
            let wa = a.clone();
            let writer = ctx.spawn_on(NodeId(0), move |t| {
                t.charge(VTime::from_ms(1) - t.now());
                wa.synchronized(t, |t| data.put(t, 7, 41));
            });
            let signal = (w.clone(), flag);
            let partner = partner.map(|body| ctx.spawn_on(NodeId(3), move |t| body(t, signal)));
            let reader = ctx.spawn_on(NodeId(2), move |t| {
                (0..PROTECTED).for_each(|_| assert_eq!(data.get(t, 0), 0));
                t.invalidate_cache();
                assert_eq!(data.get(t, 7), 0);
                t.charge(VTime::from_ms(5) - t.now());
                a.enter(t);
                if !inside {
                    a.exit(t);
                }
                let from = cluster.node_stats(NodeId(2));
                let value = read(t, data, (w, flag), &cluster);
                let to = cluster.node_stats(NodeId(2));
                if inside {
                    a.exit(t);
                }
                seen_tx.send((value, [from, to])).unwrap();
            });
            ctx.join(writer);
            ctx.join(reader);
            if let Some(partner) = partner {
                ctx.join(partner);
            }
            seen.recv().unwrap()
        });
        let (value, stats) = run.result;
        out.push((protocol, value, stats));
    }
    out
}

/// Whether the reader's copy stayed open past A's exit.
fn open_past_exit(protocol: ProtocolKind) -> bool {
    protocol != ProtocolKind::JavaIc
}

/// (a) A read after A's exit: the pending check finds the copy, which is
/// dropped alone and refetched, no fault.
#[test]
fn a_read_after_the_exit_sees_the_write() {
    for (protocol, value, [from, read]) in after_exit(None, |t, data, _, _| data.get(t, 7)) {
        assert_eq!(value, 41, "{protocol}");
        let found = read.pending_misses - from.pending_misses;
        assert_eq!(found, u64::from(open_past_exit(protocol)), "{protocol}");
        assert_eq!(read.page_faults, from.page_faults, "{protocol}");
    }
}

/// (b) A read inside a later section of monitor B, homed on a third node:
/// B's acquire settles nothing, and its grant patches nothing of the page.
#[test]
fn a_read_inside_a_third_nodes_monitor_sees_the_write() {
    let read = |t: &mut ThreadCtx, data: HArray<u64>, _, _: &Cluster| {
        let b = t.new_monitor(NodeId(3));
        b.synchronized(t, |t| data.get(t, 7))
    };
    for (protocol, value, [from, read]) in after_exit(None, read) {
        assert_eq!(value, 41, "{protocol}");
        let found = read.pending_misses - from.pending_misses;
        assert_eq!(found, u64::from(open_past_exit(protocol)), "{protocol}");
    }
}

/// (c) A read after a grant from the copy's own home has patched it: the
/// request names the open copy, the patch makes it current, and the read
/// loads nothing.
#[test]
fn a_read_after_its_homes_grant_patched_the_copy_sees_the_write() {
    let read = |t: &mut ThreadCtx, data: HArray<u64>, _, _: &Cluster| {
        let c = t.new_monitor(NodeId(0));
        c.synchronized(t, |t| data.get(t, 7))
    };
    for (protocol, value, [from, read]) in after_exit(None, read) {
        assert_eq!(value, 41, "{protocol}");
        assert_eq!(read.page_loads, from.page_loads, "{protocol}: patched");
        assert_eq!(read.pages_patched, from.pages_patched + 1, "{protocol}");
        assert_eq!(read.mprotect_calls, from.mprotect_calls, "{protocol}");
    }
}

/// (d) A read by a thread started on the node after the exit: the start is
/// a thread-level acquire, which re-protects the open copies first, so the
/// read faults (under page protection) and refetches.
#[test]
fn a_read_by_a_thread_started_after_the_exit_sees_the_write() {
    let read = |t: &mut ThreadCtx, data: HArray<u64>, _, _: &Cluster| {
        let (tx, rx) = channel();
        let child = t.spawn_on(NodeId(2), move |c| tx.send(data.get(c, 7)).unwrap());
        t.join(child);
        rx.recv().unwrap()
    };
    for (protocol, value, [from, read]) in after_exit(None, read) {
        assert_eq!(value, 41, "{protocol}");
        let settled = read.mprotect_calls_settled - from.mprotect_calls_settled;
        assert_eq!(settled, u64::from(open_past_exit(protocol)), "{protocol}");
        assert_eq!(read.pending_misses, from.pending_misses, "{protocol}");
    }
}

/// (e) A read after wait / notify: the reader waits on W until the
/// notifier sets W's flag; neither the wait's release nor its re-acquire
/// settles, and the read after the wake finds the copy.
#[test]
fn a_read_after_wait_and_notify_sees_the_write() {
    let notifier = |t: &mut ThreadCtx, (w, flag): Signal| {
        t.charge(VTime::from_ms(20) - t.now());
        w.synchronized(t, |t| {
            flag.put(t, 0, 1);
            w.notify_all(t);
        });
    };
    let read = |t: &mut ThreadCtx, data: HArray<u64>, (w, flag): Signal, _: &Cluster| {
        w.enter(t);
        while flag.get(t, 0) == 0 {
            w.wait_monitor(t);
        }
        let value = data.get(t, 7);
        w.exit(t);
        value
    };
    for (protocol, value, [from, read]) in after_exit(Some(notifier), read) {
        assert_eq!(value, 41, "{protocol}");
        let found = read.pending_misses - from.pending_misses;
        assert_eq!(found, u64::from(open_past_exit(protocol)), "{protocol}");
        let settled = read.mprotect_calls_settled - from.mprotect_calls_settled;
        assert_eq!(settled, 0, "{protocol}");
    }
}

/// (f) A dense loop after the exit, on a page the reader's node homes:
/// each access pays the pending check, and the one at which the checks
/// paid cost as much as re-protecting the one stale copy (one range)
/// settles — exactly then, never before, at one `mprotect`.  Returns that
/// access's number, 0 if none settles (`java_ic`, where nothing is open).
#[test]
fn a_dense_loop_after_the_exit_re_protects_once_where_the_rent_reaches_the_price() {
    let read = |t: &mut ThreadCtx, _, _, cluster: &Cluster| {
        let local = t.alloc_array::<u64>(1, NodeId(2));
        let settled = || cluster.node_stats(NodeId(2)).mprotect_calls_settled;
        let before = settled();
        let at = (1..=10_000u64).find(|_| {
            local.get(t, 0);
            settled() > before
        });
        (0..1_000).for_each(|_| assert_eq!(local.get(t, 0), 0));
        at.unwrap_or(0)
    };
    let machine = myrinet_200().machine;
    let (check, mprotect) = (machine.cpu.locality_check(), machine.dsm.mprotect_call);
    let price = mprotect.as_ps().div_ceil(check.as_ps());
    for (protocol, at, [from, to]) in after_exit(None, read) {
        let open = open_past_exit(protocol);
        assert_eq!(at, if open { price } else { 0 }, "{protocol}");
        let settled = to.mprotect_calls_settled - from.mprotect_calls_settled;
        assert_eq!(settled, u64::from(open), "{protocol}: one range, once");
        assert_eq!(to.pending_checks - from.pending_checks, at, "{protocol}");
    }
}

/// An explicit prefetch, inside a section, of a page the section's acquire
/// left open and stale issues the fetch: the copy is dropped alone and
/// prefetched (one page load at the prefetch), and the access completes
/// that ticket with no further load and sees the write.
#[test]
fn a_prefetch_of_a_pending_copy_fetches_it() {
    let read = |t: &mut ThreadCtx, data: HArray<u64>, _, cluster: &Cluster| {
        let loads = || cluster.node_stats(NodeId(2)).page_loads;
        let before = loads();
        data.prefetch(t);
        let prefetched = loads() - before;
        let value = data.get(t, 7);
        assert_eq!((prefetched, loads() - before), (1, 1));
        value
    };
    for (protocol, value, [from, to]) in world(true, None, read) {
        assert_eq!(value, 41, "{protocol}");
        assert_eq!(to.page_faults, from.page_faults, "{protocol}");
        assert_eq!(to.pending_misses, from.pending_misses, "{protocol}");
    }
}

// ----- what keeps an open copy's numbers ---------------------------------------
//
// An open copy is absent, and three rules make it count as the present copy
// it was: a later acquire's notices hold it, a release's drop closes it, and
// its in-flight ticket stays.  Driven on the DSM directly: node 0 homes the
// pages, node 1 writes them (each release a diff, so each write a notice of
// its own), and the reader is node 2.

/// The node whose copies are left open.
const READER: NodeId = NodeId(2);

/// The protocols under which a monitor's acquire leaves a copy open.
const OPENING: [ProtocolKind; 2] = [ProtocolKind::JavaPf, ProtocolKind::JavaAd];

/// A DSM of three nodes under `protocol` and `pages` consecutive pages
/// homed on node 0, from the returned address on.
fn dsm_world(protocol: ProtocolKind, pages: usize) -> (Arc<DsmSystem>, Arc<Cluster>, GlobalAddr) {
    let cluster = Cluster::new(myrinet_200().machine, 3);
    let alloc = Arc::new(IsoAllocator::new(3));
    let store = DsmStore::new(Arc::clone(&alloc), 3);
    let dsm = DsmSystem::new(Arc::clone(&cluster), store, protocol);
    (
        dsm,
        cluster,
        alloc.alloc_page_aligned(SLOTS * pages, NodeId(0)),
    )
}

/// Node 1 writes `value` at `addr` and releases, with `writer`'s clock and
/// write-log cursor: the notices its release names.
fn writes(
    dsm: &DsmSystem,
    writer: &mut (ThreadClock, u64),
    addr: GlobalAddr,
    value: u64,
) -> Notices {
    dsm.put(NodeId(1), &mut writer.0, addr, value);
    dsm.release(NodeId(1), &mut writer.0, &mut writer.1, None).1
}

/// The reader learns `notices` from a grant of `granter`.
fn granted(dsm: &DsmSystem, reader: &mut ThreadClock, notices: &Notices, granter: u32) {
    dsm.acquire(READER, reader, notices, Some(NodeId(granter)));
}

/// Whether `frame` is an open copy: absent and not protected.
fn is_open(frame: &PageFrame) -> bool {
    !frame.is_present() && !frame.is_protected()
}

/// Rule 1: an open copy that a later acquire's notices name is held.  A
/// grant from its home patches it at the notice's stamp, though the
/// request does not name it (its last answer was the whole page), and the
/// reads after load nothing.
#[test]
fn a_later_grant_from_its_home_patches_an_open_copy_its_notices_name() {
    for protocol in OPENING {
        let (dsm, cluster, addr) = dsm_world(protocol, 1);
        let (mut reader, mut writer) = (ThreadClock::new(), (ThreadClock::new(), 0));
        (0..PROTECTED).for_each(|_| assert_eq!(dsm.get(READER, &mut reader, addr), 0));
        let first = writes(&dsm, &mut writer, addr.offset(7), 41);
        granted(&dsm, &mut reader, &first, 1);
        let frame = dsm.store().frame(READER, addr.page());
        assert!(is_open(&frame), "{protocol}: left open");
        let second = writes(&dsm, &mut writer, addr.offset(8), 43);
        let before = cluster.node_stats(READER);
        granted(&dsm, &mut reader, &second, 0);
        let stamp = second.iter().map(|(_, stamp)| stamp).max().unwrap();
        assert!(frame.is_present(), "{protocol}: patched");
        assert_eq!(frame.version(), stamp, "{protocol}: at the notice's stamp");
        dsm.assert_no_open_stale_copies(READER, "the patch");
        assert_eq!(
            dsm.get(READER, &mut reader, addr.offset(7)),
            41,
            "{protocol}"
        );
        assert_eq!(
            dsm.get(READER, &mut reader, addr.offset(8)),
            43,
            "{protocol}"
        );
        let after = cluster.node_stats(READER);
        assert_eq!(after.pages_patched - before.pages_patched, 1, "{protocol}");
        let cost = |s: &StatsSnapshot| (s.page_loads, s.pending_misses, s.mprotect_calls);
        assert_eq!(
            cost(&after),
            cost(&before),
            "{protocol}: nothing loaded or opened"
        );
    }
}

/// Rule 2: a release's drop holds an open copy.  The reader's own write,
/// flushed by the acquire that left its copy open, is named by the
/// reader's monitor release, which closes the copy at one `mprotect` (no
/// settle); the next read faults.
#[test]
fn a_release_that_names_an_open_copy_closes_it_at_one_mprotect() {
    for protocol in OPENING {
        let (dsm, cluster, addr) = dsm_world(protocol, 1);
        let (mut reader, mut writer) = (ThreadClock::new(), (ThreadClock::new(), 0));
        (0..PROTECTED).for_each(|_| assert_eq!(dsm.get(READER, &mut reader, addr), 0));
        let mut cursor = dsm.write_log_end(READER);
        dsm.put(READER, &mut reader, addr.offset(9), 5);
        let written = writes(&dsm, &mut writer, addr.offset(7), 41);
        granted(&dsm, &mut reader, &written, 1);
        let frame = dsm.store().frame(READER, addr.page());
        assert!(is_open(&frame), "{protocol}: left open");
        let before = cluster.node_stats(READER);
        dsm.release(READER, &mut reader, &mut cursor, Some(NodeId(1)));
        let closed = cluster.node_stats(READER);
        assert!(
            !frame.is_present() && frame.is_protected(),
            "{protocol}: closed"
        );
        dsm.assert_no_open_stale_copies(READER, "the release");
        let cost = |s: &StatsSnapshot| {
            (
                s.mprotect_calls,
                s.mprotect_calls_settled,
                s.pages_invalidated,
            )
        };
        let (from, to) = (cost(&before), cost(&closed));
        assert_eq!(
            (to.0 - from.0, to.1 - from.1, to.2 - from.2),
            (1, 0, 1),
            "{protocol}"
        );
        assert_eq!(
            dsm.get(READER, &mut reader, addr.offset(7)),
            41,
            "{protocol}"
        );
        assert_eq!(
            dsm.get(READER, &mut reader, addr.offset(9)),
            5,
            "{protocol}"
        );
        let read = cluster.node_stats(READER);
        assert_eq!(
            read.page_faults - closed.page_faults,
            1,
            "{protocol}: closed, so it faults"
        );
        assert_eq!(read.pending_misses, closed.pending_misses, "{protocol}");
    }
}

/// Rule 3: an open copy keeps its in-flight ticket.  A stride prefetch put
/// the reader's copy in flight; the acquire that leaves the copy open
/// keeps the ticket, which makes a later grant from the home refuse the
/// patch, and the access that finds the copy counts the ticket wasted.
#[test]
fn an_open_copy_keeps_its_stride_ticket_until_the_access_finds_it() {
    let (dsm, cluster, addr) = dsm_world(ProtocolKind::JavaPf, 4);
    let page = |k: u64| addr.offset(k * SLOTS as u64);
    let (mut reader, mut writer) = (ThreadClock::new(), (ThreadClock::new(), 0));
    dsm.get(READER, &mut reader, page(0));
    // Continues the scan: pages 2 and 3 go in flight.
    dsm.get(READER, &mut reader, page(1));
    let frame = dsm.store().frame(READER, page(2).page());
    assert!(frame.is_present() && frame.has_inflight(), "prefetched");
    let first = writes(&dsm, &mut writer, page(2).offset(7), 41);
    granted(&dsm, &mut reader, &first, 1);
    assert!(
        is_open(&frame) && frame.has_inflight(),
        "left open, ticket kept"
    );
    let second = writes(&dsm, &mut writer, page(2).offset(8), 43);
    let before = cluster.node_stats(READER);
    granted(&dsm, &mut reader, &second, 0);
    let refused = cluster.node_stats(READER);
    assert_eq!(
        refused.pages_patched, before.pages_patched,
        "the ticket blocks the patch"
    );
    assert!(is_open(&frame), "still open");
    assert_eq!(dsm.get(READER, &mut reader, page(2).offset(7)), 41);
    assert_eq!(dsm.get(READER, &mut reader, page(2).offset(8)), 43);
    let read = cluster.node_stats(READER);
    assert_eq!(
        read.stride_fetches_wasted - refused.stride_fetches_wasted,
        1
    );
    assert_eq!(read.pending_misses - refused.pending_misses, 1);
    assert_eq!(read.page_loads - refused.page_loads, 1);
}
