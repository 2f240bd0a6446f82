//! A fault's fetch brings the dropped pages too: a demand fetch names the
//! node's indexed dropped copies of the same home as riders, and the reply
//! patches and reopens those whose answer fits a monitor's grant (at most
//! one `mprotect` of wire bytes and copy cycles), under `java_pf` and
//! `java_ic`.  Debug builds check every reopened copy against its home
//! (`stale copy revalidated`), so each test here runs the oracle too.
//!
//! Mutations on record — each applied to a copy of the tree, the whole
//! suite run under it, and the tests named failed:
//!
//! * no riders (`DsmSystem::fetch_page` takes nothing from
//!   `StaleCopies::take_named`; re-run on it): `a_fault_reopens_a_dropped_copy_of_the_same_home`,
//!   `a_rider_dearer_than_an_mprotect_stays_dropped` (113 slots),
//!   `a_rider_is_named_only_to_its_own_home`,
//!   `a_dropped_copy_between_keeps_the_rider_a_call_of_its_own` and
//!   `one_reply_ships_a_page_patches_a_rider_and_confirms_another`, and
//!   beyond this file `a_fault_and_its_adjacent_rider_open_in_one_call`
//!   (`protection_runs.rs`), `golden_counters_match_the_parent_commit` and
//!   the byte-for-byte baseline and paper rows;
//! * riders answered whatever their cost (`serve_fetch` answers a rider
//!   with any patch, its `grant_cost` unchecked):
//!   `a_rider_dearer_than_an_mprotect_stays_dropped` (114 slots), and the
//!   paper rows;
//! * no `mprotect` for reopened protected riders (`fetch_rpc` returns none
//!   of them to `fetch_page`'s ranges):
//!   `a_dropped_copy_between_keeps_the_rider_a_call_of_its_own` (under
//!   `java_pf`; where Q is P's neighbour, P's own range covers it), and
//!   the golden counters (re-run since, it no longer moves a row of the
//!   quick baseline).

use std::sync::Arc;

use hyperion_dsm::{DsmStore, DsmSystem, ProtocolKind};
use hyperion_model::{myrinet_200, StatsSnapshot, ThreadClock};
use hyperion_pm2::{Cluster, GlobalAddr, IsoAllocator, NodeId, SLOTS_PER_PAGE};

/// The reader's node, and the two homes.
const READER: NodeId = NodeId(1);
const HOME: NodeId = NodeId(0);
const OTHER_HOME: NodeId = NodeId(2);

/// The two protocols the paper compares.
const PROTOCOLS: [ProtocolKind; 2] = [ProtocolKind::JavaPf, ProtocolKind::JavaIc];

/// A run on three nodes: pages P and Q homed on node 0, R on node 2 (or
/// another layout of three adjacent pages).
struct Run {
    cluster: Arc<Cluster>,
    dsm: Arc<DsmSystem>,
    pages: [GlobalAddr; 3],
    clock: ThreadClock,
}

impl Run {
    /// The reader caches P, Q and R, drops them (`invalidateCache`) and
    /// caches them again, so that the last answer for each copy is a "not
    /// modified", which fits a grant.  Node 2 then writes `q_slots` slots
    /// of Q and flushes them home, and the reader drops every copy: each is
    /// indexed under its home as a dropped copy.
    fn dropped(kind: ProtocolKind, q_slots: usize) -> Run {
        Run::dropped_on(kind, [HOME, HOME, OTHER_HOME], q_slots)
    }

    /// `dropped` with the three pages homed on `homes`, page 1 the one
    /// written.
    fn dropped_on(kind: ProtocolKind, homes: [NodeId; 3], q_slots: usize) -> Run {
        let cluster = Cluster::new(myrinet_200().machine, 3);
        let alloc = Arc::new(IsoAllocator::new(3));
        let store = DsmStore::new(Arc::clone(&alloc), 3);
        let dsm = DsmSystem::new(Arc::clone(&cluster), store, kind);
        let page = |home| alloc.alloc_page_aligned(SLOTS_PER_PAGE, home);
        let pages = homes.map(page);
        let mut clock = ThreadClock::new();
        for _ in 0..2 {
            dsm.invalidate_cache(READER, &mut clock);
            pages
                .iter()
                .for_each(|&p| assert_eq!(dsm.get(READER, &mut clock, p), 0));
        }
        let mut writer = ThreadClock::new();
        for slot in 0..q_slots as u64 {
            dsm.put(NodeId(2), &mut writer, pages[1].offset(slot), slot + 1);
        }
        dsm.update_main_memory(NodeId(2), &mut writer);
        dsm.invalidate_cache(READER, &mut clock);
        Run {
            cluster,
            dsm,
            pages,
            clock,
        }
    }

    /// Read slot `slot` of page `k` on the reader's node: the value and
    /// the node's counters before and after.
    fn read(&mut self, k: usize, slot: u64) -> (u64, StatsSnapshot, StatsSnapshot) {
        let before = self.cluster.node_stats(READER);
        let value = self
            .dsm
            .get(READER, &mut self.clock, self.pages[k].offset(slot));
        (value, before, self.cluster.node_stats(READER))
    }
}

/// `(faults, page loads, mprotects, pages patched, pages revalidated)`
/// between two snapshots.
fn cost(from: StatsSnapshot, to: StatsSnapshot) -> (u64, u64, u64, u64, u64) {
    (
        to.page_faults - from.page_faults,
        to.page_loads - from.page_loads,
        to.mprotect_calls - from.mprotect_calls,
        to.pages_patched - from.pages_patched,
        to.pages_revalidated - from.pages_revalidated,
    )
}

/// The fault on P names Q, dropped with one slot changed since: the reply
/// confirms P and patches Q, for one page load.  Under `java_pf` that is
/// one fault and one `mprotect` (P and Q are adjacent, so P's open and Q's
/// reopen are one range); under `java_ic` no fault and no `mprotect`.  Q
/// then reads the new value at no cost.
#[test]
fn a_fault_reopens_a_dropped_copy_of_the_same_home() {
    for kind in PROTOCOLS {
        let mut run = Run::dropped(kind, 1);
        let pf = u64::from(kind == ProtocolKind::JavaPf);
        let (value, before, after) = run.read(0, 0);
        assert_eq!(value, 0, "{kind}");
        assert_eq!(cost(before, after), (pf, 1, pf, 1, 1), "{kind}");
        let (value, before, after) = run.read(1, 0);
        assert_eq!(value, 1, "{kind}");
        assert_eq!(cost(before, after), (0, 0, 0, 0, 0), "{kind}");
    }
}

/// A rider rides only while its answer fits a grant, the break-even the
/// grant uses: on `myrinet_200` a patch of 113 slots does, one of 114
/// does not — Q stays dropped, and its read faults (under `java_pf`) and
/// fetches the same patch.
#[test]
fn a_rider_dearer_than_an_mprotect_stays_dropped() {
    for kind in PROTOCOLS {
        for (slots, rides) in [(113, true), (114, false)] {
            let mut run = Run::dropped(kind, slots);
            let (pf, rode) = (u64::from(kind == ProtocolKind::JavaPf), u64::from(rides));
            let (_, before, after) = run.read(0, 0);
            let reopened = (pf, 1, pf, rode, 1);
            assert_eq!(cost(before, after), reopened, "{kind}: {slots} slots");
            let (value, before, after) = run.read(1, slots as u64 - 1);
            assert_eq!(value, slots as u64, "{kind}: {slots} slots");
            let refetched = (pf * (1 - rode), 1 - rode, pf * (1 - rode), 1 - rode, 0);
            assert_eq!(cost(before, after), refetched, "{kind}: {slots} slots");
        }
    }
}

/// R, dropped too, is homed on node 2: the fault on P, a page of node 0,
/// names Q alone — its request is exactly one 16-byte rider and a 4-byte
/// count longer than a fetch of P alone, its reply one answer longer — and
/// R's read faults and refetches it.
#[test]
fn a_rider_is_named_only_to_its_own_home() {
    for kind in PROTOCOLS {
        let mut run = Run::dropped(kind, 0);
        let pf = u64::from(kind == ProtocolKind::JavaPf);
        let (_, before, after) = run.read(0, 0);
        let sent = after.bytes_sent - before.bytes_sent;
        let received = after.bytes_received - before.bytes_received;
        assert_eq!((sent, received), (64 + 20 + 4 + 16, 64 + 9 + 9), "{kind}");
        let (_, before, after) = run.read(1, 0);
        assert_eq!(cost(before, after), (0, 0, 0, 0, 0), "{kind}");
        let (_, before, after) = run.read(2, 0);
        assert_eq!(cost(before, after), (pf, 1, pf, 0, 1), "{kind}");
    }
}

/// P and Q, homed on node 0, have S of node 2 between them.  While S stays
/// dropped (the fault on P names Q alone), P's open and Q's reopen are two
/// `mprotect` ranges; once S is open again, they are one.
#[test]
fn a_dropped_copy_between_keeps_the_rider_a_call_of_its_own() {
    for kind in PROTOCOLS {
        let pf = u64::from(kind == ProtocolKind::JavaPf);
        for (s_open, calls) in [(false, 2 * pf), (true, pf)] {
            let mut run = Run::dropped_on(kind, [HOME, OTHER_HOME, HOME], 0);
            if s_open {
                assert_eq!(run.read(1, 0).0, 0, "{kind}");
            }
            let (_, before, after) = run.read(0, 0);
            assert_eq!(
                cost(before, after),
                (pf, 1, calls, 0, 2),
                "{kind}: {s_open}"
            );
            let (_, before, after) = run.read(2, 0);
            assert_eq!(cost(before, after), (0, 0, 0, 0, 0), "{kind}: {s_open}");
        }
    }
}

/// One reply mixes all three answers a fetch can get.  Node 2 rewrites P
/// whole after the reader dropped it, so the fault on P ships the page;
/// Q, one slot changed, rides as a patch; and R, also of node 0 and
/// unchanged, as a confirmation.  That is one RPC and one page of bytes,
/// and Q and R then read their home's values at no cost.
#[test]
fn one_reply_ships_a_page_patches_a_rider_and_confirms_another() {
    for kind in PROTOCOLS {
        let mut run = Run::dropped_on(kind, [HOME; 3], 1);
        let mut writer = ThreadClock::new();
        let whole = [7; SLOTS_PER_PAGE];
        (run.dsm).write_slice(NodeId(2), &mut writer, run.pages[0], &whole);
        run.dsm.update_main_memory(NodeId(2), &mut writer);
        let (value, before, after) = run.read(0, 0);
        assert_eq!(value, 7, "{kind}");
        let pf = u64::from(kind == ProtocolKind::JavaPf);
        assert_eq!(cost(before, after), (pf, 1, pf, 1, 1), "{kind}");
        assert_eq!(after.rpc_requests, before.rpc_requests + 1, "{kind}");
        let shipped = after.bytes_received - before.bytes_received;
        assert!((4096..2 * 4096).contains(&shipped), "{kind}: one page");
        for (k, want) in [(1, 1), (2, 0)] {
            let (value, before, after) = run.read(k, 0);
            assert_eq!(value, want, "{kind}: page {k}");
            assert_eq!(cost(before, after), (0, 0, 0, 0, 0), "{kind}: page {k}");
        }
    }
}

/// With nothing indexed, a fetch is the one it was before riders: a first
/// fetch sends the 64-byte header and 20 bytes (page, count, one stamp)
/// and receives the header, a tag, a stamp and the page; and a fetch whose
/// only indexed copy is the page it fetches names no rider either.
#[test]
fn a_fetch_with_an_empty_index_carries_the_same_bytes_as_before_riders() {
    for kind in PROTOCOLS {
        let cluster = Cluster::new(myrinet_200().machine, 2);
        let alloc = Arc::new(IsoAllocator::new(2));
        let dsm = DsmSystem::new(
            Arc::clone(&cluster),
            DsmStore::new(Arc::clone(&alloc), 2),
            kind,
        );
        let page = alloc.alloc_page_aligned(SLOTS_PER_PAGE, HOME);
        let mut clock = ThreadClock::new();
        for reply in [9 + 4096, 9, 9] {
            let before = cluster.node_stats(READER);
            assert_eq!(dsm.get(READER, &mut clock, page), 0);
            let after = cluster.node_stats(READER);
            let bytes = (
                after.bytes_sent - before.bytes_sent,
                after.bytes_received - before.bytes_received,
            );
            assert_eq!(bytes, (64 + 20, 64 + reply), "{kind}");
            dsm.invalidate_cache(READER, &mut clock);
        }
    }
}
