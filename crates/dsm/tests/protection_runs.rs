//! One `mprotect` per address range: a protection change that spans several
//! pages costs one call per maximal range of pages each of which either
//! changes to the target protection in that operation or already has it
//! (`DsmStore::protection_ranges`).  A re-protect of dropped copies runs
//! across pages that are protected already (dropped earlier, or never
//! fetched) and stops at an unprotected one (an open copy, a home page, a
//! `java_ad` Check-mode copy); a reopen runs across open pages and stops at
//! one that stays protected.  `invalidateCache` keeps its single call, and
//! `java_ic` pays none anywhere.
//!
//! Mutation on record — applied to a copy of the tree, the whole suite run
//! under it, and the tests named failed:
//!
//! * ranges counted as runs of consecutive pages again (`protection_ranges`
//!   joining two flipped pages only when no page lies between them):
//!   `a_re_protect_runs_across_pages_already_protected`,
//!   `a_reopen_runs_across_open_copies_and_stops_at_a_dropped_one`, and
//!   beyond this file `golden_counters_match_the_parent_commit`,
//!   `a_dropped_copy_between_keeps_the_rider_a_call_of_its_own`
//!   (`fetch_riders.rs`) and the byte-for-byte baseline and paper rows.

use std::sync::Arc;

use hyperion_dsm::{AdaptiveParams, DsmStore, DsmSystem, Notices, PageFrame, ProtocolKind};
use hyperion_model::{myrinet_200, ThreadClock};
use hyperion_pm2::{Cluster, GlobalAddr, IsoAllocator, NodeId, SLOTS_PER_PAGE};

/// The reader's node, and the two other homes.
const READER: NodeId = NodeId(1);
const HOME: NodeId = NodeId(0);
const OTHER_HOME: NodeId = NodeId(2);

/// The protocol that pays `mprotect`s, and the one that pays none.
const PROTOCOLS: [ProtocolKind; 2] = [ProtocolKind::JavaPf, ProtocolKind::JavaIc];

/// Three nodes and one page per entry of `homes`, consecutive in the
/// address space, read from `READER`.
struct Run {
    cluster: Arc<Cluster>,
    dsm: Arc<DsmSystem>,
    pages: Vec<GlobalAddr>,
    clock: ThreadClock,
}

impl Run {
    fn new(kind: ProtocolKind, homes: &[NodeId]) -> Run {
        Run::with_params(kind, &AdaptiveParams::default(), homes)
    }

    fn with_params(kind: ProtocolKind, params: &AdaptiveParams, homes: &[NodeId]) -> Run {
        let cluster = Cluster::new(myrinet_200().machine, 3);
        let alloc = Arc::new(IsoAllocator::new(3));
        let store = DsmStore::new(Arc::clone(&alloc), 3);
        let dsm = DsmSystem::with_config(Arc::clone(&cluster), store, kind, params);
        let pages: Vec<_> = (homes.iter())
            .map(|&home| alloc.alloc_page_aligned(SLOTS_PER_PAGE, home))
            .collect();
        for pair in pages.windows(2) {
            assert_eq!(pair[0].page().0 + 1, pair[1].page().0, "adjacent pages");
        }
        Run {
            cluster,
            dsm,
            pages,
            clock: ThreadClock::new(),
        }
    }

    /// Every page cached, dropped (`invalidateCache`) and cached again, so
    /// that each copy's last answer is a "not modified", which fits a grant:
    /// a copy dropped from here on is indexed under its home.
    fn cached_twice(kind: ProtocolKind, homes: &[NodeId]) -> Run {
        let mut run = Run::new(kind, homes);
        run.read(&[0, 1, 2]);
        run.dsm.invalidate_cache(READER, &mut run.clock);
        run.read(&[0, 1, 2]);
        run
    }

    /// Read slot 0 of pages `ks`, in that order.
    fn read(&mut self, ks: &[usize]) {
        for &k in ks {
            assert_eq!(self.dsm.get(READER, &mut self.clock, self.pages[k]), 0);
        }
    }

    /// Drop the copies of pages `ks`: an acquire whose notices name each at
    /// the stamp after its copy's.
    fn drop(&mut self, ks: &[usize]) {
        let stamp = |k: usize| self.frame(k).version() + 1;
        let named = ks.iter().map(|&k| (self.pages[k].page(), stamp(k)));
        let notices = Notices::from_pairs(named.collect());
        self.dsm.acquire(READER, &mut self.clock, &notices, None);
    }

    /// A grant from `HOME` that brings no notice: it reopens the reader's
    /// indexed dropped copies of `HOME`'s pages.
    fn grant(&mut self) {
        let nothing = Notices::default();
        self.dsm
            .acquire(READER, &mut self.clock, &nothing, Some(HOME));
    }

    /// The reader's frame of page `k`.
    fn frame(&self, k: usize) -> Arc<PageFrame> {
        self.dsm.store().frame(READER, self.pages[k].page())
    }

    /// The reader's `mprotect` calls during `act`.
    fn calls(&mut self, act: impl FnOnce(&mut Run)) -> u64 {
        let before = self.cluster.node_stats(READER).mprotect_calls;
        act(self);
        self.cluster.node_stats(READER).mprotect_calls - before
    }
}

/// One call re-protects two dropped copies when the page between them is
/// protected already: never fetched, or dropped earlier.
#[test]
fn a_re_protect_runs_across_pages_already_protected() {
    for kind in PROTOCOLS {
        let pf = u64::from(kind == ProtocolKind::JavaPf);
        let mut never_fetched = Run::new(kind, &[HOME; 3]);
        never_fetched.read(&[0, 2]);
        assert_eq!(never_fetched.calls(|r| r.drop(&[0, 2])), pf, "{kind}");

        let mut dropped_earlier = Run::new(kind, &[HOME; 3]);
        dropped_earlier.read(&[0, 1, 2]);
        assert_eq!(dropped_earlier.calls(|r| r.drop(&[1])), pf, "{kind}");
        assert_eq!(dropped_earlier.calls(|r| r.drop(&[0, 2])), pf, "{kind}");
    }
}

/// An open copy between two dropped copies keeps them two calls apart, and
/// so does a page the reader homes.
#[test]
fn a_re_protect_stops_at_an_open_copy_and_at_a_home_page() {
    for kind in PROTOCOLS {
        let pf = u64::from(kind == ProtocolKind::JavaPf);
        let mut open = Run::new(kind, &[HOME; 3]);
        open.read(&[0, 1, 2]);
        assert_eq!(open.calls(|r| r.drop(&[0, 2])), 2 * pf, "{kind}");

        let mut home = Run::new(kind, &[HOME, READER, HOME]);
        home.read(&[0, 1, 2]);
        assert_eq!(home.calls(|r| r.drop(&[0, 2])), 2 * pf, "{kind}");
    }
}

/// Under `java_ad` a Check-mode copy is never protected, dropped or not: a
/// re-protect of the Protect-mode copies on either side of it is two calls.
/// A high mark of one access per epoch turns the pages read four times an
/// epoch to Protect at the first `invalidateCache`; the page read once
/// stays Check.
#[test]
fn a_check_mode_copy_ends_a_re_protect_range() {
    let eager = AdaptiveParams { hi_multiple: 1e-9 };
    let mut run = Run::with_params(ProtocolKind::JavaAd, &eager, &[HOME; 3]);
    run.read(&[0, 0, 0, 0, 1, 2, 2, 2, 2]);
    run.dsm.invalidate_cache(READER, &mut run.clock);
    run.read(&[0, 1, 2]);
    assert_eq!(
        run.calls(|r| r.drop(&[1])),
        0,
        "a Check copy drops for free"
    );
    assert!(!run.frame(1).is_present() && !run.frame(1).is_protected());
    assert_eq!(run.calls(|r| r.drop(&[0, 2])), 2);
    assert!(run.frame(0).is_protected() && run.frame(2).is_protected());
}

/// A grant reopens the dropped copies of its home's pages: across a page of
/// another home that is open that is one call, across one still dropped
/// (the grant does not name it) two.
#[test]
fn a_reopen_runs_across_open_copies_and_stops_at_a_dropped_one() {
    for kind in PROTOCOLS {
        let pf = u64::from(kind == ProtocolKind::JavaPf);
        for (reopen_between, calls) in [(false, 2 * pf), (true, pf)] {
            let mut run = Run::cached_twice(kind, &[HOME, OTHER_HOME, HOME]);
            run.dsm.invalidate_cache(READER, &mut run.clock);
            if reopen_between {
                run.read(&[1]);
            }
            assert_eq!(run.calls(Run::grant), calls, "{kind}: {reopen_between}");
            assert!(
                run.frame(0).is_present() && run.frame(2).is_present(),
                "{kind}"
            );
        }
    }
}

/// A fault on a page whose rider is the next page opens both in one call.
#[test]
fn a_fault_and_its_adjacent_rider_open_in_one_call() {
    for kind in PROTOCOLS {
        let pf = u64::from(kind == ProtocolKind::JavaPf);
        let mut run = Run::cached_twice(kind, &[HOME; 3]);
        run.drop(&[0, 1]);
        assert_eq!(run.calls(|r| r.read(&[0])), pf, "{kind}");
        let loads = run.cluster.node_stats(READER).page_loads;
        assert_eq!(run.calls(|r| r.read(&[1])), 0, "{kind}: the rider is open");
        assert_eq!(run.cluster.node_stats(READER).page_loads, loads, "{kind}");
    }
}

/// `invalidateCache` re-protects the whole cached region with one call,
/// whatever lies between its copies.
#[test]
fn invalidate_cache_is_still_one_call() {
    for kind in PROTOCOLS {
        let pf = u64::from(kind == ProtocolKind::JavaPf);
        let mut run = Run::new(kind, &[HOME, READER, HOME, OTHER_HOME]);
        run.read(&[0, 1, 2, 3]);
        let calls = run.calls(|r| r.dsm.invalidate_cache(READER, &mut r.clock));
        assert_eq!(calls, pf, "{kind}");
    }
}
