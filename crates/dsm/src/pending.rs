//! The stale copies a node retains, open or dropped, and the rent-or-buy
//! rule that re-protects the open ones.
//!
//! A monitor's acquire leaves the stale copies page protection detects
//! open.  While any is, every `Protect` access on the node pays one in-line
//! check asking whether its copy is one (`Detection::on_access`): if so it
//! is dropped alone, never closed, and the access takes the miss the check
//! found.  A grant or a demand fetch from its home names it with the node's
//! dropped copies, and a patch that fits a grant makes it current at no
//! `mprotect`.  The access path *rents* until the checks paid since the
//! node last held no open stale copy cost what re-protecting them would,
//! `locality_check() × checks ≥ mprotect_call × ranges`, then *buys*: the
//! 2-competitive ski-rental rule (Karlin et al., *Competitive snoopy
//! caching*, 1988).  The ranges are the runs of consecutive open pages, an
//! upper bound of `DsmStore::protection_ranges` kept as copies come and go.
//! Thread-level acquires and releases, `invalidateCache` and recovery
//! settle first.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use hyperion_model::sync::lock;
use hyperion_model::{NodeStats, ThreadClock};
use hyperion_pm2::{Node, NodeId, PageId};

use crate::detection::AdMode;
use crate::engine::DsmSystem;
use crate::page::PageFrame;
use crate::table::DsmStore;

/// One node's index of the stale copies it retains (module docs).
#[derive(Debug, Default)]
pub(crate) struct StaleCopies {
    /// Open copies (what the access path reads first), the runs of
    /// consecutive open pages (the price's ranges) and the checks paid
    /// since none was open (the rent).
    open: AtomicU64,
    runs: AtomicU64,
    checks: AtomicU64,
    index: Mutex<Index>,
}

/// Per home: page → its stale copy; and the pages whose copy is open.
#[derive(Debug, Default)]
struct Index {
    homes: Vec<BTreeMap<u64, Arc<PageFrame>>>,
    open: BTreeSet<u64>,
}

impl StaleCopies {
    pub(crate) fn new(homes: usize) -> Self {
        let homes = vec![BTreeMap::new(); homes];
        let index = Mutex::new(Index {
            homes,
            ..Index::default()
        });
        StaleCopies {
            index,
            ..Self::default()
        }
    }

    /// Whether the node holds an open stale copy.
    #[inline]
    pub(crate) fn any_open(&self) -> bool {
        self.open.load(Ordering::Relaxed) > 0
    }

    /// Whether `page`'s copy is open and stale.
    pub(crate) fn holds_open(&self, page: PageId) -> bool {
        self.any_open() && lock(&self.index).open.contains(&page.0)
    }

    /// Set `page`'s entry to `frame`, open or dropped, or clear an open one
    /// (a dropped entry whose copy is back is skipped when it is named).
    pub(crate) fn set(
        &self,
        store: &DsmStore,
        page: PageId,
        entry: Option<(&Arc<PageFrame>, bool)>,
    ) {
        let mut index = lock(&self.index);
        let open = entry.is_some_and(|e| e.1);
        let was_open = if open {
            !index.open.insert(page.0)
        } else {
            index.open.remove(&page.0)
        };
        if entry.is_none() && !was_open {
            return;
        }
        let map = &mut index.homes[store.home_of(page).index()];
        match entry {
            Some((frame, _)) => map.insert(page.0, Arc::clone(frame)),
            None => map.remove(&page.0),
        };
        if was_open == open {
            return;
        }
        let near = |p: u64| index.open.contains(&p);
        let neighbours = i64::from(page.0 > 0 && near(page.0 - 1)) + i64::from(near(page.0 + 1));
        // An opened page joins its open neighbours' runs into one; a
        // closed one leaves its run split in as many.  (Counts wrap: -1.)
        let sign = if open { 1 } else { -1 };
        self.runs
            .fetch_add((sign * (1 - neighbours)) as u64, Ordering::Relaxed);
        self.open.store(index.open.len() as u64, Ordering::Relaxed);
        if index.open.is_empty() {
            self.checks.store(0, Ordering::Relaxed);
        }
    }

    /// What a grant or a demand fetch from `home` names, in page order: the
    /// entries still dropped, which leave the index, and the open ones whose
    /// last answer fitted a grant, which stay until patched.
    pub(crate) fn take_named(&self, home: NodeId) -> Vec<(PageId, Arc<PageFrame>)> {
        let (mut named, mut index) = (Vec::new(), lock(&self.index));
        let Index { homes, open } = &mut *index;
        homes[home.index()].retain(|page, frame| {
            let (is_open, present) = (open.contains(page), frame.is_present());
            if is_open && frame.fits_grant() || !is_open && !present && !frame.is_home() {
                named.push((PageId(*page), Arc::clone(frame)));
            }
            is_open
        });
        named
    }

    /// Take every open copy, in page order: a settle closes them.  (A
    /// recovery re-homes pages, so each is looked up under every home.)
    fn take_open(&self) -> Vec<(PageId, Arc<PageFrame>)> {
        let mut index = lock(&self.index);
        let pages = std::mem::take(&mut index.open).into_iter();
        let mut remove = |p: u64| index.homes.iter_mut().find_map(|map| map.remove(&p));
        let copies = pages.filter_map(|p| remove(p).map(|frame| (PageId(p), frame)));
        let copies = copies.collect();
        for count in [&self.open, &self.runs, &self.checks] {
            count.store(0, Ordering::Relaxed);
        }
        copies
    }
}

impl DsmSystem {
    /// Drop `page`'s copy alone if it is one of the node's open stale
    /// copies, without closing it: the caller fetches it at once.
    pub(crate) fn drop_if_stale(&self, node_ref: &Node, page: PageId, frame: &PageFrame) -> bool {
        let stale = &self.stale[node_ref.id().index()];
        let found = frame.is_present() && !frame.is_home() && stale.holds_open(page);
        if found {
            let copy = self.store.frame(node_ref.id(), page);
            self.drop_stale(node_ref, &[(page, copy)], false);
        }
        found
    }

    /// Pay the rent of one pending check on `node_ref`, and settle once it
    /// reaches the price (module docs).
    pub(crate) fn pay_rent(&self, node_ref: &Node, clock: &mut ThreadClock) {
        let stale = &self.stale[node_ref.id().index()];
        let rent = self
            .detection
            .check
            .times(stale.checks.fetch_add(1, Ordering::Relaxed) + 1);
        let price = self.cluster.machine().dsm.mprotect_call;
        if rent >= price.times(stale.runs.load(Ordering::Relaxed)) {
            self.settle(node_ref.id(), clock);
        }
    }

    /// Settle `node`'s open stale copies: drop them all, at one `mprotect`
    /// per range, also counted in `mprotect_calls_settled`.
    pub(crate) fn settle(&self, node: NodeId, clock: &mut ThreadClock) {
        let stale = &self.stale[node.index()];
        if !stale.any_open() {
            return;
        }
        let copies = stale.take_open();
        let node_ref = self.cluster.node(node);
        let (_, calls) = self.drop_stale(node_ref, &copies, true);
        self.charge_mprotect(node_ref, clock, calls);
        NodeStats::bump_by(&node_ref.stats.mprotect_calls_settled, calls);
    }

    /// Act on the answers to the copies a grant or a fetch named, `(page,
    /// frame, open, patched)` in page order: a patched open copy is current,
    /// a refused one not named again until an answer fits.  Returns how
    /// many dropped ones reopened, and those whose opening is an `mprotect`.
    pub(crate) fn answered<'a>(
        &self,
        node: NodeId,
        answers: impl IntoIterator<Item = (PageId, &'a PageFrame, bool, bool)>,
    ) -> (u64, Vec<PageId>) {
        let (mut reopened, mut unprotected) = (0, Vec::new());
        for (page, frame, open, patched) in answers {
            if open && patched {
                self.stale[node.index()].set(&self.store, page, None);
            } else if open {
                frame.set_fits_grant(false);
            } else if patched {
                reopened += 1;
                if self.detection.technique(frame) == AdMode::Protect {
                    unprotected.push(page);
                }
            }
        }
        (reopened, unprotected)
    }
}
