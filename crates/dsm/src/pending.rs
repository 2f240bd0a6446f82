//! The stale copies a node retains, open or dropped, and the rent-or-buy
//! rule that re-protects the open ones.
//!
//! A monitor's acquire drops the stale copies page protection detects
//! without closing them: absent, but not re-protected, they stay *open*.
//! While any is, every `java_pf` access on the node pays one in-line check
//! (`DsmSystem::on_access`), which asks of an absent, unprotected copy
//! whether it is one: if so the access takes the miss the check found.  A
//! grant or a demand fetch from its home names it with the node's dropped
//! copies, and a patch that fits a grant makes it current at no
//! `mprotect`.  The access path *rents* until the checks paid since the
//! node last held no open stale copy cost what re-protecting them would,
//! `locality_check() × checks ≥ mprotect_call × ranges`, then *buys*: the
//! 2-competitive ski-rental rule (Karlin et al., *Competitive snoopy
//! caching*, 1988).  The ranges are the runs of consecutive open pages, an
//! upper bound of `DsmStore::protection_ranges` kept as copies come and go.
//! Thread-level acquires and releases, `invalidateCache` and recovery
//! settle first.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use hyperion_model::sync::lock;
use hyperion_model::{NodeStats, ThreadClock};
use hyperion_pm2::{Node, NodeId, PageId};

use crate::config::ProtocolKind;
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

/// Per home, what a grant or a demand fetch from it names: the dropped
/// copies, and the open ones whose last answer fitted a grant (an answer
/// reopens a copy, so none makes an open copy fit); and the open pages.
#[derive(Debug, Default)]
struct Index {
    named: Vec<BTreeSet<u64>>,
    open: BTreeSet<u64>,
}

impl StaleCopies {
    pub(crate) fn new(homes: usize) -> Self {
        let stale = Self::default();
        lock(&stale.index).named = vec![BTreeSet::new(); homes];
        stale
    }

    /// Whether the node holds an open stale copy.
    #[inline]
    pub(crate) fn any_open(&self) -> bool {
        self.open.load(Ordering::Relaxed) > 0
    }

    /// Whether `frame`, `page`'s copy, is open: absent, unprotected and in
    /// the open set (a copy dropped under `java_ic` is absent and
    /// unprotected too, but not open).
    pub(crate) fn holds_open(&self, page: PageId, frame: &PageFrame) -> bool {
        let unclosed = !frame.is_present() && !frame.is_protected();
        unclosed && self.any_open() && lock(&self.index).open.contains(&page.0)
    }

    /// Set `page`'s entry `to` its copy `frame`, open or dropped, or clear
    /// an open one (a dropped entry whose copy is back is skipped when it is
    /// named).  Returns whether the copy was open.
    pub(crate) fn set(
        &self,
        store: &DsmStore,
        page: PageId,
        to: Option<(&PageFrame, bool)>,
    ) -> bool {
        let mut index = lock(&self.index);
        let open = to.is_some_and(|e| e.1);
        let was_open = if open {
            !index.open.insert(page.0)
        } else {
            index.open.remove(&page.0)
        };
        if to.is_none() && !was_open {
            return false;
        }
        let named = &mut index.named[store.home_of(page).index()];
        match to {
            Some((frame, _)) if frame.fits_grant() => named.insert(page.0),
            _ => named.remove(&page.0),
        };
        if was_open == open {
            return was_open;
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
        was_open
    }
}

impl DsmSystem {
    /// What a grant or a demand fetch from `home` names of `node`'s copies,
    /// in page order: the absent copies whose last answer fitted a grant.
    /// The dropped entries leave the index; the open ones stay until
    /// patched, closed or refused.
    pub(crate) fn take_named(&self, node: NodeId, home: NodeId) -> Vec<(PageId, &PageFrame)> {
        let mut named = Vec::new();
        let Index { named: homes, open } = &mut *lock(&self.stale[node.index()].index);
        homes[home.index()].retain(|&page| {
            let frame = self.store.frame(node, PageId(page));
            if frame.fits_grant() && !frame.is_present() && !frame.is_home() {
                named.push((PageId(page), frame));
            }
            open.contains(&page) && frame.fits_grant()
        });
        named
    }

    /// End `page`'s copy if it is one of the node's open stale copies: it
    /// leaves the open set, and its in-flight ticket is abandoned.  The
    /// caller fetches it at once.
    pub(crate) fn drop_if_stale(&self, node_ref: &Node, page: PageId, frame: &PageFrame) -> bool {
        let found = self.stale[node_ref.id().index()].holds_open(page, frame);
        if found {
            self.drop_stale(node_ref, &[(page, frame)], false);
        }
        found
    }

    /// Pay the rent of one pending check on `node_ref`, and settle once it
    /// reaches the price (module docs).
    pub(crate) fn pay_rent(&self, node_ref: &Node, clock: &mut ThreadClock) {
        let stale = &self.stale[node_ref.id().index()];
        let rent = self
            .check_cost
            .times(stale.checks.fetch_add(1, Ordering::Relaxed) + 1);
        let price = self.cluster.machine().dsm.mprotect_call;
        if rent >= price.times(stale.runs.load(Ordering::Relaxed)) {
            self.settle(node_ref.id(), clock);
        }
    }

    /// Settle `node`'s open stale copies: close them all, at one `mprotect`
    /// per range, also counted in `mprotect_calls_settled`.
    pub(crate) fn settle(&self, node: NodeId, clock: &mut ThreadClock) {
        let stale = &self.stale[node.index()];
        if !stale.any_open() {
            return;
        }
        let open = lock(&stale.index).open.clone();
        let frame = |p| (PageId(p), self.store.frame(node, PageId(p)));
        let copies: Vec<_> = open.into_iter().map(frame).collect();
        let node_ref = self.cluster.node(node);
        let (_, calls) = self.drop_stale(node_ref, &copies, true);
        self.charge_mprotect(node_ref, clock, calls);
        NodeStats::bump_by(&node_ref.stats.mprotect_calls_settled, calls);
    }

    /// Act on the answers to the copies a grant or a fetch named, `(page,
    /// frame, patched)` in page order: a patched open copy is current, a
    /// refused copy not named again until an answer fits.  Returns how many
    /// dropped ones reopened, and those whose opening is an `mprotect`.
    pub(crate) fn answered<'a>(
        &self,
        node: NodeId,
        answers: impl IntoIterator<Item = (PageId, &'a PageFrame, bool)>,
    ) -> (u64, Vec<PageId>) {
        let (mut reopened, mut unprotected) = (0, Vec::new());
        for (page, frame, patched) in answers {
            if !patched {
                frame.set_fits_grant(false);
            } else if !self.stale[node.index()].set(&self.store, page, None) {
                reopened += 1;
                if self.protocol == ProtocolKind::JavaPf {
                    unprotected.push(page);
                }
            }
        }
        (reopened, unprotected)
    }
}
