//! Per-node page tables and the cluster-wide DSM store.
//!
//! Every node keeps one [`PageFrame`] per page of the
//! global address space.  The home node's frame *is* the main-memory copy of
//! the page; the other nodes' frames are caches.  Frame tables grow lazily as
//! pages are allocated.
//!
//! A page's home is derived, never stored per page: the allocator's static
//! home, or — once a recovery has re-homed the failed node's pages — the
//! elected survivor when that static home is the failed node.  So a page
//! allocated on the failed node after its recovery is homed by the survivor
//! too ([`DsmStore::home_of`]).

use std::sync::{Arc, OnceLock, RwLock};

use hyperion_model::sync::{read, write};
use hyperion_pm2::{IsoAllocator, NodeId, PageId};

use crate::oracle::OneCaller;
use crate::page::PageFrame;

/// How far a re-homing lifts a page's stamp.  Within one home's tenure the
/// stamp moves by single steps, so no stamp the old home handed out comes
/// near the new home's range: no copy fetched before the move validates
/// after it.
const REHOME_STRIDE: u64 = 1 << 32;

/// The frame table of a single node.
#[derive(Debug, Default)]
pub struct NodeFrames {
    frames: RwLock<Vec<Arc<PageFrame>>>,
    /// Non-home frames present or open (see [`DsmStore::note_cached`]).
    cached: std::sync::atomic::AtomicI64,
}

impl NodeFrames {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pages this node currently has frames for.
    pub fn len(&self) -> usize {
        read(&self.frames).len()
    }

    /// True if no frames exist yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The cluster-wide DSM store: one frame table per node plus the allocator
/// that knows each page's home.
///
/// This is the piece of state shared between the protocol engine and the RPC
/// handlers registered with the communication subsystem (the handlers read
/// home frames and apply diffs to them).
pub struct DsmStore {
    allocator: Arc<IsoAllocator>,
    nodes: Vec<NodeFrames>,
    /// The node that failed fail-stop and was recovered from, once it has:
    /// a run has at most one kill (`hyperion_pm2::FaultSpec::kill`).
    failed: OnceLock<NodeId>,
    /// `(failed, elected)` once the recovery has re-homed every page whose
    /// static home failed: the one rule [`DsmStore::home_of`] applies.
    rehomed: OnceLock<(NodeId, NodeId)>,
    /// The handler running on one of the store's home frames, if any (debug
    /// builds; see `crate::oracle::OneCaller`).
    pub(crate) serving: OneCaller,
}

impl DsmStore {
    /// Create a store for `num_nodes` nodes sharing `allocator`'s address
    /// space.
    pub fn new(allocator: Arc<IsoAllocator>, num_nodes: usize) -> Arc<Self> {
        assert!(num_nodes > 0, "DSM store needs at least one node");
        Arc::new(DsmStore {
            allocator,
            nodes: (0..num_nodes).map(|_| NodeFrames::new()).collect(),
            failed: OnceLock::new(),
            rehomed: OnceLock::new(),
            serving: OneCaller::default(),
        })
    }

    /// The iso-address allocator behind this store.
    pub fn allocator(&self) -> &IsoAllocator {
        &self.allocator
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Home node of `page`: the allocator's static assignment, or the
    /// elected survivor once a recovery has re-homed the pages of the node
    /// that static home names.
    #[inline]
    pub fn home_of(&self, page: PageId) -> NodeId {
        let home = self.allocator.home_of(page);
        match self.rehomed.get() {
            Some(&(failed, elected)) if failed == home => elected,
            _ => home,
        }
    }

    /// Move `page`'s home from node `from` to node `to`.
    ///
    /// The old home is demoted first, so writes its own threads issue from
    /// here on are dirty-tracked and flush to the new home like any other
    /// node's.  `to`'s frame is promoted from the old home's snapshot
    /// (local writes it has pending survive) a whole [`REHOME_STRIDE`]
    /// above the old home's stamp, so no copy fetched before the move
    /// validates against the new home.
    pub(crate) fn rehome(&self, page: PageId, from: NodeId, to: NodeId) {
        let old = self.frame(from, page);
        let stamp = old.demote_from_home();
        let new = self.frame(to, page);
        let was_cached = new.is_present();
        new.promote_to_home(&old.data().snapshot_bytes(), stamp + REHOME_STRIDE);
        self.note_cached(from, 1);
        self.note_cached(to, -i64::from(was_cached));
    }

    /// From here on every page whose static home is `failed` is homed by
    /// `elected`.  Called once, after [`DsmStore::rehome`] has moved each
    /// such page: until then `home_of` still names the static home, so the
    /// frames the moves materialise take their static roles.
    pub(crate) fn rehomed_all(&self, failed: NodeId, elected: NodeId) {
        let set = self.rehomed.set((failed, elected));
        set.expect("a run loses at most one node");
    }

    /// Clone the `Arc` of node `node`'s frame for `page`, creating the frame
    /// (and any missing lower-numbered frames) on first touch.  No table
    /// lock is held once it returns, so the engine may perform RPCs with it.
    ///
    /// # Panics
    /// Panics if `page` has not been allocated or `node` is out of range.
    pub fn frame(&self, node: NodeId, page: PageId) -> Arc<PageFrame> {
        {
            let frames = read(&self.nodes[node.index()].frames);
            if let Some(frame) = frames.get(page.index()) {
                return Arc::clone(frame);
            }
        }
        self.grow_table(node, page);
        let frames = read(&self.nodes[node.index()].frames);
        Arc::clone(&frames[page.index()])
    }

    /// Visit every currently materialised frame of `node` together with its
    /// page id (used by `invalidateCache` and `updateMainMemory`).  The
    /// visit holds the node's table lock: a visitor that keeps a frame
    /// clones the `Arc` it is handed, it never asks [`DsmStore::frame`]
    /// (a reader queued behind a waiting `grow_table` would deadlock).
    pub fn for_each_frame(&self, node: NodeId, mut f: impl FnMut(PageId, &Arc<PageFrame>)) {
        let frames = read(&self.nodes[node.index()].frames);
        for (i, frame) in frames.iter().enumerate() {
            f(PageId(i as u64), frame);
        }
    }

    /// Number of frames currently materialised on `node`.
    pub fn frames_on(&self, node: NodeId) -> usize {
        self.nodes[node.index()].len()
    }

    /// `node`'s frames of `pages` (ascending), up to the first page it has
    /// materialised no frame for — a page the node never touched (nor any
    /// page above it) holds no copy to drop.  One table lock for the lot.
    pub(crate) fn existing_frames(
        &self,
        node: NodeId,
        pages: impl Iterator<Item = PageId>,
    ) -> Vec<Arc<PageFrame>> {
        let frames = read(&self.nodes[node.index()].frames);
        pages
            .map_while(|p| frames.get(p.index()).map(Arc::clone))
            .collect()
    }

    /// The `mprotect` calls that gave `node`'s pages `flipped` (ascending,
    /// each just set to `protected` by one operation) that protection: one
    /// per maximal range of pages each of which flipped or already has it.
    /// So a gap between two flipped pages joins them unless it holds a page
    /// of the other protection: for a re-protect an open copy or a home page
    /// (never protected), for a reopen a page that stays protected.  Each
    /// gap is walked with early exit, all under one table lock; every
    /// flipped page, hence every gap, is materialised.
    pub(crate) fn protection_ranges(
        &self,
        node: NodeId,
        flipped: &[PageId],
        protected: bool,
    ) -> u64 {
        let frames = read(&self.nodes[node.index()].frames);
        let bridges = |p: usize| frames[p].is_protected() == protected;
        let joined = |w: &[PageId]| (w[0].index() + 1..w[1].index()).all(bridges);
        let splits = flipped.windows(2).filter(|w| !joined(w)).count();
        (flipped.len().min(1) + splits) as u64
    }

    /// Count `delta` non-home frames of `node` made present (positive) or
    /// dropped (negative), an open stale copy once it closes or is fetched.
    /// The engine reports every such transition it causes, re-homing its own.
    pub(crate) fn note_cached(&self, node: NodeId, delta: i64) {
        self.nodes[node.index()]
            .cached
            .fetch_add(delta, std::sync::atomic::Ordering::Relaxed);
    }

    /// Non-home frames currently present on `node`, or open (`pending.rs`).
    pub fn cached_on(&self, node: NodeId) -> u64 {
        self.nodes[node.index()]
            .cached
            .load(std::sync::atomic::Ordering::Relaxed)
            .max(0) as u64
    }

    /// Mark `node` failed fail-stop.  Returns `true` the first time —
    /// exactly one caller performs the recovery of the node's pages.
    ///
    /// # Panics
    /// Panics if another node was marked failed before: a run has at most
    /// one kill.
    pub fn mark_failed(&self, node: NodeId) -> bool {
        let first = self.failed.set(node).is_ok();
        let failed = self.failed.get();
        assert_eq!(failed, Some(&node), "a run loses at most one node");
        first
    }

    /// The lowest-id node not marked failed: the one recovery elects as
    /// the next home of every page the failed node owned.
    ///
    /// # Panics
    /// Panics if the cluster has one node and it has failed.
    pub fn first_live_node(&self) -> NodeId {
        let lowest = NodeId(u32::from(self.failed.get() == Some(&NodeId(0))));
        assert!(lowest.index() < self.nodes.len(), "at least one live node");
        lowest
    }

    fn grow_table(&self, node: NodeId, page: PageId) {
        let allocated = self.allocator.num_pages();
        assert!(
            page.index() < allocated,
            "page {page:?} accessed before being allocated ({allocated} pages exist)"
        );
        let mut frames = write(&self.nodes[node.index()].frames);
        while frames.len() <= page.index() {
            let pid = frames.len();
            // Consult the current home, not the allocator's static table:
            // a node materialising its frame after a recovery must see the
            // page's present-day home.
            let frame = if self.home_of(PageId(pid as u64)) == node {
                PageFrame::new_home()
            } else {
                PageFrame::new_remote()
            };
            frames.push(Arc::new(frame));
        }
    }
}

impl std::fmt::Debug for DsmStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DsmStore")
            .field("num_nodes", &self.nodes.len())
            .field("pages_allocated", &self.allocator.num_pages())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(nodes: usize) -> (Arc<IsoAllocator>, Arc<DsmStore>) {
        let alloc = Arc::new(IsoAllocator::new(nodes));
        let store = DsmStore::new(Arc::clone(&alloc), nodes);
        (alloc, store)
    }

    #[test]
    fn frames_materialise_with_correct_home_flag() {
        let (alloc, store) = store(3);
        let a = alloc.alloc(4, NodeId(1));
        let page = a.page();

        assert!(store.frame(NodeId(1), page).is_home());
        assert!(!store.frame(NodeId(0), page).is_home());
        assert!(!store.frame(NodeId(2), page).is_home());
        assert_eq!(store.home_of(page), NodeId(1));
    }

    #[test]
    fn growth_fills_all_lower_pages() {
        let (alloc, store) = store(2);
        let _ = alloc.alloc(600, NodeId(0)); // spans two fresh pages
        let b = alloc.alloc(600, NodeId(1));
        // Touch only the last page; earlier frames must exist afterwards.
        let last = b.offset(599).page();
        store.frame(NodeId(0), last);
        assert_eq!(store.frames_on(NodeId(0)), last.index() + 1);
        // Other nodes are independent.
        assert_eq!(store.frames_on(NodeId(1)), 0);
    }

    #[test]
    #[should_panic(expected = "before being allocated")]
    fn touching_unallocated_page_panics() {
        let (_alloc, store) = store(1);
        store.frame(NodeId(0), PageId(99));
    }

    #[test]
    fn frame_arc_is_shared_with_table() {
        let (alloc, store) = store(2);
        let a = alloc.alloc(4, NodeId(0));
        let frame = store.frame(NodeId(1), a.page());
        frame.install_copy(&crate::page::PageData::zeroed().snapshot_bytes(), 1);
        assert!(Arc::ptr_eq(&frame, &store.frame(NodeId(1), a.page())));
        assert!(store.frame(NodeId(1), a.page()).is_present());
    }

    #[test]
    fn for_each_frame_visits_every_materialised_frame() {
        let (alloc, store) = store(2);
        let a = alloc.alloc(4, NodeId(0));
        let b = alloc.alloc(4, NodeId(1));
        store.frame(NodeId(0), a.page());
        store.frame(NodeId(0), b.page());
        let mut seen = Vec::new();
        store.for_each_frame(NodeId(0), |pid, f| seen.push((pid, f.is_home())));
        assert!(seen.len() >= 2);
        assert!(seen.iter().any(|(pid, home)| *pid == a.page() && *home));
        assert!(seen.iter().any(|(pid, home)| *pid == b.page() && !*home));
    }

    #[test]
    fn a_visit_that_keeps_frames_finishes_while_a_grower_waits() {
        // A visitor that re-locked the table (`frame` instead of cloning
        // what it is handed) would queue behind the waiting writer while
        // holding the read lock the writer waits for: both threads hang.
        // The sleep lets the grower reach the write lock; nothing
        // observable says it has.
        let (alloc, store) = store(2);
        let first = alloc.alloc(4, NodeId(0)).page();
        let later = alloc.alloc_page_aligned(4, NodeId(1)).page();
        store.frame(NodeId(0), first);
        let mut kept = Vec::new();
        std::thread::scope(|s| {
            store.for_each_frame(NodeId(0), |_, frame| {
                s.spawn(|| store.frame(NodeId(0), later));
                std::thread::sleep(std::time::Duration::from_millis(20));
                kept.push(Arc::clone(frame));
            });
        });
        assert_eq!(kept.len(), 1);
        assert_eq!(store.frames_on(NodeId(0)), later.index() + 1);
    }

    #[test]
    fn rehoming_moves_the_home_and_outdates_every_stamp() {
        let (alloc, store) = store(3);
        let addr = alloc.alloc(4, NodeId(0));
        let page = addr.page();
        let old = store.frame(NodeId(0), page);
        old.store_slot(3, 33);
        // Node 1 holds a pending local write the promotion must keep.
        let new = store.frame(NodeId(1), page);
        new.store_slot(5, 55);
        let handed_out = old.stamp();

        // Node 0 fails: only its first observer recovers it, and the
        // election passes over it, so its page goes to node 1.
        assert_eq!(store.first_live_node(), NodeId(0));
        assert!(store.mark_failed(NodeId(0)));
        assert!(
            !store.mark_failed(NodeId(0)),
            "second observer is not first"
        );
        assert_eq!(store.first_live_node(), NodeId(1));

        store.rehome(page, NodeId(0), NodeId(1));
        store.rehomed_all(NodeId(0), NodeId(1));
        assert_eq!(store.home_of(page), NodeId(1));
        assert!(!old.is_home() && old.is_present());
        assert!(new.is_home() && !new.has_dirty_slots());
        assert_eq!((new.load_slot(3), new.load_slot(5)), (33, 55));
        assert!(new.stamp() > handed_out, "no older copy can validate");
    }

    #[test]
    #[should_panic(expected = "a run loses at most one node")]
    fn marking_a_second_node_failed_panics() {
        let (_, store) = store(3);
        assert!(store.mark_failed(NodeId(1)));
        assert_eq!(store.first_live_node(), NodeId(0));
        store.mark_failed(NodeId(2));
    }

    #[test]
    fn concurrent_growth_is_safe() {
        let (alloc, store) = store(4);
        let addr = alloc.alloc(hyperion_pm2::SLOTS_PER_PAGE * 8, NodeId(0));
        let last = addr
            .offset(hyperion_pm2::SLOTS_PER_PAGE as u64 * 8 - 1)
            .page();
        std::thread::scope(|s| {
            for n in 0..4u32 {
                let store = &store;
                s.spawn(move || {
                    for p in 0..=last.index() {
                        let frame = store.frame(NodeId(n), PageId(p as u64));
                        assert_eq!(frame.is_home(), n == 0);
                    }
                });
            }
        });
        for n in 0..4u32 {
            assert_eq!(store.frames_on(NodeId(n)), last.index() + 1);
        }
    }
}
