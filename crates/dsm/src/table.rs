//! Per-node page tables and the cluster-wide DSM store.
//!
//! Every node keeps one [`PageFrame`] per page of the
//! global address space.  The home node's frame *is* the main-memory copy of
//! the page; the other nodes' frames are caches.  Frame tables grow lazily as
//! pages are allocated.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use hyperion_pm2::{IsoAllocator, NodeId, PageId};
use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::page::PageFrame;

/// How far a re-homing lifts a page's stamp.  Within one home's tenure the
/// stamp moves by single steps; the fetch handler is not serialised with
/// re-homing, so a straggling step on the *demoted* frame (a `put` that
/// raced with the demotion, folded by a fetch that resolved the old home an
/// instant earlier) may still be handed out — but it can never climb a
/// whole stride into the new home's range.
const REHOME_STRIDE: u64 = 1 << 32;

/// Replication metadata of one page: which nodes hold read replicas and how
/// current each holder is.
///
/// `version` counts the quorum writes the page's home has applied; each
/// holder records the version it was last brought up to.  Recovery elects
/// the *newest* live holder as the page's next home (ties go to the lowest
/// node id, so elections are deterministic).
#[derive(Clone, Debug, Default)]
pub struct ReplicaSet {
    /// Monotone count of quorum writes applied to the page.
    pub version: u64,
    /// `(holder node id, version the holder was last updated to)`, in
    /// registration order.
    pub holders: Vec<(u32, u64)>,
}

/// The frame table of a single node.
#[derive(Debug, Default)]
pub struct NodeFrames {
    frames: RwLock<Vec<Arc<PageFrame>>>,
}

impl NodeFrames {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pages this node currently has frames for.
    pub fn len(&self) -> usize {
        self.frames.read().len()
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
    /// Pages a node-failure recovery has re-homed away from the allocator's
    /// static assignment, with their present home.
    home_overrides: RwLock<HashMap<u64, NodeId>>,
    /// Number of entries in `home_overrides`, readable without the lock so
    /// the failure-free common case of [`DsmStore::home_of`] stays a plain
    /// array index.
    num_overrides: std::sync::atomic::AtomicUsize,
    /// Replication directory: per-page read-replica holders and their
    /// quorum-write versions (empty without `TransportConfig::replication`).
    replicas: RwLock<HashMap<u64, ReplicaSet>>,
    /// Nodes that have failed fail-stop and been recovered from.
    failed: RwLock<HashSet<u32>>,
    /// Guards every page's home assignment.  The diff-apply handler holds
    /// it shared while it writes a home frame; a re-homing (the recovery of
    /// a dead node's pages — which keeps it for the whole node, so
    /// concurrent observers of the same death wait here and then see the
    /// recovered routing) holds it exclusively.  No diff can therefore
    /// land on a frame after it was snapshotted for its successor.
    homes: RwLock<()>,
}

impl DsmStore {
    /// Create a store for `num_nodes` nodes sharing `allocator`'s address
    /// space.
    pub fn new(allocator: Arc<IsoAllocator>, num_nodes: usize) -> Arc<Self> {
        assert!(num_nodes > 0, "DSM store needs at least one node");
        Arc::new(DsmStore {
            allocator,
            nodes: (0..num_nodes).map(|_| NodeFrames::new()).collect(),
            home_overrides: RwLock::new(HashMap::new()),
            num_overrides: std::sync::atomic::AtomicUsize::new(0),
            replicas: RwLock::new(HashMap::new()),
            failed: RwLock::new(HashSet::new()),
            homes: RwLock::new(()),
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

    /// Home node of `page`: the allocator's static assignment unless a
    /// recovery has re-homed the page.  Until the first node failure this
    /// is a lock-free array index.
    #[inline]
    pub fn home_of(&self, page: PageId) -> NodeId {
        if self
            .num_overrides
            .load(std::sync::atomic::Ordering::Acquire)
            > 0
        {
            let overrides = self.home_overrides.read();
            if let Some(&home) = overrides.get(&page.0) {
                return home;
            }
        }
        self.allocator.home_of(page)
    }

    /// Hold every page's home in place while the diff-apply handler writes
    /// a home frame (shared side of the home-assignment lock).
    pub(crate) fn pin_homes(&self) -> RwLockReadGuard<'_, ()> {
        self.homes.read()
    }

    /// Take the home-assignment lock exclusively; [`DsmStore::rehome`]
    /// wants the guard as proof.
    pub(crate) fn lock_homes(&self) -> RwLockWriteGuard<'_, ()> {
        self.homes.write()
    }

    /// Move `page`'s home to node `to`.
    ///
    /// The old home is demoted first, so writes its own threads issue from
    /// here on are dirty-tracked and flush to the new home like any other
    /// node's.  `to`'s frame is promoted from the old home's snapshot
    /// (local writes it has pending survive) a whole [`REHOME_STRIDE`]
    /// above the old home's stamp, so no copy fetched before the move
    /// validates against the new home.
    pub(crate) fn rehome(&self, _exclusive: &RwLockWriteGuard<'_, ()>, page: PageId, to: NodeId) {
        let from = self.home_of(page);
        let (stamp, snapshot) = self.with_frame(from, page, |f| {
            (f.demote_from_home(), f.data().snapshot_bytes())
        });
        self.with_frame(to, page, |f| {
            f.promote_to_home(&snapshot, stamp + REHOME_STRIDE)
        });
        let mut overrides = self.home_overrides.write();
        overrides.insert(page.0, to);
        self.num_overrides
            .store(overrides.len(), std::sync::atomic::Ordering::Release);
    }

    /// Number of pages a recovery has re-homed.
    pub fn rehomed_pages(&self) -> usize {
        self.num_overrides
            .load(std::sync::atomic::Ordering::Acquire)
    }

    /// True if a recovery has re-homed `page` (used to scope the handler
    /// routing assertions: a stale route is only legitimate for a page that
    /// actually moved).
    pub fn page_rehomed(&self, page: PageId) -> bool {
        self.rehomed_pages() > 0 && self.home_overrides.read().contains_key(&page.0)
    }

    /// Run `f` on node `node`'s frame for `page`, creating the frame (and any
    /// missing lower-numbered frames) on first touch.
    ///
    /// # Panics
    /// Panics if `page` has not been allocated or `node` is out of range.
    pub fn with_frame<R>(&self, node: NodeId, page: PageId, f: impl FnOnce(&PageFrame) -> R) -> R {
        let table = &self.nodes[node.index()];
        {
            let frames = table.frames.read();
            if let Some(frame) = frames.get(page.index()) {
                return f(frame);
            }
        }
        self.grow_table(node, page);
        let frames = table.frames.read();
        f(&frames[page.index()])
    }

    /// Clone the `Arc` of node `node`'s frame for `page`, creating it on
    /// first touch.  Used by the access fast path so that no table lock is
    /// held while the protocol engine performs RPCs.
    pub fn frame(&self, node: NodeId, page: PageId) -> Arc<PageFrame> {
        {
            let frames = self.nodes[node.index()].frames.read();
            if let Some(frame) = frames.get(page.index()) {
                return Arc::clone(frame);
            }
        }
        self.grow_table(node, page);
        let frames = self.nodes[node.index()].frames.read();
        Arc::clone(&frames[page.index()])
    }

    /// Visit every currently materialised frame of `node` together with its
    /// page id (used by `invalidateCache` and `updateMainMemory`).  The
    /// visit holds the node's table lock: a visitor that keeps a frame
    /// clones the `Arc` it is handed, it never asks [`DsmStore::frame`]
    /// (a reader queued behind a waiting `grow_table` would deadlock).
    pub fn for_each_frame(&self, node: NodeId, mut f: impl FnMut(PageId, &Arc<PageFrame>)) {
        let frames = self.nodes[node.index()].frames.read();
        for (i, frame) in frames.iter().enumerate() {
            f(PageId(i as u64), frame);
        }
    }

    /// Number of frames currently materialised on `node`.
    pub fn frames_on(&self, node: NodeId) -> usize {
        self.nodes[node.index()].len()
    }

    /// Record `holder` as a read-replica of `page`, up to `cap` holders
    /// (the replication's `r`).  A new holder starts at the page's
    /// current quorum version — it just fetched the current bytes.  The
    /// page's home never registers as its own replica.
    pub fn register_replica(&self, page: PageId, holder: NodeId, cap: usize) {
        if holder == self.home_of(page) {
            return;
        }
        let mut replicas = self.replicas.write();
        let set = replicas.entry(page.0).or_default();
        if set.holders.iter().any(|(h, _)| *h == holder.0) {
            let version = set.version;
            if let Some(entry) = set.holders.iter_mut().find(|(h, _)| *h == holder.0) {
                entry.1 = version;
            }
            return;
        }
        if set.holders.len() < cap {
            set.holders.push((holder.0, set.version));
        }
    }

    /// Apply one quorum write to `page`: advance its version and bring the
    /// first `quorum - 1` registered holders up to it (the home itself is
    /// the quorum's first member).  Returns how many holders were updated —
    /// the cost the diff-apply handler charges for shipping the update.
    pub fn quorum_update(&self, page: PageId, quorum: usize) -> usize {
        let mut replicas = self.replicas.write();
        let set = replicas.entry(page.0).or_default();
        set.version += 1;
        let version = set.version;
        let members = quorum.saturating_sub(1).min(set.holders.len());
        for entry in set.holders.iter_mut().take(members) {
            entry.1 = version;
        }
        members
    }

    /// The replica set of `page`, if any holder has registered.
    pub fn replica_set(&self, page: PageId) -> Option<ReplicaSet> {
        self.replicas.read().get(&page.0).cloned()
    }

    /// The live replica holder with the newest quorum version (ties go to
    /// the lowest node id), if any.  This is the node recovery elects as
    /// the page's next home.
    pub fn newest_live_replica(&self, page: PageId) -> Option<NodeId> {
        let replicas = self.replicas.read();
        let set = replicas.get(&page.0)?;
        let failed = self.failed.read();
        set.holders
            .iter()
            .filter(|(h, _)| !failed.contains(h))
            .max_by(|(ha, va), (hb, vb)| va.cmp(vb).then(hb.cmp(ha)))
            .map(|(h, _)| NodeId(*h))
    }

    /// Mark `node` failed fail-stop.  Returns `true` the first time —
    /// exactly one caller performs the recovery of the node's pages.
    pub fn mark_failed(&self, node: NodeId) -> bool {
        self.failed.write().insert(node.0)
    }

    /// The lowest-id node not marked failed (the deterministic fallback
    /// home when a page has no live replica).
    ///
    /// # Panics
    /// Panics if every node has failed.
    pub fn first_live_node(&self) -> NodeId {
        let failed = self.failed.read();
        (0..self.nodes.len() as u32)
            .find(|n| !failed.contains(n))
            .map(NodeId)
            .expect("at least one live node")
    }

    fn grow_table(&self, node: NodeId, page: PageId) {
        let allocated = self.allocator.num_pages();
        assert!(
            page.index() < allocated,
            "page {page:?} accessed before being allocated ({allocated} pages exist)"
        );
        let mut frames = self.nodes[node.index()].frames.write();
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

        assert!(store.with_frame(NodeId(1), page, |f| f.is_home()));
        assert!(!store.with_frame(NodeId(0), page, |f| f.is_home()));
        assert!(!store.with_frame(NodeId(2), page, |f| f.is_home()));
        assert_eq!(store.home_of(page), NodeId(1));
    }

    #[test]
    fn growth_fills_all_lower_pages() {
        let (alloc, store) = store(2);
        let _ = alloc.alloc(600, NodeId(0)); // spans two fresh pages
        let b = alloc.alloc(600, NodeId(1));
        // Touch only the last page; earlier frames must exist afterwards.
        let last = b.offset(599).page();
        store.with_frame(NodeId(0), last, |_| ());
        assert_eq!(store.frames_on(NodeId(0)), last.index() + 1);
        // Other nodes are independent.
        assert_eq!(store.frames_on(NodeId(1)), 0);
    }

    #[test]
    #[should_panic(expected = "before being allocated")]
    fn touching_unallocated_page_panics() {
        let (_alloc, store) = store(1);
        store.with_frame(NodeId(0), PageId(99), |_| ());
    }

    #[test]
    fn frame_arc_is_shared_with_table() {
        let (alloc, store) = store(2);
        let a = alloc.alloc(4, NodeId(0));
        let frame = store.frame(NodeId(1), a.page());
        frame.install_copy(&crate::page::PageData::zeroed().snapshot_bytes(), 1);
        assert!(store.with_frame(NodeId(1), a.page(), |f| f.is_present()));
    }

    #[test]
    fn for_each_frame_visits_every_materialised_frame() {
        let (alloc, store) = store(2);
        let a = alloc.alloc(4, NodeId(0));
        let b = alloc.alloc(4, NodeId(1));
        store.with_frame(NodeId(0), a.page(), |_| ());
        store.with_frame(NodeId(0), b.page(), |_| ());
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
        store.with_frame(NodeId(0), first, |_| ());
        let mut kept = Vec::new();
        std::thread::scope(|s| {
            store.for_each_frame(NodeId(0), |_, frame| {
                s.spawn(|| store.with_frame(NodeId(0), later, |_| ()));
                std::thread::sleep(std::time::Duration::from_millis(20));
                kept.push(Arc::clone(frame));
            });
        });
        assert_eq!(kept.len(), 1);
        assert_eq!(store.frames_on(NodeId(0)), later.index() + 1);
    }

    #[test]
    fn replica_registration_quorum_updates_and_election() {
        let (alloc, store) = store(4);
        let page = alloc.alloc(4, NodeId(0)).page();
        store.register_replica(page, NodeId(0), 2); // the home never registers
        store.register_replica(page, NodeId(1), 2);
        store.register_replica(page, NodeId(2), 2);
        store.register_replica(page, NodeId(3), 2); // over the r cap: ignored
        assert_eq!(store.replica_set(page).unwrap().holders.len(), 2);

        // One w=2 quorum write: the home plus the first registered holder.
        assert_eq!(store.quorum_update(page, 2), 1);
        assert_eq!(store.newest_live_replica(page), Some(NodeId(1)));

        // Kill the newest holder: the election falls back to the next one.
        assert!(store.mark_failed(NodeId(1)));
        assert!(
            !store.mark_failed(NodeId(1)),
            "second observer is not first"
        );
        assert_eq!(store.newest_live_replica(page), Some(NodeId(2)));
        assert_eq!(store.first_live_node(), NodeId(0));

        // A re-registered holder is refreshed to the current version.
        assert_eq!(store.quorum_update(page, 3), 2);
        store.register_replica(page, NodeId(2), 2);
        let set = store.replica_set(page).unwrap();
        assert!(set.holders.contains(&(2, set.version)));
    }

    #[test]
    fn rehoming_moves_the_home_and_outdates_every_stamp() {
        let (alloc, store) = store(3);
        let addr = alloc.alloc(4, NodeId(0));
        let page = addr.page();
        let old = store.frame(NodeId(0), page);
        old.store_slot(3, 33);
        // Node 2 holds a pending local write the promotion must keep.
        let new = store.frame(NodeId(2), page);
        new.store_slot(5, 55);
        let handed_out = old.stamp();

        store.rehome(&store.lock_homes(), page, NodeId(2));
        assert_eq!(store.home_of(page), NodeId(2));
        assert!(store.page_rehomed(page));
        assert!(!old.is_home() && old.is_present());
        assert!(new.is_home() && !new.has_dirty_slots());
        assert_eq!((new.load_slot(3), new.load_slot(5)), (33, 55));
        assert!(new.stamp() > handed_out, "no older copy can validate");
    }

    #[test]
    fn a_pinned_handler_holds_recovery_off_until_its_diff_has_landed() {
        // The chaos-suite deadlock: a diff landed on a dead home's frame
        // after recovery had snapshotted it, the update (a barrier's
        // generation word) was lost and its waiters slept forever.
        let (alloc, store) = store(2);
        let addr = alloc.alloc(4, NodeId(0));
        let page = addr.page();
        let home = store.frame(NodeId(0), page);
        let rehomed = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            let pinned = store.pin_homes();
            let recovery = s.spawn(|| {
                store.rehome(&store.lock_homes(), page, NodeId(1));
                rehomed.store(true, std::sync::atomic::Ordering::SeqCst);
            });
            // However long the handler takes, the re-homing waits for it.
            for _ in 0..1_000 {
                std::thread::yield_now();
            }
            assert!(!rehomed.load(std::sync::atomic::Ordering::SeqCst));
            home.apply_diff(&[(addr.slot() as u16, 99)]);
            drop(pinned);
            recovery.join().expect("recovery thread");
        });
        let new_home = store.frame(NodeId(1), page);
        assert_eq!(new_home.load_slot(addr.slot()), 99, "diff in the snapshot");
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
                        store.with_frame(NodeId(n), PageId(p as u64), |f| {
                            assert_eq!(f.is_home(), n == 0);
                        });
                    }
                });
            }
        });
        for n in 0..4u32 {
            assert_eq!(store.frames_on(NodeId(n)), last.index() + 1);
        }
    }
}
