//! Validation riders: a fetch that is happening anyway also asks its home
//! "are these other pages of yours still at the stamp I retain?".
//!
//! An acquire drops every cached copy, and a page touched again afterwards
//! costs a round trip even when the home only answers "not modified" (see
//! [`crate::page`], "Page versions").  Most of those round trips go to a
//! home the node has just talked to, so every conditional fetch to home *H*
//! carries `(page, retained stamp)` for the last few *other* pages of *H*
//! this node missed on and has not re-opened since its last
//! `invalidateCache`.  The home answers one bit per rider from the same
//! `stamp()` comparison a demand fetch gets and ships no bytes.  The
//! requester notes a confirmation next to the page's entry in its recency
//! list, good for the invalidation epoch the request left in; the page's
//! next touch pays detection as ever (a check under `java_ic`, a fault and
//! an `mprotect` under `java_pf`), arrives in the fetch path, finds the
//! note and re-opens the retained copy without an RPC.  Frames learn
//! nothing of this: a confirmed page is not `present` until it is opened,
//! and the next `invalidateCache` outdates every note by moving the epoch.
//!
//! This file owns the requester's side of that: the per-(node, home)
//! recency lists, the break-even the rider gate is held to, and the steps
//! around the RPC in [`DsmSystem::fetch_run`].  The wire form is
//! `fetch_wire.rs`'s, the gate type `gate.rs`'s, the home's side
//! `services::serve_fetch`'s.

use std::sync::atomic::{fence, AtomicU64, Ordering};

use hyperion_model::{MachineModel, NodeStats, ThreadClock, VTime};
use hyperion_pm2::{idle_round_trip, Node, NodeId, PageId};
use parking_lot::Mutex;

use crate::diff::{encode_fetch_request, push_page_reply, PageReply, Rider, MAX_RIDERS};
use crate::engine::DsmSystem;
use crate::gate::{Windowed, GATE_WINDOW};
use crate::page::PageFrame;

/// How many riders a node may send on credit, in units of
/// [`rider_worth`]: enough to see a first open, few enough that a
/// workload that never re-touches stops paying within a hundred.
const RIDER_CREDIT: u64 = 2;

/// How many riders one saved round trip pays for on `machine`: the modeled
/// cost of the cheapest fetch — one page answered "not modified", which
/// costs its home no service time of its own, priced by the transport from
/// the codec's own message lengths — over what one more rider adds:
/// `batch_page_cycles` on each side and its request bytes.  41 on the
/// Myrinet cluster, 39 on SCI.
pub(crate) fn rider_worth(machine: &MachineModel) -> u64 {
    let request = |riders: &[Rider]| encode_fetch_request(PageId(0), &[1], riders).len();
    let mut reply = Vec::new();
    push_page_reply(&mut reply, &PageReply::NotModified(1));
    let round_trip = idle_round_trip(machine, request(&[]), reply.len(), VTime::ZERO);
    let rider = (PageId(0), 1);
    let rider_bytes = (request(&[rider, rider]) - request(&[rider])) as u64;
    let one_more = machine.batch_request_overhead(1).times(2) + machine.net.transfer(rider_bytes);
    (round_trip.as_ps() / one_more.as_ps().max(1)).max(1)
}

/// One page of a home's recency list.
#[derive(Clone, Copy, Debug)]
struct Listed {
    page: PageId,
    /// `Some((epoch, arrival))`: a rider that left in invalidation epoch
    /// `epoch` came back "unchanged" at `arrival`, and the page has not
    /// been touched since.
    confirmed: Option<(u64, VTime)>,
}

/// What the fetch mechanics remember per node between fetches.
#[derive(Debug)]
pub(crate) struct NodeFetchState {
    /// Per home: the pages of that home this node last missed on or opened
    /// on a rider's confirmation, most recent first, at most [`MAX_RIDERS`].
    recent: Vec<Mutex<Vec<Listed>>>,
    /// Riders sent / confirmed pages opened without an RPC.
    riders: Windowed,
    /// Per home: one past the last page of this node's last fetch there
    /// (0 = none yet).  A fetch that starts exactly there continues a scan
    /// (the stride rule of [`DsmSystem::issue_stride_fetches`]).
    scan_next: Vec<AtomicU64>,
    /// Stride-prefetch fetches issued / invalidated with the ticket pending.
    pub(crate) stride: Windowed,
    /// Speculative batch riders installed / invalidated untouched.
    pub(crate) speculation: Windowed,
    /// `invalidateCache` episodes begun on this node.
    epoch: AtomicU64,
    /// One past the latest epoch a confirmation was noted in: while it
    /// trails the current epoch no list holds anything to open, and the
    /// fetch path need not look (nor lock).
    confirmed_until: AtomicU64,
}

impl NodeFetchState {
    pub(crate) fn new(homes: usize) -> Self {
        NodeFetchState {
            recent: (0..homes).map(|_| Mutex::new(Vec::new())).collect(),
            riders: Windowed::default(),
            scan_next: (0..homes).map(|_| AtomicU64::new(0)).collect(),
            stride: Windowed::default(),
            speculation: Windowed::default(),
            epoch: AtomicU64::new(0),
            confirmed_until: AtomicU64::new(0),
        }
    }

    /// First step of `invalidateCache`, before any frame is looked at: no
    /// confirmation noted so far may open a page from here on (the other
    /// half of the handshake is in [`DsmSystem::open_confirmed`]).
    pub(crate) fn begin_invalidate(&self) {
        let epoch = self.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        fence(Ordering::SeqCst);
        if epoch % GATE_WINDOW == 0 {
            self.riders.halve();
            self.stride.halve();
            self.speculation.halve();
        }
    }

    /// Note a fetch of `count` pages of `home` starting at `first`; true if
    /// it starts where the node's previous fetch from that home ended.
    pub(crate) fn continues_scan(&self, home: NodeId, first: PageId, count: usize) -> bool {
        let end = first.0 + count as u64;
        let prev = self.scan_next[home.index()].swap(end, Ordering::Relaxed);
        prev != 0 && prev == first.0
    }

    /// Whether riders are paying for themselves on this node.
    fn riders_pay(&self, worth: u64) -> bool {
        self.riders.pays(worth, RIDER_CREDIT)
    }
}

impl DsmSystem {
    /// The node's invalidation epoch, to be read before a fetch request
    /// leaves and handed to [`DsmSystem::settle_riders`] with the reply.
    pub(crate) fn fetch_epoch(&self, node: NodeId) -> u64 {
        self.fetch_state[node.index()].epoch.load(Ordering::SeqCst)
    }

    /// The riders of a fetch of `count` pages starting at `first` that
    /// leaves for `home` in invalidation epoch `epoch`: the pages this node
    /// recently missed on there, retains a copy of, has not made present
    /// again and holds no confirmation for — none while riders are not
    /// paying for themselves on this node.  A listed page that has since
    /// been re-homed may still ride: its old home will not confirm it.
    pub(crate) fn pick_riders(
        &self,
        node: NodeId,
        home: NodeId,
        first: PageId,
        count: usize,
        epoch: u64,
    ) -> Vec<Rider> {
        let state = &self.fetch_state[node.index()];
        if !state.riders_pay(self.rider_worth) {
            return Vec::new();
        }
        let recent = state.recent[home.index()].lock();
        recent
            .iter()
            .filter(|l| !(first.0..first.0 + count as u64).contains(&l.page.0))
            .filter(|l| !matches!(l.confirmed, Some((e, _)) if e == epoch))
            .filter_map(|l| {
                let stamp = self.store.with_frame(node, l.page, |f| {
                    (!f.is_home() && !f.is_present()).then(|| f.version())
                })?;
                (stamp != 0).then_some((l.page, stamp))
            })
            .collect()
    }

    /// A demand miss of `node` on `page` went to `home`: the page heads
    /// that home's recency list, unconfirmed.  Not while the rider gate is
    /// shut — a list nothing is drawn from is not kept up, and the misses
    /// of the gate's next probe fill it again.
    pub(crate) fn note_miss(&self, node: NodeId, home: NodeId, page: PageId) {
        let state = &self.fetch_state[node.index()];
        if !state.riders_pay(self.rider_worth) {
            return;
        }
        let mut list = state.recent[home.index()].lock();
        list.retain(|l| l.page != page);
        list.insert(
            0,
            Listed {
                page,
                confirmed: None,
            },
        );
        list.truncate(MAX_RIDERS);
    }

    /// Account for `riders` about to leave with a request: the requester's
    /// marshalling (the home charges its own share in the service time).
    pub(crate) fn charge_riders(&self, node_ref: &Node, clock: &mut ThreadClock, riders: u64) {
        if riders > 0 {
            NodeStats::bump_by(&node_ref.stats.validation_riders, riders);
            self.fetch_state[node_ref.id().index()].riders.tried(riders);
            clock.advance(self.cluster.machine().batch_request_overhead(riders));
        }
    }

    /// Note the home's answers (`unchanged`, one bit per rider of `asked`)
    /// once the reply is in.  `epoch` is the node's
    /// [`DsmSystem::fetch_epoch`] from before the request left for `home`,
    /// `arrival` the instant the reply arrives.
    pub(crate) fn settle_riders(
        &self,
        node: NodeId,
        home: NodeId,
        asked: &[Rider],
        unchanged: u64,
        epoch: u64,
        arrival: VTime,
    ) {
        if asked.is_empty() {
            return;
        }
        let state = &self.fetch_state[node.index()];
        if unchanged != 0 {
            state
                .confirmed_until
                .fetch_max(epoch + 1, Ordering::Relaxed);
        }
        let mut recent = state.recent[home.index()].lock();
        for (k, &(page, _stamp)) in asked.iter().enumerate() {
            if unchanged >> k & 1 == 1 {
                #[cfg(debug_assertions)]
                self.store.with_frame(node, page, |f| {
                    self.assert_retained_copy_current(page, f, _stamp)
                });
                if let Some(listed) = recent.iter_mut().find(|l| l.page == page) {
                    listed.confirmed = Some((epoch, arrival));
                }
            } else {
                // The retained stamp is out of date: it cannot be confirmed
                // until the page has been fetched again, which lists it
                // again.
                recent.retain(|l| l.page != page);
            }
        }
    }

    /// With `frame`'s fetch lock held and the page absent: re-open it
    /// without an RPC if a rider had its retained copy confirmed in the
    /// node's current invalidation epoch.  Only what the detection that
    /// noticed the touch costs is charged (`unprotect`: an `mprotect`).
    pub(crate) fn open_confirmed(
        &self,
        node_ref: &Node,
        clock: &mut ThreadClock,
        home: NodeId,
        page: PageId,
        frame: &PageFrame,
        unprotect: bool,
    ) -> bool {
        let node = node_ref.id();
        let state = &self.fetch_state[node.index()];
        let epoch = self.fetch_epoch(node);
        if state.confirmed_until.load(Ordering::Relaxed) <= epoch {
            return false;
        }
        let arrival = {
            let mut recent = state.recent[home.index()].lock();
            let Some(at) = recent.iter().position(|l| l.page == page) else {
                return false;
            };
            let Some((confirmed_in, arrival)) = recent[at].confirmed.take() else {
                return false;
            };
            if confirmed_in != epoch || frame.is_home() {
                return false;
            }
            // An opened page is a used page: to the front.
            let listed = recent.remove(at);
            recent.insert(0, listed);
            arrival
        };
        frame.reopen();
        // The node invalidated while this open was under way: either this
        // load sees the new epoch, or the invalidation's walk (which starts
        // after its own fence) sees the page present and drops it.
        fence(Ordering::SeqCst);
        if self.fetch_epoch(node) != epoch {
            if !frame.is_home() {
                frame.invalidate(unprotect);
            }
            return false;
        }
        // Nobody uses an answer before it has arrived.
        clock.merge(arrival);
        NodeStats::bump(&node_ref.stats.rider_opens);
        if unprotect {
            NodeStats::bump(&node_ref.stats.mprotect_calls);
            clock.advance(self.cluster.machine().dsm.mprotect_call);
        }
        state.riders.outcome(1);
        true
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use hyperion_model::{myrinet_200, sci_450};
    use hyperion_pm2::{Cluster, GlobalAddr, IsoAllocator, SLOTS_PER_PAGE};

    use super::*;
    use crate::{DsmStore, ProtocolKind};

    #[test]
    fn one_round_trip_pays_for_some_forty_riders() {
        assert_eq!(rider_worth(&myrinet_200().machine), 41);
        assert_eq!(rider_worth(&sci_450().machine), 39);
    }

    #[test]
    fn a_shut_rider_gate_reopens_after_a_window() {
        let state = NodeFetchState::new(1);
        let worth = 41;
        state.riders.tried(RIDER_CREDIT * worth + 1);
        assert!(!state.riders_pay(worth), "credit spent, nothing opened");
        // Shut, it sends nothing, so only time can reopen it: a window's
        // worth of invalidations halves both counts — of all three gates.
        state.stride.tried(1);
        state.stride.outcome(1);
        for _ in 0..GATE_WINDOW {
            state.begin_invalidate();
        }
        assert!(state.riders_pay(worth), "probing again");
        assert!(state.stride.wastes_little(8), "not latched");
    }

    /// Two pages of home 0 (not neighbours: `java_ad` would batch them)
    /// and a two-node system to fetch them in.
    fn two_pages(kind: ProtocolKind) -> (Arc<Cluster>, Arc<DsmSystem>, GlobalAddr, GlobalAddr) {
        let cluster = Cluster::new(myrinet_200().machine, 2);
        let alloc = Arc::new(IsoAllocator::new(2));
        let store = DsmStore::new(Arc::clone(&alloc), 2);
        let dsm = DsmSystem::new(Arc::clone(&cluster), store, kind);
        let a = alloc.alloc_page_aligned(3 * SLOTS_PER_PAGE, NodeId(0));
        (cluster, dsm, a, a.offset(2 * SLOTS_PER_PAGE as u64))
    }

    #[test]
    fn a_node_whose_riders_do_not_pay_keeps_no_list_until_it_probes_again() {
        for kind in ProtocolKind::all_extended() {
            let (cluster, dsm, a, b) = two_pages(kind);
            let (n, home) = (NodeId(1), NodeId(0));
            let state = &dsm.fetch_state[n.index()];
            state.riders.tried(RIDER_CREDIT * dsm.rider_worth + 1);
            let mut t = ThreadClock::new();
            for _ in 0..2 {
                let _ = (dsm.get(n, &mut t, a), dsm.get(n, &mut t, b));
                dsm.invalidate_cache(n, &mut t);
            }
            assert!(state.recent[home.index()].lock().is_empty(), "{kind:?}");
            assert_eq!(cluster.node_stats(n).validation_riders, 0, "{kind:?}");
            // Its record fades: the next misses are listed, and the fetch
            // after the next acquire carries them.
            state.riders.halve();
            let _ = (dsm.get(n, &mut t, a), dsm.get(n, &mut t, b));
            dsm.invalidate_cache(n, &mut t);
            let loads = cluster.node_stats(n).page_loads;
            let _ = (dsm.get(n, &mut t, a), dsm.get(n, &mut t, b));
            let after = cluster.node_stats(n);
            let ledger = (after.validation_riders, after.rider_opens);
            assert_eq!(ledger, (1, 1), "{kind:?}");
            assert_eq!(after.page_loads, loads + 1, "{kind:?}");
        }
    }

    /// Litmus (f): the node invalidates — a second thread acquires — while
    /// the reply that confirms a rider is in flight.  The confirmation
    /// belongs to the epoch the request left in and opens nothing.
    #[test]
    fn litmus_a_confirmation_that_crosses_an_invalidation_opens_nothing() {
        for kind in ProtocolKind::all_extended() {
            let (cluster, dsm, a, b) = two_pages(kind);
            let (n, home) = (NodeId(1), NodeId(0));
            let mut t1 = ThreadClock::new();
            let _ = (dsm.get(n, &mut t1, a), dsm.get(n, &mut t1, b));
            dsm.invalidate_cache(n, &mut t1);

            // Thread 1's fetch of `a` leaves with `b` riding...
            let epoch = dsm.fetch_epoch(n);
            let asked = dsm.pick_riders(n, home, a.page(), 1, epoch);
            assert_eq!(asked.len(), 1, "{kind:?}");
            assert_eq!(asked[0].0, b.page(), "{kind:?}");
            // ...thread 2 of the node acquires, and the home is written...
            dsm.put(home, &mut ThreadClock::new(), b, 9);
            dsm.invalidate_cache(n, &mut ThreadClock::new());
            // ...and only now does the (older) "unchanged" answer land.
            dsm.settle_riders(n, home, &asked, 1, epoch, t1.now());

            let before = cluster.node_stats(n);
            assert_eq!(dsm.get(n, &mut t1, b), 9, "{kind:?}");
            let after = cluster.node_stats(n);
            assert_eq!(after.rider_opens, before.rider_opens, "{kind:?}");
            assert_eq!(after.page_loads, before.page_loads + 1, "{kind:?}");

            // Two threads of the node missing on the same page: the second
            // finds it loaded, and the note the first one's neighbour left
            // for a page that is present is simply never used.
            dsm.invalidate_cache(n, &mut t1);
            let epoch = dsm.fetch_epoch(n);
            let asked = dsm.pick_riders(n, home, a.page(), 1, epoch);
            assert_eq!(dsm.get(n, &mut ThreadClock::new(), b), 9, "{kind:?}");
            dsm.settle_riders(n, home, &asked, 1, epoch, t1.now());
            let opens = cluster.node_stats(n).rider_opens;
            assert_eq!(dsm.get(n, &mut t1, b), 9, "{kind:?}");
            assert_eq!(cluster.node_stats(n).rider_opens, opens, "{kind:?}");
            assert!(dsm.pick_riders(n, home, a.page(), 1, epoch).is_empty());
        }
    }
}
