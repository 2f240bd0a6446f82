//! Requester-side page-fetch mechanics of the [`DsmSystem`] engine: the
//! fetch path, the stride prefetch and in-flight transaction completion.
//!
//! Every fetch is conditional (see [`crate::page`], "Page versions"): both
//! paths go through [`DsmSystem::fetch_rpc`], which names the version the
//! frame retains and, through [`DsmSystem::apply_answer`] — which a
//! monitor's grant shares — either re-opens the retained copy, patches it
//! or installs the shipped one.  A fetch carries one page, as does its
//! wire form (`fetch_wire.rs`).  A demand fetch also names the
//! node's indexed dropped copies of that home as riders, and reopens those
//! the reply answers as a grant would ([`DsmSystem::answered`]).
//!
//! This is a second `impl DsmSystem` block (split out of `engine.rs` to
//! keep the engine readable): everything here is mechanism — RPC framing,
//! ticket bookkeeping — parameterised by the protocol, which says whether
//! an installed copy must be opened ([`crate::detection`]).

use std::sync::atomic::{AtomicU64, Ordering};

use hyperion_model::{NodeStats, ThreadClock, VTime};
use hyperion_pm2::{Node, NodeId, PageId};

use crate::config::ProtocolKind;
use crate::diff::{decode_fetch_reply, encode_fetch_request, PageReply};
use crate::engine::DsmSystem;
use crate::gate::{Windowed, GATE_WINDOW};
use crate::page::PageFrame;
use crate::recover::RpcFailure;
use crate::services::grant_cost;

/// Most pages one stride prefetch puts in flight ahead of a scan.
const STRIDE_WINDOW: u64 = 4;

/// What the fetch mechanics remember per node between fetches.
#[derive(Debug)]
pub(crate) struct NodeFetchState {
    /// Per home: one past the last page of this node's last fetch there
    /// (0 = none yet).  A fetch that starts exactly there continues a scan
    /// (the stride rule of [`DsmSystem::issue_stride_fetches`]).
    scan_next: Vec<AtomicU64>,
    /// Stride-prefetch fetches issued / invalidated with the ticket pending.
    pub(crate) stride: Windowed,
    /// Acquires (and explicit invalidations) begun on this node.
    acquires: AtomicU64,
}

impl NodeFetchState {
    pub(crate) fn new(homes: usize) -> Self {
        NodeFetchState {
            scan_next: (0..homes).map(|_| AtomicU64::new(0)).collect(),
            stride: Windowed::default(),
            acquires: AtomicU64::new(0),
        }
    }

    /// Count one acquire; every [`GATE_WINDOW`] of them the stride gate's
    /// record fades by half.
    pub(crate) fn begin_acquire(&self) {
        if (self.acquires.fetch_add(1, Ordering::Relaxed) + 1) % GATE_WINDOW == 0 {
            self.stride.halve();
        }
    }

    /// Note a fetch of `page` from `home`; true if it is the page after the
    /// node's previous fetch from that home.
    pub(crate) fn continues_scan(&self, home: NodeId, page: PageId) -> bool {
        let prev = self.scan_next[home.index()].swap(page.0 + 1, Ordering::Relaxed);
        prev != 0 && prev == page.0
    }
}

impl DsmSystem {
    /// One conditional fetch RPC to `home` for `page`, whose frame on this
    /// node is `frame`, naming the stale copies `riders`, after ending the
    /// page's open stale copy (`pending.rs`).  The frame either has its
    /// retained copy re-opened ("not modified") or patched, or a fresh copy
    /// installed, as has each rider answered.  Returns whether the page
    /// follows this node's previous fetch from `home` (it continues a scan),
    /// the instant the reply arrives and the protected riders it reopened.
    fn fetch_rpc(
        &self,
        node_ref: &Node,
        clock: &mut ThreadClock,
        home: NodeId,
        page: PageId,
        frame: &PageFrame,
        riders: &[(PageId, &PageFrame)],
    ) -> Result<(bool, VTime, Vec<PageId>), RpcFailure> {
        let node = node_ref.id();
        self.drop_if_stale(node_ref, page, frame);
        let retained = frame.version();
        let named: Vec<_> = riders.iter().map(|(p, f)| (*p, f.version())).collect();
        let payload = encode_fetch_request(page, retained, &named);
        let (bytes, completion) =
            self.rpc_to_home(clock, node, node_ref, page, self.page_fetch, &payload)?;
        let malformed = |why| self.malformed_reply(node, page, self.page_fetch, why);
        let stamps: Vec<u64> = named.iter().map(|&(_, v)| v).collect();
        let (reply, answers) = decode_fetch_reply(&bytes, retained, &stamps).map_err(malformed)?;
        let scan = self.fetch_state[node.index()].continues_scan(home, page);
        // A recovery that promoted the frame to home mid-fetch leaves it
        // alone: the (pre-recovery) snapshot would erase newer home writes.
        // The round trip stays charged — it really happened.  The decoder
        // vouched for the stamp against `retained`.
        let opened = !frame.is_home() && self.apply_answer(node_ref, page, frame, reply);
        let answered = riders.iter().zip(answers).map(|(&(page, frame), answer)| {
            let answer = answer.filter(|_| !frame.is_home());
            let applied = answer.map(|a| self.apply_answer(node_ref, page, frame, a));
            (page, frame, applied.is_some())
        });
        let (reopened, unprotected) = self.answered(node, answered);
        self.store
            .note_cached(node, i64::from(opened) + reopened as i64);
        Ok((scan, completion, unprotected))
    }

    /// Act on the home's `answer` for `page`, whose frame on this node is
    /// `frame`: install the page shipped, or re-open
    /// or patch the retained copy, counted in `pages_revalidated` /
    /// `pages_patched`.  Bytes the home did not just ship are in use from
    /// there on, so debug builds check them against the home.  A fetch's
    /// reply and a monitor's grant are both applied here, and each tells the
    /// copy whether it fitted a grant (`grant_cost`).  True if it was absent.
    pub(crate) fn apply_answer(
        &self,
        node_ref: &Node,
        page: PageId,
        frame: &PageFrame,
        answer: PageReply<'_>,
    ) -> bool {
        let stats = &node_ref.stats;
        frame.set_fits_grant(grant_cost(self.cluster.machine(), &answer).is_some());
        let (was_absent, counter, v) = match answer {
            PageReply::Full(v, data) => return frame.install_copy(data, v),
            PageReply::NotModified(v) => (frame.reopen(), &stats.pages_revalidated, v),
            PageReply::Patch(v, entries) => {
                (frame.apply_patch(&entries, v), &stats.pages_patched, v)
            }
        };
        NodeStats::bump(counter);
        self.assert_retained_copy_current(page, frame, v);
        was_absent
    }

    /// The stride prefetch: a fetch from `home` that continued a scan (it
    /// started where the node's previous fetch there ended) puts the next
    /// [`STRIDE_WINDOW`] same-home pages from `first` on in flight, one
    /// overlapped single-page fetch per absent page, so the later demand miss
    /// completes an RPC that is already in flight instead of paying a fresh
    /// round trip.  Each of those fetches moves the scan's end along, so the
    /// miss after the window continues the run.
    ///
    /// The prefetch is throttled by its own measured accuracy — while more
    /// than 1/16 of the node's recent stride fetches turned out wasted
    /// (invalidated untouched), none is issued; the record is windowed
    /// ([`crate::gate::Windowed`]), so a node whose scans went wrong probes
    /// again once it has faded, and a node with fewer than 8 on record (a
    /// newcomer, or one probing again) issues at most two per fetch.  Pages
    /// that are present or home issue nothing.
    fn issue_stride_fetches(
        &self,
        node_ref: &Node,
        clock: &mut ThreadClock,
        home: NodeId,
        first: PageId,
    ) {
        let node = node_ref.id();
        let machine = self.cluster.machine();
        let num_pages = self.store.allocator().num_pages();
        let gate = &self.fetch_state[node.index()].stride;
        let mut issued_now = 0u64;
        for k in 0..STRIDE_WINDOW {
            let page = PageId(first.0 + k);
            if page.index() >= num_pages || self.store.home_of(page) != home {
                return;
            }
            // The low floor makes the throttle bite after a single early
            // waste: a node must prove its accuracy on a healthy issued count
            // before any further misprediction is tolerated, and until it
            // has, it takes a pair of tickets per fetch — a first wrong run
            // (or a re-probe's) costs two fetches, not a window of them.
            if !gate.wastes_little() || (issued_now >= 2 && !gate.proven()) {
                return;
            }
            let frame = self.store.frame(node, page);
            if frame.is_home() || frame.is_present() {
                continue;
            }
            let unprotect = self.protocol == ProtocolKind::JavaPf && frame.is_protected();
            let Ok((_, mut completion, _)) =
                self.fetch_rpc(node_ref, clock, home, page, frame, &[])
            else {
                // The prefetch is an optimisation, so it degrades gracefully:
                // a page the transport cannot serve is simply not issued, and
                // the later demand miss takes the ordinary (retried,
                // recovered) fetch path instead.
                return;
            };
            NodeStats::bump(&node_ref.stats.page_loads);
            NodeStats::bump(&node_ref.stats.stride_fetches_issued);
            gate.tried(1);
            issued_now += 1;
            if frame.is_home() {
                // Promoted mid-fetch (see `fetch_rpc`): charge the round
                // trip, open nothing.
                clock.merge(completion);
                continue;
            }
            if unprotect {
                NodeStats::bump(&node_ref.stats.mprotect_calls);
                completion += machine.dsm.mprotect_call;
            }
            frame.begin_inflight(clock.now().as_ps(), completion.as_ps(), true);
        }
    }

    /// Bring `page` into the local cache from its home node.
    ///
    /// `demand` distinguishes a fetch triggered by an access (the access is
    /// the first use, so the transaction completes on the spot and the full
    /// round trip is charged) from an explicit prefetch, which records an
    /// in-flight ticket and lets the caller keep computing.  A demand fetch
    /// names the node's other indexed dropped copies of the same home as
    /// riders (`fetch_rpc`).  The protected pages it opens, the page and the
    /// reopened riders, cost one `mprotect` per range of open pages.
    pub(crate) fn fetch_page(
        &self,
        node_ref: &Node,
        clock: &mut ThreadClock,
        page: PageId,
        frame: &PageFrame,
        demand: bool,
    ) -> Result<(), RpcFailure> {
        let (node, home) = (node_ref.id(), self.store.home_of(page));
        // An open stale copy was never closed: it opens at no `mprotect`.
        let unprotect = self.protocol == ProtocolKind::JavaPf && frame.is_protected();
        let machine = self.cluster.machine();
        NodeStats::bump(&node_ref.stats.page_loads);
        let taken = demand.then(|| self.take_named(node, home));
        let riders: Vec<_> = (taken.into_iter().flatten())
            .filter(|(p, f)| *p != page && !f.has_inflight())
            .collect();
        let (scan, wire_completion, mut opened) =
            self.fetch_rpc(node_ref, clock, home, page, frame, &riders)?;
        let issue = clock.now();
        // A frame promoted to home mid-fetch was left alone by `fetch_rpc`:
        // it has nothing to open and takes no ticket below.
        let promoted = frame.is_home();
        if unprotect && !promoted {
            opened.push(page);
        }
        // The page and its reopened riders open by one mprotect per range.
        opened.sort_unstable();
        let calls = self.store.protection_ranges(node, &opened, false);
        NodeStats::bump_by(&node_ref.stats.mprotect_calls, calls);
        let mprotect = machine.dsm.mprotect_call.times(calls);
        if demand {
            clock.merge(wire_completion);
            clock.advance(mprotect);
        } else if !promoted {
            // No riders: the calls open the page alone.
            let completion = wire_completion + mprotect;
            frame.begin_inflight(issue.as_ps(), completion.as_ps(), false);
        }
        if scan {
            self.issue_stride_fetches(node_ref, clock, home, PageId(page.0 + 1));
        }
        Ok(())
    }

    /// Complete an in-flight split fetch transaction on its first real use:
    /// merge the completion timestamp (charging the residual latency) and
    /// account the part of the round trip that compute already covered.
    pub(crate) fn complete_inflight(
        &self,
        node_ref: &Node,
        clock: &mut ThreadClock,
        frame: &PageFrame,
    ) {
        let Some((issue_ps, completion_ps, stride)) = frame.take_inflight() else {
            return;
        };
        if stride {
            // This demand miss finished an RPC the stride prefetch had
            // already put in flight.
            NodeStats::bump(&node_ref.stats.stride_fetches_completed);
        }
        let now = clock.now().as_ps();
        let hidden_ps = now.min(completion_ps).saturating_sub(issue_ps);
        if hidden_ps > 0 {
            let cycles = (hidden_ps as f64 / self.cluster.machine().cpu.ps_per_cycle()) as u64;
            NodeStats::bump_by(&node_ref.stats.fetch_overlap_cycles_hidden, cycles.max(1));
        }
        clock.merge(VTime::from_ps(completion_ps));
    }
}
