//! Requester-side page-fetch mechanics of the [`DsmSystem`] engine: the
//! (possibly batched) fetch path, the stride prefetch and in-flight
//! transaction completion.
//!
//! Every fetch is conditional (see [`crate::page`], "Page versions"): both
//! paths go through [`DsmSystem::fetch_run`], which names the version
//! each frame retains and, through [`DsmSystem::apply_answer`] — which a
//! monitor's grant shares — either re-opens the retained copy, patches it
//! or installs the shipped one.  A demand fetch also names the node's
//! indexed dropped copies of that home as riders, and reopens those the
//! reply answers as a grant would ([`DsmSystem::answered`]).
//!
//! This is a second `impl DsmSystem` block (split out of `engine.rs` to
//! keep the engine readable): everything here is mechanism — RPC framing,
//! batching, ticket bookkeeping — parameterised by the detection's
//! decisions (batch ceiling, re-access prediction, the technique that says
//! whether an installed copy must be opened; see [`crate::detection`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hyperion_model::{NodeStats, ThreadClock, VTime};
use hyperion_pm2::{Node, NodeId, PageId};

use crate::detection::AdMode;
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
    /// Speculatively batched pages installed / invalidated untouched.
    pub(crate) speculation: Windowed,
    /// Acquires (and explicit invalidations) begun on this node.
    acquires: AtomicU64,
}

impl NodeFetchState {
    pub(crate) fn new(homes: usize) -> Self {
        NodeFetchState {
            scan_next: (0..homes).map(|_| AtomicU64::new(0)).collect(),
            stride: Windowed::default(),
            speculation: Windowed::default(),
            acquires: AtomicU64::new(0),
        }
    }

    /// Count one acquire; every [`GATE_WINDOW`] of them both gates' records
    /// fade by half.
    pub(crate) fn begin_acquire(&self) {
        if (self.acquires.fetch_add(1, Ordering::Relaxed) + 1) % GATE_WINDOW == 0 {
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
}

impl DsmSystem {
    /// One conditional fetch RPC to `home` for the contiguous run of its pages
    /// starting at `first`, whose frames on this node are `frames`, naming
    /// the stale copies `riders`, after ending the frames' open stale copies
    /// (`pending.rs`).  Each frame either has its retained copy
    /// re-opened ("not modified") or patched, or a fresh copy installed, as
    /// has each rider answered.  Returns whether the run starts where this
    /// node's previous fetch from `home` ended (it continues a scan), the
    /// instant the reply arrives and the protected riders it reopened.
    fn fetch_run(
        &self,
        node_ref: &Node,
        clock: &mut ThreadClock,
        home: NodeId,
        first: PageId,
        frames: &[&PageFrame],
        riders: &[(PageId, Arc<PageFrame>)],
    ) -> Result<(bool, VTime, Vec<PageId>), RpcFailure> {
        let node = node_ref.id();
        for (k, frame) in (0..).zip(frames) {
            self.drop_if_stale(node_ref, PageId(first.0 + k), frame);
        }
        let retained: Vec<u64> = frames.iter().map(|f| f.version()).collect();
        let named: Vec<_> = riders.iter().map(|(p, f)| (*p, f.version())).collect();
        let payload = encode_fetch_request(first, &retained, &named);
        let (bytes, completion) =
            self.rpc_to_home(clock, node, node_ref, first, self.page_fetch, &payload)?;
        let malformed = |why| self.malformed_reply(node, first, self.page_fetch, why);
        let stamps: Vec<u64> = named.iter().map(|&(_, v)| v).collect();
        let (replies, answers) =
            decode_fetch_reply(&bytes, &retained, &stamps).map_err(malformed)?;
        let scan = self.fetch_state[node.index()].continues_scan(home, first, frames.len());
        let mut opened = 0i64;
        for (k, (frame, reply)) in frames.iter().zip(replies).enumerate() {
            if frame.is_home() {
                // A recovery promoted this frame to home mid-fetch: the
                // (pre-recovery) snapshot would erase newer home writes.  The
                // round trip stays charged — it really happened.
                continue;
            }
            // The decoder vouched for every stamp against `retained[k]`.
            let page = PageId(first.0 + k as u64);
            opened += i64::from(self.apply_answer(node_ref, page, frame, reply));
        }
        let answered = riders.iter().zip(answers).map(|((page, frame), answer)| {
            let answer = answer.filter(|_| !frame.is_home());
            let applied = answer.map(|a| self.apply_answer(node_ref, *page, frame, a));
            (*page, &**frame, applied.is_some())
        });
        let (reopened, unprotected) = self.answered(node, answered);
        self.store.note_cached(node, opened + reopened as i64);
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
            if !gate.wastes_little(8) || (issued_now >= 2 && !gate.proven(8)) {
                return;
            }
            let frame = self.store.frame(node, page);
            if frame.is_home() || frame.is_present() {
                continue;
            }
            let unprotect =
                self.detection.technique(&frame) == AdMode::Protect && frame.is_protected();
            let Ok((_, mut completion, _)) =
                self.fetch_run(node_ref, clock, home, page, &[&frame], &[])
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
                // Promoted mid-fetch (see `fetch_run`): charge the round
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

    /// Bring `page` into the local cache from its home node and, under
    /// batching detection (`java_ad`), opportunistically batch a run
    /// of contiguous successor pages into the same RPC.
    ///
    /// `demand` distinguishes a fetch triggered by an access (the access is
    /// the first use, so the transaction completes on the spot and the full
    /// round trip is charged) from an explicit prefetch, which records an
    /// in-flight ticket and lets the caller keep computing.  A demand fetch
    /// names the node's other indexed dropped copies of the same home as
    /// riders (`fetch_run`).  The protected pages it opens, the run's and
    /// the reopened riders', cost one `mprotect` per range of open pages.
    ///
    /// A successor page joins the batch only when it shares the demanded
    /// page's home, is currently absent, and is either *certain* to be
    /// touched (it lies inside the `bulk_pages` of the access that triggered
    /// the miss, or of the explicit prefetch) or, for a demand fetch,
    /// *predicted* to be touched (the detection predicts re-access from its
    /// epoch history).  The second condition is what keeps batched fetches
    /// from inflating page loads: only pages with demonstrated per-epoch
    /// re-access are speculated on.  Without batching detection the window
    /// is the demanded page alone.
    pub(crate) fn fetch_pages(
        &self,
        node_ref: &Node,
        clock: &mut ThreadClock,
        page: PageId,
        frame: &PageFrame,
        bulk_pages: usize,
        demand: bool,
    ) -> Result<(), RpcFailure> {
        let (node, home) = (node_ref.id(), self.store.home_of(page));
        // An open stale copy was never closed: it opens at no `mprotect`.
        let unprotect = self.detection.technique(frame) == AdMode::Protect && frame.is_protected();
        let max_batch = self.detection.batch_ceiling();

        // Speculation is throttled by its own measured accuracy: while more
        // than 1/16 of the node's recent *speculative* prefetches turned out
        // wasted (invalidated untouched), only pages certain to be accessed
        // may ride along.  Certain (bulk-covered) pages are deliberately not
        // in the denominator — they can never be wasted and would otherwise
        // dilute the bound.  This keeps a mispredicting workload (e.g.
        // dynamic work reassignment) from inflating page traffic noticeably.
        let gate = &self.fetch_state[node.index()].speculation;
        let may_speculate = demand && gate.wastes_little(16);

        // Candidate phase: grow the contiguous window page by page.
        let num_pages = self.store.allocator().num_pages();
        let mut candidates: Vec<(Arc<PageFrame>, bool)> = Vec::new();
        for k in 1..max_batch as u64 {
            let q = PageId(page.0 + k);
            if q.index() >= num_pages || self.store.home_of(q) != home {
                break;
            }
            let qf = self.store.frame(node, q);
            if qf.is_home() || qf.is_present() {
                break;
            }
            let certain = (k as usize) < bulk_pages;
            let predicted = may_speculate && self.detection.predicts_reaccess(&qf);
            if !certain && !predicted {
                break;
            }
            candidates.push((qf, !certain));
        }
        let count = 1 + candidates.len();

        let machine = self.cluster.machine();
        NodeStats::bump_by(&node_ref.stats.page_loads, count as u64);
        if count > 1 {
            NodeStats::bump(&node_ref.stats.batched_fetches);
            NodeStats::bump_by(&node_ref.stats.pages_prefetched, (count - 1) as u64);
            clock.advance(machine.batch_request_overhead((count - 1) as u64));
        }
        let run: Vec<&PageFrame> = std::iter::once(frame)
            .chain(candidates.iter().map(|(qf, _)| &**qf))
            .collect();
        let in_run = page.0..page.0 + count as u64;
        let taken = demand.then(|| self.stale[node.index()].take_named(home));
        let riders: Vec<_> = (taken.into_iter().flatten())
            .filter(|(p, f)| !in_run.contains(&p.0) && !f.has_inflight())
            .collect();
        let (scan, wire_completion, mut opened) =
            self.fetch_run(node_ref, clock, home, page, &run, &riders)?;
        let issue = clock.now();
        // A frame of the run promoted to home mid-fetch was left alone by
        // `fetch_run`: it has nothing to open and takes no ticket below.
        let promoted = frame.is_home();
        if unprotect && !promoted {
            opened.push(page);
        }
        // Opening a batched page that was protection-detected clears its
        // access protection, which costs an mprotect just as the demanded
        // page's fault path does — without it java_ad's modeled cost would be
        // understated for exactly the pages the prefetcher targets.
        let mut speculative_pages = 0u64;
        for (k, (qf, speculative)) in (1..).zip(&candidates) {
            if qf.is_home() {
                continue;
            }
            if self.detection.technique(qf) == AdMode::Protect {
                opened.push(PageId(page.0 + k));
            }
            if *speculative {
                qf.ad().mark_prefetched();
                speculative_pages += 1;
            }
        }
        if speculative_pages > 0 {
            let stats = &node_ref.stats;
            NodeStats::bump_by(&stats.pages_prefetch_speculative, speculative_pages);
            gate.tried(speculative_pages);
        }

        // The run and its reopened riders open by one mprotect per range.
        opened.sort_unstable();
        let calls = self.store.protection_ranges(node, &opened, false);
        NodeStats::bump_by(&node_ref.stats.mprotect_calls, calls);
        let mprotect = machine.dsm.mprotect_call.times(calls);
        if demand {
            clock.merge(wire_completion);
            clock.advance(mprotect);
            // The demanded page completed here, but the rest of the batch is
            // live split transactions finishing with it.  The thread stalled
            // for the whole round trip on the demanded page, so the batch hid
            // nothing — its tickets carry `done` as both issue and completion
            // (zero residual, zero hidden), and only make a slower thread
            // that touches one of its pages first wait until the batch had
            // actually arrived.
            let done = clock.now();
            for (qf, _) in &candidates {
                if !qf.is_home() {
                    qf.begin_inflight(done.as_ps(), done.as_ps(), false);
                }
            }
        } else {
            // No riders: the calls open the run alone.
            let completion = wire_completion + mprotect;
            if !promoted {
                frame.begin_inflight(issue.as_ps(), completion.as_ps(), false);
            }
            for (qf, _) in &candidates {
                if !qf.is_home() {
                    qf.begin_inflight(issue.as_ps(), completion.as_ps(), false);
                }
            }
        }
        if scan {
            self.issue_stride_fetches(node_ref, clock, home, PageId(page.0 + count as u64));
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
