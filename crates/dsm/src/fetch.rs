//! Requester-side page-fetch mechanics of the [`DsmSystem`] engine: the
//! (possibly batched) fetch path, the stride prefetch and in-flight
//! transaction completion.
//!
//! Every fetch is conditional (see [`crate::page`], "Page versions"): both
//! paths go through [`DsmSystem::fetch_run`], which names the version
//! each frame retains and either re-opens the retained copy or installs the
//! shipped one — and lets the recent pages of the same home ride along to
//! be validated on the way (`riders.rs`).
//!
//! This is a second `impl DsmSystem` block (split out of `engine.rs` to
//! keep the engine readable): everything here is mechanism — RPC framing,
//! fetch-lock order, ticket bookkeeping — parameterised by the detection's
//! decisions (batch ceiling, re-access prediction, the technique that says
//! whether an installed copy must be opened; see [`crate::detection`]).

use std::sync::Arc;

use hyperion_model::{NodeStats, ThreadClock, VTime};
use hyperion_pm2::{Node, NodeId, PageId};

use crate::detection::AdMode;
use crate::diff::{decode_fetch_reply, encode_fetch_request, PageReply};
use crate::engine::DsmSystem;
use crate::page::PageFrame;
use crate::recover::RpcFailure;

/// Most pages one stride prefetch puts in flight ahead of a scan.
const STRIDE_WINDOW: u64 = 4;

impl DsmSystem {
    /// One conditional fetch RPC to `home` for the contiguous run of its pages
    /// starting at `first`, whose frames on this node are `frames` (the
    /// caller holds their fetch locks).  Each frame either has its retained
    /// copy re-opened ("not modified") or a fresh copy installed.  Returns
    /// whether the run starts where this node's previous fetch from `home`
    /// ended (it continues a scan) and the instant the reply arrives.
    fn fetch_run(
        &self,
        node_ref: &Node,
        clock: &mut ThreadClock,
        home: NodeId,
        first: PageId,
        frames: &[&PageFrame],
    ) -> Result<(bool, VTime), RpcFailure> {
        let node = node_ref.id();
        let retained: Vec<u64> = frames.iter().map(|f| f.version()).collect();
        let epoch = self.fetch_epoch(node);
        let asked = self.pick_riders(node, home, first, frames.len(), epoch);
        self.charge_riders(node_ref, clock, asked.len() as u64);
        let payload = encode_fetch_request(first, &retained, &asked);
        let (bytes, completion) =
            self.rpc_to_home(clock, node, node_ref, first, self.page_fetch, &payload)?;
        let malformed = |why| self.malformed_reply(node, first, self.page_fetch, why);
        let reply = decode_fetch_reply(&bytes, &retained, asked.len()).map_err(malformed)?;
        self.settle_riders(node, home, &asked, reply.unchanged, epoch, completion);
        let scan = self.fetch_state[node.index()].continues_scan(home, first, frames.len());
        let (mut revalidated, mut patched) = (0u64, 0u64);
        for (k, (frame, reply)) in frames.iter().zip(reply.pages).enumerate() {
            if frame.is_home() {
                // A concurrent recovery promoted this frame to home while
                // the fetch was in flight: it already holds the
                // authoritative copy, and installing the (pre-recovery)
                // snapshot would erase newer home writes.  The round trip
                // stays charged — it really happened.
                continue;
            }
            // The decoder vouched for every stamp against `retained[k]`.
            let kept = match reply {
                PageReply::Full(v, data) => {
                    frame.install_copy(data, v);
                    continue;
                }
                PageReply::NotModified(v) => {
                    frame.reopen();
                    revalidated += 1;
                    v
                }
                PageReply::Patch(v, entries) => {
                    frame.apply_patch(&entries, v);
                    patched += 1;
                    v
                }
            };
            // Bytes the home did not just ship are in use from here on.
            self.assert_retained_copy_current(PageId(first.0 + k as u64), frame, kept);
        }
        if revalidated > 0 {
            NodeStats::bump_by(&node_ref.stats.pages_revalidated, revalidated);
        }
        if patched > 0 {
            NodeStats::bump_by(&node_ref.stats.pages_patched, patched);
        }
        Ok((scan, completion))
    }

    /// The stride prefetch: a fetch from `home` that continued a scan (it
    /// started where the node's previous fetch there ended) puts the next
    /// [`STRIDE_WINDOW`] same-home pages from `first` on in flight, one
    /// overlapped single-page fetch per absent page, so the later demand miss
    /// completes an RPC that is already in flight instead of paying a fresh
    /// round trip.  Each of those fetches moves the scan's end along, so the
    /// miss after the window continues the run.  Only the overlapped
    /// transport has tickets to hold them.
    ///
    /// The prefetch is throttled by its own measured accuracy — while more
    /// than 1/16 of the node's recent stride fetches turned out wasted
    /// (invalidated untouched), none is issued; the record is windowed
    /// ([`crate::gate::Windowed`]), so a node whose scans went wrong probes
    /// again once it has faded, and a node with fewer than 8 on record (a
    /// newcomer, or one probing again) issues at most two per fetch.  Pages
    /// that are present, home or contended issue nothing.
    fn issue_stride_fetches(
        &self,
        node_ref: &Node,
        clock: &mut ThreadClock,
        home: NodeId,
        first: PageId,
    ) {
        if !self.transport.overlapped_fetches {
            return;
        }
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
            // A contended fetch lock means another thread is already loading
            // the page; the prefetch has nothing left to add.
            let Some(guard) = frame.fetch_lock().try_lock() else {
                continue;
            };
            if frame.is_present() {
                continue;
            }
            let unprotect = self.detection.technique(&frame) == AdMode::Protect;
            let Ok((_, mut completion)) = self.fetch_run(node_ref, clock, home, page, &[&frame])
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
            frame.begin_inflight_hinted(clock.now().as_ps(), completion.as_ps());
            drop(guard);
        }
    }

    /// Bring `page` into the local cache from its home node and, under
    /// batching detection (`java_ad`), opportunistically batch a run
    /// of contiguous successor pages into the same RPC.
    ///
    /// `demand` distinguishes a fetch triggered by an access (the access is
    /// the first use, so the transaction completes on the spot and the full
    /// round trip is charged, exactly as the blocking transport does) from
    /// an explicit prefetch, which under the overlapped transport records an
    /// in-flight ticket and lets the caller keep computing.
    ///
    /// A successor page joins the batch only when it shares the demanded
    /// page's home, is currently absent, and is either *certain* to be
    /// touched (it lies inside the `bulk_pages` of the access that triggered
    /// the miss) or *predicted* to be touched (`speculate` is set — span
    /// prefetches clear it — and the detection predicts re-access from its
    /// epoch history).  The second condition is what keeps batched fetches
    /// from inflating page loads: only pages with demonstrated per-epoch
    /// re-access are speculated on.  Without batching detection the window
    /// is the demanded page alone.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn fetch_pages(
        &self,
        node: NodeId,
        node_ref: &Node,
        clock: &mut ThreadClock,
        page: PageId,
        frame: &PageFrame,
        unprotect_after: bool,
        bulk_pages: usize,
        demand: bool,
        speculate: bool,
    ) -> Result<(), RpcFailure> {
        let guard = frame.fetch_lock().lock();
        if frame.is_present() && !frame.is_protected() {
            // Another thread on this node completed the load while we were
            // waiting on the fetch lock.
            drop(guard);
            return Ok(());
        }
        let home = self.store.home_of(page);
        if self.open_confirmed(node_ref, clock, home, page, frame, unprotect_after) {
            drop(guard);
            return Ok(());
        }
        let max_batch = self.detection.batch_ceiling();

        // Speculation is throttled by its own measured accuracy: while more
        // than 1/16 of the node's recent *speculative* prefetches turned out
        // wasted (invalidated untouched), only pages certain to be accessed
        // may ride along.  Certain (bulk-covered) riders are deliberately not
        // in the denominator — they can never be wasted and would otherwise
        // dilute the bound.  This keeps a mispredicting workload (e.g.
        // dynamic work reassignment) from inflating page traffic noticeably.
        let gate = &self.fetch_state[node.index()].speculation;
        let may_speculate = speculate && gate.wastes_little(16);

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
        // Lock phase: keep the prefix whose fetch locks are free right now;
        // a contended or concurrently-installed page ends the run (the batch
        // must stay contiguous).
        let mut guards = Vec::with_capacity(candidates.len());
        for (qf, _) in &candidates {
            let Some(g) = qf.fetch_lock().try_lock() else {
                break;
            };
            if qf.is_present() {
                break;
            }
            guards.push(g);
        }
        let batch = guards.len();
        let count = 1 + batch;

        let machine = self.cluster.machine();
        NodeStats::bump_by(&node_ref.stats.page_loads, count as u64);
        if count > 1 {
            NodeStats::bump(&node_ref.stats.batched_fetches);
            NodeStats::bump_by(&node_ref.stats.pages_prefetched, (count - 1) as u64);
            clock.advance(machine.batch_request_overhead((count - 1) as u64));
        }
        let run: Vec<&PageFrame> = std::iter::once(frame)
            .chain(candidates.iter().take(batch).map(|(qf, _)| &**qf))
            .collect();
        let (scan, wire_completion) = self.fetch_run(node_ref, clock, home, page, &run)?;
        if demand {
            self.note_miss(node, home, page);
        }
        let issue = clock.now();
        // A frame of the run promoted to home mid-fetch was left alone by
        // `fetch_run`: it has nothing to open and takes no ticket below.
        let promoted = frame.is_home();
        // Opening a rider that was protection-detected clears its access
        // protection, which costs an mprotect just as the demanded page's
        // fault path does — without it java_ad's modeled cost would be
        // understated for exactly the pages the prefetcher targets.
        let mut riders_protected = false;
        let mut speculative_riders = 0u64;
        for (qf, speculative) in candidates.iter().take(batch) {
            if qf.is_home() {
                continue;
            }
            riders_protected |= self.detection.technique(qf) == AdMode::Protect;
            if *speculative {
                qf.ad().mark_prefetched();
                speculative_riders += 1;
            }
        }
        if speculative_riders > 0 {
            NodeStats::bump_by(
                &node_ref.stats.pages_prefetch_speculative,
                speculative_riders,
            );
            gate.tried(speculative_riders);
        }

        let needs_mprotect = (unprotect_after && !promoted) || riders_protected;
        if needs_mprotect {
            // One mprotect call opens the whole contiguous run.
            NodeStats::bump(&node_ref.stats.mprotect_calls);
        }
        let overlapped = self.transport.overlapped_fetches;
        if demand || !overlapped {
            clock.merge(wire_completion);
            if needs_mprotect {
                clock.advance(machine.dsm.mprotect_call);
            }
            if overlapped {
                // The demanded page completed here, but its riders are live
                // split transactions finishing with this batch.  The thread
                // stalled for the whole round trip on the demanded page, so
                // the riders hid nothing — their tickets carry `done` as
                // both issue and completion (zero residual, zero hidden),
                // and only make a slower thread that touches a rider first
                // wait until the batch had actually arrived.
                let done = clock.now();
                for (qf, _) in candidates.iter().take(batch) {
                    if !qf.is_home() {
                        qf.begin_inflight(done.as_ps(), done.as_ps());
                    }
                }
            }
        } else {
            let completion = if needs_mprotect {
                wire_completion + machine.dsm.mprotect_call
            } else {
                wire_completion
            };
            if !promoted {
                frame.begin_inflight(issue.as_ps(), completion.as_ps());
            }
            for (qf, _) in candidates.iter().take(batch) {
                if !qf.is_home() {
                    qf.begin_inflight(issue.as_ps(), completion.as_ps());
                }
            }
        }
        drop(guards);
        drop(guard);
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
        let Some((issue_ps, completion_ps, hinted)) = frame.take_inflight() else {
            return;
        };
        if hinted {
            // This demand miss finished an RPC the stride prefetch had
            // already put in flight.
            NodeStats::bump(&node_ref.stats.stride_fetches_completed);
        }
        let hidden_ps = clock
            .now()
            .as_ps()
            .min(completion_ps)
            .saturating_sub(issue_ps);
        if hidden_ps > 0 {
            let cycles = hidden_ps as f64 / self.cluster.machine().cpu.ps_per_cycle();
            NodeStats::bump_by(
                &node_ref.stats.fetch_overlap_cycles_hidden,
                (cycles as u64).max(1),
            );
        }
        clock.merge(VTime::from_ps(completion_ps));
    }
}
