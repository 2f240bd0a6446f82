//! The consistency-protocol engine behind `java_ic`, `java_pf` and
//! `java_ad`.
//!
//! All protocols implement the Java Memory Model the same way (home-based
//! caching, invalidate on monitor entry, flush field-granularity diffs on
//! monitor exit — §3.1) and differ *only* in how accesses to remote objects
//! are detected (§3.2, §3.3):
//!
//! * **`java_ic`** — every `get`/`put` performs an explicit in-line locality
//!   check; a miss triggers a page fetch.  No page protection, no faults, no
//!   `mprotect`.
//! * **`java_pf`** — `get`/`put` on a present, unprotected page cost nothing
//!   beyond the raw access.  Pages of remote objects are access-protected,
//!   so the first access after initialisation or after a cache invalidation
//!   takes a (simulated) page fault, fetches the page, and pays an `mprotect`
//!   to open it; monitor-entry invalidation pays an `mprotect` to re-protect
//!   the cached region.
//! * **`java_ad`** — an adaptive extension beyond the paper: every cached
//!   page runs its own state machine between the two techniques above.  A
//!   page tracks how often it is re-accessed after each invalidation and is
//!   flipped — at invalidation time, when its copy is dropped anyway — to
//!   the technique that would have been cheaper, with hysteresis around the
//!   cost-model break-even `n* = ⌈(t_fault + t_mprotect) / t_check⌉` (see
//!   [`hyperion_model::MachineModel::adaptive_break_even`]).  `java_ad` also
//!   batches page fetches: one RPC may carry a run of contiguous same-home
//!   pages, either because an in-flight bulk access is certain to touch them
//!   or because their epoch history shows stable re-access.
//!
//! The engine exposes exactly the primitives of the paper's Table 2:
//! [`DsmSystem::load_into_cache`], [`DsmSystem::invalidate_cache`],
//! [`DsmSystem::update_main_memory`], [`DsmSystem::get`] and
//! [`DsmSystem::put`].
//!
//! Every protocol-variable decision is the access detection's
//! ([`crate::detection`]): the engine holds the run's `Detection` and asks
//! it at the decision points (access, install, invalidation, epoch close,
//! batching), while all mechanism — RPC framing, ticket bookkeeping, lock
//! order, batching loops — lives here and in `fetch.rs` / the RPC services.

use std::sync::Arc;

use hyperion_model::{NodeStats, ThreadClock};
use hyperion_pm2::{Cluster, GlobalAddr, Node, NodeId, PageId, ServiceId, SLOTS_PER_PAGE};

use crate::config::{AdaptiveParams, DeferredFlush, Locality, ProtocolKind, TransportConfig};
use crate::detection::{AdMode, Detection};
use crate::diff::{decode_diff_reply, encode_diff, encode_diff_batch, DiffEntry};
use crate::page::PageFrame;
use crate::riders::{rider_worth, NodeFetchState};
use crate::services::{DiffApplyService, PageFetchService};
use crate::table::DsmStore;

/// The DSM system of one cluster run: the protocol engine plus its services.
pub struct DsmSystem {
    pub(crate) cluster: Arc<Cluster>,
    pub(crate) store: Arc<DsmStore>,
    pub(crate) detection: Detection,
    pub(crate) transport: TransportConfig,
    /// Per node: what the fetch mechanics remember between fetches (recent
    /// pages per home, windowed accuracy gates; see `riders.rs`).
    pub(crate) fetch_state: Vec<NodeFetchState>,
    /// Riders one saved round trip pays for on this cluster's machine.
    pub(crate) rider_worth: u64,
    pub(crate) page_fetch: ServiceId,
    pub(crate) diff_apply: ServiceId,
}

impl DsmSystem {
    /// Build a DSM system over an existing cluster and store, registering the
    /// page-fetch and diff-apply services with the communication subsystem.
    /// `java_ad` runs with the default [`AdaptiveParams`] and the transport
    /// is the default one; [`DsmSystem::with_config`] sets both.
    pub fn new(cluster: Arc<Cluster>, store: Arc<DsmStore>, kind: ProtocolKind) -> Arc<Self> {
        Self::with_config(
            cluster,
            store,
            kind,
            &AdaptiveParams::default(),
            &TransportConfig::default(),
        )
    }

    /// Build a DSM system with explicit adaptive-protocol parameters (they
    /// are resolved against the cluster's machine model and ignored by
    /// `java_ic` / `java_pf`) and an explicit transport configuration.
    pub fn with_config(
        cluster: Arc<Cluster>,
        store: Arc<DsmStore>,
        kind: ProtocolKind,
        params: &AdaptiveParams,
        transport: &TransportConfig,
    ) -> Arc<Self> {
        let detection = Detection::new(kind, params, cluster.machine());
        let cpu = cluster.machine().cpu.clone();
        let dsm = cluster.machine().dsm.clone();
        let replication = transport.replication;
        let page_fetch = cluster.register_service(Arc::new(PageFetchService {
            store: Arc::clone(&store),
            cpu: cpu.clone(),
            dsm: dsm.clone(),
            replication,
        }));
        let diff_apply = cluster.register_service(Arc::new(DiffApplyService {
            store: Arc::clone(&store),
            cpu,
            dsm,
            replication,
        }));
        let nodes = cluster.num_nodes();
        let rider_worth = rider_worth(cluster.machine());
        Arc::new(DsmSystem {
            cluster,
            store,
            detection,
            transport: transport.clone(),
            fetch_state: (0..nodes).map(|_| NodeFetchState::new(nodes)).collect(),
            rider_worth,
            page_fetch,
            diff_apply,
        })
    }

    /// The protocol this system runs.
    #[inline]
    pub fn kind(&self) -> ProtocolKind {
        self.detection.kind
    }

    /// The resolved `java_ad` switching thresholds `(hi, lo)` in absolute
    /// accesses-per-epoch (for tests, tools and the ablation benchmarks;
    /// reported for every protocol).
    pub fn adaptive_thresholds(&self) -> (u64, u64) {
        self.detection.marks()
    }

    /// The transport configuration of this system.
    pub fn transport(&self) -> &TransportConfig {
        &self.transport
    }

    /// The cluster this system runs on.
    #[inline]
    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    /// The shared page store.
    #[inline]
    pub fn store(&self) -> &Arc<DsmStore> {
        &self.store
    }

    /// Retrieve a field (an 8-byte slot): the `get` primitive of Table 2.
    ///
    /// Charges the protocol-dependent access-detection cost to `clock` and
    /// fetches the containing page if it is not available locally.
    pub fn get(&self, node: NodeId, clock: &mut ThreadClock, addr: GlobalAddr) -> u64 {
        let node_ref = self.cluster.node(node);
        NodeStats::bump(&node_ref.stats.field_reads);
        let page = addr.page();
        let frame = self.store.frame(node, page);
        let access = self.ensure_access(node, node_ref, clock, page, &frame, 1);
        self.unwrap_rpc(access);
        frame.load_slot(addr.slot())
    }

    /// Modify a field: the `put` primitive of Table 2.
    ///
    /// The modification is recorded with field granularity (dirty-slot
    /// bitmap) so `updateMainMemory` can flush exactly the modified fields.
    pub fn put(&self, node: NodeId, clock: &mut ThreadClock, addr: GlobalAddr, value: u64) {
        let node_ref = self.cluster.node(node);
        NodeStats::bump(&node_ref.stats.field_writes);
        let page = addr.page();
        let frame = self.store.frame(node, page);
        let access = self.ensure_access(node, node_ref, clock, page, &frame, 1);
        self.unwrap_rpc(access);
        frame.store_slot(addr.slot(), value);
    }

    /// Classify the current locality of `page` as seen from `node`.
    ///
    /// This is a pure query: it charges nothing and touches no protocol
    /// state.  Callers that want the paper's in-line check semantics (one
    /// check, one check cost) should go through the runtime layer, which
    /// charges the protocol-dependent cost on top.
    pub fn locality(&self, node: NodeId, page: PageId) -> Locality {
        self.store.with_frame(node, page, |f| {
            if f.is_home() {
                Locality::Local
            } else if f.is_present() && !f.is_protected() {
                Locality::CachedRemote
            } else {
                Locality::Remote
            }
        })
    }

    /// Bulk read of `out.len()` consecutive slots starting at `addr`: the
    /// per-*page* counterpart of [`DsmSystem::get`].
    ///
    /// Access detection is performed once per touched page instead of once
    /// per element: under `java_ic` a slice spanning `p` pages costs `p`
    /// in-line checks (against `out.len()` for the element-wise loop); under
    /// `java_pf` the behaviour is unchanged (faults were already per-page).
    /// Consistency is identical to the element-wise loop — both read the
    /// node's current copies and are only as fresh as the last acquire.
    pub fn read_slice(
        &self,
        node: NodeId,
        clock: &mut ThreadClock,
        addr: GlobalAddr,
        out: &mut [u64],
    ) {
        if out.is_empty() {
            return;
        }
        let node_ref = self.cluster.node(node);
        NodeStats::bump(&node_ref.stats.bulk_reads);
        NodeStats::bump_by(&node_ref.stats.field_reads, out.len() as u64);
        let mut done = 0usize;
        while done < out.len() {
            let a = addr.offset(done as u64);
            let slot = a.slot();
            let run = (SLOTS_PER_PAGE - slot).min(out.len() - done);
            let frame = self.store.frame(node, a.page());
            // Pages this slice is still certain to touch, counting the
            // current one — the batching hint for `java_ad` fetches.
            let bulk_pages = 1 + (out.len() - done - run).div_ceil(SLOTS_PER_PAGE);
            let access = self.ensure_access(node, node_ref, clock, a.page(), &frame, bulk_pages);
            self.unwrap_rpc(access);
            for k in 0..run {
                out[done + k] = frame.load_slot(slot + k);
            }
            done += run;
        }
    }

    /// Bulk write of `values` to consecutive slots starting at `addr`: the
    /// per-*page* counterpart of [`DsmSystem::put`].
    ///
    /// Like [`DsmSystem::read_slice`], detection is paid once per touched
    /// page.  Writes are recorded in the ordinary dirty-slot bitmaps, so the
    /// next `updateMainMemory` flushes exactly the modified fields — bulk
    /// writes lose nothing of the field-granularity diffing.
    pub fn write_slice(
        &self,
        node: NodeId,
        clock: &mut ThreadClock,
        addr: GlobalAddr,
        values: &[u64],
    ) {
        if values.is_empty() {
            return;
        }
        let node_ref = self.cluster.node(node);
        NodeStats::bump(&node_ref.stats.bulk_writes);
        NodeStats::bump_by(&node_ref.stats.field_writes, values.len() as u64);
        let mut done = 0usize;
        while done < values.len() {
            let a = addr.offset(done as u64);
            let slot = a.slot();
            let run = (SLOTS_PER_PAGE - slot).min(values.len() - done);
            let frame = self.store.frame(node, a.page());
            let bulk_pages = 1 + (values.len() - done - run).div_ceil(SLOTS_PER_PAGE);
            let access = self.ensure_access(node, node_ref, clock, a.page(), &frame, bulk_pages);
            self.unwrap_rpc(access);
            for k in 0..run {
                frame.store_slot(slot + k, values[done + k]);
            }
            done += run;
        }
    }

    /// Explicitly load a page into the local cache (the `loadIntoCache`
    /// primitive of Table 2).  A no-op for home pages and pages already
    /// cached.
    pub fn load_into_cache(&self, node: NodeId, clock: &mut ThreadClock, page: PageId) {
        let node_ref = self.cluster.node(node);
        let frame = self.store.frame(node, page);
        if frame.is_home() || (frame.is_present() && !frame.is_protected()) {
            return;
        }
        // An explicit prefetch is not an access: it leaves the page's epoch
        // statistics alone.  The mprotect that opens the page is only due if
        // the page was protection-detected.
        let unprotect = self.detection.technique(&frame) == AdMode::Protect;
        let fetched = self.fetch_pages(
            node, node_ref, clock, page, &frame, unprotect, 1, false, true,
        );
        self.unwrap_rpc(fetched);
    }

    /// Prefetch every absent page of the `pages` consecutive pages starting
    /// at `first`: the span form of [`DsmSystem::load_into_cache`].
    ///
    /// The whole span is *certain* to be touched (the caller said so), so
    /// under `java_ad` the remaining span rides along in batched fetches on
    /// certainty alone — history speculation is suppressed, because piling
    /// speculative riders onto an explicit prefetch would compound two
    /// guesses and inflate page traffic the program never asked for.
    pub fn prefetch_span(&self, node: NodeId, clock: &mut ThreadClock, first: PageId, pages: u64) {
        let node_ref = self.cluster.node(node);
        for k in 0..pages {
            let page = PageId(first.0 + k);
            let frame = self.store.frame(node, page);
            if frame.is_home() || (frame.is_present() && !frame.is_protected()) {
                continue;
            }
            let unprotect = self.detection.technique(&frame) == AdMode::Protect;
            let span = (pages - k) as usize;
            let fetched = self.fetch_pages(
                node, node_ref, clock, page, &frame, unprotect, span, false, false,
            );
            self.unwrap_rpc(fetched);
        }
    }

    /// Invalidate all cached (non-home) pages on `node`: the
    /// `invalidateCache` primitive of Table 2, executed on monitor entry.
    ///
    /// Pages holding unflushed modifications are flushed first so that no
    /// update can be lost by an acquire that precedes the matching release.
    /// Under `java_pf` the cached region is re-protected, which costs one
    /// `mprotect` call (§3.3).
    pub fn invalidate_cache(&self, node: NodeId, clock: &mut ThreadClock) {
        let node_ref = self.cluster.node(node);
        NodeStats::bump(&node_ref.stats.cache_invalidations);
        let fetch_state = &self.fetch_state[node.index()];
        fetch_state.begin_invalidate();

        let mut cached: Vec<(PageId, Arc<PageFrame>)> = Vec::new();
        let mut switches = 0u64;
        let mut wasted = 0u64;
        self.store.for_each_frame(node, |page, frame| {
            if frame.is_home() {
                return;
            }
            let (switched, wasted_prefetch) = self.detection.close_epoch(frame);
            switches += u64::from(switched);
            wasted += u64::from(wasted_prefetch);
            if frame.is_present() {
                cached.push((page, Arc::clone(frame)));
            }
        });

        let machine = self.cluster.machine();
        if switches > 0 {
            NodeStats::bump_by(&node_ref.stats.protocol_switches, switches);
            clock.advance(machine.protocol_switch().times(switches));
        }
        if wasted > 0 {
            NodeStats::bump_by(&node_ref.stats.pages_prefetch_wasted, wasted);
            fetch_state.speculation.outcome(wasted);
        }
        if cached.is_empty() {
            return;
        }

        // Flush any pending modifications before dropping the copies
        // (batched like `updateMainMemory`'s flush).
        let dirty: Vec<(PageId, Arc<PageFrame>)> = cached
            .iter()
            .filter(|(_, frame)| frame.has_dirty_slots())
            .map(|(page, frame)| (*page, Arc::clone(frame)))
            .collect();
        let flushed = self.flush_frames(node, node_ref, clock, &dirty);
        self.unwrap_rpc(flushed);
        // A flush that found its home dead ran the recovery, which may have
        // promoted one of these frames to home mid-invalidation; re-filter
        // so the new main-memory copy survives.
        cached.retain(|(_, frame)| !frame.is_home());
        if cached.is_empty() {
            return;
        }

        let mut reprotected = false;
        let mut stride_waste = 0u64;
        for (_, frame) in &cached {
            let reprotect = self.detection.technique(frame) == AdMode::Protect;
            reprotected |= reprotect;
            // A stride ticket still pending here means the predicted demand
            // miss never came: the prefetch was wasted.  The count feeds the
            // throttle in `issue_stride_fetches`.
            if frame.inflight_is_hinted() {
                stride_waste += 1;
            }
            frame.invalidate(reprotect);
        }
        if stride_waste > 0 {
            NodeStats::bump_by(&node_ref.stats.stride_fetches_wasted, stride_waste);
            fetch_state.stride.outcome(stride_waste);
        }

        let n = cached.len() as u64;
        NodeStats::bump_by(&node_ref.stats.pages_invalidated, n);
        clock.advance(
            machine
                .cpu
                .cycles(machine.dsm.invalidate_cycles_per_page * n as f64),
        );
        if reprotected {
            // One mprotect call covers the (iso-address, hence contiguous-ish)
            // cached region that is being re-protected.
            NodeStats::bump(&node_ref.stats.mprotect_calls);
            clock.advance(machine.dsm.mprotect_call);
        }
    }

    /// Flush all locally recorded modifications to the corresponding home
    /// nodes: the `updateMainMemory` primitive of Table 2, executed on
    /// monitor exit.
    pub fn update_main_memory(&self, node: NodeId, clock: &mut ThreadClock) {
        let node_ref = self.cluster.node(node);
        let dirty = self.collect_dirty(node);
        let flushed = self.flush_frames(node, node_ref, clock, &dirty);
        self.unwrap_rpc(flushed);
    }

    /// All non-home frames of `node` holding unflushed modifications, in
    /// page-id order (the shape `flush_frames` batches over).
    fn collect_dirty(&self, node: NodeId) -> Vec<(PageId, Arc<PageFrame>)> {
        let mut dirty: Vec<(PageId, Arc<PageFrame>)> = Vec::new();
        self.store.for_each_frame(node, |page, frame| {
            if !frame.is_home() && frame.has_dirty_slots() {
                dirty.push((page, Arc::clone(frame)));
            }
        });
        dirty
    }

    /// Deferred-release form of [`DsmSystem::update_main_memory`]: the diff
    /// batches are issued as split transactions, the caller is charged only
    /// the issue path, and the returned [`DeferredFlush`] names the virtual
    /// instant the last flush RPC completes.  The caller (the monitor layer)
    /// must make the *next acquire of the same monitor* merge that instant —
    /// that is exactly the happens-before edge the JMM requires of a
    /// release, so deferring to the hand-off is semantics-preserving.
    ///
    /// Without [`TransportConfig::deferred_flush`] (or with nothing dirty)
    /// this falls back to the blocking flush and returns `None`.
    pub fn update_main_memory_deferred(
        &self,
        node: NodeId,
        clock: &mut ThreadClock,
    ) -> Option<DeferredFlush> {
        if !self.transport.deferred_flush {
            self.update_main_memory(node, clock);
            return None;
        }
        let node_ref = self.cluster.node(node);
        let dirty = self.collect_dirty(node);
        let flushed = self.flush_frames_inner(node, node_ref, clock, &dirty, true);
        self.unwrap_rpc(flushed)
    }

    /// True if `node` currently holds an accessible copy of `page`.
    pub fn is_cached(&self, node: NodeId, page: PageId) -> bool {
        self.store.with_frame(node, page, |f| {
            f.is_home() || (f.is_present() && !f.is_protected())
        })
    }

    /// Number of non-home pages currently cached (present) on `node`.
    pub fn pages_cached_on(&self, node: NodeId) -> usize {
        let mut n = 0;
        self.store.for_each_frame(node, |_, f| {
            if !f.is_home() && f.is_present() {
                n += 1;
            }
        });
        n
    }

    // ----- internal helpers ------------------------------------------------

    /// Apply the protocol's access detection for one access.
    ///
    /// `bulk_pages` is the number of consecutive pages (including this one)
    /// the caller is certain to touch — 1 for scalar `get`/`put`, the
    /// remaining page span for bulk slice transfers.  Only batching
    /// detection (`java_ad`) consults it, to size batched fetches.
    pub(crate) fn ensure_access(
        &self,
        node: NodeId,
        node_ref: &Node,
        clock: &mut ThreadClock,
        page: PageId,
        frame: &PageFrame,
        bulk_pages: usize,
    ) -> Result<(), crate::recover::RpcFailure> {
        // First real use of an overlapped fetch completes the transaction:
        // merge the completion timestamp (the residual latency) before the
        // access proceeds.
        self.complete_inflight(node_ref, clock, frame);
        let Some(technique) = self.detection.on_access(&node_ref.stats, clock, frame) else {
            return Ok(());
        };
        let unprotect = technique == AdMode::Protect;
        self.fetch_pages(
            node, node_ref, clock, page, frame, unprotect, bulk_pages, true, true,
        )
    }

    /// Flush the dirty slots of `dirty` (page-id ordered) to their home
    /// nodes, coalescing runs of contiguous same-home pages into one diff
    /// RPC (up to [`TransportConfig::max_flush_batch_pages`]) exactly
    /// like batched page fetches coalesce the opposite direction.
    pub(crate) fn flush_frames(
        &self,
        node: NodeId,
        node_ref: &Node,
        clock: &mut ThreadClock,
        dirty: &[(PageId, Arc<PageFrame>)],
    ) -> Result<(), crate::recover::RpcFailure> {
        self.flush_frames_inner(node, node_ref, clock, dirty, false)
            .map(|_| ())
    }

    /// [`DsmSystem::flush_frames`] with an explicit completion mode: with
    /// `deferred` set, each diff RPC is issued as a split transaction (only
    /// the issue path is charged to `clock`) and the per-home completion
    /// watermarks are returned as a [`DeferredFlush`]; blocking mode merges
    /// each completion on the spot and returns `None`.
    fn flush_frames_inner(
        &self,
        node: NodeId,
        node_ref: &Node,
        clock: &mut ThreadClock,
        dirty: &[(PageId, Arc<PageFrame>)],
        deferred: bool,
    ) -> Result<Option<DeferredFlush>, crate::recover::RpcFailure> {
        let machine = self.cluster.machine();
        let max_batch = self.transport.max_flush_batch_pages.max(1);
        let mut marks: Vec<crate::config::HomeFlushMark> = Vec::new();
        let mut i = 0usize;
        while i < dirty.len() {
            let (first, _) = dirty[i];
            let home = self.store.home_of(first);
            let mut j = i + 1;
            while j < dirty.len()
                && j - i < max_batch
                && dirty[j].0 .0 == first.0 + (j - i) as u64
                && self.store.home_of(dirty[j].0) == home
            {
                j += 1;
            }
            // Stamp first, slots second: what write-ack forwarding below
            // steps from is the copy the collected values were part of.
            let retained: Vec<u64> = dirty[i..j].iter().map(|(_, f)| f.version()).collect();
            let per_page: Vec<Vec<DiffEntry>> =
                dirty[i..j].iter().map(|(_, f)| f.take_dirty()).collect();
            let slots: usize = per_page.iter().map(Vec::len).sum();
            if slots == 0 {
                // Every page in the run was flushed by someone else already.
                i = j;
                continue;
            }
            let pages = per_page.len();
            NodeStats::bump(&node_ref.stats.diff_messages);
            NodeStats::bump_by(&node_ref.stats.diff_slots_flushed, slots as u64);
            clock.advance(
                machine
                    .cpu
                    .cycles(machine.dsm.diff_record_cycles_per_slot * slots as f64),
            );
            let payload = if pages == 1 {
                encode_diff(first, &per_page[0])
            } else {
                NodeStats::bump(&node_ref.stats.batched_flushes);
                clock.advance(machine.batch_flush_overhead((pages - 1) as u64));
                encode_diff_batch(first, &per_page)
            };
            NodeStats::bump_by(&node_ref.stats.diff_bytes, payload.len() as u64);
            // Anchor re-routing on the first page of the run: the diff-apply
            // handler resolves each page's home itself, so after a recovery
            // the identical payload is valid against the re-elected home.
            let (reply, completion) =
                self.rpc_to_home(clock, node, node_ref, first, self.diff_apply, &payload)?;
            if deferred {
                // Hand the transaction to the deferred queue: the caller
                // stores the completion watermark on the releasing monitor
                // and the next acquire of that monitor merges it.  Marks
                // are kept per home so one slow home's completion does not
                // park every other home's flush behind it.
                NodeStats::bump(&node_ref.stats.deferred_flushes);
                let issue = clock.now();
                match marks.iter_mut().find(|m| m.home == home) {
                    Some(m) => {
                        m.issue = m.issue.max(issue);
                        m.completion = m.completion.max(completion);
                    }
                    None => marks.push(crate::config::HomeFlushMark {
                        home,
                        issue,
                        completion,
                    }),
                }
            } else {
                clock.merge(completion);
            }
            let versions = decode_diff_reply(&reply, pages)
                .map_err(|why| self.malformed_reply(node, first, self.diff_apply, why))?;
            // Write-ack forwarding: a copy that was current before this
            // node's own diff is current after it, at the acknowledged
            // stamp — the writer need not refetch the page it just wrote.
            // (Sound under deferred completion too: the writer could have
            // predicted "retained + 1"; the ack only confirms it.)  Only a
            // page this message actually wrote qualifies: for a rider whose
            // dirty slots another thread of this node flushed first, the
            // step to the home's stamp may be somebody else's write.
            for (k, post) in versions.into_iter().enumerate() {
                let frame = &dirty[i + k].1;
                if !per_page[k].is_empty() && !frame.is_home() {
                    frame.forward_version(retained[k], post);
                }
            }
            i = j;
        }
        if marks.is_empty() {
            return Ok(None);
        }
        let completion = marks
            .iter()
            .map(|m| m.completion)
            .max()
            .expect("non-empty marks");
        Ok(Some(DeferredFlush {
            issue: clock.now(),
            completion,
            homes: marks,
        }))
    }
}

impl std::fmt::Debug for DsmSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DsmSystem")
            .field("protocol", &self.detection.kind.name())
            .field("nodes", &self.cluster.num_nodes())
            .field("pages", &self.store.allocator().num_pages())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperion_model::myrinet_200;
    use hyperion_pm2::IsoAllocator;

    /// Litmus for write-ack forwarding with two flushing threads on one
    /// node.  Thread T1 collected dirty pages P and Q; thread T2 of the same
    /// node flushed P first; a foreign node then wrote P; T1's batch now
    /// carries P with no entries.  The acknowledgement must not forward the
    /// node's copy of P over the foreign write: the next acquire has to
    /// fetch the page and see it.
    #[test]
    fn litmus_an_empty_rider_is_never_forwarded_over_a_foreign_diff() {
        for kind in ProtocolKind::all_extended() {
            let cluster = Cluster::new(myrinet_200().machine, 3);
            let alloc = Arc::new(IsoAllocator::new(3));
            let store = DsmStore::new(Arc::clone(&alloc), 3);
            let dsm = DsmSystem::new(Arc::clone(&cluster), store, kind);
            let p = alloc.alloc_page_aligned(2 * SLOTS_PER_PAGE, NodeId(0));
            let q = p.offset(SLOTS_PER_PAGE as u64);
            let (n, w) = (NodeId(1), NodeId(2));
            let (mut t1, mut t2, mut tw) =
                (ThreadClock::new(), ThreadClock::new(), ThreadClock::new());

            // T1 wrote P and Q and is about to release: its dirty list.
            dsm.put(n, &mut t1, p, 1);
            dsm.put(n, &mut t1, q, 1);
            let dirty = dsm.collect_dirty(n);
            assert_eq!(dirty.len(), 2, "{kind:?}");
            // T2 gets there first; T1 meanwhile dirtied Q again.
            dsm.update_main_memory(n, &mut t2);
            dsm.put(n, &mut t1, q.offset(1), 2);
            let retained = dirty[0].1.version();
            // A foreign writer moves P's home stamp once more.
            dsm.put(w, &mut tw, p.offset(1), 77);
            dsm.update_main_memory(w, &mut tw);

            // T1's batch: [P: nothing, Q: one slot].
            let before = cluster.node_stats(n).batched_flushes;
            let flushed = dsm.flush_frames(n, cluster.node(n), &mut t1, &dirty);
            dsm.unwrap_rpc(flushed);
            assert_eq!(cluster.node_stats(n).batched_flushes, before + 1);
            assert_eq!(dirty[0].1.version(), retained, "{kind:?}: P not forwarded");

            // Copies the home confirmed instead of shipping: by the page's
            // own fetch, or by a rider on its neighbour's.
            let confirmed = || {
                let s = cluster.node_stats(n);
                s.pages_revalidated + s.rider_opens
            };
            let before = confirmed();
            dsm.invalidate_cache(n, &mut t1);
            assert_eq!(dsm.get(n, &mut t1, p.offset(1)), 77, "{kind:?}");
            assert_eq!(dsm.get(n, &mut t1, p), 1, "{kind:?}");
            assert_eq!(confirmed(), before, "{kind:?}");
            // Q was written by this node alone and stays current.
            assert_eq!(dsm.get(n, &mut t1, q.offset(1)), 2, "{kind:?}");
            assert_eq!(confirmed(), before + 1, "{kind:?}: Q forwarded");
        }
    }
}
