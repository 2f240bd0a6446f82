//! The consistency-protocol engine behind `java_ic`, `java_pf` and
//! `java_ad`.
//!
//! All protocols implement the Java Memory Model the same way (home-based
//! caching, invalidate on monitor entry, flush field-granularity diffs on
//! monitor exit — §3.1) and differ *only* in how accesses to remote objects
//! are detected (§3.2, §3.3).  The invalidation at an acquire is the lazy
//! form of the paper's: it drops the cached copies the acquirer's learned
//! write notices name at an older stamp ([`DsmSystem::acquire`],
//! `notices.rs`), while the explicit `invalidateCache` drops them all.
//!
//! * **`java_ic`** — every `get`/`put` performs an explicit in-line locality
//!   check; a miss triggers a page fetch.  No page protection, no faults, no
//!   `mprotect`.
//! * **`java_pf`** — `get`/`put` on a present, unprotected page cost nothing
//!   beyond the raw access.  Pages of remote objects are access-protected,
//!   so the first access after initialisation or after a cache invalidation
//!   takes a (simulated) page fault, fetches the page, and pays an `mprotect`
//!   to open it; dropping copies pays an `mprotect` per contiguous run of
//!   them to re-protect it.
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
//! batching), while all mechanism — RPC framing, ticket bookkeeping,
//! batching loops — lives here and in `fetch.rs` / the RPC services.

use std::sync::Arc;

use hyperion_model::{NodeStats, ThreadClock, VTime};
use hyperion_pm2::{
    reply_leg, Cluster, GlobalAddr, Node, NodeId, PageId, ServiceId, SLOTS_PER_PAGE,
};

use crate::config::{
    AdaptiveParams, DeferredFlush, HomeFlushMark, Locality, ProtocolKind, TransportConfig,
};
use crate::detection::{AdMode, Detection, FLUSH_BATCH_PAGES};
use crate::diff::{
    decode_diff_reply, decode_fetch_reply, encode_diff, encode_diff_batch, DiffEntry,
};
use crate::fetch::NodeFetchState;
use crate::fetch_wire::NAMED_COPY_BYTES;
use crate::notices::{NodeLog, Notices};
use crate::oracle::OneCaller;
use crate::page::PageFrame;
use crate::services::{answer_page, grant_cost, HomeService};
use crate::table::DsmStore;

/// The DSM system of one cluster run: the protocol engine plus its services.
///
/// It takes one caller at a time: no two threads are ever inside its
/// methods at once (the `hyperion` runtime runs one application thread, and
/// a direct user takes turns).  Debug builds check it (`crate::oracle`).
pub struct DsmSystem {
    pub(crate) cluster: Arc<Cluster>,
    pub(crate) store: Arc<DsmStore>,
    pub(crate) detection: Detection,
    pub(crate) transport: TransportConfig,
    /// Per node: what the fetch mechanics remember between fetches (scan
    /// ends per home, windowed accuracy gates; see `fetch.rs`).
    pub(crate) fetch_state: Vec<NodeFetchState>,
    /// Per node: the pages its threads made visible, for their releases to
    /// name (see `notices.rs`).
    written: Vec<NodeLog>,
    pub(crate) page_fetch: ServiceId,
    pub(crate) diff_apply: ServiceId,
    /// The one caller inside, checked by debug builds at every public entry
    /// point (`crate::oracle`).
    pub(crate) caller: OneCaller,
}

impl DsmSystem {
    /// Build a DSM system over an existing cluster and store, registering the
    /// page-fetch and diff-apply services with the communication subsystem.
    /// `java_ad` runs with the default [`AdaptiveParams`] and the transport
    /// is the default one; [`DsmSystem::with_config`] sets both.
    pub fn new(cluster: Arc<Cluster>, store: Arc<DsmStore>, kind: ProtocolKind) -> Arc<Self> {
        let (params, transport) = (AdaptiveParams::default(), TransportConfig::default());
        Self::with_config(cluster, store, kind, &params, &transport)
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
        let service = |fetch| {
            cluster.register_service(Arc::new(HomeService {
                store: Arc::clone(&store),
                machine: cluster.machine().clone(),
                fetch,
            }))
        };
        let (page_fetch, diff_apply) = (service(true), service(false));
        let nodes = cluster.num_nodes();
        Arc::new(DsmSystem {
            cluster,
            store,
            detection,
            transport: transport.clone(),
            fetch_state: (0..nodes).map(|_| NodeFetchState::new(nodes)).collect(),
            written: (0..nodes).map(|_| NodeLog::default()).collect(),
            page_fetch,
            diff_apply,
            caller: OneCaller::default(),
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
        let _one = self.caller.enter("DsmSystem::get");
        let node_ref = self.cluster.node(node);
        NodeStats::bump(&node_ref.stats.field_reads);
        let page = addr.page();
        let frame = self.store.frame(node, page);
        self.unwrap_rpc(self.ensure_access(node_ref, clock, page, &frame, 1));
        frame.load_slot(addr.slot())
    }

    /// Modify a field: the `put` primitive of Table 2.
    ///
    /// The modification is recorded with field granularity (dirty-slot
    /// bitmap) so `updateMainMemory` can flush exactly the modified fields.
    pub fn put(&self, node: NodeId, clock: &mut ThreadClock, addr: GlobalAddr, value: u64) {
        let _one = self.caller.enter("DsmSystem::put");
        let node_ref = self.cluster.node(node);
        NodeStats::bump(&node_ref.stats.field_writes);
        let page = addr.page();
        let frame = self.store.frame(node, page);
        self.unwrap_rpc(self.ensure_access(node_ref, clock, page, &frame, 1));
        if frame.store_slot(addr.slot(), value) {
            self.written[node.index()].push([(page, u64::MAX)]);
        }
    }

    /// Classify the current locality of `page` as seen from `node`.
    ///
    /// A pure query: it charges nothing and touches no protocol state, so
    /// tests can observe a copy's state with it.
    pub fn locality(&self, node: NodeId, page: PageId) -> Locality {
        let _one = self.caller.enter("DsmSystem::locality");
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
        let _one = self.caller.enter("DsmSystem::read_slice");
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
            self.unwrap_rpc(self.ensure_access(node_ref, clock, a.page(), &frame, bulk_pages));
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
        let _one = self.caller.enter("DsmSystem::write_slice");
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
            self.unwrap_rpc(self.ensure_access(node_ref, clock, a.page(), &frame, bulk_pages));
            for k in 0..run {
                if frame.store_slot(slot + k, values[done + k]) {
                    self.written[node.index()].push([(a.page(), u64::MAX)]);
                }
            }
            done += run;
        }
    }

    /// Explicitly load a page into the local cache (the `loadIntoCache`
    /// primitive of Table 2).  A no-op for home pages and pages already
    /// cached.
    pub fn load_into_cache(&self, node: NodeId, clock: &mut ThreadClock, page: PageId) {
        let _one = self.caller.enter("DsmSystem::load_into_cache");
        let node_ref = self.cluster.node(node);
        let frame = self.store.frame(node, page);
        if frame.is_home() || (frame.is_present() && !frame.is_protected()) {
            return;
        }
        // An explicit prefetch is not an access: it leaves the page's epoch
        // statistics alone.
        self.unwrap_rpc(self.fetch_pages(node_ref, clock, page, &frame, 1, false, true));
    }

    /// Prefetch every absent page of the `pages` consecutive pages starting
    /// at `first`: the span form of [`DsmSystem::load_into_cache`].
    ///
    /// The whole span is *certain* to be touched (the caller said so), so
    /// under `java_ad` the remaining span rides along in batched fetches on
    /// certainty alone — history speculation is suppressed, because piling
    /// speculative pages onto an explicit prefetch would compound two
    /// guesses and inflate page traffic the program never asked for.
    pub fn prefetch_span(&self, node: NodeId, clock: &mut ThreadClock, first: PageId, pages: u64) {
        let _one = self.caller.enter("DsmSystem::prefetch_span");
        let node_ref = self.cluster.node(node);
        for k in 0..pages {
            let page = PageId(first.0 + k);
            let frame = self.store.frame(node, page);
            if frame.is_home() || (frame.is_present() && !frame.is_protected()) {
                continue;
            }
            let span = (pages - k) as usize;
            self.unwrap_rpc(self.fetch_pages(node_ref, clock, page, &frame, span, false, false));
        }
    }

    /// Invalidate all cached (non-home) pages on `node`: the
    /// `invalidateCache` primitive of Table 2.  Monitors acquire by write
    /// notices instead ([`DsmSystem::acquire`]); this drops every copy.
    ///
    /// Pages holding unflushed modifications are flushed first so that no
    /// update can be lost by an acquire that precedes the matching release.
    /// Under `java_pf` the cached region is re-protected, which costs one
    /// `mprotect` call (§3.3).
    pub fn invalidate_cache(&self, node: NodeId, clock: &mut ThreadClock) {
        let _one = self.caller.enter("DsmSystem::invalidate_cache");
        self.begin_acquire(node);
        self.drop_copies(node, clock, None, None);
    }

    /// The acquire action of a thread whose knowledge just gained `learned`
    /// (merged in from a monitor's, a joined thread's or, at `Thread.start`,
    /// the parent's): drop every present copy they name at an older stamp,
    /// and keep every other copy open at no cost.  Each learned notice costs
    /// `invalidate_cycles_per_page`, and re-protecting the dropped copies one
    /// `mprotect` per run of contiguous pages.
    ///
    /// `granter`, a monitor's home, sent the grant that brought them.  As it
    /// would answer their refetch, its grant patches the node's stale copies
    /// of its pages instead: open ones named here, and dropped ones, which
    /// reopen (`drop_copies`).
    pub fn acquire(
        &self,
        node: NodeId,
        clock: &mut ThreadClock,
        learned: &Notices,
        granter: Option<NodeId>,
    ) {
        let _one = self.caller.enter("DsmSystem::acquire");
        self.begin_acquire(node);
        let machine = self.cluster.machine();
        let per_notice = machine.dsm.invalidate_cycles_per_page;
        clock.advance(machine.cpu.cycles(per_notice * learned.len() as f64));
        let reopened = self.drop_copies(node, clock, Some(learned), granter);
        let kept = self.store.cached_on(node).saturating_sub(reopened);
        NodeStats::bump_by(&self.cluster.node(node).stats.pages_kept, kept);
    }

    /// The release action of a thread whose place in its node's write log
    /// is `cursor`: flush the node's modifications and name every page the
    /// node made visible since the thread's previous release, at the stamp a
    /// copy must carry to include it (for a home write, the stamp that will
    /// fold it in).  The node learns these notices too: a copy older than
    /// the stamp of a write this node flushed — another node's diff landed
    /// in between — is dropped.
    ///
    /// `None` is a thread-level edge, and its flush blocks.  `Some(home)`
    /// releases a monitor on `home`: the diffs for pages `home` homes ride
    /// the release, and the instant the home has applied them is returned
    /// last (none if nothing rode); the other diffs are deferred to the
    /// monitor's next acquire (the returned [`DeferredFlush`]).
    pub fn release(
        &self,
        node: NodeId,
        clock: &mut ThreadClock,
        cursor: &mut u64,
        monitor: Option<NodeId>,
    ) -> (Option<DeferredFlush>, Notices, Option<VTime>) {
        let _one = self.caller.enter("DsmSystem::release");
        let (node_ref, dirty) = (self.cluster.node(node), self.collect_dirty(node));
        let flushed = self.flush_frames(node, node_ref, clock, &dirty, monitor.is_some(), monitor);
        let (flushed, rode) = self.unwrap_rpc(flushed);
        let store = &self.store;
        let stamp_of = |page| store.with_frame(store.home_of(page), page, PageFrame::written_stamp);
        let written = self.written[node.index()].since(cursor).into_iter();
        let resolved = written.map(|(p, s)| (p, if s == u64::MAX { stamp_of(p) } else { s }));
        let written = Notices::from_pairs(resolved.collect());
        self.drop_copies(node, clock, Some(&written), None);
        (flushed, written, rode)
    }

    /// Where a thread that starts on `node` now begins to read the node's
    /// write log: its first [`DsmSystem::release`] names what the node makes
    /// visible from here on.
    pub fn write_log_end(&self, node: NodeId) -> u64 {
        let _one = self.caller.enter("DsmSystem::write_log_end");
        self.written[node.index()].end()
    }

    /// Count one acquire episode of `node`.
    fn begin_acquire(&self, node: NodeId) {
        NodeStats::bump(&self.cluster.node(node).stats.cache_invalidations);
        self.fetch_state[node.index()].begin_acquire();
    }

    /// The one invalidation routine: drop the present copies `named` names
    /// at an older stamp — every cached copy for `None` — flushing a dirty
    /// copy first, and index each dropped copy whose last answer fitted a
    /// grant (`NodeFetchState`; the next answer likely fits too).  A grant
    /// from `granter` patches its pages' copies, whatever detects them, in
    /// one loop (`patch_by_grant`): the stale open ones, which stay open, and
    /// the dropped ones the index held, which the request names at
    /// `NAMED_COPY_BYTES` each and which reopen at one `mprotect` per run of
    /// protected pages.
    /// The `java_ad` epoch of a page closes when a notice outdates its copy
    /// and no patch keeps it open (every page's at `invalidateCache`): when
    /// a detection miss is paid, or would be.  Returns how many reopened.
    fn drop_copies(
        &self,
        node: NodeId,
        clock: &mut ThreadClock,
        named: Option<&Notices>,
        granter: Option<NodeId>,
    ) -> u64 {
        let (node_ref, machine) = (self.cluster.node(node), self.cluster.machine());
        let fetch_state = &self.fetch_state[node.index()];
        let protect = |frame: &PageFrame| self.detection.technique(frame) == AdMode::Protect;
        let requested = granter.map_or_else(Vec::new, |home| fetch_state.take_dropped(home));
        let request_bytes = NAMED_COPY_BYTES * requested.len();
        clock.advance(machine.net.transfer(request_bytes as u64));
        // The present copies to drop, each with the stamp a patch riding the
        // grant must bring it to instead (`None`: nothing rides for it).
        let mut stale = Vec::new();
        match named {
            None => self.store.for_each_frame(node, |page, frame| {
                if !frame.is_home() {
                    self.close_epoch(node_ref, clock, frame);
                    if frame.is_present() {
                        stale.push((page, Arc::clone(frame), None));
                    }
                }
            }),
            Some(named) => {
                let frames = self.store.existing_frames(node, named.iter().map(|e| e.0));
                for ((page, stamp), frame) in named.iter().zip(frames) {
                    // The notice outdates the copy, retained or open.
                    if frame.is_home() || frame.version() >= stamp {
                        continue;
                    }
                    let present = frame.is_present();
                    let rides = present && granter == Some(self.store.home_of(page));
                    if !rides {
                        self.close_epoch(node_ref, clock, &frame);
                    }
                    if present {
                        stale.push((page, frame, rides.then_some(stamp)));
                    }
                }
            }
        }

        // Flush what is pending before a drop or a patch, batched.
        let dirty: Vec<(PageId, Arc<PageFrame>)> = stale
            .iter()
            .filter(|(_, frame, _)| frame.has_dirty_slots())
            .map(|(page, frame, _)| (*page, Arc::clone(frame)))
            .collect();
        let flushed = self.flush_frames(node, node_ref, clock, &dirty, false, None);
        self.unwrap_rpc(flushed);
        // A flush that found its home dead may have promoted a frame to home.
        let (riders, mut stale): (Vec<_>, Vec<_>) = (stale.into_iter())
            .filter(|(_, frame, _)| !frame.is_home())
            .partition(|(_, _, stamp)| stamp.is_some());
        let (mut reopened, mut reopen_runs) = (0, 0);
        if let Some(granter) = granter {
            for (page, frame, stamp) in riders {
                if !self.patch_by_grant(node_ref, clock, granter, page, &frame, stamp) {
                    self.close_epoch(node_ref, clock, &frame);
                    stale.push((page, frame, None));
                }
            }
            (reopened, reopen_runs) = self.reopen_dropped(requested.iter().map(|(page, frame)| {
                let patched = self.patch_by_grant(node_ref, clock, granter, *page, frame, None);
                (*page, &**frame, patched)
            }));
        }
        stale.sort_unstable_by_key(|(page, _, _)| page.0);

        let (mut runs, mut run_end, mut stride_waste, mut dropped) = (0u64, None, 0u64, 0i64);
        for (page, frame, _) in &stale {
            let reprotect = protect(frame);
            runs += u64::from(reprotect && run_end != Some(page.0));
            if frame.fits_grant() {
                fetch_state.note_dropped(self.store.home_of(*page), *page, frame);
            }
            run_end = reprotect.then_some(page.0 + 1);
            // A stride ticket still pending here was a wasted prefetch: the
            // count feeds the throttle in `issue_stride_fetches`.
            stride_waste += u64::from(frame.inflight_is_stride());
            dropped += i64::from(frame.invalidate(reprotect));
        }
        self.store.note_cached(node, reopened as i64 - dropped);
        if stride_waste > 0 {
            NodeStats::bump_by(&node_ref.stats.stride_fetches_wasted, stride_waste);
            fetch_state.stride.outcome(stride_waste);
        }
        let n = stale.len() as u64;
        NodeStats::bump_by(&node_ref.stats.pages_invalidated, n);
        // One `mprotect` covers the whole (iso-address, hence contiguous-ish)
        // cached region when every copy goes; once part of it stays open,
        // one per run of contiguous pages.  The bookkeeping is per dropped
        // copy then, per learned notice otherwise (see `acquire`).
        let mut calls = reopen_runs + runs;
        if named.is_none() {
            let per_page = machine.dsm.invalidate_cycles_per_page;
            clock.advance(machine.cpu.cycles(per_page * n as f64));
            calls = runs.min(1);
        }
        if calls > 0 {
            NodeStats::bump_by(&node_ref.stats.mprotect_calls, calls);
            clock.advance(machine.dsm.mprotect_call.times(calls));
        }
        reopened
    }

    /// Close `frame`'s `java_ad` epoch (see `Detection::close_epoch`),
    /// charging a switch of technique and counting a speculatively batched
    /// copy nobody touched.
    fn close_epoch(&self, node_ref: &Node, clock: &mut ThreadClock, frame: &PageFrame) {
        let (switched, wasted) = self.detection.close_epoch(frame);
        if switched {
            NodeStats::bump(&node_ref.stats.protocol_switches);
            clock.advance(self.cluster.machine().protocol_switch());
        }
        if wasted {
            NodeStats::bump(&node_ref.stats.pages_prefetch_wasted);
            let gate = &self.fetch_state[node_ref.id().index()].speculation;
            gate.outcome(1);
        }
    }

    /// Bring the copy `frame` of `page` — open, flushed and named at `stamp`
    /// by a notice the grant from `granter` brought, or dropped (`None`) —
    /// up to date with the answer a fetch from `granter`, its home, would get
    /// (`answer_page`).  True if the copy is open afterwards: the flush's
    /// write-ack made it current, or the answer fits a grant (`grant_cost`).
    /// A copy with a fetch in flight, or of a page whose home is not
    /// `granter` or was killed by the fault plane, is not patched.
    fn patch_by_grant(
        &self,
        node_ref: &Node,
        clock: &mut ThreadClock,
        granter: NodeId,
        page: PageId,
        frame: &PageFrame,
        stamp: Option<u64>,
    ) -> bool {
        let (retained, home) = (frame.version(), self.store.home_of(page));
        if stamp.is_some_and(|stamp| retained >= stamp) {
            return true;
        }
        let gone = granter != home || self.cluster.transport().is_down(home);
        if gone || frame.has_inflight() {
            return false;
        }
        let (reply, machine) = (&mut Vec::new(), self.cluster.machine());
        // No answer that fits appends nothing, which decodes as nothing.
        answer_page(&self.store, page, retained, Some(machine), reply);
        let Ok((mut answers, _)) = decode_fetch_reply(reply, &[retained], &[]) else {
            return false;
        };
        let answer = answers.remove(0);
        let Some(cost) = grant_cost(machine, &answer) else {
            return false;
        };
        clock.advance(cost);
        self.apply_answer(node_ref, page, frame, answer);
        true
    }

    /// Flush all locally recorded modifications to the corresponding home
    /// nodes: the `updateMainMemory` primitive of Table 2, executed on
    /// monitor exit.
    pub fn update_main_memory(&self, node: NodeId, clock: &mut ThreadClock) {
        let _one = self.caller.enter("DsmSystem::update_main_memory");
        let (node_ref, dirty) = (self.cluster.node(node), self.collect_dirty(node));
        let flushed = self.flush_frames(node, node_ref, clock, &dirty, false, None);
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

    /// Deferred-release form of [`DsmSystem::update_main_memory`]: the diffs
    /// are issued as split transactions, the caller pays only their issue,
    /// and the returned [`DeferredFlush`] names the instant the last one
    /// completes, which the *next acquire of the same monitor* must merge —
    /// exactly the happens-before edge the JMM requires of a release.
    /// With nothing dirty `None` is returned.
    pub fn update_main_memory_deferred(
        &self,
        node: NodeId,
        clock: &mut ThreadClock,
    ) -> Option<DeferredFlush> {
        let _one = self.caller.enter("DsmSystem::update_main_memory_deferred");
        let (node_ref, dirty) = (self.cluster.node(node), self.collect_dirty(node));
        let flushed = self.flush_frames(node, node_ref, clock, &dirty, true, None);
        self.unwrap_rpc(flushed).0
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
        if !self.detection.on_access(&node_ref.stats, clock, frame) {
            return Ok(());
        }
        self.fetch_pages(node_ref, clock, page, frame, bulk_pages, true, true)
    }

    /// Flush the dirty slots of `dirty` (page-id ordered) to their home
    /// nodes, coalescing runs of contiguous same-home pages into one diff
    /// RPC (up to [`FLUSH_BATCH_PAGES`]) exactly like batched page fetches
    /// coalesce the opposite direction.  A diff
    /// for `monitor`'s home rides that monitor's release: it is issued as a
    /// split transaction (only the issue path is charged to `clock`), and
    /// the instant the home has applied the last of them is returned beside
    /// the flush.  With `deferred` set, every other diff RPC is issued that
    /// way too and the per-home completion watermarks are returned as a
    /// [`DeferredFlush`]; blocking mode merges each completion on the spot.
    pub(crate) fn flush_frames(
        &self,
        node: NodeId,
        node_ref: &Node,
        clock: &mut ThreadClock,
        dirty: &[(PageId, Arc<PageFrame>)],
        deferred: bool,
        monitor: Option<NodeId>,
    ) -> Result<(Option<DeferredFlush>, Option<VTime>), crate::recover::RpcFailure> {
        let machine = self.cluster.machine();
        let (mut marks, mut rode): (Vec<HomeFlushMark>, Option<VTime>) = (Vec::new(), None);
        let mut i = 0usize;
        while i < dirty.len() {
            let first = dirty[i].0;
            if dirty[i].1.is_home() {
                // A recovery earlier in this flush promoted it: nothing to send.
                i += 1;
                continue;
            }
            let home = self.store.home_of(first);
            let mut j = i + 1;
            while j < dirty.len()
                && j - i < FLUSH_BATCH_PAGES
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
            let pages = per_page.len();
            NodeStats::bump(&node_ref.stats.diff_messages);
            NodeStats::bump_by(&node_ref.stats.diff_slots_flushed, slots as u64);
            let record = machine.dsm.diff_record_cycles_per_slot * slots as f64;
            clock.advance(machine.cpu.cycles(record));
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
            let rides = monitor == Some(home);
            if rides && self.store.home_of(first) == home {
                // In flight until the home has served it; a ride the fault
                // plane re-routed completes like a blocking flush.
                NodeStats::bump(&node_ref.stats.release_diffs);
                rode = rode.max(Some(completion - reply_leg(machine, reply.len())));
            } else if deferred && !rides {
                // Hand the transaction to the deferred queue: the caller
                // stores the completion watermark on the releasing monitor
                // and the next acquire of that monitor merges it.  Marks
                // are kept per home so one slow home's completion does not
                // park every other home's flush behind it.
                NodeStats::bump(&node_ref.stats.deferred_flushes);
                let issue = clock.now();
                HomeFlushMark {
                    home,
                    issue,
                    completion,
                }
                .stack_onto(&mut marks);
            } else {
                clock.merge(completion);
            }
            let versions = decode_diff_reply(&reply, pages)
                .map_err(|why| self.malformed_reply(node, first, self.diff_apply, why))?;
            // Write-ack forwarding: a copy current before this node's own
            // diff is current after it, at the acknowledged stamp (sound
            // under deferred completion too: the ack only confirms "retained
            // + 1").  The pages enter the node's write log at the
            // acknowledged stamps.
            let mut acked = Vec::with_capacity(pages);
            for (k, post) in versions.into_iter().enumerate() {
                let (page, frame) = &dirty[i + k];
                acked.push((*page, post));
                if !frame.is_home() {
                    frame.forward_version(retained[k], post);
                }
            }
            self.written[node.index()].push(acked);
            i = j;
        }
        let completion = marks.iter().map(|m| m.completion).max();
        let flushed = completion.map(|completion| DeferredFlush {
            issue: clock.now(),
            completion,
            homes: marks,
        });
        Ok((flushed, rode))
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
