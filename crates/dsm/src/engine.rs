//! The consistency-protocol engine behind `java_ic` and `java_pf`.
//!
//! All protocols implement the Java Memory Model the same way (home-based
//! caching, invalidate on monitor entry, flush field-granularity diffs on
//! monitor exit — §3.1) and differ *only* in how accesses to remote objects
//! are detected (§3.2, §3.3).  The invalidation at an acquire is the lazy
//! form of the paper's: it drops the cached copies the acquirer's learned
//! write notices name at an older stamp ([`DsmSystem::acquire`],
//! `notices.rs`), while the explicit `invalidateCache` drops them all.  A
//! monitor's acquire leaves the copies page protection detects unclosed,
//! behind an in-line check (`pending.rs`).  A monitor's release sends the
//! diffs for the monitor's home along with it and defers the others: it
//! returns the one instant the last of them is home, for the monitor's
//! next acquire to merge ([`DsmSystem::release`]).
//!
//! The protocols differ in access detection alone (`crate::detection`; the
//! engine asks the protocol at every decision point, and all mechanism
//! lives here, in `fetch.rs` and in the RPC services): `java_ic` checks in
//! line on every access; `java_pf` takes a (simulated) page fault on a
//! protected page and pays `mprotect`s to open copies and to re-protect
//! dropped ones, one per maximal address range of pages that have or now
//! take the protection (`DsmStore::protection_ranges`).
//!
//! The engine exposes exactly the primitives of the paper's Table 2, one
//! entry each: [`DsmSystem::load_into_cache`]`(node, clock, first, pages)`,
//! [`DsmSystem::invalidate_cache`], [`DsmSystem::update_main_memory`],
//! [`DsmSystem::get`] and [`DsmSystem::put`].

use std::sync::Arc;

use hyperion_model::{NodeStats, ThreadClock, VTime};
use hyperion_pm2::{
    reply_leg, Cluster, GlobalAddr, Node, NodeId, PageId, ServiceId, SLOTS_PER_PAGE,
};

use crate::config::ProtocolKind;
use crate::diff::{
    decode_diff_reply, decode_fetch_reply, encode_diff, encode_diff_batch, DiffEntry,
};
use crate::fetch::NodeFetchState;
use crate::fetch_wire::NAMED_COPY_BYTES;
use crate::notices::{NodeLog, Notices};
use crate::oracle::OneCaller;
use crate::page::PageFrame;
use crate::pending::StaleCopies;
use crate::services::{answer_page, grant_cost, HomeService};
use crate::table::DsmStore;

/// Largest number of contiguous same-home dirty pages one diff-flush RPC
/// carries, under every protocol ([`DsmSystem::flush_frames`]).
pub(crate) const FLUSH_BATCH_PAGES: usize = 8;

/// The DSM system of one cluster run: the protocol engine plus its services.
///
/// It takes one caller at a time: no two threads are ever inside its
/// methods at once (the `hyperion` runtime runs one application thread, and
/// a direct user takes turns).  Debug builds check it (`crate::oracle`).
pub struct DsmSystem {
    pub(crate) cluster: Arc<Cluster>,
    pub(crate) store: Arc<DsmStore>,
    /// The protocol, which is the detection technique (`detection.rs`).
    pub(crate) protocol: ProtocolKind,
    /// What `java_ic`'s in-line check (and a pending check) costs.
    pub(crate) check_cost: VTime,
    /// What a `java_pf` page fault costs.
    pub(crate) fault_cost: VTime,
    /// Per node: what the fetch mechanics remember between fetches (scan
    /// ends per home, windowed accuracy gates; see `fetch.rs`).
    pub(crate) fetch_state: Vec<NodeFetchState>,
    /// Per node: the pages its threads made visible, for their releases to
    /// name (see `notices.rs`).
    written: Vec<NodeLog>,
    /// Per node: the stale copies it retains, open or dropped (`pending.rs`).
    pub(crate) stale: Vec<StaleCopies>,
    pub(crate) page_fetch: ServiceId,
    pub(crate) diff_apply: ServiceId,
    /// The one caller inside, checked by debug builds at every public entry
    /// point (`crate::oracle`).
    pub(crate) caller: OneCaller,
}

impl DsmSystem {
    /// Build a DSM system over an existing cluster and store, registering the
    /// page-fetch and diff-apply services with the communication subsystem.
    /// The RPCs travel over whatever transport the cluster was built with.
    pub fn new(cluster: Arc<Cluster>, store: Arc<DsmStore>, kind: ProtocolKind) -> Arc<Self> {
        let service = |fetch| {
            cluster.register_service(Arc::new(HomeService {
                store: Arc::clone(&store),
                machine: cluster.machine().clone(),
                fetch,
            }))
        };
        let (page_fetch, diff_apply) = (service(true), service(false));
        let nodes = cluster.num_nodes();
        let machine = cluster.machine();
        let (check_cost, fault_cost) = (machine.cpu.locality_check(), machine.dsm.page_fault);
        Arc::new(DsmSystem {
            cluster,
            store,
            protocol: kind,
            check_cost,
            fault_cost,
            fetch_state: (0..nodes).map(|_| NodeFetchState::new(nodes)).collect(),
            written: (0..nodes).map(|_| NodeLog::default()).collect(),
            stale: (0..nodes).map(|_| StaleCopies::new(nodes)).collect(),
            page_fetch,
            diff_apply,
            caller: OneCaller::default(),
        })
    }

    /// The protocol this system runs.
    #[inline]
    pub fn kind(&self) -> ProtocolKind {
        self.protocol
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
        self.unwrap_rpc(self.ensure_access(node_ref, clock, page, frame));
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
        self.unwrap_rpc(self.ensure_access(node_ref, clock, page, frame));
        if frame.store_slot(addr.slot(), value) {
            self.written[node.index()].push([(page, u64::MAX)]);
        }
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
        self.walk_slice(node, clock, addr, out.len(), false, |_, frame, slot, at| {
            for (value, slot) in out[at].iter_mut().zip(slot..) {
                *value = frame.load_slot(slot);
            }
        });
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
        self.walk_slice(
            node,
            clock,
            addr,
            values.len(),
            true,
            |page, frame, slot, at| {
                for (&value, slot) in values[at].iter().zip(slot..) {
                    if frame.store_slot(slot, value) {
                        self.written[node.index()].push([(page, u64::MAX)]);
                    }
                }
            },
        );
    }

    /// The walk of a bulk transfer of `len` slots from `addr`, counted as
    /// one bulk read (or `write`) of `len` fields: access detection once per
    /// touched page, then `copy(page, frame, first slot, slice range)` over
    /// the page's run.
    fn walk_slice(
        &self,
        node: NodeId,
        clock: &mut ThreadClock,
        addr: GlobalAddr,
        len: usize,
        write: bool,
        mut copy: impl FnMut(PageId, &PageFrame, usize, std::ops::Range<usize>),
    ) {
        if len == 0 {
            return;
        }
        let node_ref = self.cluster.node(node);
        let stats = &node_ref.stats;
        let (bulk, fields) = match write {
            false => (&stats.bulk_reads, &stats.field_reads),
            true => (&stats.bulk_writes, &stats.field_writes),
        };
        NodeStats::bump(bulk);
        NodeStats::bump_by(fields, len as u64);
        let mut done = 0usize;
        while done < len {
            let a = addr.offset(done as u64);
            let run = (SLOTS_PER_PAGE - a.slot()).min(len - done);
            let frame = self.store.frame(node, a.page());
            self.unwrap_rpc(self.ensure_access(node_ref, clock, a.page(), frame));
            copy(a.page(), frame, a.slot(), done..done + run);
            done += run;
        }
    }

    /// Explicitly load every absent page of the `pages` consecutive pages
    /// starting at `first` into `node`'s cache: the `loadIntoCache`
    /// primitive of Table 2.  Home pages and pages already cached are
    /// skipped.  The fetches are split transactions: the caller pays their
    /// issue, and the first real use of a page the residual latency.
    pub fn load_into_cache(
        &self,
        node: NodeId,
        clock: &mut ThreadClock,
        first: PageId,
        pages: u64,
    ) {
        let _one = self.caller.enter("DsmSystem::load_into_cache");
        let node_ref = self.cluster.node(node);
        for k in 0..pages {
            let page = PageId(first.0 + k);
            let frame = self.store.frame(node, page);
            if frame.is_home() || frame.is_present() {
                continue;
            }
            self.unwrap_rpc(self.fetch_page(node_ref, clock, page, frame, false));
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
        self.settle(node, clock);
        self.begin_acquire(node);
        self.drop_copies(node, clock, None, None);
    }

    /// The acquire action of a thread whose knowledge just gained `learned`
    /// (merged in from a monitor's, a joined thread's or, at `Thread.start`,
    /// the parent's): drop every present copy they name at an older stamp,
    /// and keep every other copy open at no cost.  Each learned notice costs
    /// `invalidate_cycles_per_page`, and re-protecting the dropped copies one
    /// `mprotect` per range of pages that are protected already or now.
    ///
    /// `granter`, a monitor's home, sent the grant that brought them.  As it
    /// would answer their refetch, its grant patches the node's stale copies
    /// of its pages instead (`drop_copies`); it leaves the others page
    /// protection detects unclosed (`pending.rs`).  A thread-level acquire
    /// (`granter` is `None`) re-protects the unclosed ones first.
    pub fn acquire(
        &self,
        node: NodeId,
        clock: &mut ThreadClock,
        learned: &Notices,
        granter: Option<NodeId>,
    ) {
        let _one = self.caller.enter("DsmSystem::acquire");
        if granter.is_none() {
            self.settle(node, clock);
        }
        self.begin_acquire(node);
        let machine = self.cluster.machine();
        let per_notice = machine.dsm.invalidate_cycles_per_page;
        clock.advance(machine.cpu.cycles(per_notice * learned.len() as f64));
        let not_kept = self.drop_copies(node, clock, Some(learned), granter);
        let kept = self.store.cached_on(node).saturating_sub(not_kept);
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
    /// monitor's next acquire, which merges the instant returned first: the
    /// latest of their completions (`VTime::ZERO` if none was deferred).
    pub fn release(
        &self,
        node: NodeId,
        clock: &mut ThreadClock,
        cursor: &mut u64,
        monitor: Option<NodeId>,
    ) -> (VTime, Notices, Option<VTime>) {
        let _one = self.caller.enter("DsmSystem::release");
        if monitor.is_none() {
            self.settle(node, clock);
        }
        let (node_ref, dirty) = (self.cluster.node(node), self.collect_dirty(node));
        let flushed = self.flush_frames(node, node_ref, clock, &dirty, monitor);
        let (flushed, rode) = self.unwrap_rpc(flushed);
        let store = &self.store;
        let stamp_of = |page| store.frame(store.home_of(page), page).written_stamp();
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

    /// The one invalidation routine: drop the held copies (present or open)
    /// `named` names at an older stamp — every cached copy for `None` —
    /// flushing a dirty copy first.  A grant from `granter` patches its
    /// pages' stale copies, whatever detects them (`patch_by_grant`): those
    /// named here, and the node's others (`pending.rs`), which the request
    /// names at `NAMED_COPY_BYTES` each; a closed one reopens at one
    /// `mprotect` per range of pages open already or now.  Under a grant the
    /// copies page protection detects are left unclosed; the others are
    /// re-protected at one `mprotect` per range of pages protected already
    /// or now (`DsmStore::protection_ranges`).  Returns how many copies it
    /// reopened or left open and stale: copies not kept open.
    fn drop_copies(
        &self,
        node: NodeId,
        clock: &mut ThreadClock,
        named: Option<&Notices>,
        granter: Option<NodeId>,
    ) -> u64 {
        let (node_ref, machine) = (self.cluster.node(node), self.cluster.machine());
        let stale_copies = &self.stale[node.index()];
        let protect = self.protocol == ProtocolKind::JavaPf;
        // The held copies to drop, each with the stamp a patch riding the
        // grant must bring it to instead (`None`: nothing rides for it).
        let mut stale = Vec::new();
        match named {
            None => self.store.for_each_frame(node, |page, frame| {
                if !frame.is_home() && frame.is_present() {
                    stale.push((page, frame, None));
                }
            }),
            Some(named) => {
                let frames = self.store.existing_frames(node, named.iter().map(|e| e.0));
                for ((page, stamp), frame) in named.iter().zip(frames) {
                    // The notice outdates the copy, retained or open.
                    if frame.is_home() || frame.version() >= stamp {
                        continue;
                    }
                    let held = frame.is_present() || stale_copies.holds_open(page, frame);
                    let rides = held && granter == Some(self.store.home_of(page));
                    if held {
                        stale.push((page, frame, rides.then_some(stamp)));
                    }
                }
            }
        }
        // The request names the granter's other stale copies: a copy a
        // notice of this grant names rides it anyway.
        let mut requested = granter.map_or_else(Vec::new, |home| self.take_named(node, home));
        let riding = |page: &PageId| stale.binary_search_by_key(&page.0, |(p, _, _)| p.0).is_ok();
        requested.retain(|(page, _)| !riding(page));
        let request_bytes = NAMED_COPY_BYTES * requested.len();
        clock.advance(machine.net.transfer(request_bytes as u64));

        // Flush what is pending before a drop or a patch, batched.
        let dirty = stale.iter().map(|&(page, frame, _)| (page, frame));
        let dirty: Vec<_> = dirty.filter(|(_, frame)| frame.has_dirty_slots()).collect();
        let flushed = self.flush_frames(node, node_ref, clock, &dirty, None);
        self.unwrap_rpc(flushed);
        // A flush that found its home dead may have promoted a frame to home.
        let (riders, mut stale): (Vec<_>, Vec<_>) = (stale.into_iter())
            .filter(|(_, frame, _)| !frame.is_home())
            .partition(|(_, _, stamp)| stamp.is_some());
        let (mut reopened, mut unprotected) = (0, Vec::new());
        if let Some(granter) = granter {
            for (page, frame, stamp) in riders {
                if self.patch_by_grant(node_ref, clock, granter, page, frame, stamp) {
                    stale_copies.set(&self.store, page, None);
                } else {
                    stale.push((page, frame, None));
                }
            }
            let answered = requested.iter().map(|&(page, frame)| {
                let patched = self.patch_by_grant(node_ref, clock, granter, page, frame, None);
                (page, frame, patched)
            });
            (reopened, unprotected) = self.answered(node, answered);
        }
        let reopen_ranges = self.store.protection_ranges(node, &unprotected, false);
        self.store.note_cached(node, reopened as i64);
        stale.sort_unstable_by_key(|(page, _, _)| page.0);
        let stale = stale.into_iter().map(|(page, frame, _)| (page, frame));
        let mut left_open = 0;

        // One `mprotect` covers the whole (iso-address, hence contiguous-ish)
        // cached region when every copy goes; once part of it stays open,
        // one per range of pages protected already or now
        // (`DsmStore::protection_ranges`).  The bookkeeping is per dropped
        // copy then, per learned notice otherwise (see `acquire`).
        let calls = if named.is_none() {
            let (n, calls) = self.drop_stale(node_ref, &stale.collect::<Vec<_>>(), true);
            let per_page = machine.dsm.invalidate_cycles_per_page;
            clock.advance(machine.cpu.cycles(per_page * n as f64));
            calls.min(1)
        } else {
            // A grant leaves the copies whose drop re-protects unclosed,
            // behind the pending check; a Check copy's drop is free.
            let (open, now): (Vec<_>, Vec<_>) = stale.partition(|_| granter.is_some() && protect);
            left_open = open.len() as u64;
            for &(page, frame) in &open {
                stale_copies.set(&self.store, page, Some((frame, true)));
                frame.drop_unclosed();
            }
            reopen_ranges + self.drop_stale(node_ref, &now, true).1
        };
        self.charge_mprotect(node_ref, clock, calls);
        reopened + left_open
    }

    /// The drop of the copies `stale` (page order) still held, present or open:
    /// invalidate each, re-protecting those page protection detects if
    /// `reprotect`, and index each whose last answer fitted a grant (the next
    /// likely fits too; `pending.rs`).  Returns how many dropped and the
    /// `mprotect`s that re-protect them, one per range, for the caller.
    pub(crate) fn drop_stale(
        &self,
        node_ref: &Node,
        stale: &[(PageId, &PageFrame)],
        reprotect: bool,
    ) -> (u64, u64) {
        let node = node_ref.id();
        let (fetch_state, stale_copies) =
            (&self.fetch_state[node.index()], &self.stale[node.index()]);
        let (mut reprotected, mut stride_waste, mut dropped) = (Vec::new(), 0u64, 0u64);
        let held = |&&(page, f): &&(PageId, &PageFrame)| {
            !f.is_home() && (f.is_present() || stale_copies.holds_open(page, f))
        };
        for &(page, frame) in stale.iter().filter(held) {
            let reprotect = reprotect && self.protocol == ProtocolKind::JavaPf;
            if reprotect {
                reprotected.push(page);
            }
            let indexed = frame.fits_grant().then_some((frame, false));
            stale_copies.set(&self.store, page, indexed);
            // A stride ticket still pending here was a wasted prefetch: the
            // count feeds the throttle in `issue_stride_fetches`.
            stride_waste += u64::from(frame.inflight_is_stride());
            frame.invalidate(reprotect);
            dropped += 1;
        }
        self.store.note_cached(node, -(dropped as i64));
        if stride_waste > 0 {
            NodeStats::bump_by(&node_ref.stats.stride_fetches_wasted, stride_waste);
            fetch_state.stride.outcome(stride_waste);
        }
        NodeStats::bump_by(&node_ref.stats.pages_invalidated, dropped);
        (
            dropped,
            self.store.protection_ranges(node, &reprotected, true),
        )
    }

    /// Charge `calls` `mprotect`s to `clock`.
    pub(crate) fn charge_mprotect(&self, node_ref: &Node, clock: &mut ThreadClock, calls: u64) {
        if calls > 0 {
            NodeStats::bump_by(&node_ref.stats.mprotect_calls, calls);
            clock.advance(self.cluster.machine().dsm.mprotect_call.times(calls));
        }
    }

    /// Bring the copy `frame` of `page` — held, flushed and named at `stamp`
    /// by a notice the grant from `granter` brought, or indexed (`None`) —
    /// up to date with the answer a fetch from `granter`, its home, would get
    /// (`answer_page`).  True if the copy is current afterwards: the flush's
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
        let Ok((answer, _)) = decode_fetch_reply(reply, retained, &[]) else {
            return false;
        };
        let Some(cost) = grant_cost(machine, &answer) else {
            return false;
        };
        clock.advance(cost);
        self.apply_answer(node_ref, page, frame, answer);
        true
    }

    /// Flush all locally recorded modifications to the corresponding home
    /// nodes, blocking: the `updateMainMemory` primitive of Table 2.  A
    /// monitor's exit flushes through [`DsmSystem::release`] instead.
    pub fn update_main_memory(&self, node: NodeId, clock: &mut ThreadClock) {
        let _one = self.caller.enter("DsmSystem::update_main_memory");
        let (node_ref, dirty) = (self.cluster.node(node), self.collect_dirty(node));
        let flushed = self.flush_frames(node, node_ref, clock, &dirty, None);
        self.unwrap_rpc(flushed);
    }

    /// All non-home frames of `node` holding unflushed modifications, in
    /// page-id order (the shape `flush_frames` batches over).
    fn collect_dirty(&self, node: NodeId) -> Vec<(PageId, &PageFrame)> {
        let mut dirty = Vec::new();
        self.store.for_each_frame(node, |page, frame| {
            if !frame.is_home() && frame.has_dirty_slots() {
                dirty.push((page, frame));
            }
        });
        dirty
    }

    // ----- internal helpers ------------------------------------------------

    /// Apply the protocol's access detection for one access.
    pub(crate) fn ensure_access(
        &self,
        node_ref: &Node,
        clock: &mut ThreadClock,
        page: PageId,
        frame: &PageFrame,
    ) -> Result<(), crate::recover::RpcFailure> {
        // While the node holds open stale copies (`pending.rs`), a `java_pf`
        // access pays the check that asks whether its copy is one, and takes
        // the miss the check found: no fault, and nothing to open.
        let pending = self.stale[node_ref.id().index()].any_open();
        let found = pending && self.drop_if_stale(node_ref, page, frame);
        self.assert_open_copy_found(node_ref.id(), page, frame);
        // First real use of an overlapped fetch completes the transaction:
        // merge the completion timestamp (the residual latency) before the
        // access proceeds.
        self.complete_inflight(node_ref, clock, frame);
        let miss = self.on_access(node_ref, clock, frame, pending, found);
        if pending && self.protocol == ProtocolKind::JavaPf {
            self.pay_rent(node_ref, clock);
        }
        if !miss {
            return Ok(());
        }
        self.fetch_page(node_ref, clock, page, frame, true)
    }

    /// Flush the dirty slots of `dirty` (page-id ordered) to their home
    /// nodes, coalescing runs of contiguous same-home pages into one diff
    /// RPC (up to [`FLUSH_BATCH_PAGES`]).  A diff for `monitor`'s home rides
    /// that monitor's release: it is issued as a split transaction (only the
    /// issue path is charged to `clock`), and
    /// the instant the home has applied the last of them is returned second.
    /// Under a monitor every other diff RPC is issued that way too, and the
    /// latest of their completions is returned first (`VTime::ZERO` if none
    /// was deferred); without one the flush blocks, merging each completion
    /// on the spot.
    pub(crate) fn flush_frames(
        &self,
        node: NodeId,
        node_ref: &Node,
        clock: &mut ThreadClock,
        dirty: &[(PageId, &PageFrame)],
        monitor: Option<NodeId>,
    ) -> Result<(VTime, Option<VTime>), crate::recover::RpcFailure> {
        let machine = self.cluster.machine();
        let (mut deferred, mut rode) = (VTime::ZERO, None);
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
            } else if monitor.is_some() && !rides {
                // Deferred: the caller leaves the latest completion on the
                // releasing monitor, and its next acquire merges it.
                NodeStats::bump(&node_ref.stats.deferred_flushes);
                deferred = deferred.max(completion);
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
        Ok((deferred, rode))
    }
}

impl std::fmt::Debug for DsmSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DsmSystem")
            .field("protocol", &self.protocol.name())
            .field("nodes", &self.cluster.num_nodes())
            .field("pages", &self.store.allocator().num_pages())
            .finish()
    }
}
