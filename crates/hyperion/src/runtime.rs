//! The Hyperion runtime: configuration, the shared cluster image, thread
//! contexts and the run harness.
//!
//! A [`HyperionRuntime`] is the Rust analogue of "one distributed JVM over
//! the cluster": it owns the cluster model, the iso-address allocator, the
//! DSM system configured with one of the two access-detection protocols and
//! the thread-id counter.  [`HyperionRuntime::run`] executes
//! a program — a closure playing the role of `main` — on node 0 and returns
//! both the program's result and a [`RunReport`] with the virtual execution
//! time and the per-node event statistics.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use hyperion_dsm::{DsmStore, DsmSystem, Notices, ProtocolKind, TransportConfig};
use hyperion_model::sync::lock;
use hyperion_model::vtime::TimeWatermark;
use hyperion_model::{
    ClusterSpec, CpuModel, MachineModel, NodeStats, OpCounts, StatsSnapshot, ThreadClock, VTime,
    WireServiceSnapshot, WorkEstimate,
};
use hyperion_pm2::{Cluster, GlobalAddr, IsoAllocator, NodeId, ThreadId};

use crate::order::{Baton, Key};
use crate::thread::HThreadHandle;

/// Configuration of a Hyperion execution.
///
/// The paper used "only one application thread per node" (§4.3), and so do
/// the benchmark kernels: worker `t` runs on node `t`
/// ([`ThreadCtx::spawn_on`]).
#[derive(Clone, Debug)]
pub struct HyperionConfig {
    /// Which of the paper's clusters (or a custom one) to model.
    pub cluster: ClusterSpec,
    /// How many of the cluster's nodes to use for this run.
    pub nodes: usize,
    /// Access-detection protocol (`java_ic` or `java_pf`).
    pub protocol: ProtocolKind,
    /// Transport configuration: backend and faults.
    /// Applies to every protocol (each setting is semantics-preserving).
    pub transport: TransportConfig,
}

impl HyperionConfig {
    /// A configuration with the default transport settings;
    /// [`HyperionConfig::with_transport`] overrides them.
    ///
    /// Nothing is checked until [`HyperionConfig::validate`], which
    /// [`HyperionRuntime::new`] calls.
    ///
    /// ```
    /// use hyperion::prelude::*;
    ///
    /// let config = HyperionConfig::new(myrinet_200(), 4, ProtocolKind::JavaPf);
    /// config.validate().unwrap();
    /// assert_eq!(config.nodes, 4);
    /// ```
    pub fn new(cluster: ClusterSpec, nodes: usize, protocol: ProtocolKind) -> Self {
        HyperionConfig {
            cluster,
            nodes,
            protocol,
            transport: TransportConfig::default(),
        }
    }

    /// Builder-style override of [`HyperionConfig::transport`].
    pub fn with_transport(mut self, transport: TransportConfig) -> Self {
        self.transport = transport;
        self
    }

    /// Check the configuration for obvious mistakes: node counts, cluster
    /// size and the fault schedule.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.nodes == 0 {
            return Err(ConfigError::ZeroNodes);
        }
        if self.nodes > self.cluster.max_nodes {
            return Err(ConfigError::ExceedsCluster {
                requested: self.nodes,
                available: self.cluster.max_nodes,
            });
        }
        if let Some(fault) = &self.transport.fault {
            fault
                .validate(self.nodes)
                .map_err(ConfigError::InvalidTransport)?;
        }
        Ok(())
    }
}

/// Errors produced by [`HyperionConfig::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// `nodes` was zero.
    ZeroNodes,
    /// More nodes were requested than the modelled cluster has.
    ExceedsCluster {
        /// Nodes requested by the configuration.
        requested: usize,
        /// Nodes available in the cluster model.
        available: usize,
    },
    /// The transport parameters are out of range.
    InvalidTransport(&'static str),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroNodes => write!(f, "a run needs at least one node"),
            ConfigError::ExceedsCluster {
                requested,
                available,
            } => write!(
                f,
                "requested {requested} nodes but the modelled cluster has only {available}"
            ),
            ConfigError::InvalidTransport(reason) => {
                write!(f, "invalid transport parameters: {reason}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// The state shared by every thread of a run (the "single JVM image").
pub(crate) struct RuntimeShared {
    pub(crate) config: HyperionConfig,
    pub(crate) cluster: Arc<Cluster>,
    pub(crate) allocator: Arc<IsoAllocator>,
    pub(crate) dsm: Arc<DsmSystem>,
    /// The id the next started thread gets; also how many have started.
    pub(crate) next_thread: AtomicU64,
    pub(crate) finish: TimeWatermark,
    /// Which application thread runs: one at a time, in virtual-time order
    /// (see [`crate::order`]).
    pub(crate) baton: Baton,
    /// Operations recorded by [`ThreadCtx::record_serving_op`], counted per
    /// modeled latency (picoseconds): each thread adds its counts as it ends.
    pub(crate) serving_latencies: Mutex<BTreeMap<u64, u64>>,
}

/// The distributed JVM image for one experiment run.
pub struct HyperionRuntime {
    shared: Arc<RuntimeShared>,
}

impl HyperionRuntime {
    /// Build a runtime from a validated configuration.
    pub fn new(config: HyperionConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let cluster = Cluster::for_backend_with_faults(
            config.cluster.machine.clone(),
            config.nodes,
            config.transport.backend,
            config.transport.fault,
        );
        let allocator = Arc::new(IsoAllocator::new(config.nodes));
        let store = DsmStore::new(Arc::clone(&allocator), config.nodes);
        let dsm = DsmSystem::new(Arc::clone(&cluster), store, config.protocol);
        Ok(HyperionRuntime {
            shared: Arc::new(RuntimeShared {
                config,
                cluster,
                allocator,
                dsm,
                next_thread: AtomicU64::new(0),
                finish: TimeWatermark::default(),
                baton: Baton::default(),
                serving_latencies: Mutex::default(),
            }),
        })
    }

    /// The run's configuration.
    pub fn config(&self) -> &HyperionConfig {
        &self.shared.config
    }

    /// Number of nodes in this run.
    pub fn nodes(&self) -> usize {
        self.shared.config.nodes
    }

    /// The access-detection protocol of this run.
    pub fn protocol(&self) -> ProtocolKind {
        self.shared.config.protocol
    }

    /// The underlying cluster (for inspection in tests and tools).
    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.shared.cluster
    }

    /// The underlying DSM system (for inspection in tests and tools).
    pub fn dsm(&self) -> &Arc<DsmSystem> {
        &self.shared.dsm
    }

    /// Execute a program.
    ///
    /// `main` runs on node 0 with a fresh virtual clock.  It may allocate
    /// shared objects, spawn Hyperion threads on the nodes it names
    /// ([`ThreadCtx::spawn_on`]) and join them.  When
    /// `main` returns, the harness waits for any threads that were not
    /// explicitly joined, then assembles the [`RunReport`].
    ///
    /// Each `HyperionRuntime` is intended to measure a single run; build a
    /// fresh runtime per data point.
    pub fn run<R>(&self, main: impl FnOnce(&mut ThreadCtx) -> R) -> RunOutcome<R> {
        let shared = &self.shared;
        let main_node = NodeId(0);
        let tid = ThreadId(shared.next_thread.fetch_add(1, Ordering::Relaxed));
        shared.baton.begin(tid);
        let known = Notices::default();
        let mut ctx = ThreadCtx::new(Arc::clone(shared), tid, main_node, VTime::ZERO, known);

        let result = main(&mut ctx);
        // Program termination is a release point.
        ctx.clock.merge(ctx.rode);
        shared.dsm.update_main_memory(main_node, &mut ctx.clock);

        // Wait for threads the program did not join; their final virtual
        // times are already folded into the finish watermark.
        shared.baton.drain(tid);
        shared.finish.record(ctx.clock.now());
        ctx.merge_serving_latencies();

        let node_stats = shared.cluster.all_stats();
        // Wire traffic exists only on socket backends; `SimTransport`
        // reports `None` and the report carries an empty table.
        let service_names = shared.cluster.service_names();
        let wire = shared
            .cluster
            .transport()
            .wire_stats()
            .unwrap_or_default()
            .into_iter()
            .map(|snap| {
                let name = service_names
                    .get(snap.service)
                    .copied()
                    .unwrap_or("unknown-service");
                (name.to_string(), snap)
            })
            .collect();
        let serving_p99 = serving_p99(&lock(&shared.serving_latencies));
        let report = RunReport {
            protocol: shared.config.protocol,
            cluster_label: shared.config.cluster.label().to_string(),
            nodes: shared.config.nodes,
            threads: shared.next_thread.load(Ordering::Relaxed) as usize,
            execution_time: shared.finish.max(),
            main_thread_time: ctx.clock.now(),
            node_stats,
            transport: shared.cluster.transport().name(),
            wire,
            serving_p99,
        };
        RunOutcome { result, report }
    }
}

/// Exact 99th percentile (rank `ceil(0.99 n)`) over every serving operation
/// the program recorded, read off the count of each latency in ascending
/// order (a run has a few thousand distinct latencies per client).
fn serving_p99(counts: &BTreeMap<u64, u64>) -> VTime {
    let n: u64 = counts.values().sum();
    let rank = ((n as f64 * 0.99).ceil() as u64).max(1);
    let mut seen = 0;
    counts
        .iter()
        .find(|&(_, &count)| {
            seen += count;
            seen >= rank
        })
        .map_or(VTime::ZERO, |(&ps, _)| VTime::from_ps(ps))
}

impl std::fmt::Debug for HyperionRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HyperionRuntime")
            .field("cluster", &self.shared.config.cluster.label())
            .field("nodes", &self.shared.config.nodes)
            .field("protocol", &self.shared.config.protocol.name())
            .finish()
    }
}

/// The result of a run: the program's return value plus the report.
#[derive(Debug)]
pub struct RunOutcome<R> {
    /// Whatever the program's `main` closure returned.
    pub result: R,
    /// Execution time and statistics.
    pub report: RunReport,
}

/// Virtual execution time and event statistics of one run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Protocol used.
    pub protocol: ProtocolKind,
    /// Cluster label ("200MHz/Myrinet" or "450MHz/SCI").
    pub cluster_label: String,
    /// Number of nodes used.
    pub nodes: usize,
    /// Number of threads started, `main` included: the last thread id
    /// handed out plus one.
    pub threads: usize,
    /// Virtual execution time: the latest finishing time over all threads.
    pub execution_time: VTime,
    /// Virtual finishing time of the `main` thread.
    pub main_thread_time: VTime,
    /// Per-node statistics, indexed by node id.
    pub node_stats: Vec<StatsSnapshot>,
    /// Name of the transport backend that carried the RPCs ("sim" or
    /// "unix-socket").
    pub transport: &'static str,
    /// Per-service wire-traffic counters, `(service name, counters)` —
    /// empty under the in-process [`hyperion_pm2::SimTransport`], populated
    /// by socket backends with real byte counts and wall-clock round-trip
    /// times next to the modeled virtual-time spans.
    pub wire: Vec<(String, WireServiceSnapshot)>,
    /// Modeled 99th-percentile latency over every serving operation the
    /// program recorded via [`ThreadCtx::record_serving_op`]
    /// ([`VTime::ZERO`] when the program recorded none).
    pub serving_p99: VTime,
}

impl RunReport {
    /// Cluster-wide statistics total.
    pub fn total_stats(&self) -> StatsSnapshot {
        StatsSnapshot::total(self.node_stats.iter())
    }

    /// Execution time in virtual seconds (the unit of the paper's figures).
    pub fn seconds(&self) -> f64 {
        self.execution_time.as_secs_f64()
    }

    /// Each home's utilisation: the service time remote requests booked on
    /// its protocol processor as a share of the run's modeled time, indexed
    /// by node id.
    pub fn home_utilisation(&self) -> Vec<f64> {
        self.share_of_exec(|s| s.rpc_service_ps)
    }

    /// Each home's queue-wait share: the time remote requests spent between
    /// arriving at the home and starting service, summed over all callers,
    /// as a share of the run's modeled time (the mean number of requests
    /// queued there), indexed by node id.
    pub fn home_queue_wait_share(&self) -> Vec<f64> {
        self.share_of_exec(|s| s.rpc_queue_wait_ps)
    }

    fn share_of_exec(&self, ps: impl Fn(&StatsSnapshot) -> u64) -> Vec<f64> {
        let exec = self.execution_time.as_ps().max(1) as f64;
        self.node_stats
            .iter()
            .map(|s| ps(s) as f64 / exec)
            .collect()
    }

    /// A short multi-line human-readable summary.
    pub fn summary(&self) -> String {
        let t = self.total_stats();
        // Per home on small clusters, the busiest home otherwise.
        let percents = |shares: Vec<f64>| {
            if shares.len() <= 8 {
                let each: Vec<String> =
                    shares.iter().map(|s| format!("{:.2}", s * 100.0)).collect();
                format!("[{}]%", each.join(" "))
            } else {
                let peak = shares.iter().copied().fold(0.0, f64::max);
                format!("peak {:.2}%", peak * 100.0)
            }
        };
        format!(
            "{} on {} × {} nodes: {}\n  checks={} faults={} mprotect={} page_loads={} \
             (revalidated={} patched={}) kept={} diffs={} bytes={} \
             monitors={}/{}\n  \
             home busy={} queue wait={} monitor wait={}",
            self.protocol.name(),
            self.cluster_label,
            self.nodes,
            self.execution_time,
            t.locality_checks,
            t.page_faults,
            t.mprotect_calls,
            t.page_loads,
            t.pages_revalidated,
            t.pages_patched,
            t.pages_kept,
            t.diff_messages,
            t.bytes_moved(),
            t.monitor_enters,
            t.monitor_exits,
            percents(self.home_utilisation()),
            percents(self.home_queue_wait_share()),
            VTime::from_ps(t.monitor_wait_ps),
        )
    }
}

/// The per-thread execution context: the thread's placement, its virtual
/// clock and its view of the shared runtime.
///
/// Every Hyperion API call an application kernel makes — field accesses,
/// monitor operations, thread creation, explicit compute charging — goes
/// through a `ThreadCtx`, which is how the virtual-time accounting reaches
/// the right clock.
pub struct ThreadCtx {
    pub(crate) shared: Arc<RuntimeShared>,
    pub(crate) thread: ThreadId,
    pub(crate) node: NodeId,
    pub(crate) clock: ThreadClock,
    /// This thread's [`ThreadCtx::record_serving_op`] counts per latency
    /// (picoseconds), added to the run-wide ones when the thread ends.
    serving_latencies: BTreeMap<u64, u64>,
    /// What this thread knows others have written: the write notices it
    /// learned along the synchronisation edges it crossed, its own writes
    /// included (see [`crate::jmm`]).
    pub(crate) knowledge: Notices,
    /// This thread's place in its node's write log: its next release names
    /// what the node made visible from here on.
    pub(crate) log_cursor: u64,
    /// When the diffs this thread's monitor releases sent, those that rode
    /// them and those they deferred, have all reached their homes (see
    /// [`crate::jmm::release`]).
    pub(crate) rode: VTime,
}

impl Drop for ThreadCtx {
    /// Thread end, normal or by panic: hand this thread's place to a joiner
    /// that is already waiting for it, and the baton to the next thread.
    fn drop(&mut self) {
        self.shared
            .baton
            .retire(self.thread, self.clock.now().as_ps());
    }
}

impl ThreadCtx {
    fn new(
        shared: Arc<RuntimeShared>,
        thread: ThreadId,
        node: NodeId,
        start: VTime,
        knowledge: Notices,
    ) -> Self {
        let log_cursor = shared.dsm.write_log_end(node);
        ThreadCtx {
            shared,
            thread,
            node,
            clock: ThreadClock::starting_at(start),
            serving_latencies: BTreeMap::new(),
            knowledge,
            log_cursor,
            rode: VTime::ZERO,
        }
    }

    /// The node this thread runs on.
    #[inline]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// This thread's id.
    #[inline]
    pub fn thread_id(&self) -> ThreadId {
        self.thread
    }

    /// Current virtual time of this thread.
    #[inline]
    pub fn now(&self) -> VTime {
        self.clock.now()
    }

    /// The access-detection protocol of this run.
    #[inline]
    pub fn protocol(&self) -> ProtocolKind {
        self.shared.config.protocol
    }

    /// Number of nodes in this run.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.shared.config.nodes
    }

    /// The machine model of the cluster.
    #[inline]
    pub fn machine(&self) -> &MachineModel {
        self.shared.cluster.machine()
    }

    /// The CPU model of the cluster's nodes.
    #[inline]
    pub fn cpu(&self) -> &CpuModel {
        &self.shared.cluster.machine().cpu
    }

    /// Mutable access to the thread clock (used by the runtime layers).
    #[inline]
    pub(crate) fn clock_mut(&mut self) -> &mut ThreadClock {
        &mut self.clock
    }

    /// Take a turn in the virtual-time order at this thread's clock: run on
    /// at once if no runnable thread is behind it, otherwise let those run
    /// first.  Returns the key.
    pub(crate) fn take_turn(&mut self) -> Key {
        let key = (self.clock.now().as_ps(), self.thread);
        self.shared.baton.take_turn(key);
        key
    }

    // ----- compute charging -------------------------------------------------

    /// Charge an explicit duration of local computation.
    #[inline]
    pub fn charge(&mut self, d: VTime) {
        self.clock.advance(d);
    }

    /// Charge one execution of a pre-estimated kernel body.
    #[inline]
    pub fn charge_work(&mut self, work: &WorkEstimate) {
        self.clock.advance(work.per_iteration());
    }

    /// Charge `n` executions of a pre-estimated kernel body.
    #[inline]
    pub fn charge_iters(&mut self, work: &WorkEstimate, n: u64) {
        self.clock.advance(work.for_iterations(n));
    }

    /// Charge one execution of an instruction mix.
    pub fn charge_mix(&mut self, mix: &OpCounts) {
        let d = self.shared.cluster.machine().cpu.duration_for(mix);
        self.clock.advance(d);
    }

    /// Pre-compute the per-iteration duration of an instruction mix on this
    /// cluster's CPU.
    pub fn estimate(&self, mix: &OpCounts) -> WorkEstimate {
        self.shared.cluster.machine().cpu.estimate(mix)
    }

    /// Record one completed serving-style operation (a KV request, a vertex
    /// update) whose modeled latency was `latency` — the span of this
    /// thread's virtual clock across the operation.
    ///
    /// The count feeds the serving-throughput report rows; the latency is
    /// counted until run end, and the counts give the exact
    /// 99th-percentile of [`RunReport::serving_p99`].
    pub fn record_serving_op(&mut self, latency: VTime) {
        NodeStats::bump(&self.shared.cluster.node(self.node).stats.serving_ops);
        *self.serving_latencies.entry(latency.as_ps()).or_default() += 1;
    }

    /// Add this thread's latency counts to the run-wide ones.
    fn merge_serving_latencies(&mut self) {
        let mut counts = lock(&self.shared.serving_latencies);
        for (ps, n) in std::mem::take(&mut self.serving_latencies) {
            *counts.entry(ps).or_default() += n;
        }
    }

    // ----- raw DSM access (Table 2 primitives) ------------------------------

    /// Read an 8-byte slot through the DSM (`get` of Table 2).
    #[inline]
    pub fn get_slot(&mut self, addr: GlobalAddr) -> u64 {
        self.shared.dsm.get(self.node, &mut self.clock, addr)
    }

    /// Write an 8-byte slot through the DSM (`put` of Table 2).
    #[inline]
    pub fn put_slot(&mut self, addr: GlobalAddr, value: u64) {
        self.shared.dsm.put(self.node, &mut self.clock, addr, value);
    }

    /// Explicitly prefetch every page of the `slots` consecutive slots
    /// starting at `addr` (`loadIntoCache` of Table 2).
    ///
    /// The fetches are issued as split transactions and only their
    /// *residual* latency is charged when the data is first really used —
    /// this is the call a latency-hiding kernel places as early as its
    /// consistency window allows (right after the acquire that invalidated
    /// the cache).
    pub fn load_into_cache(&mut self, addr: GlobalAddr, slots: usize) {
        if slots == 0 {
            return;
        }
        let first = addr.page();
        let pages = addr.offset(slots as u64 - 1).page().0 - first.0 + 1;
        let dsm = &self.shared.dsm;
        dsm.load_into_cache(self.node, &mut self.clock, first, pages);
    }

    /// Invalidate every cached (non-home) page on this thread's node
    /// (`invalidateCache` of Table 2).  Monitor entry performs its lazy
    /// form, which drops only the copies the write notices it learns name
    /// (see [`crate::jmm`]).
    pub fn invalidate_cache(&mut self) {
        self.shared.dsm.invalidate_cache(self.node, &mut self.clock);
    }

    /// Flush every recorded modification to its home node (`updateMainMemory`
    /// of Table 2): a thread-level release ([`crate::jmm::release`]); a
    /// monitor's exit releases with the monitor's home instead.
    pub fn update_main_memory(&mut self) {
        crate::jmm::release(self, None);
    }

    /// Bulk read of `out.len()` consecutive slots starting at `addr`,
    /// paying access detection once per touched page instead of once per
    /// slot (the raw form of [`crate::object::HArray::read_slice`]).
    pub fn read_slots(&mut self, addr: GlobalAddr, out: &mut [u64]) {
        self.shared
            .dsm
            .read_slice(self.node, &mut self.clock, addr, out);
    }

    /// Bulk write of `values` to consecutive slots starting at `addr`,
    /// paying access detection once per touched page instead of once per
    /// slot (the raw form of [`crate::object::HArray::write_slice`]).
    pub fn write_slots(&mut self, addr: GlobalAddr, values: &[u64]) {
        self.shared
            .dsm
            .write_slice(self.node, &mut self.clock, addr, values);
    }

    /// Allocate `slots` contiguous 8-byte slots homed on `home`.
    pub fn alloc_slots(&mut self, slots: usize, home: NodeId) -> GlobalAddr {
        self.shared.allocator.alloc(slots, home)
    }

    /// Allocate `slots` slots on fresh pages homed on `home` (never shares a
    /// page with other allocations).
    pub fn alloc_slots_page_aligned(&mut self, slots: usize, home: NodeId) -> GlobalAddr {
        self.shared.allocator.alloc_page_aligned(slots, home)
    }

    /// Home node of the page containing `addr`.
    pub fn home_of(&self, addr: GlobalAddr) -> NodeId {
        self.shared.allocator.home_of(addr.page())
    }

    // ----- thread management -------------------------------------------------

    /// Create a Hyperion thread on `node`, the one way to start a thread.
    pub fn spawn_on(
        &mut self,
        node: NodeId,
        body: impl FnOnce(&mut ThreadCtx) + Send + 'static,
    ) -> HThreadHandle {
        assert!(
            node.index() < self.shared.config.nodes,
            "cannot place a thread on {node}: the run uses {} nodes",
            self.shared.config.nodes
        );
        // `Thread.start()` establishes a happens-before edge from the parent
        // to the child: the parent releases (its pending modifications reach
        // main memory), and the child starts knowing what the parent knows.
        crate::jmm::release(self, None);
        let known = self.knowledge.clone();

        let machine = self.shared.cluster.machine();
        let create_cost = machine.cpu.cycles(machine.dsm.thread_create_cycles);

        // Parent-side cost of the creation request.
        self.clock.advance(create_cost);
        let mut start = self.clock.now();
        if node != self.node {
            // The creation request travels to the target node.
            start += self.shared.cluster.control_message_cost();
        }
        // It carries the parent's write notices.
        start += known.transfer(machine, self.node, node);
        // Child-side initialisation before user code runs.
        start += create_cost;

        let tid = ThreadId(self.shared.next_thread.fetch_add(1, Ordering::Relaxed));

        let shared = Arc::clone(&self.shared);
        let os_handle = std::thread::Builder::new()
            .name(format!("hyperion-{}", tid))
            .spawn(move || {
                shared.baton.await_turn(tid);
                let mut ctx = ThreadCtx::new(Arc::clone(&shared), tid, node, start, known.clone());
                // ...which is an acquire on the child's node: what the parent
                // knows others wrote, no copy there may hide.
                crate::jmm::acquire(&mut ctx, &known, None);
                body(&mut ctx);
                // Thread termination is a release point: the child's writes
                // must reach main memory so a joining thread can observe them.
                crate::jmm::release(&mut ctx, None);
                shared.dsm.assert_no_open_stale_copies(node, "a thread end");
                let end = ctx.clock.now();
                ctx.merge_serving_latencies();
                shared.finish.record(end);
                (end, std::mem::take(&mut ctx.knowledge))
            })
            .expect("failed to spawn OS thread for Hyperion thread");
        // Runnable from its starting time; it runs once the baton reaches it.
        self.shared
            .baton
            .register(tid, start.as_ps(), os_handle.thread().clone());
        HThreadHandle::new(tid, node, os_handle)
    }

    /// Join a Hyperion thread: blocks (in real time) until the thread has
    /// finished and merges its final virtual time into this thread's clock.
    pub fn join(&mut self, handle: HThreadHandle) -> VTime {
        // Not runnable until the child has ended: the ending child makes it
        // runnable again from its end.
        self.shared.baton.join(self.thread, handle.thread_id());
        let child = handle.node();
        let (end, known) = handle.into_end();
        let machine = self.shared.cluster.machine();
        self.clock.merge(end);
        self.clock
            .advance(machine.cpu.cycles(machine.dsm.monitor_local_cycles));
        // `Thread.join()` is an acquire point: reads after the join observe
        // everything the joined thread wrote, and everything it knew of.
        let learned = self.knowledge.merge(&known);
        let transfer = learned.transfer(self.machine(), child, self.node);
        self.clock.advance(transfer);
        crate::jmm::acquire(self, &learned, None);
        end
    }
}

impl std::fmt::Debug for ThreadCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadCtx")
            .field("thread", &self.thread)
            .field("node", &self.node)
            .field("now", &self.clock.now())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperion_model::myrinet_200;

    fn config(nodes: usize, protocol: ProtocolKind) -> HyperionConfig {
        HyperionConfig::new(myrinet_200(), nodes, protocol)
    }

    #[test]
    fn serving_p99_over_thread_samples_is_the_rank_of_the_flat_sample() {
        // Each thread's sample counted into the run-wide map in turn.
        let counted = |samples: &[Vec<u64>]| {
            let mut counts = BTreeMap::new();
            for &ps in samples.iter().flatten() {
                *counts.entry(ps).or_default() += 1;
            }
            serving_p99(&counts)
        };
        assert_eq!(counted(&[]), VTime::ZERO);
        assert_eq!(counted(&[vec![7]]), VTime::from_ps(7));
        // Uneven per-thread samples with ties across threads.
        let mut x = 0x9E37_79B9u64;
        let samples: Vec<Vec<u64>> = [1usize, 250, 0, 999, 37]
            .iter()
            .map(|&len| {
                (0..len)
                    .map(|_| {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                        (x >> 33) % 500
                    })
                    .collect()
            })
            .collect();
        let mut flat: Vec<u64> = samples.iter().flatten().copied().collect();
        flat.sort_unstable();
        let rank = (flat.len() as f64 * 0.99).ceil() as usize;
        assert_eq!(counted(&samples), VTime::from_ps(flat[rank - 1]));
    }

    #[test]
    fn config_validation_catches_mistakes() {
        assert_eq!(
            config(0, ProtocolKind::JavaIc).validate(),
            Err(ConfigError::ZeroNodes)
        );
        assert_eq!(
            config(13, ProtocolKind::JavaIc).validate(),
            Err(ConfigError::ExceedsCluster {
                requested: 13,
                available: 12
            })
        );
        assert!(config(12, ProtocolKind::JavaPf).validate().is_ok());
        // Errors render.
        assert!(format!("{}", ConfigError::ZeroNodes).contains("at least one node"));
    }

    #[test]
    fn a_run_is_described_once_and_the_engine_builds_what_the_flags_say() {
        use hyperion_pm2::{FaultSpec, TransportBackend};
        // `dropfirst=1` loses the first remote frame: the one remote read
        // below counts a dropped frame exactly when the fault plane is on.
        let faults = [None, Some(FaultSpec::parse("dropfirst=1").unwrap())];
        for backend in [TransportBackend::Sim, TransportBackend::UnixSocket] {
            for fault in faults {
                for protocol in ProtocolKind::all() {
                    let transport = TransportConfig { backend, fault };
                    let cfg = config(2, protocol).with_transport(transport);
                    let rt = HyperionRuntime::new(cfg).unwrap();
                    assert_eq!(rt.dsm().kind(), protocol);
                    // The cluster carries the configured backend and faults.
                    let name = rt.cluster().transport().name();
                    let sim = backend == TransportBackend::Sim;
                    assert_eq!(name, if sim { "sim" } else { "unix-socket" });
                    let out = rt.run(|ctx| {
                        let remote = ctx.alloc_slots(1, NodeId(1));
                        ctx.get_slot(remote)
                    });
                    let dropped = out.report.total_stats().frames_dropped_injected;
                    assert_eq!(dropped, u64::from(fault.is_some()), "{name} {protocol}");
                }
            }
        }
    }

    #[test]
    fn locality_query_classifies_and_charges_per_protocol() {
        // Where a page lives for a node is its frame's state: the home, an
        // open cached copy, or neither.  java_pf: reading it is free, and
        // neither it nor the access counts an in-line check.
        let open = |f: &hyperion_dsm::PageFrame| f.is_present() && !f.is_protected();
        let rt = HyperionRuntime::new(config(2, ProtocolKind::JavaPf)).unwrap();
        let dsm = Arc::clone(rt.dsm());
        rt.run(move |ctx| {
            let (local, remote) = (ctx.alloc_slots(4, NodeId(0)), ctx.alloc_slots(4, NodeId(1)));
            let t0 = ctx.now();
            assert!(dsm.store().frame(ctx.node(), local.page()).is_home());
            let copy = dsm.store().frame(ctx.node(), remote.page());
            assert!(!copy.is_home() && !open(copy));
            assert_eq!(ctx.now(), t0, "pf frame state is free to read");
            let _ = ctx.get_slot(remote); // fault + fetch
            assert!(open(copy));
        });
        assert_eq!(rt.cluster().total_stats().locality_checks, 0);
        // java_ic: the access pays the one in-line check; reading the frame
        // does not.
        let rt = HyperionRuntime::new(config(2, ProtocolKind::JavaIc)).unwrap();
        let dsm = Arc::clone(rt.dsm());
        rt.run(move |ctx| {
            let remote = ctx.alloc_slots(4, NodeId(1));
            let t0 = ctx.now();
            assert!(!open(dsm.store().frame(ctx.node(), remote.page())));
            assert_eq!(ctx.now(), t0, "reading frame state charges nothing");
            let _ = ctx.get_slot(remote);
        });
        assert_eq!(rt.cluster().total_stats().locality_checks, 1);
    }

    #[test]
    fn table2_primitives_compose_into_a_producer_consumer_exchange() {
        for protocol in ProtocolKind::all() {
            let rt = HyperionRuntime::new(config(2, protocol)).unwrap();
            let out = rt.run(|ctx| {
                let addr = ctx.alloc_slots(4, NodeId(1));
                // Producer side (running on node 0, writing remote memory).
                ctx.load_into_cache(addr, 2);
                ctx.put_slot(addr, 7);
                ctx.put_slot(addr.offset(1), 8);
                ctx.update_main_memory();
                // Consumer side re-reads from main memory.
                ctx.invalidate_cache();
                ctx.get_slot(addr) + ctx.get_slot(addr.offset(1))
            });
            assert_eq!(out.result, 15, "{protocol:?}");
            let total = out.report.total_stats();
            assert!(total.page_loads >= 1);
            assert_eq!(total.diff_slots_flushed, 2);
        }
    }

    #[test]
    fn bulk_slot_transfers_round_trip_through_the_dsm() {
        for protocol in ProtocolKind::all() {
            let rt = HyperionRuntime::new(config(2, protocol)).unwrap();
            let out = rt.run(|ctx| {
                let addr = ctx.alloc_slots(64, NodeId(1));
                let values: Vec<u64> = (0..64u64).map(|v| v * v).collect();
                ctx.write_slots(addr, &values);
                let mut back = vec![0u64; 64];
                ctx.read_slots(addr, &mut back);
                (values, back)
            });
            let (values, back) = out.result;
            assert_eq!(values, back, "{protocol:?}");
            let total = out.report.total_stats();
            assert_eq!(total.bulk_reads, 1);
            assert_eq!(total.bulk_writes, 1);
            assert_eq!(total.field_reads, 64);
            assert_eq!(total.field_writes, 64);
        }
    }

    #[test]
    fn runtime_rejects_invalid_config() {
        assert!(HyperionRuntime::new(config(0, ProtocolKind::JavaIc)).is_err());
        let rt = HyperionRuntime::new(config(3, ProtocolKind::JavaPf)).unwrap();
        assert_eq!(rt.nodes(), 3);
        assert_eq!(rt.protocol(), ProtocolKind::JavaPf);
        assert_eq!(rt.cluster().num_nodes(), 3);
    }

    #[test]
    fn run_reports_main_thread_time_and_stats() {
        let rt = HyperionRuntime::new(config(2, ProtocolKind::JavaIc)).unwrap();
        let out = rt.run(|ctx| {
            ctx.charge(VTime::from_ms(5));
            let a = ctx.alloc_slots(4, NodeId(1));
            ctx.put_slot(a, 99);
            ctx.get_slot(a)
        });
        assert_eq!(out.result, 99);
        assert_eq!(out.report.nodes, 2);
        assert_eq!(out.report.threads, 1);
        assert!(out.report.execution_time >= VTime::from_ms(5));
        assert_eq!(out.report.execution_time, out.report.main_thread_time);
        let total = out.report.total_stats();
        assert_eq!(total.field_writes, 1);
        assert_eq!(total.field_reads, 1);
        assert_eq!(total.locality_checks, 2);
        assert!(out.report.summary().contains("java_ic"));
        assert!(out.report.seconds() >= 0.005);
    }

    #[test]
    fn spawned_threads_extend_execution_time_beyond_main() {
        let rt = HyperionRuntime::new(config(4, ProtocolKind::JavaPf)).unwrap();
        let out = rt.run(|ctx| {
            let mut handles = Vec::new();
            for i in 0..4u32 {
                handles.push(ctx.spawn_on(NodeId(i), move |worker| {
                    worker.charge(VTime::from_ms(10 * (i as u64 + 1)));
                }));
            }
            for h in handles {
                ctx.join(h);
            }
        });
        // The slowest worker charged 40 ms; everything else is overhead on
        // top of that.
        assert!(out.report.execution_time >= VTime::from_ms(40));
        assert_eq!(out.report.threads, 5);
        // Main joined everyone, so its clock includes the slowest worker.
        assert_eq!(out.report.main_thread_time, out.report.execution_time);
    }

    #[test]
    fn unjoined_threads_are_still_waited_for_and_counted() {
        let rt = HyperionRuntime::new(config(2, ProtocolKind::JavaIc)).unwrap();
        let out = rt.run(|ctx| {
            let _ = ctx.spawn_on(NodeId(0), |worker| {
                worker.charge(VTime::from_ms(25));
            });
            // Dropped handle: main does not join.
            ctx.charge(VTime::from_ms(1));
        });
        assert!(out.report.execution_time >= VTime::from_ms(25));
        // Main's own time does not include the worker.
        assert!(out.report.main_thread_time < out.report.execution_time);
    }

    #[test]
    fn remote_spawn_costs_more_than_local_spawn() {
        let rt = HyperionRuntime::new(config(2, ProtocolKind::JavaPf)).unwrap();
        let out = rt.run(|ctx| {
            let before = ctx.now();
            let h_local = ctx.spawn_on(NodeId(0), |_| {});
            let after_local = ctx.now();
            let h_remote = ctx.spawn_on(NodeId(1), |_| {});
            let after_remote = ctx.now();
            ctx.join(h_local);
            ctx.join(h_remote);
            (after_local - before, after_remote - after_local)
        });
        let (local_cost, remote_cost) = out.result;
        // Parent-side charge is identical; the difference is in the child's
        // start time, so here both should be equal...
        assert_eq!(local_cost, remote_cost);
        // ...but the remote child starts later than a local child would.
        assert!(out.report.execution_time >= remote_cost);
    }

    #[test]
    #[should_panic(expected = "cannot place a thread")]
    fn spawning_on_nonexistent_node_panics() {
        let rt = HyperionRuntime::new(config(2, ProtocolKind::JavaIc)).unwrap();
        rt.run(|ctx| {
            let _ = ctx.spawn_on(NodeId(5), |_| {});
        });
    }

    #[test]
    fn charge_helpers_agree_with_the_cpu_model() {
        let rt = HyperionRuntime::new(config(1, ProtocolKind::JavaIc)).unwrap();
        let out = rt.run(|ctx| {
            let mix = OpCounts::new().with(hyperion_model::Op::FpAdd, 4.0);
            let est = ctx.estimate(&mix);
            let t0 = ctx.now();
            ctx.charge_mix(&mix);
            let t1 = ctx.now();
            ctx.charge_work(&est);
            let t2 = ctx.now();
            ctx.charge_iters(&est, 10);
            (t1 - t0, t2 - t1, ctx.now() - t2)
        });
        let (a, b, c) = out.result;
        assert_eq!(a, b);
        assert_eq!(c, b.times(10));
    }
}
