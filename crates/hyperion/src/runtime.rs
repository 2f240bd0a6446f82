//! The Hyperion runtime: configuration, the shared cluster image, thread
//! contexts and the run harness.
//!
//! A [`HyperionRuntime`] is the Rust analogue of "one distributed JVM over
//! the cluster": it owns the cluster model, the iso-address allocator, the
//! DSM system configured with one of the two access-detection protocols, the
//! thread registry and the load balancer.  [`HyperionRuntime::run`] executes
//! a program — a closure playing the role of `main` — on node 0 and returns
//! both the program's result and a [`RunReport`] with the virtual execution
//! time and the per-node event statistics.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use hyperion_dsm::{
    AdaptiveParams, DsmStore, DsmSystem, Locality, PolicyError, ProtocolKind, TransportConfig,
};
use hyperion_model::vtime::TimeWatermark;
use hyperion_model::{
    ClusterSpec, CpuModel, MachineModel, NodeStats, OpCounts, StatsSnapshot, ThreadClock, VTime,
    WireServiceSnapshot, WorkEstimate,
};
use hyperion_pm2::{
    Cluster, GlobalAddr, IsoAllocator, NodeId, ThreadId, ThreadRegistry, TransportBackend,
};

use crate::order::{Key, OrderTable, Slot};
use crate::thread::{HThreadHandle, LoadBalancer};

/// Configuration of a Hyperion execution.
#[derive(Clone, Debug)]
pub struct HyperionConfig {
    /// Which of the paper's clusters (or a custom one) to model.
    pub cluster: ClusterSpec,
    /// How many of the cluster's nodes to use for this run.
    pub nodes: usize,
    /// Access-detection protocol (`java_ic`, `java_pf` or `java_ad`).
    pub protocol: ProtocolKind,
    /// Policy knobs of the adaptive protocol (ignored unless `protocol` is
    /// [`ProtocolKind::JavaAd`]): switching-hysteresis multiples of the
    /// machine model's break-even and the batched-fetch window.
    pub adaptive: AdaptiveParams,
    /// Transport configuration: overlapped page fetches, batched and
    /// deferred diff flushing, backend, faults and replication.  Applies to every protocol (the mechanisms are
    /// semantics-preserving).
    pub transport: TransportConfig,
    /// Application threads per node.  The paper uses one ("we used only one
    /// application thread per node", §4.3); larger values exercise the
    /// computation/communication-overlap extension.
    pub threads_per_node: usize,
}

impl HyperionConfig {
    /// A configuration with one application thread per node.
    ///
    /// Equivalent to
    /// `HyperionConfig::builder().cluster(..).nodes(..).protocol(..).build()`
    /// except that no validation is performed until
    /// [`HyperionConfig::validate`] / [`HyperionRuntime::new`].
    pub fn new(cluster: ClusterSpec, nodes: usize, protocol: ProtocolKind) -> Self {
        HyperionConfig {
            cluster,
            nodes,
            protocol,
            adaptive: AdaptiveParams::default(),
            transport: TransportConfig::default(),
            threads_per_node: 1,
        }
    }

    /// Start building a configuration.
    ///
    /// The builder is the canonical way to assemble a run configuration:
    /// `cluster`, `nodes` and `protocol` are mandatory, everything else has
    /// the defaults of [`HyperionConfig::new`], and [`ConfigBuilder::build`]
    /// validates the result before handing it out.
    ///
    /// ```
    /// use hyperion::prelude::*;
    ///
    /// let config = HyperionConfig::builder()
    ///     .cluster(myrinet_200())
    ///     .nodes(4)
    ///     .protocol(ProtocolKind::JavaPf)
    ///     .threads_per_node(2)
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(config.total_app_threads(), 8);
    /// ```
    pub fn builder() -> ConfigBuilder {
        ConfigBuilder::default()
    }

    /// Builder-style override of [`HyperionConfig::threads_per_node`].
    pub fn with_threads_per_node(mut self, threads: usize) -> Self {
        self.threads_per_node = threads;
        self
    }

    /// Builder-style override of [`HyperionConfig::adaptive`].
    pub fn with_adaptive(mut self, adaptive: AdaptiveParams) -> Self {
        self.adaptive = adaptive;
        self
    }

    /// Builder-style override of [`HyperionConfig::transport`].
    pub fn with_transport(mut self, transport: TransportConfig) -> Self {
        self.transport = transport;
        self
    }

    /// Total number of application (computation) threads the standard SPMD
    /// benchmarks create.
    pub fn total_app_threads(&self) -> usize {
        self.nodes * self.threads_per_node
    }

    /// Check the configuration for obvious mistakes.
    ///
    /// Structural errors (node counts, cluster size, backend limits) keep
    /// their dedicated variants.  Every policy-level error — adaptive
    /// hysteresis bands, batch ceilings, quorum bounds — is a typed
    /// [`PolicyError`] wrapped in [`ConfigError::Policy`], produced by
    /// [`AdaptiveParams::validate`] and [`TransportConfig::validate`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.nodes == 0 {
            return Err(ConfigError::ZeroNodes);
        }
        if self.threads_per_node == 0 {
            return Err(ConfigError::ZeroThreadsPerNode);
        }
        if self.nodes > self.cluster.max_nodes {
            return Err(ConfigError::ExceedsCluster {
                requested: self.nodes,
                available: self.cluster.max_nodes,
            });
        }
        // Adaptive tunables are checked whichever protocol runs (a sweep
        // harness sharing one `AdaptiveParams` should fail fast).
        self.adaptive.validate()?;
        self.transport.validate()?;
        // Socket backends keep a connection per peer a node talks to, and
        // every node talks to every other node.
        if self.transport.backend != TransportBackend::Sim && self.nodes > SOCKET_FAN_IN_BOUND {
            return Err(ConfigError::SocketFanIn {
                degree: self.nodes,
                bound: SOCKET_FAN_IN_BOUND,
            });
        }
        self.transport
            .retry
            .validate()
            .map_err(ConfigError::InvalidTransport)?;
        if let Some(fault) = &self.transport.fault {
            fault
                .validate(self.nodes)
                .map_err(ConfigError::InvalidTransport)?;
        }
        Ok(())
    }
}

/// Step-by-step construction of a [`HyperionConfig`].
///
/// Created by [`HyperionConfig::builder`]; see there for an example.
#[derive(Clone, Debug, Default)]
pub struct ConfigBuilder {
    cluster: Option<ClusterSpec>,
    nodes: Option<usize>,
    protocol: Option<ProtocolKind>,
    adaptive: Option<AdaptiveParams>,
    transport: Option<TransportConfig>,
    threads_per_node: Option<usize>,
}

impl ConfigBuilder {
    /// Which of the paper's clusters (or a custom one) to model.  Mandatory.
    pub fn cluster(mut self, cluster: ClusterSpec) -> Self {
        self.cluster = Some(cluster);
        self
    }

    /// How many of the cluster's nodes to use.  Mandatory.
    pub fn nodes(mut self, nodes: usize) -> Self {
        self.nodes = Some(nodes);
        self
    }

    /// Access-detection protocol (`java_ic`, `java_pf` or `java_ad`).
    /// Mandatory.
    pub fn protocol(mut self, protocol: ProtocolKind) -> Self {
        self.protocol = Some(protocol);
        self
    }

    /// Policy knobs for `java_ad` (thresholds, batching window).  Defaults
    /// to [`AdaptiveParams::default`]; ignored by the other protocols.
    pub fn adaptive(mut self, adaptive: AdaptiveParams) -> Self {
        self.adaptive = Some(adaptive);
        self
    }

    /// Transport configuration (see [`HyperionConfig::transport`]).
    /// Defaults to [`TransportConfig::default`].
    pub fn transport(mut self, transport: TransportConfig) -> Self {
        self.transport = Some(transport);
        self
    }

    /// Application threads per node.  Defaults to 1, as in the paper.
    pub fn threads_per_node(mut self, threads: usize) -> Self {
        self.threads_per_node = Some(threads);
        self
    }

    /// Assemble and validate the configuration.
    ///
    /// Fails with [`ConfigError::MissingField`] if `cluster`, `nodes` or
    /// `protocol` was never set, and with the [`HyperionConfig::validate`]
    /// errors on out-of-range values.
    pub fn build(self) -> Result<HyperionConfig, ConfigError> {
        let cluster = self.cluster.ok_or(ConfigError::MissingField("cluster"))?;
        let nodes = self.nodes.ok_or(ConfigError::MissingField("nodes"))?;
        let protocol = self.protocol.ok_or(ConfigError::MissingField("protocol"))?;
        // Start from `new()` so the defaults live in exactly one place.
        let mut config = HyperionConfig::new(cluster, nodes, protocol);
        if let Some(adaptive) = self.adaptive {
            config.adaptive = adaptive;
        }
        if let Some(transport) = self.transport {
            config.transport = transport;
        }
        if let Some(threads) = self.threads_per_node {
            config.threads_per_node = threads;
        }
        config.validate()?;
        Ok(config)
    }
}

/// Errors produced by [`HyperionConfig::validate`] and
/// [`ConfigBuilder::build`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// A mandatory builder field was never set.
    MissingField(&'static str),
    /// `nodes` was zero.
    ZeroNodes,
    /// `threads_per_node` was zero.
    ZeroThreadsPerNode,
    /// More nodes were requested than the modelled cluster has.
    ExceedsCluster {
        /// Nodes requested by the configuration.
        requested: usize,
        /// Nodes available in the cluster model.
        available: usize,
    },
    /// An illegal policy selection (adaptive tunables, batch ceilings,
    /// quorum bounds): the typed verdict of [`TransportConfig::validate`] and
    /// [`AdaptiveParams::validate`].
    Policy(PolicyError),
    /// The transport parameters are out of range.
    InvalidTransport(&'static str),
    /// A socket backend asked for more nodes than a node can keep
    /// connections to (one per peer); the simulator has no such limit.
    SocketFanIn {
        /// Connections one node would have to keep open.
        degree: usize,
        /// The backend's per-node connection bound.
        bound: usize,
    },
}

/// Largest per-node connection fan-in the socket backends accept; every
/// node connects to every peer, so this caps a socket cluster's node count.
const SOCKET_FAN_IN_BOUND: usize = 64;

impl From<PolicyError> for ConfigError {
    fn from(err: PolicyError) -> Self {
        ConfigError::Policy(err)
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::MissingField(field) => {
                write!(f, "configuration builder is missing the `{field}` field")
            }
            ConfigError::ZeroNodes => write!(f, "a run needs at least one node"),
            ConfigError::ZeroThreadsPerNode => {
                write!(f, "a run needs at least one application thread per node")
            }
            ConfigError::ExceedsCluster {
                requested,
                available,
            } => write!(
                f,
                "requested {requested} nodes but the modelled cluster has only {available}"
            ),
            ConfigError::Policy(err) => {
                write!(f, "invalid policy selection: {err}")
            }
            ConfigError::InvalidTransport(reason) => {
                write!(f, "invalid transport parameters: {reason}")
            }
            ConfigError::SocketFanIn { degree, bound } => write!(
                f,
                "socket backends keep one connection per peer and support at most {bound} \
                 nodes, {degree} nodes were requested; run fewer nodes or use the simulated \
                 backend"
            ),
        }
    }
}

impl std::error::Error for ConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConfigError::Policy(err) => Some(err),
            _ => None,
        }
    }
}

/// The state shared by every thread of a run (the "single JVM image").
pub(crate) struct RuntimeShared {
    pub(crate) config: HyperionConfig,
    pub(crate) cluster: Arc<Cluster>,
    pub(crate) allocator: Arc<IsoAllocator>,
    pub(crate) dsm: Arc<DsmSystem>,
    pub(crate) registry: ThreadRegistry,
    pub(crate) balancer: LoadBalancer,
    pub(crate) finish: TimeWatermark,
    pub(crate) active_children: AtomicUsize,
    /// Published progress of every thread: the virtual-time grant order of
    /// the monitors (see [`crate::order`]).
    pub(crate) order: OrderTable,
    /// Modeled per-operation latencies (picoseconds) recorded by
    /// [`ThreadCtx::record_serving_op`]: each thread hands over its whole
    /// sample as it ends; folded into the report's tail percentile when the
    /// run ends.
    pub(crate) serving_latencies: parking_lot::Mutex<Vec<Vec<u64>>>,
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
        let dsm = DsmSystem::with_config(
            Arc::clone(&cluster),
            store,
            config.protocol,
            &config.adaptive,
            &config.transport,
        );
        let balancer = LoadBalancer::new(config.nodes);
        Ok(HyperionRuntime {
            shared: Arc::new(RuntimeShared {
                config,
                cluster,
                allocator,
                dsm,
                registry: ThreadRegistry::new(),
                balancer,
                finish: TimeWatermark::new(),
                active_children: AtomicUsize::new(0),
                order: OrderTable::default(),
                serving_latencies: parking_lot::Mutex::new(Vec::new()),
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
    /// shared objects, spawn Hyperion threads (which the load balancer places
    /// round-robin across the nodes, §2.1 Table 1) and join them.  When
    /// `main` returns, the harness waits for any threads that were not
    /// explicitly joined, then assembles the [`RunReport`].
    ///
    /// Each `HyperionRuntime` is intended to measure a single run; build a
    /// fresh runtime per data point.
    pub fn run<R>(&self, main: impl FnOnce(&mut ThreadCtx) -> R) -> RunOutcome<R> {
        let shared = &self.shared;
        let main_node = NodeId(0);
        let tid = shared.registry.register(main_node);
        NodeStats::bump(&shared.cluster.node(main_node).stats.threads_spawned);
        let slot = shared.order.register(tid, 0);
        let mut ctx = ThreadCtx::new(Arc::clone(shared), tid, main_node, VTime::ZERO, slot);

        let result = main(&mut ctx);
        // Program termination is a release point.
        shared.dsm.update_main_memory(main_node, &mut ctx.clock);

        // Wait (in real time) for threads the program did not join; their
        // final virtual times are already folded into the finish watermark.
        ctx.slot.park();
        while shared.active_children.load(Ordering::Acquire) > 0 {
            std::thread::yield_now();
        }
        shared.registry.mark_terminated(tid);
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
        let serving_p99 = serving_p99(&mut shared.serving_latencies.lock());
        let report = RunReport {
            protocol: shared.config.protocol,
            cluster_label: shared.config.cluster.label().to_string(),
            nodes: shared.config.nodes,
            threads: shared.registry.total(),
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
/// the program recorded.  The per-thread samples are sorted where they are
/// and only the top 1 % is merged — op counts are bounded by the workload
/// parameters, and the samples are never copied into one array.
fn serving_p99(samples: &mut [Vec<u64>]) -> VTime {
    let n: usize = samples.iter().map(Vec::len).sum();
    let rank = (n as f64 * 0.99).ceil() as usize;
    samples.iter_mut().for_each(|s| s.sort_unstable());
    let mut largest = 0;
    for _ in rank.max(1)..=n {
        let sample = samples
            .iter_mut()
            .max_by_key(|s| s.last().copied())
            .expect("n > 0: some thread recorded an operation");
        largest = sample.pop().expect("the fullest tail is not empty");
    }
    VTime::from_ps(largest)
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
    /// Number of threads created (including `main`).
    pub threads: usize,
    /// Virtual execution time: the latest finishing time over all threads.
    pub execution_time: VTime,
    /// Virtual finishing time of the `main` thread.
    pub main_thread_time: VTime,
    /// Per-node statistics, indexed by node id.
    pub node_stats: Vec<StatsSnapshot>,
    /// Name of the transport backend that carried the RPCs ("sim",
    /// "unix-socket" or "tcp-socket").
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

    /// Serving operations completed cluster-wide (zero unless the program
    /// recorded operations via [`ThreadCtx::record_serving_op`]).
    pub fn serving_ops(&self) -> u64 {
        self.total_stats().serving_ops
    }

    /// Serving throughput in operations per modeled second.
    pub fn serving_ops_per_sec(&self) -> f64 {
        let secs = self.seconds();
        if secs <= 0.0 {
            0.0
        } else {
            self.serving_ops() as f64 / secs
        }
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
             (revalidated={} patched={}) riders={} (opened={}) diffs={} bytes={} \
             monitors={}/{}\n  \
             home busy={} queue wait={} monitor wait={} (order escapes={})",
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
            t.validation_riders,
            t.rider_opens,
            t.diff_messages,
            t.bytes_moved(),
            t.monitor_enters,
            t.monitor_exits,
            percents(self.home_utilisation()),
            percents(self.home_queue_wait_share()),
            VTime::from_ps(t.monitor_wait_ps),
            t.order_escapes,
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
    /// Latencies this thread recorded via [`ThreadCtx::record_serving_op`],
    /// handed to the run-wide sample once, when the thread ends.
    serving_latencies: Vec<u64>,
    /// This thread's place in the virtual-time grant order, cached so a
    /// publication is one atomic store.
    pub(crate) slot: Arc<Slot>,
    /// Clock movement after which the access wrappers publish again: one
    /// control message, i.e. the thread has absorbed a remote operation.
    publish_step_ps: u64,
    /// The clock value (ps) from which the next such publication is due.
    publish_due_ps: u64,
}

impl Drop for ThreadCtx {
    /// Thread end, normal or by panic: leave the grant order, handing this
    /// thread's place to a joiner that is already waiting for it.
    fn drop(&mut self) {
        self.shared
            .order
            .retire(&self.slot, self.clock.now().as_ps());
    }
}

impl ThreadCtx {
    fn new(
        shared: Arc<RuntimeShared>,
        thread: ThreadId,
        node: NodeId,
        start: VTime,
        slot: Arc<Slot>,
    ) -> Self {
        let publish_step_ps = shared.cluster.control_message_cost().as_ps();
        ThreadCtx {
            shared,
            thread,
            node,
            clock: ThreadClock::starting_at(start),
            serving_latencies: Vec::new(),
            slot,
            publish_step_ps,
            publish_due_ps: start.as_ps() + publish_step_ps,
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

    /// Virtual time explicitly charged to this thread (excludes waiting).
    #[inline]
    pub fn charged(&self) -> VTime {
        self.clock.charged()
    }

    /// The access-detection protocol of this run.
    #[inline]
    pub fn protocol(&self) -> ProtocolKind {
        self.shared.config.protocol
    }

    /// The transport configuration of this run.  Kernels consult it for
    /// transport-aware restructurings (e.g. issuing a fetch a
    /// statement-window early only pays off when the transport can split
    /// the transaction).
    #[inline]
    pub fn transport(&self) -> &TransportConfig {
        &self.shared.config.transport
    }

    /// Number of nodes in this run.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.shared.config.nodes
    }

    /// Application threads per node configured for this run.
    #[inline]
    pub fn threads_per_node(&self) -> usize {
        self.shared.config.threads_per_node
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

    /// Synchronise this thread's clock with an externally observed virtual
    /// instant (the clock only ever moves forward).
    ///
    /// This is how synchronisation constructs propagate ordering: a thread
    /// that logically waits for an event occurring at time `t` can never
    /// proceed before `t`.  Application kernels rarely need it directly.
    #[inline]
    pub fn observe(&mut self, t: VTime) {
        self.clock.merge(t);
    }

    /// Publish this thread's clock as the lower bound of its next place in
    /// the grant order (see [`crate::order`]); returns the published value.
    pub(crate) fn publish_progress(&mut self) -> u64 {
        let now_ps = self.clock.now().as_ps();
        self.publish_due_ps = now_ps + self.publish_step_ps;
        self.slot.publish(now_ps);
        now_ps
    }

    /// Publish once the clock has moved a control message past the last
    /// publication: a thread that only reads still lets the writers it would
    /// otherwise hold back in [`ThreadCtx::admit`] go on.  Called by the
    /// access wrappers, so it is one compare on the hit path.
    #[inline]
    fn publish_if_due(&mut self) {
        if self.clock.now().as_ps() >= self.publish_due_ps {
            self.publish_progress();
        }
    }

    /// The admission step of an ordered acquire: publish this thread's
    /// arrival as its key and wait (in host time only) until no runnable
    /// thread can still arrive before it.  Returns the key.
    pub(crate) fn admit(&mut self) -> Key {
        let key = (self.publish_progress(), self.thread);
        if !self.shared.order.admit(key) {
            NodeStats::bump(&self.shared.cluster.node(self.node).stats.order_escapes);
        }
        key
    }

    // ----- compute charging -------------------------------------------------

    /// Charge an explicit duration of local computation.
    #[inline]
    pub fn charge(&mut self, d: VTime) {
        self.clock.advance(d);
    }

    /// Charge `cycles` of local computation on this node's CPU.
    #[inline]
    pub fn charge_cycles(&mut self, cycles: f64) {
        let d = self.shared.cluster.machine().cpu.cycles(cycles);
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
    /// The counters feed the serving-throughput report rows; the raw
    /// latencies are kept until run end and folded into the exact
    /// 99th-percentile of [`RunReport::serving_p99`].
    pub fn record_serving_op(&mut self, latency: VTime) {
        let stats = &self.shared.cluster.node(self.node).stats;
        NodeStats::bump(&stats.serving_ops);
        NodeStats::bump_by(&stats.serving_op_ps_total, latency.as_ps());
        self.serving_latencies.push(latency.as_ps());
    }

    /// Hand this thread's recorded latencies to the run-wide sample.
    fn merge_serving_latencies(&mut self) {
        if !self.serving_latencies.is_empty() {
            let sample = std::mem::take(&mut self.serving_latencies);
            self.shared.serving_latencies.lock().push(sample);
        }
    }

    // ----- raw DSM access (Table 2 primitives) ------------------------------

    /// Read an 8-byte slot through the DSM (`get` of Table 2).
    #[inline]
    pub fn get_slot(&mut self, addr: GlobalAddr) -> u64 {
        let value = self.shared.dsm.get(self.node, &mut self.clock, addr);
        self.publish_if_due();
        value
    }

    /// Write an 8-byte slot through the DSM (`put` of Table 2).
    #[inline]
    pub fn put_slot(&mut self, addr: GlobalAddr, value: u64) {
        self.shared.dsm.put(self.node, &mut self.clock, addr, value);
        self.publish_if_due();
    }

    /// Explicitly prefetch the page containing `addr` (`loadIntoCache`).
    pub fn load_into_cache(&mut self, addr: GlobalAddr) {
        self.shared
            .dsm
            .load_into_cache(self.node, &mut self.clock, addr.page());
        self.publish_if_due();
    }

    /// Prefetch every page of the `slots` consecutive slots starting at
    /// `addr`: one `loadIntoCache` per touched page.
    ///
    /// Under the blocking transport this pays each fetch up front, exactly
    /// as fetching at first use would; under
    /// [`hyperion_dsm::TransportConfig::overlapped_fetches`] the fetches are
    /// issued as split transactions and only their *residual* latency is
    /// charged when the data is first really used — this is the call a
    /// latency-hiding kernel places as early as its consistency window
    /// allows (right after the acquire that invalidated the cache).
    pub fn prefetch_slots(&mut self, addr: GlobalAddr, slots: usize) {
        if slots == 0 {
            return;
        }
        let first = addr.page();
        let last = addr.offset(slots as u64 - 1).page();
        self.shared
            .dsm
            .prefetch_span(self.node, &mut self.clock, first, last.0 - first.0 + 1);
        self.publish_if_due();
    }

    /// Classify the locality of `addr` as seen from this thread's node.
    ///
    /// Under `java_ic` this *is* one in-line locality check and is charged
    /// (and counted) as such — the program performs exactly the check the
    /// compiled code would, but keeps the answer.  Under `java_pf` and
    /// `java_ad` locality is a free page-table lookup (those runtimes
    /// already maintain per-page state, so resident accesses cost nothing).
    ///
    /// A [`Locality::is_resident`] answer is a *snapshot*: it stays valid
    /// until this node's next cache invalidation (monitor entry, `join`),
    /// after which remote pages must be re-detected.
    pub fn locality(&mut self, addr: GlobalAddr) -> Locality {
        let loc = self.shared.dsm.locality(self.node, addr.page());
        if self.shared.config.protocol == ProtocolKind::JavaIc {
            let node_ref = self.shared.cluster.node(self.node);
            NodeStats::bump(&node_ref.stats.locality_checks);
            let check = self.shared.cluster.machine().cpu.locality_check();
            self.clock.advance(check);
        }
        loc
    }

    /// Bulk read of `out.len()` consecutive slots starting at `addr`,
    /// paying access detection once per touched page instead of once per
    /// slot (the raw form of [`crate::object::HArray::read_slice`]).
    pub fn read_slots(&mut self, addr: GlobalAddr, out: &mut [u64]) {
        self.shared
            .dsm
            .read_slice(self.node, &mut self.clock, addr, out);
        self.publish_if_due();
    }

    /// Bulk write of `values` to consecutive slots starting at `addr`,
    /// paying access detection once per touched page instead of once per
    /// slot (the raw form of [`crate::object::HArray::write_slice`]).
    pub fn write_slots(&mut self, addr: GlobalAddr, values: &[u64]) {
        self.shared
            .dsm
            .write_slice(self.node, &mut self.clock, addr, values);
        self.publish_if_due();
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
        self.shared.allocator.home_of_addr(addr)
    }

    // ----- thread management -------------------------------------------------

    /// Create a Hyperion thread, letting the load balancer pick its node
    /// (round-robin, as in the paper's Table 1).
    pub fn spawn(&mut self, body: impl FnOnce(&mut ThreadCtx) + Send + 'static) -> HThreadHandle {
        let node = self.shared.balancer.assign();
        self.spawn_on(node, body)
    }

    /// Create a Hyperion thread on a specific node.
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
        // to the child: flush the parent's pending modifications so the child
        // (running on another node's cache) observes them.
        self.shared
            .dsm
            .update_main_memory(self.node, &mut self.clock);

        let machine = self.shared.cluster.machine();
        let create_cost = machine.cpu.cycles(machine.dsm.thread_create_cycles);

        // Parent-side cost of the creation request.
        self.clock.advance(create_cost);
        let mut start = self.clock.now();
        if node != self.node {
            // The creation request travels to the target node.
            start += self.shared.cluster.control_message_cost();
        }
        // Child-side initialisation before user code runs.
        start += create_cost;

        let tid = self.shared.registry.register(node);
        NodeStats::bump(&self.shared.cluster.node(node).stats.threads_spawned);
        self.shared.active_children.fetch_add(1, Ordering::AcqRel);
        // The child joins the grant order at its starting time before the OS
        // thread exists, so threads that are already running cannot be
        // admitted past it; the parent's own clock has moved too.
        let slot = self.shared.order.register(tid, start.as_ps());
        self.publish_progress();

        let shared = Arc::clone(&self.shared);
        let child_slot = Arc::clone(&slot);
        let os_handle = std::thread::Builder::new()
            .name(format!("hyperion-{}", tid))
            .spawn(move || {
                let mut ctx = ThreadCtx::new(Arc::clone(&shared), tid, node, start, child_slot);
                body(&mut ctx);
                // Thread termination is a release point: the child's writes
                // must reach main memory so a joining thread can observe them.
                shared.dsm.update_main_memory(node, &mut ctx.clock);
                let end = ctx.clock.now();
                ctx.merge_serving_latencies();
                shared.registry.mark_terminated(tid);
                shared.finish.record(end);
                shared.active_children.fetch_sub(1, Ordering::AcqRel);
                end
            })
            .expect("failed to spawn OS thread for Hyperion thread");

        HThreadHandle::new(tid, node, os_handle, slot)
    }

    /// Join a Hyperion thread: blocks (in real time) until the thread has
    /// finished and merges its final virtual time into this thread's clock.
    pub fn join(&mut self, handle: HThreadHandle) -> VTime {
        // While blocked on the child this thread constrains nobody's place
        // in the grant order: it cannot act before the child has ended, and
        // the ending child publishes for it.
        self.slot.park_behind(handle.slot());
        let end = handle.into_end_time();
        let machine = self.shared.cluster.machine();
        self.clock.merge(end);
        self.clock
            .advance(machine.cpu.cycles(machine.dsm.monitor_local_cycles));
        self.publish_progress();
        // `Thread.join()` is an acquire point: invalidate this node's cache
        // so reads after the join observe everything the joined thread wrote.
        self.shared.dsm.invalidate_cache(self.node, &mut self.clock);
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
        assert_eq!(serving_p99(&mut []), VTime::ZERO);
        assert_eq!(serving_p99(&mut [vec![7]]), VTime::from_ps(7));
        // Uneven per-thread samples with ties across threads.
        let mut x = 0x9E37_79B9u64;
        let mut samples: Vec<Vec<u64>> = [1usize, 250, 0, 999, 37]
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
        assert_eq!(serving_p99(&mut samples), VTime::from_ps(flat[rank - 1]));
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
        let mut c = config(2, ProtocolKind::JavaPf);
        c.threads_per_node = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroThreadsPerNode));
        assert!(config(12, ProtocolKind::JavaPf).validate().is_ok());
        assert_eq!(
            config(4, ProtocolKind::JavaIc)
                .with_threads_per_node(2)
                .total_app_threads(),
            8
        );
        // Errors render.
        assert!(format!("{}", ConfigError::ZeroNodes).contains("at least one node"));
    }

    #[test]
    fn socket_backends_cap_the_node_count_and_the_simulator_does_not() {
        let wide = ClusterSpec {
            max_nodes: 65,
            ..myrinet_200()
        };
        let on = |nodes, backend| {
            HyperionConfig::new(wide.clone(), nodes, ProtocolKind::JavaPf).with_transport(
                TransportConfig {
                    backend,
                    ..TransportConfig::default()
                },
            )
        };
        let too_many = ConfigError::SocketFanIn {
            degree: 65,
            bound: 64,
        };
        for backend in [TransportBackend::UnixSocket, TransportBackend::Tcp] {
            assert_eq!(on(65, backend).validate(), Err(too_many.clone()));
            // The runtime refuses before it builds a cluster: no socket opens.
            assert_eq!(
                HyperionRuntime::new(on(65, backend)).err(),
                Some(too_many.clone())
            );
            assert_eq!(on(64, backend).validate(), Ok(()));
        }
        assert_eq!(on(65, TransportBackend::Sim).validate(), Ok(()));
        assert!(too_many
            .to_string()
            .contains("at most 64 nodes, 65 nodes were requested"));
    }

    #[test]
    fn builder_assembles_and_validates_configs() {
        let built = HyperionConfig::builder()
            .cluster(myrinet_200())
            .nodes(4)
            .protocol(ProtocolKind::JavaPf)
            .build()
            .unwrap();
        let legacy = config(4, ProtocolKind::JavaPf);
        assert_eq!(built.nodes, legacy.nodes);
        assert_eq!(built.protocol, legacy.protocol);
        assert_eq!(built.threads_per_node, legacy.threads_per_node);

        let custom = HyperionConfig::builder()
            .cluster(myrinet_200())
            .nodes(2)
            .protocol(ProtocolKind::JavaIc)
            .threads_per_node(3)
            .build()
            .unwrap();
        assert_eq!(custom.total_app_threads(), 6);
    }

    #[test]
    fn builder_reports_missing_and_invalid_fields() {
        assert_eq!(
            HyperionConfig::builder().build().unwrap_err(),
            ConfigError::MissingField("cluster")
        );
        assert_eq!(
            HyperionConfig::builder()
                .cluster(myrinet_200())
                .build()
                .unwrap_err(),
            ConfigError::MissingField("nodes")
        );
        assert_eq!(
            HyperionConfig::builder()
                .cluster(myrinet_200())
                .nodes(2)
                .build()
                .unwrap_err(),
            ConfigError::MissingField("protocol")
        );
        assert_eq!(
            HyperionConfig::builder()
                .cluster(myrinet_200())
                .nodes(0)
                .protocol(ProtocolKind::JavaIc)
                .build()
                .unwrap_err(),
            ConfigError::ZeroNodes
        );
        assert_eq!(
            HyperionConfig::builder()
                .cluster(myrinet_200())
                .nodes(13)
                .protocol(ProtocolKind::JavaIc)
                .build()
                .unwrap_err(),
            ConfigError::ExceedsCluster {
                requested: 13,
                available: 12
            }
        );
        assert!(format!("{}", ConfigError::MissingField("protocol")).contains("protocol"));
    }

    #[test]
    fn adaptive_params_flow_from_builder_to_the_dsm_engine() {
        let tuned = AdaptiveParams {
            hi_multiple: 3.0,
            lo_multiple: 1.0,
            max_batch_pages: 4,
            min_prefetch_streak: 1,
        };
        let built = HyperionConfig::builder()
            .cluster(myrinet_200())
            .nodes(2)
            .protocol(ProtocolKind::JavaAd)
            .adaptive(tuned.clone())
            .build()
            .unwrap();
        assert_eq!(built.adaptive, tuned);
        let rt = HyperionRuntime::new(built).unwrap();
        let n_star = myrinet_200().machine.adaptive_break_even();
        let (hi, lo) = rt.dsm().adaptive_thresholds();
        assert_eq!(hi, (n_star as f64 * 3.0).ceil() as u64);
        assert_eq!(lo, n_star);

        // Defaults apply when the builder field is left alone.
        let default_config = config(2, ProtocolKind::JavaAd);
        assert_eq!(default_config.adaptive, AdaptiveParams::default());
        assert_eq!(default_config.with_adaptive(tuned.clone()).adaptive, tuned);
    }

    #[test]
    fn adaptive_param_validation_rejects_nonsense() {
        let mut c = config(2, ProtocolKind::JavaAd);
        c.adaptive.max_batch_pages = 0;
        assert_eq!(
            c.validate(),
            Err(ConfigError::Policy(PolicyError::ZeroAdaptiveBatch))
        );
        let mut c = config(2, ProtocolKind::JavaAd);
        c.adaptive.lo_multiple = 2.0; // >= hi_multiple
        assert_eq!(
            c.validate(),
            Err(ConfigError::Policy(PolicyError::InvalidHysteresis))
        );
        assert!(format!("{}", c.validate().unwrap_err()).contains("hysteresis"));
        // The wrapped policy error is exposed as the error's source.
        use std::error::Error as _;
        assert!(c.validate().unwrap_err().source().is_some());
    }

    #[test]
    fn policy_validation_rejects_illegal_selections_with_named_variants() {
        type Edit = fn(&mut TransportConfig);
        let rejected: [(Edit, PolicyError); 5] = [
            (|t| t.max_flush_batch_pages = 0, PolicyError::ZeroFlushBatch),
            (
                |t| {
                    *t = TransportConfig::directory();
                    t.max_flush_batch_pages = 0;
                },
                PolicyError::ZeroFlushBatch,
            ),
            (
                |t| t.replication = Some((0, 1)),
                PolicyError::ZeroReadReplicas,
            ),
            (
                |t| t.replication = Some((2, 0)),
                PolicyError::InvalidWriteQuorum,
            ),
            (
                |t| t.replication = Some((2, 4)),
                PolicyError::InvalidWriteQuorum,
            ),
        ];
        for (edit, expected) in rejected {
            let mut c = config(4, ProtocolKind::JavaPf);
            edit(&mut c.transport);
            assert_eq!(c.validate(), Err(ConfigError::Policy(expected)));
            assert!(format!("{}", c.validate().unwrap_err()).contains(&expected.to_string()));
        }
        // The edges of what is legal.
        let accepted: [Edit; 3] = [
            |t| t.max_flush_batch_pages = 1,
            |t| t.replication = Some((2, 3)),
            |t| t.replication = Some((1, 1)),
        ];
        for edit in accepted {
            let mut c = config(4, ProtocolKind::JavaPf);
            edit(&mut c.transport);
            assert_eq!(c.validate(), Ok(()));
        }
    }

    #[test]
    fn a_run_is_described_once_and_the_engine_builds_what_the_flags_say() {
        let quorum = TransportConfig {
            replication: Some((2, 2)),
            ..TransportConfig::default()
        };
        for transport in [
            TransportConfig::blocking(),
            TransportConfig::latency_hiding(),
            TransportConfig::directory(),
            quorum,
        ] {
            for protocol in ProtocolKind::all_extended() {
                let cfg = config(2, protocol).with_transport(transport.clone());
                let rt = HyperionRuntime::new(cfg).unwrap();
                assert_eq!(rt.dsm().kind(), protocol);
                // The flags a kernel reads are the ones the engine was built
                // from: the same `TransportConfig` value.
                assert_eq!(rt.dsm().transport(), &transport);
                rt.run(|ctx| assert_eq!(ctx.transport(), &transport));
            }
        }
    }

    #[test]
    fn adaptive_runtime_runs_programs_end_to_end() {
        let rt = HyperionRuntime::new(config(2, ProtocolKind::JavaAd)).unwrap();
        assert_eq!(rt.protocol(), ProtocolKind::JavaAd);
        let out = rt.run(|ctx| {
            let a = ctx.alloc_slots(4, NodeId(1));
            ctx.put_slot(a, 77);
            ctx.get_slot(a)
        });
        assert_eq!(out.result, 77);
        assert!(out.report.summary().contains("java_ad"));
    }

    #[test]
    fn locality_query_classifies_and_charges_per_protocol() {
        // java_pf: the query is free.
        let rt = HyperionRuntime::new(config(2, ProtocolKind::JavaPf)).unwrap();
        rt.run(|ctx| {
            let local = ctx.alloc_slots(4, NodeId(0));
            let remote = ctx.alloc_slots(4, NodeId(1));
            let t0 = ctx.now();
            assert_eq!(ctx.locality(local), Locality::Local);
            assert_eq!(ctx.locality(remote), Locality::Remote);
            assert_eq!(ctx.now(), t0, "pf locality queries are free");
            let _ = ctx.get_slot(remote); // fault + fetch
            assert_eq!(ctx.locality(remote), Locality::CachedRemote);
        });
        assert_eq!(rt.cluster().total_stats().locality_checks, 0);

        // java_ic: the query is one in-line check, charged and counted.
        let rt = HyperionRuntime::new(config(2, ProtocolKind::JavaIc)).unwrap();
        rt.run(|ctx| {
            let remote = ctx.alloc_slots(4, NodeId(1));
            let t0 = ctx.now();
            assert_eq!(ctx.locality(remote), Locality::Remote);
            assert!(ctx.now() > t0, "ic locality queries cost one check");
        });
        assert_eq!(rt.cluster().total_stats().locality_checks, 1);
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
        // One thread was spawned on each node (plus main on node 0).
        let spawned: Vec<u64> = out
            .report
            .node_stats
            .iter()
            .map(|s| s.threads_spawned)
            .collect();
        assert_eq!(spawned, vec![2, 1, 1, 1]);
    }

    #[test]
    fn unjoined_threads_are_still_waited_for_and_counted() {
        let rt = HyperionRuntime::new(config(2, ProtocolKind::JavaIc)).unwrap();
        let out = rt.run(|ctx| {
            let _ = ctx.spawn(|worker| {
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
    fn load_balancer_places_spawned_threads_round_robin() {
        let rt = HyperionRuntime::new(config(3, ProtocolKind::JavaIc)).unwrap();
        let out = rt.run(|ctx| {
            let handles: Vec<_> = (0..6).map(|_| ctx.spawn(|_| {})).collect();
            let nodes: Vec<u32> = handles.iter().map(|h| h.node().0).collect();
            for h in handles {
                ctx.join(h);
            }
            nodes
        });
        assert_eq!(out.result, vec![0, 1, 2, 0, 1, 2]);
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
            let t3 = ctx.now();
            ctx.charge_cycles(200.0);
            let t4 = ctx.now();
            (t1 - t0, t2 - t1, t3 - t2, t4 - t3)
        });
        let (a, b, c, d) = out.result;
        assert_eq!(a, b);
        assert_eq!(c, b.times(10));
        // 200 cycles at 200 MHz is exactly 1 us.
        assert_eq!(d, VTime::from_us(1));
    }
}
