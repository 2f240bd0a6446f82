//! The cluster: a fixed set of homogeneous nodes plus the RPC service table.

use std::sync::{Arc, RwLock};

use hyperion_model::sync::{read, write};
use hyperion_model::{MachineModel, StatsSnapshot, ThreadClock, VTime};

use crate::comm::{RpcHandler, ServiceId, MSG_HEADER_BYTES};
use crate::node::{Node, NodeId};
use crate::socket::SocketTransport;
use crate::transport::{SimTransport, Transport, TransportBackend, TransportError};

/// A cluster executing a single distributed JVM image.
///
/// The cluster owns the machine model (both of the paper's clusters are
/// homogeneous), one [`Node`] per cluster node, the table of registered RPC
/// services, and the [`Transport`] that carries RPC round trips.  By default
/// the transport is the in-process [`SimTransport`]; see
/// [`Cluster::with_transport`] and [`Cluster::for_backend`] for running the
/// same cluster over real sockets.
pub struct Cluster {
    machine: MachineModel,
    nodes: Vec<Arc<Node>>,
    services: RwLock<Vec<Arc<dyn RpcHandler>>>,
    transport: Arc<dyn Transport>,
}

impl Cluster {
    /// Build a cluster of `num_nodes` identical nodes on the default
    /// in-process [`SimTransport`].
    ///
    /// # Panics
    /// Panics if `num_nodes` is zero.
    pub fn new(machine: MachineModel, num_nodes: usize) -> Arc<Self> {
        Self::with_transport(machine, num_nodes, Arc::new(SimTransport))
    }

    /// Build a cluster of `num_nodes` identical nodes over an explicit
    /// [`Transport`].  The transport's [`Transport::start`] hook runs once
    /// the cluster is fully constructed, and [`Transport::shutdown`] runs
    /// when the cluster is dropped.
    ///
    /// # Panics
    /// Panics if `num_nodes` is zero.
    pub fn with_transport(
        machine: MachineModel,
        num_nodes: usize,
        transport: Arc<dyn Transport>,
    ) -> Arc<Self> {
        assert!(num_nodes > 0, "a cluster needs at least one node");
        let nodes = (0..num_nodes)
            .map(|i| Arc::new(Node::new(NodeId(i as u32))))
            .collect();
        let cluster = Arc::new(Cluster {
            machine,
            nodes,
            services: RwLock::new(Vec::new()),
            transport,
        });
        cluster.transport.start(&cluster);
        cluster
    }

    /// Build a cluster for a [`TransportBackend`] selector: the simulated
    /// transport, or one Unix-domain socket pair per called node.
    ///
    /// # Panics
    /// Panics if `num_nodes` is zero.
    pub fn for_backend(
        machine: MachineModel,
        num_nodes: usize,
        backend: TransportBackend,
    ) -> Arc<Self> {
        Self::for_backend_with_faults(machine, num_nodes, backend, None)
    }

    /// Like [`Cluster::for_backend`], with the chosen transport wrapped in a
    /// [`FaultyTransport`](crate::fault::FaultyTransport) replaying `fault`.
    /// A `None` (or no-op) spec skips the wrapper entirely, so the fault-free
    /// path stays byte-identical to [`Cluster::for_backend`].
    ///
    /// # Panics
    /// Panics if `num_nodes` is zero.
    pub fn for_backend_with_faults(
        machine: MachineModel,
        num_nodes: usize,
        backend: TransportBackend,
        fault: Option<crate::fault::FaultSpec>,
    ) -> Arc<Self> {
        let mut transport: Arc<dyn Transport> = match backend {
            TransportBackend::Sim => Arc::new(SimTransport),
            TransportBackend::UnixSocket => Arc::new(SocketTransport::unix()),
        };
        if let Some(spec) = fault.filter(|spec| !spec.is_noop()) {
            transport = Arc::new(crate::fault::FaultyTransport::new(transport, spec));
        }
        Self::with_transport(machine, num_nodes, transport)
    }

    /// The machine model shared by every node.
    #[inline]
    pub fn machine(&self) -> &MachineModel {
        &self.machine
    }

    /// The transport carrying this cluster's RPC round trips.
    #[inline]
    pub fn transport(&self) -> &dyn Transport {
        self.transport.as_ref()
    }

    /// Number of nodes in this cluster.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Access a node by id.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Iterate over all nodes in id order.
    pub fn nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter().map(|n| n.as_ref())
    }

    /// Register an RPC service; the returned [`ServiceId`] is what callers
    /// pass to [`Cluster::rpc`].
    pub fn register_service(&self, handler: Arc<dyn RpcHandler>) -> ServiceId {
        let mut services = write(&self.services);
        services.push(handler);
        ServiceId(services.len() - 1)
    }

    /// Number of registered services.
    pub fn num_services(&self) -> usize {
        read(&self.services).len()
    }

    /// Look up a registered handler (used by transports to dispatch).
    pub(crate) fn handler(&self, service: ServiceId) -> Option<Arc<dyn RpcHandler>> {
        read(&self.services).get(service.0).map(Arc::clone)
    }

    /// Human-readable name of a registered service (`"unknown-service"` for
    /// an out-of-range id).
    pub fn service_name(&self, service: ServiceId) -> &'static str {
        read(&self.services)
            .get(service.0)
            .map(|h| h.name())
            .unwrap_or("unknown-service")
    }

    /// Names of every registered service, in service-table order.
    pub fn service_names(&self) -> Vec<&'static str> {
        read(&self.services).iter().map(|h| h.name()).collect()
    }

    /// Invoke service `service` on node `to` on behalf of a thread running on
    /// node `from`, charging the full virtual-time cost of the round trip to
    /// `clock`.
    ///
    /// Timing model (for `from != to`):
    ///
    /// 1. requester: marshalling + protocol software + NIC send overhead;
    /// 2. wire: one-way latency + header/payload transfer;
    /// 3. target node: the request is serialised through the node's service
    ///    clock; service time = fixed protocol handler cost + the handler's
    ///    own reported [`RpcReply::service`](crate::comm::RpcReply::service);
    /// 4. wire back: latency + reply transfer;
    /// 5. requester: NIC receive overhead.
    ///
    /// A local invocation (`from == to`) only pays the protocol software
    /// costs — no wire, no NIC overheads, no service-clock occupancy.
    ///
    /// # Errors
    /// Returns a [`TransportError`] for an unregistered service, a malformed
    /// frame from a socket peer, an unrecoverable socket I/O failure, or a
    /// remote handler failure.  The in-process [`SimTransport`] can only
    /// fail with [`TransportError::UnknownService`].
    pub fn rpc(
        &self,
        clock: &mut ThreadClock,
        from: NodeId,
        to: NodeId,
        service: ServiceId,
        payload: &[u8],
    ) -> Result<Vec<u8>, TransportError> {
        let (data, completion) = self.rpc_split(clock, from, to, service, payload)?;
        clock.merge(completion);
        Ok(data)
    }

    /// Split-transaction form of [`Cluster::rpc`]: issue the request,
    /// charging only the requester-side issue costs (marshalling, protocol
    /// software, NIC send overhead) to `clock`, and return the reply payload
    /// together with the virtual instant at which the reply *arrives back*
    /// at the requester.
    ///
    /// The caller decides when the transaction completes: a blocking caller
    /// merges the completion time immediately (that is what [`Cluster::rpc`]
    /// does), an overlapping caller keeps computing and merges it at the
    /// first real use of the reply, paying only the residual latency.  The
    /// reply *bytes* are available immediately — every transport executes
    /// the handler synchronously within the call — but consuming them before
    /// merging the completion time would let a thread observe data "from the
    /// future" in virtual time, so don't.
    ///
    /// # Errors
    /// See [`Cluster::rpc`].
    pub fn rpc_split(
        &self,
        clock: &mut ThreadClock,
        from: NodeId,
        to: NodeId,
        service: ServiceId,
        payload: &[u8],
    ) -> Result<(Vec<u8>, VTime), TransportError> {
        self.transport
            .rpc_split(self, clock, from, to, service, payload)
    }

    /// One-way virtual cost of a minimal control message between two distinct
    /// nodes (used for remote thread creation and monitor signalling).
    pub fn control_message_cost(&self) -> VTime {
        self.machine.net.one_way(MSG_HEADER_BYTES)
    }

    /// Snapshot of a single node's statistics.
    pub fn node_stats(&self, id: NodeId) -> StatsSnapshot {
        self.node(id).stats.snapshot()
    }

    /// Per-node statistics snapshots, in node order.
    pub fn all_stats(&self) -> Vec<StatsSnapshot> {
        self.nodes.iter().map(|n| n.stats.snapshot()).collect()
    }

    /// Cluster-wide statistics total.
    pub fn total_stats(&self) -> StatsSnapshot {
        StatsSnapshot::total(self.all_stats().iter())
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        // Socket transports own server threads holding a Weak to this
        // cluster; stop them before the nodes go away.  Idempotent, and a
        // no-op for the simulated transport.
        self.transport.shutdown();
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("machine", &self.machine.name)
            .field("num_nodes", &self.nodes.len())
            .field("num_services", &self.num_services())
            .field("transport", &self.transport.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::RpcReply;
    use hyperion_model::myrinet_200;

    fn test_cluster(nodes: usize) -> Arc<Cluster> {
        Cluster::new(myrinet_200().machine, nodes)
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_node_cluster_is_rejected() {
        let _ = test_cluster(0);
    }

    #[test]
    fn cluster_exposes_nodes_and_machine() {
        let c = test_cluster(4);
        assert_eq!(c.num_nodes(), 4);
        assert_eq!(c.machine().name, "200MHz/Myrinet");
        assert_eq!(c.node(NodeId(2)).id(), NodeId(2));
        let ids: Vec<NodeId> = c.nodes().map(Node::id).collect();
        assert_eq!(ids, [NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(c.transport().name(), "sim");
        assert!(c.transport().wire_stats().is_none());
    }

    #[test]
    fn local_rpc_charges_only_software_cost() {
        let c = test_cluster(2);
        let svc = c.register_service(Arc::new(|_n: &Node, _c: NodeId, p: &[u8]| {
            RpcReply::with_data(p.to_vec(), VTime::ZERO)
        }));
        let mut clock = ThreadClock::new();
        let out = c
            .rpc(&mut clock, NodeId(0), NodeId(0), svc, &[9, 9])
            .expect("local rpc");
        assert_eq!(out, vec![9, 9]);
        let expected = c.machine().cpu.cycles(
            c.machine().dsm.protocol_request_cycles + c.machine().dsm.protocol_server_cycles,
        );
        assert_eq!(clock.now(), expected);
        // No wire traffic for a local call.
        assert_eq!(c.node_stats(NodeId(0)).bytes_sent, 0);
    }

    #[test]
    fn remote_rpc_charges_wire_and_service_costs() {
        let c = test_cluster(2);
        let svc = c.register_service(Arc::new(|_n: &Node, _c: NodeId, _p: &[u8]| {
            RpcReply::with_data(vec![0u8; 4096], VTime::from_us(5))
        }));
        let mut clock = ThreadClock::new();
        let out = c
            .rpc(&mut clock, NodeId(0), NodeId(1), svc, &[0u8; 16])
            .expect("remote rpc");
        assert_eq!(out.len(), 4096);

        let m = c.machine();
        // Lower bound: two latencies, the page transfer and the fault-free
        // service time must all be included.
        let lower = m.net.latency.times(2)
            + m.net.transfer(4096)
            + VTime::from_us(5)
            + m.net.send_overhead
            + m.net.recv_overhead;
        assert!(clock.now() >= lower, "{} < {}", clock.now(), lower);
        // Exactly: the home was idle, so the caller stalled for the priced
        // round trip and nothing else.
        let priced = crate::idle_round_trip(m, 16, 4096, VTime::from_us(5));
        assert_eq!(clock.now(), priced);

        let s0 = c.node_stats(NodeId(0));
        let s1 = c.node_stats(NodeId(1));
        assert_eq!(s0.rpc_requests, 1);
        assert_eq!(s1.rpc_served, 1);
        assert!(s0.bytes_sent >= 16 + MSG_HEADER_BYTES);
        assert!(s0.bytes_received >= 4096 + MSG_HEADER_BYTES);
        assert_eq!(s1.bytes_received, s0.bytes_sent);
        assert_eq!(s1.bytes_sent, s0.bytes_received);
    }

    #[test]
    fn concurrent_rpcs_to_one_home_are_serialised() {
        let c = test_cluster(3);
        let svc = c.register_service(Arc::new(|_n: &Node, _c: NodeId, _p: &[u8]| {
            RpcReply::ack(VTime::from_us(100))
        }));
        // Two different callers target node 2 at the same virtual time; the
        // second to be served must finish at least 100us after the first.
        let mut c1 = ThreadClock::new();
        let mut c2 = ThreadClock::new();
        c.rpc(&mut c1, NodeId(0), NodeId(2), svc, &[]).unwrap();
        c.rpc(&mut c2, NodeId(1), NodeId(2), svc, &[]).unwrap();
        let (early, late) = if c1.now() < c2.now() {
            (c1.now(), c2.now())
        } else {
            (c2.now(), c1.now())
        };
        assert!(late >= early + VTime::from_us(100));
    }

    #[test]
    fn unknown_service_is_a_typed_error_not_a_panic() {
        let c = test_cluster(1);
        let svc = c.register_service(Arc::new(|_n: &Node, _c: NodeId, _p: &[u8]| {
            RpcReply::ack(VTime::ZERO)
        }));
        let mut clock = ThreadClock::new();
        let err = c
            .rpc(&mut clock, NodeId(0), NodeId(0), ServiceId(42), &[])
            .unwrap_err();
        match err {
            TransportError::UnknownService {
                service,
                registered,
            } => {
                assert_eq!(service, 42);
                assert_eq!(registered, 1);
            }
            other => panic!("expected UnknownService, got {other}"),
        }
        // The failed lookup charged nothing and the node still serves.
        assert_eq!(clock.now(), VTime::ZERO);
        assert_eq!(c.node_stats(NodeId(0)).rpc_requests, 0);
        assert!(c.rpc(&mut clock, NodeId(0), NodeId(0), svc, &[]).is_ok());
    }

    #[test]
    fn service_names_are_exposed() {
        let c = test_cluster(1);
        let svc = c.register_service(Arc::new(|_n: &Node, _c: NodeId, _p: &[u8]| {
            RpcReply::ack(VTime::ZERO)
        }));
        assert_eq!(c.service_name(svc), "anonymous-service");
        assert_eq!(c.service_name(ServiceId(7)), "unknown-service");
        assert_eq!(c.service_names(), vec!["anonymous-service"]);
        assert_eq!(svc.index(), 0);
    }

    #[test]
    fn rpc_split_defers_the_completion_merge() {
        let serving = || {
            let c = test_cluster(2);
            let svc = c.register_service(Arc::new(|_n: &Node, _c: NodeId, _p: &[u8]| {
                RpcReply::with_data(vec![7u8; 64], VTime::from_us(5))
            }));
            (c, svc)
        };

        // Blocking reference call.
        let mut blocking = ThreadClock::new();
        let (c, svc) = serving();
        let _ = c.rpc(&mut blocking, NodeId(0), NodeId(1), svc, &[1]);

        // Split call from a fresh, identical state: both see an idle home.
        let (c, svc) = serving();
        let mut split = ThreadClock::new();
        let (data, completion) = c
            .rpc_split(&mut split, NodeId(0), NodeId(1), svc, &[1])
            .expect("split rpc");
        assert_eq!(data, vec![7u8; 64]);
        // Only the issue costs were charged; the completion matches the
        // blocking call's final time exactly.
        assert!(split.now() < completion);
        assert_eq!(completion, blocking.now());
        split.merge(completion);
        assert_eq!(split.now(), blocking.now());

        // Local split calls complete immediately.
        let mut local = ThreadClock::new();
        let (_, done) = c
            .rpc_split(&mut local, NodeId(1), NodeId(1), svc, &[])
            .expect("local split rpc");
        assert_eq!(done, local.now());
    }

    #[test]
    fn control_message_cost_is_positive_and_latency_bounded() {
        let c = test_cluster(2);
        let cost = c.control_message_cost();
        assert!(cost >= c.machine().net.latency);
    }
}
