//! The pluggable transport layer: how an RPC round trip actually happens.
//!
//! [`Cluster::rpc`] and [`Cluster::rpc_split`] delegate the *mechanics* of a
//! round trip — getting the request to the target node, executing the
//! registered handler there, getting the reply back — to a [`Transport`].
//! Two implementations exist:
//!
//! * [`SimTransport`] (the default): the handler runs inline on the calling
//!   OS thread, exactly as the original single-process simulator did.  No
//!   real I/O takes place.
//! * [`crate::socket::SocketTransport`]: each node runs a real
//!   Unix-domain/TCP(localhost) socket server; the request and reply cross
//!   the wire as length-prefixed frames and the handler runs on the target
//!   node's server thread.
//!
//! Both backends charge the **same modeled virtual-time cost** through
//! the crate-private `charge_round_trip`, and all statistics visible to the
//! protocol layer
//! ([`hyperion_model::NodeStats`], the per-node [`hyperion_model::ServerClock`])
//! are updated on the caller side only.  A run therefore produces identical
//! digests and counters whichever backend carries the bytes — the socket
//! backend merely *also* measures wall-clock round trips, which is what the
//! `bench --transport socket` modeled-vs-measured report compares.

use std::sync::Arc;

use hyperion_model::{MachineModel, NodeStats, ThreadClock, VTime, WireServiceSnapshot};

use crate::cluster::Cluster;
use crate::comm::{ServiceId, MSG_HEADER_BYTES};
use crate::node::NodeId;

/// Which transport implementation a run should use.
///
/// This is the value configuration layers carry around (it is `Copy` and
/// comparable); [`Cluster::for_backend`](crate::Cluster::for_backend) turns
/// it into an actual [`Transport`] instance.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum TransportBackend {
    /// In-process cost-model simulation (the default; no real I/O).
    #[default]
    Sim,
    /// Per-node Unix-domain-socket servers (this machine only).
    UnixSocket,
    /// Per-node TCP servers bound to `127.0.0.1`.
    Tcp,
}

impl TransportBackend {
    /// Stable lower-case name (CLI values, report labels).
    pub fn name(self) -> &'static str {
        match self {
            TransportBackend::Sim => "sim",
            TransportBackend::UnixSocket => "unix",
            TransportBackend::Tcp => "tcp",
        }
    }

    /// Parse a CLI spelling; `socket` is accepted as an alias for `unix`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "sim" => Some(TransportBackend::Sim),
            "unix" | "uds" | "socket" => Some(TransportBackend::UnixSocket),
            "tcp" => Some(TransportBackend::Tcp),
            _ => None,
        }
    }
}

impl std::fmt::Display for TransportBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Why an RPC round trip failed.
///
/// The historical behaviour — `panic!("unknown RPC service …")` deep inside
/// `rpc_split` — is unacceptable once requests arrive from a socket peer: a
/// malformed frame must not abort the node.  Every failure mode is a typed
/// variant instead, and the per-connection server loop answers with an error
/// frame rather than unwinding.
#[derive(Debug)]
pub enum TransportError {
    /// The requested service index is not in the cluster's service table.
    UnknownService {
        /// The offending service-table index.
        service: usize,
        /// Number of services registered when the request was handled.
        registered: usize,
    },
    /// A frame could not be decoded (truncated, bad kind tag, bad lengths).
    MalformedFrame(String),
    /// Socket-level I/O failure that persisted through the bounded redial
    /// schedule the socket backend runs.
    Io {
        /// The node whose server could not be reached.
        peer: NodeId,
        /// The underlying error.
        error: std::io::Error,
    },
    /// The remote server reported a failure while executing the handler
    /// (for in-process servers: the handler panicked and was caught).
    Remote(String),
    /// No reply arrived within the caller's RPC timeout — the request or
    /// reply frame was lost in flight (the fault injector's `drop`).
    TimedOut {
        /// The node that never answered.
        peer: NodeId,
    },
    /// The peer has failed fail-stop: it no longer serves RPCs at all.
    /// Non-retryable — the DSM layer reacts by recovering the pages the
    /// dead node homed, not by re-sending the same frame.
    NodeDown {
        /// The failed node.
        peer: NodeId,
    },
    /// The peer answered with `ERR_SHUTDOWN`: its server is alive but
    /// draining for an orderly exit.  Distinguishable from peer death —
    /// callers must not start failure recovery over it.
    Shutdown(String),
}

impl TransportError {
    /// True for transient failures worth re-sending the same frame for
    /// (lost frames, broken sockets, handler panics).  `NodeDown`,
    /// `Shutdown`, and caller bugs (`UnknownService`, `MalformedFrame`)
    /// are not retryable.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            TransportError::Io { .. } | TransportError::TimedOut { .. } | TransportError::Remote(_)
        )
    }
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::UnknownService {
                service,
                registered,
            } => write!(f, "unknown RPC service {service} ({registered} registered)"),
            TransportError::MalformedFrame(msg) => write!(f, "malformed frame: {msg}"),
            TransportError::Io { peer, error } => {
                write!(f, "I/O error talking to {peer}: {error}")
            }
            TransportError::Remote(msg) => write!(f, "remote handler failure: {msg}"),
            TransportError::TimedOut { peer } => {
                write!(f, "no reply from {peer} within the RPC timeout")
            }
            TransportError::NodeDown { peer } => write!(f, "node {peer} is down"),
            TransportError::Shutdown(msg) => {
                write!(f, "peer is shutting down: {msg}")
            }
        }
    }
}

impl std::error::Error for TransportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TransportError::Io { error, .. } => Some(error),
            _ => None,
        }
    }
}

/// A transport: the mechanism that executes one RPC round trip.
///
/// Implementations must (a) run the registered handler against the *target
/// node's* state exactly once per successful call and (b) charge the
/// caller's clock the modeled round-trip cost via `charge_round_trip`, so
/// that every backend yields the same virtual-time results and node
/// statistics.
pub trait Transport: Send + Sync {
    /// Execute one round trip in split-transaction form: charge only the
    /// requester-side issue costs to `clock` and return the reply payload
    /// together with the virtual instant the reply arrives back.
    ///
    /// See [`Cluster::rpc_split`] for the full timing contract.
    fn rpc_split(
        &self,
        cluster: &Cluster,
        clock: &mut ThreadClock,
        from: NodeId,
        to: NodeId,
        service: ServiceId,
        payload: &[u8],
    ) -> Result<(Vec<u8>, VTime), TransportError>;

    /// Called once by [`Cluster::with_transport`](crate::Cluster::with_transport)
    /// after the cluster is fully constructed: start any server machinery.
    /// Backends that need a handle back to the cluster should keep a
    /// [`std::sync::Weak`] — the cluster owns the transport, not vice versa.
    fn start(&self, _cluster: &Arc<Cluster>) {}

    /// Stop servers and release resources.  Must be idempotent; called from
    /// `Drop for Cluster`.
    fn shutdown(&self) {}

    /// Backend name for diagnostics and report labels.
    fn name(&self) -> &'static str;

    /// Per-service wire counters, if this backend performs real I/O.
    fn wire_stats(&self) -> Option<Vec<WireServiceSnapshot>> {
        None
    }
}

/// The outcome of [`charge_round_trip`]: when the transaction completes in
/// virtual time, and how long the whole modeled round trip was (completion
/// minus the caller's clock at entry — the span a blocking caller would
/// stall for).
pub(crate) struct RoundTrip {
    pub completion: VTime,
    pub modeled: VTime,
}

/// The fixed parts of one remote RPC round trip on `machine`, in the order a
/// caller lives through them.  The one place the paper's RPC cost model is
/// spelled out: [`charge_round_trip`] charges exactly these around the
/// home's service clock, and [`idle_round_trip`] sums them.
struct RoundTripLegs {
    /// Caller-side protocol software and send overhead.
    issue: VTime,
    /// The request's flight to the home.
    outbound: VTime,
    /// Home-side protocol software, before the handler's own service time.
    server_cpu: VTime,
    /// The reply's flight back and its absorption by the caller.
    inbound: VTime,
}

impl RoundTripLegs {
    fn of(machine: &MachineModel, request_len: usize, reply_len: usize) -> Self {
        let (cpu, net, dsm) = (&machine.cpu, &machine.net, &machine.dsm);
        let req_bytes = MSG_HEADER_BYTES + request_len as u64;
        let reply_bytes = MSG_HEADER_BYTES + reply_len as u64;
        RoundTripLegs {
            issue: cpu.cycles(dsm.protocol_request_cycles) + net.send_overhead,
            outbound: net.latency + net.transfer(req_bytes),
            server_cpu: cpu.cycles(dsm.protocol_server_cycles),
            inbound: net.latency + net.transfer(reply_bytes) + net.recv_overhead,
        }
    }
}

/// How long a blocking caller stalls for one RPC to another node whose
/// service clock is idle: what [`Cluster::rpc`] charges for `request_len`
/// payload bytes out, `reply_len` back and `service_time` in the handler
/// when nothing queues.  For break-even arguments that weigh a mechanism
/// against the round trip it saves.
pub fn idle_round_trip(
    machine: &MachineModel,
    request_len: usize,
    reply_len: usize,
    service_time: VTime,
) -> VTime {
    let legs = RoundTripLegs::of(machine, request_len, reply_len);
    legs.issue + legs.outbound + legs.server_cpu + service_time + legs.inbound
}

/// Charge the modeled cost of one RPC round trip to the caller's clock and
/// the two nodes' statistics, and serialise the request through the target
/// node's service clock.
///
/// Both the simulated and the socket transport call it with identical
/// arguments (payload length, reply length, handler-reported service time),
/// which is what keeps the two backends' virtual-time results identical by
/// construction.
pub(crate) fn charge_round_trip(
    cluster: &Cluster,
    clock: &mut ThreadClock,
    from: NodeId,
    to: NodeId,
    request_len: usize,
    reply_len: usize,
    service_time: VTime,
) -> RoundTrip {
    let machine = cluster.machine();
    let from_node = cluster.node(from);
    let to_node = cluster.node(to);

    NodeStats::bump(&from_node.stats.rpc_requests);
    NodeStats::bump(&to_node.stats.rpc_served);

    let start = clock.now();

    if from == to {
        // Local invocation: protocol software only, nothing to overlap.
        let (cpu, dsm) = (&machine.cpu, &machine.dsm);
        let request_cpu = cpu.cycles(dsm.protocol_request_cycles);
        let server_cpu = cpu.cycles(dsm.protocol_server_cycles);
        clock.advance(request_cpu + server_cpu + service_time);
        return RoundTrip {
            completion: clock.now(),
            modeled: clock.now() - start,
        };
    }

    let legs = RoundTripLegs::of(machine, request_len, reply_len);
    let req_bytes = MSG_HEADER_BYTES + request_len as u64;
    let reply_bytes = MSG_HEADER_BYTES + reply_len as u64;

    NodeStats::bump_by(&from_node.stats.bytes_sent, req_bytes);
    NodeStats::bump_by(&to_node.stats.bytes_received, req_bytes);
    NodeStats::bump_by(&to_node.stats.bytes_sent, reply_bytes);
    NodeStats::bump_by(&from_node.stats.bytes_received, reply_bytes);

    // 1. + 2. request leaves the caller and crosses the wire.
    clock.advance(legs.issue);
    let arrival = clock.now() + legs.outbound;

    // 3. service at the home node (serialised), attributed to the home.
    let service = legs.server_cpu + service_time;
    let done = to_node.server.serve(arrival, service);
    NodeStats::bump_by(&to_node.stats.rpc_service_ps, service.as_ps());
    NodeStats::bump_by(
        &to_node.stats.rpc_queue_wait_ps,
        (done - service - arrival).as_ps(),
    );

    // 4. + 5. reply crosses the wire and is absorbed by the caller.
    let completion = done + legs.inbound;

    RoundTrip {
        completion,
        modeled: completion - start,
    }
}

/// The default in-process transport: the handler runs synchronously on the
/// calling OS thread against the target node's state, and only virtual time
/// is charged.  This is byte-for-byte the behaviour `Cluster::rpc_split` had
/// before the transport was made pluggable.
#[derive(Debug, Default)]
pub struct SimTransport;

impl Transport for SimTransport {
    fn rpc_split(
        &self,
        cluster: &Cluster,
        clock: &mut ThreadClock,
        from: NodeId,
        to: NodeId,
        service: ServiceId,
        payload: &[u8],
    ) -> Result<(Vec<u8>, VTime), TransportError> {
        let handler = cluster
            .handler(service)
            .ok_or_else(|| TransportError::UnknownService {
                service: service.0,
                registered: cluster.num_services(),
            })?;
        // The handler runs on the target node's state regardless of where
        // the calling OS thread happens to be executing.
        let reply = handler.handle(cluster.node(to), from, payload);
        if let Some(why) = reply.error {
            return Err(TransportError::MalformedFrame(why));
        }
        let trip = charge_round_trip(
            cluster,
            clock,
            from,
            to,
            payload.len(),
            reply.data.len(),
            reply.service,
        );
        Ok((reply.data, trip.completion))
    }

    fn name(&self) -> &'static str {
        "sim"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_names_and_parsing_round_trip() {
        for b in [
            TransportBackend::Sim,
            TransportBackend::UnixSocket,
            TransportBackend::Tcp,
        ] {
            assert_eq!(TransportBackend::parse(b.name()), Some(b));
            assert_eq!(format!("{b}"), b.name());
        }
        assert_eq!(
            TransportBackend::parse("socket"),
            Some(TransportBackend::UnixSocket)
        );
        assert_eq!(TransportBackend::parse("carrier-pigeon"), None);
        assert_eq!(TransportBackend::default(), TransportBackend::Sim);
    }

    #[test]
    fn transport_errors_render_their_context() {
        let e = TransportError::UnknownService {
            service: 42,
            registered: 2,
        };
        assert!(format!("{e}").contains("unknown RPC service 42"));
        assert!(format!("{e}").contains("2 registered"));

        let e = TransportError::MalformedFrame("short header".into());
        assert!(format!("{e}").contains("short header"));

        let e = TransportError::Io {
            peer: NodeId(3),
            error: std::io::Error::new(std::io::ErrorKind::ConnectionRefused, "nope"),
        };
        assert!(format!("{e}").contains("node3"));
        assert!(std::error::Error::source(&e).is_some());

        let e = TransportError::Remote("handler panicked".into());
        assert!(format!("{e}").contains("handler panicked"));
        assert!(std::error::Error::source(&e).is_none());

        let e = TransportError::TimedOut { peer: NodeId(5) };
        assert!(format!("{e}").contains("node5"));
        assert!(e.is_retryable());

        let e = TransportError::NodeDown { peer: NodeId(7) };
        assert!(format!("{e}").contains("node7"));
        assert!(!e.is_retryable());

        let e = TransportError::Shutdown("draining".into());
        assert!(format!("{e}").contains("draining"));
        assert!(!e.is_retryable());
    }
}
