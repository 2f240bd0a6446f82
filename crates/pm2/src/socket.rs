//! Socket-backed transport: each node's registered RPC handler table served
//! from behind a real Unix-domain socket.
//!
//! While [`crate::transport::SimTransport`] executes handlers inline, this
//! backend makes the communication *physical*: the first call to a node
//! opens one socket pair for it, whose far end one server thread serves
//! for the rest of the run, and every caller shares the near end, holding
//! it for one round trip.  Requests and replies cross the wire
//! as length-prefixed frames whose payloads are the already byte-precise DSM
//! wire forms (`dsm/diff.rs` diff batches, fetch requests and replies,
//! diff acknowledgements).  Nodes run as per-node
//! server *threads* inside one process (process-per-node can follow); the
//! frame format carries explicit `from`/`to` node ids so nothing about it
//! assumes shared memory.
//!
//! ## Frame layout
//!
//! ```text
//! offset  size  field
//!      0     4  length of everything that follows, u32 LE
//!      4     1  kind: 1 = request, 2 = reply, 3 = error
//!      5     4  service-table index, u32 LE
//!      9     4  requesting node id, u32 LE
//!     13     4  target node id, u32 LE
//!     17     8  aux, u64 LE — replies carry the handler's reported service
//!               time in picoseconds; requests and errors carry 0
//!     25     …  payload
//! ```
//!
//! Error-frame payloads are `code (u8) · detail (u32 LE) · UTF-8 message`;
//! the codes are [`ERR_UNKNOWN_SERVICE`] (detail = number of registered
//! services), [`ERR_HANDLER_PANIC`], [`ERR_MALFORMED`] and [`ERR_SHUTDOWN`].
//!
//! ## Timing contract
//!
//! The server side never touches [`hyperion_model::NodeStats`] or the target
//! node's service clock; it only executes the handler and ships the reply
//! (plus the handler's virtual service time) back.  The **caller** then runs
//! the exact same modeled-cost accounting the simulated backend uses, so
//! virtual-time results and per-node counters are identical across backends.
//! What this backend adds is a wall-clock measurement of every round trip,
//! accumulated per service in [`hyperion_model::WireStats`] — the "measured"
//! column of the bench harness's modeled-vs-measured report.
//!
//! ## Failure handling
//!
//! A socket pair has no connection set-up to race, so nothing is re-tried
//! here: an I/O error surfaces as [`TransportError::Io`] for the DSM's
//! fixed retry schedule to handle.  Server side, a handler panic or a reply
//! too large for a frame is answered with an error frame (the node keeps
//! serving), and malformed frames are rejected — never panicked on.  A peer
//! that is draining answers [`ERR_SHUTDOWN`], which decodes to the dedicated
//! [`TransportError::Shutdown`] variant so callers can tell an orderly exit
//! apart from peer death.  [`SocketTransport::shutdown`] (called from `Drop
//! for Cluster`) drops every pair's near end, so each server thread reads
//! EOF, and joins them; it is idempotent, and a call after it fails with
//! [`TransportError::Io`].

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::{Arc, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::Instant;

use hyperion_model::sync::lock;
use hyperion_model::{ThreadClock, VTime, WireServiceSnapshot, WireStats};

use crate::cluster::Cluster;
use crate::comm::{RpcReply, ServiceId};
use crate::node::NodeId;
use crate::transport::{charge_round_trip, Transport, TransportError};

/// Bytes of a frame header, after the 4-byte length prefix.
pub const FRAME_HEADER_BYTES: usize = 21;

/// Upper bound accepted for one frame body (header + payload).  Far above
/// any legitimate DSM message (the largest are batched diff flushes and
/// fetch replies of a page and its riders' patches); a peer announcing more than this is talking garbage and the
/// connection is dropped instead of allocating unbounded memory.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// Error-frame code: the requested service index is not registered.
pub const ERR_UNKNOWN_SERVICE: u8 = 1;
/// Error-frame code: the handler panicked, or its reply does not fit a
/// frame (caught; the node keeps serving).
pub const ERR_HANDLER_PANIC: u8 = 2;
/// Error-frame code: the request frame could not be decoded or addressed.
pub const ERR_MALFORMED: u8 = 3;
/// Error-frame code: the server is shutting down.
pub const ERR_SHUTDOWN: u8 = 4;

/// Frame discriminant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameKind {
    /// A request for the target node's handler table.
    Request,
    /// A successful reply; `aux` carries the handler's service time (ps).
    Reply,
    /// A server-reported failure; the payload is `code · detail · message`.
    Error,
}

impl FrameKind {
    fn to_byte(self) -> u8 {
        match self {
            FrameKind::Request => 1,
            FrameKind::Reply => 2,
            FrameKind::Error => 3,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            1 => Some(FrameKind::Request),
            2 => Some(FrameKind::Reply),
            3 => Some(FrameKind::Error),
            _ => None,
        }
    }
}

/// A decoded frame header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameHeader {
    /// What this frame is.
    pub kind: FrameKind,
    /// Service-table index the request addresses (echoed on replies).
    pub service: u32,
    /// Requesting node id.
    pub from: u32,
    /// Target node id.
    pub to: u32,
    /// Replies: the handler's reported service time in picoseconds;
    /// requests and errors: 0.
    pub aux: u64,
}

/// Encode one complete frame: length prefix, header, payload.
pub fn encode_frame(header: FrameHeader, payload: &[u8]) -> Vec<u8> {
    let body_len = FRAME_HEADER_BYTES + payload.len();
    assert!(body_len <= MAX_FRAME_BYTES, "frame payload too large");
    let mut out = Vec::with_capacity(4 + body_len);
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
    out.push(header.kind.to_byte());
    out.extend_from_slice(&header.service.to_le_bytes());
    out.extend_from_slice(&header.from.to_le_bytes());
    out.extend_from_slice(&header.to.to_le_bytes());
    out.extend_from_slice(&header.aux.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Decode a frame body (everything after the length prefix) into its header
/// and payload.  Truncated or malformed input is *rejected*, never panicked
/// on — this is the boundary where bytes from an untrusted peer enter the
/// node.
pub fn decode_frame(body: &[u8]) -> Result<(FrameHeader, &[u8]), String> {
    if body.len() < FRAME_HEADER_BYTES {
        return Err(format!(
            "frame body of {} bytes is shorter than the {FRAME_HEADER_BYTES}-byte header",
            body.len()
        ));
    }
    let kind = FrameKind::from_byte(body[0])
        .ok_or_else(|| format!("unknown frame kind tag {}", body[0]))?;
    let le_u32 = |at: usize| u32::from_le_bytes(body[at..at + 4].try_into().expect("4 bytes"));
    let header = FrameHeader {
        kind,
        service: le_u32(1),
        from: le_u32(5),
        to: le_u32(9),
        aux: u64::from_le_bytes(body[13..21].try_into().expect("8 bytes")),
    };
    Ok((header, &body[FRAME_HEADER_BYTES..]))
}

fn encode_error_frame(request: FrameHeader, code: u8, detail: u32, message: &str) -> Vec<u8> {
    let mut payload = Vec::with_capacity(5 + message.len());
    payload.push(code);
    payload.extend_from_slice(&detail.to_le_bytes());
    payload.extend_from_slice(message.as_bytes());
    encode_frame(
        FrameHeader {
            kind: FrameKind::Error,
            service: request.service,
            from: request.from,
            to: request.to,
            aux: 0,
        },
        &payload,
    )
}

fn decode_error_payload(service: ServiceId, payload: &[u8]) -> TransportError {
    if payload.is_empty() {
        return TransportError::MalformedFrame("empty error-frame payload".into());
    }
    let code = payload[0];
    let detail = payload
        .get(1..5)
        .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
        .unwrap_or(0);
    let message = String::from_utf8_lossy(payload.get(5..).unwrap_or(&[])).into_owned();
    match code {
        ERR_UNKNOWN_SERVICE => TransportError::UnknownService {
            service: service.0,
            registered: detail as usize,
        },
        ERR_MALFORMED => TransportError::MalformedFrame(message),
        ERR_SHUTDOWN => TransportError::Shutdown(message),
        _ => TransportError::Remote(message),
    }
}

/// Read one length-prefixed frame body; `Ok(None)` is a clean EOF before
/// any length byte (the peer closed the connection).
fn read_frame(stream: &mut UnixStream) -> std::io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match stream.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let n = u32::from_le_bytes(len) as usize;
    if !(FRAME_HEADER_BYTES..=MAX_FRAME_BYTES).contains(&n) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {n} out of range"),
        ));
    }
    let mut body = vec![0u8; n];
    stream.read_exact(&mut body)?;
    Ok(Some(body))
}

fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "handler panicked".to_string()
    }
}

/// The socket pairs of one cluster's called nodes.
#[derive(Default)]
struct Pairs {
    /// The cluster whose handler tables the servers run: set by `start`,
    /// taken by `shutdown`.  No pair opens without it.
    cluster: Option<Weak<Cluster>>,
    /// The near end of each called node's pair, keyed by node id.  Its
    /// mutex is held across a full round trip, which is sound because
    /// handlers never issue nested RPCs.
    clients: BTreeMap<u32, Arc<Mutex<UnixStream>>>,
    /// The server thread of every pair opened.
    servers: Vec<JoinHandle<()>>,
}

/// The socket-backed [`Transport`].  See the module docs for the frame
/// layout, timing contract and failure handling.
pub struct SocketTransport {
    wire: WireStats,
    pairs: Mutex<Pairs>,
}

/// Open a socket pair to `node` and start the thread that serves its far
/// end; the near end is returned.
fn open(node: u32, cluster: Weak<Cluster>) -> std::io::Result<(UnixStream, JoinHandle<()>)> {
    let (near, far) = UnixStream::pair()?;
    let server = std::thread::Builder::new()
        .name(format!("pm2-socket-{node}"))
        .spawn(move || serve_connection(far, node, cluster))?;
    Ok((near, server))
}

impl SocketTransport {
    /// A transport that carries each RPC over a Unix-domain socket pair.
    pub fn unix() -> Self {
        SocketTransport {
            wire: WireStats::default(),
            pairs: Mutex::default(),
        }
    }

    /// The near end of `to`'s pair, opened on the first call to `to`.
    fn client(&self, to: NodeId) -> std::io::Result<Arc<Mutex<UnixStream>>> {
        let mut pairs = lock(&self.pairs);
        if let Some(client) = pairs.clients.get(&to.0) {
            return Ok(Arc::clone(client));
        }
        let cluster = pairs.cluster.clone().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::NotConnected,
                "socket transport is not running",
            )
        })?;
        let (near, server) = open(to.0, cluster)?;
        let client = Arc::new(Mutex::new(near));
        pairs.servers.push(server);
        pairs.clients.insert(to.0, Arc::clone(&client));
        Ok(client)
    }

    fn exchange(&self, to: NodeId, frame: &[u8]) -> std::io::Result<Vec<u8>> {
        let client = self.client(to)?;
        let mut stream = lock(&client);
        stream.write_all(frame)?;
        stream.flush()?;
        match read_frame(&mut stream)? {
            Some(body) => Ok(body),
            None => Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection mid-round-trip",
            )),
        }
    }

    /// One physical round trip.  Returns the reply payload, the handler's
    /// reported service time (ps) and the frame bytes sent/received.
    fn round_trip(
        &self,
        from: NodeId,
        to: NodeId,
        service: ServiceId,
        payload: &[u8],
    ) -> Result<(Vec<u8>, u64, u64, u64), TransportError> {
        let frame = encode_frame(
            FrameHeader {
                kind: FrameKind::Request,
                service: service.0 as u32,
                from: from.0,
                to: to.0,
                aux: 0,
            },
            payload,
        );
        let body = self
            .exchange(to, &frame)
            .map_err(|error| TransportError::Io { peer: to, error })?;
        let (header, reply_payload) =
            decode_frame(&body).map_err(TransportError::MalformedFrame)?;
        match header.kind {
            FrameKind::Reply => Ok((
                reply_payload.to_vec(),
                header.aux,
                frame.len() as u64,
                4 + body.len() as u64,
            )),
            FrameKind::Error => Err(decode_error_payload(service, reply_payload)),
            FrameKind::Request => Err(TransportError::MalformedFrame(
                "server sent a request frame in reply position".into(),
            )),
        }
    }
}

/// Serve the far end of one node's pair: read request frames, dispatch to
/// the node's handler table, write reply (or error) frames, until EOF.
fn serve_connection(mut stream: UnixStream, node: u32, cluster: Weak<Cluster>) {
    // A clean EOF or an I/O error both end the connection.
    while let Ok(Some(body)) = read_frame(&mut stream) {
        let reply = match decode_frame(&body) {
            Ok((header, payload)) if header.kind == FrameKind::Request => {
                dispatch(&cluster, node, header, payload)
            }
            Ok((header, _)) => {
                encode_error_frame(header, ERR_MALFORMED, 0, "expected a request frame")
            }
            Err(msg) => encode_error_frame(
                FrameHeader {
                    kind: FrameKind::Error,
                    service: 0,
                    from: 0,
                    to: node,
                    aux: 0,
                },
                ERR_MALFORMED,
                0,
                &msg,
            ),
        };
        if stream
            .write_all(&reply)
            .and_then(|()| stream.flush())
            .is_err()
        {
            break;
        }
    }
}

fn dispatch(cluster: &Weak<Cluster>, node: u32, header: FrameHeader, payload: &[u8]) -> Vec<u8> {
    let Some(cluster) = cluster.upgrade() else {
        return encode_error_frame(header, ERR_SHUTDOWN, 0, "cluster is shutting down");
    };
    if header.to != node || (header.from as usize) >= cluster.num_nodes() {
        return encode_error_frame(
            header,
            ERR_MALFORMED,
            0,
            &format!(
                "bad addressing: from {} to {} at node {node} of {}",
                header.from,
                header.to,
                cluster.num_nodes()
            ),
        );
    }
    let Some(handler) = cluster.handler(ServiceId(header.service as usize)) else {
        return encode_error_frame(
            header,
            ERR_UNKNOWN_SERVICE,
            cluster.num_services() as u32,
            &format!("unknown RPC service {}", header.service),
        );
    };
    let target = cluster.node(NodeId(header.to));
    let caller = NodeId(header.from);
    // A panicking handler, or a reply too large for a frame, answers with
    // an error frame instead of taking the server thread (and the node) down.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        handler.handle(target, caller, payload)
    }));
    match result {
        Ok(RpcReply {
            error: Some(why), ..
        }) => encode_error_frame(header, ERR_MALFORMED, 0, &why),
        Ok(reply) if FRAME_HEADER_BYTES + reply.data.len() > MAX_FRAME_BYTES => {
            let why = format!("a reply of {} bytes does not fit a frame", reply.data.len());
            encode_error_frame(header, ERR_HANDLER_PANIC, 0, &why)
        }
        Ok(reply) => encode_frame(
            FrameHeader {
                kind: FrameKind::Reply,
                service: header.service,
                from: header.from,
                to: header.to,
                aux: reply.service.as_ps(),
            },
            &reply.data,
        ),
        Err(panic) => encode_error_frame(header, ERR_HANDLER_PANIC, 0, &panic_message(panic)),
    }
}

impl Transport for SocketTransport {
    fn rpc_split(
        &self,
        cluster: &Cluster,
        clock: &mut ThreadClock,
        from: NodeId,
        to: NodeId,
        service: ServiceId,
        payload: &[u8],
    ) -> Result<(Vec<u8>, VTime), TransportError> {
        let started = Instant::now();
        let (data, service_ps, bytes_sent, bytes_received) =
            self.round_trip(from, to, service, payload)?;
        let rtt_nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let trip = charge_round_trip(
            cluster,
            clock,
            from,
            to,
            payload.len(),
            data.len(),
            VTime::from_ps(service_ps),
        );
        self.wire.record(
            service.0,
            bytes_sent,
            bytes_received,
            rtt_nanos,
            trip.modeled.as_ps(),
        );
        Ok((data, trip.completion))
    }

    fn start(&self, cluster: &Arc<Cluster>) {
        let mut pairs = lock(&self.pairs);
        assert!(pairs.cluster.is_none(), "socket transport started twice");
        pairs.cluster = Some(Arc::downgrade(cluster));
    }

    fn shutdown(&self) {
        let servers = {
            let mut pairs = lock(&self.pairs);
            pairs.cluster = None;
            // Dropping the near ends makes every server thread read EOF.
            pairs.clients.clear();
            std::mem::take(&mut pairs.servers)
        };
        for server in servers {
            let _ = server.join();
        }
    }

    fn name(&self) -> &'static str {
        "unix-socket"
    }

    fn wire_stats(&self) -> Option<Vec<WireServiceSnapshot>> {
        Some(self.wire.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::RpcReply;
    use crate::node::Node;
    use hyperion_model::myrinet_200;

    fn socket_cluster(nodes: usize) -> (Arc<Cluster>, Arc<SocketTransport>) {
        let transport = Arc::new(SocketTransport::unix());
        let cluster = Cluster::with_transport(
            myrinet_200().machine,
            nodes,
            Arc::clone(&transport) as Arc<dyn Transport>,
        );
        (cluster, transport)
    }

    fn echo_service(c: &Arc<Cluster>) -> ServiceId {
        c.register_service(Arc::new(|_n: &Node, caller: NodeId, p: &[u8]| {
            let mut data = vec![caller.0 as u8];
            data.extend_from_slice(p);
            RpcReply::with_data(data, VTime::from_us(2))
        }))
    }

    #[test]
    fn frame_encode_decode_round_trip() {
        let header = FrameHeader {
            kind: FrameKind::Reply,
            service: 7,
            from: 1,
            to: 3,
            aux: 123_456_789,
        };
        let frame = encode_frame(header, &[0xAB, 0xCD]);
        assert_eq!(
            u32::from_le_bytes(frame[0..4].try_into().unwrap()) as usize,
            frame.len() - 4
        );
        let (decoded, payload) = decode_frame(&frame[4..]).expect("round trip");
        assert_eq!(decoded, header);
        assert_eq!(payload, &[0xAB, 0xCD]);
    }

    #[test]
    fn truncated_and_malformed_frames_are_rejected_not_panicked_on() {
        let frame = encode_frame(
            FrameHeader {
                kind: FrameKind::Request,
                service: 0,
                from: 0,
                to: 1,
                aux: 0,
            },
            &[1, 2, 3],
        );
        for cut in 0..FRAME_HEADER_BYTES {
            assert!(decode_frame(&frame[4..4 + cut]).is_err(), "cut at {cut}");
        }
        let mut bad_kind = frame[4..].to_vec();
        bad_kind[0] = 99;
        assert!(decode_frame(&bad_kind).is_err());
    }

    #[test]
    fn unix_socket_rpc_round_trips_and_counts_wire_traffic() {
        let (c, _t) = socket_cluster(2);
        let svc = echo_service(&c);
        let mut clock = ThreadClock::new();
        let out = c
            .rpc(&mut clock, NodeId(0), NodeId(1), svc, &[9, 8, 7])
            .expect("socket rpc");
        assert_eq!(out, vec![0, 9, 8, 7]);
        assert!(clock.now() >= VTime::from_us(2));
        // Modeled node counters behave exactly like the sim backend's.
        assert_eq!(c.node_stats(NodeId(0)).rpc_requests, 1);
        assert_eq!(c.node_stats(NodeId(1)).rpc_served, 1);
        // Wire counters exist only on a real transport.
        let wire = c.transport().wire_stats().expect("socket wire stats");
        assert_eq!(wire.len(), 1);
        assert_eq!(wire[0].service, svc.index());
        assert_eq!(wire[0].messages, 1);
        assert!(wire[0].bytes_sent >= (4 + FRAME_HEADER_BYTES + 3) as u64);
        assert!(wire[0].bytes_received >= (4 + FRAME_HEADER_BYTES + 4) as u64);
        assert!(wire[0].modeled_ps > 0);
    }

    #[test]
    fn socket_and_sim_backends_charge_identical_virtual_time() {
        let sim = Cluster::new(myrinet_200().machine, 3);
        let (sock, transport) = socket_cluster(3);
        let svc_sim = echo_service(&sim);
        let svc_sock = echo_service(&sock);

        let mut clock_sim = ThreadClock::new();
        let mut clock_sock = ThreadClock::new();
        // Nodes 0 and 2 both call node 1 and share its one pair.
        for (from, to) in [(0u32, 1u32), (0, 0), (2, 1), (1, 0), (2, 1)] {
            let a = sim
                .rpc(&mut clock_sim, NodeId(from), NodeId(to), svc_sim, &[1, 2])
                .unwrap();
            let b = sock
                .rpc(&mut clock_sock, NodeId(from), NodeId(to), svc_sock, &[1, 2])
                .unwrap();
            assert_eq!(a, b);
            assert_eq!(clock_sim.now(), clock_sock.now());
        }
        assert_eq!(sim.total_stats(), sock.total_stats());
        // One server for each called node (0 and 1), none for node 2.
        let pairs = lock(&transport.pairs);
        assert_eq!(pairs.clients.keys().copied().collect::<Vec<_>>(), [0, 1]);
        assert_eq!(pairs.servers.len(), 2);
    }

    #[test]
    fn unknown_service_is_a_typed_error_over_the_socket() {
        let (c, _t) = socket_cluster(1);
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
                assert_eq!(registered, 0);
            }
            other => panic!("expected UnknownService, got {other}"),
        }
        // The node is still alive and serves the next request.
        let svc = echo_service(&c);
        let out = c.rpc(&mut clock, NodeId(0), NodeId(0), svc, &[3]).unwrap();
        assert_eq!(out, vec![0, 3]);
    }

    #[test]
    fn handler_panic_is_caught_and_the_node_keeps_serving() {
        let (c, _t) = socket_cluster(2);
        let boom = c.register_service(Arc::new(|_n: &Node, _c: NodeId, p: &[u8]| {
            if p == b"boom" {
                panic!("intentional test panic");
            }
            // A reply one byte over the frame limit is answered like a panic.
            let len = if p == b"big" { MAX_FRAME_BYTES + 1 } else { 0 };
            RpcReply::with_data(vec![0; len], VTime::ZERO)
        }));
        let mut clock = ThreadClock::new();
        for (payload, why) in [
            (&b"boom"[..], "intentional test panic"),
            (b"big", "fit a frame"),
        ] {
            match c.rpc(&mut clock, NodeId(0), NodeId(1), boom, payload) {
                Err(TransportError::Remote(msg)) => assert!(msg.contains(why), "{msg}"),
                other => panic!("expected Remote, got {other:?}"),
            }
            // Same connection, same service: the server thread survived.
            let out = c.rpc(&mut clock, NodeId(0), NodeId(1), boom, b"fine");
            assert!(out.is_ok());
        }
    }

    #[test]
    fn malformed_frames_get_an_error_frame_back() {
        let (c, _t) = socket_cluster(1);
        let svc = echo_service(&c);
        assert_eq!(c.transport().name(), "unix-socket");
        // Talk to a server directly, bypassing the client-side encoder.
        let (mut stream, server) = open(0, Arc::downgrade(&c)).expect("open a pair to node 0");
        // A correctly-lengthed body with an unknown kind tag: the server
        // answers with an error frame and keeps the connection open.
        let mut garbage = vec![99u8]; // bad kind
        garbage.extend_from_slice(&[0u8; FRAME_HEADER_BYTES - 1]);
        stream
            .write_all(&(garbage.len() as u32).to_le_bytes())
            .unwrap();
        stream.write_all(&garbage).unwrap();
        stream.flush().unwrap();
        let body = read_frame(&mut stream)
            .expect("error reply")
            .expect("not EOF");
        let (header, payload) = decode_frame(&body).expect("decodable error frame");
        assert_eq!(header.kind, FrameKind::Error);
        assert_eq!(payload[0], ERR_MALFORMED);
        // Closing the near end ends its server.
        drop(stream);
        server.join().expect("its server ends without a panic");

        // A frame announcing an impossible length cannot be resynchronised;
        // the server drops that connection (and only that connection).
        let (mut bad_len, server) = open(0, Arc::downgrade(&c)).expect("open another pair");
        bad_len.write_all(&5u32.to_le_bytes()).unwrap();
        // The server may drop it as soon as it has read the length, so the
        // body's write may find the connection gone — and only that way.
        if let Err(e) = bad_len.write_all(&[1, 2, 3, 4, 5]) {
            let gone = [
                std::io::ErrorKind::BrokenPipe,
                std::io::ErrorKind::ConnectionReset,
            ];
            assert!(gone.contains(&e.kind()), "writing the body failed: {e}");
        }
        bad_len.flush().unwrap();
        match read_frame(&mut bad_len) {
            Ok(None) | Err(_) => {} // connection closed, no panic
            Ok(Some(_)) => panic!("expected the connection to be dropped"),
        }
        server.join().expect("its server ends without a panic");

        // The node still answers well-formed requests.
        let mut clock = ThreadClock::new();
        assert!(c.rpc(&mut clock, NodeId(0), NodeId(0), svc, &[1]).is_ok());
    }

    #[test]
    fn shutdown_is_idempotent_and_joins_every_server() {
        let (c, transport) = socket_cluster(2);
        let svc = echo_service(&c);
        let mut clock = ThreadClock::new();
        c.rpc(&mut clock, NodeId(0), NodeId(1), svc, &[1]).unwrap();
        c.rpc(&mut clock, NodeId(1), NodeId(0), svc, &[1]).unwrap();
        assert_eq!(lock(&transport.pairs).servers.len(), 2);
        c.transport().shutdown();
        c.transport().shutdown(); // idempotent
        let pairs = lock(&transport.pairs);
        assert!(pairs.servers.is_empty() && pairs.clients.is_empty());
        drop(pairs);
        // A call after shutdown opens no pair: it fails instead of hanging.
        match c.rpc(&mut clock, NodeId(0), NodeId(1), svc, &[1]) {
            Err(TransportError::Io { peer, .. }) => assert_eq!(peer, NodeId(1)),
            other => panic!("expected Io, got {other:?}"),
        }
        assert!(lock(&transport.pairs).servers.is_empty());
    }
}
