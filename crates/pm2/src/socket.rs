//! Socket-backed transport: each node's registered RPC handler table served
//! from behind a real Unix-domain or TCP(localhost) socket.
//!
//! While [`crate::transport::SimTransport`] executes handlers inline, this
//! backend makes the communication *physical*: every node gets its own
//! listening socket and accept thread; requests and replies cross the wire
//! as length-prefixed frames whose payloads are the already byte-precise DSM
//! wire forms (`dsm/diff.rs` diff batches, batched fetch requests and
//! replies, diff acknowledgements).  Nodes run as per-node
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
//! A client connection that hits an I/O error is re-dialled under a bounded
//! deterministic backoff schedule — the same [`RetryPolicy`] shape the DSM
//! layer retries RPCs under, here applied to *wall-clock* sleeps — and the
//! request retried on each fresh connection; exhausting the schedule
//! surfaces as [`TransportError::Io`].  Server side, a handler panic is
//! caught and answered with an error frame (the node keeps serving), and
//! malformed frames are rejected — never panicked on.  A peer that is
//! draining answers [`ERR_SHUTDOWN`], which decodes to the dedicated
//! [`TransportError::Shutdown`] variant so callers can tell an orderly exit
//! apart from peer death.  [`SocketTransport::shutdown`] (called from `Drop
//! for Cluster`) closes every connection, unblocks the accept loops, joins
//! all threads and removes the socket files; it is idempotent.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::Instant;

use hyperion_model::{ThreadClock, VTime, WireServiceSnapshot, WireStats};
use parking_lot::Mutex;

use crate::cluster::Cluster;
use crate::comm::{RpcReply, ServiceId};
use crate::fault::RetryPolicy;
use crate::node::NodeId;
use crate::transport::{charge_round_trip, Transport, TransportBackend, TransportError};

/// Bytes of a frame header, after the 4-byte length prefix.
pub const FRAME_HEADER_BYTES: usize = 21;

/// Upper bound accepted for one frame body (header + payload).  Far above
/// any legitimate DSM message (the largest are multi-page batched-fetch
/// replies); a peer announcing more than this is talking garbage and the
/// connection is dropped instead of allocating unbounded memory.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// Error-frame code: the requested service index is not registered.
pub const ERR_UNKNOWN_SERVICE: u8 = 1;
/// Error-frame code: the handler panicked (caught; the node keeps serving).
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

/// A connected stream of either flavour.
#[derive(Debug)]
enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// Where a node's server listens.
#[derive(Clone, Debug)]
enum Addr {
    Unix(PathBuf),
    Tcp(SocketAddr),
}

impl Addr {
    fn connect(&self) -> std::io::Result<Stream> {
        match self {
            Addr::Unix(path) => UnixStream::connect(path).map(Stream::Unix),
            Addr::Tcp(addr) => {
                let s = TcpStream::connect(addr)?;
                // Frames are small request/reply pairs; Nagle only adds
                // latency to the measured round trips.
                let _ = s.set_nodelay(true);
                Ok(Stream::Tcp(s))
            }
        }
    }
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    fn accept(&self) -> std::io::Result<Stream> {
        match self {
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| {
                let _ = s.set_nodelay(true);
                Stream::Tcp(s)
            }),
        }
    }
}

/// Read one length-prefixed frame body; `Ok(None)` is a clean EOF before
/// any length byte (the peer closed the connection).
fn read_frame(stream: &mut Stream) -> std::io::Result<Option<Vec<u8>>> {
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

/// Distinguishes concurrently running clusters' socket files within one
/// process (tests run many clusters in parallel).
static NEXT_INSTANCE: AtomicU64 = AtomicU64::new(0);

#[derive(Default)]
struct ServerState {
    started: bool,
    addrs: Vec<Addr>,
    socket_files: Vec<PathBuf>,
    accept_threads: Vec<JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

/// The socket-backed [`Transport`].  See the module docs for the frame
/// layout, timing contract and failure handling.
pub struct SocketTransport {
    backend: TransportBackend,
    wire: WireStats,
    /// Wall-clock redial schedule for broken client connections.
    redial: RetryPolicy,
    shutting_down: Arc<AtomicBool>,
    state: Mutex<ServerState>,
    /// One persistent client connection per `(from, to)` node pair, dialled
    /// lazily.  The per-connection mutex is held across a full round trip,
    /// which is sound because handlers never issue nested RPCs.
    conns: Mutex<HashMap<(u32, u32), SharedStream>>,
}

/// A client connection shared between the round-trip path (which locks it
/// for the duration of one RPC) and the reconnect path.
type SharedStream = Arc<Mutex<Stream>>;

impl SocketTransport {
    /// A transport backed by per-node Unix-domain sockets in the system
    /// temporary directory.
    pub fn unix() -> Self {
        Self::for_backend(TransportBackend::UnixSocket)
    }

    /// A transport backed by per-node TCP servers on `127.0.0.1`.
    pub fn tcp() -> Self {
        Self::for_backend(TransportBackend::Tcp)
    }

    /// Build the transport for a socket-flavoured backend.
    ///
    /// # Panics
    /// Panics on [`TransportBackend::Sim`] — that is
    /// [`crate::transport::SimTransport`]'s job.
    pub fn for_backend(backend: TransportBackend) -> Self {
        assert!(
            backend != TransportBackend::Sim,
            "SimTransport handles the sim backend"
        );
        SocketTransport {
            backend,
            wire: WireStats::default(),
            redial: RetryPolicy::default(),
            shutting_down: Arc::new(AtomicBool::new(false)),
            state: Mutex::new(ServerState::default()),
            conns: Mutex::new(HashMap::new()),
        }
    }

    /// Replace the wall-clock redial schedule for broken client connections
    /// (`max_attempts` total tries per round trip, backoff per
    /// [`RetryPolicy::backoff`] interpreted as wall time).
    pub fn with_redial(mut self, redial: RetryPolicy) -> Self {
        self.redial = redial;
        self
    }

    fn dial(&self, to: NodeId) -> std::io::Result<Stream> {
        let addr = {
            let state = self.state.lock();
            state.addrs.get(to.index()).cloned()
        };
        match addr {
            Some(addr) => addr.connect(),
            None => Err(std::io::Error::new(
                std::io::ErrorKind::NotConnected,
                "socket transport has no server for this node (not started?)",
            )),
        }
    }

    fn connection(&self, from: NodeId, to: NodeId) -> Result<Arc<Mutex<Stream>>, TransportError> {
        let key = (from.0, to.0);
        if let Some(conn) = self.conns.lock().get(&key) {
            return Ok(Arc::clone(conn));
        }
        let stream = self
            .dial(to)
            .map_err(|error| TransportError::Io { peer: to, error })?;
        let mut conns = self.conns.lock();
        let entry = conns
            .entry(key)
            .or_insert_with(|| Arc::new(Mutex::new(stream)));
        Ok(Arc::clone(entry))
    }

    fn exchange(stream: &mut Stream, frame: &[u8]) -> std::io::Result<Vec<u8>> {
        stream.write_all(frame)?;
        stream.flush()?;
        match read_frame(stream)? {
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
        let conn = self.connection(from, to)?;
        let mut stream = conn.lock();
        let body = match Self::exchange(&mut stream, &frame) {
            Ok(body) => body,
            Err(first) => {
                // Re-dial under the bounded backoff schedule, retrying the
                // request on each fresh connection.  (A request whose reply
                // was lost may execute more than once on this path; the
                // DSM's handlers are idempotent at page granularity, and in
                // practice the retry only ever fires on connection-setup
                // races.)  Exhausting the schedule reports the last error.
                let mut last = first;
                let mut recovered = None;
                for retry in 0..self.redial.max_attempts.saturating_sub(1) {
                    let backoff = self.redial.backoff(retry).as_ps() / 1_000;
                    std::thread::sleep(std::time::Duration::from_nanos(backoff));
                    match self.dial(to) {
                        Ok(fresh) => *stream = fresh,
                        Err(error) => {
                            last = error;
                            continue;
                        }
                    }
                    match Self::exchange(&mut stream, &frame) {
                        Ok(body) => {
                            recovered = Some(body);
                            break;
                        }
                        Err(error) => last = error,
                    }
                }
                match recovered {
                    Some(body) => body,
                    None => {
                        return Err(TransportError::Io {
                            peer: to,
                            error: last,
                        })
                    }
                }
            }
        };
        drop(stream);
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

/// Serve one accepted connection: read request frames, dispatch to the
/// node's handler table, write reply (or error) frames, until EOF.
fn serve_connection(mut stream: Stream, node: u32, cluster: Weak<Cluster>) {
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
    // A panicking handler answers with an error frame instead of taking the
    // server thread (and the node) down with it.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        handler.handle(target, caller, payload)
    }));
    match result {
        Ok(RpcReply {
            error: Some(why), ..
        }) => encode_error_frame(header, ERR_MALFORMED, 0, &why),
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

fn accept_loop(
    listener: Listener,
    node: u32,
    cluster: Weak<Cluster>,
    shutting_down: Arc<AtomicBool>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        let stream = listener.accept();
        if shutting_down.load(Ordering::SeqCst) {
            break;
        }
        match stream {
            Ok(stream) => {
                let cluster = cluster.clone();
                let handle = std::thread::spawn(move || serve_connection(stream, node, cluster));
                conn_threads.lock().push(handle);
            }
            Err(_) => {
                // Spurious accept failure; keep serving unless shutting down.
                continue;
            }
        }
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
        let mut state = self.state.lock();
        assert!(!state.started, "socket transport started twice");
        state.started = true;
        let instance = NEXT_INSTANCE.fetch_add(1, Ordering::Relaxed);
        for node in 0..cluster.num_nodes() as u32 {
            let listener = match self.backend {
                TransportBackend::UnixSocket => {
                    let path = std::env::temp_dir().join(format!(
                        "hyperion-pm2-{}-{instance}-{node}.sock",
                        std::process::id()
                    ));
                    let _ = std::fs::remove_file(&path);
                    let listener =
                        UnixListener::bind(&path).expect("bind per-node unix socket server");
                    state.socket_files.push(path.clone());
                    state.addrs.push(Addr::Unix(path));
                    Listener::Unix(listener)
                }
                TransportBackend::Tcp => {
                    let listener = TcpListener::bind(("127.0.0.1", 0))
                        .expect("bind per-node localhost TCP server");
                    let addr = listener.local_addr().expect("local TCP address");
                    state.addrs.push(Addr::Tcp(addr));
                    Listener::Tcp(listener)
                }
                TransportBackend::Sim => unreachable!("rejected in for_backend"),
            };
            let weak = Arc::downgrade(cluster);
            let shutting_down = Arc::clone(&self.shutting_down);
            let conn_threads = Arc::clone(&state.conn_threads);
            state.accept_threads.push(std::thread::spawn(move || {
                accept_loop(listener, node, weak, shutting_down, conn_threads)
            }));
        }
    }

    fn shutdown(&self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        // Drop every pooled client connection first: the per-connection
        // server threads see EOF and exit.
        self.conns.lock().clear();
        let mut state = self.state.lock();
        // Unblock each accept loop with a throwaway connection; the loop
        // re-checks the flag right after `accept` returns.
        for addr in &state.addrs {
            let _ = addr.connect();
        }
        for handle in state.accept_threads.drain(..) {
            let _ = handle.join();
        }
        let conn_threads = Arc::clone(&state.conn_threads);
        for handle in conn_threads.lock().drain(..) {
            let _ = handle.join();
        }
        for path in state.socket_files.drain(..) {
            let _ = std::fs::remove_file(path);
        }
    }

    fn name(&self) -> &'static str {
        match self.backend {
            TransportBackend::UnixSocket => "unix-socket",
            TransportBackend::Tcp => "tcp-socket",
            TransportBackend::Sim => "sim",
        }
    }

    fn wire_stats(&self) -> Option<Vec<WireServiceSnapshot>> {
        Some(self.wire.snapshot())
    }
}

impl std::fmt::Debug for SocketTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SocketTransport")
            .field("backend", &self.backend)
            .field("shutting_down", &self.shutting_down.load(Ordering::SeqCst))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::RpcReply;
    use crate::node::Node;
    use hyperion_model::myrinet_200;

    fn socket_cluster(
        nodes: usize,
        backend: TransportBackend,
    ) -> (Arc<Cluster>, Arc<SocketTransport>) {
        let transport = Arc::new(SocketTransport::for_backend(backend));
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
        let (c, _t) = socket_cluster(2, TransportBackend::UnixSocket);
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
    fn tcp_socket_rpc_round_trips() {
        let (c, _t) = socket_cluster(2, TransportBackend::Tcp);
        let svc = echo_service(&c);
        let mut clock = ThreadClock::new();
        let out = c
            .rpc(&mut clock, NodeId(1), NodeId(0), svc, &[5])
            .expect("tcp rpc");
        assert_eq!(out, vec![1, 5]);
        assert_eq!(c.transport().name(), "tcp-socket");
    }

    #[test]
    fn socket_and_sim_backends_charge_identical_virtual_time() {
        let sim = Cluster::new(myrinet_200().machine, 2);
        let (sock, _t) = socket_cluster(2, TransportBackend::UnixSocket);
        let svc_sim = echo_service(&sim);
        let svc_sock = echo_service(&sock);

        let mut clock_sim = ThreadClock::new();
        let mut clock_sock = ThreadClock::new();
        for (from, to) in [(0u32, 1u32), (0, 0), (1, 0)] {
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
    }

    #[test]
    fn unknown_service_is_a_typed_error_over_the_socket() {
        let (c, _t) = socket_cluster(1, TransportBackend::UnixSocket);
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
        let (c, _t) = socket_cluster(2, TransportBackend::UnixSocket);
        let boom = c.register_service(Arc::new(|_n: &Node, _c: NodeId, p: &[u8]| {
            if p == b"boom" {
                panic!("intentional test panic");
            }
            RpcReply::ack(VTime::ZERO)
        }));
        let mut clock = ThreadClock::new();
        let err = c
            .rpc(&mut clock, NodeId(0), NodeId(1), boom, b"boom")
            .unwrap_err();
        match err {
            TransportError::Remote(msg) => assert!(msg.contains("intentional test panic")),
            other => panic!("expected Remote, got {other}"),
        }
        // Same connection, same service: the server thread survived.
        let out = c.rpc(&mut clock, NodeId(0), NodeId(1), boom, b"fine");
        assert!(out.is_ok());
    }

    #[test]
    fn malformed_frames_get_an_error_frame_back() {
        let (c, transport) = socket_cluster(1, TransportBackend::UnixSocket);
        let svc = echo_service(&c);
        assert_eq!(c.transport().name(), "unix-socket");
        // Talk to the server directly, bypassing the client-side encoder.
        let mut stream = transport.dial(NodeId(0)).expect("dial node 0");
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

        // A frame announcing an impossible length cannot be resynchronised;
        // the server drops that connection (and only that connection).
        let mut bad_len = transport.dial(NodeId(0)).expect("dial node 0 again");
        bad_len.write_all(&5u32.to_le_bytes()).unwrap();
        bad_len.write_all(&[1, 2, 3, 4, 5]).unwrap();
        bad_len.flush().unwrap();
        match read_frame(&mut bad_len) {
            Ok(None) | Err(_) => {} // connection closed, no panic
            Ok(Some(_)) => panic!("expected the connection to be dropped"),
        }

        // The node still answers well-formed requests.
        let mut clock = ThreadClock::new();
        assert!(c.rpc(&mut clock, NodeId(0), NodeId(0), svc, &[1]).is_ok());
    }

    #[test]
    fn shutdown_is_idempotent_and_removes_socket_files() {
        let (c, transport) = socket_cluster(2, TransportBackend::UnixSocket);
        let svc = echo_service(&c);
        let mut clock = ThreadClock::new();
        c.rpc(&mut clock, NodeId(0), NodeId(1), svc, &[1]).unwrap();
        let paths: Vec<PathBuf> = transport.state.lock().socket_files.clone();
        assert_eq!(paths.len(), 2);
        assert!(paths.iter().all(|p| p.exists()));
        c.transport().shutdown();
        c.transport().shutdown(); // idempotent
        assert!(paths.iter().all(|p| !p.exists()));
    }
}
