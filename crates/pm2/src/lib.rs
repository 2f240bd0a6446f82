//! # hyperion-pm2
//!
//! A Rust stand-in for the **PM2** distributed multithreaded runtime the
//! original Hyperion system was built on (threads, RPC-style communication,
//! iso-address memory allocation), re-implemented for the Hyperion-RS
//! reproduction of Antoniu & Hatcher, *"Remote object detection in
//! cluster-based Java"* (JavaPDC/IPDPS 2001).
//!
//! The paper's Table 1 lists the Hyperion runtime subsystems; the pieces that
//! map onto PM2 live here:
//!
//! * [`node`] / [`cluster`] — the cluster abstraction: a set of homogeneous
//!   nodes, each with a protocol-service clock and event counters.
//! * [`comm`] — the communication subsystem: asynchronously-invoked message
//!   handlers ("RPCs" in PM2 terminology).  Handlers execute on the target
//!   node's state; the virtual-time cost of marshalling, wire transfer and
//!   home-node service is charged to the calling thread's clock.
//! * [`iso`] — iso-address allocation: every node sees every object at the
//!   same global address, so references remain valid wherever the object is
//!   replicated (§3.1 of the paper).
//! * [`threads`] — thread identity (the paper's "threads subsystem"; actual
//!   scheduling uses native OS threads).
//! * [`transport`] / [`socket`] — the transport layer: the in-process
//!   cost-model [`SimTransport`] (default) and the Unix-domain
//!   [`SocketTransport`] that serves each called node's handler table from
//!   one thread behind a socket pair.
//! * [`fault`] — the fault plane: [`FaultyTransport`] wraps either backend
//!   with a deterministic, seeded [`FaultSpec`] schedule (drop / delay /
//!   duplicate frames, forced handler panics, a named node killed at a
//!   named virtual time), and the one fixed retry schedule the RPC path
//!   retries under ([`RPC_ATTEMPTS`], [`RPC_TIMEOUT`], [`retry_backoff`]).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod cluster;
pub mod comm;
pub mod fault;
pub mod iso;
pub mod node;
pub mod socket;
pub mod threads;
pub mod transport;

pub use cluster::Cluster;
pub use comm::{RpcHandler, RpcReply, ServiceId};
pub use fault::{retry_backoff, FaultKill, FaultSpec, FaultyTransport, RPC_ATTEMPTS, RPC_TIMEOUT};
pub use iso::{GlobalAddr, IsoAllocator, PageId, PAGE_BYTES, SLOTS_PER_PAGE, SLOT_BYTES};
pub use node::{Node, NodeId};
pub use socket::SocketTransport;
pub use threads::ThreadId;
pub use transport::{
    idle_round_trip, reply_leg, SimTransport, Transport, TransportBackend, TransportError,
};
