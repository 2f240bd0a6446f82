//! Protocol and transport configuration types.
//!
//! This is where a run is described, and the only place: a
//! [`ProtocolKind`] and a [`TransportConfig`] are plain data.  The engine
//! reads the protocol: it selects the access detection
//! ([`crate::detection`]).  The transport's backend and fault schedule
//! build the cluster's transport
//! ([`hyperion_pm2::Cluster::for_backend_with_faults`]), which the engine
//! only calls through.  The RPC path's retry schedule is fixed, not
//! configured ([`hyperion_pm2::RPC_ATTEMPTS`]).

use hyperion_pm2::{FaultSpec, TransportBackend};

/// Which access-detection technique a run uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// Explicit in-line locality checks on every access (§3.2).
    JavaIc,
    /// Page-fault-based detection with page protection (§3.3).
    JavaPf,
}

impl ProtocolKind {
    /// The name used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::JavaIc => "java_ic",
            ProtocolKind::JavaPf => "java_pf",
        }
    }

    /// The paper's two protocols, in the order the paper lists them.
    pub fn all() -> [ProtocolKind; 2] {
        [ProtocolKind::JavaIc, ProtocolKind::JavaPf]
    }
}

impl std::fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Configuration of the transport layer: which backend carries the RPCs,
/// and the fault schedule around it.
///
/// The wire path itself has one behaviour.  A fetch is a split
/// transaction: an explicit prefetch (`loadIntoCache`) and every stride
/// prefetch issue their RPC and record an in-flight ticket, and the
/// requester pays only the residual latency at the page's first real use
/// (`fetch.rs`).  A release coalesces
/// contiguous same-home dirty pages into one diff RPC of up to 8 pages
/// (`engine::FLUSH_BATCH_PAGES`); a monitor release sends the diffs for
/// the monitor's home along with the release, and issues the others as
/// split transactions whose latest completion — one instant, whatever
/// homes they went to — the *next acquire of the same monitor* merges (the
/// JMM's release/acquire edge is per monitor, so deferring to the hand-off
/// keeps happens-before).  Release points with thread-level edges
/// (`Thread.start`, thread end, program exit) flush blocking.
///
/// Every setting here is semantics-preserving — it changes how the bytes
/// travel and what a failure costs, never what a program computes — so all
/// of them apply to every protocol.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TransportConfig {
    /// Which [`hyperion_pm2::Transport`] implementation carries the RPCs:
    /// the in-process cost model (default) or a real Unix-domain socket
    /// per node.  Semantics-preserving by construction — the wire
    /// payloads and the virtual-time charging are identical across
    /// backends, only the physical carrier differs.
    pub backend: TransportBackend,
    /// Deterministic fault schedule replayed by a
    /// [`hyperion_pm2::FaultyTransport`] wrapped around the chosen backend;
    /// `None` (default) leaves the transport untouched.
    pub fault: Option<FaultSpec>,
}
