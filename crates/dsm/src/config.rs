//! Protocol, adaptive-parameter and transport configuration types.
//!
//! This is where a run is described, and the only place: a
//! [`ProtocolKind`], its [`AdaptiveParams`] and a [`TransportConfig`] are
//! plain data, checked here ([`AdaptiveParams::validate`]: an illegal
//! combination is a typed [`PolicyError`] before any cluster state
//! exists).  The engine reads the protocol and its parameters: they select
//! the access detection ([`crate::detection`]).  The transport's backend
//! and fault schedule build the cluster's transport
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
    /// Adaptive per-page selection between the two techniques, with batched
    /// page fetches (extension beyond the paper).
    JavaAd,
}

impl ProtocolKind {
    /// The name used in the paper's figures (and `java_ad` for the adaptive
    /// extension).
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::JavaIc => "java_ic",
            ProtocolKind::JavaPf => "java_pf",
            ProtocolKind::JavaAd => "java_ad",
        }
    }

    /// The paper's two protocols, in the order the paper lists them.
    pub fn all() -> [ProtocolKind; 2] {
        [ProtocolKind::JavaIc, ProtocolKind::JavaPf]
    }

    /// The paper's two protocols plus the adaptive extension.
    pub fn all_extended() -> [ProtocolKind; 3] {
        use ProtocolKind::*;
        [JavaIc, JavaPf, JavaAd]
    }
}

impl std::fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The tunable knob of the adaptive protocol (`java_ad`): where its
/// switching band sits.
///
/// The thresholds are expressed as multiples of the machine model's
/// break-even access count `n*` so one parameterisation is meaningful on
/// both modelled clusters; the ablation benchmarks sweep `hi_multiple` to
/// show the policy is robust around 1.0.
#[derive(Clone, Debug, PartialEq)]
pub struct AdaptiveParams {
    /// A check-mode page switches to protection when its *smoothed*
    /// accesses-per-epoch (EWMA over invalidation epochs) reach
    /// `hi_multiple · n*`; a protect-mode page falls back to checks when
    /// they drop to half that or below (hysteresis, so borderline pages do
    /// not flap).
    pub hi_multiple: f64,
}

impl Default for AdaptiveParams {
    fn default() -> Self {
        AdaptiveParams { hi_multiple: 1.0 }
    }
}

impl AdaptiveParams {
    /// Reject illegal tunables (they are checked for every run, whichever
    /// protocol is selected, so a sweep harness fails fast).
    pub fn validate(&self) -> Result<(), PolicyError> {
        if self.hi_multiple > 0.0 {
            Ok(())
        } else {
            Err(PolicyError::InvalidHysteresis)
        }
    }
}

/// Configuration of the transport layer: which backend carries the RPCs,
/// and the fault schedule around it.
///
/// The wire path itself has one behaviour.  A fetch is a split
/// transaction: an explicit prefetch (`loadIntoCache`), every page a
/// `java_ad` batch carries and every stride prefetch issue their RPC and
/// record an in-flight ticket, and the requester pays only the residual
/// latency at the page's first real use (`fetch.rs`).  A release coalesces
/// contiguous same-home dirty pages into one diff RPC of up to 8 pages
/// (`detection::FLUSH_BATCH_PAGES`); a monitor release sends the diffs for
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

/// An illegal run description, rejected at config-build time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyError {
    /// The adaptive switching band is not a hysteresis band
    /// (`hi_multiple > 0` is required).
    InvalidHysteresis,
}

impl std::fmt::Display for PolicyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            PolicyError::InvalidHysteresis => "switching hysteresis needs hi_multiple > 0",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for PolicyError {}
