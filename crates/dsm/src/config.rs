//! Protocol, adaptive-parameter and transport configuration types.
//!
//! This is where a run is described, and the only place: a
//! [`ProtocolKind`], its [`AdaptiveParams`] and a [`TransportConfig`] are
//! plain data, checked here ([`AdaptiveParams::validate`]: an illegal
//! combination is a typed [`PolicyError`] before any cluster state
//! exists).  The engine reads them directly: the protocol and its
//! parameters select the access detection ([`crate::detection`]), the
//! transport the backend and the fault schedule.  The RPC path's retry
//! schedule is fixed, not configured ([`hyperion_pm2::RPC_ATTEMPTS`]).

use hyperion_model::VTime;
use hyperion_pm2::{FaultSpec, NodeId, TransportBackend};

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
/// split transactions that the *next acquire of the same monitor* completes
/// (the JMM's release/acquire edge is per monitor, so deferring to the
/// hand-off keeps happens-before).  Release points with thread-level edges
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

/// One home's contribution to a deferred release flush: when its flush RPC
/// was issued and when it completes.  Keeping the record *per home* is what
/// lets the monitor layer account hidden overlap per home instead of
/// parking every flush behind the single slowest completion (the per-home
/// watermark follow-on of the deferred-flush PR).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HomeFlushMark {
    /// The home node the diff batch was flushed to.
    pub home: NodeId,
    /// Virtual time at which this home's flush RPC left the releaser.
    pub issue: VTime,
    /// Virtual time at which this home's flush RPC completes.
    pub completion: VTime,
}

impl HomeFlushMark {
    /// Stack this mark onto `marks`, one per home: a home already there
    /// keeps the later issue and the later completion of the two.
    pub fn stack_onto(self, marks: &mut Vec<HomeFlushMark>) {
        match marks.iter_mut().find(|m| m.home == self.home) {
            Some(m) => {
                m.issue = m.issue.max(self.issue);
                m.completion = m.completion.max(self.completion);
            }
            None => marks.push(self),
        }
    }
}

/// The record a deferred release flush leaves behind: the virtual instant
/// the flush RPCs were issued and the instant the last of them completes,
/// plus one [`HomeFlushMark`] per home flushed.  The monitor that performed
/// the release stores it and merges every home's `completion` into the next
/// acquirer's clock (see [`TransportConfig`]) — merging all homes equals
/// merging the max, so the JMM edge is unchanged, but the per-home issue
/// stamps let hidden-overlap accounting credit each home's flush window
/// individually.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeferredFlush {
    /// Virtual time at which the releasing thread finished issuing the
    /// flush RPCs (everything before this was charged at the release).
    pub issue: VTime,
    /// Virtual time at which the last flush RPC completes; the next acquire
    /// of the same monitor can not happen before this.
    pub completion: VTime,
    /// Per-home issue/completion watermarks.
    pub homes: Vec<HomeFlushMark>,
}

/// Where the page behind an address currently lives, relative to an
/// observing node.
///
/// This is the distinction the paper's two protocols *detect* on every
/// access; [`crate::DsmSystem::locality`] reports it without detecting
/// anything, so tests can observe a copy's state.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Locality {
    /// The observing node is the page's home: every access is local.
    Local,
    /// A remote page with a valid, unprotected cached copy on the node:
    /// accesses are served locally until the next cache invalidation.
    CachedRemote,
    /// A remote page with no usable local copy: the next access pays the
    /// full detection-plus-fetch path.
    Remote,
}

impl Locality {
    /// True if an access right now would be served without DSM traffic
    /// (home page or valid cached copy).
    pub fn is_resident(self) -> bool {
        !matches!(self, Locality::Remote)
    }

    /// Short lower-case name for logs and reports.
    pub fn name(self) -> &'static str {
        match self {
            Locality::Local => "local",
            Locality::CachedRemote => "cached-remote",
            Locality::Remote => "remote",
        }
    }
}

impl std::fmt::Display for Locality {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}
