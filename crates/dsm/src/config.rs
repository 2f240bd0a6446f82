//! Protocol, adaptive-parameter and transport configuration types.
//!
//! This is where a run is described, and the only place: a
//! [`ProtocolKind`], its [`AdaptiveParams`] and a [`TransportConfig`] are
//! plain data, checked here ([`AdaptiveParams::validate`],
//! [`TransportConfig::validate`]: an illegal combination is a typed
//! [`PolicyError`] before any cluster state exists).  The engine reads them
//! directly: the protocol and its parameters select the access detection
//! ([`crate::detection`]), the transport flags the flush placement and the
//! replication the RPC services perform.

use hyperion_model::VTime;
use hyperion_pm2::{FaultSpec, NodeId, RetryPolicy, TransportBackend};

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
        [
            ProtocolKind::JavaIc,
            ProtocolKind::JavaPf,
            ProtocolKind::JavaAd,
        ]
    }
}

impl std::fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Tunable policy knobs of the adaptive protocol (`java_ad`).
///
/// The switching thresholds are expressed as multiples of the machine
/// model's break-even access count `n*` so one parameterisation is
/// meaningful on both modelled clusters; the ablation benchmarks sweep
/// `hi_multiple` to show the policy is robust around 1.0.
#[derive(Clone, Debug, PartialEq)]
pub struct AdaptiveParams {
    /// A check-mode page switches to protection when its *smoothed*
    /// accesses-per-epoch (EWMA over invalidation epochs) reach
    /// `hi_multiple · n*`.
    pub hi_multiple: f64,
    /// A protect-mode page falls back to checks when its smoothed
    /// accesses-per-epoch drop to `lo_multiple · n*` or below.  Kept
    /// strictly below `hi_multiple` (hysteresis) so borderline pages do not
    /// flap.
    pub lo_multiple: f64,
    /// Largest number of pages one fetch RPC may carry; 1 disables batching.
    pub max_batch_pages: usize,
    /// Consecutive re-accessed epochs a page needs before history-driven
    /// prefetching may pull it into a neighbour's batch.
    pub min_prefetch_streak: u64,
}

impl Default for AdaptiveParams {
    fn default() -> Self {
        AdaptiveParams {
            hi_multiple: 1.0,
            lo_multiple: 0.5,
            max_batch_pages: 8,
            min_prefetch_streak: 3,
        }
    }
}

impl AdaptiveParams {
    /// Reject illegal tunables (they are checked for every run, whichever
    /// protocol is selected, so a sweep harness fails fast).
    pub fn validate(&self) -> Result<(), PolicyError> {
        if self.max_batch_pages == 0 {
            return Err(PolicyError::ZeroAdaptiveBatch);
        }
        if self.hi_multiple <= 0.0 || self.lo_multiple < 0.0 || self.lo_multiple >= self.hi_multiple
        {
            return Err(PolicyError::InvalidHysteresis);
        }
        Ok(())
    }
}

/// Configuration of the transport layer: how the wire path overlaps with
/// compute, which backend carries it, and the fault and replication
/// settings around it.
///
/// Every mechanism is semantics-preserving — it changes when latency is
/// charged and how many RPCs carry the same bytes, never what a program
/// computes — so all of them apply to every protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TransportConfig {
    /// Overlapped page fetches: an explicit prefetch (`loadIntoCache`) and
    /// every speculative batch rider issue their RPC immediately but record
    /// an in-flight ticket; the requester keeps computing and pays only the
    /// *residual* latency when the page is first really used.  With
    /// tickets to hold them, the requester also prefetches along its own
    /// stride: a fetch that starts where the node's previous fetch from the
    /// same home ended puts the next few pages of that home in flight (see
    /// `fetch.rs`).  Off by default (the paper's transport blocks on every
    /// fetch).
    pub overlapped_fetches: bool,
    /// Largest number of contiguous same-home dirty pages one diff-flush
    /// RPC may carry at `updateMainMemory`; 1 disables batched flushing.
    pub max_flush_batch_pages: usize,
    /// Deferred release flushing: `updateMainMemory` at a monitor exit
    /// hands its coalesced diff batches to a per-monitor deferred-flush
    /// queue as split transactions; the flush only has to complete before
    /// the *next acquire of the same monitor*, which is where the residual latency is charged (the JMM's
    /// release/acquire edge is exactly per-monitor, so deferring to the
    /// hand-off preserves happens-before).  Release points with
    /// thread-level edges (`Thread.start`, `join`, program exit) always flush blocking.  Off by default.
    pub deferred_flush: bool,
    /// Which [`hyperion_pm2::Transport`] implementation carries the RPCs:
    /// the in-process cost model (default) or a real Unix-domain/TCP
    /// socket per node.  Semantics-preserving by construction — the wire
    /// payloads and the virtual-time charging are identical across
    /// backends, only the physical carrier differs.
    pub backend: TransportBackend,
    /// Retry schedule of the DSM's RPC path: bounded attempts with
    /// exponential backoff under a deadline, every retry charged to the
    /// calling thread's virtual clock (and counted in `rpc_retries` /
    /// `rpc_timeouts`).  On a fault-free run the first attempt always
    /// succeeds and the schedule charges nothing.
    pub retry: RetryPolicy,
    /// Deterministic fault schedule replayed by a
    /// [`hyperion_pm2::FaultyTransport`] wrapped around the chosen backend;
    /// `None` (default) leaves the transport untouched.
    pub fault: Option<FaultSpec>,
    /// `(r, w)`: number of replicated read-homes kept per page and the
    /// write quorum a diff must reach, home included (`1 <= w <= r + 1`).
    /// A home serving a fetch registers the reader as one of up to `r`
    /// replica holders, and every diff it applies brings the first `w - 1`
    /// holders up to date, the shipping charged in the apply's service
    /// time; recovery elects the newest live holder as an orphaned page's
    /// next home (`crate::recover`).  `None` (default) keeps no replicas.
    pub replication: Option<(usize, usize)>,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            overlapped_fetches: false,
            max_flush_batch_pages: 8,
            deferred_flush: false,
            backend: TransportBackend::Sim,
            retry: RetryPolicy::default(),
            fault: None,
            replication: None,
        }
    }
}

impl TransportConfig {
    /// The paper's blocking transport: no overlap, no flush batching, no
    /// deferred flushing.
    pub fn blocking() -> Self {
        TransportConfig {
            overlapped_fetches: false,
            max_flush_batch_pages: 1,
            ..TransportConfig::default()
        }
    }

    /// The latency-hiding transport: overlapped fetches (and with them the
    /// stride prefetch) on top of the default's batched flushing; deferred
    /// flushing stays off — see [`TransportConfig::directory`].
    pub fn latency_hiding() -> Self {
        TransportConfig {
            overlapped_fetches: true,
            ..TransportConfig::default()
        }
    }

    /// [`TransportConfig::latency_hiding`] plus deferred release flushing.
    /// (The name is from when the homes kept a prefetch directory; the
    /// requester's stride prefetch took its place.)
    pub fn directory() -> Self {
        TransportConfig {
            deferred_flush: true,
            ..TransportConfig::latency_hiding()
        }
    }

    /// The short label of the fetch-overlap mode (`"ov"` / `"block"`).
    pub fn overlap_name(&self) -> &'static str {
        if self.overlapped_fetches {
            "ov"
        } else {
            "block"
        }
    }

    /// Reject illegal settings before any cluster state exists.
    pub fn validate(&self) -> Result<(), PolicyError> {
        if self.max_flush_batch_pages == 0 {
            return Err(PolicyError::ZeroFlushBatch);
        }
        if let Some((read_replicas, write_quorum)) = self.replication {
            if read_replicas == 0 {
                return Err(PolicyError::ZeroReadReplicas);
            }
            if write_quorum == 0 || write_quorum > read_replicas + 1 {
                return Err(PolicyError::InvalidWriteQuorum);
            }
        }
        Ok(())
    }
}

/// An illegal run description, rejected at config-build time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyError {
    /// `AdaptiveParams::max_batch_pages` is 0 (1 batches nothing, 0 fetches
    /// nothing).
    ZeroAdaptiveBatch,
    /// The adaptive switching band is not a hysteresis band
    /// (`0 <= lo_multiple < hi_multiple` is required).
    InvalidHysteresis,
    /// A flush with a zero page ceiling would flush nothing (1 disables
    /// batching).
    ZeroFlushBatch,
    /// Quorum replication with zero read replicas keeps no copies to elect
    /// a new home from.
    ZeroReadReplicas,
    /// The write quorum must name at least the home and at most the home
    /// plus every read replica (`1 <= w <= r + 1`).
    InvalidWriteQuorum,
}

impl std::fmt::Display for PolicyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            PolicyError::ZeroAdaptiveBatch => {
                "max_batch_pages must be at least 1 (1 batches nothing, 0 fetches nothing)"
            }
            PolicyError::InvalidHysteresis => {
                "switching hysteresis needs 0 <= lo_multiple < hi_multiple"
            }
            PolicyError::ZeroFlushBatch => "max_flush_batch_pages must be at least 1",
            PolicyError::ZeroReadReplicas => "quorum replication needs at least one read replica",
            PolicyError::InvalidWriteQuorum => {
                "write quorum must satisfy 1 <= w <= read_replicas + 1"
            }
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

/// The record a deferred release flush leaves behind: the virtual instant
/// the flush RPCs were issued and the instant the last of them completes,
/// plus one [`HomeFlushMark`] per home flushed.  The monitor that performed
/// the release stores it and merges every home's `completion` into the next
/// acquirer's clock (see [`TransportConfig::deferred_flush`]) — merging all
/// homes equals merging the max, so the JMM edge is unchanged, but the
/// per-home issue stamps let hidden-overlap accounting credit each home's
/// flush window individually.
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
/// access; promoting it into the API lets programs ask once and then take a
/// fast path (bulk transfers, pinned views) that elides the per-access
/// detection entirely.
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
