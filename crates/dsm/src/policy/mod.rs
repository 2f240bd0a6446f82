//! Pluggable protocol policies: the decision points of the DSM protocol,
//! extracted behind traits so alternative strategies (quorum placement,
//! hierarchical detection) can slot in without touching the engine.
//!
//! The engine ([`crate::DsmSystem`]) owns every *mechanism* — page fetch
//! RPCs, diff application, in-flight tickets, invalidation, flush
//! coalescing — and consults one policy object per decision point:
//!
//! | Trait                 | Decision                                | Implementations                                 |
//! |-----------------------|-----------------------------------------|-------------------------------------------------|
//! | [`DetectionPolicy`]   | how a remote access is noticed          | `java_ic` / `java_pf` / [`AdaptiveDetection`]   |
//! | [`FlushPolicy`]       | how release diffs reach their homes     | [`BatchedFlush`] / [`DeferredFlush`]            |
//! | [`ReplicationPolicy`] | replicated read-homes and write quorums | [`NoopReplication`] / [`QuorumReplication`]     |
//!
//! A run is *described* in [`crate::config`] — a [`ProtocolKind`], its
//! [`AdaptiveParams`] and a [`TransportConfig`] — and nowhere else.  This
//! module *validates* that description ([`TransportConfig::validate`],
//! [`validate_adaptive`]: illegal combinations are a typed [`PolicyError`]
//! before any cluster state exists) and *builds* it: [`PolicySet::build`]
//! makes the three live policy objects.

mod detection;
mod flush;
mod replication;

use std::sync::Arc;

use hyperion_model::MachineModel;

pub(crate) use detection::resolve_marks;
pub use detection::{
    AccessAction, AdaptiveDetection, DetectionPolicy, EpochOutcome, InlineCheckDetection,
    PageProtectDetection,
};
pub use flush::{BatchedFlush, DeferredFlush, FlushPolicy};
pub use replication::{NoopReplication, QuorumReplication, ReplicationPolicy};

use crate::config::{AdaptiveParams, ProtocolKind, TransportConfig};

/// The three live policy objects one [`crate::DsmSystem`] consults.
#[derive(Clone)]
pub struct PolicySet {
    /// Access-detection state machine (the protocol proper).
    pub detection: Arc<dyn DetectionPolicy>,
    /// Release-flush placement.
    pub flush: Arc<dyn FlushPolicy>,
    /// Replicated read-homes and write quorums.
    pub replication: Arc<dyn ReplicationPolicy>,
}

impl PolicySet {
    /// Build the policy objects a run's description selects: one per
    /// decision point, from the protocol choice and the transport flags
    /// (`params` only matter under `java_ad`).
    pub fn build(
        kind: ProtocolKind,
        params: &AdaptiveParams,
        transport: &TransportConfig,
        machine: &MachineModel,
    ) -> PolicySet {
        let max_pages = transport.max_flush_batch_pages;
        PolicySet {
            detection: match kind {
                ProtocolKind::JavaIc => Arc::new(InlineCheckDetection::new(machine)),
                ProtocolKind::JavaPf => Arc::new(PageProtectDetection::new(machine)),
                ProtocolKind::JavaAd => Arc::new(AdaptiveDetection::new(params, machine)),
            },
            flush: if transport.deferred_flush {
                Arc::new(DeferredFlush { max_pages })
            } else {
                Arc::new(BatchedFlush { max_pages })
            },
            replication: match transport.replication {
                Some((read_replicas, write_quorum)) => Arc::new(QuorumReplication {
                    read_replicas,
                    write_quorum,
                }),
                None => Arc::new(NoopReplication),
            },
        }
    }
}

impl std::fmt::Debug for PolicySet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PolicySet")
            .field("detection", &self.detection.name())
            .field("flush", &self.flush.name())
            .field("replication", &self.replication.name())
            .finish()
    }
}

impl TransportConfig {
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

/// Validate [`AdaptiveParams`] on their own (they are checked for every
/// run, whichever protocol is selected, so a sweep harness fails fast).
pub fn validate_adaptive(params: &AdaptiveParams) -> Result<(), PolicyError> {
    if params.max_batch_pages == 0 {
        return Err(PolicyError::ZeroAdaptiveBatch);
    }
    if params.hi_multiple <= 0.0
        || params.lo_multiple < 0.0
        || params.lo_multiple >= params.hi_multiple
    {
        return Err(PolicyError::InvalidHysteresis);
    }
    Ok(())
}

/// An illegal policy selection, rejected at config-build time.
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
