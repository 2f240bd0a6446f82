//! Access detection: how a node notices that a `get`/`put` touched a remote
//! object (§3.2, §3.3 of the paper) — the one thing the protocols differ in.
//!
//! Every decision goes through one function, `Detection::technique`: the
//! technique that detects accesses, a function of the protocol alone.  It
//! is [`Technique::Check`] (an in-line locality check on every access)
//! under `java_ic` and [`Technique::Protect`] (page protection, a fault on
//! the first access to an absent page) under `java_pf`.  `java_ic` charges
//! its check on a home page too; a `Protect` access pays one only while its
//! node holds open stale copies.  From the technique follow the access
//! cost, whether installing a fetched copy ends with an `mprotect` that
//! opens it, and whether invalidating a copy revokes its access rights
//! (both exactly under `Protect`).
//!
//! **JMM obligations**, which these decisions must keep whatever they cost:
//!
//! * An access to a page the node holds no valid copy of (neither home nor
//!   present-and-unprotected) must fetch, and through the engine's fetch
//!   path, which installs the happens-before-carrying copy.  An acquire
//!   drops the copies its write notices outdate, so this is what makes a
//!   post-acquire read see the home's released values.
//! * Invalidating a `Protect` page must revoke its access rights, or every
//!   access must pay an in-line check that catches the open stale copy, as
//!   while a monitor's acquire leaves one open (`pending.rs`).
//!
//! Release flushing is no part of detection: every protocol flushes in
//! batches of up to `FLUSH_BATCH_PAGES` pages and defers a monitor
//! release's off-home diffs to the next acquire (see
//! [`crate::config::TransportConfig`]).

use hyperion_model::{NodeStats, ThreadClock, VTime};
use hyperion_pm2::{Cluster, Node};

use crate::config::ProtocolKind;
use crate::page::PageFrame;

/// Which technique detects accesses to a page.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Technique {
    /// In-line locality check on every access (`java_ic`).
    Check,
    /// Page protection + fault on first access (`java_pf`).
    Protect,
}

/// A run's detection: the protocol and the costs it charges.
#[derive(Debug)]
pub(crate) struct Detection {
    pub(crate) kind: ProtocolKind,
    pub(crate) check: VTime,
    fault: VTime,
}

/// Largest number of contiguous same-home dirty pages one diff-flush RPC
/// carries, under every protocol (the engine's `flush_frames`).
pub(crate) const FLUSH_BATCH_PAGES: usize = 8;

impl Detection {
    /// `kind`'s detection, at the costs of `cluster`'s machine.
    pub(crate) fn new(kind: ProtocolKind, cluster: &Cluster) -> Self {
        let machine = cluster.machine();
        Detection {
            kind,
            check: machine.cpu.locality_check(),
            fault: machine.dsm.page_fault,
        }
    }

    /// The technique that detects accesses (module docs).
    #[inline]
    pub(crate) fn technique(&self) -> Technique {
        match self.kind {
            ProtocolKind::JavaIc => Technique::Check,
            ProtocolKind::JavaPf => Technique::Protect,
        }
    }

    /// Detect one access to `frame`, a page's frame on `node_ref`: charge
    /// its cost to `clock`, count it on the node's stats, and return true if
    /// the page must be fetched first (false: the access proceeds on the local
    /// copy).  While the node holds open stale copies (`pending`, see
    /// `pending.rs`) a `Protect` access also pays the in-line check that
    /// asks whether its copy is one (a `Check` access's own check asks
    /// that); a copy it `found` was never closed, so its miss traps nothing
    /// and costs no fault.
    #[inline]
    pub(crate) fn on_access(
        &self,
        node_ref: &Node,
        clock: &mut ThreadClock,
        frame: &PageFrame,
        pending: bool,
        found: bool,
    ) -> bool {
        let stats = &node_ref.stats;
        match self.technique() {
            Technique::Check => {
                NodeStats::bump(&stats.locality_checks);
                clock.advance(self.check);
                !frame.is_home() && !frame.is_present()
            }
            Technique::Protect => {
                if pending {
                    NodeStats::bump(&stats.pending_checks);
                    clock.advance(self.check);
                }
                let open = frame.is_home() || (frame.is_present() && !frame.is_protected());
                if found {
                    NodeStats::bump(&stats.pending_misses);
                } else if !open {
                    // Simulated SIGSEGV: fault cost, then the fetch.
                    NodeStats::bump(&stats.page_faults);
                    clock.advance(self.fault);
                }
                !open
            }
        }
    }
}
