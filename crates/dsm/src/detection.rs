//! Access detection: how a node notices that a `get`/`put` touched a remote
//! object (§3.2, §3.3 of the paper) — the one thing the protocols differ in.
//!
//! The technique is the protocol: `java_ic` checks in line on every access,
//! `java_pf` protects pages and takes a fault on the first access to an
//! absent one.  `DsmSystem::on_access` detects one access under either,
//! and is the one detection function.  `java_ic` charges its check on a
//! home page too; a `java_pf` access pays one only while its node holds
//! open stale copies.  From the protocol follow the access cost, whether
//! installing a fetched copy ends with an `mprotect` that opens it, and
//! whether invalidating a copy revokes its access rights (both exactly
//! under `java_pf`).
//!
//! **JMM obligations**, which these decisions must keep whatever they cost:
//!
//! * An access to a page the node holds no valid copy of (neither home nor
//!   present-and-unprotected) must fetch, and through the engine's fetch
//!   path, which installs the happens-before-carrying copy.  An acquire
//!   drops the copies its write notices outdate, so this is what makes a
//!   post-acquire read see the home's released values.
//! * Invalidating a `java_pf` page must revoke its access rights, or every
//!   access must pay an in-line check that catches the open stale copy, as
//!   while a monitor's acquire leaves one open (`pending.rs`).
//!
//! Release flushing is no part of detection (the engine's `flush_frames`).

use hyperion_model::{NodeStats, ThreadClock};
use hyperion_pm2::Node;

use crate::config::ProtocolKind;
use crate::engine::DsmSystem;
use crate::page::PageFrame;

impl DsmSystem {
    /// Detect one access to `frame`, a page's frame on `node_ref`: charge
    /// its cost to `clock`, count it on the node's stats, and return true if
    /// the page must be fetched first (false: the access proceeds on the local
    /// copy).  While the node holds open stale copies (`pending`, see
    /// `pending.rs`) a `java_pf` access also pays the in-line check that
    /// asks whether its copy is one (a `java_ic` access's own check asks
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
        match self.protocol {
            ProtocolKind::JavaIc => {
                NodeStats::bump(&stats.locality_checks);
                clock.advance(self.check_cost);
                !frame.is_home() && !frame.is_present()
            }
            ProtocolKind::JavaPf => {
                if pending {
                    NodeStats::bump(&stats.pending_checks);
                    clock.advance(self.check_cost);
                }
                let open = frame.is_home() || (frame.is_present() && !frame.is_protected());
                if found {
                    NodeStats::bump(&stats.pending_misses);
                } else if !open {
                    // Simulated SIGSEGV: fault cost, then the fetch.
                    NodeStats::bump(&stats.page_faults);
                    clock.advance(self.fault_cost);
                }
                !open
            }
        }
    }
}
