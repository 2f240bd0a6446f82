//! The DSM side of the fault plane: the fixed retry schedule of the RPC
//! path, and the recovery from the one node a run can lose (re-homing its
//! pages onto the lowest-id live node).
//!
//! ## Retry contract
//!
//! Every protocol RPC goes through `DsmSystem::rpc_to_home`: per-attempt
//! failures classified retryable by
//! [`TransportError::is_retryable`] (lost frames, broken sockets, handler
//! panics) are re-issued under one fixed schedule — each timed-out attempt
//! charges [`RPC_TIMEOUT`] (500 µs) to the caller's *virtual* clock and
//! bumps `rpc_timeouts`, each re-issue charges [`retry_backoff`] (100 µs,
//! doubling) and bumps `rpc_retries` — until [`RPC_ATTEMPTS`] (5) attempts
//! are spent.  Non-retryable errors return immediately: a
//! [`TransportError::NodeDown`] triggers `DsmSystem::recover_node` and one
//! re-issue to the page's new home; everything else propagates as a typed
//! [`RpcFailure`] with service-name context.
//!
//! On a fault-free run the first attempt of every RPC succeeds, so the
//! schedule charges nothing and all fault counters stay zero — the
//! byte-equivalence suites gate exactly this.
//!
//! ## Recovery walkthrough
//!
//! At most one node is killed per run ([`hyperion_pm2::FaultSpec::kill`] is
//! one `Option`), fail-stop *as a server* (its own threads keep
//! computing).  The first survivor whose RPC fails with `NodeDown` marks
//! the node failed and
//!
//! 1. elects the new home, once: the lowest-id live node
//!    ([`crate::table::DsmStore::first_live_node`]);
//! 2. re-homes every page whose *static* home (the allocator's) is the dead
//!    node onto it (`DsmStore::rehome`, the one re-homing there is): the
//!    dead node's frame is demoted (later writes by its still-running
//!    threads become ordinary dirty bits that flush to the new home) and
//!    snapshotted — the authoritative copy, standing in for the stable
//!    storage a production home would recover from — and the winner's
//!    frame is promoted from the snapshot (local writes the winner had
//!    pending survive) under a stamp no older copy can validate against;
//! 3. charges the re-sync: `resync_page_cycles` plus one page transfer on
//!    the wire, all visible in `pages_resynced`;
//! 4. switches the home rule on (`DsmStore::rehomed_all`): from here on
//!    `home_of` names the winner for every page whose static home is the
//!    dead node — the pages just moved, and any page allocated there
//!    later, which the winner homes from its first touch.
//!
//! Recovery is idempotent: exactly one observer performs it
//! (`mark_failed` returns true once, and panics if a later call names a
//! second node), and later observers simply re-route.  The re-issue goes
//! to a live home, so it gives the call's final answer.
//! One caller at a time is inside the DSM, so no handler runs while the
//! pages change hands: no diff lands on a dead home's frame after it was
//! snapshotted.

use hyperion_model::{NodeStats, ThreadClock, VTime};
use hyperion_pm2::{
    retry_backoff, Node, NodeId, PageId, ServiceId, TransportError, PAGE_BYTES, RPC_ATTEMPTS,
    RPC_TIMEOUT,
};

use crate::engine::DsmSystem;

/// A protocol RPC that failed for good: the transport error plus the
/// service-name context of the call that gave up.
#[derive(Debug)]
pub struct RpcFailure {
    /// Name of the RPC service (e.g. `dsm.page_fetch`).
    pub service: &'static str,
    /// The calling node.
    pub from: NodeId,
    /// The node the final attempt targeted.
    pub to: NodeId,
    /// Attempts issued before giving up (1 = the first try failed
    /// non-retryably).
    pub attempts: u32,
    /// The final transport error.
    pub error: TransportError,
}

impl std::fmt::Display for RpcFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "'{}' RPC from {} to {} failed after {} attempt{}: {}",
            self.service,
            self.from,
            self.to,
            self.attempts,
            if self.attempts == 1 { "" } else { "s" },
            self.error
        )
    }
}

impl std::error::Error for RpcFailure {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

impl DsmSystem {
    /// The single top-level die of the DSM layer: protocol primitives keep
    /// their infallible signatures by funnelling every exhausted
    /// [`RpcFailure`] through here.  Everything below this point propagates
    /// typed `Result`s.
    #[track_caller]
    pub(crate) fn unwrap_rpc<T>(&self, result: Result<T, RpcFailure>) -> T {
        result.unwrap_or_else(|failure| panic!("unrecoverable DSM failure: {failure}"))
    }

    /// The failure of an RPC whose reply arrived but could not be decoded.
    /// Re-sending cannot help, so it is reported like any other
    /// non-retryable transport error of the call anchored at `anchor`.
    pub(crate) fn malformed_reply(
        &self,
        from: NodeId,
        anchor: PageId,
        service: ServiceId,
        why: crate::diff::WireError,
    ) -> RpcFailure {
        let service = self.cluster.service_name(service);
        RpcFailure {
            service,
            from,
            to: self.store.home_of(anchor),
            attempts: 1,
            error: TransportError::MalformedFrame(format!("{service} reply: {why}")),
        }
    }

    /// Issue one RPC under the fixed retry schedule (see the module docs
    /// for the exact charging contract).
    pub(crate) fn rpc_retry(
        &self,
        clock: &mut ThreadClock,
        node_ref: &Node,
        from: NodeId,
        to: NodeId,
        service: ServiceId,
        payload: &[u8],
    ) -> Result<(Vec<u8>, VTime), RpcFailure> {
        let mut retries = 0u32;
        loop {
            let error = match self.cluster.rpc_split(clock, from, to, service, payload) {
                Ok(ok) => return Ok(ok),
                Err(error) => error,
            };
            if matches!(error, TransportError::TimedOut { .. }) {
                // The loss is only detected by waiting the full timeout out.
                NodeStats::bump(&node_ref.stats.rpc_timeouts);
                clock.advance(RPC_TIMEOUT);
            }
            if !error.is_retryable() || retries + 1 >= RPC_ATTEMPTS {
                return Err(RpcFailure {
                    service: self.cluster.service_name(service),
                    from,
                    to,
                    attempts: retries + 1,
                    error,
                });
            }
            clock.advance(retry_backoff(retries));
            retries += 1;
            NodeStats::bump(&node_ref.stats.rpc_retries);
        }
    }

    /// Issue one RPC to the current home of `anchor`, retrying per
    /// [`DsmSystem::rpc_retry`]; when the home turns out to be dead,
    /// recover it and re-issue once to the page's new home.  Payloads
    /// address pages by id and carry absolute slot values, so the identical
    /// bytes are valid against the re-elected home.
    pub(crate) fn rpc_to_home(
        &self,
        clock: &mut ThreadClock,
        node: NodeId,
        node_ref: &Node,
        anchor: PageId,
        service: ServiceId,
        payload: &[u8],
    ) -> Result<(Vec<u8>, VTime), RpcFailure> {
        let home = self.store.home_of(anchor);
        match self.rpc_retry(clock, node_ref, node, home, service, payload) {
            Err(RpcFailure {
                error: TransportError::NodeDown { peer },
                ..
            }) => {
                self.recover_node(node_ref, clock, peer);
                let home = self.store.home_of(anchor);
                self.rpc_retry(clock, node_ref, node, home, service, payload)
            }
            done => done,
        }
    }

    /// Recover from the fail-stop death of `peer`: re-home every page it
    /// served onto the lowest-id live node.  See the module docs for the
    /// walkthrough.  Idempotent — only the first observer does the work;
    /// the observer's clock is charged the re-sync.
    pub(crate) fn recover_node(&self, node_ref: &Node, clock: &mut ThreadClock, peer: NodeId) {
        if !self.store.mark_failed(peer) {
            // An earlier observer already re-homed everything; the caller
            // just re-routes.
            return;
        }
        NodeStats::bump(&node_ref.stats.nodes_failed);
        self.settle(node_ref.id(), clock);
        let machine = self.cluster.machine();
        let winner = self.store.first_live_node();
        let mut resynced = 0u64;
        for p in 0..self.store.allocator().num_pages() {
            let page = PageId(p as u64);
            if self.store.allocator().home_of(page) != peer {
                continue;
            }
            // The dead node's frame is the authoritative copy, standing in
            // for the stable storage a production home would recover from.
            self.store.rehome(page, peer, winner);
            // An open stale copy the winner held is its home page now.
            let was_open = self.stale[winner.index()].set(&self.store, page, None);
            self.store.note_cached(winner, -i64::from(was_open));
            resynced += 1;
        }
        if resynced > 0 {
            NodeStats::bump_by(&node_ref.stats.pages_resynced, resynced);
            clock.advance(
                machine
                    .cpu
                    .cycles(machine.dsm.resync_page_cycles * resynced as f64),
            );
            clock.advance(machine.net.transfer(resynced * PAGE_BYTES as u64));
        }
        self.store.rehomed_all(peer, winner);
    }
}
