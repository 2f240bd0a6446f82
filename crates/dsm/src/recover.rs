//! The DSM side of the fault plane: bounded retry with exponential backoff
//! on the RPC path, and node-failure recovery (re-electing homes for a dead
//! node's pages from the replication directory).
//!
//! ## Retry contract
//!
//! Every protocol RPC goes through `DsmSystem::rpc_to_home`: per-attempt
//! failures classified retryable by
//! [`TransportError::is_retryable`] (lost frames, broken sockets, handler
//! panics) are re-issued under the [`crate::config::TransportConfig::retry`]
//! schedule — each timed-out attempt charges the configured `rpc_timeout` to
//! the caller's *virtual* clock and bumps `rpc_timeouts`, each re-issue
//! charges the doubling backoff and bumps `rpc_retries` — until the attempt
//! budget or the deadline runs out.  Non-retryable errors return
//! immediately: a [`TransportError::NodeDown`] triggers
//! `DsmSystem::recover_node` and a re-route to the page's new home;
//! everything else propagates as a typed [`RpcFailure`] with service-name
//! context.
//!
//! On a fault-free run the first attempt of every RPC succeeds, so the
//! schedule charges nothing and all fault counters stay zero — the
//! byte-equivalence suites gate exactly this.
//!
//! ## Recovery walkthrough
//!
//! A node is killed fail-stop *as a server* (its own threads keep
//! computing).  The first survivor whose RPC fails with `NodeDown` takes the
//! store's recovery lock and, for every page the dead node homed:
//!
//! 1. elects the new home: the replica holder with the newest quorum-write
//!    version ([`crate::table::DsmStore::newest_live_replica`]), falling
//!    back to the lowest-id live node when the page was never replicated;
//! 2. re-homes the page (`DsmStore::rehome`, the one re-homing there is):
//!    the dead node's frame is demoted
//!    (later writes by its still-running threads become ordinary dirty bits
//!    that flush to the new home) and snapshotted — the authoritative copy,
//!    standing in for the stable storage a production home would recover
//!    from — and the winner's frame is promoted from the snapshot (local
//!    writes the winner had pending survive) under a stamp no older copy
//!    can validate against;
//! 3. charges the re-sync: `resync_page_cycles` plus one page transfer on
//!    the wire, all visible in `pages_resynced`.
//!
//! Recovery is idempotent and serialised: exactly one observer performs it
//! (`mark_failed` returns true once), holding the store's home-assignment
//! lock exclusively — so no in-flight diff can land on a dead home's frame
//! after it was snapshotted — while concurrent observers block on that lock
//! and then simply re-route.

use hyperion_model::{NodeStats, ThreadClock, VTime};
use hyperion_pm2::{Node, NodeId, PageId, ServiceId, TransportError, PAGE_BYTES};

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

    /// Issue one RPC under the retry schedule of
    /// [`crate::config::TransportConfig::retry`] (see the module docs for
    /// the exact charging contract).
    pub(crate) fn rpc_retry(
        &self,
        clock: &mut ThreadClock,
        node_ref: &Node,
        from: NodeId,
        to: NodeId,
        service: ServiceId,
        payload: &[u8],
    ) -> Result<(Vec<u8>, VTime), RpcFailure> {
        let policy = &self.transport.retry;
        let deadline = clock.now() + policy.deadline;
        let mut retries = 0u32;
        loop {
            let error = match self.cluster.rpc_split(clock, from, to, service, payload) {
                Ok(ok) => return Ok(ok),
                Err(error) => error,
            };
            if matches!(error, TransportError::TimedOut { .. }) {
                // The loss is only detected by waiting the full timeout out.
                NodeStats::bump(&node_ref.stats.rpc_timeouts);
                clock.advance(policy.rpc_timeout);
            }
            let out_of_budget = retries + 1 >= policy.max_attempts || clock.now() >= deadline;
            if !error.is_retryable() || out_of_budget {
                return Err(RpcFailure {
                    service: self.cluster.service_name(service),
                    from,
                    to,
                    attempts: retries + 1,
                    error,
                });
            }
            clock.advance(policy.backoff(retries));
            retries += 1;
            NodeStats::bump(&node_ref.stats.rpc_retries);
        }
    }

    /// Issue one RPC to the current home of `anchor`, retrying per
    /// [`DsmSystem::rpc_retry`] and recovering + re-routing when the home
    /// turns out to be dead.  Payloads address pages by id and carry
    /// absolute slot values, so the identical bytes are valid against the
    /// re-elected home.
    pub(crate) fn rpc_to_home(
        &self,
        clock: &mut ThreadClock,
        node: NodeId,
        node_ref: &Node,
        anchor: PageId,
        service: ServiceId,
        payload: &[u8],
    ) -> Result<(Vec<u8>, VTime), RpcFailure> {
        let mut hops = 0usize;
        loop {
            let home = self.store.home_of(anchor);
            let failure = match self.rpc_retry(clock, node_ref, node, home, service, payload) {
                Ok(ok) => return Ok(ok),
                Err(failure) => failure,
            };
            match failure.error {
                // Each hop buries one node; after n-1 of them there is
                // nobody left to re-route to.
                TransportError::NodeDown { peer } if hops + 1 < self.cluster.num_nodes() => {
                    self.recover_node(node_ref, clock, peer);
                    hops += 1;
                }
                _ => return Err(failure),
            }
        }
    }

    /// Recover from the fail-stop death of `peer`: re-home every page it
    /// served onto survivors elected from the replication directory.  See
    /// the module docs for the walkthrough.  Idempotent — only the first
    /// observer does the work; the observer's clock is charged the re-sync.
    pub(crate) fn recover_node(&self, node_ref: &Node, clock: &mut ThreadClock, peer: NodeId) {
        // Exclusive for the whole node: no diff lands on a home frame
        // while the dead node's pages change hands.
        let exclusive = self.store.lock_homes();
        if !self.store.mark_failed(peer) {
            // An earlier observer already re-homed everything; the caller
            // just re-routes.
            return;
        }
        NodeStats::bump(&node_ref.stats.nodes_failed);
        let machine = self.cluster.machine();
        let mut resynced = 0u64;
        for p in 0..self.store.allocator().num_pages() {
            let page = PageId(p as u64);
            if self.store.home_of(page) != peer {
                continue;
            }
            // The dead node's frame is the authoritative copy, standing in
            // for the stable storage a production home would recover from.
            let winner = self
                .store
                .newest_live_replica(page)
                .unwrap_or_else(|| self.store.first_live_node());
            self.store.rehome(&exclusive, page, winner);
            resynced += 1;
        }
        drop(exclusive);
        if resynced > 0 {
            NodeStats::bump_by(&node_ref.stats.pages_resynced, resynced);
            clock.advance(
                machine
                    .cpu
                    .cycles(machine.dsm.resync_page_cycles * resynced as f64),
            );
            clock.advance(machine.net.transfer(resynced * PAGE_BYTES as u64));
        }
    }
}
