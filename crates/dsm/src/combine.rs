//! The two-level home hierarchy's relay layer: group leaders coalesce
//! their members' cross-group page fetches and diff batches.
//!
//! With [`crate::TransportConfig::group_size`] at 2 or more the cluster is
//! partitioned into node groups of that size and each group's
//! lowest-numbered node acts as its *leader*.  A member whose protocol RPC
//! targets a home *outside its own group* sends the request to its leader
//! instead, wrapped in a one-byte-kind relay envelope; the leader serves or
//! forwards it:
//!
//! * **Page fetches** — the leader keeps a per-page *version cache* (the
//!   home frame's stamp at its last upstream fetch, see [`crate::page`]).
//!   If the page has not changed since, the leader's copy is still
//!   byte-identical to the home's and the request is **combined**: served at leader-copy cost with no home RPC
//!   ([`combined_fetches`]).  Otherwise the relay opens a fresh upstream
//!   cycle: the full member→leader→home round trip is charged and the
//!   home's `rpc_served` arrival is recorded ([`group_relay_cycles`]).
//!   Served bytes ALWAYS come from the authoritative home frames, so
//!   combining is purely a cost-model statement — memory contents and
//!   digests are identical to the flat topology.
//!
//! * **Diff batches** — diffs mutate the home, so every relayed batch is
//!   applied immediately and exactly once (through the same shared helper
//!   the direct path uses).  What the leader coalesces is the *fan-in*:
//!   per (leader, home) stream, every `group_size`-th batch opens a fresh
//!   upstream cycle at full round-trip cost; the batches in between ride
//!   along at marginal apply cost ([`combined_diff_batches`]).
//!
//! **Modelling note.** The handler signature has no clock, so the upstream
//! leg cannot nest a real RPC; its cost is folded into the leader's
//! reported service time instead.  The member therefore waits for the full
//! relay chain, but the home's `ServerClock` is not occupied by relayed
//! arrivals — the leader pipeline is assumed to absorb that serialisation.
//! The home-side arrival *count* is still recorded (that is what the
//! scaling gate measures).
//!
//! **Degradation.** A leader's fail-stop death degrades its group
//! permanently: the first member whose relay RPC fails with `NodeDown`
//! marks the group degraded ([`crate::table::DsmStore::mark_group_degraded`]),
//! recovers the leader's pages like any dead node, and every later RPC from
//! that group goes directly to the home.
//!
//! [`combined_fetches`]: hyperion_model::StatsSnapshot::combined_fetches
//! [`combined_diff_batches`]: hyperion_model::StatsSnapshot::combined_diff_batches
//! [`group_relay_cycles`]: hyperion_model::StatsSnapshot::group_relay_cycles

use std::collections::HashMap;
use std::sync::{Arc, Weak};

use hyperion_model::{CpuModel, DsmCostModel, NetworkModel, NodeStats, ThreadClock, VTime};
use hyperion_pm2::comm::MSG_HEADER_BYTES;
use hyperion_pm2::{Cluster, Node, NodeId, RpcHandler, RpcReply, ServiceId};
use parking_lot::Mutex;

use crate::diff::{decode_fetch_request, WireError};
use crate::engine::DsmSystem;
use crate::policy::{PolicySet, Predictor, ReplicationPolicy};
use crate::services::{apply_diff_message, serve_fetch};
use crate::table::DsmStore;

/// Relay envelope kind: a wrapped page-fetch request.
pub(crate) const RELAY_FETCH: u8 = 0;
/// Relay envelope kind: a wrapped diff-apply message.
pub(crate) const RELAY_DIFF: u8 = 1;

/// Wrap an inner protocol payload in the relay envelope:
/// `[kind u8][home u32 le][inner...]`.
pub(crate) fn encode_relay(kind: u8, home: NodeId, inner: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(5 + inner.len());
    out.push(kind);
    out.extend_from_slice(&home.0.to_le_bytes());
    out.extend_from_slice(inner);
    out
}

/// Split a relay envelope back into `(kind, home, inner)`.
fn decode_relay(payload: &[u8]) -> Result<(u8, NodeId, &[u8]), WireError> {
    if payload.len() < 5 {
        return Err(WireError::Truncated("relay envelope"));
    }
    let home = u32::from_le_bytes(payload[1..5].try_into().expect("relay home id"));
    Ok((payload[0], NodeId(home), &payload[5..]))
}

/// The leader-side relay service.  One instance serves every group: state
/// is keyed by the leader the request arrived at, so the service table
/// stays a single flat registry.
pub(crate) struct GroupRelayService {
    pub(crate) store: Arc<DsmStore>,
    /// Back-reference for the manual home-arrival bump on fresh upstream
    /// cycles.  Weak because the cluster owns the service table that owns
    /// this service.
    pub(crate) cluster: Weak<Cluster>,
    pub(crate) cpu: CpuModel,
    pub(crate) dsm: DsmCostModel,
    pub(crate) net: NetworkModel,
    pub(crate) replication: Arc<dyn ReplicationPolicy>,
    pub(crate) predictor: Arc<dyn Predictor>,
    /// `(leader, page) -> page version at the last fresh upstream fetch`.
    fetch_cache: Mutex<HashMap<(u32, u64), u64>>,
    /// `(leader, home) -> relayed diff batches so far` — every
    /// `group_size`-th opens a fresh upstream cycle.
    diff_cycles: Mutex<HashMap<(u32, u32), u64>>,
}

impl GroupRelayService {
    /// Build the relay over the engine's store and policy objects.
    pub(crate) fn new(store: Arc<DsmStore>, cluster: &Arc<Cluster>, policies: &PolicySet) -> Self {
        let machine = cluster.machine();
        GroupRelayService {
            store,
            cluster: Arc::downgrade(cluster),
            cpu: machine.cpu.clone(),
            dsm: machine.dsm.clone(),
            net: machine.net.clone(),
            replication: Arc::clone(&policies.replication),
            predictor: Arc::clone(&policies.predictor),
            fetch_cache: Mutex::new(HashMap::new()),
            diff_cycles: Mutex::new(HashMap::new()),
        }
    }

    /// The modelled cost of one fresh upstream cycle leader→home→leader,
    /// folded into the leader's service time (see the module docs):
    /// protocol software + relay bookkeeping cycles, NIC overheads, two
    /// wire legs, and the home-side service work.
    fn upstream_cost(&self, req_bytes: u64, reply_bytes: u64, home_service: VTime) -> VTime {
        self.cpu.cycles(
            self.dsm.protocol_request_cycles
                + self.dsm.protocol_server_cycles
                + self.dsm.group_relay_cycles,
        ) + self.net.send_overhead
            + self.net.latency.times(2)
            + self.net.transfer(req_bytes + MSG_HEADER_BYTES)
            + self.net.transfer(reply_bytes + MSG_HEADER_BYTES)
            + self.net.recv_overhead
            + home_service
    }

    /// Record one real arrival at the home for a fresh upstream cycle: the
    /// scaling gate counts home-side `rpc_served`, and combined relays are
    /// exactly the arrivals that never happen.
    fn bump_home_served(&self, home: NodeId) {
        if let Some(cluster) = self.cluster.upgrade() {
            NodeStats::bump(&cluster.node(home).stats.rpc_served);
        }
    }

    /// Serve a relayed page fetch (see the module docs for the pricing).
    fn relay_fetch(
        &self,
        leader: &Node,
        home: NodeId,
        caller: NodeId,
        inner: &[u8],
    ) -> Result<RpcReply, WireError> {
        let request = decode_fetch_request(inner)?;
        // Answers and directory bookkeeping come from the authoritative home
        // frames exactly as on the direct path (hint runs are not relayed:
        // hints are advisory and the reply stays decodable without them).
        let served = serve_fetch(
            &self.store,
            self.predictor.as_ref(),
            self.replication.as_ref(),
            home,
            caller,
            &request,
        )?;
        let copy_cost = served.service(&self.cpu, &self.dsm, 0);
        let combined = {
            let mut cache = self.fetch_cache.lock();
            let pages = (request.first.0..).zip(&served.stamps);
            let fresh_needed = pages
                .clone()
                .any(|(page, stamp)| cache.get(&(leader.id().0, page)) != Some(stamp));
            if fresh_needed {
                cache.extend(pages.map(|(page, &stamp)| ((leader.id().0, page), stamp)));
            }
            !fresh_needed
        };
        if combined {
            // The leader's copy is still current: no upstream traffic, the
            // member pays one member→leader round trip plus the copy.
            NodeStats::bump(&leader.stats.combined_fetches);
            return Ok(RpcReply::with_data(served.reply, copy_cost));
        }
        NodeStats::bump(&leader.stats.group_relay_cycles);
        self.bump_home_served(home);
        let upstream = self.upstream_cost(inner.len() as u64, served.reply.len() as u64, copy_cost);
        Ok(RpcReply::with_data(served.reply, copy_cost + upstream))
    }

    /// Apply a relayed diff batch (see the module docs for the pricing).
    fn relay_diff(&self, leader: &Node, home: NodeId, inner: &[u8]) -> Result<RpcReply, WireError> {
        // Diffs mutate the home: apply immediately and exactly once, through
        // the same helper as the direct path (quorum writes and version
        // stamps included).  Combining never defers the memory effect — it
        // only re-prices the fan-in.
        let out = apply_diff_message(&self.store, self.replication.as_ref(), home, inner)?;
        let group_size = self.store.topology().group_size().max(1) as u64;
        let fresh = {
            let mut cycles = self.diff_cycles.lock();
            let n = cycles.entry((leader.id().0, home.0)).or_insert(0);
            let fresh = *n % group_size == 0;
            *n += 1;
            fresh
        };
        let apply_cost = out.service(&self.cpu, &self.dsm);
        let reply = out.reply();
        let service = if fresh {
            NodeStats::bump(&leader.stats.group_relay_cycles);
            self.bump_home_served(home);
            self.upstream_cost(inner.len() as u64, reply.len() as u64, apply_cost)
        } else {
            NodeStats::bump(&leader.stats.combined_diff_batches);
            apply_cost
        };
        Ok(RpcReply::with_data(reply, service))
    }
}

impl RpcHandler for GroupRelayService {
    fn handle(&self, target: &Node, caller: NodeId, payload: &[u8]) -> RpcReply {
        decode_relay(payload)
            .and_then(|(kind, home, inner)| match kind {
                RELAY_FETCH => self.relay_fetch(target, home, caller, inner),
                RELAY_DIFF => self.relay_diff(target, home, inner),
                _ => Err(WireError::Invalid("relay kind")),
            })
            .unwrap_or_else(|e| RpcReply::malformed(format!("{} request: {e}", self.name())))
    }

    fn name(&self) -> &'static str {
        "dsm.group_relay"
    }
}

impl DsmSystem {
    /// Decide whether a home RPC from `node` should route through `node`'s
    /// group leader: `Some((leader, kind))` to relay, `None` to go direct.
    ///
    /// Direct routing applies when the topology is flat, the home is in the
    /// member's own group, the member *is* its group's leader, the group's
    /// combining has degraded (its leader died), the service is not one of
    /// the two relayable protocol RPCs, or the home itself is scheduled
    /// dead at the current virtual time (so the direct path surfaces the
    /// `NodeDown` that drives recovery instead of the relay silently
    /// serving a dead home's frames).
    pub(crate) fn relay_route(
        &self,
        clock: &ThreadClock,
        node: NodeId,
        home: NodeId,
        service: ServiceId,
    ) -> Option<(NodeId, u8)> {
        let topology = self.store.topology();
        if !topology.is_grouped() {
            return None;
        }
        let kind = if service == self.page_fetch {
            RELAY_FETCH
        } else if service == self.diff_apply {
            RELAY_DIFF
        } else {
            return None;
        };
        let group = topology.group_of(node);
        if topology.same_group(node, home)
            || topology.leader_of(group) == node
            || self.store.group_degraded(group)
        {
            return None;
        }
        if let Some(kill) = self.transport.fault.as_ref().and_then(|f| f.kill) {
            if kill.node == home.0 && clock.now() >= kill.at {
                return None;
            }
        }
        Some((topology.leader_of(group), kind))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relay_envelope_round_trips() {
        let inner = vec![1u8, 2, 3, 4, 5, 6];
        let wire = encode_relay(RELAY_DIFF, NodeId(300), &inner);
        let (kind, home, body) = decode_relay(&wire).unwrap();
        assert_eq!(kind, RELAY_DIFF);
        assert_eq!(home, NodeId(300));
        assert_eq!(body, &inner[..]);
    }

    #[test]
    fn truncated_relay_envelope_is_an_error() {
        assert_eq!(
            decode_relay(&[RELAY_FETCH, 0, 0]),
            Err(WireError::Truncated("relay envelope"))
        );
    }
}
