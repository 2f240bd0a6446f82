//! Digest invariance of the two-level home hierarchy.
//!
//! Grouping nodes and routing cross-group fetch/diff traffic through group
//! leaders (`dsm::combine`) is purely a *cost* mechanism: the relay applies
//! the very same memory effects as a direct home RPC — combining may only
//! change what an exchange is modeled to cost, never what it moves.  These
//! tests pin that claim where the hierarchy is actually meant to run — 16
//! and 64 nodes, far beyond the paper's 12-node cluster:
//!
//! 1. Every app (the paper's five plus the two serving workloads) under
//!    every protocol computes the same answer grouped as flat, at both 16
//!    and 64 nodes.
//! 2. A grouped run at 64 nodes really exercises the relay: the combining
//!    counters are live and the busiest node serves fewer RPCs than the
//!    flat hot home.
//! 3. Killing a group *leader* mid-run degrades its group to direct home
//!    RPCs and re-elects the leader's pages from quorum replicas — the
//!    digest still matches the fault-free flat reference.
//!
//! Digest comparisons use the suite-wide relative tolerance of 1e-9: most
//! apps reproduce bit-for-bit, but Pi's digest accumulates in
//! monitor-acquisition order and grouping shifts the virtual-time schedule.

use hyperion_workspace::apps::common::Benchmark;
use hyperion_workspace::apps::{asp, barnes, graph, jacobi, kvstore, pi, tsp};
use hyperion_workspace::model::scaled_cluster;
use hyperion_workspace::pm2::{FaultKill, FaultSpec};
use hyperion_workspace::prelude::*;
use hyperion_workspace::{HyperionConfig, ProtocolKind, TransportConfig};

/// The node counts the hierarchy is built for (the paper's clusters stop at
/// 12) and the group size used at each: 4 nodes per group at 16 nodes, 8 at
/// 64, so both levels of the tree have real fan-in.
const SCALES: [(usize, usize); 2] = [(16, 4), (64, 8)];

fn execute(
    bench: &dyn Benchmark,
    protocol: ProtocolKind,
    nodes: usize,
    transport: &TransportConfig,
) -> (f64, RunReport) {
    let config = HyperionConfig::builder()
        .cluster(scaled_cluster(&myrinet_200(), nodes))
        .nodes(nodes)
        .protocol(protocol)
        .transport(transport.clone())
        .build()
        .expect("valid scaling configuration");
    bench.execute(config)
}

fn grouped(group_size: usize) -> TransportConfig {
    TransportConfig {
        group_size,
        ..TransportConfig::default()
    }
}

/// Property 1 for one app: grouped and flat digests agree at every scale
/// under every protocol.
fn assert_digest_invariant(bench: &dyn Benchmark) {
    for (nodes, group_size) in SCALES {
        for protocol in ProtocolKind::all_extended() {
            let (flat, _) = execute(bench, protocol, nodes, &TransportConfig::default());
            let (hier, report) = execute(bench, protocol, nodes, &grouped(group_size));
            let tolerance = flat.abs().max(1.0) * 1e-9;
            assert!(
                (flat - hier).abs() <= tolerance,
                "{}/{} @ {nodes} nodes (groups of {group_size}): grouped digest {hier} \
                 diverged from flat digest {flat}",
                bench.name(),
                protocol.name(),
            );
            // The run must actually have used the hierarchy: cross-group
            // traffic exists at these scales for every app, so some member
            // relayed through its leader.
            let total = report.total_stats();
            assert!(
                total.group_relay_cycles > 0,
                "{}/{} @ {nodes} nodes: no upstream relay was ever opened",
                bench.name(),
                protocol.name(),
            );
        }
    }
}

#[test]
fn pi_digest_is_topology_invariant() {
    assert_digest_invariant(&pi::PiParams::quick());
}

#[test]
fn jacobi_digest_is_topology_invariant() {
    assert_digest_invariant(&jacobi::JacobiParams::quick());
}

#[test]
fn barnes_digest_is_topology_invariant() {
    assert_digest_invariant(&barnes::BarnesParams::quick());
}

#[test]
fn tsp_digest_is_topology_invariant() {
    assert_digest_invariant(&tsp::TspParams::quick());
}

#[test]
fn asp_digest_is_topology_invariant() {
    assert_digest_invariant(&asp::AspParams::quick());
}

#[test]
fn kv_store_digest_is_topology_invariant() {
    assert_digest_invariant(&kvstore::KvStoreParams::quick());
}

#[test]
fn pagerank_digest_is_topology_invariant() {
    assert_digest_invariant(&graph::PageRankParams::quick());
}

/// Property 2: at 64 nodes the hierarchy actually combines — the fetch and
/// diff combining counters are live on the barrier-heavy Jacobi exchange,
/// and the busiest node (the flat run's hot home) serves strictly fewer
/// RPCs once its arrivals are spread over the group leaders.
#[test]
fn grouped_jacobi_combines_and_flattens_the_hot_home() {
    let bench = jacobi::JacobiParams::quick();
    let (nodes, group_size) = (64, 8);
    let (_, flat) = execute(
        &bench,
        ProtocolKind::JavaPf,
        nodes,
        &TransportConfig::default(),
    );
    let (_, hier) = execute(&bench, ProtocolKind::JavaPf, nodes, &grouped(group_size));

    let peak = |report: &RunReport| {
        report
            .node_stats
            .iter()
            .map(|s| s.rpc_served)
            .max()
            .unwrap_or(0)
    };
    let total = hier.total_stats();
    assert!(
        total.combined_diff_batches > 0,
        "no diff batch was ever combined at the leaders"
    );
    assert!(
        total.combined_fetches > 0,
        "no page fetch was ever served from a leader's unchanged-version window"
    );
    assert!(
        peak(&hier) < peak(&flat),
        "the hot home serves as many RPCs grouped ({}) as flat ({})",
        peak(&hier),
        peak(&flat),
    );
}

/// Property 3: killing a group *leader* mid-run must not change the answer.
/// Members of the dead leader's group fail over to direct home RPCs
/// (`mark_group_degraded`), the leader's pages are re-elected from quorum
/// replicas, and the digest still matches the fault-free flat reference.
#[test]
fn killing_a_group_leader_degrades_to_direct_rpcs() {
    let bench = jacobi::JacobiParams::quick();
    let (nodes, group_size) = (8, 4);
    let (reference, _) = execute(
        &bench,
        ProtocolKind::JavaPf,
        nodes,
        &TransportConfig::default(),
    );

    // Node 4 leads the second group {4..8}.  Kill it mid-exchange with
    // quorum replication armed so its pages can be re-homed.
    let transport = TransportConfig {
        group_size,
        replication: Some((2, 2)),
        fault: Some(FaultSpec {
            kill: Some(FaultKill {
                node: 4,
                at: VTime::from_us(300),
            }),
            ..FaultSpec::default()
        }),
        ..TransportConfig::default()
    };
    let (digest, report) = execute(&bench, ProtocolKind::JavaPf, nodes, &transport);
    let tolerance = reference.abs().max(1.0) * 1e-9;
    assert!(
        (reference - digest).abs() <= tolerance,
        "leader kill changed the answer: {digest} vs fault-free {reference}"
    );
    let total = report.total_stats();
    assert!(
        total.nodes_failed > 0,
        "the kill schedule never fired — move the kill instant inside the run"
    );
    assert!(
        total.pages_resynced > 0,
        "no page was re-elected from the dead leader's replicas"
    );
}
