//! Cross-crate integration tests, one binary: every benchmark program, both
//! protocols, both modelled clusters, verified against its sequential
//! reference, plus the cross-cutting invariants that tie the statistics of
//! the layers together.
//!
//! Its modules share the quick matrix ([`matrix`]): every quick
//! configuration whose rows are committed runs once, and each test that
//! asserts something of one of them reads its row.  The modules:
//! [`pins`] holds those rows byte for byte against `bench/paper.txt` and
//! `bench/baseline.json`, [`repeatability`] runs configurations again,
//! [`chaos_recovery`] runs them under injected faults and
//! [`protocol_equivalence`] under every protocol and over sockets.

// The modules live in `tests/integration_suite/`, where cargo does not make
// each a test binary of its own.
#[path = "integration_suite/chaos_recovery.rs"]
mod chaos_recovery;
#[path = "integration_suite/matrix.rs"]
mod matrix;
#[path = "integration_suite/pins.rs"]
mod pins;
#[path = "integration_suite/protocol_equivalence.rs"]
mod protocol_equivalence;
#[path = "integration_suite/repeatability.rs"]
mod repeatability;

use hyperion_bench::{benchmark_at, FigureRow, Scale};
use hyperion_workspace::apps::common::{Benchmark, BenchmarkName};
use hyperion_workspace::apps::{jacobi, kvstore, pi};
use hyperion_workspace::prelude::*;
use hyperion_workspace::{HyperionConfig, ProtocolKind};

/// The matrix's rows under `protocol`.
fn rows_under(protocol: ProtocolKind) -> impl Iterator<Item = &'static FigureRow> {
    matrix::rows()
        .iter()
        .filter(move |r| r.protocol == protocol)
}

fn label(row: &FigureRow) -> String {
    let protocol = row.protocol.name();
    format!(
        "{}/{protocol} on {} @ {} nodes",
        row.app, row.cluster, row.nodes
    )
}

#[test]
fn every_benchmark_computes_the_same_answer_under_every_configuration() {
    // The serving apps' small legs; the paper's five have theirs, and
    // more, in the matrix.  (Every app at 3 Myrinet nodes:
    // `protocol_equivalence`.)
    let mut small = Vec::new();
    for (cluster, nodes) in [(myrinet_200(), 1), (sci_450(), 1), (sci_450(), 3)] {
        for protocol in ProtocolKind::all() {
            small.push((cluster.clone(), protocol, nodes));
        }
    }
    // Wider than the paper's 12 nodes: every protocol at 16 nodes, and
    // `java_pf` at 64 — 64 ordered threads, the home calendars at capacity.
    let wide = ClusterSpec {
        max_nodes: 64,
        ..myrinet_200()
    };
    let mut legs = Vec::new();
    for protocol in ProtocolKind::all_extended() {
        legs.push((wide.clone(), protocol, 16));
    }
    legs.push((wide, ProtocolKind::JavaPf, 64));

    for name in BenchmarkName::all_extended() {
        let mut first = None;
        let mut check = |leg: String, nodes: usize, seconds: f64, digest: f64| {
            assert!(seconds > 0.0, "{leg}: zero execution time");
            // The reference is the app's first digest — except for the KV
            // store, whose request streams are per client: its answer is a
            // function of the client count, given by its sequential replay.
            let expected = match name {
                BenchmarkName::KvStore => {
                    kvstore::sequential(&kvstore::KvStoreParams::quick(), nodes).digest
                }
                _ => *first.get_or_insert(digest),
            };
            assert!(
                (digest - expected).abs() <= expected.abs().max(1.0) * 1e-9,
                "{leg}: digest {digest} diverged from {expected}"
            );
        };
        for row in matrix::rows().iter().filter(|r| r.app == name) {
            check(label(row), row.nodes, row.seconds, row.digest);
        }
        let bench = benchmark_at(name, Scale::Quick);
        let small: &[_] = if BenchmarkName::serving().contains(&name) {
            &small
        } else {
            &[]
        };
        for (cluster, protocol, nodes) in small.iter().chain(&legs) {
            let config = HyperionConfig::new(cluster.clone(), *nodes, *protocol);
            let (digest, report) = bench.execute(config);
            let leg = format!("{name}/{} @ {nodes} nodes", protocol.name());
            check(leg, *nodes, report.seconds(), digest);
        }
    }
}

#[test]
fn protocol_specific_counters_are_mutually_exclusive() {
    for row in rows_under(ProtocolKind::JavaIc) {
        let (ic, label) = (&row.stats, label(row));
        assert_eq!(
            ic.page_faults, 0,
            "{label}: java_ic must never take page faults"
        );
        assert_eq!(
            ic.mprotect_calls, 0,
            "{label}: java_ic must never call mprotect"
        );
        // Element-wise accesses pay one in-line check each; bulk slice
        // transfers pay one per touched page, so with any bulk traffic the
        // check count drops strictly below the access count.
        assert!(
            ic.locality_checks > 0,
            "{label}: java_ic must perform in-line checks"
        );
        if ic.bulk_reads + ic.bulk_writes == 0 {
            assert_eq!(
                ic.locality_checks,
                ic.field_accesses(),
                "{label}: java_ic checks every single element-wise access"
            );
        } else {
            assert!(
                ic.locality_checks < ic.field_accesses(),
                "{label}: bulk transfers must amortise in-line checks"
            );
        }
    }
    for row in rows_under(ProtocolKind::JavaPf) {
        let (pf, label) = (&row.stats, label(row));
        assert_eq!(
            pf.locality_checks, 0,
            "{label}: java_pf must never perform in-line checks"
        );
        assert!(
            pf.mprotect_calls >= pf.page_faults,
            "{label}: every fault re-opens its page with mprotect"
        );
    }
}

#[test]
fn cross_layer_statistics_are_consistent() {
    for row in matrix::rows() {
        let (t, label) = (&row.stats, label(row));
        // Monitors are always exited as often as they are entered.
        assert_eq!(t.monitor_enters, t.monitor_exits, "{label}");
        // Every page load is an RPC, and diffs are RPCs too — unless
        // `java_ad` batched fetches, which load several pages in one.
        if t.batched_fetches == 0 {
            assert!(t.rpc_requests >= t.page_loads + t.diff_messages, "{label}");
        }
        assert_eq!(t.rpc_requests, t.rpc_served, "{label}");
        // What one node sends another receives.
        assert_eq!(t.bytes_sent, t.bytes_received, "{label}");
        // Single-JVM image: one thread per node plus main.
        assert_eq!(row.threads, row.nodes + 1, "{label}");
        // Flushed slots can only come from writes.
        assert!(t.diff_slots_flushed <= t.field_writes, "{label}");
    }
}

#[test]
fn single_node_runs_never_touch_the_network() {
    for row in matrix::rows().iter().filter(|r| r.nodes == 1) {
        let (t, label) = (&row.stats, label(row));
        assert_eq!(t.bytes_sent, 0, "{label}");
        assert_eq!(t.page_loads, 0, "{label}");
        assert_eq!(t.page_faults, 0, "{label}");
        assert_eq!(t.remote_monitor_acquires, 0, "{label}");
    }
}

#[test]
fn faster_cluster_is_faster_in_absolute_terms() {
    // The 450 MHz SCI nodes finish every single-node run earlier than the
    // 200 MHz Myrinet nodes (pure CPU scaling; no network involved).
    let one_node = |cluster: &ClusterSpec| {
        let label = cluster.label();
        let rows = matrix::rows().iter();
        rows.filter(move |r| r.nodes == 1 && r.cluster == label)
    };
    let (myrinet, sci) = (one_node(&myrinet_200()), one_node(&sci_450()));
    let mut pairs = 0;
    for (myri, sci) in myrinet.zip(sci) {
        assert_eq!((myri.app, myri.protocol), (sci.app, sci.protocol));
        assert!(
            sci.seconds < myri.seconds,
            "{}/{}: SCI {} !< Myrinet {}",
            sci.app,
            sci.protocol.name(),
            sci.seconds,
            myri.seconds
        );
        pairs += 1;
    }
    assert_eq!(pairs, 10, "the paper's five under java_ic and java_pf");
}

#[test]
fn multiple_threads_per_node_still_compute_the_right_answer() {
    let params = jacobi::JacobiParams::quick();
    let (expected, _) = jacobi::sequential(&params);
    let config =
        HyperionConfig::new(myrinet_200(), 2, ProtocolKind::JavaPf).with_threads_per_node(2);
    let out = jacobi::run(config, &params);
    assert!((out.result.interior_sum - expected).abs() < 1e-6);
    // 2 nodes x 2 threads + main.
    assert_eq!(out.report.threads, 5);
}

#[test]
fn run_report_summary_mentions_the_protocol_and_cluster() {
    // Two threads per node: a configuration outside the quick matrix.
    let sci_config =
        HyperionConfig::new(sci_450(), 2, ProtocolKind::JavaIc).with_threads_per_node(2);
    let (_d, report) = pi::PiParams::quick().execute(sci_config);
    let summary = report.summary();
    assert!(summary.contains("java_ic"));
    assert!(summary.contains("450MHz/SCI"));
    assert!(summary.contains("checks="));
}
