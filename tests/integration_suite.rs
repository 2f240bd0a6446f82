//! Cross-crate integration tests: every benchmark program, both protocols,
//! both modelled clusters, verified against its sequential reference, plus
//! the cross-cutting invariants that tie the statistics of the layers
//! together.

use hyperion_workspace::apps::common::{Benchmark, BenchmarkName};
use hyperion_workspace::apps::{asp, barnes, graph, jacobi, kvstore, pi, tsp};
use hyperion_workspace::prelude::*;
use hyperion_workspace::{HyperionConfig, ProtocolKind};

fn all_benchmarks() -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(pi::PiParams::quick()),
        Box::new(jacobi::JacobiParams::quick()),
        Box::new(barnes::BarnesParams::quick()),
        Box::new(tsp::TspParams::quick()),
        Box::new(asp::AspParams::quick()),
    ]
}

/// The paper's five plus the two serving workloads.
fn all_seven_benchmarks() -> Vec<Box<dyn Benchmark>> {
    let mut all = all_benchmarks();
    all.push(Box::new(kvstore::KvStoreParams::quick()));
    all.push(Box::new(graph::PageRankParams::quick()));
    all
}

fn config(nodes: usize, protocol: ProtocolKind) -> HyperionConfig {
    HyperionConfig::builder()
        .cluster(myrinet_200())
        .nodes(nodes)
        .protocol(protocol)
        .build()
        .expect("valid test configuration")
}

#[test]
fn every_benchmark_computes_the_same_answer_under_every_configuration() {
    let mut legs = Vec::new();
    for cluster in [myrinet_200(), sci_450()] {
        for protocol in ProtocolKind::all() {
            for nodes in [1usize, 3] {
                legs.push((cluster.clone(), protocol, nodes));
            }
        }
    }
    // Wider than the paper's 12 nodes: every protocol at 16 nodes, and
    // `java_pf` at 64 — 64 ordered threads, the home calendars at capacity.
    // `order_escapes` is not asserted here: the fuse is 100 ms of wall time,
    // and this many threads on a loaded 2-CPU host trip it now and then.
    let wide = ClusterSpec {
        max_nodes: 64,
        ..myrinet_200()
    };
    for protocol in ProtocolKind::all_extended() {
        legs.push((wide.clone(), protocol, 16));
    }
    legs.push((wide, ProtocolKind::JavaPf, 64));

    for bench in all_seven_benchmarks() {
        let mut first = None;
        for (cluster, protocol, nodes) in &legs {
            let config = HyperionConfig::builder()
                .cluster(cluster.clone())
                .nodes(*nodes)
                .protocol(*protocol)
                .build()
                .expect("valid test configuration");
            let (digest, report) = bench.execute(config);
            let leg = format!("{}/{} @ {nodes} nodes", bench.name(), protocol.name());
            assert!(
                report.execution_time > VTime::ZERO,
                "{leg}: zero execution time"
            );
            // The reference is the first leg's 1-node digest — except for the
            // KV store, whose request streams are per client: its answer is a
            // function of the client count, given by its sequential replay.
            let expected = match bench.name() {
                BenchmarkName::KvStore => {
                    kvstore::sequential(&kvstore::KvStoreParams::quick(), *nodes).digest
                }
                _ => *first.get_or_insert(digest),
            };
            assert!(
                (digest - expected).abs() <= expected.abs().max(1.0) * 1e-9,
                "{leg}: digest {digest} diverged from {expected}"
            );
        }
    }
}

#[test]
fn protocol_specific_counters_are_mutually_exclusive() {
    for bench in all_benchmarks() {
        let (_d, report_ic) = bench.execute(config(3, ProtocolKind::JavaIc));
        let ic = report_ic.total_stats();
        assert_eq!(
            ic.page_faults,
            0,
            "{}: java_ic must never take page faults",
            bench.name()
        );
        assert_eq!(
            ic.mprotect_calls,
            0,
            "{}: java_ic must never call mprotect",
            bench.name()
        );
        // Element-wise accesses pay one in-line check each; bulk slice
        // transfers pay one per touched page, so with any bulk traffic the
        // check count drops strictly below the access count.
        assert!(
            ic.locality_checks > 0,
            "{}: java_ic must perform in-line checks",
            bench.name()
        );
        if ic.bulk_reads + ic.bulk_writes == 0 {
            assert_eq!(
                ic.locality_checks,
                ic.field_accesses(),
                "{}: java_ic checks every single element-wise access",
                bench.name()
            );
        } else {
            assert!(
                ic.locality_checks < ic.field_accesses(),
                "{}: bulk transfers must amortise in-line checks",
                bench.name()
            );
        }

        let (_d, report_pf) = bench.execute(config(3, ProtocolKind::JavaPf));
        let pf = report_pf.total_stats();
        assert_eq!(
            pf.locality_checks,
            0,
            "{}: java_pf must never perform in-line checks",
            bench.name()
        );
        assert!(
            pf.mprotect_calls >= pf.page_faults,
            "{}: every fault re-opens its page with mprotect",
            bench.name()
        );
    }
}

#[test]
fn cross_layer_statistics_are_consistent() {
    for bench in all_benchmarks() {
        let config = HyperionConfig::builder()
            .cluster(sci_450())
            .nodes(4)
            .protocol(ProtocolKind::JavaPf)
            .build()
            .expect("valid test configuration");
        let (_d, report) = bench.execute(config);
        let t = report.total_stats();
        // Monitors are always exited as often as they are entered.
        assert_eq!(t.monitor_enters, t.monitor_exits, "{}", bench.name());
        // Every page load is an RPC, and diffs are RPCs too.
        assert!(
            t.rpc_requests >= t.page_loads + t.diff_messages,
            "{}",
            bench.name()
        );
        assert_eq!(t.rpc_requests, t.rpc_served, "{}", bench.name());
        // What one node sends another receives.
        assert_eq!(t.bytes_sent, t.bytes_received, "{}", bench.name());
        // Single-JVM image: one thread per node plus main.
        assert_eq!(report.threads, 4 + 1, "{}", bench.name());
        // Flushed slots can only come from writes.
        assert!(t.diff_slots_flushed <= t.field_writes, "{}", bench.name());
    }
}

#[test]
fn single_node_runs_never_touch_the_network() {
    for bench in all_benchmarks() {
        let config = config(1, ProtocolKind::JavaPf);
        let (_d, report) = bench.execute(config);
        let t = report.total_stats();
        assert_eq!(t.bytes_sent, 0, "{}", bench.name());
        assert_eq!(t.page_loads, 0, "{}", bench.name());
        assert_eq!(t.page_faults, 0, "{}", bench.name());
        assert_eq!(t.remote_monitor_acquires, 0, "{}", bench.name());
    }
}

#[test]
fn faster_cluster_is_faster_in_absolute_terms() {
    // The 450 MHz SCI nodes finish every single-node run earlier than the
    // 200 MHz Myrinet nodes (pure CPU scaling; no network involved).
    for bench in all_benchmarks() {
        let (_d, myri) = bench.execute(config(1, ProtocolKind::JavaPf));
        let sci_config = HyperionConfig::builder()
            .cluster(sci_450())
            .nodes(1)
            .protocol(ProtocolKind::JavaPf)
            .build()
            .expect("valid test configuration");
        let (_d, sci) = bench.execute(sci_config);
        assert!(
            sci.execution_time < myri.execution_time,
            "{}: SCI {} !< Myrinet {}",
            bench.name(),
            sci.execution_time,
            myri.execution_time
        );
    }
}

#[test]
fn multiple_threads_per_node_still_compute_the_right_answer() {
    let params = jacobi::JacobiParams::quick();
    let (expected, _) = jacobi::sequential(&params);
    let config = HyperionConfig::builder()
        .cluster(myrinet_200())
        .nodes(2)
        .protocol(ProtocolKind::JavaPf)
        .threads_per_node(2)
        .build()
        .expect("valid test configuration");
    let out = jacobi::run(config, &params);
    assert!((out.result.interior_sum - expected).abs() < 1e-6);
    // 2 nodes x 2 threads + main.
    assert_eq!(out.report.threads, 5);
}

#[test]
fn run_report_summary_mentions_the_protocol_and_cluster() {
    let sci_config = HyperionConfig::builder()
        .cluster(sci_450())
        .nodes(2)
        .protocol(ProtocolKind::JavaIc)
        .build()
        .expect("valid test configuration");
    let (_d, report) = pi::PiParams::quick().execute(sci_config);
    let summary = report.summary();
    assert!(summary.contains("java_ic"));
    assert!(summary.contains("450MHz/SCI"));
    assert!(summary.contains("checks="));
}
