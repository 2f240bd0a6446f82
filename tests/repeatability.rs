//! Repeatability: the same program on the same simulated cluster, run
//! again, reports the same modeled time and the same counters.
//!
//! One application thread runs at a time, and the next to run is the one
//! with the smallest virtual clock (the run's baton, `hyperion::order`), so
//! nothing the host scheduler does reaches the model: not who wins a lock,
//! not the order in which requests book a home's calendar, not whether a
//! fetch beats a page-mate's diff to the home.  This suite
//!
//! * runs every app under every protocol at quick scale over `SimTransport`
//!   a few times and asserts identical `execution_time` and `StatsSnapshot`
//!   on every row;
//! * runs Jacobi, ASP and Barnes-Hut on 12 nodes under `java_pf`, where
//!   most barrier wakes leave stale copies open behind the pending check,
//!   and asserts the same of them;
//! * runs the serving apps over Unix-domain sockets and asserts the same
//!   modeled time and every counter as their `SimTransport` twins.

use hyperion_workspace::apps::common::{Benchmark, BenchmarkName};
use hyperion_workspace::apps::{asp, barnes, graph, jacobi, kvstore, pi, tsp};
use hyperion_workspace::hyperion::StatsSnapshot;
use hyperion_workspace::prelude::*;
use hyperion_workspace::{HyperionConfig, ProtocolKind, TransportBackend, TransportConfig};

const NODES: usize = 4;
const RUNS: usize = 5;

fn benchmark(name: BenchmarkName) -> Box<dyn Benchmark> {
    match name {
        BenchmarkName::Pi => Box::new(pi::PiParams::quick()),
        BenchmarkName::Jacobi => Box::new(jacobi::JacobiParams::quick()),
        BenchmarkName::Barnes => Box::new(barnes::BarnesParams::quick()),
        BenchmarkName::Tsp => Box::new(tsp::TspParams::quick()),
        BenchmarkName::Asp => Box::new(asp::AspParams::quick()),
        BenchmarkName::KvStore => Box::new(kvstore::KvStoreParams::quick()),
        BenchmarkName::PageRank => Box::new(graph::PageRankParams::quick()),
    }
}

/// What one run reports: modeled time and cluster-wide counters.
type Outcome = (VTime, StatsSnapshot);

fn run(name: BenchmarkName, protocol: ProtocolKind, backend: TransportBackend) -> Outcome {
    run_on(NODES, name, protocol, backend)
}

fn run_on(
    nodes: usize,
    name: BenchmarkName,
    protocol: ProtocolKind,
    backend: TransportBackend,
) -> Outcome {
    let config =
        HyperionConfig::new(myrinet_200(), nodes, protocol).with_transport(TransportConfig {
            backend,
            ..TransportConfig::default()
        });
    let (_digest, report) = benchmark(name).execute(config);
    assert_eq!(report.transport == "sim", backend == TransportBackend::Sim);
    (report.execution_time, report.total_stats())
}

#[test]
fn every_app_under_every_protocol_run_again() {
    let mut rows = 0;
    for name in BenchmarkName::all_extended() {
        for protocol in ProtocolKind::all_extended() {
            let first = run(name, protocol, TransportBackend::Sim);
            for again in 1..RUNS {
                assert_eq!(
                    run(name, protocol, TransportBackend::Sim),
                    first,
                    "{name}/{} run {again}",
                    protocol.name()
                );
            }
            rows += 1;
        }
    }
    assert_eq!(rows, 21, "every app × protocol row repeats exactly");
}

#[test]
fn the_barrier_apps_on_twelve_nodes_under_java_pf_run_again() {
    let apps = [
        BenchmarkName::Jacobi,
        BenchmarkName::Asp,
        BenchmarkName::Barnes,
    ];
    for name in apps {
        let once = || run_on(12, name, ProtocolKind::JavaPf, TransportBackend::Sim);
        let first = once();
        for again in 1..RUNS {
            assert_eq!(once(), first, "{name} on 12 nodes, run {again}");
        }
    }
}

#[test]
fn the_serving_apps_over_unix_sockets_repeat_their_sim_twins() {
    for name in [BenchmarkName::KvStore, BenchmarkName::PageRank] {
        for protocol in ProtocolKind::all_extended() {
            assert_eq!(
                run(name, protocol, TransportBackend::UnixSocket),
                run(name, protocol, TransportBackend::Sim),
                "{name}/{}",
                protocol.name()
            );
        }
    }
}
