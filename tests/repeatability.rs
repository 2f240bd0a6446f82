//! Repeatability: the same program on the same simulated cluster, run
//! again, should report the same modeled time and the same counters.
//!
//! Monitors, barriers and work queues are granted in virtual-time order, so
//! which thread the host happens to run first no longer decides who wins a
//! lock.  This suite runs every app under every protocol at quick scale
//! over `SimTransport` a few times and
//!
//! * **asserts** identical `execution_time` and `StatsSnapshot` for the
//!   rows in [`REPEATS_EXACTLY`] — the rows that were identical in 20 of 20
//!   local runs;
//! * for every other row **prints** the first counter that differs between
//!   two runs.  That list is what is left of the host order in the model
//!   (reads racing diffs at a home, calendar booking order, a pivot row
//!   racing its page-mate's flush): reported here before it is gated, named
//!   instead of guessed;
//! * asserts `order_escapes == 0` everywhere: no acquire left the order
//!   through the admission fuse.

use hyperion_workspace::apps::common::{protocols_under_test, Benchmark, BenchmarkName};
use hyperion_workspace::apps::{asp, barnes, graph, jacobi, kvstore, pi, tsp};
use hyperion_workspace::hyperion::StatsSnapshot;
use hyperion_workspace::prelude::*;
use hyperion_workspace::{HyperionConfig, ProtocolKind};

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

/// Rows whose modeled time and every counter were identical in 20 of 20
/// local runs, in the debug *and* the release build, on an idle and on a
/// loaded 2-CPU host (set [`RUNS`] to 20 to re-derive the list): the app
/// whose threads meet nowhere but at a monitor.  On an idle host the release
/// build repeats every Jacobi, Barnes-Hut and TSP row 20 of 20 as well, and
/// usually ASP, KVStore and PageRank; under different host timing each of
/// them shows a fetch racing a page-mate's diff or a different booking order
/// at a home now and then, so they are reported below, not asserted.
const REPEATS_EXACTLY: &[(BenchmarkName, ProtocolKind)] = &[
    (BenchmarkName::Pi, ProtocolKind::JavaIc),
    (BenchmarkName::Pi, ProtocolKind::JavaPf),
    (BenchmarkName::Pi, ProtocolKind::JavaAd),
];

/// What one run reports: modeled time and cluster-wide counters.
type Outcome = (VTime, StatsSnapshot);

fn run(name: BenchmarkName, protocol: ProtocolKind) -> Outcome {
    let config = HyperionConfig::new(myrinet_200(), NODES, protocol);
    let (_digest, report) = benchmark(name).execute(config);
    assert_eq!(report.transport, "sim");
    let stats = report.total_stats();
    assert_eq!(
        stats.order_escapes,
        0,
        "{name}/{}: an acquire left the virtual-time order through the fuse",
        protocol.name()
    );
    (report.execution_time, stats)
}

/// The first thing that differs between two runs, if anything does.
fn first_difference(a: &Outcome, b: &Outcome) -> Option<String> {
    let counter =
        a.1.fields()
            .into_iter()
            .zip(b.1.fields())
            .find(|(x, y)| x.1 != y.1)
            .map(|((name, x), (_, y))| format!("{name} {x} vs {y}"));
    match counter {
        None if a.0 != b.0 => Some(format!("execution_time {} vs {}", a.0, b.0)),
        other => other,
    }
}

#[test]
fn every_app_under_every_protocol_run_again() {
    let mut report = Vec::new();
    for name in BenchmarkName::all_extended() {
        for protocol in protocols_under_test() {
            let first = run(name, protocol);
            let differences: Vec<String> = (1..RUNS)
                .filter_map(|_| first_difference(&first, &run(name, protocol)))
                .collect();
            if REPEATS_EXACTLY.contains(&(name, protocol)) {
                assert!(
                    differences.is_empty(),
                    "{name}/{} repeated exactly 20 of 20 times when the list was made; now {}",
                    protocol.name(),
                    differences[0]
                );
                continue;
            }
            report.push(match differences.first() {
                None => format!("{name}/{}: repeated exactly this time", protocol.name()),
                Some(first) => format!(
                    "{name}/{}: {} of {} re-runs differ, first in {first}",
                    protocol.name(),
                    differences.len(),
                    RUNS - 1
                ),
            });
        }
    }
    println!(
        "{} rows repeat exactly by assertion; the other {}:",
        REPEATS_EXACTLY.len(),
        report.len()
    );
    for line in &report {
        println!("  {line}");
    }
}
