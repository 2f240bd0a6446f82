//! Repeatability: the same program on the same simulated cluster, run
//! again, reports the same modeled time and the same counters.
//!
//! One application thread runs at a time, and the next to run is the one
//! with the smallest virtual clock (the run's baton, `hyperion::order`), so
//! nothing the host scheduler does reaches the model: not who wins a lock,
//! not the order in which requests book a home's calendar, not whether a
//! fetch beats a page-mate's diff to the home.  This module
//!
//! * runs every app under every protocol at quick scale on 4 nodes over
//!   `SimTransport` four more times and asserts each run's `execution_time`
//!   and `StatsSnapshot` equal the quick matrix's run, five samples a row;
//! * does the same for Jacobi, ASP and Barnes-Hut on 12 nodes under
//!   `java_pf`, where most barrier wakes leave stale copies open behind the
//!   pending check;
//! * runs the serving apps over Unix-domain sockets and asserts the same
//!   modeled time and every counter as their `SimTransport` twins in the
//!   matrix.

use hyperion_bench::{FigureRow, Point, Scale};
use hyperion_workspace::apps::common::BenchmarkName;
use hyperion_workspace::hyperion::StatsSnapshot;
use hyperion_workspace::{ProtocolKind, TransportBackend, TransportConfig};

use crate::matrix;

/// Samples of each configuration: the matrix's run and four more.
const RUNS: usize = 5;

/// What a run reports: modeled seconds and cluster-wide counters.
fn outcome(row: &FigureRow) -> (f64, &StatsSnapshot) {
    (row.seconds, &row.stats)
}

fn label(row: &FigureRow) -> String {
    format!("{}/{} @ {} nodes", row.app, row.protocol.name(), row.nodes)
}

/// Run `point` again until it has [`RUNS`] samples, each equal to the
/// matrix's run.
fn runs_again(point: &Point) {
    let first = matrix::row(point);
    assert_eq!(first.transport, "sim");
    for again in 1..RUNS {
        let row = point.run();
        assert_eq!(
            outcome(&row),
            outcome(first),
            "{} run {again}",
            label(first)
        );
    }
}

#[test]
fn every_app_under_every_protocol_run_again() {
    let points = matrix::report_points();
    points.iter().for_each(runs_again);
    assert_eq!(points.len(), 14, "every app × protocol row repeats exactly");
}

#[test]
fn the_barrier_apps_on_twelve_nodes_under_java_pf_run_again() {
    for app in [
        BenchmarkName::Jacobi,
        BenchmarkName::Asp,
        BenchmarkName::Barnes,
    ] {
        runs_again(&Point {
            nodes: 12,
            ..Point::new(app, Scale::Quick, ProtocolKind::JavaPf)
        });
    }
}

#[test]
fn the_serving_apps_over_unix_sockets_repeat_their_sim_twins() {
    let transport = TransportConfig {
        backend: TransportBackend::UnixSocket,
        ..TransportConfig::default()
    };
    for point in Point::grid(BenchmarkName::serving(), Scale::Quick) {
        let twin = matrix::row(&point);
        let socket = Point {
            transport: transport.clone(),
            ..point
        }
        .run();
        assert_eq!(socket.transport, "unix-socket");
        assert_eq!(outcome(&socket), outcome(twin), "{}", label(twin));
    }
}
