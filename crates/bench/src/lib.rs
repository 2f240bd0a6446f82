//! # hyperion-bench
//!
//! The figure- and table-regeneration harness of the Hyperion-RS
//! reproduction.  For every table and figure of *"Remote object detection in
//! cluster-based Java"* (Antoniu & Hatcher, 2001) this crate provides code
//! that regenerates the corresponding data:
//!
//! * **Figures 1–5** — [`sweep_figure`] runs the matching benchmark program
//!   over both modelled clusters, both protocols and the paper's node
//!   counts, producing one [`FigureRow`] per data point (execution time in
//!   virtual seconds plus the event counts that explain it).
//! * **Table 1** — [`table1_modules`] maps every Hyperion runtime module to
//!   the crate/module of this reproduction that implements it.
//! * **Table 2** — [`table2_primitives`] lists the DSM primitives together
//!   with their micro-measured virtual cost on a two-node cluster.
//! * **§4.3 claims** — [`claims_text`] derives the `java_ic` → `java_pf`
//!   improvement percentages the paper discusses (`bench/paper.txt`).
//! * **Figure 9 (extension)** — [`FIGURES`] is the registry: number, CSV
//!   slug, heading, sweep and table columns of the serving-workload
//!   comparison.
//! * **CI gate** — [`report`] turns a sweep into `BENCH_<run>.json` and
//!   compares it against the committed `bench/baseline.json`; its
//!   [`report::METRICS`] table is the one place a tracked metric is named.
//!   The same quick rows carry the gates (`src/gates.rs`, asserted by
//!   `cargo test`).
//!
//! Every data point is a [`Point`].  The `figures` binary (`src/main.rs`)
//! is the command-line front end; `benches/ablation.rs` prints the §3.3
//! trade-off (`benchmark/` measures host time).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod gates;
pub mod report;

use hyperion::prelude::*;
use hyperion::{FaultSpec, StatsSnapshot, WireServiceSnapshot};
use hyperion_apps::common::{Benchmark, BenchmarkName};
use hyperion_apps::{asp, barnes, graph, jacobi, kvstore, pi, tsp};

/// Problem-size scale of a sweep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Scale {
    /// Tiny instances (seconds for the full sweep; used by CI and benches).
    Quick,
    /// Default harness scale: large enough that the paper's qualitative
    /// behaviour is visible, small enough to run the full sweep on a laptop.
    #[default]
    Harness,
    /// The paper's problem sizes (§4.1).  Slow: use for single data points.
    Paper,
}

impl Scale {
    /// Parse from a command-line string.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "quick" => Some(Scale::Quick),
            "harness" => Some(Scale::Harness),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// The command-line name of this scale.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Harness => "harness",
            Scale::Paper => "paper",
        }
    }
}

/// Build the benchmark parameterisation for an app at a scale.
pub fn benchmark_at(name: BenchmarkName, scale: Scale) -> Box<dyn Benchmark> {
    match (name, scale) {
        (BenchmarkName::Pi, Scale::Quick) => Box::new(pi::PiParams::quick()),
        (BenchmarkName::Pi, Scale::Harness) => Box::new(pi::PiParams::harness()),
        (BenchmarkName::Pi, Scale::Paper) => Box::new(pi::PiParams::paper()),
        (BenchmarkName::Jacobi, Scale::Quick) => Box::new(jacobi::JacobiParams::quick()),
        (BenchmarkName::Jacobi, Scale::Harness) => Box::new(jacobi::JacobiParams::harness()),
        (BenchmarkName::Jacobi, Scale::Paper) => Box::new(jacobi::JacobiParams::paper()),
        (BenchmarkName::Barnes, Scale::Quick) => Box::new(barnes::BarnesParams::quick()),
        (BenchmarkName::Barnes, Scale::Harness) => Box::new(barnes::BarnesParams::harness()),
        (BenchmarkName::Barnes, Scale::Paper) => Box::new(barnes::BarnesParams::paper()),
        (BenchmarkName::Tsp, Scale::Quick) => Box::new(tsp::TspParams::quick()),
        (BenchmarkName::Tsp, Scale::Harness) => Box::new(tsp::TspParams::harness()),
        (BenchmarkName::Tsp, Scale::Paper) => Box::new(tsp::TspParams::paper()),
        (BenchmarkName::Asp, Scale::Quick) => Box::new(asp::AspParams::quick()),
        (BenchmarkName::Asp, Scale::Harness) => Box::new(asp::AspParams::harness()),
        (BenchmarkName::Asp, Scale::Paper) => Box::new(asp::AspParams::paper()),
        (BenchmarkName::KvStore, Scale::Quick) => Box::new(kvstore::KvStoreParams::quick()),
        (BenchmarkName::KvStore, Scale::Harness) => Box::new(kvstore::KvStoreParams::harness()),
        (BenchmarkName::KvStore, Scale::Paper) => Box::new(kvstore::KvStoreParams::paper()),
        (BenchmarkName::PageRank, Scale::Quick) => Box::new(graph::PageRankParams::quick()),
        (BenchmarkName::PageRank, Scale::Harness) => Box::new(graph::PageRankParams::harness()),
        (BenchmarkName::PageRank, Scale::Paper) => Box::new(graph::PageRankParams::paper()),
    }
}

/// The node counts plotted in the paper's figures for a given cluster
/// (1–12 on the Myrinet cluster, 1–6 on the SCI cluster).
pub fn paper_node_counts(cluster: &ClusterSpec) -> Vec<usize> {
    let candidates: &[usize] = if cluster.max_nodes >= 12 {
        &[1, 2, 4, 6, 8, 10, 12]
    } else {
        &[1, 2, 3, 4, 5, 6]
    };
    candidates
        .iter()
        .copied()
        .filter(|&n| n <= cluster.max_nodes)
        .collect()
}

/// One data point of a figure: a (cluster, protocol, node count) execution.
#[derive(Clone, Debug)]
pub struct FigureRow {
    /// Figure the row belongs to: the app's own (1–5 for the paper's
    /// kernels), or the extension figure (9) whose table shows the
    /// row — [`Figure::report`] stamps its number on what its sweep returns.
    pub figure: usize,
    /// Benchmark name.
    pub app: BenchmarkName,
    /// Cluster label ("200MHz/Myrinet" or "450MHz/SCI").
    pub cluster: String,
    /// Protocol used.
    pub protocol: ProtocolKind,
    /// Transport-variant suffix distinguishing rows that share a protocol
    /// but run under different transport configurations: `""` for the
    /// default, `"+chaos"` for a run under injected faults.
    pub variant: String,
    /// Number of nodes.
    pub nodes: usize,
    /// Execution time in virtual seconds.
    pub seconds: f64,
    /// Digest of the computed answer (must agree across configurations).
    pub digest: f64,
    /// Cluster-wide event statistics.
    pub stats: StatsSnapshot,
    /// Application threads the run started, main included.
    pub threads: usize,
    /// Transport backend that carried the RPCs (`"sim"` or `"unix-socket"`).
    pub transport: &'static str,
    /// Per-service wire counters, `(service name, counters)` — empty under
    /// the in-process simulator, populated by socket backends with the real
    /// byte counts and wall-clock round-trip times that the
    /// modeled-vs-measured report compares against the cost model.
    pub wire: Vec<(String, WireServiceSnapshot)>,
    /// Modeled p99 latency of one serving-style operation, in microseconds
    /// of virtual time (0 for the paper's batch kernels, which record no
    /// serving operations).
    pub serving_p99_us: f64,
    /// Utilisation of the busiest home: service time remote requests booked
    /// on its protocol processor over the run's modeled time
    /// ([`RunReport::home_utilisation`]).
    pub peak_home_util: f64,
    /// Largest queue-wait share of any home: time requests waited there
    /// between arrival and service over the run's modeled time
    /// ([`RunReport::home_queue_wait_share`]).
    pub peak_home_queue_wait: f64,
}

impl FigureRow {
    /// Protocol plus transport-variant label (`java_pf`, `java_ic+chaos`...).
    pub fn protocol_label(&self) -> String {
        format!("{}{}", self.protocol.name(), self.variant)
    }

    /// Serving-style throughput: operations completed per virtual second
    /// (0 for the paper's batch kernels, which record no serving
    /// operations).
    pub fn serving_ops_per_s(&self) -> f64 {
        if self.seconds <= 0.0 {
            0.0
        } else {
            self.stats.serving_ops as f64 / self.seconds
        }
    }

    /// True if `other` computed the same answer: digests equal up to a
    /// relative 1e-9 (the kernels reduce in floating point, and the order of
    /// a reduction may differ between protocols and transports).
    pub fn same_digest(&self, other: &FigureRow) -> bool {
        (self.digest - other.digest).abs() <= self.digest.abs().max(1.0) * 1e-9
    }

    /// CSV header matching [`FigureRow::to_csv`].
    pub fn csv_header() -> String {
        let labels: Vec<&str> = CSV_COLUMNS.iter().map(|c| c.label).collect();
        labels.join(",")
    }

    /// Serialise as one CSV line.
    pub fn to_csv(&self) -> String {
        let cells: Vec<String> = CSV_COLUMNS.iter().map(|c| (c.cell)(self)).collect();
        cells.join(",")
    }
}

/// One column of a printed figure table, or one field of the CSV: what it
/// is called and what it shows of a row.
#[derive(Clone, Copy, Debug)]
pub struct Column {
    /// Column heading (CSV field name).
    pub label: &'static str,
    /// Printed width (unused by the CSV).
    pub width: usize,
    /// Left-aligned (the text columns) instead of right-aligned.
    pub left: bool,
    /// The cell a row shows in this column.
    pub cell: fn(&FigureRow) -> String,
}

impl Column {
    const fn text(label: &'static str, width: usize, cell: fn(&FigureRow) -> String) -> Column {
        Column {
            label,
            width,
            left: true,
            cell,
        }
    }

    const fn number(label: &'static str, width: usize, cell: fn(&FigureRow) -> String) -> Column {
        Column {
            label,
            width,
            left: false,
            cell,
        }
    }

    /// `text` padded to the column's width on its side.
    fn pad(&self, text: String) -> String {
        let width = self.width;
        if self.left {
            format!("{text:<width$}")
        } else {
            format!("{text:>width$}")
        }
    }
}

/// A right-aligned [`Column`] showing one `StatsSnapshot` counter.
macro_rules! count {
    ($label:expr, $width:expr, $counter:ident) => {
        Column::number($label, $width, |r| r.stats.$counter.to_string())
    };
}

/// A [`Column`] of the CSV (nothing is padded there).
macro_rules! csv {
    ($counter:ident) => {
        count!(stringify!($counter), 0, $counter)
    };
    ($label:expr, $cell:expr) => {
        Column::number($label, 0, $cell)
    };
}

/// The fields of one CSV line, in order: [`FigureRow::csv_header`] and
/// [`FigureRow::to_csv`] are both read off this list.
static CSV_COLUMNS: &[Column] = &[
    csv!("figure", |r| r.figure.to_string()),
    csv!("app", |r| r.app.to_string()),
    csv!("cluster", |r| r.cluster.clone()),
    csv!("protocol", FigureRow::protocol_label),
    csv!("nodes", |r| r.nodes.to_string()),
    csv!("exec_seconds", |r| format!("{:.6}", r.seconds)),
    csv!("digest", |r| format!("{:.6}", r.digest)),
    csv!(locality_checks),
    csv!(page_faults),
    csv!(mprotect_calls),
    csv!(page_loads),
    csv!(diff_messages),
    csv!("bytes_moved", |r| r.stats.bytes_moved().to_string()),
    csv!(remote_monitor_acquires),
    csv!(barrier_waits),
    csv!(batched_flushes),
    csv!(fetch_overlap_cycles_hidden),
    csv!(pages_revalidated),
    csv!(pages_patched),
    csv!(serving_ops),
    csv!("serving_ops_per_s", |r| format!(
        "{:.3}",
        r.serving_ops_per_s()
    )),
    csv!("serving_p99_us", |r| format!("{:.3}", r.serving_p99_us)),
    csv!("peak_home_util", |r| format!("{:.6}", r.peak_home_util)),
    csv!("peak_home_queue_wait", |r| format!(
        "{:.6}",
        r.peak_home_queue_wait
    )),
    csv!(pages_kept),
    csv!(monitor_wait_ps),
];

/// Node count the extension figure, the audit and the CI bench gate run
/// at: large enough that remote traffic dominates, small enough for quick
/// CI sweeps, and available on both modelled clusters.
pub const REPORT_NODES: usize = 4;

/// One data point to run.  [`Point::new`] fills in what nearly every sweep
/// uses — the Myrinet cluster at [`REPORT_NODES`] nodes, default transport,
/// no labels — so a sweep says only where it differs: `Point { nodes: 2, ..Point::new(app, scale, protocol) }.run()`.
#[derive(Clone, Debug, PartialEq)]
pub struct Point {
    /// The benchmark program.
    pub app: BenchmarkName,
    /// Its problem size.
    pub scale: Scale,
    /// The modelled cluster.
    pub cluster: ClusterSpec,
    /// The access-detection protocol.
    pub protocol: ProtocolKind,
    /// Number of nodes.
    pub nodes: usize,
    /// Transport configuration.
    pub transport: TransportConfig,
    /// Becomes the row's [`FigureRow::variant`].
    pub variant: String,
}

impl Point {
    /// `app` at `scale` under `protocol`, everything else at its default.
    pub fn new(app: BenchmarkName, scale: Scale, protocol: ProtocolKind) -> Point {
        Point {
            app,
            scale,
            cluster: myrinet_200(),
            protocol,
            nodes: REPORT_NODES,
            transport: TransportConfig::default(),
            variant: String::new(),
        }
    }

    /// Every app of `apps` under each of the two protocols, at the
    /// defaults of [`Point::new`] — the grid most sweeps walk.
    pub fn grid(apps: impl IntoIterator<Item = BenchmarkName>, scale: Scale) -> Vec<Point> {
        let mut points = Vec::new();
        for app in apps {
            for protocol in ProtocolKind::all() {
                points.push(Point::new(app, scale, protocol));
            }
        }
        points
    }

    /// Execute the point — the one place a figure data point is actually
    /// run: builds the configuration, runs the benchmark and wraps the
    /// result as a row.
    pub fn run(&self) -> FigureRow {
        let config = HyperionConfig::new(self.cluster.clone(), self.nodes, self.protocol)
            .with_transport(self.transport.clone());
        let (digest, report) = benchmark_at(self.app, self.scale).execute(config);
        let peak = |shares: Vec<f64>| shares.into_iter().fold(0.0, f64::max);
        let peak_home_util = peak(report.home_utilisation());
        let peak_home_queue_wait = peak(report.home_queue_wait_share());
        FigureRow {
            figure: self.app.figure(),
            app: self.app,
            cluster: report.cluster_label.clone(),
            protocol: self.protocol,
            variant: self.variant.clone(),
            nodes: self.nodes,
            seconds: report.seconds(),
            digest,
            stats: report.total_stats(),
            threads: report.threads,
            transport: report.transport,
            wire: report.wire,
            serving_p99_us: report.serving_p99.as_ps() as f64 / 1e6,
            peak_home_util,
            peak_home_queue_wait,
        }
    }
}

/// Regenerate one of the paper's figures: sweep both clusters, both
/// protocols and the paper's node counts for the benchmark behind `figure`.
pub fn sweep_figure(name: BenchmarkName, scale: Scale) -> Vec<FigureRow> {
    figure_points(name, scale).iter().map(Point::run).collect()
}

/// The points [`sweep_figure`] runs, in the order it runs them.
pub fn figure_points(name: BenchmarkName, scale: Scale) -> Vec<Point> {
    let mut points = Vec::new();
    for cluster in [myrinet_200(), sci_450()] {
        for protocol in ProtocolKind::all() {
            for nodes in paper_node_counts(&cluster) {
                points.push(Point {
                    cluster: cluster.clone(),
                    nodes,
                    ..Point::new(name, scale, protocol)
                });
            }
        }
    }
    points
}

/// The CI-tracked sweep behind `BENCH_<run>.json`: all five apps under both
/// protocols on the Myrinet cluster at [`REPORT_NODES`] nodes, plus the
/// figure-9 serving rows (KV store and PageRank under both protocols, with
/// throughput and modeled p99), so their deltas are tracked by the baseline
/// gate too.
pub fn bench_report_rows(scale: Scale) -> Vec<FigureRow> {
    let grid = Point::grid(BenchmarkName::all(), scale);
    let mut rows: Vec<FigureRow> = grid.iter().map(Point::run).collect();
    rows.extend(sweep_serving(scale));
    rows
}

/// Figure 9 (extension): the serving-workload family — the sharded KV store
/// and the PageRank kernel — under `java_ic` and `java_pf` on the Myrinet
/// cluster at [`REPORT_NODES`] nodes.  Serving rows carry
/// throughput ([`FigureRow::serving_ops_per_s`]) and modeled p99 per
/// operation ([`FigureRow::serving_p99_us`]) on top of the usual event
/// counters.
pub fn sweep_serving(scale: Scale) -> Vec<FigureRow> {
    let grid = Point::grid(BenchmarkName::serving(), scale);
    grid.iter().map(Point::run).collect()
}

/// One extension figure (9) of the `figures` binary.  [`FIGURES`] is the
/// registry the binary reads its `--fig` range, tables, headings and CSV
/// file names from.
#[derive(Clone, Copy, Debug)]
pub struct Figure {
    /// The `--fig` number.
    pub number: usize,
    /// Names the CSV file: `fig<number>_<slug>.csv`.
    pub slug: &'static str,
    /// What the heading line says the figure compares.
    pub heading: &'static str,
    /// The sweep that produces the rows.
    pub sweep: fn(Scale) -> Vec<FigureRow>,
    /// The columns of the printed table.
    pub columns: &'static [Column],
}

/// The extension figures, by number.
pub static FIGURES: &[Figure] = &[Figure {
    number: 9,
    slug: "serving",
    heading: "serving workloads (Zipf KV store, PageRank)",
    sweep: sweep_serving,
    columns: &[
        Column::text("App", 10, |r| r.app.to_string()),
        Column::text("variant", 14, FigureRow::protocol_label),
        Column::number("exec (s)", 12, |r| format!("{:.4}", r.seconds)),
        count!("ops", 12, serving_ops),
        Column::number("ops/s", 12, |r| format!("{:.0}", r.serving_ops_per_s())),
        Column::number("p99 (us)", 12, |r| format!("{:.1}", r.serving_p99_us)),
        count!("page_loads", 11, page_loads),
        count!("revalidated", 12, pages_revalidated),
        count!("patched", 8, pages_patched),
        count!("kept", 10, pages_kept),
        count!("stride", 7, stride_fetches_issued),
        count!("wasted", 8, stride_fetches_wasted),
        Column::number("home busy", 10, |r| {
            format!("{:.2}%", r.peak_home_util * 100.0)
        }),
        Column::number("queue wait", 10, |r| {
            format!("{:.2}%", r.peak_home_queue_wait * 100.0)
        }),
        Column::number("mon wait (ms)", 14, |r| {
            format!("{:.3}", r.stats.monitor_wait_ps as f64 / 1e9)
        }),
    ],
}];

/// The figure numbers `--fig` accepts: the paper's 1–5 and [`FIGURES`].
pub fn figure_numbers() -> Vec<usize> {
    (1..=5).chain(FIGURES.iter().map(|f| f.number)).collect()
}

/// The paper benchmark behind figure `number` (1–5).
pub fn paper_figure(number: usize) -> Option<BenchmarkName> {
    BenchmarkName::all()
        .into_iter()
        .find(|b| b.figure() == number)
}

/// The extension figure `number` (9).
pub fn extension_figure(number: usize) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.number == number)
}

impl Figure {
    /// Run the sweep and render the figure as `figures --fig N` prints it:
    /// heading, column header, one line per row and a blank line.  Returns the text and the rows (stamped with the figure's
    /// number).
    pub fn report(&self, scale: Scale) -> (String, Vec<FigureRow>) {
        let mut rows = (self.sweep)(scale);
        for row in &mut rows {
            row.figure = self.number;
        }
        let line = |cell: &dyn Fn(&Column) -> String| -> String {
            let cells: Vec<String> = self.columns.iter().map(|c| c.pad(cell(c))).collect();
            cells.join(" ") + "\n"
        };
        let mut text = format!(
            "== Figure {} (extension): {}, {REPORT_NODES} nodes ==\n",
            self.number, self.heading
        );
        text += &line(&|c| c.label.to_string());
        for row in &rows {
            text += &line(&|c| (c.cell)(row));
        }
        text.push('\n');
        (text, rows)
    }
}

/// The modeled-vs-measured sweep behind `figures --transport socket`: all
/// five apps under both protocols on the Myrinet cluster at
/// [`REPORT_NODES`] nodes, with every RPC carried by `backend` instead of
/// the in-process simulator.  Each returned row's [`FigureRow::wire`] table
/// holds, per RPC service, the modeled virtual-time round-trip span next to
/// the measured wall-clock span of the real socket exchange (plus real byte
/// and message counts) — the raw material of
/// [`report::modeled_vs_measured_markdown`].
///
/// With [`TransportBackend::Sim`] the sweep still runs (useful as a digest
/// cross-check) but the wire tables come back empty.
pub fn sweep_modeled_vs_measured(scale: Scale, backend: TransportBackend) -> Vec<FigureRow> {
    let transport = TransportConfig {
        backend,
        ..TransportConfig::default()
    };
    Point::grid(BenchmarkName::all(), scale)
        .into_iter()
        .map(|point| {
            let transport = transport.clone();
            Point { transport, ..point }.run()
        })
        .collect()
}

/// One paired point of the chaos sweep: the same (app, protocol) execution
/// fault-free (the digest reference) and under the injected schedule.
#[derive(Clone, Debug)]
pub struct ChaosPair {
    /// Fault-free reference run (default transport).
    pub baseline: FigureRow,
    /// The run under the injected `FaultSpec`.
    pub faulted: FigureRow,
}

impl ChaosPair {
    /// True if the faulted run computed the same result as the reference —
    /// the correctness criterion of the whole fault plane: injected drops,
    /// delays, duplicates and even a node kill may change *timing*, never
    /// *values*.
    pub fn digests_match(&self) -> bool {
        self.baseline.digest == self.faulted.digest
    }
}

/// The chaos sweep behind `figures --fault <spec>`: all five apps under both
/// protocols on the Myrinet cluster at [`REPORT_NODES`] nodes, each
/// point run twice — once fault-free as the digest reference, once with the
/// seeded `spec` injected at the transport (a killed home's pages move to
/// the lowest-id live node).  Both runs ride `backend`
/// (faults are injected by wrapping whichever transport carries the RPCs,
/// so the schedule replays identically over sockets).  The faulted rows
/// carry the recovery economics (`rpc_retries`, `rpc_timeouts`,
/// `frames_dropped_injected`, `nodes_failed`, `pages_resynced`) in their
/// stats; [`report::chaos_markdown`] renders the comparison.
pub fn sweep_chaos(scale: Scale, spec: FaultSpec, backend: TransportBackend) -> Vec<ChaosPair> {
    let reference = TransportConfig {
        backend,
        ..TransportConfig::default()
    };
    let faulted = TransportConfig {
        fault: Some(spec),
        ..reference.clone()
    };
    Point::grid(BenchmarkName::all(), scale)
        .into_iter()
        .map(|point| {
            let baseline = Point {
                transport: reference.clone(),
                ..point
            };
            let faulted = Point {
                transport: faulted.clone(),
                variant: "+chaos".to_string(),
                ..baseline.clone()
            };
            ChaosPair {
                baseline: baseline.run(),
                faulted: faulted.run(),
            }
        })
        .collect()
}

/// One derived improvement data point: how much faster `java_pf` is than
/// `java_ic` for a given (app, cluster, node count).
#[derive(Clone, Debug)]
pub struct Improvement {
    /// Benchmark name.
    pub app: BenchmarkName,
    /// Cluster label.
    pub cluster: String,
    /// Node count.
    pub nodes: usize,
    /// `java_ic` execution time (virtual seconds).
    pub ic_seconds: f64,
    /// `java_pf` execution time (virtual seconds).
    pub pf_seconds: f64,
}

impl Improvement {
    /// Relative improvement `(ic - pf) / ic`, as a percentage (positive when
    /// `java_pf` is faster, the paper's convention).
    pub fn percent(&self) -> f64 {
        (self.ic_seconds - self.pf_seconds) / self.ic_seconds * 100.0
    }
}

/// Pair up the `java_ic`/`java_pf` rows of a sweep into improvements.
pub fn improvement_summary(rows: &[FigureRow]) -> Vec<Improvement> {
    let mut out = Vec::new();
    for ic_row in rows.iter().filter(|r| r.protocol == ProtocolKind::JavaIc) {
        if let Some(pf_row) = rows.iter().find(|r| {
            r.protocol == ProtocolKind::JavaPf
                && r.app == ic_row.app
                && r.cluster == ic_row.cluster
                && r.nodes == ic_row.nodes
        }) {
            out.push(Improvement {
                app: ic_row.app,
                cluster: ic_row.cluster.clone(),
                nodes: ic_row.nodes,
                ic_seconds: ic_row.seconds,
                pf_seconds: pf_row.seconds,
            });
        }
    }
    out
}

/// The §4.3 claims as `figures --claims` prints them: one line per
/// (app, cluster, node count) with both protocols' virtual seconds to the
/// picosecond, then the per-cluster averages.  `bench/paper.txt` holds the
/// text for figures 1–5 at quick scale, byte for byte.
pub fn claims_text(rows: &[FigureRow]) -> String {
    let mut text =
        String::from("== Derived §4.3 claims: java_ic -> java_pf improvement, (ic-pf)/ic ==\n");
    text += &format!(
        "{:<12} {:<16} {:>6} {:>14} {:>14} {:>12}\n",
        "App", "Cluster", "Nodes", "ic (s)", "pf (s)", "improvement"
    );
    let improvements = improvement_summary(rows);
    for imp in &improvements {
        text += &format!(
            "{:<12} {:<16} {:>6} {:>14.9} {:>14.9} {:>11.1}%\n",
            imp.app.to_string(),
            imp.cluster,
            imp.nodes,
            imp.ic_seconds,
            imp.pf_seconds,
            imp.percent()
        );
    }
    // Aggregate per cluster (the paper quotes a 21% average on SCI), then
    // count the cells where java_pf loses, so a sign change shows.
    let mut losing = String::new();
    for cluster in ["200MHz/Myrinet", "450MHz/SCI"] {
        let cells: Vec<&Improvement> = (improvements.iter())
            .filter(|i| i.cluster == cluster && i.app != BenchmarkName::Pi)
            .collect();
        if !cells.is_empty() {
            let avg = cells.iter().map(|i| i.percent()).sum::<f64>() / cells.len() as f64;
            text += &format!(
                "average improvement on {cluster} (excluding Pi, all apps and node counts): {avg:.1}%\n"
            );
            let lost = cells.iter().filter(|i| i.pf_seconds > i.ic_seconds).count();
            let all = cells.len();
            losing +=
                &format!("java_pf loses on {cluster} in {lost} of {all} cells (excluding Pi)\n");
        }
    }
    text + &losing + "\n"
}

/// Table 1 of the paper: Hyperion's runtime modules, with the part of this
/// reproduction that implements each one.
pub fn table1_modules() -> Vec<(&'static str, &'static str, &'static str)> {
    vec![
        (
            "Threads subsystem",
            "Java thread creation/synchronisation mapped onto PM2 operations",
            "hyperion::runtime::ThreadCtx::{spawn_on,join} + hyperion-pm2::threads",
        ),
        (
            "Communication subsystem",
            "Message handlers asynchronously invoked on the receiving node (RPCs)",
            "hyperion-pm2::comm + hyperion-pm2::cluster::Cluster::rpc",
        ),
        (
            "Memory subsystem",
            "Single shared address space under the Java Memory Model, two protocols",
            "hyperion-dsm::engine::DsmSystem + hyperion::runtime::ThreadCtx",
        ),
        (
            "Load balancer",
            "Round-robin distribution of newly created threads over the nodes",
            "hyperion::runtime::ThreadCtx::spawn_on + hyperion-apps::common::block_owner \
             (worker t and its block on node t)",
        ),
        (
            "Java API subsystem",
            "Subset of the class library used by the benchmarks",
            "hyperion::api::{JBarrier, SharedCounter}",
        ),
    ]
}

/// A measured row of Table 2: primitive name, description and the virtual
/// cost observed in a two-node micro-benchmark on the given cluster.
#[derive(Clone, Debug)]
pub struct PrimitiveCost {
    /// Primitive name as in the paper's Table 2.
    pub name: &'static str,
    /// Paper description.
    pub description: &'static str,
    /// Virtual time of one invocation in the micro-benchmark (microseconds).
    pub micros: f64,
}

/// Micro-measure the Table 2 primitives on a two-node cluster.
pub fn table2_primitives(cluster: &ClusterSpec, protocol: ProtocolKind) -> Vec<PrimitiveCost> {
    let config = HyperionConfig::new(cluster.clone(), 2, protocol);
    let runtime = HyperionRuntime::new(config).expect("two-node configuration");
    let out = runtime.run(|ctx| {
        let remote = ctx.alloc_array::<u64>(64, NodeId(1));
        let mut costs = Vec::new();

        // loadIntoCache: fetch a page that is not yet cached.  The fetch is
        // a split transaction, so its cost is the issue plus the residual
        // the first use pays, less that use's own cost as a cached get.
        let t0 = ctx.now();
        ctx.load_into_cache(remote.base(), 1);
        let _: u64 = remote.get(ctx, 0);
        let loaded = ctx.now() - t0;

        // get on a cached page.
        let t0 = ctx.now();
        let _: u64 = remote.get(ctx, 0);
        let get = ctx.now() - t0;
        costs.push(("loadIntoCache", loaded - get));
        costs.push(("get", get));

        // put on a cached page.
        let t0 = ctx.now();
        remote.put(ctx, 1, 42);
        costs.push(("put", ctx.now() - t0));

        // updateMainMemory with one dirty slot.
        let t0 = ctx.now();
        ctx.update_main_memory();
        costs.push(("updateMainMemory", ctx.now() - t0));

        // invalidateCache with one cached page.
        let t0 = ctx.now();
        ctx.invalidate_cache();
        costs.push(("invalidateCache", ctx.now() - t0));

        costs
    });

    let descriptions = [
        ("loadIntoCache", "Load an object into the cache"),
        ("invalidateCache", "Invalidate all entries in the cache"),
        (
            "updateMainMemory",
            "Update memory with modifications made to objects in the cache",
        ),
        (
            "get",
            "Retrieve a field from an object previously loaded into the cache",
        ),
        (
            "put",
            "Modify a field in an object previously loaded into the cache",
        ),
    ];

    descriptions
        .iter()
        .map(|(name, description)| {
            let measured = out
                .result
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, t)| t.as_ps() as f64 / 1e6)
                .unwrap_or(0.0);
            PrimitiveCost {
                name,
                description,
                micros: measured,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("quick"), Some(Scale::Quick));
        assert_eq!(Scale::parse("harness"), Some(Scale::Harness));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("bogus"), None);
    }

    #[test]
    fn node_counts_match_the_paper_axes() {
        assert_eq!(
            paper_node_counts(&myrinet_200()),
            vec![1, 2, 4, 6, 8, 10, 12]
        );
        assert_eq!(paper_node_counts(&sci_450()), vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn table1_covers_all_five_modules() {
        let rows = table1_modules();
        assert_eq!(rows.len(), 5);
        assert!(rows.iter().any(|(m, _, _)| *m == "Load balancer"));
    }

    #[test]
    fn table2_micro_costs_are_sane() {
        let rows = table2_primitives(&myrinet_200(), ProtocolKind::JavaIc);
        assert_eq!(rows.len(), 5);
        let get = rows.iter().find(|r| r.name == "get").unwrap();
        let load = rows.iter().find(|r| r.name == "loadIntoCache").unwrap();
        // A cached get is orders of magnitude cheaper than a page fetch.
        assert!(get.micros < load.micros);
        assert!(load.micros > 10.0, "page fetch should cost tens of µs");
    }

    #[test]
    fn run_point_produces_consistent_rows() {
        let row = Point {
            cluster: sci_450(),
            nodes: 2,
            ..Point::new(BenchmarkName::Pi, Scale::Quick, ProtocolKind::JavaPf)
        }
        .run();
        assert_eq!(row.figure, 1);
        assert_eq!(row.nodes, 2);
        assert_eq!(row.cluster, "450MHz/SCI");
        assert!(row.seconds > 0.0);
        assert!((row.digest - std::f64::consts::PI).abs() < 1e-3);
        assert!(row.to_csv().starts_with("1,Pi,450MHz/SCI,java_pf,2,"));
        assert!(FigureRow::csv_header().starts_with("figure,app,cluster"));
    }

    /// `app` under `protocol` on two Myrinet nodes at quick scale.
    fn two_nodes(app: BenchmarkName, protocol: ProtocolKind) -> FigureRow {
        Point {
            nodes: 2,
            ..Point::new(app, Scale::Quick, protocol)
        }
        .run()
    }

    #[test]
    fn serving_rows_carry_throughput_and_p99() {
        let row = two_nodes(BenchmarkName::KvStore, ProtocolKind::JavaPf);
        assert_eq!(row.figure, 9);
        assert!(row.stats.serving_ops > 0);
        assert!(row.serving_ops_per_s() > 0.0);
        assert!(row.serving_p99_us > 0.0);
        // The serving, home-load, kept-copy and monitor-order columns ride at
        // the end of the CSV row.
        assert_eq!(
            row.to_csv().matches(',').count(),
            FigureRow::csv_header().matches(',').count()
        );
        assert!(FigureRow::csv_header().ends_with("pages_kept,monitor_wait_ps"));

        // Batch kernels record no serving operations.
        let pi = two_nodes(BenchmarkName::Pi, ProtocolKind::JavaPf);
        assert_eq!(pi.stats.serving_ops, 0);
        assert_eq!(pi.serving_ops_per_s(), 0.0);
        assert_eq!(pi.serving_p99_us, 0.0);
    }

    #[test]
    fn improvement_summary_pairs_protocols() {
        let rows: Vec<FigureRow> = [ProtocolKind::JavaIc, ProtocolKind::JavaPf]
            .into_iter()
            .map(|protocol| {
                Point {
                    nodes: 3,
                    ..Point::new(BenchmarkName::Pi, Scale::Quick, protocol)
                }
                .run()
            })
            .collect();
        let imps = improvement_summary(&rows);
        assert_eq!(imps.len(), 1);
        let imp = &imps[0];
        assert_eq!(imp.nodes, 3);
        // Pi is nearly identical under both protocols.
        assert!(imp.percent().abs() < 5.0);
    }

    #[test]
    fn figure_registry_resolves_every_number_once() {
        // Every `--fig` number is a paper figure or an extension, never both.
        assert_eq!(figure_numbers(), [1, 2, 3, 4, 5, 9]);
        for n in 1..=9 {
            let (paper, extension) = (paper_figure(n).is_some(), extension_figure(n).is_some());
            assert!(!(paper && extension), "figure {n}");
            assert_eq!(paper || extension, figure_numbers().contains(&n), "{n}");
        }
        assert_eq!(paper_figure(10), None);
        assert!(extension_figure(10).is_none());
        // CSV files are named after the slug.
        for (i, a) in FIGURES.iter().enumerate() {
            assert!(FIGURES[i + 1..]
                .iter()
                .all(|b| b.slug != a.slug && b.number != a.number));
        }
        // One column list feeds both the CSV header and the rows (a row's
        // count: `serving_rows_carry_throughput_and_p99`).
        assert_eq!(FigureRow::csv_header().split(',').count(), 26);
    }
}
