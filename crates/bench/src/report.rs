//! The CI bench report: JSON emission, parsing and baseline gating.
//!
//! The CI pipeline runs `figures --quick --json`, which sweeps the five
//! apps under all three protocols, writes the tracked metrics to
//! `BENCH_<run>.json` and — when `--baseline bench/baseline.json` is given —
//! fails the build if any tracked metric (modeled wall time, page loads,
//! invalidated pages) regressed by more than the tolerance against the
//! committed baseline.
//!
//! The build environment vendors no JSON crate, so this module carries a
//! minimal recursive-descent JSON parser that understands exactly the values
//! the report schema uses (objects, arrays, strings, numbers, booleans,
//! null).

use std::collections::HashMap;

use crate::FigureRow;

/// Relative regression tolerance of the CI gate: a tracked metric may grow
/// by at most this fraction over the committed baseline.
pub const DEFAULT_TOLERANCE: f64 = 0.10;

/// The gate of the time metrics: the relative tolerance, no slack.
const TIME_CEILING: Gate = Gate::Ceiling { slack: 0.0 };

/// The gate of the counter metrics: absolute slack on top of the relative
/// tolerance, so tiny baselines (a handful of page loads) do not flag
/// ±1-page scheduling noise as regressions.
const COUNT_CEILING: Gate = Gate::Ceiling { slack: 8.0 };

/// How a tracked metric's value is read off a [`FigureRow`].
#[derive(Clone, Copy, Debug)]
enum Read {
    /// The [`hyperion::StatsSnapshot`] counter named by the metric's key.
    Counter,
    /// Computed from the row.
    Row(fn(&FigureRow) -> f64),
    /// The named counter per invalidation epoch, computed on each run's
    /// *own* pair of counters.  Envelopes fold it as the max of per-run
    /// rates — deriving a rate from independently-maxed counters could fall
    /// below a rate some real run produced and flag it as a regression.  A
    /// hand-maintained baseline may omit it: the parser then derives it from
    /// the row's own counter pair.
    PerEpoch(&'static str),
}

/// What the baseline gate holds a metric to.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Gate {
    /// Informational: reported, never gated.
    None,
    /// Fails above `baseline * (1 + tolerance) + slack`.  Every app is held
    /// to the same bounds: TSP and Barnes-Hut used to be a class of their
    /// own (work-normalised rates plus a 3× ceiling), but with their queue
    /// and chunk counter granted in virtual-time order their rows stay
    /// inside the ordinary tolerance (20 of 20 gate runs).
    Ceiling { slack: f64 },
    /// Serving rows only: fails above `baseline * 8 + 1`.  p99 is a tail
    /// statistic — the 10th-worst op of a kilo-op quick run — and sits right
    /// at the adaptive protocol's fault-vs-check boundary, so between runs
    /// it flips modes by several-fold: mode flips pass, a runaway tail
    /// (retry storms, flapping pages) still fails.
    TailCeiling,
    /// Serving rows only, higher is better: fails below
    /// `baseline * (1 - tolerance)`, and envelopes keep the *minimum*
    /// across runs (the floor the gate holds).
    Floor,
}

/// One tracked metric of the bench report.  [`METRICS`] is the only place a
/// metric is spelled out: the row conversion, the envelope fold, the JSON
/// writer, the parser and the gate are loops over it.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// JSON key (for counters also the `StatsSnapshot` field name).
    pub key: &'static str,
    read: Read,
    /// Decimals in the JSON report (0 for the integer counters).
    decimals: usize,
    /// Whether a baseline row without this key is malformed (otherwise the
    /// value defaults to 0, or to the derived rate for [`Read::PerEpoch`]).
    required: bool,
    gate: Gate,
}

impl Metric {
    const fn counter(key: &'static str) -> Metric {
        Metric {
            key,
            read: Read::Counter,
            decimals: 0,
            required: false,
            gate: Gate::None,
        }
    }

    const fn of_row(key: &'static str, decimals: usize, read: fn(&FigureRow) -> f64) -> Metric {
        Metric {
            read: Read::Row(read),
            decimals,
            ..Metric::counter(key)
        }
    }

    const fn per_epoch(key: &'static str, counter: &'static str) -> Metric {
        Metric {
            read: Read::PerEpoch(counter),
            decimals: 6,
            ..Metric::counter(key)
        }
    }

    const fn required(self) -> Metric {
        Metric {
            required: true,
            ..self
        }
    }

    const fn gated(self, gate: Gate) -> Metric {
        Metric { gate, ..self }
    }
}

/// Every tracked metric, in the order `BENCH_<run>.json` writes them.  To
/// add a counter to the report: one line here.
pub static METRICS: &[Metric] = &[
    Metric::of_row("exec_seconds", 9, |r| r.seconds)
        .required()
        .gated(TIME_CEILING),
    Metric::counter("page_loads")
        .required()
        .gated(COUNT_CEILING),
    Metric::counter("pages_revalidated"),
    Metric::counter("pages_patched"),
    Metric::counter("pages_kept"),
    Metric::counter("pages_invalidated")
        .required()
        .gated(COUNT_CEILING),
    Metric::counter("cache_invalidations").required(),
    Metric::counter("monitor_enters"),
    Metric::per_epoch("loads_per_epoch", "page_loads"),
    Metric::per_epoch("invalidated_per_epoch", "pages_invalidated"),
    Metric::counter("page_faults"),
    Metric::counter("locality_checks"),
    Metric::counter("mprotect_calls"),
    Metric::counter("batched_fetches"),
    Metric::counter("protocol_switches"),
    Metric::counter("diff_messages"),
    Metric::counter("batched_flushes"),
    Metric::counter("fetch_overlap_cycles_hidden"),
    Metric::counter("stride_fetches_issued"),
    Metric::counter("stride_fetches_completed"),
    Metric::counter("stride_fetches_wasted"),
    Metric::counter("deferred_flushes"),
    Metric::counter("flush_overlap_cycles_hidden"),
    // When non-zero the row is a serving row: its throughput floor and p99
    // ceiling are gated too.
    Metric::counter("serving_ops"),
    Metric::of_row("serving_ops_per_s", 3, FigureRow::serving_ops_per_s).gated(Gate::Floor),
    Metric::of_row("serving_p99_us", 3, |r| r.serving_p99_us).gated(Gate::TailCeiling),
    Metric::of_row("peak_home_util", 6, |r| r.peak_home_util),
    Metric::of_row("peak_home_queue_wait", 6, |r| r.peak_home_queue_wait),
    Metric::counter("monitor_wait_ps"),
];

/// Position of the metric called `key` in [`METRICS`] (and in
/// [`ReportRow`]'s values).
fn index_of(key: &str) -> usize {
    METRICS
        .iter()
        .position(|m| m.key == key)
        .unwrap_or_else(|| panic!("`{key}` is not a tracked metric"))
}

/// `(app, protocol label, nodes)`: the identity of a row inside a report.
pub type RowKey = (String, String, u64);

/// One row of a bench report (current or baseline): its identity plus one
/// value per entry of [`METRICS`].
#[derive(Clone, Debug, PartialEq)]
pub struct ReportRow {
    /// Benchmark name (`Pi`, `Jacobi`, ...).
    pub app: String,
    /// Protocol name plus transport variant (`java_ic`, `java_pf+ov`, ...).
    pub protocol: String,
    /// Cluster label (informational).
    pub cluster: String,
    /// Node count of the run.
    pub nodes: u64,
    /// The tracked metrics, parallel to [`METRICS`].  Counters are held as
    /// `f64` too: the parser admits none above 2^53, so each is exact.
    values: Vec<f64>,
}

/// Loads (or similar counters) per epoch, with an epoch-free run counting
/// as a single epoch.
fn per_epoch(count: f64, epochs: f64) -> f64 {
    count / epochs.max(1.0)
}

impl ReportRow {
    /// The identity of a row inside a report.
    pub fn key(&self) -> RowKey {
        (self.app.clone(), self.protocol.clone(), self.nodes)
    }

    /// The value of the tracked metric called `metric` (a [`METRICS`] key).
    pub fn get(&self, metric: &str) -> f64 {
        self.values[index_of(metric)]
    }
}

impl From<&FigureRow> for ReportRow {
    fn from(row: &FigureRow) -> ReportRow {
        let counters = row.stats.fields();
        let counter = |key: &str| {
            let (_, count) = counters
                .iter()
                .find(|(name, _)| *name == key)
                .unwrap_or_else(|| panic!("METRICS names `{key}`, which is no stats counter"));
            *count as f64
        };
        ReportRow {
            app: row.app.to_string(),
            protocol: row.protocol_label(),
            cluster: row.cluster.clone(),
            nodes: row.nodes as u64,
            values: METRICS
                .iter()
                .map(|m| match m.read {
                    Read::Counter => counter(m.key),
                    Read::Row(read) => read(row),
                    Read::PerEpoch(of) => per_epoch(counter(of), counter("cache_invalidations")),
                })
                .collect(),
        }
    }
}

/// Fold one sweep per run into a per-row *envelope*: every tracked metric
/// keeps its worst value across the runs — the maximum, or the minimum for
/// the higher-is-better throughput — and the work-normalised rates keep the
/// maximum of the **per-run** rates (each computed on its own run's counter
/// pair).
///
/// Committed baselines for the dynamically scheduled apps are generated
/// this way: comparing a fresh draw against a single lucky run would flag
/// ordinary scheduling noise as a regression.
pub fn envelope(runs: &[Vec<FigureRow>]) -> Vec<ReportRow> {
    let mut out: Vec<ReportRow> = runs
        .first()
        .expect("envelope of at least one run")
        .iter()
        .map(ReportRow::from)
        .collect();
    for run in &runs[1..] {
        assert_eq!(run.len(), out.len(), "every run must sweep the same rows");
        for (acc, row) in out.iter_mut().zip(run) {
            let next = ReportRow::from(row);
            assert_eq!(acc.key(), next.key(), "sweep order must be stable");
            for ((m, acc), next) in METRICS.iter().zip(&mut acc.values).zip(next.values) {
                *acc = if m.gate == Gate::Floor {
                    acc.min(next)
                } else {
                    acc.max(next)
                };
            }
        }
    }
    out
}

/// Serialise a bench report (single run or envelope) as the JSON consumed
/// by [`parse_report`].  `run` labels the producing CI run (the workflow
/// passes `GITHUB_RUN_ID`).
pub fn report_to_json(run: &str, scale: &str, rows: &[ReportRow]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"schema\": 1,\n  \"run\": {},\n", quote(run)));
    out.push_str(&format!("  \"scale\": {},\n  \"rows\": [\n", quote(scale)));
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"app\": {}, \"protocol\": {}, \"cluster\": {}, \"nodes\": {}",
            quote(&r.app),
            quote(&r.protocol),
            quote(&r.cluster),
            r.nodes,
        ));
        for (m, value) in METRICS.iter().zip(&r.values) {
            out.push_str(&format!(", \"{}\": {value:.*}", m.key, m.decimals));
        }
        out.push_str(if i + 1 == rows.len() { "}\n" } else { "},\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The largest counter a report may carry: up to 2^53 an `f64` (what JSON
/// numbers are parsed into) holds every integer exactly.
const MAX_COUNTER: f64 = 9_007_199_254_740_992.0;

/// The number under `key` of a report row, checked: a baseline is outside
/// input, and a negative, non-finite or (for a counter) fractional or
/// inexact value would make the row it sits in un-failable or meaningless.
fn number(row: &Json, key: &str, counter: bool) -> Result<Option<f64>, String> {
    let Some(value) = row.get(key) else {
        return Ok(None);
    };
    let n = value
        .as_f64()
        .ok_or_else(|| format!("\"{key}\" is not a number"))?;
    if !n.is_finite() || n < 0.0 {
        return Err(format!("\"{key}\" is {n}: negative or not finite"));
    }
    if counter && (n.fract() != 0.0 || n > MAX_COUNTER) {
        return Err(format!("\"{key}\" is {n}, not an exact whole count"));
    }
    Ok(Some(n))
}

/// Parse a bench report produced by [`report_to_json`] (or an equivalent
/// hand-maintained baseline file) into its rows.  Errors name the row and
/// the key that is missing or malformed.
pub fn parse_report(json: &str) -> Result<Vec<ReportRow>, String> {
    let value = Json::parse(json)?;
    let rows = value
        .get("rows")
        .and_then(Json::as_array)
        .ok_or("report has no \"rows\" array")?;
    rows.iter()
        .enumerate()
        .map(|(i, row)| {
            parse_row(row).map_err(|e| {
                let label = |key| row.get(key).and_then(Json::as_str).unwrap_or("?");
                format!("row {i} ({}/{}): {e}", label("app"), label("protocol"))
            })
        })
        .collect()
}

fn parse_row(row: &Json) -> Result<ReportRow, String> {
    let text = |key: &str| row.get(key).and_then(Json::as_str);
    let missing = |key: &str| format!("missing \"{key}\"");
    let mut values: Vec<f64> = Vec::with_capacity(METRICS.len());
    for m in METRICS {
        let counter = matches!(m.read, Read::Counter);
        let value = match (number(row, m.key, counter)?, m.read) {
            (Some(value), _) => value,
            (None, _) if m.required => return Err(missing(m.key)),
            // Both counters of the pair are required and precede the rate
            // in METRICS, so they are parsed by now.
            (None, Read::PerEpoch(of)) => per_epoch(
                values[index_of(of)],
                values[index_of("cache_invalidations")],
            ),
            (None, _) => 0.0,
        };
        values.push(value);
    }
    Ok(ReportRow {
        app: text("app").ok_or_else(|| missing("app"))?.to_string(),
        protocol: text("protocol")
            .ok_or_else(|| missing("protocol"))?
            .to_string(),
        cluster: text("cluster").unwrap_or_default().to_string(),
        nodes: number(row, "nodes", true)?.ok_or_else(|| missing("nodes"))? as u64,
        values,
    })
}

/// One finding of the baseline gate.
#[derive(Clone, Debug)]
pub struct Finding {
    /// The baseline row the finding is about.
    pub key: RowKey,
    /// The metric that regressed, as `(metric, baseline, measured, limit)` —
    /// or `None` when the baseline row was not measured at all.
    pub regressed: Option<(&'static Metric, f64, f64, f64)>,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (app, protocol, nodes) = &self.key;
        write!(f, "{app}/{protocol} @ {nodes} nodes: ")?;
        match self.regressed {
            None => write!(f, "present in baseline but not measured"),
            Some((m, base, now, limit)) => {
                let bound = if m.gate == Gate::Floor {
                    "floor"
                } else {
                    "limit"
                };
                write!(
                    f,
                    "{} regressed {base:.6} -> {now:.6} ({bound} {limit:.6})",
                    m.key
                )
            }
        }
    }
}

/// Compare a freshly measured sweep against a baseline report.
///
/// Returns one [`Finding`] per regression: a gated metric that moved past
/// its [`METRICS`] limit (`tolerance` is relative; the counters get a small
/// absolute slack on top).  Baseline rows with no current counterpart are
/// reported too — a silently dropped benchmark must not pass the gate.
/// Current rows missing from the baseline are fine (new benchmarks land
/// before their baseline is refreshed).
pub fn compare_to_baseline(
    current: &[ReportRow],
    baseline: &[ReportRow],
    tolerance: f64,
) -> Vec<Finding> {
    let measured: HashMap<RowKey, &ReportRow> =
        current.iter().map(|row| (row.key(), row)).collect();

    let mut findings = Vec::new();
    for base in baseline {
        let Some(now) = measured.get(&base.key()) else {
            findings.push(Finding {
                key: base.key(),
                regressed: None,
            });
            continue;
        };
        let serving = base.get("serving_ops") > 0.0;
        for ((m, &base_v), &now_v) in METRICS.iter().zip(&base.values).zip(&now.values) {
            let limit = match m.gate {
                Gate::Ceiling { slack } => base_v * (1.0 + tolerance) + slack,
                Gate::TailCeiling if serving => base_v * 8.0 + 1.0,
                Gate::Floor if serving => base_v * (1.0 - tolerance),
                _ => continue,
            };
            let failed = if m.gate == Gate::Floor {
                now_v < limit
            } else {
                now_v > limit
            };
            if failed {
                findings.push(Finding {
                    key: base.key(),
                    regressed: Some((m, base_v, now_v, limit)),
                });
            }
        }
    }
    findings
}

/// Append `markdown` to the CI job's step summary, so a gate shows its
/// numbers on the run page instead of only an exit code.  Does nothing
/// outside GitHub Actions (`$GITHUB_STEP_SUMMARY` unset or empty).
pub fn append_step_summary(markdown: &str) {
    use std::io::Write as _;
    let Some(path) = std::env::var_os("GITHUB_STEP_SUMMARY").filter(|p| !p.is_empty()) else {
        return;
    };
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
    {
        let _ = f.write_all(markdown.as_bytes());
    }
}

/// Render a measured sweep against its baseline as a GitHub-flavoured
/// markdown table (written to `$GITHUB_STEP_SUMMARY` by the CI gate), so a
/// failing — or passing — bench gate shows its per-app deltas instead of
/// only an exit code.
///
/// One row per (app, protocol, nodes) key of the *current* sweep, with the
/// relative delta of the headline metrics against the baseline envelope and
/// a status column; baseline rows that were not measured at all are listed
/// after the table (they are gate failures).
pub fn markdown_summary(
    current: &[ReportRow],
    baseline: &[ReportRow],
    findings: &[Finding],
) -> String {
    let base: HashMap<RowKey, &ReportRow> = baseline.iter().map(|row| (row.key(), row)).collect();
    let delta = |b: f64, n: f64| -> String {
        if b == 0.0 {
            if n == 0.0 {
                "—".to_string()
            } else {
                format!("+{n:.0}")
            }
        } else {
            format!("{:+.1}%", (n - b) / b * 100.0)
        }
    };
    let mut out = String::new();
    out.push_str("## Bench gate: per-app deltas vs committed baseline\n\n");
    out.push_str(&format!(
        "{} row(s) measured, {} baseline row(s), {} regression(s).\n\n",
        current.len(),
        baseline.len(),
        findings.len()
    ));
    out.push_str(
        "| app | protocol | nodes | exec (s) | Δ exec | page loads | revalidated | patched | kept | Δ loads | Δ loads/epoch | ops/s | p99 (µs) | monitor wait (ms) | status |\n\
         |---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|\n",
    );
    for row in current {
        let key = row.key();
        let b = base.get(&key);
        let status = if findings.iter().any(|f| f.key == key) {
            "❌ regressed"
        } else if b.is_some() {
            "✅"
        } else {
            "🆕 no baseline"
        };
        let versus = |metric: &str| match b {
            Some(b) => delta(b.get(metric), row.get(metric)),
            None => "—".to_string(),
        };
        // Serving rows (KV store, PageRank) additionally show their headline
        // throughput and modeled p99; the batch kernels show "—".
        let serving = |metric: &str, decimals: usize| {
            let now = row.get(metric);
            match b.filter(|b| b.get("serving_ops") > 0.0) {
                _ if row.get("serving_ops") == 0.0 => "—".to_string(),
                Some(b) => format!("{now:.decimals$} ({})", delta(b.get(metric), now)),
                None => format!("{now:.decimals$}"),
            }
        };
        let wait = format!("{:.3}", row.get("monitor_wait_ps") / 1e9);
        out.push_str(&format!(
            "| {} | {} | {} | {:.4} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |\n",
            row.app,
            row.protocol,
            row.nodes,
            row.get("exec_seconds"),
            versus("exec_seconds"),
            row.get("page_loads"),
            row.get("pages_revalidated"),
            row.get("pages_patched"),
            row.get("pages_kept"),
            versus("page_loads"),
            versus("loads_per_epoch"),
            serving("serving_ops_per_s", 0),
            serving("serving_p99_us", 1),
            wait,
            status
        ));
    }
    let dropped: Vec<&Finding> = findings.iter().filter(|f| f.regressed.is_none()).collect();
    if !dropped.is_empty() {
        out.push_str("\n**Baseline rows not measured (gate failures):**\n\n");
        for Finding { key, .. } in dropped {
            out.push_str(&format!("- {}/{} @ {} nodes\n", key.0, key.1, key.2));
        }
    }
    if !findings.is_empty() {
        out.push_str("\n<details><summary>Regression detail</summary>\n\n");
        for f in findings {
            out.push_str(&format!("- {f}\n"));
        }
        out.push_str("\n</details>\n");
    }
    out.push('\n');
    out
}

/// Render the one-page "modeled vs measured" transport report: for every
/// figure row of a socket-backend sweep
/// ([`crate::sweep_modeled_vs_measured`]), the modeled virtual-time RPC cost
/// next to the wall-clock time of the real socket round trips, per RPC
/// service.
///
/// The two columns answer different questions and are *expected* to differ —
/// the modeled span charges the paper's 1999-era Myrinet/SCI cluster while
/// the measured span is a same-host socket hop — so the value of the table
/// is in the *ratios staying stable across apps and services*, which is what
/// shows the cost model ranks the protocols faithfully.
pub fn modeled_vs_measured_markdown(rows: &[FigureRow]) -> String {
    let mut out = String::new();
    out.push_str("## Modeled vs measured: virtual-time cost model against real socket RPCs\n\n");
    if rows.is_empty() {
        out.push_str("_No rows: the sweep produced nothing._\n");
        return out;
    }
    let backend = rows
        .iter()
        .find(|r| !r.wire.is_empty())
        .map(|r| r.transport)
        .unwrap_or(rows[0].transport);
    out.push_str(&format!(
        "Backend: `{}` on `{}`. Modeled µs/RPC is the virtual-time round-trip span charged by \
         the machine model; measured µs/RPC is the wall-clock span of the matching socket \
         exchange on this host.\n\n",
        backend, rows[0].cluster
    ));
    out.push_str(
        "| app | protocol | nodes | service | RPCs | sent (B) | received (B) | modeled µs/RPC | \
         measured µs/RPC | model/wire |\n\
         |---|---|---|---|---|---|---|---|---|---|\n",
    );
    for row in rows {
        if row.wire.is_empty() {
            out.push_str(&format!(
                "| {} | {} | {} | — | 0 | 0 | 0 | — | — | — |\n",
                row.app,
                row.protocol_label(),
                row.nodes
            ));
            continue;
        }
        for (service, w) in &row.wire {
            let modeled = w.modeled_us_per_rpc();
            let measured = w.measured_us_per_rpc();
            let ratio = if measured > 0.0 {
                format!("{:.2}×", modeled / measured)
            } else {
                "—".to_string()
            };
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} | {} | {} | {:.2} | {:.2} | {} |\n",
                row.app,
                row.protocol_label(),
                row.nodes,
                service,
                w.messages,
                w.bytes_sent,
                w.bytes_received,
                modeled,
                measured,
                ratio
            ));
        }
    }
    out.push('\n');
    out
}

/// Render the chaos sweep ([`crate::sweep_chaos`]) as a Markdown report:
/// per (app, protocol), whether the faulted run reproduced the fault-free
/// digest, the virtual-time cost of surviving the schedule, and the fault /
/// recovery counters that explain it.
pub fn chaos_markdown(spec: &str, pairs: &[crate::ChaosPair]) -> String {
    let mut out = String::new();
    out.push_str("## Chaos report: digests and recovery cost under injected faults\n\n");
    if pairs.is_empty() {
        out.push_str("_No rows: the sweep produced nothing._\n");
        return out;
    }
    out.push_str(&format!(
        "Fault schedule: `{}` on `{}` at {} nodes, quorum replication `r=2, w=2`. Every \
         schedule is seeded and exactly replayable. \"digest\" compares the faulted run's \
         result against the fault-free reference — injected drops, delays, duplicate frames \
         and even a node kill may change timing, never values.\n\n",
        spec, pairs[0].baseline.cluster, pairs[0].baseline.nodes
    ));
    out.push_str(
        "| app | protocol | digest | fault-free s | faulted s | overhead | retries | \
         timeouts | drops injected | nodes failed | pages resynced |\n\
         |---|---|---|---|---|---|---|---|---|---|---|\n",
    );
    let mut mismatches = 0usize;
    for pair in pairs {
        let s = &pair.faulted.stats;
        let overhead = if pair.baseline.seconds > 0.0 {
            format!(
                "{:+.1}%",
                (pair.faulted.seconds / pair.baseline.seconds - 1.0) * 100.0
            )
        } else {
            "—".to_string()
        };
        if !pair.digests_match() {
            mismatches += 1;
        }
        out.push_str(&format!(
            "| {} | {} | {} | {:.4} | {:.4} | {} | {} | {} | {} | {} | {} |\n",
            pair.baseline.app,
            pair.baseline.protocol_label(),
            if pair.digests_match() {
                "ok"
            } else {
                "MISMATCH"
            },
            pair.baseline.seconds,
            pair.faulted.seconds,
            overhead,
            s.rpc_retries,
            s.rpc_timeouts,
            s.frames_dropped_injected,
            s.nodes_failed,
            s.pages_resynced,
        ));
    }
    out.push('\n');
    if mismatches == 0 {
        out.push_str("All digests match their fault-free reference.\n");
    } else {
        out.push_str(&format!(
            "**{mismatches} digest mismatch(es): the fault plane corrupted a result.**\n"
        ));
    }
    out
}

// ----- a minimal JSON value + parser ---------------------------------------

/// A parsed JSON value (only what the report schema needs).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, kept as `f64`.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object (member order is not preserved).
    Object(HashMap<String, Json>),
}

impl Json {
    /// Parse a complete JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    /// Member lookup on objects (`None` elsewhere).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The elements of an array (`None` elsewhere).
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The contents of a string (`None` elsewhere).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value (`None` for non-numbers).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, *pos))
    }
}

/// Deepest nesting of arrays and objects the parser follows (a report is 3
/// deep); the parser recurses per level, so unbounded input could overflow
/// the stack.
const MAX_DEPTH: usize = 32;

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    if depth > MAX_DEPTH {
        return Err(format!("nested deeper than {MAX_DEPTH} at byte {}", *pos));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(bytes, pos, depth),
        Some(b'[') => parse_array(bytes, pos, depth),
        Some(b'"') => Ok(Json::String(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: Json,
) -> Result<Json, String> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(format!("malformed literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Number)
        .ok_or_else(|| format!("malformed number at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    other => return Err(format!("unsupported escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy one UTF-8 scalar (the report only emits ASCII, but a
                // hand-edited baseline may not).
                let rest = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| "invalid UTF-8 in string".to_string())?;
                let c = rest.chars().next().expect("non-empty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut map = HashMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Object(map));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth + 1)?;
        map.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Object(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Point, Scale};
    use hyperion::prelude::*;
    use hyperion_apps::common::BenchmarkName;

    #[test]
    fn json_parser_handles_the_report_shapes() {
        let v = Json::parse(
            r#"{"schema": 1, "ok": true, "none": null, "xs": [1, -2.5, "a\"b"], "nested": {"k": 3e2}}"#,
        )
        .unwrap();
        assert_eq!(v.get("schema").and_then(Json::as_f64), Some(1.0));
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(v.get("none"), Some(&Json::Null));
        let xs = v.get("xs").and_then(Json::as_array).unwrap();
        assert_eq!(xs[0].as_f64(), Some(1.0));
        assert_eq!(xs[1].as_f64(), Some(-2.5));
        assert_eq!(xs[2].as_str(), Some("a\"b"));
        assert_eq!(
            v.get("nested")
                .and_then(|n| n.get("k"))
                .and_then(Json::as_f64),
            Some(300.0)
        );
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2] trailing").is_err());
        assert!(Json::parse("").is_err());
        // Nesting is followed 32 levels deep and refused beyond, however
        // deep the input goes: an error, not a stack overflow.
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        for depth in [MAX_DEPTH + 2, 100_000] {
            let e = Json::parse(&"[".repeat(depth)).unwrap_err();
            assert!(e.contains("nested deeper than 32"), "{e}");
            assert!(Json::parse(&nested(depth)).is_err());
        }
    }

    /// `app` on two SCI nodes at quick scale.
    fn sci_point(app: BenchmarkName, protocol: ProtocolKind) -> crate::FigureRow {
        Point {
            cluster: sci_450(),
            nodes: 2,
            ..Point::new(app, Scale::Quick, protocol)
        }
        .run()
    }

    fn sample_rows() -> Vec<ReportRow> {
        [ProtocolKind::JavaIc, ProtocolKind::JavaPf]
            .into_iter()
            .map(|p| ReportRow::from(&sci_point(BenchmarkName::Pi, p)))
            .collect()
    }

    /// A row that is all zeros except for `values`.
    fn row_with(app: &str, protocol: &str, values: &[(&str, f64)]) -> ReportRow {
        let mut row = ReportRow {
            app: app.to_string(),
            protocol: protocol.to_string(),
            cluster: "200MHz/Myrinet".to_string(),
            nodes: 4,
            values: vec![0.0; METRICS.len()],
        };
        for (key, value) in values {
            set(&mut row, key, *value);
        }
        row
    }

    fn set(row: &mut ReportRow, metric: &str, value: f64) {
        row.values[index_of(metric)] = value;
    }

    fn regressed(findings: &[Finding], metric: &str) -> bool {
        findings
            .iter()
            .any(|f| f.regressed.is_some_and(|(m, ..)| m.key == metric))
    }

    #[test]
    fn report_round_trips_through_json() {
        let rows = sample_rows();
        let json = report_to_json("12345", "quick", &rows);
        let parsed = parse_report(&json).unwrap();
        assert_eq!(parsed.len(), rows.len());
        assert_eq!(parsed[0].app, "Pi");
        assert_eq!(parsed[0].protocol, "java_ic");
        assert_eq!(parsed[0].nodes, 2);
        assert_eq!(parsed[0].get("page_loads"), rows[0].get("page_loads"));
        assert!((parsed[0].get("exec_seconds") - rows[0].get("exec_seconds")).abs() < 1e-9);
        assert!((parsed[0].get("loads_per_epoch") - rows[0].get("loads_per_epoch")).abs() < 1e-5);
        // A fresh report never regresses against itself.
        assert!(compare_to_baseline(&rows, &parsed, DEFAULT_TOLERANCE).is_empty());
    }

    #[test]
    fn report_json_is_byte_for_byte_what_the_untabled_writer_wrote() {
        // `bench/report_golden.json` is the output of `report_to_json` as it
        // stood before METRICS (then 31 fields and one format string spelled
        // out by hand): key order, `{:.9}` / `{:.6}` / `{:.3}` formats, string
        // escapes and the trailing-comma rule.  Its first row holds, in the
        // i-th field, i × 9 999 999 937 (a counter) or i × 1.0123456789; a
        // metric added or removed since shifts the later fields.
        let mut kv = row_with("KVStore", "java_pf+dir", &[]);
        for (i, m) in METRICS.iter().enumerate() {
            kv.values[i] = match m.read {
                Read::Counter => (i + 1) as f64 * 9_999_999_937.0,
                _ => (i + 1) as f64 * 1.0123456789,
            };
        }
        let pi = row_with("Pi \"q\"", "java_ic", &[("exec_seconds", 1.5)]);
        assert_eq!(
            report_to_json("golden", "quick", &[kv, pi]),
            include_str!("../../../bench/report_golden.json")
        );
        // The committed baseline still parses, to its 33 rows.
        let baseline = parse_report(include_str!("../../../bench/baseline.json")).unwrap();
        assert_eq!(baseline.len(), 33);
    }

    #[test]
    fn every_counter_metric_names_a_stats_counter() {
        // `From<&FigureRow>` looks counters up by name; a counter renamed in
        // `StatsSnapshot` must fail here, not in a sweep.
        let fields = hyperion::StatsSnapshot::default().fields();
        for m in METRICS {
            let counter = match m.read {
                Read::Counter => m.key,
                Read::PerEpoch(of) => of,
                Read::Row(_) => continue,
            };
            assert!(fields.iter().any(|(name, _)| *name == counter), "{counter}");
        }
        assert_eq!(METRICS.len(), 29);
    }

    #[test]
    fn parse_derives_rates_when_a_baseline_omits_them() {
        let json = r#"{"schema": 1, "rows": [
            {"app": "TSP", "protocol": "java_ic", "nodes": 4, "exec_seconds": 0.01,
             "page_loads": 100, "pages_invalidated": 90, "cache_invalidations": 50}
        ]}"#;
        let rows = parse_report(json).unwrap();
        assert_eq!(rows[0].get("monitor_enters"), 0.0);
        assert!((rows[0].get("loads_per_epoch") - 2.0).abs() < 1e-12);
        assert!((rows[0].get("invalidated_per_epoch") - 1.8).abs() < 1e-12);

        // A baseline is outside input: what is not a count, a finite
        // non-negative number or there at all is refused by row and key.
        for (from, to, key) in [
            ("\"page_loads\": 100", "\"page_loads\": -5", "page_loads"),
            ("\"page_loads\": 100", "\"page_loads\": 1.5", "page_loads"),
            ("\"page_loads\": 100", "\"page_loads\": 1e30", "page_loads"),
            (
                "\"page_loads\": 100",
                "\"page_loads\": \"100\"",
                "page_loads",
            ),
            ("\"page_loads\": 100,", "", "page_loads"),
            ("\"nodes\": 4", "\"nodes\": 4.5", "nodes"),
            ("0.01", "1e999", "exec_seconds"),
            ("0.01", "-0.01", "exec_seconds"),
            (
                "0.01,",
                "0.01, \"serving_p99_us\": 1e999,",
                "serving_p99_us",
            ),
        ] {
            assert!(json.contains(from));
            let e = parse_report(&json.replace(from, to)).unwrap_err();
            assert!(
                e.starts_with("row 0 (TSP/java_ic): ") && e.contains(key),
                "{to}: {e}"
            );
        }
    }

    #[test]
    fn gate_flags_regressions_and_dropped_rows() {
        let rows = sample_rows();
        let mut baseline = parse_report(&report_to_json("x", "quick", &rows)).unwrap();
        // Make the baseline dramatically better than reality.
        let halved = baseline[0].get("exec_seconds") / 2.0;
        set(&mut baseline[0], "exec_seconds", halved);
        set(&mut baseline[0], "page_loads", 0.0);
        let findings = compare_to_baseline(&rows, &baseline, DEFAULT_TOLERANCE);
        assert!(regressed(&findings, "exec_seconds"), "{findings:?}");
        assert!(findings[0].to_string().contains("exec_seconds regressed"));
        // A baseline row the sweep no longer produces is a failure, too.
        baseline.push(row_with("Ghost", "java_ic", &[("exec_seconds", 1.0)]));
        let findings = compare_to_baseline(&rows, &baseline, DEFAULT_TOLERANCE);
        let ghost = findings.iter().find(|f| f.regressed.is_none()).unwrap();
        assert!(ghost.to_string().contains("Ghost/java_ic @ 4 nodes"));
        assert!(ghost.to_string().contains("not measured"));
        // The summary reads each row's status off the findings' keys: the
        // regressed row, not the one next to it.
        let summary = markdown_summary(&rows, &baseline, &findings);
        let status = |protocol: &str| {
            let line = summary.lines().find(|l| l.contains(protocol)).unwrap();
            line.rsplit('|').nth(1).unwrap().trim().to_string()
        };
        assert_eq!(status("| java_ic |"), "❌ regressed");
        assert_eq!(status("| java_pf |"), "✅");
        assert!(summary.contains("- Ghost/java_ic @ 4 nodes\n"));
        // Small counter noise stays under the absolute slack.
        let mut noisy = parse_report(&report_to_json("x", "quick", &rows)).unwrap();
        for row in &mut noisy {
            let fewer = (row.get("page_loads") - 2.0).max(0.0);
            set(row, "page_loads", fewer);
        }
        assert!(compare_to_baseline(&rows, &noisy, DEFAULT_TOLERANCE).is_empty());
    }

    #[test]
    fn serving_gate_tracks_throughput_floor_and_p99_ceiling() {
        let row = sci_point(BenchmarkName::KvStore, ProtocolKind::JavaAd);
        let current = vec![ReportRow::from(&row)];
        assert!(current[0].get("serving_ops") > 0.0);
        assert!(current[0].get("serving_ops_per_s") > 0.0);
        // A KV op that misses a page pays a remote fetch, so the tail is
        // well above the 1 µs absolute slack of the gate.
        assert!(current[0].get("serving_p99_us") > 1.0);

        // The serving fields round-trip through the JSON report and a fresh
        // report never regresses against itself.
        let parsed = parse_report(&report_to_json("x", "quick", &current)).unwrap();
        let close = |metric: &str| (parsed[0].get(metric) - current[0].get(metric)).abs() < 1e-2;
        assert_eq!(parsed[0].get("serving_ops"), current[0].get("serving_ops"));
        assert!(close("serving_ops_per_s") && close("serving_p99_us"));
        assert!(compare_to_baseline(&current, &parsed, DEFAULT_TOLERANCE).is_empty());

        // A baseline with twice the throughput flags the measured drop
        // (higher-is-better: the gate holds a floor)...
        let mut fast = parsed.clone();
        set(
            &mut fast[0],
            "serving_ops_per_s",
            current[0].get("serving_ops_per_s") * 2.0,
        );
        let findings = compare_to_baseline(&current, &fast, DEFAULT_TOLERANCE);
        assert!(regressed(&findings, "serving_ops_per_s"), "{findings:?}");
        assert!(findings[0].to_string().contains("(floor "));
        // ...and a baseline whose tail the measurement blows past the 8x
        // mode-flip ceiling flags the p99 growth.
        let mut tight = parsed.clone();
        set(
            &mut tight[0],
            "serving_p99_us",
            (current[0].get("serving_p99_us") / 16.0 - 1.0).max(0.0),
        );
        let findings = compare_to_baseline(&current, &tight, DEFAULT_TOLERANCE);
        assert!(regressed(&findings, "serving_p99_us"), "{findings:?}");

        // The envelope keeps the *worst* serving numbers: minimum
        // throughput, maximum p99.
        let mut slow = row.clone();
        slow.seconds *= 2.0;
        slow.serving_p99_us *= 2.0;
        let env = envelope(&[vec![row.clone()], vec![slow.clone()]]);
        let slow_row = ReportRow::from(&slow);
        for metric in ["serving_ops_per_s", "serving_p99_us"] {
            assert!((env[0].get(metric) - slow_row.get(metric)).abs() < 1e-9);
        }

        // Batch kernels gate nothing extra: their serving fields are zero.
        let pi = ReportRow::from(&sci_point(BenchmarkName::Pi, ProtocolKind::JavaPf));
        assert_eq!(pi.get("serving_ops"), 0.0);
        assert_eq!(pi.get("serving_ops_per_s"), 0.0);
    }

    #[test]
    fn envelope_rates_cover_every_observed_run() {
        // Two anti-correlated TSP-like draws: run A has the *higher* rate on
        // the *smaller* absolute counts.  An envelope deriving its rate from
        // the independently-maxed counters would sit below run A's rate
        // (120/20 = 6.0 < 10.0) and flag an ordinary re-draw of run A as a
        // regression; the per-run-rate fold must keep the max observed rate.
        let mut a = sci_point(BenchmarkName::Tsp, ProtocolKind::JavaIc);
        let mut b = a.clone();
        a.stats.page_loads = 100;
        a.stats.cache_invalidations = 10;
        b.stats.page_loads = 120;
        b.stats.cache_invalidations = 20;
        let env = envelope(&[vec![a.clone()], vec![b.clone()]]);
        assert_eq!(env[0].get("page_loads"), 120.0);
        assert_eq!(env[0].get("cache_invalidations"), 20.0);
        assert!((env[0].get("loads_per_epoch") - 10.0).abs() < 1e-12);
        // Both original draws pass a gate against the envelope.
        for run in [&a, &b] {
            let current = vec![ReportRow::from(run)];
            let findings = compare_to_baseline(&current, &env, DEFAULT_TOLERANCE);
            assert!(findings.is_empty(), "{findings:?}");
        }
    }

    #[test]
    #[should_panic(expected = "every run must sweep the same rows")]
    fn envelope_refuses_runs_of_different_lengths() {
        let row = sci_point(BenchmarkName::Pi, ProtocolKind::JavaIc);
        envelope(&[vec![row.clone()], vec![row.clone(), row]]);
    }
}
