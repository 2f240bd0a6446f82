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

/// Absolute slack added on top of the relative tolerance for the counter
/// metrics, so tiny baselines (a handful of page loads) do not flag ±1-page
/// scheduling noise as regressions.
const COUNTER_SLACK: f64 = 8.0;

/// One row of a parsed bench report (current or baseline).
#[derive(Clone, Debug, PartialEq)]
pub struct ReportRow {
    /// Benchmark name (`Pi`, `Jacobi`, ...).
    pub app: String,
    /// Protocol name (`java_ic`, `java_pf`, `java_ad`).
    pub protocol: String,
    /// Cluster label (informational).
    pub cluster: String,
    /// Node count of the run.
    pub nodes: u64,
    /// Modeled wall time in virtual seconds.
    pub exec_seconds: f64,
    /// Cluster-wide pages fetched from remote homes.
    pub page_loads: u64,
    /// Informational: the subset of `page_loads` the home answered "not
    /// modified" (retained copy re-opened, no page bytes moved).
    pub pages_revalidated: u64,
    /// Informational: the subset of `page_loads` the home answered with the
    /// slots that changed (retained copy patched, only those slots moved).
    pub pages_patched: u64,
    /// Informational: validation riders sent along with fetches.
    pub validation_riders: u64,
    /// Informational: validated pages opened on first touch without an RPC.
    pub rider_opens: u64,
    /// Cluster-wide pages dropped by cache invalidations.
    pub pages_invalidated: u64,
    /// Cluster-wide cache-invalidation episodes (work-normalisation base).
    pub cache_invalidations: u64,
    /// Cluster-wide monitor acquisitions (informational).
    pub monitor_enters: u64,
    /// Page loads per invalidation epoch, computed on each run's *own* pair
    /// of counters.  Envelopes fold this as the max of per-run rates —
    /// deriving a rate from independently-maxed counters could fall below a
    /// rate some real run produced and flag it as a regression.
    pub loads_per_epoch: f64,
    /// Pages invalidated per invalidation epoch (same per-run pairing).
    pub invalidated_per_epoch: f64,
    /// Informational: page faults taken.
    pub page_faults: u64,
    /// Informational: in-line locality checks performed.
    pub locality_checks: u64,
    /// Informational: `mprotect` calls performed.
    pub mprotect_calls: u64,
    /// Informational: multi-page fetch RPCs issued.
    pub batched_fetches: u64,
    /// Informational: `java_ad` detection-mode switches.
    pub protocol_switches: u64,
    /// Informational: diff RPCs sent at release points.
    pub diff_messages: u64,
    /// Informational: multi-page diff RPCs (batched flushing).
    pub batched_flushes: u64,
    /// Informational: fetch latency cycles hidden by overlapped transport.
    pub fetch_overlap_cycles_hidden: u64,
    /// Informational: stride-prefetch split-transaction fetches issued.
    pub stride_fetches_issued: u64,
    /// Informational: stride fetches completed by a real use.
    pub stride_fetches_completed: u64,
    /// Informational: stride fetches invalidated untouched (wasted).
    pub stride_fetches_wasted: u64,
    /// Informational: release flushes handed to the deferred queue.
    pub deferred_flushes: u64,
    /// Informational: flush latency cycles hidden by deferred release.
    pub flush_overlap_cycles_hidden: u64,
    /// Serving-style operations completed (0 for the batch kernels); when
    /// non-zero, the throughput floor and p99 ceiling below are gated.
    pub serving_ops: u64,
    /// Serving throughput in operations per virtual second.  Tracked
    /// higher-is-better: the gate flags a run *below* the baseline floor,
    /// and envelopes fold it as the *minimum* across runs.
    pub serving_ops_per_s: f64,
    /// Modeled p99 latency of one serving operation in microseconds.
    /// Tracked lower-is-better like the other time metrics.
    pub serving_p99_us: f64,
    /// Informational: utilisation of the busiest home (service time booked
    /// by remote requests over modeled time).
    pub peak_home_util: f64,
    /// Informational: largest per-home queue-wait share (time requests
    /// waited for service over modeled time).
    pub peak_home_queue_wait: f64,
    /// Informational: picoseconds by which monitor acquisitions moved
    /// threads forward to a previous holder's release (real contention).
    pub monitor_wait_ps: u64,
    /// Informational: ordered acquires that went ahead out of virtual-time
    /// order through the admission fuse (0 on a healthy run).
    pub order_escapes: u64,
}

/// Loads (or similar counters) per epoch, with an epoch-free run counting
/// as a single epoch.
fn per_epoch(count: u64, epochs: u64) -> f64 {
    count as f64 / epochs.max(1) as f64
}

impl ReportRow {
    /// The identity of a row inside a report.
    pub fn key(&self) -> (String, String, u64) {
        (self.app.clone(), self.protocol.clone(), self.nodes)
    }
}

impl From<&FigureRow> for ReportRow {
    fn from(row: &FigureRow) -> ReportRow {
        ReportRow {
            app: row.app.to_string(),
            protocol: row.protocol_label(),
            cluster: row.cluster.clone(),
            nodes: row.nodes as u64,
            exec_seconds: row.seconds,
            page_loads: row.stats.page_loads,
            pages_revalidated: row.stats.pages_revalidated,
            pages_patched: row.stats.pages_patched,
            validation_riders: row.stats.validation_riders,
            rider_opens: row.stats.rider_opens,
            pages_invalidated: row.stats.pages_invalidated,
            cache_invalidations: row.stats.cache_invalidations,
            monitor_enters: row.stats.monitor_enters,
            loads_per_epoch: per_epoch(row.stats.page_loads, row.stats.cache_invalidations),
            invalidated_per_epoch: per_epoch(
                row.stats.pages_invalidated,
                row.stats.cache_invalidations,
            ),
            page_faults: row.stats.page_faults,
            locality_checks: row.stats.locality_checks,
            mprotect_calls: row.stats.mprotect_calls,
            batched_fetches: row.stats.batched_fetches,
            protocol_switches: row.stats.protocol_switches,
            diff_messages: row.stats.diff_messages,
            batched_flushes: row.stats.batched_flushes,
            fetch_overlap_cycles_hidden: row.stats.fetch_overlap_cycles_hidden,
            stride_fetches_issued: row.stats.stride_fetches_issued,
            stride_fetches_completed: row.stats.stride_fetches_completed,
            stride_fetches_wasted: row.stats.stride_fetches_wasted,
            deferred_flushes: row.stats.deferred_flushes,
            flush_overlap_cycles_hidden: row.stats.flush_overlap_cycles_hidden,
            serving_ops: row.stats.serving_ops,
            serving_ops_per_s: row.serving_ops_per_s(),
            serving_p99_us: row.serving_p99_us,
            peak_home_util: row.peak_home_util,
            peak_home_queue_wait: row.peak_home_queue_wait,
            monitor_wait_ps: row.stats.monitor_wait_ps,
            order_escapes: row.stats.order_escapes,
        }
    }
}

/// Fold one sweep per run into a per-row *envelope*: every tracked metric
/// keeps its maximum across the runs, and the work-normalised rates keep
/// the maximum of the **per-run** rates (each computed on its own run's
/// counter pair).
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
        for (acc, row) in out.iter_mut().zip(run) {
            let next = ReportRow::from(row);
            assert_eq!(acc.key(), next.key(), "sweep order must be stable");
            acc.exec_seconds = acc.exec_seconds.max(next.exec_seconds);
            acc.page_loads = acc.page_loads.max(next.page_loads);
            acc.pages_revalidated = acc.pages_revalidated.max(next.pages_revalidated);
            acc.pages_patched = acc.pages_patched.max(next.pages_patched);
            acc.validation_riders = acc.validation_riders.max(next.validation_riders);
            acc.rider_opens = acc.rider_opens.max(next.rider_opens);
            acc.pages_invalidated = acc.pages_invalidated.max(next.pages_invalidated);
            acc.cache_invalidations = acc.cache_invalidations.max(next.cache_invalidations);
            acc.monitor_enters = acc.monitor_enters.max(next.monitor_enters);
            acc.loads_per_epoch = acc.loads_per_epoch.max(next.loads_per_epoch);
            acc.invalidated_per_epoch = acc.invalidated_per_epoch.max(next.invalidated_per_epoch);
            acc.page_faults = acc.page_faults.max(next.page_faults);
            acc.locality_checks = acc.locality_checks.max(next.locality_checks);
            acc.mprotect_calls = acc.mprotect_calls.max(next.mprotect_calls);
            acc.batched_fetches = acc.batched_fetches.max(next.batched_fetches);
            acc.protocol_switches = acc.protocol_switches.max(next.protocol_switches);
            acc.diff_messages = acc.diff_messages.max(next.diff_messages);
            acc.batched_flushes = acc.batched_flushes.max(next.batched_flushes);
            acc.fetch_overlap_cycles_hidden = acc
                .fetch_overlap_cycles_hidden
                .max(next.fetch_overlap_cycles_hidden);
            acc.stride_fetches_issued = acc.stride_fetches_issued.max(next.stride_fetches_issued);
            acc.stride_fetches_completed = acc
                .stride_fetches_completed
                .max(next.stride_fetches_completed);
            acc.stride_fetches_wasted = acc.stride_fetches_wasted.max(next.stride_fetches_wasted);
            acc.deferred_flushes = acc.deferred_flushes.max(next.deferred_flushes);
            acc.flush_overlap_cycles_hidden = acc
                .flush_overlap_cycles_hidden
                .max(next.flush_overlap_cycles_hidden);
            acc.serving_ops = acc.serving_ops.max(next.serving_ops);
            // Throughput is higher-is-better, so the worst-case envelope
            // keeps the *minimum* observed rate (the floor the gate holds).
            acc.serving_ops_per_s = acc.serving_ops_per_s.min(next.serving_ops_per_s);
            acc.serving_p99_us = acc.serving_p99_us.max(next.serving_p99_us);
            acc.peak_home_util = acc.peak_home_util.max(next.peak_home_util);
            acc.peak_home_queue_wait = acc.peak_home_queue_wait.max(next.peak_home_queue_wait);
            acc.monitor_wait_ps = acc.monitor_wait_ps.max(next.monitor_wait_ps);
            acc.order_escapes = acc.order_escapes.max(next.order_escapes);
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
            "    {{\"app\": {}, \"protocol\": {}, \"cluster\": {}, \"nodes\": {}, \
             \"exec_seconds\": {:.9}, \"page_loads\": {}, \"pages_revalidated\": {}, \
             \"pages_patched\": {}, \
             \"validation_riders\": {}, \"rider_opens\": {}, \
             \"pages_invalidated\": {}, \
             \"cache_invalidations\": {}, \"monitor_enters\": {}, \
             \"loads_per_epoch\": {:.6}, \"invalidated_per_epoch\": {:.6}, \
             \"page_faults\": {}, \"locality_checks\": {}, \"mprotect_calls\": {}, \
             \"batched_fetches\": {}, \"protocol_switches\": {}, \"diff_messages\": {}, \
             \"batched_flushes\": {}, \
             \"fetch_overlap_cycles_hidden\": {}, \
             \"stride_fetches_issued\": {}, \"stride_fetches_completed\": {}, \
             \"stride_fetches_wasted\": {}, \"deferred_flushes\": {}, \
             \"flush_overlap_cycles_hidden\": {}, \"serving_ops\": {}, \
             \"serving_ops_per_s\": {:.3}, \"serving_p99_us\": {:.3}, \
             \"peak_home_util\": {:.6}, \"peak_home_queue_wait\": {:.6}, \
             \"monitor_wait_ps\": {}, \"order_escapes\": {}}}{}\n",
            quote(&r.app),
            quote(&r.protocol),
            quote(&r.cluster),
            r.nodes,
            r.exec_seconds,
            r.page_loads,
            r.pages_revalidated,
            r.pages_patched,
            r.validation_riders,
            r.rider_opens,
            r.pages_invalidated,
            r.cache_invalidations,
            r.monitor_enters,
            r.loads_per_epoch,
            r.invalidated_per_epoch,
            r.page_faults,
            r.locality_checks,
            r.mprotect_calls,
            r.batched_fetches,
            r.protocol_switches,
            r.diff_messages,
            r.batched_flushes,
            r.fetch_overlap_cycles_hidden,
            r.stride_fetches_issued,
            r.stride_fetches_completed,
            r.stride_fetches_wasted,
            r.deferred_flushes,
            r.flush_overlap_cycles_hidden,
            r.serving_ops,
            r.serving_ops_per_s,
            r.serving_p99_us,
            r.peak_home_util,
            r.peak_home_queue_wait,
            r.monitor_wait_ps,
            r.order_escapes,
            if i + 1 == rows.len() { "" } else { "," },
        ));
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

/// Parse a bench report produced by [`report_to_json`] (or an equivalent
/// hand-maintained baseline file) into its rows.
pub fn parse_report(json: &str) -> Result<Vec<ReportRow>, String> {
    let value = Json::parse(json)?;
    let rows = value
        .get("rows")
        .and_then(Json::as_array)
        .ok_or("report has no \"rows\" array")?;
    rows.iter()
        .map(|row| {
            let counter = |key: &str| row.get(key).and_then(Json::as_f64).map(|v| v as u64);
            let share = |key: &str| row.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            let page_loads = counter("page_loads").ok_or("row missing \"page_loads\"")?;
            let pages_invalidated =
                counter("pages_invalidated").ok_or("row missing \"pages_invalidated\"")?;
            let cache_invalidations =
                counter("cache_invalidations").ok_or("row missing \"cache_invalidations\"")?;
            Ok(ReportRow {
                app: row
                    .get("app")
                    .and_then(Json::as_str)
                    .ok_or("row missing \"app\"")?
                    .to_string(),
                protocol: row
                    .get("protocol")
                    .and_then(Json::as_str)
                    .ok_or("row missing \"protocol\"")?
                    .to_string(),
                cluster: row
                    .get("cluster")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
                nodes: counter("nodes").ok_or("row missing \"nodes\"")?,
                exec_seconds: row
                    .get("exec_seconds")
                    .and_then(Json::as_f64)
                    .ok_or("row missing \"exec_seconds\"")?,
                page_loads,
                pages_revalidated: counter("pages_revalidated").unwrap_or(0),
                pages_patched: counter("pages_patched").unwrap_or(0),
                validation_riders: counter("validation_riders").unwrap_or(0),
                rider_opens: counter("rider_opens").unwrap_or(0),
                pages_invalidated,
                cache_invalidations,
                monitor_enters: counter("monitor_enters").unwrap_or(0),
                // Rate fields may be absent in hand-maintained baselines;
                // fall back to the row's own counter pair.
                loads_per_epoch: row
                    .get("loads_per_epoch")
                    .and_then(Json::as_f64)
                    .unwrap_or_else(|| per_epoch(page_loads, cache_invalidations)),
                invalidated_per_epoch: row
                    .get("invalidated_per_epoch")
                    .and_then(Json::as_f64)
                    .unwrap_or_else(|| per_epoch(pages_invalidated, cache_invalidations)),
                page_faults: counter("page_faults").unwrap_or(0),
                locality_checks: counter("locality_checks").unwrap_or(0),
                mprotect_calls: counter("mprotect_calls").unwrap_or(0),
                batched_fetches: counter("batched_fetches").unwrap_or(0),
                protocol_switches: counter("protocol_switches").unwrap_or(0),
                diff_messages: counter("diff_messages").unwrap_or(0),
                batched_flushes: counter("batched_flushes").unwrap_or(0),
                fetch_overlap_cycles_hidden: counter("fetch_overlap_cycles_hidden").unwrap_or(0),
                stride_fetches_issued: counter("stride_fetches_issued").unwrap_or(0),
                stride_fetches_completed: counter("stride_fetches_completed").unwrap_or(0),
                stride_fetches_wasted: counter("stride_fetches_wasted").unwrap_or(0),
                deferred_flushes: counter("deferred_flushes").unwrap_or(0),
                flush_overlap_cycles_hidden: counter("flush_overlap_cycles_hidden").unwrap_or(0),
                serving_ops: counter("serving_ops").unwrap_or(0),
                serving_ops_per_s: share("serving_ops_per_s"),
                serving_p99_us: share("serving_p99_us"),
                peak_home_util: share("peak_home_util"),
                peak_home_queue_wait: share("peak_home_queue_wait"),
                monitor_wait_ps: counter("monitor_wait_ps").unwrap_or(0),
                order_escapes: counter("order_escapes").unwrap_or(0),
            })
        })
        .collect()
}

/// Compare a freshly measured sweep against a baseline report.
///
/// Returns one human-readable line per regression: a tracked metric that
/// grew by more than `tolerance` (relative, plus a small absolute slack for
/// the counters).  Baseline rows with no current counterpart are reported
/// too — a silently dropped benchmark must not pass the gate.  Current rows
/// missing from the baseline are fine (new benchmarks land before their
/// baseline is refreshed).
pub fn compare_to_baseline(
    current: &[ReportRow],
    baseline: &[ReportRow],
    tolerance: f64,
) -> Vec<String> {
    let measured: HashMap<(String, String, u64), &ReportRow> =
        current.iter().map(|row| (row.key(), row)).collect();

    let mut regressions = Vec::new();
    for base in baseline {
        let Some(now) = measured.get(&base.key()) else {
            regressions.push(format!(
                "{}/{} @ {} nodes: present in baseline but not measured",
                base.app, base.protocol, base.nodes
            ));
            continue;
        };
        let mut flag = |metric: &str, base_v: f64, now_v: f64, limit: f64| {
            if now_v > limit {
                regressions.push(format!(
                    "{}/{} @ {} nodes: {} regressed {:.6} -> {:.6} (limit {:.6})",
                    base.app, base.protocol, base.nodes, metric, base_v, now_v, limit
                ));
            }
        };
        // Every app is held to the same bounds.  TSP and Barnes-Hut used to
        // be a class of their own (work-normalised rates plus a 3× ceiling
        // on the absolute numbers): how much of the search a worker explored
        // depended on which thread the host let dequeue first.  With the
        // queue and the chunk counter granted in virtual-time order their
        // rows stay inside the ordinary tolerance (20 of 20 gate runs).
        flag(
            "page_loads",
            base.page_loads as f64,
            now.page_loads as f64,
            base.page_loads as f64 * (1.0 + tolerance) + COUNTER_SLACK,
        );
        flag(
            "pages_invalidated",
            base.pages_invalidated as f64,
            now.pages_invalidated as f64,
            base.pages_invalidated as f64 * (1.0 + tolerance) + COUNTER_SLACK,
        );
        flag(
            "exec_seconds",
            base.exec_seconds,
            now.exec_seconds,
            base.exec_seconds * (1.0 + tolerance),
        );
        if base.serving_ops > 0 {
            // Serving rows additionally gate the two serving headline
            // metrics.  p99 is lower-is-better, but it is a tail statistic —
            // the 10th-worst op of a kilo-op quick run — and sits right at
            // the adaptive protocol's fault-vs-check boundary, so between
            // runs it flips modes by several-fold.  The gate therefore holds
            // an 8x blow-up ceiling (plus 1 µs for tiny baselines): mode
            // flips pass, a runaway tail (retry storms, flapping pages)
            // still fails.  Throughput is higher-is-better, so the
            // regression direction flips — the gate holds a *floor* under
            // the measured rate.
            flag(
                "serving_p99_us",
                base.serving_p99_us,
                now.serving_p99_us,
                base.serving_p99_us * 8.0 + 1.0,
            );
            let floor = base.serving_ops_per_s * (1.0 - tolerance);
            if now.serving_ops_per_s < floor {
                regressions.push(format!(
                    "{}/{} @ {} nodes: serving_ops_per_s regressed {:.1} -> {:.1} (floor {:.1})",
                    base.app,
                    base.protocol,
                    base.nodes,
                    base.serving_ops_per_s,
                    now.serving_ops_per_s,
                    floor
                ));
            }
        }
    }
    regressions
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
    regressions: &[String],
) -> String {
    let base: HashMap<(String, String, u64), &ReportRow> =
        baseline.iter().map(|row| (row.key(), row)).collect();
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
        regressions.len()
    ));
    // Serving rows (KV store, PageRank) additionally show their headline
    // throughput and modeled p99; the batch kernels show "—".
    let serving = |row: &ReportRow, b: Option<&&ReportRow>| -> (String, String) {
        if row.serving_ops == 0 {
            return ("—".to_string(), "—".to_string());
        }
        let ops = match b.filter(|b| b.serving_ops > 0) {
            Some(b) => format!(
                "{:.0} ({})",
                row.serving_ops_per_s,
                delta(b.serving_ops_per_s, row.serving_ops_per_s)
            ),
            None => format!("{:.0}", row.serving_ops_per_s),
        };
        let p99 = match b.filter(|b| b.serving_ops > 0) {
            Some(b) => format!(
                "{:.1} ({})",
                row.serving_p99_us,
                delta(b.serving_p99_us, row.serving_p99_us)
            ),
            None => format!("{:.1}", row.serving_p99_us),
        };
        (ops, p99)
    };
    out.push_str(
        "| app | protocol | nodes | exec (s) | Δ exec | page loads | revalidated | patched | riders (opened) | Δ loads | Δ loads/epoch | ops/s | p99 (µs) | monitor wait (ms) | status |\n\
         |---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|\n",
    );
    for row in current {
        let key = row.key();
        let status = if regressions.iter().any(|r| {
            r.starts_with(&format!(
                "{}/{} @ {} nodes",
                row.app, row.protocol, row.nodes
            ))
        }) {
            "❌ regressed"
        } else if base.contains_key(&key) {
            "✅"
        } else {
            "🆕 no baseline"
        };
        let (ops_cell, p99_cell) = serving(row, base.get(&key));
        // Out-of-order acquires (the admission fuse) are shown only when
        // there are some: a healthy run has none.
        let wait_cell = match row.order_escapes {
            0 => format!("{:.3}", row.monitor_wait_ps as f64 / 1e9),
            n => format!("{:.3} (⚠ {n} escapes)", row.monitor_wait_ps as f64 / 1e9),
        };
        match base.get(&key) {
            Some(b) => out.push_str(&format!(
                "| {} | {} | {} | {:.4} | {} | {} | {} | {} | {} ({}) | {} | {} | {} | {} | {} | {} |\n",
                row.app,
                row.protocol,
                row.nodes,
                row.exec_seconds,
                delta(b.exec_seconds, row.exec_seconds),
                row.page_loads,
                row.pages_revalidated,
                row.pages_patched,
                row.validation_riders,
                row.rider_opens,
                delta(b.page_loads as f64, row.page_loads as f64),
                delta(b.loads_per_epoch, row.loads_per_epoch),
                ops_cell,
                p99_cell,
                wait_cell,
                status
            )),
            None => out.push_str(&format!(
                "| {} | {} | {} | {:.4} | — | {} | {} | {} | {} ({}) | — | — | {} | {} | {} | {} |\n",
                row.app,
                row.protocol,
                row.nodes,
                row.exec_seconds,
                row.page_loads,
                row.pages_revalidated,
                row.pages_patched,
                row.validation_riders,
                row.rider_opens,
                ops_cell,
                p99_cell,
                wait_cell,
                status
            )),
        }
    }
    let measured: HashMap<(String, String, u64), &ReportRow> =
        current.iter().map(|row| (row.key(), row)).collect();
    let dropped: Vec<&ReportRow> = baseline
        .iter()
        .filter(|b| !measured.contains_key(&b.key()))
        .collect();
    if !dropped.is_empty() {
        out.push_str("\n**Baseline rows not measured (gate failures):**\n\n");
        for b in dropped {
            out.push_str(&format!("- {}/{} @ {} nodes\n", b.app, b.protocol, b.nodes));
        }
    }
    if !regressions.is_empty() {
        out.push_str("\n<details><summary>Regression detail</summary>\n\n");
        for r in regressions {
            out.push_str(&format!("- {r}\n"));
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
        let value = parse_value(bytes, &mut pos)?;
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

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
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

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
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

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
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
        let value = parse_value(bytes, pos)?;
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
    use crate::{run_point, Scale};
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
    }

    fn sample_rows() -> Vec<ReportRow> {
        [ProtocolKind::JavaIc, ProtocolKind::JavaPf]
            .into_iter()
            .map(|p| {
                ReportRow::from(&run_point(
                    BenchmarkName::Pi,
                    Scale::Quick,
                    &sci_450(),
                    p,
                    2,
                ))
            })
            .collect()
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
        assert_eq!(parsed[0].page_loads, rows[0].page_loads);
        assert!((parsed[0].exec_seconds - rows[0].exec_seconds).abs() < 1e-9);
        assert!((parsed[0].loads_per_epoch - rows[0].loads_per_epoch).abs() < 1e-5);
        // A fresh report never regresses against itself.
        assert!(compare_to_baseline(&rows, &parsed, DEFAULT_TOLERANCE).is_empty());
    }

    #[test]
    fn parse_derives_rates_when_a_baseline_omits_them() {
        let json = r#"{"schema": 1, "rows": [
            {"app": "TSP", "protocol": "java_ic", "nodes": 4, "exec_seconds": 0.01,
             "page_loads": 100, "pages_invalidated": 90, "cache_invalidations": 50}
        ]}"#;
        let rows = parse_report(json).unwrap();
        assert_eq!(rows[0].monitor_enters, 0);
        assert!((rows[0].loads_per_epoch - 2.0).abs() < 1e-12);
        assert!((rows[0].invalidated_per_epoch - 1.8).abs() < 1e-12);
    }

    #[test]
    fn gate_flags_regressions_and_dropped_rows() {
        let rows = sample_rows();
        let mut baseline = parse_report(&report_to_json("x", "quick", &rows)).unwrap();
        // Make the baseline dramatically better than reality.
        baseline[0].exec_seconds /= 2.0;
        baseline[0].page_loads = 0;
        let findings = compare_to_baseline(&rows, &baseline, DEFAULT_TOLERANCE);
        assert!(
            findings.iter().any(|f| f.contains("exec_seconds")),
            "{findings:?}"
        );
        // A baseline row the sweep no longer produces is a failure, too.
        baseline.push(ReportRow {
            app: "Ghost".to_string(),
            protocol: "java_ic".to_string(),
            cluster: String::new(),
            nodes: 2,
            exec_seconds: 1.0,
            page_loads: 1,
            pages_revalidated: 0,
            pages_patched: 0,
            validation_riders: 0,
            rider_opens: 0,
            pages_invalidated: 1,
            cache_invalidations: 1,
            monitor_enters: 1,
            loads_per_epoch: 1.0,
            invalidated_per_epoch: 1.0,
            page_faults: 0,
            locality_checks: 0,
            mprotect_calls: 0,
            batched_fetches: 0,
            protocol_switches: 0,
            diff_messages: 0,
            batched_flushes: 0,
            fetch_overlap_cycles_hidden: 0,
            stride_fetches_issued: 0,
            stride_fetches_completed: 0,
            stride_fetches_wasted: 0,
            deferred_flushes: 0,
            flush_overlap_cycles_hidden: 0,
            serving_ops: 0,
            serving_ops_per_s: 0.0,
            serving_p99_us: 0.0,
            peak_home_util: 0.0,
            peak_home_queue_wait: 0.0,
            monitor_wait_ps: 0,
            order_escapes: 0,
        });
        let findings = compare_to_baseline(&rows, &baseline, DEFAULT_TOLERANCE);
        assert!(findings.iter().any(|f| f.contains("not measured")));
        // Small counter noise stays under the absolute slack.
        let mut noisy = parse_report(&report_to_json("x", "quick", &rows)).unwrap();
        for row in &mut noisy {
            row.page_loads = row.page_loads.saturating_sub(2);
        }
        assert!(compare_to_baseline(&rows, &noisy, DEFAULT_TOLERANCE).is_empty());
    }

    #[test]
    fn serving_gate_tracks_throughput_floor_and_p99_ceiling() {
        let row = run_point(
            BenchmarkName::KvStore,
            Scale::Quick,
            &sci_450(),
            ProtocolKind::JavaAd,
            2,
        );
        let current = vec![ReportRow::from(&row)];
        assert!(current[0].serving_ops > 0);
        assert!(current[0].serving_ops_per_s > 0.0);
        // A KV op that misses a page pays a remote fetch, so the tail is
        // well above the 1 µs absolute slack of the gate.
        assert!(current[0].serving_p99_us > 1.0);

        // The serving fields round-trip through the JSON report and a fresh
        // report never regresses against itself.
        let parsed = parse_report(&report_to_json("x", "quick", &current)).unwrap();
        assert_eq!(parsed[0].serving_ops, current[0].serving_ops);
        assert!((parsed[0].serving_ops_per_s - current[0].serving_ops_per_s).abs() < 1e-2);
        assert!((parsed[0].serving_p99_us - current[0].serving_p99_us).abs() < 1e-2);
        assert!(compare_to_baseline(&current, &parsed, DEFAULT_TOLERANCE).is_empty());

        // A baseline with twice the throughput flags the measured drop
        // (higher-is-better: the gate holds a floor)...
        let mut fast = parsed.clone();
        fast[0].serving_ops_per_s = current[0].serving_ops_per_s * 2.0;
        let findings = compare_to_baseline(&current, &fast, DEFAULT_TOLERANCE);
        assert!(
            findings.iter().any(|f| f.contains("serving_ops_per_s")),
            "{findings:?}"
        );
        // ...and a baseline whose tail the measurement blows past the 8x
        // mode-flip ceiling flags the p99 growth.
        let mut tight = parsed.clone();
        tight[0].serving_p99_us = (current[0].serving_p99_us / 16.0 - 1.0).max(0.0);
        let findings = compare_to_baseline(&current, &tight, DEFAULT_TOLERANCE);
        assert!(
            findings.iter().any(|f| f.contains("serving_p99_us")),
            "{findings:?}"
        );

        // The envelope keeps the *worst* serving numbers: minimum
        // throughput, maximum p99.
        let mut slow = row.clone();
        slow.seconds *= 2.0;
        slow.serving_p99_us *= 2.0;
        let env = envelope(&[vec![row.clone()], vec![slow.clone()]]);
        let slow_row = ReportRow::from(&slow);
        assert!((env[0].serving_ops_per_s - slow_row.serving_ops_per_s).abs() < 1e-9);
        assert!((env[0].serving_p99_us - slow_row.serving_p99_us).abs() < 1e-9);

        // Batch kernels gate nothing extra: their serving fields are zero.
        let pi = ReportRow::from(&run_point(
            BenchmarkName::Pi,
            Scale::Quick,
            &sci_450(),
            ProtocolKind::JavaPf,
            2,
        ));
        assert_eq!(pi.serving_ops, 0);
        assert_eq!(pi.serving_ops_per_s, 0.0);
    }

    #[test]
    fn envelope_rates_cover_every_observed_run() {
        // Two anti-correlated TSP-like draws: run A has the *higher* rate on
        // the *smaller* absolute counts.  An envelope deriving its rate from
        // the independently-maxed counters would sit below run A's rate
        // (120/20 = 6.0 < 10.0) and flag an ordinary re-draw of run A as a
        // regression; the per-run-rate fold must keep the max observed rate.
        let mut a = run_point(
            BenchmarkName::Tsp,
            Scale::Quick,
            &sci_450(),
            ProtocolKind::JavaIc,
            2,
        );
        let mut b = a.clone();
        a.stats.page_loads = 100;
        a.stats.cache_invalidations = 10;
        b.stats.page_loads = 120;
        b.stats.cache_invalidations = 20;
        let env = envelope(&[vec![a.clone()], vec![b.clone()]]);
        assert_eq!(env[0].page_loads, 120);
        assert_eq!(env[0].cache_invalidations, 20);
        assert!((env[0].loads_per_epoch - 10.0).abs() < 1e-12);
        // Both original draws pass a gate against the envelope.
        for run in [&a, &b] {
            let current = vec![ReportRow::from(run)];
            let findings = compare_to_baseline(&current, &env, DEFAULT_TOLERANCE);
            assert!(findings.is_empty(), "{findings:?}");
        }
    }
}
