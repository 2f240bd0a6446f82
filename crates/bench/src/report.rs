//! The CI bench report: JSON emission and the exact baseline gate.
//!
//! The CI pipeline runs `figures --quick --json`, which sweeps the five
//! apps under both protocols (plus the serving rows), writes the tracked
//! metrics to `BENCH_<run>.json` and —
//! when `--baseline bench/baseline.json` is given — fails the build unless
//! every row of the committed baseline is, byte for byte, the row the sweep
//! just wrote.  Modeled time and counters are a pure function of the
//! program and its seed, so a sweep repeats to the last digit: the baseline
//! *is* a run, and a row that differs is a change its PR commits (by
//! regenerating the baseline), never noise.
//!
//! Nothing is parsed.  A row is one line of text; a mismatch is explained
//! by splitting both lines on `", "` into their `"key": value` fields, so a
//! malformed baseline cannot pass a gate — it only differs.

use crate::FigureRow;

/// How a tracked metric's value is read off a [`FigureRow`].
#[derive(Clone, Copy, Debug)]
enum Read {
    /// The [`hyperion::StatsSnapshot`] counter named by the metric's key,
    /// written as an integer.
    Counter,
    /// Computed from the row, written with this many decimals.
    Row(usize, fn(&FigureRow) -> f64),
}

/// One tracked metric of the bench report.  [`METRICS`] is the only place a
/// metric is spelled out: the JSON writer is a loop over it.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// JSON key (for counters also the `StatsSnapshot` field name).
    pub key: &'static str,
    read: Read,
}

impl Metric {
    const fn counter(key: &'static str) -> Metric {
        Metric {
            key,
            read: Read::Counter,
        }
    }

    const fn of_row(key: &'static str, decimals: usize, read: fn(&FigureRow) -> f64) -> Metric {
        Metric {
            key,
            read: Read::Row(decimals, read),
        }
    }
}

/// Every tracked metric, in the order `BENCH_<run>.json` writes them.  To
/// add a counter to the report: one line here (and a regenerated baseline).
pub static METRICS: &[Metric] = &[
    Metric::of_row("exec_seconds", 9, |r| r.seconds),
    Metric::counter("page_loads"),
    Metric::counter("pages_revalidated"),
    Metric::counter("pages_patched"),
    Metric::counter("pages_kept"),
    Metric::counter("pages_invalidated"),
    Metric::counter("cache_invalidations"),
    Metric::counter("monitor_enters"),
    Metric::counter("page_faults"),
    Metric::counter("locality_checks"),
    Metric::counter("mprotect_calls"),
    Metric::counter("diff_messages"),
    Metric::counter("batched_flushes"),
    Metric::counter("fetch_overlap_cycles_hidden"),
    Metric::counter("stride_fetches_issued"),
    Metric::counter("stride_fetches_completed"),
    Metric::counter("stride_fetches_wasted"),
    Metric::counter("deferred_flushes"),
    // Non-zero on the serving rows (KV store, PageRank) only.
    Metric::counter("serving_ops"),
    Metric::of_row("serving_ops_per_s", 3, FigureRow::serving_ops_per_s),
    Metric::of_row("serving_p99_us", 3, |r| r.serving_p99_us),
    Metric::of_row("peak_home_util", 6, |r| r.peak_home_util),
    Metric::of_row("peak_home_queue_wait", 6, |r| r.peak_home_queue_wait),
    Metric::counter("monitor_wait_ps"),
];

/// One row of the report, as one line of JSON: the row's identity, then one
/// field per entry of [`METRICS`].
fn row_json(row: &FigureRow) -> String {
    let counters = row.stats.fields();
    let mut out = format!(
        "{{\"app\": {}, \"protocol\": {}, \"cluster\": {}, \"nodes\": {}",
        quote(&row.app.to_string()),
        quote(&row.protocol_label()),
        quote(&row.cluster),
        row.nodes,
    );
    for m in METRICS {
        match m.read {
            Read::Counter => {
                let (_, count) = counters
                    .iter()
                    .find(|(name, _)| *name == m.key)
                    .unwrap_or_else(|| {
                        panic!("METRICS names `{}`, which is no stats counter", m.key)
                    });
                out.push_str(&format!(", \"{}\": {count}", m.key));
            }
            Read::Row(decimals, read) => {
                out.push_str(&format!(", \"{}\": {:.*}", m.key, decimals, read(row)));
            }
        }
    }
    out.push('}');
    out
}

/// Serialise a sweep as the bench report: a header (schema, `run`, `scale`)
/// and one row per line.  `run` labels the producing CI run (the workflow
/// passes `GITHUB_RUN_ID`); the gate compares the row lines only.
pub fn report_to_json(run: &str, scale: &str, rows: &[FigureRow]) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|r| format!("    {}", row_json(r)))
        .collect();
    format!(
        "{{\n  \"schema\": 2,\n  \"run\": {},\n  \"scale\": {},\n  \"rows\": [\n{}\n  ]\n}}\n",
        quote(run),
        quote(scale),
        rows.join(",\n")
    )
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

/// The row lines of a report (indentation and trailing comma stripped),
/// each with its key `app/protocol @ N nodes`.  A line that does not open
/// with `{"app": ` is no row.
fn rows(report: &str) -> Vec<(String, &str)> {
    report
        .lines()
        .map(|line| line.trim().trim_end_matches(','))
        .filter(|line| line.starts_with("{\"app\": "))
        .map(|line| {
            let key = format!(
                "{}/{} @ {} nodes",
                value(line, "\"app\"").unwrap_or("?").trim_matches('"'),
                value(line, "\"protocol\"").unwrap_or("?").trim_matches('"'),
                value(line, "\"nodes\"").unwrap_or("?"),
            );
            (key, line)
        })
        .collect()
}

/// A row line's `("key", value)` fields, split on `", "`.
fn fields(line: &str) -> impl Iterator<Item = (&str, &str)> {
    line.trim_start_matches('{')
        .trim_end_matches('}')
        .split(", ")
        .map(|field| field.split_once(": ").unwrap_or((field, "")))
}

/// The value of the field called `name` (quoted) in a row line.
fn value<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    fields(line).find(|(n, _)| *n == name).map(|(_, v)| v)
}

/// `key: old → new` for every field two row lines disagree on (`—` where
/// only one side has the field).
fn changed_fields(old: &str, new: &str) -> Vec<String> {
    let new_names = fields(new).map(|(name, _)| name);
    let old_only = fields(old)
        .map(|(name, _)| name)
        .filter(|&name| value(new, name).is_none());
    let mut changed: Vec<String> = new_names
        .chain(old_only)
        .filter_map(|name| {
            let (then, now) = (value(old, name), value(new, name));
            (then != now).then(|| {
                let (then, now) = (then.unwrap_or("—"), now.unwrap_or("—"));
                format!("{}: {then} → {now}", name.trim_matches('"'))
            })
        })
        .collect();
    if changed.is_empty() {
        // Same fields and values, other bytes: reordered or repeated fields.
        changed.push(format!("same fields, other bytes: {old}"));
    }
    changed
}

/// Compare the report a sweep just wrote against the committed baseline.
///
/// Returns one finding per row that is not byte for byte the same on both
/// sides (naming the row and each changed field), per measured row the
/// baseline lacks and per baseline row the sweep no longer produces.  No
/// findings: the gate passes.  Header lines (`run`, `scale`, ...) are not
/// compared.
pub fn compare_to_baseline(measured: &str, baseline: &str) -> Vec<String> {
    let mut unmatched = rows(baseline);
    let mut findings = Vec::new();
    for (key, now) in rows(measured) {
        let Some(i) = unmatched.iter().position(|(k, _)| *k == key) else {
            findings.push(format!("{key}: measured, not in the baseline"));
            continue;
        };
        let (_, then) = unmatched.remove(i);
        if then != now {
            findings.push(format!("{key}: {}", changed_fields(then, now).join(", ")));
        }
    }
    findings.extend(
        unmatched
            .into_iter()
            .map(|(key, _)| format!("{key}: in the baseline, not measured")),
    );
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
        "Fault schedule: `{}` on `{}` at {} nodes; a killed home's pages move to the \
         lowest-id live node. Every schedule is seeded and exactly replayable. \"digest\" \
         compares the faulted run's result against the fault-free reference — injected \
         drops, delays, duplicate frames and even a node kill may change timing, never \
         values.\n\n",
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Point, Scale};
    use hyperion::prelude::*;
    use hyperion_apps::common::BenchmarkName;

    /// Pinned to the quick sweep by the root package's
    /// `pins::report_rows_are_byte_for_byte_the_committed_baseline`.
    const BASELINE: &str = include_str!("../../../bench/baseline.json");

    #[test]
    fn report_round_trips_through_json() {
        // The gate reads a row back by splitting it on `", "`: every row the
        // writer emits must split into its identity and one field per metric.
        let pi = |protocol| {
            let point = Point::new(BenchmarkName::Pi, Scale::Quick, protocol);
            Point { nodes: 5, ..point }.run()
        };
        let json = report_to_json(
            "12345",
            "quick",
            &[pi(ProtocolKind::JavaIc), pi(ProtocolKind::JavaPf)],
        );
        let names: Vec<String> = ["app", "protocol", "cluster", "nodes"]
            .into_iter()
            .chain(METRICS.iter().map(|m| m.key))
            .map(|name| format!("\"{name}\""))
            .collect();
        let read = rows(&json);
        let keys: Vec<&str> = read.iter().map(|(key, _)| key.as_str()).collect();
        assert_eq!(keys, ["Pi/java_ic @ 5 nodes", "Pi/java_pf @ 5 nodes"]);
        for (key, line) in read.into_iter().chain(rows(BASELINE)) {
            let split: Vec<&str> = fields(line).map(|(name, _)| name).collect();
            assert_eq!(split, names, "{key}");
            assert!(fields(line).all(|(_, value)| !value.is_empty()), "{key}");
        }
        assert!(compare_to_baseline(&json, &json).is_empty());
        // Strings are written as JSON strings.
        assert_eq!(quote("Pi \"q\""), r#""Pi \"q\"""#);
        assert_eq!(quote("a\\b\nc"), r#""a\\b\nc""#);
    }

    #[test]
    fn gate_flags_regressions_and_dropped_rows() {
        // The header is no part of the gate: a CI run labels its report
        // with its run id.
        let ci = BASELINE.replacen("\"run\": \"local\"", "\"run\": \"12345\"", 1);
        assert_ne!(ci, BASELINE);
        assert!(compare_to_baseline(&ci, BASELINE).is_empty());
        // The committed baseline stands in for a fresh sweep (the pin holds
        // them equal); each edit of it must fail, naming the row.
        let (key, row) = rows(BASELINE)[3].clone();
        let loads = value(row, "\"page_loads\"").unwrap();
        let field = format!("\"page_loads\": {loads},");
        let edited = row.replacen(&field, &format!("\"page_loads\": {loads}0,"), 1);
        let ghost = "{\"app\": \"Ghost\", \"protocol\": \"java_ic\", \"nodes\": 4}";
        for (baseline, finding) in [
            (
                BASELINE.replacen(row, &edited, 1),
                format!("{key}: page_loads: {loads}0 → {loads}"),
            ),
            (
                BASELINE.replacen(&format!("{row},\n"), "", 1),
                format!("{key}: measured, not in the baseline"),
            ),
            (
                BASELINE.replacen("[\n", &format!("[\n    {ghost},\n"), 1),
                "Ghost/java_ic @ 4 nodes: in the baseline, not measured".to_string(),
            ),
            // A malformed row is no row: it cannot pass, it only differs.
            (
                BASELINE.replacen(row, &row.replacen("\"app\": ", "\"app\" ", 1), 1),
                format!("{key}: measured, not in the baseline"),
            ),
        ] {
            assert_ne!(baseline, BASELINE);
            assert_eq!(compare_to_baseline(BASELINE, &baseline), vec![finding]);
        }
        // Fields are matched by name: one the baseline lacks, or in another
        // order, still fails.
        let fewer = row.replacen(&format!(", {}", &field[..field.len() - 1]), "", 1);
        assert_eq!(
            changed_fields(&fewer, row),
            vec![format!("page_loads: — → {loads}")]
        );
        let swapped = "{\"nodes\": 4, \"app\": \"Ghost\"}";
        assert_eq!(
            changed_fields(swapped, "{\"app\": \"Ghost\", \"nodes\": 4}").len(),
            1
        );
    }

    #[test]
    fn every_counter_metric_names_a_stats_counter() {
        // `row_json` looks counters up by name; a counter renamed in
        // `StatsSnapshot` must fail here, not in a sweep.
        let fields = hyperion::StatsSnapshot::default().fields();
        for m in METRICS {
            if let Read::Counter = m.read {
                assert!(fields.iter().any(|(name, _)| *name == m.key), "{}", m.key);
            }
        }
        assert_eq!(METRICS.len(), 24);
    }
}
