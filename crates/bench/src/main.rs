//! `figures` — regenerate every table and figure of the paper, plus the
//! adaptive-protocol comparison and the CI bench report.
//!
//! ```text
//! figures [--fig N]... [--tables] [--claims] [--scale quick|harness|paper]
//!         [--quick] [--json] [--baseline PATH] [--out DIR]
//!         [--transport sim|socket|tcp] [--fault SPEC] [--audit] [--runs N]
//! ```
//!
//! * `--fig N`     regenerate figure N (1–5 from the paper, 6 for the
//!   ic/pf/ad adaptive comparison, 7 for the split-transaction transport,
//!   8 for deferred release flushing, 9 for the serving
//!   workloads: Zipf-skewed KV store and PageRank with throughput and
//!   modeled p99 per operation); may be repeated.  Default: all of 1–5.
//! * `--tables`    print Table 1 (module inventory) and Table 2 (primitives).
//! * `--claims`    print the derived `java_ic` → `java_pf` improvements that
//!   correspond to the quantitative claims of §4.3.
//! * `--scale`     problem-size scale (default `harness`).
//! * `--quick`     shorthand for `--scale quick` (the CI invocation).
//! * `--json`      run the CI-tracked sweep (five apps × three protocols,
//!   the figure 7–8 transport variants and the figure-9 serving rows with
//!   their throughput/p99 fields) and write it to `BENCH_<run>.json`
//!   (`<run>` is `$GITHUB_RUN_ID`, or `local`).
//! * `--baseline PATH` compare the CI-tracked sweep against a committed
//!   baseline report and exit non-zero if a tracked metric (modeled wall
//!   time, page loads, invalidated pages) regressed more than 10%; the
//!   per-app delta table is appended to `$GITHUB_STEP_SUMMARY` when that
//!   variable is set.
//! * `--runs N`    repeat the CI-tracked sweep N times and report the
//!   per-row envelope (max of each tracked metric) — used when refreshing
//!   `bench/baseline.json` so the dynamically scheduled apps' run-to-run
//!   spread is captured.  With `--audit`: runs per cell (default 5).
//! * `--audit`     the keep-or-cut audit: every app × protocol × transport
//!   preset that exists at this commit, median / min / max modeled seconds
//!   plus `page_loads` and the stride-prefetch counters per cell.  Run it
//!   at two commits to compare them; nothing in the product switches
//!   between the two sides.
//! * `--out DIR`   additionally write one CSV per figure into DIR.
//! * `--transport B` run the modeled-vs-measured sweep with every RPC
//!   carried by backend B (`socket` = per-node Unix-domain socket servers,
//!   `tcp` = localhost TCP, `sim` = the in-process cost model) and print a
//!   one-page report of modeled virtual-time RPC cost next to measured
//!   wall-clock socket round trips; the report is also written to
//!   `MODELED_VS_MEASURED_<run>.md` for the CI artifact upload.
//! * `--fault SPEC` run the chaos sweep: every app × protocol twice, once
//!   fault-free and once with the seeded fault schedule `SPEC` (e.g.
//!   `seed=7,drop=20000,kill=1@300us`) injected at the transport and quorum
//!   replication armed; prints a digest/recovery-cost report and writes it
//!   to `CHAOS_<run>.md` for the CI artifact upload.  Combine with
//!   `--transport` to run the chaos sweep over a socket backend.

use std::io::Write;

use hyperion::prelude::*;
use hyperion::FaultSpec;
use hyperion_apps::common::BenchmarkName;
use hyperion_bench::{
    bench_report_rows, improvement_summary, report, sweep_adaptive, sweep_audit, sweep_chaos,
    sweep_directory, sweep_figure, sweep_modeled_vs_measured, sweep_serving, sweep_transport,
    table1_modules, table2_primitives, threshold_ablation, FigureRow, Scale, ADAPTIVE_FIGURE,
    DIRECTORY_FIGURE, SERVING_FIGURE, TRANSPORT_FIGURE,
};

struct Options {
    figures: Vec<usize>,
    tables: bool,
    claims: bool,
    json: bool,
    baseline: Option<String>,
    audit: bool,
    runs: Option<usize>,
    scale: Scale,
    out_dir: Option<String>,
    transport: Option<TransportBackend>,
    fault: Option<FaultSpec>,
}

fn parse_args() -> Options {
    let mut opts = Options {
        figures: Vec::new(),
        tables: false,
        claims: false,
        json: false,
        baseline: None,
        audit: false,
        runs: None,
        scale: Scale::Harness,
        out_dir: None,
        transport: None,
        fault: None,
    };
    let mut args = std::env::args().skip(1);
    let mut any_selector = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fig" => {
                let n: usize = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|n| (1..=SERVING_FIGURE).contains(n))
                    .unwrap_or_else(|| die("--fig needs a number between 1 and 9"));
                opts.figures.push(n);
                any_selector = true;
            }
            "--tables" => {
                opts.tables = true;
                any_selector = true;
            }
            "--claims" => {
                opts.claims = true;
                any_selector = true;
            }
            "--json" => {
                opts.json = true;
                any_selector = true;
            }
            "--baseline" => {
                opts.baseline = Some(
                    args.next()
                        .unwrap_or_else(|| die("--baseline needs a file path")),
                );
                any_selector = true;
            }
            "--scale" => {
                let s = args.next().unwrap_or_default();
                opts.scale = Scale::parse(&s)
                    .unwrap_or_else(|| die("--scale must be quick, harness or paper"));
            }
            "--audit" => {
                opts.audit = true;
                any_selector = true;
            }
            "--runs" => {
                opts.runs = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| die("--runs needs a positive count")),
                );
            }
            "--transport" => {
                let s = args.next().unwrap_or_default();
                opts.transport = Some(
                    TransportBackend::parse(&s)
                        .unwrap_or_else(|| die("--transport must be sim, socket (unix) or tcp")),
                );
                any_selector = true;
            }
            "--fault" => {
                let s = args.next().unwrap_or_default();
                opts.fault = Some(FaultSpec::parse(&s).unwrap_or_else(|e| {
                    die(&format!("--fault: {e} (format: seed=N,drop=PPM,dropfirst=N,delay=PPM@DUR,dup=PPM,panic=PPM,kill=NODE@TIME)"))
                }));
                any_selector = true;
            }
            "--quick" => {
                opts.scale = Scale::Quick;
            }
            "--out" => {
                opts.out_dir = Some(
                    args.next()
                        .unwrap_or_else(|| die("--out needs a directory")),
                );
            }
            "--help" | "-h" => {
                println!(
                    "figures [--fig N]... [--tables] [--claims] [--scale quick|harness|paper] \
                     [--quick] [--json] [--baseline PATH] [--out DIR] \
                     [--transport sim|socket|tcp] [--fault SPEC] [--audit] [--runs N]"
                );
                std::process::exit(0);
            }
            other => die(&format!("unknown argument '{other}'")),
        }
    }
    if !any_selector {
        opts.figures = vec![1, 2, 3, 4, 5];
        opts.tables = true;
        opts.claims = true;
    }
    opts
}

fn die(msg: &str) -> ! {
    eprintln!("figures: {msg}");
    std::process::exit(2);
}

fn figure_name(n: usize) -> BenchmarkName {
    BenchmarkName::all()
        .into_iter()
        .find(|b| b.figure() == n)
        .expect("figure number in 1..=5")
}

/// Figure 6: the ic/pf/ad comparison plus a small ablation of the adaptive
/// switching threshold.
fn print_adaptive_figure(scale: Scale) -> Vec<FigureRow> {
    let rows = sweep_adaptive(scale);
    println!(
        "== Figure 6 (extension): java_ic vs java_pf vs java_ad, {} nodes ==",
        hyperion_bench::ADAPTIVE_NODES
    );
    println!(
        "{:<12} {:<16} {:<8} {:>12} {:>12} {:>10} {:>10} {:>9} {:>9}",
        "App",
        "Cluster",
        "protocol",
        "exec (s)",
        "page_loads",
        "checks",
        "faults",
        "batches",
        "switches"
    );
    for r in &rows {
        println!(
            "{:<12} {:<16} {:<8} {:>12.4} {:>12} {:>10} {:>10} {:>9} {:>9}",
            r.app.to_string(),
            r.cluster,
            r.protocol.to_string(),
            r.seconds,
            r.stats.page_loads,
            r.stats.locality_checks,
            r.stats.page_faults,
            r.stats.batched_fetches,
            r.stats.protocol_switches,
        );
    }
    println!();
    println!("-- switching-threshold ablation (java_ad, Jacobi, hi multiple of break-even) --");
    for (hi, row) in threshold_ablation(BenchmarkName::Jacobi, scale, &[0.25, 0.5, 1.0, 2.0, 4.0]) {
        println!(
            "hi = {hi:>5.2} * n_star: exec {:>10.4}s  checks {:>8}  faults {:>6}  switches {:>4}",
            row.seconds,
            row.stats.locality_checks,
            row.stats.page_faults,
            row.stats.protocol_switches,
        );
    }
    println!();
    rows
}

/// Figure 7: the split-transaction transport against the blocking one —
/// overlapped fetches on the barrier apps.
fn print_transport_figure(scale: Scale) -> Vec<FigureRow> {
    let pairs = sweep_transport(scale);
    println!(
        "== Figure 7 (extension): latency-hiding transport, {} nodes ==",
        hyperion_bench::ADAPTIVE_NODES
    );
    println!(
        "{:<12} {:<10} {:<14} {:>12} {:>10} {:>10} {:>14}",
        "App", "mechanism", "variant", "exec (s)", "diffs", "batched", "hidden cycles"
    );
    let mut rows = Vec::new();
    for pair in pairs {
        for r in [&pair.baseline, &pair.enabled] {
            println!(
                "{:<12} {:<10} {:<14} {:>12.4} {:>10} {:>10} {:>14}",
                r.app.to_string(),
                pair.mechanism,
                r.protocol_label(),
                r.seconds,
                r.stats.diff_messages,
                r.stats.batched_flushes,
                r.stats.fetch_overlap_cycles_hidden,
            );
        }
        rows.push(pair.baseline);
        rows.push(pair.enabled);
    }
    println!();
    rows
}

/// Figure 8: what deferred release flushing adds to figure 7's
/// split-transaction transport (which makes it `directory()`), plus the
/// deferred-only comparison on all five apps.
fn print_directory_figure(scale: Scale) -> Vec<FigureRow> {
    let pairs = sweep_directory(scale);
    println!(
        "== Figure 8 (extension): deferred release flushing, {} nodes ==",
        hyperion_bench::ADAPTIVE_NODES
    );
    println!(
        "{:<12} {:<11} {:<14} {:>12} {:>7} {:>9} {:>8} {:>9} {:>14}",
        "App",
        "mechanism",
        "variant",
        "exec (s)",
        "stride",
        "completed",
        "wasted",
        "deferred",
        "flush hidden"
    );
    let mut rows = Vec::new();
    for pair in pairs {
        for r in [&pair.baseline, &pair.enabled] {
            println!(
                "{:<12} {:<11} {:<14} {:>12.4} {:>7} {:>9} {:>8} {:>9} {:>14}",
                r.app.to_string(),
                pair.mechanism,
                r.protocol_label(),
                r.seconds,
                r.stats.stride_fetches_issued,
                r.stats.stride_fetches_completed,
                r.stats.stride_fetches_wasted,
                r.stats.deferred_flushes,
                r.stats.flush_overlap_cycles_hidden,
            );
        }
        rows.push(pair.baseline);
        rows.push(pair.enabled);
    }
    println!();
    rows
}

/// Figure 9: the serving-workload family — the Zipf-skewed sharded KV store
/// and the PageRank kernel — under all three protocols, reported as
/// throughput and modeled p99 per operation next to the usual counters.
fn print_serving_figure(scale: Scale) -> Vec<FigureRow> {
    let rows = sweep_serving(scale);
    println!(
        "== Figure 9 (extension): serving workloads (Zipf KV store, PageRank), {} nodes ==",
        hyperion_bench::ADAPTIVE_NODES
    );
    println!(
        "{:<10} {:<14} {:>12} {:>12} {:>12} {:>12} {:>11} {:>12} {:>8} {:>8} {:>8} {:>7} {:>8} {:>10} {:>10} {:>14}",
        "App",
        "variant",
        "exec (s)",
        "ops",
        "ops/s",
        "p99 (us)",
        "page_loads",
        "revalidated",
        "patched",
        "riders",
        "opened",
        "stride",
        "wasted",
        "home busy",
        "queue wait",
        "mon wait (ms)"
    );
    for r in &rows {
        println!(
            "{:<10} {:<14} {:>12.4} {:>12} {:>12.0} {:>12.1} {:>11} {:>12} {:>8} {:>8} {:>8} {:>7} {:>8} {:>9.2}% {:>9.2}% {:>14.3}",
            r.app.to_string(),
            r.protocol_label(),
            r.seconds,
            r.stats.serving_ops,
            r.serving_ops_per_s(),
            r.serving_p99_us,
            r.stats.page_loads,
            r.stats.pages_revalidated,
            r.stats.pages_patched,
            r.stats.validation_riders,
            r.stats.rider_opens,
            r.stats.stride_fetches_issued,
            r.stats.stride_fetches_wasted,
            r.peak_home_util * 100.0,
            r.peak_home_queue_wait * 100.0,
            r.stats.monitor_wait_ps as f64 / 1e9,
        );
    }
    println!();
    rows
}

/// The `--audit` path: one line per (app, protocol, preset) cell, printed
/// as the cell completes.
fn run_audit(scale: Scale, runs: usize) {
    println!(
        "== Audit: app x protocol x transport preset, {runs} runs per cell, {} nodes ==",
        hyperion_bench::ADAPTIVE_NODES
    );
    println!(
        "{:<11} {:<8} {:<15} {:>12} {:>12} {:>12} {:>24} {:>11} {:>7} {:>9} {:>7}",
        "App",
        "protocol",
        "preset",
        "median (s)",
        "min (s)",
        "max (s)",
        "digest",
        "page_loads",
        "stride",
        "completed",
        "wasted"
    );
    sweep_audit(scale, runs, |cell| {
        let (min, mid, max) = (&cell.runs[0], cell.median(), &cell.runs[runs - 1]);
        let digest = if cell.runs.iter().all(|r| r.digest == mid.digest) {
            format!("{:e}", mid.digest)
        } else {
            "DIFFERS".to_string()
        };
        println!(
            "{:<11} {:<8} {:<15} {:>12.6} {:>12.6} {:>12.6} {:>24} {:>11} {:>7} {:>9} {:>7}",
            mid.app.to_string(),
            mid.protocol.to_string(),
            cell.preset,
            mid.seconds,
            min.seconds,
            max.seconds,
            digest,
            mid.stats.page_loads,
            mid.stats.stride_fetches_issued,
            mid.stats.stride_fetches_completed,
            mid.stats.stride_fetches_wasted,
        );
    });
    println!();
}

/// The `--json` / `--baseline` path: run the CI-tracked sweep, optionally
/// write `BENCH_<run>.json`, optionally gate against a committed baseline.
/// Returns `true` if the baseline gate failed.
fn run_bench_report(opts: &Options) -> bool {
    let sweeps: Vec<Vec<FigureRow>> = (0..opts.runs.unwrap_or(1))
        .map(|_| bench_report_rows(opts.scale))
        .collect();
    let rows = report::envelope(&sweeps);
    if opts.json {
        let run = std::env::var("GITHUB_RUN_ID").unwrap_or_else(|_| "local".to_string());
        let path = format!("BENCH_{run}.json");
        let json = report::report_to_json(&run, opts.scale.name(), &rows);
        std::fs::write(&path, json).expect("write bench report");
        eprintln!("wrote {path}");
    }
    let Some(baseline_path) = &opts.baseline else {
        return false;
    };
    let text = match std::fs::read_to_string(baseline_path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("figures: cannot read baseline {baseline_path}: {e}");
            return true;
        }
    };
    let baseline = match report::parse_report(&text) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("figures: malformed baseline {baseline_path}: {e}");
            return true;
        }
    };
    let regressions = report::compare_to_baseline(&rows, &baseline, report::DEFAULT_TOLERANCE);
    // Surface the per-app deltas where a CI reader will see them: the job's
    // step summary (or an explicit --summary path), not just an opaque
    // pass/fail exit code.
    let summary = report::markdown_summary(&rows, &baseline, &regressions);
    report::append_step_summary(&summary);
    if regressions.is_empty() {
        println!(
            "baseline gate: {} rows within {:.0}% of {baseline_path}",
            baseline.len(),
            report::DEFAULT_TOLERANCE * 100.0
        );
        false
    } else {
        eprintln!("baseline gate FAILED against {baseline_path}:");
        for r in &regressions {
            eprintln!("  {r}");
        }
        true
    }
}

/// The `--transport` path: run every app × protocol over the requested
/// backend, print the one-page modeled-vs-measured report and write it to
/// `MODELED_VS_MEASURED_<run>.md` for the CI artifact upload.
fn run_modeled_vs_measured(scale: Scale, backend: TransportBackend) {
    println!(
        "== Modeled vs measured: {} backend, {} nodes ==\n",
        backend,
        hyperion_bench::ADAPTIVE_NODES
    );
    let rows = sweep_modeled_vs_measured(scale, backend);
    let markdown = report::modeled_vs_measured_markdown(&rows);
    println!("{markdown}");
    let run = std::env::var("GITHUB_RUN_ID").unwrap_or_else(|_| "local".to_string());
    let path = format!("MODELED_VS_MEASURED_{run}.md");
    std::fs::write(&path, &markdown).expect("write modeled-vs-measured report");
    eprintln!("wrote {path}");
}

/// The `--fault` path: run the chaos sweep under the given seeded schedule,
/// print the digest/recovery-cost report and write it to `CHAOS_<run>.md`
/// for the CI artifact upload.  Returns `true` if any digest diverged from
/// its fault-free reference.
fn run_chaos(scale: Scale, spec: FaultSpec, backend: TransportBackend) -> bool {
    let spec_str = spec.to_string();
    println!(
        "== Chaos sweep: fault schedule `{spec_str}`, {} nodes, {backend} backend ==\n",
        hyperion_bench::ADAPTIVE_NODES
    );
    let pairs = sweep_chaos(scale, spec, backend);
    let markdown = report::chaos_markdown(&spec_str, &pairs);
    println!("{markdown}");
    let run = std::env::var("GITHUB_RUN_ID").unwrap_or_else(|_| "local".to_string());
    let path = format!("CHAOS_{run}.md");
    std::fs::write(&path, &markdown).expect("write chaos report");
    eprintln!("wrote {path}");
    pairs.iter().any(|p| !p.digests_match())
}

fn print_tables() {
    println!("== Table 1: Hyperion runtime modules and their Hyperion-RS implementations ==");
    println!("{:<26} {:<66} Implemented by", "Module", "Role (paper)");
    for (module, role, implementation) in table1_modules() {
        println!("{module:<26} {role:<66} {implementation}");
    }
    println!();
    println!("== Table 2: key DSM primitives (micro-measured, 2 nodes) ==");
    println!(
        "{:<20} {:<64} {:>16} {:>16}",
        "Primitive", "Description", "java_ic (us)", "java_pf (us)"
    );
    let ic = table2_primitives(&myrinet_200(), ProtocolKind::JavaIc);
    let pf = table2_primitives(&myrinet_200(), ProtocolKind::JavaPf);
    for (row_ic, row_pf) in ic.iter().zip(pf.iter()) {
        println!(
            "{:<20} {:<64} {:>16.2} {:>16.2}",
            row_ic.name, row_ic.description, row_ic.micros, row_pf.micros
        );
    }
    println!();
}

fn print_figure(rows: &[FigureRow]) {
    let fig = rows.first().map(|r| r.figure).unwrap_or(0);
    let app = rows.first().map(|r| r.app.to_string()).unwrap_or_default();
    println!("== Figure {fig}: {app} — execution time (virtual seconds) vs number of nodes ==");
    // Series layout mirroring the paper's plots: one line per
    // (cluster, protocol), node counts across the columns.
    let mut series: Vec<(String, ProtocolKind)> = Vec::new();
    for r in rows {
        let key = (r.cluster.clone(), r.protocol);
        if !series.contains(&key) {
            series.push(key);
        }
    }
    for (cluster, protocol) in series {
        let mut line = format!("{cluster:<16} {:<8}", protocol.to_string());
        let mut points: Vec<&FigureRow> = rows
            .iter()
            .filter(|r| r.cluster == cluster && r.protocol == protocol)
            .collect();
        points.sort_by_key(|r| r.nodes);
        for p in points {
            line.push_str(&format!("  {:>2}n:{:>9.3}s", p.nodes, p.seconds));
        }
        println!("{line}");
    }
    println!();
}

fn print_claims(all_rows: &[FigureRow]) {
    println!("== Derived §4.3 claims: java_ic -> java_pf improvement, (ic-pf)/ic ==");
    println!(
        "{:<12} {:<16} {:>6} {:>12} {:>12} {:>12}",
        "App", "Cluster", "Nodes", "ic (s)", "pf (s)", "improvement"
    );
    let improvements = improvement_summary(all_rows);
    for imp in &improvements {
        println!(
            "{:<12} {:<16} {:>6} {:>12.3} {:>12.3} {:>11.1}%",
            imp.app.to_string(),
            imp.cluster,
            imp.nodes,
            imp.ic_seconds,
            imp.pf_seconds,
            imp.percent()
        );
    }
    // Aggregate per cluster (the paper quotes a 21% average on SCI).
    for cluster in ["200MHz/Myrinet", "450MHz/SCI"] {
        let subset: Vec<f64> = improvements
            .iter()
            .filter(|i| i.cluster == cluster && i.app != BenchmarkName::Pi)
            .map(|i| i.percent())
            .collect();
        if !subset.is_empty() {
            let avg = subset.iter().sum::<f64>() / subset.len() as f64;
            println!(
                "average improvement on {cluster} (excluding Pi, all apps and node counts): {avg:.1}%"
            );
        }
    }
    println!();
}

fn write_csv(dir: &str, rows: &[FigureRow]) {
    let fig = rows.first().map(|r| r.figure).unwrap_or(0);
    let app = if fig == SERVING_FIGURE {
        "serving".to_string()
    } else if fig == DIRECTORY_FIGURE {
        "directory".to_string()
    } else if fig == TRANSPORT_FIGURE {
        "transport".to_string()
    } else if fig == ADAPTIVE_FIGURE {
        "adaptive".to_string()
    } else {
        rows.first()
            .map(|r| r.app.to_string().to_lowercase().replace('-', "_"))
            .unwrap_or_default()
    };
    std::fs::create_dir_all(dir).expect("create output directory");
    let path = format!("{dir}/fig{fig}_{app}.csv");
    let mut file = std::fs::File::create(&path).expect("create CSV file");
    writeln!(file, "{}", FigureRow::csv_header()).expect("write CSV header");
    for row in rows {
        writeln!(file, "{}", row.to_csv()).expect("write CSV row");
    }
    eprintln!("wrote {path}");
}

fn main() {
    let opts = parse_args();
    println!(
        "# Hyperion-RS figure harness — scale: {:?}; times are virtual seconds on the modelled clusters\n",
        opts.scale
    );

    if opts.tables {
        print_tables();
    }

    let mut all_rows = Vec::new();
    for &fig in &opts.figures {
        let rows = if fig == SERVING_FIGURE {
            print_serving_figure(opts.scale)
        } else if fig == DIRECTORY_FIGURE {
            print_directory_figure(opts.scale)
        } else if fig == TRANSPORT_FIGURE {
            print_transport_figure(opts.scale)
        } else if fig == ADAPTIVE_FIGURE {
            print_adaptive_figure(opts.scale)
        } else {
            let rows = sweep_figure(figure_name(fig), opts.scale);
            print_figure(&rows);
            rows
        };
        if let Some(dir) = &opts.out_dir {
            write_csv(dir, &rows);
        }
        all_rows.extend(rows);
    }

    if opts.claims && !all_rows.is_empty() {
        print_claims(&all_rows);
    }

    if let Some(backend) = opts.transport {
        run_modeled_vs_measured(opts.scale, backend);
    }

    if let Some(spec) = opts.fault {
        let backend = opts.transport.unwrap_or(TransportBackend::Sim);
        if run_chaos(opts.scale, spec, backend) {
            eprintln!("figures: chaos sweep digest mismatch");
            std::process::exit(1);
        }
    }

    if opts.audit {
        run_audit(opts.scale, opts.runs.unwrap_or(5));
    }

    if (opts.json || opts.baseline.is_some()) && run_bench_report(&opts) {
        std::process::exit(1);
    }
}
