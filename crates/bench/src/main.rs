//! `figures` — regenerate every table and figure of the paper, plus the
//! adaptive-protocol comparison and the CI bench report.
//!
//! ```text
//! figures [--fig N]... [--tables] [--claims] [--scale quick|harness|paper]
//!         [--quick] [--json] [--baseline PATH] [--out DIR]
//!         [--transport sim|socket] [--fault SPEC] [--audit]
//! ```
//!
//! * `--fig N`     regenerate figure N: 1–5 from the paper, 6 and 9 the
//!   extension figures of the `hyperion_bench::FIGURES` registry (adaptive
//!   protocol, serving workloads); may be repeated.  Default: all of 1–5.
//! * `--tables`    print Table 1 (module inventory) and Table 2 (primitives).
//! * `--claims`    print the derived `java_ic` → `java_pf` improvements that
//!   correspond to the quantitative claims of §4.3.
//! * `--scale`     problem-size scale (default `harness`).
//! * `--quick`     shorthand for `--scale quick` (the CI invocation).
//! * `--json`      run the CI-tracked sweep (five apps × three protocols
//!   and the figure-9 serving rows with their throughput/p99 fields) and write it to `BENCH_<run>.json`
//!   (`<run>` is `$GITHUB_RUN_ID`, or `local`).
//! * `--baseline PATH` run the CI-tracked sweep and exit non-zero unless
//!   every row of the committed baseline report is byte for byte the row
//!   the sweep writes (no row missing, none extra); each differing field is
//!   printed, and appended to `$GITHUB_STEP_SUMMARY` when that variable is
//!   set.  Regenerate the baseline with
//!   `figures --quick --json && cp BENCH_local.json bench/baseline.json`.
//! * `--audit`     the keep-or-cut audit: every app × protocol, run once,
//!   with its modeled seconds plus `page_loads` and the stride-prefetch
//!   counters per cell.  Run it
//!   at two commits to compare them; nothing in the product switches
//!   between the two sides.
//! * `--out DIR`   additionally write one CSV per figure into DIR.
//! * `--transport B` run the modeled-vs-measured sweep with every RPC
//!   carried by backend B (`socket` = a Unix-domain socket pair per node,
//!   `sim` = the in-process cost model) and print a
//!   one-page report of modeled virtual-time RPC cost next to measured
//!   wall-clock socket round trips; the report is also written to
//!   `MODELED_VS_MEASURED_<run>.md` for the CI artifact upload.
//! * `--fault SPEC` run the chaos sweep: every app × protocol twice, once
//!   fault-free and once with the seeded fault schedule `SPEC` (e.g.
//!   `seed=7,drop=20000,kill=1@300us`) injected at the transport; prints a
//!   digest/recovery-cost report and writes it to `CHAOS_<run>.md` for the
//!   CI artifact upload.  Combine with `--transport` to run the chaos sweep
//!   over a socket backend.

use std::io::Write;

use hyperion::prelude::*;
use hyperion::FaultSpec;
use hyperion_bench::{
    bench_report_rows, claims_text, extension_figure, figure_numbers, paper_figure, report,
    sweep_chaos, sweep_figure, sweep_modeled_vs_measured, table1_modules, table2_primitives,
    FigureRow, Scale,
};

#[derive(Default)]
struct Options {
    figures: Vec<usize>,
    tables: bool,
    claims: bool,
    json: bool,
    baseline: Option<String>,
    audit: bool,
    scale: Scale,
    out_dir: Option<String>,
    transport: Option<TransportBackend>,
    fault: Option<FaultSpec>,
}

fn parse_args() -> Options {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    let mut any_selector = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fig" => {
                let numbers = figure_numbers();
                let n: usize = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|n| numbers.contains(n))
                    .unwrap_or_else(|| die(&format!("--fig needs one of {numbers:?}")));
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
            "--transport" => {
                let s = args.next().unwrap_or_default();
                opts.transport = Some(
                    TransportBackend::parse(&s)
                        .unwrap_or_else(|| die("--transport must be sim or socket (unix)")),
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
            "--quick" => opts.scale = Scale::Quick,
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
                     [--transport sim|socket] [--fault SPEC] [--audit]"
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

/// The keep-or-cut audit (`--audit`): one line per (app, protocol) cell of
/// [`bench_report_rows`], each run once (a run repeats exactly), printed
/// once the sweep ends.  Built at two commits, its two tables are a
/// before/after comparison with nothing but the public API on either side.
fn run_audit(scale: Scale) {
    println!(
        "== Audit: app x protocol, {} nodes ==",
        hyperion_bench::ADAPTIVE_NODES
    );
    println!(
        "{:<11} {:<8} {:>12} {:>24} {:>11} {:>7} {:>9} {:>7}",
        "App", "protocol", "seconds", "digest", "page_loads", "stride", "completed", "wasted"
    );
    for row in bench_report_rows(scale) {
        println!(
            "{:<11} {:<8} {:>12.6} {:>24} {:>11} {:>7} {:>9} {:>7}",
            row.app.to_string(),
            row.protocol.to_string(),
            row.seconds,
            format!("{:e}", row.digest),
            row.stats.page_loads,
            row.stats.stride_fetches_issued,
            row.stats.stride_fetches_completed,
            row.stats.stride_fetches_wasted,
        );
    }
    println!();
}

/// The `--json` / `--baseline` path: run the CI-tracked sweep, optionally
/// write `BENCH_<run>.json`, optionally gate against a committed baseline.
/// Returns `true` if the baseline gate failed.
fn run_bench_report(opts: &Options) -> bool {
    let rows = bench_report_rows(opts.scale);
    let run = std::env::var("GITHUB_RUN_ID").unwrap_or_else(|_| "local".to_string());
    let json = report::report_to_json(&run, opts.scale.name(), &rows);
    if opts.json {
        let path = format!("BENCH_{run}.json");
        std::fs::write(&path, &json).expect("write bench report");
        eprintln!("wrote {path}");
    }
    let Some(baseline_path) = &opts.baseline else {
        return false;
    };
    let baseline = match std::fs::read_to_string(baseline_path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("figures: cannot read baseline {baseline_path}: {e}");
            return true;
        }
    };
    let findings = report::compare_to_baseline(&json, &baseline);
    // Show the changed fields where a CI reader will see them: the job's
    // step summary, not just an opaque pass/fail exit code.
    let verdict = if findings.is_empty() {
        format!("{} rows identical to {baseline_path}", rows.len())
    } else {
        format!(
            "{} row(s) differ from {baseline_path}; if the change is intended, regenerate \
             it: `figures --quick --json && cp BENCH_local.json {baseline_path}`",
            findings.len()
        )
    };
    let listed: String = findings.iter().map(|f| format!("- {f}\n")).collect();
    report::append_step_summary(&format!("## Bench gate\n\n{verdict}\n\n{listed}\n"));
    if findings.is_empty() {
        println!("baseline gate: {verdict}");
        false
    } else {
        eprint!("baseline gate FAILED: {verdict}\n{listed}");
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

fn write_csv(dir: &str, rows: &[FigureRow]) {
    let fig = rows.first().map(|r| r.figure).unwrap_or(0);
    let slug = match extension_figure(fig) {
        Some(figure) => figure.slug.to_string(),
        None => rows
            .first()
            .map(|r| r.app.to_string().to_lowercase().replace('-', "_"))
            .unwrap_or_default(),
    };
    std::fs::create_dir_all(dir).expect("create output directory");
    let path = format!("{dir}/fig{fig}_{slug}.csv");
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
        let rows = if let Some(figure) = extension_figure(fig) {
            let (text, rows) = figure.report(opts.scale);
            print!("{text}");
            rows
        } else {
            let app =
                paper_figure(fig).expect("--fig numbers are the paper's figures plus FIGURES");
            let rows = sweep_figure(app, opts.scale);
            print_figure(&rows);
            rows
        };
        if let Some(dir) = &opts.out_dir {
            write_csv(dir, &rows);
        }
        all_rows.extend(rows);
    }

    if opts.claims && !all_rows.is_empty() {
        print!("{}", claims_text(&all_rows));
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
        run_audit(opts.scale);
    }

    if (opts.json || opts.baseline.is_some()) && run_bench_report(&opts) {
        std::process::exit(1);
    }
}
