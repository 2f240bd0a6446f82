//! The committed quick rows, byte for byte, read off the quick matrix:
//! `bench/paper.txt` (figures 1–5's §4.3 claims) and `bench/baseline.json`
//! (the bench report, once the figure 6 / 9 gates hold on its rows).

use hyperion_bench::report::{compare_to_baseline, report_to_json};
use hyperion_bench::{claims_text, gates, FigureRow};

use crate::matrix;

const BASELINE: &str = include_str!("../../bench/baseline.json");
const PAPER: &str = include_str!("../../bench/paper.txt");

#[test]
fn claims_are_byte_for_byte_the_committed_paper_rows() {
    assert_eq!(
        claims_text(matrix::claims()),
        PAPER,
        "bench/paper.txt is not what `figures --claims --fig 1 --fig 2 --fig 3 --fig 4 \
         --fig 5 --scale quick` prints from `== Derived` on; regenerate it if intended"
    );
}

#[test]
fn report_rows_are_byte_for_byte_the_committed_baseline() {
    let quick: Vec<FigureRow> = matrix::report_points()
        .iter()
        .map(|point| matrix::row(point).clone())
        .collect();
    assert_eq!(quick.len(), 21);
    let violations = gates::violations(&quick);
    assert!(
        violations.is_empty(),
        "the figure 6 / 9 gates fail on the quick rows:\n{}",
        violations.join("\n")
    );
    let measured = report_to_json("local", "quick", &quick);
    let findings = compare_to_baseline(&measured, BASELINE);
    assert!(
        findings.is_empty(),
        "bench/baseline.json is not what `figures --quick --json` writes; if the \
         change is intended, regenerate it with `figures --quick --json && cp \
         BENCH_local.json bench/baseline.json`:\n{}",
        findings.join("\n")
    );
}
