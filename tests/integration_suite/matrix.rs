//! The quick matrix: every quick-scale configuration whose rows are
//! committed — figures 1–5 (`bench/paper.txt`: both clusters, `java_ic` and
//! `java_pf`, the paper's node counts) and the bench report
//! (`bench/baseline.json`: the seven apps under the three protocols on 4
//! Myrinet nodes) — run once per test binary, by the first test that asks,
//! and never changed after.  A run repeats exactly, so a test that asserts
//! something of one of these configurations reads its row here instead of
//! running it again.

use std::sync::OnceLock;

use hyperion_bench::{figure_points, paper_figure, FigureRow, Point, Scale};
use hyperion_workspace::apps::common::BenchmarkName;

/// Rows of figures 1–5, the first rows of the matrix.
const CLAIMS: usize = 130;

struct Matrix {
    points: Vec<Point>,
    rows: Vec<FigureRow>,
}

/// Figures 1–5's points in the order `figures --claims` runs them, then the
/// bench report's points they lack, each with its run.
fn matrix() -> &'static Matrix {
    static MATRIX: OnceLock<Matrix> = OnceLock::new();
    MATRIX.get_or_init(|| {
        let mut points: Vec<Point> = (1..=5)
            .flat_map(|fig| figure_points(paper_figure(fig).expect("figures 1-5"), Scale::Quick))
            .collect();
        assert_eq!(points.len(), CLAIMS);
        for point in report_points() {
            if !points.contains(&point) {
                points.push(point);
            }
        }
        // Two threads, one for the even points and one for the odd, so the
        // tests waiting for the matrix leave no CPU idle.
        let runs = |parity| -> Vec<FigureRow> {
            points
                .iter()
                .skip(parity)
                .step_by(2)
                .map(Point::run)
                .collect()
        };
        let (even, odd) = std::thread::scope(|scope| {
            let odd = scope.spawn(|| runs(1));
            (runs(0), odd.join().expect("the odd points ran"))
        });
        let mut odd = odd.into_iter();
        let rows = even.into_iter().flat_map(|row| [Some(row), odd.next()]);
        let rows = rows.flatten().collect();
        Matrix { points, rows }
    })
}

/// Every row of the matrix.
pub fn rows() -> &'static [FigureRow] {
    &matrix().rows
}

/// The rows of figures 1–5, in the order `figures --claims` prints them.
pub fn claims() -> &'static [FigureRow] {
    &rows()[..CLAIMS]
}

/// The bench report's points — every app under `java_ic`, `java_pf` and
/// `java_ad` on 4 Myrinet nodes — in the order `bench_report_rows` runs
/// them.
pub fn report_points() -> Vec<Point> {
    Point::grid(BenchmarkName::all_extended(), Scale::Quick)
}

/// The matrix's run of `point`.
///
/// # Panics
/// If `point` is not in the matrix.
pub fn row(point: &Point) -> &'static FigureRow {
    let matrix = matrix();
    let at = matrix.points.iter().position(|p| p == point);
    &matrix.rows[at.unwrap_or_else(|| panic!("not in the quick matrix: {point:?}"))]
}
