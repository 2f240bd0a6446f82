//! The sequential references, bit for bit: `jacobi::sequential` walks row
//! slices and `asp::sequential` relaxes `i32` rows of one flat buffer, and
//! each must return exactly what the nested-index loops below return.
//! Those loops are the references as they were written first, kept
//! verbatim so that a faster kernel is held to the plain one's output, not
//! to itself.

use hyperion_workspace::apps::asp::{self, AspParams, AspResult, INFINITY};
use hyperion_workspace::apps::jacobi::{self, JacobiParams};

/// Jacobi's reference with a nested index per cell (its private
/// `initial_value` inlined: the north edge at 100, every other cell at 0).
#[allow(clippy::needless_range_loop)]
fn nested_jacobi(params: &JacobiParams) -> (f64, f64) {
    let n = params.size;
    let mut cur = vec![vec![0.0f64; n]; n];
    let mut next = vec![vec![0.0f64; n]; n];
    for (r, row) in cur.iter_mut().enumerate() {
        for cell in row.iter_mut() {
            *cell = if r == 0 { 100.0 } else { 0.0 };
        }
    }
    next.clone_from(&cur);
    for _ in 0..params.steps {
        for r in 1..n - 1 {
            for c in 1..n - 1 {
                next[r][c] = 0.25 * (cur[r - 1][c] + cur[r + 1][c] + cur[r][c - 1] + cur[r][c + 1]);
            }
        }
        std::mem::swap(&mut cur, &mut next);
    }
    let mut sum = 0.0;
    for r in 1..n - 1 {
        for c in 1..n - 1 {
            sum += cur[r][c];
        }
    }
    (sum, cur[n / 2][n / 2])
}

/// Floyd's algorithm with a nested index per relaxation, reading pivot row
/// `k` in place.
#[allow(clippy::needless_range_loop)]
fn nested_floyd(params: &AspParams) -> AspResult {
    let n = params.vertices;
    let mut d = asp::generate_graph(params);
    for k in 0..n {
        for i in 0..n {
            let dik = d[i][k];
            if dik >= INFINITY {
                continue;
            }
            for j in 0..n {
                let via = dik + d[k][j];
                if via < d[i][j] {
                    d[i][j] = via;
                }
            }
        }
    }
    let (distance_sum, unreachable_pairs) = asp::digest(&d);
    AspResult {
        distance_sum,
        unreachable_pairs,
    }
}

#[test]
fn jacobi_reference_is_the_nested_loops_to_the_bit() {
    // Heat that has not crossed the mesh leaves every cell a short dyadic
    // fraction, which any order of the four additions sums exactly: at the
    // quick and harness sizes, and at the benchmark's 384 x 40, the bits
    // do not show the order.  On 16 x 60 every other order tried moves them.
    let sizes = [
        JacobiParams { size: 4, steps: 3 },
        JacobiParams::quick(),
        JacobiParams::harness(),
        JacobiParams {
            size: 16,
            steps: 60,
        },
    ];
    for params in sizes {
        let (sum, center) = jacobi::sequential(&params);
        let (want_sum, want_center) = nested_jacobi(&params);
        assert_eq!(
            (sum.to_bits(), center.to_bits()),
            (want_sum.to_bits(), want_center.to_bits()),
            "{params:?}: ({sum}, {center}) against ({want_sum}, {want_center})"
        );
    }
}

#[test]
fn asp_reference_is_the_nested_loops_exactly() {
    let quick = AspParams::quick();
    let sparse = AspParams {
        seed: 3,
        edge_percent: 2,
        ..quick
    };
    // The benchmark's shape (`asp_ic`) at its two seeds, and graphs with
    // no edge (every off-diagonal pair unreachable) and with every edge.
    let benchmark = AspParams {
        vertices: 256,
        seed: 42,
        edge_percent: 30,
    };
    let [empty, full] = [0, 100].map(|edge_percent| AspParams {
        edge_percent,
        ..quick
    });
    let cases = [
        quick,
        AspParams { seed: 20, ..quick },
        sparse,
        AspParams::harness(),
        benchmark,
        AspParams {
            seed: 20260927,
            ..benchmark
        },
        empty,
        full,
    ];
    for params in cases {
        assert_eq!(
            asp::sequential(&params),
            nested_floyd(&params),
            "{params:?}"
        );
    }
    assert!(
        nested_floyd(&sparse).unreachable_pairs > 0,
        "the sparse graph must leave pairs unreachable"
    );
    let n = quick.vertices as u64;
    let none = AspResult {
        distance_sum: 0,
        unreachable_pairs: n * (n - 1),
    };
    assert_eq!(asp::sequential(&empty), none, "no edge, no path");
}
