//! Jacobi: 2-D heat diffusion on an insulated plate (Fig. 2).
//!
//! The paper (§4.1): "The Jacobi program computes the temperature
//! distribution on an insulated plate after 100 time steps, using a 1024 by
//! 1024 mesh of cells [...] each thread owns a block of contiguous rows of
//! the mesh.  During every timestep each thread must retrieve a 'boundary'
//! row from its 'neighbor' thread holding the rows to the 'north' and from
//! its 'neighbor' thread holding the rows to the 'south'."
//!
//! The mesh is a Java-style `double[][]`: a vector of row objects, each row
//! homed on the node of the thread that owns it.  Every timestep each thread
//! updates its rows of the `next` buffer from the `current` buffer (five-point
//! stencil), so it reads exactly two remote rows — its north and south
//! boundary rows — and everything else is local.  A barrier separates
//! timesteps; its monitor-entry invalidation is what forces the boundary rows
//! to be re-fetched every step, which is the program's entire communication.

use hyperion::prelude::*;

use crate::common::{
    benchmark, block_owner, block_range, node_of_thread, Benchmark, BenchmarkName,
};

/// Parameters of the Jacobi benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JacobiParams {
    /// Mesh is `size × size` cells.
    pub size: usize,
    /// Number of timesteps.
    pub steps: usize,
}

impl JacobiParams {
    /// The paper's problem size: 1024×1024 mesh, 100 steps.
    pub fn paper() -> Self {
        JacobiParams {
            size: 1024,
            steps: 100,
        }
    }

    /// Default harness scale.
    pub fn harness() -> Self {
        JacobiParams {
            size: 192,
            steps: 30,
        }
    }

    /// A tiny instance for unit tests.
    pub fn quick() -> Self {
        JacobiParams { size: 48, steps: 6 }
    }
}

/// Result of a Jacobi run.
#[derive(Clone, Debug, PartialEq)]
pub struct JacobiResult {
    /// Sum of all interior cell temperatures after the last step (cheap
    /// digest used to compare against the sequential reference).
    pub interior_sum: f64,
    /// Temperature at the mesh centre.
    pub center: f64,
}

/// Boundary conditions: the north edge is held at 100 degrees, the other
/// edges at 0, and the interior starts at 0.
fn initial_value(row: usize, _col: usize, _size: usize) -> f64 {
    if row == 0 {
        100.0
    } else {
        0.0
    }
}

/// Per-cell instruction mix of the five-point stencil as the bytecode-to-C
/// compiler would emit it: four neighbour loads + one store (each with the
/// array bounds check Java mandates), three adds and one multiply in double
/// precision, plus loop/index bookkeeping.
fn cell_mix() -> OpCounts {
    OpCounts::new()
        .with(Op::FpAdd, 3.0)
        .with(Op::FpMul, 1.0)
        .with(Op::Load, 4.0)
        .with(Op::Store, 1.0)
        // Bounds + null checks on the five array accesses.
        .with(Op::IntAlu, 5.0)
        .with(Op::Branch, 5.0)
        // Index arithmetic and loop control.
        .with(Op::IntAlu, 4.0)
        .with(Op::Branch, 1.0)
}

/// Sequential reference implementation; returns (interior sum, centre value).
#[allow(clippy::needless_range_loop)]
pub fn sequential(params: &JacobiParams) -> (f64, f64) {
    let n = params.size;
    let mut cur = vec![vec![0.0f64; n]; n];
    let mut next = vec![vec![0.0f64; n]; n];
    for (r, row) in cur.iter_mut().enumerate() {
        for (c, cell) in row.iter_mut().enumerate() {
            *cell = initial_value(r, c, n);
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

/// A stencil neighbour row: either a pinned local snapshot (a remote
/// boundary row fetched once per step) or a cached row handle whose
/// elements are read through the DSM (a locally owned row).
enum NeighbourRow {
    View(ArrayView<f64>),
    Dsm(HArray<f64>),
}

impl NeighbourRow {
    #[inline]
    fn get(&self, worker: &mut ThreadCtx, c: usize) -> f64 {
        match self {
            NeighbourRow::View(v) => v.get(c),
            NeighbourRow::Dsm(row) => row.get(worker, c),
        }
    }
}

/// Run the Jacobi benchmark under `config`.
///
/// Each thread caches the row handles once and performs the per-step
/// boundary exchange as bulk row reads, so the DSM sees per-page instead of
/// per-element traffic for the communication; the interior stencil still
/// pays the paper's per-access detection, keeping the `java_ic` /
/// `java_pf` comparison meaningful.
pub fn run(config: HyperionConfig, params: &JacobiParams) -> RunOutcome<JacobiResult> {
    assert!(params.size >= 4, "mesh must be at least 4x4");
    let runtime = HyperionRuntime::new(config).expect("invalid Hyperion configuration");
    let threads = runtime.config().total_app_threads();
    let nodes = runtime.nodes();
    let n = params.size;
    let steps = params.steps;

    runtime.run(move |ctx| {
        // Both buffers are distributed by blocks of rows: row r is homed on
        // the node of the thread that owns it.
        let owner_of_row = block_owner(n, threads, nodes);
        let a: HMatrix<f64> = ctx.alloc_matrix(n, n, owner_of_row);
        let b: HMatrix<f64> = ctx.alloc_matrix(n, n, owner_of_row);
        let barrier = JBarrier::new(ctx, threads, NodeId(0));

        let mut handles = Vec::with_capacity(threads);
        for t in 0..threads {
            let barrier = barrier.clone();
            handles.push(ctx.spawn_on(node_of_thread(t, nodes), move |worker| {
                let (row_start, row_end) = block_range(n, threads, t);
                // The interior rows of the block: the stencil's range.
                let (lo, hi) = (row_start.max(1), row_end.min(n - 1));
                let per_cell = worker.estimate(&cell_mix());
                let init_mix = worker.estimate(
                    &OpCounts::new()
                        .with(Op::Store, 1.0)
                        .with(Op::IntAlu, 2.0)
                        .with(Op::Branch, 1.0),
                );

                // Row handles are fetched once per thread: the row references
                // never change, so the cache stays valid across every barrier.
                let rows_a = a.rows_view(worker);
                let rows_b = b.rows_view(worker);

                // Initialisation writes whole rows in bulk.
                for r in row_start..row_end {
                    let vals: Vec<f64> = (0..n).map(|c| initial_value(r, c, n)).collect();
                    rows_a.row(r).write_slice(worker, 0, &vals);
                    rows_b.row(r).write_slice(worker, 0, &vals);
                    worker.charge_iters(&init_mix, 2 * n as u64);
                }
                barrier.arrive(worker);

                let (mut cur, mut next) = (&rows_a, &rows_b);
                for _step in 0..steps {
                    // Issue both boundary-row fetches right after the
                    // barrier's acquire: by the time the south neighbour is
                    // pinned (after the whole block's stencil), the split
                    // transaction has hidden its round trip entirely, and
                    // most of the north one behind the first rows.
                    if row_start >= 1 {
                        cur.row(row_start - 1).prefetch(worker);
                    }
                    if row_end < n {
                        cur.row(row_end).prefetch(worker);
                    }
                    for r in lo..hi {
                        // The two block-boundary neighbours are remote: pin
                        // each once per step with one bulk read.  In-block
                        // neighbours are owned rows read through the DSM per
                        // element.
                        let north = if r == row_start {
                            NeighbourRow::View(cur.row_view(worker, r - 1))
                        } else {
                            NeighbourRow::Dsm(cur.row(r - 1))
                        };
                        let south = if r + 1 == row_end {
                            NeighbourRow::View(cur.row_view(worker, r + 1))
                        } else {
                            NeighbourRow::Dsm(cur.row(r + 1))
                        };
                        let here = cur.row(r);
                        let out = next.row(r);
                        for c in 1..n - 1 {
                            let v = 0.25
                                * (north.get(worker, c)
                                    + south.get(worker, c)
                                    + here.get(worker, c - 1)
                                    + here.get(worker, c + 1));
                            out.put(worker, c, v);
                        }
                        worker.charge_iters(&per_cell, (n - 2) as u64);
                    }
                    std::mem::swap(&mut cur, &mut next);
                    barrier.arrive(worker);
                }
            }));
        }
        for h in handles {
            ctx.join(h);
        }

        // The buffer holding the final state after `steps` swaps.  The scan
        // performs no acquire, so every row fetch can be issued up front
        // and the round trips pipeline.
        let finals = if steps % 2 == 0 { a } else { b };
        let rows = finals.rows_view(ctx);
        for r in 1..n - 1 {
            rows.row(r).prefetch(ctx);
        }
        let mut sum = 0.0;
        for r in 1..n - 1 {
            let row = rows.row_view(ctx, r);
            for c in 1..n - 1 {
                sum += row.get(c);
            }
        }
        let center = rows.row_view(ctx, n / 2).get(n / 2);
        JacobiResult {
            interior_sum: sum,
            center,
        }
    })
}

benchmark!(JacobiParams, Jacobi, |result| result.interior_sum);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::config;

    #[test]
    fn sequential_heat_flows_from_the_hot_edge() {
        let (sum, center) = sequential(&JacobiParams {
            size: 32,
            steps: 40,
        });
        assert!(sum > 0.0);
        assert!((0.0..100.0).contains(&center));
        // More steps means more heat has diffused into the interior.
        let (sum_more, _) = sequential(&JacobiParams {
            size: 32,
            steps: 80,
        });
        assert!(sum_more > sum);
    }

    #[test]
    fn parallel_matches_sequential_for_both_protocols() {
        let params = JacobiParams::quick();
        let (expected_sum, expected_center) = sequential(&params);
        for protocol in ProtocolKind::all() {
            for nodes in [1, 3] {
                let out = run(config(nodes, protocol), &params);
                assert!(
                    (out.result.interior_sum - expected_sum).abs() < 1e-6,
                    "{protocol:?}/{nodes} nodes: {} vs {}",
                    out.result.interior_sum,
                    expected_sum
                );
                assert!((out.result.center - expected_center).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn boundary_rows_are_the_only_remote_traffic() {
        let params = JacobiParams::quick();
        let out = run(config(4, ProtocolKind::JavaPf), &params);
        let total = out.report.total_stats();
        // Every timestep each interior thread re-fetches its two boundary
        // rows (plus barrier state); the mesh rows it owns never travel.
        assert!(total.page_loads > 0);
        let interior_cells = (params.size - 2) * (params.size - 2);
        let all_accesses = total.field_accesses() as usize;
        assert!(
            all_accesses > interior_cells * params.steps,
            "stencil accesses must dominate"
        );
        // Barrier per step (plus the initial one) for each of the 4 threads.
        assert_eq!(total.barrier_waits as usize, 4 * (params.steps + 1));
    }

    #[test]
    fn boundary_rows_complete_stride_fetches_in_flight() {
        // At size 80 with 4 threads each block holds 20 rows of 80 slots,
        // so a row can span two pages.  Where a fetch from a home starts at
        // the page after the node's last fetch from that home, the stride
        // prefetch puts the next page in flight and the later fetch of that
        // page completes an RPC that is already under way.
        let params = JacobiParams { size: 80, steps: 5 };
        let config = HyperionConfig::new(myrinet_200(), 4, ProtocolKind::JavaPf);
        let out = run(config, &params);
        let (expected_sum, _) = sequential(&params);
        assert!(
            (out.result.interior_sum - expected_sum).abs() < 1e-6,
            "prefetches must not change the answer: {} vs {expected_sum}",
            out.result.interior_sum
        );
        let total = out.report.total_stats();
        assert!(
            total.stride_fetches_completed > 0,
            "boundary fetches must complete stride fetches in flight"
        );
        assert!(
            total.stride_fetches_wasted * 8 <= total.stride_fetches_issued.max(16),
            "stride waste {} exceeds 1/8 of {} issued",
            total.stride_fetches_wasted,
            total.stride_fetches_issued
        );
    }

    /// A size where compute dominates the per-step communication, as in the
    /// paper's 1024×1024 runs (the `quick` instance is kept tiny for the
    /// correctness tests and is too communication-bound to show the effect).
    fn shape_params() -> JacobiParams {
        JacobiParams {
            size: 256,
            steps: 6,
        }
    }

    #[test]
    fn java_pf_beats_java_ic_on_jacobi() {
        let params = shape_params();
        let ic = run(config(3, ProtocolKind::JavaIc), &params)
            .report
            .execution_time
            .as_secs_f64();
        let pf = run(config(3, ProtocolKind::JavaPf), &params)
            .report
            .execution_time
            .as_secs_f64();
        assert!(
            pf < ic,
            "page-fault protocol should win on Jacobi: pf={pf:.4}s ic={ic:.4}s"
        );
    }

    #[test]
    fn jacobi_speeds_up_with_more_nodes() {
        let params = shape_params();
        let t1 = run(config(1, ProtocolKind::JavaPf), &params)
            .report
            .execution_time
            .as_secs_f64();
        let t4 = run(config(4, ProtocolKind::JavaPf), &params)
            .report
            .execution_time
            .as_secs_f64();
        assert!(t4 < t1, "4-node run should be faster: {t4:.4}s vs {t1:.4}s");
    }

    #[test]
    fn benchmark_trait_reports_figure_two() {
        let params = JacobiParams::quick();
        assert_eq!(params.name().figure(), 2);
        // One node under `java_ad`: a configuration the quick matrix lacks.
        let (digest, _) = params.execute(config(1, ProtocolKind::JavaAd));
        let (expected, _) = sequential(&params);
        assert!((digest - expected).abs() < 1e-6);
    }
}
