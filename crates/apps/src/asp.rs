//! ASP: all-pairs shortest paths with Floyd's algorithm (Fig. 5).
//!
//! The paper (§4.1): "ASP uses a two-dimensional distance matrix.  As in
//! Jacobi, each thread owns a block of contiguous rows of the matrix.  During
//! each iteration the 'current' row of the matrix must be retrieved by all
//! threads."  The paper highlights ASP as the extreme case for the protocol
//! comparison: "In ASP the innermost loop is only doing an integer add and an
//! integer compare while performing three object-locality checks.  Removing
//! these checks obviously has a large impact on the performance" — the
//! largest improvement the paper reports (64 % on the Myrinet cluster).
//!
//! The implementation is the classic parallel Floyd-Warshall: for every pivot
//! `k`, each thread relaxes its own block of rows against pivot row `k`,
//! which it fetches from the pivot row's owner after the per-iteration
//! barrier.

use hyperion::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{block_range, node_of_thread, Benchmark, BenchmarkName};

/// "No edge" marker: a large distance that never overflows when two of them
/// are added.
pub const INFINITY: i64 = i64::MAX / 4;

/// Parameters of the ASP benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AspParams {
    /// Number of graph vertices.
    pub vertices: usize,
    /// Seed of the random graph generator.
    pub seed: u64,
    /// Probability (in percent) that a directed edge exists.
    pub edge_percent: u32,
}

impl AspParams {
    /// The paper's problem size: a 2000-vertex graph.
    pub fn paper() -> Self {
        AspParams {
            vertices: 2000,
            seed: 42,
            edge_percent: 30,
        }
    }

    /// Default harness scale.
    pub fn harness() -> Self {
        AspParams {
            vertices: 192,
            seed: 42,
            edge_percent: 30,
        }
    }

    /// A tiny instance for unit tests.
    pub fn quick() -> Self {
        AspParams {
            vertices: 48,
            seed: 7,
            edge_percent: 35,
        }
    }
}

/// Result of an ASP run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AspResult {
    /// Sum of all finite pairwise distances (digest for verification).
    pub distance_sum: i64,
    /// Number of vertex pairs that remain unreachable.
    pub unreachable_pairs: u64,
}

/// Generate the dense adjacency matrix of a random directed graph.
pub fn generate_graph(params: &AspParams) -> Vec<Vec<i64>> {
    let n = params.vertices;
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut d = vec![vec![INFINITY; n]; n];
    for (i, row) in d.iter_mut().enumerate() {
        for (j, cell) in row.iter_mut().enumerate() {
            if i == j {
                *cell = 0;
            } else if rng.gen_range(0..100) < params.edge_percent {
                *cell = rng.gen_range(1..100);
            }
        }
    }
    d
}

/// Digest of a distance matrix: (sum of finite distances, unreachable pairs).
pub fn digest(d: &[Vec<i64>]) -> (i64, u64) {
    let mut sum = 0i64;
    let mut unreachable = 0u64;
    for row in d {
        for &v in row {
            if v >= INFINITY {
                unreachable += 1;
            } else {
                sum += v;
            }
        }
    }
    (sum, unreachable)
}

/// Sequential Floyd-Warshall reference.
#[allow(clippy::needless_range_loop)]
pub fn sequential(params: &AspParams) -> AspResult {
    let n = params.vertices;
    let mut d = generate_graph(params);
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
    let (distance_sum, unreachable_pairs) = digest(&d);
    AspResult {
        distance_sum,
        unreachable_pairs,
    }
}

/// Per-inner-iteration instruction mix: integer add + compare with the row
/// references and `d[i][k]` hoisted out of the loop — the paper's "integer
/// add and an integer compare" with a conditional store.
fn inner_mix() -> OpCounts {
    OpCounts::new()
        .with(Op::IntAlu, 2.0)
        .with(Op::Load, 2.0)
        .with(Op::Store, 0.5)
        .with(Op::Branch, 2.0)
}

/// Run the ASP benchmark under `config`.
pub fn run(config: HyperionConfig, params: &AspParams) -> RunOutcome<AspResult> {
    let runtime = HyperionRuntime::new(config).expect("invalid Hyperion configuration");
    let threads = runtime.config().total_app_threads();
    let nodes = runtime.nodes();
    let n = params.vertices;
    let graph = generate_graph(params);

    runtime.run(move |ctx| {
        // The distance matrix: block-of-rows distribution.
        let owner_of_row = move |r: usize| {
            let mut owner = threads - 1;
            for t in 0..threads {
                let (s, e) = block_range(n, threads, t);
                if r >= s && r < e {
                    owner = t;
                    break;
                }
            }
            node_of_thread(owner, nodes)
        };
        let dist: HMatrix<i64> = ctx.alloc_matrix(n, n, owner_of_row);
        let barrier = JBarrier::new(ctx, threads, NodeId(0));

        let mut handles = Vec::with_capacity(threads);
        for t in 0..threads {
            let barrier = barrier.clone();
            // Each worker receives its block of the input graph by value
            // (the Java program reads the input file on every node).
            let (row_start, row_end) = block_range(n, threads, t);
            let my_rows: Vec<Vec<i64>> = graph[row_start..row_end].to_vec();
            handles.push(ctx.spawn_on(node_of_thread(t, nodes), move |worker| {
                let per_inner = worker.estimate(&inner_mix());
                let init_mix = worker.estimate(
                    &OpCounts::new()
                        .with(Op::Store, 1.0)
                        .with(Op::IntAlu, 2.0)
                        .with(Op::Branch, 1.0),
                );

                // Row handles are fetched once: the row references never
                // change, so the cache stays valid across every barrier.
                let rows = dist.rows_view(worker);

                // Initialise the owned rows (bulk, one write per row).
                for (off, src_row) in my_rows.iter().enumerate() {
                    rows.row(row_start + off).write_slice(worker, 0, src_row);
                    worker.charge_iters(&init_mix, n as u64);
                }
                barrier.arrive(worker);

                // Floyd-Warshall pivot loop.  The relaxation kernel stays
                // deliberately element-wise: its "integer add and integer
                // compare while performing three object-locality checks" is
                // the effect the paper measures on ASP.
                for k in 0..n {
                    let pivot_row = rows.row(k);
                    // Issue the pivot-row fetch as early as the consistency
                    // window allows — right after the barrier's acquire
                    // invalidated the cache.  Under the overlapped transport
                    // its latency hides behind the leading local rows.
                    pivot_row.prefetch(worker);
                    for i in row_start..row_end {
                        let row_i = rows.row(i);
                        let dik = row_i.get(worker, k);
                        if dik >= INFINITY {
                            worker.charge_iters(&per_inner, 1);
                            continue;
                        }
                        for j in 0..n {
                            let via = dik + pivot_row.get(worker, j);
                            if via < row_i.get(worker, j) {
                                row_i.put(worker, j, via);
                            }
                        }
                        worker.charge_iters(&per_inner, n as u64);
                    }
                    barrier.arrive(worker);
                }
            }));
        }
        for h in handles {
            ctx.join(h);
        }

        // Digest the final matrix (bulk row reads).  All row fetches are
        // issued up front: no acquire happens during the scan, so the
        // copies stay valid, and under the overlapped transport the
        // round trips pipeline instead of paying one stall per row.
        let rows = dist.rows_view(ctx);
        for i in 0..n {
            rows.row(i).prefetch(ctx);
        }
        let mut distance_sum = 0i64;
        let mut unreachable_pairs = 0u64;
        for i in 0..n {
            let row = rows.row_view(ctx, i);
            for v in row.iter() {
                if v >= INFINITY {
                    unreachable_pairs += 1;
                } else {
                    distance_sum += v;
                }
            }
        }
        AspResult {
            distance_sum,
            unreachable_pairs,
        }
    })
}

impl Benchmark for AspParams {
    fn name(&self) -> BenchmarkName {
        BenchmarkName::Asp
    }

    fn execute(&self, config: HyperionConfig) -> (f64, RunReport) {
        let out = run(config, self);
        (out.result.distance_sum as f64, out.report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(nodes: usize, protocol: ProtocolKind) -> HyperionConfig {
        HyperionConfig::new(myrinet_200(), nodes, protocol)
    }

    #[test]
    fn graph_generation_is_deterministic() {
        let params = AspParams::quick();
        let a = generate_graph(&params);
        let b = generate_graph(&params);
        assert_eq!(a, b);
        let other = generate_graph(&AspParams { seed: 8, ..params });
        assert_ne!(a, other);
        // Diagonal is zero.
        for (i, row) in a.iter().enumerate() {
            assert_eq!(row[i], 0);
        }
    }

    #[test]
    fn sequential_floyd_never_increases_distances() {
        let params = AspParams::quick();
        let before = digest(&generate_graph(&params));
        let after = sequential(&params);
        assert!(after.unreachable_pairs <= before.1);
        // Triangle inequality spot check: all distances are non-negative.
        assert!(after.distance_sum >= 0);
    }

    #[test]
    fn parallel_matches_sequential_for_both_protocols() {
        let params = AspParams::quick();
        let expected = sequential(&params);
        for protocol in ProtocolKind::all() {
            for nodes in [1, 3] {
                let out = run(config(nodes, protocol), &params);
                assert_eq!(out.result, expected, "{protocol:?} on {nodes} nodes");
            }
        }
    }

    #[test]
    fn java_pf_beats_java_ic_by_a_wide_margin_on_asp() {
        // ASP is the paper's best case for java_pf (64% on Myrinet).  The
        // single-node comparison isolates the in-line-check overhead, exactly
        // like the leftmost points of the paper's Fig. 5.
        let params = AspParams {
            vertices: 96,
            seed: 7,
            edge_percent: 35,
        };
        let ic = run(config(1, ProtocolKind::JavaIc), &params)
            .report
            .execution_time
            .as_secs_f64();
        let pf = run(config(1, ProtocolKind::JavaPf), &params)
            .report
            .execution_time
            .as_secs_f64();
        let improvement = (ic - pf) / ic;
        assert!(
            improvement > 0.40,
            "expected a large improvement from removing checks, got {:.1}%",
            improvement * 100.0
        );
    }

    #[test]
    fn java_pf_beats_java_ic_on_asp_with_multiple_nodes() {
        let params = AspParams {
            vertices: 128,
            seed: 7,
            edge_percent: 35,
        };
        let ic = run(config(2, ProtocolKind::JavaIc), &params)
            .report
            .execution_time
            .as_secs_f64();
        let pf = run(config(2, ProtocolKind::JavaPf), &params)
            .report
            .execution_time
            .as_secs_f64();
        assert!(pf < ic, "pf={pf:.4}s should beat ic={ic:.4}s");
    }

    #[test]
    fn pivot_row_broadcast_generates_remote_reads() {
        let params = AspParams::quick();
        let out = run(config(4, ProtocolKind::JavaPf), &params);
        let total = out.report.total_stats();
        assert!(total.page_loads > 0, "pivot rows must be fetched remotely");
        assert_eq!(
            total.barrier_waits as usize,
            4 * (params.vertices + 1),
            "one barrier per pivot iteration plus the initial one"
        );
    }

    #[test]
    fn benchmark_trait_reports_figure_five() {
        let params = AspParams::quick();
        assert_eq!(params.name().figure(), 5);
        let (digest_value, _) = params.execute(config(2, ProtocolKind::JavaPf));
        assert_eq!(digest_value, sequential(&params).distance_sum as f64);
    }
}
