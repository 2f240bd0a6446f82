//! PageRank: an irregular graph kernel over a seeded edge list (Fig. 9, the
//! serving-workload extension).
//!
//! The graph is generated from a seed with hub-skewed in-edges: every vertex
//! draws its in-neighbours from a Zipf-like mix that prefers a small set of
//! hub vertices, so the rank reads of one vertex scatter across the whole
//! vertex range — non-strided page access that defeats stride and
//! successor-pair prediction by construction.
//!
//! Vertices are block-partitioned over the worker threads; each thread owns
//! its block of the double-buffered rank arrays (homed on its node) and
//! pulls contributions from its in-neighbours in fixed list order, so every
//! floating-point sum is order-deterministic.  A barrier separates
//! iterations, exactly like Jacobi's timestep loop: the acquire invalidates
//! the caches, forcing the next iteration to re-fetch the remote rank pages
//! its irregular reads touch.
//!
//! Each vertex update is one serving-style operation: its modeled latency is
//! recorded via [`ThreadCtx::record_serving_op`] and folded into the
//! throughput / p99 columns of the fig9 report.

use hyperion::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{benchmark, block_range, node_of_thread, Benchmark, BenchmarkName};

/// PageRank damping factor.
const DAMPING: f64 = 0.85;

/// Parameters of the PageRank benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PageRankParams {
    /// Number of vertices.
    pub vertices: usize,
    /// Average in-degree of a vertex (each vertex draws `1..=2*degree`
    /// in-neighbours).
    pub degree: usize,
    /// Power iterations to run.
    pub iterations: usize,
    /// Seed of the edge-list generator.
    pub seed: u64,
}

impl PageRankParams {
    /// Full-scale serving instance.
    pub fn paper() -> Self {
        PageRankParams {
            vertices: 8_192,
            degree: 16,
            iterations: 20,
            seed: 0x6_1AF,
        }
    }

    /// Default harness scale.
    pub fn harness() -> Self {
        PageRankParams {
            vertices: 2_048,
            degree: 8,
            iterations: 10,
            seed: 0x6_1AF,
        }
    }

    /// A tiny instance for unit tests.
    pub fn quick() -> Self {
        PageRankParams {
            vertices: 192,
            degree: 4,
            iterations: 4,
            seed: 0x6_1AF,
        }
    }
}

/// A generated graph: flattened in-edge lists plus out-degrees.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EdgeList {
    /// `offsets[v]..offsets[v + 1]` indexes `sources` with vertex `v`'s
    /// in-neighbours, in generation order.
    pub offsets: Vec<u64>,
    /// Flattened in-neighbour lists.
    pub sources: Vec<u64>,
    /// Out-degree of every vertex (how many in-lists it appears in).
    pub out_degree: Vec<u64>,
}

/// Generate the seeded hub-skewed edge list.
///
/// Pure function of `params`: the parallel kernel and the sequential
/// reference both call it and operate on identical edges.
pub fn generate_edges(params: &PageRankParams) -> EdgeList {
    let n = params.vertices;
    let hubs = (n / 16).max(1);
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut offsets = Vec::with_capacity(n + 1);
    let mut sources = Vec::new();
    let mut out_degree = vec![0u64; n];
    offsets.push(0);
    for v in 0..n {
        let degree = rng.gen_range(1..2 * params.degree.max(1) + 1);
        for _ in 0..degree {
            // Hub-skewed source choice: half the edges come from the small
            // hub set, the rest from anywhere — the "celebrity followee"
            // shape of serving-style graphs.
            let u = if rng.gen_range(0u32..2) == 0 {
                rng.gen_range(0..hubs)
            } else {
                rng.gen_range(0..n)
            };
            // Self-loops would let a vertex read its own in-flight buffer;
            // redirect them to the next vertex.
            let u = if u == v { (u + 1) % n } else { u };
            sources.push(u as u64);
            out_degree[u] += 1;
        }
        offsets.push(sources.len() as u64);
    }
    EdgeList {
        offsets,
        sources,
        out_degree,
    }
}

/// Result of a PageRank run.
#[derive(Clone, Debug, PartialEq)]
pub struct PageRankResult {
    /// Weighted fixed-order sum of the final ranks (the digest).
    pub digest: f64,
    /// Rank of vertex 0 (a hub) after the last iteration.
    pub hub_rank: f64,
}

/// Per-edge instruction mix: load the source rank and its out-degree,
/// one divide + add in double precision, plus list/index bookkeeping.
fn edge_mix() -> OpCounts {
    OpCounts::new()
        .with(Op::FpAdd, 1.0)
        .with(Op::FpMul, 1.0)
        .with(Op::Load, 3.0)
        .with(Op::IntAlu, 4.0)
        .with(Op::Branch, 2.0)
}

fn digest_of(ranks: &[f64]) -> (f64, f64) {
    let mut digest = 0.0;
    for (v, r) in ranks.iter().enumerate() {
        digest += r * ((v % 16) + 1) as f64;
    }
    (digest, ranks[0])
}

/// Sequential reference implementation.
pub fn sequential(params: &PageRankParams) -> PageRankResult {
    let n = params.vertices;
    let edges = generate_edges(params);
    let mut cur = vec![1.0 / n as f64; n];
    let mut next = vec![0.0f64; n];
    for _ in 0..params.iterations {
        for (v, slot) in next.iter_mut().enumerate() {
            let mut acc = 0.0;
            for e in edges.offsets[v]..edges.offsets[v + 1] {
                let u = edges.sources[e as usize] as usize;
                acc += cur[u] / edges.out_degree[u].max(1) as f64;
            }
            *slot = (1.0 - DAMPING) / n as f64 + DAMPING * acc;
        }
        std::mem::swap(&mut cur, &mut next);
    }
    let (digest, hub_rank) = digest_of(&cur);
    PageRankResult { digest, hub_rank }
}

/// Run PageRank under `config`.
pub fn run(config: HyperionConfig, params: &PageRankParams) -> RunOutcome<PageRankResult> {
    assert!(params.vertices >= 4 && params.iterations > 0);
    let runtime = HyperionRuntime::new(config).expect("invalid Hyperion configuration");
    let threads = runtime.config().total_app_threads();
    let nodes = runtime.nodes();
    let params = *params;

    assert!(
        params.vertices >= runtime.config().total_app_threads(),
        "every thread needs at least one vertex"
    );

    runtime.run(move |ctx| {
        let n = params.vertices;
        let edges = generate_edges(&params);

        // Double-buffered ranks distributed by vertex block (each row of the
        // two matrices is one vertex block, homed on its owner), so a rank
        // read of a random source vertex is remote whenever the source lives
        // in another thread's block — the irregular access this app exists
        // to produce.
        let rank_a: HMatrix<f64> =
            ctx.alloc_matrix(threads, n.div_ceil(threads), |t| node_of_thread(t, nodes));
        let rank_b: HMatrix<f64> =
            ctx.alloc_matrix(threads, n.div_ceil(threads), |t| node_of_thread(t, nodes));
        // The adjacency structure is read-only after this init; each block's
        // slice is homed on its owner so only rank reads travel.
        let offsets = ctx.alloc_array::<u64>(n + 1, NodeId(0));
        offsets.write_slice(ctx, 0, &edges.offsets);
        let sources = ctx.alloc_array::<u64>(edges.sources.len().max(1), NodeId(0));
        if !edges.sources.is_empty() {
            sources.write_slice(ctx, 0, &edges.sources);
        }
        let out_degree = ctx.alloc_array::<u64>(n, NodeId(0));
        out_degree.write_slice(ctx, 0, &edges.out_degree);
        let barrier = JBarrier::new(ctx, threads, NodeId(0));

        let block_of = move |v: usize| {
            let cols = n.div_ceil(threads);
            let t = v * threads / ((cols * threads).max(1));
            // Blocks are `block_range` blocks, not fixed-stride rows; map by
            // scanning from the estimate (at most one step off).
            let mut t = t.min(threads - 1);
            loop {
                let (s, e) = block_range(n, threads, t);
                if v < s {
                    t -= 1;
                } else if v >= e {
                    t += 1;
                } else {
                    return (t, v - s);
                }
            }
        };

        let mut handles = Vec::with_capacity(threads);
        for t in 0..threads {
            let barrier = barrier.clone();
            handles.push(ctx.spawn_on(node_of_thread(t, nodes), move |worker| {
                let (start, end) = block_range(n, threads, t);
                let per_edge = worker.estimate(&edge_mix());
                // Every thread initialises its own block in both buffers.
                let init = vec![1.0 / n as f64; end - start];
                rank_a.row(worker, t).write_slice(worker, 0, &init);
                rank_b.row(worker, t).write_slice(worker, 0, &init);
                // Pin the read-only adjacency of this block once: offsets
                // and lists never change, so the cached pages stay valid
                // until the first barrier.
                let first = offsets.get(worker, start);
                let last = offsets.get(worker, end);
                let my_offsets = offsets.read_slice(worker, start..end + 1);
                let my_sources = sources.read_slice(worker, first as usize..last as usize);
                barrier.arrive(worker);

                let (mut cur, mut next) = (rank_a, rank_b);
                for _ in 0..params.iterations {
                    for v in start..end {
                        let began = worker.now();
                        let lo = (my_offsets[v - start] - first) as usize;
                        let hi = (my_offsets[v - start + 1] - first) as usize;
                        let mut acc = 0.0;
                        for &u in &my_sources[lo..hi] {
                            let (ub, uo) = block_of(u as usize);
                            let rank = cur.get(worker, ub, uo);
                            let deg = out_degree.get(worker, u as usize).max(1);
                            acc += rank / deg as f64;
                        }
                        let value = (1.0 - DAMPING) / n as f64 + DAMPING * acc;
                        next.put(worker, t, v - start, value);
                        worker.charge_iters(&per_edge, (hi - lo) as u64);
                        worker.record_serving_op(worker.now() - began);
                    }
                    std::mem::swap(&mut cur, &mut next);
                    barrier.arrive(worker);
                }
            }));
        }
        for h in handles {
            ctx.join(h);
        }

        // Fixed-order final sweep over the buffer holding the last result.
        let finals = if params.iterations % 2 == 0 {
            rank_a
        } else {
            rank_b
        };
        let mut ranks = Vec::with_capacity(n);
        for t in 0..threads {
            let (s, e) = block_range(n, threads, t);
            ranks.extend(finals.row(ctx, t).read_slice(ctx, 0..e - s));
        }
        let (digest, hub_rank) = digest_of(&ranks);
        PageRankResult { digest, hub_rank }
    })
}

benchmark!(PageRankParams, PageRank, |result| result.digest);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::config;

    #[test]
    fn edge_generation_is_seed_deterministic() {
        let params = PageRankParams::quick();
        let a = generate_edges(&params);
        let b = generate_edges(&params);
        assert_eq!(a, b);
        let c = generate_edges(&PageRankParams {
            seed: params.seed + 1,
            ..params
        });
        assert_ne!(a, c, "a different seed must draw a different graph");
        // Structural sanity: offsets are monotone and cover the edge list,
        // every vertex has at least one in-edge, and the edge budget matches
        // the configured average degree band.
        assert_eq!(a.offsets.len(), params.vertices + 1);
        assert_eq!(*a.offsets.last().unwrap() as usize, a.sources.len());
        for v in 0..params.vertices {
            assert!(a.offsets[v] < a.offsets[v + 1]);
        }
        assert!(a.sources.len() >= params.vertices);
        assert!(a.sources.len() <= params.vertices * 2 * params.degree);
        assert_eq!(
            a.out_degree.iter().sum::<u64>() as usize,
            a.sources.len(),
            "out-degrees must count every edge exactly once"
        );
    }

    #[test]
    fn hubs_dominate_the_out_degrees() {
        let params = PageRankParams::quick();
        let edges = generate_edges(&params);
        let hubs = params.vertices / 16;
        let hub_edges: u64 = edges.out_degree[..hubs].iter().sum();
        let total: u64 = edges.out_degree.iter().sum();
        assert!(
            hub_edges * 3 > total,
            "hub set carries only {hub_edges} of {total} edges"
        );
    }

    #[test]
    fn parallel_matches_sequential_for_every_protocol() {
        let params = PageRankParams::quick();
        let expected = sequential(&params);
        for protocol in ProtocolKind::all_extended() {
            for nodes in [1, 3] {
                let out = run(config(nodes, protocol), &params);
                let tolerance = expected.digest.abs().max(1.0) * 1e-12;
                assert!(
                    (out.result.digest - expected.digest).abs() <= tolerance,
                    "{protocol:?}/{nodes} nodes: {} vs {}",
                    out.result.digest,
                    expected.digest
                );
                assert!((out.result.hub_rank - expected.hub_rank).abs() <= 1e-12);
            }
        }
    }

    #[test]
    fn rank_mass_is_conserved_within_damping_leak() {
        // With dangling-vertex mass leaking, total rank stays in (0, 1].
        let params = PageRankParams::quick();
        let r = sequential(&params);
        assert!(r.digest > 0.0);
        assert!(
            r.hub_rank > 1.0 / params.vertices as f64,
            "hubs must gain rank"
        );
    }

    #[test]
    fn irregular_reads_produce_remote_traffic_and_serving_ops() {
        let params = PageRankParams::quick();
        let out = run(config(4, ProtocolKind::JavaPf), &params);
        let total = out.report.total_stats();
        assert!(total.page_loads > 0, "irregular reads must fetch pages");
        assert_eq!(
            total.serving_ops as usize,
            params.vertices * params.iterations,
            "one serving op per vertex update"
        );
        assert!(out.report.serving_p99 > VTime::ZERO);
    }

    #[test]
    fn benchmark_trait_reports_figure_nine() {
        let params = PageRankParams::quick();
        assert_eq!(params.name().figure(), 9);
        let (digest, _) = params.execute(config(2, ProtocolKind::JavaAd));
        let expected = sequential(&params);
        assert!((digest - expected.digest).abs() <= expected.digest.abs() * 1e-12);
    }
}
