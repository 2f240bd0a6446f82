//! TSP: branch-and-bound travelling salesperson (Fig. 4).
//!
//! The paper (§4.1): "TSP is a branch-and-bound solution to the Traveling
//! Salesperson Problem, computing the shortest path connecting all cities in
//! a given set.  We solved a 17-city problem. [...] TSP uses a central queue
//! of work to be performed, as well as centrally storing the best solution
//! seen so far.  Of course, these 'central' data structures are stored on a
//! single node, protected by a Java monitor, and must be fetched by threads
//! executing on other nodes."
//!
//! The implementation mirrors that structure: the distance matrix, the queue
//! of partial tours and the global best bound all live on node 0; workers
//! repeatedly take a partial tour from the queue (under the queue monitor),
//! expand it with a depth-first search that prunes against the shared bound,
//! and publish improvements under the bound monitor.

use hyperion::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{benchmark, node_of_thread, Benchmark, BenchmarkName};

/// Parameters of the TSP benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TspParams {
    /// Number of cities.
    pub cities: usize,
    /// Seed of the random city-distance generator.
    pub seed: u64,
    /// Length of the partial tours placed in the central queue (the
    /// branch-and-bound "frontier depth").
    pub queue_depth: usize,
}

impl TspParams {
    /// The paper's problem size: 17 cities.
    pub fn paper() -> Self {
        TspParams {
            cities: 17,
            seed: 2001,
            queue_depth: 3,
        }
    }

    /// Default harness scale.
    pub fn harness() -> Self {
        TspParams {
            cities: 11,
            seed: 2001,
            queue_depth: 3,
        }
    }

    /// A tiny instance for unit tests.
    pub fn quick() -> Self {
        TspParams {
            cities: 9,
            seed: 5,
            queue_depth: 2,
        }
    }
}

/// Result of a TSP run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TspResult {
    /// Length of the shortest tour found.
    pub best_tour: i64,
    /// Number of partial tours that were expanded from the central queue.
    pub tours_expanded: u64,
}

/// Generate a symmetric distance matrix for `cities` random points on a
/// 1000×1000 grid (rounded Euclidean distances).
pub fn generate_distances(params: &TspParams) -> Vec<Vec<i64>> {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let pts: Vec<(f64, f64)> = (0..params.cities)
        .map(|_| (rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)))
        .collect();
    let n = params.cities;
    let mut d = vec![vec![0i64; n]; n];
    for i in 0..n {
        for j in 0..n {
            let dx = pts[i].0 - pts[j].0;
            let dy = pts[i].1 - pts[j].1;
            d[i][j] = (dx * dx + dy * dy).sqrt().round() as i64;
        }
    }
    d
}

/// Exhaustive sequential branch-and-bound reference.
pub fn sequential(params: &TspParams) -> i64 {
    let d = generate_distances(params);
    let n = params.cities;
    let mut visited = vec![false; n];
    visited[0] = true;
    let mut best = i64::MAX;
    fn dfs(
        d: &[Vec<i64>],
        visited: &mut [bool],
        current: usize,
        count: usize,
        length: i64,
        best: &mut i64,
    ) {
        let n = d.len();
        if length >= *best {
            return;
        }
        if count == n {
            let total = length + d[current][0];
            if total < *best {
                *best = total;
            }
            return;
        }
        for next in 1..n {
            if !visited[next] {
                visited[next] = true;
                dfs(d, visited, next, count + 1, length + d[current][next], best);
                visited[next] = false;
            }
        }
    }
    dfs(&d, &mut visited, 0, 1, 0, &mut best);
    best
}

/// Enumerate the partial tours of length `depth + 1` (starting at city 0)
/// that seed the central work queue.
fn initial_tours(cities: usize, depth: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut stack = vec![vec![0usize]];
    while let Some(prefix) = stack.pop() {
        if prefix.len() == depth + 1 || prefix.len() == cities {
            out.push(prefix);
            continue;
        }
        for next in 1..cities {
            if !prefix.contains(&next) {
                let mut p = prefix.clone();
                p.push(next);
                stack.push(p);
            }
        }
    }
    out
}

/// Per-edge-relaxation instruction mix of the DFS inner step (distance
/// lookup, accumulate, bound compare, visited-set bookkeeping).
fn edge_mix() -> OpCounts {
    OpCounts::new()
        .with(Op::IntAlu, 3.0)
        .with(Op::Load, 2.0)
        .with(Op::Branch, 2.0)
        .with(Op::CallOverhead, 0.5)
}

/// Run the TSP benchmark under `config`.
pub fn run(config: HyperionConfig, params: &TspParams) -> RunOutcome<TspResult> {
    assert!(params.cities >= 3, "TSP needs at least 3 cities");
    assert!(
        params.queue_depth + 1 < params.cities,
        "queue depth must leave work for the search phase"
    );
    let runtime = HyperionRuntime::new(config).expect("invalid Hyperion configuration");
    let threads = runtime.config().total_app_threads();
    let nodes = runtime.nodes();
    let n = params.cities;
    let distances = generate_distances(params);
    let seeds = initial_tours(n, params.queue_depth);

    runtime.run(move |ctx| {
        // Central data structures, all homed on node 0 as in the paper.
        // Setup writes whole rows in bulk: detection per page, not per slot.
        let dist: HArray<i64> = ctx.alloc_array(n * n, NodeId(0));
        let flat: Vec<i64> = distances.iter().flatten().copied().collect();
        dist.write_slice(ctx, 0, &flat);

        // The work queue: a flat array of partial tours (each padded to n
        // entries, -1 terminated) plus a monitor-protected head index.
        let tour_len = n;
        let queue: HArray<i64> = ctx.alloc_array(seeds.len() * tour_len, NodeId(0));
        let flat_queue: Vec<i64> = seeds
            .iter()
            .flat_map(|tour| {
                (0..tour_len).map(|slot| tour.get(slot).map(|&c| c as i64).unwrap_or(-1))
            })
            .collect();
        queue.write_slice(ctx, 0, &flat_queue);
        let queue_head = SharedCounter::new(ctx, NodeId(0), 0);
        let num_seeds = seeds.len() as u64;

        // The global best bound: the shortest complete tour found so far.
        let best = ctx.alloc_array::<i64>(1, NodeId(0));
        best.put(ctx, 0, i64::MAX);
        let best_monitor = ctx.new_monitor(NodeId(0));

        let expanded = ctx.alloc_array::<u64>(threads.max(1), NodeId(0));
        // All workers start pulling from the central queue together (the
        // Java program joins a start barrier after construction); without
        // it, thread start-up skew would let the first worker drain the
        // queue and the dynamic load balancing would be meaningless.
        let start_barrier = JBarrier::new(ctx, threads, NodeId(0));

        let mut handles = Vec::with_capacity(threads);
        for t in 0..threads {
            let queue_head = queue_head.clone();
            let best_monitor = best_monitor.clone();
            let start_barrier = start_barrier.clone();
            handles.push(ctx.spawn_on(node_of_thread(t, nodes), move |worker| {
                let per_edge = worker.estimate(&edge_mix());
                let mut my_expanded = 0u64;
                start_barrier.arrive(worker);

                loop {
                    // Take the next partial tour from the central queue.
                    let index = queue_head.next(worker);
                    if index >= num_seeds {
                        break;
                    }
                    my_expanded += 1;

                    // Read the partial tour from shared memory: one bulk
                    // read of the padded entry instead of per-slot gets.
                    let start_slot = index as usize * tour_len;
                    let entry = queue.read_slice(worker, start_slot..start_slot + tour_len);
                    let prefix: Vec<usize> = entry
                        .iter()
                        .take_while(|&&v| v >= 0)
                        .map(|&v| v as usize)
                        .collect();

                    // Read the current global bound (under its monitor).
                    let mut local_best: i64 = best_monitor.synchronized(worker, |w| best.get(w, 0));

                    // Depth-first expansion.  The recursion state is local;
                    // every distance lookup goes through the DSM.
                    let mut visited = vec![false; n];
                    let mut length = 0i64;
                    for w in prefix.windows(2) {
                        length += dist.get(worker, w[0] * n + w[1]);
                        worker.charge_iters(&per_edge, 1);
                    }
                    for &c in &prefix {
                        visited[c] = true;
                    }
                    let start = *prefix.last().expect("non-empty prefix");
                    branch_and_bound(
                        worker,
                        &dist,
                        n,
                        &mut visited,
                        start,
                        prefix.len(),
                        length,
                        &mut local_best,
                        &per_edge,
                    );

                    // Publish an improved bound.
                    best_monitor.synchronized(worker, |w| {
                        let global = best.get(w, 0);
                        if local_best < global {
                            best.put(w, 0, local_best);
                        } else {
                            local_best = global;
                        }
                    });
                }
                expanded.put(worker, t, my_expanded);
            }));
        }
        for h in handles {
            ctx.join(h);
        }

        let best_tour: i64 = best_monitor.synchronized(ctx, |c| best.get(c, 0));
        let tours_expanded: u64 = expanded.read_slice(ctx, ..).iter().sum();
        TspResult {
            best_tour,
            tours_expanded,
        }
    })
}

/// Depth-first branch-and-bound over the remaining cities.  The recursion
/// state (visited set, partial length) is thread-local; every distance
/// lookup goes through the DSM, exactly like the compiled Java code.
#[allow(clippy::too_many_arguments)]
fn branch_and_bound(
    worker: &mut ThreadCtx,
    dist: &HArray<i64>,
    n: usize,
    visited: &mut [bool],
    current: usize,
    count: usize,
    length: i64,
    best: &mut i64,
    per_edge: &WorkEstimate,
) {
    if length >= *best {
        return;
    }
    if count == n {
        let closing = dist.get(worker, current * n);
        worker.charge_iters(per_edge, 1);
        let total = length + closing;
        if total < *best {
            *best = total;
        }
        return;
    }
    for next in 1..n {
        if !visited[next] {
            let step = dist.get(worker, current * n + next);
            worker.charge_iters(per_edge, 1);
            let new_length = length + step;
            if new_length < *best {
                visited[next] = true;
                branch_and_bound(
                    worker,
                    dist,
                    n,
                    visited,
                    next,
                    count + 1,
                    new_length,
                    best,
                    per_edge,
                );
                visited[next] = false;
            }
        }
    }
}

benchmark!(TspParams, Tsp, |result| result.best_tour as f64);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::config;

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn distance_matrix_is_symmetric_with_zero_diagonal() {
        let params = TspParams::quick();
        let d = generate_distances(&params);
        for i in 0..params.cities {
            assert_eq!(d[i][i], 0);
            for j in 0..params.cities {
                assert_eq!(d[i][j], d[j][i]);
                assert!(d[i][j] >= 0);
            }
        }
    }

    #[test]
    fn initial_tours_partition_the_permutation_space() {
        let tours = initial_tours(6, 2);
        // 5 choices for the second city × 4 for the third.
        assert_eq!(tours.len(), 20);
        for t in &tours {
            assert_eq!(t[0], 0);
            assert_eq!(t.len(), 3);
            let mut sorted = t.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "tour must not repeat cities: {t:?}");
        }
    }

    #[test]
    fn sequential_finds_the_optimal_tour_on_a_known_instance() {
        // A 4-city instance small enough to verify by hand: the optimal tour
        // 0-1-2-3-0 has length 4+1+2+3 = 10 ... use brute force instead.
        let params = TspParams {
            cities: 7,
            seed: 11,
            queue_depth: 2,
        };
        let best = sequential(&params);
        // Brute-force check.
        let d = generate_distances(&params);
        let mut cities: Vec<usize> = (1..params.cities).collect();
        let mut brute = i64::MAX;
        permute(&mut cities, 0, &mut |perm| {
            let mut len = 0;
            let mut prev = 0;
            for &c in perm {
                len += d[prev][c];
                prev = c;
            }
            len += d[prev][0];
            if len < brute {
                brute = len;
            }
        });
        assert_eq!(best, brute);
    }

    fn permute(v: &mut Vec<usize>, k: usize, f: &mut impl FnMut(&[usize])) {
        if k == v.len() {
            f(v);
            return;
        }
        for i in k..v.len() {
            v.swap(k, i);
            permute(v, k + 1, f);
            v.swap(k, i);
        }
    }

    #[test]
    fn parallel_matches_sequential_for_both_protocols() {
        let params = TspParams::quick();
        let expected = sequential(&params);
        for protocol in ProtocolKind::all() {
            for nodes in [1, 3] {
                let out = run(config(nodes, protocol), &params);
                assert_eq!(
                    out.result.best_tour, expected,
                    "{protocol:?} on {nodes} nodes"
                );
                // Every seed tour is expanded exactly once across all workers.
                let seeds = initial_tours(params.cities, params.queue_depth).len() as u64;
                assert_eq!(out.result.tours_expanded, seeds);
            }
        }
    }

    #[test]
    fn central_structures_cause_remote_monitor_traffic() {
        let params = TspParams::quick();
        let out = run(config(4, ProtocolKind::JavaPf), &params);
        let total = out.report.total_stats();
        // Workers on nodes 1..3 must acquire the node-0 queue and bound
        // monitors remotely.
        assert!(total.remote_monitor_acquires > 0);
        assert!(total.page_loads > 0);
    }

    #[test]
    fn java_pf_beats_java_ic_on_tsp() {
        // Enough cities that the search dominates the queue/bound monitor
        // traffic (as with the paper's 17-city instance).
        let params = TspParams {
            cities: 11,
            seed: 5,
            queue_depth: 2,
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
    fn benchmark_trait_reports_figure_four() {
        let params = TspParams::quick();
        assert_eq!(params.name().figure(), 4);
        // One node under `java_ad`: a configuration the quick matrix lacks.
        let (digest, _) = params.execute(config(1, ProtocolKind::JavaAd));
        assert_eq!(digest, sequential(&params) as f64);
    }
}
