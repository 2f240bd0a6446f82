//! KVStore: a Zipf-skewed sharded key-value/session store (Fig. 9, the
//! serving-workload extension).
//!
//! Unlike the paper's barrier-phased kernels, this app looks like production
//! traffic: every client thread hammers a set of HArray-backed shards with
//! reads drawn from a Zipf distribution (configurable skew `s`, seeded per
//! thread so the request stream is deterministic) plus a small write tail.
//! Writes are monitor-protected read-modify-write increments on the owning
//! shard's monitor — the Java idiom `synchronized (shard) { v = get(k);
//! put(k, v + delta); }` — so each write is an acquire/release pair: the
//! acquire drops only the copies some notice outdates, the grant of the
//! shard's monitor patches the copies of its node's pages, and the release
//! flushes the diff, which keeps the hot-shard pages churning between nodes.
//!
//! Determinism: increments commute, so the final store state is independent
//! of thread interleaving, and every per-thread request stream is a pure
//! function of the seed.  The digest folds the final state (swept by the
//! main thread after all clients join) with the request-stream checksum, so
//! it is identical across protocols, transports and policy mixes.
//!
//! Serving metrics: every operation's modeled latency (the span of the
//! client's virtual clock across the request) is recorded via
//! [`ThreadCtx::record_serving_op`], which feeds the run report's
//! throughput (`serving_ops / execution seconds`) and exact modeled p99.

use std::sync::Arc;

use hyperion::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{benchmark, node_of_thread, Benchmark, BenchmarkName};

/// A seeded Zipf(s) sampler over ranks `0..n` (rank 0 is the hottest): a
/// normalised harmonic CDF table, exact for any `s >= 0` (s = 0 is uniform),
/// searched by Chen and Asau's guide table (Devroye 1986 §III.2.4).
/// `guide[j]` is the first rank whose CDF is at least `j / m`, `m` the power
/// of two at or above `n`, and a draw `u` scans forward from
/// `guide[floor(u m)]`: both are exact in `f64`, so the start never passes
/// the rank a binary search returns, and a draw compares at most two
/// entries on average.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
    guide: Vec<u32>,
}

impl Zipf {
    /// Build the sampler for `n` ranks with skew parameter `s`.
    ///
    /// # Panics
    /// Panics if `n` is zero or `s` is negative/non-finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(
            s >= 0.0 && s.is_finite(),
            "Zipf skew must be finite and >= 0"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 1..=n {
            acc += (k as f64).powf(-s);
            cdf.push(acc);
        }
        for c in cdf.iter_mut() {
            *c /= acc;
        }
        // The last entry is `acc / acc`, exactly 1: every scan stops on it.
        let m = n.next_power_of_two();
        let mut rank = 0;
        let guide = (0..m)
            .map(|j| {
                while cdf[rank] < j as f64 / m as f64 {
                    rank += 1;
                }
                u32::try_from(rank).expect("Zipf ranks fit a u32")
            })
            .collect();
        Zipf { cdf, guide }
    }

    /// Draw one rank.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        let m = self.guide.len();
        let mut rank = self.guide[((u * m as f64) as usize).min(m - 1)] as usize;
        while self.cdf[rank] < u {
            rank += 1;
        }
        rank
    }
}

/// Parameters of the KV-store benchmark.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KvStoreParams {
    /// Total number of keys in the store.
    pub keys: usize,
    /// Number of shards the key space is striped over (`shard = key % shards`,
    /// so consecutive hot keys land on different shards).
    pub shards: usize,
    /// Requests each client thread issues.
    pub ops_per_thread: usize,
    /// Zipf skew parameter `s` of the key popularity distribution.
    pub zipf_s: f64,
    /// Writes per 1000 requests (the write tail; the paper-style serving mix
    /// keeps this in the 50–100 range).
    pub write_per_mille: u32,
    /// Seed of the deterministic request streams.
    pub seed: u64,
}

impl KvStoreParams {
    /// Full-scale serving instance.
    pub fn paper() -> Self {
        KvStoreParams {
            keys: 65_536,
            shards: 32,
            ops_per_thread: 20_000,
            zipf_s: 0.99,
            write_per_mille: 64,
            seed: 0x005E_5510,
        }
    }

    /// Default harness scale.
    pub fn harness() -> Self {
        KvStoreParams {
            keys: 8_192,
            shards: 16,
            ops_per_thread: 2_500,
            zipf_s: 0.99,
            write_per_mille: 64,
            seed: 0x005E_5510,
        }
    }

    /// A tiny instance for unit tests.
    pub fn quick() -> Self {
        KvStoreParams {
            keys: 1_024,
            shards: 8,
            ops_per_thread: 250,
            zipf_s: 0.9,
            write_per_mille: 64,
            seed: 0x005E_5510,
        }
    }

    fn keys_per_shard(&self) -> usize {
        self.keys.div_ceil(self.shards)
    }
}

/// Result of a KV-store run.
#[derive(Clone, Debug, PartialEq)]
pub struct KvStoreResult {
    /// Weighted sum of the final store state plus the request-stream
    /// checksum (the cross-configuration digest).
    pub digest: f64,
    /// Requests completed (all threads).
    pub ops: u64,
    /// Writes performed (all threads).
    pub writes: u64,
}

/// Initial value of a key (a seeded but key-deterministic "session blob").
fn initial_value(key: usize) -> u64 {
    (key as u64).wrapping_mul(0x9E37) % 8_191
}

/// Increment a write applies to a key (commutative, hence
/// interleaving-independent).
fn write_delta(key: usize) -> u64 {
    (key as u64 % 7) + 1
}

/// Digest weight of a key in the final-state sweep.
fn key_weight(key: usize) -> u64 {
    (key as u64 % 63) + 1
}

/// Per-request bookkeeping mix: key hashing, shard lookup and the branchy
/// request dispatch a compiled serving loop would execute.
fn request_mix() -> OpCounts {
    OpCounts::new()
        .with(Op::IntAlu, 24.0)
        .with(Op::Load, 6.0)
        .with(Op::Store, 2.0)
        .with(Op::Branch, 8.0)
}

/// The RNG of client thread `t` (independent of every other thread's).
fn thread_rng(seed: u64, t: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Replay every client thread's request stream against a plain vector: the
/// sequential reference the parallel digest must match.
pub fn sequential(params: &KvStoreParams, threads: usize) -> KvStoreResult {
    let zipf = Zipf::new(params.keys, params.zipf_s);
    let mut store: Vec<u64> = (0..params.keys).map(initial_value).collect();
    let mut checksum = 0u64;
    let mut writes = 0u64;
    for t in 0..threads {
        let mut rng = thread_rng(params.seed, t);
        for _ in 0..params.ops_per_thread {
            let key = zipf.sample(&mut rng);
            checksum = checksum.wrapping_add(key as u64 + 1);
            if rng.gen_range(0u32..1000) < params.write_per_mille {
                store[key] += write_delta(key);
                writes += 1;
            }
        }
    }
    let weighted: u64 = store
        .iter()
        .enumerate()
        .map(|(k, v)| v * key_weight(k))
        .sum();
    KvStoreResult {
        digest: weighted as f64 + (checksum % 1_000_003) as f64,
        ops: (threads * params.ops_per_thread) as u64,
        writes,
    }
}

/// Run the KV store under `config`.
pub fn run(config: HyperionConfig, params: &KvStoreParams) -> RunOutcome<KvStoreResult> {
    assert!(params.shards > 0 && params.keys >= params.shards);
    assert!(params.write_per_mille <= 1000);
    let runtime = HyperionRuntime::new(config).expect("invalid Hyperion configuration");
    let threads = runtime.config().total_app_threads();
    let nodes = runtime.nodes();
    let params = *params;
    // One table for every client, built before any of them starts.
    let zipf = Arc::new(Zipf::new(params.keys, params.zipf_s));

    runtime.run(move |ctx| {
        let per_shard = params.keys_per_shard();
        // One page-aligned array + monitor per shard, homed round-robin so
        // the serving traffic spreads across the cluster; striped key
        // placement (`key % shards`) keeps the Zipf head off any one shard.
        let shards: Vec<(HArray<u64>, HMonitor)> = (0..params.shards)
            .map(|s| {
                let home = NodeId((s % nodes) as u32);
                let arr = ctx.alloc_array_page_aligned::<u64>(per_shard, home);
                (arr, ctx.new_monitor(home))
            })
            .collect();
        for (s, (arr, _)) in shards.iter().enumerate() {
            let init: Vec<u64> = (0..per_shard)
                .map(|slot| {
                    let key = slot * params.shards + s;
                    if key < params.keys {
                        initial_value(key)
                    } else {
                        0
                    }
                })
                .collect();
            arr.write_slice(ctx, 0, &init);
        }
        // Per-thread request-stream checksums and write counts, reported
        // through the DSM like any Java result array.
        let checksums = ctx.alloc_array::<u64>(threads.max(1), NodeId(0));
        let write_counts = ctx.alloc_array::<u64>(threads.max(1), NodeId(0));
        let start = JBarrier::new(ctx, threads, NodeId(0));

        let mut handles = Vec::with_capacity(threads);
        for t in 0..threads {
            let shards: Vec<(HArray<u64>, HMonitor)> = shards.to_vec();
            let start = start.clone();
            let zipf = Arc::clone(&zipf);
            handles.push(ctx.spawn_on(node_of_thread(t, nodes), move |worker| {
                let mut rng = thread_rng(params.seed, t);
                let per_request = worker.estimate(&request_mix());
                let mut checksum = 0u64;
                let mut writes = 0u64;
                let mut read_sink = 0u64;
                start.arrive(worker);
                for _ in 0..params.ops_per_thread {
                    let began = worker.now();
                    let key = zipf.sample(&mut rng);
                    checksum = checksum.wrapping_add(key as u64 + 1);
                    let (arr, monitor) = &shards[key % params.shards];
                    let slot = key / params.shards;
                    worker.charge_iters(&per_request, 1);
                    if rng.gen_range(0u32..1000) < params.write_per_mille {
                        // Session update: a monitor-protected RMW increment
                        // on the shard, serialised against every other
                        // writer of the shard.
                        monitor.synchronized(worker, |w| {
                            let v = arr.get(w, slot);
                            arr.put(w, slot, v + write_delta(key));
                        });
                        writes += 1;
                    } else {
                        // Plain read: served from the node's cached copy
                        // until a notice outdates it (or a grant patches it).
                        read_sink = read_sink.wrapping_add(arr.get(worker, slot));
                    }
                    worker.record_serving_op(worker.now() - began);
                }
                // Keep the read loop observable; the value itself is
                // schedule-dependent and stays out of the digest.
                std::hint::black_box(read_sink);
                checksums.put(worker, t, checksum);
                write_counts.put(worker, t, writes);
            }));
        }
        for h in handles {
            ctx.join(h);
        }

        // All clients joined (their release flushes reached the homes), so
        // the main-thread sweep observes the final store state.
        let mut weighted = 0u64;
        for (s, (arr, _)) in shards.iter().enumerate() {
            let values = arr.read_slice(ctx, ..);
            for (slot, v) in values.iter().enumerate() {
                let key = slot * params.shards + s;
                if key < params.keys {
                    weighted += v * key_weight(key);
                }
            }
        }
        let mut checksum = 0u64;
        let mut writes = 0u64;
        for t in 0..threads {
            checksum = checksum.wrapping_add(checksums.get(ctx, t));
            writes += write_counts.get(ctx, t);
        }
        KvStoreResult {
            digest: weighted as f64 + (checksum % 1_000_003) as f64,
            ops: (threads * params.ops_per_thread) as u64,
            writes,
        }
    })
}

benchmark!(KvStoreParams, KvStore, |result| result.digest);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::config;

    #[test]
    fn zipf_sampler_is_deterministic_and_skewed() {
        let zipf = Zipf::new(1000, 0.99);
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let draws_a: Vec<usize> = (0..500).map(|_| zipf.sample(&mut a)).collect();
        let draws_b: Vec<usize> = (0..500).map(|_| zipf.sample(&mut b)).collect();
        assert_eq!(draws_a, draws_b, "same seed must replay the same stream");

        let mut c = StdRng::seed_from_u64(8);
        let draws_c: Vec<usize> = (0..500).map(|_| zipf.sample(&mut c)).collect();
        assert_ne!(draws_a, draws_c, "different seeds must diverge");

        // Skew: the hottest rank must be drawn far more often than a
        // mid-table rank, and the head must dominate.
        let hot = draws_a.iter().filter(|&&k| k == 0).count();
        let head = draws_a.iter().filter(|&&k| k < 10).count();
        assert!(hot >= 20, "rank 0 drawn only {hot} times out of 500");
        assert!(
            head * 4 >= 500,
            "head of the distribution too light: {head}"
        );
    }

    #[test]
    fn zipf_draws_are_the_ranks_a_binary_search_returns() {
        let store = |p: KvStoreParams| (p.keys, p.zipf_s);
        // The benchmark's store, the three scales, one rank, the uniform
        // case, and s = 3, whose last 54 082 CDF entries tie at 1.0 in f64.
        let tables = [
            (262_144, 0.99),
            store(KvStoreParams::quick()),
            store(KvStoreParams::harness()),
            store(KvStoreParams::paper()),
            (1, 0.99),
            (1_000, 0.0),
            (262_144, 3.0),
        ];
        for (n, s) in tables {
            let zipf = Zipf::new(n, s);
            for seed in [0, 42, 20_260_927] {
                let mut guided = StdRng::seed_from_u64(seed);
                let mut searched = guided.clone();
                for draw in 0..20_000 {
                    // The sampler before the guide table: a binary search.
                    let u: f64 = searched.gen_range(0.0..1.0);
                    let rank = match zipf.cdf.binary_search_by(|c| c.total_cmp(&u)) {
                        Ok(i) | Err(i) => i.min(n - 1),
                    };
                    let drawn = zipf.sample(&mut guided);
                    assert_eq!(drawn, rank, "Zipf({n}, {s}), seed {seed}, draw {draw}");
                }
            }
        }
    }

    #[test]
    fn zipf_zero_skew_is_roughly_uniform() {
        let zipf = Zipf::new(16, 0.0);
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0usize; 16];
        for _ in 0..3200 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        for (k, &c) in counts.iter().enumerate() {
            assert!(
                c > 100 && c < 300,
                "rank {k} drawn {c} times; expected ~200"
            );
        }
    }

    #[test]
    fn request_streams_are_seed_deterministic() {
        let params = KvStoreParams::quick();
        let a = sequential(&params, 3);
        let b = sequential(&params, 3);
        assert_eq!(a, b);
        let other = sequential(
            &KvStoreParams {
                seed: params.seed + 1,
                ..params
            },
            3,
        );
        assert_ne!(a.digest, other.digest);
    }

    #[test]
    fn parallel_matches_sequential_for_every_protocol() {
        let params = KvStoreParams::quick();
        // One client; three, one per node, are `protocol_equivalence`'s
        // runs in the root package's integration suite.
        let expected = sequential(&params, 1);
        for protocol in ProtocolKind::all_extended() {
            let out = run(config(1, protocol), &params);
            assert_eq!(out.result, expected, "{protocol:?} diverged");
        }
    }

    #[test]
    fn write_tail_is_the_configured_fraction() {
        let params = KvStoreParams::quick();
        let r = sequential(&params, 4);
        let expected = r.ops * params.write_per_mille as u64 / 1000;
        // Binomial noise: allow ±50%.
        assert!(
            r.writes * 2 > expected && r.writes < expected * 2,
            "writes {} vs expected ~{expected}",
            r.writes
        );
    }

    #[test]
    fn serving_metrics_are_reported() {
        let params = KvStoreParams::quick();
        let out = run(config(3, ProtocolKind::JavaAd), &params);
        let total = out.report.total_stats();
        assert_eq!(total.serving_ops, out.result.ops);
        assert!(out.report.serving_p99 > VTime::ZERO);
    }

    #[test]
    fn benchmark_trait_reports_figure_nine() {
        let params = KvStoreParams::quick();
        assert_eq!(params.name().figure(), 9);
        let (digest, report) = params.execute(config(2, ProtocolKind::JavaIc));
        assert_eq!(digest, sequential(&params, 2).digest);
        assert!(report.total_stats().serving_ops > 0);
    }
}
