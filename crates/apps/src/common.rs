//! Shared helpers for the benchmark programs.

use hyperion::{HyperionConfig, NodeId, ProtocolKind, RunReport};

/// Contiguous block `[start, end)` owned by worker `idx` out of `parts` when
/// `total` items are split as evenly as possible (the first `total % parts`
/// workers get one extra item).
///
/// # Panics
/// Panics if `parts` is zero or `idx >= parts`.
pub fn block_range(total: usize, parts: usize, idx: usize) -> (usize, usize) {
    assert!(parts > 0, "cannot split work over zero workers");
    assert!(
        idx < parts,
        "worker index {idx} out of range for {parts} workers"
    );
    let base = total / parts;
    let extra = total % parts;
    let start = idx * base + idx.min(extra);
    let len = base + usize::from(idx < extra);
    (start, start + len)
}

/// Node that worker thread `idx` is placed on in the standard SPMD setup
/// (one computation thread per node, wrapping round-robin when more threads
/// than nodes are requested).
pub fn node_of_thread(idx: usize, nodes: usize) -> NodeId {
    NodeId((idx % nodes) as u32)
}

/// Where item `i` of `total`, split over `threads` workers by
/// [`block_range`], is homed: on the node of the worker whose block holds it
/// (the block-of-rows distribution).
pub fn block_owner(total: usize, threads: usize, nodes: usize) -> impl Fn(usize) -> NodeId + Copy {
    move |i| {
        let holds = |&t: &usize| {
            let (s, e) = block_range(total, threads, t);
            (s..e).contains(&i)
        };
        node_of_thread((0..threads).find(holds).unwrap_or(threads - 1), nodes)
    }
}

/// Parse a protocol name as used on example, bench and CI command lines.
///
/// Accepts the paper's full names (`java_ic`, `java_pf`, the extension's
/// `java_ad`) and the short forms `ic` / `pf` / `ad` / `adaptive`.
pub fn parse_protocol(s: &str) -> Option<ProtocolKind> {
    match s {
        "ic" | "java_ic" => Some(ProtocolKind::JavaIc),
        "pf" | "java_pf" => Some(ProtocolKind::JavaPf),
        "ad" | "java_ad" | "adaptive" => Some(ProtocolKind::JavaAd),
        _ => None,
    }
}

/// The protocols every app is exercised under by the adaptive comparison
/// (Figure 6) and the CI bench gate: the paper's two plus `java_ad`.
pub fn protocols_under_test() -> [ProtocolKind; 3] {
    ProtocolKind::all_extended()
}

/// Names of the benchmarks: the paper's five (in figure order) plus the
/// serving-workload extension family (figure 9).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BenchmarkName {
    /// Fig. 1 — Riemann-sum estimation of π.
    Pi,
    /// Fig. 2 — Jacobi heat diffusion.
    Jacobi,
    /// Fig. 3 — Barnes-Hut N-body.
    Barnes,
    /// Fig. 4 — branch-and-bound TSP.
    Tsp,
    /// Fig. 5 — all-pairs shortest paths.
    Asp,
    /// Fig. 9 — Zipf-skewed sharded key-value store (serving extension).
    KvStore,
    /// Fig. 9 — PageRank over a seeded edge list (serving extension).
    PageRank,
}

impl BenchmarkName {
    /// The paper's five benchmarks in figure order.
    ///
    /// The serving extension apps are deliberately excluded: the fig6 gate
    /// reproduces the paper's figures over exactly these five, and the
    /// serving family has its own sweep ([`BenchmarkName::serving`]).
    pub fn all() -> [BenchmarkName; 5] {
        use BenchmarkName::*;
        [Pi, Jacobi, Barnes, Tsp, Asp]
    }

    /// The serving-workload extension apps (figure 9).
    pub fn serving() -> [BenchmarkName; 2] {
        [BenchmarkName::KvStore, BenchmarkName::PageRank]
    }

    /// Every benchmark the harness knows: the paper's five plus serving.
    pub fn all_extended() -> [BenchmarkName; 7] {
        use BenchmarkName::*;
        [Pi, Jacobi, Barnes, Tsp, Asp, KvStore, PageRank]
    }

    /// The figure number for this benchmark (the paper's 1–5; the serving
    /// extension apps share the extension figure 9).
    pub fn figure(self) -> usize {
        match self {
            BenchmarkName::Pi => 1,
            BenchmarkName::Jacobi => 2,
            BenchmarkName::Barnes => 3,
            BenchmarkName::Tsp => 4,
            BenchmarkName::Asp => 5,
            BenchmarkName::KvStore | BenchmarkName::PageRank => 9,
        }
    }

    /// Display name.
    pub fn as_str(self) -> &'static str {
        match self {
            BenchmarkName::Pi => "Pi",
            BenchmarkName::Jacobi => "Jacobi",
            BenchmarkName::Barnes => "Barnes-Hut",
            BenchmarkName::Tsp => "TSP",
            BenchmarkName::Asp => "ASP",
            BenchmarkName::KvStore => "KVStore",
            BenchmarkName::PageRank => "PageRank",
        }
    }
}

impl std::fmt::Display for BenchmarkName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A benchmark program parameterisation that the figure harness can run
/// under an arbitrary cluster / protocol / node-count configuration.
pub trait Benchmark: Send + Sync {
    /// Which of the paper's benchmarks this is.
    fn name(&self) -> BenchmarkName;

    /// Execute the benchmark under `config` and return a scalar digest of the
    /// computed answer (used for cross-configuration result checking) plus
    /// the run report.
    fn execute(&self, config: HyperionConfig) -> (f64, RunReport);
}

/// Implement [`Benchmark`] for a program's parameters: the program's name
/// and its `run`, reduced to the digest of its result.
macro_rules! benchmark {
    ($params:ty, $name:ident, |$result:ident| $digest:expr) => {
        impl Benchmark for $params {
            fn name(&self) -> BenchmarkName {
                BenchmarkName::$name
            }

            fn execute(&self, config: HyperionConfig) -> (f64, RunReport) {
                let out = run(config, self);
                let $result = out.result;
                ($digest, out.report)
            }
        }
    };
}
pub(crate) use benchmark;

/// The apps' test configuration: `nodes` nodes of the Myrinet cluster.
#[cfg(test)]
pub(crate) fn config(nodes: usize, protocol: ProtocolKind) -> hyperion::HyperionConfig {
    hyperion::HyperionConfig::new(hyperion::myrinet_200(), nodes, protocol)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_range_covers_everything_without_overlap() {
        for total in [0usize, 1, 7, 64, 1000] {
            for parts in [1usize, 2, 3, 7, 12] {
                let mut covered = 0;
                let mut prev_end = 0;
                for idx in 0..parts {
                    let (s, e) = block_range(total, parts, idx);
                    assert!(s <= e);
                    assert_eq!(s, prev_end, "blocks must be contiguous");
                    prev_end = e;
                    covered += e - s;
                }
                assert_eq!(covered, total);
                assert_eq!(prev_end, total);
            }
        }
    }

    #[test]
    fn block_range_is_balanced() {
        for idx in 0..5 {
            let (s, e) = block_range(23, 5, idx);
            let len = e - s;
            assert!(len == 4 || len == 5, "unbalanced block {len}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn block_range_rejects_bad_index() {
        block_range(10, 2, 2);
    }

    #[test]
    fn protocol_parsing_accepts_short_and_paper_names() {
        assert_eq!(parse_protocol("ic"), Some(ProtocolKind::JavaIc));
        assert_eq!(parse_protocol("java_ic"), Some(ProtocolKind::JavaIc));
        assert_eq!(parse_protocol("pf"), Some(ProtocolKind::JavaPf));
        assert_eq!(parse_protocol("java_pf"), Some(ProtocolKind::JavaPf));
        assert_eq!(parse_protocol("ad"), Some(ProtocolKind::JavaAd));
        assert_eq!(parse_protocol("adaptive"), Some(ProtocolKind::JavaAd));
        assert_eq!(parse_protocol("java_xx"), None);
        assert_eq!(protocols_under_test().len(), 3);
    }

    #[test]
    fn node_of_thread_wraps() {
        assert_eq!(node_of_thread(0, 4), NodeId(0));
        assert_eq!(node_of_thread(3, 4), NodeId(3));
        assert_eq!(node_of_thread(5, 4), NodeId(1));
    }

    #[test]
    fn benchmark_names_enumerate_the_five_figures() {
        let all = BenchmarkName::all();
        assert_eq!(all.len(), 5);
        let figures: Vec<usize> = all.iter().map(|b| b.figure()).collect();
        assert_eq!(figures, vec![1, 2, 3, 4, 5]);
        assert_eq!(format!("{}", BenchmarkName::Barnes), "Barnes-Hut");
    }

    #[test]
    fn serving_names_share_figure_nine() {
        let serving = BenchmarkName::serving();
        assert_eq!(serving.len(), 2);
        assert!(serving.iter().all(|b| b.figure() == 9));
        assert_eq!(format!("{}", BenchmarkName::KvStore), "KVStore");
        assert_eq!(format!("{}", BenchmarkName::PageRank), "PageRank");
        // The extended enumeration is the paper's five plus serving, with no
        // duplicates.
        let all = BenchmarkName::all_extended();
        assert_eq!(all.len(), 7);
        for pair in all.iter().enumerate() {
            for other in all.iter().skip(pair.0 + 1) {
                assert_ne!(pair.1, other);
            }
        }
    }
}
