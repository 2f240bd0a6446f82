//! The five workloads: their fixed configurations, their inputs (made from
//! the seed), their `sequential` oracles and one verified repetition.
//!
//! Every repetition goes through `apps::<app>::run`, which builds a fresh
//! `HyperionRuntime` exactly as users do, so the host time of a repetition
//! is runtime construction + run + report.

use std::time::Duration;

use hyperion::prelude::*;
use hyperion::{StatsSnapshot, WireServiceSnapshot};
use hyperion_apps::asp::{self, AspParams, AspResult};
use hyperion_apps::jacobi::{self, JacobiParams};
use hyperion_apps::kvstore::{self, KvStoreParams, KvStoreResult};

use crate::sys;
use crate::trace::Tracer;

/// The application and input shape of a workload; `seed` fields are filled
/// in by [`Spec::prepare`].
#[derive(Clone, Copy, Debug)]
enum App {
    Jacobi(JacobiParams),
    Asp(AspParams),
    Kv(KvStoreParams),
}

/// One named workload: a fixed cluster configuration plus an input shape.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// One line on why the workload is in the set.
    pub why: &'static str,
    protocol: ProtocolKind,
    nodes: usize,
    backend: TransportBackend,
    app: App,
}

/// The serving store shared by the three `kv_*` workloads.  The key space is
/// deliberately large: every monitor entry walks every materialised frame,
/// so the walk's cost shows only when the address space dwarfs the working
/// set (at 8 192 keys the same operations cost a third of the host time).
const KV_STORE: KvStoreParams = KvStoreParams {
    keys: 262_144,
    shards: 16,
    ops_per_thread: 0,
    zipf_s: 0.99,
    write_per_mille: 64,
    seed: 0,
};

/// Every workload, in the order the full pass runs them.  All run on the
/// paper's Myrinet cluster model with one application thread per node and
/// the default transport configuration and pacing.
pub const WORKLOADS: [Spec; 5] = [
    Spec {
        name: "jacobi_pf",
        why: "Paper Fig. 2 under java_pf: ~30 M field accesses against ~850 RPCs, so hyperion object access and the dsm hit path do nearly all host work",
        protocol: ProtocolKind::JavaPf,
        nodes: 4,
        backend: TransportBackend::Sim,
        app: App::Jacobi(JacobiParams {
            size: 384,
            steps: 40,
        }),
    },
    Spec {
        name: "asp_ic",
        why: "Paper Fig. 5 under java_ic: an in-line check on each of ~34 M accesses plus a per-iteration pivot-row broadcast and barrier; the other protocol on the same access layer",
        protocol: ProtocolKind::JavaIc,
        nodes: 4,
        backend: TransportBackend::Sim,
        app: App::Asp(AspParams {
            vertices: 256,
            seed: 0,
            edge_percent: 30,
        }),
    },
    Spec {
        name: "kv_read",
        why: "Serving read path, closed loop of 4 clients: Zipf 0.99 reads with 6.4 % writes stress fetch misses, Sim RPC dispatch and home ServerClock queueing",
        protocol: ProtocolKind::JavaPf,
        nodes: 4,
        backend: TransportBackend::Sim,
        app: App::Kv(KvStoreParams {
            ops_per_thread: 250_000,
            ..KV_STORE
        }),
    },
    Spec {
        name: "kv_write",
        why: "Same store at 50 % writes, closed loop of 4 clients: each write is a monitor enter/exit that walks every materialised frame and encodes, flushes and applies a diff",
        protocol: ProtocolKind::JavaPf,
        nodes: 4,
        backend: TransportBackend::Sim,
        app: App::Kv(KvStoreParams {
            ops_per_thread: 100_000,
            write_per_mille: 500,
            ..KV_STORE
        }),
    },
    Spec {
        name: "kv_read_unix",
        why: "kv_read's mix over Unix sockets, closed loop of 2 clients on 2 nodes: pm2::socket framing and round trips do most host work; modeled results must equal Sim",
        protocol: ProtocolKind::JavaPf,
        nodes: 2,
        backend: TransportBackend::UnixSocket,
        app: App::Kv(KvStoreParams {
            ops_per_thread: 200_000,
            ..KV_STORE
        }),
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// The answer to a workload's input: what `sequential` computes and what
/// every repetition must reproduce.
#[derive(Clone, Debug, PartialEq)]
enum Answer {
    Jacobi { interior_sum: f64, center: f64 },
    Asp(AspResult),
    Kv(KvStoreResult),
}

impl Answer {
    /// Whether a repetition's answer matches this reference.  Jacobi sums
    /// floating-point cells in a different order than `sequential`, so it is
    /// compared within a rounding tolerance; the integer digests must be
    /// equal.  `KvStoreResult` equality covers the digest, the write count
    /// and `ops == threads × ops_per_thread`.
    fn matches(&self, observed: &Answer) -> bool {
        match (self, observed) {
            (
                Answer::Jacobi {
                    interior_sum,
                    center,
                },
                Answer::Jacobi {
                    interior_sum: observed_sum,
                    center: observed_center,
                },
            ) => {
                (observed_sum - interior_sum).abs() <= 1e-9 * interior_sum.abs().max(1.0)
                    && (observed_center - center).abs() <= 1e-9
            }
            _ => self == observed,
        }
    }
}

/// A workload with its input fixed and its oracle computed.
#[derive(Clone, Debug)]
pub struct Prepared {
    spec: Spec,
    oracle: Answer,
}

/// What one repetition measured.
#[derive(Clone, Debug)]
pub struct Rep {
    /// Process CPU time of runtime construction + run + report.
    pub host_cpu: Duration,
    /// `RunReport::seconds()`: modeled execution time.
    pub modeled_s: f64,
    /// `RunReport::serving_p99` in modeled microseconds (0 for the kernels,
    /// which record no per-operation latency).
    pub p99_us: f64,
    /// Cluster-wide event counters.
    pub stats: StatsSnapshot,
    /// Per-service wire traffic (socket backends only).
    pub wire: Vec<(String, WireServiceSnapshot)>,
    /// `Err` names what differed from the oracle.
    pub verdict: Result<(), String>,
}

impl Spec {
    /// Fix the input from `seed` and compute the oracle.  Jacobi has no
    /// random input; its mesh and step count are the input.
    pub fn prepare(mut self, seed: u64) -> Prepared {
        let threads = self.nodes;
        let oracle = match &mut self.app {
            App::Jacobi(p) => {
                let (interior_sum, center) = jacobi::sequential(p);
                Answer::Jacobi {
                    interior_sum,
                    center,
                }
            }
            App::Asp(p) => {
                p.seed = seed;
                Answer::Asp(asp::sequential(p))
            }
            App::Kv(p) => {
                p.seed = seed;
                Answer::Kv(kvstore::sequential(p, threads))
            }
        };
        Prepared { spec: self, oracle }
    }

    /// The same workload carried by the in-process `SimTransport`.
    pub fn over_sim(mut self) -> Spec {
        self.backend = TransportBackend::Sim;
        self
    }

    /// Whether a socket backend carries this workload's RPCs.
    pub fn uses_sockets(&self) -> bool {
        self.backend != TransportBackend::Sim
    }

    fn config(&self) -> HyperionConfig {
        let transport = TransportConfig {
            backend: self.backend,
            ..TransportConfig::default()
        };
        HyperionConfig::new(myrinet_200(), self.nodes, self.protocol).with_transport(transport)
    }

    /// Build a fresh runtime and run the application on it, as users do.
    fn run_app(&self) -> (RunReport, Answer) {
        let config = self.config();
        match &self.app {
            App::Jacobi(p) => {
                let out = jacobi::run(config, p);
                let answer = Answer::Jacobi {
                    interior_sum: out.result.interior_sum,
                    center: out.result.center,
                };
                (out.report, answer)
            }
            App::Asp(p) => {
                let out = asp::run(config, p);
                (out.report, Answer::Asp(out.result))
            }
            App::Kv(p) => {
                let out = kvstore::run(config, p);
                (out.report, Answer::Kv(out.result))
            }
        }
    }
}

impl Prepared {
    /// Application-level operations one repetition performs: KV requests,
    /// Jacobi cell updates, ASP relaxations.
    pub fn ops_per_rep(&self) -> u64 {
        match self.spec.app {
            App::Jacobi(p) => ((p.size - 2) * (p.size - 2) * p.steps) as u64,
            App::Asp(p) => (p.vertices * p.vertices * p.vertices) as u64,
            App::Kv(p) => (self.spec.nodes * p.ops_per_thread) as u64,
        }
    }

    /// Run one repetition and check its answer against the oracle.
    pub fn run_rep(&self, tracer: &mut Tracer) -> Rep {
        tracer.span("rep", |tracer| {
            let cpu_before = sys::process_cpu_time();
            let (report, answer) = tracer.span("rep.run", |_| self.spec.run_app());
            let host_cpu = sys::process_cpu_time() - cpu_before;
            let stats = report.total_stats();
            let verdict = tracer.span("verify", |_| {
                if !self.oracle.matches(&answer) {
                    Err(format!(
                        "answer {answer:?} differs from sequential {:?}",
                        self.oracle
                    ))
                } else if let Answer::Kv(expected) = &self.oracle {
                    // Every request must also have recorded its latency.
                    (stats.serving_ops == expected.ops)
                        .then_some(())
                        .ok_or_else(|| {
                            format!(
                                "{} serving ops recorded, {} expected",
                                stats.serving_ops, expected.ops
                            )
                        })
                } else {
                    Ok(())
                }
            });
            for (name, value) in stats.fields() {
                if value > 0 {
                    tracer.count(name, value as f64);
                }
            }
            Rep {
                host_cpu,
                modeled_s: report.seconds(),
                p99_us: report.serving_p99.as_ps() as f64 / 1e6,
                stats,
                wire: report.wire,
                verdict,
            }
        })
    }
}
