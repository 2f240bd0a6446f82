//! Deterministic fault injection and the retry schedule of the RPC path.
//!
//! [`FaultyTransport`] wraps any [`Transport`] (the in-process
//! [`crate::SimTransport`] or the socket-backed
//! [`crate::SocketTransport`]) and perturbs remote round trips according to
//! a [`FaultSpec`]: drop or duplicate request frames, delay replies, force
//! handler panics, and kill a named node at a named virtual time.  Every
//! decision is a pure function of the spec's seed and a monotone call
//! counter, so a chaos run is replayable from its spec string alone.
//!
//! What each fault means, precisely:
//!
//! * **drop** — the request frame never reaches the handler.  The handler
//!   does not execute; the caller gets [`TransportError::TimedOut`] (the
//!   retry layer charges the [`RPC_TIMEOUT`] detection wait) and the caller
//!   node's `frames_dropped_injected` counter is bumped.
//! * **panic** — the handler is modeled as panicking before doing any work:
//!   the caller gets [`TransportError::Remote`], exactly what a caught
//!   server-side panic produces, and may retry.
//! * **dup** — the request frame is delivered twice.  The DSM's handlers
//!   are value-idempotent (diffs carry absolute slot values, fetches are
//!   reads), so the second execution is not performed; its wire bytes and
//!   server occupancy *are* charged via a second modeled round trip.
//! * **delay** — the reply is late: the transaction's completion instant is
//!   pushed back by `delay_by`.
//! * **kill** — from the first remote call issued at or after the named
//!   virtual time, the named node stops serving as an RPC target
//!   (fail-stop server): every call addressed to it fails with
//!   [`TransportError::NodeDown`].  The node's own threads keep computing —
//!   recovery of the pages it homed is the DSM layer's job.
//!
//! Determinism: every decision replays exactly.  One application thread
//! runs at a time (the `hyperion` runtime's order), so the calls, and the
//! counter with them, come in one order: the same spec over the same
//! workload draws the same faults, and the run repeats bit for bit
//! (`chaos_recovery::identical_specs_replay_identical_fault_counters`).
//!
//! The retry schedule is one fixed set of constants, not a setting:
//! [`RPC_ATTEMPTS`] attempts, each lost one charged [`RPC_TIMEOUT`], and a
//! [`retry_backoff`] of 100 µs doubling per retry.  The DSM layer charges it
//! to the caller's *virtual* clock on the RPC path, whichever backend
//! carries the frames.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use hyperion_model::{NodeStats, ThreadClock, VTime, WireServiceSnapshot};

use crate::cluster::Cluster;
use crate::comm::ServiceId;
use crate::node::NodeId;
use crate::transport::{charge_round_trip, Transport, TransportError};

/// Attempts per RPC, the first try included.
pub const RPC_ATTEMPTS: u32 = 5;

/// Virtual time charged per timed-out attempt: the loss-detection wait.
pub const RPC_TIMEOUT: VTime = VTime::from_us(500);

/// The backoff charged before retry number `retry` (0-based): 100 µs,
/// doubled per retry.  Five attempts take at most four of them
/// (100 + 200 + 400 + 800 µs).
pub fn retry_backoff(retry: u32) -> VTime {
    VTime::from_us(100 << retry)
}

/// Kill one named node at a named virtual time (fail-stop as a server).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FaultKill {
    /// The node that stops serving.
    pub node: u32,
    /// The virtual instant from which calls addressed to it fail.
    pub at: VTime,
}

/// A replayable fault schedule: seeded per-call probabilities (in parts per
/// million) plus the deterministic `drop_first` and `kill` events.
///
/// The canonical string form round-trips through [`FaultSpec::parse`] /
/// `Display`:
///
/// ```text
/// seed=42,drop=20000,dropfirst=2,delay=10000@50us,dup=5000,panic=1000,kill=2@800us
/// ```
///
/// Probabilities are ppm of remote calls (local calls are never faulted);
/// durations take `ps`/`ns`/`us`/`ms`/`s` suffixes.  Omitted keys are zero /
/// absent.  The zero-valued spec injects nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct FaultSpec {
    /// Seed of the per-call decision hash.
    pub seed: u64,
    /// Probability (ppm) that a request frame is dropped.
    pub drop_ppm: u32,
    /// Deterministically drop the first N remote calls (exact-counter tests).
    pub drop_first: u32,
    /// Probability (ppm) that a reply is delayed by `delay_by`.
    pub delay_ppm: u32,
    /// How late a delayed reply arrives.
    pub delay_by: VTime,
    /// Probability (ppm) that a request frame is delivered twice.
    pub dup_ppm: u32,
    /// Probability (ppm) that the handler is forced to panic.
    pub panic_ppm: u32,
    /// Kill a named node at a named virtual time.  At most one kill per
    /// run: recovery tracks the one node a run can lose.
    pub kill: Option<FaultKill>,
}

fn format_duration(t: VTime) -> String {
    let ps = t.as_ps();
    for (unit, div) in [
        ("s", 1_000_000_000_000u64),
        ("ms", 1_000_000_000),
        ("us", 1_000_000),
        ("ns", 1_000),
    ] {
        if ps >= div && ps % div == 0 {
            return format!("{}{unit}", ps / div);
        }
    }
    format!("{ps}ps")
}

fn parse_duration(s: &str) -> Result<VTime, String> {
    let (digits, mult) = if let Some(d) = s.strip_suffix("ms") {
        (d, 1_000_000_000u64)
    } else if let Some(d) = s.strip_suffix("us") {
        (d, 1_000_000)
    } else if let Some(d) = s.strip_suffix("ns") {
        (d, 1_000)
    } else if let Some(d) = s.strip_suffix("ps") {
        (d, 1)
    } else if let Some(d) = s.strip_suffix('s') {
        (d, 1_000_000_000_000)
    } else {
        return Err(format!("duration '{s}' needs a ps/ns/us/ms/s suffix"));
    };
    let n: u64 = digits
        .parse()
        .map_err(|_| format!("bad duration value '{digits}'"))?;
    n.checked_mul(mult)
        .map(VTime::from_ps)
        .ok_or_else(|| format!("duration '{s}' overflows"))
}

impl FaultSpec {
    /// Parse the canonical `key=value,...` spec string (see the type docs).
    pub fn parse(s: &str) -> Result<FaultSpec, String> {
        let mut spec = FaultSpec::default();
        for part in s.split(',').filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec entry '{part}' is not key=value"))?;
            let ppm = |v: &str| -> Result<u32, String> {
                v.parse()
                    .map_err(|_| format!("bad ppm value '{v}' for '{key}'"))
            };
            match key {
                "seed" => {
                    spec.seed = value
                        .parse()
                        .map_err(|_| format!("bad seed value '{value}'"))?;
                }
                "drop" => spec.drop_ppm = ppm(value)?,
                "dropfirst" => spec.drop_first = ppm(value)?,
                "dup" => spec.dup_ppm = ppm(value)?,
                "panic" => spec.panic_ppm = ppm(value)?,
                "delay" => {
                    let (p, d) = value
                        .split_once('@')
                        .ok_or_else(|| format!("delay '{value}' is not ppm@duration"))?;
                    spec.delay_ppm = ppm(p)?;
                    spec.delay_by = parse_duration(d)?;
                }
                "kill" => {
                    let (node, at) = value
                        .split_once('@')
                        .ok_or_else(|| format!("kill '{value}' is not node@time"))?;
                    spec.kill = Some(FaultKill {
                        node: node
                            .parse()
                            .map_err(|_| format!("bad kill node '{node}'"))?,
                        at: parse_duration(at)?,
                    });
                }
                other => return Err(format!("unknown fault spec key '{other}'")),
            }
        }
        Ok(spec)
    }

    /// Reject schedules that cannot be executed.
    pub fn validate(&self, num_nodes: usize) -> Result<(), &'static str> {
        let ppm_sum = self.drop_ppm as u64
            + self.delay_ppm as u64
            + self.dup_ppm as u64
            + self.panic_ppm as u64;
        if ppm_sum > 1_000_000 {
            return Err("fault probabilities sum to more than 1_000_000 ppm");
        }
        if self.delay_ppm > 0 && self.delay_by == VTime::ZERO {
            return Err("delay faults need a positive delay duration");
        }
        if let Some(kill) = self.kill {
            if (kill.node as usize) >= num_nodes {
                return Err("fault kill names a node outside the cluster");
            }
            if num_nodes < 2 {
                return Err("killing a node needs at least one survivor to recover onto");
            }
        }
        Ok(())
    }

    /// True if this spec injects nothing (equivalent to no fault plane).
    pub fn is_noop(&self) -> bool {
        *self == FaultSpec::default() || {
            self.drop_ppm == 0
                && self.drop_first == 0
                && self.delay_ppm == 0
                && self.dup_ppm == 0
                && self.panic_ppm == 0
                && self.kill.is_none()
        }
    }
}

impl std::fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "seed={}", self.seed)?;
        if self.drop_ppm > 0 {
            write!(f, ",drop={}", self.drop_ppm)?;
        }
        if self.drop_first > 0 {
            write!(f, ",dropfirst={}", self.drop_first)?;
        }
        if self.delay_ppm > 0 {
            write!(
                f,
                ",delay={}@{}",
                self.delay_ppm,
                format_duration(self.delay_by)
            )?;
        }
        if self.dup_ppm > 0 {
            write!(f, ",dup={}", self.dup_ppm)?;
        }
        if self.panic_ppm > 0 {
            write!(f, ",panic={}", self.panic_ppm)?;
        }
        if let Some(kill) = self.kill {
            write!(f, ",kill={}@{}", kill.node, format_duration(kill.at))?;
        }
        Ok(())
    }
}

/// SplitMix64 finaliser: one well-mixed draw per (seed, call-number) pair.
fn draw(seed: u64, n: u64) -> u64 {
    let mut z = seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A [`Transport`] decorator injecting the faults of a [`FaultSpec`] into
/// every *remote* round trip of an inner transport.  See the module docs for
/// the exact meaning of each fault and the determinism contract.
pub struct FaultyTransport {
    inner: Arc<dyn Transport>,
    spec: FaultSpec,
    /// Remote calls attempted so far (the decision-hash counter).
    calls: AtomicU64,
    /// Monotone: set once any caller's clock reaches the kill instant.
    killed: AtomicBool,
}

impl FaultyTransport {
    /// Wrap `inner` with the fault schedule of `spec`.
    pub fn new(inner: Arc<dyn Transport>, spec: FaultSpec) -> Self {
        FaultyTransport {
            inner,
            spec,
            calls: AtomicU64::new(0),
            killed: AtomicBool::new(false),
        }
    }

    /// True if the scheduled kill has fired.
    pub fn kill_fired(&self) -> bool {
        self.killed.load(Ordering::Acquire)
    }
}

impl Transport for FaultyTransport {
    fn rpc_split(
        &self,
        cluster: &Cluster,
        clock: &mut ThreadClock,
        from: NodeId,
        to: NodeId,
        service: ServiceId,
        payload: &[u8],
    ) -> Result<(Vec<u8>, VTime), TransportError> {
        if from == to {
            // Local calls never cross the wire; nothing to fault.
            return self
                .inner
                .rpc_split(cluster, clock, from, to, service, payload);
        }
        if let Some(kill) = self.spec.kill {
            if !self.killed.load(Ordering::Acquire) && clock.now() >= kill.at {
                self.killed.store(true, Ordering::Release);
            }
            if self.killed.load(Ordering::Acquire) && to.0 == kill.node {
                return Err(TransportError::NodeDown { peer: to });
            }
        }
        let n = self.calls.fetch_add(1, Ordering::Relaxed);
        let h = draw(self.spec.seed, n) % 1_000_000;
        let dropped = n < self.spec.drop_first as u64 || h < self.spec.drop_ppm as u64;
        if dropped {
            NodeStats::bump(&cluster.node(from).stats.frames_dropped_injected);
            return Err(TransportError::TimedOut { peer: to });
        }
        let panic_edge = (self.spec.drop_ppm + self.spec.panic_ppm) as u64;
        if h < panic_edge {
            return Err(TransportError::Remote(format!(
                "injected handler panic (service {})",
                service.index()
            )));
        }
        let (data, completion) = self
            .inner
            .rpc_split(cluster, clock, from, to, service, payload)?;
        let dup_edge = panic_edge + self.spec.dup_ppm as u64;
        if h < dup_edge {
            // Duplicate delivery: the handler's effect is idempotent (see
            // module docs), so only the duplicate's wire bytes and server
            // occupancy are charged, via a second modeled round trip.
            let _ = charge_round_trip(
                cluster,
                clock,
                from,
                to,
                payload.len(),
                data.len(),
                VTime::ZERO,
            );
        }
        let delay_edge = dup_edge + self.spec.delay_ppm as u64;
        let completion = if h < delay_edge {
            completion + self.spec.delay_by
        } else {
            completion
        };
        Ok((data, completion))
    }

    fn start(&self, cluster: &Arc<Cluster>) {
        self.inner.start(cluster);
    }

    fn shutdown(&self) {
        self.inner.shutdown();
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn is_down(&self, node: NodeId) -> bool {
        self.kill_fired() && self.spec.kill.is_some_and(|kill| kill.node == node.0)
    }

    fn wire_stats(&self) -> Option<Vec<WireServiceSnapshot>> {
        self.inner.wire_stats()
    }
}

impl std::fmt::Debug for FaultyTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyTransport")
            .field("inner", &self.inner.name())
            .field("spec", &self.spec.to_string())
            .field("killed", &self.kill_fired())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::RpcReply;
    use crate::node::Node;
    use crate::transport::SimTransport;
    use hyperion_model::myrinet_200;

    fn faulty_cluster(nodes: usize, spec: FaultSpec) -> Arc<Cluster> {
        let inner: Arc<dyn Transport> = Arc::new(SimTransport);
        Cluster::with_transport(
            myrinet_200().machine,
            nodes,
            Arc::new(FaultyTransport::new(inner, spec)),
        )
    }

    fn echo(c: &Arc<Cluster>) -> ServiceId {
        c.register_service(Arc::new(|_n: &Node, _c: NodeId, p: &[u8]| {
            RpcReply::with_data(p.to_vec(), VTime::from_us(1))
        }))
    }

    #[test]
    fn spec_string_round_trips() {
        let text =
            "seed=42,drop=20000,dropfirst=2,delay=10000@50us,dup=5000,panic=1000,kill=2@800us";
        let spec = FaultSpec::parse(text).expect("parse");
        assert_eq!(spec.seed, 42);
        assert_eq!(spec.drop_ppm, 20_000);
        assert_eq!(spec.drop_first, 2);
        assert_eq!(spec.delay_ppm, 10_000);
        assert_eq!(spec.delay_by, VTime::from_us(50));
        assert_eq!(spec.dup_ppm, 5_000);
        assert_eq!(spec.panic_ppm, 1_000);
        assert_eq!(
            spec.kill,
            Some(FaultKill {
                node: 2,
                at: VTime::from_us(800)
            })
        );
        assert_eq!(spec.to_string(), text);
        assert_eq!(FaultSpec::parse(&spec.to_string()).unwrap(), spec);
        assert!(spec.validate(4).is_ok());
        assert!(!spec.is_noop());
        assert!(FaultSpec::parse("seed=7").unwrap().is_noop());
    }

    #[test]
    fn bad_specs_are_rejected_with_context() {
        assert!(FaultSpec::parse("drop").is_err());
        assert!(FaultSpec::parse("drop=many").is_err());
        assert!(FaultSpec::parse("delay=5").is_err());
        assert!(FaultSpec::parse("kill=1").is_err());
        assert!(FaultSpec::parse("warp=9").is_err());
        assert!(FaultSpec::parse("delay=5@4fortnights").is_err());
        let over = FaultSpec {
            drop_ppm: 900_000,
            dup_ppm: 200_000,
            ..FaultSpec::default()
        };
        assert!(over.validate(2).is_err());
        let lonely_kill = FaultSpec::parse("kill=0@1us").unwrap();
        assert!(lonely_kill.validate(1).is_err());
        let outside_kill = FaultSpec::parse("kill=9@1us").unwrap();
        assert!(outside_kill.validate(4).is_err());
        let delayless = FaultSpec {
            delay_ppm: 10,
            ..FaultSpec::default()
        };
        assert!(delayless.validate(2).is_err());
    }

    #[test]
    fn retry_backoff_doubles_from_100us_over_the_four_retries() {
        let backoffs: Vec<_> = (0..RPC_ATTEMPTS - 1).map(retry_backoff).collect();
        assert_eq!(
            backoffs,
            [100, 200, 400, 800].map(VTime::from_us),
            "one fixed schedule: 5 attempts, 100 us doubling"
        );
        assert_eq!(RPC_TIMEOUT, VTime::from_us(500));
    }

    #[test]
    fn drop_first_drops_exactly_the_first_remote_calls() {
        let spec = FaultSpec {
            drop_first: 2,
            ..FaultSpec::default()
        };
        let c = faulty_cluster(2, spec);
        let svc = echo(&c);
        let mut clock = ThreadClock::new();
        for _ in 0..2 {
            let err = c
                .rpc(&mut clock, NodeId(0), NodeId(1), svc, &[1])
                .unwrap_err();
            assert!(matches!(err, TransportError::TimedOut { peer } if peer == NodeId(1)));
        }
        // Third call goes through; local calls were never counted.
        assert!(c.rpc(&mut clock, NodeId(0), NodeId(1), svc, &[1]).is_ok());
        assert_eq!(c.node_stats(NodeId(0)).frames_dropped_injected, 2);
        assert!(c.rpc(&mut clock, NodeId(0), NodeId(0), svc, &[1]).is_ok());
        assert_eq!(c.node_stats(NodeId(0)).frames_dropped_injected, 2);
    }

    #[test]
    fn kill_fails_calls_to_the_named_node_from_the_named_time() {
        let spec = FaultSpec::parse("kill=1@1ms").unwrap();
        let c = faulty_cluster(3, spec);
        let svc = echo(&c);
        let mut clock = ThreadClock::new();
        // Before the kill instant the node serves normally.
        assert!(c.rpc(&mut clock, NodeId(0), NodeId(1), svc, &[1]).is_ok());
        clock.merge(VTime::from_us(1_000));
        let err = c
            .rpc(&mut clock, NodeId(0), NodeId(1), svc, &[1])
            .unwrap_err();
        assert!(matches!(err, TransportError::NodeDown { peer } if peer == NodeId(1)));
        assert!(!err.is_retryable());
        // Survivors keep talking to each other, and the killed node can
        // still issue its own requests (fail-stop as a *server*).
        assert!(c.rpc(&mut clock, NodeId(0), NodeId(2), svc, &[1]).is_ok());
        assert!(c.rpc(&mut clock, NodeId(1), NodeId(2), svc, &[1]).is_ok());
    }

    #[test]
    fn seeded_drops_are_replayable() {
        let spec = FaultSpec::parse("seed=99,drop=300000").unwrap();
        let run = || {
            let c = faulty_cluster(2, spec);
            let svc = echo(&c);
            let mut clock = ThreadClock::new();
            (0..64)
                .map(|_| c.rpc(&mut clock, NodeId(0), NodeId(1), svc, &[7]).is_ok())
                .collect::<Vec<bool>>()
        };
        let first = run();
        assert_eq!(first, run());
        assert!(first.iter().any(|ok| *ok));
        assert!(first.iter().any(|ok| !*ok));
    }

    #[test]
    fn delay_pushes_back_completion_and_dup_charges_twice() {
        let delayed = FaultSpec::parse("delay=1000000@2ms").unwrap();
        let c = faulty_cluster(2, delayed);
        let svc = echo(&c);
        let mut clock = ThreadClock::new();
        let (_, completion) = c
            .rpc_split(&mut clock, NodeId(0), NodeId(1), svc, &[1])
            .expect("delayed rpc still succeeds");
        assert!(completion >= clock.now() + VTime::from_us(2_000));

        let dupped = FaultSpec::parse("dup=1000000").unwrap();
        let c = faulty_cluster(2, dupped);
        let svc = echo(&c);
        let mut clock = ThreadClock::new();
        assert!(c.rpc(&mut clock, NodeId(0), NodeId(1), svc, &[1]).is_ok());
        // The duplicate frame shows up in the RPC counters.
        assert_eq!(c.node_stats(NodeId(0)).rpc_requests, 2);
        assert_eq!(c.node_stats(NodeId(1)).rpc_served, 2);
    }

    #[test]
    fn injected_panics_look_like_caught_handler_panics() {
        let spec = FaultSpec::parse("panic=1000000").unwrap();
        let c = faulty_cluster(2, spec);
        let svc = echo(&c);
        let mut clock = ThreadClock::new();
        let err = c
            .rpc(&mut clock, NodeId(0), NodeId(1), svc, &[1])
            .unwrap_err();
        assert!(err.is_retryable());
        match err {
            TransportError::Remote(msg) => assert!(msg.contains("injected handler panic")),
            other => panic!("expected Remote, got {other}"),
        }
    }
}
