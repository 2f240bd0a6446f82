//! The "Java API subsystem": the small class-library subset the benchmarks
//! need (Table 1).
//!
//! The original Hyperion implemented a subset of the JDK 1.1 native methods
//! and compiled the rest of the class library with its bytecode-to-C
//! translator.  The reproduction provides the classes the five benchmark
//! programs rely on, all built *on top of* the public runtime API (objects,
//! monitors), so they pay exactly the protocol costs a compiled Java class
//! would:
//!
//! * [`JBarrier`] — a cyclic barrier built from a monitor and a shared state
//!   object (`wait`/`notifyAll` underneath), used by ASP, Barnes-Hut,
//!   PageRank, Jacobi, the KV store and TSP;
//! * [`SharedCounter`] — a monitor-protected counter, used for the dynamic
//!   body assignment in Barnes-Hut and the central work queue index in TSP.

use hyperion_model::NodeStats;
use hyperion_pm2::NodeId;

use crate::monitor::HMonitor;
use crate::object::HArray;
use crate::runtime::ThreadCtx;

// The fields of the barrier's shared state: parties arrived in this
// generation, and the generation (it increments when the barrier opens).
// The party count is fixed, so it stays in the handle.
const COUNT: usize = 0;
const GENERATION: usize = 1;

/// A cyclic barrier for a fixed number of parties.
///
/// All state lives in the DSM and all signalling goes through a Java
/// monitor, so a barrier episode performs the same acquire/release traffic a
/// hand-written Java barrier class would (this is where the per-timestep
/// cache invalidations of Jacobi and ASP come from).
#[derive(Clone, Debug)]
pub struct JBarrier {
    monitor: HMonitor,
    state: HArray<u64>,
    parties: u64,
}

impl JBarrier {
    /// Create a barrier for `parties` threads, homed on `home`.
    ///
    /// # Panics
    /// Panics if `parties` is zero.
    pub fn new(ctx: &mut ThreadCtx, parties: usize, home: NodeId) -> Self {
        assert!(parties > 0, "a barrier needs at least one party");
        let state = ctx.alloc_array::<u64>(2, home);
        state.put(ctx, COUNT, 0);
        state.put(ctx, GENERATION, 0);
        JBarrier {
            monitor: HMonitor::new(home),
            state,
            parties: parties as u64,
        }
    }

    /// Arrive at the barrier and wait (in both real and virtual time) until
    /// all parties have arrived.
    ///
    /// No party leaves before the latest arrival in virtual time: monitors
    /// are granted in arrival order, so the last arriver enters after every
    /// earlier arrival's release, and each waiter re-acquires the monitor
    /// after the last arriver's exit.
    pub fn arrive(&self, ctx: &mut ThreadCtx) {
        let machine = ctx.machine().clone();
        self.monitor.enter(ctx);

        let gen = self.state.get(ctx, GENERATION);
        let count = self.state.get(ctx, COUNT) + 1;
        self.state.put(ctx, COUNT, count);

        if count == self.parties {
            // Last arrival: open the next generation and wake everyone.
            self.state.put(ctx, COUNT, 0);
            self.state.put(ctx, GENERATION, gen + 1);
            self.monitor.notify_all(ctx);
            self.monitor.exit(ctx);
        } else {
            loop {
                self.monitor.wait_monitor(ctx);
                let now_gen = self.state.get(ctx, GENERATION);
                if now_gen != gen {
                    break;
                }
            }
            self.monitor.exit(ctx);
        }

        ctx.charge(machine.cpu.cycles(machine.dsm.barrier_cycles));
        let node_ref = ctx.shared.cluster.node(ctx.node());
        NodeStats::bump(&node_ref.stats.barrier_waits);
    }
}

/// A monitor-protected shared counter (the Java idiom
/// `synchronized (lock) { return next++; }`).
#[derive(Clone, Debug)]
pub struct SharedCounter {
    monitor: HMonitor,
    // The counter value: a Java object with one `long` field.
    cell: HArray<u64>,
}

impl SharedCounter {
    /// Create a counter homed on `home` with an initial value.
    pub fn new(ctx: &mut ThreadCtx, home: NodeId, initial: u64) -> Self {
        let cell = ctx.alloc_array::<u64>(1, home);
        cell.put(ctx, 0, initial);
        SharedCounter {
            monitor: HMonitor::new(home),
            cell,
        }
    }

    /// Atomically return the current value and add one.
    pub fn next(&self, ctx: &mut ThreadCtx) -> u64 {
        self.next_chunk(ctx, 1)
    }

    /// Atomically return the current value and add `chunk`.
    pub fn next_chunk(&self, ctx: &mut ThreadCtx, chunk: u64) -> u64 {
        self.monitor.synchronized(ctx, |ctx| {
            let v = self.cell.get(ctx, 0);
            self.cell.put(ctx, 0, v + chunk);
            v
        })
    }

    /// Atomically add `delta` to the counter.
    pub fn add(&self, ctx: &mut ThreadCtx, delta: u64) {
        let _ = self.next_chunk(ctx, delta);
    }

    /// Read the current value (under the monitor, as Java code would).
    pub fn get(&self, ctx: &mut ThreadCtx) -> u64 {
        self.monitor.synchronized(ctx, |ctx| self.cell.get(ctx, 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{HyperionConfig, HyperionRuntime};
    use hyperion_dsm::ProtocolKind;
    use hyperion_model::{myrinet_200, VTime};

    fn runtime(nodes: usize, protocol: ProtocolKind) -> HyperionRuntime {
        HyperionRuntime::new(HyperionConfig::new(myrinet_200(), nodes, protocol)).unwrap()
    }

    #[test]
    fn barrier_releases_all_parties_at_or_after_the_slowest() {
        for protocol in ProtocolKind::all() {
            let rt = runtime(4, protocol);
            let out = rt.run(|ctx| {
                let barrier = JBarrier::new(ctx, 4, NodeId(0));
                let results = ctx.alloc_array::<u64>(4, NodeId(0));
                let mut handles = Vec::new();
                for i in 0..4u32 {
                    let b = barrier.clone();
                    handles.push(ctx.spawn_on(NodeId(i), move |t| {
                        // Uneven work before the barrier.
                        t.charge(VTime::from_ms(10 * (i as u64 + 1)));
                        b.arrive(t);
                        results.put(t, i as usize, t.now().as_ps());
                    }));
                }
                for h in handles {
                    ctx.join(h);
                }
            });
            // No thread can leave the barrier before the slowest arrival
            // (40 ms of pre-barrier work).
            assert!(out.report.execution_time >= VTime::from_ms(40));
            let total = out.report.total_stats();
            assert_eq!(total.barrier_waits, 4);
        }
    }

    #[test]
    fn barrier_is_reusable_across_generations() {
        let rt = runtime(3, ProtocolKind::JavaPf);
        let out = rt.run(|ctx| {
            let barrier = JBarrier::new(ctx, 3, NodeId(0));
            let hits = ctx.alloc_array::<u64>(3, NodeId(0));
            let mut handles = Vec::new();
            for i in 0..3u32 {
                let b = barrier.clone();
                handles.push(ctx.spawn_on(NodeId(i), move |t| {
                    for _round in 0..5 {
                        b.arrive(t);
                    }
                    hits.put(t, i as usize, 5);
                }));
            }
            for h in handles {
                ctx.join(h);
            }
            hits.to_vec(ctx)
        });
        assert_eq!(out.result, vec![5, 5, 5]);
        assert_eq!(out.report.total_stats().barrier_waits, 15);
    }

    #[test]
    #[should_panic(expected = "at least one party")]
    fn zero_party_barrier_is_rejected() {
        let rt = runtime(1, ProtocolKind::JavaIc);
        rt.run(|ctx| {
            let _ = JBarrier::new(ctx, 0, NodeId(0));
        });
    }

    #[test]
    fn shared_counter_hands_out_each_value_once() {
        let rt = runtime(4, ProtocolKind::JavaIc);
        let out = rt.run(|ctx| {
            let counter = SharedCounter::new(ctx, NodeId(0), 0);
            let seen = ctx.alloc_array::<u64>(4 * 25, NodeId(0));
            let mut handles = Vec::new();
            for i in 0..4u32 {
                let c = counter.clone();
                handles.push(ctx.spawn_on(NodeId(i), move |t| {
                    for k in 0..25usize {
                        let v = c.next(t);
                        seen.put(t, i as usize * 25 + k, v + 1); // +1 so 0 means "missing"
                    }
                }));
            }
            for h in handles {
                ctx.join(h);
            }
            let mut got: Vec<u64> = seen.to_vec(ctx);
            got.sort_unstable();
            (got, counter.get(ctx))
        });
        let (got, final_value) = out.result;
        assert_eq!(final_value, 100);
        let expected: Vec<u64> = (1..=100).collect();
        assert_eq!(
            got, expected,
            "every ticket must be handed out exactly once"
        );
    }

    #[test]
    fn shared_counter_chunked_and_add() {
        let rt = runtime(2, ProtocolKind::JavaPf);
        let out = rt.run(|ctx| {
            let counter = SharedCounter::new(ctx, NodeId(1), 10);
            let first = counter.next_chunk(ctx, 5);
            let second = counter.next_chunk(ctx, 5);
            counter.add(ctx, 100);
            (first, second, counter.get(ctx))
        });
        assert_eq!(out.result, (10, 15, 120));
    }
}
