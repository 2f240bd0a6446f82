//! Host-order litmus for the home service clock, the monitors and the
//! barriers.
//!
//! Modeled time must not depend on the order in which the host happens to
//! run the Java threads.  First the home service clock (the monitor and
//! barrier cases follow further down).  Here four clients run strictly one
//! after another, the worst order there is: each starts its remote page
//! fetches at (nearly) the same virtual instant as the others, but — with no
//! monitor between them, nothing makes a client give up the run's baton
//! before it ends — only after its predecessor has booked all of its service
//! intervals at the home.  The home is idle ~94 % of the time, so the four
//! must overlap in virtual time and the run must take about as long as a
//! single client's.  A service clock that serves in host-arrival order
//! (`start = max(arrival, latest_end)`) chains them end to end instead:
//! ≈ 4 × the single-client time.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use hyperion::prelude::*;
use hyperion::{myrinet_200, StatsSnapshot, VTime};
use hyperion_model::sync::lock;

const HOME: NodeId = NodeId(0);
const CLIENTS: usize = 4;
/// Three predecessors' bookings must stay apart in the home's calendar for
/// the last client to find its gaps, so 3 × MISSES stays under its capacity
/// (beyond it the oldest gaps fold into "busy": conservative, not wrong).
const MISSES: usize = 16;
const SLOTS_PER_PAGE: usize = 512;

/// Modeled execution time of `clients` clients, each missing on `MISSES`
/// pages of its own on the home, run by the host back to back.  A client's
/// misses leave a page between them, so no fetch continues a scan and the
/// stride prefetch adds none.
fn serialised_clients(clients: usize, protocol: ProtocolKind) -> VTime {
    let config = HyperionConfig::new(myrinet_200(), 1 + CLIENTS, protocol);
    let runtime = HyperionRuntime::new(config).unwrap();
    let out = runtime.run(move |ctx| {
        let slots = CLIENTS * MISSES * 2 * SLOTS_PER_PAGE;
        let pages = ctx.alloc_array_page_aligned::<u64>(slots, HOME);
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                ctx.spawn_on(NodeId(1 + c as u32), move |client| {
                    for miss in 0..MISSES {
                        pages.get(client, (c * MISSES + miss) * 2 * SLOTS_PER_PAGE);
                    }
                })
            })
            .collect();
        for h in handles {
            ctx.join(h);
        }
    });
    let fetched: u64 = out.report.node_stats.iter().map(|s| s.page_loads).sum();
    assert_eq!(fetched, (clients * MISSES) as u64);
    out.report.execution_time
}

#[test]
fn clients_run_back_to_back_by_the_host_still_overlap_in_virtual_time() {
    for protocol in [ProtocolKind::JavaIc, ProtocolKind::JavaPf] {
        let one = serialised_clients(1, protocol);
        let four = serialised_clients(CLIENTS, protocol);
        assert!(
            four.as_ps() as f64 <= 1.1 * one.as_ps() as f64,
            "{}: {CLIENTS} clients run one after another by the host took {four}, \
             a single client {one}: the home served them in host order",
            protocol.name()
        );
    }
}

// ---------------------------------------------------------------------------
// Monitors and barriers: granted in increasing (arrival, thread id).
//
// Each program runs once as it is and once per seed with host sleeps of up
// to 2 ms drawn inside its threads — before they arrive, inside their
// sections, after they leave.  A sleep has no modeled cost and creates no
// edge the runtime can see, so every grant, every clock and every counter
// must come out identical to the unperturbed run, and equal to the closed
// form.
// ---------------------------------------------------------------------------

/// Seeds of the perturbed runs; 0 is the unperturbed one.
const SEEDS: [u64; 4] = [0, 1, 2, 3];

/// Host-side sleeps drawn from a seed (none for seed 0).
#[derive(Clone, Copy)]
struct Jitter(u64);

impl Jitter {
    /// The sleeps of thread `i` of a run under `seed`.
    fn of(seed: u64, i: usize) -> Self {
        Jitter(if seed == 0 {
            0
        } else {
            seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i as u64 + 1)
        })
    }

    fn sleep(&mut self) {
        if self.0 == 0 {
            return;
        }
        // xorshift64
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        std::thread::sleep(Duration::from_micros(self.0 % 2_000));
    }
}

/// Run `program` unperturbed and under every other seed; every run must
/// return what the unperturbed one did.  Returns that.
fn the_same_under_every_seed<R: PartialEq + std::fmt::Debug>(program: impl Fn(u64) -> R) -> R {
    let first = program(SEEDS[0]);
    for seed in &SEEDS[1..] {
        assert_eq!(program(*seed), first, "host sleeps of seed {seed}");
    }
    first
}

fn runtime(nodes: usize) -> HyperionRuntime {
    HyperionRuntime::new(HyperionConfig::new(
        myrinet_200(),
        nodes,
        ProtocolKind::JavaPf,
    ))
    .unwrap()
}

/// Arrive at `arrival`, hold `monitor` for `section` of virtual time (plus a
/// local access); returns the clock right after `enter` and after `exit`.
fn timed_section(
    t: &mut ThreadCtx,
    monitor: &HMonitor,
    cell: &HArray<u64>,
    arrival: VTime,
    section: VTime,
    jitter: &mut Jitter,
    on_grant: impl FnOnce(),
) -> (VTime, VTime) {
    jitter.sleep();
    t.charge(arrival - t.now());
    assert_eq!(t.now(), arrival, "arrivals lie after every thread's start");
    monitor.enter(t);
    let entered = t.now();
    on_grant();
    jitter.sleep();
    t.charge(section);
    cell.get(t, 0);
    jitter.sleep();
    monitor.exit(t);
    jitter.sleep();
    (entered, t.now())
}

#[test]
fn a_monitor_is_granted_in_arrival_order_whatever_the_host_runs_first() {
    let section = VTime::from_ms(1);
    let base = VTime::from_ms(10);
    // Threads 1 and 2 arrive inside thread 0's section, thread 3 after it
    // but before the chain of sections has drained.
    let arrivals: Vec<VTime> = [0u64, 300, 600, 1500]
        .iter()
        .map(|&us| base + VTime::from_us(us))
        .collect();

    // An uncontended section costs the same for every thread (all run on
    // the home node): measure it once.
    let alone = runtime(1).run({
        let arrival = arrivals[0];
        move |ctx| {
            let cell = ctx.alloc_array::<u64>(1, HOME);
            let monitor = ctx.new_monitor(HOME);
            let mut none = Jitter::of(0, 0);
            timed_section(ctx, &monitor, &cell, arrival, section, &mut none, || ())
        }
    });
    assert_eq!(alone.report.total_stats().monitor_wait_ps, 0);
    let enter_cost = alone.result.0 - arrivals[0];
    let rest_cost = alone.result.1 - alone.result.0;

    let (grants, times, last_release, waited) =
        the_same_under_every_seed(|seed| arrival_order_round(&arrivals, section, seed));
    assert_eq!(grants, vec![0, 1, 2, 3], "granted in arrival order");

    // Closed form: a grant is the later of the arrival and the previous
    // release; every section costs what the uncontended one did.
    let mut release = VTime::ZERO;
    let mut overlap = 0u64;
    for (i, arrival) in arrivals.iter().enumerate() {
        overlap += release.saturating_sub(*arrival).as_ps();
        let entered = release.max(*arrival) + enter_cost;
        release = entered + rest_cost;
        assert_eq!(
            times[i],
            (entered, release),
            "thread {i}, to the picosecond"
        );
    }
    assert_eq!(last_release, release);
    assert_eq!(waited, overlap, "only real overlap is waited for");
}

#[test]
fn a_remote_release_reaches_the_home_before_its_grant_leaves_it() {
    // The monitor lives on node 0.  Its first holder releases from node 1;
    // a waiter on the home is granted when the release gets there, R, and
    // the next one, parked on node 2, when the grant the home then sends
    // gets there: the home's own release plus one control message.
    let (section, base) = (VTime::from_ms(1), VTime::from_ms(10));
    let parties = [(NodeId(1), 0u64), (HOME, 300), (NodeId(2), 600)];
    let arrival = |i: usize| base + VTime::from_us(parties[i].1);
    let (left, waited, last_release) = the_same_under_every_seed(|seed| {
        let out = runtime(3).run(move |ctx| {
            let cell = ctx.alloc_array::<u64>(1, HOME);
            let monitor = ctx.new_monitor(HOME);
            let left = Arc::new(Mutex::new(vec![VTime::ZERO; parties.len()]));
            let handles: Vec<_> = (0..parties.len())
                .map(|i| {
                    let (monitor, left, at) = (monitor.clone(), Arc::clone(&left), arrival(i));
                    ctx.spawn_on(parties[i].0, move |t| {
                        let mut jitter = Jitter::of(seed, i);
                        let (_, out) =
                            timed_section(t, &monitor, &cell, at, section, &mut jitter, || ());
                        lock(&left)[i] = out;
                    })
                })
                .collect();
            for h in handles {
                ctx.join(h);
            }
            let left = lock(&left).clone();
            (left, monitor.last_release())
        });
        let waited: Vec<u64> = out
            .report
            .node_stats
            .iter()
            .map(|s| s.monitor_wait_ps)
            .collect();
        (out.result.0, waited, out.result.1)
    });
    let control = runtime(3).cluster().control_message_cost();
    let machine = myrinet_200().machine;
    let send = machine.net.send_overhead;
    let acquire_trip = control.times(2) + machine.cpu.cycles(machine.dsm.protocol_server_cycles);
    // A party takes its turn at its arrival on the home, on node 2 once its
    // request's round trip is paid; it is granted that plus what its node
    // waited (one party per node).
    let granted = |party: usize, trip: VTime| {
        let node = parties[party].0.index();
        arrival(party) + trip + VTime::from_ps(waited[node])
    };
    // A remote releaser leaves the exit having paid the send overhead; the
    // release reaches the home the rest of a control message later.
    let reached = |exit: VTime| exit - send + control;
    assert_eq!(waited[1], 0, "the first holder waits for nobody");
    assert_eq!(
        granted(1, VTime::ZERO),
        reached(left[0]),
        "R, to the picosecond"
    );
    assert_eq!(
        granted(2, acquire_trip),
        left[1] + control,
        "R + leg, to the ps"
    );
    assert_eq!(last_release, reached(left[2]));
}

/// Grant order, `(entered, left)` per thread, the last release and the
/// total monitor wait of one run under `seed`.
type ArrivalRound = (Vec<usize>, Vec<(VTime, VTime)>, VTime, u64);

fn arrival_order_round(arrivals: &[VTime], section: VTime, seed: u64) -> ArrivalRound {
    let out = runtime(1).run({
        let arrivals = arrivals.to_vec();
        move |ctx| {
            let cell = ctx.alloc_array::<u64>(1, HOME);
            let monitor = ctx.new_monitor(HOME);
            let grants = Arc::new(Mutex::new(Vec::new()));
            let times = Arc::new(Mutex::new(vec![(VTime::ZERO, VTime::ZERO); 4]));
            // Spawned latest arrival first.
            let handles: Vec<_> = (0..4usize)
                .rev()
                .map(|i| {
                    let (monitor, grants) = (monitor.clone(), Arc::clone(&grants));
                    let times = Arc::clone(&times);
                    let arrival = arrivals[i];
                    ctx.spawn_on(HOME, move |t| {
                        let mut jitter = Jitter::of(seed, i);
                        let on_grant = || lock(&grants).push(i);
                        lock(&times)[i] = timed_section(
                            t,
                            &monitor,
                            &cell,
                            arrival,
                            section,
                            &mut jitter,
                            on_grant,
                        );
                    })
                })
                .collect();
            for h in handles {
                ctx.join(h);
            }
            let grants = lock(&grants).clone();
            let times = lock(&times).clone();
            (grants, times, monitor.last_release())
        }
    });
    let (grants, times, last_release) = out.result;
    let waited = out.report.total_stats().monitor_wait_ps;
    (grants, times, last_release, waited)
}

#[test]
fn the_acquire_round_trip_counts_before_the_order_is_decided() {
    // A remote thread whose clock is 20 µs behind the local one's reaches the
    // monitor *after* it: the request's round trip is longer than that.
    // Ordering on the clocks before the round trip would grant it first.
    let base = VTime::from_ms(10);
    let section = VTime::from_us(100);
    let (grants, waited) = the_same_under_every_seed(|seed| {
        let out = runtime(2).run(move |ctx| {
            let cell = ctx.alloc_array::<u64>(1, HOME);
            let monitor = ctx.new_monitor(HOME);
            let grants = Arc::new(Mutex::new(Vec::new()));
            let spawn = |ctx: &mut ThreadCtx, node: u32, before: VTime| {
                let (monitor, grants) = (monitor.clone(), Arc::clone(&grants));
                ctx.spawn_on(NodeId(node), move |t| {
                    let mut jitter = Jitter::of(seed, node as usize);
                    jitter.sleep();
                    t.charge(before - t.now());
                    monitor.enter(t);
                    lock(&grants).push((node, t.now()));
                    jitter.sleep();
                    t.charge(section);
                    cell.get(t, 0);
                    monitor.exit(t);
                })
            };
            // The remote thread is spawned first.
            let remote = spawn(ctx, 1, base - VTime::from_us(20));
            let local = spawn(ctx, 0, base);
            ctx.join(local);
            ctx.join(remote);
            let grants = lock(&grants).clone();
            grants
        });
        (out.result, out.report.total_stats().monitor_wait_ps)
    });
    assert_eq!(grants[0].0, 0, "the local thread arrives first: {grants:?}");
    assert!(
        grants[1].1 >= grants[0].1 + section,
        "the remote thread waits for the local section: {grants:?}"
    );
    assert!(waited > 0);
}

#[test]
fn equal_arrivals_go_to_the_lower_thread_id_every_time() {
    let arrival = VTime::from_ms(10);
    let (spawned, grants) = the_same_under_every_seed(|seed| {
        runtime(1)
            .run(move |ctx| {
                let monitor = ctx.new_monitor(HOME);
                let grants = Arc::new(Mutex::new(Vec::new()));
                let handles: Vec<_> = (0..3usize)
                    .map(|i| {
                        let (monitor, grants) = (monitor.clone(), Arc::clone(&grants));
                        ctx.spawn_on(HOME, move |t| {
                            let mut jitter = Jitter::of(seed, i);
                            jitter.sleep();
                            t.charge(arrival - t.now());
                            monitor.enter(t);
                            lock(&grants).push(t.thread_id());
                            jitter.sleep();
                            monitor.exit(t);
                        })
                    })
                    .collect();
                let spawned: Vec<_> = handles.iter().map(|h| h.thread_id()).collect();
                for h in handles {
                    ctx.join(h);
                }
                let grants = lock(&grants).clone();
                (spawned, grants)
            })
            .result
    });
    assert_eq!(grants, spawned);
}

#[test]
fn a_barrier_opens_one_section_after_its_latest_arrival() {
    let late_arrival = VTime::from_ms(50);
    // What the last arriver pays from arrival to departure, with nobody to
    // queue behind: a barrier of one, on the barrier's home.
    let alone = runtime(1).run(move |ctx| {
        let barrier = JBarrier::new(ctx, 1, HOME);
        ctx.charge(late_arrival - ctx.now());
        barrier.arrive(ctx);
        ctx.now() - late_arrival
    });

    let (late_party, mut left) = the_same_under_every_seed(|seed| {
        runtime(4)
            .run(move |ctx| {
                let barrier = JBarrier::new(ctx, 4, HOME);
                let left = Arc::new(Mutex::new(Vec::new()));
                // Node 0 hosts the late party, spawned first.
                let handles: Vec<_> = (0..4usize)
                    .map(|i| {
                        let (barrier, left) = (barrier.clone(), Arc::clone(&left));
                        ctx.spawn_on(NodeId(i as u32), move |t| {
                            let mut jitter = Jitter::of(seed, i);
                            jitter.sleep();
                            let arrival = if i == 0 {
                                late_arrival
                            } else {
                                VTime::from_ms(10)
                            };
                            t.charge(arrival - t.now());
                            barrier.arrive(t);
                            jitter.sleep();
                            lock(&left).push((t.thread_id(), t.now()));
                        })
                    })
                    .collect();
                let late_party = handles[0].thread_id();
                for h in handles {
                    ctx.join(h);
                }
                let mut left = lock(&left).clone();
                left.sort();
                (late_party, left)
            })
            .result
    });
    let late_left = left.iter().find(|(id, _)| *id == late_party).unwrap().1;
    // Its one extra over the barrier of one: learning the write notice of
    // the barrier state the other parties wrote.
    let machine = myrinet_200().machine;
    let notice = machine.cpu.cycles(machine.dsm.invalidate_cycles_per_page);
    assert_eq!(
        late_left - late_arrival,
        alone.result + notice,
        "the last arriver queues behind nobody: one critical section, not one per party"
    );
    // The waiters were all notified at the same instant: they re-acquire
    // the monitor, and leave, in thread-id order.
    left.retain(|(id, _)| *id != late_party);
    let by_time = {
        let mut sorted = left.clone();
        sorted.sort_by_key(|&(_, at)| at);
        sorted
    };
    assert_eq!(left, by_time);
    assert!(left.iter().all(|&(_, at)| at > late_arrival));
}

#[test]
fn nested_monitors_and_a_wait_notify_ping_pong_stay_in_order() {
    const ROUNDS: u64 = 50;
    let (result, _, _): ((u64, u64), VTime, StatsSnapshot) = the_same_under_every_seed(|seed| {
        let out = runtime(3).run(|ctx| {
            // Nested: every thread takes `outer` then `inner`.
            let outer = ctx.new_monitor(NodeId(0));
            let inner = ctx.new_monitor(NodeId(1));
            let counter = ctx.alloc_array::<u64>(1, NodeId(2));
            // Ping-pong: two threads hand a turn back and forth.
            let turn = ctx.alloc_array::<u64>(1, NodeId(0));
            let table = ctx.new_monitor(NodeId(0));

            let mut handles = Vec::new();
            for node in 0..3u32 {
                let (outer, inner) = (outer.clone(), inner.clone());
                handles.push(ctx.spawn_on(NodeId(node), move |t| {
                    let mut jitter = Jitter::of(seed, node as usize);
                    for _ in 0..ROUNDS {
                        outer.synchronized(t, |t| {
                            inner.synchronized(t, |t| {
                                let v = counter.get(t, 0);
                                jitter.sleep();
                                counter.put(t, 0, v + 1);
                            })
                        });
                    }
                }));
            }
            for player in 0..2u64 {
                let table = table.clone();
                handles.push(ctx.spawn_on(NodeId(1 + player as u32), move |t| {
                    let mut jitter = Jitter::of(seed, 3 + player as usize);
                    for _ in 0..ROUNDS {
                        table.enter(t);
                        while turn.get(t, 0) % 2 != player {
                            table.wait_monitor(t);
                        }
                        let v = turn.get(t, 0);
                        jitter.sleep();
                        turn.put(t, 0, v + 1);
                        table.notify_all(t);
                        table.exit(t);
                    }
                }));
            }
            for h in handles {
                ctx.join(h);
            }
            let count = outer.synchronized(ctx, |ctx| counter.get(ctx, 0));
            let turns = table.synchronized(ctx, |ctx| turn.get(ctx, 0));
            (count, turns)
        });
        (
            out.result,
            out.report.execution_time,
            out.report.total_stats(),
        )
    });
    assert_eq!(result, (3 * ROUNDS, 2 * ROUNDS));
}

/// Copies a `java_pf` holder's entry finds stale, each in an address range
/// of its own.
const STALE: usize = 4;

/// A holder on node 1, the monitor's home, learns [`STALE`] write notices
/// at its entry, for copies of node 2's pages that an open copy between
/// each two keeps in separate address ranges, and a waiter on node 0 (where
/// no other thread learns them) parks behind it.  The stale copies stay
/// open past the holder's exit, which re-protects nothing: the waiter is
/// granted at the holder's release plus the grant's flight, and the holder
/// leaves the exit at that release.  The holder's end, a thread-level
/// release, re-protects them: [`STALE`] calls, one per range.
#[test]
fn a_waiter_is_granted_before_the_holders_stale_copies_are_re_protected() {
    let (home, arrival, section) = (NodeId(1), VTime::from_ms(5), VTime::from_ms(1));
    let waiter_arrival = arrival + VTime::from_us(500);
    let (left, waited, settled) = the_same_under_every_seed(|seed| {
        let out = runtime(3).run(move |ctx| {
            let slots = 2 * STALE * SLOTS_PER_PAGE;
            let pages = ctx.alloc_array_page_aligned::<u64>(slots, NodeId(2));
            let monitor = ctx.new_monitor(home);
            let wm = monitor.clone();
            let writer = ctx.spawn_on(NodeId(2), move |t| {
                t.charge(VTime::from_ms(1) - t.now());
                wm.synchronized(t, |t| {
                    (0..STALE).for_each(|k| pages.put(t, 2 * k * SLOTS_PER_PAGE, 1));
                });
            });
            let (hm, left) = (monitor.clone(), Arc::new(Mutex::new(VTime::ZERO)));
            let out = Arc::clone(&left);
            let holder = ctx.spawn_on(home, move |t| {
                let mut jitter = Jitter::of(seed, 0);
                (0..2 * STALE).for_each(|k| assert_eq!(pages.get(t, k * SLOTS_PER_PAGE), 0));
                t.charge(arrival - t.now());
                hm.enter(t);
                jitter.sleep();
                t.charge(section);
                hm.exit(t);
                *lock(&out) = t.now();
                jitter.sleep();
            });
            let waiter = ctx.spawn_on(HOME, move |t| {
                let mut jitter = Jitter::of(seed, 1);
                t.charge(waiter_arrival - t.now());
                jitter.sleep();
                monitor.synchronized(t, |_| ());
            });
            for h in [writer, holder, waiter] {
                ctx.join(h);
            }
            let left = *lock(&left);
            left
        });
        let stats = &out.report.node_stats;
        let (waited, settled) = (stats[0].monitor_wait_ps, stats[1].mprotect_calls_settled);
        (out.result, waited, settled)
    });
    let control = runtime(3).cluster().control_message_cost();
    let machine = myrinet_200().machine;
    let trip = control.times(2) + machine.cpu.cycles(machine.dsm.protocol_server_cycles);
    assert_eq!(settled, STALE as u64, "one call per range, at the end");
    assert_eq!(
        waiter_arrival + trip + VTime::from_ps(waited),
        left + control,
        "the grant leaves at the holder's release, which drops nothing"
    );
}

#[test]
#[should_panic(expected = "blocked for good: the program deadlocked")]
fn a_wait_nobody_notifies_panics_instead_of_hanging() {
    // The waiter stops with nobody left to run — main is joining it — so it
    // panics, keeping the baton; its end hands the baton to main, whose
    // join resumes the panic.
    runtime(2).run(|ctx| {
        let monitor = ctx.new_monitor(HOME);
        let waiter = ctx.spawn_on(NodeId(1), move |t| {
            monitor.enter(t);
            monitor.wait_monitor(t);
        });
        ctx.join(waiter);
    });
}
