//! Host-order litmus for the home service clock, the monitors and the
//! barriers.
//!
//! Modeled time must not depend on the order in which the host happens to
//! run the Java threads.  First the home service clock (the monitor and
//! barrier cases follow further down).  Here the host runs four clients strictly one
//! after another, the worst order there is: each starts its remote page
//! fetches at (nearly) the same virtual instant as the others, but only after
//! its predecessor has booked all of its service intervals at the home.  The
//! home is idle ~94 % of the time, so the four must overlap in virtual time
//! and the run must take about as long as a single client's.  A service clock
//! that serves in host-arrival order (`start = max(arrival, latest_end)`)
//! chains them end to end instead: ≈ 4 × the single-client time.

use std::sync::{Arc, Condvar, Mutex};

use hyperion::prelude::*;
use hyperion::{myrinet_200, VTime};

const HOME: NodeId = NodeId(0);
const CLIENTS: usize = 4;
/// Three predecessors' bookings must stay apart in the home's calendar for
/// the last client to find its gaps, so 3 × MISSES stays under its capacity
/// (beyond it the oldest gaps fold into "busy": conservative, not wrong).
const MISSES: usize = 16;
const SLOTS_PER_PAGE: usize = 512;

/// A host-side baton (no modeled cost, no happens-before edge the DSM can
/// see): client `i` runs only once client `i - 1` is done.
#[derive(Default)]
struct Baton {
    turn: Mutex<usize>,
    passed: Condvar,
}

impl Baton {
    fn run_in_turn(&self, i: usize, body: impl FnOnce()) {
        let mut turn = self.turn.lock().unwrap();
        while *turn != i {
            turn = self.passed.wait(turn).unwrap();
        }
        body();
        *turn += 1;
        self.passed.notify_all();
    }
}

/// Modeled execution time of `clients` clients, each missing on `MISSES`
/// pages of its own on the home, run by the host in baton order.
fn serialised_clients(clients: usize, protocol: ProtocolKind) -> VTime {
    let config = HyperionConfig::new(myrinet_200(), 1 + CLIENTS, protocol);
    let runtime = HyperionRuntime::new(config).unwrap();
    let out = runtime.run(move |ctx| {
        let pages = ctx.alloc_array_page_aligned::<u64>(CLIENTS * MISSES * SLOTS_PER_PAGE, HOME);
        let baton = Arc::new(Baton::default());
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let baton = Arc::clone(&baton);
                ctx.spawn_on(NodeId(1 + c as u32), move |client| {
                    baton.run_in_turn(c, || {
                        for miss in 0..MISSES {
                            pages.get(client, (c * MISSES + miss) * SLOTS_PER_PAGE);
                        }
                    });
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
// The host order is forced the wrong way round: the baton lets the threads
// *call* `enter` latest arrival first, and is passed on before the call, not
// after the section — holding the virtually earlier threads back until the
// latest one is done could only end through the admission step's fuse.
// ---------------------------------------------------------------------------

use std::time::Duration;

impl Baton {
    /// Wait for turn `i`, then let turn `i + 1` go at once.
    fn pass(&self, i: usize) {
        self.run_in_turn(i, || ());
    }
}

/// How long (host time) a holder stays inside its section so that the
/// threads admitted meanwhile are parked behind it when it leaves.  Only
/// the hand-off path depends on it, no assertion does; short against the
/// admission fuse (100 ms).
const HOLD: Duration = Duration::from_millis(20);

fn runtime(nodes: usize) -> HyperionRuntime {
    HyperionRuntime::new(HyperionConfig::new(
        myrinet_200(),
        nodes,
        ProtocolKind::JavaPf,
    ))
    .unwrap()
}

/// Arrive at `arrival`, hold `monitor` for `section` of virtual time (plus a
/// local access, which publishes the progress made inside the section) and
/// `hold` of host time; returns the clock right after `enter` and after
/// `exit`.
fn timed_section(
    t: &mut ThreadCtx,
    monitor: &HMonitor,
    cell: &HArray<u64>,
    arrival: VTime,
    section: VTime,
    hold: Duration,
    on_grant: impl FnOnce(),
) -> (VTime, VTime) {
    t.observe(arrival);
    assert_eq!(t.now(), arrival, "arrivals lie after every thread's start");
    monitor.enter(t);
    let entered = t.now();
    on_grant();
    t.charge(section);
    cell.get(t, 0);
    std::thread::sleep(hold);
    monitor.exit(t);
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
            timed_section(
                ctx,
                &monitor,
                &cell,
                arrival,
                section,
                Duration::ZERO,
                || (),
            )
        }
    });
    assert_eq!(alone.report.total_stats().monitor_wait_ps, 0);
    let enter_cost = alone.result.0 - arrivals[0];
    let rest_cost = alone.result.1 - alone.result.0;

    // A few rounds: a hand-off to whichever thread the host wakes first gets
    // the order right about one time in three.
    for _ in 0..4 {
        arrival_order_round(&arrivals, section, enter_cost, rest_cost);
    }
}

fn arrival_order_round(arrivals: &[VTime], section: VTime, enter_cost: VTime, rest_cost: VTime) {
    let out = runtime(1).run({
        let arrivals = arrivals.to_vec();
        move |ctx| {
            let cell = ctx.alloc_array::<u64>(1, HOME);
            let monitor = ctx.new_monitor(HOME);
            let grants = Arc::new(Mutex::new(Vec::new()));
            let times = Arc::new(Mutex::new(vec![(VTime::ZERO, VTime::ZERO); 4]));
            let baton = Arc::new(Baton::default());
            let handles: Vec<_> = (0..4usize)
                .map(|i| {
                    let (monitor, grants) = (monitor.clone(), Arc::clone(&grants));
                    let (times, baton) = (Arc::clone(&times), Arc::clone(&baton));
                    let arrival = arrivals[i];
                    ctx.spawn_on(HOME, move |t| {
                        // The later a thread arrives, the earlier the host
                        // lets it call `enter`; the first holder stays inside
                        // (in host time) while the others are admitted.
                        baton.pass(3 - i);
                        let hold = if i == 0 { HOLD } else { Duration::ZERO };
                        let on_grant = || grants.lock().unwrap().push(i);
                        times.lock().unwrap()[i] =
                            timed_section(t, &monitor, &cell, arrival, section, hold, on_grant);
                    })
                })
                .collect();
            for h in handles {
                ctx.join(h);
            }
            let grants = grants.lock().unwrap().clone();
            let times = times.lock().unwrap().clone();
            (grants, times, monitor.last_release())
        }
    });
    let (grants, times, last_release) = out.result;
    assert_eq!(grants, vec![0, 1, 2, 3], "granted in arrival order");

    // Closed form: a grant is the later of the arrival and the previous
    // release; every section costs what the uncontended one did.
    let mut release = VTime::ZERO;
    let mut waited = 0u64;
    for (i, arrival) in arrivals.iter().enumerate() {
        waited += release.saturating_sub(*arrival).as_ps();
        let entered = release.max(*arrival) + enter_cost;
        release = entered + rest_cost;
        assert_eq!(
            times[i],
            (entered, release),
            "thread {i}, to the picosecond"
        );
    }
    assert_eq!(last_release, release);
    let stats = out.report.total_stats();
    assert_eq!(
        stats.monitor_wait_ps, waited,
        "only real overlap is waited for"
    );
    assert_eq!(stats.order_escapes, 0);
}

#[test]
fn the_acquire_round_trip_counts_before_the_order_is_decided() {
    // A remote thread whose clock is 20 µs behind the local one's reaches the
    // monitor *after* it: the request's round trip is longer than that.
    // Ordering on the clocks before the round trip would grant it first.
    let base = VTime::from_ms(10);
    let section = VTime::from_us(100);
    let out = runtime(2).run(move |ctx| {
        let cell = ctx.alloc_array::<u64>(1, HOME);
        let monitor = ctx.new_monitor(HOME);
        let grants = Arc::new(Mutex::new(Vec::new()));
        let baton = Arc::new(Baton::default());
        let spawn = |ctx: &mut ThreadCtx, node: u32, before: VTime, turn: usize| {
            let (monitor, grants) = (monitor.clone(), Arc::clone(&grants));
            let baton = Arc::clone(&baton);
            ctx.spawn_on(NodeId(node), move |t| {
                baton.pass(turn);
                t.observe(before);
                monitor.enter(t);
                grants.lock().unwrap().push((node, t.now()));
                t.charge(section);
                cell.get(t, 0);
                monitor.exit(t);
            })
        };
        // The host lets the remote thread call `enter` first.
        let local = spawn(ctx, 0, base, 1);
        let remote = spawn(ctx, 1, base - VTime::from_us(20), 0);
        ctx.join(local);
        ctx.join(remote);
        let grants = grants.lock().unwrap().clone();
        grants
    });
    let grants = out.result;
    assert_eq!(grants[0].0, 0, "the local thread arrives first: {grants:?}");
    assert!(
        grants[1].1 >= grants[0].1 + section,
        "the remote thread waits for the local section: {grants:?}"
    );
    let stats = out.report.total_stats();
    assert!(stats.monitor_wait_ps > 0);
    assert_eq!(stats.order_escapes, 0);
}

#[test]
fn equal_arrivals_go_to_the_lower_thread_id_every_time() {
    let arrival = VTime::from_ms(10);
    for round in 0..20 {
        let out = runtime(1).run(move |ctx| {
            let monitor = ctx.new_monitor(HOME);
            let grants = Arc::new(Mutex::new(Vec::new()));
            let baton = Arc::new(Baton::default());
            let handles: Vec<_> = (0..3usize)
                .map(|i| {
                    let (monitor, grants) = (monitor.clone(), Arc::clone(&grants));
                    let baton = Arc::clone(&baton);
                    ctx.spawn_on(HOME, move |t| {
                        // Higher ids get to `enter` first.
                        baton.pass(2 - i);
                        t.observe(arrival);
                        monitor.enter(t);
                        grants.lock().unwrap().push(t.thread_id());
                        monitor.exit(t);
                    })
                })
                .collect();
            let spawned: Vec<_> = handles.iter().map(|h| h.thread_id()).collect();
            for h in handles {
                ctx.join(h);
            }
            let grants = grants.lock().unwrap().clone();
            (spawned, grants)
        });
        let (spawned, grants) = out.result;
        assert_eq!(grants, spawned, "round {round}");
        assert_eq!(out.report.total_stats().order_escapes, 0);
    }
}

#[test]
fn a_barrier_opens_one_section_after_its_latest_arrival() {
    let late_arrival = VTime::from_ms(50);
    // What the last arriver pays from arrival to departure, with nobody to
    // queue behind: a barrier of one, on the barrier's home.
    let alone = runtime(1).run(move |ctx| {
        let barrier = JBarrier::new(ctx, 1, HOME);
        ctx.observe(late_arrival);
        barrier.arrive(ctx);
        ctx.now() - late_arrival
    });

    let out = runtime(4).run(move |ctx| {
        let barrier = JBarrier::new(ctx, 4, HOME);
        let left = Arc::new(Mutex::new(Vec::new()));
        let baton = Arc::new(Baton::default());
        let handles: Vec<_> = (0..4usize)
            .map(|i| {
                let (barrier, left) = (barrier.clone(), Arc::clone(&left));
                let baton = Arc::clone(&baton);
                // Node 0 hosts the late party; the host lets it arrive first.
                ctx.spawn_on(NodeId(i as u32), move |t| {
                    baton.pass(i);
                    let arrival = if i == 0 {
                        late_arrival
                    } else {
                        VTime::from_ms(10)
                    };
                    t.observe(arrival);
                    barrier.arrive(t);
                    left.lock().unwrap().push((t.thread_id(), t.now()));
                })
            })
            .collect();
        let late_party = handles[0].thread_id();
        for h in handles {
            ctx.join(h);
        }
        let left = left.lock().unwrap().clone();
        (late_party, left)
    });
    let (late_party, mut left) = out.result;
    let late_left = left.iter().find(|(id, _)| *id == late_party).unwrap().1;
    assert_eq!(
        late_left - late_arrival,
        alone.result,
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
    left.sort_by_key(|&(id, _)| id);
    assert_eq!(left, by_time);
    assert!(left.iter().all(|&(_, at)| at > late_arrival));
    assert_eq!(out.report.total_stats().order_escapes, 0);
}

#[test]
fn nested_monitors_and_a_wait_notify_ping_pong_stay_in_order() {
    const ROUNDS: u64 = 50;
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
                for _ in 0..ROUNDS {
                    outer.synchronized(t, |t| {
                        inner.synchronized(t, |t| {
                            let v = counter.get(t, 0);
                            counter.put(t, 0, v + 1);
                        })
                    });
                }
            }));
        }
        for player in 0..2u64 {
            let table = table.clone();
            handles.push(ctx.spawn_on(NodeId(1 + player as u32), move |t| {
                for _ in 0..ROUNDS {
                    table.enter(t);
                    while turn.get(t, 0) % 2 != player {
                        table.wait_monitor(t);
                    }
                    let v = turn.get(t, 0);
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
    assert_eq!(out.result, (3 * ROUNDS, 2 * ROUNDS));
    assert_eq!(out.report.total_stats().order_escapes, 0);
}
