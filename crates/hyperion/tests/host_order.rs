//! Host-order litmus for the home service clock.
//!
//! Modeled time must not depend on the order in which the host happens to
//! run the Java threads.  Here the host runs four clients strictly one
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
