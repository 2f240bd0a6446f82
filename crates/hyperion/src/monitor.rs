//! Java monitors with Java-Memory-Model semantics.
//!
//! Every `synchronized` block of the original Java benchmarks becomes an
//! [`HMonitor::enter`] / [`HMonitor::exit`] pair (or the scoped
//! [`HMonitor::synchronized`] helper); `Object.wait` / `Object.notifyAll`
//! map to [`HMonitor::wait_monitor`] / [`HMonitor::notify_all`].
//!
//! Two pieces of accounting make the monitors faithful to the paper:
//!
//! * **Consistency actions** — exit performs the release action (flush
//!   field-granularity diffs, §3.1) and leaves the releaser's write notices
//!   — what it wrote and what it knew others had written — with the monitor;
//!   entry performs the acquire action: it learns the monitor's notices and
//!   drops the cached copies the newly learned ones name.  Every other copy
//!   stays open (see [`crate::jmm`]).  The exit waits for none of its diffs:
//!   the monitor keeps one instant, when the last diff its releases deferred
//!   is home, and the next entry merges it.  Under `java_pf` re-protecting
//!   dropped pages, and opening them again, is where the protocol's
//!   `mprotect` traffic comes from: one call per address range of pages that
//!   change protection or already have the new one.  The entry leaves the
//!   copies page protection detects unclosed, past the exit and any `wait`
//!   (`hyperion_dsm`'s `pending.rs`).  The notices ride the grant and the
//!   release, paying their bytes when the monitor lives on another
//!   node.  That node homes the object the monitor guards: the entry's
//!   request names the dropped copies of its pages whose last answer fitted
//!   a grant (16 bytes each), and the grant patches those and the open stale
//!   ones — a closed one reopens — where a patch costs at most an
//!   `mprotect`.
//! * **Virtual-time ordering** — *a monitor is granted in increasing
//!   (arrival, thread id), so a clock is moved to a previous release only
//!   when the two sections really overlap in virtual time.*  The arrival is
//!   the thread's clock once the acquire round trip is paid.  `enter` and
//!   the re-acquire after a `wait` share one ordered-acquire step: the
//!   thread takes a turn at its arrival on the run's baton (the crate's
//!   `order` module), so every runnable thread that arrives earlier gets
//!   there first.  If the monitor is held the thread stops being runnable,
//!   and the release hands the monitor directly to the smallest parked key,
//!   making that thread runnable again from the grant on.  Every release →
//!   acquire edge still moves the acquirer's clock to at least the release,
//!   so critical sections are serialised in virtual time just as they are in
//!   real time — in an order that is a function of virtual time alone.
//!
//! A monitor lives on a home node (the home of the Java object it guards).
//! Acquiring it from another node pays a control-message round trip;
//! releasing it from there is a one-way message to the home, for which the
//! releaser pays the send overhead and which carries its diffs for pages the
//! home homes, issued but not waited for.  The release reaches the home a
//! flight later — or once the home has applied what rode it — and a parked
//! waiter is granted when the home's grant reaches it from there.

use std::sync::{Arc, Mutex};

use hyperion_dsm::Notices;
use hyperion_model::sync::lock;
use hyperion_model::{NodeStats, VTime};
use hyperion_pm2::{NodeId, ThreadId};

use crate::jmm;
use crate::order::Key;
use crate::runtime::ThreadCtx;

/// A thread in `Object.wait`.
#[derive(Debug)]
struct Waiting {
    thread: ThreadId,
    /// The waiter's clock when it started to wait.
    since: VTime,
    /// Virtual time of the `notifyAll` that woke it, once one has.
    notified: Option<VTime>,
}

#[derive(Debug)]
struct MonitorState {
    holder: Option<ThreadId>,
    /// When the latest release reached the monitor's home.
    last_release: VTime,
    /// The keys of the threads that arrived while the monitor was held, with
    /// their nodes: not runnable until a release hands the monitor to them.
    parked: Vec<(Key, NodeId)>,
    waiting: Vec<Waiting>,
    /// Deferred release flushing: when the last diff the releases since the
    /// latest acquire deferred is home (`VTime::ZERO` if none was).
    deferred: VTime,
    /// What every release of this monitor knew had been written: the write
    /// notices its next acquirer learns.
    knowledge: Notices,
}

impl MonitorState {
    /// Give the monitor up (the holder `ctx`'s `exit` or `wait`, on `home`):
    /// leave the holder's write notices, paying the bytes of the ones the
    /// monitor did not have if it lives on another node, raise the pending
    /// deferred flush to its own, record when the release reaches the
    /// home and hand the monitor directly to the smallest parked key: that
    /// thread is runnable again once the grant has reached it.
    fn release(
        &mut self,
        ctx: &mut ThreadCtx,
        home: NodeId,
        (deferred, rode): (VTime, Option<VTime>),
    ) {
        let deposited = self.knowledge.merge(&ctx.knowledge);
        let transfer = deposited.transfer(ctx.machine(), ctx.node(), home);
        ctx.charge(transfer);
        // From another node the release is a one-way message to the home:
        // the releaser pays its send overhead, the home has it a flight on —
        // or, if diffs rode it, once it has applied them.
        let mut reached = rode.unwrap_or(ctx.now());
        if ctx.node() != home && rode.is_none() {
            let send = ctx.machine().net.send_overhead;
            ctx.charge(send);
            reached = ctx.now() + ctx.shared.cluster.control_message_cost() - send;
        }
        self.last_release = self.last_release.max(reached);
        self.deferred = self.deferred.max(deferred);
        let next = self.parked.iter().copied().min();
        self.parked.retain(|&parked| Some(parked) != next);
        self.holder = next.map(|((_, thread), _)| thread);
        if let Some(((arrival, thread), node)) = next {
            let granted = arrival.max((self.last_release + leg(ctx, home, node)).as_ps());
            ctx.shared.baton.wake(thread, granted);
        }
    }
}

/// The flight of a control message from `from` to `to`: none within a node.
fn leg(ctx: &ThreadCtx, from: NodeId, to: NodeId) -> VTime {
    if from == to {
        VTime::ZERO
    } else {
        ctx.shared.cluster.control_message_cost()
    }
}

/// Charge the local bookkeeping of one monitor operation.
fn charge_monitor_local(ctx: &mut ThreadCtx) {
    let machine = ctx.machine();
    let local = machine.cpu.cycles(machine.dsm.monitor_local_cycles);
    ctx.charge(local);
}

#[derive(Debug)]
struct MonitorInner {
    home: NodeId,
    state: Mutex<MonitorState>,
}

/// A Java monitor (the lock + wait-set associated with a Java object).
#[derive(Clone, Debug)]
pub struct HMonitor {
    inner: Arc<MonitorInner>,
}

impl HMonitor {
    /// Create a monitor homed on `home`.  Prefer
    /// [`ThreadCtx::new_monitor`](crate::runtime::ThreadCtx) in application
    /// code.
    pub fn new(home: NodeId) -> Self {
        HMonitor {
            inner: Arc::new(MonitorInner {
                home,
                state: Mutex::new(MonitorState {
                    holder: None,
                    last_release: VTime::ZERO,
                    parked: Vec::new(),
                    waiting: Vec::new(),
                    deferred: VTime::ZERO,
                    knowledge: Notices::default(),
                }),
            }),
        }
    }

    /// The node this monitor lives on.
    pub fn home(&self) -> NodeId {
        self.inner.home
    }

    /// Enter the monitor (`monitorenter`): acquire the lock, then perform the
    /// JMM acquire action.
    pub fn enter(&self, ctx: &mut ThreadCtx) {
        let node_ref = ctx.shared.cluster.node(ctx.node());
        NodeStats::bump(&node_ref.stats.monitor_enters);

        if self.inner.home != ctx.node() {
            // Lock acquisition request travels to the monitor's home node and
            // the grant travels back.
            NodeStats::bump(&node_ref.stats.remote_monitor_acquires);
            let machine = ctx.machine();
            let round_trip = ctx.shared.cluster.control_message_cost().times(2)
                + machine.cpu.cycles(machine.dsm.protocol_server_cycles);
            ctx.charge(round_trip);
        }
        self.acquire(ctx);
    }

    /// The ordered acquire shared by `enter` and the re-acquire after a
    /// `wait`: take the monitor in `(arrival, thread id)` order — the
    /// arrival being the caller's clock now — then perform the JMM acquire
    /// action on what the grant taught the caller.
    fn acquire(&self, ctx: &mut ThreadCtx) {
        // Every runnable thread that arrives earlier gets here first.
        let key = ctx.take_turn();
        let me = ctx.thread_id();
        let mut st = lock(&self.inner.state);
        assert!(st.holder != Some(me), "monitors are not re-entrant");
        if st.holder.is_some() {
            // Behind the holder: runnable again once its release hands the
            // monitor over.
            st.parked.push((key, ctx.node()));
            drop(st);
            ctx.shared.baton.block(me);
            st = lock(&self.inner.state);
        }
        st.holder = Some(me);
        // Deferred release flushing: a flush handed off by a previous release
        // of *this* monitor must complete no later than this acquire — merge
        // its completion here, charging the residual.
        let learned = ctx.knowledge.merge(&st.knowledge);
        let (released, deferred) = (st.last_release, std::mem::take(&mut st.deferred));
        drop(st);
        // The grant leaves the home once the release has reached it.
        let release = released + leg(ctx, self.inner.home, ctx.node());
        let waited = release.saturating_sub(ctx.now());
        if waited > VTime::ZERO {
            let node_ref = ctx.shared.cluster.node(ctx.node());
            NodeStats::bump_by(&node_ref.stats.monitor_wait_ps, waited.as_ps());
        }
        ctx.clock_mut().merge(release.max(deferred));
        charge_monitor_local(ctx);
        // The grant carries the notices the caller did not know.
        let transfer = learned.transfer(ctx.machine(), self.inner.home, ctx.node());
        ctx.charge(transfer);

        jmm::acquire(ctx, &learned, Some(self.inner.home));
    }

    /// Exit the monitor (`monitorexit`): perform the JMM release action, then
    /// release the lock.
    ///
    /// The release flush is issued as split transactions and its completion
    /// watermark is parked on this monitor; the releasing thread keeps
    /// computing and the *next acquire of this monitor* pays whatever
    /// latency compute did not hide.
    pub fn exit(&self, ctx: &mut ThreadCtx) {
        let released = jmm::release(ctx, Some(self.inner.home));
        charge_monitor_local(ctx);

        let node_ref = ctx.shared.cluster.node(ctx.node());
        NodeStats::bump(&node_ref.stats.monitor_exits);

        let mut st = lock(&self.inner.state);
        assert!(
            st.holder == Some(ctx.thread_id()),
            "exit of a monitor that is not held"
        );
        st.release(ctx, self.inner.home, released);
    }

    /// Execute `body` inside the monitor (a `synchronized` block).
    pub fn synchronized<R>(
        &self,
        ctx: &mut ThreadCtx,
        body: impl FnOnce(&mut ThreadCtx) -> R,
    ) -> R {
        self.enter(ctx);
        let r = body(ctx);
        self.exit(ctx);
        r
    }

    /// `Object.wait()`: atomically release the monitor and wait for a
    /// notification, then re-acquire it.  The caller must hold the monitor.
    pub fn wait_monitor(&self, ctx: &mut ThreadCtx) {
        // Release actions first: our writes must be visible to whoever will
        // notify us.  Like `exit`, the flush may be deferred onto this
        // monitor — the thread that acquires it next absorbs the completion.
        let released = jmm::release(ctx, Some(self.inner.home));
        let me = ctx.thread_id();

        {
            let mut st = lock(&self.inner.state);
            assert!(st.holder == Some(me), "wait on a monitor that is not held");
            st.waiting.push(Waiting {
                thread: me,
                since: ctx.now(),
                notified: None,
            });
            st.release(ctx, self.inner.home, released);
        }
        // Runnable again once a notify has woken us.
        ctx.shared.baton.block(me);
        let notified = {
            let mut st = lock(&self.inner.state);
            let i = st
                .waiting
                .iter()
                .position(|w| w.thread == me)
                .expect("a waiter leaves the wait set only here");
            st.waiting
                .swap_remove(i)
                .notified
                .expect("woken by a notify")
        };
        // ...then re-acquire the lock, in order, arriving at the notify.
        ctx.clock_mut().merge(notified);
        self.acquire(ctx);
    }

    /// `Object.notifyAll()`: wake every thread waiting on this monitor.  The
    /// caller must hold the monitor.
    pub fn notify_all(&self, ctx: &mut ThreadCtx) {
        charge_monitor_local(ctx);
        let now = ctx.now();
        let mut st = lock(&self.inner.state);
        assert!(
            st.holder == Some(ctx.thread_id()),
            "notify on a monitor that is not held"
        );
        for w in st.waiting.iter_mut().filter(|w| w.notified.is_none()) {
            w.notified = Some(now);
            // Runnable again, arriving no earlier than this notify.
            ctx.shared.baton.wake(w.thread, w.since.max(now).as_ps());
        }
    }

    /// Virtual time of the most recent release (diagnostics / tests).
    pub fn last_release(&self) -> VTime {
        lock(&self.inner.state).last_release
    }
}

impl ThreadCtx {
    /// Create a monitor homed on `home`.
    pub fn new_monitor(&mut self, home: NodeId) -> HMonitor {
        assert!(
            home.index() < self.num_nodes(),
            "monitor home {home} out of range"
        );
        HMonitor::new(home)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{HyperionConfig, HyperionRuntime};
    use hyperion_dsm::ProtocolKind;
    use hyperion_model::myrinet_200;

    fn runtime(nodes: usize, protocol: ProtocolKind) -> HyperionRuntime {
        HyperionRuntime::new(HyperionConfig::new(myrinet_200(), nodes, protocol)).unwrap()
    }

    #[test]
    fn synchronized_counter_is_exact_across_threads() {
        for protocol in ProtocolKind::all() {
            let rt = runtime(4, protocol);
            let out = rt.run(|ctx| {
                let cell = ctx.alloc_array::<u64>(1, NodeId(0));
                let monitor = ctx.new_monitor(NodeId(0));
                let mut handles = Vec::new();
                for i in 0..4u32 {
                    let m = monitor.clone();
                    handles.push(ctx.spawn_on(NodeId(i), move |t| {
                        for _ in 0..50 {
                            m.synchronized(t, |t| {
                                let v: u64 = cell.get(t, 0);
                                cell.put(t, 0, v + 1);
                            });
                        }
                    }));
                }
                for h in handles {
                    ctx.join(h);
                }
                monitor.synchronized(ctx, |ctx| cell.get(ctx, 0))
            });
            assert_eq!(out.result, 200, "{protocol:?}");
            let total = out.report.total_stats();
            assert_eq!(total.monitor_enters, total.monitor_exits);
            assert!(total.monitor_enters >= 201);
            // Three of the four workers acquired the monitor remotely.
            assert!(total.remote_monitor_acquires >= 150);
        }
    }

    #[test]
    fn monitor_wait_is_zero_alone_and_exactly_the_overlap_when_sections_collide() {
        // One thread never waits for a previous holder, local monitor or
        // remote.
        let out = runtime(2, ProtocolKind::JavaPf).run(|ctx| {
            for home in [NodeId(0), NodeId(1)] {
                let monitor = ctx.new_monitor(home);
                for _ in 0..5 {
                    monitor.synchronized(ctx, |ctx| ctx.charge(VTime::from_ms(1)));
                }
            }
        });
        assert_eq!(out.report.total_stats().monitor_wait_ps, 0);

        // Two 10 ms sections, the second arriving 4 ms into the first: the
        // second thread is moved forward by what is left of the first
        // section, and that is all the waiting there is.
        let out = runtime(1, ProtocolKind::JavaPf).run(|ctx| {
            let monitor = ctx.new_monitor(NodeId(0));
            let times = Arc::new(Mutex::new(Vec::new()));
            let handles: Vec<_> = [VTime::from_ms(20), VTime::from_ms(24)]
                .into_iter()
                .map(|arrival| {
                    let (m, times) = (monitor.clone(), Arc::clone(&times));
                    ctx.spawn_on(NodeId(0), move |t| {
                        t.charge(arrival - t.now());
                        m.synchronized(t, |t| t.charge(VTime::from_ms(10)));
                        lock(&times).push((arrival, t.now()));
                    })
                })
                .collect();
            for h in handles {
                ctx.join(h);
            }
            let times = lock(&times).clone();
            times
        });
        let (_, first_release) = out.result[0];
        let (second_arrival, _) = out.result[1];
        assert_eq!(second_arrival, VTime::from_ms(24));
        let overlap = first_release - second_arrival;
        assert!(overlap > VTime::from_ms(6) && overlap < VTime::from_ms(7));
        let stats = out.report.total_stats();
        assert_eq!(stats.monitor_wait_ps, overlap.as_ps());
    }

    #[test]
    fn monitor_entry_invalidates_and_exit_flushes() {
        let rt = runtime(2, ProtocolKind::JavaPf);
        let out = rt.run(|ctx| {
            let arr = ctx.alloc_array::<u64>(8, NodeId(1));
            let monitor = ctx.new_monitor(NodeId(0));
            let _ = arr.get(ctx, 0); // cache the remote page: fault + mprotect
            monitor.enter(ctx); // acquire: nobody wrote the page, it stays open
            arr.put(ctx, 1, 7); // write through the cache, no fault
            monitor.exit(ctx); // release: diff flush
            let s = ctx.shared.cluster.node_stats(NodeId(0));
            assert_eq!(
                (s.cache_invalidations, s.pages_invalidated, s.pages_kept),
                (1, 0, 1)
            );
            assert_eq!((s.page_faults, s.mprotect_calls), (1, 1));

            // The home writes the page under the monitor, a millisecond
            // before this thread enters again: the entry learns its notice
            // and leaves the copy pending; the section's read finds it by
            // the pending check and drops it without re-protecting it, so
            // the miss is no fault and opens nothing.
            let m = monitor.clone();
            let writer = ctx.spawn_on(NodeId(1), move |t| {
                m.synchronized(t, |t| arr.put(t, 2, 9));
            });
            ctx.charge(VTime::from_ms(1));
            let seen = monitor.synchronized(ctx, |ctx| (arr.get(ctx, 1), arr.get(ctx, 2)));
            ctx.join(writer);
            seen
        });
        assert_eq!(out.result, (7, 9));
        let s = out.report.node_stats[0];
        assert_eq!(
            (s.pages_invalidated, s.page_faults, s.mprotect_calls),
            (1, 1, 1)
        );
        assert_eq!((s.pending_misses, s.page_loads), (1, 2));
        assert_eq!(s.diff_messages, 1);
        assert_eq!(s.diff_slots_flushed, 1);
    }

    #[test]
    fn wait_and_notify_hand_off_virtual_time() {
        let rt = runtime(2, ProtocolKind::JavaIc);
        let out = rt.run(|ctx| {
            let flag = ctx.alloc_array::<u64>(1, NodeId(0));
            let monitor = ctx.new_monitor(NodeId(0));
            let m_waiter = monitor.clone();
            let m_notifier = monitor.clone();

            let waiter = ctx.spawn_on(NodeId(1), move |t| {
                m_waiter.enter(t);
                while flag.get(t, 0) == 0 {
                    m_waiter.wait_monitor(t);
                }
                m_waiter.exit(t);
            });
            let notifier = ctx.spawn_on(NodeId(0), move |t| {
                t.charge(VTime::from_ms(50));
                m_notifier.synchronized(t, |t| {
                    flag.put(t, 0, 1u64);
                    m_notifier.notify_all(t);
                });
            });
            ctx.join(waiter);
            ctx.join(notifier);
        });
        // The waiter cannot finish before the notifier's 50ms of work.
        assert!(out.report.execution_time >= VTime::from_ms(50));
    }

    #[test]
    fn deferred_flush_completes_exactly_at_the_next_acquire() {
        // One thread, two nodes: write through the cache inside a critical
        // section, release (deferred flush), compute, re-acquire the same
        // monitor.  The flush completes where a blocking flush of the same
        // diff, started at the exit, would end: `exit start + flush`, the
        // flush timed by `updateMainMemory` on an equal one-slot diff to the
        // same home.  The exit must not wait for it, and the next acquire
        // must end exactly at it plus the monitor's local bookkeeping.
        let out = runtime(2, ProtocolKind::JavaPf).run(|ctx| {
            let cell = ctx.alloc_array::<u64>(1, NodeId(1));
            let monitor = ctx.new_monitor(NodeId(0));
            // The blocking reference: the page is cached from here on.
            cell.put(ctx, 0, 4u64);
            let t0 = ctx.now();
            ctx.update_main_memory();
            let flush = ctx.now() - t0;

            monitor.enter(ctx);
            cell.put(ctx, 0, 5u64);
            let exit_start = ctx.now();
            monitor.exit(ctx);
            let after_exit = ctx.now();
            ctx.charge(VTime::from_us(2));
            monitor.enter(ctx);
            let after_acquire = ctx.now();
            monitor.exit(ctx);
            (flush, exit_start, after_exit, after_acquire)
        });
        let (flush, exit_start, after_exit, after_acquire) = out.result;
        let machine = myrinet_200().machine;
        let monitor_local = machine.cpu.cycles(machine.dsm.monitor_local_cycles);
        let completion = exit_start + flush;
        // The release does not stall on the flush...
        assert!(
            after_exit < completion,
            "deferred exit must not stall: {after_exit} vs {completion}"
        );
        assert!(after_exit + VTime::from_us(2) < completion);
        // ...and its completion is merged exactly at the next acquire of the
        // same monitor, not earlier and not later.
        assert_eq!(after_acquire, completion + monitor_local);
        let s = out.report.total_stats();
        assert_eq!(s.deferred_flushes, 1);
    }

    /// Two workers on two nodes alternate through a monitor on node 0, each
    /// incrementing a cell homed on `cell_home`.  Every acquire must observe
    /// the previous holder's write (JMM release→acquire edge), so the final
    /// count is exact; returns the run's totals, per protocol.
    fn deferred_ping_pong(cell_home: NodeId) -> Vec<hyperion_model::StatsSnapshot> {
        let rounds = 25u64;
        let run = |protocol| {
            let out = runtime(2, protocol).run(|ctx| {
                let cell = ctx.alloc_array::<u64>(1, cell_home);
                let monitor = ctx.new_monitor(NodeId(0));
                let workers: Vec<_> = (0..2u32)
                    .map(|node| {
                        let m = monitor.clone();
                        ctx.spawn_on(NodeId(node), move |t| {
                            for _ in 0..rounds {
                                m.synchronized(t, |t| {
                                    let v: u64 = cell.get(t, 0);
                                    cell.put(t, 0, v + 1);
                                });
                            }
                        })
                    })
                    .collect();
                for h in workers {
                    ctx.join(h);
                }
                monitor.synchronized(ctx, |ctx| cell.get(ctx, 0))
            });
            assert_eq!(out.result, 2 * rounds, "{protocol:?}");
            out.report.total_stats()
        };
        ProtocolKind::all().into_iter().map(run).collect()
    }

    #[test]
    fn deferred_release_preserves_happens_before_in_a_two_node_ping_pong() {
        // Node 0's diffs go to node 1, which does not home the monitor: they
        // are deferred to the monitor's next acquire.
        for total in deferred_ping_pong(NodeId(1)) {
            assert!(total.deferred_flushes > 0, "{total:?}");
        }
    }

    #[test]
    fn diffs_for_the_monitors_home_ride_its_release_in_a_two_node_ping_pong() {
        // Node 1's diffs go to node 0, the monitor's home: they ride the
        // release, and nothing is left to defer.
        for total in deferred_ping_pong(NodeId(0)) {
            assert!(total.release_diffs > 0, "{total:?}");
            assert_eq!(total.deferred_flushes, 0, "{total:?}");
        }
    }

    #[test]
    #[should_panic(expected = "not held")]
    fn exiting_an_unheld_monitor_panics() {
        let rt = runtime(1, ProtocolKind::JavaIc);
        rt.run(|ctx| {
            let monitor = ctx.new_monitor(NodeId(0));
            monitor.exit(ctx);
        });
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn monitor_home_must_exist() {
        let rt = runtime(1, ProtocolKind::JavaIc);
        rt.run(|ctx| {
            let _ = ctx.new_monitor(NodeId(3));
        });
    }
}
