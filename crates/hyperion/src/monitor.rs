//! Java monitors with Java-Memory-Model semantics.
//!
//! Every `synchronized` block of the original Java benchmarks becomes an
//! [`HMonitor::enter`] / [`HMonitor::exit`] pair (or the scoped
//! [`HMonitor::synchronized`] helper); `Object.wait` / `Object.notifyAll`
//! map to [`HMonitor::wait_monitor`] / [`HMonitor::notify_all`].
//!
//! Two pieces of accounting make the monitors faithful to the paper:
//!
//! * **Consistency actions** — entry performs the acquire action
//!   (invalidate the node's object cache), exit performs the release action
//!   (flush field-granularity diffs), as described in §3.1.  Under `java_pf`
//!   the entry-side invalidation additionally re-protects the cached pages,
//!   which is where the protocol's `mprotect` traffic comes from.
//! * **Virtual-time ordering** — *a monitor is granted in increasing
//!   (arrival, thread id), so a clock is moved to a previous release only
//!   when the two sections really overlap in virtual time.*  The arrival is
//!   the thread's clock once the acquire round trip is paid.  `enter` and
//!   the re-acquire after a `wait` share one ordered-acquire step: the
//!   thread is admitted only when no runnable thread can still arrive with a
//!   smaller key (the crate's `order` module); if the monitor is held it
//!   parks, and the release hands the monitor directly to the smallest
//!   parked key instead of to whichever OS thread the host wakes first.  Every
//!   release → acquire edge still moves the acquirer's clock to at least the
//!   release, so critical sections are serialised in virtual time just as
//!   they are in real time — in an order that is a function of virtual time
//!   alone.
//!
//! A monitor lives on a home node (the home of the Java object it guards);
//! acquiring it from another node pays a control-message round trip.

use std::sync::Arc;
use std::thread::Thread;

use hyperion_model::{NodeStats, VTime};
use hyperion_pm2::{NodeId, ThreadId};
use parking_lot::Mutex;

use crate::jmm;
use crate::order::{Key, Slot};
use crate::runtime::ThreadCtx;

/// A thread admitted while the monitor was held, asleep until a release
/// hands the monitor to it.
#[derive(Debug)]
struct Parked {
    key: Key,
    slot: Arc<Slot>,
    os: Thread,
}

/// A thread in `Object.wait`.
#[derive(Debug)]
struct Waiting {
    thread: ThreadId,
    /// The waiter's clock when it started to wait.
    since: VTime,
    /// Virtual time of the `notifyAll` that woke it, once one has.
    notified: Option<VTime>,
    slot: Arc<Slot>,
    os: Thread,
}

#[derive(Debug)]
struct MonitorState {
    holder: Option<ThreadId>,
    last_release: VTime,
    parked: Vec<Parked>,
    waiting: Vec<Waiting>,
    /// Deferred release flushing: per-home `(issue, completion)` watermarks
    /// of flush RPCs handed off by previous releases of this monitor and
    /// not yet absorbed by an acquire.  Kept per home so one slow home's
    /// completion does not mask how much of every *other* home's round
    /// trip the overlap hid.  Empty means nothing is pending.
    deferred: Vec<hyperion_dsm::HomeFlushMark>,
}

impl MonitorState {
    /// Take the pending deferred-flush marks, leaving none behind.  The
    /// caller (an acquiring thread) must merge every completion into its
    /// clock — this is the hand-off where the residual latency is charged.
    fn take_deferred(&mut self) -> Vec<hyperion_dsm::HomeFlushMark> {
        std::mem::take(&mut self.deferred)
    }

    /// Stack one more deferred flush onto the pending record, merging its
    /// per-home marks into any already parked for the same homes.
    fn push_deferred(&mut self, d: hyperion_dsm::DeferredFlush) {
        for mark in d.homes {
            match self.deferred.iter_mut().find(|m| m.home == mark.home) {
                Some(m) => {
                    m.issue = m.issue.max(mark.issue);
                    m.completion = m.completion.max(mark.completion);
                }
                None => self.deferred.push(mark),
            }
        }
    }

    /// Give the monitor up (the holder `ctx`'s `exit` or `wait`): record
    /// the release and hand the monitor directly to the smallest parked key,
    /// publishing that thread's new clock on its behalf — it is runnable
    /// from here on, whenever the host gets round to it.  Returns the thread
    /// to wake.
    fn release(
        &mut self,
        ctx: &ThreadCtx,
        deferred: Option<hyperion_dsm::DeferredFlush>,
    ) -> Option<Thread> {
        self.last_release = self.last_release.max(ctx.now());
        if let Some(d) = deferred {
            self.push_deferred(d);
        }
        let next = (0..self.parked.len())
            .min_by_key(|&i| self.parked[i].key)
            .map(|i| self.parked.swap_remove(i));
        self.holder = next.as_ref().map(|p| p.key.1);
        let next = next?;
        let granted = next.key.0.max(self.last_release.as_ps());
        ctx.shared.order.wake(&next.slot, granted);
        Some(next.os)
    }
}

/// Charge the local bookkeeping of one monitor operation.
fn charge_monitor_local(ctx: &mut ThreadCtx) {
    let machine = ctx.machine();
    let local = machine.cpu.cycles(machine.dsm.monitor_local_cycles);
    ctx.charge(local);
}

/// Merge the pending deferred-flush completions into the acquiring thread's
/// clock, crediting per home the cycles the overlap hid (the part of each
/// home's flush round trip that elapsed before the hand-off).
fn absorb_deferred(ctx: &mut ThreadCtx, marks: Vec<hyperion_dsm::HomeFlushMark>) {
    if marks.is_empty() {
        return;
    }
    let now = ctx.now();
    let mut hidden_ps = 0u64;
    let mut completion = VTime::ZERO;
    for m in &marks {
        hidden_ps += now
            .as_ps()
            .min(m.completion.as_ps())
            .saturating_sub(m.issue.as_ps());
        completion = completion.max(m.completion);
    }
    if hidden_ps > 0 {
        let cycles = hidden_ps as f64 / ctx.cpu().ps_per_cycle();
        let node_ref = ctx.shared.cluster.node(ctx.node());
        NodeStats::bump_by(
            &node_ref.stats.flush_overlap_cycles_hidden,
            (cycles as u64).max(1),
        );
    }
    ctx.clock_mut().merge(completion);
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
                    deferred: Vec::new(),
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
    /// action.
    fn acquire(&self, ctx: &mut ThreadCtx) {
        // Host time only: nobody who can still arrive earlier is behind us.
        let key = ctx.admit();
        let me = ctx.thread_id();
        let (release, pending) = {
            let mut st = self.inner.state.lock();
            assert!(st.holder != Some(me), "monitors are not re-entrant");
            if st.holder.is_none() {
                st.holder = Some(me);
            } else {
                // Behind the holder: bounded below by its release, so no
                // constraint on anybody until the release publishes for us.
                st.parked.push(Parked {
                    key,
                    slot: Arc::clone(&ctx.slot),
                    os: std::thread::current(),
                });
                ctx.slot.park();
                while st.holder != Some(me) {
                    drop(st);
                    std::thread::park();
                    st = self.inner.state.lock();
                }
            }
            // Deferred release flushing: a flush handed off by a previous
            // release of *this* monitor must complete no later than this
            // acquire — merge its completions here, charging the residual.
            (st.last_release, st.take_deferred())
        };
        let waited = release.saturating_sub(ctx.now());
        if waited > VTime::ZERO {
            let node_ref = ctx.shared.cluster.node(ctx.node());
            NodeStats::bump_by(&node_ref.stats.monitor_wait_ps, waited.as_ps());
        }
        ctx.clock_mut().merge(release);
        absorb_deferred(ctx, pending);
        charge_monitor_local(ctx);
        ctx.publish_progress();

        jmm::acquire(ctx);
    }

    /// Exit the monitor (`monitorexit`): perform the JMM release action, then
    /// release the lock.
    ///
    /// Under [`hyperion_dsm::TransportConfig::deferred_flush`] the release
    /// flush is issued as split transactions and its completion watermark is
    /// parked on this monitor; the releasing thread keeps computing and the
    /// *next acquire of this monitor* pays whatever latency compute did not
    /// hide.
    pub fn exit(&self, ctx: &mut ThreadCtx) {
        let deferred = jmm::release_deferred(ctx);
        charge_monitor_local(ctx);

        let node_ref = ctx.shared.cluster.node(ctx.node());
        NodeStats::bump(&node_ref.stats.monitor_exits);

        let next = {
            let mut st = self.inner.state.lock();
            assert!(
                st.holder == Some(ctx.thread_id()),
                "exit of a monitor that is not held"
            );
            st.release(ctx, deferred)
        };
        ctx.publish_progress();
        if let Some(os) = next {
            os.unpark();
        }
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
        let deferred = jmm::release_deferred(ctx);
        let me = ctx.thread_id();

        let next = {
            let mut st = self.inner.state.lock();
            assert!(st.holder == Some(me), "wait on a monitor that is not held");
            st.waiting.push(Waiting {
                thread: me,
                since: ctx.now(),
                notified: None,
                slot: Arc::clone(&ctx.slot),
                os: std::thread::current(),
            });
            let next = st.release(ctx, deferred);
            // Waiting for a notification: bounded below by the notifier,
            // who publishes for us.
            ctx.slot.park();
            next
        };
        if let Some(os) = next {
            os.unpark();
        }

        let notified = loop {
            let mut st = self.inner.state.lock();
            let woken = st
                .waiting
                .iter()
                .position(|w| w.thread == me && w.notified.is_some());
            if let Some(i) = woken {
                break st.waiting.swap_remove(i).notified.expect("checked above");
            }
            drop(st);
            std::thread::park();
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
        let mut st = self.inner.state.lock();
        assert!(
            st.holder == Some(ctx.thread_id()),
            "notify on a monitor that is not held"
        );
        for w in st.waiting.iter_mut().filter(|w| w.notified.is_none()) {
            w.notified = Some(now);
            // Runnable again, arriving no earlier than this notify: publish
            // for the waiter before the host has woken it.
            ctx.shared.order.wake(&w.slot, w.since.max(now).as_ps());
            w.os.unpark();
        }
    }

    /// Virtual time of the most recent release (diagnostics / tests).
    pub fn last_release(&self) -> VTime {
        self.inner.state.lock().last_release
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
                let cell = ctx.alloc_object(1, NodeId(0));
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
                monitor.synchronized(ctx, |ctx| cell.get::<u64>(ctx, 0))
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
    fn monitor_serialises_critical_sections_in_virtual_time() {
        let rt = runtime(2, ProtocolKind::JavaPf);
        let out = rt.run(|ctx| {
            let monitor = ctx.new_monitor(NodeId(0));
            let m1 = monitor.clone();
            let m2 = monitor.clone();
            let h1 = ctx.spawn_on(NodeId(0), move |t| {
                m1.synchronized(t, |t| t.charge(VTime::from_ms(10)));
            });
            let h2 = ctx.spawn_on(NodeId(1), move |t| {
                m2.synchronized(t, |t| t.charge(VTime::from_ms(10)));
            });
            ctx.join(h1);
            ctx.join(h2);
            monitor.last_release()
        });
        // Two 10ms critical sections cannot overlap: the last release is at
        // least 20ms.
        assert!(out.result >= VTime::from_ms(20));
        assert!(out.report.execution_time >= VTime::from_ms(20));
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
            let times = Arc::new(std::sync::Mutex::new(Vec::new()));
            let handles: Vec<_> = [VTime::from_ms(20), VTime::from_ms(24)]
                .into_iter()
                .map(|arrival| {
                    let (m, times) = (monitor.clone(), Arc::clone(&times));
                    ctx.spawn_on(NodeId(0), move |t| {
                        t.observe(arrival);
                        m.synchronized(t, |t| t.charge(VTime::from_ms(10)));
                        times.lock().unwrap().push((arrival, t.now()));
                    })
                })
                .collect();
            for h in handles {
                ctx.join(h);
            }
            let times = times.lock().unwrap().clone();
            times
        });
        let (_, first_release) = out.result[0];
        let (second_arrival, _) = out.result[1];
        assert_eq!(second_arrival, VTime::from_ms(24));
        let overlap = first_release - second_arrival;
        assert!(overlap > VTime::from_ms(6) && overlap < VTime::from_ms(7));
        let stats = out.report.total_stats();
        assert_eq!(stats.monitor_wait_ps, overlap.as_ps());
        assert_eq!(stats.order_escapes, 0);
    }

    #[test]
    fn monitor_entry_invalidates_and_exit_flushes() {
        let rt = runtime(2, ProtocolKind::JavaPf);
        let out = rt.run(|ctx| {
            let arr = ctx.alloc_array::<u64>(8, NodeId(1));
            let monitor = ctx.new_monitor(NodeId(0));
            let _ = arr.get(ctx, 0); // cache the remote page
            monitor.enter(ctx); // acquire: invalidation + mprotect
            arr.put(ctx, 1, 7); // fault again, write through cache
            monitor.exit(ctx); // release: diff flush
        });
        let s = out.report.node_stats[0];
        assert_eq!(s.cache_invalidations, 1);
        assert_eq!(s.pages_invalidated, 1);
        assert_eq!(s.page_faults, 2);
        assert_eq!(s.diff_messages, 1);
        assert_eq!(s.diff_slots_flushed, 1);
    }

    #[test]
    fn remote_monitor_acquisition_costs_a_round_trip() {
        let rt = runtime(2, ProtocolKind::JavaIc);
        let out = rt.run(|ctx| {
            let local = ctx.new_monitor(NodeId(0));
            let remote = ctx.new_monitor(NodeId(1));
            let t0 = ctx.now();
            local.synchronized(ctx, |_| {});
            let t1 = ctx.now();
            remote.synchronized(ctx, |_| {});
            let t2 = ctx.now();
            (t1 - t0, t2 - t1)
        });
        let (local_cost, remote_cost) = out.result;
        assert!(remote_cost > local_cost);
        let total = out.report.total_stats();
        assert_eq!(total.remote_monitor_acquires, 1);
    }

    #[test]
    fn wait_and_notify_hand_off_virtual_time() {
        let rt = runtime(2, ProtocolKind::JavaIc);
        let out = rt.run(|ctx| {
            let flag = ctx.alloc_object(1, NodeId(0));
            let monitor = ctx.new_monitor(NodeId(0));
            let m_waiter = monitor.clone();
            let m_notifier = monitor.clone();

            let waiter = ctx.spawn_on(NodeId(1), move |t| {
                m_waiter.enter(t);
                while flag.get::<u64>(t, 0) == 0 {
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

    fn deferred_runtime(nodes: usize, protocol: ProtocolKind) -> HyperionRuntime {
        let config = HyperionConfig::builder()
            .cluster(myrinet_200())
            .nodes(nodes)
            .protocol(protocol)
            .transport(hyperion_dsm::TransportConfig::directory())
            .build()
            .unwrap();
        HyperionRuntime::new(config).unwrap()
    }

    #[test]
    fn deferred_flush_completes_exactly_at_the_next_acquire() {
        // One thread, two nodes: write through the cache inside a critical
        // section, release (deferred flush), compute, re-acquire the same
        // monitor.  The blocking transport charges the flush at the exit;
        // the deferred transport must charge it no later than the next
        // acquire — and, because the single-threaded sequence is
        // deterministic, at exactly the same virtual completion instant.
        let run = |rt: &HyperionRuntime| {
            rt.run(|ctx| {
                let cell = ctx.alloc_object(1, NodeId(1));
                let monitor = ctx.new_monitor(NodeId(0));
                monitor.enter(ctx);
                cell.put(ctx, 0, 5u64);
                monitor.exit(ctx);
                let after_exit = ctx.now();
                ctx.charge(VTime::from_us(2));
                monitor.enter(ctx);
                let after_acquire = ctx.now();
                monitor.exit(ctx);
                (after_exit, after_acquire)
            })
        };
        let blocking = runtime(2, ProtocolKind::JavaPf);
        let deferred = deferred_runtime(2, ProtocolKind::JavaPf);
        let b = run(&blocking);
        let d = run(&deferred);
        let (b_exit, _) = b.result;
        let (d_exit, d_acquire) = d.result;

        let machine = myrinet_200().machine;
        let monitor_local = machine.cpu.cycles(machine.dsm.monitor_local_cycles);
        // The deferred release does not stall on the flush...
        assert!(
            d_exit < b_exit,
            "deferred exit must not stall: {d_exit} vs {b_exit}"
        );
        // ...and the flush completion (== the blocking exit minus its
        // trailing monitor bookkeeping) is merged exactly at the next
        // acquire of the same monitor, not later.
        let completion = b_exit - monitor_local;
        assert!(
            d_acquire >= completion,
            "acquire must wait for the deferred flush: {d_acquire} < {completion}"
        );
        let s = d.report.total_stats();
        assert_eq!(s.deferred_flushes, 1);
        assert!(
            s.flush_overlap_cycles_hidden > 0,
            "2us of compute hid part of the flush"
        );
        assert_eq!(b.report.total_stats().deferred_flushes, 0);
    }

    #[test]
    fn deferred_release_preserves_happens_before_in_a_two_node_ping_pong() {
        // Two workers on two nodes alternate through the same monitor; each
        // increments a shared cell.  Every acquire must observe the previous
        // holder's deferred-flushed write (JMM release→acquire edge), so the
        // final count is exact and every observed value is fresh.
        for protocol in ProtocolKind::all_extended() {
            let rt = deferred_runtime(2, protocol);
            let rounds = 25u64;
            let out = rt.run(|ctx| {
                let cell = ctx.alloc_object(1, NodeId(0));
                let monitor = ctx.new_monitor(NodeId(0));
                let mut handles = Vec::new();
                for node in 0..2u32 {
                    let m = monitor.clone();
                    handles.push(ctx.spawn_on(NodeId(node), move |t| {
                        for _ in 0..rounds {
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
                monitor.synchronized(ctx, |ctx| cell.get::<u64>(ctx, 0))
            });
            assert_eq!(out.result, 2 * rounds, "{protocol:?}");
            let total = out.report.total_stats();
            // The remote worker's releases really were deferred...
            assert!(total.deferred_flushes > 0, "{protocol:?}");
            // ...and the hand-off credited hidden flush latency.
            assert!(total.flush_overlap_cycles_hidden > 0, "{protocol:?}");
        }
    }

    #[test]
    fn deferred_transport_never_slows_the_synchronized_counter() {
        let blocking = runtime(2, ProtocolKind::JavaPf);
        let deferred = deferred_runtime(2, ProtocolKind::JavaPf);
        let run = |rt: &HyperionRuntime| {
            rt.run(|ctx| {
                let cell = ctx.alloc_object(1, NodeId(1));
                let monitor = ctx.new_monitor(NodeId(0));
                for _ in 0..20 {
                    monitor.synchronized(ctx, |ctx| {
                        let v: u64 = cell.get(ctx, 0);
                        cell.put(ctx, 0, v + 1);
                    });
                    // Compute between critical sections is what the deferred
                    // flush hides behind.
                    ctx.charge(VTime::from_us(30));
                }
                cell.get::<u64>(ctx, 0)
            })
        };
        let b = run(&blocking);
        let d = run(&deferred);
        assert_eq!(b.result, d.result);
        assert!(
            d.report.execution_time < b.report.execution_time,
            "hidden flush latency must shorten the run: {} vs {}",
            d.report.execution_time,
            b.report.execution_time
        );
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
