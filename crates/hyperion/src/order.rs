//! Virtual-time grant order: the progress table and the admission step.
//!
//! Threads are real OS threads but time is virtual, so wherever two threads
//! meet — a monitor, and therefore every barrier, work queue and shard lock
//! built on one — the host scheduler must not decide who goes first.  The
//! rule is the conservative one of discrete-event simulation, applied at
//! monitor acquisitions only:
//!
//! * every thread owns a [`Slot`] holding a *lower bound* on the key of its
//!   next acquisition, `(virtual clock in ps, thread id)`.  The bound is
//!   published at the synchronisation points (enter, exit, notify / wake,
//!   spawn, join, termination) and whenever the clock has moved by one
//!   control-message latency since the last publication;
//! * [`OrderTable::admit`] lets a thread proceed with key `k` only when no
//!   *runnable* thread's bound is below `k` — equal clocks go to the lower
//!   thread id, and there is no window;
//! * a thread that cannot act before some other thread does — parked behind
//!   a monitor's holder, in `Object.wait`, in `join`, terminated — holds
//!   [`PARKED`] and constrains nobody: its next key is bounded below by the
//!   thread it waits for.  Whoever wakes it publishes its new bound *on its
//!   behalf* first ([`OrderTable::wake`]), so it is never unaccounted for
//!   while the host has yet to run it.
//!
//! The thread with the smallest key is never held back, so the step cannot
//! deadlock among threads that only block through the runtime.  A thread
//! blocked by something the runtime cannot see (a host-side lock in a test)
//! trips the fuse instead: a wait during which the blocking bound has not
//! moved for [`FUSE`] is abandoned and reported as an *order escape*.
//!
//! The wait itself polls: `yield_now`, with a short sleep every
//! [`SPINS_PER_SLEEP`] rounds.  Sleeping on a condition variable that every
//! publication signals was measured against it (`BENCH_17.json`,
//! `admission_wait`) and lost on both the pinned and the 2-CPU run — a
//! yield hands a shared CPU straight to the thread being waited for, while
//! a futex wake costs the *publisher* a system call per enter.

use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use hyperion_model::sync::{lock, read, write};
use hyperion_pm2::ThreadId;

/// A thread's place in the grant order: arrival clock (ps), then thread id.
pub(crate) type Key = (u64, ThreadId);

/// Published by a thread that constrains nobody (see the module docs).
const PARKED: u64 = u64::MAX;

/// How long an admission waits on a bound that does not move before it gives
/// up on the order.  A deadlock fuse, not a tuning knob: bounds move every
/// few microseconds of host time, and every trip is counted.
const FUSE: Duration = Duration::from_millis(100);

/// Polling rounds of an admission between two sleeps: yielding is enough
/// while the awaited thread shares this CPU, the sleep keeps a long wait
/// from occupying a CPU of its own.  The usual wait is one operation of the
/// awaited thread (tens of microseconds) while a sleep costs 100 µs and
/// more, so the rounds must outlast it: at 64 (≈ 20 µs on an otherwise idle
/// CPU) `kv_read_unix` took 3.4 s of wall time on two CPUs, at 512 and
/// beyond 1.1–1.2 s, as before the order; pinned runs do not notice.
const SPINS_PER_SLEEP: u32 = 512;

/// Who takes over a thread's place in the order when it terminates.
enum Successor {
    Unset,
    /// A thread blocked in `join` on this one.
    Joiner(Arc<Slot>),
    Retired,
}

/// One thread's published progress.
pub(crate) struct Slot {
    thread: ThreadId,
    bound: AtomicU64,
    successor: Mutex<Successor>,
}

impl std::fmt::Debug for Slot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Slot({}: {})", self.thread, self.bound.load(SeqCst))
    }
}

impl Slot {
    fn new(thread: ThreadId, bound_ps: u64) -> Self {
        Slot {
            thread,
            bound: AtomicU64::new(bound_ps),
            successor: Mutex::new(Successor::Unset),
        }
    }

    /// The owning thread publishes `bound_ps` as its new lower bound.
    pub(crate) fn publish(&self, bound_ps: u64) {
        self.bound.store(bound_ps, SeqCst);
    }

    /// The owning thread waits for another one: it constrains nobody until
    /// somebody [wakes](OrderTable::wake) it.
    pub(crate) fn park(&self) {
        self.publish(PARKED);
    }

    /// Block in `join` behind `child`: park, unless the child is already
    /// gone.  The child's [`OrderTable::retire`] makes this thread runnable
    /// again before the child disappears from the order itself.
    pub(crate) fn park_behind(self: &Arc<Slot>, child: &Slot) {
        let mut successor = lock(&child.successor);
        if matches!(*successor, Successor::Unset) {
            *successor = Successor::Joiner(Arc::clone(self));
            self.park();
        }
    }

    /// The bound, if this thread may still act before `key`.
    fn preceding(&self, key: Key) -> Option<u64> {
        let bound = self.bound.load(SeqCst);
        (bound != PARKED && (bound, self.thread) < key).then_some(bound)
    }
}

/// The published progress of every thread of a run, indexed by thread id.
#[derive(Default)]
pub(crate) struct OrderTable {
    /// Scans hold the read side; a parked thread is made runnable under the
    /// write side, so no scan sees the waker's later progress without the
    /// bound it left behind for the woken thread.
    slots: RwLock<Vec<Arc<Slot>>>,
}

impl OrderTable {
    /// Add `thread` to the order with its starting clock as first bound.
    /// Called by the *creating* thread before the new one exists, so nobody
    /// can be admitted past a thread the host has not started yet.
    pub(crate) fn register(&self, thread: ThreadId, start_ps: u64) -> Arc<Slot> {
        let slot = Arc::new(Slot::new(thread, start_ps));
        let mut slots = write(&self.slots);
        // Ids are handed out before this call, so two creating threads may
        // get here in either order: a gap is a thread still behind its
        // creator's own bound.
        while slots.len() <= thread.0 as usize {
            let gap = ThreadId(slots.len() as u64);
            slots.push(Arc::new(Slot::new(gap, PARKED)));
        }
        slots[thread.0 as usize] = Arc::clone(&slot);
        slot
    }

    /// Publish `bound_ps` on behalf of the parked thread behind `slot`: it
    /// is runnable from that clock on, whenever the host gets round to it.
    /// The waker calls this *before* it publishes its own next move.
    pub(crate) fn wake(&self, slot: &Slot, bound_ps: u64) {
        let _no_scan = write(&self.slots);
        slot.publish(bound_ps);
    }

    /// The thread behind `slot` ended at `end_ps`: hand its place to a
    /// waiting joiner (whose clock is about to merge `end_ps`), then leave
    /// the order.
    pub(crate) fn retire(&self, slot: &Slot, end_ps: u64) {
        let successor = std::mem::replace(&mut *lock(&slot.successor), Successor::Retired);
        if let Successor::Joiner(joiner) = successor {
            self.wake(&joiner, end_ps);
        }
        slot.park();
    }

    /// The admission step: return once no runnable thread's published bound
    /// precedes `key` (the caller has published `key.0` as its own bound).
    /// Returns `false` if the wait was abandoned through the fuse — the
    /// caller proceeds out of order and must count the escape.
    pub(crate) fn admit(&self, key: Key) -> bool {
        let mut spins = 0u32;
        // The furthest-behind bound as of the last sleep, and since when.
        let mut stuck: Option<(u64, Instant)> = None;
        loop {
            let behind = read(&self.slots)
                .iter()
                .filter_map(|s| s.preceding(key))
                .min();
            let Some(behind) = behind else {
                return true;
            };
            spins += 1;
            if spins % SPINS_PER_SLEEP != 0 {
                std::thread::yield_now();
                continue;
            }
            match stuck {
                Some((bound, since)) if bound == behind => {
                    if since.elapsed() >= FUSE {
                        return false;
                    }
                }
                _ => stuck = Some((behind, Instant::now())),
            }
            std::thread::sleep(Duration::from_micros(50));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(bounds: &[u64]) -> (OrderTable, Vec<Arc<Slot>>) {
        let table = OrderTable::default();
        let slots = bounds
            .iter()
            .enumerate()
            .map(|(i, &b)| table.register(ThreadId(i as u64), b))
            .collect();
        (table, slots)
    }

    #[test]
    fn the_smallest_key_is_admitted_and_ties_go_to_the_lower_thread_id() {
        let (table, _slots) = table(&[100, 100, 250]);
        assert!(table.admit((100, ThreadId(0))));
        // Thread 1 ties with thread 0 on the clock and loses on the id:
        // nothing moves thread 0's bound, so only the fuse ends the wait.
        assert!(!table.admit((100, ThreadId(1))));
    }

    #[test]
    fn a_parked_thread_constrains_nobody_until_it_is_woken() {
        let (table, slots) = table(&[10, 500]);
        slots[0].park();
        assert!(table.admit((500, ThreadId(1))));
        table.wake(&slots[0], 20);
        assert!(!table.admit((500, ThreadId(1))));
    }

    #[test]
    fn an_admission_waits_until_the_earlier_thread_publishes_past_it() {
        let (table, slots) = table(&[10, 500]);
        let table = Arc::new(table);
        let waiter = {
            let table = Arc::clone(&table);
            std::thread::spawn(move || table.admit((500, ThreadId(1))))
        };
        // Progress that stays below the key keeps the waiter waiting (and
        // re-arms the fuse: the whole wait is longer than it); passing the
        // key releases it in order.
        for bound in [100, 300, 499, 501] {
            std::thread::sleep(FUSE / 2);
            slots[0].publish(bound);
        }
        assert!(waiter.join().unwrap(), "admitted in order, not by the fuse");
    }

    #[test]
    fn a_retiring_thread_hands_its_place_to_its_joiner() {
        let (table, slots) = table(&[0, 40, 60]);
        slots[0].park_behind(&slots[1]);
        // The joiner is parked: only the child constrains thread 2.
        assert!(!table.admit((60, ThreadId(2))));
        table.retire(&slots[1], 90);
        // The joiner is runnable again from the child's end on.
        assert!(table.admit((60, ThreadId(2))));
        assert!(!table.admit((95, ThreadId(2))));
        // Joining a thread that is already gone does not park.
        slots[2].park_behind(&slots[1]);
        assert_eq!(slots[2].preceding((61, ThreadId(0))), Some(60));
    }
}
