//! The baton: one application thread runs at a time, chosen by virtual time.
//!
//! Threads are real OS threads but time is virtual, so wherever two threads
//! meet — a monitor (and so every barrier, work queue and shard lock built on
//! one), a home serving their requests — the host scheduler must not decide
//! who goes first.  The rule is the conservative one of discrete-event
//! simulation with lookahead 0: exactly one application thread holds the
//! [`Baton`] and runs; every other runnable thread waits under a key
//! `(virtual clock in ps, thread id)`, and the baton always goes to the
//! smallest key — equal clocks to the lower thread id.
//!
//! A thread gives the baton up only where it has to wait, either for the
//! order or for another thread:
//!
//! * **take a turn** ([`Baton::take_turn`]), at a monitor enter and at the
//!   re-acquire after `wait`: it publishes its key and runs on at once if
//!   that key is still the smallest;
//! * **stop being runnable** ([`Baton::block`], [`Baton::join`],
//!   [`Baton::retire`], [`Baton::drain`]): parked behind a monitor's holder,
//!   in `Object.wait`, in `join`, at its end, and in the run's wait for
//!   unjoined children.  Whoever makes it runnable again — the release that
//!   hands it the monitor, the notify, the ending child — gives it a key,
//!   the clock below which it cannot act ([`Baton::wake`]), and runs on.
//!
//! At every one of these points the thread holds no DSM lock, so the next
//! thread never blocks on a lock a waiting thread holds; everything between
//! two of them — field accesses, page fetches, diffs — reaches the homes in
//! one order that depends on the program and the seed alone.  A hand-off is
//! one `unpark` of the next thread and one `park` of the current one:
//! nothing polls, and no wall clock decides anything.
//!
//! The contract that comes with it: application threads block only through
//! the runtime.  A thread that waits for another application thread on
//! something the runtime cannot see — a host lock, a channel — does so
//! holding the baton, and the run hangs.

use std::collections::BTreeSet;
use std::sync::{Mutex, MutexGuard};
use std::thread::Thread;

use hyperion_model::sync::lock;
use hyperion_pm2::ThreadId;

/// A thread's place in the order: virtual clock (ps), then thread id.
pub(crate) type Key = (u64, ThreadId);

/// How a thread's life ends, as far as a joiner is concerned.
#[derive(Default)]
enum End {
    #[default]
    Running,
    /// A thread blocked in `join` on this one.
    Joiner(ThreadId),
    Retired,
}

#[derive(Default)]
struct Entry {
    /// The OS thread to unpark when the baton reaches this one.
    os: Option<Thread>,
    end: End,
}

#[derive(Default)]
struct Table {
    /// Runnable threads waiting for the baton, smallest key first.
    ready: BTreeSet<Key>,
    /// The thread running, if any is.
    holder: Option<ThreadId>,
    /// The thread in [`Baton::drain`], next once nobody else is runnable.
    drainer: Option<ThreadId>,
    /// Indexed by thread id.
    threads: Vec<Entry>,
}

impl Table {
    fn entry(&mut self, thread: ThreadId) -> &mut Entry {
        let i = thread.0 as usize;
        if self.threads.len() <= i {
            self.threads.resize_with(i + 1, Entry::default);
        }
        &mut self.threads[i]
    }

    /// Give the baton to the smallest ready key (to the drainer if nobody
    /// is ready); returns the thread to unpark.
    fn pass(&mut self) -> Option<Thread> {
        let next = self.ready.pop_first().map(|(_, t)| t);
        self.holder = next.or_else(|| self.drainer.take());
        let holder = self.holder?;
        self.entry(holder).os.clone()
    }
}

/// [Pass](Table::pass) the baton and wake whoever got it.
fn pass_on(mut t: MutexGuard<'_, Table>) {
    let next = t.pass();
    drop(t);
    if let Some(next) = next {
        next.unpark();
    }
}

/// Who runs: one application thread of a run at a time (see the module
/// docs).
#[derive(Default)]
pub(crate) struct Baton {
    table: Mutex<Table>,
}

impl Baton {
    /// The run's main thread holds the baton from the start.
    pub(crate) fn begin(&self, me: ThreadId) {
        let mut t = lock(&self.table);
        assert!(t.holder.is_none(), "a run is already under way");
        t.entry(me).os = Some(std::thread::current());
        t.holder = Some(me);
    }

    /// A new thread, runnable from `start_ps`.  Called by its creator —
    /// who holds the baton — once the OS thread exists.
    pub(crate) fn register(&self, thread: ThreadId, start_ps: u64, os: Thread) {
        let mut t = lock(&self.table);
        t.entry(thread).os = Some(os);
        t.ready.insert((start_ps, thread));
    }

    /// Take a turn at `key`: run on if it is still the smallest, otherwise
    /// pass the baton and wait until it comes back.
    pub(crate) fn take_turn(&self, key: Key) {
        let mut t = lock(&self.table);
        if t.ready.first().is_some_and(|&first| first < key) {
            t.ready.insert(key);
            self.hand_off(t, key.1);
        }
    }

    /// Stop being runnable until somebody [wakes](Baton::wake) `me` and the
    /// baton comes back.
    pub(crate) fn block(&self, me: ThreadId) {
        self.hand_off(lock(&self.table), me);
    }

    /// The blocked `thread` is runnable again, acting no earlier than
    /// `bound_ps`.  The caller runs on.
    pub(crate) fn wake(&self, thread: ThreadId, bound_ps: u64) {
        lock(&self.table).ready.insert((bound_ps, thread));
    }

    /// Block in `join` until `child` has [retired](Baton::retire), unless
    /// it already has.
    pub(crate) fn join(&self, me: ThreadId, child: ThreadId) {
        let mut t = lock(&self.table);
        let end = &mut t.entry(child).end;
        if matches!(end, End::Running) {
            *end = End::Joiner(me);
            self.hand_off(t, me);
        }
    }

    /// `me` ended at `end_ps`: make its joiner (whose clock is about to
    /// merge `end_ps`) runnable from there, and pass the baton on for good.
    pub(crate) fn retire(&self, me: ThreadId, end_ps: u64) {
        let mut t = lock(&self.table);
        if let End::Joiner(joiner) = std::mem::replace(&mut t.entry(me).end, End::Retired) {
            t.ready.insert((end_ps, joiner));
        }
        if t.holder == Some(me) {
            pass_on(t);
        }
    }

    /// The run's wait for the threads nobody joined: stop being runnable
    /// until no other thread is — which must mean every other one has ended.
    pub(crate) fn drain(&self, me: ThreadId) {
        let mut t = lock(&self.table);
        t.drainer = Some(me);
        self.hand_off(t, me);
        let ended = |(i, e): (usize, &Entry)| i == me.0 as usize || matches!(e.end, End::Retired);
        assert!(
            lock(&self.table).threads.iter().enumerate().all(ended),
            "every thread left is blocked for good: the program deadlocked"
        );
    }

    fn hand_off(&self, t: MutexGuard<'_, Table>, me: ThreadId) {
        pass_on(t);
        self.await_turn(me);
    }

    /// Park until the baton reaches `me` (a new thread's first act):
    /// whoever passes it here unparks `me` once it has.
    pub(crate) fn await_turn(&self, me: ThreadId) {
        loop {
            std::thread::park();
            if lock(&self.table).holder == Some(me) {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A baton held by thread 0 (the test's own), and who ran in turn.
    type Run = (Arc<Baton>, Arc<Mutex<Vec<u64>>>);

    fn baton() -> Run {
        let baton = Arc::new(Baton::default());
        baton.begin(ThreadId(0));
        (baton, Arc::default())
    }

    /// Start thread `id`, runnable from `start_ps`: once the baton reaches
    /// it, it logs its id, runs `body` and retires at `end_ps`.
    fn start(run: &Run, id: u64, start_ps: u64, end_ps: u64, body: impl FnOnce() + Send + 'static) {
        let (baton, log, me) = (Arc::clone(&run.0), Arc::clone(&run.1), ThreadId(id));
        let os = std::thread::spawn(move || {
            baton.await_turn(me);
            lock(&log).push(id);
            body();
            baton.retire(me, end_ps);
        });
        run.0.register(me, start_ps, os.thread().clone());
    }

    /// Let every other thread run to its end, then read the log.
    fn ran(run: &Run) -> Vec<u64> {
        run.0.drain(ThreadId(0));
        std::mem::take(&mut lock(&run.1))
    }

    #[test]
    fn the_smallest_key_runs_next() {
        let run = baton();
        for (id, start_ps) in [(1, 30), (2, 10), (3, 20)] {
            start(&run, id, start_ps, 99, || ());
        }
        // Thread 0 takes a turn at 25: the two keys below it run first.
        run.0.take_turn((25, ThreadId(0)));
        lock(&run.1).push(0);
        assert_eq!(ran(&run), [2, 3, 0, 1]);
    }

    #[test]
    fn a_tie_goes_to_the_lower_thread_id() {
        let run = baton();
        for id in [3, 1, 2] {
            start(&run, id, 10, 99, || ());
        }
        // Thread 0 ties with all three at 10 and runs on.
        run.0.take_turn((10, ThreadId(0)));
        lock(&run.1).push(0);
        assert_eq!(ran(&run), [0, 1, 2, 3]);
    }

    #[test]
    fn a_parked_thread_constrains_nobody_until_it_is_woken() {
        let run = baton();
        let (baton, log) = run.clone();
        start(&run, 1, 10, 99, move || {
            baton.block(ThreadId(1));
            lock(&log).push(1);
        });
        let (baton, log) = run.clone();
        start(&run, 2, 20, 99, move || {
            // Thread 1 (key 10) is parked: this one ran in its place.
            baton.wake(ThreadId(1), 5);
            baton.take_turn((25, ThreadId(2)));
            lock(&log).push(2);
        });
        assert_eq!(ran(&run), [1, 2, 1, 2]);
    }

    #[test]
    fn a_retiring_thread_hands_its_place_to_its_joiner() {
        let run = baton();
        start(&run, 1, 40, 90, || ());
        start(&run, 2, 60, 99, || ());
        // Thread 1 ends at 90, so thread 2 (60) runs before its joiner.
        run.0.join(ThreadId(0), ThreadId(1));
        lock(&run.1).push(0);
        // Joining a thread that is already gone does not block.
        run.0.join(ThreadId(0), ThreadId(1));
        assert_eq!(ran(&run), [1, 2, 0]);
    }
}
