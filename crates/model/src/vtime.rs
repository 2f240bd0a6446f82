//! Virtual time: the clocks that replace the 2001 clusters' wall clocks.
//!
//! The reproduction executes Java-style threads as real OS threads, but all
//! *reported* time is virtual.  Three pieces cooperate:
//!
//! * [`VTime`] — a picosecond-resolution instant/duration (one type serves as
//!   both, like `std::time::Duration`).
//! * [`ThreadClock`] — a thread-private Lamport-style clock.  Compute work,
//!   locality checks, page faults and message latencies all advance it.
//! * [`ServerClock`] — the reservation calendar of a node's protocol-service
//!   processor.  Remote requests are booked into disjoint service intervals
//!   in *virtual-time* order, which is how home-node contention shows up in
//!   the execution times (essential for the Barnes-Hut flattening in Fig. 3)
//!   without the order in which OS threads happen to run leaking into them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::sync::lock;

/// A point in (or span of) virtual time, stored in integer picoseconds.
///
/// Picoseconds keep sub-cycle costs exact (a 450 MHz cycle is 2222 ps) while
/// still allowing more than five virtual hours in a `u64`, far beyond the
/// longest run in the paper (~3000 s for ASP on one node).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VTime(u64);

impl VTime {
    /// The zero instant / empty duration.
    pub const ZERO: VTime = VTime(0);
    /// Largest representable time.
    pub const MAX: VTime = VTime(u64::MAX);

    /// Construct from raw picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        VTime(ps)
    }

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        VTime(ns * 1_000)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        VTime(us * 1_000_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        VTime(ms * 1_000_000_000)
    }

    /// Construct from a floating-point number of nanoseconds (saturating,
    /// never negative).
    #[inline]
    pub fn from_ns_f64(ns: f64) -> Self {
        if ns <= 0.0 {
            return VTime::ZERO;
        }
        let ps = ns * 1e3;
        if ps >= u64::MAX as f64 {
            VTime::MAX
        } else {
            VTime(ps as u64)
        }
    }

    /// Raw picoseconds.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Whole nanoseconds (truncating).
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Saturating subtraction (clamps at zero).
    #[inline]
    pub fn saturating_sub(self, rhs: VTime) -> VTime {
        VTime(self.0.saturating_sub(rhs.0))
    }

    /// Pointwise maximum.
    #[inline]
    pub fn max(self, rhs: VTime) -> VTime {
        if self.0 >= rhs.0 {
            self
        } else {
            rhs
        }
    }

    /// Multiply a duration by an integer count (saturating).
    #[inline]
    pub fn times(self, n: u64) -> VTime {
        VTime(self.0.saturating_mul(n))
    }
}

impl std::ops::Add for VTime {
    type Output = VTime;
    #[inline]
    fn add(self, rhs: VTime) -> VTime {
        VTime(self.0.saturating_add(rhs.0))
    }
}

impl std::ops::AddAssign for VTime {
    #[inline]
    fn add_assign(&mut self, rhs: VTime) {
        *self = *self + rhs;
    }
}

impl std::ops::Sub for VTime {
    type Output = VTime;
    #[inline]
    fn sub(self, rhs: VTime) -> VTime {
        self.saturating_sub(rhs)
    }
}

impl std::iter::Sum for VTime {
    fn sum<I: Iterator<Item = VTime>>(iter: I) -> VTime {
        iter.fold(VTime::ZERO, |a, b| a + b)
    }
}

impl std::fmt::Debug for VTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl std::fmt::Display for VTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.as_secs_f64();
        if s >= 1.0 {
            write!(f, "{s:.3} s")
        } else if s >= 1e-3 {
            write!(f, "{:.3} ms", s * 1e3)
        } else if s >= 1e-6 {
            write!(f, "{:.3} us", s * 1e6)
        } else {
            write!(f, "{} ns", self.as_ns())
        }
    }
}

/// A thread-private virtual clock.
///
/// The clock only ever moves forward.  It is advanced by charging durations
/// (compute work, protocol costs) and by merging with timestamps received
/// from other threads or nodes (RPC replies, monitor hand-offs, barrier
/// releases), exactly like a Lamport clock over the events of the simulated
/// execution.
#[derive(Clone, Debug)]
pub struct ThreadClock {
    now: VTime,
}

impl ThreadClock {
    /// A clock starting at virtual time zero.
    pub fn new() -> Self {
        Self::starting_at(VTime::ZERO)
    }

    /// A clock starting at the given instant (used when a thread is created
    /// by another thread part-way through a run).
    pub fn starting_at(start: VTime) -> Self {
        ThreadClock { now: start }
    }

    /// Current virtual time of this thread.
    #[inline]
    pub fn now(&self) -> VTime {
        self.now
    }

    /// Advance the clock by `d` units of local work.
    #[inline]
    pub fn advance(&mut self, d: VTime) {
        self.now += d;
    }

    /// Merge with an externally observed timestamp: the clock jumps forward
    /// to `t` if `t` is later than the current time (it never moves back).
    #[inline]
    pub fn merge(&mut self, t: VTime) {
        if t > self.now {
            self.now = t;
        }
    }
}

impl Default for ThreadClock {
    fn default() -> Self {
        Self::new()
    }
}

/// The service clock of a node's protocol processor.
///
/// Incoming DSM requests (page fetches, diff applications, remote monitor
/// acquisitions) are serialised: every request is booked a service interval
/// that starts no earlier than its arrival and overlaps no other booking.
/// This models the home node's handler occupancy and is the source of the
/// contention-driven flattening the paper observes for Barnes-Hut at large
/// node counts.
///
/// The bookings form a *reservation calendar* — a sorted list of disjoint
/// busy intervals — and a request takes the earliest idle gap at or after
/// its arrival that fits its service time.  The outcome therefore depends on
/// the requests' *virtual* arrival times, not on which OS thread reached the
/// home first: a client whose clock is behind is served in the idle time the
/// home really had back then instead of queueing behind bookings that lie in
/// its virtual future.
#[derive(Debug, Default)]
pub struct ServerClock {
    calendar: Mutex<Calendar>,
}

/// Busy intervals a calendar keeps apart.  Only requests that arrive *before*
/// the newest bookings need the older gaps, and closed-loop clients stay
/// within a few dozen round trips of each other (they meet at a monitor
/// every few operations, and monitors are granted in virtual-time order):
/// `kv_read` modeled time is 10.82 / 10.77 / 10.78 s at
/// 16 / 64 / 1024 (16.0 s at 4), so past the plateau this is a constant, not
/// a tuning knob.
const CALENDAR_CAPACITY: usize = 64;

/// A busy interval `[start, end)` in picoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Busy {
    start: u64,
    end: u64,
}

/// Sorted, disjoint, non-touching busy intervals; `busy[..len]` is live.  One
/// spare slot lets an insertion land before the fold brings the length back.
#[derive(Clone, Debug)]
struct Calendar {
    busy: [Busy; CALENDAR_CAPACITY + 1],
    len: usize,
}

impl Default for Calendar {
    fn default() -> Self {
        Calendar {
            busy: [Busy::default(); CALENDAR_CAPACITY + 1],
            len: 0,
        }
    }
}

impl Calendar {
    /// Book `service` in the earliest idle gap at or after `arrival`;
    /// returns the start of the booking.
    fn book(&mut self, arrival: u64, service: u64) -> u64 {
        // Bookings that ended by `arrival` cannot delay this request.
        let mut at = self.busy[..self.len].partition_point(|b| b.end <= arrival);
        let mut start = arrival;
        while at < self.len && start.saturating_add(service) > self.busy[at].start {
            start = start.max(self.busy[at].end);
            at += 1;
        }
        let end = start.saturating_add(service);
        if end == start {
            // An empty booking occupies nothing (and must not enter the list).
            return start;
        }
        let joins_prev = at > 0 && self.busy[at - 1].end == start;
        let joins_next = at < self.len && self.busy[at].start == end;
        match (joins_prev, joins_next) {
            (true, true) => {
                self.busy[at - 1].end = self.busy[at].end;
                self.remove(at);
            }
            (true, false) => self.busy[at - 1].end = end,
            (false, true) => self.busy[at].start = start,
            (false, false) => {
                self.busy.copy_within(at..self.len, at + 1);
                self.busy[at] = Busy { start, end };
                self.len += 1;
                if self.len > CALENDAR_CAPACITY {
                    // Fold the oldest gap into "busy".  Conservative: a
                    // late-arriving request can only be made to wait longer,
                    // no booking is ever overlapped.
                    self.busy[0].end = self.busy[1].end;
                    self.remove(1);
                }
            }
        }
        start
    }

    fn remove(&mut self, at: usize) {
        self.busy.copy_within(at + 1..self.len, at);
        self.len -= 1;
    }
}

impl ServerClock {
    /// A server that is free from virtual time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserve `service` time in the earliest idle gap that starts no
    /// earlier than `arrival`.
    ///
    /// Returns the completion time of the request; it began service at
    /// `completion - service`.  Linearisable: concurrent callers each obtain
    /// a disjoint service interval.
    pub fn serve(&self, arrival: VTime, service: VTime) -> VTime {
        let start = lock(&self.calendar).book(arrival.as_ps(), service.as_ps());
        VTime::from_ps(start.saturating_add(service.as_ps()))
    }
}

/// A shared monotone watermark of virtual time, used to compute the maximum
/// finishing time over a set of threads (e.g. barrier release times and the
/// final execution time of a run).
#[derive(Debug, Default)]
pub struct TimeWatermark {
    max_ps: AtomicU64,
}

impl TimeWatermark {
    /// Record an observed time; keeps the maximum.
    pub fn record(&self, t: VTime) {
        self.max_ps.fetch_max(t.as_ps(), Ordering::AcqRel);
    }

    /// The maximum time recorded so far.
    pub fn max(&self) -> VTime {
        VTime::from_ps(self.max_ps.load(Ordering::Acquire))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vtime_conversions_round_trip() {
        assert_eq!(VTime::from_ns(1).as_ps(), 1_000);
        assert_eq!(VTime::from_us(3).as_ns(), 3_000);
        assert_eq!(VTime::from_ms(2).as_ns(), 2_000_000);
        assert!((VTime::from_ms(1500).as_secs_f64() - 1.5).abs() < 1e-9);
        assert_eq!(VTime::from_ns_f64(-5.0), VTime::ZERO);
        assert!((VTime::from_ns_f64(2.5).as_ps()) == 2_500);
    }

    #[test]
    fn vtime_saturates_instead_of_overflowing() {
        let max = VTime::MAX;
        assert_eq!(max + VTime::from_ns(1), VTime::MAX);
        assert_eq!(VTime::ZERO - VTime::from_ns(1), VTime::ZERO);
        assert_eq!(VTime::MAX.times(3), VTime::MAX);
        assert_eq!(VTime::from_ns_f64(1e20), VTime::MAX);
    }

    #[test]
    fn vtime_ordering_and_max() {
        let a = VTime::from_us(5);
        let b = VTime::from_us(7);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(b.max(a), b);
        assert_eq!(a.times(3), VTime::from_us(15));
    }

    #[test]
    fn vtime_display_picks_sensible_units() {
        assert_eq!(format!("{}", VTime::from_ns(120)), "120 ns");
        assert_eq!(format!("{}", VTime::from_us(12)), "12.000 us");
        assert_eq!(format!("{}", VTime::from_ms(12)), "12.000 ms");
        assert_eq!(format!("{}", VTime::from_ms(2000)), "2.000 s");
    }

    #[test]
    fn vtime_sum_over_iterator() {
        let total: VTime = (1..=4u64).map(VTime::from_us).sum();
        assert_eq!(total, VTime::from_us(10));
    }

    #[test]
    fn thread_clock_advances_and_merges() {
        let mut c = ThreadClock::new();
        c.advance(VTime::from_us(10));
        assert_eq!(c.now(), VTime::from_us(10));

        // Merging with an earlier timestamp is a no-op.
        c.merge(VTime::from_us(5));
        assert_eq!(c.now(), VTime::from_us(10));

        // Merging with a later timestamp jumps forward.
        c.merge(VTime::from_us(25));
        assert_eq!(c.now(), VTime::from_us(25));
    }

    #[test]
    fn thread_clock_starting_at_offset() {
        let mut c = ThreadClock::starting_at(VTime::from_ms(1));
        assert_eq!(c.now(), VTime::from_ms(1));
        c.advance(VTime::from_ms(1));
        assert_eq!(c.now(), VTime::from_ms(2));
    }

    #[test]
    fn server_clock_serialises_requests() {
        let s = ServerClock::new();
        // First request arrives at t=10us and takes 5us.
        let end1 = s.serve(VTime::from_us(10), VTime::from_us(5));
        assert_eq!(end1, VTime::from_us(15));
        // Second request arrives earlier but the server is busy until 15us.
        let end2 = s.serve(VTime::from_us(12), VTime::from_us(5));
        assert_eq!(end2, VTime::from_us(20));
        // Third request arrives long after the server is idle.
        let end3 = s.serve(VTime::from_us(100), VTime::from_us(1));
        assert_eq!(end3, VTime::from_us(101));
        // The server is busy until 101us, and idle from then on.
        let end4 = s.serve(VTime::from_us(100), VTime::from_us(1));
        assert_eq!(end4, VTime::from_us(102));
    }

    #[test]
    fn server_clock_concurrent_reservations_do_not_overlap() {
        use std::sync::Arc;
        let s = Arc::new(ServerClock::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                let mut ends = Vec::new();
                for _ in 0..1000 {
                    ends.push(s.serve(VTime::ZERO, VTime::from_ns(10)));
                }
                ends
            }));
        }
        let mut all: Vec<VTime> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        // Each of the 8000 reservations is 10ns; because they never overlap,
        // all completion times are distinct multiples of 10ns and the last
        // one is exactly 8000 * 10ns.
        all.dedup();
        assert_eq!(all.len(), 8000);
        assert_eq!(*all.last().unwrap(), VTime::from_ns(80_000));
    }

    /// Seeded generator for the calendar property tests (no `rand` here).
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, bound: u64) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (self.0 >> 33) % bound
        }
    }

    /// Book `requests` (`(arrival, service)`) in order; returns each one's
    /// `(start, end)`.
    fn book_all(cal: &mut Calendar, requests: &[(u64, u64)]) -> Vec<(u64, u64)> {
        requests
            .iter()
            .map(|&(arrival, service)| {
                let start = cal.book(arrival, service);
                (start, start + service)
            })
            .collect()
    }

    fn assert_well_formed(cal: &Calendar) {
        let live = &cal.busy[..cal.len];
        assert!(cal.len <= CALENDAR_CAPACITY);
        assert!(live.iter().all(|b| b.start < b.end));
        assert!(live.windows(2).all(|w| w[0].end < w[1].start), "{live:?}");
    }

    fn busy_total(cal: &Calendar) -> u64 {
        cal.busy[..cal.len].iter().map(|b| b.end - b.start).sum()
    }

    #[test]
    fn calendar_bookings_never_overlap_and_never_start_before_arrival() {
        for seed in 1..=20u64 {
            let mut rng = Lcg(seed);
            // Far more requests than the calendar keeps apart, arriving out
            // of order over a span the services fill to about a third.
            let n = 10 * CALENDAR_CAPACITY as u64;
            let requests: Vec<(u64, u64)> = (0..n)
                .map(|_| (rng.below(n * 300), 1 + rng.below(200)))
                .collect();
            let mut cal = Calendar::default();
            let mut booked = Vec::new();
            for &(arrival, service) in &requests {
                let start = cal.book(arrival, service);
                assert!(start >= arrival, "seed {seed}: served before it arrived");
                booked.push((start, start + service));
                assert_well_formed(&cal);
            }
            // Busy time is conserved: what the calendar holds is what was
            // booked, plus whatever idle time the fold declared busy.
            let served: u64 = requests.iter().map(|r| r.1).sum();
            assert!(busy_total(&cal) >= served);
            booked.sort_unstable();
            assert!(
                booked.windows(2).all(|w| w[0].1 <= w[1].0),
                "seed {seed}: two bookings overlap"
            );
        }
    }

    #[test]
    fn calendar_below_capacity_holds_exactly_the_booked_time() {
        for seed in 1..=20u64 {
            let mut rng = Lcg(seed);
            let requests: Vec<(u64, u64)> = (0..CALENDAR_CAPACITY as u64)
                .map(|_| (rng.below(20_000), 1 + rng.below(200)))
                .collect();
            let mut cal = Calendar::default();
            book_all(&mut cal, &requests);
            assert_well_formed(&cal);
            assert_eq!(busy_total(&cal), requests.iter().map(|r| r.1).sum::<u64>());
        }
    }

    #[test]
    fn calendar_order_of_booking_does_not_matter_without_conflicts() {
        for seed in 1..=20u64 {
            let mut rng = Lcg(seed);
            // Requests whose service intervals are disjoint as they arrive
            // (some touching): every one is served on arrival, whichever
            // order the host delivers them in.
            let mut at = 0;
            let mut requests: Vec<(u64, u64)> = (0..CALENDAR_CAPACITY)
                .map(|_| {
                    let arrival = at + rng.below(3) * rng.below(500);
                    let service = 1 + rng.below(200);
                    at = arrival + service;
                    (arrival, service)
                })
                .collect();
            for _ in 0..10 {
                for i in (1..requests.len()).rev() {
                    requests.swap(i, rng.below(i as u64 + 1) as usize);
                }
                let mut cal = Calendar::default();
                for (&(arrival, service), (start, end)) in
                    requests.iter().zip(book_all(&mut cal, &requests))
                {
                    assert_eq!((start, end), (arrival, arrival + service), "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn calendar_serves_a_late_comer_in_the_idle_gap_it_arrived_in() {
        let s = ServerClock::new();
        let us = VTime::from_us;
        assert_eq!(s.serve(us(100), us(10)), us(110));
        assert_eq!(s.serve(us(200), us(10)), us(210));
        // Behind both bookings in host order, but the home was idle at 150.
        assert_eq!(s.serve(us(150), us(10)), us(160));
        // A gap too short for the request is skipped, not squeezed into.
        assert_eq!(s.serve(us(195), us(10)), us(220));
        // Arriving mid-service queues behind that booking only.
        assert_eq!(s.serve(us(105), us(5)), us(115));
        // Simultaneous arrivals serialise.
        assert_eq!(s.serve(us(100), us(10)), us(125));
        // The latest booking ends at 220: a request inside it waits for it.
        assert_eq!(s.serve(us(219), us(1)), us(221));
    }

    #[test]
    fn calendar_fold_at_capacity_only_ever_lengthens_a_wait() {
        let mut rng = Lcg(7);
        // Fill to capacity with bookings separated by idle gaps.
        let mut full = Calendar::default();
        for i in 0..CALENDAR_CAPACITY as u64 {
            assert_eq!(full.book(i * 1_000, 100 + rng.below(400)), i * 1_000);
        }
        assert_eq!(full.len, CALENDAR_CAPACITY);
        // One more, beyond everything: the oldest gap is folded into "busy".
        let mut folded = full.clone();
        let horizon = CALENDAR_CAPACITY as u64 * 1_000;
        assert_eq!(folded.book(2 * horizon, 100), 2 * horizon);
        assert_well_formed(&folded);
        assert_eq!(folded.busy[0].end, full.busy[1].end);
        assert_eq!(folded.busy[1..folded.len - 1], full.busy[2..full.len]);

        let mut delayed = 0;
        for _ in 0..2_000 {
            let (arrival, service) = (rng.below(horizon), 1 + rng.below(600));
            let before = full.clone().book(arrival, service);
            let after = folded.clone().book(arrival, service);
            assert!(after >= before, "the fold shortened a wait");
            delayed += usize::from(after > before);
        }
        // Only requests that wanted the folded gap pay for it.
        assert!(delayed > 0 && delayed < 100, "{delayed} of 2000 delayed");
    }

    #[test]
    fn watermark_tracks_maximum() {
        let w = TimeWatermark::default();
        w.record(VTime::from_us(3));
        w.record(VTime::from_us(1));
        w.record(VTime::from_us(9));
        assert_eq!(w.max(), VTime::from_us(9));
    }
}
