//! The windowed accuracy gate the speculative fetch mechanisms throttle
//! themselves on: the stride prefetch and `java_ad`'s speculative batching
//! (`fetch.rs`).

use std::sync::atomic::{AtomicU64, Ordering};

/// Acquires of a node between two halvings of its windowed counts (see
/// `NodeFetchState::begin_acquire`).
pub(crate) const GATE_WINDOW: u64 = 256;

/// Trials of a speculative fetch mechanism on one node and how they turned
/// out, over a sliding window: both counts are halved every
/// [`GATE_WINDOW`] acquires.  A mechanism that throttles itself on
/// these cannot latch off — once it stops trying, its record fades and it
/// probes again.
#[derive(Debug, Default)]
pub(crate) struct Windowed {
    trials: AtomicU64,
    outcomes: AtomicU64,
}

impl Windowed {
    pub(crate) fn tried(&self, n: u64) {
        self.trials.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn outcome(&self, n: u64) {
        self.outcomes.fetch_add(n, Ordering::Relaxed);
    }

    /// Fade the record: both counts halve.
    pub(crate) fn halve(&self) {
        for count in [&self.trials, &self.outcomes] {
            count.store(count.load(Ordering::Relaxed) / 2, Ordering::Relaxed);
        }
    }

    /// At least `floor` trials are on record.
    pub(crate) fn proven(&self, floor: u64) -> bool {
        self.trials.load(Ordering::Relaxed) >= floor
    }

    /// Outcomes are *wasted* trials: true while at most 1 trial in 16 was
    /// wasted, counting at least `floor` trials so that an early waste
    /// bites at once.
    pub(crate) fn wastes_little(&self, floor: u64) -> bool {
        let wasted = self.outcomes.load(Ordering::Relaxed);
        wasted.saturating_mul(16) <= self.trials.load(Ordering::Relaxed).max(floor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_gate_closes_on_its_record_and_reopens_once_that_has_faded() {
        // One early waste bites at once, and fades instead of latching; a
        // record below the floor proves nothing either way.
        let stride = Windowed::default();
        stride.tried(1);
        stride.outcome(1);
        assert!(!stride.wastes_little(8) && !stride.proven(8));
        stride.halve();
        assert!(stride.wastes_little(8), "not latched");
        let speculation = Windowed::default();
        speculation.tried(16);
        speculation.outcome(2);
        assert!(!speculation.wastes_little(16) && speculation.proven(16));
        speculation.halve();
        speculation.halve();
        assert!(speculation.wastes_little(16), "not latched");
    }

    #[test]
    fn a_nodes_gates_fade_once_every_window_of_acquires() {
        // Shut, a gate sends nothing, so only time can reopen it.
        let node = crate::fetch::NodeFetchState::new(1);
        node.stride.tried(1);
        node.stride.outcome(1);
        (1..GATE_WINDOW).for_each(|_| node.begin_acquire());
        assert!(!node.stride.wastes_little(8), "shut until the window ends");
        node.begin_acquire();
        assert!(node.stride.wastes_little(8), "faded by the window");
    }
}
