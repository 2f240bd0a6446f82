//! The windowed accuracy gate the speculative fetch mechanisms throttle
//! themselves on: the stride prefetch and `java_ad`'s speculative batching
//! (`fetch.rs`) and the validation riders (`riders.rs`).

use std::sync::atomic::{AtomicU64, Ordering};

/// `invalidateCache` episodes of a node between two halvings of its
/// windowed counts (see `NodeFetchState::begin_invalidate`).
pub(crate) const GATE_WINDOW: u64 = 256;

/// Trials of a speculative fetch mechanism on one node and how they turned
/// out, over a sliding window: both counts are halved every
/// [`GATE_WINDOW`] invalidations.  A mechanism that throttles itself on
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

    /// A racing update may be lost with the halving: these are heuristics.
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

    /// Outcomes are *wins* each worth `worth` trials: true while the wins,
    /// plus `credit` wins advanced to get started, pay for the trials.
    pub(crate) fn pays(&self, worth: u64, credit: u64) -> bool {
        let wins = self.outcomes.load(Ordering::Relaxed) + credit;
        self.trials.load(Ordering::Relaxed) <= wins.saturating_mul(worth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_gate_closes_on_its_record_and_reopens_once_that_has_faded() {
        let (worth, credit) = (41, 2);
        let riders = Windowed::default();
        assert!(riders.pays(worth, credit), "credit to begin with");
        riders.tried(credit * worth + 1);
        assert!(!riders.pays(worth, credit), "credit spent, nothing won");
        // One win is worth `worth` trials.
        riders.outcome(1);
        assert!(riders.pays(worth, credit));
        riders.tried(worth);
        assert!(!riders.pays(worth, credit));
        // Closed, it tries nothing, so only time can reopen it.
        riders.halve();
        assert!(riders.pays(worth, credit), "probing again");

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
}
