//! Access detection: how a node notices that a `get`/`put` touched a remote
//! object (§3.2, §3.3 of the paper) — the one thing the protocols differ in.
//!
//! Every decision goes through one function, `Detection::technique`: the
//! technique that detects accesses to a frame.  It is [`AdMode::Check`]
//! (an in-line locality check on every access) under `java_ic`,
//! [`AdMode::Protect`] (page protection, a fault on the first access to an
//! absent page) under `java_pf`, and the page's own mode under `java_ad`,
//! whose home pages count as `Protect` (raw access).  `java_ic` is the one
//! protocol that charges its check on a home page too.  From the technique
//! follow the access cost, whether installing a fetched copy ends with an
//! `mprotect` that opens it, and whether invalidating a copy revokes its
//! access rights (both exactly the `Protect` pages).  Only `java_ad` closes
//! per-page epochs (flipping a page's technique with hysteresis around the
//! cost-model break-even `n* = ⌈(t_fault + t_mprotect) / t_check⌉`),
//! predicts re-access, and batches fetches.
//!
//! **JMM obligations**, which these decisions must keep whatever they cost:
//!
//! * An access to a page the node holds no valid copy of (neither home nor
//!   present-and-unprotected) must fetch, and through the engine's fetch
//!   path, which installs the happens-before-carrying copy.  An acquire
//!   invalidates cached copies, so this is what makes a post-acquire read
//!   see the home's released values.
//! * Invalidating a `Protect` page must revoke its access rights: an open
//!   stale copy would satisfy the next access without the fault that the
//!   acquire's invalidation demands.
//! * A page changes technique only at epoch close, which runs for every
//!   non-home frame at an acquire *before* its copy is dropped: no access
//!   can observe a half-switched page.
//! * Batched-fetch riders and speculative riders are full copies installed
//!   by the same reply as the demanded page, so they are exactly as fresh;
//!   a wrong re-access prediction is wasted bytes, never stale ones.
//!
//! Release flushing and replication are no part of detection: the engine
//! reads `TransportConfig::{max_flush_batch_pages, deferred_flush}` where it
//! flushes, and the RPC services register replicas and run quorum writes
//! from `TransportConfig::replication` (see [`crate::config`]).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};

use hyperion_model::{MachineModel, NodeStats, ThreadClock, VTime};

use crate::config::{AdaptiveParams, ProtocolKind};
use crate::page::PageFrame;

/// Which technique detects accesses to a page.
///
/// The adaptive protocol runs a per-page state machine between the paper's
/// two techniques: a page in [`AdMode::Check`] is detected with `java_ic`
/// style in-line checks (cheap when the page is touched sparsely after each
/// invalidation), a page in [`AdMode::Protect`] with `java_pf` style page
/// protection (free for dense re-access).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AdMode {
    /// In-line locality check on every access (`java_ic` mechanics).
    Check,
    /// Page protection + fault on first access (`java_pf` mechanics).
    Protect,
}

/// The `java_ad` state of one frame (unused under `java_ic` / `java_pf`).
/// Fresh frames start in [`AdMode::Check`], the cheap technique for a page
/// whose re-access density is unknown.
#[derive(Debug, Default)]
pub struct AdState {
    /// The page's technique: 0 = `Check`, 1 = `Protect`.
    mode: AtomicU8,
    /// Accesses observed since the last cache invalidation.
    epoch_accesses: AtomicU64,
    /// Accesses observed during the previous invalidation epoch.
    last_epoch_accesses: AtomicU64,
    /// Exponentially smoothed accesses-per-epoch (`avg ← (3·avg + closed)
    /// / 4` at each rotation), so one spiky epoch cannot flip the page.
    avg_accesses: AtomicU64,
    /// True if the current copy was installed speculatively by a batched
    /// fetch and has not been accessed yet.  Still set when the copy is
    /// invalidated ⇒ the prefetch was wasted.
    prefetched: AtomicBool,
    /// Consecutive completed epochs (ending with the previous one) in which
    /// the page was accessed at least once.
    epoch_streak: AtomicU64,
}

impl AdState {
    fn mode(&self) -> AdMode {
        if self.mode.load(Ordering::Relaxed) == 0 {
            AdMode::Check
        } else {
            AdMode::Protect
        }
    }

    fn set_mode(&self, mode: AdMode) {
        self.mode
            .store(u8::from(mode == AdMode::Protect), Ordering::Relaxed);
    }

    fn record_access(&self) {
        self.epoch_accesses.fetch_add(1, Ordering::Relaxed);
        if self.prefetched.load(Ordering::Relaxed) {
            // The speculative copy earned its keep.
            self.prefetched.store(false, Ordering::Relaxed);
        }
    }

    /// Mark the current copy as speculatively installed (batched prefetch).
    pub(crate) fn mark_prefetched(&self) {
        self.prefetched.store(true, Ordering::Relaxed);
    }

    /// Clear and return the speculative marker: `true` at invalidation time
    /// means the prefetched copy was never accessed.
    fn take_wasted_prefetch(&self) -> bool {
        self.prefetched.swap(false, Ordering::Relaxed)
    }

    /// Close the current epoch: move the running access count into the
    /// previous-epoch slot, fold it into the smoothed average, update the
    /// re-access streak and return the new average.  With several threads
    /// per node concurrent invalidations may rotate twice; the statistics
    /// are heuristic inputs, so a shortened epoch only delays a switch.
    fn rotate_epoch(&self) -> u64 {
        let closed = self.epoch_accesses.swap(0, Ordering::Relaxed);
        self.last_epoch_accesses.store(closed, Ordering::Relaxed);
        let avg = (3 * self.avg_accesses.load(Ordering::Relaxed) + closed) / 4;
        self.avg_accesses.store(avg, Ordering::Relaxed);
        if closed > 0 {
            self.epoch_streak.fetch_add(1, Ordering::Relaxed);
        } else {
            self.epoch_streak.store(0, Ordering::Relaxed);
        }
        avg
    }
}

/// A run's detection: the protocol, the costs it charges and — resolved
/// once against the cluster's machine — the thresholds of its
/// [`AdaptiveParams`] (absolute counts instead of break-even multiples).
#[derive(Debug)]
pub(crate) struct Detection {
    pub(crate) kind: ProtocolKind,
    check: VTime,
    fault: VTime,
    /// Check → Protect when the smoothed accesses-per-epoch reach this.
    hi: u64,
    /// Protect → Check when they drop to this or below.
    lo: u64,
    /// Largest batched-fetch size in pages (≥ 1).
    max_batch: usize,
    /// Minimum epoch streak for history-driven prefetch eligibility.
    min_streak: u64,
}

impl Detection {
    /// Resolve `params` (they only steer `java_ad`, but every protocol
    /// reports the marks they resolve to) against `machine`.
    pub(crate) fn new(kind: ProtocolKind, params: &AdaptiveParams, machine: &MachineModel) -> Self {
        let break_even = machine.adaptive_break_even() as f64;
        let hi = (break_even * params.hi_multiple).ceil().max(1.0) as u64;
        let lo = ((break_even * params.lo_multiple).floor() as u64).min(hi - 1);
        Detection {
            kind,
            check: machine.cpu.locality_check(),
            fault: machine.dsm.page_fault,
            hi,
            lo,
            max_batch: params.max_batch_pages.max(1),
            min_streak: params.min_prefetch_streak,
        }
    }

    /// The `(hi, lo)` switching marks in absolute accesses-per-epoch.
    pub(crate) fn marks(&self) -> (u64, u64) {
        (self.hi, self.lo)
    }

    /// The technique that detects accesses to `frame` (module docs).
    #[inline]
    pub(crate) fn technique(&self, frame: &PageFrame) -> AdMode {
        match self.kind {
            ProtocolKind::JavaIc => AdMode::Check,
            ProtocolKind::JavaPf => AdMode::Protect,
            ProtocolKind::JavaAd if frame.is_home() => AdMode::Protect,
            ProtocolKind::JavaAd => frame.ad().mode(),
        }
    }

    /// Detect one access to `frame`: charge its cost to `clock`, count it on
    /// `stats`, and return the detecting technique if the page must be
    /// fetched first (`None`: the access proceeds on the local copy).
    #[inline]
    pub(crate) fn on_access(
        &self,
        stats: &NodeStats,
        clock: &mut ThreadClock,
        frame: &PageFrame,
    ) -> Option<AdMode> {
        let technique = self.technique(frame);
        if self.kind == ProtocolKind::JavaAd && !frame.is_home() {
            frame.ad().record_access();
        }
        let fetch = match technique {
            AdMode::Check => {
                NodeStats::bump(&stats.locality_checks);
                clock.advance(self.check);
                !frame.is_home() && !frame.is_present()
            }
            AdMode::Protect => {
                let open = frame.is_home() || (frame.is_present() && !frame.is_protected());
                if !open {
                    // Simulated SIGSEGV: fault cost, then the fetch.
                    NodeStats::bump(&stats.page_faults);
                    clock.advance(self.fault);
                }
                !open
            }
        };
        fetch.then_some(technique)
    }

    /// Largest number of contiguous same-home pages one fetch may carry:
    /// `java_ad`'s batch ceiling, 1 otherwise.
    pub(crate) fn batch_ceiling(&self) -> usize {
        match self.kind {
            ProtocolKind::JavaAd => self.max_batch,
            _ => 1,
        }
    }

    /// True if `frame`'s epoch history predicts it will be re-accessed next
    /// epoch — the speculation predicate for batched-fetch riders.
    pub(crate) fn predicts_reaccess(&self, frame: &PageFrame) -> bool {
        let ad = frame.ad();
        self.kind == ProtocolKind::JavaAd
            && ad.epoch_streak.load(Ordering::Relaxed) >= self.min_streak
            && ad.last_epoch_accesses.load(Ordering::Relaxed) > 0
    }

    /// Close `frame`'s invalidation epoch at an acquire (`java_ad` only):
    /// rotate its statistics and flip its technique if the smoothed density
    /// crossed a mark.  Returns `(switched, wasted_prefetch)`.  Absent
    /// frames close a zero epoch, which resets their prefetch streak.
    pub(crate) fn close_epoch(&self, frame: &PageFrame) -> (bool, bool) {
        if self.kind != ProtocolKind::JavaAd {
            return (false, false);
        }
        let ad = frame.ad();
        let avg = ad.rotate_epoch();
        let wasted = ad.take_wasted_prefetch();
        let flip = match ad.mode() {
            AdMode::Check if avg >= self.hi => Some(AdMode::Protect),
            AdMode::Protect if avg <= self.lo => Some(AdMode::Check),
            _ => None,
        };
        if let Some(mode) = flip {
            ad.set_mode(mode);
        }
        (flip.is_some(), wasted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_epoch_rotation_tracks_density_and_streak() {
        let ad = AdState::default();
        assert_eq!(ad.mode(), AdMode::Check);
        let streak = || ad.epoch_streak.load(Ordering::Relaxed);
        assert_eq!(streak(), 0);

        // Epoch 1: 400 accesses.
        for _ in 0..400 {
            ad.record_access();
        }
        assert_eq!(ad.epoch_accesses.load(Ordering::Relaxed), 400);
        assert_eq!(ad.rotate_epoch(), 100, "avg = (3*0 + 400) / 4");
        assert_eq!(ad.epoch_accesses.load(Ordering::Relaxed), 0);
        assert_eq!(ad.last_epoch_accesses.load(Ordering::Relaxed), 400);
        assert_eq!(ad.avg_accesses.load(Ordering::Relaxed), 100);
        assert_eq!(streak(), 1);

        // Epoch 2: accessed again, streak grows and the average converges.
        for _ in 0..400 {
            ad.record_access();
        }
        assert_eq!(ad.rotate_epoch(), 175, "avg = (3*100 + 400) / 4");
        assert_eq!(streak(), 2);

        // Epoch 3: untouched — the average decays, the streak resets.
        assert_eq!(ad.rotate_epoch(), 131, "avg = 3*175 / 4");
        assert_eq!(ad.last_epoch_accesses.load(Ordering::Relaxed), 0);
        assert_eq!(streak(), 0);

        ad.set_mode(AdMode::Protect);
        assert_eq!(ad.mode(), AdMode::Protect);
    }

    #[test]
    fn speculative_prefetch_marker_reports_waste_only_when_untouched() {
        let ad = AdState::default();
        // Prefetched and never touched: wasted.
        ad.mark_prefetched();
        assert!(ad.take_wasted_prefetch());
        assert!(!ad.take_wasted_prefetch(), "marker is consumed");
        // Prefetched and then accessed: not wasted.
        ad.mark_prefetched();
        ad.record_access();
        assert!(!ad.take_wasted_prefetch());
    }
}
