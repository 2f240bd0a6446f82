//! Access detection: how a node notices that a `get`/`put` touched a remote
//! object (§3.2, §3.3 of the paper) — the one thing the protocols differ in.
//!
//! Every decision goes through one function, `Detection::technique`: the
//! technique that detects accesses to a frame.  It is [`AdMode::Check`]
//! (an in-line locality check on every access) under `java_ic`,
//! [`AdMode::Protect`] (page protection, a fault on the first access to an
//! absent page) under `java_pf`, and the page's own mode under `java_ad`,
//! whose home pages count as `Protect` (raw access).  `java_ic` is the one
//! protocol that charges its check on a home page too (a `Protect` access
//! pays one only while its node holds open stale copies).  From the technique
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
//!   drops the copies its write notices outdate, so this is what makes a
//!   post-acquire read see the home's released values.
//! * Invalidating a `Protect` page must revoke its access rights, or every
//!   access must pay an in-line check that catches the open stale copy, as
//!   while a monitor's acquire leaves one open (`pending.rs`).
//! * A page changes technique only at epoch close, which runs when a notice
//!   outdates its copy, *before* the copy is dropped: no access can observe
//!   a half-switched page.
//! * Pages a batched fetch carries, speculative or not, are full copies
//!   installed by the same reply as the demanded page, so they are exactly
//!   as fresh; a wrong re-access prediction is wasted bytes, never stale ones.
//!
//! Release flushing is no part of detection: every protocol flushes in
//! batches of up to `FLUSH_BATCH_PAGES` pages and defers a monitor
//! release's off-home diffs to the next acquire (see
//! [`crate::config::TransportConfig`]).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};

use hyperion_model::{NodeStats, ThreadClock, VTime};
use hyperion_pm2::{Cluster, Node, NodeId, PageId};

use crate::config::{AdaptiveParams, ProtocolKind};
use crate::dense::Dense;
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

/// The `java_ad` state of one page on one node, which the detection keeps
/// (under `java_ad` alone).  A page starts in [`AdMode::Check`], the cheap
/// technique for a page whose re-access density is unknown.
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
    /// re-access streak and return the new average.
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
    pub(crate) check: VTime,
    fault: VTime,
    /// Check → Protect when the smoothed accesses-per-epoch reach this.
    hi: u64,
    /// Protect → Check when they drop to this or below.
    lo: u64,
    /// Per node: the [`AdState`] of each page up to the highest it asked
    /// about (`java_ad` only; empty otherwise).
    ad: Vec<Dense<AdState>>,
}

/// Largest number of pages one `java_ad` fetch RPC may carry.
const MAX_BATCH_PAGES: usize = 8;

/// Largest number of contiguous same-home dirty pages one diff-flush RPC
/// carries, under every protocol (the engine's `flush_frames`).
pub(crate) const FLUSH_BATCH_PAGES: usize = 8;

/// Consecutive re-accessed epochs a page needs before history-driven
/// prefetching may pull it into a neighbour's batch.
const MIN_PREFETCH_STREAK: u64 = 3;

impl Detection {
    /// Resolve `params` (they only steer `java_ad`, but every protocol
    /// reports the marks they resolve to) against `cluster`'s machine: the
    /// high mark at `hi_multiple · n*`, the low one at half that.
    pub(crate) fn new(kind: ProtocolKind, params: &AdaptiveParams, cluster: &Cluster) -> Self {
        let machine = cluster.machine();
        let break_even = machine.adaptive_break_even() as f64;
        let hi = (break_even * params.hi_multiple).ceil().max(1.0) as u64;
        let lo = ((break_even * params.hi_multiple / 2.0).floor() as u64).min(hi - 1);
        Detection {
            kind,
            check: machine.cpu.locality_check(),
            fault: machine.dsm.page_fault,
            hi,
            lo,
            ad: match kind {
                ProtocolKind::JavaAd => (0..cluster.num_nodes()).map(|_| Dense::new()).collect(),
                _ => Vec::new(),
            },
        }
    }

    /// `java_ad`'s state of `page` on `node`.
    pub(crate) fn ad(&self, node: NodeId, page: PageId) -> &AdState {
        let states = &self.ad[node.index()];
        let grow = || states.grow(page.index(), |_, _| ());
        states.get(page.index()).unwrap_or_else(grow)
    }

    /// The `(hi, lo)` switching marks in absolute accesses-per-epoch.
    pub(crate) fn marks(&self) -> (u64, u64) {
        (self.hi, self.lo)
    }

    /// The technique that detects accesses to `frame`, `page`'s frame on
    /// `node` (module docs).
    #[inline]
    pub(crate) fn technique(&self, node: NodeId, page: PageId, frame: &PageFrame) -> AdMode {
        match self.kind {
            ProtocolKind::JavaIc => AdMode::Check,
            ProtocolKind::JavaPf => AdMode::Protect,
            ProtocolKind::JavaAd if frame.is_home() => AdMode::Protect,
            ProtocolKind::JavaAd => self.ad(node, page).mode(),
        }
    }

    /// Detect one access to `frame`, `page`'s frame on `node_ref`: charge its
    /// cost to `clock`, count it on the node's stats, and return true if the
    /// page must be fetched first (false: the access proceeds on the local
    /// copy).  While the node holds open stale copies (`pending`, see
    /// `pending.rs`) a `Protect` access also pays the in-line check that
    /// asks whether its copy is one (a `Check` access's own check asks
    /// that); a copy it `found` was never closed, so its miss traps nothing
    /// and costs no fault.
    #[inline]
    pub(crate) fn on_access(
        &self,
        node_ref: &Node,
        clock: &mut ThreadClock,
        page: PageId,
        frame: &PageFrame,
        pending: bool,
        found: bool,
    ) -> bool {
        let (node, stats) = (node_ref.id(), &node_ref.stats);
        if self.kind == ProtocolKind::JavaAd && !frame.is_home() {
            self.ad(node, page).record_access();
        }
        match self.technique(node, page, frame) {
            AdMode::Check => {
                NodeStats::bump(&stats.locality_checks);
                clock.advance(self.check);
                !frame.is_home() && !frame.is_present()
            }
            AdMode::Protect => {
                if pending {
                    NodeStats::bump(&stats.pending_checks);
                    clock.advance(self.check);
                }
                let open = frame.is_home() || (frame.is_present() && !frame.is_protected());
                if found {
                    NodeStats::bump(&stats.pending_misses);
                } else if !open {
                    // Simulated SIGSEGV: fault cost, then the fetch.
                    NodeStats::bump(&stats.page_faults);
                    clock.advance(self.fault);
                }
                !open
            }
        }
    }

    /// Largest number of contiguous same-home pages one fetch may carry:
    /// `java_ad`'s batch ceiling, 1 otherwise.
    pub(crate) fn batch_ceiling(&self) -> usize {
        match self.kind {
            ProtocolKind::JavaAd => MAX_BATCH_PAGES,
            _ => 1,
        }
    }

    /// True if `page`'s epoch history on `node` predicts it will be
    /// re-accessed next epoch — the speculation predicate for batched fetches.
    pub(crate) fn predicts_reaccess(&self, node: NodeId, page: PageId) -> bool {
        let ad = || self.ad(node, page);
        self.kind == ProtocolKind::JavaAd
            && ad().epoch_streak.load(Ordering::Relaxed) >= MIN_PREFETCH_STREAK
            && ad().last_epoch_accesses.load(Ordering::Relaxed) > 0
    }

    /// Close `page`'s epoch on `node` when its copy is outdated (`java_ad`
    /// only): rotate its statistics and flip its technique if the smoothed
    /// density crossed a mark.  Returns `(switched, wasted_prefetch)`.  A
    /// retained, untouched copy closes a zero epoch, which resets its
    /// prefetch streak.
    pub(crate) fn close_epoch(&self, node: NodeId, page: PageId) -> (bool, bool) {
        if self.kind != ProtocolKind::JavaAd {
            return (false, false);
        }
        let ad = self.ad(node, page);
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
