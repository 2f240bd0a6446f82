//! Access-detection policies: how a node notices that a `get`/`put` touched
//! a remote object (§3.2, §3.3 of the paper).
//!
//! The three implementations correspond to the three protocols: explicit
//! in-line checks ([`InlineCheckDetection`], `java_ic`), page-fault-based
//! detection ([`PageProtectDetection`], `java_pf`) and the adaptive per-page
//! state machine between the two ([`AdaptiveDetection`], `java_ad`).

use hyperion_model::{CpuModel, MachineModel, NodeStats, ThreadClock, VTime};

use crate::config::AdaptiveParams;
use crate::page::{AdMode, PageFrame};

/// What an access-detection policy decided about one `get`/`put`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessAction {
    /// The access proceeds on the local copy; detection charged whatever it
    /// costs, the engine does nothing further.
    Granted,
    /// The page must be fetched from its home before the access proceeds.
    Fetch {
        /// The fetch must end with an `mprotect` opening the page, because
        /// this policy detected the access through page protection.
        unprotect: bool,
    },
}

/// What closing a page's invalidation epoch observed (one page, one epoch).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EpochOutcome {
    /// The page switched detection technique at this boundary; the engine
    /// charges the protocol-switch cost and counts it.
    pub switched: bool,
    /// The page was speculatively prefetched last epoch and never accessed;
    /// the engine counts it into the waste throttles.
    pub wasted_prefetch: bool,
}

/// The per-page access-detection state machine of one protocol.
///
/// **JMM obligations.**  Detection is the *only* protocol-variable part of
/// the consistency protocol: every policy must (a) report [`AccessAction::
/// Fetch`] for any access to a page the node holds no valid copy of — an
/// acquire invalidates cached copies, so this is what makes a post-acquire
/// read see the home's (released) values — and (b) never report `Fetch` in a
/// way that skips the engine's fetch path, which is where the
/// happens-before-carrying page copy is installed.  Policies may differ
/// freely in *cost* (checks vs faults) and in *when* they flip technique,
/// because both are charged at points where no copy exists (the access
/// itself, or the invalidation boundary where the copy is dropped anyway).
pub trait DetectionPolicy: Send + Sync {
    /// Short protocol name (`"java_ic"` / `"java_pf"` / `"java_ad"`): used
    /// in figure labels and reports.
    fn name(&self) -> &'static str;

    /// Apply detection for one access to `frame`: charge the detection cost
    /// to `clock`, bump the detection counters on `stats`, and say whether
    /// the engine must fetch the page first.
    ///
    /// JMM: must return [`AccessAction::Fetch`] whenever the node has no
    /// valid copy (neither home nor present-and-unprotected); returning
    /// `Granted` there would let a post-acquire access read stale bytes.
    fn on_access(
        &self,
        stats: &NodeStats,
        clock: &mut ThreadClock,
        frame: &PageFrame,
    ) -> AccessAction;

    /// Whether installing a fetched copy of `frame` must end with an
    /// `mprotect` that opens the page (protection-detected pages only).
    /// Consulted on the explicit-prefetch paths (`loadIntoCache`, span
    /// prefetch, stride prefetch), where no access triggered the fetch.
    ///
    /// JMM: purely a cost decision — the copy itself is installed either
    /// way.
    fn unprotect_on_install(&self, frame: &PageFrame) -> bool;

    /// `Some(max_batch_pages)` if fetches under this policy may batch a run
    /// of contiguous same-home pages into one RPC; `None` routes every
    /// fetch through the single-page path.
    ///
    /// JMM: batching riders are full page copies installed by the same
    /// reply, so a rider is exactly as fresh as the demanded page.
    fn fetch_batching(&self) -> Option<usize> {
        None
    }

    /// True if `frame`'s epoch history predicts it will be re-accessed next
    /// epoch — the speculation predicate for batched-fetch riders.
    ///
    /// JMM: speculation only ever *adds* page copies at fetch time; a wrong
    /// guess is wasted bytes, never stale ones (the copy is installed
    /// before any access and invalidated at the next acquire like any
    /// other).
    fn predicts_reaccess(&self, _frame: &PageFrame) -> bool {
        false
    }

    /// Close `frame`'s invalidation epoch at an acquire: rotate per-epoch
    /// access statistics and, for adaptive policies, flip the page's
    /// detection technique.  Runs for every non-home frame, present or not,
    /// *before* the copy is dropped.
    ///
    /// JMM: the acquire drops the copy regardless of what this returns, so
    /// a technique flip can never be observed by an access — this is the
    /// one boundary where per-page state may change for free.
    fn on_epoch_close(&self, _frame: &PageFrame) -> EpochOutcome {
        EpochOutcome::default()
    }

    /// Whether invalidating `frame`'s cached copy must revoke its access
    /// rights (costing one `mprotect` over the cached region per
    /// invalidation, §3.3).
    ///
    /// JMM: a policy that detects through protection *must* return true for
    /// its protection-detected pages — an unprotected stale copy would
    /// satisfy the next access without a fault, bypassing the fetch that
    /// the acquire's invalidation demands.
    fn reprotect_on_invalidate(&self, frame: &PageFrame) -> bool;
}

/// `java_ic`: every access pays an explicit in-line locality check.
#[derive(Debug)]
pub struct InlineCheckDetection {
    cpu: CpuModel,
}

impl InlineCheckDetection {
    /// Build against a machine model (the in-line check cost comes from its
    /// CPU model).
    pub fn new(machine: &MachineModel) -> Self {
        InlineCheckDetection {
            cpu: machine.cpu.clone(),
        }
    }
}

impl DetectionPolicy for InlineCheckDetection {
    fn name(&self) -> &'static str {
        "java_ic"
    }

    fn on_access(
        &self,
        stats: &NodeStats,
        clock: &mut ThreadClock,
        frame: &PageFrame,
    ) -> AccessAction {
        // Every access pays the in-line locality check, local or not.
        NodeStats::bump(&stats.locality_checks);
        clock.advance(self.cpu.locality_check());
        if !frame.is_home() && !frame.is_present() {
            AccessAction::Fetch { unprotect: false }
        } else {
            AccessAction::Granted
        }
    }

    fn unprotect_on_install(&self, _frame: &PageFrame) -> bool {
        false
    }

    fn reprotect_on_invalidate(&self, _frame: &PageFrame) -> bool {
        false
    }
}

/// `java_pf`: accesses to present, unprotected pages cost nothing; the
/// first access to a protected page takes a (simulated) page fault.
#[derive(Debug)]
pub struct PageProtectDetection {
    fault: VTime,
}

impl PageProtectDetection {
    /// Build against a machine model (the fault cost comes from its DSM
    /// cost model).
    pub fn new(machine: &MachineModel) -> Self {
        PageProtectDetection {
            fault: machine.dsm.page_fault,
        }
    }
}

impl DetectionPolicy for PageProtectDetection {
    fn name(&self) -> &'static str {
        "java_pf"
    }

    fn on_access(
        &self,
        stats: &NodeStats,
        clock: &mut ThreadClock,
        frame: &PageFrame,
    ) -> AccessAction {
        if frame.is_home() || (frame.is_present() && !frame.is_protected()) {
            // Raw memory access: zero protocol overhead.
            return AccessAction::Granted;
        }
        // Simulated SIGSEGV: fault cost, then fetch plus an mprotect to open
        // the page for subsequent accesses.
        NodeStats::bump(&stats.page_faults);
        clock.advance(self.fault);
        AccessAction::Fetch { unprotect: true }
    }

    fn unprotect_on_install(&self, _frame: &PageFrame) -> bool {
        true
    }

    fn reprotect_on_invalidate(&self, _frame: &PageFrame) -> bool {
        true
    }
}

/// The thresholds of [`AdaptiveParams`] resolved against a concrete machine
/// model (absolute access counts instead of break-even multiples).
#[derive(Clone, Copy, Debug)]
pub(crate) struct AdaptiveTuning {
    /// Check → Protect when a closed epoch saw at least this many accesses.
    pub(crate) hi: u64,
    /// Protect → Check when a closed epoch saw at most this many accesses.
    pub(crate) lo: u64,
    /// Largest batched-fetch size in pages (≥ 1).
    pub(crate) max_batch: usize,
    /// Minimum epoch streak for history-driven prefetch eligibility.
    pub(crate) min_streak: u64,
}

impl AdaptiveTuning {
    pub(crate) fn resolve(params: &AdaptiveParams, break_even: u64) -> AdaptiveTuning {
        let hi = ((break_even as f64) * params.hi_multiple).ceil().max(1.0) as u64;
        let lo = (((break_even as f64) * params.lo_multiple).floor() as u64).min(hi - 1);
        AdaptiveTuning {
            hi,
            lo,
            max_batch: params.max_batch_pages.max(1),
            min_streak: params.min_prefetch_streak,
        }
    }
}

/// The `(hi, lo)` switching marks `params` resolve to on a machine with the
/// given break-even access count — what [`crate::DsmSystem::
/// adaptive_thresholds`] reports for every protocol.
pub(crate) fn resolve_marks(params: &AdaptiveParams, break_even: u64) -> (u64, u64) {
    let t = AdaptiveTuning::resolve(params, break_even);
    (t.hi, t.lo)
}

/// `java_ad`: every cached page runs its own state machine between in-line
/// checks and page protection, flipped at invalidation boundaries with
/// hysteresis around the cost-model break-even
/// `n* = ⌈(t_fault + t_mprotect) / t_check⌉`.
#[derive(Debug)]
pub struct AdaptiveDetection {
    cpu: CpuModel,
    fault: VTime,
    ad: AdaptiveTuning,
}

impl AdaptiveDetection {
    /// Resolve `params` against `machine`'s break-even count.
    pub fn new(params: &AdaptiveParams, machine: &MachineModel) -> Self {
        AdaptiveDetection {
            cpu: machine.cpu.clone(),
            fault: machine.dsm.page_fault,
            ad: AdaptiveTuning::resolve(params, machine.adaptive_break_even()),
        }
    }
}

impl DetectionPolicy for AdaptiveDetection {
    fn name(&self) -> &'static str {
        "java_ad"
    }

    fn on_access(
        &self,
        stats: &NodeStats,
        clock: &mut ThreadClock,
        frame: &PageFrame,
    ) -> AccessAction {
        if frame.is_home() {
            // Home pages are never protected and need no detection — the pf
            // mechanics `java_ad` builds on give them raw access for free.
            return AccessAction::Granted;
        }
        frame.ad_record_access();
        match frame.ad_mode() {
            AdMode::Check => {
                // `java_ic` mechanics for this page.
                NodeStats::bump(&stats.locality_checks);
                clock.advance(self.cpu.locality_check());
                if !frame.is_present() {
                    AccessAction::Fetch { unprotect: false }
                } else {
                    AccessAction::Granted
                }
            }
            AdMode::Protect => {
                // `java_pf` mechanics for this page.
                if frame.is_present() && !frame.is_protected() {
                    return AccessAction::Granted;
                }
                NodeStats::bump(&stats.page_faults);
                clock.advance(self.fault);
                AccessAction::Fetch { unprotect: true }
            }
        }
    }

    fn unprotect_on_install(&self, frame: &PageFrame) -> bool {
        frame.ad_mode() == AdMode::Protect
    }

    fn fetch_batching(&self) -> Option<usize> {
        Some(self.ad.max_batch)
    }

    fn predicts_reaccess(&self, frame: &PageFrame) -> bool {
        frame.ad_epoch_streak() >= self.ad.min_streak && frame.ad_last_epoch_accesses() > 0
    }

    fn on_epoch_close(&self, frame: &PageFrame) -> EpochOutcome {
        // The invalidation boundary is the one place a page may change
        // detection technique: its copy is dropped here, so no access can
        // observe a half-switched page.  Every materialised frame closes its
        // epoch (absent frames record a zero epoch, which resets their
        // prefetch streak).  The decision runs on the smoothed
        // accesses-per-epoch so one spiky epoch cannot flip the page.
        let avg = frame.ad_rotate_epoch();
        let wasted_prefetch = frame.ad_take_wasted_prefetch();
        let switched = match frame.ad_mode() {
            AdMode::Check if avg >= self.ad.hi => {
                frame.ad_set_mode(AdMode::Protect);
                true
            }
            AdMode::Protect if avg <= self.ad.lo => {
                frame.ad_set_mode(AdMode::Check);
                true
            }
            _ => false,
        };
        EpochOutcome {
            switched,
            wasted_prefetch,
        }
    }

    fn reprotect_on_invalidate(&self, frame: &PageFrame) -> bool {
        // Only protection-detected pages need their access rights revoked;
        // check-mode pages are re-detected in software.
        frame.ad_mode() == AdMode::Protect
    }
}
