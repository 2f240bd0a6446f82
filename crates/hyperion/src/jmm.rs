//! Java Memory Model actions.
//!
//! Hyperion implements the (pre-JSR-133) Java Memory Model as a variant of
//! release consistency (§3.1): threads may work on locally cached copies of
//! objects, and consistency is enforced at monitor boundaries:
//!
//! * **acquire** (monitor entry): the node's cache of remote objects is
//!   invalidated, so every object read inside the critical section is
//!   guaranteed to be re-fetched from (and therefore as recent as) main
//!   memory;
//! * **release** (monitor exit): all modifications recorded since the last
//!   flush are transmitted to the objects' home nodes with field
//!   granularity.
//!
//! Both access-detection protocols share these actions; they differ only in
//! the mechanics (and cost) of detecting the first access to an invalidated
//! page afterwards.  This module centralises the two actions so the monitor,
//! `Thread.join` and the barrier all apply identical semantics.

use hyperion_dsm::DeferredFlush;

use crate::runtime::ThreadCtx;

/// The consistency action performed at a synchronisation boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JmmAction {
    /// Monitor entry / lock acquisition.
    Acquire,
    /// Monitor exit / lock release.
    Release,
}

/// Perform the acquire action for the calling thread: invalidate the node's
/// cache of remote objects (`invalidateCache` of Table 2).
pub fn acquire(ctx: &mut ThreadCtx) {
    let node = ctx.node();
    let shared = std::sync::Arc::clone(&ctx.shared);
    shared.dsm.invalidate_cache(node, ctx.clock_mut());
}

/// Perform the release action for the calling thread: flush all recorded
/// modifications to their home nodes (`updateMainMemory` of Table 2).
pub fn release(ctx: &mut ThreadCtx) {
    let node = ctx.node();
    let shared = std::sync::Arc::clone(&ctx.shared);
    shared.dsm.update_main_memory(node, ctx.clock_mut());
}

/// Perform the release action with deferred flushing: the diff batches are
/// issued as split transactions and only the issue path is charged here.
/// The returned [`DeferredFlush`] (if any) must be stored on the monitor
/// being released so its *next acquire* merges the completion — the JMM's
/// release/acquire edge is per-monitor, which is exactly why the deferral
/// is legal.  Only the monitor layer may call this; every release with a
/// thread-level happens-before edge (`Thread.start`, `join`, program
/// termination) uses the blocking [`release`].
pub fn release_deferred(ctx: &mut ThreadCtx) -> Option<DeferredFlush> {
    let node = ctx.node();
    let shared = std::sync::Arc::clone(&ctx.shared);
    shared
        .dsm
        .update_main_memory_deferred(node, ctx.clock_mut())
}

/// Perform one of the two actions (convenience for tests and tools).
pub fn perform(ctx: &mut ThreadCtx, action: JmmAction) {
    match action {
        JmmAction::Acquire => acquire(ctx),
        JmmAction::Release => release(ctx),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{HyperionConfig, HyperionRuntime};
    use hyperion_dsm::ProtocolKind;
    use hyperion_model::myrinet_200;
    use hyperion_pm2::NodeId;

    fn runtime(protocol: ProtocolKind) -> HyperionRuntime {
        HyperionRuntime::new(HyperionConfig::new(myrinet_200(), 2, protocol)).unwrap()
    }

    #[test]
    fn release_then_acquire_makes_remote_writes_visible() {
        for protocol in ProtocolKind::all() {
            let rt = runtime(protocol);
            let out = rt.run(|ctx| {
                let cell = ctx.alloc_object(1, NodeId(1));
                // Cache the page locally, then write through the cache.
                cell.put(ctx, 0, 41u64);
                cell.put(ctx, 0, 42u64);
                release(ctx);
                // Home now holds the value; invalidate and re-read.
                acquire(ctx);
                cell.get::<u64>(ctx, 0)
            });
            assert_eq!(out.result, 42, "{protocol:?}");
            let total = out.report.total_stats();
            assert!(total.diff_messages >= 1);
            assert_eq!(total.diff_slots_flushed, 1);
        }
    }

    #[test]
    fn acquire_invalidates_cached_remote_pages() {
        let rt = runtime(ProtocolKind::JavaPf);
        let out = rt.run(|ctx| {
            let arr = ctx.alloc_array::<u64>(4, NodeId(1));
            let _ = arr.get(ctx, 0); // one fault + load
            acquire(ctx); // drops the copy
            let _ = arr.get(ctx, 0); // second fault + load
            perform(ctx, JmmAction::Release); // nothing dirty: no diffs
        });
        let s = out.report.node_stats[0];
        assert_eq!(s.page_loads, 2);
        assert_eq!(s.page_faults, 2);
        assert_eq!(s.cache_invalidations, 1);
        assert_eq!(s.diff_messages, 0);
    }

    #[test]
    fn actions_have_distinct_effects_on_stats() {
        let rt = runtime(ProtocolKind::JavaIc);
        let out = rt.run(|ctx| {
            let arr = ctx.alloc_array::<u64>(4, NodeId(1));
            arr.put(ctx, 1, 5);
            perform(ctx, JmmAction::Release);
            perform(ctx, JmmAction::Acquire);
        });
        let s = out.report.node_stats[0];
        assert_eq!(s.diff_messages, 1);
        assert_eq!(s.cache_invalidations, 1);
        assert_eq!(s.pages_invalidated, 1);
    }
}
