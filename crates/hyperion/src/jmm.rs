//! Java Memory Model actions.
//!
//! Hyperion implements the (pre-JSR-133) Java Memory Model as a variant of
//! release consistency (§3.1): threads may work on locally cached copies of
//! objects, and consistency is enforced at synchronisation points:
//!
//! * **release** (monitor exit, `wait`, `Thread.start`, thread end): all
//!   modifications recorded since the last flush are transmitted to the
//!   objects' home nodes with field granularity, and the thread's
//!   *knowledge* — the write notices it holds, `(page, stamp)` for every
//!   page a write that happened-before it changed — gains the pages its
//!   node made visible;
//! * **acquire** (monitor entry, re-entry after `wait`, `Thread.join`, the
//!   start of a thread): the thread merges in the knowledge the matching
//!   release left (a monitor's, a joined thread's, the parent's) and its
//!   node drops the cached copies the notices it just learned name at an
//!   older stamp — or, for the pages a remote monitor's node homes, has its
//!   grant patch them and reopen the dropped copies whose last answer fitted
//!   a grant.  Every other copy stays as it was: no write that
//!   happens-before the acquire changed it.  So a copy is open only as
//!   shipped, patched (by a fetch or a grant) or confirmed by its home.
//!   This is the lazy form of the paper's `invalidateCache`, which drops
//!   every copy and remains the explicit Table 2 primitive
//!   ([`crate::memory::invalidate_cache`]).
//!
//! Knowledge is merged, never replaced, so it is transitive exactly as
//! happens-before is.  The access-detection protocols share these actions;
//! they differ only in the mechanics (and cost) of detecting the first
//! access to a dropped page afterwards.  This module centralises the two
//! actions so the monitor, `Thread.start` / `join` and the barrier all apply
//! identical semantics.

use hyperion_dsm::{DeferredFlush, Notices};
use hyperion_model::VTime;
use hyperion_pm2::NodeId;

use crate::runtime::ThreadCtx;

/// Perform the acquire action for the calling thread, whose knowledge just
/// gained `learned` (merged in by the caller from a monitor's or a joined
/// thread's): drop every cached copy the notices name at an older stamp, or
/// let the grant of `granter` — a monitor's home — patch the copies of its
/// pages, dropped ones too ([`hyperion_dsm::DsmSystem::acquire`]).
pub fn acquire(ctx: &mut ThreadCtx, learned: &Notices, granter: Option<NodeId>) {
    let node = ctx.node();
    let shared = std::sync::Arc::clone(&ctx.shared);
    shared.dsm.acquire(node, ctx.clock_mut(), learned, granter);
    shared.dsm.assert_knowledge_held(node, &ctx.knowledge);
}

/// Perform the release action for the calling thread: flush all recorded
/// modifications to their home nodes (`updateMainMemory` of Table 2) and add
/// the pages the node made visible to the thread's knowledge.
///
/// `monitor` is the home of the monitor being released, `None` for a
/// thread-level happens-before edge (`Thread.start`, thread end, an explicit
/// `updateMainMemory`).  A monitor release sends its diffs for pages that
/// home homes along with the release message, charging only their issue,
/// and returns the instant the home has applied them: the release reaches
/// the home then.  Its other diffs are issued the same way, and the returned
/// [`DeferredFlush`] must be stored on the monitor so its *next acquire*
/// merges the completion — the JMM's release/acquire edge is per-monitor,
/// which is exactly why both are legal.  A thread-level edge blocks, and
/// first waits for what rode the thread's monitor releases to arrive: no
/// successor outside those monitors acts before the diffs are home.
pub fn release(
    ctx: &mut ThreadCtx,
    monitor: Option<NodeId>,
) -> (Option<DeferredFlush>, Option<VTime>) {
    if monitor.is_none() {
        ctx.clock.merge(ctx.rode);
    }
    let (node, shared) = (ctx.node(), std::sync::Arc::clone(&ctx.shared));
    let cursor = &mut ctx.log_cursor;
    let (flushed, written, rode) = shared.dsm.release(node, &mut ctx.clock, cursor, monitor);
    ctx.knowledge.merge(&written);
    ctx.rode = ctx.rode.max(rode.unwrap_or(VTime::ZERO));
    (flushed, rode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{HyperionConfig, HyperionRuntime};
    use hyperion_dsm::ProtocolKind;
    use hyperion_model::myrinet_200;

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
                release(ctx, None);
                // Home now holds the value, and the release named the page
                // at the stamp that holds it; the writer's own copy is that
                // stamp already, so learning it drops nothing.
                let known = ctx.knowledge.clone();
                assert_eq!(known.len(), 1);
                let learned = Notices::default().merge(&known);
                acquire(ctx, &learned, None);
                cell.get::<u64>(ctx, 0)
            });
            assert_eq!(out.result, 42, "{protocol:?}");
            let total = out.report.total_stats();
            assert!(total.diff_messages >= 1);
            assert_eq!(total.diff_slots_flushed, 1);
            assert_eq!((total.pages_invalidated, total.pages_kept), (0, 1));
        }
    }

    #[test]
    fn acquire_invalidates_cached_remote_pages() {
        let rt = runtime(ProtocolKind::JavaPf);
        let out = rt.run(|ctx| {
            let arr = ctx.alloc_array::<u64>(4, NodeId(1));
            let _ = arr.get(ctx, 0); // one fault + load

            // The home writes the page and ends: joining it is the acquire
            // that learns the notice, and drops the copy.
            let writer = ctx.spawn_on(NodeId(1), move |t| arr.put(t, 1, 7));
            ctx.join(writer);
            let seen = arr.get(ctx, 1); // second fault + load
            release(ctx, None); // nothing dirty: no diffs
            seen
        });
        assert_eq!(out.result, 7);
        let s = out.report.node_stats[0];
        assert_eq!((s.page_loads, s.page_faults), (2, 2));
        assert_eq!((s.cache_invalidations, s.pages_invalidated), (1, 1));
        assert_eq!(s.diff_messages, 0);
    }

    #[test]
    fn actions_have_distinct_effects_on_stats() {
        let rt = runtime(ProtocolKind::JavaIc);
        let out = rt.run(|ctx| {
            let arr = ctx.alloc_array::<u64>(4, NodeId(1));
            arr.put(ctx, 1, 5);
            release(ctx, None);
            let known = ctx.knowledge.clone();
            acquire(ctx, &known, None);
        });
        let s = out.report.node_stats[0];
        assert_eq!(s.diff_messages, 1);
        assert_eq!(s.cache_invalidations, 1);
        // The writer's copy is at the stamp its own notice names: kept.
        assert_eq!((s.pages_invalidated, s.pages_kept), (0, 1));
    }
}
