//! Release-flush policies: how `updateMainMemory` ships the dirty diffs of
//! a monitor exit to their home nodes.
//!
//! The coalescing loop (contiguous same-home runs, one diff RPC per run)
//! is engine mechanism shared by both policies; the policy decides the
//! batch ceiling and whether the release may hand its flush RPCs to the
//! per-monitor deferred queue as split transactions.

/// The release-flush policy, consulted by the engine's flush loop.
///
/// **JMM obligations.**  A release must make every modification of the
/// releasing thread visible to the *next acquirer of the same monitor*.
/// Batching is always safe: it only changes how many RPCs carry the same
/// diffs, all completed before the release returns.  Deferring is safe
/// exactly because the JMM's release/acquire edge is per-monitor: the
/// engine returns a completion watermark that the monitor layer merges
/// into the next acquire of the same monitor, and release points with
/// thread-level edges (`Thread.start`, `join`, program exit)
/// always flush blocking.  A policy has no way to drop or reorder diffs —
/// it only places their latency.
pub trait FlushPolicy: Send + Sync {
    /// Short policy name (`"sync"` / `"dfl"`): used in figure-row variant
    /// labels.
    fn name(&self) -> &'static str;

    /// Largest number of contiguous same-home dirty pages one diff-flush
    /// RPC may carry; 1 disables batched flushing.
    fn max_batch_pages(&self) -> usize;

    /// True if `updateMainMemory` at a monitor exit may issue its flush
    /// RPCs as split transactions completing at the next acquire of the
    /// same monitor (see [`crate::DeferredFlush`]).
    fn defers_release(&self) -> bool {
        false
    }
}

/// Synchronous release flushing: every flush RPC completes before the
/// release returns (batched up to `max_pages` per RPC; `max_pages == 1` is
/// the paper's one-RPC-per-page flush).
#[derive(Clone, Copy, Debug)]
pub struct BatchedFlush {
    /// Batch ceiling in pages (≥ 1).
    pub max_pages: usize,
}

impl FlushPolicy for BatchedFlush {
    fn name(&self) -> &'static str {
        "sync"
    }

    fn max_batch_pages(&self) -> usize {
        self.max_pages
    }
}

/// Deferred release flushing: the release charges only the issue path of
/// its (batched) flush RPCs and the completion watermark is merged at the
/// next acquire of the same monitor.
#[derive(Clone, Copy, Debug)]
pub struct DeferredFlush {
    /// Batch ceiling in pages (≥ 1).
    pub max_pages: usize,
}

impl FlushPolicy for DeferredFlush {
    fn name(&self) -> &'static str {
        "dfl"
    }

    fn max_batch_pages(&self) -> usize {
        self.max_pages
    }

    fn defers_release(&self) -> bool {
        true
    }
}
