//! The memory subsystem façade: the five primitives of the paper's Table 2.
//!
//! | Primitive          | Function                         |
//! |--------------------|----------------------------------|
//! | `loadIntoCache`    | [`load_into_cache`]              |
//! | `invalidateCache`  | [`invalidate_cache`]             |
//! | `updateMainMemory` | [`update_main_memory`]           |
//! | `get`              | [`get`] / [`ThreadCtx::get_slot`]|
//! | `put`              | [`put`] / [`ThreadCtx::put_slot`]|
//!
//! Application code normally uses the typed object layer
//! ([`crate::object`]) and the monitors ([`crate::monitor`]) — which call
//! these primitives internally — but the raw surface is exposed both for
//! completeness and for the probes that measure each primitive in isolation
//! (`benchmark/src/probes.rs`).

use hyperion_pm2::GlobalAddr;

use crate::runtime::ThreadCtx;

/// `get`: read an 8-byte slot through the DSM.
#[inline]
pub fn get(ctx: &mut ThreadCtx, addr: GlobalAddr) -> u64 {
    ctx.get_slot(addr)
}

/// `put`: write an 8-byte slot through the DSM.
#[inline]
pub fn put(ctx: &mut ThreadCtx, addr: GlobalAddr, value: u64) {
    ctx.put_slot(addr, value)
}

/// `loadIntoCache`: prefetch the page containing `addr` into the calling
/// node's cache.
pub fn load_into_cache(ctx: &mut ThreadCtx, addr: GlobalAddr) {
    ctx.load_into_cache(addr)
}

/// `invalidateCache`: invalidate every cached (non-home) page on the calling
/// node.  Performed automatically on monitor entry.
pub fn invalidate_cache(ctx: &mut ThreadCtx) {
    crate::jmm::acquire(ctx)
}

/// `updateMainMemory`: flush all recorded modifications to their home nodes.
/// Performed automatically on monitor exit.
pub fn update_main_memory(ctx: &mut ThreadCtx) {
    crate::jmm::release(ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{HyperionConfig, HyperionRuntime};
    use hyperion_dsm::ProtocolKind;
    use hyperion_model::myrinet_200;
    use hyperion_pm2::NodeId;

    #[test]
    fn table2_primitives_compose_into_a_producer_consumer_exchange() {
        for protocol in ProtocolKind::all() {
            let rt = HyperionRuntime::new(HyperionConfig::new(myrinet_200(), 2, protocol)).unwrap();
            let out = rt.run(|ctx| {
                let addr = ctx.alloc_slots(4, NodeId(1));
                // Producer side (running on node 0, writing remote memory).
                load_into_cache(ctx, addr);
                put(ctx, addr, 7);
                put(ctx, addr.offset(1), 8);
                update_main_memory(ctx);
                // Consumer side re-reads from main memory.
                invalidate_cache(ctx);
                get(ctx, addr) + get(ctx, addr.offset(1))
            });
            assert_eq!(out.result, 15, "{protocol:?}");
            let total = out.report.total_stats();
            assert!(total.page_loads >= 1);
            assert_eq!(total.diff_slots_flushed, 2);
        }
    }
}
