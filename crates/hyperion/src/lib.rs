//! # hyperion
//!
//! The core runtime of **Hyperion-RS**, a Rust reproduction of the system
//! evaluated in *"Remote object detection in cluster-based Java"* (Gabriel
//! Antoniu and Phil Hatcher, JavaPDC workshop, IPDPS 2001).
//!
//! The original Hyperion executed unmodified multithreaded Java programs on a
//! PC cluster as if the cluster were a single shared-memory JVM: a
//! bytecode-to-C compiler turned field accesses into runtime `get`/`put`
//! primitives, and a DSM layer (DSM-PM2) kept node-local object caches
//! consistent with the Java Memory Model.  The paper compares two ways of
//! detecting accesses to *remote* objects — explicit in-line locality checks
//! (`java_ic`) versus page faults on protected pages (`java_pf`) — across
//! five applications and two clusters.
//!
//! This crate assembles the reproduction's runtime out of the substrate
//! crates and exposes the API the benchmark programs are written against:
//!
//! * [`runtime`] — [`HyperionRuntime`], [`HyperionConfig`], [`ThreadCtx`],
//!   [`RunReport`]: build a cluster, run a program, read the virtual
//!   execution time and the per-node event statistics.  [`ThreadCtx`] is
//!   the one surface of the Table 2 primitives (`get_slot`, `put_slot`,
//!   `load_into_cache`, `invalidate_cache`, `update_main_memory`).
//! * [`object`] — shared arrays (every shared object is an [`HArray`], a
//!   Java object's fields being its slots), Java-style 2-D arrays and the
//!   locality-aware view/bulk-transfer layer.
//! * [`monitor`] — Java monitors with acquire/release consistency actions,
//!   granted in virtual-time order.
//! * [`jmm`] — the acquire/release actions themselves: write notices along
//!   every synchronisation edge.
//! * [`api`] — the small "Java API subsystem": barrier and shared counter.
//! * [`thread`] — thread handles.
//!
//! ## Quick start
//!
//! ```
//! use hyperion::prelude::*;
//!
//! // Two nodes of the paper's Myrinet cluster, page-fault protocol.
//! let config = HyperionConfig::new(myrinet_200(), 2, ProtocolKind::JavaPf);
//! let runtime = HyperionRuntime::new(config).unwrap();
//!
//! let outcome = runtime.run(|ctx| {
//!     // A shared array homed on node 1, written by a thread on node 1,
//!     // read back by main (on node 0) after joining.
//!     let data = ctx.alloc_array::<i64>(8, NodeId(1));
//!     let worker = ctx.spawn_on(NodeId(1), move |t| {
//!         for i in 0..8 {
//!             data.put(t, i, (i * i) as i64);
//!         }
//!     });
//!     ctx.join(worker);
//!     data.get(ctx, 7)
//! });
//! assert_eq!(outcome.result, 49);
//! assert!(outcome.report.execution_time > hyperion::VTime::ZERO);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod api;
pub mod jmm;
pub mod monitor;
pub mod object;
mod order;
pub mod runtime;
pub mod thread;

pub use api::{JBarrier, SharedCounter};
pub use monitor::HMonitor;
pub use object::{ArrayView, HArray, HMatrix, MatrixRows, SlotValue};
pub use runtime::{ConfigError, HyperionConfig, HyperionRuntime, RunOutcome, RunReport, ThreadCtx};
pub use thread::HThreadHandle;

// Re-export the pieces of the lower layers that appear in this crate's API.
pub use hyperion_dsm::{ProtocolKind, TransportConfig};
pub use hyperion_model::{
    myrinet_200, sci_450, ClusterSpec, MachineModel, Op, OpCounts, StatsSnapshot, VTime,
    WireServiceSnapshot, WorkEstimate,
};
pub use hyperion_pm2::{FaultKill, FaultSpec, GlobalAddr, NodeId, ThreadId, TransportBackend};

/// Everything an application kernel typically imports.
pub mod prelude {
    pub use crate::api::{JBarrier, SharedCounter};
    pub use crate::monitor::HMonitor;
    pub use crate::object::{ArrayView, HArray, HMatrix, MatrixRows, SlotValue};
    pub use crate::runtime::{HyperionConfig, HyperionRuntime, RunOutcome, RunReport, ThreadCtx};
    pub use hyperion_dsm::{ProtocolKind, TransportConfig};
    pub use hyperion_model::{
        myrinet_200, sci_450, ClusterSpec, Op, OpCounts, VTime, WorkEstimate,
    };
    pub use hyperion_pm2::{NodeId, TransportBackend};
}
