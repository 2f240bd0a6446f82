//! # hyperion-dsm
//!
//! A Rust re-implementation of the **DSM-PM2** layer used by Hyperion in
//! *"Remote object detection in cluster-based Java"* (Antoniu & Hatcher,
//! JavaPDC/IPDPS 2001): a page-based, home-based distributed shared memory
//! with pluggable access-detection, providing the five primitives of the
//! paper's Table 2 (`loadIntoCache`, `invalidateCache`, `updateMainMemory`,
//! `get`, `put`).
//!
//! Three protocols implement Java consistency:
//!
//! * [`ProtocolKind::JavaIc`] — access detection by explicit in-line
//!   locality checks (§3.2);
//! * [`ProtocolKind::JavaPf`] — access detection by page faults on protected
//!   pages (§3.3);
//! * [`ProtocolKind::JavaAd`] — adaptive per-page selection between the two
//!   techniques with batched contiguous page fetches (extension beyond the
//!   paper; see [`AdaptiveParams`]).
//!
//! Module map:
//!
//! * [`page`] — page frames, presence/protection bits, dirty-slot bitmaps;
//! * [`table`] — per-node frame tables and the cluster-wide [`DsmStore`];
//! * [`diff`] — wire encoding of field-granularity diffs and (from
//!   `fetch_wire`) of page fetches;
//! * [`config`] — protocol / transport configuration data: the one place
//!   a run is described;
//! * [`policy`] — the pluggable policy traits ([`policy::DetectionPolicy`],
//!   [`policy::FlushPolicy`], [`policy::ReplicationPolicy`]), their
//!   implementations, and the
//!   validation and construction of a run's description;
//! * [`engine`] — the [`DsmSystem`] protocol engine (with its fetch
//!   mechanics in `fetch`, the validation riders those fetches carry in
//!   `riders`, the accuracy gate both throttle themselves on in `gate`, and
//!   its RPC services in `services`), which calls through the
//!   policy traits at every decision point;
//! * [`recover`] — the fault plane's DSM side: bounded retry with
//!   exponential backoff on the RPC path and node-failure recovery
//!   (re-electing homes for a dead node's pages from the replication
//!   directory).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod config;
pub mod diff;
pub mod engine;
mod fetch;
mod fetch_wire;
mod gate;
mod oracle;
pub mod page;
pub mod policy;
pub mod recover;
mod riders;
mod services;
pub mod table;

pub use config::{
    AdaptiveParams, DeferredFlush, HomeFlushMark, Locality, ProtocolKind, TransportConfig,
};
pub use engine::DsmSystem;
pub use hyperion_pm2::TransportBackend;
pub use page::{AdMode, PageData, PageFrame};
// `policy` is deliberately not wildcard re-exported at the crate root: the
// deferred-flush *policy* (`policy::DeferredFlush`) would collide with the
// deferred-flush *record* (`DeferredFlush`) above.  Use `policy::...` paths.
pub use policy::{PolicyError, PolicySet};
pub use recover::RpcFailure;
pub use table::DsmStore;
