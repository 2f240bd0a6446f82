//! # hyperion-dsm
//!
//! A Rust re-implementation of the **DSM-PM2** layer used by Hyperion in
//! *"Remote object detection in cluster-based Java"* (Antoniu & Hatcher,
//! JavaPDC/IPDPS 2001): a page-based, home-based distributed shared memory
//! with per-protocol access detection, providing the five primitives of the
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
//! * [`config`] — protocol / transport configuration data and its
//!   validation: the one place a run is described;
//! * [`detection`] — how each protocol detects remote accesses, the one
//!   thing they differ in (one technique per page, the `java_ad` state
//!   machine, and the JMM obligations every decision keeps);
//! * [`engine`] — the [`DsmSystem`] protocol engine (with its fetch
//!   mechanics in `fetch`, the validation riders those fetches carry in
//!   `riders`, the accuracy gate both throttle themselves on in `gate`, and
//!   its RPC services in `services`, which keep replicas and run quorum
//!   writes under replication), which asks the detection at every
//!   decision point and reads the flush placement off the transport;
//! * [`recover`] — the fault plane's DSM side: bounded retry with
//!   exponential backoff on the RPC path and node-failure recovery
//!   (re-electing homes for a dead node's pages from the replication
//!   directory).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod config;
pub mod detection;
pub mod diff;
pub mod engine;
mod fetch;
mod fetch_wire;
mod gate;
mod oracle;
pub mod page;
pub mod recover;
mod riders;
mod services;
pub mod table;

pub use config::{
    AdaptiveParams, DeferredFlush, HomeFlushMark, Locality, PolicyError, ProtocolKind,
    TransportConfig,
};
pub use detection::AdMode;
pub use engine::DsmSystem;
pub use hyperion_pm2::TransportBackend;
pub use page::{PageData, PageFrame};
pub use recover::RpcFailure;
pub use table::DsmStore;
