//! # hyperion-dsm
//!
//! A Rust re-implementation of the **DSM-PM2** layer used by Hyperion in
//! *"Remote object detection in cluster-based Java"* (Antoniu & Hatcher,
//! JavaPDC/IPDPS 2001): a page-based, home-based distributed shared memory
//! with per-protocol access detection, providing the five primitives of the
//! paper's Table 2 (`loadIntoCache`, `invalidateCache`, `updateMainMemory`,
//! `get`, `put`).
//!
//! The paper's two protocols implement Java consistency:
//!
//! * [`ProtocolKind::JavaIc`] — access detection by explicit in-line
//!   locality checks (§3.2);
//! * [`ProtocolKind::JavaPf`] — access detection by page faults on protected
//!   pages (§3.3).
//!
//! Module map:
//!
//! * [`page`] — page frames, presence/protection bits, dirty-slot bitmaps;
//! * [`table`] — per-node frame tables (`dense`) and the [`DsmStore`];
//! * [`diff`] — wire encoding of field-granularity diffs and (from
//!   `fetch_wire`) of page fetches;
//! * [`config`] — protocol / transport configuration data: the one place a
//!   run is described (the transport part builds the cluster, not the
//!   engine);
//! * [`detection`] — how each protocol detects remote accesses, the one
//!   thing they differ in (the protocol is the technique), and the JMM
//!   obligations every decision keeps;
//! * [`engine`] — the [`DsmSystem`] protocol engine (with its fetch
//!   mechanics in `fetch`, the accuracy gate its stride prefetch throttles
//!   itself on in `gate`, and its RPC services in `services`), which asks
//!   the protocol at every decision point;
//! * `pending` — the stale copies a node retains, open behind the pending
//!   check or dropped, and the rent-or-buy rule that re-protects the open
//!   ones;
//! * [`notices`] — write notices: what an acquire learns along the
//!   synchronisation edges, so it drops only the cached copies some
//!   happening-before write changed;
//! * [`recover`] — the fault plane's DSM side: the fixed retry schedule
//!   of the RPC path and the recovery from the one node a run can lose
//!   (re-homing its pages onto the lowest-id live node, which from then on
//!   homes every page the allocator gave the lost one — a rule, not a
//!   per-page record).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod config;
mod dense;
pub mod detection;
pub mod diff;
pub mod engine;
mod fetch;
mod fetch_wire;
mod gate;
pub mod notices;
mod oracle;
pub mod page;
mod pending;
pub mod recover;
mod services;
pub mod table;

pub use config::{ProtocolKind, TransportConfig};
pub use engine::DsmSystem;
pub use hyperion_pm2::TransportBackend;
pub use notices::Notices;
pub use page::{PageData, PageFrame};
pub use recover::RpcFailure;
pub use table::DsmStore;
