//! # hyperion-model
//!
//! Hardware and cost models plus the virtual-time engine used by the
//! Hyperion-RS reproduction of *"Remote object detection in cluster-based
//! Java"* (Antoniu & Hatcher, JavaPDC/IPDPS 2001).
//!
//! The paper evaluates two access-detection protocols (`java_ic`, `java_pf`)
//! on two physical clusters.  Those clusters no longer exist, so the
//! reproduction executes the runtime for real (real threads, real data
//! movement, real protocol state machines) while *time* is accounted on a
//! virtual clock parameterised by the machine models in this crate:
//!
//! * [`vtime`] — picosecond-resolution virtual time, per-thread clocks and
//!   per-node server clocks (home-node service contention).
//! * [`machine`] — CPU, network and DSM cost models, and the two cluster
//!   presets used throughout the paper: [`machine::myrinet_200`] and
//!   [`machine::sci_450`].
//! * [`cost`] — symbolic operation costs so that application kernels can
//!   express their inner-loop work in machine-independent terms.
//! * [`stats`] — atomic event counters (locality checks, page faults,
//!   `mprotect` calls, page loads, diffs, messages, bytes, monitor traffic).
//! * [`sync`] — the poison-ignoring lock helpers every layer locks through.
//!
//! Everything in this crate is independent of the DSM and runtime layers and
//! is exhaustively unit- and property-tested.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod cost;
pub mod machine;
pub mod stats;
pub mod sync;
pub mod vtime;

pub use cost::{Op, OpCounts, WorkEstimate};
pub use machine::{
    myrinet_200, sci_450, ClusterSpec, CpuModel, DsmCostModel, MachineModel, NetworkModel,
};
pub use stats::{NodeStats, StatsSnapshot, WireServiceSnapshot, WireStats};
pub use vtime::{ServerClock, ThreadClock, VTime};
