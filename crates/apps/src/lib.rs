//! # hyperion-apps
//!
//! The five benchmark programs of *"Remote object detection in cluster-based
//! Java"* (Antoniu & Hatcher, JavaPDC/IPDPS 2001, §4.1), written against the
//! Hyperion-RS runtime API so that — exactly as in the paper — the *same
//! program* runs unchanged under either access-detection protocol and on
//! either modelled cluster:
//!
//! * [`pi`] — embarrassingly parallel Riemann sum (paper: 50 M values);
//! * [`jacobi`] — 2-D heat diffusion on a mesh, block-of-rows decomposition
//!   (paper: 1024×1024, 100 steps);
//! * [`barnes`] — Barnes-Hut gravitational N-body with per-step tree builds
//!   and dynamic body assignment (paper: 16 K bodies, 6 steps);
//! * [`tsp`] — branch-and-bound travelling salesperson with a central work
//!   queue and a shared best bound (paper: 17 cities);
//! * [`asp`] — all-pairs shortest paths, Floyd-Warshall with a per-iteration
//!   pivot-row broadcast (paper: 2000-vertex graph).
//!
//! The serving-workload extension (figure 9) adds a sixth family that looks
//! like production traffic rather than a barrier-phased kernel:
//!
//! * [`kvstore`] — a sharded key-value/session store hammered with
//!   Zipf-skewed reads and a monitor-protected write tail;
//! * [`graph`] — PageRank over a seeded hub-skewed edge list, with
//!   irregular, non-strided page access.
//!
//! Each module also contains a plain sequential reference implementation the
//! tests use to verify that the distributed execution computes the right
//! answer, and every benchmark implements the [`Benchmark`] trait so the
//! figure-regeneration harness can sweep them uniformly.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod asp;
pub mod barnes;
pub mod common;
pub mod graph;
pub mod jacobi;
pub mod kvstore;
pub mod pi;
pub mod tsp;

pub use common::{block_range, Benchmark, BenchmarkName};
