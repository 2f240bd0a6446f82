//! Symbolic operation costs.
//!
//! The 2001 system compiled Java bytecode to C and then to native code, so
//! the per-iteration cost of an application kernel was determined by the
//! instruction mix the C compiler emitted for it.  The reproduction keeps the
//! same structure: each application expresses its inner-loop body as an
//! [`OpCounts`] instruction mix, and the machine's [`CpuModel`]
//! (see [`crate::machine`]) converts that mix into a virtual duration once,
//! before the loop runs.  This is how the paper's central observation — that
//! the benefit of removing in-line checks depends on the ratio of check cost
//! to the *rest* of the computation (§4.3) — enters the model.

use crate::machine::{CpuModel, MachineModel};
use crate::vtime::VTime;

/// A class of dynamic operation in an application kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Op {
    /// Integer ALU operation (add, sub, compare, shift, logical).
    IntAlu,
    /// Integer multiply.
    IntMul,
    /// Double-precision floating-point add/sub/compare.
    FpAdd,
    /// Double-precision floating-point multiply.
    FpMul,
    /// Double-precision floating-point divide or square root.
    FpDiv,
    /// Memory load that hits in cache (address arithmetic included).
    Load,
    /// Memory store.
    Store,
    /// Conditional branch.
    Branch,
    /// Method-call / loop bookkeeping overhead.
    CallOverhead,
}

/// All operation classes, in a fixed order (used for tabular reporting).
pub const ALL_OPS: [Op; 9] = [
    Op::IntAlu,
    Op::IntMul,
    Op::FpAdd,
    Op::FpMul,
    Op::FpDiv,
    Op::Load,
    Op::Store,
    Op::Branch,
    Op::CallOverhead,
];

/// An instruction mix: how many operations of each class one execution of a
/// kernel body performs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OpCounts {
    counts: [f64; 9],
}

impl OpCounts {
    /// An empty mix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` operations of class `op` (builder style).
    pub fn with(mut self, op: Op, n: f64) -> Self {
        self.add(op, n);
        self
    }

    /// Add `n` operations of class `op`.
    pub fn add(&mut self, op: Op, n: f64) {
        self.counts[Self::index(op)] += n;
    }

    /// Number of operations of class `op` in the mix.
    pub fn count(&self, op: Op) -> f64 {
        self.counts[Self::index(op)]
    }

    /// Merge another mix into this one.
    pub fn merge(&mut self, other: &OpCounts) {
        for i in 0..self.counts.len() {
            self.counts[i] += other.counts[i];
        }
    }

    fn index(op: Op) -> usize {
        match op {
            Op::IntAlu => 0,
            Op::IntMul => 1,
            Op::FpAdd => 2,
            Op::FpMul => 3,
            Op::FpDiv => 4,
            Op::Load => 5,
            Op::Store => 6,
            Op::Branch => 7,
            Op::CallOverhead => 8,
        }
    }
}

/// A pre-computed duration for one execution of a kernel body on a specific
/// CPU, produced by [`CpuModel::estimate`].
///
/// Kernels compute this once outside their hot loop and then charge it per
/// iteration, which keeps the accounting overhead of the harness negligible.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkEstimate {
    per_iteration: VTime,
}

impl WorkEstimate {
    /// Duration of a single execution of the kernel body.
    #[inline]
    pub fn per_iteration(&self) -> VTime {
        self.per_iteration
    }

    /// Duration of `n` executions of the kernel body.
    #[inline]
    pub fn for_iterations(&self, n: u64) -> VTime {
        self.per_iteration.times(n)
    }
}

impl CpuModel {
    /// Cycles consumed by one operation of class `op`.
    pub fn op_cycles(&self, op: Op) -> f64 {
        match op {
            Op::IntAlu => self.int_alu_cycles,
            Op::IntMul => self.int_mul_cycles,
            Op::FpAdd => self.fp_add_cycles,
            Op::FpMul => self.fp_mul_cycles,
            Op::FpDiv => self.fp_div_cycles,
            Op::Load => self.load_cycles,
            Op::Store => self.store_cycles,
            Op::Branch => self.branch_cycles,
            Op::CallOverhead => self.call_overhead_cycles,
        }
    }

    /// Total cycles for an instruction mix.
    pub fn cycles_for(&self, mix: &OpCounts) -> f64 {
        ALL_OPS
            .iter()
            .map(|&op| self.op_cycles(op) * mix.count(op))
            .sum()
    }

    /// Duration of an instruction mix on this CPU.
    pub fn duration_for(&self, mix: &OpCounts) -> VTime {
        self.cycles(self.cycles_for(mix))
    }

    /// Pre-compute a per-iteration [`WorkEstimate`] for a kernel body.
    pub fn estimate(&self, mix: &OpCounts) -> WorkEstimate {
        WorkEstimate {
            per_iteration: self.duration_for(mix),
        }
    }
}

impl MachineModel {
    /// Requester-side marshalling overhead of a batched diff flush carrying
    /// `extra` pages beyond the first one.
    pub fn batch_flush_overhead(&self, extra: u64) -> VTime {
        self.cpu.cycles(self.dsm.batch_flush_cycles * extra as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::myrinet_200;

    #[test]
    fn op_counts_builder_accumulates() {
        let mix = OpCounts::new()
            .with(Op::FpAdd, 3.0)
            .with(Op::FpMul, 1.0)
            .with(Op::FpAdd, 1.0);
        assert_eq!(mix.count(Op::FpAdd), 4.0);
        assert_eq!(mix.count(Op::FpMul), 1.0);
        assert_eq!(mix.count(Op::FpDiv), 0.0);
    }

    #[test]
    fn op_counts_merge_per_class() {
        let a = OpCounts::new().with(Op::IntAlu, 2.0).with(Op::Load, 1.0);
        let b = OpCounts::new().with(Op::IntAlu, 1.0).with(Op::Store, 4.0);
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.count(Op::IntAlu), 3.0);
        assert_eq!(m.count(Op::Store), 4.0);
        assert_eq!(m.count(Op::Load), 1.0);
    }

    #[test]
    fn cpu_converts_mix_to_cycles_and_time() {
        let cpu = myrinet_200().machine.cpu;
        let mix = OpCounts::new().with(Op::IntAlu, 10.0);
        let cycles = cpu.cycles_for(&mix);
        assert!((cycles - 10.0 * cpu.int_alu_cycles).abs() < 1e-9);
        // 200 MHz => 5 ns per cycle.
        let t = cpu.duration_for(&mix);
        assert_eq!(t.as_ps(), (cycles * 5000.0).round() as u64);
    }

    #[test]
    fn work_estimate_scales_linearly() {
        let cpu = myrinet_200().machine.cpu;
        let est = cpu.estimate(&OpCounts::new().with(Op::FpAdd, 2.0));
        assert_eq!(
            est.for_iterations(1000).as_ps(),
            est.per_iteration().as_ps() * 1000
        );
    }

    #[test]
    fn fp_ops_cost_more_than_int_ops_on_both_cpus() {
        for spec in [crate::machine::myrinet_200(), crate::machine::sci_450()] {
            let cpu = spec.machine.cpu;
            assert!(cpu.op_cycles(Op::FpDiv) > cpu.op_cycles(Op::FpMul));
            assert!(cpu.op_cycles(Op::FpMul) >= cpu.op_cycles(Op::FpAdd));
            assert!(cpu.op_cycles(Op::FpAdd) > cpu.op_cycles(Op::IntAlu));
        }
    }
}
