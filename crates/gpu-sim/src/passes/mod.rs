//! The three-pass pipeline over a built [`BlockKernel`]:
//!
//! 1. **plan** ([`Engine::plan`]) — static validation (warp count,
//!    barrier alignment, register budget) plus the per-warp per-phase op
//!    index ranges every later pass walks. No memory state, no cycles.
//! 2. **cost** ([`Engine::cost`] / [`Engine::cost_traced`], in
//!    [`cost`]) — the accounting walk of `walk.rs` with the shape-only op
//!    over a [`GmemLayout`](crate::memory::global::GmemLayout): the
//!    [`ExecutionReport`] and [`Trace`], every simulation fault
//!    included, without touching matrix data.
//! 3. **execute** ([`Engine::execute_with`], in [`exec`]) — numerics
//!    only: the phase walker of `walk.rs` with the functional op, race
//!    detection after each phase, no pricing. The [`BackendKind`]
//!    selects only the MMA body: the reference interpreter
//!    ([`BackendKind::Sim`]) or the host-speed [`native`] microkernel
//!    ([`BackendKind::Native`]), bit-identical including accumulation
//!    order.
//!
//! [`Engine::run_kernel`] chains the three under a [`RunOptions`]
//! (trace flag, cost override, backend). The oracle [`Engine::run`] is
//! the plan pass plus the same accounting walk with the functional op;
//! `ExecParity` holds the two op semantics together.

pub mod backend;
pub mod cost;
pub mod exec;
pub mod native;
pub(crate) mod walk;

pub use backend::BackendKind;

use crate::cost::CostConfig;
use crate::engine::Engine;
use crate::error::SimError;
use crate::memory::global::GlobalMemory;
use crate::memory::regfile::RegisterUsage;
use crate::program::{BlockKernel, Op};
use crate::report::ExecutionReport;
use crate::trace::Trace;

/// A validated kernel plus the phase structure every walk over it
/// shares. Producing one proves the kernel passes every static check.
#[derive(Debug, Clone)]
pub struct PlannedKernel<'k> {
    pub kernel: &'k BlockKernel,
    /// Warps in the block.
    pub warps: usize,
    /// Barrier-delimited phases (barriers + 1, uniform across warps).
    pub phases: usize,
    /// Conservative per-warp register usage (the feasibility check).
    pub registers_per_warp: Vec<RegisterUsage>,
    /// `phase_ops[w][ph]` = op index range of warp `w` in phase `ph`,
    /// excluding the closing barrier.
    pub(crate) phase_ops: Vec<Vec<(usize, usize)>>,
}

impl<'k> PlannedKernel<'k> {
    /// Ops of warp `w` in phase `ph`.
    pub(crate) fn ops(&self, w: usize, ph: usize) -> &'k [Op] {
        let (start, end) = self.phase_ops[w][ph];
        &self.kernel.warps[w].ops[start..end]
    }
}

impl<'a> Engine<'a> {
    /// Plan pass: static validation and phase structure — warp count,
    /// barrier alignment, register budget, in that order. Every walk
    /// (the oracle [`Engine::run`] included) starts here.
    pub fn plan<'k>(&self, kernel: &'k BlockKernel) -> Result<PlannedKernel<'k>, SimError> {
        let p = kernel.num_warps();
        let max_warps = self.device.max_warps_per_block() as usize;
        if p == 0 || p > max_warps {
            return Err(SimError::BadWarpCount {
                warps: p,
                max: max_warps,
            });
        }

        let expected_phases = kernel.warps[0].barrier_count() + 1;
        for (i, w) in kernel.warps.iter().enumerate() {
            let phases = w.barrier_count() + 1;
            if phases != expected_phases {
                return Err(SimError::BarrierMismatch {
                    warp: i,
                    phases,
                    expected: expected_phases,
                });
            }
        }

        let registers_per_warp = self.analyze_registers(kernel);
        for (i, usage) in registers_per_warp.iter().enumerate() {
            if usage.measured_regs > self.device.max_regs_per_thread {
                return Err(SimError::RegisterOverflow {
                    warp: i,
                    needed: usage.measured_regs,
                    limit: self.device.max_regs_per_thread,
                });
            }
        }

        let phase_ops = kernel
            .warps
            .iter()
            .map(|w| {
                let mut ranges = Vec::with_capacity(expected_phases);
                let mut start = 0usize;
                for (idx, op) in w.ops.iter().enumerate() {
                    if matches!(op, Op::Barrier) {
                        ranges.push((start, idx));
                        start = idx + 1;
                    }
                }
                ranges.push((start, w.ops.len()));
                ranges
            })
            .collect();

        Ok(PlannedKernel {
            kernel,
            warps: p,
            phases: expected_phases,
            registers_per_warp,
            phase_ops,
        })
    }

    /// The full pipeline in one call: plan → cost → execute, equivalent
    /// to [`Engine::run`] (bit-identical numerics and report) with the
    /// passes separable and the execute pass on the selected
    /// [`BackendKind`].
    pub fn run_kernel(
        &self,
        kernel: &BlockKernel,
        gmem: &mut GlobalMemory,
        opts: &RunOptions,
    ) -> Result<RunArtifacts, SimError> {
        let eng = Engine {
            device: self.device,
            cost: opts.cost.as_ref().unwrap_or(&self.cost).clone(),
        };
        let plan = eng.plan(kernel)?;
        let layout = gmem.layout();
        let (report, trace) = if opts.traced {
            let (report, trace) = eng.cost_traced(&plan, &layout)?;
            (report, Some(trace))
        } else {
            (eng.cost(&plan, &layout)?, None)
        };
        eng.execute_with(opts.backend, &plan, gmem)?;
        Ok(RunArtifacts { report, trace })
    }
}

/// Options of one [`Engine::run_kernel`] call.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Produce the cost pass's [`Trace`] alongside the report.
    pub traced: bool,
    /// Override the engine's [`CostConfig`] for this run (`None` keeps
    /// the engine's own).
    pub cost: Option<CostConfig>,
    /// Execution backend for the execute pass.
    pub backend: BackendKind,
}

impl RunOptions {
    /// Enable trace capture.
    pub fn traced(mut self) -> Self {
        self.traced = true;
        self
    }

    /// Override the cost-model parameters for this run.
    pub fn with_cost(mut self, cost: CostConfig) -> Self {
        self.cost = Some(cost);
        self
    }

    /// Select the execution backend.
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }
}

/// What one [`Engine::run_kernel`] call produced.
#[derive(Debug, Clone)]
pub struct RunArtifacts {
    /// The cost pass's cycle/traffic/register report.
    pub report: ExecutionReport,
    /// The cost pass's timeline, when [`RunOptions::traced`] was set.
    pub trace: Option<Trace>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::gh200;
    use crate::precision::Precision;

    #[test]
    fn plan_splits_phases_at_barriers() {
        let dev = gh200();
        let k = BlockKernel::spmd(2, |i, w| {
            let f = w.frag("x", 4, 4, Precision::Fp16);
            w.zero_acc(f);
            if i == 0 {
                w.shared_store(f, 0);
            }
            w.barrier();
            if i == 1 {
                w.shared_load(f, 0);
            }
        });
        let plan = Engine::new(&dev).plan(&k).unwrap();
        assert_eq!(plan.warps, 2);
        assert_eq!(plan.phases, 2);
        // Warp 0: [zero, store] then []; warp 1: [zero] then [load].
        assert_eq!(plan.ops(0, 0).len(), 2);
        assert_eq!(plan.ops(0, 1).len(), 0);
        assert_eq!(plan.ops(1, 0).len(), 1);
        assert_eq!(plan.ops(1, 1).len(), 1);
        assert!(!plan
            .ops(0, 0)
            .iter()
            .chain(plan.ops(1, 1))
            .any(|o| matches!(o, Op::Barrier)));
    }
}
