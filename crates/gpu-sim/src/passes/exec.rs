//! Execute pass: numerics only, no cycle accounting.
//!
//! Interprets a [`PlannedKernel`] phase by phase. [`Engine::execute_with`]
//! matches the [`BackendKind`] onto one of two executors, which leave
//! bit-identical state:
//!
//! * **Reference** ([`BackendKind::Sim`]) — every phase runs through
//!   `Engine::run_phase_serial`: warps in order, ops in program order,
//!   then same-phase race detection. KAMI kernels exchange data between
//!   warps only across a barrier, so this walk *is* the semantics; every
//!   fault surfaces with the same error, panic message, and ordering as
//!   [`Engine::run`].
//! * **Fast** ([`BackendKind::Native`], in [`super::native`]) — the same
//!   walk with host-speed MMA microkernels on phases its static
//!   shared-memory analysis proves race-free, and this module's serial
//!   phase loop on every other phase.
//!
//! The pass performs no tallying and consults no
//! [`CostConfig`](crate::cost::CostConfig): cycles are the cost pass's
//! business alone.

use super::backend::{BackendKind, ExecOutcome};
use super::PlannedKernel;
use crate::cost::PhaseTally;
use crate::engine::{detect_races, Engine};
use crate::error::SimError;
use crate::fragment::FragValue;
use crate::memory::global::GlobalMemory;
use crate::memory::shared::SharedMemory;

impl<'a> Engine<'a> {
    /// Execute pass: run the planned kernel's numerics against `gmem`
    /// on the selected backend. Every backend leaves the state
    /// [`Engine::run`] leaves behind (fragment values, shared/global
    /// memory contents, global traffic counters) on every kernel that
    /// runs to completion; the returned [`ExecOutcome`] reports which
    /// paths the phases took.
    pub fn execute_with(
        &self,
        backend: BackendKind,
        plan: &PlannedKernel<'_>,
        gmem: &mut GlobalMemory,
    ) -> Result<ExecOutcome, SimError> {
        let fast_phases = match backend {
            BackendKind::Sim => {
                self.execute_reference(plan, gmem)?;
                0
            }
            BackendKind::Native => super::native::execute_native(self, plan, gmem)?,
        };
        Ok(ExecOutcome {
            backend,
            phases: plan.phases,
            fast_phases,
            fallback_phases: plan.phases - fast_phases,
        })
    }

    /// The reference executor: every phase through the serial loop.
    fn execute_reference(
        &self,
        plan: &PlannedKernel<'_>,
        gmem: &mut GlobalMemory,
    ) -> Result<(), SimError> {
        let (mut smem, mut frags) = self.kernel_state(plan.kernel);
        for phase in 0..plan.phases {
            self.run_phase_serial(plan, phase, gmem, &mut smem, &mut frags)?;
        }
        Ok(())
    }

    /// Legacy-identical interleaved interpretation of one phase: warps
    /// in order, ops in program order, with same-phase race detection.
    pub(crate) fn run_phase_serial(
        &self,
        plan: &PlannedKernel<'_>,
        phase: usize,
        gmem: &mut GlobalMemory,
        smem: &mut SharedMemory,
        frags: &mut [Vec<FragValue>],
    ) -> Result<(), SimError> {
        let mut tally = PhaseTally::default();
        let mut writes: Vec<(usize, (usize, usize))> = Vec::new();
        let mut reads: Vec<(usize, (usize, usize))> = Vec::new();
        let mut flops_scratch = 0u64;
        for (w, warp_frags) in frags.iter_mut().enumerate() {
            let prog = &plan.kernel.warps[w];
            for op in plan.ops(w, phase) {
                self.exec_op(
                    w,
                    prog,
                    op,
                    gmem,
                    smem,
                    warp_frags,
                    &mut tally,
                    &mut writes,
                    &mut reads,
                    &mut flops_scratch,
                )?;
            }
        }
        detect_races(&writes, &reads)
    }
}

#[cfg(test)]
mod tests {
    use crate::device::gh200;
    use crate::engine::Engine;
    use crate::error::SimError;
    use crate::matrix::Matrix;
    use crate::memory::global::{BufferId, GlobalMemory};
    use crate::passes::{BackendKind, ExecOutcome, RunOptions};
    use crate::precision::Precision;
    use crate::program::BlockKernel;

    /// Run `k` through the legacy interleaved engine and through
    /// [`Engine::run_kernel`] on every backend, each against a fresh
    /// memory built by `build`. On success the buffers, traffic
    /// counters, serde report and serde trace must be identical; on
    /// failure the `Debug` errors must be. Returns the legacy result
    /// and each backend's outcome, in [`BackendKind::ALL`] order.
    fn check_every_backend(
        k: &BlockKernel,
        build: impl Fn(&mut GlobalMemory),
    ) -> (Result<(), SimError>, Vec<Option<ExecOutcome>>) {
        let dev = gh200();
        let eng = Engine::new(&dev);
        let mut g_legacy = GlobalMemory::new();
        build(&mut g_legacy);
        let legacy = eng.run_traced(k, &mut g_legacy);
        let mut outcomes = Vec::new();
        for kind in BackendKind::ALL {
            let mut g = GlobalMemory::new();
            build(&mut g);
            let opts = RunOptions::default().traced().with_backend(kind);
            let split = eng.run_kernel(k, &mut g, &opts);
            match (&legacy, split) {
                (Ok((legacy_rep, legacy_trace)), Ok(arts)) => {
                    assert_eq!(
                        serde_json::to_string(legacy_rep).unwrap(),
                        serde_json::to_string(&arts.report).unwrap(),
                        "{kind}: report diverges"
                    );
                    assert_eq!(
                        serde_json::to_string(legacy_trace).unwrap(),
                        serde_json::to_string(&arts.trace.unwrap()).unwrap(),
                        "{kind}: trace diverges"
                    );
                    assert_eq!(g_legacy.bytes_read(), g.bytes_read(), "{kind}");
                    assert_eq!(g_legacy.bytes_written(), g.bytes_written(), "{kind}");
                    for i in 0..g_legacy.buffer_count() {
                        let id = BufferId(i);
                        assert_eq!(
                            g_legacy.download(id).max_abs_diff(&g.download(id)),
                            0.0,
                            "{kind}: buffer '{}' diverges",
                            g_legacy.name(id)
                        );
                    }
                    outcomes.push(Some(arts.exec));
                }
                (Err(legacy_err), Err(err)) => {
                    assert_eq!(format!("{legacy_err:?}"), format!("{err:?}"), "{kind}");
                    outcomes.push(None);
                }
                (legacy, split) => panic!(
                    "{kind}: legacy {:?} vs split {:?}",
                    legacy.as_ref().map(|_| ()),
                    split.map(|_| ())
                ),
            }
        }
        (legacy.map(|_| ()), outcomes)
    }

    #[test]
    fn fast_path_matches_legacy_gemm() {
        // All four warps load the same A/B windows (read-only sharing is
        // conflict-free); disjoint smem staging; warp 0 alone stores C.
        let n = 8;
        let k = BlockKernel::spmd(4, |i, w| {
            let fa = w.frag("A", n, n, Precision::Fp64);
            let fb = w.frag("B", n, n, Precision::Fp64);
            let fc = w.frag("C", n, n, Precision::Fp64);
            w.global_load(fa, BufferId(0), 0, 0);
            w.global_load(fb, BufferId(1), 0, 0);
            w.zero_acc(fc);
            w.mma(fc, fa, fb);
            w.shared_store(fc, i * n * n * 8);
            w.barrier();
            w.shared_load(fc, i * n * n * 8);
            if i == 0 {
                w.global_store(fc, BufferId(2), 0, 0);
            }
        });
        let (legacy, outcomes) = check_every_backend(&k, |g| {
            g.upload("A", &Matrix::seeded_uniform(n, n, 1), Precision::Fp64);
            g.upload("B", &Matrix::seeded_uniform(n, n, 2), Precision::Fp64);
            g.alloc_zeroed("C", n, n, Precision::Fp64);
        });
        legacy.unwrap();
        let native = outcomes[1].unwrap();
        assert_eq!(native.fast_phases, native.phases);
    }

    #[test]
    fn accumulate_stores_match_legacy_in_warp_order() {
        let build = |g: &mut GlobalMemory| {
            g.upload("A", &Matrix::seeded_uniform(4, 4, 7), Precision::Fp16);
            g.upload("C", &Matrix::seeded_uniform(4, 4, 9), Precision::Fp16);
        };
        // Each warp accumulates into a disjoint row band of C; every
        // backend must reproduce the interleaved engine's rounding.
        let k = BlockKernel::spmd(2, |i, w| {
            let fa = w.frag("a", 2, 4, Precision::Fp16);
            w.global_load(fa, BufferId(0), i * 2, 0);
            w.global_accumulate(fa, BufferId(1), i * 2, 0);
        });
        let (legacy, _) = check_every_backend(&k, build);
        legacy.unwrap();

        // Both warps accumulate into the same C window in one phase,
        // the cross-layer aggregation of KAMI-3D: warp order settles
        // it, so Native keeps the phase on its lean loop.
        let k = BlockKernel::spmd(2, |i, w| {
            let fa = w.frag("a", 2, 4, Precision::Fp16);
            w.global_load(fa, BufferId(0), i * 2, 0);
            w.global_accumulate(fa, BufferId(1), 0, 0);
        });
        let (legacy, outcomes) = check_every_backend(&k, build);
        legacy.unwrap();
        let native = outcomes[1].unwrap();
        assert_eq!(native.fast_phases, native.phases);
    }

    #[test]
    fn same_phase_gmem_rmw_runs_lean_and_matches() {
        // Warp 0 stores then reloads the same C window inside one phase:
        // global ops run in warp and program order on both loops, so
        // Native keeps the phase lean and must still match.
        let k = BlockKernel::spmd(2, |i, w| {
            let f = w.frag("x", 2, 2, Precision::Fp64);
            w.global_load(f, BufferId(0), 0, 0);
            if i == 0 {
                w.global_store(f, BufferId(1), 0, 0);
                w.global_load(f, BufferId(1), 0, 0);
            }
        });
        let (legacy, outcomes) = check_every_backend(&k, |g| {
            g.upload("A", &Matrix::seeded_uniform(2, 2, 3), Precision::Fp64);
            g.alloc_zeroed("C", 2, 2, Precision::Fp64);
        });
        legacy.unwrap();
        let native = outcomes[1].unwrap();
        assert_eq!(native.fast_phases, native.phases);
    }

    #[test]
    fn conflict_free_phase_reports_lowest_warp_error_like_legacy() {
        // Disjoint smem addresses (conflict-free), but warps 1 and 2 both
        // store uninitialized fragments; legacy reaches warp 1 first.
        let k = BlockKernel::spmd(3, |i, w| {
            let f = w.frag("x", 1, 1, Precision::Fp32);
            if i == 0 {
                w.zero_acc(f);
            }
            w.shared_store(f, i * 64);
        });
        let (legacy, _) = check_every_backend(&k, |_| {});
        assert!(matches!(
            legacy,
            Err(SimError::UninitializedFragment { warp: 1, .. })
        ));
    }

    #[test]
    fn smem_race_errors_identically_through_every_backend() {
        let k = BlockKernel::spmd(2, |i, w| {
            let f = w.frag("x", 1, 1, Precision::Fp32);
            w.zero_acc(f);
            if i == 0 {
                w.shared_store(f, 0);
            } else {
                w.shared_load(f, 0);
            }
        });
        let (legacy, _) = check_every_backend(&k, |_| {});
        assert!(matches!(legacy, Err(SimError::SharedMemoryHazard { .. })));
    }
}
