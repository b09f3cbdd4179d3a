//! Cost-pass planning for dense block GEMM.
//!
//! A [`GemmPlan`] is the output of running the simulator's plan and
//! cost passes over a shape class `(device, config, m, n, k)` with **no
//! matrix data**: the kernel is built against a
//! [`GmemLayout`] (buffer shapes only), so
//! the resulting [`ExecutionReport`] is pure cycle accounting. Because
//! the cost pass is deterministic in the shape class, a plan can be
//! cached and reused for every request with the same shape — that is
//! exactly what `kami-sched`'s `PlanCache` does — while
//! [`gemm_execute_plan_with`] runs only the execute pass (numerics) per
//! request.

use crate::config::KamiConfig;
use crate::error::KamiError;
use crate::gemm::{build_gemm_kernel, c_precision, run_fallback_ladder, stage, CStore, GemmResult};
use kami_gpu_sim::{BackendKind, DeviceSpec, Engine, ExecutionReport, GmemLayout, Matrix};

/// A costed shape class: everything the cost pass produced for
/// `(cfg, m, n, k)` on one device, with no operand values involved.
#[derive(Debug, Clone)]
pub struct GemmPlan {
    /// Configuration the plan was costed under (its `smem_fraction`
    /// reflects any §4.7 ladder escalation by [`gemm_cost_auto`]).
    pub cfg: KamiConfig,
    pub m: usize,
    pub n: usize,
    pub k: usize,
    /// The cost pass's report — identical to what a full run of the
    /// same shape would produce.
    pub report: ExecutionReport,
    /// Useful flops of the logical problem (`2·m·n·k`).
    pub useful_flops: u64,
    /// `smem_fraction` actually used.
    pub smem_fraction: f64,
}

impl GemmPlan {
    /// Approximate bytes this plan keeps resident: the inline struct
    /// plus the report's heap allocations. A bounded plan cache charges
    /// this against its byte budget; it is an estimate for budgeting,
    /// not an exact allocator measurement.
    pub fn approx_resident_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.report.approx_heap_bytes()
    }
}

/// Cost pass only: validate `(cfg, m, n, k)` on `device`, build the
/// kernel against a shape-only global layout, and charge cycles.
/// Touches no matrix data; fails with exactly the error a full run of
/// the same shape would report.
pub fn gemm_cost(
    device: &DeviceSpec,
    cfg: &KamiConfig,
    m: usize,
    n: usize,
    k: usize,
) -> Result<GemmPlan, KamiError> {
    cfg.validate(device, m, n, k)?;
    let prec = cfg.precision;
    let c_prec = c_precision(prec);
    let mut layout = GmemLayout::new();
    let ab = layout.declare("A", m, k, prec);
    let bb = layout.declare("B", k, n, prec);
    let cb = layout.declare("C", m, n, c_prec);

    let kernel = build_gemm_kernel(cfg, m, n, k, ab, bb, cb, c_prec);
    let engine = Engine::with_cost(device, cfg.cost.clone());
    let planned = engine.plan(&kernel)?;
    let report = engine.cost(&planned, &layout)?;
    Ok(GemmPlan {
        cfg: cfg.clone(),
        m,
        n,
        k,
        report,
        useful_flops: 2 * (m as u64) * (n as u64) * (k as u64),
        smem_fraction: cfg.smem_fraction,
    })
}

/// [`gemm_cost`] with the §4.7 preset-ratio ladder: on register
/// overflow, escalate `smem_fraction` through
/// [`crate::gemm::FALLBACK_FRACTIONS`] until the kernel fits — the
/// cost-pass twin of [`crate::gemm_auto`].
pub fn gemm_cost_auto(
    device: &DeviceSpec,
    cfg: &KamiConfig,
    m: usize,
    n: usize,
    k: usize,
) -> Result<GemmPlan, KamiError> {
    run_fallback_ladder(cfg, |c| gemm_cost(device, c, m, n, k))
}

/// Execute pass only: run the numerics of a costed shape class against
/// real operands on `backend`. The kernel is rebuilt deterministically
/// from the plan's shape class (buffer ids depend only on declaration
/// order), so the run skips the cost pass entirely and the returned
/// report is the plan's cached one. Plans are backend-independent (the
/// cost pass never touches matrix data), so shared plan caches hand the
/// same [`GemmPlan`] to executors with different backend choices;
/// `kami-serve`'s warm path passes its `ServerConfig` backend, and a
/// caller wanting the plan's own passes `plan.cfg.backend`.
pub fn gemm_execute_plan_with(
    device: &DeviceSpec,
    plan: &GemmPlan,
    a: &Matrix,
    b: &Matrix,
    backend: BackendKind,
) -> Result<GemmResult, KamiError> {
    if a.rows() != plan.m || a.cols() != plan.k || b.rows() != plan.k || b.cols() != plan.n {
        return Err(KamiError::ShapeMismatch {
            detail: format!(
                "plan is {}x{}x{} but A is {}x{} and B is {}x{}",
                plan.m,
                plan.n,
                plan.k,
                a.rows(),
                a.cols(),
                b.rows(),
                b.cols()
            ),
        });
    }
    let (cfg, m, n, k) = (&plan.cfg, plan.m, plan.n, plan.k);
    let mut s = stage(
        cfg.precision,
        a,
        b,
        CStore::Plain,
        false,
        |ab, bb, cb, c_prec| build_gemm_kernel(cfg, m, n, k, ab, bb, cb, c_prec),
    )?;
    let engine = Engine::with_cost(device, cfg.cost.clone());
    let planned = engine.plan(&s.kernel)?;
    engine.execute_with(backend, &planned, &mut s.gmem)?;
    Ok(s.finish(plan.report.clone(), plan.smem_fraction))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Algo;
    use crate::gemm::gemm;
    use kami_gpu_sim::device::gh200;
    use kami_gpu_sim::{GlobalMemory, Precision, SimError};

    #[test]
    fn cost_pass_report_matches_full_run() {
        let dev = gh200();
        for algo in Algo::ALL {
            let cfg = KamiConfig::new(algo, Precision::Fp16);
            let a = Matrix::seeded_uniform(32, 32, 1);
            let b = Matrix::seeded_uniform(32, 32, 2);
            let full = gemm(&dev, &cfg, &a, &b).unwrap();
            let plan = gemm_cost(&dev, &cfg, 32, 32, 32).unwrap();
            assert_eq!(
                serde_json::to_string(&full.report).unwrap(),
                serde_json::to_string(&plan.report).unwrap(),
                "{}: cost pass diverges from full run",
                algo.label()
            );
            assert_eq!(plan.useful_flops, full.useful_flops);
        }
    }

    #[test]
    fn execute_plan_reproduces_full_run_bit_exactly() {
        let dev = gh200();
        let cfg = KamiConfig::new(Algo::TwoD, Precision::Fp16);
        let a = Matrix::seeded_uniform(32, 32, 3);
        let b = Matrix::seeded_uniform(32, 32, 4);
        let full = gemm(&dev, &cfg, &a, &b).unwrap();
        let plan = gemm_cost(&dev, &cfg, 32, 32, 32).unwrap();
        let split = gemm_execute_plan_with(&dev, &plan, &a, &b, plan.cfg.backend).unwrap();
        assert_eq!(split.c.max_abs_diff(&full.c), 0.0);
        assert_eq!(split.report.cycles, full.report.cycles);
    }

    #[test]
    fn execute_plan_native_backend_is_bit_identical() {
        let dev = gh200();
        for algo in Algo::ALL {
            let cfg = KamiConfig::new(algo, Precision::Fp16);
            let plan = gemm_cost(&dev, &cfg, 32, 32, 32).unwrap();
            let a = Matrix::seeded_uniform(32, 32, 11);
            let b = Matrix::seeded_uniform(32, 32, 12);
            let sim = gemm_execute_plan_with(&dev, &plan, &a, &b, BackendKind::Sim).unwrap();
            let nat = gemm_execute_plan_with(&dev, &plan, &a, &b, BackendKind::Native).unwrap();
            assert_eq!(
                sim.c.max_abs_diff(&nat.c),
                0.0,
                "{}: native diverges",
                algo.label()
            );
            // A config carrying the backend routes through the same path.
            let plan_native = gemm_cost(
                &dev,
                &cfg.clone().with_backend(BackendKind::Native),
                32,
                32,
                32,
            )
            .unwrap();
            let via_cfg =
                gemm_execute_plan_with(&dev, &plan_native, &a, &b, plan_native.cfg.backend)
                    .unwrap();
            assert_eq!(sim.c.max_abs_diff(&via_cfg.c), 0.0);
        }
    }

    /// Every shipped algorithm, across precisions, warp counts, smem
    /// fractions and sizes, must leave C bit-identical on Native and Sim.
    #[test]
    fn every_shipped_algorithm_is_bit_identical_on_native() {
        let dev = gh200();
        let mut ran = [0usize; 3];
        for (ai, algo) in Algo::ALL.into_iter().enumerate() {
            for prec in [Precision::Fp64, Precision::Fp16, Precision::Tf32] {
                for warps in [1, 4, 8, 27] {
                    for frac in [0.0, 0.25] {
                        for s in [32, 64] {
                            let cfg = KamiConfig::new(algo, prec)
                                .with_warps(warps)
                                .with_smem_fraction(frac);
                            if cfg.validate(&dev, s, s, s).is_err() {
                                continue;
                            }
                            let c_prec = c_precision(prec);
                            let operands = || {
                                let mut g = GlobalMemory::new();
                                let ab = g.upload("A", &Matrix::seeded_uniform(s, s, 1), prec);
                                let bb = g.upload("B", &Matrix::seeded_uniform(s, s, 2), prec);
                                let cb = g.alloc_zeroed("C", s, s, c_prec);
                                (g, ab, bb, cb)
                            };
                            let (mut g_sim, ab, bb, cb) = operands();
                            let (mut g_nat, ..) = operands();
                            let kernel = build_gemm_kernel(&cfg, s, s, s, ab, bb, cb, c_prec);
                            let engine = Engine::new(&dev);
                            // Register overflow: the §4.7 ladder escalates past it.
                            let Ok(planned) = engine.plan(&kernel) else {
                                continue;
                            };
                            engine
                                .execute_with(BackendKind::Sim, &planned, &mut g_sim)
                                .unwrap();
                            engine
                                .execute_with(BackendKind::Native, &planned, &mut g_nat)
                                .unwrap();
                            let case = format!("{} {prec:?} w{warps} f{frac} {s}³", algo.label());
                            assert_eq!(
                                g_sim.download(cb).max_abs_diff(&g_nat.download(cb)),
                                0.0,
                                "{case}: native diverges"
                            );
                            ran[ai] += 1;
                        }
                    }
                }
            }
        }
        assert!(
            ran.iter().all(|&n| n > 0),
            "an algorithm never ran: {ran:?}"
        );
    }

    #[test]
    fn execute_plan_rejects_mismatched_operands() {
        let dev = gh200();
        let cfg = KamiConfig::new(Algo::OneD, Precision::Fp64);
        let plan = gemm_cost(&dev, &cfg, 16, 16, 16).unwrap();
        let wrong = Matrix::zeros(8, 16);
        let ok = Matrix::zeros(16, 16);
        assert!(matches!(
            gemm_execute_plan_with(&dev, &plan, &wrong, &ok, plan.cfg.backend),
            Err(KamiError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn cost_auto_escalates_like_the_full_ladder() {
        let dev = gh200();
        // 128³ FP16 at 4 warps overflows registers at fraction 0.
        let cfg = KamiConfig::new(Algo::OneD, Precision::Fp16);
        assert!(matches!(
            gemm_cost(&dev, &cfg, 128, 128, 128),
            Err(KamiError::Sim(SimError::RegisterOverflow { .. }))
        ));
        let plan = gemm_cost_auto(&dev, &cfg, 128, 128, 128).unwrap();
        assert!(plan.smem_fraction > 0.0);
        assert_eq!(plan.cfg.smem_fraction, plan.smem_fraction);
        // The escalated plan matches the escalated full run.
        let a = Matrix::seeded_uniform(128, 128, 3);
        let b = Matrix::seeded_uniform(128, 128, 4);
        let full = crate::gemm::gemm_auto(&dev, &cfg, &a, &b).unwrap();
        assert_eq!(plan.smem_fraction, full.smem_fraction);
        assert_eq!(plan.report.cycles, full.report.cycles);
        let split = gemm_execute_plan_with(&dev, &plan, &a, &b, plan.cfg.backend).unwrap();
        assert_eq!(split.c.max_abs_diff(&full.c), 0.0);
    }
}
