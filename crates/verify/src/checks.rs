//! The four cross-checks, run per [`Case`].
//!
//! Each check compares two *independent* implementations of the same
//! quantity, so a mismatch localizes a bug to the seam it crossed:
//!
//! | check            | left side (measured)            | right side (oracle)            |
//! |------------------|---------------------------------|--------------------------------|
//! | `Numerics`       | engine GEMM / 2.5D output       | exact-order CPU reference      |
//! | `EngineVsModel`  | engine per-phase cycle tallies  | Formulas 1–12 closed forms     |
//! | `SchedulerTrace` | scheduler report fields         | the per-SM trace it emitted    |
//! | `SparseVsDense`  | SpMM / SpGEMM kernels           | densified dense reference      |
//! | `ExecParity`     | split cost+execute passes       | legacy interleaved engine      |
//!
//! Tolerances: communication cycles must match the closed forms
//! *exactly* (within float noise, `1e-6·(1+theory)`) because the engine
//! and the model read the same `DeviceSpec` constants — any looser band
//! would have masked real bugs. Compute cycles get a bracket
//! `[theory, 8·theory·pad + 128]` where `pad` is the padding inflation
//! of one per-warp fragment at the device's native MMA shape (1 for
//! instruction-filling shapes; padding and busiest-warp rounding only
//! ever add cycles). Numerics use a precision-derived relative
//! Frobenius tolerance.

use crate::case::{Case, CaseAlgo, EpilogueKind, SPARSE_BLOCK};
use kami_core::model::cycles::{self, ModelParams};
use kami_core::model::{epilogue as epilogue_model, skinny};
use kami_core::tallskinny::chunk_count;
use kami_core::{
    algo25d, combine_partials, gemm, gemm_cost, gemm_execute_plan_with, gemm_fused, gemm_legacy,
    gemm_padded, gemm_scaled, gemm_skinny, gemm_t, reference_gemm, Algo, CStore, Epilogue,
    GemmRequest, GemmResult, KamiConfig, KamiError, MatOp, Op, SKINNY_CHUNK_K,
};
use kami_gpu_sim::{BackendKind, CostConfig, CostMode, Matrix, Precision};
use kami_sched::{BlockWork, PlanCache, SchedError, Scheduler};
use kami_sparse::{random_block_sparse, reference_spmm, spgemm, spmm, BlockOrder};

/// Which seam a mismatch crossed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckKind {
    Numerics,
    EngineVsModel,
    SchedulerTrace,
    SparseVsDense,
    /// Service-runtime replay vs the direct engine call (bit-identity
    /// and work conservation across coalesced ticks).
    Served,
    /// Split plan→cost→execute pipeline vs the legacy interleaved
    /// engine: bit-identical output, identical report, identical error.
    ExecParity,
    /// Fleet replay vs single-server vs direct engine call: per-request
    /// bit-identity across placements, ticket conservation, and cost
    /// coherence between same-class replicas.
    Fleet,
    /// Feedback-enabled replay on a mis-modeled server vs the direct
    /// engine call: the observation channel may re-rank plans and
    /// correct makespans, but payloads must stay bit-identical.
    Feedback,
}

impl CheckKind {
    pub fn label(self) -> &'static str {
        match self {
            CheckKind::Numerics => "Numerics",
            CheckKind::EngineVsModel => "EngineVsModel",
            CheckKind::SchedulerTrace => "SchedulerTrace",
            CheckKind::SparseVsDense => "SparseVsDense",
            CheckKind::Served => "Served",
            CheckKind::ExecParity => "ExecParity",
            CheckKind::Fleet => "Fleet",
            CheckKind::Feedback => "Feedback",
        }
    }
}

impl std::fmt::Display for CheckKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A failed cross-check: which seam, and the measured-vs-expected story.
#[derive(Debug, Clone)]
pub struct Mismatch {
    pub kind: CheckKind,
    pub detail: String,
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind, self.detail)
    }
}

/// A case that ran clean, or could not run on this cell at all
/// (register-infeasible or unsupported precision — not a bug).
#[derive(Debug, Clone)]
pub enum CaseOutcome {
    Pass,
    Skip(String),
}

/// Knobs the harness threads through every engine invocation. The
/// `cost` override is the fault-injection hook: a perturbed
/// [`CostConfig`] (e.g. `theta_r: 0.5`) makes the engine disagree with
/// the clean closed forms, which the `EngineVsModel` check must catch —
/// that end-to-end property is itself under test in
/// `tests/verify_harness.rs`.
#[derive(Debug, Clone, Default)]
pub struct Harness {
    pub cost: Option<CostConfig>,
    /// Also replay each dense case through the `kami-serve` runtime and
    /// hold the served results to bit-identity with the direct call
    /// (the `Served` check). Off by default: it spins up a server per
    /// case, which sweeps usually don't want to pay.
    pub serve: bool,
    /// Also replay each dense case through a server whose cache has
    /// the feedback channel *on* and whose execution is deliberately
    /// mis-modeled (`true_cost` slower than the model), then hold the
    /// payloads to bit-identity anyway (the `Feedback` check). Proves
    /// observation-driven re-ranking is schedule-only. Off by default
    /// for the same reason as `serve`.
    pub feedback: bool,
}

impl Harness {
    pub(crate) fn dense_config(&self, case: &Case, algo: Algo) -> KamiConfig {
        let mut cfg = KamiConfig::new(algo, case.precision).with_warps(case.warps);
        if let Some(cost) = &self.cost {
            cfg = cfg.with_cost(cost.clone());
        }
        cfg
    }
}

/// Relative Frobenius tolerance for a `k`-deep product at `prec`:
/// store rounding at the input precision plus accumulated roundoff at
/// the accumulator precision.
fn numeric_tol(prec: Precision, k: usize) -> f64 {
    let u = prec.unit_roundoff();
    let u_acc = prec.accumulator().unit_roundoff();
    (32.0 * u + 8.0 * k as f64 * u_acc).max(1e-13)
}

/// ‖a − b‖_F (the matrices must be the same shape).
fn frob_diff(a: &Matrix, b: &Matrix) -> f64 {
    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()));
    let mut sum = 0.0;
    for r in 0..a.rows() {
        for c in 0..a.cols() {
            let d = a[(r, c)] - b[(r, c)];
            sum += d * d;
        }
    }
    sum.sqrt()
}

fn fail(kind: CheckKind, detail: String) -> Mismatch {
    Mismatch { kind, detail }
}

/// Classify an engine/scheduler error: infeasible-on-this-cell errors
/// become skips; anything else means the generator and the validator
/// disagree about what is runnable, which is itself a bug.
fn classify(kind: CheckKind, stage: &str, e: KamiError) -> Result<CaseOutcome, Mismatch> {
    match e {
        KamiError::Sim(sim) => Ok(CaseOutcome::Skip(format!("{stage}: {sim}"))),
        KamiError::Unsupported { detail } => Ok(CaseOutcome::Skip(format!("{stage}: {detail}"))),
        other => Err(fail(
            kind,
            format!("{stage} rejected a generated case: {other}"),
        )),
    }
}

/// Run every applicable cross-check on one case. `Err` is a genuine
/// mismatch; `Ok(Skip)` means the case is infeasible on this cell.
pub fn run_case(
    case: &Case,
    harness: &Harness,
    plans: &PlanCache,
) -> Result<CaseOutcome, Mismatch> {
    let device = case.device.spec();
    let a = Matrix::seeded_uniform(case.m, case.k, case.data_seed);
    let b = Matrix::seeded_uniform(case.k, case.n, case.data_seed.wrapping_add(1));
    let c0 = Matrix::seeded_uniform(case.m, case.n, case.data_seed.wrapping_add(2));

    match case.algo {
        CaseAlgo::Dense(algo) => {
            let cfg = harness.dense_config(case, algo);

            // Check 1: numerics of the full α·A·B + β·C epilogue.
            let res = match gemm_scaled(&device, &cfg, case.alpha, &a, &b, case.beta, &c0) {
                Ok(res) => res,
                Err(e) => return classify(CheckKind::Numerics, "gemm_scaled", e),
            };
            let reference = reference_gemm(&a, &b, case.precision);
            let c0q = c0.quantized(case.precision);
            let want = Matrix::from_fn(case.m, case.n, |r, c| {
                case.alpha * reference[(r, c)] + case.beta * c0q[(r, c)]
            });
            let scale = (case.alpha.abs() * reference.frobenius_norm()
                + case.beta.abs() * c0q.frobenius_norm())
            .max(1e-9);
            let err = frob_diff(&res.c, &want) / scale;
            let tol = numeric_tol(case.precision, case.k);
            if err > tol {
                return Err(fail(
                    CheckKind::Numerics,
                    format!(
                        "{} rel Frobenius error {err:.3e} > tol {tol:.3e} vs reference \
                         (alpha={}, beta={})",
                        algo.label(),
                        case.alpha,
                        case.beta
                    ),
                ));
            }

            // Check: the scaled C store on every backend vs the oracle.
            if (case.alpha, case.beta) != (1.0, 0.0) {
                let store = CStore::Scaled {
                    alpha: case.alpha,
                    beta: case.beta,
                    c0: &c0,
                };
                check_parity(
                    &format!("{} scaled", algo.label()),
                    &gemm_legacy(&device, &cfg, &a, &b, store),
                    |backend| {
                        if backend == cfg.backend {
                            return Ok(res.clone());
                        }
                        let cfg = cfg.clone().with_backend(backend);
                        gemm_scaled(&device, &cfg, case.alpha, &a, &b, case.beta, &c0)
                    },
                )?;
            }

            // Check 2: engine cycle tallies vs Formulas 1–12, on the
            // plain product (no epilogue traffic in the closed forms).
            if let Some(prm) = ModelParams::from_device(&device, case.precision) {
                let res = match gemm(&device, &cfg, &a, &b) {
                    Ok(res) => res,
                    Err(e) => return classify(CheckKind::EngineVsModel, "gemm", e),
                };
                check_dense_model(case, &device, algo, &prm, &res.report)?;
            }

            // Check: split-engine parity — the separated cost + execute
            // passes must be indistinguishable from the legacy
            // interleaved engine on the same inputs.
            check_exec_parity(case, &cfg, algo, &a, &b)?;

            // Check: the fused-epilogue plane — unfused-reference
            // numerics, exact closed-form cost deltas, and the fused
            // engine's own split-vs-legacy parity.
            if let Some(kind) = case.epilogue {
                if let CaseOutcome::Skip(reason) = check_epilogue(case, &cfg, algo, kind, &a, &b)? {
                    return Ok(CaseOutcome::Skip(reason));
                }
            }
        }
        CaseAlgo::Skinny { algo, wide } => {
            let cfg = harness.dense_config(case, algo);
            if let CaseOutcome::Skip(reason) = check_skinny(case, &cfg, wide, &a, &b)? {
                return Ok(CaseOutcome::Skip(reason));
            }
        }
        CaseAlgo::TwoHalfD { q, c } => {
            let mut cfg = algo25d::Kami25dConfig::new(q, c, case.precision);
            if let Some(cost) = &harness.cost {
                cfg.cost = cost.clone();
            }
            let res = match algo25d::gemm_25d(&device, &cfg, &a, &b) {
                Ok(res) => res,
                Err(e) => return classify(CheckKind::Numerics, "gemm_25d", e),
            };
            let reference = reference_gemm(&a, &b, case.precision);
            let err = frob_diff(&res.c, &reference) / reference.frobenius_norm().max(1e-9);
            let tol = numeric_tol(case.precision, case.k);
            if err > tol {
                return Err(fail(
                    CheckKind::Numerics,
                    format!("2.5D rel Frobenius error {err:.3e} > tol {tol:.3e} vs reference"),
                ));
            }
            // Communication matches the 2.5D closed form exactly (the
            // comm analogue of Formulas 4/8/12); compute gets the same
            // padding bracket as the dense algorithms.
            if let Some(prm) = ModelParams::from_device(&device, case.precision) {
                let theory = algo25d::t_comm_25d(case.m, case.n, case.k, q, c, &prm);
                let measured = res.report.totals.comm;
                if (measured - theory).abs() > 1e-6 * (1.0 + theory) {
                    return Err(fail(
                        CheckKind::EngineVsModel,
                        format!(
                            "2.5D(q={q},c={c}) total comm cycles {measured:.3} != closed \
                             form {theory:.3}"
                        ),
                    ));
                }
                let t_cp = cycles::t_all_compute(case.m, case.n, case.k, &prm);
                // Padding-aware upper bound: each of the q²·c warps runs
                // q MMAs over its (m/q × n/q × k/(c·q)) fragment, and the
                // engine charges each one padded to the device's native
                // MMA shape — so at sub-native fragments (e.g. 16³ with
                // q=c=2 on Intel's m16n16k16) the inflation legitimately
                // exceeds the dense algorithms' fixed 8× bracket.
                let (mi, ni, ks) = (case.m / q, case.n / q, case.k / (c * q));
                let padded = match kami_gpu_sim::shape_for(&device, case.precision) {
                    Some(shape) => {
                        (q * q * c * q) as f64 * shape.padded_flops(mi, ni, ks) as f64
                            / (prm.n_tc * prm.o_tc)
                    }
                    None => t_cp * 8.0,
                };
                let measured = res.report.totals.compute;
                if measured < t_cp - 1e-6 || measured > padded + 128.0 {
                    return Err(fail(
                        CheckKind::EngineVsModel,
                        format!(
                            "2.5D(q={q},c={c}) compute cycles {measured:.3} outside \
                             [{t_cp:.3}, {:.3}]",
                            padded + 128.0
                        ),
                    ));
                }
            }
        }
    }

    // Check 3: scheduler report vs its own trace.
    check_scheduler(case, &device, plans)?;

    // Check 4: sparse kernels vs the densified dense path.
    if let (Some(density), CaseAlgo::Dense(algo)) = (case.sparsity, case.algo) {
        if let CaseOutcome::Skip(reason) = check_sparse(case, harness, algo, density, &b)? {
            return Ok(CaseOutcome::Skip(reason));
        }
    }

    // Check 5 (opt-in): served replay vs the direct call.
    if harness.serve {
        crate::served::check_served(case, harness)?;
    }

    // Check 6 (opt-in): feedback-enabled replay on a mis-modeled
    // server — corrections may fire, payloads must not move.
    if harness.feedback {
        crate::served::check_feedback(case, harness)?;
    }

    Ok(CaseOutcome::Pass)
}

/// Engine totals and per-stage tallies vs the closed forms.
fn check_dense_model(
    case: &Case,
    device: &kami_gpu_sim::DeviceSpec,
    algo: Algo,
    prm: &ModelParams,
    report: &kami_gpu_sim::ExecutionReport,
) -> Result<(), Mismatch> {
    let (m, n, k, p) = (case.m, case.n, case.k, case.warps);

    // Total communication: exact (Formulas 4/8/12).
    let theory = cycles::t_all_comm(algo, m, n, k, p, prm);
    let measured = report.totals.comm;
    if (measured - theory).abs() > 1e-6 * (1.0 + theory) {
        return Err(fail(
            CheckKind::EngineVsModel,
            format!(
                "{} total comm cycles {measured:.3} != closed form {theory:.3} \
                 (Formulas 4/8/12)",
                algo.label()
            ),
        ));
    }

    // Per-stage communication: exact (Formulas 2/6/10).
    let stages = algo
        .stages(p)
        .map_err(|e| fail(CheckKind::EngineVsModel, format!("stages({p}): {e}")))?;
    let per_stage = report.comm_stage_cycles();
    if per_stage.len() != stages {
        return Err(fail(
            CheckKind::EngineVsModel,
            format!(
                "{} emitted {} comm stages, model says {stages}",
                algo.label(),
                per_stage.len()
            ),
        ));
    }
    let t_cm = cycles::t_cm_per_stage(algo, m, n, k, p, prm);
    for (i, &s) in per_stage.iter().enumerate() {
        if (s - t_cm).abs() > 1e-6 * (1.0 + t_cm) {
            return Err(fail(
                CheckKind::EngineVsModel,
                format!(
                    "{} stage {i} comm cycles {s:.3} != per-stage closed form {t_cm:.3} \
                     (Formulas 2/6/10)",
                    algo.label()
                ),
            ));
        }
    }

    // Compute: bracketed (padding and busiest-warp effects only add).
    // The upper bound scales by the padding inflation of one per-warp
    // per-stage fragment at the device's native MMA shape — 1 for
    // shapes that fill the instruction, but e.g. a (4 × 48 × 4)
    // 1D fragment on a m16n16k16 device legitimately charges 16× the
    // useful flops, well past the plain 8× slack.
    let t_cp = cycles::t_all_compute(m, n, k, prm);
    let (mf, nf, kf) = match algo {
        Algo::OneD => (m / p, n, k / p),
        Algo::TwoD => {
            let q = (p as f64).sqrt().round() as usize;
            (m / q, n / q, k / q)
        }
        Algo::ThreeD => {
            let q = (p as f64).cbrt().round() as usize;
            (m / q, n / q, k / (q * q))
        }
    };
    let inflation = match kami_gpu_sim::shape_for(device, case.precision) {
        Some(shape) if mf > 0 && nf > 0 && kf > 0 => {
            shape.padded_flops(mf, nf, kf) as f64 / (2.0 * (mf * nf * kf) as f64)
        }
        _ => 1.0,
    };
    let upper = t_cp * 8.0 * inflation.max(1.0) + 128.0;
    let measured = report.totals.compute;
    if measured < t_cp - 1e-6 || measured > upper {
        return Err(fail(
            CheckKind::EngineVsModel,
            format!(
                "{} compute cycles {measured:.3} outside [{t_cp:.3}, {upper:.3}]",
                algo.label()
            ),
        ));
    }
    Ok(())
}

/// ExecParity, the one comparison: `legacy` (the interleaved oracle)
/// against `split(backend)` for **every** [`BackendKind`]. Output bits,
/// the full report, and any error must all be identical — zero
/// tolerance, since the backend seam promises bit-exactness including
/// accumulation order.
fn check_parity(
    what: &str,
    legacy: &Result<GemmResult, KamiError>,
    split: impl Fn(BackendKind) -> Result<GemmResult, KamiError>,
) -> Result<(), Mismatch> {
    for backend in BackendKind::ALL {
        let detail = match (legacy, &split(backend)) {
            (Ok(l), Ok(s)) => {
                let diff = s.c.max_abs_diff(&l.c);
                let l_rep = serde_json::to_string(&l.report).unwrap_or_default();
                let s_rep = serde_json::to_string(&s.report).unwrap_or_default();
                if diff != 0.0 {
                    format!(
                        "{what} split ({backend}) output differs from legacy by {diff:.3e} \
                         (must be bit-identical)"
                    )
                } else if l_rep != s_rep {
                    format!("{what} split ({backend}) report diverges from the legacy run")
                } else {
                    continue;
                }
            }
            (Err(le), Err(se)) if format!("{le:?}") == format!("{se:?}") => continue,
            (Err(le), Err(se)) => {
                format!("{what} legacy error `{le}` != split ({backend}) error `{se}`")
            }
            (Ok(_), Err(e)) => {
                format!("{what} legacy engine ran but split ({backend}) failed: {e}")
            }
            (Err(e), Ok(_)) => {
                format!("{what} split ({backend}) ran but legacy engine failed: {e}")
            }
        };
        return Err(fail(CheckKind::ExecParity, detail));
    }
    Ok(())
}

/// Split-engine parity of the plain product: `gemm_cost` +
/// `gemm_execute_plan_with` (the plan → cost → execute pipeline)
/// against `gemm_legacy` (the interleaved engine).
fn check_exec_parity(
    case: &Case,
    cfg: &KamiConfig,
    algo: Algo,
    a: &Matrix,
    b: &Matrix,
) -> Result<(), Mismatch> {
    let device = case.device.spec();
    check_parity(
        algo.label(),
        &gemm_legacy(&device, cfg, a, b, CStore::Plain),
        |backend| {
            gemm_cost(&device, cfg, case.m, case.n, case.k)
                .and_then(|plan| gemm_execute_plan_with(&device, &plan, a, b, backend))
        },
    )
}

/// The fused-epilogue plane, three seams at once:
///
/// * **Numerics** — `gemm_fused` vs the plain product plus
///   [`Epilogue::apply_reference`]: bias/ReLU bit-identical, GELU and
///   softmax-scale within the precision-derived Frobenius tolerance.
/// * **EngineVsModel** — the fused-minus-plain report deltas vs the
///   `model::epilogue` closed forms: extra gmem read bytes always
///   exact, the cycle delta exact under [`CostMode::Serial`] (the
///   `Overlap` max() can legitimately swallow the surcharge).
/// * **ExecParity** — `gemm_legacy` with the fused store (interleaved
///   engine) vs the split fused path: identical bits, identical report.
fn check_epilogue(
    case: &Case,
    cfg: &KamiConfig,
    algo: Algo,
    kind: EpilogueKind,
    a: &Matrix,
    b: &Matrix,
) -> Result<CaseOutcome, Mismatch> {
    let device = case.device.spec();
    let c_prec = kami_core::gemm::c_precision(case.precision);
    let epi = kind.build(case.n, case.data_seed);
    let fused = match gemm_fused(&device, cfg, a, b, &epi) {
        Ok(res) => res,
        // 2D softmax-scale (partial-row tiles) and register-infeasible
        // fused kernels skip through the histogram, never silently.
        Err(e) => return classify(CheckKind::Numerics, "gemm_fused", e),
    };
    let plain = match gemm(&device, cfg, a, b) {
        Ok(res) => res,
        Err(e) => return classify(CheckKind::Numerics, "gemm (plain twin)", e),
    };
    let mut want = plain.c.clone();
    epi.apply_reference(&mut want, c_prec);
    match kind {
        EpilogueKind::Bias | EpilogueKind::Relu => {
            let diff = fused.c.max_abs_diff(&want);
            if diff != 0.0 {
                return Err(fail(
                    CheckKind::Numerics,
                    format!(
                        "{} fused {} differs from plain + reference epilogue by {diff:.3e} \
                         (must be bit-identical)",
                        algo.label(),
                        kind.label()
                    ),
                ));
            }
        }
        EpilogueKind::Gelu | EpilogueKind::SoftmaxScale => {
            let err = frob_diff(&fused.c, &want) / want.frobenius_norm().max(1e-9);
            let tol = numeric_tol(case.precision, case.k);
            if err > tol {
                return Err(fail(
                    CheckKind::Numerics,
                    format!(
                        "{} fused {} rel Frobenius error {err:.3e} > tol {tol:.3e} vs plain + \
                         reference epilogue",
                        algo.label(),
                        kind.label()
                    ),
                ));
            }
        }
    }

    let is_bias = kind == EpilogueKind::Bias;
    let (want_bytes, want_delta) = match (
        epilogue_model::epilogue_gmem_read_bytes(algo, case.n, case.warps, c_prec, is_bias),
        epilogue_model::epilogue_delta_cycles(&device, algo, case.n, case.warps, c_prec, is_bias),
    ) {
        (Some(bytes), Some(delta)) => (bytes, delta),
        _ => {
            return Err(fail(
                CheckKind::EngineVsModel,
                format!(
                    "{} ran a fused {} epilogue the closed forms call unsupported (p = {})",
                    algo.label(),
                    kind.label(),
                    case.warps
                ),
            ))
        }
    };
    let got_bytes = fused.report.gmem_bytes_read as i64 - plain.report.gmem_bytes_read as i64;
    if got_bytes != want_bytes as i64 {
        return Err(fail(
            CheckKind::EngineVsModel,
            format!(
                "{} fused {} reads {got_bytes} extra gmem bytes, closed form says {want_bytes}",
                algo.label(),
                kind.label()
            ),
        ));
    }
    if cfg.cost.mode == CostMode::Serial {
        let got_delta = fused.report.cycles - plain.report.cycles;
        if (got_delta - want_delta).abs() > 1e-6 * (1.0 + want_delta) {
            return Err(fail(
                CheckKind::EngineVsModel,
                format!(
                    "{} fused {} cycle delta {got_delta:.3} != closed form {want_delta:.3}",
                    algo.label(),
                    kind.label()
                ),
            ));
        }
    }

    check_parity(
        &format!("{} fused {}", algo.label(), kind.label()),
        &gemm_legacy(&device, cfg, a, b, CStore::Fused(&epi)),
        |backend| {
            if backend == cfg.backend {
                return Ok(fused.clone());
            }
            gemm_fused(&device, &cfg.clone().with_backend(backend), a, b, &epi)
        },
    )?;
    Ok(CaseOutcome::Pass)
}

/// The tall-skinny k-split path, held to its documented contract:
///
/// * **Numerics** — `gemm_skinny` vs a hand-recomposed oracle (chunk
///   `i` covers A columns `[i·CK, (i+1)·CK)`, partials merge as the
///   pairwise tree, the epilogue applies as the unfused reference):
///   bit-identical. Plain cases additionally hold to the exact-order
///   CPU reference within the k-deep tolerance.
/// * **EngineVsModel** — the report's trailing `⌈log₂ chunks⌉` phases
///   (the synthesized tree fixup) must sum to the `model::skinny`
///   closed form exactly, and `cycles` must equal the full phase sum.
/// * **ExecParity** — routing: a `GemmAuto` request (tall) or the
///   transposed wide entry via `gemm_t` must funnel to the identical
///   bytes and report.
fn check_skinny(
    case: &Case,
    cfg: &KamiConfig,
    wide: bool,
    a: &Matrix,
    b: &Matrix,
) -> Result<CaseOutcome, Mismatch> {
    let device = case.device.spec();
    let c_prec = kami_core::gemm::c_precision(case.precision);
    let epi = case.epilogue.map(|kind| kind.build(case.n, case.data_seed));
    let res = match gemm_skinny(&device, cfg, a, b, epi.as_ref()) {
        Ok(res) => res,
        Err(e) => return classify(CheckKind::Numerics, "gemm_skinny", e),
    };

    let chunks = chunk_count(case.k);
    let mut parts = Vec::with_capacity(chunks);
    for i in 0..chunks {
        let k0 = i * SKINNY_CHUNK_K;
        let ck = SKINNY_CHUNK_K.min(case.k - k0);
        let a_i = a.submatrix(0, k0, case.m, ck);
        let b_i = b.submatrix(k0, 0, ck, case.n);
        match gemm_padded(&device, cfg, &a_i, &b_i) {
            Ok(r) => parts.push(r.c),
            Err(e) => return classify(CheckKind::Numerics, "skinny chunk gemm", e),
        }
    }
    let mut want = combine_partials(parts, c_prec);
    if let Some(epi) = &epi {
        epi.apply_reference(&mut want, c_prec);
    }
    let diff = res.c.max_abs_diff(&want);
    if diff != 0.0 {
        return Err(fail(
            CheckKind::Numerics,
            format!(
                "skinny path differs from the recomposed chunk+tree oracle by {diff:.3e} \
                 (must be bit-identical; epilogue {})",
                case.epilogue.map_or("none", |e| e.label())
            ),
        ));
    }
    if epi.is_none() {
        let reference = reference_gemm(a, b, case.precision);
        let err = frob_diff(&res.c, &reference) / reference.frobenius_norm().max(1e-9);
        let tol = numeric_tol(case.precision, case.k);
        if err > tol {
            return Err(fail(
                CheckKind::Numerics,
                format!("skinny rel Frobenius error {err:.3e} > tol {tol:.3e} vs reference"),
            ));
        }
    }

    // Cost plane: the synthesized fixup phases are the report's suffix.
    let rounds = skinny::tree_depth(chunks);
    let phases = &res.report.phase_costs;
    if phases.len() < rounds {
        return Err(fail(
            CheckKind::EngineVsModel,
            format!(
                "skinny report has {} phases, fewer than the {rounds} tree rounds",
                phases.len()
            ),
        ));
    }
    let mode = res.report.mode;
    let fixup_measured: f64 = phases[phases.len() - rounds..]
        .iter()
        .map(|p| p.cycles(mode))
        .sum();
    let bias_elems = match &epi {
        Some(Epilogue::Bias(_)) => case.n,
        _ => 0,
    };
    let want_fixup = skinny::fixup_cycles(
        &device,
        &cfg.cost,
        case.m,
        case.n,
        chunks,
        c_prec,
        bias_elems,
        u64::from(epi.is_some()),
    )
    .map_err(|e| fail(CheckKind::EngineVsModel, format!("fixup closed form: {e}")))?;
    if (fixup_measured - want_fixup).abs() > 1e-6 * (1.0 + want_fixup) {
        return Err(fail(
            CheckKind::EngineVsModel,
            format!(
                "skinny tree-fixup cycles {fixup_measured:.3} != closed form {want_fixup:.3} \
                 ({chunks} chunks, {rounds} rounds)"
            ),
        ));
    }
    let phase_sum: f64 = phases.iter().map(|p| p.cycles(mode)).sum();
    if (res.report.cycles - phase_sum).abs() > 1e-6 * (1.0 + phase_sum) {
        return Err(fail(
            CheckKind::EngineVsModel,
            format!(
                "skinny report cycles {:.3} != phase sum {phase_sum:.3}",
                res.report.cycles
            ),
        ));
    }

    // Routing parity: every public entry to this regime must land on
    // the same k-split run, bit for bit, report for report.
    let routed = if wide {
        // The wide case hands the operands over transposed; `gemm_t`
        // materializes the transposes and funnels here (no epilogue by
        // construction — the generator never pairs wide with one).
        gemm_t(
            &device,
            cfg,
            MatOp::Transpose,
            &a.transposed(),
            MatOp::Transpose,
            &b.transposed(),
        )
    } else {
        let req = GemmRequest::from_config(
            Op::GemmAuto {
                a: a.clone(),
                b: b.clone(),
            },
            cfg,
        );
        let req = match &epi {
            Some(epi) => req.with_epilogue(epi.clone()),
            None => req,
        };
        req.execute(&device).and_then(|r| r.into_single())
    };
    let entry = if wide { "gemm_t(wide)" } else { "GemmAuto" };
    match routed {
        Ok(r) => {
            let diff = r.c.max_abs_diff(&res.c);
            if diff != 0.0 {
                return Err(fail(
                    CheckKind::ExecParity,
                    format!(
                        "{entry} routing differs from gemm_skinny by {diff:.3e} \
                         (must be bit-identical)"
                    ),
                ));
            }
            let l_rep = serde_json::to_string(&r.report).unwrap_or_default();
            let s_rep = serde_json::to_string(&res.report).unwrap_or_default();
            if l_rep != s_rep {
                return Err(fail(
                    CheckKind::ExecParity,
                    format!("{entry} routed report diverges from the direct skinny run"),
                ));
            }
        }
        Err(e) => {
            return Err(fail(
                CheckKind::ExecParity,
                format!("gemm_skinny ran but the {entry} entry failed: {e}"),
            ))
        }
    }

    // Backend parity on the k-split path itself: every backend's chunk
    // runs and pairwise-tree merge must reproduce the default run bit
    // for bit, report included.
    for backend in BackendKind::ALL {
        if backend == cfg.backend {
            continue;
        }
        let cfg_b = cfg.clone().with_backend(backend);
        match gemm_skinny(&device, &cfg_b, a, b, epi.as_ref()) {
            Ok(r) => {
                let diff = r.c.max_abs_diff(&res.c);
                if diff != 0.0 {
                    return Err(fail(
                        CheckKind::ExecParity,
                        format!(
                            "skinny path on {backend} differs from the default backend by \
                             {diff:.3e} (must be bit-identical)"
                        ),
                    ));
                }
                let l_rep = serde_json::to_string(&r.report).unwrap_or_default();
                let s_rep = serde_json::to_string(&res.report).unwrap_or_default();
                if l_rep != s_rep {
                    return Err(fail(
                        CheckKind::ExecParity,
                        format!("skinny report on {backend} diverges from the default backend"),
                    ));
                }
            }
            Err(e) => {
                return Err(fail(
                    CheckKind::ExecParity,
                    format!("skinny path ran on the default backend but {backend} failed: {e}"),
                ))
            }
        }
    }
    Ok(CaseOutcome::Pass)
}

/// Scheduler self-consistency: the report's aggregate claims must be
/// re-derivable from the per-SM trace it hands back.
fn check_scheduler(
    case: &Case,
    device: &kami_gpu_sim::DeviceSpec,
    plans: &PlanCache,
) -> Result<(), Mismatch> {
    let work = BlockWork::uniform(case.m, case.n, case.k, case.precision, case.batch);
    let (report, trace) = match Scheduler::new(device).run_traced(&work, plans) {
        Ok(out) => out,
        Err(SchedError::Core(KamiError::Sim(_)))
        | Err(SchedError::Core(KamiError::Unsupported { .. }))
        | Err(SchedError::SingleStageStreamK { .. }) => return Ok(()),
        Err(e) => {
            return Err(fail(
                CheckKind::SchedulerTrace,
                format!("scheduler rejected a generated case: {e}"),
            ))
        }
    };

    if report.total_blocks != case.batch {
        return Err(fail(
            CheckKind::SchedulerTrace,
            format!(
                "scheduled {} blocks for a batch of {}",
                report.total_blocks, case.batch
            ),
        ));
    }
    let makespan = report.makespan_cycles;
    let traced = trace.total_cycles();
    if (traced - makespan).abs() > 1e-6 * (1.0 + makespan) {
        return Err(fail(
            CheckKind::SchedulerTrace,
            format!("trace spans {traced:.3} cycles, report claims makespan {makespan:.3}"),
        ));
    }
    if report.utilization > 1.0 + 1e-9 {
        return Err(fail(
            CheckKind::SchedulerTrace,
            format!("utilization {} > 1", report.utilization),
        ));
    }
    let iters: usize = report.per_sm.iter().map(|s| s.k_iters).sum();
    let expect = report.total_blocks * report.k_stages;
    if iters != expect {
        return Err(fail(
            CheckKind::SchedulerTrace,
            format!(
                "k-iteration conservation broken: per-SM sum {iters} != blocks x k_stages {expect}"
            ),
        ));
    }
    for sm in &report.per_sm {
        let mut events: Vec<_> = trace.warp_events(sm.sm).collect();
        events.sort_by(|x, y| x.start.total_cmp(&y.start));
        let mut cursor = 0.0f64;
        let mut busy = 0.0f64;
        for e in &events {
            if e.start < cursor - 1e-6 {
                return Err(fail(
                    CheckKind::SchedulerTrace,
                    format!(
                        "SM {} events overlap: start {:.3} before previous end {cursor:.3}",
                        sm.sm, e.start
                    ),
                ));
            }
            cursor = e.start + e.duration;
            busy += e.duration;
        }
        if (busy - sm.busy_cycles).abs() > 1e-6 * (1.0 + sm.busy_cycles) {
            return Err(fail(
                CheckKind::SchedulerTrace,
                format!(
                    "SM {} trace durations sum to {busy:.3}, report claims busy {:.3}",
                    sm.sm, sm.busy_cycles
                ),
            ));
        }
    }
    Ok(())
}

/// SpMM and SpGEMM against the densified dense reference.
fn check_sparse(
    case: &Case,
    harness: &Harness,
    algo: Algo,
    density: f64,
    b_dense: &Matrix,
) -> Result<CaseOutcome, Mismatch> {
    let device = case.device.spec();
    let cfg = harness.dense_config(case, algo);
    let order = if case.data_seed & 1 == 0 {
        BlockOrder::RowMajor
    } else {
        BlockOrder::ZMorton
    };
    let tol = 2.0 * numeric_tol(case.precision, case.k);

    let a_sp = random_block_sparse(
        case.m,
        case.k,
        SPARSE_BLOCK,
        density,
        order,
        case.data_seed.wrapping_add(7),
    );
    let res = match spmm(&device, &cfg, &a_sp, b_dense) {
        Ok(res) => res,
        Err(e) => return classify(CheckKind::SparseVsDense, "spmm", e),
    };
    let want = reference_spmm(&a_sp, b_dense, case.precision);
    let err = frob_diff(&res.c, &want) / want.frobenius_norm().max(1e-9);
    if err > tol {
        return Err(fail(
            CheckKind::SparseVsDense,
            format!(
                "{} SpMM rel Frobenius error {err:.3e} > tol {tol:.3e} vs densified dense \
                 (density {density})",
                algo.label()
            ),
        ));
    }

    let b_sp = random_block_sparse(
        case.k,
        case.n,
        SPARSE_BLOCK,
        density,
        order,
        case.data_seed.wrapping_add(11),
    );
    let res = match spgemm(&device, &cfg, &a_sp, &b_sp) {
        Ok(res) => res,
        Err(e) => return classify(CheckKind::SparseVsDense, "spgemm", e),
    };
    let want = reference_gemm(&a_sp.to_dense(), &b_sp.to_dense(), case.precision);
    let err = frob_diff(&res.c.to_dense(), &want) / want.frobenius_norm().max(1e-9);
    if err > tol {
        return Err(fail(
            CheckKind::SparseVsDense,
            format!(
                "{} SpGEMM rel Frobenius error {err:.3e} > tol {tol:.3e} vs densified dense \
                 (density {density})",
                algo.label()
            ),
        ));
    }
    Ok(CaseOutcome::Pass)
}

/// Regression-test entry point the shrinker's reproducers call: panics
/// with the mismatch (or the skip reason — a reproducer that cannot run
/// proves nothing, so that is loud too).
pub fn assert_case(case: &Case, harness: &Harness) {
    let plans = PlanCache::new();
    match run_case(case, harness, &plans) {
        Ok(CaseOutcome::Pass) => {}
        Ok(CaseOutcome::Skip(reason)) => {
            panic!("reproducer case {} skipped: {reason}", case.describe())
        }
        Err(m) => panic!("case {} failed {m}", case.describe()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::{AlgoKind, DeviceId};

    #[test]
    fn clean_engine_passes_one_case_per_algo() {
        let plans = PlanCache::new();
        let harness = Harness::default();
        for kind in AlgoKind::ALL {
            let case = Case::generate(DeviceId::Gh200, kind, Precision::Fp16, 5);
            let out = run_case(&case, &harness, &plans);
            assert!(
                matches!(out, Ok(CaseOutcome::Pass)),
                "{}: {:?}",
                case.describe(),
                out.err()
            );
        }
    }

    #[test]
    fn epilogue_cases_pass_clean_for_every_kind() {
        let plans = PlanCache::new();
        let harness = Harness::default();
        // Drive the epilogue seam directly (not via a lucky draw):
        // build a plain 1D case and force each kind through it.
        let mut case = Case::generate(DeviceId::Gh200, AlgoKind::OneD, Precision::Fp16, 5);
        case.alpha = 1.0;
        case.beta = 0.0;
        case.sparsity = None;
        case.batch = 1;
        for kind in EpilogueKind::ALL {
            case.epilogue = Some(kind);
            let out = run_case(&case, &harness, &plans);
            assert!(
                matches!(out, Ok(CaseOutcome::Pass)),
                "{}: {:?}",
                case.describe(),
                out.err()
            );
        }
    }

    #[test]
    fn skinny_cases_pass_clean_with_and_without_epilogue() {
        let plans = PlanCache::new();
        let harness = Harness::default();
        let mut found_epilogue = false;
        for seed in 0..40 {
            let case = Case::generate(DeviceId::Gh200, AlgoKind::Skinny, Precision::Fp16, seed);
            found_epilogue |= case.epilogue.is_some();
            let out = run_case(&case, &harness, &plans);
            assert!(
                matches!(out, Ok(CaseOutcome::Pass)),
                "{}: {:?}",
                case.describe(),
                out.err()
            );
        }
        assert!(found_epilogue, "40 skinny seeds must draw an epilogue");
    }

    #[test]
    fn two_d_softmax_skips_loudly_not_silently() {
        // 2D softmax-scale needs full rows per warp (q = 1); with q > 1
        // the fused path is Unsupported and the check must classify it
        // as a Skip — it lands in the sweep's histogram, not a failure.
        let plans = PlanCache::new();
        let harness = Harness::default();
        let mut case = Case::generate(DeviceId::Gh200, AlgoKind::TwoD, Precision::Fp16, 5);
        assert_eq!(case.warps, 4, "generated 2D case uses q = 2");
        case.alpha = 1.0;
        case.beta = 0.0;
        case.sparsity = None;
        case.batch = 1;
        case.epilogue = Some(EpilogueKind::SoftmaxScale);
        match run_case(&case, &harness, &plans) {
            Ok(CaseOutcome::Skip(reason)) => {
                assert!(reason.contains("softmax"), "skip names the cause: {reason}")
            }
            other => panic!("expected a loud skip, got {other:?}"),
        }
    }

    #[test]
    fn injected_theta_breaks_engine_vs_model() {
        let plans = PlanCache::new();
        let harness = Harness {
            cost: Some(CostConfig {
                theta_r: 0.5,
                ..CostConfig::default()
            }),
            ..Harness::default()
        };
        let case = Case::generate(DeviceId::Gh200, AlgoKind::TwoD, Precision::Fp16, 5);
        let err = run_case(&case, &harness, &plans).expect_err("perturbed engine must mismatch");
        assert_eq!(err.kind, CheckKind::EngineVsModel, "{err}");
    }
}
