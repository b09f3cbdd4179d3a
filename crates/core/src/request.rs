//! The unified work-description API (v2): every dense KAMI entry point
//! expressed as one buildable value.
//!
//! A [`GemmRequest`] captures *what* to compute (operands and operation
//! kind), *how* to compute it (precision, algorithm hint, warps, shared-
//! memory fraction, cost model), and *under which service constraints*
//! (target device, deadline in simulated cycles). The classic free
//! functions — [`crate::gemm()`], [`crate::gemm_auto`],
//! [`crate::gemm_padded`], [`crate::batched_gemm`],
//! [`crate::lowrank_gemm`] — are thin wrappers that construct a
//! `GemmRequest` and execute it, so every call site in the workspace
//! goes through this single path. Service layers (kami-serve) queue
//! `GemmRequest`s directly and coalesce compatible ones into one
//! device-wide work pool.
//!
//! ```
//! use kami_core::request::GemmRequest;
//! use kami_gpu_sim::{device, Matrix, Precision};
//!
//! let dev = device::gh200();
//! let a = Matrix::seeded_uniform(64, 64, 1);
//! let b = Matrix::seeded_uniform(64, 64, 2);
//! let res = GemmRequest::gemm(a, b)
//!     .precision(Precision::Fp16)
//!     .execute(&dev)
//!     .unwrap()
//!     .into_single()
//!     .unwrap();
//! println!("{:.0} cycles", res.report.cycles);
//! ```

use crate::algo25d::{gemm_25d, Kami25dConfig};
use crate::batched::{exec_batched_gemm, exec_batched_gemm_varied, BatchedResult};
use crate::config::{Algo, KamiConfig};
use crate::epilogue::Epilogue;
use crate::error::KamiError;
use crate::gemm::{exec_auto, exec_direct, exec_gemm_padded, CStore, GemmResult};
use crate::lowrank::exec_lowrank_gemm;
use crate::model::skinny::{is_tall_skinny, SKINNY_CHUNK_K};
use crate::plan::{gemm_cost, gemm_cost_auto, gemm_execute_plan_with, GemmPlan};
use crate::tune::SharedTuner;
use kami_gpu_sim::{BackendKind, CostConfig, DeviceSpec, Matrix, Precision};

/// The operation a [`GemmRequest`] describes.
#[derive(Debug, Clone)]
pub enum Op {
    /// Strict block GEMM: dimensions must divide the partition grid.
    Gemm { a: Matrix, b: Matrix },
    /// Block GEMM with the §4.7 preset-ratio fallback ladder.
    GemmAuto { a: Matrix, b: Matrix },
    /// Arbitrary dimensions: zero-pad to the grid, crop the result.
    GemmPadded { a: Matrix, b: Matrix },
    /// The 2.5D replicated-layer algorithm on a `q×q×c` warp grid.
    TwoHalfD {
        a: Matrix,
        b: Matrix,
        q: usize,
        c: usize,
    },
    /// Many independent products launched as one workload. `varied`
    /// selects the ragged-batch path (per-entry padding + LPT packing).
    Batched {
        pairs: Vec<(Matrix, Matrix)>,
        varied: bool,
    },
    /// Low-rank product `U·V` with `k ≤ MAX_LOW_RANK`.
    Lowrank { u: Matrix, v: Matrix },
}

impl Op {
    /// Short label for traces and metrics.
    pub fn label(&self) -> &'static str {
        match self {
            Op::Gemm { .. } => "gemm",
            Op::GemmAuto { .. } => "gemm_auto",
            Op::GemmPadded { .. } => "gemm_padded",
            Op::TwoHalfD { .. } => "gemm_25d",
            Op::Batched { .. } => "batched_gemm",
            Op::Lowrank { .. } => "lowrank_gemm",
        }
    }
}

/// Result of executing a [`GemmRequest`]: single-block ops return a
/// [`GemmResult`], batched ops a [`BatchedResult`].
#[derive(Debug, Clone)]
pub enum GemmResponse {
    Single(GemmResult),
    Batched(BatchedResult),
}

impl GemmResponse {
    /// Unwrap the single-block result.
    pub fn into_single(self) -> Result<GemmResult, KamiError> {
        match self {
            GemmResponse::Single(r) => Ok(r),
            GemmResponse::Batched(_) => Err(KamiError::Unsupported {
                detail: "batched request produced a BatchedResult, not a GemmResult".into(),
            }),
        }
    }

    /// Unwrap the batched result.
    pub fn into_batched(self) -> Result<BatchedResult, KamiError> {
        match self {
            GemmResponse::Batched(r) => Ok(r),
            GemmResponse::Single(_) => Err(KamiError::Unsupported {
                detail: "single request produced a GemmResult, not a BatchedResult".into(),
            }),
        }
    }

    /// Modelled device cycles of the execution (block cycles for single
    /// ops, scheduled total for batches).
    pub fn cycles(&self) -> f64 {
        match self {
            GemmResponse::Single(r) => r.report.cycles,
            GemmResponse::Batched(r) => r.total_cycles,
        }
    }

    /// Useful flops of the logical problem(s).
    pub fn useful_flops(&self) -> u64 {
        match self {
            GemmResponse::Single(r) => r.useful_flops,
            GemmResponse::Batched(r) => r.useful_flops,
        }
    }
}

/// A self-contained description of one GEMM work item.
///
/// Built with the `GemmRequest::gemm` / `gemm_auto` / `gemm_padded` /
/// `gemm_25d` / `batched` / `lowrank` constructors plus chainable
/// setters; executed with [`GemmRequest::execute`] (explicit device) or
/// [`GemmRequest::run`] (device attached via [`GemmRequest::on_device`]).
#[derive(Debug, Clone)]
pub struct GemmRequest {
    /// What to compute.
    pub op: Op,
    /// BLAS `alpha` (product scale). Defaults to 1.
    pub alpha: f64,
    /// BLAS `beta` (accumulate scale). Defaults to 0.
    pub beta: f64,
    /// The `C0` operand blended in when `beta != 0`.
    pub c0: Option<Matrix>,
    /// Fused epilogue applied to the product inside the kernel's store
    /// phase (plain products only: `alpha = 1`, `beta = 0`, no `C0`).
    pub epilogue: Option<Epilogue>,
    /// Input precision of the operands.
    pub precision: Precision,
    /// Algorithm hint; `None` autotunes over every valid candidate.
    pub algo: Option<Algo>,
    /// Warp-count override (otherwise the algorithm/tuner default).
    pub warps: Option<usize>,
    /// `smem_fraction` override.
    pub smem_fraction: Option<f64>,
    /// Cost-model override (fault injection, overlap mode, ...).
    pub cost: Option<CostConfig>,
    /// Execution-backend override (numerics only; plans, cost reports,
    /// and results are identical across backends). `None` keeps the
    /// resolved configuration's backend.
    pub backend: Option<BackendKind>,
    /// Device the request is destined for (used by [`GemmRequest::run`]
    /// and by service layers for placement).
    pub device: Option<DeviceSpec>,
    /// End-to-end service deadline in simulated device cycles,
    /// charged from the clock at admission — retries and backoff
    /// parking all spend this same budget. `None` = best effort.
    pub deadline_cycles: Option<f64>,
}

impl GemmRequest {
    fn new(op: Op, precision: Precision) -> Self {
        GemmRequest {
            op,
            alpha: 1.0,
            beta: 0.0,
            c0: None,
            epilogue: None,
            precision,
            algo: None,
            warps: None,
            smem_fraction: None,
            cost: None,
            backend: None,
            device: None,
            deadline_cycles: None,
        }
    }

    /// Strict block GEMM `C = A·B` (defaults: FP16, autotuned algo).
    pub fn gemm(a: Matrix, b: Matrix) -> Self {
        Self::new(Op::Gemm { a, b }, Precision::Fp16)
    }

    /// Block GEMM with the register→shared-memory fallback ladder.
    pub fn gemm_auto(a: Matrix, b: Matrix) -> Self {
        Self::new(Op::GemmAuto { a, b }, Precision::Fp16)
    }

    /// Arbitrary-size GEMM (zero-pad + crop).
    pub fn gemm_padded(a: Matrix, b: Matrix) -> Self {
        Self::new(Op::GemmPadded { a, b }, Precision::Fp16)
    }

    /// 2.5D GEMM on a `q×q×c` warp grid.
    pub fn gemm_25d(a: Matrix, b: Matrix, q: usize, c: usize) -> Self {
        Self::new(Op::TwoHalfD { a, b, q, c }, Precision::Fp16)
    }

    /// Uniform batched GEMM.
    pub fn batched(pairs: Vec<(Matrix, Matrix)>) -> Self {
        Self::new(
            Op::Batched {
                pairs,
                varied: false,
            },
            Precision::Fp16,
        )
    }

    /// Ragged batched GEMM (per-entry padding, LPT packing).
    pub fn batched_varied(pairs: Vec<(Matrix, Matrix)>) -> Self {
        Self::new(
            Op::Batched {
                pairs,
                varied: true,
            },
            Precision::Fp16,
        )
    }

    /// Low-rank product `U·V`.
    pub fn lowrank(u: Matrix, v: Matrix) -> Self {
        Self::new(Op::Lowrank { u, v }, Precision::Fp16)
    }

    /// Build a request from a classic [`KamiConfig`] — the bridge used
    /// by the wrapper functions, pinning algo/warps/fraction/cost so the
    /// request resolves to exactly that configuration.
    pub fn from_config(op: Op, cfg: &KamiConfig) -> Self {
        let mut r = Self::new(op, cfg.precision);
        r.algo = Some(cfg.algo);
        r.warps = Some(cfg.warps);
        r.smem_fraction = Some(cfg.smem_fraction);
        r.cost = Some(cfg.cost.clone());
        r.backend = Some(cfg.backend);
        r
    }

    /// Set the operand precision.
    pub fn precision(mut self, p: Precision) -> Self {
        self.precision = p;
        self
    }

    /// Pin the algorithm (skips autotuning).
    pub fn algo(mut self, algo: Algo) -> Self {
        self.algo = Some(algo);
        self
    }

    /// Override the warp count `p`.
    pub fn warps(mut self, warps: usize) -> Self {
        self.warps = Some(warps);
        self
    }

    /// Override the shared-memory slicing fraction.
    pub fn smem_fraction(mut self, f: f64) -> Self {
        self.smem_fraction = Some(f);
        self
    }

    /// Override the cost-model parameters.
    pub fn cost(mut self, cost: CostConfig) -> Self {
        self.cost = Some(cost);
        self
    }

    /// Override the execution backend for the execute pass.
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.backend = Some(backend);
        self
    }

    /// BLAS scaling: `C = alpha·A·B + beta·C0`.
    pub fn scaled(mut self, alpha: f64, beta: f64, c0: Matrix) -> Self {
        self.alpha = alpha;
        self.beta = beta;
        self.c0 = Some(c0);
        self
    }

    /// Scale the product only (`beta = 0`, no `C0` read).
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Fuse an [`Epilogue`] into the kernel's store phase.
    pub fn with_epilogue(mut self, epilogue: Epilogue) -> Self {
        self.epilogue = Some(epilogue);
        self
    }

    /// Attach the destination device.
    pub fn on_device(mut self, device: DeviceSpec) -> Self {
        self.device = Some(device);
        self
    }

    /// End-to-end service deadline in simulated cycles, charged from
    /// admission across every retry.
    pub fn deadline(mut self, cycles: f64) -> Self {
        self.deadline_cycles = Some(cycles);
        self
    }

    /// Logical `(m, n, k)` of the (first) problem.
    pub fn shape(&self) -> (usize, usize, usize) {
        match &self.op {
            Op::Gemm { a, b }
            | Op::GemmAuto { a, b }
            | Op::GemmPadded { a, b }
            | Op::TwoHalfD { a, b, .. } => (a.rows(), b.cols(), a.cols()),
            Op::Batched { pairs, .. } => pairs
                .first()
                .map(|(a, b)| (a.rows(), b.cols(), a.cols()))
                .unwrap_or((0, 0, 0)),
            Op::Lowrank { u, v } => (u.rows(), v.cols(), u.cols()),
        }
    }

    /// Independent device blocks this request contributes to a work pool.
    pub fn block_count(&self) -> usize {
        match &self.op {
            Op::Batched { pairs, .. } => pairs.len().max(1),
            _ => 1,
        }
    }

    /// Whether the request is a plain product: no alpha/beta scaling
    /// and no fused epilogue. Service layers use this to gate the
    /// cached-plan fast path, so it must reflect *everything* that can
    /// change the kernel.
    pub fn is_plain(&self) -> bool {
        self.scalars_plain() && self.epilogue.is_none()
    }

    /// Whether the BLAS scalars are trivial (`alpha = 1`, `beta = 0`,
    /// no `C0`) — the precondition for a fused epilogue.
    fn scalars_plain(&self) -> bool {
        self.alpha == 1.0 && self.beta == 0.0 && self.c0.is_none()
    }

    /// Whether this request routes to the tall-skinny k-split path
    /// (which tunes the chunk shape — no monolithic configuration fits
    /// the full one). Strict `Op::Gemm` is never rerouted.
    pub fn is_skinny(&self) -> bool {
        if !matches!(self.op, Op::GemmAuto { .. } | Op::GemmPadded { .. }) || !self.scalars_plain()
        {
            return false;
        }
        let (m, n, k) = self.shape();
        is_tall_skinny(m, n, k)
    }

    /// Content fingerprint of the epilogue for cache/coalescing keys
    /// (0 = no epilogue).
    pub fn epilogue_fingerprint(&self) -> u64 {
        self.epilogue.as_ref().map_or(0, |e| e.fingerprint())
    }

    /// The shape the autotuner should optimize: the full problem, or —
    /// on the skinny path — one k-chunk of it, since no monolithic
    /// configuration fits the full k.
    fn tuning_shape(&self) -> (usize, usize, usize) {
        let (m, n, k) = self.shape();
        if self.is_skinny() {
            (m, n, SKINNY_CHUNK_K.min(k))
        } else {
            (m, n, k)
        }
    }

    /// Resolve the effective block configuration on `device`: the hint
    /// if pinned, otherwise the autotuner's winner, with the explicit
    /// warp/fraction/cost overrides applied on top. Skinny requests
    /// tune the chunk shape (see [`GemmRequest::is_skinny`]).
    pub fn resolve_config(&self, device: &DeviceSpec) -> Result<KamiConfig, KamiError> {
        self.resolve_config_cached(device, &SharedTuner::new())
    }

    /// Like [`GemmRequest::resolve_config`], but serve the autotuning
    /// sweep from a shared shape-keyed cache — service layers resolving
    /// many requests of the same shape class tune once and reuse the
    /// winner.
    pub fn resolve_config_cached(
        &self,
        device: &DeviceSpec,
        tuner: &SharedTuner,
    ) -> Result<KamiConfig, KamiError> {
        let cfg = match self.algo {
            Some(algo) => KamiConfig::new(algo, self.precision),
            None => {
                let (m, n, k) = self.tuning_shape();
                tuner.config_for(device, m, n, k, self.precision)?.cfg
            }
        };
        Ok(self.apply_overrides(cfg))
    }

    /// The dense operand pair of a pass-level request, or a typed error
    /// for op kinds the split cost/execute pipeline does not describe
    /// (batched, 2.5D, low-rank) and for non-plain requests (the plan's
    /// kernel is the plain product — alpha/beta and epilogues change it).
    fn plan_operands(&self) -> Result<(&Matrix, &Matrix), KamiError> {
        if !self.is_plain() {
            return Err(KamiError::Unsupported {
                detail: "pass-level entry points describe plain products only \
                     (alpha = 1, beta = 0, no C0, no epilogue)"
                    .into(),
            });
        }
        match &self.op {
            Op::Gemm { a, b } | Op::GemmAuto { a, b } => Ok((a, b)),
            other => Err(KamiError::Unsupported {
                detail: format!(
                    "pass-level entry points cover strict/auto block GEMM, not {}",
                    other.label()
                ),
            }),
        }
    }

    /// Cost pass only — the request-driven twin of
    /// [`crate::gemm_cost`]: resolve the configuration on `device`
    /// (honoring every override, including [`GemmRequest::backend`])
    /// and charge cycles for the request's shape class without touching
    /// operand values. The returned [`GemmPlan`] feeds
    /// [`GemmRequest::execute_with_plan`] or any shared plan cache.
    pub fn cost_plan(&self, device: &DeviceSpec) -> Result<GemmPlan, KamiError> {
        self.plan_operands()?;
        let (m, n, k) = self.shape();
        let cfg = self.resolve_config(device)?;
        gemm_cost(device, &cfg, m, n, k)
    }

    /// [`GemmRequest::cost_plan`] with the §4.7 preset-ratio fallback
    /// ladder — the request-driven twin of [`crate::gemm_cost_auto`].
    pub fn cost_plan_auto(&self, device: &DeviceSpec) -> Result<GemmPlan, KamiError> {
        self.plan_operands()?;
        let (m, n, k) = self.shape();
        let cfg = self.resolve_config(device)?;
        gemm_cost_auto(device, &cfg, m, n, k)
    }

    /// Execute pass only — the request-driven twin of
    /// [`crate::gemm_execute_plan`]: run this request's operands
    /// through a previously costed plan. The request's
    /// [`GemmRequest::backend`] override, when set, takes precedence
    /// over the plan's own, so one cached plan serves executors with
    /// different backend choices.
    pub fn execute_with_plan(
        &self,
        device: &DeviceSpec,
        plan: &GemmPlan,
    ) -> Result<GemmResult, KamiError> {
        let (a, b) = self.plan_operands()?;
        let backend = self.backend.unwrap_or(plan.cfg.backend);
        gemm_execute_plan_with(device, plan, a, b, backend)
    }

    /// The explicit warp/fraction/cost/backend overrides, applied on
    /// top of a resolved base configuration.
    fn apply_overrides(&self, mut cfg: KamiConfig) -> KamiConfig {
        cfg.precision = self.precision;
        if let Some(w) = self.warps {
            cfg.warps = w;
        }
        if let Some(f) = self.smem_fraction {
            cfg.smem_fraction = f;
        }
        if let Some(c) = &self.cost {
            cfg.cost = c.clone();
        }
        if let Some(bk) = self.backend {
            cfg.backend = bk;
        }
        cfg
    }

    /// Execute on `device`, returning a [`GemmResponse`]. Tunes afresh;
    /// callers executing many requests share a cache through
    /// [`GemmRequest::execute_with_tuner`].
    pub fn execute(&self, device: &DeviceSpec) -> Result<GemmResponse, KamiError> {
        self.execute_with_tuner(device, &SharedTuner::new())
    }

    /// [`GemmRequest::execute`] resolving an unpinned configuration
    /// through `tuner`, so every request of a shape class after the
    /// first skips the sweep. The result is identical either way:
    /// tuning is deterministic per shape class.
    pub fn execute_with_tuner(
        &self,
        device: &DeviceSpec,
        tuner: &SharedTuner,
    ) -> Result<GemmResponse, KamiError> {
        match &self.op {
            Op::Batched { pairs, varied } => {
                if !self.is_plain() {
                    return Err(KamiError::Unsupported {
                        detail: "alpha/beta scaling is not defined for batched requests".into(),
                    });
                }
                let cfg = self.resolve_config_cached(device, tuner)?;
                let res = if *varied {
                    exec_batched_gemm_varied(device, &cfg, pairs)?
                } else {
                    exec_batched_gemm(device, &cfg, pairs)?
                };
                Ok(GemmResponse::Batched(res))
            }
            _ => self.execute_one(device, tuner).map(GemmResponse::Single),
        }
    }

    /// Execute a single-block request (everything except `Op::Batched`).
    pub fn execute_single(&self, device: &DeviceSpec) -> Result<GemmResult, KamiError> {
        self.execute_one(device, &SharedTuner::new())
    }

    fn execute_one(
        &self,
        device: &DeviceSpec,
        tuner: &SharedTuner,
    ) -> Result<GemmResult, KamiError> {
        if self.epilogue.is_some() && !self.scalars_plain() {
            return Err(KamiError::Unsupported {
                detail: "fused epilogue requires a plain product (alpha = 1, beta = 0, no C0)"
                    .into(),
            });
        }
        let plain = self.is_plain();
        let resolve = || self.resolve_config_cached(device, tuner);
        match &self.op {
            Op::Gemm { a, b } | Op::GemmAuto { a, b } => {
                let cfg = resolve()?;
                let zeros;
                let store = match (&self.epilogue, &self.c0) {
                    (Some(epi), _) => CStore::Fused(epi),
                    _ if plain => CStore::Plain,
                    (None, c0) => CStore::Scaled {
                        alpha: self.alpha,
                        beta: self.beta,
                        // Only alpha was set: C0 is zeros of the output shape.
                        c0: match c0 {
                            Some(c0) => c0,
                            None => {
                                zeros = Matrix::zeros(a.rows(), b.cols());
                                &zeros
                            }
                        },
                    },
                };
                if matches!(self.op, Op::Gemm { .. }) {
                    exec_direct(device, &cfg, a, b, store)
                } else {
                    exec_auto(device, &cfg, a, b, store)
                }
            }
            Op::GemmPadded { a, b } => {
                if self.epilogue.is_some() {
                    // Zero padding corrupts a row-wise softmax (the
                    // padded columns contribute exp(0) mass) and wastes
                    // bias reads; keep the support matrix honest.
                    return Err(KamiError::Unsupported {
                        detail: "fused epilogues are not defined for padded requests".into(),
                    });
                }
                if !plain {
                    return Err(KamiError::Unsupported {
                        detail: "alpha/beta scaling is not defined for padded requests".into(),
                    });
                }
                let cfg = resolve()?;
                exec_gemm_padded(device, &cfg, a, b)
            }
            Op::TwoHalfD { a, b, q, c } => {
                if !plain {
                    return Err(KamiError::Unsupported {
                        detail: "alpha/beta scaling and fused epilogues are not defined for 2.5D \
                             requests"
                            .into(),
                    });
                }
                let mut cfg25 = Kami25dConfig::new(*q, *c, self.precision);
                if let Some(cost) = &self.cost {
                    cfg25.cost = cost.clone();
                }
                if let Some(bk) = self.backend {
                    cfg25.backend = bk;
                }
                gemm_25d(device, &cfg25, a, b)
            }
            Op::Lowrank { u, v } => {
                if !plain {
                    return Err(KamiError::Unsupported {
                        detail: "alpha/beta scaling is not defined for low-rank requests".into(),
                    });
                }
                let cfg = resolve()?;
                exec_lowrank_gemm(device, &cfg, u, v)
            }
            Op::Batched { .. } => Err(KamiError::Unsupported {
                detail: "batched request cannot produce a single GemmResult".into(),
            }),
        }
    }

    /// Execute on the attached device ([`GemmRequest::on_device`]).
    pub fn run(&self) -> Result<GemmResponse, KamiError> {
        match &self.device {
            Some(dev) => {
                let dev = dev.clone();
                self.execute(&dev)
            }
            None => Err(KamiError::MissingDevice),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_gemm;
    use kami_gpu_sim::device::gh200;

    #[test]
    fn builder_matches_direct_call() {
        let dev = gh200();
        let a = Matrix::seeded_uniform(32, 32, 7);
        let b = Matrix::seeded_uniform(32, 32, 8);
        let cfg = KamiConfig::new(Algo::TwoD, Precision::Fp64);
        let direct = crate::gemm::gemm(&dev, &cfg, &a, &b).unwrap();
        let via = GemmRequest::gemm(a.clone(), b.clone())
            .precision(Precision::Fp64)
            .algo(Algo::TwoD)
            .execute(&dev)
            .unwrap()
            .into_single()
            .unwrap();
        assert_eq!(via.c.max_abs_diff(&direct.c), 0.0);
        assert_eq!(via.report.cycles, direct.report.cycles);
    }

    #[test]
    fn autotuned_request_runs_without_hint() {
        let dev = gh200();
        let a = Matrix::seeded_uniform(32, 32, 9);
        let b = Matrix::seeded_uniform(32, 32, 10);
        let res = GemmRequest::gemm_auto(a.clone(), b.clone())
            .precision(Precision::Fp64)
            .execute(&dev)
            .unwrap()
            .into_single()
            .unwrap();
        let want = reference_gemm(&a, &b, Precision::Fp64);
        assert!(res.c.max_abs_diff(&want) < 1e-12);
    }

    #[test]
    fn scaled_request_applies_epilogue() {
        let dev = gh200();
        let a = Matrix::seeded_uniform(16, 16, 11);
        let b = Matrix::seeded_uniform(16, 16, 12);
        let c0 = Matrix::seeded_uniform(16, 16, 13);
        let via = GemmRequest::gemm(a.clone(), b.clone())
            .precision(Precision::Fp64)
            .algo(Algo::OneD)
            .scaled(2.0, -1.0, c0.clone())
            .execute(&dev)
            .unwrap()
            .into_single()
            .unwrap();
        let cfg = KamiConfig::new(Algo::OneD, Precision::Fp64);
        let direct = crate::gemm::gemm_scaled(&dev, &cfg, 2.0, &a, &b, -1.0, &c0).unwrap();
        assert_eq!(via.c.max_abs_diff(&direct.c), 0.0);
    }

    #[test]
    fn pass_level_twins_match_free_functions() {
        let dev = gh200();
        let a = Matrix::seeded_uniform(32, 32, 21);
        let b = Matrix::seeded_uniform(32, 32, 22);
        let req = GemmRequest::gemm(a.clone(), b.clone())
            .precision(Precision::Fp16)
            .algo(Algo::TwoD);
        let plan = req.cost_plan(&dev).unwrap();
        let cfg = req.resolve_config(&dev).unwrap();
        let direct = crate::plan::gemm_cost(&dev, &cfg, 32, 32, 32).unwrap();
        assert_eq!(
            serde_json::to_string(&plan.report).unwrap(),
            serde_json::to_string(&direct.report).unwrap()
        );
        let via = req.execute_with_plan(&dev, &plan).unwrap();
        let free = crate::plan::gemm_execute_plan(&dev, &direct, &a, &b).unwrap();
        assert_eq!(via.c.max_abs_diff(&free.c), 0.0);
        // The auto twin escalates like the free ladder.
        let big = GemmRequest::gemm(
            Matrix::seeded_uniform(128, 128, 23),
            Matrix::seeded_uniform(128, 128, 24),
        )
        .precision(Precision::Fp16)
        .algo(Algo::OneD);
        let auto = big.cost_plan_auto(&dev).unwrap();
        assert!(auto.smem_fraction > 0.0);
    }

    #[test]
    fn backend_override_flows_into_resolved_config_and_plan_execute() {
        use kami_gpu_sim::BackendKind;
        let dev = gh200();
        let a = Matrix::seeded_uniform(32, 32, 25);
        let b = Matrix::seeded_uniform(32, 32, 26);
        let req = GemmRequest::gemm(a.clone(), b.clone())
            .precision(Precision::Fp16)
            .algo(Algo::TwoD)
            .backend(BackendKind::Native);
        assert_eq!(
            req.resolve_config(&dev).unwrap().backend,
            BackendKind::Native
        );
        // from_config pins the source configuration's backend.
        let cfg = KamiConfig::new(Algo::TwoD, Precision::Fp16).with_backend(BackendKind::Native);
        let pinned = GemmRequest::from_config(
            Op::Gemm {
                a: a.clone(),
                b: b.clone(),
            },
            &cfg,
        );
        assert_eq!(pinned.backend, Some(BackendKind::Native));
        // Native execution through the request twins is bit-identical.
        let plan = req.cost_plan(&dev).unwrap();
        let native = req.execute_with_plan(&dev, &plan).unwrap();
        let sim = req
            .clone()
            .backend(BackendKind::Sim)
            .execute_with_plan(&dev, &plan)
            .unwrap();
        assert_eq!(native.c.max_abs_diff(&sim.c), 0.0);
    }

    #[test]
    fn pass_level_twins_reject_unsupported_ops() {
        let dev = gh200();
        let req = GemmRequest::lowrank(Matrix::zeros(16, 4), Matrix::zeros(4, 16));
        assert!(matches!(
            req.cost_plan(&dev),
            Err(KamiError::Unsupported { .. })
        ));
        let scaled = GemmRequest::gemm(Matrix::zeros(16, 16), Matrix::zeros(16, 16)).scaled(
            2.0,
            1.0,
            Matrix::zeros(16, 16),
        );
        assert!(matches!(
            scaled.cost_plan_auto(&dev),
            Err(KamiError::Unsupported { .. })
        ));
    }

    #[test]
    fn run_without_device_is_typed_error() {
        let r = GemmRequest::gemm(Matrix::zeros(16, 16), Matrix::zeros(16, 16));
        assert!(matches!(r.run(), Err(KamiError::MissingDevice)));
    }

    #[test]
    fn response_accessors_guard_variants() {
        let dev = gh200();
        let pairs = vec![(
            Matrix::seeded_uniform(16, 16, 1),
            Matrix::seeded_uniform(16, 16, 2),
        )];
        let resp = GemmRequest::batched(pairs)
            .precision(Precision::Fp64)
            .algo(Algo::OneD)
            .execute(&dev)
            .unwrap();
        assert!(resp.cycles() > 0.0);
        assert!(resp.clone().into_batched().is_ok());
        assert!(resp.into_single().is_err());
    }
}
