//! The unified work-description API (v2): every dense KAMI entry point
//! expressed as one buildable value.
//!
//! A [`GemmRequest`] captures *what* to compute (operands and operation
//! kind) and *how* to compute it (precision, algorithm hint, warps,
//! shared-memory fraction, cost model, backend). Executing one checks
//! that the op supports the request's scalars and epilogue, resolves
//! the configuration (autotuning an unpinned one), and calls the free
//! function that is the routine — [`crate::gemm()`],
//! [`crate::gemm_auto`], [`crate::gemm_padded`], [`crate::gemm_25d`],
//! [`crate::batched_gemm`], [`crate::batched_gemm_varied`] or
//! [`crate::lowrank_gemm`] — so a request and a direct call run the
//! same body. Service layers (kami-serve) queue `GemmRequest`s and
//! coalesce compatible ones into one device-wide work pool.
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
use crate::batched::{batched_gemm, batched_gemm_varied, BatchedResult};
use crate::config::{Algo, KamiConfig};
use crate::epilogue::Epilogue;
use crate::error::KamiError;
use crate::gemm::{exec_auto, exec_direct, gemm_padded, CStore, GemmResult};
use crate::lowrank::lowrank_gemm;
use crate::model::skinny::{is_tall_skinny, SKINNY_CHUNK_K};
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
/// setters; executed with [`GemmRequest::execute`].
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

    /// Build a request from a classic [`KamiConfig`], pinning
    /// algo/warps/fraction/cost/backend so the request resolves to
    /// exactly that configuration.
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
        self.check_support()?;
        let resolve = || self.resolve_config_cached(device, tuner);
        let single = GemmResponse::Single;
        match &self.op {
            Op::Gemm { a, b } | Op::GemmAuto { a, b } => {
                let cfg = resolve()?;
                let zeros;
                let store = match (&self.epilogue, &self.c0) {
                    (Some(epi), _) => CStore::Fused(epi),
                    _ if self.scalars_plain() => CStore::Plain,
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
                    exec_direct(device, &cfg, a, b, store).map(single)
                } else {
                    exec_auto(device, &cfg, a, b, store).map(single)
                }
            }
            Op::GemmPadded { a, b } => gemm_padded(device, &resolve()?, a, b).map(single),
            Op::TwoHalfD { a, b, q, c } => {
                let mut cfg25 = Kami25dConfig::new(*q, *c, self.precision);
                if let Some(cost) = &self.cost {
                    cfg25.cost = cost.clone();
                }
                if let Some(bk) = self.backend {
                    cfg25.backend = bk;
                }
                gemm_25d(device, &cfg25, a, b).map(single)
            }
            Op::Batched { pairs, varied } => {
                let cfg = resolve()?;
                let run = if *varied {
                    batched_gemm_varied
                } else {
                    batched_gemm
                };
                run(device, &cfg, pairs).map(GemmResponse::Batched)
            }
            Op::Lowrank { u, v } => lowrank_gemm(device, &resolve()?, u, v).map(single),
        }
    }

    /// The one support check: whether this op defines the request's
    /// alpha/beta scalars and its fused epilogue. Only strict and auto
    /// block GEMM define either, and a fused epilogue needs a plain
    /// product under it. Padded requests take no epilogue because zero
    /// padding corrupts a row-wise softmax (the padded columns
    /// contribute `exp(0)` mass) and wastes bias reads.
    fn check_support(&self) -> Result<(), KamiError> {
        let scaled = !self.scalars_plain();
        let fused = self.epilogue.is_some();
        let unsupported = |detail: String| Err(KamiError::Unsupported { detail });
        match (&self.op, scaled, fused) {
            (_, false, false) => Ok(()),
            (Op::Gemm { .. } | Op::GemmAuto { .. }, true, true) => unsupported(
                "fused epilogue requires a plain product (alpha = 1, beta = 0, no C0)".into(),
            ),
            (Op::Gemm { .. } | Op::GemmAuto { .. }, ..) => Ok(()),
            (op, true, false) => unsupported(format!(
                "alpha/beta scaling is not defined for {} requests",
                op.label()
            )),
            (op, false, true) => unsupported(format!(
                "fused epilogues are not defined for {} requests",
                op.label()
            )),
            (op, true, true) => unsupported(format!(
                "alpha/beta scaling and fused epilogues are not defined for {} requests",
                op.label()
            )),
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
        // Native execution through the request is bit-identical.
        let native = req.execute(&dev).unwrap().into_single().unwrap();
        let sim = req
            .clone()
            .backend(BackendKind::Sim)
            .execute(&dev)
            .unwrap()
            .into_single()
            .unwrap();
        assert_eq!(native.c.max_abs_diff(&sim.c), 0.0);
    }

    #[test]
    fn unsupported_requests_name_their_cause() {
        let dev = gh200();
        let (a, b) = (Matrix::zeros(16, 16), Matrix::zeros(16, 16));
        let (u, v) = (Matrix::zeros(16, 4), Matrix::zeros(4, 16));
        let pairs = vec![(a.clone(), b.clone())];
        let ops = [
            GemmRequest::gemm_padded(a.clone(), b.clone()),
            GemmRequest::gemm_25d(a.clone(), b.clone(), 2, 2),
            GemmRequest::batched(pairs.clone()),
            GemmRequest::batched_varied(pairs),
            GemmRequest::lowrank(u, v),
        ];
        let scaled = |r: GemmRequest| r.scaled(2.0, 1.0, Matrix::zeros(16, 16));
        let fused = |r: GemmRequest| r.with_epilogue(Epilogue::Relu);
        let mut cases = Vec::new();
        for op in ops {
            cases.push((scaled(op.clone()), "scaling", "epilogue"));
            cases.push((fused(op), "epilogue", "scaling"));
        }
        for op in [
            GemmRequest::gemm(a.clone(), b.clone()),
            GemmRequest::gemm_auto(a, b),
        ] {
            cases.push((fused(scaled(op)), "plain product", "not defined"));
        }
        for (req, names, not) in cases {
            let label = req.op.label();
            match req.execute(&dev) {
                Err(KamiError::Unsupported { detail }) => assert!(
                    detail.contains(names) && !detail.contains(not),
                    "{label}: {detail:?} should name {names:?}, not {not:?}"
                ),
                other => panic!("{label}: expected Unsupported, got {other:?}"),
            }
        }
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
