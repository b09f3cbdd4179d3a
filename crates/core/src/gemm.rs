//! The block-GEMM driver: every dense KAMI kernel is staged, run and
//! finished here.
//!
//! `A·B`, `alpha·A·B + beta·C0` ([`gemm_scaled`]) and a fused
//! [`Epilogue`] ([`gemm_fused`]) differ only in the kernel's C store,
//! which a [`CStore`] names. One driver serves all three:
//!
//! 1. *stage* — upload A and B, declare C the way the store needs it
//!    (the single C-initialisation decision: `beta = 0` never reads
//!    `C0`), build the 1D/2D/3D kernel, and rewrite its trailing C
//!    stores for the store with one walker;
//! 2. *run* — [`Engine::run_kernel`] (the split plan → cost → execute
//!    pipeline on `cfg.backend`), or [`Engine::run`] (the interleaved
//!    oracle) through [`gemm_legacy`];
//! 3. *finish* — download C into a [`GemmResult`].
//!
//! The cached-plan path ([`crate::gemm_execute_plan_with`]), 2.5D
//! ([`crate::gemm_25d`]) and the low-rank column-split kernel
//! ([`crate::lowrank_gemm_colsplit`]) reuse the same staging and
//! finishing steps. 2D, 3D and 2.5D kernels all come from one
//! [`LayeredGrid`] builder; the column-split kernel has its own.
//!
//! The public functions here are the routines themselves, not wrappers:
//! a [`crate::GemmRequest`] only resolves its configuration and calls
//! them.
//!
//! [`gemm_auto`] wraps the driver in the paper's preset-ratio fallback
//! (§4.7/§5.2.5): if the requested configuration exceeds the
//! 255-registers-per-thread limit, it escalates `smem_fraction` through
//! [`FALLBACK_FRACTIONS`] until the kernel fits, and routes tall-skinny
//! shapes to the k-split path first. [`gemm_padded`] accepts arbitrary
//! dimensions by zero-padding to the partition grid and cropping the
//! result.

use crate::algo1d;
use crate::config::{Algo, KamiConfig};
use crate::epilogue::Epilogue;
use crate::error::KamiError;
use crate::grid::LayeredGrid;
use crate::tallskinny::{gemm_skinny, is_tall_skinny};
use kami_gpu_sim::{
    BlockKernel, BufferId, DeviceSpec, Engine, ExecutionReport, FragDecl, GlobalMemory, Matrix, Op,
    Precision, RunOptions, SimError,
};

/// Output of one block GEMM.
#[derive(Debug, Clone)]
pub struct GemmResult {
    /// The product `C = A·B` (at the configuration's C precision).
    pub c: Matrix,
    /// Cycle/traffic/register report of the block kernel.
    pub report: ExecutionReport,
    /// `smem_fraction` actually used (differs from the request when
    /// [`gemm_auto`] escalated).
    pub smem_fraction: f64,
    /// Useful flops of the logical problem (`2·m·n·k`), for TFLOPS math.
    pub useful_flops: u64,
}

impl GemmResult {
    /// Block-level TFLOPS on `device` (paper's Fig 8 metric: on-chip
    /// cycles only, useful flops only).
    pub fn block_tflops(&self, device: &DeviceSpec) -> f64 {
        self.report.block_tflops(device, self.useful_flops)
    }
}

/// C-fragment precision for an input precision: the paper stores C at the
/// operand precision (its §4.7 register accounting counts C like A and B),
/// accumulating each MMA internally at the hardware accumulator precision.
pub fn c_precision(input: Precision) -> Precision {
    input
}

/// What a block GEMM's C store writes — the one thing that differs
/// between [`gemm`], [`gemm_scaled`] and [`gemm_fused`].
#[derive(Debug, Clone, Copy)]
pub enum CStore<'a> {
    /// `C = A·B`.
    Plain,
    /// BLAS scaling: `C = alpha·A·B + beta·C0`.
    Scaled {
        alpha: f64,
        beta: f64,
        c0: &'a Matrix,
    },
    /// `C = epilogue(A·B)`, fused into the store phase.
    Fused(&'a Epilogue),
}

impl CStore<'_> {
    /// The one C-store walker: insert this store's register ops before
    /// every store to `c_buf`, while the tile is still in registers (the
    /// `model::epilogue` closed forms account exactly these ops).
    ///
    /// An accumulate store (a cross-layer reduction) takes only the
    /// `alpha` scale — its `beta` term is already in C — and cannot
    /// host an epilogue, since the function of a partial sum is not the
    /// partial sum of the function. Row-wise softmax needs each stored
    /// fragment to span full logical rows of C (true on 1D; false on 2D
    /// with `q > 1`).
    fn rewrite(
        self,
        kernel: &mut BlockKernel,
        c_buf: BufferId,
        bias_buf: Option<BufferId>,
        n: usize,
        c_prec: Precision,
    ) -> Result<(), KamiError> {
        if matches!(self, CStore::Plain) {
            return Ok(());
        }
        for w in &mut kernel.warps {
            let ops = std::mem::take(&mut w.ops);
            let mut new_ops = Vec::with_capacity(ops.len() + 8);
            for op in ops {
                let Op::GlobalStore {
                    src,
                    buf,
                    row0,
                    col0,
                    accumulate,
                } = op
                else {
                    new_ops.push(op);
                    continue;
                };
                if buf != c_buf {
                    new_ops.push(op);
                    continue;
                }
                let (rows, cols) = (w.frags[src].rows, w.frags[src].cols);
                match self {
                    CStore::Plain => {}
                    CStore::Scaled { alpha, beta, .. } => {
                        if alpha != 1.0 {
                            new_ops.push(Op::Scale {
                                frag: src,
                                factor: alpha,
                            });
                        }
                        if !accumulate && beta != 0.0 {
                            // Blend with the previous C window in registers.
                            w.frags.push(FragDecl::new("CPrev", rows, cols, c_prec));
                            let prev = w.frags.len() - 1;
                            new_ops.push(Op::GlobalLoad {
                                dst: prev,
                                buf,
                                row0,
                                col0,
                            });
                            if beta != 1.0 {
                                new_ops.push(Op::Scale {
                                    frag: prev,
                                    factor: beta,
                                });
                            }
                            new_ops.push(Op::AddAssign {
                                dst: src,
                                src: prev,
                            });
                        }
                    }
                    CStore::Fused(epilogue) => {
                        if accumulate {
                            return Err(KamiError::Unsupported {
                                detail: format!(
                                    "{} epilogue cannot fuse into an accumulate store \
                                     (3D cross-layer reduction)",
                                    epilogue.label()
                                ),
                            });
                        }
                        if let Some(bias_buf) = bias_buf {
                            // Load the bias columns under this warp's C
                            // tile and broadcast-add them in registers.
                            w.frags.push(FragDecl::new("BiasRow", 1, cols, c_prec));
                            let bias_frag = w.frags.len() - 1;
                            new_ops.push(Op::GlobalLoad {
                                dst: bias_frag,
                                buf: bias_buf,
                                row0: 0,
                                col0,
                            });
                            new_ops.push(Op::AddRowBroadcast {
                                dst: src,
                                src: bias_frag,
                            });
                        }
                        if let Some(func) = epilogue.unary_func() {
                            if matches!(func, kami_gpu_sim::UnaryFunc::Softmax { .. })
                                && (cols != n || col0 != 0)
                            {
                                return Err(KamiError::Unsupported {
                                    detail: format!(
                                        "softmax-scale epilogue needs full C rows in registers; \
                                         this kernel stores {cols}-column tiles at column \
                                         {col0} (n = {n})"
                                    ),
                                });
                            }
                            new_ops.push(Op::Unary { frag: src, func });
                        }
                    }
                }
                new_ops.push(op);
            }
            w.ops = new_ops;
        }
        Ok(())
    }
}

/// A block GEMM ready to run: operands uploaded, C declared, kernel
/// built with its C stores rewritten.
pub(crate) struct Staged {
    pub(crate) gmem: GlobalMemory,
    pub(crate) kernel: BlockKernel,
    c_buf: BufferId,
    useful_flops: u64,
}

impl Staged {
    /// Download C into a [`GemmResult`] carrying `report`.
    pub(crate) fn finish(self, report: ExecutionReport, smem_fraction: f64) -> GemmResult {
        GemmResult {
            c: self.gmem.download(self.c_buf),
            report,
            smem_fraction,
            useful_flops: self.useful_flops,
        }
    }
}

/// `(m, n, k)` of `A·B`, or a shape error when the inner dimensions
/// disagree.
pub(crate) fn product_dims(a: &Matrix, b: &Matrix) -> Result<(usize, usize, usize), KamiError> {
    let (m, k) = (a.rows(), a.cols());
    let (kb, n) = (b.rows(), b.cols());
    if k != kb {
        return Err(KamiError::ShapeMismatch {
            detail: format!("A is {m}x{k} but B is {kb}x{n}"),
        });
    }
    Ok((m, n, k))
}

/// Stage one block GEMM — the single place operands are uploaded and C
/// is declared: upload `a` and `b` at `prec`, declare C as `store`
/// needs it, build the kernel with `build(A, B, C, c_prec)`, and rewrite
/// its C stores for `store`. `reduces` says the kernel sums layer
/// partials into C with accumulate stores (KAMI-3D).
pub(crate) fn stage(
    prec: Precision,
    a: &Matrix,
    b: &Matrix,
    store: CStore<'_>,
    reduces: bool,
    build: impl FnOnce(BufferId, BufferId, BufferId, Precision) -> BlockKernel,
) -> Result<Staged, KamiError> {
    let (m, n, k) = (a.rows(), b.cols(), a.cols());
    let c_prec = c_precision(prec);
    let mut gmem = GlobalMemory::new();
    let ab = gmem.upload("A", a, prec);
    let bb = gmem.upload("B", b, prec);
    // The C-initialisation decision. beta = 0 never reads C0 (BLAS: it
    // may hold NaN). A reducing kernel accumulates alpha-scaled partials
    // onto beta·C0, applying beta once the way split-k fixups do; the
    // others re-read C0 at the store and blend it in registers.
    let cb = match store {
        CStore::Scaled { beta, c0, .. } if beta != 0.0 && reduces => {
            let scaled = Matrix::from_fn(m, n, |r, c| beta * c0[(r, c)]);
            gmem.upload("C", &scaled, c_prec)
        }
        CStore::Scaled { beta, c0, .. } if beta != 0.0 => gmem.upload("C", c0, c_prec),
        _ => gmem.alloc_zeroed("C", m, n, c_prec),
    };
    let bias_buf = match store {
        CStore::Fused(Epilogue::Bias(bias)) => Some(gmem.upload("Bias", bias, c_prec)),
        _ => None,
    };
    let mut kernel = build(ab, bb, cb, c_prec);
    store.rewrite(&mut kernel, cb, bias_buf, n, c_prec)?;
    Ok(Staged {
        gmem,
        kernel,
        c_buf: cb,
        useful_flops: 2 * (m as u64) * (n as u64) * (k as u64),
    })
}

/// Build the algorithm kernel for one block GEMM over the buffers `ab`,
/// `bb` and `cb` (the single place the 1D/2D/3D dispatch lives). `cfg`
/// must be valid for `(m, n, k)`, as [`KamiConfig::validate`] checks.
#[allow(clippy::too_many_arguments)]
pub fn build_gemm_kernel(
    cfg: &KamiConfig,
    m: usize,
    n: usize,
    k: usize,
    ab: BufferId,
    bb: BufferId,
    cb: BufferId,
    c_prec: Precision,
) -> BlockKernel {
    match cfg.algo {
        Algo::OneD => algo1d::build_kernel(cfg, m, n, k, ab, bb, cb, c_prec),
        Algo::TwoD | Algo::ThreeD => LayeredGrid::of(cfg).build_kernel(m, n, k, ab, bb, cb, c_prec),
    }
}

/// The block-GEMM driver: check shapes, validate `cfg`, stage the
/// kernel for `store`, run it with `run`, and download C. A scaled store
/// with `alpha == 0` prices the `beta·C0` epilogue without a kernel.
fn drive(
    device: &DeviceSpec,
    cfg: &KamiConfig,
    a: &Matrix,
    b: &Matrix,
    store: CStore<'_>,
    run: impl FnOnce(&Engine, &BlockKernel, &mut GlobalMemory) -> Result<ExecutionReport, SimError>,
) -> Result<GemmResult, KamiError> {
    let (m, n, k) = product_dims(a, b)?;
    if let CStore::Scaled { c0, .. } = store {
        if (c0.rows(), c0.cols()) != (m, n) {
            return Err(KamiError::ShapeMismatch {
                detail: format!("C0 is {}x{} but A·B is {m}x{n}", c0.rows(), c0.cols()),
            });
        }
    }
    cfg.validate(device, m, n, k)?;
    match store {
        CStore::Scaled {
            alpha: 0.0,
            beta,
            c0,
        } => return gemm_beta_only(device, cfg, beta, c0),
        CStore::Fused(epilogue) => epilogue.validate(n)?,
        _ => {}
    }
    let reduces = cfg.algo == Algo::ThreeD;
    let mut s = stage(cfg.precision, a, b, store, reduces, |ab, bb, cb, c_prec| {
        build_gemm_kernel(cfg, m, n, k, ab, bb, cb, c_prec)
    })?;
    let report = run(
        &Engine::with_cost(device, cfg.cost.clone()),
        &s.kernel,
        &mut s.gmem,
    )?;
    Ok(s.finish(report, cfg.smem_fraction))
}

/// The strict block GEMM for any [`CStore`]: the driver on the split
/// plan → cost → execute pipeline, on `cfg.backend`. [`gemm`],
/// [`gemm_scaled`] and [`gemm_fused`] are this call with their store.
pub(crate) fn exec_direct(
    device: &DeviceSpec,
    cfg: &KamiConfig,
    a: &Matrix,
    b: &Matrix,
    store: CStore<'_>,
) -> Result<GemmResult, KamiError> {
    let opts = RunOptions::default().with_backend(cfg.backend);
    drive(device, cfg, a, b, store, |engine, kernel, gmem| {
        Ok(engine.run_kernel(kernel, gmem, &opts)?.report)
    })
}

/// One block GEMM with any [`CStore`] on the legacy interleaved engine.
/// Exists so the differential harness (`kami-verify`'s `ExecParity`)
/// can hold the two interpreters together on real workloads; everything
/// else goes through the split pipeline.
pub fn gemm_legacy(
    device: &DeviceSpec,
    cfg: &KamiConfig,
    a: &Matrix,
    b: &Matrix,
    store: CStore<'_>,
) -> Result<GemmResult, KamiError> {
    drive(device, cfg, a, b, store, |engine, kernel, gmem| {
        engine.run(kernel, gmem)
    })
}

/// [`exec_direct`] under the §4.7 fallback ladder ([`gemm_auto`] with
/// any [`CStore`]). Tall-skinny shapes (including the transposed wide
/// case arriving via [`gemm_t`]) route to the k-split path unless the
/// store is scaled — no monolithic configuration fits them, so the
/// ladder alone could only fail.
pub(crate) fn exec_auto(
    device: &DeviceSpec,
    cfg: &KamiConfig,
    a: &Matrix,
    b: &Matrix,
    store: CStore<'_>,
) -> Result<GemmResult, KamiError> {
    let skinny = a.cols() == b.rows() && is_tall_skinny(a.rows(), b.cols(), a.cols());
    match store {
        CStore::Plain if skinny => gemm_skinny(device, cfg, a, b, None),
        CStore::Fused(epi) if skinny => gemm_skinny(device, cfg, a, b, Some(epi)),
        _ => run_fallback_ladder(cfg, |c| exec_direct(device, c, a, b, store)),
    }
}

/// Run one KAMI block GEMM: `C = A·B` with `A: m×k`, `B: k×n`.
pub fn gemm(
    device: &DeviceSpec,
    cfg: &KamiConfig,
    a: &Matrix,
    b: &Matrix,
) -> Result<GemmResult, KamiError> {
    exec_direct(device, cfg, a, b, CStore::Plain)
}

/// Full BLAS-style GEMM: `C = alpha·A·B + beta·C0`.
///
/// The epilogue runs inside the kernel for 1D/2D (each warp scales its
/// accumulator by `alpha`, re-reads its `C0` window, scales by `beta`,
/// adds, and stores — the extra global traffic and register ops are
/// charged); the 3D cross-layer reduction accumulates `alpha`-scaled
/// partials onto a `beta`-prescaled buffer (the `beta` pass is applied at
/// upload, the way split-k reduction kernels handle it).
///
/// Per BLAS, `alpha == 0` must not read `A` or `B` (NaN/Inf in them must
/// not poison `C`): that case short-circuits to the `beta·C0` epilogue
/// without building the product kernel. Likewise `beta == 0` never
/// reads `C0`, on every algorithm.
pub fn gemm_scaled(
    device: &DeviceSpec,
    cfg: &KamiConfig,
    alpha: f64,
    a: &Matrix,
    b: &Matrix,
    beta: f64,
    c0: &Matrix,
) -> Result<GemmResult, KamiError> {
    exec_direct(device, cfg, a, b, CStore::Scaled { alpha, beta, c0 })
}

/// The `alpha == 0` epilogue: `C = beta·C0` without touching `A`/`B`.
/// Values follow the device rounding chain (`C0` quantized at upload,
/// scaled, quantized at store); `beta == 0` does not read `C0` either
/// (cuBLAS semantics: `C0` may be garbage). The report charges only the
/// epilogue's global traffic — no shared memory, no tensor-core flops.
fn gemm_beta_only(
    device: &DeviceSpec,
    cfg: &KamiConfig,
    beta: f64,
    c0: &Matrix,
) -> Result<GemmResult, KamiError> {
    use kami_gpu_sim::cost::{phase_cost, PhaseTally};
    let (m, n) = (c0.rows(), c0.cols());
    let c_prec = c_precision(cfg.precision);
    let c = if beta == 0.0 {
        Matrix::zeros(m, n)
    } else {
        let q0 = c0.quantized(c_prec);
        Matrix::from_fn(m, n, |r, col| c_prec.round(beta * q0[(r, col)]))
    };
    let c_bytes = (m * n * c_prec.size_bytes()) as u64;
    let read = if beta == 0.0 { 0 } else { c_bytes };
    let tally = PhaseTally {
        gmem_bytes: read + c_bytes,
        has_gmem_load: beta != 0.0,
        ..Default::default()
    };
    let pc = phase_cost(device, &cfg.cost, &tally)?;
    let report = ExecutionReport {
        device_name: device.name.clone(),
        warps: cfg.warps,
        mode: cfg.cost.mode,
        phase_costs: vec![pc],
        totals: pc,
        cycles: pc.cycles(cfg.cost.mode),
        flops_charged: 0,
        smem_bytes_written: 0,
        smem_bytes_read: 0,
        smem_extent: 0,
        gmem_bytes_read: read,
        gmem_bytes_written: c_bytes,
        registers_per_warp: vec![],
    };
    Ok(GemmResult {
        c,
        report,
        smem_fraction: cfg.smem_fraction,
        // No multiplications are performed (or charged) when alpha = 0.
        useful_flops: 0,
    })
}

/// `C = epilogue(A·B)` with the epilogue fused into the kernel's store
/// phase (no second global round trip). See [`Epilogue`] for the
/// numerics contract per function.
pub fn gemm_fused(
    device: &DeviceSpec,
    cfg: &KamiConfig,
    a: &Matrix,
    b: &Matrix,
    epilogue: &Epilogue,
) -> Result<GemmResult, KamiError> {
    exec_direct(device, cfg, a, b, CStore::Fused(epilogue))
}

/// Operand orientation, cuBLAS-style (`CUBLAS_OP_N` / `CUBLAS_OP_T`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatOp {
    /// Use the matrix as stored.
    None,
    /// Use the transpose.
    Transpose,
}

impl MatOp {
    fn apply(self, m: &Matrix) -> Matrix {
        match self {
            MatOp::None => m.clone(),
            MatOp::Transpose => m.transposed(),
        }
    }
}

/// cuBLAS-style GEMM with operand orientations:
/// `C = op_a(A) · op_b(B)`.
///
/// Transposition is a host-side layout transformation performed at
/// upload (the simulator's global buffers are plain row-major; a device
/// kernel would fold the same transformation into its load addressing).
pub fn gemm_t(
    device: &DeviceSpec,
    cfg: &KamiConfig,
    op_a: MatOp,
    a: &Matrix,
    op_b: MatOp,
    b: &Matrix,
) -> Result<GemmResult, KamiError> {
    let at = op_a.apply(a);
    let bt = op_b.apply(b);
    gemm_auto(device, cfg, &at, &bt)
}

/// The §4.7 fallback ladder: fractions tried, in order, after the
/// requested one.
pub const FALLBACK_FRACTIONS: [f64; 5] = [0.25, 0.5, 0.75, 0.875, 0.9375];

/// Like [`gemm`], but on [`SimError::RegisterOverflow`] escalates
/// `smem_fraction` through [`FALLBACK_FRACTIONS`] until the kernel fits —
/// the preset-ratio behaviour of the paper's implementation.
pub fn gemm_auto(
    device: &DeviceSpec,
    cfg: &KamiConfig,
    a: &Matrix,
    b: &Matrix,
) -> Result<GemmResult, KamiError> {
    exec_auto(device, cfg, a, b, CStore::Plain)
}

/// Run `attempt` at the requested `smem_fraction`, escalating through
/// [`FALLBACK_FRACTIONS`] on register overflow. Generic over the
/// attempt's output so the same §4.7 ladder drives full runs
/// ([`GemmResult`]) and cost-only planning
/// ([`crate::plan::GemmPlan`]).
pub(crate) fn run_fallback_ladder<T>(
    cfg: &KamiConfig,
    mut attempt: impl FnMut(&KamiConfig) -> Result<T, KamiError>,
) -> Result<T, KamiError> {
    let mut last = attempt(cfg);
    if !matches!(last, Err(KamiError::Sim(SimError::RegisterOverflow { .. }))) {
        return last;
    }
    for &f in FALLBACK_FRACTIONS
        .iter()
        .filter(|&&f| f > cfg.smem_fraction)
    {
        let mut c2 = cfg.clone();
        c2.smem_fraction = f;
        last = attempt(&c2);
        if !matches!(last, Err(KamiError::Sim(SimError::RegisterOverflow { .. }))) {
            return last;
        }
    }
    last
}

/// Round `x` up to a multiple of `d`.
fn round_up(x: usize, d: usize) -> usize {
    x.div_ceil(d) * d
}

/// Padded dimensions `(m', n', k')` accepted by `cfg` for an `m×n×k`
/// problem (zero padding does not change the product).
pub fn padded_dims(cfg: &KamiConfig, m: usize, n: usize, k: usize) -> (usize, usize, usize) {
    match cfg.algo {
        Algo::OneD => (round_up(m, cfg.warps), n, round_up(k, cfg.warps)),
        Algo::TwoD => {
            let q = (cfg.warps as f64).sqrt().round() as usize;
            (round_up(m, q), round_up(n, q), round_up(k, q))
        }
        Algo::ThreeD => {
            let q = (cfg.warps as f64).cbrt().round() as usize;
            (round_up(m, q), round_up(n, q), round_up(k, q * q))
        }
    }
}

/// Arbitrary-size GEMM: zero-pads to the partition grid, runs
/// [`gemm_auto`], and crops the result back to `m×n`. The report reflects
/// the padded kernel (as it would on hardware); `useful_flops` still
/// counts only the logical problem.
pub fn gemm_padded(
    device: &DeviceSpec,
    cfg: &KamiConfig,
    a: &Matrix,
    b: &Matrix,
) -> Result<GemmResult, KamiError> {
    let (m, n, k) = product_dims(a, b)?;
    let (mp, np, kp) = padded_dims(cfg, m, n, k);
    if (mp, np, kp) == (m, n, k) {
        return gemm_auto(device, cfg, a, b);
    }
    let mut ap = Matrix::zeros(mp, kp);
    ap.set_submatrix(0, 0, a);
    let mut bp = Matrix::zeros(kp, np);
    bp.set_submatrix(0, 0, b);
    let mut res = gemm_auto(device, cfg, &ap, &bp)?;
    res.c = res.c.submatrix(0, 0, m, n);
    res.useful_flops = 2 * (m as u64) * (n as u64) * (k as u64);
    Ok(res)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_gemm;
    use kami_gpu_sim::device::gh200;

    #[test]
    fn gemm_all_algos_agree_fp64() {
        let dev = gh200();
        let a = Matrix::seeded_uniform(16, 16, 1);
        let b = Matrix::seeded_uniform(16, 16, 2);
        let want = reference_gemm(&a, &b, Precision::Fp64);
        for algo in Algo::ALL {
            let cfg = KamiConfig::new(algo, Precision::Fp64);
            let got = gemm(&dev, &cfg, &a, &b).unwrap();
            assert!(
                got.c.max_abs_diff(&want) < 1e-12,
                "{} diverges",
                algo.label()
            );
        }
    }

    #[test]
    fn invalid_cost_parameters_are_typed_errors() {
        let dev = gh200();
        let a = Matrix::seeded_uniform(16, 16, 1);
        let b = Matrix::seeded_uniform(16, 16, 2);
        let mut cfg = KamiConfig::new(Algo::OneD, Precision::Fp16);
        cfg.cost.theta_r = 0.0;
        assert!(matches!(
            gemm(&dev, &cfg, &a, &b),
            Err(KamiError::Sim(SimError::InvalidCostConfig {
                field: "theta_r",
                ..
            }))
        ));
        let mut cfg = KamiConfig::new(Algo::TwoD, Precision::Fp16);
        cfg.cost.mma_efficiency = f64::NAN;
        assert!(matches!(
            gemm(&dev, &cfg, &a, &b),
            Err(KamiError::Sim(SimError::InvalidCostConfig {
                field: "mma_efficiency",
                ..
            }))
        ));
        // alpha == 0 prices its epilogue without a kernel; same check.
        assert!(matches!(
            gemm_scaled(&dev, &cfg, 0.0, &a, &b, 1.0, &a),
            Err(KamiError::Sim(SimError::InvalidCostConfig { .. }))
        ));
    }

    #[test]
    fn shape_mismatch_rejected() {
        let dev = gh200();
        let cfg = KamiConfig::new(Algo::OneD, Precision::Fp16);
        let a = Matrix::zeros(16, 16);
        let b = Matrix::zeros(8, 16);
        assert!(matches!(
            gemm(&dev, &cfg, &a, &b),
            Err(KamiError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn auto_escalates_smem_fraction_on_register_overflow() {
        let dev = gh200();
        // 128x128 FP16, 4 warps, no parking: A,B,BRecv,C fragments need
        // 4 * 64 = 256 regs/thread > 255 -> must escalate.
        let cfg = KamiConfig::new(Algo::OneD, Precision::Fp16);
        let a = Matrix::seeded_uniform(128, 128, 3);
        let b = Matrix::seeded_uniform(128, 128, 4);
        assert!(matches!(
            gemm(&dev, &cfg, &a, &b),
            Err(KamiError::Sim(SimError::RegisterOverflow { .. }))
        ));
        let res = gemm_auto(&dev, &cfg, &a, &b).unwrap();
        assert!(res.smem_fraction > 0.0, "fraction = {}", res.smem_fraction);
        // Result still correct (vs FP16-stepped reference, loose check).
        let want = reference_gemm(&a, &b, Precision::Fp16);
        assert!(res.c.rel_frobenius_error(&want) < 2e-2);
    }

    #[test]
    fn padded_gemm_handles_odd_sizes() {
        let dev = gh200();
        let cfg = KamiConfig::new(Algo::OneD, Precision::Fp64);
        let a = Matrix::seeded_uniform(10, 7, 5);
        let b = Matrix::seeded_uniform(7, 13, 6);
        let res = gemm_padded(&dev, &cfg, &a, &b).unwrap();
        assert_eq!(res.c.rows(), 10);
        assert_eq!(res.c.cols(), 13);
        let want = reference_gemm(&a, &b, Precision::Fp64);
        assert!(res.c.max_abs_diff(&want) < 1e-12);
        assert_eq!(res.useful_flops, 2 * 10 * 13 * 7);
    }

    #[test]
    fn padded_dims_per_algo() {
        let c1 = KamiConfig::new(Algo::OneD, Precision::Fp16);
        assert_eq!(padded_dims(&c1, 10, 7, 13), (12, 7, 16));
        let c2 = KamiConfig::new(Algo::TwoD, Precision::Fp16);
        assert_eq!(padded_dims(&c2, 10, 7, 13), (10, 8, 14));
        let c3 = KamiConfig::new(Algo::ThreeD, Precision::Fp16);
        assert_eq!(padded_dims(&c3, 10, 7, 13), (10, 8, 16));
    }

    #[test]
    fn transposed_gemm_orientations() {
        let dev = gh200();
        let cfg = KamiConfig::new(Algo::OneD, Precision::Fp64);
        let a = Matrix::seeded_uniform(16, 16, 20);
        let b = Matrix::seeded_uniform(16, 16, 21);
        let want_tn = reference_gemm(&a.transposed(), &b, Precision::Fp64);
        let got = gemm_t(&dev, &cfg, MatOp::Transpose, &a, MatOp::None, &b).unwrap();
        assert!(got.c.max_abs_diff(&want_tn) < 1e-13);
        let want_nt = reference_gemm(&a, &b.transposed(), Precision::Fp64);
        let got = gemm_t(&dev, &cfg, MatOp::None, &a, MatOp::Transpose, &b).unwrap();
        assert!(got.c.max_abs_diff(&want_nt) < 1e-13);
    }

    #[test]
    fn scaled_gemm_matches_blas_semantics() {
        let dev = gh200();
        let (m, n, k) = (16usize, 16usize, 16usize);
        let a = Matrix::seeded_uniform(m, k, 10);
        let b = Matrix::seeded_uniform(k, n, 11);
        let c0 = Matrix::seeded_uniform(m, n, 12);
        let (alpha, beta) = (2.5, -0.75);
        let ab = reference_gemm(&a, &b, Precision::Fp64);
        let want = Matrix::from_fn(m, n, |r, c| alpha * ab[(r, c)] + beta * c0[(r, c)]);
        for algo in Algo::ALL {
            let cfg = KamiConfig::new(algo, Precision::Fp64);
            let res = gemm_scaled(&dev, &cfg, alpha, &a, &b, beta, &c0).unwrap();
            assert!(
                res.c.max_abs_diff(&want) < 1e-12,
                "{} diverges",
                algo.label()
            );
        }
    }

    #[test]
    fn scaled_gemm_beta_zero_equals_plain_scaled() {
        let dev = gh200();
        let a = Matrix::seeded_uniform(16, 16, 13);
        let b = Matrix::seeded_uniform(16, 16, 14);
        let zero = Matrix::zeros(16, 16);
        let cfg = KamiConfig::new(Algo::OneD, Precision::Fp64);
        let plain = gemm(&dev, &cfg, &a, &b).unwrap();
        let scaled = gemm_scaled(&dev, &cfg, 3.0, &a, &b, 0.0, &zero).unwrap();
        let want = Matrix::from_fn(16, 16, |r, c| 3.0 * plain.c[(r, c)]);
        assert!(scaled.c.max_abs_diff(&want) < 1e-12);
        // beta = 0 skips the C re-read: same global read traffic + stores.
        assert!(scaled.report.gmem_bytes_read == plain.report.gmem_bytes_read);
    }

    #[test]
    fn scaled_gemm_charges_the_c_reread() {
        let dev = gh200();
        let a = Matrix::seeded_uniform(16, 16, 15);
        let b = Matrix::seeded_uniform(16, 16, 16);
        let c0 = Matrix::seeded_uniform(16, 16, 17);
        let cfg = KamiConfig::new(Algo::OneD, Precision::Fp64);
        let blend = gemm_scaled(&dev, &cfg, 1.0, &a, &b, 1.0, &c0).unwrap();
        let plain = gemm(&dev, &cfg, &a, &b).unwrap();
        assert!(blend.report.gmem_bytes_read > plain.report.gmem_bytes_read);
    }

    #[test]
    fn scaled_gemm_alpha_zero_ignores_nan_in_a_and_b() {
        let dev = gh200();
        let (m, n, k) = (16usize, 16usize, 16usize);
        // BLAS: alpha = 0 means A and B are not read, so NaN/Inf in
        // them must not poison C. Pre-fix, the kernel still computed
        // A·B and the NaN survived multiplication by alpha = 0.
        let a = Matrix::from_fn(m, k, |_, _| f64::NAN);
        let b = Matrix::from_fn(k, n, |r, c| if r == c { f64::INFINITY } else { 1.0 });
        let c0 = Matrix::seeded_uniform(m, n, 30);
        for algo in Algo::ALL {
            let cfg = KamiConfig::new(algo, Precision::Fp64);
            let res = gemm_scaled(&dev, &cfg, 0.0, &a, &b, -0.75, &c0).unwrap();
            let want = Matrix::from_fn(m, n, |r, c| -0.75 * c0[(r, c)]);
            assert!(
                res.c.max_abs_diff(&want) < 1e-12,
                "{} poisoned by unread operands",
                algo.label()
            );
            // The product was never formed: no flops, no smem traffic.
            assert_eq!(res.report.flops_charged, 0);
            assert_eq!(res.report.comm_volume(), 0);
        }
    }

    #[test]
    fn scaled_gemm_beta_zero_ignores_nan_and_inf_in_c0() {
        let dev = gh200();
        let (m, n, k) = (16usize, 16usize, 16usize);
        // BLAS: beta = 0 means C0 is not read, so NaN/±Inf in it must
        // not poison C on any algorithm. KAMI-3D once uploaded 0·C0 as
        // its accumulate target, and 0·NaN = 0·Inf = NaN.
        let a = Matrix::seeded_uniform(m, k, 33);
        let b = Matrix::seeded_uniform(k, n, 34);
        let ab = reference_gemm(&a, &b, Precision::Fp64);
        let want = Matrix::from_fn(m, n, |r, c| 2.0 * ab[(r, c)]);
        let nan = Matrix::from_fn(m, n, |_, _| f64::NAN);
        let inf = Matrix::from_fn(m, n, |r, c| {
            if (r + c) % 2 == 0 {
                f64::INFINITY
            } else {
                f64::NEG_INFINITY
            }
        });
        for (label, c0) in [("NaN", &nan), ("±Inf", &inf)] {
            for algo in Algo::ALL {
                let cfg = KamiConfig::new(algo, Precision::Fp64);
                let res = gemm_scaled(&dev, &cfg, 2.0, &a, &b, 0.0, c0).unwrap();
                let poisoned = res.c.as_slice().iter().filter(|x| !x.is_finite()).count();
                assert_eq!(poisoned, 0, "{} read {label} from C0", algo.label());
                assert!(
                    res.c.max_abs_diff(&want) < 1e-12,
                    "{} diverges",
                    algo.label()
                );
            }
        }
    }

    #[test]
    fn scaled_gemm_alpha_zero_beta_one_is_noop() {
        let dev = gh200();
        let c0 = Matrix::seeded_uniform(16, 16, 31);
        let cfg = KamiConfig::new(Algo::OneD, Precision::Fp16);
        let a = Matrix::from_fn(16, 16, |_, _| f64::NAN);
        let b = Matrix::seeded_uniform(16, 16, 32);
        let res = gemm_scaled(&dev, &cfg, 0.0, &a, &b, 1.0, &c0).unwrap();
        // C passes through the device rounding chain but beta = 1 adds
        // nothing: bit-exact against the quantized original.
        assert_eq!(
            res.c
                .max_abs_diff(&c0.quantized(c_precision(Precision::Fp16))),
            0.0
        );
        assert_eq!(res.report.flops_charged, 0);
    }

    #[test]
    fn scaled_gemm_shape_mismatch_rejected() {
        let dev = gh200();
        let cfg = KamiConfig::new(Algo::OneD, Precision::Fp64);
        let a = Matrix::zeros(16, 16);
        let b = Matrix::zeros(16, 16);
        let c_bad = Matrix::zeros(8, 16);
        assert!(matches!(
            gemm_scaled(&dev, &cfg, 1.0, &a, &b, 1.0, &c_bad),
            Err(KamiError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn block_tflops_positive_and_finite() {
        let dev = gh200();
        let cfg = KamiConfig::new(Algo::OneD, Precision::Fp16);
        let a = Matrix::seeded_uniform(64, 64, 1);
        let b = Matrix::seeded_uniform(64, 64, 2);
        let res = gemm(&dev, &cfg, &a, &b).unwrap();
        let t = res.block_tflops(&dev);
        assert!(t > 0.0 && t.is_finite());
        // Cannot beat the device peak.
        assert!(t <= dev.peak_tflops(Precision::Fp16).unwrap() * 1.001);
    }
}
