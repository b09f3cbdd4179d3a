//! Shared plumbing for the baseline GEMM strategies.

use kami_core::error::KamiError;
use kami_gpu_sim::{
    BlockKernel, CostConfig, DeviceSpec, Engine, ExecutionReport, GlobalMemory, Matrix, Precision,
};

/// Output of one baseline block GEMM, mirroring
/// [`kami_core::GemmResult`] so harnesses can treat both uniformly.
#[derive(Debug, Clone)]
pub struct BaselineResult {
    pub c: Matrix,
    pub report: ExecutionReport,
    /// Useful flops of the *logical* problem (`2mnk`), not the padded
    /// work the strategy may perform.
    pub useful_flops: u64,
}

impl BaselineResult {
    /// Block-level TFLOPS (on-chip cycles, useful flops) — directly
    /// comparable with [`kami_core::GemmResult::block_tflops`].
    pub fn block_tflops(&self, device: &DeviceSpec) -> f64 {
        self.report.block_tflops(device, self.useful_flops)
    }

    /// Device-level TFLOPS including global-memory cycles.
    pub fn device_tflops(&self, device: &DeviceSpec) -> f64 {
        self.report.device_tflops(device, self.useful_flops)
    }
}

/// Upload A/B, allocate C, run `build` and package the result.
pub fn run_gemm_kernel(
    device: &DeviceSpec,
    prec: Precision,
    c_prec: Precision,
    a: &Matrix,
    b: &Matrix,
    build: impl FnOnce(
        kami_gpu_sim::BufferId,
        kami_gpu_sim::BufferId,
        kami_gpu_sim::BufferId,
    ) -> BlockKernel,
) -> Result<BaselineResult, KamiError> {
    run_gemm_kernel_with_cost(device, prec, c_prec, CostConfig::default(), a, b, build)
}

/// [`run_gemm_kernel`] with an explicit cost configuration (used by
/// strategies whose inner loops run below the tensor-core rate).
#[allow(clippy::too_many_arguments)]
pub fn run_gemm_kernel_with_cost(
    device: &DeviceSpec,
    prec: Precision,
    c_prec: Precision,
    cost: CostConfig,
    a: &Matrix,
    b: &Matrix,
    build: impl FnOnce(
        kami_gpu_sim::BufferId,
        kami_gpu_sim::BufferId,
        kami_gpu_sim::BufferId,
    ) -> BlockKernel,
) -> Result<BaselineResult, KamiError> {
    let (m, k) = (a.rows(), a.cols());
    let (kb, n) = (b.rows(), b.cols());
    if k != kb {
        return Err(KamiError::ShapeMismatch {
            detail: format!("A is {m}x{k} but B is {kb}x{n}"),
        });
    }
    if device.peak_tflops(prec).is_none() {
        return Err(KamiError::Unsupported {
            detail: format!("{} has no tensor path for {}", device.name, prec.label()),
        });
    }
    let mut gmem = GlobalMemory::new();
    let ab = gmem.upload("A", a, prec);
    let bb = gmem.upload("B", b, prec);
    let cb = gmem.alloc_zeroed("C", m, n, c_prec);
    let kernel = build(ab, bb, cb);
    // Baselines pin the reference Sim backend deliberately: they are the
    // comparison yardstick for KAMI's own runs and carry no KamiConfig
    // that could select anything else.
    let report = Engine::with_cost(device, cost)
        .run_kernel(&kernel, &mut gmem, &kami_gpu_sim::RunOptions::default())?
        .report;
    Ok(BaselineResult {
        c: gmem.download(cb),
        report,
        useful_flops: 2 * (m as u64) * (n as u64) * (k as u64),
    })
}

/// Round `x` up to a multiple of `d`.
pub fn round_up(x: usize, d: usize) -> usize {
    x.div_ceil(d) * d
}

/// Zero-pad `m` to `rows×cols`.
pub fn pad_matrix(m: &Matrix, rows: usize, cols: usize) -> Matrix {
    let mut out = Matrix::zeros(rows, cols);
    out.set_submatrix(0, 0, m);
    out
}
