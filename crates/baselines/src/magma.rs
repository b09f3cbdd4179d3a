//! MAGMA-style batched comparator (§5.4, Fig 12).
//!
//! MAGMA's batched GEMM uses smaller, small-size-aware tiles than
//! cuBLAS (32×32×16 here), so its padding waste is modest — but every
//! entry still streams its tiles through global memory and re-reads
//! shared memory per step, and its generic CUDA-core inner loops sustain
//! only a fraction of the tensor-core rate (modelled with
//! `mma_efficiency = 0.5`, the FP64 CUDA-core : tensor-core ratio on
//! Hopper). That is why the paper's speedups over MAGMA (10–31× average)
//! are an order of magnitude below those over cuBLAS.

use crate::common::{pad_matrix, round_up, BaselineResult};
use kami_core::error::KamiError;
use kami_core::schedule_cycles;
use kami_gpu_sim::{BlockKernel, CostConfig, DeviceSpec, Engine, GlobalMemory, Matrix, Precision};

/// Small-size-aware tile.
pub const TILE: (usize, usize, usize) = (32, 32, 16);
/// Warps per block.
pub const WARPS: usize = 2;
/// CUDA-core inner loops: half the tensor-core rate.
pub const MMA_EFFICIENCY: f64 = 0.5;
/// Host-side overhead of one batched launch, in microseconds.
pub const LAUNCH_OVERHEAD_US: f64 = 10.0;
/// Per-entry host/driver dispatch cost in microseconds (pointer-array
/// walks, per-matrix setup), amortized beyond [`DISPATCH_AMORTIZE_CAP`]
/// entries when the fused grid takes over. Lighter than cuBLAS's — MAGMA
/// is batched-first — which is why the paper's speedups over MAGMA are an
/// order of magnitude below those over cuBLAS.
pub const DISPATCH_US_PER_ENTRY: f64 = 0.2;
/// Entries beyond this share the dispatch cost of the cap.
pub const DISPATCH_AMORTIZE_CAP: usize = 2000;

/// One MAGMA-style GEMM (padded to the 32³ tile, global-streamed,
/// CUDA-core rate).
pub fn gemm(
    device: &DeviceSpec,
    prec: Precision,
    a: &Matrix,
    b: &Matrix,
) -> Result<BaselineResult, KamiError> {
    let (tm, tn, tk) = TILE;
    let (m, k) = (a.rows(), a.cols());
    let n = b.cols();
    let (mp, np, kp) = (round_up(m, tm), round_up(n, tn), round_up(k, tk));
    let ap = pad_matrix(a, mp, kp);
    let bp = pad_matrix(b, kp, np);

    if device.peak_tflops(prec).is_none() {
        return Err(KamiError::Unsupported {
            detail: format!("{} has no tensor path for {}", device.name, prec.label()),
        });
    }
    let mut gmem = GlobalMemory::new();
    let ab = gmem.upload("A", &ap, prec);
    let bb = gmem.upload("B", &bp, prec);
    let cb = gmem.alloc_zeroed("C", mp, np, prec.accumulator());
    let kernel = build_kernel(prec, mp, np, kp, ab, bb, cb);
    let cost = CostConfig::default().with_mma_efficiency(MMA_EFFICIENCY);
    // Reference Sim backend, as for every baseline (see common.rs).
    let report = Engine::with_cost(device, cost)
        .run_kernel(&kernel, &mut gmem, &kami_gpu_sim::RunOptions::default())?
        .report;
    Ok(BaselineResult {
        c: gmem.download(cb).submatrix(0, 0, m, n),
        report,
        useful_flops: 2 * (m as u64) * (n as u64) * (k as u64),
    })
}

fn build_kernel(
    prec: Precision,
    mp: usize,
    np: usize,
    kp: usize,
    ab: kami_gpu_sim::BufferId,
    bb: kami_gpu_sim::BufferId,
    cb: kami_gpu_sim::BufferId,
) -> BlockKernel {
    let (tm, tn, tk) = TILE;
    let p = WARPS;
    let se = prec.size_bytes();
    let acc = prec.accumulator();
    let strip = tm / p;
    let b_base = tm * tk * se;

    BlockKernel::spmd(p, |i, w| {
        let a_strip = w.frag("aStrip", strip, tk, prec);
        let b_ld = w.frag("bLoad", tk / p, tn, prec);
        let b_tile = w.frag("bTile", tk, tn, prec);
        let c_frag = w.frag("cAcc", strip, tn, acc);

        for ot_r in 0..mp / tm {
            for ot_c in 0..np / tn {
                w.zero_acc(c_frag);
                for kt in 0..kp / tk {
                    let k0 = kt * tk;
                    w.global_load(a_strip, ab, ot_r * tm + i * strip, k0);
                    w.shared_store(a_strip, i * strip * tk * se);
                    w.global_load(b_ld, bb, k0 + i * (tk / p), ot_c * tn);
                    w.shared_store(b_ld, b_base + i * (tk / p) * tn * se);
                    w.barrier();
                    // One MMA per k-tile (tk = 16 = the instruction depth):
                    // re-read both operands from shared memory.
                    w.shared_load(a_strip, i * strip * tk * se);
                    w.shared_load(b_tile, b_base);
                    w.mma(c_frag, a_strip, b_tile);
                    w.barrier();
                }
                w.global_store(c_frag, cb, ot_r * tm + i * strip, ot_c * tn);
                w.barrier();
            }
        }
    })
}

/// Modelled seconds for a uniform batch.
pub fn batched_seconds(
    device: &DeviceSpec,
    prec: Precision,
    m: usize,
    n: usize,
    k: usize,
    batch: usize,
) -> Result<f64, KamiError> {
    let a = Matrix::seeded_uniform(m, k, 0x3A);
    let b = Matrix::seeded_uniform(k, n, 0x3B);
    let one = gemm(device, prec, &a, &b)?;
    let cycles = schedule_cycles(device, one.report.cycles, batch);
    let dispatch = DISPATCH_US_PER_ENTRY * batch.min(DISPATCH_AMORTIZE_CAP) as f64;
    Ok((LAUNCH_OVERHEAD_US + dispatch) * 1e-6 + cycles / device.clock_hz())
}

#[cfg(test)]
mod tests {
    use super::*;
    use kami_core::reference::reference_gemm_f64;
    use kami_gpu_sim::device::gh200;

    #[test]
    fn result_correct() {
        let dev = gh200();
        let a = Matrix::seeded_uniform(48, 48, 7);
        let b = Matrix::seeded_uniform(48, 48, 8);
        let res = gemm(&dev, Precision::Fp64, &a, &b).unwrap();
        let want = reference_gemm_f64(&a, &b);
        assert!(res.c.max_abs_diff(&want) < 1e-10);
    }

    #[test]
    fn less_padding_waste_than_cublas() {
        let dev = gh200();
        let a = Matrix::seeded_uniform(16, 16, 1);
        let b = Matrix::seeded_uniform(16, 16, 2);
        let magma = gemm(&dev, Precision::Fp64, &a, &b).unwrap();
        let cublas = crate::cublas::gemm(&dev, Precision::Fp64, &a, &b).unwrap();
        assert!(magma.report.flops_charged < cublas.report.flops_charged);
        // Ordering the paper measures: KAMI > MAGMA > cuBLAS at 16³.
        assert!(magma.device_tflops(&dev) > cublas.device_tflops(&dev));
    }
}
