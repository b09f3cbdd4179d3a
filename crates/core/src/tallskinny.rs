//! The tall-skinny k-split execution path.
//!
//! For `m,n ≤ 64` with `k ≥ 10^4` (and the transposed wide case, which
//! [`crate::gemm::gemm_t`] funnels here), a monolithic KAMI block
//! kernel is register-infeasible: each warp's A slice alone is
//! `m·k/p` elements, two orders of magnitude past the 255-register
//! budget. Following Ernst et al.'s tall-skinny reduction strategies,
//! this path splits k into [`SKINNY_CHUNK_K`]-deep chunks, runs each
//! chunk as an ordinary block GEMM, and merges the partial C tiles
//! with a deterministic pairwise **tree** — the same structure whose
//! cycle accounting lives in [`crate::model::skinny`], so the
//! synthesized fixup phases and the closed forms agree by
//! construction.
//!
//! Numerics contract (what `tests/tallskinny.rs` pins): chunk `i`
//! covers columns `[i·CK, (i+1)·CK)` of A, partials merge pairwise
//! `(0,1), (2,3), …` level by level with one rounding at the output
//! precision per add, and the fused epilogue (if any) applies to the
//! final tile exactly as [`Epilogue::apply_reference`].

use crate::config::KamiConfig;
use crate::epilogue::Epilogue;
use crate::error::KamiError;
use crate::gemm::{c_precision, gemm_padded, product_dims, GemmResult};
pub use crate::model::skinny::{
    chunk_count, is_tall_skinny, SKINNY_CHUNK_K, SKINNY_DIM_MAX, SKINNY_K_MIN,
};
use kami_gpu_sim::cost::{phase_cost, PhaseCost};
use kami_gpu_sim::{DeviceSpec, ExecutionReport, Matrix, Precision};

/// Merge partial C tiles pairwise, level by level (`(0,1), (2,3), …`;
/// an odd survivor passes through), rounding once at `prec` per add.
/// This order is part of the skinny path's public numerics contract.
pub fn combine_partials(mut parts: Vec<Matrix>, prec: Precision) -> Matrix {
    assert!(!parts.is_empty(), "nothing to combine");
    while parts.len() > 1 {
        let mut next = Vec::with_capacity(parts.len().div_ceil(2));
        let mut it = parts.into_iter();
        while let Some(mut acc) = it.next() {
            if let Some(other) = it.next() {
                for (x, y) in acc.as_mut_slice().iter_mut().zip(other.as_slice()) {
                    *x = prec.round(*x + *y);
                }
            }
            next.push(acc);
        }
        parts = next;
    }
    parts.pop().unwrap()
}

/// Run `C = [epilogue](A·B)` through the k-split path: chunked block
/// GEMMs plus a tree fixup. `cfg` must be valid for the *chunk* shape
/// `(m, n, SKINNY_CHUNK_K)` — the request layer resolves it by tuning
/// that shape, since no configuration fits the full one.
///
/// The returned report concatenates every chunk's phases and appends
/// one synthesized phase per fixup round (from
/// [`crate::model::skinny::fixup_phases`]), so `cycles` remains the
/// sum of its `phase_costs` and the golden closed forms can be checked
/// against it exactly.
pub fn gemm_skinny(
    device: &DeviceSpec,
    cfg: &KamiConfig,
    a: &Matrix,
    b: &Matrix,
    epilogue: Option<&Epilogue>,
) -> Result<GemmResult, KamiError> {
    let (m, n, k) = product_dims(a, b)?;
    if let Some(epi) = epilogue {
        epi.validate(n)?;
    }
    let c_prec = c_precision(cfg.precision);
    let chunks = chunk_count(k);

    let mut partials = Vec::with_capacity(chunks);
    let mut phase_costs: Vec<PhaseCost> = Vec::new();
    let mut totals = PhaseCost::default();
    let mut cycles = 0.0;
    let mut flops_charged = 0u64;
    let mut smem_bytes_written = 0u64;
    let mut smem_bytes_read = 0u64;
    let mut smem_extent = 0usize;
    let mut gmem_bytes_read = 0u64;
    let mut gmem_bytes_written = 0u64;
    let mut smem_fraction = cfg.smem_fraction;
    let mut registers_per_warp = Vec::new();

    for i in 0..chunks {
        let k0 = i * SKINNY_CHUNK_K;
        let ck = SKINNY_CHUNK_K.min(k - k0);
        let a_i = a.submatrix(0, k0, m, ck);
        let b_i = b.submatrix(k0, 0, ck, n);
        let res = gemm_padded(device, cfg, &a_i, &b_i)?;
        cycles += res.report.cycles;
        totals.accumulate(&res.report.totals);
        phase_costs.extend_from_slice(&res.report.phase_costs);
        flops_charged += res.report.flops_charged;
        smem_bytes_written += res.report.smem_bytes_written;
        smem_bytes_read += res.report.smem_bytes_read;
        smem_extent = smem_extent.max(res.report.smem_extent);
        gmem_bytes_read += res.report.gmem_bytes_read;
        gmem_bytes_written += res.report.gmem_bytes_written;
        if i == 0 {
            smem_fraction = res.smem_fraction;
            registers_per_warp = res.report.registers_per_warp.clone();
        }
        partials.push(res.c);
    }

    // Tree fixup: merge the partials (numerics) and charge the rounds
    // (cost) from the same single source of truth.
    let mut c = combine_partials(partials, c_prec);
    if let Some(epi) = epilogue {
        epi.apply_reference(&mut c, c_prec);
    }
    let bias_elems = match epilogue {
        Some(Epilogue::Bias(_)) => n,
        _ => 0,
    };
    let epi_reg_ops = u64::from(epilogue.is_some());
    let tile_bytes = (m * n * c_prec.size_bytes()) as u64;
    let merges = chunks.saturating_sub(1) as u64;
    for tally in crate::model::skinny::fixup_phases(m, n, chunks, c_prec, bias_elems, epi_reg_ops) {
        let pc = phase_cost(device, &cfg.cost, &tally)?;
        cycles += pc.cycles(cfg.cost.mode);
        totals.accumulate(&pc);
        phase_costs.push(pc);
    }
    gmem_bytes_read += 2 * tile_bytes * merges + (bias_elems * c_prec.size_bytes()) as u64;
    gmem_bytes_written += tile_bytes * merges;

    Ok(GemmResult {
        c,
        report: ExecutionReport {
            device_name: device.name.clone(),
            warps: cfg.warps,
            mode: cfg.cost.mode,
            phase_costs,
            totals,
            cycles,
            flops_charged,
            smem_bytes_written,
            smem_bytes_read,
            smem_extent,
            gmem_bytes_read,
            gmem_bytes_written,
            registers_per_warp,
        },
        smem_fraction,
        useful_flops: 2 * (m as u64) * (n as u64) * (k as u64),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Algo;
    use crate::reference::reference_gemm;
    use kami_gpu_sim::device::gh200;

    #[test]
    fn skinny_path_matches_reference_numerics() {
        let dev = gh200();
        let cfg = KamiConfig::new(Algo::OneD, Precision::Fp64);
        let a = Matrix::seeded_uniform(16, 8192, 40);
        let b = Matrix::seeded_uniform(8192, 16, 41);
        let res = gemm_skinny(&dev, &cfg, &a, &b, None).unwrap();
        let want = reference_gemm(&a, &b, Precision::Fp64);
        assert!(res.c.rel_frobenius_error(&want) < 1e-10);
        assert_eq!(res.useful_flops, 2 * 16 * 16 * 8192);
    }

    #[test]
    fn report_cycles_equal_phase_sum() {
        let dev = gh200();
        let cfg = KamiConfig::new(Algo::OneD, Precision::Fp16);
        let a = Matrix::seeded_uniform(16, 4096, 42);
        let b = Matrix::seeded_uniform(4096, 16, 43);
        let res = gemm_skinny(&dev, &cfg, &a, &b, None).unwrap();
        let sum: f64 = res
            .report
            .phase_costs
            .iter()
            .map(|p| p.cycles(res.report.mode))
            .sum();
        assert!(
            (res.report.cycles - sum).abs() < 1e-6 * (1.0 + sum),
            "cycles {} != phase sum {sum}",
            res.report.cycles
        );
    }

    #[test]
    fn combine_order_is_the_documented_tree() {
        // 3 partials: (p0 + p1) then (+ p2) — the odd survivor merges
        // at the next level, not serially.
        let p0 = Matrix::from_vec(1, 1, vec![1.0]);
        let p1 = Matrix::from_vec(1, 1, vec![2.0]);
        let p2 = Matrix::from_vec(1, 1, vec![4.0]);
        let c = combine_partials(vec![p0, p1, p2], Precision::Fp64);
        assert_eq!(c.get(0, 0), 7.0);
    }

    #[test]
    fn fused_epilogue_matches_unfused_reference_exactly() {
        let dev = gh200();
        let cfg = KamiConfig::new(Algo::OneD, Precision::Fp16);
        let a = Matrix::seeded_uniform(16, 4096, 50);
        let b = Matrix::seeded_uniform(4096, 16, 51);
        let plain = gemm_skinny(&dev, &cfg, &a, &b, None).unwrap();
        for epi in [
            Epilogue::Bias(Matrix::seeded_uniform(1, 16, 52)),
            Epilogue::Relu,
            Epilogue::Gelu,
            Epilogue::SoftmaxScale(0.125),
        ] {
            let fused = gemm_skinny(&dev, &cfg, &a, &b, Some(&epi)).unwrap();
            let mut want = plain.c.clone();
            epi.apply_reference(&mut want, Precision::Fp16);
            assert_eq!(
                fused.c.max_abs_diff(&want),
                0.0,
                "{} epilogue not bit-identical on the skinny path",
                epi.label()
            );
        }
    }
}
