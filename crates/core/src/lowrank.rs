//! Low-rank GEMM (paper §2.1 Fig 1(d), evaluated in §5.3): `C = U·V` with
//! `U: m×k`, `V: k×n` and `k ≪ m, n` (the paper uses k = 16, 32).
//!
//! KAMI's advantage is largest here: staged libraries pay the
//! shared-memory round trip on operands whose reuse a small k cannot
//! amortize, while KAMI loads straight into registers and uses shared
//! memory only for the broadcast (§5.3).
//!
//! ## The column-split kernel
//!
//! Algorithm 1 splits **k** across its stages, which a low-rank k cannot
//! afford: a `k/p` chunk below the 16-deep MMA granularity pads every
//! instruction. The low-rank entry point therefore uses the 1D layout
//! *rotated onto the n dimension*: warp `i` owns the column strips
//! `V[:, i·n/p ..]` and `C[:, i·n/p ..]` with the **full** k in
//! registers, and the `p` stages broadcast the *small* factor's row
//! blocks `U_z` (`m/p × k`) through shared memory:
//!
//! ```text
//! C[z·m/p .., own strip] += U_zRecv · V_own
//! ```
//!
//! k is never split, so the MMA depth stays aligned, and the broadcast
//! volume is `p·mk·s_e` — tiny, because `U` is the thin factor. This is
//! the same compute/communication pattern as Algorithm 1 with the roles
//! of the operands exchanged.

use crate::config::{Algo, KamiConfig};
use crate::error::KamiError;
use crate::gemm::{gemm_auto, stage, CStore, GemmResult};
use crate::layout::{tile_bytes, SmemMap};
use kami_gpu_sim::{BlockKernel, BufferId, DeviceSpec, Engine, Matrix, Precision, RunOptions};

/// Largest inner dimension still considered "low-rank" by this interface
/// (the paper evaluates 16 and 32; 64 is a generous upper bound).
pub const MAX_LOW_RANK: usize = 64;

/// Build the column-split 1D kernel (see module docs).
///
/// Preconditions: `p | m`, `p | n`.
#[allow(clippy::too_many_arguments)]
pub fn build_colsplit_kernel(
    cfg: &KamiConfig,
    m: usize,
    n: usize,
    k: usize,
    a_buf: BufferId,
    b_buf: BufferId,
    c_buf: BufferId,
    c_prec: Precision,
) -> BlockKernel {
    let p = cfg.warps;
    let (mi, ni) = (m / p, n / p);
    let prec = cfg.precision;
    let map = SmemMap::new(1, tile_bytes(mi, k, prec), 0, 0, 0);

    BlockKernel::spmd(p, |i, w| {
        let u_own = w.frag("Ui", mi, k, prec);
        let u_recv = w.frag("URecv", mi, k, prec);
        let v_own = w.frag("Vi", k, ni, prec);
        let c_strips: Vec<usize> = (0..p)
            .map(|z| w.frag(format!("Ci[{z}]"), mi, ni, c_prec))
            .collect();

        w.global_load(u_own, a_buf, i * mi, 0);
        w.global_load(v_own, b_buf, 0, i * ni);
        for &cf in &c_strips {
            w.zero_acc(cf);
        }

        for (z, &c_strip) in c_strips.iter().enumerate() {
            if i == z {
                w.shared_store(u_own, map.a_addr(0));
                w.reg_copy(u_recv, u_own);
            }
            w.barrier();
            if i != z {
                w.shared_load(u_recv, map.a_addr(0));
            }
            w.barrier();
            w.mma(c_strip, u_recv, v_own);
        }

        for (z, &cf) in c_strips.iter().enumerate() {
            w.global_store(cf, c_buf, z * mi, i * ni);
        }
    })
}

/// Run the column-split low-rank kernel directly.
pub fn lowrank_gemm_colsplit(
    device: &DeviceSpec,
    cfg: &KamiConfig,
    u: &Matrix,
    v: &Matrix,
) -> Result<GemmResult, KamiError> {
    let (m, k) = (u.rows(), u.cols());
    let (kv, n) = (v.rows(), v.cols());
    if k != kv {
        return Err(KamiError::ShapeMismatch {
            detail: format!("U is {m}x{k} but V is {kv}x{n}"),
        });
    }
    let p = cfg.warps;
    if m % p != 0 || n % p != 0 {
        return Err(KamiError::Indivisible {
            detail: format!("column-split kernel needs p | m and p | n (got {m}x{n}, p={p})"),
        });
    }
    crate::config::tensor_path(device, cfg.precision)?;
    let mut s = stage(
        cfg.precision,
        u,
        v,
        CStore::Plain,
        false,
        |ab, bb, cb, c_prec| build_colsplit_kernel(cfg, m, n, k, ab, bb, cb, c_prec),
    )?;
    let opts = RunOptions::default().with_backend(cfg.backend);
    let report = Engine::with_cost(device, cfg.cost.clone())
        .run_kernel(&s.kernel, &mut s.gmem, &opts)?
        .report;
    Ok(s.finish(report, cfg.smem_fraction))
}

/// Multiply a low-rank factorization `U·V`.
///
/// Dispatches to the column-split kernel when the configured algorithm
/// is 1D (where k-splitting would shred the thin inner dimension);
/// 2D/3D configurations run the general kernels. Errors if
/// `k > MAX_LOW_RANK`.
pub fn lowrank_gemm(
    device: &DeviceSpec,
    cfg: &KamiConfig,
    u: &Matrix,
    v: &Matrix,
) -> Result<GemmResult, KamiError> {
    let k = u.cols();
    if k > MAX_LOW_RANK {
        return Err(KamiError::Unsupported {
            detail: format!("k = {k} exceeds the low-rank bound {MAX_LOW_RANK}; use gemm()"),
        });
    }
    match cfg.algo {
        Algo::OneD => lowrank_gemm_colsplit(device, cfg, u, v),
        _ => gemm_auto(device, cfg, u, v),
    }
}

/// Pick a warp count for a low-rank problem: the largest `p` of the
/// candidate ladder whose partition constraints divide `(m, n, k)`.
pub fn auto_warps(algo: Algo, m: usize, n: usize, k: usize) -> usize {
    let candidates: &[usize] = match algo {
        Algo::OneD => &[16, 8, 4, 2, 1],
        Algo::TwoD => &[16, 9, 4, 1],
        Algo::ThreeD => &[27, 8, 1],
    };
    for &p in candidates {
        let ok = match algo {
            // Column-split kernel: p | m and p | n, k untouched.
            Algo::OneD => m.is_multiple_of(p) && n.is_multiple_of(p),
            Algo::TwoD => {
                let q = (p as f64).sqrt().round() as usize;
                m.is_multiple_of(q) && n.is_multiple_of(q) && k.is_multiple_of(q)
            }
            Algo::ThreeD => {
                let q = (p as f64).cbrt().round() as usize;
                m.is_multiple_of(q) && n.is_multiple_of(q) && k.is_multiple_of(q * q)
            }
        };
        if ok {
            return p;
        }
    }
    1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{reference_gemm, reference_gemm_f64};
    use kami_gpu_sim::{device::gh200, Precision};

    #[test]
    fn colsplit_product_correct_fp64() {
        let dev = gh200();
        let (m, n, k) = (32, 32, 16);
        let u = Matrix::seeded_uniform(m, k, 71);
        let v = Matrix::seeded_uniform(k, n, 72);
        let cfg = KamiConfig::new(Algo::OneD, Precision::Fp64).with_warps(4);
        let res = lowrank_gemm(&dev, &cfg, &u, &v).unwrap();
        let want = reference_gemm(&u, &v, Precision::Fp64);
        assert!(res.c.max_abs_diff(&want) < 1e-12);
    }

    #[test]
    fn colsplit_product_correct_fp16() {
        let dev = gh200();
        let (m, n, k) = (64, 64, 16);
        let u = Matrix::seeded_uniform(m, k, 71);
        let v = Matrix::seeded_uniform(k, n, 72);
        let cfg = KamiConfig::new(Algo::OneD, Precision::Fp16).with_warps(auto_warps(
            Algo::OneD,
            m,
            n,
            k,
        ));
        let res = lowrank_gemm(&dev, &cfg, &u, &v).unwrap();
        let want = reference_gemm(&u, &v, Precision::Fp16);
        assert!(res.c.rel_frobenius_error(&want) < 1e-2);
    }

    #[test]
    fn colsplit_charges_no_padding_waste_at_k16() {
        // k = 16 matches the FP16 MMA depth exactly: charged == useful.
        let dev = gh200();
        let (m, n, k) = (64, 64, 16);
        let u = Matrix::seeded_uniform(m, k, 1);
        let v = Matrix::seeded_uniform(k, n, 2);
        let cfg = KamiConfig::new(Algo::OneD, Precision::Fp16).with_warps(4);
        let res = lowrank_gemm(&dev, &cfg, &u, &v).unwrap();
        assert_eq!(res.report.flops_charged, res.useful_flops);
    }

    #[test]
    fn colsplit_broadcasts_only_the_thin_factor() {
        let dev = gh200();
        let (m, n, k) = (64, 64, 16);
        let u = Matrix::seeded_uniform(m, k, 1);
        let v = Matrix::seeded_uniform(k, n, 2);
        let cfg = KamiConfig::new(Algo::OneD, Precision::Fp16).with_warps(4);
        let res = lowrank_gemm(&dev, &cfg, &u, &v).unwrap();
        // Writes = |U| exactly: each warp broadcasts its U strip once.
        assert_eq!(
            res.report.smem_bytes_written,
            (m * k * Precision::Fp16.size_bytes()) as u64
        );
    }

    #[test]
    fn rank_bound_enforced() {
        let dev = gh200();
        let cfg = KamiConfig::new(Algo::OneD, Precision::Fp16);
        let u = Matrix::zeros(64, 128);
        let v = Matrix::zeros(128, 64);
        assert!(matches!(
            lowrank_gemm(&dev, &cfg, &u, &v),
            Err(KamiError::Unsupported { .. })
        ));
    }

    #[test]
    fn auto_warps_respects_divisibility() {
        assert_eq!(auto_warps(Algo::OneD, 64, 64, 16), 16);
        assert_eq!(auto_warps(Algo::OneD, 60, 60, 6), 4);
        assert_eq!(auto_warps(Algo::TwoD, 64, 64, 16), 16);
        assert_eq!(auto_warps(Algo::ThreeD, 64, 64, 16), 8);
        // k = 2 cannot be split by q² = 4: falls to 1 warp.
        assert_eq!(auto_warps(Algo::ThreeD, 64, 64, 2), 1);
    }

    #[test]
    fn low_rank_reconstruction_error_small() {
        // Build a genuinely rank-k matrix, multiply its factors with
        // KAMI, and check the reconstruction matches the f64 product.
        let dev = gh200();
        let (m, n, k) = (32, 32, 16);
        let u = Matrix::seeded_uniform(m, k, 81);
        let v = Matrix::seeded_uniform(k, n, 82);
        let cfg = KamiConfig::new(Algo::TwoD, Precision::Fp16).with_warps(auto_warps(
            Algo::TwoD,
            m,
            n,
            k,
        ));
        let res = lowrank_gemm(&dev, &cfg, &u, &v).unwrap();
        let exact = reference_gemm_f64(&u, &v);
        assert!(res.c.rel_frobenius_error(&exact) < 1e-2);
    }
}
