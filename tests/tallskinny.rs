//! Tall-skinny k-split path: property-based bit-identity against a
//! hand-recomposed `gemm_legacy` oracle, fused epilogues against the
//! unfused reference application, and a deep-k regression pin.
//!
//! The oracle re-implements the documented numerics contract from
//! scratch — chunk `i` covers A columns `[i·CK, (i+1)·CK)`, partials
//! merge pairwise `(0,1), (2,3), …` level by level with one rounding at
//! the output precision per add, the epilogue applies last — but runs
//! every chunk through the *legacy* interleaved engine, so the test is
//! differential across both the decomposition and the engine split.

use kami::core::gemm::c_precision;
use kami::core::{
    combine_partials, gemm_legacy, gemm_padded, gemm_skinny, is_tall_skinny, reference_gemm, Algo,
    CStore, Epilogue, KamiConfig, SKINNY_CHUNK_K, SKINNY_K_MIN,
};
use kami::prelude::*;
use proptest::prelude::*;

/// The chunk-shape config the request layer would resolve: 1D with a
/// warp count dividing every skinny m we draw (and 256 = CK).
fn skinny_cfg(prec: Precision) -> KamiConfig {
    let mut cfg = KamiConfig::new(Algo::OneD, prec);
    cfg.warps = 2;
    cfg
}

/// The contract oracle: chunked legacy GEMMs + pairwise-tree merge +
/// unfused reference epilogue. `k` must be a multiple of
/// [`SKINNY_CHUNK_K`] so the legacy engine sees full chunks (ragged
/// tails go through `gemm_padded`, covered by the pin test below).
fn recomposed_oracle(
    dev: &DeviceSpec,
    cfg: &KamiConfig,
    a: &Matrix,
    b: &Matrix,
    epilogue: Option<&Epilogue>,
) -> Matrix {
    let (m, n, k) = (a.rows(), b.cols(), a.cols());
    let chunks = k.div_ceil(SKINNY_CHUNK_K);
    let prec = c_precision(cfg.precision);
    let mut parts = Vec::with_capacity(chunks);
    for i in 0..chunks {
        let k0 = i * SKINNY_CHUNK_K;
        let ck = SKINNY_CHUNK_K.min(k - k0);
        let a_i = a.submatrix(0, k0, m, ck);
        let b_i = b.submatrix(k0, 0, ck, n);
        let part = if ck == SKINNY_CHUNK_K {
            gemm_legacy(dev, cfg, &a_i, &b_i, CStore::Plain).expect("full chunk runs legacy")
        } else {
            gemm_padded(dev, cfg, &a_i, &b_i).expect("ragged chunk runs padded")
        };
        parts.push(part.c);
    }
    let mut want = combine_partials(parts, prec);
    if let Some(epi) = epilogue {
        epi.apply_reference(&mut want, prec);
    }
    want
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Plain skinny products are bit-identical to the recomposed
    /// legacy-engine oracle, and numerically close to the CPU reference.
    #[test]
    fn skinny_matches_recomposed_legacy_oracle(
        mi in 1usize..=2,
        ni in 1usize..=2,
        kc in 16usize..=40,
        pi in 0usize..2,
        seed in 0u64..1_000_000,
    ) {
        let (m, n) = (16 * mi, 16 * ni);
        let k = kc * SKINNY_CHUNK_K; // 4096..=10240, all >= SKINNY_K_MIN
        prop_assert!(k >= SKINNY_K_MIN && is_tall_skinny(m, n, k));
        let prec = [Precision::Fp16, Precision::Bf16][pi];
        let dev = device::gh200();
        let cfg = skinny_cfg(prec);
        let a = Matrix::seeded_uniform(m, k, seed);
        let b = Matrix::seeded_uniform(k, n, seed.wrapping_add(1));
        let res = gemm_skinny(&dev, &cfg, &a, &b, None).expect("skinny path runs");
        let want = recomposed_oracle(&dev, &cfg, &a, &b, None);
        prop_assert_eq!(res.c.max_abs_diff(&want), 0.0, "bit-identity to the oracle");
        // Tolerance vs the exact-order reference scales with the chunk
        // accumulation depth plus the lg(chunks) tree adds.
        let reference = reference_gemm(&a, &b, prec);
        let u = prec.unit_roundoff();
        let tol = 8.0 * (SKINNY_CHUNK_K + kc.ilog2() as usize) as f64 * u;
        prop_assert!(res.c.rel_frobenius_error(&reference) < tol);
    }

    /// Fused epilogues on the skinny path: bias and ReLU bit-identical
    /// to the unfused reference application, GELU and softmax-scale
    /// within the precision tolerance of it.
    #[test]
    fn skinny_epilogues_match_unfused_reference(
        ei in 0usize..4,
        kc in 16usize..=32,
        seed in 0u64..1_000_000,
    ) {
        let (m, n) = (16, 32);
        let k = kc * SKINNY_CHUNK_K;
        let prec = Precision::Fp16;
        let dev = device::gh200();
        let cfg = skinny_cfg(prec);
        let a = Matrix::seeded_uniform(m, k, seed);
        let b = Matrix::seeded_uniform(k, n, seed.wrapping_add(1));
        let epi = match ei {
            0 => Epilogue::Bias(Matrix::seeded_uniform(1, n, seed.wrapping_add(2))),
            1 => Epilogue::Relu,
            2 => Epilogue::Gelu,
            _ => Epilogue::SoftmaxScale(0.125),
        };
        let fused = gemm_skinny(&dev, &cfg, &a, &b, Some(&epi)).expect("fused skinny runs");
        let want = recomposed_oracle(&dev, &cfg, &a, &b, Some(&epi));
        match epi {
            Epilogue::Bias(_) | Epilogue::Relu => {
                // The fused path applies exactly `apply_reference`.
                prop_assert_eq!(fused.c.max_abs_diff(&want), 0.0);
            }
            _ => {
                let tol = 64.0 * c_precision(prec).unit_roundoff();
                prop_assert!(fused.c.rel_frobenius_error(&want) < tol);
            }
        }
    }
}

/// Regression pin: the flagship deep-k shape from the issue. The exact
/// chunk/tree structure (256 chunks, 8 tree rounds) must never drift.
#[test]
fn deep_k_regression_pin() {
    let (m, n, k) = (16, 16, 65536);
    let dev = device::gh200();
    let cfg = skinny_cfg(Precision::Fp16);
    let a = Matrix::seeded_uniform(m, k, 0xDEE9);
    let b = Matrix::seeded_uniform(k, n, 0xDEEA);
    let res = gemm_skinny(&dev, &cfg, &a, &b, None).expect("deep-k skinny runs");
    let want = recomposed_oracle(&dev, &cfg, &a, &b, None);
    assert_eq!(res.c.max_abs_diff(&want), 0.0, "bit-identity at k = 65536");

    // Structure pin: 256 chunks of 256 merge in ceil(lg 256) = 8 rounds.
    let chunks = k / SKINNY_CHUNK_K;
    assert_eq!(chunks, 256);
    let rounds = kami::core::model::skinny::tree_depth(chunks);
    assert_eq!(rounds, 8);
    // The report appends exactly one synthesized phase per round and
    // stays internally consistent (cycles == sum of phase costs).
    let phase_sum: f64 = res
        .report
        .phase_costs
        .iter()
        .map(|p| p.cycles(res.report.mode))
        .sum();
    assert!((res.report.cycles - phase_sum).abs() <= 1e-6 * (1.0 + phase_sum));
    let fixup = kami::core::model::skinny::fixup_cycles(
        &dev,
        &cfg.cost,
        m,
        n,
        chunks,
        c_precision(cfg.precision),
        0,
        0,
    )
    .expect("closed form evaluates");
    let measured: f64 = res.report.phase_costs[res.report.phase_costs.len() - rounds..]
        .iter()
        .map(|p| p.cycles(res.report.mode))
        .sum();
    assert!(
        (measured - fixup).abs() <= 1e-6 * (1.0 + fixup),
        "tree-fixup suffix {measured:.3} != closed form {fixup:.3}"
    );

    // Numerics stay sane even 65536 deep: the tree keeps the error at
    // O(CK + lg chunks) roundings, far below the serial O(k) bound.
    let reference = reference_gemm(&a, &b, Precision::Fp16);
    let tol = 8.0 * (SKINNY_CHUNK_K + 8) as f64 * Precision::Fp16.unit_roundoff();
    assert!(res.c.rel_frobenius_error(&reference) < tol);
}

/// A ragged tail (k not a multiple of the chunk depth) pads its final
/// chunk and still matches the recomposed oracle bit for bit.
#[test]
fn ragged_tail_chunk_matches_oracle() {
    let (m, n, k) = (16, 16, SKINNY_K_MIN + 100);
    let dev = device::gh200();
    let cfg = skinny_cfg(Precision::Fp16);
    let a = Matrix::seeded_uniform(m, k, 77);
    let b = Matrix::seeded_uniform(k, n, 78);
    let res = gemm_skinny(&dev, &cfg, &a, &b, None).expect("ragged skinny runs");
    let want = recomposed_oracle(&dev, &cfg, &a, &b, None);
    assert_eq!(res.c.max_abs_diff(&want), 0.0);
}
