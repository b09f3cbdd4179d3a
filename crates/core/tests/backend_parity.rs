//! Property-based backend conformance: for every request the workspace
//! can express, `BackendKind::Native` must be **bit-identical** to
//! `BackendKind::Sim` — same `C` down to the last bit when the request
//! succeeds, same typed error when it fails. The properties sweep
//! precisions, algorithms, alpha/beta scaling, fused epilogues, and the
//! tall-skinny k-split path (whose pairwise-tree partial merge is the
//! most order-sensitive accumulation in the codebase).

use kami_core::{Algo, Epilogue, GemmRequest, KamiError};
use kami_gpu_sim::{device::gh200, BackendKind, Matrix, Precision};
use proptest::prelude::*;

/// Run the same request on both backends; compare bits or errors.
fn assert_backend_parity(req: GemmRequest) {
    let dev = gh200();
    let sim = req
        .clone()
        .backend(BackendKind::Sim)
        .execute(&dev)
        .and_then(|r| r.into_single());
    let nat = req
        .backend(BackendKind::Native)
        .execute(&dev)
        .and_then(|r| r.into_single());
    match (sim, nat) {
        (Ok(s), Ok(n)) => {
            assert_eq!(
                s.c.as_slice(),
                n.c.as_slice(),
                "native result diverges from sim"
            );
            assert_eq!(
                s.report.cycles, n.report.cycles,
                "backends must not change cost accounting"
            );
        }
        (s, n) => {
            let fmt = |r: &Result<_, KamiError>| match r {
                Ok(_) => "Ok".to_string(),
                Err(e) => format!("{e:?}"),
            };
            assert_eq!(fmt(&s), fmt(&n), "backends disagree on the error");
        }
    }
}

const PRECISIONS: [Precision; 5] = [
    Precision::Fp64,
    Precision::Tf32,
    Precision::Fp16,
    Precision::Bf16,
    Precision::Fp8E4M3,
];

fn epilogue(idx: usize, n: usize) -> Epilogue {
    match idx {
        0 => Epilogue::Bias(Matrix::seeded_uniform(1, n, 99)),
        1 => Epilogue::Relu,
        2 => Epilogue::Gelu,
        _ => Epilogue::SoftmaxScale(0.125),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Plain products across every algorithm and precision, including
    /// combinations the device rejects (same typed error either way).
    #[test]
    fn plain_gemm_parity(
        algo_idx in 0usize..3,
        prec_idx in 0usize..5,
        blocks in 1usize..4,
        seed in 0u64..1000,
    ) {
        let algo = Algo::ALL[algo_idx];
        let prec = PRECISIONS[prec_idx];
        let n = 32 * blocks;
        let a = Matrix::seeded_uniform(n, n, seed);
        let b = Matrix::seeded_uniform(n, n, seed + 1);
        assert_backend_parity(
            GemmRequest::gemm(a, b).precision(prec).algo(algo),
        );
    }

    /// BLAS-scaled products: `C = alpha·A·B + beta·C0`.
    #[test]
    fn scaled_gemm_parity(
        algo_idx in 0usize..3,
        prec_idx in 0usize..3,
        alpha in -2.0f64..2.0,
        beta in -2.0f64..2.0,
        seed in 0u64..1000,
    ) {
        let algo = Algo::ALL[algo_idx];
        let prec = [Precision::Fp64, Precision::Tf32, Precision::Fp16][prec_idx];
        let a = Matrix::seeded_uniform(32, 32, seed);
        let b = Matrix::seeded_uniform(32, 32, seed + 1);
        let c0 = Matrix::seeded_uniform(32, 32, seed + 2);
        assert_backend_parity(
            GemmRequest::gemm(a, b)
                .precision(prec)
                .algo(algo)
                .scaled(alpha, beta, c0),
        );
    }

    /// Fused epilogues inside the kernel's store phase (softmax is
    /// layout-restricted — the rejection must match too).
    #[test]
    fn fused_epilogue_parity(
        algo_idx in 0usize..3,
        epi_idx in 0usize..4,
        prec_idx in 0usize..3,
        seed in 0u64..1000,
    ) {
        let algo = Algo::ALL[algo_idx];
        let prec = [Precision::Fp64, Precision::Tf32, Precision::Fp16][prec_idx];
        let a = Matrix::seeded_uniform(32, 32, seed);
        let b = Matrix::seeded_uniform(32, 32, seed + 1);
        assert_backend_parity(
            GemmRequest::gemm(a, b)
                .precision(prec)
                .algo(algo)
                .with_epilogue(epilogue(epi_idx, 32)),
        );
    }
}

proptest! {
    // The skinny path multiplies a long k in chunks and merges partials
    // through a pairwise tree — fewer, heavier cases.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Tall-skinny k-split requests (auto-routed): chunked MMAs plus the
    /// pairwise-tree partial merge must be order-identical on both
    /// backends, with and without a fused epilogue.
    #[test]
    fn tall_skinny_k_split_parity(
        k_chunks in 16usize..21,
        epi in 0usize..3, // none / relu / softmax
        seed in 0u64..100,
    ) {
        let k = 256 * k_chunks; // ≥ 4096 = SKINNY_K_MIN
        let a = Matrix::seeded_uniform(16, k, seed);
        let b = Matrix::seeded_uniform(k, 16, seed + 1);
        let mut req = GemmRequest::gemm_auto(a, b).precision(Precision::Fp16);
        req = match epi {
            0 => req,
            1 => req.with_epilogue(Epilogue::Relu),
            _ => req.with_epilogue(Epilogue::SoftmaxScale(0.25)),
        };
        assert!(req.is_skinny(), "case must exercise the k-split path");
        assert_backend_parity(req);
    }
}
