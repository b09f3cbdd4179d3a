//! Integration tests for the beyond-the-paper extensions: the 2.5D
//! interpolation, the BLAS epilogue, transposed operands, variable-size
//! batches, and the execution tracer.

use kami::core::{
    batched_gemm_varied, gemm, gemm_25d, gemm_scaled, gemm_t, reference_gemm_f64, Algo,
    Kami25dConfig, KamiConfig, MatOp,
};
use kami::prelude::*;
use kami::sim::{Engine, GlobalMemory, TraceKind};

#[test]
fn two_point_five_d_interpolates_2d_and_3d() {
    let dev = device::gh200();
    let n = 32;
    let a = Matrix::seeded_uniform(n, n, 1);
    let b = Matrix::seeded_uniform(n, n, 2);
    let want = reference_gemm_f64(&a, &b);
    // Correctness at every (q, c) on the ladder.
    for (q, c) in [(2usize, 1usize), (2, 2), (4, 1), (4, 2)] {
        if n % q != 0 || n % (c * q) != 0 || c > q {
            continue;
        }
        let cfg = Kami25dConfig::new(q, c, Precision::Fp64);
        let res = gemm_25d(&dev, &cfg, &a, &b).unwrap();
        assert!(res.c.max_abs_diff(&want) < 1e-12, "q={q} c={c}");
    }
    // Stage count shrinks with replication at a fixed warp budget:
    // (q=4, c=1) has 4 stages of latency; (q=2, c=4 would be invalid),
    // but (q=2, c=2) at 8 warps has 2 stages — less comm latency per
    // the model and the simulator agrees.
    let r16 = gemm_25d(&dev, &Kami25dConfig::new(4, 1, Precision::Fp16), &a, &b).unwrap();
    let r8 = gemm_25d(&dev, &Kami25dConfig::new(2, 2, Precision::Fp16), &a, &b).unwrap();
    assert!(r8.report.totals.comm < r16.report.totals.comm);
}

#[test]
fn blas_epilogue_full_semantics() {
    let dev = device::gh200();
    let (m, n, k) = (24usize, 16usize, 32usize);
    let a = Matrix::seeded_uniform(m, k, 3);
    let b = Matrix::seeded_uniform(k, n, 4);
    let c0 = Matrix::seeded_uniform(m, n, 5);
    let ab = reference_gemm_f64(&a, &b);
    for (alpha, beta) in [(1.0, 1.0), (2.0, 0.0), (-1.5, 0.5), (0.0, 3.0)] {
        let want = Matrix::from_fn(m, n, |r, c| alpha * ab[(r, c)] + beta * c0[(r, c)]);
        for algo in [Algo::OneD, Algo::TwoD] {
            let cfg = KamiConfig::new(algo, Precision::Fp64);
            let res = gemm_scaled(&dev, &cfg, alpha, &a, &b, beta, &c0).unwrap();
            assert!(
                res.c.max_abs_diff(&want) < 1e-12,
                "{} alpha={alpha} beta={beta}",
                algo.label()
            );
        }
    }
}

#[test]
fn transposed_products_compose() {
    let dev = device::gh200();
    let cfg = KamiConfig::new(Algo::TwoD, Precision::Fp64);
    let a = Matrix::seeded_uniform(32, 16, 6);
    let b = Matrix::seeded_uniform(32, 16, 7);
    // AᵀB: (16x32)·(32x16).
    let got = gemm_t(&dev, &cfg, MatOp::Transpose, &a, MatOp::None, &b).unwrap();
    let want = reference_gemm_f64(&a.transposed(), &b);
    assert!(got.c.max_abs_diff(&want) < 1e-12);
    // ABᵀ: (32x16)·(16x32).
    let got = gemm_t(&dev, &cfg, MatOp::None, &a, MatOp::Transpose, &b).unwrap();
    let want = reference_gemm_f64(&a, &b.transposed());
    assert!(got.c.max_abs_diff(&want) < 1e-12);
}

#[test]
fn varied_batch_handles_mixed_shapes_and_schedules_lpt() {
    let dev = device::gh200();
    let cfg = KamiConfig::new(Algo::OneD, Precision::Fp64);
    let shapes: Vec<(usize, usize, usize)> =
        vec![(16, 16, 16), (48, 48, 48), (8, 24, 40), (33, 17, 5)];
    let pairs: Vec<_> = shapes
        .iter()
        .enumerate()
        .map(|(i, &(m, n, k))| {
            (
                Matrix::seeded_uniform(m, k, 900 + i as u64),
                Matrix::seeded_uniform(k, n, 950 + i as u64),
            )
        })
        .collect();
    let res = batched_gemm_varied(&dev, &cfg, &pairs).unwrap();
    for (i, (a, b)) in pairs.iter().enumerate() {
        let want = reference_gemm_f64(a, b);
        assert!(res.outputs[i].max_abs_diff(&want) < 1e-12, "entry {i}");
    }
    // With plenty of SMs, the makespan equals the largest block's cycles,
    // which must be at least the 48³ entry's standalone cost.
    let alone = kami::core::gemm_padded(&dev, &cfg, &pairs[1].0, &pairs[1].1).unwrap();
    assert!(res.total_cycles >= alone.report.cycles * 0.999);
}

#[test]
fn tracer_accounts_every_category_of_a_kami_kernel() {
    let dev = device::gh200();
    let prec = Precision::Fp16;
    let cfg = KamiConfig::new(Algo::TwoD, prec);
    let n = 32;
    let a = Matrix::seeded_uniform(n, n, 8);
    let b = Matrix::seeded_uniform(n, n, 9);
    let mut gmem = GlobalMemory::new();
    let ab = gmem.upload("A", &a, prec);
    let bb = gmem.upload("B", &b, prec);
    let cb = gmem.alloc_zeroed("C", n, n, prec);
    let kernel = kami::core::gemm::build_gemm_kernel(&cfg, n, n, n, ab, bb, cb, prec);
    let (report, trace) = Engine::new(&dev).run_traced(&kernel, &mut gmem).unwrap();
    assert!((trace.total_cycles() - report.cycles).abs() < 1e-9);
    for kind in [
        TraceKind::GlobalLoad,
        TraceKind::SharedStore,
        TraceKind::SharedLoad,
        TraceKind::Mma,
        TraceKind::GlobalStore,
    ] {
        assert!(
            trace.events.iter().any(|e| e.kind == kind),
            "missing {kind:?} events"
        );
    }
    // Every warp appears.
    for w in 0..cfg.warps {
        assert!(trace.warp_events(w).count() > 0, "warp {w} silent");
    }
    // Chrome export round-trips as JSON.
    let json = trace.to_chrome_json();
    let v: serde_json::Value = serde_json::from_str(&json).unwrap();
    assert_eq!(v.as_array().unwrap().len(), trace.events.len());
}

#[test]
fn scaled_gemm_preserves_cycle_structure() {
    // The alpha-only epilogue adds register ops but no communication.
    let dev = device::gh200();
    let cfg = KamiConfig::new(Algo::OneD, Precision::Fp64);
    let a = Matrix::seeded_uniform(16, 16, 10);
    let b = Matrix::seeded_uniform(16, 16, 11);
    let zero = Matrix::zeros(16, 16);
    let plain = gemm(&dev, &cfg, &a, &b).unwrap();
    let scaled = gemm_scaled(&dev, &cfg, 2.0, &a, &b, 0.0, &zero).unwrap();
    assert_eq!(
        plain.report.comm_volume(),
        scaled.report.comm_volume(),
        "alpha scaling must not touch shared memory"
    );
    assert!(scaled.report.totals.reg > plain.report.totals.reg);
}
