//! The paper's central validation (§5.6, Fig 15): the analytical cycle
//! model (Formulas 1–12) against the simulator's measured cycles, plus
//! the register model against live-range allocation (Fig 14).

use kami::core::model::cycles::{self, ModelParams};
use kami::core::model::registers::theoretical_registers;
use kami::core::{gemm, Algo, KamiConfig};
use kami::prelude::*;
use kami::sim::CostConfig;

/// Without parking, the simulator's communication cycles must equal the
/// closed forms *exactly*: same latency-per-stage, same bandwidth terms.
#[test]
fn comm_cycles_match_formulas_exactly() {
    let dev = device::gh200();
    let prec = Precision::Fp16;
    let prm = ModelParams::from_device(&dev, prec).unwrap();
    for (algo, p) in [(Algo::OneD, 4), (Algo::TwoD, 4), (Algo::ThreeD, 8)] {
        for n in [16usize, 32, 64] {
            let cfg = KamiConfig::new(algo, prec).with_warps(p);
            let (a, b) = (
                Matrix::seeded_uniform(n, n, 1),
                Matrix::seeded_uniform(n, n, 2),
            );
            let res = gemm(&dev, &cfg, &a, &b).unwrap();
            let theory = cycles::t_all_comm(algo, n, n, n, p, &prm);
            let measured = res.report.totals.comm;
            assert!(
                (measured - theory).abs() < 1e-6,
                "{} n={n}: measured {measured} vs theory {theory}",
                algo.label()
            );
        }
    }
}

/// Measured compute is bounded below by the theory (padding and
/// busiest-warp effects only ever add cycles) and within a small factor
/// at MMA-aligned sizes.
#[test]
fn compute_cycles_bracket_theory() {
    let dev = device::gh200();
    let prec = Precision::Fp16;
    let prm = ModelParams::from_device(&dev, prec).unwrap();
    for (algo, p) in [(Algo::OneD, 4), (Algo::TwoD, 4), (Algo::ThreeD, 8)] {
        for n in [32usize, 64, 128] {
            let cfg = KamiConfig::new(algo, prec).with_warps(p);
            let (a, b) = (
                Matrix::seeded_uniform(n, n, 1),
                Matrix::seeded_uniform(n, n, 2),
            );
            let Ok(res) = gemm(&dev, &cfg, &a, &b) else {
                continue; // register-infeasible point
            };
            let theory = cycles::t_all_compute(n, n, n, &prm);
            let measured = res.report.totals.compute;
            assert!(
                measured >= theory - 1e-6,
                "{} n={n}: measured {measured} below theory {theory}",
                algo.label()
            );
            assert!(
                measured <= theory * 4.0 + 1.0,
                "{} n={n}: measured {measured} too far above theory {theory}",
                algo.label()
            );
        }
    }
}

/// Overlap-mode total is never worse than serial and never better than
/// max(comm, compute).
#[test]
fn overlap_mode_is_bounded() {
    let dev = device::gh200();
    let prec = Precision::Fp16;
    let n = 64;
    let (a, b) = (
        Matrix::seeded_uniform(n, n, 1),
        Matrix::seeded_uniform(n, n, 2),
    );
    for algo in Algo::ALL {
        let serial = gemm(&dev, &KamiConfig::new(algo, prec), &a, &b).unwrap();
        let overlap = gemm(
            &dev,
            &KamiConfig::new(algo, prec).with_cost(CostConfig::overlap()),
            &a,
            &b,
        )
        .unwrap();
        let s = serial.report.on_chip_cycles();
        let o = overlap.report.on_chip_cycles();
        let lower = serial.report.totals.comm.max(serial.report.totals.compute);
        assert!(o <= s + 1e-9, "{}: overlap {o} > serial {s}", algo.label());
        assert!(
            o >= lower - 1e-9,
            "{}: overlap {o} < bound {lower}",
            algo.label()
        );
    }
}

/// The paper's communication-volume identities hold measured, per
/// algorithm: 1D moves p·kn·s_e, 2D moves √p·(mk+kn)·s_e, 3D moves
/// ∛p·(mk+kn)·s_e in total.
#[test]
fn total_comm_volume_identities() {
    let dev = device::gh200();
    let prec = Precision::Fp16;
    let se = prec.size_bytes();
    let n = 64;
    let (a, b) = (
        Matrix::seeded_uniform(n, n, 1),
        Matrix::seeded_uniform(n, n, 2),
    );
    let cases = [
        (Algo::OneD, 4usize, 4.0),
        (Algo::TwoD, 4, 2.0),
        (Algo::ThreeD, 8, 2.0),
    ];
    for (algo, p, stages) in cases {
        let cfg = KamiConfig::new(algo, prec).with_warps(p);
        let res = gemm(&dev, &cfg, &a, &b).unwrap();
        let per_stage = cycles::v_cm_per_stage(algo, n, n, n, p, se as f64);
        let want = stages * per_stage;
        assert_eq!(
            res.report.comm_volume() as f64,
            want,
            "{}: V_cm mismatch",
            algo.label()
        );
    }
}

/// Theoretical registers dominate the conservative live-range measure,
/// which dominates the lazy (compiler-modelled) measure.
#[test]
fn register_model_ordering() {
    let dev = device::gh200();
    let prec = Precision::Fp16;
    let (m, n) = (64, 32);
    for (algo, p) in [(Algo::OneD, 4), (Algo::TwoD, 4), (Algo::ThreeD, 8)] {
        for k in [32usize, 64, 128] {
            let cfg = KamiConfig::new(algo, prec).with_warps(p);
            if cfg.validate(&dev, m, n, k).is_err() {
                continue;
            }
            let theory = theoretical_registers(algo, m, n, k, p, prec, prec);
            let mut gmem = kami::sim::GlobalMemory::new();
            let ab = gmem.upload("A", &Matrix::zeros(m, k), prec);
            let bb = gmem.upload("B", &Matrix::zeros(k, n), prec);
            let cb = gmem.alloc_zeroed("C", m, n, prec);
            let kern = kami::core::gemm::build_gemm_kernel(&cfg, m, n, k, ab, bb, cb, prec);
            let eng = kami::sim::Engine::new(&dev);
            let conservative = eng
                .analyze_registers(&kern)
                .iter()
                .map(|u| u.measured_regs)
                .max()
                .unwrap();
            let lazy = eng.analyze_registers_lazy(&kern).into_iter().max().unwrap();
            assert!(
                lazy <= conservative && conservative <= theory,
                "{} k={k}: lazy {lazy} <= conservative {conservative} <= theory {theory} violated",
                algo.label()
            );
            assert!(
                lazy < theory,
                "{} k={k}: no reuse found at all",
                algo.label()
            );
        }
    }
}

/// The worked examples of §4.3–4.5 reproduced end to end on a device
/// parameterized like the paper's example (O_tc = 32, n_tc = 4).
#[test]
fn paper_worked_examples_via_model() {
    let prm = ModelParams::paper_example();
    assert_eq!(cycles::t_all(Algo::OneD, 8, 8, 8, 2, &prm), 60.0);
    assert_eq!(cycles::t_all(Algo::TwoD, 8, 8, 8, 4, &prm), 68.0);
    assert_eq!(cycles::t_all(Algo::ThreeD, 8, 8, 8, 8, &prm), 68.0);
}
