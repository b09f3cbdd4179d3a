//! Native MMA body: what [`BackendKind::Native`](super::BackendKind::Native)
//! changes about the execute pass.
//!
//! Both backends walk every phase through the same phase walker (warps
//! in warp order, ops in program order, then race detection) and run
//! every op through the same `Engine::exec_op`, legality checks
//! included. The backend picks only the body of an MMA once its checks
//! have passed: the reference slice extraction plus
//! [`mma_fragment`](crate::tensor_core::mma_fragment) for `Sim`, or
//! `mma` here for `Native`.
//!
//! The reference body pays, per accumulation step, two precision
//! round-trips on the inputs (for fp16/bf16 that is a
//! `f64 → half → f64` conversion each) plus per-op slice allocations.
//! None of that changes the bits: fragment data is invariantly
//! quantized at its declared precision (every write narrows — see
//! [`FragValue::store`]), and every [`Precision::round`] is idempotent,
//! so re-rounding already-quantized inputs is a no-op. The microkernel
//! exploits exactly that: it reads inputs in place and keeps only the
//! rounding that matters — one per accumulation step at the accumulator
//! precision, the same place the reference rounds (the per-element
//! narrowing to the fragment's storage precision after the MMA is
//! shared code). FP64 steps are `f64::mul_add`; FP32-accumulated steps
//! are `(a * b + c) as f32 as f64`, whose product is exact in f64
//! because the quantized inputs carry at most 24 significand bits (see
//! `fma_step`), so the single rounding equals `mul_add`'s.
//!
//! The inner loops are written to autovectorize: for each `(i, l)` the
//! column sweep is a chain-free multiply-add over independent
//! accumulators, unrolled by four. Unrolling reorders nothing — each
//! `(i, j)` chain still sees its `l`-steps in increasing order.

use crate::engine::k_slice;
use crate::fragment::FragValue;
use crate::precision::Precision;

/// `frags[d] += frags[a][:, ac0..ac0 + k] · frags[b][br0..br0 + k, :]`
/// at accumulator precision `acc`, reading the operands in place
/// through their strides. The caller has checked every shape. Operands
/// aliased with D (D doubling as A or B) are copied out first, as the
/// reference body does, since D is taken out of the slice while the
/// microkernel writes it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn mma(
    acc: Precision,
    m: usize,
    n: usize,
    k: usize,
    frags: &mut [FragValue],
    d: usize,
    a: usize,
    a_stride: usize,
    ac0: usize,
    b: usize,
    b_stride: usize,
    br0: usize,
) {
    if d == a || d == b {
        let a_slice = k_slice(&frags[a].data, a_stride, ac0, m, k);
        let b_slice = k_slice(&frags[b].data, b_stride, br0 * b_stride, k, n);
        microkernel(
            acc,
            m,
            n,
            k,
            &a_slice,
            k,
            0,
            &b_slice,
            n,
            0,
            &mut frags[d].data,
        );
    } else {
        let mut d_data = std::mem::take(&mut frags[d].data);
        microkernel(
            acc,
            m,
            n,
            k,
            &frags[a].data,
            a_stride,
            ac0,
            &frags[b].data,
            b_stride,
            br0,
            &mut d_data,
        );
        frags[d].data = d_data;
    }
}

/// Dispatch on the accumulator precision. FP64 inputs accumulate at
/// FP64 (the rounding is the identity); everything else accumulates at
/// FP32 — one exact-product step rounded `as f32 as f64`, bit-identical
/// to [`fma_acc`](crate::precision::fma_acc) with the input re-rounding
/// elided (inputs are invariantly pre-quantized).
#[allow(clippy::too_many_arguments)]
#[inline]
fn microkernel(
    acc: Precision,
    m: usize,
    n: usize,
    k: usize,
    a: &[f64],
    a_stride: usize,
    ac0: usize,
    b: &[f64],
    b_stride: usize,
    br0: usize,
    d: &mut [f64],
) {
    debug_assert_eq!(d.len(), m * n);
    match acc {
        Precision::Fp64 => mma_rows::<false>(m, n, k, a, a_stride, ac0, b, b_stride, br0, d),
        _ => mma_rows::<true>(m, n, k, a, a_stride, ac0, b, b_stride, br0, d),
    }
}

/// One accumulation step, bit-identical to `fma_acc`. FP64 inputs keep
/// the fused `mul_add`. Every `ROUND32` input has at most 24 significand
/// bits (FP32, TF32, FP16, BF16 or FP8, invariantly quantized), so
/// `a * b` has at most 48 and lies within 2⁻²⁹⁸…2²⁵⁶: it is exact in
/// f64, and `a * b + c` rounds once, exactly as `mul_add` does — without
/// the per-element libm call that blocks vectorization when the target
/// lacks FMA. Rust never contracts `a * b + c` into an FMA.
#[inline(always)]
fn fma_step<const ROUND32: bool>(a: f64, b: f64, c: f64) -> f64 {
    if ROUND32 {
        (a * b + c) as f32 as f64
    } else {
        a.mul_add(b, c)
    }
}

/// `d[m×n] += a[:, ac0..ac0+k] · b[br0..br0+k, :]` with the `(i, l, j)`
/// loop order: each `(i, j)` accumulator still sees its `l`-steps in
/// increasing order (bit-identical to the simulator's `(i, j, l)`
/// order), while the inner column sweep is independent multiply-adds the
/// compiler can vectorize. Explicit 4-way unroll for the common
/// power-of-two tile widths.
#[allow(clippy::too_many_arguments)]
fn mma_rows<const ROUND32: bool>(
    m: usize,
    n: usize,
    k: usize,
    a: &[f64],
    a_stride: usize,
    ac0: usize,
    b: &[f64],
    b_stride: usize,
    br0: usize,
    d: &mut [f64],
) {
    for i in 0..m {
        let a_row = &a[i * a_stride + ac0..i * a_stride + ac0 + k];
        let d_row = &mut d[i * n..(i + 1) * n];
        for (l, &av) in a_row.iter().enumerate() {
            let b_row = &b[(br0 + l) * b_stride..(br0 + l) * b_stride + n];
            let mut j = 0;
            while j + 4 <= n {
                d_row[j] = fma_step::<ROUND32>(av, b_row[j], d_row[j]);
                d_row[j + 1] = fma_step::<ROUND32>(av, b_row[j + 1], d_row[j + 1]);
                d_row[j + 2] = fma_step::<ROUND32>(av, b_row[j + 2], d_row[j + 2]);
                d_row[j + 3] = fma_step::<ROUND32>(av, b_row[j + 3], d_row[j + 3]);
                j += 4;
            }
            while j < n {
                d_row[j] = fma_step::<ROUND32>(av, b_row[j], d_row[j]);
                j += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::gh200;
    use crate::engine::Engine;
    use crate::error::SimError;
    use crate::matrix::Matrix;
    use crate::memory::global::{BufferId, GlobalMemory};
    use crate::passes::BackendKind;
    use crate::program::{BlockKernel, Op};

    /// Every `Precision::round` must be idempotent: the microkernels
    /// skip input re-rounding on that invariant.
    #[test]
    fn rounding_is_idempotent_on_quantized_values() {
        let precs = [
            Precision::Fp64,
            Precision::Fp32,
            Precision::Tf32,
            Precision::Fp16,
            Precision::Bf16,
            Precision::Fp8E4M3,
        ];
        for p in precs {
            let mut x = -1000.0f64;
            while x < 1000.0 {
                let once = p.round(x);
                assert_eq!(p.round(once), once, "{p:?} not idempotent at {x}");
                x += 0.337;
            }
            for &edge in &[0.0, -0.0, p.max_finite(), -p.max_finite(), 1e300, 1e-300] {
                let once = p.round(edge);
                assert_eq!(p.round(once), once, "{p:?} not idempotent at {edge}");
            }
        }
    }

    /// `fma_step::<true>` drops `mul_add` on the claim that the product
    /// of two inputs quantized below FP64 is exact in f64: it must equal
    /// [`fma_acc`](crate::precision::fma_acc) bit for bit on every such
    /// precision, at the range extremes and subnormals included.
    #[test]
    fn exact_product_step_matches_fma_acc_bitwise() {
        // Smallest positive subnormal of each precision.
        let precs = [
            (Precision::Fp32, 2f64.powi(-149)),
            (Precision::Tf32, 2f64.powi(-136)),
            (Precision::Fp16, 2f64.powi(-24)),
            (Precision::Bf16, 2f64.powi(-133)),
            (Precision::Fp8E4M3, 2f64.powi(-9)),
        ];
        // Uniform draws in [-1, 1): a mantissa and an exponent position
        // per random value.
        let draws = Matrix::seeded_uniform(4, 100, 0x5eed);
        let spread = |u: f64, lo: f64, hi: f64| (lo + (u + 1.0) / 2.0 * (hi - lo)) as i32;
        for (p, tiny) in precs {
            assert_eq!(p.round(tiny), tiny, "{p:?}: {tiny:e} is not representable");
            assert_eq!(
                p.round(tiny / 2.0),
                0.0,
                "{p:?}: {tiny:e} is not the smallest"
            );
            let top = p.max_finite();
            let mut vals = vec![top, -top, tiny, -tiny, 0.0, -0.0];
            let f32_top = Precision::Fp32.max_finite();
            let mut accs = vec![f32_top, -f32_top, 2f64.powi(-149), 0.0, -0.0];
            for t in 0..100 {
                let e = spread(draws.get(1, t), tiny.log2(), top.log2());
                vals.push(p.round(draws.get(0, t) * 2f64.powi(e)).clamp(-top, top));
                let e = spread(draws.get(3, t), -149.0, 127.0);
                accs.push(Precision::Fp32.round(draws.get(2, t) * 2f64.powi(e)));
            }
            for &a in &vals {
                for &b in &vals {
                    for &c in &accs {
                        let want = crate::precision::fma_acc(Precision::Fp32, a, b, c);
                        let got = fma_step::<true>(a, b, c);
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{p:?}: a={a:e} b={b:e} c={c:e}"
                        );
                    }
                }
            }
        }
    }

    fn both_backends(
        k: &BlockKernel,
        build: impl Fn(&mut GlobalMemory),
    ) -> (
        Result<(), SimError>,
        Result<(), SimError>,
        GlobalMemory,
        GlobalMemory,
    ) {
        let dev = gh200();
        let eng = Engine::new(&dev);
        let mut g_sim = GlobalMemory::new();
        let mut g_nat = GlobalMemory::new();
        build(&mut g_sim);
        build(&mut g_nat);
        let sim = eng
            .plan(k)
            .and_then(|p| eng.execute_with(BackendKind::Sim, &p, &mut g_sim));
        let nat = eng
            .plan(k)
            .and_then(|p| eng.execute_with(BackendKind::Native, &p, &mut g_nat));
        (sim, nat, g_sim, g_nat)
    }

    fn assert_state_identical(g_sim: &GlobalMemory, g_nat: &GlobalMemory) {
        assert_eq!(g_sim.bytes_read(), g_nat.bytes_read());
        assert_eq!(g_sim.bytes_written(), g_nat.bytes_written());
        for i in 0..g_sim.buffer_count() {
            let id = BufferId(i);
            assert_eq!(
                g_sim.download(id).max_abs_diff(&g_nat.download(id)),
                0.0,
                "buffer '{}' diverges",
                g_sim.name(id)
            );
        }
    }

    #[test]
    fn native_matches_sim_on_gemm_all_precisions() {
        for prec in [
            Precision::Fp64,
            Precision::Fp32,
            Precision::Tf32,
            Precision::Fp16,
            Precision::Bf16,
            Precision::Fp8E4M3,
        ] {
            let n = 16;
            let k = BlockKernel::spmd(4, |i, w| {
                let fa = w.frag("A", n, n, prec);
                let fb = w.frag("B", n, n, prec);
                let fc = w.frag("C", n, n, prec);
                w.global_load(fa, BufferId(0), 0, 0);
                w.global_load(fb, BufferId(1), 0, 0);
                w.zero_acc(fc);
                w.mma(fc, fa, fb);
                w.shared_store(fc, i * n * n * 8);
                w.barrier();
                w.shared_load(fc, i * n * n * 8);
                if i == 0 {
                    w.global_store(fc, BufferId(2), 0, 0);
                }
            });
            let (sim, nat, g_sim, g_nat) = both_backends(&k, |g| {
                g.upload("A", &Matrix::seeded_uniform(n, n, 1), prec);
                g.upload("B", &Matrix::seeded_uniform(n, n, 2), prec);
                g.alloc_zeroed("C", n, n, prec);
            });
            sim.unwrap();
            nat.unwrap();
            assert_state_identical(&g_sim, &g_nat);
        }
    }

    #[test]
    fn native_matches_sim_on_sliced_mma() {
        // k-sliced MMA with a strided A window exercises the zero-copy
        // stride math against the simulator's slice extraction.
        let (m, n, kk) = (8, 8, 32);
        let k = BlockKernel::spmd(1, |_, w| {
            let fa = w.frag("A", m, kk, Precision::Fp16);
            let fb = w.frag("B", kk, n, Precision::Fp16);
            let fc = w.frag("C", m, n, Precision::Fp16);
            w.global_load(fa, BufferId(0), 0, 0);
            w.global_load(fb, BufferId(1), 0, 0);
            w.zero_acc(fc);
            for chunk in 0..4 {
                w.ops.push(Op::Mma {
                    d: fc,
                    a: fa,
                    b: fb,
                    a_cols: Some((chunk * 8, 8)),
                    b_rows: Some((chunk * 8, 8)),
                });
            }
            w.global_store(fc, BufferId(2), 0, 0);
        });
        let (sim, nat, g_sim, g_nat) = both_backends(&k, |g| {
            g.upload("A", &Matrix::seeded_uniform(m, kk, 5), Precision::Fp16);
            g.upload("B", &Matrix::seeded_uniform(kk, n, 6), Precision::Fp16);
            g.alloc_zeroed("C", m, n, Precision::Fp16);
        });
        sim.unwrap();
        nat.unwrap();
        assert_state_identical(&g_sim, &g_nat);
    }

    #[test]
    fn smem_race_errors_identically_on_both_backends() {
        // Cross-warp smem overlap: both backends must surface the
        // identical hazard.
        let k = BlockKernel::spmd(2, |i, w| {
            let f = w.frag("x", 1, 1, Precision::Fp32);
            w.zero_acc(f);
            if i == 0 {
                w.shared_store(f, 0);
            } else {
                w.shared_load(f, 0);
            }
        });
        let (sim, nat, _, _) = both_backends(&k, |_| {});
        assert!(matches!(sim, Err(SimError::SharedMemoryHazard { .. })));
        assert_eq!(sim, nat);
    }

    #[test]
    fn native_reports_lowest_warp_error_like_sim() {
        let k = BlockKernel::spmd(3, |i, w| {
            let f = w.frag("x", 1, 1, Precision::Fp32);
            if i == 0 {
                w.zero_acc(f);
            }
            w.shared_store(f, i * 64);
        });
        let (sim, nat, _, _) = both_backends(&k, |_| {});
        assert!(matches!(
            sim,
            Err(SimError::UninitializedFragment { warp: 1, .. })
        ));
        assert_eq!(sim, nat);
    }

    #[test]
    fn native_mma_error_messages_match_sim() {
        // k-extent mismatch inside an otherwise safe phase.
        let k = BlockKernel::spmd(1, |_, w| {
            let a = w.frag("a", 4, 8, Precision::Fp16);
            let b = w.frag("b", 4, 4, Precision::Fp16);
            let c = w.frag("c", 4, 4, Precision::Fp32);
            w.zero_acc(a);
            w.zero_acc(b);
            w.zero_acc(c);
            w.mma(c, a, b);
        });
        let (sim, nat, _, _) = both_backends(&k, |_| {});
        assert!(sim.is_err());
        assert_eq!(
            format!("{:?}", sim.unwrap_err()),
            format!("{:?}", nat.unwrap_err())
        );
    }

    #[test]
    fn native_matches_sim_on_single_and_multi_warp_phases() {
        let n = 8;
        let k = BlockKernel::spmd(1, |_, w| {
            let fa = w.frag("A", n, n, Precision::Fp32);
            let fb = w.frag("B", n, n, Precision::Fp32);
            let fc = w.frag("C", n, n, Precision::Fp32);
            w.global_load(fa, BufferId(0), 0, 0);
            w.global_load(fb, BufferId(1), 0, 0);
            w.zero_acc(fc);
            w.mma(fc, fa, fb);
            w.global_store(fc, BufferId(2), 0, 0);
        });
        let build = |g: &mut GlobalMemory| {
            g.upload("A", &Matrix::seeded_uniform(n, n, 3), Precision::Fp32);
            g.upload("B", &Matrix::seeded_uniform(n, n, 4), Precision::Fp32);
            g.alloc_zeroed("C", n, n, Precision::Fp32);
        };
        let (sim, nat, g_sim, g_nat) = both_backends(&k, build);
        sim.unwrap();
        nat.unwrap();
        assert_state_identical(&g_sim, &g_nat);

        // Multi-warp and race-free in both phases: disjoint smem
        // staging, shared read-only A/B windows, one writer of C.
        let k = BlockKernel::spmd(4, |i, w| {
            let fa = w.frag("A", n, n, Precision::Fp32);
            let fb = w.frag("B", n, n, Precision::Fp32);
            let fc = w.frag("C", n, n, Precision::Fp32);
            w.global_load(fa, BufferId(0), 0, 0);
            w.global_load(fb, BufferId(1), 0, 0);
            w.zero_acc(fc);
            w.mma(fc, fa, fb);
            w.shared_store(fc, i * n * n * 4);
            w.barrier();
            w.shared_load(fc, i * n * n * 4);
            if i == 3 {
                w.global_store(fc, BufferId(2), 0, 0);
            }
        });
        let (sim, nat, g_sim, g_nat) = both_backends(&k, build);
        sim.unwrap();
        nat.unwrap();
        assert_state_identical(&g_sim, &g_nat);
    }

    #[test]
    fn native_microkernel_runs_on_a_racing_phase() {
        // The race is only detected once the phase has run, so the MMA
        // (through Native's microkernel) and the global stores before it
        // land on both backends and must leave identical state.
        let n = 8;
        let k = BlockKernel::spmd(2, |i, w| {
            let fa = w.frag("A", n, n, Precision::Fp16);
            let fb = w.frag("B", n, n, Precision::Fp16);
            let fc = w.frag("C", n, n, Precision::Fp32);
            w.global_load(fa, BufferId(0), 0, 0);
            w.global_load(fb, BufferId(1), 0, 0);
            w.zero_acc(fc);
            w.mma(fc, fa, fb);
            w.global_store(fc, BufferId(2), i * n, 0);
            if i == 0 {
                w.shared_store(fc, 0);
            } else {
                w.shared_load(fc, 0);
            }
        });
        let (sim, nat, g_sim, g_nat) = both_backends(&k, |g| {
            g.upload("A", &Matrix::seeded_uniform(n, n, 11), Precision::Fp16);
            g.upload("B", &Matrix::seeded_uniform(n, n, 12), Precision::Fp16);
            g.alloc_zeroed("C", 2 * n, n, Precision::Fp32);
        });
        assert!(matches!(sim, Err(SimError::SharedMemoryHazard { .. })));
        assert_eq!(sim, nat);
        let c = g_sim.download(BufferId(2));
        assert!(
            (0..2 * n).all(|r| (0..n).any(|col| c.get(r, col) != 0.0)),
            "both warps' products must have landed before the hazard"
        );
        assert_state_identical(&g_sim, &g_nat);
    }
}
