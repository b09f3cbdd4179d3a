//! Native execution backend: the fast executor behind
//! [`BackendKind::Native`](super::BackendKind::Native).
//!
//! The simulator's MMA interpreter pays, per accumulation step, two
//! precision round-trips on the inputs (for fp16/bf16 that is a
//! `f64 → half → f64` conversion each) plus per-op slice allocations.
//! None of that changes the bits: fragment data is invariantly
//! quantized at its declared precision (every write narrows — see
//! [`FragValue::store`]), and every [`Precision::round`] is idempotent,
//! so re-rounding already-quantized inputs is a no-op. The native
//! backend exploits exactly that: its microkernels read inputs as-is
//! and keep only the roundings that matter — one per accumulation step
//! at the accumulator precision, and one per element at the fragment's
//! storage precision after each MMA — the same places the simulator
//! rounds. FP64 steps are `f64::mul_add`; FP32-accumulated steps are
//! `(a * b + c) as f32 as f64`, whose product is exact in f64 because
//! the quantized inputs carry at most 24 significand bits (see
//! `fma_step`), so the single rounding equals `mul_add`'s.
//!
//! Phase order is the reference executor's: warps serially in warp
//! order, ops in program order — the same order the interleaved oracle
//! walks. The only hazards that order does not settle are same-phase
//! cross-warp shared-memory overlaps, which race detection rejects.
//! Phases in which the static conflict analysis
//! (`phase_is_conflict_free`) finds one fall back to the serial
//! reference loop, so races and their error ordering reproduce exactly. Global ops run
//! through the simulator's own `exec_op` on both loops, so global
//! faults and panics need no analysis.
//!
//! The inner loops are written to autovectorize: for each `(i, l)` the
//! column sweep is a chain-free multiply-add over independent
//! accumulators, unrolled by four. Unrolling reorders nothing — each
//! `(i, j)` chain still sees its `l`-steps in increasing order.

use super::PlannedKernel;
use crate::cost::PhaseTally;
use crate::engine::{frag_decl, overlap, require_init, Engine};
use crate::error::SimError;
use crate::fragment::FragValue;
use crate::memory::global::GlobalMemory;
use crate::memory::shared::SharedMemory;
use crate::precision::Precision;
use crate::program::{Op, WarpProgram};
use crate::tensor_core::shape_for;

/// Run the planned kernel's numerics on the native backend; returns how
/// many phases took the lean loop (the rest fell back to the serial
/// reference loop).
pub(crate) fn execute_native(
    engine: &Engine<'_>,
    plan: &PlannedKernel<'_>,
    gmem: &mut GlobalMemory,
) -> Result<usize, SimError> {
    let (mut smem, mut frags) = engine.kernel_state(plan.kernel);
    let mut fast_phases = 0usize;
    for phase in 0..plan.phases {
        if phase_is_conflict_free(plan, phase) {
            run_phase_native(engine, plan, phase, gmem, &mut smem, &mut frags)?;
            fast_phases += 1;
        } else {
            engine.run_phase_serial(plan, phase, gmem, &mut smem, &mut frags)?;
        }
    }
    Ok(fast_phases)
}

/// Static analysis of one phase: `true` when no two warps touch
/// overlapping shared-memory bytes, so the lean loop (which skips race
/// bookkeeping) reproduces the reference executor's state exactly.
/// Cross-warp overlap of any kind, or a shared op naming an
/// out-of-range fragment, routes the phase to the serial fallback,
/// which raises the same hazard or error. Global ops need no check: the
/// lean loop runs them through the same `exec_op`, in the same warp and
/// program order, so same-window accumulates, read-after-write and
/// out-of-bounds panics behave identically on both loops. Op addresses
/// are static literals, so the static verdict equals runtime behavior.
fn phase_is_conflict_free(plan: &PlannedKernel<'_>, phase: usize) -> bool {
    let p = plan.warps;
    let mut smem_w: Vec<Vec<(usize, usize)>> = vec![Vec::new(); p];
    let mut smem_r: Vec<Vec<(usize, usize)>> = vec![Vec::new(); p];

    for w in 0..p {
        let prog = &plan.kernel.warps[w];
        for op in plan.ops(w, phase) {
            match *op {
                Op::SharedStore { src, addr } => match prog.frags.get(src) {
                    Some(d) => smem_w[w].push((addr, d.elems() * d.precision.size_bytes())),
                    None => return false,
                },
                Op::SharedLoad { dst, addr } => match prog.frags.get(dst) {
                    Some(d) => smem_r[w].push((addr, d.elems() * d.precision.size_bytes())),
                    None => return false,
                },
                Op::MetaStore { addr, bytes } => smem_w[w].push((addr, bytes)),
                Op::MetaLoad { addr, bytes } => smem_r[w].push((addr, bytes)),
                _ => {}
            }
        }
    }

    // Cross-warp shared-memory overlap of any kind (write/read,
    // write/write — the same pairs race detection rejects).
    for w1 in 0..p {
        for w2 in (w1 + 1)..p {
            for &a in &smem_w[w1] {
                if smem_w[w2]
                    .iter()
                    .chain(smem_r[w2].iter())
                    .any(|&b| overlap(a, b))
                {
                    return false;
                }
            }
            for &a in &smem_r[w1] {
                if smem_w[w2].iter().any(|&b| overlap(a, b)) {
                    return false;
                }
            }
        }
    }

    true
}

/// One statically race-free phase in warp-settle order. MMAs go through
/// the native microkernels; every other op runs the simulator's own
/// handler, so checks, error messages, and traffic counters are shared
/// code, not reimplementations. Race vectors stay unused — the static
/// analysis already proved this phase free of the hazards
/// [`detect_races`](crate::engine::detect_races) would flag.
fn run_phase_native(
    engine: &Engine<'_>,
    plan: &PlannedKernel<'_>,
    phase: usize,
    gmem: &mut GlobalMemory,
    smem: &mut SharedMemory,
    frags: &mut [Vec<FragValue>],
) -> Result<(), SimError> {
    let mut tally = PhaseTally::default();
    let mut writes: Vec<(usize, (usize, usize))> = Vec::new();
    let mut reads: Vec<(usize, (usize, usize))> = Vec::new();
    let mut flops_scratch = 0u64;
    for (w, warp_frags) in frags.iter_mut().enumerate() {
        let prog = &plan.kernel.warps[w];
        for op in plan.ops(w, phase) {
            match *op {
                Op::Mma {
                    d,
                    a,
                    b,
                    a_cols,
                    b_rows,
                } => {
                    require_init(warp_frags, a, w, prog)?;
                    require_init(warp_frags, b, w, prog)?;
                    require_init(warp_frags, d, w, prog)?;
                    native_mma(engine, prog, d, a, b, a_cols, b_rows, warp_frags)?;
                }
                _ => engine.exec_op(
                    w,
                    prog,
                    op,
                    gmem,
                    smem,
                    warp_frags,
                    &mut tally,
                    &mut writes,
                    &mut reads,
                    &mut flops_scratch,
                )?,
            }
        }
    }
    Ok(())
}

/// Native fragment MMA: the same legality checks as
/// [`Engine::exec_mma`], in the same order and with the same messages,
/// then a strided zero-copy microkernel instead of slice extraction and
/// per-step input re-rounding.
#[allow(clippy::too_many_arguments)]
fn native_mma(
    engine: &Engine<'_>,
    prog: &WarpProgram,
    d: usize,
    a: usize,
    b: usize,
    a_cols: Option<(usize, usize)>,
    b_rows: Option<(usize, usize)>,
    warp_frags: &mut [FragValue],
) -> Result<(), SimError> {
    let (ad, bd, dd) = (
        frag_decl(prog, a)?.clone(),
        frag_decl(prog, b)?.clone(),
        frag_decl(prog, d)?.clone(),
    );
    if ad.precision != bd.precision {
        return Err(SimError::ShapeMismatch {
            detail: format!("A is {:?} but B is {:?}", ad.precision, bd.precision),
        });
    }
    let (ac0, ak) = a_cols.unwrap_or((0, ad.cols));
    let (br0, bk) = b_rows.unwrap_or((0, bd.rows));
    if ac0 + ak > ad.cols || br0 + bk > bd.rows {
        return Err(SimError::BadOperand {
            detail: format!(
                "k-slice out of bounds: a[:, {ac0}..{}] of {} cols, b[{br0}..{}, :] of {} rows",
                ac0 + ak,
                ad.cols,
                br0 + bk,
                bd.rows
            ),
        });
    }
    if ak != bk {
        return Err(SimError::ShapeMismatch {
            detail: format!("k extents differ: {ak} vs {bk}"),
        });
    }
    if dd.rows != ad.rows || dd.cols != bd.cols {
        return Err(SimError::ShapeMismatch {
            detail: format!(
                "C is {}x{} but A·B is {}x{}",
                dd.rows, dd.cols, ad.rows, bd.cols
            ),
        });
    }
    shape_for(engine.device, ad.precision).ok_or_else(|| SimError::UnsupportedPrecision {
        device: engine.device.name.to_string(),
        precision: ad.precision.label().to_string(),
    })?;

    let (m, n, k) = (ad.rows, bd.cols, ak);
    let acc = ad.precision.accumulator();
    // All checks passed; take D out so A and B can be borrowed directly.
    // Aliased operands (D doubling as A or B) would see an empty buffer,
    // so they go through copied slices like the simulator.
    if d == a || d == b {
        let a_slice: Vec<f64> = {
            let src = &warp_frags[a].data;
            let mut v = Vec::with_capacity(m * k);
            for r in 0..m {
                v.extend_from_slice(&src[r * ad.cols + ac0..r * ad.cols + ac0 + ak]);
            }
            v
        };
        let b_slice: Vec<f64> = {
            let src = &warp_frags[b].data;
            let mut v = Vec::with_capacity(k * n);
            for r in 0..k {
                v.extend_from_slice(&src[(br0 + r) * bd.cols..(br0 + r) * bd.cols + n]);
            }
            v
        };
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
            &mut warp_frags[d].data,
        );
    } else {
        let mut d_data = std::mem::take(&mut warp_frags[d].data);
        microkernel(
            acc,
            m,
            n,
            k,
            &warp_frags[a].data,
            ad.cols,
            ac0,
            &warp_frags[b].data,
            bd.cols,
            br0,
            &mut d_data,
        );
        warp_frags[d].data = d_data;
    }
    // The accumulator fragment holds values at its own precision — the
    // simulator's post-MMA narrowing, kept verbatim.
    let dp = dd.precision;
    if dp != Precision::Fp64 {
        for x in warp_frags[d].data.iter_mut() {
            *x = dp.round(*x);
        }
    }
    Ok(())
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
    use crate::matrix::Matrix;
    use crate::memory::global::BufferId;
    use crate::passes::{BackendKind, ExecOutcome};
    use crate::program::BlockKernel;

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
        Result<ExecOutcome, SimError>,
        Result<ExecOutcome, SimError>,
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
            let sim = sim.unwrap();
            let nat = nat.unwrap();
            assert_eq!(sim.backend, BackendKind::Sim);
            assert_eq!(nat.backend, BackendKind::Native);
            assert_eq!(nat.fallback_phases, 0, "{prec:?}: safe phases fell back");
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
    fn unsafe_phase_falls_back_and_errors_identically() {
        // Cross-warp smem overlap: both backends must fall back to the
        // serial loop and surface the identical hazard.
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
    fn native_single_warp_safe_phase_skips_fallback() {
        // The reference executor never takes a fast path; the native
        // lean loop takes every conflict-free phase, single-warp ones
        // included, and must still match.
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
        assert_eq!(sim.unwrap().fast_phases, 0);
        assert_eq!(nat.unwrap().fast_phases, 1);
        assert_state_identical(&g_sim, &g_nat);

        // Multi-warp and conflict-free in both phases: disjoint smem
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
        let (sim, nat) = (sim.unwrap(), nat.unwrap());
        assert_eq!(sim.phases, 2);
        assert_eq!(sim.fast_phases, 0);
        assert_eq!(nat.fast_phases, nat.phases);
        assert_state_identical(&g_sim, &g_nat);
    }
}
