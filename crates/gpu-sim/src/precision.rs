//! Numeric precision emulation for tensor-core arithmetic.
//!
//! The simulator stores every value as an `f64` and *quantizes* it to the
//! precision a real tensor core would see on each load, store, and MMA
//! input. This reproduces the numerical behaviour of FP64 / TF32 / FP16 /
//! FP8 (E4M3) tensor-core pipelines without per-bit storage.
//!
//! Accumulation happens at the precision hardware accumulators use:
//! FP64 for FP64 inputs, FP32 for everything else (the NVIDIA `mma`
//! shapes used by the paper — Table 4 — accumulate FP16/TF32/FP8 products
//! in FP32).

use serde::{Deserialize, Serialize};

/// Element precision of a matrix operand as seen by the tensor core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Precision {
    /// IEEE-754 binary64. GH200 tensor cores support it natively.
    Fp64,
    /// IEEE-754 binary32 (used for accumulators and as a CUDA-core type).
    Fp32,
    /// NVIDIA TF32: FP32 range (8-bit exponent) with a 10-bit mantissa.
    Tf32,
    /// IEEE-754 binary16.
    Fp16,
    /// bfloat16: FP32 range (8-bit exponent) with a 7-bit mantissa —
    /// an extension beyond the paper's evaluated set, supported by every
    /// modern tensor pipeline.
    Bf16,
    /// OCP FP8 E4M3 (4-bit exponent, 3-bit mantissa, max finite 448).
    Fp8E4M3,
}

impl Precision {
    /// Size of one element in bytes (`s_e` in the paper's notation).
    ///
    /// TF32 occupies a full 32-bit register lane even though only 19 bits
    /// carry information, exactly as on NVIDIA hardware.
    #[inline]
    pub const fn size_bytes(self) -> usize {
        match self {
            Precision::Fp64 => 8,
            Precision::Fp32 | Precision::Tf32 => 4,
            Precision::Fp16 | Precision::Bf16 => 2,
            Precision::Fp8E4M3 => 1,
        }
    }

    /// The precision used to accumulate products of this input precision.
    #[inline]
    pub const fn accumulator(self) -> Precision {
        match self {
            Precision::Fp64 => Precision::Fp64,
            _ => Precision::Fp32,
        }
    }

    /// Quantize `x` to this precision (round to nearest even), returning
    /// the value as an `f64`.
    #[inline]
    pub fn round(self, x: f64) -> f64 {
        match self {
            Precision::Fp64 => x,
            Precision::Fp32 => x as f32 as f64,
            Precision::Tf32 => round_tf32(x),
            Precision::Fp16 => f64::from(half::f16::from_f64(x)),
            Precision::Bf16 => f64::from(half::bf16::from_f64(x)),
            Precision::Fp8E4M3 => round_fp8_e4m3(x),
        }
    }

    /// Write `src`, whose values are quantized at `from`, into `dst` at
    /// this precision: a plain copy when the two precisions match
    /// (rounding a quantized value is the identity, bit for bit), one
    /// rounding per element otherwise.
    #[inline]
    pub(crate) fn requantize(self, from: Precision, src: &[f64], dst: &mut [f64]) {
        debug_assert_eq!(src.len(), dst.len());
        if self == from {
            dst.copy_from_slice(src);
        } else {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = self.round(s);
            }
        }
    }

    /// Largest finite representable magnitude.
    pub fn max_finite(self) -> f64 {
        match self {
            Precision::Fp64 => f64::MAX,
            Precision::Fp32 => f64::from(f32::MAX),
            // (2 − 2⁻¹⁰)·2¹²⁷: FP32's exponent range, 10 mantissa bits.
            Precision::Tf32 => f64::from(f32::from_bits(0x7F7F_E000)),
            Precision::Fp16 => 65504.0,
            Precision::Bf16 => f64::from(half::bf16::MAX),
            Precision::Fp8E4M3 => 448.0,
        }
    }

    /// Unit roundoff (half ULP at 1.0): bound on the relative error a
    /// single quantization introduces. Used by tests to budget error.
    pub fn unit_roundoff(self) -> f64 {
        match self {
            Precision::Fp64 => f64::EPSILON / 2.0,
            Precision::Fp32 => f64::from(f32::EPSILON) / 2.0,
            Precision::Tf32 => (2.0f64).powi(-11),
            Precision::Fp16 => (2.0f64).powi(-11),
            Precision::Bf16 => (2.0f64).powi(-8),
            Precision::Fp8E4M3 => (2.0f64).powi(-4),
        }
    }

    /// Human-readable label used by the benchmark harness.
    pub fn label(self) -> &'static str {
        match self {
            Precision::Fp64 => "FP64",
            Precision::Fp32 => "FP32",
            Precision::Tf32 => "TF32",
            Precision::Fp16 => "FP16",
            Precision::Bf16 => "BF16",
            Precision::Fp8E4M3 => "FP8",
        }
    }

    /// All precisions the paper evaluates, in its reporting order.
    pub const ALL_EVALUATED: [Precision; 4] = [
        Precision::Fp64,
        Precision::Tf32,
        Precision::Fp16,
        Precision::Fp8E4M3,
    ];
}

/// Round an `f64` to TF32: FP32 exponent range, 10-bit mantissa,
/// round-to-nearest-even on the dropped 13 mantissa bits.
fn round_tf32(x: f64) -> f64 {
    let f = x as f32;
    if !f.is_finite() {
        return f64::from(f);
    }
    let bits = f.to_bits();
    // Keep 10 mantissa bits out of 23: round at bit 13.
    const DROP: u32 = 13;
    let keep_mask: u32 = !((1u32 << DROP) - 1);
    let truncated = bits & keep_mask;
    let remainder = bits & !keep_mask;
    let halfway = 1u32 << (DROP - 1);
    let rounded = if remainder > halfway || (remainder == halfway && (truncated >> DROP) & 1 == 1) {
        // Round up; mantissa overflow naturally carries into the exponent,
        // which is the correct IEEE behaviour (e.g. 1.999.. -> 2.0).
        truncated.wrapping_add(1 << DROP)
    } else {
        truncated
    };
    f64::from(f32::from_bits(rounded))
}

/// Round an `f64` to FP8 E4M3 (OCP spec: bias 7, max finite 448, no inf;
/// NaN maps to NaN; overflow saturates to the max finite value, which is
/// what NVIDIA hardware conversion instructions do by default).
fn round_fp8_e4m3(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    let sign = if x.is_sign_negative() { -1.0 } else { 1.0 };
    let a = x.abs();
    if a == 0.0 {
        return 0.0 * sign;
    }
    const MAX: f64 = 448.0;
    // Smallest normal 2^-6; subnormal step 2^-9.
    const MIN_NORMAL: f64 = 0.015625;
    const SUB_STEP: f64 = 0.001953125; // 2^-9
    if a >= MAX {
        // Saturating conversion; values beyond max+half-step would round
        // to NaN under strict OCP rules, but saturation matches cvt.satfinite.
        return sign * MAX;
    }
    if a < MIN_NORMAL {
        // Subnormal: quantize to multiples of 2^-9, ties to even.
        let q = a / SUB_STEP;
        let r = round_ties_even(q);
        return sign * r * SUB_STEP;
    }
    // Normal: 3 mantissa bits.
    let exp = a.log2().floor();
    let mut e = exp as i32;
    let mut scale = (2.0f64).powi(e);
    // Guard against log2 edge cases at powers of two.
    if a < scale {
        e -= 1;
        scale = (2.0f64).powi(e);
    } else if a >= 2.0 * scale {
        e += 1;
        scale = (2.0f64).powi(e);
    }
    let frac = a / scale; // in [1, 2)
    let q = round_ties_even((frac - 1.0) * 8.0);
    let v = scale * (1.0 + q / 8.0);
    if v > MAX {
        sign * MAX
    } else {
        sign * v
    }
}

#[inline]
fn round_ties_even(x: f64) -> f64 {
    let floor = x.floor();
    let diff = x - floor;
    match diff.partial_cmp(&0.5).expect("finite") {
        std::cmp::Ordering::Greater => floor + 1.0,
        std::cmp::Ordering::Less => floor,
        std::cmp::Ordering::Equal if (floor as i64) % 2 == 0 => floor,
        std::cmp::Ordering::Equal => floor + 1.0,
    }
}

/// Fused multiply-add at a given accumulator precision:
/// `round_acc(a*b + c)` with the product formed exactly in f64.
///
/// This mirrors tensor-core dot-product units, which keep products at
/// higher precision and round once per accumulation step.
#[inline]
pub fn fma_acc(acc_prec: Precision, a: f64, b: f64, c: f64) -> f64 {
    acc_prec.round(a.mul_add(b, c))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_match_hardware() {
        assert_eq!(Precision::Fp64.size_bytes(), 8);
        assert_eq!(Precision::Fp32.size_bytes(), 4);
        assert_eq!(Precision::Tf32.size_bytes(), 4);
        assert_eq!(Precision::Fp16.size_bytes(), 2);
        assert_eq!(Precision::Fp8E4M3.size_bytes(), 1);
    }

    #[test]
    fn fp64_round_is_identity() {
        for &x in &[0.0, 1.0, -3.25, 1e300, f64::MIN_POSITIVE] {
            assert_eq!(Precision::Fp64.round(x), x);
        }
    }

    #[test]
    fn fp16_rounds_via_half() {
        assert_eq!(Precision::Fp16.round(1.0), 1.0);
        assert_eq!(Precision::Fp16.round(65504.0), 65504.0);
        // 1 + 2^-11 is exactly half-way between 1.0 and the next f16; RNE -> 1.0.
        assert_eq!(Precision::Fp16.round(1.0 + (2.0f64).powi(-11)), 1.0);
        // Just above half-way rounds up to 1 + 2^-10.
        let up = Precision::Fp16.round(1.0 + (2.0f64).powi(-11) * 1.01);
        assert_eq!(up, 1.0 + (2.0f64).powi(-10));
        assert!(Precision::Fp16.round(1e10).is_infinite());
    }

    #[test]
    fn tf32_keeps_ten_mantissa_bits() {
        // 1 + 2^-10 is representable.
        let x = 1.0 + (2.0f64).powi(-10);
        assert_eq!(Precision::Tf32.round(x), x);
        // 1 + 2^-11 is exactly halfway; ties-to-even keeps 1.0.
        assert_eq!(Precision::Tf32.round(1.0 + (2.0f64).powi(-11)), 1.0);
        // 1 + 3*2^-11 is halfway, rounds to even = 1 + 2^-9... check monotone.
        let y = Precision::Tf32.round(1.0 + 3.0 * (2.0f64).powi(-11));
        assert_eq!(y, 1.0 + (2.0f64).powi(-9));
        // TF32 retains FP32 range.
        assert!(Precision::Tf32.round(1e38).is_finite());
    }

    #[test]
    fn tf32_mantissa_rounding_carries_into_exponent() {
        // Just below 2.0: must round UP to exactly 2.0, not a garbled value.
        let x = 2.0 - (2.0f64).powi(-12);
        assert_eq!(Precision::Tf32.round(x), 2.0);
    }

    #[test]
    fn fp8_e4m3_representable_values() {
        for &x in &[0.0, 1.0, -1.0, 448.0, -448.0, 0.5, 1.75, 240.0] {
            assert_eq!(Precision::Fp8E4M3.round(x), x, "x={x}");
        }
    }

    #[test]
    fn fp8_e4m3_saturates() {
        assert_eq!(Precision::Fp8E4M3.round(1e6), 448.0);
        assert_eq!(Precision::Fp8E4M3.round(-1e6), -448.0);
    }

    #[test]
    fn fp8_e4m3_subnormals() {
        let step = 0.001953125; // 2^-9
        assert_eq!(Precision::Fp8E4M3.round(step), step);
        assert_eq!(Precision::Fp8E4M3.round(step * 1.4), step);
        assert_eq!(Precision::Fp8E4M3.round(step * 1.6), 2.0 * step);
        assert_eq!(Precision::Fp8E4M3.round(step * 0.4), 0.0);
    }

    #[test]
    fn fp8_e4m3_rounding_monotone() {
        let mut prev = -449.0;
        let mut x = -448.0;
        while x <= 448.0 {
            let r = Precision::Fp8E4M3.round(x);
            assert!(r >= prev, "non-monotone at {x}: {r} < {prev}");
            prev = r;
            x += 0.37;
        }
    }

    #[test]
    fn fp8_powers_of_two_exact() {
        // Exercise the log2 edge-case guard at exact powers of two.
        for e in -6..=8 {
            let x = (2.0f64).powi(e);
            assert_eq!(Precision::Fp8E4M3.round(x), x, "2^{e}");
        }
    }

    #[test]
    fn max_finite_is_finite_and_representable() {
        for p in Precision::ALL_EVALUATED {
            let top = p.max_finite();
            assert!(top.is_finite(), "{p:?}: {top}");
            assert_eq!(p.round(top), top, "{p:?}");
        }
        // TF32 keeps FP32's exponent range with 10 mantissa bits.
        assert_eq!(
            Precision::Tf32.max_finite(),
            (2.0 - 2f64.powi(-10)) * 2f64.powi(127)
        );
    }

    #[test]
    fn quantization_error_within_unit_roundoff() {
        for p in Precision::ALL_EVALUATED {
            let u = p.unit_roundoff();
            let mut x = 1.0;
            while x < p.max_finite().min(1e4) {
                let r = p.round(x);
                let rel = ((r - x) / x).abs();
                assert!(rel <= u * 1.0001, "{p:?}: x={x} r={r} rel={rel} u={u}");
                x *= 1.337;
            }
        }
    }

    #[test]
    fn bf16_keeps_fp32_range_with_coarse_mantissa() {
        // Representable: 1 + 2^-7.
        let x = 1.0 + (2.0f64).powi(-7);
        assert_eq!(Precision::Bf16.round(x), x);
        // Below resolution: rounds away.
        assert_eq!(Precision::Bf16.round(1.0 + (2.0f64).powi(-9)), 1.0);
        // FP32-range value survives (would overflow FP16).
        assert!(Precision::Bf16.round(1e20).is_finite());
        assert_eq!(Precision::Bf16.size_bytes(), 2);
        assert_eq!(Precision::Bf16.accumulator(), Precision::Fp32);
    }

    #[test]
    fn fma_accumulates_at_requested_precision() {
        // In FP32 accumulation, adding 1e-9 to 1.0 is lost; FP64 keeps it.
        let got32 = fma_acc(Precision::Fp32, 1.0, 1e-9, 1.0);
        assert_eq!(got32, 1.0);
        let got64 = fma_acc(Precision::Fp64, 1.0, 1e-9, 1.0);
        assert!(got64 > 1.0);
    }

    #[test]
    fn accumulator_map() {
        assert_eq!(Precision::Fp64.accumulator(), Precision::Fp64);
        assert_eq!(Precision::Fp16.accumulator(), Precision::Fp32);
        assert_eq!(Precision::Fp8E4M3.accumulator(), Precision::Fp32);
        assert_eq!(Precision::Tf32.accumulator(), Precision::Fp32);
    }
}
