//! Warp-register matrix fragments.
//!
//! A fragment is a small matrix tile distributed across the 32 threads of
//! a warp and living entirely in registers — the WMMA/MMA fragment
//! abstraction of CUDA/HIP/SYCL (Table 4: `Register` / `fragment` /
//! `joint_matrix`). The simulator models a fragment at warp granularity:
//! one row-major value buffer plus the register cost it induces per thread.
//!
//! **Fragments are quantized at rest.** Every value a fragment holds is
//! already quantized at its declared precision: registers hold the
//! stored type, and every op that writes a fragment leaves its result
//! there. Global buffers and shared memory keep the same invariant for
//! their own precisions (an upload quantizes, a global store rounds, a
//! shared store records the precision its values were stored at). So
//! the execute pass rounds only where a value crosses into a different
//! precision — a load or copy between two precisions, an arithmetic
//! result, an MMA whose D is stored at another precision than its
//! accumulator — and moves a value that stays at its precision as a
//! plain copy. That is bit-identical to rounding on every move because
//! every [`Precision::round`] is idempotent on its own outputs, signed
//! zeros and NaN payloads included (pinned by the native backend's
//! tests).

use crate::precision::Precision;
use serde::{Deserialize, Serialize};

/// Identifier of a fragment within one warp's program.
pub type FragId = usize;

/// Static declaration of a fragment (shape + precision + debug name).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FragDecl {
    pub rows: usize,
    pub cols: usize,
    pub precision: Precision,
    /// Debug label, e.g. `"Ai"`, `"BRecv"` — matches the paper's notation.
    pub name: String,
}

impl FragDecl {
    pub fn new(name: impl Into<String>, rows: usize, cols: usize, precision: Precision) -> Self {
        FragDecl {
            rows,
            cols,
            precision,
            name: name.into(),
        }
    }

    /// Total bytes the fragment occupies across the warp.
    #[inline]
    pub fn bytes(&self) -> usize {
        self.rows * self.cols * self.precision.size_bytes()
    }

    /// Architectural registers per thread this fragment consumes:
    /// bytes spread over `warp_size` threads, in `reg_width`-byte registers,
    /// rounded up (hardware allocates whole registers).
    pub fn regs_per_thread(&self, warp_size: u32, reg_width: u32) -> u32 {
        let per_thread_bytes = self.bytes().div_ceil(warp_size as usize);
        per_thread_bytes.div_ceil(reg_width as usize) as u32
    }

    #[inline]
    pub fn elems(&self) -> usize {
        self.rows * self.cols
    }
}

/// Runtime storage of a fragment's values (row-major, quantized at
/// `decl.precision` — see the module docs).
#[derive(Debug, Clone)]
pub struct FragValue {
    pub decl: FragDecl,
    pub data: Vec<f64>,
    /// Whether the fragment has been written at least once. Reading an
    /// uninitialized fragment is a program bug the engine reports.
    pub initialized: bool,
}

impl FragValue {
    pub fn new(decl: FragDecl) -> Self {
        let n = decl.elems();
        FragValue {
            decl,
            data: vec![0.0; n],
            initialized: false,
        }
    }

    /// Overwrite contents with `src`'s values (same element count) in
    /// place: a plain copy when the precisions match, one rounding per
    /// element into this fragment's precision otherwise.
    pub(crate) fn copy_from(&mut self, src: &FragValue) {
        let (to, from) = (self.decl.precision, src.decl.precision);
        to.requantize(from, &src.data, &mut self.data);
        self.initialized = true;
    }

    /// Zero-fill (accumulator initialisation).
    pub fn zero(&mut self) {
        self.data.fill(0.0);
        self.initialized = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_and_registers() {
        // 16x16 FP16 = 512 B over 32 threads = 16 B/thread = 4 registers.
        let d = FragDecl::new("Ai", 16, 16, Precision::Fp16);
        assert_eq!(d.bytes(), 512);
        assert_eq!(d.regs_per_thread(32, 4), 4);
        // 8x8 FP64 = 512 B -> same.
        let d = FragDecl::new("Ci", 8, 8, Precision::Fp64);
        assert_eq!(d.regs_per_thread(32, 4), 4);
        // Tiny fragment still costs one whole register.
        let d = FragDecl::new("t", 1, 1, Precision::Fp16);
        assert_eq!(d.regs_per_thread(32, 4), 1);
    }

    #[test]
    fn paper_register_example() {
        // §4.7: three 128×128 FP64 matrices over 8 warps (256 threads)
        // need 3·128·128·2 ÷ 256 = 384 regs/thread. Each warp holds 1/8 of
        // each matrix: 128·128/8 elements · 8 B = 16384 B -> 128 regs/thread
        // per matrix, 384 for three.
        let per_warp_elems = 128 * 128 / 8;
        let d = FragDecl::new("Ai", per_warp_elems, 1, Precision::Fp64);
        assert_eq!(d.regs_per_thread(32, 4) * 3, 384);
    }

    #[test]
    fn copy_from_rounds_only_across_precisions() {
        let mut wide = FragValue::new(FragDecl::new("w", 1, 2, Precision::Fp32));
        wide.data = vec![1.0, 1.0 + (2.0f64).powi(-13)];
        wide.initialized = true;
        let mut narrow = FragValue::new(FragDecl::new("x", 1, 2, Precision::Fp16));
        assert!(!narrow.initialized);
        narrow.copy_from(&wide);
        assert!(narrow.initialized);
        assert_eq!(narrow.data, vec![1.0, 1.0]);
        let mut same = FragValue::new(FragDecl::new("y", 1, 2, Precision::Fp32));
        same.copy_from(&wide);
        assert_eq!(same.data, wide.data);
    }

    #[test]
    fn zero_initializes() {
        let mut f = FragValue::new(FragDecl::new("c", 2, 2, Precision::Fp32));
        f.zero();
        assert!(f.initialized);
        assert!(f.data.iter().all(|&x| x == 0.0));
    }
}
