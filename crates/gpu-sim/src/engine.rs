//! Block-kernel engine: static analysis and the functional op.
//!
//! [`Engine`] owns the device and cost model every pass runs under. This
//! module holds what the passes share about single ops — the functional
//! op step `exec_op` (values really move between global memory, shared
//! memory and register fragments; tensor cores perform real quantized
//! arithmetic), the MMA legality checks, the uninitialized-fragment
//! check — plus the register analyses, and the oracle [`Engine::run`]:
//! [`Engine::plan`] followed by the accounting walk of
//! [`crate::passes`] with the functional op.
//!
//! Legality checks mirror the CUDA programming model:
//! * all warps must reach the same number of barriers,
//! * cross-warp shared-memory communication must be separated by a
//!   barrier (same-phase write/read overlaps are flagged as races),
//! * fragments must be written before read,
//! * register and shared-memory footprints must fit the device.

use crate::cost::CostConfig;
use crate::device::DeviceSpec;
use crate::error::SimError;
use crate::fragment::{FragDecl, FragValue};
use crate::memory::global::GlobalMemory;
use crate::memory::regfile::{self, LiveRange, RegisterUsage};
use crate::passes::walk::Walk;
use crate::passes::{native, BackendKind};
use crate::program::{BlockKernel, Op, UnaryFunc, WarpProgram};
use crate::report::ExecutionReport;
use crate::tensor_core::{mma_fragment, shape_for, MmaShape};
use crate::trace::Trace;

/// Executes block kernels on one simulated SM of a device.
pub struct Engine<'a> {
    pub device: &'a DeviceSpec,
    pub cost: CostConfig,
}

impl<'a> Engine<'a> {
    pub fn new(device: &'a DeviceSpec) -> Self {
        Engine {
            device,
            cost: CostConfig::default(),
        }
    }

    pub fn with_cost(device: &'a DeviceSpec, cost: CostConfig) -> Self {
        Engine { device, cost }
    }

    /// Register usage of each warp, independent of resource limits
    /// (used by the Fig 14 harness, which plots demand *beyond* the
    /// 255-register ceiling).
    pub fn analyze_registers(&self, kernel: &BlockKernel) -> Vec<RegisterUsage> {
        kernel
            .warps
            .iter()
            .map(|w| {
                let ranges = live_ranges(w);
                regfile::analyze(
                    &w.frags,
                    &ranges,
                    self.device.warp_size,
                    self.device.reg_width_bytes,
                    w.ops.len(),
                )
            })
            .collect()
    }

    /// Register usage under an *optimizing-compiler* model: loads are
    /// sunk to first use, accumulators materialize at their first MMA,
    /// and fragments that are only ever read through column slices
    /// (`mma_a_cols`) are allocated chunk by chunk, each chunk live only
    /// while its slices are in use. This reproduces the gap between the
    /// naive "theoretical" register demand and the compiler-measured
    /// allocation of the paper's Fig 14 ("shortening variable lifetimes
    /// and optimizing register reuse", §5.6.1).
    ///
    /// The conservative analysis ([`Self::analyze_registers`]) remains
    /// the feasibility check — KAMI does not *rely* on the compiler
    /// finding these reuses (that is what the §4.7 shared-memory
    /// fallback is for).
    pub fn analyze_registers_lazy(&self, kernel: &BlockKernel) -> Vec<u32> {
        kernel
            .warps
            .iter()
            .map(|w| lazy_register_usage(w, self.device.warp_size, self.device.reg_width_bytes))
            .collect()
    }

    /// Run the kernel to completion; returns the cycle/traffic report.
    /// Global buffers in `gmem` are mutated by `GlobalStore` ops.
    ///
    /// The differential oracle: [`Self::plan`], then the cost pass's
    /// accounting walk stepping with the functional op on the reference
    /// MMA, so values move while the walk charges them. The split
    /// pipeline ([`Self::plan`] → [`Self::cost`] → [`Self::execute_with`],
    /// or [`Self::run_kernel`] for the one-call form) produces
    /// bit-identical results and reports on every backend; `kami-verify`'s
    /// `ExecParity` check holds the two op semantics together, and
    /// `tests/data/engine_golden.json` pins the walk.
    pub fn run(
        &self,
        kernel: &BlockKernel,
        gmem: &mut GlobalMemory,
    ) -> Result<ExecutionReport, SimError> {
        self.run_inner(kernel, gmem, None)
    }

    /// Like [`Self::run`], additionally producing a per-op
    /// [`Trace`] laid out on the simulated clock (exportable to
    /// `chrome://tracing` via [`Trace::to_chrome_json`]).
    pub fn run_traced(
        &self,
        kernel: &BlockKernel,
        gmem: &mut GlobalMemory,
    ) -> Result<(ExecutionReport, Trace), SimError> {
        self.traced(|trace| self.run_inner(kernel, gmem, trace))
    }

    fn run_inner(
        &self,
        kernel: &BlockKernel,
        gmem: &mut GlobalMemory,
        trace: Option<&mut Trace>,
    ) -> Result<ExecutionReport, SimError> {
        let plan = self.plan(kernel)?;
        let mut frags = fresh_frags(kernel);
        self.account(&plan, trace, |w, prog, op, walk| {
            self.exec_op(BackendKind::Sim, w, prog, op, gmem, &mut frags[w], walk)
        })
    }

    /// Execute one op of warp `w` with full functional semantics. The
    /// backend picks only the MMA body (see [`Self::exec_mma`]); every
    /// check, message and traffic counter is shared.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn exec_op(
        &self,
        backend: BackendKind,
        w: usize,
        prog: &WarpProgram,
        op: &Op,
        gmem: &mut GlobalMemory,
        warp_frags: &mut [FragValue],
        walk: &mut Walk,
    ) -> Result<(), SimError> {
        match *op {
            Op::GlobalLoad {
                dst,
                buf,
                row0,
                col0,
            } => {
                let decl = frag_decl(prog, dst)?;
                let (rows, cols, prec) = (decl.rows, decl.cols, decl.precision);
                let bytes = rows * cols * gmem.precision(buf).size_bytes();
                let frag = &mut warp_frags[dst];
                gmem.read_window_into(buf, row0, col0, rows, cols, prec, &mut frag.data);
                frag.initialized = true;
                walk.charge_global_load(bytes);
            }
            Op::GlobalStore {
                src,
                buf,
                row0,
                col0,
                accumulate,
            } => {
                require_init(warp_frags, src, w, prog)?;
                let (rows, cols) = (warp_frags[src].decl.rows, warp_frags[src].decl.cols);
                let bytes = rows * cols * gmem.precision(buf).size_bytes();
                gmem.write_window(
                    buf,
                    row0,
                    col0,
                    rows,
                    cols,
                    &warp_frags[src].data,
                    accumulate,
                );
                walk.charge_global_store(bytes, accumulate);
            }
            Op::SharedStore { src, addr } => {
                require_init(warp_frags, src, w, prog)?;
                let frag = &warp_frags[src];
                let prec = frag.decl.precision;
                walk.smem
                    .store(addr, prec, &frag.data)
                    .map_err(|detail| SimError::SharedMemoryOverflow { detail })?;
                walk.charge_smem_write(w, addr, frag.decl.elems() * prec.size_bytes());
            }
            Op::SharedLoad { dst, addr } => {
                let prec = frag_decl(prog, dst)?.precision;
                let frag = &mut warp_frags[dst];
                walk.smem
                    .load(addr, prec, &mut frag.data)
                    .map_err(|detail| SimError::SharedMemoryFault { warp: w, detail })?;
                frag.initialized = true;
                walk.charge_smem_read(w, addr, frag.data.len() * prec.size_bytes());
            }
            Op::RegCopy { dst, src } => {
                require_init(warp_frags, src, w, prog)?;
                let (sr, sc) = (warp_frags[src].decl.rows, warp_frags[src].decl.cols);
                let dd = frag_decl(prog, dst)?;
                if (dd.rows, dd.cols) != (sr, sc) {
                    return Err(SimError::BadOperand {
                        detail: format!(
                            "RegCopy shape mismatch: {}x{} -> {}x{}",
                            sr, sc, dd.rows, dd.cols
                        ),
                    });
                }
                // A copy of a fragment onto itself changes nothing.
                if let (d, Some(s)) = frag_pair(warp_frags, dst, src) {
                    d.copy_from(s);
                }
                walk.tally.reg_copies += 1;
            }
            Op::ZeroAcc { frag } => {
                frag_decl(prog, frag)?;
                warp_frags[frag].zero();
            }
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
                self.exec_mma(backend, prog, d, a, b, a_cols, b_rows, warp_frags, walk)?;
            }
            Op::Scale { frag, factor } => {
                require_init(warp_frags, frag, w, prog)?;
                let prec = warp_frags[frag].decl.precision;
                for x in warp_frags[frag].data.iter_mut() {
                    *x = prec.round(*x * factor);
                }
                walk.tally.reg_copies += 1;
            }
            Op::AddAssign { dst, src } => {
                require_init(warp_frags, dst, w, prog)?;
                require_init(warp_frags, src, w, prog)?;
                let (dd, sd) = (&warp_frags[dst].decl, &warp_frags[src].decl);
                if (dd.rows, dd.cols) != (sd.rows, sd.cols) {
                    return Err(SimError::BadOperand {
                        detail: format!(
                            "AddAssign shape mismatch: {}x{} += {}x{}",
                            dd.rows, dd.cols, sd.rows, sd.cols
                        ),
                    });
                }
                add_tiled(warp_frags, dst, src);
                walk.tally.reg_copies += 1;
            }
            Op::Unary { frag, func } => {
                require_init(warp_frags, frag, w, prog)?;
                let prec = warp_frags[frag].decl.precision;
                let cols = warp_frags[frag].decl.cols;
                match func {
                    UnaryFunc::Relu => {
                        for x in warp_frags[frag].data.iter_mut() {
                            *x = prec.round(x.max(0.0));
                        }
                    }
                    UnaryFunc::Gelu => {
                        for x in warp_frags[frag].data.iter_mut() {
                            *x = prec.round(crate::program::gelu(*x));
                        }
                    }
                    UnaryFunc::Softmax { scale } => {
                        for row in warp_frags[frag].data.chunks_mut(cols) {
                            let max = row
                                .iter()
                                .map(|x| scale * x)
                                .fold(f64::NEG_INFINITY, f64::max);
                            let exps: Vec<f64> =
                                row.iter().map(|x| (scale * x - max).exp()).collect();
                            let sum: f64 = exps.iter().sum();
                            for (x, e) in row.iter_mut().zip(exps) {
                                *x = prec.round(e / sum);
                            }
                        }
                    }
                }
                walk.tally.reg_copies += 1;
            }
            Op::AddRowBroadcast { dst, src } => {
                require_init(warp_frags, dst, w, prog)?;
                require_init(warp_frags, src, w, prog)?;
                let (dd, sd) = (&warp_frags[dst].decl, &warp_frags[src].decl);
                if sd.rows != 1 || sd.cols != dd.cols {
                    return Err(SimError::BadOperand {
                        detail: format!(
                            "AddRowBroadcast needs a 1x{} row, got {}x{}",
                            dd.cols, sd.rows, sd.cols
                        ),
                    });
                }
                add_tiled(warp_frags, dst, src);
                walk.tally.reg_copies += 1;
            }
            Op::MetaStore { addr, bytes } => walk.meta(w, addr, bytes, false)?,
            Op::MetaLoad { addr, bytes } => walk.meta(w, addr, bytes, true)?,
            Op::Barrier => unreachable!("barriers are consumed by the phase loop"),
        }
        Ok(())
    }

    /// Fragment MMA `d += a[:, a_cols] · b[b_rows, :]`: the legality
    /// checks, then the body of the selected backend — the reference
    /// slice extraction plus [`mma_fragment`] for [`BackendKind::Sim`],
    /// the strided host microkernel of [`crate::passes::native`] for
    /// [`BackendKind::Native`]. Both accumulate in the same order with
    /// the same roundings, so they leave identical bits.
    #[allow(clippy::too_many_arguments)]
    fn exec_mma(
        &self,
        backend: BackendKind,
        prog: &WarpProgram,
        d: usize,
        a: usize,
        b: usize,
        a_cols: Option<(usize, usize)>,
        b_rows: Option<(usize, usize)>,
        warp_frags: &mut [FragValue],
        walk: &mut Walk,
    ) -> Result<(), SimError> {
        let MmaOperands {
            a: ad,
            b: bd,
            d: dd,
            ac0,
            br0,
            k,
            shape,
        } = self.check_mma(prog, d, a, b, a_cols, b_rows)?;
        let (m, n) = (ad.rows, bd.cols);
        let flops = match backend {
            BackendKind::Sim => {
                // Extract the k-slices row-major.
                let a_slice = k_slice(&warp_frags[a].data, ad.cols, ac0, m, k);
                let b_slice = k_slice(&warp_frags[b].data, bd.cols, br0 * bd.cols, k, n);
                mma_fragment(
                    shape,
                    ad.precision,
                    m,
                    n,
                    k,
                    &a_slice,
                    &b_slice,
                    &mut warp_frags[d].data,
                )
            }
            BackendKind::Native => {
                let acc = ad.precision.accumulator();
                native::mma(
                    acc, m, n, k, warp_frags, d, a, ad.cols, ac0, b, bd.cols, br0,
                );
                shape.padded_flops(m, n, k)
            }
        };
        // Both bodies round every step at the accumulator precision, so
        // D needs narrowing only when it is stored at another precision.
        let dp = dd.precision;
        if dp != ad.precision.accumulator() {
            for x in warp_frags[d].data.iter_mut() {
                *x = dp.round(*x);
            }
        }
        walk.add_mma_flops(ad.precision, flops);
        Ok(())
    }

    /// The legality checks of one MMA `d += a[:, a_cols] · b[b_rows, :]`,
    /// shared by [`Self::exec_mma`] and the cost pass, in order: A and B
    /// precisions match, the k-slices fit (an overflowing end included),
    /// their extents agree, C is `A·B`-shaped, and the device has an MMA
    /// shape for the precision.
    pub(crate) fn check_mma<'p>(
        &self,
        prog: &'p WarpProgram,
        d: usize,
        a: usize,
        b: usize,
        a_cols: Option<(usize, usize)>,
        b_rows: Option<(usize, usize)>,
    ) -> Result<MmaOperands<'p>, SimError> {
        let (ad, bd, dd) = (
            frag_decl(prog, a)?,
            frag_decl(prog, b)?,
            frag_decl(prog, d)?,
        );
        if ad.precision != bd.precision {
            return Err(SimError::ShapeMismatch {
                detail: format!("A is {:?} but B is {:?}", ad.precision, bd.precision),
            });
        }
        let (ac0, ak) = a_cols.unwrap_or((0, ad.cols));
        let (br0, bk) = b_rows.unwrap_or((0, bd.rows));
        let (a_end, b_end) = (ac0.checked_add(ak), br0.checked_add(bk));
        if a_end.is_none_or(|e| e > ad.cols) || b_end.is_none_or(|e| e > bd.rows) {
            let end = |lo: usize, len: usize| {
                lo.checked_add(len)
                    .map_or_else(|| format!("{lo}+{len}"), |e| e.to_string())
            };
            return Err(SimError::BadOperand {
                detail: format!(
                    "k-slice out of bounds: a[:, {ac0}..{}] of {} cols, b[{br0}..{}, :] of {} rows",
                    end(ac0, ak),
                    ad.cols,
                    end(br0, bk),
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
        let shape =
            shape_for(self.device, ad.precision).ok_or_else(|| SimError::UnsupportedPrecision {
                device: self.device.name.to_string(),
                precision: ad.precision.label().to_string(),
            })?;
        Ok(MmaOperands {
            a: ad,
            b: bd,
            d: dd,
            ac0,
            br0,
            k: ak,
            shape,
        })
    }
}

/// A legal MMA's operands ([`Engine::check_mma`]): `d[m×n] +=
/// a[:, ac0..ac0+k] · b[br0..br0+k, :]` on the device's `shape`.
pub(crate) struct MmaOperands<'p> {
    pub(crate) a: &'p FragDecl,
    pub(crate) b: &'p FragDecl,
    pub(crate) d: &'p FragDecl,
    pub(crate) ac0: usize,
    pub(crate) br0: usize,
    pub(crate) k: usize,
    pub(crate) shape: MmaShape,
}

pub(crate) fn frag_decl(prog: &WarpProgram, id: usize) -> Result<&FragDecl, SimError> {
    prog.frags.get(id).ok_or_else(|| SimError::BadOperand {
        detail: format!(
            "fragment id {id} out of range ({} declared)",
            prog.frags.len()
        ),
    })
}

/// Whether a fragment has been written: the functional engine's
/// [`FragValue`] flag, or the cost pass's bare flag.
pub(crate) trait Written {
    fn written(&self) -> bool;
}

impl Written for FragValue {
    fn written(&self) -> bool {
        self.initialized
    }
}

impl Written for bool {
    fn written(&self) -> bool {
        *self
    }
}

/// The uninitialized-fragment check of every op that reads fragment
/// `id` of warp `warp`.
pub(crate) fn require_init(
    frags: &[impl Written],
    id: usize,
    warp: usize,
    prog: &WarpProgram,
) -> Result<(), SimError> {
    let frag = frags.get(id).ok_or_else(|| SimError::BadOperand {
        detail: format!("fragment id {id} out of range"),
    })?;
    if !frag.written() {
        return Err(SimError::UninitializedFragment {
            warp,
            frag: prog.frags[id].name.clone(),
        });
    }
    Ok(())
}

/// Fragment `dst` to write beside fragment `src` to read, borrowed at
/// once with no copy of either; `None` for the source when both name
/// the same fragment, whose values the caller then reads through the
/// destination.
fn frag_pair(
    frags: &mut [FragValue],
    dst: usize,
    src: usize,
) -> (&mut FragValue, Option<&FragValue>) {
    if dst < src {
        let (lo, hi) = frags.split_at_mut(src);
        (&mut lo[dst], Some(&hi[0]))
    } else if src < dst {
        let (lo, hi) = frags.split_at_mut(dst);
        (&mut hi[0], Some(&lo[src]))
    } else {
        (&mut frags[dst], None)
    }
}

/// `dst[i] = round(dst[i] + src[i mod len(src)])` at `dst`'s precision:
/// `AddAssign` (same shape) and `AddRowBroadcast` (one row added to
/// every row), reading `src` in place. With `dst == src` each element
/// is added to itself, the bits a copy of `src` would give, since every
/// element reads only its own source element.
fn add_tiled(frags: &mut [FragValue], dst: usize, src: usize) {
    let (d, s) = frag_pair(frags, dst, src);
    let prec = d.decl.precision;
    match s {
        Some(s) => {
            for chunk in d.data.chunks_mut(s.data.len().max(1)) {
                for (x, &y) in chunk.iter_mut().zip(&s.data) {
                    *x = prec.round(*x + y);
                }
            }
        }
        None => {
            for x in d.data.iter_mut() {
                *x = prec.round(*x + *x);
            }
        }
    }
}

/// Every warp's declared fragments, uninitialized: a kernel's fresh
/// register state.
pub(crate) fn fresh_frags(kernel: &BlockKernel) -> Vec<Vec<FragValue>> {
    kernel
        .warps
        .iter()
        .map(|w| w.frags.iter().cloned().map(FragValue::new).collect())
        .collect()
}

/// Copy `rows` windows of `width` values, row `r` starting at
/// `src[r * stride + offset]`, into one row-major buffer: an MMA
/// operand's k-slice.
pub(crate) fn k_slice(
    src: &[f64],
    stride: usize,
    offset: usize,
    rows: usize,
    width: usize,
) -> Vec<f64> {
    let mut v = Vec::with_capacity(rows * width);
    for r in 0..rows {
        let start = r * stride + offset;
        v.extend_from_slice(&src[start..start + width]);
    }
    v
}

/// Per-fragment access events for the lazy register model.
#[derive(Clone, Copy)]
enum Access {
    Def,
    ReadFull,
    ReadCols(usize, usize),
}

/// Peak registers per thread under the lazy model (see
/// [`Engine::analyze_registers_lazy`]).
fn lazy_register_usage(prog: &WarpProgram, warp_size: u32, reg_width: u32) -> u32 {
    use std::collections::BTreeMap;
    let mut events: Vec<Vec<(usize, Access)>> = vec![Vec::new(); prog.frags.len()];
    for (idx, op) in prog.ops.iter().enumerate() {
        match *op {
            Op::GlobalLoad { dst, .. } | Op::SharedLoad { dst, .. } | Op::ZeroAcc { frag: dst } => {
                events[dst].push((idx, Access::Def))
            }
            Op::GlobalStore { src, .. } | Op::SharedStore { src, .. } => {
                events[src].push((idx, Access::ReadFull))
            }
            Op::RegCopy { dst, src } => {
                events[dst].push((idx, Access::Def));
                events[src].push((idx, Access::ReadFull));
            }
            Op::Scale { frag, .. } | Op::Unary { frag, .. } => {
                events[frag].push((idx, Access::ReadFull))
            }
            Op::AddAssign { dst, src } | Op::AddRowBroadcast { dst, src } => {
                events[dst].push((idx, Access::ReadFull));
                events[src].push((idx, Access::ReadFull));
            }
            Op::Mma {
                d,
                a,
                b,
                a_cols,
                b_rows,
            } => {
                events[d].push((idx, Access::ReadFull));
                match a_cols {
                    Some((c0, nc)) => events[a].push((idx, Access::ReadCols(c0, nc))),
                    None => events[a].push((idx, Access::ReadFull)),
                }
                // Row slices of B shrink along k as well, but rows are the
                // leading dimension; treat them like full reads (they are
                // received per stage anyway).
                let _ = b_rows;
                events[b].push((idx, Access::ReadFull));
            }
            Op::MetaStore { .. } | Op::MetaLoad { .. } | Op::Barrier => {}
        }
    }

    // Allocation units: (regs, live_from, live_to).
    let mut units: Vec<(u32, usize, usize)> = Vec::new();
    for (frag, evs) in prog.frags.iter().zip(&events) {
        if evs.is_empty() {
            continue;
        }
        let reads: Vec<&(usize, Access)> = evs
            .iter()
            .filter(|(_, a)| !matches!(a, Access::Def))
            .collect();
        let all_sliced =
            !reads.is_empty() && reads.iter().all(|(_, a)| matches!(a, Access::ReadCols(..)));
        if all_sliced {
            // Chunked allocation: group reads by column interval.
            let mut chunks: BTreeMap<(usize, usize), (usize, usize)> = BTreeMap::new();
            for &&(idx, ref a) in &reads {
                if let Access::ReadCols(c0, nc) = *a {
                    let e = chunks.entry((c0, nc)).or_insert((idx, idx));
                    e.0 = e.0.min(idx);
                    e.1 = e.1.max(idx);
                }
            }
            for (&(_, nc), &(from, to)) in &chunks {
                let bytes = frag.rows * nc * frag.precision.size_bytes();
                let regs = bytes
                    .div_ceil(warp_size as usize)
                    .div_ceil(reg_width as usize) as u32;
                units.push((regs, from, to));
            }
        } else {
            // Whole fragment, loads sunk to first use when one exists.
            let from = reads
                .iter()
                .map(|(i, _)| *i)
                .min()
                .unwrap_or_else(|| evs.iter().map(|(i, _)| *i).min().unwrap());
            let to = evs.iter().map(|(i, _)| *i).max().unwrap();
            units.push((frag.regs_per_thread(warp_size, reg_width), from.min(to), to));
        }
    }

    let mut peak = 0u32;
    for point in 0..prog.ops.len().max(1) {
        let live: u32 = units
            .iter()
            .filter(|&&(_, f, t)| f <= point && point <= t)
            .map(|&(r, _, _)| r)
            .sum();
        peak = peak.max(live);
    }
    peak
}

/// Live ranges of each fragment of a warp program (op-index granularity).
fn live_ranges(prog: &WarpProgram) -> Vec<Option<LiveRange>> {
    let mut ranges: Vec<Option<LiveRange>> = vec![None; prog.frags.len()];
    let touch =
        |frag: usize, idx: usize, ranges: &mut Vec<Option<LiveRange>>| match &mut ranges[frag] {
            Some(r) => {
                r.first_def = r.first_def.min(idx);
                r.last_use = r.last_use.max(idx);
            }
            None => {
                ranges[frag] = Some(LiveRange {
                    first_def: idx,
                    last_use: idx,
                })
            }
        };
    for (idx, op) in prog.ops.iter().enumerate() {
        match *op {
            Op::GlobalLoad { dst, .. } | Op::SharedLoad { dst, .. } | Op::ZeroAcc { frag: dst } => {
                touch(dst, idx, &mut ranges)
            }
            Op::GlobalStore { src, .. } | Op::SharedStore { src, .. } => {
                touch(src, idx, &mut ranges)
            }
            Op::RegCopy { dst, src } => {
                touch(dst, idx, &mut ranges);
                touch(src, idx, &mut ranges);
            }
            Op::Scale { frag, .. } | Op::Unary { frag, .. } => touch(frag, idx, &mut ranges),
            Op::AddAssign { dst, src } | Op::AddRowBroadcast { dst, src } => {
                touch(dst, idx, &mut ranges);
                touch(src, idx, &mut ranges);
            }
            Op::Mma { d, a, b, .. } => {
                touch(d, idx, &mut ranges);
                touch(a, idx, &mut ranges);
                touch(b, idx, &mut ranges);
            }
            Op::MetaStore { .. } | Op::MetaLoad { .. } | Op::Barrier => {}
        }
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::gh200;
    use crate::matrix::Matrix;
    use crate::precision::Precision;
    use crate::program::BlockKernel;

    fn tiny_gemm_kernel(
        gmem: &mut GlobalMemory,
        p: usize,
        n: usize,
    ) -> (BlockKernel, crate::memory::global::BufferId) {
        // Every warp computes the whole C = A*B redundantly except warp 0
        // stores. Not a KAMI algorithm — just engine exercise.
        let a = Matrix::seeded_uniform(n, n, 1);
        let b = Matrix::seeded_uniform(n, n, 2);
        let ab = gmem.upload("A", &a, Precision::Fp64);
        let bb = gmem.upload("B", &b, Precision::Fp64);
        let cb = gmem.alloc_zeroed("C", n, n, Precision::Fp64);
        let k = BlockKernel::spmd(p, |i, w| {
            let fa = w.frag("A", n, n, Precision::Fp64);
            let fb = w.frag("B", n, n, Precision::Fp64);
            let fc = w.frag("C", n, n, Precision::Fp64);
            w.global_load(fa, ab, 0, 0);
            w.global_load(fb, bb, 0, 0);
            w.zero_acc(fc);
            w.mma(fc, fa, fb);
            w.barrier();
            if i == 0 {
                w.global_store(fc, cb, 0, 0);
            }
        });
        (k, cb)
    }

    #[test]
    fn functional_gemm_matches_reference() {
        let dev = gh200();
        let mut gmem = GlobalMemory::new();
        let (k, cb) = tiny_gemm_kernel(&mut gmem, 2, 8);
        let rep = Engine::new(&dev).run(&k, &mut gmem).unwrap();
        assert!(rep.cycles > 0.0);
        let a = Matrix::seeded_uniform(8, 8, 1);
        let b = Matrix::seeded_uniform(8, 8, 2);
        let c = gmem.download(cb);
        let mut want = Matrix::zeros(8, 8);
        for i in 0..8 {
            for j in 0..8 {
                let mut s = 0.0f64;
                for l in 0..8 {
                    s = a[(i, l)].mul_add(b[(l, j)], s);
                }
                want[(i, j)] = s;
            }
        }
        assert!(c.max_abs_diff(&want) < 1e-12);
    }

    #[test]
    fn barrier_mismatch_detected() {
        let dev = gh200();
        let k = BlockKernel::spmd(2, |i, w| {
            let f = w.frag("x", 1, 1, Precision::Fp32);
            w.zero_acc(f);
            if i == 0 {
                w.barrier();
            }
        });
        let mut gmem = GlobalMemory::new();
        assert!(matches!(
            Engine::new(&dev).run(&k, &mut gmem),
            Err(SimError::BarrierMismatch { .. })
        ));
    }

    #[test]
    fn same_phase_race_detected() {
        let dev = gh200();
        let k = BlockKernel::spmd(2, |i, w| {
            let f = w.frag("x", 1, 1, Precision::Fp32);
            w.zero_acc(f);
            if i == 0 {
                w.shared_store(f, 0);
            } else {
                w.shared_load(f, 0);
            }
        });
        let mut gmem = GlobalMemory::new();
        assert!(matches!(
            Engine::new(&dev).run(&k, &mut gmem),
            Err(SimError::SharedMemoryHazard { .. })
        ));
    }

    #[test]
    fn barrier_separated_exchange_is_legal() {
        let dev = gh200();
        let k = BlockKernel::spmd(2, |i, w| {
            let f = w.frag("x", 4, 4, Precision::Fp16);
            w.zero_acc(f);
            if i == 0 {
                w.shared_store(f, 0);
            }
            w.barrier();
            if i == 1 {
                w.shared_load(f, 0);
            }
        });
        let mut gmem = GlobalMemory::new();
        let rep = Engine::new(&dev).run(&k, &mut gmem).unwrap();
        assert_eq!(rep.smem_bytes_written, 32);
        assert_eq!(rep.smem_bytes_read, 32);
        // Store phase: 32/128 cycles; load phase: 22 + 32/128.
        assert!((rep.totals.comm - (22.0 + 0.5)).abs() < 1e-9);
    }

    #[test]
    fn uninitialized_fragment_read_detected() {
        let dev = gh200();
        let k = BlockKernel::spmd(1, |_, w| {
            let f = w.frag("x", 1, 1, Precision::Fp32);
            w.shared_store(f, 0);
        });
        let mut gmem = GlobalMemory::new();
        assert!(matches!(
            Engine::new(&dev).run(&k, &mut gmem),
            Err(SimError::UninitializedFragment { .. })
        ));
    }

    #[test]
    fn register_overflow_detected() {
        let dev = gh200();
        // One warp holding a 256x128 FP64 fragment: 262144 B / 32 threads
        // / 4 B = 2048 regs >> 255.
        let k = BlockKernel::spmd(1, |_, w| {
            let f = w.frag("huge", 256, 128, Precision::Fp64);
            w.zero_acc(f);
        });
        let mut gmem = GlobalMemory::new();
        assert!(matches!(
            Engine::new(&dev).run(&k, &mut gmem),
            Err(SimError::RegisterOverflow { .. })
        ));
    }

    #[test]
    fn mma_shape_mismatch_detected() {
        let dev = gh200();
        let k = BlockKernel::spmd(1, |_, w| {
            let a = w.frag("a", 4, 8, Precision::Fp16);
            let b = w.frag("b", 4, 4, Precision::Fp16); // k mismatch: 8 vs 4
            let c = w.frag("c", 4, 4, Precision::Fp32);
            w.zero_acc(a);
            w.zero_acc(b);
            w.zero_acc(c);
            w.mma(c, a, b);
        });
        let mut gmem = GlobalMemory::new();
        assert!(matches!(
            Engine::new(&dev).run(&k, &mut gmem),
            Err(SimError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn unsupported_precision_detected() {
        let dev = crate::device::amd_7900xtx();
        let k = BlockKernel::spmd(1, |_, w| {
            let a = w.frag("a", 4, 4, Precision::Fp64);
            let b = w.frag("b", 4, 4, Precision::Fp64);
            let c = w.frag("c", 4, 4, Precision::Fp64);
            w.zero_acc(a);
            w.zero_acc(b);
            w.zero_acc(c);
            w.mma(c, a, b);
        });
        let mut gmem = GlobalMemory::new();
        assert!(matches!(
            Engine::new(&dev).run(&k, &mut gmem),
            Err(SimError::UnsupportedPrecision { .. })
        ));
    }

    #[test]
    fn sliced_mma_uses_submatrix() {
        let dev = gh200();
        let mut gmem = GlobalMemory::new();
        let a = Matrix::from_fn(2, 4, |r, c| (r * 4 + c) as f64);
        let b = Matrix::from_fn(2, 2, |r, c| if r == c { 1.0 } else { 0.0 });
        let ab = gmem.upload("A", &a, Precision::Fp64);
        let bb = gmem.upload("B", &b, Precision::Fp64);
        let cb = gmem.alloc_zeroed("C", 2, 2, Precision::Fp64);
        let k = BlockKernel::spmd(1, |_, w| {
            let fa = w.frag("A", 2, 4, Precision::Fp64);
            let fb = w.frag("B", 2, 2, Precision::Fp64);
            let fc = w.frag("C", 2, 2, Precision::Fp64);
            w.global_load(fa, ab, 0, 0);
            w.global_load(fb, bb, 0, 0);
            w.zero_acc(fc);
            // C += A[:, 2..4] * I
            w.mma_a_cols(fc, fa, fb, 2, 2);
            w.global_store(fc, cb, 0, 0);
        });
        Engine::new(&dev).run(&k, &mut gmem).unwrap();
        let c = gmem.download(cb);
        assert_eq!(c[(0, 0)], 2.0);
        assert_eq!(c[(0, 1)], 3.0);
        assert_eq!(c[(1, 0)], 6.0);
        assert_eq!(c[(1, 1)], 7.0);
    }

    #[test]
    fn run_traced_produces_a_consistent_timeline() {
        let dev = gh200();
        let mut gmem = GlobalMemory::new();
        let (k, _) = tiny_gemm_kernel(&mut gmem, 2, 8);
        let (report, trace) = Engine::new(&dev).run_traced(&k, &mut gmem).unwrap();
        // Trace clock spans exactly the reported cycles.
        assert!((trace.total_cycles() - report.cycles).abs() < 1e-9);
        // One phase boundary per phase, plus the end marker.
        assert_eq!(trace.phase_starts.len(), report.phase_costs.len() + 1);
        // Events never start before their phase.
        for e in &trace.events {
            assert!(e.start + 1e-9 >= trace.phase_starts[e.phase], "{e:?}");
        }
        // Both warps ran MMAs; warp 0 stored the result.
        assert!(trace.cycles_by_kind(crate::trace::TraceKind::Mma) > 0.0);
        assert!(trace
            .warp_events(0)
            .any(|e| e.kind == crate::trace::TraceKind::GlobalStore));
        // Chrome export parses.
        assert!(trace.to_chrome_json().starts_with('['));
    }

    #[test]
    fn live_range_reuse_lowers_measured_registers() {
        let dev = gh200();
        // Two large fragments with disjoint lifetimes.
        let k = BlockKernel::spmd(1, |_, w| {
            let f1 = w.frag("f1", 32, 32, Precision::Fp32);
            let f2 = w.frag("f2", 32, 32, Precision::Fp32);
            w.zero_acc(f1);
            w.shared_store(f1, 0);
            w.zero_acc(f2);
            w.shared_store(f2, 4096);
        });
        let usage = Engine::new(&dev).analyze_registers(&k);
        assert_eq!(usage[0].theoretical_regs, 64);
        assert_eq!(usage[0].measured_regs, 32);
    }
}
