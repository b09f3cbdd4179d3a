//! Phase-stepped block executor.
//!
//! Executes a [`BlockKernel`] with full functional semantics (values
//! actually move between global memory, shared memory, and register
//! fragments; tensor cores perform real quantized arithmetic) while
//! tallying the resource use that [`crate::cost`] converts to cycles.
//!
//! Legality checks mirror the CUDA programming model:
//! * all warps must reach the same number of barriers,
//! * cross-warp shared-memory communication must be separated by a
//!   barrier (same-phase write/read overlaps are flagged as races),
//! * fragments must be written before read,
//! * register and shared-memory footprints must fit the device.

use crate::cost::{phase_cost, CostConfig, PhaseCost, PhaseTally};
use crate::device::DeviceSpec;
use crate::error::SimError;
use crate::fragment::{FragDecl, FragValue};
use crate::memory::global::GlobalMemory;
use crate::memory::regfile::{self, LiveRange, RegisterUsage};
use crate::memory::shared::SharedMemory;
use crate::passes::{native, BackendKind};
use crate::program::{BlockKernel, Op, UnaryFunc, WarpProgram};
use crate::report::ExecutionReport;
use crate::tensor_core::{mma_fragment, shape_for, MmaShape};
use crate::trace::{Trace, TraceEvent, TraceKind};

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
    /// This is the legacy single-loop interpreter that interleaves cycle
    /// accounting with functional numerics op by op. The split pipeline
    /// ([`Self::plan`] → [`Self::cost`] → [`Self::execute_with`], or
    /// [`Self::run_kernel`] for the one-call form) produces bit-identical
    /// results and reports on every backend; this path is kept as the
    /// differential oracle (`kami-verify`'s `ExecParity` check holds the
    /// two together).
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
        let mut trace = Trace {
            device: self.device.name.to_string(),
            mode: Some(self.cost.mode),
            ..Default::default()
        };
        let report = self.run_inner(kernel, gmem, Some(&mut trace))?;
        Ok((report, trace))
    }

    fn run_inner(
        &self,
        kernel: &BlockKernel,
        gmem: &mut GlobalMemory,
        mut trace: Option<&mut Trace>,
    ) -> Result<ExecutionReport, SimError> {
        let p = kernel.num_warps();
        let max_warps = self.device.max_warps_per_block() as usize;
        if p == 0 || p > max_warps {
            return Err(SimError::BadWarpCount {
                warps: p,
                max: max_warps,
            });
        }

        // Barrier alignment.
        let expected_phases = kernel.warps[0].barrier_count() + 1;
        for (i, w) in kernel.warps.iter().enumerate() {
            let phases = w.barrier_count() + 1;
            if phases != expected_phases {
                return Err(SimError::BarrierMismatch {
                    warp: i,
                    phases,
                    expected: expected_phases,
                });
            }
        }

        // Register budget.
        let registers_per_warp = self.analyze_registers(kernel);
        for (i, usage) in registers_per_warp.iter().enumerate() {
            if usage.measured_regs > self.device.max_regs_per_thread {
                return Err(SimError::RegisterOverflow {
                    warp: i,
                    needed: usage.measured_regs,
                    limit: self.device.max_regs_per_thread,
                });
            }
        }

        let (mut smem, mut frags) = self.kernel_state(kernel);
        // Per-warp cursor into its op list.
        let mut cursors = vec![0usize; p];

        let gmem_read0 = gmem.bytes_read();
        let gmem_written0 = gmem.bytes_written();

        let mut phase_costs: Vec<PhaseCost> = Vec::with_capacity(expected_phases);
        let mut flops_charged = 0u64;

        let mut clock = 0.0f64;
        if let Some(t) = trace.as_deref_mut() {
            t.phase_starts.push(0.0);
        }
        for phase in 0..expected_phases {
            let mut tally = PhaseTally::default();
            // (warp, byte range) pairs for race detection.
            let mut writes: Vec<(usize, (usize, usize))> = Vec::new();
            let mut reads: Vec<(usize, (usize, usize))> = Vec::new();
            // Raw per-op records for the trace: (warp, kind, amount, detail).
            let mut raw_events: Vec<(usize, TraceKind, u64, String)> = Vec::new();

            #[allow(clippy::needless_range_loop)] // warp id is semantic, not positional
            for w in 0..p {
                let prog = &kernel.warps[w];
                let mut warp_flops: std::collections::BTreeMap<crate::precision::Precision, u64> =
                    std::collections::BTreeMap::new();
                loop {
                    if cursors[w] >= prog.ops.len() {
                        break;
                    }
                    let op = prog.ops[cursors[w]].clone();
                    cursors[w] += 1;
                    if matches!(op, Op::Barrier) {
                        break;
                    }
                    let before = flops_charged;
                    let before_tally = (
                        tally.smem_bytes_written,
                        tally.smem_bytes_read,
                        tally.gmem_bytes,
                    );
                    let mma_prec = if let Op::Mma { a, .. } = op {
                        prog.frags.get(a).map(|d| d.precision)
                    } else {
                        None
                    };
                    self.exec_op(
                        BackendKind::Sim,
                        w,
                        prog,
                        &op,
                        gmem,
                        &mut smem,
                        &mut frags[w],
                        &mut tally,
                        &mut writes,
                        &mut reads,
                        &mut flops_charged,
                    )?;
                    if let Some(prec) = mma_prec {
                        *warp_flops.entry(prec).or_insert(0) += flops_charged - before;
                    }
                    if trace.is_some() {
                        let (kind, detail) = describe_op(prog, &op);
                        let amount = match op {
                            Op::Mma { .. } => flops_charged - before,
                            Op::GlobalLoad { .. } | Op::GlobalStore { .. } => {
                                tally.gmem_bytes - before_tally.2
                            }
                            _ => {
                                (tally.smem_bytes_written - before_tally.0)
                                    + (tally.smem_bytes_read - before_tally.1)
                            }
                        };
                        raw_events.push((w, kind, amount, detail));
                    }
                }
                for (prec, total) in warp_flops {
                    tally.note_warp_flops(prec, total);
                }
            }

            // Same-phase cross-warp race detection.
            detect_races(&writes, &reads)?;

            let pc = phase_cost(self.device, &self.cost, &tally)?;
            if let Some(t) = trace.as_deref_mut() {
                self.layout_phase_trace(t, phase, clock, &raw_events);
            }
            clock += pc.cycles(self.cost.mode);
            if let Some(t) = trace.as_deref_mut() {
                t.phase_starts.push(clock);
            }
            phase_costs.push(pc);
        }

        let mut totals = PhaseCost::default();
        for pc in &phase_costs {
            totals.accumulate(pc);
        }
        let cycles = phase_costs.iter().map(|c| c.cycles(self.cost.mode)).sum();

        Ok(ExecutionReport {
            device_name: self.device.name.to_string(),
            warps: p,
            mode: self.cost.mode,
            phase_costs,
            totals,
            cycles,
            flops_charged,
            smem_bytes_written: smem.bytes_written(),
            smem_bytes_read: smem.bytes_read(),
            smem_extent: smem.peak_extent(),
            gmem_bytes_read: gmem.bytes_read() - gmem_read0,
            gmem_bytes_written: gmem.bytes_written() - gmem_written0,
            registers_per_warp,
        })
    }

    /// Fresh runtime state of one kernel: empty shared memory plus every
    /// warp's declared fragments, uninitialized.
    pub(crate) fn kernel_state(&self, kernel: &BlockKernel) -> (SharedMemory, Vec<Vec<FragValue>>) {
        let smem = SharedMemory::new(self.device.smem_capacity);
        let frags = kernel
            .warps
            .iter()
            .map(|w| w.frags.iter().cloned().map(FragValue::new).collect())
            .collect();
        (smem, frags)
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
        smem: &mut SharedMemory,
        warp_frags: &mut [FragValue],
        tally: &mut PhaseTally,
        writes: &mut Vec<(usize, (usize, usize))>,
        reads: &mut Vec<(usize, (usize, usize))>,
        flops_charged: &mut u64,
    ) -> Result<(), SimError> {
        match *op {
            Op::GlobalLoad {
                dst,
                buf,
                row0,
                col0,
            } => {
                let decl = frag_decl(prog, dst)?;
                let (rows, cols) = (decl.rows, decl.cols);
                let bytes = rows * cols * gmem.precision(buf).size_bytes();
                let values = gmem.read_window(buf, row0, col0, rows, cols);
                warp_frags[dst].store(&values);
                tally.gmem_bytes += bytes as u64;
                tally.has_gmem_load = true;
            }
            Op::GlobalStore {
                src,
                buf,
                row0,
                col0,
                accumulate,
            } => {
                require_init(warp_frags, src, w, prog)?;
                let (rows, cols) = {
                    let d = &warp_frags[src].decl;
                    (d.rows, d.cols)
                };
                let bytes = rows * cols * gmem.precision(buf).size_bytes();
                let data = warp_frags[src].data.clone();
                gmem.write_window(buf, row0, col0, rows, cols, &data, accumulate);
                tally.gmem_bytes += bytes as u64;
                if accumulate {
                    // RMW reads too.
                    tally.gmem_bytes += bytes as u64;
                    tally.has_gmem_load = true;
                }
            }
            Op::SharedStore { src, addr } => {
                require_init(warp_frags, src, w, prog)?;
                let elem = warp_frags[src].decl.precision.size_bytes();
                let n = warp_frags[src].decl.elems();
                let data = warp_frags[src].data.clone();
                smem.store(addr, elem, &data)
                    .map_err(|detail| SimError::SharedMemoryOverflow { detail })?;
                tally.smem_bytes_written += (n * elem) as u64;
                writes.push((w, (addr, n * elem)));
            }
            Op::SharedLoad { dst, addr } => {
                let decl = frag_decl(prog, dst)?;
                let elem = decl.precision.size_bytes();
                let n = decl.elems();
                let values = smem
                    .load(addr, elem, n)
                    .map_err(|detail| SimError::SharedMemoryFault { warp: w, detail })?;
                warp_frags[dst].store(&values);
                tally.smem_bytes_read += (n * elem) as u64;
                tally.has_smem_load = true;
                reads.push((w, (addr, n * elem)));
            }
            Op::RegCopy { dst, src } => {
                require_init(warp_frags, src, w, prog)?;
                let (sr, sc) = {
                    let d = &warp_frags[src].decl;
                    (d.rows, d.cols)
                };
                let dd = frag_decl(prog, dst)?;
                if (dd.rows, dd.cols) != (sr, sc) {
                    return Err(SimError::BadOperand {
                        detail: format!(
                            "RegCopy shape mismatch: {}x{} -> {}x{}",
                            sr, sc, dd.rows, dd.cols
                        ),
                    });
                }
                let data = warp_frags[src].data.clone();
                warp_frags[dst].store(&data);
                tally.reg_copies += 1;
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
                let flops =
                    self.exec_mma(backend, prog, d, a, b, a_cols, b_rows, warp_frags, tally)?;
                *flops_charged += flops;
            }
            Op::Scale { frag, factor } => {
                require_init(warp_frags, frag, w, prog)?;
                let prec = warp_frags[frag].decl.precision;
                for x in warp_frags[frag].data.iter_mut() {
                    *x = prec.round(*x * factor);
                }
                tally.reg_copies += 1;
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
                let prec = warp_frags[dst].decl.precision;
                let src_data = warp_frags[src].data.clone();
                for (x, s) in warp_frags[dst].data.iter_mut().zip(src_data) {
                    *x = prec.round(*x + s);
                }
                tally.reg_copies += 1;
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
                tally.reg_copies += 1;
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
                let prec = warp_frags[dst].decl.precision;
                let cols = warp_frags[dst].decl.cols;
                let row = warp_frags[src].data.clone();
                for chunk in warp_frags[dst].data.chunks_mut(cols) {
                    for (x, b) in chunk.iter_mut().zip(&row) {
                        *x = prec.round(*x + b);
                    }
                }
                tally.reg_copies += 1;
            }
            Op::MetaStore { addr, bytes } => {
                if meta_out_of_range(addr, bytes, smem.capacity()) {
                    return Err(SimError::SharedMemoryOverflow {
                        detail: format!("metadata at {addr}+{bytes} exceeds {} B", smem.capacity()),
                    });
                }
                tally.smem_bytes_written += bytes as u64;
                writes.push((w, (addr, bytes)));
            }
            Op::MetaLoad { addr, bytes } => {
                if meta_out_of_range(addr, bytes, smem.capacity()) {
                    return Err(SimError::SharedMemoryFault {
                        warp: w,
                        detail: format!(
                            "metadata read at {addr}+{bytes} exceeds {} B",
                            smem.capacity()
                        ),
                    });
                }
                tally.smem_bytes_read += bytes as u64;
                tally.has_smem_load = true;
                reads.push((w, (addr, bytes)));
            }
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
        tally: &mut PhaseTally,
    ) -> Result<u64, SimError> {
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
        // The accumulator fragment holds values at its own precision.
        let dp = dd.precision;
        for x in warp_frags[d].data.iter_mut() {
            *x = dp.round(*x);
        }
        tally.add_flops(ad.precision, flops);
        Ok(flops)
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

    /// Lay one phase's raw op records onto the simulated clock: each
    /// warp's ops run back to back from the phase start, each op sized by
    /// its standalone cost (bytes over bandwidth, flops over one tensor
    /// core, latency on the first load of the phase).
    pub(crate) fn layout_phase_trace(
        &self,
        trace: &mut Trace,
        phase: usize,
        phase_start: f64,
        raw: &[(usize, TraceKind, u64, String)],
    ) {
        let b_sm = self.device.smem_bytes_per_cycle();
        let mut offsets: std::collections::BTreeMap<usize, f64> = std::collections::BTreeMap::new();
        let mut first_load: std::collections::BTreeMap<usize, bool> =
            std::collections::BTreeMap::new();
        for (warp, kind, amount, detail) in raw {
            let off = offsets.entry(*warp).or_insert(0.0);
            let dur = match kind {
                TraceKind::SharedStore | TraceKind::Meta => *amount as f64 / b_sm,
                TraceKind::SharedLoad => {
                    let fl = first_load.entry(*warp).or_insert(true);
                    let lat = if *fl {
                        self.device.smem_latency as f64
                    } else {
                        0.0
                    };
                    *fl = false;
                    lat + *amount as f64 / b_sm
                }
                TraceKind::GlobalLoad => {
                    self.device.gmem_latency as f64
                        + *amount as f64 / self.device.gmem_bytes_per_cycle
                }
                TraceKind::GlobalStore => *amount as f64 / self.device.gmem_bytes_per_cycle,
                TraceKind::RegCopy => self.device.reg_latency as f64,
                TraceKind::Mma => {
                    // One warp feeds one tensor core; the duration uses
                    // the device's FP16 rate as a visualization scale
                    // (per-precision rates differ by a constant factor).
                    let per_tc = self
                        .device
                        .ops_per_cycle_per_tc(crate::precision::Precision::Fp16)
                        .or_else(|| {
                            self.device
                                .ops_per_cycle_per_tc(crate::precision::Precision::Fp64)
                        })
                        .unwrap_or(1.0);
                    *amount as f64 / per_tc
                }
                TraceKind::Barrier => 0.0,
            };
            trace.events.push(TraceEvent {
                warp: *warp,
                phase,
                kind: *kind,
                amount: *amount,
                start: phase_start + *off,
                duration: dur,
                detail: detail.clone(),
            });
            *off += dur;
        }
    }
}

/// Trace kind + human-readable detail of one op.
pub(crate) fn describe_op(prog: &WarpProgram, op: &Op) -> (TraceKind, String) {
    let name = |id: usize| {
        prog.frags
            .get(id)
            .map(|f| f.name.clone())
            .unwrap_or_else(|| format!("frag{id}"))
    };
    match *op {
        Op::GlobalLoad { dst, .. } => (TraceKind::GlobalLoad, name(dst)),
        Op::GlobalStore {
            src, accumulate, ..
        } => (
            TraceKind::GlobalStore,
            if accumulate {
                format!("{} (accumulate)", name(src))
            } else {
                name(src)
            },
        ),
        Op::SharedStore { src, addr } => {
            (TraceKind::SharedStore, format!("{} @{}", name(src), addr))
        }
        Op::SharedLoad { dst, addr } => (TraceKind::SharedLoad, format!("{} @{}", name(dst), addr)),
        Op::RegCopy { dst, src } => (
            TraceKind::RegCopy,
            format!("{} <- {}", name(dst), name(src)),
        ),
        Op::ZeroAcc { frag } => (TraceKind::RegCopy, format!("zero {}", name(frag))),
        Op::Mma { d, a, b, .. } => (
            TraceKind::Mma,
            format!("{} += {} x {}", name(d), name(a), name(b)),
        ),
        Op::Scale { frag, factor } => (TraceKind::RegCopy, format!("{} *= {factor}", name(frag))),
        Op::AddAssign { dst, src } => (
            TraceKind::RegCopy,
            format!("{} += {}", name(dst), name(src)),
        ),
        Op::Unary { frag, func } => {
            let f = match func {
                UnaryFunc::Relu => "relu".to_string(),
                UnaryFunc::Gelu => "gelu".to_string(),
                UnaryFunc::Softmax { scale } => format!("softmax[{scale}]"),
            };
            (TraceKind::RegCopy, format!("{f}({})", name(frag)))
        }
        Op::AddRowBroadcast { dst, src } => (
            TraceKind::RegCopy,
            format!("{} += row {}", name(dst), name(src)),
        ),
        Op::MetaStore { bytes, .. } => (TraceKind::Meta, format!("meta store {bytes} B")),
        Op::MetaLoad { bytes, .. } => (TraceKind::Meta, format!("meta load {bytes} B")),
        Op::Barrier => (TraceKind::Barrier, String::new()),
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

fn require_init(
    warp_frags: &[FragValue],
    id: usize,
    warp: usize,
    prog: &WarpProgram,
) -> Result<(), SimError> {
    let fv = warp_frags.get(id).ok_or_else(|| SimError::BadOperand {
        detail: format!("fragment id {id} out of range"),
    })?;
    if !fv.initialized {
        return Err(SimError::UninitializedFragment {
            warp,
            frag: prog.frags[id].name.clone(),
        });
    }
    Ok(())
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

/// `true` when the metadata range `addr..addr + bytes` does not fit in
/// `capacity` bytes of shared memory (an overflowing end included).
pub(crate) fn meta_out_of_range(addr: usize, bytes: usize, capacity: usize) -> bool {
    addr.checked_add(bytes).is_none_or(|end| end > capacity)
}

fn overlap(a: (usize, usize), b: (usize, usize)) -> bool {
    a.0 < b.0 + b.1 && b.0 < a.0 + a.1
}

pub(crate) fn detect_races(
    writes: &[(usize, (usize, usize))],
    reads: &[(usize, (usize, usize))],
) -> Result<(), SimError> {
    for &(ww, wr) in writes {
        for &(rw, rr) in reads {
            if ww != rw && overlap(wr, rr) {
                return Err(SimError::SharedMemoryHazard {
                    detail: format!(
                        "warp {ww} writes bytes {}..{} while warp {rw} reads {}..{} \
                         in the same phase",
                        wr.0,
                        wr.0 + wr.1,
                        rr.0,
                        rr.0 + rr.1
                    ),
                });
            }
        }
        for &(ow, or) in writes {
            if ww < ow && overlap(wr, or) {
                return Err(SimError::SharedMemoryHazard {
                    detail: format!(
                        "warps {ww} and {ow} both write overlapping bytes \
                         {}..{} / {}..{} in the same phase",
                        wr.0,
                        wr.0 + wr.1,
                        or.0,
                        or.0 + or.1
                    ),
                });
            }
        }
    }
    Ok(())
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
