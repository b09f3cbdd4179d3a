//! Cost pass: cycle accounting with no matrix data.
//!
//! Walks the planned phase structure in exactly the order the legacy
//! interleaved engine does — phases outermost, warps in order, ops in
//! program order — charging the same tallies (banked shared-memory
//! traffic with overlap invalidation, per-precision tensor-core flops
//! with the busiest-warp term, global bytes from buffer metadata,
//! register copies) through the same [`phase_cost`] bracketing of
//! Formulas 1–12. Every legality check the functional engine performs on
//! the way (uninitialized fragments, shape mismatches, capacity
//! overflows, same-phase races) is replayed on static structure, so the
//! pass returns the identical [`SimError`] at the identical point, and
//! on success the identical [`ExecutionReport`] and [`Trace`].
//!
//! The only inputs are the plan and a [`GmemLayout`] — buffer shapes and
//! precisions. "No numeric work" is structural: there is no value array
//! anywhere in this pass to read.
//!
//! [`CostConfig`](crate::cost::CostConfig) fault injection (θ overrides,
//! MMA efficiency, Serial/Overlap bracketing) therefore acts here and
//! only here: the execute pass never consults the cost model.

use super::PlannedKernel;
use crate::cost::{phase_cost, PhaseCost, PhaseTally};
use crate::engine::{describe_op, detect_races, frag_decl, meta_out_of_range, Engine};
use crate::error::SimError;
use crate::memory::global::GmemLayout;
use crate::memory::shared::SharedMemory;
use crate::program::{Op, WarpProgram};
use crate::report::ExecutionReport;
use crate::trace::{Trace, TraceKind};

/// Fragment-initialization flags of one warp — the cost pass's entire
/// "register file".
type InitFlags = Vec<bool>;

fn require_init_flag(
    init: &InitFlags,
    id: usize,
    warp: usize,
    prog: &WarpProgram,
) -> Result<(), SimError> {
    if id >= init.len() {
        return Err(SimError::BadOperand {
            detail: format!("fragment id {id} out of range"),
        });
    }
    if !init[id] {
        return Err(SimError::UninitializedFragment {
            warp,
            frag: prog.frags[id].name.clone(),
        });
    }
    Ok(())
}

impl<'a> Engine<'a> {
    /// Cost pass: the [`ExecutionReport`] of running `plan` against
    /// buffers shaped like `layout`, with zero numeric work.
    pub fn cost(
        &self,
        plan: &PlannedKernel<'_>,
        layout: &GmemLayout,
    ) -> Result<ExecutionReport, SimError> {
        self.cost_inner(plan, layout, None)
    }

    /// Like [`Self::cost`], additionally producing the per-op [`Trace`].
    pub fn cost_traced(
        &self,
        plan: &PlannedKernel<'_>,
        layout: &GmemLayout,
    ) -> Result<(ExecutionReport, Trace), SimError> {
        let mut trace = Trace {
            device: self.device.name.to_string(),
            mode: Some(self.cost.mode),
            ..Default::default()
        };
        let report = self.cost_inner(plan, layout, Some(&mut trace))?;
        Ok((report, trace))
    }

    fn cost_inner(
        &self,
        plan: &PlannedKernel<'_>,
        layout: &GmemLayout,
        mut trace: Option<&mut Trace>,
    ) -> Result<ExecutionReport, SimError> {
        let p = plan.warps;
        // Shape-mode shared memory: same capacity checks, overlap
        // invalidation, counters, and peak extent — placeholder values.
        let mut smem = SharedMemory::new(self.device.smem_capacity);
        let mut init: Vec<InitFlags> = plan
            .kernel
            .warps
            .iter()
            .map(|w| vec![false; w.frags.len()])
            .collect();

        let mut gmem_read = 0u64;
        let mut gmem_written = 0u64;
        let mut phase_costs: Vec<PhaseCost> = Vec::with_capacity(plan.phases);
        let mut flops_charged = 0u64;

        let mut clock = 0.0f64;
        if let Some(t) = trace.as_deref_mut() {
            t.phase_starts.push(0.0);
        }
        for phase in 0..plan.phases {
            let mut tally = PhaseTally::default();
            let mut writes: Vec<(usize, (usize, usize))> = Vec::new();
            let mut reads: Vec<(usize, (usize, usize))> = Vec::new();
            let mut raw_events: Vec<(usize, TraceKind, u64, String)> = Vec::new();

            #[allow(clippy::needless_range_loop)] // warp id is semantic, not positional
            for w in 0..p {
                let prog = &plan.kernel.warps[w];
                let mut warp_flops: std::collections::BTreeMap<crate::precision::Precision, u64> =
                    std::collections::BTreeMap::new();
                for op in plan.ops(w, phase) {
                    let before = flops_charged;
                    let before_tally = (
                        tally.smem_bytes_written,
                        tally.smem_bytes_read,
                        tally.gmem_bytes,
                    );
                    let mma_prec = if let Op::Mma { a, .. } = *op {
                        prog.frags.get(a).map(|d| d.precision)
                    } else {
                        None
                    };
                    self.cost_op(
                        w,
                        prog,
                        op,
                        layout,
                        &mut smem,
                        &mut init[w],
                        &mut tally,
                        &mut writes,
                        &mut reads,
                        &mut flops_charged,
                        &mut gmem_read,
                        &mut gmem_written,
                    )?;
                    if let Some(prec) = mma_prec {
                        *warp_flops.entry(prec).or_insert(0) += flops_charged - before;
                    }
                    if trace.is_some() {
                        let (kind, detail) = describe_op(prog, op);
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
            gmem_bytes_read: gmem_read,
            gmem_bytes_written: gmem_written,
            registers_per_warp: plan.registers_per_warp.clone(),
        })
    }

    /// Charge one op — the shape-only twin of the functional engine's
    /// `exec_op`, with the same checks in the same order.
    #[allow(clippy::too_many_arguments)]
    fn cost_op(
        &self,
        w: usize,
        prog: &WarpProgram,
        op: &Op,
        layout: &GmemLayout,
        smem: &mut SharedMemory,
        init: &mut InitFlags,
        tally: &mut PhaseTally,
        writes: &mut Vec<(usize, (usize, usize))>,
        reads: &mut Vec<(usize, (usize, usize))>,
        flops_charged: &mut u64,
        gmem_read: &mut u64,
        gmem_written: &mut u64,
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
                let bytes = rows * cols * layout.precision(buf).size_bytes();
                layout.check_read(buf, row0, col0, rows, cols);
                init[dst] = true;
                tally.gmem_bytes += bytes as u64;
                tally.has_gmem_load = true;
                *gmem_read += bytes as u64;
            }
            Op::GlobalStore {
                src,
                buf,
                row0,
                col0,
                accumulate,
            } => {
                require_init_flag(init, src, w, prog)?;
                let d = &prog.frags[src];
                let (rows, cols) = (d.rows, d.cols);
                let bytes = rows * cols * layout.precision(buf).size_bytes();
                layout.check_write(buf, row0, col0, rows, cols);
                *gmem_written += bytes as u64;
                tally.gmem_bytes += bytes as u64;
                if accumulate {
                    // RMW reads too.
                    tally.gmem_bytes += bytes as u64;
                    tally.has_gmem_load = true;
                    *gmem_read += bytes as u64;
                }
            }
            Op::SharedStore { src, addr } => {
                require_init_flag(init, src, w, prog)?;
                let d = &prog.frags[src];
                let elem = d.precision.size_bytes();
                let n = d.elems();
                smem.store_shape(addr, elem, n)
                    .map_err(|detail| SimError::SharedMemoryOverflow { detail })?;
                tally.smem_bytes_written += (n * elem) as u64;
                writes.push((w, (addr, n * elem)));
            }
            Op::SharedLoad { dst, addr } => {
                let decl = frag_decl(prog, dst)?;
                let elem = decl.precision.size_bytes();
                let n = decl.elems();
                smem.load_shape(addr, elem, n)
                    .map_err(|detail| SimError::SharedMemoryFault { warp: w, detail })?;
                init[dst] = true;
                tally.smem_bytes_read += (n * elem) as u64;
                tally.has_smem_load = true;
                reads.push((w, (addr, n * elem)));
            }
            Op::RegCopy { dst, src } => {
                require_init_flag(init, src, w, prog)?;
                let (sr, sc) = {
                    let d = &prog.frags[src];
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
                init[dst] = true;
                tally.reg_copies += 1;
            }
            Op::ZeroAcc { frag } => {
                frag_decl(prog, frag)?;
                init[frag] = true;
            }
            Op::Mma {
                d,
                a,
                b,
                a_cols,
                b_rows,
            } => {
                require_init_flag(init, a, w, prog)?;
                require_init_flag(init, b, w, prog)?;
                require_init_flag(init, d, w, prog)?;
                // The padded flop count never depends on values.
                let mma = self.check_mma(prog, d, a, b, a_cols, b_rows)?;
                let flops = mma.shape.padded_flops(mma.a.rows, mma.b.cols, mma.k);
                tally.add_flops(mma.a.precision, flops);
                *flops_charged += flops;
            }
            Op::Scale { frag, .. } => {
                require_init_flag(init, frag, w, prog)?;
                tally.reg_copies += 1;
            }
            Op::AddAssign { dst, src } => {
                require_init_flag(init, dst, w, prog)?;
                require_init_flag(init, src, w, prog)?;
                let (dd, sd) = (&prog.frags[dst], &prog.frags[src]);
                if (dd.rows, dd.cols) != (sd.rows, sd.cols) {
                    return Err(SimError::BadOperand {
                        detail: format!(
                            "AddAssign shape mismatch: {}x{} += {}x{}",
                            dd.rows, dd.cols, sd.rows, sd.cols
                        ),
                    });
                }
                tally.reg_copies += 1;
            }
            Op::Unary { frag, .. } => {
                require_init_flag(init, frag, w, prog)?;
                tally.reg_copies += 1;
            }
            Op::AddRowBroadcast { dst, src } => {
                require_init_flag(init, dst, w, prog)?;
                require_init_flag(init, src, w, prog)?;
                let (dd, sd) = (&prog.frags[dst], &prog.frags[src]);
                if sd.rows != 1 || sd.cols != dd.cols {
                    return Err(SimError::BadOperand {
                        detail: format!(
                            "AddRowBroadcast needs a 1x{} row, got {}x{}",
                            dd.cols, sd.rows, sd.cols
                        ),
                    });
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
            Op::Barrier => unreachable!("barriers are consumed by the phase structure"),
        }
        Ok(())
    }
}
