//! Cost pass: cycle accounting with no matrix data.
//!
//! The accounting walk of `passes/walk.rs` — the one the oracle
//! [`Engine::run`] runs — stepping with the shape-only op `cost_op`: it
//! charges the same tallies as the functional op (banked shared-memory
//! traffic with overlap invalidation, per-precision tensor-core flops,
//! global bytes from buffer metadata, register copies) and replays every
//! legality check on static structure (uninitialized fragments, shape
//! mismatches, capacity overflows), so the pass returns the identical
//! [`SimError`] at the identical point, and on success the identical
//! [`ExecutionReport`] and [`Trace`]. `ExecParity` holds the two op
//! semantics together.
//!
//! The only inputs are the plan and a [`GmemLayout`] — buffer shapes and
//! precisions. "No numeric work" is structural: there is no value array
//! anywhere in this pass to read.
//!
//! [`CostConfig`](crate::cost::CostConfig) fault injection (θ overrides,
//! MMA efficiency, Serial/Overlap bracketing) therefore acts here and
//! only here: the execute pass never consults the cost model.

use super::walk::Walk;
use super::PlannedKernel;
use crate::engine::{frag_decl, require_init, Engine};
use crate::error::SimError;
use crate::memory::global::GmemLayout;
use crate::program::{Op, WarpProgram};
use crate::report::ExecutionReport;
use crate::trace::Trace;

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
        self.traced(|trace| self.cost_inner(plan, layout, trace))
    }

    fn cost_inner(
        &self,
        plan: &PlannedKernel<'_>,
        layout: &GmemLayout,
        trace: Option<&mut Trace>,
    ) -> Result<ExecutionReport, SimError> {
        // Fragment-initialization flags — the pass's entire register file.
        let mut init: Vec<Vec<bool>> = plan
            .kernel
            .warps
            .iter()
            .map(|w| vec![false; w.frags.len()])
            .collect();
        self.account(plan, trace, |w, prog, op, walk| {
            self.cost_op(w, prog, op, layout, &mut init[w], walk)
        })
    }

    /// Charge one op — the shape-only twin of the functional engine's
    /// `exec_op`, with the same checks in the same order.
    fn cost_op(
        &self,
        w: usize,
        prog: &WarpProgram,
        op: &Op,
        layout: &GmemLayout,
        init: &mut [bool],
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
                let (rows, cols) = (decl.rows, decl.cols);
                let bytes = rows * cols * layout.precision(buf).size_bytes();
                layout.check_read(buf, row0, col0, rows, cols);
                init[dst] = true;
                walk.charge_global_load(bytes);
            }
            Op::GlobalStore {
                src,
                buf,
                row0,
                col0,
                accumulate,
            } => {
                require_init(init, src, w, prog)?;
                let d = &prog.frags[src];
                let (rows, cols) = (d.rows, d.cols);
                let bytes = rows * cols * layout.precision(buf).size_bytes();
                layout.check_write(buf, row0, col0, rows, cols);
                walk.charge_global_store(bytes, accumulate);
            }
            Op::SharedStore { src, addr } => {
                require_init(init, src, w, prog)?;
                let d = &prog.frags[src];
                let elem = d.precision.size_bytes();
                let n = d.elems();
                walk.smem
                    .store_shape(addr, elem, n)
                    .map_err(|detail| SimError::SharedMemoryOverflow { detail })?;
                walk.charge_smem_write(w, addr, n * elem);
            }
            Op::SharedLoad { dst, addr } => {
                let decl = frag_decl(prog, dst)?;
                let elem = decl.precision.size_bytes();
                let n = decl.elems();
                walk.smem
                    .load_shape(addr, elem, n)
                    .map_err(|detail| SimError::SharedMemoryFault { warp: w, detail })?;
                init[dst] = true;
                walk.charge_smem_read(w, addr, n * elem);
            }
            Op::RegCopy { dst, src } => {
                require_init(init, src, w, prog)?;
                let (sr, sc) = (prog.frags[src].rows, prog.frags[src].cols);
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
                walk.tally.reg_copies += 1;
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
                require_init(init, a, w, prog)?;
                require_init(init, b, w, prog)?;
                require_init(init, d, w, prog)?;
                // The padded flop count never depends on values.
                let mma = self.check_mma(prog, d, a, b, a_cols, b_rows)?;
                let flops = mma.shape.padded_flops(mma.a.rows, mma.b.cols, mma.k);
                walk.add_mma_flops(mma.a.precision, flops);
            }
            Op::Scale { frag, .. } => {
                require_init(init, frag, w, prog)?;
                walk.tally.reg_copies += 1;
            }
            Op::AddAssign { dst, src } => {
                require_init(init, dst, w, prog)?;
                require_init(init, src, w, prog)?;
                let (dd, sd) = (&prog.frags[dst], &prog.frags[src]);
                if (dd.rows, dd.cols) != (sd.rows, sd.cols) {
                    return Err(SimError::BadOperand {
                        detail: format!(
                            "AddAssign shape mismatch: {}x{} += {}x{}",
                            dd.rows, dd.cols, sd.rows, sd.cols
                        ),
                    });
                }
                walk.tally.reg_copies += 1;
            }
            Op::Unary { frag, .. } => {
                require_init(init, frag, w, prog)?;
                walk.tally.reg_copies += 1;
            }
            Op::AddRowBroadcast { dst, src } => {
                require_init(init, dst, w, prog)?;
                require_init(init, src, w, prog)?;
                let (dd, sd) = (&prog.frags[dst], &prog.frags[src]);
                if sd.rows != 1 || sd.cols != dd.cols {
                    return Err(SimError::BadOperand {
                        detail: format!(
                            "AddRowBroadcast needs a 1x{} row, got {}x{}",
                            dd.cols, sd.rows, sd.cols
                        ),
                    });
                }
                walk.tally.reg_copies += 1;
            }
            Op::MetaStore { addr, bytes } => walk.meta(w, addr, bytes, false)?,
            Op::MetaLoad { addr, bytes } => walk.meta(w, addr, bytes, true)?,
            Op::Barrier => unreachable!("barriers are consumed by the phase structure"),
        }
        Ok(())
    }
}
