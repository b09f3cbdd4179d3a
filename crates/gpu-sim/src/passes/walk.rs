//! The one phase walk every pass runs.
//!
//! KAMI charges cycles per barrier-delimited phase (Formulas 2, 6 and
//! 10). [`Engine::walk_phase`] runs one phase: warps in warp order, each
//! warp's ops in program order through a caller-supplied op step, then
//! same-phase race detection. [`Engine::account`] runs it over every
//! phase, prices each tally with [`phase_cost`], keeps the clock and the
//! trace, and assembles the [`ExecutionReport`]. The passes differ only
//! in their op step:
//!
//! * the oracle [`Engine::run`] steps with the functional
//!   `Engine::exec_op` on the reference MMA;
//! * the cost pass [`Engine::cost`] steps with the shape-only `cost_op`;
//! * the execute pass [`Engine::execute_with`] steps with `exec_op` on
//!   its backend and walks the phases without pricing them.

use super::PlannedKernel;
use crate::cost::{phase_cost, PhaseCost, PhaseTally};
use crate::device::DeviceSpec;
use crate::engine::Engine;
use crate::error::SimError;
use crate::memory::shared::SharedMemory;
use crate::precision::Precision;
use crate::program::{Op, UnaryFunc, WarpProgram};
use crate::report::ExecutionReport;
use crate::trace::{Trace, TraceEvent, TraceKind};
use std::collections::BTreeMap;

/// One op's trace record before layout: warp, kind, amount, detail.
type RawEvent = (usize, TraceKind, u64, String);

/// What a walk threads through its op steps: shared memory, the current
/// phase's tally and shared-memory ranges, and the run's counters.
pub(crate) struct Walk {
    pub(crate) smem: SharedMemory,
    pub(crate) tally: PhaseTally,
    /// `(warp, (addr, bytes))` of this phase's shared-memory writes and
    /// reads, for race detection.
    pub(crate) writes: Vec<(usize, (usize, usize))>,
    pub(crate) reads: Vec<(usize, (usize, usize))>,
    /// Tensor-core flops charged so far.
    pub(crate) flops: u64,
    pub(crate) gmem_read: u64,
    pub(crate) gmem_written: u64,
    /// The current warp's flops in this phase, by input precision.
    warp_flops: Vec<(Precision, u64)>,
}

impl Walk {
    pub(crate) fn new(device: &DeviceSpec) -> Self {
        Walk {
            smem: SharedMemory::new(device.smem_capacity),
            tally: PhaseTally::default(),
            writes: Vec::new(),
            reads: Vec::new(),
            flops: 0,
            gmem_read: 0,
            gmem_written: 0,
            warp_flops: Vec::new(),
        }
    }

    /// Charge one MMA's padded `flops` at input precision `prec`.
    pub(crate) fn add_mma_flops(&mut self, prec: Precision, flops: u64) {
        self.flops += flops;
        match self.warp_flops.iter_mut().find(|(p, _)| *p == prec) {
            Some((_, total)) => *total += flops,
            None => self.warp_flops.push((prec, flops)),
        }
    }

    /// Charge a global load of `bytes`.
    pub(crate) fn charge_global_load(&mut self, bytes: usize) {
        self.tally.gmem_bytes += bytes as u64;
        self.tally.has_gmem_load = true;
        self.gmem_read += bytes as u64;
    }

    /// Charge a global store of `bytes`; an accumulating store (a
    /// read-modify-write) reads them too.
    pub(crate) fn charge_global_store(&mut self, bytes: usize, accumulate: bool) {
        self.tally.gmem_bytes += bytes as u64;
        self.gmem_written += bytes as u64;
        if accumulate {
            self.charge_global_load(bytes);
        }
    }

    /// Charge warp `w`'s shared-memory write of `bytes` at `addr`.
    pub(crate) fn charge_smem_write(&mut self, w: usize, addr: usize, bytes: usize) {
        self.tally.smem_bytes_written += bytes as u64;
        self.writes.push((w, (addr, bytes)));
    }

    /// Charge warp `w`'s shared-memory read of `bytes` at `addr`.
    pub(crate) fn charge_smem_read(&mut self, w: usize, addr: usize, bytes: usize) {
        self.tally.smem_bytes_read += bytes as u64;
        self.tally.has_smem_load = true;
        self.reads.push((w, (addr, bytes)));
    }

    /// Warp `w`'s metadata store or load of `bytes` at `addr`. Metadata
    /// carries no values, so both op semantics run this: the range check
    /// (an end that overflows `usize` included), then the charge.
    pub(crate) fn meta(
        &mut self,
        w: usize,
        addr: usize,
        bytes: usize,
        load: bool,
    ) -> Result<(), SimError> {
        let cap = self.smem.capacity();
        if addr.checked_add(bytes).is_none_or(|end| end > cap) {
            return Err(if load {
                SimError::SharedMemoryFault {
                    warp: w,
                    detail: format!("metadata read at {addr}+{bytes} exceeds {cap} B"),
                }
            } else {
                SimError::SharedMemoryOverflow {
                    detail: format!("metadata at {addr}+{bytes} exceeds {cap} B"),
                }
            });
        }
        if load {
            self.charge_smem_read(w, addr, bytes);
        } else {
            self.charge_smem_write(w, addr, bytes);
        }
        Ok(())
    }

    /// Fold the finished warp's flops into the phase tally and its
    /// busiest-warp bound.
    fn end_warp(&mut self) {
        for (prec, total) in self.warp_flops.drain(..) {
            self.tally.add_flops(prec, total);
            self.tally.note_warp_flops(prec, total);
        }
    }
}

impl<'a> Engine<'a> {
    /// The one phase walker: warps in order, each warp's ops of `phase`
    /// in program order through `step`, then same-phase race detection.
    /// Returns the phase's tally, plus each op's trace record when
    /// `traced`.
    pub(crate) fn walk_phase<F>(
        &self,
        plan: &PlannedKernel<'_>,
        phase: usize,
        walk: &mut Walk,
        traced: bool,
        step: &mut F,
    ) -> Result<(PhaseTally, Vec<RawEvent>), SimError>
    where
        F: FnMut(usize, &WarpProgram, &Op, &mut Walk) -> Result<(), SimError>,
    {
        walk.writes.clear();
        walk.reads.clear();
        let mut events = Vec::new();
        for (w, prog) in plan.kernel.warps.iter().enumerate() {
            for op in plan.ops(w, phase) {
                let t = &walk.tally;
                let before = traced.then(|| {
                    let smem = t.smem_bytes_written + t.smem_bytes_read;
                    (walk.flops, smem, t.gmem_bytes)
                });
                step(w, prog, op, walk)?;
                if let Some((flops, smem, gmem)) = before {
                    let t = &walk.tally;
                    let amount = match op {
                        Op::Mma { .. } => walk.flops - flops,
                        Op::GlobalLoad { .. } | Op::GlobalStore { .. } => t.gmem_bytes - gmem,
                        _ => t.smem_bytes_written + t.smem_bytes_read - smem,
                    };
                    let (kind, detail) = describe_op(prog, op);
                    events.push((w, kind, amount, detail));
                }
            }
            walk.end_warp();
        }
        detect_races(&walk.writes, &walk.reads)?;
        Ok((std::mem::take(&mut walk.tally), events))
    }

    /// The one accounting walk: every phase of `plan` through
    /// [`Self::walk_phase`] with `step`, priced by [`phase_cost`] and
    /// laid onto the simulated clock (and `trace`, when given), then the
    /// run's [`ExecutionReport`].
    pub(crate) fn account<F>(
        &self,
        plan: &PlannedKernel<'_>,
        mut trace: Option<&mut Trace>,
        mut step: F,
    ) -> Result<ExecutionReport, SimError>
    where
        F: FnMut(usize, &WarpProgram, &Op, &mut Walk) -> Result<(), SimError>,
    {
        let mode = self.cost.mode;
        let mut walk = Walk::new(self.device);
        let mut phase_costs: Vec<PhaseCost> = Vec::with_capacity(plan.phases);
        let mut clock = 0.0f64;
        if let Some(t) = trace.as_deref_mut() {
            t.phase_starts.push(0.0);
        }
        for phase in 0..plan.phases {
            let traced = trace.is_some();
            let (tally, events) = self.walk_phase(plan, phase, &mut walk, traced, &mut step)?;
            let pc = phase_cost(self.device, &self.cost, &tally)?;
            if let Some(t) = trace.as_deref_mut() {
                self.layout_phase_trace(t, phase, clock, &events);
                t.phase_starts.push(clock + pc.cycles(mode));
            }
            clock += pc.cycles(mode);
            phase_costs.push(pc);
        }

        let mut totals = PhaseCost::default();
        for pc in &phase_costs {
            totals.accumulate(pc);
        }
        let cycles = phase_costs.iter().map(|c| c.cycles(mode)).sum();
        Ok(ExecutionReport {
            device_name: self.device.name.to_string(),
            warps: plan.warps,
            mode,
            phase_costs,
            totals,
            cycles,
            flops_charged: walk.flops,
            smem_bytes_written: walk.smem.bytes_written(),
            smem_bytes_read: walk.smem.bytes_read(),
            smem_extent: walk.smem.peak_extent(),
            gmem_bytes_read: walk.gmem_read,
            gmem_bytes_written: walk.gmem_written,
            registers_per_warp: plan.registers_per_warp.clone(),
        })
    }

    /// Run `walk` with a fresh [`Trace`] of this engine's device and cost
    /// mode; returns its result alongside the filled trace.
    pub(crate) fn traced<R>(
        &self,
        walk: impl FnOnce(Option<&mut Trace>) -> Result<R, SimError>,
    ) -> Result<(R, Trace), SimError> {
        let mut trace = Trace {
            device: self.device.name.to_string(),
            mode: Some(self.cost.mode),
            ..Default::default()
        };
        let out = walk(Some(&mut trace))?;
        Ok((out, trace))
    }

    /// Lay one phase's raw op records onto the simulated clock: each
    /// warp's ops run back to back from the phase start, each op sized by
    /// its standalone cost (bytes over bandwidth, flops over one tensor
    /// core, latency on the first load of the phase).
    fn layout_phase_trace(
        &self,
        trace: &mut Trace,
        phase: usize,
        phase_start: f64,
        raw: &[RawEvent],
    ) {
        let b_sm = self.device.smem_bytes_per_cycle();
        let mut offsets: BTreeMap<usize, f64> = BTreeMap::new();
        let mut first_load: BTreeMap<usize, bool> = BTreeMap::new();
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
                        .ops_per_cycle_per_tc(Precision::Fp16)
                        .or_else(|| self.device.ops_per_cycle_per_tc(Precision::Fp64))
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
fn describe_op(prog: &WarpProgram, op: &Op) -> (TraceKind, String) {
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

fn overlap(a: (usize, usize), b: (usize, usize)) -> bool {
    a.0 < b.0 + b.1 && b.0 < a.0 + a.1
}

/// Same-phase cross-warp race detection: a write overlapping another
/// warp's read or write of the same phase.
fn detect_races(
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
