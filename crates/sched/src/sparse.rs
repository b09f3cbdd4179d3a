//! Sparse-aware device scheduling: nnz-weighted work streams for SpMM
//! and SpGEMM.
//!
//! The dense scheduler ([`crate::schedule`]) places *uniform* block
//! products; a sparse workload is the opposite — every output block
//! carries a different number of nonzero k-iterations. This module
//! makes that irregularity first-class:
//!
//! * a [`SparseWorkItem`] is one output block (an SpMM row slab or an
//!   SpGEMM output block) weighted by its nonzero k-iterations,
//!   derived from the BSR row-block structure (`rowptr` deltas) or
//!   the SpGEMM symbolic phase;
//! * the cost hook ([`SparseCost`]) prices one nonzero k-iteration
//!   through the existing [`PlanCache`] (one tuned unit block per
//!   shape, cached across launches) and charges RowPtr/ColBlkIdx
//!   traffic with [`kami_sparse::model`]'s metadata accounting;
//! * the nnz-aware Stream-K decomposition splits the flat *nonzero*
//!   iteration space — `Σᵢ nnzᵢ` iterations, not `items · k_dense` —
//!   contiguously across SMs through the dense path's own partition
//!   and fixup code ([`crate::schedule`]'s `streamk_plans` over nnz
//!   prefix sums: non-owner chunks spill the partial C tile, the
//!   owner reloads and reduces each partial in ascending k order),
//!   falling back to weighted LPT — the dense ragged path's placer —
//!   when skew makes whole-item placement cheaper than fixup traffic.
//!
//! The scheduled entry points ([`spmm_scheduled`], [`spgemm_scheduled`])
//! run the *same* single-kernel sparse engines as the unscheduled ones
//! for the numeric result — the device schedule is a placement model
//! over the identical per-output-block products, so per-output-block
//! accumulation order is unchanged and results are bit-identical.

use crate::error::SchedError;
use crate::plan::PlanCache;
use crate::schedule::{
    apply_serial_floor, build_report, build_trace, empty_plans, lpt_plans, makespan, streamk_plans,
    Decomposition, Iters, ScheduleReport, Scheduler, Segment, SmPlan,
};
use crate::scheduled::{ScheduledSpgemm, ScheduledSpmm};
use crate::work::WorkItem;
use kami_core::{KamiConfig, KamiError};
use kami_gpu_sim::{CostConfig, DeviceSpec, Matrix, Precision, Trace};
use kami_sparse::{model, BlockSparseMatrix};

/// Which sparse kernel a work stream feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SparseKind {
    /// Sparse × dense: one item per block row of A.
    Spmm,
    /// Sparse × sparse: one item per symbolic output block.
    Spgemm,
}

impl SparseKind {
    pub fn label(self) -> &'static str {
        match self {
            SparseKind::Spmm => "spmm",
            SparseKind::Spgemm => "spgemm",
        }
    }
}

/// One sparse work item: an output block and the nonzero k-iterations
/// that produce it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SparseWorkItem {
    /// Output coordinate: `(block_row, 0)` for SpMM row slabs,
    /// `(block_row, block_col)` for SpGEMM output blocks.
    pub out: (usize, usize),
    /// Nonzero k-iterations: stored blocks of A's block row (SpMM) or
    /// contributing block pairs `A(i,l)·B(l,j)` (SpGEMM).
    pub nnz: usize,
}

/// A stream of nnz-weighted sparse work items for one device launch.
#[derive(Debug, Clone)]
pub struct SparseWork {
    pub kind: SparseKind,
    /// The block GEMM one nonzero k-iteration computes
    /// (`bs×n_B×bs` for SpMM, `bs×bs×bs` for SpGEMM).
    pub unit: WorkItem,
    /// Items with at least one nonzero iteration, in output order.
    pub items: Vec<SparseWorkItem>,
    /// Output blocks whose row/pair list was empty (no work emitted).
    pub empty_items: usize,
}

impl SparseWork {
    /// SpMM work stream: one item per nonempty block row of `a`, with
    /// nnz read off the BSR row-block structure (`rowptr` deltas). The
    /// unit iteration multiplies one stored `bs×bs` block into all
    /// `dense_cols` columns of B.
    pub fn from_spmm(a: &BlockSparseMatrix, dense_cols: usize, precision: Precision) -> Self {
        let bs = a.block_size();
        let mut items = Vec::with_capacity(a.rows_blk());
        let mut empty = 0usize;
        for i in 0..a.rows_blk() {
            let nnz = a.row_blocks(i).count();
            if nnz > 0 {
                items.push(SparseWorkItem { out: (i, 0), nnz });
            } else {
                empty += 1;
            }
        }
        SparseWork {
            kind: SparseKind::Spmm,
            unit: WorkItem::new(bs, dense_cols, bs, precision),
            items,
            empty_items: empty,
        }
    }

    /// SpGEMM work stream: one item per output block of the symbolic
    /// structure, weighted by its contributing pair count. Runs the
    /// symbolic phase internally (the same SPA the numeric kernel
    /// sizes its accumulators with).
    pub fn from_spgemm(a: &BlockSparseMatrix, b: &BlockSparseMatrix, precision: Precision) -> Self {
        let bs = a.block_size();
        let sym = kami_sparse::spgemm::symbolic(a, b);
        // Pairs per output block: one SPA-style counting pass, read out
        // along the symbolic structure so items appear in (row,
        // ascending col) order.
        let mut counts = vec![0usize; sym.cols_blk];
        let mut items = Vec::with_capacity(sym.nnz_blocks());
        for i in 0..sym.rows_blk {
            for (l, _) in a.row_blocks(i) {
                for (j, _) in b.row_blocks(l) {
                    counts[j] += 1;
                }
            }
            for &j in sym.row(i) {
                items.push(SparseWorkItem {
                    out: (i, j),
                    nnz: counts[j],
                });
                counts[j] = 0;
            }
        }
        SparseWork {
            kind: SparseKind::Spgemm,
            unit: WorkItem::new(bs, bs, bs, precision),
            items,
            empty_items: sym.rows_blk * sym.cols_blk - sym.nnz_blocks(),
        }
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Total nonzero k-iterations across the stream.
    pub fn total_nnz(&self) -> usize {
        self.items.iter().map(|i| i.nnz).sum()
    }

    /// Heaviest item's iteration count.
    pub fn max_nnz(&self) -> usize {
        self.items.iter().map(|i| i.nnz).max().unwrap_or(0)
    }

    /// Total useful flops: every nonzero iteration is one unit product.
    pub fn total_flops(&self) -> u64 {
        self.total_nnz() as u64 * self.unit.flops()
    }

    /// Per-item iteration counts (the shape `occupancy::analyze_stream`
    /// consumes).
    pub fn iter_counts(&self) -> Vec<usize> {
        self.items.iter().map(|i| i.nnz).collect()
    }
}

/// nnz-weighted cost hook: everything the sparse decompositions need
/// to price an item, derived from one [`PlanCache`] lookup of the unit
/// iteration's shape (tuned + profiled once, then cached) plus
/// [`kami_sparse::model`]'s metadata-byte accounting.
#[derive(Debug, Clone)]
pub struct SparseCost {
    /// Steady-state cycles of one nonzero k-iteration.
    pub per_iter_cycles: f64,
    /// Serialized latency of one unit iteration — the floor for any SM
    /// that runs work at all.
    pub unit_serial_cycles: f64,
    /// Useful flops of one unit iteration.
    pub unit_flops: u64,
    /// Partial C-tile payload one Stream-K fixup spills and reloads.
    pub c_tile_bytes: u64,
    /// Cycles of one fixup transfer at global-memory bandwidth.
    pub fixup_cycles: f64,
    /// Global bytes per cycle (prices RowPtr/ColBlkIdx reads).
    pub gmem_bytes_per_cycle: f64,
}

impl SparseCost {
    /// Build the cost hook for `work`'s unit shape under `cost` (the
    /// cost-model override, if any); returns the hook and whether the
    /// plan came from the cache.
    pub fn from_plans(
        device: &DeviceSpec,
        plans: &PlanCache,
        work: &SparseWork,
        cost: Option<&CostConfig>,
    ) -> Result<(Self, bool), KamiError> {
        let (entry, hit) = plans.plan_for(device, &work.unit, cost)?;
        let cost = &entry.cost;
        Ok((
            SparseCost {
                per_iter_cycles: cost.steady_cycles(),
                unit_serial_cycles: cost.serial_cycles,
                unit_flops: cost.flops,
                c_tile_bytes: cost.c_tile_bytes,
                fixup_cycles: cost.c_tile_bytes as f64 / device.gmem_bytes_per_cycle,
                gmem_bytes_per_cycle: device.gmem_bytes_per_cycle,
            },
            hit,
        ))
    }

    /// RowPtr + ColBlkIdx cycles for reading `iters` block indices of
    /// one row — `sparse::model`'s metadata accounting over the global
    /// bandwidth.
    pub fn meta_cycles(&self, iters: usize) -> f64 {
        model::metadata_bytes(1.0, iters as f64) / self.gmem_bytes_per_cycle
    }

    /// Cycles one whole item costs its SM: nnz-weighted compute plus
    /// the item's index-metadata traffic.
    pub fn item_cycles(&self, nnz: usize) -> f64 {
        nnz as f64 * self.per_iter_cycles + self.meta_cycles(nnz)
    }
}

/// Schedule report of a sparse stream: the dense [`ScheduleReport`]
/// plus the nnz statistics the weighted decompositions reacted to.
#[derive(Debug, Clone)]
pub struct SparseScheduleReport {
    pub schedule: ScheduleReport,
    pub kind: SparseKind,
    /// Total nonzero k-iterations placed.
    pub total_nnz_iters: usize,
    /// Heaviest item's iterations.
    pub max_item_nnz: usize,
    /// Mean iterations per item.
    pub mean_item_nnz: f64,
    /// `max/mean` — 1 for uniform sparsity, large under power-law skew.
    pub nnz_skew: f64,
}

impl<'a> Scheduler<'a> {
    /// Schedule an nnz-weighted sparse work stream across all SMs.
    ///
    /// `DataParallel` places whole items round-robin (the quantized
    /// tile-per-CTA baseline); `StreamK` splits the flat nonzero
    /// iteration space with fixup accounting, falling back to weighted
    /// LPT when that models faster; `WeightedLpt` forces the fallback;
    /// `Auto` keeps the smallest makespan of the three.
    pub fn run_sparse(
        &self,
        work: &SparseWork,
        plans: &PlanCache,
    ) -> Result<SparseScheduleReport, SchedError> {
        self.schedule_sparse(work, plans).map(|(report, _)| report)
    }

    /// Like [`Scheduler::run_sparse`], but also emit the device-level
    /// trace: one track per SM, fixup traffic as global load/store
    /// events.
    pub fn run_sparse_traced(
        &self,
        work: &SparseWork,
        plans: &PlanCache,
    ) -> Result<(SparseScheduleReport, Trace), SchedError> {
        let (report, sm_plans) = self.schedule_sparse(work, plans)?;
        let trace = build_trace(self.device, &report.schedule, &sm_plans);
        Ok((report, trace))
    }

    fn schedule_sparse(
        &self,
        work: &SparseWork,
        plans: &PlanCache,
    ) -> Result<(SparseScheduleReport, Vec<SmPlan>), SchedError> {
        if work.is_empty() || work.total_nnz() == 0 {
            return Err(SchedError::EmptyStream {
                kind: work.kind.label(),
            });
        }
        let sms = self.device.num_sms as usize;
        let (cost, hit) = SparseCost::from_plans(self.device, plans, work, self.cost.as_ref())?;

        let serial = |_| cost.unit_serial_cycles;
        let whole = |idx: usize| {
            let nnz = work.items[idx].nnz;
            Segment::Chunk {
                block: idx,
                iters: (0, nnz),
                owner: true,
                cycles: cost.item_cycles(nnz),
                flops: nnz as u64 * cost.unit_flops,
            }
        };

        // Each placement is built only when the requested decomposition
        // needs it.
        // Data-parallel: whole items round-robin in output order — the
        // quantized baseline that eats the full nnz skew.
        let dp = || {
            let mut dp = empty_plans(sms);
            for idx in 0..work.len() {
                dp[idx % sms].segments.push(whole(idx));
            }
            apply_serial_floor(&mut dp, serial);
            let ms = makespan(&dp);
            (Decomposition::DataParallel, dp, ms)
        };
        // Weighted LPT: no fixup traffic, but a single dominant item
        // still bounds the makespan from below.
        let lpt = || {
            let lpt = lpt_plans(sms, work.len(), |i| work.items[i].nnz, serial, whole);
            let ms = makespan(&lpt);
            (Decomposition::WeightedLpt, lpt, ms)
        };
        // nnz-aware Stream-K over the ragged space of nonzero
        // iterations: item boundaries fall wherever the prefix sums put
        // them.
        let sk = || {
            let mut prefix = vec![0];
            for item in &work.items {
                prefix.push(prefix[prefix.len() - 1] + item.nnz);
            }
            let fixup = (cost.c_tile_bytes, cost.fixup_cycles);
            let mut sk = streamk_plans(Iters::Ragged(&prefix), sms, fixup, false, |iters| {
                let cycles = iters as f64 * cost.per_iter_cycles + cost.meta_cycles(iters);
                (cycles, iters as u64 * cost.unit_flops)
            });
            apply_serial_floor(&mut sk, serial);
            let ms = makespan(&sk);
            (Decomposition::StreamK, sk, ms)
        };

        let (chosen, sm_plans, span) = match self.decomposition {
            Decomposition::DataParallel => dp(),
            Decomposition::WeightedLpt => lpt(),
            Decomposition::StreamK => {
                // Pathological-skew fallback: when whole-item LPT beats
                // the iteration split (fixup traffic outweighing the
                // balance win), take it.
                let (lpt, sk) = (lpt(), sk());
                if lpt.2 < sk.2 {
                    lpt
                } else {
                    sk
                }
            }
            // Sparse streams never run the dense k-split path the tree
            // fixup models.
            Decomposition::SkinnyK => {
                return Err(SchedError::NotSkinny {
                    m: work.unit.m,
                    n: work.unit.n,
                    k: work.unit.k,
                });
            }
            Decomposition::Auto => {
                let mut best = dp();
                for candidate in [lpt(), sk()] {
                    if candidate.2 < best.2 {
                        best = candidate;
                    }
                }
                best
            }
        };
        plans.record_decomposition(self.device, &work.unit, self.cost.as_ref(), chosen);

        let schedule = build_report(
            self.device,
            self.decomposition,
            chosen,
            1,
            work.total_flops(),
            span,
            &sm_plans,
            if hit { (1, 0) } else { (0, 1) },
        );
        let total = work.total_nnz();
        let mean = total as f64 / work.len() as f64;
        let max = work.max_nnz();
        let report = SparseScheduleReport {
            schedule,
            kind: work.kind,
            total_nnz_iters: total,
            max_item_nnz: max,
            mean_item_nnz: mean,
            nnz_skew: if mean > 0.0 { max as f64 / mean } else { 0.0 },
        };
        Ok((report, sm_plans))
    }
}

/// Run SpMM under the device scheduler: derive the nnz-weighted work
/// stream from A's row-block structure, schedule it (emitting per-SM
/// trace tracks), and compute `C = A·B` with the unscheduled sparse
/// kernel. The numeric result is bit-identical to the unscheduled one
/// by construction — same engine, same per-output-block accumulation
/// order.
pub fn spmm_scheduled(
    scheduler: &Scheduler,
    cfg: &KamiConfig,
    a: &BlockSparseMatrix,
    b: &Matrix,
    plans: &PlanCache,
) -> Result<ScheduledSpmm, SchedError> {
    let work = SparseWork::from_spmm(a, b.cols(), cfg.precision);
    let (report, trace) = scheduler.run_sparse_traced(&work, plans)?;
    let result =
        kami_sparse::spmm::spmm(scheduler.device(), cfg, a, b).map_err(SchedError::from)?;
    Ok(ScheduledSpmm {
        result,
        report,
        trace,
    })
}

/// Run SpGEMM under the device scheduler: derive the work stream from
/// the symbolic phase's per-output-block pair counts, schedule it, and
/// compute the numeric product with the unscheduled two-phase kernel.
pub fn spgemm_scheduled(
    scheduler: &Scheduler,
    cfg: &KamiConfig,
    a: &BlockSparseMatrix,
    b: &BlockSparseMatrix,
    plans: &PlanCache,
) -> Result<ScheduledSpgemm, SchedError> {
    let work = SparseWork::from_spgemm(a, b, cfg.precision);
    let (report, trace) = scheduler.run_sparse_traced(&work, plans)?;
    let result =
        kami_sparse::spgemm::spgemm(scheduler.device(), cfg, a, b).map_err(SchedError::from)?;
    Ok(ScheduledSpgemm {
        result,
        report,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kami_gpu_sim::device::gh200;
    use kami_sparse::gen::{power_law_block_sparse, random_block_sparse};
    use kami_sparse::BlockOrder;

    #[test]
    fn spmm_work_reads_rowptr_deltas() {
        let a = power_law_block_sparse(512, 16, 1.0, BlockOrder::RowMajor, 9);
        let w = SparseWork::from_spmm(&a, 128, Precision::Fp16);
        assert_eq!(w.kind, SparseKind::Spmm);
        assert_eq!(w.unit, WorkItem::new(16, 128, 16, Precision::Fp16));
        assert_eq!(w.total_nnz(), a.nnz_blocks());
        for item in &w.items {
            assert_eq!(item.nnz, a.row_blocks(item.out.0).count());
            assert!(item.nnz > 0);
        }
        assert_eq!(w.len() + w.empty_items, a.rows_blk());
        // Power-law: the first row dominates.
        assert_eq!(w.max_nnz(), w.items[0].nnz);
        assert!(w.max_nnz() as f64 > 2.0 * w.total_nnz() as f64 / w.len() as f64);
    }

    #[test]
    fn spgemm_work_matches_symbolic_pairs() {
        let a = random_block_sparse(128, 128, 16, 0.4, BlockOrder::RowMajor, 31);
        let b = random_block_sparse(128, 128, 16, 0.4, BlockOrder::RowMajor, 32);
        let w = SparseWork::from_spgemm(&a, &b, Precision::Fp16);
        let sym = kami_sparse::spgemm::symbolic(&a, &b);
        assert_eq!(w.len(), sym.nnz_blocks());
        assert_eq!(w.total_nnz(), sym.block_pairs);
        assert_eq!(w.total_flops(), sym.useful_flops(16));
        // Each item's pairs recomputed by brute force.
        for item in &w.items {
            let (i, j) = item.out;
            let want = (0..a.cols_blk())
                .filter(|&l| a.block_at(i, l).is_some() && b.block_at(l, j).is_some())
                .count();
            assert_eq!(item.nnz, want, "block ({i},{j})");
        }
    }

    #[test]
    fn streamk_conserves_iterations_and_fixups_pair_up() {
        let dev = gh200();
        let plans = PlanCache::new();
        let a = power_law_block_sparse(1024, 16, 1.2, BlockOrder::RowMajor, 5);
        let w = SparseWork::from_spmm(&a, 128, Precision::Fp16);
        let r = Scheduler::new(&dev)
            .with_decomposition(Decomposition::StreamK)
            .run_sparse(&w, &plans)
            .unwrap();
        let iters: usize = r.schedule.per_sm.iter().map(|s| s.k_iters).sum();
        assert_eq!(iters, w.total_nnz());
        assert_eq!(r.schedule.total_blocks, w.len());
        assert_eq!(r.total_nnz_iters, w.total_nnz());
        assert!(r.nnz_skew > 1.0);
    }

    #[test]
    fn forced_modes_report_themselves() {
        let dev = gh200();
        let plans = PlanCache::new();
        let a = random_block_sparse(512, 512, 16, 0.5, BlockOrder::RowMajor, 6);
        let w = SparseWork::from_spmm(&a, 64, Precision::Fp16);
        let dp = Scheduler::new(&dev)
            .with_decomposition(Decomposition::DataParallel)
            .run_sparse(&w, &plans)
            .unwrap();
        assert_eq!(dp.schedule.decomposition, Decomposition::DataParallel);
        let lpt = Scheduler::new(&dev)
            .with_decomposition(Decomposition::WeightedLpt)
            .run_sparse(&w, &plans)
            .unwrap();
        assert_eq!(lpt.schedule.decomposition, Decomposition::WeightedLpt);
        let auto = Scheduler::new(&dev).run_sparse(&w, &plans).unwrap();
        for r in [&dp, &lpt] {
            assert!(
                auto.schedule.makespan_cycles <= r.schedule.makespan_cycles * (1.0 + 1e-12),
                "auto lost to {}",
                r.schedule.decomposition.label()
            );
        }
    }

    #[test]
    fn empty_stream_is_rejected() {
        let dev = gh200();
        let plans = PlanCache::new();
        let a = random_block_sparse(64, 64, 16, 0.0, BlockOrder::RowMajor, 7);
        let w = SparseWork::from_spmm(&a, 64, Precision::Fp16);
        assert!(w.is_empty());
        assert!(Scheduler::new(&dev).run_sparse(&w, &plans).is_err());
    }

    #[test]
    fn traced_sparse_run_matches_report() {
        let dev = gh200();
        let plans = PlanCache::new();
        let a = power_law_block_sparse(512, 16, 1.0, BlockOrder::RowMajor, 8);
        let w = SparseWork::from_spmm(&a, 64, Precision::Fp16);
        let (r, trace) = Scheduler::new(&dev)
            .with_decomposition(Decomposition::StreamK)
            .run_sparse_traced(&w, &plans)
            .unwrap();
        assert_eq!(trace.device, r.schedule.device_name);
        assert_eq!(trace.total_cycles(), r.schedule.makespan_cycles);
        for sm in &r.schedule.per_sm {
            let sum: f64 = trace.warp_events(sm.sm).map(|e| e.duration).sum();
            assert!((sum - sm.busy_cycles).abs() < 1e-6, "sm {}", sm.sm);
        }
    }
}
