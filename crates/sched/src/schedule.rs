//! The device-level scheduler: place a stream of block-GEMM work items
//! across every SM of a [`DeviceSpec`] and report the makespan.
//!
//! Three decompositions are supported, mirroring the split CUTLASS /
//! Stream-K draw for irregular batch counts:
//!
//! * **Data-parallel** — one block per work item, round-robin across
//!   SMs. Simple, but an `S·w + 1`-block workload pays a whole extra
//!   wave for one block (the tail-quantization problem).
//! * **Stream-K** — the k-loop of each block is split at its
//!   communication-stage granularity into `g` iterations; the flat
//!   iteration space is divided contiguously and evenly across SMs.
//!   Blocks straddling an SM boundary need a fixup pass: the non-owner
//!   spills its partial C tile to global memory and the owner reloads
//!   and reduces it.
//! * **Skinny-K** — Stream-K's placement with the tall-skinny tree
//!   fixup ([`kami_core::model::skinny`]): the owner's reduction runs
//!   in `⌈log₂(partials+1)⌉` pairwise rounds instead of serially.
//!   Applicable only to tall-skinny shapes (`m,n ≤ 64`, deep k), whose
//!   k-split execution path is what the tree models.
//!
//! Cost quantities come from the plan cache ([`crate::plan`]): one
//! block costs its SM `M = max(serial/resident, bottleneck)` cycles at
//! steady state — exactly the reciprocal of
//! [`kami_gpu_sim::occupancy::analyze`]'s `rate_per_cycle`, which is
//! what ties the device-level makespan back to the single-block model.

use crate::error::SchedError;
use crate::plan::{PlanCache, PlanEntry};
use crate::work::BlockWork;
use kami_gpu_sim::{CostConfig, DeviceSpec, Trace, TraceEvent, TraceKind};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// How the work stream is decomposed across SMs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Decomposition {
    /// One thread block per work item.
    DataParallel,
    /// Work-centric k-loop splitting with a fixup/reduction pass.
    StreamK,
    /// Stream-K splitting with the tall-skinny **tree** fixup: an owner
    /// straddled across `s` SMs reduces its `s` spilled partials in
    /// `⌈log₂(s+1)⌉` pairwise rounds instead of `s` serial merges
    /// (same bytes, shorter critical path — the device-level mirror of
    /// [`kami_core::model::skinny`]). Only tall-skinny shapes
    /// (`m,n ≤ 64`, deep k) run the k-split path, so forcing this on
    /// any other shape is [`SchedError::NotSkinny`].
    SkinnyK,
    /// Whole items placed heaviest-first onto the least-loaded SM — the
    /// no-fixup fallback for nnz-weighted sparse streams
    /// ([`crate::sparse`]). Uniform dense streams treat it as
    /// data-parallel (equal weights make the two placements identical).
    WeightedLpt,
    /// Model every applicable decomposition and keep the smallest
    /// makespan (ties go data-parallel).
    Auto,
}

impl Decomposition {
    pub fn label(self) -> &'static str {
        match self {
            Decomposition::DataParallel => "data-parallel",
            Decomposition::StreamK => "stream-k",
            Decomposition::SkinnyK => "skinny-k",
            Decomposition::WeightedLpt => "weighted-lpt",
            Decomposition::Auto => "auto",
        }
    }
}

/// Per-SM placement outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SmStats {
    pub sm: usize,
    /// Blocks whose first (owning) chunk ran here.
    pub blocks: usize,
    /// K-loop iterations executed here (`blocks · k_stages` under
    /// data-parallel).
    pub k_iters: usize,
    /// Fixup transfers (partial-tile spills plus reductions) this SM
    /// performed.
    pub fixups: usize,
    pub busy_cycles: f64,
}

/// Device-level schedule report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScheduleReport {
    pub device_name: String,
    /// What the caller asked for.
    pub requested: Decomposition,
    /// What actually ran (`Auto` resolves to one of the two).
    pub decomposition: Decomposition,
    pub total_blocks: usize,
    /// K-loop split granularity of the scheduled shape (1 when ragged).
    pub k_stages: usize,
    /// Cycles until the last SM finishes.
    pub makespan_cycles: f64,
    pub useful_flops: u64,
    /// Device throughput over the makespan.
    pub achieved_tflops: f64,
    /// Mean SM busy time over the makespan (1.0 = no idling).
    pub utilization: f64,
    /// `1 − mean(busy)/max(busy)`: 0 when perfectly balanced, → 1 when
    /// one SM carries the tail alone.
    pub tail_imbalance: f64,
    /// Work items whose plan was served from the cache this launch.
    pub plans_reused: usize,
    /// Work items that triggered a tuning sweep this launch.
    pub plans_tuned: usize,
    pub per_sm: Vec<SmStats>,
}

impl ScheduleReport {
    /// The SM that finishes last.
    pub fn busiest_sm(&self) -> Option<&SmStats> {
        self.per_sm
            .iter()
            .max_by(|a, b| a.busy_cycles.partial_cmp(&b.busy_cycles).expect("finite"))
    }
}

/// One scheduled span of SM time (crate-internal currency shared by
/// the dense and sparse schedulers' stats and trace builders).
#[derive(Debug, Clone)]
pub(crate) enum Segment {
    /// A whole block (data-parallel / ragged).
    Block {
        block: usize,
        cycles: f64,
        flops: u64,
    },
    /// A contiguous run of k-loop iterations of one block (Stream-K).
    Chunk {
        block: usize,
        iters: (usize, usize),
        owner: bool,
        cycles: f64,
        flops: u64,
    },
    /// Non-owner spills its partial C tile.
    FixupStore {
        block: usize,
        bytes: u64,
        cycles: f64,
    },
    /// Owner reloads `partials` spilled tiles and reduces them.
    FixupLoad {
        block: usize,
        partials: usize,
        bytes: u64,
        cycles: f64,
    },
}

impl Segment {
    pub(crate) fn cycles(&self) -> f64 {
        match *self {
            Segment::Block { cycles, .. }
            | Segment::Chunk { cycles, .. }
            | Segment::FixupStore { cycles, .. }
            | Segment::FixupLoad { cycles, .. } => cycles,
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) struct SmPlan {
    pub(crate) sm: usize,
    pub(crate) segments: Vec<Segment>,
}

impl SmPlan {
    pub(crate) fn busy(&self) -> f64 {
        self.segments.iter().map(Segment::cycles).sum()
    }
}

/// Device-level scheduler for one [`DeviceSpec`].
pub struct Scheduler<'a> {
    pub(crate) device: &'a DeviceSpec,
    pub(crate) decomposition: Decomposition,
    pub(crate) cost: Option<CostConfig>,
}

impl<'a> Scheduler<'a> {
    pub fn new(device: &'a DeviceSpec) -> Self {
        Scheduler {
            device,
            decomposition: Decomposition::Auto,
            cost: None,
        }
    }

    /// Force a specific decomposition instead of `Auto`.
    pub fn with_decomposition(mut self, decomposition: Decomposition) -> Self {
        self.decomposition = decomposition;
        self
    }

    /// Profile plans under a cost-model override (fault injection,
    /// overlap mode): every makespan this scheduler produces reflects
    /// the overridden cycle model.
    pub fn with_cost(mut self, cost: CostConfig) -> Self {
        self.cost = Some(cost);
        self
    }

    /// The device this scheduler places work on.
    pub fn device(&self) -> &DeviceSpec {
        self.device
    }

    /// The cost-model override, if any.
    pub fn cost(&self) -> Option<&CostConfig> {
        self.cost.as_ref()
    }

    /// Schedule `work` across all SMs and report.
    pub fn run(&self, work: &BlockWork, plans: &PlanCache) -> Result<ScheduleReport, SchedError> {
        self.schedule(work, plans).map(|(report, _)| report)
    }

    /// Like [`Scheduler::run`], but also emit a merged device-level
    /// trace: one Chrome-trace track per SM.
    pub fn run_traced(
        &self,
        work: &BlockWork,
        plans: &PlanCache,
    ) -> Result<(ScheduleReport, Trace), SchedError> {
        let (report, sm_plans) = self.schedule(work, plans)?;
        let trace = build_trace(self.device, &report, &sm_plans);
        Ok((report, trace))
    }

    fn schedule(
        &self,
        work: &BlockWork,
        plans: &PlanCache,
    ) -> Result<(ScheduleReport, Vec<SmPlan>), SchedError> {
        if work.is_empty() {
            return Err(SchedError::EmptyStream { kind: "dense" });
        }
        if work.is_uniform() {
            self.schedule_uniform(work, plans)
        } else {
            self.schedule_ragged(work, plans)
        }
    }

    fn schedule_uniform(
        &self,
        work: &BlockWork,
        plans: &PlanCache,
    ) -> Result<(ScheduleReport, Vec<SmPlan>), SchedError> {
        let item = work.items[0];
        let count = work.len();
        let sms = self.device.num_sms as usize;
        let (entry, hit) = plans.plan_for(self.device, &item, self.cost.as_ref())?;
        let cost = &entry.cost;
        let steady = cost.steady_cycles();
        let g = cost.k_stages;
        let fixup_cycles = cost.c_tile_bytes as f64 / self.device.gmem_bytes_per_cycle;

        let skinny = kami_core::is_tall_skinny(item.m, item.n, item.k);

        let dp = dp_plans(count, sms, steady, cost.serial_cycles, cost.flops);
        let dp_makespan = makespan(&dp);

        // Splitting (Stream-K or Skinny-K) needs ≥ 2 stages to split at.
        let per_iter = steady / g as f64;
        let split = |tree: bool| {
            let space = Iters::Uniform { items: count, g };
            streamk_plans(
                space,
                sms,
                (cost.c_tile_bytes, fixup_cycles),
                tree,
                |iters| {
                    let flops = (cost.flops as f64 * iters as f64 / g as f64) as u64;
                    (iters as f64 * per_iter, flops)
                },
            )
        };

        let (chosen, sm_plans, span) = match self.decomposition {
            Decomposition::StreamK | Decomposition::SkinnyK if g <= 1 => {
                return Err(SchedError::SingleStageStreamK {
                    m: item.m,
                    n: item.n,
                    k: item.k,
                });
            }
            Decomposition::StreamK => {
                let p = split(false);
                let ms = makespan(&p);
                (Decomposition::StreamK, p, ms)
            }
            Decomposition::SkinnyK if !skinny => {
                return Err(SchedError::NotSkinny {
                    m: item.m,
                    n: item.n,
                    k: item.k,
                });
            }
            Decomposition::SkinnyK => {
                let p = split(true);
                let ms = makespan(&p);
                (Decomposition::SkinnyK, p, ms)
            }
            Decomposition::Auto if g > 1 => {
                // Candidates are ranked on the model makespan scaled by
                // the shape class's observed/predicted EWMA for that
                // decomposition ([`PlanCache::correction_factor`]) —
                // exactly 1.0 when feedback is off or calibrated, so
                // the control arm ranks on the raw model. The *chosen*
                // candidate's reported makespan stays the model's: the
                // dispatch clock charges what prediction would, and
                // observation corrects the next ranking instead.
                let rank = |d: Decomposition, ms: f64| {
                    ms * plans.correction_factor(self.device, &item, self.cost.as_ref(), Some(d))
                };
                let mut best = (Decomposition::DataParallel, dp, dp_makespan);
                let mut best_rank = rank(Decomposition::DataParallel, dp_makespan);
                let sk = split(false);
                let ms = makespan(&sk);
                let r = rank(Decomposition::StreamK, ms);
                if r < best_rank {
                    best = (Decomposition::StreamK, sk, ms);
                    best_rank = r;
                }
                // Only tall-skinny shapes run the k-split path whose
                // tree fixup Skinny-K models.
                if skinny {
                    let skt = split(true);
                    let ms = makespan(&skt);
                    if rank(Decomposition::SkinnyK, ms) < best_rank {
                        best = (Decomposition::SkinnyK, skt, ms);
                    }
                }
                best
            }
            _ => (Decomposition::DataParallel, dp, dp_makespan),
        };
        plans.record_decomposition(self.device, &item, self.cost.as_ref(), chosen);

        let report = build_report(
            self.device,
            self.decomposition,
            chosen,
            g,
            work.total_flops(),
            span,
            &sm_plans,
            if hit { (1, 0) } else { (0, 1) },
        );
        Ok((report, sm_plans))
    }

    /// Ragged streams: per-shape plans, greedy LPT placement on the
    /// steady per-block weights. Stream-K splitting is not attempted —
    /// the iteration spaces are heterogeneous.
    fn schedule_ragged(
        &self,
        work: &BlockWork,
        plans: &PlanCache,
    ) -> Result<(ScheduleReport, Vec<SmPlan>), SchedError> {
        let sms = self.device.num_sms as usize;
        let mut reused = 0usize;
        let mut tuned = 0usize;
        let mut entries: Vec<PlanEntry> = Vec::with_capacity(work.len());
        for item in &work.items {
            let (entry, hit) = plans.plan_for(self.device, item, self.cost.as_ref())?;
            if hit {
                reused += 1;
            } else {
                tuned += 1;
            }
            entries.push(entry);
        }

        let sm_plans = lpt_plans(
            sms,
            work.len(),
            |i| entries[i].cost.steady_cycles(),
            |i| entries[i].cost.serial_cycles,
            |block| Segment::Block {
                block,
                cycles: entries[block].cost.steady_cycles(),
                flops: entries[block].cost.flops,
            },
        );
        let span = makespan(&sm_plans);
        let report = build_report(
            self.device,
            self.decomposition,
            Decomposition::DataParallel,
            1,
            work.total_flops(),
            span,
            &sm_plans,
            (reused, tuned),
        );
        Ok((report, sm_plans))
    }
}

/// Fold per-SM plans into a [`ScheduleReport`] — shared by the dense
/// scheduler and the sparse path ([`crate::sparse`]). Per-SM accounting
/// fans out across worker threads (rayon).
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_report(
    device: &DeviceSpec,
    requested: Decomposition,
    chosen: Decomposition,
    k_stages: usize,
    useful_flops: u64,
    span: f64,
    sm_plans: &[SmPlan],
    (plans_reused, plans_tuned): (usize, usize),
) -> ScheduleReport {
    let per_sm: Vec<SmStats> = sm_plans
        .par_iter()
        .map(|plan| {
            let mut stats = SmStats {
                sm: plan.sm,
                blocks: 0,
                k_iters: 0,
                fixups: 0,
                busy_cycles: plan.busy(),
            };
            for seg in &plan.segments {
                match *seg {
                    Segment::Block { .. } => {
                        stats.blocks += 1;
                        stats.k_iters += k_stages;
                    }
                    Segment::Chunk { iters, owner, .. } => {
                        if owner {
                            stats.blocks += 1;
                        }
                        stats.k_iters += iters.1 - iters.0;
                    }
                    Segment::FixupStore { .. } => stats.fixups += 1,
                    Segment::FixupLoad { partials, .. } => stats.fixups += partials,
                }
            }
            stats
        })
        .collect();

    let busy_sum: f64 = per_sm.iter().map(|s| s.busy_cycles).sum();
    let busy_max = per_sm.iter().map(|s| s.busy_cycles).fold(0.0f64, f64::max);
    let mean = busy_sum / per_sm.len().max(1) as f64;
    let seconds = span / device.clock_hz();
    ScheduleReport {
        device_name: device.name.clone(),
        requested,
        decomposition: chosen,
        total_blocks: per_sm.iter().map(|s| s.blocks).sum(),
        k_stages,
        makespan_cycles: span,
        useful_flops,
        achieved_tflops: useful_flops as f64 / seconds / 1e12,
        utilization: if span > 0.0 { mean / span } else { 0.0 },
        tail_imbalance: if busy_max > 0.0 {
            1.0 - mean / busy_max
        } else {
            0.0
        },
        plans_reused,
        plans_tuned,
        per_sm,
    }
}

pub(crate) fn makespan(plans: &[SmPlan]) -> f64 {
    plans.iter().map(SmPlan::busy).fold(0.0f64, f64::max)
}

/// `sms` idle SMs — every placement starts here.
pub(crate) fn empty_plans(sms: usize) -> Vec<SmPlan> {
    (0..sms)
        .map(|sm| SmPlan {
            sm,
            segments: Vec::new(),
        })
        .collect()
}

/// Data-parallel placement: round-robin, `n_i` blocks each. With
/// `resident` blocks overlapping, `n_i` blocks cost `n_i · steady`
/// cycles — but never less than one serialized pass.
fn dp_plans(count: usize, sms: usize, steady: f64, serial: f64, flops: u64) -> Vec<SmPlan> {
    let mut plans = empty_plans(sms);
    for (sm, plan) in plans.iter_mut().enumerate() {
        let n = count / sms + usize::from(sm < count % sms);
        let busy = (n as f64 * steady).max(if n > 0 { serial } else { 0.0 });
        let per_block = if n > 0 { busy / n as f64 } else { 0.0 };
        plan.segments = (0..n)
            .map(|j| Segment::Block {
                block: sm + j * sms,
                cycles: per_block,
                flops,
            })
            .collect();
    }
    plans
}

/// LPT placement, shared by dense ragged and sparse streams: items
/// heaviest-first (by `weight`, stable on ties) onto the least-loaded
/// SM, each placed as the `segment` its caller builds, then every SM
/// floored at its items' `serial` latency ([`apply_serial_floor`]).
pub(crate) fn lpt_plans<W: PartialOrd>(
    sms: usize,
    items: usize,
    weight: impl Fn(usize) -> W,
    serial: impl Fn(usize) -> f64,
    segment: impl Fn(usize) -> Segment,
) -> Vec<SmPlan> {
    let mut order: Vec<usize> = (0..items).collect();
    order.sort_by(|&i, &j| weight(j).partial_cmp(&weight(i)).expect("finite"));
    let mut plans = empty_plans(sms);
    let mut loads = vec![0.0f64; sms];
    for item in order {
        let sm = loads
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, _)| i)
            .expect("at least one SM");
        let seg = segment(item);
        loads[sm] += seg.cycles();
        plans[sm].segments.push(seg);
    }
    apply_serial_floor(&mut plans, serial);
    plans
}

/// A lone item cannot finish faster than its serial latency: scale
/// each busy SM's compute segments (never its fixup traffic) up to the
/// largest `serial` among the items it computes.
pub(crate) fn apply_serial_floor(plans: &mut [SmPlan], serial: impl Fn(usize) -> f64) {
    for plan in plans {
        let busy = plan.busy();
        let floor = plan
            .segments
            .iter()
            .map(|s| match *s {
                Segment::Block { block, .. } | Segment::Chunk { block, .. } => serial(block),
                _ => 0.0,
            })
            .fold(0.0f64, f64::max);
        if busy > 0.0 && busy < floor {
            let scale = floor / busy;
            for seg in &mut plan.segments {
                if let Segment::Block { cycles, .. } | Segment::Chunk { cycles, .. } = seg {
                    *cycles *= scale;
                }
            }
        }
    }
}

/// The flat k-iteration space a Stream-K partition splits.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Iters<'a> {
    /// `items` blocks of `g` iterations each (dense uniform streams).
    Uniform { items: usize, g: usize },
    /// Item `i` spans `prefix[i]..prefix[i + 1]` (sparse nnz prefix sums).
    Ragged(&'a [usize]),
}

impl Iters<'_> {
    /// First global iteration of item `i` (`i` = item count: the total).
    fn start(self, i: usize) -> usize {
        match self {
            Iters::Uniform { g, .. } => i * g,
            Iters::Ragged(prefix) => prefix[i],
        }
    }

    fn total(self) -> usize {
        match self {
            Iters::Uniform { items, g } => items * g,
            Iters::Ragged(prefix) => prefix[prefix.len() - 1],
        }
    }

    /// The item whose range holds iteration `iter`.
    fn item_at(self, iter: usize) -> usize {
        match self {
            Iters::Uniform { g, .. } => iter / g,
            Iters::Ragged(prefix) => prefix.partition_point(|&p| p <= iter) - 1,
        }
    }
}

/// Stream-K placement, shared by dense and sparse streams: the flat
/// iteration space is divided contiguously and near-evenly across SMs,
/// each SM's share cut into per-item chunks priced by `chunk`
/// (`iters → (cycles, flops)`). An item straddling an SM boundary
/// incurs a fixup of `fixup = (tile bytes, cycles per transfer)`:
/// every non-owner chunk spills the partial C tile (`FixupStore` on
/// its SM) and the owner reloads and reduces each partial
/// (`FixupLoad`) — serially, or in `⌈log₂(partials+1)⌉` pairwise
/// rounds with `tree` (Skinny-K), which moves the same bytes on a
/// shorter critical path.
pub(crate) fn streamk_plans(
    space: Iters,
    sms: usize,
    (fixup_bytes, fixup_cycles): (u64, f64),
    tree: bool,
    chunk: impl Fn(usize) -> (f64, u64),
) -> Vec<SmPlan> {
    let total = space.total();
    let base = total / sms;
    let rem = total % sms;
    let lo_of = |sm: usize| sm * base + sm.min(rem);
    let sm_of = |iter: usize| {
        // Inverse of `lo_of` for the balanced contiguous partition.
        if base == 0 {
            iter
        } else if iter < rem * (base + 1) {
            iter / (base + 1)
        } else {
            rem + (iter - rem * (base + 1)) / base
        }
    };

    let mut plans = empty_plans(sms);
    for (sm, plan) in plans.iter_mut().enumerate() {
        let (lo, hi) = (lo_of(sm), lo_of(sm + 1));
        let mut item = space.item_at(lo);
        while space.start(item) < hi {
            let (b_lo, b_hi) = (space.start(item), space.start(item + 1));
            let start = lo.max(b_lo);
            let end = hi.min(b_hi);
            let owner = start == b_lo;
            let (cycles, flops) = chunk(end - start);
            plan.segments.push(Segment::Chunk {
                block: item,
                iters: (start - b_lo, end - b_lo),
                owner,
                cycles,
                flops,
            });
            if !owner {
                // Non-owner chunk: spill the partial tile.
                plan.segments.push(Segment::FixupStore {
                    block: item,
                    bytes: fixup_bytes,
                    cycles: fixup_cycles,
                });
            } else if b_hi > hi {
                // This item spills onto later SMs; the owner reloads
                // and reduces one partial per extra chunk.
                let partials = sm_of(b_hi - 1) - sm;
                let rounds = if tree {
                    kami_core::model::skinny::tree_depth(partials + 1)
                } else {
                    partials
                };
                plan.segments.push(Segment::FixupLoad {
                    block: item,
                    partials,
                    bytes: fixup_bytes * partials as u64,
                    cycles: fixup_cycles * rounds as f64,
                });
            }
            item += 1;
        }
    }
    plans
}

/// Merge per-SM placements into one device-level trace: one track per
/// SM (the `warp` field carries the SM index), compute chunks as `mma`
/// events, fixup traffic as global load/store events.
pub(crate) fn build_trace(
    device: &DeviceSpec,
    report: &ScheduleReport,
    sm_plans: &[SmPlan],
) -> Trace {
    let per_sm_events: Vec<Vec<TraceEvent>> = sm_plans
        .par_iter()
        .map(|plan| {
            let mut cursor = 0.0f64;
            let mut events = Vec::with_capacity(plan.segments.len());
            for seg in &plan.segments {
                let (kind, amount, detail) = match seg {
                    Segment::Block { block, flops, .. } => {
                        (TraceKind::Mma, *flops, format!("blk {block}"))
                    }
                    Segment::Chunk {
                        block,
                        iters,
                        owner,
                        flops,
                        ..
                    } => (
                        TraceKind::Mma,
                        *flops,
                        format!(
                            "blk {block} it {}..{}{}",
                            iters.0,
                            iters.1,
                            if *owner { "" } else { " (partial)" }
                        ),
                    ),
                    Segment::FixupStore { block, bytes, .. } => (
                        TraceKind::GlobalStore,
                        *bytes,
                        format!("fixup spill blk {block}"),
                    ),
                    Segment::FixupLoad {
                        block,
                        partials,
                        bytes,
                        ..
                    } => (
                        TraceKind::GlobalLoad,
                        *bytes,
                        format!("fixup reduce blk {block} ({partials} partials)"),
                    ),
                };
                events.push(TraceEvent {
                    warp: plan.sm,
                    phase: 0,
                    kind,
                    amount,
                    start: cursor,
                    duration: seg.cycles(),
                    detail,
                });
                cursor += seg.cycles();
            }
            events
        })
        .collect();

    Trace::from_tracks(
        device.name.clone(),
        None,
        report.makespan_cycles,
        per_sm_events,
    )
}

/// One bundle of every scheduler-plane knob: decomposition choice,
/// cost-model override, and the plan-cache budget/feedback
/// configuration. `ServerConfig` and `FleetSpec` thread the `cache`
/// section through to the caches they construct; standalone users can
/// build a matched scheduler + cache pair from one value.
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// Decomposition to request (default `Auto`).
    pub decomposition: Decomposition,
    /// Cost-model override for profiling and makespans.
    pub cost: Option<CostConfig>,
    /// Plan-cache budget/admission/feedback knobs.
    pub cache: crate::cache::CacheConfig,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            decomposition: Decomposition::Auto,
            cost: None,
            cache: crate::cache::CacheConfig::default(),
        }
    }
}

impl SchedConfig {
    /// A scheduler honoring this bundle's decomposition and cost knobs.
    pub fn scheduler<'a>(&self, device: &'a DeviceSpec) -> Scheduler<'a> {
        let mut s = Scheduler::new(device).with_decomposition(self.decomposition);
        if let Some(c) = &self.cost {
            s = s.with_cost(c.clone());
        }
        s
    }

    /// A plan cache honoring this bundle's cache knobs.
    pub fn plan_cache(&self) -> PlanCache {
        PlanCache::with_config(self.cache.clone())
    }
}

/// Device-level counterpart of [`kami_core::estimate_batched`]: model a
/// uniform batch through the scheduler (tuning the shape, choosing a
/// decomposition) instead of extrapolating one block.
pub fn estimate_batched_device(
    device: &DeviceSpec,
    m: usize,
    n: usize,
    k: usize,
    precision: kami_gpu_sim::Precision,
    batch: usize,
) -> Result<ScheduleReport, SchedError> {
    let plans = PlanCache::new();
    Scheduler::new(device).run(&BlockWork::uniform(m, n, k, precision, batch), &plans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::work::WorkItem;
    use kami_gpu_sim::device::gh200;
    use kami_gpu_sim::Precision;

    #[test]
    fn uniform_dp_covers_all_blocks() {
        let dev = gh200();
        let plans = PlanCache::new();
        let work = BlockWork::uniform(64, 64, 64, Precision::Fp16, 500);
        let r = Scheduler::new(&dev)
            .with_decomposition(Decomposition::DataParallel)
            .run(&work, &plans)
            .unwrap();
        assert_eq!(r.decomposition, Decomposition::DataParallel);
        assert_eq!(r.total_blocks, 500);
        assert_eq!(r.per_sm.len(), dev.num_sms as usize);
        let placed: usize = r.per_sm.iter().map(|s| s.blocks).sum();
        assert_eq!(placed, 500);
        assert!(r.makespan_cycles > 0.0);
        assert!(r.achieved_tflops > 0.0);
        assert!(r.utilization > 0.0 && r.utilization <= 1.0 + 1e-12);
    }

    #[test]
    fn streamk_covers_every_iteration_exactly_once() {
        let dev = gh200();
        let plans = PlanCache::new();
        let work = BlockWork::uniform(64, 64, 256, Precision::Fp64, 397);
        let r = Scheduler::new(&dev)
            .with_decomposition(Decomposition::StreamK)
            .run(&work, &plans)
            .unwrap();
        assert_eq!(r.decomposition, Decomposition::StreamK);
        assert_eq!(r.total_blocks, 397);
        let iters: usize = r.per_sm.iter().map(|s| s.k_iters).sum();
        assert_eq!(iters, 397 * r.k_stages);
        assert!(r.per_sm.iter().any(|s| s.fixups > 0));
    }

    #[test]
    fn auto_never_loses_to_either_forced_choice() {
        let dev = gh200();
        for count in [dev.num_sms as usize * 4 + 1, 500, 16] {
            let work = BlockWork::uniform(64, 64, 256, Precision::Fp64, count);
            let auto = Scheduler::new(&dev).run(&work, &PlanCache::new()).unwrap();
            for forced in [Decomposition::DataParallel, Decomposition::StreamK] {
                let r = Scheduler::new(&dev)
                    .with_decomposition(forced)
                    .run(&work, &PlanCache::new())
                    .unwrap();
                assert!(
                    auto.makespan_cycles <= r.makespan_cycles * (1.0 + 1e-12),
                    "auto ({}) lost to {} at count {count}",
                    auto.decomposition.label(),
                    forced.label()
                );
            }
        }
    }

    #[test]
    fn skinny_auto_picks_the_tree_fixup_and_wins() {
        let dev = gh200();
        // 32 tall-skinny blocks on 100+ SMs: splitting is mandatory to
        // fill the device, and the tree fixup beats the serial one.
        let work = BlockWork::uniform(16, 16, 16384, Precision::Fp16, 32);
        let auto = Scheduler::new(&dev).run(&work, &PlanCache::new()).unwrap();
        assert_eq!(auto.decomposition, Decomposition::SkinnyK);
        for forced in [
            Decomposition::DataParallel,
            Decomposition::StreamK,
            Decomposition::SkinnyK,
        ] {
            let r = Scheduler::new(&dev)
                .with_decomposition(forced)
                .run(&work, &PlanCache::new())
                .unwrap();
            assert!(
                auto.makespan_cycles <= r.makespan_cycles * (1.0 + 1e-12),
                "auto ({}) lost to {} on the skinny stream",
                auto.decomposition.label(),
                forced.label()
            );
            // Conservation: every k-loop iteration runs exactly once
            // regardless of the fixup topology.
            let iters: usize = r.per_sm.iter().map(|s| s.k_iters).sum();
            assert_eq!(iters, 32 * r.k_stages, "{} lost iterations", forced.label());
        }
    }

    #[test]
    fn skinnyk_rejects_non_skinny_streams() {
        let dev = gh200();
        let work = BlockWork::uniform(64, 64, 256, Precision::Fp64, 64);
        let err = Scheduler::new(&dev)
            .with_decomposition(Decomposition::SkinnyK)
            .run(&work, &PlanCache::new())
            .unwrap_err();
        assert!(
            matches!(
                err,
                SchedError::NotSkinny {
                    m: 64,
                    n: 64,
                    k: 256
                }
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn ragged_stream_schedules_lpt() {
        let dev = gh200();
        let plans = PlanCache::new();
        let mut items = Vec::new();
        for _ in 0..300 {
            items.push(WorkItem::new(64, 64, 64, Precision::Fp16));
            items.push(WorkItem::new(32, 32, 32, Precision::Fp16));
        }
        let r = Scheduler::new(&dev)
            .run(&BlockWork::new(items), &plans)
            .unwrap();
        assert_eq!(r.decomposition, Decomposition::DataParallel);
        assert_eq!(r.total_blocks, 600);
        // Two distinct shapes: two tuning sweeps, the rest reused.
        assert_eq!(r.plans_tuned, 2);
        assert_eq!(r.plans_reused, 598);
        assert!(r.tail_imbalance < 0.5, "LPT should balance a 2-shape mix");
    }

    #[test]
    fn empty_stream_is_rejected() {
        let dev = gh200();
        let plans = PlanCache::new();
        let err = Scheduler::new(&dev).run(&BlockWork::new(Vec::new()), &plans);
        assert!(err.is_err());
    }

    #[test]
    fn traced_run_matches_report() {
        let dev = gh200();
        let plans = PlanCache::new();
        let work = BlockWork::uniform(64, 64, 256, Precision::Fp64, 397);
        let (r, trace) = Scheduler::new(&dev).run_traced(&work, &plans).unwrap();
        assert_eq!(trace.device, r.device_name);
        assert_eq!(trace.total_cycles(), r.makespan_cycles);
        // Every SM's events are ordered and non-overlapping, and sum to
        // its busy time.
        for sm in r.per_sm.iter() {
            let evs: Vec<_> = trace.warp_events(sm.sm).collect();
            let mut cursor = 0.0f64;
            let mut sum = 0.0f64;
            for e in &evs {
                assert!(e.start >= cursor - 1e-9, "overlap on sm {}", sm.sm);
                cursor = e.start + e.duration;
                sum += e.duration;
            }
            assert!((sum - sm.busy_cycles).abs() < 1e-6);
        }
    }

    #[test]
    fn estimate_batched_device_runs() {
        let dev = gh200();
        let r = estimate_batched_device(&dev, 64, 64, 64, Precision::Fp16, 1024).unwrap();
        assert_eq!(r.total_blocks, 1024);
        assert!(r.achieved_tflops > 0.0);
    }
}
