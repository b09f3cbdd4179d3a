//! The shared plan cache: shape + precision + device → winning
//! [`KamiConfig`], per-block cost quantities,
//! and the decomposition the scheduler settled on.
//!
//! Built on [`kami_core::tune::SharedTuner`] — the thread-safe
//! extension of the §5.2.5 autotuner — plus one cost pass of the
//! winner per shape to extract the quantities the device-level
//! model needs (serial cycles, shared-resource bottleneck, residency,
//! k-stage count, C-tile writeback bytes). Repeated shapes are served
//! from the cache without re-tuning; hit/miss counters make that
//! observable.

use crate::cache::{BoundedCache, CacheConfig, CacheCounters, CacheWeight, RatioHistogram};
use crate::schedule::Decomposition;
use crate::work::WorkItem;
use kami_core::model::skinny;
use kami_core::plan::{gemm_cost, gemm_cost_auto, GemmPlan};
use kami_core::tune::{SharedTuner, TunedConfig};
use kami_core::{KamiConfig, KamiError};
use kami_gpu_sim::{occupancy, BackendKind, CostConfig, DeviceSpec, Occupancy, Precision};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Per-block cost quantities of one tuned shape on one device, in the
/// batched regime (global I/O included — §5.4).
#[derive(Debug, Clone)]
pub struct BlockCost {
    /// One block's serialized cycles (latency through the whole kernel).
    pub serial_cycles: f64,
    /// Cycles one block occupies the binding shared resource
    /// (max of smem bandwidth, tensor cores, global bandwidth).
    pub bottleneck_cycles: f64,
    /// Blocks resident per SM ([`occupancy::analyze`]).
    pub resident_blocks: u32,
    /// Communication rounds in the kernel — the granularity Stream-K
    /// splits the k-loop at (each stage is one comm + compute phase
    /// pair).
    pub k_stages: usize,
    /// C-tile writeback bytes: the payload a Stream-K fixup spills and
    /// reloads per extra partial.
    pub c_tile_bytes: u64,
    /// Useful flops of one block.
    pub flops: u64,
    /// The full occupancy analysis behind the numbers above.
    pub occupancy: Occupancy,
}

impl BlockCost {
    /// Steady-state cycles one block costs its SM: latency overlapped
    /// across `resident_blocks`, floored by the shared-resource
    /// bottleneck. The reciprocal is [`Occupancy::rate_per_cycle`].
    pub fn steady_cycles(&self) -> f64 {
        (self.serial_cycles / f64::from(self.resident_blocks.max(1))).max(self.bottleneck_cycles)
    }
}

/// One cached plan: the tuned config plus everything the scheduler
/// needs to place this shape without touching the simulator again.
#[derive(Debug, Clone)]
pub struct PlanEntry {
    pub tuned: TunedConfig,
    /// Decomposition the scheduler chose the last time it launched this
    /// shape (`Auto` until a launch records a choice).
    pub decomposition: Decomposition,
    pub cost: BlockCost,
}

/// `(device, m, n, k, precision, cost fingerprint)` — the fingerprint
/// keeps plans built under a cost-model override (fault injection,
/// overlap mode) from colliding with default-cost plans in the same
/// cache.
type PlanKey = (String, usize, usize, usize, Precision, u64);

/// Stable fingerprint of a cost-model override (0 = default cost).
fn cost_tag(cost: Option<&CostConfig>) -> u64 {
    match cost {
        None => 0,
        Some(c) => {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            c.theta_r.to_bits().hash(&mut h);
            c.theta_w.to_bits().hash(&mut h);
            c.mma_efficiency.to_bits().hash(&mut h);
            format!("{:?}", c.mode).hash(&mut h);
            h.finish() | 1
        }
    }
}

/// Shape class of one costed GEMM configuration: everything the cost
/// pass's output depends on. Two requests with the same key can share
/// one [`GemmPlan`] — the cost pass is deterministic in these fields
/// and touches no matrix data.
type CostKey = (
    String,       // device name
    usize,        // m
    usize,        // n
    usize,        // k
    Precision,    // operand precision
    &'static str, // algorithm
    usize,        // warps
    u64,          // smem_fraction bits
    u64,          // cost-model fingerprint
    bool,         // §4.7 auto-escalation requested
);

/// Approximate resident bytes of one tuned-plan entry. The entry is
/// almost entirely inline (`TunedConfig`, `BlockCost`, `Occupancy`
/// carry no heap allocations), so its size plus a small slack for
/// map overhead is honest.
impl CacheWeight for PlanEntry {
    fn weight_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + 64
    }
}

/// Cost-pass plans carry a heap-allocated [`ExecutionReport`]
/// (per-phase cycle breakdown); the core crate sizes it.
///
/// [`ExecutionReport`]: kami_gpu_sim::ExecutionReport
impl CacheWeight for Arc<GemmPlan> {
    fn weight_bytes(&self) -> usize {
        self.approx_resident_bytes()
    }
}

/// Exponentially weighted moving average of observed/predicted ratios
/// for one shape class (first observation seeds the average).
#[derive(Debug, Clone, Copy, Default)]
struct Ewma {
    value: f64,
    n: u64,
}

impl Ewma {
    fn observe(&mut self, x: f64, alpha: f64) {
        self.value = if self.n == 0 {
            x
        } else {
            alpha * x + (1.0 - alpha) * self.value
        };
        self.n += 1;
    }
}

/// Observed-over-predicted state for one shape class: an entry-wide
/// EWMA plus one per decomposition actually launched, so `Auto`
/// re-ranking can correct each candidate by the ratio *its* launches
/// exhibited.
#[derive(Debug, Clone, Default)]
struct FeedbackEntry {
    overall: Ewma,
    per_decomposition: HashMap<Decomposition, Ewma>,
}

/// Counter snapshot of the whole plan plane: both bounded stores plus
/// the feedback loop. Embedded in `kami-serve`'s `Metrics` /
/// `FleetMetrics` rollups.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlanCacheStats {
    /// Tuned-plan store (shape → config + block cost).
    pub plans: CacheCounters,
    /// Cost-pass store (shape class → [`GemmPlan`]).
    pub costs: CacheCounters,
    /// Observed executions recorded into the feedback plane.
    pub feedback_observations: u64,
    /// Makespan estimates actually corrected by an observed ratio.
    pub feedback_corrections: u64,
    /// Distribution of observed/predicted makespan ratios.
    pub ratio: RatioHistogram,
}

impl PlanCacheStats {
    /// Entries resident across both stores.
    pub fn entries(&self) -> usize {
        self.plans.entries + self.costs.entries
    }

    /// Approximate bytes resident across both stores.
    pub fn resident_bytes(&self) -> usize {
        self.plans.resident_bytes + self.costs.resident_bytes
    }

    /// Evictions across both stores.
    pub fn evictions(&self) -> u64 {
        self.plans.evictions + self.costs.evictions
    }

    /// Admission (Bloom/oversize) rejections across both stores.
    pub fn admission_rejected(&self) -> u64 {
        self.plans.admission_rejected + self.costs.admission_rejected
    }

    /// Stampedes avoided (single-flight waits) across both stores.
    pub fn stampedes_avoided(&self) -> u64 {
        self.plans.stampedes_avoided + self.costs.stampedes_avoided
    }

    /// Fold another snapshot into this one (bucket-wise exact; used by
    /// fleet rollups when replicas carry private caches).
    pub fn merge(&mut self, other: &PlanCacheStats) {
        let add = |a: &mut CacheCounters, b: &CacheCounters| {
            a.entries += b.entries;
            a.resident_bytes += b.resident_bytes;
            a.hits += b.hits;
            a.misses += b.misses;
            a.evictions += b.evictions;
            a.admission_rejected += b.admission_rejected;
            a.stampedes_avoided += b.stampedes_avoided;
        };
        add(&mut self.plans, &other.plans);
        add(&mut self.costs, &other.costs);
        self.feedback_observations += other.feedback_observations;
        self.feedback_corrections += other.feedback_corrections;
        self.ratio.merge(&other.ratio);
    }
}

/// Thread-safe plan cache shared across launches (and across SM workers
/// within a launch). Both stores sit on [`BoundedCache`]: the default
/// [`CacheConfig`] keeps them unbounded with admit-always (exactly the
/// historical `HashMap` behavior); a budgeted config holds a long
/// mixed trace to a fixed memory footprint with Bloom-doorkept
/// admission. Misses are single-flight — concurrent cold lookups of
/// one shape class run the tuning sweep / cost pass once.
pub struct PlanCache {
    tuner: SharedTuner,
    config: CacheConfig,
    plans: BoundedCache<PlanKey, PlanEntry>,
    /// Shape-class-keyed cost-pass results: repeated shapes skip the
    /// cost pass entirely and run execute-only.
    costs: BoundedCache<CostKey, Arc<GemmPlan>>,
    /// Observed/predicted ratio state per shape class (feedback arm
    /// only; empty while `config.feedback.enabled` is false).
    feedback: Mutex<HashMap<PlanKey, FeedbackEntry>>,
    observations: AtomicU64,
    corrections: AtomicU64,
    ratio_hist: Mutex<RatioHistogram>,
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::with_config(CacheConfig::default())
    }
}

impl PlanCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// A cache with explicit budget/admission/feedback knobs. The
    /// default config reproduces the unbounded, feedback-free cache
    /// bit-for-bit — that arm is what every golden test pins.
    pub fn with_config(config: CacheConfig) -> Self {
        PlanCache {
            tuner: SharedTuner::default(),
            plans: BoundedCache::new(&config),
            costs: BoundedCache::new(&config),
            feedback: Mutex::new(HashMap::new()),
            observations: AtomicU64::new(0),
            corrections: AtomicU64::new(0),
            ratio_hist: Mutex::new(RatioHistogram::default()),
            config,
        }
    }

    /// The configuration this cache runs under.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The underlying shared tuner (exposes `candidates_tried` and its
    /// own hit/miss counters).
    pub fn tuner(&self) -> &SharedTuner {
        &self.tuner
    }

    /// Plans served from the cache without tuning or simulating.
    pub fn hits(&self) -> usize {
        self.plans.hits() as usize
    }

    /// Plans that ran the tuning sweep plus one representative block.
    pub fn misses(&self) -> usize {
        self.plans.misses() as usize
    }

    /// Cost-pass results served from the shape-class cache.
    pub fn cost_hits(&self) -> usize {
        self.costs.hits() as usize
    }

    /// Shape classes that actually ran the cost pass.
    pub fn cost_misses(&self) -> usize {
        self.costs.misses() as usize
    }

    /// Concurrent misses that waited on an in-flight tuning sweep or
    /// cost pass instead of duplicating it (both stores).
    pub fn stampedes_avoided(&self) -> usize {
        (self.plans.stampedes_avoided() + self.costs.stampedes_avoided()) as usize
    }

    pub fn len(&self) -> usize {
        self.plans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot of the whole plan plane (both stores plus the
    /// feedback loop).
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            plans: self.plans.counters(),
            costs: self.costs.counters(),
            feedback_observations: self.observations.load(Ordering::Relaxed),
            feedback_corrections: self.corrections.load(Ordering::Relaxed),
            ratio: self
                .ratio_hist
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .clone(),
        }
    }

    /// The plan for one work-item shape, tuning and profiling on first
    /// use, with the representative block profiled under `cost` when
    /// given. Plans built under different overrides are cached under
    /// distinct keys, so one cache can serve default-cost and
    /// fault-injected launches side by side. Returns the entry and
    /// whether it was served from the cache.
    pub fn plan_for(
        &self,
        device: &DeviceSpec,
        item: &WorkItem,
        cost: Option<&CostConfig>,
    ) -> Result<(PlanEntry, bool), KamiError> {
        let key = self.key(device, item, cost);
        self.plans
            .get_or_try_compute(key, || self.build_plan(device, item, cost))
    }

    /// Record the decomposition a launch chose for this shape (under
    /// `cost`), so the cache maps shape → config **and** decomposition.
    pub fn record_decomposition(
        &self,
        device: &DeviceSpec,
        item: &WorkItem,
        cost: Option<&CostConfig>,
        decomposition: Decomposition,
    ) {
        let key = self.key(device, item, cost);
        self.plans
            .update(&key, |entry| entry.decomposition = decomposition);
    }

    fn key(&self, device: &DeviceSpec, item: &WorkItem, cost: Option<&CostConfig>) -> PlanKey {
        (
            device.name.clone(),
            item.m,
            item.n,
            item.k,
            item.precision,
            cost_tag(cost),
        )
    }

    /// The costed [`GemmPlan`] for one shape class, running the cost
    /// pass on first use and serving every repeat from the cache. With
    /// `auto` the §4.7 fallback ladder is applied (matching
    /// [`kami_core::gemm_auto`]); the cached plan then carries the
    /// escalated `smem_fraction`. Callers pair the result with
    /// [`kami_core::gemm_execute_plan_with`] for execute-only runs,
    /// naming the backend explicitly (as `kami-serve`'s warm path does
    /// with its `ServerConfig` backend).
    ///
    /// Plans are backend-independent (the cost pass never touches
    /// matrix data), so the cache key ignores `cfg.backend` and the
    /// cached plan is normalized to the default backend: a cached plan
    /// must not depend on which configuration costed its shape class
    /// first.
    pub fn gemm_plan_for(
        &self,
        device: &DeviceSpec,
        cfg: &KamiConfig,
        m: usize,
        n: usize,
        k: usize,
        auto: bool,
    ) -> Result<Arc<GemmPlan>, KamiError> {
        let key: CostKey = (
            device.name.clone(),
            m,
            n,
            k,
            cfg.precision,
            cfg.algo.label(),
            cfg.warps,
            cfg.smem_fraction.to_bits(),
            cost_tag(Some(&cfg.cost)),
            auto,
        );
        let (plan, _) = self.costs.get_or_try_compute(key, || {
            let mut costed = if auto {
                gemm_cost_auto(device, cfg, m, n, k)?
            } else {
                gemm_cost(device, cfg, m, n, k)?
            };
            // Normalize so the cached plan's default-execute backend
            // never depends on which configuration costed the shape
            // class first.
            costed.cfg.backend = BackendKind::default();
            Ok::<_, KamiError>(Arc::new(costed))
        })?;
        Ok(plan)
    }

    /// Record one observed execution of a uniform shape class: the
    /// makespan the model predicted at dispatch vs the cycles the
    /// execution actually took. Feeds the per-shape EWMA of
    /// observed/predicted ratios the `Auto` re-ranker and
    /// [`PlanCache::predict_makespan`] consult. No-op while feedback is
    /// disabled (the control arm records nothing and reads nothing —
    /// behavior is bit-identical to a cache without this method).
    pub fn observe_execution(
        &self,
        device: &DeviceSpec,
        item: &WorkItem,
        cost: Option<&CostConfig>,
        decomposition: Decomposition,
        predicted_cycles: f64,
        observed_cycles: f64,
    ) {
        let fb = &self.config.feedback;
        if !fb.enabled
            || !predicted_cycles.is_finite()
            || predicted_cycles <= 0.0
            || !observed_cycles.is_finite()
            || observed_cycles <= 0.0
        {
            return;
        }
        let ratio = observed_cycles / predicted_cycles;
        let key = self.key(device, item, cost);
        {
            let mut map = self.feedback.lock().unwrap_or_else(|p| p.into_inner());
            let entry = map.entry(key).or_default();
            entry.overall.observe(ratio, fb.alpha);
            entry
                .per_decomposition
                .entry(decomposition)
                .or_default()
                .observe(ratio, fb.alpha);
        }
        self.observations.fetch_add(1, Ordering::Relaxed);
        self.ratio_hist
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .record(ratio);
    }

    /// Multiplier that corrects a model-predicted makespan for this
    /// shape class by its observed/predicted EWMA. Returns exactly
    /// `1.0` unless feedback is enabled, the class has at least
    /// `min_observations` recorded, **and** the ratio diverges from
    /// 1 by more than the configured threshold — so a well-calibrated
    /// model is never perturbed. Prefers the ratio observed under
    /// `decomposition` (when given), falling back to the entry-wide
    /// EWMA; each non-unit return counts one feedback correction.
    pub fn correction_factor(
        &self,
        device: &DeviceSpec,
        item: &WorkItem,
        cost: Option<&CostConfig>,
        decomposition: Option<Decomposition>,
    ) -> f64 {
        let fb = &self.config.feedback;
        if !fb.enabled {
            return 1.0;
        }
        let key = self.key(device, item, cost);
        let ewma = {
            let map = self.feedback.lock().unwrap_or_else(|p| p.into_inner());
            let Some(entry) = map.get(&key) else {
                return 1.0;
            };
            decomposition
                .and_then(|d| entry.per_decomposition.get(&d))
                .filter(|e| e.n >= fb.min_observations)
                .copied()
                .or_else(|| (entry.overall.n >= fb.min_observations).then_some(entry.overall))
        };
        match ewma {
            Some(e) if (e.value - 1.0).abs() > fb.divergence => {
                self.corrections.fetch_add(1, Ordering::Relaxed);
                e.value
            }
            _ => 1.0,
        }
    }

    /// Predicted device-level makespan, in cycles, for `work` on
    /// `device` — the routing query a fleet-level placement layer asks
    /// before committing a request to a replica. The answer comes from
    /// the same scheduler model a dispatch would run, against the same
    /// cached per-block cost quantities: a cold shape class pays the
    /// tuning sweep plus one cost pass on this device and is cached;
    /// every repeat is answered without touching the simulator. The
    /// estimate therefore equals the makespan a solo dispatch of
    /// exactly this work pool would charge the device clock.
    ///
    /// Errors surface device infeasibility (e.g. FP64 work on a device
    /// without FP64 MMA shapes) — a router treats those replicas as
    /// ineligible rather than failing the request.
    ///
    /// When feedback is enabled and the class has diverged from its
    /// predictions, the model makespan is multiplied by the observed
    /// EWMA ratio ([`PlanCache::correction_factor`]) — the fleet router
    /// then places against what executions actually cost, not what the
    /// mis-modeled device claims.
    pub fn predict_makespan(
        &self,
        device: &DeviceSpec,
        work: &crate::work::BlockWork,
        cost: Option<&CostConfig>,
    ) -> Result<f64, crate::error::SchedError> {
        let mut scheduler = crate::schedule::Scheduler::new(device);
        if let Some(c) = cost {
            scheduler = scheduler.with_cost(c.clone());
        }
        let report = scheduler.run(work, self)?;
        let mut makespan = report.makespan_cycles;
        if self.config.feedback.enabled && !work.items.is_empty() && work.is_uniform() {
            makespan *=
                self.correction_factor(device, &work.items[0], cost, Some(report.decomposition));
        }
        Ok(makespan)
    }

    /// Tune the shape, then cost the winner to extract the block-level
    /// cost quantities. Profiling is the cost pass alone — no matrix
    /// data is generated or multiplied — and it goes through the
    /// shape-class cost cache, so a later execute-only run of the same
    /// shape reuses the result. A cost override is applied to the
    /// winner before costing, so the extracted cycles reflect the
    /// overridden model (the tuning sweep itself ranks candidates under
    /// the default cost — the override scales costs, it does not
    /// reorder configurations).
    fn build_plan(
        &self,
        device: &DeviceSpec,
        item: &WorkItem,
        cost: Option<&CostConfig>,
    ) -> Result<PlanEntry, KamiError> {
        if skinny::is_tall_skinny(item.m, item.n, item.k) {
            return self.build_skinny_plan(device, item, cost);
        }
        let mut tuned = self
            .tuner
            .config_for(device, item.m, item.n, item.k, item.precision)?;
        if let Some(c) = cost {
            tuned.cfg.cost = c.clone();
        }
        let plan = self.gemm_plan_for(device, &tuned.cfg, item.m, item.n, item.k, false)?;
        let report = &plan.report;
        let occ = occupancy::analyze(device, report, plan.useful_flops);

        let smem_bw_cycles = (report.smem_bytes_written + report.smem_bytes_read) as f64
            / device.smem_bytes_per_cycle();
        let gmem_bw_cycles = (report.gmem_bytes_read + report.gmem_bytes_written) as f64
            / device.gmem_bytes_per_cycle;
        let bottleneck_cycles = smem_bw_cycles
            .max(report.totals.compute)
            .max(gmem_bw_cycles);
        // Phases lay out as (comm, compute) pairs plus one tail phase.
        let k_stages = (report.phase_costs.len().saturating_sub(1) / 2).max(1);

        Ok(PlanEntry {
            tuned,
            decomposition: Decomposition::Auto,
            cost: BlockCost {
                serial_cycles: report.cycles,
                bottleneck_cycles,
                resident_blocks: occ.resident_blocks,
                k_stages,
                c_tile_bytes: report.gmem_bytes_written,
                flops: plan.useful_flops,
                occupancy: occ,
            },
        })
    }

    /// Tall-skinny items (`m,n ≤ 64`, `k ≥ 10^4`) cannot be tuned or
    /// costed monolithically — no configuration fits the register file
    /// at that depth — so the plan mirrors what the engine actually
    /// runs ([`kami_core::gemm_skinny`]): tune and cost one
    /// [`skinny::SKINNY_CHUNK_K`]-deep chunk, scale by the chunk
    /// count, and add the tree-fixup closed form from
    /// [`kami_core::model::skinny`]. Every deep-k item of the same
    /// `m×n` shares the one chunk-shape tuning sweep — the cache win
    /// the k-split path was designed around. The stored
    /// [`TunedConfig`] is the *chunk's*, matching what
    /// `GemmRequest::resolve_config` hands the executor.
    fn build_skinny_plan(
        &self,
        device: &DeviceSpec,
        item: &WorkItem,
        cost: Option<&CostConfig>,
    ) -> Result<PlanEntry, KamiError> {
        let chunk_k = skinny::SKINNY_CHUNK_K.min(item.k);
        let chunks = skinny::chunk_count(item.k);
        let mut tuned = self
            .tuner
            .config_for(device, item.m, item.n, chunk_k, item.precision)?;
        if let Some(c) = cost {
            tuned.cfg.cost = c.clone();
        }
        let plan = self.gemm_plan_for(device, &tuned.cfg, item.m, item.n, chunk_k, false)?;
        let report = &plan.report;
        let occ = occupancy::analyze(device, report, plan.useful_flops);
        let c_prec = kami_core::gemm::c_precision(item.precision);
        let fixup = skinny::fixup_cycles(
            device,
            &tuned.cfg.cost,
            item.m,
            item.n,
            chunks,
            c_prec,
            0,
            0,
        )
        .map_err(KamiError::Sim)?;

        let cf = chunks as f64;
        let tile_bytes = (item.m * item.n * c_prec.size_bytes()) as u64;
        let fixup_gmem = 3 * tile_bytes * chunks.saturating_sub(1) as u64;
        let smem_bw_cycles = cf * (report.smem_bytes_written + report.smem_bytes_read) as f64
            / device.smem_bytes_per_cycle();
        let gmem_bw_cycles = (cf * (report.gmem_bytes_read + report.gmem_bytes_written) as f64
            + fixup_gmem as f64)
            / device.gmem_bytes_per_cycle;
        let bottleneck_cycles = smem_bw_cycles
            .max(cf * report.totals.compute)
            .max(gmem_bw_cycles);
        let chunk_stages = (report.phase_costs.len().saturating_sub(1) / 2).max(1);

        Ok(PlanEntry {
            tuned,
            decomposition: Decomposition::Auto,
            cost: BlockCost {
                serial_cycles: cf * report.cycles + fixup,
                bottleneck_cycles,
                resident_blocks: occ.resident_blocks,
                k_stages: chunks * chunk_stages,
                c_tile_bytes: report.gmem_bytes_written,
                flops: item.flops(),
                occupancy: occ,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kami_gpu_sim::device::gh200;

    #[test]
    fn plan_is_cached_after_first_use() {
        let dev = gh200();
        let cache = PlanCache::new();
        let item = WorkItem::new(64, 64, 64, Precision::Fp16);
        let (first, was_hit) = cache.plan_for(&dev, &item, None).unwrap();
        assert!(!was_hit);
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        assert!(first.tuned.candidates_tried > 1);
        let (second, was_hit) = cache.plan_for(&dev, &item, None).unwrap();
        assert!(was_hit);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(second.cost.serial_cycles, first.cost.serial_cycles);
        // Exactly one tuning sweep happened underneath.
        assert_eq!(cache.tuner().misses(), 1);
    }

    #[test]
    fn cost_quantities_are_consistent() {
        let dev = gh200();
        let cache = PlanCache::new();
        let item = WorkItem::new(64, 64, 64, Precision::Fp16);
        let (entry, _) = cache.plan_for(&dev, &item, None).unwrap();
        let c = &entry.cost;
        assert!(c.serial_cycles > 0.0);
        assert!(c.bottleneck_cycles > 0.0 && c.bottleneck_cycles <= c.serial_cycles);
        assert!(c.resident_blocks >= 1);
        assert!(c.k_stages >= 1);
        assert!(c.c_tile_bytes > 0);
        assert_eq!(c.flops, item.flops());
        // steady_cycles is the reciprocal of the occupancy rate.
        let rate = 1.0 / c.steady_cycles();
        assert!((rate - c.occupancy.rate_per_cycle).abs() / rate < 1e-9);
    }

    #[test]
    fn concurrent_lookups_tune_once_logically() {
        let dev = gh200();
        let cache = PlanCache::new();
        let item = WorkItem::new(32, 32, 32, Precision::Fp64);
        cache.plan_for(&dev, &item, None).unwrap();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let (_, hit) = cache.plan_for(&dev, &item, None).unwrap();
                    assert!(hit);
                });
            }
        });
        assert_eq!(cache.hits(), 4);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn cost_cache_skips_the_cost_pass_on_repeats() {
        let dev = gh200();
        let cache = PlanCache::new();
        let cfg = kami_core::KamiConfig::new(kami_core::Algo::OneD, Precision::Fp16);
        let first = cache.gemm_plan_for(&dev, &cfg, 64, 64, 64, false).unwrap();
        assert_eq!((cache.cost_hits(), cache.cost_misses()), (0, 1));
        let second = cache.gemm_plan_for(&dev, &cfg, 64, 64, 64, false).unwrap();
        assert_eq!((cache.cost_hits(), cache.cost_misses()), (1, 1));
        // Same Arc — the repeat did not rerun the cost pass.
        assert!(Arc::ptr_eq(&first, &second));
        // A different shape class (other warp count) costs separately.
        let wide = cfg.clone().with_warps(16);
        cache.gemm_plan_for(&dev, &wide, 64, 64, 64, false).unwrap();
        assert_eq!(cache.cost_misses(), 2);
    }

    #[test]
    fn build_plan_goes_through_the_cost_cache() {
        let dev = gh200();
        let cache = PlanCache::new();
        let item = WorkItem::new(64, 64, 64, Precision::Fp16);
        cache.plan_for(&dev, &item, None).unwrap();
        // Tuning profiled the winner via the cost cache exactly once.
        assert_eq!(cache.cost_misses(), 1);
        let (entry, _) = cache.plan_for(&dev, &item, None).unwrap();
        // An execute-only consumer asking for the tuned shape class hits.
        let plan = cache
            .gemm_plan_for(&dev, &entry.tuned.cfg, 64, 64, 64, false)
            .unwrap();
        assert!(cache.cost_hits() >= 1);
        assert_eq!(plan.report.cycles, entry.cost.serial_cycles);
    }

    #[test]
    fn predict_makespan_matches_scheduler_and_caches() {
        let dev = gh200();
        let cache = PlanCache::new();
        let work = crate::work::BlockWork::uniform(64, 64, 64, Precision::Fp16, 8);
        let pred = cache.predict_makespan(&dev, &work, None).unwrap();
        let report = crate::schedule::Scheduler::new(&dev)
            .run(&work, &cache)
            .unwrap();
        assert_eq!(
            pred, report.makespan_cycles,
            "routing query must equal the makespan a dispatch would charge"
        );
        let misses = cache.misses();
        cache.predict_makespan(&dev, &work, None).unwrap();
        assert_eq!(
            cache.misses(),
            misses,
            "repeat routing query must answer from the cache"
        );
    }

    #[test]
    fn predict_makespan_surfaces_infeasible_devices() {
        let dev = kami_gpu_sim::device::rtx5090();
        let cache = PlanCache::new();
        let work = crate::work::BlockWork::uniform(32, 32, 32, Precision::Fp64, 4);
        assert!(
            cache.predict_makespan(&dev, &work, None).is_err(),
            "FP64 on a device without FP64 MMA shapes must be reported ineligible"
        );
    }

    #[test]
    fn skinny_items_plan_via_the_chunk_shape() {
        let dev = gh200();
        let cache = PlanCache::new();
        let item = WorkItem::new(16, 16, 65536, Precision::Fp16);
        let (entry, _) = cache.plan_for(&dev, &item, None).unwrap();
        let c = &entry.cost;
        assert_eq!(c.flops, item.flops());
        let chunks = skinny::chunk_count(65536);
        assert!(
            c.k_stages >= chunks,
            "k-split granularity covers every chunk"
        );
        assert!(c.serial_cycles > 0.0 && c.bottleneck_cycles <= c.serial_cycles);
        // The tuned config is the chunk's, exactly what the executor gets.
        assert_eq!(cache.tuner().misses(), 1);
        // A deeper item of the same m x n reuses that one tuning sweep
        // *and* the chunk's cost pass — the k-split cache win.
        let deeper = WorkItem::new(16, 16, 131072, Precision::Fp16);
        cache.plan_for(&dev, &deeper, None).unwrap();
        assert_eq!(cache.tuner().misses(), 1);
        assert_eq!(cache.cost_misses(), 1);
    }

    #[test]
    fn decomposition_is_recorded() {
        let dev = gh200();
        let cache = PlanCache::new();
        let item = WorkItem::new(64, 64, 64, Precision::Fp16);
        cache.plan_for(&dev, &item, None).unwrap();
        cache.record_decomposition(&dev, &item, None, Decomposition::StreamK);
        let (entry, _) = cache.plan_for(&dev, &item, None).unwrap();
        assert_eq!(entry.decomposition, Decomposition::StreamK);
    }
}
