//! The service runtime: sharded bounded admission, tick-based dispatch,
//! coalescing, end-to-end deadlines with retry and degraded-serial
//! fallback.
//!
//! ## Clock model
//!
//! The server keeps one simulated device clock. Each tick pops every
//! eligible request, coalesces compatible ones into shared work pools,
//! runs each pool through the device scheduler, and advances the clock
//! by the pool's makespan. Wall-clock time never enters the model —
//! latency, deadlines, and backoff are all simulated cycles, so runs
//! are exactly reproducible.
//!
//! ## Admission path
//!
//! Admission is striped over [`ServerConfig::admission_shards`]
//! sub-queues with per-shard locks, so producers on different threads
//! never contend on one mutex. `submit` reserves one slot of the
//! *global* capacity (a single atomic), lands on the submitting
//! thread's home shard, and fails over to a sibling shard when the home
//! shard is at its soft per-shard cap — [`ServeError::QueueFull`] only
//! surfaces when the global bound is truly exhausted. A tick drains all
//! shards into one batch and orders it by admission id, which both
//! preserves per-shard FIFO and makes the batch globally
//! submission-ordered, so dispatch stays deterministic.
//!
//! Completion is equally uncontended: payloads live in `Arc`'d storage
//! from admission (retries and the degraded-serial replay share the
//! allocation instead of cloning), and each ticket resolves through its
//! own `Mutex` + `Condvar` one-shot, so settling a request never takes
//! the admission shards or the dispatcher's state lock.
//!
//! ## Deadlines
//!
//! `deadline_cycles` is **end-to-end**: the budget is charged from the
//! clock at admission, across every retry and its backoff parking. A
//! missed deadline requeues into a parked set (exempt from the
//! admission bound — admitted work is never double-charged against
//! fresh producers) until retries are exhausted, then completes via the
//! degraded serial fallback rather than being dropped.
//!
//! ## Numerics
//!
//! Coalescing only shares the *schedule*. Every dense request tunes
//! through the [`PlanCache`]'s shared tuner, once per shape class.
//! Plain dense GEMMs run through the split engine: one cached cost pass
//! per shape class (shared with scheduling) plus an execute-only run
//! per request; everything else uses the same engine entry points a
//! non-served caller would ([`ServeRequest::execute`]). Both paths are
//! bit-identical, retries included: the payload is computed once on
//! the first attempt and carried across requeues.

use crate::error::ServeError;
use crate::metrics::{MergedTrace, Metrics, TickRecord};
use crate::request::{ServeOutput, ServeRequest, Workload};
use crate::ticket::{Completed, CompletionPath, Ticket, TicketInner};
use kami_gpu_sim::{BackendKind, CostConfig, DeviceSpec, Trace};
use kami_sched::{
    BlockWork, CacheConfig, Decomposition, PlanCache, Scheduler, SparseWork, WorkItem,
};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bounded admission: submissions beyond this *global* depth bounce
    /// with [`ServeError::QueueFull`]. The bound covers freshly admitted
    /// requests only; retries parked in backoff are already admitted and
    /// tracked separately (see [`Metrics::max_parked_depth`]).
    pub queue_capacity: usize,
    /// Sub-queues the admission path stripes over. Producers hash to a
    /// home shard by thread and fail over to siblings before reporting
    /// `QueueFull`; 1 = the single-queue baseline.
    pub admission_shards: usize,
    /// Merge same-shape-class dense requests into shared work pools.
    /// Off = every request dispatches alone (the serial baseline).
    pub coalesce: bool,
    /// Run a group's member numerics in parallel across worker threads.
    /// Outputs are collected in member order, so results are
    /// bit-identical to the sequential path.
    pub parallel_execute: bool,
    /// Deadline misses tolerated before the serial fallback.
    pub max_retries: u32,
    /// Base requeue delay in simulated cycles; attempt `i` waits
    /// `backoff_cycles · 2^(i−1)`.
    pub backoff_cycles: f64,
    /// Cost-model override applied to every schedule this server builds
    /// (fault injection hook: inflated costs -> deadline misses, while
    /// numerics stay untouched).
    pub cost: Option<CostConfig>,
    /// Decomposition forced on dense work pools (`Auto` = model picks).
    pub decomposition: Decomposition,
    /// Record a merged Chrome trace of every dispatched group (costs
    /// memory proportional to total work; off by default).
    pub capture_trace: bool,
    /// Device the *numerics* run on, when different from the device
    /// whose clock this server charges. Fleet replicas set this to the
    /// fleet's designated numeric device so every replica produces
    /// bit-identical payloads regardless of placement — auto-tuned
    /// configs differ across device classes, and with them accumulation
    /// order. Scheduling, costs, and the clock still use the server's
    /// own device. `None` (the default) = numerics on the same device.
    pub numeric_device: Option<DeviceSpec>,
    /// Execution backend for the warm fast path (cached cost pass +
    /// execute-only run). Backends are bit-identical, so this is a
    /// throughput knob, not a numerics one; [`BackendKind::Native`]
    /// runs host-speed SIMD microkernels end-to-end on warm requests.
    /// Requests leaving the fast path honor their own
    /// `GemmRequest::backend` override instead.
    pub backend: BackendKind,
    /// Plan-cache budget/admission/feedback knobs for the cache this
    /// server constructs (ignored by [`Server::with_shared_plans`],
    /// where the caller owns the cache). The default is unbounded +
    /// no-feedback — exactly the historical cache.
    pub cache: CacheConfig,
    /// "Reality" cost model for observed execution. When set, every
    /// dense dispatch is re-costed under this model (same work, same
    /// decomposition the model chose) and the *observed* makespan is
    /// what the clock charges and what feeds the plan cache's
    /// observation channel — the serving twin of a device whose real
    /// timing diverges from its cost model. `None` (the default) means
    /// observation equals prediction: the feedback loop measures ratio
    /// 1.0 and corrects nothing, keeping behavior bit-identical.
    pub true_cost: Option<CostConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue_capacity: 64,
            admission_shards: 8,
            coalesce: true,
            parallel_execute: true,
            max_retries: 2,
            backoff_cycles: 1024.0,
            cost: None,
            decomposition: Decomposition::Auto,
            capture_trace: false,
            numeric_device: None,
            backend: BackendKind::default(),
            cache: CacheConfig::default(),
            true_cost: None,
        }
    }
}

/// One dispatched group's schedule: the model makespan, the observed
/// makespan (differs only under [`ServerConfig::true_cost`]), and — for
/// uniform dense pools — the shape class and chosen decomposition the
/// observation channel reports on.
struct GroupSchedule {
    /// Makespan the cost model predicted.
    makespan: f64,
    /// Makespan the execution actually took (equals `makespan` without
    /// a true-cost model). The clock charges this.
    observed: f64,
    utilization: f64,
    trace: Option<Trace>,
    /// Uniform dense pools only: shape class + chosen decomposition.
    class: Option<(WorkItem, Decomposition)>,
}

/// A queued request attempt. The request payload is `Arc`'d at
/// admission: retry attempts, coalesced group members, and the degraded
/// replay all read the same allocation.
struct Pending {
    id: u64,
    request: Arc<ServeRequest>,
    /// Clock at admission — immutable; every deadline check and the
    /// end-to-end latency histogram charge from here.
    admitted_at: f64,
    /// Clock when the current attempt becomes eligible (the backoff
    /// gate — never used for deadline accounting).
    ready_at: f64,
    /// Dispatch attempts consumed so far.
    attempts: u32,
    /// Numeric payload from the first attempt, reused on retries.
    cached: Option<ServeOutput>,
    ticket: Arc<TicketInner>,
}

/// Striped admission: N sub-queues with per-shard locks under one
/// atomic global capacity.
struct AdmissionShards {
    shards: Vec<Mutex<VecDeque<Pending>>>,
    /// Admitted-but-not-yet-claimed requests across all shards
    /// (incremented at reserve time, decremented at drain).
    depth: AtomicUsize,
    /// Soft per-shard bound steering `push` toward balance; the global
    /// `capacity` is the only hard limit.
    soft_cap: usize,
    capacity: usize,
}

impl AdmissionShards {
    fn new(shards: usize, capacity: usize) -> Self {
        let n = shards.max(1);
        AdmissionShards {
            shards: (0..n).map(|_| Mutex::new(VecDeque::new())).collect(),
            depth: AtomicUsize::new(0),
            soft_cap: capacity.div_ceil(n).max(1),
            capacity,
        }
    }

    /// Claim one slot of global capacity, or fail without side effects.
    fn try_reserve(&self) -> bool {
        if self.depth.fetch_add(1, Ordering::SeqCst) >= self.capacity {
            self.depth.fetch_sub(1, Ordering::SeqCst);
            return false;
        }
        true
    }

    /// The submitting thread's home shard (stable per thread, so a
    /// single producer keeps per-shard FIFO = its submission order).
    fn home_shard(&self) -> usize {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        std::thread::current().id().hash(&mut h);
        (h.finish() as usize) % self.shards.len()
    }

    /// Enqueue under an already-reserved slot. Prefers the home shard,
    /// fails over to the first sibling under the soft cap (the last
    /// probed shard always accepts — capacity was reserved globally).
    /// Returns `true` when a failover happened.
    fn push(&self, home: usize, pending: Pending) -> bool {
        let n = self.shards.len();
        let mut pending = Some(pending);
        for i in 0..n {
            let idx = (home + i) % n;
            let mut q = self.shards[idx].lock().unwrap_or_else(|p| p.into_inner());
            if q.len() < self.soft_cap || i == n - 1 {
                q.push_back(pending.take().expect("pushed at most once"));
                return i > 0;
            }
        }
        unreachable!("the last probed shard accepts unconditionally")
    }

    /// Claim every enqueued request, shard by shard (per-shard FIFO
    /// preserved; the caller orders the combined batch by id).
    fn drain_all(&self) -> Vec<Pending> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let mut q = shard.lock().unwrap_or_else(|p| p.into_inner());
            out.extend(q.drain(..));
        }
        if !out.is_empty() {
            self.depth.fetch_sub(out.len(), Ordering::SeqCst);
        }
        out
    }

    fn depth(&self) -> usize {
        self.depth.load(Ordering::SeqCst)
    }
}

struct State {
    /// Retries parked in backoff. Already admitted — exempt from the
    /// admission bound, accounted via [`Metrics::max_parked_depth`].
    parked: VecDeque<Pending>,
    clock: f64,
    tick: u64,
    metrics: Metrics,
    trace: MergedTrace,
}

/// Summary of one [`Server::tick`].
#[derive(Debug, Clone, Default)]
pub struct TickSummary {
    pub tick: u64,
    /// Requests dispatched (completed + retried + failed).
    pub dispatched: usize,
    pub groups: usize,
    pub completed: usize,
    pub retried: usize,
    pub degraded: usize,
    pub failed: usize,
    /// Cycles this tick advanced the service clock.
    pub advanced_cycles: f64,
    /// Sum of group makespans (excludes degraded-serial replays).
    pub group_cycles: f64,
    /// Makespan-weighted utilization numerator across groups.
    util_weighted: f64,
}

impl TickSummary {
    /// Makespan-weighted mean SM utilization across this tick's groups.
    pub fn utilization(&self) -> f64 {
        if self.group_cycles > 0.0 {
            self.util_weighted / self.group_cycles
        } else {
            0.0
        }
    }
}

/// The batched-GEMM service runtime for one device.
pub struct Server {
    device: DeviceSpec,
    config: ServerConfig,
    plans: Arc<PlanCache>,
    admission: AdmissionShards,
    state: Mutex<State>,
    /// Monotone admission ids — also the deterministic dispatch order.
    next_id: AtomicU64,
    shutting_down: AtomicBool,
    /// Mirror of `State::clock` (f64 bits) so `submit` stamps
    /// `admitted_at` without the state lock.
    clock_bits: AtomicU64,
    // Admission-side counters live outside the state lock; `metrics()`
    // composes them with the dispatch-side counters.
    submitted: AtomicU64,
    rejected_queue_full: AtomicU64,
    rejected_shutting_down: AtomicU64,
    admission_failovers: AtomicU64,
    max_queue_depth: AtomicUsize,
    /// Dispatcher threads parked on `work_cv`; producers skip the
    /// notify entirely while this is zero.
    sleepers: AtomicUsize,
    park: Mutex<()>,
    /// Signalled on submit and shutdown, so dispatcher threads can park.
    work_cv: Condvar,
    /// Serializes ticks: dispatch itself runs outside `state`, so
    /// producers can keep submitting mid-tick.
    dispatch: Mutex<()>,
}

impl Server {
    pub fn new(device: &DeviceSpec) -> Self {
        Self::with_config(device, ServerConfig::default())
    }

    pub fn with_config(device: &DeviceSpec, config: ServerConfig) -> Self {
        let plans = Arc::new(PlanCache::with_config(config.cache.clone()));
        Self::with_shared_plans(device, config, plans)
    }

    /// Build a server over an externally owned [`PlanCache`]. Fleet
    /// replicas share one cache this way: a shape class tuned and
    /// costed by any replica (or by the router's placement query) is a
    /// cache hit for every other replica of the same device class.
    pub fn with_shared_plans(
        device: &DeviceSpec,
        config: ServerConfig,
        plans: Arc<PlanCache>,
    ) -> Self {
        let admission = AdmissionShards::new(config.admission_shards, config.queue_capacity);
        Server {
            device: device.clone(),
            config,
            plans,
            admission,
            state: Mutex::new(State {
                parked: VecDeque::new(),
                clock: 0.0,
                tick: 0,
                metrics: Metrics::default(),
                trace: MergedTrace::default(),
            }),
            next_id: AtomicU64::new(0),
            shutting_down: AtomicBool::new(false),
            clock_bits: AtomicU64::new(0.0f64.to_bits()),
            submitted: AtomicU64::new(0),
            rejected_queue_full: AtomicU64::new(0),
            rejected_shutting_down: AtomicU64::new(0),
            admission_failovers: AtomicU64::new(0),
            max_queue_depth: AtomicUsize::new(0),
            sleepers: AtomicUsize::new(0),
            park: Mutex::new(()),
            work_cv: Condvar::new(),
            dispatch: Mutex::new(()),
        }
    }

    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The shared plan cache (tuning happens once per shape class).
    pub fn plans(&self) -> &PlanCache {
        &self.plans
    }

    fn locked(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn publish_clock(&self, clock: f64) {
        self.clock_bits.store(clock.to_bits(), Ordering::SeqCst);
    }

    /// Admit a request. Returns a [`Ticket`] resolving when some thread
    /// ticks the queue dry, or a typed rejection under backpressure or
    /// shutdown. The payload moves into `Arc`'d storage; submit with
    /// [`Server::submit_shared`] to share an allocation you already
    /// hold.
    pub fn submit(&self, request: ServeRequest) -> Result<Ticket, ServeError> {
        self.submit_shared(Arc::new(request))
    }

    /// Admit an already-`Arc`'d request — the zero-copy admission path.
    /// Retry attempts, coalesced dispatch, and the degraded-serial
    /// replay all read this allocation; the server never clones the
    /// payload.
    pub fn submit_shared(&self, request: Arc<ServeRequest>) -> Result<Ticket, ServeError> {
        if self.shutting_down.load(Ordering::SeqCst) {
            self.rejected_shutting_down.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::ShuttingDown);
        }
        if !self.admission.try_reserve() {
            self.rejected_queue_full.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::QueueFull {
                capacity: self.config.queue_capacity,
            });
        }
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        let ticket = Arc::new(TicketInner::default());
        let admitted_at = self.clock();
        let home = self.admission.home_shard();
        let failed_over = self.admission.push(
            home,
            Pending {
                id,
                request,
                admitted_at,
                ready_at: admitted_at,
                attempts: 0,
                cached: None,
                ticket: Arc::clone(&ticket),
            },
        );
        if failed_over {
            self.admission_failovers.fetch_add(1, Ordering::Relaxed);
        }
        self.submitted.fetch_add(1, Ordering::Relaxed);
        self.max_queue_depth
            .fetch_max(self.admission.depth(), Ordering::Relaxed);
        self.notify_work();
        Ok(Ticket { id, inner: ticket })
    }

    fn notify_work(&self) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            // The park lock orders this notify after a racing sleeper's
            // under-lock work re-check, so the wakeup cannot be lost.
            let _g = self.park.lock().unwrap_or_else(|p| p.into_inner());
            self.work_cv.notify_all();
        }
    }

    /// Requests in flight: freshly admitted plus parked-in-backoff.
    pub fn pending(&self) -> usize {
        self.admission.depth() + self.locked().parked.len()
    }

    /// Retries currently parked in backoff (admitted earlier; exempt
    /// from the admission bound).
    pub fn parked(&self) -> usize {
        self.locked().parked.len()
    }

    /// The simulated service clock (lock-free read of the mirror the
    /// dispatcher publishes).
    pub fn clock(&self) -> f64 {
        f64::from_bits(self.clock_bits.load(Ordering::SeqCst))
    }

    /// Snapshot the cumulative metrics (admission-side atomic counters
    /// composed with the dispatch-side state).
    pub fn metrics(&self) -> Metrics {
        let mut m = self.locked().metrics.clone();
        m.submitted = self.submitted.load(Ordering::Relaxed);
        m.rejected_queue_full = self.rejected_queue_full.load(Ordering::Relaxed);
        m.rejected_shutting_down = self.rejected_shutting_down.load(Ordering::Relaxed);
        m.admission_failovers = self.admission_failovers.load(Ordering::Relaxed);
        m.max_queue_depth = self.max_queue_depth.load(Ordering::Relaxed);
        m.plan_cache = self.plans.stats();
        m
    }

    /// Prometheus text exposition of the current metrics.
    pub fn to_prometheus(&self) -> String {
        self.metrics().to_prometheus()
    }

    /// The merged Chrome trace across every dispatched group (empty
    /// unless [`ServerConfig::capture_trace`] is set).
    pub fn merged_trace(&self) -> Trace {
        self.locked().trace.trace.clone()
    }

    /// Stop admitting work. Queued requests still run; `drain` (or a
    /// dispatcher loop) finishes them.
    pub fn shutdown(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
        let _g = self.park.lock().unwrap_or_else(|p| p.into_inner());
        self.work_cv.notify_all();
    }

    /// Tick until the queue is empty (graceful drain). Parked-in-backoff
    /// requests are waited for — the clock jumps to their ready time.
    pub fn drain(&self) {
        while self.tick().dispatched > 0 || self.pending() > 0 {}
    }

    /// Shut down and drain: the graceful-exit combination.
    pub fn shutdown_and_drain(&self) {
        self.shutdown();
        self.drain();
    }

    fn has_work(&self) -> bool {
        self.admission.depth() > 0 || !self.locked().parked.is_empty()
    }

    /// Dispatcher loop for a dedicated thread: ticks whenever work is
    /// queued, parks when idle, returns after `shutdown()` once the
    /// queue is dry.
    pub fn run_dispatcher(&self) {
        loop {
            {
                self.sleepers.fetch_add(1, Ordering::SeqCst);
                let mut g = self.park.lock().unwrap_or_else(|p| p.into_inner());
                while !self.has_work() && !self.shutting_down.load(Ordering::SeqCst) {
                    g = self.work_cv.wait(g).unwrap_or_else(|p| p.into_inner());
                }
                drop(g);
                self.sleepers.fetch_sub(1, Ordering::SeqCst);
                if !self.has_work() && self.shutting_down.load(Ordering::SeqCst) {
                    return;
                }
            }
            self.tick();
        }
    }

    /// One dispatch round: drain every shard, pop eligible parked
    /// retries, coalesce, run each group through the device scheduler,
    /// advance the clock, resolve / requeue / degrade members against
    /// their end-to-end deadlines.
    pub fn tick(&self) -> TickSummary {
        let _serialize = self.dispatch.lock().unwrap_or_else(|p| p.into_inner());

        // Phase 1 (under the state lock): claim the eligible batch.
        let (batch, tick_no, clock_at_start) = {
            let mut st = self.locked();
            let mut batch = self.admission.drain_all();
            if batch.is_empty() && st.parked.is_empty() {
                return TickSummary {
                    tick: st.tick,
                    ..TickSummary::default()
                };
            }
            if batch.is_empty() {
                // Everything is parked in backoff — jump the clock to
                // the earliest ready time.
                let min_ready = st
                    .parked
                    .iter()
                    .map(|p| p.ready_at)
                    .fold(f64::INFINITY, f64::min);
                if min_ready > st.clock {
                    st.clock = min_ready;
                    self.publish_clock(min_ready);
                }
            }
            let clock = st.clock;
            let mut keep = VecDeque::new();
            while let Some(p) = st.parked.pop_front() {
                if p.ready_at <= clock {
                    batch.push(p);
                } else {
                    keep.push_back(p);
                }
            }
            st.parked = keep;
            if batch.is_empty() {
                return TickSummary {
                    tick: st.tick,
                    ..TickSummary::default()
                };
            }
            // Admission ids are monotone per shard, so this both
            // restores global submission order and preserves per-shard
            // FIFO — dispatch order is deterministic however the
            // producers were scheduled onto shards.
            batch.sort_unstable_by_key(|p| p.id);
            st.tick += 1;
            st.metrics.ticks += 1;
            (batch, st.tick, clock)
        };

        // Phase 2 (no state lock): group and execute. Producers keep
        // submitting; their requests land in the next tick.
        let groups = self.coalesce(batch);
        let mut summary = TickSummary {
            tick: tick_no,
            ..TickSummary::default()
        };
        for group in groups {
            self.dispatch_group(group, tick_no, &mut summary);
        }
        summary.advanced_cycles = self.clock() - clock_at_start;
        self.record_tick(tick_no, &summary);
        summary
    }

    /// Partition a batch into dispatch groups. With coalescing on,
    /// dense requests sharing `(m, n, k, precision, epilogue)` merge;
    /// everything else (sparse structure, batched, 2.5D, low-rank) runs
    /// solo. Groups keep first-seen order — the index makes the lookup
    /// O(1) per request instead of a linear scan over existing groups.
    fn coalesce(&self, batch: Vec<Pending>) -> Vec<Vec<Pending>> {
        let mut groups: Vec<Vec<Pending>> = Vec::new();
        let mut index: HashMap<crate::request::CoalesceKey, usize> = HashMap::new();
        for p in batch {
            let key = if self.config.coalesce {
                p.request.coalesce_key()
            } else {
                None
            };
            match key {
                Some(k) => match index.entry(k) {
                    std::collections::hash_map::Entry::Occupied(e) => {
                        groups[*e.get()].push(p);
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(groups.len());
                        groups.push(vec![p]);
                    }
                },
                None => groups.push(vec![p]),
            }
        }
        groups
    }

    /// Execute one group: numerics per member (cached across retries,
    /// optionally parallel across members), one schedule for the pool,
    /// then end-to-end deadline bookkeeping per member. Tickets resolve
    /// after the state lock drops — completion never blocks admission.
    fn dispatch_group(&self, group: Vec<Pending>, tick_no: u64, summary: &mut TickSummary) {
        summary.dispatched += group.len();
        summary.groups += 1;
        let mut resolutions: Vec<(Arc<TicketInner>, Result<Completed, ServeError>)> = Vec::new();

        // Numerics first — members whose engine run fails resolve with
        // the typed error and drop out of the pool. Retry attempts ride
        // on the cached first-attempt payload and skip this entirely.
        let need: Vec<usize> = group
            .iter()
            .enumerate()
            .filter(|(_, p)| p.cached.is_none())
            .map(|(i, _)| i)
            .collect();
        let computed: Vec<Result<ServeOutput, ServeError>> =
            if self.config.parallel_execute && need.len() > 1 {
                use rayon::prelude::*;
                // Ordered collect: outputs land back on their members in
                // member order, so parallel and sequential execution are
                // observationally identical.
                let requests: Vec<&ServeRequest> =
                    need.iter().map(|&i| group[i].request.as_ref()).collect();
                requests
                    .par_iter()
                    .map(|r| self.execute_request(r))
                    .collect()
            } else {
                need.iter()
                    .map(|&i| self.execute_request(&group[i].request))
                    .collect()
            };
        let mut errors: HashMap<usize, ServeError> = HashMap::new();
        let mut group = group;
        for (&i, out) in need.iter().zip(computed) {
            match out {
                Ok(o) => group[i].cached = Some(o),
                Err(e) => {
                    errors.insert(i, e);
                }
            }
        }
        let mut live = Vec::with_capacity(group.len());
        let mut newly_failed = 0u64;
        for (idx, p) in group.into_iter().enumerate() {
            if let Some(e) = errors.remove(&idx) {
                summary.failed += 1;
                newly_failed += 1;
                resolutions.push((p.ticket, Err(e)));
            } else {
                live.push(p);
            }
        }
        if newly_failed > 0 {
            self.locked().metrics.failed += newly_failed;
        }
        if live.is_empty() {
            for (ticket, outcome) in resolutions {
                ticket.resolve(outcome);
            }
            return;
        }

        // One schedule for the whole pool.
        let sched = match self.schedule_group(&live) {
            Ok(out) => out,
            Err(e) => {
                let n = live.len() as u64;
                for p in live {
                    summary.failed += 1;
                    resolutions.push((p.ticket, Err(ServeError::Sched(e.clone()))));
                }
                self.locked().metrics.failed += n;
                for (ticket, outcome) in resolutions {
                    ticket.resolve(outcome);
                }
                return;
            }
        };
        // Close the loop: report the observed execution of this shape
        // class back into the plan cache (no-op unless feedback is on).
        if let Some((item, decomposition)) = sched.class {
            self.plans.observe_execution(
                &self.device,
                &item,
                self.config.cost.as_ref(),
                decomposition,
                sched.makespan,
                sched.observed,
            );
        }
        let makespan = sched.observed;
        let utilization = sched.utilization;

        // Advance the clock and settle every member against its
        // deadline, all under one state lock; resolutions fire after.
        let group_size = live.len();
        summary.group_cycles += makespan;
        summary.util_weighted += utilization * makespan;
        let mut st = self.locked();
        let group_start = st.clock;
        st.clock += makespan;
        st.metrics.group_cycles_sum += makespan;
        if let Some(t) = &sched.trace {
            st.trace.absorb(t, group_start);
        }
        for mut p in live {
            p.attempts += 1;
            let finished = st.clock;
            // End-to-end deadline: elapsed charges from admission, not
            // from this attempt's eligibility — retries and their
            // backoff parking all spend the same budget.
            let elapsed = finished - p.admitted_at;
            let missed = p.request.deadline_cycles.is_some_and(|d| elapsed > d);
            if missed && p.attempts <= self.config.max_retries {
                // Retry with exponential backoff; the cached payload
                // rides along so numerics never recompute. Parked
                // retries are already admitted: they bypass the
                // admission bound and are accounted separately.
                let backoff = self.config.backoff_cycles * f64::powi(2.0, (p.attempts - 1) as i32);
                p.ready_at = finished + backoff;
                st.metrics.retries += 1;
                summary.retried += 1;
                st.parked.push_back(p);
                let depth = st.parked.len();
                if depth > st.metrics.max_parked_depth {
                    st.metrics.max_parked_depth = depth;
                }
                continue;
            }
            let output = p.cached.take().expect("numerics cached before settle");
            let (via, service_cycles, finished_at) = if missed {
                // Out of retries: degraded serial fallback — a
                // dedicated replay at the engine's own serial cost,
                // charged to the clock, never dropped.
                let serial = output.serial_cycles();
                st.clock += serial;
                st.metrics.degraded_serial += 1;
                summary.degraded += 1;
                (CompletionPath::DegradedSerial, makespan + serial, st.clock)
            } else {
                let via = if group_size > 1 {
                    CompletionPath::Coalesced { group_size }
                } else {
                    CompletionPath::Solo
                };
                (via, makespan, finished)
            };
            let queue_cycles = group_start - p.ready_at;
            st.metrics.completed += 1;
            st.metrics.queue_cycles_sum += queue_cycles;
            st.metrics.service_cycles_sum += service_cycles;
            st.metrics
                .completion_cycles
                .record(finished_at - p.admitted_at);
            summary.completed += 1;
            resolutions.push((
                p.ticket,
                Ok(Completed {
                    id: p.id,
                    output,
                    via,
                    attempts: p.attempts,
                    admitted_at: p.admitted_at,
                    queue_cycles,
                    service_cycles,
                    finished_at,
                    tick: tick_no,
                }),
            ));
        }
        self.publish_clock(st.clock);
        drop(st);
        for (ticket, outcome) in resolutions {
            ticket.resolve(outcome);
        }
    }

    /// Run one member's numerics. Every dense request resolves its
    /// configuration through the shared [`PlanCache`]'s tuner, so each
    /// shape class is tuned once per server. Plain strict/auto dense
    /// GEMMs then take the split-engine fast path: the cost pass comes
    /// from the plan cache (charged once per shape class, then served
    /// from cache) and only the execute pass runs per request. The
    /// other dense requests — scaled and fused epilogues, padded, 2.5D,
    /// batched, low-rank and skinny ops — run the engine with the
    /// shared winner, and sparse workloads run their direct entry
    /// points. Every path is bit-identical to
    /// [`ServeRequest::execute`], so serving stays numerically
    /// transparent.
    fn execute_request(&self, request: &ServeRequest) -> Result<ServeOutput, ServeError> {
        // Numerics device: the fleet pins this to one class so results
        // are bit-identical wherever the request lands; solo servers
        // leave it unset and compute on their own device.
        let ndev = self.config.numeric_device.as_ref().unwrap_or(&self.device);
        if let Workload::Dense(r) = &request.workload {
            // `is_plain` also excludes fused epilogues — a cached plain
            // plan computes a different function, so fused requests must
            // take the direct engine path. Tall-skinny shapes are
            // excluded too: no monolithic cost pass exists for them;
            // the engine runs them through its k-split path.
            let fast = match &r.op {
                kami_core::Op::Gemm { a, b } if r.is_plain() => Some((a, b, false)),
                kami_core::Op::GemmAuto { a, b } if r.is_plain() && !r.is_skinny() => {
                    Some((a, b, true))
                }
                _ => None,
            };
            if let Some((a, b, auto)) = fast {
                let cfg = r.resolve_config_cached(ndev, self.plans.tuner())?;
                let plan =
                    self.plans
                        .gemm_plan_for(ndev, &cfg, a.rows(), b.cols(), a.cols(), auto)?;
                // Cached plans are backend-independent; execute on the
                // server's configured backend regardless of which
                // configuration first populated the cache.
                let res =
                    kami_core::gemm_execute_plan_with(ndev, &plan, a, b, self.config.backend)?;
                return Ok(ServeOutput::Dense(kami_core::GemmResponse::Single(res)));
            }
            return Ok(ServeOutput::Dense(
                r.execute_with_tuner(ndev, self.plans.tuner())?,
            ));
        }
        request.execute(ndev)
    }

    /// Model one group's device-level execution: makespan, utilization,
    /// and (optionally) the per-SM trace.
    fn schedule_group(&self, group: &[Pending]) -> Result<GroupSchedule, kami_sched::SchedError> {
        let mut scheduler =
            Scheduler::new(&self.device).with_decomposition(self.config.decomposition);
        if let Some(c) = &self.config.cost {
            scheduler = scheduler.with_cost(c.clone());
        }
        // A solo sparse request schedules through the nnz-weighted
        // path; everything else reduces to a dense block-work pool.
        if let [p] = group {
            match &p.request.workload {
                Workload::Spmm { a, b, cfg } => {
                    let work = SparseWork::from_spmm(a, b.cols(), cfg.precision);
                    return self.run_sparse(&scheduler, &work, self.config.capture_trace);
                }
                Workload::Spgemm { a, b, cfg } => {
                    let work = SparseWork::from_spgemm(a, b, cfg.precision);
                    return self.run_sparse(&scheduler, &work, self.config.capture_trace);
                }
                Workload::Dense(_) => {}
            }
        }
        let mut items = Vec::new();
        for p in group {
            // Sparse never coalesces, so groups reaching this dense
            // pool are all-dense and contribute at least one item each.
            debug_assert!(matches!(p.request.workload, Workload::Dense(_)));
            items.extend(p.request.work_items());
        }
        let work = BlockWork::new(items);
        let (report, trace) = if self.config.capture_trace {
            let (report, trace) = scheduler.run_traced(&work, &self.plans)?;
            (report, Some(trace))
        } else {
            (scheduler.run(&work, &self.plans)?, None)
        };
        // Observed execution: with a true-cost model configured, the
        // pool is re-costed under *reality* (same work, same
        // decomposition the model just chose) — that is what the clock
        // will charge and what the observation channel reports.
        let observed = match &self.config.true_cost {
            None => report.makespan_cycles,
            Some(tc) => {
                let truth = Scheduler::new(&self.device)
                    .with_decomposition(report.decomposition)
                    .with_cost(tc.clone());
                truth.run(&work, &self.plans)?.makespan_cycles
            }
        };
        let class = (work.is_uniform() && !work.items.is_empty())
            .then(|| (work.items[0], report.decomposition));
        Ok(GroupSchedule {
            makespan: report.makespan_cycles,
            observed,
            utilization: report.utilization,
            trace,
            class,
        })
    }

    fn run_sparse(
        &self,
        scheduler: &Scheduler<'_>,
        work: &SparseWork,
        traced: bool,
    ) -> Result<GroupSchedule, kami_sched::SchedError> {
        let (report, trace) = if traced {
            let (report, trace) = scheduler.run_sparse_traced(work, &self.plans)?;
            (report, Some(trace))
        } else {
            (scheduler.run_sparse(work, &self.plans)?, None)
        };
        // Sparse work keeps model cost as observed: the feedback loop
        // covers uniform dense shape classes only.
        Ok(GroupSchedule {
            makespan: report.schedule.makespan_cycles,
            observed: report.schedule.makespan_cycles,
            utilization: report.schedule.utilization,
            trace,
            class: None,
        })
    }

    fn record_tick(&self, tick_no: u64, summary: &TickSummary) {
        if summary.dispatched == 0 {
            return;
        }
        let mut st = self.locked();
        let utilization = summary.utilization();
        st.metrics.record_tick(TickRecord {
            tick: tick_no,
            requests: summary.dispatched,
            groups: summary.groups,
            makespan_cycles: summary.advanced_cycles,
            utilization,
        });
    }
}
