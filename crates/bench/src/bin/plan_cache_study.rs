//! Plan-cache study: the three properties the bounded, feedback-driven
//! cache plane must buy, each with a CI gate.
//!
//! * **Bounded memory** — a churn of distinct shape classes (far more
//!   than the budget holds) through `CacheConfig::bounded`: resident
//!   bytes must stay within 2x the per-store budget (two stores, each
//!   individually budgeted), with evictions and Bloom rejections both
//!   live.
//! * **Warm path** — repeated hits on a bounded cache must sustain at
//!   least half the hit throughput of the unbounded control; the LRU
//!   bump and admission bookkeeping may not tax the hot path.
//! * **Feedback routing** — a fleet whose GH200 class secretly runs
//!   its MMAs at 10% of the modeled rate: with feedback on, observed
//!   ratios correct the router's makespan predictions and traffic
//!   shifts to the honest class; aggregate throughput must be at least
//!   the no-feedback control's.
//!
//! ```text
//! cargo run --release -p kami-bench --bin plan_cache_study [-- --quick] [--out PATH]
//! ```
//!
//! Emits `target/BENCH_plan_cache.json` (override with `--out`), whose
//! `gates` array names the three checks `bounded_memory`, `warm_path`
//! and `feedback_routing`, and exits nonzero if any gate fails.

use std::process::ExitCode;
use std::time::Instant;

use kami_bench::Study;
use kami_core::{Algo, KamiConfig};
use kami_gpu_sim::{device, CostConfig, Matrix, Precision};
use kami_sched::{CacheConfig, PlanCache};
use kami_serve::{
    DeviceClass, FleetConfig, FleetServer, FleetSpec, RoutingPolicy, ServeRequest, ServerConfig,
};
use serde::Serialize;

/// Per-store byte budget for the churn phase.
const BUDGET_BYTES: usize = 256 * 1024;

/// Phase A: churn `distinct` one-off shape classes (smem-fraction
/// jitter makes every cost key unique) interleaved with a small hot
/// set, against a tight byte budget. Returns (peak resident, evictions,
/// bloom rejections).
fn churn_phase(distinct: usize) -> (usize, u64, u64) {
    let gh200 = device::gh200();
    let plans = PlanCache::with_config(CacheConfig::bounded(BUDGET_BYTES));
    // A single 16^3 block: the cheapest feasible cost pass, so the
    // churn reaches 10^5 distinct classes in bench time. Entry weight
    // is shape-independent (plan struct + report heap), so the budget
    // binds exactly as it would for production shapes.
    let base = KamiConfig::new(Algo::OneD, Precision::Fp16).with_warps(1);
    let mut peak = 0usize;
    for i in 0..distinct {
        // A never-repeating fraction: a cold key every time. The cost
        // pass itself is identical — only the cache key moves. Each
        // class is requested twice so the Bloom doorkeeper admits it
        // (first sighting recorded-but-rejected) and the byte budget
        // actually fills — one-off keys alone would never be resident.
        let cold = base
            .clone()
            .with_smem_fraction(0.25 + (i + 1) as f64 * 1e-12);
        for _ in 0..2 {
            plans
                .gemm_plan_for(&gh200, &cold, 16, 16, 16, false)
                .expect("16^3 fp16 is feasible on GH200");
        }
        // A small cycling hot set: these keys repeat, so the Bloom
        // doorkeeper must let them through on their second sighting.
        let hot = base
            .clone()
            .with_smem_fraction(0.5 + (i % 16 + 1) as f64 * 1e-12);
        plans
            .gemm_plan_for(&gh200, &hot, 16, 16, 16, false)
            .expect("16^3 fp16 is feasible on GH200");
        if i % 64 == 0 {
            peak = peak.max(plans.stats().resident_bytes());
        }
    }
    let stats = plans.stats();
    (
        peak.max(stats.resident_bytes()),
        stats.evictions(),
        stats.admission_rejected(),
    )
}

/// Phase B: hit throughput (plans served per second of wall time) on a
/// pre-warmed cache.
fn warm_hits(plans: &PlanCache, shapes: &[(usize, usize, usize)], iters: usize) -> f64 {
    let gh200 = device::gh200();
    let cfg = KamiConfig::new(Algo::OneD, Precision::Fp16);
    // Warm every shape twice: under Bloom admission the first compute
    // is recorded but rejected, the second is admitted.
    for &(m, n, k) in shapes {
        for _ in 0..2 {
            plans
                .gemm_plan_for(&gh200, &cfg, m, n, k, false)
                .expect("warm shapes are feasible");
        }
    }
    let start = Instant::now();
    for i in 0..iters {
        let (m, n, k) = shapes[i % shapes.len()];
        plans
            .gemm_plan_for(&gh200, &cfg, m, n, k, false)
            .expect("warm shapes are feasible");
    }
    iters as f64 / start.elapsed().as_secs_f64()
}

/// Phase C: one fleet serving, returning aggregate throughput in
/// requests per simulated second. The GH200 class's MMAs secretly run
/// at `mma_efficiency` (the model still believes 1.0); the RTX 5090
/// class is honest.
fn misrouted_fleet(cache: CacheConfig, waves: usize, per_wave: usize) -> f64 {
    let mut spec = FleetSpec::homogeneous(&device::gh200(), 1).with_cache(cache);
    spec.classes[0].true_cost = Some(CostConfig::default().with_mma_efficiency(0.1));
    spec.classes.push(DeviceClass::new(device::rtx5090(), 1));
    let fleet = FleetServer::with_config(
        spec,
        FleetConfig {
            server: ServerConfig {
                queue_capacity: per_wave,
                coalesce: false,
                ..ServerConfig::default()
            },
            policy: RoutingPolicy::EarliestCompletion,
        },
    );
    let total = waves * per_wave;
    let mut tickets = Vec::with_capacity(total);
    let mut seed = 0u64;
    for _ in 0..waves {
        for _ in 0..per_wave {
            let a = Matrix::seeded_uniform(256, 64, seed);
            let b = Matrix::seeded_uniform(64, 256, seed + 10_000);
            seed += 1;
            tickets.push(
                fleet
                    .submit(ServeRequest::gemm(a, b, Precision::Fp16))
                    .expect("queue sized to the wave"),
            );
        }
        // Drain between waves so wave N+1 is routed *after* wave N's
        // executions have been observed.
        fleet.drain();
    }
    fleet.shutdown_and_drain();
    for t in tickets {
        t.wait().expect("a 256x64x256 fp16 request must serve");
    }
    total as f64 / fleet.metrics().makespan_secs()
}

#[derive(Serialize)]
struct Churn {
    distinct: usize,
    budget_bytes: usize,
    peak_resident_bytes: usize,
    evictions: u64,
    bloom_rejected: u64,
}

#[derive(Serialize)]
struct Warm {
    iters: usize,
    bounded_hits_per_sec: f64,
    unbounded_hits_per_sec: f64,
    ratio: f64,
}

#[derive(Serialize)]
struct Feedback {
    waves: usize,
    per_wave: usize,
    control_req_per_sim_sec: f64,
    feedback_req_per_sim_sec: f64,
    ratio: f64,
}

#[derive(Serialize)]
struct Record {
    churn: Churn,
    warm: Warm,
    feedback: Feedback,
}

fn main() -> ExitCode {
    let mut study = Study::from_env("plan_cache");
    let quick = study.quick;

    // -- Phase A: bounded memory under churn ------------------------
    let distinct = if quick { 5_000 } else { 100_000 };
    println!(
        "# plan_cache_study: {distinct} distinct shape classes vs a {BUDGET_BYTES}-byte budget"
    );
    let (peak, evictions, bloom_rejected) = churn_phase(distinct);
    let bound = 2 * BUDGET_BYTES; // two stores, each individually budgeted
    println!(
        "churn: peak resident {peak} B (bound {bound} B), {evictions} evictions, \
         {bloom_rejected} bloom rejections"
    );
    study.gate(
        "bounded_memory: peak <= 2x budget, evictions + bloom live",
        peak <= bound && evictions > 0 && bloom_rejected > 0,
    );

    // -- Phase B: warm-path hit throughput --------------------------
    let shapes: Vec<(usize, usize, usize)> = (0..32).map(|i| (64, 64, 32 + 4 * i)).collect();
    let iters = if quick { 50_000 } else { 200_000 };
    let unbounded = PlanCache::new();
    let bounded = PlanCache::with_config(CacheConfig::bounded(16 * 1024 * 1024));
    let hits_unbounded = warm_hits(&unbounded, &shapes, iters);
    let hits_bounded = warm_hits(&bounded, &shapes, iters);
    let warm_ratio = hits_bounded / hits_unbounded;
    println!(
        "warm path: bounded {hits_bounded:.0} hits/s vs unbounded {hits_unbounded:.0} hits/s \
         ({warm_ratio:.2}x)"
    );
    study.gate(
        "warm_path: bounded >= 0.5x unbounded hit throughput",
        warm_ratio >= 0.5,
    );

    // -- Phase C: feedback vs control on a mis-modeled device -------
    let (waves, per_wave) = if quick { (4, 12) } else { (8, 24) };
    let control = misrouted_fleet(CacheConfig::default(), waves, per_wave);
    let feedback = misrouted_fleet(CacheConfig::default().with_feedback(), waves, per_wave);
    let fb_ratio = feedback / control;
    println!(
        "mis-modeled fleet: feedback {feedback:.1} req/sim-s vs control {control:.1} req/sim-s \
         ({fb_ratio:.2}x)"
    );
    study.gate(
        "feedback_routing: >= no-feedback control",
        feedback >= control,
    );

    study.finish(&Record {
        churn: Churn {
            distinct,
            budget_bytes: BUDGET_BYTES,
            peak_resident_bytes: peak,
            evictions,
            bloom_rejected,
        },
        warm: Warm {
            iters,
            bounded_hits_per_sec: hits_bounded,
            unbounded_hits_per_sec: hits_unbounded,
            ratio: warm_ratio,
        },
        feedback: Feedback {
            waves,
            per_wave,
            control_req_per_sim_sec: control,
            feedback_req_per_sim_sec: feedback,
            ratio: fb_ratio,
        },
    })
}
