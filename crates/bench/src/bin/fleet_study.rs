//! Heterogeneous fleet throughput: cost-oracle routing across the four
//! Table 3 device classes vs a single replica and vs round-robin.
//!
//! The study drains one deterministic mixed trace — tall-skinny panels
//! (GH200's SM count dominates) interleaved with square-ish tiles (the
//! high-clock classes are competitive) — through four servings:
//!
//! * one GH200 replica (the single-replica baseline);
//! * each Table 3 class alone at one replica (for the full picture);
//! * the 4-preset heterogeneous fleet under round-robin placement;
//! * the same fleet under cost-oracle (earliest-completion) placement.
//!
//! All servings dispatch solo groups (`coalesce: false`): same-shape
//! pooling absorbs an identical-shape burst at roughly the cost of one
//! request, which would make any multi-replica comparison degenerate —
//! the study models shape-diverse multi-tenant traffic instead.
//! Throughput is requests per *simulated* second (each replica's cycle
//! clock over its own boost clock), so the comparison is device-fair.
//!
//! ```text
//! cargo run --release -p kami-bench --bin fleet_study [-- --quick] [--out PATH]
//! ```
//!
//! Emits `target/BENCH_fleet.json` (override with `--out`) and exits
//! nonzero if the cost-oracle fleet falls under 1.5x the aggregate
//! throughput of the single GH200 replica — the CI acceptance gate for
//! fleet routing.

use kami_bench::Study;
use kami_gpu_sim::{device, DeviceSpec, Matrix, Precision};
use kami_serve::{FleetConfig, FleetServer, FleetSpec, RoutingPolicy, ServeRequest, ServerConfig};
use serde::Serialize;
use std::process::ExitCode;

/// The two shape classes of the mixed trace: tall-skinny panel and
/// square-ish tile, both FP16-feasible on every Table 3 class.
const TALL_SKINNY: (usize, usize, usize) = (4096, 16, 16);
const SQUARE: (usize, usize, usize) = (256, 256, 64);

fn trace(total: usize) -> Vec<ServeRequest> {
    (0..total)
        .map(|i| {
            let (m, n, k) = if i % 2 == 0 { TALL_SKINNY } else { SQUARE };
            let seed = i as u64;
            let a = Matrix::seeded_uniform(m, k, seed);
            let b = Matrix::seeded_uniform(k, n, seed + 10_000);
            ServeRequest::gemm(a, b, Precision::Fp16)
        })
        .collect()
}

/// Drain the trace through one fleet; return the aggregate makespan in
/// simulated seconds (`None` if the fleet cannot serve the trace).
fn run(spec: FleetSpec, policy: RoutingPolicy, requests: &[ServeRequest]) -> Option<f64> {
    let fleet = FleetServer::with_config(
        spec,
        FleetConfig {
            server: ServerConfig {
                queue_capacity: requests.len(),
                coalesce: false,
                ..ServerConfig::default()
            },
            policy,
        },
    );
    let mut tickets = Vec::with_capacity(requests.len());
    for r in requests {
        tickets.push(fleet.submit(r.clone()).ok()?);
    }
    fleet.shutdown_and_drain();
    for t in tickets {
        t.wait().ok()?;
    }
    Some(fleet.metrics().makespan_secs())
}

/// The CI acceptance bar for fleet routing.
const GATE: &str = "oracle >= 1.5x single GH200 replica";

#[derive(Serialize)]
struct Row {
    fleet: String,
    replicas: usize,
    makespan_secs: f64,
    requests_per_sim_sec: f64,
}

#[derive(Serialize)]
struct Record {
    requests: usize,
    trace: Vec<String>,
    rows: Vec<Row>,
    oracle_vs_single_speedup: f64,
    oracle_vs_round_robin: f64,
    gate: &'static str,
}

fn main() -> ExitCode {
    let mut study = Study::from_env("fleet");
    let total = if study.quick { 24 } else { 48 };
    let requests = trace(total);
    let shape = |(m, n, k): (usize, usize, usize)| format!("{m}x{n}x{k}");

    println!("# fleet_study: aggregate throughput on a {total}-request mixed trace");
    println!(
        "# ({} tall-skinny + {} square, fp16, solo dispatch)\n",
        shape(TALL_SKINNY),
        shape(SQUARE)
    );

    let mut rows: Vec<Row> = Vec::new();
    let mut row = |fleet: String, replicas: usize, makespan_secs: f64| {
        rows.push(Row {
            fleet,
            replicas,
            makespan_secs,
            requests_per_sim_sec: total as f64 / makespan_secs,
        })
    };
    let single = run(
        FleetSpec::homogeneous(&device::gh200(), 1),
        RoutingPolicy::EarliestCompletion,
        &requests,
    )
    .expect("the trace is feasible on GH200");
    row("single replica (GH200)".into(), 1, single);

    for dev in DeviceSpec::all_evaluated() {
        if dev.name == device::gh200().name {
            continue; // already the baseline row
        }
        if let Some(makespan) = run(
            FleetSpec::homogeneous(&dev, 1),
            RoutingPolicy::EarliestCompletion,
            &requests,
        ) {
            row(format!("single replica ({})", dev.name), 1, makespan);
        }
    }

    let spec = FleetSpec::table3(1);
    let replicas = spec.total_replicas();
    let rr = run(spec.clone(), RoutingPolicy::RoundRobin, &requests)
        .expect("the trace is feasible on every class");
    row("heterogeneous, round-robin".into(), replicas, rr);
    let oracle = run(spec, RoutingPolicy::EarliestCompletion, &requests)
        .expect("the trace is feasible on every class");
    row("heterogeneous, cost oracle".into(), replicas, oracle);

    println!(
        "{:<34} {:>9} {:>16} {:>14}",
        "fleet", "replicas", "makespan (s)", "req/sim-sec"
    );
    for r in &rows {
        println!(
            "{:<34} {:>9} {:>16.3e} {:>14.1}",
            r.fleet, r.replicas, r.makespan_secs, r.requests_per_sim_sec
        );
    }

    let speedup = single / oracle;
    let vs_rr = rr / oracle;
    println!("\noracle vs single GH200 replica: {speedup:.2}x aggregate throughput");
    println!("oracle vs round-robin (same fleet): {vs_rr:.2}x");

    study.gate(GATE, speedup >= 1.5);
    study.finish(&Record {
        requests: total,
        trace: vec![shape(TALL_SKINNY), shape(SQUARE)],
        rows,
        oracle_vs_single_speedup: speedup,
        oracle_vs_round_robin: vs_rr,
        gate: GATE,
    })
}
