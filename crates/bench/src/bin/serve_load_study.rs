//! Sustained-load study: the sharded admission path under a
//! multi-producer firehose of small mixed requests.
//!
//! Small single-block GEMMs are the worst case for tick-based dispatch:
//! each one occupies a sliver of the device, so aggregate throughput is
//! set almost entirely by how deep a batch each tick can coalesce. The
//! study drives the same deterministic mixed trace (dense 16x16x16 fp16
//! with skinny, fused-epilogue, and block-sparse riders) from several
//! producer threads through two server configurations:
//!
//! * **baseline** — the pre-shard single queue: `admission_shards: 1`,
//!   `queue_capacity: 64` (the old default admission bound);
//! * **sharded** — the sharded admission path at sustained depth:
//!   `admission_shards: 8`, `queue_capacity: 4096`.
//!
//! Producers saturate the queue (spinning on `QueueFull` like a
//! load-shedding client would) and the driver ticks only when admission
//! is full, so every dispatch sees the configured depth — sustained
//! load, not a drain of a pre-built backlog. Requests are generated
//! lazily per index; nothing holds 10^6 payloads at once.
//!
//! ```text
//! cargo run --release -p kami-bench --bin serve_load_study [-- --quick] [--out PATH]
//! ```
//!
//! Reports simulated aggregate throughput (requests per megacycle) and
//! completion-latency percentiles (p50/p99/p999, end-to-end from
//! admission) from the server's own [`kami_serve::CycleHistogram`],
//! emits
//! `target/BENCH_serve_load.json` plus the sharded leg's Prometheus
//! text export, and exits nonzero if either CI gate fails:
//!
//! * sharded simulated throughput must be >= 2x the baseline leg;
//! * in `--quick` mode, the sharded p99 must stay within 1.5x of the
//!   checked-in reference (`crates/bench/data/serve_load_baseline.json`).
//!
//! Full mode pushes >= 10^6 requests through the sharded leg; the
//! baseline leg samples a 20k-request prefix of the same trace (its
//! simulated rate is depth-determined and stable long before that).

use kami_bench::Study;
use kami_core::{Epilogue, GemmRequest, KamiConfig};
use kami_gpu_sim::{device, Matrix, Precision};
use kami_serve::{ServeRequest, Server, ServerConfig};
use kami_sparse::{gen, BlockOrder};
use serde::Serialize;
use std::collections::VecDeque;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Producer threads per leg.
const PRODUCERS: usize = 4;

/// The deterministic mixed trace, generated lazily by index. Per 500
/// requests: one SpMM, one tall-ish skinny GEMM, two fused-epilogue
/// GEMMs, and 496 plain dense 16x16x16 fp16 (one device block each —
/// the shape class that makes admission depth the whole ballgame).
fn request_at(i: usize) -> ServeRequest {
    let seed = i as u64;
    match i % 500 {
        0 => {
            let cfg = KamiConfig::new(kami_core::Algo::TwoD, Precision::Fp16);
            let a = gen::random_block_sparse(32, 32, 16, 0.4, BlockOrder::ZMorton, seed);
            let b = Matrix::seeded_uniform(32, 32, seed + 5_000);
            ServeRequest::spmm(a, b, cfg)
        }
        1 => {
            let a = Matrix::seeded_uniform(16, 256, seed);
            let b = Matrix::seeded_uniform(256, 16, seed + 10_000);
            ServeRequest::gemm(a, b, Precision::Fp16)
        }
        2 | 3 => {
            let a = Matrix::seeded_uniform(16, 16, seed);
            let b = Matrix::seeded_uniform(16, 16, seed + 10_000);
            ServeRequest::dense(
                GemmRequest::gemm_auto(a, b)
                    .precision(Precision::Fp16)
                    .with_epilogue(Epilogue::Relu),
            )
        }
        _ => {
            let a = Matrix::seeded_uniform(16, 16, seed);
            let b = Matrix::seeded_uniform(16, 16, seed + 10_000);
            ServeRequest::gemm(a, b, Precision::Fp16)
        }
    }
}

/// Drive `total` requests through one server config: `PRODUCERS`
/// submitter threads spinning on `QueueFull`, one driver thread that
/// ticks only when admission is full (or the producers are finished),
/// so every dispatch runs at the configured depth.
fn run_leg(shards: usize, capacity: usize, total: usize) -> (Leg, String) {
    let dev = device::gh200();
    let server = Server::with_config(
        &dev,
        ServerConfig {
            queue_capacity: capacity,
            admission_shards: shards,
            ..ServerConfig::default()
        },
    );
    let producers_done = AtomicUsize::new(0);
    let t0 = Instant::now();

    std::thread::scope(|s| {
        for p in 0..PRODUCERS {
            let server = &server;
            let producers_done = &producers_done;
            s.spawn(move || {
                let mut window: VecDeque<kami_serve::Ticket> = VecDeque::new();
                for i in (p..total).step_by(PRODUCERS) {
                    let req = std::sync::Arc::new(request_at(i));
                    let ticket = loop {
                        match server.submit_shared(std::sync::Arc::clone(&req)) {
                            Ok(t) => break t,
                            Err(kami_serve::ServeError::QueueFull { .. }) => {
                                // Reap whatever already resolved, then
                                // let the driver drain the queue.
                                while window.front().is_some_and(|t| t.is_done()) {
                                    let t = window.pop_front().unwrap();
                                    t.wait().expect("trace request must serve");
                                }
                                std::thread::yield_now();
                            }
                            Err(e) => panic!("submission failed under load: {e}"),
                        }
                    };
                    window.push_back(ticket);
                    while window.front().is_some_and(|t| t.is_done()) {
                        let t = window.pop_front().unwrap();
                        t.wait().expect("trace request must serve");
                    }
                }
                producers_done.fetch_add(1, Ordering::SeqCst);
                for t in window {
                    t.wait().expect("trace request must serve");
                }
            });
        }

        // The driver: dispatch full batches while producers are live,
        // then drain the tail.
        while producers_done.load(Ordering::SeqCst) < PRODUCERS || server.pending() > 0 {
            if server.pending() >= capacity || producers_done.load(Ordering::SeqCst) == PRODUCERS {
                server.tick();
            } else {
                std::thread::yield_now();
            }
        }
    });

    let wall_secs = t0.elapsed().as_secs_f64();
    let m = server.metrics();
    assert_eq!(m.completed as usize, total, "every request resolves");
    let h = &m.completion_cycles;
    let leg = Leg {
        admission_shards: shards,
        queue_capacity: capacity,
        requests: m.completed,
        simulated_cycles: server.clock(),
        requests_per_megacycle: m.completed as f64 / server.clock() * 1e6,
        wall_secs,
        wall_requests_per_sec: m.completed as f64 / wall_secs,
        p50_cycles: h.p50(),
        p99_cycles: h.p99(),
        p999_cycles: h.p999(),
        ticks: m.ticks,
        max_queue_depth: m.max_queue_depth,
        max_parked_depth: m.max_parked_depth,
        admission_failovers: m.admission_failovers,
        rejected_queue_full: m.rejected_queue_full,
    };
    (leg, server.to_prometheus())
}

/// One leg's record: its admission config, simulated throughput
/// (requests per megacycle) and completion-latency percentiles.
#[derive(Serialize)]
struct Leg {
    admission_shards: usize,
    queue_capacity: usize,
    requests: u64,
    simulated_cycles: f64,
    requests_per_megacycle: f64,
    wall_secs: f64,
    wall_requests_per_sec: f64,
    p50_cycles: f64,
    p99_cycles: f64,
    p999_cycles: f64,
    ticks: u64,
    max_queue_depth: usize,
    max_parked_depth: usize,
    admission_failovers: u64,
    rejected_queue_full: u64,
}

#[derive(Serialize)]
struct Record {
    device: &'static str,
    producers: usize,
    baseline: Leg,
    sharded: Leg,
    speedup: f64,
    gate: &'static str,
}

fn print_leg(label: &str, l: &Leg) {
    println!(
        "{label:<22} {:>10} {:>14.0} {:>12.1} {:>10.0} {:>10.0} {:>10.0} {:>8} {:>9.1}",
        l.requests,
        l.simulated_cycles,
        l.requests_per_megacycle,
        l.p50_cycles,
        l.p99_cycles,
        l.p999_cycles,
        l.ticks,
        l.wall_requests_per_sec,
    );
}

fn main() -> ExitCode {
    let mut study = Study::from_env("serve_load");
    let quick = study.quick;

    let total = if quick { 8_192 } else { 1_000_000 };
    let baseline_total = total.min(20_000);
    let (base_shards, base_cap) = (1usize, 64usize);
    let (new_shards, new_cap) = (8usize, 4_096usize);

    println!("# serve_load_study: sustained mixed load, GH200, {PRODUCERS} producers");
    println!(
        "# mix per 500 requests: 1 spmm + 1 skinny(16x16x256) + 2 relu-epilogue + 496 dense 16^3 fp16"
    );
    println!(
        "# sharded leg: {total} requests at shards={new_shards} cap={new_cap}; \
         baseline leg: {baseline_total} requests at shards={base_shards} cap={base_cap}\n"
    );

    println!(
        "{:<22} {:>10} {:>14} {:>12} {:>10} {:>10} {:>10} {:>8} {:>9}",
        "config", "requests", "sim cycles", "req/Mcycle", "p50", "p99", "p999", "ticks", "wall r/s"
    );
    let (baseline, _) = run_leg(base_shards, base_cap, baseline_total);
    print_leg("single-queue baseline", &baseline);
    let (sharded, prometheus) = run_leg(new_shards, new_cap, total);
    print_leg("sharded admission", &sharded);

    let speedup = sharded.requests_per_megacycle / baseline.requests_per_megacycle;
    println!("\nsimulated throughput speedup (sharded / baseline): {speedup:.2}x");

    study.write_side("prom", &prometheus);

    study.gate(
        "sharded >= 2x baseline simulated throughput",
        speedup >= 2.0,
    );
    if quick {
        // Latency regression gate against the checked-in reference run.
        let reference: serde_json::Value =
            serde_json::from_str(include_str!("../../data/serve_load_baseline.json"))
                .expect("reference JSON parses");
        let ref_p99 = reference["sharded"]["p99_cycles"]
            .as_f64()
            .expect("reference carries sharded.p99_cycles");
        let p99 = sharded.p99_cycles;
        let bound = ref_p99 * 1.5;
        println!(
            "sharded p99 {p99:.0} cycles vs 1.5x the checked-in reference \
             ({ref_p99:.0} -> bound {bound:.0})"
        );
        study.gate(
            "quick p99 within 1.5x of the checked-in reference",
            p99 <= bound,
        );
    }
    study.finish(&Record {
        device: "GH200",
        producers: PRODUCERS,
        baseline,
        sharded,
        speedup,
        gate: "sharded >= 2x baseline simulated throughput; quick p99 within 1.5x reference",
    })
}
