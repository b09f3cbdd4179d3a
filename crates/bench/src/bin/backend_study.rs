//! Warm execute-path throughput: the native backend vs the reference
//! Sim backend.
//!
//! The serve warm path runs execute-only — the plan and cost passes are
//! cached per shape class — so the execute backend is the whole story
//! for sustained repeated-shape traffic. This study builds each shape's
//! plan once (`gemm_cost_auto`, exactly what the serve cache holds) and
//! times `gemm_execute_plan_with` per backend over the same operands.
//! Both backends are bit-identical by contract (asserted here on every
//! shape); the only difference is wall-clock.
//!
//! ```text
//! cargo run --release -p kami-bench --bin backend_study [-- --quick] [--out PATH]
//! ```
//!
//! Emits `target/BENCH_backend.json` (override with `--out`) and exits
//! nonzero if the native backend's aggregate execute throughput falls
//! under 2x the simulator — the CI acceptance gate for the backend seam.

use kami_bench::Study;
use kami_core::{gemm_cost_auto, gemm_execute_plan_with, Algo, KamiConfig};
use kami_gpu_sim::{device, BackendKind, Matrix, Precision};
use serde::Serialize;
use std::process::ExitCode;
use std::time::Instant;

/// Warm-path shape classes: the serve mix plus one register-ladder
/// escalated block where the MMA volume dominates.
const SHAPES: [(usize, usize, usize, Algo); 4] = [
    (64, 64, 64, Algo::TwoD),
    (32, 32, 64, Algo::OneD),
    (128, 64, 64, Algo::TwoD),
    (128, 128, 128, Algo::TwoD),
];

/// The CI acceptance bar for the backend seam.
const GATE: &str = "native >= 2x sim";

#[derive(Serialize)]
struct ShapeRow {
    shape: String,
    algo: &'static str,
    sim_secs: f64,
    native_secs: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct Record {
    device: String,
    iters_per_shape: usize,
    shapes: Vec<ShapeRow>,
    sim_total_secs: f64,
    native_total_secs: f64,
    aggregate_speedup: f64,
    gate: &'static str,
}

fn main() -> ExitCode {
    let mut study = Study::from_env("backend");
    let iters = if study.quick { 24 } else { 120 };
    let dev = device::gh200();

    println!("# backend_study: warm execute-only runs/sec per backend, {iters} iters/shape");
    println!("# fp16, plain C=A*B, plan+cost cached (gemm_cost_auto once per shape)\n");
    println!(
        "{:<14} {:>12} {:>12} {:>9}",
        "shape", "sim runs/s", "native runs/s", "speedup"
    );

    let mut rows = Vec::new();
    let mut sim_total = 0.0f64;
    let mut native_total = 0.0f64;
    for (i, &(m, n, k, algo)) in SHAPES.iter().enumerate() {
        let cfg = KamiConfig::new(algo, Precision::Fp16);
        let plan = gemm_cost_auto(&dev, &cfg, m, n, k).expect("shape is feasible");
        let a = Matrix::seeded_uniform(m, k, i as u64);
        let b = Matrix::seeded_uniform(k, n, i as u64 + 100);

        // Conformance before speed: the two backends must agree bit for
        // bit on the exact operands being timed.
        let [sim_c, native_c] = [BackendKind::Sim, BackendKind::Native].map(|backend| {
            let r = gemm_execute_plan_with(&dev, &plan, &a, &b, backend);
            r.expect("both backends execute").c
        });
        assert_eq!(
            sim_c.max_abs_diff(&native_c),
            0.0,
            "{m}x{n}x{k}: backends must be bit-identical"
        );

        let [sim_secs, native_secs] = [BackendKind::Sim, BackendKind::Native].map(|backend| {
            let t0 = Instant::now();
            for _ in 0..iters {
                gemm_execute_plan_with(&dev, &plan, &a, &b, backend).expect("warm execute");
            }
            t0.elapsed().as_secs_f64()
        });
        sim_total += sim_secs;
        native_total += native_secs;
        let sim_rps = iters as f64 / sim_secs;
        let native_rps = iters as f64 / native_secs;
        let speedup = native_rps / sim_rps;
        let shape = format!("{m}x{n}x{k}");
        println!("{shape:<14} {sim_rps:>12.1} {native_rps:>12.1} {speedup:>8.2}x");
        rows.push(ShapeRow {
            shape,
            algo: algo.label(),
            sim_secs,
            native_secs,
            speedup,
        });
    }

    let aggregate = sim_total / native_total;
    println!("\naggregate execute-path speedup (native vs sim): {aggregate:.2}x");

    study.gate(GATE, aggregate >= 2.0);
    study.finish(&Record {
        device: dev.name.clone(),
        iters_per_shape: iters,
        shapes: rows,
        sim_total_secs: sim_total,
        native_total_secs: native_total,
        aggregate_speedup: aggregate,
        gate: GATE,
    })
}
