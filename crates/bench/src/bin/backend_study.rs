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

use kami_core::{gemm_cost_auto, gemm_execute_plan_with, Algo, KamiConfig};
use kami_gpu_sim::{device, BackendKind, Matrix, Precision};
use std::time::Instant;

/// Warm-path shape classes: the serve mix plus one register-ladder
/// escalated block where the MMA volume dominates.
const SHAPES: [(usize, usize, usize, Algo); 4] = [
    (64, 64, 64, Algo::TwoD),
    (32, 32, 64, Algo::OneD),
    (128, 64, 64, Algo::TwoD),
    (128, 128, 128, Algo::TwoD),
];

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "target/BENCH_backend.json".into());
    let iters = if quick { 24 } else { 120 };
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
        let sim_c = gemm_execute_plan_with(&dev, &plan, &a, &b, BackendKind::Sim)
            .expect("sim executes")
            .c;
        let native_c = gemm_execute_plan_with(&dev, &plan, &a, &b, BackendKind::Native)
            .expect("native executes")
            .c;
        assert_eq!(
            sim_c.max_abs_diff(&native_c),
            0.0,
            "{m}x{n}x{k}: backends must be bit-identical"
        );

        let mut secs = [0.0f64; 2];
        for (slot, backend) in [BackendKind::Sim, BackendKind::Native]
            .into_iter()
            .enumerate()
        {
            let t0 = Instant::now();
            for _ in 0..iters {
                gemm_execute_plan_with(&dev, &plan, &a, &b, backend).expect("warm execute");
            }
            secs[slot] = t0.elapsed().as_secs_f64();
        }
        let (sim_secs, native_secs) = (secs[0], secs[1]);
        sim_total += sim_secs;
        native_total += native_secs;
        let sim_rps = iters as f64 / sim_secs;
        let native_rps = iters as f64 / native_secs;
        let speedup = native_rps / sim_rps;
        println!(
            "{:<14} {sim_rps:>12.1} {native_rps:>12.1} {speedup:>8.2}x",
            format!("{m}x{n}x{k}")
        );
        rows.push(format!(
            "    {{\"shape\": \"{m}x{n}x{k}\", \"algo\": \"{}\", \
             \"sim_secs\": {sim_secs:.6}, \"native_secs\": {native_secs:.6}, \
             \"speedup\": {speedup:.3}}}",
            algo.label()
        ));
    }

    let aggregate = sim_total / native_total;
    println!("\naggregate execute-path speedup (native vs sim): {aggregate:.2}x");

    let json = format!(
        "{{\n  \"study\": \"backend_study\",\n  \"device\": \"{}\",\n  \
         \"iters_per_shape\": {iters},\n  \"shapes\": [\n{}\n  ],\n  \
         \"sim_total_secs\": {sim_total:.6},\n  \"native_total_secs\": {native_total:.6},\n  \
         \"aggregate_speedup\": {aggregate:.3},\n  \"gate\": \"native >= 2x sim\"\n}}\n",
        dev.name,
        rows.join(",\n")
    );
    if let Some(parent) = std::path::Path::new(&out).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create output dir");
        }
    }
    std::fs::write(&out, json).expect("write BENCH_backend.json");
    println!("wrote {out}");

    if aggregate < 2.0 {
        eprintln!("FAIL: native execute throughput {aggregate:.2}x under the 2x acceptance bar");
        std::process::exit(1);
    }
    println!("PASS: >= 2x acceptance bar");
}
