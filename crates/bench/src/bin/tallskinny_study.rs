//! Tall-skinny scheduling study: the Skinny-K k-split decomposition
//! (deep k-partitioning with a pairwise-tree fixup, after Ernst et
//! al.'s tall-skinny reduction strategies) vs the square-tile
//! data-parallel baseline, on the regime the k-split path owns —
//! `m, n ≤ 64` with `k ≥ 10^4`.
//!
//! For each grid shape the same uniform block workload is placed on
//! GH200 by `kami-sched` under `Decomposition::DataParallel` and
//! `Decomposition::SkinnyK`, and the predicted device throughputs
//! (useful flops over makespan) are compared. `Auto` must also pick the
//! winner on every shape.
//!
//! ```text
//! cargo run --release -p kami-bench --bin tallskinny_study [-- --quick] [--out PATH]
//! ```
//!
//! Emits `target/BENCH_tallskinny.json` (override with `--out`) and
//! exits nonzero unless the skinny path beats data-parallel by ≥ 1.5×
//! predicted throughput on every grid shape — the CI acceptance gate
//! for the tall-skinny path.

use kami_bench::Study;
use kami_gpu_sim::{device, Precision};
use kami_sched::{BlockWork, Decomposition, PlanCache, Scheduler};
use serde::Serialize;
use std::process::ExitCode;

/// The acceptance bar: predicted skinny throughput over data-parallel.
const GATE: f64 = 1.5;

#[derive(Serialize)]
struct ShapeRow {
    shape: String,
    dp_cycles: f64,
    skinny_cycles: f64,
    dp_tflops: f64,
    skinny_tflops: f64,
    ratio: f64,
    auto: &'static str,
}

#[derive(Serialize)]
struct Record {
    device: String,
    blocks_per_shape: usize,
    gate: String,
    worst_ratio: f64,
    shapes: Vec<ShapeRow>,
}

/// The tall-skinny grid (every shape has `m, n ≤ 64`, `k ≥ 10^4`).
const GRID: [(usize, usize, usize); 6] = [
    (16, 16, 16384),
    (16, 16, 65536),
    (32, 32, 16384),
    (32, 32, 65536),
    (64, 64, 16384),
    (64, 16, 32768),
];

fn main() -> ExitCode {
    let mut study = Study::from_env("tallskinny");
    // Blocks per workload: far fewer than the SM count, the regime
    // tall-skinny GEMMs actually arrive in (one or a handful of deep
    // products at a time). Square-tile DP then strands the device —
    // one block per SM, serial over the whole k — while Skinny-K
    // spreads each product's k chunks across the idle SMs and pays
    // only the lg-depth tree fixup. At saturating block counts both
    // decompositions fill the device and the ratio collapses to ~1,
    // which is exactly why the skinny path is latency infrastructure,
    // not throughput infrastructure.
    let blocks = if study.quick { 2 } else { 8 };
    let dev = device::gh200();
    let plans = PlanCache::new();

    println!(
        "# tallskinny_study: Skinny-K vs square-tile DP on {} ({} SMs), {blocks} blocks/shape",
        dev.name, dev.num_sms
    );
    println!(
        "{:>16} | {:>12} {:>12} | {:>10} {:>10} | {:>8} | {:>9}",
        "shape", "DP cycles", "SkK cycles", "DP TF", "SkK TF", "ratio", "auto"
    );

    let mut rows = Vec::new();
    let mut worst: f64 = f64::INFINITY;
    for &(m, n, k) in &GRID {
        let work = BlockWork::uniform(m, n, k, Precision::Fp16, blocks);
        let run = |d| {
            Scheduler::new(&dev)
                .with_decomposition(d)
                .run(&work, &plans)
        };
        let dp = run(Decomposition::DataParallel).expect("data-parallel schedules every shape");
        let sk = run(Decomposition::SkinnyK).expect("the grid is inside the skinny regime");
        let auto = run(Decomposition::Auto).expect("auto schedules every shape");
        let ratio = sk.achieved_tflops / dp.achieved_tflops;
        worst = worst.min(ratio);
        let shape = format!("{m}x{n}x{k}");
        println!(
            "{shape:>16} | {:>12.0} {:>12.0} | {:>10.2} {:>10.2} | {ratio:>7.2}x | {:>9}",
            dp.makespan_cycles,
            sk.makespan_cycles,
            dp.achieved_tflops,
            sk.achieved_tflops,
            auto.decomposition.label(),
        );
        // Auto must never leave the skinny win on the table.
        assert!(
            auto.makespan_cycles <= sk.makespan_cycles * (1.0 + 1e-9),
            "{shape}: auto ({}) slower than forced Skinny-K",
            auto.decomposition.label()
        );
        rows.push(ShapeRow {
            shape,
            dp_cycles: dp.makespan_cycles,
            skinny_cycles: sk.makespan_cycles,
            dp_tflops: dp.achieved_tflops,
            skinny_tflops: sk.achieved_tflops,
            ratio,
            auto: auto.decomposition.label(),
        });
    }

    println!("\nworst skinny/DP throughput ratio over the grid: {worst:.2}x (gate {GATE}x)");

    let gate = format!("skinny >= {GATE}x DP on every shape");
    study.gate(gate.clone(), worst >= GATE);
    study.finish(&Record {
        device: dev.name.clone(),
        blocks_per_shape: blocks,
        gate,
        worst_ratio: worst,
        shapes: rows,
    })
}
