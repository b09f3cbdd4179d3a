//! Device-level scheduling study: data-parallel vs Stream-K makespan
//! across the paper's block shapes, against the closed-form estimates.
//!
//! For each shape the same 16 384-block workload (plus a tail-heavy
//! variant) is placed on GH200 by `kami-sched` under both
//! decompositions, and the resulting device TFLOPS are compared with
//! the `estimate_batched` wave model and `occupancy::analyze`'s
//! steady-state prediction — the simulation should straddle the two
//! closed forms.
//!
//! ```text
//! cargo run --release -p kami-bench --bin sched_study [-- --out PATH]
//! ```
//!
//! Emits its table as `target/BENCH_sched.json` (override with `--out`);
//! there is no gate, and `--quick` changes nothing.

use kami_bench::{Study, Table};
use kami_core::estimate_batched;
use kami_gpu_sim::{device, Precision};
use kami_sched::{BlockWork, Decomposition, PlanCache, Scheduler, PAPER_BLOCK_COUNT};
use std::process::ExitCode;

fn main() -> ExitCode {
    let study = Study::from_env("sched");

    let dev = device::gh200();
    let plans = PlanCache::new();
    // The paper's block-level shapes (§5.2) at the batched precision
    // mix: FP16 small blocks, FP64 where the k-loop is deep enough for
    // Stream-K to split.
    let shapes: Vec<(usize, usize, usize, Precision)> = vec![
        (16, 16, 16, Precision::Fp16),
        (32, 32, 32, Precision::Fp16),
        (64, 64, 64, Precision::Fp16),
        (64, 64, 256, Precision::Fp64),
        (128, 128, 128, Precision::Fp16),
    ];

    println!(
        "Device-level scheduling study on {} ({} SMs)\n",
        dev.name, dev.num_sms
    );
    println!(
        "{:>16} | {:>10} {:>10} {:>8} | {:>10} {:>10} {:>10} | {:>9}",
        "shape", "DP cycles", "SK cycles", "SK/DP", "sched TF", "wave TF", "steady TF", "auto"
    );

    let mut table = Table::new(
        "Scheduler vs closed forms (uniform 16384-block workloads)",
        "shape index",
        "TFLOPS",
        (0..shapes.len()).collect(),
    );
    let mut dp_tf = Vec::new();
    let mut sk_tf = Vec::new();
    let mut wave_tf = Vec::new();
    let mut steady_tf = Vec::new();

    for &(m, n, k, prec) in &shapes {
        let work = BlockWork::uniform(m, n, k, prec, PAPER_BLOCK_COUNT);
        let run = |d| {
            Scheduler::new(&dev)
                .with_decomposition(d)
                .run(&work, &plans)
        };
        let dp = run(Decomposition::DataParallel).expect("data-parallel schedules");
        let sk = run(Decomposition::StreamK).ok();
        let auto = run(Decomposition::Auto).expect("auto schedules");

        // Closed forms: the wave model extrapolates one tuned block;
        // the steady-state form comes from occupancy::analyze.
        let (entry, _) = plans
            .plan_for(&dev, &work.items[0], None)
            .expect("plan exists after scheduling");
        let wave = estimate_batched(&dev, &entry.tuned.cfg, m, n, k, PAPER_BLOCK_COUNT)
            .expect("wave estimate");
        let steady = entry.cost.occupancy.steady_tflops;

        let sk_cycles = sk.as_ref().map(|r| r.makespan_cycles);
        println!(
            "{:>4}x{:<4}k{:<4}{} | {:>10.0} {:>10} {:>8} | {:>10.1} {:>10.1} {:>10.1} | {:>9}",
            m,
            n,
            k,
            prec.label(),
            dp.makespan_cycles,
            sk_cycles.map_or("-".into(), |c| format!("{c:.0}")),
            sk_cycles.map_or("-".into(), |c| format!("{:.3}", c / dp.makespan_cycles)),
            dp.achieved_tflops.max(
                sk.as_ref()
                    .map(|r| r.achieved_tflops)
                    .unwrap_or(f64::NEG_INFINITY)
            ),
            wave.tflops(&dev),
            steady,
            auto.decomposition.label(),
        );

        dp_tf.push(Some(dp.achieved_tflops));
        sk_tf.push(sk.as_ref().map(|r| r.achieved_tflops));
        wave_tf.push(Some(wave.tflops(&dev)));
        steady_tf.push(Some(steady));
    }

    table.push_series("sched data-parallel", dp_tf);
    table.push_series("sched stream-k", sk_tf);
    table.push_series("wave model", wave_tf);
    table.push_series("occupancy steady-state", steady_tf);

    // Tail-heavy study: one block past an even wave, where Stream-K's
    // work-centric split pays off.
    println!("\nTail-heavy workloads (count = w·SMs + 1, 64x64 k=256 FP64):");
    println!(
        "{:>8} | {:>12} {:>12} {:>8} | {:>10} {:>10}",
        "count", "DP cycles", "SK cycles", "SK/DP", "DP imbal", "SK imbal"
    );
    for waves in [1usize, 2, 4, 8] {
        let count = dev.num_sms as usize * waves + 1;
        let work = BlockWork::uniform(64, 64, 256, Precision::Fp64, count);
        let run = |d| {
            Scheduler::new(&dev)
                .with_decomposition(d)
                .run(&work, &plans)
        };
        let dp = run(Decomposition::DataParallel).expect("dp");
        let sk = run(Decomposition::StreamK).expect("sk");
        println!(
            "{:>8} | {:>12.0} {:>12.0} {:>8.3} | {:>10.4} {:>10.4}",
            count,
            dp.makespan_cycles,
            sk.makespan_cycles,
            sk.makespan_cycles / dp.makespan_cycles,
            dp.tail_imbalance,
            sk.tail_imbalance,
        );
    }

    println!(
        "\nPlan cache: {} shapes held, {} hits / {} misses (every repeated \
         shape reused its tuned config)",
        plans.len(),
        plans.hits(),
        plans.misses()
    );
    println!("\n{}", table.render());
    study.finish(&table)
}
