//! Sparse scheduling study: data-parallel vs nnz-weighted Stream-K
//! makespan across sparsity families (uniform, banded, power-law) from
//! `kami_sparse::gen`, on GH200.
//!
//! For each family and order the SpMM work stream is placed under both
//! decompositions (plus `Auto`), and the predicted makespans are
//! compared with `occupancy::analyze_stream`'s ideal lower bound and
//! the `sparse::model` closed form. A second section runs the SpGEMM
//! streams. The point of the study: quantized data-parallel placement
//! pays the full nnz skew (one SM draws the dense block row and the
//! device waits), while the nnz split tracks the ideal bound.
//!
//! ```text
//! cargo run --release -p kami-bench --bin sched_sparse_study [-- --quick] [--out PATH]
//! ```
//!
//! Emits its SpMM table as `target/BENCH_sched_sparse.json` (override
//! with `--out`); there is no gate.

use kami_bench::{Study, Table};
use kami_core::model::cycles::ModelParams;
use kami_core::Algo;
use kami_gpu_sim::{analyze_occupancy_stream, device, Precision};
use kami_sched::{Decomposition, PlanCache, Scheduler, SparseWork};
use kami_sparse::gen::{
    patterned_block_sparse, power_law_block_sparse, random_block_sparse, Pattern,
};
use kami_sparse::{model, BlockOrder, BlockSparseMatrix};
use std::process::ExitCode;

const BLOCK: usize = 16;
const DENSE_COLS: usize = 64;

fn families(n: usize) -> Vec<(&'static str, BlockSparseMatrix)> {
    vec![
        (
            "uniform d=0.5",
            random_block_sparse(n, n, BLOCK, 0.5, BlockOrder::RowMajor, 41),
        ),
        (
            "banded hw=2",
            patterned_block_sparse(
                n,
                BLOCK,
                Pattern::Banded { half_width: 2 },
                BlockOrder::RowMajor,
                42,
            ),
        ),
        (
            "power-law a=1.2",
            power_law_block_sparse(n, BLOCK, 1.2, BlockOrder::RowMajor, 43),
        ),
    ]
}

fn main() -> ExitCode {
    let study = Study::from_env("sched_sparse");
    let quick = study.quick;

    let dev = device::gh200();
    let plans = PlanCache::new();
    let orders: Vec<usize> = if quick {
        vec![512, 1024]
    } else {
        vec![256, 512, 1024, 2048]
    };

    println!(
        "Sparse scheduling study on {} ({} SMs), block {BLOCK}, SpMM n_B={DENSE_COLS}\n",
        dev.name, dev.num_sms
    );
    println!(
        "{:>6} {:>16} | {:>6} {:>6} | {:>11} {:>11} {:>11} {:>7} | {:>11} {:>12}",
        "n",
        "family",
        "items",
        "skew",
        "DP cycles",
        "SK cycles",
        "ideal",
        "DP/SK",
        "auto",
        "model cyc"
    );

    let mut table = Table::new(
        "SpMM makespan: data-parallel vs nnz-weighted Stream-K",
        "case index",
        "predicted cycles",
        (0..orders.len() * 3).collect(),
    );
    let mut dp_series = Vec::new();
    let mut sk_series = Vec::new();
    let mut ideal_series = Vec::new();

    let prm = ModelParams::from_device(&dev, Precision::Fp16).expect("GH200 FP16");
    for &n in &orders {
        for (family, a) in families(n) {
            let work = SparseWork::from_spmm(&a, DENSE_COLS, Precision::Fp16);
            let run = |d| {
                Scheduler::new(&dev)
                    .with_decomposition(d)
                    .run_sparse(&work, &plans)
            };
            let dp = run(Decomposition::DataParallel).expect("dp schedules");
            let sk = run(Decomposition::StreamK).expect("sk schedules");
            let auto = run(Decomposition::Auto).expect("auto schedules");

            // Ideal lower bound: every SM streams nonzero iterations at
            // the unit rate with no quantization or fixups.
            let (entry, _) = plans
                .plan_for(&dev, &work.unit, None)
                .expect("plan exists after scheduling");
            let steady = analyze_occupancy_stream(
                &dev,
                &entry.cost.occupancy,
                entry.cost.flops,
                &work.iter_counts(),
            );
            // Closed-form cross-check: the sparse model's single-block
            // cycle estimate at this family's effective density.
            let density = a.nnz_blocks() as f64 / (a.rows_blk() as f64 * a.cols_blk() as f64);
            let model_cycles =
                model::spmm_expected_cycles(Algo::OneD, n, DENSE_COLS, n, BLOCK, density, 4, &prm);

            println!(
                "{:>6} {:>16} | {:>6} {:>6.1} | {:>11.0} {:>11.0} {:>11.0} {:>7.2} | {:>11} {:>12.0}",
                n,
                family,
                work.len(),
                sk.nnz_skew,
                dp.schedule.makespan_cycles,
                sk.schedule.makespan_cycles,
                steady.ideal_cycles,
                dp.schedule.makespan_cycles / sk.schedule.makespan_cycles,
                auto.schedule.decomposition.label(),
                model_cycles,
            );
            dp_series.push(Some(dp.schedule.makespan_cycles));
            sk_series.push(Some(sk.schedule.makespan_cycles));
            ideal_series.push(Some(steady.ideal_cycles));
        }
    }
    table.push_series("data-parallel", dp_series);
    table.push_series("nnz stream-k", sk_series);
    table.push_series("stream ideal", ideal_series);

    // SpGEMM: items are symbolic output blocks, weights are pair counts.
    println!("\nSpGEMM streams (both operands sparse):");
    println!(
        "{:>6} {:>16} | {:>7} {:>7} {:>6} | {:>11} {:>11} {:>7} | {:>11}",
        "n", "family", "items", "pairs", "skew", "DP cycles", "SK cycles", "DP/SK", "auto"
    );
    let spgemm_orders: Vec<usize> = if quick {
        vec![512]
    } else {
        vec![256, 512, 1024]
    };
    for &n in &spgemm_orders {
        for (family, a) in families(n) {
            let b = random_block_sparse(n, n, BLOCK, 0.5, BlockOrder::RowMajor, 44);
            let work = SparseWork::from_spgemm(&a, &b, Precision::Fp16);
            let run = |d| {
                Scheduler::new(&dev)
                    .with_decomposition(d)
                    .run_sparse(&work, &plans)
            };
            let dp = run(Decomposition::DataParallel).expect("dp schedules");
            let sk = run(Decomposition::StreamK).expect("sk schedules");
            let auto = run(Decomposition::Auto).expect("auto schedules");
            println!(
                "{:>6} {:>16} | {:>7} {:>7} {:>6.1} | {:>11.0} {:>11.0} {:>7.2} | {:>11}",
                n,
                family,
                work.len(),
                work.total_nnz(),
                sk.nnz_skew,
                dp.schedule.makespan_cycles,
                sk.schedule.makespan_cycles,
                dp.schedule.makespan_cycles / sk.schedule.makespan_cycles,
                auto.schedule.decomposition.label(),
            );
        }
    }

    println!(
        "\nPlan cache: {} unit shapes held, {} hits / {} misses (every \
         repeated sparsity structure reused its tuned unit plan)",
        plans.len(),
        plans.hits(),
        plans.misses()
    );
    println!("\n{}", table.render());
    study.finish(&table)
}
