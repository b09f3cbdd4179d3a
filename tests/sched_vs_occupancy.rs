//! Acceptance tests tying the device-level scheduler back to the
//! occupancy model (ISSUE: kami-sched tentpole).
//!
//! 1. On the paper's uniform 16 384-block workload, the scheduler's
//!    achieved TFLOPS must agree with `occupancy::analyze`'s
//!    steady-state throughput within 15%.
//! 2. On a tail-heavy workload (block count not divisible by the SM
//!    count), Stream-K's makespan must not exceed data-parallel's.
//! 3. A repeated shape must be served from the plan cache without
//!    re-tuning.

use kami::sched::{BlockWork, Decomposition, PlanCache, Scheduler, WorkItem, PAPER_BLOCK_COUNT};
use kami::sim::{device, Precision};

#[test]
fn device_tflops_agrees_with_occupancy_steady_state() {
    let dev = device::gh200();
    let plans = PlanCache::new();
    let item = WorkItem::new(64, 64, 64, Precision::Fp16);
    let work = BlockWork::synthetic(item.m, item.n, item.k, item.precision);
    assert_eq!(work.len(), PAPER_BLOCK_COUNT);

    let report = Scheduler::new(&dev)
        .with_decomposition(Decomposition::DataParallel)
        .run(&work, &plans)
        .unwrap();
    let (entry, _) = plans.plan_for(&dev, &item, None).unwrap();
    let steady = entry.cost.occupancy.steady_tflops;

    let ratio = report.achieved_tflops / steady;
    assert!(
        (ratio - 1.0).abs() < 0.15,
        "achieved {:.2} TFLOPS vs steady-state {:.2} TFLOPS (ratio {ratio:.4})",
        report.achieved_tflops,
        steady
    );
    // 16 384 blocks on 132 SMs: the quantization loss is tiny.
    assert!(
        report.utilization > 0.9,
        "utilization {}",
        report.utilization
    );
}

#[test]
fn streamk_beats_data_parallel_on_tail_heavy_workload() {
    let dev = device::gh200();
    let sms = dev.num_sms as usize;
    // One block past an even wave: data-parallel pays a whole extra
    // wave for it, Stream-K spreads the spill as k-loop iterations.
    let count = sms * 4 + 1;
    assert_ne!(count % sms, 0);
    let work = BlockWork::uniform(64, 64, 256, Precision::Fp64, count);

    let dp = Scheduler::new(&dev)
        .with_decomposition(Decomposition::DataParallel)
        .run(&work, &PlanCache::new())
        .unwrap();
    let sk = Scheduler::new(&dev)
        .with_decomposition(Decomposition::StreamK)
        .run(&work, &PlanCache::new())
        .unwrap();

    assert!(
        sk.makespan_cycles <= dp.makespan_cycles,
        "stream-k {} cycles vs data-parallel {} cycles",
        sk.makespan_cycles,
        dp.makespan_cycles
    );
    // The win is the tail wave, so it should be substantial, and Auto
    // should find it.
    assert!(sk.makespan_cycles < 0.95 * dp.makespan_cycles);
    let auto = Scheduler::new(&dev).run(&work, &PlanCache::new()).unwrap();
    assert_eq!(auto.decomposition, Decomposition::StreamK);
    assert_eq!(auto.makespan_cycles, sk.makespan_cycles);
    // Data-parallel shows the tail; Stream-K levels it.
    assert!(sk.tail_imbalance < dp.tail_imbalance);
}

#[test]
fn plan_cache_serves_repeated_shape_without_retuning() {
    let dev = device::gh200();
    let plans = PlanCache::new();
    let work = BlockWork::uniform(64, 64, 64, Precision::Fp16, 300);

    let first = Scheduler::new(&dev).run(&work, &plans).unwrap();
    assert_eq!((first.plans_reused, first.plans_tuned), (0, 1));
    assert_eq!(plans.tuner().misses(), 1);

    let second = Scheduler::new(&dev).run(&work, &plans).unwrap();
    assert_eq!((second.plans_reused, second.plans_tuned), (1, 0));
    // No new tuning sweep happened: still exactly one miss underneath,
    // and the cached winner evaluated a real candidate space.
    assert_eq!(plans.tuner().misses(), 1);
    assert_eq!(plans.len(), 1);
    let (entry, hit) = plans
        .plan_for(&dev, &WorkItem::new(64, 64, 64, Precision::Fp16), None)
        .unwrap();
    assert!(hit);
    assert!(entry.tuned.candidates_tried > 1);
    assert_eq!(second.makespan_cycles, first.makespan_cycles);
}
