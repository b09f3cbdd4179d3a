//! Bit-level snapshot of the device scheduler: every decomposition of
//! a fixed set of dense and sparse streams on the four Table 3
//! devices, recorded into `tests/data/sched_golden.json`.
//!
//! Each case stores the chosen decomposition, the placed block count,
//! every SM's `blocks/k_iters/fixups`, the makespan, utilization and
//! tail imbalance as f64 bit patterns (hex strings, so no JSON float
//! parsing can round them), and an FNV-1a hash of the serialized
//! device trace — or the error text when the decomposition does not
//! apply. Any change to a placement, a segment's cycles or a fixup
//! shows up as an explicit diff of the file. Regenerate with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test sched_golden
//! ```

use kami::prelude::*;
use kami::sched::WorkItem;
use kami::sim::Trace;
use kami::sparse::gen::{power_law_block_sparse, random_block_sparse};
use serde_json::Value;
use std::path::PathBuf;

/// Every decomposition a caller can request.
const DECOMPOSITIONS: [Decomposition; 5] = [
    Decomposition::DataParallel,
    Decomposition::StreamK,
    Decomposition::SkinnyK,
    Decomposition::WeightedLpt,
    Decomposition::Auto,
];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("data")
        .join("sched_golden.json")
}

/// 64-bit FNV-1a, written out so the hash is the same on every
/// toolchain (`DefaultHasher` makes no such promise).
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn bits(x: f64) -> Value {
    Value::String(format!("{:016x}", x.to_bits()))
}

fn record(outcome: Result<(ScheduleReport, Trace), SchedError>) -> Value {
    let (report, trace) = match outcome {
        Ok(ok) => ok,
        Err(e) => return Value::Object(vec![("error".into(), Value::String(e.to_string()))]),
    };
    let per_sm: Vec<String> = report
        .per_sm
        .iter()
        .map(|s| format!("{}/{}/{}", s.blocks, s.k_iters, s.fixups))
        .collect();
    let trace_json = serde_json::to_string(&trace).expect("trace serializes");
    Value::Object(vec![
        (
            "decomposition".into(),
            Value::String(report.decomposition.label().into()),
        ),
        (
            "total_blocks".into(),
            Value::Number(report.total_blocks as f64),
        ),
        ("per_sm".into(), Value::String(per_sm.join(" "))),
        ("makespan_cycles".into(), bits(report.makespan_cycles)),
        ("utilization".into(), bits(report.utilization)),
        ("tail_imbalance".into(), bits(report.tail_imbalance)),
        (
            "trace_fnv1a".into(),
            Value::String(format!("{:016x}", fnv1a(trace_json.as_bytes()))),
        ),
    ])
}

/// One device's cases. Each stream gets one fresh [`PlanCache`], shared
/// by its five decompositions: they tune the same shape to the same
/// plan, and with feedback off the cache holds nothing else a schedule
/// reads, so sharing it only skips four identical tuning sweeps.
fn device_cases(dev: &DeviceSpec) -> Vec<(String, Value)> {
    let mut out = Vec::new();
    let sms = dev.num_sms as usize;
    let dense = [
        (
            "tail",
            BlockWork::uniform(64, 64, 256, Precision::Fp16, 2 * sms + 1),
        ),
        (
            "skinny",
            BlockWork::uniform(16, 16, 16384, Precision::Fp16, 32),
        ),
        (
            "single_stage",
            BlockWork::uniform(16, 16, 16, Precision::Fp16, sms + 7),
        ),
    ];
    for (name, work) in &dense {
        let plans = PlanCache::new();
        for d in DECOMPOSITIONS {
            let run = Scheduler::new(dev)
                .with_decomposition(d)
                .run_traced(work, &plans);
            out.push((format!("{}/{name}/{}", dev.name, d.label()), record(run)));
        }
    }

    // The two-shape mix of the unit test `ragged_stream_schedules_lpt`.
    let mut mix = Vec::new();
    for _ in 0..300 {
        mix.push(WorkItem::new(64, 64, 64, Precision::Fp16));
        mix.push(WorkItem::new(32, 32, 32, Precision::Fp16));
    }
    let run = Scheduler::new(dev).run_traced(&BlockWork::new(mix), &PlanCache::new());
    out.push((format!("{}/ragged_mix/auto", dev.name), record(run)));

    let power = power_law_block_sparse(1024, 16, 1.2, BlockOrder::RowMajor, 2024);
    let random = random_block_sparse(512, 512, 16, 0.3, BlockOrder::RowMajor, 7);
    let random_b = random_block_sparse(512, 512, 16, 0.3, BlockOrder::RowMajor, 8);
    let sparse = [
        (
            "spmm_power",
            SparseWork::from_spmm(&power, 64, Precision::Fp16),
        ),
        (
            "spmm_random",
            SparseWork::from_spmm(&random, 64, Precision::Fp16),
        ),
        (
            "spgemm_power",
            SparseWork::from_spgemm(&power, &power, Precision::Fp16),
        ),
        (
            "spgemm_random",
            SparseWork::from_spgemm(&random, &random_b, Precision::Fp16),
        ),
    ];
    for (name, work) in &sparse {
        let plans = PlanCache::new();
        for d in DECOMPOSITIONS {
            let run = Scheduler::new(dev)
                .with_decomposition(d)
                .run_sparse_traced(work, &plans)
                .map(|(r, trace)| (r.schedule, trace));
            out.push((format!("{}/{name}/{}", dev.name, d.label()), record(run)));
        }
    }
    out
}

/// Every device's cases in `all_evaluated` order, one thread per device.
fn cases() -> Vec<(String, Value)> {
    let devices = DeviceSpec::all_evaluated();
    std::thread::scope(|s| {
        let handles: Vec<_> = devices
            .iter()
            .map(|dev| s.spawn(move || device_cases(dev)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("device thread"))
            .collect()
    })
}

#[test]
fn schedules_match_golden_bits() {
    let cases = cases();
    let path = golden_path();
    let doc = serde_json::to_string_pretty(&Value::Object(cases.clone())).unwrap();
    // The snapshot must cover both inapplicable-split errors and every
    // decomposition a request can resolve to.
    assert!(doc.contains("tunes to a single stage"));
    assert!(doc.contains("is not tall-skinny"));
    for label in ["data-parallel", "stream-k", "skinny-k", "weighted-lpt"] {
        assert!(
            doc.contains(&format!("\"decomposition\": \"{label}\"")),
            "no case resolved to {label}"
        );
    }
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &doc).unwrap();
        return;
    }

    let raw = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    let golden: Value = serde_json::from_str(&raw).expect("golden file parses");
    let golden_obj = golden.as_object().expect("golden root is an object");
    assert_eq!(
        golden_obj.len(),
        cases.len(),
        "case list drifted; regenerate with UPDATE_GOLDEN=1"
    );
    for (key, got) in &cases {
        let want = golden.get(key).unwrap_or_else(|| {
            panic!("case {key} missing from golden file; regenerate with UPDATE_GOLDEN=1")
        });
        assert_eq!(
            got, want,
            "{key}: schedule changed (regenerate with UPDATE_GOLDEN=1 and review the diff)"
        );
    }
    assert_eq!(
        doc, raw,
        "golden file is not byte-identical to the recomputed snapshot"
    );
}
