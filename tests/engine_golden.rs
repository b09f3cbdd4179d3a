//! Bit-level snapshot of the block engine: the interleaved oracle
//! (`Engine::run`/`run_traced`, reached through `gemm_legacy`), the
//! cost pass and the execute pass, recorded into
//! `tests/data/engine_golden.json`.
//!
//! * **Dense cases** — every Table 3 device × KAMI-1D/2D/3D × each
//!   evaluated precision the device has a tensor path for, at one small
//!   shape per algorithm, through `gemm_legacy` with the plain, a scaled
//!   (`alpha ≠ 1`, `beta ≠ 0`) and a fused-bias C store, plus
//!   `Engine::run_traced` on the plain kernel.
//! * **Sparse cases** — `spmm` and `spgemm` (the kernels that move
//!   metadata with `MetaStore`/`MetaLoad`) on one generated matrix per
//!   device.
//! * **Hand-built kernels** — one kernel using every op kind, traced,
//!   and one per fault (race, uninitialized read, barrier mismatch,
//!   register and shared-memory overflow, empty block, out-of-range
//!   metadata, overflowing MMA k-slice, zero cost factor), each fault
//!   recorded as the error text of `Engine::run`, the cost pass and the
//!   execute pass on both backends.
//!
//! Each entry stores the cycles and phase costs as f64 bit patterns (hex
//! strings, so no JSON float parsing can round them), the flop, byte
//! and register counters, and FNV-1a hashes of the serialized trace and
//! of the output C bits — or the error text. The split pipeline is held
//! to the same entries: `run_kernel` (traced, on every backend) must
//! reproduce each traced kernel, and the direct entry points on every
//! backend each dense store. Regenerate with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test engine_golden
//! ```

use kami::core::gemm::build_gemm_kernel;
use kami::core::{gemm_fused, gemm_legacy, gemm_scaled, CStore, Epilogue};
use kami::prelude::*;
use kami::sim::{
    shape_for, BlockKernel, BufferId, CostConfig, Engine, ExecutionReport, GlobalMemory,
    RunOptions, SimError, Trace, UnaryFunc,
};
use kami::sparse::gen::random_block_sparse;
use serde_json::Value;
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("data")
        .join("engine_golden.json")
}

/// 64-bit FNV-1a, written out so the hash is the same on every
/// toolchain (`DefaultHasher` makes no such promise).
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn hex(x: u64) -> Value {
    Value::String(format!("{x:016x}"))
}

fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn num(x: u64) -> Value {
    Value::Number(x as f64)
}

/// FNV-1a of a matrix's shape and element bit patterns.
fn matrix_fnv1a(c: &Matrix) -> Value {
    let mut bytes = Vec::with_capacity(16 + 8 * c.len());
    bytes.extend_from_slice(&(c.rows() as u64).to_le_bytes());
    bytes.extend_from_slice(&(c.cols() as u64).to_le_bytes());
    for x in c.as_slice() {
        bytes.extend_from_slice(&x.to_bits().to_le_bytes());
    }
    hex(fnv1a(&bytes))
}

/// One successful run: the report's counters, the trace hash when the
/// run was traced, and the output bits.
fn record(report: &ExecutionReport, trace: Option<&Trace>, c: &Matrix) -> Value {
    let phase = |p: &kami::sim::PhaseCost| [p.comm, p.compute, p.global, p.reg].map(bits).join("/");
    let phases: Vec<String> = report.phase_costs.iter().map(phase).collect();
    let regs: Vec<String> = report
        .registers_per_warp
        .iter()
        .map(|r| format!("{}/{}", r.theoretical_regs, r.measured_regs))
        .collect();
    let mut fields = vec![
        ("warps".into(), num(report.warps as u64)),
        ("cycles".into(), Value::String(bits(report.cycles))),
        ("totals".into(), Value::String(phase(&report.totals))),
        ("phase_costs".into(), Value::String(phases.join(" "))),
        ("flops_charged".into(), num(report.flops_charged)),
        ("smem_bytes_written".into(), num(report.smem_bytes_written)),
        ("smem_bytes_read".into(), num(report.smem_bytes_read)),
        ("smem_extent".into(), num(report.smem_extent as u64)),
        ("gmem_bytes_read".into(), num(report.gmem_bytes_read)),
        ("gmem_bytes_written".into(), num(report.gmem_bytes_written)),
        ("registers".into(), Value::String(regs.join(" "))),
    ];
    if let Some(trace) = trace {
        let json = serde_json::to_string(trace).expect("trace serializes");
        fields.push(("trace_events".into(), num(trace.events.len() as u64)));
        fields.push(("trace_fnv1a".into(), hex(fnv1a(json.as_bytes()))));
    }
    fields.push(("c_fnv1a".into(), matrix_fnv1a(c)));
    Value::Object(fields)
}

fn error(text: String) -> Value {
    Value::Object(vec![("error".into(), Value::String(text))])
}

/// A GEMM entry point's outcome: its report and C, or its error text.
fn record_gemm(out: Result<kami::core::GemmResult, KamiError>) -> Value {
    match out {
        Ok(res) => record(&res.report, None, &res.c),
        Err(e) => error(e.to_string()),
    }
}

/// The shape each algorithm runs at: legal for its default warp count
/// on every device and precision, and small enough for a debug build.
fn shape(algo: Algo) -> (usize, usize, usize) {
    match algo {
        Algo::OneD => (32, 48, 32),
        Algo::TwoD => (32, 32, 48),
        Algo::ThreeD => (32, 32, 32),
    }
}

/// A fresh memory and the ids of its buffers, in upload order.
type Staged = (GlobalMemory, Vec<BufferId>);

/// The plain-store memory of one dense case, staged the way the
/// block-GEMM driver stages it: A and B at the input precision, C zeroed.
fn plain_gmem(prec: Precision, a: &Matrix, b: &Matrix) -> Staged {
    let mut gmem = GlobalMemory::new();
    let ids = vec![
        gmem.upload("A", a, prec),
        gmem.upload("B", b, prec),
        gmem.alloc_zeroed("C", a.rows(), b.cols(), prec),
    ];
    (gmem, ids)
}

/// The plain-store kernel of one dense case over the buffers of
/// [`plain_gmem`].
fn plain_kernel(cfg: &KamiConfig, m: usize, n: usize, k: usize, ids: &[BufferId]) -> BlockKernel {
    build_gemm_kernel(cfg, m, n, k, ids[0], ids[1], ids[2], cfg.precision)
}

/// `Engine::run_traced` on `kernel`, with the split pipeline held to it:
/// `run_kernel` (traced) on every backend must record the same entry.
/// Each run gets a fresh memory from `gmem`; its buffer `c` is the output.
fn traced_entry(eng: &Engine, kernel: &BlockKernel, gmem: impl Fn() -> Staged, c: usize) -> Value {
    let (mut g, ids) = gmem();
    let c = ids[c];
    let oracle = match eng.run_traced(kernel, &mut g) {
        Ok((report, trace)) => record(&report, Some(&trace), &g.download(c)),
        Err(e) => error(e.to_string()),
    };
    for backend in BackendKind::ALL {
        let mut g = gmem().0;
        let opts = RunOptions::default().traced().with_backend(backend);
        let split = match eng.run_kernel(kernel, &mut g, &opts) {
            Ok(arts) => record(&arts.report, arts.trace.as_ref(), &g.download(c)),
            Err(e) => error(e.to_string()),
        };
        assert_eq!(
            split, oracle,
            "run_kernel ({backend}) diverges from run_traced"
        );
    }
    oracle
}

/// The dense cases of one device.
fn dense_cases(dev: &DeviceSpec) -> Vec<(String, Value)> {
    let mut out = Vec::new();
    for prec in Precision::ALL_EVALUATED {
        if shape_for(dev, prec).is_none() {
            continue;
        }
        for algo in Algo::ALL {
            let (m, n, k) = shape(algo);
            let a = Matrix::seeded_uniform(m, k, 11);
            let b = Matrix::seeded_uniform(k, n, 12);
            let c0 = Matrix::seeded_uniform(m, n, 13);
            let bias = Epilogue::Bias(Matrix::seeded_uniform(1, n, 14));
            let cfg = KamiConfig::new(algo, prec);
            let key = format!("{}/{}/{}", dev.name, algo.label(), prec.label());

            let stores = [
                ("plain", CStore::Plain),
                (
                    "scaled",
                    CStore::Scaled {
                        alpha: 1.5,
                        beta: -0.5,
                        c0: &c0,
                    },
                ),
                ("bias", CStore::Fused(&bias)),
            ];
            for (label, store) in stores {
                let legacy = record_gemm(gemm_legacy(dev, &cfg, &a, &b, store));
                for backend in BackendKind::ALL {
                    let cfg = cfg.clone().with_backend(backend);
                    let split = record_gemm(match store {
                        CStore::Plain => gemm(dev, &cfg, &a, &b),
                        CStore::Scaled { alpha, beta, c0 } => {
                            gemm_scaled(dev, &cfg, alpha, &a, &b, beta, c0)
                        }
                        CStore::Fused(epi) => gemm_fused(dev, &cfg, &a, &b, epi),
                    });
                    assert_eq!(split, legacy, "{key}/{label}: split ({backend}) diverges");
                }
                out.push((format!("{key}/{label}"), legacy));
            }

            let staged = || plain_gmem(prec, &a, &b);
            let kernel = plain_kernel(&cfg, m, n, k, &staged().1);
            let eng = Engine::with_cost(dev, cfg.cost.clone());
            let traced = traced_entry(&eng, &kernel, staged, 2);
            out.push((format!("{key}/trace"), traced));
        }
    }
    out
}

/// SpMM and SpGEMM on one generated matrix, through the split pipeline.
fn sparse_cases(dev: &DeviceSpec) -> Vec<(String, Value)> {
    let n = 64;
    let a = random_block_sparse(n, n, 16, 0.5, BlockOrder::ZMorton, 31);
    let b = random_block_sparse(n, n, 16, 0.5, BlockOrder::ZMorton, 32);
    let b_dense = Matrix::seeded_uniform(n, n, 33);
    let mut out = Vec::new();
    for backend in BackendKind::ALL {
        let cfg = KamiConfig::new(Algo::TwoD, Precision::Fp16).with_backend(backend);
        let spmm = match spmm(dev, &cfg, &a, &b_dense) {
            Ok(res) => record(&res.report, None, &res.c),
            Err(e) => error(e.to_string()),
        };
        let spgemm = match spgemm(dev, &cfg, &a, &b) {
            Ok(res) => record(&res.report, None, &res.c.to_dense()),
            Err(e) => error(e.to_string()),
        };
        for (name, got) in [("spmm", spmm), ("spgemm", spgemm)] {
            let key = format!("{}/{name}", dev.name);
            match out.iter().find(|(k, _)| *k == key) {
                Some((_, want)) => assert_eq!(&got, want, "{key}: {backend} diverges"),
                None => out.push((key, got)),
            }
        }
    }
    out
}

/// The memory of [`every_op_kernel`]: A, B, C (4×4) and Bias (1×4), all
/// FP16.
fn every_op_gmem() -> Staged {
    let mut gmem = GlobalMemory::new();
    let prec = Precision::Fp16;
    let ids = vec![
        gmem.upload("A", &Matrix::seeded_uniform(4, 4, 21), prec),
        gmem.upload("B", &Matrix::seeded_uniform(4, 4, 22), prec),
        gmem.upload("C", &Matrix::seeded_uniform(4, 4, 23), prec),
        gmem.upload("Bias", &Matrix::seeded_uniform(1, 4, 24), prec),
    ];
    (gmem, ids)
}

/// One hand-built kernel that uses every op kind at least once.
fn every_op_kernel(ids: &[BufferId]) -> BlockKernel {
    let prec = Precision::Fp16;
    let (ab, bb, cb, biasb) = (ids[0], ids[1], ids[2], ids[3]);
    BlockKernel::spmd(2, |i, w| {
        let fa = w.frag("A", 2, 4, prec);
        let fb = w.frag("B", 4, 4, prec);
        let fc = w.frag("C", 2, 4, prec);
        let tmp = w.frag("T", 2, 4, prec);
        let row = w.frag("Bias", 1, 4, prec);
        w.global_load(fa, ab, 2 * i, 0);
        w.global_load(fb, bb, 0, 0);
        w.zero_acc(fc);
        w.mma_a_cols(fc, fa, fb, 0, 4);
        w.shared_store(fc, 64 * i);
        w.meta_store(256 + 16 * i, 12);
        w.barrier();
        w.shared_load(tmp, 64 * (1 - i));
        w.meta_load(256 + 16 * (1 - i), 12);
        w.reg_copy(fc, tmp);
        w.scale(fc, 0.75);
        w.add_assign(fc, tmp);
        w.global_load(row, biasb, 0, 0);
        w.add_row_broadcast(fc, row);
        w.unary(fc, UnaryFunc::Relu);
        w.unary(fc, UnaryFunc::Gelu);
        w.unary(fc, UnaryFunc::Softmax { scale: 0.5 });
        w.barrier();
        w.global_store(fc, cb, 2 * i, 0);
        w.global_accumulate(tmp, cb, 2 * i, 0);
    })
}

/// An FP16 A (2×4) and B (4×2), the operands of the k-slice fault.
fn ab_gmem() -> Staged {
    let mut gmem = GlobalMemory::new();
    let ids = vec![
        gmem.upload("A", &Matrix::seeded_uniform(2, 4, 1), Precision::Fp16),
        gmem.upload("B", &Matrix::seeded_uniform(4, 2, 2), Precision::Fp16),
    ];
    (gmem, ids)
}

/// An empty memory.
fn no_gmem() -> Staged {
    (GlobalMemory::new(), Vec::new())
}

/// A kernel that must fail: its name, the kernel, and the memory it runs
/// against.
type Fault = (&'static str, BlockKernel, fn() -> Staged);

fn fault_kernels(dev: &DeviceSpec) -> Vec<Fault> {
    let cap = dev.smem_capacity;
    let ab = ab_gmem().1;
    vec![
        (
            "smem_race",
            BlockKernel::spmd(2, |i, w| {
                let f = w.frag("x", 1, 1, Precision::Fp32);
                w.zero_acc(f);
                if i == 0 {
                    w.shared_store(f, 0);
                } else {
                    w.shared_load(f, 0);
                }
            }),
            no_gmem,
        ),
        (
            "uninitialized_read",
            BlockKernel::spmd(3, |i, w| {
                let f = w.frag("x", 1, 1, Precision::Fp32);
                if i == 0 {
                    w.zero_acc(f);
                }
                w.shared_store(f, i * 64);
            }),
            no_gmem,
        ),
        (
            "barrier_mismatch",
            BlockKernel::spmd(2, |i, w| {
                let f = w.frag("x", 1, 1, Precision::Fp32);
                w.zero_acc(f);
                if i == 0 {
                    w.barrier();
                }
            }),
            no_gmem,
        ),
        (
            "register_overflow",
            BlockKernel::spmd(1, |_, w| {
                let f = w.frag("huge", 256, 128, Precision::Fp64);
                w.zero_acc(f);
            }),
            no_gmem,
        ),
        (
            "smem_overflow",
            BlockKernel::spmd(1, |_, w| {
                let f = w.frag("x", 4, 4, Precision::Fp32);
                w.zero_acc(f);
                w.shared_store(f, cap - 32);
            }),
            no_gmem,
        ),
        ("empty_block", BlockKernel::new(Vec::new()), no_gmem),
        (
            "meta_load_overflow",
            BlockKernel::spmd(2, move |i, w| w.meta_load(cap - 8 + i * 4, 8)),
            no_gmem,
        ),
        (
            "meta_store_overflow",
            BlockKernel::spmd(1, |_, w| w.meta_store(usize::MAX, 2)),
            no_gmem,
        ),
        (
            "k_slice_overflow",
            BlockKernel::spmd(1, |_, w| {
                let fa = w.frag("a", 2, 4, Precision::Fp16);
                let fb = w.frag("b", 1, 2, Precision::Fp16);
                let fd = w.frag("d", 2, 2, Precision::Fp32);
                w.global_load(fa, ab[0], 0, 0);
                w.global_load(fb, ab[1], 0, 0);
                w.zero_acc(fd);
                w.mma_a_cols(fd, fa, fb, usize::MAX, 1);
            }),
            ab_gmem,
        ),
    ]
}

/// A faulting kernel's error text from the oracle, the cost pass alone
/// and the execute pass alone on every backend, each against a fresh
/// memory from `gmem`.
fn fault_entry(eng: &Engine, kernel: &BlockKernel, gmem: fn() -> Staged) -> Value {
    let text = |r: Result<(), SimError>| {
        Value::String(match r {
            Ok(()) => "ok".to_string(),
            Err(e) => e.to_string(),
        })
    };
    let run = eng.run(kernel, &mut gmem().0).map(|_| ());
    let cost = eng
        .plan(kernel)
        .and_then(|plan| eng.cost(&plan, &gmem().0.layout()))
        .map(|_| ());
    let mut fields = vec![("run".to_string(), text(run)), ("cost".into(), text(cost))];
    for backend in BackendKind::ALL {
        let exec = eng
            .plan(kernel)
            .and_then(|plan| eng.execute_with(backend, &plan, &mut gmem().0));
        fields.push((format!("execute_{backend}"), text(exec)));
    }
    Value::Object(fields)
}

/// The hand-built kernels, on GH200.
///
/// The every-op kernel also runs under the overlap bracketing with a
/// read bank-conflict factor, and under a zero factor, which the cost
/// model must reject.
fn kernel_cases() -> Vec<(String, Value)> {
    let dev = device::gh200();
    let eng = Engine::new(&dev);
    let every_op = every_op_kernel(&every_op_gmem().1);
    let overlap = Engine::with_cost(
        &dev,
        CostConfig {
            theta_r: 0.25,
            ..CostConfig::overlap()
        },
    );
    let zero_theta = Engine::with_cost(
        &dev,
        CostConfig {
            theta_r: 0.0,
            ..CostConfig::default()
        },
    );
    let mut out = vec![
        (
            format!("{}/every_op", dev.name),
            traced_entry(&eng, &every_op, every_op_gmem, 2),
        ),
        (
            format!("{}/every_op_overlap", dev.name),
            traced_entry(&overlap, &every_op, every_op_gmem, 2),
        ),
        (
            format!("{}/fault/zero_theta", dev.name),
            fault_entry(&zero_theta, &every_op, every_op_gmem),
        ),
    ];
    for (name, kernel, gmem) in fault_kernels(&dev) {
        out.push((
            format!("{}/fault/{name}", dev.name),
            fault_entry(&eng, &kernel, gmem),
        ));
    }
    out
}

/// Every case: the hand-built kernels, then each device's dense and
/// sparse cases in `all_evaluated` order, one thread per device.
fn cases() -> Vec<(String, Value)> {
    let devices = DeviceSpec::all_evaluated();
    let per_device: Vec<(String, Value)> = std::thread::scope(|s| {
        let handles: Vec<_> = devices
            .iter()
            .map(|dev| {
                s.spawn(move || {
                    let mut out = dense_cases(dev);
                    out.extend(sparse_cases(dev));
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("device thread"))
            .collect()
    });
    let mut out = kernel_cases();
    out.extend(per_device);
    out
}

#[test]
fn engine_matches_golden_bits() {
    let cases = cases();
    let path = golden_path();
    let doc = serde_json::to_string_pretty(&Value::Object(cases.clone())).unwrap();
    // Every fault must fail the oracle, and every kind of run must
    // succeed somewhere.
    for (key, value) in &cases {
        if key.contains("/fault/") {
            let run = value.get("run").and_then(Value::as_str);
            assert!(run.is_some_and(|r| r != "ok"), "{key}: the oracle ran");
        }
    }
    for label in [
        "plain", "scaled", "bias", "trace", "spmm", "spgemm", "every_op",
    ] {
        assert!(
            cases
                .iter()
                .any(|(k, v)| k.ends_with(label) && v.get("cycles").is_some()),
            "no {label} case ran"
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
            "{key}: engine output changed (regenerate with UPDATE_GOLDEN=1 and review the diff)"
        );
    }
    assert_eq!(
        doc, raw,
        "golden file is not byte-identical to the recomputed snapshot"
    );
}
