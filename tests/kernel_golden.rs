//! Program-level snapshot of every kernel builder, recorded into
//! `tests/data/kernel_golden.json`.
//!
//! Each case builds one block kernel and records its warp count, its
//! total op count and the FNV-1a hash of its `Debug` text, which spells
//! out every fragment declaration and every op of every warp. A builder
//! change that moves one op, renames one fragment or shifts one address
//! shows up as a changed hash.
//!
//! * **Dense** — KAMI-1D/2D/3D through `build_gemm_kernel`, at every
//!   grid extent `q ≤ 4` that is legal on GH200, `smem_fraction`
//!   0 / 0.25 / 0.5, three shapes, FP16 and FP64.
//! * **2.5D** — every `(q, c)` with `c ≤ q ≤ 4`, two shapes, FP16 and
//!   FP64.
//! * **Sparse** — the SpMM and SpGEMM kernels at every legal warp count
//!   of each algorithm, block densities 0 / 0.3 / 1, two seeds and two
//!   sizes (FP16, 16×16 blocks in Z-Morton order).
//!
//! Regenerate with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test kernel_golden
//! ```

use kami::core::gemm::build_gemm_kernel;
use kami::core::Kami25dConfig;
use kami::prelude::*;
use kami::sim::{BlockKernel, BufferId, GmemLayout};
use kami::sparse::gen::random_block_sparse;
use kami::sparse::spgemm::numeric::spgemm_kernel;
use kami::sparse::spmm::spmm_kernel;
use serde_json::Value;
use std::path::PathBuf;

const DENSE_SHAPES: [(usize, usize, usize); 3] = [(48, 48, 48), (24, 36, 72), (36, 72, 144)];
const FRACTIONS: [f64; 3] = [0.0, 0.25, 0.5];
const PRECISIONS: [Precision; 2] = [Precision::Fp16, Precision::Fp64];
// Divisible by q and c·q for every (q, c) with c ≤ q ≤ 4.
const SHAPES_25D: [(usize, usize, usize); 2] = [(24, 48, 144), (48, 36, 288)];
const SPARSE_SIZES: [usize; 2] = [96, 128];
const SPARSE_WARPS: [usize; 8] = [1, 2, 3, 4, 8, 9, 16, 27];
const DENSITIES: [f64; 3] = [0.0, 0.3, 1.0];
const SEEDS: [u64; 2] = [1, 2];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("data")
        .join("kernel_golden.json")
}

/// 64-bit FNV-1a, written out so the hash is the same on every
/// toolchain (`DefaultHasher` makes no such promise).
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn record(kernel: &BlockKernel) -> Value {
    let ops: usize = kernel.warps.iter().map(|w| w.ops.len()).sum();
    let text = format!("{kernel:?}");
    Value::Object(vec![
        ("warps".into(), Value::Number(kernel.warps.len() as f64)),
        ("ops".into(), Value::Number(ops as f64)),
        (
            "fnv".into(),
            Value::String(format!("{:016x}", fnv1a(text.as_bytes()))),
        ),
    ])
}

/// A, B and C declared the way the block-GEMM driver stages them.
fn dense_layout(m: usize, n: usize, k: usize, prec: Precision) -> [BufferId; 3] {
    let mut layout = GmemLayout::new();
    [
        layout.declare("A", m, k, prec),
        layout.declare("B", k, n, prec),
        layout.declare("C", m, n, prec),
    ]
}

fn dense_cases(out: &mut Vec<(String, Value)>) {
    let dev = device::gh200();
    for algo in Algo::ALL {
        for q in 1..=4usize {
            let warps = match algo {
                Algo::OneD => q,
                Algo::TwoD => q * q,
                Algo::ThreeD => q * q * q,
            };
            for prec in PRECISIONS {
                for frac in FRACTIONS {
                    for (m, n, k) in DENSE_SHAPES {
                        let cfg = KamiConfig::new(algo, prec)
                            .with_warps(warps)
                            .with_smem_fraction(frac);
                        if cfg.validate(&dev, m, n, k).is_err() {
                            continue;
                        }
                        let [ab, bb, cb] = dense_layout(m, n, k, prec);
                        let kernel = build_gemm_kernel(&cfg, m, n, k, ab, bb, cb, prec);
                        let key = format!(
                            "dense/{}/p{warps}/f{frac}/{}/{m}x{n}x{k}",
                            algo.label(),
                            prec.label()
                        );
                        out.push((key, record(&kernel)));
                    }
                }
            }
        }
    }
}

fn cases_25d(out: &mut Vec<(String, Value)>) {
    for q in 1..=4usize {
        for c in 1..=q {
            for prec in PRECISIONS {
                for (m, n, k) in SHAPES_25D {
                    let [ab, bb, cb] = dense_layout(m, n, k, prec);
                    let kernel = Kami25dConfig::new(q, c, prec)
                        .grid()
                        .build_kernel(m, n, k, ab, bb, cb, prec);
                    let key = format!("2.5d/q{q}/c{c}/{}/{m}x{n}x{k}", prec.label());
                    out.push((key, record(&kernel)));
                }
            }
        }
    }
}

fn sparse_cases(out: &mut Vec<(String, Value)>) {
    let dev = device::gh200();
    for algo in Algo::ALL {
        for warps in SPARSE_WARPS {
            let cfg = KamiConfig::new(algo, Precision::Fp16).with_warps(warps);
            for n in SPARSE_SIZES {
                for density in DENSITIES {
                    for seed in SEEDS {
                        let a = random_block_sparse(n, n, 16, density, BlockOrder::ZMorton, seed);
                        let b =
                            random_block_sparse(n, n, 16, density, BlockOrder::ZMorton, seed + 100);
                        let b_dense = Matrix::seeded_uniform(n, n, seed + 200);
                        let tag = format!("{}/p{warps}/n{n}/d{density}/s{seed}", algo.label());
                        if let Ok(kernel) = spmm_kernel(&dev, &cfg, &a, &b_dense) {
                            out.push((format!("spmm/{tag}"), record(&kernel)));
                        }
                        if let Ok(kernel) = spgemm_kernel(&dev, &cfg, &a, &b) {
                            out.push((format!("spgemm/{tag}"), record(&kernel)));
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn kernel_programs_match_golden() {
    let mut cases = Vec::new();
    dense_cases(&mut cases);
    cases_25d(&mut cases);
    sparse_cases(&mut cases);
    for family in [
        "dense/KAMI-1D",
        "dense/KAMI-2D",
        "dense/KAMI-3D",
        "2.5d",
        "spmm/KAMI-1D",
        "spmm/KAMI-2D",
        "spmm/KAMI-3D",
        "spgemm/KAMI-1D",
        "spgemm/KAMI-2D",
        "spgemm/KAMI-3D",
    ] {
        assert!(
            cases.iter().any(|(key, _)| key.starts_with(family)),
            "no {family} case was built"
        );
    }
    let path = golden_path();
    let doc = serde_json::to_string_pretty(&Value::Object(cases.clone())).unwrap();
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
            "{key}: kernel program changed (regenerate with UPDATE_GOLDEN=1 and review the diff)"
        );
    }
    assert_eq!(
        doc, raw,
        "golden file is not byte-identical to the recomputed snapshot"
    );
}
