//! Criterion benches over the block-level GEMM kernels (Fig 8's
//! workload): wall-time of the full functional simulation per strategy.
//! Regressions here mean the *simulator or kernel builders* got slower;
//! the simulated cycle counts themselves are asserted in tests and
//! printed by `all_experiments --only fig08_square_gemm`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kami_baselines::{cublasdx, cutlass};
use kami_core::{gemm_auto, Algo, KamiConfig};
use kami_gpu_sim::{device, Matrix, Precision};
use std::hint::black_box;

fn bench_kami_algorithms(c: &mut Criterion) {
    let dev = device::gh200();
    let mut g = c.benchmark_group("kami_block_gemm_fp16");
    for n in [16usize, 32, 64, 128] {
        let a = Matrix::seeded_uniform(n, n, 1);
        let b = Matrix::seeded_uniform(n, n, 2);
        for algo in Algo::ALL {
            let cfg = KamiConfig::new(algo, Precision::Fp16);
            g.bench_with_input(BenchmarkId::new(algo.label(), n), &n, |bench, _| {
                bench.iter(|| gemm_auto(&dev, &cfg, black_box(&a), black_box(&b)).unwrap())
            });
        }
    }
    g.finish();
}

fn bench_baselines(c: &mut Criterion) {
    let dev = device::gh200();
    let mut g = c.benchmark_group("baseline_block_gemm_fp16");
    for n in [16usize, 64] {
        let a = Matrix::seeded_uniform(n, n, 1);
        let b = Matrix::seeded_uniform(n, n, 2);
        g.bench_with_input(BenchmarkId::new("cublasdx", n), &n, |bench, _| {
            bench.iter(|| {
                cublasdx::gemm(&dev, Precision::Fp16, 4, black_box(&a), black_box(&b)).unwrap()
            })
        });
        g.bench_with_input(BenchmarkId::new("cutlass", n), &n, |bench, _| {
            bench.iter(|| {
                cutlass::gemm(&dev, Precision::Fp16, black_box(&a), black_box(&b)).unwrap()
            })
        });
    }
    g.finish();
}

fn bench_precisions(c: &mut Criterion) {
    let dev = device::gh200();
    let mut g = c.benchmark_group("kami_1d_precisions_64");
    let a = Matrix::seeded_uniform(64, 64, 1);
    let b = Matrix::seeded_uniform(64, 64, 2);
    for prec in [Precision::Fp64, Precision::Fp16] {
        let cfg = KamiConfig::new(Algo::OneD, prec);
        g.bench_function(prec.label(), |bench| {
            bench.iter(|| gemm_auto(&dev, &cfg, black_box(&a), black_box(&b)).unwrap())
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_kami_algorithms, bench_baselines, bench_precisions
}
criterion_main!(benches);
