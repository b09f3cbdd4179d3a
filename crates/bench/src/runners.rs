//! One runner per table/figure of the paper's evaluation (§5), each
//! returning a [`Table`] that integration tests assert the shape of,
//! and [`EXPERIMENTS`], the table `all_experiments` runs them from.

use crate::select::{paper_orders, square_config, square_warps};
use crate::series::Table;
use kami_baselines::{cublas, cublasdx, cutlass, magma, syclbench};
use kami_core::model::{cycles as model_cycles, registers as model_regs, roofline};
use kami_core::{estimate_batched, Algo, KamiConfig, KamiError};
use kami_gpu_sim::{
    device, CostConfig, DeviceSpec, Engine, ExecutionReport, GlobalMemory, Matrix, PhaseCost,
    Precision,
};
use kami_sparse::{gen, spgemm::spgemm, spmm::spmm, BlockOrder};

/// Host-side overhead of one KAMI batched launch, in microseconds
/// (a plain kernel launch — no pointer-array marshalling).
pub const KAMI_LAUNCH_US: f64 = 3.0;

fn seeded_pair(n: usize, k: usize) -> (Matrix, Matrix) {
    (
        Matrix::seeded_uniform(n, k, 0xA11CE),
        Matrix::seeded_uniform(k, n, 0xB0B),
    )
}

/// Warp-count candidates for a square order-`n` problem (grid-valid
/// divisors, largest first).
fn warp_candidates(algo: Algo, n: usize) -> Vec<usize> {
    match algo {
        Algo::OneD => (1..=16usize)
            .rev()
            .filter(|p| n.is_multiple_of(*p))
            .collect(),
        Algo::TwoD => (1..=4usize)
            .rev()
            .filter(|&q| n.is_multiple_of(q))
            .map(|q| q * q)
            .collect(),
        Algo::ThreeD => (1..=3usize)
            .rev()
            .filter(|&q| n.is_multiple_of(q) && n.is_multiple_of(q * q))
            .map(|q| q * q * q)
            .collect(),
    }
}

/// The largest value, if any.
fn best(values: impl IntoIterator<Item = f64>) -> Option<f64> {
    values.into_iter().reduce(f64::max)
}

/// cuBLASDx-style point: best over the warp layouts the library's
/// dispatcher would consider. `None` when no layout fits (the paper's
/// shared-memory capacity cliff).
fn cublasdx_point(dev: &DeviceSpec, prec: Precision, n: usize) -> Option<f64> {
    let (a, b) = seeded_pair(n, n);
    let fits = [2usize, 4, 6, 8]
        .into_iter()
        .filter(|p| n.is_multiple_of(*p));
    best(fits.filter_map(|p| {
        cublasdx::gemm(dev, prec, p, &a, &b)
            .ok()
            .map(|r| r.block_tflops(dev))
    }))
}

/// KAMI block TFLOPS of a square order-`n` problem: the best over the
/// `warps` candidates (the auto-tuning role real libraries play,
/// §5.2.5). `None` if no candidate runs on the device.
fn kami_best_of(
    dev: &DeviceSpec,
    algo: Algo,
    prec: Precision,
    n: usize,
    warps: &[usize],
) -> Option<f64> {
    let (a, b) = seeded_pair(n, n);
    best(warps.iter().filter_map(|&p| {
        let cfg = KamiConfig::new(algo, prec).with_warps(p);
        let r = kami_core::gemm_auto(dev, &cfg, &a, &b).ok()?;
        Some(r.block_tflops(dev))
    }))
}

// ---------------------------------------------------------------- Fig 3

/// Fig 3 (left series): modelled cuBLAS device-level FP64 GEMM on GH200
/// across square orders 1–8192, against the roofline.
pub fn fig3_cublas_curve() -> Table {
    let dev = device::gh200();
    let sizes = vec![
        1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192,
    ];
    let mut t = Table::new(
        "Fig 3: cuBLAS FP64 device GEMM vs roofline (GH200)",
        "n",
        "GFLOPS",
        sizes,
    );
    let rl = roofline::Roofline::of(&dev, Precision::Fp64).expect("GH200 has FP64 tensor");
    t.push_with("cuBLAS(model)", |n| {
        roofline::cublas_like_gflops(&dev, Precision::Fp64, n)
    });
    t.push_with("roofline", |n| {
        Some(rl.attainable(roofline::machine_balance(n, Precision::Fp64)) / 1e9)
    });
    t
}

/// Fig 3 (right series): cuBLASDx-style block-level FP64 GEMM on GH200,
/// orders up to its shared-memory limit (~98 in the paper). `None` marks
/// capacity overflow — the same cliff the paper reports.
pub fn fig3_cublasdx_curve() -> Table {
    let dev = device::gh200();
    let sizes = vec![16, 32, 48, 64, 80, 96, 112, 128];
    let mut t = Table::new(
        "Fig 3: cuBLASDx block-level FP64 GEMM (GH200)",
        "n",
        "TFLOPS",
        sizes,
    );
    t.push_with("cuBLASDx(sim)", |n| {
        cublasdx_point(&dev, Precision::Fp64, n)
    });
    t
}

// ---------------------------------------------------------------- Fig 8

/// One Fig 8 panel: block-level square GEMM on `dev` at `prec`,
/// KAMI-1D/2D/3D vs whatever comparators exist on that platform.
pub fn fig8_panel(dev: &DeviceSpec, prec: Precision) -> Table {
    let title = format!(
        "Fig 8: block-level {} square GEMM on {}",
        prec.label(),
        dev.name
    );
    let mut t = Table::new(title, "n", "TFLOPS", paper_orders(prec));
    for algo in Algo::ALL {
        // The candidates include the natural preset (`square_warps`).
        t.push_with(algo.label(), |n| {
            kami_best_of(dev, algo, prec, n, &warp_candidates(algo, n))
        });
    }
    let tflops = |r: kami_baselines::BaselineResult| r.block_tflops(dev);
    match dev.vendor {
        kami_gpu_sim::Vendor::Nvidia => {
            t.push_with("cuBLASDx", |n| cublasdx_point(dev, prec, n));
            t.push_with("CUTLASS", |n| {
                let (a, b) = seeded_pair(n, n);
                cutlass::gemm(dev, prec, &a, &b).ok().map(tflops)
            });
        }
        kami_gpu_sim::Vendor::Intel => {
            t.push_with("SYCL-Bench", |n| {
                let (a, b) = seeded_pair(n, n);
                let p = square_warps(Algo::OneD, n).min(4);
                syclbench::gemm(dev, prec, p, &a, &b).ok().map(tflops)
            });
        }
        kami_gpu_sim::Vendor::Amd => {} // Fig 8(f): KAMI only
    }
    t
}

// ---------------------------------------------------------------- Fig 9

/// Fig 9: 64×64 FP16 GEMM on the 5090 as a function of threads per
/// block. Each algorithm uses the largest warp organisation that fits
/// the block, so small blocks strand tensor cores for 2D/3D.
pub fn fig9_block_size() -> Table {
    let dev = device::rtx5090();
    let prec = Precision::Fp16;
    let n = 64;
    let mut t = Table::new(
        "Fig 9: 64x64 FP16 GEMM vs block size (RTX 5090)",
        "threads",
        "TFLOPS",
        vec![64, 128, 256, 512, 1024],
    );
    for algo in Algo::ALL {
        t.push_with(algo.label(), |threads| {
            let avail = threads / 32;
            // Best organisation that fits the block: the tuning a
            // library dispatcher performs for a given launch shape.
            let candidates: Vec<usize> = match algo {
                Algo::OneD => (1..=avail.min(8)).filter(|p| n % p == 0).collect(),
                Algo::TwoD => (1..=4usize)
                    .filter(|&q| q * q <= avail && n % q == 0)
                    .map(|q| q * q)
                    .collect(),
                Algo::ThreeD => (1..=2usize)
                    .filter(|&q| q * q * q <= avail && n % (q * q) == 0)
                    .map(|q| q * q * q)
                    .collect(),
            };
            kami_best_of(&dev, algo, prec, n, &candidates)
        });
    }
    t
}

// --------------------------------------------------------------- Fig 10

/// Fig 10: FP16 KAMI-1D (4 warps, §5.6.2 measurement setup) on the 5090
/// across shared-memory parking ratios. `None` marks the register-
/// overflow configurations the paper annotates.
pub fn fig10_smem_ratio() -> Table {
    let dev = device::rtx5090();
    let prec = Precision::Fp16;
    let mut t = Table::new(
        "Fig 10: shared-memory parking ratio, FP16 KAMI-1D p=4 (RTX 5090)",
        "ratio%",
        "TFLOPS",
        vec![0, 25, 50, 75],
    );
    for n in [32usize, 64, 96, 128, 192] {
        let (a, b) = seeded_pair(n, n);
        // 192 needs 8 warps even fully parked (its C strip alone
        // overflows 4 warps' registers); the paper sweeps it too.
        let warps = if n >= 192 { 8 } else { 4 };
        t.push_with(format!("n={n}"), |percent| {
            let cfg = KamiConfig::new(Algo::OneD, prec)
                .with_warps(warps)
                .with_smem_fraction(percent as f64 / 100.0);
            // No auto-escalation here: the point is to show where a
            // fixed ratio stops fitting.
            let r = kami_core::gemm(&dev, &cfg, &a, &b).ok()?;
            Some(r.block_tflops(&dev))
        });
    }
    t
}

// --------------------------------------------------------------- Fig 11

/// Fig 11: low-rank GEMM (k = 16 or 32) in FP16 on GH200 — KAMI vs the
/// smem-staged and fixed-tile strategies.
pub fn fig11_lowrank(k: usize) -> Table {
    let dev = device::gh200();
    let prec = Precision::Fp16;
    let sizes = vec![16, 32, 48, 64, 96, 128, 192];
    let title = format!("Fig 11: low-rank GEMM k={k} FP16 (GH200)");
    let mut t = Table::new(title, "m=n", "TFLOPS", sizes);
    let factors = |m| {
        let u = Matrix::seeded_uniform(m, k, 0x10);
        (u, Matrix::seeded_uniform(k, m, 0x11))
    };
    t.push_with("KAMI", |m| {
        let (u, v) = factors(m);
        // Low-rank entry point (column-split 1D), best warps.
        let warps = [1usize, 2, 4, 8, 16].into_iter().filter(|p| m % p == 0);
        best(warps.filter_map(|p| {
            let cfg = KamiConfig::new(Algo::OneD, prec).with_warps(p);
            let r = kami_core::lowrank_gemm(&dev, &cfg, &u, &v).ok()?;
            Some(r.block_tflops(&dev))
        }))
    });
    t.push_with("cuBLASDx", |m| {
        let (u, v) = factors(m);
        // Largest warp count its layout accepts.
        let p = (1..=4usize)
            .rev()
            .find(|p| m % p == 0 && k.is_multiple_of(*p))?;
        let r = cublasdx::gemm(&dev, prec, p, &u, &v).ok()?;
        Some(r.block_tflops(&dev))
    });
    t.push_with("CUTLASS", |m| {
        let (u, v) = factors(m);
        let r = cutlass::gemm(&dev, prec, &u, &v).ok()?;
        Some(r.block_tflops(&dev))
    });
    t
}

// --------------------------------------------------------------- Fig 12

/// Fig 12: batched FP64 GEMM on GH200 — modelled wall-clock GFLOPS of
/// KAMI vs MAGMA- and cuBLAS-style batched paths.
pub fn fig12_batched(batch: usize) -> Table {
    let dev = device::gh200();
    let prec = Precision::Fp64;
    let sizes = vec![16, 32, 48, 64, 96, 128];
    let title = format!("Fig 12: batched FP64 GEMM, batch={batch} (GH200)");
    let mut t = Table::new(title, "n", "GFLOPS", sizes);
    let gflops = |n: usize, secs: f64| 2.0 * (n * n * n) as f64 * batch as f64 / secs / 1e9;
    t.push_with("KAMI", |n| {
        // Best valid warp organisation, as the dense sweeps do.
        best(warp_candidates(Algo::OneD, n).into_iter().filter_map(|p| {
            let cfg = KamiConfig::new(Algo::OneD, prec).with_warps(p);
            let r = estimate_batched(&dev, &cfg, n, n, n, batch).ok()?;
            Some(gflops(n, KAMI_LAUNCH_US * 1e-6 + r.seconds(&dev)))
        }))
    });
    t.push_with("MAGMA", |n| {
        let secs = magma::batched_seconds(&dev, prec, n, n, n, batch).ok()?;
        Some(gflops(n, secs))
    });
    t.push_with("cuBLAS", |n| {
        let secs = cublas::batched_seconds(&dev, prec, n, n, n, batch).ok()?;
        Some(gflops(n, secs))
    });
    t
}

// --------------------------------------------------------------- Fig 13

/// Fig 13: SpMM and SpGEMM in FP16 on GH200 over five 50%-block-sparse
/// matrices. Returns `(spmm_table, spgemm_table)`.
pub fn fig13_sparse() -> (Table, Table) {
    let dev = device::gh200();
    let prec = Precision::Fp16;
    let sizes = vec![32, 64, 96, 128, 192];
    let title = |kind| format!("Fig 13: {kind} FP16, 50% block sparsity (GH200)");
    let mut tm = Table::new(title("SpMM"), "n", "TFLOPS", sizes.clone());
    let mut tg = Table::new(title("SpGEMM"), "n", "TFLOPS", sizes);

    for algo in Algo::ALL {
        let order = if algo == Algo::OneD {
            BlockOrder::RowMajor
        } else {
            BlockOrder::ZMorton
        };
        let sparse_a = |n: usize| gen::paper_sparse_workload(n, 16, order, 0xD06 + n as u64);
        // Every valid warp count over the n/16 block rows.
        let configs = |n: usize| -> Vec<KamiConfig> {
            let rb = n / 16;
            let warps: Vec<usize> = match algo {
                Algo::OneD => (1..=16usize).filter(|p| rb.is_multiple_of(*p)).collect(),
                Algo::TwoD => (1..=4usize)
                    .filter(|&q| rb.is_multiple_of(q) && n.is_multiple_of(q))
                    .map(|q| q * q)
                    .collect(),
                Algo::ThreeD => (1..=2usize)
                    .filter(|&q| rb.is_multiple_of(q * q) && n.is_multiple_of(q))
                    .map(|q| q * q * q)
                    .collect(),
            };
            warps
                .into_iter()
                .filter(|&p| p > 1 || algo == Algo::OneD) // degenerate grids duplicate the 1D point
                .map(|p| KamiConfig::new(algo, prec).with_warps(p))
                .collect()
        };
        tm.push_with(algo.label(), |n| {
            let (a, b) = (sparse_a(n), Matrix::seeded_uniform(n, n, 0xCAFE));
            best(
                configs(n)
                    .iter()
                    .filter_map(|cfg| Some(spmm(&dev, cfg, &a, &b).ok()?.block_tflops(&dev))),
            )
        });
        tg.push_with(algo.label(), |n| {
            let a = sparse_a(n);
            let b = gen::paper_sparse_workload(n, 16, order, 0xD07 + n as u64);
            best(
                configs(n)
                    .iter()
                    .filter_map(|cfg| Some(spgemm(&dev, cfg, &a, &b).ok()?.block_tflops(&dev))),
            )
        });
    }
    (tm, tg)
}

// --------------------------------------------------------------- Fig 14

/// Fig 14: theoretical vs live-range-measured registers per thread,
/// C fixed at 64×32, k swept, FP16 (1D and 2D with 4 warps, 3D with 8).
pub fn fig14_registers() -> Table {
    let prec = Precision::Fp16;
    let (m, n) = (64, 32);
    let dev = device::gh200();
    let mut t = Table::new(
        "Fig 14: registers per thread, C=64x32 FP16, k swept",
        "k",
        "registers",
        vec![16, 32, 64, 128, 192, 256],
    );
    for algo in Algo::ALL {
        let p = match algo {
            Algo::OneD | Algo::TwoD => 4,
            Algo::ThreeD => 8,
        };
        let cfg = KamiConfig::new(algo, prec).with_warps(p);
        let fits = |k| cfg.validate(&dev, m, n, k).is_ok();
        t.push_with(format!("{} theory", algo.label()), |k| {
            let regs = model_regs::theoretical_registers(algo, m, n, k, p, prec, prec);
            fits(k).then(|| f64::from(regs))
        });
        t.push_with(format!("{} actual", algo.label()), |k| {
            if !fits(k) {
                return None;
            }
            // Build (not run) the kernel and analyze its live ranges.
            let mut gmem = GlobalMemory::new();
            let ab = gmem.upload("A", &Matrix::zeros(m, k), prec);
            let bb = gmem.upload("B", &Matrix::zeros(k, n), prec);
            let cb = gmem.alloc_zeroed("C", m, n, prec);
            let kern = kami_core::gemm::build_gemm_kernel(&cfg, m, n, k, ab, bb, cb, prec);
            let lazy = Engine::new(&dev).analyze_registers_lazy(&kern);
            Some(f64::from(lazy.into_iter().max().unwrap_or(0)))
        });
    }
    t
}

// --------------------------------------------------------------- Fig 15

/// Fig 15: theoretical (Formulas 1–12) vs simulator-measured cycles,
/// split into communication and computation, FP16, per device.
pub fn fig15_cycles(dev: &DeviceSpec, algo: Algo) -> Result<Table, KamiError> {
    let prec = Precision::Fp16;
    let p = match algo {
        Algo::OneD | Algo::TwoD => 4,
        Algo::ThreeD => 8,
    };
    let prm = model_cycles::ModelParams::from_device(dev, prec).ok_or_else(|| {
        KamiError::Unsupported {
            detail: format!("{} lacks FP16", dev.name),
        }
    })?;
    let title = format!("Fig 15: {} cycles, FP16 on {}", algo.label(), dev.name);
    let mut t = Table::new(title, "n", "cycles", vec![16, 32, 48, 64, 96, 128]);
    let cfg = KamiConfig::new(algo, prec).with_warps(p);
    // The serial-cost report, then the overlap-mode total (§4.7 / §5.6.2).
    let sim: Vec<Option<(PhaseCost, Option<f64>)>> = (t.x.iter())
        .map(|&n| {
            let (a, b) = seeded_pair(n, n);
            let r = kami_core::gemm_auto(dev, &cfg, &a, &b).ok()?;
            let cfg_o = cfg.clone().with_cost(CostConfig::overlap());
            let overlap = kami_core::gemm_auto(dev, &cfg_o, &a, &b).ok();
            Some((r.report.totals, overlap.map(|r| r.report.on_chip_cycles())))
        })
        .collect();
    t.push_with("comm(theory)", |n| {
        Some(model_cycles::t_all_comm(algo, n, n, n, p, &prm))
    });
    t.push_series(
        "comm(sim)",
        sim.iter().map(|s| s.map(|(c, _)| c.comm)).collect(),
    );
    t.push_with("compute(theory)", |n| {
        Some(model_cycles::t_all_compute(n, n, n, &prm))
    });
    t.push_series(
        "compute(sim)",
        sim.iter().map(|s| s.map(|(c, _)| c.compute)).collect(),
    );
    t.push_series(
        "total(overlap)",
        sim.iter().map(|s| s.and_then(|(_, o)| o)).collect(),
    );
    Ok(t)
}

// ------------------------------------------------------------- Tables

/// §5.6.1 on-chip usage comparison at 64³ FP16: registers/thread and
/// shared memory/block for KAMI vs the staged strategies.
pub fn tab_onchip_usage() -> Table {
    let dev = device::gh200();
    let prec = Precision::Fp16;
    let n = 64;
    let (a, b) = seeded_pair(n, n);
    let mut t = Table::new(
        "On-chip usage at 64x64x64 FP16 (GH200): registers/thread | smem KB",
        "metric",
        "value",
        vec![0, 1], // 0 = regs/thread, 1 = smem KB
    );
    let mut usage = |label: &str, report: &ExecutionReport| {
        let regs = f64::from(report.max_registers().measured_regs);
        t.push_series(
            label,
            vec![Some(regs), Some(report.smem_extent as f64 / 1024.0)],
        );
    };
    for algo in Algo::ALL {
        let cfg = square_config(algo, prec, n);
        if let Ok(r) = kami_core::gemm_auto(&dev, &cfg, &a, &b) {
            usage(algo.label(), &r.report);
        }
    }
    if let Ok(r) = cublasdx::gemm(&dev, prec, 4, &a, &b) {
        usage("cuBLASDx", &r.report);
    }
    if let Ok(r) = cutlass::gemm(&dev, prec, &a, &b) {
        usage("CUTLASS", &r.report);
    }
    t
}

// ---------------------------------------------------- Experiment table

/// One entry of the paper's evaluation (§5): `(slug, runner, note)`.
/// The runner prints its figure or table and returns the tables to
/// export, each under its own JSON slug; the paper note prints after it.
pub type Experiment = (&'static str, fn() -> Vec<(String, Table)>, &'static str);

/// Every table and figure of the evaluation, in print order.
pub const EXPERIMENTS: &[Experiment] = &[
    ("tab03_devices", tab03_devices, ""),
    ("tab04_shapes", tab04_shapes, ""),
    (
        "fig03_roofline",
        || {
            vec![
                show("fig03_cublas", fig3_cublas_curve()),
                show("fig03_cublasdx", fig3_cublasdx_curve()),
            ]
        },
        "Paper shape check: cuBLAS collapses at small n (paper: ~28 GFLOPS at n=64),\n\
         approaches peak (67 TFLOPS) at n=8192; cuBLASDx hits a shared-memory\n\
         capacity cliff near n~98 (simulated: '-' entries above).",
    ),
    (
        "fig04_hierarchy",
        fig04_hierarchy,
        "\nPaper analogy (Fig 4): local:remote latency ~1:20 (register vs\n\
         shared memory) mirrors a cluster's DRAM:network ~1:9; bandwidth\n\
         ratios are ~4:1 in both.",
    ),
    ("fig08_square_gemm", fig08_square_gemm, ""),
    (
        "fig09_block_size",
        || vec![show("fig09_block_size", fig9_block_size())],
        "Paper shape check: KAMI-1D stays high across block sizes; KAMI-2D\n\
         reaches ~half of 1D at 64 threads; KAMI-3D only performs once the\n\
         block exceeds 256 threads (8 warps).",
    ),
    (
        "fig10_smem_ratio",
        || vec![show("fig10_smem_ratio", fig10_smem_ratio())],
        "Paper shape check: small orders (32-64) run best with 0% parked —\n\
         shared memory only degrades; at 128-192 the 0% column overflows the\n\
         register file ('-') so moderate parking is required, and 75% is\n\
         slower than the smallest fitting ratio.",
    ),
    (
        "fig11_lowrank",
        || {
            let panels = [16, 32].map(|k| (format!("fig11_lowrank_k{k}"), fig11_lowrank(k)));
            summarized(panels, &["KAMI"], &["cuBLASDx", "CUTLASS"])
        },
        "",
    ),
    (
        "fig12_batched",
        || {
            let panels = [1000, 10000].map(|n| (format!("fig12_batched_{n}"), fig12_batched(n)));
            summarized(panels, &["KAMI"], &["MAGMA", "cuBLAS"])
        },
        "",
    ),
    (
        "fig13_sparse",
        || {
            let (tm, tg) = fig13_sparse();
            vec![show("fig13_spmm", tm), show("fig13_spgemm", tg)]
        },
        "Paper shape check: SpMM tracks dense GEMM (B and C dense); SpGEMM\n\
         lands lower (irregular indexing, metadata traffic, extra sync).",
    ),
    (
        "fig14_registers",
        fig14_registers_vs_theory,
        "Paper: 76.86% (1D), 73.14% (2D), 65.67% (3D).",
    ),
    ("fig15_cycles", fig15_all, ""),
    (
        "tab_onchip_usage",
        || vec![show("tab_onchip_usage", tab_onchip_usage())],
        "",
    ),
];

/// The experiments whose slug starts with `prefix` (all for `""`).
pub fn experiments(prefix: &str) -> Vec<Experiment> {
    EXPERIMENTS
        .iter()
        .copied()
        .filter(|e| e.0.starts_with(prefix))
        .collect()
}

/// Print `t` and name it for JSON export.
fn show(slug: impl Into<String>, t: Table) -> (String, Table) {
    println!("{}", t.render());
    (slug.into(), t)
}

/// [`show`] each panel, then its §5.2.1 speedup summary of `kami` over
/// `baselines`.
fn summarized(
    panels: impl IntoIterator<Item = (String, Table)>,
    kami: &[&str],
    baselines: &[&str],
) -> Vec<(String, Table)> {
    let panel = |(slug, t): (String, Table)| {
        let summary = t.summary(kami, baselines);
        let shown = show(slug, t);
        if !summary.is_empty() {
            println!("{summary}");
        }
        shown
    };
    panels.into_iter().map(panel).collect()
}

/// Table 3 (device specifications) and the derived O_tc values.
fn tab03_devices() -> Vec<(String, Table)> {
    println!("Table 3: device specifications");
    println!("device             clock(MHz)  banks  SMs  TC/SM  FP16(TF)  FP64(TF)");
    for d in DeviceSpec::all_evaluated() {
        let fp64 = d
            .peak_fp64_tflops
            .map_or("N/A".into(), |x| format!("{x:.0}"));
        println!(
            "{:<18} {:>10} {:>6} {:>4} {:>6} {:>9.0} {fp64:>9}",
            d.name,
            d.boost_clock_mhz,
            d.smem_banks,
            d.num_sms,
            d.tensor_cores_per_sm,
            d.peak_fp16_tflops,
        );
    }
    println!("\nDerived O_tc (ops/cycle/tensor-core):");
    for d in DeviceSpec::all_evaluated() {
        for p in Precision::ALL_EVALUATED {
            if let Some(x) = d.ops_per_cycle_per_tc(p) {
                println!("  {:<18} {:>5}: {x:8.1}", d.name, p.label());
            }
        }
    }
    vec![]
}

/// Table 4 (programming APIs / native MMA shapes per vendor).
fn tab04_shapes() -> Vec<(String, Table)> {
    use kami_gpu_sim::{native_shape, Vendor};
    println!("Table 4: native MMA instruction shapes");
    for (vendor, name) in [
        (Vendor::Nvidia, "NVIDIA (CUDA mma)"),
        (Vendor::Amd, "AMD (HIP mma_sync)"),
        (Vendor::Intel, "Intel (SYCL joint_matrix_mad)"),
    ] {
        println!("{name}:");
        for prec in Precision::ALL_EVALUATED {
            if let Some(s) = native_shape(vendor, prec) {
                println!("  {:>5}: {}", prec.label(), s.label());
            }
        }
    }
    println!();
    vec![]
}

/// Fig 4(b): latency and bandwidth of the on-chip memory hierarchy.
fn fig04_hierarchy() -> Vec<(String, Table)> {
    println!("Fig 4(b): per-SM memory hierarchy (cycles / bytes-per-cycle)");
    println!(
        "{:<18} {:>8} {:>8} {:>10} {:>10}",
        "device", "L_reg", "L_sm", "B_sm", "B_gmem"
    );
    for d in DeviceSpec::all_evaluated() {
        println!(
            "{:<18} {:>8} {:>8} {:>10.1} {:>10.1}",
            d.name,
            d.reg_latency,
            d.smem_latency,
            d.smem_bytes_per_cycle(),
            d.gmem_bytes_per_cycle
        );
    }
    vec![]
}

/// Fig 8: the seven panels in the paper's order, each with its §5.2.1
/// speedup summary.
fn fig08_square_gemm() -> Vec<(String, Table)> {
    let (gh, rtx) = (device::gh200(), device::rtx5090());
    let (amd, intel) = (device::amd_7900xtx(), device::intel_max1100());
    let panels = [
        (&gh, Precision::Fp64),
        (&gh, Precision::Fp16),
        (&rtx, Precision::Tf32),
        (&rtx, Precision::Fp16),
        (&rtx, Precision::Fp8E4M3),
        (&amd, Precision::Fp16),
        (&intel, Precision::Fp16),
    ];
    let panels = panels.into_iter().enumerate();
    let panels = panels.map(|(i, (dev, prec))| (format!("fig08_panel{i}"), fig8_panel(dev, prec)));
    summarized(
        panels,
        &Algo::ALL.map(Algo::label),
        &["cuBLASDx", "CUTLASS", "SYCL-Bench"],
    )
}

/// Fig 14 with each algorithm's average actual/theoretical ratio.
fn fig14_registers_vs_theory() -> Vec<(String, Table)> {
    let shown = show("fig14_registers", fig14_registers());
    for l in Algo::ALL.map(Algo::label) {
        if let Some((avg, _)) = shown
            .1
            .speedup(&format!("{l} actual"), &format!("{l} theory"))
        {
            println!("{l}: actual/theoretical = {:.2}%", avg * 100.0);
        }
    }
    vec![shown]
}

/// Fig 15 for every algorithm on GH200 and the RTX 5090.
fn fig15_all() -> Vec<(String, Table)> {
    let mut shown = Vec::new();
    for dev in [device::gh200(), device::rtx5090()] {
        for algo in Algo::ALL {
            match fig15_cycles(&dev, algo) {
                Ok(t) => {
                    let algo = algo.label().to_lowercase().replace('-', "");
                    let dev = dev.name.to_lowercase().replace(' ', "_");
                    shown.push(show(format!("fig15_{algo}_{dev}"), t));
                }
                Err(e) => println!("skipped {} on {}: {e}", algo.label(), dev.name),
            }
        }
    }
    shown
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_natural_preset_is_always_a_warp_candidate() {
        for n in (16..=256).step_by(16) {
            for algo in Algo::ALL {
                assert!(warp_candidates(algo, n).contains(&square_warps(algo, n)));
            }
        }
    }

    #[test]
    fn experiment_slugs_are_unique() {
        let mut slugs: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
        slugs.sort_unstable();
        slugs.dedup();
        assert_eq!(slugs.len(), EXPERIMENTS.len());
    }

    #[test]
    fn only_selects_by_slug_prefix() {
        assert_eq!(experiments("").len(), EXPERIMENTS.len());
        let fig15 = experiments("fig15");
        assert!(!fig15.is_empty());
        assert!(fig15.iter().all(|e| e.0.starts_with("fig15")));
        let tables: Vec<&str> = experiments("tab").iter().map(|e| e.0).collect();
        assert_eq!(
            tables,
            ["tab03_devices", "tab04_shapes", "tab_onchip_usage"]
        );
        assert!(experiments("fig99").is_empty());
    }
}
