//! # kami-core
//!
//! KAMI: communication-avoiding GEMM within a single (simulated) GPU —
//! the paper's primary contribution (SC '25).
//!
//! The crate implements the 1D, 2D, and 3D CA block-level GEMM
//! algorithms of §4 on top of the [`kami_gpu_sim`] streaming-
//! multiprocessor simulator: tensor cores compute, registers hold the
//! operands, shared memory is the communication medium, and every run
//! returns cycle-accurate cost alongside the product.
//!
//! * [`gemm()`] / [`gemm_auto`] / [`gemm_padded`] — block-level GEMM
//!   (cuBLASDx-style interface, §4.1).
//! * [`batched_gemm`] — batched interface (cuBLAS/MAGMA-style, §5.4).
//! * [`lowrank_gemm`] — low-rank products (§5.3).
//! * [`model`] — the paper's clock-cycle theory (Formulas 1–12), the
//!   register-demand model (Fig 14), and the roofline model (Fig 3).
//!
//! ```
//! use kami_core::{gemm, Algo, KamiConfig};
//! use kami_gpu_sim::{device, Matrix, Precision};
//!
//! let dev = device::gh200();
//! let cfg = KamiConfig::new(Algo::OneD, Precision::Fp16);
//! let a = Matrix::seeded_uniform(64, 64, 1);
//! let b = Matrix::seeded_uniform(64, 64, 2);
//! let res = gemm(&dev, &cfg, &a, &b).unwrap();
//! println!("{}: {:.1} simulated cycles, {:.1} TFLOPS",
//!          cfg.algo.label(), res.report.cycles, res.block_tflops(&dev));
//! ```

#![forbid(unsafe_code)]

pub mod algo1d;
pub mod algo25d;
pub mod batched;
pub mod config;
pub mod epilogue;
pub mod error;
pub mod gemm;
pub mod grid;
pub mod layout;
pub mod lowrank;
pub mod model;
pub mod plan;
pub mod reference;
pub mod request;
pub mod tallskinny;
pub mod tune;

pub use algo25d::{gemm_25d, Kami25dConfig};
pub use batched::{
    batched_gemm, batched_gemm_varied, estimate_batched, lpt_makespan, schedule_cycles,
    BatchedResult,
};
pub use config::{tensor_path, Algo, KamiConfig};
pub use epilogue::Epilogue;
pub use error::KamiError;
pub use gemm::{
    gemm, gemm_auto, gemm_fused, gemm_legacy, gemm_padded, gemm_scaled, gemm_t, padded_dims,
    CStore, GemmResult, MatOp, FALLBACK_FRACTIONS,
};
pub use lowrank::{auto_warps, lowrank_gemm, lowrank_gemm_colsplit, MAX_LOW_RANK};
pub use plan::{gemm_cost, gemm_cost_auto, gemm_execute_plan_with, GemmPlan};
pub use reference::{reference_gemm, reference_gemm_f64};
pub use request::{GemmRequest, GemmResponse, Op};
pub use tallskinny::{
    combine_partials, gemm_skinny, is_tall_skinny, SKINNY_CHUNK_K, SKINNY_DIM_MAX, SKINNY_K_MIN,
};
pub use tune::{tune, SharedTuner, TunedConfig};
