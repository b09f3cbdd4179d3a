//! # kami-gpu-sim
//!
//! Functional + cycle-accounted simulator of one GPU streaming
//! multiprocessor, built as the hardware substrate for the KAMI
//! communication-avoiding GEMM reproduction (SC '25).
//!
//! The simulator models exactly the resources KAMI's theory is stated
//! over (paper §3.2, §4, Table 2):
//!
//! * **warps** executing SPMD [`program::WarpProgram`]s with
//!   `__syncthreads()` barriers,
//! * **register files** holding matrix [`fragment`]s (with live-range
//!   analysis reproducing compiler register reuse),
//! * **banked shared memory** as the communication medium (latency
//!   `L_sm`, bandwidth `B_sm`, bank-conflict factors `θ_r`/`θ_w`),
//! * **tensor cores** with the vendor instruction shapes of Table 4 and
//!   true precision emulation (FP64/TF32/FP16/FP8-E4M3),
//! * **global memory** with HBM-class latency and per-SM bandwidth.
//!
//! Kernels execute *functionally* (values really move and tensor cores
//! really multiply at the requested precision) while every phase is
//! charged cycles under the paper's cost semantics, so an
//! [`report::ExecutionReport`] is simultaneously a correctness witness
//! and a performance measurement.
//!
//! ```
//! use kami_gpu_sim::{device, Engine, GlobalMemory, Matrix, Precision, BlockKernel};
//!
//! let dev = device::gh200();
//! let mut gmem = GlobalMemory::new();
//! let a = Matrix::seeded_uniform(16, 16, 1);
//! let b = Matrix::seeded_uniform(16, 16, 2);
//! let ab = gmem.upload("A", &a, Precision::Fp16);
//! let bb = gmem.upload("B", &b, Precision::Fp16);
//! let cb = gmem.alloc_zeroed("C", 16, 16, Precision::Fp32);
//!
//! let kernel = BlockKernel::spmd(1, |_, w| {
//!     let fa = w.frag("A", 16, 16, Precision::Fp16);
//!     let fb = w.frag("B", 16, 16, Precision::Fp16);
//!     let fc = w.frag("C", 16, 16, Precision::Fp32);
//!     w.global_load(fa, ab, 0, 0);
//!     w.global_load(fb, bb, 0, 0);
//!     w.zero_acc(fc);
//!     w.mma(fc, fa, fb);
//!     w.global_store(fc, cb, 0, 0);
//! });
//!
//! let report = Engine::new(&dev).run(&kernel, &mut gmem).unwrap();
//! assert!(report.cycles > 0.0);
//! ```

#![forbid(unsafe_code)]

pub mod cost;
pub mod device;
pub mod engine;
pub mod error;
pub mod fragment;
pub mod matrix;
pub mod memory;
pub mod occupancy;
pub mod passes;
pub mod precision;
pub mod program;
pub mod report;
pub mod tensor_core;
pub mod trace;

pub use cost::{CostConfig, CostMode, PhaseCost};
pub use device::{DeviceSpec, Vendor};
pub use engine::Engine;
pub use error::SimError;
pub use fragment::{FragDecl, FragId};
pub use matrix::Matrix;
pub use memory::global::{BufferId, GlobalMemory, GmemLayout};
pub use memory::regfile::RegisterUsage;
pub use occupancy::{
    analyze as analyze_occupancy, analyze_on_chip as analyze_occupancy_on_chip,
    analyze_stream as analyze_occupancy_stream, Limiter, Occupancy, StreamSteady,
};
pub use passes::{BackendKind, PlannedKernel, RunArtifacts, RunOptions};
pub use precision::Precision;
pub use program::{gelu, BlockKernel, Op, UnaryFunc, WarpProgram};
pub use report::ExecutionReport;
pub use tensor_core::{native_shape, shape_for, MmaShape};
pub use trace::{Trace, TraceEvent, TraceKind};
