//! # kami-baselines
//!
//! The comparator GEMM strategies of the paper's evaluation — cuBLASDx,
//! CUTLASS, cuBLAS, MAGMA, and SYCL-Bench — re-implemented from their
//! documented kernel structures as warp programs on the *same* simulated
//! SM as KAMI, so every cycle comparison isolates the strategy
//! difference (residency, staging, padding, streaming) rather than
//! vendor tuning.
//!
//! | Module | Models | Strategy |
//! |--------|--------|----------|
//! | [`cublasdx`] | cuBLASDx v0.2.0 | block-level, all operands staged in shared memory, per-step re-reads |
//! | [`cutlass`] | CUTLASS v3.8.0 | fixed 128-wide tiles, double-buffered smem pipeline, padding waste |
//! | [`cublas`] | cuBLAS v12.8 | device-level generic tiles streamed from global memory |
//! | [`magma`] | MAGMA v2.9 | small-size-aware tiles, global streaming, CUDA-core rate |
//! | [`syclbench`] | SYCL-Bench | naive local-memory GEMM with C round-trips |

#![forbid(unsafe_code)]

pub mod common;
pub mod cublas;
pub mod cublasdx;
pub mod cutlass;
pub mod magma;
pub mod streaming;
pub mod syclbench;

pub use common::BaselineResult;
