//! # kami
//!
//! Facade crate of the KAMI workspace: communication-avoiding GEMM
//! within a single (simulated) GPU, reproducing Wang et al.,
//! *"KAMI: Communication-Avoiding General Matrix Multiplication within a
//! Single GPU"* (SC '25).
//!
//! Re-exports the four member crates:
//!
//! * [`sim`] — the streaming-multiprocessor simulator substrate
//!   (devices, precisions, warp programs, cycle engine);
//! * [`core`] — the KAMI 1D/2D/3D algorithms, batched/low-rank
//!   interfaces, and the clock-cycle analytic model;
//! * [`sparse`] — Z-Morton block-sparse storage, SpMM, SpGEMM;
//! * [`baselines`] — comparator strategies (cuBLASDx-, CUTLASS-,
//!   cuBLAS-, MAGMA-, SYCL-Bench-style) on the same simulator;
//! * [`sched`] — the device-level work-centric scheduler (data-parallel
//!   vs Stream-K decomposition, shared plan cache, per-SM accounting),
//!   including the nnz-weighted sparse path (`sched::sparse`) that
//!   splits SpMM/SpGEMM streams by nonzero k-iterations;
//! * [`serve`] — the batched GEMM service runtime: bounded admission
//!   queue, tick-based dispatch coalescing compatible requests into
//!   shared work pools, deadlines with retry and degraded-serial
//!   fallback, metrics with a Prometheus export and a merged device
//!   trace;
//! * [`verify`] — the seeded differential cross-check harness tying
//!   engine, closed-form model, scheduler, service runtime, and sparse
//!   kernels against each other, with case shrinking to minimal
//!   reproducers.
//!
//! Every layer's error type converts into the workspace-level
//! [`Error`] facade, so applications that mix layers can `?` across
//! them and walk one [`std::error::Error::source`] chain.
//!
//! See `examples/quickstart.rs` for a first program,
//! `examples/device_schedule.rs` for the device-level scheduler, and
//! `examples/serve_traffic.rs` for the service runtime.

#![forbid(unsafe_code)]

pub use kami_baselines as baselines;
pub use kami_core as core;
pub use kami_gpu_sim as sim;
pub use kami_sched as sched;
pub use kami_serve as serve;
pub use kami_sparse as sparse;
pub use kami_verify as verify;

pub mod error;
pub use error::{Error, Result};

/// The README's Rust snippets, compiled and run as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use crate::error::Error;
    pub use kami_core::{
        batched_gemm, gemm, gemm_auto, gemm_padded, lowrank_gemm, Algo, GemmRequest, GemmResponse,
        KamiConfig, KamiError, Op,
    };
    pub use kami_gpu_sim::{device, BackendKind, DeviceSpec, Matrix, Precision};
    pub use kami_sched::{
        spgemm_scheduled, spmm_scheduled, BlockWork, Decomposition, PlanCache, SchedError,
        ScheduleReport, Scheduled, Scheduler, SparseWork,
    };
    pub use kami_serve::{
        Completed, CompletionPath, FleetConfig, FleetServer, FleetSpec, FleetTicket, RoutingPolicy,
        ServeError, ServeOutput, ServeRequest, Server, ServerConfig, Ticket,
    };
    pub use kami_sparse::{spgemm, spmm::spmm, BlockOrder, BlockSparseMatrix, SparseError};
}
