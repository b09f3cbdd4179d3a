//! # kami-sched
//!
//! Device-level work-centric scheduler: the layer between KAMI's
//! single-block kernels ([`kami_core`]) and a whole simulated GPU.
//!
//! The paper evaluates block-level algorithms by launching 16 384
//! concurrent thread blocks; this crate models that launch explicitly.
//! A [`BlockWork`] stream (uniform batches, ragged batches, sparse
//! SpMM/SpGEMM block lists, or the synthetic paper workload) is placed
//! across every SM of a [`kami_gpu_sim::DeviceSpec`]:
//!
//! * residency and steady-state block cost come from
//!   [`kami_gpu_sim::occupancy::analyze`],
//! * per-shape winning configurations come from the shared
//!   [`PlanCache`] (built on [`kami_core::tune::SharedTuner`]) and are
//!   reused across launches without re-tuning,
//! * the stream is decomposed data-parallel or Stream-K-style
//!   (k-loop splitting with a fixup/reduction pass), whichever the
//!   model favors for the shape and count,
//! * per-SM accounting fans out across worker threads and merges into
//!   a [`ScheduleReport`] (makespan, utilization, tail imbalance,
//!   achieved TFLOPS) plus an optional device-level Perfetto trace.
//!
//! Sparse streams get their own nnz-weighted path ([`sparse`]): a
//! [`SparseWork`] stream derives per-output-block nonzero iteration
//! counts from the BSR structure (or the SpGEMM symbolic phase) and is
//! split by *nonzero* k-iterations — Stream-K over the ragged iteration
//! space, with a weighted-LPT fallback for pathological skew.
//!
//! ```
//! use kami_sched::{BlockWork, Decomposition, PlanCache, Scheduler};
//! use kami_gpu_sim::{device, Precision};
//!
//! let dev = device::gh200();
//! let plans = PlanCache::new();
//! let work = BlockWork::uniform(64, 64, 64, Precision::Fp16, 1024);
//! let report = Scheduler::new(&dev).run(&work, &plans).unwrap();
//! println!("{}: {:.0} cycles, {:.1} TFLOPS ({})",
//!          report.device_name, report.makespan_cycles,
//!          report.achieved_tflops, report.decomposition.label());
//! ```

#![forbid(unsafe_code)]

pub mod cache;
pub mod error;
pub mod plan;
pub mod schedule;
pub mod scheduled;
pub mod sparse;
pub mod work;

pub use cache::{
    AdmissionPolicy, BoundedCache, CacheConfig, CacheCounters, CacheWeight, FeedbackConfig,
    RatioHistogram, RATIO_BUCKETS,
};
pub use error::SchedError;
pub use plan::{BlockCost, PlanCache, PlanCacheStats, PlanEntry};
pub use schedule::{
    estimate_batched_device, Decomposition, SchedConfig, ScheduleReport, Scheduler, SmStats,
};
pub use scheduled::{Scheduled, ScheduledSpgemm, ScheduledSpmm};
pub use sparse::{
    spgemm_scheduled, spmm_scheduled, SparseCost, SparseKind, SparseScheduleReport, SparseWork,
    SparseWorkItem,
};
pub use work::{BlockWork, WorkItem, PAPER_BLOCK_COUNT};
