//! What a client submits ([`ServeRequest`]) and what a completed
//! ticket carries back ([`ServeOutput`]).
//!
//! Dense work rides on the workspace-wide request type
//! ([`kami_core::GemmRequest`]) unchanged — anything buildable for a
//! direct `execute` call is servable, and the service executes it
//! through the very same engine entry points, so numerics are
//! bit-identical to the direct call. Sparse workloads (SpMM / SpGEMM)
//! carry their operands explicitly, since block-sparse structure cannot
//! be coalesced across requests.

use crate::error::ServeError;
use kami_core::{GemmRequest, GemmResponse, KamiConfig, Op};
use kami_gpu_sim::{DeviceSpec, Matrix, Precision};
use kami_sparse::spgemm::SpgemmResult;
use kami_sparse::spmm::SpmmResult;
use kami_sparse::BlockSparseMatrix;

/// The `(m, n, k, precision, epilogue fingerprint)` class compatible
/// dense requests coalesce under — the shape identity
/// [`kami_sched::PlanCache`] tunes per, plus the fused-epilogue
/// fingerprint (0 = none): requests differing only in epilogue compute
/// different functions and must never share a group.
pub type CoalesceKey = (usize, usize, usize, Precision, u64);

/// The work a request asks the service to perform.
#[derive(Debug, Clone)]
pub enum Workload {
    /// Any dense request the workspace API can express (single, auto,
    /// padded, 2.5D, batched, low-rank, scaled epilogues).
    Dense(GemmRequest),
    /// `C = A·B` with block-sparse `A` and dense `B`.
    Spmm {
        a: BlockSparseMatrix,
        b: Matrix,
        cfg: KamiConfig,
    },
    /// `C = A·B` with both operands block-sparse (two-phase SpGEMM).
    Spgemm {
        a: BlockSparseMatrix,
        b: BlockSparseMatrix,
        cfg: KamiConfig,
    },
}

impl Workload {
    pub fn label(&self) -> &'static str {
        match self {
            Workload::Dense(r) => r.op.label(),
            Workload::Spmm { .. } => "spmm",
            Workload::Spgemm { .. } => "spgemm",
        }
    }
}

/// One service request: a workload plus service-level options.
#[derive(Debug, Clone)]
pub struct ServeRequest {
    pub workload: Workload,
    /// End-to-end simulated-cycle budget, measured from the clock at
    /// admission — retries and their backoff parking all spend this
    /// same budget. `None` = no deadline.
    pub deadline_cycles: Option<f64>,
    /// Fleet placement constraint: when set, the request may only land
    /// on replicas whose [`DeviceSpec::name`] matches exactly. Ignored
    /// by single-device servers (they are their own placement).
    pub device_affinity: Option<String>,
}

impl ServeRequest {
    /// Serve a dense request (no deadline; see
    /// [`ServeRequest::with_deadline`]).
    pub fn dense(request: GemmRequest) -> Self {
        ServeRequest {
            workload: Workload::Dense(request),
            deadline_cycles: None,
            device_affinity: None,
        }
    }

    /// Serve a plain `C = A·B` at the given precision (autotuned).
    pub fn gemm(a: Matrix, b: Matrix, precision: Precision) -> Self {
        Self::dense(GemmRequest::gemm_auto(a, b).precision(precision))
    }

    /// Serve an SpMM product.
    pub fn spmm(a: BlockSparseMatrix, b: Matrix, cfg: KamiConfig) -> Self {
        ServeRequest {
            workload: Workload::Spmm { a, b, cfg },
            deadline_cycles: None,
            device_affinity: None,
        }
    }

    /// Serve an SpGEMM product.
    pub fn spgemm(a: BlockSparseMatrix, b: BlockSparseMatrix, cfg: KamiConfig) -> Self {
        ServeRequest {
            workload: Workload::Spgemm { a, b, cfg },
            deadline_cycles: None,
            device_affinity: None,
        }
    }

    /// Set the end-to-end deadline in simulated cycles (charged from
    /// admission, across every retry).
    pub fn with_deadline(mut self, cycles: f64) -> Self {
        self.deadline_cycles = Some(cycles);
        self
    }

    /// Pin fleet placement to device class `name` (a
    /// [`DeviceSpec::name`], e.g. `"GH200"`). The fleet router only
    /// considers replicas of that class; if none is eligible the
    /// submission is refused rather than placed elsewhere.
    pub fn with_affinity(mut self, name: impl Into<String>) -> Self {
        self.device_affinity = Some(name.into());
        self
    }

    /// The key compatible requests coalesce under: same shape class,
    /// precision, and fused epilogue share one Stream-K work pool.
    /// `None` means the request always dispatches as its own group
    /// (sparse structure, batched and decomposed dense ops are already
    /// device-scale on their own).
    pub fn coalesce_key(&self) -> Option<CoalesceKey> {
        match &self.workload {
            Workload::Dense(r) => match &r.op {
                Op::Gemm { .. } | Op::GemmAuto { .. } | Op::GemmPadded { .. } => {
                    let (m, n, k) = r.shape();
                    Some((m, n, k, r.precision, r.epilogue_fingerprint()))
                }
                _ => None,
            },
            _ => None,
        }
    }

    /// The dense scheduler work items this request contributes to a
    /// dispatch group's pool — one per GEMM (batched ops contribute one
    /// per pair). Sparse workloads schedule through the nnz-weighted
    /// sparse path instead and contribute none here.
    pub fn work_items(&self) -> Vec<kami_sched::WorkItem> {
        match &self.workload {
            Workload::Dense(r) => match &r.op {
                Op::Batched { pairs, .. } => pairs
                    .iter()
                    .map(|(a, b)| {
                        kami_sched::WorkItem::new(a.rows(), b.cols(), a.cols(), r.precision)
                    })
                    .collect(),
                _ => {
                    let (m, n, k) = r.shape();
                    vec![kami_sched::WorkItem::new(m, n, k, r.precision)]
                }
            },
            Workload::Spmm { .. } | Workload::Spgemm { .. } => Vec::new(),
        }
    }

    /// Device blocks this request contributes to its group's work pool.
    pub fn block_count(&self) -> usize {
        match &self.workload {
            Workload::Dense(r) => r.block_count(),
            Workload::Spmm { a, .. } => a.nnz_blocks().max(1),
            Workload::Spgemm { a, .. } => a.nnz_blocks().max(1),
        }
    }

    /// Execute the workload's numerics directly on `device` — the exact
    /// engine calls a non-served caller would make.
    pub fn execute(&self, device: &DeviceSpec) -> Result<ServeOutput, ServeError> {
        match &self.workload {
            Workload::Dense(r) => Ok(ServeOutput::Dense(r.execute(device)?)),
            Workload::Spmm { a, b, cfg } => Ok(ServeOutput::Spmm(
                kami_sparse::spmm(device, cfg, a, b).map_err(ServeError::Core)?,
            )),
            Workload::Spgemm { a, b, cfg } => Ok(ServeOutput::Spgemm(
                kami_sparse::spgemm(device, cfg, a, b).map_err(ServeError::Core)?,
            )),
        }
    }
}

/// The numeric payload of a completed request.
#[derive(Debug, Clone)]
pub enum ServeOutput {
    Dense(GemmResponse),
    Spmm(SpmmResult),
    Spgemm(SpgemmResult),
}

impl ServeOutput {
    pub fn label(&self) -> &'static str {
        match self {
            ServeOutput::Dense(_) => "dense",
            ServeOutput::Spmm(_) => "spmm",
            ServeOutput::Spgemm(_) => "spgemm",
        }
    }

    /// Engine cycles of a dedicated (unshared) run of this workload —
    /// the cost the degraded serial fallback charges.
    pub fn serial_cycles(&self) -> f64 {
        match self {
            ServeOutput::Dense(r) => r.cycles(),
            ServeOutput::Spmm(r) => r.report.cycles,
            ServeOutput::Spgemm(r) => r.report.cycles,
        }
    }

    pub fn useful_flops(&self) -> u64 {
        match self {
            ServeOutput::Dense(r) => r.useful_flops(),
            ServeOutput::Spmm(r) => r.useful_flops,
            ServeOutput::Spgemm(r) => r.useful_flops,
        }
    }

    pub fn into_dense(self) -> Result<GemmResponse, ServeError> {
        match self {
            ServeOutput::Dense(r) => Ok(r),
            other => Err(ServeError::WrongKind {
                expected: "dense",
                got: other.label(),
            }),
        }
    }

    pub fn into_spmm(self) -> Result<SpmmResult, ServeError> {
        match self {
            ServeOutput::Spmm(r) => Ok(r),
            other => Err(ServeError::WrongKind {
                expected: "spmm",
                got: other.label(),
            }),
        }
    }

    pub fn into_spgemm(self) -> Result<SpgemmResult, ServeError> {
        match self {
            ServeOutput::Spgemm(r) => Ok(r),
            other => Err(ServeError::WrongKind {
                expected: "spgemm",
                got: other.label(),
            }),
        }
    }
}
