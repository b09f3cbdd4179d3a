//! Simulation errors: every way a block kernel can be malformed or exceed
//! the device's resources.

use std::fmt;

/// Error produced while validating or executing a block kernel.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The block has no warps or more warps than the device allows.
    BadWarpCount { warps: usize, max: usize },
    /// Warps disagree on the number of barriers — deadlock on hardware.
    BarrierMismatch {
        warp: usize,
        phases: usize,
        expected: usize,
    },
    /// A fragment was read before any write.
    UninitializedFragment { warp: usize, frag: String },
    /// MMA operand shapes are incompatible.
    ShapeMismatch { detail: String },
    /// Fragment ids out of range or slice out of fragment bounds.
    BadOperand { detail: String },
    /// Shared-memory footprint exceeds the SM's capacity.
    SharedMemoryOverflow { detail: String },
    /// Shared-memory misuse (uninitialized read, element-size mismatch).
    SharedMemoryFault { warp: usize, detail: String },
    /// A same-phase cross-warp read/write overlap on shared memory —
    /// a data race that `__syncthreads()` should have separated.
    SharedMemoryHazard { detail: String },
    /// Register demand exceeds the per-thread architectural limit.
    RegisterOverflow {
        warp: usize,
        needed: u32,
        limit: u32,
    },
    /// The device has no tensor path at the requested precision.
    UnsupportedPrecision { device: String, precision: String },
    /// A [`CostConfig`](crate::cost::CostConfig) factor (`theta_r`,
    /// `theta_w` or `mma_efficiency`) is not finite or not in (0, 1].
    InvalidCostConfig { field: &'static str, value: f64 },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::BadWarpCount { warps, max } => {
                write!(f, "bad warp count {warps} (device max {max})")
            }
            SimError::BarrierMismatch {
                warp,
                phases,
                expected,
            } => write!(
                f,
                "warp {warp} reaches {phases} phases but the block expects {expected} \
                 (unbalanced __syncthreads would deadlock)"
            ),
            SimError::UninitializedFragment { warp, frag } => {
                write!(f, "warp {warp} reads uninitialized fragment '{frag}'")
            }
            SimError::ShapeMismatch { detail } => write!(f, "MMA shape mismatch: {detail}"),
            SimError::BadOperand { detail } => write!(f, "bad operand: {detail}"),
            SimError::SharedMemoryOverflow { detail } => {
                write!(f, "shared memory overflow: {detail}")
            }
            SimError::SharedMemoryFault { warp, detail } => {
                write!(f, "shared memory fault in warp {warp}: {detail}")
            }
            SimError::SharedMemoryHazard { detail } => {
                write!(f, "shared memory race: {detail}")
            }
            SimError::RegisterOverflow {
                warp,
                needed,
                limit,
            } => write!(
                f,
                "warp {warp} needs {needed} registers/thread, limit is {limit} \
                 (use k-slicing to spill to shared memory, §4.7)"
            ),
            SimError::UnsupportedPrecision { device, precision } => {
                write!(f, "{device} has no tensor path for {precision}")
            }
            SimError::InvalidCostConfig { field, value } => {
                write!(f, "cost parameter {field} = {value} is not in (0, 1]")
            }
        }
    }
}

impl std::error::Error for SimError {}
