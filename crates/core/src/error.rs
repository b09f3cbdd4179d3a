//! Errors of the KAMI block-GEMM layer.

use kami_gpu_sim::SimError;
use std::fmt;

/// Error building or running a KAMI GEMM.
#[derive(Debug, Clone, PartialEq)]
pub enum KamiError {
    /// Warp count incompatible with the algorithm (2D needs a perfect
    /// square, 3D a perfect cube, all need ≥ 1).
    BadWarpCount { algo: &'static str, warps: usize },
    /// Matrix dimensions not divisible by the partition grid.
    Indivisible { detail: String },
    /// Operand shapes inconsistent (A is m×k, B must be k×n).
    ShapeMismatch { detail: String },
    /// `smem_fraction` outside `[0, 1)`.
    BadSliceFraction { fraction: f64 },
    /// The device cannot run this configuration (no tensor path, too many
    /// warps, ...).
    Unsupported { detail: String },
    /// Error surfaced by the simulator while executing the kernel.
    Sim(SimError),
}

impl fmt::Display for KamiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KamiError::BadWarpCount { algo, warps } => {
                write!(f, "{algo} cannot run with {warps} warps")
            }
            KamiError::Indivisible { detail } => write!(f, "indivisible partition: {detail}"),
            KamiError::ShapeMismatch { detail } => write!(f, "shape mismatch: {detail}"),
            KamiError::BadSliceFraction { fraction } => {
                write!(f, "smem_fraction {fraction} outside [0, 1)")
            }
            KamiError::Unsupported { detail } => write!(f, "unsupported configuration: {detail}"),
            KamiError::Sim(e) => write!(f, "simulation error: {e}"),
        }
    }
}

impl std::error::Error for KamiError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            KamiError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for KamiError {
    fn from(e: SimError) -> Self {
        KamiError::Sim(e)
    }
}
