//! Typed errors of the device-level scheduling layer.

use kami_core::KamiError;
use std::fmt;

/// Error placing a work stream on a device.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedError {
    /// The work stream had no items (or no nonzero iterations) to place.
    EmptyStream {
        /// Stream kind: `"dense"`, `"spmm"`, `"spgemm"`.
        kind: &'static str,
    },
    /// Stream-K was forced on a shape whose k-loop tunes to a single
    /// stage — there is nothing to split.
    SingleStageStreamK { m: usize, n: usize, k: usize },
    /// Skinny-K was forced on a shape outside the tall-skinny regime
    /// (`m,n ≤ 64`, deep k) — its tree fixup models the k-split path,
    /// which only those shapes run.
    NotSkinny { m: usize, n: usize, k: usize },
    /// Error from the block layer underneath (tuning, planning, or
    /// running the representative / numeric kernels).
    Core(KamiError),
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::EmptyStream { kind } => {
                write!(f, "cannot schedule an empty {kind} work stream")
            }
            SchedError::SingleStageStreamK { m, n, k } => write!(
                f,
                "stream-k needs a multi-stage k-loop; {m}x{n}x{k} tunes to a single stage"
            ),
            SchedError::NotSkinny { m, n, k } => write!(
                f,
                "skinny-k models the tall-skinny k-split path; {m}x{n}x{k} is not tall-skinny"
            ),
            SchedError::Core(e) => write!(f, "block layer error: {e}"),
        }
    }
}

impl std::error::Error for SchedError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SchedError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<KamiError> for SchedError {
    fn from(e: KamiError) -> Self {
        SchedError::Core(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source_chain() {
        let e = SchedError::from(KamiError::Unsupported {
            detail: "test".into(),
        });
        assert!(e.to_string().contains("block layer"));
        assert!(std::error::Error::source(&e).is_some());
        let empty = SchedError::EmptyStream { kind: "dense" };
        assert!(empty.to_string().contains("empty dense"));
        assert!(std::error::Error::source(&empty).is_none());
    }
}
