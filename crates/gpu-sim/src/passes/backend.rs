//! Backend selection for the execute pass of the three-pass pipeline.
//!
//! The plan and cost passes are pure analysis: they validate a kernel
//! and price its communication without touching matrix data. The
//! execute pass is the only consumer of [`GlobalMemory`](crate::GlobalMemory)
//! values — which makes its arithmetic swappable. [`BackendKind`] picks
//! the body of each MMA inside the one execute walk of
//! [`Engine::execute_with`](crate::Engine::execute_with); everything
//! else (the phase loop, every other op, every legality check, race
//! detection) and everything above the pass (cycle accounting, plan
//! caches, scheduling, serving) is backend-agnostic.
//!
//! * [`BackendKind::Sim`] — the reference body: k-slice extraction plus
//!   [`mma_fragment`](crate::tensor_core::mma_fragment), the same code
//!   [`Engine::run`](crate::engine::Engine::run), the interleaved
//!   oracle, runs.
//! * [`BackendKind::Native`] — the strided host microkernel of
//!   [`native`](super::native), accumulating in the same order with the
//!   same roundings, so the bits are identical.
//!
//! The contract every backend must honor (what `ExecParity` checks):
//! bit-identical global-buffer contents, identical global traffic
//! counters, and identical `SimError`s (same variant, same message,
//! same lowest-warp ordering) on every kernel.

use serde::{Deserialize, Serialize};

/// Which execution backend computes the numbers. Plan and cost passes
/// are unaffected by this choice; only the execute pass dispatches on
/// it. Defaults to [`BackendKind::Sim`], the reference interpreter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize)]
pub enum BackendKind {
    /// Reference MMA interpreter, the oracle's own arithmetic.
    #[default]
    Sim,
    /// Host-speed per-precision MMA microkernel, bit-identical to `Sim`.
    Native,
}

// Hand-written so configurations serialized before the backend seam
// existed still deserialize: the vendored serde hands `Null` for a
// missing field, which must resolve to the reference simulator.
impl Deserialize for BackendKind {
    fn from_value(v: &serde::Value) -> Result<Self, String> {
        match v {
            serde::Value::Null => Ok(BackendKind::Sim),
            serde::Value::String(s) => match s.as_str() {
                "Sim" => Ok(BackendKind::Sim),
                "Native" => Ok(BackendKind::Native),
                other => Err(format!("unknown variant `{other}` for BackendKind")),
            },
            _ => Err("expected a string for BackendKind".into()),
        }
    }
}

impl BackendKind {
    /// All backends, in conformance-sweep order.
    pub const ALL: [BackendKind; 2] = [BackendKind::Sim, BackendKind::Native];

    /// Stable lowercase label (CLI flags, bench JSON, metrics).
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::Sim => "sim",
            BackendKind::Native => "native",
        }
    }
}

impl std::str::FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "sim" => Ok(BackendKind::Sim),
            "native" => Ok(BackendKind::Native),
            other => Err(format!("unknown backend '{other}' (expected sim|native)")),
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_roundtrips_through_labels() {
        for kind in BackendKind::ALL {
            assert_eq!(kind.label().parse::<BackendKind>().unwrap(), kind);
        }
        assert!("cuda".parse::<BackendKind>().is_err());
    }

    #[test]
    fn default_is_sim() {
        assert_eq!(BackendKind::default(), BackendKind::Sim);
    }

    #[test]
    fn serde_is_stable() {
        let j = serde_json::to_string(&BackendKind::Native).unwrap();
        assert_eq!(j, "\"Native\"");
        assert_eq!(
            serde_json::from_str::<BackendKind>(&j).unwrap(),
            BackendKind::Native
        );
    }
}
