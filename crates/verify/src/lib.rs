//! kami-verify: a seeded differential / metamorphic cross-check harness
//! tying the three independent implementations of the KAMI cost story —
//! the cycle-level engine, the closed-form model (Formulas 1–12), and
//! the device-level scheduler — against each other and against exact
//! reference numerics.
//!
//! The harness generates random-but-reproducible cases over the full
//! cross product the repo supports (Table-3 device × algorithm
//! {1D, 2D, 2.5D, 3D, tall-skinny, skinny-wide} × precision × shape ×
//! α/β × sparsity × fused epilogue) and runs four checks per case:
//!
//! 1. **Numerics** — engine GEMM output vs [`kami_core::reference_gemm`]
//!    within a precision-derived tolerance.
//! 2. **Engine vs model** — measured communication cycles vs the paper's
//!    closed forms, exactly (per total *and* per stage), plus a bounded
//!    compute band.
//! 3. **Scheduler vs trace** — the makespan, per-SM busy cycles, and
//!    k-iteration conservation the scheduler reports vs the per-SM trace
//!    it emits.
//! 4. **Sparse vs dense** — SpMM/SpGEMM vs the densified dense path.
//!
//! Tall-skinny cells additionally hold the k-split path to a
//! recomposed chunk+tree oracle and the `model::skinny` fixup closed
//! form; epilogue draws hold `gemm_fused` to the unfused reference
//! and the `model::epilogue` delta forms (see [`checks`]).
//!
//! On mismatch the case is [shrunk](shrink::shrink) to a minimal
//! reproducer and rendered as a ready-to-paste regression test
//! ([`case::Case::reproducer`]).
//!
//! Entry points: [`checks::run_case`] for one case, [`sweep::sweep`] for
//! a full grid (the `verify_sweep` binary in kami-bench drives the
//! latter; `--quick` is the CI leg).

#![forbid(unsafe_code)]

pub mod case;
pub mod checks;
pub mod fleet;
pub mod served;
pub mod shrink;
pub mod sweep;

pub use case::{AlgoKind, Case, CaseAlgo, DeviceId, EpilogueKind};
pub use checks::{assert_case, run_case, CaseOutcome, CheckKind, Harness, Mismatch};
pub use fleet::{FleetReplay, FleetServedCase};
pub use served::{ServedCase, ServedReplay};
pub use shrink::shrink;
pub use sweep::{sweep, Failure, SweepConfig, SweepOutcome};
