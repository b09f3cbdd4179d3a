//! Cycle accounting.
//!
//! The engine tallies, per barrier-delimited phase, the raw resource use
//! of the block (shared-memory bytes moved, tensor-core flops by
//! precision, global bytes, register copies); this module turns those
//! tallies into cycles with the exact semantics of the paper's model:
//!
//! * communication: `L_sm·[phase has a shared load] + W/(θ_w·B_sm) +
//!   R/(θ_r·B_sm)` — stores are fire-and-forget (store-buffer semantics),
//!   loads pay the latency, so one communication *stage* (store phase +
//!   load phase) is charged `L_sm` exactly once, matching Formulas 2/6/10.
//! * compute: `flops / (n_tc · O_tc)` — the block's p concurrent warp
//!   MMAs contend for the SM's `n_tc` tensor cores, which is the
//!   `p/n_tc · T_cp` term of Formulas 4/8/12.
//! * global: `L_gm·[phase has a global load] + bytes/B_gm`.
//!
//! Two composition modes: [`CostMode::Serial`] adds communication and
//! computation (the closed forms of §4), [`CostMode::Overlap`] takes their
//! max (the warp-scheduler interleaving §4.7 argues the hardware achieves).

use crate::device::DeviceSpec;
use crate::error::SimError;
use crate::precision::Precision;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// How communication and computation cycles combine within one phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum CostMode {
    /// Sum — the paper's closed-form analysis.
    #[default]
    Serial,
    /// `max(comm, compute)` — perfect warp-scheduler overlap.
    Overlap,
}

/// Tunable parameters of the cost model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CostConfig {
    pub mode: CostMode,
    /// Read bank-conflict factor `θ_r ∈ (0, 1]`.
    pub theta_r: f64,
    /// Write bank-conflict factor `θ_w ∈ (0, 1]`.
    pub theta_w: f64,
    /// Effective MMA issue efficiency ∈ (0, 1]: fraction of the peak
    /// tensor rate the kernel's instruction mix sustains. 1.0 models the
    /// paper's idealized formulas; ~0.62 reproduces the measured Hopper
    /// MMA efficiency of §5.6.2; baselines that run on CUDA cores or
    /// generic pipelines use lower values.
    pub mma_efficiency: f64,
}

impl Default for CostConfig {
    fn default() -> Self {
        CostConfig {
            mode: CostMode::Serial,
            theta_r: 1.0,
            theta_w: 1.0,
            mma_efficiency: 1.0,
        }
    }
}

impl CostConfig {
    pub fn overlap() -> Self {
        CostConfig {
            mode: CostMode::Overlap,
            ..Default::default()
        }
    }

    /// Scale the sustained MMA rate (see `mma_efficiency`).
    pub fn with_mma_efficiency(mut self, eff: f64) -> Self {
        assert!(eff > 0.0 && eff <= 1.0, "efficiency must be in (0, 1]");
        self.mma_efficiency = eff;
        self
    }
}

/// Raw per-phase resource tallies (filled by the engine).
#[derive(Debug, Clone, Default)]
pub struct PhaseTally {
    /// Bytes stored to shared memory by all warps this phase.
    pub smem_bytes_written: u64,
    /// Bytes loaded from shared memory by all warps this phase.
    pub smem_bytes_read: u64,
    /// Whether any warp performed a shared/meta *load* (pays `L_sm`).
    pub has_smem_load: bool,
    /// Tensor-core flops charged, by input precision (padded to MMA shape).
    pub flops_by_prec: BTreeMap<&'static str, (Precision, u64)>,
    /// Largest single-warp flop total this phase, by precision. A warp
    /// feeds one tensor core, so a phase can never finish faster than
    /// its busiest warp's MMAs on one core — this is what makes blocks
    /// with fewer warps than tensor cores slower (Fig 9).
    pub max_warp_flops: BTreeMap<&'static str, u64>,
    /// Global-memory bytes moved.
    pub gmem_bytes: u64,
    /// Whether any warp performed a global *load* (pays `L_gm`).
    pub has_gmem_load: bool,
    /// Count of intra-warp register copies (each charged `reg_latency`).
    pub reg_copies: u64,
}

impl PhaseTally {
    pub fn add_flops(&mut self, prec: Precision, flops: u64) {
        let e = self.flops_by_prec.entry(prec.label()).or_insert((prec, 0));
        e.1 += flops;
    }

    /// Record one warp's per-phase flop total for the busiest-warp bound.
    pub fn note_warp_flops(&mut self, prec: Precision, warp_total: u64) {
        let e = self.max_warp_flops.entry(prec.label()).or_insert(0);
        *e = (*e).max(warp_total);
    }

    pub fn total_flops(&self) -> u64 {
        self.flops_by_prec.values().map(|&(_, f)| f).sum()
    }
}

/// Cycle breakdown of one phase (or totals over all phases).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseCost {
    /// Shared-memory communication cycles (latency + bandwidth).
    pub comm: f64,
    /// Tensor-core computation cycles.
    pub compute: f64,
    /// Global-memory cycles.
    pub global: f64,
    /// Intra-warp register-copy cycles (the paper disregards these; they
    /// are tracked so the assumption can be checked).
    pub reg: f64,
}

impl PhaseCost {
    /// Cycles of this phase under `mode`.
    pub fn cycles(&self, mode: CostMode) -> f64 {
        match mode {
            CostMode::Serial => self.comm + self.compute + self.global + self.reg,
            CostMode::Overlap => self.comm.max(self.compute) + self.global + self.reg,
        }
    }

    pub fn accumulate(&mut self, other: &PhaseCost) {
        self.comm += other.comm;
        self.compute += other.compute;
        self.global += other.global;
        self.reg += other.reg;
    }
}

/// Convert a phase tally into cycles on `device`.
///
/// Fails with [`SimError::InvalidCostConfig`] unless `θ_r`, `θ_w` and
/// `mma_efficiency` are finite and in (0, 1]: they divide below, and
/// every cost path goes through here, so a zero or NaN factor can never
/// turn into non-finite cycles.
pub fn phase_cost(
    device: &DeviceSpec,
    cfg: &CostConfig,
    tally: &PhaseTally,
) -> Result<PhaseCost, SimError> {
    for (field, value) in [
        ("theta_r", cfg.theta_r),
        ("theta_w", cfg.theta_w),
        ("mma_efficiency", cfg.mma_efficiency),
    ] {
        // Written so NaN fails too.
        if !(value > 0.0 && value <= 1.0) {
            return Err(SimError::InvalidCostConfig { field, value });
        }
    }
    let b_sm = device.smem_bytes_per_cycle();
    let mut comm = 0.0;
    if tally.has_smem_load {
        comm += device.smem_latency as f64;
    }
    comm += tally.smem_bytes_written as f64 / (cfg.theta_w * b_sm);
    comm += tally.smem_bytes_read as f64 / (cfg.theta_r * b_sm);

    let mut compute = 0.0;
    for (label, &(prec, flops)) in &tally.flops_by_prec {
        let sm_ops =
            device
                .sm_ops_per_cycle(prec)
                .ok_or_else(|| SimError::UnsupportedPrecision {
                    device: device.name.to_string(),
                    precision: prec.label().to_string(),
                })?;
        let o_tc = sm_ops / f64::from(device.tensor_cores_per_sm);
        // All warps spread over n_tc tensor cores, but no faster than the
        // busiest warp on its single core.
        let spread = flops as f64 / sm_ops;
        let busiest = tally.max_warp_flops.get(label).copied().unwrap_or(0) as f64 / o_tc;
        compute += spread.max(busiest) / cfg.mma_efficiency;
    }

    let mut global = 0.0;
    if tally.has_gmem_load {
        global += device.gmem_latency as f64;
    }
    global += tally.gmem_bytes as f64 / device.gmem_bytes_per_cycle;

    let reg = tally.reg_copies as f64 * device.reg_latency as f64;

    Ok(PhaseCost {
        comm,
        compute,
        global,
        reg,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::gh200;

    #[test]
    fn paper_1d_worked_example() {
        // §4.3: p=2 warps, 8x8 FP64, se=8, L_sm=22, B_sm=128, θ=1.
        // Stage communication: write 256 B (one warp's B half: 4x8x8),
        // read 256 B (one other warp) -> T_cm = 22 + 2 + 2 = 26 cycles.
        let dev = gh200();
        let cfg = CostConfig::default();
        let mut t = PhaseTally {
            has_smem_load: true,
            smem_bytes_written: 256,
            smem_bytes_read: 256,
            ..Default::default()
        };
        // No compute in this check.
        t.reg_copies = 0;
        let c = phase_cost(&dev, &cfg, &t).unwrap();
        assert!((c.comm - 26.0).abs() < 1e-9, "comm = {}", c.comm);
    }

    #[test]
    fn store_only_phase_pays_no_latency() {
        let dev = gh200();
        let t = PhaseTally {
            smem_bytes_written: 128,
            ..Default::default()
        };
        let c = phase_cost(&dev, &CostConfig::default(), &t).unwrap();
        assert_eq!(c.comm, 1.0); // 128 B / 128 B-per-cycle, no L_sm
    }

    #[test]
    fn bank_conflict_factors_scale_bandwidth() {
        let dev = gh200();
        let cfg = CostConfig {
            theta_r: 0.5,
            theta_w: 0.25,
            ..Default::default()
        };
        let t = PhaseTally {
            smem_bytes_written: 128,
            smem_bytes_read: 128,
            has_smem_load: true,
            ..Default::default()
        };
        let c = phase_cost(&dev, &cfg, &t).unwrap();
        // 22 + 128/(0.25*128) + 128/(0.5*128) = 22 + 4 + 2.
        assert!((c.comm - 28.0).abs() < 1e-9);
    }

    #[test]
    fn compute_contends_for_all_tensor_cores() {
        let dev = gh200();
        let mut t = PhaseTally::default();
        t.add_flops(Precision::Fp64, 1_000_000);
        let c = phase_cost(&dev, &CostConfig::default(), &t).unwrap();
        let sm_ops = dev.sm_ops_per_cycle(Precision::Fp64).unwrap();
        assert!((c.compute - 1_000_000.0 / sm_ops).abs() < 1e-6);
    }

    #[test]
    fn unsupported_precision_is_an_error() {
        let dev = crate::device::rtx5090();
        let mut t = PhaseTally::default();
        t.add_flops(Precision::Fp64, 100);
        assert!(matches!(
            phase_cost(&dev, &CostConfig::default(), &t),
            Err(SimError::UnsupportedPrecision { .. })
        ));
    }

    #[test]
    fn single_warp_bounded_by_one_tensor_core() {
        let dev = gh200();
        let mut t = PhaseTally::default();
        t.add_flops(Precision::Fp16, 100_000);
        t.note_warp_flops(Precision::Fp16, 100_000); // one warp did it all
        let c = phase_cost(&dev, &CostConfig::default(), &t).unwrap();
        let o_tc = dev.ops_per_cycle_per_tc(Precision::Fp16).unwrap();
        assert!((c.compute - 100_000.0 / o_tc).abs() < 1e-6);
        // Balanced over >= n_tc warps: 4x faster.
        let mut t4 = PhaseTally::default();
        t4.add_flops(Precision::Fp16, 100_000);
        t4.note_warp_flops(Precision::Fp16, 25_000);
        let c4 = phase_cost(&dev, &CostConfig::default(), &t4).unwrap();
        assert!((c4.compute * 4.0 - c.compute).abs() < 1e-6);
    }

    #[test]
    fn mma_efficiency_scales_compute() {
        let dev = gh200();
        let mut t = PhaseTally::default();
        t.add_flops(Precision::Fp16, 100_000);
        let full = phase_cost(&dev, &CostConfig::default(), &t).unwrap();
        let half = phase_cost(&dev, &CostConfig::default().with_mma_efficiency(0.5), &t).unwrap();
        assert!((half.compute - 2.0 * full.compute).abs() < 1e-9);
    }

    #[test]
    fn out_of_domain_factors_are_typed_errors() {
        let dev = gh200();
        let t = PhaseTally::default();
        for (cfg, field) in [
            (
                CostConfig {
                    theta_r: 0.0,
                    ..Default::default()
                },
                "theta_r",
            ),
            (
                CostConfig {
                    theta_w: 1.5,
                    ..Default::default()
                },
                "theta_w",
            ),
            (
                CostConfig {
                    mma_efficiency: f64::NAN,
                    ..Default::default()
                },
                "mma_efficiency",
            ),
            (
                CostConfig {
                    theta_r: f64::INFINITY,
                    ..Default::default()
                },
                "theta_r",
            ),
        ] {
            match phase_cost(&dev, &cfg, &t) {
                Err(SimError::InvalidCostConfig { field: f, .. }) => assert_eq!(f, field),
                other => panic!("{field}: expected InvalidCostConfig, got {other:?}"),
            }
        }
        // The edges of (0, 1] stay valid.
        let edge = CostConfig {
            theta_r: 1.0,
            theta_w: f64::MIN_POSITIVE,
            ..Default::default()
        };
        assert!(phase_cost(&dev, &edge, &t).is_ok());
    }

    #[test]
    fn overlap_mode_takes_max() {
        let pc = PhaseCost {
            comm: 10.0,
            compute: 4.0,
            global: 1.0,
            reg: 0.5,
        };
        assert_eq!(pc.cycles(CostMode::Serial), 15.5);
        assert_eq!(pc.cycles(CostMode::Overlap), 11.5);
    }

    #[test]
    fn mixed_precision_flops_accumulate_separately() {
        let mut t = PhaseTally::default();
        t.add_flops(Precision::Fp16, 100);
        t.add_flops(Precision::Fp16, 50);
        t.add_flops(Precision::Fp64, 10);
        assert_eq!(t.total_flops(), 160);
        assert_eq!(t.flops_by_prec.len(), 2);
    }
}
