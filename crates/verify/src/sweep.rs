//! Grid sweeps: the harness's batch mode.
//!
//! A sweep walks device × algorithm × precision cells, draws
//! `cases_per_cell` seeded cases per cell, runs [`run_case`] on each,
//! and shrinks any failure to a minimal reproducer. Everything derives
//! from the top-level seed: re-running with the same seed replays the
//! identical case list.

use crate::case::{AlgoKind, Case, DeviceId};
use crate::checks::{run_case, CaseOutcome, Harness, Mismatch};
use crate::shrink::shrink;
use kami_gpu_sim::{shape_for, Precision};
use kami_sched::PlanCache;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sweep dimensions and reproducibility seed.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    pub seed: u64,
    pub cases_per_cell: usize,
    /// Stop early after this many failures (each failure costs a
    /// shrink descent; a broken build does not need hundreds of them).
    pub max_failures: usize,
}

/// The CI profile (`verify_sweep --quick`): 5 cases in each of the 66
/// grid cells — 330 cases over all four Table-3 devices, all six
/// algorithm kinds (1D/2D/2.5D/3D plus the tall-skinny and skinny-wide
/// k-split classes), and 2–4 precisions per device.
pub fn quick() -> SweepConfig {
    SweepConfig {
        seed: 0x4b41_4d49, // "KAMI"
        cases_per_cell: 5,
        max_failures: 8,
    }
}

/// One sweep failure: the case as drawn, its shrunk minimal form, the
/// mismatch, and a paste-ready regression test.
#[derive(Debug, Clone)]
pub struct Failure {
    pub case: Case,
    pub shrunk: Case,
    pub mismatch: Mismatch,
    pub reproducer: String,
}

/// Aggregate sweep result.
#[derive(Debug, Clone, Default)]
pub struct SweepOutcome {
    /// Cases that ran to a verdict (pass or fail).
    pub cases_run: usize,
    /// Cases infeasible on their cell (register pressure, unsupported
    /// precision) — not bugs, but reported so silent shrinkage of the
    /// covered surface is visible.
    pub skipped: usize,
    /// `(cell label, skip reason)` per skipped case.
    pub skip_reasons: Vec<(String, String)>,
    pub failures: Vec<Failure>,
}

impl SweepOutcome {
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// Multi-line human summary (the `verify_sweep` binary prints it).
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "verify sweep: {} cases run, {} skipped, {} failed\n",
            self.cases_run,
            self.skipped,
            self.failures.len()
        );
        // Collapse skips into reason histograms — a sweep that silently
        // skipped a whole cell would otherwise read as full coverage.
        let mut counts: Vec<(String, usize)> = Vec::new();
        for (cell, reason) in &self.skip_reasons {
            let key = format!("{cell}: {reason}");
            match counts.iter_mut().find(|(k, _)| *k == key) {
                Some((_, n)) => *n += 1,
                None => counts.push((key, 1)),
            }
        }
        for (key, n) in counts {
            let _ = writeln!(out, "  skip x{n} {key}");
        }
        for f in &self.failures {
            let _ = writeln!(
                out,
                "FAIL {} -> shrunk to {}\n  {}\n--- reproducer ---\n{}",
                f.case.describe(),
                f.shrunk.describe(),
                f.mismatch,
                f.reproducer
            );
        }
        out
    }
}

/// Precisions exercised on `device`: every menu entry the device has a
/// native MMA shape for ([`shape_for`] — the same predicate the engine
/// enforces, so none of these cells skip wholesale). FP16/BF16 run
/// everywhere, TF32 on NVIDIA parts, FP64 on GH200 only.
pub fn device_precisions(device: DeviceId) -> Vec<Precision> {
    let spec = device.spec();
    [
        Precision::Fp16,
        Precision::Bf16,
        Precision::Tf32,
        Precision::Fp64,
    ]
    .into_iter()
    .filter(|&p| shape_for(&spec, p).is_some())
    .collect()
}

/// Run the full grid. A shared [`PlanCache`] carries scheduler plans
/// across cases, so the sweep also exercises cache-hit paths.
pub fn sweep(cfg: &SweepConfig, harness: &Harness) -> SweepOutcome {
    let plans = PlanCache::new();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut out = SweepOutcome::default();
    'grid: for device in DeviceId::ALL {
        for kind in AlgoKind::ALL {
            for precision in device_precisions(device) {
                for _ in 0..cfg.cases_per_cell {
                    let case_seed = rng.gen_range(0..u64::MAX);
                    let case = Case::generate(device, kind, precision, case_seed);
                    match run_case(&case, harness, &plans) {
                        Ok(CaseOutcome::Pass) => out.cases_run += 1,
                        Ok(CaseOutcome::Skip(reason)) => {
                            out.skipped += 1;
                            out.skip_reasons.push((
                                format!(
                                    "{} {} {}",
                                    device.label(),
                                    kind.label(),
                                    precision.label()
                                ),
                                reason,
                            ));
                        }
                        Err(mismatch) => {
                            out.cases_run += 1;
                            let (shrunk, min_mismatch) = shrink(&case, harness, &plans, &mismatch);
                            let reproducer = shrunk.reproducer(&format!("{min_mismatch}"));
                            out.failures.push(Failure {
                                case,
                                shrunk,
                                mismatch: min_mismatch,
                                reproducer,
                            });
                            if out.failures.len() >= cfg.max_failures {
                                break 'grid;
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_has_66_cells() {
        let cells: usize = DeviceId::ALL
            .iter()
            .map(|&d| device_precisions(d).len() * AlgoKind::ALL.len())
            .sum();
        assert_eq!(cells, 66, "4 devices x 6 algos x (2 to 4) precisions");
        for d in DeviceId::ALL {
            assert!(
                device_precisions(d).len() >= 2,
                "{} must sweep at least two precisions",
                d.label()
            );
        }
    }

    #[test]
    fn skip_histogram_collapses_repeat_reasons() {
        let out = SweepOutcome {
            cases_run: 1,
            skipped: 2,
            skip_reasons: vec![
                ("gh200 skinny fp16".into(), "regfile overflow".into()),
                ("gh200 skinny fp16".into(), "regfile overflow".into()),
            ],
            failures: Vec::new(),
        };
        let summary = out.summary();
        assert!(
            summary.contains("skip x2 gh200 skinny fp16: regfile overflow"),
            "{summary}"
        );
    }

    #[test]
    fn quick_profile_covers_at_least_200_cases() {
        let cfg = quick();
        let cells: usize = DeviceId::ALL
            .iter()
            .map(|&d| device_precisions(d).len() * AlgoKind::ALL.len())
            .sum();
        assert!(cells * cfg.cases_per_cell >= 200);
    }

    #[test]
    fn sweep_is_reproducible() {
        let cfg = SweepConfig {
            seed: 3,
            cases_per_cell: 1,
            max_failures: 1,
        };
        let harness = Harness::default();
        // Draw the same case list twice; identical summaries: every
        // count, skip reason, and failure's case, mismatch and
        // reproducer.
        let a = sweep(&cfg, &harness);
        let b = sweep(&cfg, &harness);
        assert_eq!(a.summary(), b.summary());
    }
}
