//! Configuration autotuning — §5.2.5 institutionalized.
//!
//! The paper: "the optimal register–shared memory ratio is
//! scale-dependent ... Accordingly, we preset ratios in our
//! implementation and allow user tuning to balance generality and
//! specialization." This module performs that tuning systematically: it
//! enumerates every valid `(algorithm, warp grid, smem fraction)` for a
//! problem, costs each candidate with the simulator's cost pass alone
//! (Formulas 1–12 need the shape, never the operand values), and
//! returns the fastest — with a [`SharedTuner`] cache so repeated shapes
//! (the batched and iterative-solver workloads of §3.1) tune once.

use crate::config::{Algo, KamiConfig};
use crate::error::KamiError;
use crate::plan::gemm_cost;
use kami_gpu_sim::{DeviceSpec, Precision};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Winning configuration for one problem shape.
#[derive(Debug, Clone)]
pub struct TunedConfig {
    pub cfg: KamiConfig,
    /// Block-level TFLOPS the winner achieved on the tuning run.
    pub block_tflops: f64,
    /// Simulated cycles of the winner.
    pub cycles: f64,
    /// Number of candidates evaluated.
    pub candidates_tried: usize,
}

/// All valid candidate configurations for an `m×n×k` problem.
pub fn candidates(m: usize, n: usize, k: usize, precision: Precision) -> Vec<KamiConfig> {
    let mut out = Vec::new();
    let fractions = [0.0, 0.25, 0.5, 0.75];
    // 1D: any warp count dividing m and k.
    for p in 1..=16usize {
        if m.is_multiple_of(p) && k.is_multiple_of(p) {
            for &f in &fractions {
                out.push(
                    KamiConfig::new(Algo::OneD, precision)
                        .with_warps(p)
                        .with_smem_fraction(f),
                );
            }
        }
    }
    // 2D: square grids.
    for q in 1..=4usize {
        if m.is_multiple_of(q) && n.is_multiple_of(q) && k.is_multiple_of(q) {
            for &f in &fractions {
                out.push(
                    KamiConfig::new(Algo::TwoD, precision)
                        .with_warps(q * q)
                        .with_smem_fraction(f),
                );
            }
        }
    }
    // 3D: cubes (q = 1 duplicates 1D/2D degenerate cases; start at 2).
    for q in 2..=3usize {
        if m.is_multiple_of(q) && n.is_multiple_of(q) && k.is_multiple_of(q * q) {
            for &f in &fractions {
                out.push(
                    KamiConfig::new(Algo::ThreeD, precision)
                        .with_warps(q * q * q)
                        .with_smem_fraction(f),
                );
            }
        }
    }
    out
}

/// Exhaustively tune one problem shape on `device`. Each candidate is
/// ranked by the cost pass alone ([`gemm_cost`]): no operands are
/// generated and no numerics run, since the cycle count of a dense
/// GEMM depends only on its shape class. The cost pass fails with
/// exactly the error a full run would, and reports exactly the cycles
/// a full run would, so the winner is the one a run-every-candidate
/// sweep would pick. Ties keep the earliest candidate.
pub fn tune(
    device: &DeviceSpec,
    m: usize,
    n: usize,
    k: usize,
    precision: Precision,
) -> Result<TunedConfig, KamiError> {
    let mut best: Option<TunedConfig> = None;
    let cands = candidates(m, n, k, precision);
    let tried = cands.len();
    for cfg in cands {
        let Ok(plan) = gemm_cost(device, &cfg, m, n, k) else {
            continue;
        };
        let t = plan.report.block_tflops(device, plan.useful_flops);
        if best.as_ref().is_none_or(|b| t > b.block_tflops) {
            best = Some(TunedConfig {
                cfg,
                block_tflops: t,
                cycles: plan.report.cycles,
                candidates_tried: tried,
            });
        }
    }
    best.ok_or_else(|| KamiError::Unsupported {
        detail: format!(
            "no configuration of {m}x{n}x{k} {} fits {}",
            precision.label(),
            device.name
        ),
    })
}

/// Thread-safe shape-keyed tuning cache: tune once per `(m, n, k,
/// precision)` per device, then dispatch every subsequent GEMM of that
/// shape through the winner. A device-level scheduler fans it out
/// across SM workers and a server shares it across every request it
/// executes. Lookups clone the winning [`TunedConfig`] out of the cache
/// (the configs are small) so no lock is held while a GEMM runs, and
/// hit / miss counters expose whether repeated shapes actually reuse
/// their plan — the property `kami-sched`'s plan cache asserts on.
#[derive(Default)]
pub struct SharedTuner {
    cache: Mutex<HashMap<TuneKey, TuneSlot>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

/// Cache key: device name + problem shape + precision.
pub type TuneKey = (String, usize, usize, usize, Precision);

/// One shape's winner, filled by the first lookup. Its lock is held
/// while the sweep runs, so concurrent first lookups of a shape wait
/// for that one sweep instead of each running their own.
type TuneSlot = Arc<Mutex<Option<TunedConfig>>>;

impl SharedTuner {
    pub fn new() -> Self {
        Self::default()
    }

    fn slots(&self) -> std::sync::MutexGuard<'_, HashMap<TuneKey, TuneSlot>> {
        self.cache.lock().expect("tuner cache poisoned")
    }

    /// Shapes tuned or being tuned (a shape that failed to tune does
    /// not count).
    pub fn len(&self) -> usize {
        self.slots().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from the cache without re-tuning.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to run the candidate sweep.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// The tuned configuration for a shape (tuning on first use).
    ///
    /// Single-flight: threads racing on a fresh shape wait for the
    /// first one's sweep and count hits, so a shape costs exactly one
    /// miss. A failed sweep is not cached; the next lookup retries.
    pub fn config_for(
        &self,
        device: &DeviceSpec,
        m: usize,
        n: usize,
        k: usize,
        precision: Precision,
    ) -> Result<TunedConfig, KamiError> {
        let key = (device.name.clone(), m, n, k, precision);
        let slot = Arc::clone(self.slots().entry(key.clone()).or_default());
        // A sweep that panicked left the slot empty; retry it.
        let mut winner = slot.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(hit) = &*winner {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(hit.clone());
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        match tune(device, m, n, k, precision) {
            Ok(tuned) => Ok(winner.insert(tuned).clone()),
            Err(e) => {
                drop(winner);
                let mut slots = self.slots();
                if slots.get(&key).is_some_and(|s| Arc::ptr_eq(s, &slot)) {
                    slots.remove(&key);
                }
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gemm;
    use kami_gpu_sim::device::gh200;
    use kami_gpu_sim::Matrix;

    #[test]
    fn candidate_enumeration_respects_divisibility() {
        let c = candidates(48, 48, 48, Precision::Fp16);
        assert!(c.iter().any(|c| c.algo == Algo::OneD && c.warps == 3));
        assert!(c.iter().any(|c| c.algo == Algo::TwoD && c.warps == 9));
        // q = 2 needs 4 | k = 48 ✓; q = 3 needs 9 | 48 ✗.
        assert!(c.iter().any(|c| c.algo == Algo::ThreeD && c.warps == 8));
        assert!(!c.iter().any(|c| c.algo == Algo::ThreeD && c.warps == 27));
        // 5 does not divide 48.
        assert!(!c.iter().any(|c| c.warps == 5));
    }

    #[test]
    fn tuner_beats_or_matches_every_fixed_preset() {
        let dev = gh200();
        let (m, n, k) = (64usize, 64usize, 64usize);
        let tuned = tune(&dev, m, n, k, Precision::Fp16).unwrap();
        assert!(tuned.candidates_tried > 10);
        let a = Matrix::seeded_uniform(m, k, 1);
        let b = Matrix::seeded_uniform(k, n, 2);
        for algo in Algo::ALL {
            let preset = KamiConfig::new(algo, Precision::Fp16);
            if let Ok(res) = gemm(&dev, &preset, &a, &b) {
                assert!(
                    tuned.block_tflops * 1.0001 >= res.block_tflops(&dev),
                    "{} preset beats the tuner",
                    algo.label()
                );
            }
        }
    }

    #[test]
    fn shared_tuner_reuses_and_computes_correctly() {
        let dev = gh200();
        let tuner = SharedTuner::new();
        let a = Matrix::seeded_uniform(32, 32, 5);
        let b = Matrix::seeded_uniform(32, 32, 6);
        // A GEMM through the cached winner for its shape.
        let tuned_gemm = |a: &Matrix, b: &Matrix| {
            let cfg = tuner
                .config_for(&dev, a.rows(), b.cols(), a.cols(), Precision::Fp64)?
                .cfg;
            gemm(&dev, &cfg, a, b)
        };
        let r1 = tuned_gemm(&a, &b).unwrap();
        assert_eq!(tuner.len(), 1);
        let r2 = tuned_gemm(&a, &b).unwrap();
        assert_eq!(tuner.len(), 1); // cache hit
        assert_eq!((tuner.hits(), tuner.misses()), (1, 1));
        assert_eq!(r1.c.max_abs_diff(&r2.c), 0.0);
        let want = crate::reference::reference_gemm(&a, &b, Precision::Fp64);
        assert!(r1.c.max_abs_diff(&want) < 1e-12);
        // A different shape adds an entry.
        let a2 = Matrix::seeded_uniform(16, 16, 7);
        let b2 = Matrix::seeded_uniform(16, 16, 8);
        tuned_gemm(&a2, &b2).unwrap();
        assert_eq!(tuner.len(), 2);
    }

    #[test]
    fn racing_first_lookups_tune_once() {
        let dev = gh200();
        let tuner = SharedTuner::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| tuner.config_for(&dev, 64, 64, 64, Precision::Fp16).unwrap());
            }
        });
        assert_eq!((tuner.hits(), tuner.misses()), (3, 1));
    }

    #[test]
    fn failed_tuning_is_not_cached() {
        // No candidate divides a prime-sided shape's 3D grid, and 1D/2D
        // at one warp overflow the register file at this size.
        let dev = gh200();
        let tuner = SharedTuner::new();
        for _ in 0..2 {
            assert!(tuner
                .config_for(&dev, 1021, 1021, 1021, Precision::Fp64)
                .is_err());
        }
        assert_eq!((tuner.hits(), tuner.misses(), tuner.len()), (0, 2, 0));
    }

    #[test]
    fn shared_tuner_counts_hits_across_threads() {
        let dev = gh200();
        let tuner = SharedTuner::new();
        let first = tuner.config_for(&dev, 32, 32, 32, Precision::Fp16).unwrap();
        assert_eq!((tuner.hits(), tuner.misses()), (0, 1));
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let again = tuner.config_for(&dev, 32, 32, 32, Precision::Fp16).unwrap();
                    assert_eq!(again.cfg.algo, first.cfg.algo);
                    assert_eq!(again.cfg.warps, first.cfg.warps);
                });
            }
        });
        assert_eq!((tuner.hits(), tuner.misses()), (4, 1));
        assert_eq!(tuner.len(), 1);
        // Matches an uncached sweep's winner.
        let single = tune(&dev, 32, 32, 32, Precision::Fp16).unwrap();
        assert_eq!(first.cfg.algo, single.cfg.algo);
        assert_eq!(first.cycles, single.cycles);
    }

    #[test]
    fn tuning_prefers_slicing_where_registers_demand_it() {
        // 128³ FP16 with few warps needs parking; the tuner should find
        // a configuration that actually runs.
        let dev = gh200();
        let tuned = tune(&dev, 128, 128, 128, Precision::Fp16).unwrap();
        assert!(tuned.block_tflops > 0.0);
        // The winner validates and runs.
        let a = Matrix::seeded_uniform(128, 128, 9);
        let b = Matrix::seeded_uniform(128, 128, 10);
        assert!(gemm(&dev, &tuned.cfg, &a, &b).is_ok());
    }

    /// The sweep `tune` ran before it ranked on the cost pass: seeded
    /// operands and a full plan→cost→execute run per candidate, ranked
    /// by the run's block TFLOPS. Returns the winner and the number of
    /// candidates tried, checking each candidate's cost pass against
    /// its full run on the way.
    fn reference_sweep(
        dev: &DeviceSpec,
        (m, n, k): (usize, usize, usize),
        precision: Precision,
        class: &str,
    ) -> (Option<TunedConfig>, usize) {
        let a = Matrix::seeded_uniform(m, k, 0x70E);
        let b = Matrix::seeded_uniform(k, n, 0x70F);
        let cands = candidates(m, n, k, precision);
        let tried = cands.len();
        let mut best: Option<TunedConfig> = None;
        for cfg in cands {
            let run = gemm(dev, &cfg, &a, &b);
            let cost = gemm_cost(dev, &cfg, m, n, k);
            assert_eq!(run.is_ok(), cost.is_ok(), "{class}: {cfg:?}");
            let (Ok(run), Ok(cost)) = (run, cost) else {
                continue;
            };
            assert_eq!(run.report.cycles, cost.report.cycles, "{class}: {cfg:?}");
            let t = run.block_tflops(dev);
            if best.as_ref().is_none_or(|b| t > b.block_tflops) {
                best = Some(TunedConfig {
                    cfg,
                    block_tflops: t,
                    cycles: run.report.cycles,
                    candidates_tried: tried,
                });
            }
        }
        (best, tried)
    }

    #[test]
    fn cost_only_tuning_matches_the_full_execute_sweep() {
        let shapes = [(16, 16, 16), (16, 32, 48), (64, 64, 64), (16, 16, 256)];
        // One thread per Table 3 device keeps the debug build quick.
        let per_device: Vec<(usize, usize)> = std::thread::scope(|s| {
            let workers: Vec<_> = DeviceSpec::all_evaluated()
                .into_iter()
                .map(|dev| {
                    s.spawn(move || {
                        let (mut classes, mut tried) = (0, 0);
                        for precision in Precision::ALL_EVALUATED {
                            for &(m, n, k) in &shapes {
                                let class =
                                    format!("{m}x{n}x{k} {} on {}", precision.label(), dev.name);
                                let (want, n_tried) =
                                    reference_sweep(&dev, (m, n, k), precision, &class);
                                tried += n_tried;
                                match (want, tune(&dev, m, n, k, precision)) {
                                    (Some(want), Ok(got)) => {
                                        classes += 1;
                                        assert_eq!(
                                            serde_json::to_string(&got.cfg).unwrap(),
                                            serde_json::to_string(&want.cfg).unwrap(),
                                            "{class}: winner differs"
                                        );
                                        assert_eq!(got.cycles, want.cycles, "{class}");
                                        assert_eq!(got.block_tflops, want.block_tflops, "{class}");
                                        assert_eq!(got.candidates_tried, n_tried, "{class}");
                                    }
                                    (None, Err(_)) => {}
                                    (want, got) => {
                                        panic!("{class}: reference {want:?} vs tuned {got:?}")
                                    }
                                }
                            }
                        }
                        (classes, tried)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let (classes, tried) = per_device
            .iter()
            .fold((0, 0), |(c, t), &(dc, dt)| (c + dc, t + dt));
        // 36 of the 64 classes fit at least one configuration.
        assert!(
            classes >= 32 && tried >= 2000,
            "{classes} classes, {tried} candidates"
        );
    }
}
