//! The `Served` seam: replay a verify [`Case`] through the
//! [`kami_serve`] runtime and hold the service to the same standard as
//! a direct engine call.
//!
//! Two properties are checked:
//!
//! * **Bit-identity** — every served copy's output matrix must equal
//!   the direct `gemm` result *exactly* (`==` on the element slice, no
//!   tolerance). Coalescing, retries, and the degraded-serial fallback
//!   only share schedules and clocks; they must never touch numerics.
//! * **Conservation** — every submitted copy resolves exactly once,
//!   and the served flop total equals `copies × direct flops`: no work
//!   is dropped or duplicated across coalesced ticks, requeues
//!   included.
//!
//! The service's fault-injection hook (a perturbed server-level
//! [`CostConfig`] plus a tight deadline) drives the timeout → retry →
//! degraded-serial path; `tests/serve_runtime.rs` exercises that
//! end-to-end and asserts the numerics still match bit-for-bit.

use crate::case::{Case, CaseAlgo};
use crate::checks::{CaseOutcome, CheckKind, Harness, Mismatch};
use kami_core::{GemmRequest, GemmResult, KamiError, Op};
use kami_gpu_sim::{CostConfig, Matrix};
use kami_sched::CacheConfig;
use kami_serve::{Completed, Metrics, ServeRequest, Server, ServerConfig};

/// How to replay one case through the service.
#[derive(Debug, Clone)]
pub struct ServedCase {
    /// Identical copies to submit — they coalesce into one work pool.
    pub copies: usize,
    /// End-to-end deadline in simulated cycles, charged from admission
    /// across every retry (`None` = best effort).
    pub deadline_cycles: Option<f64>,
    /// Server-level cost override: the fault-injection hook. Inflated
    /// costs blow schedule makespans past the deadline while leaving
    /// numeric values untouched.
    pub server_cost: Option<CostConfig>,
    /// Deadline misses tolerated before the serial fallback.
    pub max_retries: u32,
    /// Base backoff in simulated cycles between retry attempts.
    pub backoff_cycles: f64,
    /// Submission rounds: each round submits `copies` and drains the
    /// queue before the next, so round 2 dispatches *after* round 1's
    /// observations have landed in the cache. 1 = the classic replay.
    pub rounds: usize,
    /// Plan-cache knobs for the server under test (budget, admission,
    /// feedback). Default = unbounded + no-feedback.
    pub cache: CacheConfig,
    /// "Reality" cost model ([`kami_serve::ServerConfig::true_cost`]):
    /// makes the server's execution disagree with its own model, which
    /// is what gives the feedback channel something to observe.
    pub true_cost: Option<CostConfig>,
}

impl Default for ServedCase {
    fn default() -> Self {
        ServedCase {
            copies: 3,
            deadline_cycles: None,
            server_cost: None,
            max_retries: 2,
            backoff_cycles: 64.0,
            rounds: 1,
            cache: CacheConfig::default(),
            true_cost: None,
        }
    }
}

/// The replay's evidence: every completion plus the direct result they
/// are all held against.
#[derive(Debug)]
pub struct ServedReplay {
    pub completions: Vec<Completed>,
    pub direct: GemmResult,
    pub metrics: Metrics,
}

impl ServedCase {
    /// Replay `case` through a fresh server. `Ok(None)` means the case
    /// is not servable on this cell (non-dense algorithm, or the
    /// configuration is infeasible for a direct call too).
    pub fn replay(&self, case: &Case, harness: &Harness) -> Result<Option<ServedReplay>, Mismatch> {
        let algo = match case.algo {
            CaseAlgo::Dense(algo) => algo,
            // Skinny cases serve through `GemmAuto`, the entry that
            // routes tall shapes onto the k-split path.
            CaseAlgo::Skinny { algo, .. } => algo,
            CaseAlgo::TwoHalfD { .. } => return Ok(None),
        };
        let device = case.device.spec();
        let cfg = harness.dense_config(case, algo);
        let a = Matrix::seeded_uniform(case.m, case.k, case.data_seed);
        let b = Matrix::seeded_uniform(case.k, case.n, case.data_seed.wrapping_add(1));

        // The request a non-served caller would build — epilogue
        // included, so the replay exercises the same coalesce keys and
        // fused kernels the service must keep distinct.
        let op = match case.algo {
            CaseAlgo::Skinny { .. } => Op::GemmAuto {
                a: a.clone(),
                b: b.clone(),
            },
            _ => Op::Gemm {
                a: a.clone(),
                b: b.clone(),
            },
        };
        let mut base = GemmRequest::from_config(op, &cfg);
        if let Some(kind) = case.epilogue {
            base = base.with_epilogue(kind.build(case.n, case.data_seed));
        }

        // The oracle: the very call a non-served user would make.
        let direct = match base.execute(&device).and_then(|r| r.into_single()) {
            Ok(res) => res,
            Err(KamiError::Sim(_)) | Err(KamiError::Unsupported { .. }) => return Ok(None),
            Err(e) => {
                return Err(Mismatch {
                    kind: CheckKind::Served,
                    detail: format!("direct request rejected a generated case: {e}"),
                })
            }
        };

        let server = Server::with_config(
            &device,
            ServerConfig {
                queue_capacity: self.copies.max(1),
                coalesce: true,
                max_retries: self.max_retries,
                backoff_cycles: self.backoff_cycles,
                cost: self.server_cost.clone(),
                cache: self.cache.clone(),
                true_cost: self.true_cost.clone(),
                ..ServerConfig::default()
            },
        );
        let mut tickets = Vec::with_capacity(self.copies * self.rounds.max(1));
        for _ in 0..self.rounds.max(1) {
            for _ in 0..self.copies {
                let mut req = ServeRequest::dense(base.clone());
                if let Some(d) = self.deadline_cycles {
                    req = req.with_deadline(d);
                }
                tickets.push(server.submit(req).map_err(|e| Mismatch {
                    kind: CheckKind::Served,
                    detail: format!("submit rejected within capacity: {e}"),
                })?);
            }
            server.drain();
        }
        server.shutdown_and_drain();

        let mut completions = Vec::with_capacity(tickets.len());
        for t in tickets {
            match t.wait() {
                Ok(done) => completions.push(done),
                Err(e) => {
                    return Err(Mismatch {
                        kind: CheckKind::Served,
                        detail: format!("served copy failed where direct call passed: {e}"),
                    })
                }
            }
        }
        Ok(Some(ServedReplay {
            completions,
            direct,
            metrics: server.metrics(),
        }))
    }
}

impl ServedReplay {
    /// Bit-identity + conservation (see module docs). Returns the
    /// mismatch story on the first violated property.
    pub fn check(&self, copies: usize) -> Result<(), Mismatch> {
        if self.completions.len() != copies {
            return Err(Mismatch {
                kind: CheckKind::Served,
                detail: format!(
                    "submitted {copies} copies, {} resolved — request conservation broken",
                    self.completions.len()
                ),
            });
        }
        for done in &self.completions {
            let got = match done
                .output
                .clone()
                .into_dense()
                .and_then(|r| r.into_single().map_err(kami_serve::ServeError::Core))
            {
                Ok(res) => res,
                Err(e) => {
                    return Err(Mismatch {
                        kind: CheckKind::Served,
                        detail: format!("served completion holds the wrong payload: {e}"),
                    })
                }
            };
            if got.c.as_slice() != self.direct.c.as_slice() {
                return Err(Mismatch {
                    kind: CheckKind::Served,
                    detail: format!(
                        "served copy {} (via {}, {} attempts) differs bit-wise from the \
                         direct engine result",
                        done.id,
                        done.via.label(),
                        done.attempts
                    ),
                });
            }
        }
        let served_flops: u64 = self
            .completions
            .iter()
            .map(|d| d.output.useful_flops())
            .sum();
        let want = self.direct.useful_flops * copies as u64;
        if served_flops != want {
            return Err(Mismatch {
                kind: CheckKind::Served,
                detail: format!(
                    "served flop total {served_flops} != copies x direct {want} — \
                     work conservation across coalesced ticks broken"
                ),
            });
        }
        Ok(())
    }
}

/// The `Served` cross-check as run by the case harness: a small
/// coalesced replay, held to bit-identity and conservation.
pub(crate) fn check_served(case: &Case, harness: &Harness) -> Result<CaseOutcome, Mismatch> {
    let served = ServedCase::default();
    match served.replay(case, harness)? {
        Some(replay) => {
            replay.check(served.copies)?;
            Ok(CaseOutcome::Pass)
        }
        None => Ok(CaseOutcome::Pass),
    }
}

/// The `Feedback` cross-check: replay on a server whose cache has the
/// observation channel on and whose execution runs 4x slower than its
/// model believes (`mma_efficiency: 0.25`). Round 2 dispatches after
/// round 1's observations land, so any correction-driven re-ranking is
/// live — and the payloads must still match the direct call bit-wise.
/// For plain dense cases (uniform pools) the channel must also have
/// recorded at least one observation, or the hook is dead wire.
pub(crate) fn check_feedback(case: &Case, harness: &Harness) -> Result<CaseOutcome, Mismatch> {
    let served = ServedCase {
        rounds: 2,
        cache: CacheConfig::default().with_feedback(),
        true_cost: Some(CostConfig {
            mma_efficiency: 0.25,
            ..CostConfig::default()
        }),
        ..ServedCase::default()
    };
    match served.replay(case, harness)? {
        Some(replay) => {
            replay
                .check(served.copies * served.rounds)
                .map_err(|m| Mismatch {
                    kind: CheckKind::Feedback,
                    detail: m.detail,
                })?;
            if matches!(case.algo, CaseAlgo::Dense(_))
                && replay.metrics.plan_cache.feedback_observations == 0
            {
                return Err(Mismatch {
                    kind: CheckKind::Feedback,
                    detail: "feedback-enabled replay on a mis-modeled server recorded zero \
                             observations — the channel is disconnected"
                        .into(),
                });
            }
            Ok(CaseOutcome::Pass)
        }
        None => Ok(CaseOutcome::Pass),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::{AlgoKind, DeviceId};
    use kami_gpu_sim::Precision;

    #[test]
    fn served_replay_matches_direct_bitwise() {
        let case = Case::generate(DeviceId::Gh200, AlgoKind::OneD, Precision::Fp16, 11);
        let harness = Harness::default();
        let served = ServedCase::default();
        let replay = served
            .replay(&case, &harness)
            .expect("replay must not mismatch")
            .expect("a generated 1D fp16 case is servable");
        replay.check(served.copies).expect("bit-identity");
        assert_eq!(replay.metrics.completed, served.copies as u64);
    }

    #[test]
    fn skinny_cases_replay_through_the_service() {
        let harness = Harness::default();
        let served = ServedCase::default();
        // Scan seeds for a tall-skinny case that carries an epilogue, so
        // the replay exercises the fused coalesce key end to end.
        let case = (0..200)
            .map(|s| Case::generate(DeviceId::Gh200, AlgoKind::Skinny, Precision::Fp16, s))
            .find(|c| c.epilogue.is_some())
            .expect("some skinny seed draws an epilogue");
        let replay = served
            .replay(&case, &harness)
            .expect("replay must not mismatch")
            .expect("a generated skinny fp16 case is servable");
        replay.check(served.copies).expect("bit-identity");
    }

    #[test]
    fn run_case_with_feedback_flag_passes_clean() {
        use kami_sched::PlanCache;
        let harness = Harness {
            feedback: true,
            ..Harness::default()
        };
        let case = Case::generate(DeviceId::Gh200, AlgoKind::TwoD, Precision::Fp16, 7);
        let plans = PlanCache::new();
        crate::checks::run_case(&case, &harness, &plans).expect("clean case must pass");
    }

    #[test]
    fn feedback_check_observes_and_stays_bit_identical() {
        let case = Case::generate(DeviceId::Gh200, AlgoKind::OneD, Precision::Fp16, 13);
        let harness = Harness::default();
        let served = ServedCase {
            rounds: 2,
            cache: CacheConfig::default().with_feedback(),
            true_cost: Some(CostConfig {
                mma_efficiency: 0.25,
                ..CostConfig::default()
            }),
            ..ServedCase::default()
        };
        let replay = served
            .replay(&case, &harness)
            .expect("replay must not mismatch")
            .expect("a generated 1D fp16 case is servable");
        replay
            .check(served.copies * served.rounds)
            .expect("feedback must not touch payloads");
        assert!(
            replay.metrics.plan_cache.feedback_observations >= 1,
            "mis-modeled server must record observations"
        );
    }

    #[test]
    fn run_case_with_serve_flag_passes_clean() {
        use kami_sched::PlanCache;
        let harness = Harness {
            serve: true,
            ..Harness::default()
        };
        let case = Case::generate(DeviceId::Gh200, AlgoKind::TwoD, Precision::Fp16, 3);
        let plans = PlanCache::new();
        crate::checks::run_case(&case, &harness, &plans).expect("clean case must pass");
    }
}
