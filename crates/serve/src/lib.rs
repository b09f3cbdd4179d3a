//! # kami-serve
//!
//! An async batched GEMM *service* runtime over the simulated device:
//! multiple producer threads submit [`ServeRequest`]s — dense
//! 1D/2D/2.5D/3D products via the workspace-wide
//! [`GemmRequest`](kami_core::GemmRequest), batched and low-rank
//! variants, SpMM and SpGEMM — into a bounded admission queue and get
//! back [`Ticket`]s that resolve to [`Completed`] results.
//!
//! A dispatcher drains the queue in **ticks** on a simulated device
//! clock. Each tick coalesces compatible dense requests (same
//! `m×n×k` shape class, precision, and fused epilogue) into one
//! [`kami_sched`] work pool, so many small independent GEMMs share the
//! device the way one Stream-K launch would, instead of serializing
//! one kernel at a time.
//! Numerics are produced by the same engine entry points a direct
//! caller uses, so served results are **bit-identical** to unserved
//! ones.
//!
//! Service semantics:
//!
//! * **Sharded admission** — `submit` stripes over per-shard locked
//!   sub-queues (home shard by producer thread, failover to siblings),
//!   payloads move into `Arc`'d storage at admission, and tickets
//!   resolve through a per-ticket `Mutex` + `Condvar` one-shot, so
//!   neither admission nor completion contends on the dispatcher's state
//!   lock.
//! * **Backpressure** — the global admission bound is atomic;
//!   submissions beyond capacity bounce with
//!   [`ServeError::QueueFull`]. Parked-in-backoff retries are already
//!   admitted and exempt from the bound.
//! * **Deadlines** — each request may carry an *end-to-end* budget in
//!   simulated cycles, charged from admission across every retry; a
//!   missed deadline requeues with exponential backoff, and once
//!   retries are exhausted the request completes via a *degraded
//!   serial* replay rather than being dropped.
//! * **Graceful drain** — `shutdown()` stops admission,
//!   `shutdown_and_drain()` finishes everything already queued.
//! * **Observability** — per-request and per-tick metrics
//!   ([`Metrics`]), completion-latency percentiles via a fixed-bucket
//!   [`CycleHistogram`], a Prometheus text export, and an optional
//!   merged Chrome trace of every dispatched group on the service
//!   clock.
//! * **Fleet serving** — [`FleetServer`] routes requests across a
//!   heterogeneous fleet of replicas (the four Table 3 presets by
//!   default), using the shared plan/cost cache as a placement oracle
//!   and pinning numerics to one device class so placement never
//!   changes the bytes; see the [`fleet`] module docs.
//!
//! ```
//! use kami_serve::{Server, ServeRequest};
//! use kami_gpu_sim::{device, Matrix, Precision};
//!
//! let dev = device::gh200();
//! let server = Server::new(&dev);
//! let tickets: Vec<_> = (0..4)
//!     .map(|i| {
//!         let a = Matrix::seeded_uniform(64, 64, i);
//!         let b = Matrix::seeded_uniform(64, 64, i + 100);
//!         server.submit(ServeRequest::gemm(a, b, Precision::Fp16)).unwrap()
//!     })
//!     .collect();
//! server.shutdown_and_drain();
//! for t in tickets {
//!     let done = t.wait().unwrap();
//!     assert!(done.output.useful_flops() > 0);
//! }
//! ```

#![forbid(unsafe_code)]

pub mod error;
pub mod fleet;
pub mod metrics;
pub mod request;
pub mod server;
pub mod ticket;

pub use error::ServeError;
pub use fleet::{
    DeviceClass, FleetConfig, FleetMetrics, FleetServer, FleetSpec, FleetTicket, Replica,
    ReplicaMetrics, RouteCandidate, RouteDecision, RouterStats, RoutingPolicy,
};
pub use metrics::{CycleHistogram, Metrics, TickRecord};
pub use request::{ServeOutput, ServeRequest, Workload};
pub use server::{Server, ServerConfig, TickSummary};
pub use ticket::{Completed, CompletionPath, Ticket};

#[cfg(test)]
mod tests {
    use super::*;
    use kami_gpu_sim::{device::gh200, Matrix, Precision};

    fn dense(seed: u64) -> ServeRequest {
        let a = Matrix::seeded_uniform(64, 64, seed);
        let b = Matrix::seeded_uniform(64, 64, seed + 1000);
        ServeRequest::gemm(a, b, Precision::Fp16)
    }

    #[test]
    fn served_result_is_bit_identical_to_direct_call() {
        let dev = gh200();
        let server = Server::new(&dev);
        let req = dense(7);
        let direct = req.execute(&dev).unwrap();
        let ticket = server.submit(req).unwrap();
        server.drain();
        let done = ticket.wait().unwrap();
        let (got, want) = match (&done.output, &direct) {
            (ServeOutput::Dense(g), ServeOutput::Dense(w)) => (g, w),
            _ => panic!("dense in, dense out"),
        };
        let got = got.clone().into_single().unwrap();
        let want = want.clone().into_single().unwrap();
        assert_eq!(got.c.as_slice(), want.c.as_slice());
    }

    #[test]
    fn invalid_true_cost_resolves_tickets_with_typed_error() {
        use kami_core::KamiError;
        use kami_gpu_sim::{CostConfig, SimError};
        use kami_sched::SchedError;
        let dev = gh200();
        let config = ServerConfig {
            true_cost: Some(CostConfig {
                theta_w: 0.0,
                ..Default::default()
            }),
            ..Default::default()
        };
        let server = Server::with_config(&dev, config);
        let tickets: Vec<_> = (0..3).map(|i| server.submit(dense(i)).unwrap()).collect();
        server.drain();
        for t in tickets {
            match t.wait() {
                Err(ServeError::Sched(SchedError::Core(KamiError::Sim(
                    SimError::InvalidCostConfig { field, value },
                )))) => assert_eq!((field, value), ("theta_w", 0.0)),
                other => panic!("expected InvalidCostConfig, got {:?}", other.map(|_| ())),
            }
        }
    }

    #[test]
    fn same_shape_requests_coalesce_into_one_group() {
        let dev = gh200();
        let server = Server::new(&dev);
        let tickets: Vec<_> = (0..6).map(|i| server.submit(dense(i)).unwrap()).collect();
        let summary = server.tick();
        assert_eq!(summary.groups, 1);
        assert_eq!(summary.completed, 6);
        for t in tickets {
            let done = t.wait().unwrap();
            assert_eq!(done.via, CompletionPath::Coalesced { group_size: 6 });
        }
    }

    #[test]
    fn coalescing_off_dispatches_solo_groups() {
        let dev = gh200();
        let server = Server::with_config(
            &dev,
            ServerConfig {
                coalesce: false,
                ..ServerConfig::default()
            },
        );
        for i in 0..3 {
            server.submit(dense(i)).unwrap();
        }
        let summary = server.tick();
        assert_eq!(summary.groups, 3);
    }

    #[test]
    fn bounded_queue_rejects_with_backpressure() {
        let dev = gh200();
        let server = Server::with_config(
            &dev,
            ServerConfig {
                queue_capacity: 2,
                ..ServerConfig::default()
            },
        );
        server.submit(dense(0)).unwrap();
        server.submit(dense(1)).unwrap();
        let err = server.submit(dense(2)).unwrap_err();
        assert_eq!(err, ServeError::QueueFull { capacity: 2 });
        assert_eq!(server.metrics().rejected_queue_full, 1);
    }

    #[test]
    fn repeat_shapes_reuse_the_cached_cost_pass() {
        let dev = gh200();
        let server = Server::new(&dev);
        let t = server.submit(dense(0)).unwrap();
        server.tick();
        t.wait().unwrap();
        let misses_after_first = server.plans().cost_misses();
        let hits_after_first = server.plans().cost_hits();
        assert!(misses_after_first > 0, "first request must cost its shape");

        let tickets: Vec<_> = (1..4).map(|i| server.submit(dense(i)).unwrap()).collect();
        server.tick();
        for t in tickets {
            t.wait().unwrap();
        }
        assert_eq!(
            server.plans().cost_misses(),
            misses_after_first,
            "repeat shape classes must not re-run the cost pass"
        );
        assert!(server.plans().cost_hits() > hits_after_first);
    }

    #[test]
    fn native_backend_server_is_bit_identical_on_the_warm_path() {
        let dev = gh200();
        let sim_server = Server::new(&dev);
        let native_server = Server::with_config(
            &dev,
            ServerConfig {
                backend: kami_gpu_sim::BackendKind::Native,
                ..ServerConfig::default()
            },
        );
        // Two rounds so the second request on each server hits a warm
        // plan cache — the execute-only path the backend knob governs.
        let mut sim_out = Vec::new();
        let mut native_out = Vec::new();
        for round in 0..2 {
            let ts = sim_server.submit(dense(round)).unwrap();
            let tn = native_server.submit(dense(round)).unwrap();
            sim_server.tick();
            native_server.tick();
            sim_out.push(dense_c(ts.wait().unwrap().output));
            native_out.push(dense_c(tn.wait().unwrap().output));
        }
        for (s, n) in sim_out.iter().zip(&native_out) {
            assert_eq!(
                s.as_slice(),
                n.as_slice(),
                "native warm path must be bit-identical to the sim server"
            );
        }
    }

    #[test]
    fn scaled_epilogue_skips_the_fast_path_and_still_serves() {
        let dev = gh200();
        let server = Server::new(&dev);
        let a = Matrix::seeded_uniform(64, 64, 3);
        let b = Matrix::seeded_uniform(64, 64, 4);
        let c0 = Matrix::seeded_uniform(64, 64, 5);
        let req = ServeRequest::dense(
            kami_core::GemmRequest::gemm_auto(a, b)
                .precision(Precision::Fp16)
                .scaled(0.5, 2.0, c0),
        );
        let direct = req.execute(&dev).unwrap();
        let ticket = server.submit(req).unwrap();
        server.drain();
        let done = ticket.wait().unwrap();
        let got = match done.output {
            ServeOutput::Dense(g) => g.into_single().unwrap(),
            _ => panic!("dense in, dense out"),
        };
        let want = match direct {
            ServeOutput::Dense(w) => w.into_single().unwrap(),
            _ => panic!("dense in, dense out"),
        };
        assert_eq!(got.c.as_slice(), want.c.as_slice());
    }

    #[test]
    fn different_epilogues_never_share_a_group() {
        let dev = gh200();
        let server = Server::new(&dev);
        let a = Matrix::seeded_uniform(64, 64, 11);
        let b = Matrix::seeded_uniform(64, 64, 12);
        let relu = ServeRequest::dense(
            kami_core::GemmRequest::gemm_auto(a.clone(), b.clone())
                .precision(Precision::Fp16)
                .with_epilogue(kami_core::Epilogue::Relu),
        );
        let gelu = ServeRequest::dense(
            kami_core::GemmRequest::gemm_auto(a, b)
                .precision(Precision::Fp16)
                .with_epilogue(kami_core::Epilogue::Gelu),
        );
        let want_relu = relu.execute(&dev).unwrap();
        let want_gelu = gelu.execute(&dev).unwrap();
        let t_relu = server.submit(relu).unwrap();
        let t_gelu = server.submit(gelu).unwrap();
        let summary = server.tick();
        assert_eq!(
            summary.groups, 2,
            "same shape, different epilogue: must not coalesce"
        );
        let got_relu = dense_c(t_relu.wait().unwrap().output);
        let got_gelu = dense_c(t_gelu.wait().unwrap().output);
        assert_eq!(got_relu.as_slice(), dense_c(want_relu).as_slice());
        assert_eq!(got_gelu.as_slice(), dense_c(want_gelu).as_slice());
        assert_ne!(
            got_relu.as_slice(),
            got_gelu.as_slice(),
            "the two epilogues must produce distinct results"
        );
    }

    #[test]
    fn direct_path_requests_tune_once_per_class() {
        // Fused epilogues miss the plan-cache fast path; they must
        // still resolve through the server's shared tuner.
        let dev = gh200();
        let server = Server::new(&dev);
        let relu = |seed: u64| {
            ServeRequest::dense(
                kami_core::GemmRequest::gemm_auto(
                    Matrix::seeded_uniform(16, 16, seed),
                    Matrix::seeded_uniform(16, 16, seed + 1000),
                )
                .precision(Precision::Fp16)
                .with_epilogue(kami_core::Epilogue::Relu),
            )
        };
        const N: u64 = 4;
        for tick in 0..2 {
            let reqs: Vec<_> = (0..N).map(|i| relu(tick * N + i)).collect();
            let want: Vec<_> = reqs.iter().map(|r| r.execute(&dev).unwrap()).collect();
            let tickets: Vec<_> = reqs
                .into_iter()
                .map(|r| server.submit(r).unwrap())
                .collect();
            assert_eq!(server.tick().completed, N as usize);
            for (t, w) in tickets.into_iter().zip(want) {
                let got = dense_c(t.wait().unwrap().output);
                assert_eq!(got.as_slice(), dense_c(w).as_slice());
            }
        }
        let tuner = server.plans().tuner();
        assert_eq!(tuner.misses(), 1, "one sweep for the one shape class");
        assert!(
            tuner.hits() >= 2 * N as usize - 1,
            "every served request consults the shared tuner ({} hits)",
            tuner.hits()
        );
    }

    fn dense_c(out: ServeOutput) -> Matrix {
        match out {
            ServeOutput::Dense(g) => g.into_single().unwrap().c,
            _ => panic!("dense in, dense out"),
        }
    }

    #[test]
    fn tall_skinny_requests_serve_through_the_k_split_path() {
        let dev = gh200();
        let server = Server::new(&dev);
        let a = Matrix::seeded_uniform(16, 16384, 21);
        let b = Matrix::seeded_uniform(16384, 16, 22);
        let req = ServeRequest::gemm(a, b, Precision::Fp16);
        let direct = req.execute(&dev).unwrap();
        let ticket = server.submit(req).unwrap();
        server.drain();
        let got = dense_c(ticket.wait().unwrap().output);
        assert_eq!(
            got.as_slice(),
            dense_c(direct).as_slice(),
            "served skinny result must be bit-identical to the direct call"
        );
    }

    #[test]
    fn shutdown_refuses_new_work_but_drains_old() {
        let dev = gh200();
        let server = Server::new(&dev);
        let ticket = server.submit(dense(0)).unwrap();
        server.shutdown();
        assert_eq!(
            server.submit(dense(1)).unwrap_err(),
            ServeError::ShuttingDown
        );
        server.drain();
        assert!(ticket.wait().is_ok());
        assert_eq!(server.pending(), 0);
    }
}
