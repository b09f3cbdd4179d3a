//! API conformance: the classic free functions, the [`GemmRequest`]
//! builder, and the kami-serve front door are three routes into the
//! same engines and must agree bit-for-bit.
//!
//! Every test pins a configuration, runs it through two (or three) of
//! the routes, and compares output elements with `==` — no tolerance.
//! The unified error facade is checked at the end: each layer's typed
//! error converts into [`kami::Error`] and exposes a walkable
//! `source()` chain.

use kami::core::{
    batched_gemm, gemm, gemm_25d, gemm_auto, gemm_padded, gemm_scaled, lowrank_gemm, Algo,
    GemmRequest, Kami25dConfig, KamiConfig, Op,
};
use kami::prelude::*;
use kami::serve::ServerConfig;

fn pair(m: usize, n: usize, k: usize, seed: u64) -> (Matrix, Matrix) {
    (
        Matrix::seeded_uniform(m, k, seed),
        Matrix::seeded_uniform(k, n, seed + 1),
    )
}

#[test]
fn gemm_wrapper_equals_request_builder() {
    let dev = device::gh200();
    let (a, b) = pair(64, 64, 64, 21);
    let cfg = KamiConfig::new(Algo::TwoD, Precision::Fp16);

    let direct = gemm(&dev, &cfg, &a, &b).unwrap();
    let built = GemmRequest::gemm(a, b)
        .precision(Precision::Fp16)
        .algo(Algo::TwoD)
        .execute(&dev)
        .unwrap()
        .into_single()
        .unwrap();

    assert_eq!(direct.c.as_slice(), built.c.as_slice());
    assert_eq!(direct.report.cycles, built.report.cycles);
    assert_eq!(direct.useful_flops, built.useful_flops);
}

#[test]
fn auto_and_padded_wrappers_equal_request_builder() {
    let dev = device::gh200();
    let cfg = KamiConfig::new(Algo::TwoD, Precision::Fp16);

    let (a, b) = pair(64, 64, 64, 33);
    let direct = gemm_auto(&dev, &cfg, &a, &b).unwrap();
    let built = GemmRequest::from_config(Op::GemmAuto { a, b }, &cfg)
        .execute(&dev)
        .unwrap()
        .into_single()
        .unwrap();
    assert_eq!(direct.c.as_slice(), built.c.as_slice());

    // Ragged shape exercises the pad-and-crop path.
    let (a, b) = pair(50, 46, 70, 35);
    let direct = gemm_padded(&dev, &cfg, &a, &b).unwrap();
    let built = GemmRequest::from_config(Op::GemmPadded { a, b }, &cfg)
        .execute(&dev)
        .unwrap()
        .into_single()
        .unwrap();
    assert_eq!(direct.c.as_slice(), built.c.as_slice());
}

#[test]
fn scaled_wrapper_equals_builder_epilogue() {
    let dev = device::gh200();
    let (a, b) = pair(32, 32, 32, 41);
    let c0 = Matrix::seeded_uniform(32, 32, 43);
    let cfg = KamiConfig::new(Algo::TwoD, Precision::Fp64);

    let direct = gemm_scaled(&dev, &cfg, 2.0, &a, &b, -0.5, &c0).unwrap();
    let built = GemmRequest::from_config(Op::Gemm { a, b }, &cfg)
        .scaled(2.0, -0.5, c0)
        .execute(&dev)
        .unwrap()
        .into_single()
        .unwrap();
    assert_eq!(direct.c.as_slice(), built.c.as_slice());
}

#[test]
fn batched_wrapper_equals_request_builder() {
    let dev = device::gh200();
    let pairs: Vec<_> = (0..4).map(|i| pair(32, 32, 64, 100 + 10 * i)).collect();
    let cfg = KamiConfig::new(Algo::TwoD, Precision::Fp16);

    let direct = batched_gemm(&dev, &cfg, &pairs).unwrap();
    let built = GemmRequest::from_config(
        Op::Batched {
            pairs,
            varied: false,
        },
        &cfg,
    )
    .execute(&dev)
    .unwrap()
    .into_batched()
    .unwrap();

    assert_eq!(direct.outputs.len(), built.outputs.len());
    for (d, v) in direct.outputs.iter().zip(&built.outputs) {
        assert_eq!(d.as_slice(), v.as_slice());
    }
    assert_eq!(direct.total_cycles, built.total_cycles);
}

#[test]
fn lowrank_and_25d_wrappers_equal_request_builder() {
    let dev = device::gh200();

    let u = Matrix::seeded_uniform(96, 16, 51);
    let v = Matrix::seeded_uniform(16, 96, 52);
    let cfg = KamiConfig::new(Algo::OneD, Precision::Fp16).with_warps(4);
    let direct = lowrank_gemm(&dev, &cfg, &u, &v).unwrap();
    let built = GemmRequest::from_config(Op::Lowrank { u, v }, &cfg)
        .execute(&dev)
        .unwrap()
        .into_single()
        .unwrap();
    assert_eq!(direct.c.as_slice(), built.c.as_slice());

    let (a, b) = pair(64, 64, 64, 61);
    let direct = gemm_25d(&dev, &Kami25dConfig::new(2, 2, Precision::Fp16), &a, &b).unwrap();
    let built = GemmRequest::gemm_25d(a, b, 2, 2)
        .precision(Precision::Fp16)
        .execute(&dev)
        .unwrap()
        .into_single()
        .unwrap();
    assert_eq!(direct.c.as_slice(), built.c.as_slice());
}

#[test]
fn served_route_equals_direct_route() {
    let dev = device::gh200();
    let (a, b) = pair(64, 64, 64, 71);
    let cfg = KamiConfig::new(Algo::TwoD, Precision::Fp16);
    let direct = gemm(&dev, &cfg, &a, &b).unwrap();

    let server = Server::with_config(&dev, ServerConfig::default());
    let req = ServeRequest::dense(GemmRequest::from_config(Op::Gemm { a, b }, &cfg));
    let ticket = server.submit(req).unwrap();
    server.shutdown_and_drain();
    let served = ticket
        .wait()
        .unwrap()
        .output
        .into_dense()
        .unwrap()
        .into_single()
        .unwrap();

    assert_eq!(direct.c.as_slice(), served.c.as_slice());
    assert_eq!(direct.useful_flops, served.useful_flops);
}

#[test]
fn error_facade_spans_every_layer() {
    use std::error::Error as StdError;

    // Sched: an infeasible Stream-K ask surfaces typed, not stringly.
    let dev = device::gh200();
    let sched_err = Scheduler::new(&dev)
        .with_decomposition(Decomposition::StreamK)
        .run(
            &BlockWork::uniform(16, 16, 16, Precision::Fp16, 1),
            &PlanCache::new(),
        )
        .unwrap_err();
    let facade: kami::Error = sched_err.into();
    assert!(facade.to_string().contains("sched"));

    // Sparse: structural misuse is a typed SparseError.
    let sparse_err =
        BlockSparseMatrix::try_from_blocks(17, 16, 16, BlockOrder::RowMajor, vec![]).unwrap_err();
    assert!(matches!(sparse_err, SparseError::Misaligned { .. }));
    let facade: kami::Error = sparse_err.into();
    assert!(facade.source().is_some());

    // Serve: backpressure is a typed rejection carrying the capacity.
    let server = Server::with_config(
        &dev,
        ServerConfig {
            queue_capacity: 0,
            ..ServerConfig::default()
        },
    );
    let (a, b) = pair(32, 32, 64, 81);
    let serve_err = server
        .submit(ServeRequest::gemm(a, b, Precision::Fp16))
        .unwrap_err();
    assert_eq!(serve_err, ServeError::QueueFull { capacity: 0 });
    let facade: kami::Error = serve_err.into();
    assert!(facade.to_string().contains("serve"));

    // Core: and the `?` operator composes across layers in one chain.
    fn mixed(dev: &DeviceSpec) -> kami::Result<u64> {
        let (a, b) = (
            Matrix::seeded_uniform(64, 64, 91),
            Matrix::seeded_uniform(64, 64, 92),
        );
        let r = gemm(dev, &KamiConfig::new(Algo::TwoD, Precision::Fp16), &a, &b)?;
        Ok(r.useful_flops)
    }
    assert!(mixed(&dev).is_ok());
}
