//! Aggregate service throughput: coalesced dispatch vs one-at-a-time
//! serial dispatch over a mixed dense/sparse request trace.
//!
//! The study drains the same deterministic trace through two servers on
//! GH200 — one with shape-class coalescing on, one dispatching every
//! request as its own group — and compares the total simulated cycles
//! to drain. Small independent GEMMs are exactly the workload the
//! coalescer exists for: alone, each one occupies a sliver of the
//! device; pooled, they fill it the way one Stream-K launch would.
//!
//! ```text
//! cargo run --release -p kami-bench --bin serve_study [-- --quick] [--out PATH]
//! ```
//!
//! Emits `target/BENCH_serve.json` (override with `--out`) and exits
//! nonzero if the coalesced speedup falls under 1.5× — this doubles as
//! the CI acceptance gate for the service runtime.

use kami_bench::Study;
use kami_core::KamiConfig;
use kami_gpu_sim::{device, Matrix, Precision};
use kami_serve::{Metrics, ServeRequest, Server, ServerConfig};
use kami_sparse::{gen, BlockOrder};
use serde::Serialize;
use std::process::ExitCode;

/// The deterministic mixed trace: mostly small dense GEMMs in a few
/// shape classes (coalescable), with sparse SpMM/SpGEMM riders that
/// always dispatch solo.
fn trace(total: usize) -> Vec<ServeRequest> {
    const DENSE_SHAPES: [(usize, usize, usize); 3] = [(64, 64, 64), (32, 32, 64), (128, 64, 64)];
    let mut out = Vec::with_capacity(total);
    for i in 0..total {
        let seed = i as u64;
        // Every 10th request is sparse: odd ones SpMM, even ones SpGEMM.
        if i % 10 == 9 {
            let cfg = KamiConfig::new(kami_core::Algo::TwoD, Precision::Fp16);
            let a = gen::random_block_sparse(64, 64, 16, 0.4, BlockOrder::ZMorton, seed);
            if i % 20 == 9 {
                let b = Matrix::seeded_uniform(64, 32, seed + 5000);
                out.push(ServeRequest::spmm(a, b, cfg));
            } else {
                let b = gen::random_block_sparse(64, 64, 16, 0.4, BlockOrder::ZMorton, seed + 1);
                out.push(ServeRequest::spgemm(a, b, cfg));
            }
        } else {
            let (m, n, k) = DENSE_SHAPES[i % DENSE_SHAPES.len()];
            let a = Matrix::seeded_uniform(m, k, seed);
            let b = Matrix::seeded_uniform(k, n, seed + 10_000);
            out.push(ServeRequest::gemm(a, b, Precision::Fp16));
        }
    }
    out
}

/// Drain the trace through one server; return (total cycles, metrics).
fn run(coalesce: bool, requests: Vec<ServeRequest>) -> (f64, Metrics) {
    let dev = device::gh200();
    let server = Server::with_config(
        &dev,
        ServerConfig {
            queue_capacity: requests.len(),
            coalesce,
            ..ServerConfig::default()
        },
    );
    let tickets: Vec<_> = requests
        .into_iter()
        .map(|r| server.submit(r).expect("capacity sized to the trace"))
        .collect();
    server.shutdown_and_drain();
    for t in tickets {
        t.wait().expect("every request in the trace is feasible");
    }
    (server.clock(), server.metrics())
}

/// The CI acceptance bar for the service runtime.
const GATE: &str = "coalesced >= 1.5x serial";

#[derive(Serialize)]
struct Record {
    device: String,
    requests: usize,
    serial_cycles: f64,
    coalesced_cycles: f64,
    serial_coalesce_factor: f64,
    coalesced_coalesce_factor: f64,
    speedup: f64,
    gate: &'static str,
}

fn main() -> ExitCode {
    let mut study = Study::from_env("serve");
    let total = if study.quick { 60 } else { 200 };

    println!("# serve_study: aggregate throughput, GH200, {total}-request mixed trace");
    println!("# (dense 64x64x64 / 32x32x64 / 128x64x64 fp16 + SpMM/SpGEMM riders)\n");

    let (serial_cycles, serial_metrics) = run(false, trace(total));
    let (coalesced_cycles, coalesced_metrics) = run(true, trace(total));
    let speedup = serial_cycles / coalesced_cycles;

    println!(
        "{:<26} {:>16} {:>10} {:>14}",
        "mode", "total cycles", "groups", "mean queue cyc"
    );
    for (label, cycles, m) in [
        ("serial (coalesce off)", serial_cycles, &serial_metrics),
        ("coalesced", coalesced_cycles, &coalesced_metrics),
    ] {
        let groups: usize = m.per_tick.iter().map(|t| t.groups).sum();
        println!(
            "{label:<26} {cycles:>16.0} {groups:>10} {:>14.0}",
            m.mean_queue_cycles()
        );
    }
    println!(
        "\ncoalesce factor: {:.1} requests/group (serial: {:.1})",
        coalesced_metrics.coalesce_factor(),
        serial_metrics.coalesce_factor()
    );
    println!("aggregate speedup (serial / coalesced): {speedup:.2}x");

    study.gate(GATE, speedup >= 1.5);
    study.finish(&Record {
        device: device::gh200().name,
        requests: total,
        serial_cycles,
        coalesced_cycles,
        serial_coalesce_factor: serial_metrics.coalesce_factor(),
        coalesced_coalesce_factor: coalesced_metrics.coalesce_factor(),
        speedup,
        gate: GATE,
    })
}
