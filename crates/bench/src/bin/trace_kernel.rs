//! Dump a Chrome-tracing timeline of one KAMI block kernel.
//!
//! ```text
//! cargo run --release -p kami-bench --bin trace_kernel -- [1d|2d|3d] [n] [out.json] [sim|native]
//! ```
//!
//! Open the output in chrome://tracing or <https://ui.perfetto.dev> — one
//! track per warp, ops colored by category (smem store/load, mma, ...).

use kami_core::{Algo, KamiConfig};
use kami_gpu_sim::{device, BackendKind, Engine, GlobalMemory, Matrix, Precision, RunOptions};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let algo = match args.get(1).map(String::as_str) {
        Some("2d") => Algo::TwoD,
        Some("3d") => Algo::ThreeD,
        _ => Algo::OneD,
    };
    let n: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(64);
    let out = args
        .get(3)
        .cloned()
        .unwrap_or_else(|| format!("trace_{}_{n}.json", algo.label().to_lowercase()));
    // Backend affects numerics only — the trace and cycle report come
    // from the cost pass — but exposing it keeps the bin an easy smoke
    // check for the seam.
    let backend: BackendKind = args
        .get(4)
        .map(|s| s.parse().expect("backend is sim|native"))
        .unwrap_or_default();

    let dev = device::gh200();
    let prec = Precision::Fp16;
    let cfg = KamiConfig::new(algo, prec);
    cfg.validate(&dev, n, n, n).expect("valid config");

    let a = Matrix::seeded_uniform(n, n, 1);
    let b = Matrix::seeded_uniform(n, n, 2);
    let mut gmem = GlobalMemory::new();
    let ab = gmem.upload("A", &a, prec);
    let bb = gmem.upload("B", &b, prec);
    let cb = gmem.alloc_zeroed("C", n, n, prec);
    let kernel = kami_core::gemm::build_gemm_kernel(&cfg, n, n, n, ab, bb, cb, prec);

    let arts = Engine::new(&dev)
        .run_kernel(
            &kernel,
            &mut gmem,
            &RunOptions::default().traced().with_backend(backend),
        )
        .expect("runs");
    let (report, trace) = (arts.report, arts.trace.expect("traced run"));
    std::fs::write(&out, trace.to_chrome_json()).expect("write trace");
    println!(
        "{} {}x{}x{} on {}: {:.0} cycles, {} events -> {}",
        algo.label(),
        n,
        n,
        n,
        dev.name,
        report.cycles,
        trace.events.len(),
        out
    );
    println!("open in chrome://tracing or https://ui.perfetto.dev");
    // Terminal summary per category.
    use kami_gpu_sim::TraceKind::*;
    for kind in [
        GlobalLoad,
        SharedStore,
        SharedLoad,
        Mma,
        RegCopy,
        GlobalStore,
    ] {
        println!(
            "  {:<11} {:>10.1} warp-cycles",
            kind.label(),
            trace.cycles_by_kind(kind)
        );
    }
}
