//! Batched GEMM (paper §5.4): many independent small products launched as
//! one workload, with an interface shaped like `cublasDgemmBatched` /
//! MAGMA `magma_dgemm_batched`.
//!
//! Each batch entry runs as one KAMI thread block. Functional outputs are
//! produced for every entry (fanned out across host cores with rayon —
//! the entries are independent, exactly like blocks on different SMs),
//! and device time is modelled by round-robin block scheduling: with
//! `num_sms` SMs and one resident block per SM,
//! `total_cycles = ceil(batch / num_sms) · block_cycles`.
//!
//! Unlike the paper's block-level benchmark (which ignores global I/O),
//! batched blocks *include* their global loads and stores — that is why
//! batched throughput sits below standalone block throughput (§5.4).

use crate::config::KamiConfig;
use crate::error::KamiError;
use crate::gemm::{gemm_auto, gemm_padded, GemmResult};
use kami_gpu_sim::{DeviceSpec, ExecutionReport, Matrix};
use rayon::prelude::*;

/// Result of a batched GEMM.
#[derive(Debug, Clone)]
pub struct BatchedResult {
    /// Per-entry products, in input order.
    pub outputs: Vec<Matrix>,
    /// Report of one representative block (entries share dimensions, so
    /// every block has identical cost structure).
    pub block_report: ExecutionReport,
    /// Batch size.
    pub batch: usize,
    /// Modelled device cycles for the whole batch.
    pub total_cycles: f64,
    /// Useful flops over the whole batch.
    pub useful_flops: u64,
}

impl BatchedResult {
    /// Device TFLOPS over the batch (includes global-memory cycles).
    pub fn tflops(&self, device: &DeviceSpec) -> f64 {
        self.useful_flops as f64 / (self.total_cycles / device.clock_hz()) / 1e12
    }

    /// Wall-clock seconds on `device`.
    pub fn seconds(&self, device: &DeviceSpec) -> f64 {
        self.total_cycles / device.clock_hz()
    }
}

/// Modelled device cycles for `batch` identical blocks of `block_cycles`.
pub fn schedule_cycles(device: &DeviceSpec, block_cycles: f64, batch: usize) -> f64 {
    let waves = batch.div_ceil(device.num_sms as usize);
    waves as f64 * block_cycles
}

/// Run a batch of independent GEMMs. All entries must share dimensions
/// (the paper evaluates uniform batches; see `gemm_padded` for ragged
/// entries).
pub fn batched_gemm(
    device: &DeviceSpec,
    cfg: &KamiConfig,
    pairs: &[(Matrix, Matrix)],
) -> Result<BatchedResult, KamiError> {
    let Some(((a0, b0), rest)) = pairs.split_first() else {
        return Err(KamiError::ShapeMismatch {
            detail: "empty batch".into(),
        });
    };
    let dims = (a0.rows(), a0.cols(), b0.cols());
    for (i, (a, b)) in rest.iter().enumerate() {
        if (a.rows(), a.cols(), b.cols()) != dims || b.rows() != dims.1 {
            return Err(KamiError::ShapeMismatch {
                detail: format!(
                    "batch entry {} is {}x{}·{}x{}, expected uniform {}x{}·{}x{}",
                    i + 1,
                    a.rows(),
                    a.cols(),
                    b.rows(),
                    b.cols(),
                    dims.0,
                    dims.1,
                    dims.1,
                    dims.2
                ),
            });
        }
    }

    let results: Vec<Result<GemmResult, KamiError>> = pairs
        .par_iter()
        .map(|(a, b)| gemm_auto(device, cfg, a, b))
        .collect();
    let mut outputs = Vec::with_capacity(pairs.len());
    let mut first_report: Option<ExecutionReport> = None;
    let mut useful = 0u64;
    for r in results {
        let r = r?;
        useful += r.useful_flops;
        if first_report.is_none() {
            first_report = Some(r.report.clone());
        }
        outputs.push(r.c);
    }
    let block_report = first_report.expect("non-empty batch");
    let total_cycles = schedule_cycles(device, block_report.cycles, pairs.len());
    Ok(BatchedResult {
        outputs,
        block_report,
        batch: pairs.len(),
        total_cycles,
        useful_flops: useful,
    })
}

/// Run a batch of independent GEMMs with **varying** shapes — the
/// paper's batched interface "supports various matrix orders in a batch"
/// (§5.4). Each entry is padded to its own partition grid
/// ([`crate::gemm::gemm_padded`]) and runs as one block; scheduling
/// packs blocks greedily onto SMs (longest-processing-time first), so
/// the modelled makespan reflects the load imbalance ragged batches
/// cause on real hardware.
pub fn batched_gemm_varied(
    device: &DeviceSpec,
    cfg: &KamiConfig,
    pairs: &[(Matrix, Matrix)],
) -> Result<BatchedResult, KamiError> {
    if pairs.is_empty() {
        return Err(KamiError::ShapeMismatch {
            detail: "empty batch".into(),
        });
    }
    let results: Vec<Result<GemmResult, KamiError>> = pairs
        .par_iter()
        .map(|(a, b)| gemm_padded(device, cfg, a, b))
        .collect();
    let mut outputs = Vec::with_capacity(pairs.len());
    let mut block_cycles = Vec::with_capacity(pairs.len());
    let mut first_report: Option<ExecutionReport> = None;
    let mut useful = 0u64;
    for r in results {
        let r = r?;
        useful += r.useful_flops;
        block_cycles.push(r.report.cycles);
        if first_report.is_none() {
            first_report = Some(r.report.clone());
        }
        outputs.push(r.c);
    }
    let total_cycles = lpt_makespan(&block_cycles, device.num_sms as usize);
    Ok(BatchedResult {
        outputs,
        block_report: first_report.expect("non-empty batch"),
        batch: pairs.len(),
        total_cycles,
        useful_flops: useful,
    })
}

/// Longest-processing-time-first makespan of `jobs` on `machines`
/// identical SMs — the greedy schedule a GPU's block dispatcher
/// approximates for ragged batches.
pub fn lpt_makespan(jobs: &[f64], machines: usize) -> f64 {
    let machines = machines.max(1);
    let mut sorted: Vec<f64> = jobs.to_vec();
    sorted.sort_by(|a, b| b.partial_cmp(a).expect("finite cycles"));
    // Binary heap of machine loads (min-load first via Reverse ordering
    // on a sorted vec — machine count can be large, so use a heap).
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    #[derive(PartialEq)]
    struct Load(f64);
    impl Eq for Load {}
    impl PartialOrd for Load {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Load {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.0.partial_cmp(&other.0).expect("finite load")
        }
    }
    let mut heap: BinaryHeap<Reverse<Load>> = (0..machines.min(sorted.len().max(1)))
        .map(|_| Reverse(Load(0.0)))
        .collect();
    for j in sorted {
        let Reverse(Load(least)) = heap.pop().expect("non-empty heap");
        heap.push(Reverse(Load(least + j)));
    }
    heap.into_iter()
        .map(|Reverse(Load(l))| l)
        .fold(0.0, f64::max)
}

/// Cost-only estimate for a large uniform batch: simulates a single
/// representative block and extrapolates through the scheduling model.
/// Returns `(block_report, total_cycles, useful_flops)`.
pub fn estimate_batched(
    device: &DeviceSpec,
    cfg: &KamiConfig,
    m: usize,
    n: usize,
    k: usize,
    batch: usize,
) -> Result<BatchedResult, KamiError> {
    let a = Matrix::seeded_uniform(m, k, 0xBA7C);
    let b = Matrix::seeded_uniform(k, n, 0xBA7D);
    let one = gemm_auto(device, cfg, &a, &b)?;
    let total_cycles = schedule_cycles(device, one.report.cycles, batch);
    Ok(BatchedResult {
        outputs: vec![one.c],
        block_report: one.report,
        batch,
        total_cycles,
        useful_flops: one.useful_flops * batch as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Algo;
    use crate::reference::reference_gemm;
    use kami_gpu_sim::{device::gh200, Precision};

    #[test]
    fn batch_outputs_match_reference() {
        let dev = gh200();
        let cfg = KamiConfig::new(Algo::OneD, Precision::Fp64);
        let pairs: Vec<_> = (0..5)
            .map(|i| {
                (
                    Matrix::seeded_uniform(16, 16, 100 + i),
                    Matrix::seeded_uniform(16, 16, 200 + i),
                )
            })
            .collect();
        let res = batched_gemm(&dev, &cfg, &pairs).unwrap();
        assert_eq!(res.outputs.len(), 5);
        for (i, (a, b)) in pairs.iter().enumerate() {
            let want = reference_gemm(a, b, Precision::Fp64);
            assert!(res.outputs[i].max_abs_diff(&want) < 1e-12, "entry {i}");
        }
    }

    #[test]
    fn scheduling_waves() {
        let dev = gh200(); // 132 SMs
        assert_eq!(schedule_cycles(&dev, 100.0, 1), 100.0);
        assert_eq!(schedule_cycles(&dev, 100.0, 132), 100.0);
        assert_eq!(schedule_cycles(&dev, 100.0, 133), 200.0);
        assert_eq!(schedule_cycles(&dev, 100.0, 1000), 800.0);
    }

    #[test]
    fn non_uniform_batch_rejected() {
        let dev = gh200();
        let cfg = KamiConfig::new(Algo::OneD, Precision::Fp64);
        let pairs = vec![
            (Matrix::zeros(16, 16), Matrix::zeros(16, 16)),
            (Matrix::zeros(32, 32), Matrix::zeros(32, 32)),
        ];
        assert!(matches!(
            batched_gemm(&dev, &cfg, &pairs),
            Err(KamiError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn empty_batch_rejected() {
        let dev = gh200();
        let cfg = KamiConfig::new(Algo::OneD, Precision::Fp64);
        assert!(batched_gemm(&dev, &cfg, &[]).is_err());
    }

    #[test]
    fn varied_batch_outputs_match_reference() {
        let dev = gh200();
        let cfg = KamiConfig::new(Algo::OneD, Precision::Fp64);
        let shapes = [
            (16usize, 16usize, 16usize),
            (24, 8, 12),
            (32, 32, 32),
            (10, 50, 7),
        ];
        let pairs: Vec<_> = shapes
            .iter()
            .enumerate()
            .map(|(i, &(m, n, k))| {
                (
                    Matrix::seeded_uniform(m, k, 300 + i as u64),
                    Matrix::seeded_uniform(k, n, 400 + i as u64),
                )
            })
            .collect();
        let res = batched_gemm_varied(&dev, &cfg, &pairs).unwrap();
        assert_eq!(res.outputs.len(), 4);
        for (i, (a, b)) in pairs.iter().enumerate() {
            let want = crate::reference::reference_gemm_f64(a, b);
            assert_eq!(
                (res.outputs[i].rows(), res.outputs[i].cols()),
                (a.rows(), b.cols())
            );
            assert!(res.outputs[i].max_abs_diff(&want) < 1e-12, "entry {i}");
        }
        assert!(res.total_cycles > 0.0);
    }

    #[test]
    fn lpt_makespan_properties() {
        // One machine: sum. Infinite machines: max.
        let jobs = [5.0, 3.0, 8.0, 2.0];
        assert_eq!(lpt_makespan(&jobs, 1), 18.0);
        assert_eq!(lpt_makespan(&jobs, 100), 8.0);
        // Two machines: LPT packs 8+2 and 5+3 -> 10.
        assert_eq!(lpt_makespan(&jobs, 2), 10.0);
        // Never below the lower bounds.
        let ms = lpt_makespan(&jobs, 3);
        assert!(ms >= 8.0); // also >= sum/machines = 6.0 trivially
        assert!(lpt_makespan(&[], 4) == 0.0);
    }

    #[test]
    fn varied_ragged_batch_longer_than_its_smallest_uniform() {
        // A ragged batch's makespan is dominated by its largest entries.
        let dev = gh200();
        let cfg = KamiConfig::new(Algo::OneD, Precision::Fp64);
        let small: Vec<_> = (0..4)
            .map(|i| {
                (
                    Matrix::seeded_uniform(16, 16, 500 + i),
                    Matrix::seeded_uniform(16, 16, 600 + i),
                )
            })
            .collect();
        let mut ragged = small.clone();
        ragged.push((
            Matrix::seeded_uniform(64, 64, 700),
            Matrix::seeded_uniform(64, 64, 701),
        ));
        let rs = batched_gemm_varied(&dev, &cfg, &small).unwrap();
        let rr = batched_gemm_varied(&dev, &cfg, &ragged).unwrap();
        assert!(rr.total_cycles > rs.total_cycles);
    }

    #[test]
    fn estimate_matches_full_run_cycles() {
        let dev = gh200();
        let cfg = KamiConfig::new(Algo::OneD, Precision::Fp64);
        let est = estimate_batched(&dev, &cfg, 16, 16, 16, 1000).unwrap();
        assert_eq!(
            est.total_cycles,
            schedule_cycles(&dev, est.block_report.cycles, 1000)
        );
        assert_eq!(est.useful_flops, 2 * 16 * 16 * 16 * 1000);
    }

    #[test]
    fn batched_includes_global_io() {
        let dev = gh200();
        let cfg = KamiConfig::new(Algo::OneD, Precision::Fp64);
        let est = estimate_batched(&dev, &cfg, 16, 16, 16, 1).unwrap();
        assert!(est.block_report.totals.global > 0.0);
        // Batched throughput below on-chip-only throughput.
        let batched = est.tflops(&dev);
        let onchip = est.block_report.block_tflops(&dev, 2 * 16 * 16 * 16);
        assert!(batched < onchip);
    }
}
