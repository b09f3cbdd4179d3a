//! Communication-avoiding SpMM (paper §4.6): sparse `A` (block storage),
//! dense `B`, dense `C`, with the same 1D/2D/3D warp organisation and
//! stage structure as the dense schemes — following the block compute
//! pattern of Koanantakool et al.: every nonzero block of `A_i`
//! identifies the corresponding rows of `B`, multiplies on tensor cores,
//! and accumulates into `C_i`.
//!
//! Zero blocks of `A` are skipped entirely (fewer MMAs); the index arrays
//! (`RowPtr`/`ColBlkIdx`) travel through shared memory alongside values
//! whenever `A` itself is communicated (2D/3D).

use crate::bsr::BlockSparseMatrix;
use kami_core::config::{Algo, KamiConfig};
use kami_core::error::KamiError;
use kami_core::grid::LayeredGrid;
use kami_core::layout::{cube_pos, tile_bytes, SmemMap};
use kami_gpu_sim::{
    BlockKernel, BufferId, DeviceSpec, Engine, ExecutionReport, GlobalMemory, Matrix, Precision,
    WarpProgram,
};
use rayon::prelude::*;

/// Result of a block-level SpMM.
#[derive(Debug, Clone)]
pub struct SpmmResult {
    /// Dense product `C = A·B`.
    pub c: Matrix,
    pub report: ExecutionReport,
    /// Useful flops: `2·bs²·n_cols_of_B` per nonzero block of A.
    pub useful_flops: u64,
}

impl SpmmResult {
    pub fn block_tflops(&self, device: &DeviceSpec) -> f64 {
        self.report.block_tflops(device, self.useful_flops)
    }
}

fn validate(
    cfg: &KamiConfig,
    a: &BlockSparseMatrix,
    b: &Matrix,
    device: &DeviceSpec,
) -> Result<(), KamiError> {
    if a.cols() != b.rows() {
        return Err(KamiError::ShapeMismatch {
            detail: format!(
                "A is {}x{} but B is {}x{}",
                a.rows(),
                a.cols(),
                b.rows(),
                b.cols()
            ),
        });
    }
    let q = cfg.algo.grid_extent(cfg.warps)?;
    let (rb, cb) = (a.rows_blk(), a.cols_blk());
    let n = b.cols();
    let bad = |detail: String| Err(KamiError::Indivisible { detail });
    match cfg.algo {
        Algo::OneD => {
            if rb % q != 0 || cb % q != 0 {
                return bad(format!(
                    "1D SpMM with p={q} needs p | {rb} block rows and p | {cb} block cols"
                ));
            }
        }
        Algo::TwoD => {
            if rb % q != 0 || cb % q != 0 || !n.is_multiple_of(q) {
                return bad(format!(
                    "2D SpMM with √p={q} needs √p | block grid {rb}x{cb} and √p | n={n}"
                ));
            }
        }
        Algo::ThreeD => {
            if rb % q != 0 || cb % (q * q) != 0 || !n.is_multiple_of(q) {
                return bad(format!(
                    "3D SpMM with ∛p={q} needs ∛p | {rb} block rows, ∛p² | {cb} block cols, ∛p | n={n}"
                ));
            }
        }
    }
    kami_core::tensor_path(device, cfg.precision)?;
    Ok(())
}

/// Declare one `bs×bs` fragment per block of `blocks`, named
/// `{name}(row,col)`, and load it from `buf`; returns
/// `((block_row, block_col), frag)` pairs in block order.
pub(crate) fn load_blocks(
    w: &mut WarpProgram,
    name: &str,
    blocks: &[(usize, usize, &Matrix)],
    buf: BufferId,
    bs: usize,
    prec: Precision,
) -> Vec<((usize, usize), usize)> {
    blocks
        .iter()
        .map(|&(br, bc, _)| {
            let f = w.frag(format!("{name}({br},{bc})"), bs, bs, prec);
            w.global_load(f, buf, br * bs, bc * bs);
            ((br, bc), f)
        })
        .collect()
}

/// Validate one SpMM and stage it: A (densified) and B uploaded at the
/// input precision, C zeroed, and the kernel built over the three
/// buffers. Returns the memory, the kernel and C's buffer.
fn stage(
    device: &DeviceSpec,
    cfg: &KamiConfig,
    a: &BlockSparseMatrix,
    b: &Matrix,
) -> Result<(GlobalMemory, BlockKernel, BufferId), KamiError> {
    validate(cfg, a, b, device)?;
    let prec = cfg.precision;
    let mut gmem = GlobalMemory::new();
    let ab = gmem.upload("A", &a.to_dense(), prec);
    let bb = gmem.upload("B", b, prec);
    let cb = gmem.alloc_zeroed("C", a.rows(), b.cols(), prec);
    let kernel = match cfg.algo {
        Algo::OneD => build_1d(cfg, a, b.cols(), ab, bb, cb),
        Algo::TwoD | Algo::ThreeD => build_grid(LayeredGrid::of(cfg), a, b.cols(), ab, bb, cb),
    };
    Ok((gmem, kernel, cb))
}

/// The block kernel [`spmm`] runs for `cfg`, `a` and `b`, after the same
/// validation.
pub fn spmm_kernel(
    device: &DeviceSpec,
    cfg: &KamiConfig,
    a: &BlockSparseMatrix,
    b: &Matrix,
) -> Result<BlockKernel, KamiError> {
    stage(device, cfg, a, b).map(|(_, kernel, _)| kernel)
}

/// Run one block-level SpMM on the simulator.
pub fn spmm(
    device: &DeviceSpec,
    cfg: &KamiConfig,
    a: &BlockSparseMatrix,
    b: &Matrix,
) -> Result<SpmmResult, KamiError> {
    let (mut gmem, kernel, cb) = stage(device, cfg, a, b)?;
    let report = Engine::with_cost(device, cfg.cost.clone())
        .run_kernel(
            &kernel,
            &mut gmem,
            &kami_gpu_sim::RunOptions::default().with_backend(cfg.backend),
        )?
        .report;
    let bs = a.block_size();
    let useful_flops = 2 * (bs * bs * b.cols()) as u64 * a.nnz_blocks() as u64;
    Ok(SpmmResult {
        c: gmem.download(cb),
        report,
        useful_flops,
    })
}

/// 1D: warp `i` owns a slab of block rows of A and the matching C rows;
/// B row-slabs broadcast exactly as in dense KAMI-1D. A is never
/// communicated (its metadata stays warp-local).
fn build_1d(
    cfg: &KamiConfig,
    a: &BlockSparseMatrix,
    n: usize,
    ab: BufferId,
    bb: BufferId,
    cbuf: BufferId,
) -> BlockKernel {
    let p = cfg.warps;
    let prec = cfg.precision;
    let (bs, k) = (a.block_size(), a.cols());
    let rb = a.rows_blk();
    let rows_per_warp = rb / p;
    let ki = k / p; // dense stage slab height
    let map = SmemMap::new(0, 0, 1, tile_bytes(ki, n, prec), 0);

    BlockKernel::spmd(p, |i, w| {
        let owned = a.window(i * rows_per_warp, rows_per_warp, 0, a.cols_blk());
        let a_frags = load_blocks(w, "A", &owned, ab, bs, prec);
        let b_own = w.frag("Bi", ki, n, prec);
        w.global_load(b_own, bb, i * ki, 0);
        let b_recv = w.frag("BRecv", ki, n, prec);
        let c_frags: Vec<usize> = (0..rows_per_warp)
            .map(|r| {
                let f = w.frag(format!("Ci[{r}]"), bs, n, prec);
                w.zero_acc(f);
                f
            })
            .collect();

        for z in 0..p {
            if i == z {
                w.shared_store(b_own, map.b_addr(0));
                w.reg_copy(b_recv, b_own);
            }
            w.barrier();
            if i != z {
                w.shared_load(b_recv, map.b_addr(0));
            }
            w.barrier();
            // Multiply every owned A block whose column chunk belongs to
            // this stage's B slab (ColBlkIdx traversal).
            for &((br, bc), f) in &a_frags {
                let col_elem = bc * bs;
                if col_elem >= z * ki && col_elem < (z + 1) * ki {
                    let local_row = br - i * rows_per_warp;
                    w.mma_b_rows(c_frags[local_row], f, b_recv, col_elem - z * ki, bs);
                }
            }
        }
        for (r, &f) in c_frags.iter().enumerate() {
            w.global_store(f, cbuf, (i * rows_per_warp + r) * bs, 0);
        }
    })
}

/// 2D and 3D: the [`LayeredGrid`] of the dense kernels — one `√p×√p`
/// grid for 2D, `∛p` stacked `∛p×∛p` grids for 3D — with layer `l`
/// handling the `l`-th block-column chunk of A (and row chunk of B).
/// A shards broadcast along grid rows (values + index metadata), dense
/// B tiles along grid columns; 3D reduces the layer partials into
/// global C.
fn build_grid(
    grid: LayeredGrid,
    a: &BlockSparseMatrix,
    n: usize,
    ab: BufferId,
    bb: BufferId,
    cbuf: BufferId,
) -> BlockKernel {
    let LayeredGrid {
        q,
        layers,
        precision: prec,
        ..
    } = grid;
    let (bs, k) = (a.block_size(), a.cols());
    let rb = a.rows_blk();
    let cb_a = a.cols_blk();
    let rbq = rb / q;
    let cbs = cb_a / (layers * q); // shard extent in block cols
    let ni = n / q;
    let kl = k / layers; // one layer's k-chunk
    let ks = k / (layers * q);
    let block_bytes = tile_bytes(bs, bs, prec);
    // A broadcast region per (layer, row): worst-case shard + metadata.
    let a_region = rbq * cbs * block_bytes + BlockSparseMatrix::metadata_bytes(rbq, rbq * cbs);
    let map = SmemMap::new(
        layers * q,
        a_region,
        layers * q,
        tile_bytes(ks, ni, prec),
        0,
    );

    BlockKernel::spmd(layers * q * q, |i, w| {
        let (l, r, c) = cube_pos(i, q);
        let col0 = |cc: usize| l * (cb_a / layers) + cc * cbs; // shard block-col origin
        let owned = a.window(r * rbq, rbq, col0(c), cbs);
        let a_frags = load_blocks(w, "A", &owned, ab, bs, prec);
        let b_own = w.frag("Bi", ks, ni, prec);
        w.global_load(b_own, bb, l * kl + r * ks, c * ni);
        let b_recv = w.frag("BRecv", ks, ni, prec);
        let a_stage = w.frag("AStage", bs, bs, prec);
        let c_frags: Vec<usize> = (0..rbq)
            .map(|rr| {
                let f = w.frag(format!("Ci[{rr}]"), bs, ni, prec);
                w.zero_acc(f);
                f
            })
            .collect();

        let a_reg_id = l * q + r;
        let b_reg_id = l * q + c;
        for z in 0..q {
            let send_a = c == z;
            let send_b = r == z;
            // The blocks of A shard (r, z), in storage order — known to
            // every warp after the metadata transfer.
            let stage_blocks = a.window(r * rbq, rbq, col0(z), cbs);
            let meta = BlockSparseMatrix::metadata_bytes(rbq, stage_blocks.len());
            if send_a {
                w.meta_store(map.a_addr(a_reg_id), meta);
                // The sender's own shard is this stage's: same blocks,
                // same order.
                for (bi, &(_, f)) in a_frags.iter().enumerate() {
                    w.shared_store(f, map.a_addr(a_reg_id) + meta + bi * block_bytes);
                }
            }
            if send_b {
                w.shared_store(b_own, map.b_addr(b_reg_id));
                w.reg_copy(b_recv, b_own);
            }
            w.barrier();
            if !send_b {
                w.shared_load(b_recv, map.b_addr(b_reg_id));
            }
            if !send_a {
                w.meta_load(map.a_addr(a_reg_id), meta);
            }
            w.barrier();
            for (bi, &(br, bc, _)) in stage_blocks.iter().enumerate() {
                let local_row = br - r * rbq;
                let b_off = bc * bs - (l * kl + z * ks);
                if send_a {
                    // Sender multiplies straight from its registers.
                    w.mma_b_rows(c_frags[local_row], a_frags[bi].1, b_recv, b_off, bs);
                } else {
                    w.shared_load(a_stage, map.a_addr(a_reg_id) + meta + bi * block_bytes);
                    w.mma_b_rows(c_frags[local_row], a_stage, b_recv, b_off, bs);
                }
            }
            // Third barrier: the compute phase reads shared memory (staged
            // A blocks), so the next stage's senders must not overwrite
            // the broadcast regions until everyone is done.
            w.barrier();
        }
        for (rr, &f) in c_frags.iter().enumerate() {
            let row0 = (r * rbq + rr) * bs;
            if grid.accumulate {
                w.global_accumulate(f, cbuf, row0, c * ni);
            } else {
                w.global_store(f, cbuf, row0, c * ni);
            }
        }
    })
}

/// Result of a batched SpMM.
#[derive(Debug, Clone)]
pub struct SpmmBatchedResult {
    /// Per-entry dense products, in input order.
    pub outputs: Vec<Matrix>,
    /// Modelled device cycles for the whole batch (LPT block schedule —
    /// sparse entries differ in cost even at equal dimensions).
    pub total_cycles: f64,
    /// Useful flops over the batch.
    pub useful_flops: u64,
}

impl SpmmBatchedResult {
    pub fn tflops(&self, device: &DeviceSpec) -> f64 {
        self.useful_flops as f64 / (self.total_cycles / device.clock_hz()) / 1e12
    }
}

/// Run a batch of independent SpMMs (e.g. the per-head masked products
/// of block-sparse attention). Entries may have different sparsity
/// patterns; each runs as one block, scheduled across SMs by
/// longest-processing-time first.
pub fn spmm_batched(
    device: &DeviceSpec,
    cfg: &KamiConfig,
    entries: &[(BlockSparseMatrix, Matrix)],
) -> Result<SpmmBatchedResult, KamiError> {
    if entries.is_empty() {
        return Err(KamiError::ShapeMismatch {
            detail: "empty batch".into(),
        });
    }
    let results: Vec<Result<SpmmResult, KamiError>> = entries
        .par_iter()
        .map(|(a, b)| spmm(device, cfg, a, b))
        .collect();
    let mut outputs = Vec::with_capacity(entries.len());
    let mut cycles = Vec::with_capacity(entries.len());
    let mut useful = 0u64;
    for r in results {
        let r = r?;
        useful += r.useful_flops;
        cycles.push(r.report.cycles);
        outputs.push(r.c);
    }
    Ok(SpmmBatchedResult {
        outputs,
        total_cycles: kami_core::lpt_makespan(&cycles, device.num_sms as usize),
        useful_flops: useful,
    })
}

/// Dense reference for SpMM (quantized, accumulator-ordered like the
/// dense reference; column-chunk accumulation order differs from the
/// kernel's sparse traversal, so compare with a tolerance).
pub fn reference_spmm(a: &BlockSparseMatrix, b: &Matrix, prec: Precision) -> Matrix {
    kami_core::reference::reference_gemm(&a.to_dense(), b, prec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bsr::BlockOrder;
    use crate::gen::random_block_sparse;
    use kami_gpu_sim::device::gh200;

    fn check(algo: Algo, warps: usize, n: usize, density: f64, order: BlockOrder) {
        let dev = gh200();
        let prec = Precision::Fp16;
        let cfg = KamiConfig::new(algo, prec).with_warps(warps);
        let a = random_block_sparse(n, n, 16, density, order, 5);
        let b = Matrix::seeded_uniform(n, n, 6);
        let res = spmm(&dev, &cfg, &a, &b).unwrap();
        let want = reference_spmm(&a, &b, prec);
        let err = res.c.rel_frobenius_error(&want);
        assert!(err < 5e-3, "{} err {err}", algo.label());
    }

    #[test]
    fn spmm_1d_correct() {
        check(Algo::OneD, 4, 64, 0.5, BlockOrder::RowMajor);
    }

    #[test]
    fn spmm_2d_correct() {
        check(Algo::TwoD, 4, 64, 0.5, BlockOrder::ZMorton);
    }

    #[test]
    fn spmm_3d_correct() {
        check(Algo::ThreeD, 8, 128, 0.5, BlockOrder::ZMorton);
    }

    #[test]
    fn fully_dense_and_fully_sparse_edges() {
        check(Algo::OneD, 4, 64, 1.0, BlockOrder::RowMajor);
        // Fully sparse: C must be exactly zero.
        let dev = gh200();
        let cfg = KamiConfig::new(Algo::OneD, Precision::Fp16);
        let a = random_block_sparse(64, 64, 16, 0.0, BlockOrder::RowMajor, 1);
        let b = Matrix::seeded_uniform(64, 64, 2);
        let res = spmm(&dev, &cfg, &a, &b).unwrap();
        assert_eq!(res.c.frobenius_norm(), 0.0);
        assert_eq!(res.useful_flops, 0);
    }

    #[test]
    fn sparsity_halves_flops() {
        let dev = gh200();
        let cfg = KamiConfig::new(Algo::OneD, Precision::Fp16);
        let b = Matrix::seeded_uniform(64, 64, 2);
        let dense = random_block_sparse(64, 64, 16, 1.0, BlockOrder::RowMajor, 1);
        let half = random_block_sparse(64, 64, 16, 0.5, BlockOrder::RowMajor, 1);
        let rd = spmm(&dev, &cfg, &dense, &b).unwrap();
        let rh = spmm(&dev, &cfg, &half, &b).unwrap();
        assert_eq!(rh.useful_flops * 2, rd.useful_flops);
        assert!(rh.report.flops_charged < rd.report.flops_charged);
    }

    #[test]
    fn sparse_2d_transfers_metadata() {
        let dev = gh200();
        let prec = Precision::Fp16;
        let a = random_block_sparse(64, 64, 16, 0.5, BlockOrder::ZMorton, 5);
        let b = Matrix::seeded_uniform(64, 64, 6);
        let r2 = spmm(&dev, &KamiConfig::new(Algo::TwoD, prec), &a, &b).unwrap();
        let r1 = spmm(&dev, &KamiConfig::new(Algo::OneD, prec), &a, &b).unwrap();
        // 2D communicates A (values + metadata); 1D does not.
        assert!(r2.comm_meta_exceeds(&r1));
    }

    impl SpmmResult {
        /// Test helper: 2D/3D transfer A values + metadata on top of B.
        fn comm_meta_exceeds(&self, other: &SpmmResult) -> bool {
            self.report.smem_bytes_written > 0
                && other.report.smem_bytes_written > 0
                && self.report.comm_volume() != other.report.comm_volume()
        }
    }

    #[test]
    fn batched_spmm_matches_per_entry_runs() {
        let dev = gh200();
        let prec = Precision::Fp16;
        let cfg = KamiConfig::new(Algo::OneD, prec);
        let entries: Vec<_> = (0..4)
            .map(|i| {
                (
                    random_block_sparse(
                        64,
                        64,
                        16,
                        0.25 + 0.15 * i as f64,
                        BlockOrder::RowMajor,
                        60 + i as u64,
                    ),
                    Matrix::seeded_uniform(64, 64, 70 + i as u64),
                )
            })
            .collect();
        let batch = spmm_batched(&dev, &cfg, &entries).unwrap();
        assert_eq!(batch.outputs.len(), 4);
        let mut max_single: f64 = 0.0;
        for (i, (a, b)) in entries.iter().enumerate() {
            let single = spmm(&dev, &cfg, a, b).unwrap();
            assert_eq!(batch.outputs[i].max_abs_diff(&single.c), 0.0, "entry {i}");
            max_single = max_single.max(single.report.cycles);
        }
        // Few entries, many SMs: makespan = the heaviest entry.
        assert!((batch.total_cycles - max_single).abs() < 1e-9);
        assert!(batch.tflops(&dev) > 0.0);
    }

    #[test]
    fn batched_spmm_rejects_empty() {
        let dev = gh200();
        let cfg = KamiConfig::new(Algo::OneD, Precision::Fp16);
        assert!(spmm_batched(&dev, &cfg, &[]).is_err());
    }

    #[test]
    fn shape_mismatch_rejected() {
        let dev = gh200();
        let cfg = KamiConfig::new(Algo::OneD, Precision::Fp16);
        let a = random_block_sparse(64, 32, 16, 0.5, BlockOrder::RowMajor, 1);
        let b = Matrix::zeros(64, 64);
        assert!(matches!(
            spmm(&dev, &cfg, &a, &b),
            Err(KamiError::ShapeMismatch { .. })
        ));
    }
}
