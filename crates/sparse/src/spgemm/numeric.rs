//! Numeric SpGEMM phase (paper §4.6): the CA compute pattern over
//! block-sparse A and B, accumulating C blocks in registers.
//!
//! The result-block accumulation follows Hong & Buluç's index-driven
//! scheme: the symbolic structure pre-assigns one register accumulator
//! per output block, and every `A(i,l)·B(l,j)` pair found by traversing
//! the (communicated) index arrays lands directly in its accumulator —
//! no hashing or sorting in the inner loop.

use crate::bsr::BlockSparseMatrix;
use crate::spgemm::symbolic::{symbolic, SymbolicResult};
use crate::spmm::load_blocks;
use kami_core::config::{Algo, KamiConfig};
use kami_core::error::KamiError;
use kami_core::grid::LayeredGrid;
use kami_core::layout::{cube_pos, tile_bytes, SmemMap};
use kami_gpu_sim::{
    BlockKernel, BufferId, DeviceSpec, Engine, ExecutionReport, GlobalMemory, Matrix, Precision,
    WarpProgram,
};
use std::collections::{BTreeMap, HashMap};

/// Result of a block-level SpGEMM.
#[derive(Debug, Clone)]
pub struct SpgemmResult {
    /// Sparse product with the symbolic phase's structure.
    pub c: BlockSparseMatrix,
    pub report: ExecutionReport,
    /// Structure computed by the symbolic kernel.
    pub nnz_blocks: usize,
    /// Useful flops (`2·bs³` per block pair).
    pub useful_flops: u64,
}

impl SpgemmResult {
    pub fn block_tflops(&self, device: &DeviceSpec) -> f64 {
        self.report.block_tflops(device, self.useful_flops)
    }
}

fn validate(
    cfg: &KamiConfig,
    a: &BlockSparseMatrix,
    b: &BlockSparseMatrix,
    device: &DeviceSpec,
) -> Result<(), KamiError> {
    if a.cols() != b.rows() || a.block_size() != b.block_size() {
        return Err(KamiError::ShapeMismatch {
            detail: format!(
                "A is {}x{} (block {}), B is {}x{} (block {})",
                a.rows(),
                a.cols(),
                a.block_size(),
                b.rows(),
                b.cols(),
                b.block_size()
            ),
        });
    }
    let q = cfg.algo.grid_extent(cfg.warps)?;
    let (rba, cba, cbb) = (a.rows_blk(), a.cols_blk(), b.cols_blk());
    let bad = |detail: String| Err(KamiError::Indivisible { detail });
    match cfg.algo {
        Algo::OneD => {
            if rba % q != 0 || cba % q != 0 {
                return bad(format!(
                    "1D SpGEMM with p={q} needs p | {rba} A block rows and p | {cba} B block rows"
                ));
            }
        }
        Algo::TwoD => {
            if rba % q != 0 || cba % q != 0 || cbb % q != 0 {
                return bad(format!(
                    "2D SpGEMM with √p={q} needs √p | block dims {rba}, {cba}, {cbb}"
                ));
            }
        }
        Algo::ThreeD => {
            if rba % q != 0 || cba % (q * q) != 0 || cbb % q != 0 {
                return bad(format!(
                    "3D SpGEMM with ∛p={q} needs ∛p | {rba}, ∛p² | {cba}, ∛p | {cbb}"
                ));
            }
        }
    }
    kami_core::tensor_path(device, cfg.precision)?;
    Ok(())
}

/// Validate one SpGEMM and stage it: the symbolic phase, A and B
/// (densified) uploaded at the input precision, C zeroed, and the
/// numeric kernel built over the three buffers. Returns the memory, the
/// kernel, C's buffer and the symbolic structure.
fn stage(
    device: &DeviceSpec,
    cfg: &KamiConfig,
    a: &BlockSparseMatrix,
    b: &BlockSparseMatrix,
) -> Result<(GlobalMemory, BlockKernel, BufferId, SymbolicResult), KamiError> {
    validate(cfg, a, b, device)?;
    let sym = symbolic(a, b);
    let prec = cfg.precision;
    let mut gmem = GlobalMemory::new();
    let ab = gmem.upload("A", &a.to_dense(), prec);
    let bb = gmem.upload("B", &b.to_dense(), prec);
    let cb = gmem.alloc_zeroed("C", a.rows(), b.cols(), prec);
    let kernel = match cfg.algo {
        Algo::OneD => build_1d(cfg, a, b, &sym, ab, bb, cb),
        Algo::TwoD | Algo::ThreeD => build_grid(LayeredGrid::of(cfg), a, b, &sym, ab, bb, cb),
    };
    Ok((gmem, kernel, cb, sym))
}

/// The numeric block kernel [`spgemm`] runs for `cfg`, `a` and `b`,
/// after the same validation.
pub fn spgemm_kernel(
    device: &DeviceSpec,
    cfg: &KamiConfig,
    a: &BlockSparseMatrix,
    b: &BlockSparseMatrix,
) -> Result<BlockKernel, KamiError> {
    stage(device, cfg, a, b).map(|(_, kernel, ..)| kernel)
}

/// Run symbolic + numeric SpGEMM on the simulator.
pub fn spgemm(
    device: &DeviceSpec,
    cfg: &KamiConfig,
    a: &BlockSparseMatrix,
    b: &BlockSparseMatrix,
) -> Result<SpgemmResult, KamiError> {
    let (mut gmem, kernel, cb, sym) = stage(device, cfg, a, b)?;
    let report = Engine::with_cost(device, cfg.cost.clone())
        .run_kernel(
            &kernel,
            &mut gmem,
            &kami_gpu_sim::RunOptions::default().with_backend(cfg.backend),
        )?
        .report;

    // Assemble sparse C from the dense buffer along the symbolic pattern.
    let bs = a.block_size();
    let c_dense = gmem.download(cb);
    let mut entries = Vec::with_capacity(sym.nnz_blocks());
    for i in 0..sym.rows_blk {
        for &j in sym.row(i) {
            entries.push(((i, j), c_dense.submatrix(i * bs, j * bs, bs, bs)));
        }
    }
    let c = BlockSparseMatrix::from_blocks(a.rows(), b.cols(), bs, a.order(), entries);
    Ok(SpgemmResult {
        c,
        report,
        nnz_blocks: sym.nnz_blocks(),
        useful_flops: sym.useful_flops(bs),
    })
}

/// Declare and zero one register accumulator per C block this warp owns,
/// keyed by block `(row, col)`. The map iterates in that order, so the
/// C stores of a kernel come out the same on every build.
fn declare_c_accumulators(
    w: &mut WarpProgram,
    sym: &SymbolicResult,
    row_range: (usize, usize),
    col_range: (usize, usize),
    bs: usize,
    prec: Precision,
) -> BTreeMap<(usize, usize), usize> {
    let mut accs = BTreeMap::new();
    for i in row_range.0..row_range.1 {
        for &j in sym.row(i) {
            if (col_range.0..col_range.1).contains(&j) {
                let f = w.frag(format!("Cacc({i},{j})"), bs, bs, prec);
                w.zero_acc(f);
                accs.insert((i, j), f);
            }
        }
    }
    accs
}

/// 1D: warp `i` owns A's (and C's) block-row slab; B block-row slabs are
/// broadcast stage by stage (values + RowPtr/ColBlkIdx metadata).
fn build_1d(
    cfg: &KamiConfig,
    a: &BlockSparseMatrix,
    b: &BlockSparseMatrix,
    sym: &SymbolicResult,
    ab: BufferId,
    bb: BufferId,
    cbuf: BufferId,
) -> BlockKernel {
    let p = cfg.warps;
    let prec = cfg.precision;
    let bs = a.block_size();
    let rbqa = a.rows_blk() / p;
    let rbqb = b.rows_blk() / p;
    let block_bytes = tile_bytes(bs, bs, prec);
    // Broadcast region: worst-case B slab.
    let max_slab = (0..p)
        .map(|z| b.window(z * rbqb, rbqb, 0, b.cols_blk()).len())
        .max()
        .unwrap_or(0);
    let region = max_slab * block_bytes + BlockSparseMatrix::metadata_bytes(rbqb, max_slab);
    let map = SmemMap::new(0, 0, 1, region.max(1), 0);

    BlockKernel::spmd(p, |i, w| {
        // Own A blocks and C accumulators.
        let owned_a = a.window(i * rbqa, rbqa, 0, a.cols_blk());
        let a_frags: HashMap<(usize, usize), usize> = load_blocks(w, "A", &owned_a, ab, bs, prec)
            .into_iter()
            .collect();
        let own_b = b.window(i * rbqb, rbqb, 0, b.cols_blk());
        let b_frags = load_blocks(w, "B", &own_b, bb, bs, prec);
        let c_accs = declare_c_accumulators(
            w,
            sym,
            (i * rbqa, (i + 1) * rbqa),
            (0, sym.cols_blk),
            bs,
            prec,
        );

        for z in 0..p {
            let slab = b.window(z * rbqb, rbqb, 0, b.cols_blk());
            let meta = BlockSparseMatrix::metadata_bytes(rbqb, slab.len());
            if i == z {
                w.meta_store(map.b_addr(0), meta);
                for (bi, ((_, _), f)) in b_frags.iter().enumerate() {
                    w.shared_store(*f, map.b_addr(0) + meta + bi * block_bytes);
                }
            }
            w.barrier();
            // Receivers fetch only the B blocks their A pattern needs
            // (Hong–Buluç indexing through the received ColBlkIdx).
            let mut stage_b: HashMap<(usize, usize), usize> = HashMap::new();
            if i != z {
                w.meta_load(map.b_addr(0), meta);
                for (bi, &(br, bc, _)) in slab.iter().enumerate() {
                    // Fetch only blocks whose row matches some owned
                    // A-block column (sparsity-aware indexing).
                    let needed = owned_a.iter().any(|&(_, l, _)| l == br);
                    if needed {
                        let f = w.frag(format!("BStage{z}({br},{bc})"), bs, bs, prec);
                        w.shared_load(f, map.b_addr(0) + meta + bi * block_bytes);
                        stage_b.insert((br, bc), f);
                    }
                }
            } else {
                stage_b = b_frags.iter().copied().collect();
            }
            w.barrier();
            // Pair every owned A(i,l) with every received B(l,j).
            for &(br, l, _) in &owned_a {
                if l / rbqb != z {
                    continue;
                }
                for (j, _) in b.row_blocks(l) {
                    let af = a_frags[&(br, l)];
                    let bf = stage_b[&(l, j)];
                    let cf = c_accs[&(br, j)];
                    w.mma(cf, af, bf);
                }
            }
        }
        for (&(bi, j), &f) in &c_accs {
            w.global_store(f, cbuf, bi * bs, j * bs);
        }
    })
}

/// 2D and 3D: the [`LayeredGrid`] of the dense kernels — one `√p×√p`
/// grid for 2D, `∛p` stacked `∛p×∛p` grids over k-chunks for 3D. A
/// shards broadcast along grid rows, B shards along grid columns, both
/// with their index metadata; 3D reduces the layer partials through
/// global-memory accumulation.
fn build_grid(
    grid: LayeredGrid,
    a: &BlockSparseMatrix,
    b: &BlockSparseMatrix,
    sym: &SymbolicResult,
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
    let bs = a.block_size();
    let rbqa = a.rows_blk() / q;
    let cbsa = a.cols_blk() / (layers * q); // A shard extent in block cols
    let cbqb = b.cols_blk() / q;
    let block_bytes = tile_bytes(bs, bs, prec);
    let a_region = rbqa * cbsa * block_bytes + BlockSparseMatrix::metadata_bytes(rbqa, rbqa * cbsa);
    let b_region = cbsa * cbqb * block_bytes + BlockSparseMatrix::metadata_bytes(cbsa, cbsa * cbqb);
    let map = SmemMap::new(layers * q, a_region, layers * q, b_region, 0);

    BlockKernel::spmd(layers * q * q, |i, w| {
        let (l, r, c) = cube_pos(i, q);
        let acol0 = |cc: usize| l * (a.cols_blk() / layers) + cc * cbsa;
        let owned_a = a.window(r * rbqa, rbqa, acol0(c), cbsa);
        let a_frags: HashMap<(usize, usize), usize> = load_blocks(w, "A", &owned_a, ab, bs, prec)
            .into_iter()
            .collect();
        let owned_b = b.window(acol0(r), cbsa, c * cbqb, cbqb);
        let b_frags = load_blocks(w, "B", &owned_b, bb, bs, prec);
        let c_accs = declare_c_accumulators(
            w,
            sym,
            (r * rbqa, (r + 1) * rbqa),
            (c * cbqb, (c + 1) * cbqb),
            bs,
            prec,
        );

        let a_reg_id = l * q + r;
        let b_reg_id = l * q + c;
        for z in 0..q {
            let send_a = c == z;
            let send_b = r == z;
            let stage_a = a.window(r * rbqa, rbqa, acol0(z), cbsa);
            let stage_bw = b.window(acol0(z), cbsa, c * cbqb, cbqb);
            let a_meta = BlockSparseMatrix::metadata_bytes(rbqa, stage_a.len());
            let b_meta = BlockSparseMatrix::metadata_bytes(cbsa, stage_bw.len());
            if send_a {
                w.meta_store(map.a_addr(a_reg_id), a_meta);
                for (bi, &(br, bc, _)) in stage_a.iter().enumerate() {
                    w.shared_store(
                        a_frags[&(br, bc)],
                        map.a_addr(a_reg_id) + a_meta + bi * block_bytes,
                    );
                }
            }
            if send_b {
                w.meta_store(map.b_addr(b_reg_id), b_meta);
                for (bi, ((_, _), f)) in b_frags.iter().enumerate() {
                    w.shared_store(*f, map.b_addr(b_reg_id) + b_meta + bi * block_bytes);
                }
            }
            w.barrier();
            let mut sa: HashMap<(usize, usize), usize> = HashMap::new();
            let mut sb: HashMap<(usize, usize), usize> = HashMap::new();
            if send_a {
                sa = stage_a
                    .iter()
                    .map(|&(br, bc, _)| ((br, bc), a_frags[&(br, bc)]))
                    .collect();
            } else {
                w.meta_load(map.a_addr(a_reg_id), a_meta);
                for (bi, &(br, bc, _)) in stage_a.iter().enumerate() {
                    let f = w.frag(format!("AStage{z}({br},{bc})"), bs, bs, prec);
                    w.shared_load(f, map.a_addr(a_reg_id) + a_meta + bi * block_bytes);
                    sa.insert((br, bc), f);
                }
            }
            if send_b {
                sb = b_frags.iter().copied().collect();
            } else {
                w.meta_load(map.b_addr(b_reg_id), b_meta);
                for (bi, &(br, bc, _)) in stage_bw.iter().enumerate() {
                    let f = w.frag(format!("BStage{z}({br},{bc})"), bs, bs, prec);
                    w.shared_load(f, map.b_addr(b_reg_id) + b_meta + bi * block_bytes);
                    sb.insert((br, bc), f);
                }
            }
            w.barrier();
            for &(br, lblk, _) in &stage_a {
                for &(lb, j, _) in &stage_bw {
                    if lb == lblk {
                        w.mma(c_accs[&(br, j)], sa[&(br, lblk)], sb[&(lblk, j)]);
                    }
                }
            }
        }
        for (&(bi, j), &f) in &c_accs {
            if grid.accumulate {
                w.global_accumulate(f, cbuf, bi * bs, j * bs);
            } else {
                w.global_store(f, cbuf, bi * bs, j * bs);
            }
        }
    })
}

/// Result of a batched SpGEMM.
#[derive(Debug, Clone)]
pub struct SpgemmBatchedResult {
    pub outputs: Vec<BlockSparseMatrix>,
    /// LPT makespan over SMs (sparse entries differ in cost).
    pub total_cycles: f64,
    pub useful_flops: u64,
}

/// Run a batch of independent SpGEMMs (symbolic + numeric each),
/// LPT-scheduled across SMs.
pub fn spgemm_batched(
    device: &DeviceSpec,
    cfg: &KamiConfig,
    entries: &[(BlockSparseMatrix, BlockSparseMatrix)],
) -> Result<SpgemmBatchedResult, KamiError> {
    use rayon::prelude::*;
    if entries.is_empty() {
        return Err(KamiError::ShapeMismatch {
            detail: "empty batch".into(),
        });
    }
    let results: Vec<Result<SpgemmResult, KamiError>> = entries
        .par_iter()
        .map(|(a, b)| spgemm(device, cfg, a, b))
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
    Ok(SpgemmBatchedResult {
        outputs,
        total_cycles: kami_core::lpt_makespan(&cycles, device.num_sms as usize),
        useful_flops: useful,
    })
}

/// Dense reference for SpGEMM correctness checks.
pub fn reference_spgemm_dense(
    a: &BlockSparseMatrix,
    b: &BlockSparseMatrix,
    prec: Precision,
) -> Matrix {
    kami_core::reference::reference_gemm(&a.to_dense(), &b.to_dense(), prec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bsr::BlockOrder;
    use crate::gen::random_block_sparse;
    use kami_gpu_sim::device::gh200;

    fn check(algo: Algo, warps: usize, n: usize, density: f64) {
        let dev = gh200();
        let prec = Precision::Fp16;
        let cfg = KamiConfig::new(algo, prec).with_warps(warps);
        let order = if algo == Algo::OneD {
            BlockOrder::RowMajor
        } else {
            BlockOrder::ZMorton
        };
        let a = random_block_sparse(n, n, 16, density, order, 13);
        let b = random_block_sparse(n, n, 16, density, order, 14);
        let res = spgemm(&dev, &cfg, &a, &b).unwrap();
        let want = reference_spgemm_dense(&a, &b, prec);
        let got = res.c.to_dense();
        let err = got.rel_frobenius_error(&want);
        assert!(err < 5e-3, "{} err {err}", algo.label());
    }

    #[test]
    fn spgemm_1d_correct() {
        check(Algo::OneD, 4, 64, 0.5);
    }

    #[test]
    fn spgemm_2d_correct() {
        check(Algo::TwoD, 4, 64, 0.5);
    }

    #[test]
    fn spgemm_3d_correct() {
        check(Algo::ThreeD, 8, 128, 0.5);
    }

    #[test]
    fn dense_density_matches_dense_gemm() {
        check(Algo::OneD, 4, 64, 1.0);
    }

    #[test]
    fn empty_product() {
        let dev = gh200();
        let cfg = KamiConfig::new(Algo::OneD, Precision::Fp16);
        let a = random_block_sparse(64, 64, 16, 0.0, BlockOrder::RowMajor, 1);
        let b = random_block_sparse(64, 64, 16, 0.5, BlockOrder::RowMajor, 2);
        let res = spgemm(&dev, &cfg, &a, &b).unwrap();
        assert_eq!(res.nnz_blocks, 0);
        assert_eq!(res.useful_flops, 0);
        assert_eq!(res.c.nnz_blocks(), 0);
    }

    #[test]
    fn batched_spgemm_matches_per_entry() {
        let dev = gh200();
        let cfg = KamiConfig::new(Algo::OneD, Precision::Fp16);
        let entries: Vec<_> = (0..3)
            .map(|i| {
                (
                    random_block_sparse(64, 64, 16, 0.5, BlockOrder::RowMajor, 80 + i as u64),
                    random_block_sparse(64, 64, 16, 0.5, BlockOrder::RowMajor, 90 + i as u64),
                )
            })
            .collect();
        let batch = spgemm_batched(&dev, &cfg, &entries).unwrap();
        assert_eq!(batch.outputs.len(), 3);
        for (i, (a, b)) in entries.iter().enumerate() {
            let single = spgemm(&dev, &cfg, a, b).unwrap();
            assert_eq!(
                batch.outputs[i]
                    .to_dense()
                    .max_abs_diff(&single.c.to_dense()),
                0.0,
                "entry {i}"
            );
        }
        assert!(batch.total_cycles > 0.0);
    }

    #[test]
    fn spgemm_charges_metadata_traffic() {
        let dev = gh200();
        let prec = Precision::Fp16;
        let a = random_block_sparse(64, 64, 16, 0.5, BlockOrder::ZMorton, 13);
        let b = random_block_sparse(64, 64, 16, 0.5, BlockOrder::ZMorton, 14);
        let r = spgemm(&dev, &KamiConfig::new(Algo::TwoD, prec), &a, &b).unwrap();
        // Communication must exceed the pure block values (metadata rides
        // along): blocks written = stage_a + stage_b unions <= nnz(A)+nnz(B).
        let value_bytes = ((a.nnz_blocks() + b.nnz_blocks()) * 16 * 16 * 2) as u64;
        assert!(r.report.smem_bytes_written > 0);
        assert!(
            r.report.smem_bytes_written <= value_bytes + 4096,
            "written {} vs values {}",
            r.report.smem_bytes_written,
            value_bytes
        );
        assert!(r.report.smem_bytes_written % 2 != 1); // sanity
    }

    #[test]
    fn kernel_programs_are_reproducible() {
        let dev = gh200();
        let a = random_block_sparse(64, 64, 16, 0.5, BlockOrder::ZMorton, 13);
        let b = random_block_sparse(64, 64, 16, 0.5, BlockOrder::ZMorton, 14);
        for (algo, warps) in [(Algo::OneD, 4), (Algo::TwoD, 4), (Algo::ThreeD, 8)] {
            let cfg = KamiConfig::new(algo, Precision::Fp16).with_warps(warps);
            let build = || format!("{:?}", spgemm_kernel(&dev, &cfg, &a, &b).unwrap());
            let first = build();
            for _ in 0..4 {
                assert_eq!(
                    build(),
                    first,
                    "{} kernel differs between builds",
                    algo.label()
                );
            }
        }
    }
}
