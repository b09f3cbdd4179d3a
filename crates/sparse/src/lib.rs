//! # kami-sparse
//!
//! Sparse extensions of KAMI (paper §4.6): block-sparse storage with
//! row-major and Z-Morton layouts (Fig 7), communication-avoiding SpMM,
//! and two-phase (symbolic + numeric) SpGEMM, all running on the same
//! simulated warp/tensor-core/shared-memory machinery as the dense
//! algorithms.
//!
//! ```
//! use kami_sparse::{gen, spmm::spmm, BlockOrder};
//! use kami_core::{Algo, KamiConfig};
//! use kami_gpu_sim::{device, Matrix, Precision};
//!
//! let dev = device::gh200();
//! let a = gen::random_block_sparse(64, 64, 16, 0.5, BlockOrder::ZMorton, 1);
//! let b = Matrix::seeded_uniform(64, 64, 2);
//! let cfg = KamiConfig::new(Algo::TwoD, Precision::Fp16);
//! let res = spmm(&dev, &cfg, &a, &b).unwrap();
//! assert!(res.useful_flops > 0);
//! ```

#![forbid(unsafe_code)]

pub mod bsr;
pub mod error;
pub mod gen;
pub mod io;
pub mod model;
pub mod morton;
pub mod spgemm;
pub mod spmm;

pub use bsr::{BlockOrder, BlockSparseMatrix, DEFAULT_BLOCK};
pub use error::SparseError;
pub use gen::{patterned_block_sparse, power_law_block_sparse, random_block_sparse, Pattern};
pub use io::{parse_mtx, parse_mtx_dense, write_mtx, MtxError};
pub use spgemm::numeric::{spgemm_batched, SpgemmBatchedResult};
pub use spgemm::{spgemm, symbolic, SpgemmResult, SymbolicResult};
pub use spmm::{reference_spmm, spmm, spmm_batched, SpmmBatchedResult, SpmmResult};
