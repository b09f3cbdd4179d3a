//! # kami-bench
//!
//! Benchmark harness regenerating **every table and figure** of the
//! KAMI paper's evaluation (§5). [`EXPERIMENTS`] is the experiment
//! table of `DESIGN.md`'s index: `all_experiments` runs it (or the
//! entries `--only <slug-prefix>` selects) and can export every table
//! as JSON. The `*_study` binaries measure and gate this repo's own
//! extensions through one harness, [`study::Study`].

#![forbid(unsafe_code)]

pub mod runners;
pub mod select;
pub mod series;
pub mod study;

pub use runners::*;
pub use select::{paper_orders, square_config, square_warps};
pub use series::{Series, Table};
pub use study::Study;
