//! # kami-bench
//!
//! Benchmark harness regenerating **every table and figure** of the
//! KAMI paper's evaluation (§5). See `DESIGN.md` for the experiment
//! index. Each `src/bin/figNN_*.rs` binary prints one figure's data;
//! `all_experiments` runs the lot and emits machine-readable JSON.

#![forbid(unsafe_code)]

pub mod runners;
pub mod select;
pub mod series;

pub use runners::*;
pub use select::{paper_orders, square_config, square_warps};
pub use series::{Series, Table};
