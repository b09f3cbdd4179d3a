//! Runs the experiment table (`kami_bench::EXPERIMENTS`, DESIGN.md §4):
//! every table and figure of the evaluation with its summaries and paper
//! notes. `--only PREFIX` keeps the entries whose slug starts with
//! `PREFIX`; `--out DIR` also writes each table as `DIR/<slug>.json`.
//!
//! ```text
//! cargo run --release -p kami-bench --bin all_experiments [-- --only fig15] [--out target/experiments]
//! ```

use kami_bench::{experiments, study::write_json};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let (mut only, mut out_dir) = (String::new(), None::<PathBuf>);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match (flag.as_str(), args.next()) {
            ("--only", Some(prefix)) => only = prefix,
            ("--out", Some(dir)) => out_dir = Some(dir.into()),
            _ => {
                eprintln!("usage: all_experiments [--only SLUG-PREFIX] [--out DIR]");
                return ExitCode::from(2);
            }
        }
    }
    let selected = experiments(&only);
    if selected.is_empty() {
        eprintln!("no experiment slug starts with `{only}`");
        return ExitCode::from(2);
    }

    for (_, run, note) in selected {
        let tables = run();
        if !note.is_empty() {
            println!("{note}");
        }
        if let Some(dir) = &out_dir {
            for (slug, t) in &tables {
                write_json(&dir.join(format!("{slug}.json")), t);
            }
        }
    }
    if only.is_empty() {
        println!("done: every table and figure of the evaluation regenerated.");
    }
    ExitCode::SUCCESS
}
