//! The one front end of every `*_study` binary: one argument parser,
//! one JSON writer, one gate reporter.
//!
//! A study starts from [`Study::from_env`], records named checks with
//! [`Study::gate`], and ends with [`Study::finish`] on its
//! `#[derive(Serialize)]` record. The record is written to `--out`
//! (default `target/BENCH_<name>.json`) after the `study`, `quick` and
//! `gates` keys. Non-finite numbers are written as `null` and labels are
//! escaped, so every record is valid JSON.

use serde::{Serialize, Value};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One named acceptance check.
#[derive(Serialize)]
struct Gate {
    name: String,
    passed: bool,
}

/// A running study: its flags and the gates recorded so far.
pub struct Study {
    name: &'static str,
    /// `--quick`: the CI-sized run.
    pub quick: bool,
    /// `--out PATH`: where [`Study::finish`] writes the record.
    pub out: PathBuf,
    gates: Vec<Gate>,
}

impl Study {
    /// Parse `--quick` and `--out PATH`. Any other flag, or `--out`
    /// without a path, returns the usage line.
    fn parse(name: &'static str, args: &[String]) -> Result<Study, String> {
        let out = PathBuf::from(format!("target/BENCH_{name}.json"));
        let mut study = Study {
            name,
            quick: false,
            out,
            gates: Vec::new(),
        };
        let usage = || format!("usage: {name}_study [--quick] [--out PATH]");
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => study.quick = true,
                "--out" => study.out = args.next().ok_or_else(usage)?.into(),
                _ => return Err(usage()),
            }
        }
        Ok(study)
    }

    /// Parse `--quick` and `--out PATH` from the process arguments. A
    /// bad flag prints the usage line and exits with code 2.
    pub fn from_env(name: &'static str) -> Study {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Study::parse(name, &args).unwrap_or_else(|usage| {
            eprintln!("{usage}");
            std::process::exit(2);
        })
    }

    /// Record one named gate.
    pub fn gate(&mut self, name: impl Into<String>, passed: bool) {
        let name = name.into();
        self.gates.push(Gate { name, passed });
    }

    /// Whether every gate recorded so far passed.
    fn passed(&self) -> bool {
        self.gates.iter().all(|g| g.passed)
    }

    /// The document [`Study::finish`] writes: `study`, `quick` and
    /// `gates`, then the record's own fields in declaration order.
    fn document(&self, record: &impl Serialize) -> Value {
        let Value::Object(fields) = record.to_value() else {
            panic!("a study record serializes to an object");
        };
        let study = Value::String(format!("{}_study", self.name));
        let mut pairs = vec![
            ("study".into(), study),
            ("quick".into(), Value::Bool(self.quick)),
            ("gates".into(), self.gates.to_value()),
        ];
        let clash = fields
            .iter()
            .find(|(k, _)| pairs.iter().any(|(p, _)| p == k));
        assert!(clash.is_none(), "{clash:?} collides with the study wrapper");
        pairs.extend(fields);
        Value::Object(pairs)
    }

    /// Write a side file next to the record: `--out` with its extension
    /// replaced by `ext`.
    pub fn write_side(&self, ext: &str, contents: &str) {
        write_file(&self.out.with_extension(ext), contents);
    }

    /// Write the record, print one PASS/FAIL line per gate, and fail
    /// the process if any gate failed.
    pub fn finish(self, record: &impl Serialize) -> ExitCode {
        write_json(&self.out, &self.document(record));
        for g in &self.gates {
            if g.passed {
                println!("PASS: {}", g.name);
            } else {
                eprintln!("FAIL: {}", g.name);
            }
        }
        if self.passed() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

/// Write `value` as pretty JSON to `path`, creating its parent directory.
pub fn write_json(path: &Path, value: &impl Serialize) {
    let json = serde_json::to_string_pretty(value).expect("records serialize");
    write_file(path, &(json + "\n"));
}

fn write_file(path: &Path, contents: &str) {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    }
    std::fs::write(path, contents).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn out_defaults_per_study_and_can_be_overridden() {
        let s = Study::parse("fleet", &[]).unwrap();
        assert!(!s.quick);
        assert_eq!(s.out, PathBuf::from("target/BENCH_fleet.json"));
        let s = Study::parse("fleet", &args(&["--out", "x/y.json", "--quick"])).unwrap();
        assert!(s.quick);
        assert_eq!(s.out, PathBuf::from("x/y.json"));
    }

    #[test]
    fn unknown_and_dangling_flags_are_rejected() {
        for bad in [
            &["--json", "a.json"][..],
            &["--out"],
            &["--fast"],
            &["extra"],
        ] {
            let err = Study::parse("sched", &args(bad)).err().unwrap();
            assert_eq!(err, "usage: sched_study [--quick] [--out PATH]");
        }
    }

    #[derive(Serialize)]
    struct Row {
        label: String,
        ratio: f64,
    }

    #[derive(Serialize)]
    struct Record {
        rows: Vec<Row>,
        worst: f64,
    }

    #[test]
    fn non_finite_values_and_quoted_labels_write_valid_json() {
        let mut study = Study::parse("test", &[]).unwrap();
        study.gate("ratio >= 1", false);
        let record = Record {
            rows: vec![
                Row {
                    label: "a \"quoted\" \\ label".into(),
                    ratio: f64::NAN,
                },
                Row {
                    label: "b".into(),
                    ratio: f64::INFINITY,
                },
            ],
            worst: f64::NEG_INFINITY,
        };
        let dir = std::env::temp_dir().join(format!("kami_bench_study_{}", std::process::id()));
        let path = dir.join("nested").join("BENCH_test.json");
        write_json(&path, &study.document(&record));
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();

        let v: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(v["study"], "test_study");
        assert_eq!(v["quick"], false);
        assert_eq!(v["gates"][0]["name"], "ratio >= 1");
        assert_eq!(v["gates"][0]["passed"], false);
        assert_eq!(v["rows"][0]["label"], "a \"quoted\" \\ label");
        assert!(v["rows"][0]["ratio"].is_null());
        assert!(v["rows"][1]["ratio"].is_null());
        assert!(v["worst"].is_null());
    }

    #[test]
    fn one_failing_gate_fails_the_study() {
        let mut study = Study::parse("test", &[]).unwrap();
        assert!(study.passed(), "no gates: nothing failed");
        study.gate("first", true);
        assert!(study.passed());
        study.gate("second", false);
        study.gate("third", true);
        assert!(!study.passed());
    }
}
