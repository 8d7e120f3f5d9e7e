//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           --smc PATH --models DIR --out DIR [--wrong-verdict] [--part]
//! ```
//!
//! Runs one workload for `S` seconds and prints, as the last line of
//! stdout, one JSON object `{"correct","attempted","failed","metrics"}`.
//! With `--trace 0` the metrics are the end-to-end ones; with
//! `--trace 1` a separate traced run replays each operation as public
//! layer calls and reports the per-layer metrics. `perfbench/run.py`
//! builds the program and this binary and passes the paths; see
//! `perfbench/README.md`.

mod layers;
mod oracle;
mod serve_mix;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

/// Command-line arguments.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `smc` binary `serve-mix` drives.
    pub smc: PathBuf,
    /// The bundled `models/` directory.
    pub models: PathBuf,
    /// Where span files and other run artefacts go.
    pub out: PathBuf,
    /// Flip one expected verdict, to prove the correctness gate is live.
    pub wrong_verdict: bool,
    /// Run as one of several processes of an untraced run and print the
    /// raw measurement for the parent (see `workloads::measure_in_parts`).
    pub part: bool,
}

/// One reported metric.
#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run reports back.
#[derive(Debug, Default)]
pub struct RunReport {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Figures printed in the summary but not part of the result object.
    pub notes: Vec<Metric>,
    /// The first few failure descriptions, echoed to stderr.
    pub failures: Vec<String>,
}

impl RunReport {
    /// Records the outcome of one operation.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.failures.len() < 5 {
                self.failures.push(e);
            }
        }
    }

    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn note(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.notes.push(Metric { name, value, unit });
    }
}

const WORKLOADS: [&str; 4] = ["arbiter3", "seitz-smv", "serve-mix", "batch-coi"];

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smc: PathBuf::new(),
        models: PathBuf::from("models"),
        out: PathBuf::from(".bench_build/perfbench-out"),
        wrong_verdict: false,
        part: false,
    };
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--wrong-verdict" || flag == "--part" {
            args.wrong_verdict |= flag == "--wrong-verdict";
            args.part |= flag == "--part";
            i += 1;
            continue;
        }
        let value = argv.get(i + 1).ok_or_else(|| format!("{flag} expects a value"))?;
        match flag {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value:?}")),
                }
            }
            "--smc" => args.smc = PathBuf::from(value),
            "--models" => args.models = PathBuf::from(value),
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
        i += 2;
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}, got {:?}", args.workload));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: cannot create {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    let mut report = match workloads::run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    for f in &report.failures {
        eprintln!("perfbench: {}: failed operation: {f}", args.workload);
    }
    let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
    report.note("failed_frac", failed_frac, "ratio");
    // Human-readable summary first; the JSON contract line comes last.
    println!(
        "# workload={} seed={} trace={} attempted={} failed={}",
        args.workload, args.seed, args.trace as u8, report.attempted, report.failed
    );
    for m in report.metrics.iter().chain(&report.notes) {
        println!("# {:<32} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let correct = report.failed == 0 && report.attempted > 0;
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!("\"{}\":{{\"value\":{},\"unit\":\"{}\"}}", m.name, json_num(m.value), m.unit)
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// A JSON number with every digit Rust's shortest round-trip format
/// gives; non-finite values (never expected) become 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}
