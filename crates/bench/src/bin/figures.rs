//! Regenerates every table and figure of the paper's evaluation.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p nfc-bench --bin figures -- all
//! cargo run --release -p nfc-bench --bin figures -- fig6 fig15
//! cargo run --release -p nfc-bench --bin figures -- fig7 --quick
//! ```
//!
//! Results print to stdout in the paper's row/series layout and are
//! written as JSON under `results/`, the committed records `ci/record.sh`
//! regenerates. A `--quick` sweep is a smoke run: it prints its tables
//! and writes nothing. An unknown experiment name or a failed write
//! exits non-zero.

use nfc_bench::experiments as exp;
use nfc_bench::util::ExperimentResult;
use std::path::Path;
use std::process::ExitCode;

/// One experiment; the flag is `--quick`.
type Experiment = fn(bool) -> ExperimentResult;

/// Every experiment, in `all` order.
const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("table2", |_| exp::table2()),
    ("table3", |_| exp::table3()),
    ("fig5", exp::fig5),
    ("fig6", exp::fig6),
    ("fig7", exp::fig7),
    ("fig8", exp::fig8),
    ("fig8e", |_| exp::fig8e()),
    ("fig13", |_| exp::fig13_structure()),
    ("fig14", exp::fig14),
    ("fig15", exp::fig15),
    ("fig17", exp::fig17),
    ("ablations", exp::ablations),
    ("churn", exp::churn),
    ("corun_sim", exp::corun_sim),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let wanted: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| *a != "--quick")
        .collect();
    let runs: Vec<_> = if wanted.is_empty() || wanted.contains(&"all") {
        EXPERIMENTS.iter().collect()
    } else {
        let mut runs = Vec::new();
        for w in wanted {
            match EXPERIMENTS.iter().find(|(id, _)| *id == w) {
                Some(e) => runs.push(e),
                None => {
                    eprintln!("unknown experiment: {w}");
                    return ExitCode::FAILURE;
                }
            }
        }
        runs
    };
    let out_dir = Path::new("results");
    for (_, experiment) in &runs {
        let result = experiment(quick);
        if quick {
            continue;
        }
        if let Err(e) = result.save(out_dir) {
            eprintln!("could not save {}: {e}", result.id);
            return ExitCode::FAILURE;
        }
    }
    let written = if quick {
        "nothing written (--quick)"
    } else {
        "JSON written to results"
    };
    println!("\n{} experiments run; {written}", runs.len());
    ExitCode::SUCCESS
}
