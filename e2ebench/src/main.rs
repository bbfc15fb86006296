//! `e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints human-readable lines, then one JSON
//! object as the last line of stdout: `correct`, `attempted`, `failed`
//! and `metrics` (end-to-end with `--trace 0`, per-layer with `--trace 1`).
//! Exits 1 on a usage or run error (no result line) and 2 when an honest
//! operation failed or an accepted answer differed from ground truth
//! (result line with `"correct": false` and no metrics).

use std::process::ExitCode;

use sip_e2ebench::{run, RunConfig, Shape, Workload};

fn usage(problem: &str) -> ExitCode {
    eprintln!("e2ebench: {problem}");
    eprintln!(
        "usage: e2ebench --workload <ingest|oneshot_fleet|interactive_large> --seed <n> \
         --seconds <s> --trace <0|1>"
    );
    ExitCode::from(1)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let Some(workload) = value("--workload").and_then(Workload::parse) else {
        return usage("missing or unknown --workload");
    };
    let Some(seed) = value("--seed").and_then(|s| s.parse::<u64>().ok()) else {
        return usage("missing or invalid --seed");
    };
    let Some(seconds) = value("--seconds").and_then(|s| s.parse::<f64>().ok()) else {
        return usage("missing or invalid --seconds");
    };
    let trace = match value("--trace") {
        Some("0") | None => false,
        Some("1") => true,
        Some(_) => return usage("--trace takes 0 or 1"),
    };
    let cfg = RunConfig {
        workload,
        shape: Shape::standard(workload),
        seed,
        seconds,
        trace,
    };
    let report = match run(cfg) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("e2ebench: run failed: {e}");
            return ExitCode::from(1);
        }
    };
    for note in &report.notes {
        println!("# {note}");
    }
    for m in &report.metrics {
        println!("# {} = {} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.to_json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("e2ebench: an honest operation failed or an answer was wrong");
        ExitCode::from(2)
    }
}
