//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the environment record, one line per metric with its unit,
//! and as its last line one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! Exits with code 1 when any answer differs from the reference.

use std::path::PathBuf;
use std::process::ExitCode;

use sortnet_perfbench::run::{self, RunConfig};
use sortnet_perfbench::stats;
use sortnet_perfbench::workloads::{Workload, PINNED_SEED};

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn usage(message: &str) -> ExitCode {
    eprintln!("perfbench: {message}");
    eprintln!(
        "usage: perfbench --workload <grade-wide|batch-campaign|serve-wire> \
         [--seed <n>] [--seconds <s>] [--trace <0|1>]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = PINNED_SEED;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Workload::parse(&value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload {value}")),
            },
            "--seed" => match parse_seed(&value) {
                Some(s) => seed = s,
                None => return usage(&format!("bad seed {value}")),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 => seconds = s,
                _ => return usage(&format!("bad seconds {value}")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage(&format!("bad trace flag {value}")),
            },
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    // Sockets and span files; a relative path keeps socket paths short.
    let out_dir = PathBuf::from(".perfbench_out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        return usage(&format!("cannot create {}: {e}", out_dir.display()));
    }
    let cfg = RunConfig {
        workload,
        seed,
        seconds,
        trace,
        out_dir,
    };
    println!("env {}", stats::environment(workload.name(), seed));
    let outcome = run::run(&cfg);
    for note in &outcome.notes {
        println!("note {note}");
    }
    let mut metrics = Vec::new();
    for m in &outcome.metrics {
        let note = if m.note.is_empty() {
            String::new()
        } else {
            format!("  ({})", m.note)
        };
        println!(
            "{} {} = {} {}{note}",
            workload.name(),
            m.name,
            m.value,
            m.unit
        );
        metrics.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    let failed_ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "{} failed_ratio = {failed_ratio} share  ({} of {} operations)",
        workload.name(),
        outcome.failed,
        outcome.attempted
    );
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
