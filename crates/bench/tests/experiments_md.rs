//! The committed `EXPERIMENTS.md` is exactly what the experiment harness
//! generates, so the paper's reproduction tables can be read without a
//! build and cannot drift from the code.  Regenerate the file with
//! `cargo run --release -p sortnet-bench --bin experiments > EXPERIMENTS.md`.

use sortnet_bench::experiments_markdown;

#[test]
fn experiments_md_is_the_generated_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
    let committed = std::fs::read_to_string(path).expect("EXPERIMENTS.md is committed");
    let generated = experiments_markdown();
    if committed == generated {
        return;
    }
    let line = committed
        .lines()
        .zip(generated.lines())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| committed.lines().count().min(generated.lines().count()));
    panic!(
        "EXPERIMENTS.md is stale from line {}:\n  committed: {:?}\n  generated: {:?}",
        line + 1,
        committed.lines().nth(line),
        generated.lines().nth(line),
    );
}
