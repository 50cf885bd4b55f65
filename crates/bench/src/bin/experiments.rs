//! Regenerates `EXPERIMENTS.md`.
//!
//! ```text
//! cargo run --release -p sortnet-bench --bin experiments > EXPERIMENTS.md
//! ```
//!
//! Each table juxtaposes the paper's closed-form bound with the value
//! measured from the constructions in this workspace; the `match` /
//! `covers` / `passes` columns are the reproduction verdicts.

fn main() {
    print!("{}", sortnet_bench::experiments_markdown());
}
