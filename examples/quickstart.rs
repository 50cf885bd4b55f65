//! Quickstart: build a sorting network, verify it three ways, and see why
//! every test in the paper's minimal test set is necessary.
//!
//! ```text
//! cargo run -p sortnet-cli --example quickstart
//! ```

use sortnet_combinat::BitString;
use sortnet_network::builders::batcher::odd_even_merge_sort;
use sortnet_network::lanes::Backend;
use sortnet_network::render::ascii_diagram;
use sortnet_testsets::adversary;
use sortnet_testsets::verify::{try_verify_on, Property, Strategy};

fn main() {
    let n = 8;
    let sorter = odd_even_merge_sort(n);
    println!("Batcher's merge-exchange sorter on {n} lines");
    println!("  comparators: {}", sorter.size());
    println!("  depth:       {}", sorter.depth());
    println!("  notation:    {}", sorter.to_compact_string());
    println!("\n{}", ascii_diagram(&sorter));

    // It sorts arbitrary values...
    let sorted = sorter.apply_vec(&[42, 7, 99, 1, 13, 8, 77, 3]);
    println!("apply_vec([42,7,99,1,13,8,77,3]) = {sorted:?}");

    // ...and passes all three verification strategies of the paper.
    for strategy in [
        Strategy::Exhaustive,
        Strategy::MinimalBinary,
        Strategy::Permutation,
    ] {
        let report = try_verify_on(&sorter, Property::Sorter, strategy, Backend::active())
            .expect("n = 8 is well within every sweep bound");
        println!(
            "verify(sorter) with {:?}: passed = {}, tests run = {}",
            strategy, report.passed, report.tests_run
        );
    }

    // Why can't the 0/1 test set be any smaller?  Because for every unsorted
    // string σ there is a network that sorts everything *except* σ
    // (Lemma 2.1).  Drop σ from the test set and this network slips through.
    let sigma = BitString::parse("01101001").unwrap();
    let h = adversary::adversary(&sigma);
    println!(
        "\nLemma 2.1 adversary for σ = {sigma}: {} comparators",
        h.size()
    );
    println!("  H_σ(σ)          = {} (not sorted)", h.apply_bits(&sigma));
    let others_sorted = BitString::all(n)
        .filter(|t| *t != sigma)
        .all(|t| h.apply_bits(&t).is_sorted());
    println!("  sorts all other 2^{n} - 1 inputs: {others_sorted}");
}
