//! Selection and merging networks under the Theorem 2.4 / 2.5 test sets:
//! build (k, n)-selectors by pruning and (n/2, n/2)-mergers with Batcher's
//! odd–even merge, then certify them with the minimal test sets.
//!
//! ```text
//! cargo run -p sortnet-cli --example selector_and_merger --release
//! ```

use sortnet_network::builders::batcher::{half_half_merger, odd_even_merge_sort};
use sortnet_network::builders::selection::{chain_selector, pruned_selector};
use sortnet_network::lanes::Backend;
use sortnet_network::Network;
use sortnet_testsets::verify::{try_verify_on, Property, Report, Strategy};

/// `property` verified with `strategy` on the detected lane-ops backend.
fn verify(net: &Network, property: Property, strategy: Strategy) -> Report {
    try_verify_on(net, property, strategy, Backend::active())
        .expect("the demo sizes have no size refusal")
}

fn main() {
    let n = 12;
    println!("== (k, n)-selectors on {n} lines (Theorem 2.4) ==\n");
    println!(
        "{:>3} {:>22} {:>12} {:>10} {:>16} {:>16}",
        "k", "network", "comparators", "selects?", "0/1 tests used", "perm tests used"
    );
    for k in [1usize, 2, 4, 6] {
        for (label, net) in [
            ("pruned Batcher", pruned_selector(n, k)),
            ("min-extraction chains", chain_selector(n, k)),
        ] {
            let b = verify(&net, Property::Selector { k }, Strategy::MinimalBinary);
            let p = verify(&net, Property::Selector { k }, Strategy::Permutation);
            assert_eq!(b.passed, p.passed);
            println!(
                "{k:>3} {label:>22} {:>12} {:>10} {:>16} {:>16}",
                net.size(),
                b.passed,
                b.tests_run,
                p.tests_run
            );
        }
    }

    println!("\n== (n/2, n/2)-merging networks (Theorem 2.5) ==\n");
    println!(
        "{:>4} {:>22} {:>12} {:>8} {:>14} {:>14}",
        "n", "network", "comparators", "merges?", "0/1 tests", "perm tests"
    );
    for m in [8usize, 12, 16] {
        for (label, net) in [
            ("Batcher odd-even merge", half_half_merger(m)),
            ("full sorter", odd_even_merge_sort(m)),
        ] {
            let b = verify(&net, Property::Merger, Strategy::MinimalBinary);
            let p = verify(&net, Property::Merger, Strategy::Permutation);
            assert_eq!(b.passed, p.passed);
            println!(
                "{m:>4} {label:>22} {:>12} {:>8} {:>14} {:>14}",
                net.size(),
                b.passed,
                b.tests_run,
                p.tests_run
            );
        }
    }

    println!("\n== A merger is not a sorter (and the test sets know it) ==\n");
    let merger = half_half_merger(8);
    let as_sorter = verify(&merger, Property::Sorter, Strategy::MinimalBinary);
    let as_merger = verify(&merger, Property::Merger, Strategy::Permutation);
    println!(
        "odd-even merger (8 lines): merger = {}, sorter = {}",
        as_merger.passed, as_sorter.passed
    );
    if let Some(w) = as_sorter.witness {
        println!("witness (an input the merger cannot sort because its halves are unsorted): {w}");
    }
}
