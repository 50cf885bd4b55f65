//! Certify a family of classical networks (and some near-misses) as
//! sorters / non-sorters using the paper's minimal test sets, compare how
//! many tests each strategy needs (Theorem 2.2, Yao's remark), and drive a
//! streaming `BlockSource` sweep by hand to show the machinery underneath.
//!
//! ```text
//! cargo run -p sortnet-cli --example verify_batcher --release
//! ```

use sortnet_combinat::{BitString, ChannelVec};
use sortnet_network::builders::batcher::{odd_even_merge_sort, odd_even_merge_sort_recursive};
use sortnet_network::builders::bitonic::{bitonic_sorter, bitonic_sorter_standardised};
use sortnet_network::builders::bubble::{bubble_sort_network, insertion_sort_network};
use sortnet_network::builders::transposition::odd_even_transposition;
use sortnet_network::lanes::{self, Backend, Check, RangeSource};
use sortnet_network::{BudgetMeter, Network};
use sortnet_testsets::sorting;
use sortnet_testsets::verify::{
    try_spot_check_sorter_packed_on, try_verify_on, Property, Report, Strategy,
};
use sortnet_testsets::EngineError;

/// Sorting verification of `net` by `strategy` on the detected backend.
fn sorter_report(net: &Network, strategy: Strategy) -> Result<Report, EngineError> {
    try_verify_on(net, Property::Sorter, strategy, Backend::active())
}

fn check(label: &str, net: &Network) {
    let exhaustive = sorter_report(net, Strategy::Exhaustive)
        .expect("the demo sizes stay below the exhaustive-sweep refusal");
    let minimal = sorter_report(net, Strategy::MinimalBinary)
        .expect("minimal-binary sweeps have no size refusal at demo sizes");
    let permutation = sorter_report(net, Strategy::Permutation)
        .expect("permutation sweeps have no size refusal at demo sizes");
    assert_eq!(exhaustive.passed, minimal.passed);
    assert_eq!(exhaustive.passed, permutation.passed);
    println!(
        "{label:<42} sorter={:<5}  size={:<4} depth={:<3} tests: 2^n={:<6} minimal={:<6} perm={}",
        exhaustive.passed,
        net.size(),
        net.depth(),
        exhaustive.tests_run,
        minimal.tests_run,
        permutation.tests_run,
    );
    if let Some(w) = minimal.witness {
        println!("{:<42}   first failing input: {w}", "");
    }
}

fn main() {
    let n = 10;
    println!("Verifying classical networks on {n} lines with all three strategies\n");
    check("Batcher merge-exchange", &odd_even_merge_sort(n));
    check(
        "Batcher odd-even merge sort (recursive)",
        &odd_even_merge_sort_recursive(n),
    );
    check("bubble sort (primitive)", &bubble_sort_network(n));
    check("insertion sort (primitive)", &insertion_sort_network(n));
    check(
        "odd-even transposition, n rounds",
        &odd_even_transposition(n, n),
    );
    check(
        "odd-even transposition, n-1 rounds",
        &odd_even_transposition(n, n - 1),
    );
    check(
        "odd-even transposition, n-2 rounds",
        &odd_even_transposition(n, n - 2),
    );
    check(
        "Batcher merge-exchange minus one comparator",
        &odd_even_merge_sort(n).without_comparator(7),
    );

    // Every sweep above ran on the streaming block pipeline internally;
    // here is the same machinery driven by hand.  A `BlockSource` hands out
    // test vectors directly in transposed form — 256 vectors per
    // `WideBlock<4>` — so nothing is ever materialised: the exhaustive
    // family comes from counting patterns, the Theorem 2.2 family from the
    // combinat generators.
    let wide_n = 16;
    let sorter16 = odd_even_merge_sort(wide_n);
    let families: [(&str, Box<dyn lanes::BlockSource<4>>); 2] = [
        (
            "all 2^16 inputs (RangeSource)",
            Box::new(RangeSource::exhaustive(wide_n)),
        ),
        (
            "2^16 - 16 - 1 minimal tests (sorting::binary_source)",
            Box::new(sorting::binary_source(wide_n)),
        ),
    ];
    let backend = Backend::active();
    let sorted = Check::Sorted(&sorter16);
    for (family, source) in families {
        // The sweep every verifier runs: stream the source block by block
        // under a meter, ask the check of every vector, stop at the first
        // violating input.
        let mut meter = BudgetMeter::unlimited();
        let outcome = lanes::sweep_find::<4, BitString, _>(source, &sorted, backend, &mut meter)
            .expect("the sources have the network's line count");
        println!(
            "\nstreamed {:>6} vectors of {family}: sorter verdict = {}",
            outcome.tests_run,
            outcome.witness.is_none(),
        );
    }

    let n_pow2 = 8;
    println!("\nNon-standard networks ({n_pow2} lines): the paper's model excludes these,");
    println!("but standardisation (Knuth ex. 5.3.4-16) brings them back in scope.\n");
    let bitonic = bitonic_sorter(n_pow2);
    println!(
        "bitonic sorter: standard = {}, sorter (exhaustive oracle) = {}",
        bitonic.is_standard(),
        sorter_report(&bitonic, Strategy::Exhaustive)
            .expect("n = 8 is below the exhaustive-sweep refusal")
            .passed
    );
    check(
        "bitonic sorter, standardised",
        &bitonic_sorter_standardised(n_pow2),
    );

    // The typed front end: the same verdicts as `verify`, but unrunnable
    // requests come back as an `EngineError` value instead of a panic —
    // here the 2^40 exhaustive sweep a 40-line network would need, where
    // the right move is a minimal test set, not a hang.
    println!("\nTyped refusals (try_verify_on):");
    let big = Network::empty(40);
    match sorter_report(&big, Strategy::Exhaustive) {
        Ok(report) => println!("unexpectedly ran: {report:?}"),
        Err(e) => println!("  40-line exhaustive sweep refused: {e}"),
    }
    let minimal_ok = sorter_report(&odd_even_merge_sort(n_pow2), Strategy::MinimalBinary)
        .expect("minimal-set verification needs no exhaustive sweep");
    println!(
        "  the same decision through the Theorem 2.2 set: sorter={} in {} tests",
        minimal_ok.passed, minimal_ok.tests_run
    );

    // Past the 64-line wall: the multi-word channel-lane engine packs a
    // vector's payload as ceil(n/64) words, so a Batcher sorter at n = 96
    // is spot-checkable directly.  Complete families (2^96 inputs, the
    // Theorem 2.2 set) are out of reach at this size, so verification
    // degrades to spot-checking — sound for rejection (any witness is a
    // genuine unsorted output), here over boundary-heavy probes plus the
    // n + 1 sorted strings.
    let wall_n = 96;
    let big_batcher = odd_even_merge_sort(wall_n);
    let mut probes: Vec<ChannelVec> = (0..=wall_n)
        .map(|ones| ChannelVec::sorted_of(wall_n - ones, ones))
        .collect();
    probes.extend([
        ChannelVec::from_fn(wall_n, |i| i % 2 == 1),
        ChannelVec::from_fn(wall_n, |i| i == 63),
        ChannelVec::from_fn(wall_n, |i| i >= 64),
        ChannelVec::from_fn(wall_n, |i| (i / 3) % 2 == 0),
    ]);
    let spot = try_spot_check_sorter_packed_on(&big_batcher, &probes, Backend::active())
        .expect("n = 96 fits the channel-line cap");
    println!(
        "\nPast the 64-line wall: Batcher n={wall_n} ({} comparators) spot-checked on {} \
         multi-word probes: witness = {:?}",
        big_batcher.size(),
        spot.tests_run,
        spot.witness.as_ref().map(ToString::to_string),
    );
    // Spot-checking is NOT complete — most single-comparator removals
    // slip past this 101-probe family — but where it rejects, it rejects
    // soundly: removing a comparator these probes do exercise yields a
    // concrete unsorted witness.
    let broken = big_batcher.without_comparator(95);
    let caught =
        try_spot_check_sorter_packed_on(&broken, &probes, Backend::active()).expect("same cap");
    println!(
        "  minus comparator 95 it is rejected with witness {}",
        caught
            .witness
            .map(|w| w.to_string())
            .unwrap_or_else(|| "<none — spot-checking missed this break>".into()),
    );
}
