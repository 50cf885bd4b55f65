//! Small-scope exhaustive conformance: every standard network on n = 4
//! lines with 0–4 comparators and on n = 5 lines with 0–3 comparators.
//!
//! On each network:
//!
//! * all four standard fault universes are graded with exhaustive
//!   redundancy over the Theorem 2.2 minimal 0/1 test set, and the scalar
//!   reference engine's whole `CoverageReport` (or its refusal, for an
//!   empty pair universe) must equal the W1 and W4 bit-parallel engines'.
//!   Network `i` runs W1 on runnable backend `i` and W4 on backend
//!   `i + 1`, so over each table every width meets every backend while
//!   a network costs three grades, not one per width and backend;
//! * every property decider must give the answer of a scalar reference
//!   (`apply_bits` over all `2ⁿ` inputs, or over the half-sorted inputs
//!   for merging) for the sorter, every (k, n)-selector with `0 ≤ k ≤ n`
//!   and, on an even line count, the merger: `properties::is_*`, the
//!   exhaustive `bitparallel` sweeps and all three `try_verify_on`
//!   strategies.  Every witness must fail the network, and the exhaustive
//!   witnesses must be the first failing input in enumeration order.
//!   Network `i` runs on runnable backend `i`;
//! * the reflection δ(N) = `Network::flip`, comparator `(i, j)` ↦
//!   `(n−1−j, n−1−i)`, must keep the verdict of sorting and (even n)
//!   merging, and the reversed, complemented witness against N must fail
//!   δ(N), on backend `i`.  Selection is outside the relation: δ maps "at
//!   most k zeros" to "at most k ones".
//!
//! Small networks are where off-by-one fork sites, empty ranges and
//! degenerate lesions live, so covering all of them beats sampling.  A
//! failure names the line count and the network in compact notation.

use sortnet_combinat::BitString;
use sortnet_faults::{
    coverage_of_universe_budgeted_packed_with, CoverageReport, EngineError, FaultSimEngine,
    FaultUniverse, RedundancyMode, StandardUniverse, SweepBudget,
};
use sortnet_network::bitparallel::{find_selector_violation, find_unsorted_input};
use sortnet_network::lanes::{Backend, LaneWidth};
use sortnet_network::{properties, Comparator, Network};
use sortnet_testsets::sorting;
use sortnet_testsets::verify::{try_verify_on, Property, Strategy};

/// Every standard network on `n` lines with exactly `size` comparators:
/// all `C(n, 2)^size` sequences of standard comparators.
fn standard_networks(n: usize, size: usize) -> Vec<Network> {
    let pairs: Vec<Comparator> = (0..n)
        .flat_map(|i| (i + 1..n).map(move |j| Comparator::new(i, j)))
        .collect();
    let mut networks = vec![Vec::new()];
    for _ in 0..size {
        networks = networks
            .into_iter()
            .flat_map(|prefix: Vec<Comparator>| {
                pairs.iter().map(move |&c| {
                    let mut next = prefix.clone();
                    next.push(c);
                    next
                })
            })
            .collect();
    }
    networks
        .into_iter()
        .map(|comparators| Network::from_comparators(n, comparators))
        .collect()
}

/// One universe graded on one engine and backend, unbudgeted.
fn grade(
    net: &Network,
    universe: &dyn FaultUniverse,
    engine: FaultSimEngine,
    backend: Backend,
) -> Result<CoverageReport, EngineError> {
    let tests = sorting::binary_testset(net.lines());
    coverage_of_universe_budgeted_packed_with(
        net,
        universe,
        &tests,
        RedundancyMode::Exhaustive,
        engine,
        backend,
        &SweepBudget::unlimited(),
    )
    .map(|report| report.into_value())
}

/// Every check of the suite on network number `i` of its table.
fn conforms(i: usize, net: &Network) {
    let n = net.lines();
    let backends = Backend::runnable();
    for universe in StandardUniverse::ALL {
        let reference = grade(net, &universe, FaultSimEngine::Scalar, Backend::Scalar);
        for (offset, width) in [LaneWidth::W1, LaneWidth::W4].into_iter().enumerate() {
            let backend = backends[(i + offset) % backends.len()];
            let engine = FaultSimEngine::BitParallelWide(width);
            assert_eq!(
                grade(net, &universe, engine, backend),
                reference,
                "n={n} {net}: {} {width:?} on {}",
                universe.name(),
                backend.name()
            );
        }
    }
    deciders_conform(i, net);
    reflection_conforms(i, net);
}

/// The inputs `property` is decided over, in enumeration order: all `2ⁿ`
/// strings, or for merging the half-sorted strings
/// `0^{z₁} 1^{h−z₁} · 0^{z₂} 1^{h−z₂}` in `(z₁, z₂)` order.
fn decider_inputs(n: usize, property: Property) -> Vec<BitString> {
    if property != Property::Merger {
        return BitString::all(n).collect();
    }
    let h = n / 2;
    (0..=h)
        .flat_map(|z1| {
            (0..=h).map(move |z2| {
                BitString::sorted_with(z1, h - z1).concat(&BitString::sorted_with(z2, h - z2))
            })
        })
        .collect()
}

/// `true` when `net` handles `input` correctly for `property`, by scalar
/// evaluation: the output is sorted, or for selection its first `k` lines
/// carry the `k` smallest input bits.
fn handles(net: &Network, property: Property, input: &BitString) -> bool {
    let out = net.apply_bits(input);
    match property {
        Property::Selector { k } => {
            let zeros = input.count_zeros();
            (0..k).all(|i| out.get(i) == (i >= zeros))
        }
        Property::Sorter | Property::Merger => out.is_sorted(),
    }
}

/// Every property decider on network number `i` of its table against the
/// scalar reference.
fn deciders_conform(i: usize, net: &Network) {
    let n = net.lines();
    let backends = Backend::runnable();
    let backend = backends[i % backends.len()];
    let mut checked = vec![Property::Sorter];
    checked.extend((0..=n).map(|k| Property::Selector { k }));
    if n.is_multiple_of(2) {
        checked.push(Property::Merger);
    }
    for property in checked {
        let first = decider_inputs(n, property)
            .into_iter()
            .find(|input| !handles(net, property, input));
        let case = format!("n={n} {net}: {property:?} on {}", backend.name());
        let (decided, swept) = match property {
            Property::Sorter => (
                properties::is_sorter(net),
                Some(find_unsorted_input(net, backend)),
            ),
            Property::Selector { k } => (
                properties::is_selector(net, k),
                Some(find_selector_violation(net, k, backend)),
            ),
            Property::Merger => (properties::is_merger(net), None),
        };
        assert_eq!(decided, first.is_none(), "{case}: properties");
        if let Some(swept) = swept {
            assert_eq!(swept.unwrap(), first, "{case}: bitparallel");
        }
        for strategy in [
            Strategy::Exhaustive,
            Strategy::MinimalBinary,
            Strategy::Permutation,
        ] {
            let report = try_verify_on(net, property, strategy, backend).unwrap();
            assert_eq!(report.passed, first.is_none(), "{case}: {strategy:?}");
            assert_eq!(
                report.witness.is_none(),
                report.passed,
                "{case}: {strategy:?}"
            );
            if let Some(witness) = report.witness {
                assert!(
                    !handles(net, property, &witness),
                    "{case}: {strategy:?} witness {witness} is handled"
                );
            }
            if strategy == Strategy::Exhaustive {
                assert_eq!(report.witness, first, "{case}: exhaustive witness");
            }
        }
    }
}

/// The reflection duality on network number `i` of its table, on
/// runnable backend `i`: δ(N) sorts (merges) iff N does, and the flip
/// (reversed and complemented) of each minimal-binary witness against N
/// fails δ(N).
fn reflection_conforms(i: usize, net: &Network) {
    let n = net.lines();
    let backends = Backend::runnable();
    let backend = backends[i % backends.len()];
    let dual = net.flip();
    let mut checked = vec![Property::Sorter];
    if n.is_multiple_of(2) {
        checked.push(Property::Merger);
    }
    for property in checked {
        let case = format!("n={n} {net}: {property:?} on {}", backend.name());
        let verify = |network: &Network| {
            try_verify_on(network, property, Strategy::MinimalBinary, backend).unwrap()
        };
        let report = verify(net);
        assert_eq!(report.passed, verify(&dual).passed, "{case}: δ verdict");
        if let Some(witness) = report.witness {
            let reflected = witness.flip();
            assert!(
                !handles(&dual, property, &reflected),
                "{case}: δ of witness {witness} is handled by δ(N)"
            );
        }
    }
}

/// Runs [`conforms`] over every standard network on `n` lines with
/// `sizes` comparators; returns how many it checked.
fn conform_all(n: usize, sizes: std::ops::RangeInclusive<usize>) -> usize {
    let networks: Vec<Network> = sizes.flat_map(|size| standard_networks(n, size)).collect();
    for (i, net) in networks.iter().enumerate() {
        conforms(i, net);
    }
    networks.len()
}

#[test]
fn every_network_on_4_lines_with_up_to_3_comparators_conforms() {
    assert_eq!(conform_all(4, 0..=3), 1 + 6 + 36 + 216);
}

#[test]
fn every_network_on_4_lines_with_4_comparators_conforms() {
    assert_eq!(conform_all(4, 4..=4), 1296);
}

#[test]
fn every_network_on_5_lines_with_up_to_3_comparators_conforms() {
    assert_eq!(conform_all(5, 0..=3), 1 + 10 + 100 + 1000);
}
