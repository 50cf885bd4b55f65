//! Small-scope exhaustive conformance: every standard network on n = 4
//! lines with 1–4 comparators and on n = 5 lines with 1–3 comparators.
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
//! * the three verify strategies must agree on `passed` for the sorter,
//!   the (2, n)-selector and, on an even line count, the merger.
//!
//! Small networks are where off-by-one fork sites, empty ranges and
//! degenerate lesions live, so covering all of them beats sampling.  A
//! failure names the line count and the network in compact notation.

use sortnet_faults::{
    coverage_of_universe_budgeted_packed_with, CoverageReport, EngineError, FaultSimEngine,
    FaultUniverse, RedundancyMode, StandardUniverse, SweepBudget,
};
use sortnet_network::lanes::{Backend, LaneWidth};
use sortnet_network::{Comparator, Network};
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
    let mut properties = vec![Property::Sorter, Property::Selector { k: 2 }];
    if n.is_multiple_of(2) {
        properties.push(Property::Merger);
    }
    let backend = backends[i % backends.len()];
    for property in properties {
        let verdicts: Vec<bool> = [
            Strategy::Exhaustive,
            Strategy::MinimalBinary,
            Strategy::Permutation,
        ]
        .into_iter()
        .map(|strategy| {
            try_verify_on(net, property, strategy, backend)
                .unwrap()
                .passed
        })
        .collect();
        assert!(
            verdicts.iter().all(|&v| v == verdicts[0]),
            "n={n} {net}: {property:?} verdicts by strategy {verdicts:?} on {}",
            backend.name()
        );
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
    assert_eq!(conform_all(4, 1..=3), 6 + 36 + 216);
}

#[test]
fn every_network_on_4_lines_with_4_comparators_conforms() {
    assert_eq!(conform_all(4, 4..=4), 1296);
}

#[test]
fn every_network_on_5_lines_with_up_to_3_comparators_conforms() {
    assert_eq!(conform_all(5, 1..=3), 10 + 100 + 1000);
}
