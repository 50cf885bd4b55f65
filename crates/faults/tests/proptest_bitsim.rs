//! Property-based cross-check: the bit-parallel fault engine (`bitsim`)
//! must agree with the scalar simulator (`universe::multi_faulty_apply`,
//! a single fault run as its one-lesion `MultiFault`) and, where the
//! faulty network can be built, with the materialised network
//! (`simulate::apply_fault`), on random networks, random faults of all
//! four kinds, and random test blocks.

use proptest::prelude::*;

use sortnet_combinat::BitString;
use sortnet_faults::bitsim::{
    detection_matrix_from_source_packed_on, first_detections_multi_packed_on,
    is_fault_redundant_wide, multi_faulty_run_block,
};
use sortnet_faults::model::{enumerate_faults, Fault, FaultKind};
use sortnet_faults::simulate::apply_fault;
use sortnet_faults::universe::{
    is_multi_fault_redundant, multi_detects, multi_faulty_apply, multi_first_detection_index,
    MultiFault,
};
use sortnet_network::bitparallel::BitBlock;
use sortnet_network::lanes::{Backend, SliceSource};
use sortnet_network::{Comparator, Network};

const N: usize = 8;

/// Single-comparator faults as one-lesion [`MultiFault`]s.
fn multi(faults: &[Fault]) -> Vec<MultiFault> {
    faults.iter().copied().map(MultiFault::from).collect()
}

/// Strategy: a random standard network on [`N`] lines with 1..=`max_size`
/// comparators (non-empty, so a fault universe exists).
fn arb_network(max_size: usize) -> impl Strategy<Value = Network> {
    prop::collection::vec((0..N, 0..N), 1..=max_size).prop_map(|pairs| {
        let mut comparators: Vec<Comparator> = pairs
            .into_iter()
            .filter(|(a, b)| a != b)
            .map(|(a, b)| Comparator::new(a, b))
            .collect();
        if comparators.is_empty() {
            comparators.push(Comparator::new(0, 1));
        }
        Network::from_comparators(N, comparators)
    })
}

/// Picks one fault of the network's universe by index; the universe
/// enumerates every comparator × every applicable kind, so sampling the
/// index uniformly exercises `StuckPass`, `StuckSwap`, `Inverted` and
/// `Misrouted` alike.
fn pick_fault(network: &Network, selector: usize) -> Fault {
    let universe = enumerate_faults(network);
    universe[selector % universe.len()]
}

/// Strategy: one of the backends this CPU runs, so every case names the
/// backend it checks.
fn arb_backend() -> impl Strategy<Value = Backend> {
    let backends = Backend::runnable();
    (0..backends.len()).prop_map(move |i| backends[i])
}

/// Strategy: a block of 1..=64 random test vectors on [`N`] lines.
fn arb_tests() -> impl Strategy<Value = Vec<BitString>> {
    prop::collection::vec(0u64..(1u64 << N), 1..=64).prop_map(|words| {
        words
            .into_iter()
            .map(|w| BitString::from_word(w, N))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Lane-for-lane agreement: running a faulty network over a block
    /// equals 64 scalar faulty evaluations, for every fault kind, and the
    /// materialised faulty network's outputs wherever it exists.
    #[test]
    fn faulty_block_run_matches_scalar_evaluation(
        net in arb_network(20),
        selector in 0usize..1000,
        tests in arb_tests(),
        backend in arb_backend(),
    ) {
        let fault = pick_fault(&net, selector);
        let lesioned = MultiFault::from(fault);
        let materialised = apply_fault(&net, &fault);
        let mut block = BitBlock::from_strings(N, &tests);
        multi_faulty_run_block(&net, &lesioned, &mut block, backend);
        for (j, input) in tests.iter().enumerate() {
            let scalar = multi_faulty_apply(&net, &lesioned, input);
            prop_assert_eq!(block.extract::<BitString>(j as u32), scalar, "fault {:?} input {} backend {}", fault, input, backend.name());
            if let Some(faulty_net) = &materialised {
                prop_assert_eq!(scalar, faulty_net.apply_bits(input), "fault {:?} input {}", fault, input);
            }
        }
    }

    /// The shared-prefix detection matrix equals the scalar `detects`
    /// verdict on every (fault, test) cell, and its word-level summaries
    /// equal the scalar first-detection scan.
    #[test]
    fn detection_matrix_matches_scalar_detects(
        net in arb_network(16),
        tests in arb_tests(),
        backend in arb_backend(),
    ) {
        let faults = multi(&enumerate_faults(&net));
        let matrix = detection_matrix_from_source_packed_on::<4, BitString, _>(&net, &faults, SliceSource::new(net.lines(), &tests), backend).0;
        for (f, fault) in faults.iter().enumerate() {
            for (t, test) in tests.iter().enumerate() {
                prop_assert_eq!(
                    matrix.is_detected_by(f, t),
                    multi_detects(&net, fault, test),
                    "fault {} test {} backend {}", fault, test, backend.name()
                );
            }
            prop_assert_eq!(matrix.first_detection(f), multi_first_detection_index(&net, fault, &tests));
        }
    }

    /// The early-exit first-detection sweep agrees with the scalar
    /// per-fault scan over the whole universe.
    #[test]
    fn first_detections_match_scalar_scan(
        net in arb_network(16),
        tests in arb_tests(),
        backend in arb_backend(),
    ) {
        let faults = multi(&enumerate_faults(&net));
        let bitpar = first_detections_multi_packed_on::<4, BitString>(&net, &faults, &tests, backend);
        for (f, fault) in faults.iter().enumerate() {
            prop_assert_eq!(bitpar[f], multi_first_detection_index(&net, fault, &tests), "fault {} backend {}", fault, backend.name());
        }
    }

    /// The blocked 2^n redundancy sweep agrees with the scalar one.
    #[test]
    fn redundancy_sweeps_agree(
        net in arb_network(12),
        selector in 0usize..1000,
        backend in arb_backend(),
    ) {
        let fault = MultiFault::from(pick_fault(&net, selector));
        prop_assert_eq!(
            is_fault_redundant_wide::<4>(&net, &fault, backend),
            is_multi_fault_redundant(&net, &fault),
            "fault {} backend {}", fault, backend.name()
        );
    }

    /// The fault universe has the exact composition the sampling scheme
    /// relies on: every comparator contributes the three behavioural kinds,
    /// plus one `Misrouted` per valid adjacent line (a comparator whose
    /// bottom line has no in-range, non-top neighbour legitimately
    /// contributes none).
    #[test]
    fn sampling_sees_the_full_universe_per_comparator(net in arb_network(20)) {
        let universe = enumerate_faults(&net);
        for (idx, c) in net.comparators().iter().enumerate() {
            let here: Vec<FaultKind> = universe
                .iter()
                .filter(|f| f.comparator == idx)
                .map(|f| f.kind)
                .collect();
            prop_assert!(here.contains(&FaultKind::StuckPass), "comparator {}", idx);
            prop_assert!(here.contains(&FaultKind::StuckSwap), "comparator {}", idx);
            prop_assert!(here.contains(&FaultKind::Inverted), "comparator {}", idx);
            let expected_misroutes = [c.bottom() as isize - 1, c.bottom() as isize + 1]
                .into_iter()
                .filter(|&nb| nb >= 0 && (nb as usize) < N && nb as usize != c.top())
                .count();
            let misroutes = here
                .iter()
                .filter(|k| matches!(k, FaultKind::Misrouted { .. }))
                .count();
            prop_assert_eq!(misroutes, expected_misroutes, "comparator {}", idx);
        }
    }
}
