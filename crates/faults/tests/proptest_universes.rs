//! Property-based cross-checks for the multi-fault universes: random
//! networks × random universes must keep the universe-generic engines
//! consistent with the scalar lesion-timeline oracle, and [`FaultPairs`]
//! coverage consistent with its base universe.
//!
//! One classical phenomenon shapes what "consistent with the base" can
//! mean: **fault masking**.  A pair is *not* guaranteed detectable just
//! because a member is detectable alone — one lesion can repair the damage
//! of the other — and two individually redundant lesions can form a
//! detectable pair.  The deterministic tests at the bottom pin minimal
//! witnesses of both phenomena, so the properties asserted here are the
//! ones that actually hold: per-test verdicts equal an independent scalar
//! re-simulation, detection is monotone in the *test set* (never in the
//! lesion set), and redundancy means exactly "no input detects".

use proptest::prelude::*;

use sortnet_combinat::BitString;
use sortnet_faults::bitsim::{
    detection_matrix_from_source_packed_on, first_detections_multi_packed_on,
    redundant_faults_multi_on, DetectionMatrix,
};
use sortnet_faults::universe::{
    is_multi_fault_redundant, multi_detects, multi_faulty_apply, FaultPairs, FaultUniverse,
    MultiFault, SingleComparator, StandardUniverse, StuckLine,
};
use sortnet_faults::{Fault, FaultKind, Lesion};
use sortnet_network::lanes::{Backend, SliceSource};
use sortnet_network::{Comparator, Network};

const N: usize = 6;

/// The matrix of an explicit test list on `backend`.
fn matrix_on<const W: usize>(
    net: &Network,
    faults: &[MultiFault],
    tests: &[BitString],
    backend: Backend,
) -> DetectionMatrix {
    let source = SliceSource::new(net.lines(), tests);
    detection_matrix_from_source_packed_on::<W, BitString, _>(net, faults, source, backend).0
}

/// Strategy: a random standard network on [`N`] lines with 1..=`max_size`
/// comparators (non-empty, so every universe is inhabited).
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

/// Strategy: 1..=32 random test vectors on [`N`] lines.
fn arb_tests() -> impl Strategy<Value = Vec<BitString>> {
    prop::collection::vec(0u64..(1u64 << N), 1..=32).prop_map(|words| {
        words
            .into_iter()
            .map(|w| BitString::from_word(w, N))
            .collect()
    })
}

/// Picks one of the four standard universes.
fn pick_universe(selector: usize) -> StandardUniverse {
    StandardUniverse::ALL[selector % StandardUniverse::ALL.len()]
}

/// An independent scalar re-implementation of the lesion timeline, coded
/// differently from `universe::multi_faulty_apply` (per-comparator
/// event scan over a `Vec<u8>` state instead of word arithmetic) so the
/// two can serve as oracles for each other.
fn reference_faulty_apply(network: &Network, fault: &MultiFault, input: &BitString) -> BitString {
    let mut state: Vec<u8> = input.to_vec();
    let lesions = fault.lesions();
    for cut in 0..=network.size() {
        for lesion in lesions {
            if let Lesion::Stuck(s) = lesion {
                if s.cut == cut {
                    state[s.line] = u8::from(s.value);
                }
            }
        }
        if cut == network.size() {
            break;
        }
        let c = network.comparators()[cut];
        let faulty_kind = lesions.iter().find_map(|l| match l {
            Lesion::Comparator(f) if f.comparator == cut => Some(f.kind),
            _ => None,
        });
        let (i, j) = (c.min_line(), c.max_line());
        let (a, b) = (state[i], state[j]);
        match faulty_kind {
            None => {
                state[i] = a.min(b);
                state[j] = a.max(b);
            }
            Some(FaultKind::StuckPass) => {}
            Some(FaultKind::StuckSwap) => {
                state[i] = b;
                state[j] = a;
            }
            Some(FaultKind::Inverted) => {
                state[i] = a.max(b);
                state[j] = a.min(b);
            }
            Some(FaultKind::Misrouted { new_bottom }) => {
                if new_bottom != c.top() {
                    let (t, nb) = (c.top(), new_bottom);
                    let (x, y) = (state[t], state[nb]);
                    state[t] = x.min(y);
                    state[nb] = x.max(y);
                }
            }
        }
    }
    let mut word = 0u64;
    for (i, &v) in state.iter().enumerate() {
        if v != 0 {
            word |= 1 << i;
        }
    }
    BitString::from_word(word, network.lines())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every engine's per-(fault, test) verdict equals an independently
    /// coded scalar reference, for every universe.
    #[test]
    fn engines_match_the_independent_reference(
        net in arb_network(8),
        selector in 0usize..4,
        tests in arb_tests(),
    ) {
        let universe = pick_universe(selector);
        let faults: Vec<MultiFault> = universe.iter(&net).collect();
        let matrix = matrix_on::<2>(&net, &faults, &tests, Backend::active());
        for (f, fault) in faults.iter().enumerate() {
            for (t, test) in tests.iter().enumerate() {
                let reference = reference_faulty_apply(&net, fault, test);
                prop_assert_eq!(
                    multi_faulty_apply(&net, fault, test),
                    reference.clone(),
                    "fault {} test {}", fault, test
                );
                prop_assert_eq!(
                    matrix.is_detected_by(f, t),
                    !reference.is_sorted(),
                    "fault {} test {}", fault, test
                );
            }
        }
    }

    /// The early-exit sweep and the batch redundancy sweep agree with the
    /// scalar definitions on every universe.
    #[test]
    fn sweeps_agree_with_scalar_definitions(
        net in arb_network(8),
        selector in 0usize..4,
        tests in arb_tests(),
    ) {
        let universe = pick_universe(selector);
        let faults: Vec<MultiFault> = universe.iter(&net).collect();
        let first = first_detections_multi_packed_on::<4, BitString>(&net, &faults, &tests, Backend::active());
        let redundant = redundant_faults_multi_on::<4>(&net, &faults, Backend::active());
        for (i, fault) in faults.iter().enumerate() {
            prop_assert_eq!(
                first[i],
                tests.iter().position(|t| multi_detects(&net, fault, t)),
                "fault {}", fault
            );
            prop_assert_eq!(
                redundant[i],
                is_multi_fault_redundant(&net, fault),
                "fault {}", fault
            );
            // Redundant means exactly "no input detects": a redundant fault
            // can never be detected by any test sample.
            if redundant[i] {
                prop_assert_eq!(first[i], None, "fault {}", fault);
            }
        }
    }

    /// `FaultPairs` is consistent with its base universe: the pair space is
    /// exactly the conflict-free 2-subsets, every pair's fork site is the
    /// earlier member's, and a pair is detected iff some test distinguishes
    /// it (its faulty output is unsorted) — which the exhaustive sweep
    /// reduces to "detectable iff not redundant".
    #[test]
    fn pairs_are_consistent_with_their_base(net in arb_network(8), stuck in 0usize..2) {
        let base: Vec<MultiFault> = if stuck == 0 {
            SingleComparator.iter(&net).collect()
        } else {
            StuckLine.iter(&net).collect()
        };
        let pairs: Vec<MultiFault> = if stuck == 0 {
            FaultPairs(SingleComparator).iter(&net).collect()
        } else {
            FaultPairs(StuckLine).iter(&net).collect()
        };
        let mut expected = 0usize;
        for i in 0..base.len() {
            for j in i + 1..base.len() {
                if !base[i].lesions()[0].conflicts_with(&base[j].lesions()[0]) {
                    expected += 1;
                }
            }
        }
        prop_assert_eq!(pairs.len(), expected);
        let sites: std::collections::HashSet<usize> =
            base.iter().map(MultiFault::fork_site).collect();
        let redundant = redundant_faults_multi_on::<4>(&net, &pairs, Backend::active());
        let all_inputs: Vec<BitString> = BitString::all(N).collect();
        let detected = first_detections_multi_packed_on::<4, BitString>(&net, &pairs, &all_inputs, Backend::active());
        for (i, pair) in pairs.iter().enumerate() {
            prop_assert!(pair.is_pair());
            prop_assert!(sites.contains(&pair.fork_site()), "pair {}", pair);
            prop_assert_eq!(
                pair.fork_site(),
                pair.lesions().iter().map(Lesion::fork_site).min().unwrap(),
                "pair {}", pair
            );
            // Detected by the exhaustive test set iff not redundant.
            prop_assert_eq!(detected[i].is_some(), !redundant[i], "pair {}", pair);
        }
    }

    /// Detection is monotone in the *test set*: extending the sequence can
    /// only turn misses into detections (contrast with the lesion set,
    /// where masking breaks monotonicity — see the pinned tests below).
    #[test]
    fn detection_is_monotone_in_the_test_set(
        net in arb_network(8),
        selector in 0usize..4,
        tests in arb_tests(),
        extra in arb_tests(),
    ) {
        let universe = pick_universe(selector);
        let faults: Vec<MultiFault> = universe.iter(&net).collect();
        let small = first_detections_multi_packed_on::<2, BitString>(&net, &faults, &tests, Backend::active());
        let mut longer = tests.clone();
        longer.extend(extra);
        let large = first_detections_multi_packed_on::<2, BitString>(&net, &faults, &longer, Backend::active());
        for (i, fault) in faults.iter().enumerate() {
            if let Some(idx) = small[i] {
                prop_assert_eq!(large[i], Some(idx), "fault {}", fault);
            }
        }
    }
}

/// Minimal pinned witness of **fault masking**: on the 2-line sorter
/// `[1,2][1,2][1,2]`, a stuck-swap on the last comparator is detectable
/// alone, an inverted middle comparator is redundant alone — and the pair
/// is redundant: the middle inversion pre-swaps exactly the states the
/// stuck-swap then restores.  Hence "a member is detectable ⇒ the pair is
/// detectable" is *false*, and pair universes must be swept directly.
#[test]
fn a_detectable_fault_can_be_masked_by_a_redundant_partner() {
    let net = Network::from_pairs(2, &[(0, 1), (0, 1), (0, 1)]);
    let detectable = Lesion::Comparator(Fault {
        comparator: 2,
        kind: FaultKind::StuckSwap,
    });
    let redundant = Lesion::Comparator(Fault {
        comparator: 1,
        kind: FaultKind::Inverted,
    });
    assert!(!is_multi_fault_redundant(
        &net,
        &MultiFault::single(detectable)
    ));
    assert!(is_multi_fault_redundant(
        &net,
        &MultiFault::single(redundant)
    ));
    let pair = MultiFault::pair(detectable, redundant);
    assert!(
        is_multi_fault_redundant(&net, &pair),
        "the redundant partner must mask the detectable fault"
    );
    // The bit-parallel engine agrees.
    assert_eq!(
        redundant_faults_multi_on::<4>(&net, &[pair], Backend::active()),
        vec![true]
    );
}

/// The converse phenomenon: two individually redundant lesions whose pair
/// is detectable.  On `[1,2][1,2]`, a stuck-swap on the first comparator is
/// repaired by the second, and a stuck-pass second comparator is harmless
/// after the first has sorted — but together the swapped state passes
/// through unrepaired.
#[test]
fn two_redundant_faults_can_form_a_detectable_pair() {
    let net = Network::from_pairs(2, &[(0, 1), (0, 1)]);
    let a = Lesion::Comparator(Fault {
        comparator: 0,
        kind: FaultKind::StuckSwap,
    });
    let b = Lesion::Comparator(Fault {
        comparator: 1,
        kind: FaultKind::StuckPass,
    });
    assert!(is_multi_fault_redundant(&net, &MultiFault::single(a)));
    assert!(is_multi_fault_redundant(&net, &MultiFault::single(b)));
    let pair = MultiFault::pair(a, b);
    assert!(!is_multi_fault_redundant(&net, &pair));
    // The sorted input (0, 1) is a witness: swap then pass leaves (1, 0).
    let sorted = BitString::from_word(0b10, 2);
    assert!(sorted.is_sorted());
    assert!(multi_detects(&net, &pair, &sorted));
}
