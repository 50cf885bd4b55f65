//! The scalar comparator steps and the materialised faulty network.
//!
//! A scalar evaluation state is a slice of channel words: line `i` at
//! word `i / 64`, bit `i % 64`, so a `BitString` is the one-word case and
//! lines past 63 index the next word instead of wrapping a shift.  The
//! lesion timeline of [`crate::universe`] runs these steps for every fault
//! of every universe; a single [`Fault`] is a one-lesion
//! [`MultiFault`](crate::universe::MultiFault) (`MultiFault::from`).
//! [`apply_fault`] is the independent reference: the faulty network built
//! as a plain [`Network`] where a comparator replacement expresses it.

use sortnet_network::{Comparator, Network};

use crate::model::{Fault, FaultKind};

/// Reads the bit of line `line` from a channel-word state.
#[inline]
pub(crate) fn channel_bit(w: &[u64], line: usize) -> u64 {
    (w[line / 64] >> (line % 64)) & 1
}

/// Writes the bit of line `line` in a channel-word state.
#[inline]
pub(crate) fn set_channel_bit(w: &mut [u64], line: usize, value: u64) {
    let mask = 1u64 << (line % 64);
    if value == 1 {
        w[line / 64] |= mask;
    } else {
        w[line / 64] &= !mask;
    }
}

/// One fault-free comparator step: the minimum of the two line bits to
/// `min_line`, the maximum to `max_line`.
#[inline]
pub(crate) fn step_channels(c: &Comparator, w: &mut [u64]) {
    let (i, j) = (c.min_line(), c.max_line());
    let bi = channel_bit(w, i);
    let bj = channel_bit(w, j);
    set_channel_bit(w, i, bi & bj);
    set_channel_bit(w, j, bi | bj);
}

/// One *faulty* comparator step: the scalar semantics of each
/// [`FaultKind`].
#[inline]
pub(crate) fn step_channels_faulty(c: &Comparator, kind: FaultKind, w: &mut [u64]) {
    let (i, j) = (c.min_line(), c.max_line());
    let bi = channel_bit(w, i);
    let bj = channel_bit(w, j);
    let (new_i, new_j) = match kind {
        FaultKind::StuckPass => (bi, bj),
        FaultKind::StuckSwap => (bj, bi),
        FaultKind::Inverted => (bi | bj, bi & bj),
        FaultKind::Misrouted { new_bottom } => {
            // Re-route: comparator acts between `top` and `new_bottom`
            // (minimum to the top line).  `new_bottom == top` degenerates
            // to a no-op, matching the lane engine.
            let top = c.top();
            let bt = channel_bit(w, top);
            let bb = channel_bit(w, new_bottom);
            set_channel_bit(w, top, bt & bb);
            set_channel_bit(w, new_bottom, bt | bb);
            return;
        }
    };
    set_channel_bit(w, i, new_i);
    set_channel_bit(w, j, new_j);
}

/// Materialises the faulty network as a [`Network`] when the fault is
/// expressible as a comparator replacement (all kinds except the
/// behavioural `StuckPass`/`StuckSwap`, which return `None` for `StuckSwap`
/// and a comparator-deleted network for `StuckPass`).
#[must_use]
pub fn apply_fault(network: &Network, fault: &Fault) -> Option<Network> {
    match fault.kind {
        FaultKind::StuckPass => Some(network.without_comparator(fault.comparator)),
        FaultKind::Inverted => {
            let mut comparators = network.comparators().to_vec();
            let c = comparators[fault.comparator];
            comparators[fault.comparator] = Comparator::directed(c.max_line(), c.min_line());
            Some(Network::from_comparators(network.lines(), comparators))
        }
        FaultKind::Misrouted { new_bottom } => {
            let mut comparators = network.comparators().to_vec();
            let c = comparators[fault.comparator];
            comparators[fault.comparator] = Comparator::new(c.top(), new_bottom);
            Some(Network::from_comparators(network.lines(), comparators))
        }
        FaultKind::StuckSwap => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::enumerate_faults;
    use crate::universe::{
        is_multi_fault_redundant, multi_detects, multi_faulty_apply, multi_first_detection_index,
        MultiFault,
    };
    use sortnet_combinat::{BitString, ChannelVec};
    use sortnet_network::builders::batcher::odd_even_merge_sort;
    use sortnet_network::properties::is_sorter;

    /// The scalar simulator's output for a single-comparator fault.
    fn faulty<P: sortnet_combinat::ChannelPack>(net: &Network, fault: &Fault, input: &P) -> P {
        multi_faulty_apply(net, &MultiFault::from(*fault), input)
    }

    #[test]
    fn faulty_evaluation_matches_materialised_network_when_available() {
        let net = odd_even_merge_sort(6);
        for fault in enumerate_faults(&net) {
            if let Some(faulty_net) = apply_fault(&net, &fault) {
                for input in BitString::all(6) {
                    assert_eq!(
                        faulty(&net, &fault, &input),
                        faulty_net.apply_bits(&input),
                        "fault {fault:?} input {input}"
                    );
                }
            }
        }
    }

    #[test]
    fn fault_free_simulation_matches_normal_evaluation() {
        // Comparator faults permute the line values and never create or
        // destroy one, so the output weight equals the input weight.
        let net = odd_even_merge_sort(7);
        for fault in enumerate_faults(&net) {
            for input in BitString::all(7).take(32) {
                let out = faulty(&net, &fault, &input);
                assert_eq!(out.count_ones(), input.count_ones(), "fault {fault:?}");
            }
        }
    }

    #[test]
    fn stuck_pass_faults_on_batcher_are_never_redundant() {
        // Batcher's merge-exchange network is known to contain no redundant
        // comparators: deleting any one breaks sorting.
        for n in [4usize, 6, 8] {
            let net = odd_even_merge_sort(n);
            for idx in 0..net.size() {
                let fault = Fault {
                    comparator: idx,
                    kind: FaultKind::StuckPass,
                };
                assert!(
                    !is_multi_fault_redundant(&net, &fault.into()),
                    "n={n} comparator {idx}"
                );
                assert!(!is_sorter(&apply_fault(&net, &fault).unwrap()));
            }
        }
    }

    #[test]
    fn inverted_faults_break_sorting() {
        let net = odd_even_merge_sort(6);
        for idx in 0..net.size() {
            let fault = Fault {
                comparator: idx,
                kind: FaultKind::Inverted,
            };
            let faulty = apply_fault(&net, &fault).unwrap();
            assert!(!is_sorter(&faulty), "comparator {idx}");
        }
    }

    #[test]
    fn detection_uses_unsorted_outputs_only() {
        // A StuckSwap can mis-sort a sorted input, which is why such faults
        // are graded by fault testing but not by the paper's sorting test
        // set.  `apply_fault` cannot express a StuckSwap, so detection is
        // checked against the shift-free reference's sortedness.
        let net = odd_even_merge_sort(5);
        let fault = Fault {
            comparator: 0,
            kind: FaultKind::StuckSwap,
        };
        for input in BitString::all(5) {
            assert_eq!(
                multi_detects(&net, &fault.into(), &input),
                !reference_faulty(&net, &fault, &input).is_sorted(),
                "input {input}"
            );
        }
    }

    /// Independent reference: the faulty step semantics re-coded over a
    /// `Vec<u8>` state (no word shifts), so the channel-word simulator's
    /// bit arithmetic is cross-checked at the top of the word.
    fn reference_faulty(network: &Network, fault: &Fault, input: &BitString) -> BitString {
        let mut v: Vec<u8> = input.to_vec();
        for (idx, c) in network.comparators().iter().enumerate() {
            let (i, j) = (c.min_line(), c.max_line());
            let (bi, bj) = (v[i], v[j]);
            if idx != fault.comparator {
                v[i] = bi.min(bj);
                v[j] = bi.max(bj);
                continue;
            }
            match fault.kind {
                FaultKind::StuckPass => {}
                FaultKind::StuckSwap => {
                    v[i] = bj;
                    v[j] = bi;
                }
                FaultKind::Inverted => {
                    v[i] = bi.max(bj);
                    v[j] = bi.min(bj);
                }
                FaultKind::Misrouted { new_bottom } => {
                    let t = c.top();
                    if new_bottom != t {
                        let (bt, bb) = (v[t], v[new_bottom]);
                        v[t] = bt.min(bb);
                        v[new_bottom] = bt.max(bb);
                    }
                }
            }
        }
        BitString::from_bits(&v.iter().map(|&b| b == 1).collect::<Vec<bool>>())
    }

    /// Boundary inputs with live bits at the top of the packed word.
    fn boundary_inputs(n: usize) -> Vec<BitString> {
        [
            0u64,
            u64::MAX,
            1u64 << (n - 1),
            1u64 << (n - 2),
            u64::MAX ^ (1u64 << (n - 1)),
            0xAAAA_AAAA_AAAA_AAAA,
            0x8000_0000_0000_0001,
        ]
        .into_iter()
        .map(|w| BitString::from_word(w, n))
        .collect()
    }

    #[test]
    fn word_boundary_networks_simulate_every_fault_kind_exactly() {
        // n ∈ {63, 64}: lines 62/63 sit at the top bits of the packed u64,
        // where a wrong shift would wrap.  Every FaultKind on comparators
        // touching the top lines must match a shift-free Vec<u8> reference.
        for n in [63usize, 64] {
            let net = Network::from_pairs(n, &[(0, n - 1), (n - 2, n - 1), (0, 1), (1, n - 2)]);
            for fault in enumerate_faults(&net) {
                for input in boundary_inputs(n) {
                    assert_eq!(
                        faulty(&net, &fault, &input),
                        reference_faulty(&net, &fault, &input),
                        "n={n} fault {fault:?} input {input}"
                    );
                }
            }
        }
    }

    #[test]
    fn channel_simulator_agrees_with_the_word_engine_up_to_64_lines() {
        // `BitString` and `ChannelVec` inputs run the same channel-word
        // simulator; both packings must give the shift-free reference's
        // output wherever both run, including the top-of-word lines.
        for n in [5usize, 63, 64] {
            let net = Network::from_pairs(n, &[(0, n - 1), (n - 2, n - 1), (0, 1), (1, n - 2)]);
            for fault in enumerate_faults(&net) {
                for input in boundary_inputs(n) {
                    let expected = reference_faulty(&net, &fault, &input);
                    assert_eq!(faulty(&net, &fault, &input), expected);
                    assert_eq!(
                        faulty(&net, &fault, &ChannelVec::from_bitstring(input)),
                        ChannelVec::from_bitstring(expected),
                        "n={n} fault {fault:?} input {input}"
                    );
                }
            }
        }
    }

    #[test]
    fn channel_simulator_crosses_the_word_63_64_seam() {
        // A comparator spanning lines 63/64 moves a bit between channel
        // words; a wrong word index would leave both words untouched or
        // corrupt a neighbour.
        let n = 65usize;
        let net = Network::from_pairs(n, &[(63, 64)]);
        let fault = Fault {
            comparator: 0,
            kind: FaultKind::StuckSwap,
        };
        let mut input = ChannelVec::zeros(n);
        input.set(63, true); // 1 on line 63, 0 on line 64: the comparator swaps
        let sorted = input.with_bit(63, false).with_bit(64, true);
        let pass = Fault {
            comparator: 0,
            kind: FaultKind::StuckPass,
        };
        assert_eq!(
            faulty(&net, &pass, &input),
            input,
            "StuckPass leaves the seam untouched"
        );
        assert_eq!(
            faulty(&net, &fault, &input),
            sorted,
            "StuckSwap on an inverted pair sorts it"
        );
    }

    #[test]
    #[should_panic(expected = "n <= 64")]
    fn networks_beyond_64_lines_are_rejected_by_the_word_engine() {
        let net = Network::from_pairs(65, &[(0, 64)]);
        let fault = Fault {
            comparator: 0,
            kind: FaultKind::StuckSwap,
        };
        // BitString itself caps at 64, so drive the assert with a 64-long
        // input: the n <= 64 guard must fire (before the length check, so
        // the oversized network is rejected for what it is).
        let _ = faulty(&net, &fault, &BitString::zeros(64));
    }

    #[test]
    fn first_detection_index_finds_the_earliest_witness() {
        let net = odd_even_merge_sort(5);
        let tests: Vec<BitString> = BitString::all(5).collect();
        for fault in enumerate_faults(&net) {
            let fault = MultiFault::from(fault);
            if let Some(idx) = multi_first_detection_index(&net, &fault, &tests) {
                assert!(multi_detects(&net, &fault, &tests[idx]));
                for t in &tests[..idx] {
                    assert!(!multi_detects(&net, &fault, t));
                }
            } else {
                assert!(is_multi_fault_redundant(&net, &fault));
            }
        }
    }
}
