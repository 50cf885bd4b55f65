//! Fault injection and simulation.

use sortnet_combinat::{channel_words, BitString, ChannelVec};
use sortnet_network::error::{self, EngineError};
use sortnet_network::{Comparator, Network};

use crate::model::{Fault, FaultKind};

/// One fault-free comparator step on a word-packed 0/1 state: the minimum
/// of the two line bits to `min_line`, the maximum to `max_line`.
#[inline]
pub(crate) fn step_word(c: &Comparator, w: u64) -> u64 {
    let (i, j) = (c.min_line(), c.max_line());
    let bi = (w >> i) & 1;
    let bj = (w >> j) & 1;
    (w & !((1u64 << i) | (1u64 << j))) | ((bi & bj) << i) | ((bi | bj) << j)
}

/// One *faulty* comparator step on a word-packed 0/1 state — the scalar
/// semantics of each [`FaultKind`], shared by the single-fault simulator
/// below and the multi-lesion simulator in [`crate::universe`].
#[inline]
pub(crate) fn step_word_faulty(c: &Comparator, kind: FaultKind, w: u64) -> u64 {
    let (i, j) = (c.min_line(), c.max_line());
    let bi = (w >> i) & 1;
    let bj = (w >> j) & 1;
    let (new_i, new_j) = match kind {
        FaultKind::StuckPass => (bi, bj),
        FaultKind::StuckSwap => (bj, bi),
        FaultKind::Inverted => (bi | bj, bi & bj),
        FaultKind::Misrouted { new_bottom } => {
            // Re-route: comparator acts between `top` and `new_bottom`
            // (minimum to the top line).  `new_bottom == top` degenerates
            // to a no-op, matching the lane engine.
            let top = c.top();
            let bt = (w >> top) & 1;
            let bb = (w >> new_bottom) & 1;
            return (w & !((1u64 << top) | (1u64 << new_bottom)))
                | ((bt & bb) << top)
                | ((bt | bb) << new_bottom);
        }
    };
    (w & !((1u64 << i) | (1u64 << j))) | (new_i << i) | (new_j << j)
}

/// Reads the bit of line `line` from a multi-word channel state
/// (`ceil(n/64)` words, line `i` at word `i / 64`, bit `i % 64`).
#[inline]
pub(crate) fn channel_bit(w: &[u64], line: usize) -> u64 {
    (w[line / 64] >> (line % 64)) & 1
}

/// Writes the bit of line `line` in a multi-word channel state.
#[inline]
pub(crate) fn set_channel_bit(w: &mut [u64], line: usize, value: u64) {
    let mask = 1u64 << (line % 64);
    if value == 1 {
        w[line / 64] |= mask;
    } else {
        w[line / 64] &= !mask;
    }
}

/// One fault-free comparator step on a multi-word channel state — the
/// `ChannelWords ≥ 1` sibling of [`step_word`], with per-line word
/// indexing instead of a `1 << line` shift (so lines past 63 are exact,
/// not wrapped).
#[inline]
pub(crate) fn step_channels(c: &Comparator, w: &mut [u64]) {
    let (i, j) = (c.min_line(), c.max_line());
    let bi = channel_bit(w, i);
    let bj = channel_bit(w, j);
    set_channel_bit(w, i, bi & bj);
    set_channel_bit(w, j, bi | bj);
}

/// One *faulty* comparator step on a multi-word channel state — the
/// `ChannelWords ≥ 1` sibling of [`step_word_faulty`], kind by kind.
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

/// A faulty evaluation of a network on a multi-word channel input — the
/// arbitrary-`n` form of [`faulty_apply_bits`].
///
/// # Panics
/// The panicking wrapper over [`try_faulty_apply_channels`].
#[must_use]
pub fn faulty_apply_channels(network: &Network, fault: &Fault, input: &ChannelVec) -> ChannelVec {
    try_faulty_apply_channels(network, fault, input).unwrap_or_else(|e| panic!("{e}"))
}

/// [`faulty_apply_channels`] with every precondition reported as a typed
/// [`EngineError`] instead of a panic.
///
/// # Errors
/// [`EngineError::IndexOutOfRange`] for an out-of-range fault index;
/// [`EngineError::OversizedNetwork`] past the
/// [`MAX_CHANNEL_LINES`](sortnet_network::error::MAX_CHANNEL_LINES) cap;
/// [`EngineError::InputLengthMismatch`] otherwise.
pub fn try_faulty_apply_channels(
    network: &Network,
    fault: &Fault,
    input: &ChannelVec,
) -> Result<ChannelVec, EngineError> {
    if fault.comparator >= network.size() {
        return Err(EngineError::IndexOutOfRange {
            what: "fault",
            index: fault.comparator,
            limit: network.size(),
        });
    }
    let n = network.lines();
    error::ensure_channel_packable(n, channel_words(n))?;
    if input.len() != n {
        return Err(EngineError::InputLengthMismatch {
            expected: n,
            actual: input.len(),
        });
    }
    let mut w = input.words().to_vec();
    for (idx, c) in network.comparators().iter().enumerate() {
        if idx == fault.comparator {
            step_channels_faulty(c, fault.kind, &mut w);
        } else {
            step_channels(c, &mut w);
        }
    }
    Ok(ChannelVec::from_words(&w, n))
}

/// A faulty evaluation of a network on a 0/1 input: comparator
/// `fault.comparator` misbehaves according to `fault.kind`.
///
/// # Panics
/// Panics if the fault's comparator index is out of range, the network
/// has more than 64 lines, or the input length mismatches the network —
/// the panicking wrapper over [`try_faulty_apply_bits`].
#[must_use]
pub fn faulty_apply_bits(network: &Network, fault: &Fault, input: &BitString) -> BitString {
    try_faulty_apply_bits(network, fault, input).unwrap_or_else(|e| panic!("{e}"))
}

/// [`faulty_apply_bits`] with every precondition reported as a typed
/// [`EngineError`] instead of a panic.
///
/// # Errors
/// [`EngineError::IndexOutOfRange`] for an out-of-range fault index;
/// [`EngineError::OversizedNetwork`] when `n > 64` (the evaluation is
/// word-packed — checked before the input-length comparison so an
/// oversized network is rejected for what it is, not as a length
/// mismatch); [`EngineError::InputLengthMismatch`] otherwise.
pub fn try_faulty_apply_bits(
    network: &Network,
    fault: &Fault,
    input: &BitString,
) -> Result<BitString, EngineError> {
    if fault.comparator >= network.size() {
        return Err(EngineError::IndexOutOfRange {
            what: "fault",
            index: fault.comparator,
            limit: network.size(),
        });
    }
    error::ensure_word_packable(network.lines())?;
    if input.len() != network.lines() {
        return Err(EngineError::InputLengthMismatch {
            expected: network.lines(),
            actual: input.len(),
        });
    }
    let mut w = input.word();
    for (idx, c) in network.comparators().iter().enumerate() {
        w = if idx == fault.comparator {
            step_word_faulty(c, fault.kind, w)
        } else {
            step_word(c, w)
        };
    }
    Ok(BitString::from_word(w, network.lines()))
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

/// `true` iff the test input `input` detects the fault: the faulty network
/// fails to sort it.
#[must_use]
pub fn detects(network: &Network, fault: &Fault, input: &BitString) -> bool {
    !faulty_apply_bits(network, fault, input).is_sorted()
}

/// [`detects`] with preconditions reported as a typed [`EngineError`].
///
/// # Errors
/// As [`try_faulty_apply_bits`].
pub fn try_detects(
    network: &Network,
    fault: &Fault,
    input: &BitString,
) -> Result<bool, EngineError> {
    Ok(!try_faulty_apply_bits(network, fault, input)?.is_sorted())
}

/// `true` iff the fault is *redundant* for the sorting property: the faulty
/// network still sorts all `2^n` inputs (so no test can — or needs to —
/// detect it).
///
/// # Panics
/// Panics when the exhaustive `2^n` sweep is inadmissible (`n ≥ 32` —
/// the canonical [`error::ensure_sweepable`] bound, shared with the
/// bit-parallel engine).
#[must_use]
pub fn is_fault_redundant(network: &Network, fault: &Fault) -> bool {
    let n = network.lines();
    if let Err(e) = error::ensure_sweepable(n) {
        panic!("{e}");
    }
    BitString::all(n).all(|s| faulty_apply_bits(network, fault, &s).is_sorted())
}

/// [`is_fault_redundant`] with the size guard reported as a typed
/// [`EngineError`] (the exhaustive check is refused for `n ≥ 32`,
/// exactly as in the bit-parallel sweep).
///
/// # Errors
/// [`EngineError::SweepTooLarge`] when `n ≥ 32`;
/// [`EngineError::IndexOutOfRange`] for an out-of-range fault index.
pub fn try_is_fault_redundant(network: &Network, fault: &Fault) -> Result<bool, EngineError> {
    error::ensure_sweepable(network.lines())?;
    if fault.comparator >= network.size() {
        return Err(EngineError::IndexOutOfRange {
            what: "fault",
            index: fault.comparator,
            limit: network.size(),
        });
    }
    Ok(is_fault_redundant(network, fault))
}

/// Index (0-based) of the first test in `tests` that detects the fault, or
/// `None` if none does.
#[must_use]
pub fn first_detection_index(
    network: &Network,
    fault: &Fault,
    tests: &[BitString],
) -> Option<usize> {
    tests.iter().position(|t| detects(network, fault, t))
}

/// [`first_detection_index`] with preconditions reported as a typed
/// [`EngineError`].
///
/// # Errors
/// As [`try_faulty_apply_bits`], for any test in the list.
pub fn try_first_detection_index(
    network: &Network,
    fault: &Fault,
    tests: &[BitString],
) -> Result<Option<usize>, EngineError> {
    for (i, t) in tests.iter().enumerate() {
        if try_detects(network, fault, t)? {
            return Ok(Some(i));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::enumerate_faults;
    use sortnet_network::builders::batcher::odd_even_merge_sort;
    use sortnet_network::properties::is_sorter;

    #[test]
    fn faulty_evaluation_matches_materialised_network_when_available() {
        let net = odd_even_merge_sort(6);
        for fault in enumerate_faults(&net) {
            if let Some(faulty_net) = apply_fault(&net, &fault) {
                for input in BitString::all(6) {
                    assert_eq!(
                        faulty_apply_bits(&net, &fault, &input),
                        faulty_net.apply_bits(&input),
                        "fault {fault:?} input {input}"
                    );
                }
            }
        }
    }

    #[test]
    fn fault_free_simulation_matches_normal_evaluation() {
        // A StuckPass fault on a comparator that never fires behaves like the
        // original network on inputs that never exercise it; more simply,
        // simulate with a fault and verify only the faulted comparator can
        // deviate — here we check the trivial invariant that output weight is
        // preserved (faults permute, never create or destroy values).
        let net = odd_even_merge_sort(7);
        for fault in enumerate_faults(&net) {
            for input in BitString::all(7).take(32) {
                let out = faulty_apply_bits(&net, &fault, &input);
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
                assert!(!is_fault_redundant(&net, &fault), "n={n} comparator {idx}");
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
        let net = odd_even_merge_sort(5);
        let fault = Fault {
            comparator: 0,
            kind: FaultKind::StuckSwap,
        };
        // Sorted inputs can never detect anything on... actually a StuckSwap
        // CAN mis-sort a sorted input, which is exactly why they are included
        // in fault testing but not in the paper's sorting test set.  Just
        // check detects() is consistent with the simulator.
        for input in BitString::all(5) {
            assert_eq!(
                detects(&net, &fault, &input),
                !faulty_apply_bits(&net, &fault, &input).is_sorted()
            );
        }
    }

    /// Independent reference: the faulty step semantics re-coded over a
    /// `Vec<u8>` state (no word shifts), so the word-packed engine's
    /// `1u64 << line` arithmetic is cross-checked at the top of the word.
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
        // where a wrong shift would wrap (the hazard class PR 1 fixed in
        // the enumeration paths).  Every FaultKind on comparators touching
        // the top lines must match a shift-free Vec<u8> reference.
        for n in [63usize, 64] {
            let net = Network::from_pairs(n, &[(0, n - 1), (n - 2, n - 1), (0, 1), (1, n - 2)]);
            for fault in enumerate_faults(&net) {
                for input in boundary_inputs(n) {
                    assert_eq!(
                        faulty_apply_bits(&net, &fault, &input),
                        reference_faulty(&net, &fault, &input),
                        "n={n} fault {fault:?} input {input}"
                    );
                }
            }
        }
    }

    #[test]
    fn channel_simulator_agrees_with_the_word_engine_up_to_64_lines() {
        // The multi-word scalar path must be bit-identical to the packed
        // u64 path wherever both run — including the top-of-word lines.
        for n in [5usize, 63, 64] {
            let net = Network::from_pairs(n, &[(0, n - 1), (n - 2, n - 1), (0, 1), (1, n - 2)]);
            for fault in enumerate_faults(&net) {
                for input in boundary_inputs(n) {
                    let wide = ChannelVec::from_bitstring(input);
                    assert_eq!(
                        faulty_apply_channels(&net, &fault, &wide),
                        ChannelVec::from_bitstring(faulty_apply_bits(&net, &fault, &input)),
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
        assert_eq!(
            faulty_apply_channels(
                &net,
                &Fault {
                    comparator: 0,
                    kind: FaultKind::StuckPass
                },
                &input
            ),
            input,
            "StuckPass leaves the seam untouched"
        );
        assert_eq!(
            faulty_apply_channels(&net, &fault, &input),
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
        let _ = faulty_apply_bits(&net, &fault, &BitString::zeros(64));
    }

    #[test]
    fn first_detection_index_finds_the_earliest_witness() {
        let net = odd_even_merge_sort(5);
        let tests: Vec<BitString> = BitString::all(5).collect();
        for fault in enumerate_faults(&net) {
            if let Some(idx) = first_detection_index(&net, &fault, &tests) {
                assert!(detects(&net, &fault, &tests[idx]));
                for t in &tests[..idx] {
                    assert!(!detects(&net, &fault, t));
                }
            } else {
                assert!(is_fault_redundant(&net, &fault));
            }
        }
    }
}
