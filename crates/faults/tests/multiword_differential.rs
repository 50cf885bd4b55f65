//! Multi-word (ChannelWords > 1) differential suite: the bit-parallel
//! engines past the 64-line wall are pinned bit for bit against a
//! **shift-free `Vec<u8>` reference** that re-codes the lesion-timeline
//! semantics with one byte per line — no word packing, no shifts, no lane
//! indexing — so every hazard class the multi-word layout introduces
//! (lane indices above 63, comparators spanning the 63/64 and 127/128
//! word seams, live-mask math in the top word) is checked against an
//! implementation that cannot share the bug.
//!
//! Coverage:
//!
//! * `n ∈ {65, 96, 127, 128}` — one line over a seam, mid-word, one line
//!   under a seam, and exactly two full words;
//! * single-comparator and stuck-line universes, plus hand-built lesion
//!   *pairs* straddling the word seam;
//! * every runnable lane-ops backend × lane widths `W ∈ {1, 4}`;
//! * the scalar simulator itself: `BitString` and `ChannelVec` inputs
//!   agree at `n ∈ {1, 2, 63, 64}`, and `ChannelVec` matches the byte
//!   reference at `n ∈ {65, 128}`, on comparator and stuck lesions, singles
//!   and pairs;
//! * the streamed-source matrix against the slice-at-once matrix, and
//!   scalar vs bit-parallel coverage reports on a 96-line network.

use sortnet_combinat::{channel_words, BitString, ChannelPack, ChannelVec};
use sortnet_faults::bitsim::{
    detection_matrix_from_source_packed_on, first_detections_multi_packed_on, DetectionMatrix,
};
use sortnet_faults::coverage::{
    coverage_of_universe_budgeted_packed_with, try_coverage_of_universe_packed_with,
    FaultSimEngine, RedundancyMode,
};
use sortnet_faults::universe::{
    multi_detects, multi_faulty_apply, FaultUniverse, Lesion, MultiFault, StandardUniverse,
    StuckAt, TestVector,
};
use sortnet_faults::SweepBudget;
use sortnet_faults::{Fault, FaultKind};
use sortnet_network::lanes::{Backend, IterSource, LaneWidth, SliceSource};
use sortnet_network::Network;

/// The slice-at-once matrix of an explicit test list on `backend`.
fn matrix_on<const W: usize, P: TestVector>(
    net: &Network,
    faults: &[MultiFault],
    tests: &[P],
    backend: Backend,
) -> DetectionMatrix {
    let source = SliceSource::new(net.lines(), tests);
    detection_matrix_from_source_packed_on::<W, P, _>(net, faults, source, backend).0
}

/// Shift-free reference for a full lesion timeline: one `u8` per line.
///
/// Semantics mirrored from the engines: a stuck lesion at cut `c` forces
/// its line *after* `c` comparators have been applied (downstream
/// comparators read the constant but write fresh segments); a comparator
/// lesion replaces that comparator's behaviour.
fn reference_multi(network: &Network, fault: &MultiFault, input: &ChannelVec) -> ChannelVec {
    let mut v: Vec<u8> = (0..input.len()).map(|i| u8::from(input.bit(i))).collect();
    let stuck_at = |v: &mut Vec<u8>, cut: usize| {
        for lesion in fault.lesions() {
            if let Lesion::Stuck(StuckAt {
                line,
                cut: c,
                value,
            }) = lesion
            {
                if *c == cut {
                    v[*line] = u8::from(*value);
                }
            }
        }
    };
    for (idx, c) in network.comparators().iter().enumerate() {
        stuck_at(&mut v, idx);
        let broken = fault.lesions().iter().find_map(|lesion| match lesion {
            Lesion::Comparator(f) if f.comparator == idx => Some(f),
            _ => None,
        });
        let (i, j) = (c.min_line(), c.max_line());
        let (bi, bj) = (v[i], v[j]);
        match broken.map(|f| f.kind) {
            None => {
                v[i] = bi.min(bj);
                v[j] = bi.max(bj);
            }
            Some(FaultKind::StuckPass) => {}
            Some(FaultKind::StuckSwap) => {
                v[i] = bj;
                v[j] = bi;
            }
            Some(FaultKind::Inverted) => {
                v[i] = bi.max(bj);
                v[j] = bi.min(bj);
            }
            Some(FaultKind::Misrouted { new_bottom }) => {
                let t = c.top();
                if new_bottom != t {
                    let (bt, bb) = (v[t], v[new_bottom]);
                    v[t] = bt.min(bb);
                    v[new_bottom] = bt.max(bb);
                }
            }
        }
    }
    stuck_at(&mut v, network.size());
    ChannelVec::from_fn(v.len(), |i| v[i] == 1)
}

/// Detection per the engines' contract: the faulty output is unsorted.
fn reference_detects(network: &Network, fault: &MultiFault, input: &ChannelVec) -> bool {
    !reference_multi(network, fault, input).is_sorted()
}

/// A small network whose comparators straddle every word seam `n` has.
fn seam_network(n: usize) -> Network {
    assert!(n >= 65);
    let mut pairs = vec![
        (0, n - 1),
        (63, 64),
        (62, 63),
        if n > 65 { (64, 65) } else { (1, 64) },
        (0, 64),
        (n - 2, n - 1),
        (0, 1),
        (1, 62),
    ];
    if n >= 128 {
        pairs.push((126, 127));
    }
    Network::from_pairs(n, &pairs)
}

/// Inputs with live bits at every word boundary of an `n`-line state.
fn boundary_channel_inputs(n: usize) -> Vec<ChannelVec> {
    let mut inputs = vec![
        ChannelVec::zeros(n),
        ChannelVec::ones(n),
        ChannelVec::from_fn(n, |i| i % 2 == 1),
        ChannelVec::from_fn(n, |i| i == n - 1),
        ChannelVec::from_fn(n, |i| i != n - 1),
        ChannelVec::from_fn(n, |i| i == 63),
        ChannelVec::from_fn(n, |i| i == 64),
        ChannelVec::from_fn(n, |i| i < 64),
        ChannelVec::from_fn(n, |i| i >= 64),
    ];
    if n >= 128 {
        inputs.push(ChannelVec::from_fn(n, |i| i == 127));
    }
    inputs
}

#[test]
fn multiword_matrices_match_the_byte_reference_on_every_backend_and_width() {
    for n in [65usize, 96, 127, 128] {
        let net = seam_network(n);
        let tests = boundary_channel_inputs(n);
        for universe in [
            StandardUniverse::SingleComparator,
            StandardUniverse::StuckLine,
        ] {
            let faults: Vec<MultiFault> = universe.iter(&net).collect();
            let mut expected = Vec::with_capacity(faults.len() * tests.len());
            for fault in &faults {
                for test in &tests {
                    expected.push(reference_detects(&net, fault, test));
                }
            }
            for backend in Backend::runnable() {
                let w1 = matrix_on::<1, ChannelVec>(&net, &faults, &tests, backend);
                let w4 = matrix_on::<4, ChannelVec>(&net, &faults, &tests, backend);
                assert_eq!(w1, w4, "n={n} {} {}", universe.name(), backend.name());
                for (f, fault) in faults.iter().enumerate() {
                    for (t, test) in tests.iter().enumerate() {
                        assert_eq!(
                            w1.is_detected_by(f, t),
                            expected[f * tests.len() + t],
                            "n={n} {} {} fault {fault} test {test}",
                            universe.name(),
                            backend.name()
                        );
                    }
                }
            }
            // The scalar TestVector oracle agrees with the byte reference
            // (so the channel simulator itself is pinned too).
            for (f, fault) in faults.iter().enumerate().step_by(17) {
                for (t, test) in tests.iter().enumerate() {
                    assert_eq!(
                        multi_detects(&net, fault, test),
                        expected[f * tests.len() + t],
                        "scalar channel oracle n={n} fault {fault} test {test}"
                    );
                }
            }
        }
    }
}

#[test]
fn lesion_pairs_straddling_the_word_seam_match_the_byte_reference() {
    // The two-level pair fork re-checkpoints the block after the first
    // lesion; past the 64-line wall that checkpoint copies multi-word
    // lanes.  Pairs are built by hand so each combination (stuck+stuck,
    // stuck+comparator) crosses the 63/64 seam with distinct cuts.
    for n in [65usize, 96, 128] {
        let net = seam_network(n);
        let tests = boundary_channel_inputs(n);
        let stuck = |line, cut, value| Lesion::Stuck(StuckAt { line, cut, value });
        let comp = |comparator, kind| Lesion::Comparator(Fault { comparator, kind });
        let faults = vec![
            MultiFault::pair(stuck(63, 0, true), stuck(64, 2, false)),
            MultiFault::pair(stuck(64, 1, true), stuck(n - 1, net.size(), false)),
            MultiFault::pair(stuck(0, 0, true), stuck(64, net.size(), true)),
            MultiFault::pair(stuck(63, 3, false), comp(1, FaultKind::StuckSwap)),
            MultiFault::pair(comp(1, FaultKind::StuckPass), stuck(n - 2, 4, true)),
            MultiFault::pair(
                comp(3, FaultKind::Inverted),
                comp(4, FaultKind::Misrouted { new_bottom: 63 }),
            ),
        ];
        for backend in Backend::runnable() {
            let w4 = matrix_on::<4, ChannelVec>(&net, &faults, &tests, backend);
            for (f, fault) in faults.iter().enumerate() {
                for (t, test) in tests.iter().enumerate() {
                    assert_eq!(
                        w4.is_detected_by(f, t),
                        reference_detects(&net, fault, test),
                        "n={n} {} pair {fault} test {test}",
                        backend.name()
                    );
                }
            }
        }
    }
}

/// Every single comparator and stuck lesion of `net`, and every
/// `stride`-th conflict-free pair drawn from both kinds together.
fn singles_and_pairs(net: &Network, stride: usize) -> Vec<MultiFault> {
    let singles: Vec<MultiFault> = [
        StandardUniverse::SingleComparator,
        StandardUniverse::StuckLine,
    ]
    .iter()
    .flat_map(|universe| universe.iter(net))
    .collect();
    let lesions: Vec<Lesion> = singles.iter().map(|f| f.lesions()[0]).collect();
    let mut pairs = Vec::new();
    for (i, a) in lesions.iter().enumerate() {
        for b in &lesions[i + 1..] {
            if !a.conflicts_with(b) {
                pairs.push(MultiFault::pair(*a, *b));
            }
        }
    }
    singles
        .into_iter()
        .chain(pairs.into_iter().step_by(stride))
        .collect()
}

#[test]
fn scalar_simulator_agrees_across_packings_and_with_the_byte_reference_at_word_boundaries() {
    // One channel-word simulator serves both packings: a `BitString` is
    // its one-word case.  At n ∈ {1, 2, 63, 64} the two packings must give
    // the same output (and the byte reference's); past the wall the
    // `ChannelVec` output must match the byte reference across the seams.
    for n in [1usize, 2, 63, 64] {
        let pairs: Vec<(usize, usize)> = match n {
            1 => Vec::new(),
            2 => vec![(0, 1), (0, 1)],
            _ => vec![(0, n - 1), (n - 2, n - 1), (0, 1), (1, n - 2)],
        };
        let net = Network::from_pairs(n, &pairs);
        let faults = singles_and_pairs(&net, 3);
        assert!(faults.iter().any(MultiFault::is_pair) || n == 1, "n={n}");
        for fault in &faults {
            for input in boundary_channel_inputs(n) {
                let bits = BitString::from_bits(&(0..n).map(|i| input.bit(i)).collect::<Vec<_>>());
                let expected = reference_multi(&net, fault, &input);
                let wide = multi_faulty_apply(&net, fault, &input);
                let narrow = multi_faulty_apply(&net, fault, &bits);
                assert_eq!(wide, expected, "n={n} fault {fault} input {input}");
                assert_eq!(
                    ChannelVec::from_bitstring(narrow),
                    expected,
                    "n={n} fault {fault} input {input}"
                );
            }
        }
    }
    for n in [65usize, 128] {
        let net = seam_network(n);
        let faults = singles_and_pairs(&net, 7);
        assert!(faults.iter().any(MultiFault::is_pair), "n={n}");
        for fault in &faults {
            for input in boundary_channel_inputs(n) {
                assert_eq!(
                    multi_faulty_apply(&net, fault, &input),
                    reference_multi(&net, fault, &input),
                    "n={n} fault {fault} input {input}"
                );
            }
        }
    }
}

#[test]
fn streamed_source_and_first_detections_agree_with_the_slice_matrix_past_64() {
    let n = 96usize;
    let net = seam_network(n);
    let tests = boundary_channel_inputs(n);
    let faults: Vec<MultiFault> = StandardUniverse::StuckLine.iter(&net).collect();
    let reference = matrix_on::<1, ChannelVec>(&net, &faults, &tests, Backend::Scalar);
    for backend in Backend::runnable() {
        let (streamed, echoed) = detection_matrix_from_source_packed_on::<4, ChannelVec, _>(
            &net,
            &faults,
            IterSource::new(n, tests.clone()),
            backend,
        );
        assert_eq!(streamed, reference, "{}", backend.name());
        assert_eq!(echoed, tests, "{}", backend.name());
        let firsts =
            first_detections_multi_packed_on::<4, ChannelVec>(&net, &faults, &tests, backend);
        for (f, &first) in firsts.iter().enumerate() {
            let expected = (0..tests.len()).find(|&t| reference.is_detected_by(f, t));
            assert_eq!(first, expected, "{} fault {f}", backend.name());
        }
    }
}

#[test]
fn stuck_line_coverage_sweep_completes_on_a_96_channel_network() {
    // The acceptance sweep: a full stuck-line coverage run on a 96-line
    // network, identical across the scalar engine, the default
    // bit-parallel engine, and pinned lane widths.
    let n = 96usize;
    assert_eq!(channel_words(n), 2);
    // Two brick-wall exchange passes: enough structure for non-trivial
    // detection patterns while keeping the scalar cross-check affordable.
    let mut pairs: Vec<(usize, usize)> = (0..n - 1).step_by(2).map(|i| (i, i + 1)).collect();
    pairs.extend((1..n - 1).step_by(2).map(|i| (i, i + 1)));
    let net = Network::from_pairs(n, &pairs);
    let tests = boundary_channel_inputs(n);
    let reference = try_coverage_of_universe_packed_with(
        &net,
        &StuckLineUniverse,
        &tests,
        RedundancyMode::Skip,
        FaultSimEngine::Scalar,
    )
    .unwrap();
    // StuckLine enumerates the 2n input segments plus both output
    // segments of every comparator at both values: 2n + 4·size lesions.
    assert_eq!(
        reference.total_faults,
        2 * n + 4 * net.size(),
        "stuck-line universe size"
    );
    assert!(reference.detected > 0, "the sweep must detect something");
    for backend in Backend::runnable() {
        for engine in [
            FaultSimEngine::BitParallelWide(LaneWidth::W1),
            FaultSimEngine::BitParallelWide(LaneWidth::W4),
        ] {
            let report = coverage_of_universe_budgeted_packed_with(
                &net,
                &StuckLineUniverse,
                &tests,
                RedundancyMode::Skip,
                engine,
                backend,
                &SweepBudget::unlimited(),
            )
            .unwrap()
            .into_value();
            assert_eq!(
                report,
                reference,
                "engine {engine:?} backend {}",
                backend.name()
            );
        }
    }
}

use sortnet_faults::universe::StuckLine as StuckLineUniverse;
