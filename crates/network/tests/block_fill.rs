//! Differential pin of the word-transposed block fill.
//!
//! `WideBlock::from_strings`, `IterSource`, `SliceSource` and `WordSource`
//! pack vectors into lanes by 64×64 bit-matrix transposes of their channel
//! words.  This suite checks them against a per-bit reference (lane `i`, word `w`, bit `j` is line
//! `i` of vector `64w + j`) across the seams that matter: line counts on
//! either side of each live-lane round shape (8, 16, 32 lines) and of each
//! channel word, every lane width, and vector counts on either side of
//! each lane word and of a full block.

use sortnet_combinat::bitstrings::low_mask;
use sortnet_combinat::{BitString, ChannelPack, ChannelVec};
use sortnet_network::lanes::{BlockSource, IterSource, SliceSource, WideBlock, WordSource};

/// Line counts on either side of the transpose's round shapes (a chunk of
/// at most 8, 16 or 32 lines computes only those lanes) and of the
/// channel words.
const LINES: [usize; 17] = [
    1, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129,
];

/// The per-bit fill: one test per line per vector.
fn reference_lanes<const W: usize, P: ChannelPack>(n: usize, inputs: &[P]) -> Vec<[u64; W]> {
    let mut lanes = vec![[0u64; W]; n];
    for (j, s) in inputs.iter().enumerate() {
        for (i, lane) in lanes.iter_mut().enumerate() {
            if s.bit(i) {
                lane[j / 64] |= 1 << (j % 64);
            }
        }
    }
    lanes
}

/// Deterministic, irregular bits: a SplitMix64 hash of (vector, line).
fn pseudo_bit(v: usize, i: usize) -> bool {
    let mut z =
        (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i as u64).wrapping_add(0x632B_E59B);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) & 1 == 1
}

fn vectors<P: ChannelPack>(n: usize, count: usize) -> Vec<P> {
    (0..count)
        .map(|v| P::assemble(n, |i| pseudo_bit(v, i)))
        .collect()
}

fn counts<const W: usize>() -> Vec<usize> {
    let cap = W * 64;
    let mut counts = vec![1, 63, 64, 65, cap - 1, cap];
    counts.sort_unstable();
    counts.dedup();
    counts
}

fn assert_block_matches<const W: usize, P: ChannelPack>(
    block: &WideBlock<W>,
    n: usize,
    inputs: &[P],
    label: &str,
) {
    assert_eq!(block.count() as usize, inputs.len(), "{label}");
    assert_eq!(block.lines(), n, "{label}");
    let live = block.live_masks();
    for (i, expected) in reference_lanes::<W, P>(n, inputs).iter().enumerate() {
        let got = block.lane_words(i);
        assert_eq!(&got, expected, "{label} line {i}");
        for w in 0..W {
            assert_eq!(got[w] & !live[w], 0, "{label} line {i} word {w} past count");
        }
    }
}

fn check_width<const W: usize, P: ChannelPack>(n: usize) {
    let cap = W * 64;
    for count in counts::<W>() {
        let inputs: Vec<P> = vectors(n, count);
        let label = format!("n={n} W={W} count={count}");
        if count <= cap {
            let block = WideBlock::<W>::from_strings(n, &inputs);
            assert_block_matches(&block, n, &inputs, &label);
        }
        // The streaming faces: every block of the drain is the per-bit
        // fill of its own slice of the stream, partial last block included.
        let stream: Vec<P> = vectors(n, count + 2 * cap + 5);
        check_drain::<W, P>(IterSource::new(n, stream.clone()), n, &stream, &label);
        check_drain::<W, P>(SliceSource::new(n, &stream), n, &stream, &label);
        // A slice of exactly `count` vectors: one block when it fits.
        check_drain::<W, P>(SliceSource::new(n, &inputs), n, &inputs, &label);
    }
}

/// Drains `source` into one reused block and checks every block against
/// the per-bit fill of its own slice of `stream`.
fn check_drain<const W: usize, P: ChannelPack>(
    mut source: impl BlockSource<W>,
    n: usize,
    stream: &[P],
    label: &str,
) {
    assert_eq!(source.lines(), n, "{label}");
    let mut block = WideBlock::<W>::zeroed(n);
    let mut offset = 0;
    while source.next_block(&mut block) {
        let chunk = &stream[offset..offset + block.count() as usize];
        assert_block_matches(&block, n, chunk, &format!("{label} drain@{offset}"));
        offset += chunk.len();
    }
    assert_eq!(offset, stream.len(), "{label}");
}

fn check_all_widths<P: ChannelPack>(n: usize) {
    check_width::<1, P>(n);
    check_width::<2, P>(n);
    check_width::<4, P>(n);
    check_width::<8, P>(n);
    check_width::<16, P>(n);
}

#[test]
fn bitstring_fill_matches_the_per_bit_reference() {
    for n in LINES.into_iter().filter(|&n| n <= 64) {
        check_all_widths::<BitString>(n);
    }
}

#[test]
fn channel_vec_fill_matches_the_per_bit_reference() {
    for n in LINES {
        check_all_widths::<ChannelVec>(n);
    }
}

/// `WordSource` fills exactly the blocks `IterSource<BitString>` fills
/// from the same vectors, with stray bits past the line count ignored
/// (the live-lane rounds would fold them into live lanes if they were
/// not masked off).
fn check_word_source<const W: usize>(n: usize) {
    let cap = W * 64;
    for count in [0]
        .into_iter()
        .chain(counts::<W>())
        .chain([cap + 1, 2 * cap + 5])
    {
        let stream: Vec<BitString> = vectors(n, count);
        let label = format!("words n={n} W={W} count={count}");
        let stray = !low_mask(n);
        let mut from_words = WordSource::new(n, stream.iter().map(|s| s.word() | stray));
        let mut from_strings = IterSource::new(n, stream.iter().copied());
        let mut a = WideBlock::<W>::zeroed(n);
        let mut b = WideBlock::<W>::zeroed(n);
        loop {
            let more = from_words.next_block(&mut a);
            assert_eq!(more, from_strings.next_block(&mut b), "{label}");
            if !more {
                break;
            }
            assert_eq!(a, b, "{label}");
        }
        let words = WordSource::new(n, stream.iter().map(BitString::word));
        check_drain::<W, BitString>(words, n, &stream, &label);
    }
}

#[test]
fn word_source_fill_matches_the_bitstring_iter_source() {
    for n in LINES.into_iter().filter(|&n| n <= 64) {
        check_word_source::<1>(n);
        check_word_source::<2>(n);
        check_word_source::<4>(n);
        check_word_source::<8>(n);
        check_word_source::<16>(n);
    }
}

#[test]
#[should_panic(expected = "input length mismatch")]
fn a_wrong_length_bitstring_panics() {
    let inputs = [BitString::zeros(6), BitString::zeros(7)];
    let _ = WideBlock::<1>::from_strings(6, &inputs);
}

#[test]
#[should_panic(expected = "input length mismatch")]
fn a_wrong_length_channel_vec_panics() {
    let inputs = [ChannelVec::zeros(65), ChannelVec::zeros(64)];
    let _ = WideBlock::<2>::from_strings(65, &inputs);
}
