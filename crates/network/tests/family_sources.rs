//! Differential tests of the packed structured families: every
//! [`PackedFamily`] is checked, at seam-straddling widths, against a
//! *shift-free* `Vec<u8>` reference model that never touches a word or
//! a bit mask — so an off-by-one in the lane-word range arithmetic
//! cannot hide in a reference built from the same arithmetic.
//!
//! Three layers are graded, per family × n ∈ {63, 64, 65, 96, 127, 128}:
//!
//! 1. the scalar per-index accessor ([`PackedFamily::vector`]);
//! 2. the direct block fill ([`FamilySource`] drained at W ∈ {1, 4} —
//!    family sizes are not multiples of the block capacity, so partial
//!    blocks and the 64-vector seams inside a block are always hit);
//! 3. the full sweep engine over the family, on every runnable lane-ops
//!    backend × W ∈ {1, 4}, against a `Vec<u8>` comparator simulation.

use sortnet_combinat::{ChannelPack, ChannelVec};
use sortnet_network::lanes::{
    collect_packed, sweep_find, Backend, Check, FamilySource, PackedFamily,
};
use sortnet_network::{BudgetMeter, Network};

const WIDTHS_N: [usize; 6] = [63, 64, 65, 96, 127, 128];

fn families() -> Vec<PackedFamily> {
    vec![
        PackedFamily::SortedStrings,
        PackedFamily::WeightAtMost(0),
        PackedFamily::WeightAtMost(2),
        PackedFamily::SingleRuns,
        PackedFamily::NecessityWitnesses,
    ]
}

// ---- the shift-free reference model ------------------------------------

/// All subsets of `{0, …, n−1}` of size ≤ `k`, as 0/1 membership rows,
/// weight-ascending and colex within each weight — derived by recursive
/// enumeration plus an explicit sort, sharing no code with the streamed
/// combination advance.
fn reference_weight_at_most(n: usize, k: usize) -> Vec<Vec<u8>> {
    fn subsets(
        n: usize,
        k: usize,
        start: usize,
        current: &mut Vec<usize>,
        out: &mut Vec<Vec<usize>>,
    ) {
        out.push(current.clone());
        if current.len() == k {
            return;
        }
        for i in start..n {
            current.push(i);
            subsets(n, k, i + 1, current, out);
            current.pop();
        }
    }
    let mut all = Vec::new();
    subsets(n, k.min(n), 0, &mut Vec::new(), &mut all);
    // Weight-ascending, colex within weight: compare member lists from
    // the largest element down.
    all.sort_by(|a, b| {
        a.len()
            .cmp(&b.len())
            .then_with(|| a.iter().rev().cmp(b.iter().rev()))
    });
    all.iter()
        .map(|members| {
            let mut row = vec![0u8; n];
            for &m in members {
                row[m] = 1;
            }
            row
        })
        .collect()
}

/// The family contents spelled out position-by-position over `Vec<u8>`.
fn reference_family(family: PackedFamily, n: usize) -> Vec<Vec<u8>> {
    match family {
        PackedFamily::SortedStrings => (0..=n)
            .map(|t| {
                let mut row = vec![0u8; n];
                for slot in row.iter_mut().skip(n - t) {
                    *slot = 1;
                }
                row
            })
            .collect(),
        PackedFamily::WeightAtMost(k) => reference_weight_at_most(n, k as usize),
        PackedFamily::SingleRuns => {
            let mut out = vec![vec![0u8; n]];
            for s in 0..n {
                for e in s..n {
                    let mut row = vec![0u8; n];
                    for slot in row.iter_mut().take(e + 1).skip(s) {
                        *slot = 1;
                    }
                    out.push(row);
                }
            }
            out
        }
        PackedFamily::NecessityWitnesses => (1..n)
            .map(|t| {
                // 0^{z−1} 1 0 1^{t−1} with z = n − t: the sorted string
                // of weight t with its 0/1 boundary pair swapped.
                let z = n - t;
                let mut row = vec![0u8; n];
                row[z - 1] = 1;
                for slot in row.iter_mut().skip(z + 1) {
                    *slot = 1;
                }
                row
            })
            .collect(),
    }
}

fn assert_rows_equal(got: &[ChannelVec], want: &[Vec<u8>], context: &str) {
    assert_eq!(got.len(), want.len(), "{context}: family size");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.len(), w.len(), "{context}: vector {i} length");
        for (line, &bit) in w.iter().enumerate() {
            assert_eq!(g.bit(line), bit == 1, "{context}: vector {i}, line {line}");
        }
    }
}

// ---- layer 1 + 2: accessor and block fill vs the reference -------------

#[test]
fn scalar_accessors_match_the_reference_model() {
    for n in WIDTHS_N {
        for family in families() {
            let want = reference_family(family, n);
            assert_eq!(family.len(n), want.len() as u64, "{family} n={n}");
            let got: Vec<ChannelVec> = (0..family.len(n)).map(|i| family.vector(n, i)).collect();
            assert_rows_equal(&got, &want, &format!("{family} n={n} accessor"));
        }
    }
}

#[test]
fn block_fill_matches_the_reference_model_at_both_widths() {
    for n in WIDTHS_N {
        for family in families() {
            let want = reference_family(family, n);
            let w1: Vec<ChannelVec> =
                collect_packed::<1, _, _>(FamilySource::<ChannelVec>::new(family, n));
            let w4: Vec<ChannelVec> =
                collect_packed::<4, _, _>(FamilySource::<ChannelVec>::new(family, n));
            assert_rows_equal(&w1, &want, &format!("{family} n={n} W=1"));
            assert_rows_equal(&w4, &want, &format!("{family} n={n} W=4"));
        }
    }
}

#[test]
fn source_accessors_agree_with_their_own_stream() {
    // FamilySource::vector is the random-access face of the same family
    // the stream fills block-wise; both must agree at every index.
    for n in [65usize, 96] {
        for family in families() {
            let source = FamilySource::<ChannelVec>::new(family, n);
            let streamed: Vec<ChannelVec> =
                collect_packed::<4, _, _>(FamilySource::<ChannelVec>::new(family, n));
            assert_eq!(source.len(), streamed.len() as u64);
            for (i, vector) in streamed.iter().enumerate() {
                assert_eq!(&source.vector(i as u64), vector, "{family} n={n} i={i}");
            }
        }
    }
}

// ---- layer 3: the sweep engine over the family, per backend ------------

/// Shift-free comparator simulation: apply the network to a `Vec<u8>`
/// row, then report whether the output is non-decreasing.
fn sorts_reference(network: &Network, row: &[u8]) -> bool {
    let mut v = row.to_vec();
    for c in network.comparators() {
        let (a, b) = (c.min_line(), c.max_line());
        if v[a] > v[b] {
            v.swap(a, b);
        }
    }
    v.windows(2).all(|w| w[0] <= w[1])
}

#[test]
fn family_sweeps_agree_with_the_reference_on_every_backend() {
    for n in WIDTHS_N {
        // A deliberately non-sorting network, so both the pass and the
        // witness paths are exercised depending on the family.
        let network = Network::from_pairs(n, &[(0, n - 1), (1, n / 2), (n / 3, n - 2), (0, 1)]);
        for family in families() {
            let want = reference_family(family, n);
            // First reference row the network fails to sort, if any.
            let first_unsorted = want.iter().position(|row| !sorts_reference(&network, row));
            for backend in Backend::runnable() {
                let outcomes = [
                    (
                        1usize,
                        sweep_find::<1, ChannelVec, _>(
                            FamilySource::<ChannelVec>::new(family, n),
                            &Check::Sorted(&network),
                            backend,
                            &mut BudgetMeter::unlimited(),
                        )
                        .unwrap(),
                    ),
                    (
                        4usize,
                        sweep_find::<4, ChannelVec, _>(
                            FamilySource::<ChannelVec>::new(family, n),
                            &Check::Sorted(&network),
                            backend,
                            &mut BudgetMeter::unlimited(),
                        )
                        .unwrap(),
                    ),
                ];
                for (width, outcome) in outcomes {
                    let context = format!("{family} n={n} {backend:?} W={width}");
                    match first_unsorted {
                        None => {
                            assert!(outcome.witness.is_none(), "{context}: spurious witness");
                            assert_eq!(outcome.tests_run, want.len() as u64, "{context}");
                        }
                        Some(index) => {
                            let witness = outcome.witness.unwrap_or_else(|| {
                                panic!("{context}: the engine missed reference row {index}")
                            });
                            // The engine reports the first violating
                            // *input* in source order.
                            let row = &want[index];
                            for (line, &bit) in row.iter().enumerate() {
                                assert_eq!(witness.bit(line), bit == 1, "{context}: line {line}");
                            }
                            assert!(outcome.tests_run > index as u64, "{context}");
                        }
                    }
                }
            }
        }
    }
}
