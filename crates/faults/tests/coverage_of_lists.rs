//! A grade of many test lists equals the grades of each list alone.
//!
//! [`coverage_of_universe_metered`] grades a slice of lists in one call:
//! the bit-parallel engines share one first-detection sweep (a prefix
//! several lists share is swept once) and one redundancy pass over the
//! faults any list missed, and the scalar engine grades the lists in
//! turn.  Every entry must equal [`coverage_of_universe_budgeted_packed_with`]
//! on that list alone, reports and refusals alike, on every engine and
//! every runnable backend.
//!
//! The lists are duplicated, truncated, reversed, diverging, empty and of
//! the wrong length.  Truncations cut the base list at every length from
//! 1 to 7, among the tests that first detect faults, so a list that
//! copied a detection at its own length would disagree.  Under `RelativeTo` the base list
//! detects faults no family vector detects, which the empty list misses:
//! classifying only the faults *every* list missed would leave them
//! unclassified for the empty list.

use sortnet_combinat::BitString;
use sortnet_faults::coverage::{
    coverage_of_universe_budgeted_packed_with, coverage_of_universe_metered, CoverageReport,
    FaultSimEngine, RedundancyMode,
};
use sortnet_faults::universe::{FaultUniverse, StandardUniverse};
use sortnet_faults::{BudgetMeter, Budgeted, EngineError, SweepBudget};
use sortnet_network::builders::batcher::odd_even_merge_sort;
use sortnet_network::lanes::{Backend, LaneWidth, PackedFamily};
use sortnet_network::random::NetworkSampler;
use sortnet_network::Network;

const ENGINES: [FaultSimEngine; 4] = [
    FaultSimEngine::Scalar,
    FaultSimEngine::BitParallelWide(LaneWidth::W1),
    FaultSimEngine::BitParallelWide(LaneWidth::W4),
    FaultSimEngine::BitParallelWide(LaneWidth::W16),
];

/// Grades `lists` in one call and each list alone, on every engine and
/// runnable backend, and asserts the two agree entry by entry.  Returns
/// the grades of the last engine and backend.
fn grades_agree(
    net: &Network,
    universe: &dyn FaultUniverse,
    lists: &[&[BitString]],
    mode: RedundancyMode,
) -> Vec<Result<CoverageReport, EngineError>> {
    let mut last = Vec::new();
    for engine in ENGINES {
        for backend in Backend::runnable() {
            let many = coverage_of_universe_metered(
                net,
                universe,
                lists,
                mode,
                engine,
                backend,
                &mut BudgetMeter::unlimited(),
            );
            assert_eq!(many.len(), lists.len());
            for (i, (tests, grade)) in lists.iter().zip(&many).enumerate() {
                let alone = coverage_of_universe_budgeted_packed_with(
                    net,
                    universe,
                    tests,
                    mode,
                    engine,
                    backend,
                    &SweepBudget::unlimited(),
                )
                .map(Budgeted::into_value);
                assert_eq!(
                    grade,
                    &alone,
                    "net {net} {} {mode:?} {engine:?} {} list {i}",
                    universe.name(),
                    backend.name()
                );
            }
            last = many;
        }
    }
    last
}

/// The base list with entry `at` replaced by `with`.
fn diverged(base: &[BitString], at: usize, with: BitString) -> Vec<BitString> {
    let mut list = base.to_vec();
    list[at] = with;
    list
}

#[test]
fn a_grade_of_many_lists_equals_each_list_graded_alone() {
    let n = 6;
    let mut sampler = NetworkSampler::new(0x5EED_0F11_5715);
    let sorter = odd_even_merge_sort(n);
    let networks = [
        sorter.clone(),
        sorter.without_comparator(4),
        sampler.network(n, 10),
    ];
    let base: Vec<BitString> = (0..24).map(|_| sampler.random_input(n)).collect();
    let mut reversed = base.clone();
    reversed.reverse();
    let all_ones = BitString::sorted_with(0, n);
    let mut lists: Vec<Vec<BitString>> = vec![
        base.clone(),
        Vec::new(),
        base.clone(),
        reversed,
        diverged(&base, 1, all_ones),
        diverged(&base, 5, all_ones),
        vec![BitString::from_word(0, n - 1)],
    ];
    for cut in 1..8 {
        lists.push(base[..cut].to_vec());
    }
    let lists: Vec<&[BitString]> = lists.iter().map(Vec::as_slice).collect();
    let modes = [
        RedundancyMode::Exhaustive,
        RedundancyMode::Skip,
        RedundancyMode::RelativeTo(PackedFamily::SortedStrings),
        RedundancyMode::RelativeTo(PackedFamily::WeightAtMost(2)),
    ];
    let mut relative_only = 0;
    for net in &networks {
        for universe in [
            StandardUniverse::StuckLine,
            StandardUniverse::SingleComparator,
        ] {
            for mode in modes {
                let grades = grades_agree(net, &universe, &lists, mode);
                assert_eq!(
                    grades[6],
                    Err(EngineError::InputLengthMismatch {
                        expected: n,
                        actual: n - 1
                    })
                );
                let [Ok(full), Ok(empty)] = [&grades[0], &grades[1]] else {
                    panic!("the base and the empty list are admitted");
                };
                if let RedundancyMode::RelativeTo(_) = mode {
                    // Faults the base detects that the family never does:
                    // the empty list must read them as redundant.
                    relative_only += empty
                        .undetectable_faults
                        .iter()
                        .filter(|f| !full.undetectable_faults.contains(f))
                        .count();
                }
            }
        }
    }
    assert!(
        relative_only > 0,
        "some list detects a family-invisible fault"
    );
}

#[test]
fn refusals_of_the_whole_network_reach_every_admitted_list() {
    // An empty universe: every list of the right length is refused with
    // `EmptyUniverse`, the wrong-length one with its own length first.
    let empty = Network::empty(3);
    let ok = vec![BitString::from_word(0b011, 3)];
    let short = vec![BitString::from_word(0, 2)];
    let lists: [&[BitString]; 4] = [&ok, &[], &short, &ok];
    let grades = grades_agree(
        &empty,
        &StandardUniverse::SingleComparator,
        &lists,
        RedundancyMode::Exhaustive,
    );
    let mismatch = EngineError::InputLengthMismatch {
        expected: 3,
        actual: 2,
    };
    assert_eq!(
        grades,
        [
            Err(EngineError::EmptyUniverse),
            Err(EngineError::EmptyUniverse),
            Err(mismatch),
            Err(EngineError::EmptyUniverse),
        ]
    );

    // `Exhaustive` at n = 32 is inadmissible for every list of the right
    // length, while `Skip` grades the same lists.
    let wide = Network::from_pairs(32, &[(0, 1), (1, 31)]);
    let tests = vec![
        BitString::from_word(0, 32),
        BitString::from_word(1 << 31, 32),
    ];
    let short = vec![BitString::from_word(0, 31)];
    let lists: [&[BitString]; 3] = [&tests, &short, &[]];
    let grades = grades_agree(
        &wide,
        &StandardUniverse::StuckLine,
        &lists,
        RedundancyMode::Exhaustive,
    );
    assert_eq!(
        grades,
        [
            Err(EngineError::SweepTooLarge { lines: 32 }),
            Err(EngineError::InputLengthMismatch {
                expected: 32,
                actual: 31
            }),
            Err(EngineError::SweepTooLarge { lines: 32 }),
        ]
    );
    let skipped = grades_agree(
        &wide,
        &StandardUniverse::StuckLine,
        &lists,
        RedundancyMode::Skip,
    );
    assert!(skipped[0].is_ok() && skipped[2].is_ok(), "{skipped:?}");

    // No lists, no grades.
    assert!(coverage_of_universe_metered::<BitString>(
        &wide,
        &StandardUniverse::StuckLine,
        &[],
        RedundancyMode::Exhaustive,
        FaultSimEngine::default(),
        Backend::Scalar,
        &mut BudgetMeter::unlimited(),
    )
    .is_empty());
}
