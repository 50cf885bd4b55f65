//! Smoke tests of the differential grinder: a pinned clean run, the
//! catch-and-shrink pipeline against an injected oracle bug, and replay
//! reproducibility from the printed seed alone.

use sortnet_grinder::{grind_verify, run, run_case, run_verify_case, Corruption, GrinderConfig};
use sortnet_network::{BudgetReason, Budgeted, SweepBudget};

/// The pinned CI seed: these cases are ground on every push, on every
/// runnable lane-ops backend.
const PINNED_SEED: u64 = 0xC0FF_EE00_5EED;

#[test]
fn pinned_seed_grind_is_clean() {
    let outcome = run(&GrinderConfig::new(PINNED_SEED, 24));
    let Budgeted::Complete(mismatches) = outcome else {
        panic!("unlimited budget must complete");
    };
    assert!(
        mismatches.is_empty(),
        "engines disagree on pinned cases:\n{}",
        mismatches
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn an_injected_oracle_bug_is_caught_and_shrunk_small() {
    let mut config = GrinderConfig::new(PINNED_SEED, 6);
    config.corruption = Corruption::FlipLastFault;
    let mismatches = run(&config).into_value();
    assert!(
        !mismatches.is_empty(),
        "the planted oracle flip must be caught"
    );
    for m in &mismatches {
        assert!(
            m.network.size() <= 8,
            "reproducer must shrink to <= 8 comparators, kept {} (case {})",
            m.network.size(),
            m.case_index
        );
        assert_eq!(m.faults.len(), 1, "one fault must suffice to reproduce");
        assert_eq!(m.tests.len(), 1, "one test must suffice to reproduce");
        assert!(m.network.size() <= m.original_size);
        assert!(!m.detail.is_empty());
    }
}

#[test]
fn mismatches_replay_from_the_seed_alone() {
    let mut config = GrinderConfig::new(PINNED_SEED, 4);
    config.corruption = Corruption::FlipLastFault;
    let mismatches = run(&config).into_value();
    let first = mismatches.first().expect("the planted flip must be caught");
    // The replay line prints only the seed and case index; regenerating
    // from those two values must reproduce the identical shrunk report.
    let replayed = run_case(first.seed, first.case_index, Corruption::FlipLastFault)
        .expect("replay must reproduce the mismatch");
    assert_eq!(&replayed, first);
}

#[test]
fn wide_channel_cases_cross_the_64_line_wall() {
    // Every fourth case index draws 65–96 lines with multi-word test
    // vectors.  Clean on the pinned seed, and when the oracle flip is
    // planted the catch-and-shrink pipeline must chase it down the same
    // way it does on single-word cases.
    for index in [3u64, 7, 11] {
        assert!(
            run_case(PINNED_SEED, index, Corruption::None).is_none(),
            "engines disagree on pinned wide case {index}"
        );
        let m = run_case(PINNED_SEED, index, Corruption::FlipLastFault)
            .expect("the planted flip must be caught on wide cases");
        assert!(m.tests.iter().all(|t| t.len() > 64));
        assert_eq!(m.faults.len(), 1);
        assert_eq!(m.tests.len(), 1);
    }
}

#[test]
fn grinding_is_deterministic_per_seed() {
    let mut config = GrinderConfig::new(42, 4);
    config.corruption = Corruption::FlipLastFault;
    let a = run(&config).into_value();
    let b = run(&config).into_value();
    assert_eq!(a, b);
    assert!(!a.is_empty());
}

#[test]
fn pinned_seed_verify_grind_is_clean_and_deterministic() {
    // The verify leg: minimal-binary, permutation and packed-family
    // test-set strategies against the exhaustive sorter oracle, over
    // true sorters, wounded sorters and random networks.
    let mismatches = grind_verify(PINNED_SEED, 32);
    assert!(
        mismatches.is_empty(),
        "test-set strategies disagree with the exhaustive oracle:\n{}",
        mismatches
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Case generation is a pure function of (seed, index).
    for index in [0u64, 5, 13] {
        assert_eq!(
            run_verify_case(PINNED_SEED, index),
            run_verify_case(PINNED_SEED, index)
        );
    }
}

#[test]
fn a_block_budget_caps_the_case_count() {
    let mut config = GrinderConfig::new(PINNED_SEED, 1_000_000);
    config.budget = SweepBudget::unlimited().with_max_blocks(3);
    let Budgeted::Partial {
        progress, reason, ..
    } = run(&config)
    else {
        panic!("a 3-block budget over a million cases must trip");
    };
    assert_eq!(reason, BudgetReason::Blocks);
    assert_eq!(progress.blocks, 3);
}
