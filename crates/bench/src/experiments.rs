//! The experiment functions E1–E10 (see DESIGN.md §3).  Each returns a
//! [`Table`] whose rows juxtapose the paper's closed-form value with the
//! value measured from the constructions in this workspace.

use sortnet_combinat::binomial::{
    merging_testset_size_binary, merging_testset_size_permutation, selector_testset_size_binary,
    selector_testset_size_permutation, sorting_testset_size_binary,
    sorting_testset_size_permutation,
};
use sortnet_combinat::{BitString, Permutation};
use sortnet_faults::{
    try_coverage_of_universe_packed_with, CoverageReport, FaultSimEngine, FaultUniverse,
    RedundancyMode, StandardUniverse,
};
use sortnet_network::builders::batcher::{half_half_merger, odd_even_merge_sort};
use sortnet_network::builders::bubble::bubble_sort_network;
use sortnet_network::builders::selection::pruned_selector;
use sortnet_network::builders::transposition::odd_even_transposition;
use sortnet_network::lanes::{Backend, LaneWidth};
use sortnet_network::primitive::for_each_network;
use sortnet_network::properties::is_sorter;
use sortnet_network::random::NetworkSampler;
use sortnet_network::Network;
use sortnet_testsets::adversary::{survey, AdversaryVariant};
use sortnet_testsets::criteria::is_permutation_testset;
use sortnet_testsets::verify::{try_verify_on, Property, Report, Strategy};
use sortnet_testsets::{bnk, bounds, hitting, merging, primitive, selector, sorting};

use crate::table::Table;

/// E1 — Theorem 2.2(i): minimum 0/1 test set for sorting.
///
/// For each `n`, the constructed test set size, the closed form
/// `2^n − n − 1`, and (for `n ≤ 4`) the optimum found by the exhaustive
/// hitting-set search.
#[must_use]
pub fn e1_sorting_binary(max_n: usize) -> Table {
    let mut t = Table::new(
        "E1 — minimum 0/1 test set for sorting (Theorem 2.2 i)",
        &[
            "n",
            "constructed |T|",
            "2^n - n - 1",
            "hitting-set optimum",
            "match",
        ],
    );
    for n in 2..=max_n {
        let constructed = sorting::binary_testset(n).len() as u128;
        let formula = sorting_testset_size_binary(n as u64);
        let searched = if n <= 4 {
            let signatures = hitting::failure_signatures(n, 4);
            let universe = BitString::all_unsorted(n).count();
            hitting::minimum_hitting_set_size(&signatures, universe).to_string()
        } else {
            "—".to_string()
        };
        let matches = constructed == formula;
        t.push_row(vec![
            n.to_string(),
            constructed.to_string(),
            formula.to_string(),
            searched,
            matches.to_string(),
        ]);
    }
    t
}

/// E2 — Theorem 2.2(ii): minimum permutation test set for sorting.
#[must_use]
pub fn e2_sorting_permutation(max_n: usize) -> Table {
    let mut t = Table::new(
        "E2 — minimum permutation test set for sorting (Theorem 2.2 ii)",
        &[
            "n",
            "constructed |P|",
            "C(n,⌊n/2⌋) - 1",
            "covers all unsorted strings",
            "set-cover optimum",
        ],
    );
    for n in 2..=max_n {
        let testset = sorting::permutation_testset(n);
        let formula = sorting_testset_size_permutation(n as u64);
        let covers = is_permutation_testset(&testset, n, Property::Sorter);
        let searched = if n <= 4 {
            hitting::minimum_permutation_testset_size(n).to_string()
        } else {
            "—".to_string()
        };
        t.push_row(vec![
            n.to_string(),
            testset.len().to_string(),
            formula.to_string(),
            covers.to_string(),
            searched,
        ]);
    }
    t
}

/// E3 — the §2 (Yao) comparison: exhaustive vs minimal test counts.
#[must_use]
pub fn e3_yao_comparison(max_n: u64) -> Table {
    let mut t = Table::new(
        "E3 — test counts for the sorting property (§2, Yao's observation)",
        &[
            "n",
            "n!",
            "2^n",
            "2^n - n - 1",
            "C(n,⌊n/2⌋) - 1",
            "binary/permutation ratio",
        ],
    );
    for row in bounds::sorting_cost_table(max_n) {
        t.push_row(vec![
            row.n.to_string(),
            row.all_permutations.to_string(),
            row.all_binary.to_string(),
            row.minimal_binary.to_string(),
            row.minimal_permutation.to_string(),
            format!("{:.2}", bounds::permutation_savings_ratio(row.n)),
        ]);
    }
    t
}

/// E4 — Theorem 2.4(i): minimum 0/1 test sets for `(k, n)`-selection.
#[must_use]
pub fn e4_selector_binary(n: usize) -> Table {
    let mut t = Table::new(
        "E4 — minimum 0/1 test set for (k,n)-selection (Theorem 2.4 i)",
        &[
            "n",
            "k",
            "constructed |T|",
            "Σ C(n,i) - k - 1",
            "pruned selector passes",
            "empty network passes",
        ],
    );
    for k in 1..=n {
        let testset = selector::binary_testset(n, k);
        let formula = selector_testset_size_binary(n as u64, k as u64);
        let sel = pruned_selector(n, k);
        let good = verify(&sel, Property::Selector { k }, Strategy::MinimalBinary).passed;
        let bad = verify(
            &Network::empty(n),
            Property::Selector { k },
            Strategy::MinimalBinary,
        )
        .passed;
        t.push_row(vec![
            n.to_string(),
            k.to_string(),
            testset.len().to_string(),
            formula.to_string(),
            good.to_string(),
            bad.to_string(),
        ]);
    }
    t
}

/// E5 — Theorem 2.4(ii): minimum permutation test sets for selection.
#[must_use]
pub fn e5_selector_permutation(n: usize) -> Table {
    let mut t = Table::new(
        "E5 — minimum permutation test set for (k,n)-selection (Theorem 2.4 ii)",
        &[
            "n",
            "k",
            "constructed |P|",
            "C(n,min(⌊n/2⌋,k)) - 1",
            "covers T_k^n",
        ],
    );
    for k in 1..=n {
        let testset = selector::permutation_testset(n, k);
        let formula = selector_testset_size_permutation(n as u64, k as u64);
        let covers = is_permutation_testset(&testset, n, Property::Selector { k });
        t.push_row(vec![
            n.to_string(),
            k.to_string(),
            testset.len().to_string(),
            formula.to_string(),
            covers.to_string(),
        ]);
    }
    t
}

/// E6 — Theorem 2.5: merging test sets (both alphabets).
#[must_use]
pub fn e6_merging(max_n: usize) -> Table {
    let mut t = Table::new(
        "E6 — minimum test sets for (n/2,n/2)-merging (Theorem 2.5)",
        &[
            "n",
            "constructed 0/1 |T|",
            "n²/4",
            "constructed perm |P|",
            "n/2",
            "odd-even merger passes",
            "empty network passes",
        ],
    );
    for n in (2..=max_n).step_by(2) {
        let binary = merging::binary_testset(n);
        let perms = merging::permutation_testset(n);
        let merger = half_half_merger(n);
        t.push_row(vec![
            n.to_string(),
            binary.len().to_string(),
            merging_testset_size_binary(n as u64).to_string(),
            perms.len().to_string(),
            merging_testset_size_permutation(n as u64).to_string(),
            verify(&merger, Property::Merger, Strategy::Permutation)
                .passed
                .to_string(),
            verify(
                &Network::empty(n),
                Property::Merger,
                Strategy::MinimalBinary,
            )
            .passed
            .to_string(),
        ]);
    }
    t
}

/// E7 — Lemma 2.1: adversary-network survey (existence + size statistics).
#[must_use]
pub fn e7_adversary_survey(max_n: usize) -> Table {
    let mut t = Table::new(
        "E7 — Lemma 2.1 adversary networks H_σ (all unsorted σ verified exhaustively)",
        &[
            "n",
            "variant",
            "#networks",
            "min size",
            "max size",
            "mean size",
            "max depth",
        ],
    );
    for n in 3..=max_n {
        for (label, variant) in [
            ("compact", AdversaryVariant::Compact),
            ("paper", AdversaryVariant::Paper),
        ] {
            let stats = survey(n, variant);
            t.push_row(vec![
                n.to_string(),
                label.to_string(),
                stats.networks.to_string(),
                stats.min_size.to_string(),
                stats.max_size.to_string(),
                format!("{:.1}", stats.mean_size),
                stats.max_depth.to_string(),
            ]);
        }
    }
    t
}

/// E8 — §3 / de Bruijn: primitive networks need exactly one test.
#[must_use]
pub fn e8_primitive(max_n: usize) -> Table {
    let mut t = Table::new(
        "E8 — height-1 (primitive) networks: the single reverse-permutation test (§3)",
        &[
            "n",
            "class checked",
            "criterion = ground truth",
            "perm test set size",
            "0/1 test set size",
        ],
    );
    for n in 3..=max_n {
        // Exhaustively check all primitive networks with up to n+1 comparators.
        let mut checked = 0usize;
        let mut agree = true;
        for size in 0..=(n + 1).min(5) {
            for_each_network(n, 1, size, |net| {
                checked += 1;
                let by_single_test = sortnet_network::primitive::sorts_reverse_permutation(net);
                if by_single_test != is_sorter(net) {
                    agree = false;
                }
            });
        }
        t.push_row(vec![
            n.to_string(),
            format!("{checked} networks (≤ {} comparators)", (n + 1).min(5)),
            agree.to_string(),
            primitive::primitive_permutation_testset(n)
                .len()
                .to_string(),
            primitive::primitive_binary_testset(n).len().to_string(),
        ]);
    }
    t
}

/// Verification of `property` for `net` by `strategy` on the detected
/// lane-ops backend.
///
/// # Panics
/// Panics with the typed refusal's text on a network the strategy cannot
/// verify; every network the tables build is verifiable.
fn verify(net: &Network, property: Property, strategy: Strategy) -> Report {
    try_verify_on(net, property, strategy, Backend::active()).unwrap_or_else(|e| panic!("{e}"))
}

/// The exhaustively classified coverage grade of `tests` on `engine`.
///
/// # Panics
/// Panics with the typed refusal's text on a grade that cannot run; every
/// grade the tables run is admissible.
fn grade(
    net: &Network,
    universe: &StandardUniverse,
    tests: &[BitString],
    engine: FaultSimEngine,
) -> CoverageReport {
    try_coverage_of_universe_packed_with(net, universe, tests, RedundancyMode::Exhaustive, engine)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// E9 — test counts per verification strategy on concrete networks (the
/// wall-clock companion lives in `benches/bench_verification_cost.rs`).
#[must_use]
pub fn e9_verification_cost(max_n: usize) -> Table {
    let mut t = Table::new(
        "E9 — number of test evaluations to certify 'is a sorter' (per strategy)",
        &[
            "n",
            "network",
            "exhaustive 2^n",
            "minimal 0/1",
            "minimal permutations",
            "all agree",
        ],
    );
    for n in (4..=max_n).step_by(2) {
        for (label, net) in [
            ("Batcher merge-exchange", odd_even_merge_sort(n)),
            ("bubble sort", bubble_sort_network(n)),
            (
                "brick (n-2 rounds, not a sorter)",
                odd_even_transposition(n, n.saturating_sub(2)),
            ),
        ] {
            let ex = verify(&net, Property::Sorter, Strategy::Exhaustive);
            let mb = verify(&net, Property::Sorter, Strategy::MinimalBinary);
            let mp = verify(&net, Property::Sorter, Strategy::Permutation);
            let agree = ex.passed == mb.passed && mb.passed == mp.passed;
            t.push_row(vec![
                n.to_string(),
                label.to_string(),
                ex.tests_run.to_string(),
                mb.tests_run.to_string(),
                mp.tests_run.to_string(),
                agree.to_string(),
            ]);
        }
    }
    t
}

/// E10 — fault coverage: the paper's minimal sorting test set vs small
/// random input samples, against every standard fault universe
/// (single-comparator faults, stuck-at lines, fault pairs) of a Batcher
/// sorter.
///
/// Runs on the bit-parallel fault-simulation engine
/// ([`FaultSimEngine::BitParallelWide`] at `LaneWidth::W4`); the last column re-runs each row on
/// the scalar oracle and records that the two reports agree bit-for-bit.
/// The `undetectable` column is the universe's redundant-fault count — on
/// the richer universes (stuck lines, pairs) a nonzero value is expected
/// and the paper's "detects everything detectable" claim is judged by
/// `missed` alone.
#[must_use]
pub fn e10_fault_coverage(n: usize) -> Table {
    // The engines-agree column re-runs each row on the scalar oracle, so
    // the active lane-ops backend (scalar / portable / avx2) is itself
    // under test here — name it in the table title.
    let title = format!(
        "E10 — multi-universe fault coverage on Batcher's sorter (§1 VLSI motivation; lane backend: {})",
        sortnet_network::lanes::Backend::active().name()
    );
    let mut t = Table::new(
        &title,
        &[
            "n",
            "universe",
            "test sequence",
            "#tests",
            "#faults",
            "detected",
            "missed",
            "undetectable",
            "coverage",
            "mean tests to first detection",
            "engines agree",
        ],
    );
    let net = odd_even_merge_sort(n);
    let minimal = sorting::binary_testset(n);
    let perm_cover: Vec<BitString> = sorting::permutation_testset(n)
        .iter()
        .flat_map(Permutation::cover)
        .filter(|s| !s.is_sorted())
        .collect();
    let mut sampler = NetworkSampler::new(20_240_615);
    let random16: Vec<BitString> = (0..16).map(|_| sampler.random_input(n)).collect();
    let random64: Vec<BitString> = (0..64).map(|_| sampler.random_input(n)).collect();

    for universe in StandardUniverse::ALL {
        let sequences: Vec<(&str, &[BitString])> = match universe {
            StandardUniverse::SingleComparator => vec![
                ("minimal 0/1 test set", &minimal),
                ("covers of the permutation test set", &perm_cover),
                ("16 random inputs", &random16),
                ("64 random inputs", &random64),
            ],
            _ => vec![
                ("minimal 0/1 test set", &minimal),
                ("64 random inputs", &random64),
            ],
        };
        for (label, tests) in sequences {
            let report = grade(
                &net,
                &universe,
                tests,
                FaultSimEngine::BitParallelWide(LaneWidth::W4),
            );
            let oracle = grade(&net, &universe, tests, FaultSimEngine::Scalar);
            t.push_row(vec![
                n.to_string(),
                universe.name(),
                label.to_string(),
                tests.len().to_string(),
                report.total_faults.to_string(),
                report.detected.to_string(),
                report.missed.to_string(),
                report.redundant_faults.to_string(),
                format!("{:.3}", report.coverage),
                format!("{:.1}", report.mean_first_detection),
                (report == oracle).to_string(),
            ]);
        }
    }
    t
}

/// E2 companion: the `B(n, k)` family sanity sweep used by the experiments
/// binary (prefix-covering property across k).
#[must_use]
pub fn bnk_property_table(max_n: usize) -> Table {
    let mut t = Table::new(
        "B(n,k) prefix-covering family (Knuth ex. 6.5.1-1, built from symmetric chains)",
        &["n", "k", "|B(n,k)|", "prefix-covering property"],
    );
    for n in 2..=max_n {
        for k in 1..=n / 2 {
            let family = bnk::bnk_family(n, k);
            t.push_row(vec![
                n.to_string(),
                k.to_string(),
                family.len().to_string(),
                bnk::has_prefix_covering_property(&family, n, k).to_string(),
            ]);
        }
    }
    t
}

/// Runs every experiment with the default (fast) parameters and returns the
/// tables in order.  This is what the `experiments` binary prints and what
/// EXPERIMENTS.md records.
#[must_use]
pub fn all_default_tables() -> Vec<Table> {
    vec![
        e1_sorting_binary(10),
        e2_sorting_permutation(9),
        e3_yao_comparison(20),
        e4_selector_binary(10),
        e5_selector_permutation(8),
        e6_merging(16),
        e7_adversary_survey(9),
        e8_primitive(6),
        e9_verification_cost(12),
        e10_fault_coverage(8),
        bnk_property_table(8),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_matches_the_closed_form_everywhere() {
        let t = e1_sorting_binary(8);
        assert_eq!(t.len(), 7);
        let rendered = t.to_string();
        let data_rows: Vec<&str> = rendered
            .lines()
            .skip(4)
            .filter(|l| !l.trim().is_empty())
            .collect();
        assert_eq!(data_rows.len(), 7);
        assert!(data_rows.iter().all(|l| l.contains("true")));
    }

    #[test]
    fn e3_has_one_row_per_n() {
        assert_eq!(e3_yao_comparison(12).len(), 11);
    }

    #[test]
    fn e6_reports_pass_for_the_merger_and_fail_for_empty() {
        let s = e6_merging(8).to_string();
        for line in s.lines().skip(4).filter(|l| !l.trim().is_empty()) {
            let cols: Vec<&str> = line.split('|').map(str::trim).collect();
            assert_eq!(cols[cols.len() - 3], "true", "row: {line}");
            assert_eq!(cols[cols.len() - 2], "false", "row: {line}");
        }
    }

    #[test]
    fn e7_surveys_both_variants() {
        let t = e7_adversary_survey(5);
        assert_eq!(t.len(), 6); // n = 3,4,5 × 2 variants
    }

    #[test]
    fn e10_minimal_testset_has_full_coverage() {
        let s = e10_fault_coverage(6).to_string();
        let minimal_row = s
            .lines()
            .find(|l| l.contains("single-comparator") && l.contains("minimal 0/1"))
            .expect("row present");
        assert!(minimal_row.contains("1.000"));
    }

    #[test]
    fn e10_covers_every_standard_universe_and_engines_agree() {
        let s = e10_fault_coverage(6).to_string();
        for name in [
            "single-comparator",
            "stuck-line",
            "pairs(single-comparator)",
        ] {
            assert!(s.contains(name), "universe {name} missing:\n{s}");
        }
        for line in s.lines().skip(4).filter(|l| l.contains('|')) {
            let cols: Vec<&str> = line.split('|').map(str::trim).collect();
            assert_eq!(cols[cols.len() - 2], "true", "engines disagree: {line}");
        }
    }
}
