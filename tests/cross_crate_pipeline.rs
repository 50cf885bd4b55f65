//! End-to-end pipeline test: combinatorics → network construction →
//! test-set generation → verification → rendering/serialisation, as a user
//! of the workspace would chain them.

use sortnet_combinat::{BitString, Permutation, SymmetricChainDecomposition};
use sortnet_network::builders::batcher::odd_even_merge_sort;
use sortnet_network::render::{ascii_diagram, dot};
use sortnet_network::Network;
use sortnet_testsets::verify::{Property, Strategy};
use sortnet_testsets::{bnk, sorting};

mod support;
use support::verify;

#[test]
fn full_pipeline_from_chains_to_certified_sorter() {
    let n = 8;

    // 1. Combinatorics: the symmetric chain decomposition drives B(n, k).
    let scd = SymmetricChainDecomposition::new(n);
    assert_eq!(scd.chain_count(), 70); // C(8, 4)

    // 2. The permutation test set built from it has the Theorem 2.2(ii) size.
    let testset = sorting::permutation_testset(n);
    assert_eq!(testset.len(), 70 - 1);

    // 3. A Batcher sorter passes it; the certificate transfers to arbitrary
    //    values via the zero-one principle.
    let sorter = odd_even_merge_sort(n);
    let report = verify(&sorter, Property::Sorter, Strategy::Permutation);
    assert!(report.passed);
    assert_eq!(report.tests_run, 69);
    let mut values = vec![17u32, 3, 99, 3, 0, 250, 8, 41];
    let sorted = sorter.apply_vec(&values);
    values.sort_unstable();
    assert_eq!(sorted, values);

    // 4. Corrupt the sorter; the same test set catches it and reports a
    //    binary witness consistent with the network's behaviour.
    let corrupted = sorter.without_comparator(10);
    let report = verify(&corrupted, Property::Sorter, Strategy::Permutation);
    assert!(!report.passed);
    let witness = report
        .witness
        .expect("failing verification carries a witness");
    assert!(!corrupted.apply_bits(&witness).is_sorted());

    // 5. Rendering and serialisation round-trips for the artefacts involved.
    assert!(ascii_diagram(&sorter).lines().count() == n);
    assert!(dot(&sorter).contains("digraph"));
    let parsed = Network::parse_compact(n, &sorter.to_compact_string()).unwrap();
    assert_eq!(parsed, sorter);
}

#[test]
fn bnk_family_to_testset_to_cover_roundtrip() {
    let n = 7;
    let family = bnk::bnk_family(n, n / 2);
    assert!(bnk::has_prefix_covering_property(&family, n, n / 2));
    let testset: Vec<Permutation> = bnk::permutation_testset(n, n / 2);
    // Every unsorted string is covered, so the test set certifies sorting.
    for s in BitString::all_unsorted(n) {
        assert!(testset.iter().any(|p| p.covers(&s)), "{s} uncovered");
    }
    // And the covers are exactly threshold strings of the inverses of the
    // family members.
    for p in &testset {
        assert!(family.iter().any(|f| &f.inverse() == p));
    }
}

#[test]
fn paper_fig1_walkthrough() {
    // The walkthrough of §1/§2 of the paper: the Fig. 1 network, its
    // representation, the example input, and its failure as a sorter.
    let fig1 = Network::parse_compact(4, "[1,3][2,4][1,2][3,4]").unwrap();
    assert_eq!(fig1.size(), 4);
    assert_eq!(fig1.apply_vec(&[4, 1, 3, 2]), vec![1, 3, 2, 4]);

    let verdict = verify(&fig1, Property::Sorter, Strategy::MinimalBinary);
    assert!(!verdict.passed);
    // The exhaustive and minimal strategies agree on the verdict.
    assert!(!verify(&fig1, Property::Sorter, Strategy::Exhaustive).passed);
}
