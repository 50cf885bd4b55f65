//! Property-based cross-check: every streaming `BlockSource` in the
//! test-set pipeline yields bit-for-bit the same vector sequence as the
//! corresponding `Vec<BitString>` constructor *and* as an independent
//! scalar enumeration of the theorem's family, and the streaming verifiers
//! agree with scalar re-implementations of their decision procedures.

use proptest::prelude::*;
use proptest::strategy::Strategy as _;

use sortnet_combinat::BitString;
use sortnet_network::lanes::{self, Backend};
use sortnet_network::properties::selects_correctly;
use sortnet_network::random::NetworkSampler;
use sortnet_network::Network;
use sortnet_testsets::verify::{try_verify_on, Property, Report, Strategy};
use sortnet_testsets::{merging, selector, sorting};

/// The minimal-binary verification of `property` on `backend`.
fn verify_minimal(net: &Network, property: Property, backend: Backend) -> Report {
    try_verify_on(net, property, Strategy::MinimalBinary, backend).unwrap()
}

/// Strategy: one of the backends this CPU runs, so every case names the
/// backend it checks.
fn arb_backend() -> impl proptest::strategy::Strategy<Value = Backend> {
    let backends = Backend::runnable();
    (0..backends.len()).prop_map(move |i| backends[i])
}

/// The Theorem 2.2 family, enumerated scalar-style (independent of the
/// block pipeline under test).
fn scalar_sorting_family(n: usize) -> Vec<BitString> {
    BitString::all(n).filter(|s| !s.is_sorted()).collect()
}

/// The Theorem 2.4 family `T_k^n`, enumerated scalar-style.
fn scalar_selector_family(n: usize, k: usize) -> Vec<BitString> {
    let mut out = Vec::new();
    for zeros in 0..=k {
        for s in BitString::all_with_weight(n, n - zeros) {
            if !s.is_sorted() {
                out.push(s);
            }
        }
    }
    out
}

/// The Theorem 2.5 family, enumerated scalar-style.
fn scalar_merging_family(n: usize) -> Vec<BitString> {
    let half = n / 2;
    let mut out = Vec::new();
    for z1 in 0..=half {
        for z2 in 0..=half {
            let s = BitString::sorted_with(z1, half - z1)
                .concat(&BitString::sorted_with(z2, half - z2));
            if !s.is_sorted() {
                out.push(s);
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Theorem 2.2: source ≡ Vec constructor ≡ scalar enumeration, at
    /// several lane widths.
    #[test]
    fn sorting_source_matches_constructor_and_scalar(n in 2usize..10) {
        let expected = scalar_sorting_family(n);
        prop_assert_eq!(sorting::binary_testset(n), expected.clone());
        prop_assert_eq!(
            lanes::collect_packed::<1, BitString, _>(sorting::binary_source(n)),
            expected.clone()
        );
        prop_assert_eq!(
            lanes::collect_packed::<2, BitString, _>(sorting::binary_source(n)),
            expected.clone()
        );
        prop_assert_eq!(
            lanes::collect_packed::<4, BitString, _>(sorting::binary_source(n)),
            expected
        );
    }

    /// Theorem 2.4: source ≡ Vec constructor ≡ scalar enumeration for
    /// every rank k.
    #[test]
    fn selector_source_matches_constructor_and_scalar(n in 2usize..10, sel in 0usize..100) {
        let k = sel % (n + 1);
        let expected = scalar_selector_family(n, k);
        prop_assert_eq!(selector::binary_testset(n, k), expected.clone());
        prop_assert_eq!(
            lanes::collect_packed::<1, BitString, _>(selector::binary_source(n, k)),
            expected.clone()
        );
        prop_assert_eq!(
            lanes::collect_packed::<4, BitString, _>(selector::binary_source(n, k)),
            expected
        );
    }

    /// Theorem 2.5: source ≡ Vec constructor ≡ scalar enumeration.
    #[test]
    fn merging_source_matches_constructor_and_scalar(half in 1usize..8) {
        let n = 2 * half;
        let expected = scalar_merging_family(n);
        prop_assert_eq!(merging::binary_testset(n), expected.clone());
        prop_assert_eq!(
            lanes::collect_packed::<1, BitString, _>(merging::binary_source(n)),
            expected.clone()
        );
        prop_assert_eq!(
            lanes::collect_packed::<4, BitString, _>(merging::binary_source(n)),
            expected
        );
    }

    /// The streaming binary verifiers agree with direct scalar test-set
    /// evaluation on random networks (verdict and witness alike).
    #[test]
    fn streaming_verifiers_agree_with_scalar_runs(seed in 0u64..10_000, backend in arb_backend()) {
        let n = 6;
        let mut sampler = NetworkSampler::new(seed);
        let net = sampler.network(n, 9);

        let v = verify_minimal(&net, Property::Sorter, backend);
        let scalar_witness = scalar_sorting_family(n)
            .into_iter()
            .find(|t| !net.apply_bits(t).is_sorted());
        prop_assert_eq!(v.passed, scalar_witness.is_none());
        prop_assert_eq!(v.witness, scalar_witness);

        for k in 0..=n {
            let v = verify_minimal(&net, Property::Selector { k }, backend);
            let scalar_witness = scalar_selector_family(n, k)
                .into_iter()
                .find(|t| !selects_correctly(t, &net.apply_bits(t), k));
            prop_assert_eq!(v.passed, scalar_witness.is_none(), "k = {}", k);
            prop_assert_eq!(v.witness, scalar_witness, "k = {}", k);
        }

        let v = verify_minimal(&net, Property::Merger, backend);
        let scalar_witness = scalar_merging_family(n)
            .into_iter()
            .find(|t| !net.apply_bits(t).is_sorted());
        prop_assert_eq!(v.passed, scalar_witness.is_none());
        prop_assert_eq!(v.witness, scalar_witness);
    }
}
