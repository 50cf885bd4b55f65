//! The decision-problem view of §1.
//!
//! The paper frames its bounds through decision problems of the form
//! "INSTANCE: a network H.  OUTPUT: 'yes' iff H has a given property", and
//! recalls (from the authors' companion paper and Rabin's independent proof)
//! that *"is H a sorting network?"* is coNP-complete.  The coNP structure is
//! visible directly in this workspace:
//!
//! * a **"no" certificate** is a single input that H fails to handle — short
//!   and checkable in linear time ([`Certificate`], [`check_certificate`]);
//! * the theorem quoted in §1 links certificate *count* to hardness: a
//!   property whose smallest test set has size ≥ c·2ⁿ cannot be decided in
//!   polynomial time unless NP = coNP.  [`testset_exponential_fraction`]
//!   computes the fraction `|smallest test set| / 2^n` that the theorem
//!   refers to, for each of the paper's properties.
//!
//! Nothing here decides the problems faster than the exponential oracles —
//! that would contradict the paper — but the module packages the
//! certificate-checking side, which *is* polynomial, and is what a user
//! auditing a claimed counterexample actually needs.

use serde::{Deserialize, Serialize};

use sortnet_combinat::BitString;
use sortnet_network::lanes::Backend;
use sortnet_network::properties::selects_correctly;
use sortnet_network::Network;

use crate::verify::Property;

/// A succinct "no" certificate for one of the paper's properties: an input
/// the network handles incorrectly.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Certificate {
    /// The property being refuted.
    pub property: Property,
    /// The offending input.
    pub input: BitString,
}

impl Certificate {
    /// Builds a certificate claiming that `input` refutes `property`.
    #[must_use]
    pub fn new(property: Property, input: BitString) -> Self {
        Self { property, input }
    }
}

/// Checks a claimed certificate in time `O(size of the network)`.
///
/// Returns `true` when the certificate is valid, i.e. the network really
/// does mis-handle the given input **and** the input is a legal instance of
/// the property (any string for sorting/selection; a string whose halves are
/// sorted for merging).
#[must_use]
pub fn check_certificate(network: &Network, certificate: &Certificate) -> bool {
    let n = network.lines();
    if certificate.input.len() != n {
        return false;
    }
    let output = network.apply_bits(&certificate.input);
    match certificate.property {
        Property::Sorter => !output.is_sorted(),
        Property::Selector { k } => k <= n && !selects_correctly(&certificate.input, &output, k),
        Property::Merger => {
            if !n.is_multiple_of(2) {
                return false;
            }
            let half = n / 2;
            let legal = certificate.input.slice(0, half).is_sorted()
                && certificate.input.slice(half, n).is_sorted();
            legal && !output.is_sorted()
        }
    }
}

/// Extracts a valid certificate from a verification failure, when the
/// network indeed lacks the property.  Returns `None` for networks that have
/// the property (no certificate exists).
///
/// # Panics
/// Panics with the typed refusal's text when the minimal-binary
/// verification cannot run (more than 64 lines, or a selector `k > n`).
#[must_use]
pub fn find_certificate(network: &Network, property: Property) -> Option<Certificate> {
    let report = crate::verify::try_verify_on(
        network,
        property,
        crate::verify::Strategy::MinimalBinary,
        Backend::active(),
    )
    .unwrap_or_else(|e| panic!("{e}"));
    if report.passed {
        return None;
    }
    let input = report.witness?;
    let certificate = Certificate::new(property, input);
    debug_assert!(check_certificate(network, &certificate));
    Some(certificate)
}

/// The fraction `|smallest test set| / 2^n` appearing in the §1 hardness
/// criterion, for each property.  For sorting the fraction tends to 1 (so
/// the criterion applies and testing is intractable); for merging it tends
/// to 0 (the criterion does not apply — and indeed merging is testable with
/// `n/2` inputs).
#[must_use]
pub fn testset_exponential_fraction(property: Property, n: u64) -> f64 {
    let size = match property {
        Property::Sorter => sortnet_combinat::binomial::sorting_testset_size_binary(n),
        Property::Selector { k } => {
            sortnet_combinat::binomial::selector_testset_size_binary(n, k as u64)
        }
        Property::Merger => sortnet_combinat::binomial::merging_testset_size_binary(n),
    };
    size as f64 / (1u128 << n) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary;
    use sortnet_network::builders::batcher::{half_half_merger, odd_even_merge_sort};

    #[test]
    fn adversary_networks_yield_checkable_certificates() {
        for sigma in BitString::all_unsorted(6) {
            let h = adversary::adversary(&sigma);
            let cert = find_certificate(&h, Property::Sorter).expect("H_σ is not a sorter");
            assert_eq!(
                cert.input, sigma,
                "the only possible certificate is σ itself"
            );
            assert!(check_certificate(&h, &cert));
        }
    }

    #[test]
    fn sorters_have_no_certificate() {
        let sorter = odd_even_merge_sort(7);
        assert!(find_certificate(&sorter, Property::Sorter).is_none());
        assert!(find_certificate(&sorter, Property::Selector { k: 3 }).is_none());
    }

    #[test]
    fn bogus_certificates_are_rejected() {
        let sorter = odd_even_merge_sort(6);
        // A sorted claim against a correct sorter.
        let bogus = Certificate::new(Property::Sorter, BitString::parse("010101").unwrap());
        assert!(!check_certificate(&sorter, &bogus));
        // Wrong length.
        let wrong_len = Certificate::new(Property::Sorter, BitString::parse("01").unwrap());
        assert!(!check_certificate(&sorter, &wrong_len));
        // A merging certificate whose halves are not sorted is not a legal
        // merge instance, even though the empty network fails to sort it.
        let empty = Network::empty(6);
        let illegal = Certificate::new(Property::Merger, BitString::parse("010101").unwrap());
        assert!(!check_certificate(&empty, &illegal));
        let legal = Certificate::new(Property::Merger, BitString::parse("011001").unwrap());
        assert!(check_certificate(&empty, &legal));
    }

    #[test]
    fn merger_certificates_respect_instance_legality() {
        let merger = half_half_merger(8);
        assert!(find_certificate(&merger, Property::Merger).is_none());
        let cert = find_certificate(&merger, Property::Sorter).expect("a merger is not a sorter");
        assert!(check_certificate(&merger, &cert));
    }

    #[test]
    fn exponential_fraction_separates_hard_and_easy_properties() {
        // Sorting keeps a constant (→ 1) fraction of all 2^n inputs, so the
        // §1 hardness criterion applies; merging and 1-selection shrink to a
        // vanishing fraction, consistent with their polynomial-size test sets.
        let mut previous_merging = f64::INFINITY;
        for n in [8u64, 16, 24] {
            let sorting = testset_exponential_fraction(Property::Sorter, n);
            let merging = testset_exponential_fraction(Property::Merger, n);
            let select1 = testset_exponential_fraction(Property::Selector { k: 1 }, n);
            assert!(sorting > 0.9, "sorting fraction at n = {n} was {sorting}");
            assert!(
                merging < previous_merging,
                "merging fraction must shrink with n"
            );
            assert!(
                select1 <= merging,
                "1-selection needs no more tests than merging"
            );
            previous_merging = merging;
        }
        assert!(testset_exponential_fraction(Property::Merger, 24) < 1e-4);
    }
}
