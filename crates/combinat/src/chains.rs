//! Symmetric chain decomposition of the Boolean lattice (Greene–Kleitman
//! bracketing).
//!
//! Theorem 2.4 of the paper relies on a family `B(n, k)` of `C(n, k)`
//! permutations such that *every* `t`-element subset of `{1, …, n}` appears
//! as the first `t` elements of at least one permutation, for all `t ≤ k`
//! (the paper cites Knuth, exercise 6.5.1-1).  The clean way to build that
//! family is the classical **symmetric chain decomposition** (SCD) of the
//! subset lattice: a partition of all `2^n` subsets into chains
//! `S_m ⊂ S_{m+1} ⊂ … ⊂ S_{n−m}` where `|S_i| = i` (a chain "symmetric"
//! about level `n/2`), each step adding one element.
//!
//! We implement the Greene–Kleitman bracketing rule: write the subset as a
//! word where element `i` present ↦ `)` and absent ↦ `(`, match brackets in
//! the usual way; the matched positions are frozen along the chain, and the
//! chain is obtained by filling the unmatched positions left-to-right with
//! `)`s (i.e. the unmatched positions carry a prefix of 1s).
//!
//! From the SCD, the permutation associated with a `k`-subset lists the
//! chain's minimum, then the elements added climbing the chain, then the
//! leftovers — giving exactly the prefix-covering property the paper needs
//! (see `sortnet-testsets::bnk`).

use serde::{Deserialize, Serialize};

use crate::check_n;
use crate::subsets::Subset;

/// One symmetric chain: a maximal nested sequence of subsets produced by the
/// Greene–Kleitman rule, each step adding a single element.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SymmetricChain {
    /// Chain members from the minimum (smallest cardinality) to the maximum.
    members: Vec<Subset>,
    /// Unmatched positions in increasing order; member `t` of the chain has
    /// exactly the first `t` of these present (plus the frozen matched 1s).
    unmatched: Vec<usize>,
    /// Frozen (matched) elements present in every member.
    frozen: Subset,
}

impl SymmetricChain {
    /// Chain members from minimum to maximum cardinality.
    #[must_use]
    pub fn members(&self) -> &[Subset] {
        &self.members
    }

    /// The smallest member of the chain.
    #[must_use]
    pub fn min(&self) -> &Subset {
        &self.members[0]
    }

    /// The largest member of the chain.
    #[must_use]
    pub fn max(&self) -> &Subset {
        &self.members[self.members.len() - 1]
    }

    /// The member of cardinality `level`, if the chain passes through it.
    #[must_use]
    pub fn member_at_level(&self, level: usize) -> Option<&Subset> {
        let min_level = self.min().len();
        if level < min_level || level > self.max().len() {
            return None;
        }
        Some(&self.members[level - min_level])
    }

    /// The unmatched positions (the elements that vary along the chain), in
    /// increasing order.
    #[must_use]
    pub fn unmatched(&self) -> &[usize] {
        &self.unmatched
    }

    /// The frozen elements present in every chain member.
    #[must_use]
    pub fn frozen(&self) -> &Subset {
        &self.frozen
    }

    /// An *insertion order* for the chain: the elements of the minimum
    /// member in increasing order, followed by the elements added while
    /// climbing the chain (in climb order), followed by the elements of the
    /// universe that never join the chain, in increasing order.
    ///
    /// The defining property (used by `B(n, k)`): for every level `ℓ`
    /// between the chain's minimum and maximum cardinality, the first `ℓ`
    /// entries of the insertion order are exactly the chain's level-`ℓ`
    /// member.
    #[must_use]
    pub fn insertion_order(&self) -> Vec<usize> {
        let n = self.min().universe();
        let mut order = self.min().elements();
        // Elements added climbing the chain are the unmatched positions in
        // increasing order, *after* the ones already present at the minimum.
        let already: Vec<usize> = self
            .unmatched
            .iter()
            .copied()
            .filter(|e| self.min().contains(*e))
            .collect();
        debug_assert!(already.is_empty(), "minimum member has no unmatched 1s");
        order.extend(self.unmatched.iter().copied());
        let in_chain = self.max();
        order.extend((0..n).filter(|e| !in_chain.contains(*e)));
        order
    }
}

/// The Greene–Kleitman bracket matching of the subset `mask` of
/// `{0, …, n−1}`, at word level: the mask of matched positions.
///
/// Element `i` present reads `)`, absent reads `(`, left to right; each
/// `)` matches the nearest unmatched `(` before it.  The unmatched `(`
/// positions always form a stack in increasing order, so the stack is a
/// word and a pop clears its highest bit.
#[must_use]
pub fn bracket_matched(mask: u64, n: usize) -> u64 {
    check_n(n);
    let (mut open, mut matched) = (0u64, 0u64);
    for i in 0..n {
        if (mask >> i) & 1 == 0 {
            open |= 1 << i;
        } else if open != 0 {
            let j = 63 - open.leading_zeros();
            open &= !(1 << j);
            matched |= (1 << i) | (1 << j);
        }
    }
    matched
}

/// Returns the symmetric chain containing `subset` under the
/// Greene–Kleitman bracketing rule.
#[must_use]
pub fn chain_of(subset: &Subset) -> SymmetricChain {
    let n = subset.universe();
    let matched = bracket_matched(subset.mask(), n);
    let unmatched: Vec<usize> = (0..n).filter(|&i| (matched >> i) & 1 == 0).collect();
    let frozen = Subset::from_mask(matched & subset.mask(), n);

    // Chain member at unmatched-level t: frozen 1s + first t unmatched
    // positions set to 1.
    let mut members = Vec::with_capacity(unmatched.len() + 1);
    for t in 0..=unmatched.len() {
        let mut m = frozen;
        for &e in &unmatched[..t] {
            m = m.with(e);
        }
        members.push(m);
    }
    SymmetricChain {
        members,
        unmatched,
        frozen,
    }
}

/// The full symmetric chain decomposition of the Boolean lattice on `n`
/// elements: every subset appears in exactly one chain.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SymmetricChainDecomposition {
    n: usize,
    chains: Vec<SymmetricChain>,
}

impl SymmetricChainDecomposition {
    /// Computes the decomposition for a universe of size `n`.
    ///
    /// # Panics
    /// Panics if `n > 24` (the decomposition materialises all `2^n`
    /// subsets; the experiments never need more).
    #[must_use]
    pub fn new(n: usize) -> Self {
        check_n(n);
        assert!(
            n <= 24,
            "materialising the SCD of 2^{n} subsets is too large"
        );
        let mut chains = Vec::new();
        let mut seen = vec![false; 1usize << n];
        for s in Subset::all(n) {
            if seen[s.mask() as usize] {
                continue;
            }
            let chain = chain_of(&s);
            for m in chain.members() {
                seen[m.mask() as usize] = true;
            }
            chains.push(chain);
        }
        Self { n, chains }
    }

    /// Universe size.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// All chains of the decomposition.
    #[must_use]
    pub fn chains(&self) -> &[SymmetricChain] {
        &self.chains
    }

    /// Number of chains; equals `C(n, ⌊n/2⌋)` for a symmetric chain
    /// decomposition.
    #[must_use]
    pub fn chain_count(&self) -> usize {
        self.chains.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binomial::binomial_u128;
    use std::collections::HashSet;

    #[test]
    fn chain_members_are_nested_and_grow_by_one() {
        for n in 1..=10usize {
            for s in Subset::all(n) {
                let chain = chain_of(&s);
                for w in chain.members().windows(2) {
                    assert!(w[0].is_subset_of(&w[1]));
                    assert_eq!(w[0].len() + 1, w[1].len());
                }
                assert!(chain.members().contains(&s), "chain must contain its seed");
            }
        }
    }

    #[test]
    fn chains_are_symmetric_about_the_middle_level() {
        for n in 1..=10usize {
            for s in Subset::all(n) {
                let chain = chain_of(&s);
                assert_eq!(chain.min().len() + chain.max().len(), n);
            }
        }
    }

    #[test]
    fn chain_of_is_constant_along_the_chain() {
        for n in 1..=9usize {
            for s in Subset::all(n) {
                let chain = chain_of(&s);
                for m in chain.members() {
                    assert_eq!(chain_of(m), chain, "n={n} seed={s:?} member={m:?}");
                }
            }
        }
    }

    #[test]
    fn decomposition_partitions_the_lattice() {
        for n in 1..=10usize {
            let scd = SymmetricChainDecomposition::new(n);
            let mut seen = HashSet::new();
            for chain in scd.chains() {
                for m in chain.members() {
                    assert!(seen.insert(m.mask()), "subset {m:?} in two chains");
                }
            }
            assert_eq!(seen.len(), 1 << n);
        }
    }

    #[test]
    fn chain_count_is_central_binomial() {
        for n in 1..=12usize {
            let scd = SymmetricChainDecomposition::new(n);
            assert_eq!(
                scd.chain_count() as u128,
                binomial_u128(n as u64, (n / 2) as u64)
            );
        }
    }

    #[test]
    fn every_chain_through_low_levels_reaches_the_middle() {
        // Needed by the B(n, k) construction: the chain through any subset of
        // cardinality t ≤ ⌊n/2⌋ contains a subset of every cardinality up to
        // ⌈n/2⌉ ≥ k.
        for n in 1..=10usize {
            let k = n / 2;
            for t in 0..=k {
                for s in Subset::all_with_len(n, t) {
                    let chain = chain_of(&s);
                    assert!(chain.min().len() <= t);
                    assert!(chain.max().len() >= n - t);
                    assert!(chain.member_at_level(k).is_some());
                }
            }
        }
    }

    #[test]
    fn insertion_order_prefixes_are_chain_members() {
        for n in 1..=9usize {
            for s in Subset::all(n) {
                let chain = chain_of(&s);
                let order = chain.insertion_order();
                assert_eq!(order.len(), n);
                // The order is a permutation of 0..n.
                let distinct: HashSet<_> = order.iter().copied().collect();
                assert_eq!(distinct.len(), n);
                for level in chain.min().len()..=chain.max().len() {
                    let prefix = Subset::from_elements(&order[..level], n);
                    assert_eq!(
                        prefix,
                        *chain.member_at_level(level).unwrap(),
                        "n={n} level={level}"
                    );
                }
            }
        }
    }

    #[test]
    fn full_and_empty_sets_share_a_chain() {
        // The chain through the empty set has no matched pairs, so it runs
        // from ∅ to the full universe.
        for n in 1..=8usize {
            let chain = chain_of(&Subset::empty(n));
            assert_eq!(chain.min().len(), 0);
            assert_eq!(chain.max().len(), n);
            assert_eq!(chain.insertion_order(), (0..n).collect::<Vec<_>>());
        }
    }
}
