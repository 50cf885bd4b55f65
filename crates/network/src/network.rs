//! Comparator networks: a fixed number of lines and a sequence of
//! comparators, exactly the model of §2 of the paper
//! (`[a₁,b₁][a₂,b₂]…[a_m,b_m]` with `1 ≤ aᵢ < bᵢ ≤ n`).

use serde::{Deserialize, Serialize};
use std::fmt;

use sortnet_combinat::{BitString, Permutation};

use crate::comparator::Comparator;

/// A comparator network over `n` lines.
///
/// Line 0 is the top line (the first character of the paper's 0/1 strings).
/// Comparators are applied in sequence order.
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Network {
    lines: usize,
    comparators: Vec<Comparator>,
}

impl Network {
    /// Creates the empty network (no comparators) over `n` lines.
    ///
    /// # Panics
    /// Panics if `n == 0` or `n > u16::MAX`.
    #[must_use]
    pub fn empty(n: usize) -> Self {
        assert!(n >= 1, "a network needs at least one line");
        assert!(n <= usize::from(u16::MAX), "too many lines");
        Self {
            lines: n,
            comparators: Vec::new(),
        }
    }

    /// Creates a network from an explicit comparator sequence.
    ///
    /// # Panics
    /// Panics if any comparator references a line ≥ `n`.
    #[must_use]
    pub fn from_comparators(n: usize, comparators: Vec<Comparator>) -> Self {
        let mut net = Self::empty(n);
        for c in comparators {
            net.push(c);
        }
        net
    }

    /// Convenience constructor from `(a, b)` index pairs (0-based,
    /// standard direction).
    ///
    /// # Panics
    /// Panics if any index is out of range or a pair is degenerate.
    #[must_use]
    pub fn from_pairs(n: usize, pairs: &[(usize, usize)]) -> Self {
        let comparators = pairs.iter().map(|&(a, b)| Comparator::new(a, b)).collect();
        Self::from_comparators(n, comparators)
    }

    /// Number of lines `n`.
    #[must_use]
    pub fn lines(&self) -> usize {
        self.lines
    }

    /// The comparator sequence.
    #[must_use]
    pub fn comparators(&self) -> &[Comparator] {
        &self.comparators
    }

    /// Number of comparators (the network's *size*).
    #[must_use]
    pub fn size(&self) -> usize {
        self.comparators.len()
    }

    /// `true` when the network has no comparators.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.comparators.is_empty()
    }

    /// `true` when every comparator is standard (the paper's model).
    #[must_use]
    pub fn is_standard(&self) -> bool {
        self.comparators.iter().all(Comparator::is_standard)
    }

    /// The maximum comparator height (see §3: height-k networks); `0` for an
    /// empty network.
    #[must_use]
    pub fn height(&self) -> usize {
        self.comparators
            .iter()
            .map(Comparator::height)
            .max()
            .unwrap_or(0)
    }

    /// `true` when the network is *primitive* (height-1): every comparator
    /// joins adjacent lines.
    #[must_use]
    pub fn is_primitive(&self) -> bool {
        self.height() <= 1
    }

    /// Appends a comparator.
    ///
    /// # Panics
    /// Panics if the comparator references a line ≥ `lines`.
    pub fn push(&mut self, c: Comparator) {
        assert!(
            c.bottom() < self.lines,
            "comparator {c} out of range for {} lines",
            self.lines
        );
        self.comparators.push(c);
    }

    /// Appends a standard comparator between lines `a` and `b`.
    pub fn push_pair(&mut self, a: usize, b: usize) {
        self.push(Comparator::new(a, b));
    }

    /// Appends all comparators of `other` (which must have the same number
    /// of lines).
    ///
    /// # Panics
    /// Panics if the line counts differ.
    pub fn extend(&mut self, other: &Network) {
        assert_eq!(self.lines, other.lines, "line count mismatch");
        self.comparators.extend_from_slice(&other.comparators);
    }

    /// Sequential composition: `self` followed by `other`.
    ///
    /// # Panics
    /// Panics if the line counts differ.
    #[must_use]
    pub fn then(&self, other: &Network) -> Self {
        let mut out = self.clone();
        out.extend(other);
        out
    }

    /// Embeds `inner` (a network on `k` lines) into this network by routing
    /// its line `i` onto line `line_map[i]` of `self`, appending the
    /// relabelled comparators.
    ///
    /// This is how the paper's constructions wire a smaller sorter `S(i)` or
    /// a 3-line widget onto a chosen subset of lines ("all other lines
    /// bypass" it).
    ///
    /// # Panics
    /// Panics if `line_map` has the wrong length, repeats a line, or maps
    /// outside the network.
    pub fn embed(&mut self, inner: &Network, line_map: &[usize]) {
        assert_eq!(line_map.len(), inner.lines(), "line map length mismatch");
        let mut seen = vec![false; self.lines];
        for &l in line_map {
            assert!(l < self.lines, "line map target {l} out of range");
            assert!(!seen[l], "line map repeats line {l}");
            seen[l] = true;
        }
        for c in inner.comparators() {
            self.push(c.relabel(line_map));
        }
    }

    /// Applies the network to a mutable slice of ordered values.
    ///
    /// # Panics
    /// Panics if the slice length differs from the number of lines.
    pub fn apply_slice<T: Ord>(&self, values: &mut [T]) {
        assert_eq!(values.len(), self.lines, "input length mismatch");
        for c in &self.comparators {
            c.apply_slice(values);
        }
    }

    /// Evaluates the network on a vector of ordered values, returning the
    /// output vector.
    #[must_use]
    pub fn apply_vec<T: Ord + Clone>(&self, values: &[T]) -> Vec<T> {
        let mut v = values.to_vec();
        self.apply_slice(&mut v);
        v
    }

    /// Evaluates the network on a 0/1 string (the paper's `H(σ)`).
    ///
    /// For a standard comparator on lines `(i, j)` with `i < j` the new
    /// values are `(σᵢ ∧ σⱼ, σᵢ ∨ σⱼ)`; the word-packed representation makes
    /// this a few bit operations per comparator.
    ///
    /// # Panics
    /// Panics if the string length differs from the number of lines.
    #[must_use]
    pub fn apply_bits(&self, input: &BitString) -> BitString {
        assert_eq!(input.len(), self.lines, "input length mismatch");
        let mut w = input.word();
        for c in &self.comparators {
            let i = c.min_line();
            let j = c.max_line();
            let bi = (w >> i) & 1;
            let bj = (w >> j) & 1;
            let min = bi & bj;
            let max = bi | bj;
            w = (w & !((1 << i) | (1 << j))) | (min << i) | (max << j);
        }
        BitString::from_word(w, self.lines)
    }

    /// Evaluates the network on a permutation, returning the output sequence
    /// (which is again a permutation of the same values).
    ///
    /// # Panics
    /// Panics if the permutation length differs from the number of lines.
    #[must_use]
    pub fn apply_permutation(&self, p: &Permutation) -> Permutation {
        let mut v = p.values().to_vec();
        self.apply_slice(&mut v);
        Permutation::from_values(&v).expect("a comparator network permutes its input")
    }

    /// The *flip* of the network: reverse the line order.  Standard
    /// comparators remain standard, and `flip(H)` sorts `flip(σ)` iff `H`
    /// sorts `σ` — the symmetry used by the Lemma 2.1 construction.
    #[must_use]
    pub fn flip(&self) -> Self {
        Self {
            lines: self.lines,
            comparators: self
                .comparators
                .iter()
                .map(|c| c.flip(self.lines))
                .collect(),
        }
    }

    /// Returns the network with comparator `index` removed (used by the
    /// fault models and the minimality experiments).
    ///
    /// # Panics
    /// Panics if `index ≥ size`.
    #[must_use]
    pub fn without_comparator(&self, index: usize) -> Self {
        assert!(index < self.size(), "comparator index out of range");
        let mut comparators = self.comparators.clone();
        comparators.remove(index);
        Self {
            lines: self.lines,
            comparators,
        }
    }

    /// Converts the network into a **standard** network of the same size
    /// using the classical transformation (Knuth, exercise 5.3.4-16):
    /// whenever a comparator routes its maximum upward, re-orient it and
    /// exchange its two lines in the remainder of the network.
    ///
    /// If the original network sorts every input, so does the standardised
    /// one.  (The converse does not hold in general: standardising can only
    /// help.)
    #[must_use]
    pub fn standardised(&self) -> Self {
        let mut map: Vec<usize> = (0..self.lines).collect();
        let mut out = Self::empty(self.lines);
        for c in &self.comparators {
            let a = map[c.min_line()];
            let b = map[c.max_line()];
            if a < b {
                out.push_pair(a, b);
            } else {
                out.push_pair(b, a);
                for v in &mut map {
                    if *v == a {
                        *v = b;
                    } else if *v == b {
                        *v = a;
                    }
                }
            }
        }
        out
    }

    /// Partitions the comparator sequence greedily into parallel layers
    /// (no two comparators in a layer share a line, order preserved) and
    /// returns the layers.
    #[must_use]
    pub fn layers(&self) -> Vec<Vec<Comparator>> {
        let mut layers: Vec<Vec<Comparator>> = Vec::new();
        // busy_until[line] = first layer index where the line is free.
        let mut busy_until = vec![0usize; self.lines];
        for c in &self.comparators {
            let layer = busy_until[c.top()].max(busy_until[c.bottom()]);
            if layer == layers.len() {
                layers.push(Vec::new());
            }
            layers[layer].push(*c);
            busy_until[c.top()] = layer + 1;
            busy_until[c.bottom()] = layer + 1;
        }
        layers
    }

    /// The network's *depth*: number of parallel layers under the greedy
    /// (as-soon-as-possible) schedule.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.layers().len()
    }

    /// Compact textual form in the paper's notation, e.g. `[1,3][2,4][1,2][3,4]`.
    #[must_use]
    pub fn to_compact_string(&self) -> String {
        self.comparators.iter().map(ToString::to_string).collect()
    }

    /// Parses the compact `[a,b][c,d]…` notation (1-based lines, standard
    /// comparators only).  Returns `None` on malformed input or out-of-range
    /// lines.
    #[must_use]
    pub fn parse_compact(n: usize, s: &str) -> Option<Self> {
        let mut net = Self::empty(n);
        let trimmed = s.trim();
        if trimmed.is_empty() {
            return Some(net);
        }
        for part in trimmed.split(']') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let body = part.strip_prefix('[')?;
            let (a, b) = body.split_once(',')?;
            let a: usize = a.trim().parse().ok()?;
            let b: usize = b.trim().parse().ok()?;
            if a == 0 || b == 0 || a > n || b > n || a == b {
                return None;
            }
            net.push_pair(a - 1, b - 1);
        }
        Some(net)
    }
}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Network(n={}, size={}, \"{}\")",
            self.lines,
            self.size(),
            self.to_compact_string()
        )
    }
}

impl fmt::Display for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_compact_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Fig. 1 network: `[1,3][2,4][1,2][3,4]`.
    fn fig1() -> Network {
        Network::from_pairs(4, &[(0, 2), (1, 3), (0, 1), (2, 3)])
    }

    #[test]
    fn fig1_processes_the_papers_example_input() {
        // The paper shows the network processing (4 1 3 2).
        let out = fig1().apply_vec(&[4, 1, 3, 2]);
        // [1,3]: (4,3) swap -> (3,1,4,2); [2,4]: (1,2) ok; [1,2]: (3,1) swap
        // -> (1,3,4,2); [3,4]: (4,2) swap -> (1,3,2,4).
        assert_eq!(out, vec![1, 3, 2, 4]);
    }

    #[test]
    fn fig1_compact_notation_matches_paper() {
        assert_eq!(fig1().to_compact_string(), "[1,3][2,4][1,2][3,4]");
    }

    #[test]
    fn parse_compact_roundtrip() {
        let net = fig1();
        let parsed = Network::parse_compact(4, &net.to_compact_string()).unwrap();
        assert_eq!(parsed, net);
        assert_eq!(Network::parse_compact(4, "").unwrap(), Network::empty(4));
        assert!(Network::parse_compact(4, "[0,2]").is_none());
        assert!(Network::parse_compact(4, "[1,5]").is_none());
        assert!(Network::parse_compact(4, "[1,1]").is_none());
        assert!(Network::parse_compact(4, "junk").is_none());
    }

    #[test]
    fn apply_bits_agrees_with_apply_slice_on_all_inputs() {
        let net = fig1();
        for s in BitString::all(4) {
            let bits_out = net.apply_bits(&s);
            let slice_out = net.apply_vec(&s.to_vec());
            assert_eq!(bits_out.to_vec(), slice_out, "input {s}");
        }
    }

    #[test]
    fn fig1_is_not_a_sorter_but_sorts_the_example_weights() {
        // (1100) is the classic failure of this half-cleaner-style network.
        let net = fig1();
        let failing: Vec<_> = BitString::all(4)
            .filter(|s| !net.apply_bits(s).is_sorted())
            .collect();
        assert!(!failing.is_empty());
    }

    #[test]
    fn standard_comparators_never_unsort_a_sorted_input() {
        let net = fig1();
        for s in BitString::all(4).filter(BitString::is_sorted) {
            assert!(net.apply_bits(&s).is_sorted());
        }
    }

    #[test]
    fn apply_permutation_preserves_multiset() {
        let net = fig1();
        for p in Permutation::all(4) {
            let out = net.apply_permutation(&p);
            let mut sorted_in = p.values().to_vec();
            let mut sorted_out = out.values().to_vec();
            sorted_in.sort_unstable();
            sorted_out.sort_unstable();
            assert_eq!(sorted_in, sorted_out);
        }
    }

    #[test]
    fn flip_symmetry_on_bitstrings() {
        // flip(H)(flip(σ)) == flip(H(σ)) for standard networks.
        let net = fig1();
        let flipped = net.flip();
        assert!(flipped.is_standard());
        for s in BitString::all(4) {
            assert_eq!(flipped.apply_bits(&s.flip()), net.apply_bits(&s).flip());
        }
    }

    #[test]
    fn layers_and_depth() {
        let net = fig1();
        let layers = net.layers();
        assert_eq!(layers.len(), 2);
        assert_eq!(layers[0].len(), 2);
        assert_eq!(layers[1].len(), 2);
        assert_eq!(net.depth(), 2);
        assert_eq!(Network::empty(5).depth(), 0);
    }

    #[test]
    fn layers_respect_conflicts_and_preserve_multiset() {
        let net = Network::from_pairs(5, &[(0, 1), (1, 2), (0, 4), (2, 3), (3, 4), (0, 1)]);
        let layers = net.layers();
        let total: usize = layers.iter().map(Vec::len).sum();
        assert_eq!(total, net.size());
        for layer in &layers {
            for (i, a) in layer.iter().enumerate() {
                for b in &layer[i + 1..] {
                    assert!(
                        !a.conflicts_with(b),
                        "{a} and {b} share a line in one layer"
                    );
                }
            }
        }
    }

    #[test]
    fn embed_relabels_lines() {
        // Embed a 2-line comparator onto lines (3, 1): min goes to line 3.
        let inner = Network::from_pairs(2, &[(0, 1)]);
        let mut outer = Network::empty(5);
        outer.embed(&inner, &[3, 1]);
        assert_eq!(outer.size(), 1);
        let out = outer.apply_vec(&[0, 9, 0, 2, 0]);
        // min(9,2)=2 to line 3, max=9 to line 1.
        assert_eq!(out, vec![0, 9, 0, 2, 0]);
        let out2 = outer.apply_vec(&[0, 1, 0, 2, 0]);
        assert_eq!(out2, vec![0, 2, 0, 1, 0]);
    }

    #[test]
    fn height_and_primitivity() {
        let brick = Network::from_pairs(4, &[(0, 1), (2, 3), (1, 2)]);
        assert_eq!(brick.height(), 1);
        assert!(brick.is_primitive());
        assert!(!fig1().is_primitive());
        assert_eq!(fig1().height(), 2);
    }

    #[test]
    fn without_comparator_removes_exactly_one() {
        let net = fig1();
        let smaller = net.without_comparator(2);
        assert_eq!(smaller.size(), 3);
        assert_eq!(smaller.to_compact_string(), "[1,3][2,4][3,4]");
    }

    #[test]
    fn then_concatenates() {
        let a = Network::from_pairs(3, &[(0, 1)]);
        let b = Network::from_pairs(3, &[(1, 2)]);
        let ab = a.then(&b);
        assert_eq!(ab.to_compact_string(), "[1,2][2,3]");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn push_rejects_out_of_range_comparator() {
        let mut net = Network::empty(3);
        net.push(Comparator::new(1, 3));
    }
}
