//! Multi-fault universes: streaming enumerations of the fault spaces the
//! engines sweep.
//!
//! §1 of Chung & Ravikumar motivates test-set bounds by VLSI testing, and
//! the paper's central claim — a minimal 0/1 test set detects every
//! *detectable* fault — is a statement about a *fault universe*: the set of
//! lesions a test sequence is graded against.  This module generalises the
//! workspace from the hardcoded single-comparator universe to a
//! [`FaultUniverse`] trait with three implementations, mapping onto the
//! classical stuck-at/bridging taxonomy the paper's VLSI discussion draws
//! from:
//!
//! * [`SingleComparator`] — the original model: one comparator misbehaves
//!   according to a [`FaultKind`] (stuck-pass, stuck-swap, inverted or
//!   misrouted).  This is the comparator-level translation of a *functional*
//!   gate fault;
//! * [`StuckLine`] — the classical **stuck-at-0/1** model applied to wire
//!   segments: every wire of the network is cut into segments by the
//!   comparators touching it, and each segment can be stuck at either
//!   constant.  This is the fault class the paper's "hardware failures"
//!   remark most directly names, and it is *not* the class the minimal test
//!   sets were constructed for — on a correct sorter, a stuck segment early
//!   enough in the network is re-sorted away and therefore undetectable by
//!   any output-order test (see [`StuckLine`] for the exact semantics);
//! * [`FaultPairs`] — the **multi-fault** extension: all 2-subsets of
//!   physically co-realisable lesions of a base universe, enumerated lazily
//!   because the pair space is quadratic in the base.
//!
//! # Lesions and fault timelines
//!
//! A fault of any universe is a [`MultiFault`]: one or two [`Lesion`]s
//! placed on the network's evaluation timeline.  Each lesion has a *cut
//! position* — the number of comparators applied before it acts — so a
//! faulty evaluation is: run comparators fault-free up to the first
//! lesion's cut, apply it, continue to the next lesion, apply it, and run
//! the remaining suffix.  The earliest cut is the fault's
//! [`fork site`](MultiFault::fork_site): everything before it is identical
//! to the fault-free network, which is exactly what the bit-parallel
//! engine's shared-prefix forking exploits (`crate::bitsim` forks the
//! fault-free prefix state at each fault's site instead of re-running it).
//!
//! # Fault masking: why pairs are not the union of their members
//!
//! Pair detection is **not** monotone in member detection.  Two lesions can
//! *mask* each other: on the 2-line network `[1,2][1,2][1,2]`, a stuck-swap
//! on the last comparator is detectable alone (it unsorts every mixed
//! input), and an inverted middle comparator is redundant alone (the last
//! comparator re-sorts its damage) — yet the *pair* is undetectable,
//! because the inverted comparator pre-inverts exactly the inputs the
//! stuck-swap then re-inverts.  Conversely, two individually redundant
//! lesions can form a detectable pair.  The differential suites pin both
//! phenomena; see `tests/proptest_universes.rs`.  This is why a
//! [`FaultUniverse`] is swept directly instead of being derived from
//! single-fault verdicts.
//!
//! # Detection convention
//!
//! As everywhere in this crate, a test input *detects* a fault when the
//! faulty network leaves it unsorted.  Note that stuck-at lesions do not
//! preserve the input's multiset of values (a forced line changes the 0/1
//! weight), so sortedness of the output really is the whole criterion — a
//! stuck-at fault whose output is always sorted is undetectable even
//! though the output may be the "wrong" sorted string.

use std::fmt;

use serde::{Deserialize, Serialize};

use sortnet_combinat::{channel_words, BitString, ChannelPack};
use sortnet_network::error::{self, EngineError};
use sortnet_network::Network;

use crate::model::{enumerate_faults, Fault, FaultKind};
use crate::simulate::{channel_bit, set_channel_bit, step_channels, step_channels_faulty};

/// A stuck-at-0/1 fault on one wire segment.
///
/// The wire on line `line` is cut into segments by the comparators that
/// touch the line; the segment starting at cut position `cut` (i.e. just
/// after comparator `cut − 1`, or the input segment when `cut == 0`) is
/// stuck at the constant `value`.  Operationally: evaluate comparators
/// `0..cut` fault-free, force line `line` to `value`, and continue —
/// downstream comparators read the forced constant but write their outputs
/// onto fresh (un-stuck) segments.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct StuckAt {
    /// The affected line (0-based).
    pub line: usize,
    /// Cut position: number of comparators applied before the forcing.
    pub cut: usize,
    /// The constant the segment is stuck at.
    pub value: bool,
}

/// One atomic lesion: the unit a [`MultiFault`] composes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Lesion {
    /// A misbehaving comparator (the [`FaultKind`] single-fault model).
    Comparator(Fault),
    /// A stuck-at-0/1 wire segment.
    Stuck(StuckAt),
}

impl Lesion {
    /// Cut position at which the lesion first diverges from the fault-free
    /// network: comparators `0..fork_site()` are unaffected by it.
    #[must_use]
    pub fn fork_site(&self) -> usize {
        match self {
            Self::Comparator(f) => f.comparator,
            Self::Stuck(s) => s.cut,
        }
    }

    /// Timeline ordering key: `(cut position, rank, …)` with stuck
    /// injections acting *before* the comparator at the same cut executes.
    /// The trailing components are a total tie-break over the lesion's
    /// content, so [`MultiFault::pair`] is canonical — `pair(a, b)` and
    /// `pair(b, a)` are structurally equal — even when two lesions share a
    /// timeline position (e.g. two stuck segments at the same cut).
    ///
    /// Crate-visible because the bit-parallel engine sorts its sweep plan
    /// by this key: ordering faults by the first lesion's key groups equal
    /// first lesions contiguously *and* keeps fork sites nondecreasing
    /// (the key's leading component is [`Lesion::fork_site`]), which is
    /// exactly what two-level prefix forking needs.
    pub(crate) fn order_key(&self) -> (usize, u8, usize, usize) {
        match self {
            Self::Stuck(s) => (s.cut, 0, s.line, usize::from(s.value)),
            Self::Comparator(f) => {
                let (kind, detail) = match f.kind {
                    FaultKind::StuckPass => (0, 0),
                    FaultKind::StuckSwap => (1, 0),
                    FaultKind::Inverted => (2, 0),
                    FaultKind::Misrouted { new_bottom } => (3, new_bottom),
                };
                (f.comparator, 1, kind, detail)
            }
        }
    }

    /// `true` when the two lesions cannot coexist in one physical network:
    /// two (distinct or identical) faults of the same comparator, or
    /// contradictory stuck values on the same segment.
    #[must_use]
    pub fn conflicts_with(&self, other: &Lesion) -> bool {
        match (self, other) {
            (Self::Comparator(a), Self::Comparator(b)) => a.comparator == b.comparator,
            (Self::Stuck(a), Self::Stuck(b)) => a.line == b.line && a.cut == b.cut,
            _ => false,
        }
    }

    /// Panics unless the lesion fits `network`.
    fn assert_in_range(&self, network: &Network) {
        if let Err(e) = self.check_in_range(network) {
            panic!("{e}");
        }
    }

    /// The typed form of the range guard: a lesion fits `network` when
    /// its comparator index / cut position / line index do.
    fn check_in_range(&self, network: &Network) -> Result<(), EngineError> {
        match self {
            Self::Comparator(f) => {
                if f.comparator >= network.size() {
                    return Err(EngineError::IndexOutOfRange {
                        what: "fault",
                        index: f.comparator,
                        limit: network.size(),
                    });
                }
            }
            Self::Stuck(s) => {
                if s.cut > network.size() {
                    return Err(EngineError::IndexOutOfRange {
                        what: "stuck-at cut",
                        index: s.cut,
                        limit: network.size() + 1,
                    });
                }
                if s.line >= network.lines() {
                    return Err(EngineError::IndexOutOfRange {
                        what: "stuck-at line",
                        index: s.line,
                        limit: network.lines(),
                    });
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for Lesion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Comparator(fault) => match fault.kind {
                FaultKind::StuckPass => write!(f, "pass@c{}", fault.comparator),
                FaultKind::StuckSwap => write!(f, "swap@c{}", fault.comparator),
                FaultKind::Inverted => write!(f, "inv@c{}", fault.comparator),
                FaultKind::Misrouted { new_bottom } => {
                    write!(f, "misroute@c{}->l{}", fault.comparator, new_bottom + 1)
                }
            },
            Self::Stuck(s) => write!(
                f,
                "stuck-{}@l{}.cut{}",
                u8::from(s.value),
                s.line + 1,
                s.cut
            ),
        }
    }
}

/// A fault drawn from some [`FaultUniverse`]: one or two [`Lesion`]s in
/// timeline order.
///
/// The representation is canonical (a single lesion occupies both slots,
/// pairs are sorted into timeline position), so the derived equality and
/// hashing are structural.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MultiFault {
    lesions: [Lesion; 2],
    len: u8,
}

impl MultiFault {
    /// A single-lesion fault.
    #[must_use]
    pub fn single(lesion: Lesion) -> Self {
        Self {
            lesions: [lesion, lesion],
            len: 1,
        }
    }

    /// A pair of co-realisable lesions, normalised into timeline order.
    ///
    /// # Panics
    /// Panics if the lesions conflict ([`Lesion::conflicts_with`]); a pair
    /// of contradictory lesions has no well-defined faulty network.
    #[must_use]
    pub fn pair(a: Lesion, b: Lesion) -> Self {
        assert!(
            !a.conflicts_with(&b),
            "conflicting lesions cannot form a fault pair: {a} vs {b}"
        );
        let (first, second) = if b.order_key() < a.order_key() {
            (b, a)
        } else {
            (a, b)
        };
        Self {
            lesions: [first, second],
            len: 2,
        }
    }

    /// Pair constructor for callers that have already normalised the two
    /// lesions into timeline order and checked them for conflicts — the
    /// lazy pair enumerator, which compares *cached* order keys instead of
    /// re-deriving them per pair (the derivation showed up in quadratic
    /// universe enumerations).
    pub(crate) fn pair_in_order(first: Lesion, second: Lesion) -> Self {
        debug_assert!(!first.conflicts_with(&second), "conflicting lesions");
        debug_assert!(
            first.order_key() <= second.order_key(),
            "pair lesions must arrive in timeline order"
        );
        Self {
            lesions: [first, second],
            len: 2,
        }
    }

    /// The lesions in timeline order (length 1 or 2).
    #[must_use]
    pub fn lesions(&self) -> &[Lesion] {
        &self.lesions[..usize::from(self.len)]
    }

    /// `true` when the fault is a 2-subset (a [`FaultPairs`] member).
    #[must_use]
    pub fn is_pair(&self) -> bool {
        self.len == 2
    }

    /// Cut position where the fault first diverges from the fault-free
    /// network — the point the bit-parallel engine forks the shared prefix.
    #[must_use]
    pub fn fork_site(&self) -> usize {
        self.lesions[0].fork_site()
    }

    /// Panics unless every lesion fits `network`.
    pub(crate) fn assert_in_range(&self, network: &Network) {
        for lesion in self.lesions() {
            lesion.assert_in_range(network);
        }
    }

    /// The typed form of the range guard.
    pub(crate) fn check_in_range(&self, network: &Network) -> Result<(), EngineError> {
        for lesion in self.lesions() {
            lesion.check_in_range(network)?;
        }
        Ok(())
    }
}

impl From<Fault> for MultiFault {
    fn from(fault: Fault) -> Self {
        Self::single(Lesion::Comparator(fault))
    }
}

impl fmt::Display for MultiFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.lesions() {
            [one] => write!(f, "{one}"),
            [a, b] => write!(f, "{{{a}, {b}}}"),
            _ => unreachable!("a MultiFault holds 1 or 2 lesions"),
        }
    }
}

/// Runs the lesion timeline on a channel-word state in place: fault-free
/// ranges between lesion cut positions, each lesion applied in timeline
/// order.
fn run_lesion_timeline(network: &Network, lesions: &[Lesion], w: &mut [u64]) {
    let comparators = network.comparators();
    let mut pos = 0usize;
    for lesion in lesions {
        match lesion {
            Lesion::Comparator(fault) => {
                for c in &comparators[pos..fault.comparator] {
                    step_channels(c, w);
                }
                step_channels_faulty(&comparators[fault.comparator], fault.kind, w);
                pos = fault.comparator + 1;
            }
            Lesion::Stuck(s) => {
                for c in &comparators[pos..s.cut] {
                    step_channels(c, w);
                }
                set_channel_bit(w, s.line, u64::from(s.value));
                pos = s.cut;
            }
        }
    }
    for c in &comparators[pos..] {
        step_channels(c, w);
    }
}

/// Scalar faulty evaluation of a fault of any universe on one test
/// vector: the reference every bit-parallel engine is checked against.
/// A single-comparator [`Fault`] is evaluated as `MultiFault::from(fault)`.
///
/// # Panics
/// Panics, in this order, if a lesion does not fit the network
/// ([`EngineError::IndexOutOfRange`]), the network is past the packing's
/// cap ([`error::ensure_packable`]: `n <= 64` for `BitString`, checked
/// before the length so an oversized network is refused for what it is),
/// or the input length differs from the network's.
#[must_use]
pub fn multi_faulty_apply<P: ChannelPack>(network: &Network, fault: &MultiFault, input: &P) -> P {
    fault.assert_in_range(network);
    let n = network.lines();
    if let Err(e) = error::ensure_packable::<P>(n) {
        panic!("{e}");
    }
    if input.len() != n {
        let e = EngineError::InputLengthMismatch {
            expected: n,
            actual: input.len(),
        };
        panic!("{e}");
    }
    let mut w: Vec<u64> = (0..channel_words(n)).map(|k| input.word(k)).collect();
    run_lesion_timeline(network, fault.lesions(), &mut w);
    P::assemble(n, |line| channel_bit(&w, line) == 1)
}

/// `true` iff `input` detects the fault: the faulty network fails to sort
/// it.
///
/// # Panics
/// As [`multi_faulty_apply`].
#[must_use]
pub fn multi_detects<P: ChannelPack>(network: &Network, fault: &MultiFault, input: &P) -> bool {
    !multi_faulty_apply(network, fault, input).is_sorted()
}

/// Index (0-based) of the first test in `tests` detecting the fault, or
/// `None`: the scalar reference for the bit-parallel early-exit sweep.
///
/// # Panics
/// As [`multi_faulty_apply`], for any test scanned.
#[must_use]
pub fn multi_first_detection_index<P: ChannelPack>(
    network: &Network,
    fault: &MultiFault,
    tests: &[P],
) -> Option<usize> {
    tests.iter().position(|t| multi_detects(network, fault, t))
}

/// `true` iff the fault is *redundant* (undetectable): the faulty network
/// still sorts all `2^n` binary inputs.  Scalar reference sweep; the
/// bit-parallel engine's shared-prefix batch sweep
/// ([`crate::bitsim::redundant_faults_multi_on`]) must agree.
///
/// # Panics
/// Panics when the exhaustive `2^n` sweep is inadmissible (`n ≥ 32` —
/// the canonical [`error::ensure_sweepable`] bound, shared with the
/// bit-parallel engine so the two agree on which inputs are sweepable),
/// or as [`multi_faulty_apply`].
#[must_use]
pub fn is_multi_fault_redundant(network: &Network, fault: &MultiFault) -> bool {
    let n = network.lines();
    if let Err(e) = error::ensure_sweepable(n) {
        panic!("{e}");
    }
    BitString::all(n).all(|s| !multi_detects(network, fault, &s))
}

/// `true` iff the fault is redundant *relative to* the given vector
/// family: no family member detects it.  The non-exhaustive counterpart
/// to [`is_multi_fault_redundant`] for networks past the sweepable
/// bound — sound (an exhaustively redundant fault is relatively
/// redundant against any family) but not complete (a fault the family
/// misses may still be detectable by vectors outside it).  The scalar
/// engine's [`RedundancyMode::RelativeTo`](crate::coverage::RedundancyMode)
/// verdict, which the bit-parallel engines' redundancy pass must
/// reproduce.
///
/// # Panics
/// As [`multi_faulty_apply`], for any family member scanned.
#[must_use]
pub fn is_multi_fault_redundant_relative<P: ChannelPack>(
    network: &Network,
    fault: &MultiFault,
    family: &[P],
) -> bool {
    multi_first_detection_index(network, fault, family).is_none()
}

/// A streaming enumeration of a fault space.
///
/// Implementations yield their faults lazily — [`FaultPairs`] in particular
/// never materialises its quadratic pair space — and deterministically (two
/// enumerations over the same network produce the same sequence, which is
/// what lets the engines index per-fault state by enumeration position).
pub trait FaultUniverse {
    /// Human-readable universe name for reports and tables.
    fn name(&self) -> String;

    /// Streams the universe's faults for `network`.
    fn iter<'a>(&'a self, network: &'a Network) -> Box<dyn Iterator<Item = MultiFault> + 'a>;

    /// Number of faults in the universe for `network`.
    #[must_use]
    fn len(&self, network: &Network) -> usize {
        self.iter(network).count()
    }

    /// [`len`](FaultUniverse::len) with overflow-checked arithmetic:
    /// implementations whose closed-form size computation can overflow
    /// on degenerate huge networks (quadratic pair spaces, `2·(n + 2m)`
    /// segment counts) return [`EngineError::TooLarge`] instead of a
    /// debug-only integer overflow.
    ///
    /// # Errors
    /// [`EngineError::TooLarge`] when the size exceeds `usize`.
    fn try_len(&self, network: &Network) -> Result<usize, EngineError> {
        Ok(self.len(network))
    }

    /// `true` when the universe is empty for `network`.
    #[must_use]
    fn is_empty(&self, network: &Network) -> bool {
        self.iter(network).next().is_none()
    }
}

/// The original single-fault model: every comparator × every applicable
/// [`FaultKind`], in the exact order of [`enumerate_faults`] — engines driven
/// through this universe are bit-identical to the pre-universe API.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SingleComparator;

impl FaultUniverse for SingleComparator {
    fn name(&self) -> String {
        "single-comparator".into()
    }

    fn iter<'a>(&'a self, network: &'a Network) -> Box<dyn Iterator<Item = MultiFault> + 'a> {
        Box::new(enumerate_faults(network).into_iter().map(MultiFault::from))
    }
}

/// Stuck-at-0/1 faults on every wire segment.
///
/// Line `l` is cut into segments by the comparators touching it: one input
/// segment (cut 0) plus one segment starting after each comparator that
/// writes the line.  Forcing anywhere inside a segment is behaviourally
/// identical (no comparator reads the line in between), so the universe
/// enumerates exactly one fault per segment per stuck value:
/// `2·(n + 2m)` faults for `n` lines and `m` comparators.
///
/// Enumeration order is by cut position (input segments first, then the
/// two output segments of each comparator in sequence order), each segment
/// contributing stuck-at-0 before stuck-at-1.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StuckLine;

impl FaultUniverse for StuckLine {
    fn name(&self) -> String {
        "stuck-line".into()
    }

    fn iter<'a>(&'a self, network: &'a Network) -> Box<dyn Iterator<Item = MultiFault> + 'a> {
        let inputs = (0..network.lines()).map(|line| (line, 0usize));
        let after = network
            .comparators()
            .iter()
            .enumerate()
            .flat_map(|(k, c)| [(c.top(), k + 1), (c.bottom(), k + 1)]);
        Box::new(inputs.chain(after).flat_map(|(line, cut)| {
            [false, true]
                .map(|value| MultiFault::single(Lesion::Stuck(StuckAt { line, cut, value })))
        }))
    }

    fn len(&self, network: &Network) -> usize {
        self.try_len(network).unwrap_or_else(|e| panic!("{e}"))
    }

    fn try_len(&self, network: &Network) -> Result<usize, EngineError> {
        // 2·(n + 2m) segments, checked so a degenerate huge network is a
        // typed refusal rather than a debug-only overflow.
        network
            .size()
            .checked_mul(2)
            .and_then(|m2| network.lines().checked_add(m2))
            .and_then(|segments| segments.checked_mul(2))
            .ok_or(EngineError::TooLarge {
                what: "stuck-line universe",
            })
    }
}

/// All 2-subsets of co-realisable lesions of a base universe, enumerated
/// lazily (the pair space is quadratic in the base, so it is never
/// materialised by the universe itself).
///
/// Pairs whose members [conflict](Lesion::conflicts_with) — two faults of
/// the same comparator, or contradictory stuck values on one segment — are
/// skipped: they have no well-defined faulty network.  The base universe
/// must consist of single-lesion faults.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultPairs<U>(pub U);

impl<U: FaultUniverse> FaultUniverse for FaultPairs<U> {
    fn name(&self) -> String {
        format!("pairs({})", self.0.name())
    }

    fn len(&self, network: &Network) -> usize {
        self.try_len(network).unwrap_or_else(|e| panic!("{e}"))
    }

    fn try_len(&self, network: &Network) -> Result<usize, EngineError> {
        // Counted without materialising the quadratic pair space: lesions
        // conflict exactly within their *conflict class* (all faults of one
        // comparator; the two stuck values of one segment), so the skipped
        // pairs are Σ C(class size, 2) over classes.  All arithmetic is
        // overflow-checked — the pair count is quadratic in the base, so a
        // huge (but enumerable) base universe can overflow `usize` here.
        #[derive(PartialEq, Eq, Hash)]
        enum ConflictClass {
            Comparator(usize),
            Segment(usize, usize),
        }
        let too_large = EngineError::TooLarge {
            what: "fault-pair universe",
        };
        let mut class_sizes: std::collections::HashMap<ConflictClass, usize> =
            std::collections::HashMap::new();
        let mut base = 0usize;
        for fault in self.0.iter(network) {
            let [lesion] = fault.lesions() else {
                panic!("FaultPairs requires a single-lesion base universe")
            };
            base += 1;
            let class = match lesion {
                Lesion::Comparator(f) => ConflictClass::Comparator(f.comparator),
                Lesion::Stuck(s) => ConflictClass::Segment(s.line, s.cut),
            };
            *class_sizes.entry(class).or_insert(0) += 1;
        }
        let choose2 =
            |s: usize| -> Option<usize> { s.checked_mul(s.saturating_sub(1)).map(|p| p / 2) };
        let mut conflicting = 0usize;
        for &s in class_sizes.values() {
            conflicting = conflicting
                .checked_add(choose2(s).ok_or(too_large.clone())?)
                .ok_or(too_large.clone())?;
        }
        choose2(base)
            .and_then(|pairs| pairs.checked_sub(conflicting))
            .ok_or(too_large)
    }

    fn iter<'a>(&'a self, network: &'a Network) -> Box<dyn Iterator<Item = MultiFault> + 'a> {
        // One base enumeration (linear), then the quadratic pair space is
        // streamed lazily from the collected lesions.
        let base: Vec<Lesion> = self
            .0
            .iter(network)
            .map(|fault| {
                let [lesion] = fault.lesions() else {
                    panic!("FaultPairs requires a single-lesion base universe")
                };
                *lesion
            })
            .collect();
        let keys = base.iter().map(Lesion::order_key).collect();
        Box::new(PairIter {
            base,
            keys,
            i: 0,
            j: 1,
        })
    }
}

/// Lazy 2-subset iterator over an owned lesion list, in `(i, j)` index
/// order with `i < j`, skipping conflicting members.  Timeline keys are
/// computed once per base lesion, so normalising each of the `O(|base|²)`
/// pairs into timeline order is a cached-key comparison.
struct PairIter {
    base: Vec<Lesion>,
    keys: Vec<(usize, u8, usize, usize)>,
    i: usize,
    j: usize,
}

impl Iterator for PairIter {
    type Item = MultiFault;

    fn next(&mut self) -> Option<MultiFault> {
        while self.i + 1 < self.base.len() {
            if self.j < self.base.len() {
                let a = self.base[self.i];
                let b = self.base[self.j];
                let ordered = if self.keys[self.j] < self.keys[self.i] {
                    (b, a)
                } else {
                    (a, b)
                };
                self.j += 1;
                if !a.conflicts_with(&b) {
                    return Some(MultiFault::pair_in_order(ordered.0, ordered.1));
                }
            } else {
                self.i += 1;
                self.j = self.i + 1;
            }
        }
        None
    }
}

/// The runtime-selectable universes the CLI, experiment E10 and the
/// benches expose, dispatching to the concrete implementations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StandardUniverse {
    /// [`SingleComparator`].
    SingleComparator,
    /// [`StuckLine`].
    StuckLine,
    /// [`FaultPairs`] over [`SingleComparator`].
    SingleComparatorPairs,
    /// [`FaultPairs`] over [`StuckLine`].
    StuckLinePairs,
}

impl StandardUniverse {
    /// Every standard universe, in presentation order.
    pub const ALL: [Self; 4] = [
        Self::SingleComparator,
        Self::StuckLine,
        Self::SingleComparatorPairs,
        Self::StuckLinePairs,
    ];

    /// Parses a CLI spelling (`single`, `stuck-line`, `pairs`,
    /// `stuck-pairs`).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "single" | "single-comparator" => Some(Self::SingleComparator),
            "stuck" | "stuck-line" => Some(Self::StuckLine),
            "pairs" | "single-pairs" => Some(Self::SingleComparatorPairs),
            "stuck-pairs" | "stuck-line-pairs" => Some(Self::StuckLinePairs),
            _ => None,
        }
    }
}

impl StandardUniverse {
    /// The concrete universe this variant dispatches to.
    fn as_universe(self) -> &'static dyn FaultUniverse {
        static SINGLE: SingleComparator = SingleComparator;
        static STUCK: StuckLine = StuckLine;
        static SINGLE_PAIRS: FaultPairs<SingleComparator> = FaultPairs(SingleComparator);
        static STUCK_PAIRS: FaultPairs<StuckLine> = FaultPairs(StuckLine);
        match self {
            Self::SingleComparator => &SINGLE,
            Self::StuckLine => &STUCK,
            Self::SingleComparatorPairs => &SINGLE_PAIRS,
            Self::StuckLinePairs => &STUCK_PAIRS,
        }
    }
}

impl FaultUniverse for StandardUniverse {
    fn name(&self) -> String {
        self.as_universe().name()
    }

    fn iter<'a>(&'a self, network: &'a Network) -> Box<dyn Iterator<Item = MultiFault> + 'a> {
        self.as_universe().iter(network)
    }

    fn len(&self, network: &Network) -> usize {
        self.as_universe().len(network)
    }

    fn try_len(&self, network: &Network) -> Result<usize, EngineError> {
        self.as_universe().try_len(network)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate::apply_fault;
    use sortnet_network::builders::batcher::odd_even_merge_sort;

    #[test]
    fn single_comparator_universe_mirrors_enumerate_faults() {
        let net = odd_even_merge_sort(6);
        let legacy = enumerate_faults(&net);
        let universe: Vec<MultiFault> = SingleComparator.iter(&net).collect();
        assert_eq!(universe.len(), SingleComparator.len(&net));
        assert_eq!(universe.len(), legacy.len());
        for (mf, fault) in universe.iter().zip(&legacy) {
            assert_eq!(mf.lesions(), &[Lesion::Comparator(*fault)]);
            assert_eq!(*mf, MultiFault::from(*fault));
            let materialised = apply_fault(&net, fault);
            for input in BitString::all(6).take(16) {
                let out = multi_faulty_apply(&net, mf, &input);
                assert_eq!(out, reference_multi_apply(&net, mf, &input), "{mf} {input}");
                if let Some(faulty_net) = &materialised {
                    assert_eq!(out, faulty_net.apply_bits(&input), "{mf} {input}");
                }
            }
        }
    }

    #[test]
    fn stuck_line_universe_has_one_fault_per_segment_per_value() {
        let net = odd_even_merge_sort(6);
        let universe: Vec<MultiFault> = StuckLine.iter(&net).collect();
        assert_eq!(universe.len(), 2 * (6 + 2 * net.size()));
        assert_eq!(universe.len(), StuckLine.len(&net));
        // Segments are distinct and every cut is a genuine segment start.
        let mut seen = std::collections::HashSet::new();
        for mf in &universe {
            let [Lesion::Stuck(s)] = mf.lesions() else {
                panic!("stuck-line universe must yield single stuck lesions")
            };
            assert!(seen.insert((s.line, s.cut, s.value)), "duplicate {mf}");
            if s.cut > 0 {
                assert!(net.comparators()[s.cut - 1].touches(s.line));
            }
        }
    }

    #[test]
    fn stuck_output_segment_forces_the_output_line() {
        let net = odd_even_merge_sort(4);
        let m = net.size();
        let fault = MultiFault::single(Lesion::Stuck(StuckAt {
            line: 0,
            cut: m,
            value: true,
        }));
        for input in BitString::all(4) {
            let out = multi_faulty_apply(&net, &fault, &input);
            assert!(out.get(0), "input {input}");
        }
        // Detected by any input whose sorted form has ≥ 2 zeros.
        assert!(multi_detects(
            &net,
            &fault,
            &BitString::from_word(0b0100, 4)
        ));
    }

    #[test]
    fn stuck_input_segments_on_a_sorter_are_redundant() {
        // Forcing an *input* line of a correct sorter still yields a sorted
        // output — the whole early-segment class is undetectable by
        // output-order testing.
        let net = odd_even_merge_sort(5);
        for line in 0..5 {
            for value in [false, true] {
                let fault = MultiFault::single(Lesion::Stuck(StuckAt {
                    line,
                    cut: 0,
                    value,
                }));
                assert!(is_multi_fault_redundant(&net, &fault), "line {line}");
            }
        }
    }

    /// Shift-free reference for the lesion timeline over a `Vec<u8>` state
    /// (the same event-scan idea as the proptest oracle, kept local so the
    /// boundary tests need no dev-dependency).
    fn reference_multi_apply(
        network: &Network,
        fault: &MultiFault,
        input: &BitString,
    ) -> BitString {
        let mut v: Vec<u8> = input.to_vec();
        let lesions = fault.lesions();
        for cut in 0..=network.size() {
            for lesion in lesions {
                if let Lesion::Stuck(s) = lesion {
                    if s.cut == cut {
                        v[s.line] = u8::from(s.value);
                    }
                }
            }
            if cut == network.size() {
                break;
            }
            let c = network.comparators()[cut];
            let comparator_fault = lesions.iter().find_map(|l| match l {
                Lesion::Comparator(f) if f.comparator == cut => Some(f.kind),
                _ => None,
            });
            let (i, j) = (c.min_line(), c.max_line());
            let (bi, bj) = (v[i], v[j]);
            match comparator_fault {
                None => {
                    v[i] = bi.min(bj);
                    v[j] = bi.max(bj);
                }
                Some(FaultKind::StuckPass) => {}
                Some(FaultKind::StuckSwap) => {
                    v[i] = bj;
                    v[j] = bi;
                }
                Some(FaultKind::Inverted) => {
                    v[i] = bi.max(bj);
                    v[j] = bi.min(bj);
                }
                Some(FaultKind::Misrouted { new_bottom }) => {
                    let t = c.top();
                    if new_bottom != t {
                        let (bt, bb) = (v[t], v[new_bottom]);
                        v[t] = bt.min(bb);
                        v[new_bottom] = bt.max(bb);
                    }
                }
            }
        }
        BitString::from_bits(&v.iter().map(|&b| b == 1).collect::<Vec<bool>>())
    }

    #[test]
    fn stuck_and_pair_faults_at_the_word_boundary_are_exact() {
        // n ∈ {63, 64}: the stuck-at injection is `1u64 << line` with the
        // top lines at bits 62/63 — the word-boundary class this audit
        // covers.  Every stuck-line fault and a top-line pair must match
        // the shift-free reference.
        for n in [63usize, 64] {
            let net = Network::from_pairs(n, &[(0, n - 1), (n - 2, n - 1)]);
            let inputs: Vec<BitString> = [
                0u64,
                u64::MAX,
                1u64 << (n - 1),
                u64::MAX ^ (1u64 << (n - 1)),
                0xAAAA_AAAA_AAAA_AAAA,
            ]
            .into_iter()
            .map(|w| BitString::from_word(w, n))
            .collect();
            for mf in StuckLine.iter(&net) {
                for input in &inputs {
                    assert_eq!(
                        multi_faulty_apply(&net, &mf, input),
                        reference_multi_apply(&net, &mf, input),
                        "n={n} fault {mf} input {input}"
                    );
                }
            }
            // A pair with both lesions on the top line: stuck-1 at the
            // input, stuck-swap on the comparator reading it.
            let pair = MultiFault::pair(
                Lesion::Stuck(StuckAt {
                    line: n - 1,
                    cut: 0,
                    value: true,
                }),
                Lesion::Comparator(Fault {
                    comparator: 1,
                    kind: FaultKind::StuckSwap,
                }),
            );
            for input in &inputs {
                assert_eq!(
                    multi_faulty_apply(&net, &pair, input),
                    reference_multi_apply(&net, &pair, input),
                    "n={n} input {input}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "n <= 64")]
    fn oversized_networks_are_rejected_before_any_shift() {
        let net = Network::from_pairs(65, &[(0, 64)]);
        let fault = MultiFault::single(Lesion::Stuck(StuckAt {
            line: 64,
            cut: 0,
            value: true,
        }));
        let _ = multi_faulty_apply(&net, &fault, &BitString::zeros(64));
    }

    #[test]
    fn pairs_enumerate_all_nonconflicting_2_subsets_lazily() {
        let net = odd_even_merge_sort(4);
        let base: Vec<MultiFault> = SingleComparator.iter(&net).collect();
        let pairs: Vec<MultiFault> = FaultPairs(SingleComparator).iter(&net).collect();
        let mut expected = 0usize;
        for i in 0..base.len() {
            for j in i + 1..base.len() {
                if !base[i].lesions()[0].conflicts_with(&base[j].lesions()[0]) {
                    expected += 1;
                }
            }
        }
        assert_eq!(pairs.len(), expected);
        assert_eq!(pairs.len(), FaultPairs(SingleComparator).len(&net));
        for p in &pairs {
            assert!(p.is_pair());
            let [a, b] = p.lesions() else { unreachable!() };
            assert!(a.order_key() <= b.order_key(), "{p} out of timeline order");
            assert!(!a.conflicts_with(b));
        }
        // The runtime dispatcher streams the identical sequence.
        let dispatched: Vec<MultiFault> =
            StandardUniverse::SingleComparatorPairs.iter(&net).collect();
        assert_eq!(dispatched, pairs);
    }

    #[test]
    fn conflicting_lesions_are_rejected_and_skipped() {
        let a = Lesion::Stuck(StuckAt {
            line: 1,
            cut: 2,
            value: false,
        });
        let b = Lesion::Stuck(StuckAt {
            line: 1,
            cut: 2,
            value: true,
        });
        assert!(a.conflicts_with(&b));
        let c = Lesion::Comparator(Fault {
            comparator: 0,
            kind: FaultKind::StuckPass,
        });
        let d = Lesion::Comparator(Fault {
            comparator: 0,
            kind: FaultKind::Inverted,
        });
        assert!(c.conflicts_with(&d));
        assert!(!a.conflicts_with(&c));
    }

    #[test]
    #[should_panic(expected = "conflicting lesions")]
    fn conflicting_pair_construction_panics() {
        let a = Lesion::Stuck(StuckAt {
            line: 1,
            cut: 2,
            value: false,
        });
        let b = Lesion::Stuck(StuckAt {
            line: 1,
            cut: 2,
            value: true,
        });
        let _ = MultiFault::pair(a, b);
    }

    #[test]
    fn pair_timeline_applies_both_lesions() {
        // Stuck the input of line 0 at 1 and stuck-pass the first
        // comparator of a 2-line sorter: the forced 1 reaches the output
        // unexchanged.
        let net = Network::from_pairs(2, &[(0, 1)]);
        let pair = MultiFault::pair(
            Lesion::Stuck(StuckAt {
                line: 0,
                cut: 0,
                value: true,
            }),
            Lesion::Comparator(Fault {
                comparator: 0,
                kind: FaultKind::StuckPass,
            }),
        );
        let out = multi_faulty_apply(&net, &pair, &BitString::from_word(0b00, 2));
        assert_eq!(out, BitString::from_word(0b01, 2));
        assert!(multi_detects(&net, &pair, &BitString::from_word(0b00, 2)));
    }

    #[test]
    fn pair_construction_is_canonical_in_either_argument_order() {
        // Equal timeline positions must still canonicalise: two stuck
        // segments at the same cut, and a comparator fault tied with a
        // stuck injection, compare equal (and hash equal) however the pair
        // was built.
        let a = Lesion::Stuck(StuckAt {
            line: 0,
            cut: 2,
            value: true,
        });
        let b = Lesion::Stuck(StuckAt {
            line: 3,
            cut: 2,
            value: false,
        });
        assert_eq!(MultiFault::pair(a, b), MultiFault::pair(b, a));
        let c = Lesion::Comparator(Fault {
            comparator: 2,
            kind: FaultKind::Inverted,
        });
        assert_eq!(MultiFault::pair(a, c), MultiFault::pair(c, a));
        let mut set = std::collections::HashSet::new();
        set.insert(MultiFault::pair(a, b));
        assert!(set.contains(&MultiFault::pair(b, a)));
    }

    #[test]
    fn display_names_are_compact_and_distinct() {
        let s = MultiFault::single(Lesion::Stuck(StuckAt {
            line: 2,
            cut: 5,
            value: true,
        }));
        assert_eq!(s.to_string(), "stuck-1@l3.cut5");
        let c = MultiFault::single(Lesion::Comparator(Fault {
            comparator: 3,
            kind: FaultKind::Inverted,
        }));
        assert_eq!(c.to_string(), "inv@c3");
        let p = MultiFault::pair(
            Lesion::Comparator(Fault {
                comparator: 3,
                kind: FaultKind::Inverted,
            }),
            Lesion::Stuck(StuckAt {
                line: 0,
                cut: 1,
                value: false,
            }),
        );
        assert_eq!(p.to_string(), "{stuck-0@l1.cut1, inv@c3}");
    }

    #[test]
    fn universe_names_and_parsing_round_trip() {
        for u in StandardUniverse::ALL {
            let spelled = match u {
                StandardUniverse::SingleComparator => "single",
                StandardUniverse::StuckLine => "stuck-line",
                StandardUniverse::SingleComparatorPairs => "pairs",
                StandardUniverse::StuckLinePairs => "stuck-pairs",
            };
            assert_eq!(StandardUniverse::parse(spelled), Some(u));
        }
        assert_eq!(StandardUniverse::parse("bogus"), None);
        assert_eq!(
            FaultPairs(StuckLine).name(),
            StandardUniverse::StuckLinePairs.name()
        );
    }
}
