//! The typed error taxonomy for every engine entry point.
//!
//! Historically the engines guarded their preconditions with `assert!`,
//! which turns a hostile input — a 65-line network handed to the
//! word-packed simulator, a 40-line network handed to an exhaustive
//! sweep — into a process abort.  The service and search directions on
//! the roadmap (millions of submitted networks, long prune-heavy
//! searches) need the opposite: a typed, recoverable verdict.
//!
//! # The taxonomy
//!
//! [`EngineError`] enumerates every way an engine call can be refused
//! *before any work is done*:
//!
//! * [`OversizedNetwork`](EngineError::OversizedNetwork) — the network
//!   exceeds a hard representation limit of the chosen engine (`n <= 64`
//!   for anything word-packed, `n < 24` for scalar exhaustive redundancy);
//! * [`SweepTooLarge`](EngineError::SweepTooLarge) — an exhaustive
//!   `2^n` enumeration was requested for an `n` where it can never
//!   finish (`n >= 32`);
//! * [`ChannelMismatch`](EngineError::ChannelMismatch) — two networks
//!   or a network and a block source disagree on the line count;
//! * [`InputLengthMismatch`](EngineError::InputLengthMismatch) — a test
//!   vector's length disagrees with the network's line count;
//! * [`IndexOutOfRange`](EngineError::IndexOutOfRange) — a fault,
//!   comparator or test index beyond its collection;
//! * [`EmptyUniverse`](EngineError::EmptyUniverse) — a coverage grade
//!   was requested against a universe with no faults;
//! * [`TooLarge`](EngineError::TooLarge) — a universe size computation
//!   overflowed `usize` (degenerate huge inputs), or a test-set family
//!   is past the line count its generator enumerates;
//! * [`InfeasibleCover`](EngineError::InfeasibleCover) — a test-set
//!   augmentation has no solution in the candidate pool;
//! * [`OddMerger`](EngineError::OddMerger) — a merger verify on an odd
//!   line count, which has no two equal sorted halves.
//!
//! # Relation to the panicking API
//!
//! Every legacy entry point keeps its signature and now panics with the
//! [`Display`](std::fmt::Display) text of the corresponding
//! `EngineError` — the messages are pinned (they keep the historical
//! `"n <= 64"` / `"exhaustive 2^{n} sweep refused"` substrings), so
//! existing `should_panic` expectations and log scrapes keep working.
//! New code should prefer the `try_*` variants; the panicking wrappers
//! are retained indefinitely for tests and one-shot tools but are the
//! deprecation path — see `docs/ERRORS.md`.

use std::fmt;

/// A typed refusal from an engine entry point.
///
/// Returned by every `try_*` variant in `sortnet-network`,
/// `sortnet-faults` and `sortnet-testsets`; the panicking wrappers
/// panic with this error's [`fmt::Display`] text.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum EngineError {
    /// The network has more lines than the engine's representation
    /// admits (`max` is the engine's inclusive limit).
    OversizedNetwork {
        /// Line count of the offending network.
        lines: usize,
        /// Inclusive maximum the engine supports.
        max: usize,
    },
    /// An exhaustive `2^n` enumeration was requested for an `n` at
    /// which it is refused (`n >= 32`).
    SweepTooLarge {
        /// Line count of the offending network.
        lines: usize,
    },
    /// Two parties to an operation disagree on the line count.
    ChannelMismatch {
        /// The line count the callee was built for.
        expected: usize,
        /// The line count the caller supplied.
        actual: usize,
    },
    /// A test vector's length disagrees with the network's line count.
    InputLengthMismatch {
        /// The network's line count.
        expected: usize,
        /// The vector's length.
        actual: usize,
    },
    /// A fault / comparator / test index beyond its collection.
    IndexOutOfRange {
        /// What kind of index (e.g. `"fault"`, `"comparator"`).
        what: &'static str,
        /// The offending index.
        index: usize,
        /// Exclusive limit the index was checked against.
        limit: usize,
    },
    /// A coverage grade was requested against an empty fault universe.
    EmptyUniverse,
    /// A size computation overflowed (degenerate huge input), or an
    /// enumerated test-set family is past its generator's line limit.
    TooLarge {
        /// What is too large (e.g. `"fault-pair universe"`,
        /// `"permutation test set"`).
        what: &'static str,
    },
    /// A test-set augmentation is infeasible: no candidate in the pool
    /// detects some of the missed faults.
    InfeasibleCover {
        /// Number of missed faults no candidate detects.
        uncoverable: usize,
    },
    /// A merger verify on an odd line count: the merging property is
    /// defined over two sorted halves of `n / 2` lines each.
    OddMerger {
        /// Line count of the offending network.
        lines: usize,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::OversizedNetwork { lines, max } => write!(
                f,
                "oversized network: this engine needs n <= {max} lines, got n = {lines}"
            ),
            Self::SweepTooLarge { lines } => write!(
                f,
                "exhaustive 2^{lines} sweep refused; use test-set verification"
            ),
            Self::ChannelMismatch { expected, actual } => {
                write!(f, "line count mismatch: expected {expected}, got {actual}")
            }
            Self::InputLengthMismatch { expected, actual } => write!(
                f,
                "input length mismatch: expected {expected} bits, got {actual}"
            ),
            Self::IndexOutOfRange { what, index, limit } => {
                write!(f, "{what} index {index} out of range (limit {limit})")
            }
            Self::EmptyUniverse => write!(f, "the fault universe is empty for this network"),
            Self::TooLarge { what } => {
                write!(f, "{what} is too large to enumerate")
            }
            Self::InfeasibleCover { uncoverable } => write!(
                f,
                "no candidate in the pool detects {uncoverable} of the missed faults"
            ),
            Self::OddMerger { lines } => write!(
                f,
                "a merger merges two sorted halves: it needs an even line count, got n = {lines}"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

/// Guard: the network fits the word-packed engines (`n <= 64`).
///
/// The canonical spelling of the historical
/// `"word-packed fault simulation needs n <= 64 lines"` assert — every
/// engine that packs one line per bit of a `u64` funnels through here,
/// so the error text is pinned in exactly one place.
pub fn ensure_word_packable(lines: usize) -> Result<(), EngineError> {
    if lines <= 64 {
        Ok(())
    } else {
        Err(EngineError::OversizedNetwork { lines, max: 64 })
    }
}

/// The inclusive line-count cap for the multi-word (channel-lane) engines.
///
/// The multi-word representation has no hard 64-line wall — a vector's
/// payload is simply `ceil(n/64)` channel words — so the cap exists only
/// to keep hostile inputs from allocating absurd lane tables.
pub const MAX_CHANNEL_LINES: usize = 4096;

/// Guard: the network fits the multi-word channel-lane engines
/// (`n <= MAX_CHANNEL_LINES`), and — when the caller already packed its
/// vectors — the supplied channel-word count matches `ceil(n/64)`.
///
/// This is the `ChannelWords ≥ 1` generalisation of
/// [`ensure_word_packable`]: entry points generic over the vector packing
/// funnel through here, while the legacy `BitString`-typed entry points
/// keep the historical 64-line guard (and its pinned `"n <= 64"` text).
pub fn ensure_channel_packable(lines: usize, words: usize) -> Result<(), EngineError> {
    if lines > MAX_CHANNEL_LINES {
        return Err(EngineError::OversizedNetwork {
            lines,
            max: MAX_CHANNEL_LINES,
        });
    }
    let expected = if lines == 0 { 1 } else { lines.div_ceil(64) };
    if words != expected {
        return Err(EngineError::InputLengthMismatch {
            expected: expected * 64,
            actual: words * 64,
        });
    }
    Ok(())
}

/// Guard: an exhaustive `2^n` sweep over the network is admissible
/// (`n < 32`).
pub fn ensure_sweepable(lines: usize) -> Result<(), EngineError> {
    if lines < 32 {
        Ok(())
    } else {
        Err(EngineError::SweepTooLarge { lines })
    }
}

/// Guard: two parties agree on the line count.
pub fn ensure_same_lines(expected: usize, actual: usize) -> Result<(), EngineError> {
    if expected == actual {
        Ok(())
    } else {
        Err(EngineError::ChannelMismatch { expected, actual })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_texts_pin_the_historical_substrings() {
        // The panicking wrappers panic with these Display texts, so the
        // substrings pinned by long-standing should_panic expectations
        // must survive any rewording.
        let oversized = EngineError::OversizedNetwork { lines: 65, max: 64 };
        assert!(oversized.to_string().contains("n <= 64"));
        let sweep = EngineError::SweepTooLarge { lines: 40 };
        assert_eq!(
            sweep.to_string(),
            "exhaustive 2^40 sweep refused; use test-set verification"
        );
        let mismatch = EngineError::ChannelMismatch {
            expected: 8,
            actual: 9,
        };
        assert!(mismatch.to_string().contains("line count mismatch"));
        let input = EngineError::InputLengthMismatch {
            expected: 8,
            actual: 7,
        };
        assert!(input.to_string().contains("input length mismatch"));
        let index = EngineError::IndexOutOfRange {
            what: "fault",
            index: 9,
            limit: 9,
        };
        assert!(index.to_string().contains("fault index 9 out of range"));
        assert_eq!(
            EngineError::OddMerger { lines: 5 }.to_string(),
            "a merger merges two sorted halves: it needs an even line count, got n = 5"
        );
    }

    #[test]
    fn guards_accept_the_boundary_and_reject_past_it() {
        assert!(ensure_word_packable(64).is_ok());
        assert_eq!(
            ensure_word_packable(65),
            Err(EngineError::OversizedNetwork { lines: 65, max: 64 })
        );
        assert!(ensure_sweepable(31).is_ok());
        assert_eq!(
            ensure_sweepable(32),
            Err(EngineError::SweepTooLarge { lines: 32 })
        );
        assert!(ensure_same_lines(6, 6).is_ok());
        assert!(ensure_same_lines(6, 7).is_err());
    }

    #[test]
    fn channel_guard_admits_multi_word_networks_up_to_the_cap() {
        // 65..=cap lines are exactly what the old word-packed guard refused.
        assert!(ensure_channel_packable(64, 1).is_ok());
        assert!(ensure_channel_packable(65, 2).is_ok());
        assert!(ensure_channel_packable(128, 2).is_ok());
        assert!(ensure_channel_packable(0, 1).is_ok());
        let cap = MAX_CHANNEL_LINES;
        assert_eq!(cap, 4096);
        assert!(ensure_channel_packable(cap, cap.div_ceil(64)).is_ok());
        assert_eq!(
            ensure_channel_packable(cap + 1, (cap + 1).div_ceil(64)),
            Err(EngineError::OversizedNetwork {
                lines: cap + 1,
                max: cap
            })
        );
    }

    #[test]
    fn channel_guard_rejects_word_count_mismatches() {
        assert_eq!(
            ensure_channel_packable(65, 1),
            Err(EngineError::InputLengthMismatch {
                expected: 128,
                actual: 64
            })
        );
        assert!(ensure_channel_packable(200, 3).is_err());
    }
}
