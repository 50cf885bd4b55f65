//! Sweep budgets, cancellation and graceful partial outcomes.
//!
//! Exhaustive sweeps, detection-matrix builds and redundancy checks are
//! open-ended: on a hostile or merely large input they run for as long
//! as the arithmetic says.  A [`SweepBudget`] bounds such a run along
//! three axes — processed blocks, fork-node count, a wall-clock
//! deadline — and a shared [`CancelToken`] lets another thread stop it
//! co-operatively.  A budgeted engine entry point returns a
//! [`Budgeted`] outcome: [`Complete`](Budgeted::Complete) when the run
//! finished, or [`Partial`](Budgeted::Partial) carrying the best answer
//! derivable from the work actually done, the [`SweepProgress`] at the
//! trip point, and the [`BudgetReason`] that tripped.
//!
//! # Granularity and the no-partial-rows guarantee
//!
//! Budgets are checked at *block boundaries* (one block = up to
//! `64 × W` test vectors of a [`WideBlock`](crate::lanes::WideBlock))
//! and at *fork sites* in the multi-fault engine.  A trip mid-block
//! discards that block's contribution entirely: a partial detection
//! matrix or coverage report only ever reflects whole committed blocks,
//! so no partially-written row is observable.  Consequently a budget is
//! coarse — a sweep may overshoot `max_blocks` by at most the block it
//! was processing — but every partial answer is exact for the prefix of
//! tests it covers.
//!
//! Deadlines are polled once per block and once per 64 forks (an
//! `Instant::now` per fork would dominate small forks).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared, clonable cancellation flag.
///
/// Clones observe the same flag: cancel from any thread, observe from
/// the sweep.  Cancellation is co-operative and permanent (there is no
/// un-cancel).
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, untripped token.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Trips the token: every budgeted run holding a clone stops at its
    /// next budget check.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// `true` once [`cancel`](Self::cancel) has been called on any clone.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Resource bounds for one budgeted engine run.
///
/// The default is unlimited on every axis, so
/// `SweepBudget::default()` makes a budgeted entry point behave exactly
/// like its unbudgeted sibling.
#[derive(Clone, Debug, Default)]
pub struct SweepBudget {
    /// Maximum number of blocks to process (`None` = unlimited).
    pub max_blocks: Option<u64>,
    /// Maximum number of fork nodes in the multi-fault engine
    /// (`None` = unlimited).
    pub max_forks: Option<u64>,
    /// Wall-clock deadline (`None` = none).
    pub deadline: Option<Instant>,
    /// Co-operative cancellation flag (`None` = not cancellable).
    pub cancel: Option<CancelToken>,
}

impl SweepBudget {
    /// An unlimited budget (same as [`Default`]).
    #[must_use]
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Caps the number of processed blocks.
    #[must_use]
    pub fn with_max_blocks(mut self, blocks: u64) -> Self {
        self.max_blocks = Some(blocks);
        self
    }

    /// Caps the number of fork nodes in multi-fault sweeps.
    #[must_use]
    pub fn with_max_forks(mut self, forks: u64) -> Self {
        self.max_forks = Some(forks);
        self
    }

    /// Sets an absolute wall-clock deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets a deadline `timeout` from now.
    #[must_use]
    pub fn with_deadline_in(self, timeout: Duration) -> Self {
        self.with_deadline(Instant::now() + timeout)
    }

    /// Attaches a cancellation token.
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// `true` when no axis is bounded (the default).
    #[must_use]
    pub fn is_unlimited(&self) -> bool {
        self.max_blocks.is_none()
            && self.max_forks.is_none()
            && self.deadline.is_none()
            && self.cancel.is_none()
    }
}

/// Which budget axis stopped a [`Partial`](Budgeted::Partial) run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BudgetReason {
    /// [`SweepBudget::max_blocks`] was exhausted.
    Blocks,
    /// [`SweepBudget::max_forks`] was exhausted.
    Forks,
    /// The wall-clock [`SweepBudget::deadline`] passed.
    Deadline,
    /// The [`CancelToken`] was tripped.
    Cancelled,
}

/// Work accounted by a budgeted run up to the point it returned.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepProgress {
    /// Whole blocks committed.
    pub blocks: u64,
    /// Test vectors contained in those blocks.
    pub vectors: u64,
    /// Fork nodes executed in the multi-fault engine.
    pub forks: u64,
}

/// The admission meter a budgeted run threads through its loops.
///
/// One meter spans one logical run even when that run has several
/// phases (e.g. a coverage grade = first-detection sweep + redundancy
/// sweep): the phases share the meter so the budget bounds the whole
/// run, not each phase separately.
#[derive(Debug)]
pub struct BudgetMeter {
    budget: SweepBudget,
    progress: SweepProgress,
    tripped: Option<BudgetReason>,
}

impl BudgetMeter {
    /// A meter enforcing `budget`.
    #[must_use]
    pub fn new(budget: &SweepBudget) -> Self {
        Self {
            budget: budget.clone(),
            progress: SweepProgress::default(),
            tripped: None,
        }
    }

    /// A meter that admits everything (for the unbudgeted legacy paths;
    /// its checks compile to a handful of `None` tests).
    #[must_use]
    pub fn unlimited() -> Self {
        Self::new(&SweepBudget::default())
    }

    /// `true` when the meter's budget bounds no axis
    /// ([`SweepBudget::is_unlimited`]): it will admit every block and
    /// fork, so a sweep may pick its block size freely without changing
    /// any trip point.
    #[must_use]
    pub fn is_unlimited(&self) -> bool {
        self.budget.is_unlimited()
    }

    fn check_cancel_and_deadline(&mut self) -> bool {
        if let Some(token) = &self.budget.cancel {
            if token.is_cancelled() {
                self.tripped = Some(BudgetReason::Cancelled);
                return false;
            }
        }
        if let Some(deadline) = self.budget.deadline {
            if Instant::now() >= deadline {
                self.tripped = Some(BudgetReason::Deadline);
                return false;
            }
        }
        true
    }

    /// Asks to process one more block of `vectors` test vectors.
    ///
    /// `true` admits the block (and accounts it); `false` means the
    /// budget tripped — the caller must stop without committing the
    /// block.  Once tripped, a meter refuses forever.
    #[must_use]
    pub fn admit_block(&mut self, vectors: u64) -> bool {
        if self.tripped.is_some() {
            return false;
        }
        if !self.check_cancel_and_deadline() {
            return false;
        }
        if let Some(max) = self.budget.max_blocks {
            if self.progress.blocks >= max {
                self.tripped = Some(BudgetReason::Blocks);
                return false;
            }
        }
        self.progress.blocks += 1;
        self.progress.vectors += vectors;
        true
    }

    /// Asks to execute one more fork node.
    ///
    /// `false` means the budget tripped mid-block; the caller must
    /// discard the in-flight block's contribution (the no-partial-rows
    /// guarantee).  The deadline is polled every 64 forks to amortise
    /// `Instant::now`.
    #[must_use]
    pub fn admit_fork(&mut self) -> bool {
        if self.tripped.is_some() {
            return false;
        }
        if let Some(token) = &self.budget.cancel {
            if token.is_cancelled() {
                self.tripped = Some(BudgetReason::Cancelled);
                return false;
            }
        }
        if self.progress.forks & 63 == 0 {
            if let Some(deadline) = self.budget.deadline {
                if Instant::now() >= deadline {
                    self.tripped = Some(BudgetReason::Deadline);
                    return false;
                }
            }
        }
        if let Some(max) = self.budget.max_forks {
            if self.progress.forks >= max {
                self.tripped = Some(BudgetReason::Forks);
                return false;
            }
        }
        self.progress.forks += 1;
        true
    }

    /// The axis that tripped, if any.
    #[must_use]
    pub fn tripped(&self) -> Option<BudgetReason> {
        self.tripped
    }

    /// The work committed so far.
    #[must_use]
    pub fn progress(&self) -> SweepProgress {
        self.progress
    }

    /// Wraps `value` as [`Budgeted::Complete`] when the meter never
    /// tripped, [`Budgeted::Partial`] otherwise.
    #[must_use]
    pub fn finish<T>(&self, value: T) -> Budgeted<T> {
        match self.tripped {
            None => Budgeted::Complete(value),
            Some(reason) => Budgeted::Partial {
                progress: self.progress,
                reason,
                best_so_far: value,
            },
        }
    }
}

/// The outcome of a budgeted run: the full answer, or the best answer
/// derivable from the work done before the budget tripped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Budgeted<T> {
    /// The run finished; the value is the same one the unbudgeted entry
    /// point would have produced.
    Complete(T),
    /// The budget tripped; `best_so_far` is exact for the committed
    /// prefix of the work (a lower bound on detection counts, an
    /// uncertified greedy answer for searches).
    Partial {
        /// Work committed before the trip.
        progress: SweepProgress,
        /// The axis that tripped.
        reason: BudgetReason,
        /// The best answer derivable from the committed work.
        best_so_far: T,
    },
}

impl<T> Budgeted<T> {
    /// `true` for [`Complete`](Self::Complete).
    #[must_use]
    pub fn is_complete(&self) -> bool {
        matches!(self, Self::Complete(_))
    }

    /// The carried value, complete or partial.
    #[must_use]
    pub fn value(&self) -> &T {
        match self {
            Self::Complete(v) | Self::Partial { best_so_far: v, .. } => v,
        }
    }

    /// Consumes the outcome, returning the carried value.
    #[must_use]
    pub fn into_value(self) -> T {
        match self {
            Self::Complete(v) | Self::Partial { best_so_far: v, .. } => v,
        }
    }

    /// Maps the carried value, preserving completeness and progress.
    #[must_use]
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Budgeted<U> {
        match self {
            Self::Complete(v) => Budgeted::Complete(f(v)),
            Self::Partial {
                progress,
                reason,
                best_so_far,
            } => Budgeted::Partial {
                progress,
                reason,
                best_so_far: f(best_so_far),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_meter_admits_everything() {
        let mut meter = BudgetMeter::unlimited();
        for _ in 0..1000 {
            assert!(meter.admit_block(256));
            assert!(meter.admit_fork());
        }
        assert_eq!(meter.tripped(), None);
        assert_eq!(meter.progress().blocks, 1000);
        assert_eq!(meter.progress().vectors, 256_000);
        assert!(meter.finish(7u32).is_complete());
    }

    #[test]
    fn block_budget_trips_exactly_at_the_cap_and_stays_tripped() {
        let mut meter = BudgetMeter::new(&SweepBudget::unlimited().with_max_blocks(3));
        assert!(meter.admit_block(64));
        assert!(meter.admit_block(64));
        assert!(meter.admit_block(64));
        assert!(!meter.admit_block(64));
        assert_eq!(meter.tripped(), Some(BudgetReason::Blocks));
        // Sticky: nothing is admitted after a trip, on any axis.
        assert!(!meter.admit_block(64));
        assert!(!meter.admit_fork());
        assert_eq!(meter.progress().blocks, 3);
        assert_eq!(meter.progress().vectors, 192);
        match meter.finish("partial") {
            Budgeted::Partial {
                reason, progress, ..
            } => {
                assert_eq!(reason, BudgetReason::Blocks);
                assert_eq!(progress.blocks, 3);
            }
            Budgeted::Complete(_) => panic!("tripped meter must finish partial"),
        }
    }

    #[test]
    fn fork_budget_trips_at_the_cap() {
        let mut meter = BudgetMeter::new(&SweepBudget::unlimited().with_max_forks(5));
        for _ in 0..5 {
            assert!(meter.admit_fork());
        }
        assert!(!meter.admit_fork());
        assert_eq!(meter.tripped(), Some(BudgetReason::Forks));
    }

    #[test]
    fn cancel_token_is_shared_across_clones_and_observed_by_the_meter() {
        let token = CancelToken::new();
        let observer = token.clone();
        assert!(!observer.is_cancelled());
        let mut meter = BudgetMeter::new(&SweepBudget::unlimited().with_cancel(observer));
        assert!(meter.admit_block(1));
        token.cancel();
        assert!(!meter.admit_block(1));
        assert_eq!(meter.tripped(), Some(BudgetReason::Cancelled));
        assert!(token.is_cancelled());
    }

    #[test]
    fn expired_deadline_refuses_the_first_block() {
        let budget =
            SweepBudget::unlimited().with_deadline(Instant::now() - Duration::from_secs(1));
        let mut meter = BudgetMeter::new(&budget);
        assert!(!meter.admit_block(1));
        assert_eq!(meter.tripped(), Some(BudgetReason::Deadline));
    }

    #[test]
    fn budgeted_accessors_reach_the_value_either_way() {
        let c = Budgeted::Complete(41).map(|v| v + 1);
        assert_eq!(*c.value(), 42);
        let p = Budgeted::Partial {
            progress: SweepProgress::default(),
            reason: BudgetReason::Cancelled,
            best_so_far: 6,
        }
        .map(|v| v * 7);
        assert!(!p.is_complete());
        assert_eq!(p.into_value(), 42);
    }

    #[test]
    fn default_budget_is_unlimited() {
        assert!(SweepBudget::default().is_unlimited());
        assert!(!SweepBudget::default().with_max_blocks(1).is_unlimited());
    }
}
