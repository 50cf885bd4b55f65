//! A long-running test-set oracle for comparator networks.
//!
//! The paper's result is that a *small certified test set* answers "is
//! this network correct / which faults does this set catch?".  The
//! engine crates compute those answers as one-shot library calls; this
//! crate turns them into a **service**: a work queue and worker pool
//! accept verify / coverage / minimum-augmentation queries for
//! arbitrary submitted networks and answer them at high throughput.
//!
//! The serving problem has three levers, each its own module:
//!
//! * **Batching** ([`oracle`]) — queued coverage queries are sharded by
//!   (network, universe, redundancy mode), and each shard is one call of
//!   the engine's grade of several test lists,
//!   [`coverage_of_universe_metered`](sortnet_faults::coverage::coverage_of_universe_metered):
//!   the faults are enumerated once, a test-list prefix several members
//!   share is swept once, and the members' missed faults are classified
//!   in one redundancy pass.  Each member gets the answer its list gets
//!   alone, so batched answers are bit-identical to cold ones.
//! * **Caching** ([`cache`]) — an LRU over finished answers, keyed by
//!   the exact bytes [`wire`] encodes a request's network and query to
//!   (universe, mode and tests included; budget and deadline not), with
//!   hit/miss/eviction counters.  The quarantine ledger uses the same key.
//! * **Budget degradation** ([`pool`], [`oracle`]) — a per-request
//!   [`SweepBudget`](sortnet_network::SweepBudget) is plumbed into the
//!   engine's budgeted entry points, so one oversized query degrades to a
//!   typed [`Completion::Partial`] answer instead of stalling the queue.
//!
//! On top of the serving levers sits a **robustness layer**: admission
//! control with a typed [`ServiceError::Overloaded`] refusal and a
//! configurable shed policy ([`pool`]), per-request deadlines checked
//! at dequeue and intersected with the sweep budget ([`oracle`]),
//! per-request `catch_unwind` worker supervision with a quarantine
//! ledger ([`pool`]), connection deadlines / an idle reaper / a
//! retrying client on the wire ([`wire`]), and a deterministic
//! fault-injection registry ([`failpoint`]) the grinder's chaos leg
//! drives.
//!
//! The front ends: a direct in-process API ([`Service`]) driven by the
//! CLI, benches and the grinder, and a minimal length-prefixed wire
//! protocol over a Unix socket ([`wire`]).  A seeded load generator
//! ([`loadgen`]) replays a mixed workload (hot repeats, cold networks,
//! `n > 64` packed queries, deliberately starved budgets) and reports
//! latency percentiles, throughput and cache hit rate.
//!
//! See `docs/SERVICE.md` for the architecture notes and the exact
//! batching/caching rules.

use std::time::Duration;

use sortnet_faults::FaultSimEngine;
use sortnet_network::lanes::Backend;

pub mod cache;
pub mod error;
pub mod failpoint;
pub mod loadgen;
pub mod oracle;
pub mod pool;
pub mod wire;

pub use error::ServiceError;
pub use oracle::{
    answer_cold, Answer, AugmentSummary, CacheStatus, Completion, Query, Request, Response,
};
pub use pool::{Service, ServiceStats, ShedPolicy};

/// Tuning knobs of one [`Service`] instance.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Most queued requests one worker drains into a single batch —
    /// the sharding window.  Larger batches amortise fault enumeration,
    /// redundancy passes and the sweep of test-list prefixes members share
    /// across more queries; smaller ones bound per-answer latency.
    pub max_batch: usize,
    /// Simulation engine for coverage grades and candidate matrices, solo
    /// and batched alike: a shard under [`FaultSimEngine::Scalar`] grades
    /// its members one after another on the scalar engine.  A
    /// bit-parallel engine's lane width sets the first block of each
    /// unbudgeted first-detection and redundancy sweep (the tail runs at
    /// `W = 16`) and every block of a budgeted one; it never changes an
    /// answer.
    pub engine: FaultSimEngine,
    /// Lane-ops backend for the bit-parallel sweeps of verification and
    /// coverage (cold and sharded).  Augmentation does not take it yet:
    /// its candidate matrix and base grade run on [`Backend::active`],
    /// because `SearchOptions` has no backend field.
    pub backend: Backend,
    /// Answer-cache capacity in entries (0 = off).
    pub answer_cache: usize,
    /// Ignored: the service keeps no detection-matrix cache.  Kept only
    /// for source compatibility.
    pub matrix_cache: usize,
    /// Answer-cache entry time-to-live; `None` never expires.  Expired
    /// entries are never served and are counted separately from LRU
    /// evictions (see [`cache::CacheCounters::expirations`]).
    pub answer_ttl: Option<Duration>,
    /// Ignored, like [`matrix_cache`](Self::matrix_cache).
    pub matrix_ttl: Option<Duration>,
    /// Branch-and-bound node cap for augmentation searches; `None`
    /// runs every search to certification.
    pub node_budget: Option<u64>,
    /// Most jobs allowed to wait in the queue before admission control
    /// sheds work (`0` = unbounded, the pre-admission-control
    /// behaviour).  A full queue answers with a typed
    /// [`ServiceError::Overloaded`] refusal instead of blocking.
    pub queue_capacity: usize,
    /// What to shed when the queue is full: the incoming request or the
    /// oldest queued one.
    pub shed_policy: ShedPolicy,
    /// Panicking evaluation attempts a request gets before it is
    /// quarantined and answered with a typed
    /// [`ServiceError::WorkerPanicked`].
    pub panic_attempts: u32,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            max_batch: 32,
            engine: FaultSimEngine::default(),
            backend: Backend::active(),
            answer_cache: 256,
            matrix_cache: 32,
            answer_ttl: None,
            matrix_ttl: None,
            node_budget: Some(10_000),
            queue_capacity: 1024,
            shed_policy: ShedPolicy::RejectNew,
            panic_attempts: 2,
        }
    }
}
