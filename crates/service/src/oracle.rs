//! Query/answer types and the two evaluation paths of the oracle.
//!
//! [`answer_cold`] is the reference path: one request, straight through
//! the engine's typed entry points, no cache.  [`answer_batch`] is the
//! serving path (the worker pool drives its keyed core with the one
//! [`AnswerKey`] per job it already holds): it looks finished answers up in
//! the LRU and shards the remaining coverage queries by (network,
//! universe, redundancy mode).  A shard is **one** call of the engine's
//! grade of several test lists, [`coverage_of_universe_metered`], under
//! an unlimited meter: the members share one admitted fault list,
//! one early-exit sweep over each test-list prefix several members share,
//! and one redundancy pass over the union of the members' missed faults.
//! Each member gets exactly the refusal or the report its list gets
//! alone, on the engine and backend of [`ServiceConfig`], so a batched
//! answer is bit-identical to the cold one (the grinder's cache strategy,
//! the load generator and the shard differential suite all assert this).
//!
//! Budget rule: a request carrying its own [`SweepBudget`] (or running
//! under a bounded service default) is evaluated **solo** through the
//! engine's budgeted entry points and never touches the cache in either
//! direction ([`CacheStatus::Bypass`]) — partial answers depend on the
//! budget that produced them, so caching them would let one request's
//! starvation leak into another's answer.
//!
//! Deadline rule: a request's [`Request::deadline`] is intersected into
//! its effective budget's deadline axis, which makes the budget bounded
//! — so deadline-carrying requests automatically ride the solo,
//! cache-bypassing path (a deadline-shaped partial must never be
//! cached) and in-flight work degrades to the engine's typed
//! [`Completion::Partial`] with [`BudgetReason::Deadline`].  The *queue*
//! half of the deadline contract (answering an already-expired request
//! without touching the engine) lives in [`crate::pool`].

use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use sortnet_combinat::ChannelVec;
use sortnet_faults::coverage::{
    coverage_of_universe_budgeted_packed_with, coverage_of_universe_metered, CoverageReport,
    RedundancyMode,
};
use sortnet_faults::universe::StandardUniverse;
use sortnet_network::budget::{BudgetMeter, BudgetReason, Budgeted, SweepBudget, SweepProgress};
use sortnet_network::Network;
use sortnet_testsets::augment::{try_minimum_augmentation_packed, CandidatePool, SearchOptions};
use sortnet_testsets::verify::{self, try_verify_on, Property, Strategy};

use crate::cache::{CacheCounters, Lru};
use crate::error::ServiceError;
use crate::failpoint;
use crate::wire;
use crate::ServiceConfig;

/// One question about one submitted network.
///
/// Test vectors are always carried in the universal multi-word packing
/// ([`ChannelVec`]) so a single request type spans `n ≤ 64` and the
/// packed `n > 64` regime.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Query {
    /// "Does this network have the property?" — the paper's test-set
    /// verification ([`verify::try_verify_on`]; `n ≤ 64`).
    Verify {
        /// The property to check.
        property: Property,
        /// The test family to drive the check with.
        strategy: Strategy,
    },
    /// "Which faults of this universe does my test set catch?"
    Coverage {
        /// The fault universe to grade against.
        universe: StandardUniverse,
        /// The submitted test set, in submission order.
        tests: Vec<ChannelVec>,
        /// How missed faults are classified as redundant/testable:
        /// [`RedundancyMode::Exhaustive`] (admissible only for `n < 32`;
        /// refused up front otherwise), [`RedundancyMode::RelativeTo`] a
        /// named packed family (the only classification admissible past
        /// the 64-line wall), or [`RedundancyMode::Skip`].
        redundancy: RedundancyMode,
    },
    /// "What is the smallest augmentation making my test set complete?"
    /// (sorted-strings candidate pool, exact set-cover search).
    Augment {
        /// The fault universe the augmented set must cover.
        universe: StandardUniverse,
        /// The base test set to augment.
        tests: Vec<ChannelVec>,
    },
}

/// A queued unit of work: a network, a question, an optional budget,
/// an optional deadline.
#[derive(Clone, Debug)]
pub struct Request {
    /// The submitted network.
    pub network: Network,
    /// The question.
    pub query: Query,
    /// Per-request budget; `None` falls back to the service default.
    /// Any bounded effective budget routes the request down the solo,
    /// cache-bypassing path.
    pub budget: Option<SweepBudget>,
    /// Per-request deadline.  Checked at dequeue (an already-expired
    /// request gets a typed [`ServiceError::DeadlineExpired`] without
    /// touching the engine) and intersected into the effective budget
    /// so in-flight work degrades to a typed deadline partial.  Crosses
    /// the wire as a relative remaining-time axis.
    pub deadline: Option<Instant>,
}

/// The minimum-augmentation answer, summarised for serving (the full
/// [`AugmentationReport`](sortnet_testsets::augment::AugmentationReport)
/// carries per-fault witness lists the wire front does not ship).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AugmentSummary {
    /// Detectable faults the base set missed.
    pub missed: usize,
    /// Candidates streamed through the matrix before dedup.
    pub candidates_considered: usize,
    /// The greedy augmentation (upper bound).
    pub greedy: Vec<ChannelVec>,
    /// The smallest augmentation found.
    pub minimum: Vec<ChannelVec>,
    /// Root lower bound on any augmentation from the pool.
    pub lower_bound: usize,
    /// `true` when `minimum` is a certified optimum over the pool.
    pub certified: bool,
}

/// A successful answer, by query kind.
#[derive(Clone, Debug, PartialEq)]
pub enum Answer {
    /// Outcome of a [`Query::Verify`].
    Verify(verify::Report),
    /// Outcome of a [`Query::Coverage`].
    Coverage(CoverageReport),
    /// Outcome of a [`Query::Augment`].
    Augment(AugmentSummary),
}

/// Whether the answer reflects the whole computation or a budgeted
/// prefix of it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Completion {
    /// The run finished; the answer equals the unbudgeted one.
    Complete,
    /// The budget tripped; the answer is the engine's conservative
    /// partial (see `docs/SERVICE.md` for the per-kind semantics).
    Partial {
        /// The axis that tripped.
        reason: BudgetReason,
        /// Work committed before the trip.
        progress: SweepProgress,
    },
}

/// How the cache participated in an answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheStatus {
    /// Served from the answer cache.
    Hit,
    /// Computed (and, when complete, stored).
    Miss,
    /// Budgeted solo path: the cache was neither read nor written.
    Bypass,
}

/// The service's reply to one [`Request`].
#[derive(Clone, Debug, PartialEq)]
pub struct Response {
    /// The answer, or a typed refusal — the engine's (passed through as
    /// [`ServiceError::Engine`]) or the service's own (overload,
    /// expired deadline, quarantined panic).
    pub outcome: Result<Answer, ServiceError>,
    /// Complete vs budget-degraded.
    pub completion: Completion,
    /// Cache participation.
    pub cache: CacheStatus,
    /// Service-side processing latency in microseconds (queue wait
    /// excluded; the load generator measures client-side round trips
    /// separately).
    pub micros: u64,
}

/// The answer-cache and quarantine key: the exact bytes of a request's
/// network and query as the wire encodes them (budget and deadline left
/// out), with their SipHash digest.  Hashing writes only the digest;
/// equality compares the bytes, so a hit is always the same (network,
/// query), whatever the digest collides with.  Clones share the bytes.
#[derive(Clone, Debug)]
pub struct AnswerKey {
    /// SipHash digest of the network's bytes alone: groups keys by
    /// network for reports; it never decides equality.
    pub network: u64,
    /// The network's line count.
    pub lines: usize,
    digest: u64,
    bytes: Arc<[u8]>,
}

impl AnswerKey {
    /// The key for `request`: one pass of the encoder and one of the
    /// hasher, whose state after the network's bytes is `network`.
    #[must_use]
    pub fn of(request: &Request) -> Self {
        let mut bytes = Vec::new();
        let network_end = wire::put_key(&mut bytes, request);
        let mut hasher = DefaultHasher::new();
        hasher.write(&bytes[..network_end]);
        let network = hasher.finish();
        hasher.write(&bytes[network_end..]);
        Self {
            network,
            lines: request.network.lines(),
            digest: hasher.finish(),
            bytes: bytes.into(),
        }
    }

    /// The key for `request` with its digest forced to `digest`, so tests
    /// can make two different requests collide.
    #[cfg(test)]
    pub(crate) fn with_digest(request: &Request, digest: u64) -> Self {
        Self {
            digest,
            ..Self::of(request)
        }
    }
}

impl PartialEq for AnswerKey {
    fn eq(&self, other: &Self) -> bool {
        self.digest == other.digest && self.bytes == other.bytes
    }
}

impl Eq for AnswerKey {}

impl Hash for AnswerKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.digest);
    }
}

/// The answer cache the workers share, behind a mutex locked only for
/// lookups and inserts — coverage computation happens outside the lock,
/// so concurrent workers can (rarely) both compute the same entry; the
/// second insert is a harmless overwrite.
pub struct OracleCaches {
    answers: Mutex<Lru<AnswerKey, Answer>>,
}

impl OracleCaches {
    /// A fresh answer cache with the given entry capacity and no TTL.
    #[must_use]
    pub fn new(answer_capacity: usize) -> Self {
        Self::with_ttls(answer_capacity, None, 0, None)
    }

    /// A fresh answer cache with a capacity and an entry TTL.  The
    /// matrix-cache arguments are ignored: the service keeps no matrix
    /// cache, and they remain only for source compatibility.
    #[must_use]
    pub fn with_ttls(
        answer_capacity: usize,
        answer_ttl: Option<std::time::Duration>,
        _matrix_capacity: usize,
        _matrix_ttl: Option<std::time::Duration>,
    ) -> Self {
        Self {
            answers: Mutex::new(Lru::with_ttl(answer_capacity, answer_ttl)),
        }
    }

    /// (answer-cache counters, matrix-cache counters).  The matrix side
    /// is always [`CacheCounters::default`]: there is no matrix cache,
    /// and the pair remains only for source compatibility.
    #[must_use]
    pub fn counters(&self) -> (CacheCounters, CacheCounters) {
        (
            unpoisoned(&self.answers).counters(),
            CacheCounters::default(),
        )
    }
}

/// Locks through poisoning.  Worker panics are caught and supervised
/// per request ([`crate::pool`]); the cache locks are only ever held
/// across single LRU operations (whose invariants hold between calls),
/// and the in-tree panic sites — the engine's entry points and the
/// `worker-panic` failpoint — all sit outside these locks, so a
/// poisoned flag here means "another worker panicked elsewhere", not
/// "this data is torn".
fn unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

fn effective_budget(config: &ServiceConfig, request: &Request) -> SweepBudget {
    let mut budget = request
        .budget
        .clone()
        .unwrap_or_else(|| config.default_budget.clone());
    if let Some(deadline) = request.deadline {
        // Intersect: the sooner of the budget's own deadline and the
        // request's.  This bounds the budget, which routes the request
        // down the solo cache-bypassing path — deadline-shaped partials
        // must never be cached.
        budget.deadline = Some(budget.deadline.map_or(deadline, |d| d.min(deadline)));
    }
    budget
}

fn completion_of<T>(outcome: &Budgeted<T>) -> Completion {
    match outcome {
        Budgeted::Complete(_) => Completion::Complete,
        Budgeted::Partial {
            reason, progress, ..
        } => Completion::Partial {
            reason: *reason,
            progress: *progress,
        },
    }
}

/// The reference path: evaluates one request straight through the
/// engine's typed entry points, with the request's effective budget and
/// no cache in either direction.  The batched path is proven
/// bit-identical to this one.
#[must_use]
pub fn answer_cold(config: &ServiceConfig, request: &Request) -> Response {
    let start = Instant::now();
    let budget = effective_budget(config, request);
    let (outcome, completion) = evaluate(config, request, &budget);
    Response {
        outcome,
        completion,
        cache: CacheStatus::Bypass,
        micros: start.elapsed().as_micros() as u64,
    }
}

fn evaluate(
    config: &ServiceConfig,
    request: &Request,
    budget: &SweepBudget,
) -> (Result<Answer, ServiceError>, Completion) {
    let network = &request.network;
    match &request.query {
        // Verification cost is bounded by the paper's test-set sizes
        // (the whole point of the theorems), so it runs unbudgeted; the
        // typed guards refuse the genuinely unbounded shapes (n > 64,
        // exhaustive n ≥ 32) up front.
        Query::Verify { property, strategy } => (
            try_verify_on(network, *property, *strategy, config.backend)
                .map(Answer::Verify)
                .map_err(ServiceError::from),
            Completion::Complete,
        ),
        Query::Coverage {
            universe,
            tests,
            redundancy,
        } => match coverage_of_universe_budgeted_packed_with(
            network,
            universe,
            tests,
            *redundancy,
            config.engine,
            config.backend,
            budget,
        ) {
            // An unlimited budget always completes.
            Ok(budgeted) => {
                let completion = completion_of(&budgeted);
                (Ok(Answer::Coverage(budgeted.into_value())), completion)
            }
            Err(e) => (Err(e.into()), Completion::Complete),
        },
        Query::Augment { universe, tests } => {
            let options = SearchOptions {
                engine: config.engine,
                node_budget: config.node_budget,
                budget: budget.clone(),
                // The augmentation surface keeps the legacy exhaustive
                // grading; past-the-wall callers go through the packed
                // entry points directly.
                redundancy: RedundancyMode::Exhaustive,
            };
            match try_minimum_augmentation_packed::<ChannelVec>(
                network,
                universe,
                tests,
                &CandidatePool::SortedStrings,
                &options,
            ) {
                Ok(budgeted) => {
                    let completion = completion_of(&budgeted);
                    let report = budgeted.into_value();
                    (
                        Ok(Answer::Augment(AugmentSummary {
                            missed: report.missed_faults.len(),
                            candidates_considered: report.candidates_considered,
                            greedy: report.greedy,
                            minimum: report.minimum,
                            lower_bound: report.lower_bound,
                            certified: report.certified,
                        })),
                        completion,
                    )
                }
                Err(e) => (Err(e.into()), Completion::Complete),
            }
        }
    }
}

/// The serving path: answers a drained batch of requests with cache
/// lookups and coverage sharding.  Responses come back in request order.
/// Computes each request's [`AnswerKey`] and runs the keyed core that the
/// worker pool drives with the keys it already holds.
#[must_use]
pub fn answer_batch(
    config: &ServiceConfig,
    caches: &OracleCaches,
    requests: &[Request],
) -> Vec<Response> {
    let keys: Vec<AnswerKey> = requests.iter().map(AnswerKey::of).collect();
    answer_keyed(config, caches, requests, &keys)
}

/// [`answer_batch`] with `keys[i] == AnswerKey::of(&requests[i])` given,
/// so each test list is hashed once per job.
pub(crate) fn answer_keyed(
    config: &ServiceConfig,
    caches: &OracleCaches,
    requests: &[Request],
    keys: &[AnswerKey],
) -> Vec<Response> {
    assert_eq!(requests.len(), keys.len(), "one key per request");
    let start = Instant::now();
    let mut responses: Vec<Option<Response>> = (0..requests.len()).map(|_| None).collect();
    // A coverage shard: every member grades the same network against the
    // same universe with the same redundancy mode, so they share the
    // admitted fault list and one redundancy pass.  Each member carries
    // the key its cache lookup used, reused for the insert.
    type ShardKey<'a> = (&'a Network, StandardUniverse, RedundancyMode);
    let mut shards: HashMap<ShardKey<'_>, Vec<(usize, &AnswerKey)>> = HashMap::new();

    for (i, (request, key)) in requests.iter().zip(keys).enumerate() {
        // Chaos site: a per-request injected panic, caught and
        // supervised by the worker pool like any real evaluation panic.
        // Deliberately placed before any cache lock is taken.
        failpoint::maybe_panic("worker-panic");
        let budget = effective_budget(config, request);
        if !budget.is_unlimited() {
            // Solo, cache-bypassing path: partial answers are shaped by
            // their budget and must not be shared.
            let (outcome, completion) = evaluate(config, request, &budget);
            responses[i] = Some(Response {
                outcome,
                completion,
                cache: CacheStatus::Bypass,
                micros: start.elapsed().as_micros() as u64,
            });
            continue;
        }
        if let Some(answer) = unpoisoned(&caches.answers).get(key) {
            responses[i] = Some(Response {
                outcome: Ok(answer.clone()),
                completion: Completion::Complete,
                cache: CacheStatus::Hit,
                micros: start.elapsed().as_micros() as u64,
            });
            continue;
        }
        match &request.query {
            Query::Coverage {
                universe,
                redundancy,
                ..
            } => shards
                .entry((&request.network, *universe, *redundancy))
                .or_default()
                .push((i, key)),
            Query::Verify { .. } | Query::Augment { .. } => {
                let (outcome, completion) = evaluate(config, request, &SweepBudget::unlimited());
                if completion == Completion::Complete {
                    if let Ok(answer) = &outcome {
                        unpoisoned(&caches.answers).insert(key.clone(), answer.clone());
                    }
                }
                responses[i] = Some(Response {
                    outcome,
                    completion,
                    cache: CacheStatus::Miss,
                    micros: start.elapsed().as_micros() as u64,
                });
            }
        }
    }

    for (shard, members) in shards {
        answer_coverage_shard(
            config,
            caches,
            requests,
            shard,
            &members,
            &mut responses,
            start,
        );
    }

    responses
        .into_iter()
        .map(|r| r.expect("every request gets a response"))
        .collect()
}

fn shard_tests(requests: &[Request], i: usize) -> &[ChannelVec] {
    match &requests[i].query {
        Query::Coverage { tests, .. } => tests,
        _ => unreachable!("coverage shards hold coverage queries"),
    }
}

/// Grades a shard's members as one
/// [`coverage_of_universe_metered`] call: each member gets the refusal or
/// the report its list would get alone, and every report is cached.
fn answer_coverage_shard(
    config: &ServiceConfig,
    caches: &OracleCaches,
    requests: &[Request],
    (network, universe, redundancy): (&Network, StandardUniverse, RedundancyMode),
    members: &[(usize, &AnswerKey)],
    responses: &mut [Option<Response>],
    start: Instant,
) {
    let lists: Vec<&[ChannelVec]> = members
        .iter()
        .map(|&(i, _)| shard_tests(requests, i))
        .collect();
    let grades = coverage_of_universe_metered(
        network,
        &universe,
        &lists,
        redundancy,
        config.engine,
        config.backend,
        &mut BudgetMeter::unlimited(),
    );
    for (&(i, key), grade) in members.iter().zip(grades) {
        let outcome = grade.map(Answer::Coverage).map_err(ServiceError::from);
        if let Ok(answer) = &outcome {
            unpoisoned(&caches.answers).insert(key.clone(), answer.clone());
        }
        responses[i] = Some(Response {
            outcome,
            completion: Completion::Complete,
            cache: CacheStatus::Miss,
            micros: start.elapsed().as_micros() as u64,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sortnet_faults::FaultSimEngine;
    use sortnet_network::builders::batcher::odd_even_merge_sort;
    use sortnet_network::error::EngineError;

    fn sorted_tests(n: usize) -> Vec<ChannelVec> {
        (0..=n)
            .map(|ones| ChannelVec::sorted_of(n - ones, ones))
            .collect()
    }

    fn coverage_request(n: usize, redundancy: RedundancyMode) -> Request {
        Request {
            network: odd_even_merge_sort(n),
            query: Query::Coverage {
                universe: StandardUniverse::StuckLine,
                tests: sorted_tests(n),
                redundancy,
            },
            budget: None,
            deadline: None,
        }
    }

    #[test]
    fn batched_coverage_is_bit_identical_to_cold_and_caches_repeats() {
        let config = ServiceConfig::default();
        let caches = OracleCaches::new(8);
        let requests = vec![
            coverage_request(8, RedundancyMode::Exhaustive),
            coverage_request(8, RedundancyMode::Exhaustive),
        ];
        let batch = answer_batch(&config, &caches, &requests);
        let cold = answer_cold(&config, &requests[0]);
        // Both members miss the cache (the duplicate joins the same
        // shard in the same batch), but both answers equal the cold one.
        for response in &batch {
            assert_eq!(response.outcome, cold.outcome);
            assert_eq!(response.completion, Completion::Complete);
        }
        // A repeat in a later batch is a pure cache hit.
        let again = answer_batch(&config, &caches, &requests[..1]);
        assert_eq!(again[0].cache, CacheStatus::Hit);
        assert_eq!(again[0].outcome, cold.outcome);
    }

    #[test]
    fn mixed_shard_members_get_their_own_first_detection_order() {
        // Two queries over the same network/universe whose test lists
        // differ in order: the shared shard must not leak one member's
        // indices into the other's report.
        let n = 6;
        let network = odd_even_merge_sort(n);
        let forward = sorted_tests(n);
        let mut reversed = forward.clone();
        reversed.reverse();
        let config = ServiceConfig::default();
        let caches = OracleCaches::new(8);
        let make = |tests: Vec<ChannelVec>| Request {
            network: network.clone(),
            query: Query::Coverage {
                universe: StandardUniverse::SingleComparator,
                tests,
                redundancy: RedundancyMode::Skip,
            },
            budget: None,
            deadline: None,
        };
        let requests = vec![make(forward), make(reversed)];
        let batch = answer_batch(&config, &caches, &requests);
        for (response, request) in batch.iter().zip(&requests) {
            assert_eq!(response.outcome, answer_cold(&config, request).outcome);
        }
    }

    #[test]
    fn budgeted_requests_bypass_the_cache_and_degrade_typed() {
        // The scalar engine admits one block per fault scan, so a
        // one-block cap must trip on the 16-fault stuck-line universe
        // (the W = 4 engine would fit all nine tests in a single block
        // and complete).
        let config = ServiceConfig {
            engine: FaultSimEngine::Scalar,
            ..ServiceConfig::default()
        };
        let caches = OracleCaches::new(8);
        let mut request = coverage_request(8, RedundancyMode::Skip);
        request.budget = Some(SweepBudget::unlimited().with_max_blocks(1));
        let batch = answer_batch(&config, &caches, std::slice::from_ref(&request));
        assert_eq!(batch[0].cache, CacheStatus::Bypass);
        assert!(matches!(
            batch[0].completion,
            Completion::Partial {
                reason: BudgetReason::Blocks,
                ..
            }
        ));
        // Identical to the cold path under the same budget.
        assert_eq!(batch[0].outcome, answer_cold(&config, &request).outcome);
        // Nothing was cached.
        let (answers, _) = caches.counters();
        assert_eq!(answers.hits, 0);
    }

    #[test]
    fn verify_and_augment_queries_cache_their_answers() {
        let config = ServiceConfig::default();
        let caches = OracleCaches::new(8);
        let network = odd_even_merge_sort(6);
        let verify_req = Request {
            network: network.clone(),
            query: Query::Verify {
                property: Property::Sorter,
                strategy: Strategy::MinimalBinary,
            },
            budget: None,
            deadline: None,
        };
        // The paper's minimal binary sorter set misses some stuck-line
        // faults, and those misses are detectable by sorted strings —
        // exactly what the service's SortedStrings pool offers, so the
        // augmentation search is feasible and certifies.
        let augment_req = Request {
            network,
            query: Query::Augment {
                universe: StandardUniverse::StuckLine,
                tests: sortnet_testsets::sorting::binary_testset(6)
                    .into_iter()
                    .map(ChannelVec::from_bitstring)
                    .collect(),
            },
            budget: None,
            deadline: None,
        };
        let first = answer_batch(&config, &caches, &[verify_req.clone(), augment_req.clone()]);
        assert!(first.iter().all(|r| r.cache == CacheStatus::Miss));
        let second = answer_batch(&config, &caches, &[verify_req, augment_req]);
        assert!(second.iter().all(|r| r.cache == CacheStatus::Hit));
        assert_eq!(
            first.iter().map(|r| &r.outcome).collect::<Vec<_>>(),
            second.iter().map(|r| &r.outcome).collect::<Vec<_>>()
        );
        match &first[0].outcome {
            Ok(Answer::Verify(report)) => assert!(report.passed),
            other => panic!("expected a verify answer, got {other:?}"),
        }
        match &first[1].outcome {
            Ok(Answer::Augment(summary)) => {
                assert!(summary.certified);
                assert!(!summary.minimum.is_empty());
            }
            other => panic!("expected an augment answer, got {other:?}"),
        }
    }

    #[test]
    fn typed_refusals_flow_through_the_batch_path() {
        // Packed redundancy at n = 96 is refused up front with the
        // pinned SweepTooLarge error, batched exactly as cold.
        let config = ServiceConfig::default();
        let caches = OracleCaches::new(8);
        let n = 96;
        let request = Request {
            network: Network::from_pairs(n, &[(0, 1), (1, 95)]),
            query: Query::Coverage {
                universe: StandardUniverse::StuckLine,
                tests: sorted_tests(n),
                redundancy: RedundancyMode::Exhaustive,
            },
            budget: None,
            deadline: None,
        };
        let batch = answer_batch(&config, &caches, std::slice::from_ref(&request));
        assert_eq!(
            batch[0].outcome,
            Err(ServiceError::Engine(EngineError::SweepTooLarge {
                lines: n
            }))
        );
        assert_eq!(batch[0].outcome, answer_cold(&config, &request).outcome);
    }

    #[test]
    fn a_member_of_the_wrong_length_is_refused_in_any_shard_position() {
        // Only the first admitted member enumerates faults; a later one
        // is admitted by its test lengths alone.  A mismatched member
        // gets the cold path's refusal wherever it sits in the shard, and
        // the valid members are still answered as cold.
        let config = ServiceConfig::default();
        let network = odd_even_merge_sort(6);
        let good = sorted_tests(6);
        let mut bad = sorted_tests(6);
        bad.push(ChannelVec::zeros(5));
        let request = |tests: &Vec<ChannelVec>| Request {
            network: network.clone(),
            query: Query::Coverage {
                universe: StandardUniverse::StuckLine,
                tests: tests.clone(),
                redundancy: RedundancyMode::Exhaustive,
            },
            budget: None,
            deadline: None,
        };
        for order in [[&bad, &good, &good], [&good, &bad, &good]] {
            let requests: Vec<Request> = order.iter().map(|tests| request(tests)).collect();
            let batch = answer_batch(&config, &OracleCaches::new(8), &requests);
            for (response, request) in batch.iter().zip(&requests) {
                assert_eq!(response.outcome, answer_cold(&config, request).outcome);
            }
            let refused = order.iter().position(|tests| *tests == &bad).unwrap();
            assert_eq!(
                batch[refused].outcome,
                Err(ServiceError::Engine(EngineError::InputLengthMismatch {
                    expected: 6,
                    actual: 5
                }))
            );
        }
    }

    #[test]
    fn relative_redundancy_coverage_serves_past_the_64_line_wall() {
        use sortnet_network::lanes::PackedFamily;
        // The headline regime: n = 96, redundancy graded relative to the
        // sorted strings — batched, cached and cold answers all agree and
        // the report names its provenance.
        let config = ServiceConfig::default();
        let caches = OracleCaches::new(8);
        let n = 96;
        let request = Request {
            network: Network::from_pairs(n, &[(0, 95), (31, 64), (0, 1)]),
            query: Query::Coverage {
                universe: StandardUniverse::StuckLine,
                tests: vec![ChannelVec::zeros(n)],
                redundancy: RedundancyMode::RelativeTo(PackedFamily::SortedStrings),
            },
            budget: None,
            deadline: None,
        };
        let cold = answer_cold(&config, &request);
        let Ok(Answer::Coverage(report)) = &cold.outcome else {
            panic!("expected a coverage answer, got {:?}", cold.outcome);
        };
        assert_eq!(report.redundancy, "relative:sorted-strings");
        assert!(report.redundant_faults > 0, "family-invisible faults exist");
        assert!(report.missed > 0, "one test cannot catch everything");
        let batch = answer_batch(&config, &caches, std::slice::from_ref(&request));
        assert_eq!(batch[0].cache, CacheStatus::Miss);
        assert_eq!(batch[0].outcome, cold.outcome);
        let again = answer_batch(&config, &caches, std::slice::from_ref(&request));
        assert_eq!(again[0].cache, CacheStatus::Hit);
        assert_eq!(again[0].outcome, cold.outcome);
    }

    #[test]
    fn a_past_deadline_intersects_into_the_budget_and_degrades_typed() {
        // The engine-side half of the deadline contract: an expired
        // deadline bounds the effective budget, the first block is
        // refused, and the answer is the engine's conservative partial
        // with the Deadline reason — on the cache-bypassing path.
        let config = ServiceConfig::default();
        let caches = OracleCaches::new(8);
        let mut request = coverage_request(8, RedundancyMode::Skip);
        request.deadline = Some(Instant::now() - std::time::Duration::from_millis(5));
        let cold = answer_cold(&config, &request);
        assert!(matches!(
            cold.completion,
            Completion::Partial {
                reason: BudgetReason::Deadline,
                ..
            }
        ));
        assert!(cold.outcome.is_ok(), "a deadline partial is still typed Ok");
        let batch = answer_batch(&config, &caches, std::slice::from_ref(&request));
        assert_eq!(batch[0].cache, CacheStatus::Bypass);
        assert_eq!(batch[0].outcome, cold.outcome);
        assert_eq!(batch[0].completion, cold.completion);
        let (answers, _) = caches.counters();
        assert_eq!(answers.hits + answers.misses, 0, "deadline requests bypass");
    }

    fn coverage_of(tests: Vec<ChannelVec>) -> Query {
        Query::Coverage {
            universe: StandardUniverse::StuckLine,
            tests,
            redundancy: RedundancyMode::Skip,
        }
    }

    fn key_of(query: Query) -> AnswerKey {
        AnswerKey::of(&Request {
            network: odd_even_merge_sort(4),
            query,
            budget: None,
            deadline: None,
        })
    }

    #[test]
    fn answer_keys_separate_near_collisions() {
        let bit = |s: &str| ChannelVec::parse(s);
        let distinct = |a: Query, b: Query| assert_ne!(key_of(a), key_of(b));
        // Two 1-line vectors against one 2-line vector with the same bits.
        distinct(
            coverage_of(vec![bit("0"), bit("1")]),
            coverage_of(vec![bit("01")]),
        );
        // The line count is part of each vector.
        distinct(
            coverage_of(vec![ChannelVec::zeros(63)]),
            coverage_of(vec![ChannelVec::zeros(64)]),
        );
        // A uniform list against a mixed list with the same words: the
        // uniform stream states its line count once, the mixed one per
        // vector, and the tag keeps the two encodings apart.
        distinct(
            coverage_of(vec![ChannelVec::zeros(3), ChannelVec::zeros(3)]),
            coverage_of(vec![ChannelVec::zeros(3), ChannelVec::zeros(5)]),
        );
        distinct(
            coverage_of(vec![bit("01"), bit("01")]),
            coverage_of(vec![bit("01"), bit("010")]),
        );
        distinct(
            coverage_of(vec![ChannelVec::zeros(65), ChannelVec::zeros(65)]),
            coverage_of(vec![ChannelVec::zeros(65), ChannelVec::zeros(128)]),
        );
        distinct(
            coverage_of(vec![ChannelVec::zeros(64); 3]),
            coverage_of(vec![
                ChannelVec::zeros(64),
                ChannelVec::zeros(64),
                ChannelVec::zeros(1),
            ]),
        );
        // Packed words: a trailing zero vector is not padding, and the
        // packing boundary at 32 lines keeps the line count.
        distinct(
            coverage_of(vec![ChannelVec::ones(16)]),
            coverage_of(vec![ChannelVec::ones(16), ChannelVec::zeros(16)]),
        );
        distinct(
            coverage_of(vec![ChannelVec::zeros(32); 2]),
            coverage_of(vec![ChannelVec::zeros(33); 2]),
        );
        distinct(
            coverage_of(vec![bit("0001"), bit("0000")]),
            coverage_of(vec![bit("0000"), bit("0001")]),
        );
        // Order matters: first detections index into the list.
        distinct(
            coverage_of(vec![bit("0011"), bit("0111")]),
            coverage_of(vec![bit("0111"), bit("0011")]),
        );
        // The query kind is part of the key.
        let tests = sorted_tests(6);
        distinct(
            coverage_of(tests.clone()),
            Query::Augment {
                universe: StandardUniverse::StuckLine,
                tests,
            },
        );
        // A long list against the same list with its very last bit flipped.
        let long: Vec<ChannelVec> = (0..1000)
            .map(|i| ChannelVec::from_fn(128, |j| (i * 7 + j).is_multiple_of(5)))
            .collect();
        let mut flipped = long.clone();
        let last = flipped.last_mut().expect("non-empty");
        last.set(127, !last.get(127));
        distinct(coverage_of(long), coverage_of(flipped));
        // The same for a packed list: four 16-line vectors to a word.
        let packed: Vec<ChannelVec> = (0..1000)
            .map(|i| ChannelVec::from_fn(16, |j| (i * 7 + j).is_multiple_of(5)))
            .collect();
        let mut flipped = packed.clone();
        let last = flipped.last_mut().expect("non-empty");
        last.set(15, !last.get(15));
        distinct(coverage_of(packed), coverage_of(flipped));
    }

    #[test]
    fn equal_content_from_different_constructors_keys_equal() {
        for n in [5usize, 64, 65, 128] {
            let by_fn: Vec<ChannelVec> = (0..=n)
                .map(|ones| ChannelVec::from_fn(n, |i| i >= n - ones))
                .collect();
            let by_words: Vec<ChannelVec> = sorted_tests(n)
                .iter()
                .map(|v| {
                    let mut junk = v.words().to_vec();
                    junk.push(u64::MAX);
                    ChannelVec::from_words(&junk, n)
                })
                .collect();
            let by_parse: Vec<ChannelVec> = sorted_tests(n)
                .iter()
                .map(|v| ChannelVec::parse(&v.to_string()))
                .collect();
            let request = |tests| Request {
                network: odd_even_merge_sort(n.next_power_of_two()),
                query: coverage_of(tests),
                budget: None,
                deadline: None,
            };
            let key = AnswerKey::of(&request(sorted_tests(n)));
            for tests in [by_fn, by_words, by_parse] {
                assert_eq!(AnswerKey::of(&request(tests)), key, "n={n}");
            }
        }
        let narrow = sortnet_testsets::sorting::binary_testset(6);
        let widened: Vec<ChannelVec> = narrow
            .iter()
            .map(|&s| ChannelVec::from_bitstring(s))
            .collect();
        let rebuilt: Vec<ChannelVec> = narrow
            .iter()
            .map(|s| ChannelVec::from_fn(6, |i| s.get(i)))
            .collect();
        assert_eq!(key_of(coverage_of(widened)), key_of(coverage_of(rebuilt)));
    }

    #[test]
    fn digest_twins_never_share_an_answer() {
        // Same network, universe and mode, tests in opposite orders: one
        // shard, different first detections, and keys forced onto one
        // digest.  Equality must still tell them apart.
        let config = ServiceConfig::default();
        let caches = OracleCaches::new(8);
        let forward = coverage_request(6, RedundancyMode::Skip);
        let mut reversed = forward.clone();
        if let Query::Coverage { tests, .. } = &mut reversed.query {
            tests.reverse();
        }
        let requests = [forward, reversed];
        let keys = requests.each_ref().map(|r| AnswerKey::with_digest(r, 7));
        assert_ne!(keys[0], keys[1]);
        let cold = requests.each_ref().map(|r| answer_cold(&config, r).outcome);
        assert_ne!(cold[0], cold[1], "the twins have different answers");
        for (pass, status) in [CacheStatus::Miss, CacheStatus::Hit]
            .into_iter()
            .enumerate()
        {
            let batch = answer_keyed(&config, &caches, &requests, &keys);
            for (i, response) in batch.iter().enumerate() {
                assert_eq!(response.cache, status, "pass {pass} twin {i}");
                assert_eq!(response.outcome, cold[i], "pass {pass} twin {i}");
            }
        }
        assert_eq!(unpoisoned(&caches.answers).len(), 2, "both twins live");
        for i in 0..2 {
            let alone = answer_keyed(&config, &caches, &requests[i..=i], &keys[i..=i]);
            assert_eq!(alone[0].cache, CacheStatus::Hit);
            assert_eq!(alone[0].outcome, cold[i], "twin {i} looked up alone");
        }
    }

    #[test]
    fn the_pool_answers_a_mixed_wave_as_answer_batch_does() {
        let config = ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        };
        let network = odd_even_merge_sort(6);
        let verify = Request {
            network: network.clone(),
            query: Query::Verify {
                property: Property::Sorter,
                strategy: Strategy::MinimalBinary,
            },
            budget: None,
            deadline: None,
        };
        let augment = Request {
            network: network.clone(),
            query: Query::Augment {
                universe: StandardUniverse::StuckLine,
                tests: sortnet_testsets::sorting::binary_testset(6)
                    .into_iter()
                    .map(ChannelVec::from_bitstring)
                    .collect(),
            },
            budget: None,
            deadline: None,
        };
        let mut budgeted = coverage_request(8, RedundancyMode::Skip);
        budgeted.budget = Some(SweepBudget::unlimited().with_max_blocks(1));
        let wave = vec![
            coverage_request(8, RedundancyMode::Exhaustive),
            verify.clone(),
            coverage_request(6, RedundancyMode::Skip),
            coverage_request(8, RedundancyMode::Exhaustive),
            augment,
            budgeted,
            verify,
            coverage_request(6, RedundancyMode::Exhaustive),
        ];
        assert!(wave.len() <= config.max_batch, "one gulp holds the wave");
        let caches = OracleCaches::new(config.answer_cache);
        let service = crate::Service::start(config.clone());
        // The second pass serves the repeats from the cache.
        for pass in 0..2 {
            let direct = answer_batch(&config, &caches, &wave);
            let pooled = service.submit_batch(wave.clone());
            for (i, (d, p)) in direct.iter().zip(&pooled).enumerate() {
                assert_eq!(p.outcome, d.outcome, "pass {pass} request {i}");
                assert_eq!(p.completion, d.completion, "pass {pass} request {i}");
                assert_eq!(p.cache, d.cache, "pass {pass} request {i}");
            }
            if pass == 1 {
                let hits = pooled
                    .iter()
                    .filter(|r| r.cache == CacheStatus::Hit)
                    .count();
                assert_eq!(hits, wave.len() - 1, "all but the budgeted request hit");
            }
        }
    }

    #[test]
    fn a_deadline_intersects_with_an_existing_budget_deadline() {
        let config = ServiceConfig::default();
        let far = Instant::now() + std::time::Duration::from_secs(3600);
        let near = Instant::now() + std::time::Duration::from_secs(60);
        let mut request = coverage_request(8, RedundancyMode::Skip);
        request.budget = Some(SweepBudget::unlimited().with_deadline(far));
        request.deadline = Some(near);
        let budget = effective_budget(&config, &request);
        assert_eq!(budget.deadline, Some(near), "the sooner deadline wins");
        // And the other way round.
        request.budget = Some(SweepBudget::unlimited().with_deadline(near));
        request.deadline = Some(far);
        let budget = effective_budget(&config, &request);
        assert_eq!(budget.deadline, Some(near));
    }
}
