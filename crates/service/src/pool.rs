//! The work queue and worker pool behind the in-process service front.
//!
//! [`Service::start`] spawns `config.workers` plain `std::thread`
//! workers over one shared FIFO.  A worker wakes, drains up to
//! `config.max_batch` queued jobs in one gulp and hands them, with one
//! [`AnswerKey`] per job, to the keyed core of
//! [`answer_batch`](crate::oracle::answer_batch) — so batching emerges
//! from queue pressure: an idle service answers each request alone,
//! a loaded one shards whole gulps so coverage queries on one network
//! share fault enumeration and redundancy passes.  Replies
//! travel back over per-job rendezvous channels, so [`Service::submit`]
//! is a plain blocking call from any thread.
//!
//! Three robustness layers wrap that core:
//!
//! * **Admission control** — with `queue_capacity > 0`, a full queue
//!   sheds instead of blocking: [`ShedPolicy::RejectNew`] answers the
//!   incoming request with a typed [`ServiceError::Overloaded`] (queue
//!   depth + a retry hint from the pool's moving-average service time);
//!   [`ShedPolicy::DropOldest`] evicts the oldest queued job, answers
//!   *it* with `Overloaded`, and admits the newcomer.  Either way every
//!   submitter gets exactly one reply and nobody blocks on a full
//!   queue.
//! * **Deadlines at dequeue** — a request whose
//!   [`Request::deadline`] has already passed when a worker picks it up
//!   is answered with a typed [`ServiceError::DeadlineExpired`] without
//!   touching the engine (the in-flight half of the deadline contract —
//!   intersection into the sweep budget — lives in [`crate::oracle`]).
//! * **Supervision** — every evaluation runs under `catch_unwind`.  A
//!   panicking gulp falls back to per-request isolation; a request that
//!   keeps panicking is quarantined after `config.panic_attempts`
//!   attempts and answered with a typed
//!   [`ServiceError::WorkerPanicked`] (here and on every resubmission)
//!   instead of being retried forever.  If a panic ever escapes the
//!   per-gulp guard (only possible at the `worker-crash` failpoint,
//!   which sits before any job is held), the supervisor respawns the
//!   worker loop and counts a restart.  A panicking request never takes
//!   the service down and never swallows its reply.
//!
//! Shutdown is cooperative: dropping the [`Service`] flags the pool,
//! wakes every worker and joins them; queued jobs are still answered
//! first (drain-then-stop), so no submitter is left hanging.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::cache::CacheCounters;
use crate::error::ServiceError;
use crate::failpoint;
use crate::oracle::{
    answer_keyed, AnswerKey, CacheStatus, Completion, OracleCaches, Request, Response,
};
use crate::ServiceConfig;

/// What the pool sheds when the queue is at capacity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Refuse the incoming request; queued work keeps its place.
    #[default]
    RejectNew,
    /// Evict the oldest queued request (answering it with a typed
    /// [`ServiceError::Overloaded`]) and admit the newcomer — freshest
    /// traffic wins under overload.
    DropOldest,
}

/// Quarantine ledger entries before the crude full clear.  Far above
/// anything a real workload of *panicking* requests produces; the cap
/// only bounds memory if an adversary streams novel poison requests.
const QUARANTINE_CAP: usize = 4096;

/// Seed of the service-time moving average (µs) before any sample.
const EMA_SEED_MICROS: u64 = 100;

struct Job {
    request: Request,
    reply: SyncSender<Response>,
}

struct QueueState {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct Inner {
    config: ServiceConfig,
    queue: Mutex<QueueState>,
    available: Condvar,
    caches: OracleCaches,
    /// Request identity → panicking attempts so far.  The identity is the
    /// job's [`AnswerKey`], which leaves out the budget, so a poison
    /// request cannot dodge its ledger entry by resubmitting with a fresh
    /// budget.
    quarantine: Mutex<HashMap<AnswerKey, u32>>,
    answered: AtomicU64,
    partials: AtomicU64,
    shed_rejected: AtomicU64,
    shed_dropped: AtomicU64,
    expired: AtomicU64,
    panics: AtomicU64,
    quarantined: AtomicU64,
    worker_restarts: AtomicU64,
    /// Moving average of per-response service time in µs (×1, relaxed
    /// races tolerated — it only feeds the retry hint).
    ema_micros: AtomicU64,
}

/// A snapshot of the service's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests answered by the pool — engine answers and the typed
    /// dequeue-time refusals (expired, quarantined) alike.  Shed
    /// requests are counted separately below.
    pub answered: u64,
    /// Answers that degraded to [`Completion::Partial`].
    pub partials: u64,
    /// Incoming requests refused at admission ([`ShedPolicy::RejectNew`]
    /// on a full queue).
    pub shed_rejected: u64,
    /// Queued requests evicted with a reply ([`ShedPolicy::DropOldest`]
    /// on a full queue).
    pub shed_dropped: u64,
    /// Requests whose deadline had passed at dequeue (typed expiry,
    /// engine untouched).
    pub expired: u64,
    /// Evaluation panics caught by supervision (gulp- and solo-level).
    pub panics: u64,
    /// Requests answered with the typed quarantine refusal.
    pub quarantined: u64,
    /// Worker-loop respawns after an escaped panic.
    pub worker_restarts: u64,
    /// Answer-cache counters.
    pub answers: CacheCounters,
    /// Always [`CacheCounters::default`]: the service keeps no
    /// detection-matrix cache.  Kept only for source compatibility.
    pub matrices: CacheCounters,
}

/// The long-running oracle: a queue, a worker pool, the shared caches.
///
/// Cheap to share (`Arc` inside); dropping the last handle shuts the
/// pool down after the queue drains.
pub struct Service {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

/// Locks through poisoning: panics are caught per request by the
/// supervisor, every in-tree panic site sits outside these locks, and
/// the guarded state's invariants hold between operations.
fn unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Service {
    /// Starts the worker pool under panic supervision.
    #[must_use]
    pub fn start(config: ServiceConfig) -> Self {
        let workers = config.workers.max(1);
        let inner = Arc::new(Inner {
            caches: OracleCaches::with_ttls(config.answer_cache, config.answer_ttl, 0, None),
            config,
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
            quarantine: Mutex::new(HashMap::new()),
            answered: AtomicU64::new(0),
            partials: AtomicU64::new(0),
            shed_rejected: AtomicU64::new(0),
            shed_dropped: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            worker_restarts: AtomicU64::new(0),
            ema_micros: AtomicU64::new(EMA_SEED_MICROS),
        });
        let handles = (0..workers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || loop {
                    // worker_loop returns only on drained shutdown; an
                    // Err here is an escaped panic — respawn the loop.
                    // (In-tree the only escape site is the worker-crash
                    // failpoint, which fires before any job is held, so
                    // a respawn never loses a reply.)
                    if catch_unwind(AssertUnwindSafe(|| worker_loop(&inner))).is_ok() {
                        return;
                    }
                    inner.worker_restarts.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        Self {
            inner,
            workers: handles,
        }
    }

    /// Answers one request, blocking until a worker replies (or
    /// admission control refuses it immediately).
    #[must_use]
    pub fn submit(&self, request: Request) -> Response {
        self.submit_batch(vec![request]).pop().expect("one reply")
    }

    /// Enqueues `requests` together (one notification wave, so a single
    /// worker can gulp them into one shard-friendly batch) and blocks
    /// until every reply arrives.  Replies come back in request order;
    /// every request gets exactly one — an answer, or a typed
    /// [`ServiceError::Overloaded`] when admission control sheds it.
    #[must_use]
    pub fn submit_batch(&self, requests: Vec<Request>) -> Vec<Response> {
        enum Pending {
            Ready(Response),
            Wait(Receiver<Response>),
        }
        let capacity = self.inner.config.queue_capacity;
        let mut pending = Vec::with_capacity(requests.len());
        {
            let mut state = unpoisoned(&self.inner.queue);
            for request in requests {
                if capacity > 0 && state.jobs.len() >= capacity {
                    match self.inner.config.shed_policy {
                        ShedPolicy::RejectNew => {
                            self.inner.shed_rejected.fetch_add(1, Ordering::Relaxed);
                            let depth = state.jobs.len();
                            pending.push(Pending::Ready(overloaded(&self.inner, depth)));
                            continue;
                        }
                        ShedPolicy::DropOldest => {
                            while state.jobs.len() >= capacity {
                                let Some(victim) = state.jobs.pop_front() else {
                                    break;
                                };
                                self.inner.shed_dropped.fetch_add(1, Ordering::Relaxed);
                                let depth = state.jobs.len();
                                let _ = victim.reply.send(overloaded(&self.inner, depth));
                            }
                        }
                    }
                }
                let (reply, receiver) = sync_channel(1);
                state.jobs.push_back(Job { request, reply });
                pending.push(Pending::Wait(receiver));
            }
        }
        self.inner.available.notify_all();
        pending
            .into_iter()
            .map(|p| match p {
                Pending::Ready(response) => response,
                Pending::Wait(receiver) => receiver
                    .recv()
                    .expect("worker pool answers before shutdown"),
            })
            .collect()
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        let (answers, matrices) = self.inner.caches.counters();
        ServiceStats {
            answered: self.inner.answered.load(Ordering::Relaxed),
            partials: self.inner.partials.load(Ordering::Relaxed),
            shed_rejected: self.inner.shed_rejected.load(Ordering::Relaxed),
            shed_dropped: self.inner.shed_dropped.load(Ordering::Relaxed),
            expired: self.inner.expired.load(Ordering::Relaxed),
            panics: self.inner.panics.load(Ordering::Relaxed),
            quarantined: self.inner.quarantined.load(Ordering::Relaxed),
            worker_restarts: self.inner.worker_restarts.load(Ordering::Relaxed),
            answers,
            matrices,
        }
    }

    /// The configuration the pool runs with.
    #[must_use]
    pub fn config(&self) -> &ServiceConfig {
        &self.inner.config
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        unpoisoned(&self.inner.queue).shutdown = true;
        self.inner.available.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The typed overload refusal for the current depth, with a retry hint
/// of roughly "my place in line × average service time ÷ workers".
fn overloaded(inner: &Inner, queue_depth: usize) -> Response {
    let ema = inner.ema_micros.load(Ordering::Relaxed).max(1);
    let workers = inner.config.workers.max(1) as u64;
    let hint = Duration::from_micros((queue_depth as u64 + 1).saturating_mul(ema) / workers);
    Response {
        outcome: Err(ServiceError::Overloaded {
            queue_depth,
            retry_after_hint: hint,
        }),
        completion: Completion::Complete,
        cache: CacheStatus::Bypass,
        micros: 0,
    }
}

fn quarantined_response(attempts: u32) -> Response {
    Response {
        outcome: Err(ServiceError::WorkerPanicked { attempts }),
        completion: Completion::Complete,
        cache: CacheStatus::Bypass,
        micros: 0,
    }
}

fn reply_and_count(inner: &Inner, reply: &SyncSender<Response>, response: Response) {
    inner.answered.fetch_add(1, Ordering::Relaxed);
    if !matches!(response.completion, Completion::Complete) {
        inner.partials.fetch_add(1, Ordering::Relaxed);
    }
    // A submitter that gave up (disconnected receiver) is not an error
    // for the pool.
    let _ = reply.send(response);
}

/// Folds one response's service time into the moving average feeding
/// the overload retry hint (EMA, α = 1/8).
fn observe_latency(inner: &Inner, response: &Response) {
    let prev = inner.ema_micros.load(Ordering::Relaxed);
    let next = (prev.saturating_mul(7).saturating_add(response.micros)) / 8;
    inner.ema_micros.store(next.max(1), Ordering::Relaxed);
}

fn worker_loop(inner: &Inner) {
    loop {
        // Chaos site: an escaped panic *before* any job is dequeued —
        // exercises supervised respawn without risking a lost reply.
        failpoint::maybe_panic("worker-crash");
        let jobs: Vec<Job> = {
            let mut state = unpoisoned(&inner.queue);
            loop {
                if !state.jobs.is_empty() {
                    break;
                }
                if state.shutdown {
                    return;
                }
                state = inner
                    .available
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            let take = state.jobs.len().min(inner.config.max_batch.max(1));
            state.jobs.drain(..take).collect()
        };
        // Chaos site: a worker stalling with jobs in hand, so admission
        // control and deadlines see real queue pressure.
        failpoint::maybe_sleep("queue-stall");
        process_gulp(inner, jobs);
    }
}

/// Panicking attempts recorded so far for `key`.
fn ledger_attempts(inner: &Inner, key: &AnswerKey) -> u32 {
    unpoisoned(&inner.quarantine).get(key).copied().unwrap_or(0)
}

/// Triages one gulp (deadlines, quarantine), evaluates the survivors as
/// a batch under `catch_unwind`, and falls back to per-request
/// supervision when the batch panics.  Each job's key is computed once
/// and serves the ledger, the cache and the fallback; its request moves
/// into the batch slice, with its reply channel at the same index.
/// Every job gets exactly one reply on every path.
fn process_gulp(inner: &Inner, jobs: Vec<Job>) {
    let now = Instant::now();
    let mut requests: Vec<Request> = Vec::with_capacity(jobs.len());
    let mut keys: Vec<AnswerKey> = Vec::with_capacity(jobs.len());
    let mut replies: Vec<SyncSender<Response>> = Vec::with_capacity(jobs.len());
    for Job { request, reply } in jobs {
        if let Some(deadline) = request.deadline {
            if deadline <= now {
                inner.expired.fetch_add(1, Ordering::Relaxed);
                let response = Response {
                    outcome: Err(ServiceError::DeadlineExpired {
                        late_by: now.duration_since(deadline),
                    }),
                    completion: Completion::Complete,
                    cache: CacheStatus::Bypass,
                    micros: 0,
                };
                reply_and_count(inner, &reply, response);
                continue;
            }
        }
        // Hash before taking the ledger lock: the key covers the whole
        // test list, and the other worker's triage waits on that lock.
        let key = AnswerKey::of(&request);
        let attempts = ledger_attempts(inner, &key);
        if attempts >= inner.config.panic_attempts {
            inner.quarantined.fetch_add(1, Ordering::Relaxed);
            reply_and_count(inner, &reply, quarantined_response(attempts));
            continue;
        }
        requests.push(request);
        keys.push(key);
        replies.push(reply);
    }
    if requests.is_empty() {
        return;
    }
    match catch_unwind(AssertUnwindSafe(|| {
        answer_keyed(&inner.config, &inner.caches, &requests, &keys)
    })) {
        Ok(responses) => {
            for (reply, response) in replies.iter().zip(responses) {
                observe_latency(inner, &response);
                reply_and_count(inner, reply, response);
            }
        }
        Err(_) => {
            // The batch died and the culprit is unknown: isolate each
            // member and let the quarantine ledger find it.
            inner.panics.fetch_add(1, Ordering::Relaxed);
            for ((request, key), reply) in requests.iter().zip(keys).zip(&replies) {
                answer_solo_supervised(inner, request, key, reply);
            }
        }
    }
}

/// Evaluates one request alone under `catch_unwind`, retrying up to the
/// quarantine limit.  A success forgives the ledger entry (transient
/// flakes recover); hitting the limit answers the typed quarantine
/// refusal — this request *and* every future resubmission of the same
/// request identity.
fn answer_solo_supervised(
    inner: &Inner,
    request: &Request,
    key: AnswerKey,
    reply: &SyncSender<Response>,
) {
    let single = std::slice::from_ref(request);
    loop {
        let attempts = ledger_attempts(inner, &key);
        if attempts >= inner.config.panic_attempts {
            inner.quarantined.fetch_add(1, Ordering::Relaxed);
            reply_and_count(inner, reply, quarantined_response(attempts));
            return;
        }
        match catch_unwind(AssertUnwindSafe(|| {
            answer_keyed(
                &inner.config,
                &inner.caches,
                single,
                std::slice::from_ref(&key),
            )
        })) {
            Ok(mut responses) => {
                unpoisoned(&inner.quarantine).remove(&key);
                let response = responses.pop().expect("one request yields one response");
                observe_latency(inner, &response);
                reply_and_count(inner, reply, response);
                return;
            }
            Err(_) => {
                inner.panics.fetch_add(1, Ordering::Relaxed);
                let mut ledger = unpoisoned(&inner.quarantine);
                if ledger.len() >= QUARANTINE_CAP && !ledger.contains_key(&key) {
                    // Crude but bounded: forget everything rather than
                    // grow without limit.  Quarantined requests start
                    // re-earning their entry; correctness is unaffected.
                    ledger.clear();
                }
                *ledger.entry(key.clone()).or_insert(0) += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::Query;
    use sortnet_combinat::ChannelVec;
    use sortnet_faults::universe::StandardUniverse;
    use sortnet_network::builders::batcher::odd_even_merge_sort;

    fn sorted_tests(n: usize) -> Vec<ChannelVec> {
        (0..=n)
            .map(|ones| ChannelVec::sorted_of(n - ones, ones))
            .collect()
    }

    fn coverage_request(n: usize) -> Request {
        Request {
            network: odd_even_merge_sort(n),
            query: Query::Coverage {
                universe: StandardUniverse::StuckLine,
                tests: sorted_tests(n),
                redundancy: sortnet_faults::coverage::RedundancyMode::Skip,
            },
            budget: None,
            deadline: None,
        }
    }

    #[test]
    fn reject_new_sheds_the_incoming_requests_deterministically() {
        // submit_batch holds the queue lock across the whole enqueue
        // loop, so no worker can drain mid-batch: with capacity 1 the
        // first request is admitted and the rest are refused, always.
        let service = Service::start(ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            shed_policy: ShedPolicy::RejectNew,
            ..ServiceConfig::default()
        });
        let responses = service.submit_batch(vec![
            coverage_request(6),
            coverage_request(8),
            coverage_request(4),
        ]);
        assert_eq!(responses.len(), 3, "every request gets exactly one reply");
        assert!(responses[0].outcome.is_ok(), "the admitted request answers");
        for shed in &responses[1..] {
            match &shed.outcome {
                Err(ServiceError::Overloaded {
                    queue_depth,
                    retry_after_hint,
                }) => {
                    assert_eq!(*queue_depth, 1);
                    assert!(*retry_after_hint > Duration::ZERO);
                }
                other => panic!("expected Overloaded, got {other:?}"),
            }
        }
        let stats = service.stats();
        assert_eq!(stats.shed_rejected, 2);
        assert_eq!(stats.shed_dropped, 0);
    }

    #[test]
    fn drop_oldest_evicts_with_a_reply_and_admits_the_newcomer() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            shed_policy: ShedPolicy::DropOldest,
            ..ServiceConfig::default()
        });
        let responses = service.submit_batch(vec![
            coverage_request(6),
            coverage_request(8),
            coverage_request(4),
        ]);
        assert_eq!(responses.len(), 3);
        // The first two were each evicted by their successor.
        for dropped in &responses[..2] {
            assert!(
                matches!(dropped.outcome, Err(ServiceError::Overloaded { .. })),
                "evicted requests still get their typed reply"
            );
        }
        assert!(responses[2].outcome.is_ok(), "the newest request answers");
        let stats = service.stats();
        assert_eq!(stats.shed_dropped, 2);
        assert_eq!(stats.shed_rejected, 0);
    }

    #[test]
    fn zero_capacity_means_unbounded_like_before() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            queue_capacity: 0,
            ..ServiceConfig::default()
        });
        let responses = service.submit_batch((0..8).map(|_| coverage_request(6)).collect());
        assert!(responses.iter().all(|r| r.outcome.is_ok()));
        assert_eq!(service.stats().shed_rejected, 0);
    }

    #[test]
    fn an_expired_deadline_is_answered_typed_without_the_engine() {
        let service = Service::start(ServiceConfig::default());
        let mut request = coverage_request(8);
        request.deadline = Some(Instant::now() - Duration::from_millis(10));
        let response = service.submit(request);
        match &response.outcome {
            Err(ServiceError::DeadlineExpired { late_by }) => {
                assert!(*late_by >= Duration::from_millis(10));
            }
            other => panic!("expected DeadlineExpired, got {other:?}"),
        }
        assert_eq!(response.micros, 0, "the engine was never touched");
        let stats = service.stats();
        assert_eq!(stats.expired, 1);
        assert_eq!(
            stats.answers.hits + stats.answers.misses,
            0,
            "no cache traffic for a dequeue-time expiry"
        );
        // The service is unharmed: a fresh request still answers.
        assert!(service.submit(coverage_request(8)).outcome.is_ok());
    }

    #[test]
    fn a_future_deadline_leaves_the_fast_path_answer_intact() {
        let service = Service::start(ServiceConfig::default());
        let cold = crate::oracle::answer_cold(service.config(), &coverage_request(8));
        let mut request = coverage_request(8);
        request.deadline = Some(Instant::now() + Duration::from_secs(3600));
        let response = service.submit(request);
        assert_eq!(response.outcome, cold.outcome);
        assert_eq!(response.completion, Completion::Complete);
        assert_eq!(
            response.cache,
            CacheStatus::Bypass,
            "deadline requests ride the solo cache-bypassing path"
        );
    }

    #[test]
    fn overload_hint_scales_with_queue_depth() {
        let inner = Inner {
            config: ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            },
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
            caches: OracleCaches::new(0),
            quarantine: Mutex::new(HashMap::new()),
            answered: AtomicU64::new(0),
            partials: AtomicU64::new(0),
            shed_rejected: AtomicU64::new(0),
            shed_dropped: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            worker_restarts: AtomicU64::new(0),
            ema_micros: AtomicU64::new(200),
        };
        let shallow = overloaded(&inner, 2);
        let deep = overloaded(&inner, 100);
        let hint = |r: &Response| match r.outcome {
            Err(ServiceError::Overloaded {
                retry_after_hint, ..
            }) => retry_after_hint,
            _ => unreachable!(),
        };
        assert!(hint(&deep) > hint(&shallow));
        assert_eq!(hint(&shallow), Duration::from_micros(3 * 200 / 2));
    }

    #[test]
    fn a_quarantined_request_does_not_refuse_its_digest_twin() {
        let service = Service::start(ServiceConfig::default());
        let inner = &service.inner;
        let poison = coverage_request(6);
        let twin = coverage_request(8);
        let key = |request: &Request| AnswerKey::with_digest(request, 7);
        unpoisoned(&inner.quarantine).insert(key(&poison), inner.config.panic_attempts);
        let (reply, answers) = sync_channel(1);
        answer_solo_supervised(inner, &poison, key(&poison), &reply);
        assert!(matches!(
            answers.recv().expect("a reply").outcome,
            Err(ServiceError::WorkerPanicked { .. })
        ));
        answer_solo_supervised(inner, &twin, key(&twin), &reply);
        let response = answers.recv().expect("a reply");
        assert_eq!(
            response.outcome,
            crate::oracle::answer_cold(&inner.config, &twin).outcome
        );
        assert_eq!(service.stats().quarantined, 1, "only the poison is refused");
    }

    #[test]
    fn quarantine_key_ignores_the_budget_axis() {
        let mut a = coverage_request(6);
        let b = a.clone();
        a.budget = Some(sortnet_network::budget::SweepBudget::unlimited().with_max_blocks(1));
        assert_eq!(AnswerKey::of(&a), AnswerKey::of(&b));
        let c = coverage_request(8);
        assert_ne!(AnswerKey::of(&a), AnswerKey::of(&c));
    }
}
