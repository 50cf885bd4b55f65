//! Workload runs: set-up, reference, timed closed loop, correctness gate,
//! and the metrics of one run.
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics.  A traced
//! run (`--trace 1`) measures half its time untraced and half traced, and
//! reports the per-layer metrics of the traced half, with the tracing
//! overhead as the throughput lost between the halves.

use std::collections::BTreeMap;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sortnet_faults::coverage::RedundancyMode;
use sortnet_service::cache::CacheCounters;
use sortnet_service::oracle::{Answer, CacheStatus, OracleCaches, Query, Request, Response};
use sortnet_service::wire::{self, WireClient, WireServer};
use sortnet_service::{Service, ServiceConfig};

use crate::check::{self, digest_all, digest_report, digest_response, digest_wire, request_key};
use crate::engine::{self, Grade};
use crate::stats::{self, median, percentile};
use crate::trace::Tracer;
use crate::workloads::{self, Workload};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 9;

/// Worker threads of the served workloads.
pub const WORKERS: usize = 2;

/// Wire clients of serve-wire.
pub const WIRE_CLIENTS: usize = 2;

/// One run's settings.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// The input seed.
    pub seed: u64,
    /// Length of the measured window, in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Directory for the socket and the span file.
    pub out_dir: PathBuf,
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name, as `BENCHMARK.json` lists it.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// A human-readable remark (sample counts and the like).
    pub note: String,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        note: String::new(),
    }
}

/// What one run measured.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Operations attempted in the measured window(s).
    pub attempted: u64,
    /// Operations whose answer differed from the reference, was refused,
    /// failed in transport, or whose replay disagreed with the whole call.
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Remarks for the log.
    pub notes: Vec<String>,
}

/// One operation as the closed loop saw it.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Index into the workload's operation sequence.
    pub op: usize,
    /// Caller-observed latency in nanoseconds.
    pub ns: u64,
    /// Digest of the answer.
    pub digest: u64,
    /// `false` when the operation failed outright (transport error, or a
    /// replay that disagrees with the whole call).
    pub ok: bool,
}

/// What the window keeps of one operation: 8 bytes, so the benchmark's
/// own bookkeeping barely moves the memory high-water mark.
#[derive(Clone, Copy, Debug)]
struct Record {
    /// Latency in nanoseconds (saturating).
    ns: u32,
    /// Completion time in microseconds since the window opened.
    at_us: u32,
}

/// Records reserved per client: pages are only touched as records are
/// written.
const RECORDS_RESERVED: usize = 1 << 21;

struct Window {
    records: Vec<Record>,
    failed: u64,
    seconds: f64,
}

/// Runs `step` in a closed loop on one thread per client state until
/// `seconds` have passed; client `c` takes operations `c, c + clients,
/// …` of the sequence, cycling.  Each answer's digest is checked against
/// the reference digest of its operation, computed before timing.
fn closed_loop<C: Send>(
    states: &mut [C],
    refs: &[u64],
    seconds: f64,
    step: &(dyn Fn(&mut C, usize) -> Sample + Sync),
) -> Window {
    let clients = states.len();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let per_client: Vec<(Vec<Record>, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .iter_mut()
            .enumerate()
            .map(|(c, state)| {
                scope.spawn(move || {
                    // Reserved up front: growing by reallocation would
                    // copy the records and lift the memory high-water
                    // mark by an amount that depends on throughput.
                    let mut records = Vec::with_capacity(RECORDS_RESERVED);
                    let mut failed = 0u64;
                    let mut k = 0usize;
                    while Instant::now() < deadline {
                        let sample = step(state, (c + k * clients) % refs.len());
                        records.push(Record {
                            ns: u32::try_from(sample.ns).unwrap_or(u32::MAX),
                            at_us: start.elapsed().as_micros() as u32,
                        });
                        failed += u64::from(!sample.ok || sample.digest != refs[sample.op]);
                        k += 1;
                    }
                    (records, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let seconds = start.elapsed().as_secs_f64();
    let failed = per_client.iter().map(|(_, f)| f).sum();
    let mut records: Vec<Record> = per_client.into_iter().flat_map(|(r, _)| r).collect();
    records.sort_by_key(|r| r.at_us);
    Window {
        records,
        failed,
        seconds,
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_nanos() as u64)
}

/// Builds the serving stack [`SETUP_REPEATS`] times and keeps the last
/// one; returns it with the median set-up time in seconds.
fn repeated_setup<S>(mut setup: impl FnMut() -> S) -> (S, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        drop(kept.take());
        let (stack, ns) = timed(&mut setup);
        times.push(ns as f64 / 1e9);
        kept = Some(stack);
    }
    (kept.expect("at least one set-up"), median(&times))
}

/// Consecutive slices per measured window (at least; see [`end_to_end`]).
pub const SLICES: usize = 30;

/// Share of the slices, the fastest, that the end-to-end figures pool.
pub const FAST_SHARE: f64 = 1.0 / 3.0;

/// The end-to-end metrics of an untraced window.
///
/// The window's completions are cut into about [`SLICES`] consecutive
/// slices of equal length, a multiple of `period` (the length of one
/// balanced turn of the workload's operation mix), so every slice does
/// the same work.  Load from other tenants of the machine only ever slows
/// a slice down, so the figures pool the fastest [`FAST_SHARE`] of the
/// slices, those that took the least time: throughput is their operations
/// over their time, and each latency percentile is taken over all their
/// samples.  A phase of outside load moves which slices are pooled, not
/// the reported value, while a change to the code moves every slice.
fn end_to_end(window: &Window, setup_s: f64, peak_rss_mib: f64, period: usize) -> Vec<Metric> {
    let n = window.records.len();
    // A window shorter than one turn is a single slice.
    let slice_ops = ((n / SLICES / period).max(1) * period).min(n).max(1);
    let mut slices: Vec<(u32, &[Record])> = Vec::new();
    let mut since = 0u32;
    for slice in window.records.chunks_exact(slice_ops) {
        let end = slice[slice_ops - 1].at_us;
        slices.push(((end - since).max(1), slice));
        since = end;
    }
    slices.sort_by_key(|&(us, _)| us);
    let pooled = ((slices.len() as f64 * FAST_SHARE).ceil() as usize).min(slices.len());
    let fast = &slices[..pooled];
    let fast_us: f64 = fast.iter().map(|&(us, _)| f64::from(us)).sum();
    let mut us: Vec<f64> = fast
        .iter()
        .flat_map(|(_, slice)| slice.iter().map(|r| f64::from(r.ns) / 1e3))
        .collect();
    us.sort_by(f64::total_cmp);
    let samples = us.len();
    let (p50, _) = percentile(&us, 50.0);
    let (p99, beyond) = percentile(&us, 99.0);
    let mut m = vec![
        metric("setup_s", setup_s, "s"),
        metric("qps", samples as f64 / (fast_us / 1e6).max(1e-6), "ops/s"),
        metric("latency_p50_us", p50, "us"),
        metric("latency_p99_us", p99, "us"),
        metric("peak_rss_mib", peak_rss_mib, "MiB"),
    ];
    let pool = format!(
        "fastest {pooled} of {} slices of {slice_ops} ops",
        slices.len()
    );
    m[0].note = format!("median of {SETUP_REPEATS} set-ups");
    m[1].note = format!(
        "{pool}: {samples} ops in {:.3} s; {n} ops in {:.3} s overall",
        fast_us / 1e6,
        window.seconds
    );
    m[2].note = format!("{pool}: n={samples} samples of {n}");
    m[3].note = format!("{pool}: n={samples} samples of {n}, {beyond} beyond p99");
    m
}

/// Per-layer span names reported as `<name>_us`, per operation.
const TIMED_LAYERS: [&str; 21] = [
    "lanes.fill",
    "lanes.sweep",
    "faults.enumerate",
    "faults.first_detect",
    "faults.redundancy",
    "faults.summarise",
    "faults.coverage",
    "testsets.verify",
    "testsets.augment",
    "testsets.candidate_matrix",
    "testsets.set_cover",
    "service.round_trip",
    "service.queue_wait",
    "service.answer_batch",
    "service.cache_key",
    "wire.call",
    "wire.encode_request",
    "wire.decode_request",
    "wire.encode_response",
    "wire.decode_response",
    "wire.transport",
];

/// Exact counters reported per operation.
const COUNTED: [&str; 17] = [
    "lanes.vectors",
    "lanes.blocks",
    "faults.faults",
    "faults.fault_vector_pairs",
    "faults.redundancy_faults",
    "faults.redundant",
    "testsets.verify_vectors",
    "testsets.set_cover_nodes",
    "service.shards",
    "service.hits",
    "service.misses",
    "service.bypasses",
    "service.evictions",
    "service.matrix_hits",
    "wire.request_bytes",
    "wire.response_bytes",
    "wire.retries",
];

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer metrics of a traced window.
fn per_layer(t: &Tracer, ops: usize, untraced_qps: f64, traced_qps: f64) -> Vec<Metric> {
    let totals = t.totals_ns();
    let ns = |name: &str| *totals.get(name).unwrap_or(&0) as f64;
    let count = |name: &str| *t.counters().get(name).unwrap_or(&0) as f64;
    let per_op = ops.max(1) as f64;
    let mut m = Vec::new();
    for name in TIMED_LAYERS {
        let mut value = ns(name);
        if name == "lanes.fill" {
            value += ns("lanes.family_collect");
        }
        m.push(metric(format!("{name}_us"), value / 1e3 / per_op, "us"));
    }
    let steps = ns("faults.enumerate")
        + ns("lanes.family_collect")
        + ns("faults.first_detect")
        + ns("faults.redundancy")
        + ns("faults.summarise");
    // Signed: the whole call can be faster than its steps run one by one.
    m.push(metric(
        "faults.unaccounted_us",
        (ns("faults.coverage") - steps) / 1e3 / per_op,
        "us",
    ));
    for name in COUNTED {
        m.push(metric(name, count(name) / per_op, "count"));
    }
    let (hits, misses) = (count("service.hits"), count("service.misses"));
    m.push(metric(
        "service.hit_ratio",
        ratio(hits, hits + misses),
        "share",
    ));
    m.push(metric(
        "service.union_share",
        ratio(count("service.union_tests"), count("service.member_tests")),
        "share",
    ));
    for strategy in ["minimal_binary", "exhaustive"] {
        m.push(metric(
            format!("testsets.verify_{strategy}_fill_share"),
            ratio(
                ns(&format!("verify.{strategy}.fill")),
                ns(&format!("verify.{strategy}.verify")),
            ),
            "share",
        ));
    }
    let (op_ns, uncovered_ns) = t.op_coverage_ns();
    m.push(metric(
        "trace.unaccounted_share",
        ratio(uncovered_ns as f64, op_ns as f64),
        "share",
    ));
    m.push(metric(
        "trace.overhead_share",
        1.0 - ratio(traced_qps, untraced_qps),
        "share",
    ));
    m
}

fn write_trace(out_dir: &Path, cfg: &RunConfig, t: &Tracer) -> std::io::Result<PathBuf> {
    let path = out_dir.join(format!("trace-{}-{}.jsonl", cfg.workload.name(), cfg.seed));
    let mut file = BufWriter::new(std::fs::File::create(&path)?);
    t.write_jsonl(&mut file)?;
    Ok(path)
}

/// The shared tail of every workload: measure untraced, or half untraced
/// and half traced, then gate on the references.
#[allow(clippy::too_many_arguments)]
fn measure<C: Send>(
    cfg: &RunConfig,
    setup_s: f64,
    period: usize,
    states: &mut [C],
    refs: &[u64],
    untraced: &(dyn Fn(&mut C, usize) -> Sample + Sync),
    traced: &(dyn Fn(&mut C, usize) -> Sample + Sync),
    tracer_of: &dyn Fn(&mut C) -> Tracer,
    finish_trace: &dyn Fn(&mut Tracer),
) -> Outcome {
    let mut notes = Vec::new();
    if !cfg.trace {
        let window = closed_loop(states, refs, cfg.seconds, untraced);
        let peak_rss_mib = stats::peak_rss_mib();
        return Outcome {
            attempted: window.records.len() as u64,
            failed: window.failed,
            metrics: end_to_end(&window, setup_s, peak_rss_mib, period),
            notes,
        };
    }
    let plain = closed_loop(states, refs, cfg.seconds / 2.0, untraced);
    // Start the traced half from clean tracers and counter baselines.
    let mut discarded = Tracer::new(Instant::now());
    for state in states.iter_mut() {
        discarded.absorb(tracer_of(state));
    }
    finish_trace(&mut discarded);
    let traced_window = closed_loop(states, refs, cfg.seconds / 2.0, traced);
    let mut tracer = Tracer::new(Instant::now());
    for state in states.iter_mut() {
        tracer.absorb(tracer_of(state));
    }
    finish_trace(&mut tracer);
    let untraced_qps = plain.records.len() as f64 / plain.seconds;
    let traced_qps = traced_window.records.len() as f64 / traced_window.seconds;
    match write_trace(&cfg.out_dir, cfg, &tracer) {
        Ok(path) => notes.push(format!("spans written to {}", path.display())),
        Err(e) => notes.push(format!("span file not written: {e}")),
    }
    Outcome {
        attempted: (plain.records.len() + traced_window.records.len()) as u64,
        failed: plain.failed + traced_window.failed,
        metrics: per_layer(
            &tracer,
            traced_window.records.len(),
            untraced_qps,
            traced_qps,
        ),
        notes,
    }
}

/// Runs one workload.
///
/// # Panics
/// Panics when the serving stack cannot be built (socket bind or
/// connect failure).
#[must_use]
pub fn run(cfg: &RunConfig) -> Outcome {
    match cfg.workload {
        Workload::GradeWide => grade_wide(cfg),
        Workload::BatchCampaign => batch_campaign(cfg),
        Workload::ServeWire => serve_wire(cfg),
    }
}

// ---- grade-wide ----------------------------------------------------------

fn grade_key(g: &Grade) -> (usize, usize, RedundancyMode) {
    (
        Arc::as_ptr(&g.network) as usize,
        Arc::as_ptr(&g.tests) as usize,
        g.mode,
    )
}

/// One traced grade: the step replay and the whole call, which must agree.
pub fn traced_grade(t: &mut Tracer, id: usize, g: &Grade) -> Sample {
    let (replayed, whole) = t.op("op.grade", id as u64, |t| engine::replay_grade(t, g));
    let ok = replayed == whole;
    if !ok {
        t.count("replay.mismatches", 1);
    }
    Sample {
        op: id,
        ns: t.last_ns("op.grade"),
        digest: digest_report(&whole),
        ok,
    }
}

fn grade_wide(cfg: &RunConfig) -> Outcome {
    let ops = workloads::grade_ops(cfg.seed);
    let warmup = workloads::grade_warmup();
    let ((), setup_s) = repeated_setup(|| {
        for g in &warmup {
            std::hint::black_box(engine::grade(g)).ok();
        }
    });
    let refs = check::memoised(&ops, grade_key, |g| {
        digest_report(&engine::reference_grade(g))
    });
    let untraced = |_: &mut Tracer, i: usize| {
        let (report, ns) = timed(|| engine::grade(&ops[i]));
        Sample {
            op: i,
            ns,
            digest: digest_report(&report),
            ok: true,
        }
    };
    let traced = |t: &mut Tracer, i: usize| traced_grade(t, i, &ops[i]);
    let mut states = vec![Tracer::new(Instant::now())];
    measure(
        cfg,
        setup_s,
        workloads::GRADE_TURN,
        &mut states,
        &refs,
        &untraced,
        &traced,
        &|t| std::mem::replace(t, Tracer::new(Instant::now())),
        &|_| {},
    )
}

// ---- batch-campaign ------------------------------------------------------

/// Shards and union sizes of a replayed wave: the coverage requests the
/// oracle computed (cache misses), grouped as the oracle groups them.
fn shard_counts(t: &mut Tracer, wave: &[Request], replies: &[Response]) {
    let mut shards: BTreeMap<(u64, usize, String), Vec<usize>> = BTreeMap::new();
    for (i, (request, reply)) in wave.iter().zip(replies).enumerate() {
        if let (
            Query::Coverage {
                universe,
                redundancy,
                ..
            },
            CacheStatus::Miss,
        ) = (&request.query, reply.cache)
        {
            let key = request_key(request).0;
            shards
                .entry((
                    key.network,
                    key.lines,
                    format!("{universe:?}{redundancy:?}"),
                ))
                .or_default()
                .push(i);
        }
    }
    for members in shards.values() {
        let mut union = std::collections::HashSet::new();
        let mut member_tests = 0u64;
        for &i in members {
            if let Query::Coverage { tests, .. } = &wave[i].query {
                member_tests += tests.len() as u64;
                union.extend(tests.iter());
            }
        }
        t.count("service.union_tests", union.len() as u64);
        t.count("service.member_tests", member_tests);
    }
    t.count("service.shards", shards.len() as u64);
}

/// Replays one request of a wave through its engine layer; `false` when
/// the replay disagrees with the served answer.
fn replay_request(
    t: &mut Tracer,
    config: &ServiceConfig,
    request: &Request,
    served: &Response,
) -> bool {
    if request.budget.is_some() {
        return true;
    }
    match &request.query {
        Query::Coverage {
            universe,
            tests,
            redundancy,
        } => {
            let g = Grade {
                network: Arc::new(request.network.clone()),
                universe: *universe,
                tests: Arc::new(tests.clone()),
                mode: *redundancy,
            };
            let (replayed, whole) = engine::replay_grade(t, &g);
            let served_report = match &served.outcome {
                Ok(Answer::Coverage(r)) => Some(r),
                _ => None,
            };
            replayed == whole && whole.as_ref().ok() == served_report
        }
        Query::Verify { property, strategy } => {
            let report = engine::replay_verify(t, &request.network, *property, *strategy);
            match (&report, &served.outcome) {
                (Ok(r), Ok(Answer::Verify(s))) => r == s,
                (Err(_), Err(_)) => true,
                _ => false,
            }
        }
        Query::Augment { universe, tests } => {
            let out = engine::replay_augment(t, config, &request.network, *universe, tests);
            match (&out, &served.outcome) {
                (Ok(b), Ok(Answer::Augment(s))) => b.value().minimum == s.minimum,
                (Err(_), Err(_)) => true,
                _ => false,
            }
        }
    }
}

/// The caller state of batch-campaign.
pub struct CampaignCaller {
    /// Span and counter sink.
    pub tracer: Tracer,
    /// Benchmark-owned caches with the service's capacities, for the
    /// oracle replay.
    pub caches: OracleCaches,
    recorded: (CacheCounters, CacheCounters),
}

impl CampaignCaller {
    /// A caller whose replay caches match `config`.
    #[must_use]
    pub fn new(config: &ServiceConfig) -> Self {
        Self {
            tracer: Tracer::new(Instant::now()),
            caches: OracleCaches::with_ttls(
                config.answer_cache,
                config.answer_ttl,
                config.matrix_cache,
                config.matrix_ttl,
            ),
            recorded: Default::default(),
        }
    }

    /// Moves the replay caches' counters since the last call into the
    /// tracer, and hands the tracer over.
    pub fn take_tracer(&mut self) -> Tracer {
        let (answers, matrices) = self.caches.counters();
        let (a0, m0) = self.recorded;
        let t = &mut self.tracer;
        t.count("service.hits", answers.hits - a0.hits);
        t.count("service.misses", answers.misses - a0.misses);
        t.count("service.evictions", answers.evictions - a0.evictions);
        t.count("service.matrix_hits", matrices.hits - m0.hits);
        self.recorded = (answers, matrices);
        std::mem::replace(&mut self.tracer, Tracer::new(Instant::now()))
    }
}

/// One traced wave: the service round trip, the cache-key computation,
/// the oracle replay on the caller's caches, and each request's engine
/// replay.
pub fn traced_wave(
    caller: &mut CampaignCaller,
    service: &Service,
    id: usize,
    wave: &[Request],
) -> Sample {
    let config = service.config().clone();
    let caches = &caller.caches;
    let t = &mut caller.tracer;
    let ok = t.op("op.wave", id as u64, |t| {
        let served = t.span("service.round_trip", |_| {
            service.submit_batch(wave.to_vec())
        });
        t.span("service.cache_key", |_| {
            std::hint::black_box(wave.iter().map(request_key).count())
        });
        let replies = t.span("service.answer_batch", |_| {
            engine::answer_batch(&config, caches, wave)
        });
        // A response's `micros` runs from the start of the batch that
        // answered it, so the wave's longest one is its compute time.
        let compute_ns = served.iter().map(|r| r.micros).max().unwrap_or(0) * 1000;
        let wait = t.last_ns("service.round_trip").saturating_sub(compute_ns);
        t.add_ns("service.queue_wait", wait);
        shard_counts(t, wave, &replies);
        t.count(
            "service.bypasses",
            replies
                .iter()
                .filter(|r| r.cache == CacheStatus::Bypass)
                .count() as u64,
        );
        let mut ok = replies
            .iter()
            .zip(&served)
            .all(|(r, s)| r.outcome == s.outcome && r.completion == s.completion);
        for (request, reply) in wave.iter().zip(&served) {
            ok &= replay_request(t, &config, request, reply);
        }
        (ok, served)
    });
    let (ok, served) = ok;
    if !ok {
        t.count("replay.mismatches", 1);
    }
    Sample {
        op: id,
        ns: t.last_ns("op.wave"),
        digest: digest_all(served.iter().map(digest_response)),
        ok,
    }
}

fn batch_campaign(cfg: &RunConfig) -> Outcome {
    let waves = workloads::campaign_waves(cfg.seed);
    let warmup = workloads::campaign_warmup();
    let config = engine::service_config(WORKERS);
    let (service, setup_s) = repeated_setup(|| {
        let service = Service::start(config.clone());
        std::hint::black_box(service.submit_batch(warmup.clone()));
        service
    });
    let requests: Vec<Request> = waves.iter().flatten().cloned().collect();
    let request_refs = check::memoised(&requests, request_key, |r| {
        digest_response(&engine::reference_answer(&config, r))
    });
    let refs: Vec<u64> = request_refs
        .chunks(workloads::WAVE)
        .map(|c| digest_all(c.iter().copied()))
        .collect();
    debug_assert_eq!(refs.len(), waves.len());
    let untraced = |_: &mut CampaignCaller, i: usize| {
        let (replies, ns) = timed(|| service.submit_batch(waves[i].clone()));
        Sample {
            op: i,
            ns,
            digest: digest_all(replies.iter().map(digest_response)),
            ok: true,
        }
    };
    let traced = |c: &mut CampaignCaller, i: usize| traced_wave(c, &service, i, &waves[i]);
    let mut states = vec![CampaignCaller::new(&config)];
    measure(
        cfg,
        setup_s,
        workloads::WAVE_CYCLE,
        &mut states,
        &refs,
        &untraced,
        &traced,
        &CampaignCaller::take_tracer,
        &|_| {},
    )
}

// ---- serve-wire ----------------------------------------------------------

/// The caller state of serve-wire: one connection and a tracer.
pub struct WireCaller {
    /// The connection.
    pub client: WireClient,
    /// Span and counter sink.
    pub tracer: Tracer,
}

/// One traced wire call: cache key, the four codec functions and the
/// call, each in its own span; transport is the remainder of the call.
pub fn traced_call(caller: &mut WireCaller, id: usize, request: &Request) -> Sample {
    let client = &mut caller.client;
    let t = &mut caller.tracer;
    let reply = t.op("op.call", id as u64, |t| {
        t.span("service.cache_key", |_| {
            std::hint::black_box(request_key(request))
        });
        let bytes = t.span("wire.encode_request", |_| wire::encode_request(request));
        t.count("wire.request_bytes", bytes.len() as u64);
        t.span("wire.decode_request", |_| {
            std::hint::black_box(wire::decode_request(&bytes)).ok()
        });
        let reply = t.span("wire.call", |_| client.call(request));
        let codec = t.last_ns("wire.encode_request") + t.last_ns("wire.decode_request");
        let call_ns = t.last_ns("wire.call");
        if let Ok(reply) = &reply {
            let bytes = t.span("wire.encode_response", |_| wire::encode_response(reply));
            t.count("wire.response_bytes", bytes.len() as u64);
            t.span("wire.decode_response", |_| {
                std::hint::black_box(wire::decode_response(&bytes)).ok()
            });
            let service_ns = reply.micros * 1000;
            t.add_ns("service.round_trip", service_ns);
            let codec =
                codec + t.last_ns("wire.encode_response") + t.last_ns("wire.decode_response");
            t.add_ns("wire.transport", call_ns.saturating_sub(codec + service_ns));
            if reply.cache == CacheStatus::Bypass {
                t.count("service.bypasses", 1);
            }
        }
        reply
    });
    Sample {
        op: id,
        ns: t.last_ns("op.call"),
        digest: reply.as_ref().map_or(0, digest_wire),
        ok: reply.is_ok(),
    }
}

struct WireStack {
    clients: Vec<WireClient>,
    _server: WireServer,
    service: Arc<Service>,
}

fn serve_wire(cfg: &RunConfig) -> Outcome {
    let requests = workloads::wire_requests(cfg.seed);
    let warmup = workloads::wire_warmup();
    let config = engine::service_config(WORKERS);
    let socket = cfg
        .out_dir
        .join(format!("wire-{}.sock", std::process::id()));
    let (stack, setup_s) = repeated_setup(|| {
        let service = Arc::new(Service::start(config.clone()));
        let server = WireServer::bind(&socket, Arc::clone(&service)).expect("bind the socket");
        let mut clients: Vec<WireClient> = (0..WIRE_CLIENTS)
            .map(|_| WireClient::connect(&socket).expect("connect to the socket"))
            .collect();
        for client in &mut clients {
            for request in &warmup {
                std::hint::black_box(client.call(request)).ok();
            }
        }
        WireStack {
            clients,
            _server: server,
            service,
        }
    });
    let refs = check::memoised(&requests, request_key, |r| {
        digest_wire(&wire::compact(&engine::reference_answer(&config, r)))
    });
    let untraced = |c: &mut WireCaller, i: usize| {
        let (reply, ns) = timed(|| c.client.call(&requests[i]));
        Sample {
            op: i,
            ns,
            digest: reply.as_ref().map_or(0, digest_wire),
            ok: reply.is_ok(),
        }
    };
    let traced = |c: &mut WireCaller, i: usize| traced_call(c, i, &requests[i]);
    let WireStack {
        clients,
        _server: server,
        service,
    } = stack;
    let mut states: Vec<WireCaller> = clients
        .into_iter()
        .map(|client| WireCaller {
            client,
            tracer: Tracer::new(Instant::now()),
        })
        .collect();
    let before = std::sync::Mutex::new(service.stats());
    let outcome = measure(
        cfg,
        setup_s,
        1,
        &mut states,
        &refs,
        &untraced,
        &traced,
        &|c| {
            let mut t = std::mem::replace(&mut c.tracer, Tracer::new(Instant::now()));
            t.count("wire.retries", c.client.retries_used());
            t
        },
        &|t| {
            let now = service.stats();
            let mut before = before.lock().expect("stats lock");
            t.count("service.hits", now.answers.hits - before.answers.hits);
            t.count("service.misses", now.answers.misses - before.answers.misses);
            t.count(
                "service.evictions",
                now.answers.evictions - before.answers.evictions,
            );
            t.count(
                "service.matrix_hits",
                now.matrices.hits - before.matrices.hits,
            );
            *before = now;
        },
    );
    drop(states);
    drop(server);
    outcome
}
