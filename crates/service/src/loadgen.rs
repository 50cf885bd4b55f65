//! A seeded load generator for the oracle service.
//!
//! [`run`] replays a deterministic mixed workload against a fresh
//! [`Service`]: hot repeats (which must become answer-cache hits), cold
//! random networks, `n > 64` packed coverage queries, verify and
//! augmentation queries, and deliberately starved budgets (which must
//! degrade to typed [`Completion::Partial`] answers on the
//! cache-bypassing path).  Requests go in waves through
//! [`Service::submit_batch`], so batching pressure is real; the
//! client-observed latency of a request is its whole wave's round trip.
//!
//! With `check_against_cold` on (the default), every response is
//! compared against [`answer_cold`] for the same request and budget —
//! outcome and completion must match bit-for-bit; cold answers are
//! memoised per (answer key, budget) so hot repeats do not recompute.
//! The mismatch counter in the summary is the service's end-to-end
//! correctness score: the CI smoke job asserts it is zero.

use std::collections::HashMap;
use std::time::Instant;

use sortnet_combinat::ChannelVec;
use sortnet_faults::coverage::RedundancyMode;
use sortnet_faults::universe::StandardUniverse;
use sortnet_network::budget::SweepBudget;
use sortnet_network::builders::batcher::odd_even_merge_sort;
use sortnet_network::lanes::PackedFamily;
use sortnet_network::Network;
use sortnet_testsets::verify::{Property, Strategy};

use crate::error::ServiceError;
use crate::oracle::{answer_cold, AnswerKey, CacheStatus, Completion, Query, Request};
use crate::pool::Service;
use crate::ServiceConfig;

/// A tiny deterministic RNG (Steele–Lea–Flood splitmix64) so the
/// workload is reproducible from one `u64` seed with no dependencies.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// An RNG at `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..bound` (modulo bias is irrelevant for workload
    /// shaping).
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert_ne!(bound, 0);
        self.next_u64() % bound
    }
}

/// Knobs of one load-generator run.
#[derive(Clone, Debug)]
pub struct LoadgenOptions {
    /// Workload seed; the same seed always produces the same request
    /// sequence.
    pub seed: u64,
    /// Total requests to submit.
    pub queries: usize,
    /// Requests per [`Service::submit_batch`] wave.
    pub wave: usize,
    /// Compare every response against [`answer_cold`] (slower, but the
    /// point of the exercise).
    pub check_against_cold: bool,
}

impl Default for LoadgenOptions {
    fn default() -> Self {
        Self {
            seed: 0xC0FF_EE00_5EED,
            queries: 200,
            wave: 8,
            check_against_cold: true,
        }
    }
}

/// What one run measured.  All latencies are client-observed round
/// trips in microseconds.
#[derive(Clone, Debug)]
pub struct LoadgenSummary {
    /// The workload seed.
    pub seed: u64,
    /// Requests answered.
    pub queries: u64,
    /// Wall-clock time for the whole replay.
    pub elapsed_micros: u64,
    /// `queries / elapsed`.
    pub qps: f64,
    /// Median latency.
    pub p50_micros: u64,
    /// 99th-percentile latency.
    pub p99_micros: u64,
    /// Responses served from the answer cache.
    pub hits: u64,
    /// Responses computed on the cacheable path.
    pub misses: u64,
    /// Responses on the budgeted cache-bypassing path.
    pub bypasses: u64,
    /// Answer-cache evictions (capacity pressure).
    pub evictions: u64,
    /// `hits / (hits + misses)` over the cacheable responses.
    pub hit_rate: f64,
    /// Responses that degraded to [`Completion::Partial`].
    pub partials: u64,
    /// Service-level refusals (overload, deadline, quarantine) — not
    /// engine errors, which the cold path reproduces and the mismatch
    /// counter covers.  Refused responses are excluded from the cold
    /// comparison; under the default unbounded-ish queue this workload
    /// must produce zero.
    pub refusals: u64,
    /// Responses whose outcome or completion differed from
    /// [`answer_cold`] — must be zero.
    pub mismatches: u64,
}

impl LoadgenSummary {
    /// The summary as a small flat JSON object (hand-rolled; the
    /// workspace carries no serde_json).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\n",
                "  \"bench\": \"service_loadgen\",\n",
                "  \"seed\": {},\n",
                "  \"queries\": {},\n",
                "  \"elapsed_micros\": {},\n",
                "  \"qps\": {:.2},\n",
                "  \"p50_micros\": {},\n",
                "  \"p99_micros\": {},\n",
                "  \"hits\": {},\n",
                "  \"misses\": {},\n",
                "  \"bypasses\": {},\n",
                "  \"evictions\": {},\n",
                "  \"hit_rate\": {:.4},\n",
                "  \"partials\": {},\n",
                "  \"refusals\": {},\n",
                "  \"mismatches\": {}\n",
                "}}\n",
            ),
            self.seed,
            self.queries,
            self.elapsed_micros,
            self.qps,
            self.p50_micros,
            self.p99_micros,
            self.hits,
            self.misses,
            self.bypasses,
            self.evictions,
            self.hit_rate,
            self.partials,
            self.refusals,
            self.mismatches,
        )
    }
}

fn binary_sorter_tests(n: usize) -> Vec<ChannelVec> {
    sortnet_testsets::sorting::binary_testset(n)
        .into_iter()
        .map(ChannelVec::from_bitstring)
        .collect()
}

fn sorted_tests(n: usize) -> Vec<ChannelVec> {
    (0..=n)
        .map(|ones| ChannelVec::sorted_of(n - ones, ones))
        .collect()
}

fn sparse_sorted_tests(n: usize, step: usize) -> Vec<ChannelVec> {
    (0..=n)
        .step_by(step)
        .map(|ones| ChannelVec::sorted_of(n - ones, ones))
        .collect()
}

fn random_network(rng: &mut SplitMix64, n: usize, comparators: usize) -> Network {
    let pairs: Vec<(usize, usize)> = (0..comparators)
        .map(|_| {
            let a = rng.below(n as u64) as usize;
            let mut b = rng.below(n as u64 - 1) as usize;
            if b >= a {
                b += 1;
            }
            (a, b)
        })
        .collect();
    Network::from_pairs(n, &pairs)
}

/// The fixed `n > 64` hot network: a comparator ladder wide enough that
/// every query against it exercises the multi-word [`ChannelVec`] lane
/// path.
fn wide_hot_network() -> Network {
    let n = 96;
    let pairs: Vec<(usize, usize)> = (0..n / 2).map(|i| (i, i + n / 2)).collect();
    Network::from_pairs(n, &pairs)
}

/// The deterministic request sequence for `options`.
#[must_use]
pub fn workload(options: &LoadgenOptions) -> Vec<Request> {
    let mut rng = SplitMix64::new(options.seed);
    // The hot pool: a handful of fixed requests the workload keeps
    // resubmitting, so the answer cache has something to hit.
    let hot: Vec<Request> = vec![
        Request {
            network: odd_even_merge_sort(8),
            query: Query::Coverage {
                universe: StandardUniverse::StuckLine,
                tests: sorted_tests(8),
                redundancy: RedundancyMode::Exhaustive,
            },
            budget: None,
            deadline: None,
        },
        Request {
            network: odd_even_merge_sort(6),
            query: Query::Coverage {
                universe: StandardUniverse::SingleComparator,
                tests: sorted_tests(6),
                redundancy: RedundancyMode::Skip,
            },
            budget: None,
            deadline: None,
        },
        Request {
            network: odd_even_merge_sort(8),
            query: Query::Verify {
                property: Property::Sorter,
                strategy: Strategy::MinimalBinary,
            },
            budget: None,
            deadline: None,
        },
        Request {
            network: odd_even_merge_sort(6),
            query: Query::Augment {
                universe: StandardUniverse::StuckLine,
                tests: binary_sorter_tests(6),
            },
            budget: None,
            deadline: None,
        },
        Request {
            network: wide_hot_network(),
            query: Query::Coverage {
                universe: StandardUniverse::StuckLine,
                tests: sparse_sorted_tests(96, 12),
                redundancy: RedundancyMode::RelativeTo(PackedFamily::SortedStrings),
            },
            budget: None,
            deadline: None,
        },
    ];

    // The starvation target: more test vectors than one block holds at
    // any lane width, so a one-block budget is guaranteed to trip.
    let starved = Request {
        network: odd_even_merge_sort(8),
        query: Query::Coverage {
            universe: StandardUniverse::StuckLine,
            tests: (0..1100)
                .map(|_| ChannelVec::from_words(&[rng.next_u64() & 0xFF], 8))
                .collect(),
            redundancy: RedundancyMode::Skip,
        },
        budget: None,
        deadline: None,
    };

    (0..options.queries)
        .map(|_| match rng.below(20) {
            // 40 % hot repeats — the cache-hit fuel.
            0..=7 => hot[rng.below(hot.len() as u64) as usize].clone(),
            // 15 % verify queries over the hot sorters.
            8..=10 => {
                let n = if rng.below(2) == 0 { 6 } else { 8 };
                let property = match rng.below(3) {
                    0 => Property::Sorter,
                    1 => Property::Selector {
                        k: 1 + rng.below(n as u64 - 1) as usize,
                    },
                    _ => Property::Merger,
                };
                let strategy = match rng.below(3) {
                    0 => Strategy::MinimalBinary,
                    1 => Strategy::Permutation,
                    _ => Strategy::Exhaustive,
                };
                Request {
                    network: odd_even_merge_sort(n),
                    query: Query::Verify { property, strategy },
                    budget: None,
                    deadline: None,
                }
            }
            // 10 % augmentation of a truncated base set.  Some
            // truncations leave misses no sorted-string candidate can
            // cover: the service must answer those with the same typed
            // infeasibility the cold path reports.
            11..=12 => {
                let base = binary_sorter_tests(6);
                let keep = base.len() - rng.below(3) as usize;
                Request {
                    network: odd_even_merge_sort(6),
                    query: Query::Augment {
                        universe: StandardUniverse::StuckLine,
                        tests: base[..keep].to_vec(),
                    },
                    budget: None,
                    deadline: None,
                }
            }
            // 20 % cold coverage of random small networks.
            13..=16 => {
                let n = 5 + rng.below(5) as usize;
                let comparators = n + rng.below(n as u64) as usize;
                let network = random_network(&mut rng, n, comparators);
                let redundancy = match rng.below(3) {
                    0 => RedundancyMode::Exhaustive,
                    1 => RedundancyMode::RelativeTo(PackedFamily::SortedStrings),
                    _ => RedundancyMode::Skip,
                };
                Request {
                    network,
                    query: Query::Coverage {
                        universe: StandardUniverse::StuckLine,
                        tests: sorted_tests(n),
                        redundancy,
                    },
                    budget: None,
                    deadline: None,
                }
            }
            // 10 % cold n = 96 packed coverage; one in four asks for the
            // exhaustive redundancy sweep and must get the typed
            // up-front refusal, one in four grades relative to a packed
            // family past the wall.
            17..=18 => {
                let network = random_network(&mut rng, 96, 32);
                let redundancy = match rng.below(4) {
                    0 => RedundancyMode::Exhaustive,
                    1 => RedundancyMode::RelativeTo(PackedFamily::SortedStrings),
                    _ => RedundancyMode::Skip,
                };
                Request {
                    network,
                    query: Query::Coverage {
                        universe: StandardUniverse::StuckLine,
                        tests: sparse_sorted_tests(96, 16),
                        redundancy,
                    },
                    budget: None,
                    deadline: None,
                }
            }
            // 5 % deliberately starved budgets: one admitted block can
            // never cover 1100 tests at any lane width (W = 16 packs
            // 1024 lanes per block) nor the scalar engine's 16 per-fault
            // scans, so these degrade to typed partials on the
            // cache-bypassing path under every engine.
            _ => {
                let mut request = starved.clone();
                request.budget = Some(SweepBudget::unlimited().with_max_blocks(1));
                request
            }
        })
        .collect()
}

fn percentile(sorted: &[u64], pct: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() - 1) as u64 * pct / 100) as usize]
}

fn budget_axes(request: &Request) -> Option<(Option<u64>, Option<u64>)> {
    request.budget.as_ref().map(|b| (b.max_blocks, b.max_forks))
}

/// Replays the workload for `options` against a fresh service running
/// `config`.
#[must_use]
pub fn run(config: &ServiceConfig, options: &LoadgenOptions) -> LoadgenSummary {
    let service = Service::start(config.clone());
    let requests = workload(options);

    let mut latencies: Vec<u64> = Vec::with_capacity(requests.len());
    let mut hits = 0u64;
    let mut misses = 0u64;
    let mut bypasses = 0u64;
    let mut partials = 0u64;
    let mut refusals = 0u64;
    let mut mismatches = 0u64;
    // Cold reference answers, memoised so a hot request is only ever
    // recomputed once per distinct budget.
    type ColdKey = (AnswerKey, Option<(Option<u64>, Option<u64>)>);
    let mut cold: HashMap<ColdKey, crate::oracle::Response> = HashMap::new();

    let started = Instant::now();
    for wave in requests.chunks(options.wave.max(1)) {
        let sent = Instant::now();
        let responses = service.submit_batch(wave.to_vec());
        let round_trip = sent.elapsed().as_micros() as u64;
        for (request, response) in wave.iter().zip(&responses) {
            latencies.push(round_trip);
            match response.cache {
                CacheStatus::Hit => hits += 1,
                CacheStatus::Miss => misses += 1,
                CacheStatus::Bypass => bypasses += 1,
            }
            if !matches!(response.completion, Completion::Complete) {
                partials += 1;
            }
            // A service-level refusal never reaches the engine, so the
            // cold path has nothing to agree with — count it apart.
            if matches!(&response.outcome, Err(e) if !matches!(e, ServiceError::Engine(_))) {
                refusals += 1;
                continue;
            }
            if options.check_against_cold {
                let key = (AnswerKey::of(request), budget_axes(request));
                let reference = cold
                    .entry(key)
                    .or_insert_with(|| answer_cold(config, request));
                if reference.outcome != response.outcome
                    || reference.completion != response.completion
                {
                    mismatches += 1;
                }
            }
        }
    }
    let elapsed_micros = started.elapsed().as_micros().max(1) as u64;
    let stats = service.stats();
    drop(service);

    latencies.sort_unstable();
    let cacheable = hits + misses;
    LoadgenSummary {
        seed: options.seed,
        queries: requests.len() as u64,
        elapsed_micros,
        qps: requests.len() as f64 / (elapsed_micros as f64 / 1_000_000.0),
        p50_micros: percentile(&latencies, 50),
        p99_micros: percentile(&latencies, 99),
        hits,
        misses,
        bypasses,
        evictions: stats.answers.evictions,
        hit_rate: if cacheable == 0 {
            0.0
        } else {
            hits as f64 / cacheable as f64
        },
        partials,
        refusals,
        mismatches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic_for_a_seed() {
        let options = LoadgenOptions {
            queries: 64,
            ..LoadgenOptions::default()
        };
        let a = workload(&options);
        let b = workload(&options);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(AnswerKey::of(x), AnswerKey::of(y));
            assert_eq!(budget_axes(x), budget_axes(y));
        }
        // A different seed produces a different sequence.
        let c = workload(&LoadgenOptions {
            seed: options.seed + 1,
            ..options
        });
        assert!(a
            .iter()
            .zip(&c)
            .any(|(x, y)| AnswerKey::of(x) != AnswerKey::of(y)));
    }

    #[test]
    fn mixed_workload_runs_clean_end_to_end() {
        let config = ServiceConfig {
            workers: 2,
            max_batch: 8,
            answer_cache: 32,
            ..ServiceConfig::default()
        };
        let options = LoadgenOptions {
            queries: 48,
            wave: 8,
            ..LoadgenOptions::default()
        };
        let summary = run(&config, &options);
        assert_eq!(summary.queries, 48);
        assert_eq!(summary.mismatches, 0, "service answers must equal cold");
        assert_eq!(summary.refusals, 0, "the default queue never sheds this");
        assert!(summary.hits > 0, "hot repeats must hit the cache");
        assert!(summary.partials > 0, "starved budgets must degrade typed");
        assert!(summary.bypasses > 0, "budgeted requests must bypass");
        assert!(summary.p99_micros >= summary.p50_micros);
        assert!(summary.qps > 0.0);
        let json = summary.to_json();
        for field in [
            "\"p50_micros\"",
            "\"p99_micros\"",
            "\"qps\"",
            "\"hit_rate\"",
            "\"mismatches\"",
        ] {
            assert!(json.contains(field), "summary JSON must carry {field}");
        }
    }
}
