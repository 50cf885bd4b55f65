//! The three workloads' inputs, made from the `--seed` argument alone:
//! the same seed gives the same operation sequence.
//!
//! Each sequence is a fixed schedule of operation classes; the seed picks
//! networks and test lists within a class.  The class mix is therefore
//! the same for every seed, which keeps the end-to-end figures of two
//! seeds comparable.

use std::sync::Arc;

use sortnet_combinat::ChannelVec;
use sortnet_faults::coverage::RedundancyMode;
use sortnet_faults::universe::StandardUniverse;
use sortnet_network::builders::batcher::odd_even_merge_sort;
use sortnet_network::builders::bitonic::bitonic_sorter;
use sortnet_network::lanes::PackedFamily;
use sortnet_network::Network;
use sortnet_service::loadgen::{self, LoadgenOptions, SplitMix64};
use sortnet_service::oracle::{Query, Request};
use sortnet_testsets::verify::{Property, Strategy};

use crate::engine::Grade;

/// The default seed.
pub const PINNED_SEED: u64 = 0xC0FF_EE00_5EED;

/// A seed kept out of tuning: a later claim of a gain must also hold at
/// this seed.
pub const HELD_OUT_SEED: u64 = 0x0DD5_EED5_2026;

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One caller grading wide networks directly on the engine.
    GradeWide,
    /// Waves of 8 mixed queries through an in-process service.
    BatchCampaign,
    /// Two wire clients calling a service over a Unix socket.
    ServeWire,
}

impl Workload {
    /// Every workload, in presentation order.
    pub const ALL: [Self; 3] = [Self::GradeWide, Self::BatchCampaign, Self::ServeWire];

    /// The command-line name.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Self::GradeWide => "grade-wide",
            Self::BatchCampaign => "batch-campaign",
            Self::ServeWire => "serve-wire",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// A random standard network: `comparators` comparators on `n` lines.
fn random_network(rng: &mut SplitMix64, n: usize, comparators: usize) -> Network {
    let pairs: Vec<(usize, usize)> = (0..comparators)
        .map(|_| {
            let a = rng.below(n as u64) as usize;
            let mut b = rng.below(n as u64 - 1) as usize;
            if b >= a {
                b += 1;
            }
            (a.min(b), a.max(b))
        })
        .collect();
    Network::from_pairs(n, &pairs)
}

/// The loadgen's comparator ladder: line `i` against line `i + n/2`.
fn ladder(n: usize) -> Network {
    let pairs: Vec<(usize, usize)> = (0..n / 2).map(|i| (i, i + n / 2)).collect();
    Network::from_pairs(n, &pairs)
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

/// The paper's minimal binary test set for sorting: `2^n − n − 1` tests.
fn minimal_binary_tests(n: usize) -> Vec<ChannelVec> {
    sortnet_testsets::sorting::binary_testset(n)
        .into_iter()
        .map(ChannelVec::from_bitstring)
        .collect()
}

const SINGLE_RUNS: RedundancyMode = RedundancyMode::RelativeTo(PackedFamily::SingleRuns);
const SORTED_STRINGS: RedundancyMode = RedundancyMode::RelativeTo(PackedFamily::SortedStrings);

/// Grades per round of the grade-wide schedule.
pub const GRADE_ROUND: usize = 24;

/// Grades per balanced turn of the grade-wide mix: every dense class meets
/// every test list, and every light class every list, the same number of
/// times.
pub const GRADE_TURN: usize = 6 * GRADE_ROUND;
const GRADE_ROUNDS: usize = 3 * GRADE_TURN / GRADE_ROUND;

/// The `turn`-th pick of a class rotation: class `turn mod classes`,
/// then the class's members in turn.
fn member<T>(classes: &[Vec<T>], turn: usize) -> &T {
    let class = &classes[turn % classes.len()];
    &class[(turn / classes.len()) % class.len()]
}

struct WideNet {
    network: Arc<Network>,
    lists: Vec<Arc<Vec<ChannelVec>>>,
}

impl WideNet {
    /// Sorted strings, and every fourth and every eighth of them.
    fn dense(network: Network) -> Self {
        let n = network.lines();
        Self {
            network: Arc::new(network),
            lists: vec![
                Arc::new(sorted_tests(n)),
                Arc::new(sparse_sorted_tests(n, 4)),
                Arc::new(sparse_sorted_tests(n, 8)),
            ],
        }
    }

    /// The dense lists, and every string of weight ≤ 2: on a network this
    /// sparse, a grade of the whole family stays cheap.
    fn light(network: Network) -> Self {
        let n = network.lines();
        let mut net = Self::dense(network);
        net.lists
            .push(Arc::new(PackedFamily::WeightAtMost(2).collect(n)));
        net
    }
}

/// The grade-wide sequence: `GRADE_ROUNDS` rounds of [`GRADE_ROUND`]
/// stuck-line grades at n ∈ {96, 128}.
///
/// In a round, slot `s` grades under Skip, `RelativeTo(sorted-strings)`
/// or `RelativeTo(single-runs)` as `s mod 3` is 0, 1 or 2.  Skip and
/// sorted-strings slots grade a Batcher or a dense random network against
/// sorted or sparse-sorted strings (3–10 ms each); single-runs slots grade
/// a ladder or a sparse random network, where the family pass is cheap,
/// against the same lists or every string of weight ≤ 2 (3–5 ms).  No
/// grade is more than a few times the median, so a slice of the window
/// holds many grades of every kind.  Network classes and test lists rotate
/// from a seeded offset on fixed cycles, so every seed grades the same
/// class mix in every [`GRADE_TURN`].
#[must_use]
pub fn grade_ops(seed: u64) -> Vec<Grade> {
    let mut rng = SplitMix64::new(seed);
    let randoms = |rng: &mut SplitMix64, n: usize, per_line: usize, count: usize| -> Vec<Network> {
        (0..count)
            .map(|_| random_network(rng, n, per_line * n))
            .collect()
    };
    // Four classes each; a class of seeded random networks rotates through
    // several of them, so its mean cost does not hinge on one draw.  The
    // counts (5 and 3) are prime to the number of lists (3 and 4), so each
    // random network meets every list in turn.
    let dense: Vec<Vec<WideNet>> = [
        vec![odd_even_merge_sort(96)],
        vec![odd_even_merge_sort(128)],
        randoms(&mut rng, 96, 8, 5),
        randoms(&mut rng, 128, 8, 5),
    ]
    .map(|class| class.into_iter().map(WideNet::dense).collect())
    .into();
    let light: Vec<Vec<WideNet>> = [
        vec![ladder(96)],
        vec![ladder(128)],
        randoms(&mut rng, 96, 2, 3),
        randoms(&mut rng, 128, 2, 3),
    ]
    .map(|class| class.into_iter().map(WideNet::light).collect())
    .into();
    // Dense slots take classes in pairs (Skip, then sorted-strings) and
    // move to the next list after every class has had its pair; light
    // slots move to the next list after every class has had one grade.
    let mut next_dense = rng.below(4) as usize;
    let mut next_light = rng.below(4) as usize;
    let list_offset = rng.below(12) as usize;
    let mut ops = Vec::with_capacity(GRADE_ROUNDS * GRADE_ROUND);
    for _ in 0..GRADE_ROUNDS {
        for slot in 0..GRADE_ROUND {
            let (net, list, mode) = if slot % 3 == 2 {
                next_light += 1;
                let net = member(&light, next_light);
                (net, next_light / light.len(), SINGLE_RUNS)
            } else {
                let mode = if slot % 3 == 0 {
                    next_dense += 1;
                    RedundancyMode::Skip
                } else {
                    SORTED_STRINGS
                };
                let net = member(&dense, next_dense);
                (net, next_dense / dense.len(), mode)
            };
            ops.push(Grade {
                network: Arc::clone(&net.network),
                universe: StandardUniverse::StuckLine,
                tests: Arc::clone(&net.lists[(list + list_offset) % net.lists.len()]),
                mode,
            });
        }
    }
    ops
}

/// The fixed grade-wide warm-up pass.
#[must_use]
pub fn grade_warmup() -> Vec<Grade> {
    [96usize, 128]
        .into_iter()
        .flat_map(|n| {
            let b = WideNet::dense(odd_even_merge_sort(n));
            let l = WideNet::light(ladder(n));
            [
                Grade {
                    network: Arc::clone(&b.network),
                    universe: StandardUniverse::StuckLine,
                    tests: Arc::clone(&b.lists[0]),
                    mode: RedundancyMode::Skip,
                },
                Grade {
                    network: b.network,
                    universe: StandardUniverse::StuckLine,
                    tests: Arc::clone(&b.lists[2]),
                    mode: SORTED_STRINGS,
                },
                Grade {
                    network: l.network,
                    universe: StandardUniverse::StuckLine,
                    tests: Arc::clone(&l.lists[0]),
                    mode: SINGLE_RUNS,
                },
            ]
        })
        .collect()
}

/// Requests per batch-campaign wave.
pub const WAVE: usize = 8;

/// Waves per turn of the batch-campaign line-count cycle.
pub const WAVE_CYCLE: usize = 8;
const CAMPAIGN_WAVES: usize = 96;

fn request(network: &Network, query: Query) -> Request {
    Request {
        network: network.clone(),
        query,
        budget: None,
        deadline: None,
    }
}

fn coverage(
    network: &Network,
    (universe, redundancy): (StandardUniverse, RedundancyMode),
    tests: Vec<ChannelVec>,
) -> Request {
    request(
        network,
        Query::Coverage {
            universe,
            tests,
            redundancy,
        },
    )
}

/// Network kind `kind mod 4`: Batcher, bitonic (random where n is not a
/// power of two), random of Batcher's size, Batcher minus one comparator.
fn campaign_network(rng: &mut SplitMix64, n: usize, kind: usize) -> Network {
    let batcher = odd_even_merge_sort(n);
    match kind % 4 {
        0 => batcher,
        1 if n.is_power_of_two() => bitonic_sorter(n),
        1 | 2 => random_network(rng, n, batcher.size()),
        _ => {
            let index = rng.below(batcher.size() as u64) as usize;
            batcher.without_comparator(index)
        }
    }
}

/// Universe `pick` for an n-line network, and its redundancy mode.
///
/// The service classifies a shard's missed faults one scalar `2^n` sweep
/// at a time: 30–40 ms per stuck-line grade at n = 12 (the cold path
/// takes 0.7 ms) and up to 2 s per wave at n = 16.  Above n = 10, and
/// for the quadratic pair universe, waves therefore grade without
/// redundancy classification.
fn campaign_universe(n: usize, pick: usize) -> (StandardUniverse, RedundancyMode) {
    let universes: &[StandardUniverse] = if n <= 8 {
        &[
            StandardUniverse::StuckLine,
            StandardUniverse::SingleComparator,
            StandardUniverse::StuckLinePairs,
        ]
    } else {
        &[
            StandardUniverse::StuckLine,
            StandardUniverse::SingleComparator,
        ]
    };
    let universe = universes[pick % universes.len()];
    let mode = if n <= 10 && universe != StandardUniverse::StuckLinePairs {
        RedundancyMode::Exhaustive
    } else {
        RedundancyMode::Skip
    };
    (universe, mode)
}

/// Verify query `slot`: property `slot mod 3`, strategy `slot / 3` in
/// turn (permutations only up to n = 12); the seed picks the selector k.
fn verify_query(rng: &mut SplitMix64, n: usize, slot: usize) -> Query {
    let property = match slot % 3 {
        0 => Property::Sorter,
        1 => Property::Selector {
            k: 1 + rng.below(n as u64 - 1) as usize,
        },
        _ => Property::Merger,
    };
    let strategies: &[Strategy] = if n <= 12 {
        &[
            Strategy::MinimalBinary,
            Strategy::Permutation,
            Strategy::Exhaustive,
        ]
    } else {
        &[Strategy::MinimalBinary, Strategy::Exhaustive]
    };
    Query::Verify {
        property,
        strategy: strategies[(slot / 3) % strategies.len()],
    }
}

/// The batch-campaign sequence: `CAMPAIGN_WAVES` waves of [`WAVE`]
/// requests, replayed in order and cycled.
///
/// Wave `w` grades network A (n = 8, 10, 12, 14, 8, 10, 12, 16 as
/// `w mod 8`) against sorted strings, the paper's minimal binary set (its
/// first half at n = 16) and a truncation of it (one shard); odd waves
/// also grade a second network B (n = 8, 10, 12 in turn) against sorted
/// strings and another truncation.  Verify queries fill the wave; at
/// n ≤ 10 its last slot is an augmentation of a truncated minimal set.
/// Network kinds, universes and verify queries rotate on fixed cycles; the
/// seed draws the random networks, the removed comparator, truncation
/// lengths and selector k.  The 768 distinct requests outnumber the
/// 256-entry answer cache, so a request is evicted before it comes round
/// again.
#[must_use]
pub fn campaign_waves(seed: u64) -> Vec<Vec<Request>> {
    let mut rng = SplitMix64::new(seed ^ 0xBA7C_4CA3_9A16);
    let mut verify_slot = 0usize;
    (0..CAMPAIGN_WAVES)
        .map(|w| {
            let na = [8usize, 10, 12, 14, 8, 10, 12, 16][w % WAVE_CYCLE];
            let a = campaign_network(&mut rng, na, w / 8);
            let minimal_a = minimal_binary_tests(na);
            let universe_a = campaign_universe(na, w / 16);
            // At n = 16 the whole set (65519 tests) would make one shard's
            // detection matrix cost more than the rest of the wave.
            let whole = if na < 16 {
                minimal_a.len()
            } else {
                minimal_a.len() / 2
            };
            let keep = whole * (5 + rng.below(5) as usize) / 10;
            let mut wave = vec![
                coverage(&a, universe_a, sorted_tests(na)),
                coverage(&a, universe_a, minimal_a[..keep].to_vec()),
                coverage(&a, universe_a, minimal_a[..whole].to_vec()),
            ];
            let mut nets = vec![a.clone()];
            if w % 2 == 1 {
                let nb = [8usize, 10, 12][(w / 2) % 3];
                let b = campaign_network(&mut rng, nb, w / 6 + 1);
                let minimal_b = minimal_binary_tests(nb);
                let universe_b = campaign_universe(nb, w / 6);
                let keep = minimal_b.len() * (3 + rng.below(6) as usize) / 10;
                wave.push(coverage(&b, universe_b, sorted_tests(nb)));
                wave.push(coverage(&b, universe_b, minimal_b[..keep].to_vec()));
                nets.push(b);
            }
            while wave.len() < WAVE - 1 {
                let net = &nets[verify_slot % nets.len()];
                let query = verify_query(&mut rng, net.lines(), verify_slot);
                verify_slot += 1;
                wave.push(request(net, query));
            }
            if na <= 10 {
                let keep = minimal_a.len() - rng.below(3) as usize;
                wave.push(request(
                    &a,
                    Query::Augment {
                        universe: StandardUniverse::StuckLine,
                        tests: minimal_a[..keep].to_vec(),
                    },
                ));
            } else {
                let query = verify_query(&mut rng, na, verify_slot);
                verify_slot += 1;
                wave.push(request(&a, query));
            }
            wave
        })
        .collect()
}

/// The fixed batch-campaign warm-up wave.
#[must_use]
pub fn campaign_warmup() -> Vec<Request> {
    let mut rng = SplitMix64::new(PINNED_SEED);
    let mut wave: Vec<Request> = [8usize, 12]
        .into_iter()
        .map(|n| {
            let universe = (StandardUniverse::StuckLine, RedundancyMode::Exhaustive);
            coverage(&odd_even_merge_sort(n), universe, sorted_tests(n))
        })
        .collect();
    for (slot, n) in [8usize, 12, 16].into_iter().enumerate() {
        let query = verify_query(&mut rng, n, slot);
        wave.push(request(&odd_even_merge_sort(n), query));
    }
    wave
}

/// Requests in one serve-wire sequence, cycled.
const WIRE_REQUESTS: usize = 4096;

/// The serve-wire sequence: the load generator's mix (40 % hot repeats,
/// cold small coverage, n = 96 packed coverage, verify, augment, 5 %
/// starved budgets).
#[must_use]
pub fn wire_requests(seed: u64) -> Vec<Request> {
    loadgen::workload(&LoadgenOptions {
        seed,
        queries: WIRE_REQUESTS,
        ..LoadgenOptions::default()
    })
}

/// The fixed serve-wire warm-up pass: the load generator's mix at the
/// pinned seed, which sends every hot request at least once.
#[must_use]
pub fn wire_warmup() -> Vec<Request> {
    loadgen::workload(&LoadgenOptions {
        seed: PINNED_SEED,
        queries: 48,
        ..LoadgenOptions::default()
    })
}
