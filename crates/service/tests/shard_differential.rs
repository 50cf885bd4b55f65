//! Shard differential suite: batches of 3–5 coverage queries on one
//! network go through [`answer_batch`] as a single shard, and every
//! member's outcome must equal [`answer_cold`] for that request alone.
//!
//! A shard is one engine grade of all its members' lists.  Member lists
//! overlap, are truncated, reversed and duplicated, so the suite pins
//! that the bit-parallel grade shares only what is shared:
//! first-detection indices follow each member's own order (the reversed
//! member), a byte-equal duplicate gets the same answer as its original,
//! and the one redundancy pass over the union of the members' missed
//! faults gives each member the cold path's verdicts.  Engines: scalar
//! (a scalar shard grades its members one after another on the scalar
//! engine, as the cold path does), one-word and four-word bit-parallel,
//! each shard on one runnable lane-ops backend
//! ([`ServiceConfig::backend`]), rotated so that every engine meets every
//! backend.
//!
//! A second suite grades members long enough to reach past the first
//! block into the wide tail of the early-exit sweep, and to resume a
//! member where it leaves a prefix it shares with a longer one.  Its
//! reference is the scalar engine's cold path, which shares no sweep code
//! with the batched one.

use sortnet_combinat::ChannelVec;
use sortnet_faults::coverage::RedundancyMode;
use sortnet_faults::universe::StandardUniverse;
use sortnet_faults::FaultSimEngine;
use sortnet_network::builders::batcher::odd_even_merge_sort;
use sortnet_network::lanes::{Backend, LaneWidth, PackedFamily};
use sortnet_network::Network;
use sortnet_service::loadgen::SplitMix64;
use sortnet_service::oracle::{answer_batch, OracleCaches};
use sortnet_service::{answer_cold, Answer, CacheStatus, Query, Request, ServiceConfig};

const SEED: u64 = 0xC0FF_EE00_5EED;

const ENGINES: [FaultSimEngine; 3] = [
    FaultSimEngine::Scalar,
    FaultSimEngine::BitParallelWide(LaneWidth::W1),
    FaultSimEngine::BitParallelWide(LaneWidth::W4),
];

/// The service configuration of engine `e` of shard group `group`: engine
/// `e` runs on runnable backend `group + e`, so over a table of groups
/// every engine meets every backend.
fn config(group: usize, e: usize) -> ServiceConfig {
    let backends = Backend::runnable();
    ServiceConfig {
        engine: ENGINES[e],
        backend: backends[(group + e) % backends.len()],
        ..ServiceConfig::default()
    }
}

/// A random network of `size` comparators on `n` lines.
fn random_network(rng: &mut SplitMix64, n: usize, size: usize) -> Network {
    let pairs: Vec<(usize, usize)> = (0..size)
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

/// Networks with missed, detected and redundant faults alike: Batcher
/// minus one comparator and a random network (of Batcher's size below
/// the 64-line wall, a sparse one past it).
fn networks(rng: &mut SplitMix64, n: usize) -> Vec<Network> {
    if n > 64 {
        return vec![random_network(rng, n, 40)];
    }
    let batcher = odd_even_merge_sort(n);
    let drop = rng.below(batcher.size() as u64) as usize;
    vec![
        batcher.without_comparator(drop),
        random_network(rng, n, batcher.size()),
    ]
}

/// The sorted strings followed by `extra` random vectors.
fn base_list(rng: &mut SplitMix64, n: usize, extra: usize) -> Vec<ChannelVec> {
    let mut tests: Vec<ChannelVec> = (0..=n)
        .map(|ones| ChannelVec::sorted_of(n - ones, ones))
        .collect();
    tests.extend((0..extra).map(|_| {
        let words: Vec<u64> = (0..n.div_ceil(64)).map(|_| rng.next_u64()).collect();
        ChannelVec::from_words(&words, n)
    }));
    tests
}

/// `members` (3–5) test lists derived from one base list: the base, its
/// reversal, a truncation, a byte-equal duplicate of the base, and an
/// overlapping list (a suffix of the base plus fresh vectors).
fn member_lists(rng: &mut SplitMix64, n: usize, members: usize) -> Vec<Vec<ChannelVec>> {
    let base = base_list(rng, n, n);
    let reversed: Vec<ChannelVec> = base.iter().rev().cloned().collect();
    let truncated = base[..base.len() / 2].to_vec();
    let mut overlapping = base[base.len() / 3..].to_vec();
    overlapping.extend(base_list(rng, n, 4).into_iter().skip(n + 1));
    let mut lists = vec![base.clone(), reversed, truncated, base, overlapping];
    lists.truncate(members);
    lists
}

/// Tallies across one suite, so the suite can assert it exercised the
/// paths it claims to pin.
#[derive(Default)]
struct Tally {
    redundant: usize,
    missed: usize,
    order_sensitive: usize,
}

/// Sends one shard through `answer_batch` and checks every member
/// against the cold path.
fn check_shard(
    tally: &mut Tally,
    config: &ServiceConfig,
    network: &Network,
    universe: StandardUniverse,
    redundancy: RedundancyMode,
    lists: Vec<Vec<ChannelVec>>,
) {
    let requests: Vec<Request> = lists
        .into_iter()
        .map(|tests| Request {
            network: network.clone(),
            query: Query::Coverage {
                universe,
                tests,
                redundancy,
            },
            budget: None,
            deadline: None,
        })
        .collect();
    let caches = OracleCaches::new(16);
    let batch = answer_batch(config, &caches, &requests);
    assert_eq!(batch.len(), requests.len());
    let mut reports = Vec::with_capacity(requests.len());
    for (slot, (response, request)) in batch.iter().zip(&requests).enumerate() {
        let cold = answer_cold(config, request);
        assert_eq!(
            response.outcome,
            cold.outcome,
            "{:?} {} n={} {universe:?} {redundancy:?} member {slot}: batched != cold",
            config.engine,
            config.backend.name(),
            network.lines()
        );
        assert_eq!(response.completion, cold.completion);
        assert_eq!(response.cache, CacheStatus::Miss, "fresh caches never hit");
        let Ok(Answer::Coverage(report)) = &response.outcome else {
            panic!("expected a coverage answer, got {:?}", response.outcome);
        };
        tally.redundant += report.redundant_faults;
        tally.missed += report.missed;
        reports.push(report.clone());
    }
    // Members 0 and 1 hold the same vectors in opposite orders.
    if reports[0].mean_first_detection != reports[1].mean_first_detection {
        tally.order_sensitive += 1;
    }
}

/// Every (engine, network, members) combination for one grading shape.
fn grind(
    tally: &mut Tally,
    rng: &mut SplitMix64,
    lines: &[usize],
    universes: &[StandardUniverse],
    redundancy: RedundancyMode,
) {
    let mut members = 3;
    let mut group = 0;
    for &n in lines {
        for network in networks(rng, n) {
            for &universe in universes {
                for e in 0..ENGINES.len() {
                    let lists = member_lists(rng, n, members);
                    let config = config(group, e);
                    check_shard(tally, &config, &network, universe, redundancy, lists);
                    members = if members == 5 { 3 } else { members + 1 };
                }
                group += 1;
            }
        }
    }
}

#[test]
fn exhaustive_shards_match_cold() {
    let mut rng = SplitMix64::new(SEED);
    let mut tally = Tally::default();
    let universes = [
        StandardUniverse::StuckLine,
        StandardUniverse::SingleComparator,
    ];
    grind(
        &mut tally,
        &mut rng,
        &[8, 10, 12],
        &universes,
        RedundancyMode::Exhaustive,
    );
    grind(
        &mut tally,
        &mut rng,
        &[8],
        &[StandardUniverse::StuckLinePairs],
        RedundancyMode::Exhaustive,
    );
    assert!(tally.redundant > 0, "no shard classified a redundant fault");
    assert!(tally.missed > 0, "no shard left a testable fault missed");
    assert!(
        tally.order_sensitive > 0,
        "no reversed member changed its first-detection indices"
    );
}

#[test]
fn relative_shards_match_cold() {
    let mut rng = SplitMix64::new(SEED ^ 1);
    let mut tally = Tally::default();
    let universes = [
        StandardUniverse::StuckLine,
        StandardUniverse::SingleComparator,
    ];
    for family in [PackedFamily::SortedStrings, PackedFamily::SingleRuns] {
        grind(
            &mut tally,
            &mut rng,
            &[12, 96],
            &universes,
            RedundancyMode::RelativeTo(family),
        );
    }
    assert!(
        tally.redundant > 0,
        "no family-invisible fault was classified"
    );
    assert!(
        tally.missed > 0,
        "no shard left a family-visible fault missed"
    );
    assert!(tally.order_sensitive > 0);
}

#[test]
fn skip_shards_match_cold() {
    let mut rng = SplitMix64::new(SEED ^ 2);
    let mut tally = Tally::default();
    let universes = [
        StandardUniverse::StuckLine,
        StandardUniverse::SingleComparator,
    ];
    grind(
        &mut tally,
        &mut rng,
        &[8, 96],
        &universes,
        RedundancyMode::Skip,
    );
    grind(
        &mut tally,
        &mut rng,
        &[8],
        &[StandardUniverse::StuckLinePairs],
        RedundancyMode::Skip,
    );
    assert_eq!(tally.redundant, 0, "skip mode classifies nothing");
    assert!(tally.missed > 0);
    assert!(tally.order_sensitive > 0);
}

/// A list of `len` vectors on `n` lines whose first detections spread
/// over many four-word blocks: sorted strings (which detect no
/// stuck-pass fault), with a random vector at every fifth position from
/// 600 on.
fn long_list(rng: &mut SplitMix64, n: usize, len: usize) -> Vec<ChannelVec> {
    (0..len)
        .map(|i| {
            if i >= 600 && i % 5 == 0 {
                let words: Vec<u64> = (0..n.div_ceil(64)).map(|_| rng.next_u64()).collect();
                ChannelVec::from_words(&words, n)
            } else {
                let ones = i % (n + 1);
                ChannelVec::sorted_of(n - ones, ones)
            }
        })
        .collect()
}

/// Members that reach the tail and the resume: a base of more than five
/// W4 blocks, truncations on and off block boundaries, a member that
/// shares a prefix of the base and then diverges, and a member that
/// extends the base.
fn long_member_lists(rng: &mut SplitMix64, n: usize) -> Vec<Vec<ChannelVec>> {
    let base = long_list(rng, n, 5 * 256 + 131);
    let mut diverged = base[..700].to_vec();
    diverged.extend(long_list(rng, n, 900).into_iter().rev());
    let mut extended = base.clone();
    extended.extend(long_list(rng, n, 700).into_iter().skip(600));
    vec![
        base[..1024].to_vec(),
        base.clone(),
        base[..700].to_vec(),
        diverged,
        base[..256].to_vec(),
        extended,
        base[..1300].to_vec(),
    ]
}

#[test]
fn long_members_resume_shared_prefixes_and_match_the_scalar_cold_path() {
    let mut rng = SplitMix64::new(SEED ^ 3);
    let scalar = ServiceConfig {
        engine: FaultSimEngine::Scalar,
        ..ServiceConfig::default()
    };
    let mut late = 0;
    let mut group = 0;
    for (n, redundancy) in [
        (8, RedundancyMode::Exhaustive),
        (10, RedundancyMode::Skip),
        (96, RedundancyMode::RelativeTo(PackedFamily::SortedStrings)),
    ] {
        for network in networks(&mut rng, n) {
            let lists = long_member_lists(&mut rng, n);
            for universe in [
                StandardUniverse::StuckLine,
                StandardUniverse::SingleComparator,
            ] {
                let requests: Vec<Request> = lists
                    .iter()
                    .map(|tests| Request {
                        network: network.clone(),
                        query: Query::Coverage {
                            universe,
                            tests: tests.clone(),
                            redundancy,
                        },
                        budget: None,
                        deadline: None,
                    })
                    .collect();
                let cold: Vec<_> = requests
                    .iter()
                    .map(|request| answer_cold(&scalar, request).outcome)
                    .collect();
                for e in 0..ENGINES.len() {
                    let config = config(group, e);
                    let batch = answer_batch(&config, &OracleCaches::new(16), &requests);
                    for (slot, (response, expected)) in batch.iter().zip(&cold).enumerate() {
                        assert_eq!(
                            &response.outcome,
                            expected,
                            "{:?} {} n={n} {universe:?} {redundancy:?} member {slot}",
                            config.engine,
                            config.backend.name()
                        );
                    }
                }
                group += 1;
                for outcome in &cold {
                    let Ok(Answer::Coverage(report)) = outcome else {
                        panic!("expected a coverage answer, got {outcome:?}");
                    };
                    if report.max_first_detection > 256 {
                        late += 1;
                    }
                }
            }
        }
    }
    assert!(
        late > 0,
        "no member detected a fault past its first W4 block"
    );
}
