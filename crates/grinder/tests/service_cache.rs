//! Differential grind of the oracle service's answer cache: cached (and
//! cached-after-eviction) answers must be bit-identical to the cold
//! path, across lane widths W ∈ {1, 4} and line counts n ∈ {8, 96}, the
//! legs taking the runnable lane-ops backends in turn.

use sortnet_grinder::grind_service_cache;

/// The pinned CI seed shared with the engine grind.
const PINNED_SEED: u64 = 0xC0FF_EE00_5EED;

#[test]
fn service_cache_answers_match_cold_across_widths_and_line_counts() {
    let report = grind_service_cache(PINNED_SEED, 48);
    assert!(
        report.mismatches.is_empty(),
        "service answers diverged from the cold path:\n{}",
        report.mismatches.join("\n")
    );
    assert_eq!(report.queries, 4 * 48);
    assert!(
        report.hits > 0,
        "the grind never hit the cache — it proved nothing about cached answers"
    );
    assert!(
        report.evictions > 0,
        "the grind never evicted — the after-eviction path went unexercised"
    );
}

#[test]
fn service_cache_grind_is_deterministic_per_seed() {
    let a = grind_service_cache(PINNED_SEED, 16);
    let b = grind_service_cache(PINNED_SEED, 16);
    // The request stream and answers are pure functions of the seed;
    // only scheduling-dependent counters could differ, and with
    // single-request submits even those agree.
    assert_eq!(a.queries, b.queries);
    assert_eq!(a.hits, b.hits);
    assert_eq!(a.evictions, b.evictions);
    assert_eq!(a.mismatches, b.mismatches);
}
