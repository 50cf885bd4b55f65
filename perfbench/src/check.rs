//! The correctness gate: answer digests, and reference digests computed
//! before timing and memoised per distinct operation.
//!
//! A digest is a stable 64-bit hash of everything an answer asserts:
//! outcome (or refusal text) and completion.  Cache status and service
//! latency are left out, so a cache hit and a cold answer digest alike.
//! In-process coverage answers also hash their full missed and
//! undetectable fault lists, which the wire form summarises away.

use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};

use sortnet_faults::coverage::CoverageReport;
use sortnet_network::error::EngineError;
use sortnet_service::oracle::{Answer, AnswerKey, CacheStatus, Request, Response};
use sortnet_service::wire::{self, WireResponse};

/// Digest of a wire reply.
#[must_use]
pub fn digest_wire(reply: &WireResponse) -> u64 {
    let normalised = WireResponse {
        cache: CacheStatus::Bypass,
        micros: 0,
        ..reply.clone()
    };
    let mut h = DefaultHasher::new();
    wire::encode_response(&normalised).hash(&mut h);
    h.finish()
}

/// Digest of an in-process response.
#[must_use]
pub fn digest_response(response: &Response) -> u64 {
    let mut h = DefaultHasher::new();
    digest_wire(&wire::compact(response)).hash(&mut h);
    if let Ok(Answer::Coverage(report)) = &response.outcome {
        report.missed_faults.hash(&mut h);
        report.undetectable_faults.hash(&mut h);
    }
    h.finish()
}

/// Digest of a direct coverage grade.
#[must_use]
pub fn digest_report(report: &Result<CoverageReport, EngineError>) -> u64 {
    let mut h = DefaultHasher::new();
    match report {
        Err(e) => e.to_string().hash(&mut h),
        Ok(r) => {
            (r.total_faults, r.redundant_faults, r.detected, r.missed).hash(&mut h);
            (r.coverage.to_bits(), r.mean_first_detection.to_bits()).hash(&mut h);
            r.max_first_detection.hash(&mut h);
            r.missed_faults.hash(&mut h);
            r.undetectable_faults.hash(&mut h);
            r.redundancy.hash(&mut h);
        }
    }
    h.finish()
}

/// Folds several digests into one, order-sensitively.
#[must_use]
pub fn digest_all(digests: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = DefaultHasher::new();
    for d in digests {
        d.hash(&mut h);
    }
    h.finish()
}

/// The answer-cache key and the budget's counted axes.
pub type RequestKey = (AnswerKey, Option<(Option<u64>, Option<u64>)>);

/// What makes two requests the same operation.
#[must_use]
pub fn request_key(request: &Request) -> RequestKey {
    (
        AnswerKey::of(request),
        request.budget.as_ref().map(|b| (b.max_blocks, b.max_forks)),
    )
}

/// Reference digests for `requests`, computing `reference` once per
/// distinct request.
pub fn memoised<K: std::hash::Hash + Eq, T>(
    items: &[T],
    key: impl Fn(&T) -> K,
    reference: impl Fn(&T) -> u64,
) -> Vec<u64> {
    let mut memo: HashMap<K, u64> = HashMap::new();
    items
        .iter()
        .map(|item| *memo.entry(key(item)).or_insert_with(|| reference(item)))
        .collect()
}
