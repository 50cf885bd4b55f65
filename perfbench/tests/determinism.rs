//! Determinism self-test: the same seed gives the same operation
//! sequence, the same exact layer counts and the same answer digests; a
//! second seed gives a different sequence.

use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

use sortnet_perfbench::check::{digest_all, request_key};
use sortnet_perfbench::engine::{self, Grade};
use sortnet_perfbench::run::{self, CampaignCaller, WireCaller};
use sortnet_perfbench::trace::Tracer;
use sortnet_perfbench::workloads::{self, HELD_OUT_SEED, PINNED_SEED};
use sortnet_service::oracle::Request;
use sortnet_service::wire::{WireClient, WireServer};
use sortnet_service::Service;

fn grade_sequence(seed: u64) -> Vec<u64> {
    workloads::grade_ops(seed)
        .iter()
        .map(|g: &Grade| {
            let mut h = DefaultHasher::new();
            (&*g.network, g.universe, &*g.tests, g.mode).hash(&mut h);
            h.finish()
        })
        .collect()
}

fn request_sequence(requests: &[Request]) -> Vec<u64> {
    requests
        .iter()
        .map(|r| {
            let mut h = DefaultHasher::new();
            request_key(r).hash(&mut h);
            h.finish()
        })
        .collect()
}

fn campaign_sequence(seed: u64) -> Vec<u64> {
    let waves = workloads::campaign_waves(seed);
    assert!(waves.iter().all(|w| w.len() == workloads::WAVE));
    request_sequence(&waves.concat())
}

#[test]
fn a_seed_fixes_the_operation_sequence_of_every_workload() {
    for seed in [PINNED_SEED, HELD_OUT_SEED] {
        assert_eq!(grade_sequence(seed), grade_sequence(seed));
        assert_eq!(campaign_sequence(seed), campaign_sequence(seed));
        assert_eq!(
            request_sequence(&workloads::wire_requests(seed)),
            request_sequence(&workloads::wire_requests(seed))
        );
    }
    assert_ne!(grade_sequence(PINNED_SEED), grade_sequence(HELD_OUT_SEED));
    assert_ne!(
        campaign_sequence(PINNED_SEED),
        campaign_sequence(HELD_OUT_SEED)
    );
    assert_ne!(
        request_sequence(&workloads::wire_requests(PINNED_SEED)),
        request_sequence(&workloads::wire_requests(HELD_OUT_SEED))
    );
}

/// Exact counters and answer digests of a traced prefix.
type Trace = (BTreeMap<&'static str, u64>, u64);

fn exact(t: &Tracer, digests: Vec<u64>, names: &[&'static str]) -> Trace {
    let counts = names
        .iter()
        .map(|&name| (name, *t.counters().get(name).unwrap_or(&0)))
        .collect();
    (counts, digest_all(digests))
}

fn grade_prefix(seed: u64) -> Trace {
    let ops = workloads::grade_ops(seed);
    let mut t = Tracer::new(Instant::now());
    // The first eight slots hold dense and light grades of both modes.
    let digests = (0..8)
        .map(|i| {
            let sample = run::traced_grade(&mut t, i, &ops[i]);
            assert!(sample.ok, "replayed grade {i} differs from the whole call");
            sample.digest
        })
        .collect();
    exact(
        &t,
        digests,
        &[
            "lanes.vectors",
            "lanes.blocks",
            "faults.faults",
            "faults.fault_vector_pairs",
            "faults.redundancy_faults",
            "faults.redundant",
        ],
    )
}

fn campaign_prefix(seed: u64) -> Trace {
    let waves = workloads::campaign_waves(seed);
    let config = engine::service_config(run::WORKERS);
    let service = Service::start(config.clone());
    let mut caller = CampaignCaller::new(&config);
    // Waves 0..4 grade n = 8, 10, 12, 14: cheap, and every layer is hit.
    let digests = (0..4)
        .map(|i| {
            let sample = run::traced_wave(&mut caller, &service, i, &waves[i]);
            assert!(sample.ok, "replayed wave {i} differs from the service");
            sample.digest
        })
        .collect();
    let t = caller.take_tracer();
    exact(
        &t,
        digests,
        &[
            "lanes.vectors",
            "faults.faults",
            "faults.fault_vector_pairs",
            "testsets.verify_vectors",
            "testsets.set_cover_nodes",
            "service.shards",
            "service.hits",
            "service.misses",
            "service.evictions",
            "service.matrix_hits",
            "service.union_tests",
        ],
    )
}

fn wire_prefix(seed: u64) -> Trace {
    let requests = workloads::wire_requests(seed);
    let socket = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("determinism-{}-{seed}.sock", std::process::id()));
    let service = Arc::new(Service::start(engine::service_config(run::WORKERS)));
    let server = WireServer::bind(&socket, Arc::clone(&service)).expect("bind");
    let mut caller = WireCaller {
        client: WireClient::connect(&socket).expect("connect"),
        tracer: Tracer::new(Instant::now()),
    };
    let digests = (0..64)
        .map(|i| {
            let sample = run::traced_call(&mut caller, i, &requests[i]);
            assert!(sample.ok, "wire call {i} failed");
            sample.digest
        })
        .collect();
    let stats = service.stats();
    let mut t = std::mem::replace(&mut caller.tracer, Tracer::new(Instant::now()));
    drop(caller);
    drop(server);
    t.count("service.hits", stats.answers.hits);
    t.count("service.misses", stats.answers.misses);
    exact(
        &t,
        digests,
        &[
            "wire.request_bytes",
            "wire.response_bytes",
            "service.bypasses",
            "service.hits",
            "service.misses",
        ],
    )
}

#[test]
fn a_seed_fixes_exact_counts_and_answer_digests() {
    for prefix in [grade_prefix, campaign_prefix, wire_prefix] {
        let first = prefix(PINNED_SEED);
        assert_eq!(first, prefix(PINNED_SEED));
        assert!(
            first.0.values().filter(|&&v| v > 0).count() >= 3,
            "the prefix must exercise its layers: {first:?}"
        );
    }
}
