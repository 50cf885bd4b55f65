//! End-to-end chaos tests: armed failpoints against a live service and
//! wire stack.
//!
//! The failpoint registry is process-global, so every test here
//! serialises on one mutex and resets the registry on entry and exit.

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use sortnet_combinat::ChannelVec;
use sortnet_faults::universe::StandardUniverse;
use sortnet_network::builders::batcher::odd_even_merge_sort;
use sortnet_service::failpoint::{self, Schedule};
use sortnet_service::wire::{WireClient, WireClientConfig, WireServer};
use sortnet_service::{Query, Request, Service, ServiceConfig, ServiceError};

static SERIAL: Mutex<()> = Mutex::new(());

/// Serialises a test against the global registry and guarantees a clean
/// slate before and after it (even when the test panics).
struct Chaos {
    _guard: MutexGuard<'static, ()>,
}

impl Chaos {
    fn begin() -> Self {
        let guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        failpoint::reset();
        Self { _guard: guard }
    }
}

impl Drop for Chaos {
    fn drop(&mut self) {
        failpoint::reset();
    }
}

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

fn socket_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("sortnet-chaos-{tag}-{}.sock", std::process::id()))
}

#[test]
fn a_persistently_panicking_request_is_quarantined_not_fatal() {
    let _chaos = Chaos::begin();
    // Every evaluation passage panics: the gulp dies, every solo retry
    // dies, and the quarantine ledger must end it with a typed reply.
    failpoint::configure(
        "worker-panic",
        Schedule::Nth {
            every: 1,
            offset: 0,
        },
    );
    let service = Service::start(ServiceConfig {
        workers: 1,
        panic_attempts: 2,
        ..ServiceConfig::default()
    });
    let response = service.submit(coverage_request(6));
    match &response.outcome {
        Err(ServiceError::WorkerPanicked { attempts }) => assert_eq!(*attempts, 2),
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
    let stats = service.stats();
    assert!(stats.panics >= 2, "both attempts were caught: {stats:?}");
    assert_eq!(stats.quarantined, 1);

    // The ledger outlives the failpoint: with panics disarmed, the same
    // request is still refused without touching the engine...
    failpoint::reset();
    let again = service.submit(coverage_request(6));
    assert!(
        matches!(again.outcome, Err(ServiceError::WorkerPanicked { .. })),
        "a quarantined request stays quarantined"
    );
    // ...while a different request answers normally — the service
    // survived every panic.
    assert!(service.submit(coverage_request(8)).outcome.is_ok());
}

#[test]
fn a_transient_panic_is_retried_and_forgiven() {
    let _chaos = Chaos::begin();
    // Fires exactly once (passage 0): the gulp dies, the solo retry
    // succeeds, and the ledger entry must be wiped by the success.
    failpoint::configure(
        "worker-panic",
        Schedule::Nth {
            every: u64::MAX,
            offset: 0,
        },
    );
    let service = Service::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let response = service.submit(coverage_request(6));
    assert!(response.outcome.is_ok(), "the retry answers: {response:?}");
    let stats = service.stats();
    assert_eq!(stats.panics, 1);
    assert_eq!(stats.quarantined, 0, "a recovered request is forgiven");
    // Resubmission takes the normal path (and may now hit the cache).
    assert!(service.submit(coverage_request(6)).outcome.is_ok());
}

#[test]
fn an_escaped_worker_panic_respawns_the_worker() {
    let _chaos = Chaos::begin();
    // The worker-crash site sits at the top of the worker loop, outside
    // the per-gulp guard: its panic escapes to the supervisor, which
    // must respawn the loop without losing any request.
    failpoint::configure(
        "worker-crash",
        Schedule::Nth {
            every: u64::MAX,
            offset: 0,
        },
    );
    let service = Service::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let response = service.submit(coverage_request(6));
    assert!(response.outcome.is_ok(), "the respawned worker answers");
    assert!(service.stats().worker_restarts >= 1);
}

#[test]
fn an_accept_loop_error_still_removes_the_socket_file() {
    let _chaos = Chaos::begin();
    // Regression: the accept loop used to leave the socket file behind
    // when it exited through the error path (only Drop removed it).
    failpoint::configure(
        "accept-error",
        Schedule::Nth {
            every: 1,
            offset: 0,
        },
    );
    let service = std::sync::Arc::new(Service::start(ServiceConfig::default()));
    let path = socket_path("accept-error");
    let server = WireServer::bind(&path, service).expect("bind");
    assert!(path.exists(), "the socket file exists while serving");
    // Any connection attempt wakes the accept loop; the armed failpoint
    // turns it into a fatal accept error.
    let _ = std::os::unix::net::UnixStream::connect(&path);
    let deadline = Instant::now() + Duration::from_secs(5);
    while path.exists() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        !path.exists(),
        "the error path must remove the socket file itself"
    );
    assert_eq!(failpoint::fires("accept-error"), 1);
    drop(server); // clean double-removal must be harmless
}

#[test]
fn a_torn_reply_frame_is_healed_by_the_retrying_client() {
    let _chaos = Chaos::begin();
    // Passage 0 tears the reply mid-frame; passage 1 is clean.
    failpoint::configure(
        "torn-frame",
        Schedule::Nth {
            every: 2,
            offset: 0,
        },
    );
    let service = std::sync::Arc::new(Service::start(ServiceConfig::default()));
    let path = socket_path("torn-frame");
    let server = WireServer::bind(&path, service).expect("bind");
    let mut client = WireClient::connect_with(
        &path,
        WireClientConfig {
            retries: 3,
            ..WireClientConfig::default()
        },
    )
    .expect("connect");
    let reply = client.call(&coverage_request(6)).expect("healed by retry");
    assert!(reply.outcome.is_ok(), "the retried call answers: {reply:?}");
    assert!(client.retries_used() >= 1, "the first reply was torn");
    assert!(failpoint::fires("torn-frame") >= 1);
    drop(server);
}

#[test]
fn a_stalled_server_read_is_healed_by_the_call_timeout() {
    let _chaos = Chaos::begin();
    // The first connection's handler dawdles 300 ms before reading; the
    // client gives a call 60 ms, so it must abandon the stalled
    // connection and succeed on a fresh one (passage 1: no sleep).
    failpoint::configure_sleep(
        "slow-read",
        Schedule::Nth {
            every: 2,
            offset: 0,
        },
        Duration::from_millis(300),
    );
    let service = std::sync::Arc::new(Service::start(ServiceConfig::default()));
    let path = socket_path("slow-read");
    let server = WireServer::bind(&path, service).expect("bind");
    let mut client = WireClient::connect_with(
        &path,
        WireClientConfig {
            call_timeout: Some(Duration::from_millis(60)),
            retries: 8,
            backoff_base: Duration::from_millis(2),
            ..WireClientConfig::default()
        },
    )
    .expect("connect");
    let reply = client.call(&coverage_request(6)).expect("healed by retry");
    assert!(reply.outcome.is_ok());
    assert!(client.retries_used() >= 1, "the stalled call timed out");
    drop(server);
}
