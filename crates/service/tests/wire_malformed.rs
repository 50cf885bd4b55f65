//! The malformed-frame matrix (no failpoints): hostile or broken
//! clients must get typed replies where framing allows one, must never
//! wedge the server, and must not leak handler threads.

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sortnet_combinat::ChannelVec;
use sortnet_faults::universe::StandardUniverse;
use sortnet_network::builders::batcher::odd_even_merge_sort;
use sortnet_network::error::EngineError;
use sortnet_network::Network;
use sortnet_service::wire::{
    encode_request, read_frame, write_frame, WireServer, WireServerConfig, MAX_FRAME,
};
use sortnet_service::{Query, Request, Service, ServiceConfig, ServiceError};
use sortnet_testsets::verify::{Property, Strategy};

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
    std::env::temp_dir().join(format!("sortnet-mal-{tag}-{}.sock", std::process::id()))
}

/// Live threads of this process, from `/proc/self/status`.
fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("proc status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|rest| rest.trim().parse().ok())
        .expect("Threads: line")
}

/// Asserts the server still answers a well-formed request.
fn assert_served(path: &std::path::Path) {
    let mut stream = UnixStream::connect(path).expect("connect");
    write_frame(&mut stream, &encode_request(&coverage_request(6))).expect("write");
    let reply = read_frame(&mut stream)
        .expect("read")
        .expect("a reply frame");
    let reply = sortnet_service::wire::decode_response(&reply).expect("decode");
    assert!(reply.outcome.is_ok(), "the server still serves: {reply:?}");
}

#[test]
fn zero_length_frames_get_a_typed_reply_and_the_connection_survives() {
    let service = Arc::new(Service::start(ServiceConfig::default()));
    let path = socket_path("zero");
    let _server = WireServer::bind(&path, service).expect("bind");
    let mut stream = UnixStream::connect(&path).expect("connect");
    // A zero-length frame is valid framing carrying an empty payload:
    // the decoder refuses it, typed, and the framing stays in sync.
    stream.write_all(&0u32.to_le_bytes()).expect("write");
    let reply = read_frame(&mut stream).expect("read").expect("a reply");
    let reply = sortnet_service::wire::decode_response(&reply).expect("decode");
    match &reply.outcome {
        Err(text) => assert!(
            text.starts_with("malformed request:"),
            "typed refusal, got {text:?}"
        ),
        Ok(_) => panic!("an empty payload must not decode"),
    }
    // Same connection, now a well-formed request: still served.
    write_frame(&mut stream, &encode_request(&coverage_request(6))).expect("write");
    let reply = read_frame(&mut stream).expect("read").expect("a reply");
    let reply = sortnet_service::wire::decode_response(&reply).expect("decode");
    assert!(reply.outcome.is_ok());
}

#[test]
fn oversized_length_prefixes_get_a_typed_reply_then_a_close() {
    let service = Arc::new(Service::start(ServiceConfig::default()));
    let path = socket_path("oversized");
    let _server = WireServer::bind(&path, service).expect("bind");
    let mut stream = UnixStream::connect(&path).expect("connect");
    stream
        .write_all(&(MAX_FRAME + 1).to_le_bytes())
        .expect("write");
    // Past an oversized prefix there is no resynchronising, but the
    // refusal itself is still a well-formed typed reply...
    let reply = read_frame(&mut stream).expect("read").expect("a reply");
    let reply = sortnet_service::wire::decode_response(&reply).expect("decode");
    match &reply.outcome {
        Err(text) => assert!(text.contains("over MAX_FRAME"), "got {text:?}"),
        Ok(_) => panic!("an oversized prefix must not answer"),
    }
    // ...followed by a close.
    assert!(
        matches!(read_frame(&mut stream), Ok(None)),
        "the connection must be closed after the refusal"
    );
    assert_served(&path);
}

#[test]
fn truncated_length_prefix_and_mid_frame_disconnects_do_not_wedge() {
    let service = Arc::new(Service::start(ServiceConfig::default()));
    let path = socket_path("truncated");
    let _server = WireServer::bind(&path, service).expect("bind");
    {
        // Two bytes of length prefix, then hang up.
        let mut stream = UnixStream::connect(&path).expect("connect");
        stream.write_all(&[0x10, 0x00]).expect("write");
    }
    {
        // A full prefix promising 100 bytes, 10 delivered, then gone.
        let mut stream = UnixStream::connect(&path).expect("connect");
        stream.write_all(&100u32.to_le_bytes()).expect("write");
        stream.write_all(&[0xAB; 10]).expect("write");
    }
    assert_served(&path);
}

#[test]
fn a_mid_frame_stall_is_cut_by_the_read_timeout() {
    let service = Arc::new(Service::start(ServiceConfig::default()));
    let path = socket_path("stall");
    let _server = WireServer::bind_with(
        &path,
        service,
        WireServerConfig {
            read_timeout: Duration::from_millis(100),
            ..WireServerConfig::default()
        },
    )
    .expect("bind");
    let mut stream = UnixStream::connect(&path).expect("connect");
    // Promise 100 bytes, deliver 10, then stall (slow loris).  The
    // server must cut the connection at the read timeout, not wait for
    // the rest forever.
    stream.write_all(&100u32.to_le_bytes()).expect("write");
    stream.write_all(&[0xCD; 10]).expect("write");
    let started = Instant::now();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut buf = [0u8; 16];
    let n = stream.read(&mut buf).expect("the cut reads as EOF");
    assert_eq!(n, 0, "the server hung up on the stalled frame");
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "the cut must come from the read timeout, not the idle reaper"
    );
    assert_served(&path);
}

#[test]
fn hostile_connections_do_not_leak_handler_threads() {
    let service = Arc::new(Service::start(ServiceConfig::default()));
    let path = socket_path("leak");
    let server = WireServer::bind_with(
        &path,
        service,
        WireServerConfig {
            read_timeout: Duration::from_millis(100),
            reap_interval: Duration::from_millis(50),
            ..WireServerConfig::default()
        },
    )
    .expect("bind");
    assert_served(&path); // settle the lazy parts of the stack
    let baseline = thread_count();
    for round in 0..12 {
        let mut stream = UnixStream::connect(&path).expect("connect");
        match round % 3 {
            0 => stream.write_all(&[0x01]).expect("write"),
            1 => {
                stream.write_all(&64u32.to_le_bytes()).expect("write");
                stream.write_all(&[0xEE; 5]).expect("write");
            }
            _ => {
                stream.write_all(&0u32.to_le_bytes()).expect("write");
                let _ = read_frame(&mut stream);
            }
        }
        drop(stream);
    }
    // Handlers exit on EOF/timeout and the reaper collects them; the
    // thread count must come back to the baseline and the registry to
    // empty (both are asynchronous — poll with a generous deadline).
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let threads = thread_count();
        let connections = server.connections();
        if threads <= baseline && connections == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "handlers leaked: {threads} threads (baseline {baseline}), \
             {connections} registry entries"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    assert_served(&path);
}

#[test]
fn an_odd_line_merger_verify_is_refused_without_a_panic_or_quarantine() {
    // A merger merges two sorted halves, so a 5-line merger verify has
    // no answer.  A wire client can still send one; it must come back as
    // the typed refusal on the first attempt, under every strategy, and
    // leave no panic (hence no retry) and no quarantine entry behind.
    let service = Arc::new(Service::start(ServiceConfig::default()));
    let path = socket_path("odd-merger");
    let _server = WireServer::bind(&path, Arc::clone(&service)).expect("bind");
    let mut stream = UnixStream::connect(&path).expect("connect");
    let refusal = ServiceError::Engine(EngineError::OddMerger { lines: 5 }).to_string();
    for strategy in [
        Strategy::Exhaustive,
        Strategy::MinimalBinary,
        Strategy::Permutation,
    ] {
        let request = Request {
            network: Network::empty(5),
            query: Query::Verify {
                property: Property::Merger,
                strategy,
            },
            budget: None,
            deadline: None,
        };
        write_frame(&mut stream, &encode_request(&request)).expect("write");
        let reply = read_frame(&mut stream)
            .expect("read")
            .expect("a reply frame");
        let reply = sortnet_service::wire::decode_response(&reply).expect("decode");
        assert_eq!(reply.outcome, Err(refusal.clone()), "{strategy:?}");
    }
    let stats = service.stats();
    assert_eq!(stats.panics, 0, "the refusal must not be a caught panic");
    assert_eq!(stats.quarantined, 0);
    assert_served(&path);
}
