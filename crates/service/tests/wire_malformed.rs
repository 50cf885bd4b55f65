//! The malformed-frame matrix (no failpoints): hostile or broken
//! clients must get typed replies where framing allows one, must never
//! wedge the server, must not leak handler threads, and must not make the
//! decoder allocate for counts their payload cannot hold.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
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
    decode_request, decode_response, encode_request, read_frame, write_frame, WireServer,
    WireServerConfig, MAX_FRAME,
};
use sortnet_service::{Query, Request, Service, ServiceConfig, ServiceError};
use sortnet_testsets::verify::{Property, Strategy};

/// The system allocator, recording the largest single allocation the
/// current thread makes while a [`largest_allocation`] call is open.
struct Counting;

thread_local! {
    static LARGEST: Cell<Option<usize>> = const { Cell::new(None) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|largest| {
        if let Some(seen) = largest.get() {
            largest.set(Some(seen.max(size)));
        }
    });
}

// SAFETY: every method forwards its arguments to `System` unchanged, so
// `System` upholds the `GlobalAlloc` contract; `note` only touches a
// thread-local `Cell` with a const initialiser, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` contract is passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` contract is passed on as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`; the caller's contract is passed on as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f`, returning its result and the largest single allocation it
/// made on this thread.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|largest| largest.set(Some(0)));
    let out = f();
    let largest = LARGEST.with(|largest| largest.replace(None)).unwrap_or(0);
    (out, largest)
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

/// Little-endian payload bytes from `(value, width)` fields.
fn payload(fields: &[(u64, usize)]) -> Vec<u8> {
    fields
        .iter()
        .flat_map(|&(value, width)| value.to_le_bytes()[..width].to_vec())
        .collect()
}

#[test]
fn claimed_counts_allocate_only_what_the_payload_holds() {
    // A 4-line network with no comparators, then a coverage query's tags
    // (stuck-line, no redundancy): the test list follows.
    let coverage_head = [(4, 4), (0, 4), (1, 1), (1, 1), (0, 1)];
    let with_head = |tail: &[(u64, usize)]| payload(&[&coverage_head[..], tail].concat());
    let requests = [
        ("comparator count 2e6", payload(&[(4, 4), (2_000_000, 4)])),
        ("test count 2e6", with_head(&[(2_000_000, 4)])),
        (
            "uniform list of 2e5",
            with_head(&[(200_000, 4), (0, 1), (4, 4)]),
        ),
        (
            "mixed list of 6e5",
            with_head(&[(600_000, 4), (1, 1), (4, 4), (0, 8)]),
        ),
        (
            "one vector of u32::MAX lines",
            with_head(&[(1, 4), (0, 1), (u64::from(u32::MAX), 4)]),
        ),
        (
            "mixed vector of u32::MAX lines",
            with_head(&[(2, 4), (1, 1), (u64::from(u32::MAX), 4)]),
        ),
    ];
    for (what, bytes) in &requests {
        let (decoded, largest) = largest_allocation(|| decode_request(bytes));
        assert!(decoded.is_err(), "{what} must not decode");
        assert!(largest <= MAX_FRAME as usize, "{what}: {largest} bytes");
        assert!(largest <= 8 * bytes.len(), "{what}: {largest} bytes");
    }
    // An augment answer's lists and an error text decode the same way.
    let responses = [
        (
            "augment list of 6e5",
            payload(&[(3, 1), (0, 8), (0, 8), (600_000, 4), (1, 1)]),
        ),
        (
            "error text of 4 GiB",
            payload(&[(0, 1), (u64::from(u32::MAX), 4)]),
        ),
    ];
    for (what, bytes) in &responses {
        let (decoded, largest) = largest_allocation(|| decode_response(bytes));
        assert!(decoded.is_err(), "{what} must not decode");
        assert!(largest <= 8 * bytes.len(), "{what}: {largest} bytes");
    }
}
