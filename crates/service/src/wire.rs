//! A minimal wire front: length-prefixed binary frames over a Unix
//! domain socket.
//!
//! Framing: every message is `[u32 LE length][payload]`.  Payloads are
//! hand-rolled little-endian binary (the workspace builds without
//! serde's real derive machinery), with one byte of tag per enum.
//!
//! A request payload opens with the one encoding of its (network, query),
//! test lists packed `⌊64/n⌋` vectors to a word for `n ≤ 32`: the exact
//! key of the answer cache and the quarantine ledger
//! ([`AnswerKey`](crate::oracle::AnswerKey)).  The budget and deadline
//! follow.  Only canonical payloads decode, so a decoded request
//! re-encodes to its bytes, and no claimed count allocates more than the
//! payload can back.
//!
//! The response payload is a **compact summary** — coverage reports ship
//! their counts and statistics but not the per-fault lists, and typed
//! engine errors ship as their pinned display text.  Budgets cross the
//! wire as the counted axes only (`max_blocks`, `max_forks`) plus the
//! deadline as a **relative remaining-ms budget** (an absolute
//! `Instant` means nothing to another process; the decoder re-anchors
//! it at arrival).  Cancel tokens are process-local by nature and stay
//! on the in-process API.
//!
//! The server ([`WireServer::bind`]) accepts connections on a
//! background thread and answers each connection's frames in order
//! through a shared [`Service`].  [`WireClient`] is the matching
//! blocking caller.  This front intentionally stays small: one
//! request–response exchange per frame, no pipelining, no auth.
//!
//! Both ends are hardened ([`WireServerConfig`], [`WireClientConfig`]):
//! the server puts a read/write deadline on every connection (a peer
//! that stalls **mid-frame** is cut off — the slow-loris defense) and
//! runs an idle reaper that shuts down connections silent past
//! `idle_timeout`; the client can retry a failed call on a fresh
//! connection under capped, seeded-jitter exponential backoff, with a
//! per-call timeout so a dead server costs bounded time.  Requests are
//! re-encoded per attempt, so a retried deadline ships its *shrunken*
//! remaining budget.

use std::io::{self, Read, Write};
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sortnet_combinat::{channel_words, BitString, ChannelVec};
use sortnet_faults::coverage::RedundancyMode;
use sortnet_faults::universe::StandardUniverse;
use sortnet_network::budget::{BudgetReason, SweepBudget, SweepProgress};
use sortnet_network::lanes::PackedFamily;
use sortnet_network::Network;
use sortnet_testsets::verify::{Property, Strategy};

use crate::failpoint;
use crate::loadgen::SplitMix64;
use crate::oracle::{Answer, CacheStatus, Completion, Query, Request, Response};
use crate::pool::Service;

/// Largest accepted frame (16 MiB) — a submitted query should never be
/// near this; the cap bounds a malformed length prefix.
pub const MAX_FRAME: u32 = 16 << 20;

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Writes one `[len][payload]` frame.
///
/// # Errors
/// Propagates socket write errors; refuses payloads over [`MAX_FRAME`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| bad("frame too large"))?;
    if len > MAX_FRAME {
        return Err(bad("frame too large"));
    }
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame; `Ok(None)` is a clean EOF at a frame boundary.
///
/// # Errors
/// Propagates socket read errors; refuses length prefixes over
/// [`MAX_FRAME`].
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    match r.read_exact(&mut len_bytes) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME {
        return Err(bad("frame length over MAX_FRAME"));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

// ---- primitive put/take helpers ----------------------------------------

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}
fn put_bool(out: &mut Vec<u8>, v: bool) {
    put_u8(out, u8::from(v));
}
fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}
fn put_option_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => put_u8(out, 0),
        Some(v) => {
            put_u8(out, 1);
            put_u64(out, v);
        }
    }
}

struct Take<'a> {
    buf: &'a [u8],
}

impl<'a> Take<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf }
    }
    fn bytes(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.buf.len() < n {
            return Err(bad("truncated payload"));
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }
    /// Refuses `count` items of at least `size` bytes each when the
    /// payload holds fewer bytes, before anything is allocated for them.
    fn claim(&self, count: usize, size: usize) -> io::Result<()> {
        if count.saturating_mul(size) > self.buf.len() {
            return Err(bad("truncated payload"));
        }
        Ok(())
    }
    /// `count` little-endian words, bounds-checked as a whole before any
    /// is read, so a claimed count the payload cannot hold costs nothing.
    fn words(&mut self, count: usize) -> io::Result<impl Iterator<Item = u64> + 'a> {
        let bytes = self.bytes(count.saturating_mul(8))?;
        Ok(bytes
            .chunks_exact(8)
            .map(|word| u64::from_le_bytes(word.try_into().unwrap())))
    }
    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.bytes(1)?[0])
    }
    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> io::Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn bool(&mut self) -> io::Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            byte => Err(bad(format!("invalid bool byte {byte}"))),
        }
    }
    fn option_u64(&mut self) -> io::Result<Option<u64>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            tag => Err(bad(format!("unknown option tag {tag}"))),
        }
    }
    fn str(&mut self) -> io::Result<String> {
        let len = self.u32()? as usize;
        String::from_utf8(self.bytes(len)?.to_vec()).map_err(|_| bad("invalid utf-8"))
    }
    fn finished(&self) -> io::Result<()> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(bad("trailing bytes in payload"))
        }
    }
}

// ---- the one (network, query) encoding --------------------------------

fn put_network(out: &mut Vec<u8>, network: &Network) {
    out.reserve(8 + 8 * network.size());
    put_u32(out, network.lines() as u32);
    put_u32(out, network.size() as u32);
    for c in network.comparators() {
        put_u32(out, c.min_line() as u32);
        put_u32(out, c.max_line() as u32);
    }
}

fn take_network(t: &mut Take) -> io::Result<Network> {
    let lines = t.u32()? as usize;
    if !(1..=usize::from(u16::MAX)).contains(&lines) {
        return Err(bad(format!("line count {lines} out of range")));
    }
    let count = t.u32()? as usize;
    // A comparator is one word: its two lines, the smaller first.
    let comparators = t.words(count)?;
    let mut pairs = Vec::with_capacity(count);
    for word in comparators {
        let (a, b) = ((word & 0xFFFF_FFFF) as usize, (word >> 32) as usize);
        if a >= b || b >= lines {
            return Err(bad("comparator lines out of range or order"));
        }
        pairs.push((a, b));
    }
    Ok(Network::from_pairs(lines, &pairs))
}

/// Test-list tag: every vector has the list's one line count.
const UNIFORM: u8 = 0;
/// Test-list tag: the line counts differ.
const MIXED: u8 = 1;

/// Longest test list a payload may claim: its decoded vectors never take
/// more memory than a whole frame, however densely the wire packs them.
const MAX_TESTS: usize = MAX_FRAME as usize / std::mem::size_of::<ChannelVec>();

/// How many `n`-line vectors share a word of a uniform list: `⌊64/n⌋`
/// for `1 ≤ n ≤ 32`; otherwise each vector takes its own channel words.
fn per_word(n: usize) -> Option<usize> {
    (1..=32).contains(&n).then(|| 64 / n)
}

/// Writes a test list (every request and response list): `[count
/// u32][tag u8]`, then for a [`UNIFORM`] list `[n u32]` and the vectors,
/// `⌊64/n⌋` to a word, the first in the low bits, for `1 ≤ n ≤ 32`, else
/// their channel words; for a [`MIXED`] one `[n_i u32][words_i]` each.
fn put_tests(out: &mut Vec<u8>, tests: &[ChannelVec]) {
    let n = tests.first().map_or(0, ChannelVec::len);
    let uniform = tests.iter().all(|test| test.len() == n);
    put_u32(out, tests.len() as u32);
    put_u8(out, if uniform { UNIFORM } else { MIXED });
    if uniform {
        put_u32(out, n as u32);
        if let Some(k) = per_word(n) {
            out.reserve_exact(8 * tests.len().div_ceil(k));
            for chunk in tests.chunks(k) {
                // A vector's bits at and above `n` are zero.
                let word = chunk
                    .iter()
                    .rev()
                    .fold(0, |word, test| word << n | test.words()[0]);
                put_u64(out, word);
            }
            return;
        }
        out.reserve_exact(8 * tests.len() * channel_words(n));
    }
    for test in tests {
        if !uniform {
            put_u32(out, test.len() as u32);
        }
        for &word in test.words() {
            put_u64(out, word);
        }
    }
}

/// One `n`-line vector's channel words; a set bit at or above `n` is
/// not canonical and is refused.
fn take_vec(t: &mut Take, n: usize) -> io::Result<ChannelVec> {
    let words: Vec<u64> = t.words(channel_words(n))?.collect();
    let vector = ChannelVec::from_words(&words, n);
    if vector.words() != words {
        return Err(bad("non-zero padding bits"));
    }
    Ok(vector)
}

/// Reads a list written by [`put_tests`].  Only that exact encoding
/// decodes: set padding bits, a mixed tag on a uniform list and a line
/// count on an empty one are refused, so a decoded list re-encodes to the
/// bytes it came from.  The list's array is allocated only once the
/// payload is known to hold that many vectors.
fn take_tests(t: &mut Take) -> io::Result<Vec<ChannelVec>> {
    let count = t.u32()? as usize;
    if count > MAX_TESTS {
        return Err(bad("test count over frame budget"));
    }
    let mut tests = Vec::new();
    match t.u8()? {
        UNIFORM => {
            let n = t.u32()? as usize;
            if count == 0 && n != 0 {
                return Err(bad("an empty test list has no line count"));
            }
            if let Some(k) = per_word(n) {
                let words = t.words(count.div_ceil(k))?;
                tests.reserve_exact(count);
                for mut word in words {
                    for _ in 0..k.min(count - tests.len()) {
                        tests.push(ChannelVec::from_words(&[word], n));
                        word >>= n;
                    }
                    if word != 0 {
                        return Err(bad("non-zero padding bits"));
                    }
                }
            } else {
                t.claim(count, 8 * channel_words(n))?;
                tests.reserve_exact(count);
                for _ in 0..count {
                    tests.push(take_vec(t, n)?);
                }
            }
        }
        MIXED => {
            // A vector takes at least its line count and one word.
            t.claim(count, 12)?;
            tests.reserve_exact(count);
            for _ in 0..count {
                let n = t.u32()? as usize;
                tests.push(take_vec(t, n)?);
            }
            let n = tests.first().map_or(0, ChannelVec::len);
            if tests.iter().all(|test| test.len() == n) {
                return Err(bad("a uniform test list under the mixed tag"));
            }
        }
        tag => return Err(bad(format!("unknown test-list tag {tag}"))),
    }
    Ok(tests)
}

fn put_redundancy(out: &mut Vec<u8>, mode: RedundancyMode) {
    match mode {
        RedundancyMode::Skip => put_u8(out, 0),
        RedundancyMode::Exhaustive => put_u8(out, 1),
        RedundancyMode::RelativeTo(family) => {
            put_u8(out, 2);
            match family {
                PackedFamily::SortedStrings => put_u8(out, 0),
                PackedFamily::WeightAtMost(k) => {
                    put_u8(out, 1);
                    put_u32(out, k);
                }
                PackedFamily::SingleRuns => put_u8(out, 2),
                PackedFamily::NecessityWitnesses => put_u8(out, 3),
            }
        }
    }
}

fn take_redundancy(t: &mut Take) -> io::Result<RedundancyMode> {
    match t.u8()? {
        0 => Ok(RedundancyMode::Skip),
        1 => Ok(RedundancyMode::Exhaustive),
        2 => {
            let family = match t.u8()? {
                0 => PackedFamily::SortedStrings,
                1 => PackedFamily::WeightAtMost(t.u32()?),
                2 => PackedFamily::SingleRuns,
                3 => PackedFamily::NecessityWitnesses,
                tag => return Err(bad(format!("unknown family tag {tag}"))),
            };
            Ok(RedundancyMode::RelativeTo(family))
        }
        tag => Err(bad(format!("unknown redundancy tag {tag}"))),
    }
}

/// The value lists behind the one-byte tags: a value's tag is its index.
const STRATEGIES: [Strategy; 3] = [
    Strategy::Exhaustive,
    Strategy::MinimalBinary,
    Strategy::Permutation,
];
const REASONS: [BudgetReason; 4] = [
    BudgetReason::Blocks,
    BudgetReason::Forks,
    BudgetReason::Deadline,
    BudgetReason::Cancelled,
];
const CACHE_STATUSES: [CacheStatus; 3] = [CacheStatus::Hit, CacheStatus::Miss, CacheStatus::Bypass];

fn put_tag<T: PartialEq>(out: &mut Vec<u8>, all: &[T], value: &T) {
    let tag = all
        .iter()
        .position(|v| v == value)
        .expect("every value is listed");
    put_u8(out, tag as u8);
}

fn take_tag<T: Copy>(t: &mut Take, all: &[T], what: &str) -> io::Result<T> {
    let tag = t.u8()?;
    all.get(usize::from(tag))
        .copied()
        .ok_or_else(|| bad(format!("unknown {what} tag {tag}")))
}

/// Writes `request`'s network and query: the head of every request
/// payload, and the exact bytes of its [`AnswerKey`](crate::oracle::AnswerKey).
/// The budget and the deadline are not part of it.  Returns the length
/// of `out` once the network is written.
pub(crate) fn put_key(out: &mut Vec<u8>, request: &Request) -> usize {
    put_network(out, &request.network);
    let network_end = out.len();
    match &request.query {
        Query::Verify { property, strategy } => {
            put_u8(out, 0);
            // `k` is a full `u64`: a narrower field would give two
            // selectors one key.
            let (ptag, k) = match property {
                Property::Sorter => (0u8, 0),
                Property::Selector { k } => (1, *k as u64),
                Property::Merger => (2, 0),
            };
            put_u8(out, ptag);
            put_u64(out, k);
            put_tag(out, &STRATEGIES, strategy);
        }
        Query::Coverage {
            universe,
            tests,
            redundancy,
        } => {
            put_u8(out, 1);
            put_tag(out, &StandardUniverse::ALL, universe);
            put_redundancy(out, *redundancy);
            put_tests(out, tests);
        }
        Query::Augment { universe, tests } => {
            put_u8(out, 2);
            put_tag(out, &StandardUniverse::ALL, universe);
            put_tests(out, tests);
        }
    }
    network_end
}

fn take_query(t: &mut Take) -> io::Result<Query> {
    Ok(match t.u8()? {
        0 => {
            let ptag = t.u8()?;
            let k = usize::try_from(t.u64()?).map_err(|_| bad("selector k out of range"))?;
            let property = match (ptag, k) {
                (0, 0) => Property::Sorter,
                (1, k) => Property::Selector { k },
                (2, 0) => Property::Merger,
                (0 | 2, _) => return Err(bad("only a selector carries k")),
                (tag, _) => return Err(bad(format!("unknown property tag {tag}"))),
            };
            let strategy = take_tag(t, &STRATEGIES, "strategy")?;
            Query::Verify { property, strategy }
        }
        1 => Query::Coverage {
            universe: take_tag(t, &StandardUniverse::ALL, "universe")?,
            redundancy: take_redundancy(t)?,
            tests: take_tests(t)?,
        },
        2 => Query::Augment {
            universe: take_tag(t, &StandardUniverse::ALL, "universe")?,
            tests: take_tests(t)?,
        },
        tag => return Err(bad(format!("unknown query tag {tag}"))),
    })
}

/// Encodes a request payload (no frame prefix): the network and the
/// query, then the budget's counted axes and the deadline.
#[must_use]
pub fn encode_request(request: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    put_key(&mut out, request);
    match &request.budget {
        None => put_u8(&mut out, 0),
        Some(budget) => {
            put_u8(&mut out, 1);
            put_option_u64(&mut out, budget.max_blocks);
            put_option_u64(&mut out, budget.max_forks);
        }
    }
    // Relative remaining budget at encode time; an expired deadline
    // ships as 0 ms and the server answers it typed.
    put_option_u64(
        &mut out,
        request.deadline.map(|deadline| {
            let remaining = deadline.saturating_duration_since(Instant::now());
            u64::try_from(remaining.as_millis()).unwrap_or(u64::MAX)
        }),
    );
    out
}

/// Decodes a request payload.  Only canonical payloads decode, so a
/// decoded request re-encodes to the same bytes (the deadline up to the
/// time that passed).
///
/// # Errors
/// [`io::ErrorKind::InvalidData`] on any malformed payload.
pub fn decode_request(payload: &[u8]) -> io::Result<Request> {
    let mut t = Take::new(payload);
    let network = take_network(&mut t)?;
    let query = take_query(&mut t)?;
    let budget = match t.u8()? {
        0 => None,
        1 => {
            let mut budget = SweepBudget::unlimited();
            budget.max_blocks = t.option_u64()?;
            budget.max_forks = t.option_u64()?;
            Some(budget)
        }
        tag => return Err(bad(format!("unknown budget tag {tag}"))),
    };
    // checked_add: a hostile u64::MAX must be a typed decode error, not
    // an Instant-arithmetic panic.
    let deadline = t
        .option_u64()?
        .map(|ms| Instant::now().checked_add(Duration::from_millis(ms)))
        .map(|deadline| deadline.ok_or_else(|| bad("deadline out of range")))
        .transpose()?;
    t.finished()?;
    Ok(Request {
        network,
        query,
        budget,
        deadline,
    })
}

/// The compact coverage summary the wire ships (no per-fault lists).
#[derive(Clone, Debug, PartialEq)]
pub struct CoverageSummary {
    /// Total faults in the universe.
    pub total_faults: u64,
    /// Faults proven redundant.
    pub redundant_faults: u64,
    /// Faults detected by the submitted set.
    pub detected: u64,
    /// Detectable faults the set missed (or left undecided).
    pub missed: u64,
    /// `detected / (total - redundant)` as the engine computed it.
    pub coverage: f64,
    /// Mean 1-based first-detection index over detected faults.
    pub mean_first_detection: f64,
    /// Max 1-based first-detection index.
    pub max_first_detection: u64,
    /// Provenance of the redundancy grading (`"exhaustive"`,
    /// `"relative:<family>"` or `"skipped"`), exactly as the report
    /// named it.
    pub redundancy: String,
}

/// A wire-shaped answer (see module docs for what is summarised away).
#[derive(Clone, Debug, PartialEq)]
pub enum WireAnswer {
    /// Verify outcome; the witness is `(word, n)` of the failing input.
    Verify {
        /// Whether the property held.
        passed: bool,
        /// Tests evaluated.
        tests_run: u64,
        /// A failing input, when `passed` is false.
        witness: Option<(u64, u32)>,
    },
    /// Coverage summary.
    Coverage(CoverageSummary),
    /// Augmentation outcome, with the suggested vectors in full.
    Augment {
        /// Missed faults the augmentation must cover.
        missed: u64,
        /// Candidates streamed through the matrix.
        candidates_considered: u64,
        /// Greedy augmentation.
        greedy: Vec<ChannelVec>,
        /// Best augmentation found.
        minimum: Vec<ChannelVec>,
        /// Root lower bound.
        lower_bound: u64,
        /// Whether `minimum` is certified optimal over the pool.
        certified: bool,
    },
}

/// A wire-shaped response: typed errors collapse to their pinned
/// display text.
#[derive(Clone, Debug, PartialEq)]
pub struct WireResponse {
    /// The answer or the engine's refusal text.
    pub outcome: Result<WireAnswer, String>,
    /// Complete vs budget-degraded.
    pub completion: Completion,
    /// Cache participation.
    pub cache: CacheStatus,
    /// Service-side processing latency in microseconds.
    pub micros: u64,
}

/// Compacts an in-process [`Response`] into its wire shape.
#[must_use]
pub fn compact(response: &Response) -> WireResponse {
    let outcome = match &response.outcome {
        Err(e) => Err(e.to_string()),
        Ok(Answer::Verify(report)) => Ok(WireAnswer::Verify {
            passed: report.passed,
            tests_run: report.tests_run as u64,
            witness: report
                .witness
                .as_ref()
                .map(|w: &BitString| (w.word(), w.len() as u32)),
        }),
        Ok(Answer::Coverage(report)) => Ok(WireAnswer::Coverage(CoverageSummary {
            total_faults: report.total_faults as u64,
            redundant_faults: report.redundant_faults as u64,
            detected: report.detected as u64,
            missed: report.missed as u64,
            coverage: report.coverage,
            mean_first_detection: report.mean_first_detection,
            max_first_detection: report.max_first_detection as u64,
            redundancy: report.redundancy.clone(),
        })),
        Ok(Answer::Augment(summary)) => Ok(WireAnswer::Augment {
            missed: summary.missed as u64,
            candidates_considered: summary.candidates_considered as u64,
            greedy: summary.greedy.clone(),
            minimum: summary.minimum.clone(),
            lower_bound: summary.lower_bound as u64,
            certified: summary.certified,
        }),
    };
    WireResponse {
        outcome,
        completion: response.completion,
        cache: response.cache,
        micros: response.micros,
    }
}

/// Encodes a response payload (no frame prefix).
#[must_use]
pub fn encode_response(response: &WireResponse) -> Vec<u8> {
    let mut out = Vec::new();
    match &response.outcome {
        Err(text) => {
            put_u8(&mut out, 0);
            put_str(&mut out, text);
        }
        Ok(WireAnswer::Verify {
            passed,
            tests_run,
            witness,
        }) => {
            put_u8(&mut out, 1);
            put_bool(&mut out, *passed);
            put_u64(&mut out, *tests_run);
            match witness {
                None => put_u8(&mut out, 0),
                Some((word, n)) => {
                    put_u8(&mut out, 1);
                    put_u64(&mut out, *word);
                    put_u32(&mut out, *n);
                }
            }
        }
        Ok(WireAnswer::Coverage(s)) => {
            put_u8(&mut out, 2);
            put_u64(&mut out, s.total_faults);
            put_u64(&mut out, s.redundant_faults);
            put_u64(&mut out, s.detected);
            put_u64(&mut out, s.missed);
            put_f64(&mut out, s.coverage);
            put_f64(&mut out, s.mean_first_detection);
            put_u64(&mut out, s.max_first_detection);
            put_str(&mut out, &s.redundancy);
        }
        Ok(WireAnswer::Augment {
            missed,
            candidates_considered,
            greedy,
            minimum,
            lower_bound,
            certified,
        }) => {
            put_u8(&mut out, 3);
            put_u64(&mut out, *missed);
            put_u64(&mut out, *candidates_considered);
            put_tests(&mut out, greedy);
            put_tests(&mut out, minimum);
            put_u64(&mut out, *lower_bound);
            put_bool(&mut out, *certified);
        }
    }
    match response.completion {
        Completion::Complete => put_u8(&mut out, 0),
        Completion::Partial { reason, progress } => {
            put_u8(&mut out, 1);
            put_tag(&mut out, &REASONS, &reason);
            put_u64(&mut out, progress.blocks);
            put_u64(&mut out, progress.vectors);
            put_u64(&mut out, progress.forks);
        }
    }
    put_tag(&mut out, &CACHE_STATUSES, &response.cache);
    put_u64(&mut out, response.micros);
    out
}

/// Decodes a response payload.
///
/// # Errors
/// [`io::ErrorKind::InvalidData`] on any malformed payload.
pub fn decode_response(payload: &[u8]) -> io::Result<WireResponse> {
    let mut t = Take::new(payload);
    let outcome = match t.u8()? {
        0 => Err(t.str()?),
        1 => {
            let passed = t.bool()?;
            let tests_run = t.u64()?;
            let witness = match t.u8()? {
                0 => None,
                1 => Some((t.u64()?, t.u32()?)),
                tag => return Err(bad(format!("unknown witness tag {tag}"))),
            };
            Ok(WireAnswer::Verify {
                passed,
                tests_run,
                witness,
            })
        }
        2 => Ok(WireAnswer::Coverage(CoverageSummary {
            total_faults: t.u64()?,
            redundant_faults: t.u64()?,
            detected: t.u64()?,
            missed: t.u64()?,
            coverage: t.f64()?,
            mean_first_detection: t.f64()?,
            max_first_detection: t.u64()?,
            redundancy: t.str()?,
        })),
        3 => Ok(WireAnswer::Augment {
            missed: t.u64()?,
            candidates_considered: t.u64()?,
            greedy: take_tests(&mut t)?,
            minimum: take_tests(&mut t)?,
            lower_bound: t.u64()?,
            certified: t.bool()?,
        }),
        tag => return Err(bad(format!("unknown outcome tag {tag}"))),
    };
    let completion = match t.u8()? {
        0 => Completion::Complete,
        1 => {
            let reason = take_tag(&mut t, &REASONS, "reason")?;
            Completion::Partial {
                reason,
                progress: SweepProgress {
                    blocks: t.u64()?,
                    vectors: t.u64()?,
                    forks: t.u64()?,
                },
            }
        }
        tag => return Err(bad(format!("unknown completion tag {tag}"))),
    };
    let cache = take_tag(&mut t, &CACHE_STATUSES, "cache")?;
    let micros = t.u64()?;
    t.finished()?;
    Ok(WireResponse {
        outcome,
        completion,
        cache,
        micros,
    })
}

// ---- server and client --------------------------------------------------

/// Locks through poisoning — the registry's invariants hold between
/// operations and no panic site sits inside it.
fn locked<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Connection-handling knobs of a [`WireServer`].
#[derive(Clone, Copy, Debug)]
pub struct WireServerConfig {
    /// Longest one read slice may block.  A peer silent **mid-frame**
    /// for this long is disconnected (slow-loris defense); silence at a
    /// frame boundary is mere idleness, judged by `idle_timeout`.
    pub read_timeout: Duration,
    /// Longest one reply write may block.
    pub write_timeout: Duration,
    /// A connection with no completed traffic for this long is shut
    /// down by the reaper.
    pub idle_timeout: Duration,
    /// How often the reaper scans for idle and finished connections.
    pub reap_interval: Duration,
}

impl Default for WireServerConfig {
    fn default() -> Self {
        Self {
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            idle_timeout: Duration::from_secs(60),
            reap_interval: Duration::from_millis(200),
        }
    }
}

/// One live connection as the reaper sees it.
struct Conn {
    /// A `try_clone` of the handler's stream — lets the reaper shut an
    /// idle connection down without racing the handler's reads.
    stream: UnixStream,
    /// Milliseconds since the server epoch of the last completed
    /// frame (written by the handler, read by the reaper).
    last_active: Arc<AtomicU64>,
    done: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

/// A Unix-socket server answering framed requests through a shared
/// [`Service`].  Dropping the handle stops the accept loop, shuts every
/// open connection down, joins all threads and removes the socket file;
/// the accept loop also removes the file itself when it exits through
/// an error path, so a crashed server never leaves a stale socket
/// behind.
pub struct WireServer {
    path: PathBuf,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    reaper: Option<JoinHandle<()>>,
    registry: Arc<Mutex<Vec<Conn>>>,
}

impl WireServer {
    /// Binds `path` with the default [`WireServerConfig`].
    ///
    /// # Errors
    /// Propagates bind failures.
    pub fn bind(path: impl AsRef<Path>, service: Arc<Service>) -> io::Result<Self> {
        Self::bind_with(path, service, WireServerConfig::default())
    }

    /// Binds `path` (removing a stale socket file first) and starts the
    /// accept loop and the idle-connection reaper.
    ///
    /// # Errors
    /// Propagates bind failures.
    pub fn bind_with(
        path: impl AsRef<Path>,
        service: Arc<Service>,
        config: WireServerConfig,
    ) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path)?;
        let stop = Arc::new(AtomicBool::new(false));
        let registry: Arc<Mutex<Vec<Conn>>> = Arc::new(Mutex::new(Vec::new()));
        let epoch = Instant::now();
        let accept = {
            let stop = Arc::clone(&stop);
            let registry = Arc::clone(&registry);
            let path = path.clone();
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    // Chaos site: a fatal accept error — the loop must
                    // exit through the same cleanup as a real one.
                    if failpoint::should_fire("accept-error") {
                        break;
                    }
                    let Ok(stream) = stream else { break };
                    if stream.set_read_timeout(Some(config.read_timeout)).is_err()
                        || stream
                            .set_write_timeout(Some(config.write_timeout))
                            .is_err()
                    {
                        continue;
                    }
                    let Ok(reaper_stream) = stream.try_clone() else {
                        continue;
                    };
                    let last_active = Arc::new(AtomicU64::new(epoch.elapsed().as_millis() as u64));
                    let done = Arc::new(AtomicBool::new(false));
                    let handle = {
                        let service = Arc::clone(&service);
                        let stop = Arc::clone(&stop);
                        let last_active = Arc::clone(&last_active);
                        let done = Arc::clone(&done);
                        std::thread::spawn(move || {
                            let _ = serve_connection(stream, &service, &stop, epoch, &last_active);
                            done.store(true, Ordering::Release);
                        })
                    };
                    locked(&registry).push(Conn {
                        stream: reaper_stream,
                        last_active,
                        done,
                        handle: Some(handle),
                    });
                }
                // The socket file goes away however the accept loop
                // exits — clean stop or error path — not only through
                // the handle's Drop, so no stale socket survives a
                // crashed accept loop.
                let _ = std::fs::remove_file(&path);
            })
        };
        let reaper = {
            let stop = Arc::clone(&stop);
            let registry = Arc::clone(&registry);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(config.reap_interval);
                    let now_ms = epoch.elapsed().as_millis() as u64;
                    let mut registry = locked(&registry);
                    registry.retain_mut(|conn| {
                        if conn.done.load(Ordering::Acquire) {
                            if let Some(handle) = conn.handle.take() {
                                let _ = handle.join();
                            }
                            return false;
                        }
                        let idle_ms =
                            now_ms.saturating_sub(conn.last_active.load(Ordering::Relaxed));
                        if Duration::from_millis(idle_ms) >= config.idle_timeout {
                            let _ = conn.stream.shutdown(Shutdown::Both);
                        }
                        true
                    });
                }
            })
        };
        Ok(Self {
            path,
            stop,
            accept: Some(accept),
            reaper: Some(reaper),
            registry,
        })
    }

    /// The socket path the server listens on.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// How many connections are currently registered (live handlers
    /// plus finished ones the reaper has not collected yet).
    #[must_use]
    pub fn connections(&self) -> usize {
        locked(&self.registry).len()
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Unblock the accept loop with a throwaway connection.
        let _ = UnixStream::connect(&self.path);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        for conn in locked(&self.registry).iter() {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        if let Some(handle) = self.reaper.take() {
            let _ = handle.join();
        }
        for mut conn in locked(&self.registry).drain(..) {
            if let Some(handle) = conn.handle.take() {
                let _ = handle.join();
            }
        }
        // Fallback: the accept thread already removed the file on its
        // way out; harmless if the path is gone.
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Reads exactly `buf.len()` bytes through a timeout-bearing stream.
///
/// Returns `Ok(false)` on a clean EOF **before any byte** when
/// `idle_ok` (a frame boundary — the peer simply hung up).  Silence at
/// a boundary is tolerated indefinitely (the reaper owns idleness);
/// silence or EOF mid-buffer is an error — that is the slow-loris cut.
fn read_full(
    stream: &mut UnixStream,
    buf: &mut [u8],
    idle_ok: bool,
    stop: &AtomicBool,
) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 && idle_ok {
                    return Ok(false);
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer disconnected mid-frame",
                ));
            }
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if filled == 0 && idle_ok {
                    if stop.load(Ordering::Relaxed) {
                        return Ok(false);
                    }
                    continue;
                }
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "read stalled mid-frame",
                ));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

fn malformed(detail: impl std::fmt::Display) -> WireResponse {
    WireResponse {
        outcome: Err(format!("malformed request: {detail}")),
        completion: Completion::Complete,
        cache: CacheStatus::Bypass,
        micros: 0,
    }
}

fn write_reply(stream: &mut UnixStream, reply: &WireResponse) -> io::Result<()> {
    let payload = encode_response(reply);
    if failpoint::should_fire("torn-frame") {
        // Half a frame, then hang up — the client sees a truncated
        // reply and must retry on a fresh connection.
        stream.write_all(&(payload.len() as u32).to_le_bytes())?;
        stream.write_all(&payload[..payload.len() / 2])?;
        stream.flush()?;
        return Err(io::Error::other("torn-frame failpoint"));
    }
    write_frame(stream, &payload)
}

fn serve_connection(
    mut stream: UnixStream,
    service: &Service,
    stop: &AtomicBool,
    epoch: Instant,
    last_active: &AtomicU64,
) -> io::Result<()> {
    loop {
        // Chaos site: the server dawdling before its read — lets the
        // client's call timeout and retry path fire.
        failpoint::maybe_sleep("slow-read");
        let mut len_bytes = [0u8; 4];
        if !read_full(&mut stream, &mut len_bytes, true, stop)? {
            return Ok(());
        }
        let len = u32::from_le_bytes(len_bytes);
        if len > MAX_FRAME {
            // Typed refusal, then close: past an oversized length
            // prefix there is no way to resynchronise the framing.
            let _ = write_reply(
                &mut stream,
                &malformed(format!("frame length {len} over MAX_FRAME")),
            );
            return Err(bad("frame length over MAX_FRAME"));
        }
        let mut payload = vec![0u8; len as usize];
        read_full(&mut stream, &mut payload, false, stop)?;
        last_active.store(epoch.elapsed().as_millis() as u64, Ordering::Relaxed);
        let reply = match decode_request(&payload) {
            Ok(request) => compact(&service.submit(request)),
            // The framing is still intact (we consumed exactly the
            // declared length): answer typed and keep serving.
            Err(e) => malformed(e),
        };
        write_reply(&mut stream, &reply)?;
        last_active.store(epoch.elapsed().as_millis() as u64, Ordering::Relaxed);
    }
}

/// Retry and timeout knobs of a [`WireClient`].
#[derive(Clone, Copy, Debug)]
pub struct WireClientConfig {
    /// Timeout applied to each socket read/write slice of a call
    /// (`None` blocks forever).  A timed-out call counts as failed and
    /// is retried like any other error.
    pub call_timeout: Option<Duration>,
    /// Retries after the first failed attempt (0 = fail fast).  Each
    /// retry reconnects — a torn or desynchronised stream is never
    /// reused.
    pub retries: u32,
    /// First backoff sleep; doubles per retry.
    pub backoff_base: Duration,
    /// Ceiling on the backoff sleep.
    pub backoff_cap: Duration,
    /// Seed of the jitter RNG (each sleep is uniform in
    /// `[backoff/2, backoff]` — deterministic per seed).
    pub seed: u64,
}

impl Default for WireClientConfig {
    fn default() -> Self {
        Self {
            call_timeout: None,
            retries: 0,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(500),
            seed: 0x5EED_0B0E,
        }
    }
}

/// A blocking client for the framed protocol, with optional per-call
/// timeouts and capped-exponential-backoff retries.
pub struct WireClient {
    path: PathBuf,
    config: WireClientConfig,
    stream: Option<UnixStream>,
    rng: SplitMix64,
    retries_used: u64,
}

impl WireClient {
    /// Connects to a [`WireServer`] socket with the default
    /// [`WireClientConfig`] (no timeout, no retries).
    ///
    /// # Errors
    /// Propagates connection failures.
    pub fn connect(path: impl AsRef<Path>) -> io::Result<Self> {
        Self::connect_with(path, WireClientConfig::default())
    }

    /// Connects with explicit retry/timeout behaviour.  The first
    /// connection is made eagerly so an unreachable server fails here,
    /// not on the first call.
    ///
    /// # Errors
    /// Propagates connection failures.
    pub fn connect_with(path: impl AsRef<Path>, config: WireClientConfig) -> io::Result<Self> {
        let mut client = Self {
            path: path.as_ref().to_path_buf(),
            config,
            stream: None,
            rng: SplitMix64::new(config.seed),
            retries_used: 0,
        };
        client.ensure_stream()?;
        Ok(client)
    }

    /// Reconnects (total calls minus first attempts) performed so far.
    #[must_use]
    pub fn retries_used(&self) -> u64 {
        self.retries_used
    }

    fn ensure_stream(&mut self) -> io::Result<&mut UnixStream> {
        if self.stream.is_none() {
            let stream = UnixStream::connect(&self.path)?;
            stream.set_read_timeout(self.config.call_timeout)?;
            stream.set_write_timeout(self.config.call_timeout)?;
            self.stream = Some(stream);
        }
        Ok(self.stream.as_mut().expect("stream just ensured"))
    }

    fn call_once(&mut self, request: &Request) -> io::Result<WireResponse> {
        // Encoded per attempt: the deadline crosses the wire as
        // *remaining* time, so a retry ships its shrunken budget.
        let payload = encode_request(request);
        let stream = self.ensure_stream()?;
        write_frame(stream, &payload)?;
        match read_frame(stream)? {
            Some(reply) => decode_response(&reply),
            None => Err(bad("server closed the connection mid-call")),
        }
    }

    fn backoff(&mut self, attempt: u32) -> Duration {
        let doubled = self
            .config
            .backoff_base
            .saturating_mul(1u32 << (attempt - 1).min(16));
        let capped = doubled.min(self.config.backoff_cap);
        let micros = u64::try_from(capped.as_micros()).unwrap_or(u64::MAX);
        let jitter = if micros >= 2 {
            self.rng.next_u64() % (micros / 2 + 1)
        } else {
            0
        };
        Duration::from_micros(micros / 2 + jitter)
    }

    /// One request–response exchange, retried per the client config.
    /// Any failed attempt (connect, write, read, timeout, malformed or
    /// truncated reply) drops the connection; retries start from a
    /// fresh one after a capped, jittered exponential backoff.
    ///
    /// # Errors
    /// The last attempt's error once retries are exhausted.
    pub fn call(&mut self, request: &Request) -> io::Result<WireResponse> {
        let mut attempt = 0u32;
        loop {
            match self.call_once(request) {
                Ok(response) => return Ok(response),
                Err(error) => {
                    // The stream's framing is suspect after any error.
                    self.stream = None;
                    if attempt >= self.config.retries {
                        return Err(error);
                    }
                    attempt += 1;
                    self.retries_used += 1;
                    std::thread::sleep(self.backoff(attempt));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(request: &Request) -> Request {
        decode_request(&encode_request(request)).expect("roundtrip")
    }

    #[test]
    fn request_payloads_roundtrip() {
        let network = Network::from_pairs(96, &[(0, 95), (3, 64)]);
        let tests = vec![ChannelVec::zeros(96), ChannelVec::ones(96)];
        let requests = [
            Request {
                network: Network::from_pairs(6, &[(0, 1), (2, 3)]),
                query: Query::Verify {
                    property: Property::Selector { k: 2 },
                    strategy: Strategy::Permutation,
                },
                budget: None,
                deadline: None,
            },
            Request {
                network: network.clone(),
                query: Query::Coverage {
                    universe: StandardUniverse::StuckLine,
                    tests: tests.clone(),
                    redundancy: RedundancyMode::RelativeTo(PackedFamily::SortedStrings),
                },
                budget: Some(SweepBudget::unlimited().with_max_blocks(7)),
                deadline: None,
            },
            Request {
                network: network.clone(),
                query: Query::Coverage {
                    universe: StandardUniverse::StuckLinePairs,
                    tests: tests.clone(),
                    redundancy: RedundancyMode::RelativeTo(PackedFamily::WeightAtMost(3)),
                },
                budget: None,
                deadline: None,
            },
            Request {
                network: network.clone(),
                query: Query::Coverage {
                    universe: StandardUniverse::SingleComparator,
                    tests: tests.clone(),
                    redundancy: RedundancyMode::Skip,
                },
                budget: None,
                deadline: None,
            },
            Request {
                network,
                query: Query::Augment {
                    universe: StandardUniverse::SingleComparator,
                    tests,
                },
                budget: Some(
                    SweepBudget::unlimited()
                        .with_max_blocks(1)
                        .with_max_forks(2),
                ),
                deadline: None,
            },
        ];
        for request in &requests {
            let back = roundtrip_request(request);
            assert_eq!(back.network, request.network);
            assert_eq!(back.query, request.query);
            match (&back.budget, &request.budget) {
                (None, None) => {}
                (Some(b), Some(a)) => {
                    assert_eq!(b.max_blocks, a.max_blocks);
                    assert_eq!(b.max_forks, a.max_forks);
                }
                other => panic!("budget shape changed: {other:?}"),
            }
            assert_eq!(back.deadline, None);
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn request(network: Network, query: Query) -> Request {
        Request {
            network,
            query,
            budget: None,
            deadline: None,
        }
    }

    #[test]
    fn request_bytes_are_pinned_per_query_kind() {
        let bit = |s: &str| ChannelVec::parse(s);
        let verify = request(
            Network::from_pairs(4, &[(0, 1), (3, 2)]),
            Query::Verify {
                property: Property::Selector { k: 2 },
                strategy: Strategy::MinimalBinary,
            },
        );
        // Three 4-line vectors share one word, the first in the low bits.
        let coverage = request(
            Network::from_pairs(4, &[(0, 1)]),
            Query::Coverage {
                universe: StandardUniverse::StuckLine,
                tests: vec![bit("0011"), bit("0101"), bit("1111")],
                redundancy: RedundancyMode::RelativeTo(PackedFamily::WeightAtMost(3)),
            },
        );
        // Mixed line counts: each vector states its own, and a budget tail.
        let mut augment = request(
            Network::from_pairs(3, &[(0, 2)]),
            Query::Augment {
                universe: StandardUniverse::SingleComparator,
                tests: vec![bit("001"), bit("01")],
            },
        );
        augment.budget = Some(SweepBudget::unlimited().with_max_blocks(7));
        // Past 32 lines each vector takes its channel words.
        let wide = request(
            Network::from_pairs(96, &[(0, 95)]),
            Query::Coverage {
                universe: StandardUniverse::SingleComparator,
                tests: vec![ChannelVec::zeros(96), ChannelVec::ones(96)],
                redundancy: RedundancyMode::Skip,
            },
        );
        // One string each for the network ([lines][comparator count] and
        // [min max] per comparator), the query tag and fields, the test list
        // ([count][tag][n][words]) and the budget and deadline tail.
        let pinned: [(&Request, &[&str]); 4] = [
            (
                &verify,
                &[
                    "04000000 02000000 00000000 01000000 02000000 03000000",
                    "00 01 0200000000000000 01",
                    "00 00",
                ],
            ),
            (
                &coverage,
                &[
                    "04000000 01000000 00000000 01000000",
                    "01 01 02 01 03000000",
                    "03000000 00 04000000 ac0f000000000000",
                    "00 00",
                ],
            ),
            (
                &augment,
                &[
                    "03000000 01000000 00000000 02000000",
                    "02 00",
                    "02000000 01 03000000 0400000000000000 02000000 0200000000000000",
                    "01 01 0700000000000000 00 00",
                ],
            ),
            (
                &wide,
                &[
                    "60000000 01000000 00000000 5f000000",
                    "01 00 00",
                    "02000000 00 60000000 0000000000000000 0000000000000000 \
                     ffffffffffffffff ffffffff00000000",
                    "00 00",
                ],
            ),
        ];
        for (request, fields) in pinned {
            let payload = encode_request(request);
            let bytes = fields.concat().replace(' ', "");
            assert_eq!(hex(&payload), bytes, "{:?}", request.query);
            assert_eq!(encode_request(&roundtrip_request(request)), payload);
        }
    }

    #[test]
    fn the_loadgen_workload_round_trips_with_equal_keys() {
        use crate::loadgen::{workload, LoadgenOptions};
        use crate::oracle::AnswerKey;
        let requests = workload(&LoadgenOptions {
            queries: 4096,
            ..LoadgenOptions::default()
        });
        assert_eq!(requests.len(), 4096);
        for (i, request) in requests.iter().enumerate() {
            let payload = encode_request(request);
            let back = roundtrip_request(request);
            assert_eq!(AnswerKey::of(&back), AnswerKey::of(request), "request {i}");
            assert_eq!(encode_request(&back), payload, "request {i}");
        }
    }

    #[test]
    fn only_canonical_payloads_decode() {
        let bit = |s: &str| ChannelVec::parse(s);
        let coverage = |network: Network, tests: Vec<ChannelVec>| {
            encode_request(&request(
                network,
                Query::Coverage {
                    universe: StandardUniverse::StuckLine,
                    tests,
                    redundancy: RedundancyMode::Skip,
                },
            ))
        };
        let refused = |payload: &[u8], why: &str| {
            let err = decode_request(payload).expect_err(why);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{why}");
            assert!(err.to_string().contains(why), "{why}: got {err}");
        };
        let network = Network::from_pairs(4, &[(0, 1)]);
        // The list starts after the network (16 bytes) and three tag bytes:
        // [count u32][tag][n u32][words].
        let list = 19;
        let packed = coverage(network.clone(), vec![bit("0011"), bit("0101")]);
        assert_eq!(&packed[list..list + 9], &[2, 0, 0, 0, 0, 4, 0, 0, 0]);
        // A bit above the two 4-line vectors of the one word.
        let mut padded = packed.clone();
        padded[list + 10] |= 0x01;
        refused(&padded, "non-zero padding bits");
        // A bit above the line count of a one-vector-per-word list.
        let mut padded = coverage(network.clone(), vec![ChannelVec::zeros(40)]);
        padded[list + 9 + 5] = 0x01;
        refused(&padded, "non-zero padding bits");
        // The mixed tag on a list whose line counts agree.
        let mut mixed = coverage(network.clone(), vec![bit("0011"), bit("011")]);
        assert_eq!(mixed[list + 4], MIXED);
        mixed[list + 17] = 4;
        refused(&mixed, "a uniform test list under the mixed tag");
        // A line count on an empty list.
        let mut empty = coverage(network.clone(), vec![]);
        empty[list + 5] = 4;
        refused(&empty, "an empty test list has no line count");
        // Comparators name the smaller line first, and a network has lines.
        let mut swapped = packed.clone();
        swapped[8..16].copy_from_slice(&[1, 0, 0, 0, 0, 0, 0, 0]);
        refused(&swapped, "comparator lines out of range or order");
        let mut no_lines = coverage(Network::empty(1), vec![]);
        no_lines[0] = 0;
        refused(&no_lines, "line count 0 out of range");
        let mut too_wide = no_lines.clone();
        too_wide[..4].copy_from_slice(&65_536u32.to_le_bytes());
        refused(&too_wide, "line count 65536 out of range");
        // Only a selector carries k.
        let mut sorter = encode_request(&request(
            network.clone(),
            Query::Verify {
                property: Property::Sorter,
                strategy: Strategy::Exhaustive,
            },
        ));
        sorter[18] = 3;
        refused(&sorter, "only a selector carries k");
        // Option and bool bytes are 0 or 1.
        let mut budget = packed.clone();
        let at = budget.len() - 2;
        budget[at] = 1;
        budget.splice(at + 1..at + 1, [2, 0]);
        refused(&budget, "unknown option tag 2");
        let mut reply = encode_response(&WireResponse {
            outcome: Ok(WireAnswer::Verify {
                passed: true,
                tests_run: 1,
                witness: None,
            }),
            completion: Completion::Complete,
            cache: CacheStatus::Miss,
            micros: 0,
        });
        reply[1] = 2;
        let err = decode_response(&reply).expect_err("a bool byte of 2");
        assert!(err.to_string().contains("invalid bool byte 2"), "got {err}");
    }

    #[test]
    fn deadlines_cross_the_wire_as_remaining_budget() {
        let mut request = Request {
            network: Network::from_pairs(4, &[(0, 1)]),
            query: Query::Verify {
                property: Property::Sorter,
                strategy: Strategy::MinimalBinary,
            },
            budget: None,
            deadline: Some(Instant::now() + Duration::from_millis(5_000)),
        };
        let back = roundtrip_request(&request);
        let remaining = back
            .deadline
            .expect("deadline survives the wire")
            .saturating_duration_since(Instant::now());
        assert!(
            remaining > Duration::from_millis(4_000) && remaining <= Duration::from_millis(5_000),
            "re-anchored deadline keeps the remaining budget, got {remaining:?}"
        );
        // An already-expired deadline ships as zero remaining.
        request.deadline = Some(Instant::now() - Duration::from_millis(50));
        let back = roundtrip_request(&request);
        let remaining = back
            .deadline
            .expect("expired deadlines still cross the wire")
            .saturating_duration_since(Instant::now());
        assert!(remaining <= Duration::from_millis(1));
    }

    #[test]
    fn hostile_deadline_ms_is_a_typed_decode_error() {
        let mut payload = encode_request(&Request {
            network: Network::from_pairs(4, &[(0, 1)]),
            query: Query::Verify {
                property: Property::Sorter,
                strategy: Strategy::MinimalBinary,
            },
            budget: None,
            deadline: None,
        });
        // Rewrite the trailing deadline block: tag 1 + u64::MAX ms.
        assert_eq!(payload.pop(), Some(0), "trailing byte is the deadline tag");
        payload.push(1);
        payload.extend_from_slice(&u64::MAX.to_le_bytes());
        // The contract is "no panic": platforms where the Instant
        // arithmetic would overflow get a typed InvalidData error,
        // roomier ones an effectively-infinite deadline.
        match decode_request(&payload) {
            Ok(request) => {
                let deadline = request.deadline.expect("tag 1 carries a deadline");
                assert!(deadline > Instant::now() + Duration::from_secs(60 * 60 * 24 * 365));
            }
            Err(err) => assert_eq!(err.kind(), io::ErrorKind::InvalidData),
        }
    }

    #[test]
    fn response_payloads_roundtrip() {
        let responses = [
            WireResponse {
                outcome: Err("exhaustive 2^96 sweep refused; use test-set verification".into()),
                completion: Completion::Complete,
                cache: CacheStatus::Bypass,
                micros: 12,
            },
            WireResponse {
                outcome: Ok(WireAnswer::Verify {
                    passed: false,
                    tests_run: 57,
                    witness: Some((0b10, 6)),
                }),
                completion: Completion::Complete,
                cache: CacheStatus::Miss,
                micros: 3,
            },
            WireResponse {
                outcome: Ok(WireAnswer::Coverage(CoverageSummary {
                    total_faults: 10,
                    redundant_faults: 1,
                    detected: 8,
                    missed: 1,
                    coverage: 8.0 / 9.0,
                    mean_first_detection: 1.5,
                    max_first_detection: 4,
                    redundancy: "relative:sorted-strings".into(),
                })),
                completion: Completion::Partial {
                    reason: BudgetReason::Deadline,
                    progress: SweepProgress {
                        blocks: 3,
                        vectors: 192,
                        forks: 0,
                    },
                },
                cache: CacheStatus::Bypass,
                micros: 99,
            },
            WireResponse {
                outcome: Ok(WireAnswer::Augment {
                    missed: 2,
                    candidates_considered: 9,
                    greedy: vec![ChannelVec::ones(65)],
                    minimum: vec![ChannelVec::ones(65)],
                    lower_bound: 1,
                    certified: true,
                }),
                completion: Completion::Complete,
                cache: CacheStatus::Hit,
                micros: 7,
            },
        ];
        for response in &responses {
            let back = decode_response(&encode_response(response)).expect("roundtrip");
            assert_eq!(&back, response);
        }
    }

    #[test]
    fn malformed_payloads_are_typed_io_errors() {
        assert!(decode_request(&[]).is_err());
        assert!(decode_response(&[9, 9, 9]).is_err());
        // Trailing garbage is refused, not ignored.
        let mut payload = encode_request(&Request {
            network: Network::from_pairs(4, &[(0, 1)]),
            query: Query::Verify {
                property: Property::Sorter,
                strategy: Strategy::MinimalBinary,
            },
            budget: None,
            deadline: None,
        });
        payload.push(0xFF);
        assert!(decode_request(&payload).is_err());
    }

    #[test]
    fn unknown_redundancy_and_family_tags_are_typed_decode_errors() {
        let template = Request {
            network: Network::from_pairs(4, &[(0, 1)]),
            query: Query::Coverage {
                universe: StandardUniverse::StuckLine,
                tests: vec![],
                redundancy: RedundancyMode::Skip,
            },
            budget: None,
            deadline: None,
        };
        let payload = encode_request(&template);
        // The redundancy tag sits right after the network, the query tag
        // and the universe tag.
        let mut prefix = Vec::new();
        put_network(&mut prefix, &template.network);
        let mode_at = prefix.len() + 2;
        assert_eq!(payload[mode_at], 0, "skip encodes as tag 0");

        let mut bad_mode = payload.clone();
        bad_mode[mode_at] = 9;
        let err = decode_request(&bad_mode).expect_err("unknown redundancy tag");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("unknown redundancy tag 9"));

        // Tag 2 demands a family byte; an unknown one is refused too.
        let mut bad_family = payload;
        bad_family[mode_at] = 2;
        bad_family.insert(mode_at + 1, 7);
        let err = decode_request(&bad_family).expect_err("unknown family tag");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("unknown family tag 7"));
    }
}
