//! Deterministic fault injection for the service and wire layers.
//!
//! A failpoint is a named site in production code that can be armed
//! from a test (or the grinder's chaos leg) to panic, sleep, or report
//! "fire now" on a **deterministic schedule** — every N-th passage or a
//! seeded per-mille coin flip ([`Schedule`]).  Every build carries the
//! registry; an unarmed site costs one atomic load per passage.
//!
//! The registry is **process-global**, so tests that arm failpoints
//! must serialise against each other (each integration-test binary is
//! its own process; within one binary, hold a shared mutex and call
//! [`reset`] when done).
//!
//! Site catalogue (see `docs/SERVICE.md`):
//!
//! | site           | placed at                                   | effect    |
//! |----------------|---------------------------------------------|-----------|
//! | `worker-panic` | per request inside `answer_batch`           | panic     |
//! | `worker-crash` | top of the worker loop, before any dequeue  | panic     |
//! | `queue-stall`  | after a worker drains a gulp                | sleep     |
//! | `torn-frame`   | the wire server's reply write path          | half-frame|
//! | `slow-read`    | top of the wire server's per-frame loop     | sleep     |
//! | `accept-error` | the wire server's accept loop               | loop exit |

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{LazyLock, Mutex};
use std::time::Duration;

/// When an armed failpoint fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Schedule {
    /// Fires on passages where `passage_index % every == offset`
    /// (0-based).  `Nth { every: 1, offset: 0 }` fires always; a huge
    /// `every` with `offset: 0` fires exactly once.
    Nth {
        /// Period of the schedule, in passages.
        every: u64,
        /// Which residue fires.
        offset: u64,
    },
    /// Fires on a seeded splitmix64 coin flip with probability
    /// `permille / 1000` per passage — deterministic for a seed, but
    /// with chaotic-looking spacing.
    Seeded {
        /// RNG seed; the same seed gives the same firing sequence.
        seed: u64,
        /// Firing probability in thousandths.
        permille: u16,
    },
}

struct Site {
    schedule: Schedule,
    rng: u64,
    passages: u64,
    fires: u64,
    sleep: Duration,
}

/// Fast-path gate: sites pay one atomic load when nothing is armed.
static ARMED: AtomicBool = AtomicBool::new(false);
static REGISTRY: LazyLock<Mutex<HashMap<&'static str, Site>>> =
    LazyLock::new(|| Mutex::new(HashMap::new()));

fn lock() -> std::sync::MutexGuard<'static, HashMap<&'static str, Site>> {
    REGISTRY
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Arms `name` on `schedule` with no sleep payload.
pub fn configure(name: &'static str, schedule: Schedule) {
    configure_sleep(name, schedule, Duration::ZERO);
}

/// Arms `name` on `schedule`; when the site is a sleep-style hook
/// ([`maybe_sleep`]) each firing sleeps `sleep`.
pub fn configure_sleep(name: &'static str, schedule: Schedule, sleep: Duration) {
    let seed = match schedule {
        Schedule::Seeded { seed, .. } => seed,
        Schedule::Nth { .. } => 0,
    };
    lock().insert(
        name,
        Site {
            schedule,
            rng: seed,
            passages: 0,
            fires: 0,
            sleep,
        },
    );
    ARMED.store(true, Ordering::Release);
}

/// Disarms every failpoint and clears all counters.
pub fn reset() {
    lock().clear();
    ARMED.store(false, Ordering::Release);
}

/// How many times `name` has fired since it was armed.
#[must_use]
pub fn fires(name: &str) -> u64 {
    lock().get(name).map_or(0, |s| s.fires)
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One passage through site `name`: advances its schedule and
/// returns the sleep payload when it fires.  Inlined, so an unarmed site
/// is the load of `ARMED` and a branch.
#[inline]
fn passage(name: &str) -> Option<Duration> {
    if !ARMED.load(Ordering::Acquire) {
        return None;
    }
    armed_passage(name)
}

/// [`passage`] once some site is armed.
#[cold]
fn armed_passage(name: &str) -> Option<Duration> {
    let mut registry = lock();
    let site = registry.get_mut(name)?;
    let index = site.passages;
    site.passages += 1;
    let fire = match site.schedule {
        Schedule::Nth { every, offset } => every != 0 && index % every == offset % every,
        Schedule::Seeded { permille, .. } => splitmix(&mut site.rng) % 1000 < u64::from(permille),
    };
    if fire {
        site.fires += 1;
        Some(site.sleep)
    } else {
        None
    }
}

/// `true` when this passage through `name` should inject its fault.
#[inline]
#[must_use]
pub fn should_fire(name: &str) -> bool {
    passage(name).is_some()
}

/// Panics (with a recognisable message) when the site fires.
///
/// # Panics
/// That is the point.  Call sites must sit under `catch_unwind`
/// supervision and must not hold locks whose invariants a panic
/// would tear.
#[inline]
pub fn maybe_panic(name: &str) {
    if should_fire(name) {
        panic!("failpoint {name} fired");
    }
}

/// Sleeps the site's configured payload when it fires.
#[inline]
pub fn maybe_sleep(name: &str) {
    if let Some(sleep) = passage(name) {
        if !sleep.is_zero() {
            std::thread::sleep(sleep);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};
    use std::time::Duration;

    /// The registry is process-global; registry tests serialise here.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> MutexGuard<'static, ()> {
        SERIAL
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn unarmed_sites_never_fire() {
        let _guard = serial();
        reset();
        assert!(!should_fire("worker-panic"));
        assert_eq!(fires("worker-panic"), 0);
        maybe_panic("worker-panic"); // must not panic
        maybe_sleep("queue-stall"); // must not sleep
    }

    #[test]
    fn nth_schedule_fires_on_its_residue() {
        let _guard = serial();
        reset();
        configure(
            "site-a",
            Schedule::Nth {
                every: 3,
                offset: 1,
            },
        );
        let fired: Vec<bool> = (0..9).map(|_| should_fire("site-a")).collect();
        assert_eq!(
            fired,
            [false, true, false, false, true, false, false, true, false]
        );
        assert_eq!(fires("site-a"), 3);
        reset();
        assert!(!should_fire("site-a"));
    }

    #[test]
    fn seeded_schedule_is_deterministic_for_a_seed() {
        let _guard = serial();
        reset();
        configure(
            "site-b",
            Schedule::Seeded {
                seed: 0xC0FF_EE00_5EED,
                permille: 400,
            },
        );
        let first: Vec<bool> = (0..64).map(|_| should_fire("site-b")).collect();
        reset();
        configure(
            "site-b",
            Schedule::Seeded {
                seed: 0xC0FF_EE00_5EED,
                permille: 400,
            },
        );
        let second: Vec<bool> = (0..64).map(|_| should_fire("site-b")).collect();
        assert_eq!(first, second);
        assert!(first.iter().any(|&f| f), "permille 400 fires within 64");
        assert!(!first.iter().all(|&f| f), "permille 400 also skips");
        reset();
    }

    #[test]
    fn maybe_panic_panics_only_when_armed() {
        let _guard = serial();
        reset();
        configure(
            "site-c",
            Schedule::Nth {
                every: 2,
                offset: 0,
            },
        );
        let caught =
            std::panic::catch_unwind(|| maybe_panic("site-c")).expect_err("first passage fires");
        let text = caught.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(text.contains("failpoint site-c fired"));
        maybe_panic("site-c"); // second passage: off-residue, no panic
        reset();
    }

    #[test]
    fn sleep_payload_is_applied_on_fire() {
        let _guard = serial();
        reset();
        configure_sleep(
            "site-d",
            Schedule::Nth {
                every: 1,
                offset: 0,
            },
            Duration::from_millis(15),
        );
        let start = std::time::Instant::now();
        maybe_sleep("site-d");
        assert!(start.elapsed() >= Duration::from_millis(10));
        reset();
    }
}
