//! Lane-ops backends: how the bitwise kernels of a
//! [`WideBlock`](super::WideBlock) sweep are executed.
//!
//! Every sweep in the workspace bottoms out in three bitwise kernels over
//! `[u64; W]` lane words — the compare-exchange of one comparator, the
//! sortedness scan of a block's outputs, and the lane-difference scan of
//! the selector check.  A private `LaneOps` trait abstracts those
//! kernels, and a [`Backend`] selects one of two implementations at
//! runtime:
//!
//! * [`Backend::Scalar`] — the reference: one `u64` word at a time,
//!   exactly the loops the engine shipped with.  The default where AVX2
//!   is unavailable; tests and the scalar-reference paths name it
//!   explicitly.
//! * [`Backend::Avx2`] (`x86_64` only) — explicit 256-bit `core::arch`
//!   intrinsics (`_mm256_and_si256` / `_mm256_or_si256` /
//!   `_mm256_andnot_si256` / `_mm256_xor_si256` over unaligned 4-word
//!   loads), so one operation covers four lane words regardless of how
//!   the crate itself was compiled.  Selected only when
//!   `is_x86_feature_detected!("avx2")` confirms the CPU supports it.
//!
//! Both are **bit-identical** by construction — they compute the same
//! words in the same order, only the grouping of word operations differs —
//! and the differential suites (`proptest_lanes`, the fault-engine
//! differential universes) hold them to exact agreement.  Backends are
//! therefore freely mixable: a block evaluated by one backend can be forked
//! and continued by another.
//!
//! The AVX2 kernels are explicit intrinsics because plain word loops
//! inside the same `target_feature` shells lost AVX2's whole lead over
//! the scalar backend.
//!
//! # Dispatch granularity
//!
//! [`Backend::active`] resolves the process-wide default once by CPU
//! detection and is a cached read afterwards; nothing in the environment
//! overrides it.  Every other backend is reached only by passing it as a
//! value.
//! The hot entry points dispatch **per sweep loop**, not per word: e.g.
//! [`Backend::run_comparators`] matches once and then runs the whole
//! comparator range inside the selected implementation, so the AVX2 path is
//! one `target_feature` region with every intrinsic call inlined into the
//! loop.

// The AVX2 kernels are `core::arch` intrinsics over raw (unaligned) lane
// pointers, which is necessarily `unsafe`; this module confines all of it
// behind runtime feature detection (the crate is otherwise `deny(unsafe_code)`).
#![allow(unsafe_code)]

use std::sync::OnceLock;

use crate::comparator::Comparator;

/// The three bitwise kernels every sweep is built from, over `[u64; W]`
/// lane words.  Implementations must be bit-identical to [`ScalarOps`];
/// they may only regroup word operations.
trait LaneOps {
    /// Compare-exchange: `lo := lo & hi` (the minima), `hi := lo | hi` (the
    /// maxima), word by word — one comparator over `W × 64` vectors.
    fn compare_exchange<const W: usize>(lo: &mut [u64; W], hi: &mut [u64; W]);

    /// One line of the sortedness scan: `unsorted |= seen & !lane`, then
    /// `seen |= lane` (a vector is unsorted iff a 1 was seen on an earlier
    /// line where this line holds 0).
    fn sorted_scan_step<const W: usize>(
        lane: &[u64; W],
        seen: &mut [u64; W],
        unsorted: &mut [u64; W],
    );

    /// One line of the lane-difference scan: `acc |= a ^ b`.
    fn diff_accumulate<const W: usize>(a: &[u64; W], b: &[u64; W], acc: &mut [u64; W]);
}

/// The reference backend: plain one-word-at-a-time loops.
struct ScalarOps;

impl LaneOps for ScalarOps {
    #[inline]
    fn compare_exchange<const W: usize>(lo: &mut [u64; W], hi: &mut [u64; W]) {
        for w in 0..W {
            let (a, b) = (lo[w], hi[w]);
            lo[w] = a & b;
            hi[w] = a | b;
        }
    }

    #[inline]
    fn sorted_scan_step<const W: usize>(
        lane: &[u64; W],
        seen: &mut [u64; W],
        unsorted: &mut [u64; W],
    ) {
        for w in 0..W {
            unsorted[w] |= seen[w] & !lane[w];
            seen[w] |= lane[w];
        }
    }

    #[inline]
    fn diff_accumulate<const W: usize>(a: &[u64; W], b: &[u64; W], acc: &mut [u64; W]) {
        for w in 0..W {
            acc[w] |= a[w] ^ b[w];
        }
    }
}

/// Generic comparator-range driver: applies `comparators` in order to the
/// transposed lane array, using `O`'s compare-exchange kernel.
#[inline]
fn run_comparators_ops<const W: usize, O: LaneOps>(
    lanes: &mut [[u64; W]],
    comparators: &[Comparator],
) {
    for c in comparators {
        let (i, j) = (c.min_line(), c.max_line());
        let mut a = lanes[i];
        let mut b = lanes[j];
        O::compare_exchange(&mut a, &mut b);
        lanes[i] = a;
        lanes[j] = b;
    }
}

/// Generic sortedness-scan driver: ORs into `unsorted` a mask of the
/// vectors whose lane values are not nondecreasing down the lane array.
#[inline]
fn sorted_scan_ops<const W: usize, O: LaneOps>(lanes: &[[u64; W]], unsorted: &mut [u64; W]) {
    let mut seen = [0u64; W];
    for lane in lanes {
        O::sorted_scan_step(lane, &mut seen, unsorted);
    }
}

/// Generic lane-difference driver: ORs into `acc` a mask of the vectors on
/// which any paired lane of `a` and `b` differs.
#[inline]
fn diff_scan_ops<const W: usize, O: LaneOps>(a: &[[u64; W]], b: &[[u64; W]], acc: &mut [u64; W]) {
    for (x, y) in a.iter().zip(b) {
        O::diff_accumulate(x, y, acc);
    }
}

/// Generic fused driver: comparator range, then sortedness scan, in one
/// pass — the tail of every fault fork (run the suffix, grade the output),
/// fused so the fork pays a single dispatch.
#[inline]
fn run_scan_ops<const W: usize, O: LaneOps>(
    lanes: &mut [[u64; W]],
    comparators: &[Comparator],
    unsorted: &mut [u64; W],
) {
    run_comparators_ops::<W, O>(lanes, comparators);
    sorted_scan_ops::<W, O>(lanes, unsorted);
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! The AVX2 backend: 256-bit `core::arch` kernels plus
    //! `#[target_feature(enable = "avx2")]` shells around the generic
    //! drivers, so the whole sweep loop compiles as one AVX2 region.
    //!
    //! Everything here has the same precondition: **the CPU supports AVX2**
    //! ([`Backend::Avx2`](super::Backend::Avx2) is only dispatched after
    //! `is_x86_feature_detected!("avx2")`).

    use core::arch::x86_64::{
        __m256i, _mm256_and_si256, _mm256_andnot_si256, _mm256_loadu_si256, _mm256_or_si256,
        _mm256_storeu_si256, _mm256_xor_si256,
    };

    use super::{Comparator, LaneOps};

    /// Word granule of the kernels: 4 × `u64` = 256 bits, one vector.
    const LANE_CHUNK: usize = 4;

    /// Loads a [`LANE_CHUNK`]-word chunk as one 256-bit vector.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn load(chunk: &[u64; LANE_CHUNK]) -> __m256i {
        // SAFETY: `chunk` is 32 readable bytes; the unaligned-load intrinsic
        // has no alignment requirement.
        unsafe { _mm256_loadu_si256(chunk.as_ptr().cast::<__m256i>()) }
    }

    /// Stores one 256-bit vector back to a [`LANE_CHUNK`]-word chunk.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn store(chunk: &mut [u64; LANE_CHUNK], v: __m256i) {
        // SAFETY: `chunk` is 32 writable bytes; the unaligned-store
        // intrinsic has no alignment requirement.
        unsafe { _mm256_storeu_si256(chunk.as_mut_ptr().cast::<__m256i>(), v) }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn compare_exchange_avx2<const W: usize>(lo: &mut [u64; W], hi: &mut [u64; W]) {
        let (lo_chunks, lo_rest) = lo.as_chunks_mut::<LANE_CHUNK>();
        let (hi_chunks, hi_rest) = hi.as_chunks_mut::<LANE_CHUNK>();
        for (a, b) in lo_chunks.iter_mut().zip(hi_chunks) {
            let (va, vb) = (load(a), load(b));
            store(a, _mm256_and_si256(va, vb));
            store(b, _mm256_or_si256(va, vb));
        }
        for (x, y) in lo_rest.iter_mut().zip(hi_rest) {
            let (a, b) = (*x, *y);
            *x = a & b;
            *y = a | b;
        }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn sorted_scan_step_avx2<const W: usize>(
        lane: &[u64; W],
        seen: &mut [u64; W],
        unsorted: &mut [u64; W],
    ) {
        let (lane_chunks, lane_rest) = lane.as_chunks::<LANE_CHUNK>();
        let (seen_chunks, seen_rest) = seen.as_chunks_mut::<LANE_CHUNK>();
        let (uns_chunks, uns_rest) = unsorted.as_chunks_mut::<LANE_CHUNK>();
        for ((l, s), u) in lane_chunks.iter().zip(seen_chunks).zip(uns_chunks) {
            let (vl, vs) = (load(l), load(s));
            // andnot(a, b) = !a & b, so this is `seen & !lane`.
            store(u, _mm256_or_si256(load(u), _mm256_andnot_si256(vl, vs)));
            store(s, _mm256_or_si256(vs, vl));
        }
        for ((l, s), u) in lane_rest.iter().zip(seen_rest).zip(uns_rest) {
            *u |= *s & !*l;
            *s |= *l;
        }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn diff_accumulate_avx2<const W: usize>(a: &[u64; W], b: &[u64; W], acc: &mut [u64; W]) {
        let (a_chunks, a_rest) = a.as_chunks::<LANE_CHUNK>();
        let (b_chunks, b_rest) = b.as_chunks::<LANE_CHUNK>();
        let (acc_chunks, acc_rest) = acc.as_chunks_mut::<LANE_CHUNK>();
        for ((x, y), z) in a_chunks.iter().zip(b_chunks).zip(acc_chunks) {
            store(
                z,
                _mm256_or_si256(load(z), _mm256_xor_si256(load(x), load(y))),
            );
        }
        for ((x, y), z) in a_rest.iter().zip(b_rest).zip(acc_rest) {
            *z |= *x ^ *y;
        }
    }

    /// The AVX2 [`LaneOps`] implementation.  Every method requires a CPU
    /// with AVX2; the enclosing module keeps the type private so the only
    /// routes to it are the detection-guarded [`Backend`](super::Backend)
    /// dispatchers and the feature-enabled shells below.
    pub(super) struct Avx2Ops;

    impl LaneOps for Avx2Ops {
        #[inline]
        fn compare_exchange<const W: usize>(lo: &mut [u64; W], hi: &mut [u64; W]) {
            debug_assert!(is_x86_feature_detected!("avx2"));
            // SAFETY: only reachable through detection-guarded dispatch.
            unsafe { compare_exchange_avx2(lo, hi) }
        }

        #[inline]
        fn sorted_scan_step<const W: usize>(
            lane: &[u64; W],
            seen: &mut [u64; W],
            unsorted: &mut [u64; W],
        ) {
            debug_assert!(is_x86_feature_detected!("avx2"));
            // SAFETY: only reachable through detection-guarded dispatch.
            unsafe { sorted_scan_step_avx2(lane, seen, unsorted) }
        }

        #[inline]
        fn diff_accumulate<const W: usize>(a: &[u64; W], b: &[u64; W], acc: &mut [u64; W]) {
            debug_assert!(is_x86_feature_detected!("avx2"));
            // SAFETY: only reachable through detection-guarded dispatch.
            unsafe { diff_accumulate_avx2(a, b, acc) }
        }
    }

    /// Whole-loop shell: the generic comparator driver instantiated with
    /// [`Avx2Ops`] inside one `target_feature` region, so the kernels
    /// inline into the comparator loop.
    #[target_feature(enable = "avx2")]
    pub(super) fn run_comparators<const W: usize>(
        lanes: &mut [[u64; W]],
        comparators: &[Comparator],
    ) {
        super::run_comparators_ops::<W, Avx2Ops>(lanes, comparators);
    }

    /// Whole-loop shell for the sortedness scan (see [`run_comparators`]).
    #[target_feature(enable = "avx2")]
    pub(super) fn sorted_scan<const W: usize>(lanes: &[[u64; W]], unsorted: &mut [u64; W]) {
        super::sorted_scan_ops::<W, Avx2Ops>(lanes, unsorted);
    }

    /// Whole-loop shell for the lane-difference scan (see
    /// [`run_comparators`]).
    #[target_feature(enable = "avx2")]
    pub(super) fn diff_scan<const W: usize>(a: &[[u64; W]], b: &[[u64; W]], acc: &mut [u64; W]) {
        super::diff_scan_ops::<W, Avx2Ops>(a, b, acc);
    }

    /// Whole-loop shell for the fused run-and-scan (see
    /// [`run_comparators`]).
    #[target_feature(enable = "avx2")]
    pub(super) fn run_scan<const W: usize>(
        lanes: &mut [[u64; W]],
        comparators: &[Comparator],
        unsorted: &mut [u64; W],
    ) {
        super::run_scan_ops::<W, Avx2Ops>(lanes, comparators, unsorted);
    }
}

/// Panics unless the running CPU supports AVX2 — the guard that makes the
/// [`Backend::Avx2`] dispatch arms sound even for a hand-constructed enum
/// value (detection caches in an atomic, so the check is a load).
#[cfg(target_arch = "x86_64")]
#[inline]
fn assert_avx2() {
    assert!(
        is_x86_feature_detected!("avx2"),
        "Backend::Avx2 dispatched on a CPU without AVX2; use Backend::active()"
    );
}

/// Runtime selection of a lane-ops implementation.
///
/// [`Backend::active`] is the best backend the running CPU executes; any
/// other is chosen by passing it explicitly.  All backends produce bit-identical results.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Backend {
    /// One word at a time (the reference); runs on every architecture.
    Scalar,
    /// 256-bit `core::arch` intrinsics; `x86_64` with runtime-detected
    /// AVX2 only.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Backend {
    /// The best backend the running CPU executes: AVX2 when detected, else
    /// the scalar backend.  Resolved once and cached; the last entry of
    /// [`Backend::runnable`].
    #[must_use]
    pub fn active() -> Self {
        static ACTIVE: OnceLock<Backend> = OnceLock::new();
        *ACTIVE.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            if is_x86_feature_detected!("avx2") {
                return Self::Avx2;
            }
            Self::Scalar
        })
    }

    /// Every backend the running CPU can execute, scalar first and
    /// [`Backend::active`] last — the iteration set for differential tests
    /// and benchmark sweeps.
    #[must_use]
    pub fn runnable() -> Vec<Self> {
        #[allow(unused_mut)]
        let mut all = vec![Self::Scalar];
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            all.push(Self::Avx2);
        }
        all
    }

    /// Short lowercase name for reports, bench labels and logs.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Self::Scalar => "scalar",
            #[cfg(target_arch = "x86_64")]
            Self::Avx2 => "avx2",
        }
    }

    /// One compare-exchange on a pair of lane-word arrays (the single-op
    /// form used by fault injection; sweeps go through
    /// [`Backend::run_comparators`]).
    #[inline]
    pub fn compare_exchange<const W: usize>(self, lo: &mut [u64; W], hi: &mut [u64; W]) {
        match self {
            Self::Scalar => ScalarOps::compare_exchange(lo, hi),
            #[cfg(target_arch = "x86_64")]
            Self::Avx2 => {
                assert_avx2();
                avx2::Avx2Ops::compare_exchange(lo, hi);
            }
        }
    }

    /// Applies a comparator range to a transposed lane array — dispatches
    /// once, then runs the whole loop in the selected implementation.
    #[inline]
    pub fn run_comparators<const W: usize>(
        self,
        lanes: &mut [[u64; W]],
        comparators: &[Comparator],
    ) {
        // Fork-heavy fault sweeps issue many empty ranges (a lesion right
        // at the current cut position); skip the dispatch for those.
        if comparators.is_empty() {
            return;
        }
        match self {
            Self::Scalar => run_comparators_ops::<W, ScalarOps>(lanes, comparators),
            #[cfg(target_arch = "x86_64")]
            Self::Avx2 => {
                assert_avx2();
                // SAFETY: AVX2 support was just asserted.
                unsafe { avx2::run_comparators(lanes, comparators) }
            }
        }
    }

    /// ORs into `unsorted` the mask of vectors whose lane values are not
    /// nondecreasing down the lane array (the raw form of
    /// [`WideBlock::unsorted_masks_with`](super::WideBlock::unsorted_masks_with),
    /// before live-mask intersection).
    #[inline]
    pub fn sorted_scan<const W: usize>(self, lanes: &[[u64; W]], unsorted: &mut [u64; W]) {
        match self {
            Self::Scalar => sorted_scan_ops::<W, ScalarOps>(lanes, unsorted),
            #[cfg(target_arch = "x86_64")]
            Self::Avx2 => {
                assert_avx2();
                // SAFETY: AVX2 support was just asserted.
                unsafe { avx2::sorted_scan(lanes, unsorted) }
            }
        }
    }

    /// ORs into `acc` the mask of vectors on which any paired lane of `a`
    /// and `b` differs (the raw form of the selector-violation check).
    #[inline]
    pub fn diff_scan<const W: usize>(self, a: &[[u64; W]], b: &[[u64; W]], acc: &mut [u64; W]) {
        match self {
            Self::Scalar => diff_scan_ops::<W, ScalarOps>(a, b, acc),
            #[cfg(target_arch = "x86_64")]
            Self::Avx2 => {
                assert_avx2();
                // SAFETY: AVX2 support was just asserted.
                unsafe { avx2::diff_scan(a, b, acc) }
            }
        }
    }

    /// Fused [`Backend::run_comparators`] + [`Backend::sorted_scan`]: one
    /// dispatch runs the comparator range and ORs the raw sortedness mask
    /// of the result into `unsorted` — the per-fork tail of the
    /// fault-simulation sweeps.
    #[inline]
    pub fn run_scan<const W: usize>(
        self,
        lanes: &mut [[u64; W]],
        comparators: &[Comparator],
        unsorted: &mut [u64; W],
    ) {
        match self {
            Self::Scalar => run_scan_ops::<W, ScalarOps>(lanes, comparators, unsorted),
            #[cfg(target_arch = "x86_64")]
            Self::Avx2 => {
                assert_avx2();
                // SAFETY: AVX2 support was just asserted.
                unsafe { avx2::run_scan(lanes, comparators, unsorted) }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern<const W: usize>(seed: u64) -> [u64; W] {
        let mut out = [0u64; W];
        let mut x = seed | 1;
        for w in out.iter_mut() {
            // xorshift64 — deterministic, full-period word noise.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *w = x;
        }
        out
    }

    fn check_all_ops<const W: usize>() {
        let reference = Backend::Scalar;
        for backend in Backend::runnable() {
            for seed in [1u64, 0xDEAD_BEEF, u64::MAX] {
                let (mut lo_a, mut hi_a) = (pattern::<W>(seed), pattern::<W>(seed ^ 0x55));
                let (mut lo_b, mut hi_b) = (lo_a, hi_a);
                reference.compare_exchange(&mut lo_a, &mut hi_a);
                backend.compare_exchange(&mut lo_b, &mut hi_b);
                assert_eq!((lo_a, hi_a), (lo_b, hi_b), "{} W={W}", backend.name());

                let lanes: Vec<[u64; W]> = (0..7).map(|i| pattern::<W>(seed ^ (i * 977))).collect();
                let (mut uns_a, mut uns_b) = ([0u64; W], [0u64; W]);
                reference.sorted_scan(&lanes, &mut uns_a);
                backend.sorted_scan(&lanes, &mut uns_b);
                assert_eq!(uns_a, uns_b, "{} W={W}", backend.name());

                let other: Vec<[u64; W]> =
                    (0..7).map(|i| pattern::<W>(seed ^ (i * 31 + 5))).collect();
                let (mut acc_a, mut acc_b) = ([0u64; W], [0u64; W]);
                reference.diff_scan(&lanes, &other, &mut acc_a);
                backend.diff_scan(&lanes, &other, &mut acc_b);
                assert_eq!(acc_a, acc_b, "{} W={W}", backend.name());
            }
        }
    }

    #[test]
    fn every_runnable_backend_matches_scalar_on_every_width() {
        check_all_ops::<1>();
        check_all_ops::<2>();
        check_all_ops::<4>();
        check_all_ops::<5>(); // odd width exercises the chunk remainders
        check_all_ops::<8>();
        check_all_ops::<16>();
    }

    #[test]
    fn runnable_backends_start_with_scalar_and_have_distinct_names() {
        let all = Backend::runnable();
        assert_eq!(all[0], Backend::Scalar);
        let names: std::collections::HashSet<&str> = all.iter().map(|b| b.name()).collect();
        assert_eq!(names.len(), all.len());
    }

    #[test]
    fn the_default_backend_is_the_last_runnable_one() {
        // One default: the library's `Backend::active()` and the benchmark's
        // pinned `runnable().last()` are the same backend, and nothing in
        // the environment overrides it.
        assert_eq!(Backend::active(), *Backend::runnable().last().unwrap());
    }

    #[test]
    fn backends_compose_across_a_fork() {
        // A prefix evaluated by one backend and a suffix by another must
        // agree with a single-backend run: backends are freely mixable.
        let comparators: Vec<Comparator> = [(0usize, 2usize), (1, 3), (0, 1), (2, 3), (1, 2)]
            .iter()
            .map(|&(a, b)| Comparator::new(a, b))
            .collect();
        let make_lanes =
            || -> Vec<[u64; 4]> { (0..4).map(|i| pattern::<4>(i * 7919 + 1)).collect() };
        let mut whole = make_lanes();
        Backend::Scalar.run_comparators(&mut whole, &comparators);
        for backend in Backend::runnable() {
            let mut split = make_lanes();
            backend.run_comparators(&mut split, &comparators[..2]);
            Backend::Scalar.run_comparators(&mut split, &comparators[2..]);
            assert_eq!(split, whole, "{}", backend.name());
        }
    }
}
