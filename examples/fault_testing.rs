//! The §1 VLSI-testing motivation, made concrete: inject every fault of a
//! chosen *universe* into a Batcher sorter and compare how well the
//! paper's minimal test set and random input sampling detect them.
//!
//! ```text
//! cargo run -p sortnet-cli --example fault_testing --release            # every universe
//! cargo run -p sortnet-cli --example fault_testing --release -- stuck-line
//! cargo run -p sortnet-cli --example fault_testing --release -- pairs
//! ```
//!
//! Universes: `single` (single-comparator faults), `stuck-line`
//! (stuck-at-0/1 wire segments), `pairs` (2-subsets of the
//! single-comparator universe), `stuck-pairs` (2-subsets of the stuck-line
//! universe).  The richer universes contain *undetectable* faults (e.g. a
//! stuck input segment of a correct sorter is re-sorted away), so coverage
//! is graded against the detectable ones — and the run prints which
//! detectable faults the minimal Theorem 2.2 set still misses, the faults
//! the paper's 0/1 sets were *not* constructed for.  Whenever the set is
//! incomplete, the run also prints the **provably smallest augmentation**
//! (`sortnet_testsets::augment`): the certified minimum set of extra
//! vectors restoring completeness, searched over all `2^n` candidates.

use sortnet_combinat::{BitString, ChannelVec};
use sortnet_faults::universe::{Lesion, MultiFault, StuckAt};
use sortnet_faults::{
    coverage_of_universe_budgeted_packed_with, try_coverage_of_universe_packed_with, Budgeted,
    FaultSimEngine, FaultUniverse, RedundancyMode, StandardUniverse, SweepBudget,
};
use sortnet_network::builders::batcher::odd_even_merge_sort;
use sortnet_network::lanes::{Backend, LaneWidth};
use sortnet_network::random::NetworkSampler;
use sortnet_testsets::augment::{
    try_augmentation_for_missed_packed, CandidatePool, SearchOptions, SuggestAugmentation,
};
use sortnet_testsets::sorting;

fn main() {
    let n = 8;
    let net = odd_even_merge_sort(n);

    let universes: Vec<StandardUniverse> = match std::env::args().nth(1) {
        None => StandardUniverse::ALL.to_vec(),
        Some(arg) => match StandardUniverse::parse(&arg) {
            Some(u) => vec![u],
            None => {
                eprintln!(
                    "unknown universe {arg:?}; choose one of: single, stuck-line, pairs, stuck-pairs"
                );
                std::process::exit(2);
            }
        },
    };

    println!("Batcher sorter on {n} lines: {} comparators\n", net.size());

    let minimal = sorting::binary_testset(n);
    for universe in universes {
        let mut sampler = NetworkSampler::new(7);
        println!(
            "universe `{}`: {} faults",
            universe.name(),
            universe.len(&net)
        );
        println!(
            "  {:<34} {:>7} {:>9} {:>7} {:>13} {:>9}",
            "test sequence", "#tests", "detected", "missed", "undetectable", "coverage"
        );
        for budget in [16usize, 64] {
            let random: Vec<BitString> = (0..budget).map(|_| sampler.random_input(n)).collect();
            let r = try_coverage_of_universe_packed_with(
                &net,
                &universe,
                &random,
                RedundancyMode::Exhaustive,
                FaultSimEngine::default(),
            )
            .expect("n = 8 is well within the redundancy-sweep bound");
            println!(
                "  {:<34} {:>7} {:>9} {:>7} {:>13} {:>9.3}",
                format!("{budget} random inputs"),
                budget,
                r.detected,
                r.missed,
                r.redundant_faults,
                r.coverage
            );
        }
        let r = try_coverage_of_universe_packed_with(
            &net,
            &universe,
            &minimal,
            RedundancyMode::Exhaustive,
            FaultSimEngine::default(),
        )
        .expect("n = 8 is well within the redundancy-sweep bound");
        println!(
            "  {:<34} {:>7} {:>9} {:>7} {:>13} {:>9.3}",
            "minimal 0/1 test set (Thm 2.2 i)",
            minimal.len(),
            r.detected,
            r.missed,
            r.redundant_faults,
            r.coverage
        );
        if r.missed_faults.is_empty() {
            println!("  -> the Theorem 2.2 set remains complete for this universe\n");
        } else {
            let preview: Vec<String> = r
                .missed_faults
                .iter()
                .take(6)
                .map(ToString::to_string)
                .collect();
            println!(
                "  -> the Theorem 2.2 set misses {} detectable fault(s): {}{}",
                r.missed_faults.len(),
                preview.join(", "),
                if r.missed_faults.len() > preview.len() {
                    ", ..."
                } else {
                    ""
                }
            );
            // The provably smallest repair, searched over all 2^n vectors:
            // greedy upper bound, hitting-set lower bound, branch-and-bound
            // certificate (sortnet_testsets::augment) — through the typed
            // entry point, whose budget hook would cut a runaway search off
            // with the greedy answer instead of hanging.
            let fix = r
                .try_suggest_augmentation(
                    &net,
                    &CandidatePool::Exhaustive,
                    &SearchOptions::default(),
                )
                .expect("the exhaustive pool covers every detectable fault")
                .into_value();
            let vectors: Vec<String> = fix.minimum.iter().map(ToString::to_string).collect();
            println!(
                "  -> smallest augmentation: {} vector(s) [{}] — {} (lower bound {}, {} candidates)\n",
                fix.minimum.len(),
                vectors.join(", "),
                if fix.certified {
                    "certified minimal"
                } else {
                    "search budget exhausted"
                },
                fix.lower_bound,
                fix.candidates_considered,
            );
        }
    }

    // The budgeted front end: the same coverage grade under an absurdly
    // tiny budget (one committed block), showing how a long sweep degrades
    // to a conservative partial report instead of hanging — undecided
    // faults count as missed, never as detected.
    let tiny = SweepBudget::unlimited().with_max_blocks(1);
    match coverage_of_universe_budgeted_packed_with(
        &net,
        &StandardUniverse::StuckLine,
        &minimal,
        RedundancyMode::Skip,
        FaultSimEngine::BitParallelWide(LaneWidth::W1),
        Backend::active(),
        &tiny,
    )
    .expect("inputs are valid")
    {
        Budgeted::Complete(_) => println!("\n(one block was enough to finish the sweep)"),
        Budgeted::Partial {
            progress,
            reason,
            best_so_far,
        } => println!(
            "\nbudget demo: a 1-block budget tripped ({reason:?}) after {} vectors —\n\
             partial verdict: {}/{} faults proven detected, {} still undecided (counted missed)",
            progress.vectors, best_so_far.detected, best_so_far.total_faults, best_so_far.missed
        ),
    }

    // Past the 64-line wall: the same pipeline on a Batcher sorter at
    // n = 96, where test vectors carry ceil(96/64) = 2 channel words.
    // Complete 2^n families are out of reach at this size, so the sweep
    // grades a hand-picked probe family (the n + 1 sorted strings plus
    // seam-heavy unsorted probes), and — since redundancy classification
    // would itself be a 2^96 sweep — every undecided fault conservatively
    // counts as missed.
    let wall_n = 96;
    let big = odd_even_merge_sort(wall_n);
    let mut probes: Vec<ChannelVec> = (0..=wall_n)
        .map(|ones| ChannelVec::sorted_of(wall_n - ones, ones))
        .collect();
    probes.extend([
        ChannelVec::from_fn(wall_n, |i| i % 2 == 1),
        ChannelVec::from_fn(wall_n, |i| i == 63),
        ChannelVec::from_fn(wall_n, |i| i >= 64),
    ]);
    let wide = try_coverage_of_universe_packed_with(
        &big,
        &StandardUniverse::StuckLine,
        &probes,
        RedundancyMode::Skip,
        FaultSimEngine::BitParallelWide(LaneWidth::W4),
    )
    .expect("stuck-line grading without redundancy is admissible at n = 96");
    println!(
        "\nPast the 64-line wall: Batcher n={wall_n} ({} comparators), stuck-line\n\
         universe of {} faults, {} probes ({} channel words each):\n\
         {} proven detected, {} missed-or-undetectable (no 2^{wall_n} redundancy sweep)",
        big.size(),
        wide.total_faults,
        probes.len(),
        sortnet_combinat::channel_words(wall_n),
        wide.detected,
        wide.missed,
    );

    // The certified augmentation search at the same width: the smallest
    // test set detecting eight stuck lesions chosen to straddle the
    // 63/64 word seam (stuck-at on the output segments of lines around
    // both word boundaries).  The streamed candidates × faults matrix and
    // the exact set-cover search run on the multi-word engine; the
    // all-zeros + all-ones pair is certified minimal, echoing the n ≤ 64
    // headline result.
    let seam_targets: Vec<MultiFault> = [
        (0, true),
        (31, true),
        (63, true),
        (64, true),
        (31, false),
        (63, false),
        (64, false),
        (95, false),
    ]
    .into_iter()
    .map(|(line, value)| {
        MultiFault::single(Lesion::Stuck(StuckAt {
            line,
            cut: big.size(),
            value,
        }))
    })
    .collect();
    let pool = CandidatePool::Explicit(vec![
        ChannelVec::zeros(wall_n),
        ChannelVec::ones(wall_n),
        ChannelVec::from_fn(wall_n, |i| i % 2 == 0),
    ]);
    match try_augmentation_for_missed_packed(&big, &seam_targets, &pool, &SearchOptions::default())
        .map(Budgeted::into_value)
    {
        Ok(fix) => println!(
            "  seam-straddling stuck lesions: smallest detecting set = {} vector(s) \
             ({}, lower bound {})",
            fix.minimum.len(),
            if fix.certified {
                "certified minimal"
            } else {
                "budget exhausted"
            },
            fix.lower_bound,
        ),
        Err(e) => println!("  augmentation refused: {e}"),
    }

    println!(
        "\nThe minimal test set contains every unsorted string, so for *passive* fault\n\
         models (single-comparator faults and their pairs) it detects everything\n\
         detectable.  Stuck-at lines are different: a stuck segment can corrupt an\n\
         already-sorted input — or be masked entirely — so completeness for that\n\
         universe needs sorted inputs too.  The augmentation search shows how few:\n\
         two vectors (all-zeros and all-ones) certifiably suffice on these sorters,\n\
         not the full n + 1 sorted strings."
    );
}
