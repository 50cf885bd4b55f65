//! Order statistics, memory high-water mark and the environment record.

use sortnet_network::lanes::Backend;

use crate::engine;

/// The `pct`-th percentile of `sorted` by nearest rank, and how many
/// samples lie strictly beyond it.
#[must_use]
pub fn percentile(sorted: &[f64], pct: f64) -> (f64, usize) {
    if sorted.is_empty() {
        return (0.0, 0);
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    let value = sorted[rank - 1];
    let beyond = sorted.len() - sorted.partition_point(|&x| x <= value);
    (value, beyond)
}

/// The `q`-quantile of `values` (`0 ≤ q ≤ 1`), interpolating linearly
/// between order statistics.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values` (mean of the middle two for an even count).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The process's resident-memory high-water mark in MiB (`VmHWM`), or
/// 0 where `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn json_str(s: &str) -> String {
    let escaped: String = s
        .chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec!['?'],
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

/// The environment a result was measured in, as one JSON object: CPU
/// count, backends, the environment switches the engine reads, the
/// source revision (from `PERFBENCH_GIT_REV`, set by the launcher) and
/// the seed.
#[must_use]
pub fn environment(workload: &str, seed: u64) -> String {
    let var =
        |name: &str| std::env::var(name).map_or_else(|_| "null".to_string(), |v| json_str(&v));
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        concat!(
            "{{\"workload\":{},\"seed\":{},\"nproc\":{},\"backend_active\":{},",
            "\"backend_pinned\":{},\"engine\":\"bitparallel-w{}\",",
            "\"SORTNET_FORCE_SCALAR\":{},\"SORTNET_MAX_LINES\":{},\"RAYON_NUM_THREADS\":{},",
            "\"git_rev\":{}}}"
        ),
        json_str(workload),
        seed,
        nproc,
        json_str(Backend::active().name()),
        json_str(engine::pinned_backend().name()),
        engine::WIDTH,
        var("SORTNET_FORCE_SCALAR"),
        var("SORTNET_MAX_LINES"),
        var("RAYON_NUM_THREADS"),
        var("PERFBENCH_GIT_REV"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_counts_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), (500.0, 500));
        assert_eq!(percentile(&v, 99.0), (990.0, 10));
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0, 5.0], 0.75), 4.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.25), 1.25);
    }
}
