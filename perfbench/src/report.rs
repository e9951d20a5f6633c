//! Metric names and units, the result line, and the statistics behind them.

use std::fmt::Write as _;

/// End-to-end metrics `(name, unit)`, printed by every untraced run.
///
/// Every workload reports every name; what an "op" and a "latency sample"
/// are depends on the workload (see the benchmark's README).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("lat_p50_us", "us"),
    ("lat_p99_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, printed by every traced run. A layer a
/// workload does not drive reports 0.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("core.solve_us", "us"),
    ("core.ladder_build_us", "us"),
    ("core.search_us", "us"),
    ("core.partition_us", "us"),
    ("core.partition_cold_us", "us"),
    ("core.profiles_cold_us", "us"),
    ("core.probes_per_solve", "count"),
    ("core.ladder_hit_ratio", "ratio"),
    ("core.ladder_lookups", "count"),
    ("engine.ops_per_s_mt", "1/s"),
    ("engine.lat_p50_mt_us", "us"),
    ("engine.lat_p99_mt_us", "us"),
    ("engine.batch_us", "us"),
    ("engine.sched_overhead_us", "us"),
    ("engine.steals_per_item", "count"),
    ("serve.admit_us", "us"),
    ("serve.apply_write_us", "us"),
    ("serve.apply_rebalance_us", "us"),
    ("serve.wal_append_us", "us"),
    ("serve.snapshot_ms", "ms"),
    ("serve.snapshots", "count"),
    ("serve.state_us", "us"),
    ("serve.transport_ms", "ms"),
    ("serve.accounted_share", "ratio"),
    ("serve.events_per_batch", "count"),
    ("serve.recovery_ms", "ms"),
    ("serve.replayed", "count"),
    ("client.retries", "count"),
    ("overhead.setup_s", "s"),
    ("overhead.ops_per_s", "1/s"),
    ("overhead.lat_p50_us", "us"),
    ("overhead.lat_p99_us", "us"),
    ("overhead.peak_rss_mb", "MB"),
];

/// The end-to-end figures of one untraced (or traced) measurement.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EndToEnd {
    /// Median set-up time over the run's set-up repetitions.
    pub setup_s: f64,
    /// Ops per second: engine items at 1 thread, or serve requests with
    /// `mt` clients.
    pub ops_per_s: f64,
    /// Median latency sample.
    pub lat_p50_us: f64,
    /// 99th-percentile latency sample.
    pub lat_p99_us: f64,
    /// Peak resident memory of the process so far (`VmHWM`).
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    /// The values in [`END_TO_END`] order.
    pub fn values(&self) -> [f64; 5] {
        [
            self.setup_s,
            self.ops_per_s,
            self.lat_p50_us,
            self.lat_p99_us,
            self.peak_rss_mb,
        ]
    }
}

/// Per-layer figures, in [`PER_LAYER`] order (the `overhead.*` tail is
/// filled from two [`EndToEnd`] measurements).
pub type Layers = std::collections::BTreeMap<&'static str, f64>;

/// One measurement of a workload: its end-to-end figures, its per-layer
/// figures (filled only when traced), and what its output checks found.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// End-to-end figures.
    pub e2e: EndToEnd,
    /// Per-layer figures; empty for an untraced measurement.
    pub layers: Layers,
    /// Operations attempted (items solved, or requests sent).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Check failures; empty when every output check passed.
    pub problems: Vec<String>,
    /// Informational `key=value` pairs (digest, sample counts, span file).
    pub info: Vec<(String, String)>,
}

/// What one run printed: the last stdout line.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// `(name, value, unit)` in declaration order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Check failures, for the diagnostic lines before the result.
    pub problems: Vec<String>,
    /// Informational `key=value` pairs.
    pub info: Vec<(String, String)>,
}

impl RunResult {
    /// The result of an untraced run: every end-to-end metric.
    pub fn untraced(m: Measured) -> Self {
        let metrics = END_TO_END
            .iter()
            .zip(m.e2e.values())
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect();
        Self::with_metrics(m, metrics)
    }

    /// The result of a traced run: every per-layer metric of the traced
    /// measurement, plus `overhead.*` = traced minus untraced for each
    /// end-to-end metric.
    pub fn traced(untraced: &EndToEnd, mut m: Measured) -> Self {
        for (((name, _), t), u) in END_TO_END.iter().zip(m.e2e.values()).zip(untraced.values()) {
            let key = PER_LAYER
                .iter()
                .map(|&(n, _)| n)
                .find(|n| n.strip_prefix("overhead.") == Some(name))
                .expect("every end-to-end metric has an overhead.* twin");
            m.layers.insert(key, t - u);
        }
        if let Some(stray) = m
            .layers
            .keys()
            .find(|k| !PER_LAYER.iter().any(|(n, _)| n == *k))
        {
            panic!("per-layer figure {stray} is not declared in PER_LAYER");
        }
        let metrics = PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, m.layers.get(name).copied().unwrap_or(0.0), unit))
            .collect();
        Self::with_metrics(m, metrics)
    }

    fn with_metrics(m: Measured, metrics: Vec<(&'static str, f64, &'static str)>) -> Self {
        RunResult {
            correct: m.problems.is_empty(),
            attempted: m.attempted,
            failed: m.failed,
            metrics,
            problems: m.problems,
            info: m.info,
        }
    }

    /// The one-line JSON result object.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let v = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Per-slice figures of a timed measurement: the run's window is cut into
/// short slices and each slice yields a throughput and latency percentiles.
///
/// The reported figure is the quartile of the per-slice values least
/// disturbed by other work on the host: the upper quartile of throughput,
/// the lower quartile of latency. Interference only ever slows the program
/// down, so these are the figures that repeat from run to run on a shared
/// host, while a slowdown of the program itself moves every slice.
#[derive(Debug, Clone, Default)]
pub struct Slices {
    rate: Vec<f64>,
    p50: Vec<f64>,
    p99: Vec<f64>,
}

impl Slices {
    /// Add one slice: its latency samples (ns), the ops it completed, and
    /// its wall time (ns).
    pub fn push(&mut self, mut lat_ns: Vec<u64>, ops: u64, elapsed_ns: u64) {
        lat_ns.sort_unstable();
        self.rate
            .push(ops as f64 / (elapsed_ns.max(1) as f64 / 1e9));
        self.p50.push(percentile(&lat_ns, 0.50));
        self.p99.push(percentile(&lat_ns, 0.99));
    }

    /// Throughput (ops/s), p50 and p99 latency (ns).
    pub fn figures(&self) -> (f64, f64, f64) {
        (
            quantile(&self.rate, 0.75),
            quantile(&self.p50, 0.25),
            quantile(&self.p99, 0.25),
        )
    }
}

/// Linear-interpolation quantile (`q` in `[0, 1]`) of unsorted values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of an ascending slice.
pub fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Mean of `total` over `count`, 0 when there is nothing to average.
pub fn mean(total: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

/// Peak resident memory of this process in MB, from `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host class a result belongs to: CPU model and worker count.
pub fn host_class() -> Vec<(String, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    vec![
        ("cpu".into(), format!("{cpu:?}")),
        ("mt".into(), crate::host_threads().to_string()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[7], 0.99), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn slices_report_the_least_disturbed_quartile() {
        let mut s = Slices::default();
        // Four quiet slices and one disturbed one.
        for _ in 0..4 {
            s.push(vec![10, 10, 10], 3, 1_000_000_000);
        }
        s.push(vec![90, 90, 90], 1, 1_000_000_000);
        assert_eq!(s.figures(), (3.0, 10.0, 10.0));
    }

    #[test]
    fn every_end_to_end_metric_has_an_overhead_twin() {
        for (name, unit) in END_TO_END {
            let twin = format!("overhead.{name}");
            assert!(PER_LAYER.iter().any(|&(n, u)| n == twin && u == unit));
        }
    }
}
