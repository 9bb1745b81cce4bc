//! Metric collection, summary statistics and the one-line JSON result.

use std::time::Instant;

/// Every end-to-end metric, in `BENCHMARK.json` order: `(name, unit)`.
/// The tail latency is printed to standard error only: on this shared
/// host it did not repeat within a 0.25 bound (see README.md).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput", "1/s"),
    ("latency_p50_ms", "ms"),
    ("setup_peak_rss_mb", "MB"),
    ("snapshot_mb", "MB"),
];

/// Every per-layer metric, in `BENCHMARK.json` order: `(name, unit)`. A
/// workload that does not pass through a layer reports its metrics as 0
/// (see the README's table).
pub const PER_LAYER: [(&str, &str); 40] = [
    ("scanmodel.scan_passes", "count"),
    ("scanmodel.blocked_passes", "count"),
    ("scanmodel.bytes_moved_per_seg", "B"),
    ("scanmodel.arena_peak_mb", "MB"),
    ("scanmodel.inplace_reuses", "count"),
    ("scanmodel.arena_hit_ratio", "ratio"),
    ("core.pm1_build_s", "s"),
    ("core.bucket_pmr_build_s", "s"),
    ("core.join_s", "s"),
    ("core.dominance_agg_s", "s"),
    ("core.rounds", "count"),
    ("core.slowest_round_share", "ratio"),
    ("core.join_tests_per_match", "ratio"),
    ("service.build_s", "s"),
    ("service.window_us", "us"),
    ("service.point_us", "us"),
    ("service.knn_us", "us"),
    ("service.skyline_us", "us"),
    ("service.dominance_us", "us"),
    ("service.insert_us", "us"),
    ("service.delete_us", "us"),
    ("service.probes_per_request", "count"),
    ("service.shard_skew", "ratio"),
    ("service.flush_p50_us", "us"),
    ("service.flush_p99_us", "us"),
    ("service.compactions", "count"),
    ("service.compaction_s", "s"),
    ("admission.queue_wait_us", "us"),
    ("admission.requests_per_flush", "count"),
    ("admission.max_queue_depth", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.invalidations", "count"),
    ("snapshot.encode_ms", "ms"),
    ("snapshot.save_ms", "ms"),
    ("snapshot.read_ms", "ms"),
    ("snapshot.parse_ms", "ms"),
    ("snapshot.decode_route_ms", "ms"),
    ("workloads.generate_s", "s"),
    ("process.peak_rss_mb", "MB"),
    ("trace.throughput", "1/s"),
];

/// Set-ups per run: one before the timed phase, the rest after it;
/// `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// What one workload run measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable descriptions of wrong outputs (empty when correct).
    pub wrong: Vec<String>,
    metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    /// Records a wrong output: the operation counts as failed and the
    /// run as incorrect.
    pub fn wrong(&mut self, what: String) {
        self.failed += 1;
        if self.wrong.len() < 20 {
            self.wrong.push(what);
        }
    }

    /// The result line: `trace` selects the per-layer set, else the
    /// end-to-end set. A metric the run did not set reads 0.
    pub fn json(&self, correct: bool, trace: bool) -> String {
        let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let fields: Vec<String> = names
            .iter()
            .map(|&(name, unit)| {
                let v = self
                    .metrics
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |m| m.1);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            fields.join(", ")
        )
    }
}

/// Linear-interpolated quantile of `samples` (sorted in place); 0 when
/// empty.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (samples.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    samples[lo] + (samples[hi] - samples[lo]) * (pos - lo as f64)
}

pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Slice size and tail quantile of the workloads whose runs hold a
/// hundred-odd operations (`bulk_build`, `warm_restart`): p90 over
/// slices of 20 operations.
pub const FEW_OPS_SLICE: usize = 20;
pub const FEW_OPS_TAIL: f64 = 0.9;

/// Timed work of one run: per batch of operations, its busy seconds and
/// each operation's latency in seconds.
pub type Batches = Vec<(f64, Vec<f64>)>;

/// Summary of a run's timed work: `(operations per busy second, p50,
/// tail quantile)`. The run is cut into at most 10 consecutive slices of
/// at least `min_ops` operations; the rate and the tail are the medians
/// of the slices' own, so a burst of CPU steal from other tenants of the
/// host moves one slice rather than the run.
pub fn summarize(batches: &Batches, min_ops: usize, tail: f64) -> (f64, f64, f64) {
    let ops: usize = batches.iter().map(|b| b.1.len()).sum();
    let slices = (ops / min_ops).clamp(1, 10);
    let per_slice = batches.len().div_ceil(slices).max(1);
    let (mut rates, mut tails): (Vec<f64>, Vec<f64>) = batches
        .chunks(per_slice)
        .map(|slice| {
            let busy: f64 = slice.iter().map(|b| b.0).sum();
            let mut lat: Vec<f64> = slice.iter().flat_map(|b| b.1.iter().copied()).collect();
            (lat.len() as f64 / busy, quantile(&mut lat, tail))
        })
        .unzip();
    let mut all: Vec<f64> = batches.iter().flat_map(|b| b.1.iter().copied()).collect();
    (median(&mut rates), median(&mut all), median(&mut tails))
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Peak resident set of this process so far in MB (`VmHWM`), 0 if
/// unreadable. Workloads read it after their first set-up and again when
/// the timed phase ends, before the output checks allocate.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `f` once, returning its wall time in seconds and its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (secs(t), out)
}
