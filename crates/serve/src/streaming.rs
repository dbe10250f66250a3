//! O(1)-memory streaming metrics: the one way a serving run is summarized.
//!
//! Every run, from a scenario cell to a 10M-request fleet sweep, streams
//! its post-warmup completions through a fixed-size log-bucketed
//! [`QuantileSketch`] (p50/p95/p99 to well under 2% relative error, exact
//! mean and max), windowed throughput aggregation, and per-class /
//! per-tenant / per-region rollups, all maintained in O(1) space per
//! completion.
//!
//! The sketch is deterministic (no randomized compaction like P²/t-digest
//! variants), so summaries are byte-stable across runs under a fixed seed
//! — the property the byte-diffed fleet CSV in CI leans on.

use serde::{Deserialize, Serialize};

use crate::metrics::LatencyHistogram;

/// Smallest representable sojourn (100 ns); everything below folds into
/// bucket 0 and reports the exact observed minimum.
const SKETCH_FLOOR_S: f64 = 1e-7;
/// Geometric bucket growth. Mid-point reporting bounds relative error by
/// `sqrt(GROWTH) - 1` ≈ 1.0%, comfortably inside the 2% property bound.
const SKETCH_GROWTH: f64 = 1.02;
/// Bucket count: `1e-7 * 1.02^1400` ≈ 1e5 s, far past any simulated sojourn.
const SKETCH_BUCKETS: usize = 1400;

/// Streaming quantile estimator over fixed geometric latency buckets.
///
/// `observe` is O(1); `quantile` walks the (constant-size) bucket array
/// with nearest-rank semantics, reporting the geometric mid-point of the
/// selected bucket clamped to the exact observed min/max. The running sum
/// behind [`QuantileSketch::mean`] and the max are exact. Memory is a
/// fixed ~11 KiB regardless of how many samples stream through.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantileSketch {
    counts: Vec<u64>,
    total: u64,
    sum_s: f64,
    min_s: f64,
    max_s: f64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new()
    }
}

impl QuantileSketch {
    /// An empty sketch.
    pub fn new() -> Self {
        Self {
            counts: vec![0; SKETCH_BUCKETS],
            total: 0,
            sum_s: 0.0,
            min_s: f64::INFINITY,
            max_s: f64::NEG_INFINITY,
        }
    }

    fn bucket(value_s: f64) -> usize {
        if value_s <= SKETCH_FLOOR_S {
            return 0;
        }
        let idx = (value_s / SKETCH_FLOOR_S).ln() / SKETCH_GROWTH.ln();
        (idx as usize).min(SKETCH_BUCKETS - 1)
    }

    /// Records one sample.
    pub fn observe(&mut self, value_s: f64) {
        self.counts[Self::bucket(value_s)] += 1;
        self.total += 1;
        self.sum_s += value_s;
        self.min_s = self.min_s.min(value_s);
        self.max_s = self.max_s.max(value_s);
    }

    /// Number of samples observed.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact mean of the observed samples, summed in observation order (0
    /// when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum_s / self.total as f64
        }
    }

    /// Exact maximum observed sample (0 when empty).
    pub fn max(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.max_s
        }
    }

    /// Nearest-rank quantile estimate; 0 when no samples were observed.
    ///
    /// Selects the exact nearest rank (`ceil(q·n)`, 1-based), but reports
    /// the geometric mid-point of the bucket holding that rank instead of
    /// the order statistic itself.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let lo = SKETCH_FLOOR_S * SKETCH_GROWTH.powi(i as i32);
                let mid = lo * SKETCH_GROWTH.sqrt();
                return mid.clamp(self.min_s, self.max_s);
            }
        }
        self.max_s
    }
}

/// Per-tenant streaming rollup, reported in [`StreamingSummary::tenants`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantRollup {
    /// Tenant class label (e.g. `premium`).
    pub label: String,
    /// Requests this tenant offered (admitted or not).
    pub arrived: u64,
    /// Requests shed by admission control or region queue caps.
    pub dropped: u64,
    /// Requests completed.
    pub completed: u64,
    /// Post-warmup completions feeding the latency fields below.
    pub measured: u64,
    /// Mean post-warmup sojourn.
    pub mean_s: f64,
    /// Sketched post-warmup p99 sojourn.
    pub p99_s: f64,
    /// Exact post-warmup max sojourn.
    pub max_s: f64,
    /// This tenant's SLA, if it has one.
    pub sla_s: Option<f64>,
    /// Post-warmup completions inside the tenant SLA (== `measured` when
    /// the tenant has no SLA).
    pub sla_hits: u64,
}

/// Per-region streaming rollup, reported in [`StreamingSummary::regions`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegionRollup {
    /// Region label (e.g. `us-east`).
    pub label: String,
    /// Replicas hosted by this region.
    pub replicas: u32,
    /// Requests admitted into this region (home or spilled).
    pub arrived: u64,
    /// Requests dropped with this region as their home.
    pub dropped: u64,
    /// Requests completed by this region's replicas.
    pub completed: u64,
    /// Post-warmup completions feeding the latency fields below.
    pub measured: u64,
    /// Mean post-warmup sojourn.
    pub mean_s: f64,
    /// Sketched post-warmup p99 sojourn.
    pub p99_s: f64,
    /// Busy replica-seconds accumulated by this region.
    pub busy_s: f64,
}

/// Digest of a run's post-warmup latency stream, produced by every run.
///
/// [`crate::ServingMetrics::from_outcome`] derives its latency summary
/// from this digest alone. Retained records, when a run keeps them, feed
/// no metric; the ≤2% sketch-accuracy tests use them as the exact oracle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamingSummary {
    /// Post-warmup completions observed by the stream.
    pub measured: u64,
    /// Mean post-warmup sojourn.
    pub mean_s: f64,
    /// Exact max post-warmup sojourn.
    pub max_s: f64,
    /// Sketched median sojourn.
    pub p50_s: f64,
    /// Sketched 95th-percentile sojourn.
    pub p95_s: f64,
    /// Sketched 99th-percentile sojourn.
    pub p99_s: f64,
    /// SLA the stream counted hits against (from `RunOptions::sla_s`).
    pub sla_s: Option<f64>,
    /// Post-warmup completions inside `sla_s` (== `measured` when `None`).
    pub sla_hits: u64,
    /// Post-warmup completions served at the full-precision rung.
    pub measured_full: u64,
    /// Post-warmup completions per request class (mix order).
    pub class_completed: Vec<u64>,
    /// Incrementally maintained latency histogram, bit-identical to
    /// [`LatencyHistogram::from_samples`] over the same stream.
    pub histogram: LatencyHistogram,
    /// Width of the throughput aggregation window, seconds (1 s in every
    /// run).
    pub window_s: f64,
    /// Highest completion rate seen in any single window.
    pub peak_window_rps: f64,
    /// Per-tenant rollups (empty outside fleet runs).
    pub tenants: Vec<TenantRollup>,
    /// Per-region rollups (empty outside fleet runs).
    pub regions: Vec<RegionRollup>,
}

impl Default for StreamingSummary {
    fn default() -> Self {
        Self {
            measured: 0,
            mean_s: 0.0,
            max_s: 0.0,
            p50_s: 0.0,
            p95_s: 0.0,
            p99_s: 0.0,
            sla_s: None,
            sla_hits: 0,
            measured_full: 0,
            class_completed: Vec::new(),
            histogram: LatencyHistogram::from_samples(&[]),
            window_s: 0.0,
            peak_window_rps: 0.0,
            tenants: Vec::new(),
            regions: Vec::new(),
        }
    }
}

/// Width of the completion-rate window behind
/// [`StreamingSummary::peak_window_rps`], seconds.
const WINDOW_S: f64 = 1.0;

/// Live accumulator behind [`StreamingSummary`]; owned by the simulator
/// and fed one `observe` per completion.
#[derive(Debug)]
pub(crate) struct StreamStats {
    sketch: QuantileSketch,
    hist_counts: Vec<u64>,
    measured_full: u64,
    sla_s: Option<f64>,
    sla_hits: u64,
    class_completed: Vec<u64>,
    window_idx: u64,
    window_count: u64,
    peak_window: u64,
}

impl StreamStats {
    pub(crate) fn new(classes: usize, sla_s: Option<f64>) -> Self {
        Self {
            sketch: QuantileSketch::new(),
            hist_counts: vec![0; LatencyHistogram::BINS],
            measured_full: 0,
            sla_s,
            sla_hits: 0,
            class_completed: vec![0; classes],
            window_idx: 0,
            window_count: 0,
            peak_window: 0,
        }
    }

    /// Records one post-warmup completion.
    pub(crate) fn observe(&mut self, now_s: f64, sojourn_s: f64, class: usize, full_rung: bool) {
        self.sketch.observe(sojourn_s);
        self.hist_counts[LatencyHistogram::bin(sojourn_s)] += 1;
        if full_rung {
            self.measured_full += 1;
        }
        if self.sla_s.is_none_or(|sla| sojourn_s <= sla) {
            self.sla_hits += 1;
        }
        if let Some(c) = self.class_completed.get_mut(class) {
            *c += 1;
        }
        let idx = (now_s / WINDOW_S) as u64;
        if idx != self.window_idx {
            self.peak_window = self.peak_window.max(self.window_count);
            self.window_idx = idx;
            self.window_count = 0;
        }
        self.window_count += 1;
    }

    /// Freezes the stream into a reportable summary.
    pub(crate) fn finish(mut self) -> StreamingSummary {
        self.peak_window = self.peak_window.max(self.window_count);
        StreamingSummary {
            measured: self.sketch.count(),
            mean_s: self.sketch.mean(),
            max_s: self.sketch.max(),
            p50_s: self.sketch.quantile(0.50),
            p95_s: self.sketch.quantile(0.95),
            p99_s: self.sketch.quantile(0.99),
            sla_s: self.sla_s,
            sla_hits: self.sla_hits,
            measured_full: self.measured_full,
            class_completed: self.class_completed,
            histogram: LatencyHistogram::from_counts(self.hist_counts),
            window_s: WINDOW_S,
            peak_window_rps: self.peak_window as f64 / WINDOW_S,
            tenants: Vec::new(),
            regions: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sketch_reports_zeroes() {
        let s = QuantileSketch::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.5), 0.0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn mean_is_the_exact_running_mean_in_observation_order() {
        let samples = [0.003, 1e-6, 0.25, 0.0421, 7.5e-4];
        let mut s = QuantileSketch::new();
        for v in samples {
            s.observe(v);
        }
        let sum = samples.iter().fold(0.0, |acc, v| acc + v);
        assert_eq!(s.mean().to_bits(), (sum / 5.0).to_bits());
    }

    #[test]
    fn single_sample_is_exact_at_every_quantile() {
        let mut s = QuantileSketch::new();
        s.observe(0.0042);
        for q in [0.01, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(s.quantile(q), 0.0042, "clamping makes n=1 exact");
        }
    }

    #[test]
    fn sketch_tracks_exact_quantiles_within_two_percent() {
        // Log-uniform samples spanning 10us..10s, deterministic ramp.
        let samples: Vec<f64> = (0..10_000)
            .map(|i| 1e-5 * 10f64.powf(6.0 * (i as f64) / 10_000.0))
            .collect();
        let mut s = QuantileSketch::new();
        for &v in &samples {
            s.observe(v);
        }
        let mut sorted = samples.clone();
        sorted.sort_by(f64::total_cmp);
        for q in [0.50, 0.95, 0.99] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1];
            let est = s.quantile(q);
            let rel = (est - exact).abs() / exact;
            assert!(rel <= 0.02, "q={q}: est {est} vs exact {exact} (rel {rel})");
        }
    }

    #[test]
    fn quantiles_clamp_to_observed_extremes() {
        let mut s = QuantileSketch::new();
        for v in [0.010, 0.011, 0.012] {
            s.observe(v);
        }
        assert!(s.quantile(0.0001) >= 0.010);
        assert!(s.quantile(1.0) <= 0.012);
        assert_eq!(s.max(), 0.012);
    }

    #[test]
    fn stream_stats_histogram_matches_from_samples() {
        let samples: Vec<f64> = (1..500).map(|i| i as f64 * 3.7e-5).collect();
        let mut st = StreamStats::new(2, Some(0.005));
        for (i, &v) in samples.iter().enumerate() {
            st.observe(i as f64 * 0.01, v, i % 2, i % 3 == 0);
        }
        let summary = st.finish();
        assert_eq!(summary.histogram, LatencyHistogram::from_samples(&samples));
        assert_eq!(summary.measured, samples.len() as u64);
        assert_eq!(
            summary.sla_hits,
            samples.iter().filter(|&&v| v <= 0.005).count() as u64
        );
        assert_eq!(summary.class_completed, vec![250, 249]);
    }

    #[test]
    fn windowed_peak_counts_the_densest_window() {
        let mut st = StreamStats::new(1, None);
        // 3 completions in [0,1), 7 in [1,2), 2 in [2,3).
        for i in 0..3 {
            st.observe(0.1 * i as f64, 1e-3, 0, true);
        }
        for i in 0..7 {
            st.observe(1.0 + 0.1 * i as f64, 1e-3, 0, true);
        }
        for i in 0..2 {
            st.observe(2.0 + 0.1 * i as f64, 1e-3, 0, true);
        }
        assert_eq!(st.finish().peak_window_rps, 7.0);
    }
}
