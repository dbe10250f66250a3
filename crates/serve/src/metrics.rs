//! The metrics pipeline: summarizing a raw [`ServingOutcome`] into the
//! numbers a capacity planner reads — tail latency, utilization, queue
//! depth, energy per request, and goodput under an SLA.
//!
//! Latency and SLA figures come from the run's streaming digest
//! ([`ServingOutcome::summary`]); per-request records never feed a metric.

use serde::{Deserialize, Serialize};

use crate::sim::ServingOutcome;

/// Latency summary statistics over the measured (post-warmup) requests.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyStats {
    /// Mean sojourn time, seconds.
    pub mean_s: f64,
    /// Median sojourn time, seconds.
    pub p50_s: f64,
    /// 95th-percentile sojourn time, seconds.
    pub p95_s: f64,
    /// 99th-percentile sojourn time, seconds.
    pub p99_s: f64,
    /// Worst sojourn time, seconds.
    pub max_s: f64,
}

/// A log-spaced latency histogram: bin `i` counts sojourns in
/// `[lower_s[i], lower_s[i+1])`, with the first and last bins absorbing
/// underflow and overflow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    /// Lower bound of each bin, seconds (doubling from 1 µs).
    pub lower_s: Vec<f64>,
    /// Sample count per bin.
    pub counts: Vec<u64>,
}

impl LatencyHistogram {
    /// Number of bins (1 µs doubling to ≈134 s).
    pub const BINS: usize = 28;

    /// Bin index for one sojourn sample (underflow → 0, overflow → last).
    #[must_use]
    pub fn bin(s: f64) -> usize {
        if s < 1e-6 {
            0
        } else {
            // log2(s / 1µs), clamped into range.
            ((s / 1e-6).log2().floor() as usize).min(Self::BINS - 1)
        }
    }

    /// Builds the histogram from raw sojourn samples.
    #[must_use]
    pub fn from_samples(samples: &[f64]) -> Self {
        let mut counts = vec![0u64; Self::BINS];
        for &s in samples {
            counts[Self::bin(s)] += 1;
        }
        Self::from_counts(counts)
    }

    /// Wraps pre-accumulated per-bin counts (indexed by [`Self::bin`]) —
    /// the streaming path maintains counts incrementally and freezes them
    /// here, bit-identical to [`Self::from_samples`] on the same stream.
    ///
    /// # Panics
    ///
    /// Panics unless `counts` has exactly [`Self::BINS`] entries.
    #[must_use]
    pub fn from_counts(counts: Vec<u64>) -> Self {
        assert_eq!(counts.len(), Self::BINS, "one count per bin");
        let lower_s: Vec<f64> = (0..Self::BINS).map(|i| 1e-6 * f64::from(1 << i)).collect();
        LatencyHistogram { lower_s, counts }
    }

    /// Total samples across all bins.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// Everything measured about one serving configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingMetrics {
    /// Requests admitted into the system.
    pub admitted: u64,
    /// Requests completed (equals `admitted`: the run drains what it admits).
    pub completed: u64,
    /// Requests shed by admission control before entering the system
    /// (0 outside fleet runs).
    pub dropped: u64,
    /// High-water count of per-request records held at once — 0 for a
    /// streaming run, `completed` when retention is on.
    pub peak_records_retained: u64,
    /// Requests included in the latency statistics (post-warmup).
    pub measured: u64,
    /// Simulated wall-clock length of the run, seconds.
    pub makespan_s: f64,
    /// Completed requests per second of makespan.
    pub throughput_rps: f64,
    /// Sojourn-time statistics over the measured requests.
    pub latency: LatencyStats,
    /// Log-spaced sojourn histogram over the measured requests.
    pub histogram: LatencyHistogram,
    /// Time-averaged number of requests waiting in queues.
    pub mean_queue_depth: f64,
    /// Fraction of total replica-time spent serving batches.
    pub utilization: f64,
    /// Mean dispatched batch size.
    pub mean_batch: f64,
    /// Energy per completed request, joules.
    pub energy_per_request_j: f64,
    /// Fraction of measured requests meeting the SLA (1.0 when no SLA set).
    pub sla_attainment: f64,
    /// Throughput × SLA attainment: requests per second that met the SLA.
    pub goodput_rps: f64,
    /// Fraction of measured requests served at ladder rung 0 (full
    /// precision; 1.0 for a static run).
    pub full_precision_share: f64,
    /// Fraction of measured requests served at any degraded rung
    /// (`1 − full_precision_share` whenever anything was measured).
    pub degraded_share: f64,
    /// Share of active replica-time spent at each ladder rung (index =
    /// rung; sums to 1; a single entry under static control).
    pub time_in_policy: Vec<f64>,
    /// Precision switches the controller performed across all replicas.
    pub policy_switches: u64,
    /// Replica activations + deactivations the autoscaler performed.
    pub scale_events: u64,
    /// Time-averaged count of active replicas (equals the cluster size
    /// without an autoscaler).
    pub mean_active_replicas: f64,
}

impl ServingMetrics {
    /// Summarizes a raw outcome. `replicas` is the cluster size the outcome
    /// ran on (for utilization).
    ///
    /// Latency statistics, the histogram, the measured counts and SLA
    /// attainment come from [`ServingOutcome::summary`]: the run cut its
    /// warmup and counted SLA hits against [`crate::RunOptions::sla_s`] as
    /// completions streamed, so attainment is 1 for a run without an SLA.
    #[must_use]
    pub fn from_outcome(outcome: &ServingOutcome, replicas: u32) -> Self {
        let summary = &outcome.summary;
        let (completed, measured) = (outcome.completed, summary.measured);
        let makespan_s = outcome.makespan_s;
        let throughput_rps = if makespan_s > 0.0 {
            completed as f64 / makespan_s
        } else {
            0.0
        };
        let sla_attainment = if measured > 0 {
            summary.sla_hits as f64 / measured as f64
        } else {
            1.0
        };
        let full_precision_share = if measured > 0 {
            summary.measured_full as f64 / measured as f64
        } else {
            1.0
        };
        // Without an autoscaler the active-replica integral is exactly
        // `replicas × makespan`; hand-built outcomes (tests) may leave the
        // integrals zeroed, so fall back to the static formula.
        let active_integral_s = if outcome.active_integral_s > 0.0 {
            outcome.active_integral_s
        } else {
            makespan_s * f64::from(replicas.max(1))
        };
        let rung_total: f64 = outcome.rung_time_s.iter().sum();
        let time_in_policy = if rung_total > 0.0 {
            outcome.rung_time_s.iter().map(|t| t / rung_total).collect()
        } else {
            vec![1.0]
        };
        ServingMetrics {
            admitted: outcome.admitted,
            completed,
            dropped: outcome.dropped,
            peak_records_retained: outcome.peak_records_retained,
            measured,
            makespan_s,
            throughput_rps,
            latency: LatencyStats {
                mean_s: summary.mean_s,
                p50_s: summary.p50_s,
                p95_s: summary.p95_s,
                p99_s: summary.p99_s,
                max_s: summary.max_s,
            },
            histogram: summary.histogram.clone(),
            mean_queue_depth: if makespan_s > 0.0 {
                outcome.depth_integral / makespan_s
            } else {
                0.0
            },
            utilization: if active_integral_s > 0.0 {
                outcome.busy_s / active_integral_s
            } else {
                0.0
            },
            mean_batch: if outcome.batches > 0 {
                completed as f64 / outcome.batches as f64
            } else {
                0.0
            },
            energy_per_request_j: if completed > 0 {
                outcome.energy_j / completed as f64
            } else {
                0.0
            },
            sla_attainment,
            goodput_rps: throughput_rps * sla_attainment,
            full_precision_share,
            degraded_share: if measured > 0 {
                1.0 - full_precision_share
            } else {
                0.0
            },
            time_in_policy,
            policy_switches: outcome.policy_switches.len() as u64,
            scale_events: outcome.scale_events.len() as u64,
            mean_active_replicas: if makespan_s > 0.0 {
                active_integral_s / makespan_s
            } else {
                f64::from(replicas.max(1))
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streaming::StreamingSummary;

    /// An outcome of `completed` requests over `makespan_s` whose stream
    /// digested `summary`: busy half the makespan, three requests queued
    /// on average, 0.5 J per request, one request per batch.
    fn outcome(completed: u64, makespan_s: f64, summary: StreamingSummary) -> ServingOutcome {
        ServingOutcome {
            records: Vec::new(),
            admitted: completed,
            completed,
            dropped: 0,
            peak_records_retained: 0,
            peak_in_system: completed,
            events: 0,
            summary,
            busy_s: makespan_s / 2.0,
            depth_integral: makespan_s * 3.0,
            makespan_s,
            energy_j: completed as f64 * 0.5,
            batches: completed,
            active_integral_s: 0.0,
            rung_time_s: Vec::new(),
            policy_switches: Vec::new(),
            scale_events: Vec::new(),
        }
    }

    /// A digest of `measured` completions, `full` of them at rung 0.
    fn digest(measured: u64, full: u64) -> StreamingSummary {
        StreamingSummary {
            measured,
            sla_hits: measured,
            measured_full: full,
            histogram: LatencyHistogram::from_samples(&vec![1.0; measured as usize]),
            ..StreamingSummary::default()
        }
    }

    #[test]
    fn metrics_summarize_the_digest() {
        // 100 completions over 100 s; the stream measured the 90 after
        // warmup, and 45 of those met its SLA.
        let summary = StreamingSummary {
            mean_s: 0.011,
            max_s: 0.020,
            p50_s: 0.010,
            p95_s: 0.019,
            p99_s: 0.0199,
            sla_s: Some(0.0101),
            sla_hits: 45,
            ..digest(90, 90)
        };
        let m = ServingMetrics::from_outcome(&outcome(100, 100.0, summary.clone()), 2);
        assert_eq!(m.completed, 100);
        assert_eq!(m.measured, 90);
        assert_eq!(
            m.latency,
            LatencyStats {
                mean_s: 0.011,
                p50_s: 0.010,
                p95_s: 0.019,
                p99_s: 0.0199,
                max_s: 0.020,
            }
        );
        assert_eq!(m.histogram, summary.histogram);
        assert_eq!(m.throughput_rps, 1.0);
        assert_eq!(m.sla_attainment, 0.5);
        assert_eq!(m.goodput_rps, 0.5);
        assert!((m.utilization - 0.25).abs() < 1e-12);
        assert!((m.mean_queue_depth - 3.0).abs() < 1e-12);
        assert!((m.energy_per_request_j - 0.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_bins_double_from_one_microsecond() {
        let h = LatencyHistogram::from_samples(&[1.5e-6, 3e-6, 1e-3, 1e9]);
        assert_eq!(h.lower_s.len(), LatencyHistogram::BINS);
        assert_eq!(h.counts[0], 1);
        assert_eq!(h.counts[1], 1);
        // 1 ms: log2(1000 µs) = 9.96 -> bin 9 (lower bound 512 µs).
        assert_eq!(h.counts[9], 1);
        // Overflow clamps into the last bin.
        assert_eq!(h.counts[LatencyHistogram::BINS - 1], 1);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn adaptive_shares_and_time_in_policy() {
        use crate::sim::{PolicySwitchEvent, ScaleEvent};
        let mut out = outcome(10, 1.0, digest(10, 6));
        out.rung_time_s = vec![3.0, 1.0];
        out.active_integral_s = 2.0;
        out.policy_switches = vec![PolicySwitchEvent {
            time_s: 0.5,
            replica: 0,
            from_rung: 0,
            to_rung: 1,
        }];
        out.scale_events = vec![ScaleEvent {
            time_s: 0.6,
            replica: 1,
            up: true,
        }];
        let m = ServingMetrics::from_outcome(&out, 2);
        assert!((m.full_precision_share - 0.6).abs() < 1e-12);
        assert!((m.degraded_share - 0.4).abs() < 1e-12);
        assert_eq!(m.time_in_policy, vec![0.75, 0.25]);
        assert_eq!(m.policy_switches, 1);
        assert_eq!(m.scale_events, 1);
        // ∫active dt = 2 replica-seconds over the 1 s makespan → mean 2.
        assert!((m.mean_active_replicas - 2.0).abs() < 1e-12);
        // busy = makespan/2 = 0.5 against 2 replica-seconds offered.
        assert!((m.utilization - 0.25).abs() < 1e-12);
    }

    #[test]
    fn static_outcomes_report_full_precision() {
        let m = ServingMetrics::from_outcome(&outcome(1, 1.0, digest(1, 1)), 1);
        assert_eq!(m.full_precision_share, 1.0);
        assert_eq!(m.degraded_share, 0.0);
        assert_eq!(m.time_in_policy, vec![1.0]);
        assert_eq!(m.policy_switches, 0);
        assert_eq!(m.scale_events, 0);
        assert_eq!(m.mean_active_replicas, 1.0);
    }

    #[test]
    fn empty_outcome_yields_zeroed_metrics() {
        let m = ServingMetrics::from_outcome(&outcome(0, 0.0, StreamingSummary::default()), 1);
        assert_eq!(m.completed, 0);
        assert_eq!(m.measured, 0);
        assert_eq!(m.throughput_rps, 0.0);
        assert_eq!(m.latency.mean_s, 0.0);
        assert_eq!(m.histogram.total(), 0);
        assert_eq!(m.sla_attainment, 1.0);
        assert_eq!(m.full_precision_share, 1.0);
    }
}
