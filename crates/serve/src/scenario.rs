//! The `ServingScenario` builder: serving experiments declared the same way
//! evaluation experiments are.
//!
//! Mirroring [`bpvec_sim::Scenario`], a [`ServingScenario`] declares its
//! axes — platforms ([`Evaluator`] backends), batching policies, cluster
//! configurations, and traffic specs — then [`ServingScenario::run`]
//! simulates the full cross-product (rayon-parallel, one task per cell) and
//! returns a [`ServingReport`] that renders to CSV/JSON like
//! [`bpvec_sim::Report`] does.
//!
//! Arrival randomness is seeded per *traffic axis entry*, not per cell:
//! every platform/policy/cluster sees the identical arrival sequence for a
//! given traffic spec, so comparisons across those axes are paired.

use std::fmt;
use std::sync::Arc;

use bpvec_dnn::PrecisionPolicy;
use bpvec_obs::{
    ArgValue, MemorySink, MetricsRegistry, Phase, TraceEvent, TraceSink, WallProfiler,
};
use bpvec_sim::{CostModel, DramSpec, Evaluator};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use bpvec_dnn::DegradationLadder;

use crate::arrivals::{ArrivalProcess, TrafficSpec};
use crate::cluster::ClusterSpec;
use crate::controller::{AdaptiveSpec, ControlPolicy};
use crate::metrics::ServingMetrics;
use crate::scheduler::BatchPolicy;
use crate::sim::{build_rung_tables, run_event_loop, CostTable, RunOptions, ServiceModel};

/// Errors from building or running a serving scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServingError(pub(crate) String);

impl fmt::Display for ServingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ServingError {}

/// NaN-safe "strictly positive and finite".
fn positive(x: f64) -> bool {
    x.is_finite() && x > 0.0
}

/// NaN-safe "finite and non-negative".
fn non_negative(x: f64) -> bool {
    x.is_finite() && x >= 0.0
}

/// Validates one batching policy; shared by [`ServingScenario::try_run`]
/// and [`crate::ServingRun::try_run`].
pub(crate) fn validate_policy(p: &BatchPolicy) -> Result<(), ServingError> {
    match *p {
        BatchPolicy::Fixed { size: 0 } => {
            Err(ServingError("fixed batch size must be at least 1".into()))
        }
        BatchPolicy::Deadline {
            max_batch,
            max_wait_s,
        } if max_batch == 0 || !non_negative(max_wait_s) => Err(ServingError(
            "deadline batching needs max_batch >= 1 and max_wait_s >= 0".into(),
        )),
        _ => Ok(()),
    }
}

/// Validates the options of one run.
pub(crate) fn validate_options(o: &RunOptions) -> Result<(), ServingError> {
    if o.trace_every == 0 {
        return Err(ServingError(
            "trace_every must be >= 1 (1 traces every request)".into(),
        ));
    }
    if o.sla_s.is_some_and(|sla| !positive(sla)) {
        return Err(ServingError("the SLA must be a positive latency".into()));
    }
    Ok(())
}

/// Validates one cluster configuration.
pub(crate) fn validate_cluster(c: &ClusterSpec) -> Result<(), ServingError> {
    if c.replicas == 0 {
        return Err(ServingError("a cluster needs at least one replica".into()));
    }
    Ok(())
}

/// Validates one adaptive control specification (cluster-independent part).
pub(crate) fn validate_control(spec: &AdaptiveSpec) -> Result<(), ServingError> {
    let c = &spec.controller;
    if !positive(c.interval_s) {
        return Err(ServingError(
            "the controller tick interval must be positive".into(),
        ));
    }
    if c.low_depth >= c.high_depth {
        return Err(ServingError(format!(
            "controller hysteresis needs low_depth < high_depth (got {} >= {})",
            c.low_depth, c.high_depth
        )));
    }
    if c.window == 0 {
        return Err(ServingError(
            "the controller's sojourn window needs at least one slot".into(),
        ));
    }
    if !(c.upgrade_margin.is_finite() && c.upgrade_margin > 0.0 && c.upgrade_margin <= 1.0) {
        return Err(ServingError("the upgrade margin must lie in (0, 1]".into()));
    }
    if let Some(t) = c.target_p99_s {
        if !positive(t) {
            return Err(ServingError(
                "the controller's p99 target must be a positive latency".into(),
            ));
        }
    }
    if let Some(a) = &spec.autoscaler {
        if a.min_replicas == 0 || a.min_replicas > a.max_replicas {
            return Err(ServingError(format!(
                "autoscaler bounds need 1 <= min <= max (got {}..={})",
                a.min_replicas, a.max_replicas
            )));
        }
        if !(non_negative(a.down_depth) && a.up_depth.is_finite() && a.down_depth < a.up_depth) {
            return Err(ServingError(
                "autoscaler watermarks need 0 <= down_depth < up_depth".into(),
            ));
        }
    }
    Ok(())
}

/// Validates an adaptive spec against the cluster it will control: an
/// autoscaled run starts at the cluster's replica count, which must lie
/// within the autoscaler's bounds.
pub(crate) fn validate_control_for_cluster(
    spec: &AdaptiveSpec,
    cluster: &ClusterSpec,
) -> Result<(), ServingError> {
    validate_control(spec)?;
    if let Some(a) = &spec.autoscaler {
        if cluster.replicas < a.min_replicas || cluster.replicas > a.max_replicas {
            return Err(ServingError(format!(
                "cluster `{cluster}` starts outside the autoscaler bounds {}..={}",
                a.min_replicas, a.max_replicas
            )));
        }
    }
    Ok(())
}

/// Validates one traffic configuration.
pub(crate) fn validate_traffic(t: &TrafficSpec) -> Result<(), ServingError> {
    if t.requests == 0 {
        return Err(ServingError(format!(
            "traffic `{}` admits zero requests",
            t.label
        )));
    }
    if t.warmup >= t.requests {
        return Err(ServingError(format!(
            "traffic `{}`: warmup {} swallows all {} requests",
            t.label, t.warmup, t.requests
        )));
    }
    if t.mix.entries.is_empty() {
        return Err(ServingError(format!(
            "traffic `{}` has an empty request mix",
            t.label
        )));
    }
    if t.mix.entries.iter().any(|e| !positive(e.weight)) {
        return Err(ServingError(format!(
            "traffic `{}`: mix weights must be positive and finite",
            t.label
        )));
    }
    match &t.process {
        ArrivalProcess::Poisson { rate_rps } if !positive(*rate_rps) => Err(ServingError(format!(
            "traffic `{}`: Poisson rate must be positive",
            t.label
        ))),
        ArrivalProcess::Bursty {
            base_rps,
            burst_rps,
            mean_base_s,
            mean_burst_s,
        } if !(positive(*base_rps)
            && positive(*burst_rps)
            && positive(*mean_base_s)
            && positive(*mean_burst_s)) =>
        {
            Err(ServingError(format!(
                "traffic `{}`: bursty rates and dwell times must be positive",
                t.label
            )))
        }
        ArrivalProcess::Trace { inter_arrival_s }
            if inter_arrival_s.is_empty() || inter_arrival_s.iter().any(|g| !non_negative(*g)) =>
        {
            Err(ServingError(format!(
                "traffic `{}`: trace needs at least one non-negative gap",
                t.label
            )))
        }
        ArrivalProcess::ClosedLoop {
            concurrency,
            think_s,
        } if *concurrency == 0 || !non_negative(*think_s) => Err(ServingError(format!(
            "traffic `{}`: closed loop needs concurrency >= 1 and think_s >= 0",
            t.label
        ))),
        ArrivalProcess::Diurnal {
            base_rps,
            peak_rps,
            period_s,
        } if !(positive(*base_rps)
            && positive(*period_s)
            && peak_rps.is_finite()
            && *peak_rps >= *base_rps) =>
        {
            Err(ServingError(format!(
                "traffic `{}`: diurnal needs 0 < base_rps <= peak_rps and period_s > 0",
                t.label
            )))
        }
        ArrivalProcess::FlashCrowd {
            base_rps,
            flash_rps,
            start_s,
            ramp_s,
            hold_s,
        } if !(positive(*base_rps)
            && flash_rps.is_finite()
            && *flash_rps >= *base_rps
            && non_negative(*start_s)
            && non_negative(*ramp_s)
            && non_negative(*hold_s)) =>
        {
            Err(ServingError(format!(
                "traffic `{}`: flash crowd needs 0 < base_rps <= flash_rps and \
                 non-negative start/ramp/hold",
                t.label
            )))
        }
        _ => Ok(()),
    }
}

/// A declared serving experiment: platforms × policies × clusters ×
/// traffics (× precisions) (× controls) under one memory system, service
/// model, seed, and optional SLA.
pub struct ServingScenario {
    name: String,
    platforms: Vec<(String, Arc<dyn Evaluator>)>,
    policies: Vec<BatchPolicy>,
    clusters: Vec<ClusterSpec>,
    traffics: Vec<TrafficSpec>,
    precisions: Vec<PrecisionPolicy>,
    seq_lens: Vec<usize>,
    controls: Vec<ControlPolicy>,
    memory: DramSpec,
    service: ServiceModel,
    sla_s: Option<f64>,
    seed: u64,
    trace: Option<Arc<dyn TraceSink>>,
    profile: Option<Arc<WallProfiler>>,
    metrics: Option<Arc<MetricsRegistry>>,
}

impl fmt::Debug for ServingScenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServingScenario")
            .field("name", &self.name)
            .field(
                "platforms",
                &self.platforms.iter().map(|(l, _)| l).collect::<Vec<_>>(),
            )
            .field("policies", &self.policies)
            .field("clusters", &self.clusters)
            .field("traffics", &self.traffics)
            .field("precisions", &self.precisions)
            .field("seq_lens", &self.seq_lens)
            .field("controls", &self.controls)
            .field("memory", &self.memory)
            .field("service", &self.service)
            .field("sla_s", &self.sla_s)
            .field("seed", &self.seed)
            .field("trace", &self.trace.is_some())
            .field("profile", &self.profile.is_some())
            .field("metrics", &self.metrics.is_some())
            .finish()
    }
}

impl ServingScenario {
    /// An empty serving scenario (DDR4 memory, deterministic service,
    /// seed 0x5EED) with the given name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        ServingScenario {
            name: name.into(),
            platforms: Vec::new(),
            policies: Vec::new(),
            clusters: Vec::new(),
            traffics: Vec::new(),
            precisions: Vec::new(),
            seq_lens: Vec::new(),
            controls: Vec::new(),
            memory: DramSpec::ddr4(),
            service: ServiceModel::Deterministic,
            sla_s: None,
            seed: 0x5EED,
            trace: None,
            profile: None,
            metrics: None,
        }
    }

    /// Adds a serving backend.
    #[must_use]
    pub fn platform(mut self, platform: impl Evaluator + 'static) -> Self {
        let label = platform.label();
        self.platforms.push((label, Arc::new(platform)));
        self
    }

    /// Adds one batching policy.
    #[must_use]
    pub fn policy(mut self, policy: BatchPolicy) -> Self {
        self.policies.push(policy);
        self
    }

    /// Adds a batch of policies.
    #[must_use]
    pub fn policies(mut self, policies: impl IntoIterator<Item = BatchPolicy>) -> Self {
        self.policies.extend(policies);
        self
    }

    /// Adds one cluster configuration.
    #[must_use]
    pub fn cluster(mut self, cluster: ClusterSpec) -> Self {
        self.clusters.push(cluster);
        self
    }

    /// Adds a batch of cluster configurations.
    #[must_use]
    pub fn clusters(mut self, clusters: impl IntoIterator<Item = ClusterSpec>) -> Self {
        self.clusters.extend(clusters);
        self
    }

    /// Adds one traffic configuration.
    #[must_use]
    pub fn traffic(mut self, traffic: TrafficSpec) -> Self {
        self.traffics.push(traffic);
        self
    }

    /// Adds a batch of traffic configurations.
    #[must_use]
    pub fn traffics(mut self, traffics: impl IntoIterator<Item = TrafficSpec>) -> Self {
        self.traffics.extend(traffics);
        self
    }

    /// Adds one precision policy to the sweep axis. A non-empty axis
    /// expands every traffic spec into one variant per policy: each
    /// variant's whole request mix runs under that policy, the arrival
    /// sequence stays paired with the other variants of the same traffic,
    /// and the cell's `precision` column names the policy.
    #[must_use]
    pub fn precision(mut self, policy: impl Into<PrecisionPolicy>) -> Self {
        self.precisions.push(policy.into());
        self
    }

    /// Adds a batch of precision policies (e.g.
    /// [`PrecisionPolicy::paper_sweep`]).
    #[must_use]
    pub fn precisions(mut self, policies: impl IntoIterator<Item = PrecisionPolicy>) -> Self {
        self.precisions.extend(policies);
        self
    }

    /// Adds one sequence length to the sweep axis. A non-empty axis expands
    /// every traffic spec whose mix contains a sequence-shaped network
    /// (transformers, RNN/LSTM) into one variant per length: prefill and
    /// recurrent classes take it as their token count, decode classes as
    /// their KV-cache length. Traffics with no sequence-shaped class are
    /// not expanded. Variants of one traffic keep the declared traffic's
    /// arrival seed, so comparisons along the axis are paired.
    #[must_use]
    pub fn seq_len(mut self, seq_len: usize) -> Self {
        self.seq_lens.push(seq_len);
        self
    }

    /// Adds a batch of sequence lengths to the sweep axis.
    #[must_use]
    pub fn seq_lens(mut self, seq_lens: impl IntoIterator<Item = usize>) -> Self {
        self.seq_lens.extend(seq_lens);
        self
    }

    /// Adds an adaptive-control entry to the control axis: every cell runs
    /// under a runtime precision controller walking `ladder` (rung 0 first)
    /// with the default [`crate::ControllerConfig`]. Combine with
    /// [`ServingScenario::static_control`] to compare adaptive against
    /// pinned-precision serving in one report; use
    /// [`ServingScenario::control`] for a custom controller or autoscaler.
    ///
    /// An empty control axis means every cell is static (the classic
    /// behavior). The control axis cannot be combined with a precision
    /// sweep: the controller owns the mix's precision at runtime.
    #[must_use]
    pub fn adaptive(self, ladder: DegradationLadder) -> Self {
        self.control(ControlPolicy::Adaptive(AdaptiveSpec::new(ladder)))
    }

    /// Adds a static-precision entry to the control axis (the mix's
    /// declared policies, pinned for the whole run).
    #[must_use]
    pub fn static_control(self) -> Self {
        self.control(ControlPolicy::Static)
    }

    /// Adds one control-axis entry ([`ControlPolicy::Static`] or a full
    /// [`AdaptiveSpec`] with controller/autoscaler configuration).
    #[must_use]
    pub fn control(mut self, control: impl Into<ControlPolicy>) -> Self {
        self.controls.push(control.into());
        self
    }

    /// Replaces the off-chip memory system (default DDR4).
    #[must_use]
    pub fn memory(mut self, memory: DramSpec) -> Self {
        self.memory = memory;
        self
    }

    /// Replaces the service-time model (default deterministic).
    #[must_use]
    pub fn service_model(mut self, service: ServiceModel) -> Self {
        self.service = service;
        self
    }

    /// Sets the latency SLA for goodput accounting, seconds.
    #[must_use]
    pub fn sla_s(mut self, sla_s: f64) -> Self {
        self.sla_s = Some(sla_s);
        self
    }

    /// Replaces the arrival seed (default 0x5EED).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Attaches a trace sink: every cell's event loop records request
    /// lifecycle, batch `exec` spans, queue-depth samples, and (for
    /// adaptive cells) rung-switch/scale events into it.
    ///
    /// Cells simulate rayon-parallel, so each buffers into a private
    /// in-memory sink; after the grid finishes, the buffers are forwarded
    /// into `sink` **in cell order**, each cell's tracks remapped to a
    /// disjoint `pid` range (cell `i` occupies `i*256 ..`) with the cell
    /// index prefixed onto its track names. The forwarded stream is
    /// therefore byte-deterministic regardless of rayon scheduling. A sink
    /// whose `enabled()` is `false` disables all of this.
    #[must_use]
    pub fn trace(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Attaches a wall-clock self-profiler: each cell's *host* simulation
    /// time is recorded under a `cell:…` label, and the table/rung-table
    /// builds under `build:…` labels. This channel is deliberately
    /// separate from [`ServingScenario::trace`] — wall-clock readings vary
    /// run-to-run and must never contaminate the deterministic trace.
    #[must_use]
    pub fn profile(mut self, profiler: Arc<WallProfiler>) -> Self {
        self.profile = Some(profiler);
        self
    }

    /// Attaches a metrics registry: after the grid runs, the shared cost
    /// model's hit/miss/entry counters (`cost.*`) and aggregate serving
    /// totals (`serve.*`) are recorded into it.
    #[must_use]
    pub fn metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// The derived arrival seed a scenario with base `seed` uses for its
    /// `traffic_idx`-th declared traffic. A [`crate::ServingRun`] with this
    /// seed, the cell's configuration and
    /// `RunOptions::default().with_sla(sla)` replays the cell exactly
    /// outside the grid: [`ServingMetrics::from_outcome`] of its outcome
    /// equals the cell's metrics. A replay that also retains records (to
    /// inspect raw [`crate::RequestRecord`]s, say) simulates the same run
    /// and differs only in `peak_records_retained`.
    #[must_use]
    pub fn mix_seed_for(seed: u64, traffic_idx: u64) -> u64 {
        mix_seed(seed, traffic_idx)
    }

    fn validate(&self) -> Result<(), ServingError> {
        if self.platforms.is_empty()
            || self.policies.is_empty()
            || self.clusters.is_empty()
            || self.traffics.is_empty()
        {
            return Err(ServingError(format!(
                "every axis needs at least one entry (platforms {}, policies {}, clusters {}, traffics {})",
                self.platforms.len(),
                self.policies.len(),
                self.clusters.len(),
                self.traffics.len()
            )));
        }
        for (i, (l, _)) in self.platforms.iter().enumerate() {
            if self.platforms[..i].iter().any(|(other, _)| other == l) {
                return Err(ServingError(format!("duplicate platform label `{l}`")));
            }
        }
        for p in &self.policies {
            validate_policy(p)?;
        }
        for c in &self.clusters {
            validate_cluster(c)?;
        }
        for t in &self.traffics {
            validate_traffic(t)?;
        }
        // A duplicated precision would emit byte-identical cells that
        // double-weight the point downstream (mirrors `Scenario`'s
        // duplicate-workload rejection of a colliding precision axis).
        for (i, p) in self.precisions.iter().enumerate() {
            if self.precisions[..i].contains(p) {
                return Err(ServingError(format!(
                    "duplicate precision policy `{p}` in the sweep axis"
                )));
            }
        }
        for (i, s) in self.seq_lens.iter().enumerate() {
            if *s == 0 {
                return Err(ServingError(
                    "sequence lengths in the sweep axis must be at least 1".into(),
                ));
            }
            if self.seq_lens[..i].contains(s) {
                return Err(ServingError(format!(
                    "duplicate sequence length {s} in the sweep axis"
                )));
            }
        }
        for (i, c) in self.controls.iter().enumerate() {
            if self.controls[..i].contains(c) {
                return Err(ServingError(format!(
                    "duplicate control policy `{c}` in the control axis"
                )));
            }
            if let Some(spec) = c.adaptive_spec() {
                validate_control(spec)?;
                for cluster in &self.clusters {
                    validate_control_for_cluster(spec, cluster)?;
                }
                // A ladder rung that cannot apply to some mix network (a
                // per-layer list with the wrong layer count) surfaces from
                // the rung-table build in `try_run`, which constructs each
                // distinct ladder's networks exactly once.
            }
        }
        if !self.precisions.is_empty() && self.controls.iter().any(|c| c.adaptive_spec().is_some())
        {
            return Err(ServingError(
                "a precision sweep cannot be combined with adaptive control \
                 (the controller owns the mix's precision at runtime)"
                    .into(),
            ));
        }
        if let Some(sla) = self.sla_s {
            if !positive(sla) {
                return Err(ServingError("the SLA must be a positive latency".into()));
            }
        }
        Ok(())
    }

    /// Runs the scenario; see [`ServingScenario::try_run`] for the fallible
    /// form.
    ///
    /// # Panics
    ///
    /// Panics on an invalid scenario (empty axis, duplicate labels, zero
    /// request counts, non-positive rates or weights).
    #[must_use]
    pub fn run(&self) -> ServingReport {
        match self.try_run() {
            Ok(report) => report,
            Err(e) => panic!("serving scenario `{}`: {e}", self.name),
        }
    }

    /// The traffic axis the run actually simulates: each declared traffic,
    /// expanded per precision policy when a precision axis is set, then per
    /// sequence length when a sequence axis is set (only for traffics whose
    /// mix has a sequence-shaped class). Entries are `(declared-traffic
    /// index, precision label, sequence label, spec)`; the index seeds
    /// arrivals, so every variant of one traffic stays paired.
    fn effective_traffics(&self) -> Vec<(usize, String, String, TrafficSpec)> {
        let swept: Vec<(usize, String, TrafficSpec)> = if self.precisions.is_empty() {
            self.traffics
                .iter()
                .enumerate()
                .map(|(i, t)| (i, mix_precision_label(t), t.clone()))
                .collect()
        } else {
            self.traffics
                .iter()
                .enumerate()
                .flat_map(|(i, t)| {
                    self.precisions.iter().map(move |p| {
                        let mut variant = t.clone();
                        for entry in &mut variant.mix.entries {
                            entry.workload = entry.workload.clone().with_policy(p.clone());
                        }
                        (i, p.to_string(), variant)
                    })
                })
                .collect()
        };
        swept
            .into_iter()
            .flat_map(|(i, precision, t)| {
                let sequence_shaped = t
                    .mix
                    .entries
                    .iter()
                    .any(|e| e.workload.network.has_sequence_dim());
                if self.seq_lens.is_empty() || !sequence_shaped {
                    return vec![(i, precision, "-".to_string(), t)];
                }
                self.seq_lens
                    .iter()
                    .map(|&s| {
                        let mut variant = t.clone();
                        for entry in &mut variant.mix.entries {
                            let w = entry.workload.clone();
                            entry.workload = if w.decode_kv.is_some() {
                                w.with_decode_kv(s)
                            } else if w.network.has_sequence_dim() {
                                w.with_seq_len(s)
                            } else {
                                w
                            };
                        }
                        (i, precision.clone(), s.to_string(), variant)
                    })
                    .collect()
            })
            .collect()
    }

    /// Simulates the full platforms × policies × clusters × traffics
    /// (× precisions) (× controls) cross-product — rayon-parallel across
    /// cells — and reports the results.
    ///
    /// Batch cost tables are built once per (platform, traffic) through a
    /// single shared [`CostModel`] and handed to every policy × cluster
    /// cell behind an [`Arc`]: replicas, routers and batch caps all read
    /// the same table instead of re-running the analytical model. Adaptive
    /// control entries additionally get one table per ladder rung — built
    /// once per distinct ladder (not per control entry) through the same
    /// memo, and shared by every replica of every adaptive cell.
    ///
    /// # Errors
    ///
    /// Fails if an axis is empty, platform labels collide, or any policy,
    /// cluster, traffic, precision, or control assignment is malformed
    /// (see [`ServingError`]).
    pub fn try_run(&self) -> Result<ServingReport, ServingError> {
        self.validate()?;
        let traffics = self.effective_traffics();
        let controls: Vec<ControlPolicy> = if self.controls.is_empty() {
            vec![ControlPolicy::Static]
        } else {
            self.controls.clone()
        };
        // Distinct ladders and each control's index into them (two adaptive
        // entries differing only in controller tuning share rung tables).
        let mut ladders: Vec<&DegradationLadder> = Vec::new();
        let control_ladder: Vec<Option<usize>> = controls
            .iter()
            .map(|c| {
                c.adaptive_spec().map(|spec| {
                    ladders
                        .iter()
                        .position(|l| **l == spec.ladder)
                        .unwrap_or_else(|| {
                            ladders.push(&spec.ladder);
                            ladders.len() - 1
                        })
                })
            })
            .collect();
        // Validate every mix workload's precision once, keeping the built
        // networks so the per-platform table builds below reuse them.
        let networks: Vec<Vec<bpvec_dnn::Network>> = traffics
            .iter()
            .map(|(_, precision, _, t)| {
                t.mix
                    .entries
                    .iter()
                    .map(|entry| {
                        entry.workload.try_build().map_err(|e| {
                            ServingError(format!(
                                "traffic `{}` under precision `{precision}`: {e}",
                                t.label
                            ))
                        })
                    })
                    .collect::<Result<_, _>>()
            })
            .collect::<Result<_, _>>()?;
        // One memoized cost model for the whole grid, one Arc'd table per
        // (platform, traffic) sized to the largest batch any policy asks
        // for — smaller-cap policies read a prefix of the same table.
        let cost = CostModel::new();
        let build_started = self.profile.as_ref().map(|_| std::time::Instant::now());
        let max_batch = self
            .policies
            .iter()
            .map(BatchPolicy::max_batch)
            .max()
            .expect("validate ensures at least one policy");
        let tables: Vec<Vec<Arc<CostTable>>> = self
            .platforms
            .par_iter()
            .map(|(_, backend)| {
                traffics
                    .iter()
                    .zip(&networks)
                    .map(|((_, _, _, t), nets)| {
                        Arc::new(CostTable::build_with_networks(
                            backend.as_ref(),
                            &self.memory,
                            t,
                            nets,
                            max_batch,
                            &cost,
                        ))
                    })
                    .collect()
            })
            .collect();
        // `rung_tables[l][p][tr][r]`: per distinct ladder, per platform ×
        // traffic, one cost table per rung — all through the shared memo.
        let rung_tables: Vec<Vec<Vec<Vec<Arc<CostTable>>>>> = ladders
            .iter()
            .map(|ladder| {
                let probe = AdaptiveSpec::new((*ladder).clone());
                self.platforms
                    .par_iter()
                    .map(|(_, backend)| {
                        traffics
                            .iter()
                            .map(|(_, _, _, t)| {
                                build_rung_tables(
                                    backend.as_ref(),
                                    &self.memory,
                                    t,
                                    &probe,
                                    max_batch,
                                    &cost,
                                )
                            })
                            .collect::<Result<Vec<_>, _>>()
                    })
                    .collect::<Result<Vec<_>, _>>()
            })
            .collect::<Result<Vec<_>, _>>()?;
        if let (Some(prof), Some(t0)) = (&self.profile, build_started) {
            prof.record("build:cost_tables", t0.elapsed().as_secs_f64());
        }
        let n_traffics = traffics.len();
        let n_controls = controls.len();
        let jobs: Vec<(usize, usize, usize, usize, usize)> = (0..self.platforms.len())
            .flat_map(|p| {
                (0..self.policies.len()).flat_map(move |pol| {
                    (0..self.clusters.len()).flat_map(move |cl| {
                        (0..n_traffics)
                            .flat_map(move |tr| (0..n_controls).map(move |co| (p, pol, cl, tr, co)))
                    })
                })
            })
            .collect();
        // Cells run rayon-parallel, so a traced run buffers each cell's
        // events into a private sink; the buffers are forwarded into the
        // user's sink below, in cell order, so the final stream does not
        // depend on scheduling.
        let do_trace = self.trace.as_deref().is_some_and(TraceSink::enabled);
        let cells_with_events: Vec<(ServingCell, Vec<TraceEvent>)> = jobs
            .into_par_iter()
            .map(|(p, pol, cl, tr, co)| {
                let (traffic_idx, precision, seq, traffic) = &traffics[tr];
                let spec = controls[co].adaptive_spec();
                let cell_tables = match control_ladder[co] {
                    None => vec![Arc::clone(&tables[p][tr])],
                    Some(l) => rung_tables[l][p][tr].clone(),
                };
                let cell_sink = if do_trace {
                    Some(MemorySink::new())
                } else {
                    None
                };
                let cell_started = self.profile.as_ref().map(|_| std::time::Instant::now());
                let outcome = run_event_loop(
                    cell_tables,
                    spec,
                    self.policies[pol],
                    self.clusters[cl],
                    traffic,
                    self.service,
                    mix_seed(self.seed, *traffic_idx as u64),
                    cell_sink.as_ref().map(|s| s as &dyn TraceSink),
                    RunOptions::default().with_sla(self.sla_s),
                    None,
                );
                if let (Some(prof), Some(t0)) = (&self.profile, cell_started) {
                    prof.record(
                        &format!(
                            "cell:{}:{}:pol{pol}:cl{cl}:{}",
                            self.platforms[p].0, traffic.label, controls[co]
                        ),
                        t0.elapsed().as_secs_f64(),
                    );
                }
                let metrics = ServingMetrics::from_outcome(&outcome, self.clusters[cl].replicas);
                // Post-warmup completions per service class, labelled so
                // prefill/decode splits are visible per cell.
                let class_counts = outcome.summary.class_completed.clone();
                let classes = traffic
                    .mix
                    .entries
                    .iter()
                    .zip(&class_counts)
                    .map(|(e, n)| format!("{}:{n}", e.class_label()))
                    .collect::<Vec<_>>()
                    .join("+");
                let cell = ServingCell {
                    platform: self.platforms[p].0.clone(),
                    policy: self.policies[pol],
                    cluster: self.clusters[cl],
                    traffic: traffic.label.clone(),
                    precision: match spec {
                        // An adaptive cell's precision is rung 0's policy;
                        // the per-rung reality lives in the control column
                        // and the time-in-policy / degraded-share metrics.
                        Some(s) => s.ladder.rungs()[0].to_string(),
                        None => precision.clone(),
                    },
                    control: controls[co].to_string(),
                    offered_rps: traffic.offered_rps().unwrap_or(0.0),
                    seq: seq.clone(),
                    classes,
                    metrics,
                };
                let events = cell_sink.map(|s| s.take()).unwrap_or_default();
                (cell, events)
            })
            .collect();
        // Forward the buffered traces in cell order: each cell's tracks
        // move to a disjoint pid range and its track names gain the cell
        // index, so one Perfetto view holds the whole grid.
        let forward = self.trace.as_deref().filter(|t| t.enabled());
        let mut cells = Vec::with_capacity(cells_with_events.len());
        for (i, (cell, events)) in cells_with_events.into_iter().enumerate() {
            if let Some(sink) = forward {
                const CELL_PID_STRIDE: u32 = 256;
                let base = u32::try_from(i).expect("cell count fits u32") * CELL_PID_STRIDE;
                for mut e in events {
                    e.pid += base;
                    if e.ph == Phase::Meta && e.name == "process_name" {
                        for (key, value) in &mut e.args {
                            if key == "name" {
                                if let ArgValue::Str(s) = value {
                                    *s = format!("cell{i} {s}");
                                }
                            }
                        }
                    }
                    sink.record(e);
                }
            }
            cells.push(cell);
        }
        if let Some(reg) = &self.metrics {
            cost.record_metrics(reg);
            reg.counter_add("serve.cells", cells.len() as u64);
            for cell in &cells {
                reg.counter_add("serve.requests_completed", cell.metrics.completed);
                reg.counter_add("serve.policy_switches", cell.metrics.policy_switches);
                reg.counter_add("serve.scale_events", cell.metrics.scale_events);
                reg.observe("serve.cell_makespan_s", cell.metrics.makespan_s);
            }
        }
        Ok(ServingReport {
            scenario: self.name.clone(),
            sla_s: self.sla_s,
            cells,
        })
    }
}

/// The precision column of a non-swept cell: the distinct policies of the
/// traffic's mix, `+`-joined in first-appearance order.
fn mix_precision_label(t: &TrafficSpec) -> String {
    let mut seen: Vec<String> = Vec::new();
    for entry in &t.mix.entries {
        let s = entry.workload.policy.to_string();
        if !seen.contains(&s) {
            seen.push(s);
        }
    }
    seen.join("+")
}

/// Derives the per-traffic arrival seed (SplitMix64 over seed ⊕ index), so
/// every cell sharing a traffic spec replays the same arrival sequence.
fn mix_seed(seed: u64, traffic_idx: u64) -> u64 {
    let mut z = seed ^ (traffic_idx.wrapping_add(1)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One cell of a serving report: which configuration, and what it measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingCell {
    /// Platform label.
    pub platform: String,
    /// The batching policy.
    pub policy: BatchPolicy,
    /// The cluster configuration.
    pub cluster: ClusterSpec,
    /// The traffic spec's label.
    pub traffic: String,
    /// The precision the cell's request mix ran at: the sweep policy's
    /// display form, or the mix's own (`+`-joined) policies without a
    /// sweep. Adaptive cells report their ladder's rung 0 (the precision
    /// the run *starts* at); see the `control` column for the ladder.
    pub precision: String,
    /// The cell's control policy: `static`, or the adaptive ladder (and
    /// autoscaler bounds) in display form.
    pub control: String,
    /// Long-run offered rate (0 for closed-loop traffic, which adapts).
    pub offered_rps: f64,
    /// The sequence-axis value the cell ran at (`-` when the cell was not
    /// produced by a sequence sweep): prefill/recurrent classes read it as
    /// token count, decode classes as KV-cache length.
    pub seq: String,
    /// The mix's service classes with their post-warmup completion counts,
    /// `+`-joined in class order (e.g. `prefill128:412+decode128:388`) —
    /// the per-cell view of the prefill/decode split.
    pub classes: String,
    /// Everything measured.
    pub metrics: ServingMetrics,
}

/// The outcome of a [`ServingScenario`] run. Serializes to JSON and renders
/// CSV rows, one per cell, like [`bpvec_sim::Report`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingReport {
    /// The scenario's name.
    pub scenario: String,
    /// The SLA the goodput column is measured against, if any.
    pub sla_s: Option<f64>,
    /// Cells in platform-major, then policy, cluster, traffic order.
    pub cells: Vec<ServingCell>,
}

impl ServingReport {
    /// Looks up one cell by its display coordinates (`policy` and `cluster`
    /// in their `Display` forms, e.g. `"deadline(16,500us)"`, `"jsqx4"`).
    #[must_use]
    pub fn cell(
        &self,
        platform: &str,
        policy: &str,
        cluster: &str,
        traffic: &str,
    ) -> Option<&ServingCell> {
        self.cells.iter().find(|c| {
            c.platform == platform
                && c.policy.to_string() == policy
                && c.cluster.to_string() == cluster
                && c.traffic == traffic
        })
    }

    /// Renders every cell as a CSV row for downstream analysis. The
    /// `precision` column carries the cell's precision policy and the
    /// `control` column its control policy, so precision sweeps and
    /// adaptive-vs-static comparisons plot directly; the trailing `seq` and
    /// `classes` columns carry the sequence-axis value and the per-class
    /// (e.g. prefill/decode) completion split.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "platform,policy,cluster,traffic,precision,control,offered_rps,throughput_rps,\
             goodput_rps,p50_ms,p95_ms,p99_ms,mean_ms,max_ms,mean_queue_depth,utilization,\
             mean_batch,energy_mj_per_req,sla_attainment,full_precision_share,policy_switches,\
             mean_replicas,seq,classes\n",
        );
        for c in &self.cells {
            let m = &c.metrics;
            out.push_str(&format!(
                "{},{},{},{},{},{},{:.3},{:.3},{:.3},{:.4},{:.4},{:.4},{:.4},{:.4},{:.3},{:.4},{:.3},{:.5},{:.4},{:.4},{},{:.3},{},{}\n",
                c.platform,
                c.policy,
                c.cluster,
                c.traffic,
                c.precision,
                c.control,
                c.offered_rps,
                m.throughput_rps,
                m.goodput_rps,
                m.latency.p50_s * 1e3,
                m.latency.p95_s * 1e3,
                m.latency.p99_s * 1e3,
                m.latency.mean_s * 1e3,
                m.latency.max_s * 1e3,
                m.mean_queue_depth,
                m.utilization,
                m.mean_batch,
                m.energy_per_request_j * 1e3,
                m.sla_attainment,
                m.full_precision_share,
                m.policy_switches,
                m.mean_active_replicas,
                c.seq,
                c.classes,
            ));
        }
        out
    }

    /// Renders the report as pretty-printed JSON.
    ///
    /// # Panics
    ///
    /// Panics if serialization fails (it cannot for plain data).
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("serving report serialization cannot fail")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::RequestMix;
    use bpvec_dnn::{BitwidthPolicy, NetworkId};
    use bpvec_sim::{AcceleratorConfig, Workload};

    fn quick_traffic(label: &str, rate: f64) -> TrafficSpec {
        TrafficSpec::new(
            label,
            ArrivalProcess::poisson(rate),
            RequestMix::single(Workload::new(NetworkId::Lstm, BitwidthPolicy::Homogeneous8)),
            120,
        )
    }

    fn small_scenario() -> ServingScenario {
        ServingScenario::new("unit")
            .platform(AcceleratorConfig::bpvec())
            .policy(BatchPolicy::immediate())
            .policy(BatchPolicy::deadline(4, 0.001))
            .cluster(ClusterSpec::single())
            .traffic(quick_traffic("steady", 50.0))
    }

    #[test]
    fn cross_product_covers_every_cell() {
        let report = small_scenario()
            .cluster(ClusterSpec::new(2, crate::Router::JoinShortestQueue))
            .traffic(quick_traffic("fast", 200.0))
            .run();
        assert_eq!(report.cells.len(), 2 * 2 * 2);
        assert!(report
            .cell("BPVeC", "immediate", "rrx1", "steady")
            .is_some());
        assert!(report
            .cell("BPVeC", "deadline(4,1000us)", "jsqx2", "fast")
            .is_some());
    }

    #[test]
    fn runs_are_deterministic() {
        let s = small_scenario();
        let a = s.run();
        let b = s.run();
        assert_eq!(a, b);
        assert_eq!(a.to_csv(), b.to_csv());
    }

    #[test]
    fn empty_axis_is_rejected() {
        let err = ServingScenario::new("empty")
            .platform(AcceleratorConfig::bpvec())
            .policy(BatchPolicy::immediate())
            .try_run()
            .unwrap_err();
        assert!(err.to_string().contains("at least one entry"));
    }

    #[test]
    fn duplicate_platform_labels_are_rejected() {
        let err = ServingScenario::new("dup")
            .platform(AcceleratorConfig::bpvec())
            .platform(AcceleratorConfig::bpvec())
            .policy(BatchPolicy::immediate())
            .cluster(ClusterSpec::single())
            .traffic(quick_traffic("t", 10.0))
            .try_run()
            .unwrap_err();
        assert!(err.to_string().contains("duplicate platform label"));
    }

    #[test]
    fn malformed_axes_are_rejected() {
        let base = || {
            ServingScenario::new("bad")
                .platform(AcceleratorConfig::bpvec())
                .cluster(ClusterSpec::single())
                .traffic(quick_traffic("t", 10.0))
        };
        let err = base().policy(BatchPolicy::fixed(0)).try_run().unwrap_err();
        assert!(err.to_string().contains("at least 1"));
        let err = base()
            .policy(BatchPolicy::immediate())
            .traffic(quick_traffic("zero-rate", 0.0))
            .try_run()
            .unwrap_err();
        assert!(err.to_string().contains("rate must be positive"));
        let err = base()
            .policy(BatchPolicy::immediate())
            .traffic(quick_traffic("w", 10.0).with_warmup(120))
            .try_run()
            .unwrap_err();
        assert!(err.to_string().contains("warmup"));
        let err = base()
            .policy(BatchPolicy::immediate())
            .sla_s(0.0)
            .try_run()
            .unwrap_err();
        assert!(err.to_string().contains("SLA"));
    }

    #[test]
    fn csv_lists_every_cell_and_json_round_trips() {
        let report = small_scenario().sla_s(0.050).run();
        let csv = report.to_csv();
        assert_eq!(csv.trim().lines().count(), 1 + report.cells.len());
        assert!(csv.starts_with("platform,policy,cluster,traffic"));
        assert!(csv.contains("BPVeC,immediate,rrx1,steady"));
        let back: ServingReport = serde_json::from_str(&report.to_json()).unwrap();
        assert_eq!(report, back);
    }

    #[test]
    fn precision_axis_expands_traffics_with_paired_arrivals() {
        let report = ServingScenario::new("precision")
            .platform(AcceleratorConfig::bpvec())
            .policy(BatchPolicy::immediate())
            .cluster(ClusterSpec::single())
            .traffic(quick_traffic("steady", 50.0))
            .precisions(PrecisionPolicy::paper_sweep())
            .run();
        assert_eq!(report.cells.len(), 4);
        let precisions: Vec<&str> = report.cells.iter().map(|c| c.precision.as_str()).collect();
        assert_eq!(
            precisions,
            vec!["uniform8", "uniform6", "uniform4", "uniform2"]
        );
        // Same base traffic index ⇒ same arrival sequence across the sweep.
        let completed: Vec<u64> = report.cells.iter().map(|c| c.metrics.completed).collect();
        assert!(completed.iter().all(|&c| c == completed[0]));
        // Narrower precision means faster service, so mean latency is
        // monotone non-increasing down the sweep on a composable backend.
        let means: Vec<f64> = report
            .cells
            .iter()
            .map(|c| c.metrics.latency.mean_s)
            .collect();
        for pair in means.windows(2) {
            assert!(pair[1] <= pair[0] * 1.0000001, "{means:?}");
        }
        // The CSV carries the precision column.
        let csv = report.to_csv();
        assert!(csv
            .lines()
            .next()
            .unwrap()
            .contains("traffic,precision,control,offered_rps"));
        assert!(csv.contains("steady,uniform2,"), "{csv}");
    }

    #[test]
    fn prefill_decode_classes_sweep_the_sequence_axis() {
        use crate::arrivals::RequestMix;
        let bert = Workload::new(NetworkId::BertBase, BitwidthPolicy::Homogeneous8);
        let build = || {
            ServingScenario::new("transformer")
                .platform(AcceleratorConfig::bpvec())
                .policy(BatchPolicy::immediate())
                .cluster(ClusterSpec::single())
                .traffic(TrafficSpec::new(
                    "chat",
                    ArrivalProcess::poisson(20.0),
                    RequestMix::prefill_decode(bert.clone(), 128, 1.0, 1.0),
                    80,
                ))
                .traffic(TrafficSpec::new(
                    "decode-only",
                    ArrivalProcess::poisson(20.0),
                    RequestMix::single(bert.clone().with_decode_kv(128)),
                    80,
                ))
                .traffic(TrafficSpec::new(
                    "cnn",
                    ArrivalProcess::poisson(20.0),
                    RequestMix::single(Workload::new(
                        NetworkId::AlexNet,
                        BitwidthPolicy::Homogeneous8,
                    )),
                    80,
                ))
                .seq_lens([64, 256])
        };
        let report = build().run();
        // Sequence-shaped traffics expand per length; the CNN traffic
        // stays a single cell with a `-` sequence value.
        assert_eq!(report.cells.len(), 2 + 2 + 1);
        let cell = |traffic: &str, seq: &str| {
            report
                .cells
                .iter()
                .find(|c| c.traffic == traffic && c.seq == seq)
                .unwrap_or_else(|| panic!("no cell {traffic}/{seq}"))
        };
        // Prefill and decode ride as distinct classes with visible counts.
        let chat = cell("chat", "64");
        assert!(chat.classes.contains("prefill64:"), "{}", chat.classes);
        assert!(chat.classes.contains("+decode64:"), "{}", chat.classes);
        let counted: u64 = chat
            .classes
            .split('+')
            .map(|c| c.split(':').nth(1).unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(counted, 80, "every admitted request lands in a class");
        assert_eq!(cell("cnn", "-").classes, "AlexNet:80");
        // Decode service cost grows with the KV-cache length, and arrivals
        // stay paired along the axis, so so does the mean sojourn.
        let d64 = cell("decode-only", "64").metrics.latency.mean_s;
        let d256 = cell("decode-only", "256").metrics.latency.mean_s;
        assert!(d256 > d64, "decode kv 256 {d256} vs kv 64 {d64}");
        assert!(
            cell("chat", "256").metrics.latency.mean_s > chat.metrics.latency.mean_s,
            "longer prefill+decode sequences cost more"
        );
        // The CSV carries the trailing seq/classes columns byte-for-byte
        // deterministically.
        let csv = report.to_csv();
        assert_eq!(csv, build().run().to_csv());
        assert!(csv.contains(",256,prefill256:"), "{csv}");
        assert!(csv.contains(",decode256:"), "{csv}");
        assert!(csv.contains(",-,AlexNet:80"), "{csv}");
    }

    #[test]
    fn duplicate_sequence_lengths_are_rejected() {
        let err = small_scenario().seq_lens([128, 128]).try_run().unwrap_err();
        assert!(err.to_string().contains("duplicate sequence"), "{err}");
        let err = small_scenario().seq_len(0).try_run().unwrap_err();
        assert!(err.to_string().contains("at least 1"), "{err}");
    }

    #[test]
    fn duplicate_precisions_in_the_axis_are_rejected() {
        let int4: PrecisionPolicy = "int4".parse().expect("parses");
        let err = small_scenario()
            .precision(int4.clone())
            .precision(int4)
            .try_run()
            .unwrap_err();
        assert!(err.to_string().contains("duplicate precision"), "{err}");
    }

    #[test]
    fn without_a_sweep_the_precision_column_names_the_mix_policies() {
        let report = small_scenario().run();
        assert!(report.cells.iter().all(|c| c.precision == "Homogeneous8"));
    }

    #[test]
    fn control_axis_expands_cells_and_reports_control_column() {
        use crate::controller::ControllerConfig;
        use bpvec_dnn::DegradationLadder;
        let spec = AdaptiveSpec::new(DegradationLadder::paper())
            .with_controller(ControllerConfig::new(0.005).with_depths(1, 6));
        let report = ServingScenario::new("control")
            .platform(AcceleratorConfig::bpvec())
            .policy(BatchPolicy::immediate())
            .cluster(ClusterSpec::single())
            .traffic(quick_traffic("steady", 50.0))
            .static_control()
            .control(spec)
            .run();
        assert_eq!(report.cells.len(), 2);
        assert_eq!(report.cells[0].control, "static");
        assert_eq!(
            report.cells[1].control,
            "adaptive(Heterogeneous>uniform4>uniform2)"
        );
        // Adaptive cells report their rung-0 precision.
        assert_eq!(report.cells[1].precision, "Heterogeneous");
        // Arrivals stay paired across the control axis.
        assert_eq!(
            report.cells[0].metrics.completed,
            report.cells[1].metrics.completed
        );
        let header = report.to_csv().lines().next().unwrap().to_string();
        assert!(header.contains("precision,control,offered_rps"), "{header}");
        assert!(
            header.ends_with("full_precision_share,policy_switches,mean_replicas,seq,classes"),
            "{header}"
        );
    }

    /// `mix_seed_for`'s promise: each cell of a policies × clusters ×
    /// traffics × {static, adaptive} grid, replayed as one streaming
    /// `ServingRun` at its traffic's derived seed with the grid's SLA,
    /// reports exactly the cell's metrics. A replay that retains records
    /// is the oracle of the sketched columns: each cell's p50/p95/p99 lie
    /// within the sketch's 2% of the exact nearest-rank quantiles of the
    /// post-warmup records, and its SLA attainment is their exact share.
    #[test]
    fn every_cell_replays_exactly_as_one_run() {
        use crate::controller::ControllerConfig;
        use crate::sim::{RequestRecord, ServingRun, Topology};
        use bpvec_dnn::DegradationLadder;
        let policies = [BatchPolicy::immediate(), BatchPolicy::deadline(4, 0.002)];
        let clusters = [
            ClusterSpec::single(),
            ClusterSpec::new(2, crate::Router::LeastDegraded),
        ];
        let traffics = [
            quick_traffic("steady", 50.0),
            quick_traffic("fast", 400.0).with_warmup(20),
        ];
        let spec = AdaptiveSpec::new(DegradationLadder::paper())
            .with_controller(ControllerConfig::new(0.005).with_depths(1, 6));
        let (seed, sla) = (0xC311, 0.05);
        let report = ServingScenario::new("replay")
            .platform(AcceleratorConfig::bpvec())
            .policies(policies)
            .clusters(clusters)
            .traffics(traffics.clone())
            .static_control()
            .control(spec.clone())
            .sla_s(sla)
            .seed(seed)
            .run();
        assert_eq!(report.cells.len(), 16);
        assert!(
            report.cells.iter().any(|c| c.metrics.policy_switches > 0),
            "some adaptive cell must switch rungs"
        );
        assert!(
            report.cells.iter().any(|c| c.metrics.sla_attainment < 1.0),
            "some cell must miss the SLA"
        );
        let mut cells = report.cells.iter();
        for policy in policies {
            for cluster in clusters {
                for (i, traffic) in traffics.iter().enumerate() {
                    for control in [None, Some(&spec)] {
                        let cell = cells.next().expect("16 cells");
                        let label =
                            format!("{policy} / {cluster} / {} / {}", cell.traffic, cell.control);
                        let run = ServingRun {
                            backend: &AcceleratorConfig::bpvec(),
                            memory: DramSpec::ddr4(),
                            policy,
                            topology: Topology::Cluster(cluster),
                            traffic,
                            control,
                            service: ServiceModel::Deterministic,
                            seed: ServingScenario::mix_seed_for(seed, i as u64),
                        };
                        let streamed = run
                            .try_run(RunOptions::default().with_sla(Some(sla)), None)
                            .expect("valid run");
                        let replayed = ServingMetrics::from_outcome(&streamed, cluster.replicas);
                        assert_eq!(replayed, cell.metrics, "{label}");
                        let retained = run
                            .try_run(RunOptions::retained().with_sla(Some(sla)), None)
                            .expect("valid run");
                        let mut exact: Vec<f64> = retained
                            .records
                            .iter()
                            .filter(|r| r.id >= traffic.warmup)
                            .map(RequestRecord::sojourn_s)
                            .collect();
                        exact.sort_by(f64::total_cmp);
                        let m = &cell.metrics;
                        for (q, est) in [
                            (0.50, m.latency.p50_s),
                            (0.95, m.latency.p95_s),
                            (0.99, m.latency.p99_s),
                        ] {
                            let rank =
                                ((q * exact.len() as f64).ceil() as usize).clamp(1, exact.len());
                            let truth = exact[rank - 1];
                            assert!(
                                (est - truth).abs() <= 0.02 * truth,
                                "{label}: q{q} sketch {est} vs exact {truth}"
                            );
                        }
                        let within = exact.iter().filter(|&&s| s <= sla).count();
                        assert_eq!(
                            m.sla_attainment,
                            within as f64 / exact.len() as f64,
                            "{label}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn adaptive_scenarios_are_deterministic() {
        use bpvec_dnn::DegradationLadder;
        let build = || {
            ServingScenario::new("det")
                .platform(AcceleratorConfig::bpvec())
                .policy(BatchPolicy::deadline(4, 0.002))
                .cluster(ClusterSpec::new(2, crate::Router::LeastDegraded))
                .traffic(quick_traffic("steady", 120.0))
                .adaptive(DegradationLadder::paper())
                .sla_s(0.050)
        };
        let a = build().run();
        let b = build().run();
        assert_eq!(a, b);
        assert_eq!(a.to_csv(), b.to_csv());
    }

    #[test]
    fn malformed_controls_are_rejected() {
        use crate::controller::{AutoscalerConfig, ControllerConfig};
        use bpvec_dnn::DegradationLadder;
        let base = || small_scenario();
        // Duplicate control entries.
        let err = base()
            .static_control()
            .static_control()
            .try_run()
            .unwrap_err();
        assert!(err.to_string().contains("duplicate control"), "{err}");
        // Inverted hysteresis watermarks.
        let bad = AdaptiveSpec::new(DegradationLadder::paper())
            .with_controller(ControllerConfig::new(0.01).with_depths(8, 8));
        let err = base().control(bad).try_run().unwrap_err();
        assert!(err.to_string().contains("low_depth < high_depth"), "{err}");
        // Cluster outside the autoscaler bounds.
        let scaled = AdaptiveSpec::new(DegradationLadder::paper())
            .with_autoscaler(AutoscalerConfig::new(2, 4));
        let err = base().control(scaled).try_run().unwrap_err();
        assert!(err.to_string().contains("outside the autoscaler"), "{err}");
        // Precision sweep × adaptive control.
        let int4: PrecisionPolicy = "int4".parse().expect("parses");
        let err = base()
            .precision(int4.clone())
            .adaptive(DegradationLadder::paper())
            .try_run()
            .unwrap_err();
        assert!(err.to_string().contains("cannot be combined"), "{err}");
        // A ladder rung that does not apply to the mix's network.
        let lp = match &int4 {
            PrecisionPolicy::Uniform(lp) => *lp,
            _ => unreachable!("int4 parses to a uniform policy"),
        };
        let bad_rung = bpvec_dnn::PrecisionPolicy::degradation_ladder([
            PrecisionPolicy::per_layer(vec![lp; 100]),
        ])
        .expect("valid ladder shape");
        let err = base()
            .control(AdaptiveSpec::new(bad_rung))
            .try_run()
            .unwrap_err();
        assert!(err.to_string().contains("ladder rung 0"), "{err}");
    }

    #[test]
    fn paired_arrivals_across_policies() {
        // Same traffic index ⇒ same arrival sequence: with a capacity-rich
        // immediate policy both cells must serve the same request count at
        // the same offered rate.
        let report = small_scenario().run();
        let a = report.cell("BPVeC", "immediate", "rrx1", "steady").unwrap();
        let b = report
            .cell("BPVeC", "deadline(4,1000us)", "rrx1", "steady")
            .unwrap();
        assert_eq!(a.metrics.completed, b.metrics.completed);
        assert_eq!(a.offered_rps, b.offered_rps);
    }
}
