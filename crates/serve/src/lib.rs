//! # `bpvec-serve` — discrete-event inference-serving simulation
//!
//! The paper's evaluation reports steady-state throughput and energy; a
//! production service is judged by *queueing* behavior — arrival
//! burstiness, batch formation, replica routing, p99 latency. This crate
//! turns any [`Evaluator`](bpvec_sim::Evaluator) backend (the analytical
//! ASIC configs, the GPU model, or a user-supplied platform) into a service
//! under load, simulated by a deterministic, seeded discrete-event engine:
//!
//! ```text
//!  generators ──▶ router ──▶ per-replica queues ──▶ batch scheduler ──▶ backend
//!  (arrivals)    (cluster)   (one FIFO per class)  (immediate/fixed/     (batch cost
//!                                                   deadline-aware)       from BatchRegime)
//!                                        │
//!                                        ▼
//!                                 metrics pipeline
//!                     (latency histograms, p50/p95/p99, queue depth,
//!                      utilization, energy/request, goodput under SLA)
//! ```
//!
//! * [`arrivals`] — open-loop Poisson / bursty-MMPP / trace-replay /
//!   diurnal / flash-crowd and closed-loop fixed-concurrency
//!   [`ArrivalProcess`]es, with per-network [`RequestMix`]es bundled into
//!   [`TrafficSpec`]s;
//! * [`scheduler`] — the [`BatchPolicy`] spectrum: immediate dispatch,
//!   fixed-size batching, and deadline-aware dynamic batching whose batch
//!   costs come from the backend's `BatchRegime` latencies (so CNN
//!   tile-spill effects shape the optimal batch);
//! * [`cluster`] — N replicas behind a [`Router`]: round-robin,
//!   join-shortest-queue, network-affinity sharding, or precision-aware
//!   least-degraded routing;
//! * [`controller`] — the adaptive precision control plane: a
//!   deterministic SLA-feedback controller walking each replica along a
//!   validated [`bpvec_dnn::DegradationLadder`] (degrade under backlog or
//!   p99 breach, upgrade with hysteresis), plus an optional replica
//!   autoscaler driven by the same signals;
//! * [`sim`] — the event loop itself and its one entry point,
//!   [`ServingRun::try_run`]: seeded, deterministic, with paired arrival
//!   sequences across policies and per-replica active-precision state,
//!   returning a [`ServingError`] for a malformed run. Given a
//!   [`bpvec_obs::TraceSink`], a run records request lifecycle spans,
//!   queue-depth samples, and control-plane events, stamped with sim-time
//!   so traces are byte-identical across identically-seeded runs. Its
//!   events pop from a calendar queue with O(1) expected push/pop at fleet
//!   scale;
//! * [`streaming`] — O(1)-memory streaming metrics ([`StreamingSummary`]):
//!   a deterministic log-bucketed [`QuantileSketch`] (p50/p95/p99 within
//!   ~1%), windowed peak throughput, and per-class/tenant/region rollups,
//!   so 10M-request runs never retain per-request records;
//! * [`fleet`] — the [`Topology::Fleet`] description: regions → clusters →
//!   replicas with spill-or-drop admission control, weighted
//!   [`TenantClass`]es with per-tenant SLAs and in-flight quotas, and
//!   inter-tier forwarding latency;
//! * [`metrics`] — [`ServingMetrics`]: tail latencies, utilization, queue
//!   depth, energy per request, goodput under an SLA, time-in-policy,
//!   degraded-request share, switch counts — summarized from the run's
//!   streaming digest, the one latency pipeline;
//! * [`scenario`] — the [`ServingScenario`] builder mirroring
//!   [`bpvec_sim::Scenario`]: declare platforms × policies × clusters ×
//!   traffics (× precisions) (× controls), run the grid rayon-parallel,
//!   render the [`ServingReport`] to CSV/JSON; observability rides along
//!   via `.trace(sink)` (deterministic, cell-order forwarded),
//!   `.profile(profiler)` (wall-clock, kept out of the trace), and
//!   `.metrics(registry)` (cost-model and aggregate serving counters).
//!
//! ## Running one configuration
//!
//! ```
//! use bpvec_serve::{
//!     ArrivalProcess, BatchPolicy, ClusterSpec, RequestMix, RunOptions, ServiceModel,
//!     ServingRun, Topology, TrafficSpec,
//! };
//! use bpvec_sim::{AcceleratorConfig, DramSpec, Workload};
//! use bpvec_dnn::{BitwidthPolicy, NetworkId};
//!
//! # fn main() -> Result<(), bpvec_serve::ServingError> {
//! let traffic = TrafficSpec::new(
//!     "steady",
//!     ArrivalProcess::poisson(200.0),
//!     RequestMix::single(Workload::new(NetworkId::ResNet18, BitwidthPolicy::Homogeneous8)),
//!     200,
//! );
//! let run = ServingRun {
//!     backend: &AcceleratorConfig::bpvec(),
//!     memory: DramSpec::ddr4(),
//!     policy: BatchPolicy::deadline(8, 0.002),
//!     topology: Topology::Cluster(ClusterSpec::single()),
//!     traffic: &traffic,
//!     control: None,
//!     service: ServiceModel::Deterministic,
//!     seed: 7,
//! };
//! let outcome = run.try_run(RunOptions::default().with_sla(Some(0.05)), None)?;
//! assert_eq!(outcome.completed, 200);
//! assert!(outcome.records.is_empty(), "the default options stream");
//! // A zero trace stride is a typed error, not a panic.
//! assert!(run.try_run(RunOptions::default().with_trace_every(0), None).is_err());
//! # Ok(())
//! # }
//! ```
//!
//! ## Declaring a serving experiment
//!
//! ```
//! use bpvec_serve::{
//!     ArrivalProcess, BatchPolicy, ClusterSpec, RequestMix, ServingScenario, TrafficSpec,
//! };
//! use bpvec_sim::{AcceleratorConfig, Workload};
//! use bpvec_dnn::{BitwidthPolicy, NetworkId};
//!
//! let report = ServingScenario::new("smoke")
//!     .platform(AcceleratorConfig::bpvec())
//!     .policy(BatchPolicy::immediate())
//!     .policy(BatchPolicy::deadline(8, 0.002))
//!     .cluster(ClusterSpec::single())
//!     .traffic(TrafficSpec::new(
//!         "steady",
//!         ArrivalProcess::poisson(200.0),
//!         RequestMix::single(Workload::new(NetworkId::ResNet18, BitwidthPolicy::Homogeneous8)),
//!         200,
//!     ))
//!     .run();
//! assert_eq!(report.cells.len(), 2);
//! println!("{}", report.to_csv());
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod arrivals;
pub mod cluster;
pub mod controller;
pub mod fleet;
pub mod metrics;
mod queue;
pub mod scenario;
pub mod scheduler;
pub mod sim;
pub mod streaming;

pub use arrivals::{ArrivalProcess, MixEntry, RequestMix, TrafficSpec};
pub use cluster::{ClusterSpec, Router};
pub use controller::{AdaptiveSpec, AutoscalerConfig, ControlPolicy, ControllerConfig};
pub use fleet::{run_fleet, FleetSpec, RegionSpec, TenantClass};
pub use metrics::{LatencyHistogram, LatencyStats, ServingMetrics};
pub use scenario::{ServingCell, ServingError, ServingReport, ServingScenario};
pub use scheduler::BatchPolicy;
pub use sim::{
    PolicySwitchEvent, RequestRecord, RunOptions, ScaleEvent, ServiceModel, ServingOutcome,
    ServingRun, Topology,
};
pub use streaming::{QuantileSketch, RegionRollup, StreamingSummary, TenantRollup};
