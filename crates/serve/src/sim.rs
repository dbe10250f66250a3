//! The deterministic discrete-event core and its one entry point,
//! [`ServingRun::try_run`].
//!
//! One run simulates one configuration: a traffic spec feeding a cluster
//! (or a fleet) of replicas, each running a batch scheduler over per-class
//! FIFO queues, with batch service times looked up from the backend's
//! `BatchRegime` latencies (so CNN tile-spill effects shape the cost of
//! every batch size). Everything is driven by a single seeded RNG pair and
//! a calendar event queue ordered by `(time, sequence)`, so a fixed seed
//! yields a bit-identical [`ServingOutcome`] on every run.
//!
//! Memory contract: the loop streams. Every latency statistic comes from
//! the O(1) [`StreamingSummary`] digest; per-request [`RequestRecord`]s
//! are kept only when [`RunOptions::retained`] asks for them, to inspect
//! each request's lifecycle.

use std::cmp::Ordering;
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use bpvec_obs::{TraceEvent, TraceSink};
use bpvec_sim::{BatchRegime, CostModel, DramSpec, Evaluator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::arrivals::{ArrivalProcess, TrafficSpec};
use crate::cluster::{ClusterSpec, Router};
use crate::controller::AdaptiveSpec;
use crate::fleet::{validate_fleet, FleetSpec, FleetState};
use crate::queue::CalendarQueue;
use crate::scenario::{
    validate_cluster, validate_control_for_cluster, validate_options, validate_policy,
    validate_traffic, ServingError,
};
use crate::scheduler::BatchPolicy;
use crate::streaming::{StreamStats, StreamingSummary};

/// How dispatched batches' service times vary around the backend's
/// deterministic batch cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServiceModel {
    /// Service takes exactly the backend's modeled batch latency.
    Deterministic,
    /// Service time is exponentially distributed with the modeled latency
    /// as its mean — models runtime jitter, and turns a Poisson +
    /// immediate + single-replica configuration into a textbook M/M/1
    /// queue for closed-form validation.
    ExponentialJitter,
}

/// The full lifecycle of one admitted request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RequestRecord {
    /// Admission index (0-based, in arrival order).
    pub id: u64,
    /// Service class (index into the traffic's [`crate::RequestMix`]).
    pub class: usize,
    /// Replica the request was routed to.
    pub shard: usize,
    /// Arrival time, seconds.
    pub arrival_s: f64,
    /// Batch dispatch time, seconds.
    pub start_s: f64,
    /// Completion time, seconds.
    pub completion_s: f64,
    /// Size of the batch the request was served in.
    pub batch: u64,
    /// Ladder rung the serving replica held when the batch dispatched
    /// (always 0 under static control: full precision).
    pub rung: usize,
}

impl RequestRecord {
    /// End-to-end sojourn time (queueing + service), seconds.
    #[must_use]
    pub fn sojourn_s(&self) -> f64 {
        self.completion_s - self.arrival_s
    }
}

/// One precision switch decided by the adaptive controller.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PolicySwitchEvent {
    /// Simulated time of the switch, seconds.
    pub time_s: f64,
    /// The replica that switched.
    pub replica: usize,
    /// Rung held before the switch.
    pub from_rung: usize,
    /// Rung held after the switch (`from_rung ± 1`).
    pub to_rung: usize,
}

/// One replica activation or deactivation decided by the autoscaler.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScaleEvent {
    /// Simulated time of the action, seconds.
    pub time_s: f64,
    /// The replica activated or deactivated.
    pub replica: usize,
    /// True for a scale-up (activation).
    pub up: bool,
}

/// How one simulation run retains state and emits telemetry.
///
/// The default streams: no per-request records, every request traced,
/// and SLA accounting off. Metrics come from the stream either way;
/// [`RunOptions::retained`] also keeps every record for inspection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOptions {
    /// Retain a [`RequestRecord`] per request (O(n) memory) for
    /// inspection; no metric reads them. Off by default.
    pub retain_records: bool,
    /// SLA the streaming pipeline counts hits against as completions
    /// stream through (exact, not sketched), and so the SLA
    /// [`crate::ServingMetrics`] reports attainment at. Must be positive
    /// and finite.
    pub sla_s: Option<f64>,
    /// Trace sampling stride: only requests with `id % trace_every == 0`
    /// emit request-lane trace events (batch `exec` spans emit when they
    /// carry at least one sampled request). `1` traces everything; `0` is
    /// rejected.
    pub trace_every: u64,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            retain_records: false,
            sla_s: None,
            trace_every: 1,
        }
    }
}

impl RunOptions {
    /// Full record retention, to inspect each request's lifecycle.
    #[must_use]
    pub fn retained() -> Self {
        RunOptions {
            retain_records: true,
            ..RunOptions::default()
        }
    }

    /// Sets the streaming SLA accounting target.
    #[must_use]
    pub fn with_sla(mut self, sla_s: Option<f64>) -> Self {
        self.sla_s = sla_s;
        self
    }

    /// Sets the trace sampling stride (must be ≥ 1).
    #[must_use]
    pub fn with_trace_every(mut self, every: u64) -> Self {
        self.trace_every = every;
        self
    }
}

/// Raw result of one simulation run; [`crate::ServingMetrics`] summarizes it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingOutcome {
    /// Per-request lifecycle records, in completion order, for
    /// inspection. Empty unless the run retained records
    /// ([`RunOptions::retain_records`]).
    pub records: Vec<RequestRecord>,
    /// Requests admitted (the traffic spec's request count minus
    /// `dropped`).
    pub admitted: u64,
    /// Requests completed (equals `admitted` once the run drains).
    pub completed: u64,
    /// Requests shed by fleet admission control or region queue caps
    /// (always 0 outside fleet runs).
    pub dropped: u64,
    /// High-water mark of `records.len()` — the proof that a streaming
    /// run held no per-request state (0 when retention is off).
    pub peak_records_retained: u64,
    /// High-water mark of requests simultaneously in the system (queued,
    /// in flight, or in inter-tier transit).
    pub peak_in_system: u64,
    /// Total events popped from the event queue over the run.
    pub events: u64,
    /// The O(1)-memory streaming digest of the post-warmup latency
    /// stream; always populated, and the one source of
    /// [`crate::ServingMetrics`]' latency and SLA figures.
    pub summary: StreamingSummary,
    /// Total busy time summed across replicas, seconds.
    pub busy_s: f64,
    /// Time integral of the total queue depth (waiting requests only).
    pub depth_integral: f64,
    /// Time of the last batch completion, seconds.
    pub makespan_s: f64,
    /// Total energy of all dispatched batches, joules.
    pub energy_j: f64,
    /// Number of batches dispatched.
    pub batches: u64,
    /// Time integral of the *active* replica count over the measured run
    /// (up to `makespan_s`) — the capacity actually offered (constant
    /// `replicas × makespan_s` without an autoscaler).
    pub active_integral_s: f64,
    /// Active replica-time spent at each ladder rung, seconds (one entry
    /// per rung; a single entry under static control). Sums to
    /// `active_integral_s`.
    pub rung_time_s: Vec<f64>,
    /// The controller's precision switches, in decision order.
    pub policy_switches: Vec<PolicySwitchEvent>,
    /// The autoscaler's activations/deactivations, in decision order.
    pub scale_events: Vec<ScaleEvent>,
}

/// Whole-batch service time and energy per (class, batch size), precomputed
/// from the backend so the event loop never re-runs the analytical model.
///
/// A table depends only on `(backend, memory, request mix, max batch)` —
/// not on the batching policy, cluster shape, or replica count — so
/// [`crate::ServingScenario`] builds one per (platform, traffic) behind an
/// [`Arc`] and every replica of every policy × cluster cell shares it.
/// Construction goes through a shared [`CostModel`], so the per-layer work
/// behind each batch size is also shared across classes, batch caps, and
/// platforms with common layer shapes.
pub(crate) struct CostTable {
    /// `svc[class][b-1]` = whole-batch service seconds at batch `b`.
    svc: Vec<Vec<f64>>,
    /// `energy[class][b-1]` = whole-batch energy joules at batch `b`.
    energy: Vec<Vec<f64>>,
}

impl CostTable {
    pub(crate) fn build(
        backend: &dyn Evaluator,
        memory: &DramSpec,
        traffic: &TrafficSpec,
        max_batch: u64,
        cost: &CostModel,
    ) -> Result<Self, ServingError> {
        let networks: Vec<bpvec_dnn::Network> = traffic
            .mix
            .entries
            .iter()
            .map(|e| {
                e.workload
                    .try_build()
                    .map_err(|err| ServingError(format!("traffic `{}`: {err}", traffic.label)))
            })
            .collect::<Result<_, _>>()?;
        Ok(Self::build_with_networks(
            backend, memory, traffic, &networks, max_batch, cost,
        ))
    }

    /// [`CostTable::build`] with the mix's networks already instantiated
    /// (one per mix entry, in order) — callers that built them for
    /// validation pass them in instead of paying the construction twice.
    pub(crate) fn build_with_networks(
        backend: &dyn Evaluator,
        memory: &DramSpec,
        traffic: &TrafficSpec,
        networks: &[bpvec_dnn::Network],
        max_batch: u64,
        cost: &CostModel,
    ) -> Self {
        debug_assert_eq!(networks.len(), traffic.mix.classes());
        let mut svc = Vec::with_capacity(traffic.mix.classes());
        let mut energy = Vec::with_capacity(traffic.mix.classes());
        for (entry, network) in traffic.mix.entries.iter().zip(networks) {
            let mut s = Vec::with_capacity(max_batch as usize);
            let mut j = Vec::with_capacity(max_batch as usize);
            for b in 1..=max_batch {
                let w = entry.workload.clone().with_batching(BatchRegime::fixed(b));
                let m = backend.evaluate_with(&w, network, memory, cost);
                s.push(m.latency_s * b as f64);
                j.push(m.energy_j * b as f64);
            }
            svc.push(s);
            energy.push(j);
        }
        CostTable { svc, energy }
    }

    /// True when the table covers batches up to `max_batch` for every class
    /// of `traffic`'s mix — the precondition for sharing it across policies.
    pub(crate) fn covers(&self, traffic: &TrafficSpec, max_batch: u64) -> bool {
        self.svc.len() == traffic.mix.classes()
            && self.svc.iter().all(|s| s.len() >= max_batch as usize)
    }

    fn service_s(&self, class: usize, batch: u64) -> f64 {
        self.svc[class][batch as usize - 1]
    }

    fn energy_j(&self, class: usize, batch: u64) -> f64 {
        self.energy[class][batch as usize - 1]
    }
}

/// Event payloads, ordered by the queue's `(time, seq)` key — the
/// sequence number makes simultaneous events (and therefore the whole
/// run) deterministic regardless of queue implementation.
#[derive(Debug, Clone, Copy)]
enum EventKind {
    Arrival,
    Completion {
        shard: usize,
    },
    DeadlineCheck {
        shard: usize,
    },
    /// Adaptive control evaluation: every replica's rung, then the
    /// autoscaler. Scheduled only when an [`AdaptiveSpec`] is in force.
    ControllerTick,
    /// A fleet-routed request landing on its replica after the inter-tier
    /// forward delay. Only scheduled when a fleet's `forward_delay_s` is
    /// positive; zero-delay fleets enqueue directly at arrival.
    Enqueue {
        shard: usize,
        req: Request,
    },
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct Request {
    pub(crate) id: u64,
    pub(crate) class: usize,
    pub(crate) arrival_s: f64,
    /// Tenant index within the fleet spec (0 outside fleet runs).
    pub(crate) tenant: u32,
}

struct InFlight {
    requests: Vec<Request>,
    start_s: f64,
    /// Rung the batch dispatched at (its service time is already locked in;
    /// a mid-service switch only affects subsequent batches).
    rung: usize,
    /// Whether this batch's `exec` span was emitted to the trace (it
    /// carried at least one sampled request), so the matching end event
    /// fires iff the begin did.
    traced: bool,
}

struct Shard {
    queues: Vec<VecDeque<Request>>,
    in_flight: Option<InFlight>,
    /// Fire time of this shard's outstanding `DeadlineCheck`, if one is
    /// queued and still in the future (at most one is armed at a time).
    armed_check_s: Option<f64>,
    /// Active ladder rung (0 = full precision; fixed at 0 under static
    /// control).
    rung: usize,
    /// Whether the replica serves traffic (autoscaled replicas toggle this;
    /// without an autoscaler every replica is always active).
    active: bool,
    /// Time the replica entered its current rung (for time-in-policy
    /// accounting; only accrues while active).
    rung_since_s: f64,
    /// Controller ticks since this replica last switched rungs.
    ticks_since_switch: u64,
    /// Sliding window of recent sojourn times, completion order (the
    /// controller's p99 signal; maintained only when a latency target is
    /// set — depth-only controllers skip the bookkeeping entirely).
    window: VecDeque<f64>,
    /// Scratch for the selection behind [`Shard::window_p99`] (reused
    /// across ticks to keep the controller allocation-free on the hot
    /// path).
    scratch: Vec<f64>,
}

impl Shard {
    fn new(classes: usize, active: bool) -> Self {
        Shard {
            queues: (0..classes).map(|_| VecDeque::new()).collect(),
            in_flight: None,
            armed_check_s: None,
            rung: 0,
            active,
            rung_since_s: 0.0,
            ticks_since_switch: u64::MAX,
            window: VecDeque::new(),
            scratch: Vec::new(),
        }
    }

    fn depth(&self) -> u64 {
        let queued: usize = self.queues.iter().map(VecDeque::len).sum();
        queued as u64
            + self
                .in_flight
                .as_ref()
                .map_or(0, |f| f.requests.len() as u64)
    }

    fn idle(&self) -> bool {
        self.in_flight.is_none() && self.queues.iter().all(VecDeque::is_empty)
    }

    /// Nearest-rank p99 over the sojourn window, if any samples exist
    /// (selection, not a sort: O(window) per tick).
    fn window_p99(&mut self) -> Option<f64> {
        if self.window.is_empty() {
            return None;
        }
        self.scratch.clear();
        self.scratch.extend(self.window.iter().copied());
        let rank = (0.99 * self.scratch.len() as f64).ceil() as usize;
        let idx = rank.clamp(1, self.scratch.len()) - 1;
        let (_, p99, _) = self.scratch.select_nth_unstable_by(idx, f64::total_cmp);
        Some(*p99)
    }
}

/// Open-loop inter-arrival sampling state.
enum ArrivalGen {
    Poisson {
        rate: f64,
    },
    Bursty {
        base_rps: f64,
        burst_rps: f64,
        mean_base_s: f64,
        mean_burst_s: f64,
        in_burst: bool,
        remaining_s: f64,
    },
    Trace {
        gaps: Vec<f64>,
        idx: usize,
    },
    /// Non-homogeneous Poisson (diurnal / flash crowd), sampled by
    /// thinning against the process's peak rate. Tracks its own arrival
    /// clock so λ(t) is evaluated at candidate times.
    Varying {
        process: ArrivalProcess,
        peak_rate: f64,
        t_s: f64,
    },
    Closed,
}

fn exp_sample(rng: &mut StdRng, mean: f64) -> f64 {
    -mean * (1.0 - rng.gen_range(0.0f64..1.0)).ln()
}

impl ArrivalGen {
    fn new(process: &ArrivalProcess, rng: &mut StdRng) -> Self {
        match process {
            ArrivalProcess::Poisson { rate_rps } => ArrivalGen::Poisson { rate: *rate_rps },
            ArrivalProcess::Bursty {
                base_rps,
                burst_rps,
                mean_base_s,
                mean_burst_s,
            } => ArrivalGen::Bursty {
                base_rps: *base_rps,
                burst_rps: *burst_rps,
                mean_base_s: *mean_base_s,
                mean_burst_s: *mean_burst_s,
                in_burst: false,
                remaining_s: exp_sample(rng, *mean_base_s),
            },
            ArrivalProcess::Trace { inter_arrival_s } => ArrivalGen::Trace {
                gaps: inter_arrival_s.clone(),
                idx: 0,
            },
            ArrivalProcess::ClosedLoop { .. } => ArrivalGen::Closed,
            ArrivalProcess::Diurnal { peak_rps, .. } => ArrivalGen::Varying {
                process: process.clone(),
                peak_rate: *peak_rps,
                t_s: 0.0,
            },
            ArrivalProcess::FlashCrowd { flash_rps, .. } => ArrivalGen::Varying {
                process: process.clone(),
                peak_rate: *flash_rps,
                t_s: 0.0,
            },
        }
    }

    /// The gap to the next open-loop arrival.
    fn next_gap(&mut self, rng: &mut StdRng) -> f64 {
        match self {
            ArrivalGen::Poisson { rate } => exp_sample(rng, 1.0 / *rate),
            ArrivalGen::Bursty {
                base_rps,
                burst_rps,
                mean_base_s,
                mean_burst_s,
                in_burst,
                remaining_s,
            } => {
                let mut gap = 0.0;
                loop {
                    let rate = if *in_burst { *burst_rps } else { *base_rps };
                    let e = exp_sample(rng, 1.0 / rate);
                    if e <= *remaining_s {
                        *remaining_s -= e;
                        return gap + e;
                    }
                    // The modulating chain switches state before the next
                    // arrival at the current rate would land.
                    gap += *remaining_s;
                    *in_burst = !*in_burst;
                    let mean = if *in_burst {
                        *mean_burst_s
                    } else {
                        *mean_base_s
                    };
                    *remaining_s = exp_sample(rng, mean);
                }
            }
            ArrivalGen::Trace { gaps, idx } => {
                let gap = gaps[*idx % gaps.len()];
                *idx += 1;
                gap
            }
            ArrivalGen::Varying {
                process,
                peak_rate,
                t_s,
            } => {
                // Lewis–Shedler thinning: candidate gaps at the peak rate,
                // each accepted with probability λ(t)/λ_peak.
                let mut gap = 0.0;
                loop {
                    let e = exp_sample(rng, 1.0 / *peak_rate);
                    gap += e;
                    *t_s += e;
                    if rng.gen_range(0.0f64..1.0) * *peak_rate <= process.rate_at(*t_s) {
                        return gap;
                    }
                }
            }
            ArrivalGen::Closed => unreachable!("closed-loop arrivals are completion-driven"),
        }
    }
}

/// Trace lane carrying batch `exec` spans and `queue_depth` samples.
const TID_BATCH: u32 = 0;
/// Trace lane carrying per-request lifecycle events.
const TID_REQ: u32 = 1;
/// Trace lane carrying control-plane events (rung switches).
const TID_CTRL: u32 = 2;

struct Sim<'a> {
    policy: BatchPolicy,
    service: ServiceModel,
    /// Batch cost per ladder rung; static control sees a single entry.
    tables: Vec<Arc<CostTable>>,
    /// The adaptive control plane, when one is in force.
    control: Option<&'a AdaptiveSpec>,
    traffic: &'a TrafficSpec,
    router: Router,
    shards: Vec<Shard>,
    queue: CalendarQueue<EventKind>,
    seq: u64,
    arrival_rng: StdRng,
    service_rng: StdRng,
    gen: ArrivalGen,
    options: RunOptions,
    /// Streaming accumulator; observes every post-warmup completion.
    stream: StreamStats,
    /// Fleet topology/routing/rollup state, when this is a fleet run.
    fleet: Option<FleetState>,
    /// Arrivals sampled so far (doubles as the next request id; includes
    /// dropped requests).
    admitted: u64,
    /// Requests shed by fleet admission control.
    dropped: u64,
    /// Requests completed so far.
    completed: u64,
    /// Requests admitted and not yet completed (queued, in flight, or in
    /// inter-tier transit).
    in_system: u64,
    peak_in_system: u64,
    /// High-water mark of `records.len()`.
    peak_records: u64,
    /// Events popped so far.
    events: u64,
    /// Arrival events pushed so far (bounded by `traffic.requests`).
    scheduled: u64,
    rr_next: usize,
    queued: u64,
    now: f64,
    records: Vec<RequestRecord>,
    busy_s: f64,
    depth_integral: f64,
    energy_j: f64,
    batches: u64,
    /// Time of the last batch completion — the outcome's makespan. (The
    /// queue can outlive it by one armed deadline check firing on an empty
    /// system; that no-op must not stretch the measured run.)
    last_completion_s: f64,
    /// Set (to the makespan) the moment all work is done: every request
    /// admitted, nothing queued, nothing in flight. Trailing no-op events
    /// (a stale deadline check, a final controller tick) process after
    /// this point, and none of the time integrals may include them.
    finished_s: Option<f64>,
    /// Currently active replicas (constant without an autoscaler).
    active_count: u32,
    /// Time integral of `active_count`, up to `finished_s`.
    active_integral: f64,
    /// Active replica-time accrued per rung (finalized at run end).
    rung_time_s: Vec<f64>,
    /// Controller ticks fired so far.
    ticks: u64,
    /// Ticks since the autoscaler last acted.
    ticks_since_scale: u64,
    switch_log: Vec<PolicySwitchEvent>,
    scale_log: Vec<ScaleEvent>,
    /// Trace sink, normalized at entry: `None` when tracing is disabled,
    /// so the uninstrumented hot path pays one branch per emission site.
    trace: Option<&'a dyn TraceSink>,
    /// Class labels for trace args, precomputed once per traced run
    /// (empty when tracing is disabled).
    class_labels: Vec<String>,
}

impl Sim<'_> {
    fn push(&mut self, time: f64, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(time, seq, kind);
    }

    /// Whether request `id` is in the trace sample (always true at the
    /// default stride of 1).
    fn sampled(&self, id: u64) -> bool {
        id.is_multiple_of(self.options.trace_every)
    }

    fn route(&mut self, class: usize) -> usize {
        let n = self.shards.len();
        match self.router {
            Router::RoundRobin => loop {
                let s = self.rr_next;
                self.rr_next = (self.rr_next + 1) % n;
                if self.shards[s].active {
                    break s;
                }
            },
            Router::JoinShortestQueue => (0..n)
                .filter(|&s| self.shards[s].active)
                .min_by_key(|&s| (self.shards[s].depth(), s))
                .expect("cluster has at least one active replica"),
            Router::NetworkAffinity => {
                let active_n = self.active_count.max(1) as usize;
                if active_n == n {
                    // The common (non-autoscaled, or fully scaled) case:
                    // the seed's allocation-free pinning.
                    class % n
                } else {
                    // Map over the active replicas in index order. A scale
                    // event shifts this mapping — the modeled weights
                    // migration is not costed; see `Router::NetworkAffinity`.
                    (0..n)
                        .filter(|&s| self.shards[s].active)
                        .nth(class % active_n)
                        .expect("active_count active replicas exist")
                }
            }
            Router::LeastDegraded => (0..n)
                .filter(|&s| self.shards[s].active)
                .min_by_key(|&s| (self.shards[s].rung, self.shards[s].depth(), s))
                .expect("cluster has at least one active replica"),
        }
    }

    /// Accrues the replica's active time at its current rung, up to `now`
    /// or the end of measured work, whichever comes first.
    fn accrue_rung_time(&mut self, shard: usize) {
        let end = self.finished_s.unwrap_or(self.now);
        let s = &mut self.shards[shard];
        if s.active && end > s.rung_since_s {
            self.rung_time_s[s.rung] += end - s.rung_since_s;
        }
        s.rung_since_s = s.rung_since_s.max(end);
    }

    /// The non-empty class whose head request arrived earliest, restricted
    /// by `eligible`; ties break on admission id (= global FIFO).
    fn earliest_head(
        queues: &[VecDeque<Request>],
        eligible: impl Fn(&VecDeque<Request>) -> bool,
    ) -> Option<usize> {
        let mut best: Option<(f64, u64, usize)> = None;
        for (c, q) in queues.iter().enumerate() {
            if !eligible(q) {
                continue;
            }
            if let Some(r) = q.front() {
                let better = best.is_none_or(|(t, id, _)| {
                    matches!(
                        r.arrival_s.total_cmp(&t).then(r.id.cmp(&id)),
                        Ordering::Less
                    )
                });
                if better {
                    best = Some((r.arrival_s, r.id, c));
                }
            }
        }
        best.map(|(_, _, c)| c)
    }

    /// Applies the batching policy to one idle replica. `flush` forces a
    /// partial dispatch (end-of-run drain, or a closed loop that can never
    /// fill the batch).
    fn try_dispatch(&mut self, shard: usize, flush: bool) {
        if self.shards[shard].in_flight.is_some() {
            return;
        }
        let queues = &self.shards[shard].queues;
        // When a deadline policy declines, `arm` is the instant the oldest
        // head's wait expires — the next moment a dispatch could trigger.
        let mut arm: Option<f64> = None;
        let pick: Option<(usize, u64)> = match self.policy {
            BatchPolicy::Immediate => Self::earliest_head(queues, |_| true).map(|c| (c, 1)),
            BatchPolicy::Fixed { size } => {
                match Self::earliest_head(queues, |q| q.len() as u64 >= size) {
                    Some(c) => Some((c, size)),
                    None if flush => Self::earliest_head(queues, |_| true)
                        .map(|c| (c, (queues[c].len() as u64).min(size))),
                    None => None,
                }
            }
            BatchPolicy::Deadline {
                max_batch,
                max_wait_s,
            } => match Self::earliest_head(queues, |q| q.len() as u64 >= max_batch) {
                Some(c) => Some((c, max_batch)),
                None => match Self::earliest_head(queues, |_| true) {
                    Some(c) => {
                        let head = queues[c].front().expect("head exists");
                        let expired = self.now - head.arrival_s >= max_wait_s - 1e-12;
                        if expired || flush {
                            Some((c, (queues[c].len() as u64).min(max_batch)))
                        } else {
                            arm = Some(head.arrival_s + max_wait_s);
                            None
                        }
                    }
                    None => None,
                },
            },
        };
        let Some((class, take)) = pick else {
            // Arm (at most) one pending deadline check per shard; a stale
            // armed time in the past means that check already fired.
            if let Some(t) = arm {
                if self.shards[shard]
                    .armed_check_s
                    .is_none_or(|a| a <= self.now)
                {
                    self.shards[shard].armed_check_s = Some(t);
                    self.push(t, EventKind::DeadlineCheck { shard });
                }
            }
            return;
        };
        let mut requests = Vec::with_capacity(take as usize);
        for _ in 0..take {
            let r = self.shards[shard].queues[class]
                .pop_front()
                .expect("picked batch exceeds queue");
            requests.push(r);
        }
        self.queued -= take;
        let rung = self.shards[shard].rung;
        let table = &self.tables[rung];
        let base = table.service_s(class, take);
        let svc = match self.service {
            ServiceModel::Deterministic => base,
            ServiceModel::ExponentialJitter => exp_sample(&mut self.service_rng, base),
        };
        self.busy_s += svc;
        self.energy_j += table.energy_j(class, take);
        self.batches += 1;
        if let Some(fleet) = self.fleet.as_mut() {
            fleet.note_busy(shard, svc);
        }
        // Sampled tracing: the batch's exec span emits iff it carries at
        // least one sampled request, and `traced` remembers that so the
        // matching end event pairs up exactly.
        let mut traced = false;
        if let Some(t) = self.trace {
            traced = requests.iter().any(|r| self.sampled(r.id));
            if traced {
                // The batch-formation wait (oldest member's queueing time)
                // rides as an arg on the exec span rather than as its own
                // span: one lane, one in-flight batch per replica, so B/E
                // nesting stays trivially well-formed.
                let form_wait_s = self.now - requests[0].arrival_s;
                t.record(TraceEvent::counter(
                    "queue_depth",
                    self.now,
                    shard as u32,
                    TID_BATCH,
                    self.queue_len(shard) as f64,
                ));
                t.record(
                    TraceEvent::begin("exec", self.now, shard as u32, TID_BATCH)
                        .with_cat("serve")
                        .with_arg("class", self.class_labels[class].as_str())
                        .with_arg("batch", take)
                        .with_arg("rung", rung)
                        .with_arg("svc_s", svc)
                        .with_arg("form_wait_s", form_wait_s),
                );
            }
        }
        self.shards[shard].in_flight = Some(InFlight {
            requests,
            start_s: self.now,
            rung,
            traced,
        });
        let t = self.now + svc;
        self.push(t, EventKind::Completion { shard });
    }

    /// Queue-only depth of one shard (in-flight work excluded) — the
    /// quantity sampled onto the `queue_depth` counter track.
    fn queue_len(&self, shard: usize) -> u64 {
        self.shards[shard]
            .queues
            .iter()
            .map(|q| q.len() as u64)
            .sum()
    }

    fn on_arrival(&mut self) {
        debug_assert!(self.admitted < self.traffic.requests);
        let class = self.traffic.mix.sample(&mut self.arrival_rng);
        let id = self.admitted;
        self.admitted += 1;
        let arrival_s = self.now;
        // Keep the arrival process running whether or not this request is
        // admitted — drops shed load, they don't pause traffic.
        if !self.traffic.process.is_closed() && self.scheduled < self.traffic.requests {
            self.scheduled += 1;
            let gap = self.gen.next_gap(&mut self.arrival_rng);
            let t = self.now + gap;
            self.push(t, EventKind::Arrival);
        }
        if self.fleet.is_some() {
            self.on_fleet_arrival(id, class, arrival_s);
            return;
        }
        let shard = self.route(class);
        self.in_system += 1;
        self.peak_in_system = self.peak_in_system.max(self.in_system);
        self.enqueue_request(
            shard,
            Request {
                id,
                class,
                arrival_s,
                tenant: 0,
            },
        );
    }

    /// Fleet admission + hierarchical routing for one arrival: tenant
    /// sampling, quota/region-cap admission, region → cluster → replica
    /// selection, and the optional inter-tier forward delay.
    fn on_fleet_arrival(&mut self, id: u64, class: usize, arrival_s: f64) {
        let fleet = self.fleet.as_mut().expect("fleet arrivals need a fleet");
        let tenant = fleet.sample_tenant(&mut self.arrival_rng);
        let Some(region) = fleet.admit(tenant) else {
            self.dropped += 1;
            if let Some(t) = self.trace {
                if self.sampled(id) {
                    t.record(
                        TraceEvent::instant("drop", arrival_s, 0, TID_REQ)
                            .with_cat("serve")
                            .with_arg("id", id),
                    );
                }
            }
            return;
        };
        let shards = &self.shards;
        let fleet = self.fleet.as_mut().expect("fleet is present");
        let shard = fleet.pick_replica(region, class, |s| shards[s].depth());
        let delay = fleet.forward_delay_s();
        let req = Request {
            id,
            class,
            arrival_s,
            tenant: tenant as u32,
        };
        // Admitted: in the system from this instant, whether queued on the
        // replica immediately or still in inter-tier transit.
        self.in_system += 1;
        self.peak_in_system = self.peak_in_system.max(self.in_system);
        if delay > 0.0 {
            let t = self.now + delay;
            self.push(t, EventKind::Enqueue { shard, req });
        } else {
            self.enqueue_request(shard, req);
        }
    }

    /// Lands a request on its replica's class queue and kicks the batcher.
    /// The caller has already counted it in-system.
    fn enqueue_request(&mut self, shard: usize, req: Request) {
        self.shards[shard].queues[req.class].push_back(req);
        self.queued += 1;
        if let Some(t) = self.trace {
            if self.sampled(req.id) {
                t.record(
                    TraceEvent::instant("arrive", req.arrival_s, shard as u32, TID_REQ)
                        .with_cat("serve")
                        .with_arg("id", req.id)
                        .with_arg("class", self.class_labels[req.class].as_str()),
                );
                t.record(TraceEvent::counter(
                    "queue_depth",
                    self.now,
                    shard as u32,
                    TID_BATCH,
                    self.queue_len(shard) as f64,
                ));
            }
        }
        self.try_dispatch(shard, false);
    }

    fn on_completion(&mut self, shard: usize) {
        let batch = self.shards[shard]
            .in_flight
            .take()
            .expect("completion without an in-flight batch");
        self.last_completion_s = self.now;
        let size = batch.requests.len() as u64;
        self.completed += size;
        self.in_system -= size;
        if let Some(t) = self.trace {
            if batch.traced {
                t.record(
                    TraceEvent::end("exec", self.now, shard as u32, TID_BATCH).with_cat("serve"),
                );
            }
            for r in &batch.requests {
                if !self.sampled(r.id) {
                    continue;
                }
                // The queueing phase renders as a self-contained X span on
                // the request lane (emitted at completion, but stamped with
                // its own arrival-time window).
                t.record(
                    TraceEvent::complete(
                        "queue",
                        r.arrival_s,
                        batch.start_s - r.arrival_s,
                        shard as u32,
                        TID_REQ,
                    )
                    .with_cat("serve")
                    .with_arg("id", r.id),
                );
                t.record(
                    TraceEvent::instant("complete", self.now, shard as u32, TID_REQ)
                        .with_cat("serve")
                        .with_arg("id", r.id)
                        .with_arg("sojourn_s", self.now - r.arrival_s),
                );
            }
        }
        // The sojourn window only feeds the controller's p99 signal, so
        // depth-only controllers (no latency target) skip it.
        let window_cap = self.control.map_or(0, |c| {
            if c.controller.target_p99_s.is_some() {
                c.controller.window
            } else {
                0
            }
        });
        for r in &batch.requests {
            let sojourn_s = self.now - r.arrival_s;
            if r.id >= self.traffic.warmup {
                self.stream
                    .observe(self.now, sojourn_s, r.class, batch.rung == 0);
            }
            if let Some(fleet) = self.fleet.as_mut() {
                fleet.on_complete(
                    shard,
                    r.tenant as usize,
                    sojourn_s,
                    r.id >= self.traffic.warmup,
                );
            }
            if self.options.retain_records {
                self.records.push(RequestRecord {
                    id: r.id,
                    class: r.class,
                    shard,
                    arrival_s: r.arrival_s,
                    start_s: batch.start_s,
                    completion_s: self.now,
                    batch: size,
                    rung: batch.rung,
                });
            }
            if window_cap > 0 {
                let w = &mut self.shards[shard].window;
                if w.len() == window_cap {
                    w.pop_front();
                }
                w.push_back(sojourn_s);
            }
        }
        self.peak_records = self.peak_records.max(self.records.len() as u64);
        if let ArrivalProcess::ClosedLoop { think_s, .. } = self.traffic.process {
            // Each completed request's client thinks, then issues the next.
            for _ in 0..size {
                if self.scheduled < self.traffic.requests {
                    self.scheduled += 1;
                    let t = self.now + think_s;
                    self.push(t, EventKind::Arrival);
                }
            }
        }
        self.try_dispatch(shard, false);
    }

    /// One adaptive control decision for replica `shard`. Returns the rung
    /// delta it applied (for the switch log).
    fn control_replica(&mut self, shard: usize) {
        let spec = self.control.expect("ticks only fire under control");
        let cfg = &spec.controller;
        let s = &self.shards[shard];
        if !s.active {
            return;
        }
        let ticks = s.ticks_since_switch;
        if ticks < cfg.dwell_ticks {
            return;
        }
        let depth = s.depth();
        let rung = s.rung;
        let p99 = if cfg.target_p99_s.is_some() {
            self.shards[shard].window_p99()
        } else {
            None
        };
        let tail_breach = matches!((cfg.target_p99_s, p99), (Some(t), Some(p)) if p > t);
        let tail_clear = match (cfg.target_p99_s, p99) {
            (Some(t), Some(p)) => p <= cfg.upgrade_margin * t,
            (Some(_), None) => true, // no completions yet: nothing to hold us down
            (None, _) => true,
        };
        let to_rung = if (depth >= cfg.high_depth || tail_breach) && rung + 1 < spec.ladder.len() {
            rung + 1
        } else if depth <= cfg.low_depth && tail_clear && rung > 0 {
            rung - 1
        } else {
            return;
        };
        self.accrue_rung_time(shard);
        let s = &mut self.shards[shard];
        s.rung = to_rung;
        s.ticks_since_switch = 0;
        self.switch_log.push(PolicySwitchEvent {
            time_s: self.now,
            replica: shard,
            from_rung: rung,
            to_rung,
        });
        if let Some(t) = self.trace {
            t.record(
                TraceEvent::instant("rung_switch", self.now, shard as u32, TID_CTRL)
                    .with_cat("control")
                    .with_arg("from", rung)
                    .with_arg("to", to_rung),
            );
            t.record(TraceEvent::counter(
                "rung",
                self.now,
                shard as u32,
                TID_CTRL,
                to_rung as f64,
            ));
        }
    }

    /// The autoscaler's tick: one activation or deactivation at most.
    fn autoscale(&mut self) {
        let Some(auto) = self.control.and_then(|c| c.autoscaler) else {
            return;
        };
        if self.ticks_since_scale < auto.dwell_ticks {
            return;
        }
        let total_depth: u64 = self
            .shards
            .iter()
            .filter(|s| s.active)
            .map(Shard::depth)
            .sum();
        let per_replica = total_depth as f64 / f64::from(self.active_count.max(1));
        if per_replica >= auto.up_depth && self.active_count < auto.max_replicas {
            // Activate the lowest-index standby, joining at the deepest
            // rung currently active so a scale-up never second-guesses the
            // precision controller's degradation decision.
            let join_rung = self
                .shards
                .iter()
                .filter(|s| s.active)
                .map(|s| s.rung)
                .max()
                .unwrap_or(0);
            let shard = self
                .shards
                .iter()
                .position(|s| !s.active)
                .expect("active_count < max_replicas implies a standby exists");
            let s = &mut self.shards[shard];
            s.active = true;
            s.rung = join_rung;
            s.rung_since_s = self.now;
            s.ticks_since_switch = 0;
            s.window.clear();
            self.active_count += 1;
            self.ticks_since_scale = 0;
            self.scale_log.push(ScaleEvent {
                time_s: self.now,
                replica: shard,
                up: true,
            });
            self.trace_scale("scale_up", shard);
        } else if per_replica <= auto.down_depth && self.active_count > auto.min_replicas {
            // Deactivate the highest-index *idle* active replica; a busy
            // replica is never drained, so no request is ever stranded.
            let Some(shard) = self.shards.iter().rposition(|s| s.active && s.idle()) else {
                return;
            };
            self.accrue_rung_time(shard);
            self.shards[shard].active = false;
            self.active_count -= 1;
            self.ticks_since_scale = 0;
            self.scale_log.push(ScaleEvent {
                time_s: self.now,
                replica: shard,
                up: false,
            });
            self.trace_scale("scale_down", shard);
        }
    }

    /// Emits one autoscaler decision onto the cluster track (pid = pool
    /// size, past the last replica), plus an `active_replicas` sample.
    fn trace_scale(&self, name: &str, shard: usize) {
        if let Some(t) = self.trace {
            let cluster_pid = self.shards.len() as u32;
            t.record(
                TraceEvent::instant(name, self.now, cluster_pid, 0)
                    .with_cat("control")
                    .with_arg("replica", shard),
            );
            t.record(TraceEvent::counter(
                "active_replicas",
                self.now,
                cluster_pid,
                0,
                f64::from(self.active_count),
            ));
        }
    }

    fn on_tick(&mut self) {
        // The run is over: no decision made now can serve a request, so a
        // trailing tick (kept alive in the queue by a stale deadline check)
        // must neither switch rungs nor scale — the logs and CSV switch
        // counts only ever record decisions inside the measured run.
        if self.finished_s.is_some() {
            return;
        }
        self.ticks += 1;
        self.ticks_since_scale = self.ticks_since_scale.saturating_add(1);
        for s in 0..self.shards.len() {
            self.shards[s].ticks_since_switch = self.shards[s].ticks_since_switch.saturating_add(1);
        }
        for s in 0..self.shards.len() {
            self.control_replica(s);
        }
        self.autoscale();
        // A rung switch can unblock a deadline decision immediately (the
        // cheaper table shortens nothing retroactively, but an idle replica
        // re-evaluates under its new costs on the next dispatch anyway);
        // what *can* change now is routing, which the next arrival reads.
        // The tick itself only reschedules while other events remain, so
        // the controller can never keep a drained run alive.
        if let Some(spec) = self.control {
            if !self.queue.is_empty() {
                let t = self.now + spec.controller.interval_s;
                self.push(t, EventKind::ControllerTick);
            }
        }
    }

    fn run(&mut self) {
        // Every push lands at or after `now` with a fresh `seq`, and the
        // loop drains the queue, so a correct queue pops strictly
        // increasing `(time, seq)` keys.
        let mut last: Option<(f64, u64)> = None;
        while let Some((time, seq, kind)) = self.queue.pop() {
            debug_assert!(
                last.is_none_or(|prev| (time, seq) > prev),
                "event ({time}, {seq}) popped after {last:?}"
            );
            last = Some((time, seq));
            self.events += 1;
            let dt = time - self.now;
            self.depth_integral += self.queued as f64 * dt;
            if self.finished_s.is_none() {
                self.active_integral += f64::from(self.active_count) * dt;
            }
            self.now = time;
            match kind {
                EventKind::Arrival => self.on_arrival(),
                EventKind::Completion { shard } => self.on_completion(shard),
                EventKind::DeadlineCheck { shard } => {
                    self.shards[shard].armed_check_s = None;
                    self.try_dispatch(shard, false);
                }
                EventKind::ControllerTick => self.on_tick(),
                EventKind::Enqueue { shard, req } => self.enqueue_request(shard, req),
            }
            // Drain: no event can fill a batch any further, so flush the
            // partial batches (also rescues closed loops whose concurrency
            // is below a fixed batch size from deadlock).
            if self.queue.is_empty() && self.queued > 0 {
                for s in 0..self.shards.len() {
                    self.try_dispatch(s, true);
                }
            }
            // Once the last admitted request completes, only no-op events
            // can remain queued; freeze the capacity accounting here so a
            // stale deadline check or trailing controller tick cannot
            // stretch the measured run. (`in_system == 0` covers queued,
            // in-flight, and in-transit work alike; dropped requests never
            // enter the system.)
            if self.finished_s.is_none()
                && self.admitted == self.traffic.requests
                && self.in_system == 0
            {
                self.finished_s = Some(self.now);
            }
        }
        // Final time-in-policy accrual at the end of measured work.
        for s in 0..self.shards.len() {
            self.accrue_rung_time(s);
        }
    }
}

/// Where a run's replicas live.
#[derive(Debug, Clone, Copy)]
pub enum Topology<'a> {
    /// One cluster of replicas behind its router. Under an autoscaler the
    /// replica count is the initial one and must lie within the
    /// autoscaler's bounds.
    Cluster(ClusterSpec),
    /// Regions → clusters → replicas with tenant admission control and
    /// spill. Fleet runs take open-loop traffic and static control only.
    Fleet(&'a FleetSpec),
}

/// One serving simulation: a backend and its memory, a batching policy
/// over a topology, the traffic, optional adaptive control, a service-time
/// model and a seed.
///
/// `seed` drives arrivals and mix sampling (and service jitter, from an
/// independent stream): a fixed seed gives a bit-identical outcome, and
/// the same seed under different policies or topologies sees the *same*
/// arrival sequence, so comparisons are paired.
#[derive(Clone, Copy)]
pub struct ServingRun<'a> {
    /// The platform that prices every batch.
    pub backend: &'a dyn Evaluator,
    /// Off-chip memory the backend runs with.
    pub memory: DramSpec,
    /// The batching policy every replica applies.
    pub policy: BatchPolicy,
    /// The replicas and how requests reach them.
    pub topology: Topology<'a>,
    /// Arrival process, request mix and request count.
    pub traffic: &'a TrafficSpec,
    /// Adaptive precision control: replicas start at the ladder's rung 0
    /// and the controller (plus optional autoscaler) moves them at
    /// runtime. `None` serves every request at the mix's own precision.
    pub control: Option<&'a AdaptiveSpec>,
    /// How service times vary around the modeled batch cost.
    pub service: ServiceModel,
    /// Seed of the arrival and service-jitter streams.
    pub seed: u64,
}

impl fmt::Debug for ServingRun<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServingRun")
            .field("backend", &self.backend.label())
            .field("memory", &self.memory)
            .field("policy", &self.policy)
            .field("topology", &self.topology)
            .field("traffic", &self.traffic.label)
            .field("control", &self.control)
            .field("service", &self.service)
            .field("seed", &self.seed)
            .finish()
    }
}

impl ServingRun<'_> {
    /// Validates the run, prices its batches and simulates it to
    /// completion.
    ///
    /// Static control builds one cost table for the mix; adaptive control
    /// builds one per ladder rung, all through one private [`CostModel`]
    /// ([`crate::ServingScenario`] shares its tables across a whole grid
    /// instead). `options` picks record retention, SLA accounting and the
    /// trace sampling stride. `trace` receives the event loop's request
    /// lifecycle events (`arrive`, `queue`, `complete`), per-batch `exec`
    /// spans and `queue_depth` samples, one trace process per replica,
    /// plus `rung_switch` and `scale_up`/`scale_down` events under
    /// adaptive control. Timestamps are sim time, so identically seeded
    /// runs emit byte-identical traces; a sink whose `enabled()` is false
    /// costs the same as `None`.
    ///
    /// # Errors
    ///
    /// [`ServingError`] on a malformed run: a zero batch size or replica
    /// count; a non-positive arrival rate or mix weight; an empty trace or
    /// request mix; a mix precision or ladder rung that does not apply to
    /// one of the mix's networks; an invalid controller or autoscaler, or
    /// a cluster outside the autoscaler's bounds; an invalid fleet, or a
    /// fleet with closed-loop traffic or adaptive control; a zero
    /// `trace_every`; an SLA that is not positive and finite.
    pub fn try_run(
        &self,
        options: RunOptions,
        trace: Option<&dyn TraceSink>,
    ) -> Result<ServingOutcome, ServingError> {
        validate_options(&options)?;
        validate_policy(&self.policy)?;
        validate_traffic(self.traffic)?;
        let (cluster, fleet) = match self.topology {
            Topology::Cluster(cluster) => {
                validate_cluster(&cluster)?;
                (cluster, None)
            }
            Topology::Fleet(fleet) => {
                if self.control.is_some() {
                    return Err(ServingError(
                        "fleet runs are static-control; adaptive control needs a cluster topology"
                            .into(),
                    ));
                }
                validate_fleet(fleet, self.traffic).map_err(ServingError)?;
                let total = u32::try_from(fleet.total_replicas()).expect("validated <= u32::MAX");
                (ClusterSpec::new(total, fleet.router), Some(fleet))
            }
        };
        let cost = CostModel::new();
        let max_batch = self.policy.max_batch();
        let tables = match self.control {
            None => vec![Arc::new(CostTable::build(
                self.backend,
                &self.memory,
                self.traffic,
                max_batch,
                &cost,
            )?)],
            Some(spec) => {
                validate_control_for_cluster(spec, &cluster)?;
                build_rung_tables(
                    self.backend,
                    &self.memory,
                    self.traffic,
                    spec,
                    max_batch,
                    &cost,
                )?
            }
        };
        Ok(run_event_loop(
            tables,
            self.control,
            self.policy,
            cluster,
            self.traffic,
            self.service,
            self.seed,
            trace,
            options,
            fleet,
        ))
    }
}

/// Builds one [`CostTable`] per ladder rung: the traffic's whole mix
/// re-assigned to the rung's precision policy, costed through the shared
/// memoized `cost` model (repeated layer shapes across rungs, classes and
/// platforms are computed once).
pub(crate) fn build_rung_tables(
    backend: &dyn Evaluator,
    memory: &DramSpec,
    traffic: &TrafficSpec,
    spec: &AdaptiveSpec,
    max_batch: u64,
    cost: &CostModel,
) -> Result<Vec<Arc<CostTable>>, ServingError> {
    spec.ladder
        .rungs()
        .iter()
        .enumerate()
        .map(|(r, rung_policy)| {
            let mut variant = traffic.clone();
            for entry in &mut variant.mix.entries {
                entry.workload = entry.workload.clone().with_policy(rung_policy.clone());
            }
            let networks: Vec<bpvec_dnn::Network> = variant
                .mix
                .entries
                .iter()
                .map(|entry| {
                    entry.workload.try_build().map_err(|e| {
                        ServingError(format!(
                            "traffic `{}`: ladder rung {r} ({rung_policy}): {e}",
                            traffic.label
                        ))
                    })
                })
                .collect::<Result<_, _>>()?;
            Ok(Arc::new(CostTable::build_with_networks(
                backend, memory, &variant, &networks, max_batch, cost,
            )))
        })
        .collect()
}

/// The event loop behind [`ServingRun::try_run`] and
/// [`crate::ServingScenario`], driven by prebuilt (in a scenario, shared)
/// rung-indexed cost tables. Static control passes a single table and
/// `None`; adaptive control passes one table per ladder rung. Every table
/// must cover the policy's max batch for every class of `traffic`'s mix,
/// and the configuration must already be validated.
///
/// `trace` is normalized here: a disabled (or absent) sink becomes `None`,
/// so every emission site in the loop costs exactly one branch when off.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_event_loop(
    tables: Vec<Arc<CostTable>>,
    control: Option<&AdaptiveSpec>,
    policy: BatchPolicy,
    cluster: ClusterSpec,
    traffic: &TrafficSpec,
    service: ServiceModel,
    seed: u64,
    trace: Option<&dyn TraceSink>,
    options: RunOptions,
    fleet: Option<&FleetSpec>,
) -> ServingOutcome {
    debug_assert!(tables.iter().all(|t| t.covers(traffic, policy.max_batch())));
    debug_assert_eq!(tables.len(), control.map_or(1, |c| c.ladder.len()));
    debug_assert!(options.trace_every >= 1, "trace_every must be >= 1");
    let trace = trace.filter(|t| t.enabled());
    let mut arrival_rng = StdRng::seed_from_u64(seed);
    let service_rng = StdRng::seed_from_u64(seed ^ 0xA5A5_5A5A_DEAD_BEEF);
    let gen = ArrivalGen::new(&traffic.process, &mut arrival_rng);
    let initial = cluster.replicas.max(1);
    // With an autoscaler the shard pool is sized to the ceiling; replicas
    // beyond the initial count start as standbys.
    let pool = control
        .and_then(|c| c.autoscaler)
        .map_or(initial, |a| a.max_replicas.max(initial));
    let fleet_state = fleet.map(|f| {
        debug_assert_eq!(
            f.total_replicas(),
            u64::from(pool),
            "cluster sized to fleet"
        );
        FleetState::new(f)
    });
    let rungs = tables.len();
    let mut sim = Sim {
        policy,
        service,
        tables,
        control,
        traffic,
        router: cluster.router,
        shards: (0..pool)
            .map(|i| Shard::new(traffic.mix.classes(), i < initial))
            .collect(),
        queue: CalendarQueue::new(),
        seq: 0,
        arrival_rng,
        service_rng,
        gen,
        options,
        stream: StreamStats::new(traffic.mix.classes(), options.sla_s),
        fleet: fleet_state,
        admitted: 0,
        dropped: 0,
        completed: 0,
        in_system: 0,
        peak_in_system: 0,
        peak_records: 0,
        events: 0,
        scheduled: 0,
        rr_next: 0,
        queued: 0,
        now: 0.0,
        records: if options.retain_records {
            Vec::with_capacity(traffic.requests as usize)
        } else {
            Vec::new()
        },
        busy_s: 0.0,
        depth_integral: 0.0,
        energy_j: 0.0,
        batches: 0,
        last_completion_s: 0.0,
        finished_s: None,
        active_count: initial,
        active_integral: 0.0,
        rung_time_s: vec![0.0; rungs],
        ticks: 0,
        ticks_since_scale: u64::MAX,
        switch_log: Vec::new(),
        scale_log: Vec::new(),
        trace,
        class_labels: if trace.is_some() {
            traffic
                .mix
                .entries
                .iter()
                .map(|e| e.class_label())
                .collect()
        } else {
            Vec::new()
        },
    };
    if let Some(t) = trace {
        // Metadata first: one named process track per replica (plus the
        // cluster track), with the lanes labelled, so Perfetto renders the
        // trace self-describing.
        for i in 0..pool {
            t.record(TraceEvent::process_name(i, &format!("replica{i}")));
            t.record(TraceEvent::thread_name(i, TID_BATCH, "batches"));
            t.record(TraceEvent::thread_name(i, TID_REQ, "requests"));
            if control.is_some() {
                t.record(TraceEvent::thread_name(i, TID_CTRL, "control"));
            }
        }
        let cluster_pid = pool;
        t.record(TraceEvent::process_name(cluster_pid, "cluster"));
        t.record(TraceEvent::counter(
            "active_replicas",
            0.0,
            cluster_pid,
            0,
            f64::from(initial),
        ));
    }
    if traffic.requests > 0 {
        match traffic.process {
            ArrivalProcess::ClosedLoop { concurrency, .. } => {
                let clients = concurrency.max(1).min(traffic.requests);
                for _ in 0..clients {
                    sim.push(0.0, EventKind::Arrival);
                }
                sim.scheduled = clients;
            }
            _ => {
                let gap = sim.gen.next_gap(&mut sim.arrival_rng);
                sim.push(gap, EventKind::Arrival);
                sim.scheduled = 1;
            }
        }
        if let Some(spec) = control {
            sim.push(spec.controller.interval_s, EventKind::ControllerTick);
        }
    }
    sim.run();
    let mut summary = sim.stream.finish();
    if let Some(fleet) = sim.fleet {
        let (tenants, regions) = fleet.finish();
        summary.tenants = tenants;
        summary.regions = regions;
    }
    ServingOutcome {
        records: sim.records,
        admitted: sim.admitted - sim.dropped,
        completed: sim.completed,
        dropped: sim.dropped,
        peak_records_retained: sim.peak_records,
        peak_in_system: sim.peak_in_system,
        events: sim.events,
        summary,
        busy_s: sim.busy_s,
        depth_integral: sim.depth_integral,
        makespan_s: sim.last_completion_s,
        energy_j: sim.energy_j,
        batches: sim.batches,
        active_integral_s: sim.active_integral,
        rung_time_s: sim.rung_time_s,
        policy_switches: sim.switch_log,
        scale_events: sim.scale_log,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::RequestMix;
    use bpvec_dnn::{BitwidthPolicy, NetworkId};
    use bpvec_sim::{Measurement, Workload};

    /// Constant per-inference latency backend: whole-batch cost is linear
    /// in batch size, so it has no batching incentive — ideal for checking
    /// the event loop itself.
    struct ConstServer {
        per_inference_s: f64,
    }

    impl Evaluator for ConstServer {
        fn label(&self) -> String {
            "const".into()
        }

        fn evaluate(
            &self,
            workload: &Workload,
            network: &bpvec_dnn::Network,
            _dram: &DramSpec,
        ) -> Measurement {
            Measurement {
                latency_s: self.per_inference_s,
                energy_j: 1e-3,
                macs: network.total_macs(),
                batch: workload.batch(),
                gops_per_watt: 1.0,
            }
        }
    }

    fn traffic(process: ArrivalProcess, requests: u64) -> TrafficSpec {
        TrafficSpec::new(
            "t",
            process,
            RequestMix::single(Workload::new(NetworkId::Rnn, BitwidthPolicy::Homogeneous8)),
            requests,
        )
    }

    /// A static run of `traffic` on one replica dispatching immediately,
    /// with deterministic service at seed 7; tests override fields by
    /// struct update.
    fn base<'a>(backend: &'a dyn Evaluator, traffic: &'a TrafficSpec) -> ServingRun<'a> {
        ServingRun {
            backend,
            memory: DramSpec::ddr4(),
            policy: BatchPolicy::immediate(),
            topology: Topology::Cluster(ClusterSpec::single()),
            traffic,
            control: None,
            service: ServiceModel::Deterministic,
            seed: 7,
        }
    }

    const CONST_1MS: ConstServer = ConstServer {
        per_inference_s: 1e-3,
    };

    /// A static one-replica run on the constant backend at seed 7, or its
    /// error.
    fn try_run(
        policy: BatchPolicy,
        process: ArrivalProcess,
        requests: u64,
        options: RunOptions,
    ) -> Result<ServingOutcome, ServingError> {
        let t = traffic(process, requests);
        ServingRun {
            policy,
            ..base(&CONST_1MS, &t)
        }
        .try_run(options, None)
    }

    fn run(policy: BatchPolicy, process: ArrivalProcess, requests: u64) -> ServingOutcome {
        try_run(policy, process, requests, RunOptions::retained()).expect("valid run")
    }

    #[test]
    fn cost_table_gives_prefill_and_decode_distinct_entries() {
        use bpvec_sim::{AcceleratorConfig, CostModel};
        let bert = Workload::new(NetworkId::BertBase, BitwidthPolicy::Homogeneous8);
        let t = |kv| {
            TrafficSpec::new(
                "pd",
                ArrivalProcess::poisson(10.0),
                RequestMix::prefill_decode(bert.clone(), kv, 1.0, 1.0),
                10,
            )
        };
        let backend = AcceleratorConfig::bpvec();
        let cost = CostModel::new();
        let short = CostTable::build(&backend, &DramSpec::ddr4(), &t(128), 1, &cost).unwrap();
        // Class 0 (prefill) runs self-attention over the whole sequence;
        // class 1 (decode) serves one token. Distinct classes, distinct
        // costs.
        assert!(short.service_s(0, 1) > short.service_s(1, 1));
        // The decode entry's cost grows with the KV-cache length (more
        // stationary KV traffic and more attention MACs per step).
        let long = CostTable::build(&backend, &DramSpec::ddr4(), &t(1024), 1, &cost).unwrap();
        assert!(long.service_s(1, 1) > short.service_s(1, 1));
    }

    /// The loop's warmup cut: a run with warmup `W` streams exactly the
    /// completions of requests `W..`, so its digest equals an oracle over
    /// those records bit for bit (the same completion order).
    #[test]
    fn the_stream_measures_only_post_warmup_admissions() {
        let (warmup, sla) = (150, 4e-3);
        let t = traffic(ArrivalProcess::poisson(900.0), 600).with_warmup(warmup);
        let out = ServingRun {
            policy: BatchPolicy::deadline(4, 1e-3),
            ..base(&CONST_1MS, &t)
        }
        .try_run(RunOptions::retained().with_sla(Some(sla)), None)
        .unwrap();
        let s = &out.summary;
        assert_eq!(s.measured, out.completed - warmup);
        let measured: Vec<f64> = out
            .records
            .iter()
            .filter(|r| r.id >= warmup)
            .map(RequestRecord::sojourn_s)
            .collect();
        let sum = measured.iter().fold(0.0, |acc, x| acc + x);
        assert_eq!(s.mean_s.to_bits(), (sum / measured.len() as f64).to_bits());
        let max = measured.iter().copied().fold(0.0, f64::max);
        assert_eq!(s.max_s.to_bits(), max.to_bits());
        assert_eq!(
            s.histogram,
            crate::metrics::LatencyHistogram::from_samples(&measured)
        );
        let hits = measured.iter().filter(|&&x| x <= sla).count() as u64;
        assert!(0 < hits && hits < s.measured, "{hits} of {}", s.measured);
        assert_eq!(s.sla_hits, hits);
    }

    #[test]
    fn every_request_completes_exactly_once() {
        let out = run(
            BatchPolicy::immediate(),
            ArrivalProcess::poisson(500.0),
            400,
        );
        assert_eq!(out.admitted, 400);
        let mut ids: Vec<u64> = out.records.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..400).collect::<Vec<u64>>());
    }

    #[test]
    fn identical_seeds_give_identical_outcomes() {
        let a = run(
            BatchPolicy::deadline(8, 0.002),
            ArrivalProcess::bursty(200.0, 2000.0, 0.02, 0.005),
            500,
        );
        let b = run(
            BatchPolicy::deadline(8, 0.002),
            ArrivalProcess::bursty(200.0, 2000.0, 0.02, 0.005),
            500,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn closed_loop_never_exceeds_concurrency_in_flight() {
        let out = run(
            BatchPolicy::immediate(),
            ArrivalProcess::closed_loop(3, 0.0005),
            300,
        );
        assert_eq!(out.records.len(), 300);
        // With 3 clients and batch-1 service, at most 3 requests can be in
        // the system, so sojourn is bounded by 3 service times.
        for r in &out.records {
            assert!(r.sojourn_s() <= 3.0 * 1e-3 + 1e-9, "{}", r.sojourn_s());
        }
    }

    #[test]
    fn closed_loop_with_oversized_fixed_batch_does_not_deadlock() {
        // 2 clients can never fill a batch of 8; the drain flush must keep
        // the loop alive.
        let out = run(
            BatchPolicy::fixed(8),
            ArrivalProcess::closed_loop(2, 0.0),
            100,
        );
        assert_eq!(out.records.len(), 100);
        assert!(out.records.iter().all(|r| r.batch <= 8));
    }

    #[test]
    fn fixed_batching_dispatches_full_batches_under_backlog() {
        // Heavy overload: everything queues, so all batches (except the
        // final drain) are full.
        let out = run(
            BatchPolicy::fixed(4),
            ArrivalProcess::poisson(10_000.0),
            401,
        );
        let full = out.records.iter().filter(|r| r.batch == 4).count();
        assert!(full >= 400, "{full}");
    }

    #[test]
    fn trace_replay_is_exact() {
        let out = run(
            BatchPolicy::immediate(),
            ArrivalProcess::trace(vec![0.25, 0.5, 0.25]),
            4,
        );
        let mut arrivals: Vec<f64> = out.records.iter().map(|r| r.arrival_s).collect();
        arrivals.sort_by(f64::total_cmp);
        // Gaps cycle: 0.25, 0.5, 0.25, 0.25 (wraps).
        let expect = [0.25, 0.75, 1.0, 1.25];
        for (a, e) in arrivals.iter().zip(expect) {
            assert!((a - e).abs() < 1e-12, "{a} vs {e}");
        }
    }

    #[test]
    fn utilization_accounting_is_consistent() {
        let out = run(
            BatchPolicy::immediate(),
            ArrivalProcess::poisson(400.0),
            1000,
        );
        // 1000 batch-1 dispatches of 1 ms each.
        assert!((out.busy_s - 1.0).abs() < 1e-9, "{}", out.busy_s);
        assert_eq!(out.batches, 1000);
        assert!(out.makespan_s >= out.busy_s * 0.9);
        assert!((out.energy_j - 1.0).abs() < 1e-9, "{}", out.energy_j);
    }

    #[test]
    fn deadline_policy_dispatches_before_max_wait_when_full() {
        // Backlogged: batches fill instantly, nobody waits out the deadline.
        let out = run(
            BatchPolicy::deadline(4, 10.0),
            ArrivalProcess::poisson(50_000.0),
            400,
        );
        assert!(out.records.iter().all(|r| r.batch <= 4));
        let full = out.records.iter().filter(|r| r.batch == 4).count();
        assert!(full > 300, "{full}");
    }

    #[test]
    fn deadline_policy_flushes_a_lone_request_at_max_wait() {
        let out = run(
            BatchPolicy::deadline(64, 0.010),
            ArrivalProcess::trace(vec![1.0]),
            1,
        );
        let r = &out.records[0];
        assert_eq!(r.batch, 1);
        // Dispatched at arrival + max_wait, not at drain.
        assert!((r.start_s - r.arrival_s - 0.010).abs() < 1e-9);
    }

    #[test]
    fn makespan_is_the_last_completion_not_a_stale_deadline_check() {
        // 400 requests at 50k rps complete in well under a second; the
        // 10 s deadline must not leak into the measured makespan through
        // a stale check firing on the drained system.
        let out = run(
            BatchPolicy::deadline(4, 10.0),
            ArrivalProcess::poisson(50_000.0),
            400,
        );
        let last = out
            .records
            .iter()
            .map(|r| r.completion_s)
            .fold(0.0f64, f64::max);
        assert_eq!(out.makespan_s, last);
        assert!(out.makespan_s < 1.0, "{}", out.makespan_s);
    }

    #[test]
    fn degenerate_inputs_are_typed_errors_with_a_clear_message() {
        let err = try_run(
            BatchPolicy::immediate(),
            ArrivalProcess::trace(vec![]),
            10,
            RunOptions::retained(),
        )
        .unwrap_err();
        assert_eq!(
            err.to_string(),
            "traffic `t`: trace needs at least one non-negative gap"
        );
    }

    #[test]
    fn a_zero_trace_stride_is_a_typed_error() {
        let options = RunOptions::default().with_trace_every(0);
        let err = try_run(
            BatchPolicy::immediate(),
            ArrivalProcess::poisson(100.0),
            10,
            options,
        )
        .unwrap_err();
        assert!(err.to_string().contains("trace_every"), "{err}");
    }

    #[test]
    fn an_sla_that_is_not_positive_and_finite_is_a_typed_error() {
        for sla in [0.0, -1e-3, f64::NAN, f64::INFINITY] {
            let options = RunOptions::default().with_sla(Some(sla));
            let err = try_run(
                BatchPolicy::immediate(),
                ArrivalProcess::poisson(100.0),
                10,
                options,
            )
            .unwrap_err();
            assert!(err.to_string().contains("SLA"), "{sla}: {err}");
        }
    }

    #[test]
    fn a_fleet_under_adaptive_control_is_a_typed_error() {
        let fleet = FleetSpec::new()
            .region(crate::RegionSpec::new("r", 1, 2))
            .tenant(crate::TenantClass::new("t", 1.0));
        let spec = adaptive_spec(1e-3);
        let t = traffic(ArrivalProcess::poisson(100.0), 10);
        let err = ServingRun {
            topology: Topology::Fleet(&fleet),
            control: Some(&spec),
            ..base(&RungServer { full_s: 1e-3 }, &t)
        }
        .try_run(RunOptions::default(), None)
        .unwrap_err();
        assert!(err.to_string().contains("static-control"), "{err}");
    }

    /// Each configuration the removed panicking entry points rejected is
    /// an error here, never a panic.
    #[test]
    fn malformed_runs_are_typed_errors() {
        let backend = RungServer { full_s: 1e-3 };
        let ok_traffic = traffic(ArrivalProcess::poisson(100.0), 10);
        // A per-layer policy whose width list is longer than the network.
        let PrecisionPolicy::Uniform(int8) = "int8".parse().expect("parses") else {
            unreachable!("int8 parses to a uniform policy")
        };
        let too_long = PrecisionPolicy::per_layer(vec![int8; 100]);
        let mismatched = TrafficSpec::new(
            "mismatched",
            ArrivalProcess::poisson(100.0),
            RequestMix::single(
                Workload::new(NetworkId::Rnn, BitwidthPolicy::Homogeneous8)
                    .with_policy(too_long.clone()),
            ),
            10,
        );
        let bad_rung = crate::AdaptiveSpec::new(
            PrecisionPolicy::degradation_ladder([too_long]).expect("valid ladder shape"),
        );
        let autoscaled = adaptive_spec(1e-3).with_autoscaler(AutoscalerConfig::new(2, 4));
        let ok = base(&backend, &ok_traffic);
        let empty_fleet = FleetSpec::new();
        let cases = [
            ServingRun {
                policy: BatchPolicy::fixed(0),
                ..ok
            },
            ServingRun {
                topology: Topology::Cluster(ClusterSpec::new(0, Router::RoundRobin)),
                ..ok
            },
            ServingRun {
                traffic: &mismatched,
                ..ok
            },
            ServingRun {
                control: Some(&bad_rung),
                ..ok
            },
            ServingRun {
                control: Some(&autoscaled),
                ..ok
            },
            ServingRun {
                topology: Topology::Fleet(&empty_fleet),
                ..ok
            },
        ];
        for run in cases {
            assert!(run.try_run(RunOptions::default(), None).is_err(), "{run:?}");
        }
        assert!(ok.try_run(RunOptions::default(), None).is_ok());
    }

    #[test]
    fn affinity_routing_pins_classes_to_shards() {
        let mix = RequestMix::new()
            .and(
                Workload::new(NetworkId::ResNet18, BitwidthPolicy::Homogeneous8),
                1.0,
            )
            .and(
                Workload::new(NetworkId::Lstm, BitwidthPolicy::Homogeneous8),
                1.0,
            );
        let t = TrafficSpec::new("mix", ArrivalProcess::poisson(500.0), mix, 400);
        let out = ServingRun {
            topology: Topology::Cluster(ClusterSpec::new(2, Router::NetworkAffinity)),
            seed: 3,
            ..base(&CONST_1MS, &t)
        }
        .try_run(RunOptions::retained(), None)
        .unwrap();
        for r in &out.records {
            assert_eq!(r.shard, r.class % 2);
        }
    }

    /// Backend whose per-inference latency scales with the workload
    /// policy's narrowest weight width — a stand-in for a composable
    /// bit-flexible accelerator (8b = `full_s`, 2b = `full_s/4`).
    struct RungServer {
        full_s: f64,
    }

    impl Evaluator for RungServer {
        fn label(&self) -> String {
            "rung".into()
        }

        fn evaluate(
            &self,
            workload: &Workload,
            network: &bpvec_dnn::Network,
            _dram: &DramSpec,
        ) -> Measurement {
            let bits = workload
                .policy
                .min_weight_bits()
                .expect("non-empty policy")
                .bits();
            Measurement {
                latency_s: self.full_s * f64::from(bits) / 8.0,
                energy_j: 1e-3 * f64::from(bits) / 8.0,
                macs: network.total_macs(),
                batch: workload.batch(),
                gops_per_watt: 1.0,
            }
        }
    }

    use crate::controller::{AutoscalerConfig, ControllerConfig};
    use bpvec_dnn::{DegradationLadder, PrecisionPolicy};

    fn uniform_ladder() -> DegradationLadder {
        PrecisionPolicy::degradation_ladder(
            ["int8", "int4", "int2"].map(|s| s.parse::<PrecisionPolicy>().expect("parses")),
        )
        .expect("narrows monotonically")
    }

    /// A step-overload trace: `pre` requests at a comfortable rate, then
    /// `over` requests at twice the backend's full-precision capacity,
    /// then `post` requests back at the comfortable rate.
    fn step_trace(s1: f64, pre: usize, over: usize, post: usize) -> ArrivalProcess {
        let lo = s1 / 0.5;
        let hi = s1 / 2.0;
        let gaps: Vec<f64> = std::iter::repeat_n(lo, pre)
            .chain(std::iter::repeat_n(hi, over))
            .chain(std::iter::repeat_n(lo, post))
            .collect();
        ArrivalProcess::trace(gaps)
    }

    fn adaptive_spec(s1: f64) -> crate::controller::AdaptiveSpec {
        crate::controller::AdaptiveSpec::new(uniform_ladder()).with_controller(
            ControllerConfig::new(4.0 * s1)
                .with_depths(1, 6)
                .with_dwell(2),
        )
    }

    #[test]
    fn adaptive_controller_degrades_under_overload_and_recovers() {
        let s1 = 1e-3;
        let t = TrafficSpec::new(
            "step",
            step_trace(s1, 300, 600, 300),
            RequestMix::single(Workload::new(NetworkId::Rnn, BitwidthPolicy::Homogeneous8)),
            1200,
        );
        let spec = adaptive_spec(s1);
        let out = ServingRun {
            control: Some(&spec),
            seed: 5,
            ..base(&RungServer { full_s: s1 }, &t)
        }
        .try_run(RunOptions::retained(), None)
        .unwrap();
        assert_eq!(out.records.len(), 1200);
        // The overload forces degradation...
        assert!(!out.policy_switches.is_empty());
        let first = out.policy_switches[0];
        assert_eq!(first.to_rung, first.from_rung + 1, "first switch degrades");
        let degraded = out.records.iter().filter(|r| r.rung > 0).count();
        assert!(degraded > 0, "some requests must be served degraded");
        // ...and the post-overload lull brings the replica back up.
        let last = out.policy_switches.last().unwrap();
        assert_eq!(last.to_rung, 0, "the controller recovers to rung 0");
        // Time-in-policy accounting is conservative.
        let rung_sum: f64 = out.rung_time_s.iter().sum();
        assert!(
            (rung_sum - out.active_integral_s).abs() < 1e-9,
            "{rung_sum} vs {}",
            out.active_integral_s
        );
        assert_eq!(out.rung_time_s.len(), 3);
        // Capacity accounting ends at the measured run (single replica:
        // the integral is the makespan), never at trailing no-op events.
        assert!(out.active_integral_s <= out.makespan_s + 1e-9);
    }

    #[test]
    fn adaptive_runs_are_deterministic_switch_logs_included() {
        let s1 = 1e-3;
        let t = TrafficSpec::new(
            "step",
            step_trace(s1, 200, 400, 200),
            RequestMix::single(Workload::new(NetworkId::Rnn, BitwidthPolicy::Homogeneous8)),
            800,
        );
        let spec = adaptive_spec(s1);
        let run = || {
            ServingRun {
                policy: BatchPolicy::deadline(4, 2.0 * s1),
                topology: Topology::Cluster(ClusterSpec::new(2, Router::JoinShortestQueue)),
                control: Some(&spec),
                seed: 11,
                ..base(&RungServer { full_s: s1 }, &t)
            }
            .try_run(RunOptions::retained(), None)
            .unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn autoscaler_stays_within_bounds_and_scales_both_ways() {
        let s1 = 1e-3;
        let t = TrafficSpec::new(
            "step",
            step_trace(s1, 300, 900, 600),
            RequestMix::single(Workload::new(NetworkId::Rnn, BitwidthPolicy::Homogeneous8)),
            1800,
        );
        // Depth-only autoscaler over a single-rung ladder: precision stays
        // put, capacity comes from replicas alone.
        let ladder = PrecisionPolicy::degradation_ladder([PrecisionPolicy::homogeneous8()])
            .expect("one rung");
        let spec = crate::controller::AdaptiveSpec::new(ladder)
            .with_controller(ControllerConfig::new(4.0 * s1).with_depths(0, 1_000_000))
            .with_autoscaler(AutoscalerConfig::new(1, 3).with_depths(0.5, 4.0));
        let out = ServingRun {
            control: Some(&spec),
            ..base(&RungServer { full_s: s1 }, &t)
        }
        .try_run(RunOptions::retained(), None)
        .unwrap();
        assert_eq!(out.records.len(), 1800);
        let ups = out.scale_events.iter().filter(|e| e.up).count();
        let downs = out.scale_events.iter().filter(|e| !e.up).count();
        assert!(ups >= 1, "overload must trigger a scale-up");
        assert!(downs >= 1, "the lull must trigger a scale-down");
        assert!(out.records.iter().all(|r| r.shard < 3));
        // Mean active replicas stays within the autoscaler's bounds.
        let mean = out.active_integral_s / out.makespan_s;
        assert!((1.0 - 1e-9..=3.0 + 1e-9).contains(&mean), "{mean}");
    }

    #[test]
    fn static_outcomes_carry_trivial_control_state() {
        let out = run(
            BatchPolicy::immediate(),
            ArrivalProcess::poisson(500.0),
            200,
        );
        assert!(out.policy_switches.is_empty());
        assert!(out.scale_events.is_empty());
        assert_eq!(out.rung_time_s.len(), 1);
        assert!(out.records.iter().all(|r| r.rung == 0));
        assert!(
            (out.active_integral_s - out.makespan_s).abs() < 1e-12,
            "one replica: ∫active dt == makespan"
        );
    }

    #[test]
    fn least_degraded_router_matches_jsq_under_static_control() {
        // Every rung is 0 in a static run, so (rung, depth, index) routing
        // collapses to (depth, index) — the two routers must agree exactly.
        let t = traffic(ArrivalProcess::poisson(3000.0), 1500);
        let run_with = |router| {
            ServingRun {
                topology: Topology::Cluster(ClusterSpec::new(3, router)),
                seed: 13,
                ..base(&CONST_1MS, &t)
            }
            .try_run(RunOptions::retained(), None)
            .unwrap()
        };
        assert_eq!(
            run_with(Router::JoinShortestQueue),
            run_with(Router::LeastDegraded)
        );
    }

    #[test]
    fn jsq_spreads_load_across_replicas() {
        let t = traffic(ArrivalProcess::poisson(3000.0), 2000);
        let out = ServingRun {
            topology: Topology::Cluster(ClusterSpec::new(4, Router::JoinShortestQueue)),
            seed: 11,
            ..base(&CONST_1MS, &t)
        }
        .try_run(RunOptions::retained(), None)
        .unwrap();
        for s in 0..4 {
            let n = out.records.iter().filter(|r| r.shard == s).count();
            assert!(n > 300, "shard {s} served only {n}");
        }
    }
}
