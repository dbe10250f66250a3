//! Scheduler-invariant property tests and closed-form queueing checks.
//!
//! The invariants any correct batching scheduler must uphold, checked over
//! randomized policies, arrival processes, and cluster shapes:
//!
//! * **conservation** — every admitted request completes exactly once;
//! * **batch cap** — no dispatched batch exceeds the policy's maximum;
//! * **class FIFO** — within a network class, requests start service in
//!   arrival order.
//!
//! Plus analytical sanity: a Poisson + immediate + single-replica
//! configuration with exponential service jitter is a textbook M/M/1 whose
//! mean sojourn is `1/(μ−λ)`, and with deterministic service an M/D/1 with
//! `S + ρS/(2(1−ρ))` — the simulator must land within 5% of both.

use bpvec_dnn::{BitwidthPolicy, Network, NetworkId, PrecisionPolicy};
use bpvec_serve::{
    AdaptiveSpec, ArrivalProcess, AutoscalerConfig, BatchPolicy, ClusterSpec, ControllerConfig,
    RequestMix, Router, RunOptions, ServiceModel, ServingMetrics, ServingOutcome, ServingRun,
    Topology, TrafficSpec,
};
use bpvec_sim::{DramSpec, Evaluator, Measurement, Workload};
use proptest::prelude::*;

/// Constant per-inference latency backend: service cost is `s · batch`, so
/// the event loop (not the analytical model) is what gets exercised.
struct ConstServer {
    per_inference_s: f64,
}

impl Evaluator for ConstServer {
    fn label(&self) -> String {
        "const".into()
    }

    fn evaluate(&self, workload: &Workload, network: &Network, _dram: &DramSpec) -> Measurement {
        Measurement {
            latency_s: self.per_inference_s,
            energy_j: 1e-3,
            macs: network.total_macs(),
            batch: workload.batch(),
            gops_per_watt: 1.0,
        }
    }
}

fn two_class_mix() -> RequestMix {
    RequestMix::new()
        .and(
            Workload::new(NetworkId::ResNet18, BitwidthPolicy::Homogeneous8),
            3.0,
        )
        .and(
            Workload::new(NetworkId::Lstm, BitwidthPolicy::Homogeneous8),
            1.0,
        )
}

fn arb_policy() -> impl Strategy<Value = BatchPolicy> {
    prop_oneof![
        Just(BatchPolicy::immediate()),
        (1u64..=8).prop_map(BatchPolicy::fixed),
        ((1u64..=16), (0.0f64..0.004)).prop_map(|(b, w)| BatchPolicy::deadline(b, w)),
    ]
}

fn arb_process() -> impl Strategy<Value = ArrivalProcess> {
    prop_oneof![
        (100.0f64..2000.0).prop_map(ArrivalProcess::poisson),
        ((100.0f64..400.0), (800.0f64..2500.0))
            .prop_map(|(base, burst)| ArrivalProcess::bursty(base, burst, 0.02, 0.005)),
        Just(ArrivalProcess::trace(vec![
            0.001, 0.0, 0.002, 0.0005, 0.0, 0.003,
        ])),
        ((1u64..=6), (0.0f64..0.002)).prop_map(|(c, think)| ArrivalProcess::closed_loop(c, think)),
    ]
}

fn arb_cluster() -> impl Strategy<Value = ClusterSpec> {
    (
        1u32..=4,
        prop_oneof![
            Just(Router::RoundRobin),
            Just(Router::JoinShortestQueue),
            Just(Router::NetworkAffinity),
        ],
    )
        .prop_map(|(replicas, router)| ClusterSpec::new(replicas, router))
}

fn outcome_for(
    policy: BatchPolicy,
    process: ArrivalProcess,
    cluster: ClusterSpec,
    seed: u64,
) -> ServingOutcome {
    let traffic = TrafficSpec::new("prop", process, two_class_mix(), 300);
    ServingRun {
        backend: &ConstServer {
            per_inference_s: 1e-3,
        },
        memory: DramSpec::ddr4(),
        policy,
        topology: Topology::Cluster(cluster),
        traffic: &traffic,
        control: None,
        service: ServiceModel::Deterministic,
        seed,
    }
    .try_run(RunOptions::retained(), None)
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conservation: every admitted request completes exactly once, with a
    /// causally ordered lifecycle.
    #[test]
    fn every_admitted_request_completes_exactly_once(
        policy in arb_policy(),
        process in arb_process(),
        cluster in arb_cluster(),
        seed in 0u64..1000,
    ) {
        let out = outcome_for(policy, process, cluster, seed);
        prop_assert_eq!(out.admitted, 300);
        prop_assert_eq!(out.records.len(), 300);
        let mut ids: Vec<u64> = out.records.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..300).collect::<Vec<u64>>());
        for r in &out.records {
            prop_assert!(r.arrival_s <= r.start_s, "{} > {}", r.arrival_s, r.start_s);
            prop_assert!(r.start_s <= r.completion_s);
        }
    }

    /// No dispatched batch ever exceeds the policy's cap.
    #[test]
    fn batches_respect_the_policy_cap(
        policy in arb_policy(),
        process in arb_process(),
        cluster in arb_cluster(),
        seed in 0u64..1000,
    ) {
        let out = outcome_for(policy, process, cluster, seed);
        let cap = policy.max_batch();
        for r in &out.records {
            prop_assert!(r.batch >= 1 && r.batch <= cap, "batch {} vs cap {cap}", r.batch);
        }
    }

    /// FIFO within a network class: requests of the same class start
    /// service in admission order (admission ids are arrival-ordered).
    #[test]
    fn fifo_within_each_class(
        policy in arb_policy(),
        process in arb_process(),
        cluster in arb_cluster(),
        seed in 0u64..1000,
    ) {
        let out = outcome_for(policy, process, cluster, seed);
        for class in 0..2 {
            // Per replica: routing may interleave classes across shards,
            // but each shard must serve its own class queue FIFO.
            for shard in 0..4 {
                let mut in_order: Vec<(u64, f64)> = out
                    .records
                    .iter()
                    .filter(|r| r.class == class && r.shard == shard)
                    .map(|r| (r.id, r.start_s))
                    .collect();
                in_order.sort_by_key(|(id, _)| *id);
                for pair in in_order.windows(2) {
                    prop_assert!(
                        pair[0].1 <= pair[1].1,
                        "class {class} shard {shard}: id {} started {} after id {} at {}",
                        pair[0].0,
                        pair[0].1,
                        pair[1].0,
                        pair[1].1
                    );
                }
            }
        }
    }
}

/// Backend whose per-inference latency scales with the workload policy's
/// narrowest weight width — exercises rung-dependent service costs without
/// the analytical model.
struct RungServer {
    full_s: f64,
}

impl Evaluator for RungServer {
    fn label(&self) -> String {
        "rung".into()
    }

    fn evaluate(&self, workload: &Workload, network: &Network, _dram: &DramSpec) -> Measurement {
        let bits = workload
            .policy
            .min_weight_bits()
            .expect("non-empty policy")
            .bits();
        Measurement {
            latency_s: self.full_s * f64::from(bits) / 8.0,
            energy_j: 1e-3,
            macs: network.total_macs(),
            batch: workload.batch(),
            gops_per_watt: 1.0,
        }
    }
}

fn arb_adaptive() -> impl Strategy<Value = AdaptiveSpec> {
    let ladder = PrecisionPolicy::degradation_ladder(
        ["hom8", "int4", "int2"].map(|s| s.parse::<PrecisionPolicy>().expect("parses")),
    )
    .expect("narrows monotonically");
    (
        (0.001f64..0.02), // tick interval
        (0u64..=2),       // low watermark
        (4u64..=24),      // high watermark
        (0u64..=3),       // dwell
        // Optional autoscaler: (up_depth, max_replicas).
        prop_oneof![Just(None), ((1.0f64..8.0), (2u32..=4)).prop_map(Some)],
    )
        .prop_map(move |(interval, low, high, dwell, auto)| {
            let mut spec = AdaptiveSpec::new(ladder.clone()).with_controller(
                ControllerConfig::new(interval)
                    .with_depths(low, high)
                    .with_dwell(dwell),
            );
            if let Some((up, max)) = auto {
                spec = spec.with_autoscaler(AutoscalerConfig::new(1, max).with_depths(0.5, up));
            }
            spec
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// JSQ tie-breaking order: simultaneous arrivals into an idle cluster
    /// with service too slow for anything to complete must land request
    /// `i` on replica `i mod replicas` — exactly the pattern produced by
    /// "lowest replica index wins ties", and broken by any other rule.
    #[test]
    fn jsq_ties_go_to_the_lowest_replica_index(
        replicas in 1u32..=6,
        rounds in 1u64..=5,
        seed in 0u64..1000,
    ) {
        let requests = u64::from(replicas) * rounds;
        let traffic = TrafficSpec::new(
            "ties",
            // A single zero gap replayed cyclically: every request arrives
            // at t = 0, in admission order.
            ArrivalProcess::trace(vec![0.0]),
            RequestMix::single(Workload::new(NetworkId::Rnn, BitwidthPolicy::Homogeneous8)),
            requests,
        );
        let out = ServingRun {
            backend: &ConstServer { per_inference_s: 1e3 },
            memory: DramSpec::ddr4(),
            policy: BatchPolicy::immediate(),
            topology: Topology::Cluster(ClusterSpec::new(replicas, Router::JoinShortestQueue)),
            traffic: &traffic,
            control: None,
            service: ServiceModel::Deterministic,
            seed,
        }
        .try_run(RunOptions::retained(), None)
        .unwrap();
        prop_assert_eq!(out.records.len() as u64, requests);
        for r in &out.records {
            prop_assert_eq!(
                r.shard as u64,
                r.id % u64::from(replicas),
                "request {} landed on replica {} (depths tied at its arrival)",
                r.id,
                r.shard
            );
        }
    }

    /// Adaptive control never breaks the scheduler invariants: every
    /// request still completes exactly once, switches walk the ladder one
    /// rung at a time, records carry rungs the ladder actually has, and
    /// the autoscaler stays within its bounds.
    #[test]
    fn adaptive_control_preserves_conservation_and_ladder_contract(
        spec in arb_adaptive(),
        policy in arb_policy(),
        seed in 0u64..1000,
    ) {
        let traffic = TrafficSpec::new(
            "prop",
            ArrivalProcess::bursty(400.0, 3000.0, 0.05, 0.02),
            RequestMix::single(Workload::new(NetworkId::Rnn, BitwidthPolicy::Homogeneous8)),
            400,
        );
        let out = ServingRun {
            backend: &RungServer { full_s: 1e-3 },
            memory: DramSpec::ddr4(),
            policy,
            topology: Topology::Cluster(ClusterSpec::single()),
            traffic: &traffic,
            control: Some(&spec),
            service: ServiceModel::Deterministic,
            seed,
        }
        .try_run(RunOptions::retained(), None)
        .unwrap();
        let mut ids: Vec<u64> = out.records.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..400).collect::<Vec<u64>>());
        let rungs = 3usize;
        prop_assert!(out.records.iter().all(|r| r.rung < rungs));
        for s in &out.policy_switches {
            prop_assert!(s.to_rung < rungs);
            prop_assert!(s.to_rung.abs_diff(s.from_rung) == 1, "one rung per decision");
        }
        let max_replicas = spec.autoscaler.map_or(1, |a| a.max_replicas);
        prop_assert!(out.records.iter().all(|r| (r.shard as u32) < max_replicas));
        // Time accounting stays conservative under switching and scaling.
        let rung_sum: f64 = out.rung_time_s.iter().sum();
        prop_assert!((rung_sum - out.active_integral_s).abs() < 1e-6 * out.active_integral_s.max(1.0));
    }
}

/// One replica dispatching immediately on a constant `s`-second backend,
/// at seed 42, streaming.
fn single_replica(traffic: &TrafficSpec, s: f64, service: ServiceModel) -> ServingOutcome {
    ServingRun {
        backend: &ConstServer { per_inference_s: s },
        memory: DramSpec::ddr4(),
        policy: BatchPolicy::immediate(),
        topology: Topology::Cluster(ClusterSpec::single()),
        traffic,
        control: None,
        service,
        seed: 42,
    }
    .try_run(RunOptions::default(), None)
    .unwrap()
}

/// M/M/1: Poisson arrivals, exponential service, one server, no batching.
/// Closed form: mean sojourn `T = 1/(μ − λ)`.
#[test]
fn mm1_mean_sojourn_matches_closed_form_within_5pct() {
    let s = 1e-3; // μ = 1000/s
    let lambda = 600.0; // ρ = 0.6
    let traffic = TrafficSpec::new(
        "mm1",
        ArrivalProcess::poisson(lambda),
        RequestMix::single(Workload::new(NetworkId::Rnn, BitwidthPolicy::Homogeneous8)),
        60_000,
    )
    .with_warmup(5_000);
    let out = single_replica(&traffic, s, ServiceModel::ExponentialJitter);
    let m = ServingMetrics::from_outcome(&out, 1);
    let expect = 1.0 / (1.0 / s - lambda); // 2.5 ms
    let rel = (m.latency.mean_s - expect).abs() / expect;
    assert!(
        rel < 0.05,
        "M/M/1 mean sojourn {:.6} vs closed-form {:.6} ({:.1}% off)",
        m.latency.mean_s,
        expect,
        rel * 100.0
    );
    // Utilization must track ρ as well.
    assert!((m.utilization - 0.6).abs() < 0.03, "{}", m.utilization);
}

/// M/D/1: same setup with deterministic service. Closed form:
/// `T = S + ρS/(2(1−ρ))`.
#[test]
fn md1_mean_sojourn_matches_closed_form_within_5pct() {
    let s = 1e-3;
    let lambda = 600.0;
    let rho: f64 = 0.6;
    let traffic = TrafficSpec::new(
        "md1",
        ArrivalProcess::poisson(lambda),
        RequestMix::single(Workload::new(NetworkId::Rnn, BitwidthPolicy::Homogeneous8)),
        60_000,
    )
    .with_warmup(5_000);
    let out = single_replica(&traffic, s, ServiceModel::Deterministic);
    let m = ServingMetrics::from_outcome(&out, 1);
    let expect = s + rho * s / (2.0 * (1.0 - rho)); // 1.375 ms
    let rel = (m.latency.mean_s - expect).abs() / expect;
    assert!(
        rel < 0.05,
        "M/D/1 mean sojourn {:.6} vs closed-form {:.6} ({:.1}% off)",
        m.latency.mean_s,
        expect,
        rel * 100.0
    );
}

/// The acceptance-criterion behavior: on a real CNN backend under high
/// load, deadline-aware dynamic batching beats immediate dispatch on p99
/// latency. AlexNet's huge FC layers make it weight-traffic-bound at batch
/// 1, so the backend's `BatchRegime` batch costs are strongly sub-linear
/// (per-inference latency drops 5.0 → 1.6 ms from batch 1 to 16, then
/// rises again at 32 under tile spill) — batching raises service capacity.
#[test]
fn dynamic_batching_beats_immediate_p99_under_high_load() {
    use bpvec_sim::AcceleratorConfig;
    let accel = AcceleratorConfig::bpvec();
    let w = Workload::new(NetworkId::AlexNet, BitwidthPolicy::Homogeneous8);
    let net = w.build();
    let s1 = accel
        .evaluate(
            &w.clone().with_batching(bpvec_sim::BatchRegime::fixed(1)),
            &net,
            &DramSpec::ddr4(),
        )
        .latency_s;
    // 1.2× the batch-1 capacity: immediate dispatch is overloaded, dynamic
    // batching is not.
    let traffic = TrafficSpec::new(
        "overload",
        ArrivalProcess::poisson(1.2 / s1),
        RequestMix::single(w),
        1_500,
    )
    .with_warmup(150);
    let run = |policy| {
        let out = ServingRun {
            backend: &accel,
            memory: DramSpec::ddr4(),
            policy,
            topology: Topology::Cluster(ClusterSpec::single()),
            traffic: &traffic,
            control: None,
            service: ServiceModel::Deterministic,
            seed: 9,
        }
        .try_run(RunOptions::default(), None)
        .unwrap();
        ServingMetrics::from_outcome(&out, 1)
    };
    let immediate = run(BatchPolicy::immediate());
    let dynamic = run(BatchPolicy::deadline(16, 4.0 * s1));
    assert!(
        dynamic.latency.p99_s < immediate.latency.p99_s,
        "dynamic p99 {:.6}s must beat immediate p99 {:.6}s",
        dynamic.latency.p99_s,
        immediate.latency.p99_s
    );
    assert!(dynamic.mean_batch > 1.5, "{}", dynamic.mean_batch);
    assert!(dynamic.throughput_rps > immediate.throughput_rps);
}
