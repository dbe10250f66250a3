//! End-to-end contracts of the adaptive precision serving subsystem
//! through the umbrella crate: the controller is byte-deterministic,
//! degrades under overload and recovers after it, the autoscaler respects
//! its bounds, and the scenario API surfaces control state in its CSV.

use bpvec::dnn::{BitwidthPolicy, NetworkId, PrecisionPolicy};
use bpvec::serve::{
    AdaptiveSpec, ArrivalProcess, AutoscalerConfig, BatchPolicy, ClusterSpec, ControllerConfig,
    RequestMix, Router, RunOptions, ServiceModel, ServingRun, ServingScenario, Topology,
    TrafficSpec,
};
use bpvec::sim::{AcceleratorConfig, BatchRegime, DramSpec, Evaluator, Workload};

fn ladder() -> bpvec::dnn::DegradationLadder {
    PrecisionPolicy::degradation_ladder(
        ["hom8", "int4", "int2"].map(|s| s.parse::<PrecisionPolicy>().expect("parses")),
    )
    .expect("narrows monotonically")
}

/// Static-8b batched capacity of AlexNet on BPVeC + DDR4.
fn capacity_rps() -> f64 {
    let accel = AcceleratorConfig::bpvec();
    let w = Workload::new(NetworkId::AlexNet, BitwidthPolicy::Homogeneous8)
        .with_batching(BatchRegime::fixed(16));
    1.0 / accel.evaluate(&w, &w.build(), &DramSpec::ddr4()).latency_s
}

/// 0.6× capacity, a 2× burst, 0.6× recovery.
fn step_traffic(cap: f64) -> TrafficSpec {
    let lo = 1.0 / (0.6 * cap);
    let hi = 1.0 / (2.0 * cap);
    let gaps: Vec<f64> = std::iter::repeat_n(lo, 600)
        .chain(std::iter::repeat_n(hi, 1_200))
        .chain(std::iter::repeat_n(lo, 600))
        .collect();
    TrafficSpec::new(
        "step-2x",
        ArrivalProcess::trace(gaps),
        RequestMix::single(Workload::new(
            NetworkId::AlexNet,
            BitwidthPolicy::Homogeneous8,
        )),
        2_400,
    )
}

fn scenario(cap: f64, spec: AdaptiveSpec) -> ServingScenario {
    ServingScenario::new("adaptive_api")
        .platform(AcceleratorConfig::bpvec())
        .policy(BatchPolicy::deadline(16, 0.008))
        .cluster(ClusterSpec::single())
        .traffic(step_traffic(cap))
        .static_control()
        .control(spec)
        .sla_s(0.025)
        .seed(0xFEED)
}

fn controller() -> ControllerConfig {
    ControllerConfig::new(0.020)
        .with_depths(4, 24)
        .with_target_p99(0.025)
}

#[test]
fn adaptive_reports_are_byte_deterministic_across_runs() {
    let cap = capacity_rps();
    let build = || {
        scenario(
            cap,
            AdaptiveSpec::new(ladder()).with_controller(controller()),
        )
    };
    let a = build().run();
    let b = build().run();
    assert_eq!(a, b);
    assert_eq!(a.to_csv(), b.to_csv(), "CSV must match byte for byte");
    let back: bpvec::serve::ServingReport = serde_json::from_str(&a.to_json()).unwrap();
    assert_eq!(a, back);
}

#[test]
fn adaptive_degrades_under_overload_and_beats_static_goodput() {
    let cap = capacity_rps();
    let report = scenario(
        cap,
        AdaptiveSpec::new(ladder()).with_controller(controller()),
    )
    .run();
    assert_eq!(report.cells.len(), 2);
    let cell = |prefix: &str| {
        report
            .cells
            .iter()
            .find(|c| c.control.starts_with(prefix))
            .expect("cell exists")
    };
    let stat = cell("static");
    let adap = cell("adaptive");
    // Static never degrades; the controller does, and it pays off.
    assert_eq!(stat.metrics.degraded_share, 0.0);
    assert_eq!(stat.metrics.policy_switches, 0);
    assert!(adap.metrics.degraded_share > 0.0);
    assert!(adap.metrics.policy_switches > 0);
    assert!(
        adap.metrics.goodput_rps >= 2.0 * stat.metrics.goodput_rps,
        "adaptive goodput {} vs static {}",
        adap.metrics.goodput_rps,
        stat.metrics.goodput_rps
    );
    // Time-in-policy spans the ladder and sums to 1.
    assert_eq!(adap.metrics.time_in_policy.len(), 3);
    let total: f64 = adap.metrics.time_in_policy.iter().sum();
    assert!((total - 1.0).abs() < 1e-9, "{total}");
    // The CSV carries the control column and the adaptive shares.
    let csv = report.to_csv();
    let header = csv.lines().next().unwrap();
    assert!(header.contains("precision,control,"), "{header}");
    assert!(
        header.ends_with("full_precision_share,policy_switches,mean_replicas,seq,classes"),
        "{header}"
    );
    assert!(csv.contains(",static,"), "{csv}");
    assert!(
        csv.contains("adaptive(Homogeneous8>uniform4>uniform2)"),
        "{csv}"
    );
}

#[test]
fn controller_recovers_to_full_precision_after_the_burst() {
    let cap = capacity_rps();
    let spec = AdaptiveSpec::new(ladder()).with_controller(controller());
    let out = ServingRun {
        backend: &AcceleratorConfig::bpvec(),
        memory: DramSpec::ddr4(),
        policy: BatchPolicy::deadline(16, 0.008),
        topology: Topology::Cluster(ClusterSpec::single()),
        traffic: &step_traffic(cap),
        control: Some(&spec),
        service: ServiceModel::Deterministic,
        seed: 0xFEED,
    }
    .try_run(RunOptions::retained(), None)
    .unwrap();
    assert!(!out.policy_switches.is_empty());
    assert_eq!(out.policy_switches[0].to_rung, 1, "first move degrades");
    assert_eq!(
        out.policy_switches.last().unwrap().to_rung,
        0,
        "the post-burst lull brings the replica back to full precision"
    );
    // The tail of the run is served at full precision again.
    let last = out.records.last().unwrap();
    assert_eq!(last.rung, 0, "{last:?}");
}

#[test]
fn autoscaled_cluster_grows_under_overload_and_respects_bounds() {
    let cap = capacity_rps();
    // Single-rung ladder: capacity must come from replicas, not precision.
    let one_rung = PrecisionPolicy::degradation_ladder([PrecisionPolicy::homogeneous8()])
        .expect("single rung");
    let spec = AdaptiveSpec::new(one_rung)
        .with_controller(ControllerConfig::new(0.020).with_depths(0, 1_000_000))
        .with_autoscaler(AutoscalerConfig::new(1, 4).with_depths(1.0, 8.0));
    let report = scenario(cap, spec).run();
    let adap = report
        .cells
        .iter()
        .find(|c| c.control.starts_with("adaptive"))
        .expect("cell exists");
    assert!(
        adap.metrics.scale_events > 0,
        "the burst must trigger scaling"
    );
    assert!(
        adap.metrics.mean_active_replicas > 1.0 && adap.metrics.mean_active_replicas <= 4.0,
        "{}",
        adap.metrics.mean_active_replicas
    );
    assert!(adap.control.ends_with(";scale1-4)"), "{}", adap.control);
    // More capacity under the same arrivals: goodput can only improve.
    let stat = report
        .cells
        .iter()
        .find(|c| c.control == "static")
        .expect("cell exists");
    assert!(adap.metrics.goodput_rps > stat.metrics.goodput_rps);
}

#[test]
fn least_degraded_router_keeps_full_precision_majority_on_a_half_loaded_pair() {
    let cap = capacity_rps();
    // Two replicas at a load one replica can almost carry: least-degraded
    // routing concentrates overflow on one replica and keeps the other at
    // full precision, so most requests stay at rung 0.
    let traffic = TrafficSpec::new(
        "steady-0.9x",
        ArrivalProcess::poisson(0.9 * cap),
        RequestMix::single(Workload::new(
            NetworkId::AlexNet,
            BitwidthPolicy::Homogeneous8,
        )),
        2_000,
    );
    let spec = AdaptiveSpec::new(ladder()).with_controller(controller());
    let out = ServingRun {
        backend: &AcceleratorConfig::bpvec(),
        memory: DramSpec::ddr4(),
        policy: BatchPolicy::deadline(16, 0.008),
        topology: Topology::Cluster(ClusterSpec::new(2, Router::LeastDegraded)),
        traffic: &traffic,
        control: Some(&spec),
        service: ServiceModel::Deterministic,
        seed: 7,
    }
    .try_run(RunOptions::retained(), None)
    .unwrap();
    let full = out.records.iter().filter(|r| r.rung == 0).count();
    let share = full as f64 / out.records.len() as f64;
    assert!(
        share >= 0.5,
        "full-precision share {share:.3} on a half-loaded pair"
    );
}

#[test]
fn invalid_adaptive_configurations_surface_as_scenario_errors() {
    let cap = capacity_rps();
    // Autoscaler bounds exclude the declared cluster.
    let spec = AdaptiveSpec::new(ladder()).with_autoscaler(AutoscalerConfig::new(2, 4));
    let err = scenario(cap, spec).try_run().unwrap_err();
    assert!(err.to_string().contains("autoscaler"), "{err}");
    // Ladder construction itself rejects a widening sequence.
    let widening = PrecisionPolicy::degradation_ladder(
        ["int2", "int4"].map(|s| s.parse::<PrecisionPolicy>().expect("parses")),
    );
    assert!(widening.is_err());
}
