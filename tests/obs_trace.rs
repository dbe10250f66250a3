//! Cross-crate integration tests of the observability layer: byte-exact
//! trace determinism through the full `ServingScenario` grid, and the
//! event vocabulary of an autoscaled adaptive run.

use std::sync::Arc;

use bpvec::dnn::{BitwidthPolicy, Network, NetworkId, PrecisionPolicy};
use bpvec::obs::TraceSink;
use bpvec::obs::{to_chrome_json, validate_spans, MemorySink, Phase};
use bpvec::serve::{
    AdaptiveSpec, ArrivalProcess, AutoscalerConfig, BatchPolicy, ClusterSpec, ControllerConfig,
    RequestMix, Router, RunOptions, ServiceModel, ServingRun, ServingScenario, Topology,
    TrafficSpec,
};
use bpvec::sim::{AcceleratorConfig, DramSpec, Evaluator, Measurement, Workload};

fn small_scenario(sink: Arc<MemorySink>) -> ServingScenario {
    let mix = RequestMix::new()
        .and(
            Workload::new(NetworkId::AlexNet, BitwidthPolicy::Homogeneous8),
            0.7,
        )
        .and(
            Workload::new(NetworkId::Lstm, BitwidthPolicy::Homogeneous8),
            0.3,
        );
    ServingScenario::new("obs_trace")
        .platform(AcceleratorConfig::bpvec())
        .policy(BatchPolicy::immediate())
        .policy(BatchPolicy::fixed(8))
        .cluster(ClusterSpec::single())
        .cluster(ClusterSpec::new(2, Router::JoinShortestQueue))
        .traffic(TrafficSpec::new(
            "poisson",
            ArrivalProcess::poisson(400.0),
            mix,
            500,
        ))
        .seed(0x0B5)
        .trace(sink)
}

/// Two identically-seeded scenario runs must serialize to byte-identical
/// Chrome JSON — the rayon-parallel grid buffers per-cell and forwards in
/// declaration order, so scheduling cannot leak into the trace.
#[test]
fn serving_scenario_traces_are_byte_identical() {
    let run = || {
        let sink = Arc::new(MemorySink::new());
        let report = small_scenario(sink.clone()).run();
        assert_eq!(report.cells.len(), 4);
        let events = sink.take();
        assert!(!events.is_empty(), "trace must not be empty");
        validate_spans(&events).expect("well-formed span nesting");
        to_chrome_json(&events)
    };
    let (a, b) = (run(), run());
    assert!(!a.is_empty());
    assert_eq!(a, b, "identically-seeded runs must trace identical bytes");
}

/// Per-inference latency proportional to the policy's narrowest weight
/// width — cheap enough that the test drives thousands of requests fast.
struct RungServer;

const FULL_S: f64 = 1e-3;

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
            latency_s: FULL_S * f64::from(bits) / 8.0,
            energy_j: 1e-3,
            macs: network.total_macs(),
            batch: workload.batch(),
            gops_per_watt: 1.0,
        }
    }
}

/// A step overload against a 1→3 autoscaled adaptive cluster: the burst
/// outruns even three full-precision replicas, so the trace must record
/// the whole vocabulary — request lifecycle spans, queue-depth samples,
/// rung-switch instants, and scale instants across all three replicas.
#[test]
fn autoscaled_adaptive_trace_covers_the_event_vocabulary() {
    let ladder = PrecisionPolicy::degradation_ladder(
        ["hom8", "int4", "int2"].map(|s| s.parse::<PrecisionPolicy>().expect("parses")),
    )
    .expect("narrows monotonically");
    let spec = AdaptiveSpec::new(ladder)
        .with_controller(ControllerConfig::new(4.0 * FULL_S).with_depths(2, 12))
        .with_autoscaler(AutoscalerConfig::new(1, 3));
    // 0.5x single-replica capacity, a burst at 6x (above the 3-replica
    // full-precision ceiling), then recovery.
    let lo_gap = 2.0 * FULL_S;
    let hi_gap = FULL_S / 6.0;
    let gaps: Vec<f64> = std::iter::repeat_n(lo_gap, 300)
        .chain(std::iter::repeat_n(hi_gap, 2_000))
        .chain(std::iter::repeat_n(lo_gap, 300))
        .collect();
    let traffic = TrafficSpec::new(
        "step-6x",
        ArrivalProcess::trace(gaps),
        RequestMix::single(Workload::new(NetworkId::Rnn, BitwidthPolicy::Homogeneous8)),
        2_600,
    );

    let sink = MemorySink::new();
    let outcome = ServingRun {
        backend: &RungServer,
        memory: DramSpec::ddr4(),
        policy: BatchPolicy::immediate(),
        topology: Topology::Cluster(ClusterSpec::single()),
        traffic: &traffic,
        control: Some(&spec),
        service: ServiceModel::Deterministic,
        seed: 17,
    }
    .try_run(RunOptions::retained(), Some(&sink as &dyn TraceSink))
    .unwrap();

    let mut active = 1i64;
    let mut peak = active;
    for e in &outcome.scale_events {
        active += if e.up { 1 } else { -1 };
        peak = peak.max(active);
    }
    assert_eq!(peak, 3, "the burst must recruit all 3 replicas");
    assert!(
        !outcome.policy_switches.is_empty(),
        "the burst must also force precision degradation"
    );

    let events = sink.take();
    validate_spans(&events).expect("well-formed span nesting");
    let named = |name: &str| events.iter().filter(|e| e.name == name).count();
    for name in [
        "arrive",
        "queue",
        "exec",
        "complete",
        "queue_depth",
        "rung_switch",
        "rung",
        "scale_up",
        "scale_down",
        "active_replicas",
    ] {
        assert!(named(name) > 0, "trace must contain `{name}` events");
    }
    assert_eq!(named("arrive") as u64, outcome.admitted);
    assert_eq!(named("complete"), outcome.records.len());
    assert_eq!(
        named("rung_switch"),
        outcome.policy_switches.len(),
        "one rung_switch instant per controller decision"
    );
    assert_eq!(
        named("scale_up") + named("scale_down"),
        outcome.scale_events.len(),
        "one scale instant per autoscaler action"
    );
    // Exec spans must appear on all three replica tracks (pids 0..3).
    let exec_pids: std::collections::BTreeSet<u32> = events
        .iter()
        .filter(|e| e.name == "exec" && e.ph == Phase::Begin)
        .map(|e| e.pid)
        .collect();
    assert_eq!(
        exec_pids.into_iter().collect::<Vec<_>>(),
        vec![0, 1, 2],
        "all three replicas must execute work"
    );
}
