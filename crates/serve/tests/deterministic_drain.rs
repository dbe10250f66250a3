//! Drain and run-twice determinism across every arrival process and
//! policy shape the simulator supports.
//!
//! The event loop orders events by a strict `(time, seq)` key, and in
//! debug builds it asserts that its calendar queue pops those keys in
//! strictly increasing order. These runs drive that check through six
//! arrival processes × three batching policies, and through adaptive runs
//! with and without the autoscaler, so the suite is worth running in a
//! debug build:
//!
//! ```text
//! cargo test -p bpvec-serve --test deterministic_drain
//! ```
//!
//! Every run must drain (each admitted request completes exactly once)
//! and must reproduce itself exactly, outcome and trace bytes, when run
//! again with the same seed.

use bpvec_dnn::{BitwidthPolicy, DegradationLadder, Network, NetworkId, PrecisionPolicy};
use bpvec_obs::{MemorySink, TraceSink};
use bpvec_serve::{
    AdaptiveSpec, ArrivalProcess, AutoscalerConfig, BatchPolicy, ClusterSpec, ControllerConfig,
    RequestMix, Router, RunOptions, ServiceModel, ServingRun, Topology, TrafficSpec,
};
use bpvec_sim::{DramSpec, Evaluator, Measurement, Workload};

/// Constant per-inference latency backend.
struct ConstServer;

impl Evaluator for ConstServer {
    fn label(&self) -> String {
        "const".into()
    }

    fn evaluate(&self, workload: &Workload, network: &Network, _dram: &DramSpec) -> Measurement {
        Measurement {
            latency_s: 1e-3,
            energy_j: 1e-3,
            macs: network.total_macs(),
            batch: workload.batch(),
            gops_per_watt: 1.0,
        }
    }
}

fn mix() -> RequestMix {
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

fn processes() -> Vec<ArrivalProcess> {
    vec![
        ArrivalProcess::poisson(1200.0),
        ArrivalProcess::bursty(300.0, 2500.0, 0.02, 0.005),
        ArrivalProcess::trace(vec![0.001, 0.0, 0.002, 0.0005, 0.0, 0.003]),
        ArrivalProcess::closed_loop(5, 0.0005),
        ArrivalProcess::diurnal(400.0, 1600.0, 2.0),
        ArrivalProcess::flash_crowd(400.0, 4000.0, 0.5, 0.2, 1.0),
    ]
}

/// Runs `run` twice, with records retained and a fresh trace sink each
/// time. Each run must drain, every one of `requests` arrivals completing
/// exactly once, and the second must repeat the first's outcome and trace
/// bytes.
fn assert_drains_and_repeats(run: &ServingRun, requests: u64) {
    let traced = || {
        let sink = MemorySink::new();
        let out = run
            .try_run(RunOptions::retained(), Some(&sink as &dyn TraceSink))
            .unwrap();
        (out, sink.to_chrome_json())
    };
    let (first, first_trace) = traced();
    assert_eq!(first.admitted, requests, "{run:?}");
    assert_eq!(first.completed, requests, "{run:?}");
    let mut ids: Vec<u64> = first.records.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    assert!(ids.iter().copied().eq(0..requests), "{run:?}");
    let (second, second_trace) = traced();
    assert_eq!(first, second, "{run:?}: outcomes diverged");
    assert!(first_trace == second_trace, "{run:?}: trace bytes diverged");
}

#[test]
fn static_runs_drain_and_repeat_exactly() {
    for process in processes() {
        let traffic = TrafficSpec::new("eq", process, mix(), 2_000);
        for policy in [
            BatchPolicy::immediate(),
            BatchPolicy::fixed(4),
            BatchPolicy::deadline(8, 0.002),
        ] {
            let run = ServingRun {
                backend: &ConstServer,
                memory: DramSpec::ddr4(),
                policy,
                topology: Topology::Cluster(ClusterSpec::new(3, Router::JoinShortestQueue)),
                traffic: &traffic,
                control: None,
                service: ServiceModel::ExponentialJitter,
                seed: 0xC0FFEE,
            };
            assert_drains_and_repeats(&run, 2_000);
        }
    }
}

fn ladder() -> DegradationLadder {
    PrecisionPolicy::degradation_ladder(
        ["hom8", "int4"].map(|s| s.parse::<PrecisionPolicy>().expect("parses")),
    )
    .expect("narrows monotonically")
}

#[test]
fn adaptive_and_autoscaled_runs_drain_and_repeat_exactly() {
    let traffic = TrafficSpec::new(
        "eq-adaptive",
        ArrivalProcess::bursty(400.0, 3000.0, 0.02, 0.01),
        mix(),
        3_000,
    );
    for autoscale in [false, true] {
        let mut spec = AdaptiveSpec::new(ladder()).with_controller(
            ControllerConfig::new(0.020)
                .with_depths(4, 24)
                .with_target_p99(0.01),
        );
        if autoscale {
            spec = spec.with_autoscaler(AutoscalerConfig::new(1, 4));
        }
        let run = ServingRun {
            backend: &ConstServer,
            memory: DramSpec::ddr4(),
            policy: BatchPolicy::deadline(8, 0.002),
            topology: Topology::Cluster(ClusterSpec::new(2, Router::LeastDegraded)),
            traffic: &traffic,
            control: Some(&spec),
            service: ServiceModel::ExponentialJitter,
            seed: 0xADA7,
        };
        assert_drains_and_repeats(&run, 3_000);
    }
}
