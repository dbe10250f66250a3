//! Trace-sampling contract: `RunOptions::trace_every` bounds trace volume
//! without corrupting span structure, and a stride of 1 reproduces the
//! unsampled trace byte-for-byte.

use bpvec_dnn::{BitwidthPolicy, Network, NetworkId};
use bpvec_obs::{MemorySink, Phase, TraceSink};
use bpvec_serve::{
    ArrivalProcess, BatchPolicy, ClusterSpec, RequestMix, Router, RunOptions, ServiceModel,
    ServingRun, Topology, TrafficSpec,
};
use bpvec_sim::{DramSpec, Evaluator, Measurement, Workload};

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

fn traffic(requests: u64) -> TrafficSpec {
    TrafficSpec::new(
        "sampled",
        ArrivalProcess::poisson(1500.0),
        RequestMix::single(Workload::new(
            NetworkId::ResNet18,
            BitwidthPolicy::Homogeneous8,
        )),
        requests,
    )
}

/// Two replicas under deadline batching at seed 9, traced into a fresh
/// sink.
fn run_traced(requests: u64, options: RunOptions) -> MemorySink {
    let sink = MemorySink::new();
    ServingRun {
        backend: &ConstServer,
        memory: DramSpec::ddr4(),
        policy: BatchPolicy::deadline(8, 0.002),
        topology: Topology::Cluster(ClusterSpec::new(2, Router::JoinShortestQueue)),
        traffic: &traffic(requests),
        control: None,
        service: ServiceModel::Deterministic,
        seed: 9,
    }
    .try_run(options, Some(&sink as &dyn TraceSink))
    .unwrap();
    sink
}

fn run_sampled(requests: u64, trace_every: u64) -> MemorySink {
    run_traced(
        requests,
        RunOptions::default().with_trace_every(trace_every),
    )
}

#[test]
fn sampling_stride_bounds_request_events() {
    let requests = 7_000u64;
    let every = 7u64;
    let events = run_sampled(requests, every).take();
    let sampled_ids = requests.div_ceil(every);
    // Request-lane instants: exactly one arrive and one complete per
    // sampled request, and nothing for unsampled ones.
    let arrives = events.iter().filter(|e| e.name == "arrive").count() as u64;
    let completes = events.iter().filter(|e| e.name == "complete").count() as u64;
    assert_eq!(arrives, sampled_ids);
    assert_eq!(completes, sampled_ids);
    // Total volume shrinks roughly with the stride: per-request events are
    // gone for 6/7 of requests, and exec spans only surface when a batch
    // carries a sampled request.
    let full = run_sampled(requests, 1).take();
    assert!(
        events.len() * 4 < full.len(),
        "sampled trace ({}) should be several times smaller than full ({})",
        events.len(),
        full.len()
    );
}

#[test]
fn sampled_exec_spans_still_pair() {
    let events = run_sampled(5_000, 13).take();
    // Per (pid, tid) track, Begin/End events must nest: the count matches
    // and no End arrives before its Begin.
    let mut open: std::collections::HashMap<(u32, u32), i64> = std::collections::HashMap::new();
    for e in &events {
        match e.ph {
            Phase::Begin => *open.entry((e.pid, e.tid)).or_insert(0) += 1,
            Phase::End => {
                let depth = open.entry((e.pid, e.tid)).or_insert(0);
                *depth -= 1;
                assert!(*depth >= 0, "unmatched E on pid={} tid={}", e.pid, e.tid);
            }
            _ => {}
        }
    }
    for ((pid, tid), depth) in open {
        assert_eq!(depth, 0, "unclosed span on pid={pid} tid={tid}");
    }
}

#[test]
fn stride_one_matches_the_unsampled_trace_byte_for_byte() {
    let requests = 2_000u64;
    let via_options = run_sampled(requests, 1);
    // Tracing is unaffected by record retention, so a retained run's
    // stream must agree with the streaming one byte for byte.
    let retained = run_traced(requests, RunOptions::retained());
    assert_eq!(via_options.to_chrome_json(), retained.to_chrome_json());
}
