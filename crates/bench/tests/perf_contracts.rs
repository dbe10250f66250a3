//! Same-run performance contracts: each test times a fast path against
//! the path it must beat, in one process on the same inputs, and asserts
//! on the ratio. A ratio holds on any host; an absolute time would need a
//! baseline recorded on the same machine.
//!
//! [`median_ratio`] does every measurement. It runs the two arms in pairs,
//! alternates which arm goes first so that a drift in host speed falls on
//! both, and returns the median of the per-pair ratios.
//!
//! The contracts time optimized code, so a debug build skips them. Run
//! them one at a time, so that no two contracts share the CPU:
//!
//! ```text
//! cargo test --release -p bpvec-bench --test perf_contracts -- --test-threads=1
//! ```

use std::hint::black_box;
use std::time::Instant;

use bpvec_core::kernels::{detected_tier, KernelTier};
use bpvec_core::{BitWidth, Signedness};
use bpvec_dnn::{BitwidthPolicy, Network, NetworkId, PrecisionPolicy, Tensor};
use bpvec_isa::{diff_network, MachineConfig, NetworkDiff};
use bpvec_obs::{NullSink, TraceSink};
use bpvec_serve::{
    AdaptiveSpec, ArrivalProcess, BatchPolicy, ClusterSpec, ControllerConfig, RequestMix, Router,
    RunOptions, ServiceModel, ServingOutcome, ServingRun, Topology, TrafficSpec,
};
use bpvec_sim::systolic::{ArrayConfig, SystolicArray};
use bpvec_sim::{
    simulate, AcceleratorConfig, BatchRegime, CostModel, DramSpec, Evaluator, Measurement,
    SimConfig, Workload,
};

/// The materialized differential harness the one-pass one must beat.
#[path = "../../isa/tests/oracle/mod.rs"]
mod oracle;

/// Times `a` against `b` in `pairs` pairs, `a` first in even pairs and
/// `b` first in odd ones, and returns the median of the per-pair ratios
/// `time(a) / time(b)` (the upper median for an even count).
fn median_ratio<A, B>(pairs: usize, mut a: impl FnMut() -> A, mut b: impl FnMut() -> B) -> f64 {
    fn time<T>(f: &mut impl FnMut() -> T) -> f64 {
        let start = Instant::now();
        black_box(f());
        start.elapsed().as_secs_f64()
    }
    let mut ratios: Vec<f64> = (0..pairs)
        .map(|i| {
            if i % 2 == 0 {
                let ta = time(&mut a);
                ta / time(&mut b)
            } else {
                let tb = time(&mut b);
                time(&mut a) / tb
            }
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let ratio = ratios[pairs / 2];
    println!("median of {pairs} pair ratios: {ratio:.3}");
    ratio
}

// ---------------------------------------------------------------------
// The serving event loop: a disabled trace sink costs nothing.

/// Fixed one-millisecond backend, so the event loop is all that is timed.
struct FixedServer;

const FULL_S: f64 = 1e-3;

impl Evaluator for FixedServer {
    fn label(&self) -> String {
        "fixed".into()
    }

    fn evaluate(&self, workload: &Workload, network: &Network, _dram: &DramSpec) -> Measurement {
        Measurement {
            latency_s: FULL_S,
            energy_j: 1e-3,
            macs: network.total_macs(),
            batch: workload.batch(),
            gops_per_watt: 1.0,
        }
    }
}

/// Pairs for the 3% bound, about 1.5 s. Over 30 runs each on a 2-vCPU
/// VM, the median of 15 pairs read 0.929–1.048 and that of 45 pairs
/// 0.992–1.017.
const OBS_PAIRS: usize = 45;

/// 50k requests at 0.8x the batch-1 capacity of two replicas, dispatched
/// at batch 1: the most events per request, so the worst case for a
/// per-event cost.
fn serve_fixed(traced: bool) -> u64 {
    let traffic = TrafficSpec::new(
        "obs",
        ArrivalProcess::poisson(0.8 / FULL_S),
        RequestMix::single(Workload::new(NetworkId::Rnn, BitwidthPolicy::Homogeneous8)),
        50_000,
    );
    let run = ServingRun {
        backend: &FixedServer,
        memory: DramSpec::ddr4(),
        policy: BatchPolicy::immediate(),
        topology: Topology::Cluster(ClusterSpec::new(2, Router::JoinShortestQueue)),
        traffic: &traffic,
        control: None,
        service: ServiceModel::Deterministic,
        seed: 17,
    };
    let sink = traced.then_some(&NullSink as &dyn TraceSink);
    run.try_run(RunOptions::retained(), sink).unwrap().events
}

/// A disabled sink is normalized to no sink at the loop's entry, so the
/// traced loop must run as fast as the untraced one.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "same-run timing contract: run with --release"
)]
fn disabled_trace_sink_costs_under_3_percent() {
    let ratio = median_ratio(OBS_PAIRS, || serve_fixed(true), || serve_fixed(false));
    assert!(
        ratio < 1.03,
        "a disabled trace sink costs {ratio:.3}x the uninstrumented loop (must stay < 1.03x)"
    );
}

/// The helper must see a real slowdown: an arm that runs the trace-sink
/// fixture twice reads as about 2x one that runs it once.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "same-run timing contract: run with --release"
)]
fn median_ratio_sees_a_doubled_arm() {
    let ratio = median_ratio(
        OBS_PAIRS,
        || (serve_fixed(false), serve_fixed(false)),
        || serve_fixed(false),
    );
    assert!(ratio > 1.5, "twice the work read as {ratio:.3}x");
}

// ---------------------------------------------------------------------
// Adaptive precision control on top of the same event loop.

/// Per-inference latency proportional to the policy's narrowest weight
/// width: a composable backend in miniature.
struct RungServer;

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

/// 5k requests at 1.5x the full-precision capacity over two replicas, so
/// the controller has real work; `adaptive` adds an int8 → int4 → int2
/// ladder under a least-degraded router.
fn serve_rungs(adaptive: bool) -> ServingOutcome {
    let traffic = TrafficSpec::new(
        "adaptive",
        ArrivalProcess::poisson(1.5 / FULL_S),
        RequestMix::single(Workload::new(NetworkId::Rnn, BitwidthPolicy::Homogeneous8)),
        5_000,
    );
    let static_run = ServingRun {
        backend: &RungServer,
        memory: DramSpec::ddr4(),
        policy: BatchPolicy::deadline(8, 2.0 * FULL_S),
        topology: Topology::Cluster(ClusterSpec::new(2, Router::JoinShortestQueue)),
        traffic: &traffic,
        control: None,
        service: ServiceModel::Deterministic,
        seed: 17,
    };
    if !adaptive {
        return static_run.try_run(RunOptions::retained(), None).unwrap();
    }
    let ladder = PrecisionPolicy::degradation_ladder(
        ["hom8", "int4", "int2"].map(|s| s.parse::<PrecisionPolicy>().expect("parses")),
    )
    .expect("narrows monotonically");
    let spec = AdaptiveSpec::new(ladder)
        .with_controller(ControllerConfig::new(4.0 * FULL_S).with_depths(2, 12));
    ServingRun {
        topology: Topology::Cluster(ClusterSpec::new(2, Router::LeastDegraded)),
        control: Some(&spec),
        ..static_run
    }
    .try_run(RunOptions::retained(), None)
    .unwrap()
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "same-run timing contract: run with --release"
)]
fn adaptive_control_costs_under_3x_the_static_loop() {
    let ratio = median_ratio(9, || serve_rungs(true), || serve_rungs(false));
    assert!(
        ratio < 3.0,
        "the adaptive control plane costs {ratio:.2}x the static event loop (must stay < 3x)"
    );
}

// ---------------------------------------------------------------------
// The shared, memoized cost model.

/// Table I under the homogeneous, heterogeneous and uniform-INT4 policies
/// at five batch sizes on three platforms: 270 cells.
fn sweep(networks: &[Network], cost: Option<&CostModel>) -> f64 {
    let platforms = [
        AcceleratorConfig::tpu_like(),
        AcceleratorConfig::bitfusion(),
        AcceleratorConfig::bpvec(),
    ];
    let mut latency_s = 0.0;
    for accel in platforms {
        for net in networks {
            for batch in [1, 4, 8, 16, 32] {
                let mut cfg = SimConfig::new(accel, DramSpec::ddr4());
                cfg.batching = BatchRegime::fixed(batch);
                latency_s += match cost {
                    Some(model) => model.simulate(net, &cfg),
                    None => simulate(net, &cfg),
                }
                .latency_s;
            }
        }
    }
    latency_s
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "same-run timing contract: run with --release"
)]
fn shared_cost_model_sweeps_at_least_2x_faster_than_uncached() {
    let policies = [
        PrecisionPolicy::from(BitwidthPolicy::Homogeneous8),
        PrecisionPolicy::from(BitwidthPolicy::Heterogeneous),
        PrecisionPolicy::uniform(BitWidth::INT4),
    ];
    let networks: Vec<Network> = policies
        .into_iter()
        .flat_map(Workload::table1)
        .map(|w| w.build())
        .collect();
    // A fresh model per run: the speedup one scenario run gets, not that
    // of a warm cache.
    let ratio = median_ratio(
        5,
        || sweep(&networks, None),
        || sweep(&networks, Some(&CostModel::new())),
    );
    assert!(
        ratio >= 2.0,
        "the shared CostModel must sweep at least 2x faster than uncached, got {ratio:.2}x"
    );
}

// ---------------------------------------------------------------------
// Packed bit-plane GEMMs on one AlexNet conv1 tile: all 64 output
// channels, im2col depth 3·11·11 = 363, a strip of 64 output positions.

const M: usize = 64;
const K: usize = 363;
const N: usize = 64;

/// A deterministic `[m, n]` INT8 matrix (splitmix64 over the index).
fn int8_matrix(m: usize, n: usize, seed: u64) -> Tensor {
    let mut i = seed << 32;
    Tensor::from_fn(&[m, n], |_| {
        i += 1;
        let mut z = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        i32::from((z ^ (z >> 31)) as i8)
    })
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "same-run timing contract: run with --release"
)]
fn packed_gemm_is_at_least_20x_the_per_element_path() {
    let arr = SystolicArray::new(ArrayConfig::paper_default());
    let (a, b) = (int8_matrix(M, K, 3), int8_matrix(K, N, 4));
    let (int8, signed) = (BitWidth::INT8, Signedness::Signed);
    let sw = arr.config().cvu.slice_width;
    // Packing is part of the packed path's cost.
    let ratio = median_ratio(
        3,
        || {
            arr.gemm(&a, &b, int8, int8, signed)
                .expect("per-element gemm")
        },
        || {
            let pa = a.pack_rows(int8, sw, signed).expect("packs");
            let pb = b.pack_cols(int8, sw, signed).expect("packs");
            arr.gemm_packed(&pa, &pb).expect("packed gemm")
        },
    );
    assert!(
        ratio >= 20.0,
        "the packed path must be at least 20x the per-element path, got {ratio:.1}x"
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "same-run timing contract: run with --release"
)]
fn avx512_kernel_is_at_least_4x_scalar_where_detected() {
    if detected_tier() != KernelTier::Avx512 {
        println!("no avx512 kernel on this host: nothing to time");
        return;
    }
    let sw = ArrayConfig::paper_default().cvu.slice_width;
    let (int8, signed) = (BitWidth::INT8, Signedness::Signed);
    let pa = int8_matrix(M, K, 3)
        .pack_rows(int8, sw, signed)
        .expect("packs");
    let pb = int8_matrix(K, N, 4)
        .pack_cols(int8, sw, signed)
        .expect("packs");
    let block = |t: KernelTier| {
        let mut out = vec![0i64; M * N];
        pa.dot_block_into(t, 0..M, &pb, &mut out);
        out
    };
    let ratio = median_ratio(
        15,
        || block(KernelTier::Scalar),
        || block(KernelTier::Avx512),
    );
    assert!(
        ratio >= 4.0,
        "the avx512 kernel must be at least 4x the scalar kernel, got {ratio:.1}x"
    );
}

// ---------------------------------------------------------------------
// The differential harness: one pass per layer.

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "same-run timing contract: run with --release"
)]
fn one_pass_diff_is_at_least_1_3x_the_materialized_harness() {
    // The 16 cells of the `differential` grid.
    let batches = BatchRegime::paper_default();
    let cells: Vec<(Network, u64)> = [
        NetworkId::AlexNet,
        NetworkId::InceptionV1,
        NetworkId::ResNet18,
        NetworkId::ResNet50,
        NetworkId::Rnn,
        NetworkId::Lstm,
        NetworkId::VitBase,
        NetworkId::BertBase,
    ]
    .into_iter()
    .flat_map(|id| {
        [BitwidthPolicy::Homogeneous8, BitwidthPolicy::Heterogeneous]
            .map(|p| (Network::build(id, p), batches.batch_for(id)))
    })
    .collect();
    let cfg = MachineConfig::bpvec_ddr4();
    let ratio = median_ratio(
        9,
        || {
            cells
                .iter()
                .map(|(net, b)| oracle::materialized_diff(net, cfg, cfg, *b))
                .collect::<Vec<NetworkDiff>>()
        },
        || {
            cells
                .iter()
                .map(|(net, b)| diff_network(net, cfg, *b))
                .collect::<Vec<NetworkDiff>>()
        },
    );
    assert!(
        ratio >= 1.3,
        "the one-pass diff must run at least 1.3x the materialized harness, got {ratio:.2}x"
    );
}
