//! Adaptive precision serving: surviving a 2× step overload by degrading
//! precision instead of dropping requests.
//!
//! Run with `cargo run --release --example adaptive_serving`.
//!
//! The paper's bit-flexible hardware can trade precision for throughput on
//! demand — AlexNet on BPVeC serves ~3.4× more requests per second at
//! uniform 4-bit and ~10× at uniform 2-bit than at 8-bit. This example
//! puts that knob in a feedback loop: a step-overload trace (steady 0.6×
//! capacity, then a burst at 2× the static-8b capacity, then steady again)
//! is served once with a pinned 8-bit policy and once under the adaptive
//! controller walking an 8b → 4b → 2b degradation ladder.
//!
//! Two assertions gate CI:
//!
//! * **goodput** — the adaptive ladder's SLA goodput is at least 2× the
//!   static-8b baseline under the overload trace;
//! * **fidelity** — before the overload hits, at least 80% of requests are
//!   served at full precision (the controller does not degrade a healthy
//!   system).
//! * **observability** — replaying the overload on a 1→3 autoscaled cluster
//!   under a trace sink yields a well-formed Chrome trace that reaches all
//!   three replicas and records rung-switch and scale instants. Pass
//!   `--trace-out <path>` to write the trace JSON and load it at
//!   <https://ui.perfetto.dev>.

use bpvec::dnn::{BitwidthPolicy, NetworkId, PrecisionPolicy};
use bpvec::obs::{validate_spans, MemorySink, Phase, TraceSink};
use bpvec::serve::{
    AdaptiveSpec, ArrivalProcess, AutoscalerConfig, BatchPolicy, ClusterSpec, ControllerConfig,
    RequestMix, RunOptions, ServiceModel, ServingRun, ServingScenario, Topology, TrafficSpec,
};
use bpvec::sim::{AcceleratorConfig, BatchRegime, DramSpec, Evaluator, Workload};

fn main() {
    let mut trace_out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--trace-out" => {
                trace_out = Some(args.next().expect("--trace-out takes a file path"));
            }
            other => panic!("unknown argument `{other}` (expected --trace-out PATH)"),
        }
    }

    let accel = AcceleratorConfig::bpvec();
    let dram = DramSpec::ddr4();
    let w = Workload::new(NetworkId::AlexNet, BitwidthPolicy::Homogeneous8);

    // Static-8b service capacity at the scheduler's batch cap — the
    // baseline the overload is sized against.
    let batched = |policy: &str, b: u64| {
        let p: PrecisionPolicy = policy.parse().expect("parses");
        let wp = w
            .clone()
            .with_policy(p)
            .with_batching(BatchRegime::fixed(b));
        let netp = wp.build();
        accel.evaluate(&wp, &netp, &dram).latency_s
    };
    let cap0 = 1.0 / batched("hom8", 16);
    println!("AlexNet on BPVeC — batched (16) capacity by precision:");
    for p in ["hom8", "int4", "int2"] {
        println!("  {p:>5}: {:>6.0} rps", 1.0 / batched(p, 16));
    }

    // The step-overload trace: 0.6× capacity, a burst at 2.0× capacity,
    // then 0.6× again so the controller can recover.
    let (n_pre, n_over, n_post) = (1_500usize, 3_000, 1_500);
    let lo_gap = 1.0 / (0.6 * cap0);
    let hi_gap = 1.0 / (2.0 * cap0);
    let t_step = n_pre as f64 * lo_gap;
    let gaps: Vec<f64> = std::iter::repeat_n(lo_gap, n_pre)
        .chain(std::iter::repeat_n(hi_gap, n_over))
        .chain(std::iter::repeat_n(lo_gap, n_post))
        .collect();
    let traffic = TrafficSpec::new(
        "step-2x",
        ArrivalProcess::trace(gaps),
        RequestMix::single(w.clone()),
        (n_pre + n_over + n_post) as u64,
    );

    let sla_s = 0.025;
    let ladder = PrecisionPolicy::degradation_ladder(
        ["hom8", "int4", "int2"].map(|s| s.parse::<PrecisionPolicy>().expect("parses")),
    )
    .expect("the ladder narrows monotonically");
    let spec = AdaptiveSpec::new(ladder).with_controller(
        ControllerConfig::new(0.020)
            .with_depths(4, 24)
            .with_target_p99(sla_s),
    );

    let policy = BatchPolicy::deadline(16, 0.008);
    let cluster = ClusterSpec::single();
    let seed = 0xADA7;
    let report = ServingScenario::new("adaptive_serving")
        .platform(accel)
        .policy(policy)
        .cluster(cluster)
        .traffic(traffic.clone())
        .static_control()
        .control(spec.clone())
        .sla_s(sla_s)
        .seed(seed)
        .run();

    println!(
        "\n{:<42} {:>9} {:>9} {:>8} {:>8} {:>8}",
        "control", "thr rps", "goodput", "p99 ms", "SLA %", "full %"
    );
    for cell in &report.cells {
        let m = &cell.metrics;
        println!(
            "{:<42} {:>9.1} {:>9.1} {:>8.1} {:>8.1} {:>8.1}",
            cell.control,
            m.throughput_rps,
            m.goodput_rps,
            m.latency.p99_s * 1e3,
            m.sla_attainment * 100.0,
            m.full_precision_share * 100.0,
        );
    }

    let goodput = |control_prefix: &str| {
        report
            .cells
            .iter()
            .find(|c| c.control.starts_with(control_prefix))
            .expect("cell exists")
            .metrics
            .goodput_rps
    };
    let (stat, adap) = (goodput("static"), goodput("adaptive"));

    // Pre-overload fidelity needs raw records, which report cells don't
    // carry — replay the adaptive cell as one run. The goodput
    // cross-check below fails if this replay ever drifts from the scenario
    // cell's configuration.
    let replay = ServingRun {
        backend: &accel,
        memory: dram,
        policy,
        topology: Topology::Cluster(cluster),
        traffic: &traffic,
        control: Some(&spec),
        service: ServiceModel::Deterministic,
        // The scenario seeds arrivals per traffic entry; traffic index 0
        // under the scenario seed reproduces identical arrivals.
        seed: ServingScenario::mix_seed_for(seed, 0),
    };
    let outcome = replay
        .try_run(RunOptions::retained().with_sla(Some(sla_s)), None)
        .expect("the adaptive cell's configuration is valid");
    let raw = bpvec::serve::ServingMetrics::from_outcome(&outcome, cluster.replicas);
    assert!(
        (raw.goodput_rps - adap).abs() <= 1e-9 * adap.max(1.0),
        "raw replay ({:.3} rps) must reproduce the scenario's adaptive cell ({adap:.3} rps)",
        raw.goodput_rps
    );
    let pre: Vec<_> = outcome
        .records
        .iter()
        .filter(|r| r.arrival_s < t_step)
        .collect();
    let pre_full = pre.iter().filter(|r| r.rung == 0).count();
    let pre_share = pre_full as f64 / pre.len() as f64;
    println!(
        "\n2x step overload: static-8b goodput = {stat:.1} rps, adaptive = {adap:.1} rps \
         ({:.1}x); pre-overload full-precision share = {:.1}% \
         ({} switches, {:.0}% of time degraded)",
        adap / stat,
        pre_share * 100.0,
        outcome.policy_switches.len(),
        (1.0 - outcome.rung_time_s[0] / outcome.active_integral_s) * 100.0,
    );
    assert!(
        adap >= 2.0 * stat,
        "adaptive goodput {adap:.1} must be at least 2x static-8b {stat:.1}"
    );
    assert!(
        pre_share >= 0.80,
        "pre-overload full-precision share {pre_share:.3} must stay >= 0.80"
    );

    // Replay a harsher overload on a 1→3 autoscaled cluster under a trace
    // sink. The burst runs at 4× the single-replica static-8b capacity, so
    // even a fully recruited 3-replica cluster cannot hold it at 8-bit:
    // the autoscaler and the precision ladder must both engage, and the
    // trace must carry the full request lifecycle plus both kinds of
    // control-plane instants.
    let gaps4: Vec<f64> = std::iter::repeat_n(lo_gap, n_pre)
        .chain(std::iter::repeat_n(1.0 / (4.0 * cap0), n_over))
        .chain(std::iter::repeat_n(lo_gap, n_post))
        .collect();
    let traffic4 = TrafficSpec::new(
        "step-4x",
        ArrivalProcess::trace(gaps4),
        RequestMix::single(w.clone()),
        (n_pre + n_over + n_post) as u64,
    );
    let autoscaled = spec.clone().with_autoscaler(AutoscalerConfig::new(1, 3));
    let sink = MemorySink::new();
    let outcome3 = ServingRun {
        traffic: &traffic4,
        control: Some(&autoscaled),
        ..replay
    }
    .try_run(RunOptions::retained(), Some(&sink as &dyn TraceSink))
    .expect("the autoscaled replay is valid");
    let mut active = 1i64;
    let mut peak = active;
    for e in &outcome3.scale_events {
        active += if e.up { 1 } else { -1 };
        peak = peak.max(active);
    }
    let events = sink.take();
    validate_spans(&events).expect("every exec span opens and closes in order");
    let named = |name: &str| events.iter().filter(|e| e.name == name).count();
    println!(
        "\nautoscaled replay (1..=3 replicas): peak {peak} active, {} scale events, \
         {} rung switches; trace = {} events ({} exec spans, {} queue-depth samples)",
        outcome3.scale_events.len(),
        outcome3.policy_switches.len(),
        events.len(),
        events.iter().filter(|e| e.ph == Phase::Begin).count(),
        named("queue_depth"),
    );
    assert!(
        peak == 3,
        "the 2x burst must recruit all 3 replicas (peak {peak})"
    );
    for name in [
        "arrive",
        "exec",
        "queue",
        "complete",
        "queue_depth",
        "rung_switch",
        "scale_up",
    ] {
        assert!(named(name) > 0, "trace must contain `{name}` events");
    }
    if let Some(path) = &trace_out {
        std::fs::write(path, bpvec::obs::to_chrome_json(&events)).expect("trace file is writable");
        println!("wrote Chrome trace to {path}");
    }
    println!("OK: adaptive ladder doubles SLA goodput and holds full precision until the burst");
}
