//! Streaming-metrics accuracy and fleet-conservation properties.
//!
//! * **sketch accuracy** — on runs small enough to retain every record,
//!   the streaming digest's p50/p95/p99 must land within 2% (relative) of
//!   the exact sorted percentiles, across Poisson and bursty arrivals and
//!   seeds; its mean, max, histogram, and SLA counts must match exactly
//!   (same completion stream, same accumulation order);
//! * **O(1) memory** — a streaming run retains zero records no matter the
//!   request count, while `completed`/`admitted` still balance;
//! * **fleet conservation** — with admission control shedding load,
//!   `arrivals == completions + drops` and the per-tenant / per-region
//!   rollups partition those totals exactly;
//! * **determinism** — identically-seeded fleet runs produce identical
//!   outcomes (the property the byte-diffed fleet CSV in CI leans on).

use bpvec_dnn::{BitwidthPolicy, Network, NetworkId};
use bpvec_serve::{
    ArrivalProcess, BatchPolicy, ClusterSpec, FleetSpec, RegionSpec, RequestMix, Router,
    RunOptions, ServiceModel, ServingMetrics, ServingRun, TenantClass, Topology, TrafficSpec,
};
use bpvec_sim::{DramSpec, Evaluator, Measurement, Workload as SimWorkload};
use proptest::prelude::*;

/// Constant per-inference latency backend (the event loop does the work).
struct ConstServer {
    per_inference_s: f64,
}

impl Evaluator for ConstServer {
    fn label(&self) -> String {
        "const".into()
    }

    fn evaluate(&self, workload: &SimWorkload, network: &Network, _dram: &DramSpec) -> Measurement {
        Measurement {
            latency_s: self.per_inference_s,
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
            SimWorkload::new(NetworkId::ResNet18, BitwidthPolicy::Homogeneous8),
            3.0,
        )
        .and(
            SimWorkload::new(NetworkId::Lstm, BitwidthPolicy::Homogeneous8),
            1.0,
        )
}

fn backend() -> ConstServer {
    ConstServer {
        per_inference_s: 1e-3,
    }
}

/// Exact nearest-rank quantile over a sorted slice.
fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The streaming digest tracks the exact percentiles within 2% on
    /// runs where both signals exist (records retained AND streamed).
    #[test]
    fn sketch_quantiles_within_two_percent_of_exact(
        rate in 200.0f64..3000.0,
        bursty in proptest::bool::ANY,
        requests in 2000u64..10_000,
        seed in 0u64..500,
    ) {
        let process = if bursty {
            ArrivalProcess::bursty(rate * 0.4, rate * 2.0, 0.02, 0.005)
        } else {
            ArrivalProcess::poisson(rate)
        };
        let traffic = TrafficSpec::new("prop", process, mix(), requests);
        let out = ServingRun {
            backend: &backend(),
            memory: DramSpec::ddr4(),
            policy: BatchPolicy::deadline(8, 0.002),
            topology: Topology::Cluster(ClusterSpec::new(2, Router::JoinShortestQueue)),
            traffic: &traffic,
            control: None,
            service: ServiceModel::Deterministic,
            seed,
        }
        .try_run(RunOptions::retained().with_sla(Some(0.02)), None)
        .unwrap();
        let mut exact: Vec<f64> = out.records.iter().map(|r| r.sojourn_s()).collect();
        exact.sort_by(f64::total_cmp);
        let s = &out.summary;
        prop_assert_eq!(s.measured, exact.len() as u64);
        for (q, est) in [(0.50, s.p50_s), (0.95, s.p95_s), (0.99, s.p99_s)] {
            let truth = exact_quantile(&exact, q);
            let rel = (est - truth).abs() / truth;
            prop_assert!(rel <= 0.02, "q={q}: sketch {est} vs exact {truth} (rel {rel:.4})");
        }
        // Mean, max, and SLA hits stream over the same completion order as
        // the records, so they are not estimates — they must match exactly.
        let sum: f64 = out.records.iter().map(|r| r.sojourn_s()).sum();
        prop_assert!((s.mean_s - sum / exact.len() as f64).abs() <= 1e-12 * s.mean_s.abs());
        prop_assert_eq!(s.max_s, *exact.last().unwrap());
        prop_assert_eq!(
            s.sla_hits,
            exact.iter().filter(|&&v| v <= 0.02).count() as u64
        );
    }
}

#[test]
fn streaming_runs_retain_no_records_at_any_scale() {
    for requests in [2_000u64, 20_000] {
        let traffic = TrafficSpec::new("stream", ArrivalProcess::poisson(2000.0), mix(), requests);
        let out = ServingRun {
            backend: &backend(),
            memory: DramSpec::ddr4(),
            policy: BatchPolicy::deadline(8, 0.002),
            topology: Topology::Cluster(ClusterSpec::new(4, Router::JoinShortestQueue)),
            traffic: &traffic,
            control: None,
            service: ServiceModel::Deterministic,
            seed: 7,
        }
        .try_run(RunOptions::default(), None)
        .unwrap();
        assert!(out.records.is_empty(), "streaming run kept records");
        assert_eq!(out.peak_records_retained, 0, "record high-water not O(1)");
        assert_eq!(out.completed, requests);
        assert_eq!(out.admitted, requests);
        assert_eq!(out.dropped, 0);
        assert!(
            out.peak_in_system < requests,
            "peak in-system should be bounded"
        );
        // The metrics pipeline summarizes a record-free outcome from the
        // streaming digest without panicking and with sane totals.
        let m = ServingMetrics::from_outcome(&out, 4);
        assert_eq!(m.completed, requests);
        assert_eq!(m.measured, out.summary.measured);
        assert!(m.latency.p99_s >= m.latency.p50_s);
        assert_eq!(m.histogram.total(), out.summary.measured);
    }
}

#[test]
fn streaming_and_retained_agree_on_the_same_run() {
    let traffic = TrafficSpec::new("agree", ArrivalProcess::poisson(1500.0), mix(), 5_000);
    let run = |options: RunOptions| {
        ServingRun {
            backend: &backend(),
            memory: DramSpec::ddr4(),
            policy: BatchPolicy::fixed(4),
            topology: Topology::Cluster(ClusterSpec::new(2, Router::RoundRobin)),
            traffic: &traffic,
            control: None,
            service: ServiceModel::ExponentialJitter,
            seed: 11,
        }
        .try_run(options, None)
        .unwrap()
    };
    let retained = run(RunOptions::retained().with_sla(Some(0.05)));
    let streamed = run(RunOptions::default().with_sla(Some(0.05)));
    // Identical seeds and RNG draw order: the simulated run is the same,
    // only the bookkeeping differs.
    assert_eq!(retained.summary, streamed.summary);
    assert_eq!(retained.makespan_s, streamed.makespan_s);
    assert_eq!(retained.events, streamed.events);
    assert_eq!(retained.records.len(), 5_000);
    assert_eq!(retained.peak_records_retained, 5_000);
    assert_eq!(streamed.peak_records_retained, 0);
    // The retained records are the exact oracle of the streamed run's
    // metrics: bitwise on everything that is not sketched (the stream sums
    // in the records' completion order), within 2% on the percentiles.
    let m = ServingMetrics::from_outcome(&streamed, 2);
    let sojourns: Vec<f64> = retained.records.iter().map(|r| r.sojourn_s()).collect();
    let n = sojourns.len() as f64;
    assert_eq!(m.completed, 5_000);
    assert_eq!(m.measured, 5_000);
    let sum = sojourns.iter().fold(0.0, |acc, s| acc + s);
    assert_eq!(m.latency.mean_s, sum / n);
    let within = sojourns.iter().filter(|&&s| s <= 0.05).count();
    assert!(within < sojourns.len(), "some request must miss the SLA");
    assert_eq!(m.sla_attainment, within as f64 / n);
    let mut sorted = sojourns;
    sorted.sort_by(f64::total_cmp);
    assert_eq!(m.latency.max_s, *sorted.last().unwrap());
    for (q, est) in [
        (0.50, m.latency.p50_s),
        (0.95, m.latency.p95_s),
        (0.99, m.latency.p99_s),
    ] {
        let exact = exact_quantile(&sorted, q);
        assert!(
            (est - exact).abs() / exact <= 0.02,
            "q={q}: {est} vs {exact}"
        );
    }
}

fn overload_fleet() -> FleetSpec {
    FleetSpec::new()
        .region(RegionSpec::new("east", 2, 2).with_queue_cap(32))
        .region(RegionSpec::new("west", 1, 2).with_queue_cap(16))
        .tenant(TenantClass::new("premium", 0.3).home(0).with_sla(0.02))
        .tenant(TenantClass::new("standard", 0.5).home(0))
        .tenant(TenantClass::new("batch", 0.2).home(1).with_quota(8))
        .with_router(Router::JoinShortestQueue)
}

#[test]
fn fleet_conserves_requests_under_forced_drops() {
    let requests = 20_000u64;
    // A flash crowd at 4x the fleet's capacity guarantees the region caps
    // and the batch tenant's quota both shed load.
    let traffic = TrafficSpec::new(
        "flash",
        ArrivalProcess::flash_crowd(1500.0, 24_000.0, 1.0, 0.5, 2.0),
        mix(),
        requests,
    );
    let fleet = overload_fleet();
    let out = ServingRun {
        backend: &backend(),
        memory: DramSpec::ddr4(),
        policy: BatchPolicy::deadline(8, 0.002),
        topology: Topology::Fleet(&fleet),
        traffic: &traffic,
        control: None,
        service: ServiceModel::Deterministic,
        seed: 3,
    }
    .try_run(RunOptions::default().with_sla(Some(0.02)), None)
    .unwrap();
    assert!(out.dropped > 0, "overload must shed load");
    // Conservation: every arrival either completed or was dropped, and
    // admitted counts exactly the non-dropped arrivals.
    assert_eq!(out.admitted + out.dropped, requests);
    assert_eq!(out.completed, out.admitted);
    assert_eq!(out.peak_records_retained, 0);
    // The tenant rollups partition the same totals.
    let tenants = &out.summary.tenants;
    assert_eq!(tenants.len(), 3);
    assert_eq!(tenants.iter().map(|t| t.arrived).sum::<u64>(), requests);
    assert_eq!(tenants.iter().map(|t| t.dropped).sum::<u64>(), out.dropped);
    assert_eq!(
        tenants.iter().map(|t| t.completed).sum::<u64>(),
        out.completed
    );
    // And so do the region rollups (arrived counts admissions).
    let regions = &out.summary.regions;
    assert_eq!(regions.len(), 2);
    assert_eq!(regions.iter().map(|r| r.arrived).sum::<u64>(), out.admitted);
    assert_eq!(regions.iter().map(|r| r.dropped).sum::<u64>(), out.dropped);
    assert_eq!(
        regions.iter().map(|r| r.completed).sum::<u64>(),
        out.completed
    );
    // Per-tenant SLA accounting stays within the measured counts.
    for t in tenants {
        assert!(
            t.sla_hits <= t.measured,
            "{}: {} > {}",
            t.label,
            t.sla_hits,
            t.measured
        );
        assert!(t.measured <= t.completed);
    }
}

#[test]
fn fleet_runs_are_deterministic() {
    let traffic = TrafficSpec::new(
        "diurnal",
        ArrivalProcess::diurnal(800.0, 2400.0, 4.0),
        mix(),
        10_000,
    );
    let fleet = overload_fleet().with_forward_delay(2e-4);
    let run = || {
        ServingRun {
            backend: &backend(),
            memory: DramSpec::ddr4(),
            policy: BatchPolicy::deadline(8, 0.002),
            topology: Topology::Fleet(&fleet),
            traffic: &traffic,
            control: None,
            service: ServiceModel::ExponentialJitter,
            seed: 42,
        }
        .try_run(RunOptions::default().with_sla(Some(0.02)), None)
        .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "identically-seeded fleet runs must be bit-identical");
    assert_eq!(a.admitted + a.dropped, 10_000);
    assert_eq!(a.completed, a.admitted);
}

#[test]
fn fleet_rejects_closed_loop_traffic() {
    let traffic = TrafficSpec::new("closed", ArrivalProcess::closed_loop(4, 0.001), mix(), 100);
    let fleet = overload_fleet();
    let err = ServingRun {
        backend: &backend(),
        memory: DramSpec::ddr4(),
        policy: BatchPolicy::immediate(),
        topology: Topology::Fleet(&fleet),
        traffic: &traffic,
        control: None,
        service: ServiceModel::Deterministic,
        seed: 0,
    }
    .try_run(RunOptions::default(), None)
    .unwrap_err();
    assert!(err.to_string().contains("closed-loop"), "{err}");
}
