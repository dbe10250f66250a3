//! `fleet-serve`: one job runs the serving sweep's `ServingScenario` grid
//! (3 batching policies × 5 cluster shapes × 4 traffic points over an
//! 80/20 AlexNet/LSTM mix), then one streaming `run_fleet` flash crowd on
//! 2 regions × 4 clusters × 16 replicas with premium, standard and batch
//! tenants, ramping from 0.7× to 2.0× fleet capacity.
//!
//! The check: the fleet run conserves requests (`admitted + dropped ==
//! requests`, `completed == admitted`), retains no records, its counts
//! equal the pinned ones at the default and the held-out seed, and the
//! scenario CSV and counts equal an untimed first job's. The seed drives
//! every arrival stream.

use bpvec_dnn::{BitwidthPolicy, NetworkId};
use bpvec_serve::{
    run_fleet, ArrivalProcess, BatchPolicy, ClusterSpec, FleetSpec, RegionSpec, RequestMix, Router,
    RunOptions, ServiceModel, ServingOutcome, ServingScenario, TenantClass, TrafficSpec,
};
use bpvec_sim::{AcceleratorConfig, BatchRegime, DramSpec, Evaluator, Workload};

use crate::measure::{self, mix};
use crate::spans::{Recorder, Tally};
use crate::{RunArgs, RunReport};

/// The flash crowd's request budget.
const FLEET_REQUESTS: u64 = 200_000;
/// Fleet topology: regions × clusters × replicas.
const REGIONS: u32 = 2;
const CLUSTERS: u32 = 4;
const REPLICAS: u32 = 16;

/// The fleet run's counts (`admitted, dropped, completed, events,
/// peak_in_system, peak_records_retained`) at the default seed and at a
/// held-out seed.
const PINNED_COUNTS: [(u64, [u64; 6]); 2] = [
    (1, [119_562, 80_438, 119_562, 329_345, 6_144, 0]),
    (7, [119_175, 80_825, 119_175, 329_051, 6_144, 0]),
];

/// The job's inputs: the calibrated scenario grid and fleet run.
struct Inputs {
    scenario: ServingScenario,
    accel: AcceleratorConfig,
    dram: DramSpec,
    policy: BatchPolicy,
    fleet: FleetSpec,
    traffic: TrafficSpec,
    options: RunOptions,
    fleet_seed: u64,
}

/// One set-up: calibrates service capacity on the mix and builds the
/// scenario grid and the fleet run, with every arrival stream seeded from
/// `seed`.
fn setup(seed: u64) -> Inputs {
    let accel = AcceleratorConfig::bpvec();
    let dram = DramSpec::ddr4();
    let cnn = Workload::new(NetworkId::AlexNet, BitwidthPolicy::Homogeneous8);
    let rnn = Workload::new(NetworkId::Lstm, BitwidthPolicy::Homogeneous8);
    let mix_80_20 = RequestMix::new()
        .and(cnn.clone(), 0.8)
        .and(rnn.clone(), 0.2);
    let service_s = |w: &Workload, batch: u64| {
        let wb = w.clone().with_batching(BatchRegime::fixed(batch));
        accel.evaluate(&wb, &wb.build(), &dram).latency_s
    };

    // The scenario grid, calibrated on batch-1 capacity.
    let mean_s1 = 0.8 * service_s(&cnn, 1) + 0.2 * service_s(&rnn, 1);
    let capacity_rps = 1.0 / mean_s1;
    let mut scenario = ServingScenario::new("serving_sweep")
        .platform(accel)
        .policy(BatchPolicy::immediate())
        .policy(BatchPolicy::fixed(8))
        .policy(BatchPolicy::deadline(16, 4.0 * mean_s1))
        .cluster(ClusterSpec::single())
        .cluster(ClusterSpec::new(2, Router::RoundRobin))
        .cluster(ClusterSpec::new(2, Router::JoinShortestQueue))
        .cluster(ClusterSpec::new(4, Router::JoinShortestQueue))
        .cluster(ClusterSpec::new(4, Router::NetworkAffinity))
        .sla_s(20.0 * mean_s1)
        .seed(mix(seed ^ 0x5e7e));
    for (tag, rho) in [("lo", 0.6), ("hi", 0.95), ("over", 1.5)] {
        let process = ArrivalProcess::poisson(rho * capacity_rps);
        scenario = scenario.traffic(
            TrafficSpec::new(format!("poisson-{tag}"), process, mix_80_20.clone(), 3_000)
                .with_warmup(300),
        );
    }
    let bursty = ArrivalProcess::bursty(0.5 * capacity_rps, 2.75 * capacity_rps, 0.8, 0.2);
    scenario = scenario
        .traffic(TrafficSpec::new("bursty-hi", bursty, mix_80_20.clone(), 3_000).with_warmup(300));

    // The fleet, calibrated on batch-16 capacity.
    let mean_s16 = 0.8 * service_s(&cnn, 16) + 0.2 * service_s(&rnn, 16);
    let region_replicas = u64::from(CLUSTERS * REPLICAS);
    let fleet_capacity_rps = f64::from(REGIONS * CLUSTERS * REPLICAS) / mean_s16;
    let mut fleet = FleetSpec::new()
        .with_router(Router::JoinShortestQueue)
        .with_spill(true)
        .with_forward_delay(2e-4);
    for r in 0..REGIONS {
        fleet = fleet.region(
            RegionSpec::new(format!("r{r}"), CLUSTERS, REPLICAS)
                .with_queue_cap(48 * region_replicas),
        );
    }
    let fleet = fleet
        .tenant(
            TenantClass::new("premium", 0.2)
                .home(0)
                .with_sla(8.0 * mean_s16),
        )
        .tenant(TenantClass::new("standard", 0.5).home(1))
        .tenant(
            TenantClass::new("batch", 0.3)
                .home(1)
                .with_quota(2 * region_replicas),
        );
    let base_rps = 0.7 * fleet_capacity_rps;
    let nominal_s = FLEET_REQUESTS as f64 / base_rps;
    let flash = ArrivalProcess::flash_crowd(
        base_rps,
        2.0 * fleet_capacity_rps,
        0.25 * nominal_s,
        0.02 * nominal_s,
        0.10 * nominal_s,
    );
    Inputs {
        scenario,
        accel,
        dram,
        policy: BatchPolicy::deadline(16, 4.0 * mean_s16),
        fleet,
        traffic: TrafficSpec::new("flash", flash, mix_80_20, FLEET_REQUESTS),
        options: RunOptions::default().with_sla(Some(16.0 * mean_s16)),
        fleet_seed: mix(seed ^ 0xf1ee7),
    }
}

/// What one job produced: the scenario CSV and the fleet run's counts.
#[derive(Debug, PartialEq)]
struct Output {
    csv: String,
    fleet: [u64; 6],
}

fn counts(o: &ServingOutcome) -> [u64; 6] {
    [
        o.admitted,
        o.dropped,
        o.completed,
        o.events,
        o.peak_in_system,
        o.peak_records_retained,
    ]
}

fn run_flash(inputs: &Inputs) -> ServingOutcome {
    run_fleet(
        &inputs.accel,
        &inputs.dram,
        inputs.policy,
        &inputs.fleet,
        &inputs.traffic,
        ServiceModel::Deterministic,
        inputs.fleet_seed,
        inputs.options,
    )
}

/// One job: the scenario grid, then the fleet flash crowd.
fn job(inputs: &Inputs) -> Result<Output, String> {
    let csv = inputs
        .scenario
        .try_run()
        .map_err(|e| e.to_string())?
        .to_csv();
    Ok(Output {
        csv,
        fleet: counts(&run_flash(inputs)),
    })
}

/// A job's check: fleet conservation and no retained records, then
/// equality with the expected output.
fn check(out: &Output, expected: &Output) -> Result<(), String> {
    let [admitted, dropped, completed, _, _, retained] = out.fleet;
    if admitted + dropped != FLEET_REQUESTS {
        Err(format!(
            "fleet lost arrivals: {admitted} + {dropped} != {FLEET_REQUESTS}"
        ))
    } else if completed != admitted {
        Err(format!("fleet drained {completed} of {admitted}"))
    } else if retained != 0 {
        Err(format!("streaming fleet run retained {retained} records"))
    } else if out != expected {
        Err(format!(
            "fleet counts {:?} or scenario CSV differ from expected {:?}",
            out.fleet, expected.fleet
        ))
    } else {
        Ok(())
    }
}

/// Runs the workload: set-ups, an untimed first job for the expected
/// scenario CSV (and counts, at a seed without pinned ones), then the
/// timed closed loop — or, traced, untimed and traced jobs in alternation.
pub fn run(args: &RunArgs) -> Result<RunReport, String> {
    let (setup_times, inputs) = measure::repeated_setup(|| setup(args.seed));
    let first = job(&inputs)?;
    let expected = Output {
        fleet: PINNED_COUNTS
            .iter()
            .find(|(seed, _)| *seed == args.seed)
            .map_or(first.fleet, |(_, counts)| *counts),
        ..first
    };
    if !args.trace {
        let lr = measure::closed_loop(args.seconds, || job(&inputs), |o| check(o, &expected));
        let peak_rss_mb = measure::peak_rss_mb()?;
        drop(inputs);
        let setup_s = measure::setup_s(setup_times, || setup(args.seed));
        return Ok(RunReport::timed(lr, setup_s, peak_rss_mb));
    }
    let setup_s = measure::median(&setup_times);
    let mut rec = Recorder::default();
    let (untraced, traced, jobs) = measure::alternate(
        args.seconds,
        |lr| {
            lr.run_job(|| job(&inputs), |o| check(o, &expected));
        },
        || traced_job(&mut rec, &inputs, &expected),
    );
    let mut report = RunReport::traced(setup_s, untraced, traced, jobs)?;
    report.artifacts = vec![("spans.json", rec.chrome_json())];
    Ok(report)
}

/// One traced job: the scenario run and the fleet run as spans under a
/// job span. Returns the job span's milliseconds and the job's tally.
fn traced_job(
    rec: &mut Recorder,
    inputs: &Inputs,
    expected: &Output,
) -> Result<(f64, Tally), String> {
    // The job span covers exactly what `job` does, so traced and untraced
    // times compare.
    let job_span = rec.start("job", None);
    let (report, scenario) = rec.time("serve.scenario", Some(job_span), || {
        inputs.scenario.try_run()
    });
    let csv = report.map(|r| r.to_csv());
    let (fleet, fleet_span) =
        rec.time("serve.fleet", Some(job_span), || counts(&run_flash(inputs)));
    rec.end(job_span);
    check(
        &Output {
            csv: csv.map_err(|e| e.to_string())?,
            fleet,
        },
        expected,
    )?;
    let [_, dropped, _, events, peak_in_system, retained] = fleet;
    let fleet_s = rec.ms(fleet_span) / 1e3;
    let mut tally = Tally::default();
    tally.set("serve.scenario_ms", rec.ms(scenario));
    tally.set("serve.fleet_ms", rec.ms(fleet_span));
    tally.set("serve.events", events as f64);
    tally.set("serve.events_per_s", events as f64 / fleet_s);
    tally.set("serve.req_per_s", FLEET_REQUESTS as f64 / fleet_s);
    tally.set("serve.dropped_frac", dropped as f64 / FLEET_REQUESTS as f64);
    tally.set("serve.peak_in_system", peak_in_system as f64);
    tally.set("serve.records_retained", retained as f64);
    Ok((rec.ms(job_span), tally))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broken_conservation_or_a_corrupted_expected_value_fails_the_job() {
        let good = Output {
            csv: "cells\n".into(),
            fleet: [FLEET_REQUESTS - 10, 10, FLEET_REQUESTS - 10, 99, 5, 0],
        };
        let same = || Output {
            csv: good.csv.clone(),
            fleet: good.fleet,
        };
        assert_eq!(check(&same(), &good), Ok(()));
        let mut lost = same();
        lost.fleet[1] = 9;
        let mut undrained = same();
        undrained.fleet[2] -= 1;
        let mut retained = same();
        retained.fleet[5] = 1;
        let mut drifted = same();
        drifted.fleet[3] += 1;
        for bad in [lost, undrained, retained, drifted] {
            assert!(check(&bad, &good).is_err(), "{bad:?}");
        }
        let corrupted = Output {
            csv: "other\n".into(),
            fleet: good.fleet,
        };
        let r = measure::closed_loop(0.0, || Ok(same()), |o| check(o, &corrupted));
        assert_eq!(r.failed, r.attempted());
    }
}
