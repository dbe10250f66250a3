//! Fleet-scale serving sweep: a hierarchical region/cluster/replica fleet
//! under flash-crowd and diurnal traffic, streamed in O(1) memory.
//!
//! The sweep self-calibrates against the backend's batched static-8b
//! capacity on the mix, builds a fleet (default 8 regions × 8 clusters ×
//! 16 replicas = 1024 replicas), and drives two open-loop runs:
//!
//! * `flash` — background at 0.7× fleet capacity with a flash crowd to
//!   2.0× that overwhelms the region queue caps and tenant quotas (the
//!   full request budget, default 10M);
//! * `diurnal` — a day/night raised-cosine cycle peaking at 1.1× capacity
//!   (one tenth of the budget).
//!
//! Both runs stream their metrics — no per-request records are retained
//! (the bin asserts the high-water mark is 0) and conservation (arrivals
//! == completions + drops) is checked after each drain. Output is a
//! byte-deterministic CSV (run summary + per-region + per-tenant rollups)
//! under the fixed seed; CI runs the sweep twice and byte-diffs.
//!
//! Flags: `--requests N` (flash-run budget), `--regions R --clusters C
//! --replicas K` (topology: R × C × K replicas), `--seed S`,
//! `--trace-out PATH` (Chrome trace of the flash run), `--trace-every K`
//! (trace sampling stride, default 1 in 10k requests when tracing).

use bpvec_dnn::{BitwidthPolicy, NetworkId};
use bpvec_obs::{MemorySink, TraceSink};
use bpvec_serve::{
    ArrivalProcess, BatchPolicy, FleetSpec, RegionSpec, RequestMix, Router, RunOptions,
    ServiceModel, ServingOutcome, ServingRun, TenantClass, Topology, TrafficSpec,
};
use bpvec_sim::{AcceleratorConfig, BatchRegime, DramSpec, Evaluator, Workload};

struct Args {
    requests: u64,
    regions: u32,
    clusters: u32,
    replicas: u32,
    seed: u64,
    trace_out: Option<String>,
    trace_every: Option<u64>,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        requests: 10_000_000,
        regions: 8,
        clusters: 8,
        replicas: 16,
        seed: 0xF1EE7,
        trace_out: None,
        trace_every: None,
    };
    let mut args = std::env::args().skip(1);
    let num = |args: &mut dyn Iterator<Item = String>, flag: &str| -> u64 {
        args.next()
            .and_then(|v| v.parse().ok())
            .filter(|&v| v >= 1)
            .unwrap_or_else(|| panic!("{flag} takes a positive integer"))
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--requests" => parsed.requests = num(&mut args, "--requests"),
            "--regions" => parsed.regions = num(&mut args, "--regions") as u32,
            "--clusters" => parsed.clusters = num(&mut args, "--clusters") as u32,
            "--replicas" => parsed.replicas = num(&mut args, "--replicas") as u32,
            "--seed" => {
                parsed.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed takes an integer");
            }
            "--trace-out" => {
                parsed.trace_out = Some(args.next().expect("--trace-out takes a file path"));
            }
            "--trace-every" => parsed.trace_every = Some(num(&mut args, "--trace-every")),
            other => panic!(
                "unknown argument `{other}` (expected --requests N, --regions R, --clusters C, \
                 --replicas K, --seed S, --trace-out PATH, or --trace-every K)"
            ),
        }
    }
    parsed
}

fn fleet(args: &Args, premium_sla_s: f64) -> FleetSpec {
    let mut spec = FleetSpec::new()
        .with_router(Router::JoinShortestQueue)
        .with_spill(true)
        .with_forward_delay(2e-4);
    let region_replicas = u64::from(args.clusters) * u64::from(args.replicas);
    for r in 0..args.regions {
        // Caps bound each region's in-system population at ~48 requests
        // per replica: deep enough to ride bursts, shallow enough that a
        // 2x flash crowd sheds load instead of queueing without bound.
        spec = spec.region(
            RegionSpec::new(format!("r{r}"), args.clusters, args.replicas)
                .with_queue_cap(48 * region_replicas),
        );
    }
    let last = args.regions as usize - 1;
    // Per-tenant quota sized to the fleet: the batch tier may hold at most
    // two requests per replica of its home region in flight.
    let batch_quota = (2 * region_replicas).max(4);
    spec.tenant(
        TenantClass::new("premium", 0.2)
            .home(0)
            .with_sla(premium_sla_s),
    )
    .tenant(TenantClass::new("standard", 0.5).home(last.min(1)))
    .tenant(
        TenantClass::new("batch", 0.3)
            .home(last)
            .with_quota(batch_quota),
    )
}

/// One run's deterministic CSV block: a summary row plus per-region and
/// per-tenant rollup rows.
fn csv_rows(label: &str, requests: u64, out: &ServingOutcome, rows: &mut String) {
    let s = &out.summary;
    rows.push_str(&format!(
        "run,{label},{requests},{},{},{},{},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.1},{},{}\n",
        out.admitted,
        out.dropped,
        out.completed,
        s.measured,
        s.mean_s * 1e3,
        s.p50_s * 1e3,
        s.p95_s * 1e3,
        s.p99_s * 1e3,
        s.max_s * 1e3,
        if s.measured > 0 {
            s.sla_hits as f64 / s.measured as f64
        } else {
            1.0
        },
        s.peak_window_rps,
        out.peak_in_system,
        out.events,
    ));
    for r in &s.regions {
        rows.push_str(&format!(
            "region,{label}/{},{},{},{},{},{},{:.4},{:.4},{:.1}\n",
            r.label,
            r.replicas,
            r.arrived,
            r.dropped,
            r.completed,
            r.measured,
            r.mean_s * 1e3,
            r.p99_s * 1e3,
            r.busy_s,
        ));
    }
    for t in &s.tenants {
        rows.push_str(&format!(
            "tenant,{label}/{},{},{},{},{},{:.4},{:.4},{:.4}\n",
            t.label,
            t.arrived,
            t.dropped,
            t.completed,
            t.measured,
            t.mean_s * 1e3,
            t.p99_s * 1e3,
            if t.measured > 0 {
                t.sla_hits as f64 / t.measured as f64
            } else {
                1.0
            },
        ));
    }
}

/// Hard invariants every fleet run must satisfy; a violation is a bug in
/// the engine, not a tuning problem, so the sweep aborts loudly.
fn check(label: &str, requests: u64, out: &ServingOutcome) {
    assert_eq!(
        out.admitted + out.dropped,
        requests,
        "{label}: arrivals lost"
    );
    assert_eq!(out.completed, out.admitted, "{label}: drain incomplete");
    assert_eq!(
        out.peak_records_retained, 0,
        "{label}: streaming run retained records"
    );
}

fn main() {
    let args = parse_args();
    let total_replicas =
        u64::from(args.regions) * u64::from(args.clusters) * u64::from(args.replicas);

    let accel = AcceleratorConfig::bpvec();
    let dram = DramSpec::ddr4();
    let cnn = Workload::new(NetworkId::AlexNet, BitwidthPolicy::Homogeneous8);
    let rnn = Workload::new(NetworkId::Lstm, BitwidthPolicy::Homogeneous8);
    let mix = RequestMix::new()
        .and(cnn.clone(), 0.8)
        .and(rnn.clone(), 0.2);

    // Mean batched (16) service time over the mix -> per-replica static-8b
    // capacity, scaled by the fleet size.
    let s16 = |w: &Workload| {
        let wb = w.clone().with_batching(BatchRegime::fixed(16));
        accel.evaluate(&wb, &wb.build(), &dram).latency_s
    };
    let mean_s16 = 0.8 * s16(&cnn) + 0.2 * s16(&rnn);
    let fleet_capacity_rps = total_replicas as f64 / mean_s16;
    let sla_s = 16.0 * mean_s16;
    let premium_sla_s = 8.0 * mean_s16;

    let spec = fleet(&args, premium_sla_s);
    assert_eq!(spec.total_replicas(), total_replicas);
    let policy = BatchPolicy::deadline(16, 4.0 * mean_s16);
    let options = RunOptions::default().with_sla(Some(sla_s));

    // Flash run: steady 0.7x capacity with a 2.0x flash crowd arriving a
    // quarter of the way in, ramping over ~2% of the nominal run length.
    let base_rps = 0.7 * fleet_capacity_rps;
    let nominal_s = args.requests as f64 / base_rps;
    let flash_traffic = TrafficSpec::new(
        "flash",
        ArrivalProcess::flash_crowd(
            base_rps,
            2.0 * fleet_capacity_rps,
            0.25 * nominal_s,
            0.02 * nominal_s,
            0.10 * nominal_s,
        ),
        mix.clone(),
        args.requests,
    );
    let flash = ServingRun {
        backend: &accel,
        memory: dram,
        policy,
        topology: Topology::Fleet(&spec),
        traffic: &flash_traffic,
        control: None,
        service: ServiceModel::Deterministic,
        seed: args.seed,
    };
    let flash_out = match &args.trace_out {
        Some(path) => {
            let stride = args
                .trace_every
                .unwrap_or_else(|| (args.requests / 10_000).max(1));
            let sink = MemorySink::new();
            let out = flash
                .try_run(
                    options.with_trace_every(stride),
                    Some(&sink as &dyn TraceSink),
                )
                .unwrap_or_else(|e| panic!("flash: {e}"));
            std::fs::write(path, sink.to_chrome_json()).expect("trace file is writable");
            out
        }
        None => flash
            .try_run(options, None)
            .unwrap_or_else(|e| panic!("flash: {e}")),
    };
    check("flash", args.requests, &flash_out);

    // Diurnal run: two day/night cycles peaking at 1.1x capacity, one
    // tenth of the request budget.
    let diurnal_requests = (args.requests / 10).max(1_000);
    let diurnal_mean = 0.5 * (0.5 + 1.1) * fleet_capacity_rps;
    let diurnal_traffic = TrafficSpec::new(
        "diurnal",
        ArrivalProcess::diurnal(
            0.5 * fleet_capacity_rps,
            1.1 * fleet_capacity_rps,
            0.5 * diurnal_requests as f64 / diurnal_mean,
        ),
        mix,
        diurnal_requests,
    );
    let diurnal_out = ServingRun {
        traffic: &diurnal_traffic,
        ..flash
    }
    .try_run(options, None)
    .unwrap_or_else(|e| panic!("diurnal: {e}"));
    check("diurnal", diurnal_requests, &diurnal_out);

    // Deterministic CSV: three sections, fixed-precision sim-derived
    // numbers only.
    let mut csv = String::from(
        "kind,label,requests,admitted,dropped,completed,measured,mean_ms,p50_ms,p95_ms,p99_ms,\
         max_ms,sla_attainment,peak_window_rps,peak_in_system,events\n",
    );
    csv_rows("flash", args.requests, &flash_out, &mut csv);
    csv_rows("diurnal", diurnal_requests, &diurnal_out, &mut csv);
    print!("{csv}");
}
