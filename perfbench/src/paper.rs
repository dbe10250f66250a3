//! `paper-eval`: one job regenerates the paper evaluation — the Figure 5–8
//! grids and both Figure 9 panels through the `Scenario` API — and runs the
//! three-way differential harness (`diff_network`) over 8 networks × 2
//! bitwidth policies at the paper's batch sizes. No packed-kernel work.
//!
//! The check: every differential cell is clean, and the figure and
//! differential CSVs and the two paper errors equal the pinned values
//! below. The inputs are the paper's fixed grid, so the seed changes
//! nothing here and the expected output is one fixed value.

use bpvec_bench::{figure9_report, paper_fig9};
use bpvec_dnn::{BitwidthPolicy, Network, NetworkId};
use bpvec_isa::{diff_network, try_lower_layer, Machine, MachineConfig, NetworkDiff};
use bpvec_sim::experiments::{heterogeneous_grid, homogeneous_grid, paper};
use bpvec_sim::{layer_cost, BatchRegime, Report};

use crate::measure::{self, fnv1a};
use crate::spans::{Recorder, SpanId, Tally};
use crate::{RunArgs, RunReport};

/// What every job must produce: the FNV-1a digest of its CSV and the
/// paper errors, % (to four decimals).
#[derive(Debug, Clone, Copy)]
struct Expected {
    csv_digest: u64,
    speedup_err_pct: f64,
    energy_err_pct: f64,
}

/// The pinned output of this tree's cost model, scenario engine and ISA.
const PINNED: Expected = Expected {
    csv_digest: 0x01a7_240c_ee25_9649,
    speedup_err_pct: 6.3994,
    energy_err_pct: 144.2167,
};

/// The differential grid: every network the `differential` binary covers.
const GRID: [NetworkId; 8] = [
    NetworkId::AlexNet,
    NetworkId::InceptionV1,
    NetworkId::ResNet18,
    NetworkId::ResNet50,
    NetworkId::Rnn,
    NetworkId::Lstm,
    NetworkId::VitBase,
    NetworkId::BertBase,
];

/// The job's inputs: the 16 differential cells with their batch sizes.
struct Inputs {
    cells: Vec<(Network, u64)>,
}

/// One set-up: builds the differential cells' networks.
fn setup() -> Inputs {
    let batches = BatchRegime::paper_default();
    let cells = GRID
        .iter()
        .flat_map(|&id| {
            [BitwidthPolicy::Homogeneous8, BitwidthPolicy::Heterogeneous]
                .map(|p| (Network::build(id, p), batches.batch_for(id)))
        })
        .collect();
    Inputs { cells }
}

/// What one job produced.
struct Output {
    /// The four figure reports' CSVs and the differential rows, joined.
    csv: String,
    mismatches: usize,
    speedup_err_pct: f64,
    energy_err_pct: f64,
    cost_hits: u64,
    cost_lookups: u64,
}

/// The four scenario reports, in the order the job runs them.
fn figures(mut time: impl FnMut(&mut dyn FnMut() -> Report) -> Report) -> [Report; 4] {
    [
        time(&mut homogeneous_grid),
        time(&mut heterogeneous_grid),
        time(&mut || figure9_report(false)),
        time(&mut || figure9_report(true)),
    ]
}

/// Builds the job's output from the figure reports and differential cells.
fn output(reports: &[Report; 4], diffs: &[NetworkDiff]) -> Output {
    let [hom, het, f9a, f9b] = reports;
    let mut csv = bpvec_bench::concat_report_csv(reports);
    let mut mismatches = 0;
    for d in diffs {
        csv.push_str(&format!(
            "{},{},{},{:.3},{:.3},{:.3},{}\n",
            d.network,
            d.batch,
            d.layers.len(),
            d.model_latency_s * 1e6,
            d.machine_latency_s * 1e6,
            d.machine_pipelined_s * 1e6,
            d.mismatch_count()
        ));
        mismatches += d.mismatch_count();
    }
    // Figures 5–8: each comparison against the paper's (speedup, energy)
    // geomeans.
    let figs = [
        (hom.comparison("BPVeC", "DDR4"), paper::FIG5_GEOMEAN),
        (
            hom.comparison("TPU-like", "HBM2"),
            paper::FIG6_BASELINE_GEOMEAN,
        ),
        (hom.comparison("BPVeC", "HBM2"), paper::FIG6_BPVEC_GEOMEAN),
        (het.comparison("BPVeC", "DDR4"), paper::FIG7_GEOMEAN),
        (
            het.comparison("BitFusion", "HBM2"),
            paper::FIG8_BITFUSION_GEOMEAN,
        ),
        (het.comparison("BPVeC", "HBM2"), paper::FIG8_BPVEC_GEOMEAN),
    ];
    let err = |measured: f64, paper: f64| (measured / paper - 1.0).abs();
    let speedup: Vec<f64> = figs
        .iter()
        .map(|(c, p)| err(c.geomean_speedup, p.0))
        .collect();
    let mut energy: Vec<f64> = figs
        .iter()
        .map(|(c, p)| err(c.geomean_energy, p.1))
        .collect();
    // Figure 9: BPVeC perf/W over the GPU, DDR4 and HBM2, both panels.
    for (report, paper) in [
        (f9a, paper_fig9::HOM_GEOMEAN),
        (f9b, paper_fig9::HET_GEOMEAN),
    ] {
        energy.push(err(report.perf_per_watt("BPVeC", "DDR4").geomean, paper.0));
        energy.push(err(report.perf_per_watt("BPVeC", "HBM2").geomean, paper.1));
    }
    let mean_pct = |v: &[f64]| 100.0 * v.iter().sum::<f64>() / v.len() as f64;
    Output {
        csv,
        mismatches,
        speedup_err_pct: mean_pct(&speedup),
        energy_err_pct: mean_pct(&energy),
        cost_hits: reports.iter().map(|r| r.cache_hits).sum(),
        cost_lookups: reports.iter().map(|r| r.cache_hits + r.cache_misses).sum(),
    }
}

/// One job: the four figure scenarios and the 16 differential cells.
fn job(inputs: &Inputs) -> Result<Output, String> {
    let reports = figures(|f| f());
    let diffs: Vec<NetworkDiff> = inputs
        .cells
        .iter()
        .map(|(net, b)| diff_network(net, MachineConfig::bpvec_ddr4(), *b))
        .collect();
    Ok(output(&reports, &diffs))
}

/// A job's check: clean differential cells, then the pinned CSV digest and
/// paper errors.
fn check(out: &Output, expected: &Expected) -> Result<(), String> {
    let differs = |got: f64, want: f64| (got - want).abs() >= 5e-5;
    if out.mismatches > 0 {
        Err(format!("{} differential mismatches", out.mismatches))
    } else if fnv1a(out.csv.bytes()) != expected.csv_digest {
        Err(format!(
            "CSV digest {:#x} != expected {:#x}",
            fnv1a(out.csv.bytes()),
            expected.csv_digest
        ))
    } else if differs(out.speedup_err_pct, expected.speedup_err_pct)
        || differs(out.energy_err_pct, expected.energy_err_pct)
    {
        Err(format!(
            "paper errors {:.4}% / {:.4}% != expected {:.4}% / {:.4}%",
            out.speedup_err_pct,
            out.energy_err_pct,
            expected.speedup_err_pct,
            expected.energy_err_pct
        ))
    } else {
        Ok(())
    }
}

/// Runs the workload: set-ups, an untimed first job that warms up and
/// yields the printed paper errors, then the timed closed loop — or,
/// traced, untimed and traced jobs in alternation.
pub fn run(args: &RunArgs) -> Result<RunReport, String> {
    let (setup_times, inputs) = measure::repeated_setup(setup);
    let first = job(&inputs)?;
    let extra = vec![
        ("paper_speedup_err_pct", first.speedup_err_pct, "%"),
        ("paper_energy_err_pct", first.energy_err_pct, "%"),
    ];
    if !args.trace {
        let lr = measure::closed_loop(args.seconds, || job(&inputs), |o| check(o, &PINNED));
        let peak_rss_mb = measure::peak_rss_mb()?;
        drop(inputs);
        let mut report = RunReport::timed(lr, measure::setup_s(setup_times, setup), peak_rss_mb);
        report.extra = extra;
        return Ok(report);
    }
    let setup_s = measure::median(&setup_times);
    let mut rec = Recorder::default();
    // Each traced job replays its cells right after its span closes, so
    // both sit in the same stretch of machine time.
    let (untraced, traced, jobs) = measure::alternate(
        args.seconds,
        |lr| {
            lr.run_job(|| job(&inputs), |o| check(o, &PINNED));
        },
        || {
            let (job_ms, mut tally, cell_spans) = traced_pass(&mut rec, &inputs, &PINNED)?;
            replay_pass(&mut rec, &inputs, &cell_spans, &mut tally)?;
            Ok((job_ms, tally))
        },
    );
    let mut report = RunReport::traced(setup_s, untraced, traced, jobs)?;
    report.extra = extra;
    report.artifacts = vec![("spans.json", rec.chrome_json())];
    Ok(report)
}

/// One traced job: the scenario runs and differential cells as spans
/// under a job span that covers exactly what [`job`] does, output and drops
/// included, so traced and untraced times compare. Returns the job span's
/// milliseconds, the job's tally so far and each cell's span, for the
/// replay.
fn traced_pass(
    rec: &mut Recorder,
    inputs: &Inputs,
    expected: &Expected,
) -> Result<(f64, Tally, Vec<SpanId>), String> {
    let job_span = rec.start("job", None);
    let mut scenario_ms = 0.0;
    let reports = figures(|f| {
        let (report, span) = rec.time("scenario.run", Some(job_span), f);
        scenario_ms += rec.ms(span);
        report
    });
    let mut diffs = Vec::new();
    let mut cell_spans = Vec::new();
    for (net, b) in &inputs.cells {
        let (d, span) = rec.time(&format!("diff {}", net.id), Some(job_span), || {
            diff_network(net, MachineConfig::bpvec_ddr4(), *b)
        });
        diffs.push(d);
        cell_spans.push(span);
    }
    let out = output(&reports, &diffs);
    drop((reports, diffs));
    rec.end(job_span);
    check(&out, expected)?;
    let mut tally = Tally::default();
    tally.set("scenario.run_ms", scenario_ms);
    tally.set("cost.lookups", out.cost_lookups as f64);
    tally.set(
        "cost.hit_rate",
        out.cost_hits as f64 / out.cost_lookups.max(1) as f64,
    );
    tally.set("diff.mismatches", out.mismatches as f64);
    Ok((rec.ms(job_span), tally, cell_spans))
}

/// Replays every differential cell of one traced job into its tally.
fn replay_pass(
    rec: &mut Recorder,
    inputs: &Inputs,
    cell_spans: &[SpanId],
    tally: &mut Tally,
) -> Result<(), String> {
    for ((net, b), &span) in inputs.cells.iter().zip(cell_spans) {
        replay_diff(rec, span, net, *b, tally)?;
        tally.add("diff.self_ms", rec.self_ms(span));
    }
    let machine_s = tally.get("isa.machine_ms") / 1e3;
    tally.set(
        "isa.inst_per_s",
        if machine_s > 0.0 {
            tally.get("isa.instructions") / machine_s
        } else {
            0.0
        },
    );
    Ok(())
}

/// Replays the public calls `diff_network` makes for one cell — per layer
/// `layer_cost`, `try_lower_layer` and a fresh `Machine::try_run`, then
/// one continuing machine over every program — timing each as a stage of
/// the cell's span.
fn replay_diff(
    rec: &mut Recorder,
    cell: SpanId,
    net: &Network,
    b: u64,
    tally: &mut Tally,
) -> Result<(), String> {
    let cfg = MachineConfig::bpvec_ddr4();
    let working = cfg.accel.scratchpad.working_bytes();
    let mut programs = Vec::new();
    for layer in &net.layers {
        let (_, ms) = rec.replay("cost.layer_cost", cell, || {
            layer_cost(layer, &cfg.accel, &cfg.dram, b)
        });
        tally.add("cost.layer_ms", ms);
        let (program, ms) = rec.replay("isa.lower", cell, || try_lower_layer(layer, working, b));
        tally.add("isa.lower_ms", ms);
        let program = program.map_err(|e| format!("{} {}: {e}", net.id, layer.name))?;
        let (report, ms) = rec.replay("isa.machine", cell, || Machine::new(cfg).try_run(&program));
        tally.add("isa.machine_ms", ms);
        let report = report.map_err(|e| format!("{} {}: {e}", net.id, layer.name))?;
        tally.add("isa.instructions", report.instructions as f64);
        programs.push(program);
    }
    let (retired, ms) = rec.replay("isa.machine", cell, || {
        let mut continuing = Machine::new(cfg);
        programs
            .iter()
            .map(|p| continuing.run(p).instructions)
            .sum::<usize>()
    });
    tally.add("isa.machine_ms", ms);
    tally.add("isa.instructions", retired as f64);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_expected_value_counts_as_failed_jobs() {
        let out = || Output {
            csv: "fig,1.0\n".into(),
            mismatches: 0,
            speedup_err_pct: 6.3994,
            energy_err_pct: 144.2167,
            cost_hits: 1,
            cost_lookups: 2,
        };
        let good = Expected {
            csv_digest: fnv1a(out().csv.bytes()),
            ..PINNED
        };
        let ok = measure::closed_loop(0.0, || Ok(out()), |o| check(o, &good));
        assert_eq!(ok.failed, 0);
        for bad in [
            Expected {
                csv_digest: good.csv_digest ^ 1,
                ..good
            },
            Expected {
                speedup_err_pct: 6.3995,
                ..good
            },
            Expected {
                energy_err_pct: 144.2,
                ..good
            },
        ] {
            let r = measure::closed_loop(0.0, || Ok(out()), |o| check(o, &bad));
            assert_eq!(r.failed, r.attempted(), "{bad:?}");
        }
        let dirty = measure::closed_loop(
            0.0,
            || {
                Ok(Output {
                    mismatches: 1,
                    ..out()
                })
            },
            |o| check(o, &good),
        );
        assert_eq!(dirty.failed, dirty.attempted());
    }
}
