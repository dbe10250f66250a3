//! The repository benchmark: four workloads, each a closed loop of
//! identical jobs in one process, timed end to end, with a separate traced
//! run that times the calls into each layer. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, and `metrics` — every end-to-end metric with
//! `--trace 0`, every per-layer metric with `--trace 1`.

mod bittrue;
mod fleet;
mod measure;
mod paper;
mod spans;

use std::fmt::Write as _;
use std::process::{Command, ExitCode};

use measure::LoopResult;
use spans::Tally;

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = [
    "alexnet-bittrue",
    "bert-bittrue",
    "paper-eval",
    "fleet-serve",
];

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("job_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// The AlexNet and BERT-block slices `executor.layer_ms.<layer>` names.
const LAYERS: [&str; 19] = [
    "conv1",
    "pool1",
    "conv2",
    "pool2",
    "conv3",
    "conv4",
    "conv5",
    "pool5",
    "fc6",
    "fc7",
    "fc8",
    "block0.ln1",
    "block0.qkv",
    "block0.attn",
    "block0.proj",
    "block0.ln2",
    "block0.ffn1",
    "block0.gelu",
    "block0.ffn2",
];

/// Per-layer metrics, reported by every workload with `--trace 1`; a layer
/// a workload does not exercise reads 0.
fn per_layer_schema() -> Vec<(String, &'static str)> {
    let fixed = |names: &[(&str, &'static str)]| -> Vec<(String, &'static str)> {
        names.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    };
    let mut schema = fixed(&[
        ("packing.weights_ms", "ms"),
        ("packing.acts_ms", "ms"),
        ("packing.weight_mb", "MiB"),
        ("systolic.gemm_ms", "ms"),
        ("systolic.gemm_calls", "count"),
        ("systolic.macs", "count"),
        ("systolic.roofline_frac", "ratio"),
        ("kernels.peak_gmacs_per_s.8x8", "GMAC/s"),
        ("kernels.peak_gmacs_per_s.4x4", "GMAC/s"),
        ("kernels.peak_gmacs_per_s.8x4", "GMAC/s"),
        ("executor.self_ms", "ms"),
    ]);
    schema.extend(
        LAYERS
            .iter()
            .map(|l| (format!("executor.layer_ms.{l}"), "ms")),
    );
    schema.extend(fixed(&[
        ("reference.requant_ms", "ms"),
        ("reference.norm_ms", "ms"),
        ("dnn.build_ms", "ms"),
        ("executor.synthesize_ms", "ms"),
        ("scenario.run_ms", "ms"),
        ("cost.lookups", "count"),
        ("cost.hit_rate", "ratio"),
        ("cost.layer_ms", "ms"),
        ("isa.lower_ms", "ms"),
        ("isa.machine_ms", "ms"),
        ("isa.instructions", "count"),
        ("isa.inst_per_s", "1/s"),
        ("diff.self_ms", "ms"),
        ("diff.mismatches", "count"),
        ("serve.scenario_ms", "ms"),
        ("serve.fleet_ms", "ms"),
        ("serve.events", "count"),
        ("serve.events_per_s", "1/s"),
        ("serve.req_per_s", "1/s"),
        ("serve.dropped_frac", "ratio"),
        ("serve.peak_in_system", "count"),
        ("serve.records_retained", "count"),
        ("trace.overhead_pct", "%"),
    ]));
    schema
}

/// One run's settings, from the command line.
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload hands back to be reported.
pub struct RunReport {
    pub loop_result: LoopResult,
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    /// Per-layer values, by the names of [`per_layer_schema`].
    pub per_layer: Tally,
    /// End-to-end values printed for the reader but not in the JSON line
    /// (they exist on one workload only): `(name, value, unit)`.
    pub extra: Vec<(&'static str, f64, &'static str)>,
    /// Files the traced run writes, `(suffix, contents)`.
    pub artifacts: Vec<(&'static str, String)>,
    /// Lines printed with the report.
    pub notes: Vec<String>,
}

impl RunReport {
    /// A timed run's report, with nothing traced.
    pub fn timed(loop_result: LoopResult, setup_s: f64, peak_rss_mb: f64) -> Self {
        RunReport {
            loop_result,
            setup_s,
            peak_rss_mb,
            per_layer: Tally::default(),
            extra: Vec::new(),
            artifacts: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// A traced run's report from its untraced and traced loops and each
    /// traced job's `(job span ms, per-layer tally)`. Per-layer values are
    /// the medians over the traced jobs.
    pub fn traced(
        setup_s: f64,
        untraced: LoopResult,
        traced: LoopResult,
        jobs: Vec<(f64, Tally)>,
    ) -> Result<Self, String> {
        let (traced_ms, tallies): (Vec<f64>, Vec<Tally>) = jobs.into_iter().unzip();
        let mut report = Self::timed(untraced, setup_s, measure::peak_rss_mb()?);
        report.per_layer = spans::median_tally(&tallies);
        report.per_layer.set(
            "trace.overhead_pct",
            measure::overhead_pct(&report.loop_result.times_ms, &traced_ms),
        );
        report.loop_result.absorb(traced);
        Ok(report)
    }
}

struct Cli {
    workload: String,
    run: RunArgs,
    out: String,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: String::new(),
        run: RunArgs {
            seed: 1,
            seconds: 20.0,
            trace: false,
        },
        out: "perfbench/out".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} takes a value"));
        match flag.as_str() {
            "--workload" => cli.workload = value()?,
            "--seed" => cli.run.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.run.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.run.seconds >= 0.0 && cli.run.seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                cli.run.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--out" => cli.out = value()?,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if cli.workload != "all" && !WORKLOADS.contains(&cli.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]"
            );
            return ExitCode::from(2);
        }
    };
    let result = if cli.workload == "all" {
        run_all(&cli)
    } else {
        run_one(&cli)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_one(cli: &Cli) -> Result<(), String> {
    let args = &cli.run;
    let report = match cli.workload.as_str() {
        "alexnet-bittrue" => bittrue::run(bittrue::Net::AlexNet, args)?,
        "bert-bittrue" => bittrue::run(bittrue::Net::BertBlock, args)?,
        "paper-eval" => paper::run(args)?,
        "fleet-serve" => fleet::run(args)?,
        other => unreachable!("workload `{other}` was validated"),
    };
    for (suffix, contents) in &report.artifacts {
        std::fs::create_dir_all(&cli.out).map_err(|e| format!("{}: {e}", cli.out))?;
        let path = format!("{}/{}-{suffix}", cli.out, cli.workload);
        std::fs::write(&path, contents).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
    }
    print!("{}", human_report(cli, &report));
    println!("{}", json_line(args.trace, &report));
    Ok(())
}

/// The readable block: every metric by name with its unit.
fn human_report(cli: &Cli, r: &RunReport) -> String {
    let lr = &r.loop_result;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "perfbench {} seed={} seconds={} trace={} kernel={} threads={}",
        cli.workload,
        cli.run.seed,
        cli.run.seconds,
        u8::from(cli.run.trace),
        bpvec_core::kernels::active_tier().name(),
        std::thread::available_parallelism().map_or(1, usize::from),
    );
    let mut line = |name: &str, value: String, unit: &str| {
        let _ = writeln!(out, "  {name:<40} {value:>14} {unit}");
    };
    if cli.run.trace {
        for (name, unit) in per_layer_schema() {
            line(&name, fmt_num(r.per_layer.get(&name)), unit);
        }
    } else {
        line("setup_s", fmt_num(r.setup_s), "s");
        line("job_p50_ms", fmt_num(measure::median(&lr.times_ms)), "ms");
        match measure::tail(&lr.times_ms) {
            Some((pct, v)) => line(&format!("job_tail_ms (p{pct:.0})"), fmt_num(v), "ms"),
            None => line("job_tail_ms", "n/a".into(), "(11+ jobs needed)"),
        }
        line("jobs", lr.attempted().to_string(), "count");
        line("peak_rss_mb", fmt_num(r.peak_rss_mb), "MiB");
    }
    line(
        "failed_frac",
        fmt_num(lr.failed as f64 / lr.attempted().max(1) as f64),
        "ratio",
    );
    for &(name, value, unit) in &r.extra {
        line(name, fmt_num(value), unit);
    }
    for note in &r.notes {
        let _ = writeln!(out, "  {note}");
    }
    if let Some(e) = &lr.first_error {
        let _ = writeln!(out, "  first failure: {e}");
    }
    out
}

fn fmt_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() < 1.0 {
        format!("{v:.6}")
    } else {
        format!("{v:.4}")
    }
}

/// The result line: every metric of the run's kind, values as measured.
fn json_line(trace: bool, r: &RunReport) -> String {
    let lr = &r.loop_result;
    let metrics: Vec<(String, f64, &str)> = if trace {
        per_layer_schema()
            .into_iter()
            .map(|(name, unit)| {
                let v = r.per_layer.get(&name);
                (name, v, unit)
            })
            .collect()
    } else {
        let values = [r.setup_s, measure::median(&lr.times_ms), r.peak_rss_mb];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name.to_string(), v, unit))
            .collect()
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        lr.failed == 0 && lr.attempted() > 0,
        lr.attempted(),
        lr.failed,
        body.join(", ")
    )
}

/// Runs every workload, each in its own child process (so each reports its
/// own peak memory) writing straight to this process's output.
fn run_all(cli: &Cli) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    for w in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", w, "--seed", &cli.run.seed.to_string()])
            .args(["--seconds", &cli.run.seconds.to_string()])
            .args(["--trace", if cli.run.trace { "1" } else { "0" }])
            .args(["--out", &cli.out])
            .status()
            .map_err(|e| format!("{w}: cannot start: {e}"))?;
        if !status.success() {
            return Err(format!("{w} exited with {status}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names and units here are the ones `BENCHMARK.json`
    /// declares, in the same order.
    #[test]
    fn schema_matches_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let names = |key: &str| -> Vec<String> {
            let section = &text[text.find(&format!("\"{key}\"")).expect(key)..];
            let section = &section[..section.find(']').expect("section ends")];
            section
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("name ends")].to_string())
                .collect()
        };
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names("end_to_end"), e2e);
        let per_layer: Vec<String> = per_layer_schema().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names("per_layer"), per_layer);
        assert_eq!(names("workloads"), WORKLOADS.to_vec());
    }
}
