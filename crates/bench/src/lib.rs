//! # `bpvec-bench` — the experiment harness over the `Scenario` API
//!
//! One binary per table/figure of the paper regenerates the corresponding
//! rows/series and prints them next to the paper's reported values:
//!
//! | binary   | reproduces |
//! |----------|------------|
//! | `table1` | Table I — benchmark networks |
//! | `table2` | Table II — evaluated platforms |
//! | `fig2`   | Figure 2 — bit-sliced dot-product algebra |
//! | `fig3`   | Figure 3 — CVU composition modes |
//! | `fig4`   | Figure 4 — slice-width × L design-space exploration |
//! | `fig5`   | Figure 5 — vs TPU-like baseline, DDR4, homogeneous |
//! | `fig6`   | Figure 6 — vs baseline, HBM2, homogeneous |
//! | `fig7`   | Figure 7 — vs BitFusion, DDR4, heterogeneous |
//! | `fig8`   | Figure 8 — vs BitFusion, HBM2, heterogeneous |
//! | `fig9`   | Figure 9 — performance-per-Watt vs RTX 2080 Ti |
//!
//! Every accelerator figure is a thin slice of a
//! [`Scenario`] (declared in
//! `bpvec_sim::experiments`); [`figure9`] here declares the GPU comparison
//! the same way, with [`GpuPlatform`] standing next to
//! [`AcceleratorConfig`] as just another
//! [`Evaluator`](bpvec_sim::Evaluator). The `--csv` / `--json` flags on the
//! figure binaries emit machine-readable output for plotting pipelines.
//!
//! `tests/perf_contracts.rs` holds the same-run performance contracts:
//! release-mode tests that time each fast path against the path it must
//! beat and assert on the ratio.

use bpvec_dnn::{BitwidthPolicy, NetworkId};
use bpvec_gpumodel::GpuPlatform;
use bpvec_sim::{AcceleratorConfig, Comparison, DramSpec, Report, Scenario, Workload};

/// One Figure 9 row: accelerator-vs-GPU performance-per-Watt ratios.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfPerWattRow {
    /// The workload.
    pub network: NetworkId,
    /// BPVeC + DDR4 over the GPU.
    pub ddr4_ratio: f64,
    /// BPVeC + HBM2 over the GPU.
    pub hbm2_ratio: f64,
}

/// The Figure 9 scenario: the GPU model and BPVeC side by side, normalized
/// to the GPU. `heterogeneous` selects the panel — homogeneous INT8
/// (`false`) or heterogeneous INT4 (`true`).
#[must_use]
pub fn figure9_report(heterogeneous: bool) -> Report {
    let policy = if heterogeneous {
        BitwidthPolicy::Heterogeneous
    } else {
        BitwidthPolicy::Homogeneous8
    };
    Scenario::new(if heterogeneous {
        "figure 9(b): perf/W vs RTX 2080 Ti (INT4)"
    } else {
        "figure 9(a): perf/W vs RTX 2080 Ti (INT8)"
    })
    .platform(GpuPlatform::rtx_2080_ti())
    .platform(AcceleratorConfig::bpvec())
    .memory(DramSpec::ddr4())
    .memory(DramSpec::hbm2())
    .workloads(Workload::table1(policy))
    .baseline("RTX 2080 Ti", "DDR4")
    .run()
}

/// Computes one Figure 9 panel: homogeneous INT8 (`heterogeneous = false`)
/// or heterogeneous INT4 (`true`). Returns per-network rows plus
/// (ddr4 geomean, hbm2 geomean).
#[must_use]
pub fn figure9(heterogeneous: bool) -> (Vec<PerfPerWattRow>, f64, f64) {
    let report = figure9_report(heterogeneous);
    let ddr4 = report.perf_per_watt("BPVeC", "DDR4");
    let hbm2 = report.perf_per_watt("BPVeC", "HBM2");
    let rows = ddr4
        .rows
        .iter()
        .zip(&hbm2.rows)
        .map(|(d, h)| PerfPerWattRow {
            network: d.network,
            ddr4_ratio: d.ratio,
            hbm2_ratio: h.ratio,
        })
        .collect();
    (rows, ddr4.geomean, hbm2.geomean)
}

/// The paper's Figure 9 series for side-by-side printing.
pub mod paper_fig9 {
    /// Fig. 9a (homogeneous INT8): BPVeC+DDR4 / GPU.
    pub const HOM_DDR4: [f64; 6] = [18.7, 30.2, 12.0, 9.0, 145.5, 166.2];
    /// Fig. 9a: BPVeC+HBM2 / GPU.
    pub const HOM_HBM2: [f64; 6] = [20.4, 19.6, 11.7, 8.8, 130.1, 167.5];
    /// Fig. 9a geomeans (DDR4, HBM2).
    pub const HOM_GEOMEAN: (f64, f64) = (33.7, 31.1);
    /// Fig. 9b (heterogeneous INT4): BPVeC+DDR4 / GPU.
    pub const HET_DDR4: [f64; 6] = [11.1, 12.3, 7.3, 11.0, 194.6, 225.3];
    /// Fig. 9b: BPVeC+HBM2 / GPU.
    pub const HET_HBM2: [f64; 6] = [13.5, 13.3, 7.8, 11.6, 192.1, 221.8];
    /// Fig. 9b geomeans (DDR4, HBM2).
    pub const HET_GEOMEAN: (f64, f64) = (28.0, 29.8);
}

/// Formats a paper-vs-measured row: `name  measured (paper X)`.
#[must_use]
pub fn fmt_vs(name: &str, measured: f64, paper: f64) -> String {
    format!("{name:<14} {measured:>8.2}x   (paper {paper:>6.2}x)")
}

/// Shared CLI handling for the figure binaries: `--csv` prints the figure's
/// comparison series as CSV, `--json` the full comparison as JSON. Returns
/// true if a machine-readable format was emitted (the caller should skip
/// its table printing).
#[must_use]
pub fn emit_machine_readable(comparison: &Comparison) -> bool {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--csv") {
        print!("{}", comparison.to_csv());
        true
    } else if args.iter().any(|a| a == "--json") {
        println!(
            "{}",
            serde_json::to_string_pretty(comparison).expect("comparison serialization cannot fail")
        );
        true
    } else {
        false
    }
}

/// Joins several report CSVs into one stream with a single header row (the
/// `policy` column already distinguishes the panels), so the output stays
/// parseable by CSV readers.
#[must_use]
pub fn concat_report_csv(reports: &[Report]) -> String {
    let mut out = String::new();
    for (i, r) in reports.iter().enumerate() {
        let csv = r.to_csv();
        if i == 0 {
            out.push_str(&csv);
        } else if let Some((_, body)) = csv.split_once('\n') {
            out.push_str(body);
        }
    }
    out
}

/// Prints one single-series comparison figure (Figures 5 and 7): measured
/// speedup/energy next to the paper's series, then the geomeans.
pub fn print_comparison_figure(
    title: &str,
    f: &Comparison,
    paper_speedup: &[f64; 6],
    paper_energy: &[f64; 6],
    paper_geomean: (f64, f64),
) {
    println!("{title}: {} normalized to {}", f.evaluated, f.baseline);
    println!(
        "{:<14} {:>9} {:>14} {:>9} {:>14}",
        "network", "speedup", "paper", "energy", "paper"
    );
    for (i, r) in f.rows.iter().enumerate() {
        println!(
            "{:<14} {:>8.2}x {:>13.2}x {:>8.2}x {:>13.2}x",
            r.network.name(),
            r.speedup,
            paper_speedup[i],
            r.energy_reduction,
            paper_energy[i],
        );
    }
    println!(
        "{:<14} {:>8.2}x {:>13.2}x {:>8.2}x {:>13.2}x",
        "GEOMEAN", f.geomean_speedup, paper_geomean.0, f.geomean_energy, paper_geomean.1,
    );
}

/// Prints a two-series HBM2-study figure (Figures 6 and 8): the baseline
/// design and BPVeC, both normalized to the same DDR4 baseline.
pub fn print_hbm2_figure(
    title: &str,
    series_names: (&str, &str),
    base: &Comparison,
    bpvec: &Comparison,
    paper_base_geomean: (f64, f64),
    paper_bpvec_geomean: (f64, f64),
) {
    println!("{title}: HBM2 study, normalized to {}", base.baseline);
    println!(
        "{:<14} {:>14} {:>14} {:>14} {:>14}",
        "network",
        format!("{} speedup", series_names.0),
        format!("{} energy", series_names.0),
        format!("{} speedup", series_names.1),
        format!("{} energy", series_names.1),
    );
    for (b, p) in base.rows.iter().zip(&bpvec.rows) {
        println!(
            "{:<14} {:>13.2}x {:>13.2}x {:>13.2}x {:>13.2}x",
            b.network.name(),
            b.speedup,
            b.energy_reduction,
            p.speedup,
            p.energy_reduction,
        );
    }
    println!(
        "{:<14} {:>13.2}x {:>13.2}x {:>13.2}x {:>13.2}x",
        "GEOMEAN",
        base.geomean_speedup,
        base.geomean_energy,
        bpvec.geomean_speedup,
        bpvec.geomean_energy,
    );
    println!(
        "paper GEOMEAN  {:>12.2}x {:>13.2}x {:>13.2}x {:>13.2}x",
        paper_base_geomean.0, paper_base_geomean.1, paper_bpvec_geomean.0, paper_bpvec_geomean.1,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure9_gpu_loses_by_an_order_of_magnitude() {
        for het in [false, true] {
            let (rows, gm_d, gm_h) = figure9(het);
            assert_eq!(rows.len(), 6);
            // Paper: 28x-34x geomean advantages.
            assert!(gm_d > 8.0, "geomean {gm_d} (het={het})");
            assert!(gm_h > 8.0, "geomean {gm_h} (het={het})");
            // Recurrent workloads show the largest advantage (GPU GEMV
            // utilization cliff).
            let rnn = rows.iter().find(|r| r.network == NetworkId::Rnn).unwrap();
            let r50 = rows
                .iter()
                .find(|r| r.network == NetworkId::ResNet50)
                .unwrap();
            assert!(
                rnn.hbm2_ratio > r50.hbm2_ratio,
                "rnn {} vs resnet50 {}",
                rnn.hbm2_ratio,
                r50.hbm2_ratio
            );
        }
    }

    #[test]
    fn figure9_report_is_a_gpu_normalized_scenario() {
        let report = figure9_report(false);
        assert_eq!(report.baseline.platform, "RTX 2080 Ti");
        assert_eq!(report.cells.len(), 2 * 2 * 6);
        // The GPU's own series normalizes to exactly 1.0.
        let own = report.perf_per_watt("RTX 2080 Ti", "DDR4");
        for r in &own.rows {
            assert!((r.ratio - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn geomean_reexport_is_the_engine_geomean() {
        // The curated crate-root surface now carries geomean (bench used to
        // reach into `bpvec_sim::engine` for it).
        assert_eq!(
            bpvec_sim::geomean(&[1.0, 4.0]),
            bpvec_sim::engine::geomean(&[1.0, 4.0])
        );
    }

    #[test]
    fn concatenated_csv_has_one_header() {
        let csv = concat_report_csv(&[figure9_report(false), figure9_report(true)]);
        let headers = csv
            .lines()
            .filter(|l| l.starts_with("platform,memory"))
            .count();
        assert_eq!(headers, 1);
        assert_eq!(csv.trim().lines().count(), 1 + 2 * 24);
        assert!(csv.contains("Heterogeneous"));
    }

    #[test]
    fn fmt_vs_is_stable() {
        let s = fmt_vs("AlexNet", 1.5, 1.39);
        assert!(s.contains("AlexNet"));
        assert!(s.contains("1.50x"));
        assert!(s.contains("1.39x"));
    }
}
