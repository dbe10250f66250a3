//! The materialized differential oracle: `diff_network_against` rebuilt
//! from public calls only. Each layer is lowered to a whole `Program` with
//! `try_lower_layer`, run on a fresh machine with `Machine::try_run`, and
//! read back for its MAC, DMA-byte and DMA-transfer totals; after the last
//! layer, one continuing machine runs every kept program with
//! `Machine::run`. The contracts and their tolerances are the harness's.
//!
//! The one-pass harness must produce a `NetworkDiff` equal to this one
//! under `==`, floating-point fields bit for bit.

use bpvec_dnn::layer::LayerKind;
use bpvec_dnn::Network;
use bpvec_isa::{
    try_lower_layer, LayerDiff, Machine, MachineConfig, MachineView, Mismatch, ModelView,
    NetworkDiff, Program, Tolerance,
};
use bpvec_sim::layer_cost;

fn rel_close(a: f64, b: f64, tol: f64) -> bool {
    a == b || (a - b).abs() <= tol * a.abs().max(b.abs())
}

fn latency_band(kind: &LayerKind) -> (f64, f64) {
    match kind {
        LayerKind::Conv2d { kernel, .. } => (0.4, kernel.0.max(2) as f64 + 2.0),
        LayerKind::FullyConnected { .. } => (0.999, 4.0),
        _ => (0.999, 2.5),
    }
}

fn traffic_band(kind: &LayerKind, dma_ops: u64) -> Tolerance {
    match kind {
        LayerKind::Conv2d { kernel, .. } => Tolerance::Ratio {
            min: 0.4,
            max: kernel.0.max(2) as f64,
        },
        _ => Tolerance::UpToBytes(dma_ops),
    }
}

fn seconds(cycles: f64, config: &MachineConfig) -> f64 {
    cycles / (config.accel.freq_mhz * 1e6)
}

/// The model-vs-machine checks of one layer whose program ran cleanly.
fn layer_mismatches(
    kind: &LayerKind,
    model: &ModelView,
    machine: &MachineView,
    program: &Program,
    model_cfg: &MachineConfig,
) -> Vec<Mismatch> {
    let mut mismatches = Vec::new();
    let program_macs = program.matmul_macs();
    if model.macs != program_macs || program_macs != machine.macs {
        mismatches.push(Mismatch::Macs {
            model: model.macs,
            program: program_macs,
            machine: machine.macs,
        });
    }
    if machine.traffic_bytes != program.dma_bytes() {
        mismatches.push(Mismatch::MachineTraffic {
            program: program.dma_bytes(),
            machine: machine.traffic_bytes,
        });
    }
    let band = traffic_band(kind, program.dma_ops());
    let traffic_ok = match band {
        Tolerance::Ratio { min, max } => {
            let r = program.dma_bytes() as f64 / (model.traffic_bytes.max(1)) as f64;
            r >= min && r < max
        }
        Tolerance::UpToBytes(slack) => {
            program.dma_bytes() >= model.traffic_bytes
                && program.dma_bytes() <= model.traffic_bytes + slack
        }
        _ => unreachable!("traffic bands are Ratio or UpToBytes"),
    };
    if !traffic_ok {
        mismatches.push(Mismatch::ModelTraffic {
            model: model.traffic_bytes,
            program: program.dma_bytes(),
            tolerance: band,
        });
    }
    if !rel_close(model.compute_s, machine.compute_s, 1e-9) {
        mismatches.push(Mismatch::ComputeTime {
            model_s: model.compute_s,
            machine_s: machine.compute_s,
        });
    }
    let model_dma_s = model_cfg.dram.transfer_time_s(program.dma_bytes());
    if !rel_close(model_dma_s, machine.dma_s, 1e-9) {
        mismatches.push(Mismatch::DmaTime {
            model_s: model_dma_s,
            machine_s: machine.dma_s,
        });
    }
    if model.latency_s > 0.0 || machine.latency_s > 0.0 {
        let (min, max) = latency_band(kind);
        let r = machine.latency_s / model.latency_s.max(f64::MIN_POSITIVE);
        if !(min..=max).contains(&r) {
            mismatches.push(Mismatch::Latency {
                model_s: model.latency_s,
                machine_s: machine.latency_s,
                tolerance: Tolerance::Ratio { min, max },
            });
        }
    }
    mismatches
}

/// `diff_network_against`, materialized: every layer's program is built,
/// re-read for its totals and kept for the continuing run at the end.
pub fn materialized_diff(
    network: &Network,
    model_cfg: MachineConfig,
    machine_cfg: MachineConfig,
    b: u64,
) -> NetworkDiff {
    let working = machine_cfg.accel.scratchpad.working_bytes();
    let mut layers = Vec::new();
    let mut network_mismatches = Vec::new();
    let mut programs = Vec::new();
    let mut model_latency_s = 0.0;
    let mut machine_latency_s = 0.0;
    for layer in &network.layers {
        let cost = layer_cost(layer, &model_cfg.accel, &model_cfg.dram, b);
        let model = ModelView {
            macs: cost.macs,
            traffic_bytes: cost.traffic_bytes,
            compute_s: cost.compute_s,
            memory_s: cost.memory_s,
            latency_s: cost.latency_s,
        };
        model_latency_s += model.latency_s;
        let program = match try_lower_layer(layer, working, b) {
            Ok(p) => p,
            Err(e) => {
                network_mismatches.push(Mismatch::Lower(e));
                continue;
            }
        };
        let (machine, mismatches) = match Machine::new(machine_cfg).try_run(&program) {
            Ok(report) => {
                let machine = MachineView {
                    macs: report.macs,
                    traffic_bytes: report.traffic_bytes,
                    compute_s: seconds(report.compute_cycles, &machine_cfg),
                    dma_s: seconds(report.dma_cycles, &machine_cfg),
                    latency_s: report.seconds(&machine_cfg),
                    instructions: report.instructions,
                };
                machine_latency_s += machine.latency_s;
                let mismatches =
                    layer_mismatches(&layer.kind, &model, &machine, &program, &model_cfg);
                programs.push(program);
                (machine, mismatches)
            }
            Err(trap) => (
                MachineView {
                    macs: 0,
                    traffic_bytes: 0,
                    compute_s: 0.0,
                    dma_s: 0.0,
                    latency_s: 0.0,
                    instructions: 0,
                },
                vec![Mismatch::Trap {
                    trap: trap.to_string(),
                }],
            ),
        };
        layers.push(LayerDiff {
            name: layer.name.clone(),
            kind: layer.kind.kind_name(),
            model,
            machine,
            mismatches,
        });
    }
    let mut continuing = Machine::new(machine_cfg);
    let mut machine_pipelined_s = 0.0;
    for p in &programs {
        machine_pipelined_s += continuing.run(p).seconds(&machine_cfg);
    }
    if machine_pipelined_s > machine_latency_s * (1.0 + 1e-9) {
        network_mismatches.push(Mismatch::Pipelining {
            continuing_s: machine_pipelined_s,
            sum_fresh_s: machine_latency_s,
        });
    }
    NetworkDiff {
        network: network.id.to_string(),
        batch: b,
        layers,
        network_mismatches,
        model_latency_s,
        machine_latency_s,
        machine_pipelined_s,
    }
}
