//! Three-way differential validation: analytical cost model × packed
//! execution × ISA machine.
//!
//! The repo holds three independent implementations of "what does a
//! bit-decomposed network cost":
//!
//! 1. the **analytical model** ([`bpvec_sim::layer_cost`]) — closed-form
//!    MACs, tiled DRAM traffic and `max(compute, memory)` latency;
//! 2. the **packed executor** ([`bpvec_sim::NetworkExecutor`]) — bit-true
//!    arithmetic on the cycle-counted systolic array;
//! 3. the **ISA machine** ([`crate::Machine`]) — an instruction
//!    interpreter over the instruction streams the lowering pass
//!    ([`crate::try_lower_layer`]) produces.
//!
//! They share no code paths past the layer shapes, so agreement is
//! evidence of correctness and disagreement localizes a bug. This module
//! cross-checks them with **typed, per-layer mismatch reports**
//! ([`Mismatch`]) under explicit tolerance contracts ([`Tolerance`])
//! instead of bare asserts, in the style of miden-vm's
//! assembler → processor → prover differential pipeline:
//!
//! * MAC counts must agree **exactly** across all three views;
//! * program DMA bytes must be reproduced **exactly** by the machine, and
//!   must track the analytic tiling estimate within the halo band
//!   (convolutions) or per-transfer byte-rounding slack (everything else);
//! * compute and DMA *time* must match the model to floating-point
//!   round-off — both sides compute `work / rate` from the same inputs;
//! * per-layer latency and cross-layer pipelining obey one-sided bounds
//!   that follow from the machine semantics (the machine can never beat
//!   the analytic lower bound, and a continuing machine can never be
//!   slower than per-layer fresh runs).
//!
//! [`diff_network`] runs the model × machine legs over a whole network in
//! one pass per layer: the lowering streams each instruction straight into
//! the layer's fresh machine and the network's continuing machine, and the
//! program-side totals (MACs, DMA bytes, DMA transfers) are counted as the
//! instructions go by, so no `Program` is built. Both machines see exactly
//! the instructions [`crate::Machine::try_run`] and [`crate::Machine::run`]
//! would see on the lowered programs, in the same order. A layer that fails
//! to lower, or traps on a scratchpad bound partway, leaves the continuing
//! machine as it was before the layer.
//!
//! [`diff_execution`] adds the packed-executor leg on probe-sized layer
//! windows ([`execution_probe`]), where bit-true output equality against
//! the reference pipeline is also enforced. [`diff_network_against`]
//! deliberately splits the model and machine configurations so tests can
//! prove the harness *fails* on perturbed cost tables.

use bpvec_core::{CoreError, Signedness};
use bpvec_dnn::layer::{Layer, LayerKind};
use bpvec_dnn::{BitwidthPolicy, Network, NetworkId, Tensor};
use bpvec_sim::systolic::{ArrayConfig, SystolicArray};
use bpvec_sim::{layer_cost, NetworkExecutor, WeightStore};
use std::fmt;

use crate::inst::Instruction;
use crate::machine::{Machine, MachineConfig, Trap};
use crate::program::{lower_into, try_lower_layer, LowerError, Sink};

/// The agreement contract a differential check ran under.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum Tolerance {
    /// Bit-exact equality.
    Exact,
    /// `measured` may exceed `expected` by at most this many bytes (the
    /// per-transfer byte-rounding slack) and never undercut it.
    UpToBytes(u64),
    /// `measured / expected` must lie in `[min, max]`.
    Ratio {
        /// Lower bound (inclusive).
        min: f64,
        /// Upper bound (inclusive).
        max: f64,
    },
    /// Relative error at most this (floating-point round-off contracts).
    RelErr(f64),
}

impl fmt::Display for Tolerance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Tolerance::Exact => f.write_str("exact"),
            Tolerance::UpToBytes(b) => write!(f, "+<= {b} B"),
            Tolerance::Ratio { min, max } => write!(f, "ratio in [{min}, {max}]"),
            Tolerance::RelErr(e) => write!(f, "rel err <= {e}"),
        }
    }
}

/// One violated agreement contract, localized to a layer (or the network
/// scope for cross-layer checks).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Mismatch {
    /// The three MAC counts are not identical.
    Macs {
        /// Analytical model count (`layer.macs() × batch`).
        model: u64,
        /// MACs the lowered program's `MatMul` instructions issue.
        program: u64,
        /// MACs the machine retired.
        machine: u64,
    },
    /// The machine did not reproduce the program's DMA bytes exactly.
    MachineTraffic {
        /// Bytes the program's DMA instructions move.
        program: u64,
        /// Bytes the machine counted.
        machine: u64,
    },
    /// Program DMA bytes fell outside the analytic tiling estimate's band.
    ModelTraffic {
        /// Analytic traffic estimate.
        model: u64,
        /// Program DMA bytes.
        program: u64,
        /// The contract that was violated.
        tolerance: Tolerance,
    },
    /// Compute time disagrees beyond floating-point round-off.
    ComputeTime {
        /// Model compute seconds.
        model_s: f64,
        /// Machine compute-busy seconds.
        machine_s: f64,
    },
    /// DMA time disagrees with the model's transfer time for the program's
    /// actual traffic beyond floating-point round-off.
    DmaTime {
        /// Model transfer seconds for the program's traffic.
        model_s: f64,
        /// Machine DMA-busy seconds.
        machine_s: f64,
    },
    /// Layer (or network) latency fell outside the contracted ratio band.
    Latency {
        /// Model latency seconds.
        model_s: f64,
        /// Machine latency seconds.
        machine_s: f64,
        /// The violated ratio contract.
        tolerance: Tolerance,
    },
    /// A continuing machine took longer than the sum of per-layer fresh
    /// runs — pipelining across layers can only ever help.
    Pipelining {
        /// Continuing-machine seconds over the whole network.
        continuing_s: f64,
        /// Sum of per-layer fresh-machine seconds.
        sum_fresh_s: f64,
    },
    /// A layer failed to lower (network scope).
    Lower(LowerError),
    /// A lowered program trapped on the machine (lowering bug).
    Trap {
        /// The trap, rendered.
        trap: String,
    },
    /// Packed execution and the reference pipeline produced different
    /// outputs (bit-true equality is the contract).
    ExecOutput,
    /// Executor MAC counts disagree (analytic per-layer count vs MACs the
    /// array's GEMMs actually issued vs the lowered program).
    ExecMacs {
        /// `layer.macs()` (batch 1).
        analytic: u64,
        /// MACs the packed GEMMs issued.
        array: u64,
        /// MACs the lowered (batch 1) program issues.
        program: u64,
    },
    /// Array cycles disagree with the independent re-derivation of the
    /// packed tiling schedule from the accelerator configuration.
    ArrayCycles {
        /// Systolic-array cycles the executor counted.
        array: u64,
        /// Cycles re-derived from the layer shape and the machine's
        /// configured peak throughput.
        expected: u64,
    },
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mismatch::Macs {
                model,
                program,
                machine,
            } => write!(
                f,
                "MACs disagree: model {model}, program {program}, machine {machine}"
            ),
            Mismatch::MachineTraffic { program, machine } => {
                write!(f, "machine traffic {machine} B != program DMA {program} B")
            }
            Mismatch::ModelTraffic {
                model,
                program,
                tolerance,
            } => write!(
                f,
                "program DMA {program} B outside model estimate {model} B ({tolerance})"
            ),
            Mismatch::ComputeTime { model_s, machine_s } => write!(
                f,
                "compute time: model {model_s:.3e}s vs machine {machine_s:.3e}s"
            ),
            Mismatch::DmaTime { model_s, machine_s } => write!(
                f,
                "dma time: model {model_s:.3e}s vs machine {machine_s:.3e}s"
            ),
            Mismatch::Latency {
                model_s,
                machine_s,
                tolerance,
            } => write!(
                f,
                "latency: machine {machine_s:.3e}s vs model {model_s:.3e}s ({tolerance})"
            ),
            Mismatch::Pipelining {
                continuing_s,
                sum_fresh_s,
            } => write!(
                f,
                "pipelined run {continuing_s:.3e}s exceeds per-layer sum {sum_fresh_s:.3e}s"
            ),
            Mismatch::Lower(e) => write!(f, "lowering failed: {e}"),
            Mismatch::Trap { trap } => write!(f, "machine trapped: {trap}"),
            Mismatch::ExecOutput => f.write_str("packed output != reference output"),
            Mismatch::ExecMacs {
                analytic,
                array,
                program,
            } => write!(
                f,
                "executor MACs disagree: analytic {analytic}, array {array}, program {program}"
            ),
            Mismatch::ArrayCycles { array, expected } => {
                write!(f, "array cycles {array} != re-derived schedule {expected}")
            }
        }
    }
}

/// The analytical model's view of one layer (whole batch).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelView {
    /// MACs (batch total).
    pub macs: u64,
    /// Tiled DRAM traffic, bytes.
    pub traffic_bytes: u64,
    /// Compute seconds.
    pub compute_s: f64,
    /// Memory seconds.
    pub memory_s: f64,
    /// `max(compute, memory)` latency seconds.
    pub latency_s: f64,
}

/// The ISA machine's view of one layer (whole batch, fresh machine).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineView {
    /// MACs retired.
    pub macs: u64,
    /// DMA bytes moved.
    pub traffic_bytes: u64,
    /// Compute-busy seconds.
    pub compute_s: f64,
    /// DMA-busy seconds.
    pub dma_s: f64,
    /// End-to-end seconds for the layer's program.
    pub latency_s: f64,
    /// Instructions retired.
    pub instructions: usize,
}

/// One layer's differential record.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerDiff {
    /// Layer name.
    pub name: String,
    /// Layer kind name (`conv2d`, `matmul-qk`, ...).
    pub kind: &'static str,
    /// The analytical side.
    pub model: ModelView,
    /// The machine side.
    pub machine: MachineView,
    /// Violated contracts (empty when the views agree).
    pub mismatches: Vec<Mismatch>,
}

/// Differential report for a whole network at one batch size.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkDiff {
    /// Network display name.
    pub network: String,
    /// Batch size the comparison ran at.
    pub batch: u64,
    /// Per-layer records, in execution order.
    pub layers: Vec<LayerDiff>,
    /// Cross-layer (network-scope) mismatches.
    pub network_mismatches: Vec<Mismatch>,
    /// Sum of per-layer model latencies, seconds.
    pub model_latency_s: f64,
    /// Sum of per-layer fresh-machine latencies, seconds.
    pub machine_latency_s: f64,
    /// End-to-end seconds of one continuing machine over every layer
    /// that lowered and ran without a trap.
    pub machine_pipelined_s: f64,
}

impl NetworkDiff {
    /// True when every contract held.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.network_mismatches.is_empty() && self.layers.iter().all(|l| l.mismatches.is_empty())
    }

    /// Total violated contracts across all scopes.
    #[must_use]
    pub fn mismatch_count(&self) -> usize {
        self.network_mismatches.len()
            + self
                .layers
                .iter()
                .map(|l| l.mismatches.len())
                .sum::<usize>()
    }
}

impl fmt::Display for NetworkDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} @ batch {}: {} layers, {} mismatches",
            self.network,
            self.batch,
            self.layers.len(),
            self.mismatch_count()
        )?;
        for l in &self.layers {
            for m in &l.mismatches {
                writeln!(f, "  [{} {}] {m}", l.name, l.kind)?;
            }
        }
        for m in &self.network_mismatches {
            writeln!(f, "  [network] {m}")?;
        }
        Ok(())
    }
}

fn rel_close(a: f64, b: f64, tol: f64) -> bool {
    if a == b {
        return true; // covers exact zeros
    }
    (a - b).abs() <= tol * a.abs().max(b.abs())
}

/// The per-layer latency ratio band: the machine can never beat the
/// analytic `max(compute, memory)` bound, and can exceed it by at most
/// serialization (compute + dma instead of max) times the traffic band
/// (2× halo for convolutions).
fn latency_band(kind: &LayerKind) -> Tolerance {
    let (min, max) = match kind {
        // Convolutions can undercut the model — a strided kernel that does
        // not cover its stride (1×1 stride-2 downsample) touches only
        // `kh/stride` of the input rows the estimate charges — and exceed
        // it by halo re-reads, which load at most `kh` input rows per
        // output row against the model's one (thin row tiles under batch
        // pressure reach that limit), plus DMA/compute serialization.
        LayerKind::Conv2d { kernel, .. } => (0.4, kernel.0.max(2) as f64 + 2.0),
        LayerKind::FullyConnected { .. } => (0.999, 4.0),
        _ => (0.999, 2.5),
    };
    Tolerance::Ratio { min, max }
}

/// The model-vs-program traffic band for a layer kind: convolutions carry
/// the halo the analytic model ignores — a row tile of `t` output rows
/// loads `t·stride + kh − stride` input rows against the model's
/// `t·stride`, so the inflation is strictly below `kh` even at `t = 1` —
/// and can also undercut the estimate when a strided kernel skips input
/// rows the whole-input charge includes (1×1 stride-2 downsample reads
/// half the rows). Everything else is exact up to per-transfer byte
/// rounding.
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

/// Cross-checks the analytical model against the ISA machine for every
/// layer of `network` at batch `b`, with both views computed from the same
/// configuration. See [`diff_network_against`] for the two-config form
/// negative tests use.
///
/// ```
/// use bpvec_dnn::{BitwidthPolicy, Network, NetworkId};
/// use bpvec_isa::{diff_network, MachineConfig};
///
/// let net = Network::build(NetworkId::AlexNet, BitwidthPolicy::Heterogeneous);
/// let diff = diff_network(&net, MachineConfig::bpvec_ddr4(), 16);
/// assert!(diff.is_clean(), "{diff}");
/// assert_eq!(diff.layers.len(), net.layers.len());
/// ```
#[must_use]
pub fn diff_network(network: &Network, config: MachineConfig, b: u64) -> NetworkDiff {
    diff_network_against(network, config, config, b)
}

/// The lowering's sink in [`diff_network_against`]: every instruction is
/// checked against the scratchpad bounds, counted into the program-side
/// totals, and stepped on the layer's fresh machine and on the network's
/// continuing machine as it is produced.
struct Lockstep<'a> {
    /// The layer's own machine, from reset.
    fresh: Machine,
    /// The machine that runs the network layer after layer.
    continuing: &'a mut Machine,
    /// The first transfer past the working set; nothing steps after it.
    trap: Option<Trap>,
    /// MACs the `MatMul` instructions issue.
    macs: u64,
    /// Bytes the DMA instructions move.
    dma_bytes: u64,
    /// DMA instructions.
    dma_ops: u64,
}

impl<'a> Lockstep<'a> {
    fn new(fresh: Machine, continuing: &'a mut Machine) -> Self {
        Lockstep {
            fresh,
            continuing,
            trap: None,
            macs: 0,
            dma_bytes: 0,
            dma_ops: 0,
        }
    }
}

impl Sink for Lockstep<'_> {
    #[inline]
    fn push(&mut self, inst: Instruction) {
        if self.trap.is_some() {
            return;
        }
        // The fresh machine has retired every instruction before this one.
        if let Err(trap) = self.fresh.check(self.fresh.retired(), &inst) {
            self.trap = Some(trap);
            return;
        }
        match inst {
            Instruction::LoadTile { bytes, .. } | Instruction::StoreTile { bytes, .. } => {
                self.dma_bytes += u64::from(bytes);
                self.dma_ops += 1;
            }
            Instruction::MatMul { m, k, n } => {
                self.macs += u64::from(m) * u64::from(k) * u64::from(n);
            }
            Instruction::SetPrecision { .. } | Instruction::Barrier => {}
        }
        self.fresh.step(&inst);
        self.continuing.step(&inst);
    }
}

/// Cross-checks the analytical model (under `model_cfg`) against the ISA
/// machine (under `machine_cfg`) for every layer of `network` at batch `b`.
///
/// With `model_cfg == machine_cfg` every contract must hold on the Table I
/// models and the ViT/BERT presets; with a deliberately perturbed model
/// configuration the typed mismatches identify *which* quantity drifted —
/// the negative tests prove the harness can fail.
#[must_use]
pub fn diff_network_against(
    network: &Network,
    model_cfg: MachineConfig,
    machine_cfg: MachineConfig,
    b: u64,
) -> NetworkDiff {
    let working = machine_cfg.accel.scratchpad.working_bytes();
    let mut layers = Vec::new();
    let mut network_mismatches = Vec::new();
    let mut model_latency_s = 0.0;
    let mut machine_latency_s = 0.0;
    let reset = Machine::new(machine_cfg);
    let mut continuing = reset.clone();
    let mut machine_pipelined_s = 0.0;
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
        // The continuing machine as this layer found it: restored if the
        // layer fails to lower or traps partway.
        let before = continuing.clone();
        let mut pass = Lockstep::new(reset.clone(), &mut continuing);
        let lowered = lower_into(&mut pass, layer, working, b);
        let Lockstep {
            fresh,
            trap,
            macs: program_macs,
            dma_bytes,
            dma_ops,
            ..
        } = pass;
        if let Err(e) = lowered {
            continuing = before;
            network_mismatches.push(Mismatch::Lower(e));
            continue;
        }
        if let Some(trap) = trap {
            continuing = before;
            layers.push(LayerDiff {
                name: layer.name.clone(),
                kind: layer.kind.kind_name(),
                model,
                machine: MachineView {
                    macs: 0,
                    traffic_bytes: 0,
                    compute_s: 0.0,
                    dma_s: 0.0,
                    latency_s: 0.0,
                    instructions: 0,
                },
                mismatches: vec![Mismatch::Trap {
                    trap: trap.to_string(),
                }],
            });
            continue;
        }
        machine_pipelined_s += continuing.report_since(&before).seconds(&machine_cfg);
        let report = fresh.report_since(&reset);
        let mut mismatches = Vec::new();
        let machine = MachineView {
            macs: report.macs,
            traffic_bytes: report.traffic_bytes,
            compute_s: seconds(report.compute_cycles, &machine_cfg),
            dma_s: seconds(report.dma_cycles, &machine_cfg),
            latency_s: report.seconds(&machine_cfg),
            instructions: report.instructions,
        };
        machine_latency_s += machine.latency_s;

        // 1. MACs: exact, three ways.
        if model.macs != program_macs || program_macs != machine.macs {
            mismatches.push(Mismatch::Macs {
                model: model.macs,
                program: program_macs,
                machine: machine.macs,
            });
        }
        // 2. Machine traffic reproduces the program exactly.
        if machine.traffic_bytes != dma_bytes {
            mismatches.push(Mismatch::MachineTraffic {
                program: dma_bytes,
                machine: machine.traffic_bytes,
            });
        }
        // 3. Program traffic tracks the analytic tiling estimate.
        let band = traffic_band(&layer.kind, dma_ops);
        let traffic_ok = match band {
            Tolerance::Ratio { min, max } => {
                let r = dma_bytes as f64 / (model.traffic_bytes.max(1)) as f64;
                r >= min && r < max
            }
            Tolerance::UpToBytes(slack) => {
                dma_bytes >= model.traffic_bytes && dma_bytes <= model.traffic_bytes + slack
            }
            _ => unreachable!("traffic bands are Ratio or UpToBytes"),
        };
        if !traffic_ok {
            mismatches.push(Mismatch::ModelTraffic {
                model: model.traffic_bytes,
                program: dma_bytes,
                tolerance: band,
            });
        }
        // 4. Compute time: same MACs over the same rate, to round-off.
        if !rel_close(model.compute_s, machine.compute_s, 1e-9) {
            mismatches.push(Mismatch::ComputeTime {
                model_s: model.compute_s,
                machine_s: machine.compute_s,
            });
        }
        // 5. DMA time: the model's transfer time for the program's actual
        //    bytes must equal the machine's DMA-busy time, to round-off.
        let model_dma_s = model_cfg.dram.transfer_time_s(dma_bytes);
        if !rel_close(model_dma_s, machine.dma_s, 1e-9) {
            mismatches.push(Mismatch::DmaTime {
                model_s: model_dma_s,
                machine_s: machine.dma_s,
            });
        }
        // 6. Layer latency: one-sided analytic bound plus the serialization
        //    band.
        if model.latency_s > 0.0 || machine.latency_s > 0.0 {
            let band = latency_band(&layer.kind);
            let Tolerance::Ratio { min, max } = band else {
                unreachable!("latency bands are ratios")
            };
            let r = machine.latency_s / model.latency_s.max(f64::MIN_POSITIVE);
            if !(min..=max).contains(&r) {
                mismatches.push(Mismatch::Latency {
                    model_s: model.latency_s,
                    machine_s: machine.latency_s,
                    tolerance: band,
                });
            }
        }
        layers.push(LayerDiff {
            name: layer.name.clone(),
            kind: layer.kind.kind_name(),
            model,
            machine,
            mismatches,
        });
    }
    // Network scope: one continuing machine over every layer can only be
    // faster than the per-layer fresh runs (cross-layer pipelining).
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

/// One probe layer's executor-leg record.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecLayerDiff {
    /// Layer name.
    pub name: String,
    /// Layer kind name.
    pub kind: &'static str,
    /// `layer.macs()` (batch 1).
    pub macs: u64,
    /// MACs the array's packed GEMMs issued.
    pub array_macs: u64,
    /// Systolic-array cycles the executor counted.
    pub array_cycles: u64,
    /// Cycles re-derived from the layer shape and the configured peak.
    pub expected_cycles: u64,
    /// Violated contracts.
    pub mismatches: Vec<Mismatch>,
}

/// Executor-leg differential report for one probe window.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecDiff {
    /// Probe display name.
    pub name: String,
    /// True when packed output matched the reference bit-for-bit.
    pub bit_true: bool,
    /// Per-layer records.
    pub layers: Vec<ExecLayerDiff>,
    /// Window-scope mismatches ([`Mismatch::ExecOutput`],
    /// [`Mismatch::Lower`]).
    pub mismatches: Vec<Mismatch>,
}

impl ExecDiff {
    /// True when every contract held.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.mismatches.is_empty() && self.layers.iter().all(|l| l.mismatches.is_empty())
    }
}

impl fmt::Display for ExecDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let count = self.mismatches.len()
            + self
                .layers
                .iter()
                .map(|l| l.mismatches.len())
                .sum::<usize>();
        writeln!(
            f,
            "{}: {} layers, bit-true {}, {} mismatches",
            self.name,
            self.layers.len(),
            self.bit_true,
            count
        )?;
        for l in &self.layers {
            for m in &l.mismatches {
                writeln!(f, "  [{} {}] {m}", l.name, l.kind)?;
            }
        }
        for m in &self.mismatches {
            writeln!(f, "  [window] {m}")?;
        }
        Ok(())
    }
}

/// Re-derives the packed array's cycle count for one layer from the
/// machine's configured peak throughput — *independently* of
/// `bpvec_sim::systolic`, which counts these cycles while executing.
///
/// The schedule: each `rows × cols` output tile streams its reduction in
/// beats of `macs_per_cycle / (rows·cols)` elements per CVU per cycle,
/// then pays a `rows + cols` fill/drain skew; partial edge tiles pay full
/// beats. Per kind the executor issues one GEMM per layer (conv im2col,
/// dense), per timestep (recurrent), or per head (attention).
fn expected_array_cycles(layer: &Layer, accel: &bpvec_sim::AcceleratorConfig) -> u64 {
    let rows = 8u64;
    let cols = 8u64;
    let chunk = (accel.macs_per_cycle(layer.act_bits, layer.weight_bits) / (rows * cols) as f64)
        .round()
        .max(1.0) as u64;
    let gemm = |m: u64, k: u64, n: u64| {
        m.div_ceil(rows) * n.div_ceil(cols) * (k.div_ceil(chunk) + rows + cols)
    };
    match layer.kind {
        LayerKind::Conv2d {
            in_channels,
            out_channels,
            kernel,
            ..
        } => {
            let (oh, ow) = layer.output_hw().expect("convs have spatial output");
            gemm(
                out_channels as u64,
                (in_channels * kernel.0 * kernel.1) as u64,
                (oh * ow) as u64,
            )
        }
        LayerKind::FullyConnected {
            in_features,
            out_features,
        } => gemm(out_features as u64, in_features as u64, 1),
        LayerKind::Recurrent {
            input_size,
            hidden_size,
            gates,
            seq_len,
        } => {
            seq_len as u64
                * gemm(
                    (gates * hidden_size) as u64,
                    (input_size + hidden_size) as u64,
                    1,
                )
        }
        LayerKind::MatMulQK {
            heads,
            q_len,
            kv_len,
            head_dim,
        } => heads as u64 * gemm(q_len as u64, head_dim as u64, kv_len as u64),
        LayerKind::AttentionV {
            heads,
            q_len,
            kv_len,
            head_dim,
        } => heads as u64 * gemm(q_len as u64, kv_len as u64, head_dim as u64),
        _ => 0,
    }
}

/// Cumulative-MAC budget for CNN probe prefixes — sized so every probe
/// runs bit-true in a few seconds under `cargo test`, and kept below the
/// point where Inception-v1's layer table goes shape-inconsistent (its
/// `pool1` floor-rounds 112→55 while `conv2r` declares a 56×56 input, a
/// ceil-vs-floor artifact real GoogLeNet papers over with `ceil_mode`).
const PROBE_MAC_BUDGET: u64 = 130_000_000;

/// Builds the execution probe for `id`: a layer window small enough to run
/// bit-true in seconds, plus a deterministic synthetic input shaped for its
/// first layer.
///
/// CNNs probe a prefix of the full model under a cumulative-MAC budget;
/// recurrent models run whole at a short unroll; transformers run one full
/// encoder block (LayerNorm → QKV → QK → softmax → attention·V →
/// projection → LayerNorm → FFN → GELU → FFN) at a short sequence length.
///
/// # Panics
///
/// Panics if `policy` does not apply to `id` (presets apply everywhere).
#[must_use]
pub fn execution_probe(id: NetworkId, policy: BitwidthPolicy) -> (Vec<Layer>, Tensor) {
    use bpvec_dnn::PrecisionPolicy;
    let preset = PrecisionPolicy::Preset(policy);
    let (layers, input_shape): (Vec<Layer>, Vec<usize>) = match id {
        NetworkId::VitBase | NetworkId::BertBase => {
            let net = Network::build_shaped(id, &preset, Some(8), None)
                .expect("preset policies apply to every network");
            let start = net
                .layers
                .iter()
                .position(|l| l.name.ends_with("ln1"))
                .expect("transformers start with a block LayerNorm");
            let window: Vec<Layer> = net.layers[start..start + 10].to_vec();
            let LayerKind::LayerNorm { features, tokens } = window[0].kind else {
                panic!("transformer windows start at LayerNorm");
            };
            let shape = vec![features, tokens, 1];
            (window, shape)
        }
        NetworkId::Rnn | NetworkId::Lstm => {
            let net = Network::build_shaped(id, &preset, Some(4), None)
                .expect("preset policies apply to every network");
            let LayerKind::Recurrent {
                input_size,
                seq_len,
                ..
            } = net.layers[0].kind
            else {
                panic!("recurrent networks start with a Recurrent layer");
            };
            (net.layers, vec![seq_len, input_size])
        }
        _ => {
            let net = Network::build(id, policy);
            let mut cum = 0u64;
            let mut window = Vec::new();
            for l in net.layers {
                if cum + l.macs() > PROBE_MAC_BUDGET && !window.is_empty() {
                    break;
                }
                cum += l.macs();
                window.push(l);
            }
            let LayerKind::Conv2d {
                in_channels,
                input_hw,
                ..
            } = window[0].kind
            else {
                panic!("CNN probes start with a convolution");
            };
            (window, vec![in_channels, input_hw.0, input_hw.1])
        }
    };
    let (lo, hi) = layers[0].act_bits.range(Signedness::Signed);
    let span = (hi - lo + 1) as u64;
    let mut i = 0u64;
    let input = Tensor::from_fn(&input_shape, |_| {
        let v = lo + (mix(0xb17_d1ff ^ i) % span) as i32;
        i += 1;
        v
    });
    (layers, input)
}

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs the packed-executor leg over a probe window at batch 1: packed
/// output must equal the reference pipeline bit-for-bit, every layer's
/// analytic, array-measured and program MAC counts must be identical, and
/// array cycles must equal the schedule re-derived from the machine's
/// configured peak throughput ([`Mismatch::ArrayCycles`]).
///
/// # Errors
///
/// Propagates [`CoreError`] from the packed array (operand composition) —
/// an infrastructure failure, distinct from a differential [`Mismatch`].
pub fn diff_execution(
    name: &str,
    layers: &[Layer],
    input: &Tensor,
    machine_cfg: MachineConfig,
) -> Result<ExecDiff, CoreError> {
    let executor = NetworkExecutor::new(SystolicArray::new(ArrayConfig::paper_default()));
    let weights = WeightStore::synthesize(layers, 0x5eed);
    let trace = executor.execute(layers, input, &weights)?;
    let reference = executor.execute_reference(layers, input, &weights);
    let bit_true = trace.output == reference;
    let mut mismatches = Vec::new();
    if !bit_true {
        mismatches.push(Mismatch::ExecOutput);
    }
    let working = machine_cfg.accel.scratchpad.working_bytes();
    let mut out_layers = Vec::new();
    for (layer, lt) in layers.iter().zip(&trace.layers) {
        let mut lm = Vec::new();
        let program_macs = match try_lower_layer(layer, working, 1) {
            Ok(p) => p.matmul_macs(),
            Err(e) => {
                mismatches.push(Mismatch::Lower(e));
                continue;
            }
        };
        if lt.macs != lt.array_macs || lt.macs != program_macs {
            lm.push(Mismatch::ExecMacs {
                analytic: lt.macs,
                array: lt.array_macs,
                program: program_macs,
            });
        }
        let expected = expected_array_cycles(layer, &machine_cfg.accel);
        if lt.cycles != expected {
            lm.push(Mismatch::ArrayCycles {
                array: lt.cycles,
                expected,
            });
        }
        out_layers.push(ExecLayerDiff {
            name: lt.name.clone(),
            kind: layer.kind.kind_name(),
            macs: lt.macs,
            array_macs: lt.array_macs,
            array_cycles: lt.cycles,
            expected_cycles: expected,
            mismatches: lm,
        });
    }
    Ok(ExecDiff {
        name: name.to_string(),
        bit_true,
        layers: out_layers,
        mismatches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpvec_sim::{AcceleratorConfig, DramSpec};

    #[test]
    fn resnet18_diffs_clean_under_both_policies() {
        for policy in [BitwidthPolicy::Homogeneous8, BitwidthPolicy::Heterogeneous] {
            let net = Network::build(NetworkId::ResNet18, policy);
            let d = diff_network(&net, MachineConfig::bpvec_ddr4(), 4);
            assert!(d.is_clean(), "{d}");
            assert_eq!(d.layers.len(), net.layers.len());
        }
    }

    #[test]
    fn bert_base_diffs_clean_including_attention_layers() {
        let net = Network::build(NetworkId::BertBase, BitwidthPolicy::Heterogeneous);
        let d = diff_network(&net, MachineConfig::bpvec_ddr4(), 2);
        assert!(d.is_clean(), "{d}");
        assert!(
            d.layers.iter().any(|l| l.kind == "matmul-qk"),
            "attention layers must be cross-checked, not skipped"
        );
    }

    #[test]
    fn a_perturbed_compute_rate_is_caught_as_compute_time() {
        let net = Network::build(NetworkId::ResNet18, BitwidthPolicy::Homogeneous8);
        let mut model_cfg = MachineConfig::bpvec_ddr4();
        model_cfg.accel.mac_units *= 2;
        let d = diff_network_against(&net, model_cfg, MachineConfig::bpvec_ddr4(), 4);
        assert!(!d.is_clean(), "a 2x compute-rate drift must be detected");
        assert!(
            d.layers.iter().any(|l| l
                .mismatches
                .iter()
                .any(|m| matches!(m, Mismatch::ComputeTime { .. }))),
            "the drift must be typed as ComputeTime:\n{d}"
        );
    }

    #[test]
    fn a_perturbed_memory_system_is_caught_as_dma_time() {
        let net = Network::build(NetworkId::AlexNet, BitwidthPolicy::Homogeneous8);
        let model_cfg = MachineConfig {
            accel: AcceleratorConfig::bpvec(),
            dram: DramSpec::hbm2(),
        };
        let d = diff_network_against(&net, model_cfg, MachineConfig::bpvec_ddr4(), 4);
        assert!(!d.is_clean());
        assert!(
            d.layers.iter().any(|l| l
                .mismatches
                .iter()
                .any(|m| matches!(m, Mismatch::DmaTime { .. }))),
            "a bandwidth drift must be typed as DmaTime:\n{d}"
        );
    }

    #[test]
    fn lockstep_stops_both_machines_at_the_first_out_of_bounds_transfer() {
        let cfg = MachineConfig::bpvec_ddr4();
        let limit = u32::try_from(cfg.accel.scratchpad.working_bytes()).unwrap();
        let load = |bytes| Instruction::LoadTile {
            dst_offset: 0,
            bytes,
            buffer: 0,
        };
        let mut continuing = Machine::new(cfg);
        let mut pass = Lockstep::new(Machine::new(cfg), &mut continuing);
        for inst in [load(64), load(limit + 1), load(64)] {
            pass.push(inst);
        }
        assert!(matches!(
            pass.trap,
            Some(Trap::ScratchpadOverflow { index: 1, .. })
        ));
        assert_eq!(
            (pass.fresh.retired(), pass.dma_ops, pass.dma_bytes),
            (1, 1, 64)
        );
        assert_eq!(continuing.retired(), 1);
    }

    #[test]
    fn execution_probe_runs_bit_true_on_a_cnn_prefix() {
        let (layers, input) = execution_probe(NetworkId::AlexNet, BitwidthPolicy::Heterogeneous);
        let d = diff_execution(
            "alexnet-probe",
            &layers,
            &input,
            MachineConfig::bpvec_ddr4(),
        )
        .expect("probe executes");
        assert!(d.is_clean(), "{d}");
        assert!(d.bit_true);
    }
}
