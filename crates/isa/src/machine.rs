//! The instruction-level machine model.
//!
//! Two timelines advance as a program executes: the **DMA engine** (bounded
//! by off-chip bandwidth) and the **compute array** (bounded by the
//! design's MAC throughput at the current precision). Double buffering lets
//! a `MatMul` overlap the *next* tiles' DMA: a compute instruction only
//! waits for DMA issued before the previous [`Instruction::Barrier`].
//!
//! The machine's aggregate results (cycles, traffic) are cross-validated
//! against the analytical engine in `bpvec-sim` — the two models must agree
//! for every Table I layer, or one of them is wrong ([`crate::diff`] runs
//! that comparison over the full paper grid).
//!
//! Lower a layer, run it, inspect cycles:
//!
//! ```
//! use bpvec_dnn::{BitwidthPolicy, Network, NetworkId};
//! use bpvec_isa::{try_lower_layer, Machine, MachineConfig};
//!
//! let config = MachineConfig::bpvec_ddr4();
//! let net = Network::build(NetworkId::ResNet18, BitwidthPolicy::Heterogeneous);
//! let working = config.accel.scratchpad.working_bytes();
//!
//! let program = try_lower_layer(&net.layers[0], working, /* batch */ 4)?;
//! let report = Machine::new(config).try_run(&program)?;
//!
//! assert!(report.cycles > 0.0);
//! assert_eq!(report.macs, net.layers[0].macs() * 4);
//! assert_eq!(report.traffic_bytes, program.dma_bytes());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use bpvec_core::BitWidth;
use bpvec_sim::{AcceleratorConfig, DramSpec};
use serde::Serialize;
use std::fmt;

use crate::inst::Instruction;
use crate::program::Program;

/// A program fault the machine refuses to execute.
///
/// [`Machine::try_run`] validates a program before touching any machine
/// state, so a trapped program leaves the machine exactly as it was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Trap {
    /// A DMA transfer extends past the double-buffered working set.
    ScratchpadOverflow {
        /// Index of the offending instruction within the program.
        index: usize,
        /// The transfer's scratchpad offset in bytes.
        offset: u32,
        /// The transfer's length in bytes.
        bytes: u32,
        /// The working-set limit the transfer exceeded.
        limit: u64,
    },
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Trap::ScratchpadOverflow {
                index,
                offset,
                bytes,
                limit,
            } => write!(
                f,
                "instruction {index}: DMA of {bytes} B at offset {offset} \
                 exceeds the {limit}-byte working set"
            ),
        }
    }
}

impl std::error::Error for Trap {}

/// Machine parameters: which accelerator executes and over which memory.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct MachineConfig {
    /// The compute platform (Table II column).
    pub accel: AcceleratorConfig,
    /// The off-chip memory system.
    pub dram: DramSpec,
}

impl MachineConfig {
    /// BPVeC over DDR4 — the default evaluation point.
    #[must_use]
    pub fn bpvec_ddr4() -> Self {
        MachineConfig {
            accel: AcceleratorConfig::bpvec(),
            dram: DramSpec::ddr4(),
        }
    }

    fn dma_bytes_per_cycle(&self) -> f64 {
        self.dram.bandwidth_gb_s * 1e9 / (self.accel.freq_mhz * 1e6)
    }
}

/// Aggregate results of one program execution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct RunReport {
    /// Total cycles until both timelines drain.
    pub cycles: f64,
    /// Cycles the compute array was busy.
    pub compute_cycles: f64,
    /// Cycles the DMA engine was busy.
    pub dma_cycles: f64,
    /// Bytes moved over the off-chip interface.
    pub traffic_bytes: u64,
    /// MACs executed.
    pub macs: u64,
    /// Instructions retired.
    pub instructions: usize,
}

impl RunReport {
    /// Wall-clock seconds at the machine's core frequency.
    #[must_use]
    pub fn seconds(&self, config: &MachineConfig) -> f64 {
        self.cycles / (config.accel.freq_mhz * 1e6)
    }
}

/// The instruction interpreter.
#[derive(Debug, Clone)]
pub struct Machine {
    config: MachineConfig,
    // Architectural state.
    act_bits: BitWidth,
    weight_bits: BitWidth,
    // Timelines (in cycles).
    dma_time: f64,
    compute_time: f64,
    // DMA horizon a MatMul must respect (set at the last Barrier).
    dma_at_last_barrier: f64,
    // Accumulators.
    compute_busy: f64,
    dma_busy: f64,
    traffic: u64,
    macs: u64,
    retired: usize,
}

impl Machine {
    /// Creates a machine in the 8-bit × 8-bit reset state.
    #[must_use]
    pub fn new(config: MachineConfig) -> Self {
        Machine {
            config,
            act_bits: BitWidth::INT8,
            weight_bits: BitWidth::INT8,
            dma_time: 0.0,
            compute_time: 0.0,
            dma_at_last_barrier: 0.0,
            compute_busy: 0.0,
            dma_busy: 0.0,
            traffic: 0,
            macs: 0,
            retired: 0,
        }
    }

    /// The machine's configuration.
    #[must_use]
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Executes one instruction, advancing the timelines.
    // Inlined into the differential harness's one-pass lowering, which
    // otherwise pays an out-of-line call per instruction (about 2x slower).
    #[inline]
    pub fn step(&mut self, inst: &Instruction) {
        self.retired += 1;
        match *inst {
            Instruction::SetPrecision {
                act_bits,
                weight_bits,
            } => {
                self.act_bits = act_bits;
                self.weight_bits = weight_bits;
            }
            Instruction::LoadTile { bytes, .. } | Instruction::StoreTile { bytes, .. } => {
                let cycles = f64::from(bytes) / self.config.dma_bytes_per_cycle();
                self.dma_time += cycles;
                self.dma_busy += cycles;
                self.traffic += u64::from(bytes);
            }
            Instruction::MatMul { m, k, n } => {
                let macs = u64::from(m) * u64::from(k) * u64::from(n);
                let throughput = self
                    .config
                    .accel
                    .macs_per_cycle(self.act_bits, self.weight_bits);
                let cycles = macs as f64 / throughput;
                // Double buffering: this tile's data arrived before the
                // previous barrier; only that horizon gates the start.
                let start = self.compute_time.max(self.dma_at_last_barrier);
                self.compute_time = start + cycles;
                self.compute_busy += cycles;
                self.macs += macs;
            }
            Instruction::Barrier => {
                self.dma_at_last_barrier = self.dma_time;
            }
        }
    }

    /// Runs a whole program and returns the report. The machine keeps its
    /// architectural state (precision) and timelines, so consecutive
    /// programs model consecutive layers on one device; use
    /// [`Machine::run_fresh`] for an isolated measurement.
    pub fn run(&mut self, program: &Program) -> RunReport {
        let before = self.clone();
        for inst in &program.instructions {
            self.step(inst);
        }
        self.report_since(&before)
    }

    /// What this machine did since it was `before`: the cycles from where
    /// `before`'s timelines ended to where this machine's end, and the
    /// growth of every accumulator.
    pub(crate) fn report_since(&self, before: &Machine) -> RunReport {
        let start_cycles = before.dma_time.max(before.compute_time);
        let end_cycles = self.dma_time.max(self.compute_time);
        RunReport {
            cycles: end_cycles - start_cycles,
            compute_cycles: self.compute_busy - before.compute_busy,
            dma_cycles: self.dma_busy - before.dma_busy,
            traffic_bytes: self.traffic - before.traffic,
            macs: self.macs - before.macs,
            instructions: self.retired - before.retired,
        }
    }

    /// The scratchpad bound on one instruction, the `index`-th of its
    /// program: a DMA transfer must end inside the working set.
    #[inline]
    pub(crate) fn check(&self, index: usize, inst: &Instruction) -> Result<(), Trap> {
        if let Instruction::LoadTile {
            dst_offset: offset,
            bytes,
            ..
        }
        | Instruction::StoreTile {
            src_offset: offset,
            bytes,
            ..
        } = *inst
        {
            let limit = self.config.accel.scratchpad.working_bytes();
            if u64::from(offset) + u64::from(bytes) > limit {
                return Err(Trap::ScratchpadOverflow {
                    index,
                    offset,
                    bytes,
                    limit,
                });
            }
        }
        Ok(())
    }

    /// Validates a program against the scratchpad bounds, then runs it.
    ///
    /// Validation happens before any state changes: on a [`Trap`] the
    /// machine is untouched (timelines, accumulators and precision all keep
    /// their prior values). Programs produced by
    /// [`crate::try_lower_layer`] never trap — every lowered DMA transfer
    /// fits the double-buffered working set (fuzzed in
    /// `tests/machine_fuzz.rs`).
    ///
    /// # Errors
    ///
    /// Returns [`Trap::ScratchpadOverflow`] for the first DMA instruction
    /// whose `offset + bytes` extends past the accelerator's working set.
    pub fn try_run(&mut self, program: &Program) -> Result<RunReport, Trap> {
        for (index, inst) in program.instructions.iter().enumerate() {
            self.check(index, inst)?;
        }
        Ok(self.run(program))
    }

    /// Runs a program on a fresh machine with this machine's configuration.
    #[must_use]
    pub fn run_fresh(config: MachineConfig, program: &Program) -> RunReport {
        let mut m = Machine::new(config);
        m.run(program)
    }

    /// Instructions retired since construction.
    #[must_use]
    pub fn retired(&self) -> usize {
        self.retired
    }

    /// The `(dma, compute)` timeline positions in cycles — both
    /// monotonically non-decreasing across [`Machine::step`] calls.
    #[must_use]
    pub fn timelines(&self) -> (f64, f64) {
        (self.dma_time, self.compute_time)
    }

    /// The current `(act_bits, weight_bits)` architectural precision.
    #[must_use]
    pub fn precision(&self) -> (BitWidth, BitWidth) {
        (self.act_bits, self.weight_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{lower_layer, lower_network};
    use bpvec_dnn::layer::{Layer, LayerKind};
    use bpvec_dnn::{BitwidthPolicy, Network, NetworkId};
    use bpvec_sim::{simulate, SimConfig};

    const WORKING: u64 = 57_344;

    fn conv(ic: usize, oc: usize, k: usize, hw: usize) -> Layer {
        Layer::new(
            "conv",
            LayerKind::Conv2d {
                in_channels: ic,
                out_channels: oc,
                kernel: (k, k),
                stride: (1, 1),
                padding: (k / 2, k / 2),
                input_hw: (hw, hw),
            },
        )
    }

    #[test]
    fn compute_bound_layer_runs_at_peak_throughput() {
        let l = conv(64, 64, 3, 28);
        let p = lower_layer(&l, WORKING, 4);
        let r = Machine::run_fresh(MachineConfig::bpvec_ddr4(), &p);
        // 1024 MACs/cycle peak at 8-bit.
        let peak_cycles = r.macs as f64 / 1024.0;
        assert!(r.compute_cycles >= peak_cycles * 0.999);
        assert!(
            r.cycles < 1.4 * peak_cycles,
            "cycles {} vs peak {peak_cycles}",
            r.cycles
        );
    }

    #[test]
    fn set_precision_accelerates_the_same_shape() {
        use bpvec_core::BitWidth;
        let l8 = conv(64, 64, 3, 28);
        let l4 = l8.clone().with_bits(BitWidth::INT4, BitWidth::INT4);
        let cfg = MachineConfig::bpvec_ddr4();
        let r8 = Machine::run_fresh(cfg, &lower_layer(&l8, WORKING, 4));
        let r4 = Machine::run_fresh(cfg, &lower_layer(&l4, WORKING, 4));
        let speedup = r8.cycles / r4.cycles;
        assert!(
            (2.0..=4.5).contains(&speedup),
            "4-bit speedup {speedup} (compute-side is 4x, memory-side 2x)"
        );
    }

    #[test]
    fn machine_agrees_with_the_analytical_engine_per_network() {
        // The two abstraction levels (instruction interpreter vs closed-form
        // engine) must agree on latency within the halo/fill slack, for all
        // six Table I networks under both policies.
        for id in NetworkId::ALL {
            for policy in [BitwidthPolicy::Homogeneous8, BitwidthPolicy::Heterogeneous] {
                let net = Network::build(id, policy);
                let sim_cfg = SimConfig::new(AcceleratorConfig::bpvec(), DramSpec::ddr4());
                let engine = simulate(&net, &sim_cfg);
                let b = engine.batch;
                let mut machine = Machine::new(MachineConfig::bpvec_ddr4());
                let mut machine_s = 0.0;
                for p in lower_network(&net, WORKING, b) {
                    machine_s += machine.run(&p).seconds(machine.config());
                }
                let machine_per_inf = machine_s / b as f64;
                let ratio = machine_per_inf / engine.latency_s;
                assert!(
                    (0.8..=1.6).contains(&ratio),
                    "{id} {policy:?}: machine {machine_per_inf:.5}s vs engine {:.5}s (ratio {ratio:.2})",
                    engine.latency_s
                );
            }
        }
    }

    #[test]
    fn traffic_matches_the_program_exactly() {
        let l = conv(32, 64, 3, 14);
        let p = lower_layer(&l, WORKING, 2);
        let r = Machine::run_fresh(MachineConfig::bpvec_ddr4(), &p);
        assert_eq!(r.traffic_bytes, p.dma_bytes());
        assert_eq!(r.macs, p.matmul_macs());
        assert_eq!(r.instructions, p.len());
    }

    #[test]
    fn double_buffering_overlaps_dma_and_compute() {
        // A balanced layer must finish in well under compute + dma serial
        // time.
        let l = conv(128, 128, 3, 14);
        let p = lower_layer(&l, WORKING, 1);
        let r = Machine::run_fresh(MachineConfig::bpvec_ddr4(), &p);
        let serial = r.compute_cycles + r.dma_cycles;
        assert!(
            r.cycles < 0.9 * serial,
            "cycles {} vs serial {serial} — no overlap happened",
            r.cycles
        );
    }

    #[test]
    fn memory_bound_program_is_gated_by_dma() {
        let l = Layer::new(
            "rnn",
            LayerKind::Recurrent {
                input_size: 1024,
                hidden_size: 1024,
                gates: 1,
                seq_len: 4,
            },
        );
        let p = lower_layer(&l, WORKING, 1);
        let r = Machine::run_fresh(MachineConfig::bpvec_ddr4(), &p);
        assert!(
            r.cycles >= r.dma_cycles * 0.999,
            "memory-bound run must take at least the DMA time"
        );
        assert!(r.dma_cycles > 5.0 * r.compute_cycles);
    }

    #[test]
    fn try_run_traps_on_oversized_dma_without_touching_state() {
        let mut m = Machine::new(MachineConfig::bpvec_ddr4());
        let limit = m.config().accel.scratchpad.working_bytes();
        let bad = Program {
            name: "bad".into(),
            instructions: vec![Instruction::LoadTile {
                dst_offset: 0,
                bytes: u32::try_from(limit).unwrap() + 1,
                buffer: 0,
            }],
        };
        let err = m.try_run(&bad).unwrap_err();
        assert!(matches!(err, Trap::ScratchpadOverflow { index: 0, .. }));
        assert_eq!(m.retired(), 0, "a trapped program must not execute");
        assert_eq!(m.timelines(), (0.0, 0.0));
    }

    #[test]
    fn lowered_programs_never_trap() {
        let mut m = Machine::new(MachineConfig::bpvec_ddr4());
        let working = m.config().accel.scratchpad.working_bytes();
        let net = Network::build(NetworkId::AlexNet, BitwidthPolicy::Homogeneous8);
        for p in lower_network(&net, working, 16) {
            let report = m.try_run(&p).expect("lowered programs satisfy the bounds");
            assert_eq!(report.traffic_bytes, p.dma_bytes());
        }
    }

    #[test]
    fn hbm2_machine_is_faster_on_memory_bound_work() {
        let l = Layer::new(
            "rnn",
            LayerKind::Recurrent {
                input_size: 1024,
                hidden_size: 1024,
                gates: 1,
                seq_len: 4,
            },
        );
        let p = lower_layer(&l, WORKING, 1);
        let ddr = Machine::run_fresh(MachineConfig::bpvec_ddr4(), &p);
        let hbm = Machine::run_fresh(
            MachineConfig {
                accel: AcceleratorConfig::bpvec(),
                dram: DramSpec::hbm2(),
            },
            &p,
        );
        assert!(hbm.cycles < ddr.cycles / 4.0);
    }
}
