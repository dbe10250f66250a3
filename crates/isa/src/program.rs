//! Lowering: network layers → instruction streams.
//!
//! Each compute layer becomes the loop nest its tiling decision implies
//! (weight-stationary, double-buffered): weights load once per
//! (output-channel × input-channel) tile pair, inputs re-load per
//! output-channel pass, partial sums spill when input channels are tiled —
//! the same schedule `bpvec-sim::tiling` costs analytically, now made
//! explicit instruction by instruction.
//!
//! The attention GEMMs (`MatMulQK`, `AttentionV`) lower to KV-stationary
//! loop nests mirroring the analytic schedule exactly: per batch item and
//! head, the K (or V) operand is loaded once — or re-streamed per query-row
//! tile when one head's K/V exceeds half the working set — while query (or
//! probability) rows stream through in scratchpad-sized slabs. Softmax,
//! layer-norm, GELU and pooling are pure chunked DMA: their activations
//! cross the interface once, in and out, exactly as the traffic model
//! charges them.
//!
//! Every DMA transfer a lowered program issues fits the double-buffered
//! working set, so [`crate::Machine::try_run`] never traps on the output of
//! [`try_lower_layer`] (fuzzed in `tests/machine_fuzz.rs`).
//!
//! The lowering writes into a crate-private instruction sink: a `Vec`
//! collects the [`Program`] the public functions return, and the
//! differential harness ([`crate::diff`]) steps its machines with each
//! instruction as it is produced instead.

use bpvec_dnn::layer::{Layer, LayerKind};
use bpvec_dnn::Network;
use bpvec_sim::tiling;
use serde::{Deserialize, Serialize};
use std::fmt;

use crate::inst::Instruction;

/// An instruction stream plus provenance metadata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Program {
    /// Human-readable origin (network/layer names).
    pub name: String,
    /// The instructions in issue order.
    pub instructions: Vec<Instruction>,
}

impl Program {
    /// Number of instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// True for an empty program.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// Total bytes moved by DMA instructions (load + store).
    #[must_use]
    pub fn dma_bytes(&self) -> u64 {
        self.instructions
            .iter()
            .map(|i| match *i {
                Instruction::LoadTile { bytes, .. } | Instruction::StoreTile { bytes, .. } => {
                    u64::from(bytes)
                }
                _ => 0,
            })
            .sum()
    }

    /// Number of DMA instructions (loads + stores) — the rounding slack of
    /// the byte accounting: each transfer rounds its payload up to a whole
    /// byte independently, so [`Program::dma_bytes`] can exceed the
    /// analytic [`bpvec_sim::tiling::layer_traffic`] total (which rounds
    /// once over each aggregate term) by at most this many bytes for
    /// halo-free layers.
    #[must_use]
    pub fn dma_ops(&self) -> u64 {
        self.instructions
            .iter()
            .filter(|i| {
                matches!(
                    i,
                    Instruction::LoadTile { .. } | Instruction::StoreTile { .. }
                )
            })
            .count() as u64
    }

    /// Total MACs issued by `MatMul` instructions.
    #[must_use]
    pub fn matmul_macs(&self) -> u64 {
        self.instructions
            .iter()
            .map(|i| match *i {
                Instruction::MatMul { m, k, n } => u64::from(m) * u64::from(k) * u64::from(n),
                _ => 0,
            })
            .sum()
    }

    /// Encodes the whole program to binary words.
    #[must_use]
    pub fn encode(&self) -> Vec<[u64; 2]> {
        self.instructions.iter().map(Instruction::encode).collect()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "; {} ({} instructions)", self.name, self.len())?;
        for inst in &self.instructions {
            writeln!(f, "  {inst}")?;
        }
        Ok(())
    }
}

/// Where lowering writes its instructions, in issue order.
pub(crate) trait Sink {
    /// Takes the next instruction.
    fn push(&mut self, inst: Instruction);
}

impl Sink for Vec<Instruction> {
    fn push(&mut self, inst: Instruction) {
        Vec::push(self, inst);
    }
}

/// Ceil-bytes of `elems` elements at `bits` bits each.
fn byte_len(elems: u64, bits: u32) -> u64 {
    elems.saturating_mul(u64::from(bits)).div_ceil(8)
}

/// An operand that overflows an instruction field (pre-layer-name form).
struct Oversize {
    what: &'static str,
    value: u64,
}

fn field_u32(what: &'static str, value: u64) -> Result<u32, Oversize> {
    u32::try_from(value).map_err(|_| Oversize { what, value })
}

/// A layer the lowering pass cannot compile.
///
/// Every built-in [`LayerKind`] lowers today — including the attention-era
/// kinds (`MatMulQK`/`AttentionV` as KV-stationary GEMM nests,
/// `Softmax`/`LayerNorm`/`Gelu` as streaming DMA) — so
/// [`LowerError::UnsupportedKind`] is reserved for future kinds; the error
/// a caller can still hit is [`LowerError::OperandTooLarge`], when a tile
/// dimension or DMA payload overflows a 32-bit instruction field.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LowerError {
    /// A layer kind with no ISA loop nest.
    UnsupportedKind {
        /// The offending layer's name.
        layer: String,
        /// Its kind name (`matmul-qk`, `softmax`, ...).
        kind: String,
    },
    /// A tile operand exceeds an encodable 32-bit instruction field.
    OperandTooLarge {
        /// The offending layer's name.
        layer: String,
        /// Which operand overflowed (`"weight tile"`, `"matmul n"`, ...).
        what: &'static str,
        /// The value that did not fit.
        value: u64,
    },
}

impl LowerError {
    /// The offending layer's name.
    #[must_use]
    pub fn layer(&self) -> &str {
        match self {
            LowerError::UnsupportedKind { layer, .. }
            | LowerError::OperandTooLarge { layer, .. } => layer,
        }
    }
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerError::UnsupportedKind { layer, kind } => {
                write!(f, "layer `{layer}`: kind `{kind}` has no ISA lowering")
            }
            LowerError::OperandTooLarge { layer, what, value } => write!(
                f,
                "layer `{layer}`: {what} of {value} overflows a 32-bit instruction field"
            ),
        }
    }
}

impl std::error::Error for LowerError {}

/// Emits `total` bytes of DMA as transfers no larger than `half` (one
/// scratchpad buffer), alternating the double-buffer halves. Traffic is
/// preserved exactly: the chunks sum to `total`.
fn push_chunked(
    code: &mut impl Sink,
    what: &'static str,
    total: u64,
    half: u64,
    load: bool,
) -> Result<(), Oversize> {
    let cap = half.max(1).min(u64::from(u32::MAX));
    let mut remaining = total;
    let mut c = 0u64;
    while remaining > 0 {
        let this = remaining.min(cap);
        remaining -= this;
        let bytes = field_u32(what, this)?;
        let buffer = (c % 2) as u8;
        code.push(if load {
            Instruction::LoadTile {
                dst_offset: 0,
                bytes,
                buffer,
            }
        } else {
            Instruction::StoreTile {
                src_offset: 0,
                bytes,
                buffer,
            }
        });
        c += 1;
    }
    Ok(())
}

/// Lowers one layer at batch `b` under `working_bytes` of scratchpad.
///
/// Pooling and the normalization/activation kinds (`Softmax`, `LayerNorm`,
/// `Gelu`) become pure DMA (activations in, activations out, in
/// buffer-sized chunks); the GEMM kinds become the double-buffered loop
/// nests their [`bpvec_sim::tiling`] decision implies.
///
/// # Errors
///
/// Returns [`LowerError::OperandTooLarge`] when a tile dimension or DMA
/// payload overflows a 32-bit instruction field (astronomically sized
/// layers only — every Table I and ViT/BERT shape lowers).
///
/// # Examples
///
/// Lower a ResNet-style layer and execute it on the machine model:
///
/// ```
/// use bpvec_dnn::layer::{Layer, LayerKind};
/// use bpvec_isa::{try_lower_layer, Machine, MachineConfig};
///
/// let layer = Layer::new(
///     "layer2.0.conv1",
///     LayerKind::Conv2d {
///         in_channels: 64,
///         out_channels: 128,
///         kernel: (3, 3),
///         stride: (2, 2),
///         padding: (1, 1),
///         input_hw: (56, 56),
///     },
/// );
/// let program = try_lower_layer(&layer, 57_344, 1)?;
/// let report = Machine::run_fresh(MachineConfig::bpvec_ddr4(), &program);
/// assert_eq!(report.macs, layer.macs());
/// assert!(report.cycles > 0.0);
/// # Ok::<(), bpvec_isa::LowerError>(())
/// ```
pub fn try_lower_layer(layer: &Layer, working_bytes: u64, b: u64) -> Result<Program, LowerError> {
    let mut instructions = Vec::new();
    lower_into(&mut instructions, layer, working_bytes, b)?;
    Ok(Program {
        name: layer.name.clone(),
        instructions,
    })
}

/// [`try_lower_layer`] into any [`Sink`]. On an error the sink has taken
/// every instruction issued before the one that failed to encode.
pub(crate) fn lower_into(
    code: &mut impl Sink,
    layer: &Layer,
    working_bytes: u64,
    b: u64,
) -> Result<(), LowerError> {
    code.push(Instruction::SetPrecision {
        act_bits: layer.act_bits,
        weight_bits: layer.weight_bits,
    });
    let ab = layer.act_bits.bits();
    let wb = layer.weight_bits.bits();
    let half = (working_bytes / 2).max(1);
    let oversize = |e: Oversize| LowerError::OperandTooLarge {
        layer: layer.name.clone(),
        what: e.what,
        value: e.value,
    };
    match layer.kind {
        LayerKind::Conv2d {
            in_channels,
            out_channels,
            kernel,
            stride,
            input_hw,
            ..
        } => {
            let t = tiling::layer_tiling(layer, working_bytes, b);
            let (oh, ow) = layer.output_hw().expect("conv output");
            lower_conv_nest(
                code,
                &ConvNest {
                    in_c: in_channels,
                    out_c: out_channels,
                    kh: kernel.0,
                    kw: kernel.1,
                    stride: stride.0,
                    in_w: input_hw.1,
                    oh,
                    ow,
                    oc_t: t.oc_tile,
                    ic_t: t.ic_tile,
                    oh_t: t.oh_tile,
                    ab,
                    wb,
                    b,
                },
            )
            .map_err(oversize)?;
        }
        LayerKind::FullyConnected {
            in_features,
            out_features,
        } => {
            let t = tiling::layer_tiling(layer, working_bytes, b);
            lower_conv_nest(
                code,
                &ConvNest {
                    in_c: in_features,
                    out_c: out_features,
                    kh: 1,
                    kw: 1,
                    stride: 1,
                    in_w: 1,
                    oh: 1,
                    ow: 1,
                    oc_t: t.oc_tile,
                    ic_t: t.ic_tile,
                    oh_t: t.oh_tile,
                    ab,
                    wb,
                    b,
                },
            )
            .map_err(oversize)?;
        }
        LayerKind::Pool {
            channels, input_hw, ..
        } => {
            let (oh, ow) = layer.output_hw().expect("pool output");
            (|| {
                push_chunked(
                    code,
                    "pool input",
                    byte_len(b * (channels * input_hw.0 * input_hw.1) as u64, ab),
                    half,
                    true,
                )?;
                push_chunked(
                    code,
                    "pool output",
                    byte_len(b * (channels * oh * ow) as u64, ab),
                    half,
                    false,
                )
            })()
            .map_err(oversize)?;
            code.push(Instruction::Barrier);
        }
        LayerKind::Recurrent {
            input_size,
            hidden_size,
            gates,
            seq_len,
        } => {
            let w_bytes = byte_len(
                (gates * hidden_size * (input_size + hidden_size)) as u64,
                wb,
            );
            let on_chip = w_bytes <= working_bytes;
            (|| {
                for t in 0..seq_len {
                    // Stream the weight matrix (in buffer-sized chunks)
                    // unless it fits on chip, in which case only the first
                    // step loads.
                    if t == 0 || !on_chip {
                        push_chunked(code, "recurrent weights", w_bytes, half, true)?;
                    }
                    // x_t and h_{t-1} in, h_t (and c_t) out.
                    push_chunked(
                        code,
                        "recurrent state in",
                        byte_len(b * (input_size + hidden_size) as u64, ab),
                        half,
                        true,
                    )?;
                    code.push(Instruction::MatMul {
                        m: field_u32("matmul m", (gates * hidden_size) as u64)?,
                        k: field_u32("matmul k", (input_size + hidden_size) as u64)?,
                        n: field_u32("matmul n", b)?,
                    });
                    push_chunked(
                        code,
                        "recurrent state out",
                        byte_len(b * hidden_size as u64, ab),
                        half,
                        false,
                    )?;
                    code.push(Instruction::Barrier);
                }
                Ok(())
            })()
            .map_err(oversize)?;
        }
        LayerKind::MatMulQK {
            heads,
            q_len,
            kv_len,
            head_dim,
        } => {
            // scores = Q · Kᵀ per head: K [kv_len × head_dim] stationary,
            // Q rows stream, scores [q_len × kv_len] out.
            lower_attention_gemm(
                code,
                &AttnGemm {
                    heads,
                    q_rows: q_len,
                    red: head_dim,
                    kv_rows: kv_len,
                    kv_cols: head_dim,
                    out_cols: kv_len,
                    ab,
                    wb,
                    b,
                },
                working_bytes,
            )
            .map_err(oversize)?;
        }
        LayerKind::AttentionV {
            heads,
            q_len,
            kv_len,
            head_dim,
        } => {
            // context = P · V per head: V [kv_len × head_dim] stationary,
            // probability rows stream, context [q_len × head_dim] out.
            lower_attention_gemm(
                code,
                &AttnGemm {
                    heads,
                    q_rows: q_len,
                    red: kv_len,
                    kv_rows: kv_len,
                    kv_cols: head_dim,
                    out_cols: head_dim,
                    ab,
                    wb,
                    b,
                },
                working_bytes,
            )
            .map_err(oversize)?;
        }
        LayerKind::Softmax { .. } | LayerKind::LayerNorm { .. } | LayerKind::Gelu { .. } => {
            // Memory-bound normalization/activation ops: the activations
            // stream through the core exactly once, in and out, like
            // pooling — no array work, so no MatMul.
            (|| {
                push_chunked(
                    code,
                    "activation input",
                    byte_len(b * layer.input_elems(), ab),
                    half,
                    true,
                )?;
                push_chunked(
                    code,
                    "activation output",
                    byte_len(b * layer.output_elems(), ab),
                    half,
                    false,
                )
            })()
            .map_err(oversize)?;
            code.push(Instruction::Barrier);
        }
    }
    Ok(())
}

/// Infallible [`try_lower_layer`].
///
/// # Panics
///
/// Panics on a [`LowerError`] (an operand overflowing an instruction
/// field); use [`try_lower_layer`] for fallible lowering.
#[must_use]
pub fn lower_layer(layer: &Layer, working_bytes: u64, b: u64) -> Program {
    match try_lower_layer(layer, working_bytes, b) {
        Ok(p) => p,
        Err(e) => panic!("{e}"),
    }
}

struct ConvNest {
    in_c: usize,
    out_c: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    in_w: usize,
    oh: usize,
    ow: usize,
    oc_t: usize,
    ic_t: usize,
    oh_t: usize,
    ab: u32,
    wb: u32,
    b: u64,
}

fn lower_conv_nest(code: &mut impl Sink, n: &ConvNest) -> Result<(), Oversize> {
    let n_oc = n.out_c.div_ceil(n.oc_t);
    let n_ic = n.in_c.div_ceil(n.ic_t);
    let n_oh = n.oh.div_ceil(n.oh_t);
    for oc in 0..n_oc {
        let oc_size = n.oc_t.min(n.out_c - oc * n.oc_t);
        for ic in 0..n_ic {
            let ic_size = n.ic_t.min(n.in_c - ic * n.ic_t);
            // Weight tile: stationary across the spatial loop.
            code.push(Instruction::LoadTile {
                dst_offset: 0,
                bytes: field_u32(
                    "weight tile",
                    byte_len((oc_size * ic_size * n.kh * n.kw) as u64, n.wb),
                )?,
                buffer: 0,
            });
            for ohi in 0..n_oh {
                let oh_size = n.oh_t.min(n.oh - ohi * n.oh_t);
                let in_rows = (oh_size - 1) * n.stride + n.kh;
                code.push(Instruction::LoadTile {
                    dst_offset: 0,
                    bytes: field_u32(
                        "input tile",
                        byte_len(n.b * (ic_size * in_rows * n.in_w) as u64, n.ab),
                    )?,
                    buffer: (ohi % 2) as u8,
                });
                // Partial sums spill when input channels are tiled.
                let out_bytes = field_u32(
                    "output tile",
                    byte_len(n.b * (oc_size * oh_size * n.ow) as u64, n.ab),
                )?;
                if n_ic > 1 && ic > 0 {
                    code.push(Instruction::LoadTile {
                        dst_offset: 0,
                        bytes: out_bytes,
                        buffer: (ohi % 2) as u8,
                    });
                }
                code.push(Instruction::MatMul {
                    m: field_u32("matmul m", oc_size as u64)?,
                    k: field_u32("matmul k", (ic_size * n.kh * n.kw) as u64)?,
                    n: field_u32("matmul n", n.b * (oh_size * n.ow) as u64)?,
                });
                code.push(Instruction::StoreTile {
                    src_offset: 0,
                    bytes: out_bytes,
                    buffer: (ohi % 2) as u8,
                });
                code.push(Instruction::Barrier);
            }
        }
    }
    Ok(())
}

/// One attention GEMM's shape, bits and batch: a streaming operand
/// `[q_rows × red]` at `ab` meets a per-request stationary operand
/// `[kv_rows × kv_cols]` at `wb`, producing `[q_rows × out_cols]` at `ab`
/// — per head, per batch item (K/V never amortize over the batch).
struct AttnGemm {
    heads: usize,
    q_rows: usize,
    red: usize,
    kv_rows: usize,
    kv_cols: usize,
    out_cols: usize,
    ab: u32,
    wb: u32,
    b: u64,
}

/// Lowers one attention GEMM to the KV-stationary loop nest behind
/// `bpvec_sim::tiling::layer_tiling`'s attention schedule: when one head's
/// stationary operand fits half the working set it loads once per
/// (batch item × head) and query rows stream through in buffer-sized
/// slabs; otherwise the stationary operand re-streams once per row tile,
/// with the tile sized so a row slab plus its output fits the other half.
fn lower_attention_gemm(
    code: &mut impl Sink,
    g: &AttnGemm,
    working_bytes: u64,
) -> Result<(), Oversize> {
    let half = (working_bytes / 2).max(1);
    let stationary = byte_len((g.kv_rows * g.kv_cols) as u64, g.wb);
    let row_bytes = byte_len((g.red + g.out_cols) as u64, g.ab).max(1);
    let resident = stationary <= half;
    // Mirrors `attention_gemm_tiling`: in the streaming case the row tile
    // (and so the pass count) must match the analytic choice exactly; in
    // the resident case the slab split only sizes DMA transfers and moves
    // no extra bytes.
    let slab = usize::try_from((half / row_bytes).max(1))
        .unwrap_or(1)
        .min(g.q_rows)
        .max(1);
    let n_slabs = g.q_rows.div_ceil(slab);
    let mat_k = field_u32("matmul k", g.red as u64)?;
    let mat_n = field_u32("matmul n", g.out_cols as u64)?;
    for _item in 0..g.b {
        for _h in 0..g.heads {
            for s in 0..n_slabs {
                if s == 0 || !resident {
                    push_chunked(code, "stationary K/V tile", stationary, half, true)?;
                }
                let rows = slab.min(g.q_rows - s * slab);
                push_chunked(
                    code,
                    "query-row slab",
                    byte_len((rows * g.red) as u64, g.ab),
                    half,
                    true,
                )?;
                code.push(Instruction::MatMul {
                    m: field_u32("matmul m", rows as u64)?,
                    k: mat_k,
                    n: mat_n,
                });
                push_chunked(
                    code,
                    "output slab",
                    byte_len((rows * g.out_cols) as u64, g.ab),
                    half,
                    false,
                )?;
                code.push(Instruction::Barrier);
            }
        }
    }
    Ok(())
}

/// Lowers a whole network into one program per layer.
///
/// # Errors
///
/// Returns the first [`LowerError`] (an operand overflowing an instruction
/// field — every built-in kind has a lowering).
pub fn try_lower_network(
    network: &Network,
    working_bytes: u64,
    b: u64,
) -> Result<Vec<Program>, LowerError> {
    network
        .layers
        .iter()
        .map(|l| try_lower_layer(l, working_bytes, b))
        .collect()
}

/// Infallible [`try_lower_network`].
///
/// # Panics
///
/// Panics on a [`LowerError`] (see [`try_lower_network`]).
#[must_use]
pub fn lower_network(network: &Network, working_bytes: u64, b: u64) -> Vec<Program> {
    match try_lower_network(network, working_bytes, b) {
        Ok(ps) => ps,
        Err(e) => panic!("{e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpvec_core::BitWidth;
    use bpvec_dnn::{BitwidthPolicy, NetworkId};

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
    fn program_macs_equal_layer_macs() {
        let l = conv(64, 64, 3, 28);
        let p = lower_layer(&l, WORKING, 4);
        assert_eq!(p.matmul_macs(), l.macs() * 4);
    }

    #[test]
    fn program_traffic_tracks_the_tiling_estimate() {
        // The instruction stream's DMA bytes must match the analytic
        // estimate up to halo overlap (the analytic model ignores the
        // kernel-height halo rows each spatial tile re-reads).
        for l in [
            conv(64, 64, 3, 28),
            conv(16, 128, 1, 14),
            conv(3, 64, 7, 56),
        ] {
            let analytic = tiling::layer_traffic(&l, WORKING, 4);
            let program = lower_layer(&l, WORKING, 4).dma_bytes();
            assert!(
                program >= analytic,
                "program {program} cannot beat the halo-free estimate {analytic}"
            );
            assert!(
                program < 2 * analytic,
                "program {program} too far above estimate {analytic}"
            );
        }
    }

    #[test]
    fn first_instruction_sets_the_layer_precision() {
        let l = conv(8, 8, 3, 8).with_bits(BitWidth::INT4, BitWidth::INT2);
        let p = lower_layer(&l, WORKING, 1);
        assert_eq!(
            p.instructions[0],
            Instruction::SetPrecision {
                act_bits: BitWidth::INT4,
                weight_bits: BitWidth::INT2,
            }
        );
    }

    #[test]
    fn partial_sum_spills_appear_only_when_input_channels_tile() {
        // Small layer: everything fits, one (oc, ic) pass, no psum loads.
        let small = lower_layer(&conv(8, 8, 3, 8), WORKING, 1);
        let loads = small
            .instructions
            .iter()
            .filter(|i| matches!(i, Instruction::LoadTile { .. }))
            .count();
        assert_eq!(loads, 2, "weight tile + input tile only:\n{small}");
    }

    #[test]
    fn recurrent_program_streams_weights_every_step() {
        let l = Layer::new(
            "rnn",
            LayerKind::Recurrent {
                input_size: 512,
                hidden_size: 512,
                gates: 1,
                seq_len: 3,
            },
        );
        let p = lower_layer(&l, WORKING, 1);
        let w_bytes = (2 * 512 * 512) as u64;
        assert!(p.dma_bytes() >= 3 * w_bytes);
        assert_eq!(p.matmul_macs(), l.macs());
    }

    #[test]
    fn tiny_recurrent_layer_loads_weights_once() {
        let l = Layer::new(
            "rnn-small",
            LayerKind::Recurrent {
                input_size: 32,
                hidden_size: 32,
                gates: 1,
                seq_len: 10,
            },
        );
        let p = lower_layer(&l, WORKING, 1);
        let w_bytes = (2 * 32 * 32) as u64;
        assert!(p.dma_bytes() < w_bytes + 10 * 200);
    }

    #[test]
    fn whole_network_lowers_with_one_program_per_layer() {
        let net = Network::build(NetworkId::ResNet18, BitwidthPolicy::Heterogeneous);
        let progs = lower_network(&net, WORKING, 1);
        assert_eq!(progs.len(), net.layers.len());
        let total_macs: u64 = progs.iter().map(Program::matmul_macs).sum();
        assert_eq!(total_macs, net.total_macs());
    }

    #[test]
    fn every_dma_transfer_fits_the_working_set() {
        // The trap contract behind `Machine::try_run`: no lowered transfer
        // may exceed the double-buffered working set. Pooling a big early
        // CNN stage at serving batch is the historical offender (one
        // monolithic activation DMA), so Table I AlexNet at batch 16 is the
        // regression shape.
        let net = Network::build(NetworkId::AlexNet, BitwidthPolicy::Homogeneous8);
        for p in lower_network(&net, WORKING, 16) {
            for inst in &p.instructions {
                if let Instruction::LoadTile { bytes, .. } | Instruction::StoreTile { bytes, .. } =
                    *inst
                {
                    assert!(
                        u64::from(bytes) <= WORKING,
                        "{}: {bytes}-byte DMA exceeds the {WORKING}-byte working set",
                        p.name
                    );
                }
            }
        }
    }

    #[test]
    fn attention_kinds_lower_to_kv_stationary_gemm_nests() {
        let mut layers = Vec::new();
        bpvec_dnn::transformer_block(&mut layers, "b", 64, 4, 16, 16);
        for l in &layers {
            let p = try_lower_layer(l, WORKING, 2).expect("every block layer lowers");
            assert_eq!(
                p.matmul_macs(),
                l.macs() * 2,
                "{}: program MACs must match the layer",
                l.name
            );
        }
        // A whole transformer network lowers end to end.
        let net = Network::build(NetworkId::BertBase, BitwidthPolicy::Homogeneous8);
        let progs = try_lower_network(&net, WORKING, 1).expect("BERT-Base lowers");
        assert_eq!(progs.len(), net.layers.len());
        let total: u64 = progs.iter().map(Program::matmul_macs).sum();
        assert_eq!(total, net.total_macs());
    }

    #[test]
    fn attention_traffic_matches_the_analytic_schedule() {
        // No halo in attention: program DMA equals the analytic traffic up
        // to the per-transfer byte-rounding slack.
        for (q, kv) in [(16, 16), (128, 128), (1, 2048)] {
            for kind in [
                LayerKind::MatMulQK {
                    heads: 4,
                    q_len: q,
                    kv_len: kv,
                    head_dim: 64,
                },
                LayerKind::AttentionV {
                    heads: 4,
                    q_len: q,
                    kv_len: kv,
                    head_dim: 64,
                },
            ] {
                let l = Layer::new("attn", kind).with_bits(BitWidth::INT8, BitWidth::INT4);
                let p = lower_layer(&l, WORKING, 3);
                let analytic = tiling::layer_traffic(&l, WORKING, 3);
                let program = p.dma_bytes();
                assert!(
                    program >= analytic && program <= analytic + p.dma_ops(),
                    "{kind:?}: program {program} vs analytic {analytic} (slack {})",
                    p.dma_ops()
                );
            }
        }
    }

    #[test]
    fn long_context_attention_restreams_kv_per_row_tile() {
        // One head's K at 4096×64 bytes exceeds half the working set, so
        // the stationary operand must re-stream once per query-row tile —
        // the analytic multi-pass schedule, made explicit.
        let l = Layer::new(
            "qk-long",
            LayerKind::MatMulQK {
                heads: 1,
                q_len: 4096,
                kv_len: 4096,
                head_dim: 64,
            },
        );
        let p = lower_layer(&l, WORKING, 1);
        let analytic = tiling::layer_traffic(&l, WORKING, 1);
        let once = (4096 * 64 + 4096 * 64 + 4096 * 4096) as u64;
        assert!(p.dma_bytes() > once, "K must stream more than once");
        assert!(p.dma_bytes() >= analytic && p.dma_bytes() <= analytic + p.dma_ops());
    }

    #[test]
    fn norm_ops_lower_to_pure_dma() {
        for kind in [
            LayerKind::Softmax {
                rows: 128,
                cols: 128,
            },
            LayerKind::LayerNorm {
                features: 768,
                tokens: 128,
            },
            LayerKind::Gelu { elems: 768 * 128 },
        ] {
            let l = Layer::new("norm", kind);
            let p = lower_layer(&l, WORKING, 4);
            assert_eq!(p.matmul_macs(), 0, "{kind:?} runs no array work");
            let analytic = tiling::layer_traffic(&l, WORKING, 4);
            let program = p.dma_bytes();
            assert!(
                program >= analytic && program <= analytic + p.dma_ops(),
                "{kind:?}: program {program} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn oversized_operands_error_instead_of_panicking() {
        // A (physically absurd) layer whose weight tile overflows the
        // 32-bit DMA field must surface a typed error.
        let l = Layer::new(
            "fc-huge",
            LayerKind::FullyConnected {
                in_features: 1 << 20,
                out_features: 1 << 20,
            },
        );
        let err = try_lower_layer(&l, u64::MAX / 4, 1).unwrap_err();
        assert!(
            matches!(err, LowerError::OperandTooLarge { .. }),
            "expected OperandTooLarge, got {err:?}"
        );
        assert_eq!(err.layer(), "fc-huge");
    }

    #[test]
    fn programs_encode_to_binary_and_display_as_assembly() {
        let p = lower_layer(&conv(8, 8, 3, 8), WORKING, 1);
        let words = p.encode();
        assert_eq!(words.len(), p.len());
        for (word, inst) in words.iter().zip(&p.instructions) {
            assert_eq!(&Instruction::decode(*word).unwrap(), inst);
        }
        let asm = p.to_string();
        assert!(asm.contains("setp"));
        assert!(asm.contains("gemm"));
    }
}
