//! Bit-true execution of whole networks — up to full Table I models — on
//! the systolic CVU array.
//!
//! The analytical engine ([`crate::engine`]) answers "how fast / how much
//! energy"; this module answers "is the arithmetic actually right" for a
//! complete multi-layer pipeline: every convolution, dense and recurrent
//! layer is lowered to GEMMs on the [`crate::systolic::SystolicArray`],
//! with fixed-point requantization and ReLU between layers — exactly the
//! integer pipeline a deployed quantized model runs — and validated
//! against `bpvec-dnn`'s reference operators.
//!
//! Execution runs on the packed bit-plane path
//! ([`SystolicArray::gemm_packed`]). Weights are static, so they are
//! bit-sliced once, at load: [`WeightStore::synthesize`] packs each compute
//! layer's weights into [`bpvec_core::PackedSliceMatrix`] planes at that
//! layer's weight width, and [`NetworkExecutor::execute`] packs only
//! activations, at each layer's activation width, so mixed-precision
//! networks execute without repacking to a uniform width. Every output
//! tile (and, for recurrent layers, every timestep) reuses the packed
//! operands through the word-level slice kernels.
//!
//! Between two GEMMs, `execute` stages operands the way the paper's output
//! stage hands the next layer's CVUs bit-sliced vectors (private module
//! `stage`): a convolution gathers each output position's patch straight
//! into its packed vector ([`bpvec_core::PackedSliceMatrix::pack_gathered`]),
//! with no im2col matrix, and a pointwise one column-packs its input as it
//! stands; requantize with ReLU runs in place on the accumulators, and max
//! pooling, softmax, layer norm and GELU run as passes over slices. A pass
//! over at least [`bpvec_core::PAR_MIN_ELEMS`] elements splits across
//! threads through rayon.
//!
//! [`NetworkExecutor::execute_reference`] is the oracle: it runs the same
//! pipeline through `bpvec_dnn::reference`, which shares no code with those
//! stages, and regenerates each layer's weights from the store's seed, so
//! it never reads the planes either. This is what makes complete Table I
//! networks (e.g. AlexNet at 224×224) executable bit-true in seconds and
//! checkable; the integration tests in `tests/bit_true_table1.rs` do
//! exactly that against the reference pipeline.

use std::sync::OnceLock;

use bpvec_core::{
    kernels, BitWidth, CoreError, CvuConfig, PackedSliceMatrix, Signedness, SliceWidth,
};
use bpvec_dnn::layer::{Layer, LayerKind};
use bpvec_dnn::packing::pack_gemm_rows;
use bpvec_dnn::reference;
use bpvec_dnn::Tensor;

use crate::stage;
use crate::systolic::{packed_tile_geometry, GemmPath, SystolicArray};

/// Deterministic synthetic quantized weights for a layer stack, kept
/// bit-sliced the way the accelerator keeps its static operands.
///
/// Values are derived from `seed` with a splitmix-style hash and fit each
/// layer's declared signed weight range, so any two runs (and the reference
/// pipeline) see identical parameters. [`WeightStore::synthesize`] packs
/// each compute layer's values once, as GEMM rows at the layer's weight
/// width and the paper's 2-bit CVU slicing, and keeps only the packed
/// planes: [`NetworkExecutor::execute`] reads them, while
/// [`NetworkExecutor::execute_reference`] regenerates the `i32` values from
/// the seed.
#[derive(Debug, Clone)]
pub struct WeightStore {
    seed: u64,
    layers: Vec<StoredWeights>,
}

/// One layer's weights: its shape and width, the packed rows (`None` for a
/// layer without parameters), and the `i32` view once
/// [`WeightStore::layer`] has been asked for it.
#[derive(Debug, Clone)]
struct StoredWeights {
    shape: Vec<usize>,
    bits: BitWidth,
    packed: Option<PackedSliceMatrix>,
    view: OnceLock<Tensor>,
}

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The weight shape of a layer, rows first: OIHW for a convolution,
/// `[out, in]` for a dense layer, `[gates·hidden, input + hidden]` for a
/// recurrent cell. `None` for pooling and the attention-era ops: attention
/// GEMMs multiply two activation operands, and normalization/activation ops
/// just move bytes.
fn weight_shape(kind: &LayerKind) -> Option<Vec<usize>> {
    match *kind {
        LayerKind::Conv2d {
            in_channels,
            out_channels,
            kernel,
            ..
        } => Some(vec![out_channels, in_channels, kernel.0, kernel.1]),
        LayerKind::FullyConnected {
            in_features,
            out_features,
        } => Some(vec![out_features, in_features]),
        LayerKind::Recurrent {
            input_size,
            hidden_size,
            gates,
            ..
        } => Some(vec![gates * hidden_size, input_size + hidden_size]),
        LayerKind::Pool { .. }
        | LayerKind::MatMulQK { .. }
        | LayerKind::Softmax { .. }
        | LayerKind::AttentionV { .. }
        | LayerKind::LayerNorm { .. }
        | LayerKind::Gelu { .. } => None,
    }
}

/// The weights of layer `li` of a stack synthesized from `seed`: row-major
/// element `i` is `lo + mix(seed ^ li << 32 ^ i) mod 2^bits`, which spans
/// the signed `bits` range exactly.
fn generate(seed: u64, li: usize, bits: BitWidth, shape: &[usize]) -> Tensor {
    let (lo, hi) = bits.range(Signedness::Signed);
    // The signed span `hi - lo + 1` is a power of two, so masking with
    // `span - 1` reduces modulo it.
    let mask = (hi - lo) as u64;
    let key = seed ^ ((li as u64) << 32);
    let len = shape.iter().product::<usize>() as u64;
    let data = (0..len).map(|i| lo + (mix(key ^ i) & mask) as i32);
    Tensor::from_data(shape, data.collect())
}

impl WeightStore {
    /// Synthesizes weights for every compute layer of `layers` and packs
    /// them at the paper's CVU slicing
    /// ([`CvuConfig::paper_default`]`().slice_width`).
    #[must_use]
    pub fn synthesize(layers: &[Layer], seed: u64) -> Self {
        let slicing = CvuConfig::paper_default().slice_width;
        let layers = layers
            .iter()
            .enumerate()
            .map(|(li, layer)| {
                let bits = layer.weight_bits;
                let (shape, packed) = match weight_shape(&layer.kind) {
                    Some(shape) => {
                        let w = generate(seed, li, bits, &shape);
                        let packed = pack_gemm_rows(&w, bits, slicing, Signedness::Signed)
                            .expect("synthesized weights fit their declared width");
                        (shape, Some(packed))
                    }
                    None => (vec![0], None),
                };
                StoredWeights {
                    shape,
                    bits,
                    packed,
                    view: OnceLock::new(),
                }
            })
            .collect();
        WeightStore { seed, layers }
    }

    /// The weights of layer `index` as an `i32` tensor (empty, of shape
    /// `[0]`, for a layer without parameters). Regenerated from the seed
    /// on the first call and kept for later ones; execution never needs
    /// it.
    #[must_use]
    pub fn layer(&self, index: usize) -> &Tensor {
        self.layers[index]
            .view
            .get_or_init(|| self.regenerate(index))
    }

    /// Layer `index`'s `i32` weights, regenerated from the seed without
    /// touching the packed planes.
    fn regenerate(&self, index: usize) -> Tensor {
        let l = &self.layers[index];
        generate(self.seed, index, l.bits, &l.shape)
    }

    /// Layer `index`'s packed weight rows.
    ///
    /// # Panics
    ///
    /// Panics if the layer has no parameters: the store was synthesized for
    /// a different layer stack.
    fn packed(&self, index: usize) -> &PackedSliceMatrix {
        self.layers[index]
            .packed
            .as_ref()
            .expect("a compute layer's weights are in the store synthesized for its stack")
    }
}

/// Aggregate packed-GEMM schedule of one layer: the tiles its GEMMs walked
/// on each kernel path ([`GemmPath`]). Zero for layers that run no array
/// GEMM (pooling, softmax, norms).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TileTally {
    /// Macro row-tiles of the layer's GEMMs on the lane path.
    pub lane_macro_tiles: u64,
    /// Lane panels those macro-tiles walked.
    pub lane_panels: u64,
    /// Macro row-tiles of the layer's GEMMs on the per-dot path.
    pub per_dot_macro_tiles: u64,
}

impl TileTally {
    /// Tallies the schedule of one `gemm_packed(a, b)` call.
    fn add(&mut self, a: &PackedSliceMatrix, b: &PackedSliceMatrix) {
        let g = packed_tile_geometry(a, b);
        match g.path {
            GemmPath::Lanes => {
                self.lane_macro_tiles += g.macro_row_tiles;
                self.lane_panels += g.lane_panels;
            }
            GemmPath::PerDot => self.per_dot_macro_tiles += g.macro_row_tiles,
        }
    }

    /// Macro row-tiles on either path.
    #[must_use]
    pub fn macro_tiles(&self) -> u64 {
        self.lane_macro_tiles + self.per_dot_macro_tiles
    }
}

impl std::ops::AddAssign for TileTally {
    fn add_assign(&mut self, other: Self) {
        self.lane_macro_tiles += other.lane_macro_tiles;
        self.lane_panels += other.lane_panels;
        self.per_dot_macro_tiles += other.per_dot_macro_tiles;
    }
}

/// Per-layer record of a bit-true execution.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTrace {
    /// Layer name.
    pub name: String,
    /// Systolic-array cycles the layer's GEMMs took (0 for pooling).
    pub cycles: u64,
    /// Operand-level MACs performed.
    pub macs: u64,
    /// MACs the array's packed GEMMs actually issued, summed over the
    /// layer's [`crate::systolic::GemmRun`]s — measured independently of
    /// [`LayerTrace::macs`] (which is the layer's analytic count), so the
    /// two can be differentially cross-checked. Zero for layers with no
    /// array work.
    pub array_macs: u64,
    /// The requantization shift applied to the layer's accumulators.
    pub requant_shift: u32,
    /// The dispatched kernel tier the layer's packed GEMMs actually ran on
    /// ([`bpvec_core::kernels::active_tier`]), `"none"` for layers with no
    /// array work.
    pub kernel: &'static str,
    /// The layer's packed-GEMM schedule.
    pub tiles: TileTally,
}

/// Result of executing a layer stack bit-true.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionTrace {
    /// The final activation tensor.
    pub output: Tensor,
    /// Per-layer records.
    pub layers: Vec<LayerTrace>,
}

impl ExecutionTrace {
    /// Total array cycles over all layers.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.layers.iter().map(|l| l.cycles).sum()
    }

    /// Total operand-level MACs over all layers.
    #[must_use]
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(|l| l.macs).sum()
    }

    /// Total MACs the array's packed GEMMs actually issued — the measured
    /// counterpart of [`ExecutionTrace::total_macs`].
    #[must_use]
    pub fn total_array_macs(&self) -> u64 {
        self.layers.iter().map(|l| l.array_macs).sum()
    }

    /// Records the execution's packed-kernel work into `registry` under
    /// `exec.*`: `exec.layers`/`exec.macs`/`exec.cycles` accumulate as
    /// counters across executions, and each layer's MAC count lands in the
    /// `exec.layer_macs` log-histogram (base 1, so bin `i` covers
    /// `[2^i, 2^(i+1))` MACs).
    ///
    /// Kernel-dispatch and schedule work lands under `exec.kernel.*`:
    /// `exec.kernel.dispatch.<tier>` counts GEMM layers executed on each
    /// dispatched tier (`scalar`/`avx2`/`avx512`, so traces show which
    /// kernel actually ran); `exec.kernel.lanes.{macro_tiles,panels}` and
    /// `exec.kernel.per_dot.macro_tiles` accumulate each kernel path's tile
    /// counts ([`TileTally`]); and the `exec.kernel.lane_words` gauge holds
    /// the active tier's SIMD width in `u64` words.
    pub fn record_metrics(&self, registry: &bpvec_obs::MetricsRegistry) {
        registry.counter_add("exec.layers", self.layers.len() as u64);
        registry.counter_add("exec.macs", self.total_macs());
        registry.counter_add("exec.cycles", self.total_cycles());
        registry.register_histogram("exec.layer_macs", 1.0, 48);
        let mut total = TileTally::default();
        for layer in &self.layers {
            registry.observe("exec.layer_macs", layer.macs as f64);
            if layer.kernel != "none" {
                registry.counter_add(&format!("exec.kernel.dispatch.{}", layer.kernel), 1);
            }
            total += layer.tiles;
        }
        registry.counter_add("exec.kernel.lanes.macro_tiles", total.lane_macro_tiles);
        registry.counter_add("exec.kernel.lanes.panels", total.lane_panels);
        registry.counter_add("exec.kernel.per_dot.macro_tiles", total.per_dot_macro_tiles);
        registry.gauge_set(
            "exec.kernel.lane_words",
            kernels::active_tier().lane_words() as f64,
        );
    }
}

/// Executes layer stacks bit-true on a systolic array of CVUs.
#[derive(Debug, Clone)]
pub struct NetworkExecutor {
    array: SystolicArray,
}

/// The bitwidth a layer's output must be requantized to: the next compute
/// layer's declared activation width (pooling passes values through), or
/// the layer's own width for the final layer.
fn output_bits(layers: &[Layer], li: usize) -> BitWidth {
    layers[li + 1..]
        .iter()
        .find(|l| l.is_compute())
        .map_or(layers[li].act_bits, |l| l.act_bits)
}

/// True when the layer's successor is an attention-era op. Projections
/// feeding attention or normalization must keep their sign, so the usual
/// inter-layer ReLU is suppressed (the block's nonlinearity is GELU).
fn feeds_transformer_op(layers: &[Layer], li: usize) -> bool {
    layers.get(li + 1).is_some_and(|l| {
        matches!(
            l.kind,
            LayerKind::MatMulQK { .. }
                | LayerKind::Softmax { .. }
                | LayerKind::AttentionV { .. }
                | LayerKind::LayerNorm { .. }
                | LayerKind::Gelu { .. }
        )
    })
}

/// Splits a stacked `[3·hidden, q_len]` QKV projection output into its
/// planes for [`NetworkExecutor::execute_reference`]: Q stays at the QK
/// layer's activation width, K requantizes (shift-only) to its weight
/// width, and V to the *downstream* `AttentionV` layer's weight width.
/// [`NetworkExecutor::execute`] requantizes the same two planes in place.
fn split_qkv(
    layers: &[Layer],
    li: usize,
    act: &Tensor,
    hidden: usize,
    q_len: usize,
) -> (Tensor, Tensor, Tensor) {
    let layer = &layers[li];
    let av_bits = layers[li + 1..]
        .iter()
        .find_map(|l| match l.kind {
            LayerKind::AttentionV { .. } => Some(l.weight_bits),
            _ => None,
        })
        .expect("MatMulQK requires a downstream AttentionV layer");
    assert_eq!(act.len(), 3 * hidden * q_len, "stacked QKV input");
    let data = act.as_slice();
    let plane = |p: usize| {
        Tensor::from_data(
            &[hidden, q_len],
            data[p * hidden * q_len..(p + 1) * hidden * q_len].to_vec(),
        )
    };
    let in_bits = layer.act_bits.bits();
    let k_shift = in_bits.saturating_sub(layer.weight_bits.bits());
    let v_shift = in_bits.saturating_sub(av_bits.bits());
    let k = reference::requantize(&plane(1), k_shift, layer.weight_bits, Signedness::Signed);
    let v = reference::requantize(&plane(2), v_shift, av_bits, Signedness::Signed);
    (plane(0), k, v)
}

/// Head `h` of the `QK^T` GEMM: `A = Q_h^T` (`q_len × head_dim`) against
/// `B = K_h` (`head_dim × kv_len`).
fn qk_head(q: &Tensor, k: &Tensor, h: usize, head_dim: usize) -> (Tensor, Tensor) {
    let q_len = q.shape()[1];
    let a = Tensor::from_fn(&[q_len, head_dim], |idx| {
        q[&[h * head_dim + idx[1], idx[0]]]
    });
    let b = Tensor::from_fn(&[head_dim, q_len], |idx| {
        k[&[h * head_dim + idx[0], idx[1]]]
    });
    (a, b)
}

/// Head `h` of the attention·V GEMM: `A = P_h` (`q_len × kv_len`) against
/// `B = V_h^T` (`kv_len × head_dim`).
fn av_head(p: &Tensor, v: &Tensor, h: usize, head_dim: usize, q_len: usize) -> (Tensor, Tensor) {
    let kv_len = p.shape()[1];
    let a = Tensor::from_fn(&[q_len, kv_len], |idx| p[&[h * q_len + idx[0], idx[1]]]);
    let b = Tensor::from_fn(&[kv_len, head_dim], |idx| {
        v[&[h * head_dim + idx[1], idx[0]]]
    });
    (a, b)
}

/// Chooses the smallest right-shift that brings `t`'s extremes into the
/// signed `bits` range — the per-tensor fixed-point calibration step.
pub(crate) fn requant_shift_for(t: &Tensor, bits: BitWidth) -> u32 {
    let (_, hi) = bits.range(Signedness::Signed);
    let mut shift = 0u32;
    let mut max = i64::from(t.max_abs());
    while max > i64::from(hi) {
        max >>= 1;
        shift += 1;
    }
    shift
}

/// Checks that `layer`'s input `act` has the shape `expected`.
fn expect_shape(layer: &Layer, act: &Tensor, expected: &[usize]) -> Result<(), CoreError> {
    if act.shape() == expected {
        Ok(())
    } else {
        Err(shape_mismatch(layer, act, expected))
    }
}

/// Checks that `layer`'s input `act` has as many elements as the shape
/// `expected`: a layer that reads its input flat accepts any shape of
/// that size.
fn expect_len(layer: &Layer, act: &Tensor, expected: &[usize]) -> Result<(), CoreError> {
    if act.len() == expected.iter().product::<usize>() {
        Ok(())
    } else {
        Err(shape_mismatch(layer, act, expected))
    }
}

fn shape_mismatch(layer: &Layer, act: &Tensor, expected: &[usize]) -> CoreError {
    CoreError::LayerShapeMismatch {
        layer: layer.name.clone(),
        expected: expected.to_vec(),
        found: act.shape().to_vec(),
    }
}

fn unsupported(layer: &Layer, reason: &'static str) -> CoreError {
    CoreError::UnsupportedLayer {
        layer: layer.name.clone(),
        reason,
    }
}

impl NetworkExecutor {
    /// Creates an executor over `array`.
    #[must_use]
    pub fn new(array: SystolicArray) -> Self {
        NetworkExecutor { array }
    }

    /// The slice width operands must be packed at — the array's CVU slicing.
    fn slice_width(&self) -> SliceWidth {
        self.array.config().cvu.slice_width
    }

    /// Layer `li`'s packed weight rows from `weights`, checked against this
    /// array's slicing.
    fn packed_weights<'w>(
        &self,
        weights: &'w WeightStore,
        li: usize,
    ) -> Result<&'w PackedSliceMatrix, CoreError> {
        let pw = weights.packed(li);
        if pw.slice_width() == self.slice_width() {
            Ok(pw)
        } else {
            Err(CoreError::SliceWidthMismatch {
                packed: pw.slice_width(),
                array: self.slice_width(),
            })
        }
    }

    /// Executes `layers` on `input` with `weights`, bit-true.
    ///
    /// Convolutions and dense layers run as GEMMs on the array against the
    /// weight rows packed at load; a convolution's activation operand is
    /// its patches, each gathered straight into its packed vector
    /// ([`PackedSliceMatrix::pack_gathered`]), or for a pointwise
    /// convolution its input's columns. Their accumulators are requantized
    /// in place to the next layer's activation width (per-tensor calibrated
    /// shift) and pass through ReLU, except after the final layer and
    /// before an attention-era op. Recurrent layers run their gate GEMVs on
    /// the array per timestep. Pooling, softmax, layer norm and GELU run as
    /// passes over slices, parallel for large tensors, written
    /// independently of the [`bpvec_dnn::reference`] operators that
    /// [`Self::execute_reference`] runs.
    ///
    /// # Errors
    ///
    /// - [`CoreError::LayerShapeMismatch`] when a layer's input does not
    ///   have the shape the layer declares: `input` does not fit the first
    ///   layer, or the stack does not chain;
    /// - [`CoreError::UnsupportedLayer`] for a layer the executor does not
    ///   run: decode-shaped attention (`q_len != kv_len`), or an attention
    ///   QK without its attention·V partner;
    /// - [`CoreError::SliceWidthMismatch`] when a layer's weights are
    ///   packed at a slicing other than this array's CVU slicing;
    /// - [`CoreError`] from packing and the array (operand range,
    ///   composition).
    ///
    /// # Panics
    ///
    /// Panics if `weights` was synthesized for another layer stack.
    pub fn execute(
        &self,
        layers: &[Layer],
        input: &Tensor,
        weights: &WeightStore,
    ) -> Result<ExecutionTrace, CoreError> {
        let mut act = input.clone();
        let mut traces = Vec::with_capacity(layers.len());
        // The V operand of an upstream MatMulQK, `[hidden, kv_len]`.
        let mut stashed_v: Option<Tensor> = None;
        for (li, layer) in layers.iter().enumerate() {
            let last = li == layers.len() - 1;
            let relu = !(last || feeds_transformer_op(layers, li));
            let out_bits = output_bits(layers, li);
            let no_gemm = TileTally::default();
            let (out, cycles, array_macs, shift, tiles) = match layer.kind {
                LayerKind::Conv2d {
                    in_channels,
                    kernel,
                    stride,
                    padding,
                    input_hw,
                    ..
                } => {
                    let conv = stage::ConvShape {
                        input: (in_channels, input_hw.0, input_hw.1),
                        kernel,
                        stride,
                        padding,
                    };
                    expect_shape(layer, &act, &[in_channels, input_hw.0, input_hw.1])?;
                    let pw = self.packed_weights(weights, li)?;
                    let px = stage::pack_patches(
                        act.as_slice(),
                        conv,
                        layer.act_bits,
                        self.slice_width(),
                        Signedness::Signed,
                    )?;
                    let (oh, ow) = conv.output_hw();
                    let (mut acc, cycles, macs, tiles) =
                        self.gemm(pw, &px, &[pw.num_vecs(), oh, ow])?;
                    let shift = stage::requantize(acc.as_mut_slice(), out_bits, relu);
                    (acc, cycles, macs, shift, tiles)
                }
                LayerKind::FullyConnected { in_features, .. } => {
                    expect_len(layer, &act, &[in_features])?;
                    // The activation is a single packed vector (the lone GEMM
                    // column).
                    let pw = self.packed_weights(weights, li)?;
                    let px = PackedSliceMatrix::pack(
                        act.as_slice(),
                        layer.act_bits,
                        self.slice_width(),
                        Signedness::Signed,
                    )?;
                    let (mut acc, cycles, macs, tiles) = self.gemm(pw, &px, &[pw.num_vecs()])?;
                    let shift = stage::requantize(acc.as_mut_slice(), out_bits, relu);
                    (acc, cycles, macs, shift, tiles)
                }
                LayerKind::Pool {
                    channels,
                    kernel,
                    stride,
                    input_hw: (h, w),
                } => {
                    expect_shape(layer, &act, &[channels, h, w])?;
                    let grain = stage::grain(channels, h * w);
                    let out =
                        stage::maxpool(act.as_slice(), (channels, h, w), kernel, stride, grain);
                    (out, 0, 0, 0, no_gemm)
                }
                LayerKind::MatMulQK {
                    heads,
                    q_len,
                    kv_len,
                    head_dim,
                } => {
                    if q_len != kv_len {
                        return Err(unsupported(
                            layer,
                            "decode-shaped attention (q_len != kv_len) needs a KV cache; \
                             the bit-true executor runs prefill shapes only",
                        ));
                    }
                    let hidden = heads * head_dim;
                    expect_len(layer, &act, &[3 * hidden, q_len])?;
                    let av_bits = layers[li + 1..]
                        .iter()
                        .find_map(|l| match l.kind {
                            LayerKind::AttentionV { .. } => Some(l.weight_bits),
                            _ => None,
                        })
                        .ok_or_else(|| {
                            unsupported(layer, "attention QK needs a downstream attention·V layer")
                        })?;
                    // Q stays at the layer's activation width; K and V
                    // requantize in place (shift only) to the QK and the
                    // downstream attention·V weight widths.
                    let n = hidden * q_len;
                    let in_bits = layer.act_bits.bits();
                    let (q, kv) = act.as_mut_slice().split_at_mut(n);
                    let (k, v) = kv.split_at_mut(n);
                    let grain = stage::grain(n, 1);
                    for (plane, bits) in [(&mut *k, layer.weight_bits), (&mut *v, av_bits)] {
                        let shift = in_bits.saturating_sub(bits.bits());
                        stage::requantize_by(plane, shift, bits, false, grain);
                    }
                    let mut scores = Tensor::zeros(&[heads * q_len, kv_len]);
                    let mut cycles = 0u64;
                    let mut macs = 0u64;
                    let mut tiles = TileTally::default();
                    // Head h's Q and K are the contiguous [head_dim, q_len]
                    // row blocks h of Q and K: A = Q_h^T packs Q_h's columns,
                    // B = K_h packs K_h's columns.
                    let block = head_dim * q_len;
                    for h in 0..heads {
                        let pa = PackedSliceMatrix::pack_cols(
                            &q[h * block..(h + 1) * block],
                            head_dim,
                            q_len,
                            layer.act_bits,
                            self.slice_width(),
                            Signedness::Signed,
                        )?;
                        let pb = PackedSliceMatrix::pack_cols(
                            &k[h * block..(h + 1) * block],
                            head_dim,
                            kv_len,
                            layer.weight_bits,
                            self.slice_width(),
                            Signedness::Signed,
                        )?;
                        tiles.add(&pa, &pb);
                        let run = self.array.gemm_packed(&pa, &pb)?;
                        cycles += run.cycles;
                        macs += run.macs;
                        // Head h's [q_len, kv_len] block of the score rows.
                        let n = q_len * kv_len;
                        scores.as_mut_slice()[h * n..(h + 1) * n]
                            .copy_from_slice(run.output.as_slice());
                    }
                    let shift = stage::requantize(scores.as_mut_slice(), out_bits, false);
                    stashed_v = Some(Tensor::from_data(&[hidden, kv_len], v.to_vec()));
                    (scores, cycles, macs, shift, tiles)
                }
                LayerKind::Softmax { rows, cols } => {
                    expect_len(layer, &act, &[rows, cols])?;
                    act.reshape(&[rows, cols]);
                    // Probabilities come out at the attention-V layer's
                    // activation width (its `out_bits`), topping out at the
                    // fixed-point one `1 << (bits-1)` — packed *unsigned*
                    // downstream.
                    let grain = stage::grain(rows, cols);
                    stage::softmax(act.as_mut_slice(), cols, out_bits, grain);
                    (act, 0, 0, 0, no_gemm)
                }
                LayerKind::AttentionV {
                    heads,
                    q_len,
                    kv_len,
                    head_dim,
                } => {
                    let v = stashed_v.take().ok_or_else(|| {
                        unsupported(
                            layer,
                            "attention·V needs the V operand of an upstream attention QK",
                        )
                    })?;
                    expect_shape(layer, &v, &[heads * head_dim, kv_len])?;
                    expect_shape(layer, &act, &[heads * q_len, kv_len])?;
                    let v = v.as_slice();
                    let mut ctx = Tensor::zeros(&[heads * head_dim, q_len, 1]);
                    let mut cycles = 0u64;
                    let mut macs = 0u64;
                    let mut tiles = TileTally::default();
                    // Head h's P and V are contiguous row blocks: A = P_h is
                    // [q_len, kv_len] rows, and B = V_h^T packs V_h's
                    // [head_dim, kv_len] rows.
                    let (p_block, v_block) = (q_len * kv_len, head_dim * kv_len);
                    for h in 0..heads {
                        let pa = PackedSliceMatrix::pack_rows(
                            &act.as_slice()[h * p_block..(h + 1) * p_block],
                            q_len,
                            kv_len,
                            layer.act_bits,
                            self.slice_width(),
                            Signedness::Unsigned,
                        )?;
                        let pb = PackedSliceMatrix::pack_rows(
                            &v[h * v_block..(h + 1) * v_block],
                            head_dim,
                            kv_len,
                            layer.weight_bits,
                            self.slice_width(),
                            Signedness::Signed,
                        )?;
                        tiles.add(&pa, &pb);
                        let run = self.array.gemm_packed(&pa, &pb)?;
                        cycles += run.cycles;
                        macs += run.macs;
                        // Head h's [q_len, head_dim] output, transposed into
                        // its head_dim channel rows of ctx.
                        let n = head_dim * q_len;
                        let (out, rows) = (
                            run.output.as_slice(),
                            &mut ctx.as_mut_slice()[h * n..(h + 1) * n],
                        );
                        for qi in 0..q_len {
                            for d in 0..head_dim {
                                rows[d * q_len + qi] = out[qi * head_dim + d];
                            }
                        }
                    }
                    let shift = stage::requantize(ctx.as_mut_slice(), out_bits, false);
                    (ctx, cycles, macs, shift, tiles)
                }
                LayerKind::LayerNorm { features, tokens } => {
                    expect_len(layer, &act, &[features, tokens])?;
                    let grains = (
                        stage::grain(tokens, features),
                        stage::grain(features, tokens),
                    );
                    stage::layer_norm(act.as_mut_slice(), features, out_bits, grains);
                    (act, 0, 0, 0, no_gemm)
                }
                LayerKind::Gelu { elems } => {
                    expect_len(layer, &act, &[elems])?;
                    stage::gelu(act.as_mut_slice(), out_bits, stage::grain(elems, 1));
                    (act, 0, 0, 0, no_gemm)
                }
                LayerKind::Recurrent {
                    input_size,
                    hidden_size,
                    gates,
                    seq_len,
                } => {
                    expect_shape(layer, &act, &[seq_len, input_size])?;
                    self.recurrent_on_array(
                        layer,
                        &act,
                        self.packed_weights(weights, li)?,
                        input_size,
                        hidden_size,
                        gates,
                        seq_len,
                    )?
                }
            };
            traces.push(LayerTrace {
                name: layer.name.clone(),
                cycles,
                macs: layer.macs(),
                array_macs,
                requant_shift: shift,
                kernel: if tiles.macro_tiles() > 0 {
                    kernels::active_tier().name()
                } else {
                    "none"
                },
                tiles,
            });
            act = out;
        }
        Ok(ExecutionTrace {
            output: act,
            layers: traces,
        })
    }

    /// One packed GEMM on the array, its output reshaped to `shape`, with
    /// its cycles, MACs and schedule.
    fn gemm(
        &self,
        a: &PackedSliceMatrix,
        b: &PackedSliceMatrix,
        shape: &[usize],
    ) -> Result<(Tensor, u64, u64, TileTally), CoreError> {
        let mut tiles = TileTally::default();
        tiles.add(a, b);
        let run = self.array.gemm_packed(a, b)?;
        let mut out = run.output;
        out.reshape(shape);
        Ok((out, run.cycles, run.macs, tiles))
    }

    /// Reference execution of the identical pipeline (same weights, same
    /// requantization) without the accelerator — the ground truth
    /// [`Self::execute`] must match bit-for-bit. Each compute layer's `i32`
    /// weights are regenerated from the store's seed, used and dropped; the
    /// packed planes are never read.
    #[must_use]
    pub fn execute_reference(
        &self,
        layers: &[Layer],
        input: &Tensor,
        weights: &WeightStore,
    ) -> Tensor {
        let mut act = input.clone();
        let mut stashed_v: Option<Tensor> = None;
        for (li, layer) in layers.iter().enumerate() {
            let last = li == layers.len() - 1;
            let no_relu = last || feeds_transformer_op(layers, li);
            let out_bits = output_bits(layers, li);
            act = match layer.kind {
                LayerKind::Conv2d {
                    stride, padding, ..
                } => {
                    let acc = reference::conv2d(&act, &weights.regenerate(li), stride, padding);
                    let shift = requant_shift_for(&acc, out_bits);
                    let q = reference::requantize(&acc, shift, out_bits, Signedness::Signed);
                    if no_relu {
                        q
                    } else {
                        reference::relu(&q)
                    }
                }
                LayerKind::FullyConnected { .. } => {
                    let acc = reference::gemv(&weights.regenerate(li), &act);
                    let shift = requant_shift_for(&acc, out_bits);
                    let q = reference::requantize(&acc, shift, out_bits, Signedness::Signed);
                    if no_relu {
                        q
                    } else {
                        reference::relu(&q)
                    }
                }
                LayerKind::Pool { kernel, stride, .. } => {
                    reference::maxpool2d(&act, kernel, stride)
                }
                LayerKind::MatMulQK {
                    heads,
                    q_len,
                    kv_len,
                    head_dim,
                } => {
                    assert_eq!(
                        q_len, kv_len,
                        "decode-shaped attention (q_len != kv_len) needs a KV cache; \
                         the bit-true executor runs prefill shapes only"
                    );
                    let (qm, km, vm) = split_qkv(layers, li, &act, heads * head_dim, q_len);
                    stashed_v = Some(vm);
                    let mut scores = Tensor::zeros(&[heads * q_len, kv_len]);
                    for h in 0..heads {
                        let (a, bm) = qk_head(&qm, &km, h, head_dim);
                        let out = reference::gemm(&a, &bm);
                        for qi in 0..q_len {
                            for kj in 0..kv_len {
                                scores[&[h * q_len + qi, kj]] = out.as_slice()[qi * kv_len + kj];
                            }
                        }
                    }
                    let shift = requant_shift_for(&scores, out_bits);
                    reference::requantize(&scores, shift, out_bits, Signedness::Signed)
                }
                LayerKind::Softmax { rows, cols } => {
                    assert_eq!(act.len(), rows * cols, "softmax input");
                    let mut s = act.clone();
                    s.reshape(&[rows, cols]);
                    reference::softmax_fixed(&s, out_bits)
                }
                LayerKind::AttentionV {
                    heads,
                    q_len,
                    kv_len,
                    head_dim,
                } => {
                    let v = stashed_v
                        .take()
                        .expect("AttentionV requires the V operand of an upstream MatMulQK");
                    assert_eq!(act.shape(), &[heads * q_len, kv_len], "attention probs");
                    let mut ctx = Tensor::zeros(&[heads * head_dim, q_len, 1]);
                    for h in 0..heads {
                        let (a, bm) = av_head(&act, &v, h, head_dim, q_len);
                        let out = reference::gemm(&a, &bm);
                        for qi in 0..q_len {
                            for d in 0..head_dim {
                                ctx[&[h * head_dim + d, qi, 0]] = out.as_slice()[qi * head_dim + d];
                            }
                        }
                    }
                    let shift = requant_shift_for(&ctx, out_bits);
                    reference::requantize(&ctx, shift, out_bits, Signedness::Signed)
                }
                LayerKind::LayerNorm { features, tokens } => {
                    assert_eq!(act.len(), features * tokens, "layer-norm input");
                    reference::layer_norm_fixed(&act, out_bits)
                }
                LayerKind::Gelu { elems } => {
                    assert_eq!(act.len(), elems, "gelu input");
                    reference::gelu_fixed(&act, out_bits)
                }
                LayerKind::Recurrent {
                    input_size,
                    hidden_size,
                    gates,
                    seq_len,
                } => reference_recurrent(
                    layer,
                    &act,
                    &weights.regenerate(li),
                    input_size,
                    hidden_size,
                    gates,
                    seq_len,
                ),
            };
        }
        act
    }

    #[allow(clippy::too_many_arguments)]
    fn recurrent_on_array(
        &self,
        layer: &Layer,
        act: &Tensor,
        pw: &PackedSliceMatrix,
        input_size: usize,
        hidden_size: usize,
        gates: usize,
        seq_len: usize,
    ) -> Result<(Tensor, u64, u64, u32, TileTally), CoreError> {
        let shift = recurrent_shift(layer, input_size, hidden_size);
        // The packed gate weights serve every timestep of the sequence —
        // only the (small) [x; h] vector packs per step.
        let mut h = Tensor::zeros(&[hidden_size]);
        let mut c = Tensor::zeros(&[hidden_size]);
        let mut outputs = Tensor::zeros(&[seq_len, hidden_size]);
        let mut cycles = 0u64;
        let mut macs = 0u64;
        let mut tiles = TileTally::default();
        for t in 0..seq_len {
            let mut xh = Vec::with_capacity(input_size + hidden_size);
            xh.extend((0..input_size).map(|i| act[&[t, i]]));
            xh.extend_from_slice(h.as_slice());
            let pxh = PackedSliceMatrix::pack(
                &xh,
                layer.act_bits,
                self.slice_width(),
                Signedness::Signed,
            )?;
            tiles.add(pw, &pxh);
            let run = self.array.gemm_packed(pw, &pxh)?;
            cycles += run.cycles;
            macs += run.macs;
            let mut pre = run.output;
            pre.reshape(&[gates * hidden_size]);
            h = if gates == 4 {
                let (h2, c2) = reference::lstm_recombine(&pre, &c, shift, layer.act_bits);
                c = c2;
                h2
            } else {
                reference::requantize(&pre, shift, layer.act_bits, Signedness::Signed)
            };
            for (i, &v) in h.as_slice().iter().enumerate() {
                outputs[&[t, i]] = v;
            }
        }
        Ok((outputs, cycles, macs, shift, tiles))
    }
}

/// Fixed requantization shift for a recurrent layer, sized to the
/// worst-case gate pre-activation magnitude (weights and state at full
/// scale over the reduction length).
fn recurrent_shift(layer: &Layer, input_size: usize, hidden_size: usize) -> u32 {
    let (_, w_hi) = layer.weight_bits.range(Signedness::Signed);
    let (_, a_hi) = layer.act_bits.range(Signedness::Signed);
    let worst = (input_size + hidden_size) as i64 * i64::from(w_hi + 1) * i64::from(a_hi + 1);
    let mut shift = 0u32;
    let mut m = worst;
    while m > i64::from(a_hi) {
        m >>= 1;
        shift += 1;
    }
    // Keep some signal: the worst case is pessimistic by the averaging of
    // random signs, so back off a few bits.
    shift.saturating_sub(3)
}

fn reference_recurrent(
    layer: &Layer,
    act: &Tensor,
    w: &Tensor,
    input_size: usize,
    hidden_size: usize,
    gates: usize,
    seq_len: usize,
) -> Tensor {
    let shift = recurrent_shift(layer, input_size, hidden_size);
    let mut h = Tensor::zeros(&[hidden_size]);
    let mut c = Tensor::zeros(&[hidden_size]);
    let mut outputs = Tensor::zeros(&[seq_len, hidden_size]);
    for t in 0..seq_len {
        let x = Tensor::from_data(
            &[input_size],
            (0..input_size).map(|i| act[&[t, i]]).collect(),
        );
        if gates == 4 {
            let (h2, c2) = reference::lstm_step(w, &x, &h, &c, shift, layer.act_bits);
            h = h2;
            c = c2;
        } else {
            let mut xh = Vec::with_capacity(input_size + hidden_size);
            xh.extend_from_slice(x.as_slice());
            xh.extend_from_slice(h.as_slice());
            let xh = Tensor::from_data(&[input_size + hidden_size], xh);
            let pre = reference::gemv(w, &xh);
            h = reference::requantize(&pre, shift, layer.act_bits, Signedness::Signed);
        }
        for (i, &v) in h.as_slice().iter().enumerate() {
            outputs[&[t, i]] = v;
        }
    }
    outputs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::systolic::ArrayConfig;
    use bpvec_dnn::layer::{Layer, LayerKind};
    use bpvec_dnn::packing::pack_gemm_cols;

    fn executor() -> NetworkExecutor {
        NetworkExecutor::new(SystolicArray::new(ArrayConfig {
            rows: 4,
            cols: 4,
            cvu: bpvec_core::CvuConfig::paper_default(),
        }))
    }

    fn conv(name: &str, ic: usize, oc: usize, k: usize, s: usize, p: usize, hw: usize) -> Layer {
        Layer::new(
            name,
            LayerKind::Conv2d {
                in_channels: ic,
                out_channels: oc,
                kernel: (k, k),
                stride: (s, s),
                padding: (p, p),
                input_hw: (hw, hw),
            },
        )
    }

    fn input(c: usize, hw: usize, seed: u64) -> Tensor {
        Tensor::from_fn(&[c, hw, hw], |idx| {
            (mix(seed ^ (idx[0] * 10_000 + idx[1] * 100 + idx[2]) as u64) % 200) as i32 - 100
        })
    }

    #[test]
    fn single_conv_layer_matches_reference() {
        let layers = vec![conv("c1", 3, 8, 3, 1, 1, 8)];
        let ws = WeightStore::synthesize(&layers, 11);
        let x = input(3, 8, 1);
        let ex = executor();
        let trace = ex.execute(&layers, &x, &ws).unwrap();
        assert_eq!(trace.output, ex.execute_reference(&layers, &x, &ws));
        assert!(trace.total_cycles() > 0);
    }

    #[test]
    fn network_gemms_take_the_lane_path_and_gemvs_the_per_dot_path() {
        // Every packed GEMM `execute` issues for AlexNet's convolutions and
        // the BERT block's projections and attention heads has at least
        // LANE_MIN_COLS columns, so it runs on the lane micro-kernel
        // wherever the tier has SIMD lanes; the fully connected GEMVs
        // (n = 1) stay per dot. The schedule depends on the row and column
        // counts and the tier, not the inner length, so the operands pack
        // with k = 1.
        use bpvec_dnn::{transformer_block, BitwidthPolicy, Network, NetworkId};
        let tier = kernels::active_tier();
        let sw = CvuConfig::paper_default().slice_width;
        let mut layers = Network::build(NetworkId::AlexNet, BitwidthPolicy::Heterogeneous).layers;
        transformer_block(&mut layers, "block0", 768, 12, 128, 128);
        let mut seen = [0usize; 2];
        for layer in &layers {
            let (m, n) = match layer.kind {
                LayerKind::Conv2d { out_channels, .. } => {
                    let (oh, ow) = layer.output_hw().expect("a convolution has an output size");
                    (out_channels, oh * ow)
                }
                LayerKind::FullyConnected { out_features, .. } => (out_features, 1),
                LayerKind::MatMulQK { q_len, kv_len, .. } => (q_len, kv_len),
                LayerKind::AttentionV {
                    q_len, head_dim, ..
                } => (q_len, head_dim),
                _ => continue,
            };
            let pack = |vecs: usize| {
                PackedSliceMatrix::pack_rows(
                    &vec![0; vecs],
                    vecs,
                    1,
                    BitWidth::INT8,
                    sw,
                    Signedness::Signed,
                )
                .unwrap()
            };
            let geo = packed_tile_geometry(&pack(m), &pack(n));
            let gemv = n == 1;
            let want = if gemv || tier == bpvec_core::KernelTier::Scalar {
                GemmPath::PerDot
            } else {
                GemmPath::Lanes
            };
            assert_eq!(geo.path, want, "{} ({m} x {n}) on {tier}", layer.name);
            assert_eq!(geo.macro_row_tiles, m.div_ceil(geo.row_block) as u64);
            if want == GemmPath::Lanes {
                assert_eq!(geo.lane_panels, m.div_ceil(tier.lane_words()) as u64);
            } else {
                assert_eq!(geo.lane_panels, 0);
            }
            seen[usize::from(gemv)] += 1;
        }
        // AlexNet's five convolutions, the block's four projections and two
        // attention GEMMs; AlexNet's three fully connected layers.
        assert_eq!(seen, [11, 3]);
    }

    #[test]
    fn execution_trace_records_packed_kernel_work_into_registry() {
        let layers = vec![conv("c1", 3, 8, 3, 1, 1, 8)];
        let ws = WeightStore::synthesize(&layers, 11);
        let trace = executor().execute(&layers, &input(3, 8, 1), &ws).unwrap();
        let registry = bpvec_obs::MetricsRegistry::new();
        trace.record_metrics(&registry);
        assert_eq!(
            registry.counter("exec.layers"),
            Some(trace.layers.len() as u64)
        );
        assert_eq!(registry.counter("exec.macs"), Some(trace.total_macs()));
        assert_eq!(registry.counter("exec.cycles"), Some(trace.total_cycles()));
        let snap = registry.snapshot();
        let hist = snap
            .histograms
            .iter()
            .find(|h| h.name == "exec.layer_macs")
            .expect("layer-MAC histogram registered");
        assert_eq!(hist.total(), trace.layers.len() as u64);
        // The conv layer ran exactly one packed GEMM on the dispatched
        // tier — on the lane path wherever the tier has SIMD lanes (its 64
        // patch columns are past the GEMV cut-over) — and its tile counts
        // land under exec.kernel.*.
        let tier = bpvec_core::kernels::active_tier();
        assert_eq!(trace.layers[0].kernel, tier.name());
        assert_eq!(
            registry.counter(&format!("exec.kernel.dispatch.{tier}")),
            Some(1)
        );
        let t = trace.layers[0].tiles;
        if tier == bpvec_core::KernelTier::Scalar {
            assert_eq!((t.lane_macro_tiles, t.lane_panels), (0, 0));
            assert!(t.per_dot_macro_tiles > 0);
        } else {
            assert_eq!(t.per_dot_macro_tiles, 0);
            assert!(t.lane_panels >= t.lane_macro_tiles && t.lane_macro_tiles > 0);
        }
        for (name, value) in [
            ("lanes.macro_tiles", t.lane_macro_tiles),
            ("lanes.panels", t.lane_panels),
            ("per_dot.macro_tiles", t.per_dot_macro_tiles),
        ] {
            assert_eq!(
                registry.counter(&format!("exec.kernel.{name}")),
                Some(value),
                "{name}"
            );
        }
        assert_eq!(
            registry.gauge("exec.kernel.lane_words"),
            Some(tier.lane_words() as f64)
        );
    }

    #[test]
    fn cnn_pipeline_conv_pool_conv_fc_matches_reference() {
        let layers = vec![
            conv("c1", 3, 8, 3, 1, 1, 8),
            Layer::new(
                "p1",
                LayerKind::Pool {
                    channels: 8,
                    kernel: (2, 2),
                    stride: (2, 2),
                    input_hw: (8, 8),
                },
            ),
            conv("c2", 8, 6, 3, 1, 0, 4),
            Layer::new(
                "fc",
                LayerKind::FullyConnected {
                    in_features: 6 * 2 * 2,
                    out_features: 10,
                },
            ),
        ];
        let ws = WeightStore::synthesize(&layers, 22);
        let mut x = input(3, 8, 2);
        let ex = executor();
        let trace = ex.execute(&layers, &x, &ws).unwrap();
        let expect = ex.execute_reference(&layers, &x, &ws);
        assert_eq!(trace.output, expect);
        assert!(
            ws.layers.iter().all(|l| l.view.get().is_none()),
            "neither path keeps i32 weights"
        );
        assert_eq!(trace.layers.len(), 4);
        assert_eq!(trace.layers[1].cycles, 0, "pooling uses no array cycles");
        // The fc layer consumed a flattened view; make sure shapes ended 1-D.
        x.reshape(&[3 * 8 * 8]);
        assert_eq!(trace.output.shape(), &[10]);
    }

    #[test]
    fn heterogeneous_bitwidths_execute_and_match() {
        use bpvec_core::BitWidth;
        let layers = vec![
            conv("c1", 3, 8, 3, 1, 1, 8), // 8-bit boundary layer
            conv("c2", 8, 8, 3, 1, 1, 8).with_bits(BitWidth::INT4, BitWidth::INT4),
            conv("c3", 8, 4, 1, 1, 0, 8).with_bits(BitWidth::INT4, BitWidth::INT4),
        ];
        let ws = WeightStore::synthesize(&layers, 33);
        let x = input(3, 8, 3);
        let ex = executor();
        let trace = ex.execute(&layers, &x, &ws).unwrap();
        assert_eq!(trace.output, ex.execute_reference(&layers, &x, &ws));
    }

    #[test]
    fn vanilla_rnn_sequence_matches_reference() {
        let layers = vec![Layer::new(
            "rnn",
            LayerKind::Recurrent {
                input_size: 12,
                hidden_size: 12,
                gates: 1,
                seq_len: 6,
            },
        )];
        let ws = WeightStore::synthesize(&layers, 44);
        let x = Tensor::from_fn(&[6, 12], |idx| {
            (mix(900 ^ (idx[0] * 64 + idx[1]) as u64) % 255) as i32 - 127
        });
        let ex = executor();
        let trace = ex.execute(&layers, &x, &ws).unwrap();
        assert_eq!(trace.output, ex.execute_reference(&layers, &x, &ws));
        assert_eq!(trace.output.shape(), &[6, 12]);
    }

    #[test]
    fn lstm_sequence_matches_reference() {
        let layers = vec![Layer::new(
            "lstm",
            LayerKind::Recurrent {
                input_size: 10,
                hidden_size: 10,
                gates: 4,
                seq_len: 5,
            },
        )
        .with_bits(bpvec_core::BitWidth::INT4, bpvec_core::BitWidth::INT4)];
        let ws = WeightStore::synthesize(&layers, 55);
        let x = Tensor::from_fn(&[5, 10], |idx| {
            (mix(901 ^ (idx[0] * 32 + idx[1]) as u64) % 15) as i32 - 7
        });
        let ex = executor();
        let trace = ex.execute(&layers, &x, &ws).unwrap();
        assert_eq!(trace.output, ex.execute_reference(&layers, &x, &ws));
    }

    #[test]
    fn attention_block_matches_reference_bit_true() {
        // The canonical ten-layer transformer block (ln → qkv → QK^T →
        // softmax → attn·V → proj → ln → ffn → gelu → ffn), packed path vs
        // reference, bit-for-bit.
        let mut layers = Vec::new();
        bpvec_dnn::transformer_block(&mut layers, "b", 32, 4, 8, 8);
        let ws = WeightStore::synthesize(&layers, 77);
        let x = input(32, 8, 5);
        let x = Tensor::from_fn(&[32, 8, 1], |idx| x[&[idx[0], idx[1], 0]]);
        let ex = executor();
        let trace = ex.execute(&layers, &x, &ws).unwrap();
        assert_eq!(trace.output, ex.execute_reference(&layers, &x, &ws));
        assert_eq!(trace.output.shape(), &[32, 8, 1]);
        assert_eq!(trace.layers.len(), 10);
        // The attention GEMMs burn array cycles; softmax/norms do not.
        assert!(trace.layers[2].cycles > 0, "QK^T runs on the array");
        assert_eq!(trace.layers[3].cycles, 0, "softmax is not a GEMM");
        assert!(trace.layers[4].cycles > 0, "attn-V runs on the array");
    }

    #[test]
    fn quantized_attention_block_matches_reference() {
        use bpvec_core::BitWidth;
        let mut layers = Vec::new();
        bpvec_dnn::transformer_block(&mut layers, "b", 16, 2, 4, 4);
        for l in &mut layers {
            *l = l.clone().with_bits(BitWidth::INT4, BitWidth::INT4);
        }
        let ws = WeightStore::synthesize(&layers, 88);
        let x = Tensor::from_fn(&[16, 4, 1], |idx| {
            (mix(777 ^ (idx[0] * 8 + idx[1]) as u64) % 15) as i32 - 7
        });
        let ex = executor();
        let trace = ex.execute(&layers, &x, &ws).unwrap();
        assert_eq!(trace.output, ex.execute_reference(&layers, &x, &ws));
    }

    #[test]
    fn mixed_width_kv_attention_matches_reference() {
        use bpvec_core::BitWidth;
        // 8-bit activations, 4-bit K/V — the KV-quantization serving recipe.
        let mut layers = Vec::new();
        bpvec_dnn::transformer_block(&mut layers, "b", 16, 2, 4, 4);
        for l in &mut layers {
            if matches!(
                l.kind,
                LayerKind::MatMulQK { .. } | LayerKind::AttentionV { .. }
            ) {
                *l = l.clone().with_bits(BitWidth::INT8, BitWidth::INT4);
            }
        }
        let ws = WeightStore::synthesize(&layers, 99);
        let x = input(16, 4, 6);
        let x = Tensor::from_fn(&[16, 4, 1], |idx| x[&[idx[0], idx[1], 0]]);
        let ex = executor();
        let trace = ex.execute(&layers, &x, &ws).unwrap();
        assert_eq!(trace.output, ex.execute_reference(&layers, &x, &ws));
    }

    #[test]
    fn decode_attention_is_explicitly_unsupported() {
        let layers = vec![Layer::new(
            "qk",
            LayerKind::MatMulQK {
                heads: 2,
                q_len: 1,
                kv_len: 8,
                head_dim: 4,
            },
        )];
        let ws = WeightStore::synthesize(&layers, 1);
        let x = Tensor::zeros(&[24, 1, 1]);
        let err = executor().execute(&layers, &x, &ws).unwrap_err();
        assert!(
            matches!(
                &err,
                CoreError::UnsupportedLayer { layer, reason }
                    if layer == "qk" && reason.contains("prefill")
            ),
            "{err}"
        );
    }

    #[test]
    fn full_resnet18_returns_a_typed_error() {
        // The layer table floors maxpool's output to 55×55 while layer1
        // declares 56×56 (and lists each downsampling shortcut inline), so
        // the stack does not chain.
        use bpvec_dnn::{BitwidthPolicy, Network, NetworkId};
        let net = Network::build(NetworkId::ResNet18, BitwidthPolicy::Heterogeneous);
        let ws = WeightStore::synthesize(&net.layers, 18);
        let (lo, hi) = net.layers[0].act_bits.range(Signedness::Signed);
        let x = Tensor::from_fn(&[3, 224, 224], |i| {
            lo + (i[1] * 7 + i[2]) as i32 % (hi - lo)
        });
        let err = executor().execute(&net.layers, &x, &ws).unwrap_err();
        assert_eq!(
            err,
            CoreError::LayerShapeMismatch {
                layer: "layer1.0.conv1".into(),
                expected: vec![64, 56, 56],
                found: vec![64, 55, 55],
            }
        );
    }

    #[test]
    fn layers_given_the_wrong_input_are_typed_errors() {
        let fc = Layer::new(
            "fc",
            LayerKind::FullyConnected {
                in_features: 12,
                out_features: 4,
            },
        );
        let pool = Layer::new(
            "pool",
            LayerKind::Pool {
                channels: 2,
                kernel: (2, 2),
                stride: (2, 2),
                input_hw: (4, 4),
            },
        );
        let softmax = Layer::new("softmax", LayerKind::Softmax { rows: 4, cols: 8 });
        let ln = Layer::new(
            "ln",
            LayerKind::LayerNorm {
                features: 8,
                tokens: 4,
            },
        );
        let gelu = Layer::new("gelu", LayerKind::Gelu { elems: 32 });
        let rnn = Layer::new(
            "rnn",
            LayerKind::Recurrent {
                input_size: 6,
                hidden_size: 4,
                gates: 1,
                seq_len: 3,
            },
        );
        let mut block = Vec::new();
        bpvec_dnn::transformer_block(&mut block, "b", 8, 2, 4, 4);
        let (qk, av) = (block[2].clone(), block[4].clone());
        let cases: [(Vec<Layer>, Tensor, &[usize]); 9] = [
            (
                vec![conv("conv", 3, 4, 3, 1, 1, 6)],
                input(2, 6, 1),
                &[3, 6, 6],
            ),
            (
                vec![conv("conv", 3, 4, 3, 1, 1, 6)],
                input(3, 5, 1),
                &[3, 6, 6],
            ),
            (vec![fc], Tensor::zeros(&[2, 5]), &[12]),
            (vec![pool], Tensor::zeros(&[2, 4, 5]), &[2, 4, 4]),
            (vec![softmax], Tensor::zeros(&[4, 7]), &[4, 8]),
            (vec![ln], Tensor::zeros(&[8, 5, 1]), &[8, 4]),
            (vec![gelu], Tensor::zeros(&[31]), &[32]),
            (vec![rnn], Tensor::zeros(&[6, 3]), &[3, 6]),
            (
                vec![qk.clone(), av.clone()],
                Tensor::zeros(&[16, 4, 1]),
                &[24, 4],
            ),
        ];
        for (layers, x, expected) in cases {
            let ws = WeightStore::synthesize(&layers, 5);
            let err = executor().execute(&layers, &x, &ws).unwrap_err();
            assert_eq!(
                err,
                CoreError::LayerShapeMismatch {
                    layer: layers[0].name.clone(),
                    expected: expected.to_vec(),
                    found: x.shape().to_vec(),
                }
            );
        }
        // Attention halves without their partner.
        for (layers, x) in [
            (vec![qk], Tensor::zeros(&[24, 4, 1])),
            (vec![av], Tensor::zeros(&[8, 4])),
        ] {
            let ws = WeightStore::synthesize(&layers, 5);
            let err = executor().execute(&layers, &x, &ws).unwrap_err();
            assert!(
                matches!(&err, CoreError::UnsupportedLayer { layer, .. } if *layer == layers[0].name),
                "{err}"
            );
        }
    }

    #[test]
    fn out_of_range_inputs_fail_as_the_im2col_packing_does() {
        // A value past the layer's activation range planted in the input:
        // `execute` reports the first one in patch order, the error that
        // packing the im2col matrix's columns gives.
        let layers = vec![conv("c", 3, 4, 3, 2, 1, 7).with_bits(BitWidth::INT4, BitWidth::INT4)];
        let ws = WeightStore::synthesize(&layers, 9);
        let mut x = Tensor::from_fn(&[3, 7, 7], |i| (i[0] + i[1] + i[2]) as i32 % 15 - 7);
        x[&[2, 1, 1]] = -9;
        x[&[0, 6, 6]] = 8;
        let cols = Tensor::from_fn(&[27, 16], |i| {
            let (c, ky, kx) = (i[0] / 9, i[0] / 3 % 3, i[0] % 3);
            let (iy, ix) = (
                (i[1] / 4 * 2 + ky) as isize - 1,
                (i[1] % 4 * 2 + kx) as isize - 1,
            );
            if (0..7).contains(&iy) && (0..7).contains(&ix) {
                x[&[c, iy as usize, ix as usize]]
            } else {
                0
            }
        });
        let want = pack_gemm_cols(&cols, BitWidth::INT4, SliceWidth::BIT2, Signedness::Signed)
            .unwrap_err();
        assert_eq!(executor().execute(&layers, &x, &ws).unwrap_err(), want);
        assert_eq!(
            want,
            CoreError::ValueOutOfRange {
                value: -9,
                bits: 4,
                signed: true
            }
        );
    }

    #[test]
    fn weight_store_is_deterministic_and_in_range() {
        let layers = vec![conv("c", 4, 4, 3, 1, 1, 4)
            .with_bits(bpvec_core::BitWidth::INT4, bpvec_core::BitWidth::INT2)];
        let a = WeightStore::synthesize(&layers, 7);
        let b = WeightStore::synthesize(&layers, 7);
        assert_eq!(a.layer(0), b.layer(0));
        for &v in a.layer(0).as_slice() {
            assert!((-2..=1).contains(&v), "2-bit weight {v}");
        }
        let c = WeightStore::synthesize(&layers, 8);
        assert_ne!(a.layer(0), c.layer(0), "different seed, different weights");
    }

    /// The weight generator written independently of `generate`: a
    /// `Tensor::from_fn` walk that reduces each hash with `% span`. Kept
    /// only here, as the oracle that pins the weight values.
    fn from_fn_weights(shape: &[usize], li: usize, bits: BitWidth, seed: u64) -> Tensor {
        let (lo, hi) = bits.range(Signedness::Signed);
        let span = (hi - lo + 1) as u64;
        let mut i = 0u64;
        Tensor::from_fn(shape, |_| {
            let v = lo + (mix(seed ^ (li as u64) << 32 ^ i) % span) as i32;
            i += 1;
            v
        })
    }

    #[test]
    fn stored_weights_match_the_from_fn_generator_and_its_packing() {
        let fc = LayerKind::FullyConnected {
            in_features: 37,
            out_features: 9,
        };
        let rnn = |gates| LayerKind::Recurrent {
            input_size: 7,
            hidden_size: 5,
            gates,
            seq_len: 3,
        };
        let pool = LayerKind::Pool {
            channels: 5,
            kernel: (2, 2),
            stride: (2, 2),
            input_hw: (6, 6),
        };
        let stack: [(Layer, &[usize]); 5] = [
            (conv("c", 3, 5, 3, 1, 1, 6), &[5, 3, 3, 3]),
            (Layer::new("p", pool), &[0]),
            (Layer::new("fc", fc), &[9, 37]),
            (Layer::new("rnn", rnn(1)), &[5, 12]),
            (Layer::new("lstm", rnn(4)), &[20, 12]),
        ];
        for bits in 1..=8 {
            let bw = BitWidth::new(bits).unwrap();
            let layers: Vec<Layer> = stack
                .iter()
                .map(|(l, _)| l.clone().with_bits(BitWidth::INT8, bw))
                .collect();
            let seed = 0x5eed_0000 + u64::from(bits);
            let ws = WeightStore::synthesize(&layers, seed);
            for (li, (layer, shape)) in stack.iter().enumerate() {
                let want = from_fn_weights(shape, li, bw, seed);
                assert_eq!(ws.layer(li), &want, "{} at {bits} bits", layer.name);
                let planes = ws.layers[li].packed.as_ref();
                if shape == &[0] {
                    assert!(planes.is_none(), "{} has no parameters", layer.name);
                    continue;
                }
                let packed =
                    pack_gemm_rows(ws.layer(li), bw, SliceWidth::BIT2, Signedness::Signed).unwrap();
                assert_eq!(planes, Some(&packed), "{} at {bits} bits", layer.name);
            }
        }
    }

    #[test]
    fn weights_packed_for_other_cvus_are_a_typed_error() {
        let four_bit_slices = NetworkExecutor::new(SystolicArray::new(ArrayConfig {
            rows: 4,
            cols: 4,
            cvu: bpvec_core::CvuConfig::for_slicing(4, 8, 16).unwrap(),
        }));
        let fc = Layer::new(
            "fc",
            LayerKind::FullyConnected {
                in_features: 12,
                out_features: 4,
            },
        );
        let rnn = Layer::new(
            "rnn",
            LayerKind::Recurrent {
                input_size: 12,
                hidden_size: 4,
                gates: 1,
                seq_len: 1,
            },
        );
        let cases = [
            (conv("c", 3, 4, 3, 1, 1, 2), input(3, 2, 1)),
            (fc, Tensor::zeros(&[12])),
            (rnn, Tensor::zeros(&[1, 12])),
        ];
        for (layer, x) in cases {
            let layers = vec![layer];
            let ws = WeightStore::synthesize(&layers, 3);
            let err = four_bit_slices.execute(&layers, &x, &ws).unwrap_err();
            assert_eq!(
                err,
                CoreError::SliceWidthMismatch {
                    packed: SliceWidth::BIT2,
                    array: SliceWidth::BIT4,
                },
                "{}",
                layers[0].name
            );
        }
    }

    #[test]
    fn strided_padded_convolutions_match_reference() {
        let layers = vec![conv("c", 3, 5, 5, 2, 2, 9)];
        let ws = WeightStore::synthesize(&layers, 66);
        let x = input(3, 9, 4);
        let ex = executor();
        let trace = ex.execute(&layers, &x, &ws).unwrap();
        assert_eq!(trace.output, ex.execute_reference(&layers, &x, &ws));
        assert_eq!(trace.output.shape(), &[5, 5, 5]);
    }

    /// One convolution over a `[c, h, w]` input of the given geometry,
    /// executed and checked against the reference; returns the output shape.
    fn conv_matches_reference(
        (c, h, w): (usize, usize, usize),
        out_channels: usize,
        kernel: (usize, usize),
        stride: (usize, usize),
        padding: (usize, usize),
    ) -> Vec<usize> {
        let layers = vec![Layer::new(
            "c",
            LayerKind::Conv2d {
                in_channels: c,
                out_channels,
                kernel,
                stride,
                padding,
                input_hw: (h, w),
            },
        )];
        let ws = WeightStore::synthesize(&layers, 44);
        let x = Tensor::from_fn(&[c, h, w], |idx| {
            (mix(303 ^ (idx[0] * 10_000 + idx[1] * 100 + idx[2]) as u64) % 200) as i32 - 100
        });
        let ex = executor();
        let trace = ex.execute(&layers, &x, &ws).unwrap();
        assert_eq!(trace.output, ex.execute_reference(&layers, &x, &ws));
        trace.output.shape().to_vec()
    }

    #[test]
    fn asymmetric_convolution_matches_reference() {
        // Height and width differ in kernel, stride and padding, so any
        // swap of the two axes in im2col shows.
        let shape = conv_matches_reference((3, 9, 7), 4, (3, 5), (2, 1), (0, 2));
        assert_eq!(shape, [4, 4, 7]);
    }

    #[test]
    fn token_projection_1x1_matches_reference() {
        // A 1×1 stride-1 projection over a [c, tokens, 1] input, the shape
        // the transformer block's dense layers run at.
        let shape = conv_matches_reference((16, 12, 1), 8, (1, 1), (1, 1), (0, 0));
        assert_eq!(shape, [8, 12, 1]);
    }
}
