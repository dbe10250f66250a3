//! The bit-true workloads: Table I AlexNet at 224×224 and one BERT-Base
//! encoder block, each executed by `NetworkExecutor::execute` on the
//! packed bit-plane path.
//!
//! A job is one `execute` of the whole layer stack on fixed weights and a
//! fixed input. Its check compares the output digest with
//! `execute_reference` on the same inputs, the array MACs with the layer
//! table's analytic count, and the cycles with an untimed first job; all
//! three are computed before the timed loop starts.
//!
//! The traced job drives each layer through `execute` as a one-layer
//! slice fed that layer's real input; attention runs as one
//! `qk → softmax → av` slice because the QKV split needs the downstream
//! attention·V layer. On each slice's operands it then replays and times
//! the public calls `execute` makes: `pack_gemm_rows`, `pack_gemm_cols` or
//! `PackedSliceMatrix::pack`, `gemm_packed`, and the `reference` ops. What
//! the replay does not cover — im2col, the QKV split, the per-head gathers
//! and the output scatter — is the executor's self time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use bpvec_core::{BitWidth, CoreError, PackedSliceMatrix, Signedness};
use bpvec_dnn::layer::{Layer, LayerKind};
use bpvec_dnn::packing::{pack_gemm_cols, pack_gemm_rows};
use bpvec_dnn::{reference, transformer_block, BitwidthPolicy, Network, NetworkId, Tensor};
use bpvec_sim::systolic::{ArrayConfig, SystolicArray};
use bpvec_sim::{ExecutionTrace, NetworkExecutor, WeightStore};

use crate::measure::{self, fnv1a, median, mix};
use crate::spans::{Recorder, SpanId, Tally};
use crate::{RunArgs, RunReport};

/// Which network a bit-true workload executes.
#[derive(Debug, Clone, Copy)]
pub enum Net {
    /// Table I AlexNet, heterogeneous policy (8-bit boundary layers, 4-bit
    /// inner layers), 224×224 input.
    AlexNet,
    /// One BERT-Base encoder block: hidden 768, 12 heads, 128-token
    /// prefill, 8-bit activations with 4-bit weights and K/V.
    BertBlock,
}

/// Everything a job needs, built by the set-up.
struct Model {
    layers: Vec<Layer>,
    weights: WeightStore,
    input: Tensor,
    weight_seed: u64,
}

/// The values a job is checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Expected {
    digest: u64,
    cycles: u64,
    array_macs: u64,
}

fn build_layers(net: Net) -> Vec<Layer> {
    match net {
        Net::AlexNet => Network::build(NetworkId::AlexNet, BitwidthPolicy::Heterogeneous).layers,
        Net::BertBlock => {
            let mut layers = Vec::new();
            transformer_block(&mut layers, "block0", 768, 12, 128, 128);
            for l in &mut layers {
                if l.is_compute() {
                    *l = l.clone().with_bits(BitWidth::INT8, BitWidth::INT4);
                }
            }
            layers
        }
    }
}

/// The input tensor the first layer expects, uniform over its signed
/// activation range.
fn input_for(first: &Layer, seed: u64) -> Tensor {
    let shape = match first.kind {
        LayerKind::Conv2d {
            in_channels,
            input_hw,
            ..
        } => vec![in_channels, input_hw.0, input_hw.1],
        LayerKind::LayerNorm { features, tokens } => vec![features, tokens, 1],
        _ => panic!("bit-true workloads start with a convolution or a layer norm"),
    };
    let (lo, hi) = first.act_bits.range(Signedness::Signed);
    let span = (hi - lo + 1) as u64;
    let mut i = 0u64;
    Tensor::from_fn(&shape, |_| {
        i += 1;
        lo + (mix(seed ^ i) % span) as i32
    })
}

/// One set-up — layer table, weights and input from `seed` — with the
/// seconds spent in `bpvec-dnn`'s builder and in `WeightStore::synthesize`.
fn setup(net: Net, seed: u64) -> (Model, f64, f64) {
    let t0 = Instant::now();
    let layers = build_layers(net);
    let build_s = t0.elapsed().as_secs_f64();
    let weight_seed = mix(seed ^ 0x5717_3e16);
    let t1 = Instant::now();
    let weights = WeightStore::synthesize(&layers, weight_seed);
    let synth_s = t1.elapsed().as_secs_f64();
    let input = input_for(&layers[0], mix(seed ^ 0x1397_0a7e));
    let model = Model {
        layers,
        weights,
        input,
        weight_seed,
    };
    (model, build_s, synth_s)
}

/// The executor every bit-true job runs on: the paper's 8×8 CVU array.
fn executor() -> NetworkExecutor {
    NetworkExecutor::new(SystolicArray::new(ArrayConfig::paper_default()))
}

/// Digest of a tensor's shape and values.
fn digest(t: &Tensor) -> u64 {
    let dims = t.shape().iter().flat_map(|&d| (d as u64).to_le_bytes());
    fnv1a(dims.chain(t.as_slice().iter().flat_map(|v| v.to_le_bytes())))
}

/// One job: the whole stack through `execute`.
fn job(ex: &NetworkExecutor, model: &Model) -> Result<ExecutionTrace, String> {
    ex.execute(&model.layers, &model.input, &model.weights)
        .map_err(|e| format!("execute: {e}"))
}

/// The expected values, computed outside timing: the reference
/// pipeline's digest, the layer table's analytic MACs, and an untimed
/// first job's cycles. The first job also warms caches for the loop.
fn expected(ex: &NetworkExecutor, model: &Model) -> Result<Expected, String> {
    let first = job(ex, model)?;
    let reference = ex.execute_reference(&model.layers, &model.input, &model.weights);
    Ok(Expected {
        digest: digest(&reference),
        cycles: first.total_cycles(),
        array_macs: model.layers.iter().map(Layer::macs).sum(),
    })
}

/// A job's check against `expected`.
fn check(trace: &ExecutionTrace, expected: &Expected) -> Result<(), String> {
    let got = Expected {
        digest: digest(&trace.output),
        cycles: trace.total_cycles(),
        array_macs: trace.total_array_macs(),
    };
    if got == *expected {
        Ok(())
    } else {
        Err(format!("job output {got:?} != expected {expected:?}"))
    }
}

/// Runs the workload: set-ups, expected values, then the timed closed
/// loop — or, with `args.trace`, untimed and traced jobs in alternation.
pub fn run(net: Net, args: &RunArgs) -> Result<RunReport, String> {
    let mut setup_stages = Vec::new();
    let mut run_setup = || {
        let (model, build_s, synth_s) = setup(net, args.seed);
        setup_stages.push((build_s, synth_s));
        model
    };
    let (setup_times, model) = measure::repeated_setup(&mut run_setup);
    let ex = executor();
    let expected = expected(&ex, &model)?;
    if !args.trace {
        let loop_result =
            measure::closed_loop(args.seconds, || job(&ex, &model), |t| check(t, &expected));
        let peak_rss_mb = measure::peak_rss_mb()?;
        drop(model);
        let setup_s = measure::setup_s(setup_times, &mut run_setup);
        return Ok(RunReport::timed(loop_result, setup_s, peak_rss_mb));
    }
    let setup_s = median(&setup_times);

    let slices = Slices::new(&model)?;
    let peaks = calibrate_peaks(&model.layers, args.seed)?;
    let mut rec = Recorder::default();
    // Each traced job replays its stages right after its span closes, so
    // both sit in the same stretch of machine time.
    let (untraced, traced, passes) = measure::alternate(
        args.seconds,
        |lr| {
            lr.run_job(|| job(&ex, &model), |t| check(t, &expected));
        },
        || {
            let pass = traced_pass(&mut rec, &ex, &slices, &model, &expected)?;
            let (tally, rows) = replay_pass(&mut rec, &slices, &model, &peaks, &pass)?;
            Ok((pass.job_ms, tally, rows))
        },
    );
    let mut jobs = Vec::new();
    let mut tables = Vec::new();
    for (ms, tally, rows) in passes {
        jobs.push((ms, tally));
        tables.push(rows);
    }
    let traced_ms: Vec<f64> = jobs.iter().map(|j| j.0).collect();
    let span_sum_ms: Vec<f64> = tables
        .iter()
        .map(|rows| rows.iter().map(|r| r.get("layer_ms")).sum())
        .collect();
    let sums = (
        median(&untraced.times_ms),
        median(&traced_ms),
        median(&span_sum_ms),
    );
    let mut report = RunReport::traced(setup_s, untraced, traced, jobs)?;
    let builds: Vec<f64> = setup_stages.iter().map(|s| s.0 * 1e3).collect();
    let synths: Vec<f64> = setup_stages.iter().map(|s| s.1 * 1e3).collect();
    report.per_layer.set("dnn.build_ms", median(&builds));
    report
        .per_layer
        .set("executor.synthesize_ms", median(&synths));
    for (pair, gmacs) in &peaks {
        report
            .per_layer
            .set(&format!("kernels.peak_gmacs_per_s.{pair}"), *gmacs);
    }
    let names: Vec<&str> = slices.ranges.iter().map(|(n, _)| n.as_str()).collect();
    let table = layer_table(&names, &tables, sums, &peaks);
    report.artifacts = vec![("spans.json", rec.chrome_json()), ("layers.md", table)];
    report.notes = vec![format!(
        "layer spans sum to {:.3} ms per traced job of {:.3} ms (untraced p50 {:.3} ms)",
        sums.2, sums.1, sums.0
    )];
    Ok(report)
}

/// One traced-job row: a slice's span and its replayed stages, ms.
type Row = Tally;

/// The network cut into slices — one layer each, attention as one
/// `qk → softmax → av` slice — each with a weight store that reproduces
/// the full network's weights for its layers.
struct Slices {
    ranges: Vec<(String, std::ops::Range<usize>)>,
    weights: Vec<WeightStore>,
}

impl Slices {
    fn new(model: &Model) -> Result<Self, String> {
        let layers = &model.layers;
        let mut ranges = Vec::new();
        let mut i = 0;
        while i < layers.len() {
            let end = if matches!(layers[i].kind, LayerKind::MatMulQK { .. }) {
                let av = layers[i..]
                    .iter()
                    .position(|l| matches!(l.kind, LayerKind::AttentionV { .. }))
                    .ok_or("attention QK without a downstream attention·V")?;
                i + av + 1
            } else {
                i + 1
            };
            let name = if end - i > 1 {
                let prefix = layers[i].name.rsplit_once('.').map_or("", |(p, _)| p);
                format!("{prefix}.attn")
            } else {
                layers[i].name.clone()
            };
            ranges.push((name, i..end));
            i = end;
        }
        // `WeightStore::synthesize` keys each layer's values on the seed
        // and the layer's position, so a slice starting at position `p`
        // reproduces the full network's weights from `seed ^ (p << 32)`.
        // Checked here: a mismatch would time different weights.
        let mut weights = Vec::new();
        for (name, r) in &ranges {
            let ws = WeightStore::synthesize(
                &layers[r.clone()],
                model.weight_seed ^ ((r.start as u64) << 32),
            );
            for (k, li) in r.clone().enumerate() {
                if ws.layer(k) != model.weights.layer(li) {
                    return Err(format!("slice {name}: weights differ from the network's"));
                }
            }
            weights.push(ws);
        }
        Ok(Slices { ranges, weights })
    }
}

/// Clamps an activation into `bits`' signed range. A one-layer slice
/// requantizes to its own width (the executor looks ahead to the next
/// layer only within the slice it is given), so the next slice's input
/// can exceed that layer's range.
fn clamp_to(t: &Tensor, bits: BitWidth) -> Tensor {
    let (lo, hi) = bits.range(Signedness::Signed);
    Tensor::from_data(
        t.shape(),
        t.as_slice().iter().map(|v| (*v).clamp(lo, hi)).collect(),
    )
}

/// One traced job's spans and operands, kept for its replay.
struct Pass {
    job_ms: f64,
    layer_spans: Vec<SpanId>,
    inputs: Vec<Tensor>,
    outputs: Vec<Tensor>,
}

/// One traced job: every slice through `execute`, each under its own span
/// inside one job span. The slices together must issue the whole job's
/// cycles and array MACs.
fn traced_pass(
    rec: &mut Recorder,
    ex: &NetworkExecutor,
    slices: &Slices,
    model: &Model,
    expected: &Expected,
) -> Result<Pass, String> {
    let mut pass = Pass {
        job_ms: 0.0,
        layer_spans: Vec::new(),
        inputs: Vec::new(),
        outputs: Vec::new(),
    };
    let job_span = rec.start("job", None);
    let mut act = model.input.clone();
    let (mut cycles, mut macs) = (0, 0);
    for ((name, r), ws) in slices.ranges.iter().zip(&slices.weights) {
        let layers = &model.layers[r.clone()];
        let input = clamp_to(&act, layers[0].act_bits);
        // A slice's layer is its last, so `execute` skips the ReLU the
        // whole network applies after it; the span applies it instead.
        let span = rec.start(name, Some(job_span));
        let trace = ex
            .execute(layers, &input, ws)
            .map_err(|e| format!("slice {name}: {e}"))?;
        let output = if mirror::relu_after(&model.layers, r.end - 1) {
            reference::relu(&trace.output)
        } else {
            trace.output.clone()
        };
        rec.end(span);
        cycles += trace.total_cycles();
        macs += trace.total_array_macs();
        pass.layer_spans.push(span);
        pass.inputs.push(input);
        act = output.clone();
        pass.outputs.push(output);
    }
    rec.end(job_span);
    pass.job_ms = rec.ms(job_span);
    if (cycles, macs) != (expected.cycles, expected.array_macs) {
        return Err(format!(
            "slices ran {cycles} cycles / {macs} MACs, the job {} / {}",
            expected.cycles, expected.array_macs
        ));
    }
    Ok(pass)
}

/// Replays each slice of `pass` stage by stage, as children of its layer
/// span. Returns the job's per-layer metrics and one row per slice.
fn replay_pass(
    rec: &mut Recorder,
    slices: &Slices,
    model: &Model,
    peaks: &BTreeMap<String, f64>,
    pass: &Pass,
) -> Result<(Tally, Vec<Row>), String> {
    let array = SystolicArray::new(ArrayConfig::paper_default());
    let mut tally = Tally::default();
    let mut rows = Vec::new();
    for (k, ((name, r), ws)) in slices.ranges.iter().zip(&slices.weights).enumerate() {
        let span = pass.layer_spans[k];
        let mut row = Row::default();
        let mut stage = Stage {
            rec: &mut *rec,
            parent: span,
            row: &mut row,
            array: &array,
            peak_gmacs: None,
        };
        let replayed = replay_slice(
            &mut stage,
            peaks,
            &model.layers,
            r.clone(),
            ws,
            &pass.inputs[k],
        )
        .map_err(|e| format!("replay {name}: {e}"))?;
        if replayed != pass.outputs[k] {
            return Err(format!("replay of {name} does not reproduce its output"));
        }
        let (layer_ms, self_ms) = (rec.ms(span), rec.self_ms(span));
        row.add("layer_ms", layer_ms);
        row.add("self_ms", self_ms);
        tally.add(&format!("executor.layer_ms.{name}"), layer_ms);
        tally.add("executor.self_ms", self_ms);
        for (stage, metric) in [
            ("pack_w_ms", "packing.weights_ms"),
            ("pack_a_ms", "packing.acts_ms"),
            ("weight_mb", "packing.weight_mb"),
            ("gemm_ms", "systolic.gemm_ms"),
            ("gemm_calls", "systolic.gemm_calls"),
            ("macs", "systolic.macs"),
            ("requant_ms", "reference.requant_ms"),
            ("norm_ms", "reference.norm_ms"),
        ] {
            tally.add(metric, row.get(stage));
        }
        rows.push(row);
    }
    let gemm_ms = tally.get("systolic.gemm_ms");
    let ideal_ms: f64 = rows.iter().map(|r| r.get("ideal_gemm_ms")).sum();
    tally.set(
        "systolic.roofline_frac",
        if gemm_ms > 0.0 {
            ideal_ms / gemm_ms
        } else {
            0.0
        },
    );
    Ok((tally, rows))
}

/// A layer's `<activation>x<weight>` bit widths, as the peak metrics name them.
fn width_pair(l: &Layer) -> String {
    format!("{}x{}", l.act_bits.bits(), l.weight_bits.bits())
}

/// The executor's private helpers, mirrored so the replay feeds each public
/// call exactly the operands `execute` does.
mod mirror {
    use super::*;

    /// The width a slice's layer `li` requantizes its output to.
    pub fn output_bits(layers: &[Layer], li: usize) -> BitWidth {
        layers[li + 1..]
            .iter()
            .find(|l| l.is_compute())
            .map_or(layers[li].act_bits, |l| l.act_bits)
    }

    /// True when the whole network applies ReLU after layer `li`: a
    /// convolution or dense layer that is neither the network's last nor
    /// feeding an attention-era op.
    pub fn relu_after(layers: &[Layer], li: usize) -> bool {
        matches!(
            layers[li].kind,
            LayerKind::Conv2d { .. } | LayerKind::FullyConnected { .. }
        ) && li + 1 < layers.len()
            && !feeds_transformer_op(layers, li)
    }

    /// True when the layer's successor is an attention-era op (no ReLU).
    pub fn feeds_transformer_op(layers: &[Layer], li: usize) -> bool {
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

    /// The smallest right shift that brings `t` into `bits`' signed range.
    pub fn requant_shift_for(t: &Tensor, bits: BitWidth) -> u32 {
        let (_, hi) = bits.range(Signedness::Signed);
        let mut shift = 0u32;
        let mut max = i64::from(t.max_abs());
        while max > i64::from(hi) {
            max >>= 1;
            shift += 1;
        }
        shift
    }

    /// im2col with zero padding: `[ic·kh·kw, oh·ow]`.
    pub fn im2col(
        act: &Tensor,
        kernel: (usize, usize),
        stride: (usize, usize),
        padding: (usize, usize),
    ) -> (Tensor, usize, usize) {
        let (kh, kw) = kernel;
        let ish = act.shape();
        let (c_in, h, w) = (ish[0], ish[1], ish[2]);
        let oh = (h + 2 * padding.0 - kh) / stride.0 + 1;
        let ow = (w + 2 * padding.1 - kw) / stride.1 + 1;
        let cols = Tensor::from_fn(&[c_in * kh * kw, oh * ow], |idx| {
            let (row, col) = (idx[0], idx[1]);
            let c = row / (kh * kw);
            let (ky, kx) = ((row / kw) % kh, row % kw);
            let (oy, ox) = (col / ow, col % ow);
            let iy = (oy * stride.0 + ky) as isize - padding.0 as isize;
            let ix = (ox * stride.1 + kx) as isize - padding.1 as isize;
            if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                0
            } else {
                act[&[c, iy as usize, ix as usize]]
            }
        });
        (cols, oh, ow)
    }

    /// One stacked-QKV plane `[hidden, q_len]`.
    pub fn plane(act: &Tensor, p: usize, hidden: usize, q_len: usize) -> Tensor {
        let n = hidden * q_len;
        Tensor::from_data(
            &[hidden, q_len],
            act.as_slice()[p * n..(p + 1) * n].to_vec(),
        )
    }

    /// Head `h` of `QK^T`: `Q_h^T` (`q_len × head_dim`) and `K_h`.
    pub fn qk_head(q: &Tensor, k: &Tensor, h: usize, head_dim: usize) -> (Tensor, Tensor) {
        let q_len = q.shape()[1];
        let a = Tensor::from_fn(&[q_len, head_dim], |i| q[&[h * head_dim + i[1], i[0]]]);
        let b = Tensor::from_fn(&[head_dim, q_len], |i| k[&[h * head_dim + i[0], i[1]]]);
        (a, b)
    }

    /// Head `h` of attention·V: `P_h` (`q_len × kv_len`) and `V_h^T`.
    pub fn av_head(
        p: &Tensor,
        v: &Tensor,
        h: usize,
        head_dim: usize,
        q_len: usize,
    ) -> (Tensor, Tensor) {
        let kv_len = p.shape()[1];
        let a = Tensor::from_fn(&[q_len, kv_len], |i| p[&[h * q_len + i[0], i[1]]]);
        let b = Tensor::from_fn(&[kv_len, head_dim], |i| v[&[h * head_dim + i[1], i[0]]]);
        (a, b)
    }
}

/// Replays the public calls `execute` makes for the slice `range` of
/// `network` on `input`, timing each as a stage, with the ReLU the whole
/// network applies after it; returns the slice output the replay
/// reconstructs.
fn replay_slice(
    stage: &mut Stage,
    peaks: &BTreeMap<String, f64>,
    network: &[Layer],
    range: std::ops::Range<usize>,
    weights: &WeightStore,
    input: &Tensor,
) -> Result<Tensor, CoreError> {
    let sw = stage.array.config().cvu.slice_width;
    let layers = &network[range.clone()];
    let mut act = input.clone();
    let mut stashed_v = None;
    for (li, layer) in layers.iter().enumerate() {
        let no_relu = !mirror::relu_after(network, range.start + li);
        let out_bits = mirror::output_bits(layers, li);
        let w = weights.layer(li);
        stage.peak_gmacs = peaks.get(&width_pair(layer)).copied();
        act = match layer.kind {
            LayerKind::Conv2d {
                kernel,
                stride,
                padding,
                ..
            } => {
                let (cols, oh, ow) = mirror::im2col(&act, kernel, stride, padding);
                let pw = stage.pack_weights(w, layer.weight_bits)?;
                let pc = stage.time("pack_a_ms", || {
                    pack_gemm_cols(&cols, layer.act_bits, sw, Signedness::Signed)
                })?;
                let mut acc = stage.gemm(&pw, &pc)?;
                acc.reshape(&[w.shape()[0], oh, ow]);
                stage.requant(&acc, out_bits, !no_relu)
            }
            LayerKind::FullyConnected { .. } => {
                let pw = stage.pack_weights(w, layer.weight_bits)?;
                let px = stage.time("pack_a_ms", || {
                    PackedSliceMatrix::pack(act.as_slice(), layer.act_bits, sw, Signedness::Signed)
                })?;
                let mut acc = stage.gemm(&pw, &px)?;
                acc.reshape(&[w.shape()[0]]);
                stage.requant(&acc, out_bits, !no_relu)
            }
            LayerKind::Pool { kernel, stride, .. } => {
                stage.time("requant_ms", || reference::maxpool2d(&act, kernel, stride))
            }
            LayerKind::LayerNorm { .. } => {
                stage.time("norm_ms", || reference::layer_norm_fixed(&act, out_bits))
            }
            LayerKind::Gelu { .. } => {
                stage.time("norm_ms", || reference::gelu_fixed(&act, out_bits))
            }
            LayerKind::Softmax { rows, cols } => {
                let mut s = act.clone();
                s.reshape(&[rows, cols]);
                stage.time("norm_ms", || reference::softmax_fixed(&s, out_bits))
            }
            LayerKind::MatMulQK {
                heads,
                q_len,
                kv_len,
                head_dim,
            } => {
                let hidden = heads * head_dim;
                let av_bits = layers[li + 1..]
                    .iter()
                    .find_map(|l| {
                        matches!(l.kind, LayerKind::AttentionV { .. }).then_some(l.weight_bits)
                    })
                    .expect("attention slices end in attention·V");
                let in_bits = layer.act_bits.bits();
                let k_shift = in_bits.saturating_sub(layer.weight_bits.bits());
                let v_shift = in_bits.saturating_sub(av_bits.bits());
                let q = mirror::plane(&act, 0, hidden, q_len);
                let (k1, v1) = (
                    mirror::plane(&act, 1, hidden, q_len),
                    mirror::plane(&act, 2, hidden, q_len),
                );
                let k = stage.time("requant_ms", || {
                    reference::requantize(&k1, k_shift, layer.weight_bits, Signedness::Signed)
                });
                stashed_v = Some(stage.time("requant_ms", || {
                    reference::requantize(&v1, v_shift, av_bits, Signedness::Signed)
                }));
                let mut scores = Tensor::zeros(&[heads * q_len, kv_len]);
                for h in 0..heads {
                    let (a, b) = mirror::qk_head(&q, &k, h, head_dim);
                    let pa = stage.time("pack_a_ms", || {
                        pack_gemm_rows(&a, layer.act_bits, sw, Signedness::Signed)
                    })?;
                    let pb = stage.time("pack_a_ms", || {
                        pack_gemm_cols(&b, layer.weight_bits, sw, Signedness::Signed)
                    })?;
                    let out = stage.gemm(&pa, &pb)?;
                    let n = q_len * kv_len;
                    scores.as_mut_slice()[h * n..(h + 1) * n].copy_from_slice(out.as_slice());
                }
                stage.requant(&scores, out_bits, false)
            }
            LayerKind::AttentionV {
                heads,
                q_len,
                head_dim,
                ..
            } => {
                let v = stashed_v
                    .take()
                    .expect("attention·V follows its QK in the slice");
                let mut ctx = Tensor::zeros(&[heads * head_dim, q_len, 1]);
                for h in 0..heads {
                    let (a, b) = mirror::av_head(&act, &v, h, head_dim, q_len);
                    let pa = stage.time("pack_a_ms", || {
                        pack_gemm_rows(&a, layer.act_bits, sw, Signedness::Unsigned)
                    })?;
                    let pb = stage.time("pack_a_ms", || {
                        pack_gemm_cols(&b, layer.weight_bits, sw, Signedness::Signed)
                    })?;
                    let out = stage.gemm(&pa, &pb)?;
                    for qi in 0..q_len {
                        for d in 0..head_dim {
                            ctx[&[h * head_dim + d, qi, 0]] = out.as_slice()[qi * head_dim + d];
                        }
                    }
                }
                stage.requant(&ctx, out_bits, false)
            }
            LayerKind::Recurrent { .. } => {
                panic!("bit-true workloads have no recurrent layers")
            }
        };
    }
    Ok(act)
}

/// Times one slice's replayed stages, as children of its layer span
/// `parent`, into its row.
struct Stage<'a> {
    rec: &'a mut Recorder,
    parent: SpanId,
    row: &'a mut Row,
    array: &'a SystolicArray,
    /// The measured peak of the current layer's width pair, if calibrated.
    peak_gmacs: Option<f64>,
}

impl Stage<'_> {
    fn time<T>(&mut self, stage: &str, f: impl FnOnce() -> T) -> T {
        let (value, ms) = self
            .rec
            .replay(stage.trim_end_matches("_ms"), self.parent, f);
        self.row.add(stage, ms);
        value
    }

    fn pack_weights(&mut self, w: &Tensor, bits: BitWidth) -> Result<PackedSliceMatrix, CoreError> {
        let sw = self.array.config().cvu.slice_width;
        let p = self.time("pack_w_ms", || {
            pack_gemm_rows(w, bits, sw, Signedness::Signed)
        })?;
        self.row
            .add("weight_mb", p.byte_len() as f64 / (1024.0 * 1024.0));
        Ok(p)
    }

    fn gemm(&mut self, a: &PackedSliceMatrix, b: &PackedSliceMatrix) -> Result<Tensor, CoreError> {
        let array = self.array;
        let run = self.time("gemm_ms", || array.gemm_packed(a, b))?;
        self.row.add("gemm_calls", 1.0);
        self.row.add("macs", run.macs as f64);
        if let Some(gmacs) = self.peak_gmacs {
            self.row
                .add("ideal_gemm_ms", run.macs as f64 / (gmacs * 1e6));
        }
        Ok(run.output)
    }

    fn requant(&mut self, acc: &Tensor, bits: BitWidth, relu: bool) -> Tensor {
        let shift = mirror::requant_shift_for(acc, bits);
        let q = self.time("requant_ms", || {
            reference::requantize(acc, shift, bits, Signedness::Signed)
        });
        if relu {
            self.time("requant_ms", || reference::relu(&q))
        } else {
            q
        }
    }
}

/// The peak-calibration tile: `PEAK_ROWS` rows of A (32 macro row tiles,
/// so both threads stay busy and per-call costs amortize) against as many
/// columns of B, inner length `PEAK_K`, as pack into `PEAK_B_BYTES` at the
/// activation width, so B stays resident in a 48 KiB L1d while A streams.
const PEAK_ROWS: usize = 1024;
const PEAK_K: usize = 1024;
const PEAK_B_BYTES: usize = 32 * 1024;
/// Seconds of calibration GEMMs per width pair.
const PEAK_SECONDS: f64 = 0.25;

/// Columns of B in the calibration tile at activation width `bits`: 32 at
/// 8-bit, 64 at 4-bit.
fn peak_cols(bits: BitWidth) -> usize {
    PEAK_B_BYTES * 8 / (PEAK_K * bits.bits() as usize)
}

/// `rows` packed rows of length `PEAK_K`, uniform over `bits`' signed range.
fn peak_operand(
    rows: usize,
    bits: BitWidth,
    seed: u64,
    salt: u64,
) -> Result<PackedSliceMatrix, String> {
    let sw = ArrayConfig::paper_default().cvu.slice_width;
    let (lo, hi) = bits.range(Signedness::Signed);
    let span = (hi - lo + 1) as u64;
    let vals: Vec<i32> = (0..(rows * PEAK_K) as u64)
        .map(|i| lo + (mix(seed ^ salt ^ i) % span) as i32)
        .collect();
    PackedSliceMatrix::pack_rows(&vals, rows, PEAK_K, bits, sw, Signedness::Signed)
        .map_err(|e| e.to_string())
}

/// Measures `kernels.peak_gmacs_per_s.<a>x<w>` for every `(activation,
/// weight)` width pair the network's GEMMs use: the median throughput of
/// `gemm_packed` on the calibration tile, in GMAC/s.
fn calibrate_peaks(layers: &[Layer], seed: u64) -> Result<BTreeMap<String, f64>, String> {
    let array = SystolicArray::new(ArrayConfig::paper_default());
    let mut peaks = BTreeMap::new();
    for l in layers.iter().filter(|l| l.is_compute()) {
        let pair = width_pair(l);
        if peaks.contains_key(&pair) {
            continue;
        }
        // A holds weight rows, B activation columns, as in the layers.
        let cols = peak_cols(l.act_bits);
        let a = peak_operand(PEAK_ROWS, l.weight_bits, seed, 0xa)?;
        let b = peak_operand(cols, l.act_bits, seed, 0xb)?;
        let macs = (PEAK_ROWS * cols * PEAK_K) as f64;
        let mut rates = Vec::new();
        let started = Instant::now();
        while rates.len() < 5 || started.elapsed().as_secs_f64() < PEAK_SECONDS {
            let t0 = Instant::now();
            let run = array.gemm_packed(&a, &b).map_err(|e| e.to_string())?;
            rates.push(macs / t0.elapsed().as_secs_f64() / 1e9);
            std::hint::black_box(run);
        }
        peaks.insert(pair, median(&rates));
    }
    Ok(peaks)
}

/// The per-layer table: one row per slice, stage times as the median over
/// the traced jobs, with each layer's share of the untraced job and its
/// GEMMs' fraction of the measured peak.
fn layer_table(
    names: &[&str],
    tables: &[Vec<Row>],
    (untraced_p50, traced_p50, span_sum): (f64, f64, f64),
    peaks: &BTreeMap<String, f64>,
) -> String {
    let cols = [
        "layer_ms",
        "pack_w_ms",
        "pack_a_ms",
        "gemm_ms",
        "requant_ms",
        "norm_ms",
        "self_ms",
    ];
    let mut out = String::from(
        "| layer | layer ms | share of job | pack W ms | pack A ms | gemm ms | requant ms \
         | norm ms | executor self ms | GEMM GMAC/s | roofline frac |\n\
         |---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|\n",
    );
    let mut total = [0.0; 7];
    for (k, name) in names.iter().enumerate() {
        let cell = |c: &str| median(&tables.iter().map(|t| t[k].get(c)).collect::<Vec<_>>());
        let vals: Vec<f64> = cols.iter().map(|c| cell(c)).collect();
        for (t, v) in total.iter_mut().zip(&vals) {
            *t += v;
        }
        let (gemm_ms, ideal) = (cell("gemm_ms"), cell("ideal_gemm_ms"));
        let (rate, frac) = if gemm_ms > 0.0 {
            (
                format!("{:.2}", cell("macs") / (gemm_ms * 1e6)),
                format!("{:.3}", ideal / gemm_ms),
            )
        } else {
            ("-".into(), "-".into())
        };
        let _ = writeln!(
            out,
            "| {} | {:.2} | {:.1}% | {:.2} | {:.2} | {:.2} | {:.2} | {:.2} | {:.2} | {rate} | {frac} |",
            name,
            vals[0],
            100.0 * vals[0] / untraced_p50,
            vals[1],
            vals[2],
            vals[3],
            vals[4],
            vals[5],
            vals[6],
        );
    }
    let _ = writeln!(
        out,
        "| **sum** | {:.2} | {:.1}% | {:.2} | {:.2} | {:.2} | {:.2} | {:.2} | {:.2} | | |",
        total[0],
        100.0 * total[0] / untraced_p50,
        total[1],
        total[2],
        total[3],
        total[4],
        total[5],
        total[6],
    );
    let _ = writeln!(
        out,
        "\nUntraced job p50 {untraced_p50:.2} ms; traced job p50 {traced_p50:.2} ms; \
         layer spans sum to {span_sum:.2} ms per traced job."
    );
    let _ = write!(
        out,
        "Peak `gemm_packed` ({PEAK_ROWS} rows x {} KiB of packed columns, k = {PEAK_K}):",
        PEAK_B_BYTES / 1024
    );
    for (pair, gmacs) in peaks {
        let _ = write!(out, " {pair} {gmacs:.2} GMAC/s;");
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv(name: &str, ic: usize, oc: usize, k: usize, hw: usize) -> Layer {
        Layer::new(
            name,
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

    fn model(layers: Vec<Layer>) -> Model {
        let weights = WeightStore::synthesize(&layers, 7);
        let input = input_for(&layers[0], 9);
        Model {
            layers,
            weights,
            input,
            weight_seed: 7,
        }
    }

    /// A small CNN with the AlexNet layer kinds and mixed widths.
    fn small_cnn() -> Model {
        let narrow = |l: Layer| l.with_bits(BitWidth::INT4, BitWidth::INT4);
        model(vec![
            conv("c1", 3, 8, 3, 8),
            narrow(Layer::new(
                "p1",
                LayerKind::Pool {
                    channels: 8,
                    kernel: (2, 2),
                    stride: (2, 2),
                    input_hw: (8, 8),
                },
            )),
            narrow(conv("c2", 8, 6, 3, 4)),
            Layer::new(
                "fc",
                LayerKind::FullyConnected {
                    in_features: 6 * 4 * 4,
                    out_features: 10,
                },
            ),
        ])
    }

    #[test]
    fn a_corrupted_expected_value_counts_as_failed_jobs() {
        let (ex, model) = (executor(), small_cnn());
        let good = expected(&ex, &model).unwrap();
        let ok = measure::closed_loop(0.0, || job(&ex, &model), |t| check(t, &good));
        assert_eq!((ok.attempted(), ok.failed), (measure::MIN_JOBS, 0));
        for bad in [
            Expected {
                digest: good.digest ^ 1,
                ..good
            },
            Expected {
                cycles: good.cycles + 1,
                ..good
            },
            Expected {
                array_macs: good.array_macs - 1,
                ..good
            },
        ] {
            let r = measure::closed_loop(0.0, || job(&ex, &model), |t| check(t, &bad));
            assert_eq!(r.failed, r.attempted());
            assert!(r.first_error.unwrap().contains("expected"));
        }
    }

    /// The replayed stages reproduce every slice's output, and the slices
    /// together issue the whole job's cycles and MACs.
    #[test]
    fn replay_reproduces_cnn_and_transformer_slices() {
        let mut block = Vec::new();
        transformer_block(&mut block, "b", 16, 2, 4, 4);
        for l in &mut block {
            if l.is_compute() {
                *l = l.clone().with_bits(BitWidth::INT8, BitWidth::INT4);
            }
        }
        for model in [small_cnn(), model(block)] {
            let ex = executor();
            let want = expected(&ex, &model).unwrap();
            let slices = Slices::new(&model).unwrap();
            let mut rec = Recorder::default();
            let pass = traced_pass(&mut rec, &ex, &slices, &model, &want).unwrap();
            let (tally, rows) =
                replay_pass(&mut rec, &slices, &model, &BTreeMap::new(), &pass).unwrap();
            assert_eq!(rows.len(), slices.ranges.len());
            assert!(tally.get("systolic.gemm_calls") > 0.0);
            for ((_, r), out) in slices.ranges.iter().zip(&pass.outputs) {
                if mirror::relu_after(&model.layers, r.end - 1) {
                    assert!(out.as_slice().iter().all(|&v| v >= 0), "ReLU skipped");
                }
            }
        }
        let cnn = small_cnn();
        let relus = (0..cnn.layers.len())
            .filter(|&li| mirror::relu_after(&cnn.layers, li))
            .count();
        assert_eq!(relus, 2, "c1 and c2 apply ReLU, the final fc does not");
    }

    /// The calibration tile's B operand stays within the L1 budget at every
    /// activation width.
    #[test]
    fn peak_tile_b_fits_its_budget() {
        for bits in [BitWidth::INT8, BitWidth::INT4, BitWidth::INT2] {
            let b = peak_operand(peak_cols(bits), bits, 1, 0xb).unwrap();
            assert!(b.byte_len() <= PEAK_B_BYTES, "{bits:?}: {}", b.byte_len());
        }
    }
}
