//! The operand staging [`crate::NetworkExecutor::execute`] runs between two
//! `gemm_packed` calls: convolution patches gathered straight into packed
//! bit planes, and the epilogues — requantize with ReLU, max pooling,
//! softmax, layer norm and GELU — as passes over slices, in place where the
//! output replaces the input.
//!
//! Every stage splits its work into chunks of whole units (elements, rows,
//! channels or tokens), [`grain`] units to a chunk, and runs them through
//! the rayon shim's `par_chunks_mut`, so a tensor below
//! [`bpvec_core::PAR_MIN_ELEMS`] stays on the calling thread. Workers
//! write only into slices the caller allocated. Results do not depend on
//! the chunking: the unit tests run every stage at several chunk sizes
//! against `bpvec_dnn::reference`, which these stages share no code with.

pub(crate) use bpvec_core::par_grain as grain;
use bpvec_core::{BitWidth, CoreError, GatherRow, PackedSliceMatrix, Signedness, SliceWidth};
use bpvec_dnn::Tensor;
use rayon::prelude::*;

/// The geometry of one convolution over a `[c, h, w]` input.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ConvShape {
    /// Input channels, height and width.
    pub input: (usize, usize, usize),
    pub kernel: (usize, usize),
    pub stride: (usize, usize),
    pub padding: (usize, usize),
}

impl ConvShape {
    /// Output height and width.
    pub fn output_hw(&self) -> (usize, usize) {
        let (_, h, w) = self.input;
        (
            (h + 2 * self.padding.0 - self.kernel.0) / self.stride.0 + 1,
            (w + 2 * self.padding.1 - self.kernel.1) / self.stride.1 + 1,
        )
    }

    /// True for a 1×1, stride-1, unpadded convolution, whose patches are
    /// the input's columns.
    pub fn is_pointwise(&self) -> bool {
        self.kernel == (1, 1) && self.stride == (1, 1) && self.padding == (0, 0)
    }

    /// Writes output position `pos`'s receptive field into `patch` in
    /// `(channel, ky, kx)` order — the weights' OIHW row order — as one
    /// run of input elements per channel and kernel row, with zeros where
    /// the window hangs over the padding.
    fn gather(&self, pos: usize, patch: &mut GatherRow) {
        let (c, h, w) = self.input;
        let (kh, kw) = self.kernel;
        let (py, px) = self.padding;
        let ow = self.output_hw().1;
        // The window's first row and column in padded coordinates.
        let (y0, x0) = ((pos / ow) * self.stride.0, (pos % ow) * self.stride.1);
        if y0 >= py && x0 >= px && y0 + kh <= h + py && x0 + kw <= w + px {
            let first = (y0 - py) * w + (x0 - px);
            for plane in 0..c {
                for ky in 0..kh {
                    patch.copy(first + (plane * h + ky) * w, kw);
                }
            }
            return;
        }
        // Kernel columns [kx0, kx1) land inside the image, from input
        // column ix0.
        let kx0 = px.saturating_sub(x0).min(kw);
        let kx1 = (w + px).saturating_sub(x0).clamp(kx0, kw);
        let ix0 = (x0 + kx0).saturating_sub(px);
        for plane in 0..c {
            for ky in 0..kh {
                match (y0 + ky).checked_sub(py).filter(|&iy| iy < h) {
                    Some(iy) => {
                        patch.zeros(kx0);
                        patch.copy((plane * h + iy) * w + ix0, kx1 - kx0);
                        patch.zeros(kw - kx1);
                    }
                    None => patch.zeros(kw),
                }
            }
        }
    }
}

/// Packs a convolution's activation operand: one vector per output
/// position, `oh · ow` of them, each its receptive field at `width`.
///
/// A pointwise convolution's patches are the `[c, h·w]` input's columns,
/// so the input column-packs as it stands; every other shape gathers each
/// patch straight into its packed vector.
///
/// # Errors
///
/// Returns [`CoreError::ValueOutOfRange`] on the first element, in patch
/// order, that does not fit `width`/`signedness`.
pub(crate) fn pack_patches(
    src: &[i32],
    conv: ConvShape,
    width: BitWidth,
    slice_width: SliceWidth,
    signedness: Signedness,
) -> Result<PackedSliceMatrix, CoreError> {
    let (c, h, w) = conv.input;
    if conv.is_pointwise() {
        return PackedSliceMatrix::pack_cols(src, c, h * w, width, slice_width, signedness);
    }
    let (oh, ow) = conv.output_hw();
    PackedSliceMatrix::pack_gathered(
        src,
        oh * ow,
        c * conv.kernel.0 * conv.kernel.1,
        width,
        slice_width,
        signedness,
        |pos, patch| conv.gather(pos, patch),
    )
}

/// The largest `|v|` of `data`, a parallel reduction over chunks of
/// `grain` elements.
pub(crate) fn max_abs(data: &[i32], grain: usize) -> u32 {
    let mut partial = vec![0u32; data.len().div_ceil(grain)];
    partial.par_chunks_mut(1).enumerate().for_each(|(i, p)| {
        let chunk = &data[i * grain..data.len().min((i + 1) * grain)];
        p[0] = chunk.iter().map(|v| v.unsigned_abs()).max().unwrap_or(0);
    });
    partial.into_iter().max().unwrap_or(0)
}

/// The smallest right shift that brings `max_abs` into the signed `bits`
/// range: the signed maximum is `2^(bits−1) − 1`, so the shift is the
/// number of bits `max_abs` has beyond `bits − 1`.
pub(crate) fn shift_for(max_abs: u32, bits: BitWidth) -> u32 {
    (u32::BITS - max_abs.leading_zeros()).saturating_sub(bits.bits() - 1)
}

/// Requantizes `data` in place by `shift` — round half away from zero,
/// then clamp to the signed `bits` range (to `[0, hi]` with `relu`) —
/// over chunks of `grain` elements.
pub(crate) fn requantize_by(
    data: &mut [i32],
    shift: u32,
    bits: BitWidth,
    relu: bool,
    grain: usize,
) {
    let (lo, hi) = bits.range(Signedness::Signed);
    let (lo, hi) = (if relu { 0 } else { i64::from(lo) }, i64::from(hi));
    let half = shift.checked_sub(1).map_or(0, |s| 1i64 << s);
    data.par_chunks_mut(grain).for_each(|chunk| {
        for v in chunk {
            // `half` away from zero, branch-free: accumulator signs are
            // too random to predict. `sign` is 0 or −1, and
            // `(half ^ −1) − (−1)` is `−half`.
            let x = i64::from(*v);
            let sign = x >> 63;
            *v = ((x + ((half ^ sign) - sign)) >> shift).clamp(lo, hi) as i32;
        }
    });
}

/// Requantizes accumulators in place to the signed `bits` range, with the
/// per-tensor shift that fits their largest magnitude; returns the shift.
pub(crate) fn requantize(data: &mut [i32], bits: BitWidth, relu: bool) -> u32 {
    let grain = grain(data.len(), 1);
    let shift = shift_for(max_abs(data, grain), bits);
    requantize_by(data, shift, bits, relu, grain);
    shift
}

/// Max pooling of a `[c, h, w]` input (unpadded windows), `grain` channels
/// per chunk; returns the `[c, oh, ow]` output.
pub(crate) fn maxpool(
    src: &[i32],
    (c, h, w): (usize, usize, usize),
    kernel: (usize, usize),
    stride: (usize, usize),
    grain: usize,
) -> Tensor {
    let (oh, ow) = ((h - kernel.0) / stride.0 + 1, (w - kernel.1) / stride.1 + 1);
    let mut out = Tensor::zeros(&[c, oh, ow]);
    if oh * ow == 0 {
        return out;
    }
    out.as_mut_slice()
        .par_chunks_mut(grain * oh * ow)
        .enumerate()
        .for_each(|(g, planes)| {
            for (ci, plane) in planes.chunks_exact_mut(oh * ow).enumerate() {
                let input = &src[(g * grain + ci) * h * w..][..h * w];
                for (oy, row) in plane.chunks_exact_mut(ow).enumerate() {
                    row.fill(i32::MIN);
                    for line in input[oy * stride.0 * w..].chunks(w).take(kernel.0) {
                        for (ox, best) in row.iter_mut().enumerate() {
                            let window = &line[ox * stride.1..ox * stride.1 + kernel.1];
                            *best = window.iter().fold(*best, |m, &v| m.max(v));
                        }
                    }
                }
            }
        });
    out
}

/// The softmax's fixed-point exponential: a score `d` below its row's
/// maximum weighs `2^20 >> d`.
const SOFTMAX_ONE: i64 = 1 << 20;

/// Row-wise fixed-point softmax of a `[rows, cols]` score matrix, in place,
/// `grain` rows per chunk. Each row becomes unsigned probabilities summing
/// exactly to `1 << (bits − 1)`: floor quotients of the base-2 weights,
/// then one more unit to each of the `deficit` largest remainders, ties to
/// the lower column. A selection finds those remainders; no row is sorted.
pub(crate) fn softmax(data: &mut [i32], cols: usize, bits: BitWidth, grain: usize) {
    if cols == 0 {
        return;
    }
    let unit = 1i64 << (bits.bits() - 1);
    let weight = |d: i64| {
        u32::try_from(d)
            .ok()
            .and_then(|d| SOFTMAX_ONE.checked_shr(d))
            .unwrap_or(0)
    };
    // One remainder scratch row per chunk, allocated here so workers
    // allocate nothing.
    let mut scratch = vec![(0i64, 0usize); data.len().div_ceil(grain * cols) * cols];
    let mut tasks: Vec<_> = data
        .chunks_mut(grain * cols)
        .zip(scratch.chunks_mut(cols))
        .collect();
    tasks.par_chunks_mut(1).for_each(|task| {
        let (rows, remainders) = &mut task[0];
        for row in rows.chunks_exact_mut(cols) {
            let max = i64::from(*row.iter().max().expect("rows are not empty"));
            let total = Divisor::new(row.iter().map(|&x| weight(max - i64::from(x))).sum());
            let mut deficit = unit;
            // The remainders sum to `deficit · total`, each below `total`,
            // so more than `deficit` of them are positive and a zero one
            // never gets a unit: keep only the positive ones, branch-free.
            let mut positive = 0;
            for (j, x) in row.iter_mut().enumerate() {
                let (q, rem) = total.div_rem(unit * weight(max - i64::from(*x)));
                deficit -= q;
                *x = q as i32;
                remainders[positive] = (rem, j);
                positive += usize::from(rem > 0);
            }
            let deficit = deficit as usize;
            if deficit == 0 {
                continue;
            }
            // Largest remainder first, the lower column on ties: a total
            // order, so the first `deficit` after selection are exactly
            // the first `deficit` of a full sort.
            let candidates = &mut remainders[..positive];
            candidates
                .select_nth_unstable_by(deficit - 1, |a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
            for &(_, j) in &candidates[..deficit] {
                row[j] += 1;
            }
        }
    });
}

/// `⌊√v⌋`.
fn isqrt(v: u64) -> u64 {
    let mut r = (v as f64).sqrt() as u64;
    while r * r > v {
        r -= 1;
    }
    while (r + 1) * (r + 1) <= v {
        r += 1;
    }
    r
}

/// A positive divisor below 2^52 with its reciprocal, for exact division
/// of non-negative numerators below 2^52 without an integer divide: the
/// product with the reciprocal is within one of the quotient, and the
/// remainder's sign and size correct it.
#[derive(Clone, Copy)]
struct Divisor {
    d: i64,
    inv: f64,
}

impl Divisor {
    fn new(d: i64) -> Self {
        debug_assert!(d > 0 && d < 1 << 52);
        Divisor {
            d,
            inv: 1.0 / d as f64,
        }
    }

    /// `(n / d, n % d)`.
    #[inline]
    fn div_rem(self, n: i64) -> (i64, i64) {
        debug_assert!((0..1 << 52).contains(&n));
        let q = (n as f64 * self.inv) as i64;
        let r = n - q * self.d;
        if r < 0 {
            (q - 1, r + self.d)
        } else if r >= self.d {
            (q + 1, r - self.d)
        } else {
            (q, r)
        }
    }

    /// `n / d` rounded half away from zero, the sign restored branch-free
    /// (`sign` is 0 or −1, and `(q ^ −1) − (−1)` is `−q`).
    #[inline]
    fn div_round(self, n: i64) -> i64 {
        let q = self.div_rem(n.abs() + self.d / 2).0;
        let sign = n >> 63;
        (q ^ sign) - sign
    }
}

/// Fixed-point layer norm of a `[features, tokens]` activation over its
/// features, in place. Each token's floor mean and integer standard
/// deviation accumulate token-major — a block of `token_grain` tokens walks
/// the features one contiguous row segment at a time — and the rows then
/// normalize `row_grain` at a time: `(x − mean)·(hi/2) / std`, rounded half
/// away and clamped to the signed `bits` range.
pub(crate) fn layer_norm(
    data: &mut [i32],
    features: usize,
    bits: BitWidth,
    (token_grain, row_grain): (usize, usize),
) {
    if features == 0 || data.is_empty() {
        return;
    }
    let tokens = data.len() / features;
    let (lo, hi) = bits.range(Signedness::Signed);
    let scale = i64::from(hi / 2).max(1);
    // Per token: (sum, then mean; squared deviations, then std).
    let mut stats = vec![(0i64, 0i64); tokens];
    let src = &*data;
    stats
        .par_chunks_mut(token_grain)
        .enumerate()
        .for_each(|(g, block)| {
            let span = g * token_grain..g * token_grain + block.len();
            let rows = || src.chunks_exact(tokens).map(|row| &row[span.clone()]);
            for row in rows() {
                for (s, &x) in block.iter_mut().zip(row) {
                    s.0 += i64::from(x);
                }
            }
            for s in block.iter_mut() {
                s.0 = s.0.div_euclid(features as i64);
            }
            for row in rows() {
                for (s, &x) in block.iter_mut().zip(row) {
                    s.1 += (i64::from(x) - s.0).pow(2);
                }
            }
            for s in block.iter_mut() {
                s.1 = (isqrt((s.1 / features as i64) as u64) as i64).max(1);
            }
        });
    let stats: Vec<(i64, Divisor)> = stats
        .into_iter()
        .map(|(mean, std)| (mean, Divisor::new(std)))
        .collect();
    data.par_chunks_mut(row_grain * tokens).for_each(|rows| {
        for row in rows.chunks_exact_mut(tokens) {
            for (x, &(mean, std)) in row.iter_mut().zip(&stats) {
                let y = std.div_round((i64::from(*x) - mean) * scale);
                *x = y.clamp(i64::from(lo), i64::from(hi)) as i32;
            }
        }
    });
}

/// Integer GELU in place, `grain` elements per chunk: `x · clamp(x + hi,
/// 0, 2·hi) / (2·hi)`, rounded half away. Inputs inside the signed `bits`
/// range read a table built once per call; any other input is computed.
pub(crate) fn gelu(data: &mut [i32], bits: BitWidth, grain: usize) {
    let (lo, hi) = bits.range(Signedness::Signed);
    let two_hi = (2 * i64::from(hi)).max(1);
    let two_hi = Divisor::new(two_hi);
    let f = |v: i32| {
        let x = i64::from(v);
        two_hi.div_round(x * (x + i64::from(hi)).clamp(0, two_hi.d)) as i32
    };
    let table: Vec<i32> = (lo..=hi).map(f).collect();
    data.par_chunks_mut(grain).for_each(|chunk| {
        for v in chunk {
            *v = match table.get(v.wrapping_sub(lo) as u32 as usize) {
                Some(&y) => y,
                None => f(*v),
            };
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpvec_dnn::packing::pack_gemm_cols;
    use bpvec_dnn::reference;
    use rand::{Rng, SeedableRng};

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    fn widths() -> impl Iterator<Item = BitWidth> {
        (1..=8).map(|b| BitWidth::new(b).expect("1..=8 are widths"))
    }

    /// Chunk sizes that split `len` units every way the shim can see:
    /// one unit per chunk, uneven tails, and a single chunk.
    fn grains(len: usize) -> [usize; 4] {
        [1, 3, 7, len.max(1)]
    }

    #[test]
    fn requantize_matches_reference_at_every_shift_and_split() {
        let mut r = rng(1);
        let mut values: Vec<i32> = (0..61)
            .map(|_| r.gen_range(-5_000_000..=5_000_000))
            .collect();
        values.extend([
            0,
            1,
            -1,
            2,
            -2,
            3,
            -3,
            i32::MAX,
            i32::MIN,
            i32::MAX - 1,
            i32::MIN + 1,
        ]);
        let t = Tensor::from_data(&[values.len()], values.clone());
        for bits in widths() {
            for shift in [0, 1, 2, 7, 15, 30, 31, 32, 33, 40, 62, 63] {
                let q = reference::requantize(&t, shift, bits, Signedness::Signed);
                for relu in [false, true] {
                    let want = if relu { reference::relu(&q) } else { q.clone() };
                    for grain in grains(values.len()) {
                        let mut got = values.clone();
                        requantize_by(&mut got, shift, bits, relu, grain);
                        assert_eq!(
                            got,
                            want.as_slice(),
                            "{bits} shift {shift} relu {relu} grain {grain}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn shift_fits_the_largest_magnitude_like_the_reference() {
        // The executor's reference pipeline calibrates with a loop over
        // `Tensor::max_abs`; `shift_for` is the closed form. Each case's
        // largest magnitude is its middle element; `i32::MIN` has no
        // negation, so its case is written out.
        let cases = [
            0,
            1,
            2,
            3,
            7,
            8,
            127,
            128,
            255,
            256,
            (1 << 20) - 1,
            1 << 20,
            i32::MAX,
        ]
        .map(|max| vec![max / 3, -max, max / 2])
        .into_iter()
        .chain([vec![i32::MIN / 3, i32::MIN, i32::MIN / 2]]);
        for data in cases {
            let max = data[1].unsigned_abs();
            let t = Tensor::from_data(&[3], data);
            for grain in grains(3) {
                assert_eq!(max_abs(t.as_slice(), grain), max);
            }
            for bits in widths() {
                assert_eq!(
                    shift_for(max, bits),
                    crate::executor::requant_shift_for(&t, bits),
                    "max {max} at {bits}"
                );
            }
        }
    }

    #[test]
    fn maxpool_matches_reference() {
        let mut r = rng(2);
        for ((c, h, w), kernel, stride) in [
            ((5, 55, 55), (3, 3), (2, 2)),
            ((3, 7, 9), (2, 3), (2, 1)),
            ((2, 4, 4), (4, 4), (1, 1)),
        ] {
            let x = Tensor::from_fn(&[c, h, w], |_| r.gen_range(-1000..=1000));
            let want = reference::maxpool2d(&x, kernel, stride);
            for grain in grains(c) {
                let got = maxpool(x.as_slice(), (c, h, w), kernel, stride, grain);
                assert_eq!(got, want, "[{c}, {h}, {w}] grain {grain}");
            }
        }
        assert_eq!(
            reference::maxpool2d(&Tensor::zeros(&[5, 55, 55]), (3, 3), (2, 2)).shape(),
            &[5, 27, 27]
        );
    }

    #[test]
    fn softmax_matches_reference() {
        let mut r = rng(3);
        // Ties in the remainders (equal scores share them), scores 63 or
        // more below the maximum (zero weight), all-equal rows, and
        // random rows.
        let mut rows: Vec<Vec<i32>> = vec![
            vec![0, 0, 0],
            vec![5; 7],
            vec![9, 9, 9, 9],
            vec![0, -63, -64, -1000, 0, -62, -20, -21],
            vec![i32::MIN, i32::MAX, 0],
            vec![3, 1, 3, 1, 3, 1],
            vec![-7, -7, -8, -8, -9, -9, -10],
        ];
        rows.extend((0..24).map(|_| (0..9).map(|_| r.gen_range(-12..=12)).collect()));
        for bits in widths() {
            for row in &rows {
                // Each row alone, as a one-row matrix, and the same row
                // five times over for the row splits.
                let cols = row.len();
                let many: Vec<i32> = row.iter().copied().cycle().take(5 * cols).collect();
                let want =
                    reference::softmax_fixed(&Tensor::from_data(&[5, cols], many.clone()), bits);
                for grain in grains(5) {
                    let mut got = many.clone();
                    softmax(&mut got, cols, bits, grain);
                    assert_eq!(got, want.as_slice(), "{row:?} at {bits}, grain {grain}");
                }
            }
            // One column: every row is all the mass.
            let col: Vec<i32> = (0..6).map(|_| r.gen_range(-100..=100)).collect();
            let want = reference::softmax_fixed(&Tensor::from_data(&[6, 1], col.clone()), bits);
            let mut got = col;
            softmax(&mut got, 1, bits, 4);
            assert_eq!(got, want.as_slice(), "one column at {bits}");
        }
    }

    #[test]
    fn layer_norm_matches_reference() {
        let mut r = rng(4);
        let (features, tokens) = (13, 11);
        let inputs = [
            // Zero variance: every feature of a token equal.
            Tensor::from_fn(&[features, tokens], |i| i[1] as i32 * 17 - 90),
            // Negative means, so the floor mean differs from truncation.
            Tensor::from_fn(&[features, tokens], |_| r.gen_range(-300..=20)),
            Tensor::from_fn(&[features, tokens, 1], |_| r.gen_range(-128..=127)),
            Tensor::from_fn(&[features, tokens], |_| r.gen_range(-1_000_000..=1_000_000)),
        ];
        for x in &inputs {
            for bits in widths() {
                let want = reference::layer_norm_fixed(x, bits);
                for (tg, rg) in grains(tokens).into_iter().zip(grains(features)) {
                    let mut got = x.as_slice().to_vec();
                    layer_norm(&mut got, features, bits, (tg, rg));
                    assert_eq!(got, want.as_slice(), "{bits}, grains ({tg}, {rg})");
                }
            }
        }
    }

    #[test]
    fn gelu_matches_reference_inside_and_outside_the_table() {
        for bits in widths() {
            let (lo, hi) = bits.range(Signedness::Signed);
            let mut x: Vec<i32> = (lo - 40..=hi + 40).collect();
            x.extend([-100_000, 100_000, i32::MIN, i32::MAX, i32::MIN + 1]);
            let want = reference::gelu_fixed(&Tensor::from_data(&[x.len()], x.clone()), bits);
            for grain in grains(x.len()) {
                let mut got = x.clone();
                gelu(&mut got, bits, grain);
                assert_eq!(got, want.as_slice(), "{bits}, grain {grain}");
            }
        }
    }

    /// im2col with zero padding, element by element: `[c·kh·kw, oh·ow]`.
    fn im2col(x: &Tensor, conv: ConvShape) -> Tensor {
        let (c, h, w) = conv.input;
        let (kh, kw) = conv.kernel;
        let (oh, ow) = conv.output_hw();
        Tensor::from_fn(&[c * kh * kw, oh * ow], |i| {
            let (ci, ky, kx) = (i[0] / (kh * kw), i[0] / kw % kh, i[0] % kw);
            let iy = (i[1] / ow * conv.stride.0 + ky) as isize - conv.padding.0 as isize;
            let ix = (i[1] % ow * conv.stride.1 + kx) as isize - conv.padding.1 as isize;
            if (0..h as isize).contains(&iy) && (0..w as isize).contains(&ix) {
                x[&[ci, iy as usize, ix as usize]]
            } else {
                0
            }
        })
    }

    /// Convolution shapes: pointwise, strided 1×1, square and asymmetric
    /// kernels, strides and paddings, and kernels wider than the image.
    fn conv_shapes() -> Vec<ConvShape> {
        let conv = |input, kernel, stride, padding| ConvShape {
            input,
            kernel,
            stride,
            padding,
        };
        vec![
            conv((5, 6, 1), (1, 1), (1, 1), (0, 0)),
            conv((4, 7, 5), (1, 1), (1, 1), (0, 0)),
            conv((3, 7, 7), (1, 1), (2, 2), (0, 0)),
            conv((3, 8, 8), (3, 3), (1, 1), (1, 1)),
            conv((3, 9, 7), (3, 5), (2, 1), (0, 2)),
            conv((2, 9, 10), (5, 5), (1, 1), (2, 2)),
            conv((3, 23, 21), (11, 11), (4, 4), (2, 2)),
            conv((2, 6, 5), (2, 3), (1, 2), (1, 0)),
            conv((2, 3, 3), (5, 5), (1, 1), (2, 2)),
            conv((2, 4, 4), (3, 3), (2, 3), (2, 1)),
            conv((7, 30, 30), (3, 3), (1, 1), (1, 1)),
        ]
    }

    #[test]
    fn patch_packer_matches_pack_gemm_cols_of_im2col() {
        let mut r = rng(5);
        for conv in conv_shapes() {
            let (c, h, w) = conv.input;
            for bits in widths() {
                for signedness in [Signedness::Signed, Signedness::Unsigned] {
                    let (lo, hi) = bits.range(signedness);
                    let x = Tensor::from_fn(&[c, h, w], |_| r.gen_range(lo..=hi));
                    let cols = im2col(&x, conv);
                    for sw in [
                        SliceWidth::BIT1,
                        SliceWidth::BIT2,
                        SliceWidth::BIT4,
                        SliceWidth::BIT8,
                    ] {
                        let got = pack_patches(x.as_slice(), conv, bits, sw, signedness).unwrap();
                        let want = pack_gemm_cols(&cols, bits, sw, signedness).unwrap();
                        assert_eq!(got, want, "{conv:?} at {bits} {signedness:?} {sw}");
                    }
                }
            }
        }
    }

    #[test]
    fn planted_out_of_range_values_give_the_im2col_error() {
        let mut r = rng(6);
        for conv in conv_shapes() {
            let (c, h, w) = conv.input;
            for trial in 0..12 {
                let bits = BitWidth::new(1 + trial % 8).unwrap();
                let (lo, hi) = bits.range(Signedness::Signed);
                let mut x = Tensor::from_fn(&[c, h, w], |_| r.gen_range(lo..=hi));
                // One or two planted values, either side of the range.
                for k in 0..1 + trial % 2 {
                    let at = r.gen_range(0..x.len());
                    x.as_mut_slice()[at] = if k == 0 { hi + 1 + at as i32 } else { lo - 1 };
                }
                let got = pack_patches(
                    x.as_slice(),
                    conv,
                    bits,
                    SliceWidth::BIT2,
                    Signedness::Signed,
                );
                let want = pack_gemm_cols(
                    &im2col(&x, conv),
                    bits,
                    SliceWidth::BIT2,
                    Signedness::Signed,
                );
                assert_eq!(got, want, "{conv:?} trial {trial}");
            }
        }
        // A value no patch reads is never checked: a stride-2 1×1 window
        // skips odd rows and columns.
        let conv = ConvShape {
            input: (1, 5, 5),
            kernel: (1, 1),
            stride: (2, 2),
            padding: (0, 0),
        };
        let mut x = Tensor::zeros(&[1, 5, 5]);
        x[&[0, 1, 1]] = 1000;
        let got = pack_patches(
            x.as_slice(),
            conv,
            BitWidth::INT4,
            SliceWidth::BIT2,
            Signedness::Signed,
        );
        assert_eq!(
            got,
            pack_gemm_cols(
                &im2col(&x, conv),
                BitWidth::INT4,
                SliceWidth::BIT2,
                Signedness::Signed
            )
        );
        assert!(got.is_ok());
    }
}
