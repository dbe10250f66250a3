//! Runtime-dispatched SIMD realizations of the packed slice-plane kernels.
//!
//! Every packed dot in this crate reduces to one primitive: a *weighted
//! sub-plane popcount*. Each operand is a run of ≤ 8 one-bit sub-planes
//! (bit `t` of the padded two's-complement pattern, extracted across the
//! whole vector), and the dot-product is
//!
//! ```text
//!   Σ_{i,l}  w_i · w_l · popcount(asub_i & bsub_l)
//! ```
//!
//! where `w_t = 2^t`, negated for the top bit of a signed operand (two's
//! complement). The paper's CVU applies each significance once per cluster
//! output, after the adder trees have reduced the whole vector (§II,
//! Equation 4); the kernels here follow it by summing popcounts per
//! significance `t = i + l` and shifting once per output.
//!
//! The primitive has two realizations:
//!
//! * **Per dot** — one output at a time. [`crate::nbve::slice_dot_words`]
//!   is the primitive over a single slice plane per operand, the fused
//!   [`crate::PackedSliceMatrix::dot`] over all planes at once, and GEMM
//!   blocks with fewer than [`LANE_MIN_COLS`] columns (GEMVs) run it per
//!   output on pre-extracted sub-planes zero-padded to [`pad_words`].
//! * **Lane micro-kernel** — the GEMM block
//!   ([`crate::PackedSliceMatrix::dot_block_lanes_into`]). Each operand's
//!   sub-planes are *dense*: sub-plane `p` of `s` consecutive `s`-bit
//!   words packs into one word, word `r`'s bits shifted left by `r`, so a
//!   word holds 64 elements. Both operands share that element order, so
//!   AND + popcount still pairs equal elements. A *lane panel* holds the
//!   dense sub-planes of one A row per SIMD lane (8 on AVX-512, 4 on
//!   AVX2); each B column's words are broadcast against it, and each
//!   significance keeps its own accumulator, shifted once when the column
//!   is done. Signs cost no per-pair branch: each signed operand's top
//!   sub-plane is flipped over its valid elements, mapping `x` to
//!   `u = x + 2^(b−1)` (`b` sub-planes), the kernel runs sign-free, and
//!   every output is corrected once:
//!   `dot = Σuv − o_b·Σu − o_a·Σv + k·o_a·o_b`.
//!
//! This module provides three interchangeable realizations ("tiers"):
//!
//! * [`KernelTier::Scalar`] — portable u64 popcount/SWAR, always available,
//!   always correct. This is the reference the SIMD tiers are pinned to; it
//!   runs the per-dot realization for every shape.
//! * [`KernelTier::Avx2`] — 256-bit lanes, AND + vpshufb nibble-LUT
//!   popcount (Mula/Harley-Seal style) + `vpsadbw` lane reduction.
//! * [`KernelTier::Avx512`] — 512-bit lanes with native `vpopcntq`
//!   (AVX-512 VPOPCNTDQ), the fastest path on modern x86 servers.
//!
//! The active tier is chosen **once** per process by
//! [`active_tier`]: runtime CPU-feature detection
//! (`is_x86_feature_detected!`) cached in a `OnceLock`, overridable for
//! testing and CI via the `BPVEC_KERNEL` environment variable
//! (`scalar` | `avx2` | `avx512` | `auto`).
//! Requesting a tier the host cannot run falls back to the best available
//! one, so an override never produces wrong answers — only the scalar
//! fallback guarantee, exercised end-to-end by the `BPVEC_KERNEL=scalar`
//! CI leg. Non-x86 targets (NEON et al.) currently always take the scalar
//! tier; the dispatch table is where a future `std::arch` aarch64 kernel
//! slots in.
//!
//! Correctness contract: for every [`crate::BitWidth`] ×
//! [`crate::SliceWidth`] × [`crate::Signedness`] combination and every
//! vector length (including 0, lane-fraction and unaligned tails), all
//! tiers return **bit-identical** results — property-pinned in
//! `tests/kernel_dispatch.rs` and `tests/packed_properties.rs`.

use std::fmt;
use std::sync::OnceLock;

/// One realization of the packed slice-plane kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum KernelTier {
    /// Portable u64 popcount/SWAR — always available, always correct.
    Scalar,
    /// 256-bit AVX2: vpshufb nibble-LUT popcount + vpsadbw reduction.
    Avx2,
    /// 512-bit AVX-512 (F/BW/VL/VPOPCNTDQ): native `vpopcntq`.
    Avx512,
}

impl KernelTier {
    /// Stable lowercase name (used by `BPVEC_KERNEL` and metrics keys).
    ///
    /// ```
    /// use bpvec_core::KernelTier;
    /// assert_eq!(KernelTier::Scalar.name(), "scalar");
    /// assert_eq!(KernelTier::Avx512.to_string(), "avx512");
    /// ```
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Scalar => "scalar",
            KernelTier::Avx2 => "avx2",
            KernelTier::Avx512 => "avx512",
        }
    }

    /// u64 words per SIMD vector (1 for the scalar tier): the per-dot
    /// kernels' chunk, and the lane kernel's A rows per lane panel.
    #[must_use]
    pub fn lane_words(self) -> usize {
        match self {
            KernelTier::Scalar => 1,
            KernelTier::Avx2 => 4,
            KernelTier::Avx512 => 8,
        }
    }
}

impl fmt::Display for KernelTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The widest tier this CPU can execute (ignores overrides).
#[must_use]
pub fn detected_tier() -> KernelTier {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512bw")
            && is_x86_feature_detected!("avx512vl")
            && is_x86_feature_detected!("avx512vpopcntdq")
        {
            return KernelTier::Avx512;
        }
        if is_x86_feature_detected!("avx2") {
            return KernelTier::Avx2;
        }
    }
    KernelTier::Scalar
}

/// Every tier the host can run, narrowest first (always starts with
/// `Scalar`). Tests iterate this to pin SIMD == scalar on whatever
/// hardware they land on.
///
/// ```
/// use bpvec_core::kernels::{available_tiers, KernelTier};
/// let tiers = available_tiers();
/// assert_eq!(tiers[0], KernelTier::Scalar);
/// assert!(tiers.windows(2).all(|w| w[0] < w[1]), "narrowest first");
/// ```
#[must_use]
pub fn available_tiers() -> Vec<KernelTier> {
    let best = detected_tier();
    [KernelTier::Scalar, KernelTier::Avx2, KernelTier::Avx512]
        .into_iter()
        .filter(|&t| t <= best)
        .collect()
}

/// The tier every dispatched kernel in this process uses, resolved once:
/// the widest tier the CPU supports, clamped by the `BPVEC_KERNEL`
/// (`scalar` | `avx2` | `avx512` | `auto`) environment override. An
/// override naming a tier the host lacks falls back to the best available
/// tier at or below the request.
///
/// # Panics
///
/// Panics if `BPVEC_KERNEL` is set to an unknown value (a configuration
/// error worth failing loudly on, not a runtime condition).
#[must_use]
pub fn active_tier() -> KernelTier {
    static ACTIVE: OnceLock<KernelTier> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        let best = detected_tier();
        let requested = match std::env::var("BPVEC_KERNEL") {
            Ok(v) => match v.to_ascii_lowercase().as_str() {
                "" | "auto" => best,
                "scalar" => KernelTier::Scalar,
                "avx2" => KernelTier::Avx2,
                "avx512" => KernelTier::Avx512,
                other => panic!("BPVEC_KERNEL must be scalar|avx2|avx512|auto, got `{other}`"),
            },
            Err(_) => best,
        };
        requested.min(best)
    })
}

/// Sub-plane extraction mask: bit 0 of every `s`-bit field set
/// (`0x5555…` for 2-bit fields, `0x1111…` for 4-bit, `0x0101…` for 8-bit,
/// all-ones for 1-bit).
#[inline]
#[must_use]
pub(crate) fn subplane_mask(s: u32) -> u64 {
    u64::MAX / ((1u64 << s) - 1)
}

/// One packed operand as the kernels see it: up to 8 equal-length slice
/// planes of `s`-bit fields, whose padded two's-complement bit pattern is
/// `planes.len() * s` bits wide; `neg_top` marks the top bit's weight
/// negative (the signed case).
#[derive(Debug, Clone, Copy)]
pub(crate) struct PlanesRef<'a> {
    /// Slice planes, least-significant first; all the same word count.
    pub planes: &'a [&'a [u64]],
    /// Field width of each plane.
    pub s: u32,
    /// Top bit weighs `-2^(bits-1)` (two's complement) instead of `+`.
    pub neg_top: bool,
}

impl<'a> PlanesRef<'a> {
    /// Total sub-plane (bit) count: `planes.len() * s`.
    #[inline]
    fn bits(&self) -> usize {
        self.planes.len() * self.s as usize
    }

    /// Words per plane.
    #[inline]
    fn words(&self) -> usize {
        self.planes.first().map_or(0, |p| p.len())
    }
}

/// Largest supported operand width in sub-planes (8-bit operands).
pub(crate) const MAX_BITS: usize = 8;

/// Words per extraction segment for the single-dot SIMD paths: buffers of
/// `MAX_BITS × SEG_WORDS` u64 fit comfortably in L1 while amortizing the
/// per-segment horizontal reduction.
const SEG_WORDS: usize = 64;

/// Extracts the one-bit sub-planes of `op` into `out`, bit-major
/// (`out[t * wpad .. t * wpad + words]` is sub-plane `t`), zero-padding
/// each row to `wpad` words so SIMD loops never need a masked tail.
///
/// `out` must hold at least `op.bits() * wpad` words; `wpad >= op.words()`.
pub(crate) fn extract_subplanes(op: &PlanesRef<'_>, wpad: usize, out: &mut [u64]) {
    let s = op.s as usize;
    let mask = subplane_mask(op.s);
    let words = op.words();
    debug_assert!(wpad >= words);
    for (j, plane) in op.planes.iter().enumerate() {
        for p in 0..s {
            let row = &mut out[(j * s + p) * wpad..(j * s + p) * wpad + wpad];
            for (dst, &w) in row.iter_mut().zip(plane.iter()) {
                *dst = (w >> p) & mask;
            }
            row[words..].fill(0);
        }
    }
}

/// The weighted sub-plane popcount dot over pre-extracted, zero-padded
/// sub-plane buffers (`wpad` words per row, `wpad` a multiple of the
/// widest SIMD lane). This is the hot inner kernel of the blocked GEMM:
/// extraction is hoisted out by the caller and amortized across outputs.
#[inline]
#[allow(clippy::too_many_arguments)] // flat scalars keep the hot kernel call ABI-cheap
pub(crate) fn dot_subplanes(
    tier: KernelTier,
    asub: &[u64],
    bsub: &[u64],
    wpad: usize,
    abits: usize,
    bbits: usize,
    neg_a: bool,
    neg_b: bool,
) -> i64 {
    debug_assert!(abits <= MAX_BITS && bbits <= MAX_BITS);
    debug_assert!(asub.len() >= abits * wpad && bsub.len() >= bbits * wpad);
    match tier {
        KernelTier::Scalar => scalar::dot_subplanes(asub, bsub, wpad, abits, bbits, neg_a, neg_b),
        #[cfg(target_arch = "x86_64")]
        KernelTier::Avx2 => {
            debug_assert_eq!(wpad % 4, 0);
            // SAFETY: dispatched only when AVX2 was detected at runtime.
            unsafe { avx2::dot_subplanes(asub, bsub, wpad, abits, bbits, neg_a, neg_b) }
        }
        #[cfg(target_arch = "x86_64")]
        KernelTier::Avx512 => {
            debug_assert_eq!(wpad % 8, 0);
            // SAFETY: dispatched only when AVX-512 F/BW/VL/VPOPCNTDQ were
            // detected at runtime.
            unsafe { avx512::dot_subplanes(asub, bsub, wpad, abits, bbits, neg_a, neg_b) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::dot_subplanes(asub, bsub, wpad, abits, bbits, neg_a, neg_b),
    }
}

/// Pads a word count up to a whole number of widest-SIMD lanes (8 words),
/// so every tier's chunked loop divides it exactly (zero-padded tails are
/// inert under AND + popcount).
#[inline]
///
/// ```
/// use bpvec_core::kernels::pad_words;
/// assert_eq!(pad_words(0), 0);
/// assert_eq!(pad_words(1), 8);
/// assert_eq!(pad_words(8), 8);
/// assert_eq!(pad_words(9), 16);
/// ```
#[must_use]
pub fn pad_words(words: usize) -> usize {
    words.div_ceil(8) * 8
}

/// Fewest B columns for which a SIMD tier runs a GEMM block on the lane
/// micro-kernel; narrower blocks (GEMVs: dense layers, recurrent
/// timesteps) keep the per-dot kernel, since extracting A's lane panels
/// is amortized over the columns. Measured on a 2-vCPU AVX-512 host, the
/// lane path took AlexNet fc6's GEMV (`n = 1`, `k = 9216`) in 14.1 ms
/// against 4.5 ms per dot.
pub const LANE_MIN_COLS: usize = 8;

/// True when a GEMM block against `cols` columns runs on the lane
/// micro-kernel under `tier`: any SIMD tier, at least [`LANE_MIN_COLS`]
/// columns. The scalar tier always runs the per-dot fused loop.
///
/// ```
/// use bpvec_core::kernels::{uses_lanes, KernelTier, LANE_MIN_COLS};
/// assert!(uses_lanes(KernelTier::Avx2, LANE_MIN_COLS));
/// assert!(!uses_lanes(KernelTier::Avx512, 1));
/// assert!(!uses_lanes(KernelTier::Scalar, 4096));
/// ```
#[must_use]
pub fn uses_lanes(tier: KernelTier, cols: usize) -> bool {
    tier != KernelTier::Scalar && cols >= LANE_MIN_COLS
}

/// Dense sub-plane words per vector of `len` elements: 64 elements each.
#[inline]
pub(crate) fn dense_words(len: usize) -> usize {
    len.div_ceil(64)
}

/// The valid-element mask of a vector's last dense word (all ones when
/// `len` fills it). Element `e` of a dense word sits at bit `f·s + r`,
/// where `r = e / (64/s)` is its source word and `f = e mod (64/s)` its
/// field.
pub(crate) fn dense_tail_mask(len: usize, s: u32) -> u64 {
    let fpw = 64 / s as usize;
    let live = len - dense_words(len).saturating_sub(1) * 64;
    (0..live).fold(0u64, |m, e| m | 1 << ((e % fpw) * s as usize + e / fpw))
}

/// The top-sub-plane offset `o = 2^(b−1)` a signed operand of `bits`
/// sub-planes is shifted by in the lane kernel (0 when unsigned).
#[inline]
pub(crate) fn lane_offset(bits: usize, signed: bool) -> i64 {
    if signed {
        1 << (bits - 1)
    } else {
        0
    }
}

/// Writes the dense sub-planes of one vector (its slice `planes` of
/// `s`-bit fields), sub-plane `t` of dense word `w` at
/// `out[(w · bits + t) · stride]`, and returns the vector's sum `Σu`.
///
/// With `flip = Some(tail)`, the top sub-plane is inverted over the valid
/// elements (`tail` masks the last dense word), so the words encode
/// `u = x + 2^(bits−1)`; tail elements stay zero either way.
pub(crate) fn extract_dense(
    planes: &[&[u64]],
    s: u32,
    flip: Option<u64>,
    out: &mut [u64],
    stride: usize,
) -> i64 {
    let su = s as usize;
    let mask = subplane_mask(s);
    let bits = planes.len() * su;
    let words = planes.first().map_or(0, |p| p.len());
    let dw = words.div_ceil(su);
    let mut sum = 0i64;
    for (j, plane) in planes.iter().enumerate() {
        for p in 0..s {
            let t = j * su + p as usize;
            let top = flip.filter(|_| t + 1 == bits);
            let mut count = 0u64;
            for w in 0..dw {
                let group = &plane[w * su..((w + 1) * su).min(words)];
                let mut d = 0u64;
                for (r, &word) in group.iter().enumerate() {
                    d |= ((word >> p) & mask) << r;
                }
                if let Some(tail) = top {
                    d ^= if w + 1 == dw { tail } else { u64::MAX };
                }
                count += u64::from(d.count_ones());
                out[(w * bits + t) * stride] = d;
            }
            sum += (count as i64) << t;
        }
    }
    sum
}

/// One lane panel of the lane micro-kernel: up to one SIMD vector of A
/// rows against a block of prepared B columns.
pub(crate) struct LanePanel<'a> {
    /// A's dense sub-planes, `[dense word][sub-plane][lane]`.
    pub a: &'a [u64],
    /// Per lane: `k·o_a·o_b − o_b·Σu` for the lane's A row.
    pub a_corr: [i64; 8],
    /// B's dense sub-planes, `[column][dense word][sub-plane]`.
    pub b: &'a [u64],
    /// Per column: `Σv`.
    pub b_sums: &'a [i64],
    /// A's offset `o_a`.
    pub a_offset: i64,
    /// Dense words per vector.
    pub dense_words: usize,
    /// Output rows (A rows in this panel, at most one vector's lanes).
    pub rows: usize,
    /// Row-major `rows × b_sums.len()` output block.
    pub out: &'a mut [i64],
}

/// A lane micro-kernel instance for a fixed (A, B) sub-plane count pair.
#[cfg(target_arch = "x86_64")]
type LaneFn = unsafe fn(&mut LanePanel<'_>);

/// Instantiates `$f::<AB, BB>` for every sub-plane count pair in
/// `1..=8 × 1..=8`, indexed `[AB − 1][BB − 1]`.
#[cfg(target_arch = "x86_64")]
macro_rules! lane_table {
    ($f:ident) => {
        [
            lane_table!(@row $f, 1),
            lane_table!(@row $f, 2),
            lane_table!(@row $f, 3),
            lane_table!(@row $f, 4),
            lane_table!(@row $f, 5),
            lane_table!(@row $f, 6),
            lane_table!(@row $f, 7),
            lane_table!(@row $f, 8),
        ]
    };
    (@row $f:ident, $a:literal) => {
        [
            $f::<$a, 1>,
            $f::<$a, 2>,
            $f::<$a, 3>,
            $f::<$a, 4>,
            $f::<$a, 5>,
            $f::<$a, 6>,
            $f::<$a, 7>,
            $f::<$a, 8>,
        ]
    };
}

/// Runs the lane micro-kernel on `panel` through `tier`, for A and B of
/// `abits` and `bbits` sub-planes: every output is
/// `Σuv + a_corr[lane] − o_a·Σv`.
///
/// # Panics
///
/// Panics on the scalar tier or a tier this CPU lacks, on sub-plane counts
/// outside `1..=8`, or if the panel's buffers are shorter than its
/// geometry says.
pub(crate) fn lane_panel(tier: KernelTier, abits: usize, bbits: usize, panel: &mut LanePanel<'_>) {
    let lanes = tier.lane_words();
    let cols = panel.b_sums.len();
    assert!(
        tier <= detected_tier(),
        "kernel tier {tier} is not available on this CPU"
    );
    assert!((1..=MAX_BITS).contains(&abits) && (1..=MAX_BITS).contains(&bbits));
    assert!(panel.a.len() >= panel.dense_words * abits * lanes);
    assert!(panel.b.len() >= cols * panel.dense_words * bbits);
    assert!(panel.rows <= lanes && panel.out.len() == panel.rows * cols);
    match tier {
        // SAFETY: AVX2 was detected at runtime (asserted above), and the
        // asserts above bound every load the kernel makes.
        #[cfg(target_arch = "x86_64")]
        KernelTier::Avx2 => unsafe { avx2::LANE_PANEL[abits - 1][bbits - 1](panel) },
        // SAFETY: AVX-512 F/BW/VL/VPOPCNTDQ were detected at runtime
        // (asserted above), and the asserts above bound every load.
        #[cfg(target_arch = "x86_64")]
        KernelTier::Avx512 => unsafe { avx512::LANE_PANEL[abits - 1][bbits - 1](panel) },
        _ => panic!("the lane micro-kernel needs a SIMD tier, got {tier}"),
    }
}

/// The full weighted sub-plane popcount dot of two plane sets, through
/// `tier`. SIMD tiers extract sub-planes segment-by-segment into stack
/// buffers (allocation-free) and stream the padded inner kernel; the
/// scalar tier runs the original fused SWAR loop untouched.
pub(crate) fn weighted_dot(tier: KernelTier, a: &PlanesRef<'_>, b: &PlanesRef<'_>) -> i64 {
    debug_assert_eq!(a.s, b.s, "operands must share a slice width");
    debug_assert_eq!(a.words(), b.words(), "operands must share a word count");
    if tier == KernelTier::Scalar {
        return scalar::weighted_dot(a, b);
    }
    let (abits, bbits) = (a.bits(), b.bits());
    if abits == 0 || bbits == 0 {
        return 0;
    }
    let words = a.words();
    let mut abuf = [0u64; MAX_BITS * SEG_WORDS];
    let mut bbuf = [0u64; MAX_BITS * SEG_WORDS];
    let mut total = 0i64;
    let mut lo = 0usize;
    while lo < words {
        let seg = SEG_WORDS.min(words - lo);
        let wpad = pad_words(seg);
        let aseg: [&[u64]; MAX_BITS] = seg_planes(a.planes, lo, seg);
        let bseg: [&[u64]; MAX_BITS] = seg_planes(b.planes, lo, seg);
        extract_subplanes(
            &PlanesRef {
                planes: &aseg[..a.planes.len()],
                s: a.s,
                neg_top: a.neg_top,
            },
            wpad,
            &mut abuf,
        );
        extract_subplanes(
            &PlanesRef {
                planes: &bseg[..b.planes.len()],
                s: b.s,
                neg_top: b.neg_top,
            },
            wpad,
            &mut bbuf,
        );
        total = total.wrapping_add(dot_subplanes(
            tier, &abuf, &bbuf, wpad, abits, bbits, a.neg_top, b.neg_top,
        ));
        lo += seg;
    }
    total
}

/// Re-slices each plane to the `[lo, lo + seg)` window (padding the fixed
/// array with empty slices past `planes.len()`).
fn seg_planes<'a>(planes: &[&'a [u64]], lo: usize, seg: usize) -> [&'a [u64]; MAX_BITS] {
    let mut out: [&[u64]; MAX_BITS] = [&[]; MAX_BITS];
    for (dst, plane) in out.iter_mut().zip(planes.iter()) {
        *dst = &plane[lo..lo + seg];
    }
    out
}

/// Portable reference tier — the always-correct fallback every SIMD tier
/// is pinned against.
pub(crate) mod scalar {
    use super::{subplane_mask, PlanesRef, MAX_BITS};

    /// Weighted sub-plane popcount straight from the packed planes: each
    /// word is decomposed once into its sub-planes, all bit-pair popcounts
    /// accumulate in one pass, and the ±2^(i+l) significance weights are
    /// applied once at the end (the original fused SWAR kernel).
    pub(crate) fn weighted_dot(a: &PlanesRef<'_>, b: &PlanesRef<'_>) -> i64 {
        let s = a.s as usize;
        let (abits, bbits) = (a.planes.len() * s, b.planes.len() * s);
        debug_assert!(abits <= MAX_BITS && bbits <= MAX_BITS);
        if abits == 0 || bbits == 0 {
            return 0;
        }
        // 1-bit single-plane fast path: one AND + popcount per word.
        if abits == 1 && bbits == 1 {
            let mut count = 0u64;
            for (&x, &y) in a.planes[0].iter().zip(b.planes[0]) {
                count += u64::from((x & y).count_ones());
            }
            let negate = a.neg_top != b.neg_top;
            return if negate {
                -(count as i64)
            } else {
                count as i64
            };
        }
        let mask = subplane_mask(a.s);
        let words = a.planes[0].len();
        let mut counts = [[0u64; MAX_BITS]; MAX_BITS];
        for widx in 0..words {
            let mut asub = [0u64; MAX_BITS];
            for (j, plane) in a.planes.iter().enumerate() {
                let w = plane[widx];
                for p in 0..s {
                    asub[j * s + p] = (w >> p) & mask;
                }
            }
            let mut bsub = [0u64; MAX_BITS];
            for (k, plane) in b.planes.iter().enumerate() {
                let w = plane[widx];
                for q in 0..s {
                    bsub[k * s + q] = (w >> q) & mask;
                }
            }
            for (i, &ai) in asub.iter().enumerate().take(abits) {
                let row = &mut counts[i];
                for (l, &bl) in bsub.iter().enumerate().take(bbits) {
                    row[l] += u64::from((ai & bl).count_ones());
                }
            }
        }
        reduce_counts(&counts, abits, bbits, a.neg_top, b.neg_top)
    }

    /// The padded-buffer inner kernel, scalar edition (used when the
    /// blocked GEMM is forced onto the scalar tier).
    pub(crate) fn dot_subplanes(
        asub: &[u64],
        bsub: &[u64],
        wpad: usize,
        abits: usize,
        bbits: usize,
        neg_a: bool,
        neg_b: bool,
    ) -> i64 {
        let mut counts = [[0u64; MAX_BITS]; MAX_BITS];
        for i in 0..abits {
            let arow = &asub[i * wpad..(i + 1) * wpad];
            for l in 0..bbits {
                let brow = &bsub[l * wpad..(l + 1) * wpad];
                let mut c = 0u64;
                for (&x, &y) in arow.iter().zip(brow) {
                    c += u64::from((x & y).count_ones());
                }
                counts[i][l] = c;
            }
        }
        reduce_counts(&counts, abits, bbits, neg_a, neg_b)
    }

    /// Applies the ±2^(i+l) significance weights to the popcount matrix —
    /// the top bit of a signed operand weighs negative (two's complement).
    pub(crate) fn reduce_counts(
        counts: &[[u64; MAX_BITS]; MAX_BITS],
        abits: usize,
        bbits: usize,
        neg_a: bool,
        neg_b: bool,
    ) -> i64 {
        let bit_weight = |t: usize, bits: usize, neg: bool| -> i64 {
            let w = 1i64 << t;
            if neg && t + 1 == bits {
                -w
            } else {
                w
            }
        };
        let mut total = 0i64;
        for (i, row) in counts.iter().enumerate().take(abits) {
            let wi = bit_weight(i, abits, neg_a);
            for (l, &count) in row.iter().enumerate().take(bbits) {
                if count != 0 {
                    total += wi * bit_weight(l, bbits, neg_b) * count as i64;
                }
            }
        }
        total
    }
}

/// 256-bit AVX2 tier: AND + vpshufb nibble-LUT popcount + vpsadbw lane
/// reduction, significance weights applied in-register via `vpsllq`.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::MAX_BITS;
    use std::arch::x86_64::*;

    /// Per-64-bit-lane popcount of a 256-bit vector (Mula's vpshufb
    /// nibble-LUT + vpsadbw byte reduction).
    #[inline]
    unsafe fn popcnt_epi64(v: __m256i, lut: __m256i, low_mask: __m256i) -> __m256i {
        let lo = _mm256_and_si256(v, low_mask);
        let hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
        let cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
        _mm256_sad_epu8(cnt, _mm256_setzero_si256())
    }

    /// See [`super::dot_subplanes`]; `wpad` must be a multiple of 4.
    ///
    /// # Safety
    ///
    /// Requires AVX2 (checked by the dispatcher at runtime).
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn dot_subplanes(
        asub: &[u64],
        bsub: &[u64],
        wpad: usize,
        abits: usize,
        bbits: usize,
        neg_a: bool,
        neg_b: bool,
    ) -> i64 {
        let lut = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, //
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        );
        let low_mask = _mm256_set1_epi8(0x0f);
        // Shift counts for the ±2^(i+l) weights, materialized once.
        let mut shifts = [_mm_setzero_si128(); 2 * MAX_BITS - 1];
        for (t, sh) in shifts.iter_mut().enumerate() {
            *sh = _mm_cvtsi32_si128(t as i32);
        }
        let ap = asub.as_ptr();
        let bp = bsub.as_ptr();
        let mut acc = _mm256_setzero_si256();
        let mut chunk = 0usize;
        while chunk < wpad {
            let mut bv = [_mm256_setzero_si256(); MAX_BITS];
            for (l, slot) in bv.iter_mut().enumerate().take(bbits) {
                *slot = _mm256_loadu_si256(bp.add(l * wpad + chunk).cast());
            }
            for i in 0..abits {
                let av = _mm256_loadu_si256(ap.add(i * wpad + chunk).cast());
                let na = neg_a && i + 1 == abits;
                for (l, &bvl) in bv.iter().enumerate().take(bbits) {
                    let cnt = popcnt_epi64(_mm256_and_si256(av, bvl), lut, low_mask);
                    let w = _mm256_sll_epi64(cnt, shifts[i + l]);
                    if na != (neg_b && l + 1 == bbits) {
                        acc = _mm256_sub_epi64(acc, w);
                    } else {
                        acc = _mm256_add_epi64(acc, w);
                    }
                }
            }
            chunk += 4;
        }
        // Lane-wise wrapping sum is exact: the true total fits i64.
        let mut lanes = [0i64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr().cast(), acc);
        lanes.iter().fold(0i64, |s, &l| s.wrapping_add(l))
    }

    /// The lane micro-kernel for every sub-plane count pair.
    pub(super) static LANE_PANEL: [[super::LaneFn; MAX_BITS]; MAX_BITS] = lane_table!(lane_panel);

    /// See [`super::lane_panel`]: four A rows across the lanes. Per pair,
    /// the nibble-LUT popcount leaves byte counts ≤ 8; the ≤ 8 pairs of one
    /// significance sum to ≤ 64 per byte before one `vpsadbw`.
    ///
    /// # Safety
    ///
    /// Requires AVX2, and the buffer lengths [`super::lane_panel`] asserts.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::needless_range_loop)] // constant-bound loops unroll over register arrays
    unsafe fn lane_panel<const AB: usize, const BB: usize>(p: &mut super::LanePanel<'_>) {
        let lut = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, //
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        );
        let low_mask = _mm256_set1_epi8(0x0f);
        let zero = _mm256_setzero_si256();
        let a_corr = _mm256_loadu_si256(p.a_corr.as_ptr().cast());
        let dw = p.dense_words;
        let cols = p.b_sums.len();
        let (ap, bp) = (p.a.as_ptr(), p.b.as_ptr());
        for c in 0..cols {
            let bcol = bp.add(c * dw * BB);
            let mut acc = [zero; 2 * MAX_BITS - 1];
            for w in 0..dw {
                let mut av = [zero; MAX_BITS];
                for i in 0..AB {
                    av[i] = _mm256_loadu_si256(ap.add((w * AB + i) * 4).cast());
                }
                let mut bv = [zero; MAX_BITS];
                for l in 0..BB {
                    bv[l] = _mm256_set1_epi64x(*bcol.add(w * BB + l) as i64);
                }
                for t in 0..AB + BB - 1 {
                    let mut bytes = zero;
                    for i in t.saturating_sub(BB - 1)..AB.min(t + 1) {
                        let v = _mm256_and_si256(av[i], bv[t - i]);
                        let lo = _mm256_and_si256(v, low_mask);
                        let hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
                        bytes = _mm256_add_epi8(bytes, _mm256_shuffle_epi8(lut, lo));
                        bytes = _mm256_add_epi8(bytes, _mm256_shuffle_epi8(lut, hi));
                    }
                    acc[t] = _mm256_add_epi64(acc[t], _mm256_sad_epu8(bytes, zero));
                }
            }
            // Σ_t acc_t · 2^t, one shift per significance (Horner).
            let mut uv = acc[AB + BB - 2];
            for t in (0..AB + BB - 2).rev() {
                uv = _mm256_add_epi64(_mm256_slli_epi64::<1>(uv), acc[t]);
            }
            let dot = _mm256_sub_epi64(
                _mm256_add_epi64(uv, a_corr),
                _mm256_set1_epi64x(p.a_offset * p.b_sums[c]),
            );
            let mut lanes = [0i64; 4];
            _mm256_storeu_si256(lanes.as_mut_ptr().cast(), dot);
            for (r, &v) in lanes.iter().enumerate().take(p.rows) {
                p.out[r * cols + c] = v;
            }
        }
    }
}

/// 512-bit AVX-512 tier: native `vpopcntq` (VPOPCNTDQ) makes the bit-pair
/// popcount a single instruction per 8 words.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::MAX_BITS;
    use std::arch::x86_64::*;

    /// See [`super::dot_subplanes`]; `wpad` must be a multiple of 8.
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F/BW/VL/VPOPCNTDQ (checked by the dispatcher at
    /// runtime).
    #[target_feature(enable = "avx512f,avx512bw,avx512vl,avx512vpopcntdq")]
    pub(crate) unsafe fn dot_subplanes(
        asub: &[u64],
        bsub: &[u64],
        wpad: usize,
        abits: usize,
        bbits: usize,
        neg_a: bool,
        neg_b: bool,
    ) -> i64 {
        let mut shifts = [_mm_setzero_si128(); 2 * MAX_BITS - 1];
        for (t, sh) in shifts.iter_mut().enumerate() {
            *sh = _mm_cvtsi32_si128(t as i32);
        }
        let ap = asub.as_ptr();
        let bp = bsub.as_ptr();
        // Two accumulators break the add/sub dependency chain.
        let mut acc0 = _mm512_setzero_si512();
        let mut acc1 = _mm512_setzero_si512();
        let mut chunk = 0usize;
        while chunk < wpad {
            let mut bv = [_mm512_setzero_si512(); MAX_BITS];
            for (l, slot) in bv.iter_mut().enumerate().take(bbits) {
                *slot = _mm512_loadu_si512(bp.add(l * wpad + chunk).cast());
            }
            for i in 0..abits {
                let av = _mm512_loadu_si512(ap.add(i * wpad + chunk).cast());
                let na = neg_a && i + 1 == abits;
                for (l, &bvl) in bv.iter().enumerate().take(bbits) {
                    let cnt = _mm512_popcnt_epi64(_mm512_and_si512(av, bvl));
                    let w = _mm512_sll_epi64(cnt, shifts[i + l]);
                    let neg = na != (neg_b && l + 1 == bbits);
                    if l & 1 == 0 {
                        acc0 = if neg {
                            _mm512_sub_epi64(acc0, w)
                        } else {
                            _mm512_add_epi64(acc0, w)
                        };
                    } else {
                        acc1 = if neg {
                            _mm512_sub_epi64(acc1, w)
                        } else {
                            _mm512_add_epi64(acc1, w)
                        };
                    }
                }
            }
            chunk += 8;
        }
        let acc = _mm512_add_epi64(acc0, acc1);
        // Lane-wise wrapping sum is exact: the true total fits i64.
        let mut lanes = [0i64; 8];
        _mm512_storeu_si512(lanes.as_mut_ptr().cast(), acc);
        lanes.iter().fold(0i64, |s, &l| s.wrapping_add(l))
    }

    /// The lane micro-kernel for every sub-plane count pair.
    pub(super) static LANE_PANEL: [[super::LaneFn; MAX_BITS]; MAX_BITS] = lane_table!(lane_panel);

    /// See [`super::lane_panel`]: eight A rows across the lanes, one
    /// `vpopcntq` per sub-plane pair and dense word.
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F/BW/VL/VPOPCNTDQ, and the buffer lengths
    /// [`super::lane_panel`] asserts.
    #[target_feature(enable = "avx512f,avx512bw,avx512vl,avx512vpopcntdq")]
    #[allow(clippy::needless_range_loop)] // constant-bound loops unroll over register arrays
    unsafe fn lane_panel<const AB: usize, const BB: usize>(p: &mut super::LanePanel<'_>) {
        let zero = _mm512_setzero_si512();
        let a_corr = _mm512_loadu_si512(p.a_corr.as_ptr().cast());
        let dw = p.dense_words;
        let cols = p.b_sums.len();
        let (ap, bp) = (p.a.as_ptr(), p.b.as_ptr());
        for c in 0..cols {
            let bcol = bp.add(c * dw * BB);
            let mut acc = [zero; 2 * MAX_BITS - 1];
            for w in 0..dw {
                let mut av = [zero; MAX_BITS];
                for i in 0..AB {
                    av[i] = _mm512_loadu_si512(ap.add((w * AB + i) * 8).cast());
                }
                for l in 0..BB {
                    let bv = _mm512_set1_epi64(*bcol.add(w * BB + l) as i64);
                    for i in 0..AB {
                        let cnt = _mm512_popcnt_epi64(_mm512_and_si512(av[i], bv));
                        acc[i + l] = _mm512_add_epi64(acc[i + l], cnt);
                    }
                }
            }
            // Σ_t acc_t · 2^t, one shift per significance (Horner).
            let mut uv = acc[AB + BB - 2];
            for t in (0..AB + BB - 2).rev() {
                uv = _mm512_add_epi64(_mm512_slli_epi64::<1>(uv), acc[t]);
            }
            let dot = _mm512_sub_epi64(
                _mm512_add_epi64(uv, a_corr),
                _mm512_set1_epi64(p.a_offset * p.b_sums[c]),
            );
            let mut lanes = [0i64; 8];
            _mm512_storeu_si512(lanes.as_mut_ptr().cast(), dot);
            for (r, &v) in lanes.iter().enumerate().take(p.rows) {
                p.out[r * cols + c] = v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_order_and_names() {
        assert!(KernelTier::Scalar < KernelTier::Avx2);
        assert!(KernelTier::Avx2 < KernelTier::Avx512);
        assert_eq!(KernelTier::Avx512.name(), "avx512");
        assert_eq!(KernelTier::Scalar.to_string(), "scalar");
    }

    #[test]
    fn available_tiers_start_scalar_and_are_sorted() {
        let tiers = available_tiers();
        assert_eq!(tiers[0], KernelTier::Scalar);
        assert!(tiers.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*tiers.last().unwrap(), detected_tier());
    }

    #[test]
    fn active_tier_is_available() {
        assert!(available_tiers().contains(&active_tier()));
    }

    #[test]
    fn pad_words_rounds_to_widest_lane() {
        assert_eq!(pad_words(0), 0);
        assert_eq!(pad_words(1), 8);
        assert_eq!(pad_words(8), 8);
        assert_eq!(pad_words(9), 16);
    }

    /// Every available tier agrees with the scalar tier on the padded
    /// inner kernel across chunk-boundary word counts and sign flags.
    #[test]
    fn dot_subplanes_tiers_agree_across_boundaries() {
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for words in [0usize, 1, 3, 4, 5, 7, 8, 9, 12, 16, 17, 63, 64, 65] {
            let wpad = pad_words(words);
            for (abits, bbits) in [(1usize, 1usize), (2, 2), (8, 8), (8, 2), (3, 5)] {
                let mut asub = vec![0u64; abits * wpad];
                let mut bsub = vec![0u64; bbits * wpad];
                for row in 0..abits {
                    for w in 0..words {
                        asub[row * wpad + w] = next();
                    }
                }
                for row in 0..bbits {
                    for w in 0..words {
                        bsub[row * wpad + w] = next();
                    }
                }
                for neg_a in [false, true] {
                    for neg_b in [false, true] {
                        let want =
                            scalar::dot_subplanes(&asub, &bsub, wpad, abits, bbits, neg_a, neg_b);
                        for tier in available_tiers() {
                            let got =
                                dot_subplanes(tier, &asub, &bsub, wpad, abits, bbits, neg_a, neg_b);
                            assert_eq!(
                                got, want,
                                "{tier} words={words} abits={abits} bbits={bbits} \
                                 neg=({neg_a},{neg_b})"
                            );
                        }
                    }
                }
            }
        }
    }
}
