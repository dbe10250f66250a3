//! Narrow-Bitwidth Vector Engine (paper Figure 3a).
//!
//! An NBVE is a spatial array of `L` narrow multipliers whose outputs are
//! summed by a private adder tree. It consumes one bit-sliced sub-vector of
//! `X` and one of `W` and produces the single scalar `Σᵢ xᵢ[slice]·wᵢ[slice]`.
//!
//! Besides the arithmetic, this model tracks the *bit growth* through the
//! adder tree so the hardware-model crate can size adders exactly and so
//! tests can prove that the configured datapath never overflows.

use serde::{Deserialize, Serialize};

use crate::bitslice::SliceWidth;
use crate::error::CoreError;

/// Worst-case bit budget of the CVU-internal accumulators (the paper's
/// systolic columns accumulate into 64-bit registers).
pub const ACCUMULATOR_BITS: u32 = 64;

/// Bit-growth report for an NBVE's datapath at a given configuration.
///
/// All widths are for two's-complement (signed) representation, the widest
/// case: a signed-top-slice multiply produces an `(s+1)`-bit × `(s+1)`-bit
/// signed product.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdderTreeReport {
    /// Bits of each multiplier output.
    pub product_bits: u32,
    /// Bits of the adder-tree root (after `ceil(log2(L))` doubling levels).
    pub sum_bits: u32,
    /// Number of adder levels in the tree.
    pub levels: u32,
}

/// A Narrow-Bitwidth Vector Engine: `lanes` multipliers of
/// `slice_width x slice_width` bits plus a private adder tree.
///
/// ```
/// use bpvec_core::{Nbve, SliceWidth};
/// let nbve = Nbve::new(SliceWidth::BIT2, 16);
/// let out = nbve.dot(&[1, 2, 3], &[3, 2, 1])?;
/// assert_eq!(out.value, 10);
/// # Ok::<(), bpvec_core::CoreError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Nbve {
    slice_width: SliceWidth,
    lanes: usize,
}

/// Result of one NBVE evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NbveOutput {
    /// The narrow dot-product scalar.
    pub value: i64,
    /// Multiplier lanes that carried real work (the rest idled).
    pub active_lanes: usize,
    /// Bits needed to represent the worst-case value at the tree root for
    /// this configuration.
    pub root_bits: u32,
}

impl Nbve {
    /// Creates an NBVE with `lanes` multipliers of `slice_width` operands.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`; an NBVE without multipliers is meaningless and
    /// constructing one is a programming error, not a runtime condition.
    #[must_use]
    pub fn new(slice_width: SliceWidth, lanes: usize) -> Self {
        assert!(lanes > 0, "an NBVE needs at least one multiplier lane");
        Nbve { slice_width, lanes }
    }

    /// The slice width of the multiplier operands.
    #[must_use]
    pub fn slice_width(&self) -> SliceWidth {
        self.slice_width
    }

    /// The vector length `L` (number of multiplier lanes).
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Worst-case bit growth through this NBVE's datapath.
    ///
    /// Signed-aware slices occupy `s+1` bits, so products need `2(s+1)` bits
    /// minus one (two's-complement multiply of n-bit × m-bit fits n+m bits);
    /// each adder level adds one bit.
    #[must_use]
    pub fn adder_tree_report(&self) -> AdderTreeReport {
        let s = self.slice_width.bits();
        let product_bits = 2 * (s + 1);
        let levels = (self.lanes as u32).next_power_of_two().trailing_zeros();
        AdderTreeReport {
            product_bits,
            sum_bits: product_bits + levels,
            levels,
        }
    }

    /// Computes the narrow dot-product of two slice sub-vectors.
    ///
    /// Inputs must already be bit-slices: each element must fit the signed
    /// `(s+1)`-bit slice domain `[-2^(s-1), 2^s - 1]` (which covers both an
    /// unsigned `s`-bit slice and a signed top slice). Vectors longer than
    /// `L` are folded over the lanes in multiple "beats", mirroring temporal
    /// reuse of the same engine.
    ///
    /// # Errors
    ///
    /// * [`CoreError::LengthMismatch`] — operand vectors differ in length.
    /// * [`CoreError::ValueOutOfRange`] — an input is not a valid slice value.
    pub fn dot(&self, xs: &[i32], ws: &[i32]) -> Result<NbveOutput, CoreError> {
        if xs.len() != ws.len() {
            return Err(CoreError::LengthMismatch {
                left: xs.len(),
                right: ws.len(),
            });
        }
        let s = self.slice_width.bits();
        let lo = -(1i32 << (s - 1));
        let hi = (1i32 << s) - 1;
        for &v in xs.iter().chain(ws.iter()) {
            if v < lo || v > hi {
                return Err(CoreError::ValueOutOfRange {
                    value: v,
                    bits: s + 1,
                    signed: true,
                });
            }
        }
        let mut value = 0i64;
        for (x, w) in xs.iter().zip(ws) {
            value += (*x as i64) * (*w as i64);
        }
        let report = self.adder_tree_report();
        Ok(NbveOutput {
            value,
            active_lanes: xs.len().min(self.lanes),
            root_bits: report.sum_bits,
        })
    }
}

/// The word-level narrow dot-product an NBVE computes — the packed-plane
/// kernel behind [`crate::PackedSliceMatrix`].
///
/// `a` and `b` are equal-length runs of `u64` words holding `slice_width`-bit
/// slice fields packed little-endian (unused tail fields must be zero). The
/// return value is `Σᵢ aᵢ·bᵢ` over the fields, with a plane flagged
/// `*_signed_top` interpreted as two's-complement `s`-bit values (the
/// most-significant slice of a signed operand) and everything else as
/// unsigned `s`-bit magnitudes.
///
/// This is a dispatched kernel: the realization is picked once per process
/// by [`crate::kernels::active_tier`] — AVX-512 `vpopcntq` or AVX2
/// vpshufb-popcount lanes where the CPU supports them, with the portable
/// scalar kernel as the always-correct fallback (and `BPVEC_KERNEL=scalar`
/// forcing it). All tiers are bit-identical; see
/// [`crate::kernels`] for the dispatch and fallback contract. The scalar
/// shapes (allocation-free, word-streaming):
///
/// * **1-bit slices** — one `AND` + `popcount` per word; sign flags flip the
///   result's sign (a set bit in a signed 1-bit top plane weighs −1).
/// * **2/4/8-bit slices** — SWAR multiply-accumulate: each word's fields are
///   split into `s` one-bit sub-planes with a mask (`(w >> p) & 0x5555…`),
///   and every sub-plane pair contributes `2^(p+q) · popcount(aₚ & b_q)`.
///   The top sub-plane of a signed plane carries weight `−2^(s−1)`, which is
///   exactly two's complement, so no correction pass is needed.
///
/// # Panics
///
/// Panics if the word runs differ in length (callers pack operands for the
/// same vector length).
#[must_use]
pub fn slice_dot_words(
    a: &[u64],
    b: &[u64],
    slice_width: SliceWidth,
    a_signed_top: bool,
    b_signed_top: bool,
) -> i64 {
    slice_dot_words_with(
        crate::kernels::active_tier(),
        a,
        b,
        slice_width,
        a_signed_top,
        b_signed_top,
    )
}

/// [`slice_dot_words`] through an explicit kernel tier — the entry point
/// dispatch-equality tests use to pin every available tier against the
/// scalar reference on the same inputs.
///
/// # Panics
///
/// Panics if the word runs differ in length, or if `tier` is not available
/// on this CPU (see [`crate::kernels::available_tiers`]).
#[must_use]
pub fn slice_dot_words_with(
    tier: crate::kernels::KernelTier,
    a: &[u64],
    b: &[u64],
    slice_width: SliceWidth,
    a_signed_top: bool,
    b_signed_top: bool,
) -> i64 {
    assert_eq!(a.len(), b.len(), "packed slice planes differ in word count");
    assert!(
        tier <= crate::kernels::detected_tier(),
        "kernel tier {tier} is not available on this CPU"
    );
    let a_planes = [a];
    let b_planes = [b];
    crate::kernels::weighted_dot(
        tier,
        &crate::kernels::PlanesRef {
            planes: &a_planes,
            s: slice_width.bits(),
            neg_top: a_signed_top,
        },
        &crate::kernels::PlanesRef {
            planes: &b_planes,
            s: slice_width.bits(),
            neg_top: b_signed_top,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dot_matches_reference() {
        let nbve = Nbve::new(SliceWidth::BIT2, 16);
        let xs = vec![3, 2, 1, 0, 3, 3];
        let ws = vec![1, 2, 3, 3, 0, 1];
        let out = nbve.dot(&xs, &ws).unwrap();
        assert_eq!(out.value, 3 + 4 + 3 + 3);
        assert_eq!(out.active_lanes, 6);
    }

    #[test]
    fn signed_top_slices_are_accepted() {
        let nbve = Nbve::new(SliceWidth::BIT2, 4);
        // 2-bit signed slices span -2..=1, unsigned span 0..=3; the multiplier
        // domain is the union -2..=3.
        let out = nbve.dot(&[-2, 3], &[3, -2]).unwrap();
        assert_eq!(out.value, -12);
    }

    #[test]
    fn out_of_domain_slice_is_rejected() {
        let nbve = Nbve::new(SliceWidth::BIT2, 4);
        assert!(nbve.dot(&[4], &[0]).is_err());
        assert!(nbve.dot(&[0], &[-3]).is_err());
    }

    #[test]
    fn length_mismatch_is_rejected() {
        let nbve = Nbve::new(SliceWidth::BIT2, 4);
        assert!(matches!(
            nbve.dot(&[1, 2], &[1]),
            Err(CoreError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn adder_tree_growth_l16_2bit() {
        // Paper design point: 2-bit slices, L = 16.
        let report = Nbve::new(SliceWidth::BIT2, 16).adder_tree_report();
        assert_eq!(report.product_bits, 6); // 3b x 3b signed products
        assert_eq!(report.levels, 4);
        assert_eq!(report.sum_bits, 10);
    }

    #[test]
    fn adder_tree_growth_l1_has_no_levels() {
        let report = Nbve::new(SliceWidth::BIT2, 1).adder_tree_report();
        assert_eq!(report.levels, 0);
        assert_eq!(report.sum_bits, report.product_bits);
    }

    #[test]
    #[should_panic(expected = "at least one multiplier lane")]
    fn zero_lanes_panics() {
        let _ = Nbve::new(SliceWidth::BIT2, 0);
    }

    /// Packs slice values (each in the `s`-bit field domain) into words the
    /// way `PackedSliceMatrix` lays them out, two's-complement per field.
    fn pack_fields(vals: &[i32], s: u32) -> Vec<u64> {
        let fpw = (64 / s) as usize;
        let mut words = vec![0u64; vals.len().div_ceil(fpw)];
        for (i, &v) in vals.iter().enumerate() {
            let field = (v as u32 as u64) & ((1 << s) - 1);
            words[i / fpw] |= field << ((i % fpw) as u32 * s);
        }
        words
    }

    #[test]
    fn word_kernel_matches_scalar_dot_fixture() {
        // 2-bit slices, mixed signed-top and unsigned planes.
        let a = [3, 0, 2, 1, 3, 3, 0, 1];
        let b = [1, 2, 3, 0, 2, 1, 3, 3];
        let scalar: i64 = a.iter().zip(&b).map(|(&x, &y)| i64::from(x * y)).sum();
        let aw = pack_fields(&a, 2);
        let bw = pack_fields(&b, 2);
        assert_eq!(
            slice_dot_words(&aw, &bw, SliceWidth::BIT2, false, false),
            scalar
        );
        // Signed-top planes: values in -2..=1.
        let at = [-2, 1, 0, -1, 1, -2, 0, 1];
        let scalar_t: i64 = at.iter().zip(&b).map(|(&x, &y)| i64::from(x * y)).sum();
        let atw = pack_fields(&at, 2);
        assert_eq!(
            slice_dot_words(&atw, &bw, SliceWidth::BIT2, true, false),
            scalar_t
        );
    }

    #[test]
    fn word_kernel_1bit_sign_combinations() {
        let a = [1, 0, 1, 1, 0];
        let b = [1, 1, 1, 0, 0];
        let aw = pack_fields(&a, 1);
        let bw = pack_fields(&b, 1);
        // Two coincident set bits.
        assert_eq!(slice_dot_words(&aw, &bw, SliceWidth::BIT1, false, false), 2);
        assert_eq!(slice_dot_words(&aw, &bw, SliceWidth::BIT1, true, false), -2);
        assert_eq!(slice_dot_words(&aw, &bw, SliceWidth::BIT1, false, true), -2);
        // (-1)·(-1) = 1 per pair.
        assert_eq!(slice_dot_words(&aw, &bw, SliceWidth::BIT1, true, true), 2);
    }

    proptest! {
        /// The word kernel agrees with `Nbve::dot` (the scalar narrow
        /// dot-product) for every slice width and sign-flag combination.
        #[test]
        fn word_kernel_matches_nbve_dot(
            s in prop_oneof![Just(1u32), Just(2), Just(4), Just(8)],
            a_signed in proptest::bool::ANY,
            b_signed in proptest::bool::ANY,
            seed in proptest::num::u64::ANY,
        ) {
            use rand::{Rng, SeedableRng};
            let sw = SliceWidth::new(s).unwrap();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let n = rng.gen_range(0..200);
            let range = |signed: bool| -> (i32, i32) {
                if signed { (-(1 << (s - 1)), (1 << (s - 1)) - 1) } else { (0, (1 << s) - 1) }
            };
            let (alo, ahi) = range(a_signed);
            let (blo, bhi) = range(b_signed);
            let a: Vec<i32> = (0..n).map(|_| rng.gen_range(alo..=ahi)).collect();
            let b: Vec<i32> = (0..n).map(|_| rng.gen_range(blo..=bhi)).collect();
            let scalar = Nbve::new(sw, 16).dot(&a, &b).unwrap().value;
            let aw = pack_fields(&a, s);
            let bw = pack_fields(&b, s);
            prop_assert_eq!(slice_dot_words(&aw, &bw, sw, a_signed, b_signed), scalar);
        }

        /// The reported root width is always sufficient: no in-domain input
        /// of length <= L can exceed `sum_bits` (signed representation).
        #[test]
        fn root_width_is_sufficient(
            lanes in 1usize..=32,
            s in prop_oneof![Just(1u32), Just(2), Just(4)],
            seed in proptest::num::u64::ANY,
        ) {
            use rand::{Rng, SeedableRng};
            let sw = SliceWidth::new(s).unwrap();
            let nbve = Nbve::new(sw, lanes);
            let report = nbve.adder_tree_report();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let lo = -(1i32 << (s - 1));
            let hi = (1i32 << s) - 1;
            let xs: Vec<i32> = (0..lanes).map(|_| rng.gen_range(lo..=hi)).collect();
            let ws: Vec<i32> = (0..lanes).map(|_| rng.gen_range(lo..=hi)).collect();
            let out = nbve.dot(&xs, &ws).unwrap();
            let bound = 1i64 << (report.sum_bits - 1);
            prop_assert!(out.value < bound && out.value >= -bound,
                "value {} exceeds {} bits", out.value, report.sum_bits);
        }
    }
}
