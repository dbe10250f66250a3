//! Dispatch-equality tests for the SIMD kernel tiers: every tier the host
//! CPU can run ([`bpvec_core::kernels::available_tiers`]) must return
//! results bit-identical to the scalar reference on the exact lengths
//! where a vectorized kernel can go wrong — empty inputs, single elements,
//! lane−1 / lane / lane+1 word counts, unaligned tails, and the segment
//! boundary of the single-dot SIMD path — for both entry points,
//! [`slice_dot_words_with`] and [`PackedSliceMatrix::dot_with`].

use bpvec_core::dotprod::dot_exact;
use bpvec_core::kernels::{available_tiers, KernelTier};
use bpvec_core::{slice_dot_words_with, BitWidth, PackedSliceMatrix, Signedness, SliceWidth};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

const SIGNS: [Signedness; 2] = [Signedness::Signed, Signedness::Unsigned];

const SLICE_WIDTHS: [SliceWidth; 4] = [
    SliceWidth::BIT1,
    SliceWidth::BIT2,
    SliceWidth::BIT4,
    SliceWidth::BIT8,
];

/// Word counts straddling every dispatch boundary: the AVX2 chunk (4
/// words), the AVX-512 chunk (8 words), and the 64-word extraction segment
/// of the single-dot SIMD path — each with its −1/+1 neighbors.
const BOUNDARY_WORDS: [usize; 17] = [0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 129];

/// Packs slice values (each in the `s`-bit field domain) into words the way
/// `PackedSliceMatrix` lays planes out: two's complement per field,
/// little-endian, zero tail.
fn pack_fields(vals: &[i32], s: u32) -> Vec<u64> {
    let fpw = (64 / s) as usize;
    let mut words = vec![0u64; vals.len().div_ceil(fpw)];
    for (i, &v) in vals.iter().enumerate() {
        let field = (v as u32 as u64) & ((1 << s) - 1);
        words[i / fpw] |= field << ((i % fpw) as u32 * s);
    }
    words
}

/// The in-domain value range of an `s`-bit slice plane with the given
/// signed-top flag.
fn plane_range(s: u32, signed_top: bool) -> (i32, i32) {
    if signed_top {
        (-(1 << (s - 1)), (1 << (s - 1)) - 1)
    } else {
        (0, (1 << s) - 1)
    }
}

#[test]
fn slice_dot_words_tiers_agree_on_boundary_lengths() {
    let tiers = available_tiers();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x51ce_d07b);
    for sw in SLICE_WIDTHS {
        let s = sw.bits();
        let fpw = (64 / s) as usize;
        for words in BOUNDARY_WORDS {
            // Full words, one-element tail past the last full word, and one
            // element short of full — the unaligned-tail cases.
            let lens = [
                words * fpw,
                words * fpw + 1,
                (words * fpw).saturating_sub(1),
            ];
            for n in lens {
                for a_signed in [false, true] {
                    for b_signed in [false, true] {
                        let (alo, ahi) = plane_range(s, a_signed);
                        let (blo, bhi) = plane_range(s, b_signed);
                        let xs: Vec<i32> = (0..n).map(|_| rng.gen_range(alo..=ahi)).collect();
                        let ys: Vec<i32> = (0..n).map(|_| rng.gen_range(blo..=bhi)).collect();
                        let aw = pack_fields(&xs, s);
                        let bw = pack_fields(&ys, s);
                        let want = slice_dot_words_with(
                            KernelTier::Scalar,
                            &aw,
                            &bw,
                            sw,
                            a_signed,
                            b_signed,
                        );
                        let exact: i64 = xs
                            .iter()
                            .zip(&ys)
                            .map(|(&x, &y)| i64::from(x) * i64::from(y))
                            .sum();
                        assert_eq!(want, exact, "{sw} n={n} scalar vs exact");
                        for &tier in &tiers {
                            assert_eq!(
                                slice_dot_words_with(tier, &aw, &bw, sw, a_signed, b_signed),
                                want,
                                "{sw} n={n} signs=({a_signed},{b_signed}) tier {tier}"
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn packed_dot_tiers_agree_on_boundary_lengths() {
    let tiers = available_tiers();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xd15b_a7c4);
    // Mixed operand widths over a shared slicing, signed and unsigned — the
    // fused multi-plane kernel across the same boundary word counts.
    let combos = [
        (BitWidth::INT8, BitWidth::INT8, SliceWidth::BIT2),
        (BitWidth::INT8, BitWidth::INT2, SliceWidth::BIT2),
        (
            BitWidth::new(3).unwrap(),
            BitWidth::new(5).unwrap(),
            SliceWidth::BIT1,
        ),
        (BitWidth::INT8, BitWidth::INT8, SliceWidth::BIT8),
    ];
    for (ba, bb, sw) in combos {
        let fpw = (64 / sw.bits()) as usize;
        for words in [0usize, 1, 4, 5, 8, 9, 64, 65] {
            for n in [
                words * fpw,
                words * fpw + 1,
                (words * fpw).saturating_sub(1),
            ] {
                for s in [Signedness::Signed, Signedness::Unsigned] {
                    let (alo, ahi) = ba.range(s);
                    let (blo, bhi) = bb.range(s);
                    let xs: Vec<i32> = (0..n).map(|_| rng.gen_range(alo..=ahi)).collect();
                    let ys: Vec<i32> = (0..n).map(|_| rng.gen_range(blo..=bhi)).collect();
                    let px = PackedSliceMatrix::pack(&xs, ba, sw, s).unwrap();
                    let py = PackedSliceMatrix::pack(&ys, bb, sw, s).unwrap();
                    let exact = dot_exact(&xs, &ys).unwrap();
                    assert_eq!(
                        px.dot_with(KernelTier::Scalar, 0, &py, 0),
                        exact,
                        "{ba}x{bb} {sw} {s} n={n} scalar vs exact"
                    );
                    for &tier in &tiers {
                        assert_eq!(
                            px.dot_with(tier, 0, &py, 0),
                            exact,
                            "{ba}x{bb} {sw} {s} n={n} tier {tier}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn blocked_gemm_kernel_matches_per_dot_on_every_tier() {
    // `dot_block_into` must equal the exact dot product per element on
    // each tier, on both of its realizations: the per-dot kernel (n below
    // `LANE_MIN_COLS`) and the lane micro-kernel (n at and above it). The
    // grid covers every operand width pair and signedness pair at every
    // slicing, with inner lengths around the 64-element dense word and the
    // s-word source group (a zero length, a single element, lane-fraction
    // tails) and 9 rows, so the last lane panel is partial on both SIMD
    // widths.
    let tiers = available_tiers();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xb10c_7e57);
    let m = 9;
    for sw in SLICE_WIDTHS {
        let s = sw.bits() as usize;
        for len in [0, 1, 63, 64, 65, 64 * s - 1, 64 * s + 1] {
            for (wa, wb) in (1..=8u32).flat_map(|a| (1..=8u32).map(move |b| (a, b))) {
                let (ba, bb) = (BitWidth::new(wa).unwrap(), BitWidth::new(wb).unwrap());
                let signs = SIGNS
                    .iter()
                    .flat_map(|&a| SIGNS.iter().map(move |&b| (a, b)));
                for ((sa, sb), n) in signs.flat_map(|p| [1usize, 7, 8, 9].map(|n| (p, n))) {
                    let (alo, ahi) = ba.range(sa);
                    let (blo, bhi) = bb.range(sb);
                    let a_data: Vec<i32> = (0..m * len).map(|_| rng.gen_range(alo..=ahi)).collect();
                    let b_data: Vec<i32> = (0..n * len).map(|_| rng.gen_range(blo..=bhi)).collect();
                    let a = PackedSliceMatrix::pack_rows(&a_data, m, len, ba, sw, sa).unwrap();
                    let b = PackedSliceMatrix::pack_rows(&b_data, n, len, bb, sw, sb).unwrap();
                    let exact = |i: usize, j: usize| -> i64 {
                        let (x, y) = (
                            &a_data[i * len..(i + 1) * len],
                            &b_data[j * len..(j + 1) * len],
                        );
                        x.iter()
                            .zip(y)
                            .map(|(&x, &y)| i64::from(x) * i64::from(y))
                            .sum()
                    };
                    for &tier in &tiers {
                        let mut out = vec![0i64; m * n];
                        a.dot_block_into(tier, 0..m, &b, &mut out);
                        for i in 0..m {
                            for j in 0..n {
                                assert_eq!(
                                    out[i * n + j],
                                    exact(i, j),
                                    "{ba}{sa:?} x {bb}{sb:?} {sw} k={len} n={n} ({i},{j}) tier {tier}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn lane_kernel_covers_every_column_count_and_row_range() {
    // The lane path on its own: every n in {1, 7, 8, 9} (below the GEMM
    // cut-over too), over row ranges that start mid-matrix and end in a
    // partial lane panel, INT8 against INT3 at 2-bit slicing.
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x1a4e_5c01);
    let (m, len, sw) = (13, 130, SliceWidth::BIT2);
    let (ba, bb) = (BitWidth::INT8, BitWidth::new(3).unwrap());
    for tier in available_tiers()
        .into_iter()
        .filter(|&t| t != KernelTier::Scalar)
    {
        for n in [1usize, 7, 8, 9] {
            for (sa, sb) in SIGNS
                .iter()
                .flat_map(|&a| SIGNS.iter().map(move |&b| (a, b)))
            {
                let (alo, ahi) = ba.range(sa);
                let (blo, bhi) = bb.range(sb);
                let a_data: Vec<i32> = (0..m * len).map(|_| rng.gen_range(alo..=ahi)).collect();
                let b_data: Vec<i32> = (0..n * len).map(|_| rng.gen_range(blo..=bhi)).collect();
                let a = PackedSliceMatrix::pack_rows(&a_data, m, len, ba, sw, sa).unwrap();
                let b = PackedSliceMatrix::pack_rows(&b_data, n, len, bb, sw, sb).unwrap();
                let cols = b.prepare_cols();
                for rows in [0..m, 3..12, 5..5] {
                    let mut out = vec![0i64; rows.len() * n];
                    a.dot_block_lanes_into(tier, rows.clone(), &cols, &mut out);
                    for (r, i) in rows.clone().enumerate() {
                        for j in 0..n {
                            assert_eq!(
                                out[r * n + j],
                                a.dot_with(KernelTier::Scalar, i, &b, j),
                                "{sa:?} x {sb:?} rows {rows:?} n={n} ({i},{j}) tier {tier}"
                            );
                        }
                    }
                }
            }
        }
    }
}

proptest! {
    /// Random lengths, widths, slicings and signedness: every available
    /// tier equals the scalar tier (and `dot_exact`) on both the per-plane
    /// and the fused kernel.
    #[test]
    fn tiers_agree_on_random_inputs(
        bx in 1u32..=8,
        bw in 1u32..=8,
        sw_bits in prop_oneof![Just(1u32), Just(2), Just(4), Just(8)],
        signed in proptest::bool::ANY,
        seed in proptest::num::u64::ANY,
    ) {
        let bwx = BitWidth::new(bx).unwrap();
        let bww = BitWidth::new(bw).unwrap();
        let sw = SliceWidth::new(sw_bits).unwrap();
        let s = if signed { Signedness::Signed } else { Signedness::Unsigned };
        let (xlo, xhi) = bwx.range(s);
        let (wlo, whi) = bww.range(s);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = rng.gen_range(0..600);
        let xs: Vec<i32> = (0..n).map(|_| rng.gen_range(xlo..=xhi)).collect();
        let ws: Vec<i32> = (0..n).map(|_| rng.gen_range(wlo..=whi)).collect();
        let px = PackedSliceMatrix::pack(&xs, bwx, sw, s).unwrap();
        let pw = PackedSliceMatrix::pack(&ws, bww, sw, s).unwrap();
        let exact = dot_exact(&xs, &ws).unwrap();
        for tier in available_tiers() {
            prop_assert_eq!(px.dot_with(tier, 0, &pw, 0), exact, "fused tier {}", tier);
        }
    }
}
