//! Property tests pinning the packed bit-plane kernels to the scalar
//! formulations: for every `BitWidth` × `SliceWidth` × `Signedness`
//! combination, [`bpvec_core::dotprod::dot_packed`] (and the underlying
//! [`PackedSliceMatrix`] layout) equals [`dot_exact`] (Equation 1) and
//! [`dot_slice_clustered`] (Equation 4) — exact equality, including the
//! INT8 edge values (−128, −1, 127) that exercise the signed top plane —
//! and the word-at-a-time packers reproduce a per-element packing oracle
//! plane for plane.

use bpvec_core::dotprod::{dot_exact, dot_packed, dot_slice_clustered};
use bpvec_core::{BitWidth, CoreError, PackedSliceMatrix, Signedness, SliceWidth};
use bpvec_dnn::packing::{pack_gemm_cols, pack_gemm_rows};
use bpvec_dnn::Tensor;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

const SLICE_WIDTHS: [SliceWidth; 4] = [
    SliceWidth::BIT1,
    SliceWidth::BIT2,
    SliceWidth::BIT4,
    SliceWidth::BIT8,
];

const SIGNEDNESS: [Signedness; 2] = [Signedness::Signed, Signedness::Unsigned];

/// Every width × slicing × signedness combination agrees on the INT8-style
/// edge vectors (extremes of the declared range, the all-ones pattern, and
/// zero) — deterministic coverage of the values that previously only had
/// scalar-path tests (−128 in particular: the lone value whose top slice
/// saturates negative with all lower slices zero).
#[test]
fn packed_equals_scalar_on_edge_vectors_for_all_combos() {
    for bits in 1..=8u32 {
        let bw = BitWidth::new(bits).unwrap();
        for sw in SLICE_WIDTHS {
            for s in SIGNEDNESS {
                let (lo, hi) = bw.range(s);
                // Edges, their neighbors, zero/±1 where in range.
                let pool: Vec<i32> = [lo, lo + 1, -1, 0, 1, hi - 1, hi]
                    .into_iter()
                    .filter(|v| (lo..=hi).contains(v))
                    .collect();
                // All ordered pairs from the pool, as one long vector each.
                let xs: Vec<i32> = pool
                    .iter()
                    .flat_map(|&a| std::iter::repeat_n(a, pool.len()))
                    .collect();
                let ws: Vec<i32> = pool.iter().cycle().take(xs.len()).copied().collect();
                let exact = dot_exact(&xs, &ws).unwrap();
                let packed = dot_packed(&xs, &ws, bw, bw, sw, s).unwrap();
                assert_eq!(packed, exact, "{bw} {sw} {s} packed vs exact");
                let clustered = dot_slice_clustered(&xs, &ws, bw, bw, sw, sw, s).unwrap();
                assert_eq!(packed, clustered, "{bw} {sw} {s} packed vs clustered");
                // Every dispatch tier this host can run (scalar always, AVX2
                // / AVX-512 where detected) produces the identical result —
                // SIMD == scalar == dot_exact on all 64 combos.
                let px = PackedSliceMatrix::pack(&xs, bw, sw, s).unwrap();
                let pw = PackedSliceMatrix::pack(&ws, bw, sw, s).unwrap();
                for tier in bpvec_core::kernels::available_tiers() {
                    assert_eq!(
                        px.dot_with(tier, 0, &pw, 0),
                        exact,
                        "{bw} {sw} {s} tier {tier}"
                    );
                }
            }
        }
    }
}

/// The INT8 minimum (−128) dotted against every INT8 value, for every
/// slicing — the worst case for two's-complement top-plane handling.
#[test]
fn int8_minus128_against_full_range_all_slicings() {
    let ws: Vec<i32> = (-128..=127).collect();
    let xs = vec![-128i32; ws.len()];
    let exact = dot_exact(&xs, &ws).unwrap();
    for sw in SLICE_WIDTHS {
        assert_eq!(
            dot_packed(
                &xs,
                &ws,
                BitWidth::INT8,
                BitWidth::INT8,
                sw,
                Signedness::Signed
            )
            .unwrap(),
            exact,
            "{sw}"
        );
    }
}

/// Packing is an exact inverse for random in-range matrices (round-trip
/// through `get`), for every combination.
#[test]
fn pack_roundtrips_random_matrices_all_combos() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x9d5a_b7f1);
    for bits in 1..=8u32 {
        let bw = BitWidth::new(bits).unwrap();
        for sw in SLICE_WIDTHS {
            for s in SIGNEDNESS {
                let (lo, hi) = bw.range(s);
                let (vecs, len) = (3usize, rng.gen_range(0..100));
                let data: Vec<i32> = (0..vecs * len).map(|_| rng.gen_range(lo..=hi)).collect();
                let p = PackedSliceMatrix::pack_rows(&data, vecs, len, bw, sw, s).unwrap();
                for v in 0..vecs {
                    for e in 0..len {
                        assert_eq!(p.get(v, e), data[v * len + e], "{bw} {sw} {s} [{v},{e}]");
                    }
                }
            }
        }
    }
}

/// Packed planes, each holding all vectors' word runs back to back, or the
/// packing error.
type Planes = Result<Vec<Vec<u64>>, CoreError>;

/// The packing oracle: one element at a time, element `e` of vector `v`
/// read from `f(v, e)`, range-checked in vector-major order, its
/// two's-complement slices OR-ed field by field into every plane.
fn oracle_planes(
    num_vecs: usize,
    len: usize,
    width: BitWidth,
    slice_width: SliceWidth,
    signedness: Signedness,
    f: impl Fn(usize, usize) -> i32,
) -> Planes {
    let s = slice_width.bits();
    let n_slices = slice_width.slices_for(width) as usize;
    let fields_per_word = (64 / s) as usize;
    let words_per_vec = len.div_ceil(fields_per_word);
    let pattern_mask = (1u32 << (n_slices as u32 * s)) - 1;
    let field_mask = (1u32 << s) - 1;
    let mut planes = vec![vec![0u64; num_vecs * words_per_vec]; n_slices];
    for v in 0..num_vecs {
        for e in 0..len {
            let value = f(v, e);
            width.check(value, signedness)?;
            // Slice j is bits [j*s, (j+1)*s) of the padded pattern.
            let pattern = (value as u32) & pattern_mask;
            let word = v * words_per_vec + e / fields_per_word;
            let offset = ((e % fields_per_word) as u32) * s;
            for (j, plane) in planes.iter_mut().enumerate() {
                let field = (pattern >> (j as u32 * s)) & field_mask;
                plane[word] |= u64::from(field) << offset;
            }
        }
    }
    Ok(planes)
}

/// A packed matrix's planes in the oracle's shape.
fn planes_of(p: &PackedSliceMatrix) -> Vec<Vec<u64>> {
    (0..p.n_slices())
        .map(|j| {
            (0..p.num_vecs())
                .flat_map(|v| p.plane(j, v).iter().copied())
                .collect()
        })
        .collect()
}

/// All four packing entry points of `num_vecs` vectors of `len` elements,
/// each next to the oracle's result for the same vectors: `pack_rows` and
/// `pack_gemm_rows` on `rows` (`[num_vecs, len]`), `pack_cols` and
/// `pack_gemm_cols` on its transpose (`[len, num_vecs]`).
fn packers_vs_oracle(
    rows: &[i32],
    num_vecs: usize,
    len: usize,
    bw: BitWidth,
    sw: SliceWidth,
    s: Signedness,
) -> Vec<(&'static str, Planes)> {
    let cols: Vec<i32> = (0..len * num_vecs)
        .map(|i| rows[(i % num_vecs) * len + i / num_vecs])
        .collect();
    let oracle = oracle_planes(num_vecs, len, bw, sw, s, |v, e| rows[v * len + e]);
    let row_t = Tensor::from_data(&[num_vecs, len], rows.to_vec());
    let col_t = Tensor::from_data(&[len, num_vecs], cols.clone());
    let got = [
        (
            "pack_rows",
            PackedSliceMatrix::pack_rows(rows, num_vecs, len, bw, sw, s),
        ),
        (
            "pack_cols",
            PackedSliceMatrix::pack_cols(&cols, len, num_vecs, bw, sw, s),
        ),
        ("pack_gemm_rows", pack_gemm_rows(&row_t, bw, sw, s)),
        ("pack_gemm_cols", pack_gemm_cols(&col_t, bw, sw, s)),
    ];
    got.into_iter()
        .map(|(name, p)| (name, p.map(|p| planes_of(&p))))
        .chain(std::iter::once(("oracle", oracle)))
        .collect()
}

/// A value just past either end of `lo..=hi`, or an `i32` extreme.
fn out_of_range(rng: &mut impl Rng, lo: i32, hi: i32) -> i32 {
    match rng.gen_range(0..4) {
        0 => hi + rng.gen_range(1..=300),
        1 => lo - rng.gen_range(1..=300),
        2 => i32::MAX,
        _ => i32::MIN,
    }
}

/// Every packer equals the oracle plane for plane, on in-range data and
/// with out-of-range values planted at random positions (the last vector's
/// tail word included): the same planes, or the identical
/// `ValueOutOfRange` for the first offending element in vector-major
/// order. Covers every width × slicing × signedness, lengths around a
/// group of 8 fields and a word's field count, and 0, 1 or more vectors
/// than one transposed column block.
#[test]
fn packers_match_the_per_element_oracle() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed_b175);
    for bits in 1..=8u32 {
        let bw = BitWidth::new(bits).unwrap();
        for sw in SLICE_WIDTHS {
            let fields = (64 / sw.bits()) as usize;
            let mut lens = vec![0, 1, 7, 8, 9, fields - 1, fields, fields + 1];
            lens.sort_unstable();
            lens.dedup();
            for s in SIGNEDNESS {
                let (lo, hi) = bw.range(s);
                for &len in &lens {
                    for num_vecs in [0usize, 1, 37] {
                        let n = num_vecs * len;
                        let rows: Vec<i32> = (0..n).map(|_| rng.gen_range(lo..=hi)).collect();
                        let results = packers_vs_oracle(&rows, num_vecs, len, bw, sw, s);
                        let want = &results[results.len() - 1].1;
                        assert!(want.is_ok());
                        for (name, got) in &results {
                            assert_eq!(got, want, "{name} {bw} {sw} {s} [{num_vecs}, {len}]");
                        }
                        if n == 0 {
                            continue;
                        }
                        // One bad value anywhere, one in the last vector's
                        // tail word, then two anywhere.
                        let tail_fields = (len - 1) % fields + 1;
                        let spots = [
                            vec![rng.gen_range(0..n)],
                            vec![n - 1 - rng.gen_range(0..tail_fields)],
                            vec![rng.gen_range(0..n), rng.gen_range(0..n)],
                        ];
                        for spot in spots {
                            let mut bad = rows.clone();
                            for at in spot {
                                bad[at] = out_of_range(&mut rng, lo, hi);
                            }
                            let results = packers_vs_oracle(&bad, num_vecs, len, bw, sw, s);
                            let want = &results[results.len() - 1].1;
                            assert!(
                                matches!(want, Err(CoreError::ValueOutOfRange { .. })),
                                "{want:?}"
                            );
                            for (name, got) in &results {
                                assert_eq!(got, want, "{name} {bw} {sw} {s} [{num_vecs}, {len}]");
                            }
                        }
                    }
                }
            }
        }
    }
}

proptest! {
    /// Random vectors: packed == exact == slice-clustered for every
    /// (bx, bw, slice, signedness) combination — the packed layout computes
    /// Equation 4 bit-for-bit. Mixed operand widths share one slice width,
    /// exactly as the hardware packs them.
    #[test]
    fn packed_matches_exact_and_clustered(
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
        let n = rng.gen_range(0..300);
        let xs: Vec<i32> = (0..n).map(|_| rng.gen_range(xlo..=xhi)).collect();
        let ws: Vec<i32> = (0..n).map(|_| rng.gen_range(wlo..=whi)).collect();
        let exact = dot_exact(&xs, &ws).unwrap();
        prop_assert_eq!(dot_packed(&xs, &ws, bwx, bww, sw, s).unwrap(), exact);
        prop_assert_eq!(
            dot_slice_clustered(&xs, &ws, bwx, bww, sw, sw, s).unwrap(),
            exact
        );
    }

    /// Per-plane narrow dot-products agree with the scalar sub-vector path:
    /// each (j, k) slice pair through `slice_dot_words` equals the narrow
    /// dot-product of the corresponding scalar sub-vectors — the NBVE-level
    /// contract, not just the fully-reduced sum.
    #[test]
    fn slice_planes_match_scalar_subvectors(
        sw_bits in prop_oneof![Just(1u32), Just(2), Just(4)],
        seed in proptest::num::u64::ANY,
    ) {
        use bpvec_core::bitslice::{decompose_vector, subvector};
        let sw = SliceWidth::new(sw_bits).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..120);
        let xs: Vec<i32> = (0..n).map(|_| rng.gen_range(-128..=127)).collect();
        let ws: Vec<i32> = (0..n).map(|_| rng.gen_range(-128..=127)).collect();
        let px = PackedSliceMatrix::pack(&xs, BitWidth::INT8, sw, Signedness::Signed).unwrap();
        let pw = PackedSliceMatrix::pack(&ws, BitWidth::INT8, sw, Signedness::Signed).unwrap();
        let xsl = decompose_vector(&xs, BitWidth::INT8, sw, Signedness::Signed).unwrap();
        let wsl = decompose_vector(&ws, BitWidth::INT8, sw, Signedness::Signed).unwrap();
        for j in 0..px.n_slices() {
            let xsub = subvector(&xsl, j);
            for k in 0..pw.n_slices() {
                let wsub = subvector(&wsl, k);
                let scalar: i64 = xsub
                    .iter()
                    .zip(&wsub)
                    .map(|(&a, &b)| i64::from(a) * i64::from(b))
                    .sum();
                prop_assert_eq!(px.slice_dot(0, j, &pw, 0, k), scalar, "plane ({}, {})", j, k);
            }
        }
    }
}
