//! Packed bit-plane operand layout — the software realization of slice
//! clustering (paper §II, Equation 4) at word-level speed.
//!
//! [`crate::bitslice`] models the slicing algebra one scalar at a time: a
//! `Vec<Slice>` per value, a re-materialized sub-vector per significance.
//! That is the right shape for *proving* the algebra, and hopeless for
//! *executing* it at Table I scale. This module stores the same
//! decomposition the way the hardware conceptually does: all slices of
//! equal significance `k`, across the whole vector, live in one contiguous
//! **plane** of `s`-bit fields packed into `u64` words. Equation 4's inner
//! narrow dot-product `Σᵢ xᵢ[αj..] · wᵢ[βk..]` then becomes a streaming
//! word kernel ([`crate::nbve::slice_dot_words`]): a single AND + popcount
//! per word for 1-bit slices, and a SWAR sub-plane popcount accumulation
//! for 2/4/8-bit slices — no per-element allocation, branching or shifting.
//!
//! The layout is exact: packing validates every element against its
//! declared width, planes reproduce [`crate::bitslice::SlicedValue`]'s
//! two's-complement slice fields bit for bit (the top plane of a signed
//! operand carries the sign), and [`PackedSliceMatrix::dot`] equals
//! [`crate::dotprod::dot_exact`] for all in-range inputs — property tests
//! in `tests/packed_properties.rs` pin this for every width × slicing ×
//! signedness combination.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::bitslice::{BitWidth, Signedness, SliceWidth};
use crate::error::CoreError;
use crate::kernels::{self, KernelTier, PlanesRef};
use crate::nbve::slice_dot_words;

/// A batch of equal-length vectors decomposed once into packed slice planes.
///
/// Conceptually a `[num_vecs, len]` matrix of `width`-bit values, stored as
/// `ceil(width / slice)` planes: plane `j` holds the `j`-th (significance
/// `2^(s·j)`) slice of every element, as `s`-bit fields packed
/// little-endian into `u64` words, one padded word run per vector. Tail
/// fields beyond `len` are zero, so they contribute nothing to any dot
/// product.
///
/// ```
/// use bpvec_core::{BitWidth, PackedSliceMatrix, Signedness, SliceWidth};
/// let xs = [-77i32, 5, 127, -128];
/// let ws = [33i32, -2, -128, 127];
/// let px = PackedSliceMatrix::pack(&xs, BitWidth::INT8, SliceWidth::BIT2, Signedness::Signed)?;
/// let pw = PackedSliceMatrix::pack(&ws, BitWidth::INT8, SliceWidth::BIT2, Signedness::Signed)?;
/// let exact: i64 = xs.iter().zip(&ws).map(|(&x, &w)| (x as i64) * (w as i64)).sum();
/// assert_eq!(px.dot(0, &pw, 0), exact);
/// # Ok::<(), bpvec_core::CoreError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PackedSliceMatrix {
    /// `planes[j]` holds vector `i`'s words at
    /// `[i * words_per_vec .. (i + 1) * words_per_vec]`.
    planes: Vec<Vec<u64>>,
    num_vecs: usize,
    len: usize,
    words_per_vec: usize,
    width: BitWidth,
    slice_width: SliceWidth,
    signedness: Signedness,
}

impl PackedSliceMatrix {
    /// Packs `num_vecs` row-major vectors of `len` elements each.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ValueOutOfRange`] on the first element that does
    /// not fit the declared `width`/`signedness`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != num_vecs * len` (a programming error, not a
    /// runtime condition).
    pub fn pack_rows(
        data: &[i32],
        num_vecs: usize,
        len: usize,
        width: BitWidth,
        slice_width: SliceWidth,
        signedness: Signedness,
    ) -> Result<Self, CoreError> {
        assert_eq!(
            data.len(),
            num_vecs * len,
            "packed data length {} does not match {num_vecs} vectors of {len}",
            data.len()
        );
        let mut m = Self::zeroed(num_vecs, len, width, slice_width, signedness);
        let mut bytes = m.row_scratch();
        if len > 0 {
            for (v, row) in data.chunks_exact(len).enumerate() {
                m.pack_row(v, row, &mut bytes)?;
            }
        }
        Ok(m)
    }

    /// Packs the `n` columns of a row-major `[k, n]` matrix as `n` vectors
    /// of `k` elements — the activation side of a GEMM (im2col patch
    /// matrices, attention `Kᵀ`/`V` operands) without materializing a
    /// transpose. Columns are transposed a block at a time, reading the
    /// source row by row, and each then packs like a row.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ValueOutOfRange`] on the first element, in
    /// column-major order, that does not fit the declared
    /// `width`/`signedness`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != k * n`.
    pub fn pack_cols(
        data: &[i32],
        k: usize,
        n: usize,
        width: BitWidth,
        slice_width: SliceWidth,
        signedness: Signedness,
    ) -> Result<Self, CoreError> {
        assert_eq!(
            data.len(),
            k * n,
            "packed data length {} does not match a [{k}, {n}] matrix",
            data.len()
        );
        let mut m = Self::zeroed(n, k, width, slice_width, signedness);
        if k == 0 || n == 0 {
            return Ok(m);
        }
        let mut bytes = m.row_scratch();
        let mut block = vec![0i32; COL_BLOCK.min(n) * k];
        for c0 in (0..n).step_by(COL_BLOCK) {
            let cols = COL_BLOCK.min(n - c0);
            for (e, row) in data.chunks_exact(n).enumerate() {
                for (ci, &x) in row[c0..c0 + cols].iter().enumerate() {
                    block[ci * k + e] = x;
                }
            }
            for (ci, col) in block.chunks_exact(k).take(cols).enumerate() {
                m.pack_row(c0 + ci, col, &mut bytes)?;
            }
        }
        Ok(m)
    }

    /// Packs `num_vecs` vectors of `len` elements gathered from `src`:
    /// `gather(v, row)` writes vector `v` as a sequence of runs of `src`
    /// elements and of zeros ([`GatherRow`]). This is the activation side
    /// of a convolution, each output position's patch gathered from the
    /// input with no im2col matrix in between.
    ///
    /// `src` is narrowed to two's-complement bytes once, under one range
    /// check, so a run copies bytes straight into the packer's row. Vectors
    /// pack in blocks ([`par_grain`]), the blocks in parallel through rayon;
    /// a matrix smaller than [`PAR_MIN_ELEMS`] packs on the calling thread.
    /// The result does not depend on the split.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ValueOutOfRange`] on the first element, in
    /// vector order, that does not fit the declared `width`/`signedness`.
    /// A `src` element no vector reads is never checked.
    ///
    /// # Panics
    ///
    /// Panics if `gather` writes other than `len` elements to a vector, or
    /// a run reaches past the end of `src`.
    pub fn pack_gathered<F>(
        src: &[i32],
        num_vecs: usize,
        len: usize,
        width: BitWidth,
        slice_width: SliceWidth,
        signedness: Signedness,
        gather: F,
    ) -> Result<Self, CoreError>
    where
        F: Fn(usize, &mut GatherRow) + Sync,
    {
        let m = Self::zeroed(num_vecs, len, width, slice_width, signedness);
        let (lo, hi) = width.range(signedness);
        let span = hi.wrapping_sub(lo) as u32;
        let mut fits = true;
        let narrow: Vec<u8> = src
            .iter()
            .map(|&x| {
                fits &= x.wrapping_sub(lo) as u32 <= span;
                x as u8
            })
            .collect();
        if !fits {
            // Walk the vectors in order, checking every element they read.
            let mut row = GatherRow {
                src: Source::Check {
                    values: src,
                    width,
                    signedness,
                    error: None,
                },
                bytes: &mut [],
                at: 0,
            };
            for v in 0..num_vecs {
                row.gathered(v, len, &gather);
                if let Source::Check { error: Some(e), .. } = row.src {
                    return Err(e);
                }
            }
        }
        let block = par_grain(num_vecs, len);
        Ok(m.gather_blocks(&narrow, block, &gather))
    }

    /// Fills a zeroed matrix from the narrowed source `src` in blocks of
    /// `block` vectors, in parallel (see [`Self::pack_gathered`]).
    fn gather_blocks<F>(mut self, src: &[u8], block: usize, gather: &F) -> Self
    where
        F: Fn(usize, &mut GatherRow) + Sync,
    {
        let (num_vecs, len, wpv) = (self.num_vecs, self.len, self.words_per_vec);
        if num_vecs == 0 || wpv == 0 {
            return self;
        }
        let block = block.clamp(1, num_vecs);
        let mut blocks: Vec<Vec<&mut [u64]>> = (0..num_vecs.div_ceil(block))
            .map(|_| Vec::with_capacity(self.planes.len()))
            .collect();
        for plane in &mut self.planes {
            for (b, words) in blocks.iter_mut().zip(plane.chunks_mut(block * wpv)) {
                b.push(words);
            }
        }
        // Each block's row bytes, allocated here so workers allocate
        // nothing.
        let slice_width = self.slice_width;
        let row_bytes = wpv * fields_per_word(slice_width);
        let mut rows = vec![0u8; blocks.len() * (row_bytes + WIDE_COPY)];
        let mut tasks: Vec<_> = blocks
            .into_iter()
            .zip(rows.chunks_mut(row_bytes + WIDE_COPY))
            .collect();
        tasks.par_chunks_mut(1).enumerate().for_each(|(bi, task)| {
            let (planes, bytes) = &mut task[0];
            let mut row = GatherRow {
                src: Source::Bytes(src),
                bytes,
                at: 0,
            };
            for (i, v) in (bi * block..num_vecs.min((bi + 1) * block)).enumerate() {
                row.gathered(v, len, gather);
                row.bytes[len..].fill(0);
                let words = planes.iter_mut().map(|p| &mut p[i * wpv..(i + 1) * wpv]);
                pack_planes(&row.bytes[..row_bytes], slice_width, words);
            }
        });
        self
    }

    /// Packs a single vector (a `1 × len` matrix).
    ///
    /// # Errors
    ///
    /// Same conditions as [`PackedSliceMatrix::pack_rows`].
    pub fn pack(
        values: &[i32],
        width: BitWidth,
        slice_width: SliceWidth,
        signedness: Signedness,
    ) -> Result<Self, CoreError> {
        Self::pack_rows(values, 1, values.len(), width, slice_width, signedness)
    }

    /// An all-zero matrix of the given geometry, filled row by row by
    /// [`Self::pack_row`].
    fn zeroed(
        num_vecs: usize,
        len: usize,
        width: BitWidth,
        slice_width: SliceWidth,
        signedness: Signedness,
    ) -> Self {
        // Every plane field is a bit range of an element's low byte, which
        // holds the whole two's-complement pattern only up to 8 bits.
        assert!(
            width.bits() <= 8,
            "packed operands are at most 8 bits wide, got {width}"
        );
        let n_slices = slice_width.slices_for(width) as usize;
        let words_per_vec = len.div_ceil(fields_per_word(slice_width));
        PackedSliceMatrix {
            planes: vec![vec![0u64; num_vecs * words_per_vec]; n_slices],
            num_vecs,
            len,
            words_per_vec,
            width,
            slice_width,
            signedness,
        }
    }

    /// Scratch for [`Self::pack_row`]: one byte per field of a vector's
    /// word run. The bytes past `len` stay zero, so tail fields pack as
    /// zero.
    fn row_scratch(&self) -> Vec<u8> {
        vec![0u8; self.words_per_vec * fields_per_word(self.slice_width)]
    }

    /// Packs `row` as vector `v`, a word at a time.
    ///
    /// Step 1 narrows the row to each element's two's-complement byte
    /// under one branch-free range check; only a row that fails it is
    /// scanned again, so the error names the first offending element.
    /// Step 2 builds every word of every plane from those bytes
    /// ([`pack_planes`]).
    fn pack_row(&mut self, v: usize, row: &[i32], bytes: &mut [u8]) -> Result<(), CoreError> {
        debug_assert_eq!(row.len(), self.len);
        let (lo, hi) = self.width.range(self.signedness);
        let span = hi.wrapping_sub(lo) as u32;
        let mut fits = true;
        for (b, &x) in bytes.iter_mut().zip(row) {
            *b = x as u8;
            fits &= x.wrapping_sub(lo) as u32 <= span;
        }
        if !fits {
            for &x in row {
                self.width.check(x, self.signedness)?;
            }
        }
        let wpv = self.words_per_vec;
        let words = self
            .planes
            .iter_mut()
            .map(|plane| &mut plane[v * wpv..(v + 1) * wpv]);
        pack_planes(bytes, self.slice_width, words);
        Ok(())
    }

    /// Number of packed vectors.
    #[must_use]
    pub fn num_vecs(&self) -> usize {
        self.num_vecs
    }

    /// Elements per vector.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the vectors have no elements (or there are no vectors).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0 || self.num_vecs == 0
    }

    /// The declared operand width.
    #[must_use]
    pub fn width(&self) -> BitWidth {
        self.width
    }

    /// The slice width of the packed fields.
    #[must_use]
    pub fn slice_width(&self) -> SliceWidth {
        self.slice_width
    }

    /// The declared signedness.
    #[must_use]
    pub fn signedness(&self) -> Signedness {
        self.signedness
    }

    /// Number of slice planes (`ceil(width / slice)`).
    #[must_use]
    pub fn n_slices(&self) -> usize {
        self.planes.len()
    }

    /// `u64` words per vector per plane.
    #[must_use]
    pub fn words_per_vec(&self) -> usize {
        self.words_per_vec
    }

    /// Packed footprint in bytes over all planes — what a scratchpad holding
    /// the operand in this layout would store.
    #[must_use]
    pub fn byte_len(&self) -> usize {
        self.planes.len() * self.num_vecs * self.words_per_vec * 8
    }

    /// The packed words of vector `vec`'s slice plane `slice`.
    ///
    /// # Panics
    ///
    /// Panics if `slice >= n_slices()` or `vec >= num_vecs()`.
    #[must_use]
    pub fn plane(&self, slice: usize, vec: usize) -> &[u64] {
        assert!(vec < self.num_vecs, "vector {vec} out of range");
        let lo = vec * self.words_per_vec;
        &self.planes[slice][lo..lo + self.words_per_vec]
    }

    /// True if plane `slice` carries the sign (the most-significant slice of
    /// a signed operand) — the only plane whose fields a kernel must weight
    /// as two's complement.
    #[must_use]
    pub fn signed_top(&self, slice: usize) -> bool {
        self.signedness == Signedness::Signed && slice + 1 == self.planes.len()
    }

    /// The narrow dot-product of one slice plane of `self[vec]` against one
    /// slice plane of `other[ovec]` — what a single NBVE computes, via the
    /// word kernel.
    ///
    /// # Panics
    ///
    /// Panics on plane/vector indices out of range, or if the two matrices
    /// disagree in length or slice width (see [`PackedSliceMatrix::dot`]).
    #[must_use]
    pub fn slice_dot(
        &self,
        vec: usize,
        slice: usize,
        other: &PackedSliceMatrix,
        ovec: usize,
        oslice: usize,
    ) -> i64 {
        self.check_compatible(other);
        slice_dot_words(
            self.plane(slice, vec),
            other.plane(oslice, ovec),
            self.slice_width,
            self.signed_top(slice),
            other.signed_top(oslice),
        )
    }

    /// The full Equation 4 dot-product of vector `vec` against `other`'s
    /// vector `ovec`: every (j, k) slice-plane pair reduced through the
    /// word-level kernels, shift-added by significance. Exactly equals
    /// [`crate::dotprod::dot_exact`] of the original vectors.
    ///
    /// The hot loop is a *fused* form of the per-pair kernel
    /// ([`slice_dot_words`], still exposed through
    /// [`PackedSliceMatrix::slice_dot`]): since the sub-plane split of an
    /// `s`-bit slice plane is just the 1-bit planes of the original value,
    /// each word is decomposed once into its ≤ 8 bit planes per operand and
    /// all bit-pair popcounts accumulate in one pass — every plane pair's
    /// extraction and significance multiply is hoisted out of the word
    /// stream, with the weighted reduction `Σᵢₗ ±2^(i+l)·countᵢₗ` applied
    /// once per dot (the top bit of a signed operand weighs negative: two's
    /// complement).
    ///
    /// The realization is dispatched once per process by
    /// [`crate::kernels::active_tier`]: AVX-512 `vpopcntq` or AVX2
    /// vpshufb-popcount lanes where available, portable scalar SWAR
    /// otherwise or under `BPVEC_KERNEL=scalar` — all tiers bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if the matrices disagree in element count or slice width
    /// (operands must be packed for the same hardware slicing), or on
    /// vector indices out of range.
    #[must_use]
    pub fn dot(&self, vec: usize, other: &PackedSliceMatrix, ovec: usize) -> i64 {
        self.dot_with(kernels::active_tier(), vec, other, ovec)
    }

    /// [`PackedSliceMatrix::dot`] through an explicit kernel tier — the
    /// entry point dispatch-equality tests use to pin every available tier
    /// against the scalar reference on the same operands.
    ///
    /// # Panics
    ///
    /// Same conditions as [`PackedSliceMatrix::dot`], plus if `tier` is not
    /// available on this CPU (see [`crate::kernels::available_tiers`]).
    #[must_use]
    pub fn dot_with(
        &self,
        tier: KernelTier,
        vec: usize,
        other: &PackedSliceMatrix,
        ovec: usize,
    ) -> i64 {
        self.check_compatible(other);
        assert!(vec < self.num_vecs, "vector {vec} out of range");
        assert!(ovec < other.num_vecs, "vector {ovec} out of range");
        assert!(
            tier <= kernels::detected_tier(),
            "kernel tier {tier} is not available on this CPU"
        );
        let (a_planes, a_ref) = self.planes_ref(vec);
        let (b_planes, b_ref) = other.planes_ref(ovec);
        kernels::weighted_dot(
            tier,
            &PlanesRef {
                planes: &a_planes[..self.planes.len()],
                ..a_ref
            },
            &PlanesRef {
                planes: &b_planes[..other.planes.len()],
                ..b_ref
            },
        )
    }

    /// Collects vector `vec`'s plane slices into a fixed array plus the
    /// kernel-facing descriptor (with an empty placeholder `planes` field —
    /// callers re-borrow the array at the right length).
    fn planes_ref(&self, vec: usize) -> ([&[u64]; 8], PlanesRef<'_>) {
        debug_assert!(self.planes.len() <= 8, "operands wider than 8 bits");
        let mut arr: [&[u64]; 8] = [&[]; 8];
        for (slot, j) in arr.iter_mut().zip(0..self.planes.len()) {
            *slot = self.plane(j, vec);
        }
        (
            arr,
            PlanesRef {
                planes: &[],
                s: self.slice_width.bits(),
                neg_top: self.signedness == Signedness::Signed,
            },
        )
    }

    /// Computes the dense dot-product block of rows `rows` of `self`
    /// against **every** vector of `other`, writing
    /// `out[r * other.num_vecs() + c] = self.dot(rows.start + r, other, c)`.
    ///
    /// This is the building block of the packed GEMM, with one of two
    /// realizations, chosen by [`crate::kernels::uses_lanes`]:
    ///
    /// * **lane micro-kernel** — on a SIMD tier with at least
    ///   [`crate::kernels::LANE_MIN_COLS`] columns: `other` is prepared once
    ///   ([`PackedSliceMatrix::prepare_cols`]) and the block runs through
    ///   [`PackedSliceMatrix::dot_block_lanes_into`];
    /// * **per dot** — on the scalar tier, the fused per-dot loop; on a
    ///   SIMD tier below the cut-over (GEMVs), every column's and then each
    ///   row's sub-planes are extracted once into zero-padded buffers and
    ///   the per-dot SIMD kernel streams them, one output at a time.
    ///
    /// Results are bit-identical to calling [`PackedSliceMatrix::dot`] per
    /// element on every tier.
    ///
    /// # Panics
    ///
    /// Panics if the matrices disagree in element count or slice width, if
    /// `rows` is out of range, if `out.len() != rows.len() *
    /// other.num_vecs()`, or if `tier` is not available on this CPU.
    pub fn dot_block_into(
        &self,
        tier: KernelTier,
        rows: core::ops::Range<usize>,
        other: &PackedSliceMatrix,
        out: &mut [i64],
    ) {
        self.check_compatible(other);
        let n = other.num_vecs;
        if kernels::uses_lanes(tier, n) {
            let cols = other.prepare_cols();
            self.dot_block_lanes_into(tier, rows, &cols, out);
            return;
        }
        self.check_block(tier, &rows, n, out);
        if tier == KernelTier::Scalar {
            // The scalar tier keeps the original per-dot fused loop: same
            // operation count either way, and it keeps the fallback path
            // byte-for-byte the pre-SIMD behavior.
            for (ri, row) in rows.clone().enumerate() {
                for col in 0..n {
                    out[ri * n + col] = self.dot_with(tier, row, other, col);
                }
            }
            return;
        }
        let s = self.slice_width.bits() as usize;
        let (abits, bbits) = (self.planes.len() * s, other.planes.len() * s);
        let wpv = self.words_per_vec;
        if wpv == 0 || n == 0 || rows.is_empty() {
            out.fill(0);
            return;
        }
        let wpad = kernels::pad_words(wpv);
        let (neg_a, neg_b) = (
            self.signedness == Signedness::Signed,
            other.signedness == Signedness::Signed,
        );
        let col_stride = bbits * wpad;
        let mut bbuf = vec![0u64; n * col_stride];
        for (c, buf) in bbuf.chunks_exact_mut(col_stride).enumerate() {
            let (b_planes, b_ref) = other.planes_ref(c);
            kernels::extract_subplanes(
                &PlanesRef {
                    planes: &b_planes[..other.planes.len()],
                    ..b_ref
                },
                wpad,
                buf,
            );
        }
        let mut abuf = vec![0u64; abits * wpad];
        for (row, orow) in rows.zip(out.chunks_exact_mut(n)) {
            let (a_planes, a_ref) = self.planes_ref(row);
            kernels::extract_subplanes(
                &PlanesRef {
                    planes: &a_planes[..self.planes.len()],
                    ..a_ref
                },
                wpad,
                &mut abuf,
            );
            for (o, bsub) in orow.iter_mut().zip(bbuf.chunks_exact(col_stride)) {
                *o = kernels::dot_subplanes(tier, &abuf, bsub, wpad, abits, bbits, neg_a, neg_b);
            }
        }
    }

    /// Prepares this matrix's vectors as the B columns of a lane-kernel GEMM
    /// ([`PackedSliceMatrix::dot_block_lanes_into`]): dense one-bit
    /// sub-planes in broadcast order, the top sub-plane of a signed operand
    /// flipped, and each column's sum. Built once per GEMM and shared by
    /// every block of A rows.
    #[must_use]
    pub fn prepare_cols(&self) -> PreparedCols {
        let s = self.slice_width.bits();
        let bits = self.planes.len() * s as usize;
        let dense_words = kernels::dense_words(self.len);
        let signed = self.signedness == Signedness::Signed;
        let flip = signed.then(|| kernels::dense_tail_mask(self.len, s));
        let col_words = dense_words * bits;
        let mut words = vec![0u64; self.num_vecs * col_words];
        let sums = (0..self.num_vecs)
            .map(|c| {
                let (planes, _) = self.planes_ref(c);
                let col = &mut words[c * col_words..(c + 1) * col_words];
                kernels::extract_dense(&planes[..self.planes.len()], s, flip, col, 1)
            })
            .collect();
        PreparedCols {
            sums,
            words,
            len: self.len,
            bits,
            dense_words,
            offset: kernels::lane_offset(bits, signed),
            slice_width: self.slice_width,
        }
    }

    /// The block of rows `rows` of `self` against every column of `cols`
    /// (see [`PackedSliceMatrix::dot_block_into`], which it equals), on the
    /// lane micro-kernel: each group of `tier.lane_words()` rows is
    /// extracted into one lane panel of dense sub-planes, every column's
    /// words are broadcast against it, and each output is corrected for the
    /// operands' sign offsets once. See [`crate::kernels`].
    ///
    /// # Panics
    ///
    /// Panics if `cols` was prepared from a matrix of another element count
    /// or slice width, if `rows` is out of range, if `out.len() !=
    /// rows.len() * cols.num_vecs()`, or if `tier` is the scalar tier or not
    /// available on this CPU.
    pub fn dot_block_lanes_into(
        &self,
        tier: KernelTier,
        rows: core::ops::Range<usize>,
        cols: &PreparedCols,
        out: &mut [i64],
    ) {
        assert_eq!(
            self.len, cols.len,
            "packed operands differ in length: {} vs {}",
            self.len, cols.len
        );
        assert_eq!(
            self.slice_width, cols.slice_width,
            "packed operands differ in slice width: {} vs {}",
            self.slice_width, cols.slice_width
        );
        assert_ne!(
            tier,
            KernelTier::Scalar,
            "the lane micro-kernel needs a SIMD tier"
        );
        let n = cols.num_vecs();
        self.check_block(tier, &rows, n, out);
        if self.len == 0 {
            out.fill(0);
            return;
        }
        let s = self.slice_width.bits();
        let abits = self.planes.len() * s as usize;
        let lanes = tier.lane_words();
        let dw = cols.dense_words;
        let signed = self.signedness == Signedness::Signed;
        let flip = signed.then(|| kernels::dense_tail_mask(self.len, s));
        let a_offset = kernels::lane_offset(abits, signed);
        let k_offsets = self.len as i64 * a_offset * cols.offset;
        let mut panel = vec![0u64; dw * abits * lanes];
        for (first, block) in rows
            .clone()
            .step_by(lanes)
            .zip(out.chunks_mut(lanes * n.max(1)))
        {
            let panel_rows = lanes.min(rows.end - first);
            let mut a_corr = [0i64; 8];
            for lane in 0..panel_rows {
                let (planes, _) = self.planes_ref(first + lane);
                let sum = kernels::extract_dense(
                    &planes[..self.planes.len()],
                    s,
                    flip,
                    &mut panel[lane..],
                    lanes,
                );
                a_corr[lane] = k_offsets - cols.offset * sum;
            }
            // Lanes past the last row keep stale words: their outputs are
            // computed and dropped.
            kernels::lane_panel(
                tier,
                abits,
                cols.bits,
                &mut kernels::LanePanel {
                    a: &panel,
                    a_corr,
                    b: &cols.words,
                    b_sums: &cols.sums,
                    a_offset,
                    dense_words: dw,
                    rows: panel_rows,
                    out: block,
                },
            );
        }
    }

    /// The shared preconditions of a GEMM block: `rows` in range, `out`
    /// sized `rows × n`, `tier` available.
    fn check_block(&self, tier: KernelTier, rows: &core::ops::Range<usize>, n: usize, out: &[i64]) {
        assert!(
            rows.end <= self.num_vecs,
            "row range {rows:?} out of range ({} vectors)",
            self.num_vecs
        );
        assert!(
            tier <= kernels::detected_tier(),
            "kernel tier {tier} is not available on this CPU"
        );
        assert_eq!(
            out.len(),
            rows.len() * n,
            "output block must hold rows × columns results"
        );
    }

    fn check_compatible(&self, other: &PackedSliceMatrix) {
        assert_eq!(
            self.len, other.len,
            "packed operands differ in length: {} vs {}",
            self.len, other.len
        );
        assert_eq!(
            self.slice_width, other.slice_width,
            "packed operands differ in slice width: {} vs {}",
            self.slice_width, other.slice_width
        );
    }

    /// Unpacks element `e` of vector `vec` back to its original value — the
    /// slices recombined by significance, sign-extended from the top plane.
    /// Exact inverse of packing; used by round-trip tests.
    ///
    /// # Panics
    ///
    /// Panics if `vec`/`e` are out of range.
    #[must_use]
    pub fn get(&self, vec: usize, e: usize) -> i32 {
        assert!(e < self.len, "element {e} out of range (len {})", self.len);
        let s = self.slice_width.bits();
        let fields_per_word = (64 / s) as usize;
        let word = vec * self.words_per_vec + e / fields_per_word;
        let offset = ((e % fields_per_word) as u32) * s;
        let field_mask = (1u64 << s) - 1;
        let mut value = 0i64;
        for (j, plane) in self.planes.iter().enumerate() {
            let raw = (plane[word] >> offset) & field_mask;
            let field = if self.signed_top(j) && raw & (1 << (s - 1)) != 0 {
                raw as i64 - (1i64 << s)
            } else {
                raw as i64
            };
            value += field << (j as u32 * s);
        }
        value as i32
    }
}

/// A GEMM's B operand prepared for the lane micro-kernel by
/// [`PackedSliceMatrix::prepare_cols`]: each column's dense one-bit
/// sub-planes (64 elements per word, the top sub-plane of a signed
/// operand flipped over its valid elements) in broadcast order, and each
/// column's sum over those words.
#[derive(Debug, Clone)]
pub struct PreparedCols {
    /// `[column][dense word][sub-plane]`.
    words: Vec<u64>,
    /// Per column: `Σv`, the sum of its offset elements.
    sums: Vec<i64>,
    len: usize,
    bits: usize,
    dense_words: usize,
    /// `2^(bits−1)` for a signed operand, 0 for an unsigned one.
    offset: i64,
    slice_width: SliceWidth,
}

impl PreparedCols {
    /// Number of prepared columns.
    #[must_use]
    pub fn num_vecs(&self) -> usize {
        self.sums.len()
    }
}

/// Columns [`PackedSliceMatrix::pack_cols`] transposes at a time: one
/// 64-byte cache line of each source row.
const COL_BLOCK: usize = 16;

/// The smallest pass worth splitting across threads:
/// [`PackedSliceMatrix::pack_gathered`] and the executor's stages between
/// GEMMs run a pass over fewer elements than this on the calling thread.
/// The rayon shim starts its workers afresh for every parallel call, and
/// on a 2-vCPU VM one `std::thread::scope` spawn and join took 70–290 µs.
/// There, at 98k elements the executor's requantize, softmax and layer
/// norm ran as fast on one thread as on two (0.15–0.2, 0.7–1.0 and
/// 0.5–0.9 ms), while at 196k two threads cut requantize from 0.38–0.43 to
/// 0.24–0.31 ms and softmax from 1.8–2.1 to 1.1–1.4 ms.
pub const PAR_MIN_ELEMS: usize = 1 << 17;

/// Units per task for a pass over `units` units of `unit_len` elements
/// each: every unit in one task below [`PAR_MIN_ELEMS`] elements, and
/// otherwise tasks of at least an eighth of that, so the shim's
/// contiguous runs of tasks stay balanced across its workers.
#[must_use]
pub fn par_grain(units: usize, unit_len: usize) -> usize {
    if units.saturating_mul(unit_len) < PAR_MIN_ELEMS {
        units.max(1)
    } else {
        (PAR_MIN_ELEMS / 8)
            .div_ceil(unit_len.max(1))
            .clamp(1, units)
    }
}

/// Bytes a short run of [`GatherRow::copy`] moves at once: one 16-byte
/// load and store instead of a call to `memcpy`. The bytes past the run
/// are overwritten by the runs after it, and past the vector's end are
/// zeroed before it packs.
const WIDE_COPY: usize = 16;

/// The row one vector of [`PackedSliceMatrix::pack_gathered`] is written
/// into, as runs of source elements and of zeros.
#[derive(Debug)]
pub struct GatherRow<'a> {
    src: Source<'a>,
    /// The vector's bytes, one per field of its word run plus
    /// [`WIDE_COPY`] bytes of slack; empty while checking.
    bytes: &'a mut [u8],
    at: usize,
}

/// What a [`GatherRow`] reads its runs from.
#[derive(Debug)]
enum Source<'a> {
    /// The source narrowed to bytes, every element in range.
    Bytes(&'a [u8]),
    /// The source values, each run checked against the declared range;
    /// `error` keeps the first element that does not fit.
    Check {
        values: &'a [i32],
        width: BitWidth,
        signedness: Signedness,
        error: Option<CoreError>,
    },
}

impl GatherRow<'_> {
    /// Appends the `n` source elements from `from` on.
    ///
    /// # Panics
    ///
    /// Panics if the run reaches past the source or the vector's end.
    #[inline]
    pub fn copy(&mut self, from: usize, n: usize) {
        if let Source::Bytes(src) = self.src {
            if n <= WIDE_COPY && from + WIDE_COPY <= src.len() {
                self.bytes[self.at..self.at + WIDE_COPY]
                    .copy_from_slice(&src[from..from + WIDE_COPY]);
            } else {
                self.bytes[self.at..self.at + n].copy_from_slice(&src[from..from + n]);
            }
            self.at += n;
        } else {
            self.check(from, n);
        }
    }

    /// [`Self::copy`] while checking: keeps the run's first element that
    /// does not fit, unless an earlier run had one.
    #[cold]
    fn check(&mut self, from: usize, n: usize) {
        if let Source::Check {
            values,
            width,
            signedness,
            error: error @ None,
        } = &mut self.src
        {
            *error = values[from..from + n]
                .iter()
                .find_map(|&x| width.check(x, *signedness).err());
        }
        self.at += n;
    }

    /// Appends `n` zeros.
    ///
    /// # Panics
    ///
    /// Panics if the vector overflows its length.
    #[inline]
    pub fn zeros(&mut self, n: usize) {
        if let Source::Bytes(_) = self.src {
            if n <= WIDE_COPY {
                self.bytes[self.at..self.at + WIDE_COPY].fill(0);
            } else {
                self.bytes[self.at..self.at + n].fill(0);
            }
        }
        self.at += n;
    }

    /// Writes vector `v` of `len` elements through `gather`.
    fn gathered<F: Fn(usize, &mut Self)>(&mut self, v: usize, len: usize, gather: &F) {
        self.at = 0;
        gather(v, self);
        assert_eq!(
            self.at, len,
            "vector {v} gathered {} of {len} elements",
            self.at
        );
    }
}

/// Packs one vector's narrowed bytes into its word run of each plane
/// (`words`, in plane order), building every word from 8-byte groups
/// ([`gather_fields`]).
fn pack_planes<'w>(
    bytes: &[u8],
    slice_width: SliceWidth,
    words: impl Iterator<Item = &'w mut [u64]>,
) {
    let s = slice_width.bits();
    for (j, words) in words.enumerate() {
        let shift = j as u32 * s;
        match s {
            1 => pack_plane::<1>(bytes, shift, words),
            2 => pack_plane::<2>(bytes, shift, words),
            4 => pack_plane::<4>(bytes, shift, words),
            _ => pack_plane::<8>(bytes, shift, words),
        }
    }
}

/// `s`-bit fields per `u64` word.
fn fields_per_word(slice_width: SliceWidth) -> usize {
    (64 / slice_width.bits()) as usize
}

/// Writes one plane of one vector: word `w` gets the `S`-bit field at bit
/// `shift` of bytes `[w·64/S, (w+1)·64/S)`, element `e` at bit `(e mod 64/S)·S`.
#[inline]
fn pack_plane<const S: u32>(bytes: &[u8], shift: u32, words: &mut [u64]) {
    for (word, chunk) in words.iter_mut().zip(bytes.chunks_exact(64 / S as usize)) {
        let mut w = 0u64;
        for (g, group) in chunk.chunks_exact(8).enumerate() {
            let x = u64::from_le_bytes(group.try_into().expect("8-byte group"));
            w |= gather_fields::<S>(x, shift) << (g as u32 * 8 * S);
        }
        *word = w;
    }
}

/// Gathers the `S`-bit field at bit `shift` of each byte of `x` into the
/// low `8·S` bits, byte `i`'s field at bit `i·S`: one multiply for 1-bit
/// fields, three shift-or-mask halvings for 2- and 4-bit fields, and the
/// bytes themselves for 8-bit fields (whose `shift` is always 0).
#[inline(always)]
fn gather_fields<const S: u32>(x: u64, shift: u32) -> u64 {
    let x = x >> shift;
    match S {
        // Bit 0 of byte i lands at bit 56 + i of the product, and no two
        // partial products share a bit position, so nothing carries.
        1 => ((x & 0x0101_0101_0101_0101).wrapping_mul(0x0102_0408_1020_4080)) >> 56,
        2 => {
            let x = x & 0x0303_0303_0303_0303;
            let x = (x | x >> 6) & 0x000F_000F_000F_000F;
            let x = (x | x >> 12) & 0x0000_00FF_0000_00FF;
            (x | x >> 24) & 0xFFFF
        }
        4 => {
            let x = x & 0x0F0F_0F0F_0F0F_0F0F;
            let x = (x | x >> 4) & 0x00FF_00FF_00FF_00FF;
            let x = (x | x >> 8) & 0x0000_FFFF_0000_FFFF;
            (x | x >> 16) & 0xFFFF_FFFF
        }
        _ => x,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitslice::{decompose_vector, subvector};
    use crate::dotprod::dot_exact;

    #[test]
    fn pack_roundtrips_signed_int8_edges() {
        let vals = [-128, 127, -1, 0, 1, -77, 100];
        for sw in [
            SliceWidth::BIT1,
            SliceWidth::BIT2,
            SliceWidth::BIT4,
            SliceWidth::BIT8,
        ] {
            let p = PackedSliceMatrix::pack(&vals, BitWidth::INT8, sw, Signedness::Signed).unwrap();
            for (e, &v) in vals.iter().enumerate() {
                assert_eq!(p.get(0, e), v, "{sw} element {e}");
            }
        }
    }

    #[test]
    fn planes_match_scalar_decomposition() {
        let vals = [-128, 127, -1, 0, 5, -3];
        let sliced =
            decompose_vector(&vals, BitWidth::INT8, SliceWidth::BIT2, Signedness::Signed).unwrap();
        let p =
            PackedSliceMatrix::pack(&vals, BitWidth::INT8, SliceWidth::BIT2, Signedness::Signed)
                .unwrap();
        assert_eq!(p.n_slices(), 4);
        for j in 0..4 {
            let lane = subvector(&sliced, j);
            for (e, &want) in lane.iter().enumerate() {
                // Raw packed field == unsigned slice value; the top plane's
                // field is the two's-complement form of the signed slice.
                let s = 2u32;
                let field = (p.plane(j, 0)[e / 32] >> ((e % 32) as u32 * s)) & ((1 << s) - 1);
                let got = if p.signed_top(j) && field & 0b10 != 0 {
                    field as i64 - 4
                } else {
                    field as i64
                };
                assert_eq!(got, i64::from(want), "plane {j} element {e}");
            }
        }
    }

    #[test]
    fn dot_matches_exact_for_fixture() {
        let xs = [-128, 127, -1, 0, 64, -64, 3, -3];
        let ws = [127, -128, -1, -1, 3, -3, 100, 99];
        let exact = dot_exact(&xs, &ws).unwrap();
        for sw in [
            SliceWidth::BIT1,
            SliceWidth::BIT2,
            SliceWidth::BIT4,
            SliceWidth::BIT8,
        ] {
            let px = PackedSliceMatrix::pack(&xs, BitWidth::INT8, sw, Signedness::Signed).unwrap();
            let pw = PackedSliceMatrix::pack(&ws, BitWidth::INT8, sw, Signedness::Signed).unwrap();
            assert_eq!(px.dot(0, &pw, 0), exact, "{sw}");
        }
    }

    #[test]
    fn mixed_widths_pack_independently() {
        // 8-bit activations against 2-bit weights (paper Figure 3c).
        let xs = [-100, 77, 0, -1, 127, -128];
        let ws = [1, -2, 0, 1, -1, -2];
        let px = PackedSliceMatrix::pack(&xs, BitWidth::INT8, SliceWidth::BIT2, Signedness::Signed)
            .unwrap();
        let pw = PackedSliceMatrix::pack(&ws, BitWidth::INT2, SliceWidth::BIT2, Signedness::Signed)
            .unwrap();
        assert_eq!(px.n_slices(), 4);
        assert_eq!(pw.n_slices(), 1);
        assert_eq!(px.dot(0, &pw, 0), dot_exact(&xs, &ws).unwrap());
    }

    #[test]
    fn unsigned_operands_have_no_signed_plane() {
        let xs = [255, 0, 128, 17];
        let p =
            PackedSliceMatrix::pack(&xs, BitWidth::INT8, SliceWidth::BIT4, Signedness::Unsigned)
                .unwrap();
        assert!(!p.signed_top(p.n_slices() - 1));
        let q =
            PackedSliceMatrix::pack(&xs, BitWidth::INT8, SliceWidth::BIT4, Signedness::Unsigned)
                .unwrap();
        assert_eq!(p.dot(0, &q, 0), dot_exact(&xs, &xs).unwrap());
    }

    #[test]
    fn tail_padding_is_inert() {
        // Lengths straddling word boundaries: 2-bit slices -> 32 fields/word.
        for n in [1usize, 31, 32, 33, 63, 64, 65] {
            let xs: Vec<i32> = (0..n).map(|i| (i as i32 % 255) - 127).collect();
            let ws: Vec<i32> = (0..n).map(|i| ((i as i32 * 7) % 255) - 127).collect();
            let px =
                PackedSliceMatrix::pack(&xs, BitWidth::INT8, SliceWidth::BIT2, Signedness::Signed)
                    .unwrap();
            let pw =
                PackedSliceMatrix::pack(&ws, BitWidth::INT8, SliceWidth::BIT2, Signedness::Signed)
                    .unwrap();
            assert_eq!(px.dot(0, &pw, 0), dot_exact(&xs, &ws).unwrap(), "n = {n}");
        }
    }

    #[test]
    fn multi_vector_rows_pack_and_dot_independently() {
        let data: Vec<i32> = (0..24).map(|i| (i * 11 % 255) - 127).collect();
        let m = PackedSliceMatrix::pack_rows(
            &data,
            4,
            6,
            BitWidth::INT8,
            SliceWidth::BIT2,
            Signedness::Signed,
        )
        .unwrap();
        assert_eq!(m.num_vecs(), 4);
        for i in 0..4 {
            for j in 0..4 {
                let a = &data[i * 6..(i + 1) * 6];
                let b = &data[j * 6..(j + 1) * 6];
                assert_eq!(m.dot(i, &m, j), dot_exact(a, b).unwrap());
            }
        }
    }

    #[test]
    fn empty_vectors_dot_to_zero() {
        let p = PackedSliceMatrix::pack(&[], BitWidth::INT8, SliceWidth::BIT2, Signedness::Signed)
            .unwrap();
        assert!(p.is_empty());
        assert_eq!(p.words_per_vec(), 0);
        assert_eq!(p.dot(0, &p, 0), 0);
    }

    #[test]
    fn out_of_range_value_is_rejected() {
        assert!(matches!(
            PackedSliceMatrix::pack(&[128], BitWidth::INT8, SliceWidth::BIT2, Signedness::Signed),
            Err(CoreError::ValueOutOfRange { .. })
        ));
        assert!(matches!(
            PackedSliceMatrix::pack(
                &[-1],
                BitWidth::INT4,
                SliceWidth::BIT2,
                Signedness::Unsigned
            ),
            Err(CoreError::ValueOutOfRange { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "differ in slice width")]
    fn mismatched_slice_widths_panic() {
        let a = PackedSliceMatrix::pack(&[1], BitWidth::INT4, SliceWidth::BIT2, Signedness::Signed)
            .unwrap();
        let b = PackedSliceMatrix::pack(&[1], BitWidth::INT4, SliceWidth::BIT1, Signedness::Signed)
            .unwrap();
        let _ = a.dot(0, &b, 0);
    }

    #[test]
    fn gathered_vectors_do_not_depend_on_the_block_split() {
        // Vector v: four source elements from 7v, a zero, four from 3v + 1.
        let src: Vec<i32> = (0..200).map(|i| (i * 37 % 255) - 128).collect();
        let (num_vecs, len) = (23, 9);
        let gather = |v: usize, row: &mut GatherRow| {
            row.copy(7 * v, 4);
            row.zeros(1);
            row.copy(3 * v + 1, 4);
        };
        let rows: Vec<i32> = (0..num_vecs)
            .flat_map(|v| {
                let (a, b) = (&src[7 * v..7 * v + 4], &src[3 * v + 1..3 * v + 5]);
                a.iter().copied().chain([0]).chain(b.iter().copied())
            })
            .collect();
        let narrow: Vec<u8> = src.iter().map(|&x| x as u8).collect();
        for sw in [
            SliceWidth::BIT1,
            SliceWidth::BIT2,
            SliceWidth::BIT4,
            SliceWidth::BIT8,
        ] {
            let (w, signed) = (BitWidth::INT8, Signedness::Signed);
            let want = PackedSliceMatrix::pack_rows(&rows, num_vecs, len, w, sw, signed).unwrap();
            let got = PackedSliceMatrix::pack_gathered(&src, num_vecs, len, w, sw, signed, gather);
            assert_eq!(got.unwrap(), want, "{sw}");
            for block in [1, 2, 3, 7, num_vecs, 100] {
                let m = PackedSliceMatrix::zeroed(num_vecs, len, w, sw, signed);
                assert_eq!(
                    m.gather_blocks(&narrow, block, &gather),
                    want,
                    "{sw} block {block}"
                );
            }
        }
    }

    #[test]
    fn gathered_errors_name_the_first_element_in_vector_order() {
        // -9 comes first in the source, but vector 0 reads the 9.
        let mut src: Vec<i32> = (0..40).map(|i| i % 7 - 3).collect();
        src[5] = -9;
        src[30] = 9;
        let from_the_end = |v: usize, row: &mut GatherRow| row.copy(30 - 5 * v, 5);
        let pack = |num_vecs, gather: &(dyn Fn(usize, &mut GatherRow) + Sync)| {
            PackedSliceMatrix::pack_gathered(
                &src,
                num_vecs,
                5,
                BitWidth::INT4,
                SliceWidth::BIT2,
                Signedness::Signed,
                gather,
            )
        };
        let err = pack(7, &from_the_end).unwrap_err();
        assert_eq!(
            err,
            CoreError::ValueOutOfRange {
                value: 9,
                bits: 4,
                signed: true
            }
        );
        // No vector reads a value that does not fit: nothing to report.
        let early = |v: usize, row: &mut GatherRow| row.copy(v, 5);
        assert!(pack(1, &early).is_ok());
    }

    #[test]
    #[should_panic(expected = "vector 0 gathered 4 of 5 elements")]
    fn a_short_gather_panics() {
        let _ = PackedSliceMatrix::pack_gathered(
            &[1, 2, 3, 4],
            1,
            5,
            BitWidth::INT4,
            SliceWidth::BIT2,
            Signedness::Signed,
            |_, row| row.copy(0, 4),
        );
    }

    #[test]
    fn byte_len_counts_all_planes() {
        let p = PackedSliceMatrix::pack_rows(
            &[0i32; 64],
            2,
            32,
            BitWidth::INT4,
            SliceWidth::BIT2,
            Signedness::Signed,
        )
        .unwrap();
        // 2 planes x 2 vectors x 1 word (32 2-bit fields) x 8 bytes.
        assert_eq!(p.byte_len(), 2 * 2 * 8);
    }
}
