//! Bit-packing of sub-byte quantized tensors.
//!
//! Every data-volume number in the evaluation (Table I footprints, DRAM
//! traffic, scratchpad tiles) assumes sub-byte values are stored *packed* —
//! e.g. four 2-bit weights per byte. This module implements that packed
//! memory format ([`PackedTensor`]: little-endian bit order within bytes,
//! two's-complement fields, exact round-tripping for every supported width)
//! plus the *execution-layout* entry points ([`pack_gemm_rows`] /
//! [`pack_gemm_cols`]): tensors decomposed straight into
//! [`bpvec_core::PackedSliceMatrix`] bit planes, the operand form the
//! bit-true GEMM path consumes.

use bpvec_core::{BitWidth, CoreError, PackedSliceMatrix, Signedness, SliceWidth};

use crate::quant::QuantParams;
use crate::tensor::Tensor;

/// A bit-packed buffer of quantized values.
///
/// ```
/// use bpvec_core::{BitWidth, Signedness};
/// use bpvec_dnn::packing::PackedTensor;
/// let vals = [-2i32, 1, 0, -1, 1];
/// let packed = PackedTensor::pack(&vals, BitWidth::INT2, Signedness::Signed)?;
/// assert_eq!(packed.byte_len(), 2); // 10 bits -> 2 bytes
/// assert_eq!(packed.unpack(), vals);
/// # Ok::<(), bpvec_core::CoreError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedTensor {
    data: Vec<u8>,
    len: usize,
    bits: BitWidth,
    signedness: Signedness,
}

impl PackedTensor {
    /// Packs `values` at `bits` per element.
    ///
    /// # Errors
    ///
    /// Returns [`bpvec_core::CoreError::ValueOutOfRange`] if any value does
    /// not fit the declared width/signedness.
    pub fn pack(
        values: &[i32],
        bits: BitWidth,
        signedness: Signedness,
    ) -> Result<Self, bpvec_core::CoreError> {
        let b = bits.bits();
        let total_bits = values.len() * b as usize;
        let mut data = vec![0u8; total_bits.div_ceil(8)];
        let mask = (1u32 << b) - 1;
        for (i, &v) in values.iter().enumerate() {
            bits.check(v, signedness)?;
            let field = (v as u32) & mask;
            let bit_pos = i * b as usize;
            let (byte, offset) = (bit_pos / 8, bit_pos % 8);
            data[byte] |= (field << offset) as u8;
            if offset + b as usize > 8 {
                data[byte + 1] |= (field >> (8 - offset)) as u8;
            }
        }
        Ok(PackedTensor {
            data,
            len: values.len(),
            bits,
            signedness,
        })
    }

    /// Number of packed elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no elements are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Packed size in bytes — the footprint the traffic models charge.
    #[must_use]
    pub fn byte_len(&self) -> usize {
        self.data.len()
    }

    /// The declared element width.
    #[must_use]
    pub fn bits(&self) -> BitWidth {
        self.bits
    }

    /// The raw packed bytes.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.data
    }

    /// Extracts element `i` without unpacking the rest.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[must_use]
    pub fn get(&self, i: usize) -> i32 {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        let b = self.bits.bits() as usize;
        let bit_pos = i * b;
        let (byte, offset) = (bit_pos / 8, bit_pos % 8);
        let mut field = u32::from(self.data[byte]) >> offset;
        if offset + b > 8 {
            field |= u32::from(self.data[byte + 1]) << (8 - offset);
        }
        field &= (1u32 << b) - 1;
        match self.signedness {
            Signedness::Unsigned => field as i32,
            Signedness::Signed => {
                let sign = 1u32 << (b - 1);
                if field & sign != 0 {
                    (field as i32) - (1i32 << b)
                } else {
                    field as i32
                }
            }
        }
    }

    /// Unpacks all elements.
    #[must_use]
    pub fn unpack(&self) -> Vec<i32> {
        (0..self.len).map(|i| self.get(i)).collect()
    }

    /// Dequantizes element `i` with `params`.
    #[must_use]
    pub fn dequantize(&self, i: usize, params: &QuantParams) -> f32 {
        params.dequantize(self.get(i))
    }
}

/// Packs a tensor's *rows* into slice planes: dimension 0 indexes vectors,
/// all remaining dimensions flatten into the vector length. This is the
/// weight-side entry point — an OIHW convolution kernel `[oc, ic, kh, kw]`
/// packs directly as `oc` im2col rows of length `ic·kh·kw`, a dense matrix
/// `[out, in]` as `out` rows of length `in` — with no transpose or clone.
///
/// ```
/// use bpvec_core::{BitWidth, Signedness, SliceWidth};
/// use bpvec_dnn::{packing::pack_gemm_rows, Tensor};
/// let w = Tensor::from_fn(&[4, 2, 3, 3], |i| (i[0] as i32) - 2);
/// let p = pack_gemm_rows(&w, BitWidth::INT4, SliceWidth::BIT2, Signedness::Signed)?;
/// assert_eq!((p.num_vecs(), p.len()), (4, 18));
/// # Ok::<(), bpvec_core::CoreError>(())
/// ```
///
/// # Errors
///
/// Returns [`CoreError::ValueOutOfRange`] on the first element that does
/// not fit the declared `bits`/`signedness`.
///
/// # Panics
///
/// Panics if the tensor is rank 0.
pub fn pack_gemm_rows(
    t: &Tensor,
    bits: BitWidth,
    slice_width: SliceWidth,
    signedness: Signedness,
) -> Result<PackedSliceMatrix, CoreError> {
    let shape = t.shape();
    assert!(!shape.is_empty(), "cannot pack a rank-0 tensor by rows");
    let rows = shape[0];
    let len = t.len().checked_div(rows).unwrap_or(0);
    PackedSliceMatrix::pack_rows(t.as_slice(), rows, len, bits, slice_width, signedness)
}

/// Packs a `[k, n]` matrix's *columns* into slice planes: one packed vector
/// per column, via [`PackedSliceMatrix::pack_cols`] (a small block of
/// columns transposed at a time, so the matrix is read row by row). This
/// is the activation-side entry point — an im2col matrix `[ic·kh·kw, oh·ow]`
/// packs as `oh·ow` patch vectors, a GEMV input `[k, 1]` as a single vector.
///
/// # Errors
///
/// Returns [`CoreError::ValueOutOfRange`] on the first element that does
/// not fit the declared `bits`/`signedness`.
///
/// # Panics
///
/// Panics unless the tensor is rank 2.
pub fn pack_gemm_cols(
    t: &Tensor,
    bits: BitWidth,
    slice_width: SliceWidth,
    signedness: Signedness,
) -> Result<PackedSliceMatrix, CoreError> {
    let shape = t.shape();
    assert_eq!(shape.len(), 2, "column packing needs a [k, n] matrix");
    PackedSliceMatrix::pack_cols(
        t.as_slice(),
        shape[0],
        shape[1],
        bits,
        slice_width,
        signedness,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn two_bit_packing_is_4x_denser_than_bytes() {
        let vals: Vec<i32> = (0..64).map(|i| (i % 4) - 2).collect();
        let p = PackedTensor::pack(&vals, BitWidth::INT2, Signedness::Signed).unwrap();
        assert_eq!(p.byte_len(), 16);
        assert_eq!(p.unpack(), vals);
    }

    #[test]
    fn odd_widths_straddle_byte_boundaries_correctly() {
        // 3-bit fields cross byte boundaries at every third element.
        let vals: Vec<i32> = (0..20).map(|i| (i % 8) - 4).collect();
        let p = PackedTensor::pack(&vals, BitWidth::new(3).unwrap(), Signedness::Signed).unwrap();
        assert_eq!(p.byte_len(), (20 * 3usize).div_ceil(8));
        assert_eq!(p.unpack(), vals);
        assert_eq!(p.get(7), vals[7]);
    }

    #[test]
    fn eight_bit_packing_is_identity_bytes() {
        let vals = vec![-128, -1, 0, 127];
        let p = PackedTensor::pack(&vals, BitWidth::INT8, Signedness::Signed).unwrap();
        assert_eq!(p.byte_len(), 4);
        assert_eq!(p.as_bytes(), &[0x80, 0xff, 0x00, 0x7f]);
    }

    #[test]
    fn out_of_range_value_is_rejected() {
        assert!(PackedTensor::pack(&[4], BitWidth::INT2, Signedness::Signed).is_err());
    }

    #[test]
    fn empty_tensor_packs_to_nothing() {
        let p = PackedTensor::pack(&[], BitWidth::INT4, Signedness::Signed).unwrap();
        assert!(p.is_empty());
        assert_eq!(p.byte_len(), 0);
        assert_eq!(p.unpack(), Vec::<i32>::new());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_past_the_end_panics() {
        let p = PackedTensor::pack(&[1], BitWidth::INT4, Signedness::Signed).unwrap();
        let _ = p.get(1);
    }

    #[test]
    fn gemm_rows_flatten_trailing_dims() {
        // A [2, 2, 3] tensor packs as 2 rows of 6.
        let t = Tensor::from_fn(&[2, 2, 3], |i| (i[0] * 6 + i[1] * 3 + i[2]) as i32 - 6);
        let p = pack_gemm_rows(&t, BitWidth::INT4, SliceWidth::BIT2, Signedness::Signed).unwrap();
        assert_eq!((p.num_vecs(), p.len()), (2, 6));
        for r in 0..2 {
            for e in 0..6 {
                assert_eq!(p.get(r, e), t.as_slice()[r * 6 + e]);
            }
        }
    }

    #[test]
    fn gemm_cols_gather_without_transpose() {
        let t = Tensor::from_fn(&[3, 4], |i| (i[0] * 4 + i[1]) as i32 - 6);
        let p = pack_gemm_cols(&t, BitWidth::INT4, SliceWidth::BIT2, Signedness::Signed).unwrap();
        assert_eq!((p.num_vecs(), p.len()), (4, 3));
        for col in 0..4 {
            for e in 0..3 {
                assert_eq!(p.get(col, e), t[&[e, col]], "col {col} elem {e}");
            }
        }
    }

    #[test]
    fn tensor_methods_delegate() {
        let t = Tensor::from_fn(&[2, 5], |i| (i[0] + i[1]) as i32);
        let rows = t
            .pack_rows(BitWidth::INT4, SliceWidth::BIT2, Signedness::Signed)
            .unwrap();
        assert_eq!(
            rows,
            pack_gemm_rows(&t, BitWidth::INT4, SliceWidth::BIT2, Signedness::Signed).unwrap()
        );
        let cols = t
            .pack_cols(BitWidth::INT4, SliceWidth::BIT2, Signedness::Signed)
            .unwrap();
        assert_eq!(cols.num_vecs(), 5);
    }

    #[test]
    fn gemm_packing_rejects_out_of_range() {
        let t = Tensor::from_data(&[1, 1], vec![9]);
        assert!(pack_gemm_rows(&t, BitWidth::INT2, SliceWidth::BIT2, Signedness::Signed).is_err());
        assert!(pack_gemm_cols(&t, BitWidth::INT2, SliceWidth::BIT2, Signedness::Signed).is_err());
    }

    proptest! {
        /// Pack/unpack round-trips exactly for every width and signedness.
        #[test]
        fn pack_roundtrip(
            bits in 1u32..=8,
            signed in proptest::bool::ANY,
            seed in proptest::num::u64::ANY,
        ) {
            use rand::{Rng, SeedableRng};
            let bw = BitWidth::new(bits).unwrap();
            let s = if signed { Signedness::Signed } else { Signedness::Unsigned };
            let (lo, hi) = bw.range(s);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let n = rng.gen_range(0..200);
            let vals: Vec<i32> = (0..n).map(|_| rng.gen_range(lo..=hi)).collect();
            let p = PackedTensor::pack(&vals, bw, s).unwrap();
            prop_assert_eq!(p.unpack(), vals);
            prop_assert_eq!(p.byte_len(), (n * bits as usize).div_ceil(8));
        }
    }
}
