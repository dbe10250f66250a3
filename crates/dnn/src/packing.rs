//! Bit-packing of sub-byte quantized tensors.
//!
//! The execution-layout entry points ([`pack_gemm_rows`] /
//! [`pack_gemm_cols`]) decompose tensors straight into
//! [`bpvec_core::PackedSliceMatrix`] bit planes, the operand form the
//! bit-true GEMM path consumes.

use bpvec_core::{BitWidth, CoreError, PackedSliceMatrix, Signedness, SliceWidth};

use crate::tensor::Tensor;

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
}
