//! A minimal integer tensor for quantized inference.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense, row-major tensor of `i32` elements (quantized values are stored
/// widened to `i32`; their declared bitwidth lives in the layer metadata).
///
/// ```
/// use bpvec_dnn::Tensor;
/// let t = Tensor::from_fn(&[2, 3], |idx| (idx[0] * 3 + idx[1]) as i32);
/// assert_eq!(t.shape(), &[2, 3]);
/// assert_eq!(t[&[1, 2]], 5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<i32>,
}

impl Tensor {
    /// Creates a zero-filled tensor of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if the shape has a zero dimension product overflow (more than
    /// `usize::MAX` elements).
    #[must_use]
    pub fn zeros(shape: &[usize]) -> Self {
        let len = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: vec![0; len],
        }
    }

    /// Creates a tensor from existing data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the shape's element count.
    #[must_use]
    pub fn from_data(shape: &[usize], data: Vec<i32>) -> Self {
        let expect: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            expect,
            "data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Builds a tensor by evaluating `f` at every index.
    #[must_use]
    pub fn from_fn(shape: &[usize], mut f: impl FnMut(&[usize]) -> i32) -> Self {
        let len: usize = shape.iter().product();
        let mut idx = vec![0usize; shape.len()];
        let mut data = Vec::with_capacity(len);
        for _ in 0..len {
            data.push(f(&idx));
            for d in (0..shape.len()).rev() {
                idx[d] += 1;
                if idx[d] < shape[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// The tensor's shape.
    #[must_use]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the tensor has no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The flat data slice (row-major).
    #[must_use]
    pub fn as_slice(&self) -> &[i32] {
        &self.data
    }

    /// Mutable flat data slice.
    #[must_use]
    pub fn as_mut_slice(&mut self) -> &mut [i32] {
        &mut self.data
    }

    /// Converts a multi-dimensional index to the flat offset.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is out of bounds.
    #[must_use]
    pub fn offset(&self, index: &[usize]) -> usize {
        assert_eq!(index.len(), self.shape.len(), "index rank mismatch");
        let mut off = 0usize;
        for (d, (&i, &s)) in index.iter().zip(&self.shape).enumerate() {
            assert!(i < s, "index {i} out of bounds for dim {d} (size {s})");
            off = off * s + i;
        }
        off
    }

    /// Reshapes in place (element count must match).
    ///
    /// # Panics
    ///
    /// Panics if the new shape's element count differs.
    pub fn reshape(&mut self, shape: &[usize]) {
        let expect: usize = shape.iter().product();
        assert_eq!(expect, self.data.len(), "reshape changes element count");
        self.shape = shape.to_vec();
    }

    /// Maximum absolute value (0 for an empty tensor), as `u32` so that
    /// `i32::MIN`'s magnitude, 2^31, fits.
    #[must_use]
    pub fn max_abs(&self) -> u32 {
        self.data
            .iter()
            .map(|v| v.unsigned_abs())
            .max()
            .unwrap_or(0)
    }

    /// Packs this tensor's rows (dim 0 × flattened rest) into bit planes —
    /// see [`crate::packing::pack_gemm_rows`].
    ///
    /// # Errors
    ///
    /// Returns [`bpvec_core::CoreError::ValueOutOfRange`] if an element does
    /// not fit the declared width.
    pub fn pack_rows(
        &self,
        bits: bpvec_core::BitWidth,
        slice_width: bpvec_core::SliceWidth,
        signedness: bpvec_core::Signedness,
    ) -> Result<bpvec_core::PackedSliceMatrix, bpvec_core::CoreError> {
        crate::packing::pack_gemm_rows(self, bits, slice_width, signedness)
    }

    /// Packs this `[k, n]` matrix's columns into bit planes — see
    /// [`crate::packing::pack_gemm_cols`].
    ///
    /// # Errors
    ///
    /// Returns [`bpvec_core::CoreError::ValueOutOfRange`] if an element does
    /// not fit the declared width.
    pub fn pack_cols(
        &self,
        bits: bpvec_core::BitWidth,
        slice_width: bpvec_core::SliceWidth,
        signedness: bpvec_core::Signedness,
    ) -> Result<bpvec_core::PackedSliceMatrix, bpvec_core::CoreError> {
        crate::packing::pack_gemm_cols(self, bits, slice_width, signedness)
    }
}

impl std::ops::Index<&[usize]> for Tensor {
    type Output = i32;

    fn index(&self, index: &[usize]) -> &i32 {
        &self.data[self.offset(index)]
    }
}

impl std::ops::IndexMut<&[usize]> for Tensor {
    fn index_mut(&mut self, index: &[usize]) -> &mut i32 {
        let off = self.offset(index);
        &mut self.data[off]
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}[{} elements]", self.shape, self.data.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_len() {
        let t = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(t.len(), 24);
        assert!(!t.is_empty());
        assert!(t.as_slice().iter().all(|&v| v == 0));
    }

    #[test]
    fn from_fn_row_major_order() {
        let t = Tensor::from_fn(&[2, 2], |i| (i[0] * 10 + i[1]) as i32);
        assert_eq!(t.as_slice(), &[0, 1, 10, 11]);
    }

    #[test]
    fn indexing_round_trips() {
        let mut t = Tensor::zeros(&[3, 4, 5]);
        t[&[2, 3, 4]] = 42;
        assert_eq!(t[&[2, 3, 4]], 42);
        assert_eq!(t.offset(&[2, 3, 4]), t.len() - 1);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        let t = Tensor::zeros(&[2, 2]);
        let _ = t[&[2, 0]];
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_data_length_mismatch_panics() {
        let _ = Tensor::from_data(&[2, 2], vec![1, 2, 3]);
    }

    #[test]
    fn reshape_preserves_data() {
        let mut t = Tensor::from_data(&[2, 3], vec![1, 2, 3, 4, 5, 6]);
        t.reshape(&[3, 2]);
        assert_eq!(t[&[2, 1]], 6);
    }

    #[test]
    fn max_abs_handles_negatives_and_empty() {
        let t = Tensor::from_data(&[3], vec![-7, 3, 5]);
        assert_eq!(t.max_abs(), 7);
        assert_eq!(Tensor::zeros(&[0]).max_abs(), 0);
        let t = Tensor::from_data(&[3], vec![i32::MAX, i32::MIN, 0]);
        assert_eq!(t.max_abs(), 1 << 31);
    }
}
