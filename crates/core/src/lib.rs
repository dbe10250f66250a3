//! # `bpvec-core` — bit-parallel vector composability, functionally modeled
//!
//! This crate implements the primary contribution of *"Bit-Parallel Vector
//! Composability for Neural Acceleration"* (Ghodrati et al., DAC 2020) as an
//! exact, bit-true functional model:
//!
//! * [`bitslice`] — the bit-slicing algebra of §II (Equations 1–4): a value is
//!   decomposed into narrow slices weighted by powers of two; a wide
//!   dot-product becomes a shift-add combination of narrow dot-products.
//! * [`nbve`] — the **Narrow-Bitwidth Vector Engine**: `L` narrow multipliers
//!   feeding a private adder tree, producing the dot-product of two bit-sliced
//!   sub-vectors (Figure 3a).
//! * [`compose`] — the composition calculus: how many NBVEs form a cluster for
//!   operand bitwidths `(bx, bw)`, how many clusters run in parallel, and which
//!   shift each NBVE's output receives.
//! * [`cvu`] — the **Composable Vector Unit**: 16 NBVEs dynamically composed
//!   (homogeneous 8-bit mode) or decomposed into clusters (heterogeneous
//!   quantized mode), Figure 3b/3c.
//! * [`dotprod`] — reference implementations of Equations 1–4 used to verify
//!   every hardware path against exact integer arithmetic.
//! * [`packed`] — the packed bit-plane operand layout
//!   ([`PackedSliceMatrix`]): whole vectors decomposed once into contiguous
//!   per-significance slice planes reduced by word-level popcount kernels —
//!   the *fast* realization of slice clustering that makes bit-true
//!   execution of full Table I networks practical.
//! * [`kernels`] — the runtime-dispatched realizations of those kernels:
//!   a `OnceLock`-cached dispatch table ([`kernels::active_tier`]) picks
//!   AVX-512 `vpopcntq` or AVX2 vpshufb-popcount lanes when the CPU has
//!   them, with the portable scalar popcount/SWAR kernel as the
//!   always-correct fallback (`BPVEC_KERNEL=scalar` forces it). Every
//!   tier is bit-identical — property-pinned against `dot_exact` for all
//!   width × slicing × signedness combinations.
//!
//! The model is *exact*: every CVU execution is checked (in tests) against a
//! plain `i64` dot product, for signed and unsigned operands of any supported
//! bitwidth, so the simulator built on top of this crate never silently
//! diverges from real arithmetic.
//!
//! ## Example
//!
//! ```
//! # fn main() -> Result<(), bpvec_core::CoreError> {
//! use bpvec_core::{BitWidth, Cvu, CvuConfig, Signedness};
//!
//! // The paper's design point: 16 NBVEs x (L = 16) 2b x 2b multipliers.
//! let cvu = Cvu::new(CvuConfig::paper_default());
//!
//! // Homogeneous 8-bit mode: all 16 NBVEs cooperate on one dot-product.
//! let xs: Vec<i32> = (0..16).map(|i| i * 3 - 20).collect();
//! let ws: Vec<i32> = (0..16).map(|i| 7 - i).collect();
//! let out = cvu.dot_product(&xs, &ws, BitWidth::INT8, BitWidth::INT8, Signedness::Signed)?;
//! let exact: i64 = xs.iter().zip(&ws).map(|(&x, &w)| (x as i64) * (w as i64)).sum();
//! assert_eq!(out.value, exact);
//! assert_eq!(out.cycles, 1);
//!
//! // Heterogeneous mode (8b x 2b): four clusters run in parallel, so the same
//! // hardware covers a 4x longer vector per cycle.
//! let xs: Vec<i32> = (0..64).map(|i| i - 32).collect();
//! let ws: Vec<i32> = (0..64).map(|i| (i % 4) - 2).collect();
//! let out = cvu.dot_product(&xs, &ws, BitWidth::INT8, BitWidth::new(2)?, Signedness::Signed)?;
//! assert_eq!(out.cycles, 1);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod bitserial;
pub mod bitslice;
pub mod compose;
pub mod cvu;
pub mod dotprod;
pub mod error;
pub mod kernels;
pub mod nbve;
pub mod packed;
pub mod stats;

pub use bitserial::{BitSerialEngine, BitSerialOutput, SerialMode};
pub use bitslice::{BitWidth, Signedness, Slice, SliceWidth, SlicedValue};
pub use compose::Composition;
pub use cvu::{Cvu, CvuConfig, DotProductOutput};
pub use error::CoreError;
pub use kernels::KernelTier;
pub use nbve::{slice_dot_words, slice_dot_words_with, AdderTreeReport, Nbve, NbveOutput};
pub use packed::{par_grain, GatherRow, PackedSliceMatrix, PreparedCols, PAR_MIN_ELEMS};
pub use stats::ExecutionStats;
