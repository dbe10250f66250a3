//! # `bpvec-dnn` — quantized DNN workloads and reference inference
//!
//! The paper evaluates six deep networks (Table I): AlexNet, Inception-v1,
//! ResNet-18, ResNet-50, an RNN and an LSTM. This crate provides:
//!
//! * [`tensor`] — a small integer tensor type (quantized inference operates
//!   on integers end-to-end);
//! * [`quant`] — symmetric linear quantization to arbitrary bitwidths
//!   (1..=8), the transformation that produces the heterogeneous-bitwidth
//!   workloads of Table I;
//! * [`packing`] — tensors packed into the bit-plane operand layout the
//!   bit-true GEMMs consume;
//! * [`layer`] — layer descriptors (convolution, fully-connected, pooling,
//!   recurrent cells) exposing the shape arithmetic every experiment needs:
//!   multiply-accumulate counts, parameter/activation footprints;
//! * [`models`] — faithful architecture descriptions of the six networks
//!   with the paper's per-layer bitwidth assignments;
//! * [`precision`] — [`PrecisionPolicy`]: per-layer precision as a
//!   first-class dimension (presets, uniform `(bx, bw)` policies, explicit
//!   per-layer assignments, and the sweep generator behind precision
//!   experiments);
//! * [`reference`](mod@crate::reference) — exact integer reference implementations (conv2d, GEMM,
//!   recurrent cells) used to validate the CVU functional model end-to-end.
//!
//! Trained weights are not required: performance and energy depend only on
//! layer shapes, bitwidths and data volumes (see DESIGN.md §2), and
//! correctness is established against exact integer arithmetic with
//! synthetic weights.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod layer;
pub mod models;
pub mod packing;
pub mod precision;
pub mod quant;
pub mod reference;
pub mod tensor;

pub use layer::{Layer, LayerKind};
pub use models::{transformer_block, BitwidthPolicy, ModelQueryError, Network, NetworkId};
pub use precision::{
    DegradationLadder, LadderError, LayerPrecision, PrecisionError, PrecisionPolicy,
};
pub use quant::QuantParams;
pub use tensor::Tensor;
