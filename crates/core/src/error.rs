//! Error type for the functional model.

use std::error::Error;
use std::fmt;

use crate::SliceWidth;

/// Errors produced by the bit-slicing algebra and the CVU functional model.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoreError {
    /// A bitwidth outside the supported `1..=8` range was requested.
    InvalidBitWidth {
        /// The rejected bitwidth.
        bits: u32,
    },
    /// A slice width that is not one of `1, 2, 4, 8` was requested.
    InvalidSliceWidth {
        /// The rejected slice width.
        bits: u32,
    },
    /// A value does not fit in the declared bitwidth/signedness.
    ValueOutOfRange {
        /// The offending value.
        value: i32,
        /// The declared bitwidth.
        bits: u32,
        /// Whether the declared range was signed.
        signed: bool,
    },
    /// The two vectors of a dot product have different lengths.
    LengthMismatch {
        /// Length of the first operand vector.
        left: usize,
        /// Length of the second operand vector.
        right: usize,
    },
    /// The requested operand bitwidths need more NBVEs than the CVU has.
    CompositionTooLarge {
        /// NBVEs required for one cluster.
        required: usize,
        /// NBVEs available in the CVU.
        available: usize,
    },
    /// The adder tree or accumulator would overflow its configured width.
    AccumulatorOverflow {
        /// Bits required by the worst-case value.
        required_bits: u32,
        /// Bits provided by the hardware.
        provided_bits: u32,
    },
    /// Operands packed at one slicing were given to CVUs that slice at
    /// another.
    SliceWidthMismatch {
        /// The slicing the operands were packed at.
        packed: SliceWidth,
        /// The slicing of the array's CVUs.
        array: SliceWidth,
    },
    /// A layer was given an input of another shape than the one it
    /// declares: the layer stack does not chain.
    LayerShapeMismatch {
        /// The layer's name.
        layer: String,
        /// The input shape the layer declares.
        expected: Vec<usize>,
        /// The shape of the input it was given.
        found: Vec<usize>,
    },
    /// A layer the bit-true executor does not run.
    UnsupportedLayer {
        /// The layer's name.
        layer: String,
        /// Why it cannot run.
        reason: &'static str,
    },
    /// A width string (`"int4"`, `"2b"`, …) could not be parsed.
    ParseWidth {
        /// What was being parsed ("bitwidth" or "slice width").
        what: &'static str,
        /// The rejected input.
        input: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidBitWidth { bits } => {
                write!(f, "bitwidth {bits} is outside the supported range 1..=8")
            }
            CoreError::InvalidSliceWidth { bits } => {
                write!(f, "slice width {bits} is not one of 1, 2, 4, 8")
            }
            CoreError::ValueOutOfRange {
                value,
                bits,
                signed,
            } => {
                let kind = if *signed { "signed" } else { "unsigned" };
                write!(f, "value {value} does not fit in {bits}-bit {kind} range")
            }
            CoreError::LengthMismatch { left, right } => {
                write!(
                    f,
                    "dot-product operands differ in length: {left} vs {right}"
                )
            }
            CoreError::CompositionTooLarge {
                required,
                available,
            } => write!(
                f,
                "composition needs {required} NBVEs per cluster but the CVU has {available}"
            ),
            CoreError::AccumulatorOverflow {
                required_bits,
                provided_bits,
            } => write!(
                f,
                "accumulation needs {required_bits} bits but hardware provides {provided_bits}"
            ),
            CoreError::SliceWidthMismatch { packed, array } => write!(
                f,
                "operands packed in {}-bit slices cannot run on CVUs that slice {} bits",
                packed.bits(),
                array.bits()
            ),
            CoreError::LayerShapeMismatch {
                layer,
                expected,
                found,
            } => write!(
                f,
                "layer {layer} expects an input of shape {expected:?} but was given {found:?}"
            ),
            CoreError::UnsupportedLayer { layer, reason } => {
                write!(f, "layer {layer} cannot run bit-true: {reason}")
            }
            CoreError::ParseWidth { what, input } => {
                write!(f, "cannot parse `{input}` as a {what}")
            }
        }
    }
}

impl Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_unpunctuated() {
        let errs = [
            CoreError::InvalidBitWidth { bits: 9 },
            CoreError::InvalidSliceWidth { bits: 3 },
            CoreError::ValueOutOfRange {
                value: 300,
                bits: 8,
                signed: true,
            },
            CoreError::LengthMismatch { left: 3, right: 4 },
            CoreError::CompositionTooLarge {
                required: 32,
                available: 16,
            },
            CoreError::AccumulatorOverflow {
                required_bits: 70,
                provided_bits: 64,
            },
            CoreError::SliceWidthMismatch {
                packed: SliceWidth::BIT2,
                array: SliceWidth::BIT4,
            },
            CoreError::LayerShapeMismatch {
                layer: "conv2".into(),
                expected: vec![64, 27, 27],
                found: vec![128, 27, 27],
            },
            CoreError::UnsupportedLayer {
                layer: "qk".into(),
                reason: "decode-shaped attention needs a KV cache",
            },
        ];
        for e in errs {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(!s.ends_with('.'), "no trailing punctuation: {s}");
            assert!(s.chars().next().unwrap().is_lowercase(), "lowercase: {s}");
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
