//! Tensor descriptors.
//!
//! Deep500 "uses its own descriptors for tensors and devices to enable
//! interoperability with frameworks and platforms" (§IV-B). A
//! [`TensorDesc`] describes element type and shape — enough for any
//! backend to allocate and exchange buffers; native-operator wrappers check
//! their inputs against it. [`DataType`] is also the element type the
//! verifier's dtype pass infers.

use crate::shape::Shape;

/// Element data types. The compute substrate stores `f32`; the descriptor
/// nevertheless models the paper's richer type set (it "extends the types
/// given in ONNX", including sub-byte bitsets) so formats and frameworks can
/// negotiate representations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DataType {
    #[default]
    Float32,
    Float64,
    Float16,
    Int8,
    Int32,
    Int64,
    Uint8,
    Bool,
    /// Packed bitset (1 bit/element) — used by compressed-communication
    /// schemes such as sign-SGD style quantization.
    Bitset,
}

impl DataType {
    /// Size of one element in *bits* (bitsets are sub-byte).
    pub fn bits(&self) -> usize {
        match self {
            DataType::Float64 | DataType::Int64 => 64,
            DataType::Float32 | DataType::Int32 => 32,
            DataType::Float16 => 16,
            DataType::Int8 | DataType::Uint8 | DataType::Bool => 8,
            DataType::Bitset => 1,
        }
    }

    /// Bytes needed for `n` elements (rounding bit-packed types up).
    pub fn bytes_for(&self, n: usize) -> usize {
        (n * self.bits()).div_ceil(8)
    }
}

/// Description of a tensor: type and shape. ABI-stable by design in the
/// paper (C-compatible); here a plain value type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TensorDesc {
    pub dtype: DataType,
    pub shape: Shape,
}

impl TensorDesc {
    /// `f32` descriptor of the given shape — the common case.
    pub fn f32(shape: impl Into<Shape>) -> TensorDesc {
        TensorDesc {
            dtype: DataType::Float32,
            shape: shape.into(),
        }
    }

    /// Total elements.
    pub fn numel(&self) -> usize {
        self.shape.numel()
    }

    /// Total bytes of a buffer with this descriptor.
    pub fn size_bytes(&self) -> usize {
        self.dtype.bytes_for(self.numel())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtype_sizes() {
        assert_eq!(DataType::Float32.bits(), 32);
        assert_eq!(DataType::Float32.bytes_for(3), 12);
        assert_eq!(DataType::Bitset.bytes_for(9), 2); // 9 bits -> 2 bytes
        assert_eq!(DataType::Bitset.bytes_for(8), 1);
        assert_eq!(DataType::Float16.bytes_for(5), 10);
    }

    #[test]
    fn tensor_desc_bytes() {
        let d = TensorDesc::f32([2, 3, 4]);
        assert_eq!(d.numel(), 24);
        assert_eq!(d.size_bytes(), 96);
    }
}
