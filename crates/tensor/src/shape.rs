//! N-dimensional shape and stride algebra.

use crate::error::{Error, Result};
use std::fmt;

/// The shape of an N-D tensor: a list of dimension extents. Deep500-rs
/// tensors are stored contiguously in row-major (C) order; strides are
/// derived, not stored.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Shape from dimension extents. A zero-rank shape denotes a scalar.
    pub fn new(dims: &[usize]) -> Shape {
        Shape {
            dims: dims.to_vec(),
        }
    }

    /// Scalar shape (rank 0, one element).
    pub fn scalar() -> Shape {
        Shape { dims: Vec::new() }
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Dimension extents.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Extent of dimension `i`.
    pub fn dim(&self, i: usize) -> usize {
        self.dims[i]
    }

    /// Total number of elements (1 for scalars; 0 if any extent is 0).
    pub fn numel(&self) -> usize {
        self.dims.iter().product()
    }

    /// Row-major strides (in elements).
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.rank()];
        for i in (0..self.rank().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Linear offset of a multi-index. Errors on rank or bound violations.
    pub fn offset(&self, index: &[usize]) -> Result<usize> {
        if index.len() != self.rank() {
            return Err(Error::ShapeMismatch(format!(
                "index rank {} vs shape rank {}",
                index.len(),
                self.rank()
            )));
        }
        let mut off = 0usize;
        let strides = self.strides();
        for (i, ((&ix, &d), &stride)) in index.iter().zip(&self.dims).zip(&strides).enumerate() {
            if ix >= d {
                return Err(Error::Invalid(format!(
                    "index {ix} out of bounds for dim {i} (extent {d})"
                )));
            }
            off += ix * stride;
        }
        Ok(off)
    }

    /// Reshape to `dims`; element counts must match.
    pub fn reshape(&self, dims: &[usize]) -> Result<Shape> {
        let new = Shape::new(dims);
        if new.numel() != self.numel() {
            return Err(Error::ShapeMismatch(format!(
                "cannot reshape {} ({} elements) to {} ({} elements)",
                self,
                self.numel(),
                new,
                new.numel()
            )));
        }
        Ok(new)
    }

    /// NumPy-style broadcast of two shapes (align trailing dims; extents
    /// must match or one must be 1).
    pub fn broadcast(&self, other: &Shape) -> Result<Shape> {
        let rank = self.rank().max(other.rank());
        let mut dims = vec![0usize; rank];
        for (i, dim) in dims.iter_mut().enumerate() {
            let a = if i < rank - self.rank() {
                1
            } else {
                self.dims[i - (rank - self.rank())]
            };
            let b = if i < rank - other.rank() {
                1
            } else {
                other.dims[i - (rank - other.rank())]
            };
            *dim = if a == b {
                a
            } else if a == 1 {
                b
            } else if b == 1 {
                a
            } else {
                return Err(Error::ShapeMismatch(format!(
                    "cannot broadcast {self} with {other}"
                )));
            };
        }
        Ok(Shape::new(&dims))
    }

    /// Replace the extent of dimension `axis` with `extent`.
    pub fn with_dim(&self, axis: usize, extent: usize) -> Shape {
        let mut dims = self.dims.clone();
        dims[axis] = extent;
        Shape::new(&dims)
    }

    /// Concatenation result shape along `axis` for the given input shapes;
    /// all other dimensions must agree.
    pub fn concat(shapes: &[&Shape], axis: usize) -> Result<Shape> {
        let first = shapes
            .first()
            .ok_or_else(|| Error::Invalid("concat of zero shapes".into()))?;
        if axis >= first.rank() {
            return Err(Error::Invalid(format!(
                "concat axis {axis} out of range for rank {}",
                first.rank()
            )));
        }
        let mut total = 0usize;
        for s in shapes {
            if s.rank() != first.rank() {
                return Err(Error::ShapeMismatch("concat rank mismatch".into()));
            }
            for d in 0..s.rank() {
                if d != axis && s.dim(d) != first.dim(d) {
                    return Err(Error::ShapeMismatch(format!(
                        "concat dim {d} mismatch: {} vs {}",
                        s.dim(d),
                        first.dim(d)
                    )));
                }
            }
            total += s.dim(axis);
        }
        Ok(first.with_dim(axis, total))
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}]",
            self.dims
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("x")
        )
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Shape {
        Shape::new(dims)
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Shape {
        Shape::new(&dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_and_rank() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.rank(), 3);
        assert_eq!(s.numel(), 24);
        assert_eq!(Shape::scalar().numel(), 1);
        assert_eq!(Shape::new(&[2, 0, 3]).numel(), 0);
    }

    #[test]
    fn row_major_strides() {
        assert_eq!(Shape::new(&[2, 3, 4]).strides(), vec![12, 4, 1]);
        assert_eq!(Shape::new(&[5]).strides(), vec![1]);
        assert!(Shape::scalar().strides().is_empty());
    }

    #[test]
    fn offset_and_unravel_roundtrip() {
        // Row-major: the k-th multi-index in lexicographic order sits at
        // linear offset k, so offset and its inverse agree everywhere.
        let s = Shape::new(&[3, 4, 5]);
        let mut lin = 0;
        for i in 0..3 {
            for j in 0..4 {
                for k in 0..5 {
                    assert_eq!(s.offset(&[i, j, k]).unwrap(), lin);
                    lin += 1;
                }
            }
        }
        assert_eq!(lin, s.numel());
    }

    #[test]
    fn offset_bounds_checked() {
        let s = Shape::new(&[2, 2]);
        assert!(s.offset(&[2, 0]).is_err());
        assert!(s.offset(&[0]).is_err());
        assert_eq!(s.offset(&[1, 1]).unwrap(), 3);
    }

    #[test]
    fn reshape_checks_numel() {
        let s = Shape::new(&[2, 6]);
        assert_eq!(s.reshape(&[3, 4]).unwrap(), Shape::new(&[3, 4]));
        assert!(s.reshape(&[5]).is_err());
    }

    #[test]
    fn broadcast_rules() {
        let a = Shape::new(&[4, 1, 3]);
        let b = Shape::new(&[2, 3]);
        assert_eq!(a.broadcast(&b).unwrap(), Shape::new(&[4, 2, 3]));
        assert!(Shape::new(&[2]).broadcast(&Shape::new(&[3])).is_err());
        assert_eq!(
            Shape::scalar().broadcast(&Shape::new(&[5])).unwrap(),
            Shape::new(&[5])
        );
    }

    #[test]
    fn concat_shapes() {
        let a = Shape::new(&[2, 3]);
        let b = Shape::new(&[4, 3]);
        assert_eq!(Shape::concat(&[&a, &b], 0).unwrap(), Shape::new(&[6, 3]));
        assert!(Shape::concat(&[&a, &b], 1).is_err());
        assert!(Shape::concat(&[], 0).is_err());
        assert!(Shape::concat(&[&a], 5).is_err());
    }

    #[test]
    fn display_and_from() {
        let s: Shape = [2, 3].into();
        assert_eq!(format!("{s}"), "[2x3]");
        assert_eq!(s.with_dim(0, 9), Shape::new(&[9, 3]));
    }
}
