//! The dense `f32` tensor.
//!
//! All DNN buffers in Deep500-rs are contiguous row-major `f32` tensors
//! (the paper's evaluation uses 32-bit floats throughout). Heavy kernels
//! (GEMM, convolution) live in `deep500-ops`; this type supplies storage,
//! elementwise arithmetic, reductions, and batch-axis manipulation
//! (slice/concat) needed by samplers and graph transformations.

use crate::error::{Error, Result};
use crate::rng::Xoshiro256StarStar;
use crate::shape::Shape;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-global source of content-version stamps. Never repeats, so two
/// tensors carry the same [`Tensor::version`] only when one was cloned
/// from the other and neither has been mutated since — i.e. equal versions
/// imply bitwise-equal contents. Buffer-pool recycling cannot forge a
/// collision: a recycled allocation is a new construction and gets a
/// fresh stamp regardless of its address.
static NEXT_VERSION: AtomicU64 = AtomicU64::new(1);

fn next_version() -> u64 {
    NEXT_VERSION.fetch_add(1, Ordering::Relaxed)
}

/// An owned, contiguous, row-major tensor of `f32`.
#[derive(Debug)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
    version: u64,
}

impl PartialEq for Tensor {
    fn eq(&self, other: &Tensor) -> bool {
        // Value equality only — the version stamp is cache-identity
        // metadata, not part of the tensor's value.
        self.shape == other.shape && self.data == other.data
    }
}

impl Clone for Tensor {
    fn clone(&self) -> Tensor {
        // Pool-aware: inside a `with_pool` scope the copy reuses a retired
        // buffer instead of allocating (executors clone activations and
        // gradients on every pass). The clone keeps the source's version:
        // its contents are identical until one of the two is mutated, and
        // mutation re-stamps — so weight caches keyed on the version hit
        // across executor parameter snapshots.
        Tensor {
            shape: self.shape.clone(),
            data: crate::pool::alloc_copy(&self.data),
            version: self.version,
        }
    }
}

impl Tensor {
    /// Tensor of zeros. Inside a [`crate::pool::with_pool`] scope the
    /// buffer is recycled from the active pool.
    pub fn zeros(shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        let n = shape.numel();
        Tensor {
            shape,
            data: crate::pool::alloc_zeroed(n),
            version: next_version(),
        }
    }

    /// Tensor of ones.
    pub fn ones(shape: impl Into<Shape>) -> Tensor {
        Tensor::full(shape, 1.0)
    }

    /// Tensor filled with `value`. Pool-aware like [`Tensor::zeros`].
    pub fn full(shape: impl Into<Shape>, value: f32) -> Tensor {
        let shape = shape.into();
        let n = shape.numel();
        let mut data = crate::pool::alloc_zeroed(n);
        if value != 0.0 {
            data.fill(value);
        }
        Tensor {
            shape,
            data,
            version: next_version(),
        }
    }

    /// Tensor from an existing buffer; length must match the shape.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Result<Tensor> {
        let shape = shape.into();
        if data.len() != shape.numel() {
            return Err(Error::ShapeMismatch(format!(
                "buffer of {} elements vs shape {} ({} elements)",
                data.len(),
                shape,
                shape.numel()
            )));
        }
        Ok(Tensor {
            shape,
            data,
            version: next_version(),
        })
    }

    /// Rank-1 tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Tensor {
        Tensor {
            shape: Shape::new(&[data.len()]),
            data: data.to_vec(),
            version: next_version(),
        }
    }

    /// Scalar (rank-0) tensor.
    pub fn scalar(value: f32) -> Tensor {
        Tensor {
            shape: Shape::scalar(),
            data: vec![value],
            version: next_version(),
        }
    }

    /// Uniform random tensor in `[lo, hi)`.
    pub fn rand_uniform(
        shape: impl Into<Shape>,
        lo: f32,
        hi: f32,
        rng: &mut Xoshiro256StarStar,
    ) -> Tensor {
        let mut t = Tensor::zeros(shape);
        rng.fill_uniform(&mut t.data, lo, hi);
        t.version = next_version();
        t
    }

    /// Normal random tensor `N(mean, stddev^2)`.
    pub fn rand_normal(
        shape: impl Into<Shape>,
        mean: f32,
        stddev: f32,
        rng: &mut Xoshiro256StarStar,
    ) -> Tensor {
        let mut t = Tensor::zeros(shape);
        rng.fill_normal(&mut t.data, mean, stddev);
        t.version = next_version();
        t
    }

    // ------------------------------------------------------- accessors

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Size in bytes of the element buffer.
    pub fn size_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    /// Immutable view of the flat buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat buffer. Re-stamps the content version:
    /// the caller may write anything through it.
    pub fn data_mut(&mut self) -> &mut [f32] {
        self.version = next_version();
        &mut self.data
    }

    /// Monotonic content-version stamp. Two tensors with equal versions
    /// hold bitwise-identical buffers (clone shares the stamp; every
    /// mutation path re-stamps from a never-repeating global counter), so
    /// derived-data caches — packed conv filters, transposed GEMV weight
    /// images — can key on this instead of hashing the buffer per call.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Consume into the flat buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-index.
    pub fn get(&self, index: &[usize]) -> Result<f32> {
        Ok(self.data[self.shape.offset(index)?])
    }

    /// Set element at a multi-index.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let off = self.shape.offset(index)?;
        self.version = next_version();
        self.data[off] = value;
        Ok(())
    }

    /// Reshape in place (metadata only); element count must match.
    pub fn reshape(&mut self, dims: &[usize]) -> Result<()> {
        self.shape = self.shape.reshape(dims)?;
        Ok(())
    }

    /// A reshaped copy.
    pub fn reshaped(&self, dims: &[usize]) -> Result<Tensor> {
        let mut t = self.clone();
        t.reshape(dims)?;
        Ok(t)
    }

    // --------------------------------------------------- elementwise ops

    /// Elementwise `self + other` (same shape).
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.zip(other, |a, b| a + b)
    }

    /// Elementwise `self - other` (same shape).
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        self.zip(other, |a, b| a - b)
    }

    /// Elementwise `self * other` (same shape).
    pub fn mul(&self, other: &Tensor) -> Result<Tensor> {
        self.zip(other, |a, b| a * b)
    }

    /// Elementwise `self / other` (same shape).
    pub fn div(&self, other: &Tensor) -> Result<Tensor> {
        self.zip(other, |a, b| a / b)
    }

    /// Elementwise combine with an arbitrary function.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor> {
        if self.shape != other.shape {
            return Err(Error::ShapeMismatch(format!(
                "{} vs {}",
                self.shape, other.shape
            )));
        }
        let mut data = crate::pool::alloc_copy(&self.data);
        for (a, &b) in data.iter_mut().zip(&other.data) {
            *a = f(*a, b);
        }
        Ok(Tensor {
            shape: self.shape.clone(),
            data,
            version: next_version(),
        })
    }

    /// Elementwise in-place accumulate: `self += alpha * other` (axpy).
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) -> Result<()> {
        if self.shape != other.shape {
            return Err(Error::ShapeMismatch(format!(
                "{} vs {}",
                self.shape, other.shape
            )));
        }
        self.version = next_version();
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Scaled copy: `alpha * self`.
    pub fn scale(&self, alpha: f32) -> Tensor {
        self.map(|v| alpha * v)
    }

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let mut out = self.clone();
        for v in out.data_mut() {
            *v = f(*v);
        }
        out
    }

    // -------------------------------------------------------- reductions

    /// Sum of all elements (f64 accumulator).
    pub fn sum(&self) -> f64 {
        self.data.iter().map(|&v| v as f64).sum()
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Maximum element (NaN-ignoring); `-inf` if empty.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element; `+inf` if empty.
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// ℓ2 norm of the flat buffer.
    pub fn l2_norm(&self) -> f64 {
        self.data
            .iter()
            .map(|&v| v as f64 * v as f64)
            .sum::<f64>()
            .sqrt()
    }

    /// True if any element is NaN or infinite — the "exploding loss" check.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }

    /// Row-wise argmax of a `[rows, cols]` tensor (classification outputs).
    pub fn argmax_rows(&self) -> Result<Vec<usize>> {
        if self.shape.rank() != 2 {
            return Err(Error::ShapeMismatch(format!(
                "argmax_rows requires rank-2 tensor, got {}",
                self.shape
            )));
        }
        let (rows, cols) = (self.shape.dim(0), self.shape.dim(1));
        let mut out = Vec::with_capacity(rows);
        for r in 0..rows {
            let row = &self.data[r * cols..(r + 1) * cols];
            let mut best = 0usize;
            for (i, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = i;
                }
            }
            out.push(best);
        }
        Ok(out)
    }

    // ------------------------------------------------ batch-axis slicing

    /// Copy rows `[start, start+len)` along axis 0 — the minibatch/microbatch
    /// slice used by samplers and the micro-batching transformation.
    pub fn slice_axis0(&self, start: usize, len: usize) -> Result<Tensor> {
        if self.shape.rank() == 0 {
            return Err(Error::ShapeMismatch("cannot slice a scalar".into()));
        }
        let n = self.shape.dim(0);
        if start + len > n {
            return Err(Error::Invalid(format!(
                "slice [{start}, {}) out of bounds for axis-0 extent {n}",
                start + len
            )));
        }
        let row = self.numel() / n.max(1);
        let data = crate::pool::alloc_copy(&self.data[start * row..(start + len) * row]);
        Ok(Tensor {
            shape: self.shape.with_dim(0, len),
            data,
            version: next_version(),
        })
    }

    /// Concatenate tensors along axis 0.
    pub fn concat_axis0(parts: &[Tensor]) -> Result<Tensor> {
        let shapes: Vec<&Shape> = parts.iter().map(|t| t.shape()).collect();
        let shape = Shape::concat(&shapes, 0)?;
        let mut data = crate::pool::alloc_zeroed(shape.numel());
        let mut off = 0;
        for p in parts {
            data[off..off + p.data.len()].copy_from_slice(&p.data);
            off += p.data.len();
        }
        Ok(Tensor {
            shape,
            data,
            version: next_version(),
        })
    }

    /// Transpose a rank-2 tensor.
    pub fn transpose2d(&self) -> Result<Tensor> {
        if self.shape.rank() != 2 {
            return Err(Error::ShapeMismatch(format!(
                "transpose2d requires rank-2, got {}",
                self.shape
            )));
        }
        let (r, c) = (self.shape.dim(0), self.shape.dim(1));
        let mut data = crate::pool::alloc_zeroed(r * c);
        for i in 0..r {
            for j in 0..c {
                data[j * r + i] = self.data[i * c + j];
            }
        }
        Ok(Tensor {
            shape: Shape::new(&[c, r]),
            data,
            version: next_version(),
        })
    }

    /// Approximate elementwise equality within `tol` (test helper).
    pub fn approx_eq(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let z = Tensor::zeros([2, 3]);
        assert_eq!(z.numel(), 6);
        assert_eq!(z.sum(), 0.0);
        let o = Tensor::ones([4]);
        assert_eq!(o.sum(), 4.0);
        let f = Tensor::full([2], 2.5);
        assert_eq!(f.data(), &[2.5, 2.5]);
        let s = Tensor::scalar(7.0);
        assert_eq!(s.shape().rank(), 0);
        assert_eq!(s.numel(), 1);
        assert!(Tensor::from_vec([2, 2], vec![1.0]).is_err());
    }

    #[test]
    fn get_set_roundtrip() {
        let mut t = Tensor::zeros([2, 3]);
        t.set(&[1, 2], 9.0).unwrap();
        assert_eq!(t.get(&[1, 2]).unwrap(), 9.0);
        assert!(t.get(&[2, 0]).is_err());
    }

    #[test]
    fn elementwise_arithmetic() {
        let a = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let b = Tensor::from_slice(&[4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).unwrap().data(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).unwrap().data(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).unwrap().data(), &[4.0, 10.0, 18.0]);
        assert_eq!(b.div(&a).unwrap().data(), &[4.0, 2.5, 2.0]);
        let c = Tensor::zeros([2]);
        assert!(a.add(&c).is_err());
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Tensor::from_slice(&[1.0, 1.0]);
        let g = Tensor::from_slice(&[2.0, 4.0]);
        a.axpy(-0.5, &g).unwrap();
        assert_eq!(a.data(), &[0.0, -1.0]);
        assert_eq!(a.scale(2.0).data(), &[0.0, -2.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_slice(&[1.0, -2.0, 3.0]);
        assert_eq!(t.sum(), 2.0);
        assert!((t.mean() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.min(), -2.0);
        assert!((t.l2_norm() - (14.0f64).sqrt()).abs() < 1e-9);
        assert!(!t.has_non_finite());
        let bad = Tensor::from_slice(&[1.0, f32::NAN]);
        assert!(bad.has_non_finite());
    }

    #[test]
    fn argmax_rows_works() {
        let t = Tensor::from_vec([2, 3], vec![0.1, 0.9, 0.0, 0.5, 0.2, 0.8]).unwrap();
        assert_eq!(t.argmax_rows().unwrap(), vec![1, 2]);
        assert!(Tensor::from_slice(&[1.0]).argmax_rows().is_err());
    }

    #[test]
    fn slice_and_concat_axis0_roundtrip() {
        let t = Tensor::from_vec([4, 2], (0..8).map(|i| i as f32).collect()).unwrap();
        let a = t.slice_axis0(0, 1).unwrap();
        let b = t.slice_axis0(1, 3).unwrap();
        assert_eq!(a.shape(), &Shape::new(&[1, 2]));
        assert_eq!(b.shape(), &Shape::new(&[3, 2]));
        let r = Tensor::concat_axis0(&[a, b]).unwrap();
        assert_eq!(&r, &t);
        assert!(t.slice_axis0(3, 2).is_err());
    }

    #[test]
    fn transpose2d_works() {
        let t = Tensor::from_vec([2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let tt = t.transpose2d().unwrap();
        assert_eq!(tt.shape(), &Shape::new(&[3, 2]));
        assert_eq!(tt.data(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        assert_eq!(&tt.transpose2d().unwrap(), &t);
    }

    #[test]
    fn reshape_and_approx_eq() {
        let mut t = Tensor::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        t.reshape(&[2, 2]).unwrap();
        assert_eq!(t.shape(), &Shape::new(&[2, 2]));
        assert!(t.reshape(&[3]).is_err());
        let u = t.map(|v| v + 1e-7);
        assert!(t.approx_eq(&u, 1e-5));
        assert!(!t.approx_eq(&u, 1e-9));
    }

    #[test]
    fn random_tensors_are_deterministic() {
        let mut r1 = Xoshiro256StarStar::seed_from_u64(1);
        let mut r2 = Xoshiro256StarStar::seed_from_u64(1);
        let a = Tensor::rand_uniform([10], -1.0, 1.0, &mut r1);
        let b = Tensor::rand_uniform([10], -1.0, 1.0, &mut r2);
        assert_eq!(a, b);
        let n = Tensor::rand_normal([10], 0.0, 1.0, &mut r1);
        assert!(n.data().iter().any(|&v| v != 0.0));
    }

    #[test]
    fn size_bytes() {
        assert_eq!(Tensor::zeros([3, 2]).size_bytes(), 24);
    }
}
