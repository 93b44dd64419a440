//! Property-based tests for the tensor substrate.

use deep500_tensor::{rng::Xoshiro256StarStar, Shape, Tensor};
use proptest::prelude::*;

fn small_dims() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..6, 1..4)
}

/// Inverse of [`Shape::offset`]: the multi-index of a linear offset.
fn unravel(s: &Shape, mut offset: usize) -> Vec<usize> {
    let mut idx = vec![0usize; s.rank()];
    for (i, stride) in s.strides().into_iter().enumerate() {
        idx[i] = offset / stride;
        offset %= stride;
    }
    idx
}

proptest! {
    /// offset/unravel are inverse bijections over the whole index space.
    #[test]
    fn offset_unravel_bijection(dims in small_dims()) {
        let s = Shape::new(&dims);
        let mut seen = vec![false; s.numel()];
        for lin in 0..s.numel() {
            let idx = unravel(&s, lin);
            let off = s.offset(&idx).unwrap();
            prop_assert_eq!(off, lin);
            prop_assert!(!seen[off]);
            seen[off] = true;
        }
    }

    /// Strides are strictly decreasing products of trailing extents.
    #[test]
    fn strides_consistent(dims in small_dims()) {
        let s = Shape::new(&dims);
        let strides = s.strides();
        prop_assert_eq!(strides.len(), dims.len());
        if !dims.is_empty() {
            prop_assert_eq!(strides[dims.len()-1], 1);
            prop_assert_eq!(strides[0] * dims[0], s.numel());
        }
    }

    /// slice_axis0 followed by concat_axis0 reconstructs the tensor for any
    /// split point.
    #[test]
    fn slice_concat_roundtrip(rows in 1usize..8, cols in 1usize..8, cut in 0usize..8) {
        let cut = cut.min(rows);
        let data: Vec<f32> = (0..rows*cols).map(|i| i as f32).collect();
        let t = Tensor::from_vec([rows, cols], data).unwrap();
        let a = t.slice_axis0(0, cut).unwrap();
        let b = t.slice_axis0(cut, rows - cut).unwrap();
        let r = Tensor::concat_axis0(&[a, b]).unwrap();
        prop_assert_eq!(r, t);
    }

    /// add is commutative, sub is its inverse.
    #[test]
    fn add_sub_algebra(v in prop::collection::vec(-100.0f32..100.0, 1..32)) {
        let a = Tensor::from_slice(&v);
        let b = a.map(|x| x * 0.5 - 1.0);
        let ab = a.add(&b).unwrap();
        let ba = b.add(&a).unwrap();
        prop_assert_eq!(&ab, &ba);
        let back = ab.sub(&b).unwrap();
        prop_assert!(back.approx_eq(&a, 1e-4));
    }

    /// Broadcasting with itself is the identity.
    #[test]
    fn broadcast_self_identity(dims in small_dims()) {
        let s = Shape::new(&dims);
        prop_assert_eq!(s.broadcast(&s).unwrap(), s);
    }

    /// The RNG's next_below never exceeds its bound and the shuffle is a
    /// permutation.
    #[test]
    fn rng_shuffle_permutation(seed in any::<u64>(), n in 1usize..64) {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let mut v: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
        for _ in 0..16 {
            prop_assert!(rng.next_below(n) < n);
        }
    }

    /// transpose2d is an involution.
    #[test]
    fn transpose_involution(rows in 1usize..8, cols in 1usize..8) {
        let data: Vec<f32> = (0..rows*cols).map(|i| (i as f32).sin()).collect();
        let t = Tensor::from_vec([rows, cols], data).unwrap();
        prop_assert_eq!(t.transpose2d().unwrap().transpose2d().unwrap(), t);
    }
}
