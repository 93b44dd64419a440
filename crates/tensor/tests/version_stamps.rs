//! Version-stamp integrity under buffer recycling.
//!
//! Memoization (the packed conv filter and the GEMV weight image)
//! keys on [`Tensor::version`]: equal stamps must imply equal contents.
//! [`BufferPool`] recycling is the dangerous path — the same physical
//! allocation comes back as a "new" tensor, and a reused stamp would let a
//! stale memo alias fresh data. These tests pin the contract: a recycled
//! buffer never resurrects a retired tensor's version.

use deep500_tensor::pool::{with_pool, BufferPool};
use deep500_tensor::Tensor;
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

#[test]
fn recycled_buffer_gets_a_fresh_version() {
    let pool = Arc::new(BufferPool::new());
    let (v1, ptr1) = with_pool(&pool, || {
        let t = Tensor::zeros([16, 16]);
        let v = t.version();
        let buf = t.into_vec();
        let ptr = buf.as_ptr();
        pool.recycle(buf);
        (v, ptr)
    });
    let t2 = with_pool(&pool, || Tensor::zeros([16, 16]));
    // Same allocation back from the free list (pool hit) …
    assert_eq!(pool.stats().hits, 1);
    assert_eq!(t2.data().as_ptr(), ptr1);
    // … but a distinct identity: version stamps are never recycled with
    // the storage they stamped.
    assert_ne!(t2.version(), v1);
}

#[test]
fn mutation_restamps_but_clone_preserves() {
    let mut t = Tensor::zeros([8]);
    let v0 = t.version();
    let c = t.clone();
    assert_eq!(c.version(), v0, "clone shares contents, so shares version");
    t.data_mut()[0] = 1.0;
    assert_ne!(t.version(), v0, "mutable access invalidates the stamp");
    assert_eq!(c.version(), v0, "the clone's snapshot is unaffected");
}

proptest! {
    /// Any interleaving of allocations, recycles, mutations, and clones
    /// yields stamps where duplicates exist *only* between a clone and its
    /// unmutated source — never via the pool resurrecting storage.
    #[test]
    fn versions_never_collide_across_recycling(ops in prop::collection::vec(0u8..4, 1..64)) {
        let pool = Arc::new(BufferPool::new());
        let mut live: Vec<Tensor> = Vec::new();
        let mut stamped = HashSet::new();
        with_pool(&pool, || {
            for op in ops {
                match op {
                    // Allocate (often straight off the free list). Every
                    // newly minted stamp must be globally unused so far.
                    0 => {
                        let t = Tensor::zeros([32]);
                        prop_assert!(stamped.insert(t.version()), "stamp reused");
                        live.push(t);
                    }
                    // Retire the oldest live tensor into the pool.
                    1 => {
                        if !live.is_empty() {
                            pool.recycle(live.remove(0).into_vec());
                        }
                    }
                    // Mutate the newest live tensor: re-stamp.
                    2 => {
                        if let Some(t) = live.last_mut() {
                            t.data_mut()[0] += 1.0;
                            prop_assert!(stamped.insert(t.version()), "stamp reused");
                        }
                    }
                    // Clone: the one legal duplicate.
                    _ => {
                        if let Some(t) = live.last() {
                            let c = t.clone();
                            prop_assert_eq!(c.version(), t.version());
                            live.push(c);
                        }
                    }
                }
            }
        });
    }
}
