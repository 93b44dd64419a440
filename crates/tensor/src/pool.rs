//! Size-class tensor buffer pooling.
//!
//! Every operator output in a graph pass is a freshly allocated `Vec<f32>`;
//! over a training run that is thousands of allocator round-trips for
//! buffers whose sizes repeat exactly from pass to pass. [`BufferPool`]
//! keeps retired buffers on per-size-class free lists (classes are powers
//! of two, so a handful of lists cover every activation/gradient shape in a
//! network) and hands them back zeroed, which keeps pooled execution
//! bit-identical to fresh allocation.
//!
//! Executors opt in per scope with [`with_pool`]: inside the scope,
//! [`Tensor::zeros`](crate::Tensor::zeros) and
//! [`Tensor::full`](crate::Tensor::full) draw from the active pool through
//! a thread-local handle, so operator kernels recycle buffers without
//! knowing the pool exists. The pool itself is `Sync` (a
//! `parking_lot`-guarded free list plus atomic counters) and is shared
//! across worker threads by concurrent executors. It is the plan
//! interpreter's only source of pass buffers: activations, feed copies and
//! gradients alike come from one pool per executor and go back to it when
//! they die, whatever the batch size.

use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Buffers smaller than this (elements) are not worth pooling: the free
/// list bookkeeping costs as much as the allocation.
const MIN_CLASS: usize = 64;

/// `f32` elements per 64-byte cache line. Kernel scratch requests are
/// rounded up to whole lines (see [`scratch_zeroed`]) so packed GEMM
/// panels never straddle a line boundary mid-row.
pub const LINE_F32: usize = 16;

/// Counters describing pool effectiveness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Acquisitions served from a free list.
    pub hits: usize,
    /// Acquisitions that fell through to the allocator.
    pub misses: usize,
    /// Buffers returned to the pool.
    pub recycled: usize,
    /// Bytes currently parked on free lists.
    pub held_bytes: usize,
}

/// A thread-safe free list of `f32` buffers bucketed by power-of-two
/// capacity classes.
pub struct BufferPool {
    /// class size (elements, power of two) → retired buffers of that class.
    classes: Mutex<HashMap<usize, Vec<Vec<f32>>>>,
    /// Cap on `held_bytes`; buffers beyond it are dropped instead of parked.
    max_held_bytes: usize,
    held_bytes: AtomicUsize,
    hits: AtomicUsize,
    misses: AtomicUsize,
    recycled: AtomicUsize,
}

impl Default for BufferPool {
    fn default() -> Self {
        Self::new()
    }
}

impl BufferPool {
    /// Pool retaining up to 1 GiB of parked buffers.
    pub fn new() -> BufferPool {
        Self::with_max_held_bytes(1 << 30)
    }

    /// Pool retaining at most `max_held_bytes` of parked buffers; further
    /// recycled buffers are dropped (handed back to the allocator).
    pub fn with_max_held_bytes(max_held_bytes: usize) -> BufferPool {
        BufferPool {
            classes: Mutex::new(HashMap::new()),
            max_held_bytes,
            held_bytes: AtomicUsize::new(0),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            recycled: AtomicUsize::new(0),
        }
    }

    /// The size class (capacity in elements) serving a request of `numel`.
    pub fn class_of(numel: usize) -> usize {
        numel.next_power_of_two().max(MIN_CLASS)
    }

    /// A parked buffer of `numel`'s class (a hit), or an empty one with the
    /// class's capacity (a miss). Its contents are whatever it retired
    /// with; each `acquire*` decides what to keep.
    fn pop(&self, numel: usize) -> Vec<f32> {
        let class = Self::class_of(numel);
        let reused = self.classes.lock().get_mut(&class).and_then(Vec::pop);
        match reused {
            Some(buf) => {
                self.held_bytes
                    .fetch_sub(class * std::mem::size_of::<f32>(), Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                buf
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Vec::with_capacity(class)
            }
        }
    }

    /// A zeroed buffer of exactly `numel` elements, recycled if a buffer of
    /// the right class is parked, freshly allocated otherwise. Zeroing on
    /// acquisition keeps pooled and unpooled execution bit-identical.
    pub fn acquire(&self, numel: usize) -> Vec<f32> {
        let mut buf = self.pop(numel);
        buf.clear();
        buf.resize(numel, 0.0);
        buf
    }

    /// A buffer of `numel` elements with *unspecified* (but initialized)
    /// contents: a recycled buffer keeps whatever values it retired with,
    /// a fresh allocation is zeroed. For callers that overwrite every
    /// element they read — pack gathers, im2col lowering — this skips the
    /// zero-fill pass of [`BufferPool::acquire`], which on a recycled
    /// multi-megabyte panel is pure wasted memory traffic.
    fn acquire_dirty(&self, numel: usize) -> Vec<f32> {
        let mut buf = self.pop(numel);
        // No clear(): the prefix keeps its stale values. resize only
        // zero-fills growth beyond the retired length, so this stays safe
        // code with no uninitialized memory.
        buf.truncate(numel);
        buf.resize(numel, 0.0);
        buf
    }

    /// Park a retired buffer for reuse. Buffers below the minimum class or
    /// beyond the held-bytes cap are dropped.
    pub fn recycle(&self, buf: Vec<f32>) {
        // Classes are assigned by capacity rounded *down*, so an `acquire`
        // hit is always large enough for its class.
        let cap = buf.capacity();
        if cap < MIN_CLASS {
            return;
        }
        let class = if cap.is_power_of_two() {
            cap
        } else {
            usize::pow(2, cap.ilog2())
        };
        let bytes = class * std::mem::size_of::<f32>();
        // CAS loop: the cap check and the reservation must be one atomic
        // step, or two racing recyclers could both pass the check and park
        // more than `max_held_bytes` (caught by the loom model tests).
        let mut held = self.held_bytes.load(Ordering::Relaxed);
        loop {
            let next = held + bytes;
            if next > self.max_held_bytes {
                return;
            }
            match self.held_bytes.compare_exchange_weak(
                held,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => held = actual,
            }
        }
        self.recycled.fetch_add(1, Ordering::Relaxed);
        self.classes.lock().entry(class).or_default().push(buf);
    }

    /// Effectiveness counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            recycled: self.recycled.load(Ordering::Relaxed),
            held_bytes: self.held_bytes.load(Ordering::Relaxed),
        }
    }

    /// Drop all parked buffers.
    pub fn clear(&self) {
        self.classes.lock().clear();
        self.held_bytes.store(0, Ordering::Relaxed);
    }
}

thread_local! {
    static ACTIVE_POOL: RefCell<Option<Arc<BufferPool>>> = const { RefCell::new(None) };
}

/// Run `f` with `pool` as this thread's active allocation pool:
/// [`Tensor::zeros`](crate::Tensor::zeros)/[`Tensor::full`](crate::Tensor::full)
/// inside the scope draw their buffers from it. Scopes nest; the previous
/// pool is restored on exit.
pub fn with_pool<R>(pool: &Arc<BufferPool>, f: impl FnOnce() -> R) -> R {
    let previous = ACTIVE_POOL.with(|p| p.borrow_mut().replace(Arc::clone(pool)));
    struct Restore(Option<Arc<BufferPool>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            ACTIVE_POOL.with(|p| *p.borrow_mut() = prev);
        }
    }
    let _restore = Restore(previous);
    f()
}

/// A zeroed buffer from the thread's active pool, or a plain allocation if
/// no pool scope is active.
pub(crate) fn alloc_zeroed(numel: usize) -> Vec<f32> {
    ACTIVE_POOL.with(|p| match p.borrow().as_ref() {
        Some(pool) => pool.acquire(numel),
        None => vec![0.0; numel],
    })
}

/// A copy of `src` from the thread's active pool, or a plain allocation if
/// no pool scope is active.
pub(crate) fn alloc_copy(src: &[f32]) -> Vec<f32> {
    ACTIVE_POOL.with(|p| match p.borrow().as_ref() {
        Some(pool) => {
            let mut buf = pool.pop(src.len());
            buf.clear();
            buf.extend_from_slice(src);
            buf
        }
        None => src.to_vec(),
    })
}

/// Process-wide fallback pool for kernel scratch (packed GEMM panels,
/// im2col column blocks) acquired outside any [`with_pool`] scope —
/// notably on rayon workers, which do not inherit the caller's
/// thread-local scope. Capped well below the default tensor pool: scratch
/// working sets are bounded by cache-blocking parameters, not model size.
fn scratch_pool() -> &'static Arc<BufferPool> {
    static SCRATCH: OnceLock<Arc<BufferPool>> = OnceLock::new();
    SCRATCH.get_or_init(|| Arc::new(BufferPool::with_max_held_bytes(256 << 20)))
}

/// A zeroed kernel-scratch buffer of `numel` elements rounded up to a
/// whole 64-byte cache line ([`LINE_F32`]), drawn from the thread's active
/// pool when inside a [`with_pool`] scope and from the process-wide
/// scratch pool otherwise. Callers index only the first `numel` elements;
/// the line padding exists so recycled panels land in stable size classes
/// and rows packed to line multiples stay line-contiguous.
pub fn scratch_zeroed(numel: usize) -> Vec<f32> {
    let padded = numel.div_ceil(LINE_F32) * LINE_F32;
    ACTIVE_POOL.with(|p| match p.borrow().as_ref() {
        Some(pool) => pool.acquire(padded),
        None => scratch_pool().acquire(padded),
    })
}

/// [`scratch_zeroed`] without the zero-fill: the buffer's contents are
/// unspecified (stale values from a previous user of the pool, zeros when
/// freshly allocated). Only for callers that overwrite every element they
/// subsequently read — e.g. pack gathers that write whole slivers,
/// zero-padding their edges explicitly.
pub fn scratch_dirty(numel: usize) -> Vec<f32> {
    let padded = numel.div_ceil(LINE_F32) * LINE_F32;
    ACTIVE_POOL.with(|p| match p.borrow().as_ref() {
        Some(pool) => pool.acquire_dirty(padded),
        None => scratch_pool().acquire_dirty(padded),
    })
}

/// Return a buffer obtained from [`scratch_zeroed`] for reuse.
pub fn recycle_scratch(buf: Vec<f32>) {
    ACTIVE_POOL.with(|p| match p.borrow().as_ref() {
        Some(pool) => pool.recycle(buf),
        None => scratch_pool().recycle(buf),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    #[test]
    fn acquire_dirty_keeps_stale_prefix_and_zero_fills_growth() {
        let pool = BufferPool::new();
        let mut buf = pool.acquire(64);
        buf.fill(f32::NAN);
        pool.recycle(buf);
        // Same class: the dirty acquire must surface the stale NaNs (that
        // is the contract callers opt into) without any zeroing pass...
        let dirty = pool.acquire_dirty(64);
        assert!(dirty.iter().all(|v| v.is_nan()));
        pool.recycle(dirty);
        // ...and growing past the retired length zero-fills only the tail,
        // keeping the buffer fully initialized.
        let grown = pool.acquire_dirty(100);
        assert_eq!(grown.len(), 100);
        assert!(grown[64..].iter().all(|&v| v == 0.0));
        // A fresh (miss) dirty acquire is all zeros.
        assert!(pool.acquire_dirty(4096).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn acquire_recycle_reuses_capacity() {
        let pool = BufferPool::new();
        let buf = pool.acquire(100);
        assert_eq!(buf.len(), 100);
        assert_eq!(buf.capacity(), 128);
        let ptr = buf.as_ptr();
        pool.recycle(buf);
        assert_eq!(pool.stats().held_bytes, 128 * 4);
        // Same class (65..=128 elements) reuses the exact allocation.
        let again = pool.acquire(128);
        assert_eq!(again.as_ptr(), ptr);
        assert!(again.iter().all(|&v| v == 0.0));
        let stats = pool.stats();
        assert_eq!((stats.hits, stats.misses, stats.recycled), (1, 1, 1));
        assert_eq!(stats.held_bytes, 0);
    }

    #[test]
    fn size_classes_are_pow2_with_floor() {
        assert_eq!(BufferPool::class_of(1), 64);
        assert_eq!(BufferPool::class_of(64), 64);
        assert_eq!(BufferPool::class_of(65), 128);
        assert_eq!(BufferPool::class_of(1000), 1024);
    }

    #[test]
    fn tiny_and_overflow_buffers_are_dropped() {
        let pool = BufferPool::with_max_held_bytes(1024);
        pool.recycle(vec![1.0; 8]); // below MIN_CLASS
        assert_eq!(pool.stats().recycled, 0);
        pool.recycle(vec![1.0; 128]); // 512 B parked
        pool.recycle(vec![1.0; 256]); // would exceed the 1 KiB cap
        let stats = pool.stats();
        assert_eq!(stats.recycled, 1);
        assert_eq!(stats.held_bytes, 512);
    }

    #[test]
    fn zeroed_reuse_is_bit_identical_to_fresh() {
        let pool = BufferPool::new();
        let mut buf = pool.acquire(200);
        buf.iter_mut().for_each(|v| *v = f32::NAN);
        pool.recycle(buf);
        assert_eq!(pool.acquire(200), vec![0.0f32; 200]);
    }

    #[test]
    fn with_pool_scopes_tensor_allocation() {
        let pool = Arc::new(BufferPool::new());
        let t = with_pool(&pool, || Tensor::zeros([10, 10]));
        assert_eq!(pool.stats().misses, 1);
        pool.recycle(t.into_vec());
        let t2 = with_pool(&pool, || Tensor::zeros([10, 10]));
        assert_eq!(pool.stats().hits, 1);
        assert_eq!(t2.data(), &[0.0; 100]);
        // Outside the scope, allocation bypasses the pool again.
        pool.recycle(t2.into_vec());
        let _plain = Tensor::zeros([10, 10]);
        assert_eq!(pool.stats().hits, 1);
    }

    #[test]
    fn scratch_rounds_to_cache_lines_and_recycles() {
        let buf = scratch_zeroed(100);
        assert_eq!(buf.len(), 112); // 7 lines of 16 f32
        assert!(buf.iter().all(|&v| v == 0.0));
        recycle_scratch(buf);
        // Outside a with_pool scope the process-wide scratch pool serves
        // the next same-class request zeroed again.
        let again = scratch_zeroed(110);
        assert_eq!(again.len(), 112);
        assert!(again.iter().all(|&v| v == 0.0));
        recycle_scratch(again);
    }

    #[test]
    fn scratch_prefers_active_pool_scope() {
        let pool = Arc::new(BufferPool::new());
        let before = pool.stats();
        with_pool(&pool, || {
            let buf = scratch_zeroed(500);
            recycle_scratch(buf);
        });
        let after = pool.stats();
        assert_eq!(after.misses, before.misses + 1);
        assert_eq!(after.recycled, before.recycled + 1);
    }

    #[test]
    fn concurrent_acquire_recycle_is_safe() {
        let pool = Arc::new(BufferPool::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..200 {
                        let buf = pool.acquire(300);
                        pool.recycle(buf);
                    }
                });
            }
        });
        let stats = pool.stats();
        assert_eq!(stats.hits + stats.misses, 800);
        assert!(stats.misses <= 4);
    }
}
