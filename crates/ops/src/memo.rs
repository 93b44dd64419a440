//! The one memo of weight-derived data: the direct-tier conv's packed
//! filter and `Linear`'s transposed weight image both live in a
//! [`VersionMemo`], rebuilt only when the weight's content-version stamp
//! ([`Tensor::version`]) changes. The compare is O(1) per call, and sound
//! even when the buffer pool recycles a freed parameter allocation at the
//! same address — a recycled buffer is a new construction with a fresh
//! stamp. A rebuild is handed the value it replaces, so an image can be
//! rewritten in place.

use deep500_tensor::Tensor;
use parking_lot::Mutex;
use std::sync::Arc;

/// The weight version a value was built from, and the value.
type Slot<T> = Option<(u64, Arc<T>)>;

/// A `{version, derived value}` slot behind a lock. Clones share the slot,
/// so executor snapshots of an operator reuse one build.
#[derive(Debug)]
pub(crate) struct VersionMemo<T>(Arc<Mutex<Slot<T>>>);

impl<T> VersionMemo<T> {
    /// The value built from `w` at its current version: the memoized one
    /// when the stamp matches, otherwise `build(w, old)`, which replaces
    /// it. `old` is the value being replaced when nothing else still holds
    /// it, so a rebuild can reuse its buffers (in training the weight
    /// changes every step, and a fresh image of a few hundred KiB is a
    /// fresh `mmap` and its page faults every time).
    pub(crate) fn get_or_build(
        &self,
        w: &Tensor,
        build: impl FnOnce(&Tensor, Option<T>) -> T,
    ) -> Arc<T> {
        let version = w.version();
        let mut slot = self.0.lock();
        if let Some((v, built)) = &*slot {
            if *v == version {
                return Arc::clone(built);
            }
        }
        let old = slot.take().and_then(|(_, old)| Arc::try_unwrap(old).ok());
        let built = Arc::new(build(w, old));
        *slot = Some((version, Arc::clone(&built)));
        built
    }
}

impl<T> Clone for VersionMemo<T> {
    fn clone(&self) -> Self {
        VersionMemo(Arc::clone(&self.0))
    }
}

impl<T> Default for VersionMemo<T> {
    fn default() -> Self {
        VersionMemo(Arc::new(Mutex::new(None)))
    }
}
