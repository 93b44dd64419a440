//! The one place that decides whether work is handed to the rayon pool.
//!
//! Every kernel with independent pieces, and the plan interpreter with the
//! independent steps of a level, calls one of the two runners here with its
//! own estimate of the whole job's **work**: multiply-accumulates, or steps
//! of comparable cost (a pooling window visit). At or above [`FORK_CUT`],
//! with more than one piece, the pieces go to the pool; otherwise they run
//! in a plain loop on the caller. Pieces are independent by the callers'
//! contracts, so where they run never changes a result.
//!
//! The cut is hand-set. Two tracked rows watch it: `BENCH_gemm.json` →
//! `cutovers` times one GEMM just below and one just above it, and
//! `BENCH_plan.json` → `executors` (gate `small_levels_run_inline`) holds a
//! graph whose levels sit below it to the serial loop's time.

use rayon::prelude::*;

/// Work below which handing pieces to the pool costs more than it saves.
pub const FORK_CUT: usize = 64 * 64 * 64;

/// Whether a job of `work` multiply-accumulates is worth forking.
pub(crate) fn worth_forking(work: usize) -> bool {
    work >= FORK_CUT
}

/// Run `f(chunk index, chunk)` over `data.chunks_mut(chunk)`: on the pool
/// when the whole job's `work` clears the cut and there is more than one
/// chunk, otherwise in order on the caller (`work = 0` keeps a serial tier
/// serial). An empty slice has no chunks even at `chunk = 0`, which is what
/// a zero dimension makes of both.
pub fn for_each_chunk<T: Send>(
    data: &mut [T],
    chunk: usize,
    work: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    if data.is_empty() {
        return;
    }
    if worth_forking(work) && data.len() > chunk {
        data.par_chunks_mut(chunk)
            .enumerate()
            .for_each(|(i, c)| f(i, c));
    } else {
        data.chunks_mut(chunk)
            .enumerate()
            .for_each(|(i, c)| f(i, c));
    }
}

/// [`for_each_chunk`] for owned items: `f` applied to each, results in
/// input order.
pub fn map_items<T: Send, R: Send>(
    items: Vec<T>,
    work: usize,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    if worth_forking(work) && items.len() > 1 {
        items.into_par_iter().map(f).collect()
    } else {
        items.into_iter().map(f).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;
    use std::thread::{self, ThreadId};

    /// Fill every element with its chunk's index + 1 (0 = never visited;
    /// `+=` so a second visit shows) and report the threads that ran.
    fn visit(len: usize, chunk: usize, work: usize) -> (Vec<usize>, HashSet<ThreadId>) {
        let mut data = vec![0usize; len];
        let seen = Mutex::new(HashSet::new());
        for_each_chunk(&mut data, chunk, work, |i, c| {
            seen.lock().unwrap().insert(thread::current().id());
            c.iter_mut().for_each(|v| *v += i + 1);
        });
        (data, seen.into_inner().unwrap())
    }

    #[test]
    fn every_chunk_is_visited_once_with_its_index_on_both_sides_of_the_cut() {
        // 10 = three whole chunks and a last partial one.
        let want = vec![1, 1, 1, 2, 2, 2, 3, 3, 3, 4];
        for work in [0, FORK_CUT - 1, FORK_CUT, usize::MAX] {
            let (data, threads) = visit(10, 3, work);
            assert_eq!(data, want, "work {work}");
            if !worth_forking(work) {
                assert_eq!(threads, HashSet::from([thread::current().id()]));
            }
        }
    }

    #[test]
    fn an_empty_slice_runs_nothing_and_one_chunk_never_forks() {
        for work in [0, usize::MAX] {
            for chunk in [0, 4] {
                assert_eq!(visit(0, chunk, work), (vec![], HashSet::new()));
            }
            for len in [3, 4] {
                let (data, threads) = visit(len, 4, work);
                assert_eq!(data, vec![1; len]);
                assert_eq!(threads, HashSet::from([thread::current().id()]));
            }
        }
    }

    #[test]
    fn items_map_in_input_order_and_stay_on_the_caller_below_the_cut() {
        let here = thread::current().id();
        for work in [0, FORK_CUT - 1, FORK_CUT, usize::MAX] {
            let out = map_items((0..9).collect(), work, |v: usize| {
                (v * v, thread::current().id())
            });
            let squares: Vec<usize> = out.iter().map(|r| r.0).collect();
            assert_eq!(squares, (0..9).map(|v| v * v).collect::<Vec<_>>());
            if !worth_forking(work) {
                assert!(out.iter().all(|r| r.1 == here));
            }
        }
        let one = map_items(vec![7], usize::MAX, |v: usize| (v, thread::current().id()));
        assert_eq!(one, vec![(7, here)]);
        assert!(map_items(Vec::<usize>::new(), usize::MAX, |v| v).is_empty());
    }
}
