//! The global work-sharing thread pool behind the parallel combinators.
//!
//! Workers block on a shared injector queue of `'static` jobs. Borrowing
//! parallel-for closures are run through a `TaskSet` whose lifetime is
//! erased before submission; soundness rests on `run_set` not returning
//! until every task in the set has finished, so the borrowed data outlives
//! all uses. Stale helper jobs that fire after completion find an empty
//! task iterator and exit immediately.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

type Job = Box<dyn FnOnce() + Send + 'static>;

struct Injector {
    queue: Mutex<VecDeque<Job>>,
    ready: Condvar,
}

struct Pool {
    injector: Arc<Injector>,
    threads: usize,
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        let threads = std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        let injector = Arc::new(Injector {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
        });
        for i in 0..threads {
            let inj = Arc::clone(&injector);
            std::thread::Builder::new()
                .name(format!("d5-worker-{i}"))
                .spawn(move || worker_loop(&inj))
                .expect("spawn pool worker");
        }
        Pool { injector, threads }
    })
}

fn worker_loop(inj: &Injector) {
    loop {
        let job = {
            let mut q = inj.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(job) = q.pop_front() {
                    break job;
                }
                q = inj.ready.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        job();
    }
}

fn submit(job: Job) {
    let inj = &pool().injector;
    inj.queue
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push_back(job);
    inj.ready.notify_one();
}

/// Number of worker threads in the global pool.
pub fn current_num_threads() -> usize {
    pool().threads
}

/// A set of borrowing tasks executed cooperatively by the caller and any
/// idle pool workers.
struct TaskSet<'a> {
    tasks: Mutex<std::vec::IntoIter<Box<dyn FnOnce() + Send + 'a>>>,
    pending: Mutex<usize>,
    done: Condvar,
    panicked: AtomicBool,
}

impl TaskSet<'_> {
    /// Pull and run tasks until the iterator is drained.
    fn drain(&self) {
        loop {
            let task = {
                let mut it = self.tasks.lock().unwrap_or_else(|e| e.into_inner());
                it.next()
            };
            let Some(task) = task else { break };
            if catch_unwind(AssertUnwindSafe(task)).is_err() {
                self.panicked.store(true, Ordering::SeqCst);
            }
            let mut pending = self.pending.lock().unwrap_or_else(|e| e.into_inner());
            *pending -= 1;
            if *pending == 0 {
                self.done.notify_all();
            }
        }
    }
}

/// Run every task to completion, sharing the work with idle pool workers.
/// Panics (once, after the whole set has finished) if any task panicked.
pub fn run_set(tasks: Vec<Box<dyn FnOnce() + Send + '_>>) {
    let n = tasks.len();
    if n == 0 {
        return;
    }
    if n == 1 {
        let mut tasks = tasks;
        (tasks.pop().expect("one task"))();
        return;
    }
    let set = Arc::new(TaskSet {
        tasks: Mutex::new(tasks.into_iter()),
        pending: Mutex::new(n),
        done: Condvar::new(),
        panicked: AtomicBool::new(false),
    });
    // SAFETY: lifetime erasure only — `TaskSet<'a>` and `TaskSet<'static>`
    // are the same type modulo the closure lifetime, so the transmute
    // changes no layout. Helpers submitted to the pool must be 'static,
    // but this frame blocks below until `pending == 0`: every borrowed
    // closure is consumed (or the panic flag set) before the borrows it
    // captures can go out of scope, so no helper ever observes a dangling
    // reference.
    let erased: Arc<TaskSet<'static>> = unsafe { std::mem::transmute(Arc::clone(&set)) };
    let helpers = (pool().threads).min(n - 1);
    for _ in 0..helpers {
        let s = Arc::clone(&erased);
        submit(Box::new(move || s.drain()));
    }
    set.drain();
    let mut pending = set.pending.lock().unwrap_or_else(|e| e.into_inner());
    while *pending > 0 {
        pending = set.done.wait(pending).unwrap_or_else(|e| e.into_inner());
    }
    drop(pending);
    if set.panicked.load(Ordering::SeqCst) {
        panic!("a parallel task panicked");
    }
}

/// Parallel map over owned items, preserving input order in the output.
pub fn par_map_indexed<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    {
        let f = &f;
        let slots = &slots;
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = items
            .into_iter()
            .enumerate()
            .map(|(i, item)| {
                Box::new(move || {
                    let r = f(i, item);
                    *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(r);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        run_set(tasks);
    }
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("task completed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order() {
        let out = par_map_indexed((0..100).collect(), |_, v: i32| v * 2);
        assert_eq!(out, (0..100).map(|v| v * 2).collect::<Vec<_>>());
    }

    #[test]
    fn nested_sets_complete() {
        let out = par_map_indexed((0..8).collect(), |_, v: i32| {
            par_map_indexed((0..8).collect(), |_, w: i32| w + v)
                .iter()
                .sum::<i32>()
        });
        assert_eq!(out.len(), 8);
        assert_eq!(out[0], 28);
    }

    #[test]
    #[should_panic(expected = "a parallel task panicked")]
    fn panics_propagate() {
        par_map_indexed(vec![0, 1, 2, 3], |_, v: i32| {
            if v == 2 {
                panic!("boom");
            }
            v
        });
    }
}
