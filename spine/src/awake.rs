//! Idle-priority spinners that keep the cores of this VM from halting.
//!
//! `serve-conv-open` leaves the cores idle three quarters of the time and
//! sleeps and wakes a few thousand times a second. Every time the last
//! runnable thread of a core blocks, the guest halts the vCPU, and the next
//! wake-up (a futex from the dispatcher, a timer for the batch deadline) has
//! to get the vCPU scheduled on the host again: tens of µs on a quiet host,
//! milliseconds on a busy one. That wake-up cost, not the program, then
//! decides the latency tail: alternating runs of one seed ranged 22 %
//! (median) and 40 % (tail) without the spinners and 3 % and 7 % with them,
//! and ten-seed sets spread 9-27 % / 7-38 % without and 10-17 % / 11-13 % with.
//!
//! One `SCHED_IDLE` thread pinned to each core spins for the length of the
//! workload, so a core is never idle, while any thread of the program
//! preempts the spinner the moment it becomes runnable. It is the
//! benchmark's stand-in for a host booted with `idle=poll`. The other
//! workloads do not use it: the training ones block rarely (it spread
//! `train-cnn`'s tail 35 % instead of 4 %), and `serve-small-closed`, where
//! a thread is almost always running, lost 12-30 % of its throughput to the
//! spinner beside it and moved between two levels a quarter apart.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

#[cfg(target_os = "linux")]
mod sys {
    /// `SCHED_IDLE` of `<sched.h>`: runs only when nothing else wants the core.
    const SCHED_IDLE: i32 = 5;
    /// Words of a `cpu_set_t` (1024 CPUs).
    const MASK_WORDS: usize = 16;

    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }

    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    /// The CPUs this process may run on.
    pub fn allowed_cpus() -> Vec<usize> {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: `mask` is writable for the size passed; pid 0 names the
        // calling thread.
        let ok = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if ok != 0 {
            return Vec::new();
        }
        (0..64 * MASK_WORDS)
            .filter(|c| (mask[c / 64] >> (c % 64)) & 1 == 1)
            .collect()
    }

    /// Pin the calling thread to `cpu` and move it to `SCHED_IDLE`. False
    /// when the kernel refuses either.
    pub fn pin_and_demote(cpu: usize) -> bool {
        let mut mask = [0u64; MASK_WORDS];
        mask[cpu / 64] = 1 << (cpu % 64);
        let param = SchedParam { sched_priority: 0 };
        // SAFETY: `mask` and `param` outlive the calls, which read them and
        // change only this thread's scheduling.
        unsafe {
            sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0
                && sched_setscheduler(0, SCHED_IDLE, &param) == 0
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub fn allowed_cpus() -> Vec<usize> {
        Vec::new()
    }
    pub fn pin_and_demote(_cpu: usize) -> bool {
        false
    }
}

/// The spinners; they stop and are joined when this is dropped.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl KeepAwake {
    /// One spinner pinned to each CPU the process may use. Unpinned, the
    /// two spinners of this VM shared a core half of the time (their weight
    /// is too small for the balancer to part them) and the other core
    /// halted as before. A spinner the kernel will not pin and demote does
    /// not spin: at normal priority it would take a third of a core from
    /// the program.
    pub fn start() -> KeepAwake {
        let stop = Arc::new(AtomicBool::new(false));
        let threads = sys::allowed_cpus()
            .into_iter()
            .map(|cpu| {
                let stop = stop.clone();
                std::thread::spawn(move || {
                    if !sys::pin_and_demote(cpu) {
                        return;
                    }
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        KeepAwake { stop, threads }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            // A spinner cannot panic; nothing to report if it did.
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spinners_stop_when_dropped() {
        let awake = KeepAwake::start();
        let t = std::time::Instant::now();
        drop(awake);
        assert!(t.elapsed() < std::time::Duration::from_secs(5));
    }
}
