//! A long-lived executor pool shared by every evaluation on an
//! [`ExecCtx`](crate::exec::ExecCtx).
//!
//! Spark amortizes task-launch cost by keeping executors alive for the
//! whole application; the original `sjdf` executor instead spawned (and
//! joined) a fresh set of scoped threads for *every* evaluation wave,
//! which put thread-creation latency on the hottest path in the repo —
//! per-stage task-launch overhead is exactly the cost HPC Spark studies
//! (arXiv:1904.11812, arXiv:1611.04934) identify as dominant at this
//! layer. [`WorkerPool`] fixes that: threads are spawned once per
//! context, waves submit type-erased runner jobs into a shared FIFO
//! queue, and workers park on a condvar between waves.
//!
//! # Nested-wave reentrancy
//!
//! A task may itself evaluate a wave (shuffle materialization inside an
//! evaluation does). A naive "submit and block" would deadlock once every
//! worker is blocked inside an outer task waiting for an inner wave that
//! no free worker can run. The pool therefore never relies on a free
//! worker for progress: the thread that starts a wave *helps*, claiming
//! and running that wave's task indices itself until the wave's cursor is
//! exhausted, and only then parks until in-flight tasks claimed by other
//! workers finish. Every waiting thread has already drained its own
//! wave, so the wait chain always bottoms out at a thread doing real
//! work — the `nested_waves_do_not_deadlock` guarantee holds with zero
//! free workers.
//!
//! # Fault isolation
//!
//! Every job a worker runs is wrapped in `catch_unwind`, so a panicking
//! task (genuine, or injected by a [`FaultPlan`](crate::faults::FaultPlan))
//! never kills a pool thread: the wave that submitted the job observes
//! the failure through its own result slots and decides whether to retry
//! the task (see [`RetryPolicy`](crate::exec::RetryPolicy)), while the
//! worker moves on to the next job.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// A unit of pool work: one type-erased wave runner.
type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolShared {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    shutdown: AtomicBool,
}

/// Recover from a poisoned std mutex: the pool's own jobs catch panics,
/// and the queue holds only boxed closures, so the data is always valid.
fn lock_queue(shared: &PoolShared) -> MutexGuard<'_, VecDeque<Job>> {
    shared
        .queue
        .lock()
        .unwrap_or_else(|poison| poison.into_inner())
}

/// A fixed-size set of long-lived worker threads with a shared FIFO work
/// queue. Created once per [`ExecCtx`](crate::exec::ExecCtx) (and shared
/// by all its clones); dropped — joining every worker — when the last
/// clone goes away.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: usize,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl WorkerPool {
    /// Spawn a pool of `workers` threads (at least one).
    pub fn new(workers: usize) -> Arc<Self> {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sjdf-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn sjdf worker thread")
            })
            .collect();
        Arc::new(WorkerPool {
            shared,
            workers,
            handles: Mutex::new(handles),
        })
    }

    /// Number of worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Enqueue one job. Jobs run FIFO on the first free worker; waves
    /// must not depend on a job ever being picked up (the submitting
    /// thread always helps itself to its own wave's tasks).
    pub fn submit(&self, job: Job) {
        lock_queue(&self.shared).push_back(job);
        self.shared.available.notify_one();
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Raise the flag under the queue lock: a worker reads it under
        // that lock before parking, so it either sees the flag or is
        // already parked when the notify comes. Raised outside, it can
        // land between a worker's read and its park, and that worker
        // sleeps through the notify and the join below forever.
        {
            let _queue = lock_queue(&self.shared);
            self.shared.shutdown.store(true, Ordering::Release);
        }
        self.shared.available.notify_all();
        let handles = std::mem::take(
            &mut *self
                .handles
                .lock()
                .unwrap_or_else(|poison| poison.into_inner()),
        );
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers)
            .finish_non_exhaustive()
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut queue = lock_queue(shared);
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                queue = shared
                    .available
                    .wait(queue)
                    .unwrap_or_else(|poison| poison.into_inner());
            }
        };
        // Wave runners catch task panics themselves; this outer guard only
        // keeps a stray panic from killing the worker thread.
        let _ = catch_unwind(AssertUnwindSafe(job));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn pool_runs_submitted_jobs() {
        let pool = WorkerPool::new(2);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..16 {
            let c = Arc::clone(&counter);
            pool.submit(Box::new(move || {
                c.fetch_add(1, Ordering::SeqCst);
            }));
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while counter.load(Ordering::SeqCst) < 16 {
            assert!(std::time::Instant::now() < deadline, "jobs did not drain");
            std::thread::yield_now();
        }
    }

    #[test]
    fn pool_drop_joins_workers() {
        let pool = WorkerPool::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..8 {
            let c = Arc::clone(&counter);
            pool.submit(Box::new(move || {
                c.fetch_add(1, Ordering::SeqCst);
            }));
        }
        drop(pool);
        // Drop drains the queue before workers exit.
        assert_eq!(counter.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn panicking_job_does_not_kill_worker() {
        let pool = WorkerPool::new(1);
        pool.submit(Box::new(|| panic!("job panic")));
        let done = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&done);
        pool.submit(Box::new(move || {
            d.fetch_add(1, Ordering::SeqCst);
        }));
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while done.load(Ordering::SeqCst) == 0 {
            assert!(std::time::Instant::now() < deadline, "worker died");
            std::thread::yield_now();
        }
    }

    /// A pool dropped while its worker is still starting up must not
    /// hang. Several threads create and drop one-worker pools; a
    /// watchdog fails the test instead of letting a lost wakeup hang it.
    #[test]
    fn drop_never_loses_the_shutdown_wakeup() {
        const THREADS: usize = 4;
        const CYCLES: usize = 15_000;
        let (done, finished) = std::sync::mpsc::channel();
        let loops: Vec<_> = (0..THREADS)
            .map(|_| {
                let done = done.clone();
                std::thread::spawn(move || {
                    for _ in 0..CYCLES {
                        drop(WorkerPool::new(1));
                    }
                    done.send(()).expect("the test thread waits for every loop");
                })
            })
            .collect();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        for _ in 0..THREADS {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            assert!(
                finished.recv_timeout(left).is_ok(),
                "the create/drop loops did not finish in 30 s: a dropped pool never joined its worker"
            );
        }
        for handle in loops {
            handle.join().expect("create/drop loop");
        }
    }

    #[test]
    fn zero_requested_workers_clamps_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 1);
    }
}
