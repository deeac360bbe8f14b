//! A std::thread worker pool with submit/wait tickets, deadlines, and
//! panic containment.
//!
//! No external dependencies: a `Mutex<VecDeque>` job queue, a `Condvar` to
//! park idle workers, and an `mpsc` channel per submitted job to hand the
//! result back. Searches are CPU-bound and non-blocking, so N = available
//! hardware parallelism is the right default.
//!
//! [`WorkerPool::submit`] is the one way in, and it runs every job under
//! `catch_unwind`: a panicking job delivers a typed [`JobError::Panicked`]
//! through its [`Ticket`] (carrying the panic message), counts into
//! [`WorkerPool::panics`] (surfaced in `stats` and Prometheus), and the
//! worker thread keeps serving — no job can unwind a worker, so the pool
//! never loses capacity.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::fault::{lock_unpoisoned, panic_message};

type Job = Box<dyn FnOnce() + Send + 'static>;

struct Queue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    work_ready: std::sync::Condvar,
    executed: AtomicU64,
    /// Jobs that panicked (each caught and delivered to its ticket).
    panics: AtomicU64,
}

/// A fixed-size pool of worker threads executing submitted closures.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` threads (0 ⇒ [`default_workers`]).
    pub fn new(workers: usize) -> Self {
        let width = if workers == 0 { default_workers() } else { workers };
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue { jobs: VecDeque::new(), shutdown: false }),
            work_ready: std::sync::Condvar::new(),
            executed: AtomicU64::new(0),
            panics: AtomicU64::new(0),
        });
        let workers = (0..width)
            .map(|id| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("bcc-worker-{id}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool { shared, workers }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Jobs executed so far (lifetime total).
    pub fn executed(&self) -> u64 {
        self.shared.executed.load(Ordering::Relaxed)
    }

    /// Jobs that panicked on this pool (lifetime total; every one was
    /// caught and typed at its ticket).
    pub fn panics(&self) -> u64 {
        self.shared.panics.load(Ordering::Relaxed)
    }

    /// Jobs accepted but not yet picked up by a worker (instantaneous
    /// queue depth — the load signal surfaced in Prometheus).
    pub fn queued(&self) -> usize {
        lock_unpoisoned(&self.shared.queue).jobs.len()
    }

    /// Enqueues `f` and returns a [`Ticket`] for its result. The job runs
    /// under `catch_unwind`: a panic becomes [`JobError::Panicked`] at the
    /// ticket and the worker thread survives.
    pub fn submit<T, F>(&self, f: F) -> Ticket<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let (tx, rx) = mpsc::channel();
        let shared = Arc::clone(&self.shared);
        let job: Job = Box::new(move || {
            // `f` only touches owned/Arc state (the service's shared
            // handles are all Sync); catching its unwind cannot expose a
            // broken borrow — and every mutex it might have poisoned is
            // recovered by `lock_unpoisoned` at the next holder.
            let result = catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
                shared.panics.fetch_add(1, Ordering::Relaxed);
                panic_message(payload.as_ref())
            });
            // The receiver may have given up (deadline expired); a failed
            // send is fine — the work still ran for its side effects
            // (e.g. populating the result cache).
            let _ = tx.send(result);
        });
        lock_unpoisoned(&self.shared.queue).jobs.push_back(job);
        self.shared.work_ready.notify_one();
        Ticket { rx }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        lock_unpoisoned(&self.shared.queue).shutdown = true;
        self.shared.work_ready.notify_all();
        // Workers drain the queue before they observe shutdown, so every
        // already-queued job runs before these joins return.
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = lock_unpoisoned(&shared.queue);
            loop {
                if let Some(job) = queue.jobs.pop_front() {
                    break job;
                }
                if queue.shutdown {
                    return;
                }
                queue = shared
                    .work_ready
                    .wait(queue)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        };
        // Counted before the job runs: the job itself delivers its result to
        // the waiter, so incrementing afterwards would let a waiter observe
        // the result while the counter still reads the old value.
        shared.executed.fetch_add(1, Ordering::Relaxed);
        job();
    }
}

/// The pool's default width: one worker per available core.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Why a [`Ticket`] yielded no value — each cause maps to a distinct
/// structured protocol error (timeout vs internal), so a waiter never has
/// to guess whether the worker panicked, the deadline passed, or the pool
/// went away.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobError {
    /// The job panicked; the payload message rode back on the ticket. The
    /// worker survived and the work's partial side effects never include a
    /// cache insert.
    Panicked(String),
    /// The deadline passed before the job finished (the job keeps
    /// running for its side effects).
    DeadlineExpired,
    /// The job's sender vanished without a value or panic notice — the
    /// pool shut down before the job could run.
    Shutdown,
}

/// A handle to one submitted job's eventual result.
pub struct Ticket<T> {
    rx: mpsc::Receiver<Result<T, String>>,
}

impl<T> Ticket<T> {
    /// Blocks until the job finishes.
    pub fn wait(self) -> Result<T, JobError> {
        match self.rx.recv() {
            Ok(Ok(value)) => Ok(value),
            Ok(Err(message)) => Err(JobError::Panicked(message)),
            Err(_) => Err(JobError::Shutdown),
        }
    }

    /// Blocks until the job finishes or `deadline` passes.
    pub fn wait_until(self, deadline: Option<Instant>) -> Result<T, JobError> {
        let unpack = |result: Result<T, String>| match result {
            Ok(value) => Ok(value),
            Err(message) => Err(JobError::Panicked(message)),
        };
        match deadline {
            None => self.wait(),
            Some(deadline) => loop {
                let now = Instant::now();
                if now >= deadline {
                    // One last non-blocking look so an already-delivered
                    // result is not discarded.
                    return match self.rx.try_recv() {
                        Ok(result) => unpack(result),
                        Err(TryRecvError::Empty) => Err(JobError::DeadlineExpired),
                        Err(TryRecvError::Disconnected) => Err(JobError::Shutdown),
                    };
                }
                match self.rx.recv_timeout(deadline - now) {
                    Ok(result) => return unpack(result),
                    Err(RecvTimeoutError::Timeout) => continue,
                    Err(RecvTimeoutError::Disconnected) => return Err(JobError::Shutdown),
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn executes_all_jobs() {
        let pool = WorkerPool::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        let tickets: Vec<_> = (0..64)
            .map(|i| {
                let counter = Arc::clone(&counter);
                pool.submit(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                    i * 2
                })
            })
            .collect();
        let mut results: Vec<_> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        results.sort_unstable();
        assert_eq!(results, (0..64).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(counter.load(Ordering::SeqCst), 64);
        assert_eq!(pool.executed(), 64);
        assert_eq!(pool.panics(), 0);
    }

    #[test]
    fn deadline_expires_on_slow_job() {
        let pool = WorkerPool::new(1);
        // Occupy the single worker so the probe job cannot start.
        let (hold_tx, hold_rx) = mpsc::channel::<()>();
        let _hold = pool.submit(move || {
            let _ = hold_rx.recv_timeout(Duration::from_secs(5));
        });
        let ticket = pool.submit(|| 42);
        let deadline = Some(Instant::now() + Duration::from_millis(30));
        assert_eq!(ticket.wait_until(deadline), Err(JobError::DeadlineExpired));
        hold_tx.send(()).unwrap();
    }

    #[test]
    fn deadline_met_returns_value() {
        let pool = WorkerPool::new(2);
        let ticket = pool.submit(|| "done");
        let deadline = Some(Instant::now() + Duration::from_secs(5));
        assert_eq!(ticket.wait_until(deadline), Ok("done"));
    }

    #[test]
    fn drop_drains_pending_jobs() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(2);
            for _ in 0..16 {
                let counter = Arc::clone(&counter);
                let _ = pool.submit(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        }
        // Workers drain the queue before observing shutdown, so every
        // accepted job runs even when the pool is dropped immediately.
        assert_eq!(counter.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn zero_width_defaults_to_parallelism() {
        let pool = WorkerPool::new(0);
        assert!(pool.workers() >= 1);
    }

    #[test]
    fn submitted_panic_is_contained_and_typed() {
        let pool = WorkerPool::new(1);
        let ticket = pool.submit(|| -> u32 { panic!("boom: {}", 7) });
        match ticket.wait() {
            Err(JobError::Panicked(message)) => assert_eq!(message, "boom: 7"),
            other => panic!("expected Panicked, got {other:?}"),
        }
        assert_eq!(pool.panics(), 1);
        // The single worker survived: later jobs still run on it.
        assert_eq!(pool.submit(|| 5).wait(), Ok(5));
        assert_eq!(pool.workers(), 1);
    }

    #[test]
    fn non_string_panic_payload_gets_fallback_message() {
        let pool = WorkerPool::new(1);
        let ticket = pool.submit(|| -> u32 { std::panic::panic_any(42u64) });
        assert_eq!(
            ticket.wait(),
            Err(JobError::Panicked("worker job panicked".into()))
        );
    }
}
