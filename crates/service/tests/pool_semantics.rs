//! Pins the `WorkerPool` contracts the serving layer leans on (documented
//! in `pool.rs` and `service.rs`, previously untested from this layer):
//!
//! * `Drop` drains every already-queued job before the workers exit;
//! * a ticket whose waiter gave up (deadline expired) does **not** cancel
//!   the job — it completes and its side effects (cache population) land.
//!
//! All gating is via channels, never sleeps: the tests are deterministic.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use bcc_service::{JobError, LruCache, WorkerPool};

#[test]
fn drop_drains_jobs_queued_behind_a_running_job() {
    let pool = WorkerPool::new(1);
    // Gate the single worker so the counter jobs provably sit in the queue.
    let (gate_tx, gate_rx) = mpsc::channel::<()>();
    let (running_tx, running_rx) = mpsc::channel::<()>();
    let _gate = pool.submit(move || {
        running_tx.send(()).expect("test alive");
        let _ = gate_rx.recv_timeout(Duration::from_secs(10));
    });
    running_rx.recv().expect("gate job started");

    let counter = Arc::new(AtomicUsize::new(0));
    for _ in 0..8 {
        let counter = Arc::clone(&counter);
        let _ = pool.submit(move || {
            counter.fetch_add(1, Ordering::SeqCst);
        });
    }
    assert_eq!(counter.load(Ordering::SeqCst), 0, "worker is gated, queue is full");

    gate_tx.send(()).expect("worker is blocked on the gate");
    drop(pool); // must block until the queue is drained
    assert_eq!(counter.load(Ordering::SeqCst), 8, "drop drained every queued job");
}

#[test]
fn drop_still_delivers_queued_tickets_results() {
    let pool = WorkerPool::new(2);
    let tickets: Vec<_> = (0..16).map(|i| pool.submit(move || i * 3)).collect();
    drop(pool); // joins the workers; every job has run and sent its result
    let mut results: Vec<i32> = tickets
        .into_iter()
        .map(|t| t.wait().expect("result survives the pool"))
        .collect();
    results.sort_unstable();
    assert_eq!(results, (0..16).map(|i| i * 3).collect::<Vec<_>>());
}

#[test]
fn deadline_expired_ticket_job_still_completes_and_populates_cache() {
    let pool = WorkerPool::new(1);
    let cache: Arc<Mutex<LruCache<u32, u32>>> = Arc::new(Mutex::new(LruCache::new(8)));

    let (gate_tx, gate_rx) = mpsc::channel::<()>();
    let (started_tx, started_rx) = mpsc::channel::<()>();
    let job_cache = Arc::clone(&cache);
    let ticket = pool.submit(move || {
        started_tx.send(()).expect("test alive");
        let _ = gate_rx.recv_timeout(Duration::from_secs(10));
        job_cache.lock().unwrap().insert(7, 42);
        42
    });

    // The job is mid-flight; its waiter's deadline has already passed.
    started_rx.recv().expect("job started");
    let expired = Some(Instant::now() - Duration::from_millis(1));
    assert_eq!(ticket.wait_until(expired), Err(JobError::DeadlineExpired));

    // The abandoned job still completes and warms the cache. A second
    // ticket is the barrier proving it finished.
    gate_tx.send(()).expect("worker is blocked on the gate");
    pool.submit(|| ()).wait().expect("barrier job runs after the gated job");
    assert_eq!(cache.lock().unwrap().peek(&7), Some(&42));
}

#[test]
fn expired_result_delivered_before_the_wait_is_not_discarded() {
    // The complementary documented subtlety: if the job already *finished*
    // when an expired waiter looks, the value is returned, not thrown away.
    let pool = WorkerPool::new(1);
    let ticket = pool.submit(|| 99);
    // Barrier: guarantee the job has completed and sent its result.
    pool.submit(|| ()).wait().expect("barrier");
    let expired = Some(Instant::now() - Duration::from_millis(1));
    assert_eq!(ticket.wait_until(expired), Ok(99));
}
