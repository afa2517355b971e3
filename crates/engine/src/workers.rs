//! A reusable pool of OS worker threads.
//!
//! Spawning an OS thread per simulated processor per simulation is the
//! dominant setup cost of small simulations on the thread path: a
//! test-scale run finishes in milliseconds, but pays for `nprocs` thread
//! spawns and joins every time. A [`WorkerSet`] keeps workers parked
//! between jobs so consecutive simulations reuse the same OS threads.
//!
//! A job runs to completion on one worker and then hands back a
//! *completion* closure. The worker re-registers itself as idle **before**
//! running the completion — so by the time the submitter observes the
//! job's result (the completion is how results are delivered), the worker
//! is already available for reuse. This ordering is what makes "zero fresh
//! spawns on the next simulation" deterministic rather than a race.
//!
//! Workers are detached: when the last [`WorkerSet`] handle drops, the
//! idle workers' job channels close and the threads exit on their own.
//! A worker whose job has not returned is simply unavailable until it
//! does, after which it re-idles.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex, Weak};

/// What a worker runs: the job body, returning the completion closure the
/// worker invokes after re-parking itself.
pub(crate) type Job = Box<dyn FnOnce() -> Completion + Send + 'static>;

/// Delivered after the worker is back on the idle list.
pub(crate) type Completion = Box<dyn FnOnce() + Send + 'static>;

/// Thread-name prefix of pooled workers (`ssm-worker-<n>`).
pub(crate) const WORKER_THREAD_PREFIX: &str = "ssm-worker-";

struct Inner {
    idle: Mutex<Vec<Sender<Job>>>,
    stack_size: usize,
}

/// A shared, recyclable set of OS worker threads.
///
/// Cloning is cheap (`Arc` inside); all clones feed the same idle list.
#[derive(Clone)]
pub struct WorkerSet {
    inner: Arc<Inner>,
}

impl WorkerSet {
    /// Creates an empty set. Workers get an 8 MiB stack (recursive
    /// applications such as Barnes-Hut need more than the platform default
    /// for spawned threads).
    pub fn new() -> Self {
        WorkerSet {
            inner: Arc::new(Inner {
                idle: Mutex::new(Vec::new()),
                stack_size: 8 << 20,
            }),
        }
    }

    /// Number of workers currently parked and available.
    pub(crate) fn idle_count(&self) -> usize {
        self.inner.idle.lock().expect("idle list").len()
    }

    /// Runs `job` on an idle worker, spawning a fresh one only if none is
    /// parked. Returns `true` if an existing worker was reused.
    pub(crate) fn submit(&self, job: Job) -> bool {
        // Reuse loop: a parked worker's channel can only be closed if its
        // thread exited (it never closes its own receiver while parked),
        // which cannot happen for a registered idle worker — but stay
        // defensive and fall through to a fresh spawn on send failure.
        let mut job = job;
        loop {
            let recycled = self.inner.idle.lock().expect("idle list").pop();
            match recycled {
                Some(tx) => match tx.send(job) {
                    Ok(()) => return true,
                    Err(err) => job = err.0,
                },
                None => break,
            }
        }
        self.spawn_worker(job);
        false
    }

    fn spawn_worker(&self, first_job: Job) {
        static WORKER_SEQ: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let seq = WORKER_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let weak: Weak<Inner> = Arc::downgrade(&self.inner);
        std::thread::Builder::new()
            .name(format!("{WORKER_THREAD_PREFIX}{seq}"))
            .stack_size(self.inner.stack_size)
            .spawn(move || {
                let mut job = first_job;
                loop {
                    let completion = catch_unwind(AssertUnwindSafe(job));
                    // Re-park *before* delivering the result, so observers
                    // of the completion can immediately reuse this worker.
                    // The idle list holds the only sender of the new job
                    // channel, so dropping the set closes it.
                    let parked = weak.upgrade().map(|inner| {
                        let (job_tx, job_rx) = channel::<Job>();
                        inner.idle.lock().expect("idle list").push(job_tx);
                        job_rx
                    });
                    if let Ok(done) = completion {
                        done();
                    }
                    match parked.map(|rx| rx.recv()) {
                        Some(Ok(next)) => job = next,
                        _ => return, // the set is gone
                    }
                }
            })
            .expect("failed to spawn pooled worker thread");
    }
}

impl Default for WorkerSet {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for WorkerSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerSet")
            .field("idle", &self.idle_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel as result_channel;

    fn run_on(set: &WorkerSet, value: u32) -> (bool, u32) {
        let (tx, rx) = result_channel();
        let reused = set.submit(Box::new(move || {
            let out = value * 2;
            Box::new(move || {
                let _ = tx.send(out);
            })
        }));
        (reused, rx.recv().expect("job result"))
    }

    #[test]
    fn first_job_spawns_then_reuses() {
        let set = WorkerSet::new();
        let (reused, out) = run_on(&set, 1);
        assert!(!reused);
        assert_eq!(out, 2);
        // The completion fired after re-parking, so reuse is guaranteed.
        for i in 2..5 {
            let (reused, out) = run_on(&set, i);
            assert!(reused, "job {i} should reuse the parked worker");
            assert_eq!(out, i * 2);
        }
        assert_eq!(set.idle_count(), 1);
    }

    #[test]
    fn panicking_job_does_not_kill_the_worker() {
        let set = WorkerSet::new();
        // A panic in the job body is caught by the worker loop; the thread
        // re-parks (with no completion delivered).
        let reused = set.submit(Box::new(|| -> Completion { panic!("job exploded") }));
        assert!(!reused);
        // Wait for the worker to re-park, then reuse it.
        for _ in 0..500 {
            if set.idle_count() == 1 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let (reused, out) = run_on(&set, 21);
        assert!(reused, "worker should survive a panicking job");
        assert_eq!(out, 42);
    }

    /// How many threads named in `names` this process still has, read
    /// from `/proc/self/task/*/comm` (which keeps 15 bytes of a name).
    #[cfg(target_os = "linux")]
    fn live_threads(names: &[String]) -> usize {
        let comms: Vec<String> = std::fs::read_dir("/proc/self/task")
            .expect("procfs")
            .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
            .collect();
        names
            .iter()
            .filter(|n| comms.iter().any(|c| c.trim_end() == &n[..n.len().min(15)]))
            .count()
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn parked_workers_exit_when_the_last_handle_drops() {
        let set = WorkerSet::new();
        let (gate_tx, gate_rx) = result_channel::<()>();
        let (name_tx, name_rx) = result_channel::<String>();
        // The first job holds its worker until released, so the second job
        // needs a second worker.
        for gate in [Some(gate_rx), None] {
            let name_tx = name_tx.clone();
            set.submit(Box::new(move || {
                if let Some(g) = gate {
                    g.recv().expect("gate");
                }
                let name = std::thread::current().name().expect("named").to_string();
                Box::new(move || {
                    let _ = name_tx.send(name);
                })
            }));
        }
        let second = name_rx.recv().expect("second worker");
        gate_tx.send(()).expect("release");
        let names = vec![name_rx.recv().expect("first worker"), second];
        assert!(names.iter().all(|n| n.starts_with(WORKER_THREAD_PREFIX)));
        assert_eq!(live_threads(&names), 2, "both workers parked");
        // A warm set still reuses its workers.
        assert!(run_on(&set, 1).0);
        drop(set);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while live_threads(&names) > 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "parked workers outlived their set"
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    }

    #[test]
    fn concurrent_submits_get_distinct_workers() {
        let set = WorkerSet::new();
        let (gate_tx, gate_rx) = result_channel::<()>();
        let (done_tx, done_rx) = result_channel::<()>();
        // First job blocks until released, so the second must spawn fresh.
        let dt = done_tx.clone();
        set.submit(Box::new(move || {
            gate_rx.recv().expect("gate");
            Box::new(move || {
                let _ = dt.send(());
            })
        }));
        let reused = set.submit(Box::new(move || {
            Box::new(move || {
                let _ = done_tx.send(());
            })
        }));
        assert!(!reused, "busy worker must not be handed a second job");
        gate_tx.send(()).expect("release");
        done_rx.recv().expect("first done");
        done_rx.recv().expect("second done");
    }
}
