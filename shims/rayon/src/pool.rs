//! A persistent broadcast thread pool.
//!
//! One global pool, spawned on first use. Jobs are *broadcast*: every
//! worker (plus the submitting thread) pulls index ranges from a shared
//! atomic cursor until the job is drained. Job state lives on the
//! submitter's stack; the submitter always waits for every worker to
//! leave the job before returning, even when unwinding, so no dangling
//! references can escape.
//!
//! Steady-state dispatch performs **zero heap allocations** — this is
//! load-bearing for the zero-allocation training-epoch guarantee, so
//! keep it that way when editing.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

/// Type-erased job: `run(env, start, end)` processes indices
/// `start..end` of the submitted range.
#[derive(Clone, Copy)]
struct JobRef {
    run: unsafe fn(*const (), usize, usize),
    env: *const (),
    cursor: *const AtomicUsize,
    panicked: *const AtomicBool,
    len: usize,
    grain: usize,
}

// The raw pointers reference the submitter's stack frame, which
// outlives the job by construction (the submitter blocks until every
// worker reports completion).
unsafe impl Send for JobRef {}

struct State {
    /// Monotonically increasing job id; workers watch for changes.
    seq: u64,
    job: Option<JobRef>,
    /// Workers that finished the current job.
    finished: usize,
}

struct PoolShared {
    state: Mutex<State>,
    /// Workers sleep here waiting for a new job.
    job_ready: Condvar,
    /// The submitter sleeps here waiting for workers to drain.
    job_done: Condvar,
    workers: usize,
}

pub struct Pool {
    shared: &'static PoolShared,
    /// Serializes submitters (ranks in the SPMD cluster submit
    /// concurrently); workers never take this lock.
    submit: Mutex<()>,
}

thread_local! {
    /// True on pool worker threads: nested dispatch runs inline.
    static IS_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn drain(job: &JobRef) {
    let cursor = unsafe { &*job.cursor };
    let panicked = unsafe { &*job.panicked };
    loop {
        let start = cursor.fetch_add(job.grain, Ordering::Relaxed);
        if start >= job.len {
            break;
        }
        let end = (start + job.grain).min(job.len);
        let res = catch_unwind(AssertUnwindSafe(|| unsafe { (job.run)(job.env, start, end) }));
        if res.is_err() {
            panicked.store(true, Ordering::Relaxed);
            // Poison the cursor so everyone stops pulling work.
            cursor.store(job.len, Ordering::Relaxed);
            break;
        }
    }
}

fn worker_loop(shared: &'static PoolShared) {
    IS_WORKER.with(|w| w.set(true));
    let mut last_seen = 0u64;
    let mut guard = shared.state.lock().unwrap();
    loop {
        while guard.seq == last_seen {
            guard = shared.job_ready.wait(guard).unwrap();
        }
        last_seen = guard.seq;
        let job = match guard.job {
            Some(j) => j,
            None => continue,
        };
        drop(guard);
        drain(&job);
        guard = shared.state.lock().unwrap();
        guard.finished += 1;
        if guard.finished == shared.workers {
            shared.job_done.notify_one();
        }
    }
}

impl Pool {
    fn new() -> Pool {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        // The submitter participates, so spawn one fewer worker.
        let workers = threads.saturating_sub(1);
        let shared: &'static PoolShared = Box::leak(Box::new(PoolShared {
            state: Mutex::new(State { seq: 0, job: None, finished: 0 }),
            job_ready: Condvar::new(),
            job_done: Condvar::new(),
            workers,
        }));
        for _ in 0..workers {
            std::thread::Builder::new()
                .name("shim-rayon-worker".into())
                .spawn(move || worker_loop(shared))
                .expect("failed to spawn pool worker");
        }
        Pool { shared, submit: Mutex::new(()) }
    }

    pub fn global() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        POOL.get_or_init(Pool::new)
    }

    /// Total threads that execute a job (workers + submitter).
    pub fn num_threads(&self) -> usize {
        self.shared.workers + 1
    }

    /// Runs `body(start, end)` over disjoint subranges covering
    /// `0..len`, pulling ranges of `grain` indices dynamically.
    ///
    /// `body` must tolerate concurrent invocation on disjoint ranges.
    pub fn dispatch<F>(&self, len: usize, grain: usize, body: F)
    where
        F: Fn(usize, usize) + Sync,
    {
        if len == 0 {
            return;
        }
        let grain = grain.max(1);
        // Inline when the pool is trivial, the job is one grain, or we
        // are already on a worker (no nested broadcast).
        if self.shared.workers == 0 || len <= grain || IS_WORKER.with(|w| w.get()) {
            body(0, len);
            return;
        }

        unsafe fn call<F: Fn(usize, usize)>(env: *const (), start: usize, end: usize) {
            let f = unsafe { &*(env as *const F) };
            f(start, end);
        }

        let cursor = AtomicUsize::new(0);
        let panicked = AtomicBool::new(false);
        let job = JobRef {
            run: call::<F>,
            env: &body as *const F as *const (),
            cursor: &cursor,
            panicked: &panicked,
            len,
            grain,
        };

        let _submit_guard = self.submit.lock().unwrap();
        {
            let mut guard = self.shared.state.lock().unwrap();
            guard.seq += 1;
            guard.job = Some(job);
            guard.finished = 0;
        }
        self.shared.job_ready.notify_all();

        // Participate, then wait for every worker to leave the job.
        drain(&job);
        let mut guard = self.shared.state.lock().unwrap();
        while guard.finished < self.shared.workers {
            guard = self.shared.job_done.wait(guard).unwrap();
        }
        guard.job = None;
        drop(guard);

        if panicked.load(Ordering::Relaxed) {
            resume_unwind(Box::new("parallel job panicked"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_every_index_once() {
        let n = 10_000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        Pool::global().dispatch(n, 7, |s, e| {
            for h in &hits[s..e] {
                h.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn concurrent_submitters_do_not_interfere() {
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let sum = AtomicUsize::new(0);
                    Pool::global().dispatch(1000, 13, |s, e| {
                        sum.fetch_add((s..e).sum::<usize>(), Ordering::Relaxed);
                    });
                    assert_eq!(sum.load(Ordering::Relaxed), 999 * 1000 / 2);
                });
            }
        });
    }

    #[test]
    fn panics_propagate_to_submitter() {
        let res = std::panic::catch_unwind(|| {
            // Check containment, not the range start: on a 1-CPU host
            // the pool runs inline and the body sees one range 0..100.
            Pool::global().dispatch(100, 1, |s, e| {
                if (s..e).contains(&57) {
                    panic!("boom");
                }
            });
        });
        assert!(res.is_err());
    }
}
