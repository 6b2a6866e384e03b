//! The persistent amplitude worker pool.
//!
//! Chunk-parallel kernels (see [`crate::kernels`]) split one gate's sweep
//! over the amplitude array into disjoint index ranges and execute them
//! concurrently. Spawning OS threads per gate would dwarf the sweep itself
//! (a compiled run applies thousands of kernels), so each
//! [`StateVector`](crate::StateVector) that runs with more than one
//! amplitude lane (`with_amp_threads`) owns one [`AmpPool`]: `threads − 1` parked worker threads plus the
//! calling thread, woken per kernel call and re-parked after a barrier.
//!
//! The pool is deliberately minimal: one job at a time (the owning
//! simulator is `&mut` during execution, so calls never overlap), fixed
//! chunk→worker assignment (worker `w` runs chunk `w`, the caller runs
//! chunk 0), and a condvar barrier. Determinism lives one layer up —
//! chunk *boundaries* are pure functions of the work size and thread
//! count, and every chunk writes disjoint amplitudes, so results are
//! bit-identical to serial execution no matter how chunks are scheduled.
//!
//! ## Why `unsafe` (and why it is sound)
//!
//! Persistent workers outlive any one kernel call, but the job closure
//! borrows the amplitude array of that call. [`AmpPool::run`] erases the
//! closure's lifetime to hand it to the workers, which is sound because
//! the call *blocks* until every worker has acknowledged completion — the
//! borrow is dead before `run` returns, and workers never touch a task
//! pointer after acknowledging it.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A persistent pool of amplitude worker threads (see the module docs).
pub(crate) struct AmpPool {
    shared: Arc<Shared>,
    threads: usize,
    handles: Vec<JoinHandle<()>>,
}

struct Shared {
    state: Mutex<State>,
    /// Workers wait here for a new job epoch.
    work: Condvar,
    /// The caller waits here for `pending == 0`.
    done: Condvar,
}

struct State {
    /// Bumped once per job; workers run each epoch exactly once.
    epoch: u64,
    job: Option<Job>,
    /// Workers that have not yet acknowledged the current epoch.
    pending: usize,
    /// A worker's chunk panicked (re-raised on the calling thread).
    panicked: bool,
    shutdown: bool,
}

#[derive(Clone, Copy)]
struct Job {
    task: TaskPtr,
    chunks: usize,
}

/// A lifetime-erased pointer to the job closure.
#[derive(Clone, Copy)]
struct TaskPtr(*const (dyn Fn(usize) + Sync));

// SAFETY: the referent is `Sync` (shared references may cross threads) and
// the pointer is only dereferenced between job publication and the final
// acknowledgement, while `AmpPool::run` keeps the underlying closure alive
// on the calling thread's stack.
#[allow(unsafe_code)]
unsafe impl Send for TaskPtr {}

impl AmpPool {
    /// A pool executing with `threads` total lanes: `threads − 1` spawned
    /// workers plus the calling thread.
    ///
    /// Panic triage: the `expect`s in this module are deliberate. Spawn
    /// failure means the OS refused a thread — no caller input reaches
    /// that — and every `expect("pool lock")` fires only on mutex
    /// poisoning, i.e. after a worker already panicked, which `run`
    /// re-raises on the calling thread anyway. Converting them to
    /// `SimError`s would thread fallibility through every gate kernel for
    /// states that are unreachable without a prior abort-worthy bug.
    pub(crate) fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                epoch: 0,
                job: None,
                pending: 0,
                panicked: false,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (1..threads)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mbu-amp-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    .expect("spawn amplitude worker")
            })
            .collect();
        Self {
            shared,
            threads,
            handles,
        }
    }

    /// Total execution lanes (workers + the calling thread).
    pub(crate) fn threads(&self) -> usize {
        self.threads
    }

    /// Executes `f(0)`, `f(1)`, …, `f(chunks − 1)` concurrently (chunk 0 on
    /// the calling thread) and returns once every chunk has finished.
    /// `chunks` must not exceed [`threads`](Self::threads); chunks must
    /// touch disjoint data.
    ///
    /// # Panics
    ///
    /// Re-raises (as a panic on the calling thread) if any worker chunk
    /// panicked.
    pub(crate) fn run(&self, chunks: usize, f: &(dyn Fn(usize) + Sync)) {
        debug_assert!(chunks <= self.threads, "{chunks} chunks > {}", self.threads);
        if chunks <= 1 || self.handles.is_empty() {
            for c in 0..chunks {
                f(c);
            }
            return;
        }
        // SAFETY: the erased borrow outlives the job because this function
        // blocks on `pending == 0` below before returning; workers stop
        // dereferencing the pointer before decrementing `pending`.
        #[allow(unsafe_code)]
        let task = TaskPtr(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
        });
        {
            let mut st = self.shared.state.lock().expect("pool lock");
            st.job = Some(Job { task, chunks });
            st.epoch += 1;
            st.pending = self.handles.len();
            self.shared.work.notify_all();
        }
        // The caller's own chunk must not unwind past the completion
        // barrier below: workers still hold the lifetime-erased task
        // pointer until they acknowledge, so an unguarded panic here would
        // free the closure (and the amplitude borrow) under them. Catch,
        // drain the barrier, then re-raise.
        let caller = catch_unwind(AssertUnwindSafe(|| f(0)));
        let mut st = self.shared.state.lock().expect("pool lock");
        while st.pending > 0 {
            st = self.shared.done.wait(st).expect("pool lock");
        }
        st.job = None;
        let worker_panicked = std::mem::take(&mut st.panicked);
        drop(st);
        if let Err(payload) = caller {
            std::panic::resume_unwind(payload);
        }
        assert!(!worker_panicked, "amplitude worker panicked");
    }
}

impl Drop for AmpPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("pool lock");
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl fmt::Debug for AmpPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AmpPool")
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

/// One worker: waits for a fresh epoch, runs its assigned chunk (worker
/// `index` owns chunk `index`; the caller owns chunk 0), acknowledges.
fn worker_loop(shared: &Shared, index: usize) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().expect("pool lock");
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen {
                    if let Some(job) = st.job {
                        seen = st.epoch;
                        break job;
                    }
                }
                st = shared.work.wait(st).expect("pool lock");
            }
        };
        let ok = if index < job.chunks {
            // SAFETY: `AmpPool::run` keeps the closure alive until this
            // worker (and all others) acknowledge below.
            #[allow(unsafe_code)]
            let f = unsafe { &*job.task.0 };
            catch_unwind(AssertUnwindSafe(|| f(index))).is_ok()
        } else {
            true
        };
        let mut st = shared.state.lock().expect("pool lock");
        if !ok {
            st.panicked = true;
        }
        st.pending -= 1;
        if st.pending == 0 {
            shared.done.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn every_chunk_runs_exactly_once() {
        let pool = AmpPool::new(4);
        for chunks in [1, 2, 3, 4] {
            let hits: Vec<AtomicUsize> = (0..chunks).map(|_| AtomicUsize::new(0)).collect();
            pool.run(chunks, &|c| {
                hits[c].fetch_add(1, Ordering::SeqCst);
            });
            for (c, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::SeqCst), 1, "chunk {c} of {chunks}");
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)] // oversized for the miri CI leg
    fn sequential_jobs_reuse_the_same_workers() {
        let pool = AmpPool::new(3);
        let total = AtomicUsize::new(0);
        for _ in 0..100 {
            pool.run(3, &|c| {
                total.fetch_add(c + 1, Ordering::SeqCst);
            });
        }
        assert_eq!(total.load(Ordering::SeqCst), 600);
    }

    #[test]
    fn single_lane_pool_runs_inline() {
        let pool = AmpPool::new(1);
        let hits = AtomicUsize::new(0);
        pool.run(1, &|_| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn caller_chunk_panics_drain_the_barrier_first() {
        // A panic in chunk 0 (the caller's) must still wait for the
        // workers before unwinding — otherwise they would dereference the
        // dangling task closure — and must leave the pool reusable.
        let pool = AmpPool::new(3);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(3, &|c| assert_ne!(c, 0, "caller chunk panics"));
        }));
        assert!(result.is_err());
        let hits = AtomicUsize::new(0);
        pool.run(3, &|_| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn worker_panics_propagate_to_the_caller() {
        let pool = AmpPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(2, &|c| assert_ne!(c, 1, "chunk 1 panics"));
        }));
        assert!(result.is_err());
        // The pool survives and stays usable.
        let hits = AtomicUsize::new(0);
        pool.run(2, &|_| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 2);
    }
}
