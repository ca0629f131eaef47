//! Scoped worker pool: data-parallel `par_map` / `par_chunks` on
//! borrowed data plus a work-stealing task scheduler ([`Pool::scope`]),
//! built on [`std::thread::scope`].
//!
//! This is the fan-out engine for Algorithm 1's exploration loop, in
//! two shapes:
//!
//! - **Uniform maps** ([`par_map`] / [`par_map_indices`]): a fixed set
//!   of n independent tasks. Workers pull indices from a shared atomic
//!   counter — dynamic scheduling, so a few expensive states (large
//!   persisted sets, deep recovery) don't stall a statically
//!   partitioned worker.
//! - **Pipelined stages** ([`Pool::scope`]): tasks submitted *while
//!   earlier ones run*, each returning a [`TaskHandle`]. Workers own
//!   per-worker deques and steal from each other when their own runs
//!   dry (`pool.steals` counter), so a sequential producer (e.g. the
//!   legal-state replay loop, which needs `&mut` caches) overlaps with
//!   parallel consumers (per-state verdicts) instead of the stages
//!   joining at a barrier.
//!
//! Results always come back **in input order** (maps) or **by handle**
//! (scope) whatever order workers finish in, and a panic in any map
//! task propagates to the caller once all workers have stopped — the
//! same contract `rayon`'s `par_iter().map()` provided, so call sites
//! swap over mechanically. Scope tasks catch panics into
//! `Err(message)` on their handle instead.
//!
//! The worker count is decided per [`Pool`]: explicitly via
//! [`Pool::with_threads`], or from the environment via [`Pool::new`]
//! (the `PC_THREADS` variable, else [`std::thread::available_parallelism`]).
//! `PC_THREADS=1` degenerates to a sequential loop on the calling
//! thread, which is the reference behaviour for determinism tests.
//!
//! # Example
//!
//! ```
//! use pc_rt::pool::{self, Pool};
//!
//! // Free function: pool sized from PC_THREADS / the machine.
//! let doubled = pool::par_map(&[1, 2, 3], |&x| x * 2);
//! assert_eq!(doubled, vec![2, 4, 6]);
//!
//! // Explicit pool: deterministic single-threaded reference run.
//! let seq = Pool::with_threads(1).par_map(&[1, 2, 3], |&x| x * 2);
//! assert_eq!(seq, doubled);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Environment variable overriding the default worker count.
pub const THREADS_ENV: &str = "PC_THREADS";

/// Number of workers a default-configured pool will use: `PC_THREADS`
/// if set to a positive integer, otherwise the machine's available
/// parallelism (1 if that cannot be determined).
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A worker-pool configuration.
///
/// Threads are not kept alive between calls: each `par_*` call spawns
/// scoped workers and joins them before returning. The tasks this pool
/// exists for (crash-state reconstruction, legal-state replay) cost
/// milliseconds to seconds each, so thread spawn overhead (~10 µs) is
/// noise; what matters is the dynamic index queue keeping all cores
/// busy on skewed workloads.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    threads: usize,
}

impl Default for Pool {
    fn default() -> Self {
        Pool::new()
    }
}

impl Pool {
    /// Pool sized by `PC_THREADS` / available parallelism.
    pub fn new() -> Pool {
        Pool {
            threads: default_threads(),
        }
    }

    /// Pool with an explicit worker count (`n == 0` is treated as 1).
    pub fn with_threads(n: usize) -> Pool {
        Pool { threads: n.max(1) }
    }

    /// The worker count this pool will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Apply `f` to every element of `items`, in parallel, returning
    /// results in input order.
    pub fn par_map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        self.par_map_indices(items.len(), |i| f(&items[i]))
    }

    /// Apply `f` to every index in `0..n`, in parallel, returning
    /// results in index order. This is the primitive the other `par_*`
    /// entry points reduce to; call it directly when the task needs the
    /// index itself (e.g. to address several parallel slices at once).
    pub fn par_map_indices<U, F>(&self, n: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        let workers = self.threads.min(n.max(1));
        // Telemetry (off by default: one relaxed atomic load). The
        // sequential fast path records the *same* counters as the
        // parallel one, so totals are deterministic across PC_THREADS.
        let t_on = crate::obs::enabled();
        let _span = t_on.then(|| crate::obs::span_cat("pool.par_map", "pool"));
        if t_on {
            crate::obs::count("pool.par_calls", 1);
            crate::obs::count("pool.tasks_queued", n as u64);
            crate::obs::gauge_max("pool.workers", workers as u64);
            crate::obs::gauge_max("pool.max_queue_depth", n as u64);
        }
        let run_one = |i: usize| -> U {
            if t_on {
                let t = Instant::now();
                let out = f(i);
                let ns = t.elapsed().as_nanos() as u64;
                crate::obs::count("pool.tasks_executed", 1);
                crate::obs::count("pool.busy_ns", ns);
                crate::obs::observe_ns("pool.task_ns", ns);
                out
            } else {
                f(i)
            }
        };
        if workers <= 1 || n <= 1 {
            return (0..n).map(run_one).collect();
        }
        let next = AtomicUsize::new(0);
        let mut slots: Vec<Option<U>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        let slots = Mutex::new(&mut slots);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    crate::obs::prof::register_thread();
                    // Batch completed results locally; take the shared
                    // lock once per batch, not once per item.
                    let mut done: Vec<(usize, U)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        done.push((i, run_one(i)));
                        if done.len() >= 32 {
                            let mut guard = slots.lock().unwrap();
                            for (j, v) in done.drain(..) {
                                guard[j] = Some(v);
                            }
                        }
                    }
                    let mut guard = slots.lock().unwrap();
                    for (j, v) in done {
                        guard[j] = Some(v);
                    }
                });
            }
        });
        slots
            .into_inner()
            .unwrap()
            .drain(..)
            .map(|v| v.expect("every index produced"))
            .collect()
    }

    /// Like [`Pool::par_map_indices`], but a panicking task yields
    /// `Err(panic message)` for its own index instead of propagating and
    /// aborting the whole map — the harness-survives-hostile-states
    /// primitive the checker's verdict fan-out runs on (one poisoned
    /// crash state becomes a diagnostic entry, not a dead run).
    ///
    /// The caught panic still goes through the process's panic hook
    /// (its message may print to stderr); only the unwind is contained.
    pub fn par_map_indices_caught<U, F>(&self, n: usize, f: F) -> Vec<Result<U, String>>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        self.par_map_indices(n, |i| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i)))
                .map_err(|e| panic_message(e.as_ref()))
        })
    }

    /// Apply `f` to consecutive chunks of `items` (each of length
    /// `chunk` except possibly the last), in parallel, returning the
    /// per-chunk results in chunk order.
    ///
    /// # Panics
    ///
    /// Panics if `chunk == 0`.
    pub fn par_chunks<T, U, F>(&self, items: &[T], chunk: usize, f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&[T]) -> U + Sync,
    {
        assert!(chunk > 0, "par_chunks with chunk size 0");
        // Schedule by chunk *index* — no up-front Vec of slices, so a
        // huge `items` with a small `chunk` costs O(workers) setup, not
        // O(items / chunk) allocation before any work starts.
        let n_chunks = items.len().div_ceil(chunk);
        self.par_map_indices(n_chunks, |i| {
            let start = i * chunk;
            let end = (start + chunk).min(items.len());
            f(&items[start..end])
        })
    }

    /// Run `body` with a work-stealing [`TaskScope`]: tasks spawned via
    /// [`TaskScope::spawn`] execute on this pool's workers while `body`
    /// keeps running, and each returns a [`TaskHandle`] to join on.
    ///
    /// This is the pipelining primitive: a sequential producer (holding
    /// `&mut` state) spawns each consumer task as soon as its input is
    /// ready, instead of finishing the whole producer stage and then
    /// fanning out behind a barrier. Workers pop their own deque and
    /// steal from siblings when idle (`pool.steals` counter).
    ///
    /// With one worker (`PC_THREADS=1`), spawned tasks run **inline**
    /// inside `spawn` — the deterministic sequential reference: the
    /// interleaving is exactly "producer step i, then task i".
    ///
    /// Panics inside a task are caught and surface as `Err(message)`
    /// from [`TaskHandle::join`], never aborting sibling tasks.
    pub fn scope<'env, R>(&self, body: impl FnOnce(&TaskScope<'_, 'env>) -> R) -> R {
        let workers = self.threads.max(1).saturating_sub(1).min(MAX_SCOPE_WORKERS);
        let t_on = crate::obs::enabled();
        // The scope span is the wall-time denominator the summary's
        // pool-utilization line divides busy time by.
        let _span = t_on.then(|| crate::obs::span_cat("pool.scope", "pool"));
        if t_on {
            crate::obs::count("pool.scope_calls", 1);
            crate::obs::gauge_max("pool.workers", self.threads.max(1) as u64);
        }
        if workers == 0 {
            let sched = Sched::new(0, t_on);
            let scope = TaskScope { sched: &sched };
            return body(&scope);
        }
        let sched = Sched::new(workers, t_on);
        std::thread::scope(|ts| {
            for w in 0..workers {
                let sched = &sched;
                ts.spawn(move || {
                    crate::obs::prof::register_thread();
                    sched.worker_loop(w)
                });
            }
            let scope = TaskScope { sched: &sched };
            let out = body(&scope);
            sched.finish();
            out
        })
    }
}

/// Upper bound on scope workers — deques are scanned linearly when
/// stealing, so keep the fan-in sane even on very wide machines.
const MAX_SCOPE_WORKERS: usize = 64;

type Job<'env> = Box<dyn FnOnce() + Send + 'env>;

/// Shared scheduler state for one [`Pool::scope`] call: per-worker
/// deques plus a condvar-guarded account of outstanding work.
struct Sched<'env> {
    deques: Vec<Mutex<std::collections::VecDeque<Job<'env>>>>,
    /// (queued-but-unclaimed tasks, producer finished).
    state: Mutex<(usize, bool)>,
    wake: Condvar,
    /// Round-robin cursor for spawn placement.
    next: AtomicUsize,
    telemetry: bool,
}

impl<'env> Sched<'env> {
    fn new(workers: usize, telemetry: bool) -> Sched<'env> {
        Sched {
            deques: (0..workers)
                .map(|_| Mutex::new(std::collections::VecDeque::new()))
                .collect(),
            state: Mutex::new((0, false)),
            wake: Condvar::new(),
            next: AtomicUsize::new(0),
            telemetry,
        }
    }

    fn push(&self, job: Job<'env>) {
        let w = self.next.fetch_add(1, Ordering::Relaxed) % self.deques.len();
        // Count the job before it becomes claimable: a worker that claims
        // it first would otherwise decrement the count below zero.
        let mut st = self.state.lock().unwrap();
        st.0 += 1;
        if self.telemetry {
            crate::obs::count("pool.tasks_queued", 1);
            crate::obs::gauge_max("pool.max_queue_depth", st.0 as u64);
        }
        drop(st);
        self.deques[w].lock().unwrap().push_back(job);
        self.wake.notify_one();
    }

    /// Mark the producer done and wake everyone so idle workers can
    /// observe termination.
    fn finish(&self) {
        self.state.lock().unwrap().1 = true;
        self.wake.notify_all();
    }

    /// Claim one job: own deque from the back (LIFO, cache-warm), then
    /// steal from siblings from the front (FIFO, oldest first).
    fn claim(&self, me: usize) -> Option<Job<'env>> {
        if let Some(job) = self.deques[me].lock().unwrap().pop_back() {
            return Some(job);
        }
        for off in 1..self.deques.len() {
            let victim = (me + off) % self.deques.len();
            if let Some(job) = self.deques[victim].lock().unwrap().pop_front() {
                if self.telemetry {
                    crate::obs::count("pool.steals", 1);
                }
                return Some(job);
            }
        }
        None
    }

    fn worker_loop(&self, me: usize) {
        loop {
            if let Some(job) = self.claim(me) {
                self.state.lock().unwrap().0 -= 1;
                if self.telemetry {
                    let t = Instant::now();
                    job();
                    let ns = t.elapsed().as_nanos() as u64;
                    crate::obs::count("pool.tasks_executed", 1);
                    crate::obs::count("pool.busy_ns", ns);
                    crate::obs::observe_ns("pool.task_ns", ns);
                } else {
                    job();
                }
                continue;
            }
            let st = self.state.lock().unwrap();
            if st.0 == 0 && st.1 {
                return;
            }
            if st.0 == 0 {
                // Nothing queued and the producer is still running:
                // sleep until a push or finish wakes us.
                drop(self.wake.wait(st).unwrap());
            }
            // st.0 > 0: a job appeared between claim() and the lock —
            // loop and try to claim it.
        }
    }
}

/// Handle to a task spawned on a [`TaskScope`]; [`join`](Self::join)
/// blocks until the task finishes and yields its result (`Err` holds
/// the panic message if the task panicked).
pub struct TaskHandle<T> {
    cell: std::sync::Arc<(Mutex<Option<Result<T, String>>>, Condvar)>,
}

impl<T> TaskHandle<T> {
    fn new() -> TaskHandle<T> {
        TaskHandle {
            cell: std::sync::Arc::new((Mutex::new(None), Condvar::new())),
        }
    }

    fn fill(&self, value: Result<T, String>) {
        let (slot, cv) = &*self.cell;
        *slot.lock().unwrap() = Some(value);
        cv.notify_all();
    }

    /// Wait for the task and take its result.
    pub fn join(self) -> Result<T, String> {
        let (slot, cv) = &*self.cell;
        let mut guard = slot.lock().unwrap();
        loop {
            if let Some(v) = guard.take() {
                return v;
            }
            guard = cv.wait(guard).unwrap();
        }
    }
}

/// The spawning surface handed to [`Pool::scope`]'s closure.
///
/// `'env` is the lifetime of borrows the tasks may capture (everything
/// declared outside the `scope` call); all tasks complete before
/// `scope` returns, exactly like [`std::thread::scope`].
pub struct TaskScope<'sched, 'env> {
    sched: &'sched Sched<'env>,
}

impl<'env> TaskScope<'_, 'env> {
    /// Submit `f` to the pool, returning a handle to its result.
    ///
    /// On a single-threaded pool this runs `f` inline (catching panics
    /// identically) — the sequential reference interleaving.
    pub fn spawn<T, F>(&self, f: F) -> TaskHandle<T>
    where
        T: Send + 'env,
        F: FnOnce() -> T + Send + 'env,
    {
        let handle = TaskHandle::new();
        let result_cell = TaskHandle {
            cell: handle.cell.clone(),
        };
        let run = move || {
            let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
                .map_err(|e| panic_message(e.as_ref()));
            result_cell.fill(out);
        };
        if self.sched.deques.is_empty() {
            // Inline (single-threaded) path: record the same counters
            // the worker loop would, so task totals stay deterministic
            // across PC_THREADS widths.
            if self.sched.telemetry {
                crate::obs::count("pool.tasks_queued", 1);
                let t = Instant::now();
                run();
                let ns = t.elapsed().as_nanos() as u64;
                crate::obs::count("pool.tasks_executed", 1);
                crate::obs::count("pool.busy_ns", ns);
                crate::obs::observe_ns("pool.task_ns", ns);
            } else {
                run();
            }
        } else {
            self.sched.push(Box::new(run));
        }
        handle
    }
}

/// [`Pool::par_map`] on a default-configured pool.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    Pool::new().par_map(items, f)
}

/// [`Pool::par_map_indices`] on a default-configured pool.
pub fn par_map_indices<U, F>(n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    Pool::new().par_map_indices(n, f)
}

/// [`Pool::par_map_indices_caught`] on a default-configured pool.
pub fn par_map_indices_caught<U, F>(n: usize, f: F) -> Vec<Result<U, String>>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    Pool::new().par_map_indices_caught(n, f)
}

/// [`Pool::scope`] on a default-configured pool.
pub fn scope<'env, R>(body: impl FnOnce(&TaskScope<'_, 'env>) -> R) -> R {
    Pool::new().scope(body)
}

/// Extract a human-readable message from a caught panic payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// [`Pool::par_chunks`] on a default-configured pool.
pub fn par_chunks<T, U, F>(items: &[T], chunk: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&[T]) -> U + Sync,
{
    Pool::new().par_chunks(items, chunk, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn par_map_preserves_input_order() {
        for threads in [1, 2, 4, 8] {
            let pool = Pool::with_threads(threads);
            let items: Vec<usize> = (0..257).collect();
            let out = pool.par_map(&items, |&x| x * 3);
            assert_eq!(out, items.iter().map(|&x| x * 3).collect::<Vec<_>>());
        }
    }

    /// The single-threaded pool and multi-threaded pools must agree on
    /// every output — the determinism contract check.rs relies on.
    #[test]
    fn single_vs_multi_thread_results_are_identical() {
        let items: Vec<u64> = (0..1000).collect();
        let f = |&x: &u64| x.wrapping_mul(0x9E37_79B9).rotate_left(13) ^ x;
        let seq = Pool::with_threads(1).par_map(&items, f);
        for threads in [2, 3, 7] {
            let par = Pool::with_threads(threads).par_map(&items, f);
            assert_eq!(seq, par, "{threads} threads diverged");
        }
    }

    #[test]
    fn all_tasks_run_exactly_once() {
        let counter = AtomicUsize::new(0);
        let out = Pool::with_threads(4).par_map_indices(123, |i| {
            counter.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(counter.load(Ordering::Relaxed), 123);
        assert_eq!(out, (0..123).collect::<Vec<_>>());
    }

    #[test]
    fn multiple_workers_actually_participate() {
        use std::sync::Mutex;
        // With heavy-ish tasks and 4 workers, more than one OS thread
        // must execute tasks (guards against a silently sequential pool).
        let ids: Mutex<Vec<std::thread::ThreadId>> = Mutex::new(Vec::new());
        Pool::with_threads(4).par_map_indices(64, |_| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            let id = std::thread::current().id();
            let mut guard = ids.lock().unwrap();
            if !guard.contains(&id) {
                guard.push(id);
            }
        });
        assert!(ids.lock().unwrap().len() > 1);
    }

    #[test]
    fn par_chunks_covers_everything_including_ragged_tail() {
        let items: Vec<u32> = (0..103).collect();
        let sums = Pool::with_threads(3).par_chunks(&items, 10, |c| c.iter().sum::<u32>());
        assert_eq!(sums.len(), 11);
        assert_eq!(sums.iter().sum::<u32>(), items.iter().sum::<u32>());
        assert_eq!(sums[10], (100..103).sum::<u32>());
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(Pool::new().par_map(&empty, |&x| x).is_empty());
        assert_eq!(Pool::new().par_map(&[9], |&x: &u8| x + 1), vec![10]);
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            Pool::with_threads(4).par_map_indices(50, |i| {
                if i == 17 {
                    panic!("boom");
                }
                i
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn with_threads_zero_means_one() {
        assert_eq!(Pool::with_threads(0).threads(), 1);
    }

    #[test]
    fn caught_map_turns_panics_into_errors_and_keeps_the_rest() {
        // Quiet hook: the panics below are intentional.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        for threads in [1, 4] {
            let out = Pool::with_threads(threads).par_map_indices_caught(20, |i| {
                if i % 7 == 3 {
                    panic!("poisoned state {i}");
                }
                i * 2
            });
            assert_eq!(out.len(), 20);
            for (i, r) in out.iter().enumerate() {
                if i % 7 == 3 {
                    let msg = r.as_ref().unwrap_err();
                    assert!(msg.contains(&format!("poisoned state {i}")), "{msg}");
                } else {
                    assert_eq!(*r.as_ref().unwrap(), i * 2);
                }
            }
        }
        std::panic::set_hook(prev);
    }

    #[test]
    fn scope_tasks_all_run_and_join_in_order() {
        for threads in [1, 2, 4, 8] {
            let pool = Pool::with_threads(threads);
            let out: Vec<u64> = pool.scope(|sc| {
                let handles: Vec<_> = (0..100u64).map(|i| sc.spawn(move || i * 7)).collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert_eq!(out, (0..100).map(|i| i * 7).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn scope_pipelines_producer_and_consumers() {
        // A sequential producer holding &mut state spawns a task per
        // step; tasks borrow the produced value. The &mut producer
        // state and shared task captures coexist — the shape check.rs
        // uses for legal-states → verdict overlap.
        let inputs: Vec<std::sync::OnceLock<u64>> = (0..50).map(|_| Default::default()).collect();
        let mut produced = 0u64; // &mut state only the producer touches
        let total: u64 = Pool::with_threads(4).scope(|sc| {
            let mut handles = Vec::new();
            for cell in &inputs {
                produced += 1;
                cell.set(produced).unwrap();
                handles.push(sc.spawn(move || cell.get().copied().unwrap() * 2));
            }
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(total, (1..=50).map(|i| i * 2).sum::<u64>());
        assert_eq!(produced, 50);
    }

    #[test]
    fn scope_catches_panics_per_task() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        for threads in [1, 4] {
            let results: Vec<Result<usize, String>> = Pool::with_threads(threads).scope(|sc| {
                let handles: Vec<_> = (0..10)
                    .map(|i| {
                        sc.spawn(move || {
                            if i == 3 {
                                panic!("scope task {i} poisoned");
                            }
                            i
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join()).collect()
            });
            for (i, r) in results.iter().enumerate() {
                if i == 3 {
                    assert!(r.as_ref().unwrap_err().contains("poisoned"), "{r:?}");
                } else {
                    assert_eq!(*r.as_ref().unwrap(), i);
                }
            }
        }
        std::panic::set_hook(prev);
    }

    #[test]
    fn scope_multiple_workers_participate_and_steal() {
        use std::sync::Mutex;
        let ids: Mutex<Vec<std::thread::ThreadId>> = Mutex::new(Vec::new());
        Pool::with_threads(5).scope(|sc| {
            let handles: Vec<_> = (0..64)
                .map(|_| {
                    sc.spawn(|| {
                        std::thread::sleep(std::time::Duration::from_millis(2));
                        let id = std::thread::current().id();
                        let mut guard = ids.lock().unwrap();
                        if !guard.contains(&id) {
                            guard.push(id);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        assert!(ids.lock().unwrap().len() > 1, "only one worker ran tasks");
    }

    #[test]
    fn scope_tasks_spawned_late_still_run_after_body_returns_handles() {
        // Handles may be joined inside the scope in any order, including
        // immediately after spawn (producer-consumer lockstep).
        let out = Pool::with_threads(3).scope(|sc| {
            let mut acc = Vec::new();
            for i in 0..20 {
                let h = sc.spawn(move || i + 100);
                acc.push(h.join().unwrap());
            }
            acc
        });
        assert_eq!(out, (100..120).collect::<Vec<_>>());
    }

    #[test]
    fn par_chunks_does_not_materialize_chunk_list() {
        // Behavioural pin for the index-scheduled rewrite: a large item
        // count with chunk size 1 must still cover everything (the old
        // implementation allocated one slice per chunk up front).
        let items: Vec<u32> = (0..10_000).collect();
        let sums = Pool::with_threads(4).par_chunks(&items, 1, |c| c.iter().sum::<u32>());
        assert_eq!(sums.len(), 10_000);
        assert_eq!(sums.iter().sum::<u32>(), items.iter().sum::<u32>());
    }

    #[test]
    fn caught_map_handles_non_string_panics() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = Pool::with_threads(2).par_map_indices_caught(3, |i| {
            if i == 1 {
                std::panic::panic_any(42usize);
            }
            i
        });
        assert!(out[1].as_ref().unwrap_err().contains("non-string"));
        assert_eq!(*out[0].as_ref().unwrap(), 0);
        std::panic::set_hook(prev);
    }
}
