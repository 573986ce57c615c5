//! Offline stand-in for the `rayon` crate.
//!
//! Provides one fan-out primitive, [`scoped_join`]: a flat scoped
//! fork/join over a small mutable task slice, run on a lazily-initialized
//! persistent worker pool. The simulator's per-processor closures and the
//! sweep drivers both fan out with it. The caller runs the first chunk
//! itself and, while waiting, runs its own fan-out's chunks that no worker
//! took yet. Nested fan-outs run inline,
//! so they cannot deadlock the fixed-width pool.
//!
//! Differences from real rayon, acceptable for this workspace:
//! - no work-stealing: chunks are static, fine for the uniform-cost tasks
//!   the simulator hands over;
//! - nested parallelism degrades to inline sequential execution: a task
//!   already running inside a fan-out drives `scoped_join` on its own
//!   thread (outer fan-outs own the pool; inner ones must not queue behind
//!   their parent). "Inside a fan-out" means on a pool worker, or on a
//!   `scoped_join` caller while it runs its own chunk and help-drains, so
//!   every task of a fan-out sees the same [`in_pool_worker`] answer;
//! - a panic in a chunk re-raises its original payload on the caller once
//!   every chunk finished: the caller's own chunk's payload, else the
//!   first one a worker reported;
//! - there is no sequential cutoff: callers decide when a fan-out pays.
//!
//! Thread count comes from `RAYON_NUM_THREADS` if set (like real rayon),
//! else `std::thread::available_parallelism()`, capped at [`MAX_PIECES`],
//! and is latched on first use. Workers are spawned once and live for the
//! process lifetime; an idle pool costs nothing but parked threads.

pub use pool::MAX_PIECES;

/// The pool width this process dispatches across (caller thread included).
/// Latches `RAYON_NUM_THREADS` / `available_parallelism` on first call.
pub fn current_num_threads() -> usize {
    pool::thread_count()
}

/// `true` inside a fan-out — on a pool worker thread, or on a
/// [`scoped_join`] caller while it runs its own chunk and help-drains —
/// where further parallel calls run inline instead of re-entering the pool.
pub fn in_pool_worker() -> bool {
    pool::is_nested()
}

/// Scoped flat fork/join: runs `f(index, &mut tasks[index])` for every
/// element of `tasks`, fanned across the pool, and returns when all calls
/// finished. There is **no sequential cutoff**: even two tasks dispatch in
/// parallel, because callers (the machine's closure chunks, grid-sweep
/// drivers) hand over a handful of coarse tasks whose bodies dwarf the
/// latch handshake.
///
/// Guarantees:
/// - tasks are chunked contiguously (one task per chunk while the task
///   count fits [`MAX_PIECES`]), so effects on `tasks` are exactly the
///   sequential loop's once the join completes;
/// - the caller executes the first chunk itself and *help-drains* its
///   own chunks that are still queued while waiting, so a `scoped_join`
///   issued while other fan-outs occupy the workers still makes
///   progress; it never runs another fan-out's chunk, which would put
///   that work inside the caller's thread-local scopes;
/// - on a pool worker or inside another fan-out's task (nested use), or
///   on a single-thread pool, it degrades to the inline sequential loop;
/// - while the caller runs its chunk and help-drains it counts as nested
///   too, so parallel calls from any task run inline on that task's
///   thread instead of queueing behind the fan-out's other chunks;
/// - no heap allocation: chunk descriptors live on the caller's stack.
///
/// A panic in `f` propagates to the caller with its original payload,
/// after all chunks complete.
pub fn scoped_join<T, F>(tasks: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    stats::count_scoped_join();
    if tasks.len() <= 1 || pool::thread_count() <= 1 || pool::is_nested() {
        for (i, t) in tasks.iter_mut().enumerate() {
            f(i, t);
        }
        return;
    }
    pool::fan_out(tasks, &f);
}

pub mod stats {
    //! Gated pool counters for the tracing layer (`pcm-trace`).
    //!
    //! All counters are process-global relaxed atomics, so recording is
    //! lock-free and allocation-free on every path (worker loop, help
    //! drain). When disabled — the default — every instrumentation site is
    //! a single relaxed bool load, which is the shim's zero-cost-when-off
    //! contract. Counts are inherently non-deterministic (they depend on
    //! scheduling), so they belong in diagnostics output only, never in
    //! committed reports.

    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::time::Instant;

    static ENABLED: AtomicBool = AtomicBool::new(false);
    static JOBS: AtomicU64 = AtomicU64::new(0);
    static HELPED: AtomicU64 = AtomicU64::new(0);
    static PARKS: AtomicU64 = AtomicU64::new(0);
    static SCOPED_JOINS: AtomicU64 = AtomicU64::new(0);
    static FAN_OUTS: AtomicU64 = AtomicU64::new(0);
    static BUSY_NS: AtomicU64 = AtomicU64::new(0);

    /// Snapshot of the pool counters since the last [`reset`].
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct PoolStats {
        /// Jobs executed by dedicated pool workers.
        pub jobs: u64,
        /// Jobs a blocked caller executed while help-draining the queue.
        pub helped_jobs: u64,
        /// Idle waits: worker condvar waits plus help-drain parks.
        pub parks: u64,
        /// `scoped_join` calls (inline or fanned).
        pub scoped_joins: u64,
        /// `scoped_join` calls that actually dispatched to the pool.
        pub fan_outs: u64,
        /// Wall nanoseconds workers (and helpers) spent inside jobs.
        pub busy_ns: u64,
    }

    /// Turns counting on or off (off by default).
    pub fn enable(on: bool) {
        ENABLED.store(on, Ordering::Relaxed);
    }

    /// Whether counting is currently enabled.
    pub fn enabled() -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    /// Current counter values.
    pub fn snapshot() -> PoolStats {
        PoolStats {
            jobs: JOBS.load(Ordering::Relaxed),
            helped_jobs: HELPED.load(Ordering::Relaxed),
            parks: PARKS.load(Ordering::Relaxed),
            scoped_joins: SCOPED_JOINS.load(Ordering::Relaxed),
            fan_outs: FAN_OUTS.load(Ordering::Relaxed),
            busy_ns: BUSY_NS.load(Ordering::Relaxed),
        }
    }

    /// Zeroes every counter.
    pub fn reset() {
        for c in [&JOBS, &HELPED, &PARKS, &SCOPED_JOINS, &FAN_OUTS, &BUSY_NS] {
            c.store(0, Ordering::Relaxed);
        }
    }

    /// Counts a job and begins its span — `None` (and no clock read)
    /// when disabled. The count comes first: a job releases its fan-out's
    /// latch from inside, so a count taken after it could miss a snapshot
    /// the released caller takes.
    #[inline]
    pub(crate) fn job_start(helped: bool) -> Option<Instant> {
        if !enabled() {
            return None;
        }
        let counter = if helped { &HELPED } else { &JOBS };
        counter.fetch_add(1, Ordering::Relaxed);
        Some(Instant::now())
    }

    /// Ends a job span begun by [`job_start`].
    #[inline]
    pub(crate) fn job_end(t: Option<Instant>) {
        let Some(t) = t else { return };
        let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        BUSY_NS.fetch_add(ns, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn count_park() {
        if enabled() {
            PARKS.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[inline]
    pub(crate) fn count_scoped_join() {
        if enabled() {
            SCOPED_JOINS.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[inline]
    pub(crate) fn count_fan_out() {
        if enabled() {
            FAN_OUTS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

mod pool {
    //! The persistent worker pool and the scoped fork/join built on it.
    //!
    //! `fan_out` parks chunk descriptors on the *caller's stack*, enqueues
    //! type-erased jobs, runs chunk 0 itself and help-drains its own jobs
    //! from the queue until a latch reports that the workers finished.
    //! The latch wait establishes the happens-before edge that makes
    //! lending stack data to detached worker threads sound, so no
    //! per-call thread spawning (or heap-allocated closure boxing) is
    //! needed.

    use std::any::Any;
    use std::cell::Cell;
    use std::collections::VecDeque;
    use std::num::NonZeroUsize;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Condvar, Mutex, Once, OnceLock};
    use std::thread::Thread;

    thread_local! {
        /// Fan-out nesting depth of this thread: 1 for life on pool
        /// workers, and raised on a `fan_out` caller while it runs chunk 0
        /// and help-drains. Nested parallel calls check it and run inline,
        /// so an inner fan-out never queues behind the outer fan-out that
        /// occupies the pool.
        static DEPTH: Cell<usize> = const { Cell::new(0) };
    }

    /// `true` on a pool worker, or on a caller inside its own fan-out.
    pub fn is_nested() -> bool {
        DEPTH.with(Cell::get) > 0
    }

    /// Raises this thread's nesting depth until dropped (also on unwind).
    struct Nested;

    impl Nested {
        fn enter() -> Self {
            DEPTH.with(|d| d.set(d.get() + 1));
            Nested
        }
    }

    impl Drop for Nested {
        fn drop(&mut self) {
            DEPTH.with(|d| d.set(d.get() - 1));
        }
    }

    /// Upper bound on chunks per fan-out (and thus on pool threads);
    /// keeps the per-call descriptors in fixed stack arrays. Callers that
    /// build one task per pool thread size their own stack arrays with it.
    pub const MAX_PIECES: usize = 64;

    static THREADS: OnceLock<usize> = OnceLock::new();

    /// The latched pool width: `RAYON_NUM_THREADS` if set and positive,
    /// else the machine's available parallelism, capped at `MAX_PIECES`.
    pub fn thread_count() -> usize {
        *THREADS.get_or_init(|| {
            std::env::var("RAYON_NUM_THREADS")
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .filter(|&n| n > 0)
                .unwrap_or_else(|| {
                    std::thread::available_parallelism()
                        .map(NonZeroUsize::get)
                        .unwrap_or(1)
                })
                .min(MAX_PIECES)
        })
    }

    /// A type-erased unit of work pointing into some caller's stack.
    struct RawJob {
        data: *mut (),
        run: unsafe fn(*mut ()),
        /// The latch of the fan-out the job belongs to, as an identity.
        owner: *const Latch,
    }

    // SAFETY: the pointed-to FanJob is only touched by exactly one
    // worker, and the caller keeps the referenced stack frame alive
    // until the latch signals that the worker is done with it.
    unsafe impl Send for RawJob {}

    struct Pool {
        queue: Mutex<VecDeque<RawJob>>,
        available: Condvar,
    }

    static POOL: OnceLock<Pool> = OnceLock::new();
    static SPAWN: Once = Once::new();

    fn pool() -> &'static Pool {
        let p = POOL.get_or_init(|| Pool {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
        });
        SPAWN.call_once(|| {
            // One worker less than the pool width: the caller thread
            // always executes chunk 0 itself. Return only once every
            // worker is up: a caller that help-drains can finish many
            // fan-outs before a late worker starts, and thread start-up
            // allocates, so it must not leak into later fan-outs.
            let width = thread_count();
            let ready = std::sync::Arc::new(std::sync::Barrier::new(width));
            for i in 1..width {
                let ready = ready.clone();
                std::thread::Builder::new()
                    .name(format!("pcm-par-{i}"))
                    .spawn(move || {
                        ready.wait();
                        drop(ready);
                        worker_loop(POOL.get().expect("pool initialized"));
                    })
                    .expect("failed to spawn pool worker");
            }
            ready.wait();
        });
        p
    }

    fn worker_loop(pool: &'static Pool) {
        DEPTH.with(|d| d.set(1));
        loop {
            let job = {
                let mut q = pool.queue.lock().expect("pool queue poisoned");
                loop {
                    if let Some(job) = q.pop_front() {
                        break job;
                    }
                    crate::stats::count_park();
                    q = pool.available.wait(q).expect("pool queue poisoned");
                }
            };
            let span = crate::stats::job_start(false);
            // SAFETY: `job` came from `fan_out`, whose caller is blocked
            // in `help_wait` until we signal; the pointed-to data is alive
            // and exclusively ours.
            unsafe { (job.run)(job.data) };
            crate::stats::job_end(span);
        }
    }

    /// A caught panic payload, re-raised on the caller.
    type Panic = Box<dyn Any + Send>;

    /// Completion latch: counts outstanding worker chunks, keeps the first
    /// panic payload and unparks the caller. Built on park/unpark so
    /// nothing is touched after the final decrement except a cloned
    /// `Thread` handle.
    struct Latch {
        remaining: AtomicUsize,
        panic: Mutex<Option<Panic>>,
        owner: Thread,
    }

    impl Latch {
        fn new(count: usize) -> Self {
            Latch {
                remaining: AtomicUsize::new(count),
                panic: Mutex::new(None),
                owner: std::thread::current(),
            }
        }

        fn signal(&self, result: Result<(), Panic>) {
            if let Err(payload) = result {
                let mut first = self.panic.lock().unwrap_or_else(|e| e.into_inner());
                first.get_or_insert(payload);
            }
            // Clone before the decrement: once `remaining` hits zero the
            // caller may free the latch.
            let owner = self.owner.clone();
            if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                owner.unpark();
            }
        }

        /// Takes the first panic payload a chunk signalled, if any. Only
        /// meaningful once `remaining` reached zero.
        fn take_panic(&self) -> Option<Panic> {
            self.panic.lock().unwrap_or_else(|e| e.into_inner()).take()
        }
    }

    /// Re-raises the caller's own panic first, else the first worker
    /// panic, with its original payload.
    fn propagate(own: Result<(), Panic>, workers: Option<Panic>) {
        if let Err(payload) = own {
            resume_unwind(payload);
        }
        if let Some(payload) = workers {
            resume_unwind(payload);
        }
    }

    /// Per-chunk descriptor of a [`fan_out`], parked on the caller's
    /// stack. Covers `tasks[start .. start + len]`.
    struct FanJob<T, F> {
        base: *mut T,
        start: usize,
        len: usize,
        f: *const F,
        latch: *const Latch,
    }

    /// The type-erased entry point a worker runs for one fan-out chunk.
    ///
    /// # Safety
    /// `data` must point to a live `Option<FanJob<T, F>>` holding `Some`
    /// whose indices `[start, start + len)` no other chunk covers, and the
    /// caller must keep the task slice and latch alive until the signal.
    unsafe fn run_fan<T, F: Fn(usize, &mut T)>(data: *mut ()) {
        // SAFETY: contract above — exclusive live pointer to the slot.
        let slot = unsafe { &mut *data.cast::<Option<FanJob<T, F>>>() };
        let job = slot.take().expect("fan chunk already taken");
        // SAFETY: `f` outlives the latch wait on the caller's frame.
        let f = unsafe { &*job.f };
        let result = catch_unwind(AssertUnwindSafe(|| {
            for i in job.start..job.start + job.len {
                // SAFETY: chunks cover disjoint index ranges, so this is
                // the only live reference to element `i`.
                f(i, unsafe { &mut *job.base.add(i) });
            }
        }));
        // SAFETY: the latch outlives every signal — the caller blocks in
        // `help_wait` until all chunks have signalled.
        unsafe { (*job.latch).signal(result) };
    }

    /// Blocks until `latch` clears, executing this fan-out's jobs that are
    /// still queued while waiting (help-first join). Jobs of *other*
    /// in-flight fan-outs stay in the queue for the workers: a caller's
    /// thread-local scopes (observers, strategy overrides) must not reach
    /// work another thread issued. Waiting only on its own chunks cannot
    /// deadlock, since a running chunk never blocks: nested fan-outs run
    /// inline. Returns the first payload of a chunk that panicked.
    fn help_wait(latch: &Latch) -> Option<Panic> {
        let pool = pool();
        let me: *const Latch = latch;
        loop {
            if latch.remaining.load(Ordering::Acquire) == 0 {
                return latch.take_panic();
            }
            let job = {
                let mut q = pool.queue.lock().expect("pool queue poisoned");
                let own = q.iter().position(|job| job.owner == me);
                own.and_then(|i| q.remove(i))
            };
            match job {
                Some(job) => {
                    let span = crate::stats::job_start(true);
                    // SAFETY: same contract as `worker_loop` — the job's
                    // issuer is blocked until its latch signals.
                    unsafe { (job.run)(job.data) };
                    crate::stats::job_end(span);
                }
                // The final latch signal unparks us; a stale unpark token
                // only causes one extra loop turn.
                None => {
                    crate::stats::count_park();
                    std::thread::park();
                }
            }
        }
    }

    /// The pooled body of [`super::scoped_join`]: splits `tasks` into one
    /// chunk per element (contiguous multi-element chunks once the count
    /// exceeds the descriptor array), runs chunk 0 on the caller and
    /// help-drains its own queued chunks until every chunk signalled. The
    /// caller counts as nested meanwhile, like the workers running the
    /// other chunks.
    pub fn fan_out<T, F>(tasks: &mut [T], f: &F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        let total = tasks.len();
        debug_assert!(total >= 2, "fan_out called with a trivial task list");
        crate::stats::count_fan_out();
        let pool = pool();
        let n = total.min(MAX_PIECES);

        let mut jobs: [Option<FanJob<T, F>>; MAX_PIECES] = std::array::from_fn(|_| None);
        let latch = Latch::new(n - 1);
        let base = tasks.as_mut_ptr();

        // Contiguous near-equal chunks; chunk 0 stays with the caller.
        let mut start = 0usize;
        let mut remaining = total;
        let mut chunk0_len = 0usize;
        for (k, job) in jobs.iter_mut().enumerate().take(n) {
            let take = remaining.div_ceil(n - k);
            if k == 0 {
                chunk0_len = take;
            } else {
                *job = Some(FanJob {
                    base,
                    start,
                    len: take,
                    f,
                    latch: &latch,
                });
            }
            start += take;
            remaining -= take;
        }

        // Hand chunks 1..n to the pool. All element pointers derive from
        // a single base raw pointer, and the array is not referenced
        // again until after `help_wait`.
        let jobs_base = jobs.as_mut_ptr();
        {
            let mut q = pool.queue.lock().expect("pool queue poisoned");
            for k in 1..n {
                q.push_back(RawJob {
                    // SAFETY: k < n <= MAX_PIECES; in-bounds element.
                    data: unsafe { jobs_base.add(k) }.cast::<()>(),
                    run: run_fan::<T, F>,
                    owner: &latch,
                });
            }
            pool.available.notify_all();
        }

        // Chunk 0 on the caller; catch panics so we still reach the wait
        // (unwinding past it would free stack data workers are using).
        let nested = Nested::enter();
        let r0 = catch_unwind(AssertUnwindSafe(|| {
            for i in 0..chunk0_len {
                // SAFETY: chunk 0 exclusively covers `[0, chunk0_len)`.
                f(i, unsafe { &mut *base.add(i) });
            }
        }));
        let worker_panic = help_wait(&latch);
        drop(nested);
        propagate(r0, worker_panic);
    }
}

#[cfg(test)]
mod tests {
    use std::any::Any;
    use std::collections::HashSet;
    use std::sync::{Mutex, MutexGuard, Once, PoisonError};
    use std::thread::ThreadId;

    /// Pins the pool width to 4 before any fan-out can latch it, so these
    /// tests exercise the pooled path even on a single-core machine. The
    /// returned guard runs the tests one at a time, so the process-global
    /// `stats` counters move only with the test that holds it.
    fn force_pool() -> MutexGuard<'static, ()> {
        static ONCE: Once = Once::new();
        static SERIAL: Mutex<()> = Mutex::new(());
        ONCE.call_once(|| std::env::set_var("RAYON_NUM_THREADS", "4"));
        SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The text of a caught panic payload.
    fn panic_text(payload: &(dyn Any + Send)) -> &str {
        payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("<non-text payload>")
    }

    /// Empty and single-task joins take the inline path and still visit
    /// every task.
    #[test]
    fn empty_and_single_element_collect() {
        let _serial = force_pool();
        let mut none: [u32; 0] = [];
        crate::scoped_join(&mut none, |_, _| unreachable!("no tasks to run"));

        let mut one = [41u32];
        crate::scoped_join(&mut one, |i, t| *t += u32::from(i == 0));
        assert_eq!(one, [42]);
    }

    /// Repeated joins reuse the same workers instead of spawning fresh OS
    /// threads, and keep their ordered effects.
    #[test]
    fn pool_is_reused_across_collects() {
        let _serial = force_pool();
        let mut threads = HashSet::new();
        for round in 0..50u64 {
            let mut tasks: Vec<(u64, Option<ThreadId>)> = (0..8).map(|i| (i, None)).collect();
            crate::scoped_join(&mut tasks, |_, (v, who)| {
                *v = (*v + round) * 2;
                *who = Some(std::thread::current().id());
            });
            for (i, (v, who)) in tasks.iter().enumerate() {
                assert_eq!(*v, (i as u64 + round) * 2);
                threads.insert(who.expect("task ran"));
            }
        }
        assert!(
            threads.len() <= 4,
            "a 4-wide pool used {} threads",
            threads.len()
        );
    }

    /// A panic in a queued multi-task chunk (here the last task of a join
    /// above `MAX_PIECES`, not the caller's own chunk) reaches the caller
    /// with its payload.
    #[test]
    fn worker_panic_propagates() {
        let _serial = force_pool();
        let result = std::panic::catch_unwind(|| {
            let mut tasks = vec![0u32; 400];
            crate::scoped_join(&mut tasks, |i, _| {
                assert!(i != 399, "intentional: task {i}");
            });
        });
        let payload = result.expect_err("panic in a chunk must propagate");
        assert_eq!(panic_text(&*payload), "intentional: task 399");
    }

    #[test]
    fn scoped_join_runs_every_task_below_the_cutoff() {
        let _serial = force_pool();
        // A handful of tasks must all run (and on a multi-thread pool,
        // dispatch rather than inline).
        for len in [2usize, 3, 7] {
            let mut tasks: Vec<u64> = vec![0; len];
            crate::scoped_join(&mut tasks, |i, t| *t = (i as u64) * 10 + 1);
            let expected: Vec<u64> = (0..len as u64).map(|i| i * 10 + 1).collect();
            assert_eq!(tasks, expected);
        }
    }

    #[test]
    fn stats_count_only_when_enabled() {
        let _serial = force_pool();
        // Counters are process-global and frozen while disabled (the
        // serial guard keeps other tests from enabling them meanwhile), so
        // the disabled leg can assert equality.
        let before = crate::stats::snapshot();
        let mut tasks: Vec<u64> = vec![0; 64];
        crate::scoped_join(&mut tasks, |i, t| *t = i as u64);
        assert_eq!(
            crate::stats::snapshot(),
            before,
            "disabled leg must not count"
        );

        crate::stats::enable(true);
        assert!(crate::stats::enabled());
        crate::scoped_join(&mut tasks, |i, t| *t = (i as u64) + 1);
        crate::stats::enable(false);

        let after = crate::stats::snapshot();
        assert!(
            after.scoped_joins > before.scoped_joins,
            "scoped_join entry counted"
        );
        assert!(
            after.fan_outs > before.fan_outs,
            "4-wide pool must dispatch"
        );
        assert!(
            after.jobs + after.helped_jobs > before.jobs + before.helped_jobs,
            "dispatched chunks ran as jobs or were help-drained"
        );
        assert!(tasks.iter().enumerate().all(|(i, &t)| t == i as u64 + 1));
    }

    #[test]
    fn scoped_join_handles_more_tasks_than_descriptors() {
        let _serial = force_pool();
        // Above MAX_PIECES: chunks cover multiple tasks each.
        let mut tasks: Vec<usize> = vec![0; 1000];
        crate::scoped_join(&mut tasks, |i, t| *t = i * i);
        assert!(tasks.iter().enumerate().all(|(i, &t)| t == i * i));
    }

    #[test]
    fn scoped_join_fans_nested_collects_without_deadlock() {
        let _serial = force_pool();
        // Outer scoped_join occupies the pool; each task drives an inner
        // scoped_join with enough tasks to fan out. Every inner call runs
        // inline on its task's thread, the caller's own chunk included.
        let mut tasks: Vec<u64> = vec![0; 6];
        crate::scoped_join(&mut tasks, |i, t| {
            let mut v: Vec<u64> = (0..100).map(|k| k + i as u64).collect();
            crate::scoped_join(&mut v, |_, x| *x *= 2);
            *t = v.iter().sum();
        });
        let expected: Vec<u64> = (0..6u64)
            .map(|i| (0..100).map(|k| 2 * (k + i)).sum())
            .collect();
        assert_eq!(tasks, expected);
    }

    #[test]
    fn scoped_join_panic_propagates() {
        let _serial = force_pool();
        let result = std::panic::catch_unwind(|| {
            let mut tasks: Vec<u32> = vec![0; 8];
            crate::scoped_join(&mut tasks, |i, _| {
                assert!(i != 5, "intentional: task {i}");
            });
        });
        let payload = result.expect_err("panic in a task must propagate");
        assert_eq!(panic_text(&*payload), "intentional: task 5");
    }

    #[test]
    fn every_scoped_join_task_counts_as_nested() {
        let _serial = force_pool();
        assert!(!crate::in_pool_worker(), "test thread starts outside");
        let mut nested = vec![false; 8];
        crate::scoped_join(&mut nested, |_, t| *t = crate::in_pool_worker());
        assert_eq!(nested, vec![true; 8], "the caller's chunk included");
        assert!(!crate::in_pool_worker(), "depth restored after the join");

        // Also restored when the caller's own chunk unwinds.
        let result = std::panic::catch_unwind(|| {
            let mut tasks = [0u8; 4];
            crate::scoped_join(&mut tasks, |i, _| assert!(i != 0, "intentional"));
        });
        assert!(result.is_err());
        assert!(!crate::in_pool_worker(), "depth restored after a panic");
    }

    #[test]
    fn collects_from_the_callers_chunk_run_inline() {
        let _serial = force_pool();
        crate::stats::enable(true);
        let before = crate::stats::snapshot();
        // Each task records the threads two nested joins ran on: one with
        // enough tasks to fan out, one with three.
        let mut tasks: Vec<(ThreadId, Vec<ThreadId>)> = (0..4)
            .map(|_| (std::thread::current().id(), Vec::new()))
            .collect();
        crate::scoped_join(&mut tasks, |_, (me, seen)| {
            *me = std::thread::current().id();
            let mut wide = [*me; 100];
            crate::scoped_join(&mut wide, |_, t| *t = std::thread::current().id());
            let mut inner = [*me; 3];
            crate::scoped_join(&mut inner, |_, t| *t = std::thread::current().id());
            seen.extend(wide);
            seen.extend(inner);
        });
        let after = crate::stats::snapshot();
        crate::stats::enable(false);

        for (me, seen) in &tasks {
            assert!(seen.iter().all(|t| t == me), "nested work left its task");
        }
        assert_eq!(after.scoped_joins - before.scoped_joins, 9);
        assert_eq!(
            after.fan_outs - before.fan_outs,
            1,
            "only the outer join fans out"
        );
        assert_eq!(
            (after.jobs + after.helped_jobs) - (before.jobs + before.helped_jobs),
            3,
            "the outer join's three queued chunks, nothing else"
        );
    }

    #[test]
    fn current_num_threads_reports_the_latched_width() {
        let _serial = force_pool();
        // force_pool pinned RAYON_NUM_THREADS=4 before anything latched.
        assert_eq!(crate::current_num_threads(), 4);
        assert!(!crate::in_pool_worker(), "test thread is not a worker");
    }
}
