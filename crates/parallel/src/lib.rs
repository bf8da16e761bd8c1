//! hsbp-parallel: a persistent worker pool with degree-aware scheduling for
//! the parallel MCMC sweep.
//!
//! Spawning fresh OS threads for every parallel section (several per sweep)
//! and splitting work into contiguous equal-count chunks is a pathological
//! schedule on power-law DCSBM graphs, where per-vertex proposal cost is
//! proportional to degree. This crate provides instead:
//!
//! * a **persistent pool**: workers are spawned once and parked on a condvar
//!   between sections; a section wakes them with a latch (epoch bump), the
//!   caller participates as worker 0, and a barrier waits for stragglers;
//! * **cost-weighted chunks**: section boundaries come from a monotone cost
//!   prefix-sum ([`ChunkPlan`]) — for vertex sweeps that prefix is the CSR
//!   degree offsets, available for free — so every steal-unit carries roughly
//!   equal proposal work;
//! * **atomic grab-sharing**: workers claim chunks from a shared atomic
//!   counter, so a worker stuck on a hub chunk simply stops claiming while
//!   the others drain the queue — no idle-at-the-barrier skew;
//! * **pool-resident scratch** ([`with_resident`]): per-worker scratch (the
//!   `ProposalArena` from the zero-allocation hot path) is leased once per
//!   worker lifetime via a thread-local typed store, not once per section.
//!
//! Determinism: the pool never changes *what* is computed, only *where*. All
//! callers write results into fixed per-item output slots and derive
//! randomness from counter RNG keyed by item index, so results are
//! bit-identical across thread counts and schedules.
//!
//! Thread count resolution: `HSBP_THREADS` env var if set (>= 1), else the
//! host's available parallelism. [`pool_for`] maps a `SbpConfig::threads`
//! value (0 = auto) to a shared pool instance.

#![deny(clippy::unwrap_used, clippy::expect_used)]

mod chunk;

pub use chunk::ChunkPlan;

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::mem::{ManuallyDrop, MaybeUninit};
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};

/// Oversubscription factor: target chunks per worker, so grab-sharing has
/// enough granularity to rebalance around hub chunks.
const CHUNKS_PER_WORKER: usize = 8;

thread_local! {
    /// Set while this thread is executing a pool section. Nested sections
    /// (e.g. a shard worker running an inner `run_sbp`) execute inline
    /// instead of deadlocking on the section latch.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
    /// Per-thread typed scratch store backing [`with_resident`].
    static RESIDENT: RefCell<HashMap<std::any::TypeId, Box<dyn Any>>> =
        RefCell::new(HashMap::new());
}

#[inline]
fn in_pool() -> bool {
    IN_POOL.with(Cell::get)
}

/// Recover a mutex guard even if a panicking worker poisoned it; all guarded
/// state stays consistent under panics (counters and payload vectors only).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Run `body` with `&mut S` scratch that persists on this thread across
/// sections ("leased once per worker lifetime"). The slot is keyed by the
/// scratch type; `init` runs only the first time a thread sees the type.
/// Re-entrant calls for the *same* type construct a fresh scratch (the outer
/// lease holds the resident one) — correctness is preserved, reuse is not.
pub fn with_resident<S: Any, R>(init: impl FnOnce() -> S, body: impl FnOnce(&mut S) -> R) -> R {
    let key = std::any::TypeId::of::<S>();
    let slot = RESIDENT.with(|m| m.borrow_mut().remove(&key));
    let mut scratch: Box<S> = match slot.and_then(|b| b.downcast::<S>().ok()) {
        Some(b) => b,
        None => Box::new(init()),
    };
    let out = body(&mut scratch);
    RESIDENT.with(|m| m.borrow_mut().insert(key, scratch as Box<dyn Any>));
    out
}

/// Resolved thread count: `HSBP_THREADS` if set and >= 1, else host
/// parallelism. Read once; later env changes don't retune running pools.
pub fn configured_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        std::env::var("HSBP_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// The process-wide pool at [`configured_threads`].
pub fn global() -> &'static ThreadPool {
    pool_with(configured_threads())
}

/// A shared pool with exactly `threads` workers (min 1). Pools are created on
/// first use and live for the process; at most a handful of distinct sizes
/// exist (config overrides + the global), so the leak is bounded.
pub fn pool_with(threads: usize) -> &'static ThreadPool {
    static POOLS: OnceLock<Mutex<HashMap<usize, &'static ThreadPool>>> = OnceLock::new();
    let threads = threads.max(1);
    let pools = POOLS.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = lock(pools);
    map.entry(threads)
        .or_insert_with(|| Box::leak(Box::new(ThreadPool::new(threads))))
}

/// Map a `SbpConfig::threads` value to a pool: 0 = auto ([`global`]),
/// otherwise a pool of exactly that size.
pub fn pool_for(threads: usize) -> &'static ThreadPool {
    if threads == 0 {
        global()
    } else {
        pool_with(threads)
    }
}

/// Scheduling counters since the last [`ThreadPool::reset_stats`].
///
/// `steals` counts chunks executed by a worker other than the chunk's "home"
/// worker (its slot under a static round-robin assignment) — i.e. how often
/// grab-sharing actually rebalanced. Imbalance is, per section, the max
/// worker busy-weight divided by the mean; 1.0 is a perfect balance.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PoolStats {
    pub sections: u64,
    pub chunks: u64,
    pub steals: u64,
    pub max_imbalance: f64,
    pub mean_imbalance: f64,
}

#[derive(Default)]
struct StatsAgg {
    sections: u64,
    chunks: u64,
    steals: u64,
    imbalance_sum: f64,
    imbalance_max: f64,
}

/// Latch state shared between the caller and parked workers.
struct State {
    /// Bumped once per section; workers run a job when they see a new epoch.
    epoch: u64,
    /// Type-erased section body; `Some` exactly while a section is live.
    /// Lifetime is erased — sound because `run` does not return (or unwind)
    /// until every worker has finished the section.
    job: Option<&'static (dyn Fn(usize) + Sync)>,
    /// Workers still inside the current section.
    active: usize,
    /// Panic payloads caught from workers this section.
    panics: Vec<Box<dyn Any + Send>>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    work: Condvar,
    done: Condvar,
}

/// Persistent worker pool. Workers are spawned at construction, parked
/// between sections, and joined only at process exit (pools are `'static`).
pub struct ThreadPool {
    threads: usize,
    shared: &'static Shared,
    /// Serializes sections from concurrent callers.
    section: Mutex<()>,
    stats: Mutex<StatsAgg>,
}

/// Raw pointer that asserts cross-thread use; safety is argued at each use
/// site (disjoint index claims over a fully covered range).
struct SendPtr<T>(*mut T);
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}
impl<T> SendPtr<T> {
    #[inline]
    fn get(&self) -> *mut T {
        self.0
    }
}

/// Per-section claim queue + balance accounting.
struct SectionCtx<'p> {
    plan: &'p ChunkPlan,
    next: AtomicUsize,
    steals: AtomicU64,
    busy: Vec<AtomicU64>,
    threads: usize,
}

impl<'p> SectionCtx<'p> {
    fn new(plan: &'p ChunkPlan, threads: usize) -> Self {
        Self {
            plan,
            next: AtomicUsize::new(0),
            steals: AtomicU64::new(0),
            busy: (0..threads).map(|_| AtomicU64::new(0)).collect(),
            threads,
        }
    }

    /// Home worker of chunk `c` under static round-robin assignment; a chunk
    /// executed elsewhere counts as a steal.
    #[inline]
    fn home(&self, c: usize) -> usize {
        c * self.threads / self.plan.num_chunks().max(1)
    }

    /// Claim chunks until the queue drains, invoking `visit` per chunk range.
    fn drive(&self, worker: usize, mut visit: impl FnMut(Range<usize>)) {
        let chunks = self.plan.num_chunks();
        loop {
            let c = self.next.fetch_add(1, Ordering::Relaxed);
            if c >= chunks {
                break;
            }
            if self.home(c) != worker {
                self.steals.fetch_add(1, Ordering::Relaxed);
            }
            visit(self.plan.chunk(c));
            self.busy[worker].fetch_add(self.plan.weight(c).max(1), Ordering::Relaxed);
        }
    }
}

/// Blocks until every worker has left the section, even when the caller's
/// own share of the work panics — the erased-lifetime job must not outlive
/// `run`'s stack frame.
struct SectionBarrier<'a>(&'a Shared);

impl Drop for SectionBarrier<'_> {
    fn drop(&mut self) {
        let mut st = lock(&self.0.state);
        while st.active > 0 {
            st = match self.0.done.wait(st) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
        st.job = None;
    }
}

fn worker_loop(shared: &'static Shared, id: usize) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = lock(&shared.state);
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen {
                    break;
                }
                st = match shared.work.wait(st) {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
            seen = st.epoch;
            match st.job {
                Some(j) => j,
                None => continue,
            }
        };
        IN_POOL.with(|f| f.set(true));
        let result = catch_unwind(AssertUnwindSafe(|| job(id)));
        IN_POOL.with(|f| f.set(false));
        let mut st = lock(&shared.state);
        if let Err(payload) = result {
            st.panics.push(payload);
        }
        st.active -= 1;
        if st.active == 0 {
            shared.done.notify_all();
        }
    }
}

impl ThreadPool {
    fn new(threads: usize) -> Self {
        let shared: &'static Shared = Box::leak(Box::new(Shared {
            state: Mutex::new(State {
                epoch: 0,
                job: None,
                active: 0,
                panics: Vec::new(),
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        }));
        for id in 1..threads {
            let builder = std::thread::Builder::new().name(format!("hsbp-worker-{id}"));
            // A failed spawn leaves the pool with fewer helpers; sections
            // still complete because the caller participates and grab-sharing
            // never waits on a specific worker — but `active` must only count
            // threads that exist, so treat spawn failure as fatal.
            if let Err(e) = builder.spawn(move || worker_loop(shared, id)) {
                panic!("hsbp-parallel: failed to spawn worker {id}: {e}");
            }
        }
        Self {
            threads,
            shared,
            section: Mutex::new(()),
            stats: Mutex::new(StatsAgg::default()),
        }
    }

    /// Number of workers (including the participating caller).
    #[inline]
    pub fn num_threads(&self) -> usize {
        self.threads
    }

    /// Default chunk-count target for plans executed on this pool.
    #[inline]
    pub fn chunk_target(&self) -> usize {
        self.threads * CHUNKS_PER_WORKER
    }

    /// Snapshot scheduling stats accumulated since the last reset.
    pub fn stats(&self) -> PoolStats {
        let agg = lock(&self.stats);
        PoolStats {
            sections: agg.sections,
            chunks: agg.chunks,
            steals: agg.steals,
            max_imbalance: agg.imbalance_max,
            mean_imbalance: if agg.sections > 0 {
                agg.imbalance_sum / agg.sections as f64
            } else {
                0.0
            },
        }
    }

    pub fn reset_stats(&self) {
        *lock(&self.stats) = StatsAgg::default();
    }

    fn record(&self, ctx: &SectionCtx<'_>) {
        let weights: Vec<u64> = ctx.busy.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let total: u64 = weights.iter().sum();
        let max = weights.iter().copied().max().unwrap_or(0);
        let mut agg = lock(&self.stats);
        agg.sections += 1;
        agg.chunks += ctx.plan.num_chunks() as u64;
        agg.steals += ctx.steals.load(Ordering::Relaxed);
        if total > 0 {
            let mean = total as f64 / self.threads as f64;
            let imbalance = max as f64 / mean;
            agg.imbalance_sum += imbalance;
            agg.imbalance_max = agg.imbalance_max.max(imbalance);
        }
    }

    /// Run one section: wake all workers, invoke `task(worker_id)` on every
    /// worker (the caller runs as worker 0), wait for all to finish. Panics
    /// from any worker are re-raised on the caller with their **original
    /// payload** (the caller's own panic takes precedence).
    pub fn run(&self, task: &(dyn Fn(usize) + Sync)) {
        if self.threads <= 1 || in_pool() {
            task(0);
            return;
        }
        let _section = lock(&self.section);
        // SAFETY: the job reference escapes to worker threads with an erased
        // lifetime, but `run` blocks (via SectionBarrier, even on unwind)
        // until `active == 0`, i.e. no worker can touch it afterwards.
        let job: &'static (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(task)
        };
        {
            let mut st = lock(&self.shared.state);
            st.epoch += 1;
            st.job = Some(job);
            st.active = self.threads - 1;
            st.panics.clear();
            self.shared.work.notify_all();
        }
        let caller_result;
        {
            let _barrier = SectionBarrier(self.shared);
            IN_POOL.with(|f| f.set(true));
            caller_result = catch_unwind(AssertUnwindSafe(|| task(0)));
            IN_POOL.with(|f| f.set(false));
        }
        let mut worker_panics = std::mem::take(&mut lock(&self.shared.state).panics);
        match caller_result {
            Err(payload) => resume_unwind(payload),
            Ok(()) => {
                if !worker_panics.is_empty() {
                    resume_unwind(worker_panics.remove(0));
                }
            }
        }
    }

    /// `parallel_for_indexed`: evaluate `f(scratch, i)` for every `i` in the
    /// plan's range and collect results **in index order**, scheduling
    /// cost-weighted chunks dynamically. `init` builds one scratch per worker
    /// per section.
    pub fn map_indexed<T, S, I, F>(&self, plan: &ChunkPlan, init: I, f: F) -> Vec<T>
    where
        T: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> T + Sync,
    {
        let len = plan.len();
        if self.threads <= 1 || len < 2 || in_pool() {
            let mut scratch = init();
            return (0..len).map(|i| f(&mut scratch, i)).collect();
        }
        let mut out: Vec<MaybeUninit<T>> = Vec::with_capacity(len);
        // SAFETY: every index in 0..len is written exactly once below before
        // the vec is read (chunks partition the range; each chunk is claimed
        // by exactly one worker). On panic the vec leaks, it is never read.
        unsafe { out.set_len(len) };
        let out_ptr = SendPtr(out.as_mut_ptr());
        let ctx = SectionCtx::new(plan, self.threads);
        self.run(&|worker| {
            let mut scratch = init();
            ctx.drive(worker, |range| {
                for i in range {
                    // SAFETY: `i` is claimed by exactly this worker (disjoint
                    // chunks), in bounds by plan invariant.
                    unsafe { (*out_ptr.get().add(i)).write(f(&mut scratch, i)) };
                }
            });
        });
        self.record(&ctx);
        // SAFETY: all len slots initialized (run returned without panicking).
        unsafe { assume_init_vec(out) }
    }

    /// [`map_indexed`] with **pool-resident** scratch: each worker leases one
    /// `S` for its lifetime (thread-local, keyed by type) instead of
    /// constructing one per section.
    pub fn map_indexed_resident<T, S, I, F>(&self, plan: &ChunkPlan, init: I, f: F) -> Vec<T>
    where
        T: Send,
        S: Any,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> T + Sync,
    {
        let len = plan.len();
        if self.threads <= 1 || len < 2 || in_pool() {
            return with_resident(init, |scratch| (0..len).map(|i| f(scratch, i)).collect());
        }
        let mut out: Vec<MaybeUninit<T>> = Vec::with_capacity(len);
        // SAFETY: as in `map_indexed`.
        unsafe { out.set_len(len) };
        let out_ptr = SendPtr(out.as_mut_ptr());
        let ctx = SectionCtx::new(plan, self.threads);
        self.run(&|worker| {
            with_resident(&init, |scratch| {
                ctx.drive(worker, |range| {
                    for i in range {
                        // SAFETY: as in `map_indexed`.
                        unsafe { (*out_ptr.get().add(i)).write(f(scratch, i)) };
                    }
                });
            });
        });
        self.record(&ctx);
        // SAFETY: all len slots initialized.
        unsafe { assume_init_vec(out) }
    }

    /// [`map_indexed_resident`] at *chunk* granularity: `f` receives each
    /// claimed chunk's index range and must push exactly one `T` per index
    /// (in order) into the output buffer. Results land **in index order**.
    ///
    /// This is the batched-proposal primitive: a sweep body can stage work
    /// for the whole chunk (draw every counter-RNG proposal first, then
    /// gather/evaluate/accept), amortizing dispatch across the batch instead
    /// of paying it per item — while the chunk schedule, and therefore the
    /// result, stays identical to the per-index entry points.
    ///
    /// # Panics
    /// Panics if `f` leaves a different number of results than the chunk has
    /// indices.
    pub fn map_chunked_resident<T, S, I, F>(&self, plan: &ChunkPlan, init: I, f: F) -> Vec<T>
    where
        T: Send,
        S: Any,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, Range<usize>, &mut Vec<T>) + Sync,
    {
        let len = plan.len();
        if self.threads <= 1 || len < 2 || in_pool() {
            return with_resident(init, |scratch| {
                let mut out = Vec::with_capacity(len);
                let mut buf = Vec::new();
                for c in 0..plan.num_chunks() {
                    let range = plan.chunk(c);
                    buf.clear();
                    f(scratch, range.clone(), &mut buf);
                    assert_eq!(
                        buf.len(),
                        range.len(),
                        "chunk body must produce one result per index"
                    );
                    out.append(&mut buf);
                }
                out
            });
        }
        let mut out: Vec<MaybeUninit<T>> = Vec::with_capacity(len);
        // SAFETY: as in `map_indexed` — chunks partition 0..len and each is
        // claimed by exactly one worker, which writes every slot of its
        // range below (the buffer length is asserted first).
        unsafe { out.set_len(len) };
        let out_ptr = SendPtr(out.as_mut_ptr());
        let ctx = SectionCtx::new(plan, self.threads);
        self.run(&|worker| {
            with_resident(&init, |scratch| {
                let mut buf: Vec<T> = Vec::new();
                ctx.drive(worker, |range| {
                    buf.clear();
                    f(scratch, range.clone(), &mut buf);
                    assert_eq!(
                        buf.len(),
                        range.len(),
                        "chunk body must produce one result per index"
                    );
                    for (j, item) in buf.drain(..).enumerate() {
                        // SAFETY: slot claimed by exactly this worker, in
                        // bounds by plan invariant.
                        unsafe { (*out_ptr.get().add(range.start + j)).write(item) };
                    }
                });
            });
        });
        self.record(&ctx);
        // SAFETY: all len slots initialized.
        unsafe { assume_init_vec(out) }
    }

    /// Map over owned items (order-preserving), consuming the input vec.
    /// Equal-count chunks; use [`map_indexed`] with a cost plan when per-item
    /// cost is skewed.
    pub fn map_vec<T, U, S, I, F>(&self, items: Vec<T>, init: I, f: F) -> Vec<U>
    where
        T: Send,
        U: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, T) -> U + Sync,
    {
        let len = items.len();
        if self.threads <= 1 || len < 2 || in_pool() {
            let mut scratch = init();
            return items
                .into_iter()
                .map(|item| f(&mut scratch, item))
                .collect();
        }
        let plan = ChunkPlan::even(len, self.chunk_target());
        let mut items = ManuallyDrop::new(items);
        let in_ptr = SendPtr(items.as_mut_ptr());
        let mut out: Vec<MaybeUninit<U>> = Vec::with_capacity(len);
        // SAFETY: as in `map_indexed`; additionally every input slot is moved
        // out exactly once (same disjoint-claim argument). On panic both vecs
        // leak their elements — a leak, not a double free.
        unsafe { out.set_len(len) };
        let out_ptr = SendPtr(out.as_mut_ptr());
        let ctx = SectionCtx::new(&plan, self.threads);
        self.run(&|worker| {
            let mut scratch = init();
            ctx.drive(worker, |range| {
                for i in range {
                    // SAFETY: slot `i` is read and written exactly once.
                    let item = unsafe { in_ptr.get().add(i).read() };
                    unsafe { (*out_ptr.get().add(i)).write(f(&mut scratch, item)) };
                }
            });
        });
        self.record(&ctx);
        // All elements moved out; release only the allocation.
        // SAFETY: len 0 <= capacity; elements already consumed above.
        unsafe { items.set_len(0) };
        drop(ManuallyDrop::into_inner(items));
        // SAFETY: all len slots initialized.
        unsafe { assume_init_vec(out) }
    }
}

/// SAFETY (caller): every element of `v` must be initialized.
unsafe fn assume_init_vec<T>(v: Vec<MaybeUninit<T>>) -> Vec<T> {
    let mut v = ManuallyDrop::new(v);
    let (ptr, len, cap) = (v.as_mut_ptr(), v.len(), v.capacity());
    // SAFETY: MaybeUninit<T> has the same layout as T; all elements are
    // initialized per the caller contract; ManuallyDrop prevents double free.
    unsafe { Vec::from_raw_parts(ptr.cast::<T>(), len, cap) }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn map_indexed_matches_serial_any_thread_count() {
        let plan4 =
            ChunkPlan::from_costs(&(0..997).map(|i| (i % 13) as u64).collect::<Vec<_>>(), 32);
        let expected: Vec<u64> = (0..997u64).map(|i| i * i + 1).collect();
        for threads in [1usize, 2, 3, 8] {
            let pool = pool_with(threads);
            let got = pool.map_indexed(&plan4, || (), |(), i| (i as u64) * (i as u64) + 1);
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn map_vec_preserves_order_and_moves_items() {
        let items: Vec<String> = (0..200).map(|i| format!("item-{i}")).collect();
        let pool = pool_with(4);
        let out = pool.map_vec(items, || (), |(), s| s + "!");
        assert_eq!(out.len(), 200);
        assert_eq!(out[0], "item-0!");
        assert_eq!(out[199], "item-199!");
    }

    #[test]
    fn panic_payload_is_preserved() {
        let pool = pool_with(4);
        let plan = ChunkPlan::even(64, 16);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.map_indexed(
                &plan,
                || (),
                |(), i| {
                    if i == 37 {
                        panic!("distinctive payload 37");
                    }
                    i
                },
            )
        }));
        let payload = result.expect_err("must panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("payload must be a string");
        assert!(msg.contains("distinctive payload 37"), "got: {msg}");
    }

    #[test]
    fn pool_survives_panicking_section() {
        let pool = pool_with(2);
        let plan = ChunkPlan::even(16, 8);
        let _ = catch_unwind(AssertUnwindSafe(|| {
            pool.map_indexed(&plan, || (), |(), _| panic!("boom"))
        }));
        // Pool must still schedule correctly after a panicked section.
        let got = pool.map_indexed(&plan, || (), |(), i| i * 2);
        assert_eq!(got, (0..16).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn resident_scratch_is_reused_across_sections() {
        // Count scratch constructions: a resident lease constructs at most
        // one scratch per thread regardless of section count.
        static BUILDS: AtomicUsize = AtomicUsize::new(0);
        #[derive(Default)]
        struct Marker(#[allow(dead_code)] u8);
        let pool = pool_with(3);
        let plan = ChunkPlan::even(300, pool.chunk_target());
        for _ in 0..5 {
            let _ = pool.map_indexed_resident(
                &plan,
                || {
                    BUILDS.fetch_add(1, Ordering::Relaxed);
                    Marker::default()
                },
                |_, i| i,
            );
        }
        assert!(
            BUILDS.load(Ordering::Relaxed) <= 3,
            "resident scratch rebuilt per section: {} builds for 5 sections",
            BUILDS.load(Ordering::Relaxed)
        );
    }

    #[test]
    fn map_chunked_matches_map_indexed_any_thread_count() {
        let plan =
            ChunkPlan::from_costs(&(0..997).map(|i| (i % 13) as u64).collect::<Vec<_>>(), 32);
        let expected: Vec<u64> = (0..997u64).map(|i| i * 3 + 1).collect();
        for threads in [1usize, 2, 3, 8] {
            let pool = pool_with(threads);
            let got = pool.map_chunked_resident(
                &plan,
                || (),
                |(), range, out: &mut Vec<u64>| {
                    // Two-stage chunk body: stage values, then emit.
                    let staged: Vec<u64> = range.map(|i| i as u64).collect();
                    out.extend(staged.iter().map(|&i| i * 3 + 1));
                },
            );
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn map_chunked_panics_on_wrong_arity() {
        let pool = pool_with(1);
        let plan = ChunkPlan::even(16, 8);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.map_chunked_resident(
                &plan,
                || (),
                |(), _range, out: &mut Vec<usize>| {
                    out.push(0); // one result for the whole chunk: wrong
                },
            )
        }));
        assert!(result.is_err(), "arity violation must panic");
    }

    #[test]
    fn nested_sections_run_inline() {
        let pool = pool_with(4);
        let plan = ChunkPlan::even(8, 4);
        let nested_ok = AtomicBool::new(true);
        let out = pool.map_indexed(
            &plan,
            || (),
            |(), i| {
                // Nested parallel call from inside a worker: must not deadlock.
                let inner = pool.map_indexed(&ChunkPlan::even(4, 2), || (), |(), j| j + i);
                if inner != vec![i, i + 1, i + 2, i + 3] {
                    nested_ok.store(false, Ordering::Relaxed);
                }
                i
            },
        );
        assert_eq!(out, (0..8).collect::<Vec<_>>());
        assert!(nested_ok.load(Ordering::Relaxed));
    }

    #[test]
    fn stats_are_recorded() {
        let pool = pool_with(4);
        pool.reset_stats();
        let plan = ChunkPlan::even(1000, pool.chunk_target());
        let _ = pool.map_indexed(&plan, || (), |(), i| i);
        let stats = pool.stats();
        assert_eq!(stats.sections, 1);
        assert_eq!(stats.chunks, plan.num_chunks() as u64);
        assert!(stats.max_imbalance >= 1.0);
        pool.reset_stats();
        assert_eq!(pool.stats(), PoolStats::default());
    }

    #[test]
    fn empty_and_singleton_ranges() {
        let pool = pool_with(4);
        let empty: Vec<usize> = pool.map_indexed(&ChunkPlan::even(0, 8), || (), |(), i| i);
        assert!(empty.is_empty());
        let one: Vec<usize> = pool.map_indexed(&ChunkPlan::even(1, 8), || (), |(), i| i + 7);
        assert_eq!(one, vec![7]);
    }

    #[test]
    fn with_resident_reentrancy_is_safe() {
        let out = with_resident(
            || vec![1u32],
            |outer| {
                outer.push(2);
                // Same type re-entered: gets a fresh scratch, no RefCell panic.
                with_resident(|| vec![10u32], |inner| inner.len()) + outer.len()
            },
        );
        assert_eq!(out, 3);
    }
}
