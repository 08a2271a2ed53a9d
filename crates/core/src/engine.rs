//! The parallel branch execution engine: one lazily started,
//! process-wide persistent worker pool that runs independent units
//! (re-organized SFC branches, experiment sweep points) concurrently
//! while preserving deterministic result order.
//!
//! A [`par_map`] call never hands its work away. It posts at most
//! `min(threads, n) − 1` *advisory* help requests to the pool and then
//! claims units itself through the same atomic cursor the helpers use,
//! so an idle worker that wakes in time shortens the call and one that
//! does not costs nothing: the caller finishes alone and withdraws the
//! request. The caller only ever waits for units that some thread is
//! already running, which is why nested calls (a sweep point that
//! deploys a parallel SFC, eight cluster servers sharing one pool) can
//! neither deadlock nor pile requests up in the queue.
//!
//! `nfc-core` forbids `unsafe`, so nothing borrowed can cross into a
//! pool thread that outlives the call: units are *owned* (`'static`
//! items and closure, moved in and handed back through the results).
//!
//! The engine deliberately contains **no** simulator state. The runtime
//! splits each stage into a *functional* phase (packets through element
//! graphs — data-parallel across branches, dispatched through
//! [`par_map`]) and a *temporal* phase (cost replay onto the shared
//! [`PipelineSim`](nfc_hetero::PipelineSim) in a fixed branch-major
//! order), so parallel and serial execution produce bit-identical
//! functional output *and* bit-identical simulated timelines.

use nfc_telemetry::{EventKind, Recorder, TelemetryHandle};
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// Environment variable overriding the worker count.
pub const THREADS_ENV: &str = "NFC_THREADS";

/// How the engine schedules independent work units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Run units one after another on the calling thread.
    Serial,
    /// Run units on up to `threads` threads: the caller plus
    /// `threads − 1` workers of the persistent pool.
    Parallel {
        /// Worker count (values `<= 1` degrade to [`ExecMode::Serial`]).
        threads: usize,
    },
}

impl ExecMode {
    /// Picks a mode from the environment: `NFC_THREADS=n` forces `n`
    /// workers (0 or 1 mean serial); otherwise the host's available
    /// parallelism decides.
    pub fn auto() -> Self {
        let threads = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .or_else(|| std::thread::available_parallelism().ok().map(usize::from))
            .unwrap_or(1);
        if threads <= 1 {
            ExecMode::Serial
        } else {
            ExecMode::Parallel { threads }
        }
    }

    /// Effective worker count (1 for serial).
    pub fn threads(&self) -> usize {
        match self {
            ExecMode::Serial => 1,
            ExecMode::Parallel { threads } => (*threads).max(1),
        }
    }
}

impl Default for ExecMode {
    fn default() -> Self {
        ExecMode::auto()
    }
}

/// How parallel branches receive their copy of the ingress batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Duplication {
    /// Copy-on-write: duplication is a per-packet refcount bump; a
    /// branch's buffers are materialized only when it actually writes.
    #[default]
    Cow,
    /// Eagerly copy every packet buffer (the pre-CoW engine behavior).
    /// Kept as the reference `tests/engine_determinism.rs` compares the
    /// CoW engine against, not as a deployment setting.
    DeepCopy,
}

/// Applies `f` to every item, returning results in input order.
///
/// Under [`ExecMode::Parallel`] the units are claimed through an atomic
/// cursor (work-stealing by index) by the calling thread and by up to
/// `threads − 1` pool workers, so load imbalance between units — the
/// common case for heterogeneous SFC branches — never idles a thread
/// while work remains. Result order is the input order regardless of
/// completion order, which keeps egress merging and experiment tables
/// deterministic.
///
/// # Panics
///
/// Propagates a panic from `f` once every unit has finished (the first
/// one in input order when several units panic).
pub fn par_map<T, R, F>(mode: ExecMode, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send + 'static,
    R: Send + 'static,
    F: Fn(usize, T) -> R + Send + Sync + 'static,
{
    par_map_traced(
        mode,
        items,
        &TelemetryHandle::disabled(),
        move |i, item, _| f(i, item),
    )
}

/// [`par_map`] with per-unit telemetry: each work unit gets its own
/// [`Recorder`] (a no-op one when `tel` is disabled) and is wrapped in a
/// [`EventKind::Worker`] wall-clock span tagged with the thread that ran
/// it (0 is the caller, helpers count from 1). After the last unit
/// finishes, unit recorders are absorbed into the session sink in
/// **input-index** order, so the merged event stream is deterministic
/// regardless of which thread claimed which unit.
///
/// # Panics
///
/// Propagates a panic from `f` once every unit has finished (the first
/// one in input order when several units panic).
pub fn par_map_traced<T, R, F>(mode: ExecMode, items: Vec<T>, tel: &TelemetryHandle, f: F) -> Vec<R>
where
    T: Send + 'static,
    R: Send + 'static,
    F: Fn(usize, T, &mut Recorder) -> R + Send + Sync + 'static,
{
    POOL.map(mode, items, tel, f)
}

/// How long a caller that has run out of units spins for the stragglers
/// before it parks. About two small-packet branch units: long enough
/// that the common finish (a helper a few microseconds behind) costs no
/// futex round trip, short enough that waiting out a millisecond-scale
/// branch is done asleep.
const STRAGGLER_SPIN: Duration = Duration::from_micros(50);

/// The process-wide pool. Its threads start on the first parallel call,
/// are never joined (they hold no state a clean exit needs and sleep on
/// `work` between calls) and grow to the largest `threads − 1` any call
/// has asked for.
static POOL: Pool = Pool::new();

/// What a pool worker sees of a `par_map*` call.
trait Help: Send + Sync {
    /// Claims and runs units until none are left.
    fn help(&self);
}

struct Pool {
    state: Mutex<PoolState>,
    /// Signalled when a request is posted while a worker sleeps.
    work: Condvar,
}

struct PoolState {
    /// Posted, not yet picked up or withdrawn.
    requests: VecDeque<Arc<dyn Help>>,
    /// Threads started so far.
    workers: usize,
    /// Of those, how many are asleep on `work`.
    idle: usize,
}

impl Pool {
    const fn new() -> Self {
        Pool {
            state: Mutex::new(PoolState {
                requests: VecDeque::new(),
                workers: 0,
                idle: 0,
            }),
            work: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, PoolState> {
        // Units run outside the lock and their panics are caught, so no
        // thread can die holding it.
        self.state.lock().expect("engine pool lock poisoned")
    }

    /// Queues `helpers` requests for `call`, growing the pool to that
    /// many workers first. A thread the OS refuses is simply not there
    /// to help: requests are advisory.
    fn post(&'static self, call: Arc<dyn Help>, helpers: usize) {
        let mut state = self.lock();
        while state.workers < helpers {
            let spawned = std::thread::Builder::new()
                .name(format!("nfc-engine-{}", state.workers + 1))
                .spawn(move || self.serve());
            if spawned.is_err() {
                break;
            }
            state.workers += 1;
        }
        state.requests.extend(std::iter::repeat_n(call, helpers));
        let wake = helpers.min(state.idle);
        drop(state);
        for _ in 0..wake {
            self.work.notify_one();
        }
    }

    /// Removes the requests for `call` that no worker picked up.
    fn withdraw<C>(&self, call: &Arc<C>) {
        self.lock()
            .requests
            .retain(|r| !std::ptr::addr_eq(Arc::as_ptr(r), Arc::as_ptr(call)));
    }

    /// A worker's life: help with the oldest request, sleep when there
    /// is none.
    fn serve(&self) {
        let mut state = self.lock();
        loop {
            match state.requests.pop_front() {
                Some(call) => {
                    drop(state);
                    call.help();
                    drop(call);
                    state = self.lock();
                }
                None => {
                    state.idle += 1;
                    state = self.work.wait(state).expect("engine pool lock poisoned");
                    state.idle -= 1;
                }
            }
        }
    }

    fn map<T, R, F>(
        &'static self,
        mode: ExecMode,
        items: Vec<T>,
        tel: &TelemetryHandle,
        f: F,
    ) -> Vec<R>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(usize, T, &mut Recorder) -> R + Send + Sync + 'static,
    {
        let n = items.len();
        let threads = mode.threads().min(n);
        if threads <= 1 {
            // Serial: one recorder threads through every unit in order.
            let mut rec = tel.recorder();
            let out: Vec<R> = items
                .into_iter()
                .enumerate()
                .map(|(i, item)| run_unit(&f, i, item, &mut rec, 0))
                .collect();
            tel.absorb(rec);
            return out;
        }
        let call = Arc::new(Call {
            f,
            tel: tel.clone(),
            items: items.into_iter().map(|x| Mutex::new(Some(x))).collect(),
            done: (0..n).map(|_| Mutex::new(None)).collect(),
            cursor: AtomicUsize::new(0),
            finished: AtomicUsize::new(0),
            helpers: AtomicU32::new(0),
            caller: std::thread::current(),
        });
        self.post(Arc::clone(&call) as Arc<dyn Help>, threads - 1);
        call.run_units(0);
        self.withdraw(&call);
        call.wait();
        // Deterministic merge: absorb per-unit buffers in input order,
        // not completion order.
        let mut out = Vec::with_capacity(n);
        let mut panic = None;
        for slot in &call.done {
            let (result, rec) = slot
                .lock()
                .expect("unit slot poisoned")
                .take()
                .expect("every unit finished");
            tel.absorb(rec);
            match result {
                Ok(r) => out.push(r),
                Err(payload) => {
                    panic.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
        out
    }
}

/// Runs unit `i` inside its [`EventKind::Worker`] span.
fn run_unit<T, R>(
    f: &impl Fn(usize, T, &mut Recorder) -> R,
    i: usize,
    item: T,
    rec: &mut Recorder,
    worker: u32,
) -> R {
    let t = rec.start();
    let r = f(i, item, rec);
    if rec.is_enabled() {
        rec.wall_span(
            t,
            EventKind::Worker {
                worker,
                unit: i as u32,
            },
        );
    }
    r
}

/// A finished unit: its result (or the panic that ended it) and what it
/// recorded.
type Finished<R> = (std::thread::Result<R>, Recorder);

/// One parallel `par_map*` call, shared between its caller and whichever
/// workers pick up its requests.
struct Call<T, R, F> {
    f: F,
    tel: TelemetryHandle,
    // Slots are claimed exactly once via the cursor; the mutexes are
    // uncontended by construction and exist to keep the pool free of
    // unsafe code (`nfc-core` forbids it).
    items: Vec<Mutex<Option<T>>>,
    done: Vec<Mutex<Option<Finished<R>>>>,
    /// Next unclaimed unit; publishes nothing, hence `Relaxed`.
    cursor: AtomicUsize,
    /// Units whose result is in `done`. Incremented with `Release` and
    /// read by the caller with `Acquire`.
    finished: AtomicUsize,
    /// Workers that picked up a request; numbers their `Worker` spans.
    helpers: AtomicU32,
    caller: Thread,
}

impl<T, R, F> Call<T, R, F>
where
    F: Fn(usize, T, &mut Recorder) -> R,
{
    fn run_units(&self, worker: u32) {
        let n = self.items.len();
        loop {
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let item = self.items[i]
                .lock()
                .expect("unit slot poisoned")
                .take()
                .expect("unit claimed once");
            let mut rec = self.tel.recorder();
            rec.set_track(worker);
            // A panicking unit must neither kill a pool thread nor leave
            // the caller waiting: it is carried back as this unit's
            // result and re-raised there.
            let result = catch_unwind(AssertUnwindSafe(|| {
                run_unit(&self.f, i, item, &mut rec, worker)
            }));
            *self.done[i].lock().expect("unit slot poisoned") = Some((result, rec));
            let last = self.finished.fetch_add(1, Ordering::Release) + 1 == n;
            if last && worker != 0 {
                self.caller.unpark();
            }
        }
    }

    /// Caller side: blocks until every unit has finished. Only units
    /// already claimed by a helper can be outstanding here.
    fn wait(&self) {
        let n = self.items.len();
        let spin_until = Instant::now() + STRAGGLER_SPIN;
        while self.finished.load(Ordering::Acquire) < n {
            if Instant::now() < spin_until {
                std::hint::spin_loop();
            } else {
                // The helper that finishes last unparks after its
                // increment, so the token cannot be missed; a stale one
                // from an earlier call only costs a re-check.
                std::thread::park();
            }
        }
    }
}

impl<T, R, F> Help for Call<T, R, F>
where
    T: Send,
    R: Send,
    F: Fn(usize, T, &mut Recorder) -> R + Send + Sync,
{
    fn help(&self) {
        // At most `threads − 1` requests exist and each is picked up
        // once, so worker ids stay below `threads`.
        let worker = 1 + self.helpers.fetch_add(1, Ordering::Relaxed);
        self.run_units(worker);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn serial_and_parallel_agree_and_preserve_order() {
        let items: Vec<u64> = (0..57).collect();
        let serial = par_map(ExecMode::Serial, items.clone(), |i, x| x * 3 + i as u64);
        let parallel = par_map(ExecMode::Parallel { threads: 4 }, items, |i, x| {
            x * 3 + i as u64
        });
        assert_eq!(serial, parallel);
        assert_eq!(serial[10], 40);
    }

    #[test]
    fn empty_and_single_inputs_work() {
        let none: Vec<u8> = par_map(ExecMode::Parallel { threads: 8 }, Vec::new(), |_, x| x);
        assert!(none.is_empty());
        let one = par_map(ExecMode::Parallel { threads: 8 }, vec![9], |_, x| x + 1);
        assert_eq!(one, vec![10]);
    }

    #[test]
    fn pool_handles_many_more_items_than_workers() {
        let items: Vec<usize> = (0..1000).collect();
        let out = par_map(ExecMode::Parallel { threads: 3 }, items, |_, x| x * x);
        assert!(out.iter().enumerate().all(|(i, &v)| v == i * i));
    }

    #[test]
    fn threads_degrade_sensibly() {
        assert_eq!(ExecMode::Serial.threads(), 1);
        assert_eq!(ExecMode::Parallel { threads: 0 }.threads(), 1);
        assert_eq!(ExecMode::Parallel { threads: 6 }.threads(), 6);
    }

    /// A pool of its own, so a test can know how many workers exist and
    /// what is queued whatever the other tests do to [`POOL`].
    fn private_pool() -> &'static Pool {
        Box::leak(Box::new(Pool::new()))
    }

    fn plain<T, R>(
        pool: &'static Pool,
        threads: usize,
        items: Vec<T>,
        f: impl Fn(usize, T) -> R + Send + Sync + 'static,
    ) -> Vec<R>
    where
        T: Send + 'static,
        R: Send + 'static,
    {
        pool.map(
            ExecMode::Parallel { threads },
            items,
            &TelemetryHandle::disabled(),
            move |i, x, _| f(i, x),
        )
    }

    #[test]
    fn oversubscribed_and_long_inputs_keep_input_order() {
        // 16 threads on whatever this host has (2 cores in CI), and far
        // more units than threads.
        let items: Vec<u64> = (0..5000).collect();
        let out = par_map(ExecMode::Parallel { threads: 16 }, items, |i, x| {
            x * 7 + i as u64
        });
        assert!(out.iter().enumerate().all(|(i, &v)| v == i as u64 * 8));
    }

    #[test]
    fn a_panicking_unit_reaches_the_caller_and_the_worker_survives() {
        let pool = private_pool();
        // Both units meet at the barrier, so the pool's one worker is
        // certainly running one of them; that one panics.
        let caller = std::thread::current().id();
        let met = Arc::new(Barrier::new(2));
        let units = Arc::clone(&met);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            plain(pool, 2, vec![0u8, 1], move |_, x| {
                units.wait();
                if std::thread::current().id() != caller {
                    panic!("unit failed on a pool worker");
                }
                x
            })
        }));
        let payload = caught.expect_err("the worker's panic is re-raised in the caller");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"unit failed on a pool worker")
        );
        // The same single worker has to show up at the barrier again.
        let out = plain(pool, 2, vec![1u8, 2], move |_, x| {
            met.wait();
            x * 2
        });
        assert_eq!(out, vec![2, 4]);
        assert_eq!(pool.lock().workers, 1);
    }

    #[test]
    fn nested_calls_with_every_worker_busy_finish_and_leave_no_requests() {
        const OUTER: usize = 4;
        const INNER_CALLS: usize = 25_000; // 10^5 over the four units
        let pool = private_pool();
        let all_in = Arc::new(Barrier::new(OUTER));
        let sums = plain(pool, OUTER, vec![(); OUTER], move |u, ()| {
            // Caller and all three workers are inside an outer unit
            // before the first inner call: its requests find no idle
            // worker and have to be withdrawn.
            all_in.wait();
            (0..INNER_CALLS)
                .map(|c| {
                    plain(pool, OUTER, vec![c, u, 1], |_, x| x)
                        .into_iter()
                        .sum::<usize>()
                })
                .sum::<usize>()
        });
        let base = INNER_CALLS * (INNER_CALLS - 1) / 2 + INNER_CALLS;
        let want: Vec<usize> = (0..OUTER).map(|u| base + u * INNER_CALLS).collect();
        assert_eq!(sums, want);
        let state = pool.lock();
        assert_eq!(state.workers, OUTER - 1);
        assert!(state.requests.is_empty(), "{} left", state.requests.len());
    }

    #[test]
    fn unit_recorders_merge_in_input_order_with_one_worker_span_each() {
        const THREADS: usize = 4;
        const UNITS: u32 = 64;
        let session = nfc_telemetry::Telemetry::new(nfc_telemetry::TelemetryMode::Memory);
        let items: Vec<u32> = (0..UNITS).collect();
        par_map_traced(
            ExecMode::Parallel { threads: THREADS },
            items,
            &session.handle(),
            |_, x, rec| {
                // Uneven units, so completion order differs from input order.
                std::hint::black_box((0..(x % 5) * 2000).sum::<u32>());
                // Any instant will do as the unit's own event.
                rec.instant(EventKind::FlowCacheInvalidate {
                    generation: u64::from(x),
                });
            },
        );
        let summary = session.finish().expect("memory session");
        let mut units = Vec::new();
        let mut spans = Vec::new();
        for e in &summary.trace {
            match &e.kind {
                EventKind::FlowCacheInvalidate { generation } => units.push(*generation as u32),
                EventKind::Worker { worker, unit } => {
                    assert!((*worker as usize) < THREADS, "worker {worker}");
                    spans.push(*unit);
                }
                _ => {}
            }
        }
        let in_order: Vec<u32> = (0..UNITS).collect();
        assert_eq!(units, in_order);
        assert_eq!(spans, in_order);
    }
}
