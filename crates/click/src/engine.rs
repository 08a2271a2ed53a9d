//! The execution engine: one lazily started, process-wide persistent
//! worker pool that runs independent units (re-organized SFC branches,
//! experiment sweep points, the chunks of one element's batch)
//! concurrently while preserving deterministic result order.
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
//! **Help while waiting.** A caller that has run out of units does not
//! only spin and park: it takes queued requests (its own were withdrawn,
//! so these are other calls', typically a call nested inside the very
//! unit it is waiting for) and runs them like a pool worker would, and
//! posting a request wakes a parked caller the way it wakes an idle
//! worker. Without it a nested call finds no thread: on two cores the
//! caller runs branch 0, the pool's one worker runs branch 1, and a
//! request from inside branch 1 would sit in the queue while the caller
//! sleeps. A waiting caller only ever runs whole units to completion,
//! so waits still form no cycle, and it claims no further unit once its
//! own call has finished: it returns at most one foreign unit late. The
//! units it leaves are claimed by their own caller, as an advisory
//! request nobody took would be. A unit run this way records under the
//! helper track it was given, inside whatever span the waiting thread
//! itself has open (an outer unit, when the wait is nested).
//!
//! **Element carves.** A pure per-packet element may split its own
//! batch into contiguous chunks and [`par_map`] them, with the mode the
//! deployment handed it through
//! [`RunCtx::exec`](crate::element::RunCtx::exec) (`Serial` unless a
//! runtime set one, so standalone graphs and the per-packet reference
//! run on one core). The chunks are concatenated back into the batch it
//! was given, so its [`BatchLineage`](nfc_packet::batch::BatchLineage) is
//! untouched: a split or merge there would be charged by the simulator
//! and `merge_ordered` would re-sort by `seq`, and a carve is neither.
//! A chunk must carry enough work to pay for the call (about 1.4 µs,
//! `core.engine.par_map_us_per_call`) and for waking a parked thread (a
//! median 45 µs from the call to the unit's first instruction, on a
//! 2-vCPU VM), so each carving element keeps a private per-chunk
//! minimum measured against those costs. IPsec encryption is the first
//! such element; its minimum is 32 KiB of payload, about 250 µs of
//! sealing.
//!
//! **Branch dispatch.** A call that recurs over the same unit positions
//! (the branches of one prepared chain, batch after batch) keeps a
//! [`UnitCosts`]: a running estimate of each unit's wall time, measured
//! inside the unit whichever mode ran it. It posts to the pool only when
//! the work outside its longest unit, which is the most a helper can
//! take off the caller's critical path, reaches `HELPER_MIN` (100 µs,
//! measured beside the constant); below that it runs its units in order
//! on the calling thread. So [`ExecMode::Parallel`] means *up to*
//! `threads` for branches and carves alike, and [`ExecMode::Serial`]
//! never posts. A carve inside a branch keeps its own per-chunk minimum
//! and the deployment's mode, whichever way its branch was dispatched.
//!
//! `nfc-click` forbids `unsafe`, so nothing borrowed can cross into a
//! pool thread that outlives the call: units are *owned* (`'static`
//! items and closure, moved in and handed back through the results).
//!
//! The engine deliberately contains **no** simulator state. The runtime
//! splits each stage into a *functional* phase (packets through element
//! graphs — data-parallel across branches, dispatched through
//! [`par_map`]) and a *temporal* phase (cost replay onto the shared
//! pipeline simulator in a fixed branch-major order), so parallel and
//! serial execution produce bit-identical functional output *and*
//! bit-identical simulated timelines.

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
    /// `threads − 1` workers of the persistent pool. "Up to": a call
    /// that measures its units through [`UnitCosts`] posts no request
    /// unless the work off its critical path pays for a helper, and an
    /// element carve posts none below its per-chunk minimum.
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

/// Work off a call's critical path that pays for one helper: the
/// estimated wall time of every unit but the longest, summed. Below it a
/// call measured by [`UnitCosts`] runs on the calling thread.
///
/// Measured crossover (**clock = wall**, 2-vCPU VM, seed 7): two forced
/// branches of one chain, the lighter one `k` firewalls (256 rules) in
/// sequence, 256-packet batches. One prepared chain alternates blocks
/// of 16 batches under `Parallel { threads: 2 }` and under `Serial`;
/// "off path" is the serial estimate of the lighter branch; the ratio
/// is serial over parallel wall per batch, median (min–max) of five
/// rounds. The heavier branch is an IDS on 1 360 B frames (so the
/// caller is busy when the helper wakes) or an equal firewall branch on
/// 64 B frames (the helper's wake-up is on the critical path):
///
/// | k | beside IDS: off path | serial ÷ parallel | beside k FW: off path | serial ÷ parallel |
/// |---|---|---|---|---|
/// | 1 | 14 µs | 0.98 (0.94–1.00) | 14 µs | 0.74 (0.71–0.81) |
/// | 2 | 44 | 1.03 (0.92–1.05) | 28 | 0.88 (0.85–1.04) |
/// | 3 | 50 | 1.02 (0.98–1.07) | 42 | 0.93 (0.91–1.04) |
/// | 4 | 55 | 1.12 (1.04–1.16) | 65 | 1.17 (0.97–1.27) |
/// | 6 | 121 | 1.20 (1.13–1.25) | 94 | 1.27 (1.06–1.39) |
/// | 8 | 140 | 1.30 (1.23–1.34) | 148 | 1.40 (1.11–1.44) |
/// | 10 | 152 | 1.36 (1.22–1.42) | 187 | 1.36 (1.21–1.44) |
///
/// Over four such sessions parallel broke even at 25–40 µs off path
/// beside the IDS and at 36–60 µs beside an equal branch, and lost a
/// round at up to 81 µs; from there on it won every round of every
/// session, and 100 µs keeps that margin on a host whose speed swings
/// by a fifth between sessions. A helper also costs CPU that the wall
/// clock does not show (the second core's cache misses, the caller's
/// spin for stragglers): at 28 µs off path the pair burnt 181 µs of CPU
/// a batch in parallel against 133 µs serially.
const HELPER_MIN: Duration = Duration::from_micros(100);

/// Weight of the newest measurement in a [`UnitCosts`] estimate.
const COST_WEIGHT: f64 = 0.25;

/// Running wall-time estimates for the units of a recurring call, one
/// per unit position (a chain's branches, say), and the rule that turns
/// them into the call's mode.
#[derive(Debug, Clone)]
pub struct UnitCosts {
    /// Exponentially weighted nanoseconds per call; `None` until the
    /// unit's first measurement.
    ns: Vec<Option<f64>>,
}

impl UnitCosts {
    /// No estimate yet for any of `units` positions.
    pub fn new(units: usize) -> Self {
        UnitCosts {
            ns: vec![None; units],
        }
    }

    /// Folds one measured run of unit `i` into its estimate.
    pub fn record(&mut self, i: usize, wall: Duration) {
        let x = wall.as_nanos() as f64;
        let est = &mut self.ns[i];
        *est = Some(est.map_or(x, |e| e + COST_WEIGHT * (x - e)));
    }

    /// The mode the next call runs under: `configured` when the
    /// estimated work outside the longest unit reaches 100 µs,
    /// [`ExecMode::Serial`] otherwise. A helper can at best take that
    /// work off the caller's critical path; below the line, posting,
    /// waking and joining it cost more than it saves (the measured
    /// crossover is documented on the constant, `HELPER_MIN`). `Serial`
    /// stays serial and a single unit never posts.
    pub fn mode(&self, configured: ExecMode) -> ExecMode {
        let (sum, max) = self
            .ns
            .iter()
            .map(|e| e.unwrap_or(0.0))
            .fold((0.0, 0.0_f64), |(s, m), x| (s + x, m.max(x)));
        if sum - max >= HELPER_MIN.as_nanos() as f64 {
            configured
        } else {
            ExecMode::Serial
        }
    }
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

/// How long a caller that has run out of units (and finds no request to
/// help with) spins for the stragglers before it parks. About two
/// small-packet branch units: long enough that the common finish (a
/// helper a few microseconds behind) costs no futex round trip, short
/// enough that waiting out a millisecond-scale branch is done asleep.
const STRAGGLER_SPIN: Duration = Duration::from_micros(50);

/// The process-wide pool. Its threads start on the first parallel call,
/// are never joined (they hold no state a clean exit needs and sleep on
/// `work` between calls) and grow to the largest `threads − 1` any call
/// has asked for.
static POOL: Pool = Pool::new();

/// What a pool worker sees of a `par_map*` call.
trait Help: Send + Sync {
    /// Claims and runs units until none are left or, checked before
    /// each claim, `enough()` holds.
    fn help(&self, enough: &dyn Fn() -> bool);
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
    /// Callers parked in [`Call::wait`]; `post` wakes them as it wakes
    /// idle workers, so they can help.
    waiting: Vec<Thread>,
}

impl Pool {
    const fn new() -> Self {
        Pool {
            state: Mutex::new(PoolState {
                requests: VecDeque::new(),
                workers: 0,
                idle: 0,
                waiting: Vec::new(),
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
        // Requests no idle worker will take go to the parked callers.
        if helpers > wake {
            for caller in &state.waiting {
                caller.unpark();
            }
        }
        drop(state);
        for _ in 0..wake {
            self.work.notify_one();
        }
    }

    /// Removes the requests for `call` that no thread picked up.
    fn withdraw<C>(&self, call: &Arc<C>) {
        let mut state = self.lock();
        state
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
                    call.help(&|| false);
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
        call.run_units(0, &|| false);
        self.withdraw(&call);
        call.wait(self);
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
    // unsafe code (`nfc-click` forbids it).
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
    fn run_units(&self, worker: u32, enough: &dyn Fn() -> bool) {
        let n = self.items.len();
        while !enough() {
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

    /// Caller side: returns once every unit has finished. Only units
    /// already claimed by a helper can be outstanding here; meanwhile the
    /// caller runs units of whatever calls have queued requests,
    /// including ones posted after it started waiting, until its own
    /// call has finished.
    fn wait(&self, pool: &Pool) {
        let n = self.items.len();
        let finished = || self.finished.load(Ordering::Acquire) >= n;
        let mut spin_until = Instant::now() + STRAGGLER_SPIN;
        while !finished() {
            // `try_lock`: a spinning caller never queues behind a worker
            // for the lock, it looks again on the next turn.
            let queued = pool
                .state
                .try_lock()
                .ok()
                .and_then(|mut state| state.requests.pop_front());
            if let Some(call) = queued {
                call.help(&finished);
                spin_until = Instant::now() + STRAGGLER_SPIN;
                continue;
            }
            if Instant::now() < spin_until {
                std::hint::spin_loop();
                continue;
            }
            let mut state = pool.lock();
            if !state.requests.is_empty() {
                continue;
            }
            // Registered under the lock that `post` takes, so a request
            // posted from here on unparks this thread. The helper that
            // finishes last unparks after its increment, so that token
            // cannot be missed either; a stale one from an earlier call
            // only costs a re-check.
            let me = std::thread::current();
            let id = me.id();
            state.waiting.push(me);
            drop(state);
            if self.finished.load(Ordering::Acquire) < n {
                std::thread::park();
            }
            pool.lock().waiting.retain(|t| t.id() != id);
        }
    }
}

impl<T, R, F> Help for Call<T, R, F>
where
    T: Send,
    R: Send,
    F: Fn(usize, T, &mut Recorder) -> R + Send + Sync,
{
    fn help(&self, enough: &dyn Fn() -> bool) {
        // At most `threads − 1` requests exist and each is picked up
        // once, so worker ids stay below `threads`.
        let worker = 1 + self.helpers.fetch_add(1, Ordering::Relaxed);
        self.run_units(worker, enough);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
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
    fn branches_post_only_when_the_work_off_the_critical_path_pays_for_a_helper() {
        let par = ExecMode::Parallel { threads: 2 };
        let units = |pool: &'static Pool, mode: ExecMode| {
            pool.map(
                mode,
                vec![1u8, 2],
                &TelemetryHandle::disabled(),
                |_, x, _| x,
            )
        };
        // Light branches: the lighter one is worth less than a helper,
        // however long the critical one runs.
        let mut light = UnitCosts::new(2);
        assert_eq!(light.mode(par), ExecMode::Serial, "nothing measured yet");
        light.record(0, HELPER_MIN * 20);
        light.record(1, HELPER_MIN / 2);
        assert_eq!(light.mode(par), ExecMode::Serial);
        // A heavy branch off the critical path is worth one. Its
        // estimate moves a quarter of the way towards each measurement.
        let mut heavy = light.clone();
        heavy.record(1, HELPER_MIN * 3);
        assert_eq!(heavy.mode(par), par);
        // A single unit has nothing off its critical path.
        let mut lone = UnitCosts::new(1);
        lone.record(0, HELPER_MIN * 20);
        assert_eq!(lone.mode(par), ExecMode::Serial);
        // Neither a configured `Serial` nor a serial verdict posts: the
        // pool that would run them never starts a worker.
        let pool = private_pool();
        assert_eq!(heavy.mode(ExecMode::Serial), ExecMode::Serial);
        for mode in [
            heavy.mode(ExecMode::Serial),
            light.mode(par),
            lone.mode(par),
        ] {
            assert_eq!(units(pool, mode), vec![1, 2]);
        }
        assert_eq!(pool.lock().workers, 0);
        assert_eq!(units(pool, heavy.mode(par)), vec![1, 2]);
        assert_eq!(pool.lock().workers, 1);
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

    /// Polls `ready` for up to ten seconds, so a regression fails a test
    /// instead of hanging it.
    fn within_deadline(ready: impl Fn() -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !ready() {
            if Instant::now() > deadline {
                return false;
            }
            std::thread::yield_now();
        }
        true
    }

    #[test]
    fn a_waiting_caller_runs_a_call_posted_after_it_began_waiting() {
        let pool = private_pool();
        let caller = std::thread::current().id();
        let worker_in = Arc::new(AtomicBool::new(false));
        let ids = plain(pool, 2, vec![(); 2], move |_, ()| {
            if std::thread::current().id() == caller {
                // Leave the other outer unit to the pool's one worker.
                assert!(within_deadline(|| worker_in.load(Ordering::Acquire)));
                return Vec::new();
            }
            worker_in.store(true, Ordering::Release);
            // The caller registers as a waiter only once it is in
            // `wait`, past its spin; the nested call comes after that.
            assert!(within_deadline(|| !pool.lock().waiting.is_empty()));
            let started = Arc::new(AtomicUsize::new(0));
            plain(pool, 2, vec![(); 2], move |_, ()| {
                // Each nested unit holds its thread until the other one
                // is claimed too; only the waiting caller can claim it.
                started.fetch_add(1, Ordering::AcqRel);
                within_deadline(|| started.load(Ordering::Acquire) == 2);
                std::thread::current().id()
            })
        });
        let nested: Vec<_> = ids.into_iter().flatten().collect();
        assert_eq!(nested.len(), 2);
        assert!(
            nested.contains(&caller),
            "the waiting caller ran no nested unit"
        );
        assert!(nested.iter().any(|&id| id != caller));
        let state = pool.lock();
        assert_eq!(state.workers, 1);
        assert!(state.requests.is_empty() && state.waiting.is_empty());
    }

    #[test]
    fn a_waiting_caller_stops_helping_once_its_own_call_has_finished() {
        let pool = private_pool();
        let caller = std::thread::current().id();
        let worker_in = Arc::new(AtomicBool::new(false));
        let release = Arc::new(AtomicBool::new(false));
        let returned = Arc::new(AtomicBool::new(false));
        // Another thread's call, posted while the caller waits on its
        // own call's one outstanding unit (the pool's one worker holds
        // it): its single request can only go to the waiting caller.
        // That thread runs its own units only once the caller's call
        // has returned, so every unit the caller runs before then shows.
        let other = {
            let (release, returned) = (Arc::clone(&release), Arc::clone(&returned));
            std::thread::spawn(move || {
                assert!(within_deadline(|| !pool.lock().waiting.is_empty()));
                plain(pool, 2, vec![(); 4], move |_, ()| {
                    if std::thread::current().id() == caller {
                        // Let the caller's own call finish: the worker
                        // goes idle only after its unit has counted.
                        release.store(true, Ordering::Release);
                        assert!(within_deadline(|| pool.lock().idle == 1));
                    } else {
                        assert!(within_deadline(|| returned.load(Ordering::Acquire)));
                    }
                    std::thread::current().id()
                })
            })
        };
        let worker_in_unit = Arc::clone(&worker_in);
        plain(pool, 2, vec![(); 2], move |_, ()| {
            if std::thread::current().id() == caller {
                assert!(within_deadline(|| worker_in_unit.load(Ordering::Acquire)));
            } else {
                worker_in_unit.store(true, Ordering::Release);
                assert!(within_deadline(|| release.load(Ordering::Acquire)));
            }
        });
        returned.store(true, Ordering::Release);
        let ids = other.join().expect("the other call finishes");
        let by_caller = ids.iter().filter(|&&id| id == caller).count();
        assert_eq!(by_caller, 1, "units the waiting caller ran");
        let state = pool.lock();
        assert_eq!(state.workers, 1);
        assert!(state.requests.is_empty() && state.waiting.is_empty());
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
