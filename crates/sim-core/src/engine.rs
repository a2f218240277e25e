//! The discrete-event engine and its single-baton thread coordination.
//!
//! Processing elements (PEs) run as ordinary OS threads so that benchmark
//! and application code can be written as straight-line SHMEM programs.
//! All *timing* however is virtual, and exactly one task runs user code
//! at a time: the one holding the engine's baton. A task that blocks (on
//! a time advance or on a [`Completion`]) or exits passes the baton to
//! the head of the ready queue and parks on its own condvar; when the
//! queue is empty it first drives the event heap — moving the clock —
//! until some event wakes a task.
//!
//! Hardware models (DMA engines, HCAs, proxies) are not threads; they are
//! chains of scheduled closures (`Action`s) that fire at virtual instants,
//! move bytes between arenas, and signal completions.
//!
//! # Determinism
//!
//! Event execution order is fully deterministic: ties at the same instant
//! break on a monotonically increasing sequence number. Woken tasks
//! resume one at a time in wake order, and wake order is event order, so
//! the interleaving of PE code — and every virtual time it reports — is
//! a function of the program alone, never of OS scheduling.

use crate::time::{SimDuration, SimTime};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Identifier of a task (PE thread) registered with the engine.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TaskId(pub usize);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task{}", self.0)
    }
}

/// A deferred closure run by the engine at a virtual instant.
pub type Action = Box<dyn FnOnce(&mut Sched<'_>) + Send>;

/// What a heap entry does when it fires: wake a task blocked in
/// [`TaskCtx::advance`] (no closure needed), or run an action.
enum Event {
    Wake(TaskId),
    Run(Action),
}

struct EventEntry {
    at: SimTime,
    seq: u64,
    event: Event,
}

impl PartialEq for EventEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for EventEntry {}
impl PartialOrd for EventEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for EventEntry {
    // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Why a task is blocked; formatted only for a diagnostic dump.
#[derive(Clone, Copy)]
enum WaitReason {
    Advance(SimTime),
    Completion(u64),
}

impl fmt::Display for WaitReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WaitReason::Advance(at) => write!(f, "advance until {at}"),
            WaitReason::Completion(n) => write!(f, "completion>={n}"),
        }
    }
}

struct TaskState {
    alive: bool,
    /// In `Core::ready`, waiting for the baton.
    queued: bool,
    wait_reason: Option<WaitReason>,
    /// The task's thread sleeps here until it holds the baton.
    parked: Arc<Condvar>,
}

/// Aggregate engine counters, readable after a run.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineStats {
    /// Total events executed since engine creation.
    pub events_executed: u64,
    /// High-water mark of the pending-event heap.
    pub max_heap_len: usize,
    /// Number of task wake-ups delivered (a task's start is not one).
    pub wakeups: u64,
    /// Number of `signal` calls on completions.
    pub completions_signalled: u64,
    /// Events driven by a blocking or exiting task because no task was
    /// ready — each one is a stall where virtual time could only
    /// advance through the event heap.
    pub time_advance_stalls: u64,
}

struct Core {
    now: SimTime,
    seq: u64,
    events: BinaryHeap<EventEntry>,
    /// Woken tasks in wake order; the head gets the baton next.
    ready: VecDeque<TaskId>,
    /// The one task allowed to run user code.
    baton: Option<TaskId>,
    /// Tasks spawned and not yet exited.
    live: usize,
    tasks: Vec<TaskState>,
    stats: EngineStats,
    /// Set when a task or an event action panicked (or the engine
    /// deadlocked) so parked sibling tasks unwind instead of hanging.
    poisoned: bool,
}

impl Core {
    fn wake(&mut self, task: TaskId) {
        let st = &mut self.tasks[task.0];
        assert!(st.alive, "woke dead {task}");
        if !st.queued {
            st.queued = true;
            self.ready.push_back(task);
            self.stats.wakeups += 1;
        }
    }

    /// Hand the baton to the head of the ready queue, driving the event
    /// heap while the queue is empty. With live tasks, no ready task and
    /// no pending event, the engine is deadlocked: poison and panic.
    /// When the head is `caller` itself, it is running, not parked, and
    /// keeps the baton without a condvar signal.
    fn pass_baton(&mut self, caller: Option<TaskId>) {
        self.baton = None;
        loop {
            if let Some(next) = self.ready.pop_front() {
                let st = &mut self.tasks[next.0];
                st.queued = false;
                if caller != Some(next) {
                    st.parked.notify_one();
                }
                self.baton = Some(next);
                return;
            }
            if self.live == 0 {
                return;
            }
            match self.events.pop() {
                Some(ev) => {
                    self.stats.time_advance_stalls += 1;
                    self.exec_event(ev);
                }
                None => {
                    self.poison();
                    panic!(
                        "virtual-time deadlock: no runnable task and no pending event\n{}",
                        self.waiting_tasks()
                    )
                }
            }
        }
    }

    /// Queue `event` at `at`, counting it against the heap high-water mark.
    fn push(&mut self, at: SimTime, event: Event) {
        debug_assert!(at >= self.now, "scheduling into the past");
        let seq = self.seq;
        self.seq += 1;
        self.events.push(EventEntry { at, seq, event });
        self.stats.max_heap_len = self.stats.max_heap_len.max(self.events.len());
    }

    fn exec_event(&mut self, ev: EventEntry) {
        debug_assert!(ev.at >= self.now);
        self.now = ev.at;
        self.stats.events_executed += 1;
        match ev.event {
            Event::Wake(task) => self.wake(task),
            Event::Run(action) => {
                let r = catch_unwind(AssertUnwindSafe(|| action(&mut Sched { core: self })));
                if let Err(payload) = r {
                    self.poison();
                    resume_unwind(payload);
                }
            }
        }
    }

    /// Mark the engine failed and wake every parked task so it unwinds.
    fn poison(&mut self) {
        self.poisoned = true;
        for t in &self.tasks {
            t.parked.notify_one();
        }
    }

    /// One line per live task that neither holds nor awaits the baton.
    fn waiting_tasks(&self) -> String {
        let mut s = String::new();
        for (i, t) in self.tasks.iter().enumerate() {
            if t.alive && !t.queued && self.baton != Some(TaskId(i)) {
                let why: &dyn fmt::Display = match &t.wait_reason {
                    Some(reason) => reason,
                    None => &"<unknown>",
                };
                s.push_str(&format!("  task{i}: waiting on {why}\n"));
            }
        }
        s
    }
}

/// Handle to a simulation. Cheap to clone; all clones share one clock.
#[derive(Clone)]
pub struct Sim {
    core: Arc<Mutex<Core>>,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

/// Scheduling context handed to event callbacks and to
/// [`Sim::with_sched`] closures. Everything that mutates engine state or
/// signals completions goes through this type, which guarantees the engine
/// lock is held.
pub struct Sched<'a> {
    core: &'a mut Core,
}

impl<'a> Sched<'a> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Schedule `action` to run at absolute time `at` (>= now).
    pub fn schedule_at(&mut self, at: SimTime, action: Action) {
        self.core.push(at, Event::Run(action));
    }

    /// Schedule `action` to run after `delay`.
    pub fn schedule_in(&mut self, delay: SimDuration, action: Action) {
        let at = self.core.now + delay;
        self.schedule_at(at, action);
    }

    /// Add `n` to a completion counter, waking satisfied waiters and
    /// scheduling any attached continuation actions (they run at the
    /// current instant, after already-queued same-instant events).
    pub fn signal(&mut self, c: &Completion, n: u64) {
        self.core.stats.completions_signalled += 1;
        let now = self.core.now;
        let fired = {
            let mut st = c.inner.lock();
            st.count += n;
            if st.first_at.is_none() {
                st.first_at = Some(now);
            }
            let count = st.count;
            let mut fired = Vec::new();
            let mut kept = Vec::new();
            for wt in st.waiters.drain(..) {
                if wt.threshold <= count {
                    fired.push(wt.kind);
                } else {
                    kept.push(wt);
                }
            }
            st.waiters = kept;
            fired
        };
        for k in fired {
            match k {
                WaiterKind::Task(t) => self.core.wake(t),
                WaiterKind::Action(a) => self.schedule_in(SimDuration::ZERO, a),
            }
        }
    }

    /// Run `action` once `c` reaches `threshold` (immediately if already
    /// there). The continuation fires at the instant the threshold is
    /// crossed — the idiom for chaining pipeline stages.
    pub fn call_on(&mut self, c: &Completion, threshold: u64, action: Action) {
        {
            let mut st = c.inner.lock();
            if st.count < threshold {
                st.waiters.push(CompWaiter {
                    threshold,
                    kind: WaiterKind::Action(action),
                });
                return;
            }
        }
        self.schedule_in(SimDuration::ZERO, action);
    }
}

/// Per-task handle passed to the task body by [`Sim::run`].
pub struct TaskCtx {
    sim: Sim,
    id: TaskId,
    rank: usize,
}

impl TaskCtx {
    /// This task's engine-global id.
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// This task's rank within its `Sim::run` group (0-based).
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The owning simulation handle.
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Spend `d` of virtual time (models computation or fixed overhead).
    pub fn advance(&self, d: SimDuration) {
        if d.is_zero() {
            return;
        }
        let me = self.id;
        let mut guard = self.sim.core.lock();
        let at = guard.now + d;
        guard.push(at, Event::Wake(me));
        Sim::block_current(&mut guard, me, WaitReason::Advance(at));
    }

    /// Block until `c`'s counter reaches at least `threshold`.
    pub fn wait_threshold(&self, c: &Completion, threshold: u64) {
        let me = self.id;
        let mut guard = self.sim.core.lock();
        {
            let mut st = c.inner.lock();
            if st.count >= threshold {
                return;
            }
            st.waiters.push(CompWaiter {
                threshold,
                kind: WaiterKind::Task(me),
            });
        }
        Sim::block_current(&mut guard, me, WaitReason::Completion(threshold));
    }

    /// Block until `c` has been signalled at least once.
    pub fn wait(&self, c: &Completion) {
        self.wait_threshold(c, 1);
    }

    /// Block until `c` reaches `threshold` or virtual time advances by
    /// `timeout`, whichever comes first — the engine-level quiesce
    /// watchdog. Returns `Ok(())` if the threshold was reached and
    /// `Err(dump)` with a [`Sim::blocked_dump`] diagnostic if the
    /// deadline fired first. A zero `timeout` degrades to a plain
    /// [`TaskCtx::wait_threshold`], keeping unwatched runs' event order
    /// byte-identical.
    ///
    /// The deadline is a real scheduled event, so a completion that
    /// never arrives (a lost CQE with retries disabled) keeps the event
    /// heap non-empty: the engine reaches the deadline and hands back a
    /// typed failure instead of tripping the virtual-time deadlock
    /// panic. On timeout the threshold waiter attached to `c` stays
    /// registered and fires harmlessly if the completion lands later.
    pub fn wait_threshold_deadline(
        &self,
        c: &Completion,
        threshold: u64,
        timeout: SimDuration,
    ) -> Result<(), String> {
        if timeout.is_zero() {
            self.wait_threshold(c, threshold);
            return Ok(());
        }
        let fired = Completion::new();
        self.with_sched(|s| {
            let f1 = fired.clone();
            s.call_on(c, threshold, Box::new(move |s| s.signal(&f1, 1)));
            let f2 = fired.clone();
            s.schedule_in(timeout, Box::new(move |s| s.signal(&f2, 1)));
        });
        self.wait_threshold(&fired, 1);
        if c.is_done(threshold) {
            Ok(())
        } else {
            Err(self.sim.blocked_dump())
        }
    }

    /// Run a closure with the scheduler (engine lock held): the doorway for
    /// hardware models invoked from PE context.
    pub fn with_sched<R>(&self, f: impl FnOnce(&mut Sched<'_>) -> R) -> R {
        self.sim.with_sched(f)
    }
}

impl Sim {
    pub fn new() -> Sim {
        Sim {
            core: Arc::new(Mutex::new(Core {
                now: SimTime::ZERO,
                seq: 0,
                events: BinaryHeap::new(),
                ready: VecDeque::new(),
                baton: None,
                live: 0,
                tasks: Vec::new(),
                stats: EngineStats::default(),
                poisoned: false,
            })),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.lock().now
    }

    /// Engine counters so far.
    pub fn stats(&self) -> EngineStats {
        self.core.lock().stats
    }

    /// Diagnostic snapshot of every blocked task's wait reason plus the
    /// pending-event count — what a quiesce-watchdog timeout reports so
    /// a stuck wait names its suspects instead of just timing out.
    pub fn blocked_dump(&self) -> String {
        let guard = self.core.lock();
        format!(
            "blocked tasks at t={} ({} events pending):\n{}",
            guard.now,
            guard.events.len(),
            guard.waiting_tasks()
        )
    }

    /// Run a closure with the scheduler (engine lock held). Tasks it
    /// wakes join the ready queue and resume when the baton reaches them.
    pub fn with_sched<R>(&self, f: impl FnOnce(&mut Sched<'_>) -> R) -> R {
        f(&mut Sched {
            core: &mut self.core.lock(),
        })
    }

    /// Spawn `n` tasks running `f(ctx)` and block until all finish, then
    /// drain any remaining events (letting in-flight hardware settle).
    /// Returns each task's result, indexed by rank. Tasks first take the
    /// baton in rank order.
    ///
    /// Virtual time persists across consecutive `run` calls.
    pub fn run<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(TaskCtx) -> T + Send + Sync,
    {
        assert!(n > 0, "need at least one task");
        let base = {
            let mut core = self.core.lock();
            assert_eq!(core.live, 0, "nested/overlapping Sim::run is not supported");
            let base = core.tasks.len();
            for id in base..base + n {
                core.tasks.push(TaskState {
                    alive: true,
                    queued: true,
                    wait_reason: None,
                    parked: Arc::new(Condvar::new()),
                });
                core.ready.push_back(TaskId(id));
            }
            core.live += n;
            core.pass_baton(None);
            base
        };
        let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
        let mut panics: Vec<Box<dyn std::any::Any + Send>> = std::thread::scope(|scope| {
            let handles: Vec<_> = out
                .iter_mut()
                .enumerate()
                .map(|(rank, slot)| {
                    let sim = self.clone();
                    let f = &f;
                    scope.spawn(move || {
                        let id = TaskId(base + rank);
                        // A panicking task must release its accounting and
                        // poison the engine, or sibling tasks hang forever.
                        let r = catch_unwind(AssertUnwindSafe(|| {
                            Sim::park(&mut sim.core.lock(), id);
                            f(TaskCtx {
                                sim: sim.clone(),
                                id,
                                rank,
                            })
                        }));
                        match r {
                            Ok(v) => {
                                sim.task_exit(id);
                                *slot = Some(v);
                            }
                            Err(payload) => {
                                sim.task_abort(id);
                                resume_unwind(payload);
                            }
                        }
                    })
                })
                .collect();
            handles.into_iter().filter_map(|h| h.join().err()).collect()
        });
        if !panics.is_empty() {
            // Prefer the root-cause panic over the secondary
            // "simulation poisoned" panics of its siblings.
            let is_poison = |p: &Box<dyn std::any::Any + Send>| {
                let msg = p
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| p.downcast_ref::<String>().cloned())
                    .unwrap_or_default();
                msg.contains("simulation poisoned")
            };
            let idx = panics.iter().position(|p| !is_poison(p)).unwrap_or(0);
            resume_unwind(panics.swap_remove(idx));
        }
        self.drain();
        out.into_iter().map(|o| o.expect("task result")).collect()
    }

    /// Execute every pending event (advancing time) until the heap is empty.
    pub fn drain(&self) {
        let mut guard = self.core.lock();
        assert_eq!(
            guard.live, 0,
            "drain() while tasks are live would execute events out from under them"
        );
        while let Some(ev) = guard.events.pop() {
            guard.exec_event(ev);
        }
    }

    fn task_exit(&self, id: TaskId) {
        let mut guard = self.core.lock();
        guard.tasks[id.0].alive = false;
        guard.live -= 1;
        guard.pass_baton(None);
    }

    /// A task died by panic: release its accounting and poison the
    /// engine so its siblings unwind instead of deadlocking.
    fn task_abort(&self, id: TaskId) {
        let mut guard = self.core.lock();
        guard.tasks[id.0].alive = false;
        guard.live -= 1;
        guard.poison();
    }

    /// Block the calling task until it is woken and the baton reaches
    /// it. Must be entered with the engine lock held, by the baton
    /// holder, with the task registered as a waiter somewhere.
    fn block_current(guard: &mut MutexGuard<'_, Core>, me: TaskId, reason: WaitReason) {
        guard.tasks[me.0].wait_reason = Some(reason);
        guard.pass_baton(Some(me));
        Self::park(guard, me);
        guard.tasks[me.0].wait_reason = None;
    }

    /// Sleep until `me` holds the baton; unwind if the engine is poisoned.
    fn park(guard: &mut MutexGuard<'_, Core>, me: TaskId) {
        let parked = guard.tasks[me.0].parked.clone();
        loop {
            if guard.poisoned {
                panic!("simulation poisoned by an earlier panic in another task");
            }
            if guard.baton == Some(me) {
                return;
            }
            parked.wait(guard);
        }
    }
}

enum WaiterKind {
    Task(TaskId),
    Action(Action),
}

struct CompWaiter {
    threshold: u64,
    kind: WaiterKind,
}

struct CompState {
    count: u64,
    waiters: Vec<CompWaiter>,
    /// Instant of the first signal (event-timestamping).
    first_at: Option<SimTime>,
}

/// A counting completion flag: hardware callbacks [`Sched::signal`] it,
/// tasks [`TaskCtx::wait_threshold`] on it. This is the moral equivalent
/// of a completion queue entry counter.
///
/// All mutation happens under the engine lock (enforced by the `Sched`
/// API), so there are no lost wake-ups.
#[derive(Clone)]
pub struct Completion {
    inner: Arc<Mutex<CompState>>,
}

impl Default for Completion {
    fn default() -> Self {
        Self::new()
    }
}

impl Completion {
    pub fn new() -> Completion {
        Completion {
            inner: Arc::new(Mutex::new(CompState {
                count: 0,
                waiters: Vec::new(),
                first_at: None,
            })),
        }
    }

    /// Racy read of the counter (fine for asserts and polling).
    pub fn peek(&self) -> u64 {
        self.inner.lock().count
    }

    /// True once the counter reached `threshold`.
    pub fn is_done(&self, threshold: u64) -> bool {
        self.peek() >= threshold
    }

    /// Virtual instant of the first signal, if any (event timestamps).
    pub fn time(&self) -> Option<SimTime> {
        self.inner.lock().first_at
    }
}

impl fmt::Debug for Completion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Completion({})", self.peek())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use std::sync::atomic::{AtomicU64, Ordering as AO};

    #[test]
    fn advance_moves_clock() {
        let sim = Sim::new();
        let end = sim.run(1, |ctx| {
            ctx.advance(SimDuration::from_us(5));
            ctx.advance(SimDuration::from_us(7));
            ctx.now()
        });
        assert_eq!(end[0].as_us_f64(), 12.0);
    }

    #[test]
    fn two_tasks_interleave_in_time_order() {
        let sim = Sim::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        let l2 = log.clone();
        sim.run(2, move |ctx| {
            let me = ctx.id().0;
            // task0 steps 10us, task1 steps 4us: pure time interleaving.
            let step = if me == 0 { 10 } else { 4 };
            for i in 0..3 {
                ctx.advance(SimDuration::from_us(step));
                l2.lock().push((ctx.now().as_us_f64() as u64, me, i));
            }
        });
        let mut v = log.lock().clone();
        let sorted = {
            let mut s = v.clone();
            s.sort();
            s
        };
        v.sort();
        assert_eq!(v, sorted);
        // task1 wakes at 4, 8, 12; task0 at 10, 20, 30.
        let times: Vec<u64> = v.iter().map(|e| e.0).collect();
        assert_eq!(times, vec![4, 8, 10, 12, 20, 30]);
    }

    #[test]
    fn completion_wakes_waiter() {
        let sim = Sim::new();
        let c = Completion::new();
        let c2 = c.clone();
        let out = sim.run(2, move |ctx| {
            if ctx.id().0 == 0 {
                // waiter
                ctx.wait(&c2);
                ctx.now().as_us_f64() as u64
            } else {
                ctx.advance(SimDuration::from_us(9));
                ctx.with_sched(|s| s.signal(&c2, 1));
                0
            }
        });
        assert_eq!(out[0], 9);
    }

    #[test]
    fn deadline_wait_times_out_on_lost_completion() {
        // a completion that is never signalled: without the deadline
        // this would be the virtual-time deadlock panic; with it the
        // task gets a typed Err carrying the blocked-task dump
        let sim = Sim::new();
        let c = Completion::new();
        let out = sim.run(1, move |ctx| {
            let r = ctx.wait_threshold_deadline(&c, 1, SimDuration::from_us(50));
            (r, ctx.now().as_us_f64() as u64)
        });
        let (r, t) = out[0].clone();
        assert_eq!(t, 50, "deadline must advance the clock to exactly timeout");
        let dump = r.expect_err("lost completion must time out");
        assert!(dump.contains("events pending"), "dump was {dump:?}");
    }

    #[test]
    fn deadline_wait_succeeds_before_timeout() {
        let sim = Sim::new();
        let c = Completion::new();
        let c2 = c.clone();
        let out = sim.run(2, move |ctx| {
            if ctx.id().0 == 0 {
                let r = ctx.wait_threshold_deadline(&c2, 2, SimDuration::from_us(100));
                assert!(r.is_ok());
                ctx.now().as_us_f64() as u64
            } else {
                for _ in 0..2 {
                    ctx.advance(SimDuration::from_us(3));
                    ctx.with_sched(|s| s.signal(&c2, 1));
                }
                0
            }
        });
        assert_eq!(out[0], 6, "waiter must resume at signal time, not deadline");
    }

    #[test]
    fn deadline_wait_zero_timeout_is_plain_wait() {
        let sim = Sim::new();
        let c = Completion::new();
        let c2 = c.clone();
        let out = sim.run(2, move |ctx| {
            if ctx.id().0 == 0 {
                ctx.wait_threshold_deadline(&c2, 1, SimDuration::ZERO).unwrap();
                ctx.now().as_us_f64() as u64
            } else {
                ctx.advance(SimDuration::from_us(4));
                ctx.with_sched(|s| s.signal(&c2, 1));
                0
            }
        });
        assert_eq!(out[0], 4);
    }

    #[test]
    fn threshold_wait_counts() {
        let sim = Sim::new();
        let c = Completion::new();
        let c2 = c.clone();
        let out = sim.run(2, move |ctx| {
            if ctx.id().0 == 0 {
                ctx.wait_threshold(&c2, 3);
                ctx.now().as_us_f64() as u64
            } else {
                for _ in 0..3 {
                    ctx.advance(SimDuration::from_us(2));
                    ctx.with_sched(|s| s.signal(&c2, 1));
                }
                0
            }
        });
        assert_eq!(out[0], 6);
        assert!(c.is_done(3));
    }

    #[test]
    fn wait_on_already_satisfied_completion_returns_immediately() {
        let sim = Sim::new();
        let c = Completion::new();
        sim.with_sched(|s| s.signal(&c, 5));
        let t = sim.run(1, |ctx| {
            ctx.wait_threshold(&c, 5);
            ctx.now()
        });
        assert_eq!(t[0], SimTime::ZERO);
    }

    #[test]
    fn event_chains_execute_in_order() {
        let sim = Sim::new();
        let hits = Arc::new(AtomicU64::new(0));
        let h = hits.clone();
        let c = Completion::new();
        let c2 = c.clone();
        sim.run(1, move |ctx| {
            let h = h.clone();
            let c = c2.clone();
            ctx.with_sched(move |s| {
                // chain: a -> b -> signal
                s.schedule_in(
                    SimDuration::from_us(1),
                    Box::new(move |s| {
                        h.fetch_add(1, AO::SeqCst);
                        let h2 = h.clone();
                        let c2 = c.clone();
                        s.schedule_in(
                            SimDuration::from_us(1),
                            Box::new(move |s| {
                                h2.fetch_add(1, AO::SeqCst);
                                s.signal(&c2, 1);
                            }),
                        );
                    }),
                );
            });
            ctx.wait(&c2);
            assert_eq!(ctx.now().as_us_f64(), 2.0);
        });
        assert_eq!(hits.load(AO::SeqCst), 2);
    }

    #[test]
    fn same_instant_events_fifo_by_seq() {
        let sim = Sim::new();
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..10u32 {
            let o = order.clone();
            sim.with_sched(|s| {
                s.schedule_in(
                    SimDuration::from_us(1),
                    Box::new(move |_| o.lock().push(i)),
                )
            });
        }
        sim.drain();
        assert_eq!(*order.lock(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "virtual-time deadlock")]
    fn deadlock_is_detected() {
        let sim = Sim::new();
        let c = Completion::new();
        sim.run(1, move |ctx| {
            ctx.wait(&c); // nobody will ever signal
        });
    }

    #[test]
    fn time_persists_across_runs() {
        let sim = Sim::new();
        sim.run(1, |ctx| ctx.advance(SimDuration::from_us(3)));
        let t = sim.run(1, |ctx| {
            ctx.advance(SimDuration::from_us(4));
            ctx.now()
        });
        assert_eq!(t[0].as_us_f64(), 7.0);
    }

    #[test]
    fn run_returns_results_by_rank() {
        let sim = Sim::new();
        let out = sim.run(8, |ctx| ctx.id().0 * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn stats_count_events() {
        let sim = Sim::new();
        sim.run(1, |ctx| {
            ctx.advance(SimDuration::from_us(1));
            ctx.advance(SimDuration::from_us(1));
        });
        // a task-wake heap entry is still one event and one wake-up
        let st = sim.stats();
        assert_eq!(st.events_executed, 2);
        assert_eq!(st.wakeups, 2);
    }

    #[test]
    fn blocked_dump_and_deadlock_panic_name_wait_reasons() {
        // both diagnostics format the same per-task wait reasons: task0
        // waits on a completion nobody signals, task1 on a time advance
        let sim = Sim::new();
        let c = Completion::new();
        let dump = Arc::new(Mutex::new(String::new()));
        let d2 = dump.clone();
        let r = catch_unwind(AssertUnwindSafe(|| {
            sim.run(3, |ctx| match ctx.rank() {
                0 => ctx.wait_threshold(&c, 3),
                1 => ctx.advance(SimDuration::from_us(5)),
                _ => *d2.lock() = ctx.sim().blocked_dump(),
            })
        }));
        let dump = dump.lock().clone();
        assert!(dump.contains("task0: waiting on completion>=3"), "{dump}");
        assert!(dump.contains("task1: waiting on advance until 5.000us"), "{dump}");
        let payload = r.expect_err("task0 can never resume");
        let msg = payload.downcast_ref::<String>().expect("formatted panic");
        assert!(msg.starts_with("virtual-time deadlock"), "{msg}");
        assert!(msg.contains("task0: waiting on completion>=3"), "{msg}");
    }

    #[test]
    fn many_tasks_barrier_style_sync() {
        // All tasks advance different amounts then signal a shared counter;
        // one task waits for all. Stress the wake bookkeeping.
        let sim = Sim::new();
        let n = 16;
        let c = Completion::new();
        let c2 = c.clone();
        let out = sim.run(n, move |ctx| {
            let me = ctx.id().0 as u64;
            ctx.advance(SimDuration::from_us(me + 1));
            ctx.with_sched(|s| s.signal(&c2, 1));
            ctx.wait_threshold(&c2, n as u64);
            ctx.now().as_us_f64() as u64
        });
        // Everyone resumes when the slowest (16us) signals.
        assert!(out.iter().all(|&t| t == n as u64));
    }

    #[test]
    fn same_instant_resumption_follows_wait_registration_order() {
        // Tasks register on one completion in a scrambled rank order;
        // a single event wakes them all at one instant. They must resume
        // in registration order, on every run.
        let n = 12;
        for _ in 0..20 {
            let sim = Sim::new();
            let c = Completion::new();
            let c2 = c.clone();
            sim.with_sched(|s| {
                s.schedule_in(
                    SimDuration::from_us(100),
                    Box::new(move |s| s.signal(&c2, 1)),
                )
            });
            let registered = Arc::new(Mutex::new(Vec::new()));
            let resumed = Arc::new(Mutex::new(Vec::new()));
            let (reg, res) = (registered.clone(), resumed.clone());
            sim.run(n, move |ctx| {
                // rank * 7 mod 12 permutes the ranks
                ctx.advance(SimDuration::from_us(1 + (ctx.rank() * 7 % n) as u64));
                reg.lock().push(ctx.rank());
                ctx.wait(&c);
                res.lock().push(ctx.rank());
            });
            assert_eq!(resumed.lock().len(), n);
            assert_eq!(*resumed.lock(), *registered.lock());
        }
    }

    #[test]
    fn one_task_runs_user_code_at_a_time() {
        // Every round wakes all tasks at one instant, twice: from a time
        // advance and from a shared completion. Each woken task yields
        // its CPU inside its user-code section before blocking again; no
        // other task may enter meanwhile.
        let n = 8;
        let rounds = 10u64;
        let sim = Sim::new();
        let c = Completion::new();
        for r in 1..=rounds {
            let c2 = c.clone();
            sim.with_sched(|s| {
                s.schedule_in(
                    SimDuration::from_us(10 * r),
                    Box::new(move |s| s.signal(&c2, 1)),
                )
            });
        }
        let inside = Arc::new(AtomicU64::new(0));
        let peak = Arc::new(AtomicU64::new(0));
        let (i2, p2) = (inside.clone(), peak.clone());
        sim.run(n, move |ctx| {
            let user_code = || {
                p2.fetch_max(i2.fetch_add(1, AO::SeqCst) + 1, AO::SeqCst);
                std::thread::yield_now();
                i2.fetch_sub(1, AO::SeqCst);
            };
            for r in 1..=rounds {
                ctx.advance(SimDuration::from_us(1));
                user_code();
                ctx.wait_threshold(&c, r);
                user_code();
            }
        });
        assert_eq!(peak.load(AO::SeqCst), 1);
    }
}

#[cfg(test)]
mod continuation_tests {
    use super::*;
    use crate::time::SimDuration;
    use std::sync::atomic::{AtomicU64, Ordering as AO};
    use std::sync::Arc;

    #[test]
    fn call_on_fires_when_threshold_crossed() {
        let sim = Sim::new();
        let c = Completion::new();
        let hit = Arc::new(AtomicU64::new(0));
        let h = hit.clone();
        let c2 = c.clone();
        sim.with_sched(move |s| {
            let h2 = h.clone();
            s.call_on(&c2, 3, Box::new(move |_| {
                h2.store(1, AO::SeqCst);
            }));
        });
        sim.with_sched(|s| s.signal(&c, 2));
        sim.drain();
        assert_eq!(hit.load(AO::SeqCst), 0, "fired below threshold");
        sim.with_sched(|s| s.signal(&c, 1));
        sim.drain();
        assert_eq!(hit.load(AO::SeqCst), 1);
    }

    #[test]
    fn call_on_already_satisfied_fires_immediately() {
        let sim = Sim::new();
        let c = Completion::new();
        sim.with_sched(|s| s.signal(&c, 5));
        let hit = Arc::new(AtomicU64::new(0));
        let h = hit.clone();
        sim.with_sched(move |s| {
            s.call_on(&c, 2, Box::new(move |_| {
                h.store(7, AO::SeqCst);
            }));
        });
        sim.drain();
        assert_eq!(hit.load(AO::SeqCst), 7);
    }

    #[test]
    fn chained_continuations_model_a_pipeline() {
        // c1 -> schedule work -> signal c2 -> continuation on c2
        let sim = Sim::new();
        let c1 = Completion::new();
        let c2 = Completion::new();
        let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let (o1, o2) = (order.clone(), order.clone());
        let c1b = c1.clone();
        let c2b = c2.clone();
        let c2d = c2.clone();
        sim.with_sched(move |s| {
            s.call_on(&c1b, 1, Box::new(move |s| {
                o1.lock().push("stage1");
                let c2c = c2b.clone();
                s.schedule_in(SimDuration::from_us(3), Box::new(move |s| s.signal(&c2c, 1)));
            }));
            s.call_on(&c2d, 1, Box::new(move |_| {
                o2.lock().push("stage2");
            }));
        });
        sim.with_sched(|s| s.signal(&c1, 1));
        sim.drain();
        assert_eq!(*order.lock(), vec!["stage1", "stage2"]);
        assert_eq!(sim.now().as_us_f64(), 3.0);
    }

    #[test]
    fn mixed_task_and_action_waiters_both_fire() {
        let sim = Sim::new();
        let c = Completion::new();
        let act = Arc::new(AtomicU64::new(0));
        let a2 = act.clone();
        let c2 = c.clone();
        let c3 = c.clone();
        let out = sim.run(2, move |ctx| {
            if ctx.id().0 == 0 {
                let a3 = a2.clone();
                ctx.with_sched(|s| {
                    s.call_on(&c2, 1, Box::new(move |_| {
                        a3.store(1, AO::SeqCst);
                    }));
                });
                ctx.wait(&c2); // also wait as a task
                ctx.now().as_us_f64()
            } else {
                ctx.advance(SimDuration::from_us(4));
                ctx.with_sched(|s| s.signal(&c3, 1));
                0.0
            }
        });
        assert_eq!(out[0], 4.0);
        assert_eq!(act.load(AO::SeqCst), 1);
    }

    #[test]
    #[should_panic(expected = "boom")] // the ROOT cause is re-raised
    fn sibling_panic_poisons_blocked_tasks() {
        let sim = Sim::new();
        let c = Completion::new();
        sim.run(2, move |ctx| {
            if ctx.id().0 == 0 {
                // block forever; must be unblocked by the poison
                ctx.wait(&c);
            } else {
                ctx.advance(SimDuration::from_us(1));
                panic!("boom");
            }
        });
    }
}
