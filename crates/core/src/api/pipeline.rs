//! The pipelined command plane: per-node submission queues, op futures,
//! and the background session executor.
//!
//! Every mutating operation submitted through a [`Session`] returns an
//! [`OpFuture`] ticket immediately; the op lands in the session's
//! submission queue and an executor drains the queue in *batches* — one
//! catalog round-trip (`put_many`) and one scheduler lock acquisition
//! (`schedule_many`) per batch — instead of paying one lock-and-round-trip
//! per call. A client can keep thousands of operations in flight against
//! the sharded DC+DS plane and collect completions with
//! [`OpFuture::wait`] / [`OpFuture::try_get`] / [`join_all`] — or simply
//! `.await` them: [`OpFuture`] implements [`std::future::Future`] with no
//! runtime dependency (see [`block_on`] for a zero-dependency executor).
//!
//! ## Drain modes
//!
//! **Cooperative** (the default, and the only mode under the simulator):
//! the queue drains when it reaches the session's batch limit, when
//! [`Session::flush`] is called, or when any future belonging to the
//! session is waited on. That makes the semantics identical on the
//! threaded [`BitdewNode`](crate::BitdewNode) and on the single-threaded,
//! virtual-time [`SimNode`](crate::simdriver::SimNode) (where a wait
//! drives the drain itself — no background thread required, so nothing in
//! the discrete event order changes).
//!
//! **Background** ([`Session::start_executor`], on by default for
//! [`BitdewNode::session`](crate::BitdewNode::session)): the session
//! registers with the process-shared
//! [`ExecutorPool`] — a fixed set of
//! worker threads (default [`std::thread::available_parallelism`]) that
//! drains *every* background session of the process. A submission marks
//! the session ready; a worker claims the whole session, drains it
//! through the same serialized flush path as a cooperative drain, and
//! idle workers steal ready sessions (never individual ops) from each
//! other — so batch round-trips overlap application work, futures resolve
//! without any caller-driven pump, and the thread count stays flat as
//! sessions grow. Batches stay *self-clocking*: while one batch executes
//! its wire round-trips, new submissions accumulate, so the next drain is
//! a bigger batch exactly when the plane is the bottleneck (the
//! group-commit idiom). [`Session::start_executor_with`] selects the pool
//! explicitly ([`ExecutorConfig::Pool`](crate::api::pool::ExecutorConfig)
//! — tests pin worker counts with private pools) or falls back to the
//! PR 5 shape, one dedicated `bitdew-exec` thread per session
//! ([`ExecutorConfig::Dedicated`](crate::api::pool::ExecutorConfig)).
//!
//! Batches preserve program order per datum in both modes: ops are grouped
//! into `put → schedule → pin → delete` phases, and a later op that would
//! have to run *before* an already-queued op on the same datum (e.g. a
//! re-schedule after a queued delete) closes the current batch segment and
//! opens a new one.
//!
//! ## Error delivery
//!
//! Each future carries its own [`crate::BitdewError`]. An error whose
//! future was dropped without being consumed is **not** lost: it lands in
//! the session's error sink ([`Session::take_failed`] /
//! [`Session::failed_count`]), and the last session handle logs any
//! still-unreported failures when it drops. The sink is bounded: past
//! [`ERROR_SINK_CAP`] uncollected errors the oldest is shed (counted by
//! [`Session::failed_dropped`]), so an abandoned-futures loop cannot grow
//! it without limit.

use std::collections::{HashMap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Waker};
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::api::pool::{self, ExecutorConfig, ExecutorPool, PoolDrive, PoolHandle};
use crate::api::{ActiveData, BitDewApi, BitdewError, Result, TransferManager};
use crate::attr::DataAttributes;
use crate::data::{Data, DataId};

/// Default submission-queue length that triggers an automatic drain.
pub const DEFAULT_BATCH_LIMIT: usize = 256;

/// Most uncollected errors the session sink retains; beyond it the oldest
/// is shed and [`Session::failed_dropped`] counts the loss.
pub const ERROR_SINK_CAP: usize = 1024;

/// How long a parked waiter sleeps before re-checking whether it must
/// drive the queue itself (an executor may have stopped mid-wait).
const WAIT_RECHECK: Duration = Duration::from_millis(100);

/// A background session's queue bound, as a multiple of the batch limit:
/// producers that sustainably outrun the executor park at
/// `batch_limit × HIGH_WATER_FACTOR` queued ops until it catches up.
const HIGH_WATER_FACTOR: usize = 16;

/// One queued mutating operation.
enum Op {
    Put(Data, Vec<u8>, Ticket<()>),
    Schedule(Data, DataAttributes, Ticket<()>),
    Pin(Data, DataAttributes, Ticket<()>),
    Delete(Data, Ticket<()>),
}

impl Op {
    /// Batch phase: ops of a lower phase run before ops of a higher phase
    /// within one segment (put before schedule before pin before delete —
    /// the only orders an application can mean when it queues them
    /// together).
    fn phase(&self) -> u8 {
        match self {
            Op::Put(..) => 0,
            Op::Schedule(..) => 1,
            Op::Pin(..) => 2,
            Op::Delete(..) => 3,
        }
    }

    fn data_id(&self) -> DataId {
        match self {
            Op::Put(d, ..) | Op::Schedule(d, ..) | Op::Pin(d, ..) | Op::Delete(d, ..) => d.id,
        }
    }
}

/// Resolution slot of one op future.
enum SlotState<T> {
    Pending,
    Ready(Result<T>),
    Taken,
    /// The future was dropped while the op was still queued or in flight;
    /// an error resolution routes to the session's error sink instead of
    /// vanishing.
    Abandoned,
}

struct OpSlot<T> {
    state: Mutex<SlotState<T>>,
    cond: Condvar,
    /// Task waker of an `.await`er, stored by `Future::poll` and woken when
    /// the slot resolves.
    waker: Mutex<Option<Waker>>,
}

type Ticket<T> = Arc<OpSlot<T>>;

fn ticket<T>() -> Ticket<T> {
    Arc::new(OpSlot {
        state: Mutex::new(SlotState::Pending),
        cond: Condvar::new(),
        waker: Mutex::new(None),
    })
}

/// Something that can drain a submission queue and absorb orphaned errors
/// — implemented by the session core so a future can drive (or park on)
/// its own resolution without naming the node type.
trait Drive {
    /// Drain the owning session's queue now.
    fn drive(&self);
    /// Whether the *calling thread* should park and let a background
    /// executor resolve its tickets. False when no executor is draining —
    /// and false on the draining thread itself (a bus handler fired from
    /// inside a batch that waits/awaits a future must drive the nested
    /// drain, not park on a resolution only its own frame can produce).
    fn background_active(&self) -> bool;
    /// Record the error of an op whose future was dropped unconsumed.
    fn sink_error(&self, err: BitdewError);
}

/// A ticket for one submitted operation. Resolution happens when the
/// owning session's queue drains; waiting on the future triggers that
/// drain on a cooperative session and parks on a background-executor one,
/// so a pipelined caller never deadlocks on its own queue.
///
/// `OpFuture` also implements [`std::future::Future`], so
/// `handle.put(..).await` works under any async executor (the waker is
/// stored in the op slot and woken when the background executor resolves
/// it; on a cooperative session the first poll drains the queue
/// synchronously, preserving discrete-event order under the simulator).
#[must_use = "a dropped OpFuture reports its op's error only through Session::take_failed; wait(), .await or join_all() it"]
pub struct OpFuture<T> {
    slot: Ticket<T>,
    driver: Arc<dyn Drive>,
}

impl<T> OpFuture<T> {
    /// Whether the op has resolved (successfully or not) — never drives
    /// the queue, never blocks.
    pub fn is_ready(&self) -> bool {
        !matches!(*self.slot.state.lock(), SlotState::Pending)
    }

    /// Take the result if the op has resolved; `None` while it is still
    /// queued or in flight (and forever after the result was taken).
    /// Never drives the queue.
    pub fn try_get(&self) -> Option<Result<T>> {
        let mut state = self.slot.state.lock();
        match std::mem::replace(&mut *state, SlotState::Taken) {
            SlotState::Ready(result) => Some(result),
            other => {
                *state = other;
                None
            }
        }
    }

    /// Resolve the op and return the result. On a cooperative session this
    /// flushes the owning queue synchronously; with a background executor
    /// running it parks until the executor resolves the ticket (re-driving
    /// itself if the executor stops mid-wait).
    pub fn wait(self) -> Result<T> {
        if !self.is_ready() && !self.driver.background_active() {
            self.driver.drive();
        }
        let mut state = self.slot.state.lock();
        loop {
            match std::mem::replace(&mut *state, SlotState::Taken) {
                SlotState::Ready(result) => return result,
                SlotState::Taken | SlotState::Abandoned => {
                    panic!("OpFuture::wait called after the result was already taken")
                }
                SlotState::Pending => {
                    // Another thread (a concurrent flusher or the background
                    // executor) owns this op; park until it resolves the
                    // ticket. If no executor is draining anymore (it was
                    // stopped, or a concurrent flush finished without our
                    // op), drive the queue ourselves.
                    *state = SlotState::Pending;
                    self.slot.cond.wait_for(&mut state, WAIT_RECHECK);
                    if matches!(*state, SlotState::Pending) && !self.driver.background_active() {
                        drop(state);
                        self.driver.drive();
                        state = self.slot.state.lock();
                    }
                }
            }
        }
    }
}

impl<T> Future for OpFuture<T> {
    type Output = Result<T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Result<T>> {
        if let Some(result) = self.try_get() {
            return Poll::Ready(result);
        }
        // Store the waker before the second readiness check so a resolve
        // racing between the two wakes us rather than being lost.
        *self.slot.waker.lock() = Some(cx.waker().clone());
        if let Some(result) = self.try_get() {
            return Poll::Ready(result);
        }
        if !self.driver.background_active() {
            // Cooperative session: the poller is the only driver, so drain
            // synchronously — the future resolves within this poll and
            // discrete-event order is unchanged under the simulator.
            self.driver.drive();
            if let Some(result) = self.try_get() {
                return Poll::Ready(result);
            }
        }
        Poll::Pending
    }
}

impl<T> Drop for OpFuture<T> {
    fn drop(&mut self) {
        let mut state = self.slot.state.lock();
        match std::mem::replace(&mut *state, SlotState::Taken) {
            // Resolved to an error nobody consumed: route it to the
            // session's error sink instead of discarding it.
            SlotState::Ready(Err(e)) => {
                drop(state);
                self.driver.sink_error(e);
            }
            SlotState::Ready(Ok(_)) | SlotState::Taken | SlotState::Abandoned => {}
            // Still queued or in flight: mark the slot so the eventual
            // resolution routes an error to the sink.
            SlotState::Pending => *state = SlotState::Abandoned,
        }
    }
}

/// Wait for every future; returns the values in submission order, or the
/// first error encountered. One queue drain resolves them all.
pub fn join_all<T>(futures: impl IntoIterator<Item = OpFuture<T>>) -> Result<Vec<T>> {
    let mut out = Vec::new();
    for f in futures {
        out.push(f.wait()?);
    }
    Ok(out)
}

/// Drive a future to completion on the current thread — the minimal
/// `.await` executor (no runtime dependency): polls, parks, and re-polls
/// when the stored waker unparks the thread.
///
/// Works with any future; with [`OpFuture`] it completes in one poll on a
/// cooperative session (the poll drains the queue) and parks until the
/// background executor resolves the ticket otherwise.
pub fn block_on<F: Future>(fut: F) -> F::Output {
    /// Unparks the thread that started `block_on`.
    struct ThreadWaker(std::thread::Thread);
    impl std::task::Wake for ThreadWaker {
        fn wake(self: Arc<Self>) {
            self.0.unpark();
        }
        fn wake_by_ref(self: &Arc<Self>) {
            self.0.unpark();
        }
    }
    let waker = Waker::from(Arc::new(ThreadWaker(std::thread::current())));
    let mut cx = Context::from_waker(&waker);
    let mut fut = std::pin::pin!(fut);
    loop {
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(v) => return v,
            // The bounded park is a belt against a waker lost to a panic
            // mid-resolve; the park token makes an early unpark safe.
            Poll::Pending => std::thread::park_timeout(WAIT_RECHECK),
        }
    }
}

struct SessionCore<N> {
    node: N,
    queue: Mutex<Vec<Op>>,
    /// Signaled on every submission; the background executor parks here.
    queue_cond: Condvar,
    /// Serializes flushes: held for the whole drain, so concurrent
    /// flushers (a waiting future on another thread, an auto-flush, the
    /// background executor) cannot interleave their batch execution with
    /// an in-flight one and invert per-datum program order.
    flush_gate: Mutex<()>,
    /// The thread currently draining, if any — a nested flush from that
    /// same thread (a bus handler queuing ops and flushing during
    /// `schedule_many`'s event dispatch) returns immediately instead of
    /// self-deadlocking; the outer drain loop picks its ops up.
    flusher: Mutex<Option<std::thread::ThreadId>>,
    batch_limit: usize,
    ops: AtomicU64,
    batches: AtomicU64,
    /// Whether a background executor thread is currently draining.
    /// `SeqCst` against queue pushes: a submitter always pushes *before*
    /// loading this flag, and the exiting executor always clears it
    /// *before* its final queue sweep — so an op either reaches the sweep
    /// or its submitter sees the flag down and drains cooperatively.
    background: AtomicBool,
    /// Tells the executor thread to exit (after a final drain).
    exec_stop: AtomicBool,
    /// Signaled by the executor after every drain round; producers parked
    /// at the queue's high-water mark resume here.
    space_cond: Condvar,
    /// The dedicated executor thread ([`ExecutorConfig::Dedicated`]), for
    /// joining at stop/drop.
    executor: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// The pool registration while background mode runs on a shared
    /// [`ExecutorPool`] — submissions notify it instead of `queue_cond`.
    pool_reg: Mutex<Option<PoolHandle>>,
    /// Errors of ops whose future was dropped before the result was taken
    /// — bounded at [`ERROR_SINK_CAP`], shedding oldest.
    failed: Mutex<VecDeque<BitdewError>>,
    /// Total errors ever routed to the sink (monotonic).
    failed_total: AtomicU64,
    /// Sink errors shed past the cap (monotonic).
    failed_dropped: AtomicU64,
    /// Live public `Session` clones; the last one stops the executor
    /// (whose exit path drains) and logs still-pending losses on drop.
    user_refs: AtomicUsize,
}

impl<N: BitDewApi + ActiveData + TransferManager> SessionCore<N> {
    fn submit(self: &Arc<Self>, op: Op) {
        self.ops.fetch_add(1, Ordering::Relaxed);
        let mut queue = self.queue.lock();
        queue.push(op);
        let full = queue.len() >= self.batch_limit;
        if self.background.load(Ordering::SeqCst) {
            // An executor drains asynchronously; don't flush from the
            // submitting thread (that would serialize round-trips back
            // into application work). Pool-registered sessions mark
            // themselves ready (a worker claims the whole session);
            // dedicated ones wake their thread's condvar. The queue stays
            // *bounded*: past the high-water mark the producer parks until
            // the executor catches up — backpressure, not unbounded
            // memory. The executor's own thread (a nested bus-handler
            // submit during a drain) never parks on space only it can
            // free, and a pool worker never parks on space only another
            // pool worker can free (all workers parked on each other's
            // sessions would be a circular wait).
            if let Some(reg) = self.pool_reg.lock().as_ref() {
                reg.notify();
            } else {
                self.queue_cond.notify_one();
            }
            let high_water = self.batch_limit.saturating_mul(HIGH_WATER_FACTOR);
            if queue.len() >= high_water
                && !pool::is_pool_worker()
                && *self.flusher.lock() != Some(std::thread::current().id())
            {
                while queue.len() >= high_water && self.background.load(Ordering::SeqCst) {
                    self.space_cond
                        .wait_for(&mut queue, Duration::from_millis(5));
                }
            }
        } else if full {
            drop(queue);
            self.flush();
        }
    }

    fn flush(&self) {
        let me = std::thread::current().id();
        if *self.flusher.lock() == Some(me) {
            // Nested flush from inside this thread's own drain (a bus
            // handler fired during batch execution queued ops, or waited a
            // future): this frame already holds the gate higher in the
            // stack, so drain directly — returning would strand a waited
            // future's op in the queue.
            self.drain();
            return;
        }
        let _gate = self.flush_gate.lock();
        *self.flusher.lock() = Some(me);
        self.drain();
        *self.flusher.lock() = None;
    }

    /// Drain the queue until empty (caller holds the flush gate). Ops
    /// queued while a batch executes — by other threads, or by handlers on
    /// this one — run in a later iteration of the same serialized flush,
    /// so per-datum program order holds across concurrent submitters.
    fn drain(&self) {
        loop {
            let ops = std::mem::take(&mut *self.queue.lock());
            // The queue just emptied: wake producers parked at the
            // high-water mark.
            self.space_cond.notify_all();
            if ops.is_empty() {
                break;
            }
            // Split into segments: within a segment every datum's ops are
            // in non-decreasing phase order, so executing the segment's
            // phases in order preserves program order exactly.
            let mut segment: Vec<Op> = Vec::new();
            let mut seen_phase: HashMap<DataId, u8> = HashMap::new();
            for op in ops {
                let phase = op.phase();
                if seen_phase.get(&op.data_id()).is_some_and(|&p| phase < p) {
                    self.run_segment(std::mem::take(&mut segment));
                    seen_phase.clear();
                }
                seen_phase.insert(op.data_id(), phase);
                segment.push(op);
            }
            self.run_segment(segment);
        }
    }

    /// Resolve one ticket, waking parked waiters and stored task wakers. A
    /// ticket whose future was dropped routes its error to the session's
    /// sink instead.
    fn resolve<T>(&self, t: &Ticket<T>, result: Result<T>) {
        let mut state = t.state.lock();
        if matches!(*state, SlotState::Abandoned) {
            *state = SlotState::Taken;
            drop(state);
            if let Err(e) = result {
                self.sink_error(e);
            }
            return;
        }
        *state = SlotState::Ready(result);
        drop(state);
        t.cond.notify_all();
        if let Some(w) = t.waker.lock().take() {
            w.wake();
        }
    }

    /// Run one segment as phase batches. Each queued op's datum,
    /// attributes and payload move into its batch (nothing is cloned); the
    /// tickets wait beside the batch, in the same order.
    fn run_segment(&self, ops: Vec<Op>) {
        if ops.is_empty() {
            return;
        }
        self.batches.fetch_add(1, Ordering::Relaxed);
        let (mut put_data, mut payloads, mut put_tickets) = (Vec::new(), Vec::new(), Vec::new());
        let (mut schedules, mut schedule_tickets) = (Vec::new(), Vec::new());
        let mut pins = Vec::new();
        let mut deletes = Vec::new();
        for op in ops {
            match op {
                Op::Put(d, bytes, tk) => {
                    put_data.push(d);
                    payloads.push(bytes);
                    put_tickets.push(tk);
                }
                Op::Schedule(d, attrs, tk) => {
                    schedules.push((d, attrs));
                    schedule_tickets.push(tk);
                }
                Op::Pin(d, attrs, tk) => pins.push((d, attrs, tk)),
                Op::Delete(d, tk) => deletes.push((d, tk)),
            }
        }

        if !put_tickets.is_empty() {
            let batch: Vec<(Data, &[u8])> = put_data
                .into_iter()
                .zip(payloads.iter().map(Vec::as_slice))
                .collect();
            let verdict = self.node.put_many(&batch);
            self.settle(&put_tickets, &batch, verdict, |(d, bytes)| {
                self.node.put(d, bytes)
            });
        }
        if !schedule_tickets.is_empty() {
            let verdict = self.node.schedule_many(&schedules);
            self.settle(&schedule_tickets, &schedules, verdict, |(d, attrs)| {
                self.node.schedule(d, attrs.clone())
            });
        }
        for (d, attrs, tk) in pins {
            self.resolve(&tk, self.node.pin(&d, attrs));
        }
        for (d, tk) in deletes {
            self.resolve(&tk, self.node.delete(&d));
        }
    }

    /// Resolve a batch's tickets with the batch's verdict. The batch is
    /// all-or-nothing, so on failure each item re-runs alone and its ticket
    /// carries its own result (`put_many` and `schedule_many` are
    /// idempotent: re-storing a payload and re-recording its locators).
    fn settle<T>(
        &self,
        tickets: &[Ticket<()>],
        batch: &[T],
        verdict: Result<()>,
        one: impl Fn(&T) -> Result<()>,
    ) {
        match verdict {
            Ok(()) => {
                for tk in tickets {
                    self.resolve(tk, Ok(()));
                }
            }
            Err(_) => {
                for (item, tk) in batch.iter().zip(tickets) {
                    self.resolve(tk, one(item));
                }
            }
        }
    }

    /// The background executor loop: park on the submission condvar, drain
    /// whatever queued, repeat — with a final drain on stop so no accepted
    /// op is left behind.
    fn executor_loop(self: Arc<Self>) {
        /// Clears the background flag even if a drain panics, so waiters
        /// fall back to driving the queue themselves.
        struct Deactivate<'a>(&'a AtomicBool);
        impl Drop for Deactivate<'_> {
            fn drop(&mut self) {
                self.0.store(false, Ordering::SeqCst);
            }
        }
        let _guard = Deactivate(&self.background);
        loop {
            let stopping = {
                let mut queue = self.queue.lock();
                while queue.is_empty() && !self.exec_stop.load(Ordering::Acquire) {
                    // The timeout is a belt against a notify lost between
                    // the emptiness check and the park; submissions under
                    // the same lock make a true miss impossible.
                    self.queue_cond
                        .wait_for(&mut queue, Duration::from_millis(250));
                }
                queue.is_empty()
            };
            if stopping {
                // Stop requested with an empty queue. Clear `background`
                // FIRST, then sweep once more: a submitter pushes before it
                // loads the flag and we clear the flag before this sweep
                // (both `SeqCst`), so every op either reaches the sweep or
                // its submitter saw the flag down and owns the cooperative
                // drain — no op can be stranded with a stored waker.
                self.background.store(false, Ordering::SeqCst);
                if !self.queue.lock().is_empty() {
                    self.flush();
                }
                break;
            }
            self.flush();
        }
        // Unblock any producer still parked at the high-water mark.
        self.space_cond.notify_all();
    }
}

impl<N: BitDewApi + ActiveData + TransferManager> Drive for SessionCore<N> {
    fn drive(&self) {
        self.flush();
    }

    fn background_active(&self) -> bool {
        self.background.load(Ordering::SeqCst)
            && *self.flusher.lock() != Some(std::thread::current().id())
    }

    fn sink_error(&self, err: BitdewError) {
        self.failed_total.fetch_add(1, Ordering::Relaxed);
        let mut failed = self.failed.lock();
        if failed.len() >= ERROR_SINK_CAP {
            // Drop-oldest: the newest failure is the one a late collector
            // most likely still cares about.
            failed.pop_front();
            self.failed_dropped.fetch_add(1, Ordering::Relaxed);
        }
        failed.push_back(err);
    }
}

/// The pool-facing face: a worker that claimed this session drains it
/// through the same serialized flush path as every other drain driver.
impl<N: BitDewApi + ActiveData + TransferManager + Send + Sync> PoolDrive for SessionCore<N> {
    fn pool_drain(&self) {
        self.flush();
    }
}

/// A pipelined client session over a node. Cloning is cheap and shares
/// the submission queue, so handles ([`DataHandle`](crate::DataHandle))
/// and worker threads can feed one batch stream. The last clone to drop
/// stops the background executor (whose exit path drains the queue, so no
/// accepted op is abandoned) and logs still-queued ops and errors never
/// collected through [`Session::take_failed`].
pub struct Session<N> {
    core: Arc<SessionCore<N>>,
}

impl<N> Clone for Session<N> {
    fn clone(&self) -> Session<N> {
        self.core.user_refs.fetch_add(1, Ordering::Relaxed);
        Session {
            core: Arc::clone(&self.core),
        }
    }
}

/// Executor shutdown shared by [`Session::stop_executor`] and the last
/// [`Session`] drop — bound-free so `Drop` (which has no `N` bounds) can
/// call it. Dedicated mode: the stop flag is set under the queue lock the
/// executor's wait loop holds, so the wake cannot land in its
/// check-to-park window and be lost; the join is skipped on the
/// executor's own thread (a drop from a handler running mid-drain must
/// not join itself). Pool mode: the same clear-then-sweep handshake — the
/// background flag drops under the queue lock, the registration retires
/// (workers skip the entry), and one final drain runs on this thread
/// (bound-free through the registration's vtable), serialized against any
/// in-flight worker drain by the flush gate. A submitter pushes before it
/// loads the flag, so every op either reaches the final sweep or its
/// submitter saw the flag down and owns the cooperative drain.
impl<N> SessionCore<N> {
    fn shutdown_executor(&self) {
        {
            let _queue = self.queue.lock();
            self.exec_stop.store(true, Ordering::Release);
        }
        self.queue_cond.notify_all();
        if let Some(handle) = self.executor.lock().take() {
            if handle.thread().id() != std::thread::current().id() {
                let _ = handle.join();
            }
        }
        let reg = self.pool_reg.lock().take();
        if let Some(reg) = reg {
            {
                let _queue = self.queue.lock();
                self.background.store(false, Ordering::SeqCst);
            }
            reg.retire();
            reg.final_drain();
            // Unblock any producer still parked at the high-water mark.
            self.space_cond.notify_all();
        }
    }
}

impl<N> Drop for Session<N> {
    fn drop(&mut self) {
        if self.core.user_refs.fetch_sub(1, Ordering::AcqRel) != 1 {
            return;
        }
        // Last public handle: stop the executor — its exit path drains the
        // queue, so every accepted op of a background session still runs —
        // then log what would otherwise vanish silently: ops still queued
        // (cooperative session dropped without a flush; their futures can
        // still drive the drain if the caller kept them) and sink errors
        // nobody collected.
        self.core.shutdown_executor();
        if std::thread::panicking() {
            return;
        }
        let leftover = self.core.queue.lock().len();
        if leftover > 0 {
            eprintln!(
                "bitdew: session dropped with {leftover} op(s) still queued \
                 (flush() or wait the futures before dropping the last handle)"
            );
        }
        let unreported = self.core.failed.lock().len();
        if unreported > 0 {
            eprintln!(
                "bitdew: session dropped with {unreported} unreported op failure(s) \
                 (collect them with Session::take_failed before dropping)"
            );
        }
    }
}

impl<N: BitDewApi + ActiveData + TransferManager + 'static> Session<N> {
    /// A session with the default batch limit (cooperative drain; see
    /// [`Session::start_executor`] for the background mode).
    pub fn new(node: N) -> Session<N> {
        Session::with_batch_limit(node, DEFAULT_BATCH_LIMIT)
    }

    /// A session draining its queue whenever `limit` ops are pending
    /// (1 degenerates to the blocking per-call path).
    pub fn with_batch_limit(node: N, limit: usize) -> Session<N> {
        Session {
            core: Arc::new(SessionCore {
                node,
                queue: Mutex::new(Vec::new()),
                queue_cond: Condvar::new(),
                space_cond: Condvar::new(),
                flush_gate: Mutex::new(()),
                flusher: Mutex::new(None),
                batch_limit: limit.max(1),
                ops: AtomicU64::new(0),
                batches: AtomicU64::new(0),
                background: AtomicBool::new(false),
                exec_stop: AtomicBool::new(false),
                executor: Mutex::new(None),
                pool_reg: Mutex::new(None),
                failed: Mutex::new(VecDeque::new()),
                failed_total: AtomicU64::new(0),
                failed_dropped: AtomicU64::new(0),
                user_refs: AtomicUsize::new(1),
            }),
        }
    }

    /// The node this session feeds.
    pub fn node(&self) -> &N {
        &self.core.node
    }

    /// Create a datum in the data space and return its handle (metadata
    /// registration is synchronous — the id must exist before any queued
    /// op can reference it).
    pub fn create(&self, name: &str, content: &[u8]) -> Result<crate::api::DataHandle<N>> {
        let data = self.core.node.create_data(name, content)?;
        Ok(crate::api::DataHandle::new(data, self.clone()))
    }

    /// Create an empty slot of declared size and return its handle.
    pub fn create_slot(&self, name: &str, size: u64) -> Result<crate::api::DataHandle<N>> {
        let data = self.core.node.create_slot(name, size)?;
        Ok(crate::api::DataHandle::new(data, self.clone()))
    }

    /// Batched creation: one catalog round-trip per shard for the whole
    /// batch (the `register_many` fan-out), returning handles in order.
    pub fn create_many(&self, items: &[(&str, &[u8])]) -> Result<Vec<crate::api::DataHandle<N>>> {
        let data = self.core.node.create_many(items)?;
        Ok(data
            .into_iter()
            .map(|d| crate::api::DataHandle::new(d, self.clone()))
            .collect())
    }

    /// Wrap an already-created datum in a handle bound to this session.
    pub fn handle(&self, data: Data) -> crate::api::DataHandle<N> {
        crate::api::DataHandle::new(data, self.clone())
    }

    /// Queue a `put` of `content` for `data`; resolves when the batch
    /// lands in the data space.
    pub fn put(&self, data: &Data, content: &[u8]) -> OpFuture<()> {
        let tk = ticket();
        let fut = self.future(&tk);
        self.core
            .submit(Op::Put(data.clone(), content.to_vec(), tk));
        fut
    }

    /// Queue a `schedule` of `data` under `attrs`.
    pub fn schedule(&self, data: &Data, attrs: DataAttributes) -> OpFuture<()> {
        let tk = ticket();
        let fut = self.future(&tk);
        self.core.submit(Op::Schedule(data.clone(), attrs, tk));
        fut
    }

    /// Queue a `pin` of `data` on this node.
    pub fn pin(&self, data: &Data, attrs: DataAttributes) -> OpFuture<()> {
        let tk = ticket();
        let fut = self.future(&tk);
        self.core.submit(Op::Pin(data.clone(), attrs, tk));
        fut
    }

    /// Queue a `delete` of `data` from the data space.
    pub fn delete(&self, data: &Data) -> OpFuture<()> {
        let tk = ticket();
        let fut = self.future(&tk);
        self.core.submit(Op::Delete(data.clone(), tk));
        fut
    }

    /// Drain the submission queue now (one batched round per segment).
    /// Errors are delivered through the individual futures.
    pub fn flush(&self) {
        self.core.flush();
    }

    /// Ops currently queued and not yet flushed.
    pub fn pending_ops(&self) -> usize {
        self.core.queue.lock().len()
    }

    /// Total ops submitted through this session.
    pub fn ops_submitted(&self) -> u64 {
        self.core.ops.load(Ordering::Relaxed)
    }

    /// Batch segments executed (the denominator of the amortization:
    /// `ops_submitted / batches_flushed` is the mean batch size).
    pub fn batches_flushed(&self) -> u64 {
        self.core.batches.load(Ordering::Relaxed)
    }

    /// Whether a background executor thread is currently draining this
    /// session.
    pub fn executor_running(&self) -> bool {
        self.core.background.load(Ordering::SeqCst)
    }

    /// Drain and return the errors of ops whose futures were dropped
    /// before the result was taken (the session error sink).
    pub fn take_failed(&self) -> Vec<BitdewError> {
        self.core.failed.lock().drain(..).collect()
    }

    /// Total errors ever routed to the session error sink (monotonic —
    /// unaffected by [`Session::take_failed`]).
    pub fn failed_count(&self) -> u64 {
        self.core.failed_total.load(Ordering::Relaxed)
    }

    /// Sink errors shed because more than [`ERROR_SINK_CAP`] accumulated
    /// uncollected (monotonic; drop-oldest).
    pub fn failed_dropped(&self) -> u64 {
        self.core.failed_dropped.load(Ordering::Relaxed)
    }

    fn future<T>(&self, tk: &Ticket<T>) -> OpFuture<T> {
        OpFuture {
            slot: Arc::clone(tk),
            driver: Arc::clone(&self.core) as Arc<dyn Drive>,
        }
    }
}

impl<N: BitDewApi + ActiveData + TransferManager + Send + Sync + 'static> Session<N> {
    /// A session in background mode from the start ([`Session::new`] + a
    /// successful [`Session::start_executor`] — i.e. registered with the
    /// process-shared [`ExecutorPool`]).
    pub fn background(node: N) -> Result<Session<N>> {
        let session = Session::new(node);
        session.start_executor()?;
        Ok(session)
    }

    /// Turn background mode on: register this session with the
    /// process-shared [`ExecutorPool`] (spawning its workers on first
    /// use). Submissions mark the session ready, a pool worker claims and
    /// drains it, and futures resolve without any caller-driven pump.
    /// Returns `Ok(false)` if background mode is already on. Worker-spawn
    /// failure is reported as [`BitdewError::Spawn`] — no panic on
    /// resource exhaustion.
    pub fn start_executor(&self) -> Result<bool> {
        self.start_executor_with(ExecutorConfig::default())
    }

    /// [`Session::start_executor`] with an explicit executor placement:
    /// the process-shared pool, a private pool (tests pin worker counts),
    /// or a dedicated per-session thread (`bitdew-exec`, the PR 5 shape).
    pub fn start_executor_with(&self, config: ExecutorConfig) -> Result<bool> {
        match config {
            ExecutorConfig::Shared => self.register_pool(ExecutorPool::shared()?),
            ExecutorConfig::Pool(pool) => self.register_pool(pool),
            ExecutorConfig::Dedicated => self.start_dedicated(),
        }
    }

    /// Register with `pool`. The executor slot mutex doubles as the start
    /// guard, serializing concurrent starts of either flavor.
    fn register_pool(&self, pool: Arc<ExecutorPool>) -> Result<bool> {
        let mut slot = self.core.executor.lock();
        if self.core.background.load(Ordering::SeqCst) {
            return Ok(false);
        }
        // Reap a dedicated executor that already exited (flag is down).
        if let Some(handle) = slot.take() {
            let _ = handle.join();
        }
        let session: Arc<dyn PoolDrive> = Arc::clone(&self.core) as Arc<dyn PoolDrive>;
        let reg = pool.register(Arc::downgrade(&session))?;
        *self.core.pool_reg.lock() = Some(reg);
        self.core.background.store(true, Ordering::SeqCst);
        // Ops queued before registration must not wait for the next
        // submission: mark the session ready now.
        let pending = !self.core.queue.lock().is_empty();
        if pending {
            if let Some(reg) = self.core.pool_reg.lock().as_ref() {
                reg.notify();
            }
        }
        Ok(true)
    }

    /// Spawn the dedicated per-session executor thread
    /// ([`ExecutorConfig::Dedicated`]).
    fn start_dedicated(&self) -> Result<bool> {
        let mut slot = self.core.executor.lock();
        if self.core.background.load(Ordering::SeqCst) {
            return Ok(false);
        }
        // A previous executor stopped (or died): reap it and respawn.
        if let Some(handle) = slot.take() {
            let _ = handle.join();
        }
        self.core.exec_stop.store(false, Ordering::Release);
        self.core.background.store(true, Ordering::SeqCst);
        let core = Arc::clone(&self.core);
        match std::thread::Builder::new()
            .name("bitdew-exec".into())
            .spawn(move || core.executor_loop())
        {
            Ok(handle) => {
                *slot = Some(handle);
                Ok(true)
            }
            Err(e) => {
                self.core.background.store(false, Ordering::SeqCst);
                Err(BitdewError::Spawn {
                    what: format!("session executor thread: {e}"),
                })
            }
        }
    }

    /// Turn background mode off: a pool registration retires (with a final
    /// drain on this thread); a dedicated executor drains whatever is
    /// queued, exits, and is joined. The session falls back to cooperative
    /// drains either way.
    pub fn stop_executor(&self) {
        self.core.shutdown_executor();
    }
}
