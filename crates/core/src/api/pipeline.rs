//! The pipelined command plane: per-node submission queues, op futures,
//! and the background session executor.
//!
//! Every mutating operation submitted through a [`Session`] returns an
//! [`OpFuture`] immediately; the op lands in the session's submission
//! queue and an executor drains the queue in *batches* — one catalog
//! round-trip (`put_many`) and one scheduler lock acquisition
//! (`schedule_many`) per batch — instead of paying one lock-and-round-trip
//! per call. A client can keep thousands of operations in flight against
//! the sharded DC+DS plane and collect completions with
//! [`OpFuture::wait`] / [`OpFuture::try_get`] / [`join_all`] — or simply
//! `.await` them: [`OpFuture`] implements [`std::future::Future`] with no
//! runtime dependency (see [`block_on`] for a zero-dependency executor).
//!
//! ## Completion blocks
//!
//! The ops submitted between two drains share one *completion block*: a
//! vector with a slot per op behind one lock, and one condvar. An op's
//! future is the block and the op's index in it, so a submission costs a
//! slot push, not an allocation of its own. A drain takes the
//! queued ops together with their block; after each segment (see below)
//! it writes the segment's results into their slots under one lock, then
//! wakes the block's parked waiters with one `notify_all` and each stored
//! task waker. A waiter woken by a segment that is not its own re-checks
//! its slot and parks again. Debug builds assert that a drain leaves no
//! slot of its block pending. Lock order: the queue, then a block.
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

use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Waker};
use std::time::Duration;

use bitdew_util::IdMap;
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

/// One queued mutating operation. Its completion slot is the one at the
/// same position in the queue's [`Block`].
enum Op {
    Put(Data, Vec<u8>),
    Schedule(Data, DataAttributes),
    Pin(Data, DataAttributes),
    Delete(Data),
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
            Op::Put(d, ..) | Op::Schedule(d, ..) | Op::Pin(d, ..) | Op::Delete(d) => d.id,
        }
    }
}

/// The completion slot of one op.
enum Slot<T> {
    /// Queued or in flight, with the task waker of an `.await`er, if one
    /// polled.
    Pending(Option<Waker>),
    Ready(Result<T>),
    Taken,
    /// The future was dropped while the op was still queued or in flight;
    /// an error resolution routes to the session's error sink instead of
    /// vanishing.
    Abandoned,
}

/// The completion slots of every op submitted between two drains, behind
/// one lock and one condvar: the batch's futures share one `Arc` and one
/// slot vector (sized at the batch limit) instead of an allocation each.
/// An op's future holds the block and its index; the drain writes a
/// segment's results under one lock and wakes the block's waiters once.
struct Block<T> {
    slots: Mutex<Vec<Slot<T>>>,
    /// Signaled after every segment settles; waiters re-check their own
    /// slot.
    settled: Condvar,
}

impl<T> Block<T> {
    fn with_capacity(ops: usize) -> Block<T> {
        Block {
            slots: Mutex::new(Vec::with_capacity(ops)),
            settled: Condvar::new(),
        }
    }

    /// Whether no slot is still pending — true of every block a drain has
    /// finished with.
    fn settled(&self) -> bool {
        !self
            .slots
            .lock()
            .iter()
            .any(|slot| matches!(slot, Slot::Pending(_)))
    }
}

/// The submission queue: the ops not yet drained and the block their
/// futures resolve through. The block exists exactly while ops do; a
/// drain takes both. Lock order: queue, then block.
#[derive(Default)]
struct Queue {
    ops: Vec<Op>,
    block: Option<Arc<Block<()>>>,
}

/// Something that can drain a submission queue and absorb orphaned errors
/// — implemented by the session core so a future can drive (or park on)
/// its own resolution without naming the node type.
trait Drive {
    /// Drain the owning session's queue now.
    fn drive(&self);
    /// Whether the *calling thread* should park and let a background
    /// executor settle its ops. False when no executor is draining —
    /// and false on the draining thread itself (a bus handler fired from
    /// inside a batch that waits/awaits a future must drive the nested
    /// drain, not park on a resolution only its own frame can produce).
    fn background_active(&self) -> bool;
    /// Record the error of an op whose future was dropped unconsumed.
    fn sink_error(&self, err: BitdewError);
}

/// The handle of one submitted operation: its slot in the batch's
/// completion block. Resolution happens when the owning session's queue
/// drains; waiting on the future triggers that drain on a cooperative
/// session and parks on a background-executor one, so a pipelined caller
/// never deadlocks on its own queue.
///
/// `OpFuture` also implements [`std::future::Future`], so
/// `handle.put(..).await` works under any async executor (the waker is
/// stored in the op's slot and woken when the background executor settles
/// the op's segment; on a cooperative session the first poll drains the
/// queue synchronously, preserving discrete-event order under the
/// simulator).
#[must_use = "a dropped OpFuture reports its op's error only through Session::take_failed; wait(), .await or join_all() it"]
pub struct OpFuture<T> {
    block: Arc<Block<T>>,
    index: usize,
    driver: Arc<dyn Drive>,
}

impl<T> OpFuture<T> {
    /// Whether the op has resolved (successfully or not) — never drives
    /// the queue, never blocks.
    pub fn is_ready(&self) -> bool {
        !matches!(self.block.slots.lock()[self.index], Slot::Pending(_))
    }

    /// Take the result if the op has resolved; `None` while it is still
    /// queued or in flight (and forever after the result was taken).
    /// Never drives the queue.
    pub fn try_get(&self) -> Option<Result<T>> {
        take_ready(&mut self.block.slots.lock()[self.index])
    }

    /// Resolve the op and return the result. On a cooperative session this
    /// flushes the owning queue synchronously; with a background executor
    /// running it parks until the executor settles the op (re-driving
    /// itself if the executor stops mid-wait).
    pub fn wait(self) -> Result<T> {
        if !self.is_ready() && !self.driver.background_active() {
            self.driver.drive();
        }
        let mut slots = self.block.slots.lock();
        loop {
            match std::mem::replace(&mut slots[self.index], Slot::Taken) {
                Slot::Ready(result) => return result,
                Slot::Taken | Slot::Abandoned => {
                    panic!("OpFuture::wait called after the result was already taken")
                }
                pending @ Slot::Pending(_) => {
                    // Another thread (a concurrent flusher or the background
                    // executor) owns this op; park until a segment of the
                    // block settles. If no executor is draining anymore (it
                    // was stopped, or a concurrent flush finished without
                    // our op), drive the queue ourselves.
                    slots[self.index] = pending;
                    self.block.settled.wait_for(&mut slots, WAIT_RECHECK);
                    if matches!(slots[self.index], Slot::Pending(_))
                        && !self.driver.background_active()
                    {
                        drop(slots);
                        self.driver.drive();
                        slots = self.block.slots.lock();
                    }
                }
            }
        }
    }
}

/// Move a ready result out of its slot, leaving it `Taken`.
fn take_ready<T>(slot: &mut Slot<T>) -> Option<Result<T>> {
    match std::mem::replace(slot, Slot::Taken) {
        Slot::Ready(result) => Some(result),
        other => {
            *slot = other;
            None
        }
    }
}

impl<T> Future for OpFuture<T> {
    type Output = Result<T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Result<T>> {
        {
            // Check and store the waker under one lock, so a settle racing
            // the poll either is seen here or finds the waker.
            let mut slots = self.block.slots.lock();
            let slot = &mut slots[self.index];
            if let Some(result) = take_ready(slot) {
                return Poll::Ready(result);
            }
            if let Slot::Pending(waker) = slot {
                *waker = Some(cx.waker().clone());
            }
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
        let mut slots = self.block.slots.lock();
        let slot = &mut slots[self.index];
        match std::mem::replace(slot, Slot::Taken) {
            // Resolved to an error nobody consumed: route it to the
            // session's error sink instead of discarding it.
            Slot::Ready(Err(e)) => {
                drop(slots);
                self.driver.sink_error(e);
            }
            Slot::Ready(Ok(_)) | Slot::Taken | Slot::Abandoned => {}
            // Still queued or in flight: mark the slot so the eventual
            // resolution routes an error to the sink.
            Slot::Pending(_) => *slot = Slot::Abandoned,
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
/// background executor settles the op otherwise.
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
    queue: Mutex<Queue>,
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

impl<N: BitDewApi + ActiveData + TransferManager + 'static> SessionCore<N> {
    /// Queue `op` and return its future: the next slot of the queue's
    /// completion block (opened by the first op after a drain).
    fn submit(self: &Arc<Self>, op: Op) -> OpFuture<()> {
        self.ops.fetch_add(1, Ordering::Relaxed);
        let mut queue = self.queue.lock();
        let block = queue
            .block
            .get_or_insert_with(|| Arc::new(Block::with_capacity(self.batch_limit)));
        let index = {
            let mut slots = block.slots.lock();
            slots.push(Slot::Pending(None));
            slots.len() - 1
        };
        let future = OpFuture {
            block: Arc::clone(block),
            index,
            driver: Arc::clone(self) as Arc<dyn Drive>,
        };
        queue.ops.push(op);
        let full = queue.ops.len() >= self.batch_limit;
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
            if queue.ops.len() >= high_water
                && !pool::is_pool_worker()
                && *self.flusher.lock() != Some(std::thread::current().id())
            {
                while queue.ops.len() >= high_water && self.background.load(Ordering::SeqCst) {
                    self.space_cond
                        .wait_for(&mut queue, Duration::from_millis(5));
                }
            }
        } else if full {
            drop(queue);
            self.flush();
        }
        future
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

    /// Drain the queue until empty (caller holds the flush gate). Each
    /// pass takes the queued ops with their completion block. Ops queued
    /// while a batch executes — by other threads, or by handlers on this
    /// one — open a new block and run in a later pass of the same
    /// serialized flush, so per-datum program order holds across
    /// concurrent submitters.
    fn drain(&self) {
        loop {
            let (ops, block) = {
                let mut queue = self.queue.lock();
                (std::mem::take(&mut queue.ops), queue.block.take())
            };
            // The queue just emptied: wake producers parked at the
            // high-water mark.
            self.space_cond.notify_all();
            let Some(block) = block else {
                break;
            };
            // Split into segments: within a segment every datum's ops are
            // in non-decreasing phase order, so executing the segment's
            // phases in order preserves program order exactly. A segment
            // is a run of the queue, so its slots are a run of the block
            // starting at `base`.
            let mut segment: Vec<Op> = Vec::new();
            let mut base = 0;
            let mut seen_phase: IdMap<DataId, u8> = IdMap::default();
            for (index, op) in ops.into_iter().enumerate() {
                let phase = op.phase();
                if seen_phase.get(&op.data_id()).is_some_and(|&p| phase < p) {
                    let results = self.run_segment(std::mem::take(&mut segment));
                    self.settle(&block, base, results);
                    base = index;
                    seen_phase.clear();
                }
                seen_phase.insert(op.data_id(), phase);
                segment.push(op);
            }
            let results = self.run_segment(segment);
            self.settle(&block, base, results);
            debug_assert!(block.settled(), "a drained block holds a pending slot");
        }
    }

    /// Write one segment's results into the slots of `block` from `base`
    /// on, under one lock, then wake the block's parked waiters once and
    /// every stored task waker. A slot whose future was dropped routes its
    /// error to the session's sink instead.
    fn settle(&self, block: &Block<()>, base: usize, results: Vec<Result<()>>) {
        let mut wakers = Vec::new();
        let mut orphaned = Vec::new();
        {
            let mut slots = block.slots.lock();
            for (slot, result) in slots[base..].iter_mut().zip(results) {
                match std::mem::replace(slot, Slot::Taken) {
                    Slot::Pending(waker) => {
                        *slot = Slot::Ready(result);
                        wakers.extend(waker);
                    }
                    Slot::Abandoned => orphaned.extend(result.err()),
                    Slot::Ready(_) | Slot::Taken => unreachable!("an op settles once"),
                }
            }
        }
        block.settled.notify_all();
        for waker in wakers {
            waker.wake();
        }
        for err in orphaned {
            self.sink_error(err);
        }
    }

    /// Run one segment as phase batches and return each op's result, in
    /// segment order. Each queued op's datum, attributes and payload move
    /// into its batch (nothing is cloned). A batch is all-or-nothing, so on
    /// failure each of its items re-runs alone and carries its own result
    /// (`put_many` and `schedule_many` are idempotent: re-storing a
    /// payload and re-recording its locators).
    fn run_segment(&self, ops: Vec<Op>) -> Vec<Result<()>> {
        let mut results: Vec<Result<()>> = Vec::with_capacity(ops.len());
        if ops.is_empty() {
            return results;
        }
        self.batches.fetch_add(1, Ordering::Relaxed);
        let (mut put_data, mut payloads, mut put_at) = (Vec::new(), Vec::new(), Vec::new());
        let (mut schedules, mut schedule_at) = (Vec::new(), Vec::new());
        let mut pins = Vec::new();
        let mut deletes = Vec::new();
        for (at, op) in ops.into_iter().enumerate() {
            results.push(Ok(()));
            match op {
                Op::Put(d, bytes) => {
                    put_data.push(d);
                    payloads.push(bytes);
                    put_at.push(at);
                }
                Op::Schedule(d, attrs) => {
                    schedules.push((d, attrs));
                    schedule_at.push(at);
                }
                Op::Pin(d, attrs) => pins.push((d, attrs, at)),
                Op::Delete(d) => deletes.push((d, at)),
            }
        }

        if !put_at.is_empty() {
            let batch: Vec<(Data, &[u8])> = put_data
                .into_iter()
                .zip(payloads.iter().map(Vec::as_slice))
                .collect();
            if self.node.put_many(&batch).is_err() {
                for ((d, bytes), &at) in batch.iter().zip(&put_at) {
                    results[at] = self.node.put(d, bytes);
                }
            }
        }
        if !schedule_at.is_empty() && self.node.schedule_many(&schedules).is_err() {
            for ((d, attrs), &at) in schedules.iter().zip(&schedule_at) {
                results[at] = self.node.schedule(d, attrs.clone());
            }
        }
        for (d, attrs, at) in pins {
            results[at] = self.node.pin(&d, attrs);
        }
        for (d, at) in deletes {
            results[at] = self.node.delete(&d);
        }
        results
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
                while queue.ops.is_empty() && !self.exec_stop.load(Ordering::Acquire) {
                    // The timeout is a belt against a notify lost between
                    // the emptiness check and the park; submissions under
                    // the same lock make a true miss impossible.
                    self.queue_cond
                        .wait_for(&mut queue, Duration::from_millis(250));
                }
                queue.ops.is_empty()
            };
            if stopping {
                // Stop requested with an empty queue. Clear `background`
                // FIRST, then sweep once more: a submitter pushes before it
                // loads the flag and we clear the flag before this sweep
                // (both `SeqCst`), so every op either reaches the sweep or
                // its submitter saw the flag down and owns the cooperative
                // drain — no op can be stranded with a stored waker.
                self.background.store(false, Ordering::SeqCst);
                if !self.queue.lock().ops.is_empty() {
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

impl<N: BitDewApi + ActiveData + TransferManager + 'static> Drive for SessionCore<N> {
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
impl<N: BitDewApi + ActiveData + TransferManager + Send + Sync + 'static> PoolDrive
    for SessionCore<N>
{
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
        let leftover = self.core.queue.lock().ops.len();
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
                queue: Mutex::new(Queue::default()),
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
        self.core.submit(Op::Put(data.clone(), content.to_vec()))
    }

    /// Queue a `schedule` of `data` under `attrs`.
    pub fn schedule(&self, data: &Data, attrs: DataAttributes) -> OpFuture<()> {
        self.core.submit(Op::Schedule(data.clone(), attrs))
    }

    /// Queue a `pin` of `data` on this node.
    pub fn pin(&self, data: &Data, attrs: DataAttributes) -> OpFuture<()> {
        self.core.submit(Op::Pin(data.clone(), attrs))
    }

    /// Queue a `delete` of `data` from the data space.
    pub fn delete(&self, data: &Data) -> OpFuture<()> {
        self.core.submit(Op::Delete(data.clone()))
    }

    /// Drain the submission queue now (one batched round per segment).
    /// Errors are delivered through the individual futures.
    pub fn flush(&self) {
        self.core.flush();
    }

    /// Ops currently queued and not yet flushed.
    pub fn pending_ops(&self) -> usize {
        self.core.queue.lock().ops.len()
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
        let pending = !self.core.queue.lock().ops.is_empty();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{DataEventKind, EventFilter};
    use crate::events::CallbackHandler;
    use crate::runtime::{BitdewNode, RuntimeConfig, ServiceContainer};
    use bitdew_transport::TransportError;
    use std::sync::mpsc;
    use std::task::Wake;

    const PATIENCE: Duration = Duration::from_secs(30);

    fn client() -> Arc<BitdewNode> {
        BitdewNode::new_client(ServiceContainer::start(RuntimeConfig::default()))
    }

    fn data(node: &BitdewNode, n: usize) -> Vec<(Data, Vec<u8>)> {
        let bytes: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; 16]).collect();
        let names: Vec<String> = (0..n).map(|i| format!("block.{i}")).collect();
        let items: Vec<(&str, &[u8])> = names
            .iter()
            .zip(&bytes)
            .map(|(name, b)| (name.as_str(), b.as_slice()))
            .collect();
        let created = node.create_many(&items).expect("create_many");
        created.into_iter().zip(bytes).collect()
    }

    fn background(node: &Arc<BitdewNode>) -> Session<Arc<BitdewNode>> {
        let session = Session::new(Arc::clone(node));
        assert!(session
            .start_executor_with(ExecutorConfig::Dedicated)
            .expect("executor"));
        session
    }

    /// Counts the wakes of one task.
    #[derive(Default)]
    struct CountingWaker(AtomicUsize);

    impl Wake for CountingWaker {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn dropped_failures_in_one_batch_reach_the_sink_once_each() {
        let node = client();
        let session = Session::new(Arc::clone(&node));
        let mut kept = Vec::new();
        for (i, (d, bytes)) in data(&node, 64).iter().enumerate() {
            if i % 4 == 0 {
                // Not the declared content: this put fails its checksum.
                drop(session.put(d, b"tampered"));
            } else {
                kept.push(session.put(d, bytes));
            }
        }
        session.flush();
        assert_eq!(session.batches_flushed(), 1, "one segment, one batch");
        assert!(kept.iter().all(|f| Arc::ptr_eq(&f.block, &kept[0].block)));
        for f in kept {
            f.wait().expect("the batch's other puts succeed");
        }
        assert_eq!(session.failed_count(), 16);
        let failed = session.take_failed();
        assert_eq!(failed.len(), 16);
        assert!(failed
            .iter()
            .all(|e| matches!(e, BitdewError::Transport(TransportError::ChecksumMismatch))));
        session.flush();
        assert_eq!(
            session.failed_count(),
            16,
            "each error reached the sink once"
        );
    }

    #[test]
    fn every_awaiter_of_a_block_is_woken_by_its_segment() {
        let node = client();
        let session = background(&node);
        let items = data(&node, 8);
        // Holding the flush gate keeps the executor from draining while
        // the futures are polled.
        let gate = session.core.flush_gate.lock();
        let mut futures: Vec<OpFuture<()>> = items.iter().map(|(d, b)| session.put(d, b)).collect();
        assert!(futures
            .iter()
            .all(|f| Arc::ptr_eq(&f.block, &futures[0].block)));
        let wakers: Vec<Arc<CountingWaker>> = futures.iter().map(|_| Arc::default()).collect();
        for (f, w) in futures.iter_mut().zip(&wakers) {
            let waker = Waker::from(Arc::clone(w));
            let poll = Pin::new(f).poll(&mut Context::from_waker(&waker));
            assert!(poll.is_pending(), "the executor cannot drain yet");
        }
        drop(gate);
        // Returns once the executor's drain (or this one) has settled the
        // block.
        session.flush();
        assert!(wakers.iter().all(|w| w.0.load(Ordering::SeqCst) == 1));
        for f in futures {
            assert!(f.is_ready());
            f.wait().expect("put");
        }
    }

    #[test]
    fn a_waiter_resolves_while_the_executor_drains_a_later_block() {
        // Scheduling `first` queues `later` from inside the drain, so
        // `later` opens the next block; `later`'s handler then holds the
        // executor inside that block until this thread releases it, which
        // it does only after the waiter of `first` has resolved.
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel();
        let waiter = std::thread::spawn(move || {
            let node = client();
            let session = background(&node);
            let first = node.create_data("first", b"1").expect("create");
            let later = node.create_data("later", b"2").expect("create");
            let attrs = DataAttributes::default().with_replica(0);
            let (s2, l2, a2) = (session.clone(), later.clone(), attrs.clone());
            node.add_handler(
                EventFilter::data(first.id).and_kind(DataEventKind::Create),
                Box::new(CallbackHandler::new().on_create(move |_, _| {
                    drop(s2.schedule(&l2, a2.clone()));
                })),
            );
            let release_rx = Mutex::new(release_rx);
            node.add_handler(
                EventFilter::data(later.id).and_kind(DataEventKind::Create),
                Box::new(CallbackHandler::new().on_create(move |_, _| {
                    entered_tx.send(()).expect("report entry");
                    let _ = release_rx.lock().recv_timeout(PATIENCE);
                })),
            );
            let first_result = session.schedule(&first, attrs).wait();
            done_tx.send(first_result).expect("report the first result");
            session.flush();
            session.failed_count()
        });
        let first_result = done_rx.recv_timeout(PATIENCE);
        let entered = entered_rx.recv_timeout(PATIENCE);
        release_tx.send(()).expect("release the executor");
        first_result
            .expect("the waiter resolved while the executor held the later block")
            .expect("schedule first");
        entered.expect("the executor reached the later block");
        assert_eq!(waiter.join().expect("waiter thread"), 0, "later scheduled");
    }

    #[test]
    fn a_future_outlives_its_session() {
        let node = client();
        let items = data(&node, 2);
        let cooperative = Session::new(Arc::clone(&node));
        let queued = cooperative.put(&items[0].0, &items[0].1);
        drop(cooperative);
        queued.wait().expect("the future drives the queue itself");

        let session = background(&node);
        let drained = session.put(&items[1].0, &items[1].1);
        drop(session);
        assert!(
            drained.is_ready(),
            "the last handle's drop drains the queue"
        );
        drained.wait().expect("put");
    }
}
