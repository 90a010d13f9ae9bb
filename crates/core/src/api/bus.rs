//! The subscription event bus: per-datum / per-name / per-kind routed
//! delivery of data life-cycle events.
//!
//! The paper's §3.3 programming model is event-driven — applications
//! install `onDataCopy`/`onDataDelete` handlers and react as the reservoir
//! cache changes. [`EventBus`] is the runtime side of that promise: every
//! life-cycle transition a node observes is *published* once, and routed to
//!
//! * **subscriptions** ([`EventBus::subscribe`] → [`EventSub`]): drainable
//!   per-subscriber queues with condvar wakeups, filtered by
//!   [`EventFilter`] (datum id, exact name, name prefix, event kind);
//! * **handlers** ([`EventBus::attach`]): [`ActiveDataEventHandler`]
//!   callbacks invoked synchronously at publish time, with the same
//!   filters.
//!
//! Both deployments own one bus per node: the threaded
//! [`BitdewNode`](crate::BitdewNode) publishes from its synchronization
//! loop (subscribers on other threads wake through the condvar), the
//! simulator's [`SimNode`](crate::simdriver::SimNode) publishes as virtual
//! time advances (subscribers drain between pumps).
//!
//! ## Backpressure
//!
//! Explicit subscriptions choose how a lagging consumer is handled
//! ([`EventBus::subscribe_with`] / [`Backpressure`]): queue without bound
//! (`Lossless`, the [`EventBus::subscribe`] default), make the publisher
//! **block** until the consumer drains (`Block(cap)` — the reservoir
//! heartbeat slows down rather than losing an event), or shed the newest
//! event once `cap` are buffered (`DropNewest(cap)`). Shedding and
//! blocking are observable per subscription via [`EventSub::dropped`] and
//! [`EventSub::blocked`] — nothing is silent.
//!
//! Blocking is a *publisher's choice*, not only the subscriber's: a
//! direct [`EventBus::publish`] honors `Block(cap)` by parking, but the
//! threaded node's synchronization loop publishes through
//! [`EventBus::publish_deferring`] — a full `Block` subscriber gets the
//! event appended to its **deferral queue** instead of parking the
//! publisher, counted by [`EventSub::deferred`], and the next
//! synchronization round retries delivery ([`EventBus::retry_deferred`]).
//! One slow subscriber therefore slows only itself down, never the
//! heartbeat's sync round (and never its sibling subscribers). Deferred
//! events stay ordered behind the subscriber's queue and are also visible
//! to direct receives, so nothing is lost if the node stops heartbeating.
//!
//! ## Async consumption
//!
//! [`EventSub::stream`] turns a subscription into an [`EventStream`] whose
//! [`next`](EventStream::next) future resolves as events are published —
//! the waker is stored in the subscription and woken at publish time, so
//! `stream.next().await` works under any executor (see
//! [`block_on`](crate::api::block_on)) whenever something else — a
//! heartbeat thread, another client — is driving the node.

use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::api::{DataEvent, DataEventKind, Result, TransferManager};
use crate::data::DataId;
use crate::events::ActiveDataEventHandler;

/// Which life-cycle events a subscription or handler wants. All criteria
/// are conjunctive; an unset criterion matches everything, so
/// [`EventFilter::any`] matches every event.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventFilter {
    data: Option<DataId>,
    name: Option<String>,
    name_prefix: Option<String>,
    kind: Option<DataEventKind>,
}

impl EventFilter {
    /// Match every event.
    pub fn any() -> EventFilter {
        EventFilter::default()
    }

    /// Match events about one datum.
    pub fn data(id: DataId) -> EventFilter {
        EventFilter::any().and_data(id)
    }

    /// Match events whose datum has exactly this name.
    pub fn name(name: &str) -> EventFilter {
        EventFilter::any().and_name(name)
    }

    /// Match events whose datum name starts with `prefix` (the
    /// master/worker framework routes `mw.task.*` / `mw.result.*` this
    /// way).
    pub fn name_prefix(prefix: &str) -> EventFilter {
        EventFilter::any().and_name_prefix(prefix)
    }

    /// Match one life-cycle transition.
    pub fn kind(kind: DataEventKind) -> EventFilter {
        EventFilter::any().and_kind(kind)
    }

    /// Restrict to one datum.
    pub fn and_data(mut self, id: DataId) -> EventFilter {
        self.data = Some(id);
        self
    }

    /// Restrict to an exact datum name.
    pub fn and_name(mut self, name: &str) -> EventFilter {
        self.name = Some(name.to_string());
        self
    }

    /// Restrict to a datum-name prefix.
    pub fn and_name_prefix(mut self, prefix: &str) -> EventFilter {
        self.name_prefix = Some(prefix.to_string());
        self
    }

    /// Restrict to one life-cycle transition.
    pub fn and_kind(mut self, kind: DataEventKind) -> EventFilter {
        self.kind = Some(kind);
        self
    }

    /// Whether `event` passes every set criterion.
    pub fn matches(&self, event: &DataEvent) -> bool {
        if let Some(id) = self.data {
            if event.data.id != id {
                return false;
            }
        }
        if let Some(name) = &self.name {
            if &event.data.name != name {
                return false;
            }
        }
        if let Some(prefix) = &self.name_prefix {
            if !event.data.name.starts_with(prefix) {
                return false;
            }
        }
        if let Some(kind) = self.kind {
            if event.kind != kind {
                return false;
            }
        }
        true
    }
}

/// How a subscription's queue treats a lagging consumer.
///
/// Chosen at subscription time ([`EventBus::subscribe_with`]); every mode
/// keeps its own loss/stall accounting ([`EventSub::dropped`],
/// [`EventSub::blocked`]) so backpressure is observable, never silent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backpressure {
    /// Queue without bound — every event is retained until drained (the
    /// [`EventBus::subscribe`] default; the consumer provably exists).
    Lossless,
    /// Block the publisher once `cap` events are buffered, until the
    /// consumer drains (or drops the subscription). Delivery stays
    /// lossless; the *producer* slows down — on the threaded runtime that
    /// is the heartbeat thread pacing itself to the subscriber. Pacing
    /// engages once the consumer has identified itself by receiving at
    /// least once from another thread; publishes before that — and
    /// publishes from the consumer's own thread (a sole driver pumping
    /// the node itself) — deliver losslessly instead of parking for space
    /// only the publishing thread could free. Not meaningful on the
    /// single-threaded simulator (it degrades to `Lossless` there); use
    /// [`Backpressure::DropNewest`] if shedding is preferred.
    Block(usize),
    /// Shed the **newest** event once `cap` are buffered, counting each
    /// shed in [`EventSub::dropped`] — the consumer keeps the oldest,
    /// still-unseen history instead of a sliding window.
    DropNewest(usize),
}

/// Queue state of one subscription.
struct SubState {
    queue: VecDeque<DataEvent>,
    mode: Backpressure,
    /// Events shed to honor the mode's cap.
    dropped: u64,
    /// Publishes that had to block for queue space (`Block` mode only).
    blocked: u64,
    /// Events a deferring publisher parked *here* instead of itself
    /// (`Block` mode under [`EventBus::publish_deferring`]); re-delivered
    /// by [`EventBus::retry_deferred`] and readable directly once the
    /// main queue empties. Ordered strictly behind `queue`.
    deferred_q: VecDeque<DataEvent>,
    /// Total events ever deferred (monotonic).
    deferred: u64,
    /// Task wakers of pending [`EventStream`] polls, woken at publish.
    wakers: Vec<Waker>,
}

impl SubState {
    /// Pop the next readable event: the main queue first, then the
    /// deferral queue (deferred events are strictly newer — delivery
    /// order is preserved because a deferring publisher keeps appending
    /// to the deferral queue while it is non-empty).
    fn pop_next(&mut self) -> Option<DataEvent> {
        self.queue
            .pop_front()
            .or_else(|| self.deferred_q.pop_front())
    }

    /// Buffered events across both queues.
    fn buffered(&self) -> usize {
        self.queue.len() + self.deferred_q.len()
    }
}

/// Shared core of a subscription: the bus holds one reference, the
/// [`EventSub`] the other. The bus prunes entries whose subscriber side
/// was dropped.
struct SubShared {
    state: Mutex<SubState>,
    /// Consumer-side wakeups: signaled on every delivery.
    cond: Condvar,
    /// Publisher-side wakeups: signaled when the consumer frees queue
    /// space (a `Block`-mode publisher parks here).
    space: Condvar,
    /// Set when the [`EventSub`] handle drops — pruned by the next
    /// publish, and unblocks any publisher parked on `space`.
    closed: AtomicBool,
    /// The thread last seen consuming this queue. A `Block`-mode delivery
    /// *from that same thread* (a sole driver publishing from inside its
    /// own `pump`) must not park for space it can only free itself — it
    /// delivers losslessly instead.
    consumer: Mutex<Option<std::thread::ThreadId>>,
}

impl SubShared {
    /// Record the calling thread as this queue's consumer.
    fn note_consumer(&self) {
        *self.consumer.lock() = Some(std::thread::current().id());
    }
}

/// A live subscription handle returned by [`EventBus::subscribe`] (and the
/// `ActiveData::subscribe` trait surface). Dropping it unsubscribes.
pub struct EventSub {
    shared: Arc<SubShared>,
}

impl Drop for EventSub {
    fn drop(&mut self) {
        self.shared.closed.store(true, Ordering::Release);
        // A publisher blocked on this queue must not wait for a consumer
        // that no longer exists.
        self.shared.space.notify_all();
    }
}

impl EventSub {
    /// Pop the oldest buffered event, without blocking.
    pub fn try_recv(&self) -> Option<DataEvent> {
        self.shared.note_consumer();
        let ev = self.shared.state.lock().pop_next();
        if ev.is_some() {
            self.shared.space.notify_all();
        }
        ev
    }

    /// Drain every buffered event, oldest first.
    pub fn drain(&self) -> Vec<DataEvent> {
        self.shared.note_consumer();
        let evs: Vec<DataEvent> = {
            let mut state = self.shared.state.lock();
            let mut evs: Vec<DataEvent> = state.queue.drain(..).collect();
            evs.extend(state.deferred_q.drain(..));
            evs
        };
        if !evs.is_empty() {
            self.shared.space.notify_all();
        }
        evs
    }

    /// Buffered event count (main queue plus deferred events).
    pub fn len(&self) -> usize {
        self.shared.state.lock().buffered()
    }

    /// Whether the queue is currently empty (no buffered or deferred
    /// events).
    pub fn is_empty(&self) -> bool {
        self.shared.state.lock().buffered() == 0
    }

    /// Block up to `timeout` for the next event, waking the moment a
    /// publisher delivers one (condvar parking — no polling). This is the
    /// threaded-deployment face: some other thread (a heartbeat, another
    /// client) must be driving the node for events to be produced.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<DataEvent> {
        self.shared.note_consumer();
        let deadline = Instant::now() + timeout;
        let mut state = self.shared.state.lock();
        loop {
            if let Some(ev) = state.pop_next() {
                drop(state);
                self.shared.space.notify_all();
                return Some(ev);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            self.shared.cond.wait_for(&mut state, deadline - now);
        }
    }

    /// Deployment-agnostic blocking receive, driving `node` only when
    /// nothing else does. If the node reports an active driver
    /// ([`TransferManager::is_driven`] — a heartbeat thread on the
    /// threaded runtime), the wait parks on the subscription's condvar for
    /// the remaining deadline (re-checking the driver periodically) and
    /// never pumps: the total pump count stays O(events produced), not
    /// O(timeout/1ms). Only when the caller is the sole driver does each
    /// round run one `pump` (a reservoir heartbeat on threads, a
    /// virtual-time step under the simulator) before a short park.
    pub fn next_with<N: TransferManager + ?Sized>(
        &self,
        node: &N,
        timeout: Duration,
    ) -> Result<Option<DataEvent>> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(ev) = self.try_recv() {
                return Ok(Some(ev));
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            let remaining = deadline - now;
            if node.is_driven() {
                // Someone else produces events; park on the condvar (in
                // bounded slices, in case the driver stops mid-wait).
                let park = remaining.min(Duration::from_millis(25));
                if let Some(ev) = self.recv_timeout(park) {
                    return Ok(Some(ev));
                }
            } else {
                node.pump()?;
                let park = Duration::from_millis(1).min(remaining);
                if let Some(ev) = self.recv_timeout(park) {
                    return Ok(Some(ev));
                }
            }
        }
    }

    /// Events shed because the queue overflowed its [`Backpressure`] cap.
    pub fn dropped(&self) -> u64 {
        self.shared.state.lock().dropped
    }

    /// Publishes that had to block for queue space
    /// ([`Backpressure::Block`] subscriptions only).
    pub fn blocked(&self) -> u64 {
        self.shared.state.lock().blocked
    }

    /// Events a deferring publisher ([`EventBus::publish_deferring`] — the
    /// node's synchronization loop) routed to this subscription's deferral
    /// queue instead of parking itself (monotonic;
    /// [`Backpressure::Block`] subscriptions only).
    pub fn deferred(&self) -> u64 {
        self.shared.state.lock().deferred
    }

    /// Deferred events not yet re-delivered to the main queue (they are
    /// still readable — receives fall through to the deferral queue).
    pub fn deferred_len(&self) -> usize {
        self.shared.state.lock().deferred_q.len()
    }

    /// Turn this subscription into an async event stream:
    /// `stream.next().await` resolves as matching events are published.
    pub fn stream(self) -> EventStream {
        EventStream { sub: self }
    }
}

/// An async view over an [`EventSub`]: each [`EventStream::next`] future
/// resolves with the next matching event, its waker woken at publish time
/// — no polling loop, no runtime dependency. Something other than the
/// awaiting task must drive the node (a heartbeat thread, another
/// client); under the single-threaded simulator, pump between awaits or
/// use [`EventSub::next_with`] instead.
pub struct EventStream {
    sub: EventSub,
}

impl EventStream {
    /// The future of the next event on this subscription (the
    /// `Stream::next` idiom — async, not `Iterator::next`).
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> NextEvent<'_> {
        NextEvent { sub: &self.sub }
    }

    /// The underlying subscription (buffered length, counters, sync
    /// receives).
    pub fn sub(&self) -> &EventSub {
        &self.sub
    }
}

/// Future of one event on an [`EventStream`] — see [`EventStream::next`].
#[must_use = "futures do nothing unless polled"]
pub struct NextEvent<'a> {
    sub: &'a EventSub,
}

impl Future for NextEvent<'_> {
    type Output = DataEvent;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<DataEvent> {
        let shared = &self.sub.shared;
        shared.note_consumer();
        let mut state = shared.state.lock();
        if let Some(ev) = state.pop_next() {
            drop(state);
            shared.space.notify_all();
            return Poll::Ready(ev);
        }
        if !state.wakers.iter().any(|w| w.will_wake(cx.waker())) {
            state.wakers.push(cx.waker().clone());
        }
        Poll::Pending
    }
}

/// Identifies an attached handler so it can be detached again
/// ([`EventBus::detach`]) — without this, per-datum callbacks would
/// accumulate on a long-running node's bus forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HandlerId(u64);

/// One attached handler: its id, its filter, the callback itself.
type HandlerEntry = (HandlerId, EventFilter, Box<dyn ActiveDataEventHandler>);

/// Per-node event bus: filtered subscriptions plus filtered
/// [`ActiveDataEventHandler`] callbacks. One instance lives in every
/// [`BitdewNode`](crate::BitdewNode) and every
/// [`SimNode`](crate::simdriver::SimNode).
#[derive(Default)]
pub struct EventBus {
    subs: Mutex<Vec<(EventFilter, Arc<SubShared>)>>,
    handlers: Mutex<Vec<HandlerEntry>>,
    /// Detaches issued while the handler list was checked out for a
    /// running dispatch; applied at merge-back.
    pending_detach: Mutex<Vec<HandlerId>>,
    next_handler: AtomicU64,
    published: AtomicU64,
    /// Events deferred across all subscriptions
    /// ([`EventBus::publish_deferring`] against full `Block` queues).
    deferred_total: AtomicU64,
}

impl EventBus {
    /// An empty bus.
    pub fn new() -> EventBus {
        EventBus::default()
    }

    /// Open a lossless subscription for events matching `filter`.
    pub fn subscribe(&self, filter: EventFilter) -> EventSub {
        self.subscribe_with(filter, Backpressure::Lossless)
    }

    /// Open a subscription with an explicit [`Backpressure`] mode for
    /// events matching `filter`.
    pub fn subscribe_with(&self, filter: EventFilter, backpressure: Backpressure) -> EventSub {
        let mode = match backpressure {
            Backpressure::Lossless => Backpressure::Lossless,
            Backpressure::Block(cap) => Backpressure::Block(cap.max(1)),
            Backpressure::DropNewest(cap) => Backpressure::DropNewest(cap.max(1)),
        };
        let shared = Arc::new(SubShared {
            state: Mutex::new(SubState {
                queue: VecDeque::new(),
                mode,
                dropped: 0,
                blocked: 0,
                deferred_q: VecDeque::new(),
                deferred: 0,
                wakers: Vec::new(),
            }),
            cond: Condvar::new(),
            space: Condvar::new(),
            closed: AtomicBool::new(false),
            consumer: Mutex::new(None),
        });
        self.subs.lock().push((filter, Arc::clone(&shared)));
        EventSub { shared }
    }

    /// Attach a callback handler for events matching `filter`, invoked
    /// synchronously at publish time (the paper's `ActiveDataEventHandler`
    /// registration). The handler stays attached for the bus's lifetime
    /// unless the returned id is [`EventBus::detach`]ed.
    pub fn attach(
        &self,
        filter: EventFilter,
        handler: Box<dyn ActiveDataEventHandler>,
    ) -> HandlerId {
        let id = HandlerId(self.next_handler.fetch_add(1, Ordering::Relaxed));
        self.handlers.lock().push((id, filter, handler));
        id
    }

    /// Remove a previously attached handler. A detach issued while the
    /// handler list is checked out for dispatch (e.g. from inside a
    /// callback) is recorded and applied when the dispatch completes.
    pub fn detach(&self, id: HandlerId) {
        let mut handlers = self.handlers.lock();
        let before = handlers.len();
        handlers.retain(|(hid, _, _)| *hid != id);
        if handlers.len() == before {
            // Not in the list — either unknown or currently taken out by a
            // running publish; record so the merge-back drops it.
            self.pending_detach.lock().push(id);
        }
    }

    /// Number of installed callback handlers.
    pub fn handler_count(&self) -> usize {
        self.handlers.lock().len()
    }

    /// Events published through this bus since creation.
    pub fn published(&self) -> u64 {
        self.published.load(Ordering::Relaxed)
    }

    /// Publish one event: enqueue on every matching subscription per its
    /// [`Backpressure`] mode (waking condvars and stream wakers; a
    /// `Block`-mode queue at capacity parks this publisher until the
    /// consumer drains), then invoke every matching handler.
    ///
    /// Each subscription's own queue is ordered, but **concurrent**
    /// publishers are not totally ordered *across* subscriptions: two
    /// events published from different threads at the same instant may
    /// appear in different relative orders on two different subscriptions
    /// (delivery runs outside the bus lock so a `Block`ed queue cannot
    /// stall the whole bus). Events published by one thread — e.g.
    /// everything a single node's synchronization loop fires — keep their
    /// order on every subscription.
    pub fn publish(&self, event: &DataEvent) {
        self.publish_inner(event, false);
    }

    /// [`EventBus::publish`] that **never parks**: a `Block(cap)`
    /// subscription at capacity gets the event appended to its per-sub
    /// deferral queue (counted in [`EventSub::deferred`] and
    /// [`EventBus::deferred_events`]) instead of blocking this publisher.
    /// Deferred events re-deliver on the next [`EventBus::retry_deferred`]
    /// — the threaded node runs one at the top of every synchronization
    /// round — and are meanwhile readable by receives that empty the main
    /// queue, so the slow subscriber loses nothing while everyone else
    /// keeps pace. This is the publish the heartbeat's sync round uses.
    pub fn publish_deferring(&self, event: &DataEvent) {
        self.publish_inner(event, true);
    }

    /// [`EventBus::publish_deferring`] for a run of events that are built
    /// only if something listens: with no subscription open and no handler
    /// attached, the events are counted in [`EventBus::published`] and
    /// never built. The check is made once for the run: a subscriber that
    /// arrives while an unheard run is counted sees none of it, as if it
    /// had subscribed just after the run.
    pub fn publish_all_deferring(&self, events: impl ExactSizeIterator<Item = DataEvent>) {
        if self.subs.lock().is_empty() && self.handlers.lock().is_empty() {
            self.published
                .fetch_add(events.len() as u64, Ordering::Relaxed);
            return;
        }
        for event in events {
            self.publish_inner(&event, true);
        }
    }

    /// Events deferred across all subscriptions since the bus was created
    /// (monotonic).
    pub fn deferred_events(&self) -> u64 {
        self.deferred_total.load(Ordering::Relaxed)
    }

    /// Re-deliver deferred events into their subscriptions' main queues,
    /// as far as each `Block` cap allows, waking consumers. Returns how
    /// many events moved. Called at the top of every threaded sync round;
    /// harmless (and a no-op) when nothing was deferred.
    pub fn retry_deferred(&self) -> u64 {
        let targets: Vec<Arc<SubShared>> = {
            let subs = self.subs.lock();
            subs.iter().map(|(_, shared)| Arc::clone(shared)).collect()
        };
        let mut moved = 0u64;
        for shared in targets {
            let mut state = shared.state.lock();
            // Only `Block` subscriptions ever defer.
            let Backpressure::Block(cap) = state.mode else {
                continue;
            };
            let mut n = 0u64;
            while !state.deferred_q.is_empty() && state.queue.len() < cap {
                let ev = state.deferred_q.pop_front().expect("checked non-empty");
                state.queue.push_back(ev);
                n += 1;
            }
            if n > 0 {
                moved += n;
                let wakers = std::mem::take(&mut state.wakers);
                drop(state);
                shared.cond.notify_all();
                for w in wakers {
                    w.wake();
                }
            }
        }
        moved
    }

    fn publish_inner(&self, event: &DataEvent, deferring: bool) {
        self.published.fetch_add(1, Ordering::Relaxed);
        // Snapshot the matching subscriptions, then deliver with the subs
        // lock released — a Block-mode delivery may park, and must not
        // hold up subscribe/unsubscribe (or other publishers' snapshots)
        // while it does.
        let targets: Vec<Arc<SubShared>> = {
            let mut subs = self.subs.lock();
            // Prune subscriptions whose EventSub handle was dropped.
            subs.retain(|(_, shared)| !shared.closed.load(Ordering::Acquire));
            subs.iter()
                .filter(|(filter, _)| filter.matches(event))
                .map(|(_, shared)| Arc::clone(shared))
                .collect()
        };
        for shared in targets {
            if deferring {
                self.deliver_deferring(&shared, event);
            } else {
                Self::deliver(&shared, event);
            }
        }
        // Handlers may call back into the node (a worker's onDataCopy
        // schedules its result, which publishes onDataCreate), so the lock
        // must not be held while they run: take the list out, invoke, then
        // merge back anything attached meanwhile. A nested publish sees an
        // empty list and skips handler dispatch.
        let mut taken = {
            let mut guard = self.handlers.lock();
            std::mem::take(&mut *guard)
        };
        for (_, filter, handler) in taken.iter_mut() {
            if filter.matches(event) {
                handler.on_event(event);
            }
        }
        let mut guard = self.handlers.lock();
        let added = std::mem::take(&mut *guard);
        *guard = taken;
        guard.extend(added);
        let pending = std::mem::take(&mut *self.pending_detach.lock());
        if !pending.is_empty() {
            guard.retain(|(hid, _, _)| !pending.contains(hid));
        }
    }

    /// [`EventBus::deliver`] for a publisher that must not park: a full
    /// `Block` queue defers the event instead. Once anything is deferred,
    /// *every* subsequent deferring delivery to that subscription defers
    /// too — even with main-queue space free — so the subscriber's event
    /// order is never inverted.
    fn deliver_deferring(&self, shared: &Arc<SubShared>, event: &DataEvent) {
        let mut state = shared.state.lock();
        if let Backpressure::Block(cap) = state.mode {
            if !state.deferred_q.is_empty() || state.queue.len() >= cap {
                state.deferred_q.push_back(event.clone());
                state.deferred += 1;
                self.deferred_total.fetch_add(1, Ordering::Relaxed);
                return; // retried next round; readable meanwhile
            }
            // Space free and nothing deferred: deliver under this same
            // lock — re-locking in the shared path would open a window
            // for a rival publisher to fill the queue and park us.
            state.queue.push_back(event.clone());
            let wakers = std::mem::take(&mut state.wakers);
            drop(state);
            shared.cond.notify_all();
            for w in wakers {
                w.wake();
            }
            return;
        }
        drop(state);
        // Every other mode never parks; the shared path handles cap
        // accounting and wakeups.
        Self::deliver(shared, event);
    }

    /// Deliver one event to one subscription per its queue mode, waking
    /// the consumer condvar and any stored stream wakers.
    fn deliver(shared: &Arc<SubShared>, event: &DataEvent) {
        let mut state = shared.state.lock();
        match state.mode {
            Backpressure::Lossless => {}
            Backpressure::DropNewest(cap) => {
                if state.queue.len() >= cap {
                    state.dropped += 1;
                    return; // shed this event; nothing to wake
                }
            }
            Backpressure::Block(cap) => {
                if state.queue.len() >= cap {
                    // Park only when a consumer on *another* thread has
                    // identified itself by receiving at least once. A sole
                    // driver publishing from inside its own pump — or a
                    // publish before the first consume — delivers
                    // losslessly instead of parking for space that only
                    // the publishing thread itself could ever free.
                    let other_consumer = shared
                        .consumer
                        .lock()
                        .is_some_and(|t| t != std::thread::current().id());
                    if other_consumer {
                        state.blocked += 1;
                        while state.queue.len() >= cap {
                            if shared.closed.load(Ordering::Acquire) {
                                state.dropped += 1;
                                return; // consumer gone mid-block
                            }
                            shared.space.wait_for(&mut state, Duration::from_millis(10));
                        }
                    }
                }
            }
        }
        state.queue.push_back(event.clone());
        let wakers = std::mem::take(&mut state.wakers);
        drop(state);
        shared.cond.notify_all();
        for w in wakers {
            w.wake();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::DataAttributes;
    use crate::data::Data;
    use bitdew_util::Auid;

    fn ev(kind: DataEventKind, name: &str, seed: u128) -> DataEvent {
        DataEvent {
            kind,
            data: Data::from_bytes(Auid(seed), name, b"x"),
            attrs: DataAttributes::default(),
            host: Auid(99),
        }
    }

    #[test]
    fn filters_are_conjunctive() {
        let e = ev(DataEventKind::Copy, "mw.task.7", 3);
        assert!(EventFilter::any().matches(&e));
        assert!(EventFilter::data(e.data.id).matches(&e));
        assert!(!EventFilter::data(Auid(4)).matches(&e));
        assert!(EventFilter::name("mw.task.7").matches(&e));
        assert!(!EventFilter::name("mw.task").matches(&e));
        assert!(EventFilter::name_prefix("mw.task.").matches(&e));
        assert!(!EventFilter::name_prefix("mw.result.").matches(&e));
        assert!(EventFilter::kind(DataEventKind::Copy).matches(&e));
        assert!(!EventFilter::kind(DataEventKind::Delete).matches(&e));
        assert!(EventFilter::name_prefix("mw.")
            .and_kind(DataEventKind::Copy)
            .and_data(e.data.id)
            .matches(&e));
        assert!(!EventFilter::name_prefix("mw.")
            .and_kind(DataEventKind::Delete)
            .matches(&e));
    }

    #[test]
    fn subscriptions_route_by_filter() {
        let bus = EventBus::new();
        let copies = bus.subscribe(EventFilter::kind(DataEventKind::Copy));
        let tasks = bus.subscribe(EventFilter::name_prefix("mw.task."));
        let all = bus.subscribe(EventFilter::any());
        bus.publish(&ev(DataEventKind::Copy, "mw.task.1", 1));
        bus.publish(&ev(DataEventKind::Delete, "mw.task.1", 1));
        bus.publish(&ev(DataEventKind::Copy, "other", 2));
        assert_eq!(copies.len(), 2);
        assert_eq!(tasks.len(), 2);
        assert_eq!(all.len(), 3);
        let first = tasks.try_recv().unwrap();
        assert_eq!(first.kind, DataEventKind::Copy);
        assert_eq!(first.host, Auid(99));
        assert_eq!(tasks.drain().len(), 1);
        assert!(tasks.is_empty());
    }

    #[test]
    fn dropped_subscription_is_pruned() {
        let bus = EventBus::new();
        let sub = bus.subscribe(EventFilter::any());
        drop(sub);
        bus.publish(&ev(DataEventKind::Create, "x", 1));
        assert_eq!(bus.subs.lock().len(), 0);
    }

    #[test]
    fn recv_timeout_wakes_on_publish_from_another_thread() {
        let bus = Arc::new(EventBus::new());
        let sub = bus.subscribe(EventFilter::any());
        let b2 = Arc::clone(&bus);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            b2.publish(&ev(DataEventKind::Copy, "late", 5));
        });
        let started = Instant::now();
        let got = sub.recv_timeout(Duration::from_secs(5));
        t.join().unwrap();
        assert_eq!(got.unwrap().data.name, "late");
        assert!(
            started.elapsed() < Duration::from_secs(4),
            "woke on publish, not on timeout"
        );
        assert!(sub.recv_timeout(Duration::from_millis(5)).is_none());
    }

    #[test]
    fn detached_handlers_stop_firing_and_free_their_slot() {
        use std::sync::atomic::AtomicU32;
        let bus = EventBus::new();
        let fired = Arc::new(AtomicU32::new(0));
        let f2 = Arc::clone(&fired);
        let id = bus.attach(
            EventFilter::any(),
            Box::new(crate::events::CallbackHandler::new().on_copy(move |_, _| {
                f2.fetch_add(1, Ordering::Relaxed);
            })),
        );
        bus.publish(&ev(DataEventKind::Copy, "a", 1));
        assert_eq!(fired.load(Ordering::Relaxed), 1);
        bus.detach(id);
        assert_eq!(bus.handler_count(), 0, "slot freed");
        bus.publish(&ev(DataEventKind::Copy, "b", 2));
        assert_eq!(fired.load(Ordering::Relaxed), 1, "no longer fires");
        // Detaching an unknown id is a no-op recorded then discarded.
        bus.detach(HandlerId(999));
        bus.publish(&ev(DataEventKind::Copy, "c", 3));
        assert_eq!(bus.handler_count(), 0);
    }

    #[test]
    fn handlers_filter_and_can_reenter() {
        use std::sync::atomic::AtomicU32;
        let bus = Arc::new(EventBus::new());
        let copies = Arc::new(AtomicU32::new(0));
        let c2 = Arc::clone(&copies);
        bus.attach(
            EventFilter::kind(DataEventKind::Copy),
            Box::new(crate::events::CallbackHandler::new().on_copy(move |_, _| {
                c2.fetch_add(1, Ordering::Relaxed);
            })),
        );
        // A handler that publishes back into the bus must not deadlock.
        let b2 = Arc::clone(&bus);
        bus.attach(
            EventFilter::kind(DataEventKind::Create),
            Box::new(
                crate::events::CallbackHandler::new().on_create(move |_, _| {
                    b2.publish(&ev(DataEventKind::Copy, "nested", 8));
                }),
            ),
        );
        bus.publish(&ev(DataEventKind::Create, "outer", 7));
        assert_eq!(copies.load(Ordering::Relaxed), 0, "nested publish skipped");
        bus.publish(&ev(DataEventKind::Copy, "direct", 9));
        assert_eq!(copies.load(Ordering::Relaxed), 1);
        assert_eq!(bus.handler_count(), 2);
    }
}
