//! The discrete-event simulation kernel.
//!
//! [`Sim`] owns a virtual clock, the queue of scheduled events and a
//! deterministic seeded RNG. Events are boxed `FnOnce(&mut Sim)` closures;
//! components that need persistent state live behind `Rc<RefCell<...>>`
//! handles captured by their event closures (the conventional single-threaded
//! DES pattern in Rust — see e.g. the `desim`/SimGrid designs).
//!
//! # The `(at, seq)` contract
//!
//! Every schedule call takes the next value of a monotone sequence number,
//! and events run in `(at, seq)` order: by time, ties broken by schedule
//! order, never by allocation order. So two runs with the same seed and the
//! same sequence of schedule calls produce identical event orders. An event
//! scheduled in the past has its time clamped to the clock: it runs now,
//! after everything already due now. Builds with `debug_assertions` (every
//! `cargo test` without `--release`) check the contract on every event: each
//! `(at, seq)` that runs must be strictly greater than the one that ran
//! before it.
//!
//! # Queue shape
//!
//! Simulated events bunch on few instants — every host of a heartbeat-driven
//! run fires on the same whole-second marks — so the queue keeps one FIFO
//! *run* of events per distinct instant, in a `BTreeMap` keyed by the
//! instant. Inside a run, arrival order is seq order: seqs are handed out in
//! increasing order and a new event joins the tail of its instant's run. So
//! popping the head of the earliest run is the `(at, seq)` order, and no seq
//! is ever compared. Events live in a slab of slots; a run is an intrusive
//! list through them (a head, a tail and one `next` index per slot), so
//! neither a crowded instant nor a singleton one allocates per event beyond
//! the closure's box. The run being drained sits outside the map, and events
//! scheduled for the current instant join its tail directly.
//!
//! # Cancellation
//!
//! An [`EventToken`] names a slot and the seq of the event it was issued
//! for. [`Sim::cancel`] drops the closure when the slot still holds that
//! event and does nothing otherwise: once an event has run or been
//! cancelled, its slot holds no closure or a later event, so its token
//! matches nothing, and the call leaves no record behind. A cancelled
//! event's emptied slot stays in its run until its instant comes up, then
//! returns to the free list. [`Sim::events_pending`] counts live events
//! only.
//!
//! # Recurring timers
//!
//! [`every`] boxes its closure once. When the timer fires and asks to go on,
//! the same slot and closure are linked into the run one period later under
//! a new seq, taken after the closure returned — the seq a fresh schedule
//! call at that point would get, so a timer keeps its `(at, seq)` place and
//! nothing is allocated per period.

use std::collections::BTreeMap;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::time::{SimDuration, SimTime};

#[cfg(test)]
mod oracle;

/// Token identifying a scheduled event, used for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventToken {
    slot: u32,
    seq: u64,
}

/// Event closures receive the simulator so they can read the clock, schedule
/// further events and draw randomness.
pub type EventFn = Box<dyn FnOnce(&mut Sim)>;

/// What a slot runs: the delay to fire again after, or `None` when done
/// (always `None` for a one-shot event).
type Action = Box<dyn FnMut(&mut Sim) -> Option<SimDuration>>;

/// Ends a run and the free list.
const NIL: u32 = u32::MAX;

struct Slot {
    /// Seq of the event in this slot: its place among same-instant events,
    /// and what a token must carry to cancel it.
    seq: u64,
    /// The next slot of the same run, or of the free list.
    next: u32,
    /// `None` while running, once cancelled, and while free.
    action: Option<Action>,
}

/// One instant's events, in seq order: a list through [`Slot::next`].
#[derive(Clone, Copy)]
struct Run {
    head: u32,
    tail: u32,
}

impl Run {
    const EMPTY: Run = Run {
        head: NIL,
        tail: NIL,
    };
}

/// The simulation kernel.
pub struct Sim {
    now: SimTime,
    /// Runs of the instants later than the clock (outside
    /// [`Sim::fire_next`], every key is later than `now`).
    runs: BTreeMap<SimTime, Run>,
    /// The current instant's run, at `cur_at`: the one being drained, taken
    /// out of `runs`, which events scheduled for now join. While it is
    /// non-empty outside [`Sim::fire_next`], `cur_at == now`.
    cur: Run,
    cur_at: SimTime,
    slots: Vec<Slot>,
    /// Head of the free-slot list.
    free: u32,
    next_seq: u64,
    /// Events scheduled and neither run nor cancelled.
    live: usize,
    executed: u64,
    /// `(at, seq)` of the last event run, for the contract check.
    #[cfg(debug_assertions)]
    last_run: Option<(SimTime, u64)>,
    /// Deterministic randomness for the whole simulation.
    pub rng: SmallRng,
}

impl Sim {
    /// New simulator with the given RNG seed.
    pub fn new(seed: u64) -> Sim {
        Sim {
            now: SimTime::ZERO,
            runs: BTreeMap::new(),
            cur: Run::EMPTY,
            cur_at: SimTime::ZERO,
            slots: Vec::new(),
            free: NIL,
            next_seq: 0,
            live: 0,
            executed: 0,
            #[cfg(debug_assertions)]
            last_run: None,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Number of events still pending: scheduled, and neither run nor
    /// cancelled.
    pub fn events_pending(&self) -> usize {
        self.live
    }

    /// Schedule `f` to run at absolute time `at`. Events scheduled in the past
    /// run "now" (at the current clock value) but never move time backwards.
    pub fn schedule_at<F: FnOnce(&mut Sim) + 'static>(&mut self, at: SimTime, f: F) -> EventToken {
        let mut f = Some(f);
        self.push(
            at,
            Box::new(move |sim| {
                if let Some(f) = f.take() {
                    f(sim);
                }
                None
            }),
        )
    }

    /// Schedule `f` to run after `delay`.
    pub fn schedule_in<F: FnOnce(&mut Sim) + 'static>(
        &mut self,
        delay: SimDuration,
        f: F,
    ) -> EventToken {
        self.schedule_at(self.now + delay, f)
    }

    /// Cancel a previously scheduled event. Cancelling an event that already
    /// ran (or was already cancelled) is a no-op.
    pub fn cancel(&mut self, token: EventToken) {
        if let Some(slot) = self.slots.get_mut(token.slot as usize) {
            if slot.seq == token.seq && slot.action.take().is_some() {
                self.live -= 1;
            }
        }
    }

    /// Run until the queue is exhausted. Returns the final virtual time.
    pub fn run(&mut self) -> SimTime {
        self.run_until(SimTime::INFINITY)
    }

    /// Run events with `at <= deadline`; the clock is left at the last event
    /// executed (or advanced to `deadline` if it is finite and the queue
    /// drained earlier than that).
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        while self.fire_next(deadline) {}
        if deadline != SimTime::INFINITY && self.now < deadline {
            self.now = deadline;
        }
        self.now
    }

    /// Execute exactly one event if any is pending; returns whether one ran.
    pub fn step(&mut self) -> bool {
        self.fire_next(SimTime::INFINITY)
    }

    fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Put `action` in a slot under the next seq and queue it at `at`.
    fn push(&mut self, at: SimTime, action: Action) -> EventToken {
        let seq = self.take_seq();
        let filled = Slot {
            seq,
            next: NIL,
            action: Some(action),
        };
        let slot = match self.free {
            NIL => {
                let slot = u32::try_from(self.slots.len())
                    .ok()
                    .filter(|&i| i != NIL)
                    .expect("fewer than 2^32 - 1 events pending");
                self.slots.push(filled);
                slot
            }
            slot => {
                self.free = self.slots[slot as usize].next;
                self.slots[slot as usize] = filled;
                slot
            }
        };
        self.link(at, slot);
        EventToken { slot, seq }
    }

    /// Append the filled slot `slot` to the tail of its instant's run (`at`
    /// clamped to the clock).
    fn link(&mut self, at: SimTime, slot: u32) {
        let at = at.max(self.now);
        self.live += 1;
        let run = if at == self.now {
            // Every queued instant is later than the clock, so this run
            // (empty, or the one being drained) is the current instant's.
            debug_assert!(self.cur.head == NIL || self.cur_at == at);
            self.cur_at = at;
            &mut self.cur
        } else {
            self.runs.entry(at).or_insert(Run::EMPTY)
        };
        match run.tail {
            NIL => run.head = slot,
            tail => self.slots[tail as usize].next = slot,
        }
        run.tail = slot;
    }

    fn release(&mut self, slot: u32) {
        self.slots[slot as usize].next = self.free;
        self.free = slot;
    }

    /// Run the next live event due at or before `deadline`, releasing the
    /// cancelled slots ahead of it; false when there is none.
    fn fire_next(&mut self, deadline: SimTime) -> bool {
        loop {
            if self.cur.head == NIL {
                let Some(first) = self.runs.first_entry() else {
                    return false;
                };
                if *first.key() > deadline {
                    return false;
                }
                (self.cur_at, self.cur) = first.remove_entry();
            } else if self.cur_at > deadline {
                return false;
            }
            let slot = self.cur.head;
            let entry = &mut self.slots[slot as usize];
            self.cur.head = entry.next;
            if self.cur.head == NIL {
                self.cur.tail = NIL;
            }
            let Some(mut action) = entry.action.take() else {
                self.release(slot); // cancelled
                continue;
            };
            #[cfg(debug_assertions)]
            {
                let key = (self.cur_at, entry.seq);
                assert!(
                    self.last_run.is_none_or(|last| key > last),
                    "(at, seq) order broken: {key:?} ran after {:?}",
                    self.last_run
                );
                self.last_run = Some(key);
            }
            self.now = self.cur_at;
            self.live -= 1;
            self.executed += 1;
            match action(self) {
                Some(period) => {
                    // A timer: the same slot and box, one period on.
                    let seq = self.take_seq();
                    let entry = &mut self.slots[slot as usize];
                    entry.seq = seq;
                    entry.next = NIL;
                    entry.action = Some(action);
                    self.link(self.now + period, slot);
                }
                None => self.release(slot),
            }
            return true;
        }
    }
}

/// Install a recurring event firing every `period`, starting at
/// `start` (absolute). The closure returns `true` to keep the timer alive and
/// `false` to stop. It is boxed once: each firing that continues re-queues
/// the same slot at `now + period` under the seq a `schedule_at` made right
/// after the closure returned would take (see the module docs). Recurring
/// timers drive the heartbeat loops of reservoir hosts and the DT transfer
/// monitor in the simulated runtime.
pub fn every<F>(sim: &mut Sim, start: SimTime, period: SimDuration, mut f: F)
where
    F: FnMut(&mut Sim) -> bool + 'static,
{
    sim.push(start, Box::new(move |sim| f(sim).then_some(period)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn events_run_in_time_order() {
        let mut sim = Sim::new(0);
        let log = Rc::new(RefCell::new(Vec::new()));
        for (t, tag) in [(5u64, 'b'), (1, 'a'), (9, 'c')] {
            let log = Rc::clone(&log);
            sim.schedule_at(SimTime::from_secs(t), move |sim| {
                log.borrow_mut().push((sim.now().as_secs_f64(), tag));
            });
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![(1.0, 'a'), (5.0, 'b'), (9.0, 'c')]);
        assert_eq!(sim.events_executed(), 3);
    }

    #[test]
    fn ties_break_by_schedule_order() {
        let mut sim = Sim::new(0);
        let log = Rc::new(RefCell::new(Vec::new()));
        for tag in 0..10 {
            let log = Rc::clone(&log);
            sim.schedule_at(SimTime::from_secs(1), move |_| log.borrow_mut().push(tag));
        }
        sim.run();
        assert_eq!(*log.borrow(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn past_events_run_at_current_time() {
        let mut sim = Sim::new(0);
        let seen = Rc::new(RefCell::new(SimTime::ZERO));
        sim.schedule_at(SimTime::from_secs(10), {
            let seen = Rc::clone(&seen);
            move |sim| {
                // Scheduling "in the past" clamps to now.
                let seen = Rc::clone(&seen);
                sim.schedule_at(SimTime::from_secs(3), move |sim| {
                    *seen.borrow_mut() = sim.now();
                });
            }
        });
        sim.run();
        assert_eq!(*seen.borrow(), SimTime::from_secs(10));
    }

    #[test]
    fn cancellation() {
        let mut sim = Sim::new(0);
        let hits = Rc::new(RefCell::new(0));
        let h = Rc::clone(&hits);
        let tok = sim.schedule_at(SimTime::from_secs(1), move |_| *h.borrow_mut() += 1);
        let h2 = Rc::clone(&hits);
        sim.schedule_at(SimTime::from_secs(2), move |_| *h2.borrow_mut() += 10);
        sim.cancel(tok);
        sim.run();
        assert_eq!(*hits.borrow(), 10);
        // Double-cancel and cancel-after-run are no-ops.
        sim.cancel(tok);
    }

    #[test]
    fn run_until_stops_and_advances_clock() {
        let mut sim = Sim::new(0);
        let hits = Rc::new(RefCell::new(0));
        for t in [1u64, 2, 3, 10] {
            let h = Rc::clone(&hits);
            sim.schedule_at(SimTime::from_secs(t), move |_| *h.borrow_mut() += 1);
        }
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(*hits.borrow(), 3);
        assert_eq!(sim.now(), SimTime::from_secs(5));
        assert_eq!(sim.events_pending(), 1);
        sim.run();
        assert_eq!(*hits.borrow(), 4);
    }

    #[test]
    fn step_executes_single_event() {
        let mut sim = Sim::new(0);
        let hits = Rc::new(RefCell::new(0));
        for _ in 0..3 {
            let h = Rc::clone(&hits);
            sim.schedule_in(SimDuration::from_secs(1), move |_| *h.borrow_mut() += 1);
        }
        assert!(sim.step());
        assert_eq!(*hits.borrow(), 1);
        assert!(sim.step());
        assert!(sim.step());
        assert!(!sim.step());
    }

    #[test]
    fn recurring_timer_fires_until_stopped() {
        let mut sim = Sim::new(0);
        let hits = Rc::new(RefCell::new(0u32));
        let h = Rc::clone(&hits);
        every(
            &mut sim,
            SimTime::from_secs(1),
            SimDuration::from_secs(1),
            move |_| {
                *h.borrow_mut() += 1;
                *h.borrow() < 5
            },
        );
        sim.run();
        assert_eq!(*hits.borrow(), 5);
        assert_eq!(sim.now(), SimTime::from_secs(5));
    }

    #[test]
    fn determinism_same_seed_same_draws() {
        use rand::Rng;
        let draws = |seed: u64| -> Vec<u64> {
            let mut sim = Sim::new(seed);
            let out = Rc::new(RefCell::new(Vec::new()));
            for _ in 0..5 {
                let out = Rc::clone(&out);
                sim.schedule_in(SimDuration::from_secs(1), move |sim| {
                    out.borrow_mut().push(sim.rng.gen::<u64>());
                });
            }
            sim.run();
            let v = out.borrow().clone();
            v
        };
        assert_eq!(draws(42), draws(42));
        assert_ne!(draws(42), draws(43));
    }

    #[test]
    fn nested_scheduling_from_events() {
        let mut sim = Sim::new(0);
        let total = Rc::new(RefCell::new(0u64));
        fn chain(sim: &mut Sim, total: Rc<RefCell<u64>>, depth: u32) {
            if depth == 0 {
                return;
            }
            sim.schedule_in(SimDuration::from_millis(100), move |sim| {
                *total.borrow_mut() += 1;
                chain(sim, total, depth - 1);
            });
        }
        chain(&mut sim, Rc::clone(&total), 100);
        sim.run();
        assert_eq!(*total.borrow(), 100);
        assert_eq!(sim.now(), SimTime::from_millis(100 * 100));
    }

    // ---- cancellation, pending counts and in-place timers ---------------

    /// What the kernel holds on to: slab length and capacity, queued
    /// instants.
    fn footprint(sim: &Sim) -> (usize, usize, usize) {
        (sim.slots.len(), sim.slots.capacity(), sim.runs.len())
    }

    #[test]
    fn cancelling_spent_tokens_leaves_nothing_behind() {
        let mut sim = Sim::new(0);
        let tokens: Vec<EventToken> = (0..1_000u64)
            .map(|i| sim.schedule_at(SimTime(i % 7), |_| {}))
            .collect();
        sim.run();
        let before = footprint(&sim);
        assert_eq!(sim.events_pending(), 0);
        // A million cancels of tokens whose events ran.
        for _ in 0..1_000 {
            for &t in &tokens {
                sim.cancel(t);
            }
        }
        assert_eq!(footprint(&sim), before);
        assert_eq!(sim.events_pending(), 0);
        // Reused slots do not answer to the old tokens either.
        let hits = Rc::new(RefCell::new(0));
        for _ in 0..1_000 {
            let h = Rc::clone(&hits);
            sim.schedule_in(SimDuration::from_secs(1), move |_| *h.borrow_mut() += 1);
        }
        for &t in &tokens {
            sim.cancel(t);
        }
        assert_eq!(sim.events_pending(), 1_000);
        sim.run();
        assert_eq!(*hits.borrow(), 1_000);
        assert_eq!(footprint(&sim).0, before.0);
    }

    #[test]
    fn pending_counts_live_events_only() {
        let mut sim = Sim::new(0);
        let a = sim.schedule_at(SimTime::from_secs(1), |_| {});
        let b = sim.schedule_at(SimTime::from_secs(5), |_| panic!("cancelled"));
        assert_eq!(sim.events_pending(), 2);
        sim.cancel(b);
        sim.cancel(b);
        assert_eq!(sim.events_pending(), 1);
        sim.run();
        sim.cancel(a);
        assert_eq!(sim.events_pending(), 0);
        // The cancelled event neither ran nor moved the clock.
        assert_eq!(sim.now(), SimTime::from_secs(1));
        assert_eq!(sim.events_executed(), 1);

        // The last pending event cancelled: the sim reads drained, where the
        // replaced kernel still counted the dead event.
        let mut sim = Sim::new(0);
        let only = sim.schedule_in(SimDuration::from_secs(3), |_| {});
        sim.cancel(only);
        assert_eq!(sim.events_pending(), 0);
        let mut old = oracle::Sim::new(0);
        let old_only = old.schedule_in(SimDuration::from_secs(3), |_| {});
        old.cancel(old_only);
        assert_eq!(old.events_pending(), 1);
        assert!(!sim.step());
        assert_eq!((sim.run(), old.run()), (SimTime::ZERO, SimTime::ZERO));
    }

    #[test]
    fn timers_rearm_in_place() {
        let mut sim = Sim::new(0);
        let fired = Rc::new(RefCell::new(0u32));
        for i in 0..100u64 {
            let f = Rc::clone(&fired);
            every(
                &mut sim,
                SimTime(i % 3),
                SimDuration::from_secs(1),
                move |_| {
                    *f.borrow_mut() += 1;
                    true
                },
            );
        }
        sim.run_until(SimTime::from_secs(1_000));
        assert!(*fired.borrow() >= 100_000);
        assert_eq!(
            sim.slots.len(),
            100,
            "one slot per timer, whatever the period count"
        );
        assert_eq!(sim.events_pending(), 100);
    }

    // ---- the differential oracle ----------------------------------------

    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// What both kernels offer, so one program drives either.
    trait Kernel: Sized + 'static {
        type Token: Copy + 'static;
        fn new(seed: u64) -> Self;
        fn at(&mut self, at: SimTime, f: impl FnOnce(&mut Self) + 'static) -> Self::Token;
        fn after(&mut self, d: SimDuration, f: impl FnOnce(&mut Self) + 'static) -> Self::Token;
        fn cancel(&mut self, t: Self::Token);
        fn every(
            &mut self,
            start: SimTime,
            period: SimDuration,
            f: impl FnMut(&mut Self) -> bool + 'static,
        );
        fn run_until(&mut self, deadline: SimTime) -> SimTime;
        fn step(&mut self) -> bool;
        fn now(&self) -> SimTime;
        fn executed(&self) -> u64;
        fn draw(&mut self) -> u64;
    }

    macro_rules! kernel {
        ($sim:ty, $token:ty, $every:path) => {
            impl Kernel for $sim {
                type Token = $token;
                fn new(seed: u64) -> Self {
                    <$sim>::new(seed)
                }
                fn at(&mut self, at: SimTime, f: impl FnOnce(&mut Self) + 'static) -> $token {
                    self.schedule_at(at, f)
                }
                fn after(&mut self, d: SimDuration, f: impl FnOnce(&mut Self) + 'static) -> $token {
                    self.schedule_in(d, f)
                }
                fn cancel(&mut self, t: $token) {
                    <$sim>::cancel(self, t)
                }
                fn every(
                    &mut self,
                    start: SimTime,
                    period: SimDuration,
                    f: impl FnMut(&mut Self) -> bool + 'static,
                ) {
                    $every(self, start, period, f)
                }
                fn run_until(&mut self, deadline: SimTime) -> SimTime {
                    <$sim>::run_until(self, deadline)
                }
                fn step(&mut self) -> bool {
                    <$sim>::step(self)
                }
                fn now(&self) -> SimTime {
                    <$sim>::now(self)
                }
                fn executed(&self) -> u64 {
                    self.events_executed()
                }
                fn draw(&mut self) -> u64 {
                    self.rng.gen()
                }
            }
        };
    }
    kernel!(Sim, EventToken, every);
    kernel!(oracle::Sim, oracle::EventToken, oracle::every);

    /// One program run: the rng that picks every operation (drawn in event
    /// order, so both kernels draw alike exactly while they agree), the
    /// `(tag, ns)` log of what ran, and the tokens handed out.
    struct World<K: Kernel> {
        rng: SmallRng,
        log: Vec<(u32, u64)>,
        tokens: Vec<(K::Token, u32)>,
        ran: Vec<bool>,
    }

    type Shared<K> = Rc<RefCell<World<K>>>;

    /// Events this deep schedule nothing more.
    const LEAF: u32 = 3;

    fn new_tag<K: Kernel>(w: &Shared<K>) -> u32 {
        let mut w = w.borrow_mut();
        w.ran.push(false);
        (w.ran.len() - 1) as u32
    }

    /// The event body: log, then (above the leaves) up to two more ops,
    /// as many as a draw from the kernel's own rng says.
    fn fire<K: Kernel>(k: &mut K, w: &Shared<K>, tag: u32, depth: u32) {
        {
            let mut w = w.borrow_mut();
            w.log.push((tag, k.now().as_nanos()));
            w.ran[tag as usize] = true;
        }
        let children = if depth < LEAF { k.draw() % 3 } else { 0 };
        for _ in 0..children {
            op(k, w, depth + 1);
        }
    }

    fn schedule<K: Kernel>(k: &mut K, w: &Shared<K>, at: SimTime, depth: u32) {
        let tag = new_tag(w);
        let w2 = Rc::clone(w);
        let tok = k.at(at, move |k| fire(k, &w2, tag, depth));
        w.borrow_mut().tokens.push((tok, tag));
    }

    /// One random scheduling or cancelling op. Times sit on a 250 ns grid
    /// so instants collide.
    fn op<K: Kernel>(k: &mut K, w: &Shared<K>, depth: u32) {
        let (kind, r) = {
            let mut w = w.borrow_mut();
            (w.rng.gen_range(0..9u32), w.rng.gen::<u64>())
        };
        let now = k.now().as_nanos();
        let ahead = |r: u64| SimTime(now + (r % 16) * 250);
        match kind {
            0 => schedule(k, w, SimTime(now.saturating_sub(r % 3_000)), depth),
            1 => schedule(k, w, SimTime(now), depth),
            2 | 3 => schedule(k, w, ahead(r), depth),
            4 => {
                let tag = new_tag(w);
                let w2 = Rc::clone(w);
                let tok = k.after(SimDuration((r % 8) * 250), move |k| {
                    fire(k, &w2, tag, depth)
                });
                w.borrow_mut().tokens.push((tok, tag));
            }
            // A burst of 1 000 at one instant (near the top only).
            5 if depth <= 1 => {
                for _ in 0..1_000 {
                    schedule(k, w, ahead(r), LEAF);
                }
            }
            // Cancel any token, pending or spent.
            5 | 6 => {
                let tok = {
                    let w = w.borrow();
                    (!w.tokens.is_empty()).then(|| w.tokens[r as usize % w.tokens.len()].0)
                };
                if let Some(t) = tok {
                    k.cancel(t);
                }
            }
            // Cancel a spent token, twice.
            7 => {
                let tok = {
                    let w = w.borrow();
                    let spent: Vec<K::Token> = (w.tokens.iter())
                        .filter(|(_, tag)| w.ran[*tag as usize])
                        .map(|&(t, _)| t)
                        .collect();
                    (!spent.is_empty()).then(|| spent[r as usize % spent.len()])
                };
                if let Some(t) = tok {
                    k.cancel(t);
                    k.cancel(t);
                }
            }
            // A timer that stops after 1..=4 firings; period 0 included.
            _ => {
                let tag = new_tag(w);
                let w2 = Rc::clone(w);
                let firings = 1 + (r >> 32) % 4;
                let mut left = firings;
                let start = SimTime((now + (r % 16) * 250).saturating_sub(500));
                let period = SimDuration(((r >> 8) % 4) * 500);
                k.every(start, period, move |k| {
                    fire(k, &w2, tag, depth);
                    left -= 1;
                    left > 0
                });
            }
        }
    }

    /// Everything a program run shows: the `(tag, ns)` log, and `(now,
    /// events executed, whether the op ran one)` after every `run_until`
    /// and `step` and at the end.
    type Outcome = (Vec<(u32, u64)>, Vec<(SimTime, u64, bool)>);

    fn run_program<K: Kernel>(seed: u64, ops: usize) -> Outcome {
        let mut k = K::new(seed);
        let w: Shared<K> = Rc::new(RefCell::new(World {
            rng: SmallRng::seed_from_u64(seed),
            log: Vec::new(),
            tokens: Vec::new(),
            ran: Vec::new(),
        }));
        let mut marks = Vec::new();
        for _ in 0..ops {
            let (kind, r) = {
                let mut w = w.borrow_mut();
                (w.rng.gen_range(0..10u32), w.rng.gen::<u64>())
            };
            match kind {
                0..=5 => op(&mut k, &w, 0),
                6 | 7 => {
                    let deadline = SimTime(k.now().as_nanos() + r % 6_000);
                    k.run_until(deadline);
                    marks.push((k.now(), k.executed(), true));
                }
                _ => {
                    let ran = k.step();
                    marks.push((k.now(), k.executed(), ran));
                }
            }
        }
        k.run_until(SimTime::INFINITY);
        marks.push((k.now(), k.executed(), true));
        let log = std::mem::take(&mut w.borrow_mut().log);
        (log, marks)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        #[test]
        fn kernel_matches_the_heap_and_tombstone_oracle(
            seed in proptest::prelude::any::<u64>(),
            ops in 1..120usize,
        ) {
            let (log, marks) = run_program::<Sim>(seed, ops);
            let (want_log, want_marks) = run_program::<oracle::Sim>(seed, ops);
            proptest::prop_assert_eq!(marks, want_marks);
            proptest::prop_assert_eq!(log, want_log);
        }
    }

    fn fnv(log: &[(u32, u64)]) -> u64 {
        let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
        for &(tag, ns) in log {
            for word in [u64::from(tag), ns] {
                digest ^= word;
                digest = digest.wrapping_mul(0x1000_0000_01b3);
            }
        }
        digest
    }

    #[test]
    fn execution_order_is_pinned() {
        let (log, marks) = run_program::<Sim>(PINNED_PROGRAM_SEED, PINNED_PROGRAM_OPS);
        assert_eq!(
            (log.clone(), marks),
            run_program::<oracle::Sim>(PINNED_PROGRAM_SEED, PINNED_PROGRAM_OPS)
        );
        assert!((9_000..11_000).contains(&log.len()), "{} events", log.len());
        assert_eq!(fnv(&log), PINNED_ORDER_DIGEST, "execution order drifted");
    }

    const PINNED_PROGRAM_SEED: u64 = 2008;
    const PINNED_PROGRAM_OPS: usize = 130;
    /// Recorded from the oracle kernel; the digest of the `(tag, ns)` log
    /// of the fixed program above. Re-pin only with a change of the
    /// program itself, never of the kernel.
    const PINNED_ORDER_DIGEST: u64 = 17_343_473_698_220_954_943;
}
