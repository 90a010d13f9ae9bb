//! The kernel [`super::Sim`] replaced, kept as the differential oracle:
//! one `BinaryHeap` of boxed closures ordered by `(at, seq)`, a
//! `HashSet` of cancelled sequence numbers checked on every pop, and
//! recurring timers that schedule a fresh closure each period. Below this
//! header the code is the replaced kernel's, unchanged.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::time::{SimDuration, SimTime};

/// Token identifying a scheduled event, used for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventToken(u64);

/// Event closures receive the simulator so they can read the clock, schedule
/// further events and draw randomness.
pub type EventFn = Box<dyn FnOnce(&mut Sim)>;

struct Scheduled {
    at: SimTime,
    seq: u64,
    f: EventFn,
}

// Order by (time, sequence); BinaryHeap is a max-heap so we wrap in Reverse
// at the call sites.
impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The simulation kernel.
pub struct Sim {
    now: SimTime,
    queue: BinaryHeap<Reverse<Scheduled>>,
    next_seq: u64,
    cancelled: HashSet<u64>,
    executed: u64,
    /// Deterministic randomness for the whole simulation.
    pub rng: SmallRng,
}

impl Sim {
    /// New simulator with the given RNG seed.
    pub fn new(seed: u64) -> Sim {
        Sim {
            now: SimTime::ZERO,
            queue: BinaryHeap::new(),
            next_seq: 0,
            cancelled: HashSet::new(),
            executed: 0,
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

    /// Number of events still pending (including cancelled tombstones).
    pub fn events_pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedule `f` to run at absolute time `at`. Events scheduled in the past
    /// run "now" (at the current clock value) but never move time backwards.
    pub fn schedule_at<F: FnOnce(&mut Sim) + 'static>(&mut self, at: SimTime, f: F) -> EventToken {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Reverse(Scheduled {
            at,
            seq,
            f: Box::new(f),
        }));
        EventToken(seq)
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
        self.cancelled.insert(token.0);
    }

    /// Run until the queue is exhausted. Returns the final virtual time.
    pub fn run(&mut self) -> SimTime {
        self.run_until(SimTime::INFINITY)
    }

    /// Run events with `at <= deadline`; the clock is left at the last event
    /// executed (or advanced to `deadline` if it is finite and the queue
    /// drained earlier than that).
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        while let Some(Reverse(head)) = self.queue.peek() {
            if head.at > deadline {
                break;
            }
            let Reverse(ev) = self.queue.pop().expect("peeked");
            if self.cancelled.remove(&ev.seq) {
                continue;
            }
            debug_assert!(ev.at >= self.now, "time must be monotone");
            self.now = ev.at;
            self.executed += 1;
            (ev.f)(self);
        }
        if deadline != SimTime::INFINITY && self.now < deadline {
            self.now = deadline;
        }
        self.now
    }

    /// Execute exactly one event if any is pending; returns whether one ran.
    pub fn step(&mut self) -> bool {
        loop {
            match self.queue.pop() {
                None => return false,
                Some(Reverse(ev)) => {
                    if self.cancelled.remove(&ev.seq) {
                        continue;
                    }
                    self.now = ev.at.max(self.now);
                    self.executed += 1;
                    (ev.f)(self);
                    return true;
                }
            }
        }
    }
}

/// Install a recurring event firing every `period`, starting at
/// `start` (absolute). The closure returns `true` to keep the timer alive and
/// `false` to stop. Recurring timers drive the heartbeat loops of reservoir
/// hosts and the DT transfer monitor in the simulated runtime.
pub fn every<F>(sim: &mut Sim, start: SimTime, period: SimDuration, f: F)
where
    F: FnMut(&mut Sim) -> bool + 'static,
{
    fn arm<F>(sim: &mut Sim, at: SimTime, period: SimDuration, mut f: F)
    where
        F: FnMut(&mut Sim) -> bool + 'static,
    {
        sim.schedule_at(at, move |sim| {
            if f(sim) {
                let next = sim.now() + period;
                arm(sim, next, period, f);
            }
        });
    }
    arm(sim, start, period, f);
}
