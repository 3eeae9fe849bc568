//! Discrete-event scheduler with a typed, allocation-free hot path.
//!
//! Two concerns are kept apart:
//!
//! * **What fires** is a typed value: the world implements [`EventWorld`]
//!   with an associated `Event` enum and a `dispatch` function. Scheduling
//!   an event moves a small value into a recycled buffer — no allocation in
//!   steady state.
//! * **When it fires** is a bucketed timeline: events sharing a virtual
//!   timestamp live in one bucket (a recycled `VecDeque` in a slab), and the
//!   heap orders *buckets*, not events. A wave of flow completions landing
//!   on the same instant — the common case under contention, where one
//!   allocation pass finishes many transfers at once — costs one heap pop
//!   for the whole wave instead of one per event.
//!
//! Ordering semantics are pinned by golden tests: events fire in
//! nondecreasing time, ties fire in schedule order (including same-instant
//! follow-ups scheduled from inside a handler, which fire after the ties
//! already queued), and scheduling in the past clamps to `now`.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::fxhash::FxHashMap;
use crate::time::{SimDuration, SimTime};

/// A world driven by typed events.
///
/// `dispatch` is the single decode point: the engine hands back the event
/// value and the world routes it to its handler.
pub trait EventWorld: Sized {
    type Event;
    fn dispatch(&mut self, sched: &mut Scheduler<Self>, ev: Self::Event);
}

/// All events sharing one virtual timestamp, in schedule order.
struct Bucket<E> {
    at: SimTime,
    items: VecDeque<E>,
}

/// The bucketed timeline.
struct Timeline<E> {
    /// Bucket slab; slots listed in `free` are empty with their `VecDeque`
    /// capacity retained for reuse.
    slots: Vec<Bucket<E>>,
    free: Vec<u32>,
    /// Min-order over live buckets. Exactly one entry per bucket, pushed at
    /// bucket creation and removed only by `take_next` — no stale entries
    /// to skip.
    heap: BinaryHeap<Reverse<(SimTime, u32)>>,
    /// Live bucket for each pending timestamp (including the one being
    /// drained, so same-instant follow-ups append in schedule order).
    by_time: FxHashMap<u64, u32>,
    /// Bucket currently being drained, already popped from the heap.
    current: Option<u32>,
}

/// The event queue and simulated clock.
///
/// Handed to every firing event so it can schedule more events.
pub struct Scheduler<W: EventWorld> {
    now: SimTime,
    timeline: Timeline<W::Event>,
    len: usize,
    /// Observability handle. The scheduler is the source of truth for
    /// virtual time, so it mirrors the clock into the recorder before each
    /// dispatch; world code then emits events without threading `now`.
    rec: grouter_obs::Recorder,
}

impl<W: EventWorld> Default for Scheduler<W> {
    fn default() -> Self {
        Scheduler {
            now: SimTime::ZERO,
            timeline: Timeline {
                slots: Vec::new(),
                free: Vec::new(),
                heap: BinaryHeap::new(),
                by_time: FxHashMap::default(),
                current: None,
            },
            len: 0,
            rec: grouter_obs::Recorder::disabled(),
        }
    }
}

impl<W: EventWorld> Scheduler<W> {
    pub fn new() -> Self {
        Self::default()
    }

    /// The current simulated instant.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    #[inline]
    pub fn pending(&self) -> usize {
        self.len
    }

    /// Schedule an event to fire at absolute time `at`, after every event
    /// already queued for that instant.
    ///
    /// Scheduling in the past is a logic error; the event is clamped to `now`
    /// so the clock never runs backwards.
    #[inline]
    pub fn schedule_at(&mut self, at: SimTime, ev: W::Event) {
        let at = at.max(self.now);
        let Timeline {
            slots,
            free,
            heap,
            by_time,
            ..
        } = &mut self.timeline;
        let slot = *by_time.entry(at.as_nanos()).or_insert_with(|| {
            let slot = match free.pop() {
                Some(s) => {
                    slots[s as usize].at = at;
                    s
                }
                None => {
                    slots.push(Bucket {
                        at,
                        items: VecDeque::new(),
                    });
                    (slots.len() - 1) as u32
                }
            };
            heap.push(Reverse((at, slot)));
            slot
        });
        slots[slot as usize].items.push_back(ev);
        self.len += 1;
    }

    /// Schedule an event to fire `delay` after the current instant.
    #[inline]
    pub fn schedule_in(&mut self, delay: SimDuration, ev: W::Event) {
        self.schedule_at(self.now.saturating_add(delay), ev);
    }

    /// Schedule an event to fire immediately (after already-queued events
    /// at the current instant).
    #[inline]
    pub fn schedule_now(&mut self, ev: W::Event) {
        self.schedule_at(self.now, ev);
    }

    /// Pop the next event in (time, schedule) order, advancing through the
    /// current bucket before consulting the heap. Frees a bucket the moment
    /// it empties, so `next_event_at` never sees a hollow bucket.
    fn take_next(&mut self) -> Option<(SimTime, W::Event)> {
        let Timeline {
            slots,
            free,
            heap,
            by_time,
            current,
        } = &mut self.timeline;
        loop {
            if let Some(cur) = *current {
                let b = &mut slots[cur as usize];
                let ev = b.items.pop_front();
                let at = b.at;
                if b.items.is_empty() {
                    by_time.remove(&at.as_nanos());
                    free.push(cur);
                    *current = None;
                }
                if let Some(ev) = ev {
                    self.len -= 1;
                    return Some((at, ev));
                }
            }
            let Reverse((_, slot)) = heap.pop()?;
            *current = Some(slot);
        }
    }

    /// Timestamp of the next pending event, if any. The sharded engine uses
    /// this to compute the global safe window without popping anything.
    pub fn next_event_at(&self) -> Option<SimTime> {
        let Timeline {
            slots,
            heap,
            current,
            ..
        } = &self.timeline;
        // The draining bucket (if any) always precedes the heap: its time is
        // `now` and heap buckets are strictly later.
        if let Some(cur) = *current {
            if !slots[cur as usize].items.is_empty() {
                return Some(slots[cur as usize].at);
            }
        }
        heap.peek().map(|&Reverse((at, _))| at)
    }

    /// Attach a recorder whose virtual clock follows this scheduler.
    pub fn set_recorder(&mut self, rec: grouter_obs::Recorder) {
        rec.set_now(self.now.as_nanos());
        self.rec = rec;
    }

    /// The attached recorder (disabled handle when none was attached).
    pub fn recorder(&self) -> &grouter_obs::Recorder {
        &self.rec
    }

    /// `engine.timeline` (`--features audit`): the bucketed timeline is
    /// coherent — the pending count equals the sum over live buckets, every
    /// time-index entry points at a bucket stamped with its key, free slots
    /// are empty, and heap entries reference live buckets exactly once.
    #[cfg(feature = "audit")]
    fn audit_timeline(&self) {
        let Timeline {
            slots,
            free,
            heap,
            by_time,
            current,
        } = &self.timeline;
        grouter_audit::record_hit("engine.timeline");
        let live: Vec<u32> = (0..slots.len() as u32)
            .filter(|s| !free.contains(s))
            .collect();
        let total: usize = live.iter().map(|&s| slots[s as usize].items.len()).sum();
        grouter_audit::check("engine.timeline", total == self.len, || {
            format!("pending count {} != bucket total {total}", self.len)
        });
        // Check in sorted key order: `check` aborts on the first violation,
        // so a corrupt index must name the same entry on every run.
        let mut index: Vec<(u64, u32)> = by_time.iter().map(|(&t, &s)| (t, s)).collect();
        index.sort_unstable();
        for (t, slot) in index {
            grouter_audit::check(
                "engine.timeline",
                slots
                    .get(slot as usize)
                    .is_some_and(|b| b.at.as_nanos() == t)
                    && !free.contains(&slot),
                || format!("time index {t} -> slot {slot} is stale"),
            );
        }
        for &s in free {
            grouter_audit::check(
                "engine.timeline",
                slots[s as usize].items.is_empty(),
                || format!("free slot {s} still holds events"),
            );
        }
        let mut heap_slots: Vec<u32> = heap.iter().map(|&Reverse((_, s))| s).collect();
        heap_slots.sort_unstable();
        let mut expect: Vec<u32> = live
            .iter()
            .copied()
            .filter(|s| Some(*s) != *current)
            .collect();
        expect.sort_unstable();
        grouter_audit::check("engine.timeline", heap_slots == expect, || {
            format!("heap slots {heap_slots:?} != live non-current buckets {expect:?}")
        });
    }
}

/// A world plus its scheduler; owns the run loop.
pub struct Simulation<W: EventWorld> {
    pub world: W,
    pub sched: Scheduler<W>,
}

impl<W: EventWorld> Simulation<W> {
    pub fn new(world: W) -> Self {
        Simulation {
            world,
            sched: Scheduler::new(),
        }
    }

    /// Fire the next event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        #[cfg(feature = "audit")]
        if grouter_audit::every("engine.timeline", 64) {
            self.sched.audit_timeline();
        }
        match self.sched.take_next() {
            Some((at, ev)) => {
                debug_assert!(at >= self.sched.now);
                self.sched.now = at;
                self.sched.rec.set_now(at.as_nanos());
                self.world.dispatch(&mut self.sched, ev);
                true
            }
            None => false,
        }
    }

    /// Run until the queue drains.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Run until the queue drains or the clock would pass `deadline`.
    ///
    /// Events scheduled exactly at `deadline` still fire. On return the clock
    /// reads `min(deadline, time of last fired event)`.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(next_at) = self.sched.next_event_at() {
            if next_at > deadline {
                break;
            }
            self.step();
        }
    }

    /// Run until the queue drains or the next event would fire at or after
    /// `bound` (strictly exclusive, unlike [`Simulation::run_until`]).
    ///
    /// This is the primitive the conservative sharded engine needs: a shard
    /// may execute exactly the events with `t < horizon` — the horizon
    /// itself is not safe, because a cross-shard message can land there.
    pub fn run_before(&mut self, bound: SimTime) {
        while let Some(next_at) = self.sched.next_event_at() {
            if next_at >= bound {
                break;
            }
            self.step();
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test world: events append `(fire_time_hint, label)` to a log.
    #[derive(Default)]
    struct World {
        log: Vec<(u64, &'static str)>,
    }

    enum Ev {
        Log(u64, &'static str),
        /// Log `(now, label)`, then schedule `child` at absolute time `at`.
        Spawn(&'static str, SimTime, (u64, &'static str)),
    }

    impl EventWorld for World {
        type Event = Ev;
        fn dispatch(&mut self, s: &mut Scheduler<Self>, ev: Ev) {
            match ev {
                Ev::Log(hint, label) => self.log.push((hint, label)),
                Ev::Spawn(label, at, (hint, child)) => {
                    self.log.push((s.now().as_nanos(), label));
                    s.schedule_at(at, Ev::Log(hint, child));
                }
            }
        }
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Simulation::new(World::default());
        sim.sched.schedule_at(SimTime(30), Ev::Log(30, "c"));
        sim.sched.schedule_at(SimTime(10), Ev::Log(10, "a"));
        sim.sched.schedule_at(SimTime(20), Ev::Log(20, "b"));
        sim.run();
        assert_eq!(sim.world.log, vec![(10, "a"), (20, "b"), (30, "c")]);
        assert_eq!(sim.now(), SimTime(30));
    }

    /// Regression: the timeline auditor walks `by_time` in sorted key
    /// order, so a corrupt index with several stale entries aborts naming
    /// the smallest key on every run. Before the sort, the entry named
    /// depended on hash-iteration order (found by grouter-analyze's
    /// determinism-taint pass).
    #[cfg(feature = "audit")]
    #[test]
    fn corrupt_time_index_aborts_on_the_smallest_key() {
        let mut sim = Simulation::new(World::default());
        sim.sched.schedule_at(SimTime(10), Ev::Log(10, "a"));
        let by_time = &mut sim.sched.timeline.by_time;
        by_time.insert(777, 99);
        by_time.insert(555, 98);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.sched.audit_timeline();
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("time index 555 -> slot 98"), "{msg}");
    }

    #[test]
    fn ties_fire_in_schedule_order() {
        let mut sim = Simulation::new(World::default());
        for name in ["first", "second", "third"] {
            sim.sched.schedule_at(SimTime(5), Ev::Log(5, name));
        }
        sim.run();
        let names: Vec<_> = sim.world.log.iter().map(|&(_, n)| n).collect();
        assert_eq!(names, vec!["first", "second", "third"]);
    }

    #[test]
    fn events_can_schedule_events() {
        let mut sim = Simulation::new(World::default());
        sim.sched
            .schedule_at(SimTime(10), Ev::Spawn("parent", SimTime(15), (15, "child")));
        sim.run();
        assert_eq!(sim.world.log, vec![(10, "parent"), (15, "child")]);
    }

    #[test]
    fn same_instant_follow_ups_fire_after_queued_ties() {
        // An event firing at t=5 schedules a follow-up at t=5; the follow-up
        // must run after the other already-queued t=5 events (global
        // schedule order).
        let mut sim = Simulation::new(World::default());
        sim.sched
            .schedule_at(SimTime(5), Ev::Spawn("a", SimTime(5), (5, "a-child")));
        sim.sched.schedule_at(SimTime(5), Ev::Log(5, "b"));
        sim.run();
        let names: Vec<_> = sim.world.log.iter().map(|&(_, n)| n).collect();
        assert_eq!(names, vec!["a", "b", "a-child"]);
    }

    #[test]
    fn past_scheduling_clamps_to_now() {
        let mut sim = Simulation::new(World::default());
        // The handler at t=100 deliberately schedules its child in the past.
        sim.sched.schedule_at(
            SimTime(100),
            Ev::Spawn("parent", SimTime(1), (100, "clamped")),
        );
        sim.run();
        assert_eq!(sim.world.log, vec![(100, "parent"), (100, "clamped")]);
        assert_eq!(sim.now(), SimTime(100));
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Simulation::new(World::default());
        sim.sched.schedule_at(SimTime(10), Ev::Log(10, "in"));
        sim.sched.schedule_at(SimTime(50), Ev::Log(50, "out"));
        sim.run_until(SimTime(20));
        assert_eq!(sim.world.log, vec![(10, "in")]);
        // the out-of-window event is still pending
        assert_eq!(sim.sched.pending(), 1);
        sim.run();
        assert_eq!(sim.world.log.len(), 2);
    }

    #[test]
    fn run_until_inclusive_of_deadline() {
        let mut sim = Simulation::new(World::default());
        sim.sched.schedule_at(SimTime(20), Ev::Log(20, "edge"));
        sim.run_until(SimTime(20));
        assert_eq!(sim.world.log, vec![(20, "edge")]);
    }

    #[test]
    fn bucket_slots_recycle() {
        // Interleaved schedule/drain cycles must reuse bucket slots rather
        // than growing the slab without bound.
        let mut sim = Simulation::new(World::default());
        for round in 0..100u64 {
            for k in 0..4u64 {
                sim.sched
                    .schedule_at(SimTime(round * 10 + k), Ev::Log(round, "e"));
            }
            sim.run();
        }
        assert_eq!(sim.world.log.len(), 400);
        let slots = sim.sched.timeline.slots.len();
        assert!(
            slots <= 8,
            "slab grew to {slots} slots for 4 concurrent timestamps"
        );
    }

    type BoxedEvent<T> = Box<dyn FnOnce(&mut T)>;

    /// Reference timeline for the ordering tests: one boxed closure per
    /// event in a binary heap keyed by `(time, schedule seq)` — the design
    /// the bucketed timeline replaced. Past scheduling clamps to `now`.
    pub(super) struct BoxedHeap<T> {
        now: u64,
        heap: BinaryHeap<Reverse<(u64, usize)>>,
        pending: Vec<Option<BoxedEvent<T>>>,
    }

    impl<T> BoxedHeap<T> {
        pub(super) fn new() -> Self {
            BoxedHeap {
                now: 0,
                heap: BinaryHeap::new(),
                pending: Vec::new(),
            }
        }

        pub(super) fn schedule_at(&mut self, at: u64, f: impl FnOnce(&mut T) + 'static) {
            let seq = self.pending.len();
            self.heap.push(Reverse((at.max(self.now), seq)));
            self.pending.push(Some(Box::new(f)));
        }

        pub(super) fn run(&mut self, world: &mut T) {
            while let Some(Reverse((at, seq))) = self.heap.pop() {
                self.now = at;
                let f = self.pending[seq].take().expect("event fired twice");
                f(world);
            }
        }
    }

    #[test]
    fn forced_boxed_mode_matches_bucketed_ordering() {
        let times = [30u64, 10, 10, 50, 10, 30, 0, 50];
        let labels = ["a", "b", "c", "d", "e", "f", "g", "h"];
        let mut sim = Simulation::new(World::default());
        for (&t, &label) in times.iter().zip(&labels) {
            sim.sched.schedule_at(SimTime(t), Ev::Log(t, label));
        }
        sim.run();
        let mut reference = BoxedHeap::new();
        let mut log: Vec<(u64, &'static str)> = Vec::new();
        for (&t, &label) in times.iter().zip(&labels) {
            reference.schedule_at(t, move |log: &mut Vec<_>| log.push((t, label)));
        }
        reference.run(&mut log);
        assert_eq!(sim.world.log, log);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    struct W {
        fired: Vec<u64>,
    }

    impl EventWorld for W {
        type Event = ();
        fn dispatch(&mut self, s: &mut Scheduler<Self>, _ev: ()) {
            self.fired.push(s.now().as_nanos());
        }
    }

    /// Oracle world: every event carries its schedule index, and handlers
    /// may schedule one follow-up `delay` after their own instant (0 = the
    /// same instant). `scheduled` lists `(time, index)` in schedule order.
    struct Ordered {
        scheduled: Vec<(u64, usize)>,
        fired: Vec<usize>,
    }

    impl Ordered {
        fn schedule(&mut self, s: &mut Scheduler<Self>, at: u64, follow_up: Option<u64>) {
            let idx = self.scheduled.len();
            self.scheduled.push((at, idx));
            s.schedule_at(SimTime(at), (idx, follow_up));
        }
    }

    impl EventWorld for Ordered {
        type Event = (usize, Option<u64>);
        fn dispatch(&mut self, s: &mut Scheduler<Self>, (idx, follow_up): (usize, Option<u64>)) {
            self.fired.push(idx);
            if let Some(delay) = follow_up {
                self.schedule(s, s.now().as_nanos() + delay, None);
            }
        }
    }

    proptest! {
        /// Whatever the schedule order, events fire in nondecreasing time
        /// and the clock never runs backwards.
        #[test]
        fn events_fire_in_nondecreasing_time(
            times in proptest::collection::vec(0u64..10_000, 1..64),
        ) {
            let mut sim = Simulation::new(W { fired: Vec::new() });
            for &t in &times {
                sim.sched.schedule_at(SimTime(t), ());
            }
            sim.run();
            let mut sorted = times.clone();
            sorted.sort_unstable();
            prop_assert_eq!(&sim.world.fired, &sorted);
        }

        /// Chained scheduling (each event schedules a follow-up) terminates
        /// with the clock at the final hop.
        #[test]
        fn chained_events_advance_monotonically(hops in 1u64..50, step in 1u64..1000) {
            struct Chain {
                remaining: u64,
                step: u64,
            }
            impl EventWorld for Chain {
                type Event = ();
                fn dispatch(&mut self, s: &mut Scheduler<Self>, _ev: ()) {
                    if self.remaining > 0 {
                        self.remaining -= 1;
                        let d = SimDuration(self.step);
                        s.schedule_in(d, ());
                    }
                }
            }
            let mut sim = Simulation::new(Chain { remaining: hops, step });
            sim.sched.schedule_at(SimTime::ZERO, ());
            sim.run();
            // The k-th firing happens at k·step; the last event (which sees
            // remaining == 0 and schedules nothing) fires at hops·step.
            prop_assert_eq!(sim.now().as_nanos(), hops * step);
        }

        /// For any tie-heavy schedule, including follow-ups a handler
        /// schedules at its own instant, events fire in the order of a
        /// stable sort of `(time, schedule index)`.
        #[test]
        fn firing_order_is_stable_sort_of_time_and_schedule_index(
            events in proptest::collection::vec((0u64..16, 0u64..4), 1..48),
        ) {
            let mut sim = Simulation::new(Ordered { scheduled: Vec::new(), fired: Vec::new() });
            for &(at, follow) in &events {
                // follow: 0 = no follow-up, k = follow-up after k - 1 ns.
                let follow_up = follow.checked_sub(1);
                sim.world.schedule(&mut sim.sched, at, follow_up);
            }
            sim.run();
            let mut oracle = sim.world.scheduled.clone();
            oracle.sort_by_key(|&(at, _)| at);
            let expect: Vec<usize> = oracle.iter().map(|&(_, idx)| idx).collect();
            prop_assert_eq!(sim.world.fired.len(), sim.world.scheduled.len());
            prop_assert_eq!(&sim.world.fired, &expect);
        }

        /// The bucketed timeline fires tie-heavy schedules in the same order
        /// as the boxed-closure heap reference.
        #[test]
        fn bucketed_equals_boxed_heap(times in proptest::collection::vec(0u64..16, 1..48)) {
            let mut sim = Simulation::new(Ordered { scheduled: Vec::new(), fired: Vec::new() });
            for &t in &times {
                sim.world.schedule(&mut sim.sched, t, None);
            }
            sim.run();
            let mut reference = super::tests::BoxedHeap::new();
            let mut fired: Vec<usize> = Vec::new();
            for (idx, &t) in times.iter().enumerate() {
                reference.schedule_at(t, move |fired: &mut Vec<usize>| fired.push(idx));
            }
            reference.run(&mut fired);
            prop_assert_eq!(&sim.world.fired, &fired);
        }
    }
}
