//! Event scheduling: a hierarchical timing wheel.
//!
//! Every simulated packet pays one scheduler push and one pop, so the
//! queue dominates event-loop cost once campaigns reach millions of
//! in-flight datagrams. A global `BinaryHeap` makes both operations
//! O(log n) with poor locality; the timing wheel makes the common case —
//! events scheduled milliseconds ahead — O(1) amortized, at millisecond
//! tick granularity.
//!
//! # Determinism
//!
//! The wheel must reproduce the heap's `(at, seq)` total order exactly,
//! or seeded runs and the shard-invariance suite would diverge. Three
//! facts make the orderings bit-identical:
//!
//! 1. Slots partition time into disjoint, monotonically visited tick
//!    ranges, so events in different ticks pop in `at` order.
//! 2. All events sharing a tick are drained into a small `ready` heap
//!    ordered by `(at, seq)`, so intra-tick ties pop in submission order.
//! 3. New events are never scheduled in the past (`SimNet` clamps to
//!    `now`), so an event pushed mid-drain with `tick <= cursor` lands in
//!    the `ready` heap and still sorts correctly against its peers.
//!
//! The test module checks the wheel against the reference it replaced,
//! `BinaryHeap<Reverse<Event>>`, over arbitrary interleavings of push,
//! pop and peek.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::net::Ipv4Addr;

use crate::datagram::Datagram;
use crate::time::SimTime;

/// Dense index of a registered host in the simulator's slab table.
///
/// Resolved once when an event is enqueued, so delivery indexes straight
/// into the slab instead of rehashing the destination address.
pub(crate) type HostId = u32;

/// Sentinel: the address had no slot at enqueue time. A datagram is
/// only scheduled that way for an address the lazy registry covers (any
/// other is settled as unrouted when it is sent), a timer for any
/// address; the simulator re-resolves when the event fires.
pub(crate) const HOST_UNRESOLVED: HostId = u32::MAX;

/// What happens when an event fires.
#[derive(Debug)]
pub(crate) enum EventKind {
    /// Deliver a datagram to the host slab slot `host`.
    Deliver { dgram: Datagram, host: HostId },
    /// Fire timer `token` on the host slab slot `host`.
    Timer {
        addr: Ipv4Addr,
        host: HostId,
        token: u64,
    },
}

/// An event in the queue. Ordering: by time, then by sequence number, so
/// simultaneous events fire in submission order (deterministic).
#[derive(Debug)]
pub(crate) struct Event {
    pub(crate) at: SimTime,
    pub(crate) seq: u64,
    pub(crate) kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Wheel tick granularity: 1 ms of virtual time.
const TICK_NANOS: u64 = 1_000_000;

/// Inner wheel: 256 one-tick slots (tick bits `0..8`).
const L0_SLOTS: usize = 256;
/// Upper wheels: 64 slots each, covering tick bits `8..14`, `14..20`,
/// and `20..26`. Together the levels span 2^26 ticks ≈ 18.6 hours of
/// virtual time ahead of the cursor; anything further sits in
/// `overflow` until the cursor approaches.
const UPPER_SLOTS: usize = 64;
const UPPER_LEVELS: usize = 3;

/// A four-level hashed hierarchical timing wheel with an overflow list.
///
/// `cursor` is the last tick whose slot was drained. An event placed at
/// tick `t` lives in the finest level whose current block contains both
/// `t` and the cursor; cascading at block boundaries re-files events
/// downward until they reach the inner wheel and, finally, the `ready`
/// heap that hands them out in `(at, seq)` order.
pub(crate) struct TimingWheel {
    cursor: u64,
    level0: Vec<Vec<Event>>,
    upper: [Vec<Vec<Event>>; UPPER_LEVELS],
    overflow: Vec<Event>,
    ready: BinaryHeap<Reverse<Event>>,
    /// Events held in `level0` + `upper` + `overflow` (not `ready`).
    stored: usize,
    /// Per-level occupancy (`[level0, upper0, upper1, upper2]`), so empty
    /// stretches of virtual time are skipped without scanning slots.
    counts: [usize; 1 + UPPER_LEVELS],
}

impl std::fmt::Debug for TimingWheel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimingWheel")
            .field("cursor", &self.cursor)
            .field("stored", &self.stored)
            .field("ready", &self.ready.len())
            .field("overflow", &self.overflow.len())
            .finish()
    }
}

impl TimingWheel {
    pub(crate) fn new() -> Self {
        Self {
            cursor: 0,
            level0: (0..L0_SLOTS).map(|_| Vec::new()).collect(),
            upper: std::array::from_fn(|_| (0..UPPER_SLOTS).map(|_| Vec::new()).collect()),
            overflow: Vec::new(),
            ready: BinaryHeap::new(),
            stored: 0,
            counts: [0; 1 + UPPER_LEVELS],
        }
    }

    #[inline]
    fn tick_of(at: SimTime) -> u64 {
        at.as_nanos() / TICK_NANOS
    }

    pub(crate) fn push(&mut self, event: Event) {
        self.place(event);
    }

    pub(crate) fn pop(&mut self) -> Option<Event> {
        self.fill_ready();
        self.ready.pop().map(|Reverse(event)| event)
    }

    pub(crate) fn next_at(&mut self) -> Option<SimTime> {
        self.fill_ready();
        self.ready.peek().map(|Reverse(event)| event.at)
    }

    pub(crate) fn len(&self) -> usize {
        self.stored + self.ready.len()
    }

    /// Files an event into the finest structure that can hold it. Ticks
    /// at or behind the cursor go straight to the `ready` heap, which is
    /// where ordering against already-drained peers is decided.
    fn place(&mut self, event: Event) {
        let tick = Self::tick_of(event.at);
        if tick <= self.cursor {
            self.ready.push(Reverse(event));
            return;
        }
        self.stored += 1;
        if tick >> 8 == self.cursor >> 8 {
            self.counts[0] += 1;
            self.level0[(tick & 0xFF) as usize].push(event);
        } else if tick >> 14 == self.cursor >> 14 {
            self.counts[1] += 1;
            self.upper[0][((tick >> 8) & 0x3F) as usize].push(event);
        } else if tick >> 20 == self.cursor >> 20 {
            self.counts[2] += 1;
            self.upper[1][((tick >> 14) & 0x3F) as usize].push(event);
        } else if tick >> 26 == self.cursor >> 26 {
            self.counts[3] += 1;
            self.upper[2][((tick >> 20) & 0x3F) as usize].push(event);
        } else {
            self.overflow.push(event);
        }
    }

    /// Re-files one upper-level slot downward. The slot's buffer is
    /// dropped, not kept or handed to another slot: capacity that
    /// circulates leaves every upper slot holding the high-water mark of
    /// the busiest one long after it emptied.
    fn cascade_upper(&mut self, level: usize, slot: usize) {
        let events = std::mem::take(&mut self.upper[level][slot]);
        self.stored -= events.len();
        self.counts[1 + level] -= events.len();
        for event in events {
            self.place(event);
        }
    }

    /// Re-files every overflow event relative to the current cursor.
    fn refilter_overflow(&mut self) {
        let events = std::mem::take(&mut self.overflow);
        self.stored -= events.len();
        for event in events {
            self.place(event);
        }
    }

    /// Advances the cursor until `ready` holds the next event(s), or the
    /// wheel is empty.
    fn fill_ready(&mut self) {
        while self.ready.is_empty() && self.stored > 0 {
            if self.counts.iter().all(|&c| c == 0) {
                // Everything pending is in overflow: jump straight to the
                // earliest overflow block instead of crawling cascades.
                // Overflow ticks are always in a later top-level block
                // than the cursor, so this only ever moves forward.
                let min_tick = self
                    .overflow
                    .iter()
                    .map(|event| Self::tick_of(event.at))
                    .min()
                    .expect("stored > 0 with empty levels implies overflow");
                self.cursor = min_tick & !0xFF;
                self.refilter_overflow();
                continue;
            }
            if self.counts[0] > 0 {
                // Scan the rest of the current 256-tick block.
                let block_end = (self.cursor | 0xFF) + 1;
                let mut found = false;
                for tick in self.cursor..block_end {
                    let slot = (tick & 0xFF) as usize;
                    if !self.level0[slot].is_empty() {
                        self.cursor = tick;
                        let n = self.level0[slot].len();
                        self.stored -= n;
                        self.counts[0] -= n;
                        for event in self.level0[slot].drain(..) {
                            self.ready.push(Reverse(event));
                        }
                        found = true;
                        break;
                    }
                }
                if found {
                    continue;
                }
                self.cursor = block_end;
            } else {
                self.cursor = (self.cursor | 0xFF) + 1;
            }
            self.cascade();
        }
    }

    /// On entering a new 256-tick block, pulls events down from upper
    /// levels (and overflow, at the top-level boundary) so the inner
    /// wheel holds everything due in the new block. Higher levels drain
    /// first so their events can land in the slots lower levels then
    /// re-file from.
    fn cascade(&mut self) {
        debug_assert_eq!(self.cursor & 0xFF, 0, "cascade off block boundary");
        if self.cursor & 0x3FFF == 0 {
            if self.cursor & 0xF_FFFF == 0 {
                if self.cursor & 0x3FF_FFFF == 0 {
                    self.refilter_overflow();
                }
                self.cascade_upper(2, ((self.cursor >> 20) & 0x3F) as usize);
            }
            self.cascade_upper(1, ((self.cursor >> 14) & 0x3F) as usize);
        }
        self.cascade_upper(0, ((self.cursor >> 8) & 0x3F) as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn timer(at: SimTime, seq: u64) -> Event {
        Event {
            at,
            seq,
            kind: EventKind::Timer {
                addr: Ipv4Addr::UNSPECIFIED,
                host: HOST_UNRESOLVED,
                token: seq,
            },
        }
    }

    fn pop_all(wheel: &mut TimingWheel) -> Vec<(SimTime, u64)> {
        let mut out = Vec::new();
        while let Some(event) = wheel.pop() {
            out.push((event.at, event.seq));
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut wheel = TimingWheel::new();
        let times = [
            SimTime::from_nanos(5_000_000),
            SimTime::ZERO,
            SimTime::from_secs(2),
            SimTime::from_nanos(5_000_000),
            SimTime::from_nanos(5_200_000), // same ms tick as 5_000_000
        ];
        for (seq, at) in times.iter().enumerate() {
            wheel.push(timer(*at, seq as u64));
        }
        assert_eq!(wheel.len(), 5);
        let order = pop_all(&mut wheel);
        assert_eq!(
            order,
            vec![
                (SimTime::ZERO, 1),
                (SimTime::from_nanos(5_000_000), 0),
                (SimTime::from_nanos(5_000_000), 3),
                (SimTime::from_nanos(5_200_000), 4),
                (SimTime::from_secs(2), 2),
            ]
        );
        assert_eq!(wheel.len(), 0);
    }

    #[test]
    fn far_future_events_traverse_upper_levels() {
        let mut wheel = TimingWheel::new();
        // One event per level: ~1ms (level0), ~1s (upper0), ~20min
        // (upper2), ~2 days (overflow).
        let times = [
            Duration::from_millis(1),
            Duration::from_secs(1),
            Duration::from_secs(1200),
            Duration::from_secs(172_800),
        ];
        for (seq, d) in times.iter().enumerate() {
            wheel.push(timer(SimTime::ZERO + *d, seq as u64));
        }
        let order = pop_all(&mut wheel);
        assert_eq!(
            order.iter().map(|(_, seq)| *seq).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn sparse_overflow_jump_preserves_order() {
        let mut wheel = TimingWheel::new();
        // Both events far beyond every level horizon, in reverse order.
        wheel.push(timer(SimTime::from_secs(500_000), 0));
        wheel.push(timer(SimTime::from_secs(400_000), 1));
        let order = pop_all(&mut wheel);
        assert_eq!(
            order,
            vec![
                (SimTime::from_secs(400_000), 1),
                (SimTime::from_secs(500_000), 0),
            ]
        );
    }

    #[test]
    fn push_at_or_before_cursor_goes_to_ready() {
        let mut wheel = TimingWheel::new();
        wheel.push(timer(SimTime::from_secs(1), 0));
        assert_eq!(wheel.next_at(), Some(SimTime::from_secs(1)));
        // The cursor has advanced to the 1s tick; a new event in the
        // same tick must still pop in seq order after the first.
        wheel.push(timer(SimTime::from_secs(1), 1));
        // And an earlier-but-not-yet-popped tick would be a scheduling
        // bug in the caller; equal times are the supported case.
        let order = pop_all(&mut wheel);
        assert_eq!(
            order,
            vec![(SimTime::from_secs(1), 0), (SimTime::from_secs(1), 1)]
        );
    }

    #[test]
    fn drained_upper_slots_give_their_capacity_back() {
        let mut wheel = TimingWheel::new();
        // A burst through every upper level and the overflow list, and a
        // handful of stragglers that are still pending when it is gone.
        let mut seq = 0;
        for spread in [1u64, 20, 1_500, 200_000] {
            for i in 0..4_000u64 {
                wheel.push(timer(
                    SimTime::from_secs(spread) + Duration::from_micros(i),
                    seq,
                ));
                seq += 1;
            }
        }
        for i in 0..5u64 {
            wheel.push(timer(SimTime::from_secs(300_000 + i * 4_000), seq));
            seq += 1;
        }
        for _ in 0..16_000 {
            wheel.pop().expect("the burst is pending");
        }
        assert_eq!(wheel.len(), 5);
        // A vector filled by `push` holds at most twice its length (and
        // no fewer than four); an emptied slot holds nothing.
        let slots = wheel.upper.iter().flatten().chain([&wheel.overflow]);
        for slot in slots {
            let bound = if slot.is_empty() {
                0
            } else {
                (2 * slot.len()).max(4)
            };
            assert!(
                slot.capacity() <= bound,
                "a slot of {} events retains capacity for {}",
                slot.len(),
                slot.capacity()
            );
        }
    }

    /// Offsets ahead of the last popped time, in nanoseconds: the same
    /// instant, the same tick (ready heap), then one bound just past each
    /// wheel level's span (256 ticks, 2^14, 2^20, 2^26), then days ahead
    /// (overflow list).
    const OFFSET_BITS: [u32; 7] = [0, 20, 28, 34, 40, 46, 50];

    /// Reference: the wheel and `BinaryHeap<Reverse<Event>>` agree on
    /// every pop, every peek and every length under arbitrary
    /// interleavings of `push(at >= last popped)`, `pop` and
    /// `next_at` — the peek advances the cursor, so a later push can
    /// land behind it and must still sort ahead of the peeked event.
    #[test]
    fn wheel_matches_reference_heap() {
        orscope_check::cases(128, |rng| {
            let mut wheel = TimingWheel::new();
            let mut heap: BinaryHeap<Reverse<Event>> = BinaryHeap::new();
            let mut last_popped = SimTime::ZERO;
            let mut seq = 0u64;
            for _ in 0..rng.range(1..400) {
                match rng.range(0u8..8) {
                    0..=3 => {
                        let offset = rng.next_u64() % (1u64 << rng.choice(&OFFSET_BITS));
                        let at = last_popped + Duration::from_nanos(offset);
                        wheel.push(timer(at, seq));
                        heap.push(Reverse(timer(at, seq)));
                        seq += 1;
                    }
                    4..=5 => {
                        let got = wheel.pop().map(|event| (event.at, event.seq));
                        let want = heap.pop().map(|Reverse(event)| (event.at, event.seq));
                        assert_eq!(got, want);
                        if let Some((at, _)) = got {
                            last_popped = at;
                        }
                    }
                    _ => {
                        let want = heap.peek().map(|Reverse(event)| event.at);
                        assert_eq!(wheel.next_at(), want);
                    }
                }
                assert_eq!(wheel.len(), heap.len());
            }
            let mut rest = Vec::new();
            while let Some(Reverse(event)) = heap.pop() {
                rest.push((event.at, event.seq));
            }
            assert_eq!(pop_all(&mut wheel), rest);
        });
    }

    #[test]
    fn len_tracks_ready_and_stored() {
        let mut wheel = TimingWheel::new();
        for seq in 0..10 {
            wheel.push(timer(SimTime::from_secs(seq), seq));
        }
        assert_eq!(wheel.len(), 10);
        let _ = wheel.next_at(); // drains tick 0 into ready
        assert_eq!(wheel.len(), 10);
        let _ = wheel.pop();
        assert_eq!(wheel.len(), 9);
    }
}
