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
//!
//! # Memory
//!
//! The wheel's memory follows the events pending at once, not its 448
//! slots. Filed events live in one slab of nodes, each slot is the index
//! of its list's first node, and a drained node goes on a free list that
//! the next filing takes from, so the slab grows only while every node
//! it has is in use. An empty wheel owns no heap memory.

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

/// The end of a list: an empty slot, the last node of a slot, or an
/// exhausted free list.
const NIL: u32 = u32::MAX;

/// The slab size from which a wheel that files its last event away
/// gives its nodes back: a drained scan returns its high-water mark,
/// and a small slab is kept rather than churned.
const SLAB_KEPT: usize = 4_096;

/// A slab node: a filed event and the next node of its slot's list, or,
/// on the free list, no event and the next free node.
#[derive(Debug)]
struct Node {
    event: Option<Event>,
    next: u32,
}

/// A four-level hashed hierarchical timing wheel with an overflow list.
///
/// `cursor` is the last tick whose slot was drained. An event placed at
/// tick `t` lives in the finest level whose current block contains both
/// `t` and the cursor; cascading at block boundaries re-files events
/// downward until they reach the inner wheel and, finally, the `ready`
/// heap that hands them out in `(at, seq)` order.
///
/// Filed events live in one slab of nodes. A slot — each of the 256
/// inner and 3 × 64 upper ones, and the overflow list — is the 4-byte
/// index of its first node, and a node links to the next, so the slots
/// cost nothing while empty and the slab holds as many nodes as were
/// ever filed at once. A cascade relinks nodes into their new slots
/// without moving their events; an inner-slot drain moves the events
/// into `ready` and hands the nodes to the free list, which the next
/// filing takes from before the slab grows. When the last filed event
/// leaves, a slab of [`SLAB_KEPT`] nodes or more is freed. Order within
/// a slot is arbitrary: `ready` sorts.
pub(crate) struct TimingWheel {
    cursor: u64,
    level0: [u32; L0_SLOTS],
    upper: [[u32; UPPER_SLOTS]; UPPER_LEVELS],
    overflow: u32,
    nodes: Vec<Node>,
    /// The first node of the free list.
    free: u32,
    ready: BinaryHeap<Reverse<Event>>,
    /// Events held in `level0` + `upper` + `overflow` (not `ready`): the
    /// slab's nodes that are not free.
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
            .field("nodes", &self.nodes.len())
            .finish()
    }
}

impl TimingWheel {
    pub(crate) fn new() -> Self {
        Self {
            cursor: 0,
            level0: [NIL; L0_SLOTS],
            upper: [[NIL; UPPER_SLOTS]; UPPER_LEVELS],
            overflow: NIL,
            nodes: Vec::new(),
            free: NIL,
            ready: BinaryHeap::new(),
            stored: 0,
            counts: [0; 1 + UPPER_LEVELS],
        }
    }

    #[inline]
    fn tick_of(at: SimTime) -> u64 {
        at.as_nanos() / TICK_NANOS
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

    /// Moves an empty queue's cursor up to the tick of `at`, as pushing
    /// an event due then and popping it would have: what is pushed next
    /// is filed from there, not from a cursor left behind.
    pub(crate) fn catch_up(&mut self, at: SimTime) {
        if self.len() == 0 {
            self.cursor = self.cursor.max(Self::tick_of(at));
        }
    }

    /// Files an event into the finest structure that can hold it. Ticks
    /// at or behind the cursor go straight to the `ready` heap, which is
    /// where ordering against already-drained peers is decided.
    pub(crate) fn push(&mut self, event: Event) {
        let tick = Self::tick_of(event.at);
        if tick <= self.cursor {
            self.ready.push(Reverse(event));
            return;
        }
        let node = Node {
            event: Some(event),
            next: NIL,
        };
        let index = if self.free == NIL {
            let index = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&index| index != NIL)
                .expect("fewer than u32::MAX events are filed at once");
            self.nodes.push(node);
            index
        } else {
            let index = self.free;
            let slot = &mut self.nodes[index as usize];
            self.free = slot.next;
            *slot = node;
            index
        };
        self.link(index, tick);
    }

    /// Links node `index`, due at `tick` (after the cursor), at the head
    /// of the slot that holds that tick.
    fn link(&mut self, index: u32, tick: u64) {
        self.stored += 1;
        let head = if tick >> 8 == self.cursor >> 8 {
            self.counts[0] += 1;
            &mut self.level0[(tick & 0xFF) as usize]
        } else if tick >> 14 == self.cursor >> 14 {
            self.counts[1] += 1;
            &mut self.upper[0][((tick >> 8) & 0x3F) as usize]
        } else if tick >> 20 == self.cursor >> 20 {
            self.counts[2] += 1;
            &mut self.upper[1][((tick >> 14) & 0x3F) as usize]
        } else if tick >> 26 == self.cursor >> 26 {
            self.counts[3] += 1;
            &mut self.upper[2][((tick >> 20) & 0x3F) as usize]
        } else {
            &mut self.overflow
        };
        self.nodes[index as usize].next = *head;
        *head = index;
    }

    /// Takes node `index`'s event and puts the node on the free list.
    fn release(&mut self, index: u32) -> Event {
        let node = &mut self.nodes[index as usize];
        node.next = self.free;
        self.free = index;
        node.event.take().expect("a linked node holds an event")
    }

    /// The events of the list whose first node is `index`.
    fn list(&self, mut index: u32) -> impl Iterator<Item = &Event> {
        std::iter::from_fn(move || {
            if index == NIL {
                return None;
            }
            let node = &self.nodes[index as usize];
            index = node.next;
            node.event.as_ref()
        })
    }

    /// Re-files every node of the list at `head`, taken out of its slot,
    /// relative to the current cursor: relinked into a slot, or, due by
    /// now, moved to `ready` and freed. `level` is the one whose count
    /// the list is held in (`None` for overflow).
    fn refile(&mut self, head: u32, level: Option<usize>) {
        let mut index = head;
        while index != NIL {
            let node = &self.nodes[index as usize];
            let next = node.next;
            let tick = Self::tick_of(node.event.as_ref().expect("a linked node").at);
            self.stored -= 1;
            if let Some(level) = level {
                self.counts[level] -= 1;
            }
            if tick <= self.cursor {
                let event = self.release(index);
                self.ready.push(Reverse(event));
            } else {
                debug_assert_ne!(level, Some(0), "an inner slot is drained on its tick");
                self.link(index, tick);
            }
            index = next;
        }
        if self.stored == 0 && self.nodes.len() >= SLAB_KEPT {
            self.nodes = Vec::new();
            self.free = NIL;
        }
    }

    /// Re-files one upper-level slot downward.
    fn cascade_upper(&mut self, level: usize, slot: usize) {
        let head = std::mem::replace(&mut self.upper[level][slot], NIL);
        self.refile(head, Some(1 + level));
    }

    /// Re-files every overflow event relative to the current cursor.
    fn refilter_overflow(&mut self) {
        let head = std::mem::replace(&mut self.overflow, NIL);
        self.refile(head, None);
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
                    .list(self.overflow)
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
                let filled = (self.cursor..block_end)
                    .find(|&tick| self.level0[(tick & 0xFF) as usize] != NIL);
                if let Some(tick) = filled {
                    // An inner slot holds one tick: with the cursor on
                    // it, every event there moves to `ready`.
                    self.cursor = tick;
                    let head = std::mem::replace(&mut self.level0[(tick & 0xFF) as usize], NIL);
                    self.refile(head, Some(0));
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

    /// Walks every slot and the free list and checks that each slab
    /// node is on exactly one list: a filed node in the slot of the
    /// finest level that holds its tick relative to the cursor, on its
    /// level's count, and a free node empty.
    fn assert_well_linked(wheel: &TimingWheel) {
        let mut seen = vec![false; wheel.nodes.len()];
        let mut walk = |head: u32| {
            let mut nodes = Vec::new();
            let mut index = head;
            while index != NIL {
                assert!(
                    !std::mem::replace(&mut seen[index as usize], true),
                    "node {index} is on two lists"
                );
                nodes.push(&wheel.nodes[index as usize]);
                index = wheel.nodes[index as usize].next;
            }
            nodes
        };
        let cursor = wheel.cursor;
        // Where a tick after the cursor is filed: (level, slot), level 4
        // being the overflow list.
        let home = |tick: u64| {
            assert!(tick > cursor, "tick {tick} filed at cursor {cursor}");
            match (8..32)
                .step_by(6)
                .position(|bits| tick >> bits == cursor >> bits)
            {
                Some(0) => (0, (tick & 0xFF) as usize),
                Some(level) => (level, ((tick >> (2 + 6 * level)) & 0x3F) as usize),
                None => (4, 0),
            }
        };
        let mut filed = [0; 5];
        let slots = (wheel
            .level0
            .iter()
            .enumerate()
            .map(|(slot, &head)| (0, slot, head)))
        .chain(wheel.upper.iter().enumerate().flat_map(|(level, slots)| {
            slots
                .iter()
                .enumerate()
                .map(move |(slot, &head)| (1 + level, slot, head))
        }))
        .chain([(4, 0, wheel.overflow)]);
        for (level, slot, head) in slots {
            for node in walk(head) {
                let event = node.event.as_ref().expect("a filed node holds its event");
                assert_eq!(home(TimingWheel::tick_of(event.at)), (level, slot));
                filed[level] += 1;
            }
        }
        assert_eq!(filed[..4], wheel.counts);
        assert_eq!(filed.iter().sum::<usize>(), wheel.stored);
        let free = walk(wheel.free);
        assert!(
            free.iter().all(|node| node.event.is_none()),
            "a free node holds an event"
        );
        assert_eq!(free.len() + wheel.stored, wheel.nodes.len());
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
        assert_eq!(wheel.nodes.len(), 16_005);
        for _ in 0..16_000 {
            wheel.pop().expect("the burst is pending");
        }
        assert_eq!(wheel.len(), 5);
        assert_well_linked(&wheel);
        // Every drained node is back on the free list, and the next
        // burst is filed in them without growing the slab.
        for i in 0..16_000u64 {
            wheel.push(timer(
                SimTime::from_secs(290_000) + Duration::from_micros(i * 997),
                seq,
            ));
            seq += 1;
        }
        assert_eq!(wheel.nodes.len(), 16_005);
        assert_well_linked(&wheel);
        assert_eq!(pop_all(&mut wheel).len(), 16_005);
        assert_well_linked(&wheel);
        // The last filed event is gone: so is the slab, and the next
        // burst grows one of its own size.
        assert_eq!(wheel.nodes.capacity(), 0);
        for i in 0..6_000u64 {
            wheel.push(timer(
                SimTime::from_secs(400_000) + Duration::from_micros(i * 997),
                seq,
            ));
            seq += 1;
        }
        assert_eq!(wheel.nodes.len(), 6_000);
        assert_well_linked(&wheel);
        assert_eq!(pop_all(&mut wheel).len(), 6_000);
        assert_eq!(wheel.nodes.capacity(), 0);
    }

    #[test]
    fn the_slab_holds_no_more_nodes_than_were_ever_filed_at_once() {
        // Waves of timers through every inner slot, every upper level
        // and the overflow list, each wave popped halfway before the
        // next: the slab's capacity follows the most events filed at
        // once, not the events that passed through it.
        let mut wheel = TimingWheel::new();
        let mut high_water = 0;
        let mut seq = 0u64;
        let mut now = SimTime::ZERO;
        let spans = [1u64 << 8, 1 << 14, 1 << 20, 1 << 26, 1 << 28];
        let mut touched = [0usize; 1 + UPPER_LEVELS];
        let mut overflowed = false;
        let mut inner_slots = [false; L0_SLOTS];
        let mut rng = orscope_check::Rng::new(41);
        for wave in 0..40 {
            let span = spans[wave % spans.len()];
            for _ in 0..300 {
                let at = now + Duration::from_nanos(rng.next_u64() % (span * TICK_NANOS));
                wheel.push(timer(at, seq));
                seq += 1;
                high_water = high_water.max(wheel.stored);
            }
            for (level, count) in wheel.counts.iter().enumerate() {
                touched[level] += count;
            }
            overflowed |= wheel.overflow != NIL;
            assert_well_linked(&wheel);
            for _ in 0..wheel.len() / 2 {
                // Filed by a push or by a cascade, and seen before the
                // drain that empties it.
                for (hit, &head) in inner_slots.iter_mut().zip(&wheel.level0) {
                    *hit |= head != NIL;
                }
                now = wheel.pop().expect("half the wave is pending").at;
            }
            assert_well_linked(&wheel);
            assert!(
                wheel.nodes.capacity() <= high_water.next_power_of_two(),
                "{} nodes for {high_water} filed at once",
                wheel.nodes.capacity()
            );
        }
        assert!(touched.iter().all(|&count| count > 0) && overflowed);
        // Slot 0 holds a block's first tick, which is never after a
        // cursor inside that block: a cascade sends it to `ready`.
        assert_eq!(inner_slots, std::array::from_fn(|slot| slot > 0));
        pop_all(&mut wheel);
        assert_well_linked(&wheel);
        assert_eq!(wheel.stored, 0);
        assert!(wheel.nodes.capacity() <= high_water.next_power_of_two());
    }

    #[test]
    fn every_node_stays_linked_once_where_its_tick_belongs() {
        // The reference test's operations, with the slab's lists checked
        // after every one of them.
        orscope_check::cases(48, |rng| {
            let mut wheel = TimingWheel::new();
            let mut last_popped = SimTime::ZERO;
            let mut seq = 0u64;
            for _ in 0..rng.range(1..300) {
                let offset = rng.next_u64() % (1u64 << rng.choice(&OFFSET_BITS));
                let at = last_popped + Duration::from_nanos(offset);
                match rng.range(0u8..6) {
                    0..=3 => {
                        wheel.push(timer(at, seq));
                        seq += 1;
                    }
                    4 => {
                        let _ = wheel.next_at();
                    }
                    _ => {
                        if let Some(event) = wheel.pop() {
                            last_popped = event.at;
                        }
                    }
                }
                assert_well_linked(&wheel);
            }
        });
    }

    /// Offsets ahead of the last popped time, in nanoseconds: the same
    /// instant, the same tick (ready heap), then one bound just past each
    /// wheel level's span (256 ticks, 2^14, 2^20, 2^26), then days ahead
    /// (overflow list).
    const OFFSET_BITS: [u32; 7] = [0, 20, 28, 34, 40, 46, 50];

    /// Reference: the wheel and `BinaryHeap<Reverse<Event>>` agree on
    /// every pop and, after every step, on the length and the head's
    /// time under arbitrary interleavings of `push(at >= last popped)`,
    /// `pop` and `next_at` — the peek advances the cursor, so a later
    /// push can land behind it and must still sort ahead of the peeked
    /// event, and every queue passes through empty, so single events
    /// are pushed into an empty queue at every distance along the way —
    /// and of `catch_up`, a clock running ahead of an empty queue.
    #[test]
    fn wheel_matches_reference_heap() {
        let mut pushed_alone = 0;
        orscope_check::cases(128, |rng| {
            let mut wheel = TimingWheel::new();
            let mut heap: BinaryHeap<Reverse<Event>> = BinaryHeap::new();
            let mut last_popped = SimTime::ZERO;
            let mut seq = 0u64;
            // Peeking is itself a step (it moves the cursor): half the
            // cases peek after every step, the others when drawn, so the
            // states only an unpeeked queue reaches are compared too.
            let always_peek = rng.bool();
            for _ in 0..rng.range(1..400) {
                let offset = rng.next_u64() % (1u64 << rng.choice(&OFFSET_BITS));
                let at = last_popped + Duration::from_nanos(offset);
                match rng.range(0u8..7) {
                    0..=3 => {
                        pushed_alone += usize::from(heap.is_empty());
                        wheel.push(timer(at, seq));
                        heap.push(Reverse(timer(at, seq)));
                        seq += 1;
                    }
                    6 => {
                        wheel.catch_up(at);
                        if heap.is_empty() {
                            last_popped = at;
                        }
                    }
                    _ => {
                        let got = wheel.pop().map(|event| (event.at, event.seq));
                        let want = heap.pop().map(|Reverse(event)| (event.at, event.seq));
                        assert_eq!(got, want);
                        if let Some((at, _)) = got {
                            last_popped = at;
                        }
                    }
                }
                assert_eq!(wheel.len(), heap.len());
                if always_peek || rng.bool() {
                    let want = heap.peek().map(|Reverse(event)| event.at);
                    assert_eq!(wheel.next_at(), want);
                    assert_eq!(wheel.len(), heap.len());
                }
            }
            let mut rest = Vec::new();
            while let Some(Reverse(event)) = heap.pop() {
                rest.push((event.at, event.seq));
            }
            assert_eq!(pop_all(&mut wheel), rest);
        });
        assert!(
            pushed_alone >= 128,
            "{pushed_alone} pushes into an empty queue"
        );
    }

    /// Tick offsets that file an event at each level of a wheel whose
    /// cursor stands at zero: the inner wheel, the three upper levels
    /// and the overflow list.
    const LEVEL_TICKS: [u64; 5] = [1, 257, (1 << 14) + 1, (1 << 20) + 1, (1 << 26) + 1];

    fn at_tick(tick: u64) -> SimTime {
        SimTime::from_nanos(tick * TICK_NANOS)
    }

    #[test]
    fn a_lone_event_pops_with_the_cursor_on_its_tick_however_far_ahead() {
        for ticks in LEVEL_TICKS {
            let mut wheel = TimingWheel::new();
            wheel.push(timer(at_tick(ticks), 0));
            assert_eq!(wheel.len(), 1);
            assert_eq!(wheel.next_at(), Some(at_tick(ticks)));
            assert_eq!(pop_all(&mut wheel), vec![(at_tick(ticks), 0)]);
            assert_eq!(wheel.len(), 0);
            assert_eq!(wheel.cursor, ticks, "the pop brought the cursor along");
            // What is pushed next is filed from there: in the inner
            // wheel, not levels above a cursor left behind.
            wheel.push(timer(at_tick(ticks + 3), 1));
            wheel.push(timer(at_tick(ticks + 2), 2));
            assert_eq!(wheel.counts, [2, 0, 0, 0]);
            assert_eq!(
                pop_all(&mut wheel),
                vec![(at_tick(ticks + 2), 2), (at_tick(ticks + 3), 1)]
            );
        }
    }

    #[test]
    fn an_earlier_event_pushed_after_a_lone_one_pops_first() {
        for ticks in LEVEL_TICKS {
            let mut wheel = TimingWheel::new();
            // The clock is still at zero, so anything from there on may
            // follow the lone event in, on either side of it.
            wheel.push(timer(at_tick(ticks), 0));
            let earlier = SimTime::from_nanos(ticks * TICK_NANOS / 2);
            wheel.push(timer(earlier, 1));
            wheel.push(timer(at_tick(2 * ticks), 2));
            wheel.push(timer(SimTime::ZERO, 3));
            assert_eq!(wheel.len(), 4);
            assert_eq!(wheel.next_at(), Some(SimTime::ZERO));
            assert_eq!(
                pop_all(&mut wheel),
                vec![
                    (SimTime::ZERO, 3),
                    (earlier, 1),
                    (at_tick(ticks), 0),
                    (at_tick(2 * ticks), 2),
                ],
                "{ticks}"
            );
        }
    }

    #[test]
    fn a_far_first_event_does_not_send_the_rest_to_the_heap() {
        // A bulk load whose first timer happens to be the latest: the
        // others are filed in slots, as they would be behind any other.
        let mut wheel = TimingWheel::new();
        wheel.push(timer(SimTime::from_secs(3_600), 0));
        for seq in 1..=1_000 {
            wheel.push(timer(SimTime::from_secs(seq), seq));
        }
        assert_eq!((wheel.stored, wheel.ready.len()), (1_001, 0));
        let order = pop_all(&mut wheel);
        assert_eq!(order.len(), 1_001);
        assert!(order.windows(2).all(|pair| pair[0] < pair[1]));
        assert_eq!(order[1_000], (SimTime::from_secs(3_600), 0));
    }

    #[test]
    fn a_same_tick_pair_pops_by_seq_whichever_is_pushed_first() {
        for ticks in LEVEL_TICKS {
            let at = at_tick(ticks) + Duration::from_micros(500);
            for order in [[0, 1], [1, 0]] {
                let mut wheel = TimingWheel::new();
                for seq in order {
                    wheel.push(timer(at, seq));
                }
                assert_eq!(pop_all(&mut wheel), vec![(at, 0), (at, 1)]);
            }
            // Same tick, different instants: time decides before seq.
            let mut wheel = TimingWheel::new();
            wheel.push(timer(at, 0));
            wheel.push(timer(at_tick(ticks), 1));
            assert_eq!(pop_all(&mut wheel), vec![(at_tick(ticks), 1), (at, 0)]);
            // And a lone event's same-tick successor, pushed once the
            // cursor stands on that tick, still follows it.
            let mut wheel = TimingWheel::new();
            wheel.push(timer(at, 0));
            assert_eq!(wheel.pop().map(|event| event.seq), Some(0));
            wheel.push(timer(at, 2));
            wheel.push(timer(at, 1));
            assert_eq!(pop_all(&mut wheel), vec![(at, 1), (at, 2)]);
        }
    }

    #[test]
    fn a_timer_re_armed_ten_thousand_times_reuses_one_node() {
        // The paced prober's tick at ~34 pps and at the 1.7 pps of the
        // sparse gate run: popped, then re-armed one interval on.
        for interval in [Duration::from_millis(29), Duration::from_millis(600)] {
            let mut wheel = TimingWheel::new();
            let mut at = SimTime::ZERO;
            wheel.push(timer(at, 0));
            for seq in 1..=10_000u64 {
                let event = wheel.pop().expect("the timer is pending");
                assert_eq!((event.at, event.seq), (at, seq - 1));
                assert_eq!(wheel.len(), 0);
                at += interval;
                wheel.push(timer(at, seq));
                assert_eq!(wheel.len(), 1);
                assert_eq!(wheel.next_at(), Some(at));
            }
            assert_eq!(pop_all(&mut wheel), vec![(at, 10_000)]);
            assert_eq!(wheel.len(), 0);
            assert_eq!(wheel.cursor, TimingWheel::tick_of(at));
            assert_eq!(wheel.nodes.len(), 1, "{interval:?}");
            assert_well_linked(&wheel);
        }
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
