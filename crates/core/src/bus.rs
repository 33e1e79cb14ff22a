//! The record bus: bounded multi-subscriber fan-out of capture events.
//!
//! A shard's record pipeline has two delivery classes, and the bus is
//! the second:
//!
//! * **Lossless, inline** — the shard's recorder folds every record
//!   into its analysis synchronously on the shard's event-loop thread.
//!   That state becomes the paper tables and must see every record, so
//!   it is *not* routed through the bus.
//! * **Lossy, detached** — the recorder then publishes the record here.
//!   Tap subscribers ([`RecordBus::subscribe`]) each get a bounded
//!   queue drained on their own thread. The publisher only ever
//!   `try_send`s: when a consumer stalls and its queue fills, records
//!   are **dropped and counted** rather than blocking `SimNet`. A slow
//!   `orscope tap` client can therefore never slow a campaign down.
//!
//! The fast path is free when nobody is tapping: publishing checks a
//! relaxed atomic subscriber count and returns before cloning anything.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

// Re-exported so bus consumers (e.g. the observe surface) can construct
// and match records without a direct dependency on the capture crates.
pub use orscope_authns::capture::{CapturedPacket, Direction};
pub use orscope_prober::R2Capture;
use orscope_resolver::profile::ProfileClass;

use crate::sync::lock;

/// Default bounded-queue capacity for a tap subscriber. Large enough to
/// ride out consumer-side scheduling hiccups, small enough that a
/// stalled consumer caps the bus's memory at a few hundred KiB per
/// lane.
pub const DEFAULT_TAP_CAPACITY: usize = 1024;

/// What a capture point recorded, before any analysis-side filtering.
// The R2 variant is much larger than the auth one (the capture carries
// its qname inline). Boxing it would trade a move for a heap
// allocation per published record per lane on a lossy side channel —
// the move is the cheaper side of that trade.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Captured {
    /// An R2 response captured by the prober (already joined to its
    /// probe by qname).
    R2(R2Capture),
    /// A packet logged at the authoritative server (inbound Q2 or
    /// outbound R1).
    Auth(CapturedPacket),
}

/// One record as published on the bus.
#[derive(Debug, Clone)]
pub struct Record {
    /// What was captured.
    pub captured: Captured,
    /// The generated class of the flow's resolver side (the R2's target,
    /// the authoritative packet's peer), as the round that captured it
    /// generated that host. The publishing shard resolves it against its
    /// own round, so a `class=` predicate judges every record by the
    /// round it came from however many rounds share the bus. `None` for
    /// an address the round does not probe, or a publisher with no round
    /// to ask.
    pub class: Option<ProfileClass>,
}

/// A point-in-time view of one subscriber lane, for `/metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TapLaneStats {
    /// Stable lane id (monotonic per bus).
    pub id: u64,
    /// Records currently queued and not yet drained.
    pub depth: u64,
    /// Records dropped on this lane because its queue was full.
    pub dropped: u64,
}

/// Aggregate bus counters, for `/metrics` and end-of-stream summaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BusStats {
    /// Currently attached subscribers.
    pub subscribers: u64,
    /// Subscribers ever attached over the bus's lifetime.
    pub attached_total: u64,
    /// Records offered to the fan-out (with at least one subscriber).
    pub published: u64,
    /// Records dropped across all lanes because a queue was full.
    pub dropped: u64,
}

struct TapLane {
    id: u64,
    sender: SyncSender<Record>,
    depth: Arc<AtomicU64>,
    dropped: Arc<AtomicU64>,
}

/// The multi-subscriber fan-out bus. Cheap to share (`Arc`), safe to
/// publish to from any number of shard threads concurrently.
pub struct RecordBus {
    lanes: Mutex<Vec<TapLane>>,
    /// Lock-free subscriber count so the no-tap publish path is a
    /// single relaxed load.
    tap_count: AtomicUsize,
    next_id: AtomicU64,
    attached_total: AtomicU64,
    published: AtomicU64,
    dropped: AtomicU64,
}

impl std::fmt::Debug for RecordBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("RecordBus")
            .field("subscribers", &stats.subscribers)
            .field("published", &stats.published)
            .field("dropped", &stats.dropped)
            .finish()
    }
}

impl Default for RecordBus {
    fn default() -> Self {
        Self::new()
    }
}

impl RecordBus {
    /// Creates a bus with no subscribers.
    pub fn new() -> Self {
        Self {
            lanes: Mutex::new(Vec::new()),
            tap_count: AtomicUsize::new(0),
            next_id: AtomicU64::new(0),
            attached_total: AtomicU64::new(0),
            published: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Attaches a new subscriber with a bounded queue of `capacity`
    /// records. The subscriber detaches by dropping the returned
    /// receiver; the publisher notices lazily on its next publish.
    pub fn subscribe(&self, capacity: usize) -> TapReceiver {
        let capacity = capacity.max(1);
        let (sender, receiver) = sync_channel(capacity);
        let depth = Arc::new(AtomicU64::new(0));
        let dropped = Arc::new(AtomicU64::new(0));
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.attached_total.fetch_add(1, Ordering::Relaxed);
        let mut lanes = lock(&self.lanes);
        lanes.push(TapLane {
            id,
            sender,
            depth: depth.clone(),
            dropped: dropped.clone(),
        });
        self.tap_count.store(lanes.len(), Ordering::Relaxed);
        drop(lanes);
        TapReceiver {
            id,
            receiver,
            depth,
            dropped,
        }
    }

    /// Offers one record to every lane. `record` runs only when someone
    /// is subscribed, so an untapped bus costs one relaxed load and
    /// builds nothing: neither the copy nor its class lookup.
    pub(crate) fn offer(&self, record: impl FnOnce() -> Record) {
        if self.tap_count.load(Ordering::Relaxed) == 0 {
            return;
        }
        self.publish(record());
    }

    /// Publishes one captured R2 with no class attached, for a publisher
    /// that has no round to look it up in. Free when nobody is
    /// subscribed.
    pub fn publish_r2(&self, capture: &R2Capture) {
        self.offer(|| Record {
            captured: Captured::R2(capture.clone()),
            class: None,
        });
    }

    /// Fans `record` out to every lane. Never blocks: a full lane
    /// counts a drop, a disconnected lane is removed.
    fn publish(&self, record: Record) {
        let mut lanes = lock(&self.lanes);
        if lanes.is_empty() {
            // Raced with the last unsubscribe; nothing to do.
            self.tap_count.store(0, Ordering::Relaxed);
            return;
        }
        self.published.fetch_add(1, Ordering::Relaxed);
        lanes.retain(|lane| match lane.sender.try_send(record.clone()) {
            Ok(()) => {
                lane.depth.fetch_add(1, Ordering::Relaxed);
                true
            }
            Err(TrySendError::Full(_)) => {
                lane.dropped.fetch_add(1, Ordering::Relaxed);
                self.dropped.fetch_add(1, Ordering::Relaxed);
                true
            }
            Err(TrySendError::Disconnected(_)) => false,
        });
        self.tap_count.store(lanes.len(), Ordering::Relaxed);
    }

    /// Aggregate counters.
    pub fn stats(&self) -> BusStats {
        BusStats {
            subscribers: self.tap_count.load(Ordering::Relaxed) as u64,
            attached_total: self.attached_total.load(Ordering::Relaxed),
            published: self.published.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
        }
    }

    /// Per-lane stats for currently attached subscribers.
    pub fn lane_stats(&self) -> Vec<TapLaneStats> {
        lock(&self.lanes)
            .iter()
            .map(|lane| TapLaneStats {
                id: lane.id,
                depth: lane.depth.load(Ordering::Relaxed),
                dropped: lane.dropped.load(Ordering::Relaxed),
            })
            .collect()
    }
}

/// The consumer end of one subscriber lane.
///
/// Dropping it detaches the subscriber; the publisher removes the lane
/// on its next publish.
pub struct TapReceiver {
    id: u64,
    receiver: Receiver<Record>,
    depth: Arc<AtomicU64>,
    dropped: Arc<AtomicU64>,
}

impl std::fmt::Debug for TapReceiver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TapReceiver")
            .field("id", &self.id)
            .field("depth", &self.depth.load(Ordering::Relaxed))
            .field("dropped", &self.dropped.load(Ordering::Relaxed))
            .finish()
    }
}

impl TapReceiver {
    /// Stable lane id (matches [`TapLaneStats::id`]).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Waits up to `timeout` for the next record. `None` on timeout.
    pub(crate) fn recv_timeout(&self, timeout: Duration) -> Option<Record> {
        match self.receiver.recv_timeout(timeout) {
            Ok(record) => {
                self.depth.fetch_sub(1, Ordering::Relaxed);
                Some(record)
            }
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => None,
        }
    }

    /// Pops the next record without waiting.
    pub fn try_recv(&self) -> Option<Record> {
        self.receiver.try_recv().ok().inspect(|_| {
            self.depth.fetch_sub(1, Ordering::Relaxed);
        })
    }

    /// Records the publisher dropped on this lane because the queue was
    /// full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use std::net::Ipv4Addr;

    use super::*;
    use orscope_netsim::SimTime;

    fn r2(target: Ipv4Addr) -> R2Capture {
        R2Capture {
            target,
            label: None,
            qname: "x.example".parse().unwrap(),
            at: SimTime::ZERO,
            sent_at: SimTime::ZERO,
            payload: b"x".to_vec().into(),
        }
    }

    #[test]
    fn publish_without_subscribers_is_a_noop() {
        let bus = RecordBus::new();
        bus.publish_r2(&r2(Ipv4Addr::new(1, 1, 1, 1)));
        let stats = bus.stats();
        assert_eq!(stats.published, 0);
        assert_eq!(stats.dropped, 0);
    }

    #[test]
    fn all_subscribers_see_every_record() {
        let bus = RecordBus::new();
        let a = bus.subscribe(8);
        let b = bus.subscribe(8);
        for i in 0..3 {
            bus.publish_r2(&r2(Ipv4Addr::new(1, 1, 1, i)));
        }
        for receiver in [&a, &b] {
            for _ in 0..3 {
                assert!(receiver.try_recv().is_some());
            }
            assert!(receiver.try_recv().is_none());
        }
        assert_eq!(bus.stats().published, 3);
    }

    #[test]
    fn full_lane_drops_and_counts_without_blocking() {
        let bus = RecordBus::new();
        let stalled = bus.subscribe(2);
        for i in 0..10 {
            bus.publish_r2(&r2(Ipv4Addr::new(1, 1, 1, i)));
        }
        assert_eq!(stalled.dropped(), 8, "capacity 2 of 10 published");
        assert_eq!(bus.stats().dropped, 8);
        assert_eq!(bus.lane_stats()[0].depth, 2);
        // The stalled lane still holds the two oldest records.
        assert!(stalled.try_recv().is_some());
        assert!(stalled.try_recv().is_some());
        assert!(stalled.try_recv().is_none());
    }

    #[test]
    fn dropped_receiver_detaches_lane_on_next_publish() {
        let bus = RecordBus::new();
        let keep = bus.subscribe(8);
        let gone = bus.subscribe(8);
        drop(gone);
        bus.publish_r2(&r2(Ipv4Addr::new(9, 9, 9, 9)));
        assert_eq!(bus.stats().subscribers, 1);
        assert_eq!(bus.lane_stats().len(), 1);
        assert_eq!(bus.lane_stats()[0].id, keep.id());
    }
}
