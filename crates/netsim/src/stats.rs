//! Simulation counters.

/// Aggregate counters for a simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Datagrams handed to the network by endpoints.
    pub sent: u64,
    /// Datagrams delivered to a registered endpoint.
    pub delivered: u64,
    /// Datagrams dropped by the loss model.
    pub lost: u64,
    /// Extra deliveries created by the duplication model.
    pub duplicated: u64,
    /// Datagrams addressed to an unregistered host ("no route"): counted
    /// when handed to the wire if the address has never been registered
    /// and no lazy registry covers it, on arrival if the registry that
    /// covers it built nobody there. One per copy when duplicated.
    pub unrouted: u64,
    /// Timer events fired.
    pub timers_fired: u64,
    /// Events the loop processed: timers and the datagrams that
    /// travelled — delivered, swallowed by a crash window on arrival, or
    /// found nobody built to take them. A datagram settled as unrouted
    /// when it was sent never becomes an event.
    pub events: u64,
    /// Sum of payload bytes delivered (for amplification measurements).
    pub bytes_delivered: u64,
    /// Impairments applied by the fault plan (drops, duplicates,
    /// delays, reorders, crash swallows).
    pub faults_injected: u64,
    /// Datagrams swallowed by a blackhole window.
    pub blackhole_drops: u64,
    /// Deliveries and timer fires dropped because the host was inside a
    /// crash window.
    pub crash_drops: u64,
}

impl NetStats {
    /// Folds another simulation's counters into this one. Sharded
    /// campaigns run one `SimNet` per shard and sum the counters when
    /// merging shard outcomes.
    ///
    /// The merge is order-insensitive, so shards may finish (and be
    /// absorbed) in any order:
    ///
    /// ```
    /// use orscope_netsim::NetStats;
    /// let a = NetStats { sent: 3, delivered: 2, ..NetStats::default() };
    /// let b = NetStats { sent: 10, lost: 1, ..NetStats::default() };
    /// let mut ab = a;
    /// ab.absorb(&b);
    /// let mut ba = b;
    /// ba.absorb(&a);
    /// assert_eq!(ab, ba);
    /// assert_eq!(ab.sent, 13);
    /// ```
    pub fn absorb(&mut self, other: &NetStats) {
        self.sent += other.sent;
        self.delivered += other.delivered;
        self.lost += other.lost;
        self.duplicated += other.duplicated;
        self.unrouted += other.unrouted;
        self.timers_fired += other.timers_fired;
        self.events += other.events;
        self.bytes_delivered += other.bytes_delivered;
        self.faults_injected += other.faults_injected;
        self.blackhole_drops += other.blackhole_drops;
        self.crash_drops += other.crash_drops;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl NetStats {
        /// Fraction of sent datagrams that were lost (0 if nothing was sent).
        fn loss_rate(&self) -> f64 {
            if self.sent == 0 {
                0.0
            } else {
                self.lost as f64 / self.sent as f64
            }
        }
    }

    #[test]
    fn loss_rate() {
        let mut s = NetStats::default();
        assert_eq!(s.loss_rate(), 0.0);
        s.sent = 100;
        s.lost = 25;
        assert!((s.loss_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn absorb_sums_every_counter() {
        let mut a = NetStats {
            sent: 1,
            delivered: 2,
            lost: 3,
            duplicated: 4,
            unrouted: 5,
            timers_fired: 6,
            events: 7,
            bytes_delivered: 8,
            faults_injected: 9,
            blackhole_drops: 10,
            crash_drops: 11,
        };
        let b = NetStats {
            sent: 10,
            delivered: 20,
            lost: 30,
            duplicated: 40,
            unrouted: 50,
            timers_fired: 60,
            events: 70,
            bytes_delivered: 80,
            faults_injected: 90,
            blackhole_drops: 100,
            crash_drops: 110,
        };
        a.absorb(&b);
        let want = NetStats {
            sent: 11,
            delivered: 22,
            lost: 33,
            duplicated: 44,
            unrouted: 55,
            timers_fired: 66,
            events: 77,
            bytes_delivered: 88,
            faults_injected: 99,
            blackhole_drops: 110,
            crash_drops: 121,
        };
        assert_eq!(a, want);
    }
}
