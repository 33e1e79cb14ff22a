//! Send-rate control.

use std::fmt;
use std::time::Duration;

/// Error for a pacer configured with a zero packet rate.
///
/// Surfaced (rather than panicking) because the rate is an operator
/// input: the CLI accepts `--rate` and must be able to print a
/// diagnostic instead of aborting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZeroRateError;

impl fmt::Display for ZeroRateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "probe rate must be positive (got 0 pps)")
    }
}

impl std::error::Error for ZeroRateError {}

/// Converts a target packet rate into a grid of fixed-interval ticks.
///
/// The prober's timer fires every [`Pacer::interval`]; the target at
/// scan position `slot` leaves on tick [`Pacer::slot_tick`], so by the
/// end of tick `t` the first [`Pacer::slots_due`] positions have gone
/// out. Over any whole second exactly `rate_pps` slots fall due.
///
/// # Example
///
/// ```
/// use orscope_prober::Pacer;
///
/// let pacer = Pacer::new(100_000).unwrap(); // the 2018 scan rate
/// assert_eq!(pacer.interval(), std::time::Duration::from_millis(10));
/// assert_eq!(Pacer::slots_due(0, 100_000), 1000); // the first tick's sends
/// assert_eq!(Pacer::slot_tick(1000, 100_000), 1);
/// assert!(Pacer::new(0).is_err());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Pacer {
    interval: Duration,
}

impl Pacer {
    /// Upper bound on ticks per second; 100 keeps a tick's sends near 1%
    /// of the rate. Low rates tick once per packet instead, so a 5 pps
    /// scan does not burn 100 timer events per second.
    const MAX_TICKS_PER_SEC: u64 = 100;

    /// Creates a pacer for `rate_pps` packets per second.
    ///
    /// # Errors
    ///
    /// Returns [`ZeroRateError`] if `rate_pps` is zero.
    pub fn new(rate_pps: u64) -> Result<Self, ZeroRateError> {
        if rate_pps == 0 {
            return Err(ZeroRateError);
        }
        let ticks = Self::ticks_per_sec(rate_pps);
        Ok(Self {
            interval: Duration::from_nanos(1_000_000_000 / ticks),
        })
    }

    /// Timer firings per second for `rate_pps`.
    fn ticks_per_sec(rate_pps: u64) -> u64 {
        rate_pps.clamp(1, Self::MAX_TICKS_PER_SEC)
    }

    /// The tick (0-indexed timer firing) on which the packet with
    /// 0-indexed position `index` leaves the wire, for a scan paced at
    /// `rate_pps`.
    ///
    /// After `m` ticks exactly `floor(m * rate / ticks)` packets are due,
    /// so packet `index` goes out on tick
    /// `ceil((index+1) * ticks / rate) - 1`: the closed form of a pacer
    /// that carries the remainder of `rate / ticks` from tick to tick,
    /// which the tests replay. Sharded
    /// campaigns use this to place every probe on the *campaign-global*
    /// tick grid: each shard sends its targets on the same virtual-time
    /// instants a single-shard scan would, which keeps time-windowed
    /// fault plans shard-invariant.
    pub fn slot_tick(index: u64, rate_pps: u64) -> u64 {
        debug_assert!(rate_pps > 0, "slot_tick requires a positive rate");
        let ticks = Self::ticks_per_sec(rate_pps) as u128;
        let position = index as u128 + 1;
        (position * ticks).div_ceil(rate_pps as u128) as u64 - 1
    }

    /// How many send slots are due once tick `tick` (0-indexed) has
    /// fired, for a scan paced at `rate_pps`: the
    /// `floor(m * rate / ticks)` packets due after `m = tick + 1` ticks.
    /// `slot < slots_due(tick, rate)` holds exactly when
    /// [`Pacer::slot_tick`]`(slot, rate) <= tick`, so a send loop does
    /// this arithmetic once a tick instead of once a target. Saturates
    /// at `u64::MAX`.
    pub fn slots_due(tick: u64, rate_pps: u64) -> u64 {
        debug_assert!(rate_pps > 0, "slots_due requires a positive rate");
        const TICKS: u64 = Pacer::MAX_TICKS_PER_SEC;
        let Some(m) = tick.checked_add(1) else {
            return u64::MAX;
        };
        // A rate of at most TICKS ticks once a packet: m * rate / rate.
        if rate_pps <= TICKS {
            return m;
        }
        // m * rate / TICKS in 64 bits, dividing only by the constant:
        // with rate = whole * TICKS + part and m = lap * TICKS + rest it
        // is m * whole + lap * part + rest * part / TICKS, and the last
        // product is below TICKS².
        let (whole, part) = (rate_pps / TICKS, rate_pps % TICKS);
        let (lap, rest) = (m / TICKS, m % TICKS);
        m.checked_mul(whole)
            .and_then(|due| due.checked_add(lap * part))
            .map_or(u64::MAX, |due| due.saturating_add(rest * part / TICKS))
    }

    /// Interval between ticks.
    pub fn interval(&self) -> Duration {
        self.interval
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pacer the slot grid is the closed form of: each tick sends
    /// `rate / ticks` packets and carries the remainder, one packet more
    /// whenever the carry reaches a whole one.
    struct CarryPacer {
        whole: u64,
        num: u64,
        den: u64,
        carry: u64,
    }

    impl CarryPacer {
        fn new(rate_pps: u64) -> Self {
            let ticks = Pacer::ticks_per_sec(rate_pps);
            Self {
                whole: rate_pps / ticks,
                num: rate_pps % ticks,
                den: ticks,
                carry: 0,
            }
        }

        /// Number of packets to send this tick.
        fn next_batch(&mut self) -> u64 {
            self.carry += self.num;
            let mut batch = self.whole;
            if self.carry >= self.den {
                self.carry -= self.den;
                batch += 1;
            }
            batch
        }
    }

    #[test]
    fn exact_rate_over_one_second() {
        for rate in [1u64, 7, 99, 100, 101, 5_903, 100_000] {
            let pacer = Pacer::new(rate).unwrap();
            let ticks = Duration::from_secs(1).as_nanos() / pacer.interval().as_nanos();
            assert_eq!(
                Pacer::slots_due(ticks as u64 - 1, rate),
                rate,
                "rate {rate}"
            );
        }
    }

    #[test]
    fn interval_adapts_to_rate() {
        assert_eq!(
            Pacer::new(100_000).unwrap().interval(),
            Duration::from_millis(10)
        );
        assert_eq!(
            Pacer::new(50).unwrap().interval(),
            Duration::from_millis(20)
        );
        assert_eq!(Pacer::new(1).unwrap().interval(), Duration::from_secs(1));
    }

    #[test]
    fn low_rates_send_one_packet_per_tick() {
        for tick in 0..9 {
            assert_eq!(Pacer::slots_due(tick, 3), tick + 1, "one packet every tick");
            assert_eq!(Pacer::slot_tick(tick, 3), tick);
        }
    }

    #[test]
    fn zero_rate_is_an_error() {
        assert_eq!(Pacer::new(0), Err(ZeroRateError));
        assert!(!ZeroRateError.to_string().is_empty());
    }

    /// Replays the carry arithmetic and checks that the packet with
    /// position `i` is issued on exactly `slot_tick(i, rate)`, and that
    /// `slots_due` counts what the replay has issued by each tick.
    fn assert_slots_match_batches(rate: u64, packets: u64) {
        let mut pacer = CarryPacer::new(rate);
        let mut index = 0u64;
        let mut tick = 0u64;
        while index < packets {
            let batch = pacer.next_batch();
            for _ in 0..batch {
                if index >= packets {
                    break;
                }
                assert_eq!(
                    Pacer::slot_tick(index, rate),
                    tick,
                    "rate {rate}, packet {index}"
                );
                index += 1;
            }
            if index < packets {
                assert_eq!(
                    Pacer::slots_due(tick, rate),
                    index,
                    "rate {rate}, tick {tick}"
                );
            }
            tick += 1;
        }
    }

    #[test]
    fn slot_formula_matches_batch_replay() {
        for rate in [1u64, 2, 3, 7, 50, 99, 100, 101, 997, 5_903, 100_000] {
            assert_slots_match_batches(rate, rate.min(5_000) * 2);
        }
    }

    #[test]
    fn slot_ticks_are_monotonic_and_rate_exact() {
        // Rates spanning 1 pps to 10M pps: over any whole second the
        // number of slots assigned must equal the rate exactly.
        for rate in [1u64, 13, 100, 12_345, 1_000_000, 10_000_000] {
            let ticks = rate.clamp(1, 100);
            // Packets 0..rate must land on ticks 0..ticks, and packet
            // rate-1 (the last of second one) on the final tick.
            assert_eq!(Pacer::slot_tick(0, rate), 0);
            assert_eq!(Pacer::slot_tick(rate - 1, rate), ticks - 1);
            assert_eq!(Pacer::slot_tick(rate, rate), ticks, "second rolls over");
            let mut last = 0;
            for i in (0..rate).step_by((rate / 1000).max(1) as usize) {
                let slot = Pacer::slot_tick(i, rate);
                assert!(slot >= last, "slots must be monotonic");
                last = slot;
            }
        }
    }

    #[test]
    fn slot_tick_handles_huge_indices_without_overflow() {
        // 10M pps for a simulated year ≈ 3e14 packets; the u128 widening
        // must keep the closed form exact.
        let rate = 10_000_000u64;
        let index = 315_360_000_000_000u64;
        let slot = Pacer::slot_tick(index, rate);
        let expected = ((index as u128 + 1) * 100).div_ceil(rate as u128) as u64 - 1;
        assert_eq!(slot, expected);
    }

    /// `slots_due(tick)` is the boundary `slot_tick` draws: the last due
    /// slot leaves on or before `tick`, the first one not due after it
    /// (`slot_tick` is monotonic, so the two ends decide every slot).
    fn assert_due_matches_slot_tick(rate: u64, tick: u64) {
        let due = Pacer::slots_due(tick, rate);
        let ticks = u128::from(Pacer::ticks_per_sec(rate));
        let wide = (u128::from(tick) + 1) * u128::from(rate) / ticks;
        assert_eq!(
            due,
            u64::try_from(wide).unwrap_or(u64::MAX),
            "rate {rate}, tick {tick}"
        );
        if due > 0 {
            assert!(
                Pacer::slot_tick(due - 1, rate) <= tick,
                "rate {rate}, tick {tick}: slot {} is due too early",
                due - 1
            );
        }
        assert!(
            Pacer::slot_tick(due, rate) > tick,
            "rate {rate}, tick {tick}: slot {due} is held back"
        );
    }

    #[test]
    fn slots_due_draws_the_slot_tick_boundary() {
        for rate in [1u64, 2, 3, 7, 50, 99, 100, 101, 997, 5_903, 100_000] {
            for tick in 0..300 {
                assert_due_matches_slot_tick(rate, tick);
            }
        }
        // SplitMix64 sample of 1 pps .. 10M pps, each at an early tick,
        // an arbitrary one and the last whose product fits 64 bits.
        let mut rng = orscope_check::Rng::new(0x510F_5D0E);
        for _ in 0..500 {
            let rate = rng.range(1..=10_000_000);
            let edge = u64::MAX / rate;
            for tick in [rng.range(0..1_000), rng.range(0..edge), edge - 1, edge] {
                assert_due_matches_slot_tick(rate, tick);
            }
        }
        for rate in [1, 100, 101, 10_000_000] {
            assert_eq!(Pacer::slots_due(u64::MAX, rate), u64::MAX, "saturates");
        }
        assert_due_matches_slot_tick(101, u64::MAX / 101 * 100 - 1);
    }

    /// The closed-form slot assignment agrees with the carry
    /// arithmetic for arbitrary rates (1 pps .. 10M pps).
    #[test]
    fn prop_slot_formula_matches_batches() {
        orscope_check::cases(256, |rng| {
            let rate = rng.range(1u64..10_000_000);
            assert_slots_match_batches(rate, rate.min(2_000));
        });
    }

    /// Over `seconds` whole seconds, exactly `rate * seconds`
    /// packets are scheduled (rate exactness).
    #[test]
    fn prop_rate_is_exact_over_whole_seconds() {
        orscope_check::cases(256, |rng| {
            let (rate, seconds) = (rng.range(1u64..10_000_000), rng.range(1u64..4));
            let ticks = rate.clamp(1, 100);
            let total = rate * seconds;
            // The last packet of the span lands on the last tick of the
            // span, and the next packet rolls into the next second.
            assert_eq!(Pacer::slot_tick(total - 1, rate), ticks * seconds - 1);
            assert_eq!(Pacer::slot_tick(total, rate), ticks * seconds);
        });
    }
}
