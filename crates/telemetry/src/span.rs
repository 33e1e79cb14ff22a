//! Phase spans: a finished phase's wall-clock and virtual time, entered
//! into a snapshot by whoever timed it.

use std::time::Duration;

use crate::snapshot::{SpanSnapshot, TelemetrySnapshot};

impl TelemetrySnapshot {
    /// Enters one finished run of phase `name`: `wall` on the host's
    /// clock and `virt_nanos` of SimNet virtual time (0 for host-side
    /// phases like population build or analysis, which consume no
    /// simulated time). A phase entered again merges as
    /// [`SpanSnapshot::absorb`] does.
    pub fn finish_phase(&mut self, name: &str, wall: Duration, virt_nanos: u64) {
        let span = SpanSnapshot {
            count: 1,
            wall_nanos: u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX),
            virt_nanos,
        };
        self.spans.entry(name.to_owned()).or_default().absorb(&span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finish_records_wall_only() {
        let mut snapshot = TelemetrySnapshot::default();
        snapshot.finish_phase("phase.analyze", Duration::from_nanos(7), 0);
        let span = snapshot.spans["phase.analyze"];
        assert_eq!((span.count, span.wall_nanos, span.virt_nanos), (1, 7, 0));
    }

    #[test]
    fn finish_with_virtual_records_both() {
        let mut snapshot = TelemetrySnapshot::default();
        snapshot.finish_phase("phase.probe", Duration::from_nanos(5), 42);
        let span = snapshot.spans["phase.probe"];
        assert_eq!((span.count, span.wall_nanos, span.virt_nanos), (1, 5, 42));
        // A second run of the same phase merges by max.
        snapshot.finish_phase("phase.probe", Duration::from_nanos(9), 40);
        let span = snapshot.spans["phase.probe"];
        assert_eq!((span.count, span.wall_nanos, span.virt_nanos), (2, 9, 42));
    }
}
