//! Phase spans: wall-clock plus virtual-time timers.

use std::time::Instant;

use crate::collector::Collector;

/// A running phase timer. Wall time runs from [`Collector::phase`] until
/// the span is finished (or dropped); the SimNet virtual-time component
/// is recorded as zero, as the phases timed (population build, analysis)
/// consume no simulated time.
///
/// Dropping a span records it, so early returns still produce a
/// measurement.
#[derive(Debug)]
pub struct PhaseSpan {
    collector: Collector,
    name: String,
    started: Instant,
    virt_nanos: u64,
}

impl PhaseSpan {
    pub(crate) fn start(collector: Collector, name: &str) -> Self {
        Self {
            collector,
            name: name.to_owned(),
            started: Instant::now(),
            virt_nanos: 0,
        }
    }

    /// Ends the span, recording only wall-clock time (virtual time zero).
    /// Use for host-side phases like population build or analysis that
    /// consume no simulated time.
    pub fn finish(self) {
        drop(self);
    }
}

impl Drop for PhaseSpan {
    fn drop(&mut self) {
        self.collector
            .record_span(&self.name, self.started.elapsed(), self.virt_nanos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl PhaseSpan {
        /// Ends the span, recording `virt_nanos` of SimNet virtual time
        /// alongside the measured wall-clock duration.
        fn finish_with_virtual(mut self, virt_nanos: u64) {
            self.virt_nanos = virt_nanos;
            drop(self);
        }
    }

    #[test]
    fn finish_records_wall_only() {
        let collector = Collector::new();
        collector.phase("phase.analyze").finish();
        let span = &collector.snapshot().spans["phase.analyze"];
        assert_eq!(span.count, 1);
        assert_eq!(span.virt_nanos, 0);
    }

    #[test]
    fn finish_with_virtual_records_both() {
        let collector = Collector::new();
        collector.phase("phase.probe").finish_with_virtual(42);
        let span = &collector.snapshot().spans["phase.probe"];
        assert_eq!(span.count, 1);
        assert_eq!(span.virt_nanos, 42);
    }
}
