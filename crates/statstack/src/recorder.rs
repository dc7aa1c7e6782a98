//! Reuse-distance measurement over an address stream.

use crate::histogram::ReuseHistogram;
use pmt_trace::FastHashMap;

/// Measures reuse distances over a stream of cache-line addresses.
///
/// The reuse distance of an access is the number of intervening accesses
/// (to any line) since the previous touch of the same line; first touches
/// are cold. This matches the thesis' Fig 4.1 definition and is what
/// StatStack consumes.
#[derive(Clone, Debug, Default)]
pub struct ReuseRecorder {
    last_touch: FastHashMap<u64, u64>,
    position: u64,
    histogram: ReuseHistogram,
}

impl ReuseRecorder {
    /// An empty recorder.
    pub fn new() -> ReuseRecorder {
        ReuseRecorder {
            last_touch: FastHashMap::default(),
            position: 0,
            histogram: ReuseHistogram::new(),
        }
    }

    /// Record a touch of `line`, returning its reuse distance
    /// (`None` = cold).
    pub fn record(&mut self, line: u64) -> Option<u64> {
        let pos = self.position;
        self.position += 1;
        match self.last_touch.insert(line, pos) {
            Some(prev) => {
                let d = pos - prev - 1;
                self.histogram.record(d);
                Some(d)
            }
            None => {
                self.histogram.record_cold();
                None
            }
        }
    }

    /// Observe a touch without recording it in the histogram (used by
    /// sampled profiling: every access advances time and updates the
    /// last-touch table, but only sampled accesses contribute counts).
    pub fn observe(&mut self, line: u64) -> Option<u64> {
        let pos = self.position;
        self.position += 1;
        self.last_touch.insert(line, pos).map(|prev| pos - prev - 1)
    }

    /// Number of touches seen so far.
    pub fn touches(&self) -> u64 {
        self.position
    }

    /// Number of distinct lines seen.
    pub fn distinct_lines(&self) -> usize {
        self.last_touch.len()
    }

    /// The accumulated histogram.
    pub fn histogram(&self) -> &ReuseHistogram {
        &self.histogram
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig_4_1_distances() {
        // Thesis Fig 4.1: between the 1st and 2nd use of A there are 4
        // accesses; between the 2nd and 3rd, one access.
        let mut rec = ReuseRecorder::new();
        let stream = [0u64, 1, 2, 1, 2, 0, 2, 0]; // A B C B C A C A
        let dists: Vec<Option<u64>> = stream.iter().map(|&l| rec.record(l)).collect();
        assert_eq!(dists[0], None); // A cold
        assert_eq!(dists[5], Some(4)); // A after B C B C
        assert_eq!(dists[7], Some(1)); // A after C
        assert_eq!(rec.distinct_lines(), 3);
        assert_eq!(rec.histogram().cold(), 3);
    }

    #[test]
    fn immediate_reuse_has_distance_zero() {
        let mut rec = ReuseRecorder::new();
        rec.record(7);
        assert_eq!(rec.record(7), Some(0));
    }

    #[test]
    fn observe_updates_time_without_counting() {
        let mut rec = ReuseRecorder::new();
        rec.observe(1);
        rec.observe(2);
        assert_eq!(rec.record(1), Some(1));
        // Only the recorded access is in the histogram.
        assert_eq!(rec.histogram().total(), 1);
        assert_eq!(rec.touches(), 3);
    }
}
