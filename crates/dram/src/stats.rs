//! Aggregate DRAM statistics.

use std::fmt;

use crate::RowBufferOutcome;

/// Command and locality counters for a simulated module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DramStats {
    /// Activate commands issued.
    pub activates: u64,
    /// Precharge commands issued.
    pub precharges: u64,
    /// Read bursts issued.
    pub reads: u64,
    /// Write bursts issued.
    pub writes: u64,
    /// Refresh commands issued.
    pub refreshes: u64,
    /// Accesses that hit the open row.
    pub row_hits: u64,
    /// Accesses to an idle bank.
    pub row_misses: u64,
    /// Accesses that had to close another row first.
    pub row_conflicts: u64,
}

impl DramStats {
    /// A zeroed counter set.
    #[must_use]
    pub fn new() -> Self {
        DramStats::default()
    }

    /// Total column accesses (reads + writes).
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Row-buffer hit rate over all classified accesses, in [0, 1].
    ///
    /// Returns zero when nothing has been classified.
    #[must_use]
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses + self.row_conflicts;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// Records one row-buffer outcome.
    pub fn record_outcome(&mut self, outcome: RowBufferOutcome) {
        match outcome {
            RowBufferOutcome::Hit => self.row_hits += 1,
            RowBufferOutcome::Miss => self.row_misses += 1,
            RowBufferOutcome::Conflict => self.row_conflicts += 1,
        }
    }

    /// Merges another counter set into this one.
    pub fn merge(&mut self, other: &DramStats) {
        self.activates += other.activates;
        self.precharges += other.precharges;
        self.reads += other.reads;
        self.writes += other.writes;
        self.refreshes += other.refreshes;
        self.row_hits += other.row_hits;
        self.row_misses += other.row_misses;
        self.row_conflicts += other.row_conflicts;
    }
}

impl fmt::Display for DramStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ACT {} PRE {} RD {} WR {} REF {} | hit-rate {:.1}% ({} hit / {} miss / {} conflict)",
            self.activates,
            self.precharges,
            self.reads,
            self.writes,
            self.refreshes,
            self.row_hit_rate() * 100.0,
            self.row_hits,
            self.row_misses,
            self.row_conflicts
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_handles_empty() {
        assert_eq!(DramStats::new().row_hit_rate(), 0.0);
    }

    #[test]
    fn outcome_recording_and_hit_rate() {
        let mut s = DramStats::new();
        s.record_outcome(RowBufferOutcome::Hit);
        s.record_outcome(RowBufferOutcome::Hit);
        s.record_outcome(RowBufferOutcome::Miss);
        s.record_outcome(RowBufferOutcome::Conflict);
        assert!((s.row_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = DramStats {
            activates: 1,
            reads: 2,
            ..DramStats::new()
        };
        let b = DramStats {
            activates: 3,
            writes: 4,
            row_hits: 5,
            ..DramStats::new()
        };
        a.merge(&b);
        assert_eq!(a.activates, 4);
        assert_eq!(a.reads, 2);
        assert_eq!(a.writes, 4);
        assert_eq!(a.row_hits, 5);
        assert_eq!(a.accesses(), 6);
        assert!(!a.to_string().is_empty());
    }
}
