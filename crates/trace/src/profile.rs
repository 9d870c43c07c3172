//! The cycle-attribution [`Profile`]: where do simulated cycles go?
//!
//! Folds a [`TraceLog`] into a sorted per-track/per-phase table plus a
//! per-component rollup (the last path segment of each track — `ctrl`,
//! `dram`, `engine` — aggregated across sweep tasks). Rendered as text
//! for stderr and as byte-stable JSON; the bench harness's `--profile`
//! block adds `trace.profile.*` summary lines read from its fields.

use ia_telemetry::JsonValue;

use crate::log::TraceLog;

/// One attributed line of the profile table.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileRow {
    /// Track the cycles belong to (`"FR-FCFS/ctrl"`).
    pub track: String,
    /// Phase within the track (`"sched.issue_column"`).
    pub phase: &'static str,
    /// Simulated cycles attributed.
    pub cycles: u64,
    /// Fraction of all attributed cycles (0 when nothing attributed).
    pub share: f64,
}

/// A folded cycle-attribution profile. Construct with
/// [`Profile::from_log`]; every collection is deterministically sorted
/// (cycles descending, then track/phase ascending).
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Per-track/per-phase attribution, sorted hottest first.
    pub rows: Vec<ProfileRow>,
    /// Attributed cycles per component (last track path segment),
    /// aggregated across tracks and sorted hottest first.
    pub components: Vec<(String, u64)>,
    /// Total attributed cycles (the sum of every row).
    pub total_attributed: u64,
    /// Closed spans across every component.
    pub span_count: u64,
    /// Instant events across every component.
    pub instant_count: u64,
    /// Ring events ever recorded across every component.
    pub events_recorded: u64,
    /// Ring events lost to overwrite across every component.
    pub events_dropped: u64,
}

fn component_of(track: &str) -> &str {
    track.rsplit('/').next().unwrap_or(track)
}

impl Profile {
    /// Folds `log` into a profile.
    #[must_use]
    pub fn from_log(log: &TraceLog) -> Profile {
        let mut rows = Vec::new();
        let mut components: Vec<(String, u64)> = Vec::new();
        let mut span_count = 0;
        let mut instant_count = 0;
        let mut events_recorded = 0;
        let mut events_dropped = 0;
        for c in &log.components {
            for &(phase, cycles) in &c.marks {
                rows.push(ProfileRow {
                    track: c.track.clone(),
                    phase,
                    cycles,
                    share: 0.0,
                });
            }
            let comp = component_of(&c.track);
            let attributed = c.attributed();
            match components.iter_mut().find(|(name, _)| name == comp) {
                Some((_, total)) => *total += attributed,
                None => components.push((comp.to_owned(), attributed)),
            }
            span_count += c.spans.iter().map(|s| s.count).sum::<u64>();
            instant_count += c.instants.iter().map(|i| i.count).sum::<u64>();
            events_recorded += c.recorded;
            events_dropped += c.dropped;
        }
        let total_attributed: u64 = rows.iter().map(|r| r.cycles).sum();
        if total_attributed > 0 {
            for r in &mut rows {
                r.share = r.cycles as f64 / total_attributed as f64;
            }
        }
        rows.sort_by(|a, b| {
            b.cycles
                .cmp(&a.cycles)
                .then_with(|| a.track.cmp(&b.track))
                .then_with(|| a.phase.cmp(b.phase))
        });
        components.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        Profile {
            rows,
            components,
            total_attributed,
            span_count,
            instant_count,
            events_recorded,
            events_dropped,
        }
    }

    /// The `n` hottest components as `(name, attributed_cycles)`.
    #[must_use]
    pub fn top_components(&self, n: usize) -> &[(String, u64)] {
        &self.components[..n.min(self.components.len())]
    }

    /// Renders the profile as a sorted text table (for stderr).
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "[profile] attributed {} simulated cycles across {} tracks \
             ({} spans, {} instants, {} ring events, {} dropped)\n",
            self.total_attributed,
            self.components.len(),
            self.span_count,
            self.instant_count,
            self.events_recorded,
            self.events_dropped,
        );
        out.push_str(&format!(
            "{:>14}  {:>6}  {:<28} {}\n",
            "cycles", "share", "track", "phase"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:>14}  {:>5.1}%  {:<28} {}\n",
                r.cycles,
                r.share * 100.0,
                r.track,
                r.phase
            ));
        }
        let top: Vec<String> = self
            .top_components(3)
            .iter()
            .map(|(name, cycles)| {
                let share = if self.total_attributed > 0 {
                    *cycles as f64 / self.total_attributed as f64 * 100.0
                } else {
                    0.0
                };
                format!("{name} {share:.1}%")
            })
            .collect();
        out.push_str(&format!("top components: {}\n", top.join(", ")));
        out
    }

    /// Renders the profile as a byte-stable JSON value.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let rows = self
            .rows
            .iter()
            .map(|r| {
                JsonValue::obj(vec![
                    ("track", JsonValue::Str(r.track.clone())),
                    ("phase", JsonValue::Str(r.phase.to_owned())),
                    ("cycles", JsonValue::Num(r.cycles as f64)),
                    ("share", JsonValue::Num(r.share)),
                ])
            })
            .collect();
        let components = self
            .components
            .iter()
            .map(|(name, cycles)| {
                JsonValue::obj(vec![
                    ("component", JsonValue::Str(name.clone())),
                    ("cycles", JsonValue::Num(*cycles as f64)),
                ])
            })
            .collect();
        JsonValue::obj(vec![
            (
                "total_attributed",
                JsonValue::Num(self.total_attributed as f64),
            ),
            ("rows", JsonValue::Arr(rows)),
            ("components", JsonValue::Arr(components)),
            ("spans", JsonValue::Num(self.span_count as f64)),
            ("instants", JsonValue::Num(self.instant_count as f64)),
            (
                "events_recorded",
                JsonValue::Num(self.events_recorded as f64),
            ),
            ("events_dropped", JsonValue::Num(self.events_dropped as f64)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TraceLog, Tracer};

    fn sample_log() -> TraceLog {
        let mut log = TraceLog::new();
        let mut ctrl = Tracer::new("ctrl", 16);
        ctrl.mark_n("sched.issue", 0, 60);
        ctrl.mark_n("idle.empty", 60, 20);
        ctrl.instant("refresh", 60);
        let mut dram = Tracer::new("dram", 16);
        dram.mark_n("bank.act", 0, 20);
        let mut log_a = TraceLog::new();
        log_a.push(ctrl.take());
        log_a.push(dram.take());
        log.merge(log_a.prefixed("FR-FCFS"));
        let mut ctrl2 = Tracer::new("ctrl", 16);
        ctrl2.mark_n("sched.issue", 0, 40);
        let mut log_b = TraceLog::new();
        log_b.push(ctrl2.take());
        log.merge(log_b.prefixed("ATLAS"));
        log
    }

    #[test]
    fn profile_sums_and_sorts_components() {
        let p = Profile::from_log(&sample_log());
        assert_eq!(p.total_attributed, 140);
        assert_eq!(
            p.components,
            vec![("ctrl".to_owned(), 120), ("dram".to_owned(), 20)]
        );
        assert_eq!(p.top_components(1), &[("ctrl".to_owned(), 120)]);
        // Hottest row first; shares sum to 1.
        assert_eq!(p.rows[0].cycles, 60);
        let share_sum: f64 = p.rows.iter().map(|r| r.share).sum();
        assert!((share_sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn text_and_json_are_deterministic() {
        let a = Profile::from_log(&sample_log());
        let b = Profile::from_log(&sample_log());
        assert_eq!(a.to_text(), b.to_text());
        assert_eq!(a.to_json().render(), b.to_json().render());
        assert!(a
            .to_text()
            .contains("top components: ctrl 85.7%, dram 14.3%"));
    }

    #[test]
    fn empty_log_profiles_cleanly() {
        let p = Profile::from_log(&TraceLog::new());
        assert_eq!(p.total_attributed, 0);
        assert!(p.top_components(3).is_empty());
        assert!(p.to_text().contains("attributed 0 simulated cycles"));
    }
}
