//! The benchmark's own span recorder: every timed interval is a named span
//! under a parent phase, summed per `parent/name` path. End-to-end metrics
//! and per-layer metrics are both read off these sums, so the two can only
//! disagree by what the traced run adds.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Durations and work units of every span recorded under one path.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// One entry per recorded span, in recording order.
    pub durs: Vec<Duration>,
    /// Work units the spans covered (updates, point-updates, queries, …).
    pub work: u64,
}

impl Tally {
    /// Total seconds under this path.
    pub fn secs(&self) -> f64 {
        self.durs.iter().sum::<Duration>().as_secs_f64()
    }
}

/// Span sums per path; spans recorded while not measuring (the warm-up
/// epoch) are dropped.
#[derive(Default)]
pub struct Spans {
    measuring: bool,
    tallies: BTreeMap<String, Tally>,
}

impl Spans {
    /// Whether spans count (off during the warm-up epoch).
    pub fn measuring(&self) -> bool {
        self.measuring
    }

    /// Turns counting on or off.
    pub fn set_measuring(&mut self, measuring: bool) {
        self.measuring = measuring;
    }

    /// Records the span `parent/name` from `start` to now, covering `work`
    /// units, and returns its duration.
    pub fn record(&mut self, parent: &str, name: &str, start: Instant, work: u64) -> Duration {
        let dur = start.elapsed();
        self.record_dur(parent, name, dur, work);
        dur
    }

    /// Records a span whose duration was measured elsewhere (a replay).
    pub fn record_dur(&mut self, parent: &str, name: &str, dur: Duration, work: u64) {
        if !self.measuring {
            return;
        }
        let tally = self.tallies.entry(format!("{parent}/{name}")).or_default();
        tally.durs.push(dur);
        tally.work += work;
    }

    /// The tally under `parent/name` (empty when nothing was recorded).
    pub fn get(&self, path: &str) -> Tally {
        self.tallies.get(path).cloned().unwrap_or_default()
    }
}
