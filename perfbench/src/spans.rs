//! The benchmark's own spans: timers it wraps around the public call
//! into each layer during the traced run. A disabled recorder only runs
//! the closure, so one code path serves the traced run and the
//! untraced output checks.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Accumulated calls and time of one named span.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanTotal {
    /// Times the span was entered.
    pub calls: u64,
    /// Total wall time spent inside it.
    pub time: Duration,
}

/// Named span totals plus free-form counts, keyed by metric name.
#[derive(Debug, Default)]
pub struct Spans {
    enabled: bool,
    totals: BTreeMap<&'static str, SpanTotal>,
    counts: BTreeMap<&'static str, u64>,
}

impl Spans {
    /// A recorder that records.
    pub fn on() -> Self {
        Spans {
            enabled: true,
            ..Spans::default()
        }
    }

    /// A recorder that only runs the closures it is given.
    pub fn off() -> Self {
        Spans::default()
    }

    /// Runs `f` inside span `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.add(name, start.elapsed());
        out
    }

    /// Records one call of `name` that took `time`, measured by the
    /// caller.
    pub fn add(&mut self, name: &'static str, time: Duration) {
        if self.enabled {
            let total = self.totals.entry(name).or_default();
            total.calls += 1;
            total.time += time;
        }
    }

    /// Adds `n` to the count `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.enabled {
            *self.counts.entry(name).or_default() += n;
        }
    }

    /// The totals of span `name` (zero when it never ran).
    pub fn total(&self, name: &str) -> SpanTotal {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// The count `name` (zero when never counted).
    pub fn counted(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }
}
