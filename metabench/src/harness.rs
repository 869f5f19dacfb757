//! What every workload shares: samples, failure accounting, framework
//! counters, and the closed-loop runner that measures a workload.

use std::time::{Duration, Instant};

use streammeta_core::ManagerStats;

use crate::pace::{Pace, Speed};
use crate::spans;
use crate::stats::Samples;

/// What the workload measured in one chunk, as measured.
#[derive(Default)]
pub struct E2e {
    pub updates: u64,
    pub notify_ns: Vec<u64>,
    pub subscribe_ns: Vec<u64>,
    pub unsubscribe_ns: Vec<u64>,
    pub reads: u64,
    pub read_ns: u64,
    /// Reads per second of each read pass (or, where reads are part of
    /// the loop, of the chunk's reads).
    pub read_rates: Vec<f64>,
    pub catalog_ns: Vec<u64>,
}

impl E2e {
    fn clear(&mut self) {
        (self.updates, self.reads, self.read_ns) = (0, 0, 0);
        self.read_rates.clear();
        for samples in [
            &mut self.notify_ns,
            &mut self.subscribe_ns,
            &mut self.unsubscribe_ns,
            &mut self.catalog_ns,
        ] {
            samples.clear();
        }
    }
}

/// The untraced chunks' end-to-end results, every time scaled by its
/// chunk's host-speed factor (see [`crate::pace`]).
#[derive(Default)]
pub struct Totals {
    pub updates: u64,
    pub reads: u64,
    /// Updates per second of each chunk, reads per second of each read
    /// pass or chunk, and each chunk's host-speed factor. The reported
    /// rates are medians.
    pub update_rates: Vec<f64>,
    pub read_rates: Vec<f64>,
    pub factors: Vec<f64>,
    pub notify_ns: Samples,
    pub subscribe_ns: Samples,
    pub unsubscribe_ns: Samples,
    pub catalog_ns: Samples,
}

impl Totals {
    fn add(&mut self, chunk: &E2e, loop_secs: f64, factor: f64) {
        self.updates += chunk.updates;
        self.reads += chunk.reads;
        self.update_rates
            .push(chunk.updates as f64 / (loop_secs * factor));
        self.read_rates
            .extend(chunk.read_rates.iter().map(|r| r / factor));
        self.factors.push(factor);
        for (samples, measured) in [
            (&mut self.notify_ns, &chunk.notify_ns),
            (&mut self.subscribe_ns, &chunk.subscribe_ns),
            (&mut self.unsubscribe_ns, &chunk.unsubscribe_ns),
            (&mut self.catalog_ns, &chunk.catalog_ns),
        ] {
            for &ns in measured {
                samples.push((ns as f64 * factor) as u64);
            }
        }
    }
}

/// Attempted and failed operations. A failure is an `Err` from the
/// framework, a missed or wrong notification, or a value that differs
/// from the reference model.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(what());
            }
        }
    }
}

/// Public framework counters the per-layer metrics are derived from.
#[derive(Default, Clone, Copy, Debug)]
pub struct Counters {
    pub computes: u64,
    pub epochs: u64,
    pub coalesced: u64,
    pub remote_updates: u64,
    pub fast_reads: u64,
    pub shard_reads: u64,
    pub trace_records: u64,
    pub trace_dropped: u64,
}

impl Counters {
    pub fn add_stats(&mut self, s: &ManagerStats, shard_reads: u64) {
        self.computes += s.computes;
        self.epochs += s.epochs;
        self.coalesced += s.coalesced_updates;
        self.fast_reads += s.fast_reads;
        self.shard_reads += shard_reads;
    }

    /// `self += later - earlier`.
    fn accumulate(&mut self, earlier: &Counters, later: &Counters) {
        let d = |a: u64, b: u64| b.saturating_sub(a);
        self.computes += d(earlier.computes, later.computes);
        self.epochs += d(earlier.epochs, later.epochs);
        self.coalesced += d(earlier.coalesced, later.coalesced);
        self.remote_updates += d(earlier.remote_updates, later.remote_updates);
        self.fast_reads += d(earlier.fast_reads, later.fast_reads);
        self.shard_reads += d(earlier.shard_reads, later.shard_reads);
        self.trace_records += d(earlier.trace_records, later.trace_records);
        self.trace_dropped += d(earlier.trace_dropped, later.trace_dropped);
    }
}

pub trait Workload {
    /// One closed-loop step: the next call is made only after this one
    /// returns.
    fn step(&mut self, e2e: &mut E2e, checks: &mut Checks);
    /// Operations measured between chunks, each timed on its own: read
    /// passes, catalog queries and subscription changes that a workload's
    /// loop has none of. Spreading them over the whole measured period
    /// exposes them to the same host noise as the loop.
    fn between(&mut self, e2e: &mut E2e, checks: &mut Checks);
    /// Reference checks between measured chunks (not timed).
    fn check(&mut self, checks: &mut Checks);
    fn counters(&self) -> Counters;
    /// Drops every subscription; the handler count must return to its
    /// baseline.
    fn teardown(&mut self, e2e: &mut E2e, checks: &mut Checks);
}

/// A workload build and the seconds its framework set-up took.
pub type Build = (Box<dyn Workload>, f64);

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;
/// Calibration slices before and after each set-up.
const SETUP_SLICES: usize = 4;
const WARMUP: Duration = Duration::from_millis(500);
const CHUNK: Duration = Duration::from_millis(250);
/// Loop time between calibration slices.
const PACE_EVERY: Duration = Duration::from_millis(20);

pub struct Outcome {
    pub e2e: Totals,
    pub checks: Checks,
    /// Set-up seconds, scaled and as measured.
    pub setup_s: Vec<f64>,
    pub setup_measured_s: Vec<f64>,
    /// Measured loop seconds and steps of untraced and traced chunks.
    pub untraced: (f64, u64),
    pub traced: (f64, u64),
    pub counters: Counters,
    pub spans: spans::Summary,
}

/// Runs one workload: `SETUP_REPS` set-ups (all but the last torn down
/// again), a warm-up, then measured chunks, each followed by the
/// workload's between-chunk operations, until `seconds` of measured
/// loop time; then the teardown. Calibration slices run around each
/// set-up, every `PACE_EVERY` of loop time and after the between-chunk
/// operations; their time is not loop time. With `trace`, every other
/// chunk (and the last set-up and the teardown) records spans;
/// end-to-end samples come from untraced chunks only.
pub fn run(seconds: f64, trace: bool, mut build: impl FnMut(&mut Checks) -> Build) -> Outcome {
    let mut pace = Pace::new();
    let mut e2e = Totals::default();
    let mut chunk_e2e = E2e::default();
    let mut scratch = E2e::default();
    let mut checks = Checks::default();
    let (mut setup_s, mut setup_measured_s) = (Vec::new(), Vec::new());
    let mut counters = Counters::default();
    let mut w = loop {
        let last = setup_s.len() + 1 == SETUP_REPS;
        let mut speed = Speed::default();
        for _ in 0..SETUP_SLICES {
            pace.slice(&mut speed);
        }
        spans::set_enabled(trace && last);
        let (mut w, secs) = build(&mut checks);
        spans::set_enabled(false);
        for _ in 0..SETUP_SLICES {
            pace.slice(&mut speed);
        }
        setup_s.push(secs * speed.factor());
        setup_measured_s.push(secs);
        if last {
            if trace {
                counters.accumulate(&Counters::default(), &w.counters());
            }
            break w;
        }
        w.teardown(&mut scratch, &mut checks);
    };
    w.check(&mut checks);

    let warm = Instant::now();
    while warm.elapsed() < WARMUP {
        scratch.clear();
        w.step(&mut scratch, &mut checks);
    }
    w.check(&mut checks);

    let (mut untraced, mut traced) = ((0.0, 0), (0.0, 0));
    let mut chunk = 0usize;
    while untraced.0 + traced.0 < seconds {
        let traced_chunk = trace && chunk % 2 == 1;
        chunk += 1;
        let before = traced_chunk.then(|| w.counters());
        spans::set_enabled(traced_chunk);
        let sink = if traced_chunk {
            &mut scratch
        } else {
            &mut chunk_e2e
        };
        sink.clear();
        let mut speed = Speed::default();
        let mut next = PACE_EVERY;
        let start = Instant::now();
        let mut steps = 0u64;
        let loop_time = loop {
            w.step(sink, &mut checks);
            steps += 1;
            let t = start.elapsed() - Duration::from_nanos(speed.spent_ns());
            if t >= CHUNK {
                break t.as_secs_f64();
            }
            if t >= next {
                pace.slice(&mut speed);
                next = t + PACE_EVERY;
            }
        };
        w.between(sink, &mut checks);
        spans::set_enabled(false);
        pace.slice(&mut speed);
        let slot = if traced_chunk {
            &mut traced
        } else {
            e2e.add(sink, loop_time, speed.factor());
            &mut untraced
        };
        slot.0 += loop_time;
        slot.1 += steps;
        if let Some(before) = before {
            counters.accumulate(&before, &w.counters());
        }
        w.check(&mut checks);
    }

    let before = w.counters();
    spans::set_enabled(trace);
    scratch.clear();
    w.teardown(&mut scratch, &mut checks);
    spans::set_enabled(false);
    if trace {
        counters.accumulate(&before, &w.counters());
    }
    drop(w);
    Outcome {
        e2e,
        checks,
        setup_s,
        setup_measured_s,
        untraced,
        traced,
        counters,
        spans: spans::take(),
    }
}

/// Nanoseconds since `t`.
pub fn ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Records the handlers a traced subscribe added.
pub fn subscribed(before: usize, after: usize) {
    spans::count(
        "inclusion.new_handlers",
        after.saturating_sub(before) as u64,
    );
    spans::count("inclusion.shared_subscribes", (after == before) as u64);
}

/// Records the handlers a traced unsubscribe removed.
pub fn unsubscribed(before: usize, after: usize) {
    spans::count(
        "inclusion.removed_handlers",
        before.saturating_sub(after) as u64,
    );
}
