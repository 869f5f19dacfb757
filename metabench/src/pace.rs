//! Host-speed calibration.
//!
//! The 2-core development VM shares its host's caches and memory
//! bandwidth with other tenants. Their load slows whole stretches of a
//! run, seconds to minutes long, by up to 2×, and it slows every piece
//! of code at once. Medians over a run cannot remove a slowdown that
//! lasts most of the run. So a fixed kernel of the benchmark's own runs
//! in short slices between the workload's steps: hash-map updates and
//! lookups, a sort, and small allocations kept in a B-tree, the kinds of
//! work the metadata path does, on none of the framework's code. Its
//! speed in a stretch of time, against its speed on the reference host,
//! is that stretch's host-speed factor. Every time measured in the
//! stretch is multiplied by it, so the reported figures read as if the
//! host had run at its reference speed throughout: a change to the
//! framework moves them, a neighbour's load much less.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use crate::rng::Rng;

/// Nanoseconds one slice takes on the reference host (an uncontended
/// 2.1 GHz Xeon VM core).
pub const REFERENCE_SLICE_NS: f64 = 360_000.0;

const MAP_KEYS: u64 = 1024;
const MAP_OPS: usize = 4096;
const TREE_KEYS: u64 = 8192;
const TREE_OPS: usize = 512;
const MAX_ALLOC: u64 = 192;

/// The calibration kernel and its state, which carries over from slice
/// to slice so that every slice does the same kind of work.
pub struct Pace {
    map: HashMap<u64, u64>,
    sorted: Vec<u64>,
    tree: BTreeMap<u64, Vec<u8>>,
    rng: Rng,
}

impl Pace {
    pub fn new() -> Pace {
        let mut pace = Pace {
            map: HashMap::with_capacity(MAP_KEYS as usize),
            sorted: Vec::with_capacity(MAP_OPS),
            tree: BTreeMap::new(),
            rng: Rng::new(0),
        };
        for _ in 0..32 {
            pace.slice(&mut Speed::default());
        }
        pace
    }

    /// Runs the kernel once to bring its data back into cache, then once
    /// timed, and adds both runs to `speed`. Timing a warm kernel keeps
    /// the factor independent of how much of the cache the workload's own
    /// data took.
    pub fn slice(&mut self, speed: &mut Speed) {
        let start = Instant::now();
        self.kernel();
        let timed = Instant::now();
        self.kernel();
        speed.slices += 1;
        speed.timed_ns += timed.elapsed().as_nanos() as u64;
        speed.spent_ns += start.elapsed().as_nanos() as u64;
    }

    fn kernel(&mut self) {
        let mut acc = 0u64;
        self.sorted.clear();
        for i in 0..MAP_OPS as u64 {
            let x = self.rng.next_u64();
            *self.map.entry(x % MAP_KEYS).or_insert(0) += i;
            acc = acc.wrapping_add(*self.map.get(&((x >> 32) % MAP_KEYS)).unwrap_or(&1));
            self.sorted.push(x);
        }
        self.sorted.sort_unstable();
        for _ in 0..TREE_OPS {
            let x = self.rng.next_u64();
            let key = x % TREE_KEYS;
            if self.tree.remove(&key).is_none() {
                self.tree
                    .insert(key, vec![x as u8; ((x >> 32) % MAX_ALLOC) as usize]);
            }
        }
        std::hint::black_box((acc, &self.sorted));
    }
}

/// Slices run over a stretch of time.
#[derive(Default, Clone, Copy)]
pub struct Speed {
    slices: u64,
    timed_ns: u64,
    spent_ns: u64,
}

impl Speed {
    /// Nanoseconds the slices took in all, warm-up runs included.
    pub fn spent_ns(&self) -> u64 {
        self.spent_ns
    }

    /// Reference over measured slice time: below 1 while the host runs
    /// slower than the reference, 1 when nothing was measured.
    pub fn factor(&self) -> f64 {
        if self.slices == 0 || self.timed_ns == 0 {
            return 1.0;
        }
        REFERENCE_SLICE_NS * self.slices as f64 / self.timed_ns as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_reference_over_timed_runs() {
        let mut s = Speed::default();
        assert_eq!(s.factor(), 1.0);
        let slice = 2 * REFERENCE_SLICE_NS as u64;
        s = Speed {
            slices: 2,
            timed_ns: 2 * slice,
            spent_ns: 4 * slice,
        };
        assert_eq!(s.factor(), 0.5);
    }

    #[test]
    fn a_slice_spends_more_than_it_times() {
        let mut p = Pace::new();
        let mut s = Speed::default();
        p.slice(&mut s);
        assert_eq!(s.slices, 1);
        assert!(s.timed_ns > 0 && s.spent_ns > s.timed_ns);
    }
}
