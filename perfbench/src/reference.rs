//! The reference: a fixed piece of the benchmark's own work, timed next
//! to the ops to measure how fast the machine runs at that moment.
//!
//! On a shared host the same op takes up to half as long again while
//! other tenants load the cores and caches, in episodes of seconds to
//! minutes. The reference — `BTreeMap` inserts and an unstable sort over
//! a few KiB of the benchmark's own data — slows down with the ops
//! (their slowdowns correlate at 0.95–0.98 over 1 s windows), but no
//! change to the product can change it. An op's time, scaled by
//! [`NOMINAL_MS`] over the reference time measured beside it, is the
//! op's time on a machine running at the nominal speed.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Nominal time of one reference sample, in milliseconds: about what it
/// takes on an uncontended core of the 2-vCPU VM the bounds were set on.
pub const NOMINAL_MS: f64 = 0.03;

/// Keys inserted per sample.
const KEYS: usize = 256;
/// Values sorted per sample.
const SORTED: usize = 1024;

/// The reference work and its fixed inputs.
pub struct Reference {
    keys: Vec<u64>,
    unsorted: Vec<u32>,
    sorted: Vec<u32>,
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

impl Reference {
    /// The reference with its inputs drawn from a fixed seed.
    pub fn new() -> Self {
        let keys: Vec<u64> = (0..KEYS as u64).map(|i| crate::mix(0x5EED, i)).collect();
        let unsorted: Vec<u32> = (0..SORTED as u64)
            .map(|i| crate::mix(0x50A7, i) as u32)
            .collect();
        Reference {
            keys,
            sorted: unsorted.clone(),
            unsorted,
        }
    }

    fn run(&mut self) -> u64 {
        let mut map = BTreeMap::new();
        for (i, &key) in self.keys.iter().enumerate() {
            map.insert(key, [i as u64; 4]);
        }
        self.sorted.copy_from_slice(&self.unsorted);
        self.sorted.sort_unstable();
        map.len() as u64 ^ u64::from(self.sorted[SORTED / 2])
    }

    /// One sample in milliseconds: the reference runs twice and the
    /// second, warm run is timed, so the cache state an op leaves behind
    /// does not reach the figure.
    pub fn sample(&mut self) -> f64 {
        black_box(self.run());
        let start = Instant::now();
        black_box(self.run());
        1e3 * start.elapsed().as_secs_f64()
    }
}
