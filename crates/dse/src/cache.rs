//! The memoized evaluation cache.
//!
//! An [`EvalCache`] maps the [`Digest`] of one
//! `(configuration, mode assignment)` pair to its measured
//! [`EnergyDelay`]. The explorer consults it before every analytical-
//! model simulation, so revisited assignments (hill-climb backtracks,
//! restart overlap, the greedy baseline's trajectory) cost a hash
//! lookup instead of a simulation. The cache lives for one process:
//! its keys do not cover the model's code or constants (see
//! [`key`](crate::key)), so an entry would be stale in another build.

use crate::key::Digest;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use uecgra_model::EnergyDelay;

/// In-memory memo table keyed by digests.
#[derive(Debug, Default)]
pub struct EvalCache {
    entries: Mutex<HashMap<u128, EnergyDelay>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl EvalCache {
    /// An empty cache.
    pub fn new() -> EvalCache {
        EvalCache::default()
    }

    /// Look up a key, counting a hit or a miss.
    pub fn lookup(&self, key: Digest) -> Option<EnergyDelay> {
        let found = self
            .entries
            .lock()
            .expect("cache lock")
            .get(&key.as_u128())
            .copied();
        match found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Insert (or overwrite — measurements are deterministic, so a
    /// duplicate insert always carries the same value).
    pub fn insert(&self, key: Digest, value: EnergyDelay) {
        self.entries
            .lock()
            .expect("cache lock")
            .insert(key.as_u128(), value);
    }

    /// Number of memoized entries.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("cache lock").len()
    }

    /// True when no entry is memoized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups that found an entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that missed.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Hit fraction of all lookups so far (0 when none were made).
    pub fn hit_rate(&self) -> f64 {
        let h = self.hits() as f64;
        let m = self.misses() as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::digest_bytes;

    fn ed(t: f64, e: f64) -> EnergyDelay {
        EnergyDelay {
            throughput: t,
            energy_per_iter: e,
        }
    }

    #[test]
    fn lookup_counts_hits_and_misses() {
        let c = EvalCache::new();
        let k = digest_bytes(b"k");
        assert_eq!(c.lookup(k), None);
        c.insert(k, ed(0.5, 2.0));
        assert_eq!(c.lookup(k), Some(ed(0.5, 2.0)));
        assert_eq!((c.hits(), c.misses()), (1, 1));
        assert_eq!(c.hit_rate(), 0.5);
    }
}
