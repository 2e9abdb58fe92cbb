//! The memoized evaluation cache.
//!
//! An [`EvalCache`] maps a canonical [`Digest`] of one
//! `(configuration, mode assignment)` pair to its measured
//! [`EnergyDelay`]. The explorer consults it before every analytical-
//! model simulation, so revisited assignments (hill-climb backtracks,
//! restart overlap, the greedy baseline's trajectory) cost a hash
//! lookup instead of a simulation.
//!
//! The cache also persists: [`EvalCache::save`] serializes every
//! entry with the `uecgra-probe` canonical JSON writer, entries
//! sorted by key, floats in shortest-round-trip form — so the file's
//! bytes are a pure function of its contents (no insertion-order or
//! thread-count residue), a warm rerun re-reads *exactly* the floats
//! it wrote, and re-saving an unchanged cache rewrites identical
//! bytes.

use crate::key::Digest;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use uecgra_model::EnergyDelay;
use uecgra_probe::Json;

/// Version stamp of the on-disk cache format. Bump it whenever the
/// key derivation changes, so an old file is rejected instead of
/// loading entries no lookup can hit. Version 2: the configuration
/// digest no longer hashes a voltage-frequency curve fit.
pub const CACHE_FORMAT_VERSION: u64 = 2;

/// In-memory (optionally disk-backed) memo table keyed by canonical
/// digests.
#[derive(Debug, Default)]
pub struct EvalCache {
    entries: Mutex<HashMap<u128, (Digest, EnergyDelay)>>,
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
            .map(|&(_, ed)| ed);
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
            .insert(key.as_u128(), (key, value));
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

    /// Serialize to the canonical on-disk document (entries sorted by
    /// key, so the rendering is independent of insertion order).
    pub fn to_json(&self) -> Json {
        let mut rows: Vec<(Digest, EnergyDelay)> = self
            .entries
            .lock()
            .expect("cache lock")
            .values()
            .copied()
            .collect();
        rows.sort_by_key(|&(k, _)| k);
        Json::object(vec![
            ("cache_format_version", Json::Uint(CACHE_FORMAT_VERSION)),
            (
                "entries",
                Json::Object(
                    rows.into_iter()
                        .map(|(k, ed)| {
                            (
                                k.to_string(),
                                Json::object(vec![
                                    ("energy_per_iter", Json::Float(ed.energy_per_iter)),
                                    ("throughput", Json::Float(ed.throughput)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Write the cache to `path` in canonical form.
    ///
    /// # Errors
    ///
    /// Returns the I/O error text.
    pub fn save(&self, path: &str) -> Result<(), String> {
        std::fs::write(path, self.to_json().render()).map_err(|e| format!("writing {path}: {e}"))
    }

    /// Parse a cache document previously produced by [`to_json`](Self::to_json).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub fn from_json(doc: &Json) -> Result<EvalCache, String> {
        let version = doc
            .get("cache_format_version")
            .and_then(Json::as_u64)
            .ok_or("missing cache_format_version")?;
        if version != CACHE_FORMAT_VERSION {
            return Err(format!("unsupported cache format version {version}"));
        }
        let cache = EvalCache::new();
        let entries = match doc.get("entries") {
            Some(Json::Object(fields)) => fields,
            _ => return Err("`entries` must be an object".into()),
        };
        for (key, value) in entries {
            let key = Digest::parse(key).ok_or_else(|| format!("bad cache key `{key}`"))?;
            // The model only measures finite, positive throughputs and
            // energies; anything else would poison every search that
            // reads the entry.
            let field = |name: &str| {
                let x = value
                    .get(name)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("entry {key}: missing {name}"))?;
                if x.is_finite() && x > 0.0 {
                    Ok(x)
                } else {
                    Err(format!(
                        "entry {key}: {name} {x} is not a finite positive number"
                    ))
                }
            };
            let throughput = field("throughput")?;
            let energy_per_iter = field("energy_per_iter")?;
            cache.insert(
                key,
                EnergyDelay {
                    throughput,
                    energy_per_iter,
                },
            );
        }
        Ok(cache)
    }

    /// Load a cache file; a missing file yields an empty cache (a
    /// cold start), any other failure is an error.
    ///
    /// # Errors
    ///
    /// Returns a description of an unreadable or malformed file.
    pub fn load(path: &str) -> Result<EvalCache, String> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(EvalCache::new());
            }
            Err(e) => return Err(format!("reading {path}: {e}")),
        };
        let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        EvalCache::from_json(&doc).map_err(|e| format!("{path}: {e}"))
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

    #[test]
    fn round_trips_exactly_and_sorts_entries() {
        let c = EvalCache::new();
        // Insert in descending key order; the rendering must not care.
        let keys: Vec<Digest> = (0..16u64)
            .rev()
            .map(|i| digest_bytes(&i.to_le_bytes()))
            .collect();
        for (i, &k) in keys.iter().enumerate() {
            c.insert(k, ed(1.0 / (i as f64 + 3.0), 0.1 * i as f64 + 0.77));
        }
        let text = c.to_json().render();
        let back = EvalCache::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.len(), c.len());
        // Byte-identical re-rendering: floats survive the round trip
        // exactly and ordering is canonical.
        assert_eq!(back.to_json().render(), text);
        for &k in &keys {
            assert_eq!(back.lookup(k), c.lookup(k));
        }
    }

    #[test]
    fn missing_file_is_a_cold_start() {
        let c = EvalCache::load("/nonexistent/uecgra-dse-cache.json").unwrap();
        assert!(c.is_empty());
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(EvalCache::from_json(&Json::object(vec![])).is_err());
        let bad = Json::object(vec![
            ("cache_format_version", Json::Uint(CACHE_FORMAT_VERSION)),
            ("entries", Json::object(vec![("zz", Json::Uint(1))])),
        ]);
        assert!(EvalCache::from_json(&bad).is_err());
    }

    #[test]
    fn version_1_documents_are_rejected() {
        let entry = Json::object(vec![
            ("energy_per_iter", Json::Float(2.0)),
            ("throughput", Json::Float(0.5)),
        ]);
        let doc = Json::object(vec![
            ("cache_format_version", Json::Uint(1)),
            (
                "entries",
                Json::Object(vec![(digest_bytes(b"k").to_string(), entry)]),
            ),
        ]);
        let err = EvalCache::from_json(&doc).unwrap_err();
        assert_eq!(err, "unsupported cache format version 1");
    }

    #[test]
    fn entries_must_be_finite_and_positive() {
        let key = digest_bytes(b"k").to_string();
        let doc = |t: Json, e: Json| {
            let entry = Json::object(vec![("energy_per_iter", e), ("throughput", t)]);
            Json::object(vec![
                ("cache_format_version", Json::Uint(CACHE_FORMAT_VERSION)),
                ("entries", Json::Object(vec![(key.clone(), entry)])),
            ])
        };
        assert!(EvalCache::from_json(&doc(Json::Float(0.5), Json::Float(2.0))).is_ok());
        for (t, e, bad) in [
            (Json::Int(-1), Json::Float(2.0), "throughput"),
            (Json::Uint(0), Json::Float(2.0), "throughput"),
            (
                Json::Float(0.5),
                Json::Float(f64::INFINITY),
                "energy_per_iter",
            ),
            (Json::Float(0.5), Json::Float(f64::NAN), "energy_per_iter"),
            (Json::Float(0.5), Json::Float(-2.0), "energy_per_iter"),
        ] {
            let err = EvalCache::from_json(&doc(t, e)).unwrap_err();
            assert!(
                err.contains(bad) && err.contains("finite positive"),
                "{err}"
            );
        }
    }
}
