//! Property tests for the DSE subsystem: Pareto-frontier laws and
//! cache-key stability.

use uecgra_clock::VfMode;
use uecgra_dse::{
    candidate_key, config_digest, digest_json, dominates, pareto_frontier, DsePoint, EvalCache,
};
use uecgra_model::EnergyDelay;
use uecgra_probe::Json;
use uecgra_util::check::forall;
use uecgra_util::{par_tabulate, SplitMix64};

fn random_points(rng: &mut SplitMix64, n: usize) -> Vec<DsePoint> {
    (0..n)
        .map(|i| DsePoint {
            // Distinct mode vectors so frontier members are tellable
            // apart even when measurements collide.
            modes: (0..8).map(|b| VfMode::ALL[(i >> b) % 3]).collect(),
            ed: EnergyDelay {
                // Quantized to provoke exact ties and duplicates.
                throughput: 1.0 / (1.0 + rng.range(8) as f64),
                energy_per_iter: 0.5 + 0.25 * rng.range(8) as f64,
            },
        })
        .collect()
}

#[test]
fn frontier_members_never_dominate_each_other() {
    forall(200, |rng| {
        let n = 1 + rng.range(24);
        let points = random_points(rng, n);
        let front = pareto_frontier(&points);
        assert!(!front.is_empty(), "a non-empty set has a frontier");
        for a in &front {
            for b in &front {
                assert!(
                    !dominates(&a.ed, &b.ed),
                    "frontier member {:?} dominates member {:?}",
                    a.ed,
                    b.ed
                );
            }
        }
    });
}

#[test]
fn every_dropped_point_is_dominated_or_duplicated() {
    forall(200, |rng| {
        let n = 1 + rng.range(24);
        let points = random_points(rng, n);
        let front = pareto_frontier(&points);
        for p in &points {
            let kept = front
                .iter()
                .any(|f| f.delay() == p.delay() && f.energy() == p.energy());
            let covered = front.iter().any(|f| dominates(&f.ed, &p.ed));
            assert!(
                kept || covered,
                "dropped point {:?} is neither dominated nor duplicated",
                p.ed
            );
        }
    });
}

fn random_json(rng: &mut SplitMix64, depth: usize) -> Json {
    match if depth == 0 {
        rng.range(4)
    } else {
        rng.range(6)
    } {
        0 => Json::Null,
        1 => Json::Bool(rng.bool()),
        2 => Json::Uint(rng.next_u64() >> rng.range(64)),
        3 => Json::Float((rng.next_u32() as f64) / 257.0),
        4 => Json::Array(
            (0..rng.range(4))
                .map(|_| random_json(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Object(
            (0..rng.range(4))
                .map(|i| (format!("field{i}"), random_json(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// Fisher–Yates with the property RNG.
fn shuffled<T: Clone>(rng: &mut SplitMix64, items: &[T]) -> Vec<T> {
    let mut v = items.to_vec();
    for i in (1..v.len()).rev() {
        v.swap(i, rng.range(i + 1));
    }
    v
}

#[test]
fn cache_keys_ignore_object_field_order() {
    forall(200, |rng| {
        let fields: Vec<(String, Json)> = (0..2 + rng.range(6))
            .map(|i| (format!("k{i}"), random_json(rng, 2)))
            .collect();
        let a = Json::Object(fields.clone());
        let b = Json::Object(shuffled(rng, &fields));
        assert_eq!(
            digest_json(&a),
            digest_json(&b),
            "field order leaked into the digest"
        );
    });
}

#[test]
fn cache_keys_are_stable_across_threads_and_runs() {
    let toy = uecgra_dfg::kernels::synthetic::fig2_toy();
    let config = config_digest(&toy.dfg, &[0; 64], toy.iter_marker, &[], 96);
    let modes: Vec<Vec<VfMode>> = (0..64usize)
        .map(|i| {
            let mut x = i;
            (0..toy.dfg.node_count())
                .map(|_| {
                    let m = VfMode::ALL[x % 3];
                    x /= 3;
                    m
                })
                .collect()
        })
        .collect();
    let reference: Vec<_> = modes.iter().map(|m| candidate_key(config, m)).collect();
    // Same keys from a parallel derivation at whatever UECGRA_THREADS
    // this test runs under, and from a repeated sequential one.
    let parallel = par_tabulate(modes.len(), |i| candidate_key(config, &modes[i]));
    assert_eq!(parallel, reference);
    let again: Vec<_> = modes.iter().map(|m| candidate_key(config, m)).collect();
    assert_eq!(again, reference);
    // Keys must also be pairwise distinct assignments → distinct keys.
    let mut sorted = reference.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(sorted.len(), reference.len(), "key collision across modes");
}

#[test]
fn cache_round_trip_is_byte_stable_under_insertion_order() {
    forall(50, |rng| {
        let entries: Vec<(u64, f64, f64)> = (0..1 + rng.range(16))
            .map(|i| {
                (
                    i as u64,
                    1.0 / (1.0 + rng.range(9) as f64),
                    (rng.next_u32() as f64) / 65536.0,
                )
            })
            .collect();
        let build = |order: &[(u64, f64, f64)]| {
            let c = EvalCache::new();
            for &(i, t, e) in order {
                c.insert(
                    uecgra_dse::digest_bytes(&i.to_le_bytes()),
                    EnergyDelay {
                        throughput: t,
                        energy_per_iter: e,
                    },
                );
            }
            c.to_json().render()
        };
        let a = build(&entries);
        let b = build(&shuffled(rng, &entries));
        assert_eq!(a, b, "insertion order leaked into the cache file");
    });
}
