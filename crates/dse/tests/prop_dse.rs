//! Property tests for the DSE subsystem: Pareto-frontier laws and
//! cache-key stability.

use uecgra_clock::VfMode;
use uecgra_dse::{candidate_key, config_digest, dominates, pareto_frontier, DsePoint};
use uecgra_model::EnergyDelay;
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
