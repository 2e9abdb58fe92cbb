//! The design-space explorer.
//!
//! [`explore`] searches per-group VF-mode assignments of one kernel
//! through the analytical model, memoizing every measurement in an
//! [`EvalCache`] and returning the Pareto frontier over
//! (delay, energy, EDP).
//!
//! Search space and strategies:
//!
//! * The space is grouped exactly like the paper's power-mapping pass
//!   ([`Grouping::chains`]): singly-connected chains share one mode and
//!   pseudo-op groups stay nominal, so `G` groups give `3^G`
//!   assignments instead of `3^N`.
//! * When `3^G` fits the evaluation budget the explorer enumerates the
//!   whole space (**exhaustive** — exact frontier).
//! * Otherwise it runs a greedy **hill-climb** with SplitMix64 random
//!   restarts: each restart starts from a seeded random assignment and
//!   walks single-group mode changes while they improve that restart's
//!   scalar objective (restarts cycle through EDP / delay / energy, so
//!   the walk pressure covers both ends of the frontier).
//! * Both strategies first evaluate the three uniform assignments and
//!   the paper's greedy `power_map` result under both objectives.
//!   Seeding the evaluated set with the greedy baseline makes the
//!   dominance acceptance criterion structural: the frontier's best
//!   EDP can never be worse than the baseline it contains.
//!
//! Every decision runs on the calling thread over *batches* of
//! candidate evaluations; only the batched model simulations fan out
//! through [`uecgra_util::par_tabulate`]. Measurements are pure
//! functions of the configuration, so the search trajectory — and the
//! returned [`DseOutcome`] — is bit-identical across thread counts
//! *and* across cold vs warm caches (a warm cache changes wall-clock,
//! never values).

use crate::cache::EvalCache;
use crate::key::{combine, digest_bytes, Digest};
use crate::pareto::{modes_string, pareto_frontier, DsePoint};
use std::collections::HashMap;
use uecgra_clock::VfMode;
use uecgra_dfg::analysis::Grouping;
use uecgra_dfg::{Dfg, NodeId};
use uecgra_model::{EnergyDelay, EnergyDelayEstimator};
use uecgra_util::SplitMix64;

/// Hill-climb restarts (the exhaustive strategy has none).
const RESTARTS: usize = 6;

/// The largest evaluation budget the command lines accept: 2^20. The
/// exhaustive strategy builds its whole space in memory, so this caps
/// it at 3^12 = 531,441 assignments (12 searchable groups); larger
/// spaces fall back to the hill-climb.
pub const MAX_BUDGET: usize = 1 << 20;

/// Explorer knobs. [`Default`] matches the CLI defaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DseConfig {
    /// PRNG seed for the hill-climb restarts.
    pub seed: u64,
    /// Maximum *unique* model evaluations; also the exhaustive-
    /// enumeration threshold (`3^G <= budget` enumerates). Keep it at
    /// most [`MAX_BUDGET`]: the exhaustive space is built in memory.
    pub budget: usize,
}

impl Default for DseConfig {
    fn default() -> DseConfig {
        DseConfig {
            seed: 7,
            budget: 256,
        }
    }
}

/// What one [`explore`] call found.
#[derive(Debug, Clone, PartialEq)]
pub struct DseOutcome {
    /// `"exhaustive"` or `"hillclimb"`.
    pub strategy: &'static str,
    /// Searchable (non-pseudo) power groups.
    pub groups: usize,
    /// Candidate evaluations requested (cache hits included).
    pub evaluations: u64,
    /// Distinct assignments measured.
    pub unique_configs: u64,
    /// The greedy `power_map` baseline (better of the two objectives
    /// by EDP).
    pub baseline: DsePoint,
    /// The Pareto frontier over everything evaluated, sorted by delay.
    pub frontier: Vec<DsePoint>,
    /// The minimum-EDP frontier member.
    pub best: DsePoint,
}

impl DseOutcome {
    /// Does the frontier's best EDP dominate or match the greedy
    /// baseline? Structurally always true (the baseline is in the
    /// evaluated set); kept as data so harnesses can assert it.
    pub fn dominates_baseline(&self) -> bool {
        self.best.edp() <= self.baseline.edp()
    }

    /// The outcome as a probe report section. Only search-
    /// deterministic quantities cross over — cache hit statistics stay
    /// out so reports are byte-identical across cold and warm caches.
    pub fn report_section(&self, cfg: &DseConfig) -> uecgra_probe::DseSection {
        let point = |p: &DsePoint| uecgra_probe::DsePointReport {
            modes: p.modes_string(),
            delay: p.delay(),
            energy: p.energy(),
            edp: p.edp(),
        };
        uecgra_probe::DseSection {
            seed: cfg.seed,
            strategy: self.strategy.to_string(),
            groups: self.groups as u64,
            budget: cfg.budget as u64,
            evaluations: self.evaluations,
            unique_configs: self.unique_configs,
            baseline: point(&self.baseline),
            frontier: self.frontier.iter().map(point).collect(),
            best: point(&self.best),
            dominates_baseline: self.dominates_baseline(),
        }
    }
}

/// Digest the evaluation configuration: everything besides the mode
/// assignment that can differ between two [`explore`] calls in one
/// process. Combined with a per-candidate modes digest this forms the
/// cache key. Values fixed in the binary (the clock plan, the energy
/// constants, the model itself) are not hashed, so a key is only good
/// within the process that made it.
pub fn config_digest(
    dfg: &Dfg,
    mem: &[u32],
    marker: NodeId,
    extra_hops: &[u32],
    iterations: u64,
) -> Digest {
    // Little-endian 64-bit words (the memory image as 32-bit words);
    // every list is prefixed by its length, so two configurations never
    // share a stream.
    fn put(bytes: &mut Vec<u8>, word: u64) {
        bytes.extend_from_slice(&word.to_le_bytes());
    }
    let opt = |v: Option<u32>| v.map_or(u64::MAX, u64::from);
    let words = 6 + 3 * dfg.node_count() + 4 * dfg.edge_count() + extra_hops.len();
    let mut bytes = Vec::with_capacity(8 * words + 4 * mem.len());
    put(&mut bytes, dfg.node_count() as u64);
    for (_, n) in dfg.nodes() {
        put(&mut bytes, n.op as u64);
        put(&mut bytes, opt(n.constant));
        put(&mut bytes, opt(n.init));
    }
    put(&mut bytes, dfg.edge_count() as u64);
    for (_, e) in dfg.edges() {
        put(&mut bytes, e.src.index() as u64);
        put(&mut bytes, e.src_port.into());
        put(&mut bytes, e.dst.index() as u64);
        put(&mut bytes, e.dst_port.into());
    }
    put(&mut bytes, extra_hops.len() as u64);
    for &h in extra_hops {
        put(&mut bytes, h.into());
    }
    put(&mut bytes, marker.index() as u64);
    put(&mut bytes, iterations);
    put(&mut bytes, mem.len() as u64);
    bytes.extend(mem.iter().flat_map(|w| w.to_le_bytes()));
    digest_bytes(&bytes)
}

/// The cache key of one candidate: config digest ⊕ modes digest.
pub fn candidate_key(config: Digest, modes: &[VfMode]) -> Digest {
    combine(config, digest_bytes(modes_string(modes).as_bytes()))
}

/// Cache-mediated batch evaluator. All bookkeeping runs on the calling
/// thread; only the missing measurements fan out.
struct Evaluator<'a> {
    estimator: EnergyDelayEstimator<'a>,
    config: Digest,
    cache: &'a EvalCache,
    evaluations: u64,
    unique: std::collections::HashSet<u128>,
}

impl<'a> Evaluator<'a> {
    /// Evaluate a batch of candidates, in order. Duplicate candidates
    /// within the batch and cache hits cost nothing; unique misses are
    /// measured in parallel and inserted into the cache.
    fn eval_batch(&mut self, candidates: &[Vec<VfMode>]) -> Vec<EnergyDelay> {
        let keys: Vec<Digest> = candidates
            .iter()
            .map(|m| candidate_key(self.config, m))
            .collect();
        self.evaluations += keys.len() as u64;

        let mut batch: HashMap<u128, EnergyDelay> = HashMap::new();
        let mut misses: Vec<(Digest, &Vec<VfMode>)> = Vec::new();
        for (key, modes) in keys.iter().zip(candidates) {
            if batch.contains_key(&key.as_u128()) {
                continue; // duplicate within this batch
            }
            self.unique.insert(key.as_u128());
            match self.cache.lookup(*key) {
                Some(ed) => {
                    batch.insert(key.as_u128(), ed);
                }
                None => {
                    batch.insert(key.as_u128(), PLACEHOLDER);
                    misses.push((*key, modes));
                }
            }
        }
        let measured =
            uecgra_util::par_tabulate(misses.len(), |i| self.estimator.measure(misses[i].1));
        for ((key, _), ed) in misses.iter().zip(measured) {
            self.cache.insert(*key, ed);
            batch.insert(key.as_u128(), ed);
        }
        keys.iter().map(|k| batch[&k.as_u128()]).collect()
    }

    /// One measurement through the cache, outside the search's
    /// `evaluations` and `unique` counts: the greedy baselines'
    /// trajectories run on this.
    fn measure_cached(&self, modes: &[VfMode]) -> EnergyDelay {
        let key = candidate_key(self.config, modes);
        self.cache.lookup(key).unwrap_or_else(|| {
            let ed = self.estimator.measure(modes);
            self.cache.insert(key, ed);
            ed
        })
    }
}

/// Sentinel overwritten before the batch returns; never observable.
const PLACEHOLDER: EnergyDelay = EnergyDelay {
    throughput: f64::NAN,
    energy_per_iter: f64::NAN,
};

/// The scalar objective a hill-climb restart minimizes. Restarts cycle
/// through all three so the walk covers both frontier ends, not just
/// the EDP knee.
#[derive(Clone, Copy)]
enum Scalar {
    Edp,
    Delay,
    Energy,
}

impl Scalar {
    const ALL: [Scalar; 3] = [Scalar::Edp, Scalar::Delay, Scalar::Energy];

    /// Lexicographic cost: the primary axis, EDP as the tie-break.
    fn cost(self, ed: &EnergyDelay) -> (f64, f64) {
        let edp = ed.edp();
        match self {
            Scalar::Edp => (edp, edp),
            Scalar::Delay => (1.0 / ed.throughput, edp),
            Scalar::Energy => (ed.energy_per_iter, edp),
        }
    }
}

fn cost_lt(a: (f64, f64), b: (f64, f64)) -> bool {
    a.0 < b.0 || (a.0 == b.0 && a.1 < b.1)
}

/// Explore VF-mode assignments of `dfg` and return the Pareto
/// frontier, the greedy baseline, and the search statistics.
///
/// `extra_hops` carries routed per-edge bypass hops (empty for the
/// logical graph), exactly as
/// [`power_map_routed`](uecgra_compiler::power_map::power_map_routed)
/// takes them. Measurements go through `cache`; pass the same cache
/// again for a warm rerun.
///
/// # Panics
///
/// Panics if a candidate mapping reaches no steady state within the
/// measurement window (same contract as `EnergyDelayEstimator`).
pub fn explore(
    dfg: &Dfg,
    mem: Vec<u32>,
    marker: NodeId,
    extra_hops: &[u32],
    cfg: &DseConfig,
    cache: &EvalCache,
) -> DseOutcome {
    explore_points(dfg, mem, marker, extra_hops, cfg, cache).0
}

/// [`explore`], also returning every evaluated point in request order
/// (seed round first, duplicates included). Figure 3 plots the whole
/// exhaustive space, not only its frontier.
///
/// # Panics
///
/// As [`explore`].
pub fn explore_points(
    dfg: &Dfg,
    mem: Vec<u32>,
    marker: NodeId,
    extra_hops: &[u32],
    cfg: &DseConfig,
    cache: &EvalCache,
) -> (DseOutcome, Vec<DsePoint>) {
    use uecgra_compiler::power_map::{power_map_with, Objective};

    // Grouping, exactly as the greedy pass groups (phase 1).
    let grouping = Grouping::chains(dfg);
    let groups = grouping.searchable(dfg);
    let expand = |assignment: &[VfMode]| -> Vec<VfMode> {
        let mut modes = vec![VfMode::Nominal; dfg.node_count()];
        for (slot, &g) in groups.iter().enumerate() {
            for &n in grouping.members(g) {
                modes[n.index()] = assignment[slot];
            }
        }
        modes
    };
    // Project a per-node assignment into group space (greedy results
    // are constant per group by construction).
    let project = |node_modes: &[VfMode]| -> Vec<VfMode> {
        groups
            .iter()
            .map(|&g| node_modes[grouping.members(g)[0].index()])
            .collect()
    };

    let estimator =
        EnergyDelayEstimator::new(dfg, mem.clone(), marker).with_edge_latency(extra_hops.to_vec());
    let window = EnergyDelayEstimator::WINDOW;
    let config = config_digest(dfg, &mem, marker, extra_hops, window);
    let mut ev = Evaluator {
        estimator,
        config,
        cache,
        evaluations: 0,
        unique: std::collections::HashSet::new(),
    };

    let mut evaluated: Vec<DsePoint> = Vec::new();
    let mut record = |assignments: &[Vec<VfMode>], ev: &mut Evaluator<'_>| -> Vec<EnergyDelay> {
        let node_modes: Vec<Vec<VfMode>> = assignments.iter().map(|a| expand(a)).collect();
        let eds = ev.eval_batch(&node_modes);
        for (modes, &ed) in node_modes.iter().zip(&eds) {
            evaluated.push(DsePoint {
                modes: modes.clone(),
                ed,
            });
        }
        eds
    };

    // Seed round: uniform assignments + the greedy baselines, whose
    // trajectories measure through the same cache.
    let greedy: Vec<Vec<VfMode>> = [Objective::Performance, Objective::Energy]
        .iter()
        .map(|&obj| project(&power_map_with(dfg, obj, |m| ev.measure_cached(m)).node_modes))
        .collect();
    let mut seeds: Vec<Vec<VfMode>> = VfMode::ALL.iter().map(|&m| vec![m; groups.len()]).collect();
    seeds.extend(greedy.iter().cloned());
    let seed_eds = record(&seeds, &mut ev);
    // The better greedy result (by EDP) is the baseline DSE must beat.
    let baseline = greedy
        .iter()
        .zip(&seed_eds[VfMode::ALL.len()..])
        .map(|(a, &ed)| DsePoint {
            modes: expand(a),
            ed,
        })
        .min_by(|a, b| {
            a.edp()
                .partial_cmp(&b.edp())
                .expect("finite EDP")
                .then_with(|| a.modes_string().cmp(&b.modes_string()))
        })
        .expect("two greedy baselines");

    let space: Option<usize> = 3usize.checked_pow(groups.len() as u32);
    let strategy = match space {
        Some(s) if s <= cfg.budget => "exhaustive",
        _ => "hillclimb",
    };

    if strategy == "exhaustive" {
        // Odometer over VfMode::ALL (slowest-first), whole space in
        // one parallel batch.
        let space = space.expect("small space");
        let all: Vec<Vec<VfMode>> = (0..space)
            .map(|mut i| {
                (0..groups.len())
                    .map(|_| {
                        let m = VfMode::ALL[i % 3];
                        i /= 3;
                        m
                    })
                    .collect()
            })
            .collect();
        record(&all, &mut ev);
    } else {
        for restart in 0..RESTARTS {
            if ev.unique.len() >= cfg.budget {
                break;
            }
            let objective = Scalar::ALL[restart % Scalar::ALL.len()];
            let mut rng = SplitMix64::seed_from_u64(
                cfg.seed ^ (restart as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            let mut current: Vec<VfMode> = (0..groups.len())
                .map(|_| VfMode::ALL[rng.range(3)])
                .collect();
            let mut current_cost = objective.cost(&record(&[current.clone()], &mut ev)[0]);
            loop {
                if ev.unique.len() >= cfg.budget {
                    break;
                }
                // All single-group mode changes, evaluated as one batch.
                let mut neighbors: Vec<Vec<VfMode>> = Vec::new();
                for slot in 0..groups.len() {
                    for &m in &VfMode::ALL {
                        if m != current[slot] {
                            let mut n = current.clone();
                            n[slot] = m;
                            neighbors.push(n);
                        }
                    }
                }
                let eds = record(&neighbors, &mut ev);
                let best = neighbors
                    .iter()
                    .zip(&eds)
                    .map(|(n, ed)| (n, objective.cost(ed)))
                    .min_by(|a, b| {
                        a.1.partial_cmp(&b.1)
                            .expect("finite cost")
                            .then_with(|| modes_string(a.0).cmp(&modes_string(b.0)))
                    });
                match best {
                    Some((n, cost)) if cost_lt(cost, current_cost) => {
                        current = n.clone();
                        current_cost = cost;
                    }
                    _ => break, // local optimum for this objective
                }
            }
        }
    }

    let frontier = pareto_frontier(&evaluated);
    let best = frontier
        .iter()
        .min_by(|a, b| {
            a.edp()
                .partial_cmp(&b.edp())
                .expect("finite EDP")
                .then_with(|| a.modes_string().cmp(&b.modes_string()))
        })
        .expect("non-empty frontier")
        .clone();
    let outcome = DseOutcome {
        strategy,
        groups: groups.len(),
        evaluations: ev.evaluations,
        unique_configs: ev.unique.len() as u64,
        baseline,
        frontier,
        best,
    };
    (outcome, evaluated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use uecgra_compiler::mapping::{ArrayShape, MappedKernel};
    use uecgra_compiler::power_map::{power_map_with, Objective};
    use uecgra_dfg::kernels::{dither, llist, synthetic};
    use uecgra_dfg::{Kernel, Op};

    fn run(cfg: &DseConfig) -> DseOutcome {
        let toy = synthetic::fig2_toy();
        let cache = EvalCache::new();
        explore(&toy.dfg, vec![0; 2048], toy.iter_marker, &[], cfg, &cache)
    }

    #[test]
    fn small_fabrics_enumerate_exhaustively() {
        let out = run(&DseConfig::default());
        assert_eq!(out.strategy, "exhaustive");
        assert!(out.dominates_baseline());
        assert!(!out.frontier.is_empty());
        assert!(out.unique_configs <= out.evaluations);
        // The whole 3^G space plus seeds was requested.
        assert_eq!(out.unique_configs, 3u64.pow(out.groups as u32));
    }

    #[test]
    fn tight_budgets_fall_back_to_hill_climb() {
        let cfg = DseConfig {
            budget: 20,
            ..DseConfig::default()
        };
        let out = run(&cfg);
        assert_eq!(out.strategy, "hillclimb");
        assert!(out.dominates_baseline(), "baseline seeding guarantees this");
    }

    /// A small Table II kernel, its routed extra hops, and its config
    /// digest.
    fn routed(k: Kernel) -> (Kernel, Vec<u32>, Digest) {
        let mapped = MappedKernel::map(&k.dfg, ArrayShape::default(), 7).unwrap();
        let extra = mapped.edge_extra_hops();
        let window = EnergyDelayEstimator::WINDOW;
        let config = config_digest(&k.dfg, &k.mem, k.iter_marker, &extra, window);
        (k, extra, config)
    }

    /// Replay both greedy passes, asserting every candidate they
    /// measure is already in `cache`; returns the candidates' keys.
    fn greedy_keys_all_cached(k: &Kernel, config: Digest, cache: &EvalCache) -> HashSet<u128> {
        let mut keys = HashSet::new();
        for obj in [Objective::Performance, Objective::Energy] {
            power_map_with(&k.dfg, obj, |modes| {
                let key = candidate_key(config, modes);
                keys.insert(key.as_u128());
                cache.lookup(key).expect("greedy candidate is cached")
            });
        }
        keys
    }

    #[test]
    fn exploration_is_deterministic_and_cache_transparent() {
        // Small routed Table II kernels sharing one cache, one per
        // strategy.
        let cfg = DseConfig::default();
        let cache = EvalCache::new();
        for (k, strategy) in [
            (llist::build_with_hops(40), "exhaustive"),
            (dither::build_with_pixels(40), "hillclimb"),
        ] {
            let (k, extra, config) = routed(k);
            let run = || explore_points(&k.dfg, k.mem.clone(), k.iter_marker, &extra, &cfg, &cache);
            let misses = cache.misses();
            let (cold, points) = run();
            assert_eq!(cold.strategy, strategy, "{}", k.name);
            // A cold run caches every configuration the greedy passes
            // measure, and misses once per distinct configuration: the
            // search's own plus those only the greedy passes visit.
            let search: HashSet<u128> = points
                .iter()
                .map(|p| candidate_key(config, &p.modes).as_u128())
                .collect();
            assert_eq!(search.len() as u64, cold.unique_configs, "{}", k.name);
            let greedy = greedy_keys_all_cached(&k, config, &cache);
            let cold_misses = cache.misses() - misses;
            let greedy_only = greedy.difference(&search).count() as u64;
            assert_eq!(cold_misses, cold.unique_configs + greedy_only, "{}", k.name);
            // Same cache now warm: every value identical, nothing
            // measured again.
            assert_eq!(run(), (cold.clone(), points), "{}", k.name);
            assert_eq!(cache.misses() - misses, cold_misses, "{}", k.name);
            assert!(cold.dominates_baseline(), "{}", k.name);
        }
    }

    /// The Figure 3 case study, explored exhaustively: the outcome,
    /// the all-nominal measurement, and every evaluated point as
    /// (speedup, efficiency) over all-nominal.
    fn fig3() -> (DseOutcome, EnergyDelay, Vec<(f64, f64)>) {
        let cs = synthetic::fig3_case_study();
        let cfg = DseConfig::default();
        let mem = vec![0; 4096];
        let (out, points) =
            explore_points(&cs.dfg, mem, cs.iter_marker, &[], &cfg, &EvalCache::new());
        assert_eq!(out.strategy, "exhaustive");
        let nominal = points
            .iter()
            .find(|p| p.modes.iter().all(|&m| m == VfMode::Nominal))
            .expect("all-nominal is a seed")
            .ed;
        let rel = points
            .iter()
            .map(|p| (p.ed.speedup_over(&nominal), p.ed.efficiency_over(&nominal)))
            .collect();
        (out, nominal, rel)
    }

    #[test]
    fn fig3_all_nominal_is_unity() {
        // The all-nominal seed and its enumerated copy.
        let (_, _, rel) = fig3();
        assert!(rel.iter().filter(|&&p| p == (1.0, 1.0)).count() >= 2);
    }

    #[test]
    fn fig3_has_a_sprint_and_rest_point() {
        // Paper Figure 3's circled point: ~1.4x speedup, ~1.2x
        // efficiency (sprint the cycle, rest the live-ins).
        let (_, _, rel) = fig3();
        assert!(rel.iter().any(|&(s, e)| s >= 1.3 && e >= 1.1));
    }

    #[test]
    fn fig3_has_a_same_speed_resting_point() {
        // Resting alone buys efficiency at unchanged speed (paper
        // ~2.2x; ~1.39x here, see EXPERIMENTS.md).
        let (_, _, rel) = fig3();
        assert!(rel.iter().any(|&(s, e)| e >= 1.3 && (s - 1.0).abs() < 1e-9));
    }

    #[test]
    fn fig3_frontier_trades_off() {
        // Sorted by delay: slower members must be cheaper.
        let (out, _, _) = fig3();
        assert!(!out.frontier.is_empty());
        assert!(out
            .frontier
            .windows(2)
            .all(|w| w[0].energy() >= w[1].energy()));
    }

    #[test]
    fn fig3_best_edp_beats_all_nominal() {
        let (out, nominal, _) = fig3();
        assert!(out.best.ed.edp_gain_over(&nominal) > 1.0);
    }

    #[test]
    fn config_digest_distinguishes_observable_changes() {
        let toy = synthetic::fig2_toy();
        let base = config_digest(&toy.dfg, &[0; 16], toy.iter_marker, &[], 96);
        let other_mem = config_digest(&toy.dfg, &[1; 16], toy.iter_marker, &[], 96);
        let other_iters = config_digest(&toy.dfg, &[0; 16], toy.iter_marker, &[], 48);
        let other_hops = config_digest(&toy.dfg, &[0; 16], toy.iter_marker, &[1], 96);
        let other_marker = config_digest(&toy.dfg, &[0; 16], toy.cycle[1], &[], 96);
        let mut dfg = toy.dfg.clone();
        dfg.node_mut(toy.cycle[2]).constant = Some(2);
        let other_constant = config_digest(&dfg, &[0; 16], toy.iter_marker, &[], 96);
        assert_ne!(base, other_mem);
        assert_ne!(base, other_iters);
        assert_ne!(base, other_hops);
        assert_ne!(base, other_marker);
        assert_ne!(base, other_constant);
        // The same edges into a subtraction, operands swapped.
        let sub = |ports: [u8; 2]| {
            let mut g = Dfg::new();
            let x = g.add_node(Op::Source, "x").id();
            let y = g.add_node(Op::Source, "y").id();
            let d = g.add_node(Op::Sub, "d").id();
            g.connect_ports(x, 0, d, ports[0]);
            g.connect_ports(y, 0, d, ports[1]);
            config_digest(&g, &[0; 16], d, &[], 96)
        };
        assert_ne!(sub([0, 1]), sub([1, 0]));
        // And it is stable across calls.
        assert_eq!(
            base,
            config_digest(&toy.dfg, &[0; 16], toy.iter_marker, &[], 96)
        );
    }
}
