//! Pareto-frontier extraction over (delay, energy, EDP).
//!
//! A point dominates another when it is no worse on *all three* axes
//! — iteration delay (1/throughput), energy per iteration, and their
//! product — and strictly better on at least one. (Dominance in the
//! first two implies dominance in EDP, but comparing all three keeps
//! the definition aligned with the report schema and costs nothing.)

use uecgra_clock::VfMode;
use uecgra_model::EnergyDelay;

/// One evaluated design point: a node-level mode assignment and its
/// measured energy-delay.
#[derive(Debug, Clone, PartialEq)]
pub struct DsePoint {
    /// Mode per DFG node.
    pub modes: Vec<VfMode>,
    /// The measurement.
    pub ed: EnergyDelay,
}

impl DsePoint {
    /// Delay per iteration in nominal cycles (1 / throughput).
    pub fn delay(&self) -> f64 {
        1.0 / self.ed.throughput
    }

    /// Energy per iteration (normalized units).
    pub fn energy(&self) -> f64 {
        self.ed.energy_per_iter
    }

    /// Energy-delay product.
    pub fn edp(&self) -> f64 {
        self.ed.edp()
    }

    /// Compact mode string, one letter per node (`R`/`N`/`S`).
    pub fn modes_string(&self) -> String {
        modes_string(&self.modes)
    }
}

/// Render a mode assignment as one letter per node
/// ([`VfMode::letter`]).
pub fn modes_string(modes: &[VfMode]) -> String {
    modes.iter().map(|m| m.letter()).collect()
}

/// Does `a` dominate `b` on (delay, energy, EDP)?
pub fn dominates(a: &EnergyDelay, b: &EnergyDelay) -> bool {
    let (ad, ae, ap) = (1.0 / a.throughput, a.energy_per_iter, a.edp());
    let (bd, be, bp) = (1.0 / b.throughput, b.energy_per_iter, b.edp());
    ad <= bd && ae <= be && ap <= bp && (ad < bd || ae < be || ap < bp)
}

/// Extract the Pareto frontier of `points`.
///
/// Members are returned sorted by ascending delay (then energy, then
/// mode string — a total, deterministic order). Duplicate
/// measurements (same delay *and* energy) keep only the
/// lexicographically smallest mode string, so the frontier is a
/// canonical representative set.
pub fn pareto_frontier(points: &[DsePoint]) -> Vec<DsePoint> {
    let mut front: Vec<DsePoint> = Vec::new();
    for p in points {
        let dominated = points.iter().any(|q| dominates(&q.ed, &p.ed));
        if dominated {
            continue;
        }
        // Duplicate measurement: keep one canonical representative.
        if let Some(existing) = front
            .iter_mut()
            .find(|q| q.delay() == p.delay() && q.energy() == p.energy())
        {
            if p.modes_string() < existing.modes_string() {
                *existing = p.clone();
            }
            continue;
        }
        front.push(p.clone());
    }
    front.sort_by(|a, b| {
        a.delay()
            .partial_cmp(&b.delay())
            .expect("finite delay")
            .then(a.energy().partial_cmp(&b.energy()).expect("finite energy"))
            .then_with(|| a.modes_string().cmp(&b.modes_string()))
    });
    front
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(delay: f64, energy: f64, tag: VfMode) -> DsePoint {
        DsePoint {
            modes: vec![tag],
            ed: EnergyDelay {
                throughput: 1.0 / delay,
                energy_per_iter: energy,
            },
        }
    }

    #[test]
    fn dominance_is_strict_somewhere() {
        let a = pt(1.0, 1.0, VfMode::Nominal).ed;
        let b = pt(2.0, 1.0, VfMode::Nominal).ed;
        assert!(dominates(&a, &b));
        assert!(!dominates(&b, &a));
        assert!(!dominates(&a, &a), "a point never dominates itself");
    }

    #[test]
    fn frontier_drops_dominated_points() {
        let pts = vec![
            pt(1.0, 4.0, VfMode::Sprint),
            pt(2.0, 2.0, VfMode::Nominal),
            pt(4.0, 1.0, VfMode::Rest),
            pt(3.0, 3.0, VfMode::Nominal), // dominated by (2,2)
        ];
        let front = pareto_frontier(&pts);
        assert_eq!(front.len(), 3);
        let delays: Vec<f64> = front.iter().map(DsePoint::delay).collect();
        assert!(delays.windows(2).all(|w| w[0] < w[1]), "sorted by delay");
    }

    #[test]
    fn duplicate_measurements_keep_one_canonical_member() {
        let pts = vec![pt(1.0, 1.0, VfMode::Sprint), pt(1.0, 1.0, VfMode::Nominal)];
        let front = pareto_frontier(&pts);
        assert_eq!(front.len(), 1);
        assert_eq!(front[0].modes_string(), "N", "lexicographically smallest");
    }

    #[test]
    fn modes_string_round_trips() {
        let modes = [VfMode::Rest, VfMode::Nominal, VfMode::Sprint];
        assert_eq!(modes_string(&modes), "RNS");
    }
}
