//! Figure 2: UE-CGRA discrete-event performance model on the toy DFG
//! (three-node cycle fed by a two-node chain).

use uecgra_bench::{header, json_path, r2, write_reports};
use uecgra_clock::{ClockSet, VfMode};
use uecgra_core::report::metrics_report;
use uecgra_dfg::kernels::synthetic;
use uecgra_model::{DfgSimulator, SimConfig};

fn run(clocks: ClockSet, label: &str, rest_a: bool, sprint_cycle: bool) -> f64 {
    let toy = synthetic::fig2_toy();
    let mut modes = vec![VfMode::Nominal; toy.dfg.node_count()];
    if rest_a {
        for a in toy.a_chain {
            modes[a.index()] = VfMode::Rest;
        }
    }
    if sprint_cycle {
        for c in toy.cycle {
            modes[c.index()] = VfMode::Sprint;
        }
    }
    let config = SimConfig {
        clocks,
        marker: Some(toy.iter_marker),
        max_marker_fires: Some(200),
        ..SimConfig::default()
    };
    let r = DfgSimulator::new(&toy.dfg, modes, vec![0; 1024], config).run();
    let ii = r.steady_ii(30).expect("steady state");
    println!(
        "{label:<42} II = {} cycles (throughput {}/cycle)",
        r2(ii),
        r2(1.0 / ii)
    );
    ii
}

fn main() {
    let json = json_path();
    header("Figure 2: toy DFG with a three-node cycle (paper: 3 / 3 / 2 cycles)");
    let ii_a = run(ClockSet::default(), "(a) all nominal", false, false);
    let ii_b = run(
        ClockSet::default(),
        "(b) rest A1/A2 to 1/3 (no throughput loss)",
        true,
        false,
    );
    // (c) uses the pedagogical half-rate rest level: clock plan 6:3:2.
    let ii_c = run(
        ClockSet::new([6, 3, 2]).expect("valid plan"),
        "(c) rest A1/A2 to 1/2, sprint B/C/D 1.5x",
        true,
        true,
    );
    if let Some(path) = json {
        let report = metrics_report(
            "fig02_toy_dvfs",
            vec![
                ("ii_all_nominal".into(), ii_a),
                ("ii_rest_chain".into(), ii_b),
                ("ii_rest_and_sprint".into(), ii_c),
            ],
        );
        write_reports(&path, &[report]);
    }
}
