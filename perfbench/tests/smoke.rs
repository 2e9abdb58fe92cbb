//! Smoke-size runs of every workload: each prints exactly the metrics
//! `BENCHMARK.json` names, and every output checks out.

use perfbench::workloads::{Config, Workload};
use perfbench::{run, Options};
use uecgra_probe::Json;

/// (name, unit) of each metric of one `BENCHMARK.json` section, in
/// file order.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits next to perfbench/");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    match doc.get(section) {
        Some(Json::Array(items)) => items
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (field("name"), field("unit"))
            })
            .collect(),
        _ => panic!("BENCHMARK.json has no {section} list"),
    }
}

fn smoke(workload: Workload, trace: bool) -> perfbench::Outcome {
    std::env::set_var("UECGRA_THREADS", perfbench::THREADS.to_string());
    run(&Options {
        workload,
        config: Config::smoke(3),
        seconds: 0.0,
        trace,
    })
}

#[test]
fn every_workload_prints_every_declared_metric_and_checks_out() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for w in Workload::ALL {
        for (trace, names) in [(false, &end_to_end), (true, &per_layer)] {
            let out = smoke(w, trace);
            let printed: Vec<(String, String)> = out
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect();
            assert_eq!(&printed, names, "{} trace={trace}", w.name());
            assert!(out.correct(), "{} trace={trace}: {:?}", w.name(), out.lines);
            let line = out.json();
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
            for (name, _) in names {
                assert!(
                    line.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{name} missing"
                );
            }
        }
    }
}

#[test]
fn table2_counts_repeat_exactly() {
    let a = smoke(Workload::Table2, true);
    let b = smoke(Workload::Table2, true);
    let get = |o: &perfbench::Outcome, n: &str| {
        o.metrics
            .iter()
            .find(|m| m.name == n)
            .expect("metric")
            .value
    };
    assert_eq!(get(&a, "mapping.calls"), 15.0);
    for name in [
        "mapping.wirelength",
        "power_map.sprint_nodes",
        "rtl.ticks",
        "rtl.rising_edges",
    ] {
        assert_eq!(get(&a, name), get(&b, name), "{name}");
    }
}
