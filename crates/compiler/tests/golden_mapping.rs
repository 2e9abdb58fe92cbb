//! Golden pins on place-and-route: one hash per mapping over a
//! canonical text of everything `MappedKernel::map` decides, for the
//! paper and extension kernels at seeds 0–15 and a few lowered random
//! loops.
//!
//! The text holds each node's coordinate, every edge's route path,
//! `net_of_edge`, and each net's source, root, edges and parent links
//! (sorted, since `Net::parent` is a hash map). A change to the placer
//! or the router that moves any of these moves the hash. Intentional
//! behaviour changes: regenerate with
//! `UECGRA_BLESS=1 cargo test -p uecgra-compiler --test golden_mapping`.

mod common;

use common::mapping_cases;
use std::fmt::Write;
use uecgra_compiler::mapping::{ArrayShape, MappedKernel};
use uecgra_dfg::Dfg;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The canonical text of one mapping (or of its error).
fn canonical(dfg: &Dfg, seed: u64) -> String {
    let mapped = match MappedKernel::map(dfg, ArrayShape::default(), seed) {
        Ok(m) => m,
        Err(e) => return format!("error {e:?}\n"),
    };
    let mut t = String::new();
    let coords: Vec<_> = mapped.placement.coords().collect();
    writeln!(t, "place {coords:?}").unwrap();
    for (i, r) in mapped.routing.routes.iter().enumerate() {
        writeln!(t, "route {i} {:?}", r.path).unwrap();
    }
    writeln!(t, "net_of_edge {:?}", mapped.routing.net_of_edge).unwrap();
    for (i, net) in mapped.routing.nets.iter().enumerate() {
        let mut links: Vec<_> = net.parent.iter().map(|(&c, &p)| (c, p)).collect();
        links.sort();
        writeln!(
            t,
            "net {i} src {:?} port {} root {:?} edges {:?} parent {links:?}",
            net.src, net.src_port, net.root, net.edges
        )
        .unwrap();
    }
    t
}

fn all_lines() -> String {
    let mut lines: Vec<String> = mapping_cases()
        .iter()
        .map(|c| {
            let text = canonical(&c.dfg, c.seed);
            format!("{} {:016x}", c.label, fnv1a(text.as_bytes()))
        })
        .collect();
    lines.push(String::new());
    lines.join("\n")
}

#[test]
fn mappings_match_golden_hashes() {
    let text = all_lines();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/mapping.txt");
    if std::env::var_os("UECGRA_BLESS").is_some() {
        std::fs::write(path, &text).expect("write golden");
        return;
    }
    let golden =
        std::fs::read_to_string(path).expect("golden file exists (UECGRA_BLESS=1 regenerates)");
    let drifted: Vec<&str> = text
        .lines()
        .zip(golden.lines())
        .filter(|(now, pinned)| now != pinned)
        .map(|(now, _)| now)
        .collect();
    assert!(
        drifted.is_empty() && text.lines().count() == golden.lines().count(),
        "mappings drifted from the checked-in golden hashes \
         (UECGRA_BLESS=1 regenerates after intentional changes): {drifted:#?}"
    );
}
