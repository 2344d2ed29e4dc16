//! `BENCHMARK.json` parses with the program's own JSON parser and
//! lists exactly the workloads and per-layer metrics this package
//! reports, under well-formed names.

use gopim_obs::export::{parse_json, Json};
use gopim_perfbench::layers::LAYER_METRICS;
use gopim_perfbench::workloads::WORKLOADS;

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn names(doc: &Json, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no '{key}' list"))
        .iter()
        .map(|e| {
            e.get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_package_and_names_are_well_formed() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let doc = parse_json(&text).expect("BENCHMARK.json parses");
    assert_eq!(names(&doc, "workloads"), WORKLOADS);
    let layers: Vec<&str> = LAYER_METRICS.iter().map(|m| m.0).collect();
    assert_eq!(names(&doc, "per_layer"), layers);
    assert!(names(&doc, "end_to_end").iter().any(|n| n == "setup_s"));
    for key in ["workloads", "end_to_end", "per_layer"] {
        for name in names(&doc, key) {
            assert!(well_formed(&name), "'{name}' is not [A-Za-z0-9_.-]+");
        }
    }
}
