//! The metric lists the program reports must be the ones `BENCHMARK.json`
//! (at the repository root) declares, with the same units.

use rfaas_perfbench::metrics::{END_TO_END, PER_LAYER};

fn declared(json: &str, section: &str) -> Vec<(String, String)> {
    // The file is machine-written with one metric object per line; read
    // the (name, unit) pairs of one section without a JSON dependency.
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &json[start..];
    let end = body.find(']').expect("section is a list");
    body[..end]
        .lines()
        .filter_map(|line| {
            let field = |key: &str| {
                let at = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
                let rest = &line[at..];
                Some(rest[..rest.find('"')?].to_string())
            };
            Some((field("name")?, field("unit")?))
        })
        .collect()
}

fn listed(metrics: &[(&str, &str)]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn benchmark_json_declares_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    assert_eq!(declared(&json, "end_to_end"), listed(END_TO_END));
    assert_eq!(declared(&json, "per_layer"), listed(PER_LAYER));
}
