//! The benchmark's own test: smoke runs of every workload, untraced and
//! traced, pass every answer check, print exactly the metrics
//! `BENCHMARK.json` names, and repeat their deterministic counts exactly.

use std::path::PathBuf;

use wnrs_perfbench::{run, Config, Outcome, Workload};

fn smoke(workload: Workload, trace: bool) -> Outcome {
    let cfg = Config {
        workload,
        seed: 11,
        seconds: 1,
        trace,
        smoke: true,
        untraced_ops_s: Some(1.0),
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke"),
    };
    run(&cfg).unwrap_or_else(|e| panic!("{} smoke run: {e}", workload.name()))
}

/// Metric names listed under `section` of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &text[start..];
    let end = body.find(']').expect("section is a list");
    body[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("quoted name")].to_string())
        .collect()
}

#[test]
fn smoke_runs_check_answers_print_listed_metrics_and_repeat_counts() {
    let end_to_end = listed("end_to_end");
    let per_layer = listed("per_layer");
    for workload in Workload::ALL {
        for trace in [false, true] {
            let first = smoke(workload, trace);
            let second = smoke(workload, trace);
            let what = format!("{} trace {trace}", workload.name());
            assert!(first.attempted > 0, "{what}: nothing attempted");
            assert_eq!(first.failed, 0, "{what}: failed operations");
            assert!(
                first.result_json().starts_with("{\"correct\": true, "),
                "{what}"
            );
            assert_eq!(
                first.counts, second.counts,
                "{what}: counts differ between runs"
            );
            let names: Vec<&str> = first.metrics.iter().map(|m| m.name).collect();
            let expected = if trace { &per_layer } else { &end_to_end };
            assert_eq!(
                names, *expected,
                "{what}: metrics differ from BENCHMARK.json"
            );
        }
    }
}
