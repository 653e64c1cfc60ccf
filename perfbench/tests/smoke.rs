//! Runs the benchmark binary at the smallest input size: every named metric
//! is printed, finite and in its unit, and a failed gate fails the run.

use locmap_perfbench::{END_TO_END, PER_LAYER, WORKLOADS};
use std::process::Output;

/// Metrics that only some workloads have, printed above the result line.
const EXTRA: &[(&str, &[(&str, &str)])] = &[
    (
        "paper",
        &[
            ("sim_maccesses_per_s", "M/s"),
            ("exec_improvement_pct", "%"),
            ("net_latency_reduction_pct", "%"),
        ],
    ),
    (
        "map-service",
        &[
            ("mappings_per_s", "1/s"),
            ("map_ms_p50", "ms"),
            ("map_ms_p99", "ms"),
            ("session_hit_rate", "ratio"),
            ("irregular_request_share", "ratio"),
        ],
    ),
];

fn bench(workload: &str, trace: bool, sabotage: bool) -> Output {
    let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_locmap-perfbench"));
    cmd.current_dir(env!("CARGO_TARGET_TMPDIR"))
        .args([
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "0",
            "--scale",
            "0.1",
        ])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if sabotage {
        cmd.arg("--sabotage");
    }
    cmd.output().expect("the benchmark binary runs")
}

/// The value of `name` in the result line, checking its unit.
fn value_in(line: &str, name: &str, unit: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let at = line
        .find(&key)
        .unwrap_or_else(|| panic!("{name} missing from {line}"))
        + key.len();
    let rest = &line[at..];
    let end = rest.find(',').expect("value is followed by its unit");
    assert!(
        rest[end..].starts_with(&format!(", \"unit\": \"{unit}\"}}")),
        "{name} lacks unit {unit}"
    );
    rest[..end]
        .parse()
        .unwrap_or_else(|e| panic!("{name} = {:?}: {e}", &rest[..end]))
}

/// The value of a `metric <name> <value> <unit>` line.
fn printed(stdout: &str, name: &str, unit: &str) -> f64 {
    let line = stdout
        .lines()
        .find(|l| l.split(' ').nth(1) == Some(name))
        .unwrap_or_else(|| panic!("{name} not printed"));
    let parts: Vec<&str> = line.split(' ').collect();
    assert_eq!(parts.len(), 4, "{line}");
    assert_eq!(parts[3], unit, "{line}");
    parts[2].parse().expect("a number")
}

fn check(workload: &str, trace: bool) {
    let out = bench(workload, trace, false);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    assert!(last.contains("\"failed\": 0,"), "{last}");
    let names: &[(&str, &str)] = if trace { PER_LAYER } else { &END_TO_END };
    for &(name, unit) in names {
        assert!(value_in(last, name, unit).is_finite(), "{workload}: {name}");
        assert!(printed(&stdout, name, unit).is_finite());
    }
    assert_eq!(
        last.matches("\"value\"").count(),
        names.len(),
        "no metric beyond the list"
    );
    if !trace {
        for &(prefix, extras) in EXTRA {
            if workload.starts_with(prefix) {
                for &(name, unit) in extras {
                    assert!(
                        printed(&stdout, name, unit).is_finite(),
                        "{workload}: {name}"
                    );
                }
            }
        }
        assert_eq!(printed(&stdout, "failed_frac", "ratio"), 0.0);
        for name in ["setup_s", "wall_s", "peak_rss_mb"] {
            assert!(value_in(last, name, if name == "peak_rss_mb" { "MB" } else { "s" }) > 0.0);
        }
    }
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    for w in WORKLOADS {
        check(w, false);
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric() {
    for w in WORKLOADS {
        check(w, true);
    }
}

#[test]
fn a_failed_gate_exits_nonzero() {
    for w in WORKLOADS {
        for trace in [false, true] {
            let out = bench(w, trace, true);
            assert!(
                !out.status.success(),
                "{w} trace={trace} passed with a corrupted output"
            );
            let stdout = String::from_utf8_lossy(&out.stdout);
            let last = stdout.lines().last().expect("a result line");
            assert!(last.starts_with("{\"correct\": false"), "{last}");
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_locmap-perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
