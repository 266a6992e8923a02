//! The benchmark's own checks: the metric schema is pinned (here and in
//! `BENCHMARK.json`), the seed fixes the counts, and every workload runs
//! end to end at a tiny size.

use servebench::{run, Params, Report, Workload, END_TO_END, PER_LAYER};
use std::path::PathBuf;

fn scratch(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn tiny(batches: usize) -> Params {
    Params {
        batches,
        setup_reps: 1,
        slices: 4,
    }
}

fn run_tiny(workload: Workload, seed: u64, batches: usize, trace: bool) -> Report {
    let dir = scratch(&format!("{}-{seed}-{batches}-{trace}", workload.name()));
    run(workload, seed, &tiny(batches), trace, &dir).expect("run succeeds")
}

fn names(specs: &[(&str, &str)]) -> Vec<String> {
    specs.iter().map(|(n, _)| n.to_string()).collect()
}

/// The `"name"` values inside the `key` array of `BENCHMARK.json`.
fn benchmark_json_names(json: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &json[start..];
    let end = body.find(']').expect("the array closes");
    body[..end]
        .split("\"name\"")
        .skip(1)
        .map(|field| {
            let value = field.split('"').nth(1).expect("a quoted name");
            value.to_string()
        })
        .collect()
}

#[test]
fn metric_schema_is_pinned() {
    assert_eq!(
        END_TO_END,
        [
            ("setup_s", "s"),
            ("packets_per_s", "1/s"),
            ("batch_p50_ms", "ms"),
            ("batch_p99_ms", "ms"),
            ("steps_per_packet", "steps"),
            ("peak_rss_mb", "MiB"),
        ]
    );
    let layers = names(&PER_LAYER);
    for prefix in [
        "frontend.",
        "generator.",
        "freeze.",
        "wire.",
        "store.",
        "cache.",
        "packet.",
        "pool.",
        "bpf_native.",
        "host.",
        "trace.",
    ] {
        assert!(
            layers.iter().any(|n| n.starts_with(prefix)),
            "no {prefix} metric"
        );
    }
    let mut unique = layers.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), layers.len(), "per-layer names repeat");

    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits beside the benchmark directory");
    assert_eq!(
        benchmark_json_names(&json, "end_to_end"),
        names(&END_TO_END)
    );
    assert_eq!(benchmark_json_names(&json, "per_layer"), layers);
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(benchmark_json_names(&json, "workloads"), workloads);
}

#[test]
fn every_workload_runs_at_a_tiny_size() {
    for workload in Workload::ALL {
        let untraced = run_tiny(workload, 3, 24, false);
        assert_eq!(untraced.failed, 0, "{}", workload.name());
        assert_eq!(untraced.attempted, 24);
        let got: Vec<&str> = untraced.metrics.iter().map(|(n, _)| *n).collect();
        assert_eq!(got, names(&END_TO_END), "{}", workload.name());
        for (name, value) in &untraced.metrics {
            assert!(*value > 0.0, "{} {name} = {value}", workload.name());
        }
        let traced = run_tiny(workload, 3, 24, true);
        let got: Vec<&str> = traced.metrics.iter().map(|(n, _)| *n).collect();
        assert_eq!(got, names(&PER_LAYER), "{}", workload.name());
        assert!(
            traced.get("trace.coverage") > 0.8,
            "{} coverage {}",
            workload.name(),
            traced.get("trace.coverage")
        );
        assert!(traced.get("frontend.ms_per_filter") > 0.0);
        assert!(traced.get("packet.run_ns") > 0.0);
        assert_eq!(traced.get("failed_share"), 0.0);
        let line = traced.to_json();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 24, \"failed\": 0,"));
    }
}

#[test]
fn the_seed_fixes_the_counts() {
    const COUNTS: [&str; 7] = [
        "generator.steps_per_filter",
        "generator.emitted_per_filter",
        "generator.artifact_instrs",
        "freeze.freezes_per_filter",
        "store.loads",
        "store.saves",
        "packet.steps",
    ];
    for workload in Workload::ALL {
        let a = run_tiny(workload, 11, 48, true);
        let b = run_tiny(workload, 11, 48, true);
        for count in COUNTS {
            assert_eq!(a.get(count), b.get(count), "{} {count}", workload.name());
        }
        let same = run_tiny(workload, 11, 160, false);
        let again = run_tiny(workload, 11, 160, false);
        assert_eq!(
            same.get("steps_per_packet"),
            again.get("steps_per_packet"),
            "{}",
            workload.name()
        );
        let other = run_tiny(workload, 12, 160, false);
        let drift = (other.get("steps_per_packet") / same.get("steps_per_packet") - 1.0).abs();
        assert!(
            drift < 0.01,
            "{}: steps per packet moved {:.3}% between seeds",
            workload.name(),
            drift * 100.0
        );
    }
}
