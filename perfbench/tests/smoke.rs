//! Tiny-preset smoke test: every workload, untraced and traced, ends with
//! no failed operation and prints exactly the metrics `BENCHMARK.json`
//! declares.

use std::path::Path;
use std::process::Command;

use serde::Value;

fn field<'a>(v: &'a Value, name: &str) -> &'a Value {
    v.as_object()
        .and_then(|pairs| pairs.iter().find(|(k, _)| k == name))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing field {name}"))
}

fn names(list: &Value) -> Vec<String> {
    list.as_array()
        .expect("a list")
        .iter()
        .map(|entry| field(entry, "name").as_str().expect("a name").to_string())
        .collect()
}

#[test]
fn every_workload_runs_clean_and_prints_the_declared_metrics() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let declared = std::fs::read_to_string(&manifest).expect("read BENCHMARK.json");
    let declared = serde_json::parse_value(&declared).expect("BENCHMARK.json is JSON");
    let cwd = Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke");
    std::fs::create_dir_all(&cwd).expect("create the smoke test's directory");

    for workload in names(field(&declared, "workloads")) {
        for (trace, kind) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args(["--workload", &workload, "--seed", "3", "--seconds", "1", "--trace", trace])
                .args(["--preset", "tiny"])
                .current_dir(&cwd)
                .output()
                .expect("run perfbench");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{workload} --trace {trace} failed:\n{stderr}");
            let last = stdout.lines().last().expect("a result line");
            let result = serde_json::parse_value(last).expect("the result line is JSON");
            assert_eq!(field(&result, "correct").as_bool(), Some(true), "{workload}: {stderr}");
            assert_eq!(field(&result, "failed").as_u64(), Some(0), "{workload}: {stderr}");
            assert!(field(&result, "attempted").as_u64() >= Some(1), "{workload}");
            let metrics = field(&result, "metrics").as_object().expect("metrics object");
            let printed: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
            assert_eq!(printed, names(field(&declared, kind)), "{workload} --trace {trace}");
            for (name, m) in metrics {
                assert!(field(m, "value").as_f64().is_some_and(f64::is_finite), "{name}");
            }
        }
    }
}
