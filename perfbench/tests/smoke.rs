//! Tiny-size runs of every workload: each prints every end-to-end metric
//! `BENCHMARK.json` lists, with its unit (every per-layer metric when
//! traced), and a tampered output fails the run.

use std::path::PathBuf;
use std::process::Command;

use disc_serve::json::{self, Json};

const WORKLOADS: [&str; 3] = ["repair_batch", "stream_durable", "serve_mixed"];

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
fn listed(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(key)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs one tiny workload in its own scratch directory; returns the exit
/// code and the last stdout line.
fn run(workload: &str, trace: &str, tamper: bool) -> (i32, String) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("smoke-{workload}-{trace}-{tamper}"));
    std::fs::create_dir_all(&dir).expect("create the scratch directory");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.current_dir(&dir).args([
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "0.2",
        "--trace",
        trace,
        "--size",
        "tiny",
    ]);
    if tamper {
        cmd.arg("--tamper");
    }
    let out = cmd.output().expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default().to_string();
    (out.status.code().unwrap_or(-1), last)
}

/// The `"value"` of `name` if it is printed with `unit`.
fn value_with_unit(line: &str, name: &str, unit: &str) -> Option<f64> {
    let start = line.find(&format!("\"{name}\": {{\"value\": "))?;
    let rest = &line[start + name.len() + 14..];
    let end = rest.find(',')?;
    let value = rest[..end].parse().ok()?;
    rest[end..]
        .starts_with(&format!(", \"unit\": \"{unit}\"}}"))
        .then_some(value)
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    for w in WORKLOADS {
        let (code, line) = run(w, "0", false);
        assert_eq!(code, 0, "{w}: {line}");
        assert!(
            line.starts_with(r#"{"correct": true, "attempted": "#),
            "{w}: {line}"
        );
        for (name, unit) in listed("end_to_end") {
            let v = value_with_unit(&line, &name, &unit)
                .unwrap_or_else(|| panic!("{w}: {name} [{unit}] missing in {line}"));
            assert!(v > 0.0, "{w}: {name} = {v}");
        }
        assert_eq!(
            value_with_unit(&line, "ok_op_frac", "frac"),
            Some(1.0),
            "{w}"
        );
    }
}

#[test]
fn traced_runs_print_per_layer_metrics() {
    for w in WORKLOADS {
        let (code, line) = run(w, "1", false);
        assert_eq!(code, 0, "{w}: {line}");
        for (name, unit) in listed("per_layer") {
            assert!(
                value_with_unit(&line, &name, &unit).is_some(),
                "{w}: {name} [{unit}] missing in {line}"
            );
        }
        assert!(
            !line.contains("\"rows_per_s\""),
            "{w}: end-to-end metric in a traced run"
        );
    }
}

#[test]
fn a_tampered_output_fails_the_run() {
    for w in WORKLOADS {
        let (code, line) = run(w, "0", true);
        assert_eq!(code, 1, "{w}: {line}");
        assert!(line.starts_with(r#"{"correct": false"#), "{w}: {line}");
    }
}
