//! Self-test of the benchmark: every workload at a tiny size with a fixed
//! seed. Run from the repository root or anywhere:
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml                      # end-to-end side
//! cargo test --release --manifest-path perfbench/Cargo.toml --features traced    # both sides
//! ```

use std::process::Command;
use std::sync::Mutex;

use cyclesteal_svc::json::{self, Value};

const WORKLOADS: [&str; 3] = ["paper_grid", "fleet_grid", "daemon_mix"];

/// One benchmark process at a time: the daemon workload's open-loop
/// integrity check must not compete with a parallel test for the cores.
static SERIAL: Mutex<()> = Mutex::new(());

struct Run {
    ok: bool,
    stdout: String,
    last: Option<Value>,
}

fn bench(workload: &str, trace: u8, extra: &[&str]) -> Run {
    let _one = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let work = format!("{}/selftest", env!("CARGO_TARGET_TMPDIR"));
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args([
            "--trace",
            &trace.to_string(),
            "--size",
            "tiny",
            "--work-dir",
            &work,
        ])
        .args(extra)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().and_then(|l| json::parse(l).ok());
    Run {
        ok: out.status.success(),
        stdout,
        last,
    }
}

/// (name, unit) of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc = json::parse(&text).expect("BENCHMARK.json is JSON");
    doc.get(section)
        .and_then(Value::as_arr)
        .expect("section present")
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

fn metric_line<'a>(stdout: &'a str, name: &str) -> Option<&'a str> {
    let prefix = format!("metric {name} = ");
    stdout.lines().find(|l| l.starts_with(&prefix))
}

/// The result line carries exactly the declared metrics, each with its
/// unit, and the human lines print each one with its unit and sample count.
fn assert_prints(run: &Run, metrics: &[(String, String)]) {
    let last = run.last.as_ref().expect("last line is the result JSON");
    let printed = match last.get("metrics") {
        Some(Value::Obj(fields)) => fields.clone(),
        other => panic!("metrics object missing: {other:?}"),
    };
    assert_eq!(printed.len(), metrics.len(), "{}", run.stdout);
    for (name, unit) in metrics {
        let m = last
            .get("metrics")
            .and_then(|m| m.get(name))
            .unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        assert!(
            m.get("value").and_then(Value::as_f64).is_some(),
            "{name} has a number"
        );
        let line = metric_line(&run.stdout, name).unwrap_or_else(|| panic!("no line for {name}"));
        assert!(line.contains(&format!(" {unit} (n=")), "{line}");
    }
}

fn assert_clean(run: &Run) {
    assert!(run.ok, "{}", run.stdout);
    let last = run.last.as_ref().expect("result JSON");
    assert_eq!(
        last.get("correct").and_then(Value::as_bool),
        Some(true),
        "{}",
        run.stdout
    );
    assert_eq!(
        last.get("failed").and_then(Value::as_u64),
        Some(0),
        "{}",
        run.stdout
    );
    assert!(last.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 1);
    assert!(
        metric_line(&run.stdout, "failed_frac").is_some(),
        "{}",
        run.stdout
    );
}

#[test]
fn every_workload_prints_every_end_to_end_metric_with_its_unit() {
    let metrics = declared("end_to_end");
    for w in WORKLOADS {
        let run = bench(w, 0, &[]);
        assert_clean(&run);
        assert_prints(&run, &metrics);
        assert!(
            run.stdout.contains("report-only query_p50_ms = ")
                && run.stdout.contains("report-only query_p99_ms = "),
            "{}",
            run.stdout
        );
        assert!(
            run.stdout.contains("digest "),
            "inputs digest printed: {}",
            run.stdout
        );
    }
}

#[test]
fn a_corrupted_oracle_value_is_caught_as_a_failure() {
    for w in WORKLOADS {
        let run = bench(w, 0, &["--corrupt-oracle"]);
        assert!(run.ok, "{}", run.stdout);
        let last = run.last.as_ref().expect("result JSON");
        assert_eq!(
            last.get("correct").and_then(Value::as_bool),
            Some(false),
            "{w}: {}",
            run.stdout
        );
        assert!(
            last.get("failed").and_then(Value::as_u64).unwrap_or(0) >= 1,
            "{w}"
        );
        assert!(run.stdout.contains("MISMATCH"), "{w}: {}", run.stdout);
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &["--workload", "nope", "--seed", "1", "--seconds", "1"][..],
        &["--seed", "1"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("benchmark binary runs");
        assert!(!out.status.success());
        assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
    }
}

#[cfg(feature = "traced")]
#[test]
fn every_per_layer_metric_is_printed_and_names_what_it_should_move() {
    let metrics = declared("per_layer");
    let e2e: Vec<String> = declared("end_to_end").into_iter().map(|(n, _)| n).collect();
    for w in WORKLOADS {
        let run = bench(w, 1, &[]);
        assert_clean(&run);
        assert_prints(&run, &metrics);
        for (name, _) in &metrics {
            let line = metric_line(&run.stdout, name).expect("line printed");
            let moves = line
                .split("[moves ")
                .nth(1)
                .unwrap_or_else(|| panic!("{line}"));
            let names_target = moves.starts_with("none:")
                || (WORKLOADS
                    .iter()
                    .any(|w| moves.contains(&format!(" on {w}")))
                    && (e2e.iter().any(|m| moves.starts_with(m.as_str()))
                        || moves.starts_with("failed_frac")
                        || moves.starts_with("query_p50_ms (report-only)")
                        || moves.starts_with("query_p99_ms (report-only)")));
            assert!(names_target, "{line}");
        }
    }
}
