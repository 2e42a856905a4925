//! Self-tests of the benchmark: it emits what `BENCHMARK.json` declares,
//! its simulated counts repeat exactly, its poll split adds up, and its
//! bounds catch a deliberate slowdown.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.
//! Timings must not overlap: every test holds one lock, so no two of them
//! run at the same time.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;
use std::sync::Mutex;

use tc_perfbench::json::Json;

static SERIAL: Mutex<()> = Mutex::new(());

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn declared() -> Json {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json is readable");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// Run the benchmark binary and return its result line.
fn bench(args: &[&str]) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_tc-perfbench"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("the benchmark starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{args:?} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let result =
        Json::parse(stdout.lines().last().expect("a result line")).expect("the result line parses");
    assert_eq!(
        result.get("correct"),
        Some(&Json::Bool(true)),
        "{args:?}: {stdout}"
    );
    result
}

fn metrics(result: &Json) -> BTreeMap<String, (f64, String)> {
    result
        .get("metrics")
        .expect("metrics")
        .members()
        .iter()
        .map(|(n, m)| {
            let v = m.get("value").and_then(Json::num).expect("a numeric value");
            let u = m.get("unit").and_then(Json::str).expect("a unit");
            (n.clone(), (v, u.to_string()))
        })
        .collect()
}

fn traced(workload: &str) -> BTreeMap<String, (f64, String)> {
    metrics(&bench(&[
        "--workload",
        workload,
        "--seconds",
        "0",
        "--trace",
        "1",
    ]))
}

#[test]
fn every_declared_workload_emits_every_declared_metric_with_its_unit() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let spec = declared();
    for w in spec.get("workloads").expect("workloads").arr() {
        let name = w.get("name").and_then(Json::str).expect("a workload name");
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let got = metrics(&bench(&[
                "--workload",
                name,
                "--seconds",
                "0",
                "--trace",
                trace,
            ]));
            let want: BTreeMap<String, String> = spec
                .get(key)
                .expect("metric list")
                .arr()
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::str).unwrap().into(),
                        m.get("unit").and_then(Json::str).unwrap().into(),
                    )
                })
                .collect();
            let got_units: BTreeMap<String, String> = got
                .iter()
                .map(|(n, (_, u))| (n.clone(), u.clone()))
                .collect();
            assert_eq!(got_units, want, "{name} --trace {trace}");
        }
    }
}

#[test]
fn traced_count_metrics_repeat_exactly() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for w in ["gpu_poll", "msg_protocol"] {
        let counts = |m: BTreeMap<String, (f64, String)>| -> BTreeMap<String, f64> {
            m.into_iter()
                .filter(|(_, (_, u))| u == "count" || u == "bytes")
                .map(|(n, (v, _))| (n, v))
                .collect()
        };
        let (a, b) = (counts(traced(w)), counts(traced(w)));
        assert!(a.len() > 20, "{w}: only {} count metrics", a.len());
        assert_eq!(
            a, b,
            "{w}: simulated counts differ between two traced passes"
        );
    }
}

#[test]
fn poll_split_sums_to_total() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for w in ["gpu_poll", "msg_protocol"] {
        let m = traced(w);
        let get = |n: &str| m[n].0;
        let split: f64 = ["driver", "gpu", "nic", "fabric", "other"]
            .iter()
            .map(|p| get(&format!("desim.polls.{p}")))
            .sum();
        assert!(get("desim.polls") > 0.0, "{w}: no polls counted");
        assert_eq!(split, get("desim.polls"), "{w}: poll split does not add up");
        if w == "gpu_poll" {
            // The paper's premise: GPU-controlled communication spends its
            // time in the driver's spin loops.
            assert!(
                get("desim.polls.driver") >= 0.9 * get("desim.polls"),
                "{w}: driver polls are not dominant"
            );
        }
    }
}

/// A slowdown to 70% of the simulator's speed, injected by the harness
/// around each simulation (every set-up and run takes 1/0.7 times as
/// long), must worsen every time metric by more than its bound, measured
/// the way a regression check measures it. Base and slowed runs
/// alternate, and each pair is compared on its own, so slow phases of a
/// shared host hit both sides of a pair alike.
#[test]
fn bounds_flag_an_injected_slowdown() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let spec = declared();
    let slowdown = (1.0 / 0.7 - 1.0).to_string();
    let run = |inject: &str| {
        metrics(&bench(&[
            "--workload",
            "msg_protocol",
            "--seconds",
            "3",
            "--inject-slowdown",
            inject,
        ]))
    };
    let pairs: Vec<_> = (0..7).map(|_| (run("0"), run(&slowdown))).collect();
    for m in spec.get("end_to_end").expect("end_to_end").arr() {
        let name = m.get("name").and_then(Json::str).unwrap();
        if m.get("unit").and_then(Json::str) == Some("MB") {
            continue; // memory does not depend on time
        }
        let bound = m.get("bound").and_then(Json::num).unwrap();
        let lower_is_better = m.get("better").and_then(Json::str) == Some("lower");
        let mut worse: Vec<f64> = pairs
            .iter()
            .map(|(base, slow)| {
                let (b, s) = (base[name].0, slow[name].0);
                if lower_is_better {
                    (s - b) / b
                } else {
                    (b - s) / b
                }
            })
            .collect();
        worse.sort_by(f64::total_cmp);
        let median = worse[worse.len() / 2];
        assert!(median > bound, "{name}: the injected slowdown moved it by {median:.3} (pairs {worse:?}), inside the bound {bound}");
    }
}
