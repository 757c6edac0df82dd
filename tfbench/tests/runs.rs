//! Toy-size runs of the benchmark binary (`--scale 0.01`; the benchmark
//! command itself never sets it): every catalogue metric is printed with
//! its unit in both modes, and a perturbed reference fails the run.
//!
//! The `serve-mixed` run needs the `tf-serve` binary next to `tfbench`,
//! so it is ignored by default. Run it with
//!
//! ```text
//! cargo build --release --manifest-path tfbench/Cargo.toml -p tf-serve
//! cargo test --release --manifest-path tfbench/Cargo.toml -- --ignored
//! ```

use std::path::Path;
use std::process::{Command, Output};

use serde::Value;
use tfbench::catalogue::{END_TO_END, PER_LAYER};

fn tfbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tfbench"))
        .args(args)
        .output()
        .expect("tfbench runs")
}

fn toy(workload: &str, trace: &str, extra: &[&str]) -> Output {
    let mut args = vec![
        "run",
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "1",
        "--scale",
        "0.01",
        "--trace",
        trace,
    ];
    args.extend_from_slice(extra);
    tfbench(&args)
}

/// The JSON result line (the last line of standard output).
fn result(out: &Output) -> Value {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).unwrap_or_else(|e| panic!("result line {last:?}: {e}"))
}

fn assert_prints_every_metric(workload: &str) {
    for (trace, catalogue) in [
        (
            "0",
            END_TO_END
                .iter()
                .map(|m| (m.name, m.unit))
                .collect::<Vec<_>>(),
        ),
        ("1", PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()),
    ] {
        let out = toy(workload, trace, &[]);
        assert!(
            out.status.success(),
            "{workload} --trace {trace} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let r = result(&out);
        assert_eq!(r.get("correct"), Some(&Value::Bool(true)));
        let metrics = r.get("metrics").and_then(Value::as_map).expect("metrics");
        assert_eq!(metrics.len(), catalogue.len(), "{workload} --trace {trace}");
        for (name, unit) in catalogue {
            let m = r
                .get("metrics")
                .and_then(|m| m.get(name))
                .unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit), "{name}");
            let v: f64 =
                serde::Deserialize::from_value(m.get("value").expect("value")).expect("a number");
            assert!(v.is_finite(), "{name} = {v}");
        }
    }
}

#[test]
fn rr_stream_prints_every_metric_in_both_modes() {
    assert_prints_every_metric("stream-rr-heavy");
}

#[test]
fn flow_stream_prints_every_metric_in_both_modes() {
    assert_prints_every_metric("stream-flows-wrr");
}

#[test]
fn sweep_prints_every_metric_in_both_modes() {
    assert_prints_every_metric("ratio-sweep-l2");
}

#[test]
#[ignore = "needs the release tf-serve binary next to tfbench; see the module docs"]
fn serve_prints_every_metric_in_both_modes() {
    assert_prints_every_metric("serve-mixed");
}

#[test]
fn a_perturbed_reference_fails_the_run() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let path = dir.join("perturbed-reference.tsv");
    let path_s = path.to_str().expect("utf-8 path");
    let _ = std::fs::remove_file(&path);

    let rec = toy(
        "stream-rr-heavy",
        "0",
        &["--record-reference", "--reference", path_s],
    );
    assert!(
        rec.status.success(),
        "{}",
        String::from_utf8_lossy(&rec.stderr)
    );
    let ok = toy("stream-rr-heavy", "0", &["--reference", path_s]);
    assert!(
        ok.status.success(),
        "{}",
        String::from_utf8_lossy(&ok.stderr)
    );
    assert_eq!(result(&ok).get("failed"), Some(&Value::Int(0)));

    let text = std::fs::read_to_string(&path).expect("recorded reference");
    // Move the mean flow by one part in a million, far outside the 1e-9
    // relative tolerance.
    let perturbed: String = text
        .lines()
        .map(|l| {
            let mut f: Vec<String> = l.split('\t').map(String::from).collect();
            if f.get(3).map(String::as_str) == Some("mean_flow") {
                let v: f64 = f[4].parse().expect("a number");
                f[4] = format!("{:?}", v * (1.0 + 1e-6));
            }
            f.join("\t") + "\n"
        })
        .collect();
    assert_ne!(perturbed, text, "the reference has a mean_flow row");
    std::fs::write(&path, perturbed).expect("write perturbed reference");

    let bad = toy("stream-rr-heavy", "0", &["--reference", path_s]);
    assert!(
        !bad.status.success(),
        "a perturbed reference must fail the run"
    );
    assert_eq!(result(&bad).get("correct"), Some(&Value::Bool(false)));
}
