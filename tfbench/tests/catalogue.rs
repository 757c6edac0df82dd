//! `BENCHMARK.json` is the catalogue's rendering, byte for byte, and the
//! catalogue stays inside the benchmark format's limits.

use std::collections::HashSet;

use tfbench::catalogue::{
    benchmark_json, Better, COMMAND, END_TO_END, PATHS, PER_LAYER, RUN_SECONDS, WORKLOADS,
};

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn committed_benchmark_json_is_the_catalogue_rendering() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(
        committed == benchmark_json(),
        "BENCHMARK.json is stale; regenerate it with `tfbench catalogue > BENCHMARK.json`"
    );
    assert!(committed.len() <= 64 * 1024);
}

#[test]
fn catalogue_stays_inside_the_format_limits() {
    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    assert!((1..=60).contains(&RUN_SECONDS));

    let mut seen = HashSet::new();
    for name in WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name))
    {
        assert!(is_name(name), "bad name {name:?}");
        assert!(seen.insert(name), "name {name:?} used twice");
    }
    for w in WORKLOADS {
        assert!(
            !w.why.is_empty() && w.why.len() <= 200 && !w.why.contains('\n'),
            "why of {}",
            w.name
        );
    }
    for m in END_TO_END {
        assert!(is_unit(m.unit), "unit of {}", m.name);
        assert!(m.bound > 0.0 && m.bound <= 0.25, "bound of {}", m.name);
    }
    for m in PER_LAYER {
        assert!(is_unit(m.unit), "unit of {}", m.name);
    }

    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s must carry the largest bound"
    );

    assert!((1..=16).contains(&PATHS.len()));
    for p in PATHS {
        assert!(
            p.len() <= 200
                && !p.starts_with('/')
                && !p.split('/').any(|c| c == ".." || c.is_empty())
        );
        assert!(
            p.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-/".contains(c)),
            "path {p:?}"
        );
    }
    assert!(!COMMAND.is_empty() && COMMAND.len() <= 32);
    for arg in COMMAND {
        assert!(
            arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."),
            "command argument {arg:?}"
        );
        if arg.contains('/') {
            assert!(
                PATHS.iter().any(|p| arg.starts_with(&format!("{p}/"))),
                "{arg} lies outside the benchmark paths"
            );
        }
    }
}

#[test]
fn every_layer_metric_names_an_end_to_end_metric_and_workloads_that_exist() {
    for m in PER_LAYER {
        assert!(
            END_TO_END.iter().any(|e| e.name == m.moves),
            "{} moves unknown {}",
            m.name,
            m.moves
        );
        assert!(!m.on.is_empty(), "{} names no workload", m.name);
        for w in m.on {
            assert!(
                WORKLOADS.iter().any(|x| x.name == *w),
                "{} names unknown workload {w}",
                m.name
            );
        }
    }
}
