//! Small-size runs of every workload: each must check its outputs,
//! report every metric `BENCHMARK.json` names, and fail no op.

use std::time::Duration;

use mctop_perfbench::report::{
    valid_name,
    Report, //
};
use mctop_perfbench::{
    run_traced,
    run_untraced,
    Cfg,
    Size,
    Workload, //
};

const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

/// The metric names listed under `section` in `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let list = BENCHMARK
        .split_once(&format!("\"{section}\""))
        .and_then(|(_, rest)| rest.split_once(']'))
        .map(|(list, _)| list)
        .expect("section present");
    list.split("\"name\":")
        .skip(1)
        .filter_map(|s| s.trim_start().strip_prefix('"')?.split_once('"'))
        .map(|(name, _)| name.to_string())
        .collect()
}

fn smoke(seed: u64) -> Cfg {
    Cfg {
        seed,
        window: Duration::from_millis(400),
        size: Size::Smoke,
    }
}

fn assert_complete(r: &Report, names: &[String]) {
    assert!(
        r.correct(),
        "failed {} of {}: {:?}",
        r.failed,
        r.attempted,
        r.notes
    );
    assert!(r.attempted > 0);
    let got: Vec<&str> = r.metrics.iter().map(|m| m.name.as_str()).collect();
    for name in names {
        assert!(got.contains(&name.as_str()), "missing metric {name}");
    }
    assert_eq!(
        got.len(),
        names.len(),
        "metrics beyond BENCHMARK.json: {got:?}"
    );
    for m in &r.metrics {
        assert!(valid_name(&m.name), "{}", m.name);
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
    }
}

#[test]
fn declared_names_follow_the_grammar() {
    let e2e = declared("end_to_end");
    let layers = declared("per_layer");
    assert_eq!(e2e, ["setup_s", "p50_ms", "peak_rss_mb"]);
    assert!(layers.len() >= 60, "{}", layers.len());
    for name in e2e.iter().chain(&layers) {
        assert!(valid_name(name), "{name}");
    }
    let mut all: Vec<&String> = e2e.iter().chain(&layers).collect();
    all.sort();
    all.dedup();
    assert_eq!(all.len(), e2e.len() + layers.len(), "names are unique");
}

#[test]
fn every_workload_checks_its_outputs() {
    let e2e = declared("end_to_end");
    for w in Workload::ALL {
        let r = run_untraced(w, &smoke(3)).expect("set-up succeeds");
        assert_complete(&r, &e2e);
        for name in &e2e {
            assert!(r.get(name).unwrap() > 0.0, "{}: {name} is 0", w.name());
        }
    }
}

#[test]
fn traced_run_reports_every_layer() {
    let layers = declared("per_layer");
    let r = run_traced(Workload::Runtime, &smoke(5)).expect("set-up succeeds");
    assert_complete(&r, &layers);
    // The smoke inference replicas regenerated their descriptions byte
    // for byte, so the stage times are real.
    assert!(r.get("alg.collect_ms").unwrap() > 0.0);
    assert!(r.get("alg.assemble_ms.mesh").unwrap() > 0.0);
    assert_eq!(r.get("server.errors"), Some(0.0));
    assert!(r.get("alg.probed_fraction.mesh").unwrap() < 1.0);
}
