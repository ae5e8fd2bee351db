//! Self-tests: metric names, agreement with `BENCHMARK.json`, the serve
//! conservation check, and a small-size smoke run of every workload,
//! untraced and traced, so the benchmark cannot rot.

use super::*;
use gcr_cli::report::Json;

fn well_formed(name: &str) -> bool {
    let first = name.chars().next();
    name.len() <= 64
        && first.is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn metric_names_are_well_formed_and_unique() {
    let mut seen = std::collections::BTreeSet::new();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(well_formed(name), "bad metric name {name:?}");
        assert!(seen.insert(*name), "metric {name} listed twice");
        assert!(!unit.is_empty() && unit.len() <= 16, "bad unit {unit:?} for {name}");
    }
    for w in WORKLOADS {
        assert!(well_formed(w), "bad workload name {w:?}");
    }
}

fn names_units(list: &Json) -> Vec<(String, String)> {
    let Json::A(items) = list else { panic!("expected a list") };
    items
        .iter()
        .map(|m| match (m.get("name"), m.get("unit")) {
            (Some(Json::S(n)), Some(Json::S(u))) => (n.clone(), u.clone()),
            _ => panic!("metric without name or unit"),
        })
        .collect()
}

#[test]
fn tables_match_benchmark_json() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json next to the benchmark directory");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(names_units(json.get("end_to_end").unwrap()), own(END_TO_END));
    assert_eq!(names_units(json.get("per_layer").unwrap()), own(PER_LAYER));
    let Some(Json::A(workloads)) = json.get("workloads") else { panic!("no workloads") };
    let names: Vec<&str> = workloads
        .iter()
        .map(|w| match w.get("name") {
            Some(Json::S(n)) => n.as_str(),
            _ => panic!("workload without a name"),
        })
        .collect();
    assert_eq!(names, WORKLOADS);
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    let mut o = Outcome::default();
    o.check(true, String::new);
    o.setups_s = vec![0.5];
    o.passes_s = vec![1.0, 2.0, 3.0];
    o.ops_ms = vec![(0, 3.0), (1, 2.0), (0, 1.0), (1, 4.0)];
    o.batch = true;
    let cfg =
        Config { workload: "gallery".into(), seed: 1, seconds: 1.0, trace: false, smoke: true };
    let line = result_line(&o, &metrics_of(&cfg, &o, 10.0));
    let json = Json::parse(&line).expect("result line is JSON");
    let Json::O(fields) = &json else { panic!("result line is an object") };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| *k).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let Some(Json::O(metrics)) = json.get("metrics") else { panic!("metrics object") };
    assert_eq!(metrics.len(), END_TO_END.len());
    // Per-key bests: key 0 has 1.0, key 1 has 2.0; a batch pass is their
    // sum, 3 ms.
    let value = |name: &str| json.get("metrics").unwrap().get(name).unwrap().get("value").cloned();
    assert_eq!(value("op_p50_ms"), Some(Json::F(1.5)));
    assert_eq!(value("pass_s"), Some(Json::F(0.003)));
}

/// Runs one workload at smoke sizes and checks the result is complete.
fn smoke(workload: &str, trace: bool) {
    let cfg = Config { workload: workload.into(), seed: 7, seconds: 0.01, trace, smoke: true };
    let o = run_workload(&cfg).expect("known workload");
    assert!(o.attempted > 0, "{workload}: nothing attempted");
    assert_eq!(o.failed, 0, "{workload} (trace {trace}) failures: {:#?}", o.failures);
    let metrics = metrics_of(&cfg, &o, 1.0);
    let want = if trace { PER_LAYER.len() } else { END_TO_END.len() };
    assert_eq!(metrics.len(), want);
    for (name, value, _) in metrics {
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        if !trace {
            assert!(value > 0.0, "{workload}: end-to-end metric {name} reads 0");
        }
    }
    if trace {
        assert!(o.layers.get("trace.coverage").is_some_and(|c| *c >= MIN_COVERAGE));
        assert!(o.spans.as_ref().is_some_and(|s| !s.all().is_empty()));
    }
}

#[test]
fn smoke_gallery() {
    smoke("gallery", false);
    smoke("gallery", true);
}

#[test]
fn smoke_sweep() {
    smoke("sweep", false);
    smoke("sweep", true);
}

#[test]
fn smoke_serve() {
    smoke("serve", false);
    smoke("serve", true);
}

#[test]
fn smoke_static() {
    smoke("static", false);
    smoke("static", true);
}

#[test]
fn serve_conservation_flags_a_miscount() {
    let server = gcr_serve::Server::new(
        gcr_serve::ServerConfig::default(),
        gcr_bench::sweep::MeasureCache::new(),
    );
    let req = gcr_serve::Request::new("measure").with("app", "ADI").with("size", 12);
    assert!(server.handle(&req.encode()).is_ok());
    let mut ok = Outcome::default();
    serve::conservation(&mut ok, &server, 1);
    assert_eq!(ok.failed, 0, "{:?}", ok.failures);
    let mut bad = Outcome::default();
    serve::conservation(&mut bad, &server, 2);
    assert_eq!(bad.failed, 1, "a lookup the cache did not count must be flagged");
}
