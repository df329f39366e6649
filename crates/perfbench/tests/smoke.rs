//! Keeps the benchmark from rotting: every workload runs end to end at a
//! tiny size (never reported), in both modes, and what it reports is held
//! against `BENCHMARK.json`.

use wormhole_perfbench::host::Host;
use wormhole_perfbench::json::Json;
use wormhole_perfbench::metrics::{MetricDef, END_TO_END, PER_LAYER};
use wormhole_perfbench::runner::{run_timed, run_traced, RunOptions, RunReport};
use wormhole_perfbench::spans::{self_times, trace_from_json};
use wormhole_perfbench::workloads::{Size, DEFAULT_SEED, WORKLOADS};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn str_of<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} missing in {v}"))
}

/// The metric table of `BENCHMARK.json` under `key` equals `table`.
fn assert_table_matches(bench: &Json, key: &str, table: &[MetricDef]) {
    let listed = bench.get(key).and_then(Json::as_arr).expect(key);
    assert_eq!(listed.len(), table.len(), "{key}: count differs");
    for (row, def) in listed.iter().zip(table) {
        assert_eq!(str_of(row, "name"), def.name, "{key}: order differs");
        assert_eq!(str_of(row, "unit"), def.unit, "{}", def.name);
        assert_eq!(str_of(row, "better"), def.better.name(), "{}", def.name);
        assert_eq!(
            row.get("bound").and_then(Json::as_f64),
            def.bound,
            "{}",
            def.name
        );
    }
}

fn assert_report(report: &RunReport, table: &[MetricDef]) {
    let name = report.def.name;
    assert_eq!(report.failed_ops, 0, "{name}: {:?}", report.failures);
    assert!(report.ops >= 1, "{name}: no operations");
    let line = report.result_line();
    let metrics = line.get("metrics").and_then(Json::as_obj).expect("metrics");
    assert_eq!(metrics.len(), table.len(), "{name}");
    for ((got, value), def) in metrics.iter().zip(table) {
        assert_eq!(got, def.name, "{name}");
        let x = value.get("value").and_then(Json::as_f64);
        assert!(x.is_some_and(f64::is_finite), "{name}: {got} = {x:?}");
        assert_eq!(str_of(value, "unit"), def.unit, "{name}: {got}");
    }
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)), "{name}");
}

#[test]
fn every_workload_runs_and_reports_what_benchmark_json_lists() {
    let bench = benchmark_json();
    assert_table_matches(&bench, "end_to_end", &END_TO_END);
    assert_table_matches(&bench, "per_layer", &PER_LAYER);
    let listed: Vec<&str> = bench
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| str_of(w, "name"))
        .collect();
    // `BENCHMARK.json` lists the workloads the acceptance check runs (its
    // time cap holds five at a run length that rides out this host's slow
    // phases); every one of them is defined here, in reporting order.
    let defined: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    let mut rest = defined.iter();
    for name in &listed {
        assert!(
            rest.any(|d| d == name),
            "{name}: not defined, or out of order"
        );
    }

    let host = Host::probe();
    let opts = RunOptions {
        seed: DEFAULT_SEED,
        seconds: 0.0,
        size: Size::Smoke,
        min_sample_s: 0.0,
        write_golden: false,
    };
    for def in &WORKLOADS {
        let timed = run_timed(def, opts, &host);
        assert_report(&timed, &END_TO_END);
        for (m, s) in &timed.metrics {
            assert!(s.median > 0.0, "{}: end-to-end {} is 0", def.name, m.name);
        }

        let traced = run_traced(def, opts, &host);
        assert_report(&traced, &PER_LAYER);
        assert_eq!(traced.digest, timed.digest, "{}", def.name);
        let value = |name: &str| {
            let (_, s) = traced
                .metrics
                .iter()
                .find(|(m, _)| m.name == name)
                .expect(name);
            s.median
        };
        assert_eq!(value("flitsim.fallbacks"), 0.0, "{}", def.name);
        assert_eq!(value("flitsim.divergences"), 0.0, "{}", def.name);
        assert!(value("flitsim.flit_hops") > 0.0, "{}", def.name);
        assert!(value("bench.trace_overhead") > 0.0, "{}", def.name);

        // The trace file parses back into a well-formed span forest.
        let text = traced
            .trace
            .as_ref()
            .expect("traced pass keeps a trace")
            .pretty();
        let spans = trace_from_json(&Json::parse(&text).expect("trace is JSON")).expect("spans");
        assert!(spans.iter().any(|s| s.name == "flitsim.event.run"));
        assert!(spans.iter().all(|s| s.run_id >= 1));
        self_times(&spans).expect("children stay inside their parents");
    }
}
