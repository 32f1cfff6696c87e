//! The metric catalogue: every name the benchmark reports, with its unit,
//! in the order `BENCHMARK.json` lists them, and the result line built
//! from it.

use icoe::hetsim::obs::json;

use crate::{fleet, Layers, Tally};

/// End-to-end metrics of an untraced run, in processor seconds of the
/// whole process. `pass_cpu_s` sums the best time of each of a pass's
/// units over the run (see `main.rs`). On `regen` one pass is the whole
/// registry, so it is what `experiments all` costs; on the fleet workloads
/// `ops_per_cpu_s` is placed jobs per processor second over the four
/// policies, and on `node-step` simulated steps per processor second.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    [
        ("setup_s", "s"),
        ("pass_cpu_s", "s"),
        ("ops_per_cpu_s", "1/s"),
        ("peak_rss_mb", "MiB"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect()
}

/// Per-layer metrics of a traced run, each timed from outside around the
/// layer's public calls.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = bench::ALL
        .iter()
        .map(|id| (format!("regen.{id}_s"), "s"))
        .collect();
    for (name, unit) in [
        ("regen.doc_render_s", "s"),
        ("regen.obs_spans", "count"),
        ("regen.obs_counters", "count"),
        ("cluster.stream_gen_s", "s"),
        ("cluster.sim_new_s", "s"),
    ] {
        v.push((name.to_string(), unit));
    }
    for (p, _) in fleet::POLICIES {
        for (metric, unit) in [
            ("cluster.run_s", "s"),
            ("sched.select_ns", "ns"),
            ("sched.select_calls", "count"),
            ("sched.queue_len_mean", "count"),
            ("sched.select_share", "%"),
            ("cluster.bookkeeping_ns_per_job", "ns"),
        ] {
            v.push((format!("{metric}.{p}"), unit));
        }
    }
    for name in [
        "des.ns_per_event",
        "sim.launch_ns",
        "sim.transfer_ns",
        "mem.touch_ns",
        "network.collective_ns",
        "portal.staged_ns",
        "obs.ns_per_span",
    ] {
        v.push((name.to_string(), "ns"));
    }
    v.push(("trace.overhead_s".to_string(), "s"));
    v
}

/// The JSON result line: every catalogued metric of the mode, in order.
/// A per-layer metric the workload does not drive reads 0; a missing
/// end-to-end metric, an uncatalogued name or a non-finite value is an
/// error.
pub fn result_line(trace: bool, tally: &Tally, values: &Layers) -> Result<String, String> {
    let names = if trace { per_layer() } else { end_to_end() };
    if let Some(stray) = values.keys().find(|k| !names.iter().any(|(n, _)| n == *k)) {
        return Err(format!("metric '{stray}' is not in the catalogue"));
    }
    let mut fields = Vec::with_capacity(names.len());
    for (name, unit) in &names {
        let value = match values.get(name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => return Err(format!("metric '{name}' is not finite: {v}")),
            None if trace => 0.0,
            None => return Err(format!("metric '{name}' was not measured")),
        };
        fields.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json::escape(name),
            json::num(value),
            json::escape(unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        fields.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        for (key, ours) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(json::Value::as_array)
                .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(json::Value::as_str)
                            .unwrap_or_else(|| panic!("{key} entry without {f}"))
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> =
                ours.into_iter().map(|(n, u)| (n, u.to_string())).collect();
            assert_eq!(
                listed, ours,
                "BENCHMARK.json {key} drifted from the catalogue"
            );
        }
    }

    #[test]
    fn result_line_is_json_with_every_metric() {
        let tally = Tally {
            attempted: 4,
            failed: 1,
        };
        let values = Layers::from([("trace.overhead_s".to_string(), 0.5)]);
        let line = result_line(true, &tally, &values).expect("catalogued");
        let v = json::parse(&line).expect("result line parses");
        assert_eq!(v.get("correct").and_then(json::Value::as_bool), Some(false));
        assert_eq!(v.get("attempted").and_then(json::Value::as_f64), Some(4.0));
        let metrics = v.get("metrics").expect("metrics");
        let overhead = metrics.get("trace.overhead_s").expect("driven metric");
        assert_eq!(
            overhead.get("value").and_then(json::Value::as_f64),
            Some(0.5)
        );
        let undriven = metrics.get("sched.select_ns.sjf").expect("undriven metric");
        assert_eq!(
            undriven.get("value").and_then(json::Value::as_f64),
            Some(0.0)
        );

        assert!(
            result_line(false, &tally, &values).is_err(),
            "not end to end"
        );
        let partial = Layers::from([("setup_s".to_string(), 1.0)]);
        assert!(
            result_line(false, &tally, &partial).is_err(),
            "missing metrics"
        );
    }
}
