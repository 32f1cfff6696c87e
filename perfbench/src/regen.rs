//! `regen`: every registered experiment once, serially, in paper order,
//! which is the user's `experiments all` path. Each runs through
//! `Registry::run_with_params` with the golden default parameters and an
//! enabled `Recorder`, and its `document_json` must equal
//! `tests/golden/<id>.json` byte for byte (with `elapsed_s` = 0).
//!
//! The inputs are the golden configuration, so the seed changes nothing
//! here; the set-up builds the registry and reads and parses the goldens.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use icoe::exp::document_json;
use icoe::hetsim::obs::json;
use icoe::hetsim::Recorder;
use icoe::{ExpParams, Registry, Report};

use crate::{host, Layers, Tally, Workload, WorkloadName};

pub struct Regen {
    registry: Registry,
    /// `(id, committed document)` in paper order.
    goldens: Vec<(&'static str, String)>,
}

/// Run one experiment under a fresh enabled recorder; a panic is an error.
fn run_one(registry: &Registry, id: &str) -> Result<(Report, Recorder), String> {
    let mut rec = Recorder::enabled();
    let report = catch_unwind(AssertUnwindSafe(|| {
        registry.run_with_params(id, &mut rec, &ExpParams::default())
    }))
    .map_err(|_| format!("{id} panicked"))?
    .ok_or_else(|| format!("{id} is not registered"))?;
    Ok((report, rec))
}

fn judge(tally: &mut Tally, id: &str, golden: &str, doc: Result<String, String>) {
    match doc {
        Ok(doc) => tally.check(1, doc == golden, || {
            format!("{id}: document differs from tests/golden/{id}.json")
        }),
        Err(e) => tally.check(1, false, || e),
    }
}

impl Workload for Regen {
    fn setup(_name: WorkloadName, _seed: u64) -> Result<(Regen, Layers), String> {
        let registry = bench::registry();
        let goldens = registry
            .ids()
            .into_iter()
            .map(|id| {
                let path = Path::new("tests/golden").join(format!("{id}.json"));
                let text = std::fs::read_to_string(&path).map_err(|e| {
                    format!("{}: {e} (run from the repository root)", path.display())
                })?;
                let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
                if doc.get("experiment").and_then(json::Value::as_str) != Some(id) {
                    return Err(format!("{} is not the document of {id}", path.display()));
                }
                Ok((id, text.trim_end_matches('\n').to_string()))
            })
            .collect::<Result<_, String>>()?;
        Ok((Regen { registry, goldens }, Layers::new()))
    }

    /// One unit per experiment: its run and its document.
    fn pass(&mut self, tally: &mut Tally, units: &mut Vec<f64>) -> f64 {
        for (id, golden) in &self.goldens {
            let t = host::process_cpu_s();
            let doc = run_one(&self.registry, id)
                .map(|(report, rec)| document_json(id, &report, &rec, 0.0));
            units.push(host::process_cpu_s() - t);
            judge(tally, id, golden, doc);
        }
        self.goldens.len() as f64
    }

    fn traced_pass(&mut self, tally: &mut Tally, layers: &mut Layers, _: f64, _: f64) -> f64 {
        let start = host::process_cpu_s();
        let (mut render_s, mut spans, mut counters) = (0.0, 0usize, 0usize);
        for (id, golden) in &self.goldens {
            let t = host::process_cpu_s();
            let out = run_one(&self.registry, id);
            layers.insert(format!("regen.{id}_s"), host::process_cpu_s() - t);
            let doc = out.map(|(report, rec)| {
                spans += rec.span_count();
                counters += rec.counters().len();
                let t = host::process_cpu_s();
                let doc = document_json(id, &report, &rec, 0.0);
                render_s += host::process_cpu_s() - t;
                doc
            });
            judge(tally, id, golden, doc);
        }
        let traced_s = host::process_cpu_s() - start;
        layers.insert("regen.doc_render_s".to_string(), render_s);
        layers.insert("regen.obs_spans".to_string(), spans as f64);
        layers.insert("regen.obs_counters".to_string(), counters as f64);
        traced_s
    }
}
