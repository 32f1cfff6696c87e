//! The unified experiment API: one trait, one registry, one report shape.
//!
//! Every paper artifact (`table1`, `fig8`, …) implements [`Experiment`]:
//! an id, the paper artifact it regenerates, and a `run` that takes an
//! observability [`Recorder`] and returns a [`Report`] of tables. The
//! `bench` crate registers its artifacts into a [`Registry`]; the
//! `experiments` binary (and any test) then drives them uniformly —
//! every run happens under a root span named `exp:<id>`, and reports can
//! be rendered as text or structured JSON.

use hetsim::obs::{json, Recorder, SpanKind};

use crate::report::Table;

/// What one experiment run produced.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub tables: Vec<Table>,
}

impl Report {
    pub fn new(tables: Vec<Table>) -> Report {
        Report { tables }
    }

    /// Render every table as aligned plain text.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for t in &self.tables {
            out.push_str(&t.render());
            out.push('\n');
        }
        out
    }

    /// The tables as a JSON array (hand-rolled; the workspace serde is a
    /// no-op shim).
    pub fn tables_json(&self) -> String {
        let mut out = String::from("[");
        for (i, t) in self.tables.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"title\":{},\"headers\":[",
                json::escape(&t.title)
            ));
            for (j, h) in t.headers.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&json::escape(h));
            }
            out.push_str("],\"rows\":[");
            for (j, row) in t.rows.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push('[');
                for (k, cell) in row.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    out.push_str(&json::escape(cell));
                }
                out.push(']');
            }
            out.push_str("]}");
        }
        out.push(']');
        out
    }
}

/// Typed run parameters for an experiment: the seed and scale knobs the
/// `experiments` binary exposes as `--param k=v`.
///
/// [`ExpParams::default`] is the golden configuration — every
/// conformance document in `tests/golden/` is generated with it, and
/// experiments must be byte-identical under it to a call that never
/// mentions params at all (the provided [`Experiment::run`] guarantees
/// this by construction).
#[derive(Debug, Clone, PartialEq)]
pub struct ExpParams {
    seed: u64,
    scale: f64,
    machine: String,
}

impl Default for ExpParams {
    fn default() -> ExpParams {
        ExpParams {
            seed: 42,
            scale: 1.0,
            machine: "sierra".to_string(),
        }
    }
}

impl ExpParams {
    pub fn new() -> ExpParams {
        ExpParams::default()
    }

    /// RNG seed for every stochastic draw the experiment makes.
    pub fn with_seed(mut self, seed: u64) -> ExpParams {
        self.seed = seed;
        self
    }

    /// Problem-size multiplier (> 0): experiments scale their job counts
    /// / iteration counts by this.
    pub fn with_scale(mut self, scale: f64) -> ExpParams {
        assert!(scale > 0.0 && scale.is_finite(), "scale must be positive");
        self.scale = scale;
        self
    }

    /// Target machine preset (`hetsim::machines::preset` name). The
    /// default, "sierra", is the golden path: machine-sensitive
    /// experiments must be byte-identical under it to a run that never
    /// mentions the machine at all. Panics on unknown names — use
    /// [`ExpParams::set`] for fallible CLI input.
    pub fn with_machine(mut self, name: &str) -> ExpParams {
        assert!(
            hetsim::machines::preset(name).is_some(),
            "unknown machine preset '{name}'"
        );
        self.machine = name.to_string();
        self
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The target machine preset's registry name.
    pub fn machine_name(&self) -> &str {
        &self.machine
    }

    /// Build the target machine. Infallible because every path that sets
    /// the name validates it against the preset registry first.
    pub fn machine(&self) -> hetsim::Machine {
        hetsim::machines::preset(&self.machine)
            .unwrap_or_else(|| panic!("machine preset '{}' vanished", self.machine))
    }

    /// A baseline count scaled by `scale`, never below 1.
    pub fn scaled(&self, baseline: usize) -> usize {
        ((baseline as f64 * self.scale).round() as usize).max(1)
    }

    /// Apply one `--param key=value` pair. Unknown keys and unparsable
    /// values are reported, not panicked, so the CLI can exit cleanly.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), String> {
        match key {
            "seed" => {
                self.seed = value
                    .parse()
                    .map_err(|_| format!("seed wants a u64, got '{value}'"))?;
            }
            "scale" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("scale wants a number, got '{value}'"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("scale must be positive and finite, got {s}"));
                }
                self.scale = s;
            }
            "machine" => {
                if hetsim::machines::preset(value).is_none() {
                    return Err(format!(
                        "unknown machine '{value}' (known: {})",
                        hetsim::machines::preset_names().join(", ")
                    ));
                }
                self.machine = value.to_string();
            }
            other => {
                return Err(format!(
                    "unknown param '{other}' (known: seed, scale, machine)"
                ))
            }
        }
        Ok(())
    }

    /// Parse a CLI `key=value` token.
    pub fn set_pair(&mut self, pair: &str) -> Result<(), String> {
        let (k, v) = pair
            .split_once('=')
            .ok_or_else(|| format!("--param wants key=value, got '{pair}'"))?;
        self.set(k.trim(), v.trim())
    }
}

/// One paper artifact behind the `experiments` harness.
pub trait Experiment: Send + Sync {
    /// Stable id used on the command line (`experiments <id>`).
    fn id(&self) -> &'static str;

    /// Which paper artifact this regenerates ("Fig. 8", "Table 4", …).
    fn paper_artifact(&self) -> &'static str;

    /// Regenerate the artifact under explicit parameters.
    fn run_with(&self, rec: &mut Recorder, params: &ExpParams) -> Report;

    /// Regenerate under the golden defaults — the conformance path.
    fn run(&self, rec: &mut Recorder) -> Report {
        self.run_with(rec, &ExpParams::default())
    }

    /// Whether this experiment's output depends on `params.machine()`.
    /// The portability-matrix runner re-executes only machine-sensitive
    /// experiments per machine column and reuses the baseline outcome for
    /// the rest (`icoe::matrix`).
    fn machine_sensitive(&self) -> bool {
        false
    }
}

/// An [`Experiment`] built from plain function pointers — how `bench`
/// registers its artifacts without a struct per experiment. Legacy
/// experiments that take no parameters register with `|rec, _| …`.
pub struct FnExperiment {
    pub id: &'static str,
    pub paper_artifact: &'static str,
    pub f: fn(&mut Recorder, &ExpParams) -> Report,
}

/// An [`FnExperiment`] whose output depends on `params.machine()`. The
/// portability-matrix runner re-executes only these per machine column
/// and reuses the baseline outcome for everything else (re-running a
/// machine-blind experiment per machine would re-derive the same bytes).
pub struct MachineSensitiveExperiment(pub FnExperiment);

impl Experiment for FnExperiment {
    fn id(&self) -> &'static str {
        self.id
    }

    fn paper_artifact(&self) -> &'static str {
        self.paper_artifact
    }

    fn run_with(&self, rec: &mut Recorder, params: &ExpParams) -> Report {
        (self.f)(rec, params)
    }
}

impl Experiment for MachineSensitiveExperiment {
    fn id(&self) -> &'static str {
        self.0.id
    }

    fn paper_artifact(&self) -> &'static str {
        self.0.paper_artifact
    }

    fn run_with(&self, rec: &mut Recorder, params: &ExpParams) -> Report {
        (self.0.f)(rec, params)
    }

    fn machine_sensitive(&self) -> bool {
        true
    }
}

/// Ordered collection of experiments (registration order = paper order).
#[derive(Default)]
pub struct Registry {
    items: Vec<Box<dyn Experiment>>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry { items: Vec::new() }
    }

    /// Register an experiment. Panics on a duplicate id — ids are CLI
    /// surface and must stay unique.
    pub fn register(&mut self, e: impl Experiment + 'static) {
        assert!(
            self.get(e.id()).is_none(),
            "duplicate experiment id '{}'",
            e.id()
        );
        self.items.push(Box::new(e));
    }

    /// Every id, in registration order.
    pub fn ids(&self) -> Vec<&'static str> {
        self.items.iter().map(|e| e.id()).collect()
    }

    pub fn get(&self, id: &str) -> Option<&dyn Experiment> {
        self.items.iter().find(|e| e.id() == id).map(|b| b.as_ref())
    }

    pub fn iter(&self) -> impl Iterator<Item = &dyn Experiment> {
        self.items.iter().map(|b| b.as_ref())
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Run one experiment under a root span named `exp:<id>`, with the
    /// golden default parameters.
    pub fn run(&self, id: &str, rec: &mut Recorder) -> Option<Report> {
        self.run_with_params(id, rec, &ExpParams::default())
    }

    /// Run one experiment under a root span named `exp:<id>` with
    /// explicit parameters (`experiments <id> --param k=v`).
    pub fn run_with_params(
        &self,
        id: &str,
        rec: &mut Recorder,
        params: &ExpParams,
    ) -> Option<Report> {
        let e = self.get(id)?;
        let root = rec.begin(format!("exp:{id}"), SpanKind::Experiment);
        let report = e.run_with(rec, params);
        rec.end(root);
        Some(report)
    }
}

/// The structured-output document for one run: tables plus the recorder's
/// metrics, as one JSON object. This is what `experiments <id> --json`
/// prints.
pub fn document_json(id: &str, report: &Report, rec: &Recorder, elapsed_s: f64) -> String {
    let mut out = String::from("{");
    out.push_str(&format!("\"experiment\":{},", json::escape(id)));
    out.push_str("\"schema\":\"icoe-experiment-v1\",");
    out.push_str(&format!("\"elapsed_s\":{},", json::num(elapsed_s)));
    out.push_str(&format!("\"tables\":{},", report.tables_json()));
    out.push_str("\"counters\":{");
    for (i, (k, v)) in rec.counters().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{}:{}", json::escape(k), json::num(*v)));
    }
    out.push_str("},\"gauges\":{");
    for (i, (k, v)) in rec.gauges().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{}:{}", json::escape(k), json::num(*v)));
    }
    out.push_str(&format!("}},\"span_count\":{}}}", rec.span_count()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_registry() -> Registry {
        let mut r = Registry::new();
        r.register(FnExperiment {
            id: "toy",
            paper_artifact: "Fig. 0",
            f: |rec, _| {
                rec.incr("flops", 42.0);
                let mut t = Table::new("toy", &["a", "b"]);
                t.row_strs(&["1", "2"]);
                Report::new(vec![t])
            },
        });
        r
    }

    #[test]
    fn params_builder_and_cli_pairs_agree() {
        let built = ExpParams::new().with_seed(7).with_scale(2.5);
        let mut cli = ExpParams::default();
        cli.set_pair("seed=7").expect("seed parses");
        cli.set_pair("scale = 2.5")
            .expect("scale parses, spaces ok");
        assert_eq!(built, cli);
        assert_eq!(built.scaled(10), 25);
        assert_eq!(ExpParams::default().scaled(10), 10);
        assert!(cli.set_pair("nonsense").is_err(), "missing '='");
        assert!(cli.set_pair("bogus=1").is_err(), "unknown key");
        assert!(cli.set_pair("scale=-1").is_err(), "negative scale");
        assert!(cli.set_pair("seed=x").is_err(), "non-numeric seed");
        assert!(
            cli.set_pair("machine=atari-2600").is_err(),
            "unknown preset"
        );
        assert_eq!(cli, built, "failed sets leave params untouched");

        // The defaults spelled out are the defaults: the golden path.
        let mut explicit = ExpParams::default();
        explicit.set_pair("seed=42").expect("seed parses");
        explicit.set_pair("scale=1.0").expect("scale parses");
        assert_eq!(explicit, ExpParams::default());
        assert_eq!(
            ExpParams::new().with_seed(42).with_scale(1.0),
            ExpParams::default()
        );
    }

    #[test]
    fn machine_param_resolves_presets_and_defaults_to_sierra() {
        let p = ExpParams::default();
        assert_eq!(p.machine_name(), "sierra");
        assert_eq!(p.machine().node.gpu_count(), 4);
        let mut cli = ExpParams::default();
        cli.set_pair("machine=frontier").expect("known preset");
        assert_eq!(cli, ExpParams::new().with_machine("frontier"));
        assert_eq!(cli.machine().topology().ranks_per_node, 8);
    }

    #[test]
    #[should_panic(expected = "unknown machine preset")]
    fn with_machine_rejects_unknown_presets() {
        let _ = ExpParams::new().with_machine("atari-2600");
    }

    #[test]
    fn default_params_are_the_golden_path() {
        // `run` (no params) and `run_with` (explicit defaults) must be
        // the same code path — the conformance documents depend on it.
        let reg = toy_registry();
        let mut a = Recorder::enabled();
        let mut b = Recorder::enabled();
        let ra = reg.run("toy", &mut a).expect("registered");
        let rb = reg
            .run_with_params("toy", &mut b, &ExpParams::default())
            .expect("registered");
        assert_eq!(ra.tables_json(), rb.tables_json());
        assert_eq!(a.counter("flops"), b.counter("flops"));
    }

    #[test]
    fn registry_runs_under_a_root_span() {
        let reg = toy_registry();
        let mut rec = Recorder::enabled();
        let report = reg.run("toy", &mut rec).expect("registered");
        assert_eq!(report.tables.len(), 1);
        let spans = rec.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "exp:toy");
        assert_eq!(spans[0].kind, SpanKind::Experiment);
        assert!(spans[0].end.is_finite(), "root span closed");
        assert_eq!(rec.counter("flops"), 42.0);
    }

    #[test]
    fn unknown_id_is_none_and_ids_are_ordered() {
        let reg = toy_registry();
        assert!(reg.get("nope").is_none());
        assert_eq!(reg.ids(), vec!["toy"]);
        assert_eq!(reg.get("toy").map(|e| e.paper_artifact()), Some("Fig. 0"));
    }

    #[test]
    #[should_panic(expected = "duplicate experiment id")]
    fn duplicate_ids_panic() {
        let mut reg = toy_registry();
        reg.register(FnExperiment {
            id: "toy",
            paper_artifact: "x",
            f: |_, _| Report::default(),
        });
    }

    #[test]
    fn document_json_parses_and_carries_tables_and_metrics() {
        let reg = toy_registry();
        let mut rec = Recorder::enabled();
        let report = reg.run("toy", &mut rec).expect("registered");
        let doc = document_json("toy", &report, &rec, 0.25);
        let v = json::parse(&doc).expect("document parses");
        assert_eq!(
            v.get("experiment").and_then(json::Value::as_str),
            Some("toy")
        );
        assert_eq!(v.get("elapsed_s").and_then(json::Value::as_f64), Some(0.25));
        let tables = v
            .get("tables")
            .and_then(json::Value::as_array)
            .expect("tables");
        assert_eq!(
            tables[0].get("title").and_then(json::Value::as_str),
            Some("toy")
        );
        let rows = tables[0]
            .get("rows")
            .and_then(json::Value::as_array)
            .expect("rows");
        assert_eq!(rows[0].as_array().expect("row")[1].as_str(), Some("2"));
        let counters = v.get("counters").expect("counters");
        assert_eq!(
            counters.get("flops").and_then(json::Value::as_f64),
            Some(42.0)
        );
    }
}
