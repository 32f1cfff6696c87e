//! `icoe::matrix` — the multi-machine portability runner (ISSUE 9).
//!
//! Re-executes the experiment registry once per machine preset, on the
//! [`crate::par`] engine, and returns the outcomes as one
//! column per machine. Re-running a machine-blind experiment per column
//! would re-derive the same bytes at full price, so columns after the
//! baseline re-execute only experiments that declare
//! [`crate::Experiment::machine_sensitive`] and *reuse* the baseline
//! outcome for everything else — the registry-level analogue of the warm
//! `Sim::reset` reuse the probe layer practises per cell.

use crate::exp::{ExpParams, Registry};
use crate::par::ExpRun;

/// How one cell of the matrix was produced.
pub enum Cell {
    /// The experiment was re-executed under this column's machine preset.
    Ran(ExpRun),
    /// The experiment is machine-blind; its baseline outcome stands for
    /// this column byte-for-byte (index into the baseline column).
    Reused { id: &'static str, baseline: usize },
}

impl Cell {
    pub fn id(&self) -> &'static str {
        match self {
            Cell::Ran(run) => run.id,
            Cell::Reused { id, .. } => id,
        }
    }

    /// Whether this cell (or the baseline outcome it points at) failed.
    pub fn is_err(&self) -> bool {
        matches!(self, Cell::Ran(run) if run.outcome.is_err())
    }
}

/// One machine column of the matrix, cells in registration order.
pub struct MachineColumn {
    pub machine: String,
    pub cells: Vec<Cell>,
}

impl MachineColumn {
    /// Total `sim.phantom_link_hits` across the cells actually re-run in
    /// this column — any non-zero value means an experiment costed a
    /// transfer over hardware this machine does not declare.
    pub fn phantom_hits(&self) -> f64 {
        self.cells
            .iter()
            .filter_map(|c| match c {
                Cell::Ran(run) => run.outcome.as_ref().ok(),
                Cell::Reused { .. } => None,
            })
            .map(|out| out.recorder.counter("sim.phantom_link_hits"))
            .sum()
    }

    /// (ran, reused, failed) cell counts.
    pub fn tally(&self) -> (usize, usize, usize) {
        let ran = self
            .cells
            .iter()
            .filter(|c| matches!(c, Cell::Ran(_)))
            .count();
        let failed = self.cells.iter().filter(|c| c.is_err()).count();
        (ran, self.cells.len() - ran, failed)
    }
}

/// The full portability matrix: the baseline column (every experiment
/// re-executed on the first machine) plus one partial column per
/// remaining machine.
pub struct Matrix {
    pub columns: Vec<MachineColumn>,
}

impl Matrix {
    pub fn baseline(&self) -> &MachineColumn {
        &self.columns[0]
    }
}

impl Registry {
    /// Run the full registry across `machines` (the first is the
    /// baseline, normally "sierra") on `jobs` workers.
    ///
    /// The baseline column re-executes everything; later columns
    /// re-execute only machine-sensitive experiments and mark the rest
    /// [`Cell::Reused`]. Panics and unknown ids surface per cell, never
    /// aborting the matrix. Panics if `machines` is empty or names an
    /// unknown preset (checked before any work runs).
    pub fn run_matrix(&self, machines: &[&str], jobs: usize, base: &ExpParams) -> Matrix {
        assert!(!machines.is_empty(), "matrix wants at least one machine");
        let ids = self.ids();
        let sensitive: Vec<&'static str> = self
            .iter()
            .filter(|e| e.machine_sensitive())
            .map(|e| e.id())
            .collect();

        // Validate every preset up front: with_machine panics on unknown
        // names, which is the contract we want before hours of cells.
        let params: Vec<ExpParams> = machines
            .iter()
            .map(|m| base.clone().with_machine(m))
            .collect();

        let mut columns = Vec::with_capacity(machines.len());
        let baseline_runs = self.run_ids_parallel_with(&ids, jobs, &params[0]);
        columns.push(MachineColumn {
            machine: machines[0].to_string(),
            cells: baseline_runs.into_iter().map(Cell::Ran).collect(),
        });

        for (m, p) in machines.iter().zip(&params).skip(1) {
            let runs = self.run_ids_parallel_with(&sensitive, jobs, p);
            let mut by_id: Vec<Option<ExpRun>> = runs.into_iter().map(Some).collect();
            let cells = ids
                .iter()
                .enumerate()
                .map(
                    |(baseline, id)| match sensitive.iter().position(|s| s == id) {
                        Some(k) => Cell::Ran(by_id[k].take().expect("one run per id")),
                        None => Cell::Reused { id, baseline },
                    },
                )
                .collect();
            columns.push(MachineColumn {
                machine: m.to_string(),
                cells,
            });
        }
        Matrix { columns }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exp::{FnExperiment, MachineSensitiveExperiment, Report};
    use crate::report::Table;

    fn toy_registry() -> Registry {
        let mut r = Registry::new();
        r.register(FnExperiment {
            id: "blind",
            paper_artifact: "Fig. 0",
            f: |rec, _| {
                rec.incr("ran", 1.0);
                Report::new(vec![Table::new("t", &["v"])])
            },
        });
        r.register(MachineSensitiveExperiment(FnExperiment {
            id: "aware",
            paper_artifact: "Fig. 0",
            f: |rec, params| {
                rec.gauge("gpus", params.machine().node.gpu_count() as f64);
                Report::new(vec![Table::new("t", &["v"])])
            },
        }));
        r
    }

    #[test]
    fn baseline_runs_everything_and_columns_reuse_machine_blind_cells() {
        let reg = toy_registry();
        let m = reg.run_matrix(&["sierra", "a64fx"], 1, &ExpParams::default());
        assert_eq!(m.columns.len(), 2);
        assert_eq!(m.baseline().tally(), (2, 0, 0));
        let a64 = &m.columns[1];
        assert_eq!(a64.tally(), (1, 1, 0));
        // The machine-sensitive cell really saw the other machine...
        let aware = a64
            .cells
            .iter()
            .find_map(|c| match c {
                Cell::Ran(run) if run.id == "aware" => run.outcome.as_ref().ok(),
                _ => None,
            })
            .expect("aware re-ran on a64fx");
        assert_eq!(aware.recorder.gauge_value("gpus"), Some(0.0));
        // ...and the blind cell points back at its baseline slot.
        match &a64.cells[0] {
            Cell::Reused { id, baseline } => {
                assert_eq!(*id, "blind");
                assert_eq!(m.baseline().cells[*baseline].id(), "blind");
            }
            Cell::Ran(_) => panic!("blind must be reused, not re-run"),
        }
    }

    #[test]
    fn cell_failures_are_isolated_per_column() {
        let mut reg = toy_registry();
        reg.register(MachineSensitiveExperiment(FnExperiment {
            id: "boom",
            paper_artifact: "Fig. ∞",
            f: |_, params| {
                if params.machine_name() != "sierra" {
                    panic!("only portable to sierra");
                }
                Report::default()
            },
        }));
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let m = reg.run_matrix(&["sierra", "edge"], 2, &ExpParams::default());
        std::panic::set_hook(prev);
        assert_eq!(m.baseline().tally().2, 0, "sierra column is clean");
        let edge = &m.columns[1];
        assert_eq!(edge.tally(), (2, 1, 1));
        assert!(edge.cells.iter().any(|c| c.id() == "boom" && c.is_err()));
    }

    #[test]
    #[should_panic(expected = "unknown machine preset")]
    fn unknown_presets_are_rejected_before_any_work() {
        toy_registry().run_matrix(&["sierra", "atari-2600"], 1, &ExpParams::default());
    }
}
