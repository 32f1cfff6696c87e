//! The Fig 4 workflow: MuMMI couples a macro model to many GPU-offloaded
//! ddcMD micro simulations, fed through a scheduler.
//!
//! A coarse "macro" field decides which patches look interesting; each
//! interesting patch becomes a ddcMD job; the job scheduler places them on
//! the node's GPUs; the MD engines actually run (real particles); results
//! feed back into the macro field. The per-step ddcMD-vs-GROMACS cost gap
//! (§4.6) is printed at the end.
//!
//! Run with: `cargo run --release -p icoe --example mummi_workflow`

use icoe::cluster::simulate_pool;
use icoe::hetsim::{machines, Sim};
use icoe::md::{Engine, EngineKind, LennardJones, System};
use icoe::sched::{Job, SjfQuota};

fn main() {
    // 1. Macro model: a toy concentration field on an 8x8 patch grid.
    let grid = 8usize;
    let field: Vec<f64> = (0..grid * grid)
        .map(|i| {
            let (x, y) = (
                (i / grid) as f64 / grid as f64,
                (i % grid) as f64 / grid as f64,
            );
            ((6.3 * x).sin() * (6.3 * y).cos()).abs()
        })
        .collect();

    // 2. Select the most interesting patches for micro simulation.
    let mut ranked: Vec<(usize, f64)> = field.iter().copied().enumerate().collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
    let selected: Vec<usize> = ranked.iter().take(12).map(|(i, _)| *i).collect();
    println!(
        "macro model selected {} of {} patches for ddcMD",
        selected.len(),
        grid * grid
    );

    // 3. Run the micro simulations (small but real MD).
    let mut energies = Vec::new();
    for (rank, &patch) in selected.iter().enumerate() {
        let sys = System::lattice(125, 0.4, 0.6, patch as u64 + 1);
        let mut engine = Engine::new(sys, LennardJones::martini(), 0.002, 0.4);
        for _ in 0..40 {
            engine.step();
        }
        energies.push(engine.total_energy());
        if rank < 3 {
            println!(
                "  patch {patch:>2}: 125 beads, 40 steps, E = {:.2}, T = {:.2}",
                engine.total_energy(),
                engine.sys.temperature()
            );
        }
    }
    println!("  ... ({} patches simulated)", energies.len());

    // 4. Schedule the same batch on the node's 4 GPUs with the policy the
    // vendor study recommended.
    let jobs: Vec<Job> = selected
        .iter()
        .enumerate()
        .map(|(id, &p)| Job {
            id,
            arrival: 0.0,
            duration: 30.0 + field[p] * 300.0,
            gpus: 1,
        })
        .collect();
    let metrics = simulate_pool(&jobs, 4, &SjfQuota { quota: 8 });
    println!(
        "\nscheduler (SJF+Quota on 4 GPUs): makespan {:.0} s, utilization {:.0} %",
        metrics.makespan,
        100.0 * metrics.utilization
    );

    // 5. The §4.6 comparison: per-step cost of ddcMD's all-GPU loop vs the
    // GROMACS-like split, on a production-size patch.
    let big = System::lattice(32_768, 0.4, 0.6, 99);
    let engine = Engine::new(big, LennardJones::martini(), 0.002, 0.4);
    let mut sim = Sim::new(machines::sierra_node());
    let ddc = engine.step_cost(&mut sim, EngineKind::DdcMdAllGpu, 1);
    let gmx = engine.step_cost(&mut sim, EngineKind::GromacsSplit, 1);
    println!(
        "\nddcMD all-GPU step {:.0} us vs GROMACS-like split {:.0} us  ({:.2}x, paper: 2.88/2.31 = 1.25x)",
        ddc.total() * 1e6,
        gmx.total() * 1e6,
        gmx.total() / ddc.total()
    );
}
