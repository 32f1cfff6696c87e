//! The monodomain solver and the CPU/GPU placement study.
//!
//! §4.1: the team compared running diffusion on the CPU (overlapped with
//! GPU reaction kernels) against running everything on the GPU, and found
//! that "data transfer costs can be high enough that sometimes computation
//! is better performed where the data is located". [`Placement`] encodes
//! both strategies; [`Monodomain::simulated_step_cost`] prices them.

use hetsim::{KernelProfile, Loc, Sim, Target, TransferKind};

use crate::ion::{IonModel, STATE_DIM};

/// Where each half of the step runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Everything on the GPU (what Cardioid shipped).
    AllGpu,
    /// Diffusion on the CPU, reaction on the GPU, voltage migrating every
    /// step (the tempting-but-slower split).
    SplitCpuGpu,
    /// Everything on the CPU (pre-iCoE baseline).
    AllCpu,
}

/// 2-D monodomain tissue: V plus gate fields on an `nx` x `ny` grid.
pub struct Monodomain {
    pub nx: usize,
    pub ny: usize,
    /// Diffusion coefficient * dt / h^2 (dimensionless CFL-ish number).
    pub alpha: f64,
    pub model: IonModel,
    /// State: `[cell][state_dim]`, cell-major.
    pub state: Vec<[f64; STATE_DIM]>,
    pub dt: f64,
}

impl Monodomain {
    pub fn new(nx: usize, ny: usize, alpha: f64, dt: f64, lowering_degree: usize) -> Monodomain {
        assert!(alpha < 0.25, "explicit diffusion needs alpha < 0.25");
        let model = IonModel::new(lowering_degree);
        let state = vec![IonModel::rest(); nx * ny];
        Monodomain {
            nx,
            ny,
            alpha,
            model,
            state,
            dt,
        }
    }

    /// Apply a stimulus to a disc of cells.
    pub fn stimulate(&mut self, ci: usize, cj: usize, radius: usize, dv: f64) {
        for i in 0..self.nx {
            for j in 0..self.ny {
                let d2 = (i as isize - ci as isize).pow(2) + (j as isize - cj as isize).pow(2);
                if d2 <= (radius * radius) as isize {
                    self.state[i * self.ny + j][0] += dv;
                }
            }
        }
    }

    /// One step: reaction (per cell) then explicit diffusion of V.
    pub fn step(&mut self, lowered: bool) {
        // Reaction.
        for s in self.state.iter_mut() {
            let d = if lowered {
                self.model.rhs_lowered(s)
            } else {
                self.model.rhs_exact(s)
            };
            for k in 0..STATE_DIM {
                s[k] += self.dt * d[k];
            }
            for g in s.iter_mut().skip(1) {
                *g = g.clamp(0.0, 1.0);
            }
        }
        // Diffusion of V (5-point, homogeneous Neumann edges).
        let (nx, ny) = (self.nx, self.ny);
        let v_old: Vec<f64> = self.state.iter().map(|s| s[0]).collect();
        for i in 0..nx {
            for j in 0..ny {
                let c = v_old[i * ny + j];
                let up = if i > 0 { v_old[(i - 1) * ny + j] } else { c };
                let dn = if i + 1 < nx {
                    v_old[(i + 1) * ny + j]
                } else {
                    c
                };
                let lf = if j > 0 { v_old[i * ny + j - 1] } else { c };
                let rt = if j + 1 < ny { v_old[i * ny + j + 1] } else { c };
                self.state[i * ny + j][0] = c + self.alpha * (up + dn + lf + rt - 4.0 * c);
            }
        }
    }

    /// Fraction of tissue depolarised above `threshold`.
    pub fn activated_fraction(&self, threshold: f64) -> f64 {
        let n = self.state.len() as f64;
        self.state.iter().filter(|s| s[0] > threshold).count() as f64 / n
    }

    /// Simulated cost of one step under `placement` on `sim`'s machine.
    /// `lowered` selects rational-polynomial reaction flops.
    pub fn simulated_step_cost(&self, sim: &mut Sim, placement: Placement, lowered: bool) -> f64 {
        let n = (self.nx * self.ny) as f64;
        let (flops_exact, flops_lowered) = self.model.flops();
        let reaction_flops = if lowered { flops_lowered } else { flops_exact } * n;
        let state_bytes = 8.0 * STATE_DIM as f64 * n;
        let reaction = KernelProfile::new("cardioid-reaction")
            .flops(reaction_flops)
            .bytes_read(state_bytes)
            .bytes_written(state_bytes)
            .parallelism(n);
        let v_bytes = 8.0 * n;
        let diffusion = KernelProfile::new("cardioid-diffusion")
            .flops(6.0 * n)
            .bytes_read(5.0 * v_bytes)
            .bytes_written(v_bytes)
            .parallelism(n);
        match placement {
            Placement::AllGpu => {
                sim.launch(Target::gpu(0), &reaction) + sim.launch(Target::gpu(0), &diffusion)
            }
            Placement::AllCpu => {
                sim.launch(Target::cpu_all(), &reaction) + sim.launch(Target::cpu_all(), &diffusion)
            }
            Placement::SplitCpuGpu => {
                // Reaction on GPU; V migrates to host, diffuses, migrates
                // back — every step.
                let t_r = sim.launch(Target::gpu(0), &reaction);
                let t1 = sim.transfer(Loc::Gpu(0), Loc::Host, v_bytes, TransferKind::Memcpy);
                let t_d = sim.launch(Target::cpu_all(), &diffusion);
                let t2 = sim.transfer(Loc::Host, Loc::Gpu(0), v_bytes, TransferKind::Memcpy);
                t_r + t1 + t_d + t2
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim::machines;

    fn tissue() -> Monodomain {
        Monodomain::new(24, 24, 0.2, 0.02, 8)
    }

    #[test]
    fn stimulus_wave_spreads() {
        let mut m = tissue();
        m.stimulate(12, 12, 3, 60.0);
        let f0 = m.activated_fraction(-40.0);
        let mut peak = f0;
        for _ in 0..150 {
            m.step(false);
            peak = peak.max(m.activated_fraction(-40.0));
        }
        assert!(peak > f0, "wave did not spread: peak {peak} vs start {f0}");
        assert!(peak > 0.15, "{peak}");
    }

    #[test]
    fn lowered_kernels_propagate_same_wave() {
        let mut a = tissue();
        let mut b = tissue();
        a.stimulate(12, 12, 3, 60.0);
        b.stimulate(12, 12, 3, 60.0);
        let (mut pa, mut pb) = (0.0f64, 0.0f64);
        for _ in 0..100 {
            a.step(false);
            b.step(true);
            pa = pa.max(a.activated_fraction(-40.0));
            pb = pb.max(b.activated_fraction(-40.0));
        }
        assert!((pa - pb).abs() < 0.08, "activation mismatch {pa} vs {pb}");
    }

    #[test]
    fn all_gpu_beats_split_placement() {
        // The §4.1 decision: migration penalty makes the split slower.
        let m = tissue();
        let mut sim = Sim::new(machines::sierra_node());
        let t_all = m.simulated_step_cost(&mut sim, Placement::AllGpu, true);
        let t_split = m.simulated_step_cost(&mut sim, Placement::SplitCpuGpu, true);
        assert!(t_split > t_all, "split {t_split} all-gpu {t_all}");
    }

    #[test]
    fn gpu_beats_cpu_on_large_tissue() {
        let m = Monodomain::new(768, 768, 0.2, 0.02, 8);
        let mut sim = Sim::new(machines::sierra_node());
        let t_gpu = m.simulated_step_cost(&mut sim, Placement::AllGpu, true);
        let t_cpu = m.simulated_step_cost(&mut sim, Placement::AllCpu, true);
        assert!(t_gpu < t_cpu, "gpu {t_gpu} cpu {t_cpu}");
    }

    #[test]
    fn lowered_reaction_is_cheaper_in_simulation() {
        let m = Monodomain::new(128, 128, 0.2, 0.02, 3);
        let mut sim = Sim::new(machines::sierra_node());
        let t_lowered = m.simulated_step_cost(&mut sim, Placement::AllGpu, true);
        let t_exact = m.simulated_step_cost(&mut sim, Placement::AllGpu, false);
        assert!(t_lowered < t_exact, "{t_lowered} vs {t_exact}");
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn unstable_alpha_rejected() {
        Monodomain::new(8, 8, 0.3, 0.02, 4);
    }
}

#[cfg(test)]
mod diag {
    use super::*;

    #[test]
    #[ignore]
    fn trace_wave() {
        let mut m = Monodomain::new(24, 24, 0.2, 0.02, 8);
        m.stimulate(12, 12, 3, 60.0);
        for s in 0..150 {
            m.step(false);
            if s % 10 == 0 {
                let st = &m.state[12 * 24 + 12];
                let edge = &m.state[12 * 24 + 16];
                println!(
                    "step {s}: frac {:.3} centre v {:.1} m {:.2} h {:.2} edge v {:.1}",
                    m.activated_fraction(-40.0),
                    st[0],
                    st[1],
                    st[2],
                    edge[0]
                );
            }
        }
    }
}
