//! The paper's lessons learned, as *checkable predicates* against the
//! models in this workspace.
//!
//! §1 highlights five project-level lessons and each activity section adds
//! its own. Where a lesson is a quantitative claim, the corresponding
//! entry here evaluates it against the same machinery the experiments use;
//! where it is organisational (vendor engagement, mini-app practice), it
//! is recorded as narrative so the registry is complete.

use hetsim::{machines, KernelProfile, Sim, Target};

/// How a lesson is validated.
pub enum Evidence {
    /// A predicate over the models; `true` = the reproduction exhibits it.
    Checked(Box<dyn Fn() -> bool>),
    /// Organisational/process lesson — not computable.
    Narrative,
}

/// One lesson-learned entry.
pub struct Lesson {
    pub id: &'static str,
    pub section: &'static str,
    pub quote: &'static str,
    pub evidence: Evidence,
}

impl Lesson {
    /// Run the check (None for narrative lessons).
    pub fn check(&self) -> Option<bool> {
        match &self.evidence {
            Evidence::Checked(f) => Some(f()),
            Evidence::Narrative => None,
        }
    }
}

fn checked(
    id: &'static str,
    section: &'static str,
    quote: &'static str,
    f: impl Fn() -> bool + 'static,
) -> Lesson {
    Lesson {
        id,
        section,
        quote,
        evidence: Evidence::Checked(Box::new(f)),
    }
}

fn narrative(id: &'static str, section: &'static str, quote: &'static str) -> Lesson {
    Lesson {
        id,
        section,
        quote,
        evidence: Evidence::Narrative,
    }
}

/// All lessons, in paper order.
pub fn lessons() -> Vec<Lesson> {
    vec![
        checked(
            "no-single-model",
            "1",
            "No programming model can meet all needs: CUDA provides optimal performance while RAJA and directive-based languages provide portability",
            || {
                // CUDA (native) strictly fastest on device; the portable
                // path costs a bounded, tolerable penalty.
                use portal::{Backend, Policy};
                let pen = Backend::Portal.penalty(Policy::device(0));
                let host_pen = Backend::Portal.penalty(Policy::Threads(8));
                pen > 1.0 && pen < 1.5 && host_pen < 1.1
            },
        ),
        narrative(
            "vendor-support",
            "1",
            "Vendor porting support before system delivery is essential",
        ),
        narrative(
            "mini-apps",
            "3.2",
            "Mini-applications are crucial to explore porting strategies",
        ),
        checked(
            "early-suboptimal-ok",
            "4.7/5",
            "Suboptimal early decisions can be acceptable to ensure that an application is ready (texture on Pascal, unnecessary on Volta)",
            || {
                use topopt::{solver_step_cost, SimpConfig, TextureUse};
                let cfg = SimpConfig { nelx: 1024, nely: 512, ..Default::default() };
                let ea = machines::ea_minsky();
                let volta = machines::sierra_node();
                let ea_gain = solver_step_cost(&ea, &cfg, TextureUse::Off, false)
                    / solver_step_cost(&ea, &cfg, TextureUse::On, false);
                let volta_gain = solver_step_cost(&volta, &cfg, TextureUse::Off, false)
                    / solver_step_cost(&volta, &cfg, TextureUse::On, false);
                ea_gain > 1.3 && (volta_gain - 1.0).abs() < 0.05
            },
        ),
        narrative(
            "new-domains-hard",
            "1/4.2",
            "Challenges that exceed the available time and existing knowledge can arise when moving domains to new hardware",
        ),
        checked(
            "compile-time-constants",
            "4.1/4.10.3",
            "Explicitly instantiating constants at compile time can improve performance significantly (JIT)",
            || {
                use fem::device::{pa_apply_profile, PaVariant};
                use fem::Mesh2d;
                let gpu = &machines::sierra_node().node.gpus[0];
                let mesh = Mesh2d::unit(64, 64, 4);
                let dynamic = pa_apply_profile(&mesh, PaVariant::DynamicBounds).time_on_gpu(gpu);
                let jit = pa_apply_profile(&mesh, PaVariant::JitSpecialised { first_launch: false })
                    .time_on_gpu(gpu);
                dynamic / jit > 1.3
            },
        ),
        checked(
            "compute-where-data-lives",
            "4.1",
            "Data transfer costs can be high enough that sometimes computation is better performed where the data is located",
            || {
                use cardioid::{Monodomain, Placement};
                let tissue = Monodomain::new(64, 64, 0.2, 0.02, 3);
                let mut sim = Sim::new(machines::sierra_node());
                let all = tissue.simulated_step_cost(&mut sim, Placement::AllGpu, true);
                let split = tissue.simulated_step_cost(&mut sim, Placement::SplitCpuGpu, true);
                split > all
            },
        ),
        checked(
            "memory-constraints-idle-cores",
            "4.3",
            "Each thread in the CPU version needs enough private memory to process one zone, which prevents the use of some CPU cores for large models",
            || {
                use kinetics::{ModelTier, NodeThroughput};
                let t = NodeThroughput::evaluate(&machines::sierra_node(), ModelTier::Largest);
                t.cpu_idle_fraction > 0.4
            },
        ),
        checked(
            "single-hot-kernel-low-level",
            "4.6",
            "Performance dominated by a single kernel presents an opportunity to apply focused, low-level optimizations",
            || {
                // ddcMD's nonbonded kernel dominates its step; optimising
                // only it moves the total.
                use md::{Engine, EngineKind, LennardJones, System};
                let sys = System::lattice(8_000, 0.4, 0.6, 3);
                let e = Engine::new(sys, LennardJones::martini(), 0.002, 0.4);
                let mut sim = Sim::new(machines::sierra_node());
                let b = e.step_cost(&mut sim, EngineKind::DdcMdAllGpu, 1);
                b.nonbonded > 0.4 * b.total()
            },
        ),
        checked(
            "small-loops-launch-bound",
            "4.8",
            "The initial port was slow due to kernel launch overheads because ParaDyn contains many small loops",
            || {
                let mut sim = Sim::new(machines::sierra_node());
                let small = KernelProfile::new("small").flops(2e3).bytes_read(1.6e4).parallelism(1e3);
                let t_many: f64 = (0..50).map(|_| sim.launch(Target::gpu(0), &small)).sum();
                let merged =
                    KernelProfile::new("merged").flops(1e5).bytes_read(8e5).parallelism(5e4);
                let t_one = sim.launch(Target::gpu(0), &merged);
                t_many > 5.0 * t_one
            },
        ),
        checked(
            "shared-memory-stencils",
            "4.9",
            "The team improved CUDA kernels that perform stencil computation by almost 2X using fast on-chip shared memory",
            || {
                let gpu = &machines::sierra_node().node.gpus[0];
                let base = KernelProfile::new("stencil").bytes_read(1e9).flops(1e8);
                let opt = base.clone().shared_mem(true);
                let s = base.time_on_gpu(gpu) / opt.time_on_gpu(gpu);
                s > 1.5 && s < 2.1
            },
        ),
        checked(
            "library-coupling-pays",
            "4.10",
            "Performance gains from tight coupling of libraries can be significant (reduced CPU-to-GPU memory copies proved critical)",
            || {
                // Keeping vectors device-resident vs migrating per call:
                // resident data never moves, while a library boundary that
                // hands them back to the host pays a unified-memory
                // migration each way, ten times over.
                use hetsim::{Loc, TransferKind};
                let mut sim = Sim::new(machines::sierra_node());
                let (host, gpu) = (Loc::Host, Loc::Gpu(0));
                let resident = sim.alloc(gpu, 64e6).expect("64 MB fits one V100");
                let mut cost_resident = 0.0;
                let mut cost_pingpong = 0.0;
                for _ in 0..10 {
                    cost_resident += sim.touch_mem(resident).expect("live allocation");
                    cost_pingpong += sim.transfer_cost(gpu, host, 64e6, TransferKind::Unified);
                    cost_pingpong += sim.transfer_cost(host, gpu, 64e6, TransferKind::Unified);
                }
                cost_resident == 0.0 && cost_pingpong > 0.01
            },
        ),
        checked(
            "abstraction-flexibility",
            "4.11",
            "Being able to mix RAJA and CUDA enables productivity when needed and performance when required (native transpose beat the RAJA one)",
            || {
                use beamline::transpose::{transpose_time, TransposeImpl};
                let gpu = &machines::sierra_node().node.gpus[0];
                transpose_time(4096, TransposeImpl::PortalNaive, gpu)
                    > 2.0 * transpose_time(4096, TransposeImpl::NativeTiled, gpu)
            },
        ),
        checked(
            "middleware-needs-investment",
            "4.4",
            "Popular open-source middleware such as Spark cannot fully exploit the scale and technologies on day one",
            || {
                use dataflow::StackConfig;
                use hetsim::Network;
                let net = Network::new(machines::sierra_node().network, 256);
                let d = StackConfig::default_stack();
                let o = StackConfig::optimized_stack();
                o.shuffle_time(&net, 1e8) < 0.5 * d.shuffle_time(&net, 1e8)
            },
        ),
        checked(
            "ml-scaling-needs-research",
            "4.5",
            "Efficient scaling requires additional research in distributed training algorithms and model parallelism (optimal K > 1)",
            || {
                use hetsim::{CollectiveKind, Network};
                // At scale, the reduction cost makes K = 1 strictly worse
                // than K = 8 for equal local work.
                let net = Network::new(machines::sierra_node().network, 512);
                let t_reduce = net.collective(CollectiveKind::AllReduce, 1e8);
                let t_step = 2e-3;
                let steps = 1024.0;
                let wall = |k: f64| steps * t_step + (steps / k) * t_reduce;
                wall(1.0) > 1.5 * wall(8.0)
            },
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_checked_lesson_holds() {
        for lesson in lessons() {
            if let Some(ok) = lesson.check() {
                assert!(
                    ok,
                    "lesson '{}' ({}) failed its check",
                    lesson.id, lesson.section
                );
            }
        }
    }

    #[test]
    fn lesson_mix_includes_both_kinds() {
        let all = lessons();
        let checked = all
            .iter()
            .filter(|l| matches!(l.evidence, Evidence::Checked(_)))
            .count();
        let narrative = all.len() - checked;
        assert!(checked >= 10, "{checked}");
        assert!(narrative >= 3, "{narrative}");
    }

    #[test]
    fn ids_are_unique() {
        let mut ids: Vec<_> = lessons().iter().map(|l| l.id).collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }
}
