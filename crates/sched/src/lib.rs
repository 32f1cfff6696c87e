//! `sched` — the Opt activity's job-scheduling policies (§4.7).
//!
//! "The team decided to develop a job scheduler simulator to study job
//! scheduling policies with job requests that represent the behavior of
//! the topological optimization application." Its two conclusions, both
//! reproduced by the tests of `icoe::cluster::pool`:
//!
//! * with Poisson arrivals, "job arrival rate should be throttled to less
//!   than the aggregated processing capacity of the GPUs";
//! * with batch arrivals, "Shortest Job First with Quota should be used to
//!   increase GPU utilization (assuming availability of job duration
//!   information)".
//!
//! This crate holds the two halves a scheduler study feeds a simulator:
//! the study's job streams ([`workload`]) and the pluggable policies
//! ([`policy`]). A policy implements [`SchedPolicy`]; one event loop,
//! `icoe::cluster::ClusterSim`, drives every policy, whether it serves a
//! heterogeneous fleet with power states and SLAs or the study's single
//! GPU pool (`icoe::cluster::simulate_pool`, a fleet of one node).

pub mod policy;
pub mod workload;

pub use policy::{
    ClusterView, Decision, EasyBackfill, Fcfs, FreeCapacity, GpuBinPack, JobInfo, NodeView,
    QueuedJob, RunningJob, SchedPolicy, Sjf, SjfQuota, SlaUrgency,
};
pub use workload::{batch_arrivals, poisson_arrivals, Job};
