//! Job serving: a heterogeneous fleet with power states ([`machine`]), a
//! stochastic SLA-carrying job stream ([`stream`]), and the event-driven
//! simulator ([`sim`]) that serves the stream under any
//! [`sched::SchedPolicy`].
//!
//! [`ClusterSim`] is the one scheduler loop of the workspace. It
//! schedules *nodes* — machine classes spanning GPU/no-GPU, big/small,
//! and x86/POWER/ARM — and measures what the operations half of the
//! paper cares about: SLA violation rate, utilization, wait percentiles,
//! and joules (via [`hetsim::spec::PowerSpec`] per-node power states with
//! an optional park-when-idle governor). The §4.7 study's single GPU pool
//! is a fleet of one always-on node on the same loop ([`pool`]).
//!
//! ```
//! use icoe::cluster::{job_stream, simulate_cluster, ClusterConfig, StreamConfig};
//! use icoe::hetsim::Recorder;
//! use icoe::sched::SlaUrgency;
//!
//! let jobs = job_stream(&StreamConfig::baseline(50, 42));
//! let m = simulate_cluster(
//!     &ClusterConfig::default_fleet(),
//!     &jobs,
//!     &SlaUrgency,
//!     &Recorder::noop(),
//! );
//! assert_eq!(m.completed, 50);
//! assert!(m.sla_violation_rate <= 1.0 && m.joules > 0.0);
//! ```

pub mod machine;
pub mod pool;
pub mod sim;
pub mod stream;

pub use machine::{default_fleet, Arch, MachineClass};
pub use pool::simulate_pool;
pub use sim::{simulate_cluster, ClusterConfig, ClusterMetrics, ClusterSim};
pub use stream::{job_stream, ClusterJob, Spike, StreamConfig, TaskClass};
