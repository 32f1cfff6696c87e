//! `hetsim` — an analytic performance model of large-scale heterogeneous
//! (CPU + GPU) systems.
//!
//! The SC '19 iCoE paper documents the preparation of a diverse workload for
//! Sierra-class machines (IBM POWER9 + NVIDIA V100 connected with NVLink).
//! This reproduction has no such hardware, so every quantitative conclusion
//! in the paper is regenerated against this model instead: kernels still
//! execute *for real* on the host (so numerics are testable), while the
//! *clock* a benchmark reports comes from charging a [`KernelProfile`]
//! (flops, bytes moved) to a modelled device.
//!
//! The model covers exactly the first-order hardware effects the paper's
//! lessons depend on:
//!
//! * roofline kernel cost — `max(flops / peak, bytes / bandwidth)` plus a
//!   per-launch overhead ([`kernel`]),
//! * host ↔ device transfers over PCIe / NVLink, including the
//!   GPUDirect-vs-staged-copy crossover of §4.11 ([`sim`], [`spec::LinkSpec`]),
//! * CUDA-style streams, per-direction copy engines, and events
//!   ([`sim::Sim::transfer_async`], [`sim::Engine`], [`sim::Event`]) so
//!   communication/computation overlap can be expressed and *measured*
//!   ([`sim::Sim`]),
//! * unified-memory page migration ([`unified`]),
//! * multi-node interconnects and the collectives (allreduce, alltoall,
//!   gather) behind the Spark/LDA, LBANN, and Graph500 results ([`network`]),
//! * machine presets for every system named in the paper ([`machines`]).
//!
//! # Quickstart
//!
//! ```
//! use hetsim::{machines, Sim, KernelProfile, Target};
//!
//! let mut sim = Sim::new(machines::sierra_node());
//! // A memory-bound stencil sweep over 10M points, 8 flops and 9 reads/pt.
//! let k = KernelProfile::new("stencil")
//!     .flops(80e6)
//!     .bytes_read(9.0 * 8.0 * 10e6)
//!     .bytes_written(8.0 * 10e6);
//! let t_gpu = sim.launch(Target::gpu(0), &k);
//! let t_cpu = sim.launch(Target::cpu_all(), &k);
//! assert!(t_gpu < t_cpu, "HBM beats DDR on a bandwidth-bound kernel");
//! ```

pub mod des;
mod fast_hash;
pub mod kernel;
pub mod machines;
pub mod mem;
pub mod network;
pub mod obs;
pub mod sim;
pub mod spec;
pub mod unified;

pub use des::{desc_nan_last, EventKernel, EventKey, EventQueue, TrackBank};
pub use kernel::{CostTerms, KernelProfile, LaunchClass, Precision};
pub use mem::{MemId, MemTracker, Migration, OomError, OomPolicy};
pub use network::{AllReduceAlgo, CollectiveKind, Network, StragglerSpec};
pub use obs::{Recorder, SpanKind, SpanRecord};
pub use sim::{Engine, Event, Loc, Sim, StreamId, Target, TransferKind, PHANTOM_NVME_BW_GBS};
pub use spec::{
    BackendSpec, CpuSpec, GpuSpec, LinkKind, LinkSpec, Machine, NetworkSpec, NodeConfig, PowerSpec,
    TopologySpec,
};

/// One gibibyte, in bytes.
pub const GIB: f64 = 1024.0 * 1024.0 * 1024.0;
/// One gigabyte (10^9 bytes), the unit vendors quote bandwidth in.
pub const GB: f64 = 1e9;
/// One gigaflop/s.
pub const GFLOPS: f64 = 1e9;
/// One microsecond, in seconds.
pub const US: f64 = 1e-6;
