//! `fem` — the MFEM stand-in (§4.10.3).
//!
//! "The MFEM team determined early on that the library's existing
//! algorithms were the wrong choice for GPUs ... \[they\] rewrote the core
//! algorithms to use sum factorization and to employ partially or
//! completely matrix-free operator representations."
//!
//! This crate implements both worlds so the rewrite can be measured:
//!
//! * [`op::DiffusionPA`] / [`op::MassPA`] — matrix-free partial-assembly
//!   operators applied by tensor contractions (sum factorisation), the
//!   GPU-era algorithm;
//! * [`op::assemble_diffusion`] — classic global CSR assembly, the legacy
//!   algorithm (and the path used to build the low-order-refined
//!   preconditioner fed to *hypre*'s BoomerAMG, §4.10.4);
//! * [`basis`] / [`quad`] — Gauss-Legendre quadrature and Gauss-Lobatto
//!   nodal bases of arbitrary order `p`;
//! * [`device`] — kernel-cost profiles for the PA apply, including the
//!   compile-time-constant ("JIT", §4.10.3) vs dynamic-loop-bound variants.
//!
//! The discretisation is H1 tensor-product elements on Cartesian meshes
//! (2-D and 3-D) — the setting of the paper's nonlinear-diffusion
//! benchmark (Fig 8 / Table 4).
//!
//! ```
//! use fem::{DiffusionPA, Mesh2d};
//!
//! let mesh = Mesh2d::unit(4, 4, 3);
//! let op = DiffusionPA::new(mesh.clone(), |_x, _y| 1.0);
//! // The operator annihilates linear fields in the interior.
//! let u = mesh.project(|x, y| 2.0 * x - y);
//! let mut out = vec![0.0; mesh.ndof()];
//! op.apply_unconstrained(&u, &mut out);
//! let (nx, ny) = mesh.dof_dims();
//! assert!(out[(nx / 2) * ny + ny / 2].abs() < 1e-10);
//! ```

pub mod basis;
pub mod device;
pub mod dim3;
pub mod jit;
pub mod mesh;
pub mod op;
pub mod quad;

pub use basis::Basis1d;
pub use dim3::{DiffusionPA3d, Mesh3d};
pub use jit::{apply_diffusion_const, apply_diffusion_dispatch};
pub use mesh::Mesh2d;
pub use op::{assemble_diffusion, DiffusionPA, MassPA};
