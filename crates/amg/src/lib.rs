//! `amg` — the *hypre* stand-in (§4.10.1).
//!
//! hypre gave the iCoE two solver families, and this crate reproduces both
//! along with the porting decisions the paper describes:
//!
//! * [`boomer`] — **BoomerAMG**, the unstructured algebraic-multigrid
//!   solver. The *setup* phase (strength-of-connection, coarsening,
//!   interpolation, Galerkin products) "consists of complicated components"
//!   and **stays on the CPU**; the *solve* phase "can completely be
//!   performed in terms of matrix-vector multiplications" and is what got
//!   ported to the device. [`boomer::BoomerAmg::cycle_cost`] charges
//!   the solve phase of that split to a [`hetsim::Sim`].
//! * [`structured`] — the structured (PFMG-style) solver whose kernels are
//!   "abstracted with macros called BoxLoops ... completely restructured to
//!   allow ports of CUDA, OpenMP 4.5, RAJA and Kokkos into the isolated
//!   BoxLoops". Our [`structured::BoxLoop`] is that isolation layer: the
//!   same red-black Gauss-Seidel and transfer kernels run under any
//!   [`portal::Policy`].
//!
//! BoomerAMG implements [`linalg::Preconditioner`], so it drops into the
//! Krylov solvers the same way hypre drops into MFEM and SUNDIALS (§4.10.4):
//!
//! ```
//! use amg::{AmgOptions, BoomerAmg};
//! use linalg::{cg, CsrMatrix};
//!
//! let a = CsrMatrix::laplace2d(32, 32);
//! let b = vec![1.0; a.rows];
//! let mut x = vec![0.0; a.rows];
//! let mut precond = BoomerAmg::setup(a.clone(), AmgOptions::default());
//! let stats = cg(&a, &b, &mut x, &mut precond, 1e-8, 100);
//! assert!(stats.converged && stats.iterations < 20);
//! ```

pub mod boomer;
pub mod structured;

pub use boomer::{AmgOptions, BoomerAmg, CycleStats};
pub use structured::{BoxLoop, StructGrid, StructSolver};
