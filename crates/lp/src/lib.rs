//! `jarvis-lp` — the Jarvis load-factor LP in closed form.
//!
//! The paper transforms its non-convex data-level partitioning problem
//! (Eq. 2) into a linear program over *effective* load factors
//! `e_i = Π_{j≤i} p_j` (Eq. 3). In the differences `d_j = e_j − e_{j+1}` that
//! LP has only two constraints besides `d ≥ 0`, so an optimal vertex has at
//! most two non-zero `d_j`, and enumerating the `O(m²)` candidates solves it
//! exactly. The [`loadfactor`] module builds and solves Eq. 3 and recovers
//! per-proxy load factors.

pub mod loadfactor;

pub use loadfactor::{solve_load_factors, LoadFactorProblem, LoadFactorSolution};
