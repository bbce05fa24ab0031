//! Umbrella crate for the DGCL reproduction workspace.
//!
//! This crate exists to host the cross-crate integration tests under
//! `tests/` and the runnable example under `examples/`. The library
//! surface simply re-exports the workspace crates so that they can use
//! one coherent namespace.
//!
//! The repository README follows; its library snippet is compiled and
//! run as a doctest of this crate.
#![doc = include_str!("../README.md")]

pub use dgcl;
pub use dgcl_gnn as gnn;
pub use dgcl_graph as graph;
pub use dgcl_partition as partition;
pub use dgcl_plan as plan;
pub use dgcl_sim as sim;
pub use dgcl_tensor as tensor;
pub use dgcl_topology as topology;
