//! Graph substrate for the DGCL reproduction.
//!
//! Provides compressed-sparse-row graph storage ([`CsrGraph`]), an edge-list
//! [`builder::GraphBuilder`], synthetic graph [`generators`] (R-MAT,
//! Barabási–Albert, Erdős–Rényi), the paper's dataset catalog
//! ([`datasets::Dataset`], Table 4 of the paper) and k-hop neighbourhood
//! expansion used for replication-factor analysis (Figure 4).
//!
//! # Examples
//!
//! ```
//! use dgcl_graph::builder::GraphBuilder;
//!
//! let mut b = GraphBuilder::new(4);
//! b.add_edge(0, 1);
//! b.add_edge(1, 2);
//! b.add_edge(2, 3);
//! let g = b.build_symmetric();
//! assert_eq!(g.num_vertices(), 4);
//! assert_eq!(g.out_degree(1), 2);
//! ```

pub mod builder;
pub mod csr;
pub mod datasets;
pub mod generators;
pub mod io;
pub mod khop;
pub mod sample;

pub use builder::GraphBuilder;
pub use csr::CsrGraph;
pub use datasets::Dataset;
pub use khop::{
    k_hop_closure, k_hop_closure_sparse, replication_factor, GraphError, SparseClosure,
};
pub use sample::{sample_blocks, seed_batches, BlockPool, LayerBlock};

/// Vertex identifier within a graph.
pub type VertexId = u32;
