//! GNN models with explicit forward/backward passes.
//!
//! Implements the three models of the paper's evaluation — GCN, CommNet
//! and GIN — over CSR graphs and the dense `dgcl-tensor` substrate, with
//! hand-written backward passes and SGD. The layers follow the
//! aggregate-update pattern of §2:
//!
//! ```text
//! a_v = AGGREGATE({ h_u | u in N(v) })
//! h'_v = UPDATE(a_v, h_v)
//! ```
//!
//! Layers are *locality-aware*: a device computes outputs only for its
//! first `num_local` vertices while aggregating over the full visible
//! embedding matrix (local + remote rows, in the `dgcl-partition` local-id
//! layout), and the backward pass produces gradients for all visible rows
//! — the remote rows' gradients are exactly what the backward
//! graph-allgather ships to their owners. With `num_local == n` the same
//! code is the single-device engine, which is how the distributed runtime
//! in `dgcl` verifies numerical parity.

pub mod aggregate;
pub mod layers;
pub mod loss;
pub mod model;

pub use layers::{AggKind, Architecture, Layer};
pub use model::{forward_chain, GnnNetwork};
