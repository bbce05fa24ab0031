//! Dense `f32` tensor substrate for the DGCL reproduction.
//!
//! The original DGCL delegates dense math to DGL/PyTorch on the GPU. This
//! crate provides the minimal CPU replacement the reproduction needs: a
//! row-major [`Matrix`] with the linear-algebra and activation kernels used
//! by the GNN layers in `dgcl-gnn`, written so that distributed training can
//! be checked for numerical parity against single-device training.
//!
//! # Examples
//!
//! ```
//! use dgcl_tensor::Matrix;
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::eye(2);
//! assert_eq!(a.matmul(&b), a);
//! ```

#[macro_use]
mod width;

mod activation;
mod init;
mod matrix;
mod ops;
pub mod pool;
mod reduce;
pub mod spmm;

pub use activation::Activation;
pub use init::XavierInit;
pub use matrix::Matrix;
pub use pool::{compute_threads, set_compute_threads, set_thread_budget};
pub use spmm::{spmm_csr_dense_into, spmm_pattern_into, spmm_pattern_reference, CsrBlock};
