//! Minimal dense `f32` tensor library backing the Sync-Switch neural-network
//! substrate.
//!
//! This is not a general array-programming library: it implements exactly the
//! operations the training substrate needs — row-major dense storage,
//! elementwise arithmetic, 2-D matrix products, reductions, and random
//! initialization — with argument validation and deterministic behaviour.
//!
//! # Example
//!
//! ```
//! use sync_switch_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.data(), a.data());
//! ```

#![warn(clippy::undocumented_unsafe_blocks)]

pub mod init;
pub mod linalg;
pub mod tensor;

pub use init::Init;
pub use tensor::Tensor;
