//! A minimal, dependency-free neural-network substrate.
//!
//! The paper's barrier-effect-sensitive phoneme detector is a
//! bidirectional recurrent network with LSTM units (64 per direction), a
//! dense output layer with two neurons, softmax cross-entropy loss and an
//! ADAM optimizer (Sec. V-B). This crate implements exactly those pieces
//! from scratch:
//!
//! * [`matrix::Matrix`] — a dense row-major `f32` matrix with blocked
//!   GEMM kernels ([`matrix::Matrix::matmul_nt`], batched gradient
//!   products) shared by every layer,
//! * [`matrix::GemmScratch`] — reusable working buffers so the hot
//!   inference/training paths allocate nothing per timestep,
//! * [`act`] — branch-free rational `tanh`/`sigmoid` kernels that the
//!   gate loops auto-vectorize through (scalar libm transcendentals
//!   cost as much as the matrix products at this model size),
//! * [`param::Param`] — a trainable tensor with gradient and ADAM state,
//! * [`lstm::Lstm`] — a single-direction LSTM with full backpropagation
//!   through time,
//! * [`lstm::BiLstm`] — the paper's bidirectional wrapper (forward and
//!   backward hidden states are *summed*, matching the paper's
//!   `h_t = h→_t + h←_t`),
//! * [`dense::Dense`] — an affine output layer,
//! * [`loss`] — softmax cross-entropy,
//! * [`model::BrnnClassifier`] — the assembled per-frame binary
//!   classifier with a training loop.
//!
//! Gradients are verified against finite differences in the test suite.
//!
//! # Example
//!
//! ```
//! use rand::{rngs::StdRng, SeedableRng};
//! use thrubarrier_nn::model::{BrnnClassifier, TrainConfig};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let mut model = BrnnClassifier::new(4, 8, 2, &mut rng);
//! // One toy sequence: class 1 iff feature 0 is high.
//! let xs = vec![vec![1.0, 0.0, 0.0, 0.0]; 5];
//! let ys = vec![1usize; 5];
//! let cfg = TrainConfig::default();
//! for _ in 0..30 {
//!     model.train_step(&[(&xs, &ys)], &cfg);
//! }
//! let probs = model.predict_proba(&xs);
//! assert!(probs[2][1] > 0.5);
//! ```

#![warn(missing_docs)]

pub mod act;
pub mod batch;
pub mod dense;
pub mod gru;
pub mod loss;
pub mod lstm;
pub mod matrix;
pub mod model;
pub mod param;
pub mod score;
pub mod serialize;

pub use batch::BatchWorkspace;
pub use matrix::{GemmScratch, Matrix, TransposedCache};
pub use model::BrnnClassifier;
pub use score::{PendingScore, ScoreClient, ScoreService};
