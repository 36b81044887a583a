//! Affine (fully-connected) layer.

use crate::matrix::{Matrix, TransposedCache};
use crate::param::Param;
use rand::Rng;

/// A fully-connected layer `y = W x + b` applied independently per frame.
///
/// The paper attaches a dense layer with 2 neurons to the BRNN for binary
/// effective-phoneme detection (Sec. V-B).
#[derive(Debug, Clone)]
pub struct Dense {
    /// Weights, `out x in`.
    pub w: Param,
    /// Bias, `out x 1`.
    pub b: Param,
}

/// Cached inputs for the backward pass.
#[derive(Debug, Clone)]
pub struct DenseCache {
    inputs: Vec<Vec<f32>>,
}

impl Dense {
    /// Creates a dense layer with Xavier-initialized weights and zero
    /// bias.
    pub fn new<R: Rng + ?Sized>(input_size: usize, output_size: usize, rng: &mut R) -> Self {
        Dense {
            w: Param::new(Matrix::xavier(output_size, input_size, rng)),
            b: Param::new(Matrix::zeros(output_size, 1)),
        }
    }

    /// Reconstructs a dense layer from explicit weights.
    ///
    /// # Errors
    ///
    /// Returns a message when the bias shape does not match.
    pub fn from_weights(w: Matrix, b: Matrix) -> Result<Self, String> {
        if b.rows() != w.rows() || b.cols() != 1 {
            return Err(format!(
                "bias {}x{} does not match weights {}x{}",
                b.rows(),
                b.cols(),
                w.rows(),
                w.cols()
            ));
        }
        Ok(Dense {
            w: Param::new(w),
            b: Param::new(b),
        })
    }

    /// Output dimension.
    pub fn output_size(&self) -> usize {
        self.w.value.rows()
    }

    /// Input dimension.
    pub fn input_size(&self) -> usize {
        self.w.value.cols()
    }

    /// Applies the layer to one frame without recording backward-pass
    /// state — the inference path.
    pub fn apply(&self, x: &[f32]) -> Vec<f32> {
        let mut y = self.w.value.matvec(x);
        for (v, &bias) in y.iter_mut().zip(self.b.value.data()) {
            *v += bias;
        }
        y
    }

    /// Applies the layer to every frame in the sequence.
    pub fn forward(&self, xs: &[Vec<f32>]) -> (Vec<Vec<f32>>, DenseCache) {
        let outs = xs
            .iter()
            .map(|x| {
                let mut y = self.w.value.matvec(x);
                for (v, &bias) in y.iter_mut().zip(self.b.value.data()) {
                    *v += bias;
                }
                y
            })
            .collect();
        (
            outs,
            DenseCache {
                inputs: xs.to_vec(),
            },
        )
    }

    /// Backpropagates per-frame output gradients, accumulating parameter
    /// gradients and returning per-frame input gradients.
    ///
    /// # Panics
    ///
    /// Panics if `dys.len()` differs from the cached sequence length.
    pub fn backward(&mut self, cache: &DenseCache, dys: &[Vec<f32>]) -> Vec<Vec<f32>> {
        assert_eq!(dys.len(), cache.inputs.len(), "gradient length mismatch");
        let mut dxs = Vec::with_capacity(dys.len());
        for (x, dy) in cache.inputs.iter().zip(dys) {
            self.w.grad.add_outer(dy, x);
            for (slot, &d) in self.b.grad.data_mut().iter_mut().zip(dy) {
                *slot += d;
            }
            dxs.push(self.w.value.matvec_transposed(dy));
        }
        dxs
    }

    /// Applies the layer to `n` flat row-major frames in one GEMM —
    /// the batched-engine counterpart of per-frame [`Dense::apply`].
    /// Each output row matches `apply` bitwise (shared per-row fold of
    /// [`Matrix::matmul_nt`] plus the same single bias add).
    pub(crate) fn forward_flat(&self, x: &[f32], n: usize, out: &mut Vec<f32>) {
        self.w.value.matmul_nt_into(x, n, out);
        let bias = self.b.value.data();
        for row in out.chunks_exact_mut(self.output_size().max(1)) {
            for (v, &bv) in row.iter_mut().zip(bias) {
                *v += bv;
            }
        }
    }

    /// Flat-batch backward: `x` holds the `n` cached input rows,
    /// `dys` the `n` output-gradient rows; input gradients land in `dx`
    /// (resized to `n x input_size`). The weight gradient accumulates
    /// through the register-tiled [`Matrix::add_tn_product_fused`]
    /// (within-fma-rounding of the plain `dW += dYᵀ·X` GEMM), the bias
    /// is a column sum, and the input
    /// gradients run as one `dX = Wᵀ·dY` GEMM over a cached transpose
    /// keyed by the weight's version ticket (rebuilt only after an
    /// optimizer step). The head's `Wᵀ` is a tall narrow matrix, so the
    /// GEMM takes the column-streaming narrow path, whose per-element
    /// plain fold matches a row-by-row `Wᵀ·dY` product's accumulation
    /// order — input gradients are bitwise identical to the unfused
    /// oracle in the tests.
    pub(crate) fn backward_flat_fused(
        &mut self,
        x: &[f32],
        dys: &[f32],
        n: usize,
        dx: &mut Vec<f32>,
        wt: &mut TransposedCache,
    ) {
        self.w.grad.add_tn_product_fused(dys, x, n);
        let bg = self.b.grad.data_mut();
        for row in dys.chunks_exact(self.w.value.rows().max(1)) {
            for (slot, &d) in bg.iter_mut().zip(row) {
                *slot += d;
            }
        }
        dx.clear();
        dx.resize(n * self.input_size(), 0.0);
        wt.get(&self.w.value, self.w.version())
            .matmul_nt_fused_to(dys, n, dx, false);
    }

    /// The layer's trainable parameters.
    pub fn params_mut(&mut self) -> [&mut Param; 2] {
        [&mut self.w, &mut self.b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The unfused flat-batch backward: plain `dW += dYᵀ·X` and
    /// `dX = Wᵀ·dY` products. The parity oracle for
    /// [`Dense::backward_flat_fused`].
    impl Dense {
        /// Flat-batch backward: `x` holds the `n` cached input rows,
        /// `dys` the `n` output-gradient rows. Parameter gradients are
        /// accumulated as one `dW += dYᵀ·X` GEMM plus a bias column sum;
        /// input gradients land in `dx` (resized to `n x input_size`).
        pub(crate) fn backward_flat(
            &mut self,
            x: &[f32],
            dys: &[f32],
            n: usize,
            dx: &mut Vec<f32>,
        ) {
            self.w.grad.add_tn_product(dys, x, n);
            let bg = self.b.grad.data_mut();
            for row in dys.chunks_exact(self.w.value.rows().max(1)) {
                for (slot, &d) in bg.iter_mut().zip(row) {
                    *slot += d;
                }
            }
            dx.clear();
            dx.resize(n * self.input_size(), 0.0);
            self.w.value.matmul_t_to(dys, n, dx);
        }
    }

    #[test]
    fn forward_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = Dense::new(4, 2, &mut rng);
        let xs = vec![vec![0.0; 4]; 3];
        let (ys, _) = d.forward(&xs);
        assert_eq!(ys.len(), 3);
        assert!(ys.iter().all(|y| y.len() == 2));
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut layer = Dense::new(3, 2, &mut rng);
        let xs = vec![vec![0.3, -0.7, 0.5], vec![1.0, 0.0, -1.0]];
        let loss = |l: &Dense| -> f32 { l.forward(&xs).0.iter().flatten().sum() };
        let (_, cache) = layer.forward(&xs);
        let dys = vec![vec![1.0f32; 2]; 2];
        let dxs = layer.backward(&cache, &dys);
        let eps = 1e-3f32;
        for k in 0..6 {
            let analytic = layer.w.grad.data()[k];
            let mut l2 = layer.clone();
            l2.w.value.data_mut()[k] += eps;
            let up = loss(&l2);
            l2.w.value.data_mut()[k] -= 2.0 * eps;
            let down = loss(&l2);
            let numeric = (up - down) / (2.0 * eps);
            assert!((analytic - numeric).abs() < 1e-2, "w[{k}]");
        }
        // Input gradient = column sums of W for unit output gradient.
        for (j, &dx) in dxs[0].iter().enumerate().take(3) {
            let expected = layer.w.value.get(0, j) + layer.w.value.get(1, j);
            assert!((dx - expected).abs() < 1e-5);
        }
    }

    #[test]
    fn flat_paths_match_per_frame_paths() {
        let mut rng = StdRng::seed_from_u64(5);
        let layer = Dense::new(3, 2, &mut rng);
        let xs = vec![
            vec![0.3, -0.7, 0.5],
            vec![1.0, 0.0, -1.0],
            vec![0.2, 0.9, 0.4],
        ];
        let flat: Vec<f32> = xs.iter().flatten().copied().collect();
        let mut out = Vec::new();
        layer.forward_flat(&flat, 3, &mut out);
        for (t, x) in xs.iter().enumerate() {
            assert_eq!(&out[t * 2..(t + 1) * 2], layer.apply(x).as_slice());
        }

        let dys = vec![vec![1.0f32, -0.5], vec![0.25, 2.0], vec![-1.5, 0.75]];
        let dys_flat: Vec<f32> = dys.iter().flatten().copied().collect();
        let mut per_frame = layer.clone();
        let (_, cache) = per_frame.forward(&xs);
        let dxs = per_frame.backward(&cache, &dys);
        let mut batched = layer.clone();
        let mut dx = Vec::new();
        batched.backward_flat(&flat, &dys_flat, 3, &mut dx);
        for (a, b) in batched.w.grad.data().iter().zip(per_frame.w.grad.data()) {
            assert!((a - b).abs() < 1e-6);
        }
        assert_eq!(batched.b.grad.data(), per_frame.b.grad.data());
        for (t, dxt) in dxs.iter().enumerate() {
            assert_eq!(&dx[t * 3..(t + 1) * 3], dxt.as_slice());
        }
    }

    #[test]
    fn fused_flat_backward_matches_unfused() {
        // Head-shaped layer (few outputs, wide input) over enough
        // frames to exercise the tiled accumulate: weight gradients
        // match within fma rounding, bias gradients and input
        // gradients bitwise (the narrow Wᵀ GEMM shares the plain fold
        // of `matmul_t_to`).
        let mut rng = StdRng::seed_from_u64(9);
        let layer = Dense::new(128, 2, &mut rng);
        let n = 17;
        let x: Vec<f32> = (0..n * 128).map(|i| (i as f32 * 0.13).sin()).collect();
        let dys: Vec<f32> = (0..n * 2).map(|i| (i as f32 * 0.71).cos()).collect();

        let mut plain = layer.clone();
        let mut dx_plain = Vec::new();
        plain.backward_flat(&x, &dys, n, &mut dx_plain);

        let mut fused = layer.clone();
        let mut wt = TransposedCache::new();
        let mut dx_fused = Vec::new();
        fused.backward_flat_fused(&x, &dys, n, &mut dx_fused, &mut wt);

        for (i, (a, b)) in fused
            .w
            .grad
            .data()
            .iter()
            .zip(plain.w.grad.data())
            .enumerate()
        {
            assert!(
                (a - b).abs() < 1e-5 * b.abs().max(1.0),
                "w grad {i}: {a} vs {b}"
            );
        }
        assert_eq!(fused.b.grad.data(), plain.b.grad.data());
        assert_eq!(dx_fused.len(), dx_plain.len());
        for (i, (a, b)) in dx_fused.iter().zip(&dx_plain).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "dx {i}");
        }
        // Second call with unchanged weights reuses the cached
        // transpose (same version ticket) and stays correct.
        let mut dx_again = Vec::new();
        fused.backward_flat_fused(&x, &dys, n, &mut dx_again, &mut wt);
        assert_eq!(dx_again, dx_fused);
    }

    #[test]
    fn bias_gradient_accumulates_over_frames() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut layer = Dense::new(2, 2, &mut rng);
        let xs = vec![vec![0.0; 2]; 4];
        let (_, cache) = layer.forward(&xs);
        let dys = vec![vec![1.0, 2.0]; 4];
        layer.backward(&cache, &dys);
        assert!((layer.b.grad.get(0, 0) - 4.0).abs() < 1e-6);
        assert!((layer.b.grad.get(1, 0) - 8.0).abs() < 1e-6);
    }
}
