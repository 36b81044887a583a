//! GRU and bidirectional GRU layers with backpropagation through time.
//!
//! The paper's reference [Shewalkar et al., JAISCR'19] compares RNN,
//! LSTM and GRU for speech tasks; this module lets the workspace run the
//! same architecture comparison for the phoneme detector (see the
//! `detector_architectures` extension experiment). Gate layout is
//! `[z, r, n]` (update, reset, candidate).
//!
//! The compute engine mirrors [`crate::lstm`]: fused `3H x D` / `3H x H`
//! weight matrices, one time-batched [`Matrix::matmul_nt`] GEMM for all
//! input projections `W·x_t` before the recurrence, flat row-major
//! activation caches, and batched `dW += dZᵀ·X` gradient GEMMs. The GRU
//! keeps *two* flat gradient buffers because the candidate gate's
//! recurrent gradient is scaled by the reset gate, so the `U`-side gate
//! matrix differs from the `W`-side one.

use crate::act::{gru_gates_backward_fused, sigmoid, sigmoid_slice, tanh, tanh_slice};
use crate::batch::{BatchWorkspace, DirCache, PackedBatch};
use crate::matrix::{pack_rows, GemmScratch, Matrix};
use crate::param::Param;
use rand::Rng;

/// A single-direction GRU layer.
#[derive(Debug, Clone)]
pub struct Gru {
    /// Input weights, fused `3H x D` (`[z, r, n]` gate blocks stacked).
    pub w: Param,
    /// Recurrent weights, fused `3H x H`.
    pub u: Param,
    /// Bias, fused `3H x 1`.
    pub b: Param,
    input_size: usize,
    hidden_size: usize,
}

/// Forward-pass activations for a whole sequence, stored as flat
/// row-major buffers (`T` rows each).
#[derive(Debug, Clone)]
pub struct GruCache {
    t: usize,
    /// Packed inputs, `T x D` (processing order).
    x: Vec<f32>,
    /// Hidden state entering each step, `T x H`.
    h_prev: Vec<f32>,
    /// Activated gates `[z, r, n]` per step, `T x 3H`.
    gates: Vec<f32>,
    /// The candidate gate's recurrent pre-activation `(U·h)_n`, `T x H`
    /// (needed to route gradients through the reset gate).
    un_h: Vec<f32>,
}

impl Gru {
    /// Creates a GRU with Xavier-initialized weights.
    pub fn new<R: Rng + ?Sized>(input_size: usize, hidden_size: usize, rng: &mut R) -> Self {
        Gru {
            w: Param::new(Matrix::xavier(3 * hidden_size, input_size, rng)),
            u: Param::new(Matrix::xavier(3 * hidden_size, hidden_size, rng)),
            b: Param::new(Matrix::zeros(3 * hidden_size, 1)),
            input_size,
            hidden_size,
        }
    }

    /// Input dimension.
    pub fn input_size(&self) -> usize {
        self.input_size
    }

    /// Hidden dimension.
    pub fn hidden_size(&self) -> usize {
        self.hidden_size
    }

    /// Runs the layer over a sequence.
    ///
    /// # Panics
    ///
    /// Panics if an input vector's length differs from the input size.
    pub fn forward(&self, xs: &[Vec<f32>]) -> (Vec<Vec<f32>>, GruCache) {
        let mut scratch = GemmScratch::new();
        self.forward_with_scratch(xs, &mut scratch)
    }

    /// [`Gru::forward`] streaming through a reusable [`GemmScratch`].
    pub fn forward_with_scratch(
        &self,
        xs: &[Vec<f32>],
        scratch: &mut GemmScratch,
    ) -> (Vec<Vec<f32>>, GruCache) {
        self.forward_dir(xs, false, scratch)
    }

    /// Direction-aware forward pass (`reversed` consumes the sequence in
    /// reverse time order without cloning it).
    pub(crate) fn forward_dir(
        &self,
        xs: &[Vec<f32>],
        reversed: bool,
        scratch: &mut GemmScratch,
    ) -> (Vec<Vec<f32>>, GruCache) {
        let t_len = xs.len();
        let hl = self.hidden_size;
        let mut cache = GruCache {
            t: t_len,
            x: Vec::new(),
            h_prev: vec![0.0; t_len * hl],
            gates: vec![0.0; t_len * 3 * hl],
            un_h: vec![0.0; t_len * hl],
        };
        pack_rows(xs, self.input_size, reversed, &mut cache.x);
        self.w
            .value
            .matmul_nt_into(&cache.x, t_len, &mut scratch.proj);
        scratch.z.clear();
        scratch.z.resize(3 * hl, 0.0);
        scratch.state.clear();
        scratch.state.resize(hl, 0.0);
        let h = &mut scratch.state[..];
        let bias = self.b.value.data();
        let mut outputs = Vec::with_capacity(t_len);
        for t in 0..t_len {
            cache.h_prev[t * hl..(t + 1) * hl].copy_from_slice(h);
            // uh = U·h_{t-1}; the n-block is kept *separate* from the
            // input projection because it is gated by r before entering
            // tanh.
            self.u.value.matvec_into(h, &mut scratch.z);
            let uh = &scratch.z;
            let wx = &scratch.proj[t * 3 * hl..(t + 1) * 3 * hl];
            let gates = &mut cache.gates[t * 3 * hl..(t + 1) * 3 * hl];
            let un_h = &mut cache.un_h[t * hl..(t + 1) * hl];
            for k in 0..hl {
                gates[k] = sigmoid(wx[k] + uh[k] + bias[k]);
                gates[hl + k] = sigmoid(wx[hl + k] + uh[hl + k] + bias[hl + k]);
                un_h[k] = uh[2 * hl + k];
            }
            for k in 0..hl {
                gates[2 * hl + k] =
                    tanh(wx[2 * hl + k] + gates[hl + k] * un_h[k] + bias[2 * hl + k]);
            }
            for k in 0..hl {
                h[k] = (1.0 - gates[k]) * gates[2 * hl + k] + gates[k] * h[k];
            }
            outputs.push(h.to_vec());
        }
        (outputs, cache)
    }

    /// Backpropagates through time, accumulating parameter gradients and
    /// returning input gradients.
    ///
    /// # Panics
    ///
    /// Panics if `dhs.len()` differs from the cached sequence length.
    pub fn backward(&mut self, cache: &GruCache, dhs: &[Vec<f32>]) -> Vec<Vec<f32>> {
        let mut scratch = GemmScratch::new();
        self.backward_with_scratch(cache, dhs, &mut scratch)
    }

    /// [`Gru::backward`] streaming through a reusable [`GemmScratch`].
    pub fn backward_with_scratch(
        &mut self,
        cache: &GruCache,
        dhs: &[Vec<f32>],
        scratch: &mut GemmScratch,
    ) -> Vec<Vec<f32>> {
        assert_eq!(dhs.len(), cache.t, "gradient length mismatch");
        let hl = self.hidden_size;
        let t_len = cache.t;
        let mut dxs = vec![vec![0.0f32; self.input_size]; t_len];
        let GemmScratch {
            dz, dz_u, dstate, ..
        } = scratch;
        dz.clear();
        dz.resize(t_len * 3 * hl, 0.0);
        dz_u.clear();
        dz_u.resize(t_len * 3 * hl, 0.0);
        dstate.clear();
        dstate.resize(3 * hl, 0.0);
        let (dh_next, rest) = dstate.split_at_mut(hl);
        let (dh, dtmp) = rest.split_at_mut(hl);
        for t in (0..t_len).rev() {
            let gates = &cache.gates[t * 3 * hl..(t + 1) * 3 * hl];
            let (gz, gr, gn) = (&gates[..hl], &gates[hl..2 * hl], &gates[2 * hl..]);
            let h_prev = &cache.h_prev[t * hl..(t + 1) * hl];
            let un_h = &cache.un_h[t * hl..(t + 1) * hl];
            let dz_t = &mut dz[t * 3 * hl..(t + 1) * 3 * hl];
            let du_t = &mut dz_u[t * 3 * hl..(t + 1) * 3 * hl];
            for k in 0..hl {
                dh[k] = dhs[t][k] + dh_next[k];
                let d_z = dh[k] * (h_prev[k] - gn[k]);
                let d_n = dh[k] * (1.0 - gz[k]);
                let dz_pre = d_z * gz[k] * (1.0 - gz[k]);
                let dn_pre = d_n * (1.0 - gn[k] * gn[k]);
                let d_r = dn_pre * un_h[k];
                let dr_pre = d_r * gr[k] * (1.0 - gr[k]);
                dz_t[k] = dz_pre;
                dz_t[hl + k] = dr_pre;
                dz_t[2 * hl + k] = dn_pre;
                // U-side rows: z and r see h_prev directly; the n rows
                // see h_prev through the reset gate.
                du_t[k] = dz_pre;
                du_t[hl + k] = dr_pre;
                du_t[2 * hl + k] = dn_pre * gr[k];
            }
            self.w.value.matvec_transposed_into(dz_t, &mut dxs[t]);
            self.u.value.matvec_transposed_into(du_t, dtmp);
            for k in 0..hl {
                dh_next[k] = dh[k] * gz[k] + dtmp[k];
            }
        }
        // Weight gradients as batched GEMMs over the whole sequence.
        self.w.grad.add_tn_product(dz, &cache.x, t_len);
        self.u.grad.add_tn_product(dz_u, &cache.h_prev, t_len);
        let bg = self.b.grad.data_mut();
        for row in dz.chunks_exact(3 * hl) {
            for (slot, &d) in bg.iter_mut().zip(row) {
                *slot += d;
            }
        }
        dxs
    }

    /// Fills `dir.proj` with the pack's input projections, keyed by the
    /// weight versions so successive passes over an unchanged model
    /// re-use it. Unlike the LSTM cache, `proj` stays bare `W·x`: the
    /// GRU cell adds `wx + uh + bias` in that association order, so
    /// folding the bias in here would change the sums bitwise.
    fn fill_proj(&self, pack: &PackedBatch, dir: &mut DirCache, reversed: bool) {
        let gr = 3 * self.hidden_size;
        let total = pack.total_rows();
        let key = (self.w.version(), self.b.version());
        if dir.proj_key == Some(key) {
            thrubarrier_obs::counter!("nn.proj_cache.hit").incr();
        } else {
            thrubarrier_obs::counter!("nn.proj_cache.miss").incr();
            dir.proj.clear();
            dir.proj.resize(total * gr, 0.0);
            self.w
                .value
                .matmul_nt_to(pack.x(reversed), total, &mut dir.proj, false);
            dir.proj_key = Some(key);
        }
    }

    /// Batched forward pass over a packed minibatch, mirroring
    /// [`crate::lstm::Lstm::forward_batch_dir`]: the recurrent `U·h` of
    /// every active sequence runs as one `3H×H × H×nb` GEMM per step
    /// and the input projections come from the epoch-persistent
    /// `dir.proj` cache. Hidden states are *added* into `out[seq][t]`
    /// (index-reversed when `reversed`); activations are cached in
    /// `dir` for [`Gru::backward_batch_dir_fused`].
    pub(crate) fn forward_batch_dir(
        &self,
        pack: &PackedBatch,
        dir: &mut DirCache,
        reversed: bool,
        scratch: &mut GemmScratch,
        out: &mut [Vec<Vec<f32>>],
    ) {
        let hl = self.hidden_size;
        let gr = 3 * hl;
        assert_eq!(pack.width(), self.input_size, "input dimension mismatch");
        let total = pack.total_rows();
        self.fill_proj(pack, dir, reversed);
        dir.h_prev.clear();
        dir.h_prev.resize(total * hl, 0.0);
        dir.gates.clear();
        dir.gates.resize(total * gr, 0.0);
        dir.aux.clear();
        dir.aux.resize(total * hl, 0.0);
        let nb0 = if pack.max_len() == 0 {
            0
        } else {
            pack.active(0)
        };
        let GemmScratch { bh, bt, .. } = scratch;
        bh.clear();
        bh.resize(nb0 * hl, 0.0);
        bt.clear();
        bt.resize(nb0 * gr, 0.0);
        let bias = self.b.value.data();
        for t in 0..pack.max_len() {
            let nb = pack.active(t);
            let off = pack.offset(t);
            dir.h_prev[off * hl..(off + nb) * hl].copy_from_slice(&bh[..nb * hl]);
            // uh = U·h_{t-1} for all active rows; the n-block stays
            // separate from the input projection because it is gated by
            // r before entering tanh.
            self.u
                .value
                .matmul_nt_to(&bh[..nb * hl], nb, &mut bt[..nb * gr], false);
            for b in 0..nb {
                let r = off + b;
                let uh = &bt[b * gr..(b + 1) * gr];
                let wx = &dir.proj[r * gr..(r + 1) * gr];
                let gates = &mut dir.gates[r * gr..(r + 1) * gr];
                let un_h = &mut dir.aux[r * hl..(r + 1) * hl];
                let h = &mut bh[b * hl..(b + 1) * hl];
                for k in 0..hl {
                    gates[k] = sigmoid(wx[k] + uh[k] + bias[k]);
                    gates[hl + k] = sigmoid(wx[hl + k] + uh[hl + k] + bias[hl + k]);
                    un_h[k] = uh[2 * hl + k];
                }
                for k in 0..hl {
                    gates[2 * hl + k] =
                        tanh(wx[2 * hl + k] + gates[hl + k] * un_h[k] + bias[2 * hl + k]);
                }
                for k in 0..hl {
                    h[k] = (1.0 - gates[k]) * gates[2 * hl + k] + gates[k] * h[k];
                }
            }
            for b in 0..nb {
                let pos = if reversed { pack.lens()[b] - 1 - t } else { t };
                let dst = &mut out[pack.order()[b]][pos];
                for (o, &v) in dst.iter_mut().zip(&bh[b * hl..(b + 1) * hl]) {
                    *o += v;
                }
            }
        }
    }

    /// Batched *inference* forward pass writing straight into the flat
    /// packed output buffer `flat` (`total_rows x H`, packed-row
    /// order), mirroring [`crate::lstm::Lstm::infer_batch_dir_flat`]:
    /// the recurrent `U·h` GEMM runs on the fused-FMA kernels of
    /// [`Matrix::matmul_nt_fused_to`] and the gate activations go
    /// through the slice kernels (bitwise identical per element to the
    /// scalar calls of the sequential cell), so outputs match the
    /// sequential engine within fused-multiply-add rounding instead of
    /// bitwise while staying deterministic and bitwise batch-size
    /// invariant. No per-step caches are recorded and no per-frame
    /// vectors are allocated.
    pub(crate) fn infer_batch_dir_flat(
        &self,
        pack: &PackedBatch,
        dir: &mut DirCache,
        reversed: bool,
        scratch: &mut GemmScratch,
        flat: &mut [f32],
        accumulate: bool,
    ) {
        let hl = self.hidden_size;
        let gr = 3 * hl;
        assert_eq!(pack.width(), self.input_size, "input dimension mismatch");
        assert_eq!(flat.len(), pack.total_rows() * hl, "flat output length");
        self.fill_proj(pack, dir, reversed);
        let nb0 = if pack.max_len() == 0 {
            0
        } else {
            pack.active(0)
        };
        let GemmScratch { bh, bt, bz, .. } = scratch;
        bh.clear();
        bh.resize(nb0 * hl, 0.0);
        bt.clear();
        bt.resize(nb0 * gr, 0.0);
        bz.clear();
        bz.resize(nb0 * gr, 0.0);
        let bias = self.b.value.data();
        for t in 0..pack.max_len() {
            let nb = pack.active(t);
            let off = pack.offset(t);
            self.u
                .value
                .matmul_nt_fused_to(&bh[..nb * hl], nb, &mut bt[..nb * gr], false);
            for b in 0..nb {
                let r = off + b;
                let uh = &bt[b * gr..(b + 1) * gr];
                let wx = &dir.proj[r * gr..(r + 1) * gr];
                let g = &mut bz[b * gr..(b + 1) * gr];
                let h = &mut bh[b * hl..(b + 1) * hl];
                // Pre-activations keep the sequential cell's
                // `wx + uh + bias` association order; the slice kernels
                // then activate them bitwise like the scalar calls.
                for k in 0..2 * hl {
                    g[k] = wx[k] + uh[k] + bias[k];
                }
                sigmoid_slice(&mut g[..2 * hl]);
                for k in 0..hl {
                    g[2 * hl + k] = wx[2 * hl + k] + g[hl + k] * uh[2 * hl + k] + bias[2 * hl + k];
                }
                tanh_slice(&mut g[2 * hl..]);
                for k in 0..hl {
                    h[k] = (1.0 - g[k]) * g[2 * hl + k] + g[k] * h[k];
                }
            }
            if !reversed && !accumulate {
                // Step t's rows are exactly the packed rows at its
                // offset: one block copy replaces the per-row scatter.
                flat[off * hl..(off + nb) * hl].copy_from_slice(&bh[..nb * hl]);
            } else {
                for b in 0..nb {
                    let pos = if reversed { pack.lens()[b] - 1 - t } else { t };
                    // Row `b` is active at `pos` too (`pos < lens[b]`),
                    // so it owns packed row `offset(pos) + b`.
                    let row = pack.offset(pos) + b;
                    let src = &bh[b * hl..(b + 1) * hl];
                    let dst = &mut flat[row * hl..(row + 1) * hl];
                    if accumulate {
                        for (o, &v) in dst.iter_mut().zip(src) {
                            *o += v;
                        }
                    } else {
                        dst.copy_from_slice(src);
                    }
                }
            }
        }
    }

    /// Batched BPTT over a packed minibatch (`dhs` as in
    /// [`crate::lstm::Lstm::backward_batch_dir_fused`]), the GRU half
    /// of the register-tiled batched backward engine (see
    /// [`crate::lstm::Lstm::backward_batch_dir_fused`] for the staging
    /// story). Per reverse step it runs one 3H-wide
    /// [`gru_gates_backward_fused`] sweep per active row — writing the
    /// *direct* `dh·z` half of `dh_next` in place — then accumulates
    /// the recurrent `Uᵀ·dZᵤ` half on top with a single fused GEMM over
    /// the direction's version-keyed cached transpose. The final
    /// `dW += dZᵀ·X` / `dU += dZᵤᵀ·H_prev` accumulations stream through
    /// the register-tiled [`Matrix::add_tn_product_fused`]. Gradients
    /// match the unfused path within fma rounding; the gate sweep itself
    /// is bitwise exact.
    pub(crate) fn backward_batch_dir_fused(
        &mut self,
        pack: &PackedBatch,
        dir: &mut DirCache,
        reversed: bool,
        dhs: &[&[f32]],
        scratch: &mut GemmScratch,
    ) {
        let hl = self.hidden_size;
        let gr = 3 * hl;
        let total = pack.total_rows();
        let nb0 = if pack.max_len() == 0 {
            0
        } else {
            pack.active(0)
        };
        let DirCache {
            ut,
            gates,
            aux,
            h_prev,
            ..
        } = dir;
        let GemmScratch { dz, dz_u, bh, .. } = scratch;
        dz.clear();
        dz.resize(total * gr, 0.0);
        dz_u.clear();
        dz_u.resize(total * gr, 0.0);
        // bh holds dh_next rows; a sequence joins the reverse traversal
        // at its own final step with its row still at the zero boundary.
        bh.clear();
        bh.resize(nb0 * hl, 0.0);
        if nb0 > 0 {
            let ut = ut.get(&self.u.value, self.u.version());
            for t in (0..pack.max_len()).rev() {
                let nb = pack.active(t);
                let off = pack.offset(t);
                for b in 0..nb {
                    let r = off + b;
                    let pos = if reversed { pack.lens()[b] - 1 - t } else { t };
                    let dh_seq = &dhs[pack.order()[b]][pos * hl..(pos + 1) * hl];
                    // Pre-sum the sequence gradient onto dh_next
                    // (bitwise equal to the unfused `dh_seq + dh_next`;
                    // IEEE addition commutes); the sweep then overwrites
                    // the row with the direct `dh·z` half.
                    for (slot, &d) in bh[b * hl..(b + 1) * hl].iter_mut().zip(dh_seq) {
                        *slot += d;
                    }
                    gru_gates_backward_fused(
                        &gates[r * gr..(r + 1) * gr],
                        &aux[r * hl..(r + 1) * hl],
                        &h_prev[r * hl..(r + 1) * hl],
                        &mut bh[b * hl..(b + 1) * hl],
                        &mut dz[r * gr..(r + 1) * gr],
                        &mut dz_u[r * gr..(r + 1) * gr],
                        hl,
                    );
                }
                // Recurrent half of dh_next for step t-1, all active
                // rows in one fused GEMM over the cached transpose,
                // *added* onto the direct half already in place (rows
                // past `nb` keep their zero boundary values).
                ut.matmul_nt_fused_to(
                    &dz_u[off * gr..(off + nb) * gr],
                    nb,
                    &mut bh[..nb * hl],
                    true,
                );
            }
        }
        self.w
            .grad
            .add_tn_product_fused(dz, pack.x(reversed), total);
        self.u.grad.add_tn_product_fused(dz_u, h_prev, total);
        let bg = self.b.grad.data_mut();
        for row in dz.chunks_exact(gr) {
            for (slot, &d) in bg.iter_mut().zip(row) {
                *slot += d;
            }
        }
    }

    /// The layer's trainable parameters.
    pub fn params_mut(&mut self) -> [&mut Param; 3] {
        [&mut self.w, &mut self.u, &mut self.b]
    }
}

/// Bidirectional GRU: forward and backward hidden states are summed,
/// mirroring [`crate::lstm::BiLstm`].
#[derive(Debug, Clone)]
pub struct BiGru {
    /// Forward-direction layer.
    pub fwd: Gru,
    /// Backward-direction layer.
    pub bwd: Gru,
}

/// Forward cache for [`BiGru`].
#[derive(Debug, Clone)]
pub struct BiGruCache {
    fwd: GruCache,
    bwd: GruCache,
}

impl BiGru {
    /// Creates a bidirectional GRU.
    pub fn new<R: Rng + ?Sized>(input_size: usize, hidden_size: usize, rng: &mut R) -> Self {
        BiGru {
            fwd: Gru::new(input_size, hidden_size, rng),
            bwd: Gru::new(input_size, hidden_size, rng),
        }
    }

    /// Hidden dimension of the summed output.
    pub fn hidden_size(&self) -> usize {
        self.fwd.hidden_size()
    }

    /// Runs both directions and sums per-timestep states.
    pub fn forward(&self, xs: &[Vec<f32>]) -> (Vec<Vec<f32>>, BiGruCache) {
        let mut scratch = GemmScratch::new();
        self.forward_with_scratch(xs, &mut scratch)
    }

    /// [`BiGru::forward`] streaming through a reusable [`GemmScratch`].
    pub fn forward_with_scratch(
        &self,
        xs: &[Vec<f32>],
        scratch: &mut GemmScratch,
    ) -> (Vec<Vec<f32>>, BiGruCache) {
        let (mut out, cf) = self.fwd.forward_dir(xs, false, scratch);
        let (hb, cb) = self.bwd.forward_dir(xs, true, scratch);
        let t_len = xs.len();
        for (t, h) in out.iter_mut().enumerate() {
            for (a, b) in h.iter_mut().zip(&hb[t_len - 1 - t]) {
                *a += b;
            }
        }
        (out, BiGruCache { fwd: cf, bwd: cb })
    }

    /// Backpropagates both directions.
    pub fn backward(&mut self, cache: &BiGruCache, dhs: &[Vec<f32>]) -> Vec<Vec<f32>> {
        let mut scratch = GemmScratch::new();
        self.backward_with_scratch(cache, dhs, &mut scratch)
    }

    /// [`BiGru::backward`] streaming through a reusable [`GemmScratch`]
    /// shared by both directions, mirroring
    /// [`crate::lstm::BiLstm::backward_with_scratch`].
    pub fn backward_with_scratch(
        &mut self,
        cache: &BiGruCache,
        dhs: &[Vec<f32>],
        scratch: &mut GemmScratch,
    ) -> Vec<Vec<f32>> {
        let t_len = dhs.len();
        let dx_f = self.fwd.backward_with_scratch(&cache.fwd, dhs, scratch);
        let rev_dhs: Vec<Vec<f32>> = dhs.iter().rev().cloned().collect();
        let dx_b = self
            .bwd
            .backward_with_scratch(&cache.bwd, &rev_dhs, scratch);
        let mut dxs = dx_f;
        for t in 0..t_len {
            for (a, b) in dxs[t].iter_mut().zip(&dx_b[t_len - 1 - t]) {
                *a += b;
            }
        }
        dxs
    }

    /// Batched forward over a minibatch of sequences (see
    /// [`crate::lstm::BiLstm::forward_batch`]): packs the batch into
    /// `ws`, runs both directions through the GEMM engine and returns
    /// summed hidden states per sequence in caller order, caching
    /// activations in `ws` for [`BiGru::backward_batch`].
    pub fn forward_batch(
        &self,
        seqs: &[&[Vec<f32>]],
        ws: &mut BatchWorkspace,
        scratch: &mut GemmScratch,
    ) -> Vec<Vec<Vec<f32>>> {
        ws.prepare(seqs, self.fwd.input_size());
        let mut out: Vec<Vec<Vec<f32>>> = seqs
            .iter()
            .map(|s| vec![vec![0.0f32; self.hidden_size()]; s.len()])
            .collect();
        let BatchWorkspace { pack, fwd, bwd, .. } = ws;
        self.fwd
            .forward_batch_dir(pack, fwd, false, scratch, &mut out);
        self.bwd
            .forward_batch_dir(pack, bwd, true, scratch, &mut out);
        out
    }

    /// Batched inference into the workspace's flat packed buffer
    /// (`ws.flat`, `total_rows x hidden`, packed-row order): the
    /// forward direction writes, the reversed direction accumulates —
    /// the GRU mirror of
    /// [`crate::lstm::BiLstm::hidden_states_batch_flat`], with the
    /// recurrent GEMMs on the fused-FMA kernel family.
    pub(crate) fn hidden_states_batch_flat(
        &self,
        seqs: &[&[Vec<f32>]],
        ws: &mut BatchWorkspace,
        scratch: &mut GemmScratch,
    ) {
        ws.prepare(seqs, self.fwd.input_size());
        let BatchWorkspace {
            pack,
            fwd,
            bwd,
            flat,
        } = ws;
        let hl = self.hidden_size();
        flat.clear();
        flat.resize(pack.total_rows() * hl, 0.0);
        self.fwd
            .infer_batch_dir_flat(pack, fwd, false, scratch, flat, false);
        self.bwd
            .infer_batch_dir_flat(pack, bwd, true, scratch, flat, true);
    }

    /// Batched inference: summed hidden states per sequence in caller
    /// order, without recording backward-pass caches. A re-nesting
    /// wrapper around [`BiGru::hidden_states_batch_flat`] — outputs
    /// match the sequential engine within fused-multiply-add rounding
    /// and are bitwise batch-size invariant.
    pub fn hidden_states_batch(
        &self,
        seqs: &[&[Vec<f32>]],
        ws: &mut BatchWorkspace,
        scratch: &mut GemmScratch,
    ) -> Vec<Vec<Vec<f32>>> {
        self.hidden_states_batch_flat(seqs, ws, scratch);
        let hl = self.hidden_size();
        let pack = &ws.pack;
        let mut out: Vec<Vec<Vec<f32>>> =
            seqs.iter().map(|s| Vec::with_capacity(s.len())).collect();
        for (b, (&i, &len)) in pack.order().iter().zip(pack.lens()).enumerate() {
            out[i].extend((0..len).map(|t| {
                let row = pack.offset(t) + b;
                ws.flat[row * hl..(row + 1) * hl].to_vec()
            }));
        }
        out
    }

    /// Batched BPTT through both directions; `dhs[i]` is caller
    /// sequence `i`'s flat output gradient (`len_i x H` row-major).
    /// Must follow a [`BiGru::forward_batch`] on the same workspace.
    /// Runs [`Gru::backward_batch_dir_fused`] in each direction.
    pub fn backward_batch(
        &mut self,
        ws: &mut BatchWorkspace,
        dhs: &[&[f32]],
        scratch: &mut GemmScratch,
    ) {
        let BatchWorkspace { pack, fwd, bwd, .. } = ws;
        self.fwd
            .backward_batch_dir_fused(pack, fwd, false, dhs, scratch);
        self.bwd
            .backward_batch_dir_fused(pack, bwd, true, dhs, scratch);
    }

    /// All trainable parameters of both directions.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let (f, b) = (&mut self.fwd, &mut self.bwd);
        vec![&mut f.w, &mut f.u, &mut f.b, &mut b.w, &mut b.u, &mut b.b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The unfused batched BPTT: the original per-gate backward in each
    /// direction, bitwise identical to the per-sequence backward. The
    /// parity oracle for the fused engine of [`BiGru::backward_batch`].
    impl Gru {
        /// Batched BPTT over a packed minibatch; `dhs[i]` is caller
        /// sequence `i`'s flat output gradient (`len_i x H` row-major,
        /// natural time order). Accumulates parameter gradients only —
        /// input gradients are skipped as in
        /// [`crate::lstm::Lstm::backward_batch_dir`].
        fn backward_batch_dir(
            &mut self,
            pack: &PackedBatch,
            dir: &DirCache,
            reversed: bool,
            dhs: &[&[f32]],
            scratch: &mut GemmScratch,
        ) {
            let hl = self.hidden_size;
            let gr = 3 * hl;
            let total = pack.total_rows();
            let nb0 = if pack.max_len() == 0 {
                0
            } else {
                pack.active(0)
            };
            let GemmScratch {
                dz, dz_u, bh, bc, ..
            } = scratch;
            dz.clear();
            dz.resize(total * gr, 0.0);
            dz_u.clear();
            dz_u.resize(total * gr, 0.0);
            // bh holds dh_next rows (zero for sequences joining the reverse
            // traversal at their final step), bc the Uᵀ·dU temporaries.
            bh.clear();
            bh.resize(nb0 * hl, 0.0);
            bc.clear();
            bc.resize(nb0 * hl, 0.0);
            for t in (0..pack.max_len()).rev() {
                let nb = pack.active(t);
                let off = pack.offset(t);
                for b in 0..nb {
                    let r = off + b;
                    let gates = &dir.gates[r * gr..(r + 1) * gr];
                    let (gz, grt, gn) = (&gates[..hl], &gates[hl..2 * hl], &gates[2 * hl..]);
                    let h_prev = &dir.h_prev[r * hl..(r + 1) * hl];
                    let un_h = &dir.aux[r * hl..(r + 1) * hl];
                    let dz_t = &mut dz[r * gr..(r + 1) * gr];
                    let du_t = &mut dz_u[r * gr..(r + 1) * gr];
                    let pos = if reversed { pack.lens()[b] - 1 - t } else { t };
                    let dh_seq = &dhs[pack.order()[b]][pos * hl..(pos + 1) * hl];
                    let dh_next = &mut bh[b * hl..(b + 1) * hl];
                    for k in 0..hl {
                        let dh = dh_seq[k] + dh_next[k];
                        let d_z = dh * (h_prev[k] - gn[k]);
                        let d_n = dh * (1.0 - gz[k]);
                        let dz_pre = d_z * gz[k] * (1.0 - gz[k]);
                        let dn_pre = d_n * (1.0 - gn[k] * gn[k]);
                        let d_r = dn_pre * un_h[k];
                        let dr_pre = d_r * grt[k] * (1.0 - grt[k]);
                        dz_t[k] = dz_pre;
                        dz_t[hl + k] = dr_pre;
                        dz_t[2 * hl + k] = dn_pre;
                        du_t[k] = dz_pre;
                        du_t[hl + k] = dr_pre;
                        du_t[2 * hl + k] = dn_pre * grt[k];
                        // Direct-path half of dh_next; the Uᵀ half joins
                        // after the step's transposed GEMM below.
                        dh_next[k] = dh * gz[k];
                    }
                }
                self.u
                    .value
                    .matmul_t_to(&dz_u[off * gr..(off + nb) * gr], nb, &mut bc[..nb * hl]);
                for (slot, &d) in bh[..nb * hl].iter_mut().zip(&bc[..nb * hl]) {
                    *slot += d;
                }
            }
            self.w.grad.add_tn_product(dz, pack.x(reversed), total);
            self.u.grad.add_tn_product(dz_u, &dir.h_prev, total);
            let bg = self.b.grad.data_mut();
            for row in dz.chunks_exact(gr) {
                for (slot, &d) in bg.iter_mut().zip(row) {
                    *slot += d;
                }
            }
        }
    }

    impl BiGru {
        /// [`BiGru::backward_batch`] through the unfused oracle.
        pub(crate) fn backward_batch_unfused(
            &mut self,
            ws: &mut BatchWorkspace,
            dhs: &[&[f32]],
            scratch: &mut GemmScratch,
        ) {
            let BatchWorkspace { pack, fwd, bwd, .. } = ws;
            self.fwd.backward_batch_dir(pack, fwd, false, dhs, scratch);
            self.bwd.backward_batch_dir(pack, bwd, true, dhs, scratch);
        }
    }

    fn toy_inputs(t_len: usize, d: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..t_len)
            .map(|_| (0..d).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect()
    }

    #[test]
    fn forward_shapes_and_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let gru = Gru::new(3, 5, &mut rng);
        let xs = toy_inputs(7, 3, 2);
        let (hs, _) = gru.forward(&xs);
        assert_eq!(hs.len(), 7);
        for h in &hs {
            assert_eq!(h.len(), 5);
            for &v in h {
                assert!(v.abs() <= 1.0);
            }
        }
    }

    #[test]
    fn scratch_is_reusable_across_calls() {
        let mut rng = StdRng::seed_from_u64(31);
        let gru = Gru::new(3, 5, &mut rng);
        let xs = toy_inputs(7, 3, 32);
        let mut scratch = GemmScratch::new();
        let (a, _) = gru.forward_with_scratch(&xs, &mut scratch);
        let (b, _) = gru.forward_with_scratch(&xs, &mut scratch);
        let (c, _) = gru.forward(&xs);
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn gru_gradients_match_finite_differences() {
        let (d, h, t_len) = (3usize, 4usize, 5usize);
        let mut rng = StdRng::seed_from_u64(42);
        let mut gru = Gru::new(d, h, &mut rng);
        let xs = toy_inputs(t_len, d, 43);
        let loss = |g: &Gru| -> f32 { g.forward(&xs).0.iter().flatten().sum() };
        let (_, cache) = gru.forward(&xs);
        let dhs = vec![vec![1.0f32; h]; t_len];
        let dxs = gru.backward(&cache, &dhs);

        let eps = 1e-3f32;
        for (pidx, k) in [(0usize, 0usize), (0, 7), (1, 3), (1, 11), (2, 2), (2, 9)] {
            let analytic = match pidx {
                0 => gru.w.grad.data()[k],
                1 => gru.u.grad.data()[k],
                _ => gru.b.grad.data()[k],
            };
            let mut g2 = gru.clone();
            {
                let p = match pidx {
                    0 => &mut g2.w,
                    1 => &mut g2.u,
                    _ => &mut g2.b,
                };
                p.value.data_mut()[k] += eps;
            }
            let up = loss(&g2);
            {
                let p = match pidx {
                    0 => &mut g2.w,
                    1 => &mut g2.u,
                    _ => &mut g2.b,
                };
                p.value.data_mut()[k] -= 2.0 * eps;
            }
            let down = loss(&g2);
            let numeric = (up - down) / (2.0 * eps);
            assert!(
                (analytic - numeric).abs() < 2e-2 * numeric.abs().max(1.0),
                "param {pidx}[{k}]: analytic {analytic} vs numeric {numeric}"
            );
        }
        // Input gradients.
        for t in [0usize, 2, 4] {
            for j in 0..d {
                let mut xs2 = xs.clone();
                xs2[t][j] += eps;
                let up: f32 = gru.forward(&xs2).0.iter().flatten().sum();
                xs2[t][j] -= 2.0 * eps;
                let down: f32 = gru.forward(&xs2).0.iter().flatten().sum();
                let numeric = (up - down) / (2.0 * eps);
                assert!(
                    (dxs[t][j] - numeric).abs() < 2e-2 * numeric.abs().max(1.0),
                    "dx[{t}][{j}]"
                );
            }
        }
    }

    #[test]
    fn bigru_sees_future_context() {
        let mut rng = StdRng::seed_from_u64(21);
        let bi = BiGru::new(2, 4, &mut rng);
        let a = vec![vec![0.1, 0.2]; 6];
        let mut b = a.clone();
        b[5] = vec![0.9, -0.9];
        let (ha, _) = bi.forward(&a);
        let (hb, _) = bi.forward(&b);
        let d0: f32 = ha[0].iter().zip(&hb[0]).map(|(x, y)| (x - y).abs()).sum();
        assert!(d0 > 1e-4);
    }

    #[test]
    fn bigru_gradcheck_on_inputs() {
        let (d, h, t_len) = (2usize, 3usize, 4usize);
        let mut rng = StdRng::seed_from_u64(77);
        let mut bi = BiGru::new(d, h, &mut rng);
        let xs = toy_inputs(t_len, d, 78);
        let (_, cache) = bi.forward(&xs);
        let dhs = vec![vec![1.0f32; h]; t_len];
        let dxs = bi.backward(&cache, &dhs);
        let eps = 1e-3f32;
        for t in 0..t_len {
            for j in 0..d {
                let mut xs2 = xs.clone();
                xs2[t][j] += eps;
                let up: f32 = bi.forward(&xs2).0.iter().flatten().sum();
                xs2[t][j] -= 2.0 * eps;
                let down: f32 = bi.forward(&xs2).0.iter().flatten().sum();
                let numeric = (up - down) / (2.0 * eps);
                assert!((dxs[t][j] - numeric).abs() < 2e-2 * numeric.abs().max(1.0));
            }
        }
    }

    #[test]
    fn empty_sequence_is_ok() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut gru = Gru::new(3, 5, &mut rng);
        let (hs, cache) = gru.forward(&[]);
        assert!(hs.is_empty());
        assert!(gru.backward(&cache, &[]).is_empty());
    }

    #[test]
    fn batched_forward_is_bitwise_identical_at_wide_hidden_sizes() {
        use crate::batch::BatchWorkspace;
        // H = 34 keeps the recurrent GEMM on the wide path; mixed
        // lengths exercise the shrinking active prefix.
        let mut rng = StdRng::seed_from_u64(51);
        let bi = BiGru::new(3, 34, &mut rng);
        let seqs: Vec<Vec<Vec<f32>>> = [6usize, 1, 4, 4]
            .iter()
            .enumerate()
            .map(|(i, &len)| toy_inputs(len, 3, 500 + i as u64))
            .collect();
        let refs: Vec<&[Vec<f32>]> = seqs.iter().map(|s| s.as_slice()).collect();
        let mut ws = BatchWorkspace::new();
        let mut scratch = GemmScratch::new();
        let batched = bi.forward_batch(&refs, &mut ws, &mut scratch);
        for (i, seq) in seqs.iter().enumerate() {
            let (sequential, _) = bi.forward_with_scratch(seq, &mut scratch);
            assert_eq!(batched[i], sequential, "seq {i}");
        }
    }

    #[test]
    fn batched_inference_matches_sequential_within_rounding() {
        use crate::batch::BatchWorkspace;
        // The inference path runs the fused recurrent GEMM, so it is
        // only required to agree with the sequential engine within
        // fused-multiply-add rounding; H = 34 keeps it on the wide
        // kernel path and mixed lengths exercise the scatter/accumulate
        // flat writes of both directions.
        let mut rng = StdRng::seed_from_u64(55);
        let bi = BiGru::new(3, 34, &mut rng);
        let seqs: Vec<Vec<Vec<f32>>> = [6usize, 1, 4, 4]
            .iter()
            .enumerate()
            .map(|(i, &len)| toy_inputs(len, 3, 700 + i as u64))
            .collect();
        let refs: Vec<&[Vec<f32>]> = seqs.iter().map(|s| s.as_slice()).collect();
        let mut ws = BatchWorkspace::new();
        let mut scratch = GemmScratch::new();
        let inferred = bi.hidden_states_batch(&refs, &mut ws, &mut scratch);
        for (i, seq) in seqs.iter().enumerate() {
            let (sequential, _) = bi.forward_with_scratch(seq, &mut scratch);
            assert_eq!(inferred[i].len(), sequential.len(), "seq {i}");
            for (t, (a, b)) in inferred[i].iter().zip(&sequential).enumerate() {
                for (x, y) in a.iter().zip(b) {
                    assert!((x - y).abs() < 1e-5, "seq {i} t {t}: {x} vs {y}");
                }
            }
        }
    }

    #[test]
    fn batched_inference_is_bitwise_batch_size_invariant() {
        use crate::batch::BatchWorkspace;
        // The property the shared scoring service relies on: a
        // sequence's inferred states must not depend on what else is in
        // the batch.
        let mut rng = StdRng::seed_from_u64(57);
        let bi = BiGru::new(3, 34, &mut rng);
        let seqs: Vec<Vec<Vec<f32>>> = [5usize, 2, 7]
            .iter()
            .enumerate()
            .map(|(i, &len)| toy_inputs(len, 3, 800 + i as u64))
            .collect();
        let refs: Vec<&[Vec<f32>]> = seqs.iter().map(|s| s.as_slice()).collect();
        let mut ws = BatchWorkspace::new();
        let mut scratch = GemmScratch::new();
        let together = bi.hidden_states_batch(&refs, &mut ws, &mut scratch);
        for (i, seq) in seqs.iter().enumerate() {
            let mut solo_ws = BatchWorkspace::new();
            let alone = bi.hidden_states_batch(&[seq.as_slice()], &mut solo_ws, &mut scratch);
            assert_eq!(together[i], alone[0], "seq {i}");
        }
    }

    #[test]
    fn batched_backward_matches_sequential_gradients() {
        use crate::batch::BatchWorkspace;
        let (d, h) = (3usize, 4usize);
        let mut rng = StdRng::seed_from_u64(53);
        let bi = BiGru::new(d, h, &mut rng);
        let seqs: Vec<Vec<Vec<f32>>> = [3usize, 5, 2]
            .iter()
            .enumerate()
            .map(|(i, &len)| toy_inputs(len, d, 600 + i as u64))
            .collect();
        let refs: Vec<&[Vec<f32>]> = seqs.iter().map(|s| s.as_slice()).collect();
        let mut scratch = GemmScratch::new();

        let mut seq_model = bi.clone();
        for seq in &seqs {
            let (_, cache) = seq_model.forward_with_scratch(seq, &mut scratch);
            let dhs = vec![vec![1.0f32; h]; seq.len()];
            seq_model.backward(&cache, &dhs);
        }

        for path in ["unfused", "fused"] {
            let mut bat_model = bi.clone();
            let mut ws = BatchWorkspace::new();
            bat_model.forward_batch(&refs, &mut ws, &mut scratch);
            let flat: Vec<Vec<f32>> = seqs.iter().map(|s| vec![1.0f32; s.len() * h]).collect();
            let dhs: Vec<&[f32]> = flat.iter().map(|v| v.as_slice()).collect();
            if path == "unfused" {
                bat_model.backward_batch_unfused(&mut ws, &dhs, &mut scratch);
            } else {
                bat_model.backward_batch(&mut ws, &dhs, &mut scratch);
            }

            for (ps, pb) in [
                (&seq_model.fwd.w, &bat_model.fwd.w),
                (&seq_model.fwd.u, &bat_model.fwd.u),
                (&seq_model.fwd.b, &bat_model.fwd.b),
                (&seq_model.bwd.w, &bat_model.bwd.w),
                (&seq_model.bwd.u, &bat_model.bwd.u),
                (&seq_model.bwd.b, &bat_model.bwd.b),
            ] {
                for (a, b) in ps.grad.data().iter().zip(pb.grad.data()) {
                    assert!(
                        (a - b).abs() < 1e-4 * a.abs().max(1.0),
                        "{path}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn fused_backward_matches_unfused_within_rounding() {
        use crate::batch::BatchWorkspace;
        let (d, h) = (5usize, 16usize);
        let mut rng = StdRng::seed_from_u64(61);
        let bi = BiGru::new(d, h, &mut rng);
        let seqs: Vec<Vec<Vec<f32>>> = [7usize, 4, 1, 5]
            .iter()
            .enumerate()
            .map(|(i, &len)| toy_inputs(len, d, 700 + i as u64))
            .collect();
        let refs: Vec<&[Vec<f32>]> = seqs.iter().map(|s| s.as_slice()).collect();
        let flat: Vec<Vec<f32>> = seqs
            .iter()
            .map(|s| {
                (0..s.len() * h)
                    .map(|j| (0.3 * j as f32).sin())
                    .collect::<Vec<f32>>()
            })
            .collect();
        let dhs: Vec<&[f32]> = flat.iter().map(|v| v.as_slice()).collect();

        let run = |path: &str| {
            let mut m = bi.clone();
            let mut ws = BatchWorkspace::new();
            let mut scratch = GemmScratch::new();
            m.forward_batch(&refs, &mut ws, &mut scratch);
            if path == "unfused" {
                m.backward_batch_unfused(&mut ws, &dhs, &mut scratch);
            } else {
                m.backward_batch(&mut ws, &dhs, &mut scratch);
            }
            [
                m.fwd.w.grad.data().to_vec(),
                m.fwd.u.grad.data().to_vec(),
                m.fwd.b.grad.data().to_vec(),
                m.bwd.w.grad.data().to_vec(),
                m.bwd.u.grad.data().to_vec(),
                m.bwd.b.grad.data().to_vec(),
            ]
        };
        let unfused = run("unfused");
        let fused = run("fused");
        for (name, (gu, gf)) in ["fwd.w", "fwd.u", "fwd.b", "bwd.w", "bwd.u", "bwd.b"]
            .iter()
            .zip(unfused.iter().zip(&fused))
        {
            for (a, b) in gu.iter().zip(gf) {
                assert!(
                    (a - b).abs() < 1e-4 * a.abs().max(1.0),
                    "{name}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn batched_paths_handle_empty_batches_and_sequences() {
        use crate::batch::BatchWorkspace;
        let mut rng = StdRng::seed_from_u64(62);
        let mut bi = BiGru::new(3, 8, &mut rng);
        let mut ws = BatchWorkspace::new();
        let mut scratch = GemmScratch::new();
        let out = bi.forward_batch(&[], &mut ws, &mut scratch);
        assert!(out.is_empty());
        bi.backward_batch(&mut ws, &[], &mut scratch);
        bi.backward_batch_unfused(&mut ws, &[], &mut scratch);
        for p in bi.params_mut() {
            assert!(p.grad.data().iter().all(|&g| g == 0.0));
        }
    }
}
