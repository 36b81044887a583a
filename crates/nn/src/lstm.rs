//! LSTM and bidirectional LSTM layers with backpropagation through time.
//!
//! Gate layout follows the common stacked convention `[i, f, g, o]`
//! (input, forget, cell-candidate, output). The bidirectional wrapper
//! *sums* the forward and backward hidden states, matching the paper's
//! `h_t = h→_t + h←_t` (Sec. V-B, Eq. 4).
//!
//! # Fused-gate compute engine
//!
//! The four per-gate weight matrices live concatenated in single fused
//! `4H x I` (input) and `4H x H` (recurrent) row-major matrices, so one
//! blocked product serves all gates. Per sequence the engine does:
//!
//! 1. **Time-batched input projections** — `W·x_t` for *all* timesteps
//!    in one [`Matrix::matmul_nt`] GEMM before the recurrence starts;
//!    the sequential loop then only adds the `U·h_{t-1}` half per step
//!    ([`Matrix::matvec_add_into`], no temporaries).
//! 2. **Flat activation caches** — the backward pass reads gate
//!    activations and pre-states from contiguous `T x 4H` / `T x H`
//!    buffers instead of one heap allocation per step.
//! 3. **Batched weight gradients** — BPTT accumulates all per-step gate
//!    gradients into one `T x 4H` buffer and applies `dW += dZᵀ·X` /
//!    `dU += dZᵀ·H_prev` as single [`Matrix::add_tn_product`] GEMMs.
//!
//! All entry points have `*_with_scratch` variants that stream through a
//! caller-provided [`GemmScratch`]; the plain variants allocate a fresh
//! scratch per call. Inference-only traversal ([`BiLstm::hidden_states_with_scratch`])
//! skips the activation caches entirely.

use crate::act::{gates_fused, lstm_gates_backward_fused, tanh_slice};
use crate::batch::{BatchWorkspace, DirCache, PackedBatch};
use crate::matrix::{pack_rows, GemmScratch, Matrix};
use crate::param::Param;
use rand::Rng;

/// A single-direction LSTM layer.
#[derive(Debug, Clone)]
pub struct Lstm {
    /// Input weights, fused `4H x D` (`[i, f, g, o]` gate blocks stacked).
    pub w: Param,
    /// Recurrent weights, fused `4H x H`.
    pub u: Param,
    /// Bias, fused `4H x 1`.
    pub b: Param,
    input_size: usize,
    hidden_size: usize,
}

/// Forward-pass activations for a whole sequence, stored as flat
/// row-major buffers (`T` rows each) — what [`Lstm::backward`] replays.
#[derive(Debug, Clone)]
pub struct LstmCache {
    t: usize,
    /// Packed inputs, `T x D` (in processing order; reversed for the
    /// backward direction of a [`BiLstm`]).
    x: Vec<f32>,
    /// Hidden state entering each step, `T x H`.
    h_prev: Vec<f32>,
    /// Cell state entering each step, `T x H`.
    c_prev: Vec<f32>,
    /// Activated gates `[i, f, g, o]` per step, `T x 4H`.
    gates: Vec<f32>,
    /// `tanh(c_t)` per step, `T x H`.
    tanh_c: Vec<f32>,
}

/// Applies one LSTM cell update. `z` holds the fused pre-activations,
/// `gates` receives the activated `[i, f, g, o]` blocks, and `c`/`h` are
/// updated in place (their pre-step values must already be stashed).
/// The activations run block-wise through the slice kernels in
/// [`crate::act`], which are SIMD on capable machines (the cell is
/// otherwise bound by the rational kernel's division throughput); the
/// remaining state arithmetic is plain element-wise code the compiler
/// vectorizes on its own.
#[inline]
fn lstm_cell(z: &[f32], gates: &mut [f32], c: &mut [f32], h: &mut [f32], tanh_c: &mut [f32]) {
    let hl = h.len();
    gates.copy_from_slice(z);
    gates_fused(gates, hl);
    let (gi, rest) = gates.split_at(hl);
    let (gf, rest) = rest.split_at(hl);
    let (gg, go) = rest.split_at(hl);
    for k in 0..hl {
        c[k] = gf[k] * c[k] + gi[k] * gg[k];
    }
    tanh_c.copy_from_slice(c);
    tanh_slice(tanh_c);
    for k in 0..hl {
        h[k] = go[k] * tanh_c[k];
    }
}

impl Lstm {
    /// Creates an LSTM with Xavier-initialized weights. The forget-gate
    /// bias is initialized to `1.0` (standard practice to ease gradient
    /// flow early in training).
    pub fn new<R: Rng + ?Sized>(input_size: usize, hidden_size: usize, rng: &mut R) -> Self {
        let w = Matrix::xavier(4 * hidden_size, input_size, rng);
        let u = Matrix::xavier(4 * hidden_size, hidden_size, rng);
        let mut b = Matrix::zeros(4 * hidden_size, 1);
        for h in 0..hidden_size {
            b.set(hidden_size + h, 0, 1.0); // forget gate bias
        }
        Lstm {
            w: Param::new(w),
            u: Param::new(u),
            b: Param::new(b),
            input_size,
            hidden_size,
        }
    }

    /// Reconstructs an LSTM from explicit fused weight matrices (e.g.
    /// loaded from disk).
    ///
    /// # Errors
    ///
    /// Returns a message when the shapes are inconsistent.
    pub fn from_weights(w: Matrix, u: Matrix, b: Matrix) -> Result<Self, String> {
        let four_h = w.rows();
        if four_h == 0 || !four_h.is_multiple_of(4) {
            return Err(format!("gate dimension {four_h} is not 4*H"));
        }
        let hidden_size = four_h / 4;
        let input_size = w.cols();
        if u.rows() != four_h || u.cols() != hidden_size {
            return Err(format!(
                "recurrent weights {}x{} do not match hidden size {hidden_size}",
                u.rows(),
                u.cols()
            ));
        }
        if b.rows() != four_h || b.cols() != 1 {
            return Err(format!("bias {}x{} does not match", b.rows(), b.cols()));
        }
        Ok(Lstm {
            w: Param::new(w),
            u: Param::new(u),
            b: Param::new(b),
            input_size,
            hidden_size,
        })
    }

    /// Assembles an LSTM from *per-gate* weight blocks in `[i, f, g, o]`
    /// order — the legacy four-matrix layout. Each `w[g]` is `H x D`,
    /// each `u[g]` is `H x H`, each `b[g]` is `H x 1`; they are stacked
    /// into the fused `4H x *` matrices this engine computes with.
    ///
    /// # Errors
    ///
    /// Returns a message when the stacked shapes are inconsistent.
    pub fn from_gate_weights(
        w: [Matrix; 4],
        u: [Matrix; 4],
        b: [Matrix; 4],
    ) -> Result<Self, String> {
        let fused_w = Matrix::vstack(&[&w[0], &w[1], &w[2], &w[3]]);
        let fused_u = Matrix::vstack(&[&u[0], &u[1], &u[2], &u[3]]);
        let fused_b = Matrix::vstack(&[&b[0], &b[1], &b[2], &b[3]]);
        Lstm::from_weights(fused_w, fused_u, fused_b)
    }

    /// Input dimension.
    pub fn input_size(&self) -> usize {
        self.input_size
    }

    /// Hidden dimension.
    pub fn hidden_size(&self) -> usize {
        self.hidden_size
    }

    /// Runs the layer over a sequence, returning hidden states for every
    /// timestep and the cache needed by [`Lstm::backward`].
    ///
    /// # Panics
    ///
    /// Panics if any input vector's length differs from the configured
    /// input size.
    pub fn forward(&self, xs: &[Vec<f32>]) -> (Vec<Vec<f32>>, LstmCache) {
        let mut scratch = GemmScratch::new();
        self.forward_with_scratch(xs, &mut scratch)
    }

    /// [`Lstm::forward`] streaming through a reusable [`GemmScratch`].
    pub fn forward_with_scratch(
        &self,
        xs: &[Vec<f32>],
        scratch: &mut GemmScratch,
    ) -> (Vec<Vec<f32>>, LstmCache) {
        self.forward_dir(xs, false, scratch)
    }

    /// Direction-aware forward pass: with `reversed` the sequence is
    /// consumed (and cached) in reverse time order without cloning it.
    pub(crate) fn forward_dir(
        &self,
        xs: &[Vec<f32>],
        reversed: bool,
        scratch: &mut GemmScratch,
    ) -> (Vec<Vec<f32>>, LstmCache) {
        let t_len = xs.len();
        let hl = self.hidden_size;
        let mut cache = LstmCache {
            t: t_len,
            x: Vec::new(),
            h_prev: vec![0.0; t_len * hl],
            c_prev: vec![0.0; t_len * hl],
            gates: vec![0.0; t_len * 4 * hl],
            tanh_c: vec![0.0; t_len * hl],
        };
        pack_rows(xs, self.input_size, reversed, &mut cache.x);
        // One GEMM for every timestep's input projection; the loop below
        // only does the recurrent half.
        self.w
            .value
            .matmul_nt_into(&cache.x, t_len, &mut scratch.proj);
        scratch.z.clear();
        scratch.z.resize(4 * hl, 0.0);
        scratch.state.clear();
        scratch.state.resize(2 * hl, 0.0);
        let (h, c) = scratch.state.split_at_mut(hl);
        let bias = self.b.value.data();
        let mut outputs = Vec::with_capacity(t_len);
        for t in 0..t_len {
            cache.h_prev[t * hl..(t + 1) * hl].copy_from_slice(h);
            cache.c_prev[t * hl..(t + 1) * hl].copy_from_slice(c);
            for ((z, &p), &bv) in scratch
                .z
                .iter_mut()
                .zip(&scratch.proj[t * 4 * hl..(t + 1) * 4 * hl])
                .zip(bias)
            {
                *z = p + bv;
            }
            self.u.value.matvec_add_into(h, &mut scratch.z);
            lstm_cell(
                &scratch.z,
                &mut cache.gates[t * 4 * hl..(t + 1) * 4 * hl],
                c,
                h,
                &mut cache.tanh_c[t * hl..(t + 1) * hl],
            );
            outputs.push(h.to_vec());
        }
        (outputs, cache)
    }

    /// Inference-only traversal: runs the recurrence and *adds* each
    /// hidden state into `out` (index-reversed when `reversed`), without
    /// recording any backward-pass state. `out` must hold `xs.len()`
    /// vectors of `hidden_size` values.
    pub(crate) fn infer_add(
        &self,
        xs: &[Vec<f32>],
        reversed: bool,
        scratch: &mut GemmScratch,
        out: &mut [Vec<f32>],
    ) {
        let t_len = xs.len();
        assert_eq!(out.len(), t_len, "output length mismatch");
        let hl = self.hidden_size;
        pack_rows(xs, self.input_size, reversed, &mut scratch.x_flat);
        self.w
            .value
            .matmul_nt_into(&scratch.x_flat, t_len, &mut scratch.proj);
        scratch.z.clear();
        scratch.z.resize(4 * hl, 0.0);
        scratch.state.clear();
        scratch.state.resize(2 * hl, 0.0);
        let (h, c) = scratch.state.split_at_mut(hl);
        let bias = self.b.value.data();
        for t in 0..t_len {
            for ((z, &p), &bv) in scratch
                .z
                .iter_mut()
                .zip(&scratch.proj[t * 4 * hl..(t + 1) * 4 * hl])
                .zip(bias)
            {
                *z = p + bv;
            }
            self.u.value.matvec_add_into(h, &mut scratch.z);
            // Activate in place — no backward pass, so nothing is cached.
            gates_fused(&mut scratch.z, hl);
            let (gi, rest) = scratch.z.split_at(hl);
            let (gf, rest) = rest.split_at(hl);
            let (gg, go) = rest.split_at(hl);
            for k in 0..hl {
                c[k] = gf[k] * c[k] + gi[k] * gg[k];
            }
            h.copy_from_slice(c);
            tanh_slice(h);
            for k in 0..hl {
                h[k] *= go[k];
            }
            let slot = if reversed { t_len - 1 - t } else { t };
            for (o, &v) in out[slot].iter_mut().zip(h.iter()) {
                *o += v;
            }
        }
    }

    /// Hidden states only (no backward-pass cache) — the inference fast
    /// path used when gradients are not needed.
    pub fn hidden_states_with_scratch(
        &self,
        xs: &[Vec<f32>],
        scratch: &mut GemmScratch,
    ) -> Vec<Vec<f32>> {
        let mut out = vec![vec![0.0f32; self.hidden_size]; xs.len()];
        self.infer_add(xs, false, scratch, &mut out);
        out
    }

    /// Backpropagates through time. `dhs` holds the loss gradient with
    /// respect to each output hidden state. Parameter gradients are
    /// *accumulated* into `self.{w,u,b}.grad`; the gradient with respect
    /// to each input vector is returned.
    ///
    /// # Panics
    ///
    /// Panics if `dhs.len()` differs from the cached sequence length.
    pub fn backward(&mut self, cache: &LstmCache, dhs: &[Vec<f32>]) -> Vec<Vec<f32>> {
        let mut scratch = GemmScratch::new();
        self.backward_with_scratch(cache, dhs, &mut scratch)
    }

    /// [`Lstm::backward`] streaming through a reusable [`GemmScratch`].
    pub fn backward_with_scratch(
        &mut self,
        cache: &LstmCache,
        dhs: &[Vec<f32>],
        scratch: &mut GemmScratch,
    ) -> Vec<Vec<f32>> {
        assert_eq!(dhs.len(), cache.t, "gradient length mismatch");
        let hl = self.hidden_size;
        let t_len = cache.t;
        let mut dxs = vec![vec![0.0f32; self.input_size]; t_len];
        let GemmScratch { dz, dstate, .. } = scratch;
        dz.clear();
        dz.resize(t_len * 4 * hl, 0.0);
        dstate.clear();
        dstate.resize(4 * hl, 0.0);
        let (dh_next, rest) = dstate.split_at_mut(hl);
        let (dc_next, rest) = rest.split_at_mut(hl);
        let (dh, dc) = rest.split_at_mut(hl);
        for t in (0..t_len).rev() {
            let gates = &cache.gates[t * 4 * hl..(t + 1) * 4 * hl];
            let (gi, gf, gg, go) = (
                &gates[..hl],
                &gates[hl..2 * hl],
                &gates[2 * hl..3 * hl],
                &gates[3 * hl..],
            );
            let tanh_c = &cache.tanh_c[t * hl..(t + 1) * hl];
            let c_prev = &cache.c_prev[t * hl..(t + 1) * hl];
            let dz_t = &mut dz[t * 4 * hl..(t + 1) * 4 * hl];
            for k in 0..hl {
                // Total gradient flowing into h_t, then into c_t via
                // h = o * tanh(c).
                dh[k] = dhs[t][k] + dh_next[k];
                dc[k] = dc_next[k] + dh[k] * go[k] * (1.0 - tanh_c[k] * tanh_c[k]);
                let d_o = dh[k] * tanh_c[k];
                let d_i = dc[k] * gg[k];
                let d_f = dc[k] * c_prev[k];
                let d_g = dc[k] * gi[k];
                dz_t[k] = d_i * gi[k] * (1.0 - gi[k]);
                dz_t[hl + k] = d_f * gf[k] * (1.0 - gf[k]);
                dz_t[2 * hl + k] = d_g * (1.0 - gg[k] * gg[k]);
                dz_t[3 * hl + k] = d_o * go[k] * (1.0 - go[k]);
            }
            self.w.value.matvec_transposed_into(dz_t, &mut dxs[t]);
            self.u.value.matvec_transposed_into(dz_t, dh_next);
            for k in 0..hl {
                dc_next[k] = dc[k] * gf[k];
            }
        }
        // Weight gradients as two batched GEMMs over the whole sequence
        // instead of one rank-1 update per timestep.
        self.w.grad.add_tn_product(dz, &cache.x, t_len);
        self.u.grad.add_tn_product(dz, &cache.h_prev, t_len);
        let bg = self.b.grad.data_mut();
        for row in dz.chunks_exact(4 * hl) {
            for (slot, &d) in bg.iter_mut().zip(row) {
                *slot += d;
            }
        }
        dxs
    }

    /// Fills (or reuses) the epoch-persistent projection cache for one
    /// direction: `dir.proj` row `r` becomes `W·x_r + b`, keyed by the
    /// `(W, b)` parameter versions. The bias is folded in here once so
    /// every step of every forward pass starts from a plain row copy
    /// instead of an elementwise add; because the fold computes exactly
    /// the `p + b` sums the per-step loops used to, gate pre-activations
    /// are bitwise unchanged.
    fn fill_proj(&self, pack: &PackedBatch, dir: &mut DirCache, reversed: bool) {
        let gr = 4 * self.hidden_size;
        let key = (self.w.version(), self.b.version());
        if dir.proj_key == Some(key) {
            thrubarrier_obs::counter!("nn.proj_cache.hit").incr();
            return;
        }
        thrubarrier_obs::counter!("nn.proj_cache.miss").incr();
        let total = pack.total_rows();
        dir.proj.clear();
        dir.proj.resize(total * gr, 0.0);
        self.w
            .value
            .matmul_nt_to(pack.x(reversed), total, &mut dir.proj, false);
        let bias = self.b.value.data();
        for row in dir.proj.chunks_exact_mut(gr) {
            for (p, &bv) in row.iter_mut().zip(bias) {
                *p += bv;
            }
        }
        dir.proj_key = Some(key);
    }

    /// Batched *training* forward pass over a packed minibatch (see
    /// [`crate::batch`]). Each step runs the recurrent half as one
    /// `4H×H × H×nb` GEMM over the step's active rows; the input
    /// projections for the *whole batch* come from the epoch-persistent
    /// cache of [`Lstm::fill_proj`]. Hidden states are *added* into
    /// `out[seq][t]` (index-reversed when `reversed`); per-row
    /// activations go through the same [`lstm_cell`] as the sequential
    /// path and are cached in `dir` for [`Lstm::backward_batch_dir_fused`].
    ///
    /// Every row of every step on the wide GEMM path (>= 32 columns) is
    /// bitwise identical to the per-sequence engine: the projection
    /// rows share the per-row fold of [`Matrix::matmul_nt`] and the
    /// recurrent rows share the dot kernel plus single add of
    /// [`Matrix::matvec_add_into`]. (The inference engine,
    /// [`Lstm::infer_batch_dir_flat`], trades this bitwise match for
    /// fused-FMA throughput.)
    pub(crate) fn forward_batch_dir(
        &self,
        pack: &PackedBatch,
        dir: &mut DirCache,
        reversed: bool,
        scratch: &mut GemmScratch,
        out: &mut [Vec<Vec<f32>>],
    ) {
        let hl = self.hidden_size;
        let gr = 4 * hl;
        assert_eq!(pack.width(), self.input_size, "input dimension mismatch");
        let total = pack.total_rows();
        self.fill_proj(pack, dir, reversed);
        dir.h_prev.clear();
        dir.h_prev.resize(total * hl, 0.0);
        dir.c_prev.clear();
        dir.c_prev.resize(total * hl, 0.0);
        dir.gates.clear();
        dir.gates.resize(total * gr, 0.0);
        dir.aux.clear();
        dir.aux.resize(total * hl, 0.0);
        let nb0 = if pack.max_len() == 0 {
            0
        } else {
            pack.active(0)
        };
        let GemmScratch { bh, bc, bz, .. } = scratch;
        bh.clear();
        bh.resize(nb0 * hl, 0.0);
        bc.clear();
        bc.resize(nb0 * hl, 0.0);
        bz.clear();
        bz.resize(nb0 * gr, 0.0);
        for t in 0..pack.max_len() {
            // Active sequences are a shrinking prefix of the sorted
            // batch, so rows 0..nb of bh/bc carry exactly the states of
            // the sequences still running.
            let nb = pack.active(t);
            let off = pack.offset(t);
            dir.h_prev[off * hl..(off + nb) * hl].copy_from_slice(&bh[..nb * hl]);
            dir.c_prev[off * hl..(off + nb) * hl].copy_from_slice(&bc[..nb * hl]);
            bz[..nb * gr].copy_from_slice(&dir.proj[off * gr..(off + nb) * gr]);
            self.u
                .value
                .matmul_nt_to(&bh[..nb * hl], nb, &mut bz[..nb * gr], true);
            for b in 0..nb {
                let r = off + b;
                lstm_cell(
                    &bz[b * gr..(b + 1) * gr],
                    &mut dir.gates[r * gr..(r + 1) * gr],
                    &mut bc[b * hl..(b + 1) * hl],
                    &mut bh[b * hl..(b + 1) * hl],
                    &mut dir.aux[r * hl..(r + 1) * hl],
                );
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
    /// packed output buffer `flat` (`total_rows x hidden`, packed-row
    /// order — step `t`'s active rows contiguous at `pack.offset(t)`).
    /// The forward direction stores its step block with one contiguous
    /// copy; the reversed direction runs with `accumulate` and adds
    /// each row at its natural time position. No per-step caches are
    /// recorded, no per-frame vectors are allocated, and the recurrent
    /// GEMM takes [`Matrix::matmul_nt_fused_to`] — halving its
    /// floating-point instruction count at the price of matching the
    /// sequential engine within fused-multiply-add rounding (~1e-6 on
    /// bounded hidden states) instead of bitwise. Results stay
    /// deterministic and bitwise batch-size invariant.
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
        let gr = 4 * hl;
        assert_eq!(pack.width(), self.input_size, "input dimension mismatch");
        assert_eq!(flat.len(), pack.total_rows() * hl, "flat output length");
        self.fill_proj(pack, dir, reversed);
        let nb0 = if pack.max_len() == 0 {
            0
        } else {
            pack.active(0)
        };
        let GemmScratch { bh, bc, bz, .. } = scratch;
        bh.clear();
        bh.resize(nb0 * hl, 0.0);
        bc.clear();
        bc.resize(nb0 * hl, 0.0);
        bz.clear();
        bz.resize(nb0 * gr, 0.0);
        for t in 0..pack.max_len() {
            let nb = pack.active(t);
            let off = pack.offset(t);
            bz[..nb * gr].copy_from_slice(&dir.proj[off * gr..(off + nb) * gr]);
            self.u
                .value
                .matmul_nt_fused_to(&bh[..nb * hl], nb, &mut bz[..nb * gr], true);
            for b in 0..nb {
                let c = &mut bc[b * hl..(b + 1) * hl];
                let h = &mut bh[b * hl..(b + 1) * hl];
                let zrow = &mut bz[b * gr..(b + 1) * gr];
                gates_fused(zrow, hl);
                let (gi, rest) = zrow.split_at(hl);
                let (gf, rest) = rest.split_at(hl);
                let (gg, go) = rest.split_at(hl);
                for k in 0..hl {
                    c[k] = gf[k] * c[k] + gi[k] * gg[k];
                }
                h.copy_from_slice(c);
                tanh_slice(h);
                for k in 0..hl {
                    h[k] *= go[k];
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

    /// Batched BPTT over a packed minibatch. `dhs[i]` is caller
    /// sequence `i`'s flat output gradient, `len_i x H` row-major in
    /// natural time order. Parameter gradients accumulate into
    /// `self.{w,u,b}.grad`; no input gradients are formed (the
    /// classifier's inputs are data). Against the per-gate reverse
    /// traversal kept as the test oracle, every stage runs on the fused
    /// kernels —
    ///
    /// 1. the per-row four-gate gradient loop becomes one 4H-wide
    ///    [`lstm_gates_backward_fused`] sweep (bitwise identical to the
    ///    per-gate formulas on every instruction set);
    /// 2. the per-step `dh_next = Uᵀ·dZ` transpose-multiply becomes a
    ///    register-tiled [`Matrix::matmul_nt_fused_to`] GEMM over a
    ///    `Uᵀ` view served by the direction's version-keyed
    ///    [`crate::matrix::TransposedCache`] (rebuilt only when the
    ///    optimizer stepped `U`);
    /// 3. the final `dW += dZᵀ·X` / `dU += dZᵀ·H_prev` accumulations
    ///    run on the register-tiled [`Matrix::add_tn_product_fused`],
    ///    which streams the gradient matrices through cache once
    ///    instead of once per packed row.
    ///
    /// Numerics: stages (2) and (3) contract multiplies and adds into
    /// fused multiply-adds but preserve each element's summation order,
    /// so gradients match the unfused path within fma rounding (and
    /// remain deterministic and bitwise lane-invariant); stage (1) is
    /// bitwise exact.
    pub(crate) fn backward_batch_dir_fused(
        &mut self,
        pack: &PackedBatch,
        dir: &mut DirCache,
        reversed: bool,
        dhs: &[&[f32]],
        scratch: &mut GemmScratch,
    ) {
        let hl = self.hidden_size;
        let gr = 4 * hl;
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
            c_prev,
            h_prev,
            ..
        } = dir;
        let GemmScratch { dz, bh, bc, .. } = scratch;
        dz.clear();
        dz.resize(total * gr, 0.0);
        // bh/bc hold dh_next/dc_next rows. A sequence joins the reverse
        // traversal at its own final step, where its rows have never
        // been written — the zero boundary condition comes for free.
        bh.clear();
        bh.resize(nb0 * hl, 0.0);
        bc.clear();
        bc.resize(nb0 * hl, 0.0);
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
                    // IEEE addition commutes), then run the whole-row
                    // gate sweep off the summed value.
                    for (slot, &d) in bh[b * hl..(b + 1) * hl].iter_mut().zip(dh_seq) {
                        *slot += d;
                    }
                    lstm_gates_backward_fused(
                        &gates[r * gr..(r + 1) * gr],
                        &aux[r * hl..(r + 1) * hl],
                        &c_prev[r * hl..(r + 1) * hl],
                        &bh[b * hl..(b + 1) * hl],
                        &mut bc[b * hl..(b + 1) * hl],
                        &mut dz[r * gr..(r + 1) * gr],
                        hl,
                    );
                }
                // dh_next for step t-1, all active rows in one fused
                // GEMM over the cached transpose (overwrite: rows past
                // `nb` stay at their zero boundary values).
                ut.matmul_nt_fused_to(
                    &dz[off * gr..(off + nb) * gr],
                    nb,
                    &mut bh[..nb * hl],
                    false,
                );
            }
        }
        self.w
            .grad
            .add_tn_product_fused(dz, pack.x(reversed), total);
        self.u.grad.add_tn_product_fused(dz, h_prev, total);
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

/// Bidirectional LSTM: a forward-direction and a backward-direction LSTM
/// whose hidden states are summed per timestep.
#[derive(Debug, Clone)]
pub struct BiLstm {
    /// Forward-direction layer.
    pub fwd: Lstm,
    /// Backward-direction layer.
    pub bwd: Lstm,
}

/// Forward cache for [`BiLstm`].
#[derive(Debug, Clone)]
pub struct BiLstmCache {
    fwd: LstmCache,
    bwd: LstmCache,
}

impl BiLstm {
    /// Creates a bidirectional LSTM (both directions sized
    /// `input_size -> hidden_size`).
    pub fn new<R: Rng + ?Sized>(input_size: usize, hidden_size: usize, rng: &mut R) -> Self {
        BiLstm {
            fwd: Lstm::new(input_size, hidden_size, rng),
            bwd: Lstm::new(input_size, hidden_size, rng),
        }
    }

    /// Hidden dimension of the summed output.
    pub fn hidden_size(&self) -> usize {
        self.fwd.hidden_size()
    }

    /// Runs both directions and sums their hidden states per timestep.
    pub fn forward(&self, xs: &[Vec<f32>]) -> (Vec<Vec<f32>>, BiLstmCache) {
        let mut scratch = GemmScratch::new();
        self.forward_with_scratch(xs, &mut scratch)
    }

    /// [`BiLstm::forward`] streaming through a reusable [`GemmScratch`]
    /// (both directions share it sequentially).
    pub fn forward_with_scratch(
        &self,
        xs: &[Vec<f32>],
        scratch: &mut GemmScratch,
    ) -> (Vec<Vec<f32>>, BiLstmCache) {
        let (mut out, cache_f) = self.fwd.forward_dir(xs, false, scratch);
        let (hb, cache_b) = self.bwd.forward_dir(xs, true, scratch);
        let t_len = xs.len();
        for (t, h) in out.iter_mut().enumerate() {
            for (a, b) in h.iter_mut().zip(&hb[t_len - 1 - t]) {
                *a += b;
            }
        }
        (
            out,
            BiLstmCache {
                fwd: cache_f,
                bwd: cache_b,
            },
        )
    }

    /// Summed hidden states without backward-pass caches — the inference
    /// fast path for a trained detector.
    pub fn hidden_states_with_scratch(
        &self,
        xs: &[Vec<f32>],
        scratch: &mut GemmScratch,
    ) -> Vec<Vec<f32>> {
        let mut out = vec![vec![0.0f32; self.hidden_size()]; xs.len()];
        self.fwd.infer_add(xs, false, scratch, &mut out);
        self.bwd.infer_add(xs, true, scratch, &mut out);
        out
    }

    /// Backpropagates through both directions, accumulating parameter
    /// gradients and returning input gradients.
    pub fn backward(&mut self, cache: &BiLstmCache, dhs: &[Vec<f32>]) -> Vec<Vec<f32>> {
        let mut scratch = GemmScratch::new();
        self.backward_with_scratch(cache, dhs, &mut scratch)
    }

    /// [`BiLstm::backward`] streaming through a reusable [`GemmScratch`].
    pub fn backward_with_scratch(
        &mut self,
        cache: &BiLstmCache,
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

    /// Batched training forward over a minibatch of sequences: packs
    /// (or re-uses the packed layout of) the batch into `ws`, runs both
    /// directions through the GEMM engine and returns the summed hidden
    /// states per sequence in *caller order*. The forward-pass caches
    /// for [`BiLstm::backward_batch`] live in `ws`.
    ///
    /// A workspace is tied to one model: its projection caches are
    /// keyed by this layer's weight versions.
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
    /// forward direction writes, the reversed direction accumulates,
    /// and no per-frame vectors are allocated anywhere. This is the
    /// engine under [`BiLstm::hidden_states_batch`] and the batched
    /// classifier head, which runs one flat GEMM straight over the
    /// buffer. The recurrent GEMMs run on the fused-FMA kernel of
    /// [`crate::matrix::Matrix::matmul_nt_fused_to`], so outputs match
    /// the per-sequence engine within rounding rather than bitwise
    /// (the training path, [`BiLstm::forward_batch`], stays bitwise).
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
    /// wrapper around [`BiLstm::hidden_states_batch_flat`] — see there
    /// for the numerics (fused recurrent GEMMs, within-rounding match
    /// to the sequential engine).
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

    /// Batched BPTT through both directions. `dhs[i]` is caller
    /// sequence `i`'s flat output gradient (`len_i x H` row-major).
    /// Must follow a [`BiLstm::forward_batch`] on the same workspace.
    /// Accumulates parameter gradients only (the classifier's inputs
    /// are data, so no input gradients), through
    /// [`Lstm::backward_batch_dir_fused`] in each direction.
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
    /// parity oracle for the fused engine of [`BiLstm::backward_batch`].
    impl Lstm {
        /// Batched BPTT over a packed minibatch. `dhs[i]` is caller
        /// sequence `i`'s flat output gradient, `len_i x H` row-major in
        /// natural time order. Parameter gradients are accumulated into
        /// `self.{w,u,b}.grad` as three GEMMs over all packed rows.
        ///
        /// Unlike [`Lstm::backward_with_scratch`] this does not return
        /// input gradients: the classifier's inputs are data, so skipping
        /// `dX = dZ·W` saves the input-side GEMM entirely.
        fn backward_batch_dir(
            &mut self,
            pack: &PackedBatch,
            dir: &DirCache,
            reversed: bool,
            dhs: &[&[f32]],
            scratch: &mut GemmScratch,
        ) {
            let hl = self.hidden_size;
            let gr = 4 * hl;
            let total = pack.total_rows();
            let nb0 = if pack.max_len() == 0 {
                0
            } else {
                pack.active(0)
            };
            let GemmScratch { dz, bh, bc, .. } = scratch;
            dz.clear();
            dz.resize(total * gr, 0.0);
            // bh/bc hold dh_next/dc_next rows. A sequence joins the reverse
            // traversal at its own final step, where its rows have never
            // been written — the zero boundary condition comes for free.
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
                    let (gi, gf, gg, go) = (
                        &gates[..hl],
                        &gates[hl..2 * hl],
                        &gates[2 * hl..3 * hl],
                        &gates[3 * hl..],
                    );
                    let tanh_c = &dir.aux[r * hl..(r + 1) * hl];
                    let c_prev = &dir.c_prev[r * hl..(r + 1) * hl];
                    let dz_t = &mut dz[r * gr..(r + 1) * gr];
                    let pos = if reversed { pack.lens()[b] - 1 - t } else { t };
                    let dh_seq = &dhs[pack.order()[b]][pos * hl..(pos + 1) * hl];
                    let dh_next = &bh[b * hl..(b + 1) * hl];
                    let dc_next = &mut bc[b * hl..(b + 1) * hl];
                    for k in 0..hl {
                        let dh = dh_seq[k] + dh_next[k];
                        let dc = dc_next[k] + dh * go[k] * (1.0 - tanh_c[k] * tanh_c[k]);
                        let d_o = dh * tanh_c[k];
                        let d_i = dc * gg[k];
                        let d_f = dc * c_prev[k];
                        let d_g = dc * gi[k];
                        dz_t[k] = d_i * gi[k] * (1.0 - gi[k]);
                        dz_t[hl + k] = d_f * gf[k] * (1.0 - gf[k]);
                        dz_t[2 * hl + k] = d_g * (1.0 - gg[k] * gg[k]);
                        dz_t[3 * hl + k] = d_o * go[k] * (1.0 - go[k]);
                        dc_next[k] = dc * gf[k];
                    }
                }
                // dh_next for step t-1, all active rows in one GEMM.
                self.u
                    .value
                    .matmul_t_to(&dz[off * gr..(off + nb) * gr], nb, &mut bh[..nb * hl]);
            }
            self.w.grad.add_tn_product(dz, pack.x(reversed), total);
            self.u.grad.add_tn_product(dz, &dir.h_prev, total);
            let bg = self.b.grad.data_mut();
            for row in dz.chunks_exact(gr) {
                for (slot, &d) in bg.iter_mut().zip(row) {
                    *slot += d;
                }
            }
        }
    }

    impl BiLstm {
        /// [`BiLstm::backward_batch`] through the unfused oracle.
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
    fn forward_output_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let lstm = Lstm::new(3, 5, &mut rng);
        let xs = toy_inputs(7, 3, 2);
        let (hs, _) = lstm.forward(&xs);
        assert_eq!(hs.len(), 7);
        assert!(hs.iter().all(|h| h.len() == 5));
    }

    #[test]
    fn hidden_states_are_bounded_by_one() {
        // h = o * tanh(c), both factors in (-1, 1).
        let mut rng = StdRng::seed_from_u64(3);
        let lstm = Lstm::new(4, 8, &mut rng);
        let xs = toy_inputs(20, 4, 4);
        let (hs, _) = lstm.forward(&xs);
        for h in &hs {
            for &v in h {
                assert!(v.abs() < 1.0);
            }
        }
    }

    #[test]
    fn empty_sequence_is_ok() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut lstm = Lstm::new(3, 5, &mut rng);
        let (hs, cache) = lstm.forward(&[]);
        assert!(hs.is_empty());
        let dxs = lstm.backward(&cache, &[]);
        assert!(dxs.is_empty());
        let mut scratch = GemmScratch::new();
        assert!(lstm
            .hidden_states_with_scratch(&[], &mut scratch)
            .is_empty());
    }

    #[test]
    fn inference_path_matches_training_forward() {
        // The cache-free inference traversal must be bitwise identical
        // to the training forward pass (same kernels, same order).
        let mut rng = StdRng::seed_from_u64(15);
        let lstm = Lstm::new(4, 6, &mut rng);
        let xs = toy_inputs(11, 4, 16);
        let (hs, _) = lstm.forward(&xs);
        let mut scratch = GemmScratch::new();
        let inferred = lstm.hidden_states_with_scratch(&xs, &mut scratch);
        assert_eq!(hs, inferred);
    }

    #[test]
    fn scratch_is_reusable_across_shapes() {
        // One scratch serves layers of different sizes back to back.
        let mut rng = StdRng::seed_from_u64(17);
        let small = Lstm::new(2, 3, &mut rng);
        let large = Lstm::new(5, 8, &mut rng);
        let mut scratch = GemmScratch::new();
        let (a1, _) = small.forward_with_scratch(&toy_inputs(4, 2, 18), &mut scratch);
        let (b1, _) = large.forward_with_scratch(&toy_inputs(9, 5, 19), &mut scratch);
        let (a2, _) = small.forward(&toy_inputs(4, 2, 18));
        let (b2, _) = large.forward(&toy_inputs(9, 5, 19));
        assert_eq!(a1, a2);
        assert_eq!(b1, b2);
    }

    #[test]
    fn from_gate_weights_stacks_fused_layout() {
        let mut rng = StdRng::seed_from_u64(23);
        let reference = Lstm::new(3, 2, &mut rng);
        let slice_gate = |m: &Matrix, g: usize| {
            let h = 2;
            let rows: Vec<&[f32]> = (g * h..(g + 1) * h).map(|r| m.row(r)).collect();
            Matrix::from_rows(&rows)
        };
        let w = std::array::from_fn(|g| slice_gate(&reference.w.value, g));
        let u = std::array::from_fn(|g| slice_gate(&reference.u.value, g));
        let b = std::array::from_fn(|g| slice_gate(&reference.b.value, g));
        let rebuilt = Lstm::from_gate_weights(w, u, b).unwrap();
        assert_eq!(rebuilt.w.value, reference.w.value);
        assert_eq!(rebuilt.u.value, reference.u.value);
        assert_eq!(rebuilt.b.value, reference.b.value);
        let xs = toy_inputs(5, 3, 24);
        assert_eq!(rebuilt.forward(&xs).0, reference.forward(&xs).0);
    }

    /// Finite-difference gradient check for the unidirectional LSTM.
    #[test]
    fn lstm_gradients_match_finite_differences() {
        let (d, h, t_len) = (3usize, 4usize, 5usize);
        let mut rng = StdRng::seed_from_u64(42);
        let mut lstm = Lstm::new(d, h, &mut rng);
        let xs = toy_inputs(t_len, d, 43);
        // Loss = sum of all hidden activations (gradient of 1 everywhere).
        let loss = |l: &Lstm| -> f32 {
            let (hs, _) = l.forward(&xs);
            hs.iter().flatten().sum()
        };
        let (_, cache) = lstm.forward(&xs);
        let dhs = vec![vec![1.0f32; h]; t_len];
        let dxs = lstm.backward(&cache, &dhs);

        let eps = 1e-3f32;
        // Check a sample of weight entries in each parameter.
        for (pname, pidx) in [("w", 0usize), ("u", 1), ("b", 2)] {
            for k in [0usize, 1, 5] {
                let mut l2 = lstm.clone();
                let analytic = {
                    let p = match pidx {
                        0 => &lstm.w,
                        1 => &lstm.u,
                        _ => &lstm.b,
                    };
                    if k >= p.grad.data().len() {
                        continue;
                    }
                    p.grad.data()[k]
                };
                {
                    let p = match pidx {
                        0 => &mut l2.w,
                        1 => &mut l2.u,
                        _ => &mut l2.b,
                    };
                    p.value.data_mut()[k] += eps;
                }
                let up = loss(&l2);
                {
                    let p = match pidx {
                        0 => &mut l2.w,
                        1 => &mut l2.u,
                        _ => &mut l2.b,
                    };
                    p.value.data_mut()[k] -= 2.0 * eps;
                }
                let down = loss(&l2);
                let numeric = (up - down) / (2.0 * eps);
                assert!(
                    (analytic - numeric).abs() < 2e-2 * analytic.abs().max(1.0),
                    "{pname}[{k}]: analytic {analytic} vs numeric {numeric}"
                );
            }
        }
        // Check input gradients.
        for t in [0usize, 2, 4] {
            for j in 0..d {
                let mut xs2 = xs.clone();
                xs2[t][j] += eps;
                let up: f32 = lstm.forward(&xs2).0.iter().flatten().sum();
                xs2[t][j] -= 2.0 * eps;
                let down: f32 = lstm.forward(&xs2).0.iter().flatten().sum();
                let numeric = (up - down) / (2.0 * eps);
                assert!(
                    (dxs[t][j] - numeric).abs() < 2e-2 * numeric.abs().max(1.0),
                    "dx[{t}][{j}]: analytic {} vs numeric {numeric}",
                    dxs[t][j]
                );
            }
        }
    }

    #[test]
    fn bilstm_output_is_sum_of_directions() {
        let mut rng = StdRng::seed_from_u64(9);
        let bi = BiLstm::new(3, 4, &mut rng);
        let xs = toy_inputs(6, 3, 10);
        let (out, _) = bi.forward(&xs);
        let (hf, _) = bi.fwd.forward(&xs);
        let rev: Vec<Vec<f32>> = xs.iter().rev().cloned().collect();
        let (hb, _) = bi.bwd.forward(&rev);
        for t in 0..6 {
            for k in 0..4 {
                assert!((out[t][k] - (hf[t][k] + hb[5 - t][k])).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn bilstm_inference_matches_training_forward() {
        let mut rng = StdRng::seed_from_u64(13);
        let bi = BiLstm::new(3, 4, &mut rng);
        let xs = toy_inputs(6, 3, 14);
        let (out, _) = bi.forward(&xs);
        let mut scratch = GemmScratch::new();
        let inferred = bi.hidden_states_with_scratch(&xs, &mut scratch);
        for (a, b) in out.iter().zip(&inferred) {
            for (x, y) in a.iter().zip(b) {
                assert!((x - y).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn bilstm_sees_future_context() {
        // Construct two sequences identical up to t=2 but differing later;
        // a bidirectional network's early outputs must differ, a forward
        // LSTM's must not.
        let mut rng = StdRng::seed_from_u64(21);
        let bi = BiLstm::new(2, 4, &mut rng);
        let a = vec![vec![0.1, 0.2]; 6];
        let mut b = a.clone();
        b[5] = vec![0.9, -0.9];
        let (ha, _) = bi.forward(&a);
        let (hb, _) = bi.forward(&b);
        let d0: f32 = ha[0].iter().zip(&hb[0]).map(|(x, y)| (x - y).abs()).sum();
        assert!(d0 > 1e-4, "bidirectional output at t=0 ignored the future");
        let (fa, _) = bi.fwd.forward(&a);
        let (fb, _) = bi.fwd.forward(&b);
        let df: f32 = fa[0].iter().zip(&fb[0]).map(|(x, y)| (x - y).abs()).sum();
        assert!(df < 1e-7, "forward LSTM at t=0 cannot depend on the future");
    }

    #[test]
    fn batched_forward_matches_sequential_at_wide_hidden_sizes() {
        // H = 33 stays on the wide GEMM path (>= 32 recurrent columns)
        // while exercising the dot kernel's tail passes; mixed lengths
        // exercise the shrinking active prefix. The train path shares
        // the sequential engine's kernels and must match bitwise; the
        // inference path runs the fused recurrent GEMM and is only
        // required to agree within fused-multiply-add rounding.
        let mut rng = StdRng::seed_from_u64(31);
        let bi = BiLstm::new(3, 33, &mut rng);
        let seqs: Vec<Vec<Vec<f32>>> = [5usize, 2, 7, 1]
            .iter()
            .enumerate()
            .map(|(i, &len)| toy_inputs(len, 3, 100 + i as u64))
            .collect();
        let refs: Vec<&[Vec<f32>]> = seqs.iter().map(|s| s.as_slice()).collect();
        let mut ws = BatchWorkspace::new();
        let mut scratch = GemmScratch::new();
        let batched = bi.forward_batch(&refs, &mut ws, &mut scratch);
        let inferred = bi.hidden_states_batch(&refs, &mut ws, &mut scratch);
        for (i, seq) in seqs.iter().enumerate() {
            let (sequential, _) = bi.forward_with_scratch(seq, &mut scratch);
            assert_eq!(batched[i], sequential, "seq {i} (train path)");
            for (t, (a, b)) in inferred[i].iter().zip(&sequential).enumerate() {
                for (x, y) in a.iter().zip(b) {
                    assert!((x - y).abs() < 1e-5, "seq {i} t {t}: {x} vs {y}");
                }
            }
        }
    }

    #[test]
    fn batched_backward_matches_sequential_gradients() {
        let (d, h) = (3usize, 4usize);
        let mut rng = StdRng::seed_from_u64(33);
        let bi = BiLstm::new(d, h, &mut rng);
        let seqs: Vec<Vec<Vec<f32>>> = [4usize, 6, 2]
            .iter()
            .enumerate()
            .map(|(i, &len)| toy_inputs(len, d, 200 + i as u64))
            .collect();
        let refs: Vec<&[Vec<f32>]> = seqs.iter().map(|s| s.as_slice()).collect();
        let mut scratch = GemmScratch::new();

        // Sequential reference: accumulate gradients over all sequences
        // with dL/dh = 1 everywhere.
        let mut seq_model = bi.clone();
        for seq in &seqs {
            let (_, cache) = seq_model.forward_with_scratch(seq, &mut scratch);
            let dhs = vec![vec![1.0f32; h]; seq.len()];
            seq_model.backward_with_scratch(&cache, &dhs, &mut scratch);
        }

        // Both engines must reproduce the sequential gradients; the
        // unfused path is the exact oracle, the fused path matches
        // within fma rounding.
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
        // Direct fused-vs-unfused parity at a training-like shape:
        // mixed lengths (including length 1), structured non-constant
        // output gradients. The only differences allowed are fma
        // contraction in the gradient GEMMs.
        let (d, h) = (5usize, 16usize);
        let mut rng = StdRng::seed_from_u64(39);
        let bi = BiLstm::new(d, h, &mut rng);
        let seqs: Vec<Vec<Vec<f32>>> = [7usize, 4, 1, 5]
            .iter()
            .enumerate()
            .map(|(i, &len)| toy_inputs(len, d, 500 + i as u64))
            .collect();
        let refs: Vec<&[Vec<f32>]> = seqs.iter().map(|s| s.as_slice()).collect();
        let mut scratch = GemmScratch::new();
        let flat: Vec<Vec<f32>> = seqs
            .iter()
            .enumerate()
            .map(|(i, s)| {
                (0..s.len() * h)
                    .map(|k| ((i * 31 + k) as f32 * 0.37).sin())
                    .collect()
            })
            .collect();
        let dhs: Vec<&[f32]> = flat.iter().map(|v| v.as_slice()).collect();

        let mut grads = Vec::new();
        for path in ["unfused", "fused"] {
            let mut m = bi.clone();
            let mut ws = BatchWorkspace::new();
            m.forward_batch(&refs, &mut ws, &mut scratch);
            if path == "unfused" {
                m.backward_batch_unfused(&mut ws, &dhs, &mut scratch);
            } else {
                m.backward_batch(&mut ws, &dhs, &mut scratch);
            }
            grads.push(
                m.params_mut()
                    .iter()
                    .map(|p| p.grad.data().to_vec())
                    .collect::<Vec<_>>(),
            );
        }
        for (pi, (unf, fus)) in grads[0].iter().zip(&grads[1]).enumerate() {
            for (k, (a, b)) in unf.iter().zip(fus).enumerate() {
                assert!(
                    (a - b).abs() < 1e-4 * a.abs().max(1.0),
                    "param {pi} elem {k}: unfused {a} vs fused {b}"
                );
            }
        }
    }

    #[test]
    fn projection_cache_reuses_until_weights_step() {
        let mut rng = StdRng::seed_from_u64(35);
        let bi = BiLstm::new(2, 3, &mut rng);
        let seqs: Vec<Vec<Vec<f32>>> = vec![toy_inputs(3, 2, 300), toy_inputs(5, 2, 301)];
        let refs: Vec<&[Vec<f32>]> = seqs.iter().map(|s| s.as_slice()).collect();
        let mut ws = BatchWorkspace::new();
        let mut scratch = GemmScratch::new();
        let first = bi.forward_batch(&refs, &mut ws, &mut scratch);
        let key = ws.fwd.proj_key;
        assert_eq!(key, Some((bi.fwd.w.version(), bi.fwd.b.version())));
        // Same batch, same weights: projections survive and outputs repeat.
        let second = bi.forward_batch(&refs, &mut ws, &mut scratch);
        assert_eq!(ws.fwd.proj_key, key);
        assert_eq!(first, second);
        // A weight step invalidates the cache and changes the outputs.
        let mut stepped = bi.clone();
        stepped.fwd.w.grad.set(0, 0, 1.0);
        stepped
            .fwd
            .w
            .adam_step(&crate::param::AdamConfig::default(), 1);
        let third = stepped.forward_batch(&refs, &mut ws, &mut scratch);
        assert_eq!(
            ws.fwd.proj_key,
            Some((stepped.fwd.w.version(), stepped.fwd.b.version()))
        );
        assert_ne!(ws.fwd.proj_key, key);
        assert_ne!(first, third);
    }

    #[test]
    fn batched_paths_handle_empty_batches_and_sequences() {
        let mut rng = StdRng::seed_from_u64(37);
        let mut bi = BiLstm::new(2, 3, &mut rng);
        let mut ws = BatchWorkspace::new();
        let mut scratch = GemmScratch::new();
        let refs: Vec<&[Vec<f32>]> = vec![];
        assert!(bi.forward_batch(&refs, &mut ws, &mut scratch).is_empty());
        bi.backward_batch(&mut ws, &[], &mut scratch);
        bi.backward_batch_unfused(&mut ws, &[], &mut scratch);
        let empty: Vec<Vec<f32>> = vec![];
        let one = toy_inputs(2, 2, 400);
        let refs: Vec<&[Vec<f32>]> = vec![&empty, &one];
        let out = bi.forward_batch(&refs, &mut ws, &mut scratch);
        assert!(out[0].is_empty());
        assert_eq!(out[1].len(), 2);
    }

    #[test]
    fn bilstm_gradcheck_on_inputs() {
        let (d, h, t_len) = (2usize, 3usize, 4usize);
        let mut rng = StdRng::seed_from_u64(77);
        let mut bi = BiLstm::new(d, h, &mut rng);
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
                assert!(
                    (dxs[t][j] - numeric).abs() < 2e-2 * numeric.abs().max(1.0),
                    "dx[{t}][{j}]"
                );
            }
        }
    }
}
