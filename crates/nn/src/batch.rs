//! Packed minibatch layout for the fused-gate recurrent engines.
//!
//! The per-utterance engine runs the recurrent step `U·h` as a mat-vec,
//! which is memory-bound: the `4H×H` weight panel streams from cache
//! once per timestep per sequence. Packing `B` sequences into one
//! batch turns that step into a `4H×H × H×B` GEMM — the panel streams
//! once per *timestep*, amortized over the whole batch — and fuses the
//! `B` input projections into a single `4H×I × I×(B·T)` GEMM per
//! direction.
//!
//! Sequences have unequal lengths, so the layout follows cuDNN-style
//! packed sequences: sort by length descending, then store timestep `t`
//! of every still-active sequence contiguously. Because of the sort,
//! the set of sequences active at step `t` is always a *prefix* of the
//! batch, so each step works on a dense leading block of rows and no
//! masking is needed anywhere in the math.
//!
//! [`BatchWorkspace`] owns the packed layout plus the per-direction
//! projection caches and persists across calls: training loops that
//! revisit the same minibatch every epoch re-pack nothing and reuse all
//! allocations, only recomputing the `W·X` projections when the input
//! weights actually stepped (see [`crate::param::Param::version`]).

use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;

use crate::matrix::TransposedCache;

/// Length-sorted packed layout of a minibatch of sequences.
///
/// For the packing order see the module docs. Row-major storage:
/// timestep `t` occupies rows `offset(t) .. offset(t) + active(t)`,
/// where row `j` within the step belongs to sorted slot `j` (original
/// sequence `order()[j]`).
#[derive(Debug, Clone, Default)]
pub(crate) struct PackedBatch {
    /// `order[j]` = index into the caller's slice of the sequence in
    /// sorted slot `j` (lengths descending, ties in caller order).
    order: Vec<usize>,
    /// Sequence lengths in sorted-slot order (non-increasing).
    lens: Vec<usize>,
    /// `active[t]` = number of sequences with length > `t`.
    active: Vec<usize>,
    /// Prefix sums of `active`: `offsets[t]` = first packed row of step
    /// `t`; `offsets[max_len]` = total packed rows.
    offsets: Vec<usize>,
    /// Feature width of every timestep vector.
    width: usize,
    /// Packed inputs in forward time order, `total_rows x width`.
    x_fwd: Vec<f32>,
    /// Packed inputs with each sequence individually reversed (slot `j`
    /// contributes element `lens[j] - 1 - t` at step `t`), same layout.
    x_bwd: Vec<f32>,
    /// Fingerprint of the batch contents the layout was built from.
    fingerprint: u64,
    /// False until the first `prepare` call.
    prepared: bool,
}

/// Hashes a batch's shape and exact contents; used to detect that a
/// training loop re-presented the same minibatch (same sequences, same
/// order) so the packed layout and projections can be reused.
pub(crate) fn fingerprint_of(seqs: &[&[Vec<f32>]], width: usize) -> u64 {
    let mut h = DefaultHasher::new();
    h.write_usize(width);
    h.write_usize(seqs.len());
    for seq in seqs {
        h.write_usize(seq.len());
        for frame in seq.iter() {
            for &v in frame {
                h.write_u32(v.to_bits());
            }
        }
    }
    h.finish()
}

impl PackedBatch {
    /// (Re)builds the layout for `seqs` if its fingerprint differs from
    /// the cached one; returns `true` when a rebuild happened (callers
    /// must then drop any projection caches derived from the old
    /// layout). Empty sequences are allowed and simply never active.
    ///
    /// # Panics
    ///
    /// Panics if any frame's length differs from `width`.
    pub(crate) fn prepare(&mut self, seqs: &[&[Vec<f32>]], width: usize) -> bool {
        let fp = fingerprint_of(seqs, width);
        if self.prepared && fp == self.fingerprint && self.width == width {
            return false;
        }
        self.fingerprint = fp;
        self.prepared = true;
        self.width = width;

        self.order.clear();
        self.order.extend(0..seqs.len());
        // Stable sort keeps equal-length sequences in caller order, so
        // the layout (and therefore training numerics) is deterministic.
        self.order
            .sort_by_key(|&i| std::cmp::Reverse(seqs[i].len()));
        self.lens.clear();
        self.lens.extend(self.order.iter().map(|&i| seqs[i].len()));

        let max_len = self.lens.first().copied().unwrap_or(0);
        self.active.clear();
        self.offsets.clear();
        self.offsets.push(0);
        for t in 0..max_len {
            // lens is non-increasing, so the active set is the prefix of
            // slots whose length still exceeds t.
            let nb = self.lens.partition_point(|&l| l > t);
            self.active.push(nb);
            self.offsets.push(self.offsets[t] + nb);
        }

        let total = self.total_rows();
        self.x_fwd.clear();
        self.x_fwd.reserve(total * width);
        self.x_bwd.clear();
        self.x_bwd.reserve(total * width);
        for t in 0..max_len {
            for (j, &len) in self.lens[..self.active[t]].iter().enumerate() {
                let seq = seqs[self.order[j]];
                let fwd = &seq[t];
                let bwd = &seq[len - 1 - t];
                assert_eq!(fwd.len(), width, "input dimension mismatch");
                assert_eq!(bwd.len(), width, "input dimension mismatch");
                self.x_fwd.extend_from_slice(fwd);
                self.x_bwd.extend_from_slice(bwd);
            }
        }
        true
    }

    /// Length of the longest sequence (the number of timesteps).
    pub(crate) fn max_len(&self) -> usize {
        self.active.len()
    }

    /// Total packed rows, i.e. the sum of all sequence lengths.
    pub(crate) fn total_rows(&self) -> usize {
        *self.offsets.last().unwrap_or(&0)
    }

    /// Number of sequences still running at step `t`.
    pub(crate) fn active(&self, t: usize) -> usize {
        self.active[t]
    }

    /// First packed row of step `t` (valid for `t <= max_len`).
    pub(crate) fn offset(&self, t: usize) -> usize {
        self.offsets[t]
    }

    /// Sorted-slot → caller-index mapping.
    pub(crate) fn order(&self) -> &[usize] {
        &self.order
    }

    /// Sequence lengths in sorted-slot order.
    pub(crate) fn lens(&self) -> &[usize] {
        &self.lens
    }

    /// Packed inputs for one direction.
    pub(crate) fn x(&self, reversed: bool) -> &[f32] {
        if reversed {
            &self.x_bwd
        } else {
            &self.x_fwd
        }
    }

    /// Feature width the layout was packed with.
    pub(crate) fn width(&self) -> usize {
        self.width
    }
}

/// Per-direction working set: the cached time-batched `W·X` projection
/// plus the forward-pass rows the backward pass replays.
#[derive(Debug, Clone, Default)]
pub(crate) struct DirCache {
    /// Time-batched input projections, `total_rows x gate_rows`. The
    /// LSTM engines store `W·x + b` (bias folded in at fill time so
    /// each step starts from a plain row copy); the GRU engine stores
    /// bare `W·x` because its cell adds the bias in a different
    /// association order.
    pub(crate) proj: Vec<f32>,
    /// [`crate::param::Param::version`] tickets `(W, b)` the projection
    /// was computed against; `None` forces recomputation (set on
    /// repack). This is the epoch-persistence rule: same batch + same
    /// weights → reuse, optimizer stepped → recompute into the same
    /// allocation.
    pub(crate) proj_key: Option<(u64, u64)>,
    /// Hidden state entering each step, `total_rows x hidden` (training
    /// forward only).
    pub(crate) h_prev: Vec<f32>,
    /// Cell state entering each step (LSTM), `total_rows x hidden`.
    pub(crate) c_prev: Vec<f32>,
    /// Activated gate values per step, `total_rows x gate_rows`.
    pub(crate) gates: Vec<f32>,
    /// Auxiliary per-step values (`tanh(c)` for LSTM, `U·h` candidate
    /// rows for GRU), `total_rows x hidden`.
    pub(crate) aux: Vec<f32>,
    /// Transposed recurrent weights `Uᵀ` for the fused backward's
    /// hidden-gradient GEMM, keyed on the `U` parameter's version
    /// ticket (same invalidation rule as `proj_key`: optimizer stepped
    /// → rebuild, otherwise reuse across epochs).
    pub(crate) ut: TransposedCache,
}

/// Reusable workspace for batched forward/backward passes.
///
/// Create once and thread through `forward_batch` / `train_step`
/// calls: the packed layout, projection caches and all scratch buffers
/// persist, so repeated visits of the same minibatch (a training loop's
/// epochs) neither re-pack nor re-allocate.
#[derive(Debug, Clone, Default)]
pub struct BatchWorkspace {
    pub(crate) pack: PackedBatch,
    pub(crate) fwd: DirCache,
    pub(crate) bwd: DirCache,
    /// Flat packed hidden-state output of the batched inference engine,
    /// `total_rows x hidden` in packed-row order (step `t`'s active
    /// rows contiguous at `offset(t)`). Lives here so repeated
    /// inference calls reuse the allocation and the classifier head can
    /// run one flat GEMM straight over it without re-nesting.
    pub(crate) flat: Vec<f32>,
}

impl BatchWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        BatchWorkspace::default()
    }

    /// Re-packs the layout if the batch changed; invalidates the
    /// projection caches on repack. Returns `true` on repack.
    pub(crate) fn prepare(&mut self, seqs: &[&[Vec<f32>]], width: usize) -> bool {
        let repacked = self.pack.prepare(seqs, width);
        if repacked {
            self.fwd.proj_key = None;
            self.bwd.proj_key = None;
        }
        repacked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(len: usize, base: f32) -> Vec<Vec<f32>> {
        (0..len)
            .map(|t| vec![base + t as f32, base - t as f32])
            .collect()
    }

    #[test]
    fn packing_sorts_by_length_and_counts_active_prefixes() {
        let a = seq(2, 10.0);
        let b = seq(4, 20.0);
        let c = seq(3, 30.0);
        let refs: Vec<&[Vec<f32>]> = vec![&a, &b, &c];
        let mut p = PackedBatch::default();
        assert!(p.prepare(&refs, 2));
        assert_eq!(p.order(), &[1, 2, 0]);
        assert_eq!(p.lens(), &[4, 3, 2]);
        assert_eq!(p.max_len(), 4);
        assert_eq!(p.total_rows(), 9);
        assert_eq!(
            (0..4).map(|t| p.active(t)).collect::<Vec<_>>(),
            vec![3, 3, 2, 1]
        );
        assert_eq!(
            (0..=4).map(|t| p.offset(t)).collect::<Vec<_>>(),
            vec![0, 3, 6, 8, 9]
        );
        // Step 2 holds rows of the two sequences of length > 2 in slot
        // order: b[2] then c[2].
        let w = p.width();
        let rows = &p.x(false)[p.offset(2) * w..p.offset(3) * w];
        assert_eq!(rows, &[22.0, 18.0, 32.0, 28.0]);
    }

    #[test]
    fn reversed_packing_reverses_each_sequence_individually() {
        let a = seq(3, 10.0);
        let b = seq(1, 20.0);
        let refs: Vec<&[Vec<f32>]> = vec![&a, &b];
        let mut p = PackedBatch::default();
        p.prepare(&refs, 2);
        let w = p.width();
        // Step 0 reversed: a's last frame, then b's only frame.
        let rows = &p.x(true)[..p.offset(1) * w];
        assert_eq!(rows, &[12.0, 8.0, 20.0, 20.0]);
        // Step 2 reversed: only a is active, contributing its first frame.
        let rows = &p.x(true)[p.offset(2) * w..p.offset(3) * w];
        assert_eq!(rows, &[10.0, 10.0]);
    }

    #[test]
    fn stable_sort_preserves_caller_order_on_ties() {
        let a = seq(3, 1.0);
        let b = seq(3, 2.0);
        let c = seq(3, 3.0);
        let refs: Vec<&[Vec<f32>]> = vec![&a, &b, &c];
        let mut p = PackedBatch::default();
        p.prepare(&refs, 2);
        assert_eq!(p.order(), &[0, 1, 2]);
    }

    #[test]
    fn fingerprint_skips_repack_and_invalidation() {
        let a = seq(2, 1.0);
        let b = seq(3, 2.0);
        let refs: Vec<&[Vec<f32>]> = vec![&a, &b];
        let mut ws = BatchWorkspace::new();
        assert!(ws.prepare(&refs, 2));
        ws.fwd.proj_key = Some((7, 7));
        ws.bwd.proj_key = Some((7, 7));
        // Same batch: no repack, projections survive.
        assert!(!ws.prepare(&refs, 2));
        assert_eq!(ws.fwd.proj_key, Some((7, 7)));
        // Any content change repacks and drops the projections.
        let b2 = seq(3, 2.5);
        let refs2: Vec<&[Vec<f32>]> = vec![&a, &b2];
        assert!(ws.prepare(&refs2, 2));
        assert_eq!(ws.fwd.proj_key, None);
        assert_eq!(ws.bwd.proj_key, None);
    }

    #[test]
    fn empty_and_zero_length_batches_are_well_formed() {
        let mut p = PackedBatch::default();
        let refs: Vec<&[Vec<f32>]> = vec![];
        p.prepare(&refs, 3);
        assert!(p.lens().is_empty());
        assert_eq!(p.max_len(), 0);
        assert_eq!(p.total_rows(), 0);

        let empty: Vec<Vec<f32>> = vec![];
        let one = seq(1, 5.0);
        let refs: Vec<&[Vec<f32>]> = vec![&empty, &one];
        p.prepare(&refs, 2);
        assert_eq!(p.order(), &[1, 0]);
        assert_eq!(p.lens(), &[1, 0]);
        assert_eq!(p.total_rows(), 1);
        assert_eq!(p.active(0), 1);
    }
}
