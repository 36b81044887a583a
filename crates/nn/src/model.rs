//! The assembled BRNN classifier: BiLSTM → dense → softmax.
//!
//! This is the architecture of the paper's barrier-effect-sensitive
//! phoneme detector (Sec. V-B): a bidirectional LSTM (64 units per
//! direction in the paper), a dense layer with one neuron per class, and
//! softmax cross-entropy trained with ADAM.

use crate::batch::{fingerprint_of, BatchWorkspace};
use crate::dense::Dense;
use crate::loss;
use crate::lstm::BiLstm;
use crate::matrix::{GemmScratch, TransposedCache};
use crate::param::AdamConfig;
use rand::Rng;
use std::collections::HashMap;

/// Upper bound on cached packed-batch workspaces; a training corpus
/// split into minibatches keeps one workspace per distinct batch, and
/// the map resets if a caller streams unbounded novel batches through.
const MAX_TRAIN_WORKSPACES: usize = 64;

/// Training hyper-parameters for [`BrnnClassifier::train_step`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TrainConfig {
    /// ADAM optimizer settings.
    pub adam: AdamConfig,
}

/// Per-frame sequence classifier: BiLSTM followed by a dense softmax
/// layer.
#[derive(Debug, Clone)]
pub struct BrnnClassifier {
    rnn: BiLstm,
    head: Dense,
    step: u64,
    /// Packed-batch workspaces keyed by corpus fingerprint: a training
    /// loop that revisits the same minibatches every epoch re-packs
    /// nothing and re-allocates nothing — only the `W·X` projections
    /// are recomputed after each optimizer step (their cache is keyed
    /// by weight version, see [`crate::batch`]).
    train_ws: HashMap<u64, BatchWorkspace>,
    scratch: GemmScratch,
    /// Cached `Wᵀ` of the head for the fused input-gradient GEMM,
    /// keyed by the head weight's version ticket.
    head_wt: TransposedCache,
}

impl BrnnClassifier {
    /// Creates a classifier with `input_size` features per frame,
    /// `hidden_size` LSTM units per direction and `n_classes` outputs.
    pub fn new<R: Rng + ?Sized>(
        input_size: usize,
        hidden_size: usize,
        n_classes: usize,
        rng: &mut R,
    ) -> Self {
        BrnnClassifier {
            rnn: BiLstm::new(input_size, hidden_size, rng),
            head: Dense::new(hidden_size, n_classes, rng),
            step: 0,
            train_ws: HashMap::new(),
            scratch: GemmScratch::new(),
            head_wt: TransposedCache::new(),
        }
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.head.output_size()
    }

    /// Number of optimizer steps taken so far.
    pub fn steps_taken(&self) -> u64 {
        self.step
    }

    /// Per-frame logits for a sequence (inference path: no backward
    /// caches are recorded).
    pub fn logits(&self, xs: &[Vec<f32>]) -> Vec<Vec<f32>> {
        let mut scratch = GemmScratch::new();
        self.logits_with_scratch(xs, &mut scratch)
    }

    /// [`BrnnClassifier::logits`] streaming through a reusable
    /// [`GemmScratch`] — the per-verification hot path of the online
    /// detector.
    pub fn logits_with_scratch(&self, xs: &[Vec<f32>], scratch: &mut GemmScratch) -> Vec<Vec<f32>> {
        let _span = thrubarrier_obs::span!("nn.predict");
        let hs = self.rnn.hidden_states_with_scratch(xs, scratch);
        hs.iter().map(|h| self.head.apply(h)).collect()
    }

    /// Per-frame class probabilities.
    pub fn predict_proba(&self, xs: &[Vec<f32>]) -> Vec<Vec<f32>> {
        let mut scratch = GemmScratch::new();
        self.predict_proba_with_scratch(xs, &mut scratch)
    }

    /// [`BrnnClassifier::predict_proba`] with caller-provided scratch.
    pub fn predict_proba_with_scratch(
        &self,
        xs: &[Vec<f32>],
        scratch: &mut GemmScratch,
    ) -> Vec<Vec<f32>> {
        self.logits_with_scratch(xs, scratch)
            .iter()
            .map(|l| loss::softmax(l))
            .collect()
    }

    /// Per-frame argmax class predictions.
    pub fn predict(&self, xs: &[Vec<f32>]) -> Vec<usize> {
        let mut scratch = GemmScratch::new();
        self.predict_with_scratch(xs, &mut scratch)
    }

    /// [`BrnnClassifier::predict`] with caller-provided scratch.
    pub fn predict_with_scratch(&self, xs: &[Vec<f32>], scratch: &mut GemmScratch) -> Vec<usize> {
        self.logits_with_scratch(xs, scratch)
            .iter()
            .map(|l| {
                l.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }

    /// One optimizer step over a mini-batch of `(sequence, labels)`
    /// pairs, run through the packed-batch GEMM engine: all sequences
    /// advance together so the recurrent products carry the batch
    /// dimension, the head runs as one flat GEMM over every frame, and
    /// BPTT is batched the same way. Returns the mean loss over the
    /// batch.
    ///
    /// Repeated steps over the same minibatch (a training loop's
    /// epochs) reuse the packed layout and every buffer via the
    /// internal workspace cache; the `W·X` projections are recomputed
    /// only because the optimizer stepped the weights.
    ///
    /// # Panics
    ///
    /// Panics if any sequence and its labels differ in length.
    pub fn train_step(&mut self, batch: &[(&[Vec<f32>], &[usize])], cfg: &TrainConfig) -> f32 {
        if batch.is_empty() {
            return 0.0;
        }
        let _span = thrubarrier_obs::span!("nn.train_step");
        for (xs, ys) in batch {
            assert_eq!(xs.len(), ys.len(), "sequence/label length mismatch");
        }
        for p in self.rnn.params_mut() {
            p.zero_grad();
        }
        for p in self.head.params_mut() {
            p.zero_grad();
        }
        let scale = 1.0 / batch.len() as f32;
        let seqs: Vec<&[Vec<f32>]> = batch.iter().map(|(xs, _)| *xs).collect();
        let fp = fingerprint_of(&seqs, self.rnn.fwd.input_size());
        if self.train_ws.len() >= MAX_TRAIN_WORKSPACES && !self.train_ws.contains_key(&fp) {
            self.train_ws.clear();
        }
        let total = {
            let BrnnClassifier {
                rnn,
                head,
                train_ws,
                scratch,
                head_wt,
                ..
            } = self;
            let ws = train_ws.entry(fp).or_default();
            let hs = rnn.forward_batch(&seqs, ws, scratch);
            let hl = rnn.hidden_size();
            let nc = head.output_size();
            let n_frames: usize = hs.iter().map(|s| s.len()).sum();
            let mut hs_flat = Vec::with_capacity(n_frames * hl);
            for seq in &hs {
                for h in seq {
                    hs_flat.extend_from_slice(h);
                }
            }
            let mut logits = Vec::new();
            head.forward_flat(&hs_flat, n_frames, &mut logits);
            // Per-frame loss with the same numerics as the sequential
            // path: each frame's gradient is divided by its sequence
            // length, then scaled by 1/B; per-sequence means are summed
            // in batch order.
            let mut total = 0.0f32;
            let mut dl_flat = vec![0.0f32; n_frames * nc];
            let mut row = 0usize;
            for (xs, ys) in batch {
                if xs.is_empty() {
                    continue;
                }
                let n = xs.len() as f32;
                let mut seq_total = 0.0f32;
                for &y in ys.iter() {
                    let (l, dl) = loss::softmax_cross_entropy(&logits[row * nc..(row + 1) * nc], y);
                    seq_total += l;
                    for (slot, d) in dl_flat[row * nc..(row + 1) * nc].iter_mut().zip(dl) {
                        *slot = (d / n) * scale;
                    }
                    row += 1;
                }
                total += seq_total / n;
            }
            let mut dh_flat = Vec::new();
            {
                let _bspan = thrubarrier_obs::span!("nn.train.backward");
                head.backward_flat_fused(&hs_flat, &dl_flat, n_frames, &mut dh_flat, head_wt);
                let mut dhs: Vec<&[f32]> = Vec::with_capacity(batch.len());
                let mut off = 0usize;
                for (xs, _) in batch {
                    dhs.push(&dh_flat[off * hl..(off + xs.len()) * hl]);
                    off += xs.len();
                }
                rnn.backward_batch(ws, &dhs, scratch);
            }
            total
        };
        self.step += 1;
        let step = self.step;
        for p in self.rnn.params_mut() {
            p.adam_step(&cfg.adam, step);
        }
        for p in self.head.params_mut() {
            p.adam_step(&cfg.adam, step);
        }
        total * scale
    }

    /// Per-frame argmax predictions for a whole batch of sequences
    /// through the packed-batch inference engine: the recurrent steps
    /// run as fused-FMA cross-utterance GEMMs into the workspace's flat
    /// packed hidden-state buffer, the head runs one flat GEMM straight
    /// over that buffer (no per-frame vectors are materialized
    /// anywhere), and the argmax labels are scattered back to caller
    /// order. Results agree with per-sequence
    /// [`BrnnClassifier::predict`] within fused-multiply-add rounding
    /// of the logits (so argmax labels can in principle differ on
    /// exactly tied frames, but not in practice).
    pub fn predict_batch(
        &self,
        seqs: &[&[Vec<f32>]],
        ws: &mut BatchWorkspace,
        scratch: &mut GemmScratch,
    ) -> Vec<Vec<usize>> {
        let mut logits = Vec::new();
        self.predict_batch_into(seqs, ws, scratch, &mut logits)
    }

    /// [`BrnnClassifier::predict_batch`] with a caller-owned flat logits
    /// buffer, so long-lived callers (the scoring service engine) reuse
    /// one allocation across drains instead of growing a fresh vector
    /// per batch. The buffer is cleared and refilled; its contents
    /// between calls are not meaningful to callers.
    pub fn predict_batch_into(
        &self,
        seqs: &[&[Vec<f32>]],
        ws: &mut BatchWorkspace,
        scratch: &mut GemmScratch,
        logits: &mut Vec<f32>,
    ) -> Vec<Vec<usize>> {
        let _span = thrubarrier_obs::span!("nn.predict_batch");
        self.rnn.hidden_states_batch_flat(seqs, ws, scratch);
        let nc = self.head.output_size();
        let pack = &ws.pack;
        self.head.forward_flat(&ws.flat, pack.total_rows(), logits);
        let mut out: Vec<Vec<usize>> = seqs.iter().map(|s| Vec::with_capacity(s.len())).collect();
        for (b, (&i, &len)) in pack.order().iter().zip(pack.lens()).enumerate() {
            out[i].extend((0..len).map(|t| {
                let row = pack.offset(t) + b;
                logits[row * nc..(row + 1) * nc]
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
                    .map(|(c, _)| c)
                    .unwrap_or(0)
            }));
        }
        out
    }

    /// The eight parameter matrices in serialization order:
    /// forward LSTM (W, U, b), backward LSTM (W, U, b), head (W, b).
    pub(crate) fn parameter_matrices(&self) -> Vec<&crate::matrix::Matrix> {
        vec![
            &self.rnn.fwd.w.value,
            &self.rnn.fwd.u.value,
            &self.rnn.fwd.b.value,
            &self.rnn.bwd.w.value,
            &self.rnn.bwd.u.value,
            &self.rnn.bwd.b.value,
            &self.head.w.value,
            &self.head.b.value,
        ]
    }

    /// Rebuilds a classifier from matrices in serialization order.
    pub(crate) fn from_parameter_matrices(
        mats: Vec<crate::matrix::Matrix>,
    ) -> Result<Self, String> {
        let [fw, fu, fb, bw, bu, bb, hw, hb]: [crate::matrix::Matrix; 8] = mats
            .try_into()
            .map_err(|_| "expected exactly 8 matrices".to_string())?;
        let fwd = crate::lstm::Lstm::from_weights(fw, fu, fb)?;
        let bwd = crate::lstm::Lstm::from_weights(bw, bu, bb)?;
        if fwd.hidden_size() != bwd.hidden_size() || fwd.input_size() != bwd.input_size() {
            return Err("forward/backward direction shapes disagree".into());
        }
        let head = crate::dense::Dense::from_weights(hw, hb)?;
        if head.input_size() != fwd.hidden_size() {
            return Err("head input does not match hidden size".into());
        }
        Ok(BrnnClassifier {
            rnn: crate::lstm::BiLstm { fwd, bwd },
            head,
            step: 0,
            train_ws: HashMap::new(),
            scratch: GemmScratch::new(),
            head_wt: TransposedCache::new(),
        })
    }

    /// Frame-level accuracy over a labelled set of sequences.
    pub fn accuracy(&self, data: &[(Vec<Vec<f32>>, Vec<usize>)]) -> f32 {
        let mut correct = 0usize;
        let mut total = 0usize;
        let mut scratch = GemmScratch::new();
        for (xs, ys) in data {
            let preds = self.predict_with_scratch(xs, &mut scratch);
            correct += preds.iter().zip(ys).filter(|(p, y)| p == y).count();
            total += ys.len();
        }
        if total == 0 {
            0.0
        } else {
            correct as f32 / total as f32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Test-only reference training step the batched fused engine is
    /// held to.
    impl BrnnClassifier {
        /// The pre-minibatch reference implementation of
        /// [`BrnnClassifier::train_step`]: one sequence at a time through
        /// the per-utterance engine.
        fn train_step_sequential(
            &mut self,
            batch: &[(&[Vec<f32>], &[usize])],
            cfg: &TrainConfig,
        ) -> f32 {
            if batch.is_empty() {
                return 0.0;
            }
            for p in self.rnn.params_mut() {
                p.zero_grad();
            }
            for p in self.head.params_mut() {
                p.zero_grad();
            }
            let mut total = 0.0f32;
            let scale = 1.0 / batch.len() as f32;
            let mut scratch = GemmScratch::new();
            for (xs, ys) in batch {
                assert_eq!(xs.len(), ys.len(), "sequence/label length mismatch");
                if xs.is_empty() {
                    continue;
                }
                let (hs, rnn_cache) = self.rnn.forward_with_scratch(xs, &mut scratch);
                let (logits, head_cache) = self.head.forward(&hs);
                let (l, mut dlogits) = loss::sequence_cross_entropy(&logits, ys);
                total += l;
                for frame in &mut dlogits {
                    for d in frame {
                        *d *= scale;
                    }
                }
                let dhs = self.head.backward(&head_cache, &dlogits);
                self.rnn
                    .backward_with_scratch(&rnn_cache, &dhs, &mut scratch);
            }
            self.step += 1;
            let step = self.step;
            for p in self.rnn.params_mut() {
                p.adam_step(&cfg.adam, step);
            }
            for p in self.head.params_mut() {
                p.adam_step(&cfg.adam, step);
            }
            total * scale
        }
    }

    /// Sequences where the label of each frame is decided by feature 0 of
    /// that frame — learnable without temporal context.
    fn framewise_dataset(n: usize, t_len: usize, seed: u64) -> Vec<(Vec<Vec<f32>>, Vec<usize>)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let mut xs = Vec::with_capacity(t_len);
                let mut ys = Vec::with_capacity(t_len);
                for _ in 0..t_len {
                    let cls = rng.gen_bool(0.5) as usize;
                    let base = if cls == 1 { 0.8 } else { -0.8 };
                    xs.push(vec![
                        base + rng.gen_range(-0.2..0.2),
                        rng.gen_range(-1.0..1.0),
                        rng.gen_range(-1.0..1.0),
                    ]);
                    ys.push(cls);
                }
                (xs, ys)
            })
            .collect()
    }

    #[test]
    fn training_reduces_loss_and_reaches_high_accuracy() {
        let mut rng = StdRng::seed_from_u64(100);
        let mut model = BrnnClassifier::new(3, 8, 2, &mut rng);
        let data = framewise_dataset(16, 10, 101);
        let cfg = TrainConfig {
            adam: crate::param::AdamConfig {
                lr: 0.01,
                ..Default::default()
            },
        };
        let batch: Vec<(&[Vec<f32>], &[usize])> = data
            .iter()
            .map(|(x, y)| (x.as_slice(), y.as_slice()))
            .collect();
        let first = model.train_step(&batch, &cfg);
        let mut last = first;
        for _ in 0..80 {
            last = model.train_step(&batch, &cfg);
        }
        assert!(last < first * 0.5, "loss {first} -> {last}");
        let test = framewise_dataset(8, 10, 202);
        assert!(model.accuracy(&test) > 0.9, "acc {}", model.accuracy(&test));
    }

    #[test]
    fn learns_temporal_pattern_requiring_context() {
        // Label of every frame = whether the *sequence* contains a spike
        // anywhere; only a bidirectional/recurrent model can label early
        // frames correctly.
        let mut rng = StdRng::seed_from_u64(7);
        let mut data: Vec<(Vec<Vec<f32>>, Vec<usize>)> = Vec::new();
        for i in 0..24 {
            let spike = i % 2 == 0;
            let t_len = 8;
            let mut xs = vec![vec![0.0f32, 0.1]; t_len];
            if spike {
                xs[t_len - 2][0] = 1.0; // late spike
            }
            let ys = vec![spike as usize; t_len];
            data.push((xs, ys));
        }
        let mut model = BrnnClassifier::new(2, 8, 2, &mut rng);
        let cfg = TrainConfig {
            adam: crate::param::AdamConfig {
                lr: 0.02,
                ..Default::default()
            },
        };
        let batch: Vec<(&[Vec<f32>], &[usize])> = data
            .iter()
            .map(|(x, y)| (x.as_slice(), y.as_slice()))
            .collect();
        for _ in 0..150 {
            model.train_step(&batch, &cfg);
        }
        // Accuracy must be high *including the early frames*, which
        // requires propagating the late spike backwards.
        assert!(
            model.accuracy(&data) > 0.95,
            "acc {}",
            model.accuracy(&data)
        );
    }

    #[test]
    fn empty_batch_is_noop() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut model = BrnnClassifier::new(2, 4, 2, &mut rng);
        assert_eq!(model.train_step(&[], &TrainConfig::default()), 0.0);
        assert_eq!(model.steps_taken(), 0);
    }

    #[test]
    fn predictions_have_sequence_length() {
        let mut rng = StdRng::seed_from_u64(1);
        let model = BrnnClassifier::new(2, 4, 3, &mut rng);
        let xs = vec![vec![0.0, 0.0]; 5];
        assert_eq!(model.predict(&xs).len(), 5);
        let probs = model.predict_proba(&xs);
        assert!(probs
            .iter()
            .all(|p| (p.iter().sum::<f32>() - 1.0).abs() < 1e-5));
    }

    #[test]
    fn accuracy_of_empty_set_is_zero() {
        let mut rng = StdRng::seed_from_u64(1);
        let model = BrnnClassifier::new(2, 4, 2, &mut rng);
        assert_eq!(model.accuracy(&[]), 0.0);
    }

    #[test]
    fn batched_train_step_matches_sequential_loss_trajectory() {
        // Same seed, same data: the batched fused engine must follow the
        // sequential reference. The first step's loss is computed before
        // any backward pass runs, so it is bitwise identical at a wide
        // hidden size; later losses see parameters updated through the
        // fused gradients, whose only divergence from the reference is
        // fma rounding in the gate GEMMs and the tiled accumulations —
        // documented tolerance 1e-4 relative per step. (Fused-vs-unfused
        // backward parity is tested per layer in `lstm`, `gru` and
        // `dense`.)
        let mut rng = StdRng::seed_from_u64(301);
        let base = BrnnClassifier::new(3, 32, 2, &mut rng);
        let data = framewise_dataset(6, 7, 302);
        let batch: Vec<(&[Vec<f32>], &[usize])> = data
            .iter()
            .map(|(x, y)| (x.as_slice(), y.as_slice()))
            .collect();
        let cfg = TrainConfig::default();
        let mut seq_model = base.clone();
        let mut bat_model = base.clone();
        let first_seq = seq_model.train_step_sequential(&batch, &cfg);
        let first_bat = bat_model.train_step(&batch, &cfg);
        assert_eq!(first_seq.to_bits(), first_bat.to_bits());
        let mut last = first_bat;
        for step in 0..8 {
            let ls = seq_model.train_step_sequential(&batch, &cfg);
            last = bat_model.train_step(&batch, &cfg);
            assert!(
                (ls - last).abs() < 1e-4 * ls.abs().max(1.0),
                "step {step}: sequential {ls} vs batched {last}"
            );
        }
        // Both runs must actually be learning, not just agreeing.
        assert!(last < first_bat, "loss {first_bat} -> {last}");
    }

    #[test]
    fn batched_training_handles_mixed_lengths_and_reaches_high_accuracy() {
        let mut rng = StdRng::seed_from_u64(310);
        let mut model = BrnnClassifier::new(3, 8, 2, &mut rng);
        let mut data = framewise_dataset(8, 10, 311);
        data.extend(framewise_dataset(4, 4, 312));
        data.extend(framewise_dataset(4, 7, 313));
        let cfg = TrainConfig {
            adam: crate::param::AdamConfig {
                lr: 0.01,
                ..Default::default()
            },
        };
        let batch: Vec<(&[Vec<f32>], &[usize])> = data
            .iter()
            .map(|(x, y)| (x.as_slice(), y.as_slice()))
            .collect();
        let first = model.train_step(&batch, &cfg);
        let mut last = first;
        for _ in 0..80 {
            last = model.train_step(&batch, &cfg);
        }
        assert!(last < first * 0.5, "loss {first} -> {last}");
        assert_eq!(model.train_ws.len(), 1, "one cached workspace per batch");
        let test = framewise_dataset(8, 10, 404);
        assert!(model.accuracy(&test) > 0.9, "acc {}", model.accuracy(&test));
    }

    #[test]
    fn predict_batch_matches_per_sequence_predict() {
        let mut rng = StdRng::seed_from_u64(320);
        let model = BrnnClassifier::new(3, 32, 2, &mut rng);
        let mut data = framewise_dataset(3, 9, 321);
        data.extend(framewise_dataset(2, 4, 322));
        let seqs: Vec<&[Vec<f32>]> = data.iter().map(|(x, _)| x.as_slice()).collect();
        let mut ws = BatchWorkspace::new();
        let mut scratch = GemmScratch::new();
        let batched = model.predict_batch(&seqs, &mut ws, &mut scratch);
        for (i, (xs, _)) in data.iter().enumerate() {
            assert_eq!(batched[i], model.predict(xs), "seq {i}");
        }
    }

    #[test]
    fn workspace_cache_is_bounded() {
        let mut rng = StdRng::seed_from_u64(330);
        let mut model = BrnnClassifier::new(2, 4, 2, &mut rng);
        let cfg = TrainConfig::default();
        for i in 0..(MAX_TRAIN_WORKSPACES + 3) {
            let xs = vec![vec![i as f32, 0.5]; 3];
            let ys = vec![0usize; 3];
            model.train_step(&[(&xs, &ys)], &cfg);
            assert!(model.train_ws.len() <= MAX_TRAIN_WORKSPACES);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// One batched `train_step` reaches the same loss as the
        /// sequential reference path when both start from identical
        /// weights (fixed seed) and see the same minibatch of
        /// B ∈ {1, 2, 5, 8} sequences of independently drawn lengths.
        #[test]
        fn batched_train_step_loss_matches_sequential(
            size in 0usize..4,
            lens in prop::collection::vec(1usize..12, 8),
            seed in 0u64..1000,
        ) {
            let b = [1usize, 2, 5, 8][size];
            let mut data_rng = StdRng::seed_from_u64(seed ^ 0xDA7A);
            let seqs: Vec<Vec<Vec<f32>>> = lens[..b]
                .iter()
                .map(|&len| {
                    (0..len)
                        .map(|_| (0..3).map(|_| data_rng.gen_range(-1.0..1.0)).collect())
                        .collect()
                })
                .collect();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut seq_model = BrnnClassifier::new(3, 5, 2, &mut rng);
            let mut bat_model = seq_model.clone();
            let labels: Vec<Vec<usize>> = seqs
                .iter()
                .map(|s| (0..s.len()).map(|t| t % 2).collect())
                .collect();
            let pairs: Vec<(&[Vec<f32>], &[usize])> = seqs
                .iter()
                .zip(&labels)
                .map(|(s, y)| (s.as_slice(), y.as_slice()))
                .collect();
            let cfg = TrainConfig::default();
            let seq_loss = seq_model.train_step_sequential(&pairs, &cfg);
            let bat_loss = bat_model.train_step(&pairs, &cfg);
            prop_assert!(
                (seq_loss - bat_loss).abs() <= 1e-5 * seq_loss.abs().max(bat_loss.abs()).max(1.0),
                "sequential {} vs batched {}",
                seq_loss,
                bat_loss
            );
        }
    }
}
