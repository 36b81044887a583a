//! The pieces every workload shares: the calibration (offline phase),
//! recording-pair generation, and the Full/baseline scoring path
//! composed from each layer's public calls so the traced run can put a
//! span around every call.
//!
//! The composition mirrors how `DefenseSystem::score_with_method` calls
//! these pieces; the traced run checks that it stays bitwise equal to
//! the real thing on every pair it scores.

use crate::trace::{count, span};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use thrubarrier_attack::AttackKind;
use thrubarrier_defense::features::VibrationFeatureExtractor;
use thrubarrier_defense::segmentation::{
    extract_selected_samples, DetectorTrainConfig, PhonemeDetector,
};
use thrubarrier_defense::selection::{run_selection, SelectionConfig};
use thrubarrier_defense::{sync, DefenseMethod, DefenseSystem};
use thrubarrier_dsp::AudioBuffer;
use thrubarrier_eval::experiments::common::standard_settings;
use thrubarrier_eval::scenario::AUDIO_RATE;
use thrubarrier_eval::TrialGenerator;
use thrubarrier_phoneme::command::CommandBank;
use thrubarrier_phoneme::corpus::{speaker_panel, training_corpus, LabelledUtterance};
use thrubarrier_phoneme::inventory::PhonemeId;
use thrubarrier_phoneme::speaker::SpeakerProfile;
use thrubarrier_phoneme::synth::Synthesizer;
use thrubarrier_vibration::Wearable;

/// Seed of the deployed calibration: the detector every workload's
/// online path uses, and the calibration whose frame accuracy is
/// reported. Fixed, so accuracy is a property of the code, not of the
/// run's seed.
pub const CALIBRATION_SEED: u64 = 0xCA11_B8A7;

/// Seed of the held-out corpus the calibrated detector is scored on.
pub const HELDOUT_CORPUS_SEED: u64 = 0x4E1D_0C07;

/// Seed of the fixed accuracy probes (guard pairs, sweep, acceptance
/// pairs).
pub const PROBE_SEED: u64 = 0x9808_E5EE;

/// Utterances in the held-out corpus.
pub const HELDOUT_UTTERANCES: usize = 40;

/// The BRNN configuration `repro fig9`/`fig10` train: corpus 80, 3
/// epochs, 48 hidden units per direction.
pub const TRAIN: DetectorTrainConfig = DetectorTrainConfig {
    hidden_size: 48,
    epochs: 3,
    batch_size: 8,
    learning_rate: 3e-3,
};

/// Utterances in the training corpus.
pub const CORPUS_SIZE: usize = 80;

/// Derives an independent stream seed from a base seed and a tag.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The held-out labelled corpus: its own speakers, its own utterances.
pub fn heldout_corpus() -> Vec<LabelledUtterance> {
    let _s = span("heldout");
    let mut rng = StdRng::seed_from_u64(HELDOUT_CORPUS_SEED);
    let panel = speaker_panel(3, 3, &mut rng);
    let synth = Synthesizer::new(AUDIO_RATE);
    training_corpus(&synth, HELDOUT_UTTERANCES, &panel, &mut rng)
}

/// What one calibration produces.
#[derive(Debug, Clone)]
pub struct Calibration {
    /// The trained segment selector.
    pub detector: PhonemeDetector,
    /// Selected sensitive phonemes, sorted.
    pub selected: Vec<PhonemeId>,
    /// Their symbols (what the eval runner reports).
    pub symbols: Vec<&'static str>,
    /// Frame accuracy on the held-out corpus.
    pub frame_accuracy: f32,
}

impl Calibration {
    /// Bit-level fingerprint: selection, weights and accuracy. Two
    /// calibrations from one seed must agree on it.
    pub fn fingerprint(&self) -> u64 {
        let mut bytes = Vec::new();
        self.detector
            .save(&mut bytes)
            .expect("writing to memory cannot fail");
        let mut h = crate::host::fnv1a(&bytes, crate::host::FNV_BASIS);
        for id in &self.selected {
            h = crate::host::fnv1a(&(id.0 as u64).to_le_bytes(), h);
        }
        crate::host::fnv1a(&self.frame_accuracy.to_bits().to_le_bytes(), h)
    }
}

/// The offline phase, as the eval runner's `build_selector` runs it:
/// speaker panel, phoneme selection, training corpus, BRNN training;
/// then frame accuracy on the held-out corpus.
pub fn calibrate(seed: u64, heldout: &[LabelledUtterance]) -> Calibration {
    let _root = span("calibrate");
    count("calibrations", 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let panel = speaker_panel(3, 3, &mut rng);
    let selection = {
        let _s = span("defense.selection");
        run_selection(
            &SelectionConfig::default(),
            &Wearable::fossil_gen_5(),
            &panel,
            &mut rng,
        )
    };
    let mut selected = selection.selected_ids();
    selected.sort_unstable_by_key(|p| p.0);
    let sensitive: HashSet<PhonemeId> = selected.iter().copied().collect();
    let corpus = {
        let _s = span("phoneme.corpus");
        let synth = Synthesizer::new(AUDIO_RATE);
        training_corpus(&synth, CORPUS_SIZE, &panel, &mut rng)
    };
    let detector = {
        let _s = span("nn.train");
        PhonemeDetector::train(&sensitive, &corpus, &TRAIN, &mut rng)
    };
    let frame_accuracy = {
        let _s = span("nn.eval");
        detector.frame_accuracy(heldout)
    };
    let per_epoch: usize = corpus
        .iter()
        .map(|u| mfcc_frames(&detector, u.utterance.audio.len()))
        .sum();
    count("nn.train.frames", (per_epoch * TRAIN.epochs) as u64);
    Calibration {
        selected,
        symbols: selection.selected_symbols(),
        frame_accuracy,
        detector,
    }
}

/// MFCC frames the detector's front-end makes of `len` samples.
fn mfcc_frames(det: &PhonemeDetector, len: usize) -> usize {
    let (frame, hop) = (det.mfcc().frame_len(), det.mfcc().hop());
    if len < frame {
        1
    } else {
        (len - frame) / hop + 1
    }
}

/// One recording pair the defense judges.
#[derive(Debug, Clone)]
pub struct Pair {
    /// What the voice assistant recorded.
    pub va: AudioBuffer,
    /// What the wearable recorded.
    pub wearable: AudioBuffer,
    /// Ground truth.
    pub is_attack: bool,
    /// Seed of the scoring RNG for this pair.
    pub score_seed: u64,
}

/// Generates `n` distinct recording pairs from `seed`: alternately
/// legitimate and attack, attacks cycling over the four attack kinds,
/// all pairs cycling over the command bank and the standard settings
/// (four rooms × three user distances × three attack levels). The seed
/// draws a fresh victim and adversary voice for every pair, the room
/// physics and the noise.
pub fn make_pairs(seed: u64, n: usize) -> Vec<Pair> {
    let _root = span("pairs");
    let generator = TrialGenerator::new();
    let bank = CommandBank::standard();
    let settings = standard_settings();
    let kinds = AttackKind::all();
    (0..n)
        .map(|i| {
            count("trials_built", 1);
            let mut rng = StdRng::seed_from_u64(mix(seed, i as u64));
            // Every set walks the command bank in order, so command
            // lengths — what a verdict's cost scales with — are spread
            // the same way whatever the seed.
            let cmd = &bank.commands()[(i / 2) % bank.len()];
            let setting = &settings[(i / 2) % settings.len()];
            // A voice's speaking rate sets its recordings' lengths, which
            // a verdict's cost steps with: a voice per pair keeps the mix
            // of lengths alike from seed to seed.
            let victim = SpeakerProfile::random(&mut rng);
            let trial = if i % 2 == 0 {
                let utterance = {
                    let _s = span("phoneme.synth");
                    generator.utterance_audio(cmd, &victim, &mut rng)
                };
                let _s = span("eval.build.legit");
                generator.legitimate_with_utterance(&utterance, setting, &mut rng)
            } else {
                let adversary = SpeakerProfile::random(&mut rng);
                let _s = span("eval.build.attack");
                generator.attack(
                    kinds[(i / 2) % 4],
                    cmd,
                    &victim,
                    &adversary,
                    setting,
                    &mut rng,
                )
            };
            Pair {
                va: trial.va_recording,
                wearable: trial.wearable_recording,
                is_attack: trial.is_attack,
                score_seed: rng.gen(),
            }
        })
        .collect()
}

/// Fingerprint of a pair set's audio (repeatability check).
pub fn pairs_fingerprint(pairs: &[Pair]) -> u64 {
    let mut h = crate::host::FNV_BASIS;
    for p in pairs {
        for s in p.va.samples().iter().chain(p.wearable.samples()) {
            h = crate::host::fnv1a(&s.to_bits().to_le_bytes(), h);
        }
        h = crate::host::fnv1a(&p.score_seed.to_le_bytes(), h);
    }
    h
}

/// Segmentation through the detector's public pieces: MFCC front-end,
/// then BRNN prediction — what `PhonemeDetector::sensitive_frames` does.
pub fn segment(det: &PhonemeDetector, audio: &[f32]) -> Vec<bool> {
    let _s = span("defense.segment");
    let feats = {
        let _s = span("dsp.mfcc");
        det.mfcc().extract(audio)
    };
    let _s = span("nn.infer");
    det.model()
        .predict(&feats)
        .into_iter()
        .map(|c| c == 1)
        .collect()
}

/// `DefenseSystem::score_with_method` composed from public calls, one
/// span per layer call; the glue between them is `defense.score` self
/// time. For [`DefenseMethod::Full`], `mask` is a precomputed
/// sensitive-frame mask (batched segmentation) or `None` to segment
/// here with `det`.
pub fn composed_score<R: Rng + ?Sized>(
    sys: &DefenseSystem,
    det: &PhonemeDetector,
    method: DefenseMethod,
    pair: (&AudioBuffer, &AudioBuffer),
    mask: Option<&[bool]>,
    rng: &mut R,
) -> f32 {
    let (va, wearable) = pair;
    let _root = span("defense.score");
    if va.is_empty() || wearable.is_empty() {
        return 0.0;
    }
    count("defense.scores", 1);
    let aligned = if sys.synchronize {
        let synced = {
            let _s = span("defense.sync");
            count("defense.sync.calls", 1);
            sync::synchronize(va, wearable, sys.max_sync_delay_s)
        };
        match synced {
            Ok((aligned, _delay)) => aligned,
            Err(_) => {
                count("defense.sync.failed", 1);
                return 0.0;
            }
        }
    } else {
        wearable.clone()
    };
    let fs = va.sample_rate();
    match method {
        DefenseMethod::AudioBaseline => {
            let (a, b) = {
                let _s = span("defense.features");
                (
                    VibrationFeatureExtractor::extract_audio_baseline(va),
                    VibrationFeatureExtractor::extract_audio_baseline(&aligned),
                )
            };
            let _s = span("defense.correlate");
            sys.detector.score(&a, &b)
        }
        DefenseMethod::VibrationBaseline => {
            vibration_score(sys, va.samples(), aligned.samples(), fs, rng)
        }
        DefenseMethod::Full => {
            count("defense.full", 1);
            let own;
            let mask = match mask {
                Some(m) => m,
                None => {
                    own = segment(det, va.samples());
                    &own
                }
            };
            count("defense.segment.frames", mask.len() as u64);
            count(
                "defense.segment.selected",
                mask.iter().filter(|&&m| m).count() as u64,
            );
            let (frame_len, hop) = (400, 160);
            let va_sel = extract_selected_samples(va.samples(), mask, frame_len, hop);
            let w_sel = extract_selected_samples(aligned.samples(), mask, frame_len, hop);
            if (va_sel.len() as f32) < sys.min_selected_s * fs as f32 {
                count("defense.insufficient", 1);
                return 0.0;
            }
            vibration_score(sys, &va_sel, &w_sel, fs, rng)
        }
    }
}

/// Replay normalisation, pair conversion, features and correlation.
fn vibration_score<R: Rng + ?Sized>(
    sys: &DefenseSystem,
    va_audio: &[f32],
    wearable_audio: &[f32],
    fs: u32,
    rng: &mut R,
) -> f32 {
    let normalize = |sig: &[f32]| -> Vec<f32> {
        let rms = thrubarrier_dsp::stats::rms(sig);
        if rms <= 0.0 || !sys.normalize_replay {
            return sig.to_vec();
        }
        let g = DefenseSystem::REPLAY_RMS / rms;
        sig.iter().map(|&x| x * g).collect()
    };
    let va_replay = normalize(va_audio);
    let w_replay = normalize(wearable_audio);
    let (vib_va, vib_w) = {
        let _s = span("vibration.convert_pair");
        thrubarrier_vibration::with_engine(|e| {
            e.convert_pair(&sys.wearable, &va_replay, &w_replay, fs, rng)
        })
    };
    let (fa, fb) = {
        let _s = span("defense.features");
        (sys.features.extract(&vib_va), sys.features.extract(&vib_w))
    };
    let _s = span("defense.correlate");
    sys.detector.score(&fa, &fb)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_separates_tags_and_seeds() {
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_ne!(mix(1, 0), mix(2, 0));
        assert_eq!(mix(9, 4), mix(9, 4));
    }
}
