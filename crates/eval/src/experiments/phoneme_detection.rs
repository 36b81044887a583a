//! Sec. V-B study: BRNN phoneme-detection accuracy on phoneme segments
//! that did / did not pass the barrier (paper: 94 % / 91 %).

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use thrubarrier_acoustics::loudspeaker::Loudspeaker;
use thrubarrier_acoustics::mic::Microphone;
use thrubarrier_acoustics::propagation::speech_gain_for_spl;
use thrubarrier_acoustics::room::{Room, RoomId};
use thrubarrier_acoustics::scene::AcousticPath;
use thrubarrier_defense::segmentation::{DetectorTrainConfig, PhonemeDetector, SegmentSelector};
use thrubarrier_defense::selection::{run_selection, SelectionConfig};
use thrubarrier_phoneme::common::common_phonemes;
use thrubarrier_phoneme::corpus::{phoneme_samples, speaker_panel, training_corpus};
use thrubarrier_phoneme::inventory::PhonemeId;
use thrubarrier_phoneme::synth::Synthesizer;
use thrubarrier_vibration::Wearable;

/// Configuration for the detection-accuracy study.
#[derive(Debug, Clone)]
pub struct DetectionAccuracyConfig {
    /// Master seed.
    pub seed: u64,
    /// Segments per phoneme (paper: 100, i.e. 6 300 total with 63
    /// phonemes; we evaluate the 37 common ones).
    pub samples_per_phoneme: usize,
    /// Training corpus size (utterances).
    pub corpus_size: usize,
    /// BRNN training epochs.
    pub epochs: usize,
    /// LSTM units per direction (paper: 64).
    pub hidden: usize,
}

impl Default for DetectionAccuracyConfig {
    fn default() -> Self {
        DetectionAccuracyConfig {
            seed: 0x5EB,
            samples_per_phoneme: 12,
            corpus_size: 80,
            epochs: 3,
            hidden: 48,
        }
    }
}

/// Result of the study.
#[derive(Debug, Clone)]
pub struct DetectionAccuracy {
    /// Segment-level accuracy without a barrier.
    pub accuracy_clear: f32,
    /// Segment-level accuracy through the barrier.
    pub accuracy_barrier: f32,
    /// Segments evaluated per condition.
    pub n_segments: usize,
    /// Number of phonemes the detector treats as sensitive.
    pub n_sensitive: usize,
}

/// Runs the study: trains the BRNN as the pipeline does, then classifies
/// propagated phoneme segments in both conditions.
pub fn run(cfg: &DetectionAccuracyConfig) -> DetectionAccuracy {
    let fs = 16_000u32;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let panel = speaker_panel(5, 5, &mut rng);
    let synth = Synthesizer::new(fs);

    // Offline selection fixes the label set.
    let selection = run_selection(
        &SelectionConfig::default(),
        &Wearable::fossil_gen_5(),
        &panel,
        &mut rng,
    );
    let sensitive: HashSet<PhonemeId> = selection.selected_ids().into_iter().collect();

    // Train.
    let corpus = training_corpus(&synth, cfg.corpus_size, &panel, &mut rng);
    let train_cfg = DetectorTrainConfig {
        hidden_size: cfg.hidden,
        epochs: cfg.epochs,
        ..Default::default()
    };
    let detector = PhonemeDetector::train(&sensitive, &corpus, &train_cfg, &mut rng);

    // Evaluate on propagated phoneme segments.
    let room = Room::paper_room(RoomId::A);
    let mic = Microphone::wearable();
    let speaker_device = Loudspeaker::sound_bar();
    let gain = speech_gain_for_spl(75.0);
    let mut n = 0usize;
    let mut correct_clear = 0usize;
    let mut correct_barrier = 0usize;
    for common in common_phonemes() {
        let truth = sensitive.contains(&common.id);
        let sounds = phoneme_samples(&synth, common.id, cfg.samples_per_phoneme, &panel, &mut rng);
        for s in &sounds {
            let calibrated: Vec<f32> = s.iter().map(|&x| x * gain).collect();
            // The paper drops segments whose recorded magnitude is too
            // low to trigger the VA at all.
            let clear_path = AcousticPath {
                room: room.clone(),
                through_barrier: false,
                distance_m: 2.0,
                loudspeaker: Some(speaker_device),
            };
            let barrier_path = AcousticPath {
                room: room.clone(),
                through_barrier: true,
                distance_m: 2.0,
                loudspeaker: Some(speaker_device),
            };
            let clear = clear_path.record(&calibrated, fs, &mic, &mut rng);
            let through = barrier_path.record(&calibrated, fs, &mic, &mut rng);
            n += 1;
            if classify_segment(&detector, clear.samples()) == truth {
                correct_clear += 1;
            }
            if classify_segment(&detector, through.samples()) == truth {
                correct_barrier += 1;
            }
        }
    }
    DetectionAccuracy {
        accuracy_clear: correct_clear as f32 / n.max(1) as f32,
        accuracy_barrier: correct_barrier as f32 / n.max(1) as f32,
        n_segments: n,
        n_sensitive: sensitive.len(),
    }
}

/// Majority vote over the detector's frame decisions.
fn classify_segment(detector: &PhonemeDetector, audio: &[f32]) -> bool {
    let mask = detector.sensitive_frames(audio, 16_000);
    if mask.is_empty() {
        return false;
    }
    mask.iter().filter(|&&m| m).count() * 2 > mask.len()
}

impl DetectionAccuracy {
    /// Renders the study summary.
    pub fn render_text(&self) -> String {
        format!(
            "Phoneme detection accuracy (Sec. V-B; paper: 94% clear / 91% barrier)\n\
             segments per condition: {}\nsensitive phonemes: {}\n\
             accuracy without barrier: {:.1}%\naccuracy through barrier:  {:.1}%\n",
            self.n_segments,
            self.n_sensitive,
            self.accuracy_clear * 100.0,
            self.accuracy_barrier * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracies_are_high_and_barrier_is_not_better() {
        let result = run(&DetectionAccuracyConfig {
            samples_per_phoneme: 4,
            corpus_size: 40,
            epochs: 2,
            hidden: 24,
            ..Default::default()
        });
        assert!(
            result.accuracy_clear > 0.75,
            "clear {}",
            result.accuracy_clear
        );
        assert!(
            result.accuracy_barrier > 0.6,
            "barrier {}",
            result.accuracy_barrier
        );
        assert!(result.render_text().contains("accuracy"));
    }
}
