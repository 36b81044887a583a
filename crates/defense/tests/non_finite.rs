//! Non-finite samples at the defense boundary.
//!
//! One NaN in the VA recording, or one +Inf in the wearable recording,
//! of an otherwise accepted legitimate pair makes every method reject
//! it with a score in `[0, 1]` that is never NaN — with the default
//! energy selector and with a trained BRNN phoneme detector alike.
//! Almost every such score is exactly `0.0`; the few that are not are
//! pinned bit for bit below. Where the sample sits matters: the
//! selectors skip the frames it poisons, so the full method can still
//! compare the rest of a misaligned pair, and a sample in the last
//! frame falls outside the audio baseline's spectrogram.
//!
//! The spectral kernels are only bitwise-specified on finite input, so
//! this pins the verdicts on non-finite input independently of them.

use std::collections::HashSet;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use thrubarrier_acoustics::mic::Microphone;
use thrubarrier_acoustics::propagation::speech_gain_for_spl;
use thrubarrier_acoustics::room::{Room, RoomId};
use thrubarrier_acoustics::scene::AcousticPath;
use thrubarrier_defense::segmentation::{DetectorTrainConfig, PhonemeDetector};
use thrubarrier_defense::sync;
use thrubarrier_defense::{DefenseMethod, DefenseSystem};
use thrubarrier_dsp::AudioBuffer;
use thrubarrier_phoneme::command::CommandBank;
use thrubarrier_phoneme::corpus::{speaker_panel, training_corpus};
use thrubarrier_phoneme::inventory::Inventory;
use thrubarrier_phoneme::speaker::SpeakerProfile;
use thrubarrier_phoneme::synth::Synthesizer;
use thrubarrier_vibration::Wearable;

const FS: u32 = 16_000;

/// A legitimate recording pair: the user speaks a command inside the
/// room, the VA device records it at 2 m, the wrist-worn wearable at
/// 0.3 m and late by the WiFi trigger delay.
fn legitimate_pair(seed: u64) -> (AudioBuffer, AudioBuffer) {
    let mut rng = StdRng::seed_from_u64(seed);
    let speaker = SpeakerProfile::random(&mut rng);
    let bank = CommandBank::standard();
    let utterance =
        Synthesizer::new(FS).synthesize_command(&bank.commands()[0], &speaker, &mut rng);
    let gain = speech_gain_for_spl(70.0);
    let source: Vec<f32> = utterance
        .audio
        .samples()
        .iter()
        .map(|&v| v * gain)
        .collect();
    let room = Room::paper_room(RoomId::A);
    let va =
        AcousticPath::direct(room.clone(), 2.0).record(&source, FS, &Microphone::phone(), &mut rng);
    let wearable_full =
        AcousticPath::direct(room, 0.3).record(&source, FS, &Microphone::wearable(), &mut rng);
    let delay = sync::random_network_delay(&mut rng);
    (va, sync::apply_trigger_delay(&wearable_full, delay))
}

/// A small BRNN phoneme detector, trained the way the segmentation unit
/// tests train theirs.
fn trained_detector() -> PhonemeDetector {
    let mut rng = StdRng::seed_from_u64(12);
    let panel = speaker_panel(1, 1, &mut rng);
    let corpus = training_corpus(&Synthesizer::new(FS), 4, &panel, &mut rng);
    let sensitive: HashSet<_> = ["ih", "t", "n", "eh"]
        .iter()
        .filter_map(|s| Inventory::by_symbol(s))
        .collect();
    let cfg = DetectorTrainConfig {
        hidden_size: 8,
        epochs: 1,
        batch_size: 4,
        learning_rate: 3e-3,
    };
    PhonemeDetector::train(&sensitive, &corpus, &cfg, &mut rng)
}

fn with_sample(buf: &AudioBuffer, at: usize, value: f32) -> AudioBuffer {
    let mut samples = buf.samples().to_vec();
    samples[at] = value;
    AudioBuffer::new(samples, buf.sample_rate())
}

/// Where the non-finite sample goes, as a fraction of the recording.
const POSITIONS: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

/// Scores every method on the legitimate pair with one non-finite
/// sample injected at each of [`POSITIONS`]; asserts every score is a
/// finite reject in `[0, 1]` and returns the (case, method, score)
/// triples that are not exactly `0.0`.
fn nonzero_rejections(system: &DefenseSystem, label: &str) -> Vec<(String, DefenseMethod, f32)> {
    let (va, wearable) = legitimate_pair(42);
    // The clean pair is accepted, so every reject below comes from the
    // injected sample.
    for method in DefenseMethod::all() {
        let s = system.score_with_method(method, &va, &wearable, &mut StdRng::seed_from_u64(7));
        assert!(
            !system.is_attack(s),
            "{label}, clean pair, {method:?}: score {s}"
        );
    }
    let at = |buf: &AudioBuffer, frac: f64| ((buf.len() - 1) as f64 * frac) as usize;
    let mut nonzero = Vec::new();
    for frac in POSITIONS {
        let cases = [
            (
                format!("NaN in the VA recording at {frac}"),
                with_sample(&va, at(&va, frac), f32::NAN),
                wearable.clone(),
            ),
            (
                format!("+Inf in the wearable recording at {frac}"),
                va.clone(),
                with_sample(&wearable, at(&wearable, frac), f32::INFINITY),
            ),
        ];
        for (what, va, wearable) in cases {
            for method in DefenseMethod::all() {
                let s =
                    system.score_with_method(method, &va, &wearable, &mut StdRng::seed_from_u64(7));
                assert!(
                    (0.0..=1.0).contains(&s),
                    "{label}, {what}, {method:?}: score {s}"
                );
                assert!(
                    system.is_attack(s),
                    "{label}, {what}, {method:?}: accepted ({s})"
                );
                if s.to_bits() != 0.0f32.to_bits() {
                    nonzero.push((what.clone(), method, s));
                }
            }
        }
    }
    nonzero
}

fn assert_pinned(got: &[(String, DefenseMethod, f32)], want: &[(&str, DefenseMethod, f32)]) {
    let got: Vec<_> = got
        .iter()
        .map(|(w, m, s)| (w.as_str(), *m, s.to_bits()))
        .collect();
    let want: Vec<_> = want.iter().map(|&(w, m, s)| (w, m, s.to_bits())).collect();
    assert_eq!(got, want, "non-zero rejections moved");
}

#[test]
fn one_non_finite_sample_rejects_with_every_method_by_default() {
    let nonzero = nonzero_rejections(&DefenseSystem::paper_default(), "paper_default");
    assert_pinned(
        &nonzero,
        &[
            (
                "NaN in the VA recording at 0.5",
                DefenseMethod::Full,
                0.091603905,
            ),
            (
                "NaN in the VA recording at 1",
                DefenseMethod::AudioBaseline,
                0.073740065,
            ),
            (
                "+Inf in the wearable recording at 1",
                DefenseMethod::AudioBaseline,
                0.073740065,
            ),
        ],
    );
}

#[test]
fn one_non_finite_sample_rejects_with_every_method_under_a_trained_detector() {
    let system =
        DefenseSystem::with_selector(Wearable::fossil_gen_5(), Arc::new(trained_detector()));
    let nonzero = nonzero_rejections(&system, "trained detector");
    assert_pinned(
        &nonzero,
        &[
            (
                "NaN in the VA recording at 0",
                DefenseMethod::Full,
                0.086778,
            ),
            (
                "NaN in the VA recording at 0.25",
                DefenseMethod::Full,
                0.18170278,
            ),
            (
                "NaN in the VA recording at 0.5",
                DefenseMethod::Full,
                0.24244599,
            ),
            (
                "NaN in the VA recording at 0.75",
                DefenseMethod::Full,
                0.17446077,
            ),
            (
                "NaN in the VA recording at 1",
                DefenseMethod::AudioBaseline,
                0.073740065,
            ),
            (
                "NaN in the VA recording at 1",
                DefenseMethod::Full,
                0.18170278,
            ),
            (
                "+Inf in the wearable recording at 1",
                DefenseMethod::AudioBaseline,
                0.073740065,
            ),
            (
                "+Inf in the wearable recording at 1",
                DefenseMethod::Full,
                0.18170278,
            ),
        ],
    );
}
