//! End-to-end trial generation.
//!
//! A *trial* is one presentation of a voice command to the defense: the
//! sound source (a legitimate user inside the room, or a thru-barrier
//! attacker behind it), its propagation to both the VA device and the
//! user's wearable, the two microphone recordings, and the wearable's
//! delayed recording start caused by the WiFi trigger.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use thrubarrier_acoustics::loudspeaker::Loudspeaker;
use thrubarrier_acoustics::mic::Microphone;
use thrubarrier_acoustics::propagation::speech_gain_for_spl;
use thrubarrier_acoustics::room::{Room, RoomId};
use thrubarrier_acoustics::scene::AcousticPath;
use thrubarrier_attack::{AttackGenerator, AttackKind};
use thrubarrier_defense::sync;
use thrubarrier_dsp::AudioBuffer;
use thrubarrier_phoneme::command::{Command, CommandBank};
use thrubarrier_phoneme::speaker::SpeakerProfile;
use thrubarrier_phoneme::synth::Synthesizer;

/// Audio sample rate used throughout the evaluation.
pub const AUDIO_RATE: u32 = 16_000;

/// One recording pair presented to the defense.
#[derive(Debug, Clone)]
pub struct Trial {
    /// What the VA device recorded.
    pub va_recording: AudioBuffer,
    /// What the wearable recorded (starts late by the network delay).
    pub wearable_recording: AudioBuffer,
    /// Ground truth: was this a thru-barrier attack?
    pub is_attack: bool,
    /// The attack kind, if any.
    pub attack: Option<AttackKind>,
}

/// Physical parameters of a trial.
#[derive(Debug, Clone)]
pub struct TrialSettings {
    /// The room (and hence barrier).
    pub room: Room,
    /// Legitimate user's distance to the VA device in metres.
    pub user_to_va_m: f32,
    /// Wearable's distance to the user's mouth (worn on the wrist).
    pub mouth_to_wearable_m: f32,
    /// Barrier-to-VA distance for attacks, metres.
    pub barrier_to_va_m: f32,
    /// Barrier-to-wearable distance for attacks, metres.
    pub barrier_to_wearable_m: f32,
    /// Legitimate speech level in dB SPL (at 1 m).
    pub user_spl_db: f32,
    /// Attack playback level in dB SPL (at the barrier).
    pub attack_spl_db: f32,
}

impl Default for TrialSettings {
    fn default() -> Self {
        TrialSettings {
            room: Room::paper_room(RoomId::A),
            user_to_va_m: 2.0,
            mouth_to_wearable_m: 0.3,
            barrier_to_va_m: 2.0,
            barrier_to_wearable_m: 2.0,
            user_spl_db: 70.0,
            attack_spl_db: 75.0,
        }
    }
}

/// Generates trials for arbitrary speakers/commands/settings.
#[derive(Debug, Clone)]
pub struct TrialGenerator {
    synth: Synthesizer,
    attacks: AttackGenerator,
    va_mic: Microphone,
    wearable_mic: Microphone,
}

impl Default for TrialGenerator {
    fn default() -> Self {
        Self::new()
    }
}

impl TrialGenerator {
    /// Creates a generator with the paper's device roles: a smartphone
    /// (Nexus 6) emulating the VA, a smartwatch microphone on the
    /// wearable.
    pub fn new() -> Self {
        TrialGenerator {
            synth: Synthesizer::new(AUDIO_RATE),
            attacks: AttackGenerator::new(AUDIO_RATE),
            va_mic: Microphone::phone(),
            wearable_mic: Microphone::wearable(),
        }
    }

    /// The synthesizer used for command audio.
    pub fn synthesizer(&self) -> &Synthesizer {
        &self.synth
    }

    /// A legitimate trial: `speaker` utters `command` inside the room.
    pub fn legitimate<R: Rng + ?Sized>(
        &self,
        command: &Command,
        speaker: &SpeakerProfile,
        settings: &TrialSettings,
        rng: &mut R,
    ) -> Trial {
        let utterance = {
            let _span = thrubarrier_obs::span!("eval.build.synthesis");
            self.synth.synthesize_command(command, speaker, rng)
        };
        self.legitimate_with_utterance(utterance.audio.samples(), settings, rng)
    }

    /// Synthesizes `speaker`'s rendition of `command` at unit speech
    /// level. The result can be fed to
    /// [`TrialGenerator::legitimate_with_utterance`] any number of times,
    /// which is how the runner memoizes per-(speaker, command) audio.
    pub fn utterance_audio<R: Rng + ?Sized>(
        &self,
        command: &Command,
        speaker: &SpeakerProfile,
        rng: &mut R,
    ) -> Vec<f32> {
        let _span = thrubarrier_obs::span!("eval.build.synthesis");
        self.synth
            .synthesize_command(command, speaker, rng)
            .audio
            .into_samples()
    }

    /// Like [`TrialGenerator::legitimate`] but with a pre-synthesized
    /// utterance; `rng` drives only the trial physics (propagation,
    /// noise, trigger delay).
    pub fn legitimate_with_utterance<R: Rng + ?Sized>(
        &self,
        utterance: &[f32],
        settings: &TrialSettings,
        rng: &mut R,
    ) -> Trial {
        let gain = speech_gain_for_spl(settings.user_spl_db);
        let source: Vec<f32> = utterance.iter().map(|&v| v * gain).collect();
        let (va, wearable) = self.record_pair(
            &source,
            AcousticPath::direct(settings.room.clone(), settings.user_to_va_m),
            AcousticPath::direct(settings.room.clone(), settings.mouth_to_wearable_m),
            rng,
        );
        Trial {
            va_recording: va,
            wearable_recording: wearable,
            is_attack: false,
            attack: None,
        }
    }

    /// An attack trial: `adversary` attacks `victim`'s VA from behind
    /// the room's barrier.
    pub fn attack<R: Rng + ?Sized>(
        &self,
        kind: AttackKind,
        command: &Command,
        victim: &SpeakerProfile,
        adversary: &SpeakerProfile,
        settings: &TrialSettings,
        rng: &mut R,
    ) -> Trial {
        let sound = {
            let _span = thrubarrier_obs::span!("eval.build.attack_gen");
            self.attacks.generate(kind, command, victim, adversary, rng)
        };
        let mut source = sound.samples;
        // The adversary controls the playback volume directly: calibrate
        // the emitted level to the configured attack SPL.
        let gain = thrubarrier_acoustics::propagation::spl_to_rms(settings.attack_spl_db)
            / thrubarrier_dsp::stats::rms(&source).max(1e-9);
        for v in &mut source {
            *v *= gain;
        }
        let loudspeaker = sound.needs_loudspeaker.then(Loudspeaker::sound_bar);
        let va_path = AcousticPath {
            room: settings.room.clone(),
            through_barrier: true,
            distance_m: settings.barrier_to_va_m,
            loudspeaker,
        };
        let wearable_path = AcousticPath {
            room: settings.room.clone(),
            through_barrier: true,
            distance_m: settings.barrier_to_wearable_m,
            loudspeaker,
        };
        let (va, wearable) = self.record_pair(&source, va_path, wearable_path, rng);
        Trial {
            va_recording: va,
            wearable_recording: wearable,
            is_attack: true,
            attack: Some(kind),
        }
    }

    fn record_pair<R: Rng + ?Sized>(
        &self,
        source: &[f32],
        va_path: AcousticPath,
        wearable_path: AcousticPath,
        rng: &mut R,
    ) -> (AudioBuffer, AudioBuffer) {
        // The `eval.build.propagation` span lives inside the scene
        // engine now — one span per rendered path instead of per pair.
        let va = va_path.record(source, AUDIO_RATE, &self.va_mic, rng);
        let wearable_full = wearable_path.record(source, AUDIO_RATE, &self.wearable_mic, rng);
        // The wearable starts recording only once the WiFi trigger
        // arrives.
        let delay = sync::random_network_delay(rng);
        let wearable = sync::apply_trigger_delay(&wearable_full, delay);
        (va, wearable)
    }
}

/// A self-contained, seeded context for producing example trials — used
/// by the quickstart example, doctests and integration tests.
#[derive(Debug)]
pub struct TrialContext {
    /// The RNG driving every stochastic component.
    pub rng: StdRng,
    /// Trial physics.
    pub settings: TrialSettings,
    /// The victim (legitimate user).
    pub victim: SpeakerProfile,
    /// The adversary for random attacks.
    pub adversary: SpeakerProfile,
    generator: TrialGenerator,
    bank: CommandBank,
}

impl TrialContext {
    /// Creates a context with everything derived from one seed.
    pub fn seeded(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let victim = SpeakerProfile::random(&mut rng);
        let adversary = SpeakerProfile::random(&mut rng);
        TrialContext {
            rng,
            settings: TrialSettings::default(),
            victim,
            adversary,
            generator: TrialGenerator::new(),
            bank: CommandBank::standard(),
        }
    }

    /// A legitimate trial on a random command.
    pub fn legitimate_trial(&mut self) -> Trial {
        let cmd = &self.bank.commands()[self.rng.gen_range(0..self.bank.len())];
        self.generator
            .legitimate(cmd, &self.victim, &self.settings, &mut self.rng)
    }

    /// A replay-attack trial on a random command.
    pub fn replay_attack_trial(&mut self) -> Trial {
        self.attack_trial(AttackKind::Replay)
    }

    /// An attack trial of the given kind on a random command.
    pub fn attack_trial(&mut self, kind: AttackKind) -> Trial {
        let cmd = &self.bank.commands()[self.rng.gen_range(0..self.bank.len())];
        self.generator.attack(
            kind,
            cmd,
            &self.victim,
            &self.adversary,
            &self.settings,
            &mut self.rng,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legitimate_trial_produces_nonsilent_pair() {
        let mut ctx = TrialContext::seeded(1);
        let t = ctx.legitimate_trial();
        assert!(!t.is_attack);
        assert!(t.va_recording.rms() > 1e-4);
        assert!(t.wearable_recording.rms() > 1e-4);
        // The wearable recording is shorter (late start).
        assert!(t.wearable_recording.len() < t.va_recording.len());
    }

    #[test]
    fn attack_trials_for_all_kinds() {
        let mut ctx = TrialContext::seeded(2);
        for kind in AttackKind::all() {
            let t = ctx.attack_trial(kind);
            assert!(t.is_attack);
            assert_eq!(t.attack, Some(kind));
            assert!(t.va_recording.rms() > 0.0);
        }
    }

    #[test]
    fn attack_recordings_are_quieter_than_user_recordings() {
        let mut ctx = TrialContext::seeded(3);
        let legit = ctx.legitimate_trial();
        let attack = ctx.replay_attack_trial();
        // Attack sound passes the barrier (>=7.5 dB loss) while the user
        // speaks inside; the wearable recording especially should differ.
        assert!(attack.wearable_recording.rms() < legit.wearable_recording.rms());
    }

    #[test]
    fn trials_are_reproducible_per_seed() {
        let t1 = TrialContext::seeded(5).legitimate_trial();
        let t2 = TrialContext::seeded(5).legitimate_trial();
        assert_eq!(t1.va_recording.samples(), t2.va_recording.samples());
    }

    #[test]
    fn default_settings_match_paper_geometry() {
        let s = TrialSettings::default();
        assert_eq!(s.barrier_to_va_m, 2.0);
        assert_eq!(s.barrier_to_wearable_m, 2.0);
        assert!(s.user_spl_db >= 65.0 && s.user_spl_db <= 75.0);
    }
}
