//! Wearable device presets and the audio→vibration conversion.

use crate::accelerometer::Accelerometer;
use crate::engine;
use crate::motion::BodyMotion;
use rand::Rng;
use thrubarrier_dsp::AudioBuffer;

/// The wearable's built-in speaker: a tiny transducer with a narrow
/// reproduction band.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WearableSpeaker {
    /// Low reproduction corner in Hz.
    pub low_hz: f32,
    /// High reproduction corner in Hz.
    pub high_hz: f32,
}

impl WearableSpeaker {
    /// A smartwatch-class micro speaker.
    pub fn smartwatch() -> Self {
        WearableSpeaker {
            low_hz: 250.0,
            high_hz: 7_500.0,
        }
    }

    /// Plays a signal through the speaker (band-limiting only; micro
    /// speakers at replay levels stay essentially linear).
    pub fn play(&self, signal: &[f32], sample_rate: u32) -> Vec<f32> {
        if signal.is_empty() {
            return Vec::new();
        }
        let n = thrubarrier_dsp::fft::next_pow2(signal.len());
        self.response_curve(n, sample_rate).filter(signal)
    }

    /// The speaker's reproduction curve sampled for an `n_fft`-point
    /// FFT at `sample_rate`, from the per-thread curve cache. Shared
    /// between [`WearableSpeaker::play`] and the fused conversion
    /// engine, so both paths multiply bit-identical gain tables.
    pub(crate) fn response_curve(
        &self,
        n_fft: usize,
        sample_rate: u32,
    ) -> std::sync::Arc<thrubarrier_dsp::response::ResponseCurve> {
        let lo = self.low_hz;
        let hi = self.high_hz.min(sample_rate as f32 / 2.0 * 0.98);
        let key = thrubarrier_dsp::response::curve_key(0x5753_504B, &[lo, hi]);
        thrubarrier_dsp::response::cached_curve(key, n_fft, sample_rate, move |f| {
            if f < lo {
                (f / lo).powi(2)
            } else if f > hi {
                (hi / f).powi(2)
            } else {
                1.0
            }
        })
    }
}

/// A wearable device: speaker + accelerometer (+ optional wearer motion).
///
/// `convert` is the paper's cross-domain sensing primitive: replay an
/// audio recording with the built-in speaker and capture the conductive
/// vibration with the built-in accelerometer.
#[derive(Debug, Clone, PartialEq)]
pub struct Wearable {
    /// Device name (for reports).
    pub name: &'static str,
    /// The built-in speaker used for replay.
    pub speaker: WearableSpeaker,
    /// The built-in accelerometer.
    pub accelerometer: Accelerometer,
    /// Interference from the wearer's movement, if simulated.
    pub body_motion: Option<BodyMotion>,
}

impl Wearable {
    /// Fossil Gen 5 smartwatch (the paper's primary device).
    pub fn fossil_gen_5() -> Self {
        Wearable {
            name: "Fossil Gen 5",
            speaker: WearableSpeaker::smartwatch(),
            accelerometer: Accelerometer::smartwatch_200hz(),
            body_motion: None,
        }
    }

    /// Moto 360 (2020) smartwatch (the paper's secondary device).
    pub fn moto_360() -> Self {
        Wearable {
            name: "Moto 360",
            speaker: WearableSpeaker::smartwatch(),
            accelerometer: Accelerometer::moto_360(),
            body_motion: None,
        }
    }

    /// Returns a copy with body-motion interference enabled.
    pub fn with_body_motion(mut self, motion: BodyMotion) -> Self {
        self.body_motion = Some(motion);
        self
    }

    /// Cross-domain conversion: replays `recording` through the built-in
    /// speaker and captures it with the accelerometer, returning the
    /// vibration-domain signal (at the accelerometer rate).
    ///
    /// Runs through the per-thread [`crate::engine::ConversionEngine`].
    /// Batch call sites that convert two recordings back-to-back should prefer
    /// [`crate::engine::with_engine`] +
    /// [`crate::engine::ConversionEngine::convert_pair`].
    pub fn convert<R: Rng + ?Sized>(
        &self,
        recording: &[f32],
        sample_rate: u32,
        rng: &mut R,
    ) -> AudioBuffer {
        engine::with_engine(|e| e.convert(self, recording, sample_rate, rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use thrubarrier_dsp::{gen, stats};

    #[test]
    fn speaker_band_limits() {
        let sp = WearableSpeaker::smartwatch();
        let low = gen::sine(60.0, 0.5, 16_000, 0.5);
        let mid = gen::sine(1_000.0, 0.5, 16_000, 0.5);
        let low_out = stats::rms(&sp.play(&low, 16_000));
        let mid_out = stats::rms(&sp.play(&mid, 16_000));
        assert!(mid_out > 5.0 * low_out);
    }

    #[test]
    fn convert_produces_200hz_vibration() {
        let w = Wearable::fossil_gen_5();
        let mut rng = StdRng::seed_from_u64(1);
        let speech = gen::chirp(200.0, 3_000.0, 0.1, 16_000, 1.0);
        let vib = w.convert(&speech, 16_000, &mut rng);
        assert_eq!(vib.sample_rate(), 200);
        assert_eq!(vib.len(), 200);
        assert!(vib.rms() > 0.0);
    }

    #[test]
    fn conversions_of_same_recording_share_structure() {
        // Two independent conversions of the same wideband recording
        // must correlate strongly in their >5 Hz spectra (this is what
        // lets the detector accept legitimate users).
        let w = Wearable::fossil_gen_5();
        let mut rng = StdRng::seed_from_u64(2);
        let speech = gen::chirp(600.0, 3_000.0, 0.1, 16_000, 2.0);
        let v1 = w.convert(&speech, 16_000, &mut rng);
        let v2 = w.convert(&speech, 16_000, &mut rng);
        let stft = thrubarrier_dsp::Stft::vibration_default();
        let mut s1 = stft.power_spectrogram(v1.samples(), 200);
        let mut s2 = stft.power_spectrogram(v2.samples(), 200);
        s1.crop_low_frequencies(5.0);
        s2.crop_low_frequencies(5.0);
        let r = thrubarrier_dsp::correlate::spectrogram_correlation(&s1, &s2).unwrap();
        assert!(r > 0.7, "correlation {r}");
    }

    #[test]
    fn low_frequency_recording_converts_noisily() {
        // A low-frequency-dominated (thru-barrier-like) recording should
        // produce conversions that do NOT correlate well.
        let w = Wearable::fossil_gen_5();
        let mut rng = StdRng::seed_from_u64(3);
        let attack = gen::chirp(260.0, 480.0, 0.02, 16_000, 2.0);
        let v1 = w.convert(&attack, 16_000, &mut rng);
        let v2 = w.convert(&attack, 16_000, &mut rng);
        let stft = thrubarrier_dsp::Stft::vibration_default();
        let mut s1 = stft.power_spectrogram(v1.samples(), 200);
        let mut s2 = stft.power_spectrogram(v2.samples(), 200);
        s1.crop_low_frequencies(5.0);
        s2.crop_low_frequencies(5.0);
        let r = thrubarrier_dsp::correlate::spectrogram_correlation(&s1, &s2).unwrap();
        assert!(r < 0.5, "correlation {r}");
    }

    #[test]
    fn body_motion_adds_low_frequency_energy() {
        let quiet = Wearable::fossil_gen_5();
        let moving = Wearable::fossil_gen_5().with_body_motion(BodyMotion::walking());
        let mut rng1 = StdRng::seed_from_u64(4);
        let mut rng2 = StdRng::seed_from_u64(4);
        let speech = gen::chirp(600.0, 3_000.0, 0.05, 16_000, 2.0);
        let v_quiet = quiet.convert(&speech, 16_000, &mut rng1);
        let v_moving = moving.convert(&speech, 16_000, &mut rng2);
        assert!(v_moving.rms() > 2.0 * v_quiet.rms());
    }

    #[test]
    fn device_presets_differ() {
        assert_ne!(Wearable::fossil_gen_5(), Wearable::moto_360());
        assert_eq!(Wearable::fossil_gen_5().name, "Fossil Gen 5");
    }
}
