//! MEMS accelerometer model.

use rand::Rng;
use thrubarrier_dsp::{resample, response, stats, AudioBuffer};

/// Control point of the audio→vibration coupling response.
type ResponsePoint = (f32, f32); // (frequency Hz, linear gain)

/// A wearable MEMS accelerometer sampling at ~200 Hz.
///
/// See the crate-level docs for the five modelled effects. `capture`
/// applies them in physical order: coupling response → rectification
/// leak → aliasing ADC → level-dependent readout noise.
#[derive(Debug, Clone, PartialEq)]
pub struct Accelerometer {
    /// Output sampling rate in Hz (commercial wearables: ≤ 200 Hz).
    pub sample_rate: u32,
    /// Readout-noise coefficient: noise std per unit of *low-frequency*
    /// (≤ 500 Hz) coupled signal RMS. The paper's key asymmetry.
    pub low_freq_noise_coeff: f32,
    /// Constant sensor noise floor (standard deviation, sensor units).
    pub noise_floor: f32,
    /// Gain of the envelope-rectification leakage into 0–5 Hz.
    pub rectification_gain: f32,
    /// Ablation switch: when true, the ADC applies a proper
    /// anti-aliasing filter before decimation (real wearables do NOT —
    /// and the defense depends on the fold-down; see the ablation
    /// experiments).
    pub anti_alias: bool,
    response: Vec<ResponsePoint>,
    /// Cache key of the coupling-response curve, precomputed from the
    /// control points at construction so `capture` does not reallocate
    /// and rehash them per call.
    coupling_key: u64,
}

impl Accelerometer {
    /// Split frequency (Hz) below which excitation energy drives the
    /// readout amplifier's noise injection.
    pub const LOW_BAND_SPLIT_HZ: f32 = 500.0;

    /// A commercial smartwatch accelerometer (Fossil Gen 5 class):
    /// 200 Hz, strong low-frequency audio attenuation, good 1–3 kHz
    /// pickup with a resonance near 2.2 kHz.
    pub fn smartwatch_200hz() -> Self {
        Self::from_parts(
            200,
            1.2,
            2e-4,
            vec![
                (0.0, 1.0), // DC / body-motion band
                (5.0, 1.0),
                (20.0, 0.04),
                (100.0, 0.012),
                (500.0, 0.012),
                (800.0, 0.025),
                (1_200.0, 0.10),
                (1_600.0, 0.45),
                (2_200.0, 0.72), // mechanical resonance
                (3_000.0, 0.55),
                (4_000.0, 0.35),
                (6_000.0, 0.15),
                (8_000.0, 0.06),
            ],
        )
    }

    /// A slightly less sensitive accelerometer (Moto 360 class).
    pub fn moto_360() -> Self {
        let base = Accelerometer::smartwatch_200hz();
        let response = base
            .response
            .into_iter()
            .map(|(f, g)| if f >= 500.0 { (f, g * 0.85) } else { (f, g) })
            .collect();
        Self::from_parts(200, 1.35, 3e-4, response)
    }

    /// Assembles an accelerometer and stamps the coupling-curve cache
    /// key (a pure function of the control points).
    fn from_parts(
        sample_rate: u32,
        low_freq_noise_coeff: f32,
        noise_floor: f32,
        response: Vec<ResponsePoint>,
    ) -> Self {
        let params: Vec<f32> = response.iter().flat_map(|&(f, g)| [f, g]).collect();
        let coupling_key = response::curve_key(0x4143_435F_4350, &params);
        Accelerometer {
            sample_rate,
            low_freq_noise_coeff,
            noise_floor,
            rectification_gain: 1.0,
            anti_alias: false,
            response,
            coupling_key,
        }
    }

    /// The coupling gain from airborne/conductive audio at `freq_hz` to
    /// sensor output (log-frequency linear interpolation between the
    /// control points).
    pub fn coupling_gain(&self, freq_hz: f32) -> f32 {
        let pts = &self.response;
        if freq_hz <= pts[0].0 {
            return pts[0].1;
        }
        for w in pts.windows(2) {
            let (f0, g0) = w[0];
            let (f1, g1) = w[1];
            if freq_hz <= f1 {
                // Linear in log-frequency (guard the f0 = 0 point).
                let lf0 = f0.max(0.1).ln();
                let lf1 = f1.max(0.1).ln();
                let t = (freq_hz.max(0.1).ln() - lf0) / (lf1 - lf0);
                return g0 + (g1 - g0) * t.clamp(0.0, 1.0);
            }
        }
        pts.last().map_or(0.0, |p| p.1)
    }

    /// Fraction of the coupled signal's energy below `split_hz` — the
    /// quantity that drives readout-noise injection.
    ///
    /// This is the staged (oracle) formulation: a third full filter
    /// round-trip through a brick-wall curve. The fused engine meters
    /// the same quantity directly from the speaker-weighted spectrum
    /// via Parseval (see `crate::engine`).
    pub(crate) fn low_band_rms(signal: &[f32], sample_rate: u32, split_hz: f32) -> f32 {
        let key = response::curve_key(0x4143_435F_4C4F, &[split_hz]);
        let low = response::filter_cached(key, signal, sample_rate, move |f| {
            if f <= split_hz {
                1.0
            } else {
                0.0
            }
        });
        stats::rms(&low)
    }

    /// The coupling-response curve sampled for an `n_fft`-point FFT at
    /// `sample_rate`, from the per-thread curve cache (the same table
    /// `capture` filters through, so fused and staged conversions apply
    /// bit-identical gains).
    pub(crate) fn coupling_curve_table(
        &self,
        n_fft: usize,
        sample_rate: u32,
    ) -> std::sync::Arc<response::ResponseCurve> {
        response::cached_curve(self.coupling_key, n_fft, sample_rate, |f| {
            self.coupling_gain(f)
        })
    }

    /// Standard deviation of the injected readout noise for a given
    /// low-band excitation RMS.
    pub(crate) fn noise_std_for(&self, low_rms: f32) -> f32 {
        self.low_freq_noise_coeff * low_rms * 0.05 + self.noise_floor
    }

    /// Adds the rectification leak of `excitation` into `out`, in
    /// place: the energy envelope (low-passed |x|²) leaks into the
    /// 0–5 Hz band. Two cascaded one-pole low-passes at 2 Hz confine
    /// the leak below ~5 Hz (paper Fig. 7). `out` is the coupled
    /// signal, so mixing allocates nothing.
    pub(crate) fn add_rectification_leak(
        &self,
        excitation: &[f32],
        out: &mut [f32],
        audio_rate: u32,
    ) {
        let alpha = (-std::f32::consts::TAU * 2.0 / audio_rate as f32).exp();
        let (mut env1, mut env2) = (0.0f32, 0.0f32);
        for (o, &x) in out.iter_mut().zip(excitation) {
            env1 = alpha * env1 + (1.0 - alpha) * x * x;
            env2 = alpha * env2 + (1.0 - alpha) * env1;
            *o += self.rectification_gain * env2;
        }
    }

    /// Converts an audio-rate vibration excitation into the
    /// accelerometer's output: coupling response, rectification leak,
    /// aliasing decimation, level-dependent noise.
    ///
    /// `excitation` is the acoustic signal at the sensor (audio rate);
    /// the output is a vibration signal at [`Accelerometer::sample_rate`].
    pub fn capture<R: Rng + ?Sized>(
        &self,
        excitation: &[f32],
        audio_rate: u32,
        rng: &mut R,
    ) -> AudioBuffer {
        if excitation.is_empty() {
            return AudioBuffer::empty(self.sample_rate);
        }
        // 1. Mechanical/electrical coupling response.
        let mut coupled = response::filter_cached(self.coupling_key, excitation, audio_rate, |f| {
            self.coupling_gain(f)
        });

        // 2. Rectification leakage, added into the coupled signal in
        //    place (no `mixed` temporary).
        self.add_rectification_leak(excitation, &mut coupled, audio_rate);

        // 3. The ADC: real wearables decimate with NO anti-aliasing
        //    filter (the fold-down is what carries high-frequency speech
        //    evidence into the 0–100 Hz band); `anti_alias` exists for
        //    the ablation study.
        let factor = (audio_rate / self.sample_rate).max(1) as usize;
        let mut sampled = if self.anti_alias {
            resample::decimate(&coupled, factor, audio_rate).expect("factor >= 1 by construction")
        } else {
            resample::decimate_aliased(&coupled, factor).expect("factor >= 1 by construction")
        };

        // 4. Level-dependent readout noise: driven by the *pre-coupling*
        //    low-frequency content of the excitation (the amplifier sees
        //    the raw low-frequency pressure). The injected noise level is
        //    set by the conversion's overall low-frequency drive — one
        //    amplifier operating point per replay — so segments louder
        //    than the average (e.g. /aa/, /ao/) convert with better SNR
        //    and intrinsically weak segments with worse. This is the
        //    asymmetry behind both of the paper's selection criteria.
        let low_rms = Self::low_band_rms(excitation, audio_rate, Self::LOW_BAND_SPLIT_HZ);
        let noise_std = self.noise_std_for(low_rms);
        for v in &mut sampled {
            *v += noise_std * thrubarrier_dsp::gen::standard_normal(rng);
        }
        AudioBuffer::new(sampled, self.sample_rate)
    }

    /// Signal-to-injected-noise ratio the sensor would achieve for a
    /// given excitation — a diagnostic used by tests and ablations.
    pub fn conversion_snr_db(&self, excitation: &[f32], audio_rate: u32) -> f32 {
        let coupled = response::filter_cached(self.coupling_key, excitation, audio_rate, |f| {
            self.coupling_gain(f)
        });
        let signal_rms = stats::rms(&coupled);
        let low_rms = Self::low_band_rms(excitation, audio_rate, Self::LOW_BAND_SPLIT_HZ);
        let noise_std = self.noise_std_for(low_rms);
        20.0 * (signal_rms / noise_std.max(1e-12)).log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use thrubarrier_dsp::{gen, stats};

    #[test]
    fn response_attenuates_low_frequency_audio() {
        let acc = Accelerometer::smartwatch_200hz();
        // 85-500 Hz (speech fundamentals) couple far more weakly than
        // 1-3 kHz (the paper's core observation, Sec. IV-A).
        assert!(acc.coupling_gain(200.0) < 0.05);
        assert!(acc.coupling_gain(2_200.0) > 0.5);
        assert!(acc.coupling_gain(1_500.0) > 5.0 * acc.coupling_gain(300.0));
    }

    #[test]
    fn response_is_high_below_5hz() {
        let acc = Accelerometer::smartwatch_200hz();
        assert!(acc.coupling_gain(1.0) > 0.9);
        assert!(acc.coupling_gain(4.0) > 0.9);
        assert!(acc.coupling_gain(30.0) < 0.1);
    }

    #[test]
    fn capture_output_rate_and_length() {
        let acc = Accelerometer::smartwatch_200hz();
        let mut rng = StdRng::seed_from_u64(1);
        let sig = gen::sine(1_000.0, 0.1, 16_000, 1.0);
        let vib = acc.capture(&sig, 16_000, &mut rng);
        assert_eq!(vib.sample_rate(), 200);
        assert_eq!(vib.len(), 200);
    }

    #[test]
    fn high_frequency_tone_aliases_into_band() {
        // 2.25 kHz tone → aliases to |2250 - 11*200| = 50 Hz.
        let acc = Accelerometer::smartwatch_200hz();
        let mut rng = StdRng::seed_from_u64(2);
        let sig = gen::sine(2_250.0, 0.2, 16_000, 2.0);
        let vib = acc.capture(&sig, 16_000, &mut rng);
        let mags = thrubarrier_dsp::fft::magnitude_spectrum(vib.samples(), 512);
        let peak = stats::argmax(&mags[13..]).unwrap() + 13; // skip <5 Hz leak
        let hz = peak as f32 * 200.0 / 512.0;
        assert!((hz - 50.0).abs() < 4.0, "aliased peak at {hz} Hz");
    }

    #[test]
    fn wideband_converts_with_higher_snr_than_lowband() {
        // The asymmetry behind the whole defense: a low-frequency-
        // dominated (thru-barrier) sound converts with far lower SNR
        // than a wideband (user) sound of equal level.
        let acc = Accelerometer::smartwatch_200hz();
        let user_like = gen::chirp(150.0, 3_000.0, 0.1, 16_000, 1.0);
        let attack_like = gen::chirp(100.0, 450.0, 0.1, 16_000, 1.0);
        let snr_user = acc.conversion_snr_db(&user_like, 16_000);
        let snr_attack = acc.conversion_snr_db(&attack_like, 16_000);
        assert!(
            snr_user > snr_attack + 10.0,
            "user {snr_user} dB vs attack {snr_attack} dB"
        );
    }

    #[test]
    fn capture_of_silence_is_noise_floor() {
        let acc = Accelerometer::smartwatch_200hz();
        let mut rng = StdRng::seed_from_u64(3);
        let vib = acc.capture(&vec![0.0; 16_000], 16_000, &mut rng);
        let rms = vib.rms();
        assert!((rms - acc.noise_floor).abs() < acc.noise_floor, "rms {rms}");
    }

    #[test]
    fn rectification_puts_energy_below_5hz() {
        let acc = Accelerometer::smartwatch_200hz();
        let mut rng = StdRng::seed_from_u64(4);
        // Amplitude-modulated tone: envelope at 1 Hz.
        let fs = 16_000u32;
        let sig: Vec<f32> = (0..fs * 4)
            .map(|i| {
                let t = i as f32 / fs as f32;
                (0.2 + 0.15 * (std::f32::consts::TAU * 1.0 * t).sin())
                    * (std::f32::consts::TAU * 2_000.0 * t).sin()
            })
            .collect();
        let vib = acc.capture(&sig, fs, &mut rng);
        let mags = thrubarrier_dsp::fft::magnitude_spectrum(vib.samples(), 1_024);
        // Bin width = 200/1024 Hz; energy at 1-2 Hz should rival or beat
        // any single aliased bin.
        let low: f32 = mags[1..26].iter().sum(); // <5 Hz
        let mid: f32 = mags[52..].iter().sum::<f32>() / (mags.len() - 52) as f32 * 25.0;
        assert!(low > mid, "low {low} vs scaled mid {mid}");
    }

    #[test]
    fn empty_excitation_yields_empty_capture() {
        let acc = Accelerometer::smartwatch_200hz();
        let mut rng = StdRng::seed_from_u64(5);
        assert!(acc.capture(&[], 16_000, &mut rng).is_empty());
    }

    #[test]
    fn moto_360_is_noisier() {
        let fossil = Accelerometer::smartwatch_200hz();
        let moto = Accelerometer::moto_360();
        assert!(moto.noise_floor > fossil.noise_floor);
        assert!(moto.coupling_gain(2_200.0) < fossil.coupling_gain(2_200.0));
    }
}
