//! Fused single-transform conversion engine.
//!
//! The conversion is physically a chain of per-effect stages (speaker
//! band-limit, accelerometer coupling, the brick-wall low-band pass
//! that meters readout-noise drive), each a forward FFT plus an inverse
//! FFT plus a full-size temporary when run on its own. All three
//! operate on the same spectrum, so the engine collapses them into
//! **one forward transform**:
//!
//! 1. forward real FFT of the recording (`next_pow2` padded, planned);
//! 2. multiply the spectrum by the cached speaker curve, inverse once
//!    for the time-domain `played` signal (needed only because the
//!    rectification leak is a time-domain envelope follower);
//! 3. meter the low-band RMS **directly on the speaker-weighted
//!    spectrum via Parseval** — no third filter pass, no full-size
//!    low-band temporary;
//! 4. multiply further by the cached coupling curve, inverse once for
//!    the `coupled` signal.
//!
//! That is 1 forward + 2 inverse transforms instead of 3 + 3. The leak
//! and body-motion interference are then added in place, and the ADC /
//! noise stages run unchanged. Curve tables come from the same
//! per-thread cache the stage-by-stage chain uses, so both multiply
//! bit-identical gains; the results still differ at tolerance level
//! (not bitwise) because the staged chain truncates the intermediate
//! `played` signal back to the input length before re-transforming
//! (re-zeroing the pad region the combined-curve product keeps), and
//! because Parseval metering integrates the whole padded block where
//! the staged chain measures only the truncated samples. Recordings that
//! pad to a block of at most `SHORT_BLOCK` (8) points take the staged
//! steps instead and match bit for bit. The staged chain lives on as
//! the test-only oracle in this module's tests, which gate the gap with
//! tolerance proptests.
//!
//! [`ConversionEngine`] owns the spectrum/signal scratch (the
//! `GemmScratch` pattern), and [`with_engine`] hands out a per-thread
//! instance so steady-state conversions allocate only their output.
//! [`ConversionEngine::convert_pair`] converts a recording pair —
//! `DefenseSystem::vibration_score`'s shape — through one engine
//! borrow and one warm plan/curve set.

use crate::wearable::Wearable;
use rand::Rng;
use std::cell::RefCell;
use thrubarrier_dsp::{fft, gen, resample, AudioBuffer, Complex};

/// Reusable scratch for fused audio→vibration conversions.
///
/// Holds the half-spectrum and time-domain working buffers; FFT plans
/// and sampled response curves come from the dsp crate's per-thread
/// caches. One engine converts any number of signals of any length —
/// buffers grow to the largest conversion seen and are reused.
#[derive(Debug, Default)]
pub struct ConversionEngine {
    /// Half-spectrum of the padded recording (`n/2 + 1` bins).
    spec: Vec<Complex>,
    /// Speaker-filtered time-domain signal (drives the leak envelope).
    played: Vec<f32>,
    /// Coupling-filtered signal, later mixed with the leak in place.
    coupled: Vec<f32>,
}

impl ConversionEngine {
    /// Creates an engine with empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Converts a recording pair — the VA recording and the wearable
    /// recording of `DefenseSystem::vibration_score` — back-to-back
    /// through one engine borrow, sharing warm plans, curve tables and
    /// scratch across both conversions. Equivalent to two sequential
    /// [`ConversionEngine::convert`] calls on the same RNG.
    pub fn convert_pair<R: Rng + ?Sized>(
        &mut self,
        wearable: &Wearable,
        va_audio: &[f32],
        wearable_audio: &[f32],
        sample_rate: u32,
        rng: &mut R,
    ) -> (AudioBuffer, AudioBuffer) {
        let _span = thrubarrier_obs::span!("vibration.convert_pair");
        let a = self.convert(wearable, va_audio, sample_rate, rng);
        let b = self.convert(wearable, wearable_audio, sample_rate, rng);
        (a, b)
    }

    /// Cross-domain conversion of one recording: one forward transform,
    /// two curve multiplies, two inverse transforms, Parseval noise
    /// metering, in-place leak / interference mixing.
    pub fn convert<R: Rng + ?Sized>(
        &mut self,
        wearable: &Wearable,
        recording: &[f32],
        sample_rate: u32,
        rng: &mut R,
    ) -> AudioBuffer {
        let _span = thrubarrier_obs::span!("vibration.convert");
        let acc = &wearable.accelerometer;
        if recording.is_empty() {
            let mut vib = AudioBuffer::empty(acc.sample_rate);
            if let Some(motion) = &wearable.body_motion {
                // The staged chain draws the three phase values even for
                // an empty capture; match it so RNG streams stay aligned.
                motion.add_into(vib.samples_mut(), acc.sample_rate, rng);
            }
            return vib;
        }
        let len = recording.len();
        let n = fft::next_pow2(len);

        // One forward transform of the padded recording.
        fft::half_spectrum_into(recording, n, &mut self.spec);

        // Speaker band-limit on the spectrum (same cached table
        // `WearableSpeaker::play` filters through).
        wearable
            .speaker
            .response_curve(n, sample_rate)
            .apply_to_spectrum(&mut self.spec);

        // Time-domain played signal — needed only for the rectification
        // leak's envelope follower.
        self.played.clear();
        fft::real_inverse_into(&self.spec, n, &mut self.played);
        self.played.truncate(len);

        let split_hz = crate::Accelerometer::LOW_BAND_SPLIT_HZ;
        let low_rms = if len < n && n <= SHORT_BLOCK {
            // In a block of at most `SHORT_BLOCK` points the speaker
            // output's circular tail in the zero pad is as large as the
            // signal itself: the coupling filter would wrap it onto the
            // first (and only) output sample, and Parseval would meter
            // it. Run the staged chain's steps instead — re-zero the pad
            // by transforming the truncated played signal again, and
            // meter its low band in time domain. Both are a few points.
            fft::half_spectrum_into(&self.played, n, &mut self.spec);
            crate::Accelerometer::low_band_rms(&self.played, sample_rate, split_hz)
        } else {
            // Readout-noise drive, metered on the speaker-weighted
            // spectrum: the staged chain low-pass-filters the played
            // signal a third time just to take an RMS; by Parseval that
            // RMS is a weighted bin-energy sum over the low band.
            low_band_rms_parseval(&self.spec, n, len, sample_rate, split_hz)
        };

        // Coupling response stacked on the same spectrum, then the
        // second (and last) inverse transform.
        acc.coupling_curve_table(n, sample_rate)
            .apply_to_spectrum(&mut self.spec);
        self.coupled.clear();
        fft::real_inverse_into(&self.spec, n, &mut self.coupled);
        self.coupled.truncate(len);

        // Rectification leak, mixed into the coupled signal in place.
        acc.add_rectification_leak(&self.played, &mut self.coupled, sample_rate);

        // The ADC (no anti-aliasing by default: the fold-down is the
        // defense's signal), then level-dependent readout noise.
        let factor = (sample_rate / acc.sample_rate).max(1) as usize;
        let mut sampled = if acc.anti_alias {
            resample::decimate(&self.coupled, factor, sample_rate)
                .expect("factor >= 1 by construction")
        } else {
            resample::decimate_aliased(&self.coupled, factor).expect("factor >= 1 by construction")
        };
        let noise_std = acc.noise_std_for(low_rms);
        for v in &mut sampled {
            *v += noise_std * gen::standard_normal(rng);
        }

        let mut vib = AudioBuffer::new(sampled, acc.sample_rate);
        if let Some(motion) = &wearable.body_motion {
            motion.add_into(vib.samples_mut(), acc.sample_rate, rng);
        }
        vib
    }
}

/// Largest padded block whose pad [`ConversionEngine::convert`]
/// re-zeroes before the coupling filter. Recordings of 3, 5, 6 and 7
/// samples (padded to 4 or 8) are where skipping that step moves the
/// output far from the staged chain: on a sine sweep over both presets
/// and 20 seeds, 14–54 times the parity gate, against at most three
/// quarters of it at every length from 9 to 79 (the parity tests run
/// every length below 400).
const SHORT_BLOCK: usize = 8;

/// RMS of the `<= split_hz` band of the length-`len` signal whose
/// padded half-spectrum is `spec`, via Parseval's theorem: the energy
/// of the brick-wall-filtered signal equals the masked bin-energy sum
/// divided by the transform length, so no inverse transform (and no
/// full-size temporary) is needed to meter it.
///
/// Bin `k` of an `n`-point real FFT carries weight 2 except DC and
/// Nyquist, which appear once in the full spectrum. The band edge uses
/// the same `k * (sample_rate / n) <= split_hz` comparison the staged
/// chain's sampled brick-wall curve evaluates, so both paths mask the
/// identical bin set. The sum runs in f64: it is one scalar per
/// conversion and the staged oracle accumulates in time domain where
/// energy is spread over thousands of samples, so the cheap extra
/// precision keeps the parity gap down to the genuine
/// truncation-vs-padding difference.
fn low_band_rms_parseval(
    spec: &[Complex],
    n: usize,
    len: usize,
    sample_rate: u32,
    split_hz: f32,
) -> f32 {
    let bin_hz = sample_rate as f32 / n as f32;
    let mut energy = 0.0f64;
    for (k, c) in spec.iter().enumerate() {
        if k as f32 * bin_hz > split_hz {
            break;
        }
        let weight = if k == 0 || k == n / 2 { 1.0 } else { 2.0 };
        energy += weight * f64::from(c.norm_sq());
    }
    ((energy / n as f64 / len as f64).sqrt()) as f32
}

thread_local! {
    static ENGINE: RefCell<ConversionEngine> = RefCell::new(ConversionEngine::new());
}

/// Runs `f` with this thread's [`ConversionEngine`] — the per-thread
/// scratch-reuse entry point ([`Wearable::convert`] goes through it,
/// and pair call sites use it to reach
/// [`ConversionEngine::convert_pair`]).
///
/// # Panics
///
/// Panics if `f` re-enters `with_engine` on the same thread (the
/// engine is a single per-thread instance behind a `RefCell`).
pub fn with_engine<R>(f: impl FnOnce(&mut ConversionEngine) -> R) -> R {
    ENGINE.with(|e| f(&mut e.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::motion::BodyMotion;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use thrubarrier_dsp::{gen, stats};

    /// The staged per-effect conversion chain — speaker band-limit
    /// filter, coupling filter, rectification leak, ADC decimation,
    /// level-dependent noise, body motion, each stage a separate pass.
    /// The parity oracle for [`ConversionEngine::convert`]:
    /// mathematically the same computation, structured for auditability
    /// rather than speed.
    fn convert_staged<R: Rng + ?Sized>(
        w: &Wearable,
        recording: &[f32],
        sample_rate: u32,
        rng: &mut R,
    ) -> AudioBuffer {
        let played = w.speaker.play(recording, sample_rate);
        let mut vib = w.accelerometer.capture(&played, sample_rate, rng);
        if let Some(motion) = &w.body_motion {
            let rate = vib.sample_rate();
            motion.add_into(vib.samples_mut(), rate, rng);
        }
        vib
    }

    #[test]
    fn fused_output_has_staged_rate_and_length() {
        let w = Wearable::fossil_gen_5();
        let mut rng = StdRng::seed_from_u64(1);
        let sig = gen::chirp(200.0, 3_000.0, 0.1, 16_000, 1.0);
        let vib = with_engine(|e| e.convert(&w, &sig, 16_000, &mut rng));
        assert_eq!(vib.sample_rate(), 200);
        assert_eq!(vib.len(), 200);
        assert!(vib.rms() > 0.0);
    }

    #[test]
    fn convert_pair_is_two_sequential_converts() {
        let w = Wearable::fossil_gen_5().with_body_motion(BodyMotion::walking());
        let a = gen::chirp(150.0, 3_000.0, 0.1, 16_000, 0.7);
        let b = gen::chirp(300.0, 2_000.0, 0.1, 16_000, 0.5);
        let mut rng_pair = StdRng::seed_from_u64(9);
        let (pa, pb) = with_engine(|e| e.convert_pair(&w, &a, &b, 16_000, &mut rng_pair));
        let mut rng_seq = StdRng::seed_from_u64(9);
        let sa = w.convert(&a, 16_000, &mut rng_seq);
        let sb = w.convert(&b, 16_000, &mut rng_seq);
        assert_eq!(pa.samples(), sa.samples());
        assert_eq!(pb.samples(), sb.samples());
    }

    #[test]
    fn parseval_metering_matches_oracle_low_band_rms() {
        // Parseval on the speaker-weighted spectrum vs the staged
        // chain's filter-then-rms: same quantity up to the pad-region
        // energy the oracle truncates away.
        let w = Wearable::fossil_gen_5();
        let sig = gen::chirp(100.0, 3_000.0, 0.12, 16_000, 1.0);
        let played = w.speaker.play(&sig, 16_000);
        let n = fft::next_pow2(sig.len());
        let mut spec = Vec::new();
        fft::half_spectrum_into(&sig, n, &mut spec);
        w.speaker
            .response_curve(n, 16_000)
            .apply_to_spectrum(&mut spec);
        let fused = low_band_rms_parseval(
            &spec,
            n,
            sig.len(),
            16_000,
            crate::Accelerometer::LOW_BAND_SPLIT_HZ,
        );
        let key = thrubarrier_dsp::response::curve_key(0x4143_435F_4C4F, &[500.0f32]);
        let low = thrubarrier_dsp::response::filter_cached(key, &played, 16_000, |f| {
            if f <= 500.0 {
                1.0
            } else {
                0.0
            }
        });
        let oracle = stats::rms(&low);
        let rel = (fused - oracle).abs() / oracle.max(1e-12);
        assert!(rel < 0.05, "fused {fused} vs oracle {oracle} (rel {rel})");
    }

    #[test]
    fn empty_recording_keeps_rng_stream_aligned_with_staged() {
        let w = Wearable::fossil_gen_5().with_body_motion(BodyMotion::walking());
        let mut rng_fused = StdRng::seed_from_u64(5);
        let mut rng_staged = StdRng::seed_from_u64(5);
        let fused = w.convert(&[], 16_000, &mut rng_fused);
        let staged = convert_staged(&w, &[], 16_000, &mut rng_staged);
        assert!(fused.is_empty() && staged.is_empty());
        // Both paths must have consumed the same number of draws.
        use rand::Rng as _;
        assert_eq!(rng_fused.gen::<u64>(), rng_staged.gen::<u64>());
    }

    /// RMS of the elementwise difference of two equal-length conversions.
    fn diff_rms(a: &[f32], b: &[f32]) -> f64 {
        assert_eq!(a.len(), b.len());
        let mut num = 0.0f64;
        for (&x, &y) in a.iter().zip(b) {
            num += f64::from(x - y) * f64::from(x - y);
        }
        (num / a.len().max(1) as f64).sqrt()
    }

    /// Runs the fused engine and the staged oracle on the same seed and
    /// gates their difference with a hybrid relative + absolute tolerance.
    ///
    /// The gate is a tolerance, not bitwise equality, for two structural
    /// reasons (see the module docs): the staged chain
    /// truncates the played signal to the input length and re-pads with
    /// zeros before the coupling filter, while the fused path multiplies
    /// both curves on the untruncated spectrum; and Parseval noise metering
    /// integrates the whole padded block where the oracle's RMS sees only
    /// the truncated samples. The relative term bounds those edge effects
    /// (largest when the zero pad approaches half the FFT block — an
    /// empirical sweep across devices, lengths, ADC modes and seeds peaks
    /// near 17% of signal RMS at ~46% padding); the absolute term covers
    /// conversions whose output sits at the sensor noise floor, where a
    /// purely relative measure degenerates.
    fn assert_paths_agree(w: &Wearable, sig: &[f32], sample_rate: u32, seed: u64) {
        let fused = w.convert(sig, sample_rate, &mut StdRng::seed_from_u64(seed));
        let staged = convert_staged(w, sig, sample_rate, &mut StdRng::seed_from_u64(seed));
        assert_eq!(fused.len(), staged.len());
        assert_eq!(fused.sample_rate(), staged.sample_rate());
        let d = diff_rms(fused.samples(), staged.samples());
        let gate = 0.15 * f64::from(stats::rms(staged.samples()))
            + 2.0 * f64::from(w.accelerometer.noise_floor);
        assert!(
            d <= gate,
            "fused/staged diff rms {d} exceeds gate {gate} for len {} at {sample_rate} Hz",
            sig.len()
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        #[test]
        fn fused_matches_staged_across_devices_and_signals(
            device in 0usize..2,
            seed in 0u64..30,
            lo in 80.0f32..600.0,
            span in 400.0f32..3_000.0,
            amp in 0.05f32..1.5,
            dur in 0.02f32..0.25,
        ) {
            let w = if device == 0 { Wearable::fossil_gen_5() } else { Wearable::moto_360() };
            let sig = gen::chirp(lo, lo + span, dur, 16_000, amp);
            assert_paths_agree(&w, &sig, 16_000, seed);
        }

        #[test]
        fn fused_matches_staged_at_48khz(
            seed in 0u64..20,
            hi in 2_000.0f32..8_000.0,
            amp in 0.1f32..1.0,
        ) {
            let w = Wearable::fossil_gen_5();
            let sig = gen::chirp(200.0, hi, 0.05, 48_000, amp);
            assert_paths_agree(&w, &sig, 48_000, seed);
        }

        #[test]
        fn fused_matches_staged_with_anti_alias_adc(
            device in 0usize..2,
            seed in 0u64..20,
            amp in 0.1f32..1.0,
        ) {
            let mut w = if device == 0 { Wearable::fossil_gen_5() } else { Wearable::moto_360() };
            w.accelerometer.anti_alias = true;
            let sig = gen::chirp(150.0, 3_500.0, 0.08, 16_000, amp);
            assert_paths_agree(&w, &sig, 16_000, seed);
        }

        #[test]
        fn fused_matches_staged_under_body_motion(
            seed in 0u64..20,
            amp in 0.1f32..1.0,
        ) {
            // Body motion is orders of magnitude stronger than the converted
            // signal, and both paths mix bit-identical interference — so the
            // relative gap should tighten, not loosen.
            let w = Wearable::fossil_gen_5().with_body_motion(BodyMotion::walking());
            let sig = gen::chirp(300.0, 2_500.0, 0.1, 16_000, amp);
            assert_paths_agree(&w, &sig, 16_000, seed);
        }

    }

    #[test]
    fn fused_matches_staged_on_every_short_input() {
        // Short / empty inputs stress padding edge cases (n < one ADC
        // period, n == 1 → single-bin spectrum). Every length is run,
        // not a sample of them.
        let w = Wearable::moto_360();
        for n in 0..400usize {
            let sig: Vec<f32> = (0..n).map(|i| 0.3 * (i as f32 * 0.7).sin()).collect();
            for seed in 0..3 {
                assert_paths_agree(&w, &sig, 16_000, seed);
            }
        }
    }

    #[test]
    fn short_blocks_run_the_staged_chain_bitwise() {
        // A padded block of up to `SHORT_BLOCK` points (lengths 3, 5, 6
        // and 7) has its pad re-zeroed and its low band metered in time
        // domain, so the engine runs the staged chain exactly there.
        for w in [Wearable::fossil_gen_5(), Wearable::moto_360()] {
            for n in (1..SHORT_BLOCK).filter(|&n| n < fft::next_pow2(n)) {
                let sig: Vec<f32> = (0..n).map(|i| 0.3 * (i as f32 * 0.7).sin()).collect();
                for seed in 0..5 {
                    let fused = w.convert(&sig, 16_000, &mut StdRng::seed_from_u64(seed));
                    let staged = convert_staged(&w, &sig, 16_000, &mut StdRng::seed_from_u64(seed));
                    let bits = |b: &AudioBuffer| {
                        b.samples().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                    };
                    assert_eq!(bits(&fused), bits(&staged), "len {n}, seed {seed}");
                }
            }
        }
    }
}
