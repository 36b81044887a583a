//! Property-based tests for the cross-domain sensing substrate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use thrubarrier_dsp::{gen, stats};
use thrubarrier_vibration::motion::BodyMotion;
use thrubarrier_vibration::{Accelerometer, Wearable};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn capture_length_is_decimated_input_length(
        n in 1usize..40_000,
        seed in 0u64..50,
    ) {
        let acc = Accelerometer::smartwatch_200hz();
        let mut rng = StdRng::seed_from_u64(seed);
        let sig = vec![0.01f32; n];
        let vib = acc.capture(&sig, 16_000, &mut rng);
        prop_assert_eq!(vib.len(), n.div_ceil(80));
        prop_assert_eq!(vib.sample_rate(), 200);
    }

    #[test]
    fn capture_output_is_finite(seed in 0u64..50, amp in 0.0f32..0.5) {
        let acc = Accelerometer::smartwatch_200hz();
        let mut rng = StdRng::seed_from_u64(seed);
        let sig = gen::chirp(100.0, 4_000.0, amp, 16_000, 0.5);
        let vib = acc.capture(&sig, 16_000, &mut rng);
        prop_assert!(vib.samples().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn coupling_gain_is_nonnegative_and_bounded(f in 0.0f32..8_000.0) {
        let acc = Accelerometer::smartwatch_200hz();
        let g = acc.coupling_gain(f);
        prop_assert!((0.0..=1.0).contains(&g));
    }

    #[test]
    fn louder_wideband_excitation_gives_stronger_vibration(
        seed in 0u64..40,
        amp in 0.02f32..0.2,
    ) {
        let w = Wearable::fossil_gen_5();
        let quiet = gen::chirp(500.0, 3_000.0, amp, 16_000, 1.0);
        let loud = gen::chirp(500.0, 3_000.0, amp * 3.0, 16_000, 1.0);
        let vq = w.convert(&quiet, 16_000, &mut StdRng::seed_from_u64(seed));
        let vl = w.convert(&loud, 16_000, &mut StdRng::seed_from_u64(seed));
        prop_assert!(vl.rms() > vq.rms());
    }

    #[test]
    fn conversion_snr_favors_high_frequencies(
        lo in 100.0f32..400.0,
        hi in 1_200.0f32..3_000.0,
    ) {
        let acc = Accelerometer::smartwatch_200hz();
        let low_tone = gen::sine(lo, 0.1, 16_000, 0.5);
        let high_tone = gen::sine(hi, 0.1, 16_000, 0.5);
        let snr_low = acc.conversion_snr_db(&low_tone, 16_000);
        let snr_high = acc.conversion_snr_db(&high_tone, 16_000);
        prop_assert!(
            snr_high > snr_low,
            "low {lo} Hz: {snr_low} dB, high {hi} Hz: {snr_high} dB"
        );
    }

    #[test]
    fn body_motion_stays_below_5hz(seed in 0u64..50, amp in 0.005f32..0.1) {
        let mut rng = StdRng::seed_from_u64(seed);
        let motion = BodyMotion { amplitude: amp, dominant_hz: 1.5 };
        let sig = motion.generate(1_000, 200, &mut rng);
        let mags = thrubarrier_dsp::fft::magnitude_spectrum(&sig, 1_024);
        let bin_hz = 200.0 / 1_024.0;
        let above: f32 = mags
            .iter()
            .enumerate()
            .filter(|(k, _)| (*k as f32) * bin_hz >= 6.0)
            .map(|(_, &m)| m * m)
            .sum();
        let total: f32 = mags.iter().map(|&m| m * m).sum();
        prop_assert!(above < total * 0.03, "above-6Hz share {}", above / total); // 3% allows finite-window leakage
    }

    #[test]
    fn empty_and_tiny_inputs_are_safe(n in 0usize..5, seed in 0u64..20) {
        let w = Wearable::fossil_gen_5();
        let mut rng = StdRng::seed_from_u64(seed);
        let sig = vec![0.1f32; n];
        let vib = w.convert(&sig, 16_000, &mut rng);
        prop_assert!(vib.len() <= 1);
        prop_assert!(stats::rms(vib.samples()).is_finite());
    }
}
