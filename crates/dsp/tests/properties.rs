//! Property-based tests for the DSP substrate.

use proptest::prelude::*;
use thrubarrier_dsp::{
    complex::Complex, correlate, fft, resample, stats, stft::Stft, window::WindowKind,
};

fn signal_strategy(max_len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-1.0f32..1.0, 1..max_len)
}

/// The pre-plan FFT the crate shipped with: per-stage twiddle recurrence
/// (`w *= wlen`) instead of precomputed tables. Kept here verbatim as a
/// behavioural reference for the planned engine.
fn legacy_fft(buf: &mut [Complex], inverse: bool) {
    let n = buf.len();
    assert!(n.is_power_of_two());
    if n <= 1 {
        return;
    }
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if j > i {
            buf.swap(i, j);
        }
    }
    let sign = if inverse { 1.0f32 } else { -1.0f32 };
    let mut len = 2;
    while len <= n {
        let ang = sign * std::f32::consts::TAU / len as f32;
        let wlen = Complex::from_polar(1.0, ang);
        let half = len / 2;
        for start in (0..n).step_by(len) {
            let mut w = Complex::ONE;
            for k in 0..half {
                let a = buf[start + k];
                let b = buf[start + k + half] * w;
                buf[start + k] = a + b;
                buf[start + k + half] = a - b;
                w *= wlen;
            }
        }
        len <<= 1;
    }
    if inverse {
        for v in buf.iter_mut() {
            *v = v.scale(1.0 / n as f32);
        }
    }
}

proptest! {
    #[test]
    fn fft_ifft_roundtrip_recovers_signal(sig in signal_strategy(256)) {
        let n = fft::next_pow2(sig.len());
        let mut buf: Vec<Complex> = sig.iter().map(|&x| Complex::from_real(x)).collect();
        buf.resize(n, Complex::ZERO);
        fft::fft_in_place(&mut buf).unwrap();
        fft::ifft_in_place(&mut buf).unwrap();
        for (orig, got) in sig.iter().zip(&buf) {
            prop_assert!((orig - got.re).abs() < 1e-3);
            prop_assert!(got.im.abs() < 1e-3);
        }
    }

    #[test]
    fn fft_is_linear(a in signal_strategy(128), k in -4.0f32..4.0) {
        let n = fft::next_pow2(a.len());
        let scaled: Vec<f32> = a.iter().map(|x| x * k).collect();
        let fa = fft::fft_padded(&a, n);
        let fs = fft::fft_padded(&scaled, n);
        for (x, y) in fa.iter().zip(&fs) {
            prop_assert!((x.re * k - y.re).abs() < 1e-2);
            prop_assert!((x.im * k - y.im).abs() < 1e-2);
        }
    }

    #[test]
    fn parseval_holds(sig in signal_strategy(256)) {
        let time_energy: f32 = sig.iter().map(|x| x * x).sum();
        let spec = fft::fft_padded(&sig, 0);
        let freq_energy: f32 =
            spec.iter().map(|c| c.norm_sq()).sum::<f32>() / spec.len() as f32;
        prop_assert!((time_energy - freq_energy).abs() <= 1e-2 * time_energy.max(1.0));
    }

    #[test]
    fn pearson_is_bounded_and_symmetric(
        a in prop::collection::vec(-10.0f32..10.0, 4..64),
        seed in 0u64..1000,
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let b: Vec<f32> = (0..a.len()).map(|_| rng.gen_range(-10.0..10.0)).collect();
        let r_ab = stats::pearson(&a, &b);
        let r_ba = stats::pearson(&b, &a);
        prop_assert!((-1.0 - 1e-4..=1.0 + 1e-4).contains(&r_ab));
        prop_assert!((r_ab - r_ba).abs() < 1e-5);
    }

    #[test]
    fn pearson_is_scale_and_shift_invariant(
        a in prop::collection::vec(-10.0f32..10.0, 4..64),
        scale in 0.1f32..5.0,
        shift in -5.0f32..5.0,
    ) {
        let b: Vec<f32> = a.iter().map(|x| x * scale + shift).collect();
        // Skip degenerate constant inputs.
        if stats::std_dev(&a) > 1e-3 {
            prop_assert!((stats::pearson(&a, &b) - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn percentile_is_monotone_in_p(xs in prop::collection::vec(-100.0f32..100.0, 1..64)) {
        let p25 = stats::percentile(&xs, 25.0);
        let p50 = stats::percentile(&xs, 50.0);
        let p75 = stats::percentile(&xs, 75.0);
        prop_assert!(p25 <= p50 + 1e-6);
        prop_assert!(p50 <= p75 + 1e-6);
    }

    #[test]
    fn percentile_is_bounded_by_extremes(xs in prop::collection::vec(-100.0f32..100.0, 1..64), p in 0.0f32..100.0) {
        let v = stats::percentile(&xs, p);
        let min = xs.iter().cloned().fold(f32::INFINITY, f32::min);
        let max = xs.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        prop_assert!(v >= min - 1e-6 && v <= max + 1e-6);
    }

    #[test]
    fn delay_estimation_roundtrip(lag in 0usize..200, seed in 0u64..100) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let reference = thrubarrier_dsp::gen::gaussian_noise(&mut rng, 1.0, 1_000);
        let mut delayed = vec![0.0f32; lag];
        delayed.extend_from_slice(&reference);
        let est = correlate::estimate_delay(&reference, &delayed, 256).unwrap();
        // Lags beyond the search bound clamp to the bound.
        if lag <= 256 {
            prop_assert_eq!(est, lag as isize);
        }
    }

    /// The FFT path of the full correlation is a tolerance-gated drop-in
    /// for the exact time-domain oracle on mixed lengths, including the
    /// degenerate N=1 and strongly asymmetric N>>M shapes.
    #[test]
    fn fft_cross_correlation_matches_time_domain_oracle(
        a in prop::collection::vec(-1.0f32..1.0, 1..400),
        b_len in prop::sample::select(vec![1usize, 2, 7, 63, 64, 350]),
        seed in 0u64..1000,
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let b: Vec<f32> = (0..b_len).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let oracle = correlate::cross_correlate_time(&a, &b);
        for path in [correlate::XcorrPath::Fft, correlate::XcorrPath::OverlapSave] {
            let fast = correlate::cross_correlate_with(&a, &b, path).unwrap();
            prop_assert_eq!(fast.len(), oracle.len());
            let scale = oracle.iter().fold(1.0f32, |m, &v| m.max(v.abs()));
            for (i, (f, r)) in fast.iter().zip(&oracle).enumerate() {
                prop_assert!(
                    (f - r).abs() / scale < 1e-4,
                    "{:?} sample {}: {} vs {}", path, i, f, r
                );
            }
        }
    }

    /// Every bounded-lag search path recovers a genuinely embedded delay
    /// exactly; the auto path must match whichever it picked.
    #[test]
    fn bounded_lag_paths_agree_on_embedded_delay(
        lag in 0usize..500,
        len in 600usize..2_000,
        max_lag in 500usize..700,
        seed in 0u64..500,
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let reference = thrubarrier_dsp::gen::gaussian_noise(&mut rng, 1.0, len);
        let mut delayed = vec![0.0f32; lag];
        delayed.extend_from_slice(&reference);
        for search in [
            correlate::LagSearch::Auto,
            correlate::LagSearch::TimeDomain,
            correlate::LagSearch::Fft,
        ] {
            let est =
                correlate::estimate_delay_with(&reference, &delayed, max_lag, search).unwrap();
            prop_assert_eq!(est, lag as isize, "{:?}", search);
        }
    }

    /// On arbitrary (not necessarily peaked) signal pairs the FFT window
    /// agrees with the exhaustive time-domain window: same argmax unless
    /// the surface is near-tied at f32 tolerance, in which case the two
    /// winners' correlation values must be indistinguishable.
    #[test]
    fn bounded_lag_fft_matches_exhaustive_on_arbitrary_pairs(
        a in prop::collection::vec(-1.0f32..1.0, 1..300),
        b in prop::collection::vec(-1.0f32..1.0, 1..300),
        max_lag in 0usize..400,
    ) {
        let exact =
            correlate::estimate_delay_with(&b, &a, max_lag, correlate::LagSearch::TimeDomain)
                .unwrap();
        let fft =
            correlate::estimate_delay_with(&b, &a, max_lag, correlate::LagSearch::Fft).unwrap();
        if exact != fft {
            // Tolerance gate: both winning lags carry the same score up
            // to transform rounding.
            let full = correlate::cross_correlate_time(&a, &b);
            let zero = b.len() as isize - 1;
            let v_exact = full[(zero + exact) as usize];
            let v_fft = full[(zero + fft) as usize];
            let scale = full.iter().fold(1.0f32, |m, &v| m.max(v.abs()));
            prop_assert!(
                (v_exact - v_fft).abs() / scale < 1e-3,
                "argmax moved {} -> {} with gap {} vs {}", exact, fft, v_exact, v_fft
            );
        }
    }

    #[test]
    fn align_by_delay_inverts_prepended_zeros(sig in signal_strategy(128), lag in 0usize..32) {
        let mut delayed = vec![0.0f32; lag];
        delayed.extend_from_slice(&sig);
        let aligned = correlate::align_by_delay(&delayed, lag as isize);
        prop_assert_eq!(aligned, sig);
    }

    #[test]
    fn decimate_aliased_length(sig in signal_strategy(512), factor in 1usize..16) {
        let out = resample::decimate_aliased(&sig, factor).unwrap();
        prop_assert_eq!(out.len(), sig.len().div_ceil(factor));
    }

    #[test]
    fn alias_frequency_is_within_nyquist(f in 0.0f32..20_000.0) {
        let fa = resample::alias_frequency(f, 200.0);
        prop_assert!((0.0..=100.0).contains(&fa));
    }

    #[test]
    fn window_coefficients_are_bounded(n in 0usize..512) {
        for kind in [WindowKind::Rectangular, WindowKind::Hann, WindowKind::Hamming, WindowKind::Blackman] {
            for &w in &kind.coefficients(n) {
                prop_assert!((-1e-6..=1.0 + 1e-6).contains(&w));
            }
        }
    }

    #[test]
    fn spectrogram_frame_count_matches_prediction(len in 1usize..2_000) {
        let stft = Stft::vibration_default();
        let sig = vec![0.1f32; len];
        let spec = stft.power_spectrogram(&sig, 200);
        prop_assert_eq!(spec.frames(), stft.frame_count(len));
    }

    #[test]
    fn power_spectrogram_is_nonnegative(sig in signal_strategy(512)) {
        let spec = Stft::vibration_default().power_spectrogram(&sig, 200);
        for row in spec.rows() {
            for &v in row {
                prop_assert!(v >= 0.0);
            }
        }
    }

    #[test]
    fn normalized_spectrogram_max_is_one_or_zero(sig in signal_strategy(512)) {
        let mut spec = Stft::vibration_default().power_spectrogram(&sig, 200);
        spec.normalize_by_max();
        let m = spec.max_value();
        prop_assert!(m == 0.0 || (m - 1.0).abs() < 1e-5);
    }

    #[test]
    fn correlation_2d_self_is_one_for_nonconstant(
        rows in prop::collection::vec(prop::collection::vec(0.0f32..1.0, 8), 2..16),
    ) {
        let flat: Vec<f32> = rows.iter().flatten().copied().collect();
        if stats::std_dev(&flat) > 1e-3 {
            let r = correlate::correlation_2d(&rows, &rows).unwrap();
            prop_assert!((r - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn db_amplitude_roundtrip(db in -80.0f32..40.0) {
        let amp = stats::db_to_amplitude(db);
        prop_assert!((stats::amplitude_to_db(amp) - db).abs() < 1e-3);
    }

    #[test]
    fn planned_fft_matches_legacy_recurrence_fft(
        exp in 0usize..12,
        seed in 0u64..1000,
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let n = 1usize << exp; // power-of-two sizes up to 2048
        let inverse = seed % 2 == 0;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut planned: Vec<Complex> = (0..n)
            .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let mut legacy = planned.clone();
        if inverse {
            fft::ifft_in_place(&mut planned).unwrap();
        } else {
            fft::fft_in_place(&mut planned).unwrap();
        }
        legacy_fft(&mut legacy, inverse);
        let scale = legacy
            .iter()
            .map(|c| c.norm())
            .fold(1e-6f32, f32::max);
        for (p, l) in planned.iter().zip(&legacy) {
            // The legacy recurrence drifts; the planned tables are exact
            // per entry, so the gap is bounded by the recurrence error.
            prop_assert!((*p - *l).norm() / scale < 2e-3);
        }
    }

    #[test]
    fn response_curve_matches_direct_closure_filter(
        sig in signal_strategy(512),
        cutoff in 100.0f32..7_000.0,
    ) {
        use thrubarrier_dsp::response;
        let direct = fft::apply_frequency_response(&sig, 16_000, |f| {
            if f < cutoff { 1.0 } else { (cutoff / f).powi(2) }
        });
        let key = response::curve_key(0x5052_4F50, &[cutoff]);
        let cached = response::filter_cached(key, &sig, 16_000, move |f| {
            if f < cutoff { 1.0 } else { (cutoff / f).powi(2) }
        });
        prop_assert_eq!(direct.len(), cached.len());
        for (d, c) in direct.iter().zip(&cached) {
            prop_assert!((d - c).abs() < 1e-5);
        }
    }

    #[test]
    fn contiguous_spectrogram_roundtrips_like_nested_rows(
        sig in signal_strategy(1_024),
        crop_hz in 0.0f32..40.0,
    ) {
        let stft = Stft::vibration_default();
        let mut spec = stft.power_spectrogram(&sig, 200);
        // Snapshot the nested-row view before mutating.
        let before: Vec<Vec<f32>> = spec.rows().map(<[f32]>::to_vec).collect();
        spec.crop_low_frequencies(crop_hz);
        // The crop is a metadata change: every surviving value must equal
        // the tail of the corresponding pre-crop row.
        let dropped = before.first().map_or(0, |r| r.len() - spec.bins());
        for (row, full) in spec.rows().zip(&before) {
            prop_assert_eq!(row, &full[dropped..]);
        }
        // flatten_frames agrees with walking rows() in order.
        let walked: Vec<f32> = spec.rows().flatten().copied().collect();
        prop_assert_eq!(spec.flatten_frames(spec.frames()), walked);
        // normalize_by_max scales every visible value by the same factor.
        let max = spec.max_value();
        let mut normed = spec.clone();
        normed.normalize_by_max();
        if max > 0.0 {
            for (r, n) in spec.rows().zip(normed.rows()) {
                for (&a, &b) in r.iter().zip(n) {
                    prop_assert!((a / max - b).abs() < 1e-6);
                }
            }
        } else {
            prop_assert_eq!(spec, normed);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Overlap-save frequency-domain convolution is a drop-in for the
    /// direct O(N·M) form on arbitrary signal/IR lengths.
    #[test]
    fn overlap_save_convolution_matches_direct_form(
        signal in signal_strategy(600),
        ir in signal_strategy(80),
    ) {
        let fast = thrubarrier_dsp::filter::overlap_save_convolve(&signal, &ir);
        let mut reference = vec![0.0f32; signal.len() + ir.len() - 1];
        for (i, &s) in signal.iter().enumerate() {
            for (k, &h) in ir.iter().enumerate() {
                reference[i + k] += s * h;
            }
        }
        prop_assert_eq!(fast.len(), reference.len());
        let scale = reference.iter().fold(1.0f32, |a, &b| a.max(b.abs()));
        for (i, (f, r)) in fast.iter().zip(&reference).enumerate() {
            prop_assert!(
                (f - r).abs() / scale < 1e-4,
                "sample {}: {} vs {}", i, f, r
            );
        }
    }
}
