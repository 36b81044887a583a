//! Cross-correlation engine, bounded-lag delay estimation and 2-D Pearson
//! correlation.
//!
//! * The cross-device synchronization step (paper Eq. 5) aligns the VA and
//!   wearable recordings with the lag that maximizes their
//!   cross-correlation. [`estimate_delay`] implements it with a
//!   **bounded-lag** correlator: only the `±max_lag` window of the
//!   correlation is ever materialized, by size-selected choice between a
//!   windowed time-domain scan and frequency-domain circular correlation
//!   on the planned real transform (both exact; the time-domain path
//!   doubles as the parity oracle).
//! * [`cross_correlate`] produces the full `N + M - 1` linear correlation
//!   the same way: direct form for small inputs, conjugate-multiply FFT
//!   for the common case, and an overlap-save pass (sharing
//!   [`crate::filter::overlap_save_convolve`]) for long-signal /
//!   short-template shapes.
//! * The attack detector (paper Eq. 6) scores the similarity of two
//!   normalized vibration spectrograms with a 2-D correlation
//!   coefficient; [`spectrogram_correlation`] implements it directly on
//!   the contiguous [`Spectrogram`] layout, and [`correlation_2d`] on raw
//!   row vectors.
//!
//! Every frequency-domain path rounds its transform length up via
//! [`fft::next_pow2`] before touching [`fft::with_plan`], so the
//! power-of-two requirement of the plan cache can never surface as a
//! panic from this module.

use crate::complex::Complex;
use crate::error::DspError;
use crate::fft;
use crate::filter;
use crate::stats;
use crate::stft::Spectrogram;

/// Path selection for the full linear correlation ([`cross_correlate_with`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum XcorrPath {
    /// Pick a path from the input lengths (measured crossovers; see the
    /// constants in this module).
    #[default]
    Auto,
    /// Direct `O(N·M)` time-domain correlation — exact arithmetic, used
    /// as the parity oracle for the fast paths.
    TimeDomain,
    /// Full-signal FFT correlation: conjugate multiply of the two padded
    /// half spectra on the planned real-input transform.
    Fft,
    /// Overlap-save correlation for long-signal / short-template shapes:
    /// the short side's spectrum is computed once and the long side
    /// streams through fixed-size blocks, keeping per-sample cost
    /// `O(log template)` instead of `O(log(N + M))`.
    OverlapSave,
}

/// Path selection for the bounded-lag search ([`estimate_delay_with`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LagSearch {
    /// Pick a path from the input lengths and the lag-window width
    /// (measured crossovers; see the constants in this module).
    #[default]
    Auto,
    /// Windowed time-domain scan: one dot product per candidate lag,
    /// `O(W·min(N, M))` total — exact, and the oracle for the others.
    TimeDomain,
    /// Circular FFT correlation sized `next_pow2(max(N, M) + max_lag)` —
    /// roughly half the transform of the full `2N−1` correlation — from
    /// which only the `±max_lag` window is read.
    Fft,
}

/// `min(N, M) · max(N, M)` multiply-adds below which the direct form wins
/// the full correlation (measured on the bench host: the direct form ran
/// 3x faster at 4k MACs and lost from ~16k MACs up, where the FFT's
/// fixed plan-lookup + pack/unpack overhead stops dominating).
const XCORR_TIME_MAX_MACS: usize = 1 << 13;

/// Overlap-save only pays off when the template's spectrum is reused
/// across many blocks: template at most this long ...
const OVERLAP_SAVE_MAX_TEMPLATE: usize = 4_096;

/// ... and the other input at least this factor longer. Below the ratio
/// the single big FFT is measurably cheaper than the block stream.
const OVERLAP_SAVE_MIN_RATIO: usize = 8;

/// `W · min(N, M)` multiply-adds below which the windowed time-domain
/// scan beats the bounded FFT (measured on the bench host: the FFT path
/// costs three transforms regardless of how narrow the window is, and
/// won from ~64k MACs up — e.g. already 1.8x at N=512, W=257).
const LAG_TIME_MAX_MACS: usize = 1 << 15;

/// Full linear cross-correlation of `a` and `b`, path chosen by input
/// size ([`XcorrPath::Auto`]).
///
/// The output has length `a.len() + b.len() - 1`; index
/// `k` corresponds to lag `k - (b.len() - 1)` of `a` relative to `b`.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] if either input is empty.
pub fn cross_correlate(a: &[f32], b: &[f32]) -> Result<Vec<f32>, DspError> {
    cross_correlate_with(a, b, XcorrPath::Auto)
}

/// [`cross_correlate`] with an explicit path (parity tests and benches
/// force each one; [`XcorrPath::Auto`] reproduces the public behaviour).
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] if either input is empty.
pub fn cross_correlate_with(a: &[f32], b: &[f32], path: XcorrPath) -> Result<Vec<f32>, DspError> {
    if a.is_empty() {
        return Err(DspError::EmptyInput("cross_correlate lhs"));
    }
    if b.is_empty() {
        return Err(DspError::EmptyInput("cross_correlate rhs"));
    }
    let _span = thrubarrier_obs::span!("dsp.cross_correlate");
    let path = match path {
        XcorrPath::Auto => choose_xcorr_path(a.len(), b.len()),
        p => p,
    };
    match path {
        XcorrPath::TimeDomain => {
            thrubarrier_obs::counter!("dsp.xcorr.path.time").incr();
            Ok(cross_correlate_time(a, b))
        }
        XcorrPath::Fft => {
            thrubarrier_obs::counter!("dsp.xcorr.path.fft").incr();
            Ok(xcorr_fft_full(a, b))
        }
        XcorrPath::OverlapSave => {
            thrubarrier_obs::counter!("dsp.xcorr.path.overlap_save").incr();
            Ok(xcorr_overlap_save(a, b))
        }
        XcorrPath::Auto => unreachable!("Auto resolved above"),
    }
}

/// Measured size heuristic for [`XcorrPath::Auto`].
fn choose_xcorr_path(n: usize, m: usize) -> XcorrPath {
    let short = n.min(m);
    let long = n.max(m);
    if short.saturating_mul(long) <= XCORR_TIME_MAX_MACS {
        XcorrPath::TimeDomain
    } else if short <= OVERLAP_SAVE_MAX_TEMPLATE && long / short >= OVERLAP_SAVE_MIN_RATIO {
        XcorrPath::OverlapSave
    } else {
        XcorrPath::Fft
    }
}

/// Direct `O(N·M)` cross-correlation with [`cross_correlate`]'s exact
/// output layout. Exact (no transform rounding): this is the parity
/// oracle the proptests pin the fast paths against. Empty inputs yield
/// an empty output.
pub fn cross_correlate_time(a: &[f32], b: &[f32]) -> Vec<f32> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let m = b.len() as isize;
    let out_len = a.len() + b.len() - 1;
    (0..out_len as isize)
        .map(|k| lag_dot(a, b, k - (m - 1)))
        .collect()
}

/// One correlation value: `c[lag] = Σ_i a[i] · b[i − lag]` over the
/// overlapping support (zero when the supports are disjoint).
fn lag_dot(a: &[f32], b: &[f32], lag: isize) -> f32 {
    let i0 = lag.max(0);
    let i1 = (a.len() as isize).min(b.len() as isize + lag);
    if i1 <= i0 {
        return 0.0;
    }
    let ai = &a[i0 as usize..i1 as usize];
    let bi = &b[(i0 - lag) as usize..];
    ai.iter().zip(bi).map(|(x, y)| x * y).sum()
}

/// Full correlation via one conjugate multiply of the padded half
/// spectra (transform length `next_pow2(N + M - 1)`).
fn xcorr_fft_full(a: &[f32], b: &[f32]) -> Vec<f32> {
    let out_len = a.len() + b.len() - 1;
    let n = fft::next_pow2(out_len);
    // Both inputs are real, so only the non-negative half spectra are
    // needed: their product is conjugate-symmetric, and the planned real
    // inverse reconstructs the correlation at half the transform cost of
    // the full complex route.
    let mut fa: Vec<Complex> = Vec::new();
    let mut fb: Vec<Complex> = Vec::new();
    fft::half_spectrum_into(a, n, &mut fa);
    // Reverse b to turn convolution into correlation.
    let rb: Vec<f32> = b.iter().rev().copied().collect();
    fft::half_spectrum_into(&rb, n, &mut fb);
    for (x, y) in fa.iter_mut().zip(&fb) {
        *x *= *y;
    }
    let mut out = Vec::new();
    fft::real_inverse_into(&fa, n, &mut out);
    out.truncate(out_len);
    out
}

/// Full correlation as an overlap-save convolution with the reversed
/// template. Convolution commutes, so the shorter input always serves as
/// the template whose spectrum is computed once.
fn xcorr_overlap_save(a: &[f32], b: &[f32]) -> Vec<f32> {
    let rb: Vec<f32> = b.iter().rev().copied().collect();
    // cross_correlate(a, b) == convolve(a, reverse(b)), index for index.
    if b.len() <= a.len() {
        filter::overlap_save_convolve(a, &rb)
    } else {
        filter::overlap_save_convolve(&rb, a)
    }
}

/// Estimates the delay (in samples) of `delayed` relative to `reference`
/// by maximizing the cross-correlation over `±max_lag`, materializing
/// only that window ([`LagSearch::Auto`]). A positive return value means
/// `delayed` starts `k` samples later than `reference`.
///
/// `max_lag` bounds the search (use e.g. 2x the worst-case network delay).
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] if either input is empty.
///
/// # Example
///
/// ```
/// use thrubarrier_dsp::{correlate, gen};
///
/// # fn main() -> Result<(), thrubarrier_dsp::DspError> {
/// let reference = gen::chirp(100.0, 1_000.0, 1.0, 16_000, 0.2);
/// let mut delayed = vec![0.0; 37];
/// delayed.extend_from_slice(&reference);
/// let lag = correlate::estimate_delay(&reference, &delayed, 100)?;
/// assert_eq!(lag, 37);
/// # Ok(())
/// # }
/// ```
pub fn estimate_delay(
    reference: &[f32],
    delayed: &[f32],
    max_lag: usize,
) -> Result<isize, DspError> {
    estimate_delay_with(reference, delayed, max_lag, LagSearch::Auto)
}

/// [`estimate_delay`] with an explicit search path (parity tests and
/// benches force each one; [`LagSearch::Auto`] reproduces the public
/// behaviour).
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] if either input is empty.
pub fn estimate_delay_with(
    reference: &[f32],
    delayed: &[f32],
    max_lag: usize,
    search: LagSearch,
) -> Result<isize, DspError> {
    if delayed.is_empty() {
        return Err(DspError::EmptyInput("estimate_delay delayed"));
    }
    if reference.is_empty() {
        return Err(DspError::EmptyInput("estimate_delay reference"));
    }
    let _span = thrubarrier_obs::span!("dsp.estimate_delay");
    // Lags of `delayed` relative to `reference` with any overlap at all
    // live in [-(M-1), N-1]; clamp the requested window to that range.
    let lag_lo = -(max_lag.min(reference.len() - 1) as isize);
    let lag_hi = max_lag.min(delayed.len() - 1) as isize;
    let search = match search {
        LagSearch::Auto => choose_lag_search(
            delayed.len(),
            reference.len(),
            (lag_hi - lag_lo + 1) as usize,
        ),
        s => s,
    };
    let lag = match search {
        LagSearch::TimeDomain => {
            thrubarrier_obs::counter!("dsp.estimate_delay.path.time").incr();
            let window = bounded_window_time(delayed, reference, lag_lo, lag_hi);
            lag_lo + stats::argmax(&window).expect("window is non-empty") as isize
        }
        LagSearch::Fft => {
            thrubarrier_obs::counter!("dsp.estimate_delay.path.fft").incr();
            let window = bounded_window_fft(delayed, reference, lag_lo, lag_hi);
            lag_lo + stats::argmax(&window).expect("window is non-empty") as isize
        }
        LagSearch::Auto => unreachable!("Auto resolved above"),
    };
    Ok(lag)
}

/// Measured size heuristic for [`LagSearch::Auto`]: picks between the
/// two exact searches. (A decimate-then-refine search was tried and
/// dropped: on near-tied and flat correlation surfaces it moved the
/// argmax and shifted downstream detection scores on the eval corpus.)
fn choose_lag_search(n: usize, m: usize, window: usize) -> LagSearch {
    let short = n.min(m);
    if window.saturating_mul(short) <= LAG_TIME_MAX_MACS {
        LagSearch::TimeDomain
    } else {
        LagSearch::Fft
    }
}

/// The `lag_lo..=lag_hi` correlation window of `a` against `b`, one
/// exact dot product per lag.
fn bounded_window_time(a: &[f32], b: &[f32], lag_lo: isize, lag_hi: isize) -> Vec<f32> {
    (lag_lo..=lag_hi).map(|lag| lag_dot(a, b, lag)).collect()
}

/// The same window via circular FFT correlation. The transform length
/// `next_pow2(max(N + |lag_lo|, M + lag_hi))` is exactly what keeps the
/// window free of circular aliasing — for the sync workload (N ≈ M ≈ 1 s,
/// `max_lag` ≈ 0.25 s) it is half the `next_pow2(N + M - 1)` transform
/// of the full correlation.
fn bounded_window_fft(a: &[f32], b: &[f32], lag_lo: isize, lag_hi: isize) -> Vec<f32> {
    let n_fft = fft::next_pow2(
        (a.len() + lag_lo.unsigned_abs()).max(b.len() + lag_hi.max(0).unsigned_abs()),
    );
    let mut fa: Vec<Complex> = Vec::new();
    let mut fb: Vec<Complex> = Vec::new();
    fft::half_spectrum_into(a, n_fft, &mut fa);
    fft::half_spectrum_into(b, n_fft, &mut fb);
    // X(f)·conj(Y(f)) is the spectrum of the circular correlation
    // Σ_i a[i]·b[(i − k) mod n]; with the padding above, the window's
    // lags never wrap into occupied samples.
    for (x, y) in fa.iter_mut().zip(&fb) {
        *x *= y.conj();
    }
    let mut circ = Vec::new();
    fft::real_inverse_into(&fa, n_fft, &mut circ);
    (lag_lo..=lag_hi)
        .map(|lag| circ[lag.rem_euclid(n_fft as isize) as usize])
        .collect()
}

/// Removes the first `delay` samples if positive, or prepends zeros if
/// negative, returning a signal aligned with the reference.
pub fn align_by_delay(signal: &[f32], delay: isize) -> Vec<f32> {
    if delay >= 0 {
        let d = delay as usize;
        if d >= signal.len() {
            Vec::new()
        } else {
            signal[d..].to_vec()
        }
    } else {
        let d = (-delay) as usize;
        let mut out = vec![0.0; d];
        out.extend_from_slice(signal);
        out
    }
}

/// 2-D correlation coefficient between two feature maps (paper Eq. 6).
///
/// Both maps are flattened over their common time support (the first
/// `min(frames)` rows) and compared with a Pearson correlation
/// coefficient. Returns a value in `[-1, 1]`; `0.0` when either map is
/// constant or when there is no overlap.
///
/// # Errors
///
/// Returns [`DspError::DimensionMismatch`] if the maps have different bin
/// counts.
pub fn correlation_2d(a: &[Vec<f32>], b: &[Vec<f32>]) -> Result<f32, DspError> {
    let frames = a.len().min(b.len());
    if frames == 0 {
        return Ok(0.0);
    }
    let bins_a = a[0].len();
    let bins_b = b[0].len();
    if bins_a != bins_b {
        return Err(DspError::DimensionMismatch {
            left: bins_a,
            right: bins_b,
        });
    }
    let fa: Vec<f32> = a.iter().take(frames).flatten().copied().collect();
    let fb: Vec<f32> = b.iter().take(frames).flatten().copied().collect();
    Ok(stats::pearson(&fa, &fb))
}

/// [`correlation_2d`] specialized to [`Spectrogram`]s: the same Pearson
/// score (identical arithmetic and result), computed by streaming over
/// the spectrograms' contiguous rows without flattening either map into a
/// temporary vector.
///
/// # Errors
///
/// Returns [`DspError::DimensionMismatch`] if the spectrograms have
/// different bin counts.
pub fn spectrogram_correlation(a: &Spectrogram, b: &Spectrogram) -> Result<f32, DspError> {
    let _span = thrubarrier_obs::span!("dsp.correlation_2d");
    let frames = a.frames().min(b.frames());
    if frames == 0 {
        return Ok(0.0);
    }
    if a.bins() != b.bins() {
        return Err(DspError::DimensionMismatch {
            left: a.bins(),
            right: b.bins(),
        });
    }
    let count = frames * a.bins();
    if count == 0 {
        return Ok(0.0);
    }
    // Mirror `stats::pearson` exactly: f32 means, then f64-accumulated
    // mean-centered moments, walking values in row-major order.
    let ma = a.rows().take(frames).flatten().sum::<f32>() / count as f32;
    let mb = b.rows().take(frames).flatten().sum::<f32>() / count as f32;
    let mut cov = 0.0f64;
    let mut va = 0.0f64;
    let mut vb = 0.0f64;
    for (ra, rb) in a.rows().take(frames).zip(b.rows().take(frames)) {
        for (&x, &y) in ra.iter().zip(rb) {
            let dx = (x - ma) as f64;
            let dy = (y - mb) as f64;
            cov += dx * dy;
            va += dx * dx;
            vb += dy * dy;
        }
    }
    if va <= f64::EPSILON || vb <= f64::EPSILON {
        return Ok(0.0);
    }
    Ok((cov / (va.sqrt() * vb.sqrt())) as f32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const ALL_XCORR_PATHS: [XcorrPath; 4] = [
        XcorrPath::Auto,
        XcorrPath::TimeDomain,
        XcorrPath::Fft,
        XcorrPath::OverlapSave,
    ];

    const ALL_LAG_SEARCHES: [LagSearch; 3] =
        [LagSearch::Auto, LagSearch::TimeDomain, LagSearch::Fft];

    #[test]
    fn cross_correlation_matches_naive_on_every_path() {
        let a = [1.0f32, 2.0, 3.0];
        let b = [0.5f32, -1.0];
        // Naive correlation: c[k] = sum_i a[i] * b[i - (k - (len_b - 1))].
        let mut naive = vec![0.0f32; a.len() + b.len() - 1];
        for (k, slot) in naive.iter_mut().enumerate() {
            let lag = k as isize - (b.len() as isize - 1);
            let mut acc = 0.0;
            for (i, &ai) in a.iter().enumerate() {
                let j = i as isize - lag;
                if j >= 0 && (j as usize) < b.len() {
                    acc += ai * b[j as usize];
                }
            }
            *slot = acc;
        }
        for path in ALL_XCORR_PATHS {
            let fast = cross_correlate_with(&a, &b, path).unwrap();
            assert_eq!(fast.len(), naive.len());
            for (f, n) in fast.iter().zip(&naive) {
                assert!((f - n).abs() < 1e-4, "{path:?}: {fast:?} vs {naive:?}");
            }
        }
    }

    #[test]
    fn empty_inputs_are_rejected() {
        assert!(cross_correlate(&[], &[1.0]).is_err());
        assert!(cross_correlate(&[1.0], &[]).is_err());
        assert!(estimate_delay(&[], &[1.0], 4).is_err());
        assert!(estimate_delay(&[1.0], &[], 4).is_err());
    }

    #[test]
    fn single_sample_inputs_work_on_every_path() {
        for path in ALL_XCORR_PATHS {
            let c = cross_correlate_with(&[2.0], &[3.0], path).unwrap();
            assert_eq!(c.len(), 1);
            assert!((c[0] - 6.0).abs() < 1e-5, "{path:?}: {c:?}");
        }
        for search in ALL_LAG_SEARCHES {
            assert_eq!(estimate_delay_with(&[1.0], &[1.0], 10, search).unwrap(), 0);
        }
    }

    #[test]
    fn overlap_save_path_handles_short_lhs() {
        // The template side may be either argument; both orders must
        // produce the directed correlation of (a, b).
        let long: Vec<f32> = (0..500)
            .map(|i| ((i * 7) % 13) as f32 * 0.1 - 0.6)
            .collect();
        let short: Vec<f32> = (0..9).map(|i| ((i * 5) % 11) as f32 * 0.2 - 1.0).collect();
        for (a, b) in [(&long[..], &short[..]), (&short[..], &long[..])] {
            let fast = cross_correlate_with(a, b, XcorrPath::OverlapSave).unwrap();
            let oracle = cross_correlate_time(a, b);
            assert_eq!(fast.len(), oracle.len());
            let scale = oracle.iter().fold(1.0f32, |m, &v| m.max(v.abs()));
            for (i, (f, r)) in fast.iter().zip(&oracle).enumerate() {
                assert!((f - r).abs() / scale < 1e-4, "sample {i}: {f} vs {r}");
            }
        }
    }

    #[test]
    fn delay_estimation_recovers_known_lag_on_every_path() {
        let mut rng = StdRng::seed_from_u64(11);
        let reference = gen::gaussian_noise(&mut rng, 1.0, 2_000);
        for search in ALL_LAG_SEARCHES {
            for lag in [0usize, 5, 160, 999] {
                let mut delayed = vec![0.0f32; lag];
                delayed.extend_from_slice(&reference);
                let est = estimate_delay_with(&reference, &delayed, 1_000, search).unwrap();
                assert_eq!(est, lag as isize, "{search:?} lag {lag}");
            }
        }
    }

    #[test]
    fn delay_estimation_recovers_negative_lag() {
        let mut rng = StdRng::seed_from_u64(19);
        let delayed = gen::gaussian_noise(&mut rng, 1.0, 2_000);
        for cut in [1usize, 37, 512] {
            // `delayed` is the reference with its first `cut` samples
            // missing, i.e. it starts `cut` samples *early*.
            let reference = [vec![0.0f32; cut], delayed.clone()].concat();
            for search in ALL_LAG_SEARCHES {
                let est = estimate_delay_with(&reference, &delayed, 1_000, search).unwrap();
                assert_eq!(est, -(cut as isize), "{search:?} cut {cut}");
            }
        }
    }

    #[test]
    fn delay_estimation_with_noise() {
        let mut rng = StdRng::seed_from_u64(13);
        let reference = gen::chirp(50.0, 3_000.0, 1.0, 16_000, 0.3);
        let mut delayed = vec![0.0f32; 640];
        delayed.extend_from_slice(&reference);
        let noise = gen::gaussian_noise(&mut rng, 0.2, delayed.len());
        for (d, n) in delayed.iter_mut().zip(&noise) {
            *d += n;
        }
        for search in ALL_LAG_SEARCHES {
            let est = estimate_delay_with(&reference, &delayed, 3_200, search).unwrap();
            assert!((est - 640).abs() <= 2, "{search:?} estimated {est}");
        }
    }

    #[test]
    fn bounded_window_matches_full_correlation_slice() {
        // The windowed paths must agree with slicing the same lags out
        // of the full correlation — the legacy implementation.
        let mut rng = StdRng::seed_from_u64(29);
        let reference = gen::gaussian_noise(&mut rng, 1.0, 300);
        let delayed = gen::gaussian_noise(&mut rng, 1.0, 260);
        let full = cross_correlate_time(&delayed, &reference);
        let zero = reference.len() - 1;
        for max_lag in [0usize, 3, 50, 1_000] {
            let lo = zero.saturating_sub(max_lag);
            let hi = (zero + max_lag + 1).min(full.len());
            let legacy = lo + stats::argmax(&full[lo..hi]).unwrap();
            let want = legacy as isize - zero as isize;
            for search in [LagSearch::TimeDomain, LagSearch::Fft] {
                let est = estimate_delay_with(&reference, &delayed, max_lag, search).unwrap();
                assert_eq!(est, want, "{search:?} max_lag {max_lag}");
            }
        }
    }

    #[test]
    fn auto_path_selection_covers_all_paths() {
        assert_eq!(choose_xcorr_path(16, 16), XcorrPath::TimeDomain);
        assert_eq!(choose_xcorr_path(100_000, 64), XcorrPath::OverlapSave);
        assert_eq!(choose_xcorr_path(16_000, 16_000), XcorrPath::Fft);
        assert_eq!(choose_lag_search(500, 500, 64), LagSearch::TimeDomain);
        assert_eq!(choose_lag_search(4_000, 4_000, 2_048), LagSearch::Fft);
        assert_eq!(choose_lag_search(16_000, 16_000, 8_001), LagSearch::Fft);
    }

    #[test]
    fn align_by_delay_positive_and_negative() {
        let sig = vec![1.0, 2.0, 3.0];
        assert_eq!(align_by_delay(&sig, 1), vec![2.0, 3.0]);
        assert_eq!(align_by_delay(&sig, -2), vec![0.0, 0.0, 1.0, 2.0, 3.0]);
        assert!(align_by_delay(&sig, 10).is_empty());
    }

    #[test]
    fn correlation_2d_identical_maps_is_one() {
        let a = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![0.0, 1.0]];
        assert!((correlation_2d(&a, &a).unwrap() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn correlation_2d_truncates_to_common_frames() {
        let a = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let b = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![9.0, 9.0]];
        assert!((correlation_2d(&a, &b).unwrap() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn correlation_2d_dimension_mismatch() {
        let a = vec![vec![1.0, 2.0]];
        let b = vec![vec![1.0, 2.0, 3.0]];
        assert!(correlation_2d(&a, &b).is_err());
    }

    #[test]
    fn correlation_2d_independent_noise_is_near_zero() {
        let mut rng = StdRng::seed_from_u64(17);
        let a: Vec<Vec<f32>> = (0..30)
            .map(|_| gen::gaussian_noise(&mut rng, 1.0, 31))
            .collect();
        let b: Vec<Vec<f32>> = (0..30)
            .map(|_| gen::gaussian_noise(&mut rng, 1.0, 31))
            .collect();
        let r = correlation_2d(&a, &b).unwrap();
        assert!(r.abs() < 0.12, "independent noise correlated at {r}");
    }

    #[test]
    fn spectrogram_correlation_matches_flattened_pearson() {
        use crate::stft::Stft;
        let mut rng = StdRng::seed_from_u64(23);
        let fs = 200u32;
        let x = gen::gaussian_noise(&mut rng, 1.0, 600);
        let y: Vec<f32> = x
            .iter()
            .zip(gen::gaussian_noise(&mut rng, 0.3, 600))
            .map(|(a, n)| a + n)
            .collect();
        let stft = Stft::vibration_default();
        for crop in [false, true] {
            let mut sa = stft.power_spectrogram(&x, fs);
            let mut sb = stft.power_spectrogram(&y, fs);
            if crop {
                sa.crop_low_frequencies(5.0);
                sb.crop_low_frequencies(5.0);
            }
            let streamed = spectrogram_correlation(&sa, &sb).unwrap();
            let ra: Vec<Vec<f32>> = sa.rows().map(|r| r.to_vec()).collect();
            let rb: Vec<Vec<f32>> = sb.rows().map(|r| r.to_vec()).collect();
            let flattened = correlation_2d(&ra, &rb).unwrap();
            assert_eq!(streamed, flattened, "crop={crop}");
            assert!(streamed > 0.5, "signal+noise should correlate: {streamed}");
        }
    }

    #[test]
    fn spectrogram_correlation_identical_is_one() {
        let spec = crate::stft::Stft::vibration_default()
            .power_spectrogram(&gen::sine(25.0, 1.0, 200, 1.0), 200);
        let r = spectrogram_correlation(&spec, &spec).unwrap();
        assert!((r - 1.0).abs() < 1e-6, "{r}");
    }

    #[test]
    fn correlation_2d_empty_is_zero() {
        let a: Vec<Vec<f32>> = Vec::new();
        let b = vec![vec![1.0]];
        assert_eq!(correlation_2d(&a, &b).unwrap(), 0.0);
    }
}
