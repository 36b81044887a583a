//! Mel filterbank and MFCC extraction.
//!
//! The paper's phoneme detector uses 14th-order MFCCs computed from a
//! 40-channel mel filterbank restricted to 0–900 Hz — deliberately
//! low-frequency so that phonemes remain detectable in attack sounds whose
//! high frequencies were stripped by the barrier (Sec. V-B).

use crate::error::DspError;
use crate::fft;
use crate::window::WindowKind;

/// Converts frequency in Hz to mels (O'Shaughnessy formula).
pub fn hz_to_mel(hz: f32) -> f32 {
    2595.0 * (1.0 + hz / 700.0).log10()
}

/// Converts mels to frequency in Hz.
pub fn mel_to_hz(mel: f32) -> f32 {
    700.0 * (10f32.powf(mel / 2595.0) - 1.0)
}

/// A triangular mel filterbank over FFT bins.
///
/// Each filter is stored as its band only — the contiguous bins from
/// its first to its last nonzero weight — so [`MelFilterbank::apply`]
/// multiplies a few bins per filter instead of all `n_fft/2 + 1`.
#[derive(Debug, Clone)]
pub struct MelFilterbank {
    /// Per filter: the first bin of its band and the band's weights.
    bands: Vec<(usize, Vec<f32>)>,
    n_fft: usize,
}

impl MelFilterbank {
    /// Builds `n_filters` triangular filters spanning `f_min..f_max` Hz
    /// for FFT size `n_fft` at `sample_rate`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidMelConfig`] if the band is empty, the
    /// filter count is zero, or `f_max` exceeds Nyquist.
    pub fn new(
        n_filters: usize,
        n_fft: usize,
        sample_rate: u32,
        f_min: f32,
        f_max: f32,
    ) -> Result<Self, DspError> {
        if n_filters == 0 {
            return Err(DspError::InvalidMelConfig("zero filters".into()));
        }
        if !(f_min >= 0.0 && f_max > f_min) {
            return Err(DspError::InvalidMelConfig(format!(
                "invalid band {f_min}..{f_max} Hz"
            )));
        }
        if f_max > sample_rate as f32 / 2.0 {
            return Err(DspError::InvalidMelConfig(format!(
                "f_max {f_max} above nyquist {}",
                sample_rate as f32 / 2.0
            )));
        }
        let n_bins = n_fft / 2 + 1;
        let mel_lo = hz_to_mel(f_min);
        let mel_hi = hz_to_mel(f_max);
        // n_filters + 2 edge points, evenly spaced in mel.
        let edges_hz: Vec<f32> = (0..n_filters + 2)
            .map(|i| mel_to_hz(mel_lo + (mel_hi - mel_lo) * i as f32 / (n_filters + 1) as f32))
            .collect();
        let bin_hz = sample_rate as f32 / n_fft as f32;
        let bands = edges_hz
            .windows(3)
            .map(|e| {
                let (lo, center, hi) = (e[0], e[1], e[2]);
                let weight = |k: usize| {
                    let f = k as f32 * bin_hz;
                    if f > lo && f < hi {
                        if f <= center {
                            (f - lo) / (center - lo).max(f32::EPSILON)
                        } else {
                            (hi - f) / (hi - center).max(f32::EPSILON)
                        }
                    } else {
                        0.0
                    }
                };
                let row: Vec<f32> = (0..n_bins).map(weight).collect();
                let first = row.iter().position(|&w| w != 0.0).unwrap_or(n_bins);
                let end = row.iter().rposition(|&w| w != 0.0).map_or(first, |l| l + 1);
                (first, row[first..end].to_vec())
            })
            .collect();
        Ok(MelFilterbank { bands, n_fft })
    }

    /// Number of filters.
    pub fn n_filters(&self) -> usize {
        self.bands.len()
    }

    /// Applies the filterbank to a power spectrum (`n_fft/2 + 1` bins),
    /// returning per-filter energies.
    ///
    /// # Panics
    ///
    /// Panics if `power.len()` does not match the configured FFT size.
    pub fn apply(&self, power: &[f32]) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.bands.len());
        self.apply_into(power, &mut out);
        out
    }

    /// [`MelFilterbank::apply`] into a reused buffer (cleared first).
    ///
    /// Sums each filter's band only. On finite, non-negative power (any
    /// power spectrum) that is bitwise equal to the dense sum over all
    /// bins: the skipped terms are `+0.0` and the fold starts from
    /// `+0.0`, as the dense sum is after its always-zero bin 0. A NaN or
    /// infinity outside a filter's band does not reach that filter.
    fn apply_into(&self, power: &[f32], out: &mut Vec<f32>) {
        assert_eq!(
            power.len(),
            self.n_fft / 2 + 1,
            "power spectrum length must match filterbank fft size"
        );
        out.clear();
        out.extend(self.bands.iter().map(|(start, w)| {
            w.iter()
                .zip(&power[*start..])
                .fold(0.0f32, |acc, (a, b)| acc + a * b)
        }));
    }
}

/// MFCC front-end configuration.
///
/// Everything that does not depend on the signal — the mel bands, the
/// Hamming window and the DCT-II basis — is built once in
/// [`MfccExtractor::new`].
#[derive(Debug, Clone)]
pub struct MfccExtractor {
    filterbank: MelFilterbank,
    /// Hamming window of `frame_len` samples.
    window: Vec<f32>,
    /// Orthonormal DCT-II over the `n_filters` log energies: row `k`
    /// holds `cos(π(i + ½)k / n_filters)` for each filter `i`, and
    /// `dct_norm[k]` the row's scale.
    dct_basis: Vec<Vec<f32>>,
    dct_norm: Vec<f32>,
    frame_len: usize,
    hop: usize,
    n_coeffs: usize,
    n_fft: usize,
    sample_rate: u32,
}

impl MfccExtractor {
    /// Creates an MFCC extractor.
    ///
    /// * `frame_len` / `hop` — analysis frame and hop in samples
    /// * `n_filters` — mel filterbank channels
    /// * `n_coeffs` — cepstral coefficients kept (including C0)
    /// * `f_min..f_max` — filterbank band in Hz
    ///
    /// # Errors
    ///
    /// Returns an error if the frame configuration or the mel band is
    /// invalid, or `n_coeffs > n_filters`.
    pub fn new(
        sample_rate: u32,
        frame_len: usize,
        hop: usize,
        n_filters: usize,
        n_coeffs: usize,
        f_min: f32,
        f_max: f32,
    ) -> Result<Self, DspError> {
        if frame_len == 0 || hop == 0 {
            return Err(DspError::InvalidFrameConfig {
                window: frame_len,
                hop,
            });
        }
        if n_coeffs > n_filters {
            return Err(DspError::InvalidMelConfig(format!(
                "n_coeffs {n_coeffs} > n_filters {n_filters}"
            )));
        }
        let n_fft = fft::next_pow2(frame_len);
        let filterbank = MelFilterbank::new(n_filters, n_fft, sample_rate, f_min, f_max)?;
        let n = n_filters as f32;
        let dct_basis = (0..n_coeffs)
            .map(|k| {
                (0..n_filters)
                    .map(|i| (std::f32::consts::PI * (i as f32 + 0.5) * k as f32 / n).cos())
                    .collect()
            })
            .collect();
        let (norm0, norm) = ((1.0 / n).sqrt(), (2.0 / n).sqrt());
        let dct_norm = (0..n_coeffs)
            .map(|k| if k == 0 { norm0 } else { norm })
            .collect();
        Ok(MfccExtractor {
            filterbank,
            window: WindowKind::Hamming.coefficients(frame_len),
            dct_basis,
            dct_norm,
            frame_len,
            hop,
            n_coeffs,
            n_fft,
            sample_rate,
        })
    }

    /// The paper's configuration: 16 kHz input, 25 ms frames (400
    /// samples), 10 ms hop (160 samples), 40 filters over 0–900 Hz,
    /// 14 coefficients.
    pub fn paper_default() -> Self {
        MfccExtractor::new(16_000, 400, 160, 40, 14, 0.0, 900.0).expect("static config is valid")
    }

    /// Number of coefficients per frame.
    pub fn n_coeffs(&self) -> usize {
        self.n_coeffs
    }

    /// Hop size in samples.
    pub fn hop(&self) -> usize {
        self.hop
    }

    /// Frame length in samples.
    pub fn frame_len(&self) -> usize {
        self.frame_len
    }

    /// Sample rate this extractor expects.
    pub fn sample_rate(&self) -> u32 {
        self.sample_rate
    }

    /// Number of frames produced for a signal of `n` samples.
    pub fn frame_count(&self, n: usize) -> usize {
        if n < self.frame_len {
            usize::from(n > 0)
        } else {
            (n - self.frame_len) / self.hop + 1
        }
    }

    /// Extracts MFCCs: one `n_coeffs`-vector per frame.
    pub fn extract(&self, signal: &[f32]) -> Vec<Vec<f32>> {
        let _span = thrubarrier_obs::span!("dsp.mfcc");
        let frames = self.frame_count(signal.len());
        let half = self.n_fft / 2 + 1;
        let mut out = Vec::with_capacity(frames);
        // Per-frame buffers are hoisted out of the loop; the FFT itself
        // runs on the cached plan's packed real-input path.
        let mut frame = vec![0.0f32; self.frame_len];
        let mut spec = Vec::with_capacity(half);
        let mut power = vec![0.0f32; half];
        let mut log_e = Vec::with_capacity(self.filterbank.n_filters());
        for fi in 0..frames {
            let start = fi * self.hop;
            let avail = signal.get(start..).unwrap_or(&[]);
            let n = avail.len().min(self.frame_len);
            for ((slot, &x), &w) in frame.iter_mut().zip(avail).zip(&self.window) {
                *slot = x * w;
            }
            frame[n..].fill(0.0);
            fft::half_spectrum_into(&frame, self.n_fft, &mut spec);
            for (p, c) in power.iter_mut().zip(&spec) {
                *p = c.norm_sq();
            }
            self.filterbank.apply_into(&power, &mut log_e);
            for e in log_e.iter_mut() {
                *e = (*e + 1e-10).ln();
            }
            out.push(
                self.dct_basis
                    .iter()
                    .zip(&self.dct_norm)
                    .map(|(row, &norm)| {
                        log_e.iter().zip(row).map(|(&x, &c)| x * c).sum::<f32>() * norm
                    })
                    .collect(),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::oracle;
    use crate::gen;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Type-II discrete cosine transform of `input`, returning the first
    /// `n_out` coefficients (orthonormal scaling), with `cos` evaluated
    /// per term — the oracle for the extractor's precomputed basis.
    fn dct_ii(input: &[f32], n_out: usize) -> Vec<f32> {
        let n = input.len();
        if n == 0 {
            return vec![0.0; n_out];
        }
        let norm0 = (1.0 / n as f32).sqrt();
        let norm = (2.0 / n as f32).sqrt();
        (0..n_out)
            .map(|k| {
                let sum: f32 = input
                    .iter()
                    .enumerate()
                    .map(|(i, &x)| {
                        x * (std::f32::consts::PI * (i as f32 + 0.5) * k as f32 / n as f32).cos()
                    })
                    .sum();
                sum * if k == 0 { norm0 } else { norm }
            })
            .collect()
    }

    /// The dense `n_filters x (n_fft/2 + 1)` triangular weights, built
    /// the way the filterbank was before it kept bands only.
    fn dense_weights(
        n_filters: usize,
        n_fft: usize,
        sample_rate: u32,
        f_min: f32,
        f_max: f32,
    ) -> Vec<Vec<f32>> {
        let n_bins = n_fft / 2 + 1;
        let mel_lo = hz_to_mel(f_min);
        let mel_hi = hz_to_mel(f_max);
        let edges_hz: Vec<f32> = (0..n_filters + 2)
            .map(|i| mel_to_hz(mel_lo + (mel_hi - mel_lo) * i as f32 / (n_filters + 1) as f32))
            .collect();
        let bin_hz = sample_rate as f32 / n_fft as f32;
        (0..n_filters)
            .map(|m| {
                let (lo, center, hi) = (edges_hz[m], edges_hz[m + 1], edges_hz[m + 2]);
                (0..n_bins)
                    .map(|k| {
                        let f = k as f32 * bin_hz;
                        if f > lo && f < hi {
                            if f <= center {
                                (f - lo) / (center - lo).max(f32::EPSILON)
                            } else {
                                (hi - f) / (hi - center).max(f32::EPSILON)
                            }
                        } else {
                            0.0
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// The dense filterbank sum over every bin.
    fn dense_apply(weights: &[Vec<f32>], power: &[f32]) -> Vec<f32> {
        weights
            .iter()
            .map(|w| w.iter().zip(power).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// `MfccExtractor::extract` as it was: per-sample windowing, the
    /// indexed-loop FFT, the dense filterbank and a `cos` per DCT term.
    fn extract_oracle(m: &MfccExtractor, dense: &[Vec<f32>], signal: &[f32]) -> Vec<Vec<f32>> {
        let window = WindowKind::Hamming.coefficients(m.frame_len);
        (0..m.frame_count(signal.len()))
            .map(|fi| {
                let start = fi * m.hop;
                let frame: Vec<f32> = window
                    .iter()
                    .enumerate()
                    .map(|(i, &w)| signal.get(start + i).map_or(0.0, |&x| x * w))
                    .collect();
                let power: Vec<f32> = oracle::half_spectrum(&frame, m.n_fft)
                    .iter()
                    .map(|c| c.norm_sq())
                    .collect();
                let log_e: Vec<f32> = dense_apply(dense, &power)
                    .iter()
                    .map(|&e| (e + 1e-10).ln())
                    .collect();
                dct_ii(&log_e, m.n_coeffs)
            })
            .collect()
    }

    /// (n_filters, n_fft, sample_rate, f_min, f_max): the paper's front
    /// end, the hidden-voice obfuscator's bank and a few odd shapes,
    /// including filters too narrow to cover any bin.
    const BANKS: [(usize, usize, u32, f32, f32); 5] = [
        (40, 512, 16_000, 0.0, 900.0),
        (24, 512, 16_000, 50.0, 4_000.0),
        (10, 64, 8_000, 0.0, 4_000.0),
        (64, 128, 16_000, 100.0, 300.0),
        (1, 2, 16_000, 0.0, 8_000.0),
    ];

    #[test]
    fn banded_filterbank_matches_the_dense_sum_bitwise() {
        let mut rng = StdRng::seed_from_u64(0xBA4D);
        for (n_filters, n_fft, fs, lo, hi) in BANKS {
            let fb = MelFilterbank::new(n_filters, n_fft, fs, lo, hi).unwrap();
            let dense = dense_weights(n_filters, n_fft, fs, lo, hi);
            for case in 0..20 {
                // Power spectra: non-negative, with exact zeros mixed in
                // (and all zeros in the first case: silence).
                let power: Vec<f32> = (0..n_fft / 2 + 1)
                    .map(|_| {
                        if case == 0 || rng.gen_bool(0.2) {
                            0.0
                        } else {
                            rng.gen_range(0.0f32..10.0).powi(3)
                        }
                    })
                    .collect();
                let got = fb.apply(&power);
                let want = dense_apply(&dense, &power);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "bank {n_filters}x{n_fft} case {case}"
                );
            }
        }
    }

    #[test]
    fn extract_matches_the_old_chain_bitwise() {
        let mut rng = StdRng::seed_from_u64(0x3FCC);
        let configs = [
            (16_000, 400, 160, 40, 14, 0.0, 900.0),
            (16_000, 256, 100, 24, 13, 50.0, 4_000.0),
            (8_000, 200, 80, 10, 10, 0.0, 4_000.0),
        ];
        for (fs, frame_len, hop, n_filters, n_coeffs, lo, hi) in configs {
            let m = MfccExtractor::new(fs, frame_len, hop, n_filters, n_coeffs, lo, hi).unwrap();
            let dense = dense_weights(n_filters, m.n_fft, fs, lo, hi);
            for len in [0, 1, frame_len / 2, frame_len, frame_len + hop / 2, 4_321] {
                let sig: Vec<f32> = (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let got = m.extract(&sig);
                let want = extract_oracle(&m, &dense, &sig);
                assert_eq!(got.len(), want.len(), "frames, len {len}");
                for (f, (g, w)) in got.iter().zip(&want).enumerate() {
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(g),
                        bits(w),
                        "{fs} Hz frame_len {frame_len}, len {len}, frame {f}"
                    );
                }
            }
        }
    }

    #[test]
    fn mel_scale_roundtrip() {
        for hz in [0.0, 100.0, 440.0, 900.0, 4_000.0] {
            assert!((mel_to_hz(hz_to_mel(hz)) - hz).abs() < 0.5);
        }
    }

    #[test]
    fn mel_scale_is_monotonic() {
        let mut prev = -1.0;
        for i in 0..100 {
            let m = hz_to_mel(i as f32 * 80.0);
            assert!(m > prev);
            prev = m;
        }
    }

    #[test]
    fn filterbank_rejects_bad_configs() {
        assert!(MelFilterbank::new(0, 512, 16_000, 0.0, 900.0).is_err());
        assert!(MelFilterbank::new(10, 512, 16_000, 900.0, 100.0).is_err());
        assert!(MelFilterbank::new(10, 512, 16_000, 0.0, 9_000.0).is_err());
    }

    #[test]
    fn filterbank_responds_to_in_band_tone() {
        let fb = MelFilterbank::new(40, 512, 16_000, 0.0, 900.0).unwrap();
        let tone = gen::sine(450.0, 1.0, 16_000, 0.032); // 512 samples
        let spec = fft::fft_padded(&tone, 512);
        let power: Vec<f32> = spec[..257].iter().map(|c| c.norm_sq()).collect();
        let energies = fb.apply(&power);
        assert!(energies.iter().cloned().fold(0.0f32, f32::max) > 0.0);
    }

    #[test]
    fn dct_of_constant_is_dc_only() {
        let out = dct_ii(&[1.0; 16], 4);
        assert!(out[0] > 0.0);
        for &c in &out[1..] {
            assert!(c.abs() < 1e-5);
        }
    }

    #[test]
    fn dct_empty_input_yields_zeros() {
        assert_eq!(dct_ii(&[], 3), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn paper_default_shapes() {
        let m = MfccExtractor::paper_default();
        assert_eq!(m.n_coeffs(), 14);
        // 1 second at 16 kHz with 25ms/10ms framing -> 98 frames.
        assert_eq!(m.frame_count(16_000), 98);
        let sig = gen::sine(300.0, 0.5, 16_000, 0.1);
        let feats = m.extract(&sig);
        assert_eq!(feats.len(), m.frame_count(sig.len()));
        assert!(feats.iter().all(|f| f.len() == 14));
    }

    #[test]
    fn mfcc_distinguishes_tone_from_noise() {
        use rand::{rngs::StdRng, SeedableRng};
        let m = MfccExtractor::paper_default();
        let tone = gen::sine(300.0, 0.5, 16_000, 0.1);
        let noise = gen::gaussian_noise(&mut StdRng::seed_from_u64(1), 0.5, 1_600);
        let ft = m.extract(&tone);
        let fe = m.extract(&noise);
        // Average feature distance between classes should be clearly
        // non-zero.
        let d: f32 = ft[2].iter().zip(&fe[2]).map(|(a, b)| (a - b).abs()).sum();
        assert!(d > 1.0, "distance {d}");
    }

    #[test]
    fn extractor_rejects_more_coeffs_than_filters() {
        assert!(MfccExtractor::new(16_000, 400, 160, 10, 14, 0.0, 900.0).is_err());
    }
}
