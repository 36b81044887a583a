//! Cross-domain sensing substrate: the wearable speaker → accelerometer
//! channel.
//!
//! The defense converts audio recordings into the **vibration domain** by
//! replaying them through the wearable's built-in speaker and capturing
//! the conductive vibrations with its accelerometer (paper Sec. IV-A,
//! VI-A). This crate models that channel with the five physical effects
//! the paper's detector depends on, each implemented as a separate,
//! individually-testable stage:
//!
//! 1. **Transducer frequency response** ([`accelerometer`]):
//!    accelerometers attenuate low-frequency *audio* (85–500 Hz) strongly
//!    but pick up 1–3 kHz speech energy well (and are extremely sensitive
//!    below 5 Hz, their design band for body motion).
//! 2. **Aliasing** — the 200 Hz ADC samples with no acoustic
//!    anti-aliasing filter, so audio energy folds into 0–100 Hz
//!    (paper's "ambiguous signal conversion" challenge, which the
//!    detector turns into a feature).
//! 3. **Low-frequency-driven amplifier noise** — per the paper's
//!    reference [Wu et al., APCCAS'16], the readout amplifier injects
//!    random noise when converting low-frequency-dominated signals; this
//!    is *the* effect that makes thru-barrier attack sounds noisy in the
//!    vibration domain and drives their 2-D correlation down.
//! 4. **Rectification leakage** into 0–5 Hz proportional to the signal's
//!    energy envelope (the strong 0–5 Hz band of paper Fig. 7, removed
//!    by the defense's spectrogram crop).
//! 5. **Body-motion interference** at 0.3–3.5 Hz ([`motion`]), removed by
//!    the same crop plus a high-pass filter.
//!
//! Conversions run through the fused single-transform
//! [`engine::ConversionEngine`] (one forward FFT, curve multiplies on the
//! shared spectrum, Parseval noise metering); the staged per-effect chain
//! is a test-only oracle in the engine's unit tests, which gate the two
//! with tolerance proptests.
//!
//! # Example
//!
//! ```
//! use rand::{rngs::StdRng, SeedableRng};
//! use thrubarrier_dsp::gen;
//! use thrubarrier_vibration::Wearable;
//!
//! let wearable = Wearable::fossil_gen_5();
//! let mut rng = StdRng::seed_from_u64(1);
//! // A wideband (user-like) sound converts cleanly...
//! let speech = gen::chirp(200.0, 3_000.0, 0.1, 16_000, 1.0);
//! let vib = wearable.convert(&speech, 16_000, &mut rng);
//! assert_eq!(vib.sample_rate(), 200);
//! ```

#![warn(missing_docs)]

pub mod accelerometer;
pub mod chirp;
pub mod engine;
pub mod motion;
pub mod wearable;

pub use accelerometer::Accelerometer;
pub use engine::{with_engine, ConversionEngine};
pub use wearable::{Wearable, WearableSpeaker};
