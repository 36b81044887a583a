//! Acoustic environment substrate: barriers, rooms, propagation,
//! microphones, loudspeakers and voice-assistant device models.
//!
//! The paper's physical testbed — apartments and offices with glass
//! windows / wooden doors / glass walls, a Razer RC30 loudspeaker
//! replaying attack sounds behind the barrier, commercial VA devices two
//! metres inside — is replaced here by physics-based models:
//!
//! * [`barrier`] — the **frequency-selective barrier effect** (paper
//!   Sec. III-B, Eq. 1): transmission filters built from the
//!   frequency–material-dependent attenuation coefficient α(f, η). High
//!   frequencies (> 500 Hz) lose far more energy than the 85–500 Hz
//!   speech fundamentals, which is the physical signature the defense
//!   detects.
//! * [`propagation`] — dB-SPL calibration, spherical spreading loss and
//!   travel delay.
//! * [`room`] — rooms A–D from the paper's evaluation with early
//!   reflections and ambient noise levels.
//! * [`mic`] — microphone models (sensitivity, noise floor, clipping).
//! * [`loudspeaker`] — playback-device model (band limits plus mild
//!   harmonic distortion) used by replay/synthesis/hidden attacks.
//! * [`scene`] — composition of a full acoustic path
//!   (source → loudspeaker? → barrier? → distance → reverb → microphone).
//! * [`engine`] — the fused scene-rendering engine: the path's whole
//!   LTI middle (barrier × spreading × delay × reverb taps × mic) as
//!   one combined transfer function, applied in a single spectral pass.
//! * [`va`] — voice-assistant device models (wake-word matcher,
//!   Siri-style speaker-verification gate) for the Table I attack study.

#![warn(missing_docs)]

pub mod barrier;
pub mod engine;
pub mod loudspeaker;
pub mod mic;
pub mod propagation;
pub mod room;
pub mod scene;
pub mod va;

pub use barrier::{Barrier, BarrierMaterial};
pub use engine::SceneEngine;
pub use mic::Microphone;
pub use room::{Room, RoomId};
pub use scene::AcousticPath;
pub use va::VaDevice;
