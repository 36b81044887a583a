//! Benchmark harness and reproduction entry points.
//!
//! * The `repro` binary regenerates every table and figure of the paper
//!   (see `repro --help`).
//! * The `bench_json` binary measures the pipeline stages, appends each
//!   run to the ledger and judges it with the [`sentinel`].
//! * The `obs_report` binary renders ledger trends.

#![warn(missing_docs)]

pub mod sentinel;

use thrubarrier_eval::runner::SelectorChoice;

/// Scale/selector presets of the repro binary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReproPreset {
    /// Trial-count scale (1.0 ≈ paper counts).
    pub scale: f32,
    /// Segment selector for the full method.
    pub selector: SelectorChoice,
}

impl ReproPreset {
    /// Quick preset: small counts, energy selector. Minutes, not hours.
    pub fn quick() -> Self {
        ReproPreset {
            scale: 0.01,
            selector: SelectorChoice::Energy,
        }
    }

    /// Default preset: moderate counts, trained BRNN selector.
    pub fn default_preset() -> Self {
        ReproPreset {
            scale: 0.05,
            selector: SelectorChoice::Brnn {
                corpus_size: 80,
                epochs: 3,
                hidden: 48,
            },
        }
    }

    /// Full preset: paper-scale counts (hours of CPU time).
    pub fn full() -> Self {
        ReproPreset {
            scale: 1.0,
            selector: SelectorChoice::Brnn {
                corpus_size: 400,
                epochs: 4,
                hidden: 64,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_scale_up() {
        assert!(ReproPreset::quick().scale < ReproPreset::default_preset().scale);
        assert!(ReproPreset::default_preset().scale < ReproPreset::full().scale);
        assert_eq!(ReproPreset::quick().selector, SelectorChoice::Energy);
    }
}
