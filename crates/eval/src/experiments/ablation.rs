//! Ablation study: which pieces of the pipeline carry the detection
//! power?
//!
//! Not a paper figure — this exercises the design decisions DESIGN.md
//! calls out by disabling one mechanism at a time and re-measuring the
//! replay-attack EER:
//!
//! * **no ≤ 5 Hz crop** — the accelerometer's low-frequency artifact
//!   (Fig. 7) and body motion pollute the features;
//! * **no synchronization** — recordings are compared misaligned;
//! * **no replay normalization** — conversion SNR depends on the user's
//!   distance;
//! * **anti-aliased ADC** — "fixing" the accelerometer's aliasing
//!   destroys the fold-down evidence the defense reads;
//! * **no noise injection** — without level-dependent readout noise,
//!   attack conversions stay clean and detection collapses.

use crate::metrics::DetectionMetrics;
use crate::runner::score_trial;
use crate::scenario::{TrialContext, TrialSettings};
use thrubarrier_attack::AttackKind;
use thrubarrier_defense::{DefenseMethod, DefenseSystem};
use thrubarrier_vibration::Wearable;

/// Configuration for the ablation study.
#[derive(Debug, Clone)]
pub struct AblationConfig {
    /// Master seed.
    pub seed: u64,
    /// Legitimate/attack trials per variant.
    pub trials: usize,
    /// Attack evaluated.
    pub attack: AttackKind,
}

impl Default for AblationConfig {
    fn default() -> Self {
        AblationConfig {
            seed: 0xAB1A,
            trials: 40,
            attack: AttackKind::Replay,
        }
    }
}

/// One ablation variant's outcome.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Variant name.
    pub name: &'static str,
    /// Detection metrics of the (ablated) full method.
    pub metrics: DetectionMetrics,
}

/// Result of the ablation study.
#[derive(Debug, Clone)]
pub struct AblationStudy {
    /// All variants, reference first.
    pub rows: Vec<AblationRow>,
}

fn variant_system(name: &str) -> DefenseSystem {
    let mut system = DefenseSystem::paper_default();
    match name {
        "reference" => {}
        "no 5 Hz crop" => system.features.crop_hz = 0.0,
        "no synchronization" => system.synchronize = false,
        "no replay normalization" => system.normalize_replay = false,
        "anti-aliased ADC" => {
            let mut wearable = Wearable::fossil_gen_5();
            wearable.accelerometer.anti_alias = true;
            system.wearable = wearable;
        }
        "no noise injection" => {
            let mut wearable = Wearable::fossil_gen_5();
            wearable.accelerometer.low_freq_noise_coeff = 0.0;
            wearable.accelerometer.noise_floor = 1e-6;
            system.wearable = wearable;
        }
        other => panic!("unknown ablation variant {other}"),
    }
    system
}

/// All variant names, reference first.
pub const VARIANTS: &[&str] = &[
    "reference",
    "no 5 Hz crop",
    "no synchronization",
    "no replay normalization",
    "anti-aliased ADC",
    "no noise injection",
];

/// Runs the ablation study.
pub fn run(cfg: &AblationConfig) -> AblationStudy {
    // One shared trial set so variants differ only in the pipeline.
    let mut ctx = TrialContext::seeded(cfg.seed);
    ctx.settings = TrialSettings::default();
    let mut trials = Vec::with_capacity(cfg.trials * 2);
    for i in 0..cfg.trials {
        // Mix the attack volumes like the pooled evaluation does.
        ctx.settings.attack_spl_db = [65.0, 75.0, 85.0][i % 3];
        ctx.settings.user_spl_db = [65.0, 70.0, 75.0][i % 3];
        ctx.settings.user_to_va_m = [1.0, 2.0, 3.0][i % 3];
        trials.push((ctx.legitimate_trial(), false, i as u64));
        trials.push((ctx.attack_trial(cfg.attack), true, 1_000 + i as u64));
    }
    let rows = VARIANTS
        .iter()
        .map(|&name| {
            let system = variant_system(name);
            let mut legit = Vec::new();
            let mut attack = Vec::new();
            for (trial, is_attack, seed) in &trials {
                let scores = score_trial(trial, cfg.seed ^ seed, &system, None);
                let s = scores[DefenseMethod::all()
                    .iter()
                    .position(|m| *m == DefenseMethod::Full)
                    .expect("full method present")];
                if *is_attack {
                    attack.push(s);
                } else {
                    legit.push(s);
                }
            }
            AblationRow {
                name,
                metrics: DetectionMetrics::from_scores(&legit, &attack),
            }
        })
        .collect();
    AblationStudy { rows }
}

impl AblationStudy {
    /// The reference (un-ablated) row.
    pub fn reference(&self) -> &AblationRow {
        &self.rows[0]
    }

    /// A named variant's row.
    pub fn variant(&self, name: &str) -> Option<&AblationRow> {
        self.rows.iter().find(|r| r.name == name)
    }

    /// Renders the study.
    pub fn render_text(&self) -> String {
        let mut out = String::from("Ablation study (replay attack, full pipeline)\n");
        for row in &self.rows {
            out.push_str(&format!(
                "  {:<26} AUC {:.3}   EER {:.1}%\n",
                row.name,
                row.metrics.auc,
                row.metrics.eer * 100.0
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_injection_is_the_load_bearing_mechanism() {
        let study = run(&AblationConfig {
            trials: 16,
            ..Default::default()
        });
        let reference = study.reference().metrics.auc;
        let no_noise = study.variant("no noise injection").unwrap().metrics.auc;
        // Mic noise and room ambience still decorrelate some attacks,
        // so the collapse is partial at this scale — but it must be
        // clearly measurable.
        assert!(
            reference > no_noise + 0.03,
            "reference {reference} vs no-noise {no_noise}"
        );
    }

    #[test]
    fn aliasing_is_a_feature_not_a_bug() {
        let study = run(&AblationConfig {
            trials: 16,
            ..Default::default()
        });
        let reference = study.reference().metrics.auc;
        let anti_aliased = study.variant("anti-aliased ADC").unwrap().metrics.auc;
        assert!(
            reference >= anti_aliased,
            "reference {reference} vs anti-aliased {anti_aliased}"
        );
    }

    #[test]
    fn all_variants_render() {
        let study = run(&AblationConfig {
            trials: 8,
            ..Default::default()
        });
        let text = study.render_text();
        for name in VARIANTS {
            assert!(text.contains(name), "{name} missing");
        }
    }
}
