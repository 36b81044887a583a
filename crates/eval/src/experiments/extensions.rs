//! Extension studies beyond the paper's printed evaluation.
//!
//! * **Device comparison** — the paper evaluates both a Fossil Gen 5 and
//!   a Moto 360 but only reports pooled numbers; here each wearable gets
//!   its own row.
//! * **Body-motion robustness** — the defense claims the ≤ 5 Hz crop and
//!   high-pass remove daily-activity interference (0.3–3.5 Hz); this
//!   study injects walking/desk-work motion into the wearer's
//!   accelerometer during conversion and re-measures.
//! * **Brick-wall infeasibility** — the paper argues brick absorbs too
//!   much for the attack to work at all; this study measures how much
//!   attack energy actually reaches the VA per material.

use crate::metrics::DetectionMetrics;
use crate::runner::score_trial;
use crate::scenario::{TrialContext, TrialSettings};
use thrubarrier_acoustics::barrier::{Barrier, BarrierMaterial};
use thrubarrier_acoustics::room::{Room, RoomId};
use thrubarrier_attack::AttackKind;
use thrubarrier_defense::{DefenseMethod, DefenseSystem};
use thrubarrier_vibration::motion::BodyMotion;
use thrubarrier_vibration::Wearable;

/// Configuration shared by the extension studies.
#[derive(Debug, Clone)]
pub struct ExtensionConfig {
    /// Master seed.
    pub seed: u64,
    /// Trials per class per condition.
    pub trials: usize,
}

impl Default for ExtensionConfig {
    fn default() -> Self {
        ExtensionConfig {
            seed: 0xE47,
            trials: 30,
        }
    }
}

/// A labelled metrics row.
#[derive(Debug, Clone)]
pub struct ConditionRow {
    /// Condition label.
    pub label: String,
    /// Full-system metrics under the condition.
    pub metrics: DetectionMetrics,
}

fn evaluate_with_system(cfg: &ExtensionConfig, system: &DefenseSystem) -> DetectionMetrics {
    let mut ctx = TrialContext::seeded(cfg.seed);
    let mut legit = Vec::new();
    let mut attack = Vec::new();
    for i in 0..cfg.trials {
        ctx.settings.attack_spl_db = [65.0, 75.0, 85.0][i % 3];
        ctx.settings.user_to_va_m = [1.0, 2.0, 3.0][i % 3];
        let l = ctx.legitimate_trial();
        let a = ctx.attack_trial(AttackKind::Replay);
        let full = DefenseMethod::all()
            .iter()
            .position(|m| *m == DefenseMethod::Full)
            .expect("full present");
        legit.push(score_trial(&l, cfg.seed ^ (i as u64), system, None)[full]);
        attack.push(score_trial(&a, cfg.seed ^ (0x8000 + i as u64), system, None)[full]);
    }
    DetectionMetrics::from_scores(&legit, &attack)
}

/// Compares the two evaluated wearables.
pub fn run_device_comparison(cfg: &ExtensionConfig) -> Vec<ConditionRow> {
    [Wearable::fossil_gen_5(), Wearable::moto_360()]
        .into_iter()
        .map(|wearable| {
            let mut system = DefenseSystem::paper_default();
            let label = wearable.name.to_string();
            system.wearable = wearable;
            ConditionRow {
                label,
                metrics: evaluate_with_system(cfg, &system),
            }
        })
        .collect()
}

/// Measures robustness to wearer motion during cross-domain sensing.
pub fn run_body_motion_study(cfg: &ExtensionConfig) -> Vec<ConditionRow> {
    [
        ("still", None),
        ("desk work", Some(BodyMotion::desk_work())),
        ("walking", Some(BodyMotion::walking())),
    ]
    .into_iter()
    .map(|(label, motion)| {
        let mut system = DefenseSystem::paper_default();
        if let Some(m) = motion {
            system.wearable = Wearable::fossil_gen_5().with_body_motion(m);
        }
        ConditionRow {
            label: label.to_string(),
            metrics: evaluate_with_system(cfg, &system),
        }
    })
    .collect()
}

/// Attack level actually reaching the VA per barrier material, relative
/// to the level without any barrier (dB).
pub fn run_material_feasibility(cfg: &ExtensionConfig) -> Vec<(BarrierMaterial, f32)> {
    let materials = [
        BarrierMaterial::GlassWindow,
        BarrierMaterial::GlassWall,
        BarrierMaterial::WoodenDoor,
        BarrierMaterial::BrickWall,
    ];
    materials
        .into_iter()
        .map(|material| {
            let mut ctx = TrialContext::seeded(cfg.seed);
            let mut room = Room::paper_room(RoomId::A);
            room.barrier = Barrier::new(material);
            ctx.settings = TrialSettings {
                room,
                attack_spl_db: 75.0,
                ..Default::default()
            };
            let through = ctx.attack_trial(AttackKind::Replay);
            // The same attack without a barrier (direct path).
            let mut ctx_direct = TrialContext::seeded(cfg.seed);
            ctx_direct.settings.attack_spl_db = 75.0;
            let mut direct_trial = ctx_direct.attack_trial(AttackKind::Replay);
            // Rebuild the direct reference by re-recording without the
            // barrier: approximate by the legitimate path at the same
            // distance (loudspeaker differences are second-order here).
            direct_trial.va_recording = ctx_direct.legitimate_trial().va_recording;
            let drop_db = 20.0
                * (through.va_recording.rms() / direct_trial.va_recording.rms().max(1e-9)).log10();
            (material, drop_db)
        })
        .collect()
}

/// Success probability of a k-attempt attack campaign: the paper notes
/// the adversary "can achieve a considerable increase in the success
/// probability if he/she repeats the attack". With the defense at a
/// fixed threshold, a campaign succeeds if ANY attempt scores above it.
pub fn run_repeated_attack_study(cfg: &ExtensionConfig, attempts: &[usize]) -> Vec<(usize, f32)> {
    let system = DefenseSystem::paper_default();
    let mut ctx = TrialContext::seeded(cfg.seed ^ 0x5EB);
    // Per-attempt bypass indicator stream.
    let mut bypasses = Vec::new();
    for i in 0..cfg.trials.max(20) * attempts.iter().max().copied().unwrap_or(1) {
        ctx.settings.attack_spl_db = [65.0, 75.0, 85.0][i % 3];
        let t = ctx.attack_trial(AttackKind::Replay);
        let full = DefenseMethod::all()
            .iter()
            .position(|m| *m == DefenseMethod::Full)
            .expect("full present");
        let score = score_trial(&t, cfg.seed ^ (0x9999 + i as u64), &system, None)[full];
        bypasses.push(!system.is_attack(score));
    }
    attempts
        .iter()
        .map(|&k| {
            // Group consecutive attempts into campaigns of size k.
            let campaigns = bypasses.chunks(k).filter(|c| c.len() == k);
            let (mut wins, mut total) = (0usize, 0usize);
            for c in campaigns {
                total += 1;
                if c.iter().any(|&b| b) {
                    wins += 1;
                }
            }
            (k, wins as f32 / total.max(1) as f32)
        })
        .collect()
}

/// Renders the three extension studies.
pub fn render_all(cfg: &ExtensionConfig) -> String {
    let mut out = String::from("Extension studies\n\nDevice comparison (replay attack):\n");
    for row in run_device_comparison(cfg) {
        out.push_str(&format!(
            "  {:<14} AUC {:.3}  EER {:.1}%\n",
            row.label,
            row.metrics.auc,
            row.metrics.eer * 100.0
        ));
    }
    out.push_str("\nBody-motion robustness (replay attack):\n");
    for row in run_body_motion_study(cfg) {
        out.push_str(&format!(
            "  {:<14} AUC {:.3}  EER {:.1}%\n",
            row.label,
            row.metrics.auc,
            row.metrics.eer * 100.0
        ));
    }
    out.push_str("\nAttack level reaching the VA relative to no barrier:\n");
    for (material, drop_db) in run_material_feasibility(cfg) {
        out.push_str(&format!("  {:<14} {:+.1} dB\n", material.name(), drop_db));
    }
    out.push_str("\nRepeated-attack campaigns bypassing the defense (threshold 0.5):\n");
    for (k, p) in run_repeated_attack_study(cfg, &[1, 2, 3]) {
        out.push_str(&format!("  {k} attempt(s): {:.1}%\n", p * 100.0));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExtensionConfig {
        ExtensionConfig {
            trials: 10,
            ..Default::default()
        }
    }

    #[test]
    fn both_devices_detect_attacks() {
        for row in run_device_comparison(&tiny()) {
            assert!(row.metrics.auc > 0.8, "{}: {}", row.label, row.metrics.auc);
        }
    }

    #[test]
    fn motion_does_not_break_detection() {
        let rows = run_body_motion_study(&tiny());
        let still = rows[0].metrics.auc;
        let walking = rows[2].metrics.auc;
        // The crop + high-pass keep the degradation bounded.
        assert!(walking > still - 0.15, "walking {walking} vs still {still}");
    }

    #[test]
    fn repeated_attacks_never_reduce_success() {
        let rows = run_repeated_attack_study(&tiny(), &[1, 2]);
        assert_eq!(rows.len(), 2);
        assert!(rows[1].1 >= rows[0].1 - 1e-6, "{rows:?}");
        assert!(rows.iter().all(|(_, p)| (0.0..=1.0).contains(p)));
    }

    #[test]
    fn brick_absorbs_most() {
        let rows = run_material_feasibility(&tiny());
        let glass = rows
            .iter()
            .find(|(m, _)| *m == BarrierMaterial::GlassWindow)
            .unwrap()
            .1;
        let brick = rows
            .iter()
            .find(|(m, _)| *m == BarrierMaterial::BrickWall)
            .unwrap()
            .1;
        assert!(brick < glass - 8.0, "glass {glass} dB vs brick {brick} dB");
    }
}
