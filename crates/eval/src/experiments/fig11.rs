//! Fig. 11: EER under real-world impact factors.
//!
//! * **11a** — replay-attack EER vs. attack volume {65, 75, 85 dB} for
//!   all three methods (paper: full system < 3.2 % at 65/75 dB; the
//!   audio baseline degrades badly at 85 dB, 29.5 % EER).
//! * **11b** — EER by barrier material {wood, glass} × 4 attacks
//!   (paper: all < 4.2 %, similar across materials).
//! * **11c** — EER by barrier-to-VA distance {3, 4, 5 m} × 4 attacks
//!   (paper: < 4.6 %, slightly worse at 5 m).
//! * **11d** — EER by room {A, B, C, D} × 4 attacks (paper: < 5 %;
//!   hidden voice near 0 %).

use crate::experiments::common::{pct, scaled};
use crate::runner::{Runner, RunnerConfig, SelectorChoice};
use crate::scenario::TrialSettings;
use std::sync::Arc;
use thrubarrier_acoustics::room::{Room, RoomId};
use thrubarrier_attack::AttackKind;
use thrubarrier_defense::segmentation::SegmentSelector;
use thrubarrier_defense::DefenseMethod;

/// Configuration shared by the four Fig. 11 panels.
#[derive(Debug, Clone)]
pub struct ImpactStudyConfig {
    /// Master seed.
    pub seed: u64,
    /// Trial-count scale.
    pub scale: f32,
    /// Segment selector.
    pub selector: SelectorChoice,
    /// Worker threads.
    pub threads: usize,
}

impl Default for ImpactStudyConfig {
    fn default() -> Self {
        ImpactStudyConfig {
            seed: 0xF11,
            scale: 0.05,
            selector: SelectorChoice::Brnn {
                corpus_size: 80,
                epochs: 3,
                hidden: 48,
            },
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
        }
    }
}

/// One labelled series of EER values.
#[derive(Debug, Clone)]
pub struct EerSeries {
    /// Series label (method or attack kind).
    pub label: String,
    /// `(condition label, EER)` pairs.
    pub points: Vec<(String, f32)>,
}

/// Result of one Fig. 11 panel.
#[derive(Debug, Clone)]
pub struct ImpactPanel {
    /// Panel title.
    pub title: String,
    /// The series.
    pub series: Vec<EerSeries>,
}

impl ImpactPanel {
    /// Renders the panel as text rows.
    pub fn render_text(&self) -> String {
        let mut out = format!("{}\n", self.title);
        for s in &self.series {
            out.push_str(&format!("  {:<28}", s.label));
            for (cond, eer) in &s.points {
                out.push_str(&format!(" {}={}", cond, pct(*eer)));
            }
            out.push('\n');
        }
        out
    }
}

fn base_runner(
    cfg: &ImpactStudyConfig,
    settings: Vec<TrialSettings>,
    kinds: Vec<AttackKind>,
) -> RunnerConfig {
    RunnerConfig {
        seed: cfg.seed,
        participants: scaled(8, cfg.scale.sqrt()).clamp(4, 20),
        commands_per_user: scaled(60, cfg.scale).max(2),
        attacks_per_kind: scaled(1_200, cfg.scale),
        attack_kinds: kinds,
        settings,
        selector: cfg.selector,
        threads: cfg.threads,
        batch_size: 8,
    }
}

fn all_rooms_settings(f: impl Fn(&mut TrialSettings)) -> Vec<TrialSettings> {
    RoomId::all()
        .into_iter()
        .flat_map(|room| {
            [(1.0, 75.0), (2.0, 70.0), (3.0, 65.0)].map(|(d, spl)| {
                let mut t = TrialSettings {
                    room: Room::paper_room(room),
                    user_to_va_m: d,
                    user_spl_db: spl,
                    ..Default::default()
                };
                f(&mut t);
                t
            })
        })
        .collect()
}

/// Fig. 11a: replay-attack EER vs. attack volume, one series per method.
pub fn run_fig11a(cfg: &ImpactStudyConfig, selector: Arc<dyn SegmentSelector>) -> ImpactPanel {
    let mut series: Vec<EerSeries> = DefenseMethod::all()
        .into_iter()
        .map(|m| EerSeries {
            label: m.label().to_string(),
            points: Vec::new(),
        })
        .collect();
    for spl in [65.0f32, 75.0, 85.0] {
        let settings = all_rooms_settings(|t| t.attack_spl_db = spl);
        let runner = Runner::new(base_runner(cfg, settings, vec![AttackKind::Replay]));
        let outcome = runner.run_with_selector(selector.clone(), Vec::new());
        for (i, m) in DefenseMethod::all().into_iter().enumerate() {
            let eer = outcome.pool(m).metrics_of(AttackKind::Replay).eer;
            series[i].points.push((format!("{spl:.0}dB"), eer));
        }
    }
    ImpactPanel {
        title: "Fig. 11a — EER vs attack sound volume (replay attack)".into(),
        series,
    }
}

/// Helper for panels 11b–d: EER per attack kind under a set of named
/// conditions.
fn attack_kind_panel(
    cfg: &ImpactStudyConfig,
    selector: Arc<dyn SegmentSelector>,
    title: &str,
    conditions: Vec<(String, Vec<TrialSettings>)>,
) -> ImpactPanel {
    let kinds = AttackKind::all().to_vec();
    let mut series: Vec<EerSeries> = kinds
        .iter()
        .map(|k| EerSeries {
            label: k.name().to_string(),
            points: Vec::new(),
        })
        .collect();
    for (cond, settings) in conditions {
        let runner = Runner::new(base_runner(cfg, settings, kinds.clone()));
        let outcome = runner.run_with_selector(selector.clone(), Vec::new());
        for (i, &kind) in kinds.iter().enumerate() {
            let eer = outcome.pool(DefenseMethod::Full).metrics_of(kind).eer;
            series[i].points.push((cond.clone(), eer));
        }
    }
    ImpactPanel {
        title: title.into(),
        series,
    }
}

/// Fig. 11b: EER by barrier material (wood = rooms B, C; glass = rooms
/// A, D).
pub fn run_fig11b(cfg: &ImpactStudyConfig, selector: Arc<dyn SegmentSelector>) -> ImpactPanel {
    let wood: Vec<TrialSettings> = all_rooms_settings(|_| {})
        .into_iter()
        .filter(|t| !t.room.barrier.material.is_glass())
        .collect();
    let glass: Vec<TrialSettings> = all_rooms_settings(|_| {})
        .into_iter()
        .filter(|t| t.room.barrier.material.is_glass())
        .collect();
    attack_kind_panel(
        cfg,
        selector,
        "Fig. 11b — EER by barrier material (full system)",
        vec![("Wood".into(), wood), ("Glass".into(), glass)],
    )
}

/// Fig. 11c: EER by barrier-to-VA distance (3, 4, 5 m;
/// barrier-to-wearable fixed at 2 m). The legitimate user stands at the
/// same distance from the VA, reproducing the paper's observation that
/// 5 m slightly degrades the user's own recordings.
pub fn run_fig11c(cfg: &ImpactStudyConfig, selector: Arc<dyn SegmentSelector>) -> ImpactPanel {
    let conditions = [3.0f32, 4.0, 5.0]
        .into_iter()
        .map(|d| {
            let settings = all_rooms_settings(|t| {
                t.barrier_to_va_m = d;
                t.barrier_to_wearable_m = 2.0;
                t.user_to_va_m = d - 2.0 + 1.0; // user further when VA is further
            });
            (format!("{d:.0}m"), settings)
        })
        .collect();
    attack_kind_panel(
        cfg,
        selector,
        "Fig. 11c — EER by barrier-to-VA distance (full system)",
        conditions,
    )
}

/// Fig. 11d: EER by room environment.
pub fn run_fig11d(cfg: &ImpactStudyConfig, selector: Arc<dyn SegmentSelector>) -> ImpactPanel {
    let conditions = RoomId::all()
        .into_iter()
        .map(|room| {
            let settings: Vec<TrialSettings> = all_rooms_settings(|_| {})
                .into_iter()
                .filter(|t| t.room.id == room)
                .collect();
            (room.to_string(), settings)
        })
        .collect();
    attack_kind_panel(
        cfg,
        selector,
        "Fig. 11d — EER by room environment (full system)",
        conditions,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use thrubarrier_defense::segmentation::EnergySelector;

    fn tiny_cfg() -> ImpactStudyConfig {
        ImpactStudyConfig {
            scale: 0.008,
            selector: SelectorChoice::Energy,
            ..Default::default()
        }
    }

    #[test]
    fn fig11a_produces_three_levels_per_method() {
        let cfg = tiny_cfg();
        let panel = run_fig11a(&cfg, Arc::new(EnergySelector::default()));
        assert_eq!(panel.series.len(), 3);
        for s in &panel.series {
            assert_eq!(s.points.len(), 3);
            assert!(s.points.iter().all(|(_, e)| (0.0..=1.0).contains(e)));
        }
        assert!(panel.render_text().contains("65dB"));
    }

    #[test]
    fn fig11b_covers_both_materials() {
        let cfg = tiny_cfg();
        let panel = run_fig11b(&cfg, Arc::new(EnergySelector::default()));
        assert_eq!(panel.series.len(), 4);
        assert_eq!(panel.series[0].points.len(), 2);
    }

    #[test]
    fn fig11c_sweeps_three_distances() {
        let cfg = tiny_cfg();
        let panel = run_fig11c(&cfg, Arc::new(EnergySelector::default()));
        assert_eq!(panel.series.len(), 4);
        for s in &panel.series {
            assert_eq!(s.points.len(), 3);
            assert!(s.points.iter().all(|(_, e)| (0.0..=1.0).contains(e)));
        }
        let text = panel.render_text();
        assert!(["3m", "4m", "5m"].iter().all(|d| text.contains(d)));
    }

    #[test]
    fn fig11d_covers_four_rooms() {
        let cfg = tiny_cfg();
        let panel = run_fig11d(&cfg, Arc::new(EnergySelector::default()));
        assert_eq!(panel.series[0].points.len(), 4);
    }
}
