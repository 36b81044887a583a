//! Span accounting of the runner's prepare-once scoring: every trial
//! aligns its recordings once (one `defense.sync` span) and is then
//! scored by all three methods (three `defense.score` spans). Meaningful
//! with `--features thrubarrier-obs/obs`; without it spans record
//! nothing and the test only checks that.
//!
//! The span registry is process-wide, so this file holds a single test:
//! no other test in the process can add spans to the counts.

use thrubarrier_attack::AttackKind;
use thrubarrier_eval::{Runner, RunnerConfig, SelectorChoice, TrialSettings};
use thrubarrier_obs as obs;

#[test]
fn runner_syncs_each_trial_once() {
    let cfg = RunnerConfig {
        seed: 21,
        participants: 2,
        commands_per_user: 2,
        attacks_per_kind: 2,
        attack_kinds: AttackKind::all().to_vec(),
        settings: vec![TrialSettings::default()],
        selector: SelectorChoice::Energy,
        threads: 2,
        batch_size: 3,
    };
    let trials = (cfg.participants * cfg.commands_per_user
        + cfg.attack_kinds.len() * cfg.attacks_per_kind) as u64;
    let count = |name: &'static str| obs::registry().span(name).durations().count();
    obs::set_enabled(true);
    let (sync, score, trial) = (
        count("defense.sync"),
        count("defense.score"),
        count("eval.trial"),
    );
    let outcome = Runner::new(cfg).run();
    assert_eq!(outcome.pools[0].1.legitimate.len(), 4);
    let expected = |n: u64| if obs::COMPILED { n } else { 0 };
    assert_eq!(count("eval.trial") - trial, expected(trials));
    assert_eq!(count("defense.sync") - sync, expected(trials));
    assert_eq!(count("defense.score") - score, expected(3 * trials));
}
