//! The three workloads. Each builds its inputs from the run's seed,
//! times a closed loop over a public entry point for the run's length,
//! checks every output, and returns its figures.
//!
//! * `guard_stream` — one client, closed loop of `VaGuard::authorize`.
//! * `eval_sweep` — `Runner::run_with_selector` on the sweep `fig9::run`
//!   makes by default, 2 worker threads.
//! * `calibrate` — the offline phase (selection, corpus, training,
//!   held-out frame accuracy).
//!
//! Untraced runs call only those coarse entry points. Traced runs
//! interleave them with the same work composed from each layer's public
//! calls under spans, so the per-layer figures, the parity checks and
//! the tracing overhead come from one process.

use crate::pipeline::{self, Calibration, Pair};
use crate::speed::Sampler;
use crate::stats::{self, valid_score, Tally};
use crate::trace::{self, count, span};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use thrubarrier_attack::AttackKind;
use thrubarrier_defense::segmentation::{PhonemeDetector, SegmentSelector};
use thrubarrier_defense::{DefenseMethod, DefenseSystem, VaGuard, Verdict};
use thrubarrier_eval::experiments::common::{scaled, standard_settings};
use thrubarrier_eval::experiments::fig9;
use thrubarrier_eval::{
    DetectionMetrics, EvalOutcome, Runner, RunnerConfig, SelectorChoice, TrialGenerator,
};
use thrubarrier_nn::score::{ScoreService, DEFAULT_MAX_BATCH};
use thrubarrier_nn::ScoreClient;
use thrubarrier_phoneme::command::CommandBank;
use thrubarrier_phoneme::speaker::SpeakerProfile;
use thrubarrier_vibration::Wearable;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Fixed accuracy-probe pairs at the head of the guard corpus.
pub const GUARD_PROBE_PAIRS: usize = 96;
/// Pairs generated from the run's seed.
pub const GUARD_STREAM_PAIRS: usize = 96;
/// Acceptance pairs (from the run's seed) the calibrate workload deploys
/// its detector on.
pub const ACCEPTANCE_PAIRS: usize = 16;
/// Eval worker threads.
pub const SWEEP_THREADS: usize = 2;

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Descriptions of failed checks.
    pub problems: Vec<String>,
    /// Metrics for the result line: `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable figures under the names the design uses.
    pub report: Vec<(String, f64, &'static str)>,
    /// Workload configuration, as fingerprinted in the provenance.
    pub config: String,
}

impl Outcome {
    fn problem(&mut self, msg: String) {
        eprintln!("check failed: {msg}");
        self.problems.push(msg);
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn report(&mut self, name: &str, value: f64, unit: &'static str) {
        self.report.push((name.to_string(), value, unit));
    }
}

/// Set-up time: the median over [`SETUPS`] set-ups, at the nominal host
/// speed and as measured, s.
struct SetupTime {
    norm_s: f64,
    wall_s: f64,
}

/// Runs `setup` [`SETUPS`] times; returns the last result and its time.
/// Every repeat must reproduce the first one's fingerprint.
fn timed_setups<T>(
    out: &mut Outcome,
    speed: &Sampler,
    mut setup: impl FnMut() -> T,
    fingerprint: impl Fn(&T) -> u64,
) -> (T, SetupTime) {
    let (mut norm, mut wall) = (Vec::with_capacity(SETUPS), Vec::with_capacity(SETUPS));
    let mut first = None;
    let mut last = None;
    for _ in 0..SETUPS {
        let from = speed.now_s();
        let value = trace::measured("setup", &mut setup);
        let to = speed.now_s();
        wall.push(to - from);
        norm.push((to - from) * speed.factor(from, to));
        let fp = fingerprint(&value);
        match first {
            None => first = Some(fp),
            Some(f) if f != fp => out.problem(format!("set-up not repeatable: {f:x} vs {fp:x}")),
            Some(_) => {}
        }
        last = Some(value);
    }
    let time = SetupTime {
        norm_s: stats::median(&norm),
        wall_s: stats::median(&wall),
    };
    (last.expect("SETUPS > 0"), time)
}

/// Host speed around a single operation is averaged over this much time
/// on either side of it, s: a verdict is shorter than one sampling
/// period, and the host switches speed every few seconds.
const OP_PAD_S: f64 = 0.25;

/// One completed pass: operations, wall s, process CPU s (the speed
/// sampler's own taken out) and the host's speed over it.
struct Pass {
    ops: u64,
    wall_s: f64,
    cpu_s: f64,
    speed: f64,
}

impl Pass {
    /// What takes the pass's times to the nominal host speed.
    fn factor(&self) -> f64 {
        self.speed.powf(crate::speed::ELASTICITY)
    }
}

/// The timed window: each operation's wall time (for the tail) and the
/// totals of each *pass*. A pass is work that is the same every time it
/// repeats — one cycle over the guard corpus, one sweep, one calibration
/// (two in traced runs) — so pass means move with the program and the
/// host, not with where the window happened to cut the input mix.
/// Central figures are medians over passes, which also keeps a few
/// seconds of host slowdown from moving them, and the `_norm` figures
/// scale each pass to the nominal host speed (see [`crate::speed`]).
struct Window<'a> {
    speed: &'a Sampler,
    /// Wall time of each operation timed from outside (a verdict, a
    /// sweep's mean per trial, a calibration), ms.
    op_ms: Vec<f64>,
    /// CPU time of each operation timed from outside, ms. Only verdicts
    /// are single operations; on a sweep or a calibration the tail rule
    /// falls back to the upper median.
    op_cpu_ms: Vec<f64>,
    /// When each operation ran, on the sampler's clock, s.
    op_span: Vec<(f64, f64)>,
    passes: Vec<Pass>,
    /// Wall clock, CPU time and sampler clock at the start of the
    /// current pass.
    mark: (Instant, f64, f64),
}

impl<'a> Window<'a> {
    fn start(speed: &'a Sampler) -> Self {
        Window {
            speed,
            op_ms: Vec::new(),
            op_cpu_ms: Vec::new(),
            op_span: Vec::new(),
            passes: Vec::new(),
            mark: (Instant::now(), speed.process_cpu_s(), speed.now_s()),
        }
    }

    fn elapsed_s(&self) -> f64 {
        self.passes.iter().map(|p| p.wall_s).sum::<f64>() + self.mark.0.elapsed().as_secs_f64()
    }

    fn end_pass(&mut self, ops: u64) {
        let now = (
            Instant::now(),
            self.speed.process_cpu_s(),
            self.speed.now_s(),
        );
        self.passes.push(Pass {
            ops,
            wall_s: now.0.duration_since(self.mark.0).as_secs_f64(),
            cpu_s: now.1 - self.mark.1,
            speed: self.speed.speed(self.mark.2, now.2),
        });
        self.mark = now;
    }

    fn ops(&self) -> u64 {
        self.passes.iter().map(|p| p.ops).sum()
    }

    /// Median over passes of `per(pass)` ms per operation.
    fn per_op_ms(&self, per: impl Fn(&Pass) -> f64) -> f64 {
        let v: Vec<f64> = self
            .passes
            .iter()
            .map(|p| 1e3 * per(p) / p.ops as f64)
            .collect();
        stats::median(&v)
    }

    /// Median over passes of wall ms per operation, as measured.
    fn wall_ms(&self) -> f64 {
        self.per_op_ms(|p| p.wall_s)
    }

    /// The same at the nominal host speed.
    fn wall_norm_ms(&self) -> f64 {
        self.per_op_ms(|p| p.wall_s * p.factor())
    }

    /// Median over passes of process CPU ms per operation, as measured.
    fn cpu_ms(&self) -> f64 {
        self.per_op_ms(|p| p.cpu_s)
    }

    /// The same at the nominal host speed.
    fn cpu_norm_ms(&self) -> f64 {
        self.per_op_ms(|p| p.cpu_s * p.factor())
    }

    /// Median over passes of the host's speed.
    fn host_speed(&self) -> f64 {
        let v: Vec<f64> = self.passes.iter().map(|p| p.speed).collect();
        stats::median(&v)
    }

    /// Each operation's CPU time at the nominal host speed, ms, taken
    /// there by the host's speed over the operation and [`OP_PAD_S`] on
    /// either side of it.
    fn op_cpu_norm_ms(&self) -> Vec<f64> {
        self.op_cpu_ms
            .iter()
            .zip(&self.op_span)
            .map(|(ms, &(from, to))| ms * self.speed.factor(from - OP_PAD_S, to + OP_PAD_S))
            .collect()
    }

    /// Operations per wall second over the whole window.
    fn per_s(&self) -> f64 {
        self.ops() as f64 / self.passes.iter().map(|p| p.wall_s).sum::<f64>().max(1e-9)
    }

    /// One operation's wall and CPU time, ms, and when it ran (from
    /// [`Sampler::now_s`]).
    fn sample(&mut self, wall_ms: f64, cpu_ms: f64, span: (f64, f64)) {
        self.op_ms.push(wall_ms);
        self.op_cpu_ms.push(cpu_ms);
        self.op_span.push(span);
    }

    fn push_end_to_end(&self, out: &mut Outcome, setup: &SetupTime, error_frac: f64) {
        out.metric("setup_s", setup.norm_s, "s");
        out.metric("op_wall_norm_ms", self.wall_norm_ms(), "ms");
        out.metric(
            "op_tail_cpu_norm_ms",
            tail(&self.op_cpu_norm_ms()).value,
            "ms",
        );
        out.metric("op_cpu_norm_ms", self.cpu_norm_ms(), "ms");
        out.metric("peak_rss_mb", crate::host::peak_rss_mb(), "MB");
        out.metric("error_frac", error_frac, "fraction");
        out.report("setup_s", setup.norm_s, "s");
        out.report("setup_wall_s", setup.wall_s, "s");
        out.report("host_speed", self.host_speed(), "1");
        let chunks = self.speed.chunk_ms();
        out.report("ref_chunk_median_ms", stats::median(&chunks), "ms");
        out.report("ref_chunk_spread", stats::spread(&chunks), "fraction");
    }
}

fn tail(xs: &[f64]) -> stats::Tail {
    stats::tail(xs).unwrap_or(stats::Tail {
        percentile: 0.0,
        value: 0.0,
    })
}

fn score_of(v: Verdict) -> Option<f32> {
    match v {
        Verdict::Accept { score } | Verdict::RejectAttack { score } => Some(score),
        Verdict::RejectWearableAbsent => None,
    }
}

/// A deployed guard around a calibrated detector (default threshold).
fn deploy(det: &PhonemeDetector) -> VaGuard {
    VaGuard::new(DefenseSystem::with_selector(
        Wearable::fossil_gen_5(),
        Arc::new(det.clone()),
    ))
}

/// A checked verdict: the authorize score, whether the command was
/// accepted, its wall and CPU time and — in traced runs — the composed
/// path's wall time.
struct Verified {
    score: f32,
    accepted: bool,
    ms: f64,
    cpu_ms: f64,
    traced_ms: Option<f64>,
}

/// One verdict through `VaGuard::authorize`, and — in traced runs — the
/// same pair through the composed path under spans, in the order
/// `traced_first` gives. `None` when a check failed.
fn verify_pair(
    out: &mut Outcome,
    guard: &VaGuard,
    det: &PhonemeDetector,
    pair: &Pair,
    traced_first: Option<bool>,
) -> Option<Verified> {
    let authorize = || {
        let mut rng = StdRng::seed_from_u64(pair.score_seed);
        let (t0, c0) = (Instant::now(), crate::host::thread_cpu_s());
        let v = catch_unwind(AssertUnwindSafe(|| {
            guard.authorize(&pair.va, Some(&pair.wearable), &mut rng)
        }));
        let cpu_ms = (crate::host::thread_cpu_s() - c0) * 1e3;
        (v, t0.elapsed().as_secs_f64() * 1e3, cpu_ms)
    };
    let composed = || {
        let mut rng = StdRng::seed_from_u64(pair.score_seed);
        let t0 = Instant::now();
        let s = catch_unwind(AssertUnwindSafe(|| {
            trace::measured("verdict", || {
                pipeline::composed_score(
                    guard.system(),
                    det,
                    DefenseMethod::Full,
                    (&pair.va, &pair.wearable),
                    None,
                    &mut rng,
                )
            })
        }));
        (s, t0.elapsed().as_secs_f64() * 1e3)
    };
    let ((verdict, ms, cpu_ms), traced) = match traced_first {
        None => (authorize(), None),
        Some(true) => {
            let c = composed();
            (authorize(), Some(c))
        }
        Some(false) => {
            let a = authorize();
            (a, Some(composed()))
        }
    };
    let Ok(verdict) = verdict else {
        out.problem("authorize panicked".into());
        return None;
    };
    let Some(score) = score_of(verdict) else {
        out.problem("authorize reported an absent wearable".into());
        return None;
    };
    if !valid_score(score) {
        out.problem(format!("authorize score {score} outside [0, 1]"));
        return None;
    }
    let accepted = verdict.accepted();
    if accepted == guard.system().is_attack(score) {
        out.problem(format!("verdict {verdict:?} disagrees with the threshold"));
        return None;
    }
    let traced_ms = match traced {
        None => None,
        Some((Ok(c), tms)) if c.to_bits() == score.to_bits() => Some(tms),
        Some((c, _)) => {
            out.problem(format!(
                "composed Full score {c:?} != DefenseSystem::score {score}"
            ));
            return None;
        }
    };
    Some(Verified {
        score,
        accepted,
        ms,
        cpu_ms,
        traced_ms,
    })
}

/// guard_stream: the deployed online path.
pub fn guard_stream(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome {
        config: format!(
            "guard_stream v1 probe={GUARD_PROBE_PAIRS} stream={GUARD_STREAM_PAIRS} \
             train={:?} corpus={} setups={SETUPS}",
            pipeline::TRAIN,
            pipeline::CORPUS_SIZE
        ),
        ..Default::default()
    };
    trace::set_enabled(traced);
    let speed = Sampler::single_thread();
    let ((cal, corpus), setup) = timed_setups(
        &mut out,
        &speed,
        || {
            let heldout = pipeline::heldout_corpus();
            let cal = pipeline::calibrate(pipeline::CALIBRATION_SEED, &heldout);
            let mut corpus = pipeline::make_pairs(pipeline::PROBE_SEED, GUARD_PROBE_PAIRS);
            corpus.extend(pipeline::make_pairs(
                pipeline::mix(seed, 1),
                GUARD_STREAM_PAIRS,
            ));
            (cal, corpus)
        },
        |(cal, corpus)| cal.fingerprint() ^ pipeline::pairs_fingerprint(corpus),
    );
    let guard = deploy(&cal.detector);
    let det = &cal.detector;
    let mut first_scores: Vec<Option<f32>> = vec![None; corpus.len()];
    let mut probe_verdicts: Vec<(bool, f32, bool)> = Vec::new();
    let mut traced_ms = Vec::new();
    let mut win = Window::start(&speed);
    let mut i = 0usize;
    // Whole passes over the corpus until `seconds` have passed (at least
    // one, so every probe pair is judged).
    loop {
        let idx = i % corpus.len();
        if idx == 0 && i > 0 {
            win.end_pass(corpus.len() as u64);
            if win.elapsed_s() >= seconds {
                break;
            }
        }
        let pair = &corpus[idx];
        let traced_first = traced.then_some(i.is_multiple_of(2));
        let from = speed.now_s();
        let result = verify_pair(&mut out, &guard, det, pair, traced_first);
        let span = (from, speed.now_s());
        let ok = match result {
            None => false,
            Some(v) => {
                // Single-verdict figures come from the fixed probe pairs,
                // so the same inputs set the tail in every run.
                if idx < GUARD_PROBE_PAIRS {
                    win.sample(v.ms, v.cpu_ms, span);
                    traced_ms.extend(v.traced_ms);
                }
                let repeat_ok = match first_scores[idx] {
                    None => {
                        first_scores[idx] = Some(v.score);
                        if idx < GUARD_PROBE_PAIRS {
                            probe_verdicts.push((v.accepted, v.score, pair.is_attack));
                        }
                        true
                    }
                    Some(s) => s.to_bits() == v.score.to_bits(),
                };
                if !repeat_ok {
                    out.problem(format!("pair {idx}: repeated verdict differs"));
                }
                repeat_ok
            }
        };
        out.tally.record(ok);
        i += 1;
    }
    if probe_verdicts.len() != GUARD_PROBE_PAIRS {
        out.problem(format!(
            "{} of {GUARD_PROBE_PAIRS} probe pairs judged",
            probe_verdicts.len()
        ));
    }
    let wrong = probe_verdicts
        .iter()
        .filter(|(accepted, _, attack)| accepted == attack)
        .count();
    let error_frac = wrong as f64 / probe_verdicts.len().max(1) as f64;
    let scores_where = |attack: bool| -> Vec<f32> {
        probe_verdicts
            .iter()
            .filter(|v| v.2 == attack)
            .map(|v| v.1)
            .collect()
    };
    let (legit, attack) = (scores_where(false), scores_where(true));
    if traced {
        finish_traced(
            &mut out,
            TraceOps::Verdicts(win.ops()),
            &win.op_ms,
            &traced_ms,
        );
        return out;
    }
    win.push_end_to_end(&mut out, &setup, error_frac);
    out.report("verify_p50_ms", stats::median(&win.op_ms), "ms");
    let (wall_tail, cpu_tail) = (tail(&win.op_ms), tail(&win.op_cpu_ms));
    out.report(
        &format!("verify_p{:.2}_ms", wall_tail.percentile),
        wall_tail.value,
        "ms",
    );
    out.report(
        &format!("verify_p{:.2}_cpu_ms", cpu_tail.percentile),
        cpu_tail.value,
        "ms",
    );
    out.report("verify_mean_ms", win.wall_ms(), "ms");
    out.report("verify_cpu_ms", win.cpu_ms(), "ms");
    out.report("verdicts_per_s", win.per_s(), "1/s");
    out.report("verify_error_frac", error_frac, "fraction");
    if !legit.is_empty() && !attack.is_empty() {
        out.report(
            "probe_auc_full",
            f64::from(DetectionMetrics::from_scores(&legit, &attack).auc),
            "1",
        );
    }
    out.report("verdicts", win.ops() as f64, "count");
    out
}

/// The eval runner configuration of one sweep of the given shape: all
/// four attack kinds, the standard settings, 2 threads, minibatches of
/// 8.
fn sweep_config(seed: u64, shape: SweepShape) -> RunnerConfig {
    RunnerConfig {
        seed,
        participants: shape.participants,
        commands_per_user: shape.commands_per_user,
        attacks_per_kind: shape.attacks_per_kind,
        attack_kinds: AttackKind::all().to_vec(),
        settings: standard_settings(),
        // The selector is built once by the benchmark and passed in.
        selector: SelectorChoice::Brnn {
            corpus_size: pipeline::CORPUS_SIZE,
            epochs: pipeline::TRAIN.epochs,
            hidden: pipeline::TRAIN.hidden_size,
        },
        threads: SWEEP_THREADS,
        batch_size: 8,
    }
}

/// Participants, commands per participant and attacks per kind.
#[derive(Debug, Clone, Copy)]
struct SweepShape {
    participants: usize,
    commands_per_user: usize,
    attacks_per_kind: usize,
}

/// The timed sweep: the one `fig9::run` makes from its default
/// configuration (scale 0.05, all four attack kinds), sized by its rule
/// — 4 participants × 45 commands and 180 attacks per kind, so 180
/// legitimate trials to 720 attacks. Each participant's 45 commands walk
/// the 25-command bank almost twice, so the runner's utterance cache
/// serves 80 of the 180 legitimate trials, as in `repro fig9`.
fn fig9_shape() -> SweepShape {
    let scale = fig9::DetectionStudyConfig::default().scale;
    let participants = scaled(20, scale.sqrt()).clamp(4, 20);
    SweepShape {
        participants,
        commands_per_user: scaled(180, scale / (participants as f32 / 20.0)).max(2),
        attacks_per_kind: scaled(3_600, scale),
    }
}

/// The fixed accuracy-probe sweep: 4·20 + 4·25 = 180 trials.
const PROBE_SHAPE: SweepShape = SweepShape {
    participants: 4,
    commands_per_user: 20,
    attacks_per_kind: 25,
};

fn planned_trials(cfg: &RunnerConfig) -> usize {
    cfg.participants * cfg.commands_per_user + cfg.attack_kinds.len() * cfg.attacks_per_kind
}

/// Checks one runner outcome: planned trial counts, every score valid.
fn check_outcome(out: &mut Outcome, cfg: &RunnerConfig, outcome: &EvalOutcome) -> bool {
    let planned = planned_trials(cfg);
    let mut ok = true;
    for (m, pool) in &outcome.pools {
        let n = pool.legitimate.len() + pool.attacks.len();
        if n != planned {
            out.problem(format!("{m:?}: {n} trials scored, {planned} planned"));
            ok = false;
        }
        let bad = pool
            .legitimate
            .iter()
            .chain(pool.attacks.iter().map(|(_, s)| s))
            .filter(|s| !valid_score(**s))
            .count();
        if bad > 0 {
            out.problem(format!("{m:?}: {bad} scores outside [0, 1]"));
            ok = false;
        }
    }
    ok
}

fn outcome_bits(outcome: &EvalOutcome) -> Vec<u32> {
    outcome
        .pools
        .iter()
        .flat_map(|(_, p)| {
            p.legitimate
                .iter()
                .chain(p.attacks.iter().map(|(_, s)| s))
                .map(|s| s.to_bits())
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Records a sweep's trials in the tally: all fail together when the
/// sweep fails.
fn record_trials(tally: &mut Tally, n: usize, ok: bool) {
    for _ in 0..n {
        tally.record(ok);
    }
}

/// The fixed probe sweep's accuracy and score bits.
struct Probe {
    auc: f32,
    eer: f32,
    eer_vibration: f32,
    bits: Vec<u32>,
}

/// Runs the fixed probe sweep once, checked and tallied.
fn probe_sweep(
    out: &mut Outcome,
    sweep: impl Fn(&RunnerConfig) -> std::thread::Result<EvalOutcome>,
) -> Option<Probe> {
    let cfg = sweep_config(pipeline::PROBE_SEED, PROBE_SHAPE);
    let probe = match sweep(&cfg) {
        Ok(o) if check_outcome(out, &cfg, &o) => {
            let full = o.pool(DefenseMethod::Full).metrics();
            let vib = o.pool(DefenseMethod::VibrationBaseline).metrics();
            Some(Probe {
                auc: full.auc,
                eer: full.eer,
                eer_vibration: vib.eer,
                bits: outcome_bits(&o),
            })
        }
        Ok(_) => None,
        Err(_) => {
            out.problem("probe sweep panicked".into());
            None
        }
    };
    record_trials(&mut out.tally, planned_trials(&cfg), probe.is_some());
    probe
}

/// eval_sweep: the sweep behind `repro fig9`/`fig10`.
pub fn eval_sweep(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let shape = fig9_shape();
    let mut out = Outcome {
        config: format!(
            "eval_sweep v2 sweep={shape:?} probe={PROBE_SHAPE:?} \
             threads={SWEEP_THREADS} train={:?} corpus={} setups={SETUPS}",
            pipeline::TRAIN,
            pipeline::CORPUS_SIZE
        ),
        ..Default::default()
    };
    trace::set_enabled(traced);
    let speed = Sampler::all_cpus();
    let (cal, setup) = timed_setups(
        &mut out,
        &speed,
        || {
            let heldout = pipeline::heldout_corpus();
            pipeline::calibrate(pipeline::CALIBRATION_SEED, &heldout)
        },
        Calibration::fingerprint,
    );
    let selector: Arc<dyn SegmentSelector> = Arc::new(cal.detector.clone());
    let sweep = |cfg: &RunnerConfig| {
        catch_unwind(AssertUnwindSafe(|| {
            Runner::new(cfg.clone()).run_with_selector(Arc::clone(&selector), cal.symbols.clone())
        }))
    };
    // Accuracy: the fixed probe sweep (untraced runs only — traced runs
    // report per-layer figures).
    let probe = if traced {
        None
    } else {
        probe_sweep(&mut out, sweep)
    };
    let cfg = sweep_config(pipeline::mix(seed, 0), shape);
    let n = planned_trials(&cfg);
    let mut first: Option<Vec<u32>> = None;
    let mut traced_ms = Vec::new();
    let mut win = Window::start(&speed);
    let mut k = 0u64;
    // A pass is one sweep; every sweep after the first repeats it.
    while win.passes.is_empty() || win.elapsed_s() < seconds {
        let (t0, c0, from) = (Instant::now(), speed.process_cpu_s(), speed.now_s());
        let result = sweep(&cfg);
        let span = (from, speed.now_s());
        let wall = t0.elapsed().as_secs_f64();
        let cpu = speed.process_cpu_s() - c0;
        let ok = match result {
            Err(_) => {
                out.problem(format!("sweep {k} panicked"));
                false
            }
            Ok(o) => {
                let mut ok = check_outcome(&mut out, &cfg, &o);
                let bits = outcome_bits(&o);
                if *first.get_or_insert_with(|| bits.clone()) != bits {
                    out.problem(format!("sweep {k}: repeat differs from the first"));
                    ok = false;
                }
                if traced {
                    // The first sweep's trials are parity-checked.
                    match traced_sweep(&cfg, &cal.detector, k == 0) {
                        Some((mine, ms, kept)) if mine.matches(&o) => {
                            traced_ms.push(ms / n as f64);
                            ok &= check_parity(&mut out, &cfg, &cal.detector, &kept);
                        }
                        _ => {
                            out.problem(format!(
                                "sweep {k}: composed sweep failed or differs from the runner's"
                            ));
                            ok = false;
                        }
                    }
                }
                ok
            }
        };
        record_trials(&mut out.tally, n, ok);
        win.sample(1e3 * wall / n as f64, 1e3 * cpu / n as f64, span);
        win.end_pass(n as u64);
        k += 1;
    }
    if traced {
        finish_traced(&mut out, TraceOps::Trials, &win.op_ms, &traced_ms);
        return out;
    }
    // The probe again: a repeat on the same seed must be bitwise equal.
    let again = probe_sweep(&mut out, sweep);
    let Some(probe) = probe else {
        out.problem("probe sweep failed".into());
        return out;
    };
    if again.is_none_or(|a| a.bits != probe.bits) {
        out.problem("probe sweep: repeat differs from the first".into());
    }
    win.push_end_to_end(&mut out, &setup, f64::from(probe.eer));
    out.report("auc_full", f64::from(probe.auc), "1");
    out.report("eer_full", f64::from(probe.eer), "fraction");
    out.report("eer_vibration", f64::from(probe.eer_vibration), "fraction");
    out.report("trials_per_s", win.per_s(), "1/s");
    out.report("trial_wall_ms", win.wall_ms(), "ms");
    out.report("trial_cpu_ms", win.cpu_ms(), "ms");
    out.report("sweeps", k as f64, "count");
    out
}

/// Scores of a composed sweep, in the runner's pool order.
struct SweepScores {
    legit: [Vec<u32>; 3],
    attacks: [Vec<(AttackKind, u32)>; 3],
}

impl SweepScores {
    fn matches(&self, o: &EvalOutcome) -> bool {
        DefenseMethod::all().iter().enumerate().all(|(i, &m)| {
            let pool = o.pool(m);
            let legit: Vec<u32> = pool.legitimate.iter().map(|s| s.to_bits()).collect();
            let attacks: Vec<(AttackKind, u32)> = pool
                .attacks
                .iter()
                .map(|&(k, s)| (k, s.to_bits()))
                .collect();
            legit == self.legit[i] && attacks == self.attacks[i]
        })
    }
}

/// One trial as the runner plans it.
#[derive(Debug, Clone)]
enum Plan {
    Legit {
        seed: u64,
        user: usize,
        command: usize,
        setting: usize,
    },
    Attack {
        seed: u64,
        kind: AttackKind,
        victim: usize,
        adversary: usize,
        command: usize,
        setting: usize,
    },
}

impl Plan {
    fn seed(&self) -> u64 {
        match self {
            Plan::Legit { seed, .. } | Plan::Attack { seed, .. } => *seed,
        }
    }
}

/// The runner's trial plan for `cfg` (mirrors `Runner::plan_trials`).
fn plan_trials(cfg: &RunnerConfig) -> Vec<Plan> {
    let mut plans = Vec::new();
    let mut counter = 0u64;
    let mut next_seed = || {
        counter += 1;
        cfg.seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(counter)
    };
    for user in 0..cfg.participants {
        for command in 0..cfg.commands_per_user {
            let setting = (user * cfg.commands_per_user + command) % cfg.settings.len();
            plans.push(Plan::Legit {
                seed: next_seed(),
                user,
                command,
                setting,
            });
        }
    }
    for &kind in &cfg.attack_kinds {
        for i in 0..cfg.attacks_per_kind {
            let victim = i % cfg.participants;
            let adversary = (victim + 1 + i / cfg.participants) % cfg.participants.max(2);
            plans.push(Plan::Attack {
                seed: next_seed(),
                kind,
                victim,
                adversary: if adversary == victim {
                    (victim + 1) % cfg.participants.max(2)
                } else {
                    adversary
                },
                command: i,
                setting: i % cfg.settings.len(),
            });
        }
    }
    plans
}

/// Participant `i`'s voice under master seed `seed` (as the runner
/// derives it).
fn participant(seed: u64, i: usize) -> SpeakerProfile {
    let mut rng = StdRng::seed_from_u64(seed ^ (0xFACE_0000 + i as u64));
    SpeakerProfile::random(&mut rng)
}

/// Seed of a participant's rendition of a command (as the runner
/// derives it).
fn utterance_seed(master: u64, user: usize, command: usize) -> u64 {
    master
        .wrapping_mul(0xA24B_AED4_963E_E407)
        .wrapping_add(((user as u64) << 32) ^ (command as u64) ^ 0x7E57_1E55)
}

/// Rendition audio keyed by `(participant, command index)`.
type Renditions = HashMap<(usize, usize), Arc<Vec<f32>>>;

/// The runner's utterance cache, composed: a participant's rendition of
/// a command is synthesized once per sweep and shared by its workers.
#[derive(Default)]
struct Utterances(Mutex<Renditions>);

impl Utterances {
    fn get(
        &self,
        cfg: &RunnerConfig,
        generator: &TrialGenerator,
        bank: &CommandBank,
        user: usize,
        key: usize,
    ) -> Arc<Vec<f32>> {
        let map = || self.0.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(hit) = map().get(&(user, key)) {
            count("eval.utterance_cache.hit", 1);
            return Arc::clone(hit);
        }
        count("eval.utterance_cache.miss", 1);
        let audio = {
            let _s = span("phoneme.synth");
            let mut urng = StdRng::seed_from_u64(utterance_seed(cfg.seed, user, key));
            generator.utterance_audio(
                &bank.commands()[key],
                &participant(cfg.seed, user),
                &mut urng,
            )
        };
        Arc::clone(map().entry((user, key)).or_insert(Arc::new(audio)))
    }
}

/// Builds one planned trial under spans.
fn build_trial(
    plan: &Plan,
    cfg: &RunnerConfig,
    generator: &TrialGenerator,
    bank: &CommandBank,
    utterances: &Utterances,
) -> thrubarrier_eval::Trial {
    let mut rng = StdRng::seed_from_u64(plan.seed());
    match *plan {
        Plan::Legit {
            user,
            command,
            setting,
            ..
        } => {
            let utterance = utterances.get(cfg, generator, bank, user, command % bank.len());
            let _s = span("eval.build.legit");
            generator.legitimate_with_utterance(&utterance, &cfg.settings[setting], &mut rng)
        }
        Plan::Attack {
            kind,
            victim,
            adversary,
            command,
            setting,
            ..
        } => {
            let _s = span("eval.build.attack");
            generator.attack(
                kind,
                &bank.commands()[command % bank.len()],
                &participant(cfg.seed, victim),
                &participant(cfg.seed, adversary + 101),
                &cfg.settings[setting],
                &mut rng,
            )
        }
    }
}

/// Batched segmentation through the scoring service, composed from the
/// detector's public pieces (what `sensitive_frames_batch` does with a
/// backend installed).
fn segment_batch(det: &PhonemeDetector, client: &ScoreClient, recs: &[&[f32]]) -> Vec<Vec<bool>> {
    let _s = span("defense.segment");
    let feats: Vec<Vec<Vec<f32>>> = {
        let _s = span("dsp.mfcc");
        recs.iter().map(|a| det.mfcc().extract(a)).collect()
    };
    let labels = {
        let _s = span("nn.infer");
        client.classify_batch(feats)
    };
    labels
        .into_iter()
        .map(|l| l.into_iter().map(|c| c == 1).collect())
        .collect()
}

/// A trial kept for the parity check: its plan and composed Full score.
type KeptTrial = (Plan, f32);

/// The runner's sweep composed from public calls under spans: same
/// plan, same round-robin split over the same number of workers, same
/// minibatches, same shared scoring service and utterance cache, same
/// per-method RNG seeds. Returns the scores in the runner's pool order,
/// the wall time in ms, and — with `keep` — every trial's plan and Full
/// score for [`check_parity`].
fn traced_sweep(
    cfg: &RunnerConfig,
    det: &PhonemeDetector,
    keep: bool,
) -> Option<(SweepScores, f64, Vec<KeptTrial>)> {
    let plans = plan_trials(cfg);
    let n_threads = cfg.threads.max(1);
    let mut chunks: Vec<Vec<Plan>> = vec![Vec::new(); n_threads];
    for (i, p) in plans.iter().enumerate() {
        chunks[i % n_threads].push(p.clone());
    }
    chunks.retain(|c| !c.is_empty());
    let t0 = Instant::now();
    let service = ScoreService::spawn(det.model().clone(), DEFAULT_MAX_BATCH);
    let system = DefenseSystem::with_selector(Wearable::fossil_gen_5(), Arc::new(det.clone()));
    let utterances = Utterances::default();
    type WorkerOut = (Vec<(Plan, [f32; 3])>, Vec<KeptTrial>);
    let results: Vec<std::thread::Result<WorkerOut>> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .iter()
            .map(|chunk| {
                let client = service.client();
                let (system, utterances) = (&system, &utterances);
                scope.spawn(move || {
                    let generator = TrialGenerator::new();
                    let bank = CommandBank::standard();
                    let mut scored = Vec::with_capacity(chunk.len());
                    let mut kept = Vec::new();
                    // One operation per worker for the self-time check.
                    trace::measured("sweep.worker", || {
                        for group in chunk.chunks(cfg.batch_size.max(1)) {
                            let _root = span("eval.group");
                            let trials: Vec<_> = group
                                .iter()
                                .map(|p| {
                                    count("trials_built", 1);
                                    build_trial(p, cfg, &generator, &bank, utterances)
                                })
                                .collect();
                            let recs: Vec<&[f32]> =
                                trials.iter().map(|t| t.va_recording.samples()).collect();
                            let masks = segment_batch(det, &client, &recs);
                            for ((plan, trial), mask) in group.iter().zip(trials).zip(&masks) {
                                let mut scores = [0.0f32; 3];
                                for (i, m) in DefenseMethod::all().into_iter().enumerate() {
                                    let mut rng =
                                        StdRng::seed_from_u64(plan.seed() ^ (0xC0FFEE + i as u64));
                                    scores[i] = pipeline::composed_score(
                                        system,
                                        det,
                                        m,
                                        (&trial.va_recording, &trial.wearable_recording),
                                        Some(mask),
                                        &mut rng,
                                    );
                                }
                                if keep {
                                    kept.push((plan.clone(), scores[2]));
                                }
                                scored.push((plan.clone(), scores));
                            }
                        }
                    });
                    (scored, kept)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    drop(service);
    let wall_ms = 1e3 * t0.elapsed().as_secs_f64();
    let mut scores = SweepScores {
        legit: Default::default(),
        attacks: Default::default(),
    };
    let mut all_kept = Vec::new();
    for r in results {
        let (scored, kept) = r.ok()?;
        all_kept.extend(kept);
        for (plan, s) in scored {
            for (i, score) in s.iter().enumerate() {
                match plan {
                    Plan::Legit { .. } => scores.legit[i].push(score.to_bits()),
                    Plan::Attack { kind, .. } => scores.attacks[i].push((kind, score.to_bits())),
                }
            }
        }
    }
    Some((scores, wall_ms, all_kept))
}

/// Every kept trial's composed Full score must equal
/// `DefenseSystem::score` on the same pair and RNG seed (inline
/// segmentation, so this also pins batched masks to per-recording ones).
/// The trials are rebuilt untraced, split over the sweep's threads.
fn check_parity(
    out: &mut Outcome,
    cfg: &RunnerConfig,
    det: &PhonemeDetector,
    kept: &[KeptTrial],
) -> bool {
    let was = trace::enabled();
    trace::set_enabled(false);
    let system = DefenseSystem::with_selector(Wearable::fossil_gen_5(), Arc::new(det.clone()));
    let utterances = Utterances::default();
    let threads = cfg.threads.max(1);
    let mismatches: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (system, utterances) = (&system, &utterances);
                scope.spawn(move || {
                    let generator = TrialGenerator::new();
                    let bank = CommandBank::standard();
                    let mut bad = Vec::new();
                    for (plan, composed) in kept.iter().skip(t).step_by(threads) {
                        let trial = build_trial(plan, cfg, &generator, &bank, utterances);
                        let mut rng = StdRng::seed_from_u64(plan.seed() ^ (0xC0FFEE + 2));
                        let reference =
                            system.score(&trial.va_recording, &trial.wearable_recording, &mut rng);
                        if reference.to_bits() != composed.to_bits() {
                            bad.push(format!(
                                "trial {:x}: composed Full {composed} != DefenseSystem::score {reference}",
                                plan.seed()
                            ));
                        }
                    }
                    bad
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| {
                h.join()
                    .unwrap_or_else(|_| vec!["parity check panicked".into()])
            })
            .collect()
    });
    trace::set_enabled(was);
    let ok = mismatches.is_empty();
    for m in mismatches {
        out.problem(m);
    }
    ok
}

/// calibrate: the offline phase, run from the fixed deployment seed and
/// scored on the held-out corpus, repeated; then the calibrated detector
/// is deployed on a small acceptance set drawn from the run's seed.
pub fn calibrate(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome {
        config: format!(
            "calibrate v1 train={:?} corpus={} heldout={} acceptance={ACCEPTANCE_PAIRS} setups={SETUPS}",
            pipeline::TRAIN,
            pipeline::CORPUS_SIZE,
            pipeline::HELDOUT_UTTERANCES
        ),
        ..Default::default()
    };
    trace::set_enabled(traced);
    let speed = Sampler::single_thread();
    let ((heldout, acceptance), setup) = timed_setups(
        &mut out,
        &speed,
        || {
            (
                pipeline::heldout_corpus(),
                pipeline::make_pairs(pipeline::mix(seed, 2), ACCEPTANCE_PAIRS),
            )
        },
        |(h, a)| {
            let mut fp = pipeline::pairs_fingerprint(a);
            for u in h {
                for s in u.utterance.audio.samples() {
                    fp = crate::host::fnv1a(&s.to_bits().to_le_bytes(), fp);
                }
            }
            fp
        },
    );
    // A pass is one calibration; traced runs calibrate twice in a row,
    // spans off then on, to measure the tracing overhead on identical
    // work.
    let steps: &[bool] = if traced { &[false, true] } else { &[false] };
    let mut first: Option<u64> = None;
    let mut deployed: Option<Calibration> = None;
    let mut walls: [Vec<f64>; 2] = Default::default();
    let mut win = Window::start(&speed);
    let mut k = 0usize;
    while win.passes.is_empty() || win.elapsed_s() < seconds {
        for &spans_on in steps {
            trace::set_enabled(spans_on);
            let (t0, c0, from) = (Instant::now(), speed.process_cpu_s(), speed.now_s());
            let result = catch_unwind(AssertUnwindSafe(|| {
                trace::measured("calibration", || {
                    pipeline::calibrate(pipeline::CALIBRATION_SEED, &heldout)
                })
            }));
            let ms = 1e3 * t0.elapsed().as_secs_f64();
            let cpu_ms = 1e3 * (speed.process_cpu_s() - c0);
            let span = (from, speed.now_s());
            let ok = match result {
                Err(_) => {
                    out.problem(format!("calibration {k} panicked"));
                    false
                }
                Ok(cal) => {
                    let fp = cal.fingerprint();
                    let mut ok = valid_score(cal.frame_accuracy) && !cal.selected.is_empty();
                    if !ok {
                        out.problem(format!(
                            "calibration {k}: frame accuracy {} / {} phonemes selected",
                            cal.frame_accuracy,
                            cal.selected.len()
                        ));
                    }
                    if *first.get_or_insert(fp) != fp {
                        out.problem(format!("calibration {k}: repeat differs from the first"));
                        ok = false;
                    }
                    deployed.get_or_insert(cal);
                    ok
                }
            };
            out.tally.record(ok);
            win.sample(ms, cpu_ms, span);
            walls[usize::from(spans_on)].push(ms);
            k += 1;
        }
        win.end_pass(steps.len() as u64);
    }
    trace::set_enabled(traced);
    let frame_accuracy = deployed
        .as_ref()
        .map_or(0.0, |c| f64::from(c.frame_accuracy));
    // Acceptance: the deployed detector judges the acceptance pairs
    // through the guard (composed under spans when traced).
    let mut accepted_right = 0usize;
    if let Some(cal) = &deployed {
        let guard = deploy(&cal.detector);
        for (i, pair) in acceptance.iter().enumerate() {
            let traced_first = traced.then_some(i.is_multiple_of(2));
            let v = verify_pair(&mut out, &guard, &cal.detector, pair, traced_first);
            if let Some(v) = &v {
                accepted_right += usize::from(v.accepted != pair.is_attack);
            }
            out.tally.record(v.is_some());
        }
    }
    if traced {
        finish_traced(
            &mut out,
            TraceOps::Verdicts(acceptance.len() as u64),
            &walls[0],
            &walls[1],
        );
        return out;
    }
    win.push_end_to_end(&mut out, &setup, 1.0 - frame_accuracy);
    out.report("calibrate_s", win.wall_ms() / 1e3, "s");
    out.report("calibrate_cpu_s", win.cpu_ms() / 1e3, "s");
    out.report("frame_accuracy", frame_accuracy, "fraction");
    out.report(
        "acceptance_right_frac",
        accepted_right as f64 / acceptance.len().max(1) as f64,
        "fraction",
    );
    out.report("calibrations", win.ops() as f64, "count");
    out
}

/// What the online-path `*_per_op` figures are normalised by.
enum TraceOps {
    /// Per composed verdict (guard_stream; calibrate's acceptance set).
    Verdicts(u64),
    /// Per trial built and scored (eval_sweep).
    Trials,
}

/// Turns the recorded spans into the per-layer metrics, checks that
/// self times add up, and writes the spans out.
fn finish_traced(out: &mut Outcome, ops: TraceOps, untraced_ms: &[f64], traced_ms: &[f64]) {
    trace::set_enabled(false);
    let trace::Recording {
        spans,
        counts,
        measured,
    } = trace::take();
    let selfs = trace::self_times(&spans);
    let gap = trace::self_sum_gap(&spans, &selfs, &measured);
    if gap.worst_kind > trace::SELF_SUM_TOLERANCE {
        out.problem(format!(
            "self times miss the measured operations' wall time by {:.3}% (tolerance {}%)",
            gap.worst_kind * 100.0,
            trace::SELF_SUM_TOLERANCE * 100.0
        ));
    }
    let layers = trace::by_name(&spans, &selfs);
    let c = |name: &str| counts.get(name).copied().unwrap_or(0) as f64;
    let trials_built = c("trials_built").max(1.0);
    let online_ops = match ops {
        TraceOps::Verdicts(n) => n as f64,
        TraceOps::Trials => trials_built,
    }
    .max(1.0);
    let calibrations = c("calibrations").max(1.0);
    let self_ms = |name: &str| layers.get(name).map_or(0.0, |l| l.self_ns as f64 / 1e6);
    let calls = |name: &str| layers.get(name).map_or(0.0, |l| l.calls as f64);
    let p99 = |name: &str| {
        layers
            .get(name)
            .and_then(|l| stats::tail(&l.wall_ms))
            .map_or(0.0, |t| t.value)
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    out.metric(
        "defense.sync.calls_per_op",
        calls("defense.sync") / online_ops,
        "count",
    );
    out.metric(
        "defense.sync.self_ms_per_op",
        self_ms("defense.sync") / online_ops,
        "ms",
    );
    out.metric("defense.sync.p99_ms", p99("defense.sync"), "ms");
    out.metric(
        "defense.segment.self_ms_per_op",
        self_ms("defense.segment") / online_ops,
        "ms",
    );
    out.metric(
        "defense.segment.selected_frac",
        ratio(c("defense.segment.selected"), c("defense.segment.frames")),
        "fraction",
    );
    out.metric(
        "dsp.mfcc.self_ms_per_op",
        self_ms("dsp.mfcc") / online_ops,
        "ms",
    );
    out.metric(
        "nn.infer.self_ms_per_op",
        self_ms("nn.infer") / online_ops,
        "ms",
    );
    let conv = "vibration.convert_pair";
    out.metric(
        "vibration.convert_pair.calls_per_op",
        calls(conv) / online_ops,
        "count",
    );
    out.metric(
        "vibration.convert_pair.self_ms_per_op",
        self_ms(conv) / online_ops,
        "ms",
    );
    out.metric("vibration.convert_pair.p99_ms", p99(conv), "ms");
    out.metric(
        "defense.features.self_ms_per_op",
        self_ms("defense.features") / online_ops,
        "ms",
    );
    out.metric(
        "defense.correlate.self_ms_per_op",
        self_ms("defense.correlate") / online_ops,
        "ms",
    );
    out.metric(
        "defense.score.self_ms_per_op",
        self_ms("defense.score") / online_ops,
        "ms",
    );
    out.metric(
        "defense.sync_failed_frac",
        ratio(c("defense.sync.failed"), c("defense.sync.calls")),
        "fraction",
    );
    out.metric(
        "defense.insufficient_frac",
        ratio(c("defense.insufficient"), c("defense.full")),
        "fraction",
    );
    out.metric(
        "phoneme.synth.self_ms_per_op",
        self_ms("phoneme.synth") / trials_built,
        "ms",
    );
    out.metric(
        "eval.build.legit.self_ms_per_op",
        self_ms("eval.build.legit") / trials_built,
        "ms",
    );
    out.metric(
        "eval.build.attack.self_ms_per_op",
        self_ms("eval.build.attack") / trials_built,
        "ms",
    );
    out.metric(
        "defense.selection.s",
        self_ms("defense.selection") / 1e3 / calibrations,
        "s",
    );
    out.metric(
        "phoneme.corpus.s",
        self_ms("phoneme.corpus") / 1e3 / calibrations,
        "s",
    );
    out.metric("nn.train.s", self_ms("nn.train") / 1e3 / calibrations, "s");
    out.metric(
        "nn.train.frames_per_s",
        ratio(c("nn.train.frames"), self_ms("nn.train") / 1e3),
        "1/s",
    );
    out.metric("nn.eval.s", self_ms("nn.eval") / 1e3 / calibrations, "s");
    let overhead = ratio(stats::median(traced_ms), stats::median(untraced_ms)) - 1.0;
    out.metric("trace.overhead_frac", overhead, "fraction");
    out.metric("trace.self_sum_gap_frac", gap.worst_kind, "fraction");
    out.report("spans", spans.len() as f64, "count");
    out.report("measured_ops", measured.len() as f64, "count");
    out.report("self_sum_worst_op_gap_frac", gap.worst_op, "fraction");
    let (hits, misses) = (
        c("eval.utterance_cache.hit"),
        c("eval.utterance_cache.miss"),
    );
    if hits + misses > 0.0 {
        out.report(
            "utterance_cache_hit_frac",
            hits / (hits + misses),
            "fraction",
        );
    }
    out.report("trace_overhead_frac", overhead, "fraction");
    out.report(
        "trace_overhead_ms_per_op",
        stats::median(traced_ms) - stats::median(untraced_ms),
        "ms",
    );

    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("spans-{}.jsonl", std::process::id()));
    match std::fs::create_dir_all(dir).and_then(|()| trace::write_jsonl(&path, &spans, &selfs)) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => out.problem(format!("writing {}: {e}", path.display())),
    }
}
