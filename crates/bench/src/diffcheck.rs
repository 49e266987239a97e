//! Differential oracle fuzzing: structured game families vs exact
//! oracles vs hardware solvers.
//!
//! The repository has two float Nash oracles that share no code
//! (`cnash_game::support_enum`, `cnash_game::lemke_howson`), one
//! exact-arithmetic **trust anchor** (`cnash_game::exact_enum`, built
//! on the dependency-free `cnash-exact` rational stack), an
//! independent verification layer (`cnash_core::certificate`), and two
//! hardware solver stacks (C-Nash crossbar, S-QUBO/D-Wave). This module
//! drives all of them against each other over a *family × size × seed*
//! grid of structured games (`cnash_game::families`) — GAMUT-style
//! differential testing:
//!
//! 1. **Oracle self-consistency** — per grid point, support enumeration
//!    must find at least one equilibrium (Nash's theorem), and every
//!    Lemke–Howson solution must certificate-verify *and* appear in the
//!    enumerated set.
//! 2. **Exact-oracle cross-check** — the exact enumerator re-walks the
//!    same support pairs in big-int rational arithmetic. Every
//!    float-enumerated equilibrium must either match an exact one
//!    (profile distance or support-class containment), or — if it is a
//!    borderline ε-point — survive exact-substitution scrutiny: its
//!    **exact** regret must stay within the claiming tolerance. A
//!    float equilibrium the exact arithmetic refutes is an
//!    `exact_oracle_disagreement`, as is an exactly-certified
//!    equilibrium that fails float verification. The direction of
//!    every check is fixed: float oracles are judged against the exact
//!    one, never the reverse. Exact support classes (including the
//!    simplex vertex representatives of exactly-singular support
//!    pairs, which the float enumerator must drop) are merged into the
//!    continuum representatives, so hits on continua the float oracle
//!    cannot characterise classify instead of landing in
//!    `unlisted_unclassified_hits`.
//! 3. **Solver soundness** — every solver run that *claims* a hit
//!    (`RunOutcome::is_equilibrium`) is re-verified through an
//!    independently computed [`Certificate`]. A claim the certificate
//!    rejects is a **false equilibrium** — the one mismatch class that
//!    is always a bug. Runs that find nothing are **missed but
//!    allowed** (the solvers are stochastic); certificate-valid hits
//!    absent from the enumerated set are **unlisted-valid** (possible
//!    on degenerate games with equilibrium continua) and merely
//!    counted.
//!
//! On failure the harness **minimizes** the offending game before
//! reporting it, alternating three shrinking passes to a fixpoint
//! (each re-running the failing solver seed against every candidate):
//!
//! * **action deletion** — greedy single row/column removal,
//! * **scale reduction** — halving every payoff (truncating toward
//!   zero, so integer payoffs stay integer),
//! * **payoff zeroing** — setting individual payoff cells to `0`,
//!
//! and emits a single-job, explicit-payoff, replayable jobs file —
//! `--jobs-file` replays it, re-verifying the claims with certificates.
//!
//! The sweep parallelises **per grid point** over the `cnash-runtime`
//! worker pool ([`DiffOptions::threads`]): points are claimed by idle
//! workers but folded in grid order, so the summary counters, the
//! continuum-class histogram and the first (minimized) counterexample
//! are bit-identical to a single-threaded sweep at any thread count.
//!
//! The `corrupt` flag is the harness's own test hook: it wraps every
//! solver so that claimed hits are swapped for a worst-response profile
//! *while keeping the claim flag set* — a deliberately lying solver the
//! pipeline must catch, minimize and report. CI runs it to prove the
//! failure path stays live.

use cnash_core::certificate::Certificate;
use cnash_core::NashSolver;
use cnash_exact::Rat;
use cnash_game::canonical::Hasher64;
use cnash_game::equilibrium::continuum_representatives;
use cnash_game::exact_enum::{enumerate_exact, exact_profile_regret};
use cnash_game::lemke_howson::lemke_howson_all_labels;
use cnash_game::support_enum::{enumerate_equilibria, MAX_ENUM_ACTIONS};
use cnash_game::{BimatrixGame, Equilibrium, Game, Matrix, MixedStrategy, SupportClass};
use cnash_runtime::pool::fan_out_ordered;
use cnash_runtime::spec::{BatchSpec, ConfigSpec, GameSpec, JobSpec, SolverSpec};
use cnash_runtime::{CancelToken, Json, PortfolioStop, SpecError};
use cnash_telemetry::{HistSnapshot, Histogram};
use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::time::Instant;

/// Tolerance at which solvers claim hits (`RunOutcome::is_equilibrium`
/// uses exact regrets at `1e-6`); certificates re-check the same
/// criterion independently.
pub const CLAIM_TOL: f64 = 1e-6;
/// Tolerance for oracle cross-checks (Lemke–Howson's own filter).
pub const ORACLE_TOL: f64 = 1e-7;
/// Strategy-pair tolerance when matching a hit against the enumerated set.
pub const MATCH_TOL: f64 = 1e-4;
/// Payoff-tie slack when computing best-response closures
/// (support-pair classes for continuum matching).
pub const CLASS_TOL: f64 = 1e-6;
/// Probability tolerance when extracting a profile's support.
pub const SUPPORT_TOL: f64 = 1e-9;
/// Convergence gate on the CFR column: per grid point, the best run's
/// exact exploitability must stay below this (`cfr_exploitability_ok`
/// in the summary — gated in CI alongside the mismatch counters).
pub const CFR_EXPLOITABILITY_TOL: f64 = 1e-3;

/// Options of one differential-fuzz sweep.
#[derive(Debug, Clone)]
pub struct DiffOptions {
    /// Reduced PR-time grid (nightly runs the full grid).
    pub quick: bool,
    /// Base seed, offsetting every family/run seed in the grid (the
    /// nightly job derives it from the date).
    pub base_seed: u64,
    /// Solver runs per (grid point, solver).
    pub runs: usize,
    /// Test hook: corrupt claimed hits to exercise the failure path.
    pub corrupt: bool,
    /// Worker threads sweeping the grid (`0` = all cores). Purely a
    /// wall-clock knob: results are bit-identical at any count.
    pub threads: usize,
}

impl DiffOptions {
    /// Standard options for a sweep.
    pub fn new(quick: bool, base_seed: u64, corrupt: bool) -> Self {
        Self {
            quick,
            base_seed,
            runs: if quick { 4 } else { 16 },
            corrupt,
            threads: 1,
        }
    }

    /// Sets the worker-thread count (`0` = all cores).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// The family × size × seed grid, plus a uniform-random baseline column
/// ([`GameSpec::Random`]) so the legacy generator is fuzzed too.
///
/// The full (nightly) grid is sized for the parallel sweep: every size
/// up to the paper's 8-action benchmarks × 10 seeds per family (~3.5×
/// the pre-parallel grid's points, ~4.7× its solver runs with the
/// full-run budget of 16, at roughly double the per-run cost at the
/// top sizes).
pub fn family_grid(opts: &DiffOptions) -> Vec<GameSpec> {
    use cnash_game::families::Family;
    let sizes: &[usize] = if opts.quick {
        &[2, 3]
    } else {
        &[2, 3, 4, 5, 6, 7, 8]
    };
    let seeds = if opts.quick { 2u64 } else { 10 };
    let mut grid = Vec::new();
    for family in Family::ALL {
        for &size in sizes {
            for s in 0..seeds {
                grid.push(GameSpec::Family {
                    family: family.name().into(),
                    size,
                    rows: None,
                    cols: None,
                    scale: None,
                    knob: None,
                    seed: opts.base_seed.wrapping_add(s),
                });
            }
        }
    }
    for &size in sizes {
        for s in 0..seeds {
            grid.push(GameSpec::Random {
                rows: size,
                cols: size,
                max_payoff: 6,
                seed: opts.base_seed.wrapping_add(s),
            });
        }
    }
    grid
}

/// The solver suite swept per grid point: both C-Nash presets, the
/// S-QUBO baseline, and the classical CFR column (external-sampling
/// regret matching — its per-point exploitability is gated by
/// [`CFR_EXPLOITABILITY_TOL`] on the quick grid).
pub fn solver_suite(opts: &DiffOptions) -> Vec<SolverSpec> {
    let iterations = if opts.quick { 800 } else { 3000 };
    let cfr_iterations = if opts.quick { 20_000 } else { 60_000 };
    vec![
        SolverSpec::CNash {
            config: ConfigSpec::ideal(12).with_iterations(iterations),
            hardware_seed: 1,
        },
        SolverSpec::CNash {
            config: ConfigSpec::paper(12).with_iterations(iterations),
            hardware_seed: 1,
        },
        SolverSpec::DWave {
            model: "2000q".into(),
            reads_per_run: 1,
        },
        SolverSpec::Cfr {
            iterations: cfr_iterations,
        },
    ]
}

/// Counters of one sweep (all mismatch classes surfaced).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiffCounters {
    /// Grid points checked.
    pub points: usize,
    /// Ground-truth equilibria enumerated across the grid.
    pub oracle_equilibria: usize,
    /// Lemke–Howson solutions cross-checked against enumeration.
    pub lh_cross_checked: usize,
    /// Grid points where the exact-rational oracle ran its cross-check
    /// (every point whose game fits the enumeration bound).
    pub exact_points: usize,
    /// Float-oracle results the exact arithmetic refuted (each one also
    /// stops the sweep with an `exact_oracle_disagreement` failure).
    pub exact_disagreements: usize,
    /// Solver runs executed.
    pub solver_runs: usize,
    /// Runs claiming an equilibrium hit.
    pub claimed_hits: usize,
    /// Claimed hits that certificate-verified *and* matched an
    /// enumerated equilibrium.
    pub verified_hits: usize,
    /// Claimed hits that certificate-verified but matched no enumerated
    /// equilibrium (possible on degenerate games — counted, allowed).
    pub unlisted_valid_hits: usize,
    /// Unlisted-valid hits structurally matched to an enumerated
    /// continuum representative (support-pair class — see
    /// `cnash_game::SupportClass`).
    pub unlisted_classified_hits: usize,
    /// Unlisted-valid hits matching no known support-pair class — a
    /// continuum the oracle failed to characterise (counted, surfaced
    /// in the summary, gated to zero on the quick grid in CI).
    pub unlisted_unclassified_hits: usize,
    /// Runs that found nothing (missed but allowed — the solvers are
    /// stochastic).
    pub missed_runs: usize,
}

impl DiffCounters {
    /// Adds `other`'s counts into `self` (grid-order folding). The
    /// exhaustive destructuring makes forgetting a new field here a
    /// compile error, not a counter that silently folds to zero.
    fn absorb(&mut self, other: &DiffCounters) {
        let DiffCounters {
            points,
            oracle_equilibria,
            lh_cross_checked,
            exact_points,
            exact_disagreements,
            solver_runs,
            claimed_hits,
            verified_hits,
            unlisted_valid_hits,
            unlisted_classified_hits,
            unlisted_unclassified_hits,
            missed_runs,
        } = *other;
        self.points += points;
        self.oracle_equilibria += oracle_equilibria;
        self.lh_cross_checked += lh_cross_checked;
        self.exact_points += exact_points;
        self.exact_disagreements += exact_disagreements;
        self.solver_runs += solver_runs;
        self.claimed_hits += claimed_hits;
        self.verified_hits += verified_hits;
        self.unlisted_valid_hits += unlisted_valid_hits;
        self.unlisted_classified_hits += unlisted_classified_hits;
        self.unlisted_unclassified_hits += unlisted_unclassified_hits;
        self.missed_runs += missed_runs;
    }
}

/// The mismatch classes that fail a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureClass {
    /// A solver claimed a hit the certificate rejects.
    FalseEquilibrium,
    /// The float oracles disagree with each other (or enumeration found
    /// no equilibrium at all).
    OracleDisagreement,
    /// The exact-rational trust anchor refuted a float-oracle result:
    /// either a float-enumerated equilibrium whose exact regret exceeds
    /// the claiming tolerance, or an exactly-certified equilibrium that
    /// fails float verification. The failure detail records which
    /// oracle witnessed the refutation (`[witness: float]` /
    /// `[witness: exact]`).
    ExactOracleDisagreement,
}

impl FailureClass {
    /// Stable wire/report name.
    pub fn name(self) -> &'static str {
        match self {
            FailureClass::FalseEquilibrium => "false_equilibrium",
            FailureClass::OracleDisagreement => "oracle_disagreement",
            FailureClass::ExactOracleDisagreement => "exact_oracle_disagreement",
        }
    }
}

/// A reproducible sweep failure.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Mismatch class.
    pub class: FailureClass,
    /// Human-readable description (game, solver, seed, regrets).
    pub detail: String,
    /// Minimized single-job jobs file reproducing the failure
    /// (explicit payoffs — self-contained).
    pub counterexample: BatchSpec,
}

/// Result of one sweep: counters, the continuum-class histogram and the
/// first failure, if any.
#[derive(Debug, Clone)]
pub struct DiffOutcome {
    /// Aggregate counters.
    pub counters: DiffCounters,
    /// Support-pair class label → unlisted-valid hits matched to it.
    /// Hits no class explains are keyed `"?<own class>"`.
    pub continuum_classes: BTreeMap<String, usize>,
    /// The first failure encountered (the sweep stops there).
    pub failure: Option<Failure>,
    /// Grid points the CFR column ran on (0 when the suite has no CFR
    /// entry).
    pub cfr_points: usize,
    /// Worst per-point CFR convergence across the grid: the max over
    /// points of the *best* run's exact exploitability (min over that
    /// point's CFR runs of `RunOutcome::measured_objective`). Both
    /// reductions are commutative, so the value is bit-identical at any
    /// thread count. `0.0` when no CFR ran.
    pub cfr_exploitability_max: f64,
    /// Per-grid-point wall-time distribution (nanoseconds), folded
    /// bucket-wise so the snapshot is identical whatever order workers
    /// finished in. Wall-clock, so *values* vary run to run — the
    /// summary exposes it only under `timing_`-prefixed keys, which
    /// golden comparisons strip ([`strip_timing_keys`], CI's
    /// `grep -v '"timing_'`). On a cancelled sweep the count may
    /// exceed `counters.points`: in-flight points past the first
    /// failure are discarded from the fold but their time was spent.
    pub point_timing: HistSnapshot,
}

/// Machine-readable sweep summary (stdout of the `diffcheck` binary).
pub fn summary_json(outcome: &DiffOutcome) -> Json {
    let c = &outcome.counters;
    let n = |v: usize| Json::num(v as f64);
    let mut obj = vec![
        ("points".to_string(), n(c.points)),
        ("oracle_equilibria".to_string(), n(c.oracle_equilibria)),
        ("lh_cross_checked".to_string(), n(c.lh_cross_checked)),
        ("exact_points".to_string(), n(c.exact_points)),
        ("exact_disagreements".to_string(), n(c.exact_disagreements)),
        ("solver_runs".to_string(), n(c.solver_runs)),
        ("claimed_hits".to_string(), n(c.claimed_hits)),
        ("verified_hits".to_string(), n(c.verified_hits)),
        ("unlisted_valid_hits".to_string(), n(c.unlisted_valid_hits)),
        (
            "unlisted_classified_hits".to_string(),
            n(c.unlisted_classified_hits),
        ),
        (
            "unlisted_unclassified_hits".to_string(),
            n(c.unlisted_unclassified_hits),
        ),
        // Gate alias: the headline count CI and the nightly full grid
        // drive to zero now that exact support classes absorb the
        // continua the float oracle cannot characterise.
        ("unclassified".to_string(), n(c.unlisted_unclassified_hits)),
        (
            "continuum_classes".to_string(),
            Json::Obj(
                outcome
                    .continuum_classes
                    .iter()
                    .map(|(label, count)| (label.clone(), n(*count)))
                    .collect(),
            ),
        ),
        ("missed_runs".to_string(), n(c.missed_runs)),
        ("cfr_points".to_string(), n(outcome.cfr_points)),
        (
            "cfr_exploitability_max".to_string(),
            Json::num(outcome.cfr_exploitability_max),
        ),
        (
            "cfr_exploitability_ok".to_string(),
            Json::Bool(
                outcome.cfr_points == 0 || outcome.cfr_exploitability_max <= CFR_EXPLOITABILITY_TOL,
            ),
        ),
        ("ok".to_string(), Json::Bool(outcome.failure.is_none())),
    ];
    // Wall-clock per-point timing rides along under a `timing_` prefix:
    // flat scalar keys so the pretty form keeps one line per key and
    // byte-level comparisons can drop them all with one filter
    // (`strip_timing_keys` in tests, `grep -v '"timing_'` in CI).
    let t = &outcome.point_timing;
    let us = |ns: u64| Json::uint(ns / 1_000);
    obj.push(("timing_points_measured".into(), Json::uint(t.count)));
    obj.push(("timing_point_us_total".into(), us(t.sum)));
    obj.push((
        "timing_point_us_mean".into(),
        Json::num((t.mean() / 1_000.0 * 10.0).round() / 10.0),
    ));
    obj.push(("timing_point_us_p50".into(), us(t.quantile(0.50))));
    obj.push(("timing_point_us_p90".into(), us(t.quantile(0.90))));
    obj.push(("timing_point_us_p99".into(), us(t.quantile(0.99))));
    obj.push((
        "timing_point_us_max".into(),
        us(if t.count == 0 { 0 } else { t.max }),
    ));
    if let Some(f) = &outcome.failure {
        obj.push(("failure_class".into(), Json::str(f.class.name())));
        obj.push(("failure_detail".into(), Json::str(f.detail.clone())));
    }
    Json::Obj(obj.into_iter().collect())
}

/// Removes every top-level `timing_`-prefixed key from a summary — the
/// in-process mirror of CI's `grep -v '"timing_'` filter, for tests
/// that compare summaries byte-for-byte across thread counts or runs.
pub fn strip_timing_keys(doc: &mut Json) {
    if let Json::Obj(map) = doc {
        map.retain(|key, _| !key.starts_with("timing_"));
    }
}

/// The worst-response corruption: all mass on the row action with the
/// *lowest* payoff against `q` — the most wrong pure claim available.
pub fn worst_response(game: &BimatrixGame, q: &MixedStrategy) -> MixedStrategy {
    let payoffs = game
        .row_payoff_vector(q)
        .expect("profile shapes match the game");
    let worst = payoffs
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite payoffs"))
        .map(|(i, _)| i)
        .unwrap_or(0);
    MixedStrategy::pure(game.row_actions(), worst).expect("non-empty action set")
}

/// A deliberately lying solver: claimed hits keep their claim flag but
/// have the row strategy swapped for the worst response — the test hook
/// proving the differential pipeline catches false equilibria.
pub struct CorruptingSolver {
    inner: Box<dyn NashSolver>,
}

impl CorruptingSolver {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn NashSolver>) -> Self {
        Self { inner }
    }
}

impl NashSolver for CorruptingSolver {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn game(&self) -> &dyn Game {
        self.inner.game()
    }

    fn run(&self, seed: u64) -> cnash_core::RunOutcome {
        let mut out = self.inner.run(seed);
        if out.is_equilibrium {
            if let Some((_, q)) = out.profile.take() {
                let lie = worst_response(self.inner.game().bimatrix(), &q);
                out.profile = Some((lie, q));
            }
        }
        out
    }
}

fn build_solver(
    spec: &SolverSpec,
    game: &BimatrixGame,
    corrupt: bool,
) -> Result<Box<dyn NashSolver>, SpecError> {
    let solver = spec.build(game)?;
    Ok(if corrupt {
        Box::new(CorruptingSolver::new(solver))
    } else {
        solver
    })
}

/// Deterministic per-(point, solver) run-seed base: mixing the game's
/// canonical fingerprint and the solver spec decorrelates the grid
/// while keeping every failing seed replayable from the jobs file.
fn run_seed_base(base_seed: u64, game: &BimatrixGame, solver: &SolverSpec) -> u64 {
    let mut h = Hasher64::new();
    h.write_str("diffcheck-runs")
        .write_u64(base_seed)
        .write_u64(game.canonical_fingerprint())
        .write_str(&format!("{solver:?}"));
    h.finish()
}

/// `Some(detail)` if the claimed profile fails independent certificate
/// verification — the false-equilibrium predicate.
fn claim_rejected(game: &BimatrixGame, p: &MixedStrategy, q: &MixedStrategy) -> Option<String> {
    match Certificate::build(game, p.clone(), q.clone(), CLAIM_TOL) {
        Err(e) => Some(format!("certificate construction failed: {e}")),
        Ok(cert) if !cert.is_valid() => Some(format!(
            "claimed equilibrium has regrets ({:.3e}, {:.3e}) above {CLAIM_TOL:.0e}",
            cert.regrets.0, cert.regrets.1
        )),
        Ok(_) => None,
    }
}

/// `true` if running `solver_spec` (optionally corrupted) at `seed` on
/// `game` still produces a certificate-rejected claim — the predicate
/// counterexample minimization shrinks against.
fn reproduces(game: &BimatrixGame, solver_spec: &SolverSpec, seed: u64, corrupt: bool) -> bool {
    let Ok(solver) = build_solver(solver_spec, game, corrupt) else {
        return false;
    };
    let out = solver.run(seed);
    match (out.is_equilibrium, out.pair()) {
        (true, Some((p, q))) => claim_rejected(game, p, q).is_some(),
        _ => false,
    }
}

fn drop_row(game: &BimatrixGame, i: usize) -> Option<BimatrixGame> {
    sub_game(game, |r, _| r != i, |_, _| true)
}

fn drop_col(game: &BimatrixGame, j: usize) -> Option<BimatrixGame> {
    sub_game(game, |_, _| true, |c, _| c != j)
}

fn sub_game(
    game: &BimatrixGame,
    keep_row: impl Fn(usize, usize) -> bool,
    keep_col: impl Fn(usize, usize) -> bool,
) -> Option<BimatrixGame> {
    let filter = |m: &Matrix| -> Vec<Vec<f64>> {
        (0..m.rows())
            .filter(|&r| keep_row(r, m.rows()))
            .map(|r| {
                m.row(r)
                    .iter()
                    .enumerate()
                    .filter(|(c, _)| keep_col(*c, m.cols()))
                    .map(|(_, &v)| v)
                    .collect()
            })
            .collect()
    };
    let rows = filter(game.row_payoffs());
    if rows.is_empty() || rows[0].is_empty() {
        return None;
    }
    BimatrixGame::new(
        format!("{}~min", game.name().trim_end_matches("~min")),
        Matrix::from_rows(&rows).ok()?,
        Matrix::from_rows(&filter(game.col_payoffs())).ok()?,
    )
    .ok()
}

/// One greedy action-deletion step: the first single row (then column)
/// whose removal still reproduces the failure.
fn try_action_deletion(
    current: &BimatrixGame,
    still_fails: &impl Fn(&BimatrixGame) -> bool,
) -> Option<BimatrixGame> {
    if current.row_actions() > 1 {
        for i in 0..current.row_actions() {
            if let Some(cand) = drop_row(current, i) {
                if still_fails(&cand) {
                    return Some(cand);
                }
            }
        }
    }
    if current.col_actions() > 1 {
        for j in 0..current.col_actions() {
            if let Some(cand) = drop_col(current, j) {
                if still_fails(&cand) {
                    return Some(cand);
                }
            }
        }
    }
    None
}

/// Rebuilds `game` with both payoff matrices mapped through `f`
/// (name preserved — the `~min` marker is applied by deletion).
fn map_payoffs(game: &BimatrixGame, f: impl Fn(f64) -> f64) -> Option<BimatrixGame> {
    BimatrixGame::new(
        game.name().to_string(),
        game.row_payoffs().map(&f),
        game.col_payoffs().map(&f),
    )
    .ok()
}

/// One scale-reduction step: halving every payoff (truncated toward
/// zero, keeping integer payoffs integer) while the failure reproduces.
fn try_scale_reduction(
    current: &BimatrixGame,
    still_fails: &impl Fn(&BimatrixGame) -> bool,
) -> Option<BimatrixGame> {
    let halved = map_payoffs(current, |v| (v / 2.0).trunc())?;
    let unchanged = halved.row_payoffs() == current.row_payoffs()
        && halved.col_payoffs() == current.col_payoffs();
    (!unchanged && still_fails(&halved)).then_some(halved)
}

/// One payoff-zeroing step: the first nonzero cell (row matrix first,
/// row-major) whose zeroing still reproduces the failure.
fn try_payoff_zeroing(
    current: &BimatrixGame,
    still_fails: &impl Fn(&BimatrixGame) -> bool,
) -> Option<BimatrixGame> {
    for which in 0..2 {
        let m = if which == 0 {
            current.row_payoffs()
        } else {
            current.col_payoffs()
        };
        for r in 0..m.rows() {
            for c in 0..m.cols() {
                if m[(r, c)] == 0.0 {
                    continue;
                }
                let mut zeroed = m.clone();
                zeroed[(r, c)] = 0.0;
                let cand = if which == 0 {
                    BimatrixGame::new(
                        current.name().to_string(),
                        zeroed,
                        current.col_payoffs().clone(),
                    )
                } else {
                    BimatrixGame::new(
                        current.name().to_string(),
                        current.row_payoffs().clone(),
                        zeroed,
                    )
                };
                if let Ok(cand) = cand {
                    if still_fails(&cand) {
                        return Some(cand);
                    }
                }
            }
        }
    }
    None
}

/// Greedy delta-debugging to a fixpoint: alternates action deletion,
/// payoff-scale halving (toward 0) and single-cell payoff zeroing,
/// keeping each candidate only while the failure predicate still
/// reproduces. Deterministic: passes and candidates are tried in a
/// fixed order, so the same input always shrinks to the same game.
pub fn minimize(game: &BimatrixGame, still_fails: impl Fn(&BimatrixGame) -> bool) -> BimatrixGame {
    let mut current = game.clone();
    loop {
        if let Some(next) = try_action_deletion(&current, &still_fails) {
            current = next;
            continue;
        }
        if let Some(next) = try_scale_reduction(&current, &still_fails) {
            current = next;
            continue;
        }
        if let Some(next) = try_payoff_zeroing(&current, &still_fails) {
            current = next;
            continue;
        }
        return current;
    }
}

/// Packages a minimized failure as a single-run, explicit-payoff,
/// replayable jobs file.
fn counterexample(game: &BimatrixGame, solver: &SolverSpec, seed: u64, label: String) -> BatchSpec {
    BatchSpec {
        jobs: vec![JobSpec {
            game: GameSpec::from_game(game),
            solver: solver.clone(),
            runs: 1,
            base_seed: seed,
            early_stop: None,
            label: Some(label),
        }],
        stop: PortfolioStop::Independent,
        threads: 1,
    }
}

/// Oracle spec used for oracle-disagreement counterexamples (replay
/// recomputes both oracles on the captured game; the solver entry is a
/// cheap placeholder so the jobs file stays loadable everywhere).
fn oracle_placeholder_solver() -> SolverSpec {
    SolverSpec::Ideal {
        config: ConfigSpec::ideal(12).with_iterations(1),
    }
}

fn check_oracles(
    game: &BimatrixGame,
    counters: &mut DiffCounters,
) -> Result<Vec<Equilibrium>, Failure> {
    let truth = enumerate_equilibria(game, 1e-9);
    if truth.is_empty() {
        return Err(Failure {
            class: FailureClass::OracleDisagreement,
            detail: format!(
                "{}: support enumeration found no equilibrium (Nash's theorem \
                 guarantees one) [witness: float]",
                game.name()
            ),
            counterexample: counterexample(
                game,
                &oracle_placeholder_solver(),
                0,
                format!(
                    "diffcheck oracle_disagreement: {} [witness: float]",
                    game.name()
                ),
            ),
        });
    }
    counters.oracle_equilibria += truth.len();
    for eq in lemke_howson_all_labels(game) {
        counters.lh_cross_checked += 1;
        let cert_ok = Certificate::build(game, eq.row.clone(), eq.col.clone(), ORACLE_TOL)
            .map(|c| c.is_valid())
            .unwrap_or(false);
        let enumerated = truth.iter().any(|t| t.same_profile(&eq, 1e-5));
        if !cert_ok || !enumerated {
            let game_min = minimize(game, |g| {
                let t = enumerate_equilibria(g, 1e-9);
                lemke_howson_all_labels(g).iter().any(|e| {
                    let ok = Certificate::build(g, e.row.clone(), e.col.clone(), ORACLE_TOL)
                        .map(|c| c.is_valid())
                        .unwrap_or(false);
                    !ok || !t.iter().any(|x| x.same_profile(e, 1e-5))
                })
            });
            return Err(Failure {
                class: FailureClass::OracleDisagreement,
                detail: format!(
                    "{}: Lemke–Howson solution {eq} {} [witness: float]",
                    game.name(),
                    if cert_ok {
                        "is missing from the enumerated equilibrium set"
                    } else {
                        "fails certificate verification"
                    }
                ),
                counterexample: counterexample(
                    &game_min,
                    &oracle_placeholder_solver(),
                    0,
                    format!(
                        "diffcheck oracle_disagreement: {} [witness: float]",
                        game.name()
                    ),
                ),
            });
        }
    }
    Ok(truth)
}

/// One direction-of-trust cross-check of the float truth against the
/// exact-rational oracle. `Ok` carries the exact equilibria's
/// support-pair classes (for merging into the continuum
/// representatives); `Err` carries `(detail, witness)` where the
/// witness names the oracle whose result the refutation rests on.
///
/// Trust flows one way: every exactly-certified equilibrium must pass
/// float verification (witness `exact` if not — the float pipeline is
/// broken), and every float-enumerated equilibrium must either match
/// the exact set (profile distance, or containment in an exact class)
/// or — as a borderline ε-point — survive exact substitution with a
/// regret inside the claiming tolerance (witness `float` if not — the
/// float oracle listed a non-equilibrium).
fn exact_cross_check(
    game: &BimatrixGame,
    truth: &[Equilibrium],
) -> Result<Vec<SupportClass>, (String, &'static str)> {
    let exact = enumerate_exact(game);
    let mut converted = Vec::with_capacity(exact.len());
    for ee in &exact {
        let eq = ee
            .to_equilibrium(game)
            .map_err(|e| (format!("exact profile does not fit the game: {e}"), "exact"))?;
        if !game.is_equilibrium(&eq.row, &eq.col, CLAIM_TOL) {
            return Err((
                format!(
                    "exactly-certified equilibrium {eq} fails float verification at {CLAIM_TOL:.0e}"
                ),
                "exact",
            ));
        }
        converted.push(eq);
    }
    let classes = continuum_representatives(game, &converted, CLASS_TOL)
        .map_err(|e| (format!("exact continuum representatives: {e}"), "exact"))?;
    let bound = Rat::from_f64(CLAIM_TOL).expect("tolerance is finite");
    for t in truth {
        let matched = converted.iter().any(|e| t.same_profile(e, MATCH_TOL))
            || classes
                .iter()
                .any(|c| c.contains_profile(&t.row, &t.col, SUPPORT_TOL));
        if matched {
            continue;
        }
        let regret = exact_profile_regret(game, &t.row, &t.col);
        if regret > bound {
            return Err((
                format!(
                    "float-enumerated equilibrium {t} refuted by exact substitution \
                     (exact regret ~{:.3e} > {CLAIM_TOL:.0e})",
                    regret.to_f64()
                ),
                "float",
            ));
        }
    }
    Ok(classes)
}

/// Runs the exact-oracle cross-check on one grid point (skipped — with
/// no `exact_points` tick — only when the game exceeds the enumeration
/// bound). On disagreement the game is minimized against the
/// cross-check predicate and packaged as a replayable counterexample
/// whose label and detail record the witnessing oracle.
fn check_exact_oracle(
    game: &BimatrixGame,
    truth: &[Equilibrium],
    counters: &mut DiffCounters,
) -> Result<Vec<SupportClass>, Failure> {
    if game.row_actions() > MAX_ENUM_ACTIONS || game.col_actions() > MAX_ENUM_ACTIONS {
        return Ok(Vec::new());
    }
    counters.exact_points += 1;
    match exact_cross_check(game, truth) {
        Ok(classes) => Ok(classes),
        Err((why, witness)) => {
            counters.exact_disagreements += 1;
            let game_min = minimize(game, |g| {
                g.row_actions() <= MAX_ENUM_ACTIONS
                    && g.col_actions() <= MAX_ENUM_ACTIONS
                    && exact_cross_check(g, &enumerate_equilibria(g, 1e-9)).is_err()
            });
            Err(Failure {
                class: FailureClass::ExactOracleDisagreement,
                detail: format!("{}: {why} [witness: {witness}]", game.name()),
                counterexample: counterexample(
                    &game_min,
                    &oracle_placeholder_solver(),
                    0,
                    format!(
                        "diffcheck exact_oracle_disagreement: {} [witness: {witness}]",
                        game.name()
                    ),
                ),
            })
        }
    }
}

/// Merges additional support-pair classes into the continuum
/// representatives, deduplicating and restoring sorted order (so the
/// per-point result stays bit-reproducible whatever oracle contributed
/// which class).
fn merge_classes(reps: &mut Vec<SupportClass>, extra: Vec<SupportClass>) {
    for class in extra {
        if !reps.contains(&class) {
            reps.push(class);
        }
    }
    reps.sort();
}

/// Classifies a certificate-valid hit absent from the enumerated set
/// against the oracle's continuum representatives: first by exact
/// support-pair-class equality, then by support containment in a class.
fn classify_unlisted(
    game: &BimatrixGame,
    reps: &[SupportClass],
    p: &MixedStrategy,
    q: &MixedStrategy,
    counters: &mut DiffCounters,
    classes: &mut BTreeMap<String, usize>,
) {
    counters.unlisted_valid_hits += 1;
    let own = SupportClass::of_profile(game, p, q, CLASS_TOL).ok();
    let matched = reps
        .iter()
        .find(|c| Some(*c) == own.as_ref())
        .or_else(|| reps.iter().find(|c| c.contains_profile(p, q, SUPPORT_TOL)));
    let label = match matched {
        Some(class) => {
            counters.unlisted_classified_hits += 1;
            class.label()
        }
        None => {
            counters.unlisted_unclassified_hits += 1;
            format!(
                "?{}",
                own.map_or_else(|| "r{}xc{}".to_string(), |c| c.label())
            )
        }
    };
    *classes.entry(label).or_insert(0) += 1;
}

#[allow(clippy::too_many_arguments)]
fn check_run(
    game: &BimatrixGame,
    truth: &[Equilibrium],
    reps: &[SupportClass],
    solver_spec: &SolverSpec,
    solver: &dyn NashSolver,
    seed: u64,
    corrupt: bool,
    counters: &mut DiffCounters,
    classes: &mut BTreeMap<String, usize>,
    cfr_best: &mut Option<f64>,
) -> Option<Failure> {
    counters.solver_runs += 1;
    let out = solver.run(seed);
    if matches!(solver_spec, SolverSpec::Cfr { .. }) {
        // The CFR column's convergence metric: the exact exploitability
        // of the returned (average or claimed) profile, best run wins.
        let x = out.measured_objective;
        *cfr_best = Some(cfr_best.map_or(x, |best| best.min(x)));
    }
    let claimed = out.is_equilibrium;
    let Some((p, q)) = out.profile else {
        counters.missed_runs += 1;
        return None;
    };
    if !claimed {
        counters.missed_runs += 1;
        return None;
    }
    counters.claimed_hits += 1;
    if let Some(why) = claim_rejected(game, &p, &q) {
        let game_min = minimize(game, |g| reproduces(g, solver_spec, seed, corrupt));
        let label = format!(
            "diffcheck false_equilibrium: {} via {} seed {seed} [witness: float]",
            game.name(),
            solver_spec.label()
        );
        return Some(Failure {
            class: FailureClass::FalseEquilibrium,
            detail: format!(
                "{} via {} (run seed {seed}): {why} [witness: float]",
                game.name(),
                solver_spec.label()
            ),
            counterexample: counterexample(&game_min, solver_spec, seed, label),
        });
    }
    if truth
        .iter()
        .any(|t| t.row.linf_distance(&p) < MATCH_TOL && t.col.linf_distance(&q) < MATCH_TOL)
    {
        counters.verified_hits += 1;
    } else {
        classify_unlisted(game, reps, &p, &q, counters, classes);
    }
    None
}

/// Everything one grid point contributes to a sweep, computed
/// independently of every other point so the pool can fan points out.
#[derive(Debug, Default)]
struct PointOutcome {
    counters: DiffCounters,
    classes: BTreeMap<String, usize>,
    failure: Option<Failure>,
    /// Best (minimum over runs) exact CFR exploitability at this point;
    /// `None` when the suite has no CFR column.
    cfr_exploitability: Option<f64>,
}

/// Checks one grid point end to end: oracle self-consistency, then
/// every solver × run with certificate verification and continuum
/// classification. Stops at the point's first failure (minimized).
fn check_point(
    spec: &GameSpec,
    solvers: &[SolverSpec],
    opts: &DiffOptions,
) -> Result<PointOutcome, SpecError> {
    let mut out = PointOutcome::default();
    let game = spec.build()?;
    out.counters.points += 1;
    let truth = match check_oracles(&game, &mut out.counters) {
        Ok(truth) => truth,
        Err(failure) => {
            out.failure = Some(failure);
            return Ok(out);
        }
    };
    let mut reps = continuum_representatives(&game, &truth, CLASS_TOL).map_err(|e| SpecError {
        message: format!("continuum representatives: {e}"),
    })?;
    match check_exact_oracle(&game, &truth, &mut out.counters) {
        Ok(exact_classes) => merge_classes(&mut reps, exact_classes),
        Err(failure) => {
            out.failure = Some(failure);
            return Ok(out);
        }
    }
    for solver_spec in solvers {
        let solver = build_solver(solver_spec, &game, opts.corrupt)?;
        let base = run_seed_base(opts.base_seed, &game, solver_spec);
        for k in 0..opts.runs {
            if let Some(failure) = check_run(
                &game,
                &truth,
                &reps,
                solver_spec,
                solver.as_ref(),
                base.wrapping_add(k as u64),
                opts.corrupt,
                &mut out.counters,
                &mut out.classes,
                &mut out.cfr_exploitability,
            ) {
                out.failure = Some(failure);
                return Ok(out);
            }
        }
    }
    Ok(out)
}

/// Sweeps the grid on the `cnash-runtime` worker pool: each grid point
/// runs as an independent job ([`DiffOptions::threads`] workers, `0` =
/// all cores), and per-point results are **folded in grid order** —
/// idle workers claim whatever point is next, but the summary counters,
/// the continuum-class histogram and the first failure (already
/// minimized into a replayable jobs file) are bit-identical to a
/// single-threaded sweep. The sweep stops at the first failing point in
/// grid order; later points already in flight are cancelled and their
/// results discarded.
///
/// # Errors
///
/// Returns [`SpecError`] if a grid spec itself cannot be built — a
/// configuration bug, not a differential finding.
pub fn run_grid(
    points: &[GameSpec],
    solvers: &[SolverSpec],
    opts: &DiffOptions,
) -> Result<DiffOutcome, SpecError> {
    let mut counters = DiffCounters::default();
    let mut classes = BTreeMap::new();
    let mut failure = None;
    let mut spec_err = None;
    let mut cfr_points = 0usize;
    let mut cfr_exploitability_max = 0.0f64;
    let cancel = CancelToken::new();
    // Timed on the worker, folded bucket-wise: the log-bucketed
    // histogram merge is commutative, so the timing snapshot does not
    // depend on which worker finished which point first.
    let timing = Histogram::new();
    fan_out_ordered(
        points.len(),
        opts.threads,
        &cancel,
        |k| {
            let started = Instant::now();
            let result = check_point(&points[k], solvers, opts);
            timing.record(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
            result
        },
        |_, result| match result {
            Err(e) => {
                spec_err = Some(e);
                ControlFlow::Break(())
            }
            Ok(point) => {
                counters.absorb(&point.counters);
                for (label, count) in point.classes {
                    *classes.entry(label).or_insert(0) += count;
                }
                if let Some(x) = point.cfr_exploitability {
                    cfr_points += 1;
                    cfr_exploitability_max = cfr_exploitability_max.max(x);
                }
                match point.failure {
                    Some(f) => {
                        failure = Some(f);
                        ControlFlow::Break(())
                    }
                    None => ControlFlow::Continue(()),
                }
            }
        },
    );
    if let Some(e) = spec_err {
        return Err(e);
    }
    Ok(DiffOutcome {
        counters,
        continuum_classes: classes,
        failure,
        cfr_points,
        cfr_exploitability_max,
        point_timing: timing.snapshot(),
    })
}

/// Replays a (counterexample) jobs file: re-runs every job's seeds and
/// certificate-checks each claimed hit, plus the oracle cross-check on
/// every game small enough to enumerate. Used to reproduce nightly
/// artifacts locally.
///
/// # Errors
///
/// Returns [`SpecError`] if a job's game or solver cannot be built.
pub fn replay(spec: &BatchSpec, corrupt: bool) -> Result<DiffOutcome, SpecError> {
    let mut counters = DiffCounters::default();
    let mut classes = BTreeMap::new();
    let mut cfr_points = 0usize;
    let mut cfr_exploitability_max = 0.0f64;
    let timing = Histogram::new();
    for job in &spec.jobs {
        let job_started = Instant::now();
        let game = job.game.build()?;
        counters.points += 1;
        let truth = match check_oracles(&game, &mut counters) {
            Ok(truth) => truth,
            Err(failure) => {
                timing.record(u64::try_from(job_started.elapsed().as_nanos()).unwrap_or(u64::MAX));
                return Ok(DiffOutcome {
                    counters,
                    continuum_classes: classes,
                    failure: Some(failure),
                    cfr_points,
                    cfr_exploitability_max,
                    point_timing: timing.snapshot(),
                });
            }
        };
        let mut reps =
            continuum_representatives(&game, &truth, CLASS_TOL).map_err(|e| SpecError {
                message: format!("continuum representatives: {e}"),
            })?;
        match check_exact_oracle(&game, &truth, &mut counters) {
            Ok(exact_classes) => merge_classes(&mut reps, exact_classes),
            Err(failure) => {
                timing.record(u64::try_from(job_started.elapsed().as_nanos()).unwrap_or(u64::MAX));
                return Ok(DiffOutcome {
                    counters,
                    continuum_classes: classes,
                    failure: Some(failure),
                    cfr_points,
                    cfr_exploitability_max,
                    point_timing: timing.snapshot(),
                });
            }
        }
        let solver = build_solver(&job.solver, &game, corrupt)?;
        let mut cfr_best = None;
        for k in 0..job.runs {
            if let Some(failure) = check_run(
                &game,
                &truth,
                &reps,
                &job.solver,
                solver.as_ref(),
                job.base_seed.wrapping_add(k as u64),
                corrupt,
                &mut counters,
                &mut classes,
                &mut cfr_best,
            ) {
                timing.record(u64::try_from(job_started.elapsed().as_nanos()).unwrap_or(u64::MAX));
                return Ok(DiffOutcome {
                    counters,
                    continuum_classes: classes,
                    failure: Some(failure),
                    cfr_points,
                    cfr_exploitability_max,
                    point_timing: timing.snapshot(),
                });
            }
        }
        if let Some(x) = cfr_best {
            cfr_points += 1;
            cfr_exploitability_max = cfr_exploitability_max.max(x);
        }
        timing.record(u64::try_from(job_started.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
    Ok(DiffOutcome {
        counters,
        continuum_classes: classes,
        failure: None,
        cfr_points,
        cfr_exploitability_max,
        point_timing: timing.snapshot(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dominance_point(size: usize) -> GameSpec {
        GameSpec::Family {
            family: "dominance_solvable".into(),
            size,
            rows: None,
            cols: None,
            scale: None,
            knob: None,
            seed: 3,
        }
    }

    fn ideal_solver(iterations: usize) -> SolverSpec {
        SolverSpec::CNash {
            config: ConfigSpec::ideal(12).with_iterations(iterations),
            hardware_seed: 1,
        }
    }

    #[test]
    fn honest_solvers_verify_on_a_known_target() {
        let opts = DiffOptions {
            quick: true,
            base_seed: 0,
            runs: 3,
            corrupt: false,
            threads: 1,
        };
        let outcome = run_grid(&[dominance_point(2)], &[ideal_solver(800)], &opts).unwrap();
        assert!(outcome.failure.is_none(), "{:?}", outcome.failure);
        let c = outcome.counters;
        assert_eq!(c.points, 1);
        assert_eq!(c.solver_runs, 3);
        assert_eq!(c.claimed_hits + c.missed_runs, 3);
        assert!(
            c.claimed_hits > 0,
            "dominance-solvable 2x2 must be hit within 3 runs"
        );
        // Dominance-solvable truth is a single pure profile: every
        // verified hit matched it, nothing can be unlisted.
        assert_eq!(c.verified_hits, c.claimed_hits);
        assert_eq!(c.unlisted_valid_hits, 0);
        assert_eq!(c.oracle_equilibria, 1);
    }

    #[test]
    fn corrupt_hook_is_caught_minimized_and_replayable() {
        let opts = DiffOptions {
            quick: true,
            base_seed: 0,
            runs: 6,
            corrupt: true,
            threads: 1,
        };
        let outcome = run_grid(&[dominance_point(3)], &[ideal_solver(1200)], &opts).unwrap();
        let failure = outcome.failure.expect("the lying solver must be caught");
        assert_eq!(failure.class, FailureClass::FalseEquilibrium);
        assert!(failure.detail.contains("regrets"), "{}", failure.detail);

        // The counterexample is a self-contained, minimized jobs file.
        let jobs = &failure.counterexample;
        assert_eq!(jobs.jobs.len(), 1);
        assert_eq!(jobs.jobs[0].runs, 1);
        let min_game = jobs.jobs[0].game.build().unwrap();
        assert!(
            min_game.row_actions() + min_game.col_actions() < 6,
            "minimization must shrink the 3x3 game, got {}x{}",
            min_game.row_actions(),
            min_game.col_actions()
        );

        // Round-trip through the serialized jobs file, then replay:
        // corrupt replay reproduces the failure, honest replay is clean.
        let text = jobs.to_json().pretty();
        let parsed = BatchSpec::from_json(&text).unwrap();
        let again = replay(&parsed, true).unwrap();
        let refailure = again.failure.expect("replay must reproduce");
        assert_eq!(refailure.class, FailureClass::FalseEquilibrium);
        let honest = replay(&parsed, false).unwrap();
        assert!(honest.failure.is_none(), "{:?}", honest.failure);
    }

    #[test]
    fn summary_json_reports_failure_class() {
        let clean = DiffOutcome {
            counters: DiffCounters {
                points: 2,
                solver_runs: 6,
                ..DiffCounters::default()
            },
            continuum_classes: BTreeMap::from([("r{0,1}xc{0}".to_string(), 3)]),
            failure: None,
            cfr_points: 2,
            cfr_exploitability_max: 5e-4,
            point_timing: HistSnapshot::empty(),
        };
        let doc = summary_json(&clean);
        assert!(doc.get("ok").unwrap().as_bool().unwrap());
        assert_eq!(doc.get("points").unwrap().as_usize().unwrap(), 2);
        assert_eq!(doc.get("cfr_points").unwrap().as_usize().unwrap(), 2);
        assert!(
            doc.get("cfr_exploitability_ok").unwrap().as_bool().unwrap(),
            "5e-4 is within the CFR gate"
        );
        assert_eq!(
            doc.get("continuum_classes")
                .unwrap()
                .get("r{0,1}xc{0}")
                .unwrap()
                .as_usize()
                .unwrap(),
            3
        );

        let failed = DiffOutcome {
            counters: DiffCounters::default(),
            continuum_classes: BTreeMap::new(),
            cfr_points: 1,
            cfr_exploitability_max: 2e-2,
            point_timing: HistSnapshot::empty(),
            failure: Some(Failure {
                class: FailureClass::OracleDisagreement,
                detail: "boom".into(),
                counterexample: counterexample(
                    &cnash_game::games::matching_pennies(),
                    &oracle_placeholder_solver(),
                    0,
                    "x".into(),
                ),
            }),
        };
        let doc = summary_json(&failed);
        assert!(!doc.get("ok").unwrap().as_bool().unwrap());
        assert_eq!(
            doc.get("failure_class").unwrap().as_str().unwrap(),
            "oracle_disagreement"
        );
        assert!(
            !doc.get("cfr_exploitability_ok").unwrap().as_bool().unwrap(),
            "2e-2 violates the CFR gate"
        );
    }

    #[test]
    fn cfr_column_converges_within_the_gate_on_a_mixed_grid() {
        // Matching-pennies-style families have no pure equilibrium, so
        // the CFR column cannot claim and must still drive its average
        // profile under the exploitability gate; dominance-solvable
        // points are claimable outright.
        let points = vec![
            GameSpec::Builtin("matching_pennies".into()),
            dominance_point(3),
            GameSpec::Family {
                family: "covariant".into(),
                size: 3,
                rows: None,
                cols: None,
                scale: None,
                knob: None,
                seed: 1,
            },
        ];
        let opts = DiffOptions::new(true, 0, false).with_threads(0);
        let suite = solver_suite(&opts);
        assert!(
            suite.iter().any(|s| matches!(s, SolverSpec::Cfr { .. })),
            "the default suite carries the CFR column"
        );
        let outcome = run_grid(&points, &suite, &opts).unwrap();
        assert!(outcome.failure.is_none(), "{:?}", outcome.failure);
        assert_eq!(outcome.cfr_points, points.len());
        assert!(
            outcome.cfr_exploitability_max <= CFR_EXPLOITABILITY_TOL,
            "CFR exploitability {} above the {CFR_EXPLOITABILITY_TOL:e} gate",
            outcome.cfr_exploitability_max
        );
        let doc = summary_json(&outcome);
        assert!(doc.get("cfr_exploitability_ok").unwrap().as_bool().unwrap());
        // Without the CFR column nothing is tracked and the gate is
        // vacuously satisfied.
        let no_cfr: Vec<SolverSpec> = suite
            .into_iter()
            .filter(|s| !matches!(s, SolverSpec::Cfr { .. }))
            .collect();
        let outcome = run_grid(&points[..1], &no_cfr, &opts).unwrap();
        assert_eq!(outcome.cfr_points, 0);
        let doc = summary_json(&outcome);
        assert!(doc.get("cfr_exploitability_ok").unwrap().as_bool().unwrap());
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_serial() {
        // A small multi-point grid with unlisted (continuum) hits:
        // degenerate + sparse points plus a clean dominance target.
        let points: Vec<GameSpec> = ["degenerate", "sparse", "dominance_solvable"]
            .iter()
            .flat_map(|family| {
                (0..2).map(|seed| GameSpec::Family {
                    family: family.to_string(),
                    size: 3,
                    rows: None,
                    cols: None,
                    scale: None,
                    knob: None,
                    seed,
                })
            })
            .collect();
        let solvers = [ideal_solver(400)];
        let base = DiffOptions {
            quick: true,
            base_seed: 0,
            runs: 4,
            corrupt: false,
            threads: 1,
        };
        let serial = run_grid(&points, &solvers, &base).unwrap();
        // The exact-oracle column rides in the same summary: it ran on
        // every point, refuted nothing, and absorbed every continuum
        // hit (`unclassified` is the gate alias CI greps for).
        let serial_doc = summary_json(&serial);
        assert_eq!(
            serial_doc.get("exact_points").unwrap().as_usize().unwrap(),
            points.len()
        );
        assert_eq!(
            serial_doc
                .get("exact_disagreements")
                .unwrap()
                .as_usize()
                .unwrap(),
            0
        );
        assert_eq!(
            serial_doc.get("unclassified").unwrap().as_usize().unwrap(),
            serial.counters.unlisted_unclassified_hits
        );
        // Wall-clock timing keys can never be byte-stable; everything
        // else must be. Strip them exactly the way CI does.
        let stripped = |outcome: &DiffOutcome| {
            let mut doc = summary_json(outcome);
            strip_timing_keys(&mut doc);
            doc.pretty()
        };
        for threads in [2, 4, 8] {
            let opts = base.clone().with_threads(threads);
            let parallel = run_grid(&points, &solvers, &opts).unwrap();
            assert_eq!(parallel.counters, serial.counters, "threads={threads}");
            assert_eq!(
                parallel.continuum_classes, serial.continuum_classes,
                "threads={threads}"
            );
            assert_eq!(
                stripped(&parallel),
                stripped(&serial),
                "threads={threads}: stripped summary must be byte-identical"
            );
            // Timing itself is still *collected* at any thread count:
            // one sample per grid point, clean sweep.
            assert_eq!(
                parallel.point_timing.count,
                points.len() as u64,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn summary_timing_keys_are_flat_and_strippable() {
        let opts = DiffOptions {
            quick: true,
            base_seed: 0,
            runs: 1,
            corrupt: false,
            threads: 1,
        };
        let outcome = run_grid(&[dominance_point(2)], &[ideal_solver(200)], &opts).unwrap();
        assert_eq!(outcome.point_timing.count, 1);
        let mut doc = summary_json(&outcome);
        let timing_keys: Vec<&str> = match &doc {
            Json::Obj(map) => map
                .keys()
                .filter(|k| k.starts_with("timing_"))
                .map(String::as_str)
                .collect(),
            other => panic!("summary must be an object, got {other:?}"),
        };
        assert_eq!(
            timing_keys,
            [
                "timing_point_us_max",
                "timing_point_us_mean",
                "timing_point_us_p50",
                "timing_point_us_p90",
                "timing_point_us_p99",
                "timing_point_us_total",
                "timing_points_measured",
            ]
        );
        assert_eq!(
            doc.get("timing_points_measured").unwrap().as_u64().unwrap(),
            1
        );
        // Flat scalars: the pretty form keeps one `"timing_` line per
        // key, so CI can drop them all with `grep -v '"timing_'` —
        // the in-process strip helper must agree with that filter.
        let pretty = doc.pretty();
        assert_eq!(
            pretty.lines().filter(|l| l.contains("\"timing_")).count(),
            timing_keys.len()
        );
        strip_timing_keys(&mut doc);
        assert!(!doc.pretty().contains("timing_"));
        assert!(doc.get("ok").unwrap().as_bool().unwrap());
    }

    #[test]
    fn parallel_sweep_stops_at_the_same_first_failure() {
        // Corrupt sweep over several points: whatever the thread count,
        // the fold must stop at the first failing point in grid order
        // and report the identical minimized counterexample.
        let points: Vec<GameSpec> = (0..4).map(|seed| dominance_point_seeded(3, seed)).collect();
        let solvers = [ideal_solver(800)];
        let base = DiffOptions {
            quick: true,
            base_seed: 0,
            runs: 4,
            corrupt: true,
            threads: 1,
        };
        let serial = run_grid(&points, &solvers, &base).unwrap();
        let serial_failure = serial.failure.expect("corrupt sweep must fail");
        for threads in [3, 8] {
            let opts = base.clone().with_threads(threads);
            let parallel = run_grid(&points, &solvers, &opts).unwrap();
            let failure = parallel.failure.expect("corrupt sweep must fail");
            assert_eq!(parallel.counters, serial.counters, "threads={threads}");
            assert_eq!(failure.detail, serial_failure.detail);
            assert_eq!(
                failure.counterexample.to_json().pretty(),
                serial_failure.counterexample.to_json().pretty(),
                "threads={threads}: counterexample must be byte-identical"
            );
        }
    }

    #[test]
    fn continuum_hits_on_degenerate_families_are_classified() {
        // Degenerate and sparse families produce equilibrium continua;
        // every certificate-valid hit off the enumerated set must be
        // matched to a support-pair class — none left unclassified.
        let mut points = Vec::new();
        for family in ["degenerate", "sparse"] {
            for size in [2, 3] {
                for seed in 0..2 {
                    points.push(GameSpec::Family {
                        family: family.into(),
                        size,
                        rows: None,
                        cols: None,
                        scale: None,
                        knob: None,
                        seed,
                    });
                }
            }
        }
        let opts = DiffOptions {
            quick: true,
            base_seed: 0,
            runs: 4,
            corrupt: false,
            threads: 0,
        };
        let outcome = run_grid(&points, &solver_suite(&opts), &opts).unwrap();
        assert!(outcome.failure.is_none(), "{:?}", outcome.failure);
        let c = outcome.counters;
        assert!(
            c.unlisted_valid_hits > 0,
            "degenerate/sparse grid should produce continuum hits (got {c:?})"
        );
        assert_eq!(
            c.unlisted_classified_hits, c.unlisted_valid_hits,
            "every unlisted hit must be classified: {:?}",
            outcome.continuum_classes
        );
        assert_eq!(c.unlisted_unclassified_hits, 0);
        assert!(!outcome.continuum_classes.is_empty());
        assert!(
            outcome
                .continuum_classes
                .keys()
                .all(|k| !k.starts_with('?')),
            "{:?}",
            outcome.continuum_classes
        );
    }

    #[test]
    fn exact_classes_absorb_continua_at_sizes_that_used_to_unclassify() {
        // Sizes >= 4 of the degenerate family are where the float
        // enumerator's singular indifference systems used to leave
        // `?`-labelled unclassified hits. With the exact oracle's
        // vertex representatives merged into the continuum classes,
        // every unlisted hit must classify.
        let mut points = Vec::new();
        for size in [4, 5] {
            for seed in 0..3 {
                points.push(GameSpec::Family {
                    family: "degenerate".into(),
                    size,
                    rows: None,
                    cols: None,
                    scale: None,
                    knob: None,
                    seed,
                });
            }
        }
        let opts = DiffOptions {
            quick: true,
            base_seed: 0,
            runs: 4,
            corrupt: false,
            threads: 0,
        };
        let outcome = run_grid(&points, &solver_suite(&opts), &opts).unwrap();
        assert!(outcome.failure.is_none(), "{:?}", outcome.failure);
        let c = outcome.counters;
        assert_eq!(c.exact_points, points.len());
        assert_eq!(c.exact_disagreements, 0);
        assert_eq!(
            c.unlisted_unclassified_hits, 0,
            "exact representatives must absorb every continuum hit: {:?}",
            outcome.continuum_classes
        );
    }

    #[test]
    fn exact_cross_check_refutes_a_fabricated_truth() {
        // Cooperate/cooperate in the prisoner's dilemma is not an
        // equilibrium; selling it as float truth must be refuted by
        // exact substitution, witnessed by the float oracle.
        let g = cnash_game::games::prisoners_dilemma();
        let bogus = Equilibrium::from_profile(
            &g,
            MixedStrategy::pure(2, 0).unwrap(),
            MixedStrategy::pure(2, 0).unwrap(),
        );
        let err = exact_cross_check(&g, &[bogus]).expect_err("must refute");
        assert_eq!(err.1, "float");
        assert!(err.0.contains("exact regret"), "{}", err.0);
        // The genuine truth passes and returns the exact classes.
        let truth = enumerate_equilibria(&g, 1e-9);
        let classes = exact_cross_check(&g, &truth).unwrap();
        assert!(!classes.is_empty());
        assert_eq!(
            FailureClass::ExactOracleDisagreement.name(),
            "exact_oracle_disagreement"
        );
    }

    fn dominance_point_seeded(size: usize, seed: u64) -> GameSpec {
        GameSpec::Family {
            family: "dominance_solvable".into(),
            size,
            rows: None,
            cols: None,
            scale: None,
            knob: None,
            seed,
        }
    }

    /// The corrupt-ideal failure predicate the minimizer tests shrink
    /// against: a deterministic, always-reproducing mismatch.
    fn corrupt_predicate(seed: u64) -> impl Fn(&BimatrixGame) -> bool {
        move |g: &BimatrixGame| reproduces(g, &ideal_solver(400), seed, true)
    }

    #[test]
    fn minimizer_output_still_reproduces_the_mismatch_class() {
        // Property: across families and seeds, whenever the original
        // game reproduces a false-equilibrium mismatch, the shrunk game
        // must reproduce the *same* mismatch class (and never grow).
        use cnash_game::families::Family;
        let mut shrunk_any = false;
        for family in Family::ALL {
            for seed in 0..3u64 {
                let game = family
                    .build(3, family.default_scale(), family.default_knob(), seed)
                    .unwrap();
                let fails = corrupt_predicate(7);
                if !fails(&game) {
                    continue;
                }
                let min = minimize(&game, &fails);
                assert!(
                    fails(&min),
                    "{}: minimized game no longer reproduces",
                    game.name()
                );
                assert!(min.row_actions() <= game.row_actions());
                assert!(min.col_actions() <= game.col_actions());
                assert!(min.row_payoffs().max() <= game.row_payoffs().max());
                shrunk_any |= min.row_actions() + min.col_actions()
                    < game.row_actions() + game.col_actions()
                    || min.row_payoffs().max() < game.row_payoffs().max();
            }
        }
        assert!(shrunk_any, "no family instance was shrunk at all");
    }

    #[test]
    fn minimizer_is_deterministic_and_shrinks_payoff_values() {
        // Fixed-seed regression: shrinking the same input twice yields
        // the same game bitwise, and the value passes (scale halving +
        // cell zeroing) drive payoffs toward 0 beyond action deletion.
        let game = dominance_point_seeded(3, 3).build().unwrap();
        let fails = corrupt_predicate(7);
        assert!(fails(&game), "predicate must hold on the seed game");
        let a = minimize(&game, &fails);
        let b = minimize(&game, &fails);
        assert_eq!(a.row_payoffs(), b.row_payoffs(), "nondeterministic shrink");
        assert_eq!(a.col_payoffs(), b.col_payoffs(), "nondeterministic shrink");
        assert!(
            a.row_actions() + a.col_actions() < game.row_actions() + game.col_actions(),
            "action deletion must shrink the 3x3 seed game"
        );
        let max_payoff = |g: &BimatrixGame| g.row_payoffs().max().max(g.col_payoffs().max());
        assert!(
            max_payoff(&a) < max_payoff(&game),
            "value shrinking must reduce the payoff scale ({} -> {})",
            max_payoff(&game),
            max_payoff(&a)
        );
        // Exhaustive 1-minimality at the fixpoint: no further single
        // deletion, halving or zeroing still reproduces.
        assert!(try_action_deletion(&a, &&fails).is_none());
        assert!(try_scale_reduction(&a, &&fails).is_none());
        assert!(try_payoff_zeroing(&a, &&fails).is_none());
    }

    #[test]
    fn worst_response_has_positive_regret_on_nontrivial_games() {
        let g = cnash_game::games::battle_of_the_sexes();
        let q = MixedStrategy::pure(2, 0).unwrap();
        let lie = worst_response(&g, &q);
        let cert = Certificate::build(&g, lie, q, CLAIM_TOL).unwrap();
        assert!(!cert.is_valid());
    }
}
