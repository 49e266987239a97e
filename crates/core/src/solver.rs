//! The C-Nash solver: hardware-in-the-loop two-phase SA (Fig. 3, Alg. 1).

use crate::config::CNashConfig;
use crate::error::CoreError;
use crate::timing::CimTimingModel;
use cnash_anneal::delta::{simulated_annealing_delta, DeltaEnergy, FullEnergy};
use cnash_anneal::engine::SaOptions;
use cnash_anneal::moves::GridStrategyPair;
use cnash_crossbar::{BiCrossbar, DeltaBiCrossbar, PhaseOneMax};
use cnash_game::{BimatrixGame, Game, MixedStrategy, Profile};
use cnash_telemetry::hot;
use cnash_wta::WtaTree;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Outcome of one solver run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// The best strategy profile returned by the run (`None` when a
    /// baseline's decoded assignment violates the one-hot constraints —
    /// an "error solution" in the paper's Fig. 8 vocabulary).
    pub profile: Option<Profile>,
    /// Exact (software-verified) equilibrium check of the profile.
    pub is_equilibrium: bool,
    /// Model time until the solver first *detected* a solution (s).
    pub hit_time: Option<f64>,
    /// Model time of the complete run (s).
    pub total_time: f64,
    /// Solver-measured objective of the returned profile (noisy for
    /// hardware solvers).
    pub measured_objective: f64,
    /// All distinct candidate solutions the run *passed through* (states
    /// the solver's own detector flagged). One run can discover several
    /// equilibria; Fig. 9 coverage unions these across runs.
    pub solutions: Vec<Profile>,
    /// `true` when `solutions` was capped (the run discovered more
    /// distinct candidates than the recorder keeps) — coverage built on
    /// this run undercounts, and reports surface the flag.
    pub solutions_truncated: bool,
}

impl RunOutcome {
    /// Two-player `(row, col)` view of the returned profile — `None`
    /// when no profile was returned or the game is not two-player.
    pub fn pair(&self) -> Option<(&MixedStrategy, &MixedStrategy)> {
        self.profile.as_ref().and_then(Profile::as_pair)
    }

    /// Consumes the outcome into its `(row, col)` profile, if any.
    pub fn into_pair(self) -> Option<(MixedStrategy, MixedStrategy)> {
        self.profile.and_then(Profile::into_pair)
    }
}

/// Common interface of C-Nash and the baselines.
///
/// Solvers are `Send + Sync`: a run is a pure function of `(self, seed)`
/// and mutates no solver state, so the batch runtime (`cnash-runtime`)
/// can fan independent seeded runs of one solver instance across
/// threads.
pub trait NashSolver: Send + Sync {
    /// Human-readable solver name (used in reports).
    fn name(&self) -> &str;

    /// The game being solved, behind the generic [`Game`] interface.
    /// Bimatrix-only machinery (crossbar mapping, QUBO reduction, exact
    /// oracles) recovers the typed view with [`Game::as_bimatrix`].
    fn game(&self) -> &dyn Game;

    /// Executes one independent run with the given seed.
    fn run(&self, seed: u64) -> RunOutcome;
}

/// One run of a C-Nash-family solver (C-Nash itself or the ideal-
/// evaluation ablation): Algorithm 1 from the seed's random grid state,
/// through the evaluator `at` builds there, with solution hits at
/// energies `≤ target` and `latency` model seconds per iteration.
///
/// The run is recorded in the process-global annealer metrics from the
/// [`SaRun`](cnash_anneal::engine::SaRun) the driver returns: one
/// `SA_RUNS`, its iterations in `SA_SWEEPS`, its accepted moves in
/// `SA_ACCEPTS`, and, when [`hot::sa_trace_interval`] is `n > 0`, the
/// energy after every `n`-th iteration as an `sa_energy` event (the run
/// then keeps its trace for this). Recording touches no RNG and no
/// decision, so the outcome is bit-identical with telemetry on or off.
fn grid_run<E: DeltaEnergy<State = GridStrategyPair>>(
    game: &BimatrixGame,
    config: &CNashConfig,
    seed: u64,
    target: f64,
    latency: f64,
    at: impl FnOnce(GridStrategyPair) -> E,
) -> RunOutcome {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_0101);
    let (n, m) = (game.row_actions(), game.col_actions());
    let start = GridStrategyPair::random(n, m, config.intervals, &mut rng)
        .expect("benchmark games have non-empty action sets");
    let trace_every = hot::sa_trace_interval() as usize;
    let opts = SaOptions {
        iterations: config.iterations,
        schedule: config.schedule,
        seed,
        target_energy: Some(target),
        record_trace: trace_every != 0,
        record_hits: true,
    };
    let sa = simulated_annealing_delta(&mut at(start), &opts);
    hot::SA_RUNS.inc();
    hot::SA_SWEEPS.add(sa.iterations as u64);
    hot::SA_ACCEPTS.add(sa.accepted as u64);
    if trace_every != 0 {
        let sampled = sa.trace.iter().enumerate().skip(trace_every - 1);
        for (i, energy) in sampled.step_by(trace_every) {
            let detail = format!("seed={seed} iter={} energy={energy}", i + 1);
            hot::SA_TRACE.push("sa_energy", detail);
        }
    }
    // Algorithm 1 returns the final accepted strategy pair. (Tracking
    // the measured-best state instead would let static read-noise
    // outliers dominate — a solver on real hardware cannot tell a
    // noise-depressed reading from a true optimum.)
    let (p, q) = (sa.final_state.p_strategy(), sa.final_state.q_strategy());
    let solutions = sa
        .hit_states
        .iter()
        .map(|s| Profile::pair(s.p_strategy(), s.q_strategy()))
        .collect();
    RunOutcome {
        is_equilibrium: game.is_equilibrium(&p, &q, 1e-6),
        profile: Some(Profile::pair(p, q)),
        hit_time: sa.first_hit.map(|k| k as f64 * latency),
        total_time: sa.iterations as f64 * latency,
        measured_objective: sa.final_energy,
        solutions,
        solutions_truncated: sa.hits_truncated,
    }
}

/// Phase-1 maxima routed through the solver's WTA-tree model (or the
/// exact max when the `use_wta` ablation switch is off) — the
/// `cnash-core` composition hook that puts the analog max back on top of
/// [`DeltaBiCrossbar`]'s incrementally maintained payoff vectors.
#[derive(Debug, Clone)]
pub struct WtaMax<'a> {
    row: &'a WtaTree,
    col: &'a WtaTree,
    use_wta: bool,
}

impl PhaseOneMax for WtaMax<'_> {
    fn max_row(&self, reads: &[f64]) -> f64 {
        if self.use_wta {
            self.row.eval_value(reads)
        } else {
            reads.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        }
    }

    fn max_col(&self, reads: &[f64]) -> f64 {
        if self.use_wta {
            self.col.eval_value(reads)
        } else {
            reads.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        }
    }
}

/// The programmed hardware of a [`CNashSolver`]: the mapped bi-crossbar
/// and both WTA trees, shared by reference counting.
///
/// Programming is the expensive part of instantiating a solver — the
/// `O(n·m·I²·t)` device-sampling mapping pass — while everything else in
/// a solver is cheap per-request state. A service that sees the same
/// game (by canonical fingerprint) twice extracts this with
/// [`CNashSolver::programmed`] on the first request and rebuilds cheap
/// solver handles around it with [`CNashSolver::from_programmed`] on
/// every later one, including parameter sweeps that only change the
/// iteration budget, gap tolerance or WTA routing flag.
#[derive(Debug, Clone)]
pub struct ProgrammedCNash {
    hardware: Arc<BiCrossbar>,
    wta_row: Arc<WtaTree>,
    wta_col: Arc<WtaTree>,
}

impl ProgrammedCNash {
    /// The programmed bi-crossbar.
    pub fn hardware(&self) -> &BiCrossbar {
        &self.hardware
    }
}

/// The full C-Nash architecture: FeFET bi-crossbar + WTA trees + two-phase
/// SA logic.
#[derive(Debug, Clone)]
pub struct CNashSolver {
    name: String,
    game: BimatrixGame,
    config: CNashConfig,
    hardware: Arc<BiCrossbar>,
    wta_row: Arc<WtaTree>,
    wta_col: Arc<WtaTree>,
    timing: CimTimingModel,
}

impl CNashSolver {
    /// Builds the hardware for `game`. `hardware_seed` selects the
    /// silicon instance (device variability and WTA mismatch samples).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Crossbar`] if the game cannot be mapped (e.g.
    /// non-integer payoffs at the configured scale).
    pub fn new(
        game: &BimatrixGame,
        config: CNashConfig,
        hardware_seed: u64,
    ) -> Result<Self, CoreError> {
        let hardware = BiCrossbar::build(game, &config.crossbar, hardware_seed)?;
        let wta_row = WtaTree::build(
            game.row_actions(),
            &config.wta,
            hardware_seed.wrapping_add(0xA11CE),
        );
        let wta_col = WtaTree::build(
            game.col_actions(),
            &config.wta,
            hardware_seed.wrapping_add(0xB0B0),
        );
        Ok(Self {
            name: "C-Nash".into(),
            game: game.clone(),
            config,
            hardware: Arc::new(hardware),
            wta_row: Arc::new(wta_row),
            wta_col: Arc::new(wta_col),
            timing: CimTimingModel::nominal(),
        })
    }

    /// Shares this solver's programmed hardware (cheap: three `Arc`
    /// clones, no device re-sampling).
    pub fn programmed(&self) -> ProgrammedCNash {
        ProgrammedCNash {
            hardware: Arc::clone(&self.hardware),
            wta_row: Arc::clone(&self.wta_row),
            wta_col: Arc::clone(&self.wta_col),
        }
    }

    /// Rebuilds a solver handle around already-programmed hardware,
    /// skipping the mapping/programming pass entirely.
    ///
    /// The caller is responsible for pairing the instance with the same
    /// `(game, crossbar config, WTA config, hardware seed)` it was
    /// programmed from — an instance cache does this by keying on the
    /// game's canonical fingerprint plus the config fingerprints.
    /// Geometry and interval count are re-validated here, so a
    /// mis-keyed cache fails loudly instead of producing wrong physics.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the instance's geometry
    /// or interval count does not match `(game, config)`.
    pub fn from_programmed(
        game: &BimatrixGame,
        config: CNashConfig,
        programmed: ProgrammedCNash,
    ) -> Result<Self, CoreError> {
        let dims = (game.row_actions(), game.col_actions());
        if programmed.hardware.actions() != dims {
            return Err(CoreError::InvalidConfig(format!(
                "programmed instance is {:?}, game `{}` is {:?}",
                programmed.hardware.actions(),
                game.name(),
                dims
            )));
        }
        if programmed.hardware.intervals() != config.intervals {
            return Err(CoreError::InvalidConfig(format!(
                "programmed instance has {} intervals, config wants {}",
                programmed.hardware.intervals(),
                config.intervals
            )));
        }
        if programmed.wta_row.inputs() != dims.0 || programmed.wta_col.inputs() != dims.1 {
            return Err(CoreError::InvalidConfig(format!(
                "programmed WTA trees are {}x{}, game `{}` is {:?}",
                programmed.wta_row.inputs(),
                programmed.wta_col.inputs(),
                game.name(),
                dims
            )));
        }
        Ok(Self {
            name: "C-Nash".into(),
            game: game.clone(),
            config,
            hardware: programmed.hardware,
            wta_row: programmed.wta_row,
            wta_col: programmed.wta_col,
            timing: CimTimingModel::nominal(),
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &CNashConfig {
        &self.config
    }

    /// The underlying bi-crossbar (for inspection / fault injection
    /// studies via its arrays).
    pub fn hardware(&self) -> &BiCrossbar {
        &self.hardware
    }

    /// Hardware evaluation of the MAX-QUBO objective at a grid state:
    /// Phase 1 (MV reads + WTA maxima) then Phase 2 (VMV reads), combined
    /// by the SA logic (Fig. 6). Offsets cancel, so the value estimates
    /// the true Nash gap. This is a from-scratch
    /// [`CNashSolver::delta_evaluator`] energy, so it equals bitwise the
    /// energy a run's incremental walk reports at `state`.
    pub fn evaluate(&self, state: &GridStrategyPair) -> f64 {
        self.delta_evaluator(state.clone())
            .expect("state geometry matches the hardware")
            .energy()
    }

    /// Builds the incremental evaluator of this solver's pipeline at
    /// `state`: a single-unit move updates only the touched rows/columns
    /// (`O((n+m)·log nm)` instead of `O(n·m)` per SA proposal). Every
    /// [`NashSolver::run`] drives it.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Crossbar`] if the state's geometry does not
    /// match the hardware.
    pub fn delta_evaluator(
        &self,
        state: GridStrategyPair,
    ) -> Result<DeltaBiCrossbar<'_, WtaMax<'_>>, CoreError> {
        let max = WtaMax {
            row: &self.wta_row,
            col: &self.wta_col,
            use_wta: self.config.use_wta,
        };
        Ok(DeltaBiCrossbar::new(&self.hardware, state, max)?)
    }

    /// Per-iteration latency of this instance (s).
    pub fn iteration_latency(&self) -> f64 {
        self.timing
            .iteration_latency(self.game.row_actions(), self.game.col_actions())
    }
}

impl NashSolver for CNashSolver {
    fn name(&self) -> &str {
        &self.name
    }

    fn game(&self) -> &dyn Game {
        &self.game
    }

    fn run(&self, seed: u64) -> RunOutcome {
        let (target, latency) = (self.config.gap_tolerance, self.iteration_latency());
        grid_run(&self.game, &self.config, seed, target, latency, |start| {
            self.delta_evaluator(start)
                .expect("initial state matches the hardware geometry")
        })
    }
}

/// Exact-arithmetic ablation of C-Nash: identical SA walk on the same
/// grid, but the objective is evaluated in software (no crossbar, ADC or
/// WTA non-idealities). Quantifies what the analog hardware costs.
#[derive(Debug, Clone)]
pub struct IdealSolver {
    name: String,
    game: BimatrixGame,
    config: CNashConfig,
    timing: CimTimingModel,
}

impl IdealSolver {
    /// Wraps a game with an ideal-evaluation solver.
    pub fn new(game: &BimatrixGame, config: CNashConfig) -> Self {
        Self {
            name: "C-Nash (ideal eval)".into(),
            game: game.clone(),
            config,
            timing: CimTimingModel::nominal(),
        }
    }

    fn evaluate(&self, state: &GridStrategyPair) -> f64 {
        self.game
            .nash_gap(&state.p_strategy(), &state.q_strategy())
            .expect("state dimensions match the game")
    }
}

impl NashSolver for IdealSolver {
    fn name(&self) -> &str {
        &self.name
    }

    fn game(&self) -> &dyn Game {
        &self.game
    }

    fn run(&self, seed: u64) -> RunOutcome {
        let target = self.config.gap_tolerance.max(1e-9);
        let latency = self
            .timing
            .iteration_latency(self.game.row_actions(), self.game.col_actions());
        grid_run(&self.game, &self.config, seed, target, latency, |start| {
            FullEnergy::new(
                start,
                |s: &GridStrategyPair| self.evaluate(s),
                |s: &GridStrategyPair, rng: &mut StdRng| s.neighbour(rng),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnash_game::games;
    use cnash_game::generators::random_integer_game;

    #[test]
    fn ideal_cnash_solves_bos() {
        let g = games::battle_of_the_sexes();
        let s = CNashSolver::new(&g, CNashConfig::ideal(12), 0).unwrap();
        let out = s.run(1);
        assert!(out.is_equilibrium);
        assert!(out.hit_time.is_some());
        assert!(out.measured_objective.abs() < 1e-6);
    }

    #[test]
    fn paper_config_cnash_solves_bos() {
        let g = games::battle_of_the_sexes();
        let s = CNashSolver::new(&g, CNashConfig::paper(12), 3).unwrap();
        let mut successes = 0;
        for seed in 0..10 {
            if s.run(seed).is_equilibrium {
                successes += 1;
            }
        }
        assert!(successes >= 8, "only {successes}/10 noisy runs succeeded");
    }

    #[test]
    fn cnash_finds_mixed_equilibria() {
        // Matching pennies has ONLY a mixed equilibrium — the capability
        // that distinguishes C-Nash from the S-QUBO baselines.
        let g = games::matching_pennies();
        let s = CNashSolver::new(&g, CNashConfig::ideal(12), 0).unwrap();
        let out = s.run(5);
        assert!(out.is_equilibrium);
        let (p, _) = out.into_pair().expect("cnash always returns a profile");
        assert!(!p.is_pure(1e-6), "matching pennies NE is mixed");
    }

    #[test]
    fn evaluate_matches_exact_gap_when_ideal() {
        let g = games::bird_game();
        let s = CNashSolver::new(&g, CNashConfig::ideal(12), 0).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..20 {
            let state = GridStrategyPair::random(3, 3, 12, &mut rng).unwrap();
            let hw = s.evaluate(&state);
            let exact = g
                .nash_gap(&state.p_strategy(), &state.q_strategy())
                .unwrap();
            assert!((hw - exact).abs() < 1e-4, "hw {hw} vs exact {exact}");
        }
    }

    #[test]
    fn delta_run_matches_full_reevaluation_bitwise() {
        // The incremental evaluator against `FullEnergy` re-evaluating
        // every candidate from scratch through `evaluate`: identical
        // trajectories, bit for bit — with the full paper noise model
        // (variability + 8-bit ADC + WTA trees) on, on the three paper
        // games and one game past their sizes.
        let mut cases: Vec<BimatrixGame> = games::paper_benchmarks()
            .into_iter()
            .map(|b| b.game)
            .collect();
        cases.push(random_integer_game(9, 9, 3, 5).unwrap());
        for g in &cases {
            let s = CNashSolver::new(g, CNashConfig::paper(12).with_iterations(400), 3).unwrap();
            let (n, m) = (g.row_actions(), g.col_actions());
            for seed in 0..3u64 {
                let opts = SaOptions {
                    iterations: 400,
                    schedule: s.config().schedule,
                    seed,
                    target_energy: Some(s.config().gap_tolerance),
                    record_trace: true,
                    record_hits: true,
                };
                let mut rng = StdRng::seed_from_u64(seed);
                let init = GridStrategyPair::random(n, m, 12, &mut rng).unwrap();
                let mut reference = FullEnergy::new(
                    init.clone(),
                    |st: &GridStrategyPair| s.evaluate(st),
                    |st: &GridStrategyPair, r: &mut StdRng| st.neighbour(r),
                );
                let full = simulated_annealing_delta(&mut reference, &opts);
                let mut evaluator = s.delta_evaluator(init).unwrap();
                let delta = simulated_annealing_delta(&mut evaluator, &opts);
                assert_eq!(full, delta, "{}", g.name());
                // The incrementally maintained energy at the end of the
                // walk, and at its best state, is the from-scratch one.
                assert_eq!(
                    s.evaluate(evaluator.state()).to_bits(),
                    evaluator.energy().to_bits(),
                    "{}",
                    g.name()
                );
                assert_eq!(
                    s.evaluate(&delta.best_state).to_bits(),
                    delta.best_energy.to_bits(),
                    "{}",
                    g.name()
                );
            }
        }
    }

    #[test]
    fn reprogrammed_solver_is_bit_identical() {
        // A solver rebuilt around cached hardware must be the same
        // silicon: identical run trajectories, bit for bit, even with
        // the full paper noise model on.
        let g = games::bird_game();
        let cold = CNashSolver::new(&g, CNashConfig::paper(12), 9).unwrap();
        let warm =
            CNashSolver::from_programmed(&g, CNashConfig::paper(12), cold.programmed()).unwrap();
        for seed in 0..3 {
            assert_eq!(cold.run(seed), warm.run(seed));
        }
        // Parameter sweeps reuse the same programming with different
        // algorithmic knobs.
        let swept = CNashSolver::from_programmed(
            &g,
            CNashConfig::paper(12).with_iterations(500),
            cold.programmed(),
        )
        .unwrap();
        assert_eq!(swept.config().iterations, 500);
        assert!(swept.run(1).total_time > 0.0);
    }

    #[test]
    fn from_programmed_rejects_mismatched_instances() {
        let bos = games::battle_of_the_sexes(); // 2x2
        let bird = games::bird_game(); // 3x3
        let programmed = CNashSolver::new(&bos, CNashConfig::paper(12), 0)
            .unwrap()
            .programmed();
        assert!(matches!(
            CNashSolver::from_programmed(&bird, CNashConfig::paper(12), programmed.clone()),
            Err(CoreError::InvalidConfig(_))
        ));
        assert!(matches!(
            CNashSolver::from_programmed(&bos, CNashConfig::paper(16), programmed),
            Err(CoreError::InvalidConfig(_))
        ));
    }

    #[test]
    fn runs_are_reproducible() {
        let g = games::battle_of_the_sexes();
        let s = CNashSolver::new(&g, CNashConfig::paper(12), 7).unwrap();
        assert_eq!(s.run(3), s.run(3));
    }

    #[test]
    fn different_hardware_seeds_differ_under_noise() {
        let g = games::bird_game();
        let a = CNashSolver::new(&g, CNashConfig::paper(12), 1).unwrap();
        let b = CNashSolver::new(&g, CNashConfig::paper(12), 2).unwrap();
        let state = GridStrategyPair::all_on_first(3, 3, 12).unwrap();
        assert_ne!(a.evaluate(&state), b.evaluate(&state));
    }

    #[test]
    fn ideal_solver_matches_cnash_ideal_semantics() {
        let g = games::stag_hunt();
        let cfg = CNashConfig::ideal(12);
        let ideal = IdealSolver::new(&g, cfg);
        let out = ideal.run(4);
        assert!(out.is_equilibrium);
        assert!(out.total_time > 0.0);
    }

    #[test]
    fn timing_fields_consistent() {
        let g = games::battle_of_the_sexes();
        let s = CNashSolver::new(&g, CNashConfig::ideal(12), 0).unwrap();
        let out = s.run(0);
        if let Some(h) = out.hit_time {
            assert!(h <= out.total_time);
        }
        let expected = s.iteration_latency() * s.config().iterations as f64;
        assert!((out.total_time - expected).abs() < 1e-15);
    }
}
