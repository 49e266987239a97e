//! Generic seeded Metropolis/simulated-annealing driver (Algorithm 1).
//!
//! The driver is generic over the state type and an energy closure that
//! evaluates every proposal from scratch. `IdealSolver` runs on it, and
//! it is the full-evaluation reference of the `perf` harness and the
//! delta-vs-full equivalence tests. C-Nash runs do not use it: every
//! `CNashSolver::run` anneals through
//! [`crate::delta::simulated_annealing_delta`].

use crate::schedule::Schedule;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Options of one SA run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SaOptions {
    /// Iteration budget (Algorithm 1 loops until `T < T_min`; with a
    /// schedule over a fixed budget the two formulations coincide).
    pub iterations: usize,
    /// Cooling schedule.
    pub schedule: Schedule,
    /// RNG seed (runs are fully reproducible).
    pub seed: u64,
    /// If set, record the first iteration whose energy is `≤ target`
    /// (used for time-to-solution) — the run still continues to the full
    /// budget, tracking the best state.
    pub target_energy: Option<f64>,
    /// Record the per-iteration energy trace (costs memory).
    pub record_trace: bool,
    /// Record every *distinct* visited state whose energy is `≤ target`
    /// (capped at [`MAX_HIT_STATES`]). C-Nash's SA logic logs each zero-
    /// objective state it passes through, which is how one run can report
    /// several equilibria (paper Fig. 9).
    pub record_hits: bool,
}

/// Cap on recorded hit states per run.
pub const MAX_HIT_STATES: usize = 64;

/// Capped recorder of *distinct* solution-hit states, shared by every
/// driver that logs hits (full/delta SA, the D-Wave baseline): dedups
/// against what it already holds, keeps at most [`MAX_HIT_STATES`]
/// states, and raises `truncated` when a distinct state is dropped at
/// the cap. Centralising this keeps the full and delta drivers bitwise
/// in lockstep and the `truncated` lower-bound semantics uniform.
#[derive(Debug, Clone)]
pub struct HitRecorder<S> {
    enabled: bool,
    states: Vec<S>,
    truncated: bool,
}

impl<S: Clone + PartialEq> HitRecorder<S> {
    /// Creates a recorder; a disabled one ignores every record.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            states: Vec::new(),
            truncated: false,
        }
    }

    /// Records `state` if it is distinct and the cap allows; flags
    /// truncation otherwise.
    pub fn record(&mut self, state: &S) {
        if self.enabled && !self.states.contains(state) {
            if self.states.len() < MAX_HIT_STATES {
                self.states.push(state.clone());
            } else {
                self.truncated = true;
            }
        }
    }

    /// States recorded so far, in visit order.
    pub fn states(&self) -> &[S] {
        &self.states
    }

    /// Whether a distinct state was dropped at the cap.
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// Consumes the recorder into `(states, truncated)`.
    pub fn into_parts(self) -> (Vec<S>, bool) {
        (self.states, self.truncated)
    }
}

impl Default for SaOptions {
    fn default() -> Self {
        Self {
            iterations: 10_000,
            schedule: Schedule::default(),
            seed: 0,
            target_energy: None,
            record_trace: false,
            record_hits: false,
        }
    }
}

/// Result of one SA run.
#[derive(Debug, Clone, PartialEq)]
pub struct SaRun<S> {
    /// Best state encountered.
    pub best_state: S,
    /// Energy of the best state.
    pub best_energy: f64,
    /// Final accepted state when the schedule ran out (what Algorithm 1
    /// returns as its solution).
    pub final_state: S,
    /// Energy of the final state.
    pub final_energy: f64,
    /// Iteration (0-based) at which `target_energy` was first reached.
    pub first_hit: Option<usize>,
    /// Number of accepted proposals.
    pub accepted: usize,
    /// Iterations executed.
    pub iterations: usize,
    /// Energy trace (empty unless `record_trace`).
    pub trace: Vec<f64>,
    /// Distinct states visited with energy `≤ target_energy` (empty
    /// unless `record_hits`), in visit order.
    pub hit_states: Vec<S>,
    /// `true` if at least one distinct hit state was dropped because the
    /// [`MAX_HIT_STATES`] cap was reached — `hit_states` is then a strict
    /// prefix of the run's discoveries, and coverage statistics built on
    /// it undercount.
    pub hits_truncated: bool,
}

impl<S> SaRun<S> {
    /// Acceptance ratio over the run.
    pub fn acceptance_ratio(&self) -> f64 {
        if self.iterations == 0 {
            0.0
        } else {
            self.accepted as f64 / self.iterations as f64
        }
    }
}

/// Runs simulated annealing from `init`, proposing `neighbour` moves with
/// Metropolis acceptance at the scheduled temperature (Algorithm 1).
///
/// `energy` may be stateful (hardware in the loop); it is invoked once for
/// the initial state and once per proposal.
///
/// Telemetry: run aggregates land in [`cnash_telemetry::hot`] once at
/// the end of the run, and an energy sample is pushed to
/// `hot::SA_TRACE` every `hot::sa_trace_interval()`-th iteration (the
/// interval is read once, at run start). Neither touches the RNG or
/// any decision, so the walk — and the returned [`SaRun`] — is
/// bit-identical with telemetry on or off.
pub fn simulated_annealing<S: Clone + PartialEq>(
    init: S,
    mut energy: impl FnMut(&S) -> f64,
    mut neighbour: impl FnMut(&S, &mut StdRng) -> S,
    opts: &SaOptions,
) -> SaRun<S> {
    let trace_every = cnash_telemetry::hot::sa_trace_interval();
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut current = init;
    let mut current_energy = energy(&current);
    let mut best_state = current.clone();
    let mut best_energy = current_energy;
    let mut first_hit = None;
    let mut accepted = 0;
    let mut trace = Vec::new();
    let mut hits = HitRecorder::new(opts.record_hits);

    let hit = |e: f64| opts.target_energy.is_some_and(|t| e <= t);
    if hit(current_energy) {
        first_hit = Some(0);
        hits.record(&current);
    }

    for iter in 0..opts.iterations {
        let temp = opts.schedule.temperature(iter, opts.iterations);
        let candidate = neighbour(&current, &mut rng);
        let cand_energy = energy(&candidate);
        let delta = cand_energy - current_energy;
        // Algorithm 1 lines 9–13: accept improvements, else with
        // probability e^{−ΔE/T}.
        if delta <= 0.0 || rng.random::<f64>() < (-delta / temp).exp() {
            current = candidate;
            current_energy = cand_energy;
            accepted += 1;
            if current_energy < best_energy {
                best_energy = current_energy;
                best_state = current.clone();
            }
            if hit(current_energy) {
                if first_hit.is_none() {
                    first_hit = Some(iter + 1);
                }
                hits.record(&current);
            }
        }
        if opts.record_trace {
            trace.push(current_energy);
        }
        if trace_every != 0 && (iter + 1) % trace_every as usize == 0 {
            cnash_telemetry::hot::SA_TRACE.push(
                "sa_energy",
                format!(
                    "seed={} iter={} energy={}",
                    opts.seed,
                    iter + 1,
                    current_energy
                ),
            );
        }
    }

    cnash_telemetry::hot::SA_RUNS.inc();
    cnash_telemetry::hot::SA_SWEEPS.add(opts.iterations as u64);
    cnash_telemetry::hot::SA_ACCEPTS.add(accepted as u64);

    let (hit_states, hits_truncated) = hits.into_parts();
    SaRun {
        best_state,
        best_energy,
        final_state: current,
        final_energy: current_energy,
        first_hit,
        accepted,
        iterations: opts.iterations,
        trace,
        hit_states,
        hits_truncated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_opts(seed: u64) -> SaOptions {
        SaOptions {
            iterations: 5000,
            schedule: Schedule::geometric(10.0, 1e-3),
            seed,
            target_energy: Some(0.0),
            record_trace: false,
            record_hits: false,
        }
    }

    fn run_quadratic(seed: u64) -> SaRun<i64> {
        simulated_annealing(
            50i64,
            |&x| (x * x) as f64,
            |&x, rng| if rng.random::<bool>() { x + 1 } else { x - 1 },
            &quadratic_opts(seed),
        )
    }

    #[test]
    fn minimises_quadratic() {
        let run = run_quadratic(1);
        assert_eq!(run.best_state, 0);
        assert_eq!(run.best_energy, 0.0);
        assert!(run.first_hit.is_some());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run_quadratic(7);
        let b = run_quadratic(7);
        assert_eq!(a.best_state, b.best_state);
        assert_eq!(a.accepted, b.accepted);
        assert_eq!(a.first_hit, b.first_hit);
    }

    #[test]
    fn first_hit_recorded_at_start_if_initial_state_hits() {
        let opts = SaOptions {
            target_energy: Some(1e9),
            iterations: 1,
            ..SaOptions::default()
        };
        let run = simulated_annealing(0i64, |&x| x as f64, |&x, _| x, &opts);
        assert_eq!(run.first_hit, Some(0));
    }

    #[test]
    fn no_target_means_no_hit() {
        let opts = SaOptions {
            iterations: 100,
            target_energy: None,
            ..SaOptions::default()
        };
        let run = simulated_annealing(
            5i64,
            |&x| (x * x) as f64,
            |&x, rng| if rng.random::<bool>() { x + 1 } else { x - 1 },
            &opts,
        );
        assert_eq!(run.first_hit, None);
    }

    #[test]
    fn trace_recorded_when_requested() {
        let opts = SaOptions {
            iterations: 50,
            record_trace: true,
            ..SaOptions::default()
        };
        let run = simulated_annealing(
            10i64,
            |&x| (x * x) as f64,
            |&x, rng| if rng.random::<bool>() { x + 1 } else { x - 1 },
            &opts,
        );
        assert_eq!(run.trace.len(), 50);
    }

    #[test]
    fn hit_truncation_is_flagged() {
        // A deterministic downhill walk through > MAX_HIT_STATES distinct
        // states, all under the target: the cap must trip the flag.
        let opts = SaOptions {
            iterations: MAX_HIT_STATES + 20,
            target_energy: Some(0.0),
            record_hits: true,
            ..SaOptions::default()
        };
        let run = simulated_annealing(0i64, |&x| -(x as f64), |&x, _| x + 1, &opts);
        assert_eq!(run.hit_states.len(), MAX_HIT_STATES);
        assert!(run.hits_truncated);
        // Under the cap the flag stays clear.
        let short = SaOptions {
            iterations: 10,
            ..opts
        };
        let run = simulated_annealing(0i64, |&x| -(x as f64), |&x, _| x + 1, &short);
        assert!(!run.hits_truncated);
        assert_eq!(run.hit_states.len(), 11);
    }

    #[test]
    fn acceptance_ratio_bounds() {
        let run = run_quadratic(3);
        let r = run.acceptance_ratio();
        assert!(r > 0.0 && r <= 1.0);
    }

    #[test]
    fn high_constant_temperature_accepts_more() {
        let hot = SaOptions {
            iterations: 2000,
            schedule: Schedule::constant(1e6),
            seed: 5,
            target_energy: None,
            record_trace: false,
            record_hits: false,
        };
        let cold = SaOptions {
            schedule: Schedule::constant(1e-9),
            ..hot
        };
        let e = |x: &i64| (x * x) as f64;
        let m = |x: &i64, rng: &mut StdRng| if rng.random::<bool>() { x + 1 } else { x - 1 };
        let hot_run = simulated_annealing(100i64, e, m, &hot);
        let cold_run = simulated_annealing(100i64, e, m, &cold);
        assert!(hot_run.accepted > cold_run.accepted);
    }

    #[test]
    fn best_energy_never_worse_than_initial() {
        for seed in 0..10 {
            let run = run_quadratic(seed);
            assert!(run.best_energy <= 2500.0);
        }
    }
}
