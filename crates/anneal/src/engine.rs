//! Options and results of a seeded simulated-annealing run
//! (Algorithm 1), and the capped recorder of solution hits.
//!
//! The run itself is [`crate::delta::simulated_annealing_delta`], the
//! workspace's one Metropolis loop.

use crate::schedule::Schedule;

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

/// Capped recorder of *distinct* solution-hit states, shared by
/// everything that logs hits (the SA driver, the D-Wave baseline, CFR):
/// dedups against what it already holds, keeps at most
/// [`MAX_HIT_STATES`] states, and raises `truncated` when a distinct
/// state is dropped at the cap, so the `truncated` lower-bound semantics
/// are uniform.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::{simulated_annealing_delta, FullEnergy};
    use rand::rngs::StdRng;
    use rand::RngExt;

    /// A ±1 random step on the integers.
    fn step(x: &i64, rng: &mut StdRng) -> i64 {
        if rng.random::<bool>() {
            x + 1
        } else {
            x - 1
        }
    }

    /// Anneals from `init` under `energy` with ±1 steps.
    fn run(init: i64, energy: impl FnMut(&i64) -> f64, opts: &SaOptions) -> SaRun<i64> {
        simulated_annealing_delta(&mut FullEnergy::new(init, energy, step), opts)
    }

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
        run(50, |&x| (x * x) as f64, &quadratic_opts(seed))
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
        let run =
            simulated_annealing_delta(&mut FullEnergy::new(0i64, |&x| x as f64, |&x, _| x), &opts);
        assert_eq!(run.first_hit, Some(0));
    }

    #[test]
    fn no_target_means_no_hit() {
        let opts = SaOptions {
            iterations: 100,
            target_energy: None,
            ..SaOptions::default()
        };
        let run = run(5, |&x| (x * x) as f64, &opts);
        assert_eq!(run.first_hit, None);
    }

    #[test]
    fn trace_recorded_when_requested() {
        let opts = SaOptions {
            iterations: 50,
            record_trace: true,
            ..SaOptions::default()
        };
        let run = run(10, |&x| (x * x) as f64, &opts);
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
        let walk = |opts: &SaOptions| {
            simulated_annealing_delta(
                &mut FullEnergy::new(0i64, |&x| -(x as f64), |&x, _| x + 1),
                opts,
            )
        };
        let run = walk(&opts);
        assert_eq!(run.hit_states.len(), MAX_HIT_STATES);
        assert!(run.hits_truncated);
        // Under the cap the flag stays clear.
        let run = walk(&SaOptions {
            iterations: 10,
            ..opts
        });
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
        let hot_run = run(100, e, &hot);
        let cold_run = run(100, e, &cold);
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
