//! Single-flip simulated annealing over QUBOs: the reads of the
//! emulated D-Wave samplers (each "read" is modelled as a short thermal
//! anneal, see [`crate::dwave`]).
//!
//! A read draws its start assignment from its own seeded RNG, then runs
//! the workspace's one Metropolis driver,
//! [`cnash_anneal::delta::simulated_annealing_delta_with_rng`], on that
//! stream: `sweeps × n` single-flip proposals, the temperature held over
//! each sweep of `n` and decayed geometrically between sweeps
//! ([`Schedule::SweepGeometric`]). [`anneal_with`] takes the evaluator;
//! [`anneal_incremental`] is the production read over [`QuboDelta`],
//! which caches the **local field** of every variable
//! (`hₖ = lₖ + Σ_j Q_{kj} xⱼ`) in a local-field table: a proposal
//! reads one cached entry (`O(1)`) and only *accepted* flips pay the
//! `O(n)` field refresh. For QUBOs whose coefficients are exact in `f64`
//! (integer games and their S-QUBO penalties) a read through
//! `cnash_anneal::delta::FullEnergy` over [`Qubo::energy`] walks the
//! **bit-identical** trajectory, which the crate's property tests and
//! the `perf` harness pin.

use crate::model::Qubo;
use cnash_anneal::delta::{simulated_annealing_delta_with_rng, DeltaEnergy};
use cnash_anneal::engine::{SaOptions, SaRun};
use cnash_anneal::schedule::Schedule;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Parameters of one annealing run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnealParams {
    /// Number of full sweeps (each sweep proposes `num_vars` flips).
    pub sweeps: usize,
    /// Starting temperature (energy units).
    pub t_max: f64,
    /// Final temperature.
    pub t_min: f64,
}

impl AnnealParams {
    /// Creates parameters, validating the temperature range.
    ///
    /// # Panics
    ///
    /// Panics if `t_max < t_min`, either is non-positive, or `sweeps == 0`.
    pub fn new(sweeps: usize, t_max: f64, t_min: f64) -> Self {
        assert!(sweeps > 0, "need at least one sweep");
        assert!(t_min > 0.0 && t_max >= t_min, "bad temperature range");
        Self {
            sweeps,
            t_max,
            t_min,
        }
    }
}

impl Default for AnnealParams {
    fn default() -> Self {
        Self {
            sweeps: 300,
            t_max: 10.0,
            t_min: 0.05,
        }
    }
}

/// Runs one seeded annealing read of a `num_vars`-variable QUBO through
/// the evaluator that `at` builds at the start assignment.
///
/// The start assignment is the first `num_vars` draws of the read's RNG
/// (seeded with `seed`); the walk continues that stream with
/// `params.sweeps` sweeps of `num_vars` proposals each. Only the walk is
/// recorded: no target, hits or trace.
pub fn anneal_with<E: DeltaEnergy<State = Vec<bool>>>(
    num_vars: usize,
    params: &AnnealParams,
    seed: u64,
    at: impl FnOnce(Vec<bool>) -> E,
) -> SaRun<Vec<bool>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let start = (0..num_vars).map(|_| rng.random()).collect();
    let opts = SaOptions {
        iterations: params.sweeps * num_vars,
        // An empty QUBO has no proposals; its sweeps are empty too.
        schedule: Schedule::SweepGeometric {
            t_max: params.t_max,
            t_min: params.t_min,
            sweep_len: num_vars.max(1),
        },
        seed,
        target_energy: None,
        record_trace: false,
        record_hits: false,
    };
    simulated_annealing_delta_with_rng(&mut at(start), &opts, rng)
}

/// Runs one seeded annealing read of `qubo` over [`QuboDelta`] (see
/// [`anneal_with`]): each sweep proposes one flip per variable, at
/// random, with Metropolis acceptance.
///
/// # Example
///
/// ```
/// use cnash_qubo::model::Qubo;
/// use cnash_qubo::annealer::{anneal_incremental, AnnealParams};
///
/// // Minimise (x0 + x1 − 1)²: ground states are the two one-hot vectors.
/// let mut q = Qubo::new(2);
/// q.add_squared_penalty(&[(0, 1.0), (1, 1.0)], -1.0, 1.0);
/// let r = anneal_incremental(&q, &AnnealParams::default(), 1);
/// assert_eq!(r.best_energy, 0.0);
/// ```
pub fn anneal_incremental(qubo: &Qubo, params: &AnnealParams, seed: u64) -> SaRun<Vec<bool>> {
    anneal_with(qubo.num_vars(), params, seed, |x| QuboDelta::new(qubo, x))
}

/// Cached local fields `hₖ = lₖ + Σ_{j≠k} Q_{kj} xⱼ` of an assignment.
///
/// The energy change of flipping bit `k` is `±hₖ` — an `O(1)` read
/// instead of [`Qubo::flip_delta`]'s `O(n)` row scan. Only *accepted*
/// flips pay the `O(n)` refresh of the other variables' fields.
#[derive(Debug, Clone, PartialEq)]
struct LocalFields {
    fields: Vec<f64>,
}

impl LocalFields {
    /// Computes the fields of `x` from scratch (`O(n²)`).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != qubo.num_vars()`.
    fn new(qubo: &Qubo, x: &[bool]) -> Self {
        let n = qubo.num_vars();
        assert_eq!(x.len(), n, "assignment length mismatch");
        let fields = (0..n)
            .map(|k| {
                let mut f = qubo.linear(k);
                for (j, &xj) in x.iter().enumerate() {
                    if xj && j != k {
                        f += qubo.coupling(k, j);
                    }
                }
                f
            })
            .collect();
        Self { fields }
    }

    /// Energy change of flipping bit `k` of `x` (`O(1)`).
    ///
    /// Equals [`Qubo::flip_delta`] exactly whenever the QUBO coefficients
    /// and their running sums are exact in `f64` (integer and dyadic
    /// coefficients — every S-QUBO of an integer game).
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    fn flip_delta(&self, x: &[bool], k: usize) -> f64 {
        if x[k] {
            -self.fields[k]
        } else {
            self.fields[k]
        }
    }

    /// Refreshes the fields after bit `k` of `x` was flipped (`x` is the
    /// assignment *after* the flip; `O(n)`).
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range or lengths mismatch.
    fn apply_flip(&mut self, qubo: &Qubo, x: &[bool], k: usize) {
        let n = qubo.num_vars();
        assert_eq!(x.len(), n, "assignment length mismatch");
        assert!(k < n, "variable {k} out of range");
        let sign = if x[k] { 1.0 } else { -1.0 };
        for j in 0..n {
            if j != k {
                self.fields[j] += sign * qubo.coupling(j, k);
            }
        }
    }

    /// The cached field of variable `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    #[cfg(test)]
    fn field(&self, k: usize) -> f64 {
        self.fields[k]
    }
}

/// A QUBO assignment as an incrementally evaluable SA objective — the
/// [`DeltaEnergy`] face of a cached local-field table for the driver.
///
/// `propose` is `O(1)`: it reads the flip delta and defers the flip
/// itself, with the energy update and the `O(n)` field refresh, to
/// `commit`. A rejected proposal touches nothing, so `revert` is a
/// no-op. `commit` applies the last proposal, so, as the [`DeltaEnergy`]
/// contract says, it must follow one.
#[derive(Debug, Clone)]
pub struct QuboDelta<'q> {
    qubo: &'q Qubo,
    x: Vec<bool>,
    fields: LocalFields,
    energy: f64,
    /// `(bit to flip, energy delta)` of the last proposal.
    pending: (usize, f64),
}

impl<'q> QuboDelta<'q> {
    /// Builds the evaluator at assignment `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != qubo.num_vars()`.
    pub fn new(qubo: &'q Qubo, x: Vec<bool>) -> Self {
        let energy = qubo.energy(&x);
        let fields = LocalFields::new(qubo, &x);
        Self {
            qubo,
            x,
            fields,
            energy,
            pending: (0, 0.0),
        }
    }
}

impl DeltaEnergy for QuboDelta<'_> {
    type State = Vec<bool>;
    type Move = usize;

    fn state(&self) -> &Vec<bool> {
        &self.x
    }

    fn energy(&self) -> f64 {
        self.energy
    }

    fn sample_move(&self, rng: &mut StdRng) -> Option<usize> {
        Some(rng.random_range(0..self.x.len()))
    }

    fn propose(&mut self, k: usize) -> f64 {
        let delta = self.fields.flip_delta(&self.x, k);
        self.pending = (k, delta);
        delta
    }

    fn commit(&mut self) {
        let (k, delta) = self.pending;
        self.x[k] = !self.x[k];
        self.energy += delta;
        self.fields.apply_flip(self.qubo, &self.x, k);
    }

    fn revert(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnash_anneal::delta::FullEnergy;

    fn one_hot_qubo(n: usize) -> Qubo {
        let mut q = Qubo::new(n);
        let terms: Vec<(usize, f64)> = (0..n).map(|i| (i, 1.0)).collect();
        q.add_squared_penalty(&terms, -1.0, 1.0);
        q
    }

    /// `count` reads of `q` under seeds `0..count`.
    fn reads(q: &Qubo, p: &AnnealParams, count: u64) -> Vec<SaRun<Vec<bool>>> {
        (0..count)
            .map(|seed| anneal_incremental(q, p, seed))
            .collect()
    }

    #[test]
    fn finds_ground_state_of_one_hot() {
        let q = one_hot_qubo(8);
        let r = anneal_incremental(&q, &AnnealParams::default(), 42);
        assert_eq!(r.best_energy, 0.0);
        assert_eq!(r.best_state.iter().filter(|&&b| b).count(), 1);
    }

    #[test]
    fn energy_bookkeeping_consistent() {
        let q = one_hot_qubo(6);
        let r = anneal_incremental(&q, &AnnealParams::new(50, 5.0, 0.1), 7);
        assert!((q.energy(&r.best_state) - r.best_energy).abs() < 1e-9);
    }

    #[test]
    fn deterministic_for_seed() {
        let q = one_hot_qubo(10);
        let p = AnnealParams::default();
        let a = anneal_incremental(&q, &p, 5);
        let b = anneal_incremental(&q, &p, 5);
        assert_eq!(a.best_state, b.best_state);
        assert_eq!(a.accepted, b.accepted);
    }

    #[test]
    fn different_seeds_explore_differently() {
        let q = one_hot_qubo(10);
        let p = AnnealParams::default();
        let a = anneal_incremental(&q, &p, 1);
        let b = anneal_incremental(&q, &p, 2);
        // Ground energies agree; trajectories generally differ.
        assert_eq!(a.best_energy, b.best_energy);
        assert_ne!(a.accepted, b.accepted);
    }

    #[test]
    fn anneal_many_distinct_runs() {
        let q = one_hot_qubo(5);
        let rs = reads(&q, &AnnealParams::default(), 10);
        assert!(rs.iter().all(|r| r.best_energy == 0.0));
        // Different runs can land on different one-hot ground states.
        let winners: std::collections::HashSet<usize> = rs
            .iter()
            .map(|r| r.best_state.iter().position(|&b| b).expect("one bit"))
            .collect();
        assert!(winners.len() > 1, "runs should diversify");
    }

    #[test]
    fn short_hot_anneal_is_worse_than_long_cold() {
        // Statistical sanity: frustrated random QUBO, compare mean best
        // energies.
        let mut rng = StdRng::seed_from_u64(11);
        let n = 24;
        let mut q = Qubo::new(n);
        for i in 0..n {
            for j in i + 1..n {
                q.add_coupling(i, j, rng.random_range(-1.0..1.0));
            }
        }
        let weak = AnnealParams::new(2, 50.0, 40.0);
        let strong = AnnealParams::new(200, 10.0, 0.01);
        let mean =
            |p: &AnnealParams| reads(&q, p, 20).iter().map(|r| r.best_energy).sum::<f64>() / 20.0;
        assert!(mean(&strong) < mean(&weak));
    }

    #[test]
    #[should_panic(expected = "bad temperature range")]
    fn rejects_bad_temperatures() {
        let _ = AnnealParams::new(10, 0.1, 1.0);
    }

    #[test]
    fn incremental_matches_full_scan_bitwise_on_exact_qubos() {
        // Integer (and dyadic) coefficients make every delta exact in
        // f64, so the cached-field read must walk the same trajectory as
        // a read re-evaluating `Qubo::energy` per proposal — not
        // approximately: bitwise.
        let mut rng = StdRng::seed_from_u64(9);
        for seed in 0..10u64 {
            let n = 16;
            let mut q = Qubo::new(n);
            for i in 0..n {
                q.add_linear(i, rng.random_range(-5..=5i64) as f64);
                for j in i + 1..n {
                    q.add_coupling(i, j, rng.random_range(-3..=3i64) as f64);
                }
            }
            let p = AnnealParams::new(60, 8.0, 0.05);
            let full = anneal_with(n, &p, seed, |x| {
                FullEnergy::new(
                    x,
                    |x: &Vec<bool>| q.energy(x),
                    |x: &Vec<bool>, rng: &mut StdRng| {
                        let mut y = x.clone();
                        let k = rng.random_range(0..y.len());
                        y[k] = !y[k];
                        y
                    },
                )
            });
            let inc = anneal_incremental(&q, &p, seed);
            assert_eq!(full, inc);
        }
    }

    #[test]
    fn local_fields_match_flip_delta() {
        let q = one_hot_qubo(7);
        let x = [true, false, true, false, false, true, false];
        let fields = LocalFields::new(&q, &x);
        for k in 0..7 {
            assert_eq!(fields.flip_delta(&x, k), q.flip_delta(&x, k));
        }
    }

    #[test]
    fn local_fields_stay_consistent_over_flips() {
        let q = one_hot_qubo(6);
        let mut x = vec![false; 6];
        let mut fields = LocalFields::new(&q, &x);
        for k in [2usize, 4, 2, 0, 5, 4, 1] {
            x[k] = !x[k];
            fields.apply_flip(&q, &x, k);
            let fresh = LocalFields::new(&q, &x);
            for j in 0..6 {
                assert_eq!(fields.field(j), fresh.field(j), "field {j} drifted");
            }
        }
    }

    #[test]
    fn qubo_delta_propose_commit_revert() {
        // What the driver relies on, read only between proposals: after
        // `commit` the bit is flipped and the energy is exact; after
        // `revert` state, energy and every cached field are unchanged.
        let q = one_hot_qubo(5);
        let mut eval = QuboDelta::new(&q, vec![false; 5]);
        let snapshot = |e: &QuboDelta<'_>| {
            let fields: Vec<u64> = (0..5).map(|k| e.fields.field(k).to_bits()).collect();
            (e.state().clone(), e.energy().to_bits(), fields)
        };
        let before = snapshot(&eval);
        let delta = eval.propose(2);
        assert_eq!(delta, q.flip_delta(&[false; 5], 2));
        eval.revert();
        assert_eq!(snapshot(&eval), before);

        for (k, state) in [
            (2, [false, false, true, false, false]),
            (3, [false, false, true, true, false]),
            (2, [false, false, false, true, false]),
        ] {
            let prior = eval.state().clone();
            let delta = eval.propose(k);
            assert_eq!(delta, q.flip_delta(&prior, k));
            eval.commit();
            assert_eq!(eval.state().as_slice(), state.as_slice());
            assert_eq!(eval.energy(), q.energy(&state));
            // Fields were refreshed on commit: they match a rebuild, and
            // a rejected proposal from here leaves them alone.
            let fresh = LocalFields::new(&q, &state);
            assert_eq!(eval.fields, fresh);
            let committed = snapshot(&eval);
            eval.propose((k + 1) % 5);
            eval.revert();
            assert_eq!(snapshot(&eval), committed);
        }
    }
}
