//! Single-flip simulated annealing over QUBOs.
//!
//! [`anneal_incremental`] is the classical core of the emulated D-Wave
//! samplers (each "read" is modelled as a short thermal anneal, see
//! [`crate::dwave`]).
//!
//! Two copies of the same Metropolis loop differ only in how they
//! evaluate a proposed flip:
//!
//! * [`anneal`] recomputes the flip delta with an `O(n)` row scan per
//!   proposal ([`Qubo::flip_delta`]) — the full-evaluation reference
//!   that `perf` and the property tests compare against;
//! * [`anneal_incremental`] caches the **local field** of every variable
//!   (`hₖ = lₖ + Σ_j Q_{kj} xⱼ`) in a [`LocalFields`] table: a proposal
//!   reads one cached entry (`O(1)`) and only *accepted* flips pay the
//!   `O(n)` field refresh. For QUBOs whose coefficients are exact in
//!   `f64` (integer games and their S-QUBO penalties) the two paths are
//!   **bit-identical** — same trajectory, same best state — which the
//!   crate's property tests pin.

use crate::model::Qubo;
use cnash_anneal::delta::DeltaEnergy;
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

/// Outcome of one annealing run.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnealResult {
    /// Best assignment seen.
    pub best_assignment: Vec<bool>,
    /// Energy of the best assignment.
    pub best_energy: f64,
    /// Final (not necessarily best) assignment.
    pub final_assignment: Vec<bool>,
    /// Number of accepted flips.
    pub accepted: usize,
}

/// Runs one seeded simulated-annealing descent on `qubo`.
///
/// The temperature decays geometrically from `t_max` to `t_min` over the
/// configured sweeps; each sweep proposes one flip per variable in random
/// order with Metropolis acceptance.
///
/// # Example
///
/// ```
/// use cnash_qubo::model::Qubo;
/// use cnash_qubo::annealer::{anneal, AnnealParams};
///
/// // Minimise (x0 + x1 − 1)²: ground states are the two one-hot vectors.
/// let mut q = Qubo::new(2);
/// q.add_squared_penalty(&[(0, 1.0), (1, 1.0)], -1.0, 1.0);
/// let r = anneal(&q, &AnnealParams::default(), 1);
/// assert_eq!(r.best_energy, 0.0);
/// ```
pub fn anneal(qubo: &Qubo, params: &AnnealParams, seed: u64) -> AnnealResult {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = qubo.num_vars();
    let mut x: Vec<bool> = (0..n).map(|_| rng.random()).collect();
    let mut energy = qubo.energy(&x);
    let mut best = x.clone();
    let mut best_energy = energy;
    let mut accepted = 0;

    let ratio = if params.sweeps > 1 {
        (params.t_min / params.t_max).powf(1.0 / (params.sweeps - 1) as f64)
    } else {
        1.0
    };
    let mut temp = params.t_max;

    for _ in 0..params.sweeps {
        for _ in 0..n {
            let k = rng.random_range(0..n);
            let delta = qubo.flip_delta(&x, k);
            if delta <= 0.0 || rng.random::<f64>() < (-delta / temp).exp() {
                x[k] = !x[k];
                energy += delta;
                accepted += 1;
                if energy < best_energy {
                    best_energy = energy;
                    best = x.clone();
                }
            }
        }
        temp *= ratio;
    }

    AnnealResult {
        best_assignment: best,
        best_energy,
        final_assignment: x,
        accepted,
    }
}

/// Cached local fields `hₖ = lₖ + Σ_{j≠k} Q_{kj} xⱼ` of an assignment.
///
/// The energy change of flipping bit `k` is `±hₖ` — an `O(1)` read
/// instead of [`Qubo::flip_delta`]'s `O(n)` row scan. Only *accepted*
/// flips pay the `O(n)` refresh of the other variables' fields.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalFields {
    fields: Vec<f64>,
}

impl LocalFields {
    /// Computes the fields of `x` from scratch (`O(n²)`).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != qubo.num_vars()`.
    pub fn new(qubo: &Qubo, x: &[bool]) -> Self {
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
    pub fn flip_delta(&self, x: &[bool], k: usize) -> f64 {
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
    pub(crate) fn apply_flip(&mut self, qubo: &Qubo, x: &[bool], k: usize) {
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
    pub fn field(&self, k: usize) -> f64 {
        self.fields[k]
    }
}

/// Runs one seeded annealing descent with local-field caching — the
/// incremental counterpart of [`anneal`].
///
/// RNG consumption and acceptance logic are identical to [`anneal`]; for
/// QUBOs whose coefficients are exact in `f64` the two functions return
/// bit-identical results, while this one touches `O(1)` state per
/// proposal and `O(n)` only per accepted flip.
pub fn anneal_incremental(qubo: &Qubo, params: &AnnealParams, seed: u64) -> AnnealResult {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = qubo.num_vars();
    let mut x: Vec<bool> = (0..n).map(|_| rng.random()).collect();
    let mut energy = qubo.energy(&x);
    let mut fields = LocalFields::new(qubo, &x);
    let mut best = x.clone();
    let mut best_energy = energy;
    let mut accepted = 0;

    let ratio = if params.sweeps > 1 {
        (params.t_min / params.t_max).powf(1.0 / (params.sweeps - 1) as f64)
    } else {
        1.0
    };
    let mut temp = params.t_max;

    for _ in 0..params.sweeps {
        for _ in 0..n {
            let k = rng.random_range(0..n);
            let delta = fields.flip_delta(&x, k);
            if delta <= 0.0 || rng.random::<f64>() < (-delta / temp).exp() {
                x[k] = !x[k];
                fields.apply_flip(qubo, &x, k);
                energy += delta;
                accepted += 1;
                if energy < best_energy {
                    best_energy = energy;
                    best = x.clone();
                }
            }
        }
        temp *= ratio;
    }

    AnnealResult {
        best_assignment: best,
        best_energy,
        final_assignment: x,
        accepted,
    }
}

/// A QUBO assignment as an incrementally evaluable SA objective — the
/// [`DeltaEnergy`] face of [`LocalFields`] for the generic driver
/// [`cnash_anneal::delta::simulated_annealing_delta`].
///
/// `propose` is `O(1)` and defers the field refresh to `commit`, so
/// rejected proposals cost nothing and `revert` restores the evaluator
/// bitwise.
#[derive(Debug, Clone)]
pub struct QuboDelta<'q> {
    qubo: &'q Qubo,
    x: Vec<bool>,
    fields: LocalFields,
    energy: f64,
    /// `(flipped bit, pre-proposal energy)` of the pending proposal.
    pending: Option<(usize, f64)>,
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
            pending: None,
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
        assert!(self.pending.is_none(), "proposal already pending");
        let delta = self.fields.flip_delta(&self.x, k);
        self.pending = Some((k, self.energy));
        self.x[k] = !self.x[k];
        self.energy += delta;
        delta
    }

    fn commit(&mut self) {
        let (k, _) = self.pending.take().expect("no pending proposal");
        self.fields.apply_flip(self.qubo, &self.x, k);
    }

    fn revert(&mut self) {
        let (k, old_energy) = self.pending.take().expect("no pending proposal");
        self.x[k] = !self.x[k];
        self.energy = old_energy;
    }
}

/// Runs `runs` independent anneals (seeds `seed..seed+runs`) and returns
/// all results (the emulated multi-read sampling of a QPU).
///
/// Uses the incremental (local-field) path; see [`anneal_incremental`].
pub fn anneal_many(
    qubo: &Qubo,
    params: &AnnealParams,
    runs: usize,
    seed: u64,
) -> Vec<AnnealResult> {
    (0..runs)
        .map(|k| anneal_incremental(qubo, params, seed.wrapping_add(k as u64)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_hot_qubo(n: usize) -> Qubo {
        let mut q = Qubo::new(n);
        let terms: Vec<(usize, f64)> = (0..n).map(|i| (i, 1.0)).collect();
        q.add_squared_penalty(&terms, -1.0, 1.0);
        q
    }

    #[test]
    fn finds_ground_state_of_one_hot() {
        let q = one_hot_qubo(8);
        let r = anneal(&q, &AnnealParams::default(), 42);
        assert_eq!(r.best_energy, 0.0);
        assert_eq!(r.best_assignment.iter().filter(|&&b| b).count(), 1);
    }

    #[test]
    fn energy_bookkeeping_consistent() {
        let q = one_hot_qubo(6);
        let r = anneal(&q, &AnnealParams::new(50, 5.0, 0.1), 7);
        assert!((q.energy(&r.best_assignment) - r.best_energy).abs() < 1e-9);
    }

    #[test]
    fn deterministic_for_seed() {
        let q = one_hot_qubo(10);
        let p = AnnealParams::default();
        let a = anneal(&q, &p, 5);
        let b = anneal(&q, &p, 5);
        assert_eq!(a.best_assignment, b.best_assignment);
        assert_eq!(a.accepted, b.accepted);
    }

    #[test]
    fn different_seeds_explore_differently() {
        let q = one_hot_qubo(10);
        let p = AnnealParams::default();
        let a = anneal(&q, &p, 1);
        let b = anneal(&q, &p, 2);
        // Ground energies agree; trajectories generally differ.
        assert_eq!(a.best_energy, b.best_energy);
        assert_ne!(a.accepted, b.accepted);
    }

    #[test]
    fn anneal_many_distinct_runs() {
        let q = one_hot_qubo(5);
        let rs = anneal_many(&q, &AnnealParams::default(), 10, 0);
        assert_eq!(rs.len(), 10);
        assert!(rs.iter().all(|r| r.best_energy == 0.0));
        // Different runs can land on different one-hot ground states.
        let winners: std::collections::HashSet<usize> = rs
            .iter()
            .map(|r| r.best_assignment.iter().position(|&b| b).expect("one bit"))
            .collect();
        assert!(winners.len() > 1, "runs should diversify");
    }

    #[test]
    fn short_hot_anneal_is_worse_than_long_cold() {
        // Statistical sanity: frustrated random QUBO, compare mean best
        // energies.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
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
        let mean = |p: &AnnealParams| {
            anneal_many(&q, p, 20, 3)
                .iter()
                .map(|r| r.best_energy)
                .sum::<f64>()
                / 20.0
        };
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
        // f64, so the cached-field path must walk the same trajectory as
        // the O(n)-scan path — not approximately: bitwise.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
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
            let full = anneal(&q, &p, seed);
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
        let q = one_hot_qubo(5);
        let mut eval = QuboDelta::new(&q, vec![false; 5]);
        let e0 = eval.energy();
        let delta = eval.propose(2);
        assert!(eval.state()[2]);
        assert_eq!(delta, q.flip_delta(&[false; 5], 2));
        eval.revert();
        assert_eq!(eval.energy(), e0);
        assert_eq!(eval.state(), &vec![false; 5]);
        let delta = eval.propose(2);
        eval.commit();
        assert!((eval.energy() - (e0 + delta)).abs() < 1e-12);
        // Fields were refreshed on commit: the next delta is exact.
        assert_eq!(
            eval.propose(3),
            q.flip_delta(&[false, false, true, false, false], 3)
        );
        eval.commit();
        assert_eq!(eval.energy(), q.energy(eval.state()));
    }
}
