//! The annealing driver and its evaluators.
//!
//! [`simulated_annealing_delta`] is the one Metropolis loop of the
//! workspace (Algorithm 1). It is generic over a [`DeltaEnergy`]
//! evaluator: the evaluator owns the walk state, a proposal reports the
//! energy change of one elementary move — a single `1/I` unit transfer
//! for strategy states, a single bit flip for QUBOs — and the driver
//! commits or reverts it. An incremental evaluator keeps caches keyed to
//! the current state and touches only what the move changes, instead of
//! re-evaluating the whole objective per proposal.
//!
//! Evaluators:
//!
//! * `cnash-crossbar`'s `DeltaBiCrossbar` caches the per-data-line
//!   accumulated currents of both arrays in [`PairwiseSum`] trees (every
//!   C-Nash run),
//! * `cnash-qubo`'s `QuboDelta` caches per-variable local fields (every
//!   emulated D-Wave read),
//! * [`FullEnergy`] re-evaluates an energy function from scratch per
//!   proposal: `IdealSolver`'s exact Nash gap, and the reference the
//!   delta-vs-full tests and the `perf` harness compare against.
//!
//! # Bit-identical incrementality
//!
//! Floating-point addition is not associative, so "subtract the old term,
//! add the new one" drifts away from a from-scratch evaluation. Evaluators
//! that need *bit-identical* equivalence with full re-evaluation (the
//! contract the crossbar implementation provides and the property tests
//! pin) sum through [`PairwiseSum`]: a fixed-shape binary reduction tree
//! whose root is a pure function of the leaves, so updating a leaf and
//! re-reducing its path reproduces exactly the value a full rebuild
//! computes.

use crate::engine::{HitRecorder, SaOptions, SaRun};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// An incrementally evaluable objective for the Metropolis driver.
///
/// The evaluator owns the walk state. At most one proposal may be
/// outstanding: after [`propose`](DeltaEnergy::propose) the evaluator
/// must receive either [`commit`](DeltaEnergy::commit) or
/// [`revert`](DeltaEnergy::revert) before the next proposal.
///
/// # Contract
///
/// * `propose(mv)` returns `E(after) − E(before)` where both energies are
///   the values [`energy`](DeltaEnergy::energy) would report — the driver
///   folds the delta into its bookkeeping, so a sloppy delta corrupts the
///   acceptance statistics.
/// * After `commit`, `state()` is the moved state and `energy()` its
///   energy.
/// * `revert` must leave `state()`, `energy()` and every internal cache
///   exactly (bitwise) at their pre-proposal values.
/// * The driver reads `state()` and `energy()` only while no proposal is
///   pending, so an evaluator may apply a move in `propose` or defer it
///   to `commit`.
pub trait DeltaEnergy {
    /// The walk state (a strategy pair, a QUBO assignment, ...).
    type State: Clone + PartialEq;
    /// An elementary move between neighbouring states.
    type Move;

    /// The current state (read only while no proposal is pending).
    fn state(&self) -> &Self::State;

    /// Energy of the current state (read only while no proposal is
    /// pending).
    fn energy(&self) -> f64;

    /// Samples a move from the current state's neighbourhood; `None` when
    /// the state has no neighbours (degenerate instances).
    fn sample_move(&self, rng: &mut StdRng) -> Option<Self::Move>;

    /// Proposes `mv`, returning the energy delta.
    fn propose(&mut self, mv: Self::Move) -> f64;

    /// Accepts the pending proposal.
    fn commit(&mut self);

    /// Rejects the pending proposal, restoring the pre-proposal state.
    fn revert(&mut self);
}

/// Runs simulated annealing through `evaluator` from its current state,
/// with the RNG seeded from `opts.seed` (Algorithm 1).
///
/// Each iteration samples one move and accepts it when it does not raise
/// the energy, else with probability `e^{−ΔE/T}` at the scheduled
/// temperature. The driver records nothing outside the returned
/// [`SaRun`]; callers that keep run metrics derive them from it.
pub fn simulated_annealing_delta<E: DeltaEnergy>(
    evaluator: &mut E,
    opts: &SaOptions,
) -> SaRun<E::State> {
    simulated_annealing_delta_with_rng(evaluator, opts, StdRng::seed_from_u64(opts.seed))
}

/// [`simulated_annealing_delta`] continuing the stream of `rng` instead
/// of seeding from `opts.seed` — for walks whose start state is drawn
/// from the run's own stream (the emulated D-Wave reads of `cnash-qubo`).
pub fn simulated_annealing_delta_with_rng<E: DeltaEnergy>(
    evaluator: &mut E,
    opts: &SaOptions,
    mut rng: StdRng,
) -> SaRun<E::State> {
    let mut current_energy = evaluator.energy();
    let mut best_state = evaluator.state().clone();
    let mut best_energy = current_energy;
    let mut first_hit = None;
    let mut accepted = 0;
    let mut trace = Vec::new();
    let mut hits = HitRecorder::new(opts.record_hits);

    let hit = |e: f64| opts.target_energy.is_some_and(|t| e <= t);
    if hit(current_energy) {
        first_hit = Some(0);
        hits.record(evaluator.state());
    }

    let mut iter = 0;
    for (temp, len) in opts.schedule.steps(opts.iterations) {
        for _ in 0..len {
            iter += 1;
            // A state without neighbours proposes itself: delta 0,
            // accepted — a no-op iteration.
            let (delta, pending) = match evaluator.sample_move(&mut rng) {
                Some(mv) => (evaluator.propose(mv), true),
                None => (0.0, false),
            };
            // Algorithm 1 lines 9–13: accept improvements, else with
            // probability e^{−ΔE/T}.
            if delta <= 0.0 || rng.random::<f64>() < (-delta / temp).exp() {
                if pending {
                    evaluator.commit();
                }
                current_energy = evaluator.energy();
                accepted += 1;
                if current_energy < best_energy {
                    best_energy = current_energy;
                    best_state = evaluator.state().clone();
                }
                if hit(current_energy) {
                    if first_hit.is_none() {
                        first_hit = Some(iter);
                    }
                    hits.record(evaluator.state());
                }
            } else if pending {
                evaluator.revert();
            }
            if opts.record_trace {
                trace.push(current_energy);
            }
        }
    }

    let (hit_states, hits_truncated) = hits.into_parts();
    SaRun {
        best_state,
        best_energy,
        final_state: evaluator.state().clone(),
        final_energy: current_energy,
        first_hit,
        accepted,
        iterations: opts.iterations,
        trace,
        hit_states,
        hits_truncated,
    }
}

/// The from-scratch evaluator: a state, an energy function evaluated on
/// every candidate, and a neighbour function that draws the candidate.
///
/// A proposal is a whole candidate state; `commit` swaps it in and
/// `revert` drops it. This is `IdealSolver`'s evaluator and the
/// reference that incremental evaluators are checked against: one whose
/// deltas are bit-identical to full re-evaluation walks the same
/// trajectory as `FullEnergy` over the same energy under the same seed,
/// provided its `sample_move` draws from the RNG as `neighbour` does.
pub struct FullEnergy<S, F, N> {
    state: S,
    energy: f64,
    energy_fn: F,
    neighbour: N,
    /// The pending candidate and its energy.
    pending: Option<(S, f64)>,
}

impl<S, F, N> FullEnergy<S, F, N>
where
    F: FnMut(&S) -> f64,
    N: Fn(&S, &mut StdRng) -> S,
{
    /// Builds the evaluator at `init`, evaluating its energy once.
    pub fn new(init: S, mut energy_fn: F, neighbour: N) -> Self {
        let energy = energy_fn(&init);
        Self {
            state: init,
            energy,
            energy_fn,
            neighbour,
            pending: None,
        }
    }
}

impl<S, F, N> DeltaEnergy for FullEnergy<S, F, N>
where
    S: Clone + PartialEq,
    F: FnMut(&S) -> f64,
    N: Fn(&S, &mut StdRng) -> S,
{
    type State = S;
    type Move = S;

    fn state(&self) -> &S {
        &self.state
    }

    fn energy(&self) -> f64 {
        self.energy
    }

    fn sample_move(&self, rng: &mut StdRng) -> Option<S> {
        Some((self.neighbour)(&self.state, rng))
    }

    fn propose(&mut self, candidate: S) -> f64 {
        let energy = (self.energy_fn)(&candidate);
        let delta = energy - self.energy;
        self.pending = Some((candidate, energy));
        delta
    }

    fn commit(&mut self) {
        let (state, energy) = self.pending.take().expect("no pending proposal");
        self.state = state;
        self.energy = energy;
    }

    fn revert(&mut self) {
        self.pending = None;
    }
}

/// A fixed-shape pairwise summation tree over `f64` terms with `O(log n)`
/// single-leaf updates.
///
/// The tree is an implicit perfect binary tree padded with `0.0` leaves;
/// every internal node is the sum of its two children. Because the
/// reduction shape depends only on the leaf count, the root is a pure
/// function of the leaf values: rebuilding from scratch and any sequence
/// of leaf updates arriving at the same leaves produce *bitwise* the same
/// root — the property incremental evaluators need to stay exactly in
/// sync with full evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct PairwiseSum {
    /// 1-indexed heap layout; `nodes[1]` is the root, leaves start at
    /// `cap`.
    nodes: Vec<f64>,
    cap: usize,
    len: usize,
}

impl PairwiseSum {
    /// Builds a tree over `terms` (any length, including 0).
    pub fn new(terms: &[f64]) -> Self {
        let len = terms.len();
        let cap = len.next_power_of_two().max(1);
        let mut nodes = vec![0.0; 2 * cap];
        nodes[cap..cap + len].copy_from_slice(terms);
        for i in (1..cap).rev() {
            nodes[i] = nodes[2 * i] + nodes[2 * i + 1];
        }
        Self { nodes, cap, len }
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the tree holds no terms.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The current value of leaf `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn leaf(&self, i: usize) -> f64 {
        assert!(i < self.len, "leaf {i} out of range");
        self.nodes[self.cap + i]
    }

    /// Sets leaf `i` to `value` and re-reduces its root path, returning
    /// the previous leaf value (for undo logs).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn update(&mut self, i: usize, value: f64) -> f64 {
        assert!(i < self.len, "leaf {i} out of range");
        let mut node = self.cap + i;
        let old = self.nodes[node];
        self.nodes[node] = value;
        // Walk to the root keeping the fresh child value in a register;
        // the sibling is `node ^ 1`. IEEE-754 addition is commutative
        // (only association changes results), so `v + sibling` matches
        // the build pass's `left + right` bitwise for either child.
        let mut v = value;
        while node > 1 {
            v += self.nodes[node ^ 1];
            node /= 2;
            self.nodes[node] = v;
        }
        old
    }

    /// The pairwise sum of all leaves.
    pub fn total(&self) -> f64 {
        self.nodes[1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Schedule;

    #[test]
    fn pairwise_sum_matches_rebuild_after_updates() {
        let mut rng = StdRng::seed_from_u64(1);
        for n in [0usize, 1, 2, 3, 7, 8, 9, 31, 100] {
            let mut terms: Vec<f64> = (0..n).map(|_| rng.random_range(-1.0..1.0)).collect();
            let mut tree = PairwiseSum::new(&terms);
            assert_eq!(tree.total(), PairwiseSum::new(&terms).total());
            for _ in 0..50 {
                if n == 0 {
                    break;
                }
                let i = rng.random_range(0..n);
                let v = rng.random_range(-1.0..1.0);
                terms[i] = v;
                tree.update(i, v);
                // Bitwise equality with a from-scratch rebuild.
                assert_eq!(tree.total(), PairwiseSum::new(&terms).total());
            }
        }
    }

    #[test]
    fn pairwise_sum_update_returns_old_value_and_undoes() {
        let terms = [1.5, 2.5, 3.5];
        let mut tree = PairwiseSum::new(&terms);
        let before = tree.total();
        let old = tree.update(1, 9.0);
        assert_eq!(old, 2.5);
        assert_ne!(tree.total(), before);
        tree.update(1, old);
        assert_eq!(tree.total(), before);
        assert_eq!(tree.leaf(1), 2.5);
    }

    #[test]
    fn empty_tree_totals_zero() {
        let tree = PairwiseSum::new(&[]);
        assert!(tree.is_empty());
        assert_eq!(tree.total(), 0.0);
    }

    /// A revertible evaluator over integer states with energy `x²`.
    struct Quadratic {
        x: i64,
        pending: i64,
    }

    impl DeltaEnergy for Quadratic {
        type State = i64;
        type Move = i64;

        fn state(&self) -> &i64 {
            &self.x
        }

        fn energy(&self) -> f64 {
            (self.x * self.x) as f64
        }

        fn sample_move(&self, rng: &mut StdRng) -> Option<i64> {
            Some(if rng.random::<bool>() { 1 } else { -1 })
        }

        fn propose(&mut self, step: i64) -> f64 {
            let before = self.energy();
            self.x += step;
            self.pending = step;
            self.energy() - before
        }

        fn commit(&mut self) {
            self.pending = 0;
        }

        fn revert(&mut self) {
            self.x -= self.pending;
            self.pending = 0;
        }
    }

    #[test]
    fn delta_driver_matches_full_driver_bitwise() {
        // Integer energies are exact in f64, so the incremental deltas
        // equal full re-evaluation bitwise and the two evaluators must
        // walk the same trajectory under the same seed.
        for seed in 0..20u64 {
            let opts = SaOptions {
                iterations: 2000,
                schedule: Schedule::geometric(10.0, 1e-3),
                seed,
                target_energy: Some(0.0),
                record_trace: true,
                record_hits: true,
            };
            let mut reference = FullEnergy::new(
                50i64,
                |&x| (x * x) as f64,
                |&x, rng| if rng.random::<bool>() { x + 1 } else { x - 1 },
            );
            let full = simulated_annealing_delta(&mut reference, &opts);
            let mut eval = Quadratic { x: 50, pending: 0 };
            let delta = simulated_annealing_delta(&mut eval, &opts);
            assert_eq!(full, delta);
        }
    }
}
