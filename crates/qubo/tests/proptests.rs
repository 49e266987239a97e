//! Property-based tests of the QUBO machinery.

use cnash_anneal::delta::{DeltaEnergy, FullEnergy};
use cnash_anneal::engine::SaRun;
use cnash_game::generators::random_integer_game;
use cnash_game::{BimatrixGame, Matrix, MixedStrategy};
use cnash_qubo::annealer::{anneal_incremental, anneal_with, AnnealParams};
use cnash_qubo::maxqubo::MaxQubo;
use cnash_qubo::model::Qubo;
use cnash_qubo::squbo::{SQubo, SQuboWeights};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::RngExt;

/// `FullEnergy` over `Qubo::energy` at `x`, whose move flips one
/// uniformly drawn bit — the move `QuboDelta` samples.
fn full_energy(qubo: &Qubo, x: Vec<bool>) -> impl DeltaEnergy<State = Vec<bool>> + '_ {
    let flip_random_bit = |x: &Vec<bool>, rng: &mut StdRng| {
        let mut y = x.clone();
        let k = rng.random_range(0..y.len());
        y[k] = !y[k];
        y
    };
    FullEnergy::new(x, |x: &Vec<bool>| qubo.energy(x), flip_random_bit)
}

/// One read of `q` re-evaluating `Qubo::energy` on every proposal: the
/// full-evaluation reference of [`anneal_incremental`].
fn anneal_full(q: &Qubo, params: &AnnealParams, seed: u64) -> SaRun<Vec<bool>> {
    anneal_with(q.num_vars(), params, seed, |x| full_energy(q, x))
}

/// Arbitrary QUBO with small *integer* coefficients — every derived sum
/// is exact in f64.
fn arb_int_qubo(n: usize) -> impl Strategy<Value = Qubo> {
    (
        prop::collection::vec(-5i32..=5, n),
        prop::collection::vec(-3i32..=3, n * n),
    )
        .prop_map(move |(lin, quad)| {
            let mut q = Qubo::new(n);
            for (i, &l) in lin.iter().enumerate() {
                q.add_linear(i, f64::from(l));
            }
            for i in 0..n {
                for j in i + 1..n {
                    q.add_coupling(i, j, f64::from(quad[i * n + j]));
                }
            }
            q
        })
}

fn arb_qubo(n: usize) -> impl Strategy<Value = Qubo> {
    (
        prop::collection::vec(-3.0f64..3.0, n),
        prop::collection::vec(-2.0f64..2.0, n * n),
    )
        .prop_map(move |(lin, quad)| {
            let mut q = Qubo::new(n);
            for (i, &l) in lin.iter().enumerate() {
                q.add_linear(i, l);
            }
            for i in 0..n {
                for j in i + 1..n {
                    q.add_coupling(i, j, quad[i * n + j]);
                }
            }
            q
        })
}

proptest! {
    /// flip_delta always equals the direct energy difference.
    #[test]
    fn flip_delta_consistent(
        q in arb_qubo(8),
        x in prop::collection::vec(prop::bool::ANY, 8),
        k in 0usize..8,
    ) {
        let mut y = x.clone();
        y[k] = !y[k];
        let delta = q.flip_delta(&x, k);
        let direct = q.energy(&y) - q.energy(&x);
        prop_assert!((delta - direct).abs() < 1e-9);
    }

    /// The annealer's reported best energy matches re-evaluating its best
    /// assignment, and never exceeds the all-false baseline it could
    /// always reach.
    #[test]
    fn annealer_bookkeeping(q in arb_qubo(10), seed in 0u64..100) {
        let r = anneal_full(&q, &AnnealParams::new(50, 5.0, 0.1), seed);
        prop_assert!((q.energy(&r.best_state) - r.best_energy).abs() < 1e-9);
    }

    /// S-QUBO QUBO expansion equals the direct Eq. 6 evaluation for any
    /// random game and assignment.
    #[test]
    fn squbo_expansion_exact(seed in 0u64..50, bits in prop::collection::vec(prop::bool::ANY, 64)) {
        let game = random_integer_game(3, 3, 6, seed).expect("valid");
        let s = SQubo::build(&game, &SQuboWeights::default()).expect("integer");
        let x: Vec<bool> = (0..s.num_vars()).map(|k| bits[k % bits.len()]).collect();
        let a = s.qubo().energy(&x);
        let b = s.direct_energy(&x);
        prop_assert!((a - b).abs() < 1e-6, "qubo {a} vs direct {b}");
    }

    /// MAX-QUBO objective is non-negative for any game and strategies,
    /// and zero exactly on verified equilibria.
    #[test]
    fn maxqubo_nonnegative(
        seed in 0u64..50,
        praw in prop::collection::vec(0.01f64..1.0, 3),
        qraw in prop::collection::vec(0.01f64..1.0, 3),
    ) {
        let game = random_integer_game(3, 3, 9, seed).expect("valid");
        let mq = MaxQubo::new(&game);
        let norm = |v: Vec<f64>| {
            let s: f64 = v.iter().sum();
            MixedStrategy::new(v.into_iter().map(|x| x / s).collect()).expect("valid")
        };
        let p = norm(praw);
        let q = norm(qraw);
        let f = mq.objective(&p, &q).expect("shapes");
        prop_assert!(f >= -1e-9);
        if game.is_equilibrium(&p, &q, 1e-12) {
            prop_assert!(f.abs() < 1e-9);
        }
    }

    /// S-QUBO construction never panics on games with negative payoffs
    /// (the offset handles them) and its variable count follows the
    /// documented formula.
    #[test]
    fn squbo_var_count_formula(seed in 0u64..30) {
        let base = random_integer_game(4, 3, 7, seed).expect("valid");
        let game = BimatrixGame::new(
            "shifted",
            base.row_payoffs().map(|x| x - 3.0),
            base.col_payoffs().map(|x| x - 3.0),
        ).expect("shapes");
        let s = SQubo::build(&game, &SQuboWeights::default()).expect("builds");
        // n + m + ka + kb + n*ka + m*kb with ka, kb >= 1.
        let (n, m) = (4usize, 3usize);
        prop_assert!(s.num_vars() >= n + m + 2 + n + m);
    }

    /// Brute-force minimum of small QUBOs lower-bounds every annealer run.
    #[test]
    fn brute_force_is_global(q in arb_qubo(10), seed in 0u64..20) {
        let (_, emin) = q.brute_force_minimum();
        let r = anneal_full(&q, &AnnealParams::new(30, 5.0, 0.1), seed);
        prop_assert!(r.best_energy >= emin - 1e-9);
    }

    /// **Delta-vs-full equivalence (QUBO hot path).** Over random
    /// integer-coefficient QUBOs — every coefficient and running sum
    /// exact in f64, the case produced by S-QUBO transformations of
    /// integer games — the local-field incremental read and the read
    /// re-evaluating `Qubo::energy` per proposal return bit-identical
    /// runs: best energy, best assignment, trajectory statistics.
    #[test]
    fn incremental_anneal_bit_identical_on_integer_qubos(
        q in arb_int_qubo(14),
        seed in 0u64..50,
        sweeps in 5usize..60,
    ) {
        let params = AnnealParams::new(sweeps, 8.0, 0.05);
        let full = anneal_full(&q, &params, seed);
        let inc = anneal_incremental(&q, &params, seed);
        prop_assert_eq!(full, inc);
    }

    /// The equivalence also holds end-to-end through the S-QUBO of a
    /// random integer game — the production baseline path.
    #[test]
    fn incremental_anneal_bit_identical_on_squbos(
        n in 2usize..4,
        game_seed in 0u64..30,
        seed in 0u64..10,
    ) {
        let game = random_integer_game(n, n, 6, game_seed).expect("valid");
        let s = SQubo::build(&game, &SQuboWeights::default()).expect("integer payoffs");
        let params = AnnealParams::new(40, 10.0, 0.05);
        let full = anneal_full(s.qubo(), &params, seed);
        let inc = anneal_incremental(s.qubo(), &params, seed);
        prop_assert_eq!(full, inc);
    }

    /// The driver over [`QuboDelta`] walks bit-identical trajectories
    /// to the driver over `FullEnergy`, which re-evaluates `Qubo::energy`
    /// on every proposal, under a per-iteration schedule with hits and
    /// trace recorded — the same delta-vs-full contract the crossbar
    /// evaluator satisfies, through the same `cnash-anneal` driver.
    #[test]
    fn qubo_delta_generic_driver_matches_full_driver(
        q in arb_int_qubo(10),
        seed in 0u64..30,
    ) {
        use cnash_anneal::delta::simulated_annealing_delta;
        use cnash_anneal::engine::SaOptions;
        use cnash_anneal::Schedule;
        use cnash_qubo::QuboDelta;
        use rand::SeedableRng;

        let init: Vec<bool> = {
            let mut r = StdRng::seed_from_u64(seed ^ 0xF00D);
            (0..q.num_vars()).map(|_| r.random()).collect()
        };
        let opts = SaOptions {
            iterations: 300,
            schedule: Schedule::geometric(5.0, 0.01),
            seed,
            target_energy: Some(0.0),
            record_trace: true,
            record_hits: true,
        };
        let mut reference = full_energy(&q, init.clone());
        let full = simulated_annealing_delta(&mut reference, &opts);
        let mut eval = QuboDelta::new(&q, init);
        let delta = simulated_annealing_delta(&mut eval, &opts);
        prop_assert_eq!(full, delta);
    }

    /// On arbitrary float QUBOs the two paths may round differently, but
    /// the incremental path's energy bookkeeping must stay consistent
    /// with a from-scratch energy evaluation of its reported best state.
    #[test]
    fn incremental_anneal_bookkeeping_consistent_on_float_qubos(
        q in arb_qubo(12),
        seed in 0u64..20,
    ) {
        let params = AnnealParams::new(30, 5.0, 0.1);
        let r = anneal_incremental(&q, &params, seed);
        prop_assert!((q.energy(&r.best_state) - r.best_energy).abs() < 1e-6);
    }
}

/// Non-proptest regression: the matrix used in the S-QUBO must match the
/// game exactly after the documented offset.
#[test]
fn squbo_offsets_preserve_equilibrium_sets() {
    let m = Matrix::from_rows(&[vec![-1.0, 2.0], vec![0.0, 1.0]]).expect("valid");
    let game = BimatrixGame::symmetric("hawk-dove", m).expect("square");
    let s = SQubo::build(&game, &SQuboWeights::default()).expect("builds");
    let (x, e) = s.qubo().brute_force_minimum();
    assert!(e.abs() < 1e-9);
    let d = s.decode(&x);
    let (p, q) = d.profile.expect("one-hot");
    assert!(game.is_equilibrium(&p, &q, 1e-9));
}
