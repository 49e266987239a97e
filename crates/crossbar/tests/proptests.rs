//! Property-based tests of the crossbar simulator.

use cnash_crossbar::{BiCrossbar, Crossbar, CrossbarConfig, MappingSpec, QuantizedPayoffs};
use cnash_device::cell::CellParams;
use cnash_device::variability::VariabilityModel;
use cnash_game::{BimatrixGame, Matrix, MixedStrategy};
use proptest::prelude::*;

/// Arbitrary small integer payoff matrix.
fn arb_int_matrix(n: usize, m: usize, max: u32) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(0..=max, n * m).prop_map(move |v| {
        Matrix::new(n, m, v.into_iter().map(f64::from).collect()).expect("valid dims")
    })
}

/// Activation counts summing to exactly `i` over `len` actions.
fn arb_counts(len: usize, i: u32) -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0u32..=i, len).prop_map(move |mut v| {
        // Repair to sum exactly i (deterministic largest-first trimming).
        let mut total: u32 = v.iter().sum();
        let mut k = 0;
        while total > i {
            if v[k % len] > 0 {
                v[k % len] -= 1;
                total -= 1;
            }
            k += 1;
        }
        let mut k = 0;
        while total < i {
            v[k % len] += 1;
            total += 1;
            k += 1;
        }
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Noise-free crossbar VMV reads equal the exact bilinear form for any
    /// integer matrix and any grid activation.
    #[test]
    fn ideal_vmv_is_exact(
        m in arb_int_matrix(3, 3, 5),
        p in arb_counts(3, 6),
        q in arb_counts(3, 6),
    ) {
        let qp = QuantizedPayoffs::from_integer_matrix(&m).expect("integer");
        let spec = MappingSpec::new(6, qp.max_element().max(1)).expect("valid");
        let xbar = Crossbar::build(
            qp, spec, CellParams::default(), VariabilityModel::none(), 0,
        ).expect("builds");
        let current = xbar.read_vmv(&p, &q).expect("read");
        let val = xbar.current_to_value(current);
        let pv: Vec<f64> = p.iter().map(|&c| c as f64 / 6.0).collect();
        let qv: Vec<f64> = q.iter().map(|&c| c as f64 / 6.0).collect();
        let exact = m.bilinear(&pv, &qv).expect("shapes");
        prop_assert!((val - exact).abs() < 1e-3, "{val} vs {exact}");
    }

    /// Fast prefix-sum reads and naive cell sums agree bit-for-bit under
    /// full device variability.
    #[test]
    fn fast_equals_naive(
        m in arb_int_matrix(2, 4, 4),
        p in arb_counts(2, 4),
        q in arb_counts(4, 4),
        seed in 0u64..100,
    ) {
        let qp = QuantizedPayoffs::from_integer_matrix(&m).expect("integer");
        let spec = MappingSpec::new(4, qp.max_element().max(1)).expect("valid");
        let xbar = Crossbar::build(
            qp, spec, CellParams::default(), VariabilityModel::paper(), seed,
        ).expect("builds");
        let fast = xbar.read_vmv(&p, &q).expect("read");
        let naive = xbar.read_vmv_naive(&p, &q).expect("read");
        prop_assert!((fast - naive).abs() <= 1e-16 + fast.abs() * 1e-9);
    }

    /// Reads are monotone in activation: adding activation units never
    /// decreases the current.
    #[test]
    fn reads_monotone_in_activation(
        m in arb_int_matrix(3, 3, 4),
        q in arb_counts(3, 6),
        seed in 0u64..50,
    ) {
        let qp = QuantizedPayoffs::from_integer_matrix(&m).expect("integer");
        let spec = MappingSpec::new(6, qp.max_element().max(1)).expect("valid");
        let xbar = Crossbar::build(
            qp, spec, CellParams::default(), VariabilityModel::paper(), seed,
        ).expect("builds");
        let low = xbar.read_vmv(&[1, 0, 0], &q).expect("read");
        let high = xbar.read_vmv(&[6, 0, 0], &q).expect("read");
        prop_assert!(high >= low);
    }

    /// The hardware Nash gap of the ideal bi-crossbar is non-negative (up
    /// to numerical slack) everywhere on the grid, like the exact gap.
    #[test]
    fn ideal_hardware_gap_nonnegative(
        a in arb_int_matrix(2, 2, 4),
        b in arb_int_matrix(2, 2, 4),
        p in arb_counts(2, 12),
        q in arb_counts(2, 12),
    ) {
        let game = BimatrixGame::new("prop", a, b).expect("shapes");
        let xbar = BiCrossbar::build(&game, &CrossbarConfig::ideal(12), 0).expect("builds");
        let ps = MixedStrategy::from_grid_counts(&p, 12).expect("valid");
        let qs = MixedStrategy::from_grid_counts(&q, 12).expect("valid");
        let gap = xbar.nash_gap(&ps, &qs).expect("read");
        prop_assert!(gap > -1e-3, "hardware gap {gap} substantially negative");
    }

    /// Quantized payoffs always reconstruct the original matrix.
    #[test]
    fn quantization_round_trip(m in arb_int_matrix(4, 3, 9)) {
        let shifted = m.map(|x| x - 3.0); // introduce negatives
        let qp = QuantizedPayoffs::from_integer_matrix(&shifted).expect("integer");
        prop_assert!(qp.reconstruct().max_abs_diff(&shifted) < 1e-9);
    }

    /// **Delta-vs-full equivalence (Eq. 9 hot path).** Over random
    /// bimatrix games, hardware instances (ideal and full paper noise)
    /// and random propose/commit/revert walks, the incrementally
    /// maintained energy is *bit-identical* to a from-scratch full
    /// evaluation at every visited state.
    #[test]
    fn delta_walk_bit_identical_to_full_evaluation(
        n in 2usize..5,
        m in 2usize..5,
        seed in 0u64..200,
        paper in prop::bool::ANY,
        steps in 1usize..60,
    ) {
        use cnash_anneal::delta::DeltaEnergy;
        use cnash_anneal::moves::GridStrategyPair;
        use cnash_crossbar::{DeltaBiCrossbar, ExactMax};
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};

        let game = cnash_game::generators::random_integer_game(n, m, 6, seed)
            .expect("valid dims");
        let cfg = if paper {
            CrossbarConfig::paper(12)
        } else {
            CrossbarConfig::ideal(12)
        };
        let hw = BiCrossbar::build(&game, &cfg, seed).expect("integer payoffs map");
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD417A);
        let init = GridStrategyPair::random(n, m, 12, &mut rng).expect("non-empty");
        let mut eval = DeltaBiCrossbar::new(&hw, init, ExactMax).expect("geometry");
        for _ in 0..steps {
            let Some(mv) = eval.sample_move(&mut rng) else { break };
            let before = eval.energy();
            let delta = eval.propose(mv);
            prop_assert_eq!(delta, eval.energy() - before);
            if rng.random::<bool>() {
                eval.commit();
            } else {
                eval.revert();
                prop_assert_eq!(eval.energy(), before);
            }
            // Full evaluation: rebuild every cache from scratch at the
            // current state. Must agree bit for bit.
            let full = DeltaBiCrossbar::new(&hw, eval.state().clone(), ExactMax)
                .expect("geometry")
                .energy();
            prop_assert_eq!(eval.energy(), full);
        }
    }

    /// **Delta-vs-full SA equivalence.** The driver over the incremental
    /// evaluator and over `FullEnergy`, re-evaluating every candidate
    /// from scratch, walk bit-identical trajectories: same best energy,
    /// same best state, same acceptance count.
    #[test]
    fn delta_sa_run_matches_full_sa_run(
        n in 2usize..4,
        m in 2usize..4,
        seed in 0u64..50,
    ) {
        use cnash_anneal::delta::{simulated_annealing_delta, DeltaEnergy, FullEnergy};
        use cnash_anneal::engine::SaOptions;
        use cnash_anneal::moves::GridStrategyPair;
        use cnash_anneal::schedule::Schedule;
        use cnash_crossbar::{DeltaBiCrossbar, ExactMax};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let game = cnash_game::generators::random_integer_game(n, m, 5, seed)
            .expect("valid dims");
        let hw = BiCrossbar::build(&game, &CrossbarConfig::paper(12), seed).expect("maps");
        let mut rng = StdRng::seed_from_u64(seed);
        let init = GridStrategyPair::random(n, m, 12, &mut rng).expect("non-empty");
        let opts = SaOptions {
            iterations: 150,
            schedule: Schedule::geometric(1.0, 1e-3),
            seed,
            target_energy: Some(0.05),
            record_trace: true,
            record_hits: true,
        };
        let mut reference = FullEnergy::new(
            init.clone(),
            |s: &GridStrategyPair| {
                DeltaBiCrossbar::new(&hw, s.clone(), ExactMax)
                    .expect("geometry")
                    .energy()
            },
            |s: &GridStrategyPair, r: &mut StdRng| s.neighbour(r),
        );
        let full = simulated_annealing_delta(&mut reference, &opts);
        let mut eval = DeltaBiCrossbar::new(&hw, init, ExactMax).expect("geometry");
        let delta = simulated_annealing_delta(&mut eval, &opts);
        prop_assert_eq!(full, delta);
    }
}
