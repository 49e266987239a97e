//! Property-based tests of the SA engine and grid moves.

use cnash_anneal::delta::{simulated_annealing_delta, FullEnergy};
use cnash_anneal::engine::{SaOptions, SaRun};
use cnash_anneal::moves::GridStrategyPair;
use cnash_anneal::schedule::Schedule;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Anneals `|x|` over the integers from `start` with ±1 steps.
fn walk_abs(start: i64, opts: &SaOptions) -> SaRun<i64> {
    let mut eval = FullEnergy::new(
        start,
        |&x| (x as f64).abs(),
        |&x, rng| {
            if rand::RngExt::random::<bool>(rng) {
                x + 1
            } else {
                x - 1
            }
        },
    );
    simulated_annealing_delta(&mut eval, opts)
}

proptest! {
    /// Schedules are monotone non-increasing and stay within
    /// [t_min, t_max] at every iteration.
    #[test]
    fn schedules_monotone_and_bounded(
        t_max in 0.1f64..100.0,
        ratio in 0.01f64..1.0,
        total in 2usize..500,
        geometric in prop::bool::ANY,
    ) {
        let t_min = t_max * ratio;
        let s = if geometric {
            Schedule::geometric(t_max, t_min)
        } else {
            Schedule::linear(t_max, t_min)
        };
        let mut last = f64::INFINITY;
        for k in 0..total {
            let t = s.temperature(k, total);
            prop_assert!(t <= last + 1e-12);
            prop_assert!(t >= t_min - 1e-9 && t <= t_max + 1e-9);
            last = t;
        }
    }

    /// The per-sweep schedule is monotone non-increasing, constant within
    /// each sweep, and stays within [t_min, t_max].
    #[test]
    fn sweep_schedule_monotone_and_bounded(
        t_max in 0.1f64..100.0,
        ratio in 0.01f64..1.0,
        sweep_len in 1usize..10,
        total in 1usize..500,
    ) {
        let t_min = t_max * ratio;
        let s = Schedule::SweepGeometric { t_max, t_min, sweep_len };
        let mut last = f64::INFINITY;
        for k in 0..total {
            let t = s.temperature(k, total);
            if k % sweep_len == 0 {
                prop_assert!(t <= last);
            } else {
                prop_assert_eq!(t, last);
            }
            prop_assert!(t >= t_min * (1.0 - 1e-9) && t <= t_max);
            last = t;
        }
    }

    /// Grid moves preserve the simplex invariant over arbitrarily long
    /// random walks, for any geometry.
    #[test]
    fn long_walks_preserve_simplex(
        n in 1usize..6,
        m in 1usize..6,
        intervals in 1u32..24,
        seed in 0u64..100,
        steps in 1usize..200,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = GridStrategyPair::random(n, m, intervals, &mut rng).expect("valid");
        for _ in 0..steps {
            s = s.neighbour(&mut rng);
            prop_assert_eq!(s.p_counts().iter().sum::<u32>(), intervals);
            prop_assert_eq!(s.q_counts().iter().sum::<u32>(), intervals);
        }
    }

    /// The engine's best energy never exceeds the initial energy and the
    /// reported hit iteration is consistent with the target.
    #[test]
    fn engine_invariants(seed in 0u64..100, start in -50i64..50) {
        let opts = SaOptions {
            iterations: 500,
            schedule: Schedule::geometric(5.0, 0.01),
            seed,
            target_energy: Some(4.0),
            record_trace: true,
            record_hits: true,
        };
        let run = walk_abs(start, &opts);
        prop_assert!(run.best_energy <= (start as f64).abs() + 1e-12);
        prop_assert_eq!(run.trace.len(), 500);
        if let Some(hit) = run.first_hit {
            prop_assert!(hit <= 500);
            // Every recorded hit state satisfies the target.
            for s in &run.hit_states {
                prop_assert!((*s as f64).abs() <= 4.0);
            }
            prop_assert!(!run.hit_states.is_empty());
        }
        // Final energy matches final state.
        prop_assert!(((run.final_state as f64).abs() - run.final_energy).abs() < 1e-12);
    }

    /// Hit states are distinct.
    #[test]
    fn hit_states_distinct(seed in 0u64..50) {
        let opts = SaOptions {
            iterations: 300,
            schedule: Schedule::constant(2.0),
            seed,
            target_energy: Some(3.0),
            record_trace: false,
            record_hits: true,
        };
        let run = walk_abs(10, &opts);
        for i in 0..run.hit_states.len() {
            for j in i + 1..run.hit_states.len() {
                prop_assert_ne!(run.hit_states[i], run.hit_states[j]);
            }
        }
    }
}
