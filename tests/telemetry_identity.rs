//! Telemetry must observe, never steer: recording counters, spans and
//! sampled energy traces around the anneal hot path may not change a
//! single bit of any solver output, and the annealer metrics must count
//! exactly the C-Nash-family runs.
//!
//! The recorder switches are process-global
//! (`cnash_telemetry::set_enabled`,
//! `cnash_telemetry::hot::set_sa_trace_interval`), so everything here
//! lives in **one** `#[test]` — a second test toggling the switches
//! from a parallel test thread would race the property being checked.

use cnash_anneal::delta::simulated_annealing_delta;
use cnash_anneal::engine::SaOptions;
use cnash_anneal::moves::GridStrategyPair;
use cnash_core::baselines::DWaveNashSolver;
use cnash_core::{CNashConfig, CNashSolver, IdealSolver, NashSolver};
use cnash_qubo::DWaveModel;
use cnash_runtime::spec::GameSpec;
use cnash_telemetry::hot;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The process-global annealer metrics: runs, sweeps, accepts and
/// `sa_energy` events ever pushed.
fn annealer_metrics() -> [u64; 4] {
    [
        hot::SA_RUNS.get(),
        hot::SA_SWEEPS.get(),
        hot::SA_ACCEPTS.get(),
        hot::SA_TRACE.total(),
    ]
}

/// Runs `solve` and returns its output with the change of
/// [`annealer_metrics`] across it.
fn measured<T>(solve: impl FnOnce() -> T) -> (T, [u64; 4]) {
    let before = annealer_metrics();
    let out = solve();
    let after = annealer_metrics();
    (out, std::array::from_fn(|k| after[k] - before[k]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For arbitrary small games, run seeds and silicon, the complete
    /// run outcome (profile, equilibrium flag, model times, objective)
    /// of C-Nash, the ideal-evaluation solver and a D-Wave baseline is
    /// bit-identical whether telemetry is enabled or disabled, and
    /// whether the annealer's energy-trajectory sampling is off or
    /// firing every few iterations. `RunOutcome` carries only model
    /// time (no wall clock), so the `Debug` rendering is a faithful
    /// bit-level fingerprint.
    ///
    /// In every mode a C-Nash or ideal run adds 1 to `sa_runs`, its
    /// iterations to `sa_sweeps` and its accepted moves to `sa_accepts`
    /// (and one `sa_energy` event per sampled iteration while recording
    /// is on); a D-Wave run adds nothing and pushes no event.
    #[test]
    fn solver_output_is_bit_identical_under_every_recorder_mode(
        rows in 2usize..5,
        cols in 2usize..5,
        game_seed in 0u64..100,
        run_seed in 0u64..100,
        hardware_seed in 0u64..8,
        trace_every in 1u64..16,
    ) {
        const ITERATIONS: usize = 400;
        let game = GameSpec::Random { rows, cols, max_payoff: 4, seed: game_seed }
            .build()
            .expect("random spec builds");
        let config = CNashConfig::paper(12).with_iterations(ITERATIONS);
        let cnash = CNashSolver::new(&game, config, hardware_seed)
            .expect("game maps onto the crossbar");
        let ideal = IdealSolver::new(&game, CNashConfig::ideal(12).with_iterations(ITERATIONS));
        let dwave = DWaveNashSolver::new(&game, DWaveModel::advantage_4_1(), 2)
            .expect("integer game builds its S-QUBO");

        // The accepted moves of the C-Nash run, from the driver run
        // directly on the solver's evaluator at the run's start state.
        let start = GridStrategyPair::random(
            rows,
            cols,
            12,
            &mut StdRng::seed_from_u64(run_seed ^ 0x5EED_0101),
        )
        .expect("non-empty action sets");
        let direct = simulated_annealing_delta(
            &mut cnash.delta_evaluator(start).expect("geometry matches"),
            &SaOptions {
                iterations: ITERATIONS,
                schedule: config.schedule,
                seed: run_seed,
                target_energy: Some(config.gap_tolerance),
                record_trace: false,
                record_hits: true,
            },
        );
        let direct_pair = (direct.final_state.p_strategy(), direct.final_state.q_strategy());

        // Baseline: the production default (recording on, trace off),
        // then every other recorder mode.
        let modes = [(true, 0), (false, 0), (true, trace_every), (false, trace_every)];
        let mut outputs = Vec::new();
        for (enabled, interval) in modes {
            cnash_telemetry::set_enabled(enabled);
            cnash_telemetry::hot::set_sa_trace_interval(interval);
            let events = if enabled && interval != 0 {
                ITERATIONS as u64 / interval
            } else {
                0
            };

            let (c_run, c_delta) = measured(|| cnash.run(run_seed));
            prop_assert_eq!(c_run.pair(), Some((&direct_pair.0, &direct_pair.1)));
            prop_assert_eq!(
                c_delta,
                [1, ITERATIONS as u64, direct.accepted as u64, events]
            );

            let (i_run, i_delta) = measured(|| ideal.run(run_seed));
            prop_assert_eq!(i_delta[0], 1);
            prop_assert_eq!(i_delta[1], ITERATIONS as u64);
            prop_assert!(i_delta[2] <= ITERATIONS as u64);
            prop_assert_eq!(i_delta[3], events);

            let (d_run, d_delta) = measured(|| dwave.run(run_seed));
            prop_assert_eq!(d_delta, [0, 0, 0, 0]);

            outputs.push(format!("{c_run:?}\n{i_run:?}\n{d_run:?}"));
        }
        cnash_telemetry::set_enabled(true);
        cnash_telemetry::hot::set_sa_trace_interval(0);

        prop_assert_eq!(&outputs[1], &outputs[0]);
        prop_assert_eq!(&outputs[2], &outputs[0]);
        prop_assert_eq!(&outputs[3], &outputs[0]);
    }
}
