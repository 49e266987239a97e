//! Round-trip property tests for the runtime's JSON layer:
//! `serialize → parse → re-serialize` must be **bitwise** stable for
//! every spec (`spec.rs`) and report (`report.rs`) document, in both
//! the pretty and the compact (JSON-lines) framings.
//!
//! Bitwise text stability is the property the golden-file service
//! smoke test stands on: if a document ever re-serialised differently
//! (float formatting, key order, escaping), golden diffs would churn
//! without any semantic change. The report properties include the
//! `hits_truncated` / `solutions_truncated` flags introduced with the
//! per-run hit-recorder caps.

use cnash_core::experiment::ReportAccumulator;
use cnash_core::RunOutcome;
use cnash_game::{games, MixedStrategy};
use cnash_runtime::batch::{BatchReport, EarlyStop};
use cnash_runtime::report::{batch_report_json, game_report_json};
use cnash_runtime::spec::{BatchSpec, ConfigSpec, GameSpec, JobSpec, SolverSpec};
use cnash_runtime::{Json, PortfolioStop};
use proptest::prelude::*;

// ---- strategies --------------------------------------------------------

fn game_spec(which: u8, rows: usize, cols: usize, cells: &[f64], seed: u64) -> GameSpec {
    match which % 4 {
        0 => GameSpec::Builtin("battle_of_the_sexes".into()),
        3 => {
            // `which % 4 == 3` fixes the low bits, so the sub-choices
            // derive from `which / 4` (which does cover all residues):
            // every registry family and all four scale/knob elision
            // combinations round-trip over the proptest case budget.
            let sel = which as usize / 4;
            let fam = cnash_game::families::Family::ALL[sel % 6];
            GameSpec::Family {
                family: fam.name().into(),
                size: rows.max(2),
                // Rectangular overrides (PR-7) must round-trip too.
                rows: if sel.is_multiple_of(5) {
                    Some(cols.max(1))
                } else {
                    None
                },
                cols: if sel % 7 == 1 {
                    Some(rows.max(1))
                } else {
                    None
                },
                scale: if sel.is_multiple_of(2) { None } else { Some(6) },
                // Every registry family accepts knob = 1.
                knob: if sel.is_multiple_of(3) { None } else { Some(1) },
                seed,
            }
        }
        1 => {
            let payoff = |offset: usize| -> Vec<Vec<f64>> {
                (0..rows)
                    .map(|i| {
                        (0..cols)
                            .map(|j| cells[(offset + i * cols + j) % cells.len()])
                            .collect()
                    })
                    .collect()
            };
            GameSpec::Explicit {
                name: "explicit".into(),
                row_payoffs: payoff(0),
                col_payoffs: payoff(1),
            }
        }
        _ => GameSpec::Random {
            rows,
            cols,
            max_payoff: 3,
            seed,
        },
    }
}

fn solver_spec(which: u8, iterations: usize, seed: u64) -> SolverSpec {
    match which % 5 {
        0 => SolverSpec::CNash {
            config: ConfigSpec::paper(12).with_iterations(iterations),
            hardware_seed: seed,
        },
        1 => SolverSpec::CNash {
            config: ConfigSpec {
                corner: Some("snfp".into()),
                gap_tolerance: Some(0.125),
                use_wta: Some(true),
                ..ConfigSpec::paper(16)
            },
            hardware_seed: seed,
        },
        2 => SolverSpec::Ideal {
            config: ConfigSpec::ideal(12).with_iterations(iterations),
        },
        3 => SolverSpec::Cfr {
            iterations: iterations.max(1),
        },
        _ => SolverSpec::DWave {
            model: "2000q".into(),
            reads_per_run: iterations.max(1),
        },
    }
}

fn early_stop(which: u8, n: usize) -> Option<EarlyStop> {
    match which % 3 {
        0 => None,
        1 => Some(EarlyStop::Successes(n)),
        _ => Some(EarlyStop::Coverage(n)),
    }
}

#[allow(clippy::too_many_arguments)]
fn job_spec(
    game_kind: u8,
    solver_kind: u8,
    stop_kind: u8,
    rows: usize,
    cols: usize,
    cells: Vec<f64>,
    runs: usize,
    base_seed: u64,
) -> JobSpec {
    JobSpec {
        game: game_spec(game_kind, rows, cols, &cells, base_seed),
        solver: solver_spec(solver_kind, runs * 100, base_seed ^ 0xABCD),
        runs,
        base_seed,
        early_stop: early_stop(stop_kind, runs.max(1)),
        label: if game_kind.is_multiple_of(2) {
            Some(format!("job-{base_seed}"))
        } else {
            None
        },
    }
}

// ---- spec round trips --------------------------------------------------

proptest! {
    #[test]
    fn job_spec_text_round_trips_bitwise(
        (game_kind, solver_kind, stop_kind) in (0u8..=255, 0u8..=255, 0u8..=255),
        (rows, cols, runs) in (1usize..4, 1usize..4, 1usize..50),
        cells in prop::collection::vec(-4.0f64..4.0, 4..10),
        base_seed in 0u64..u64::MAX,
    ) {
        let spec = job_spec(game_kind, solver_kind, stop_kind, rows, cols, cells, runs, base_seed);
        let text = spec.to_json().pretty();
        let doc = Json::parse(&text).map_err(|e| e.to_string())?;
        let again = JobSpec::from_json(&doc).map_err(|e| e.to_string())?;
        prop_assert_eq!(&again, &spec);
        // Bitwise: the reparsed spec serialises to the identical text.
        prop_assert_eq!(again.to_json().pretty(), text);
    }

    #[test]
    fn batch_spec_round_trips_in_both_framings(
        (game_kind, solver_kind, stop_kind) in (0u8..=255, 0u8..=255, 0u8..=255),
        jobs in 1usize..4,
        threads in 0usize..16,
        cells in prop::collection::vec(-2.0f64..6.0, 4..8),
        base_seed in 0u64..(1u64 << 60),
    ) {
        let spec = BatchSpec {
            jobs: (0..jobs)
                .map(|k| job_spec(
                    game_kind.wrapping_add(k as u8),
                    solver_kind.wrapping_add(k as u8),
                    stop_kind,
                    2,
                    2,
                    cells.clone(),
                    k + 1,
                    base_seed.wrapping_add(k as u64),
                ))
                .collect(),
            stop: if threads % 2 == 0 {
                PortfolioStop::FirstTarget
            } else {
                PortfolioStop::Independent
            },
            threads,
        };
        let pretty = spec.to_json().pretty();
        let again = BatchSpec::from_json(&pretty).map_err(|e| e.to_string())?;
        prop_assert_eq!(&again, &spec);
        prop_assert_eq!(again.to_json().pretty(), pretty.clone());
        // Compact (JSON-lines) framing parses back to the same document.
        let compact = spec.to_json().compact();
        prop_assert!(!compact.contains('\n'));
        let reparsed = Json::parse(&compact).map_err(|e| e.to_string())?;
        prop_assert_eq!(reparsed, Json::parse(&pretty).map_err(|e| e.to_string())?);
    }
}

// ---- report round trips ------------------------------------------------

/// A synthetic run outcome exercising every report bucket, including
/// the PR-2 truncation flags.
fn outcome(kind: u8, time: f64, truncated: bool) -> RunOutcome {
    let game = games::battle_of_the_sexes();
    let pure = |i: usize| {
        (
            MixedStrategy::pure(2, i).expect("valid"),
            MixedStrategy::pure(2, i).expect("valid"),
        )
    };
    let mixed = || {
        (
            MixedStrategy::new(vec![2.0 / 3.0, 1.0 / 3.0]).expect("valid"),
            MixedStrategy::new(vec![1.0 / 3.0, 2.0 / 3.0]).expect("valid"),
        )
    };
    match kind % 4 {
        // Pure equilibrium hit, solutions recorded.
        0 => RunOutcome {
            profile: Some(pure(0)),
            is_equilibrium: game.is_equilibrium(&pure(0).0, &pure(0).1, 1e-9),
            hit_time: Some(time / 2.0),
            total_time: time,
            measured_objective: 0.0,
            solutions: vec![pure(0), mixed()],
            solutions_truncated: truncated,
        },
        // Mixed equilibrium hit.
        1 => RunOutcome {
            profile: Some(mixed()),
            is_equilibrium: true,
            hit_time: Some(time),
            total_time: time,
            measured_objective: 0.0,
            solutions: vec![mixed()],
            solutions_truncated: truncated,
        },
        // Error: non-equilibrium profile.
        2 => RunOutcome {
            profile: Some((pure(0).0, pure(1).1)),
            is_equilibrium: false,
            hit_time: None,
            total_time: time,
            measured_objective: 1.0,
            solutions: Vec::new(),
            solutions_truncated: truncated,
        },
        // Error: undecodable.
        _ => RunOutcome {
            profile: None,
            is_equilibrium: false,
            hit_time: None,
            total_time: time,
            measured_objective: 2.0,
            solutions: Vec::new(),
            solutions_truncated: truncated,
        },
    }
}

proptest! {
    #[test]
    fn game_report_json_is_bitwise_stable(
        kinds in prop::collection::vec(0u8..=255, 1..12),
        times in prop::collection::vec(1e-7f64..1e-3, 12),
        truncate_at in 0usize..24,
    ) {
        let game = games::battle_of_the_sexes();
        let truth = cnash_game::support_enum::enumerate_equilibria(&game, 1e-9);
        let mut acc = ReportAccumulator::new("prop", &game);
        let mut any_truncated = false;
        for (k, kind) in kinds.iter().enumerate() {
            let truncated = k == truncate_at;
            any_truncated |= truncated;
            acc.fold(&outcome(*kind, times[k % times.len()], truncated));
        }
        let report = acc.finish(&truth);
        let doc = game_report_json(&report);
        let text = doc.pretty();
        let reparsed = Json::parse(&text).map_err(|e| e.to_string())?;
        // Bitwise: parse → re-serialize reproduces the text exactly, in
        // both framings.
        prop_assert_eq!(reparsed.pretty(), text);
        prop_assert_eq!(
            Json::parse(&doc.compact()).map_err(|e| e.to_string())?,
            reparsed.clone()
        );
        // The PR-2 truncation flag survives the trip.
        prop_assert_eq!(
            reparsed.get("hits_truncated").map_err(|e| e.to_string())?.as_bool().map_err(|e| e.to_string())?,
            any_truncated
        );
        prop_assert_eq!(
            reparsed.get("runs").map_err(|e| e.to_string())?.as_usize().map_err(|e| e.to_string())?,
            kinds.len()
        );
    }

    #[test]
    fn batch_report_json_is_bitwise_stable(
        kinds in prop::collection::vec(0u8..=255, 1..8),
        (threads, scheduled_extra) in (1usize..16, 0usize..5),
        wall in 1e-4f64..10.0,
        stopped in prop::bool::ANY,
    ) {
        let game = games::battle_of_the_sexes();
        let truth = cnash_game::support_enum::enumerate_equilibria(&game, 1e-9);
        let mut acc = ReportAccumulator::new("prop", &game);
        for (k, kind) in kinds.iter().enumerate() {
            acc.fold(&outcome(*kind, 1e-5, k == 2));
        }
        let batch = BatchReport {
            report: acc.finish(&truth),
            scheduled_runs: kinds.len() + scheduled_extra,
            executed_runs: kinds.len(),
            stopped_early: stopped,
            cancelled: !stopped && scheduled_extra > 0,
            threads,
            wall_seconds: wall,
        };
        let text = batch_report_json(&batch).pretty();
        let reparsed = Json::parse(&text).map_err(|e| e.to_string())?;
        prop_assert_eq!(reparsed.pretty(), text);
        prop_assert_eq!(
            reparsed.get("stopped_early").map_err(|e| e.to_string())?.as_bool().map_err(|e| e.to_string())?,
            stopped
        );
    }
}

// ---- targeted regressions ----------------------------------------------

#[test]
fn seeds_at_the_f64_boundary_round_trip_bitwise() {
    for seed in [0, 1, (1 << 53) - 1, 1 << 53, (1 << 53) + 1, u64::MAX] {
        let spec = JobSpec {
            game: GameSpec::Builtin("matching_pennies".into()),
            solver: SolverSpec::CNash {
                config: ConfigSpec::ideal(12),
                hardware_seed: seed,
            },
            runs: 1,
            base_seed: seed,
            early_stop: None,
            label: None,
        };
        let text = spec.to_json().pretty();
        let again = JobSpec::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(again, spec, "seed {seed}");
        assert_eq!(again.to_json().pretty(), text, "seed {seed}");
    }
}

#[test]
fn early_stop_forms_round_trip_bitwise() {
    for stop in [
        None,
        Some(EarlyStop::Successes(1)),
        Some(EarlyStop::Coverage(3)),
    ] {
        let spec = JobSpec {
            game: GameSpec::Builtin("stag_hunt".into()),
            solver: SolverSpec::Ideal {
                config: ConfigSpec::ideal(12),
            },
            runs: 5,
            base_seed: 0,
            early_stop: stop,
            label: None,
        };
        let text = spec.to_json().pretty();
        let again = JobSpec::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(again.early_stop, stop);
        assert_eq!(again.to_json().pretty(), text);
    }
}
