//! The daemon's preparation path (`InstanceCache::prepare_with_game`)
//! and the batch path (`SolverSpec::build`) are one path: every solver
//! variant builds bit-identical solvers on both, cold and warm, and a
//! bad spec gets the same error text from both without touching the
//! cache's counters.

use cnash_game::games::paper_benchmarks;
use cnash_game::BimatrixGame;
use cnash_runtime::{ConfigSpec, GameSpec, SolverSpec};
use cnash_service::{CacheStats, InstanceCache};

const SEEDS: [u64; 3] = [0, 1, 2];

fn specs(seed: u64) -> Vec<SolverSpec> {
    vec![
        SolverSpec::CNash {
            config: ConfigSpec::paper(12).with_iterations(300),
            hardware_seed: seed,
        },
        SolverSpec::CNash {
            config: ConfigSpec::ideal(12).with_iterations(300),
            hardware_seed: seed,
        },
        SolverSpec::Ideal {
            config: ConfigSpec::ideal(12).with_iterations(300),
        },
        SolverSpec::DWave {
            model: "2000q".into(),
            reads_per_run: 2,
        },
        SolverSpec::DWave {
            model: "advantage4.1".into(),
            reads_per_run: 3,
        },
        SolverSpec::Cfr { iterations: 200 },
    ]
}

fn games() -> Vec<BimatrixGame> {
    paper_benchmarks().into_iter().map(|b| b.game).collect()
}

#[test]
fn cold_and_warm_cache_solvers_run_bit_identical_to_spec_builds() {
    let cache = InstanceCache::new();
    for game in games() {
        for seed in SEEDS {
            for spec in specs(seed) {
                let direct = spec.build(&game).unwrap();
                let cold = cache.prepare_with_game(game.clone(), &spec).unwrap();
                let warm = cache.prepare_with_game(game.clone(), &spec).unwrap();
                let programs = matches!(spec, SolverSpec::CNash { .. } | SolverSpec::DWave { .. });
                assert_eq!(warm.cache_hit, programs, "{spec:?}");
                for run in SEEDS {
                    let want = direct.run(run);
                    assert_eq!(cold.solver.run(run), want, "{} {spec:?}", game.name());
                    assert_eq!(warm.solver.run(run), want, "{} {spec:?}", game.name());
                }
            }
        }
    }
}

#[test]
fn bad_specs_get_one_error_text_on_both_paths() {
    let bad_config = |preset: &str, corner: Option<&str>| ConfigSpec {
        preset: preset.into(),
        corner: corner.map(String::from),
        ..ConfigSpec::paper(12)
    };
    let cases = [
        (
            SolverSpec::CNash {
                config: bad_config("papr", None),
                hardware_seed: 0,
            },
            "cnash: unknown preset `papr`",
        ),
        (
            SolverSpec::CNash {
                config: bad_config("paper", Some("zz")),
                hardware_seed: 0,
            },
            "cnash: unknown process corner `zz`",
        ),
        (
            SolverSpec::Ideal {
                config: bad_config("papr", None),
            },
            "ideal: unknown preset `papr`",
        ),
        (
            SolverSpec::Ideal {
                config: ConfigSpec::ideal(0),
            },
            "ideal: invalid configuration: ideal needs intervals > 0",
        ),
        (
            SolverSpec::DWave {
                model: "5000x".into(),
                reads_per_run: 1,
            },
            "dwave: unknown D-Wave model `5000x`",
        ),
        (
            SolverSpec::Cfr { iterations: 0 },
            "cfr: invalid configuration: cfr needs iterations > 0",
        ),
    ];
    let game = paper_benchmarks().remove(0).game;
    let cache = InstanceCache::new();
    for (spec, text) in &cases {
        let batch = spec.build(&game).err().expect("rejected");
        let daemon = cache
            .prepare_with_game(game.clone(), spec)
            .err()
            .expect("rejected");
        assert_eq!(batch.message, *text);
        assert_eq!(daemon.message, *text);
    }
    // Rejected before the lookup: nothing programmed, nothing counted.
    assert_eq!(cache.stats(), InstanceCache::new().stats());
}

#[test]
fn zero_dwave_reads_are_rejected_before_the_s_qubo_is_programmed() {
    // The read budget is checked before the lookup, like the model:
    // the rejected request programs and counts nothing, so the next
    // request with a valid budget is the one that misses.
    let game = paper_benchmarks().remove(0).game;
    let cache = InstanceCache::new();
    let spec = |reads_per_run| SolverSpec::DWave {
        model: "2000q".into(),
        reads_per_run,
    };
    let text = "dwave: invalid configuration: dwave needs reads_per_run > 0";
    assert_eq!(spec(0).build(&game).err().unwrap().message, text);
    let daemon = cache.prepare_with_game(game.clone(), &spec(0));
    assert_eq!(daemon.err().unwrap().message, text);
    assert_eq!(cache.stats(), InstanceCache::new().stats());
    assert!(!cache.prepare_with_game(game, &spec(1)).unwrap().cache_hit);
    let stats = cache.stats();
    assert_eq!(
        (stats.instance_hits, stats.instance_misses, stats.instances),
        (0, 1, 1)
    );
}

#[test]
fn unmappable_games_get_the_golden_error_text_on_both_paths() {
    let game = GameSpec::Explicit {
        name: "frac".into(),
        row_payoffs: vec![vec![0.5, 0.0], vec![0.0, 1.0]],
        col_payoffs: vec![vec![1.0, 0.0], vec![0.0, 1.0]],
    }
    .build()
    .unwrap();
    let spec = SolverSpec::CNash {
        config: ConfigSpec::paper(12),
        hardware_seed: 0,
    };
    let text = "cnash: crossbar error: payoff at (0, 0) is not integer at this scale (got 0.5)";
    assert_eq!(spec.build(&game).err().unwrap().message, text);
    let cache = InstanceCache::new();
    for _ in 0..2 {
        let daemon = cache.prepare_with_game(game.clone(), &spec);
        assert_eq!(daemon.err().unwrap().message, text);
    }
    let CacheStats {
        instance_hits,
        instance_misses,
        instances,
        ..
    } = cache.stats();
    assert_eq!((instance_hits, instance_misses, instances), (0, 2, 1));
}
