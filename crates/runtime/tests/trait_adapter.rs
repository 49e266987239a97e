//! Entry-point invariance of solvers and games.
//!
//! For every seeded family: a spec-built solver hands back, through
//! `NashSolver::game`, the very game it was built from; it produces the
//! same bits as the solver built directly from the typed game; and
//! canonical fingerprints are invariant across every entry point (typed
//! call, family spec, explicit-payoff spec).

use cnash_core::{CNashSolver, CfrConfig, CfrSolver, IdealSolver, NashSolver};
use cnash_game::families::Family;
use cnash_game::BimatrixGame;
use cnash_runtime::spec::{ConfigSpec, GameSpec, SolverSpec};

/// Every family × size × seed instance the properties quantify over.
fn family_instances() -> Vec<(Family, usize, u64, BimatrixGame)> {
    let mut games = Vec::new();
    for family in Family::ALL {
        for size in [2usize, 3] {
            for seed in 0..2u64 {
                let game = family
                    .build(size, family.default_scale(), family.default_knob(), seed)
                    .expect("family instance builds");
                games.push((family, size, seed, game));
            }
        }
    }
    games
}

#[test]
fn trait_evaluation_is_bit_identical_to_the_typed_path_on_all_families() {
    // A solver hands its game back as `&dyn Game`; the report
    // accumulator classifies every run against `game().bimatrix()`. That
    // view must be the very game the solver was built from, bit for bit,
    // whatever solver kind the spec names.
    let specs = [
        SolverSpec::CNash {
            config: ConfigSpec::ideal(12).with_iterations(300),
            hardware_seed: 1,
        },
        SolverSpec::Ideal {
            config: ConfigSpec::ideal(12),
        },
        SolverSpec::DWave {
            model: "2000q".into(),
            reads_per_run: 1,
        },
        SolverSpec::Cfr { iterations: 500 },
    ];
    for (_, _, _, game) in family_instances() {
        for spec in &specs {
            let solver = spec.build(&game).expect("spec builds");
            let back = solver.game().bimatrix();
            assert_eq!(back.name(), game.name());
            assert_eq!(back.row_payoffs(), game.row_payoffs());
            assert_eq!(back.col_payoffs(), game.col_payoffs());
            assert_eq!(back.canonical_fingerprint(), game.canonical_fingerprint());
        }
    }
}

#[test]
fn solver_outcomes_are_bit_identical_across_typed_and_spec_entry_points() {
    for (_, _, seed, game) in family_instances() {
        // Spec-built solver (the wire/service path, `Box<dyn NashSolver>`
        // over the trait) vs direct typed construction: same bits out.
        let spec = SolverSpec::CNash {
            config: ConfigSpec::ideal(12).with_iterations(300),
            hardware_seed: 1,
        };
        let via_spec = spec.build(&game).expect("spec builds");
        let typed = CNashSolver::new(
            &game,
            ConfigSpec::ideal(12).with_iterations(300).build().unwrap(),
            1,
        )
        .expect("typed builds");
        assert_eq!(via_spec.run(seed), typed.run(seed), "{}", game.name());

        let ideal_spec = SolverSpec::Ideal {
            config: ConfigSpec::ideal(12).with_iterations(300),
        };
        let via_spec = ideal_spec.build(&game).expect("spec builds");
        let typed = IdealSolver::new(
            &game,
            ConfigSpec::ideal(12).with_iterations(300).build().unwrap(),
        )
        .unwrap();
        assert_eq!(via_spec.run(seed), typed.run(seed), "{}", game.name());

        let cfr_spec = SolverSpec::Cfr { iterations: 500 };
        let via_spec = cfr_spec.build(&game).expect("spec builds");
        let typed = CfrSolver::new(&game, CfrConfig::new(500)).expect("typed builds");
        assert_eq!(via_spec.run(seed), typed.run(seed), "{}", game.name());
    }
}

#[test]
fn canonical_fingerprints_are_invariant_across_entry_points() {
    for (family, size, seed, game) in family_instances() {
        let spec = GameSpec::Family {
            family: family.name().into(),
            size,
            rows: None,
            cols: None,
            scale: None,
            knob: None,
            seed,
        };
        let from_spec = spec.build().expect("family spec builds");
        let explicit = GameSpec::from_game(&game).build().expect("explicit builds");
        let typed_fp = game.canonical_fingerprint();
        // Family-spec and explicit-payoff entry points land on the same
        // canonical instance (the cache-key contract).
        assert_eq!(from_spec.canonical_fingerprint(), typed_fp);
        assert_eq!(explicit.canonical_fingerprint(), typed_fp);
    }
}
