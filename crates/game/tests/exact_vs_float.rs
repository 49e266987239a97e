//! Differential property test: the exact-rational support enumerator
//! against the `f64` one, across every structured game family.
//!
//! The trust relation is one-directional. The exact oracle is the
//! anchor: every profile it returns must verify both exactly (by
//! substitution over `Rat`) and in `f64`. The float oracle is the one
//! under test: each of its equilibria must be *explained* by the exact
//! set — matched by profile distance, absorbed by an exact
//! support-pair class (continuum containment), or, for borderline
//! ε-points near an exactly-infeasible support pair, at least survive
//! exact-substitution scrutiny with a regret inside its claiming
//! tolerance. A float equilibrium none of those explain would be the
//! float pipeline listing a non-equilibrium — the exact arithmetic
//! refuting it with certainty.

use cnash_game::equilibrium::continuum_representatives;
use cnash_game::exact_enum::{enumerate_exact, exact_profile_regret, verify_exact};
use cnash_game::families::Family;
use cnash_game::support_enum::enumerate_equilibria;
use cnash_game::SupportClass;
use proptest::prelude::*;

/// Strategy-pair tolerance when matching a float equilibrium to an exact one
/// (diffcheck's `MATCH_TOL`).
const MATCH_TOL: f64 = 1e-4;
/// Payoff-tie slack for support-pair classes (diffcheck's `CLASS_TOL`).
const CLASS_TOL: f64 = 1e-6;
/// Probability tolerance for support extraction (diffcheck's
/// `SUPPORT_TOL`).
const SUPPORT_TOL: f64 = 1e-9;
/// The float oracle's own claiming tolerance: the exact regret bound an
/// unmatched float equilibrium must stay inside to avoid refutation.
const CLAIM_TOL: f64 = 1e-6;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(90))]

    /// All 6 families × sizes 2–4 × 5 seeds: exact ⊇ float (within
    /// tolerance/class containment), and every exact equilibrium
    /// verifies both exactly and in f64.
    #[test]
    fn exact_enumeration_explains_float_enumeration(
        family_idx in 0usize..Family::ALL.len(),
        size in 2usize..7,
        seed in 0u64..5,
    ) {
        let family = Family::ALL[family_idx];
        let g = family
            .build(size, family.default_scale(), family.default_knob(), seed)
            .expect("default parameters are valid");

        let float_eqs = enumerate_equilibria(&g, 1e-9);
        let exact_eqs = enumerate_exact(&g);
        prop_assert!(!float_eqs.is_empty(), "{}: float oracle empty", g.name());
        prop_assert!(!exact_eqs.is_empty(), "{}: exact oracle empty", g.name());

        // Anchor side: exact profiles verify exactly and in f64.
        let mut converted = Vec::with_capacity(exact_eqs.len());
        for ee in &exact_eqs {
            prop_assert!(
                verify_exact(&g, ee),
                "{}: exact equilibrium fails exact substitution",
                g.name()
            );
            let eq = ee.to_equilibrium(&g).expect("profile fits the game");
            prop_assert!(
                g.is_equilibrium(&eq.row, &eq.col, 1e-7),
                "{}: exact equilibrium {eq} fails float verification",
                g.name()
            );
            converted.push(eq);
        }

        // Oracle-under-test side: every float equilibrium is explained.
        let exact_classes: Vec<SupportClass> =
            continuum_representatives(&g, &converted, CLASS_TOL).expect("profiles fit");
        for fe in &float_eqs {
            let matched = converted.iter().any(|e| fe.same_profile(e, MATCH_TOL))
                || exact_classes
                    .iter()
                    .any(|c| c.contains_profile(&fe.row, &fe.col, SUPPORT_TOL));
            if matched {
                continue;
            }
            let regret = exact_profile_regret(&g, &fe.row, &fe.col).to_f64();
            prop_assert!(
                regret <= CLAIM_TOL,
                "{}: float equilibrium {fe} refuted by exact substitution (regret {regret:e})",
                g.name()
            );
        }
    }

    /// Determinism: the exact enumerator is a pure function of the
    /// game — two runs agree structurally, including singular flags.
    #[test]
    fn exact_enumeration_is_deterministic(
        family_idx in 0usize..Family::ALL.len(),
        seed in 0u64..5,
    ) {
        let family = Family::ALL[family_idx];
        let g = family
            .build(3, family.default_scale(), family.default_knob(), seed)
            .expect("default parameters are valid");
        prop_assert_eq!(enumerate_exact(&g), enumerate_exact(&g));
    }
}
