//! Exact-arithmetic support enumeration — the trust-anchor oracle.
//!
//! This is the third, independent equilibrium oracle of the harness.
//! It walks the same equal-size support pairs as
//! [`support_enum::enumerate_equilibria`](crate::support_enum::enumerate_equilibria)
//! but computes exactly — over [`Rat`] (rationals from `cnash-exact`,
//! inline `i64` fractions promoted to big integers on overflow) and,
//! for integer payoffs, over integers — so it has **no tolerances
//! anywhere**:
//!
//! * the indifference system of a support pair is solved by exact
//!   elimination — fraction-free (Bareiss) in checked `i128` when
//!   every payoff is an integer, `Rat` Gauss–Jordan on overflow or
//!   fractional payoffs — and "singular" means *exactly* singular —
//!   the rank test `f64` elimination cannot perform;
//! * a singular-but-consistent system describes a **continuum** of
//!   equilibria; instead of giving up (which is what the float
//!   enumerator must do, and the source of every `?`-labelled
//!   unclassified hit in diffcheck), the exact path hands the system —
//!   indifference rows, the probability simplex, and the off-support
//!   best-response inequalities, all of which are linear — to the
//!   exact phase-1 simplex and obtains a **vertex representative**
//!   of the face, certified feasible by construction;
//! * feasibility (`q ≥ 0`) and best-response slack are exact
//!   comparisons, so every returned profile is a *mathematically
//!   certain* Nash equilibrium, re-checkable by substitution with
//!   [`verify_exact`].
//!
//! Two savings leave the output unchanged, bit for bit:
//!
//! * **Iterated strict dominance by a pure action**, decided exactly
//!   once per game (integer table for integer payoffs, `Rat`
//!   otherwise), removes actions before the walk, which then skips
//!   every support holding one. Such a support pair has no solution:
//!   of the actions in `s ∪ t`, take the one eliminated first, say row
//!   `i`, beaten by row `k` against every column still live in that
//!   round. Every column of `t` is still live then, so `(Aq)_k >
//!   (Aq)_i` for every mixture `q` on `t`. If `k` is in the row
//!   support `s`, indifference `(Aq)_i = (Aq)_k` fails; if not, `k`'s
//!   off-support row `(Aq)_k ≤ (Aq)_i` fails (off-support rows cover
//!   every action outside `s`, eliminated or not). Columns alike.
//!   Skipped pairs contribute nothing, so the remaining pairs keep
//!   their order and deduplication keeps the same first-found
//!   `singular` flag.
//! * A singular pair with integer payoffs goes to the **fraction-free
//!   integer simplex** (`cnash_exact::feasible_point_integer`), which
//!   makes the `Rat` simplex's Bland choices and returns its vertex;
//!   the `Rat` simplex runs only on overflow or fractional payoffs.
//!
//! Float oracles are checked **against** this one, never the reverse.

use crate::bimatrix::BimatrixGame;
use crate::equilibrium::Equilibrium;
use crate::error::GameError;
use crate::strategy::MixedStrategy;
use crate::support_enum::{subsets_of_size, MAX_ENUM_ACTIONS};
use cnash_exact::linalg::{solve as exact_solve, solve_integer, LinSolve};
use cnash_exact::{feasible_point, feasible_point_integer, Constraint, Overflow, Rat};
use std::ops::Sub;

/// An exactly-certified Nash equilibrium.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExactEquilibrium {
    /// Row player's mixture, exact, sums to exactly one.
    pub row: Vec<Rat>,
    /// Column player's mixture, exact, sums to exactly one.
    pub col: Vec<Rat>,
    /// `true` iff at least one side's indifference system was exactly
    /// singular, i.e. this profile is a simplex **vertex
    /// representative** sampled from a continuum of equilibria rather
    /// than an isolated point.
    pub singular: bool,
}

impl ExactEquilibrium {
    /// Rounds the exact profile to an `f64` [`Equilibrium`] record
    /// (nearest-float per coordinate; the Nash gap is recomputed in
    /// `f64` and is near zero, not exactly zero, by construction).
    ///
    /// # Errors
    ///
    /// Returns [`GameError::ShapeMismatch`] if the profile does not
    /// fit `game`.
    pub fn to_equilibrium(&self, game: &BimatrixGame) -> Result<Equilibrium, GameError> {
        let row = MixedStrategy::new(self.row.iter().map(Rat::to_f64).collect())?;
        let col = MixedStrategy::new(self.col.iter().map(Rat::to_f64).collect())?;
        if row.len() != game.row_actions() || col.len() != game.col_actions() {
            return Err(GameError::ShapeMismatch {
                left: (game.row_actions(), game.col_actions()),
                right: (row.len(), col.len()),
            });
        }
        Ok(Equilibrium::from_profile(game, row, col))
    }
}

/// Enumerates Nash equilibria of `game` in exact rational arithmetic.
///
/// Walks every equal-size support pair of actions that survive
/// iterated strict dominance (the float enumerator's walk, minus pairs
/// that provably hold no equilibrium). Unique indifference systems
/// are accepted or rejected by exact comparison; exactly-singular
/// systems are resolved by the exact simplex, contributing a vertex
/// representative of the continuum they describe (flagged
/// [`ExactEquilibrium::singular`]).
/// Results are deduplicated by exact equality and sorted by exact
/// profile order, so the output is bit-reproducible.
///
/// # Panics
///
/// Panics if either player has more than [`MAX_ENUM_ACTIONS`] actions
/// (same bound as the float enumerator) or a payoff is non-finite
/// (impossible for a validated [`BimatrixGame`]).
pub fn enumerate_exact(game: &BimatrixGame) -> Vec<ExactEquilibrium> {
    let n = game.row_actions();
    let m = game.col_actions();
    assert!(
        n <= MAX_ENUM_ACTIONS && m <= MAX_ENUM_ACTIONS,
        "exact enumeration limited to {MAX_ENUM_ACTIONS} actions per player"
    );

    let (a, bt) = rat_tables(game);
    let ints = integer_tables(game);
    let (a_int, bt_int) = match &ints {
        Some((ai, bi)) => (Some(ai.as_slice()), Some(bi.as_slice())),
        None => (None, None),
    };
    let (rows, cols) = match &ints {
        Some((ai, bi)) => undominated(ai, bi),
        None => undominated(&a, &bt),
    };

    let mut found: Vec<ExactEquilibrium> = Vec::new();
    for_each_pair(&rows, &cols, |s, t| {
        let Some((q, q_sing)) = solve_side(&a, a_int, s, t, m) else {
            return;
        };
        let Some((p, p_sing)) = solve_side(&bt, bt_int, t, s, n) else {
            return;
        };
        let eq = ExactEquilibrium {
            row: p,
            col: q,
            singular: q_sing || p_sing,
        };
        debug_assert!(verify_exact(game, &eq), "support-pair solution must verify");
        if !found.iter().any(|e| e.row == eq.row && e.col == eq.col) {
            found.push(eq);
        }
    });
    found.sort_by(|x, y| x.row.cmp(&y.row).then_with(|| x.col.cmp(&y.col)));
    found
}

/// The linear programs of [`enumerate_exact`]'s singular support
/// pairs, in integers: one for each side of each pair the walk visits
/// whose indifference system is exactly singular, over that side's
/// opponent mixture. Empty unless every payoff is an integer of
/// magnitude below `2^62`. A harness runs the integer and the `Rat`
/// simplex on these to check that they agree.
pub fn singular_side_programs(game: &BimatrixGame) -> Vec<Vec<Constraint<i64>>> {
    let Some((a, bt)) = integer_tables(game) else {
        return Vec::new();
    };
    let (rows, cols) = undominated(&a, &bt);
    let mut programs = Vec::new();
    for_each_pair(&rows, &cols, |s, t| {
        for (table, s, t) in [(&a, s, t), (&bt, t, s)] {
            if let IntSide::Singular = solve_side_integer(table, s, t) {
                programs.push(side_program(table, s, t, 0, 1));
            }
        }
    });
    programs
}

/// Re-verifies an exact profile by direct substitution: both mixtures
/// are nonnegative and sum to exactly one, and each player's expected
/// payoff exactly equals their best pure-action payoff against the
/// opponent's mixture. No tolerance is involved; `true` means the
/// profile is a Nash equilibrium with mathematical certainty.
pub fn verify_exact(game: &BimatrixGame, eq: &ExactEquilibrium) -> bool {
    let n = game.row_actions();
    let m = game.col_actions();
    if eq.row.len() != n || eq.col.len() != m {
        return false;
    }
    let simplex_ok = |v: &[Rat]| {
        !v.iter().any(Rat::is_negative)
            && v.iter().fold(Rat::zero(), |acc, x| &acc + x) == Rat::one()
    };
    if !simplex_ok(&eq.row) || !simplex_ok(&eq.col) {
        return false;
    }
    // Row player: payoff vector (A q), value p · (A q); Nash iff the
    // value equals the maximum entry (support ⊆ argmax).
    let aq: Vec<Rat> = (0..n)
        .map(|i| {
            (0..m).fold(Rat::zero(), |acc, j| {
                &acc + &(&exact(game.row_payoffs()[(i, j)]) * &eq.col[j])
            })
        })
        .collect();
    let pb: Vec<Rat> = (0..m)
        .map(|j| {
            (0..n).fold(Rat::zero(), |acc, i| {
                &acc + &(&exact(game.col_payoffs()[(i, j)]) * &eq.row[i])
            })
        })
        .collect();
    let value = |weights: &[Rat], payoffs: &[Rat]| {
        weights
            .iter()
            .zip(payoffs)
            .fold(Rat::zero(), |acc, (w, u)| &acc + &(w * u))
    };
    let best = |payoffs: &[Rat]| payoffs.iter().max().cloned().expect("nonempty action set");
    value(&eq.row, &aq) == best(&aq) && value(&eq.col, &pb) == best(&pb)
}

/// The **exact** Nash regret of an arbitrary `f64` profile: the larger
/// of the two players' best-response payoff gaps
/// `max_i (A q)_i − p·(A q)` and `max_j (Bᵀp)_j − q·(Bᵀp)`, computed in
/// exact rational arithmetic after exact dyadic conversion of every
/// probability and payoff. This is how the trust anchor *refutes* a
/// float oracle's claim: a profile whose exact regret exceeds the
/// claiming tolerance is certainly not the equilibrium it was sold as,
/// with no rounding left to hide behind.
///
/// # Panics
///
/// Panics if the profile shapes do not match `game` or any probability
/// is non-finite.
pub fn exact_profile_regret(game: &BimatrixGame, p: &MixedStrategy, q: &MixedStrategy) -> Rat {
    let n = game.row_actions();
    let m = game.col_actions();
    assert_eq!(p.len(), n, "row strategy length");
    assert_eq!(q.len(), m, "column strategy length");
    let pr: Vec<Rat> = p.probs().iter().map(|&x| exact(x)).collect();
    let qr: Vec<Rat> = q.probs().iter().map(|&x| exact(x)).collect();
    let aq: Vec<Rat> = (0..n)
        .map(|i| {
            (0..m).fold(Rat::zero(), |acc, j| {
                &acc + &(&exact(game.row_payoffs()[(i, j)]) * &qr[j])
            })
        })
        .collect();
    let pb: Vec<Rat> = (0..m)
        .map(|j| {
            (0..n).fold(Rat::zero(), |acc, i| {
                &acc + &(&exact(game.col_payoffs()[(i, j)]) * &pr[i])
            })
        })
        .collect();
    let gap = |weights: &[Rat], payoffs: &[Rat]| {
        let value = weights
            .iter()
            .zip(payoffs)
            .fold(Rat::zero(), |acc, (w, u)| &acc + &(w * u));
        let best = payoffs.iter().max().cloned().expect("nonempty action set");
        &best - &value
    };
    let row_gap = gap(&pr, &aq);
    let col_gap = gap(&qr, &pb);
    row_gap.max(col_gap)
}

/// The exact value of a finite payoff entry.
fn exact(x: f64) -> Rat {
    Rat::from_f64(x).expect("validated games have finite payoffs")
}

/// A game's two payoff tables: the row player's, and the column
/// player's transposed, so that each player's actions index the outer
/// `Vec`.
type Tables<T> = (Vec<Vec<T>>, Vec<Vec<T>>);

/// Both payoff tables, converted exactly: `a[i][j]` pays the row
/// player, `bt[j][i]` (transposed) pays the column player.
fn rat_tables(game: &BimatrixGame) -> Tables<Rat> {
    let (n, m) = (game.row_actions(), game.col_actions());
    let a = (0..n)
        .map(|i| (0..m).map(|j| exact(game.row_payoffs()[(i, j)])).collect())
        .collect();
    let bt = (0..m)
        .map(|j| (0..n).map(|i| exact(game.col_payoffs()[(i, j)])).collect())
        .collect();
    (a, bt)
}

/// Both payoff tables in integers — the row player's, and the column
/// player's transposed — if every payoff is an integer (as the
/// structured families guarantee) of magnitude below `2^62`, so that
/// payoff differences fit `i64`.
fn integer_tables(game: &BimatrixGame) -> Option<Tables<i64>> {
    let (n, m) = (game.row_actions(), game.col_actions());
    Some((
        integer_table(n, m, |i, j| game.row_payoffs()[(i, j)])?,
        integer_table(m, n, |j, i| game.col_payoffs()[(i, j)])?,
    ))
}

/// The table `(i, j) ↦ payoff(i, j)` as integers, if every entry is
/// one of magnitude below `2^62`.
fn integer_table(
    rows: usize,
    cols: usize,
    payoff: impl Fn(usize, usize) -> f64,
) -> Option<Vec<Vec<i64>>> {
    const LIMIT: f64 = (1u64 << 62) as f64;
    (0..rows)
        .map(|i| {
            (0..cols)
                .map(|j| {
                    let x = payoff(i, j);
                    (x.fract() == 0.0 && x.abs() < LIMIT).then_some(x as i64)
                })
                .collect()
        })
        .collect()
}

/// The actions that survive iterated elimination of actions strictly
/// dominated by a pure action, as `(rows, cols)`, each ascending. `a`
/// is the row player's payoff table and `bt` the column player's,
/// transposed. The surviving set does not depend on the elimination
/// order.
fn undominated<T: Ord>(a: &[Vec<T>], bt: &[Vec<T>]) -> (Vec<usize>, Vec<usize>) {
    let mut rows = vec![true; a.len()];
    let mut cols = vec![true; bt.len()];
    while eliminate(a, &mut rows, &cols) | eliminate(bt, &mut cols, &rows) {}
    let alive = |v: Vec<bool>| (0..v.len()).filter(|&i| v[i]).collect();
    (alive(rows), alive(cols))
}

/// One elimination pass for the player whose payoff table is `a`:
/// every live action that another live action beats against every
/// live opponent action dies. Returns whether any did.
fn eliminate<T: Ord>(a: &[Vec<T>], alive: &mut [bool], opp: &[bool]) -> bool {
    let mut changed = false;
    for i in 0..a.len() {
        let beats_i = |k: usize| (0..opp.len()).all(|j| !opp[j] || a[k][j] > a[i][j]);
        if alive[i] && (0..a.len()).any(|k| k != i && alive[k] && beats_i(k)) {
            alive[i] = false;
            changed = true;
        }
    }
    changed
}

/// Calls `f` on every support pair the walk visits, in order: equal
/// sizes, ascending; row supports outer. Supports are drawn from the
/// surviving actions `rows` and `cols`, in the float enumerator's
/// order with every other support left out.
fn for_each_pair(rows: &[usize], cols: &[usize], mut f: impl FnMut(&[usize], &[usize])) {
    for k in 1..=rows.len().min(cols.len()) {
        let col_supports = supports(cols, k);
        for s in supports(rows, k) {
            for t in &col_supports {
                f(&s, t);
            }
        }
    }
}

/// The `k`-element subsets of `actions` (ascending), in the float
/// enumerator's order: an order-preserving relabelling of
/// [`subsets_of_size`].
fn supports(actions: &[usize], k: usize) -> Vec<Vec<usize>> {
    subsets_of_size(actions.len(), k)
        .into_iter()
        .map(|s| s.into_iter().map(|i| actions[i]).collect())
        .collect()
}

/// Outcome of deciding one side of a support pair in integers.
enum IntSide {
    /// The unique solution, feasible and un-beaten.
    Accept(Vec<Rat>),
    /// The unique solution is negative somewhere or beaten off-support.
    Reject,
    /// The indifference system is exactly singular.
    Singular,
    /// An intermediate left `i128`: decide over [`Rat`] instead.
    Overflow,
}

/// Coefficient rows of the indifference system over unknowns `x_j`,
/// `j ∈ t`: `(A x)_{s[0]} − (A x)_{s[r]} = 0` for `r = 1..k`, then the
/// normalization `Σ x = 1`; and its right-hand side.
fn indifference_system<T: Clone>(
    a: &[Vec<T>],
    s: &[usize],
    t: &[usize],
    zero: T,
    one: T,
) -> (Vec<Vec<T>>, Vec<T>)
where
    for<'x> &'x T: Sub<Output = T>,
{
    let k = s.len();
    let mut rows: Vec<Vec<T>> = (1..k)
        .map(|r| t.iter().map(|&j| &a[s[0]][j] - &a[s[r]][j]).collect())
        .collect();
    rows.push(vec![one.clone(); k]);
    let mut rhs = vec![zero; k - 1];
    rhs.push(one);
    (rows, rhs)
}

/// Off-support best-response rows, linear in `x`:
/// `(A x)_i ≤ (A x)_{s[0]}  ⇔  Σ_j (a[i][j] − a[s0][j]) x_j ≤ 0`.
fn off_support_rows<'a, T>(
    a: &'a [Vec<T>],
    s: &'a [usize],
    t: &'a [usize],
) -> impl Iterator<Item = Vec<T>> + 'a
where
    for<'x> &'x T: Sub<Output = T>,
{
    (0..a.len())
        .filter(|i| !s.contains(i))
        .map(move |i| t.iter().map(|&j| &a[i][j] - &a[s[0]][j]).collect())
}

/// Decides one side of a support pair in integer arithmetic: the
/// indifference system goes through the fraction-free solve, and the
/// `x ≥ 0` and off-support slack checks become sign tests on the
/// Cramer numerators. `Rat`s are built only for an accepted solution.
fn solve_side_integer(a: &[Vec<i64>], s: &[usize], t: &[usize]) -> IntSide {
    let (rows, rhs) = indifference_system(a, s, t, 0, 1);
    let Some((numers, det)) = solve_integer(&rows, &rhs) else {
        return IntSide::Overflow;
    };
    if det == 0 {
        return IntSide::Singular;
    }
    // `x = numers / det`, so a coordinate or a slack is positive iff
    // its numerator has the sign of `det`.
    let positive = det.signum();
    if numers.iter().any(|v| v.signum() == -positive) {
        return IntSide::Reject;
    }
    for row in off_support_rows(a, s, t) {
        let slack = row.iter().zip(&numers).try_fold(0i128, |acc, (&c, &y)| {
            acc.checked_add(i128::from(c).checked_mul(y)?)
        });
        match slack {
            None => return IntSide::Overflow,
            Some(v) if v.signum() == positive => return IntSide::Reject,
            Some(_) => {}
        }
    }
    let Ok(det) = i64::try_from(det) else {
        return IntSide::Overflow;
    };
    match numers
        .iter()
        .map(|&y| i64::try_from(y).ok().map(|y| Rat::from_ratio(y, det)))
        .collect()
    {
        Some(sol) => IntSide::Accept(sol),
        None => IntSide::Overflow,
    }
}

/// One side of a support pair as an exact linear program over the
/// opponent's mixture on `t`: indifference equalities, normalization,
/// off-support inequalities, `x ≥ 0` implicit. The exact simplex
/// decides it and returns a vertex of the feasible face as its
/// representative.
fn side_program<T: Clone>(
    a: &[Vec<T>],
    s: &[usize],
    t: &[usize],
    zero: T,
    one: T,
) -> Vec<Constraint<T>>
where
    for<'x> &'x T: Sub<Output = T>,
{
    let (rows, rhs) = indifference_system(a, s, t, zero.clone(), one);
    let mut cs: Vec<Constraint<T>> = rows
        .into_iter()
        .zip(rhs)
        .map(|(row, b)| Constraint::eq(row, b))
        .collect();
    cs.extend(off_support_rows(a, s, t).map(|row| Constraint::le(row, zero.clone())));
    cs
}

/// [`side_program`] over [`Rat`], decided by the `Rat` simplex.
fn simplex_side(a: &[Vec<Rat>], s: &[usize], t: &[usize]) -> Option<Vec<Rat>> {
    feasible_point(s.len(), &side_program(a, s, t, Rat::zero(), Rat::one()))
}

/// Solves one side of a support pair exactly: find the *opponent*
/// mixture (full length `opp_len`, support `t`) that makes the focal
/// player exactly indifferent across their support `s`, exactly
/// feasible, and exactly un-beaten by any off-support action. Returns
/// the mixture and whether the indifference system was singular.
///
/// `a` is the focal player's payoff table, focal actions indexing the
/// outer `Vec`; `a_int` is the same table in integers when every
/// payoff is one, which decides unique systems and the simplex of
/// singular ones without fractions.
/// Both paths are exact, so they return the same answer.
fn solve_side(
    a: &[Vec<Rat>],
    a_int: Option<&[Vec<i64>]>,
    s: &[usize],
    t: &[usize],
    opp_len: usize,
) -> Option<(Vec<Rat>, bool)> {
    debug_assert_eq!(s.len(), t.len());
    let (sol, singular) = match a_int.map(|ai| (ai, solve_side_integer(ai, s, t))) {
        Some((_, IntSide::Accept(sol))) => (sol, false),
        Some((_, IntSide::Reject)) => return None,
        Some((ai, IntSide::Singular)) => {
            let program = side_program(ai, s, t, 0, 1);
            let vertex = feasible_point_integer(s.len(), &program)
                .unwrap_or_else(|Overflow| simplex_side(a, s, t));
            (vertex?, true)
        }
        Some((_, IntSide::Overflow)) | None => {
            let (rows, rhs) = indifference_system(a, s, t, Rat::zero(), Rat::one());
            match exact_solve(&rows, &rhs) {
                LinSolve::Unique(sol) => {
                    // Exact feasibility and best-response checks.
                    if sol.iter().any(Rat::is_negative) {
                        return None;
                    }
                    for row in off_support_rows(a, s, t) {
                        let slack = row
                            .iter()
                            .zip(&sol)
                            .fold(Rat::zero(), |acc, (c, x)| &acc + &(c * x));
                        if slack.is_positive() {
                            return None;
                        }
                    }
                    (sol, false)
                }
                // The support pair describes a continuum (or nothing).
                LinSolve::Singular => (simplex_side(a, s, t)?, true),
            }
        }
    };

    let mut x = vec![Rat::zero(); opp_len];
    for (idx, &j) in t.iter().enumerate() {
        x[j] = sol[idx].clone();
    }
    Some((x, singular))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::games;
    use crate::support_enum::enumerate_equilibria;

    fn r(a: i64, b: i64) -> Rat {
        Rat::from_ratio(a, b)
    }

    #[test]
    fn bos_exact_equilibria() {
        let g = games::battle_of_the_sexes();
        let eqs = enumerate_exact(&g);
        assert_eq!(eqs.len(), 3);
        assert!(eqs.iter().all(|e| verify_exact(&g, e)));
        assert!(eqs.iter().all(|e| !e.singular), "BoS is nondegenerate");
        // The mixed equilibrium is exactly (2/3, 1/3) x (1/3, 2/3).
        assert!(eqs
            .iter()
            .any(|e| e.row == vec![r(2, 3), r(1, 3)] && e.col == vec![r(1, 3), r(2, 3)]));
    }

    #[test]
    fn matching_pennies_exact_half() {
        let g = games::matching_pennies();
        let eqs = enumerate_exact(&g);
        assert_eq!(eqs.len(), 1);
        assert_eq!(eqs[0].row, vec![r(1, 2), r(1, 2)]);
        assert_eq!(eqs[0].col, vec![r(1, 2), r(1, 2)]);
        assert!(!eqs[0].singular);
    }

    #[test]
    fn agrees_with_float_enumerator_on_named_games() {
        for g in [
            games::battle_of_the_sexes(),
            games::prisoners_dilemma(),
            games::stag_hunt(),
            games::hawk_dove(),
            games::coordination(3).unwrap(),
        ] {
            let float_eqs = enumerate_equilibria(&g, 1e-9);
            let exact_eqs = enumerate_exact(&g);
            // Every float equilibrium appears among the exact ones.
            for fe in &float_eqs {
                assert!(
                    exact_eqs.iter().any(|ee| {
                        let e = ee.to_equilibrium(&g).unwrap();
                        fe.same_profile(&e, 1e-6)
                    }),
                    "{}: float equilibrium {fe} missing from exact set",
                    g.name()
                );
            }
            // And every exact equilibrium passes f64 verification too.
            for ee in &exact_eqs {
                let e = ee.to_equilibrium(&g).unwrap();
                assert!(
                    g.is_equilibrium(&e.row, &e.col, 1e-7),
                    "{}: exact equilibrium fails float verification",
                    g.name()
                );
            }
        }
    }

    #[test]
    fn singular_continuum_gets_a_vertex_representative() {
        // Row player is payoff-indifferent everywhere (A ≡ 0), column
        // player plays matching pennies. On the full support pair the
        // row-side indifference system is exactly singular (0 = 0 rows)
        // and the equilibria `p = (1/2, 1/2) × any q` form a continuum.
        // The float enumerator drops that pair; the exact path must
        // resolve it through the simplex and certify a vertex.
        let m = crate::Matrix::from_rows(&[vec![0.0, 0.0], vec![0.0, 0.0]]).unwrap();
        let b = crate::Matrix::from_rows(&[vec![1.0, -1.0], vec![-1.0, 1.0]]).unwrap();
        let g = BimatrixGame::new("indiff-pennies", m, b).unwrap();
        let eqs = enumerate_exact(&g);
        let singular: Vec<_> = eqs.iter().filter(|e| e.singular).collect();
        assert!(
            !singular.is_empty(),
            "singular full-support pair must surface a representative"
        );
        assert!(
            singular
                .iter()
                .any(|e| e.row == vec![r(1, 2), r(1, 2)] && e.col.contains(&Rat::one())),
            "vertex of the continuum: p = (1/2, 1/2), q a simplex vertex; got {singular:?}"
        );
        for e in &eqs {
            assert!(verify_exact(&g, e), "representative must verify exactly");
        }
    }

    #[test]
    fn verify_exact_rejects_non_equilibria() {
        let g = games::prisoners_dilemma();
        // Cooperate/cooperate is NOT an equilibrium of the PD.
        let bogus = ExactEquilibrium {
            row: vec![Rat::one(), Rat::zero()],
            col: vec![Rat::one(), Rat::zero()],
            singular: false,
        };
        assert!(!verify_exact(&g, &bogus));
        // Wrong shape.
        let short = ExactEquilibrium {
            row: vec![Rat::one()],
            col: vec![Rat::one(), Rat::zero()],
            singular: false,
        };
        assert!(!verify_exact(&g, &short));
        // Not a probability vector.
        let unnormalized = ExactEquilibrium {
            row: vec![r(1, 2), r(1, 4)],
            col: vec![Rat::one(), Rat::zero()],
            singular: false,
        };
        assert!(!verify_exact(&g, &unnormalized));
    }

    #[test]
    fn rational_fallback_agrees_with_integer_path() {
        // An affine payoff map with positive slope moves no
        // equilibrium. Scaling by 2^40 keeps the payoffs integral but
        // overflows the fraction-free solve on 3×3 supports, and the
        // fraction-free simplex on two singular 2×2 sides; a
        // fractional map takes every system through `Rat`.
        let affine = |g: &BimatrixGame, f: &dyn Fn(f64) -> f64| {
            let name = format!("{}-mapped", g.name());
            BimatrixGame::new(name, g.row_payoffs().map(f), g.col_payoffs().map(f)).unwrap()
        };
        for family in crate::families::Family::ALL {
            for size in 2..=4 {
                for seed in 0..2 {
                    let g = family
                        .build(size, family.default_scale(), family.default_knob(), seed)
                        .unwrap();
                    let want = enumerate_exact(&g);
                    let scaled = affine(&g, &|x| x * (1u64 << 40) as f64);
                    let shifted = affine(&g, &|x| x / 4.0 + 0.5);
                    assert_eq!(enumerate_exact(&scaled), want, "{}", g.name());
                    assert_eq!(enumerate_exact(&shifted), want, "{}", g.name());
                }
            }
        }
    }

    /// `undominated` over both the integer and the `Rat` form of the
    /// row player's table `a` and the column player's table `b`.
    fn survivors(a: &[Vec<i64>], b: &[Vec<i64>]) -> (Vec<usize>, Vec<usize>) {
        let bt: Vec<Vec<i64>> = (0..b[0].len())
            .map(|j| b.iter().map(|row| row[j]).collect())
            .collect();
        let rat = |t: &[Vec<i64>]| -> Vec<Vec<Rat>> {
            t.iter()
                .map(|row| row.iter().map(|&v| Rat::from_int(v)).collect())
                .collect()
        };
        let got = undominated(a, &bt);
        assert_eq!(undominated(&rat(a), &rat(&bt)), got);
        got
    }

    #[test]
    fn dominance_is_iterated_across_players() {
        // No row beats another at first; column 0 strictly beats
        // column 1, and once column 1 is gone row 0 beats row 1.
        let a = [vec![2, 0], vec![1, 3]];
        let b = [vec![2, 1], vec![2, 1]];
        assert_eq!(survivors(&a, &b), (vec![0], vec![0]));
    }

    #[test]
    fn weakly_dominated_and_duplicate_actions_survive() {
        // Row 1 is only weakly beaten by row 0: both stay.
        let zeros = [vec![0, 0], vec![0, 0]];
        let a = [vec![1, 1], vec![1, 0]];
        assert_eq!(survivors(&a, &zeros), (vec![0, 1], vec![0, 1]));
        // Rows 0 and 1 are equal, so neither beats the other; both
        // strictly beat row 2.
        let zeros = [vec![0, 0], vec![0, 0], vec![0, 0]];
        let a = [vec![1, 2], vec![1, 2], vec![0, 0]];
        assert_eq!(survivors(&a, &zeros), (vec![0, 1], vec![0, 1]));
    }

    proptest::proptest! {
        /// No equilibrium the float enumerator finds puts weight on an
        /// action that iterated strict dominance eliminates, in family
        /// games and in their quartered images (which are decided over
        /// the `Rat` tables).
        #[test]
        fn eliminated_actions_carry_no_weight(
            family in proptest::prop::sample::select(crate::families::Family::ALL.to_vec()),
            rows in 2usize..=6,
            cols in 2usize..=6,
            seed in 0u64..1000,
            quartered in proptest::prop::bool::ANY,
        ) {
            let g = family
                .build_rect(rows, cols, family.default_scale(), family.default_knob(), seed)
                .unwrap();
            let g = if quartered {
                let quarter = |x: f64| x / 4.0;
                let (a, b) = (g.row_payoffs().map(quarter), g.col_payoffs().map(quarter));
                BimatrixGame::new("quartered", a, b).unwrap()
            } else {
                g
            };
            let (live_rows, live_cols) = match integer_tables(&g) {
                Some((a, bt)) => undominated(&a, &bt),
                None => {
                    let (a, bt) = rat_tables(&g);
                    undominated(&a, &bt)
                }
            };
            for eq in enumerate_equilibria(&g, 1e-9) {
                for i in (0..rows).filter(|i| !live_rows.contains(i)) {
                    proptest::prop_assert!(eq.row.probs()[i] == 0.0, "row {i} in {eq}");
                }
                for j in (0..cols).filter(|j| !live_cols.contains(j)) {
                    proptest::prop_assert!(eq.col.probs()[j] == 0.0, "col {j} in {eq}");
                }
            }
        }
    }

    #[test]
    fn output_is_sorted_and_deduplicated() {
        let g = games::coordination(3).unwrap();
        let eqs = enumerate_exact(&g);
        for w in eqs.windows(2) {
            let ka = (&w[0].row, &w[0].col);
            let kb = (&w[1].row, &w[1].col);
            assert!(ka < kb, "exact output must be strictly sorted");
        }
    }
}
