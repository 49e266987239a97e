//! Exact rational arithmetic and an exact phase-1 simplex.
//!
//! This crate is the numerical trust anchor of the workspace: every
//! other layer computes in `f64` and is checked *against* the exact
//! arithmetic here, never the other way around. It is deliberately
//! dependency-free (not even `rand`) so its verdicts share no code —
//! and no rounding behaviour — with the float pipeline it certifies.
//!
//! Three layers, each textbook-simple on purpose:
//!
//! * [`Rat`] — normalized fractions (`den > 0`, `gcd(num, den) = 1`)
//!   forming an ordered field, with exact conversion from any finite
//!   `f64` (every finite float *is* a dyadic rational) and
//!   round-trippable decimal parsing/printing. A `Rat` is an inline
//!   `i64` fraction, computed in `i128` with no allocation, and is
//!   promoted to a pair of [`BigInt`]s only when a reduced term
//!   outgrows `i64`;
//! * [`BigInt`] — the overflow fallback: sign-magnitude
//!   arbitrary-precision integers on `u32` limbs (`u64`
//!   intermediates), with schoolbook arithmetic, long division and
//!   Euclidean gcd;
//! * [`simplex`] — a phase-1 primal simplex under Bland's rule (no
//!   cycling, hence guaranteed termination), exposing LP feasibility
//!   and a basic-feasible-solution **vertex** of the feasible region.
//!   There is no phase 2: nothing asks for an optimum. One pivoting
//!   rule runs over two arithmetics: a reduced [`Rat`] tableau
//!   ([`feasible_point`]) and, for integer data, a fraction-free
//!   tableau in checked `i128` ([`feasible_point_integer`]) that makes
//!   the same Bland choices, returns the same vertex without taking a
//!   gcd, and reports [`Overflow`] so callers fall back to the `Rat`
//!   one. Beside it, [`linalg`] — exact Gaussian elimination with rank
//!   detection for square systems, over [`Rat`] and fraction-free
//!   (Bareiss) over integers in checked `i128`.
//!
//! The intended consumer is exact support enumeration
//! (`cnash_game::exact_enum`): indifference systems that are singular
//! in `f64` — the source of every `?`-labelled unclassified continuum
//! hit in the differential harness — are decided here exactly, with a
//! vertex representative of the feasible region as the witness.

pub mod bigint;
pub mod linalg;
pub mod rat;
pub mod simplex;

pub use bigint::BigInt;
pub use rat::Rat;
pub use simplex::{feasible_point, feasible_point_integer, Constraint, Overflow, Relation};
