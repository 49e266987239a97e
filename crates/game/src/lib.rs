//! Game-theory substrate for the C-Nash reproduction.
//!
//! This crate implements everything the C-Nash architecture (and its
//! baselines) need to *talk about* two-player games:
//!
//! * [`Matrix`] — a small dense row-major matrix with the handful of linear
//!   algebra operations required by Nash-equilibrium computations,
//! * [`MixedStrategy`] — a validated probability vector over a player's
//!   actions, including quantization onto the `1/I` grid used by the C-Nash
//!   crossbar mapping,
//! * [`BimatrixGame`] — a two-player game in strategic form with payoff
//!   matrices `M` (row player) and `N` (column player); every solver
//!   answers with a `(row, col)` pair of [`MixedStrategy`]s,
//! * [`Game`] — the trait-object handle solvers return their game
//!   through; [`BimatrixGame`] is its one implementor,
//! * [`Equilibrium`] and ε-Nash verification via best-response conditions,
//! * [`support_enum`] — a support-enumeration solver used as ground truth
//!   (the paper used Nashpy the same way),
//! * [`lemke_howson`] — an independent path-following solver used to
//!   cross-check the enumeration,
//! * [`exact_enum`] — exact-rational support enumeration (over
//!   `cnash-exact` big-int fractions), the trust anchor both float
//!   oracles are checked against: no tolerances, certified singular
//!   continua, simplex vertex representatives,
//! * [`games`] — named benchmark instances, including the three games of the
//!   paper's evaluation section,
//! * [`generators`] — seeded random game generators for scaling studies,
//! * [`families`] — GAMUT-style structured game families (congestion,
//!   dominance-solvable, covariant, sparse, degenerate,
//!   anti-coordination) for differential testing at scale.
//!
//! # Example
//!
//! ```
//! use cnash_game::{games, support_enum::enumerate_equilibria};
//!
//! # fn main() -> Result<(), cnash_game::GameError> {
//! let game = games::battle_of_the_sexes();
//! let eqs = enumerate_equilibria(&game, 1e-9);
//! // Battle of the Sexes has two pure and one mixed equilibrium.
//! assert_eq!(eqs.len(), 3);
//! for eq in &eqs {
//!     assert!(game.is_equilibrium(&eq.row, &eq.col, 1e-6));
//! }
//! # Ok(())
//! # }
//! ```

pub mod bimatrix;
pub mod canonical;
pub mod equilibrium;
pub mod error;
pub mod exact_enum;
pub mod families;
pub mod game;
pub mod games;
pub mod generators;
pub mod lemke_howson;
pub mod library;
pub mod linalg;
pub mod matrix;
pub mod strategy;
pub mod support_enum;

pub use bimatrix::BimatrixGame;
pub use equilibrium::{Equilibrium, StrategyKind, SupportClass};
pub use error::GameError;
pub use game::Game;
pub use matrix::Matrix;
pub use strategy::MixedStrategy;

/// One-stop import for downstream crates: the concrete types every
/// solver touches.
///
/// ```
/// use cnash_game::prelude::*;
///
/// let game = cnash_game::games::matching_pennies();
/// let dynamic: &dyn Game = &game;
/// let uniform = MixedStrategy::uniform(2).unwrap();
/// assert!(dynamic.bimatrix().is_equilibrium(&uniform, &uniform, 1e-9));
/// ```
pub mod prelude {
    pub use crate::bimatrix::BimatrixGame;
    pub use crate::equilibrium::{Equilibrium, StrategyKind, SupportClass};
    pub use crate::error::GameError;
    pub use crate::game::Game;
    pub use crate::matrix::Matrix;
    pub use crate::strategy::MixedStrategy;
}
