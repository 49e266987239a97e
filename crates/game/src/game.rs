//! The solver-facing game handle.
//!
//! Every game in this workspace is a two-player [`BimatrixGame`], and
//! every solver reports its answers as a `(row, col)` strategy pair.
//! [`Game`] is what `cnash_core::NashSolver::game` hands back: a
//! `dyn`-compatible view of the solver's bimatrix game.
//!
//! # Example
//!
//! ```
//! use cnash_game::{games, Game};
//!
//! let bos = games::battle_of_the_sexes();
//! let game: &dyn Game = &bos;
//! assert_eq!(game.bimatrix().canonical_fingerprint(), bos.canonical_fingerprint());
//! ```

use crate::bimatrix::BimatrixGame;

/// The game a solver works on, behind a trait object.
///
/// [`BimatrixGame`] is the one implementor. The trait survives only so
/// that perfbench's `Timed` wrapper, which implements
/// `cnash_core::NashSolver` and returns `&dyn Game`, keeps compiling.
/// It goes once a benchmark change decouples perfbench from
/// `NashSolver::game` (ROADMAP item 6).
pub trait Game: Send + Sync {
    /// The two-player game itself.
    fn bimatrix(&self) -> &BimatrixGame;
}

impl Game for BimatrixGame {
    fn bimatrix(&self) -> &BimatrixGame {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::games;

    #[test]
    fn bimatrix_game_exposes_trait_shape() {
        let g = games::battle_of_the_sexes();
        let game: &dyn Game = &g;
        assert!(std::ptr::eq(game.bimatrix(), &g));
    }
}
