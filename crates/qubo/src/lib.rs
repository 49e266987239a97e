//! QUBO machinery and the D-Wave baseline emulation.
//!
//! The paper's baselines (Khan et al. \[8]) solve Nash-equilibrium problems
//! on D-Wave quantum annealers by converting the Mangasarian–Stone
//! quadratic program into *slack-QUBO* (S-QUBO) form (Eq. 6): inequality
//! constraints become squared equality penalties with extra slack
//! variables, and all quantities are encoded in binary. This conversion is
//! **lossy** in two ways the paper exploits:
//!
//! 1. strategies are binary, so only *pure* profiles are representable —
//!    mixed equilibria are invisible to the solver;
//! 2. the penalty weights and slack discretisation deform the objective,
//!    creating "fake" minima that are not equilibria of the original game.
//!
//! This crate provides:
//!
//! * [`model::Qubo`] — a dense QUBO container with incremental energy
//!   evaluation,
//! * [`squbo`] — the Eq. 6 builder (per-row slacks, binary encodings for
//!   `α`, `β`, `ζᵢ`, `ηⱼ`) and its decoder,
//! * [`annealer`] — seeded single-flip simulated-annealing reads over
//!   QUBOs, run by `cnash-anneal`'s one Metropolis driver over the
//!   local-field evaluator [`annealer::QuboDelta`],
//! * [`topology`] / [`dwave`] — Chimera/Pegasus minor-embedding chain
//!   models, chain-break noise, QPU access timing, and the two presets
//!   `dwave_2000q()` / `advantage_4_1()` used as paper baselines,
//! * [`maxqubo`] — the exact MAX-QUBO objective (Eq. 9) for reference.
//!
//! # Example
//!
//! ```
//! use cnash_game::games;
//! use cnash_qubo::squbo::{SQubo, SQuboWeights};
//! use cnash_qubo::annealer::{anneal_incremental, AnnealParams};
//!
//! let game = games::battle_of_the_sexes();
//! let squbo = SQubo::build(&game, &SQuboWeights::default()).expect("integer payoffs");
//! let result = anneal_incremental(squbo.qubo(), &AnnealParams::default(), 7);
//! let decoded = squbo.decode(&result.best_state);
//! // When the anneal reaches the S-QUBO ground state (energy 0), the
//! // decoded profile is one of BoS's two pure equilibria.
//! if result.best_energy.abs() < 1e-9 {
//!     let (p, q) = decoded.profile.expect("ground states are one-hot");
//!     assert!(game.is_equilibrium(&p, &q, 1e-9));
//! }
//! ```

pub mod annealer;
pub mod dwave;
pub mod maxqubo;
pub mod model;
pub mod squbo;
pub mod topology;

pub use annealer::{anneal_incremental, anneal_with, AnnealParams, QuboDelta};
pub use dwave::DWaveModel;
pub use model::Qubo;
pub use squbo::{SQubo, SQuboWeights};
