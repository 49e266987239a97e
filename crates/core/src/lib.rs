//! # C-Nash: ferroelectric CiM Nash-equilibrium solver (DAC 2024)
//!
//! End-to-end reproduction of *"C-Nash: A Novel Ferroelectric
//! Computing-in-Memory Architecture for Solving Mixed Strategy Nash
//! Equilibrium"* (Qian, Ni, Kämpfe, Zhuo, Yin — DAC 2024).
//!
//! The crate wires the substrates together into the full architecture of
//! paper Fig. 3:
//!
//! 1. the game's payoff matrices are transformed into the lossless
//!    **MAX-QUBO** objective (Eq. 9) and mapped onto a FeFET **bi-crossbar**
//!    (`cnash-crossbar` over `cnash-device`),
//! 2. each simulated-annealing iteration evaluates the objective in two
//!    phases — Phase 1 computes `max(Mq)`/`max(Nᵀp)` through **WTA trees**
//!    (`cnash-wta`), Phase 2 the VMV products (Fig. 6),
//! 3. the **two-phase SA logic** (`cnash-anneal`, Algorithm 1) walks the
//!    `1/I` strategy grid until it finds pure or mixed equilibria.
//!
//! Baselines ([`baselines`]) run the lossy S-QUBO transformation on
//! emulated D-Wave annealers (`cnash-qubo`); [`cfr`] adds a classical
//! external-sampling CFR baseline on the same bimatrix games.
//! [`experiment`] reproduces the paper's evaluation artefacts (Table 1,
//! Figs. 8–10); [`timing`] holds the CiM and QPU time models.
//!
//! # Quickstart
//!
//! ```
//! use cnash_core::{CNashConfig, CNashSolver, NashSolver};
//! use cnash_game::games;
//!
//! # fn main() -> Result<(), cnash_core::CoreError> {
//! let game = games::battle_of_the_sexes();
//! let solver = CNashSolver::new(&game, CNashConfig::ideal(12), 42)?;
//! let run = solver.run(7);
//! let (p, q) = run.profile.expect("C-Nash always returns a profile");
//! assert!(game.is_equilibrium(&p, &q, 1e-6));
//! # Ok(())
//! # }
//! ```

pub mod baselines;
pub mod certificate;
pub mod cfr;
pub mod config;
pub mod energy;
pub mod error;
pub mod experiment;
pub mod report;
pub mod solver;
pub mod timing;

pub use cfr::{CfrConfig, CfrSolver};
pub use config::CNashConfig;
pub use error::CoreError;
pub use experiment::{ExperimentRunner, GameReport};
pub use solver::{CNashSolver, IdealSolver, NashSolver, ProgrammedCNash, RunOutcome, WtaMax};
pub use timing::CimTimingModel;
