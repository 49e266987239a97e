//! The two-phase simulated-annealing logic of C-Nash (paper Sec. 3.4,
//! Algorithm 1) — substrate pieces.
//!
//! This crate contains the *algorithmic* half of the SA logic, independent
//! of the hardware model:
//!
//! * [`schedule`] — temperature decay laws `T = D(T)`,
//! * [`moves`] — the strategy-pair neighbourhood: each move transfers one
//!   `1/I` probability unit between two actions of one player, so the
//!   simplex constraints `Σp = Σq = 1` hold *exactly* at every iteration
//!   ("satisfied by circuits" in the paper's words),
//! * [`engine`] — a generic seeded Metropolis driver with best-so-far
//!   tracking, first-solution-hit recording (for time-to-solution) and an
//!   optional energy trace,
//! * [`delta`] — the incremental-evaluation subsystem: the
//!   [`delta::DeltaEnergy`] trait (`propose → commit/revert`), the
//!   matching driver [`delta::simulated_annealing_delta`], and the
//!   [`delta::PairwiseSum`] reduction tree that keeps incremental sums
//!   bit-identical to full re-evaluation.
//!
//! The hardware-in-the-loop objective (bi-crossbar + WTA) is composed on
//! top of this by `cnash-core`.
//!
//! # Example
//!
//! ```
//! use cnash_anneal::engine::{simulated_annealing, SaOptions};
//! use cnash_anneal::schedule::Schedule;
//!
//! // Minimise |x| over integer states with ±1 moves.
//! let opts = SaOptions {
//!     iterations: 2000,
//!     schedule: Schedule::geometric(5.0, 0.01),
//!     seed: 1,
//!     target_energy: Some(0.0),
//!     record_trace: false,
//!     record_hits: false,
//! };
//! let run = simulated_annealing(
//!     40i64,
//!     |&x| (x as f64).abs(),
//!     |&x, rng| if rand::RngExt::random::<bool>(rng) { x + 1 } else { x - 1 },
//!     &opts,
//! );
//! assert_eq!(run.best_state, 0);
//! assert!(run.first_hit.is_some());
//! ```

pub mod delta;
pub mod engine;
pub mod moves;
pub mod schedule;

pub use delta::{simulated_annealing_delta, DeltaEnergy, PairwiseSum};
pub use engine::{simulated_annealing, SaOptions, SaRun};
pub use moves::{GridStrategyPair, StrategyMove};
pub use schedule::Schedule;
