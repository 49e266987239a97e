//! FeFET computing-in-memory crossbar simulator (paper Sec. 3.2, Fig. 4).
//!
//! The C-Nash bi-crossbar stores the two payoff matrices and evaluates the
//! matrix-vector (Phase 1) and vector-matrix-vector (Phase 2) products of
//! the MAX-QUBO objective in the analog current domain:
//!
//! * probabilities are quantized into `I` intervals — a probability `p_i`
//!   activates `p_i · I` of the `I` word lines of its action's row group,
//!   and `q_j · I` of the `I` column groups of its action (each group is
//!   `t` data lines wide),
//! * each payoff element `m_ij ∈ {0..t}` is stored unary in `t` 1FeFET1R
//!   cells, repeated in every (row, column-group) position of its block,
//! * the summed source-line current of a block is then exactly
//!   `(p_i I) · (q_j I) · m_ij · i_on` — the worked example of Fig. 4c
//!   (`0.25 × 3 × 0.75` with `I = t = 4`) yields 9 active cells.
//!
//! [`array::Crossbar`] samples one device per physical cell (threshold and
//! resistor variability) and pre-computes per-block prefix sums so a read
//! costs `O(n·m)` lookups instead of `O(cells)` — bit-exact with the naive
//! cell-by-cell sum, which [mod@array]'s tests verify.
//!
//! # Example
//!
//! ```
//! use cnash_crossbar::{BiCrossbar, CrossbarConfig};
//! use cnash_game::{games, MixedStrategy};
//!
//! # fn main() -> Result<(), cnash_crossbar::CrossbarError> {
//! let game = games::battle_of_the_sexes();
//! let xbar = BiCrossbar::build(&game, &CrossbarConfig::ideal(12), 42)?;
//! let p = MixedStrategy::pure(2, 0).expect("valid");
//! let q = MixedStrategy::pure(2, 0).expect("valid");
//! let f = xbar.nash_gap(&p, &q)?;            // hardware evaluation of Eq. 9
//! assert!(f.abs() < 1e-6);                   // (p,q) is an equilibrium
//! # Ok(())
//! # }
//! ```

pub mod adc;
pub mod array;
pub mod bicrossbar;
pub mod delta;
pub mod error;
pub mod mapping;
pub mod offset;
pub mod stats;

pub use adc::AdcSpec;
pub use array::Crossbar;
pub use bicrossbar::{BiCrossbar, CrossbarConfig};
pub use delta::{DeltaBiCrossbar, ExactMax, PhaseOneMax};
pub use error::CrossbarError;
pub use mapping::MappingSpec;
pub use offset::QuantizedPayoffs;
