//! Behavioural FeFET device substrate for the C-Nash reproduction.
//!
//! The paper simulates its circuits in Cadence SPECTRE with the Preisach
//! FeFET compact model \[27] and TSMC 28 nm MOSFETs. This crate provides the
//! behavioural equivalents that the architecture actually consumes:
//!
//! * [`preisach`] — a hysteron-ensemble Preisach model mapping programming
//!   pulses to remnant polarization and threshold-voltage shift (Fig. 2a),
//! * [`fefet`] — a two-state FeFET with an ID–VG characteristic built from
//!   a subthreshold exponential and an ON-region saturation (Fig. 2b),
//! * [`cell`] — the 1FeFET1R structure of Yin et al. \[25], whose series
//!   resistor clamps the ON current and thereby suppresses device-to-device
//!   ON-current variability (Fig. 2c/d); the cell natively computes
//!   `i = p × m × q` when inputs drive its gate (WL) and drain (DL),
//! * [`variability`] — device-to-device variability: `σ(V_TH) = 40 mV`
//!   from Soliman et al. \[29] and 8 % resistor spread from Saito et
//!   al. \[30],
//! * [`corners`] — the five process corners (tt/ss/ff/snfp/fnsp) used in
//!   the WTA robustness study (Fig. 7b),
//! * [`montecarlo`] — a seeded Monte-Carlo runner with summary statistics,
//! * [`waveform`] — simple transient waveforms with first-order settling.
//!
//! # Example
//!
//! ```
//! use cnash_device::cell::OneFeFetOneR;
//! use cnash_device::fefet::FeFetState;
//! use cnash_device::variability::DeviceSample;
//!
//! let cell = OneFeFetOneR::ideal(FeFetState::LowVth);
//! // WL and DL both driven: the stored '1' conducts the clamped ON current.
//! let on = cell.output_current(true, true);
//! assert!(on > 1e-7);
//! // Deselected cell contributes (almost) nothing.
//! assert!(cell.output_current(false, true) < on * 1e-3);
//! # let _ = DeviceSample::default();
//! ```

pub mod cell;
pub mod corners;
pub mod fefet;
pub mod montecarlo;
pub mod preisach;
pub mod variability;
pub mod waveform;

pub use cell::OneFeFetOneR;
pub use corners::ProcessCorner;
pub use fefet::{FeFet, FeFetParams, FeFetState};
pub use variability::{DeviceSample, VariabilityModel};
