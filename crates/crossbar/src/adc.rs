//! Sense-amplifier / ADC model.
//!
//! Source-line currents are digitised before the SA logic combines them
//! (paper Fig. 3b/c: `ADC` + `S&A` blocks). A uniform quantizer with a
//! configurable bit width models the conversion; the ideal variant passes
//! currents through unchanged (used for ablations).

use crate::error::CrossbarError;

/// Analog-to-digital conversion applied to every crossbar read.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum AdcSpec {
    /// Infinite-precision conversion (ablation baseline).
    #[default]
    Ideal,
    /// Uniform mid-tread quantizer with `bits` resolution over
    /// `[0, full_scale]`; inputs are clamped to the range.
    Uniform {
        /// Resolution in bits (1..=24).
        bits: u32,
        /// Full-scale input current (A).
        full_scale: f64,
    },
}

impl AdcSpec {
    /// Creates a uniform quantizer, validating parameters.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InvalidConfig`] for `bits` outside
    /// `1..=24` or a non-positive full scale.
    pub fn uniform(bits: u32, full_scale: f64) -> Result<Self, CrossbarError> {
        if !(1..=24).contains(&bits) {
            return Err(CrossbarError::InvalidConfig(format!(
                "ADC bits {bits} outside 1..=24"
            )));
        }
        if full_scale <= 0.0 || !full_scale.is_finite() {
            return Err(CrossbarError::InvalidConfig(
                "ADC full scale must be positive".into(),
            ));
        }
        Ok(AdcSpec::Uniform { bits, full_scale })
    }

    /// Least-significant-bit step size (0 for the ideal ADC).
    pub fn lsb(&self) -> f64 {
        match *self {
            AdcSpec::Ideal => 0.0,
            AdcSpec::Uniform { bits, full_scale } => full_scale / ((1u64 << bits) as f64 - 1.0),
        }
    }
}

/// The quantizer of an [`AdcSpec`] in multiply form: the reciprocal
/// code constants are fixed per spec, so a conversion is two multiplies
/// and a round instead of two divides — at one conversion per action per
/// SA proposal, `fdiv` latency would be a measurable slice of the hot
/// path.
#[derive(Debug, Clone, Copy)]
pub(crate) enum AdcQuant {
    Ideal,
    Uniform {
        to_code: f64,
        from_code: f64,
        full_scale: f64,
    },
}

impl AdcQuant {
    pub(crate) fn from_spec(spec: &AdcSpec) -> Self {
        match *spec {
            AdcSpec::Ideal => AdcQuant::Ideal,
            AdcSpec::Uniform { bits, full_scale } => {
                let levels = (1u64 << bits) as f64 - 1.0;
                AdcQuant::Uniform {
                    to_code: levels / full_scale,
                    from_code: full_scale / levels,
                    full_scale,
                }
            }
        }
    }

    /// Converts an input current to its quantized representation.
    #[inline]
    pub(crate) fn convert(&self, current: f64) -> f64 {
        match *self {
            AdcQuant::Ideal => current,
            AdcQuant::Uniform {
                to_code,
                from_code,
                full_scale,
            } => (current.clamp(0.0, full_scale) * to_code).round() * from_code,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quant(bits: u32, full_scale: f64) -> AdcQuant {
        AdcQuant::from_spec(&AdcSpec::uniform(bits, full_scale).unwrap())
    }

    #[test]
    fn ideal_passthrough() {
        let a = AdcSpec::Ideal;
        assert_eq!(AdcQuant::from_spec(&a).convert(1.234e-6), 1.234e-6);
        assert_eq!(a.lsb(), 0.0);
    }

    #[test]
    fn uniform_quantizes_within_half_lsb() {
        let lsb = AdcSpec::uniform(8, 1e-3).unwrap().lsb();
        let a = quant(8, 1e-3);
        for k in 0..100 {
            let x = k as f64 * 1e-5 + 3.3e-7;
            let y = a.convert(x);
            assert!((x - y).abs() <= lsb / 2.0 + 1e-18, "x={x}, y={y}");
        }
    }

    #[test]
    fn clamps_out_of_range() {
        let a = quant(4, 1.0);
        assert_eq!(a.convert(2.0), 1.0);
        assert_eq!(a.convert(-0.5), 0.0);
    }

    #[test]
    fn endpoints_are_exact() {
        let a = quant(6, 1.0);
        assert_eq!(a.convert(0.0), 0.0);
        assert_eq!(a.convert(1.0), 1.0);
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert!(AdcSpec::uniform(0, 1.0).is_err());
        assert!(AdcSpec::uniform(25, 1.0).is_err());
        assert!(AdcSpec::uniform(8, 0.0).is_err());
        assert!(AdcSpec::uniform(8, f64::NAN).is_err());
    }

    #[test]
    fn more_bits_less_error() {
        let x = 0.123456;
        let e4 = (quant(4, 1.0).convert(x) - x).abs();
        let e12 = (quant(12, 1.0).convert(x) - x).abs();
        assert!(e12 < e4);
    }
}
