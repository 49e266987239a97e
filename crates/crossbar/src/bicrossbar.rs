//! The bi-crossbar: two arrays storing `M` and `Nᵀ` (Fig. 3b/c, Fig. 6).
//!
//! Phase 1 reads both arrays in matrix-vector mode (all word lines up) to
//! obtain the payoff vectors `Mq` and `Nᵀp`; Phase 2 reads both in VMV
//! mode to obtain `pᵀMq` and `pᵀNq`. This module programs the arrays and
//! their ADCs; the reads, ADC conversion and de-normalisation are
//! [`DeltaBiCrossbar`]'s, whose Phase-1 `max(·)` is either exact (for
//! standalone use and ablation) or delegated to the WTA tree by
//! `cnash-core`.

use crate::adc::AdcSpec;
use crate::array::Crossbar;
use crate::delta::{DeltaBiCrossbar, ExactMax};
use crate::error::CrossbarError;
use crate::mapping::MappingSpec;
use crate::offset::QuantizedPayoffs;
use cnash_anneal::delta::DeltaEnergy;
use cnash_anneal::moves::GridStrategyPair;
use cnash_device::cell::CellParams;
use cnash_device::variability::VariabilityModel;
use cnash_game::{BimatrixGame, MixedStrategy};

/// Build-time configuration of a [`BiCrossbar`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossbarConfig {
    /// Probability quantization intervals `I`.
    pub intervals: u32,
    /// Payoff quantization scale (payoffs × scale must be integers).
    pub payoff_scale: f64,
    /// Cell electrical parameters.
    pub cell: CellParams,
    /// Device-to-device variability.
    pub variability: VariabilityModel,
    /// ADC resolution in bits; `None` = ideal conversion.
    pub adc_bits: Option<u32>,
}

impl CrossbarConfig {
    /// Ideal configuration: no variability, infinite-precision ADC.
    pub fn ideal(intervals: u32) -> Self {
        Self {
            intervals,
            payoff_scale: 1.0,
            cell: CellParams::default(),
            variability: VariabilityModel::none(),
            adc_bits: None,
        }
    }

    /// The paper's hardware assumptions: σ(V_TH) = 40 mV, 8 % resistor
    /// spread, 8-bit ADC.
    pub fn paper(intervals: u32) -> Self {
        Self {
            intervals,
            payoff_scale: 1.0,
            cell: CellParams::default(),
            variability: VariabilityModel::paper(),
            adc_bits: Some(8),
        }
    }

    /// Fingerprint of everything that influences *programming* a
    /// bi-crossbar from a given game: two configs with equal
    /// fingerprints produce interchangeable [`BiCrossbar`]s for the same
    /// `(game, seed)` pair, which is what instance caches key on.
    ///
    /// Hashes the `Debug` rendering of the full config (every field of
    /// [`CrossbarConfig`] feeds `BiCrossbar::build`, and `Debug` of
    /// `f64` is the shortest round-trip form, so distinct configs render
    /// distinctly). The fingerprint is an **in-process** cache key — it
    /// is not stable across versions of this crate and must not be
    /// persisted.
    pub fn program_fingerprint(&self) -> u64 {
        let mut h = cnash_game::canonical::Hasher64::new();
        h.write_str("crossbar-config")
            .write_str(&format!("{self:?}"));
        h.finish()
    }
}

/// The FeFET bi-crossbar storing `M` and `Nᵀ`.
#[derive(Debug, Clone)]
pub struct BiCrossbar {
    xbar_m: Crossbar,
    xbar_nt: Crossbar,
    adc_m: AdcSpec,
    adc_nt: AdcSpec,
    intervals: u32,
    scale: f64,
}

impl BiCrossbar {
    /// Maps a game onto a bi-crossbar.
    ///
    /// `t` (cells per element) is sized automatically from the largest
    /// offset payoff of either matrix, so both arrays share one geometry.
    ///
    /// # Errors
    ///
    /// Returns an error if payoffs are not integer at `payoff_scale`, or
    /// the configuration is invalid.
    pub fn build(
        game: &BimatrixGame,
        config: &CrossbarConfig,
        seed: u64,
    ) -> Result<Self, CrossbarError> {
        let qm = QuantizedPayoffs::from_matrix(game.row_payoffs(), config.payoff_scale)?;
        let qnt =
            QuantizedPayoffs::from_matrix(&game.col_payoffs().transposed(), config.payoff_scale)?;
        let t = qm.max_element().max(qnt.max_element()).max(1);
        let spec = MappingSpec::new(config.intervals, t)?;

        let xbar_m = Crossbar::build(qm, spec, config.cell, config.variability, seed)?;
        let xbar_nt = Crossbar::build(
            qnt,
            spec,
            config.cell,
            config.variability,
            seed.wrapping_add(0x9e3779b97f4a7c15),
        )?;

        let mk_adc = |x: &Crossbar| -> Result<AdcSpec, CrossbarError> {
            match config.adc_bits {
                None => Ok(AdcSpec::Ideal),
                Some(bits) => AdcSpec::uniform(bits, x.full_scale_current()),
            }
        };
        let adc_m = mk_adc(&xbar_m)?;
        let adc_nt = mk_adc(&xbar_nt)?;

        Ok(Self {
            xbar_m,
            xbar_nt,
            adc_m,
            adc_nt,
            intervals: config.intervals,
            scale: config.payoff_scale,
        })
    }

    /// Interval count `I`.
    pub fn intervals(&self) -> u32 {
        self.intervals
    }

    /// Action counts `(n, m)` of the game this bi-crossbar was
    /// programmed for — the geometry a reused (cached) instance must be
    /// validated against before serving a request.
    pub fn actions(&self) -> (usize, usize) {
        (self.xbar_m.payoffs().rows(), self.xbar_m.payoffs().cols())
    }

    /// The array storing `M`.
    pub fn array_m(&self) -> &Crossbar {
        &self.xbar_m
    }

    /// The array storing `Nᵀ`.
    pub fn array_nt(&self) -> &Crossbar {
        &self.xbar_nt
    }

    /// ADC in front of the `M` array.
    pub(crate) fn adc_m(&self) -> &AdcSpec {
        &self.adc_m
    }

    /// ADC in front of the `Nᵀ` array.
    pub(crate) fn adc_nt(&self) -> &AdcSpec {
        &self.adc_nt
    }

    /// Payoff quantization scale.
    pub(crate) fn scale(&self) -> f64 {
        self.scale
    }

    /// Grid activation counts for a strategy pair.
    ///
    /// # Errors
    ///
    /// Propagates grid-quantization errors.
    pub fn activations(
        &self,
        p: &MixedStrategy,
        q: &MixedStrategy,
    ) -> Result<(Vec<u32>, Vec<u32>), CrossbarError> {
        Ok((
            p.to_grid_counts(self.intervals)?,
            q.to_grid_counts(self.intervals)?,
        ))
    }

    /// Full two-phase hardware evaluation of the MAX-QUBO objective
    /// (Eq. 9) with an *exact* max (no WTA error) — the ablation
    /// reference, a from-scratch [`DeltaBiCrossbar`] energy. `cnash-core`
    /// replaces the max with the WTA tree model.
    ///
    /// The payoff offsets cancel between the max terms and the bilinear
    /// terms, so the result is directly comparable to
    /// [`BimatrixGame::nash_gap`].
    ///
    /// # Errors
    ///
    /// Propagates activation/grid errors.
    pub fn nash_gap(&self, p: &MixedStrategy, q: &MixedStrategy) -> Result<f64, CrossbarError> {
        let (pc, qc) = self.activations(p, q)?;
        let state = GridStrategyPair::new(pc, qc, self.intervals)?;
        Ok(DeltaBiCrossbar::new(self, state, ExactMax)?.energy())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnash_game::games;

    #[test]
    fn actions_reports_the_programmed_geometry() {
        let g = games::bird_game();
        let xbar = BiCrossbar::build(&g, &CrossbarConfig::ideal(12), 0).unwrap();
        assert_eq!(xbar.actions(), (g.row_actions(), g.col_actions()));
    }

    #[test]
    fn program_fingerprint_separates_configs() {
        let ideal = CrossbarConfig::ideal(12);
        assert_eq!(
            ideal.program_fingerprint(),
            CrossbarConfig::ideal(12).program_fingerprint()
        );
        assert_ne!(
            ideal.program_fingerprint(),
            CrossbarConfig::ideal(16).program_fingerprint()
        );
        assert_ne!(
            ideal.program_fingerprint(),
            CrossbarConfig::paper(12).program_fingerprint()
        );
    }

    #[test]
    fn ideal_gap_matches_exact_math() {
        let g = games::battle_of_the_sexes();
        let xbar = BiCrossbar::build(&g, &CrossbarConfig::ideal(12), 0).unwrap();
        let profiles = [
            (vec![1.0, 0.0], vec![1.0, 0.0]),
            (vec![2.0 / 3.0, 1.0 / 3.0], vec![1.0 / 3.0, 2.0 / 3.0]),
            (vec![0.5, 0.5], vec![0.25, 0.75]),
        ];
        for (pv, qv) in profiles {
            let p = MixedStrategy::new(pv).unwrap();
            let q = MixedStrategy::new(qv).unwrap();
            let hw = xbar.nash_gap(&p, &q).unwrap();
            let exact = g.nash_gap(&p, &q).unwrap();
            assert!((hw - exact).abs() < 1e-6, "hw {hw} vs exact {exact}");
        }
    }

    #[test]
    fn gap_zero_at_equilibria_of_all_benchmarks() {
        for b in games::paper_benchmarks() {
            let xbar = BiCrossbar::build(&b.game, &CrossbarConfig::ideal(12), 1).unwrap();
            for eq in cnash_game::support_enum::enumerate_equilibria(&b.game, 1e-9) {
                let hw = xbar.nash_gap(&eq.row, &eq.col).unwrap();
                assert!(
                    hw.abs() < 1e-6,
                    "{}: gap {hw} at equilibrium {eq}",
                    b.game.name()
                );
            }
        }
    }

    #[test]
    fn paper_config_gap_is_noisy_but_close() {
        let g = games::bird_game();
        let ideal = BiCrossbar::build(&g, &CrossbarConfig::ideal(12), 3).unwrap();
        let noisy = BiCrossbar::build(&g, &CrossbarConfig::paper(12), 3).unwrap();
        let p = MixedStrategy::new(vec![2.0 / 3.0, 1.0 / 3.0, 0.0]).unwrap();
        let q = p.clone();
        let gi = ideal.nash_gap(&p, &q).unwrap();
        let gn = noisy.nash_gap(&p, &q).unwrap();
        assert!((gi - gn).abs() < 0.25, "noise too large: {gi} vs {gn}");
    }

    #[test]
    fn phase_one_values_match_payoff_vectors() {
        let g = games::bird_game();
        let xbar = BiCrossbar::build(&g, &CrossbarConfig::ideal(12), 0).unwrap();
        let p = MixedStrategy::uniform(3).unwrap();
        let q = MixedStrategy::uniform(3).unwrap();
        let (pc, qc) = xbar.activations(&p, &q).unwrap();
        let state = GridStrategyPair::new(pc, qc, 12).unwrap();
        let eval = DeltaBiCrossbar::new(&xbar, state, ExactMax).unwrap();
        // Offset is 0 for the bird game (min payoff 0), so values match Mq.
        let exact = g.row_payoff_vector(&q).unwrap();
        for (c, e) in eval.row_reads().iter().zip(exact) {
            let v = xbar.array_m().mv_current_to_value(*c);
            // Off-cell subthreshold leakage bounds the residual error.
            assert!((v - e).abs() < 1e-4, "{v} vs {e}");
        }
    }

    #[test]
    fn offset_cancels_for_negative_payoff_games() {
        // Hawk-Dove has negative payoffs; the offset must cancel in the gap.
        let g = games::hawk_dove();
        let xbar = BiCrossbar::build(&g, &CrossbarConfig::ideal(12), 0).unwrap();
        let p = MixedStrategy::new(vec![0.5, 0.5]).unwrap();
        let q = MixedStrategy::new(vec![0.5, 0.5]).unwrap();
        let hw = xbar.nash_gap(&p, &q).unwrap();
        let exact = g.nash_gap(&p, &q).unwrap();
        assert!((hw - exact).abs() < 1e-6, "{hw} vs {exact}");
        assert!(hw.abs() < 1e-6, "mixed ESS is an equilibrium");
    }

    #[test]
    fn fractional_payoffs_with_scale() {
        use cnash_game::{BimatrixGame, Matrix};
        let m = Matrix::from_rows(&[vec![0.5, 0.0], vec![0.0, 1.5]]).unwrap();
        let n = Matrix::from_rows(&[vec![1.5, 0.0], vec![0.0, 0.5]]).unwrap();
        let g = BimatrixGame::new("frac", m, n).unwrap();
        let mut cfg = CrossbarConfig::ideal(12);
        cfg.payoff_scale = 2.0;
        let xbar = BiCrossbar::build(&g, &cfg, 0).unwrap();
        let p = MixedStrategy::pure(2, 0).unwrap();
        let q = MixedStrategy::pure(2, 0).unwrap();
        let hw = xbar.nash_gap(&p, &q).unwrap();
        let exact = g.nash_gap(&p, &q).unwrap();
        assert!((hw - exact).abs() < 1e-6);
    }

    #[test]
    fn adc_quantization_bounded_by_lsb() {
        let g = games::battle_of_the_sexes();
        let mut cfg = CrossbarConfig::ideal(12);
        cfg.adc_bits = Some(8);
        let coarse = BiCrossbar::build(&g, &cfg, 0).unwrap();
        let fine = BiCrossbar::build(&g, &CrossbarConfig::ideal(12), 0).unwrap();
        let p = MixedStrategy::new(vec![0.25, 0.75]).unwrap();
        let q = MixedStrategy::new(vec![0.5, 0.5]).unwrap();
        let a = coarse.nash_gap(&p, &q).unwrap();
        let b = fine.nash_gap(&p, &q).unwrap();
        // 4 reads, each within half an LSB of ~max_payoff/255.
        assert!((a - b).abs() < 0.1, "{a} vs {b}");
    }
}
