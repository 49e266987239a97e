//! Composition of 2-input WTA cells into a max tree (Fig. 5a).

use crate::cell::{WtaCell, WtaConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Result of one WTA tree evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WtaOutput {
    /// The (offset-afflicted) maximum current.
    pub value: f64,
    /// Index of the winning input.
    pub argmax: usize,
    /// Total settling latency: depth × cell latency (s).
    pub latency: f64,
}

/// A `⌈log₂ D⌉`-level tree of 2-input WTA cells computing the maximum of
/// `D` input currents.
///
/// The paper sizes the tree as `N = 2^K − 1` cells with `K = ⌈log₂ D⌉`
/// (Sec. 3.3); inputs beyond `D` up to the power of two are tied to zero
/// current, which never wins against physical inputs.
#[derive(Debug, Clone)]
pub struct WtaTree {
    inputs: usize,
    levels: usize,
    cells: Vec<WtaCell>,
    config: WtaConfig,
}

impl WtaTree {
    /// Builds a tree for `inputs` currents, sampling each cell's mismatch
    /// from a seeded RNG (same seed ⇒ same silicon).
    ///
    /// # Panics
    ///
    /// Panics if `inputs == 0`.
    pub fn build(inputs: usize, config: &WtaConfig, seed: u64) -> Self {
        assert!(inputs > 0, "WTA tree needs at least one input");
        let levels = usize::max(1, (inputs as f64).log2().ceil() as usize);
        let cell_count = (1usize << levels) - 1;
        let mut rng = StdRng::seed_from_u64(seed);
        let cells = (0..cell_count)
            .map(|_| WtaCell::sample(*config, &mut rng))
            .collect();
        Self {
            inputs,
            levels,
            cells,
            config: *config,
        }
    }

    /// Builds an ideal (mismatch-free) tree.
    pub fn ideal(inputs: usize) -> Self {
        Self::build(inputs, &WtaConfig::ideal(), 0)
    }

    /// Tree depth `K = ⌈log₂ D⌉`.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Number of 2-input cells `2^K − 1`.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Total settling latency (s): `K` levels settle in sequence.
    pub fn latency(&self) -> f64 {
        self.levels as f64 * self.config.effective_latency()
    }

    /// Evaluates the maximum of `currents`.
    ///
    /// Each tournament round applies the corresponding physical cells; a
    /// cell's output (max plus its static offset) feeds the next level, so
    /// offsets compound along the path exactly as in the analog tree. The
    /// reported `argmax` follows the winning path — with mismatches, two
    /// nearly equal inputs can legitimately resolve to the "wrong" winner,
    /// which is part of the modelled non-ideality.
    ///
    /// # Panics
    ///
    /// Panics if `currents.len() != inputs`.
    pub fn eval(&self, currents: &[f64]) -> WtaOutput {
        assert_eq!(
            currents.len(),
            self.inputs,
            "expected {} inputs",
            self.inputs
        );
        // Pad to the power of two with zero currents.
        let width = 1usize << self.levels;
        let mut values: Vec<f64> = currents.to_vec();
        values.resize(width, 0.0);
        let mut winners: Vec<usize> = (0..width).collect();

        let mut cell_idx = 0;
        let mut span = width;
        while span > 1 {
            let mut next_values = Vec::with_capacity(span / 2);
            let mut next_winners = Vec::with_capacity(span / 2);
            for k in 0..span / 2 {
                let (i1, i2) = (values[2 * k], values[2 * k + 1]);
                let cell = &self.cells[cell_idx];
                cell_idx += 1;
                next_values.push(cell.compare(i1, i2));
                // The cross-coupled pair steers the larger *cell input*;
                // at this point offsets from lower levels are already in
                // i1/i2, so the comparison is on the afflicted values.
                next_winners.push(if i1 >= i2 {
                    winners[2 * k]
                } else {
                    winners[2 * k + 1]
                });
            }
            values = next_values;
            winners = next_winners;
            span /= 2;
        }

        WtaOutput {
            value: values[0],
            argmax: winners[0].min(self.inputs - 1),
            latency: self.latency(),
        }
    }

    /// The maximum value alone — [`WtaTree::eval`] without the
    /// winning-path bookkeeping, for hot paths that only need the analog
    /// max (one tournament buffer, no per-level allocations). Bitwise the
    /// same value as `eval(currents).value`.
    ///
    /// # Panics
    ///
    /// Panics if `currents.len() != inputs`.
    pub fn eval_value(&self, currents: &[f64]) -> f64 {
        assert_eq!(
            currents.len(),
            self.inputs,
            "expected {} inputs",
            self.inputs
        );
        let width = 1usize << self.levels;
        let mut values: Vec<f64> = currents.to_vec();
        values.resize(width, 0.0);
        let mut cell_idx = 0;
        let mut span = width;
        while span > 1 {
            for k in 0..span / 2 {
                let out = self.cells[cell_idx].compare(values[2 * k], values[2 * k + 1]);
                cell_idx += 1;
                values[k] = out;
            }
            span /= 2;
        }
        values[0]
    }

    /// Worst-case relative error bound of the tree output: offsets
    /// compound multiplicatively over `K` levels.
    pub fn error_bound(&self) -> f64 {
        let per_cell = self.config.effective_offset();
        (1.0 + per_cell).powi(self.levels as i32) - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnash_device::corners::ProcessCorner;

    #[test]
    fn paper_cell_count_formula() {
        // N = 2^K − 1 with K = ⌈log₂ D⌉ (Sec. 3.3).
        for (d, k, n) in [(2, 1, 1), (3, 2, 3), (4, 2, 3), (8, 3, 7), (5, 3, 7)] {
            let t = WtaTree::ideal(d);
            assert_eq!(t.levels(), k, "D={d}");
            assert_eq!(t.cell_count(), n, "D={d}");
        }
    }

    #[test]
    fn ideal_tree_finds_exact_max() {
        let t = WtaTree::ideal(8);
        let inputs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let out = t.eval(&inputs);
        assert_eq!(out.value, 9.0);
        assert_eq!(out.argmax, 5);
    }

    #[test]
    fn single_input_tree() {
        let t = WtaTree::ideal(1);
        let out = t.eval(&[7.0]);
        assert_eq!(out.value, 7.0);
        assert_eq!(out.argmax, 0);
    }

    #[test]
    fn non_power_of_two_padding_never_wins() {
        let t = WtaTree::ideal(3);
        let out = t.eval(&[1e-6, 2e-6, 1.5e-6]);
        assert_eq!(out.argmax, 1);
        assert_eq!(out.value, 2e-6);
    }

    #[test]
    fn eval_value_matches_eval_bitwise() {
        let cfg = WtaConfig::nominal();
        for (inputs, seed) in [(1usize, 0u64), (3, 1), (8, 2), (11, 3), (64, 4)] {
            let t = WtaTree::build(inputs, &cfg, seed);
            let currents: Vec<f64> = (0..inputs).map(|k| (k as f64 * 0.37).sin().abs()).collect();
            assert_eq!(t.eval_value(&currents), t.eval(&currents).value);
        }
    }

    #[test]
    fn latency_is_depth_times_cell() {
        let t = WtaTree::build(8, &WtaConfig::nominal(), 0);
        assert!((t.latency() - 3.0 * 0.08e-9).abs() < 1e-18);
        let out = t.eval(&[0.0; 8]);
        assert_eq!(out.latency, t.latency());
    }

    #[test]
    fn mismatched_tree_error_within_bound() {
        let cfg = WtaConfig::nominal();
        for seed in 0..20 {
            let t = WtaTree::build(16, &cfg, seed);
            let inputs: Vec<f64> = (1..=16).map(|k| k as f64 * 1e-6).collect();
            let out = t.eval(&inputs);
            let exact = 16e-6;
            let rel = (out.value - exact).abs() / exact;
            assert!(
                rel <= t.error_bound() + 1e-12,
                "seed {seed}: rel error {rel} exceeds bound {}",
                t.error_bound()
            );
        }
    }

    #[test]
    fn well_separated_inputs_keep_correct_argmax() {
        // 0.25% offsets cannot flip a 10% separation.
        let cfg = WtaConfig::nominal();
        for seed in 0..20 {
            let t = WtaTree::build(8, &cfg, seed);
            let mut inputs = vec![1e-6; 8];
            inputs[3] = 1.1e-6;
            assert_eq!(t.eval(&inputs).argmax, 3, "seed {seed}");
        }
    }

    #[test]
    fn skewed_corner_has_larger_error_bound() {
        let nom = WtaTree::build(8, &WtaConfig::nominal(), 0);
        let skew = WtaTree::build(8, &WtaConfig::at_corner(ProcessCorner::Snfp), 0);
        assert!(skew.error_bound() > nom.error_bound());
    }

    #[test]
    #[should_panic(expected = "at least one input")]
    fn zero_inputs_panics() {
        let _ = WtaTree::ideal(0);
    }

    #[test]
    #[should_panic(expected = "expected 4 inputs")]
    fn wrong_input_count_panics() {
        WtaTree::ideal(4).eval(&[1.0, 2.0]);
    }
}
