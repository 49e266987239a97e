//! Emulated D-Wave quantum annealers (the paper's baselines).
//!
//! Physical QPUs are replaced (per the reproduction's substitution rules)
//! by a sampler with the three properties the evaluation depends on:
//!
//! 1. **Sampling quality** — each "read" is a short thermal anneal whose
//!    sweep budget and effective temperature are preset per device;
//! 2. **Embedding noise** — logical variables ride on qubit chains
//!    ([`Topology`]); each read independently corrupts variables whose
//!    chain breaks, with probability growing with problem size;
//! 3. **Access timing** — programming + per-read (anneal + readout +
//!    delay) times from the published QPU-access-time breakdowns, which
//!    drive the Fig. 10 time-to-solution comparison.
//!
//! Preset parameters are calibrated so the *shape* of Table 1 holds
//! (2000Q ≳ Advantage 4.1 on these small games, both degrading with game
//! size); absolute percentages are not claimed.

use crate::annealer::{anneal_incremental, AnnealParams};
use crate::model::Qubo;
use crate::topology::Topology;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::fmt;

/// An emulated quantum annealer.
#[derive(Debug, Clone, PartialEq)]
pub struct DWaveModel {
    /// Device name for reports.
    pub name: String,
    /// Qubit-graph family (drives the chain model).
    pub topology: Topology,
    /// Annealing time per read (s).
    pub anneal_time: f64,
    /// Readout time per read (s).
    pub readout_time: f64,
    /// Inter-read thermalization delay (s).
    pub delay_time: f64,
    /// One-off problem programming time (s).
    pub programming_time: f64,
    /// Emulation: sweeps of the thermal sampler per read.
    pub sweeps_per_read: usize,
    /// Emulation: starting effective temperature.
    pub t_max: f64,
    /// Emulation: final effective temperature.
    pub t_min: f64,
    /// Per-coupler chain-break probability during one anneal.
    pub link_break_prob: f64,
}

impl DWaveModel {
    /// The D-Wave 2000Q6 preset (Chimera, slower readout, cleaner
    /// small-problem sampling).
    pub fn dwave_2000q() -> Self {
        Self {
            name: "D-Wave 2000Q6".into(),
            topology: Topology::Chimera,
            anneal_time: 20e-6,
            readout_time: 123e-6,
            delay_time: 21e-6,
            programming_time: 10e-3,
            sweeps_per_read: 1000,
            t_max: 60.0,
            t_min: 0.05,
            link_break_prob: 0.001,
        }
    }

    /// The D-Wave Advantage 4.1 preset (Pegasus, faster readout, noisier
    /// sampling on these instances, as Table 1 reports).
    pub fn advantage_4_1() -> Self {
        Self {
            name: "D-Wave Advantage 4.1".into(),
            topology: Topology::Pegasus,
            anneal_time: 20e-6,
            readout_time: 50e-6,
            delay_time: 21e-6,
            programming_time: 14e-3,
            sweeps_per_read: 400,
            t_max: 60.0,
            t_min: 0.08,
            link_break_prob: 0.004,
        }
    }

    /// QPU access time for `num_reads` samples of one programmed problem.
    pub fn qpu_access_time(&self, num_reads: usize) -> f64 {
        self.programming_time
            + num_reads as f64 * (self.anneal_time + self.readout_time + self.delay_time)
    }

    /// Probability that any given logical variable's chain breaks during
    /// one read of a `logical_vars`-variable problem.
    pub fn chain_break_probability(&self, logical_vars: usize) -> f64 {
        self.topology
            .chain_break_probability(logical_vars, self.link_break_prob)
    }

    /// Draws one sample (one annealing read + chain-break corruption).
    pub fn sample_once(&self, qubo: &Qubo, seed: u64) -> Vec<bool> {
        let params = AnnealParams::new(self.sweeps_per_read, self.t_max, self.t_min);
        let mut x = anneal_incremental(qubo, &params, seed).best_state;
        let p_break = self.chain_break_probability(qubo.num_vars());
        if p_break > 0.0 {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xD1CE_BEEF_u64);
            for bit in x.iter_mut() {
                if rng.random::<f64>() < p_break {
                    // Majority vote over a broken chain ≈ random bit.
                    *bit = rng.random();
                }
            }
        }
        x
    }

    /// Draws `num_reads` independent samples (seeds derived from `seed`).
    pub fn sample(&self, qubo: &Qubo, num_reads: usize, seed: u64) -> Vec<Vec<bool>> {
        (0..num_reads)
            .map(|k| self.sample_once(qubo, seed.wrapping_add(k as u64).wrapping_mul(0x9E37)))
            .collect()
    }

    /// Lowest-energy sample of a multi-read batch, with its energy.
    pub fn best_of(&self, qubo: &Qubo, num_reads: usize, seed: u64) -> (Vec<bool>, f64) {
        self.sample(qubo, num_reads, seed)
            .into_iter()
            .map(|x| {
                let e = qubo.energy(&x);
                (x, e)
            })
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite energies"))
            .expect("at least one read")
    }
}

impl fmt::Display for DWaveModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.name, self.topology)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::squbo::{SQubo, SQuboWeights};
    use cnash_game::games;

    #[test]
    fn access_time_breakdown() {
        let d = DWaveModel::dwave_2000q();
        let t = d.qpu_access_time(1000);
        // 10 ms + 1000 × 164 µs = 174 ms.
        assert!((t - 0.174).abs() < 1e-9);
        let a = DWaveModel::advantage_4_1();
        assert!(a.qpu_access_time(1000) < t, "Advantage reads are faster");
    }

    #[test]
    fn chain_break_grows_with_problem_size() {
        let d = DWaveModel::dwave_2000q();
        assert!(d.chain_break_probability(88) > d.chain_break_probability(16));
    }

    #[test]
    fn advantage_is_noisier_preset() {
        let q = DWaveModel::dwave_2000q();
        let a = DWaveModel::advantage_4_1();
        assert!(a.link_break_prob > q.link_break_prob);
        assert!(a.sweeps_per_read < q.sweeps_per_read);
    }

    #[test]
    fn sampling_reproducible() {
        let g = games::battle_of_the_sexes();
        let s = SQubo::build(&g, &SQuboWeights::default()).unwrap();
        let d = DWaveModel::advantage_4_1();
        assert_eq!(d.sample(s.qubo(), 5, 3), d.sample(s.qubo(), 5, 3));
    }

    #[test]
    fn best_of_finds_pure_equilibrium_on_bos() {
        let g = games::battle_of_the_sexes();
        let s = SQubo::build(&g, &SQuboWeights::default()).unwrap();
        let d = DWaveModel::dwave_2000q();
        let (x, e) = d.best_of(s.qubo(), 50, 9);
        assert!(e.abs() < 1e-9, "best energy {e}");
        let dec = s.decode(&x);
        let (p, q) = dec.profile.expect("one-hot");
        assert!(g.is_equilibrium(&p, &q, 1e-9));
    }

    #[test]
    fn single_reads_sometimes_fail_on_harder_games() {
        // The Advantage preset must not be a perfect oracle: over many
        // single-read attempts on the 8-action game, some fail.
        let g = games::modified_prisoners_dilemma();
        let s = SQubo::build(&g, &SQuboWeights::default()).unwrap();
        let d = DWaveModel::advantage_4_1();
        let mut failures = 0;
        for seed in 0..30 {
            let x = d.sample_once(s.qubo(), seed);
            let dec = s.decode(&x);
            let ok = dec
                .profile
                .map(|(p, q)| g.is_equilibrium(&p, &q, 1e-9))
                .unwrap_or(false);
            if !ok {
                failures += 1;
            }
        }
        assert!(failures > 0, "Advantage preset unrealistically perfect");
    }

    #[test]
    fn display_includes_topology() {
        assert!(DWaveModel::dwave_2000q().to_string().contains("Chimera"));
    }
}
