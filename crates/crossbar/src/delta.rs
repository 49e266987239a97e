//! Incremental bi-crossbar evaluation of the MAX-QUBO objective — the
//! one definition of the crossbar read physics: ADC quantization, the
//! current → payoff scale and the Eq. 9 combination
//! `α + β − v₂ᴹ − v₂ᴺ`. [`BiCrossbar::nash_gap`] and `cnash-core`'s
//! `CNashSolver::evaluate` are from-scratch builds of this evaluator.
//!
//! Evaluating the two-phase read from scratch costs `O(n·m)` prefix
//! lookups per SA iteration, although Algorithm 1 only ever moves a
//! *single* `1/I` probability unit between two actions of one player. A
//! unit move touches exactly two activation counts, so of the `n·m`
//! per-block currents feeding each read:
//!
//! * a **column-player** move changes two leaves in every Phase-1 row sum
//!   of the `M` array and `2n` leaves of each Phase-2 sum, leaving the
//!   `Nᵀ` Phase-1 side untouched;
//! * a **row-player** move is the mirror image.
//!
//! [`DeltaBiCrossbar`] caches every per-data-line accumulated current in
//! [`PairwiseSum`] reduction trees and updates only the touched leaves —
//! `O((n+m)·log(nm))` per proposal instead of `O(n·m)`. Because the trees
//! are fixed-shape pairwise reductions, the incrementally maintained
//! energy is **bit-identical** to rebuilding the evaluator from scratch
//! at the same state (the crate's property tests pin this).
//!
//! The Phase-1 maxima are pluggable through [`PhaseOneMax`]: this crate
//! ships the exact [`ExactMax`] (ablation reference); `cnash-core`
//! routes them through its WTA-tree model.

use crate::adc::AdcQuant;
use crate::bicrossbar::BiCrossbar;
use crate::error::CrossbarError;
use cnash_anneal::delta::{DeltaEnergy, PairwiseSum};
use cnash_anneal::moves::{GridStrategyPair, StrategyMove};
use rand::rngs::StdRng;

/// Reduction of the Phase-1 per-action readings (ADC-quantized
/// source-line currents) to the `α`/`β` maxima of Eq. 9. The reduction
/// happens in the current domain — where the analog WTA trees physically
/// operate — and the evaluator scales the winner to payoff units.
/// Implementations must be pure functions of the input slice.
pub trait PhaseOneMax {
    /// `α`-side reduction of the row player's Phase-1 currents (`Mq`).
    fn max_row(&self, reads: &[f64]) -> f64;
    /// `β`-side reduction of the column player's Phase-1 currents
    /// (`Nᵀp`).
    fn max_col(&self, reads: &[f64]) -> f64;
}

/// Exact maxima (no WTA non-ideality) — the ablation reference used by
/// [`BiCrossbar::nash_gap`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExactMax;

impl PhaseOneMax for ExactMax {
    fn max_row(&self, reads: &[f64]) -> f64 {
        reads.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    fn max_col(&self, reads: &[f64]) -> f64 {
        reads.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }
}

/// Undo log of one pending proposal.
#[derive(Debug, Clone, Default)]
struct Undo {
    /// `(tree index, leaf, old value)` for the changed Phase-1 side.
    phase1: Vec<(usize, usize, f64)>,
    /// `(leaf, old value)` in the `M` Phase-2 tree.
    vmv_m: Vec<(usize, f64)>,
    /// `(leaf, old value)` in the `Nᵀ` Phase-2 tree.
    vmv_nt: Vec<(usize, f64)>,
    /// Pre-proposal quantized Phase-1 currents of the changed side.
    old_reads: Vec<f64>,
    old_alpha: f64,
    old_beta: f64,
    old_energy: f64,
}

/// Incremental evaluator of the bi-crossbar MAX-QUBO energy at a grid
/// strategy state.
///
/// Implements [`DeltaEnergy`], so
/// [`cnash_anneal::delta::simulated_annealing_delta`] can drive it
/// directly.
#[derive(Debug, Clone)]
pub struct DeltaBiCrossbar<'x, M: PhaseOneMax = ExactMax> {
    hw: &'x BiCrossbar,
    max: M,
    state: GridStrategyPair,
    /// Phase-1 `M` row sums: tree `i` holds `prefix_m(i, j, I, q_j)` over
    /// `j`.
    row_mv: Vec<PairwiseSum>,
    /// Phase-1 `Nᵀ` row sums: tree `j` holds `prefix_nt(j, i, I, p_i)`
    /// over `i`.
    col_mv: Vec<PairwiseSum>,
    /// Phase-2 `M` sum: leaf `i·m + j` holds `prefix_m(i, j, p_i, q_j)`.
    vmv_m: PairwiseSum,
    /// Phase-2 `Nᵀ` sum: leaf `j·n + i` holds `prefix_nt(j, i, q_j, p_i)`.
    vmv_nt: PairwiseSum,
    /// ADC-quantized Phase-1 currents per action, kept in sync with the
    /// trees — the inputs of the `α`/`β` reduction.
    row_reads: Vec<f64>,
    col_reads: Vec<f64>,
    /// Quantizers of the two arrays' ADCs.
    quant_m: AdcQuant,
    quant_nt: AdcQuant,
    /// Current → offset-payoff-unit scale factors (`1/(I²·i_on·scale)`).
    k_m: f64,
    k_nt: f64,
    alpha: f64,
    beta: f64,
    energy: f64,
    pending: Option<StrategyMove>,
    undo: Undo,
}

impl<'x, M: PhaseOneMax> DeltaBiCrossbar<'x, M> {
    /// Builds the evaluator's caches for `state` — the one `O(n·m)` cost,
    /// amortised over the whole SA run.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::ActivationMismatch`] if the state's
    /// action counts or interval count do not match the hardware.
    pub fn new(hw: &'x BiCrossbar, state: GridStrategyPair, max: M) -> Result<Self, CrossbarError> {
        let n = hw.array_m().payoffs().rows();
        let m = hw.array_m().payoffs().cols();
        if state.p_counts().len() != n || state.q_counts().len() != m {
            return Err(CrossbarError::ActivationMismatch(format!(
                "state is {}x{} for {n}x{m} hardware",
                state.p_counts().len(),
                state.q_counts().len()
            )));
        }
        if state.intervals() != hw.intervals() {
            return Err(CrossbarError::ActivationMismatch(format!(
                "state uses {} intervals, hardware {}",
                state.intervals(),
                hw.intervals()
            )));
        }
        let p = state.p_counts();
        let q = state.q_counts();

        let row_mv: Vec<PairwiseSum> = (0..n)
            .map(|i| {
                let terms: Vec<f64> = (0..m)
                    .map(|j| hw.array_m().mv_prefix_at(i, j, q[j]))
                    .collect();
                PairwiseSum::new(&terms)
            })
            .collect();
        let col_mv: Vec<PairwiseSum> = (0..m)
            .map(|j| {
                let terms: Vec<f64> = (0..n)
                    .map(|i| hw.array_nt().mv_prefix_at(j, i, p[i]))
                    .collect();
                PairwiseSum::new(&terms)
            })
            .collect();
        let vmv_m_terms: Vec<f64> = (0..n)
            .flat_map(|i| (0..m).map(move |j| (i, j)))
            .map(|(i, j)| hw.array_m().prefix_at(i, j, p[i], q[j]))
            .collect();
        let vmv_nt_terms: Vec<f64> = (0..m)
            .flat_map(|j| (0..n).map(move |i| (j, i)))
            .map(|(j, i)| hw.array_nt().prefix_at(j, i, q[j], p[i]))
            .collect();

        let spec_m = hw.array_m().spec();
        let spec_nt = hw.array_nt().spec();
        let mut eval = Self {
            hw,
            max,
            state,
            row_mv,
            col_mv,
            vmv_m: PairwiseSum::new(&vmv_m_terms),
            vmv_nt: PairwiseSum::new(&vmv_nt_terms),
            row_reads: vec![0.0; n],
            col_reads: vec![0.0; m],
            quant_m: AdcQuant::from_spec(hw.adc_m()),
            quant_nt: AdcQuant::from_spec(hw.adc_nt()),
            k_m: 1.0 / (spec_m.current_denominator(hw.array_m().nominal_on_current()) * hw.scale()),
            k_nt: 1.0
                / (spec_nt.current_denominator(hw.array_nt().nominal_on_current()) * hw.scale()),
            alpha: 0.0,
            beta: 0.0,
            energy: 0.0,
            pending: None,
            undo: Undo::default(),
        };
        for i in 0..n {
            eval.row_reads[i] = eval.quant_m.convert(eval.row_mv[i].total());
        }
        for j in 0..m {
            eval.col_reads[j] = eval.quant_nt.convert(eval.col_mv[j].total());
        }
        eval.alpha = eval.max.max_row(&eval.row_reads) * eval.k_m;
        eval.beta = eval.max.max_col(&eval.col_reads) * eval.k_nt;
        eval.energy = eval.combine();
        Ok(eval)
    }

    /// The hardware being evaluated.
    pub fn hardware(&self) -> &BiCrossbar {
        self.hw
    }

    /// ADC-quantized Phase-1 row-player currents (`Mq` reads).
    pub fn row_reads(&self) -> &[f64] {
        &self.row_reads
    }

    /// ADC-quantized Phase-1 column-player currents (`Nᵀp` reads).
    pub fn col_reads(&self) -> &[f64] {
        &self.col_reads
    }

    /// Combines the cached phase values into the Eq. 9 energy (offsets
    /// cancel, so this estimates the true Nash gap).
    fn combine(&self) -> f64 {
        let v2m = self.quant_m.convert(self.vmv_m.total()) * self.k_m;
        let v2nt = self.quant_nt.convert(self.vmv_nt.total()) * self.k_nt;
        self.alpha + self.beta - v2m - v2nt
    }

    /// Applies a pending move's tree updates for a changed row-player
    /// count at action `a`.
    ///
    /// Phase-2 leaves with the column player's count at zero are exactly
    /// `0.0` before and after the move (the prefix tables' zero row), so
    /// skipping them leaves the trees bitwise untouched — the simplex
    /// spreads at most `I` units over the actions, which caps the
    /// touched Phase-2 leaves per move at `I` regardless of game size.
    fn refresh_p_leaf(&mut self, a: usize) {
        let p = self.state.p_counts()[a];
        let n = self.row_reads.len();
        let m = self.col_reads.len();
        for j in 0..m {
            // `a` is a *column* of the Nᵀ array here: the mirror makes
            // the per-j loads contiguous.
            let leaf = self.hw.array_nt().mv_prefix_at_colmajor(j, a, p);
            let old = self.col_mv[j].update(a, leaf);
            self.undo.phase1.push((j, a, old));

            let q = self.state.q_counts()[j];
            if q == 0 {
                continue;
            }
            let vm = self.hw.array_m().prefix_at(a, j, p, q);
            let old = self.vmv_m.update(a * m + j, vm);
            self.undo.vmv_m.push((a * m + j, old));

            let vnt = self.hw.array_nt().prefix_at_colmajor(j, a, q, p);
            let old = self.vmv_nt.update(j * n + a, vnt);
            self.undo.vmv_nt.push((j * n + a, old));
        }
    }

    /// Mirror of [`Self::refresh_p_leaf`] for a column-player count.
    fn refresh_q_leaf(&mut self, a: usize) {
        let q = self.state.q_counts()[a];
        let n = self.row_reads.len();
        let m = self.col_reads.len();
        for i in 0..n {
            // `a` is a column of the M array: contiguous in the mirror.
            let leaf = self.hw.array_m().mv_prefix_at_colmajor(i, a, q);
            let old = self.row_mv[i].update(a, leaf);
            self.undo.phase1.push((i, a, old));

            let p = self.state.p_counts()[i];
            if p == 0 {
                continue;
            }
            let vm = self.hw.array_m().prefix_at_colmajor(i, a, p, q);
            let old = self.vmv_m.update(i * m + a, vm);
            self.undo.vmv_m.push((i * m + a, old));

            let vnt = self.hw.array_nt().prefix_at(a, i, q, p);
            let old = self.vmv_nt.update(a * n + i, vnt);
            self.undo.vmv_nt.push((a * n + i, old));
        }
    }
}

impl<M: PhaseOneMax> DeltaEnergy for DeltaBiCrossbar<'_, M> {
    type State = GridStrategyPair;
    type Move = StrategyMove;

    fn state(&self) -> &GridStrategyPair {
        &self.state
    }

    fn energy(&self) -> f64 {
        self.energy
    }

    fn sample_move(&self, rng: &mut StdRng) -> Option<StrategyMove> {
        self.state.sample_move(rng)
    }

    fn propose(&mut self, mv: StrategyMove) -> f64 {
        assert!(self.pending.is_none(), "proposal already pending");
        self.undo.old_alpha = self.alpha;
        self.undo.old_beta = self.beta;
        self.undo.old_energy = self.energy;
        self.state.apply(mv);

        if mv.row_player {
            self.refresh_p_leaf(mv.from);
            self.refresh_p_leaf(mv.to);
            // Keep the stale reads for revert with an O(1) buffer swap.
            std::mem::swap(&mut self.undo.old_reads, &mut self.col_reads);
            self.col_reads.resize(self.col_mv.len(), 0.0);
            for (read, tree) in self.col_reads.iter_mut().zip(&self.col_mv) {
                *read = self.quant_nt.convert(tree.total());
            }
            self.beta = self.max.max_col(&self.col_reads) * self.k_nt;
        } else {
            self.refresh_q_leaf(mv.from);
            self.refresh_q_leaf(mv.to);
            std::mem::swap(&mut self.undo.old_reads, &mut self.row_reads);
            self.row_reads.resize(self.row_mv.len(), 0.0);
            for (read, tree) in self.row_reads.iter_mut().zip(&self.row_mv) {
                *read = self.quant_m.convert(tree.total());
            }
            self.alpha = self.max.max_row(&self.row_reads) * self.k_m;
        }

        self.energy = self.combine();
        self.pending = Some(mv);
        self.energy - self.undo.old_energy
    }

    fn commit(&mut self) {
        assert!(self.pending.take().is_some(), "no pending proposal");
        self.undo.phase1.clear();
        self.undo.vmv_m.clear();
        self.undo.vmv_nt.clear();
    }

    fn revert(&mut self) {
        let mv = self.pending.take().expect("no pending proposal");
        self.state.unapply(mv);
        let phase1_trees: &mut [PairwiseSum] = if mv.row_player {
            &mut self.col_mv
        } else {
            &mut self.row_mv
        };
        for (tree, leaf, old) in self.undo.phase1.drain(..) {
            phase1_trees[tree].update(leaf, old);
        }
        for (leaf, old) in self.undo.vmv_m.drain(..) {
            self.vmv_m.update(leaf, old);
        }
        for (leaf, old) in self.undo.vmv_nt.drain(..) {
            self.vmv_nt.update(leaf, old);
        }
        let reads = if mv.row_player {
            &mut self.col_reads
        } else {
            &mut self.row_reads
        };
        std::mem::swap(&mut self.undo.old_reads, reads);
        self.alpha = self.undo.old_alpha;
        self.beta = self.undo.old_beta;
        self.energy = self.undo.old_energy;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adc::AdcSpec;
    use crate::array::Crossbar;
    use crate::bicrossbar::CrossbarConfig;
    use cnash_game::games;
    use cnash_game::generators::random_integer_game;
    use rand::{RngExt, SeedableRng};

    fn fresh_energy(hw: &BiCrossbar, state: &GridStrategyPair) -> f64 {
        DeltaBiCrossbar::new(hw, state.clone(), ExactMax)
            .unwrap()
            .energy()
    }

    /// Reference composition of the two-phase read, independent of the
    /// evaluator: whole-array `read_mv`/`read_vmv` sums, a divide-form
    /// ADC, per-read de-normalisation and an exact max.
    fn reference_energy(hw: &BiCrossbar, state: &GridStrategyPair) -> f64 {
        fn adc(spec: &AdcSpec, current: f64) -> f64 {
            match *spec {
                AdcSpec::Ideal => current,
                AdcSpec::Uniform { bits, full_scale } => {
                    let levels = (1u64 << bits) as f64 - 1.0;
                    let code = (current.clamp(0.0, full_scale) / full_scale * levels).round();
                    code / levels * full_scale
                }
            }
        }
        let mv_max = |x: &Crossbar, spec: &AdcSpec, counts: &[u32]| {
            x.read_mv(counts)
                .unwrap()
                .into_iter()
                .map(|c| x.mv_current_to_value(adc(spec, c)) / hw.scale())
                .fold(f64::NEG_INFINITY, f64::max)
        };
        let vmv = |x: &Crossbar, spec: &AdcSpec, rows: &[u32], cols: &[u32]| {
            x.current_to_value(adc(spec, x.read_vmv(rows, cols).unwrap())) / hw.scale()
        };
        let (p, q) = (state.p_counts(), state.q_counts());
        let (m, nt) = (hw.array_m(), hw.array_nt());
        mv_max(m, hw.adc_m(), q) + mv_max(nt, hw.adc_nt(), p)
            - vmv(m, hw.adc_m(), p, q)
            - vmv(nt, hw.adc_nt(), q, p)
    }

    #[test]
    fn matches_full_nash_gap_closely() {
        // Ideal hardware: same physics, different summation association,
        // so equal up to FP reassociation noise. Paper noise (variability
        // + 8-bit ADC): a read landing on an ADC rounding tie may also be
        // rounded apart by the multiply- and divide-form quantizers.
        for (cfg, tol) in [
            (CrossbarConfig::ideal(12), 1e-9),
            (CrossbarConfig::paper(12), 0.05),
        ] {
            for n in 2..=8 {
                let g = random_integer_game(n, n, 3, n as u64).unwrap();
                let hw = BiCrossbar::build(&g, &cfg, n as u64).unwrap();
                let mut rng = StdRng::seed_from_u64(n as u64 ^ 0x5EED);
                for _ in 0..50 {
                    let s = GridStrategyPair::random(n, n, 12, &mut rng).unwrap();
                    let delta = fresh_energy(&hw, &s);
                    let full = reference_energy(&hw, &s);
                    assert!((delta - full).abs() < tol, "{n}x{n}: {delta} vs {full}");
                }
            }
        }
    }

    #[test]
    fn incremental_walk_is_bit_identical_to_scratch_rebuild() {
        let g = games::bird_game();
        for (cfg, seed) in [
            (CrossbarConfig::ideal(12), 0u64),
            (CrossbarConfig::paper(12), 7),
        ] {
            let hw = BiCrossbar::build(&g, &cfg, seed).unwrap();
            let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
            let init = GridStrategyPair::random(3, 3, 12, &mut rng).unwrap();
            let mut eval = DeltaBiCrossbar::new(&hw, init, ExactMax).unwrap();
            for step in 0..300 {
                let Some(mv) = eval.sample_move(&mut rng) else {
                    break;
                };
                let before = eval.energy();
                let delta = eval.propose(mv);
                assert_eq!(delta, eval.energy() - before, "delta contract broken");
                if rng.random::<bool>() {
                    eval.commit();
                } else {
                    eval.revert();
                    assert_eq!(eval.energy(), before, "revert drifted at step {step}");
                }
                assert_eq!(
                    eval.energy(),
                    fresh_energy(&hw, eval.state()),
                    "incremental energy diverged from scratch at step {step}"
                );
            }
        }
    }

    #[test]
    fn rejects_mismatched_state() {
        let g = games::battle_of_the_sexes();
        let hw = BiCrossbar::build(&g, &CrossbarConfig::ideal(12), 0).unwrap();
        let bad_dims = GridStrategyPair::all_on_first(3, 2, 12).unwrap();
        assert!(DeltaBiCrossbar::new(&hw, bad_dims, ExactMax).is_err());
        let bad_intervals = GridStrategyPair::all_on_first(2, 2, 6).unwrap();
        assert!(DeltaBiCrossbar::new(&hw, bad_intervals, ExactMax).is_err());
    }

    #[test]
    fn commit_then_new_proposal_round_trips() {
        let g = games::hawk_dove();
        let hw = BiCrossbar::build(&g, &CrossbarConfig::ideal(12), 1).unwrap();
        let init = GridStrategyPair::all_on_first(2, 2, 12).unwrap();
        let mut eval = DeltaBiCrossbar::new(&hw, init, ExactMax).unwrap();
        let mv = StrategyMove {
            row_player: true,
            from: 0,
            to: 1,
        };
        let delta = eval.propose(mv);
        eval.commit();
        let back = eval.propose(mv.inverse());
        eval.commit();
        // Unit transfer forth and back restores the exact energy.
        assert_eq!(delta, -back);
        assert_eq!(eval.energy(), fresh_energy(&hw, eval.state()));
    }

    #[test]
    #[should_panic(expected = "proposal already pending")]
    fn double_propose_panics() {
        let g = games::hawk_dove();
        let hw = BiCrossbar::build(&g, &CrossbarConfig::ideal(12), 1).unwrap();
        let init = GridStrategyPair::all_on_first(2, 2, 12).unwrap();
        let mut eval = DeltaBiCrossbar::new(&hw, init, ExactMax).unwrap();
        let mv = StrategyMove {
            row_player: true,
            from: 0,
            to: 1,
        };
        let _ = eval.propose(mv);
        let _ = eval.propose(mv.inverse());
    }
}
