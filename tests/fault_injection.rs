//! Failure injection: dead and stuck-on cells in the crossbar, extreme
//! variability, and coarse ADCs. The architecture should degrade
//! gracefully, not catastrophically.

use cnash_core::{CNashConfig, CNashSolver, NashSolver};
use cnash_crossbar::{Crossbar, MappingSpec, QuantizedPayoffs};
use cnash_device::cell::CellParams;
use cnash_device::variability::VariabilityModel;
use cnash_game::games;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn bird_crossbar() -> Crossbar {
    let g = games::bird_game();
    let q = QuantizedPayoffs::from_integer_matrix(g.row_payoffs()).expect("integer");
    let spec = MappingSpec::new(12, q.max_element()).expect("valid");
    Crossbar::build(q, spec, CellParams::default(), VariabilityModel::none(), 0).expect("builds")
}

/// A handful of dead cells shifts reads by at most the lost unary units.
#[test]
fn dead_cells_cause_bounded_proportional_error() {
    let mut xbar = bird_crossbar();
    let p = vec![4u32, 4, 4];
    let q = vec![4u32, 4, 4];
    let clean = xbar.read_vmv(&p, &q).expect("read");

    let (rows, cols) = xbar.physical_size();
    let mut rng = StdRng::seed_from_u64(3);
    let kills = 10;
    for _ in 0..kills {
        let r = rng.random_range(0..rows);
        let c = rng.random_range(0..cols);
        xbar.inject_dead_cell(r, c);
    }
    xbar.rebuild_prefix();
    let faulty = xbar.read_vmv(&p, &q).expect("read");

    let unit = xbar.nominal_on_current();
    assert!(faulty <= clean + 1e-15);
    assert!(
        clean - faulty <= kills as f64 * unit + 1e-12,
        "lost more current than the dead cells carried"
    );
}

/// Stuck-on cells inflate reads by at most one unit each.
#[test]
fn stuck_on_cells_inflate_bounded() {
    let mut xbar = bird_crossbar();
    let p = vec![12u32, 0, 0];
    let q = vec![12u32, 0, 0];
    let clean = xbar.read_vmv(&p, &q).expect("read");
    xbar.inject_stuck_on_cell(0, 0);
    xbar.inject_stuck_on_cell(1, 1);
    xbar.rebuild_prefix();
    let faulty = xbar.read_vmv(&p, &q).expect("read");
    let unit = xbar.nominal_on_current();
    assert!(faulty >= clean - 1e-15);
    assert!(faulty - clean <= 2.0 * unit + 1e-12);
}

/// The solver still finds equilibria at 2x the paper's variability; at a
/// catastrophic 10x it may fail but must not panic or return invalid
/// strategies.
#[test]
fn solver_degrades_gracefully_under_extreme_variability() {
    let game = games::battle_of_the_sexes();

    let mut cfg = CNashConfig::paper(12).with_iterations(5000);
    cfg.crossbar.variability = VariabilityModel::paper().scaled(2.0);
    let solver = CNashSolver::new(&game, cfg, 4).expect("maps");
    let ok = (0..10).filter(|&s| solver.run(s).is_equilibrium).count();
    assert!(ok >= 5, "2x variability broke the solver: {ok}/10");

    cfg.crossbar.variability = VariabilityModel::paper().scaled(10.0);
    let harsh = CNashSolver::new(&game, cfg, 4).expect("maps");
    for seed in 0..5 {
        let out = harsh.run(seed);
        let (p, q) = out.profile.expect("profile is always returned");
        // Strategies remain valid simplex points regardless of noise.
        assert!((p.probs().iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!((q.probs().iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
}

/// A 1-bit ADC is useless but must not crash; success collapses while the
/// returned strategies stay valid.
#[test]
fn one_bit_adc_is_safe_but_useless() {
    let game = games::bird_game();
    let mut cfg = CNashConfig::paper(12).with_iterations(2000);
    cfg.crossbar.adc_bits = Some(1);
    let solver = CNashSolver::new(&game, cfg, 0).expect("maps");
    for seed in 0..5 {
        let out = solver.run(seed);
        let (p, _) = out.profile.expect("profile");
        assert_eq!(p.len(), 3);
    }
}

/// WTA trees with absurd offsets misrank maxima but never return values
/// wildly outside the input range.
#[test]
fn wta_with_huge_offset_stays_bounded() {
    use cnash_wta::{WtaCell, WtaConfig, WtaTree};
    let cfg = WtaConfig {
        offset_rel: 0.2,
        ..WtaConfig::nominal()
    };
    let tree = WtaTree::build(8, &cfg, 9);
    let inputs: Vec<f64> = (1..=8).map(|k| k as f64).collect();
    let out = tree.eval(&inputs);
    assert!(out.value <= 8.0 * (1.0 + tree.error_bound()) + 1e-12);
    assert!(out.value >= 8.0 * (1.0 - tree.error_bound()) - 1e-12);
    // Explicit worst-case single cell.
    let cell = WtaCell::with_mismatch(cfg, 0.2 * cfg.corner.offset_scale());
    assert!((cell.compare(1.0, 2.0) - 2.4).abs() < 1e-12);
}
