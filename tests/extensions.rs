//! Integration tests of the extension modules working together.

use cnash_core::certificate::Certificate;
use cnash_core::reduced::ReducedCNashSolver;
use cnash_core::{CNashConfig, CNashSolver, NashSolver};
use cnash_crossbar::binary_mapping::BitSlicedCrossbar;
use cnash_crossbar::QuantizedPayoffs;
use cnash_device::cell::CellParams;
use cnash_device::retention::{aged_window_fraction, EnduranceModel, RetentionModel};
use cnash_device::variability::VariabilityModel;
use cnash_game::fictitious_play::fictitious_play;
use cnash_game::library;
use cnash_game::reduction::eliminate_dominated;
use cnash_game::replicator::replicator_dynamics;
use cnash_game::support_enum::enumerate_equilibria;
use cnash_game::MixedStrategy;

/// Reduced and direct solvers agree on the equilibrium set they find.
#[test]
fn reduced_and_direct_solvers_agree() {
    let g = cnash_game::games::modified_prisoners_dilemma();
    let direct =
        CNashSolver::new(&g, CNashConfig::paper(12).with_iterations(5000), 0).expect("maps");
    let reduced =
        ReducedCNashSolver::new(&g, CNashConfig::paper(12).with_iterations(5000), 0).expect("maps");
    for seed in 0..5 {
        let d = direct.run(seed);
        let r = reduced.run(seed);
        // Both succeed and return verifiable equilibria (not necessarily
        // the same one — different grids walk differently).
        if let (Some((dp, dq)), Some((rp, rq))) = (d.pair(), r.pair()) {
            if d.is_equilibrium {
                assert!(g.is_equilibrium(dp, dq, 1e-6));
            }
            if r.is_equilibrium {
                assert!(g.is_equilibrium(rp, rq, 1e-6));
                assert_eq!(rp.len(), 8);
            }
        }
    }
}

/// Every solver answer can be certified, and the certificate agrees with
/// the run's own verdict.
#[test]
fn certificates_match_solver_verdicts() {
    let g = cnash_game::games::bird_game();
    let solver =
        CNashSolver::new(&g, CNashConfig::paper(12).with_iterations(4000), 1).expect("maps");
    for seed in 0..10 {
        let out = solver.run(seed);
        let claimed = out.is_equilibrium;
        let (p, q) = out.into_pair().expect("profile");
        let cert = Certificate::build(&g, p, q, 1e-6).expect("builds");
        assert_eq!(cert.is_valid(), claimed, "seed {seed}");
        if cert.is_valid() {
            assert!(cert.support_condition_holds());
        }
    }
}

/// The three learning/algorithmic equilibrium finders all land inside
/// the support-enumeration ground truth on the library games where they
/// are guaranteed to converge.
#[test]
fn dynamics_cross_check_on_library_games() {
    // Fictitious play on the (zero-sum-like) inspection game.
    let g = library::inspection_game();
    let truth = enumerate_equilibria(&g, 1e-9);
    let fp = fictitious_play(&g, 0, 0, 300_000).expect("runs");
    assert!(fp.gap < 0.02, "FP gap {}", fp.gap);
    assert!(truth
        .iter()
        .any(|e| { e.row.linf_distance(&fp.row) < 0.05 && e.col.linf_distance(&fp.col) < 0.05 }));

    // Replicator dynamics on dominance-solvable deadlock.
    let g = library::deadlock();
    let start = MixedStrategy::new(vec![0.6, 0.4]).expect("valid");
    let r = replicator_dynamics(&g, &start, &start, 50_000, 1e-12).expect("runs");
    assert!(r.gap < 1e-6);
    assert!(r.row.prob(1) > 0.999, "deadlock converges to defect");
}

/// Dominance reduction composes with the extended library.
#[test]
fn reduction_on_library_games() {
    let g = library::public_goods_binary();
    let r = eliminate_dominated(&g).expect("reduces");
    assert_eq!(r.game.row_actions(), 1);
    let g = library::chicken();
    let r = eliminate_dominated(&g).expect("reduces");
    assert_eq!(r.rounds, 0, "chicken has no dominated actions");
}

/// Bit-sliced and unary mappings measure the same values when ideal, and
/// the bit-sliced array uses fewer cells.
#[test]
fn binary_mapping_consistent_with_unary() {
    let g = cnash_game::games::modified_prisoners_dilemma();
    let qp = QuantizedPayoffs::from_integer_matrix(g.row_payoffs()).expect("integer");
    let sliced =
        BitSlicedCrossbar::build(qp, 12, CellParams::default(), VariabilityModel::none(), 0)
            .expect("builds");
    assert!(sliced.cell_count() < sliced.unary_cell_count());

    let p = [0u32, 0, 0, 0, 6, 6, 0, 0];
    let q = [0u32, 0, 0, 0, 12, 0, 0, 0];
    let val = sliced.current_to_value(sliced.read_vmv(&p, &q).expect("read"));
    let pv: Vec<f64> = p.iter().map(|&c| c as f64 / 12.0).collect();
    let qv: Vec<f64> = q.iter().map(|&c| c as f64 / 12.0).collect();
    let exact = g.row_payoffs().bilinear(&pv, &qv).expect("shapes");
    assert!((val - exact).abs() < 1e-3, "{val} vs {exact}");
}

/// Ageing models compose: a store-once C-Nash deployment survives a
/// 10-year mission with a healthy window, while write-heavy usage dies.
#[test]
fn ageing_supports_store_once_usage() {
    let retention = RetentionModel::default();
    let endurance = EnduranceModel::default();
    let ten_years = 3.15e8;
    // Store once (one write cycle), anneal for a decade: window > 70 %.
    let store_once = aged_window_fraction(&retention, &endurance, ten_years, 1.0);
    assert!(store_once > 0.7, "store-once window {store_once}");
    // Rewriting payoffs at ~3 kHz for 10 years (~1e12 cycles): endurance
    // collapse far past the 1e10-cycle fatigue point.
    let write_heavy = aged_window_fraction(&retention, &endurance, ten_years, 1e12);
    assert!(write_heavy < 0.2, "write-heavy window {write_heavy}");
}
