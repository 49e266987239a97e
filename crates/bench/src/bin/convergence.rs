//! SA convergence traces (extension): prints an ASCII view of the
//! measured objective over one run per benchmark, showing the Metropolis
//! walk cooling into an equilibrium (the behaviour behind Alg. 1). The
//! trace is the incremental walk `CNashSolver::run` makes.
//!
//! `cargo run -p cnash-bench --bin convergence --release`

use cnash_anneal::delta::simulated_annealing_delta;
use cnash_anneal::engine::SaOptions;
use cnash_anneal::moves::GridStrategyPair;
use cnash_core::{CNashConfig, CNashSolver};
use cnash_game::games;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    for bench in games::paper_benchmarks() {
        let game = &bench.game;
        let iterations = bench.paper_iterations / 5;
        let cfg = CNashConfig::paper(12).with_iterations(iterations);
        let solver = CNashSolver::new(game, cfg, 0).expect("maps");

        let opts = SaOptions {
            iterations,
            schedule: cfg.schedule,
            seed: 1,
            target_energy: Some(cfg.gap_tolerance),
            record_trace: true,
            record_hits: false,
        };
        let mut rng = StdRng::seed_from_u64(1 ^ 0x5EED_0101);
        let init = GridStrategyPair::random(game.row_actions(), game.col_actions(), 12, &mut rng)
            .expect("valid");
        let mut evaluator = solver.delta_evaluator(init).expect("valid");
        let run = simulated_annealing_delta(&mut evaluator, &opts);

        println!(
            "{} — measured objective over {} iterations (final {:.4}):",
            game.name(),
            iterations,
            run.final_energy
        );
        plot(&run.trace, 12, 64);
        match run.first_hit {
            Some(k) => println!("first zero-gap detection at iteration {k}\n"),
            None => println!("no zero-gap detection this run\n"),
        }
    }
}

/// Minimal ASCII strip chart: `rows` levels, `cols` time buckets (mean
/// per bucket).
fn plot(trace: &[f64], rows: usize, cols: usize) {
    if trace.is_empty() {
        return;
    }
    let bucket = trace.len().div_ceil(cols);
    let means: Vec<f64> = trace
        .chunks(bucket)
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
        .collect();
    let max = means.iter().copied().fold(f64::MIN, f64::max).max(1e-9);
    let min = means.iter().copied().fold(f64::MAX, f64::min).min(0.0);
    for level in (0..rows).rev() {
        let lo = min + (max - min) * level as f64 / rows as f64;
        let line: String = means
            .iter()
            .map(|&m| if m >= lo { '#' } else { ' ' })
            .collect();
        println!("  {lo:>7.3} |{line}");
    }
    println!("          +{}", "-".repeat(means.len()));
}
