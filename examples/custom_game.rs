//! Bring your own game: defines a 4×4 market-entry game from scratch,
//! enumerates its equilibria, and solves it on the C-Nash hardware.
//!
//! Two firms simultaneously pick an aggressiveness level for entering a
//! market (stay out / niche / broad / all-in). Payoffs reward matching the
//! rival's restraint and punish head-on collisions — a structure with both
//! pure and mixed equilibria, like the paper's benchmarks.
//!
//! Run with: `cargo run -p cnash-core --example custom_game --release`

use cnash_core::{CNashConfig, CNashSolver, NashSolver};
use cnash_game::support_enum::enumerate_equilibria;
use cnash_game::{BimatrixGame, Matrix};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Integer payoffs map directly onto unary crossbar cells. Payoffs
    // reward avoiding the rival's positioning: head-on collisions score 0.
    let row = Matrix::from_rows(&[
        vec![0.0, 4.0, 2.0, 4.0], // stay out & license
        vec![2.0, 0.0, 2.0, 2.0], // niche
        vec![1.0, 1.0, 0.0, 1.0], // broad
        vec![4.0, 2.0, 3.0, 0.0], // all-in
    ])?;
    let col = row.transposed(); // symmetric contest
    let game = BimatrixGame::new("Market Entry", row, col)?;
    println!("{game}");
    // This instance has 5 equilibria: 2 pure anti-coordination outcomes
    // and 3 mixed blends, all exactly representable on the 1/12 grid.

    // Ground truth.
    let truth = enumerate_equilibria(&game, 1e-9);
    println!("support enumeration found {} equilibria:", truth.len());
    for eq in &truth {
        println!("  [{}] {eq}", eq.kind(1e-6));
    }

    // Solve on hardware. Intervals = 12 covers denominators 2, 3, 4.
    let solver = CNashSolver::new(&game, CNashConfig::paper(12).with_iterations(20_000), 1)?;
    let mut found = 0;
    for seed in 0..20 {
        let out = solver.run(seed);
        if out.is_equilibrium {
            found += 1;
            if found <= 3 {
                let (p, q) = out.profile.expect("profile");
                println!("run {seed}: found p*={p}, q*={q}");
            }
        }
    }
    println!("C-Nash succeeded in {found}/20 runs");
    Ok(())
}
