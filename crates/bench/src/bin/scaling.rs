//! Scaling study (extension beyond the paper): C-Nash success on games of
//! growing size, with the S-QUBO variable blow-up for contrast.
//!
//! Random games generally have equilibria *off* the `1/I` probability
//! grid, so this study reports two success metrics:
//!
//! * **exact** — the returned profile is an exact NE (only possible when
//!   the equilibrium happens to be grid-representable),
//! * **ε-NE** — no player can gain more than ε = 0.1 by deviating; this
//!   is what the quantized architecture can honestly promise for
//!   arbitrary games, and it converges to exact as `I` grows.
//!
//! `cargo run -p cnash-bench --bin scaling --release [-- --runs N]`

use cnash_bench::Cli;
use cnash_core::report::render_table;
use cnash_core::{CNashConfig, CNashSolver, NashSolver};
use cnash_game::generators::random_coordination_game;
use cnash_game::support_enum::enumerate_equilibria;
use cnash_qubo::squbo::{SQubo, SQuboWeights};

fn main() {
    let cli = Cli::parse_for(&["--runs", "--seed", "--full", "--threads"]);
    let runs = cli.runs.min(200);
    let eps = 0.1;

    let mut rows = Vec::new();
    for n in [2usize, 3, 4, 6, 8, 10] {
        let game = random_coordination_game(n, 6, 2, 1000 + n as u64).expect("valid");
        let ne_count = if n <= 8 {
            enumerate_equilibria(&game, 1e-9).len().to_string()
        } else {
            "-".to_string() // enumeration too slow past 8 actions
        };
        let cfg = CNashConfig::paper(12).with_iterations(4000 * n);
        let solver = CNashSolver::new(&game, cfg, cli.seed).expect("maps");

        let mut exact = 0usize;
        let mut approx = 0usize;
        for k in 0..runs {
            let out = solver.run(cli.seed.wrapping_add(k as u64));
            let (p, q) = out.profile.expect("C-Nash always returns a profile");
            if game.is_equilibrium(&p, &q, 1e-6) {
                exact += 1;
            }
            if game.is_equilibrium(&p, &q, eps) {
                approx += 1;
            }
        }

        let squbo_vars = SQubo::build(&game, &SQuboWeights::default())
            .map(|s| s.num_vars().to_string())
            .unwrap_or_else(|_| "-".into());
        let (rows_phys, cols_phys) = solver.hardware().array_m().physical_size();
        rows.push(vec![
            format!("{n}x{n}"),
            ne_count,
            format!("{:.1}", 100.0 * exact as f64 / runs as f64),
            format!("{:.1}", 100.0 * approx as f64 / runs as f64),
            format!("{rows_phys}x{cols_phys}"),
            squbo_vars,
        ]);
    }
    print!(
        "{}",
        render_table(
            &format!("Scaling on random coordination games ({runs} runs each, eps = {eps})"),
            &[
                "game",
                "#NE",
                "exact %",
                "eps-NE %",
                "crossbar cells",
                "S-QUBO vars",
            ],
            &rows,
        )
    );
    println!(
        "\nRandom games rarely have grid-representable equilibria, so the\n\
         honest guarantee of a 1/I-quantized architecture is an eps-NE; the\n\
         exact-success column shows where equilibria happen to sit on the\n\
         grid. The MAX-QUBO formulation needs zero extra variables at any\n\
         size, while the S-QUBO slack encoding grows as O(n log maxM) on\n\
         top of the action bits — the structural reason the baselines'\n\
         success collapses with size (Table 1)."
    );
}
