//! SA hot-path performance harness: full re-evaluation vs the
//! incremental delta-energy subsystem.
//!
//! `cargo run --release -p cnash-bench --bin perf -- [--quick] [--out PATH]`
//!
//! Times the two production hot paths across a grid of game sizes and
//! payoff/coupling densities:
//!
//! * **bi-crossbar**: `CNashSolver::evaluate` per proposal (a from-scratch
//!   two-phase read, `O(n·m)`) vs `CNashSolver::delta_evaluator` +
//!   `simulated_annealing_delta` (`O((n+m)·log nm)`, the path every
//!   `CNashSolver::run` takes),
//! * **QUBO**: `anneal` (`O(n)` row scan per proposal) vs
//!   `anneal_incremental` (cached local fields, `O(1)` per proposal).
//!
//! Writes `BENCH_sa_hotpath.json` in the shared BENCH schema
//! (`cnash_bench::report`). Exit status doubles as the CI regression
//! gate:
//!
//! * exit 2 — equivalence check failed (the delta path diverged from
//!   full evaluation, a correctness bug),
//! * exit 1 — delta speedup at the 64×64 crossbar point fell below 1.0×
//!   (the incremental subsystem regressed into a slowdown),
//! * exit 0 — measurements recorded.

use cnash_anneal::delta::simulated_annealing_delta;
use cnash_anneal::engine::{simulated_annealing, SaOptions};
use cnash_anneal::moves::GridStrategyPair;
use cnash_bench::client::fail;
use cnash_bench::report::{Gate, Report};
use cnash_bench::Cli;
use cnash_core::{CNashConfig, CNashSolver};
use cnash_game::generators::random_integer_game;
use cnash_qubo::annealer::{anneal, anneal_incremental, AnnealParams};
use cnash_qubo::Qubo;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Instant;

/// Records one grid point's full and delta timings; returns whether the
/// two paths agreed bitwise.
fn record_point(
    report: &mut Report,
    layer: &'static str,
    case: &str,
    full_ns: f64,
    delta_ns: f64,
    equivalent: bool,
    gate: Option<Gate>,
) -> bool {
    report.record(layer, case, "full_ns_per_iter", full_ns, "ns", None);
    report.record(layer, case, "delta_ns_per_iter", delta_ns, "ns", None);
    report.record(layer, case, "speedup", full_ns / delta_ns, "x", gate);
    report.record(
        layer,
        case,
        "equivalent",
        f64::from(u8::from(equivalent)),
        "bool",
        None,
    );
    equivalent
}

/// Times the crossbar pipeline at one `n × n` game size; the 64×64
/// point carries the speedup gate.
fn bench_crossbar(
    report: &mut Report,
    n: usize,
    max_payoff: u32,
    iterations: usize,
    seed: u64,
) -> bool {
    let game = random_integer_game(n, n, max_payoff, seed).expect("valid grid point");
    let solver = CNashSolver::new(
        &game,
        CNashConfig::paper(12).with_iterations(iterations),
        seed,
    )
    .expect("integer game maps onto hardware");
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBE7C);
    let init = GridStrategyPair::random(n, n, 12, &mut rng).expect("non-empty");
    let opts = SaOptions {
        iterations,
        schedule: solver.config().schedule,
        seed,
        target_energy: None,
        record_trace: false,
        record_hits: false,
    };

    // Full path: from-scratch two-phase evaluation per proposal.
    let start = Instant::now();
    let full = simulated_annealing(
        init.clone(),
        |s| solver.evaluate(s),
        |s, r| s.neighbour(r),
        &opts,
    );
    let full_ns = start.elapsed().as_nanos() as f64 / iterations as f64;

    // Delta path: incremental evaluator, same seed and proposal stream.
    let mut evaluator = solver.delta_evaluator(init).expect("geometry matches");
    let start = Instant::now();
    let delta = simulated_annealing_delta(&mut evaluator, &opts);
    let delta_ns = start.elapsed().as_nanos() as f64 / iterations as f64;

    // Equivalence: the incrementally maintained energy must equal a
    // from-scratch evaluation bit for bit — the delta subsystem's core
    // invariant — at the walk's final and best states.
    let equivalent = solver.evaluate(&delta.final_state) == delta.final_energy
        && solver.evaluate(&delta.best_state) == delta.best_energy;
    let _ = full.best_state;

    record_point(
        report,
        "crossbar",
        &format!("{n}x{n}-payoff{max_payoff}"),
        full_ns,
        delta_ns,
        equivalent,
        (n == 64).then_some(Gate::AtLeast(1.0)),
    )
}

/// Times the QUBO annealer at one variable count / coupling density.
fn bench_qubo(report: &mut Report, vars: usize, density: f64, sweeps: usize, seed: u64) -> bool {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut qubo = Qubo::new(vars);
    for i in 0..vars {
        qubo.add_linear(i, rng.random_range(-5..=5i64) as f64);
        for j in i + 1..vars {
            if rng.random::<f64>() < density {
                qubo.add_coupling(i, j, rng.random_range(-3..=3i64) as f64);
            }
        }
    }
    let params = AnnealParams::new(sweeps, 10.0, 0.05);
    let proposals = sweeps * vars;

    let start = Instant::now();
    let full = anneal(&qubo, &params, seed);
    let full_ns = start.elapsed().as_nanos() as f64 / proposals as f64;

    let start = Instant::now();
    let inc = anneal_incremental(&qubo, &params, seed);
    let delta_ns = start.elapsed().as_nanos() as f64 / proposals as f64;

    // Integer couplings are exact in f64: the two paths must agree
    // bitwise, not approximately.
    let equivalent = full == inc;

    let case = format!("{vars}v-density{density}");
    record_point(report, "qubo", &case, full_ns, delta_ns, equivalent, None)
}

/// `(actions per side, max payoff, SA iterations)` crossbar grid points.
type CrossbarGrid = Vec<(usize, u32, usize)>;
/// `(variables, coupling density, sweeps)` QUBO grid points.
type QuboGrid = Vec<(usize, f64, usize)>;

fn main() {
    let cli = Cli::parse_for(&["--quick", "--seed", "--out"]);
    let seed = cli.seed;

    // The 64×64 crossbar point is the acceptance gate and belongs to
    // every grid, quick or full.
    let (crossbar_grid, qubo_grid): (CrossbarGrid, QuboGrid) = if cli.quick {
        (
            vec![(8, 3, 2000), (64, 3, 400)],
            vec![(64, 1.0, 200), (128, 1.0, 100)],
        )
    } else {
        (
            vec![
                (8, 3, 4000),
                (16, 3, 3000),
                (32, 3, 1500),
                (64, 3, 800),
                (32, 8, 1500),
                (64, 8, 800),
            ],
            vec![
                (32, 0.25, 600),
                (32, 1.0, 600),
                (64, 1.0, 300),
                (128, 0.25, 150),
                (128, 1.0, 150),
            ],
        )
    };

    let mut report = Report::new(
        "sa_hotpath",
        "SA hot path: full re-evaluation vs incremental delta energy",
        &cli,
    );
    let mut equivalent = true;
    for &(n, payoff, iters) in &crossbar_grid {
        eprintln!("measuring bicrossbar {n}x{n} (payoff scale {payoff}, {iters} iters)...");
        equivalent &= bench_crossbar(&mut report, n, payoff, iters, seed);
    }
    for &(vars, density, sweeps) in &qubo_grid {
        eprintln!("measuring qubo {vars} vars (density {density}, {sweeps} sweeps)...");
        equivalent &= bench_qubo(&mut report, vars, density, sweeps, seed);
    }
    report.write();
    if !equivalent {
        fail("delta path diverged from full evaluation");
    }
    report.enforce_gates();
}
