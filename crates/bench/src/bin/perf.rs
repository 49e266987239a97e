//! SA hot-path performance harness: full re-evaluation vs the
//! incremental delta-energy evaluators.
//!
//! `cargo run --release -p cnash-bench --bin perf -- [--quick] [--out PATH]`
//!
//! Both sides of every point run the one annealing driver,
//! `simulated_annealing_delta`, under the same seed: the full side over
//! `FullEnergy` (a from-scratch energy per proposal), the delta side over
//! the production evaluator. Timed across a grid of game sizes and
//! payoff/coupling densities, starting at the paper's sizes:
//!
//! * **bi-crossbar**: `FullEnergy` over `CNashSolver::evaluate` (a
//!   from-scratch two-phase read, `O(n·m)`) vs
//!   `CNashSolver::delta_evaluator` (`O((n+m)·log nm)`, the path every
//!   `CNashSolver::run` takes), from 2×2 up to 64×64;
//! * **QUBO**: D-Wave-style reads (`anneal_with`: start drawn from the
//!   read's RNG, per-sweep cooling) over `FullEnergy` on `Qubo::energy`
//!   (`O(n²)` per proposal) vs `anneal_incremental` over `QuboDelta`
//!   (cached local fields, `O(1)` per proposal), on random QUBOs and on
//!   the S-QUBOs of the three paper games at both D-Wave presets' sweep
//!   counts and temperatures.
//!
//! Each side's run must be bit-identical to the other's, and the
//! crossbar walk's incremental energies must equal a from-scratch
//! evaluation at its final and best states.
//!
//! Writes `BENCH_sa_hotpath.json` in the shared BENCH schema
//! (`cnash_bench::report`). Exit status doubles as the CI regression
//! gate:
//!
//! * exit 2 — equivalence check failed (the delta side diverged from
//!   full evaluation, a correctness bug),
//! * exit 1 — delta speedup at the 64×64 crossbar point fell below 1.0×
//!   (the incremental subsystem regressed into a slowdown),
//! * exit 0 — measurements recorded.

use cnash_anneal::delta::{simulated_annealing_delta, DeltaEnergy, FullEnergy};
use cnash_anneal::engine::SaOptions;
use cnash_anneal::moves::GridStrategyPair;
use cnash_bench::client::fail;
use cnash_bench::report::{Gate, Report};
use cnash_bench::Cli;
use cnash_core::{CNashConfig, CNashSolver};
use cnash_game::games::paper_benchmarks;
use cnash_game::generators::random_integer_game;
use cnash_qubo::annealer::{anneal_incremental, anneal_with, AnnealParams};
use cnash_qubo::{DWaveModel, Qubo, SQubo, SQuboWeights};
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

    // Full side: from-scratch two-phase evaluation per proposal.
    let mut reference = FullEnergy::new(
        init.clone(),
        |s: &GridStrategyPair| solver.evaluate(s),
        |s: &GridStrategyPair, r: &mut StdRng| s.neighbour(r),
    );
    let start = Instant::now();
    let full = simulated_annealing_delta(&mut reference, &opts);
    let full_ns = start.elapsed().as_nanos() as f64 / iterations as f64;

    // Delta side: incremental evaluator, same seed and proposal stream.
    let mut evaluator = solver.delta_evaluator(init).expect("geometry matches");
    let start = Instant::now();
    let delta = simulated_annealing_delta(&mut evaluator, &opts);
    let delta_ns = start.elapsed().as_nanos() as f64 / iterations as f64;

    // Equivalence: the two walks agree bit for bit, and the
    // incrementally maintained energy equals a from-scratch evaluation
    // — the delta evaluator's core invariant — at the walk's final and
    // best states.
    let equivalent = full == delta
        && solver.evaluate(&delta.final_state) == delta.final_energy
        && solver.evaluate(&delta.best_state) == delta.best_energy;

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

/// `FullEnergy` over `Qubo::energy` at `x`, whose move flips one
/// uniformly drawn bit — the move `QuboDelta` samples.
fn full_energy(qubo: &Qubo, x: Vec<bool>) -> impl DeltaEnergy<State = Vec<bool>> + '_ {
    let flip_random_bit = |x: &Vec<bool>, rng: &mut StdRng| {
        let mut y = x.clone();
        let k = rng.random_range(0..y.len());
        y[k] = !y[k];
        y
    };
    FullEnergy::new(x, |x: &Vec<bool>| qubo.energy(x), flip_random_bit)
}

/// Times one D-Wave-style read of `qubo` on both sides.
fn bench_qubo(
    report: &mut Report,
    case: &str,
    qubo: &Qubo,
    params: &AnnealParams,
    seed: u64,
) -> bool {
    let vars = qubo.num_vars();
    let proposals = params.sweeps * vars;

    let start = Instant::now();
    let full = anneal_with(vars, params, seed, |x| full_energy(qubo, x));
    let full_ns = start.elapsed().as_nanos() as f64 / proposals as f64;

    let start = Instant::now();
    let inc = anneal_incremental(qubo, params, seed);
    let delta_ns = start.elapsed().as_nanos() as f64 / proposals as f64;

    // Integer couplings are exact in f64: the two sides must agree
    // bitwise, not approximately.
    let equivalent = full == inc;

    record_point(report, "qubo", case, full_ns, delta_ns, equivalent, None)
}

/// Times a random integer QUBO at one variable count / coupling density.
fn bench_random_qubo(
    report: &mut Report,
    vars: usize,
    density: f64,
    sweeps: usize,
    seed: u64,
) -> bool {
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
    let case = format!("{vars}v-density{density}");
    bench_qubo(report, &case, &qubo, &params, seed)
}

/// Times the S-QUBOs of the three paper games at both D-Wave presets'
/// sweep counts and temperatures (record-only).
fn bench_paper_squbos(report: &mut Report, seed: u64) -> bool {
    let mut equivalent = true;
    for bench in paper_benchmarks() {
        let squbo = SQubo::build(&bench.game, &SQuboWeights::default()).expect("integer payoffs");
        let vars = squbo.num_vars();
        let game = bench
            .game
            .name()
            .to_lowercase()
            .replace(' ', "_")
            .replace('\'', "");
        for model in [DWaveModel::dwave_2000q(), DWaveModel::advantage_4_1()] {
            let sweeps = model.sweeps_per_read;
            eprintln!("measuring {game} S-QUBO ({vars} vars, {sweeps} sweeps)...");
            let params = AnnealParams::new(sweeps, model.t_max, model.t_min);
            let case = format!("{game}-{vars}v-sweeps{sweeps}");
            equivalent &= bench_qubo(report, &case, squbo.qubo(), &params, seed);
        }
    }
    equivalent
}

/// `(actions per side, max payoff, SA iterations)` crossbar grid points.
type CrossbarGrid = Vec<(usize, u32, usize)>;
/// `(variables, coupling density, sweeps)` QUBO grid points.
type QuboGrid = Vec<(usize, f64, usize)>;

fn main() {
    let cli = Cli::parse_for(&["--quick", "--seed", "--out"]);
    let seed = cli.seed;

    // The 64×64 crossbar point is the acceptance gate and belongs to
    // every grid, quick or full; so do the paper's sizes (2×2 and 3×3
    // crossbars at the paper's BoS / Bird iteration budgets, and the
    // paper S-QUBOs), which are record-only.
    let (crossbar_grid, qubo_grid): (CrossbarGrid, QuboGrid) = if cli.quick {
        (
            vec![(2, 3, 10_000), (3, 3, 15_000), (8, 3, 2000), (64, 3, 400)],
            vec![(64, 1.0, 200), (128, 1.0, 100)],
        )
    } else {
        (
            vec![
                (2, 3, 10_000),
                (3, 3, 15_000),
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
    equivalent &= bench_paper_squbos(&mut report, seed);
    for &(vars, density, sweeps) in &qubo_grid {
        eprintln!("measuring qubo {vars} vars (density {density}, {sweeps} sweeps)...");
        equivalent &= bench_random_qubo(&mut report, vars, density, sweeps, seed);
    }
    report.write();
    if !equivalent {
        fail("delta path diverged from full evaluation");
    }
    report.enforce_gates();
}
