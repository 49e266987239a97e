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
//! Emits `BENCH_sa_hotpath.json` (schema documented in the README,
//! written with `cnash-runtime`'s JSON writer so it parses with the same
//! tooling as the runtime's report JSON). Exit status doubles as the CI
//! regression gate:
//!
//! * exit 2 — equivalence check failed (the delta path diverged from
//!   full evaluation, a correctness bug),
//! * exit 1 — delta speedup at the 64×64 crossbar point fell below 1.0×
//!   (the incremental subsystem regressed into a slowdown),
//! * exit 0 — measurements recorded.

use cnash_anneal::delta::simulated_annealing_delta;
use cnash_anneal::engine::{simulated_annealing, SaOptions};
use cnash_anneal::moves::GridStrategyPair;
use cnash_bench::Cli;
use cnash_core::report::render_table;
use cnash_core::{CNashConfig, CNashSolver};
use cnash_game::generators::random_integer_game;
use cnash_qubo::annealer::{anneal, anneal_incremental, AnnealParams};
use cnash_qubo::Qubo;
use cnash_runtime::Json;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Instant;

/// One measured grid point.
struct Entry {
    kind: &'static str,
    label: String,
    size: usize,
    density: f64,
    iterations: usize,
    full_ns_per_iter: f64,
    delta_ns_per_iter: f64,
    equivalent: bool,
}

impl Entry {
    fn speedup(&self) -> f64 {
        self.full_ns_per_iter / self.delta_ns_per_iter
    }

    fn json(&self) -> Json {
        Json::obj([
            ("kind", Json::str(self.kind)),
            ("label", Json::str(self.label.clone())),
            ("size", Json::num(self.size as f64)),
            ("density", Json::Num(self.density)),
            ("iterations", Json::num(self.iterations as f64)),
            ("full_ns_per_iter", Json::Num(self.full_ns_per_iter)),
            ("delta_ns_per_iter", Json::Num(self.delta_ns_per_iter)),
            ("speedup", Json::Num(self.speedup())),
            ("equivalent", Json::Bool(self.equivalent)),
        ])
    }
}

/// Times the crossbar pipeline at one `n × n` game size.
fn bench_crossbar(n: usize, max_payoff: u32, iterations: usize, seed: u64) -> Entry {
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

    Entry {
        kind: "bicrossbar",
        label: format!("bicrossbar-{n}x{n}-payoff{max_payoff}"),
        size: n,
        density: f64::from(max_payoff),
        iterations,
        full_ns_per_iter: full_ns,
        delta_ns_per_iter: delta_ns,
        equivalent,
    }
}

/// Times the QUBO annealer at one variable count / coupling density.
fn bench_qubo(vars: usize, density: f64, sweeps: usize, seed: u64) -> Entry {
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

    Entry {
        kind: "qubo",
        label: format!("qubo-{vars}v-density{density}"),
        size: vars,
        density,
        iterations: proposals,
        full_ns_per_iter: full_ns,
        delta_ns_per_iter: delta_ns,
        equivalent,
    }
}

fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, count) = values.fold((0.0, 0usize), |(s, c), v| (s + v.ln(), c + 1));
    if count == 0 {
        f64::NAN
    } else {
        (sum / count as f64).exp()
    }
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

    let mut entries = Vec::new();
    for &(n, payoff, iters) in &crossbar_grid {
        eprintln!("measuring bicrossbar {n}x{n} (payoff scale {payoff}, {iters} iters)...");
        entries.push(bench_crossbar(n, payoff, iters, seed));
    }
    for &(vars, density, sweeps) in &qubo_grid {
        eprintln!("measuring qubo {vars} vars (density {density}, {sweeps} sweeps)...");
        entries.push(bench_qubo(vars, density, sweeps, seed));
    }

    let rows: Vec<Vec<String>> = entries
        .iter()
        .map(|e| {
            vec![
                e.label.clone(),
                format!("{:.0}", e.full_ns_per_iter),
                format!("{:.0}", e.delta_ns_per_iter),
                format!("{:.2}x", e.speedup()),
                if e.equivalent { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "SA hot path: full re-evaluation vs incremental delta energy",
            &[
                "case",
                "full ns/iter",
                "delta ns/iter",
                "speedup",
                "equivalent"
            ],
            &rows,
        )
    );

    let gate = entries
        .iter()
        .find(|e| e.kind == "bicrossbar" && e.size == 64)
        .map(Entry::speedup);
    let summary = Json::obj([
        (
            "speedup_min",
            Json::Num(
                entries
                    .iter()
                    .map(Entry::speedup)
                    .fold(f64::INFINITY, f64::min),
            ),
        ),
        (
            "speedup_geomean",
            Json::Num(geomean(entries.iter().map(Entry::speedup))),
        ),
        ("speedup_64x64", gate.map(Json::Num).unwrap_or(Json::Null)),
    ]);
    let doc = Json::obj([
        ("bench", Json::str("sa_hotpath")),
        ("schema_version", Json::num(1.0)),
        ("mode", Json::str(if cli.quick { "quick" } else { "full" })),
        ("seed", Json::num(seed as f64)),
        (
            "entries",
            Json::Arr(entries.iter().map(Entry::json).collect()),
        ),
        ("summary", summary),
    ]);

    let out_path = cli.out.as_deref().unwrap_or("BENCH_sa_hotpath.json");
    if let Err(e) = std::fs::write(out_path, doc.pretty()) {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(2);
    }
    println!("wrote {out_path}");

    if entries.iter().any(|e| !e.equivalent) {
        eprintln!("FAIL: delta path diverged from full evaluation");
        std::process::exit(2);
    }
    match gate {
        Some(s) if s < 1.0 => {
            eprintln!("FAIL: 64x64 delta speedup {s:.2}x < 1.0x — hot-path regression");
            std::process::exit(1);
        }
        Some(s) => println!("64x64 hot-path speedup: {s:.2}x (gate: >= 1.0x)"),
        None => println!("note: no 64x64 crossbar point in this grid"),
    }
}
