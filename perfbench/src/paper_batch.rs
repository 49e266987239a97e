//! `paper_batch`: the Table 1 / Figs. 8–10 evaluation in-process — the
//! three paper games × {C-Nash paper preset at the reduced budget,
//! D-Wave 2000Q6, Advantage 4.1}, a fixed number of runs per pair on
//! `BatchRunner` at one thread per core, swept again and again until
//! the measurement time is over.

use crate::common::{nproc, timed_setup, Ctx, Digest, Hot, Measured, Timed};
use crate::gen::paper_seeds;
use cnash_core::baselines::DWaveNashSolver;
use cnash_core::timing::tts99;
use cnash_core::{CNashConfig, CNashSolver, NashSolver};
use cnash_game::games::paper_benchmarks;
use cnash_game::support_enum::enumerate_equilibria;
use cnash_game::{BimatrixGame, Equilibrium};
use cnash_qubo::dwave::DWaveModel;
use cnash_runtime::report::game_report_json;
use cnash_runtime::spec::GameSpec;
use cnash_runtime::BatchRunner;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Runs per (game, solver) pair in one sweep.
pub const RUNS_PER_PAIR: usize = 60;
/// Sweeps whose reports make up the quality metrics and the digest;
/// they run even when the measurement time is shorter.
pub const QUALITY_SWEEPS: u64 = 4;

struct Pair {
    solver: Box<dyn NashSolver>,
    /// Span name of one run of this solver.
    span: &'static str,
    cnash: bool,
    /// Single-flip annealer proposals per run (S-QUBO solvers).
    proposals_per_run: u64,
}

struct Prepared {
    game: BimatrixGame,
    truth: Vec<Equilibrium>,
    pairs: Vec<Pair>,
}

fn prepare(hardware_seed: u64) -> Vec<Prepared> {
    paper_benchmarks()
        .into_iter()
        .map(|bench| {
            let game = bench.game;
            let truth = enumerate_equilibria(&game, 1e-9);
            // The reproduction binaries' reduced budget (`Cli::iterations`).
            let iterations = (bench.paper_iterations / 5).max(1000);
            let cfg = CNashConfig::paper(12).with_iterations(iterations);
            let cnash = CNashSolver::new(&game, cfg, hardware_seed).expect("paper games map");
            let dwave = |model| {
                let s = DWaveNashSolver::new(&game, model, 1).expect("integer payoffs");
                Pair {
                    proposals_per_run: qubo_proposals_per_run(&s),
                    solver: Box::new(s),
                    span: "qubo.run",
                    cnash: false,
                }
            };
            let pairs = vec![
                Pair {
                    solver: Box::new(cnash),
                    span: "core.run",
                    cnash: true,
                    proposals_per_run: 0,
                },
                dwave(DWaveModel::dwave_2000q()),
                dwave(DWaveModel::advantage_4_1()),
            ];
            Prepared { game, truth, pairs }
        })
        .collect()
}

/// Single-flip proposals of one S-QUBO run: every read anneals
/// `sweeps_per_read` sweeps over all variables.
pub fn qubo_proposals_per_run(s: &DWaveNashSolver) -> u64 {
    (s.reads_per_run() * s.model().sweeps_per_read * s.squbo().num_vars()) as u64
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Measured {
    let (hardware_seed, sweep_seed) = paper_seeds(ctx.seed);
    let (prepared, setup_s) = timed_setup(ctx.setups, || prepare(hardware_seed), drop);
    let tracer = ctx.tracer;
    let latencies = Mutex::new(Vec::new());
    let bad_claims = AtomicU64::new(0);
    let threads = nproc();
    let mut digest = Digest::default();
    // C-Nash quality over the quality sweeps, per game: (successes,
    // runs, simulated run-time sum).
    let mut quality = vec![(0.0f64, 0usize, 0.0f64); prepared.len()];
    let mut runs = 0u64;
    let mut proposals = 0u64;
    let hot_before = Hot::now();
    let start = Instant::now();
    let mut sweep = 0u64;
    while sweep < QUALITY_SWEEPS || start.elapsed().as_secs_f64() < ctx.seconds {
        for (g, p) in prepared.iter().enumerate() {
            for pair in &p.pairs {
                let batch = tracer.open("runtime.batch", None, sweep);
                let timed = Timed {
                    inner: pair.solver.as_ref(),
                    game: &p.game,
                    span: pair.span,
                    parent: batch,
                    req: sweep,
                    tracer,
                    latencies_ms: &latencies,
                    bad_claims: &bad_claims,
                };
                let out = BatchRunner::new(RUNS_PER_PAIR, sweep_seed(sweep))
                    .threads(threads)
                    .evaluate(&timed, &p.truth);
                tracer.close(batch);
                runs += out.executed_runs as u64;
                proposals += out.executed_runs as u64 * pair.proposals_per_run;
                if sweep < QUALITY_SWEEPS {
                    digest.add(&game_report_json(&out.report).compact());
                    if pair.cnash {
                        let r = &out.report;
                        let q = &mut quality[g];
                        q.0 += r.success_rate / 100.0 * r.runs as f64;
                        q.1 += r.runs;
                        q.2 += r.mean_run_time * r.runs as f64;
                    }
                }
            }
        }
        sweep += 1;
    }
    let end = Instant::now();
    let elapsed_s = end.duration_since(start).as_secs_f64();
    let hot_after = Hot::now();
    // Only C-Nash anneals here, so its run spans are the annealing time.
    hot_after.record_since(&hot_before, tracer.sum_ns("core.run"), tracer);
    if let Some(ns) = tracer.sum_ns("qubo.run") {
        tracer.set("qubo.ns_per_proposal", ns / proposals as f64);
    }

    let per_game: Vec<(f64, f64)> = quality
        .iter()
        .map(|&(succ, n, time)| {
            let p = succ / n as f64;
            (100.0 * p, tts99(time / n as f64, p) * 1e6)
        })
        .collect();
    let mean =
        |f: fn(&(f64, f64)) -> f64| per_game.iter().map(f).sum::<f64>() / per_game.len() as f64;
    Measured {
        setup_s,
        ops_per_s: runs as f64 / elapsed_s,
        latencies_ms: latencies.into_inner().expect("latency log poisoned"),
        latency_window: Some((start, end)),
        rate_window: Some((start, end)),
        success_pct: mean(|g| g.0),
        sim_tts99_us: mean(|g| g.1),
        attempted: runs,
        failed: bad_claims.load(Ordering::Relaxed),
        digest: digest.value(),
        probe_games: prepared
            .iter()
            .map(|p| GameSpec::from_game(&p.game))
            .collect(),
    }
}
