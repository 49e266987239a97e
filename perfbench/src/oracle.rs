//! `oracle_sweep`: in-process ground-truth certification over a seeded
//! six-family × size grid, fanned over the runtime pool. Every game goes
//! through support enumeration, Lemke–Howson from every label and the
//! exact-rational enumeration, with the one-way agreement checks of the
//! repository's differential checker:
//!
//! * every Lemke–Howson equilibrium verifies and is in the enumerated set;
//! * every exact equilibrium verifies in `f64`;
//! * every float equilibrium is explained by the exact set (profile
//!   match, containment in an exact continuum class, or exact regret
//!   within the claim tolerance).

use crate::common::{nproc, timed_setup, Ctx, Digest, Measured};
use crate::gen::{self, ORACLE_PASS};
use crate::trace::Span;
use cnash_bench::diffcheck::{CLAIM_TOL, CLASS_TOL, MATCH_TOL, ORACLE_TOL, SUPPORT_TOL};
use cnash_core::certificate::Certificate;
use cnash_core::timing::tts99;
use cnash_core::{CNashConfig, CNashSolver};
use cnash_exact::Rat;
use cnash_game::equilibrium::continuum_representatives;
use cnash_game::exact_enum::{enumerate_exact, exact_profile_regret};
use cnash_game::lemke_howson::lemke_howson_all_labels;
use cnash_game::support_enum::enumerate_equilibria;
use cnash_game::{BimatrixGame, Equilibrium};
use cnash_runtime::pool::fan_out_ordered;
use cnash_runtime::report::game_report_json;
use cnash_runtime::spec::GameSpec;
use cnash_runtime::{BatchRunner, CancelToken};
use std::ops::ControlFlow;
use std::time::Instant;

/// Grid games that C-Nash is scored on after the clock.
pub const QUALITY_GAMES: usize = 24;
/// C-Nash runs per quality game.
pub const QUALITY_RUNS: usize = 16;
/// SA iterations of a quality run.
pub const QUALITY_ITERATIONS: usize = 1000;

/// One certified grid point.
struct Certified {
    latency_ms: f64,
    ok: bool,
    /// The oracle sets, for the digest.
    record: String,
    truth: Vec<Equilibrium>,
}

fn profile(eq: &Equilibrium) -> String {
    format!("{:?}|{:?}", eq.row.probs(), eq.col.probs())
}

fn certify(game: &BimatrixGame, req: u64, ctx: &Ctx) -> Certified {
    let tracer = ctx.tracer;
    let start = Instant::now();
    let mut at = start;
    let mut lap = |name: &'static str| {
        let now = Instant::now();
        tracer.record(Span {
            name,
            start_ns: tracer.ns_at(at),
            end_ns: tracer.ns_at(now),
            parent: None,
            req,
            count: 1,
        });
        at = now;
    };
    let truth = enumerate_equilibria(game, 1e-9);
    lap("game.support_enum");
    let lh = lemke_howson_all_labels(game);
    lap("game.lemke_howson");
    let exact = enumerate_exact(game);
    lap("exact.enum");

    let lh_ok = lh.iter().all(|eq| {
        Certificate::build(game, eq.row.clone(), eq.col.clone(), ORACLE_TOL)
            .is_ok_and(|c| c.is_valid())
            && truth.iter().any(|t| t.same_profile(eq, 1e-5))
    });
    let converted: Option<Vec<Equilibrium>> =
        exact.iter().map(|e| e.to_equilibrium(game).ok()).collect();
    let exact_ok = converted.as_ref().is_some_and(|c| {
        c.iter()
            .all(|eq| game.is_equilibrium(&eq.row, &eq.col, CLAIM_TOL))
    });
    let explained = converted.as_ref().is_some_and(|c| {
        let Ok(classes) = continuum_representatives(game, c, CLASS_TOL) else {
            return false;
        };
        let bound = Rat::from_f64(CLAIM_TOL).expect("tolerance is finite");
        truth.iter().all(|t| {
            c.iter().any(|e| t.same_profile(e, MATCH_TOL))
                || classes
                    .iter()
                    .any(|cl| cl.contains_profile(&t.row, &t.col, SUPPORT_TOL))
                || exact_profile_regret(game, &t.row, &t.col) <= bound
        })
    });
    lap("oracle.checks");
    let mut record = String::new();
    for (tag, set) in [("float", &truth), ("lh", &lh)] {
        record.push_str(tag);
        for eq in set.iter() {
            record.push_str(&profile(eq));
        }
    }
    record.push_str("exact");
    for e in &exact {
        let side = |v: &[Rat]| {
            v.iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(",")
        };
        record.push_str(&format!("{}|{}|{}", side(&e.row), side(&e.col), e.singular));
    }
    Certified {
        latency_ms: start.elapsed().as_secs_f64() * 1e3,
        ok: !truth.is_empty() && lh_ok && exact_ok && explained,
        record,
        truth,
    }
}

/// Set-up: the grid's games built, and the C-Nash silicon of the
/// quality games programmed.
struct Prepared {
    games: Vec<BimatrixGame>,
    solvers: Vec<CNashSolver>,
}

fn prepare(ctx: &Ctx) -> Prepared {
    let games: Vec<BimatrixGame> = gen::oracle_grid(ctx.seed)
        .iter()
        .map(|spec| {
            ctx.tracer
                .time("game.build", None, 0, 1, || spec.build())
                .expect("grid games build")
        })
        .collect();
    let cfg = CNashConfig::paper(12).with_iterations(QUALITY_ITERATIONS);
    let solvers = games[..QUALITY_GAMES]
        .iter()
        .map(|g| CNashSolver::new(g, cfg, 1).expect("grid games map"))
        .collect();
    Prepared { games, solvers }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Measured {
    let (prepared, setup_s) = timed_setup(ctx.setups, || prepare(ctx), drop);
    let threads = nproc();
    let cancel = CancelToken::new();
    let mut m = Measured {
        setup_s,
        ..Measured::default()
    };
    let mut digest = Digest::default();
    let mut first_truths: Vec<Vec<Equilibrium>> = Vec::new();
    let mut first_records: Vec<String> = Vec::new();
    let games = &prepared.games;
    let start = Instant::now();
    let mut pass = 0u64;
    loop {
        let mut out_of_time = false;
        fan_out_ordered(
            games.len(),
            threads,
            &cancel,
            |i| certify(&games[i], pass * ORACLE_PASS as u64 + i as u64, ctx),
            |i, c: Certified| {
                m.attempted += 1;
                // Every pass certifies the same grid: later passes must
                // reproduce the first one's oracle sets exactly.
                let repeats = if pass == 0 {
                    digest.add(&c.record);
                    first_records.push(c.record);
                    first_truths.push(c.truth);
                    true
                } else {
                    c.record == first_records[i]
                };
                if !c.ok || !repeats {
                    m.failed += 1;
                }
                m.latencies_ms.push(c.latency_ms);
                if pass > 0 && start.elapsed().as_secs_f64() >= ctx.seconds {
                    out_of_time = true;
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            },
        );
        pass += 1;
        if out_of_time || start.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
    }
    let end = Instant::now();
    m.ops_per_s = m.attempted as f64 / end.duration_since(start).as_secs_f64();
    m.latency_window = Some((start, end));
    m.rate_window = Some((start, end));

    // C-Nash quality on the certified games, after the clock.
    let (mut successes, mut runs, mut run_time) = (0.0, 0.0, 0.0);
    for (i, solver) in prepared.solvers.iter().enumerate() {
        let out = BatchRunner::new(QUALITY_RUNS, i as u64 * 1000)
            .threads(threads)
            .evaluate(solver, &first_truths[i]);
        let r = &out.report;
        digest.add(&game_report_json(r).compact());
        successes += r.success_rate / 100.0 * r.runs as f64;
        runs += r.runs as f64;
        run_time += r.mean_run_time * r.runs as f64;
    }
    let p = successes / runs;
    m.success_pct = 100.0 * p;
    m.sim_tts99_us = tts99(run_time / runs, p) * 1e6;
    m.digest = digest.value();
    m.probe_games = gen::oracle_grid(ctx.seed)
        .into_iter()
        .take(4)
        .collect::<Vec<GameSpec>>();
    if let (Some(s), Some(l), Some(e)) = (
        ctx.tracer.sum_ns("game.support_enum"),
        ctx.tracer.sum_ns("game.lemke_howson"),
        ctx.tracer.sum_ns("exact.enum"),
    ) {
        ctx.tracer.set("exact.share", e / (s + l + e));
    }
    m
}
