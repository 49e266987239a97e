//! The traced run's layer probe: calls every layer's public entry points
//! on a handful of the workload's own games, so every per-layer metric
//! has a value on every workload. Values the workload's own traced loop
//! measured take precedence over the probe's (see `main`).

use crate::common::{nproc, DaemonCounters, Hot, Timed};
use crate::gen::cnash_job;
use crate::load::{self, OpenLoop};
use crate::serve::solve_line;
use crate::trace::Tracer;
use cnash_anneal::delta::DeltaEnergy;
use cnash_anneal::moves::GridStrategyPair;
use cnash_core::baselines::DWaveNashSolver;
use cnash_core::certificate::Certificate;
use cnash_core::{CNashConfig, CNashSolver, NashSolver};
use cnash_crossbar::BiCrossbar;
use cnash_game::exact_enum::enumerate_exact;
use cnash_game::lemke_howson::lemke_howson_all_labels;
use cnash_game::support_enum::enumerate_equilibria;
use cnash_game::BimatrixGame;
use cnash_qubo::dwave::DWaveModel;
use cnash_runtime::spec::GameSpec;
use cnash_runtime::{BatchRunner, CancelToken, Json};
use cnash_service::{
    execute_solve, serve, InstanceCache, ServiceConfig, SolutionStore, TruthPolicy,
};
use cnash_wta::WtaTree;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;
use std::sync::atomic::AtomicU64;
use std::sync::Mutex;

/// Timed calls per micro-loop.
const CALLS: u64 = 2000;
/// SA iterations of a probe run.
const ITERATIONS: usize = 1000;

/// Probes every layer on `games`, recording into `tracer`. The S-QUBO
/// and exact-oracle layers only take games of at most 4 and 6 actions;
/// when the workload has none that small, the smallest paper game
/// stands in.
pub fn run(games: &[GameSpec], tracer: &Tracer, work_dir: &std::path::Path) {
    let mut games = games.to_vec();
    let small = |g: &GameSpec| {
        g.build()
            .is_ok_and(|g| g.row_actions().max(g.col_actions()) <= 4)
    };
    if !games.iter().any(small) {
        games.push(GameSpec::from_game(
            &cnash_game::games::battle_of_the_sexes(),
        ));
    }
    let cache = InstanceCache::new();
    let store_path = work_dir.join("probe_store.log");
    let _ = std::fs::remove_file(&store_path);
    let store = tracer.time("store.open", None, 0, 1, || {
        SolutionStore::open(&store_path)
    });
    let store = store.ok();
    let hot_before = Hot::now();
    for (k, spec) in games.iter().enumerate() {
        let req = k as u64;
        let Ok(game) = tracer.time("game.build", None, req, 1, || spec.build()) else {
            continue;
        };
        oracles(&game, req, tracer);
        hardware(&game, req, tracer);
        qubo(&game, req, tracer);
        service(spec, &game, req, tracer, &cache, store.as_ref());
    }
    let hot_after = Hot::now();
    hot_after.record_since(&hot_before, tracer.sum_ns("core.run"), tracer);
    drop(store);
    let _ = std::fs::remove_file(&store_path);
    daemon(&games, tracer);
}

fn oracles(game: &BimatrixGame, req: u64, tracer: &Tracer) {
    let size = game.row_actions().max(game.col_actions());
    if size > 8 {
        return;
    }
    let s = tracer.time("game.support_enum", None, req, 1, || {
        enumerate_equilibria(game, 1e-9).len()
    });
    let l = tracer.time("game.lemke_howson", None, req, 1, || {
        lemke_howson_all_labels(game).len()
    });
    if size <= 6 {
        let e = tracer.time("exact.enum", None, req, 1, || enumerate_exact(game).len());
        black_box(e);
        if let (Some(s), Some(l), Some(e)) = (
            tracer.sum_ns("game.support_enum"),
            tracer.sum_ns("game.lemke_howson"),
            tracer.sum_ns("exact.enum"),
        ) {
            tracer.set("exact.share", e / (s + l + e));
        }
    }
    black_box((s, l));
}

fn hardware(game: &BimatrixGame, req: u64, tracer: &Tracer) {
    let cfg = CNashConfig::paper(12).with_iterations(ITERATIONS);
    let Ok(_) = tracer.time("crossbar.program", None, req, 1, || {
        BiCrossbar::build(game, &cfg.crossbar, 1)
    }) else {
        return;
    };
    let (n, m) = (game.row_actions(), game.col_actions());
    let trees = tracer.time("wta.build", None, req, 2, || {
        (
            WtaTree::build(n, &cfg.wta, 2),
            WtaTree::build(m, &cfg.wta, 3),
        )
    });
    let Ok(solver) = CNashSolver::new(game, cfg, 1) else {
        return;
    };
    let mut rng = StdRng::seed_from_u64(req);
    let states: Vec<GridStrategyPair> = (0..CALLS)
        .filter_map(|_| GridStrategyPair::random(n, m, cfg.intervals, &mut rng).ok())
        .collect();
    tracer.time("crossbar.full_eval", None, req, states.len() as u64, || {
        states
            .iter()
            .map(|s| black_box(solver.evaluate(s)))
            .sum::<f64>()
    });
    let reads: Vec<Vec<f64>> = (0..CALLS)
        .map(|_| (0..n).map(|_| rng.random::<f64>()).collect())
        .collect();
    tracer.time("wta.eval", None, req, reads.len() as u64, || {
        reads
            .iter()
            .map(|r| black_box(trees.0.eval_value(r)))
            .sum::<f64>()
    });
    if let Ok(mut delta) = solver.delta_evaluator(states[0].clone()) {
        // A step samples a move from the current state, proposes it, and
        // commits or reverts it alternately, as an anneal would.
        tracer.time("crossbar.delta_step", None, req, CALLS, || {
            for i in 0..CALLS {
                let Some(mv) = delta.sample_move(&mut rng) else {
                    break;
                };
                black_box(delta.propose(mv));
                if i % 2 == 0 {
                    delta.commit();
                } else {
                    delta.revert();
                }
            }
        });
    }
    let latencies = Mutex::new(Vec::new());
    let bad = AtomicU64::new(0);
    for seed in 0..3 {
        let out = tracer.time("core.run", None, req, 1, || solver.run(seed));
        if let Some((p, q)) = out.pair() {
            tracer
                .time("core.verify", None, req, 1, || {
                    Certificate::build(game, p.clone(), q.clone(), 1e-6).map(|c| c.is_valid())
                })
                .ok();
        }
    }
    // A one-run, one-thread batch: its self time is the runtime's
    // overhead around the solver run.
    let one = tracer.open("runtime.batch_one", None, req);
    let timed = Timed {
        inner: &solver,
        game,
        span: "probe.run",
        parent: one,
        req,
        tracer,
        latencies_ms: &latencies,
        bad_claims: &bad,
    };
    BatchRunner::new(1, 7).threads(1).evaluate(&timed, &[]);
    tracer.close(one);
    let batch = tracer.open("runtime.batch", None, req);
    let timed = Timed {
        parent: batch,
        ..timed
    };
    BatchRunner::new(8, 11)
        .threads(nproc())
        .evaluate(&timed, &[]);
    tracer.close(batch);
}

fn qubo(game: &BimatrixGame, req: u64, tracer: &Tracer) {
    if game.row_actions().max(game.col_actions()) > 4 {
        return;
    }
    let Ok(solver) = DWaveNashSolver::new(game, DWaveModel::dwave_2000q(), 1) else {
        return;
    };
    let runs = 5u64;
    let start = std::time::Instant::now();
    tracer.time("qubo.run", None, req, runs, || {
        (0..runs)
            .map(|s| solver.run(s).is_equilibrium)
            .filter(|&b| b)
            .count()
    });
    let proposals = crate::paper_batch::qubo_proposals_per_run(&solver) * runs;
    tracer.set(
        "qubo.ns_per_proposal",
        start.elapsed().as_nanos() as f64 / proposals as f64,
    );
}

fn service(
    spec: &GameSpec,
    game: &BimatrixGame,
    req: u64,
    tracer: &Tracer,
    cache: &InstanceCache,
    store: Option<&SolutionStore>,
) {
    let job = cnash_job(spec.clone(), ITERATIONS, 2, req);
    let miss = tracer.time("cache.prepare_miss", None, req, 1, || {
        cache.prepare_with_game(game.clone(), &job.solver)
    });
    if miss.is_err() {
        return;
    }
    let _ = tracer.time("cache.prepare_hit", None, req, 1, || {
        cache.prepare_with_game(game.clone(), &job.solver)
    });
    let truth = if game.row_actions().max(game.col_actions()) <= 8 {
        TruthPolicy::Enumerate
    } else {
        TruthPolicy::Skip
    };
    let id = Json::num(req as f64);
    let response = tracer.time("server.execute", None, req, 1, || {
        execute_solve(cache, None, &job, truth, 1, &CancelToken::new(), &id)
    });
    let line = tracer.time("json.encode", None, req, 1, || response.compact());
    let _ = tracer.time("json.parse", None, req, 1, || Json::parse(&line));
    if let Some(store) = store {
        let key = cnash_service::solve_key(game, &job, truth);
        let _ = tracer.time("store.append", None, req, 1, || store.append(key, &line));
        tracer.time("store.lookup", None, req, 2, || {
            (store.lookup(key).is_some(), store.lookup(!key).is_some())
        });
        let stats = store.stats();
        let total = stats.hits + stats.misses;
        if total > 0 {
            tracer.set("store.hit_ratio", stats.hits as f64 / total as f64);
        }
    }
}

/// A short open-loop burst at a default daemon: the wire, scheduler and
/// connection layers.
fn daemon(games: &[GameSpec], tracer: &Tracer) {
    let Ok(handle) = serve(ServiceConfig::default()) else {
        return;
    };
    let addr = handle.addr();
    let lines: Vec<String> = (0..50)
        .map(|k| {
            let job = cnash_job(games[k % games.len()].clone(), 200, 1, k as u64);
            solve_line(k, &job, "skip")
        })
        .collect();
    let before = DaemonCounters::fetch(addr);
    let shape = OpenLoop {
        rate: 200.0,
        conns: nproc(),
        stall: None,
    };
    if let (Ok(before), Ok(phase)) = (before, load::open_loop(addr, shape, &lines)) {
        if let Ok(after) = DaemonCounters::fetch(addr) {
            after.record_since(&before, tracer);
        }
        let mean = |v: Vec<f64>| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let wire: Vec<f64> = phase
            .replies
            .iter()
            .filter_map(|r| {
                let wall = Json::parse(&r.line)
                    .ok()?
                    .get("wall_ms")
                    .ok()?
                    .as_f64()
                    .ok()?;
                Some(1e3 * (r.sent_ms() - wall))
            })
            .collect();
        tracer.set("server.wire_us", mean(wire));
        tracer.set(
            "client.late_ms",
            mean(phase.replies.iter().map(load::Reply::late_ms).collect()),
        );
    }
    handle.stop();
}
