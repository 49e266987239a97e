//! The daemon workload, `serve_hot`.
//!
//! It starts the default daemon in-process, warms its instance and
//! truth caches on a seeded hot set of small family games, then runs
//! two timed phases from at most one connection per core: an open loop
//! at a fixed rate (latency from each request's due time) and a closed
//! loop with a fixed window per connection (saturated throughput).

use crate::common::{nproc, timed_setup, Ctx, DaemonCounters, Digest, Hot, Measured};
use crate::gen;
use crate::load::{self, OpenLoop, Phase};
use crate::stats;
use crate::trace::Span;
use cnash_bench::client::{normalise_response, ServiceConn};
use cnash_core::timing::tts99;
use cnash_game::{BimatrixGame, MixedStrategy};
use cnash_runtime::spec::{GameSpec, JobSpec};
use cnash_runtime::Json;
use cnash_service::{serve, ServiceConfig, ServiceHandle};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::Duration;

/// `serve_hot` open-loop rate, requests/s: about a seventh of the
/// closed-loop throughput on two cores. At twice this rate a stretch
/// where the shared host ran a third slower pushed the daemon into
/// queueing, and p50 and p90 rose by half and by double.
pub const HOT_RATE: f64 = 150.0;
/// Requests each connection keeps in flight in `serve_hot`'s closed loop.
pub const HOT_WINDOW: usize = 8;

/// A `solve` request line.
pub fn solve_line(id: usize, job: &JobSpec, truth: &str) -> String {
    Json::obj([
        ("op", Json::str("solve")),
        ("id", Json::num(id as f64)),
        ("job", job.to_json()),
        ("ground_truth", Json::str(truth)),
    ])
    .compact()
}

/// Sends `lines` down one connection, pipelined, and checks every
/// response is `ok`.
fn pipeline(addr: SocketAddr, lines: &[String]) -> Result<Vec<String>, String> {
    let mut conn = ServiceConn::connect(addr).map_err(|e| e.to_string())?;
    for l in lines {
        conn.send_line(l).map_err(|e| e.to_string())?;
    }
    conn.finish_writes();
    let mut out = Vec::new();
    while let Some(line) = conn.recv_line().map_err(|e| e.to_string())? {
        if !response_ok(&line) {
            return Err(format!("set-up request failed: {line}"));
        }
        out.push(line);
    }
    if out.len() != lines.len() {
        return Err(format!("{} of {} set-up responses", out.len(), lines.len()));
    }
    Ok(out)
}

/// A closed-loop reply is `ok` and echoes its request's id. Replies
/// number tens of thousands, so this checks substrings, not a parse.
fn reply_ok(r: &load::Reply) -> bool {
    let id = format!("\"id\":{}", r.req);
    r.line.contains("\"ok\":true")
        && (r.line.contains(&format!("{id},")) || r.line.contains(&format!("{id}}}")))
}

fn response_ok(line: &str) -> bool {
    Json::parse(line)
        .ok()
        .and_then(|d| d.get("ok").ok().and_then(|v| v.as_bool().ok()))
        .unwrap_or(false)
}

fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(1);
}

/// Per-request verification hook: `(request index, parsed response)`.
type Verify<'a> = dyn Fn(usize, &Json) -> bool + 'a;

/// What the two timed phases produced.
struct Phases {
    open: Phase,
    closed: Phase,
}

fn run_phases(
    ctx: &Ctx,
    addr: SocketAddr,
    open_lines: &[String],
    closed_line: &dyn Fn(usize) -> String,
) -> Phases {
    let conns = nproc();
    let tracer = ctx.tracer;
    let counters_before = DaemonCounters::fetch(addr).unwrap_or_else(|e| fail(&e));
    let hot_before = Hot::now();
    let shape = OpenLoop {
        rate: HOT_RATE,
        conns,
        stall: None,
    };
    let open = load::open_loop(addr, shape, open_lines).unwrap_or_else(|e| fail(&e.to_string()));
    let half = Duration::from_secs_f64(ctx.seconds / 2.0);
    let closed = load::closed_loop(addr, conns, HOT_WINDOW, half, closed_line, &reply_ok)
        .unwrap_or_else(|e| fail(&e.to_string()));
    let hot_after = Hot::now();
    let counters_after = DaemonCounters::fetch(addr).unwrap_or_else(|e| fail(&e));
    counters_after.record_since(&counters_before, tracer);
    // Every pool task in the daemon is one C-Nash run.
    hot_after.record_since(
        &hot_before,
        Some(hot_after.task_ns_since(&hot_before) as f64),
        tracer,
    );
    Phases { open, closed }
}

/// Folds the phases into the workload result: checks, latencies,
/// quality, digest and the client-side layer values.
fn summarise(ctx: &Ctx, phases: &Phases, verify: &Verify) -> Measured {
    let tracer = ctx.tracer;
    let mut m = Measured::default();
    let mut digest = Digest::default();
    let (mut successes, mut runs, mut run_time) = (0.0, 0.0, 0.0);
    let mut wire_ms = Vec::new();
    let mut replies: Vec<&load::Reply> = phases.open.replies.iter().collect();
    replies.sort_by_key(|r| r.req);
    for r in &replies {
        let doc = tracer.time("json.parse", None, r.req as u64, 1, || Json::parse(&r.line));
        tracer.record(Span {
            name: "client.request",
            start_ns: tracer.ns_at(r.sent),
            end_ns: tracer.ns_at(r.recv),
            parent: None,
            req: r.req as u64,
            count: 1,
        });
        let ok = doc.as_ref().is_ok_and(|d| {
            d.get("ok").ok().and_then(|v| v.as_bool().ok()) == Some(true)
                && d.get("id").ok().and_then(|v| v.as_usize().ok()) == Some(r.req)
                && verify(r.req, d)
        });
        if !ok {
            m.failed += 1;
            eprintln!("perfbench: bad reply to request {}: {:.300}", r.req, r.line);
            continue;
        }
        let doc = doc.expect("checked above");
        m.latencies_ms.push(r.due_ms());
        digest.add(&normalise_response(&r.line));
        if let Some(wall) = doc.get("wall_ms").ok().and_then(|v| v.as_f64().ok()) {
            wire_ms.push(r.sent_ms() - wall);
        }
        if let Ok(report) = doc.get("report") {
            let field = |k: &str| {
                report
                    .get(k)
                    .ok()
                    .and_then(|v| v.as_f64().ok())
                    .unwrap_or(0.0)
            };
            let n = field("runs");
            successes += field("success_rate_pct") / 100.0 * n;
            runs += n;
            run_time += field("mean_run_time_s") * n;
        }
    }
    m.attempted = (phases.open.sent + phases.closed.sent) as u64;
    m.failed += (phases.open.dropped + phases.closed.dropped + phases.closed.rejected) as u64;
    let start = phases.closed.start.expect("closed phase ran");
    let done: Vec<f64> = phases
        .closed
        .replies
        .iter()
        .map(|r| r.recv.duration_since(start).as_secs_f64())
        .collect();
    m.ops_per_s = stats::rate_within(&done, ctx.seconds / 2.0);
    m.latency_window = phases.open.start.zip(phases.open.end);
    m.rate_window = phases.closed.start.zip(phases.closed.end);
    let p = successes / runs.max(1.0);
    m.success_pct = 100.0 * p;
    m.sim_tts99_us = tts99(run_time / runs.max(1.0), p) * 1e6;
    m.digest = digest.value();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    tracer.set("server.wire_us", 1e3 * mean(&wire_ms));
    let late: Vec<f64> = phases
        .open
        .replies
        .iter()
        .map(load::Reply::late_ms)
        .collect();
    tracer.set("client.late_ms", mean(&late));
    m
}

/// Checks a response's reported equilibria against the game.
fn equilibria_hold(game: &BimatrixGame, doc: &Json) -> bool {
    let Ok(found) = doc
        .get("report")
        .and_then(|r| r.get("distinct_found"))
        .and_then(|f| f.as_arr().map(<[Json]>::to_vec))
    else {
        return false;
    };
    let strategy = |eq: &Json, side: &str| -> Option<MixedStrategy> {
        let probs: Vec<f64> = eq
            .get(side)
            .ok()?
            .as_arr()
            .ok()?
            .iter()
            .map(|p| p.as_f64().ok())
            .collect::<Option<_>>()?;
        MixedStrategy::new(probs).ok()
    };
    found
        .iter()
        .all(|eq| match (strategy(eq, "row"), strategy(eq, "col")) {
            (Some(p), Some(q)) => {
                p.len() == game.row_actions()
                    && q.len() == game.col_actions()
                    && game.is_equilibrium(&p, &q, 1e-6)
            }
            _ => false,
        })
}

fn build(spec: &GameSpec) -> BimatrixGame {
    spec.build().unwrap_or_else(|e| fail(&e.message))
}

/// Runs `serve_hot`.
pub fn run_hot(ctx: &Ctx) -> Measured {
    let (warm, stream) = gen::hot_requests(ctx.seed);
    let warm_lines: Vec<String> = warm
        .iter()
        .enumerate()
        .map(|(i, j)| solve_line(i, j, "enumerate"))
        .collect();
    let (daemon, setup_s) = timed_setup(
        ctx.setups,
        || {
            let handle = serve(ServiceConfig::default()).unwrap_or_else(|e| fail(&e.to_string()));
            pipeline(handle.addr(), &warm_lines).unwrap_or_else(|e| fail(&e));
            handle
        },
        ServiceHandle::stop,
    );
    let addr = daemon.addr();
    let n = (HOT_RATE * ctx.seconds / 2.0).round().max(1.0) as usize;
    let open_lines: Vec<String> = (0..n)
        .map(|k| solve_line(k, &stream[k % stream.len()], "enumerate"))
        .collect();
    let closed_line = |k: usize| solve_line(k, &stream[k % stream.len()], "enumerate");
    let phases = run_phases(ctx, addr, &open_lines, &closed_line);
    daemon.stop();

    // Every response of the first pass over the stream is checked
    // against its game.
    let games: HashMap<String, BimatrixGame> = stream
        .iter()
        .map(|j| (j.game.to_json().compact(), build(&j.game)))
        .collect();
    let verify = |k: usize, doc: &Json| {
        k >= stream.len() || equilibria_hold(&games[&stream[k].game.to_json().compact()], doc)
    };
    let mut m = summarise(ctx, &phases, &verify);
    m.setup_s = setup_s;
    m.probe_games = warm.iter().take(4).map(|j| j.game.clone()).collect();
    m
}
