//! Telemetry overhead harness: the recorder must be (nearly) free.
//!
//! `cargo run --release -p cnash-bench --bin telemetry_bench -- \
//!      [--quick] [--seed S] [--out PATH]`
//!
//! Boots an in-process solver daemon, warms the instance cache with one
//! cold 64×64 solve, then replays the *identical* cache-hit request in
//! interleaved batches with telemetry enabled and disabled
//! (`cnash_telemetry::set_enabled`), comparing the minimum summed
//! server-reported `wall_ms` per batch of each mode. Interleaving (on
//! batch, off batch, on batch, …) decorrelates thermal/scheduler drift
//! from the mode; batching amortises per-request jitter (a single
//! cache hit is ~2 ms, well inside OS-scheduler noise) and the minimum
//! over many batches is the standard low-noise latency estimator.
//!
//! The harness also proves the observability contract along the way:
//! the deterministic payload of every response (timing fields stripped)
//! must be byte-identical whichever mode produced it — telemetry that
//! changed a solver answer is a correctness bug, not an overhead
//! problem.
//!
//! Emits `BENCH_telemetry.json`. Exit status doubles as the CI gate:
//!
//! * exit 2 — protocol error, a repeat request missed the cache, or an
//!   on/off response diverged (telemetry touched solver output),
//! * exit 1 — enabled-mode latency exceeds disabled-mode latency by
//!   more than the 5% gate on the 64×64 cache-hit path,
//! * exit 0 — measurements recorded.

use cnash_bench::client::{
    cache_hit, fail, normalise_response, solve_request, timed_solve, ServiceConn,
};
use cnash_bench::Cli;
use cnash_core::report::render_table;
use cnash_runtime::Json;
use cnash_service::{serve, ServiceConfig};

/// The gate: enabled-vs-disabled overhead on the 64×64 cache-hit
/// service path must stay under this fraction.
const GATE_OVERHEAD: f64 = 0.05;
const GATE_SIZE: usize = 64;
const ITERATIONS: usize = 300;
/// Cache-hit round trips summed into one timing sample.
const BATCH: usize = 8;

/// One solve round trip; returns `(cache_hit, wall_ms, stripped doc)`.
fn telemetry_solve(conn: &mut ServiceConn, request: &str) -> (bool, f64, String) {
    let (mut doc, wall) = timed_solve(conn, request);
    let hit = cache_hit(&doc);
    if let Json::Obj(map) = &mut doc {
        // cache_hit is false exactly once (the warming request);
        // everything else must be mode-independent.
        map.remove("cache_hit");
        map.remove("id");
    }
    (hit, wall, normalise_response(&doc.compact()))
}

fn min_of(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

fn mean_of(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

fn main() {
    let cli = Cli::parse_for(&["--quick", "--seed", "--out"]);
    let repeats = if cli.quick { 5 } else { 9 };

    let handle = serve(ServiceConfig {
        shards: 2,
        ..ServiceConfig::default()
    })
    .unwrap_or_else(|e| fail(&format!("cannot start in-process daemon: {e}")));
    let mut conn = ServiceConn::connect(handle.addr())
        .unwrap_or_else(|e| fail(&format!("cannot connect: {e}")));

    // Warm the cache (telemetry on — the production default).
    cnash_telemetry::set_enabled(true);
    let mut next_id = 0usize;
    next_id += 1;
    let request = solve_request(
        next_id,
        GATE_SIZE,
        ITERATIONS,
        cli.seed.wrapping_add(GATE_SIZE as u64),
        &format!("telemetry-{GATE_SIZE}x{GATE_SIZE}"),
    );
    let (hit, _, reference) = telemetry_solve(&mut conn, &request);
    if hit {
        fail("the warming request already hit the cache");
    }

    eprintln!(
        "measuring {GATE_SIZE}x{GATE_SIZE} cache-hit path, {repeats} interleaved \
         batches of {BATCH} per mode..."
    );
    let mut on_ms = Vec::new();
    let mut off_ms = Vec::new();
    for _ in 0..repeats {
        for (enabled, sink) in [(true, &mut on_ms), (false, &mut off_ms)] {
            cnash_telemetry::set_enabled(enabled);
            let mut batch_ms = 0.0;
            for _ in 0..BATCH {
                let (hit, wall, stripped) = telemetry_solve(&mut conn, &request);
                if !hit {
                    cnash_telemetry::set_enabled(true);
                    fail("a repeat request missed the cache");
                }
                if stripped != reference {
                    cnash_telemetry::set_enabled(true);
                    fail(&format!(
                        "solver output diverged with telemetry {}:\n  got: {stripped}\n  want: {reference}",
                        if enabled { "enabled" } else { "disabled" },
                    ));
                }
                batch_ms += wall;
            }
            sink.push(batch_ms);
        }
    }
    cnash_telemetry::set_enabled(true);
    let _ = conn.round_trip(r#"{"op":"shutdown"}"#);
    handle.join();

    // Per-request milliseconds, from the quietest batch of each mode.
    let on_min = min_of(&on_ms) / BATCH as f64;
    let off_min = min_of(&off_ms) / BATCH as f64;
    // Negative differences are measurement noise, not a time machine.
    let overhead = ((on_min - off_min) / off_min).max(0.0);

    let on_mean = mean_of(&on_ms) / BATCH as f64;
    let off_mean = mean_of(&off_ms) / BATCH as f64;
    println!(
        "{}",
        render_table(
            "Telemetry recorder overhead on the cache-hit service path",
            &["mode", "wall ms/req (min batch)", "wall ms/req (mean)"],
            &[
                vec![
                    "enabled".into(),
                    format!("{on_min:.3}"),
                    format!("{on_mean:.3}"),
                ],
                vec![
                    "disabled".into(),
                    format!("{off_min:.3}"),
                    format!("{off_mean:.3}"),
                ],
            ],
        )
    );

    let doc = Json::obj([
        ("bench", Json::str("telemetry")),
        ("schema_version", Json::num(1.0)),
        ("mode", Json::str(if cli.quick { "quick" } else { "full" })),
        ("seed", Json::uint(cli.seed)),
        ("size", Json::num(GATE_SIZE as f64)),
        ("iterations", Json::num(ITERATIONS as f64)),
        ("repeats", Json::num(repeats as f64)),
        ("batch", Json::num(BATCH as f64)),
        (
            "enabled_ms_per_req",
            Json::obj([("min", Json::Num(on_min)), ("mean", Json::Num(on_mean))]),
        ),
        (
            "disabled_ms_per_req",
            Json::obj([("min", Json::Num(off_min)), ("mean", Json::Num(off_mean))]),
        ),
        (
            "summary",
            Json::obj([
                ("overhead_frac", Json::Num(overhead)),
                ("gate_frac", Json::Num(GATE_OVERHEAD)),
            ]),
        ),
    ]);
    let out_path = cli.out.as_deref().unwrap_or("BENCH_telemetry.json");
    if let Err(e) = std::fs::write(out_path, doc.pretty()) {
        fail(&format!("cannot write {out_path}: {e}"));
    }
    println!("wrote {out_path}");

    if overhead > GATE_OVERHEAD {
        eprintln!(
            "FAIL: telemetry overhead {:.1}% > {:.0}% gate on the \
             {GATE_SIZE}x{GATE_SIZE} cache-hit path",
            overhead * 100.0,
            GATE_OVERHEAD * 100.0
        );
        std::process::exit(1);
    }
    println!(
        "telemetry overhead: {:.2}% (gate: <= {:.0}%)",
        overhead * 100.0,
        GATE_OVERHEAD * 100.0
    );
}
