//! Telemetry overhead harness: the recorder must be (nearly) free.
//!
//! `cargo run --release -p cnash-bench --bin telemetry_bench -- \
//!      [--quick] [--seed S] [--out PATH]`
//!
//! Boots an in-process solver daemon, warms the instance cache with one
//! cold 64×64 solve, then replays the *identical* cache-hit request in
//! ABBA quads: telemetry on, off, off, on (or the mirror order,
//! alternating), switched with `cnash_telemetry::set_enabled`. Each quad
//! gives one ratio of summed server-reported `wall_ms`, enabled over
//! disabled, and the gate reads the median ratio. A quad lasts about
//! 0.2 s and both modes share its midpoint, so a shared host's speed
//! swings, which last from under a second to minutes, scale both halves
//! alike and cancel in the ratio; the median discards the quads a slow
//! spell starts or ends inside.
//!
//! The harness also proves the observability contract along the way:
//! the deterministic payload of every response (timing fields stripped)
//! must be byte-identical whichever mode produced it — telemetry that
//! changed a solver answer is a correctness bug, not an overhead
//! problem.
//!
//! Writes `BENCH_telemetry.json` in the shared BENCH schema
//! (`cnash_bench::report`). Exit status doubles as the CI gate:
//!
//! * exit 2 — protocol error, a repeat request missed the cache, or an
//!   on/off response diverged (telemetry touched solver output),
//! * exit 1 — the median enabled/disabled quad ratio exceeds 1 by more
//!   than the 5% gate on the 64×64 cache-hit path,
//! * exit 0 — measurements recorded.

use cnash_bench::client::{
    cache_hit, fail, normalise_response, solve_request, timed_solve, ServiceConn,
};
use cnash_bench::report::{Gate, Report};
use cnash_bench::Cli;
use cnash_runtime::Json;
use cnash_service::{serve, ServiceConfig};

/// The gate: enabled-vs-disabled overhead on the 64×64 cache-hit
/// service path must stay under this fraction.
const GATE_OVERHEAD: f64 = 0.05;
const GATE_SIZE: usize = 64;
const ITERATIONS: usize = 300;
/// Telemetry modes of one quad, and of its mirror.
const ABBA: [bool; 4] = [true, false, false, true];
const BAAB: [bool; 4] = [false, true, true, false];

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

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    let mid = samples.len() / 2;
    if samples.len().is_multiple_of(2) {
        (samples[mid - 1] + samples[mid]) / 2.0
    } else {
        samples[mid]
    }
}

fn main() {
    let cli = Cli::parse_for(&["--quick", "--seed", "--out"]);
    // On a shared 2-vCPU host one quad's ratio has an interquartile
    // range of about 0.9–1.15; over 20 runs the median of 100 quads
    // stayed within 2.1 % of 1.
    let quads: usize = if cli.quick { 100 } else { 200 };

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

    eprintln!("measuring {GATE_SIZE}x{GATE_SIZE} cache-hit path, {quads} on/off quads...");
    let (mut ratios, mut on_ms, mut off_ms) = (Vec::new(), Vec::new(), Vec::new());
    for quad in 0..quads {
        let (mut on, mut off) = (0.0, 0.0);
        for enabled in if quad.is_multiple_of(2) { ABBA } else { BAAB } {
            cnash_telemetry::set_enabled(enabled);
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
            if enabled {
                on += wall;
                on_ms.push(wall);
            } else {
                off += wall;
                off_ms.push(wall);
            }
        }
        ratios.push(on / off);
    }
    cnash_telemetry::set_enabled(true);
    let _ = conn.round_trip(r#"{"op":"shutdown"}"#);
    handle.join();

    // Negative overheads are measurement noise, not a time machine.
    let overhead = (median(&mut ratios) - 1.0).max(0.0);
    let mut report = Report::new(
        "telemetry",
        "Telemetry recorder overhead on the cache-hit service path",
        &cli,
    );
    let case = format!("{GATE_SIZE}x{GATE_SIZE}-cache-hit");
    let on_p50 = median(&mut on_ms);
    let off_p50 = median(&mut off_ms);
    report.record("telemetry", &case, "quads", quads as f64, "count", None);
    report.record("telemetry", &case, "enabled_ms_p50", on_p50, "ms", None);
    report.record("telemetry", &case, "disabled_ms_p50", off_p50, "ms", None);
    let gate = Some(Gate::AtMost(GATE_OVERHEAD));
    report.record("telemetry", &case, "overhead", overhead, "ratio", gate);
    report.write();
    report.enforce_gates();
}
