//! Service instance-cache performance harness: cold (program + solve)
//! vs cache-hit (solve only) request latency.
//!
//! `cargo run --release -p cnash-bench --bin service_bench -- \
//!      [--quick] [--seed S] [--out PATH]`
//!
//! Boots an in-process solver daemon, then measures end-to-end solve
//! requests over TCP at several game sizes: one **cold** request that
//! must program the bi-crossbar (the `O(n·m·I²·t)` device-sampling
//! mapping pass), followed by repeated **identical** requests that hit
//! the instance cache and skip programming entirely. Latencies are the
//! server-reported `wall_ms` (program + batch execution, excluding
//! network and JSON framing).
//!
//! Writes `BENCH_service.json` in the shared BENCH schema
//! (`cnash_bench::report`). Exit status doubles as the CI gate:
//!
//! * exit 2 — protocol error, or a repeat request missed the cache
//!   (a correctness bug in the canonical-hash keying),
//! * exit 1 — cache-hit solves at the 64×64 gate size are not at least
//!   1.5× faster than the cold solve (the cache stopped paying for
//!   itself),
//! * exit 0 — measurements recorded.

use cnash_bench::client::{cache_hit, fail, solve_request, timed_solve, ServiceConn};
use cnash_bench::report::{Gate, Report};
use cnash_bench::Cli;
use cnash_service::{serve, ServiceConfig};

/// The gate size: cache-hit speedup at 64×64 must stay ≥ this factor.
const GATE_SIZE: usize = 64;
const GATE_SPEEDUP: f64 = 1.5;
/// Cache-hit repeats per grid point (the minimum is reported).
const HIT_REPEATS: usize = 5;

fn main() {
    let cli = Cli::parse_for(&["--quick", "--seed", "--out"]);
    let seed = cli.seed;

    // `(size, iterations)` grid; the 64×64 gate point belongs to every
    // grid, quick or full.
    let grid: Vec<(usize, usize)> = if cli.quick {
        vec![(16, 600), (64, 250)]
    } else {
        vec![(16, 1200), (32, 600), (64, 300)]
    };

    let handle = serve(ServiceConfig {
        shards: 2,
        ..ServiceConfig::default()
    })
    .unwrap_or_else(|e| fail(&format!("cannot start in-process daemon: {e}")));
    let mut conn = ServiceConn::connect(handle.addr())
        .unwrap_or_else(|e| fail(&format!("cannot connect: {e}")));

    let mut report = Report::new(
        "service",
        "Service latency: cold (program + solve) vs instance-cache hit",
        &cli,
    );
    let mut next_id = 0usize;
    for &(size, iterations) in &grid {
        eprintln!("measuring {size}x{size} ({iterations} iters, {HIT_REPEATS} hit repeats)...");
        next_id += 1;
        let request = solve_request(
            next_id,
            size,
            iterations,
            seed.wrapping_add(size as u64),
            &format!("service-{size}x{size}"),
        );
        let (doc, cold_ms) = timed_solve(&mut conn, &request);
        if cache_hit(&doc) {
            fail(&format!(
                "first {size}x{size} request already hit the cache"
            ));
        }
        let mut hits = Vec::new();
        for _ in 0..HIT_REPEATS {
            // Identical job spec → same canonical key → must hit.
            let (doc, wall) = timed_solve(&mut conn, &request);
            if !cache_hit(&doc) {
                fail(&format!("repeat {size}x{size} request missed the cache"));
            }
            hits.push(wall);
        }
        let hit_ms_min = hits.iter().copied().fold(f64::INFINITY, f64::min);
        let hit_ms_mean = hits.iter().sum::<f64>() / hits.len() as f64;
        let case = format!("{size}x{size}");
        let gate = (size == GATE_SIZE).then_some(Gate::AtLeast(GATE_SPEEDUP));
        report.record("cache", &case, "cold_ms", cold_ms, "ms", None);
        report.record("cache", &case, "hit_ms_min", hit_ms_min, "ms", None);
        report.record("cache", &case, "hit_ms_mean", hit_ms_mean, "ms", None);
        report.record("cache", &case, "speedup", cold_ms / hit_ms_min, "x", gate);
    }
    let _ = conn.round_trip(r#"{"op":"shutdown"}"#);
    handle.join();

    report.write();
    report.enforce_gates();
}
