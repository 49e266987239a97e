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
//! Emits `BENCH_service.json` (same JSON tooling as the other
//! `BENCH_*` artefacts). Exit status doubles as the CI gate:
//!
//! * exit 2 — protocol error, or a repeat request missed the cache
//!   (a correctness bug in the canonical-hash keying),
//! * exit 1 — cache-hit solves at the 64×64 gate size are not at least
//!   1.5× faster than the cold solve (the cache stopped paying for
//!   itself),
//! * exit 0 — measurements recorded.

use cnash_bench::client::{cache_hit, fail, solve_request, timed_solve, ServiceConn};
use cnash_bench::Cli;
use cnash_core::report::render_table;
use cnash_runtime::Json;
use cnash_service::{serve, ServiceConfig};

/// The gate size: cache-hit speedup at 64×64 must stay ≥ this factor.
const GATE_SIZE: usize = 64;
const GATE_SPEEDUP: f64 = 1.5;
/// Cache-hit repeats per grid point (the minimum is reported).
const HIT_REPEATS: usize = 5;

struct Entry {
    label: String,
    size: usize,
    iterations: usize,
    cold_ms: f64,
    hit_ms_min: f64,
    hit_ms_mean: f64,
}

impl Entry {
    fn speedup(&self) -> f64 {
        self.cold_ms / self.hit_ms_min
    }

    fn json(&self) -> Json {
        Json::obj([
            ("label", Json::str(self.label.clone())),
            ("size", Json::num(self.size as f64)),
            ("iterations", Json::num(self.iterations as f64)),
            ("cold_ms", Json::Num(self.cold_ms)),
            ("hit_ms_min", Json::Num(self.hit_ms_min)),
            ("hit_ms_mean", Json::Num(self.hit_ms_mean)),
            ("speedup", Json::Num(self.speedup())),
        ])
    }
}

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

    let mut entries = Vec::new();
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
        entries.push(Entry {
            label: format!("service-{size}x{size}"),
            size,
            iterations,
            cold_ms,
            hit_ms_min,
            hit_ms_mean,
        });
    }
    let _ = conn.round_trip(r#"{"op":"shutdown"}"#);
    handle.join();

    let rows: Vec<Vec<String>> = entries
        .iter()
        .map(|e| {
            vec![
                e.label.clone(),
                format!("{:.2}", e.cold_ms),
                format!("{:.2}", e.hit_ms_min),
                format!("{:.2}", e.hit_ms_mean),
                format!("{:.2}x", e.speedup()),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Service latency: cold (program + solve) vs instance-cache hit",
            &[
                "case",
                "cold ms",
                "hit ms (min)",
                "hit ms (mean)",
                "speedup"
            ],
            &rows,
        )
    );

    let gate = entries
        .iter()
        .find(|e| e.size == GATE_SIZE)
        .map(Entry::speedup);
    let doc = Json::obj([
        ("bench", Json::str("service")),
        ("schema_version", Json::num(1.0)),
        ("mode", Json::str(if cli.quick { "quick" } else { "full" })),
        ("seed", Json::num(seed as f64)),
        (
            "entries",
            Json::Arr(entries.iter().map(Entry::json).collect()),
        ),
        (
            "summary",
            Json::obj([
                (
                    "speedup_min",
                    Json::Num(
                        entries
                            .iter()
                            .map(Entry::speedup)
                            .fold(f64::INFINITY, f64::min),
                    ),
                ),
                ("speedup_64x64", gate.map(Json::Num).unwrap_or(Json::Null)),
                ("gate_speedup", Json::Num(GATE_SPEEDUP)),
            ]),
        ),
    ]);
    let out_path = cli.out.as_deref().unwrap_or("BENCH_service.json");
    if let Err(e) = std::fs::write(out_path, doc.pretty()) {
        fail(&format!("cannot write {out_path}: {e}"));
    }
    println!("wrote {out_path}");

    match gate {
        Some(s) if s < GATE_SPEEDUP => {
            eprintln!(
                "FAIL: {GATE_SIZE}x{GATE_SIZE} cache-hit speedup {s:.2}x < {GATE_SPEEDUP}x — \
                 the instance cache no longer pays for itself"
            );
            std::process::exit(1);
        }
        Some(s) => println!(
            "{GATE_SIZE}x{GATE_SIZE} cache-hit speedup: {s:.2}x (gate: >= {GATE_SPEEDUP}x)"
        ),
        None => println!("note: no {GATE_SIZE}x{GATE_SIZE} point in this grid"),
    }
}
