//! Solution-store performance harness: cold solve vs disk-hit replay,
//! across a daemon restart.
//!
//! `cargo run --release -p cnash-bench --bin store_bench -- \
//!      [--quick] [--seed S] [--out PATH] [--store PATH]`
//!
//! Boots an in-process solver daemon with a persistent store attached
//! and measures, per game size: one **cold** request (program, anneal,
//! append), then repeated identical requests answered **from disk**
//! (`"cache":"disk"`, O(lookup) — no programming, no anneal). The
//! daemon is then shut down and a **second** daemon is booted on the
//! same store path: its first request per size must also be a disk hit,
//! proving the warm boot survives a restart. Every disk-served payload
//! is checked byte-identical to the cold response modulo provenance
//! (`id`, `cache`, `wall_ms`, `program_ms`).
//!
//! Latencies are the server-reported `wall_ms`. Without `--store` the
//! harness uses (and removes) a throwaway log under the system temp
//! directory; with `--store PATH` the log is yours and is kept.
//!
//! Emits `BENCH_store.json`. Exit status doubles as the CI gate:
//!
//! * exit 2 — protocol error, a repeat or post-restart request missed
//!   the store, or a disk payload diverged from the cold solve,
//! * exit 1 — disk hits at the 64×64 gate size are not at least 1.5×
//!   faster than the cold solve (the store stopped paying for itself),
//! * exit 0 — measurements recorded.

use cnash_bench::client::{fail, normalise_response, solve_request, timed_solve, ServiceConn};
use cnash_bench::Cli;
use cnash_core::report::render_table;
use cnash_runtime::Json;
use cnash_service::{serve, ServiceConfig, ServiceHandle};

/// The gate size: disk-hit speedup at 64×64 must stay ≥ this factor.
const GATE_SIZE: usize = 64;
const GATE_SPEEDUP: f64 = 1.5;
/// Disk-hit repeats per grid point (the minimum is reported).
const HIT_REPEATS: usize = 5;

struct Entry {
    label: String,
    size: usize,
    iterations: usize,
    cold_ms: f64,
    disk_ms_min: f64,
    disk_ms_mean: f64,
    /// First-request latency against the restarted daemon (a warm-boot
    /// disk hit).
    warm_ms: f64,
    /// The cold payload normalised modulo provenance — what every disk
    /// hit must replay byte-identically.
    normalised: String,
}

impl Entry {
    fn speedup(&self) -> f64 {
        self.cold_ms / self.disk_ms_min
    }

    fn json(&self) -> Json {
        Json::obj([
            ("label", Json::str(self.label.clone())),
            ("size", Json::num(self.size as f64)),
            ("iterations", Json::num(self.iterations as f64)),
            ("cold_ms", Json::Num(self.cold_ms)),
            ("disk_ms_min", Json::Num(self.disk_ms_min)),
            ("disk_ms_mean", Json::Num(self.disk_ms_mean)),
            ("warm_restart_ms", Json::Num(self.warm_ms)),
            ("speedup", Json::Num(self.speedup())),
        ])
    }
}

/// One solve round trip; returns `(from_disk, wall_ms, normalised)`,
/// where `normalised` drops the per-call provenance (`id`, `cache`,
/// timing) so a disk replay can be compared byte-for-byte against the
/// cold solve.
fn store_solve(conn: &mut ServiceConn, request: &str) -> (bool, f64, String) {
    let (mut doc, wall) = timed_solve(conn, request);
    let from_disk = doc.get("cache").and_then(Json::as_str).ok() == Some("disk");
    if let Json::Obj(map) = &mut doc {
        map.remove("id");
    }
    (from_disk, wall, normalise_response(&doc.compact()))
}

fn boot(store_path: &str) -> (ServiceHandle, ServiceConn) {
    let handle = serve(ServiceConfig {
        shards: 2,
        store_path: Some(store_path.to_string()),
        ..ServiceConfig::default()
    })
    .unwrap_or_else(|e| fail(&format!("cannot start in-process daemon: {e}")));
    let conn = ServiceConn::connect(handle.addr())
        .unwrap_or_else(|e| fail(&format!("cannot connect: {e}")));
    (handle, conn)
}

fn main() {
    let cli = Cli::parse_for(&["--quick", "--seed", "--out", "--store"]);
    let seed = cli.seed;
    let (store_path, throwaway) = match cli.store.clone() {
        Some(path) => (path, false),
        None => {
            let path =
                std::env::temp_dir().join(format!("cnash-store-bench-{}.log", std::process::id()));
            (path.to_string_lossy().into_owned(), true)
        }
    };

    // `(size, iterations)` grid; the 64×64 gate point belongs to every
    // grid, quick or full.
    let grid: Vec<(usize, usize)> = if cli.quick {
        vec![(16, 600), (64, 250)]
    } else {
        vec![(16, 1200), (32, 600), (64, 300)]
    };

    // Daemon A: cold solves populate the store, repeats replay it.
    let (handle, mut conn) = boot(&store_path);
    let mut entries = Vec::new();
    let mut next_id = 0usize;
    for &(size, iterations) in &grid {
        eprintln!("measuring {size}x{size} ({iterations} iters, {HIT_REPEATS} disk repeats)...");
        next_id += 1;
        let request = solve_request(
            next_id,
            size,
            iterations,
            seed.wrapping_add(size as u64),
            &format!("store-{size}x{size}"),
        );
        let (from_disk, cold_ms, normalised) = store_solve(&mut conn, &request);
        if from_disk {
            fail(&format!(
                "first {size}x{size} request was already on disk (stale --store log?)"
            ));
        }
        let mut hits = Vec::new();
        for _ in 0..HIT_REPEATS {
            // Identical job spec → same store key → must be a disk hit.
            let (from_disk, wall, replay) = store_solve(&mut conn, &request);
            if !from_disk {
                fail(&format!("repeat {size}x{size} request missed the store"));
            }
            if replay != normalised {
                fail(&format!(
                    "{size}x{size} disk replay diverged from the cold solve:\n  cold: {normalised}\n  disk: {replay}"
                ));
            }
            hits.push(wall);
        }
        let disk_ms_min = hits.iter().copied().fold(f64::INFINITY, f64::min);
        let disk_ms_mean = hits.iter().sum::<f64>() / hits.len() as f64;
        entries.push(Entry {
            label: format!("store-{size}x{size}"),
            size,
            iterations,
            cold_ms,
            disk_ms_min,
            disk_ms_mean,
            warm_ms: f64::NAN,
            normalised,
        });
    }
    let _ = conn.round_trip(r#"{"op":"shutdown"}"#);
    handle.join();

    // Daemon B on the same path: the warm boot must serve every grid
    // point from disk on the very first request.
    let (handle, mut conn) = boot(&store_path);
    let warm_records = handle.store().map(|s| s.open_report().records).unwrap_or(0);
    let mut next_id = 0usize;
    for entry in &mut entries {
        next_id += 1;
        let request = solve_request(
            next_id,
            entry.size,
            entry.iterations,
            seed.wrapping_add(entry.size as u64),
            &entry.label,
        );
        let (from_disk, wall, replay) = store_solve(&mut conn, &request);
        if !from_disk {
            fail(&format!(
                "post-restart {0}x{0} request missed the store — warm boot lost the record",
                entry.size
            ));
        }
        if replay != entry.normalised {
            fail(&format!(
                "post-restart {0}x{0} replay diverged from the cold solve",
                entry.size
            ));
        }
        entry.warm_ms = wall;
    }
    let _ = conn.round_trip(r#"{"op":"shutdown"}"#);
    handle.join();
    if throwaway {
        let _ = std::fs::remove_file(&store_path);
    }

    let rows: Vec<Vec<String>> = entries
        .iter()
        .map(|e| {
            vec![
                e.label.clone(),
                format!("{:.2}", e.cold_ms),
                format!("{:.3}", e.disk_ms_min),
                format!("{:.3}", e.disk_ms_mean),
                format!("{:.3}", e.warm_ms),
                format!("{:.1}x", e.speedup()),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Store latency: cold (program + solve + append) vs disk-hit replay",
            &[
                "case",
                "cold ms",
                "disk ms (min)",
                "disk ms (mean)",
                "restart ms",
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
        ("bench", Json::str("store")),
        ("schema_version", Json::num(1.0)),
        ("mode", Json::str(if cli.quick { "quick" } else { "full" })),
        ("seed", Json::num(seed as f64)),
        ("warm_boot_records", Json::uint(warm_records)),
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
    let out_path = cli.out.as_deref().unwrap_or("BENCH_store.json");
    if let Err(e) = std::fs::write(out_path, doc.pretty()) {
        fail(&format!("cannot write {out_path}: {e}"));
    }
    println!("wrote {out_path}");

    match gate {
        Some(s) if s < GATE_SPEEDUP => {
            eprintln!(
                "FAIL: {GATE_SIZE}x{GATE_SIZE} disk-hit speedup {s:.2}x < {GATE_SPEEDUP}x — \
                 the solution store no longer pays for itself"
            );
            std::process::exit(1);
        }
        Some(s) => {
            println!("{GATE_SIZE}x{GATE_SIZE} disk-hit speedup: {s:.2}x (gate: >= {GATE_SPEEDUP}x)")
        }
        None => println!("note: no {GATE_SIZE}x{GATE_SIZE} point in this grid"),
    }
}
