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
//! Writes `BENCH_store.json` in the shared BENCH schema
//! (`cnash_bench::report`). Exit status doubles as the CI gate:
//!
//! * exit 2 — protocol error, a repeat or post-restart request missed
//!   the store, or a disk payload diverged from the cold solve,
//! * exit 1 — disk hits at the 64×64 gate size are not at least 1.5×
//!   faster than the cold solve (the store stopped paying for itself),
//! * exit 0 — measurements recorded.

use cnash_bench::client::{fail, normalise_response, solve_request, timed_solve, ServiceConn};
use cnash_bench::report::{Gate, Report};
use cnash_bench::Cli;
use cnash_runtime::Json;
use cnash_service::{serve, ServiceConfig, ServiceHandle};

/// The gate size: disk-hit speedup at 64×64 must stay ≥ this factor.
const GATE_SIZE: usize = 64;
const GATE_SPEEDUP: f64 = 1.5;
/// Disk-hit repeats per grid point (the minimum is reported).
const HIT_REPEATS: usize = 5;

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
    let mut report = Report::new(
        "store",
        "Store latency: cold (program + solve + append) vs disk-hit replay",
        &cli,
    );
    let (handle, mut conn) = boot(&store_path);
    // `(size, request, normalised cold payload)` per grid point, for the
    // restart pass.
    let mut solved = Vec::new();
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
        let case = format!("{size}x{size}");
        let gate = (size == GATE_SIZE).then_some(Gate::AtLeast(GATE_SPEEDUP));
        report.record("store", &case, "cold_ms", cold_ms, "ms", None);
        report.record("store", &case, "disk_ms_min", disk_ms_min, "ms", None);
        report.record("store", &case, "disk_ms_mean", disk_ms_mean, "ms", None);
        report.record("store", &case, "speedup", cold_ms / disk_ms_min, "x", gate);
        solved.push((size, request, normalised));
    }
    let _ = conn.round_trip(r#"{"op":"shutdown"}"#);
    handle.join();

    // Daemon B on the same path: the warm boot must serve every grid
    // point from disk on the very first request.
    let (handle, mut conn) = boot(&store_path);
    let warm_records = handle.store().map(|s| s.open_report().records).unwrap_or(0);
    report.record(
        "store",
        "restart",
        "warm_boot_records",
        warm_records as f64,
        "count",
        None,
    );
    for (size, request, normalised) in &solved {
        let (from_disk, wall, replay) = store_solve(&mut conn, request);
        if !from_disk {
            fail(&format!(
                "post-restart {size}x{size} request missed the store — warm boot lost the record"
            ));
        }
        if replay != *normalised {
            fail(&format!(
                "post-restart {size}x{size} replay diverged from the cold solve"
            ));
        }
        let case = format!("{size}x{size}");
        report.record("store", &case, "warm_restart_ms", wall, "ms", None);
    }
    let _ = conn.round_trip(r#"{"op":"shutdown"}"#);
    handle.join();
    if throwaway {
        let _ = std::fs::remove_file(&store_path);
    }

    report.write();
    report.enforce_gates();
}
