//! The solver daemon.
//!
//! `cargo run --release -p cnash-service --bin serviced -- \
//!      [--addr HOST:PORT] [--shards S] [--max-conns N] \
//!      [--store PATH] [--metrics-file PATH] \
//!      [--metrics-interval-ms MS] [--sa-trace-interval N]`
//!
//! Operational behaviour (reactor architecture, backpressure and
//! overload semantics, worked session transcripts) is documented in
//! `docs/SERVICE.md`.
//!
//! Binds the address (default `127.0.0.1:0` — an OS-chosen ephemeral
//! port), prints one readiness line
//! (`cnash-service listening on HOST:PORT`) to stdout, and serves until
//! a client sends `{"op":"shutdown"}`. The wire protocol is documented
//! in `cnash_service::protocol`; `cnash-bench`'s `service_client`
//! binary is the matching CLI.
//!
//! With `--store PATH` the daemon opens (or creates) the persistent
//! solution store at `PATH`, warm-boots from it — every record
//! presolved by `cnash-bench`'s `presolve` sweeper or appended by a
//! previous daemon run is served from disk with a `"cache":"disk"`
//! provenance flag — and appends each fresh solve's deterministic
//! payload. A second readiness line
//! (`cnash-service store PATH: N records`) reports the warm-boot scan.
//!
//! With `--metrics-file PATH` the daemon appends one JSON line per
//! `--metrics-interval-ms` (default 1000) to `PATH` — the `metrics`
//! payload of the wire protocol wrapped as
//! `{"at_ms":<since start>,"metrics":{...}}` — and writes one final
//! snapshot on shutdown, so a crashed-client post-mortem always has
//! the latest counters. `--version` prints the build identity (crate
//! version + rustc) and exits.

use cnash_service::protocol;
use cnash_service::{serve, ServiceConfig};
use cnash_telemetry::Registry;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: serviced [flags]");
    eprintln!("  --addr HOST:PORT         bind address [127.0.0.1:0 = ephemeral port]");
    eprintln!("  --shards S               scheduler workers, one solve each [0 = one per core]");
    eprintln!("  --max-conns N            open-connection cap [4096]");
    eprintln!("  --store PATH             persistent solution store (warm boot + disk hits)");
    eprintln!("  --metrics-file PATH      append periodic telemetry snapshots (JSON lines)");
    eprintln!("  --metrics-interval-ms MS snapshot period for --metrics-file [1000]");
    eprintln!("  --sa-trace-interval N    sample annealer energy every N iterations [0 = off]");
    eprintln!("  --version                print build identity and exit");
    std::process::exit(2);
}

/// Flags not covered by [`ServiceConfig`].
struct DaemonOptions {
    metrics_file: Option<String>,
    metrics_interval: Duration,
    sa_trace_interval: u64,
}

fn parse_config() -> (ServiceConfig, DaemonOptions) {
    let mut config = ServiceConfig::default();
    let mut options = DaemonOptions {
        metrics_file: None,
        metrics_interval: Duration::from_millis(1000),
        sa_trace_interval: 0,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--version" {
            let build = protocol::build_info();
            println!(
                "serviced {} ({})",
                build.get("version").and_then(|v| v.as_str()).unwrap_or("?"),
                build.get("rustc").and_then(|v| v.as_str()).unwrap_or("?"),
            );
            std::process::exit(0);
        }
        if !matches!(
            flag,
            "--addr"
                | "--shards"
                | "--max-conns"
                | "--store"
                | "--metrics-file"
                | "--metrics-interval-ms"
                | "--sa-trace-interval"
        ) {
            usage(&format!("unknown flag {flag}"));
        }
        i += 1;
        let value = args
            .get(i)
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let count = |v: &str| {
            v.parse::<usize>()
                .unwrap_or_else(|_| usage(&format!("{flag} needs a non-negative integer")))
        };
        match flag {
            "--addr" => config.addr = value.clone(),
            "--shards" => config.shards = count(value),
            "--max-conns" => config.max_connections = count(value).max(1),
            "--store" => config.store_path = Some(value.clone()),
            "--metrics-file" => options.metrics_file = Some(value.clone()),
            "--metrics-interval-ms" => {
                options.metrics_interval = Duration::from_millis(count(value).max(1) as u64);
            }
            "--sa-trace-interval" => options.sa_trace_interval = count(value) as u64,
            _ => unreachable!("flag validated above"),
        }
        i += 1;
    }
    (config, options)
}

/// Appends one `{"at_ms":…,"metrics":{…}}` line to the snapshot file.
fn write_snapshot(file: &mut std::fs::File, started: Instant, registry: &Registry) {
    let response = protocol::metrics_response(&cnash_runtime::Json::Null, &registry.snapshot());
    let Ok(metrics) = response.get("metrics") else {
        return;
    };
    let line = cnash_runtime::Json::obj([
        (
            "at_ms",
            cnash_runtime::Json::uint(
                started.elapsed().as_millis().min(u128::from(u64::MAX)) as u64
            ),
        ),
        ("metrics", metrics.clone()),
    ]);
    if writeln!(file, "{}", line.compact())
        .and_then(|()| file.flush())
        .is_err()
    {
        eprintln!("cnash-service: cannot append metrics snapshot");
    }
}

fn main() {
    let (config, options) = parse_config();
    cnash_telemetry::hot::set_sa_trace_interval(options.sa_trace_interval);
    let handle = match serve(config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("error: cannot start: {e}");
            std::process::exit(1);
        }
    };
    println!("cnash-service listening on {}", handle.addr());
    if let Some(store) = handle.store() {
        let report = store.open_report();
        let health = if report.compacted {
            format!(
                " (recovered: {} corrupt skipped, {} tail bytes dropped)",
                report.corrupt_skipped, report.truncated_tail_bytes
            )
        } else {
            String::new()
        };
        println!(
            "cnash-service store {}: {} records{health}",
            store.path().display(),
            report.records
        );
    }
    std::io::stdout().flush().expect("stdout");

    // Periodic telemetry snapshots: a detached writer ticking until the
    // daemon exits, plus one final snapshot after join() so the file
    // always ends with the complete totals.
    let stopping = Arc::new(AtomicBool::new(false));
    let writer = options.metrics_file.as_ref().map(|path| {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .unwrap_or_else(|e| {
                eprintln!("error: cannot open metrics file {path}: {e}");
                std::process::exit(1);
            });
        let registry = Arc::clone(handle.registry());
        let stopping = Arc::clone(&stopping);
        let interval = options.metrics_interval;
        std::thread::Builder::new()
            .name("cnash-metrics".into())
            .spawn(move || {
                let started = Instant::now();
                while !stopping.load(Ordering::Relaxed) {
                    std::thread::sleep(interval);
                    write_snapshot(&mut file, started, &registry);
                }
                write_snapshot(&mut file, started, &registry);
            })
            .expect("spawn metrics writer")
    });

    handle.join();
    stopping.store(true, Ordering::Relaxed);
    if let Some(writer) = writer {
        let _ = writer.join();
    }
    println!("cnash-service stopped");
}
