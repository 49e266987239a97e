//! CLI client for the solver service.
//!
//! `cargo run --release -p cnash-bench --bin service_client -- \
//!      --addr HOST:PORT --requests PATH [--golden] [--serial]`
//!
//! Streams a JSON-lines request file (one protocol request per line,
//! see `cnash_service::protocol`; blank lines and `#` comments are
//! skipped) to the daemon and prints one response line per request on
//! stdout:
//!
//! * `--serial` awaits each response before sending the next request,
//!   which pins the service's execution order to the request order —
//!   required for byte-deterministic `cache_hit`/`stats` fields;
//!   without it requests are pipelined across the daemon's workers.
//! * `--golden` normalises responses for golden-file diffing: the
//!   wall-clock fields are stripped and the document re-serialised
//!   canonically. CI's `service-smoke` job runs with both flags and
//!   diffs stdout against `tests/golden/service_reports.golden`.
//! * `--stats-json PATH` fetches the daemon's `stats` over a fresh
//!   connection *after* the replay and writes the pretty-printed
//!   response to `PATH` — the daemon must still be up, so the request
//!   file must not end in a `shutdown`.
//!
//! Exits 0 when every request got a response (error *responses* are
//! legitimate protocol output), 1 when the connection dropped
//! mid-stream or a response line was not valid protocol JSON — partial
//! output is never silently truncated — and 2 on usage errors.

use cnash_bench::client::{normalise_response, validate_response, ServiceConn};
use cnash_bench::Cli;
use cnash_runtime::Json;

fn main() {
    let cli = Cli::parse_for(&[
        "--addr",
        "--requests",
        "--golden",
        "--serial",
        "--stats-json",
    ]);
    let (Some(addr), Some(requests)) = (&cli.addr, &cli.requests) else {
        eprintln!("error: service_client needs --addr HOST:PORT and --requests PATH");
        std::process::exit(2);
    };
    let text = match std::fs::read_to_string(requests) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("error: cannot read {requests}: {e}");
            std::process::exit(2);
        }
    };
    let lines: Vec<&str> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();

    let mut conn = match ServiceConn::connect(addr.as_str()) {
        Ok(conn) => conn,
        Err(e) => {
            eprintln!("error: cannot connect to {addr}: {e}");
            std::process::exit(1);
        }
    };

    // Every daemon response must be a single JSON object: an
    // unparseable line means the stream is corrupt (or the peer is not
    // the solver service), and continuing would silently produce bogus
    // output downstream.
    let emit = |line: &str, index: usize| {
        if let Err(e) = validate_response(line) {
            eprintln!(
                "error: response {} is not valid protocol JSON: {e}",
                index + 1
            );
            eprintln!("error: offending line: {line}");
            std::process::exit(1);
        }
        if cli.golden {
            println!("{}", normalise_response(line));
        } else {
            println!("{line}");
        }
    };

    let mut received = 0usize;
    if cli.serial {
        for line in &lines {
            match conn.round_trip(line) {
                Ok(response) => {
                    emit(&response, received);
                    received += 1;
                }
                Err(e) => {
                    eprintln!(
                        "error: connection lost after {received}/{} responses \
                         (request {} got no response): {e}",
                        lines.len(),
                        received + 1
                    );
                    std::process::exit(1);
                }
            }
        }
    } else {
        let mut sent = 0usize;
        for line in &lines {
            if let Err(e) = conn.send_line(line) {
                eprintln!(
                    "error: send failed: {sent}/{} requests sent, \
                     {received}/{0} responses received: {e}",
                    lines.len()
                );
                std::process::exit(1);
            }
            sent += 1;
        }
        conn.finish_writes();
        loop {
            match conn.recv_line() {
                Ok(Some(response)) => {
                    emit(&response, received);
                    received += 1;
                }
                Ok(None) => break, // clean EOF: the daemon drained the stream
                Err(e) => {
                    eprintln!(
                        "error: connection dropped mid-stream: {sent}/{} requests sent, \
                         {received}/{0} responses received: {e}",
                        lines.len()
                    );
                    std::process::exit(1);
                }
            }
        }
    }

    if received < lines.len() {
        eprintln!(
            "error: sent {} requests but received only {received} responses \
             (daemon closed the connection early)",
            lines.len()
        );
        std::process::exit(1);
    }

    if let Some(path) = &cli.stats_json {
        let mut conn = ServiceConn::connect(addr.as_str()).unwrap_or_else(|e| {
            eprintln!(
                "error: cannot reconnect for --stats-json (did the replay shut the daemon \
                 down?): {e}"
            );
            std::process::exit(1);
        });
        let response = conn
            .round_trip(r#"{"op":"stats","id":"stats-json"}"#)
            .unwrap_or_else(|e| {
                eprintln!("error: stats request failed: {e}");
                std::process::exit(1);
            });
        let doc = Json::parse(&response).unwrap_or_else(|e| {
            eprintln!("error: stats response is not valid JSON: {e}");
            std::process::exit(1);
        });
        if let Err(e) = std::fs::write(path, doc.pretty()) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }
}
