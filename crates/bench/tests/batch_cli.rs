//! The `batch` binary's exit codes: a runnable jobs file exits 0, and a
//! jobs file the runtime rejects exits 2 with a `spec error` on stderr —
//! never a panic (exit 101).

use std::path::PathBuf;
use std::process::{Command, Output};

fn repo_file(relative: &str) -> String {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    root.join(relative).to_string_lossy().into_owned()
}

fn batch(jobs_file: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_batch"))
        .args(["--jobs-file", &repo_file(jobs_file), "--threads", "1"])
        .output()
        .expect("batch starts")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn the_example_portfolio_runs() {
    let out = batch("examples/portfolio_jobs.json");
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"jobs\""));
}

#[test]
fn a_game_past_the_enumeration_limit_exits_2() {
    let out = batch("tests/jobs/ground_truth_past_limit.json");
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("16-action support-enumeration limit"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn an_ideal_solver_with_zero_intervals_exits_2() {
    let out = batch("tests/jobs/ideal_zero_intervals.json");
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("ideal: invalid configuration: ideal needs intervals > 0"),
        "{}",
        stderr(&out)
    );
}
