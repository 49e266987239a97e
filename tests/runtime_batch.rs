//! End-to-end exercise of the batch runtime from the jobs-file surface:
//! JSON in, parallel portfolio execution, JSON report out — the path the
//! `batch` binary drives.

use cnash_core::ExperimentRunner;
use cnash_runtime::report::{batch_report_json, portfolio_json};
use cnash_runtime::{BatchSpec, Json, PortfolioRunner, PortfolioStop};

const JOBS_FILE: &str = r#"
{
  "mode": "portfolio",
  "threads": 4,
  "jobs": [
    {
      "game": {"builtin": "battle_of_the_sexes"},
      "solver": {"type": "cnash", "preset": "ideal", "intervals": 12,
                 "iterations": 2000, "hardware_seed": 0},
      "runs": 30,
      "base_seed": 0,
      "early_stop": {"successes": 1}
    },
    {
      "game": {"builtin": "battle_of_the_sexes"},
      "solver": {"type": "dwave", "model": "2000q", "reads_per_run": 1},
      "runs": 30,
      "base_seed": 100
    }
  ]
}
"#;

#[test]
fn jobs_file_runs_end_to_end() {
    let spec = BatchSpec::from_json(JOBS_FILE).expect("valid jobs file");
    assert_eq!(spec.stop, PortfolioStop::FirstTarget);
    assert_eq!(spec.threads, 4);

    let jobs: Vec<_> = spec
        .jobs
        .iter()
        .map(|j| j.prepare().expect("buildable job"))
        .collect();
    let outcome = PortfolioRunner::new()
        .threads(spec.threads)
        .stop(spec.stop)
        .run(&jobs);

    // The ideal-config C-Nash job finds a verified equilibrium quickly.
    let winner = outcome.winner.expect("a job reaches its target");
    let batch = &outcome.results[winner].batch;
    assert!(batch.stopped_early);
    for eq in &batch.report.distinct_found {
        let game = jobs[winner].solver.game().bimatrix();
        assert!(game.is_equilibrium(&eq.row, &eq.col, 1e-6));
    }

    // The whole outcome serialises to parseable JSON.
    let doc = Json::parse(&portfolio_json(&outcome).pretty()).expect("valid JSON out");
    assert_eq!(doc.get("jobs").unwrap().as_arr().unwrap().len(), jobs.len());
}

#[test]
fn batch_runtime_agrees_with_sequential_harness() {
    let spec = BatchSpec::from_json(JOBS_FILE).expect("valid jobs file");
    let job = &spec.jobs[1]; // the D-Wave baseline, no early stop
    let prepared = job.prepare().expect("buildable");
    let sequential = ExperimentRunner::new(job.runs, job.base_seed)
        .evaluate(prepared.solver.as_ref(), &prepared.ground_truth);

    for threads in [1, 3] {
        let parallel = cnash_runtime::BatchRunner::new(job.runs, job.base_seed)
            .threads(threads)
            .evaluate(prepared.solver.as_ref(), &prepared.ground_truth);
        assert_eq!(parallel.report, sequential, "threads = {threads}");
        let json = batch_report_json(&parallel).pretty();
        assert!(Json::parse(&json).is_ok());
    }
}
