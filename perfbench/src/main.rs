//! The repository benchmark: three seeded workloads over the COMA
//! workspace, one result line per run.
//!
//! ```text
//! perfbench --workload <match_exact|match_index|serve_write>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no spans recorded;
//! `--trace 1` runs the workload again with a span around each public
//! call into a layer and reports the per-layer metrics (and writes the
//! spans to `.perfbench/trace-<workload>-seed<n>.jsonl`). The last line
//! of standard output is the JSON result; progress goes to stderr. See
//! `README.md` next to this package for the workloads and metrics.

mod batch;
mod gold;
mod report;
mod service;
mod trace;

use coma_bench::alloc_track::CountingAllocator;
use report::{Outcome, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// The workloads. Each is defined, with the reason it exists, in
/// `batch.rs` (`match_*`) or `service.rs` (`serve_write`).
pub const WORKLOADS: [&str; 3] = ["match_exact", "match_index", "serve_write"];

/// One run's parameters.
pub struct RunOptions {
    pub workload: String,
    pub seed: u64,
    pub duration: Duration,
    pub trace: bool,
    /// Scratch directory of this run (sockets, repository files), inside
    /// the working directory and removed when the run ends.
    pub scratch: PathBuf,
}

/// Set-ups timed per run: at least `MIN_SETUPS`, and more while they fit
/// in `SETUP_BUDGET`, so that a cheap set-up's median rests on many
/// samples.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 100;
const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// Times `setup` repeatedly and returns its wall times in seconds
/// (`setup_s` is their median). `inputs` makes what one set-up reads
/// and `teardown` takes what it built, both outside the clock.
pub fn time_setups<I, T>(
    mut inputs: impl FnMut() -> Result<I, String>,
    mut setup: impl FnMut(I) -> Result<T, String>,
    mut teardown: impl FnMut(T) -> Result<(), String>,
) -> Result<Vec<f64>, String> {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < MIN_SETUPS || (times.len() < MAX_SETUPS && start.elapsed() < SETUP_BUDGET) {
        let input = inputs()?;
        let t0 = Instant::now();
        let value = setup(input)?;
        times.push(t0.elapsed().as_secs_f64());
        teardown(value)?;
    }
    Ok(times)
}

fn parse_args() -> Result<RunOptions, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => trace = Some(value == "1"),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(RunOptions {
        scratch: PathBuf::from(".perfbench").join(format!("run-{}", std::process::id())),
        workload,
        seed: seed.unwrap_or(1),
        duration: Duration::from_secs_f64(seconds),
        trace: trace.unwrap_or(false),
    })
}

fn run(opts: &RunOptions) -> Result<Outcome, String> {
    std::fs::create_dir_all(&opts.scratch).map_err(|e| format!("scratch dir: {e}"))?;
    let rec = trace::Recorder::new(Instant::now());
    let outcome = match (opts.workload.as_str(), opts.trace) {
        ("match_exact", false) => batch::run(opts, batch::BatchPlan::Exact),
        ("match_index", false) => batch::run(opts, batch::BatchPlan::Index),
        ("match_exact", true) => batch::run_traced(opts, batch::BatchPlan::Exact, &rec),
        ("match_index", true) => batch::run_traced(opts, batch::BatchPlan::Index, &rec),
        ("serve_write", false) => service::run(opts),
        ("serve_write", true) => service::run_traced(opts, &rec),
        _ => unreachable!("workload names are validated by parse_args"),
    };
    std::fs::remove_dir_all(&opts.scratch).ok();
    if opts.trace {
        let path = PathBuf::from(".perfbench")
            .join(format!("trace-{}-seed{}.jsonl", opts.workload, opts.seed));
        rec.write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        for (name, t) in rec.totals() {
            eprintln!(
                "# span {name:<24} calls {:>7}  total {:>10.1} ms  self {:>10.1} ms",
                t.calls,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
    }
    outcome
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", opts.workload);
            return ExitCode::FAILURE;
        }
    };
    for problem in &outcome.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    let line = if opts.trace {
        outcome.render(PER_LAYER, true)
    } else {
        outcome.render(END_TO_END, false)
    };
    match line {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;

    #[derive(Deserialize)]
    struct Benchmark {
        run_seconds: u64,
        workloads: Vec<Workload>,
        end_to_end: Vec<Bound>,
        per_layer: Vec<Metric>,
    }

    #[derive(Deserialize)]
    struct Workload {
        name: String,
    }

    #[derive(Deserialize)]
    struct Bound {
        name: String,
        unit: String,
        bound: f64,
    }

    #[derive(Deserialize)]
    struct Metric {
        name: String,
        unit: String,
    }

    fn benchmark() -> Benchmark {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    #[test]
    fn catalogues_match_benchmark_json() {
        let bench = benchmark();
        let names: Vec<&str> = bench.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(names, WORKLOADS);
        let end_to_end: Vec<(&str, &str)> = bench
            .end_to_end
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str()))
            .collect();
        assert_eq!(end_to_end, END_TO_END);
        let per_layer: Vec<(&str, &str)> = bench
            .per_layer
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str()))
            .collect();
        assert_eq!(per_layer, PER_LAYER);
    }

    /// The steadiness self-check: two back-to-back untraced runs of every
    /// workload with one seed agree within the bounds `BENCHMARK.json`
    /// fixes, and `f1` and `ok_share` repeat exactly. It takes minutes:
    /// `cargo test --release --manifest-path perfbench/Cargo.toml -- --ignored`.
    #[test]
    #[ignore = "runs every workload twice at full length"]
    fn back_to_back_runs_agree_within_the_bounds() {
        let bench = benchmark();
        for workload in WORKLOADS {
            let outcome = |k: usize| {
                let opts = RunOptions {
                    workload: workload.to_string(),
                    seed: 7,
                    duration: Duration::from_secs(bench.run_seconds),
                    trace: false,
                    scratch: PathBuf::from(".perfbench")
                        .join(format!("selfcheck-{}-{workload}-{k}", std::process::id())),
                };
                let outcome = run(&opts).expect("the workload runs");
                assert!(
                    outcome.problems.is_empty(),
                    "{workload}: {:?}",
                    outcome.problems
                );
                outcome.metrics
            };
            let (a, b) = (outcome(0), outcome(1));
            for Bound { name, bound, .. } in &bench.end_to_end {
                let (x, y) = (a[name.as_str()], b[name.as_str()]);
                let gap = x.max(y) / x.min(y) - 1.0;
                assert!(
                    gap <= *bound,
                    "{workload} {name}: {x} then {y}, bound {bound}"
                );
            }
            assert_eq!(a["f1"], b["f1"], "{workload}: f1 repeats");
            assert_eq!(a["ok_share"], b["ok_share"], "{workload}: ok_share repeats");
        }
    }
}
