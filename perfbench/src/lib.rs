//! The repository benchmark: end-to-end and per-layer measurements of the
//! batch engine (`lrb-engine`) and the serve daemon (`lrb-serve`).
//!
//! Every number is taken from outside the program, by timing calls into each
//! layer's public functions and by reading counters the program already
//! emits. The workload seed is an argument; the benchmark generates the
//! inputs and the program only ever sees the generated inputs.
//!
//! * [`engine`]: `engine_ladder` and `engine_epochs`.
//! * [`serve`]: `serve_mixed`, a closed loop of clients against an
//!   in-process server plus a shadow replay through the state layer.
//! * [`report`]: metric names, units, the result line, and the statistics.
//! * [`spans`]: the in-memory span log of the traced run.

pub mod engine;
pub mod report;
pub mod serve;
pub mod spans;

use std::path::PathBuf;
use std::time::Duration;

use report::{Measured, RunResult};

/// The workloads, by the names `--workload` accepts.
pub const WORKLOADS: [&str; 3] = ["engine_ladder", "engine_epochs", "serve_mixed"];

/// How one measurement of a workload runs.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measurement window (set-up and output checks run outside it).
    pub window: Duration,
    /// Record spans and take the per-layer measurements.
    pub traced: bool,
    /// Directory for serve data dirs and the span file.
    pub work_dir: PathBuf,
    /// The tiny input sizes the benchmark's own tests use.
    pub smoke: bool,
}

/// Worker count for the `mt` measurements: all of `available_parallelism`.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

fn measure(workload: &str, s: &Settings) -> Result<Measured, String> {
    match workload {
        "engine_ladder" => engine::measure(engine::Shape::Ladder, s),
        "engine_epochs" => engine::measure(engine::Shape::Epochs, s),
        "serve_mixed" => serve::measure(s),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {WORKLOADS:?})"
        )),
    }
}

/// Run one workload. Untraced, the whole window measures the end-to-end
/// metrics. Traced, an untraced and a traced measurement split the window,
/// so the result carries the per-layer metrics and the tracing overhead.
///
/// # Errors
///
/// An unknown workload, or an I/O failure in the work directory.
pub fn run(workload: &str, s: &Settings) -> Result<RunResult, String> {
    if !s.traced {
        return measure(workload, s).map(RunResult::untraced);
    }
    let half = Settings {
        window: s.window / 2,
        traced: false,
        ..s.clone()
    };
    let plain = measure(workload, &half)?;
    let mut traced = measure(
        workload,
        &Settings {
            traced: true,
            ..half
        },
    )?;
    traced.problems.extend(plain.problems);
    traced.attempted += plain.attempted;
    traced.failed += plain.failed;
    Ok(RunResult::traced(&plain.e2e, traced))
}
