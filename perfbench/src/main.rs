//! `lrb-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload from the root of a checkout and prints, as the last
//! line of standard output, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics untraced, the
//! per-layer metrics traced. Lines before it carry the host class and
//! diagnostics. Exits 1 when an output check fails, 2 on a usage or set-up
//! error (printing no result).

use std::process::ExitCode;
use std::time::Duration;

use lrb_perfbench::{report, run, Settings, WORKLOADS};

fn parse(args: &[String]) -> Result<(String, Settings), String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds}: expected (0, 600]"));
    }
    Ok((
        workload,
        Settings {
            seed,
            window: Duration::from_secs_f64(seconds),
            traced: trace,
            work_dir: ".perfbench".into(),
            smoke: false,
        },
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, settings) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match run(&workload, &settings) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {workload}: {e}");
            return ExitCode::from(2);
        }
    };
    let info: Vec<String> = report::host_class()
        .into_iter()
        .chain(result.info.iter().cloned())
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!("# {workload} seed={} {}", settings.seed, info.join(" "));
    for p in &result.problems {
        println!("# check failed: {p}");
    }
    println!("{}", result.to_json());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
