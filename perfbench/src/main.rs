//! Command-line entry point of the rFaaS benchmark.
//!
//! ```text
//! rfaas-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                 [--trace-file <path>]
//! ```
//!
//! Prints a short human-readable log, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics` (end-to-end metrics,
//! or per-layer metrics with `--trace 1`). Exits 1 if any op failed or any
//! check did not hold, 2 on a usage error.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use rfaas_perfbench::alloc::CountingAlloc;
use rfaas_perfbench::{run, Length, RunSpec, Workload};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const USAGE: &str =
    "usage: rfaas-perfbench --workload <hot_small|scatter_gather|lease_churn|state_rw> \
--seed <n> --seconds <s> --trace <0|1> [--trace-file <path>]";

fn parse(args: &[String]) -> Result<RunSpec, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut trace_file = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            "--trace-file" => trace_file = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(RunSpec {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        length: Length::Seconds(seconds.ok_or("--seconds is required")?),
        trace,
        trace_file,
    })
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = match parse(&args) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let traced = spec.trace;
    println!(
        "# rfaas-perfbench workload={} seed={} length={:?} trace={} cores={}",
        spec.workload.name(),
        spec.seed,
        spec.length,
        traced,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let report = run(spec, process_start);
    println!(
        "# ops={} (virtual percentiles over {} samples)",
        report.attempted, report.samples
    );
    let rates: Vec<String> = report
        .window_rates
        .iter()
        .map(|r| format!("{r:.0}"))
        .collect();
    println!("# ops/s per wall window: {}", rates.join(" "));
    let setups: Vec<String> = report
        .setup_times
        .iter()
        .map(|s| format!("{:.1}", s * 1e3))
        .collect();
    println!("# set-up repetitions (ms): {}", setups.join(" "));
    for failure in &report.failures {
        println!("# FAILED: {failure}");
    }
    println!("{}", report.json(traced));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
