//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. The
//! line before it is the run's report (provenance, sample counts, check
//! results); the report, and a traced run's spans, are also written under
//! `.bench_out/` in the working directory.

use std::path::Path;
use std::process::ExitCode;

use perfbench::workload::{self, RunConfig, Workload};
use perfbench::{guard, provenance, result_line};

const USAGE: &str = "usage: perfbench --workload <tpcb-embedded|tpcb-remote|proof-audit> \
                     --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    guard::arm(
        guard::budget(args.seconds),
        Path::new(".bench_out").join(format!(
            "perfbench-{}-seed{}",
            args.workload.name(),
            args.seed
        )),
    );
    let stamp = provenance::stamp(args.seed);
    let cfg = RunConfig::new(args.workload, args.seed, args.seconds, args.trace);
    let mut outcome = match workload::run(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    outcome.report.push("provenance", stamp);
    if let Err(e) = write_outputs(&outcome, args.workload, args.seed) {
        eprintln!("perfbench: could not write to .bench_out/: {e}");
    }
    println!("{}", outcome.report.render());
    println!("{}", result_line(&outcome));
    ExitCode::SUCCESS
}

/// The report, per workload, seed and mode; a traced run's spans, per
/// workload (each traced run replaces the last one's).
fn write_outputs(outcome: &workload::Outcome, w: Workload, seed: u64) -> std::io::Result<()> {
    let dir = Path::new(".bench_out");
    std::fs::create_dir_all(dir)?;
    let mode = if outcome.tracer.is_some() { 1 } else { 0 };
    let report = dir.join(format!(
        "perfbench-{}-seed{seed}-trace{mode}.json",
        w.name()
    ));
    std::fs::write(report, outcome.report.pretty())?;
    if let Some(t) = &outcome.tracer {
        t.write_csv(&dir.join(format!("perfbench-{}-spans.csv", w.name())))?;
    }
    Ok(())
}
