//! The GridBank benchmark. See `benchmark/README.md`.
//!
//! ```text
//! gridbank-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--no-isolated]
//! gridbank-benchmark run [--seed <n>] [--seconds <s>] [--smoke] [--out <file>]
//! gridbank-benchmark compare <before.json> <after.json>
//! gridbank-benchmark spread <results.json> <results.json> ...
//! gridbank-benchmark describe [--json]
//! ```
//!
//! Run from the repository root: stores, traces and result files go
//! under `benchmark/`.

mod alloc;
mod json;
mod phase;
mod probes;
mod procfs;
mod report;
mod rng;
mod run;
mod spec;
mod stats;
mod trace;
mod workloads;
mod world;
mod yardstick;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage:
  gridbank-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--no-isolated]
  gridbank-benchmark run [--seed <n>] [--seconds <s>] [--smoke] [--out <file>]
  gridbank-benchmark compare <before.json> <after.json>
  gridbank-benchmark spread <results.json> <results.json> ...
  gridbank-benchmark describe [--json]";

/// `--name value` options and bare flags, in any order.
struct Options(Vec<String>);

impl Options {
    fn value(&mut self, name: &str) -> Result<Option<String>, String> {
        let Some(at) = self.0.iter().position(|a| a == name) else { return Ok(None) };
        if at + 1 >= self.0.len() {
            return Err(format!("{name} needs a value"));
        }
        self.0.remove(at);
        Ok(Some(self.0.remove(at)))
    }

    fn number(&mut self, name: &str) -> Result<Option<u64>, String> {
        self.value(name)?
            .map(|v| v.parse().map_err(|_| format!("{name} takes a whole number, not `{v}`")))
            .transpose()
    }

    fn flag(&mut self, name: &str) -> bool {
        let before = self.0.len();
        self.0.retain(|a| a != name);
        self.0.len() != before
    }

    fn done(self) -> Result<(), String> {
        match self.0.first() {
            None => Ok(()),
            Some(extra) => Err(format!("unexpected argument `{extra}`\n{USAGE}")),
        }
    }
}

fn one_workload(mut options: Options) -> Result<bool, String> {
    let name = options.value("--workload")?.ok_or("--workload needs a value")?;
    let workload = spec::workload(&name).ok_or_else(|| {
        let known: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!("no workload `{name}`; there are {}", known.join(", "))
    })?;
    let plan = run::Plan {
        workload,
        seed: options.number("--seed")?.unwrap_or(42),
        seconds: options.number("--seconds")?.unwrap_or(spec::RUN_SECONDS),
        trace: match options.number("--trace")? {
            None | Some(0) => false,
            Some(1) => true,
            Some(other) => return Err(format!("--trace takes 0 or 1, not {other}")),
        },
        smoke: options.flag("--smoke"),
        isolated: !options.flag("--no-isolated"),
    };
    options.done()?;
    if plan.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let output = run::run(&plan)?;
    println!("{}{}", report::DETAIL_PREFIX, output.detail);
    println!("{}", output.result_line());
    Ok(output.correct)
}

fn dispatch(mut args: Vec<String>) -> Result<bool, String> {
    if !Path::new("benchmark").is_dir() {
        return Err("run this from the repository root: there is no benchmark/ here".into());
    }
    match args.first().map(String::as_str) {
        Some("run") => {
            let mut options = Options(args.split_off(1));
            let seed = options.number("--seed")?.unwrap_or(42);
            let seconds = options.number("--seconds")?.unwrap_or(spec::RUN_SECONDS);
            let smoke = options.flag("--smoke");
            let out = options.value("--out")?.map(PathBuf::from);
            options.done()?;
            report::run_all(seed, seconds, smoke, out)
        }
        Some("compare") => match &args[1..] {
            [before, after] => report::compare(before, after),
            _ => Err(USAGE.into()),
        },
        Some("spread") => report::spread(&args[1..]),
        Some("describe") => {
            if args.get(1).map(String::as_str) == Some("--json") {
                print!("{}", report::benchmark_json().pretty());
            } else {
                report::describe();
            }
            Ok(true)
        }
        Some(_) if args.iter().any(|a| a == "--workload") => one_workload(Options(args)),
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    match dispatch(std::env::args().skip(1).collect()) {
        Ok(true) => ExitCode::SUCCESS,
        // A failed output check, a metric that got worse, a spread
        // beyond its bound: the report has been printed; say so by code.
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("gridbank-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
