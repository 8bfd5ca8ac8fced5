//! Whole-benchmark runs and what is done with their result files:
//! `run` (every workload, each in a process of its own), `compare`
//! (two result files against the bounds) and `spread` (how far repeated
//! runs of one commit lie apart).

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::json::Json;
use crate::spec::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::workloads::run_dir;
use crate::{probes, procfs, stats};

/// Prefix of the stdout line a child run prints its detail on.
pub const DETAIL_PREFIX: &str = "detail ";

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Where and on what the numbers were taken; stamped into result files.
pub fn environment() -> Json {
    let run_dir = Path::new("benchmark/.run");
    let _ = std::fs::create_dir_all(run_dir);
    Json::obj([
        ("nproc", Json::Num(crate::world::cores() as f64)),
        ("run_dir_filesystem", Json::str(procfs::filesystem_of(run_dir))),
        ("rustc", Json::str(first_line_of("rustc", &["--version"]))),
        ("git_commit", Json::str(first_line_of("git", &["rev-parse", "HEAD"]))),
    ])
}

/// Whether a child that exited with `code` made its run: 0 says every
/// output check passed and 1 that one did not — the result line says
/// which, and the numbers beside it still stand. Any other code, or
/// death by a signal (`None`), is a run that could not be made.
fn made_its_run(code: Option<i32>) -> bool {
    matches!(code, Some(0 | 1))
}

/// Runs one workload in a child process — so its peak memory is its
/// own — and returns its result line and its detail. A traced child
/// leaves the isolated probes to the caller.
fn child(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(if trace { ["--trace", "1", "--no-isolated"].as_slice() } else { &["--trace", "0"] })
        .stdout(Stdio::piped());
    if smoke {
        command.arg("--smoke");
    }
    let output =
        command.spawn().and_then(|c| c.wait_with_output()).map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !made_its_run(output.status.code()) {
        return Err(format!(
            "{workload} (trace {}) exited with {}",
            u8::from(trace),
            output.status
        ));
    }
    let result = stdout.lines().last().ok_or("child printed nothing")?;
    let detail = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix(DETAIL_PREFIX))
        .ok_or("child printed no detail line")?;
    Ok((Json::parse(result)?, Json::parse(detail)?))
}

fn print_metrics(workload: &str, metrics: &Json) {
    for (name, metric) in metrics.fields() {
        let value = metric.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let unit = metric.get("unit").and_then(Json::as_str).unwrap_or("");
        println!("{workload:<20} {name:<42} {value:>14.4} {unit}");
    }
}

/// The per-layer metrics of one workload: what its traced run measured,
/// and the isolated probes, in the order of [`PER_LAYER`].
fn per_layer(traced: &Json, isolated: &probes::Budget) -> Result<Json, String> {
    let own = traced.get("metrics");
    let merged = PER_LAYER.iter().map(|m| {
        let value = match own.and_then(|o| o.get(m.name)) {
            Some(measured) => measured.clone(),
            None => {
                let value =
                    isolated.get(m.name).ok_or_else(|| format!("no value for {}", m.name))?;
                Json::obj([("value", Json::Num(*value)), ("unit", Json::str(m.unit))])
            }
        };
        Ok((m.name, value))
    });
    Ok(Json::obj(merged.collect::<Result<Vec<_>, String>>()?))
}

/// Runs every workload, untraced then traced, and the isolated probes
/// once; prints every metric by name and writes the result file.
/// `Ok(false)` when a check failed.
pub fn run_all(seed: u64, seconds: u64, smoke: bool, out: Option<PathBuf>) -> Result<bool, String> {
    let mut all_correct = true;
    let mut workloads = Vec::new();
    let mut isolated = probes::Budget::new();
    if !smoke {
        let scratch = run_dir("probes", seed, 0);
        isolated = probes::isolated(seed, &scratch)?;
        let _ = std::fs::remove_dir_all(&scratch);
    }
    for w in &WORKLOADS {
        let (result, detail) = child(w.name, seed, seconds, false, smoke)?;
        all_correct &= result.get("correct").and_then(Json::as_bool) == Some(true);
        if smoke {
            continue;
        }
        let end_to_end = result.get("metrics").cloned().unwrap_or(Json::Null);
        print_metrics(w.name, &end_to_end);
        let (traced, traced_detail) = child(w.name, seed, seconds, true, false)?;
        all_correct &= traced.get("correct").and_then(Json::as_bool) == Some(true);
        let per_layer = per_layer(&traced, &isolated)?;
        print_metrics(w.name, &per_layer);
        workloads.push((
            w.name,
            Json::obj([
                ("end_to_end", end_to_end),
                ("per_layer", per_layer),
                ("attempted", result.get("attempted").cloned().unwrap_or(Json::Null)),
                ("failed", result.get("failed").cloned().unwrap_or(Json::Null)),
                ("detail", detail),
                ("traced_detail", traced_detail),
            ]),
        ));
    }
    if smoke {
        println!("smoke: every check {}", if all_correct { "passed" } else { "did NOT pass" });
        return Ok(all_correct);
    }
    let file = Json::obj([
        ("environment", environment()),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds as f64)),
        ("correct", Json::Bool(all_correct)),
        ("workloads", Json::obj(workloads)),
    ]);
    let path =
        out.unwrap_or_else(|| Path::new("benchmark/out").join(format!("results-{seed}.json")));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, file.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("results written to {}", path.display());
    Ok(all_correct)
}

/// `BENCHMARK.json`, from the tables in [`crate::spec`].
pub fn benchmark_json() -> Json {
    let text = |s: &str| Json::str(s);
    Json::obj([
        ("command", Json::Arr(vec![text("bash"), text("benchmark/run.sh")])),
        ("paths", Json::Arr(vec![text("benchmark")])),
        ("run_seconds", Json::Num(crate::spec::RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", text(w.name)), ("why", text(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Prints the definition of the benchmark: workloads and why, metrics,
/// units, bounds, and what each per-layer metric should move.
pub fn describe() {
    println!(
        "workloads ({} s measured per run, work fixed by --seconds):",
        crate::spec::RUN_SECONDS
    );
    for w in &WORKLOADS {
        println!(
            "  {:<20} {} units/s x {} ops, warm-up {} units, signer height {}\n  {:<20} {}",
            w.name, w.units_per_second, w.ops_per_unit, w.warmup_units, w.signer_height, "", w.why
        );
    }
    println!("end-to-end metrics (every workload):");
    for m in &END_TO_END {
        println!(
            "  {:<42} {:<6} {} is better, may worsen by {:.0}%",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0
        );
    }
    println!("per-layer metrics (traced run) and what each should move:");
    for m in &PER_LAYER {
        println!("  {:<42} {:<6} {}", m.name, m.unit, m.moves);
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn end_to_end_value(file: &Json, workload: &str, metric: &str) -> Option<f64> {
    file.get("workloads")?.get(workload)?.get("end_to_end")?.get(metric)?.get("value")?.as_f64()
}

fn noisy(file: &Json, workload: &str) -> bool {
    file.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("detail"))
        .and_then(|d| d.get("noisy_host"))
        .and_then(Json::as_bool)
        .unwrap_or(false)
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// How much worse `after` is than `before`, as a share of `before`;
/// negative when it is better.
pub fn worsening(better: Better, before: f64, after: f64) -> f64 {
    match better {
        Better::Lower => (after - before) / before,
        Better::Higher => (before - after) / before,
    }
}

/// A metric beyond its bound is `Worse` — unless the host was noisy
/// around either run, when nothing can be said.
pub fn verdict(
    better: Better,
    bound: f64,
    before: Option<f64>,
    after: Option<f64>,
    noisy_host: bool,
) -> Verdict {
    match (before, after) {
        (Some(a), Some(b)) if a.is_finite() && b.is_finite() && a > 0.0 => {
            if worsening(better, a, b) <= bound {
                Verdict::Ok
            } else if noisy_host {
                Verdict::Unresolved
            } else {
                Verdict::Worse
            }
        }
        _ => Verdict::Unresolved,
    }
}

/// Compares two result files. `Ok(false)` when any metric is worse.
pub fn compare(before_path: &str, after_path: &str) -> Result<bool, String> {
    let (before, after) = (load(before_path)?, load(after_path)?);
    let mut none_worse = true;
    println!(
        "{:<20} {:<22} {:>12} {:>12} {:>9} {:>7}  verdict",
        "workload", "metric", "before", "after", "worse by", "bound"
    );
    for w in &WORKLOADS {
        let noisy_host = noisy(&before, w.name) || noisy(&after, w.name);
        for m in &END_TO_END {
            let (a, b) = (
                end_to_end_value(&before, w.name, m.name),
                end_to_end_value(&after, w.name, m.name),
            );
            let v = verdict(m.better, m.bound, a, b, noisy_host);
            none_worse &= v != Verdict::Worse;
            let shown = |x: Option<f64>| x.map_or("-".to_string(), |x| format!("{x:.4}"));
            let change = match (a, b) {
                (Some(a), Some(b)) => format!("{:+.1}%", worsening(m.better, a, b) * 100.0),
                _ => "-".into(),
            };
            println!(
                "{:<20} {:<22} {:>12} {:>12} {:>9} {:>6.0}%  {}{}",
                w.name,
                m.name,
                shown(a),
                shown(b),
                change,
                m.bound * 100.0,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                },
                if noisy_host { " (noisy_host)" } else { "" },
            );
        }
    }
    Ok(none_worse)
}

/// Prints, per workload and metric, the median over the given result
/// files and the distance between the quartiles as a share of it.
/// `Ok(false)` when an end-to-end spread exceeds its bound.
pub fn spread(paths: &[String]) -> Result<bool, String> {
    if paths.len() < 2 {
        return Err("spread needs at least two result files".into());
    }
    let files = paths.iter().map(|p| load(p)).collect::<Result<Vec<_>, _>>()?;
    let mut within = true;
    println!("{:<20} {:<42} {:>12} {:>8} {:>7}", "workload", "metric", "median", "spread", "bound");
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let values: Vec<f64> =
                files.iter().filter_map(|f| end_to_end_value(f, w.name, m.name)).collect();
            if values.len() < 2 {
                continue;
            }
            let share = stats::quartile_spread(&values);
            // Set-up time is gated on its median only.
            within &= share <= m.bound || m.name == "setup_s";
            println!(
                "{:<20} {:<42} {:>12.4} {:>7.1}% {:>6.0}%{}",
                w.name,
                m.name,
                stats::median(&values),
                share * 100.0,
                m.bound * 100.0,
                if share > m.bound / 3.0 { "  above a third of the bound" } else { "" }
            );
        }
        for m in &PER_LAYER {
            let values: Vec<f64> = files
                .iter()
                .filter_map(|f| {
                    f.get("workloads")?
                        .get(w.name)?
                        .get("per_layer")?
                        .get(m.name)?
                        .get("value")?
                        .as_f64()
                })
                .collect();
            if values.len() < 2 || stats::median(&values) == 0.0 {
                continue;
            }
            println!(
                "{:<20} {:<42} {:>12.4} {:>7.1}%",
                w.name,
                m.name,
                stats::median(&values),
                stats::quartile_spread(&values) * 100.0
            );
        }
    }
    Ok(within)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_on_hand_made_inputs() {
        use Better::{Higher, Lower};
        // Throughput: lower is worse.
        assert_eq!(verdict(Higher, 0.10, Some(1000.0), Some(950.0), false), Verdict::Ok);
        assert_eq!(verdict(Higher, 0.10, Some(1000.0), Some(900.0), false), Verdict::Ok);
        assert_eq!(verdict(Higher, 0.10, Some(1000.0), Some(899.0), false), Verdict::Worse);
        assert_eq!(verdict(Higher, 0.10, Some(1000.0), Some(5000.0), false), Verdict::Ok);
        // Latency: higher is worse.
        assert_eq!(verdict(Lower, 0.25, Some(4.0), Some(5.0), false), Verdict::Ok);
        assert_eq!(verdict(Lower, 0.25, Some(4.0), Some(5.1), false), Verdict::Worse);
        assert_eq!(verdict(Lower, 0.25, Some(4.0), Some(0.4), false), Verdict::Ok);
        // A noisy host cannot convict, and cannot hide an improvement.
        assert_eq!(verdict(Lower, 0.25, Some(4.0), Some(5.1), true), Verdict::Unresolved);
        assert_eq!(verdict(Lower, 0.25, Some(4.0), Some(3.0), true), Verdict::Ok);
        // A metric missing from either file.
        assert_eq!(verdict(Lower, 0.25, None, Some(1.0), false), Verdict::Unresolved);
        assert_eq!(verdict(Lower, 0.25, Some(1.0), None, false), Verdict::Unresolved);
        assert_eq!(verdict(Lower, 0.25, Some(0.0), Some(1.0), false), Verdict::Unresolved);
    }

    #[test]
    fn a_failed_check_is_still_a_run_that_was_made() {
        assert!(made_its_run(Some(0)));
        assert!(made_its_run(Some(1)));
        // Bad arguments or a transport failure, a panic, a signal.
        assert!(!made_its_run(Some(2)));
        assert!(!made_its_run(Some(101)));
        assert!(!made_its_run(None));
    }

    #[test]
    fn worsening_is_signed_towards_worse() {
        assert_eq!(worsening(Better::Lower, 2.0, 3.0), 0.5);
        assert_eq!(worsening(Better::Lower, 2.0, 1.0), -0.5);
        assert_eq!(worsening(Better::Higher, 200.0, 100.0), 0.5);
        assert_eq!(worsening(Better::Higher, 200.0, 300.0), -0.5);
    }

    #[test]
    fn values_are_read_from_a_result_file() {
        let file = Json::parse(
            r#"{"workloads": {"statement_mix": {"end_to_end": {"ops_per_s": {"value": 812.5, "unit": "1/s"}},
                "detail": {"noisy_host": true}}}}"#,
        )
        .unwrap();
        assert_eq!(end_to_end_value(&file, "statement_mix", "ops_per_s"), Some(812.5));
        assert_eq!(end_to_end_value(&file, "statement_mix", "setup_s"), None);
        assert_eq!(end_to_end_value(&file, "cheque_durable", "ops_per_s"), None);
        assert!(noisy(&file, "statement_mix") && !noisy(&file, "cheque_durable"));
    }
}
