//! One run of one workload: set-up, warm-up, the measured phase (or,
//! for a traced run, untraced and traced turns of it), the output
//! checks, and the metrics.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use gridbank_core::{BankError, GridBankClient};

use crate::json::Json;
use crate::phase::{Phase, PhaseResult};
use crate::spec::{self, WorkloadSpec, END_TO_END, PER_LAYER};
use crate::workloads::{
    run_dir, Base, Checks, ChequeDurable, PayBefore, PayWordStream, Sizing, StatementMix, Workload,
};
use crate::world::World;
use crate::{alloc, probes, procfs, stats, trace, yardstick};

pub struct Plan {
    pub workload: &'static WorkloadSpec,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Tiny counts, invariants only, no metrics.
    pub smoke: bool,
    /// Whether a traced run also takes the isolated layer probes, which
    /// do not depend on the workload. `run` takes them once for all
    /// four and tells its traced runs to leave them out.
    pub isolated: bool,
}

pub struct Output {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`: the end-to-end metrics of an untraced run,
    /// the per-layer metrics of a traced one (without the isolated
    /// probes when the plan left them out); none of a smoke run.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Everything else worth keeping beside the metrics.
    pub detail: Json,
}

impl Output {
    /// The one line the contract asks for.
    pub fn result_line(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(name, value, unit)| {
                    (*name, Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]))
                })),
            ),
        ])
    }
}

pub fn run(plan: &Plan) -> Result<Output, String> {
    match plan.workload.name {
        "paybefore_pipelined" => execute::<PayBefore>(plan),
        "payword_stream" => execute::<PayWordStream>(plan),
        "cheque_durable" => execute::<ChequeDurable>(plan),
        "statement_mix" => execute::<StatementMix>(plan),
        other => Err(format!("no workload `{other}`")),
    }
}

fn sizing(plan: &Plan) -> Sizing {
    if plan.smoke {
        return Sizing {
            warmup_units: 2,
            measured_units: 24,
            signer_height: 8,
            prefill: (50, 2_000),
        };
    }
    Sizing {
        warmup_units: plan.workload.warmup_units,
        measured_units: plan.workload.measured_units(plan.seconds),
        signer_height: plan.workload.signer_height,
        prefill: (1_000, 100_000),
    }
}

/// The phases of a run, in unit order. An untraced run measures its
/// units in [`spec::SLICES`] equal slices. A traced run takes them in
/// turns — an eighth untraced, an eighth traced, four times over — so
/// the host's drift falls on both alike when the traced ops are set
/// against the untraced ones.
fn phases(sizing: &Sizing, traced: bool) -> (Phase, Vec<Phase>) {
    let warmup = Phase { first_unit: 0, units: sizing.warmup_units, traced: false };
    let count = if traced { 8 } else { spec::SLICES as u64 };
    let each = (sizing.measured_units / count).max(1);
    let phases = (0..count)
        .map(|i| Phase {
            first_unit: warmup.end() + i * each,
            units: each,
            traced: traced && i % 2 == 1,
        })
        .collect();
    (warmup, phases)
}

/// Refuses a run that would use more than [`spec::SIGNER_HEADROOM`] of
/// the bank's one-time signing keys: an exhausted signer refuses ops,
/// and a run must never be shortened silently to dodge that.
fn signer_guard(needed: u64, height: usize) -> Result<(), String> {
    let capacity = 1u64 << height;
    if needed as f64 > spec::SIGNER_HEADROOM * capacity as f64 {
        return Err(format!(
            "this run needs {needed} bank signatures, more than {:.0}% of the {capacity} a \
             signer of height {height} has: lower --seconds",
            spec::SIGNER_HEADROOM * 100.0
        ));
    }
    Ok(())
}

/// A workload set up and ready for its first op.
struct Ready<W: Workload> {
    workload: W,
    lanes: Vec<W::Lane>,
    /// Where its store is, if it has one.
    dir: PathBuf,
    /// Seconds each set-up round took, and within it the cold boot to
    /// the first answered RPC.
    setup_s: Vec<f64>,
    boot_s: Vec<f64>,
}

/// Sets the workload up — several times on an untraced run, so that
/// `setup_s` is a median; the last world built is the one that runs.
fn set_up<W: Workload>(plan: &Plan, sizing: &Sizing) -> Result<Ready<W>, String> {
    let rounds = if plan.trace || plan.smoke { 1 } else { spec::SETUP_ROUNDS };
    let (mut setup_s, mut boot_s) = (Vec::new(), Vec::new());
    let mut live: Option<(W, Vec<W::Lane>, PathBuf)> = None;
    for round in 0..rounds {
        if let Some((workload, lanes, dir)) = live.take() {
            drop(lanes);
            workload.into_base().world.kill()?;
            let _ = std::fs::remove_dir_all(dir);
        }
        let dir = run_dir(plan.workload.name, plan.seed, round);
        let _ = std::fs::remove_dir_all(&dir);
        let started = Instant::now();
        let (workload, lanes) = W::setup(plan.seed, sizing, &dir)?;
        setup_s.push(started.elapsed().as_secs_f64());
        boot_s.push(workload.base().boot_s);
        live = Some((workload, lanes, dir));
    }
    let (workload, lanes, dir) = live.expect("at least one set-up round");
    Ok(Ready { workload, lanes, dir, setup_s, boot_s })
}

/// What the phases after the warm-up measured.
struct Measured {
    results: Vec<(Phase, PhaseResult)>,
    /// The host's speed before each phase and after the last.
    host: Vec<yardstick::Reading>,
    /// For each phase, the factors that take its times to the reference
    /// host, from the two readings around it.
    scale: Vec<Scale>,
    /// Counts taken around the traced phases.
    traced: TracedCounts,
    /// The program's own metrics, recorded while telemetry was on.
    registry: gridbank_obs::metrics::Snapshot,
}

/// The factors that take a phase's times to the reference host.
#[derive(Clone, Copy)]
struct Scale {
    /// For times a caller waits: latencies, seconds per op.
    wall: f64,
    /// For CPU time, which the hypervisor taking a core away does not
    /// lengthen.
    cpu: f64,
}

impl Measured {
    /// The traced phases, or the untraced ones, each with its scales.
    fn phases(&self, traced: bool) -> impl Iterator<Item = (&PhaseResult, Scale)> {
        let phases = self.results.iter().zip(&self.scale);
        phases.filter(move |((p, _), _)| p.traced == traced).map(|((_, r), scale)| (r, *scale))
    }

    /// The latencies of those phases' ops, each at the reference host's
    /// speed as read around its phase; ascending, nanoseconds.
    fn scaled_latencies_ns(&self, traced: bool) -> Vec<u64> {
        let mut all: Vec<u64> = self
            .phases(traced)
            .flat_map(|(r, scale)| {
                r.samples.iter().map(move |s| (s.latency_ns as f64 * scale.wall) as u64)
            })
            .collect();
        all.sort_unstable();
        all
    }

    /// Median over those phases of a per-phase time, `scaled` to the
    /// reference host's speed.
    fn median_time(&self, traced: bool, scaled: impl Fn(&PhaseResult, Scale) -> f64) -> f64 {
        stats::median(&self.phases(traced).map(|(r, scale)| scaled(r, scale)).collect::<Vec<_>>())
    }
}

#[derive(Default)]
struct TracedCounts {
    signatures: f64,
    allocations: f64,
    allocated_bytes: f64,
}

/// Runs the phases. Telemetry and the counting allocator are on, and the
/// signer's leaves are counted, around the traced ones only.
fn measure<W: Workload>(ready: &mut Ready<W>, phases: &[Phase]) -> Result<Measured, String> {
    let signer = &ready.workload.base().world.bank.signer;
    let mut results = Vec::new();
    let mut traced = TracedCounts::default();
    let threads = ready.lanes.len();
    let mut host = vec![yardstick::read(threads)];
    gridbank_obs::registry().reset();
    for phase in phases {
        gridbank_obs::set_telemetry(phase.traced);
        alloc::set_counting(phase.traced);
        let (leaves_before, allocs_before) = (signer.remaining(), alloc::totals());
        let result = ready.workload.run(&mut ready.lanes, *phase);
        let (leaves_after, allocs_after) = (signer.remaining(), alloc::totals());
        alloc::set_counting(false);
        gridbank_obs::set_telemetry(false);
        if phase.traced {
            traced.signatures += (leaves_before - leaves_after) as f64;
            traced.allocations += (allocs_after.0 - allocs_before.0) as f64;
            traced.allocated_bytes += (allocs_after.1 - allocs_before.1) as f64;
        }
        results.push((*phase, result?));
        host.push(yardstick::read(threads));
    }
    let registry = gridbank_obs::registry().snapshot();
    // The program's own span buffer is not read here; let it go.
    drop(gridbank_obs::trace::take_spans());
    let scale = host
        .windows(2)
        .map(|around| Scale {
            wall: yardstick::time_scale(around[0].wall_ns, around[1].wall_ns),
            cpu: yardstick::time_scale(around[0].cpu_ns, around[1].cpu_ns),
        })
        .collect();
    Ok(Measured { results, host, scale, traced, registry })
}

/// Kills a durable bank and reopens its store [`spec::RESTART_ROUNDS`]
/// times, checking each time that nothing was lost. Returns the seconds
/// from each kill to the first answered RPC.
fn kill_and_reopen(plan: &Plan, base: Base, checks: &mut Checks) -> Result<Vec<f64>, String> {
    let db = base.world.bank.accounts.db();
    let (digest, funds) = (db.state_digest(), base.world.bank.total_funds());
    let Base { world, bank_spec, first, .. } = base;
    let mut ca = world.kill()?;
    let mut restart_s = Vec::new();
    for _ in 0..if plan.smoke { 1 } else { spec::RESTART_ROUNDS } {
        let (world, mut client, seconds) =
            World::boot_to_serving(plan.seed, ca, &bank_spec, &first)?;
        restart_s.push(seconds);
        check_reopened(&world, &mut client, digest, funds, checks);
        drop(client);
        ca = world.kill()?;
    }
    Ok(restart_s)
}

fn execute<W: Workload>(plan: &Plan) -> Result<Output, String> {
    let name = plan.workload.name;
    let sizing = sizing(plan);
    let (warmup, phases) = phases(&sizing, plan.trace);
    let last_unit = phases.last().map_or(warmup.end(), Phase::end);
    let signatures_planned = W::signatures(plan.seed, 0, last_unit);
    signer_guard(signatures_planned, sizing.signer_height)?;

    gridbank_obs::set_telemetry(false);
    let mut ready = set_up::<W>(plan, &sizing)?;
    let bank = Arc::clone(&ready.workload.base().world.bank);
    let capacity = bank.signer.remaining();
    let warm = ready.workload.run(&mut ready.lanes, warmup)?;
    let mut measured = measure(&mut ready, &phases)?;

    // Output checks.
    let mut checks = Checks::default();
    let results = &measured.results;
    let failed: u64 = warm.failed + results.iter().map(|(_, r)| r.failed).sum::<u64>();
    let attempted: u64 = warm.attempted() + results.iter().map(|(_, r)| r.attempted()).sum::<u64>();
    checks.that("no op was refused", failed == 0, || format!("{failed} of {attempted} ops failed"));
    let (funds, deposited) = (bank.total_funds(), ready.workload.base().deposited);
    checks.that("funds are conserved", funds == deposited, || {
        format!("the bank holds {funds}, {deposited} was deposited")
    });
    let locked = bank.all_accounts().iter().filter(|a| !a.locked.is_zero()).count();
    checks.that("no funds stay locked behind a redeemed instrument", locked == 0, || {
        format!("{locked} accounts still hold locked funds")
    });
    ready.workload.check(&ready.lanes, &mut checks);
    let signatures_used = capacity - bank.signer.remaining();
    drop(bank);

    // Tear down; a durable bank is reopened first.
    let Ready { workload, lanes, dir, setup_s, boot_s } = ready;
    drop(lanes);
    let base = workload.into_base();
    let restart_s = if base.bank_spec.store.is_some() {
        kill_and_reopen(plan, base, &mut checks)?
    } else {
        base.world.kill()?;
        boot_s
    };
    let _ = std::fs::remove_dir_all(&dir);
    // The host is called noisy when its speed at the end of the phases
    // is more than a tenth off its speed at their start.
    let host = &measured.host;
    let (first, last) = (host[0].wall_ns, host[host.len() - 1].wall_ns);
    let noisy_host = (first - last).abs() > 0.1 * first.min(last);

    for (check, ok, why) in &checks.0 {
        let (mark, colon) = if *ok { ("ok  ", "") } else { ("FAIL", ": ") };
        eprintln!("[{name}] {mark} {check}{colon}{why}");
    }
    let numbers = |v: &[f64]| Json::Arr(v.iter().map(|x| Json::Num(*x)).collect());
    let mut detail = vec![
        ("workload", Json::str(name)),
        ("seed", Json::Num(plan.seed as f64)),
        ("seconds", Json::Num(plan.seconds as f64)),
        ("traced", Json::Bool(plan.trace)),
        (
            "measured_ops_planned",
            Json::Num((sizing.measured_units * plan.workload.ops_per_unit) as f64),
        ),
        ("client_threads", Json::Num(crate::world::client_threads() as f64)),
        ("server_workers", Json::Num(crate::world::cores() as f64)),
        ("signer_leaves_used", Json::Num(signatures_used as f64)),
        ("signer_leaves_planned", Json::Num(signatures_planned as f64)),
        ("signer_capacity", Json::Num(capacity as f64)),
        ("host_block_ns", numbers(&host.iter().map(|h| h.wall_ns).collect::<Vec<_>>())),
        ("host_block_cpu_ns", numbers(&host.iter().map(|h| h.cpu_ns).collect::<Vec<_>>())),
        ("noisy_host", Json::Bool(noisy_host)),
        (
            "checks",
            Json::Arr(
                checks
                    .0
                    .iter()
                    .map(|(check, ok, why)| {
                        Json::obj([
                            ("check", Json::str(check)),
                            ("ok", Json::Bool(*ok)),
                            ("why", Json::str(why)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ];

    let mut metrics = Vec::new();
    if plan.smoke {
        // Invariants only.
    } else if plan.trace {
        let spans: Vec<Vec<trace::Span>> =
            measured.results.iter_mut().flat_map(|(_, r)| std::mem::take(&mut r.spans)).collect();
        let path = Path::new("benchmark/out").join(format!("trace-{name}.jsonl"));
        trace::write_jsonl(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut budget = probes::Budget::new();
        if plan.isolated {
            let scratch = run_dir("probes", plan.seed, 0);
            budget = probes::isolated(plan.seed, &scratch)?;
            let _ = std::fs::remove_dir_all(&scratch);
        }
        traced_budget(&measured, &spans, &mut budget);
        budget.insert("bench.restart_to_serving_s", stats::median(&restart_s));
        for layer in &PER_LAYER {
            match budget.get(layer.name) {
                Some(value) => metrics.push((layer.name, *value, layer.unit)),
                None if plan.isolated => return Err(format!("no value for {}", layer.name)),
                None => {}
            }
        }
        detail.push(("trace_file", Json::str(path.display().to_string())));
        detail.push(("traced_ops", Json::Num(Turns::of(&measured, true).ops)));
    } else {
        // The host this runs on is shared: it slows down and speeds up
        // by a fifth over minutes, and every workload and the yardstick
        // loop do so together. So each slice's times are scaled, by the
        // yardstick readings on either side of it, to a reference host.
        // Interference also comes in short bursts, so throughput and
        // CPU per op are medians over the slices; the percentiles are
        // taken over all the run's ops, so that enough lie beyond them.
        let latencies = measured.scaled_latencies_ns(false);
        if stats::samples_beyond(latencies.len(), GATED_TAIL) < 10 {
            return Err(format!(
                "{} samples leave fewer than ten beyond the gated percentile: raise --seconds",
                latencies.len()
            ));
        }
        let ms = |share: f64| stats::percentile(&latencies, share) as f64 / 1e6;
        let seconds_per_op =
            measured.median_time(false, |r, scale| r.wall_s / r.acknowledged() as f64 * scale.wall);
        let cpu_ms_per_op = |r: &PhaseResult| r.cpu_s * 1e3 / r.acknowledged() as f64;
        let values = [
            1.0 / seconds_per_op,
            ms(0.5),
            ms(GATED_TAIL),
            measured.median_time(false, |r, scale| cpu_ms_per_op(r) * scale.cpu),
            stats::median(&setup_s),
            procfs::peak_rss_mib()?,
        ];
        metrics.extend(END_TO_END.iter().zip(values).map(|(m, v)| (m.name, v, m.unit)));
        let raw = |f: &dyn Fn(&PhaseResult) -> f64| {
            numbers(&measured.results.iter().map(|(_, r)| f(r)).collect::<Vec<_>>())
        };
        let slice_ms = |r: &PhaseResult, share: f64| {
            stats::percentile(&r.sorted_latencies_ns(), share) as f64 / 1e6
        };
        detail.extend([
            ("latency_samples", Json::Num(latencies.len() as f64)),
            // Kept, not gated: on the host this was built on, their
            // spread between runs of one commit reaches the largest
            // bound a metric may have.
            ("latency_p99_ms", Json::Num(ms(0.99))),
            ("restart_to_serving_s", Json::Num(stats::median(&restart_s))),
            // As measured, slice by slice.
            ("slice_ops_per_s", raw(&|r| r.ops_per_s())),
            ("slice_p50_ms", raw(&|r| slice_ms(r, 0.5))),
            ("slice_p95_ms", raw(&|r| slice_ms(r, GATED_TAIL))),
            ("slice_cpu_ms_per_op", raw(&cpu_ms_per_op)),
            ("setup_s_each", numbers(&setup_s)),
            ("restart_s_each", numbers(&restart_s)),
        ]);
    }
    Ok(Output { correct: checks.all_pass(), attempted, failed, metrics, detail: Json::obj(detail) })
}

/// The tail percentile that is gated. The 99th has its ten samples
/// beyond it as well, but between runs of one commit it spreads as wide
/// as the largest bound a metric may have; it is kept in the detail.
const GATED_TAIL: f64 = 0.95;

/// The reopened bank must be the bank that was killed.
fn check_reopened(
    world: &World,
    client: &mut GridBankClient,
    digest: u64,
    funds: gridbank_rur::Credits,
    checks: &mut Checks,
) {
    let answered: Result<_, BankError> = client.my_account();
    checks.that("the reopened bank knows its first caller", answered.is_ok(), || {
        answered.as_ref().map_or_else(ToString::to_string, |_| String::new())
    });
    let db = world.bank.accounts.db();
    let (digest_now, funds_now) = (db.state_digest(), world.bank.total_funds());
    checks.that("state digest survives the kill", digest_now == digest, || {
        format!("{digest:#x} before, {digest_now:#x} after")
    });
    checks.that("funds survive the kill", funds_now == funds, || {
        format!("{funds} before, {funds_now} after")
    });
    let locked = world.bank.all_accounts().iter().filter(|a| !a.locked.is_zero()).count();
    checks
        .that("no funds are locked after the reopen", locked == 0, || format!("{locked} accounts"));
    let recovered = world.recovery.as_ref().is_some_and(|r| r.accounts > 0);
    checks.that("recovery found the accounts", recovered, || format!("{:?}", world.recovery));
}

/// The traced, or the untraced, turns of a traced run taken together.
struct Turns {
    ops: f64,
    /// At the reference host's speed, turn by turn: the host drifts
    /// between one turn and the next by more than the spans cost.
    wall_s: f64,
}

impl Turns {
    fn of(measured: &Measured, traced: bool) -> Turns {
        measured.phases(traced).fold(Turns { ops: 0.0, wall_s: 0.0 }, |t, (r, scale)| Turns {
            ops: t.ops + r.acknowledged() as f64,
            wall_s: t.wall_s + r.wall_s * scale.wall,
        })
    }

    fn ops_per_s(&self) -> f64 {
        self.ops / self.wall_s
    }
}

/// The per-layer numbers that come from the traced phases themselves.
fn traced_budget(measured: &Measured, spans: &[Vec<trace::Span>], b: &mut probes::Budget) {
    let (baseline, traced) = (Turns::of(measured, false), Turns::of(measured, true));
    let (extras, registry) = (&measured.traced, &measured.registry);
    let ops = traced.ops.max(1.0);
    let spans = trace::summarize(spans);
    let duration = |name: &str| spans.get(name).map_or(0.0, |(total, _)| *total);
    // A call type the workload never makes spent no time: 0.
    for (metric, span) in [
        ("core.client.call_us.direct_transfer", "core.client.call.direct_transfer"),
        ("core.client.call_us.request_cheque", "core.client.call.request_cheque"),
        ("core.client.call_us.redeem_cheque", "core.client.call.redeem_cheque"),
        ("core.client.call_us.request_hash_chain", "core.client.call.request_hash_chain"),
        ("core.client.call_us.redeem_payword", "core.client.call.redeem_payword"),
        ("core.client.call_us.statement", "core.client.call.statement"),
        ("core.client.send_us", "core.client.send"),
        ("core.client.recv_wait_us", "core.client.recv_wait"),
    ] {
        b.insert(metric, duration(span));
    }
    b.insert("bench.op_self_us", spans.get("op").map_or(0.0, |(_, own)| *own));
    for (metric, histogram) in [
        ("core.server.stage_us.queue", "server.stage.queue_ns"),
        ("core.server.stage_us.decode", "server.stage.decode_ns"),
        ("core.server.stage_us.dispatch", "server.stage.dispatch_ns"),
        ("core.server.stage_us.lock", "server.stage.lock_ns"),
        ("core.server.stage_us.journal", "server.stage.journal_ns"),
        ("core.server.stage_us.reply", "server.stage.reply_ns"),
    ] {
        b.insert(metric, registry.histogram(histogram).map_or(0.0, |h| h.mean() / 1e3));
    }
    b.insert(
        "core.store.flushes_per_op",
        registry.counter("db.journal.flushes").unwrap_or(0) as f64 / ops,
    );
    b.insert(
        "core.store.batch_size_mean",
        registry.histogram("db.journal.batch_size").map_or(0.0, |h| h.mean()),
    );
    b.insert("bench.alloc_count_per_op", extras.allocations / ops);
    b.insert("bench.alloc_bytes_per_op", extras.allocated_bytes / ops);
    b.insert("bench.signatures_per_op", extras.signatures / ops);
    b.insert("bench.trace_overhead_share", 1.0 - traced.ops_per_s() / baseline.ops_per_s());
    let untraced_ns = measured.scaled_latencies_ns(false);
    b.insert("bench.latency_p99_ms", stats::percentile(&untraced_ns, 0.99) as f64 / 1e6);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::Sample;

    #[test]
    fn signer_guard_refuses_above_ninety_percent() {
        assert!(signer_guard(921, 10).is_ok());
        assert!(signer_guard(922, 10).is_err());
        assert!(signer_guard(0, 4).is_ok());
        let refusal = signer_guard(5000, 12).unwrap_err();
        assert!(refusal.contains("5000") && refusal.contains("4096"), "{refusal}");
    }

    #[test]
    fn frozen_sizes_fit_their_signers() {
        for w in &spec::WORKLOADS {
            let plan = Plan {
                workload: w,
                seed: 42,
                seconds: spec::RUN_SECONDS,
                trace: false,
                smoke: false,
                isolated: true,
            };
            let s = sizing(&plan);
            let units = s.warmup_units + s.measured_units;
            let signatures = match w.name {
                "statement_mix" => StatementMix::signatures(plan.seed, 0, units),
                // One signature per unit on the other three.
                _ => units,
            };
            signer_guard(signatures, s.signer_height).unwrap_or_else(|e| panic!("{}: {e}", w.name));
            let ops = s.measured_units * w.ops_per_unit;
            assert!(stats::samples_beyond(ops as usize, GATED_TAIL) >= 10, "{}: {ops} ops", w.name);
        }
    }

    #[test]
    fn times_are_taken_to_the_reference_host_phase_by_phase() {
        let phase = |traced, latencies_ns: &[u64], wall_s| {
            let samples = latencies_ns.iter().map(|&l| Sample { end_ns: l, latency_ns: l });
            let result = PhaseResult {
                wall_s,
                cpu_s: 0.0,
                samples: samples.collect(),
                failed: 0,
                spans: Vec::new(),
            };
            (Phase { first_unit: 0, units: 0, traced }, result)
        };
        let measured = Measured {
            results: vec![
                phase(false, &[100, 300], 4.0),
                phase(true, &[1000], 1.0),
                phase(false, &[90, 110], 1.0),
            ],
            host: Vec::new(),
            // Around the first phase the host ran at half the reference
            // speed by the wall clock, a core having been taken away
            // half the time, and at four fifths of it by CPU time; at
            // the reference speed around the other two.
            scale: vec![
                Scale { wall: 0.5, cpu: 0.8 },
                Scale { wall: 1.0, cpu: 1.0 },
                Scale { wall: 1.0, cpu: 1.0 },
            ],
            traced: TracedCounts::default(),
            registry: gridbank_obs::registry().snapshot(),
        };
        assert_eq!(measured.scaled_latencies_ns(false), [50, 90, 110, 150]);
        assert_eq!(measured.scaled_latencies_ns(true), [1000]);
        assert_eq!(measured.median_time(false, |r, scale| r.wall_s * scale.wall), 1.5);
        assert_eq!(measured.median_time(false, |r, scale| r.wall_s * scale.cpu), 2.1);
        let untraced = Turns::of(&measured, false);
        assert_eq!((untraced.ops, untraced.wall_s), (4.0, 3.0));
        assert_eq!(Turns::of(&measured, true).ops_per_s(), 1.0);
    }

    #[test]
    fn a_traced_run_spends_half_the_units_in_alternating_eighths() {
        let s =
            Sizing { warmup_units: 10, measured_units: 400, signer_height: 10, prefill: (1, 1) };
        let (warm, rest) = phases(&s, true);
        assert_eq!((warm.first_unit, warm.units), (0, 10));
        let turns: Vec<_> = rest.iter().map(|p| (p.first_unit, p.units, p.traced)).collect();
        assert_eq!(turns.len(), 8);
        assert_eq!(turns[..3], [(10, 50, false), (60, 50, true), (110, 50, false)]);
        assert_eq!(turns[7], (360, 50, true));
        let (_, slices) = phases(&s, false);
        assert_eq!(slices.len(), spec::SLICES);
        assert!(slices.iter().all(|p| p.units == 33 && !p.traced));
        assert_eq!((slices[0].first_unit, slices[11].first_unit), (10, 10 + 11 * 33));
    }
}
