//! `gridbank-bench` — the load-generation harness (EXPERIMENTS.md E16).
//!
//! `gridbank-bench loadgen` drives the Figure-1 payment flow against a
//! *real* `GridBankServer` (authenticated handshakes, secure channels,
//! pipelined RPC, bounded worker pool, group-commit journal) and reports
//! end-to-end throughput plus p50/p95/p99 latency per payment strategy,
//! sourced from `gridbank-obs` histograms. Results land in
//! `BENCH_payments.json`. Methodology and schema: `docs/BENCHMARKS.md`.

use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use gridbank_core::client::GridBankClient;
use gridbank_core::server::{GridBankConfig, ServerTuning};
use gridbank_core::BankError;
use gridbank_crypto::cert::SubjectName;
use gridbank_crypto::keys::KeyMaterial;
use gridbank_rur::record::{ChargeableItem, RurBuilder, UsageAmount};
use gridbank_rur::units::Duration as RurDuration;
use gridbank_rur::Credits;
use gridbank_sim::deploy::{DeployConfig, Deployment};

/// One payment strategy from §3.1 / Figure 1.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Strategy {
    /// Pay-before-use: a keyed `DirectTransfer` per op (pipelines).
    PayBefore,
    /// Pay-after-use: request + redeem one GridCheque per op.
    Cheque,
    /// Pay-as-you-go: issue a short GridHash chain and redeem it.
    PayWord,
}

impl Strategy {
    fn name(self) -> &'static str {
        match self {
            Strategy::PayBefore => "paybefore",
            Strategy::Cheque => "cheque",
            Strategy::PayWord => "payword",
        }
    }

    fn parse(s: &str) -> Option<Strategy> {
        match s {
            "paybefore" => Some(Strategy::PayBefore),
            "cheque" => Some(Strategy::Cheque),
            "payword" => Some(Strategy::PayWord),
            _ => None,
        }
    }
}

/// Loadgen run configuration (see `docs/BENCHMARKS.md` for semantics).
struct LoadgenConfig {
    /// `closed` (fixed concurrency) or `open` (fixed arrival rate).
    mode: String,
    /// Measured window per strategy, after warmup.
    duration_ms: u64,
    /// Unrecorded lead-in per strategy.
    warmup_ms: u64,
    /// Concurrent client connections per strategy.
    clients: usize,
    /// In-flight requests per connection (closed loop, paybefore only —
    /// the cheque/payword cycles are request/response pairs).
    pipeline: usize,
    /// Total target ops/sec across clients (open loop only).
    rate: u64,
    /// Strategies to run, in order.
    strategies: Vec<Strategy>,
    /// Seed for certificate keys and idempotency-key spacing.
    seed: u64,
    /// Bank MSS signer height (capacity = 2^height instruments).
    signer_height: usize,
    /// Server worker pool size.
    workers: usize,
    /// Federated branches (1 = single-bank; N > 1 adds a cross-branch
    /// paybefore phase against live federated servers plus a timed
    /// settlement pass).
    branches: usize,
    /// Server-side telemetry: `true` fills the `server_stages` section
    /// from the `server.stage.*` histograms; `false` measures the bare
    /// pipeline (EXPERIMENTS.md E18).
    telemetry: bool,
    /// Repetitions per measured phase; throughput reports mean ±
    /// stddev across runs.
    runs: usize,
    /// Run the market-economy scenario (auctions + barter + PayWord
    /// streams through live federated servers) and emit a `market`
    /// section with its invariant evidence.
    market: bool,
    /// Run the kill/restart drill (`gridbank_sim::run_recovery`) and
    /// emit a `recovery` section: restart-to-serving time plus the
    /// tail-only-replay and conservation evidence (EXPERIMENTS.md E19).
    recovery: bool,
    /// Output path.
    out: String,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            mode: "closed".into(),
            duration_ms: 500,
            warmup_ms: 150,
            clients: 2,
            pipeline: 8,
            rate: 2_000,
            strategies: vec![Strategy::PayBefore, Strategy::Cheque, Strategy::PayWord],
            seed: 42,
            signer_height: 15,
            workers: 4,
            branches: 1,
            telemetry: true,
            runs: 1,
            market: false,
            recovery: false,
            out: "BENCH_payments.json".into(),
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: gridbank-bench loadgen [options]\n\
         \n\
         Drives the Figure-1 payment flow against a live in-process\n\
         GridBank server and writes BENCH_payments.json.\n\
         \n\
         options:\n\
           --mode closed|open      closed loop (default) or open loop\n\
           --duration-ms N         measured window per strategy (default 500)\n\
           --warmup-ms N           unrecorded lead-in (default 150)\n\
           --clients N             concurrent connections (default 2)\n\
           --pipeline N            in-flight requests per connection (default 8)\n\
           --rate N                open-loop target ops/sec (default 2000)\n\
           --strategies a,b,c      paybefore,cheque,payword (default all)\n\
           --seed N                deterministic key seed (default 42)\n\
           --signer-height N       bank signing capacity 2^N (default 15)\n\
           --workers N             server worker pool size (default 4)\n\
           --branches N            federated branches; N>1 adds a\n\
                                   cross-branch phase + settlement pass (default 1)\n\
           --telemetry on|off      server-side stage timing; off measures the\n\
                                   bare pipeline, E18 (default on)\n\
           --runs N                repetitions per measured phase; throughput\n\
                                   reports mean ± stddev across runs (default 1)\n\
           --market                also run the market-economy scenario\n\
                                   (auctions, barter, PayWord streams) and emit\n\
                                   a `market` section with invariant evidence\n\
           --recovery              also run the kill/restart drill against a\n\
                                   durable store and emit a `recovery` section\n\
                                   (restart-to-serving ms, tail-only replay)\n\
           --out PATH              output file (default BENCH_payments.json)\n\
         \n\
         See docs/BENCHMARKS.md for methodology."
    );
    std::process::exit(2);
}

fn parse_args(args: &[String]) -> LoadgenConfig {
    let mut cfg = LoadgenConfig::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage()).clone();
        match flag.as_str() {
            "--mode" => {
                cfg.mode = value();
                if cfg.mode != "closed" && cfg.mode != "open" {
                    usage();
                }
            }
            "--duration-ms" => cfg.duration_ms = value().parse().unwrap_or_else(|_| usage()),
            "--warmup-ms" => cfg.warmup_ms = value().parse().unwrap_or_else(|_| usage()),
            "--clients" => cfg.clients = value().parse().unwrap_or_else(|_| usage()),
            "--pipeline" => cfg.pipeline = value().parse().unwrap_or_else(|_| usage()),
            "--rate" => cfg.rate = value().parse().unwrap_or_else(|_| usage()),
            "--strategies" => {
                cfg.strategies = value()
                    .split(',')
                    .map(|s| Strategy::parse(s.trim()).unwrap_or_else(|| usage()))
                    .collect();
            }
            "--seed" => cfg.seed = value().parse().unwrap_or_else(|_| usage()),
            "--signer-height" => cfg.signer_height = value().parse().unwrap_or_else(|_| usage()),
            "--workers" => cfg.workers = value().parse().unwrap_or_else(|_| usage()),
            "--branches" => cfg.branches = value().parse().unwrap_or_else(|_| usage()),
            "--telemetry" => {
                cfg.telemetry = match value().as_str() {
                    "on" => true,
                    "off" => false,
                    _ => usage(),
                }
            }
            "--runs" => cfg.runs = value().parse().unwrap_or_else(|_| usage()),
            "--market" => cfg.market = true,
            "--recovery" => cfg.recovery = true,
            "--out" => cfg.out = value(),
            _ => usage(),
        }
    }
    if cfg.clients == 0
        || cfg.pipeline == 0
        || cfg.duration_ms == 0
        || cfg.strategies.is_empty()
        || cfg.branches == 0
        || cfg.runs == 0
    {
        usage();
    }
    cfg
}

/// Sample mean and (population) standard deviation.
fn mean_stddev(xs: &[f64]) -> (f64, f64) {
    let n = xs.len().max(1) as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// Boots the deployment under load (DESIGN.md §4 "Booting a bank"):
/// `--branches` live servers, federated when there is more than one.
fn start_world(cfg: &LoadgenConfig) -> Deployment {
    Deployment::boot(DeployConfig {
        seed: cfg.seed,
        // 2^8 = 256 certificate issues: three per client thread (payer,
        // payee, admin) plus the banks' own — plenty for any sane
        // --clients.
        ca_height: 8,
        tuning: ServerTuning {
            workers: cfg.workers,
            queue_depth: (cfg.clients * cfg.pipeline * 2).max(64),
            max_connections: (cfg.clients * 4).max(64),
        },
        ..DeployConfig::federated(cfg.branches as u16, |b| GridBankConfig {
            signer_height: cfg.signer_height,
            key_material: KeyMaterial { seed: 0xB4A2 ^ (b as u64) },
            ..GridBankConfig::default()
        })
    })
    .expect("deployment boots")
}

fn connect(w: &Deployment, cn: &str, seed: u64, branch: u16) -> GridBankClient {
    let dn = SubjectName::new("Load", "Gen", cn);
    let mut identity = w.identity(dn, seed).expect("client certificate");
    identity.connect(branch).unwrap_or_else(|e| panic!("{cn} connects: {e}"))
}

fn rur(payee_cert: &str) -> gridbank_rur::ResourceUsageRecord {
    RurBuilder::default()
        .user("h", "/O=Load/OU=Gen/CN=payer")
        .job("j", "a", 0, 3_600_000)
        .resource("r", payee_cert, None, 1)
        .line(
            ChargeableItem::Cpu,
            UsageAmount::Time(RurDuration::from_hours(1)),
            Credits::from_gd(1),
        )
        .build()
        .expect("well-formed RUR")
}

/// Per-thread worker state: one payer connection, one payee connection
/// (the cheque/payword redeeming side), their accounts, and a private
/// idempotency-key range.
struct Payer {
    payer: GridBankClient,
    payee: GridBankClient,
    payee_cert: String,
    payee_account: gridbank_core::AccountId,
    next_key: u64,
}

fn setup_payer(w: &Deployment, strategy: Strategy, thread: usize, seed: u64) -> Payer {
    let tag = format!("{}-{thread}", strategy.name());
    let mut payer = connect(w, &format!("payer-{tag}"), seed ^ (thread as u64 * 2 + 11), 1);
    let payer_account = payer.create_account(None).expect("payer account");
    let payee_cn = format!("payee-{tag}");
    let mut payee = connect(w, &payee_cn, seed ^ (thread as u64 * 2 + 12), 1);
    let payee_account = payee.create_account(None).expect("payee account");
    let mut ops = w.admin(1).expect("operator connects");
    ops.admin_deposit(payer_account, Credits::from_gd(10_000_000)).expect("funding");
    Payer {
        payer,
        payee,
        payee_cert: format!("/O=Load/OU=Gen/CN={payee_cn}"),
        payee_account,
        next_key: (seed << 20) ^ ((thread as u64) << 40),
    }
}

/// Runs one complete payment and returns `Ok` on success. Transport
/// errors abort the worker (`Err`); bank-level refusals count as op
/// errors (`Ok(false)`).
fn run_op(p: &mut Payer, strategy: Strategy) -> Result<bool, BankError> {
    let outcome = match strategy {
        Strategy::PayBefore => {
            p.next_key += 1;
            p.payer
                .call_keyed(
                    Some(p.next_key),
                    &gridbank_core::BankRequest::DirectTransfer {
                        to: p.payee_account,
                        amount: Credits::from_micro(100),
                        recipient_address: "payee.host".into(),
                    },
                )
                .map(|_| ())
        }
        Strategy::Cheque => p
            .payer
            .request_cheque(&p.payee_cert, Credits::from_gd(2), 1_000_000)
            .and_then(|cheque| p.payee.redeem_cheque(cheque, rur(&p.payee_cert)))
            .map(|_| ()),
        Strategy::PayWord => p
            .payer
            .request_hash_chain(&p.payee_cert, 4, Credits::from_micro(100), 1_000_000)
            .and_then(|chain| {
                let word = chain.payword(4)?;
                p.payee.redeem_payword(
                    chain.commitment.clone(),
                    chain.signature.clone(),
                    word,
                    vec![],
                )
            })
            .map(|_| ()),
    };
    match outcome {
        Ok(()) => Ok(true),
        // Channel/protocol failures poison the connection: stop the
        // worker rather than reporting garbage.
        Err(e @ (BankError::Net(_) | BankError::Protocol(_))) => Err(e),
        Err(_) => Ok(false),
    }
}

struct StrategyResult {
    strategy: Strategy,
    ops: u64,
    errors: u64,
    elapsed: Duration,
}

/// One strategy's results aggregated across `--runs` repetitions.
struct StrategyAgg {
    strategy: Strategy,
    /// Totals across all runs.
    ops: u64,
    errors: u64,
    elapsed: Duration,
    /// Per-run throughput samples (ops/s).
    throughputs: Vec<f64>,
}

/// Closed loop: every worker keeps a constant number of requests in
/// flight (pipelined for pay-before, request/response cycles otherwise)
/// for the whole window. Throughput is "as fast as the system allows" at
/// that concurrency; latency is send-to-response per op.
fn run_closed(
    w: &Deployment,
    cfg: &LoadgenConfig,
    strategy: Strategy,
    run: usize,
) -> StrategyResult {
    let hist = gridbank_obs::registry().histogram(&format!("loadgen.op_ns.{}", strategy.name()));
    let ops = AtomicU64::new(0);
    let errors = AtomicU64::new(0);
    let start = Instant::now();
    let warmup_end = start + Duration::from_millis(cfg.warmup_ms);
    let deadline = warmup_end + Duration::from_millis(cfg.duration_ms);
    std::thread::scope(|scope| {
        for thread in 0..cfg.clients {
            let (hist, ops, errors) = (&hist, &ops, &errors);
            let mut p = setup_payer(w, strategy, run * cfg.clients + thread, cfg.seed);
            scope.spawn(move || {
                while Instant::now() < deadline {
                    if strategy == Strategy::PayBefore && cfg.pipeline > 1 {
                        // One pipelined window of keyed transfers.
                        let mut window = Vec::with_capacity(cfg.pipeline);
                        for _ in 0..cfg.pipeline {
                            p.next_key += 1;
                            let sent = Instant::now();
                            match p.payer.send_pipelined(
                                Some(p.next_key),
                                &gridbank_core::BankRequest::DirectTransfer {
                                    to: p.payee_account,
                                    amount: Credits::from_micro(100),
                                    recipient_address: "payee.host".into(),
                                },
                            ) {
                                Ok(id) => window.push((id, sent)),
                                Err(_) => return,
                            }
                        }
                        for (id, sent) in window {
                            let done = Instant::now();
                            match p.payer.recv_pipelined(id) {
                                Ok(_) => {
                                    if done >= warmup_end {
                                        hist.record_duration(done - sent);
                                        ops.fetch_add(1, Ordering::Relaxed);
                                    }
                                }
                                Err(BankError::Net(_)) | Err(BankError::Protocol(_)) => return,
                                Err(_) => {
                                    errors.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                    } else {
                        let sent = Instant::now();
                        match run_op(&mut p, strategy) {
                            Ok(true) => {
                                let done = Instant::now();
                                if done >= warmup_end {
                                    hist.record_duration(done - sent);
                                    ops.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            Ok(false) => {
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(_) => return,
                        }
                    }
                }
            });
        }
    });
    StrategyResult {
        strategy,
        ops: ops.load(Ordering::Relaxed),
        errors: errors.load(Ordering::Relaxed),
        elapsed: Instant::now().saturating_duration_since(warmup_end),
    }
}

/// Open loop: ops are *scheduled* at a fixed arrival rate and latency is
/// measured from the scheduled instant, so queueing delay shows up in
/// the percentiles instead of being silently absorbed (no coordinated
/// omission).
fn run_open(w: &Deployment, cfg: &LoadgenConfig, strategy: Strategy, run: usize) -> StrategyResult {
    let hist = gridbank_obs::registry().histogram(&format!("loadgen.op_ns.{}", strategy.name()));
    let ops = AtomicU64::new(0);
    let errors = AtomicU64::new(0);
    let per_client_rate = (cfg.rate as f64 / cfg.clients as f64).max(1.0);
    let interval = Duration::from_secs_f64(1.0 / per_client_rate);
    let start = Instant::now();
    let warmup_end = start + Duration::from_millis(cfg.warmup_ms);
    let deadline = warmup_end + Duration::from_millis(cfg.duration_ms);
    std::thread::scope(|scope| {
        for thread in 0..cfg.clients {
            let (hist, ops, errors) = (&hist, &ops, &errors);
            let mut p = setup_payer(w, strategy, run * cfg.clients + thread, cfg.seed);
            scope.spawn(move || {
                let mut scheduled = start + interval * (thread as u32 + 1);
                while scheduled < deadline {
                    if let Some(wait) = scheduled.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    match run_op(&mut p, strategy) {
                        Ok(true) => {
                            let done = Instant::now();
                            if done >= warmup_end {
                                hist.record_duration(done - scheduled);
                                ops.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Ok(false) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => return,
                    }
                    scheduled += interval;
                }
            });
        }
    });
    StrategyResult {
        strategy,
        ops: ops.load(Ordering::Relaxed),
        errors: errors.load(Ordering::Relaxed),
        elapsed: Instant::now().saturating_duration_since(warmup_end),
    }
}

/// Outcome of the cross-branch phase: federated paybefore throughput
/// plus the timed §6 netting pass that follows it.
struct FederationStats {
    branches: usize,
    ops: u64,
    errors: u64,
    elapsed: Duration,
    settle_elapsed: Duration,
    gross_micro: u64,
    net_micro: u64,
    residual_micro: u64,
    pending_after: usize,
}

/// Closed-loop cross-branch paybefore: every payer lives on branch 1,
/// every payee on one of the other branches, so each payment crosses the
/// federation (local debit into clearing + exactly-once `IbCredit` over
/// RPC). Afterwards, one timed settlement pass nets the clearing
/// accounts over the wire.
fn run_federated(w: &Deployment, cfg: &LoadgenConfig) -> FederationStats {
    let hist = gridbank_obs::registry().histogram("loadgen.op_ns.federated");
    let ops = AtomicU64::new(0);
    let errors = AtomicU64::new(0);
    let start = Instant::now();
    let warmup_end = start + Duration::from_millis(cfg.warmup_ms);
    let deadline = warmup_end + Duration::from_millis(cfg.duration_ms);
    std::thread::scope(|scope| {
        for thread in 0..cfg.clients {
            let (hist, ops, errors) = (&hist, &ops, &errors);
            let payee_branch = (thread % (cfg.branches - 1) + 2) as u16;
            let mut payer =
                connect(w, &format!("fed-payer-{thread}"), cfg.seed ^ (0xF0 + thread as u64), 1);
            let payer_account = payer.create_account(None).expect("payer account");
            let mut payee = connect(
                w,
                &format!("fed-payee-{thread}"),
                cfg.seed ^ (0xF100 + thread as u64),
                payee_branch,
            );
            let payee_account = payee.create_account(None).expect("payee account");
            let mut ops_client = w.admin(1).expect("operator connects");
            ops_client.admin_deposit(payer_account, Credits::from_gd(10_000_000)).expect("funding");
            let mut next_key = (cfg.seed << 18) ^ ((thread as u64) << 44) ^ 0xFED;
            scope.spawn(move || {
                while Instant::now() < deadline {
                    next_key += 1;
                    let sent = Instant::now();
                    let outcome = payer.call_keyed(
                        Some(next_key),
                        &gridbank_core::BankRequest::DirectTransfer {
                            to: payee_account,
                            amount: Credits::from_micro(100),
                            recipient_address: "payee.host".into(),
                        },
                    );
                    match outcome {
                        Ok(_) => {
                            let done = Instant::now();
                            if done >= warmup_end {
                                hist.record_duration(done - sent);
                                ops.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(BankError::Net(_)) | Err(BankError::Protocol(_)) => return,
                        Err(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    let elapsed = Instant::now().saturating_duration_since(warmup_end);

    // The timed netting pass: every router settles what it owes.
    let settle_start = Instant::now();
    let mut gross = Credits::ZERO;
    let mut net = Credits::ZERO;
    for router in w.routers() {
        let report = router.settle_once().expect("settlement");
        gross = gross.saturating_add(report.total_gross());
        net = net.saturating_add(report.total_net());
    }
    let settle_elapsed = settle_start.elapsed();

    let (residual, pending_after) = w.settlement_residue();
    let micro = |c: Credits| c.metric_micro();
    FederationStats {
        branches: cfg.branches,
        ops: ops.load(Ordering::Relaxed),
        errors: errors.load(Ordering::Relaxed),
        elapsed,
        settle_elapsed,
        gross_micro: micro(gross),
        net_micro: micro(net),
        residual_micro: micro(residual),
        pending_after,
    }
}

/// The `--market` phase aggregated across `--runs` repetitions.
struct MarketStats {
    runs: usize,
    population: usize,
    spot_payments: u32,
    cross_branch: u32,
    auctions_settled: u32,
    auction_volume_micro: u64,
    barter_volume_micro: u64,
    payword_paid_micro: u64,
    /// `EconomyReport::verify` passed on every run.
    invariants_ok: bool,
    elapsed_secs: Vec<f64>,
    payment_rates: Vec<f64>,
    ledger_digest: u64,
}

/// Runs the full market economy (`gridbank_sim::market`) `--runs`
/// times: Zipf/diurnal spot traffic, flash-crowd auctions settled
/// exactly-once through live federated servers, a barter ring, and
/// PayWord streams. Wall-clock per run feeds the mean ± stddev; the
/// conservation/exactly-once evidence must hold on every run.
fn run_market_phase(cfg: &LoadgenConfig) -> MarketStats {
    use gridbank_sim::market::{run_market, EconomyConfig};
    use gridbank_sim::workload::DiurnalCurve;

    let mut stats = MarketStats {
        runs: cfg.runs,
        population: 0,
        spot_payments: 0,
        cross_branch: 0,
        auctions_settled: 0,
        auction_volume_micro: 0,
        barter_volume_micro: 0,
        payword_paid_micro: 0,
        invariants_ok: true,
        elapsed_secs: Vec::new(),
        payment_rates: Vec::new(),
        ledger_digest: 0,
    };
    for run in 0..cfg.runs {
        let mcfg = EconomyConfig {
            seed: cfg.seed.wrapping_add(run as u64 * 101),
            population_per_branch: 5_000,
            payers_per_branch: 3,
            spot_payments: 400,
            payword_words: 14,
            payword_redemptions: 4,
            diurnal: Some(DiurnalCurve { period_ms: 120_000, trough_pct: 20 }),
            signer_height: 11,
            ..EconomyConfig::default()
        };
        let start = Instant::now();
        let report = match run_market(&mcfg) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("loadgen: market run {run} failed: {e}");
                stats.invariants_ok = false;
                continue;
            }
        };
        let secs = start.elapsed().as_secs_f64().max(1e-9);
        if let Err(faults) = report.verify() {
            eprintln!("loadgen: market run {run} invariants violated: {faults}");
            stats.invariants_ok = false;
        }
        stats.population = report.population;
        stats.spot_payments = report.spot_payments;
        stats.cross_branch = report.cross_branch_payments;
        stats.auctions_settled = report.auctions_settled;
        stats.auction_volume_micro = report.auction_volume.metric_micro();
        stats.barter_volume_micro = report.barter_volume.metric_micro();
        stats.payword_paid_micro = report.payword_paid.metric_micro();
        stats.elapsed_secs.push(secs);
        stats.payment_rates.push(report.spot_payments as f64 / secs);
        stats.ledger_digest = report.ledger_digest;
        eprintln!(
            "loadgen: market run {run}: {} payments ({} cross-branch), {} auctions, \
             {:.2}s",
            report.spot_payments, report.cross_branch_payments, report.auctions_settled, secs,
        );
    }
    stats
}

/// The `--recovery` phase aggregated across `--runs` repetitions: one
/// kill/restart drill per run against a fresh durable store.
struct RecoveryStats {
    runs: usize,
    accounts: usize,
    journal_entries_total: usize,
    tail_entries_replayed: usize,
    snapshots_loaded: usize,
    /// Per-run storage-recovery and restart-to-serving times (ms).
    recovery_ms: Vec<f64>,
    restart_to_serving_ms: Vec<f64>,
    /// `RecoveryDrillReport::verify` passed on every run (digest and
    /// funds identical across the kill, replay tail-only).
    invariants_ok: bool,
}

/// Runs the `gridbank_sim::recovery` drill `--runs` times: a live
/// durable branch takes keyed wire payments, checkpoints, takes a
/// replay tail, is killed, and a fresh stack reopens the same store —
/// timing kill → first served RPC. See docs/STORAGE.md §5 and
/// EXPERIMENTS.md E19 for what the numbers mean.
fn run_recovery_phase(cfg: &LoadgenConfig) -> RecoveryStats {
    use gridbank_sim::RecoveryConfig;

    let mut stats = RecoveryStats {
        runs: cfg.runs,
        accounts: 0,
        journal_entries_total: 0,
        tail_entries_replayed: 0,
        snapshots_loaded: 0,
        recovery_ms: Vec::new(),
        restart_to_serving_ms: Vec::new(),
        invariants_ok: true,
    };
    for run in 0..cfg.runs {
        let rcfg = RecoveryConfig {
            seed: cfg.seed.wrapping_add(run as u64 * 71),
            ..RecoveryConfig::default()
        };
        let report = match gridbank_sim::run_recovery(&rcfg) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("loadgen: recovery run {run} failed: {e}");
                stats.invariants_ok = false;
                continue;
            }
        };
        if let Err(why) = report.verify() {
            eprintln!("loadgen: recovery run {run} invariants violated: {why}");
            stats.invariants_ok = false;
        }
        stats.accounts = report.accounts;
        stats.journal_entries_total = report.journal_entries_total;
        stats.tail_entries_replayed = report.tail_entries_replayed;
        stats.snapshots_loaded = report.snapshots_loaded;
        stats.recovery_ms.push(report.recovery_ms as f64);
        stats.restart_to_serving_ms.push(report.restart_to_serving_ms as f64);
        eprintln!(
            "loadgen: recovery run {run}: {} accounts, {} of {} entries replayed, \
             serving again in {}ms",
            report.accounts,
            report.tail_entries_replayed,
            report.journal_entries_total,
            report.restart_to_serving_ms,
        );
    }
    stats
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn render_json(
    cfg: &LoadgenConfig,
    results: &[StrategyAgg],
    federation: Option<&FederationStats>,
    market: Option<&MarketStats>,
    recovery: Option<&RecoveryStats>,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"benchmark\": \"payments_loadgen\",\n");
    out.push_str(&format!("  \"mode\": \"{}\",\n", json_escape(&cfg.mode)));
    out.push_str(&format!("  \"duration_ms\": {},\n", cfg.duration_ms));
    out.push_str(&format!("  \"warmup_ms\": {},\n", cfg.warmup_ms));
    out.push_str(&format!("  \"clients\": {},\n", cfg.clients));
    out.push_str(&format!("  \"pipeline_depth\": {},\n", cfg.pipeline));
    if cfg.mode == "open" {
        out.push_str(&format!("  \"target_rate_ops_per_sec\": {},\n", cfg.rate));
    }
    out.push_str(&format!("  \"seed\": {},\n", cfg.seed));
    out.push_str(&format!("  \"server_workers\": {},\n", cfg.workers));
    out.push_str(&format!("  \"runs\": {},\n", cfg.runs));
    out.push_str("  \"strategies\": {\n");
    let snapshot = gridbank_obs::registry().snapshot();
    for (i, r) in results.iter().enumerate() {
        let name = r.strategy.name();
        let secs = r.elapsed.as_secs_f64().max(1e-9);
        let (tp_mean, tp_sd) = mean_stddev(&r.throughputs);
        out.push_str(&format!("    \"{name}\": {{\n"));
        out.push_str(&format!("      \"ops\": {},\n", r.ops));
        out.push_str(&format!("      \"errors\": {},\n", r.errors));
        out.push_str(&format!("      \"measured_secs\": {secs:.3},\n"));
        out.push_str(&format!("      \"throughput_ops_per_sec\": {tp_mean:.1},\n"));
        out.push_str(&format!("      \"throughput_stddev_ops_per_sec\": {tp_sd:.1},\n"));
        match snapshot.histogram(&format!("loadgen.op_ns.{name}")) {
            Some(h) => out.push_str(&format!(
                "      \"latency_ns\": {{\"count\": {}, \"mean\": {:.0}, \"p50\": {}, \
                 \"p95\": {}, \"p99\": {}}}\n",
                h.count,
                h.mean(),
                h.p50(),
                h.p95(),
                h.p99()
            )),
            None => out.push_str("      \"latency_ns\": null\n"),
        }
        out.push_str(if i + 1 == results.len() { "    }\n" } else { "    },\n" });
    }
    match federation {
        None => out.push_str("  },\n"),
        Some(f) => {
            let secs = f.elapsed.as_secs_f64().max(1e-9);
            out.push_str("  },\n");
            out.push_str("  \"federation\": {\n");
            out.push_str(&format!("    \"branches\": {},\n", f.branches));
            out.push_str(&format!("    \"cross_branch_ops\": {},\n", f.ops));
            out.push_str(&format!("    \"errors\": {},\n", f.errors));
            out.push_str(&format!("    \"measured_secs\": {secs:.3},\n"));
            out.push_str(&format!("    \"throughput_ops_per_sec\": {:.1},\n", f.ops as f64 / secs));
            match snapshot.histogram("loadgen.op_ns.federated") {
                Some(h) => out.push_str(&format!(
                    "    \"latency_ns\": {{\"count\": {}, \"mean\": {:.0}, \"p50\": {}, \
                     \"p95\": {}, \"p99\": {}}},\n",
                    h.count,
                    h.mean(),
                    h.p50(),
                    h.p95(),
                    h.p99()
                )),
                None => out.push_str("    \"latency_ns\": null,\n"),
            }
            out.push_str("    \"settlement\": {\n");
            out.push_str(&format!("      \"elapsed_us\": {},\n", f.settle_elapsed.as_micros()));
            out.push_str(&format!("      \"gross_micro\": {},\n", f.gross_micro));
            out.push_str(&format!("      \"net_micro\": {},\n", f.net_micro));
            out.push_str(&format!("      \"residual_clearing_micro\": {},\n", f.residual_micro));
            out.push_str(&format!("      \"pending_credits_after\": {}\n", f.pending_after));
            out.push_str("    }\n");
            out.push_str("  },\n");
        }
    }

    if let Some(m) = market {
        let (el_mean, el_sd) = mean_stddev(&m.elapsed_secs);
        let (rate_mean, rate_sd) = mean_stddev(&m.payment_rates);
        out.push_str("  \"market\": {\n");
        out.push_str(&format!("    \"runs\": {},\n", m.runs));
        out.push_str(&format!("    \"population_per_branch\": {},\n", m.population));
        out.push_str(&format!("    \"spot_payments_per_run\": {},\n", m.spot_payments));
        out.push_str(&format!("    \"cross_branch_payments\": {},\n", m.cross_branch));
        out.push_str(&format!("    \"auctions_settled\": {},\n", m.auctions_settled));
        out.push_str(&format!("    \"auction_volume_micro\": {},\n", m.auction_volume_micro));
        out.push_str(&format!("    \"barter_volume_micro\": {},\n", m.barter_volume_micro));
        out.push_str(&format!("    \"payword_paid_micro\": {},\n", m.payword_paid_micro));
        out.push_str(&format!("    \"invariants_ok\": {},\n", m.invariants_ok));
        out.push_str(&format!(
            "    \"elapsed_secs\": {{\"mean\": {el_mean:.3}, \"stddev\": {el_sd:.3}}},\n"
        ));
        out.push_str(&format!(
            "    \"payments_per_sec\": {{\"mean\": {rate_mean:.1}, \"stddev\": {rate_sd:.1}}},\n"
        ));
        out.push_str(&format!("    \"ledger_digest\": \"{:#018x}\"\n", m.ledger_digest));
        out.push_str("  },\n");
    }

    if let Some(r) = recovery {
        let (rec_mean, rec_sd) = mean_stddev(&r.recovery_ms);
        let (srv_mean, srv_sd) = mean_stddev(&r.restart_to_serving_ms);
        out.push_str("  \"recovery\": {\n");
        out.push_str(&format!("    \"runs\": {},\n", r.runs));
        out.push_str(&format!("    \"accounts\": {},\n", r.accounts));
        out.push_str(&format!("    \"journal_entries_total\": {},\n", r.journal_entries_total));
        out.push_str(&format!("    \"tail_entries_replayed\": {},\n", r.tail_entries_replayed));
        out.push_str(&format!("    \"snapshots_loaded\": {},\n", r.snapshots_loaded));
        out.push_str(&format!(
            "    \"recovery_ms\": {{\"mean\": {rec_mean:.1}, \"stddev\": {rec_sd:.1}}},\n"
        ));
        out.push_str(&format!(
            "    \"restart_to_serving_ms\": {{\"mean\": {srv_mean:.1}, \"stddev\": {srv_sd:.1}}},\n"
        ));
        out.push_str(&format!("    \"invariants_ok\": {}\n", r.invariants_ok));
        out.push_str("  },\n");
    }

    // Server-side stage decomposition (queue wait → reply write) scraped
    // from the `server.stage.*` histograms the server recorded while
    // under load. All-null when `--telemetry off`.
    out.push_str(&format!("  \"telemetry\": {},\n", cfg.telemetry));
    out.push_str("  \"server_stages\": {\n");
    const STAGES: [&str; 6] = ["queue", "decode", "dispatch", "lock", "journal", "reply"];
    for (i, stage) in STAGES.iter().enumerate() {
        let comma = if i + 1 == STAGES.len() { "" } else { "," };
        match snapshot.histogram(&format!("server.stage.{stage}_ns")) {
            Some(h) => out.push_str(&format!(
                "    \"{stage}\": {{\"count\": {}, \"mean\": {:.0}, \"p50\": {}, \
                 \"p95\": {}, \"p99\": {}}}{comma}\n",
                h.count,
                h.mean(),
                h.p50(),
                h.p95(),
                h.p99()
            )),
            None => out.push_str(&format!("    \"{stage}\": null{comma}\n")),
        }
    }
    out.push_str("  }\n}\n");
    out
}

fn loadgen(args: &[String]) {
    let cfg = parse_args(args);
    // Stage timing is server-side and gated: without this the
    // `server_stages` section scrapes empty ("disabled means free").
    gridbank_obs::set_telemetry(cfg.telemetry);
    eprintln!(
        "loadgen: mode={} strategies={:?} clients={} pipeline={} duration={}ms warmup={}ms",
        cfg.mode,
        cfg.strategies.iter().map(|s| s.name()).collect::<Vec<_>>(),
        cfg.clients,
        cfg.pipeline,
        cfg.duration_ms,
        cfg.warmup_ms,
    );
    let w = start_world(&cfg);
    let mut results = Vec::new();
    for &strategy in &cfg.strategies {
        let mut agg = StrategyAgg {
            strategy,
            ops: 0,
            errors: 0,
            elapsed: Duration::ZERO,
            throughputs: Vec::new(),
        };
        for run in 0..cfg.runs {
            let r = if cfg.mode == "open" {
                run_open(&w, &cfg, strategy, run)
            } else {
                run_closed(&w, &cfg, strategy, run)
            };
            let throughput = r.ops as f64 / r.elapsed.as_secs_f64().max(1e-9);
            eprintln!(
                "loadgen: {} run {run}: ops={} errors={} ({throughput:.1} ops/s)",
                r.strategy.name(),
                r.ops,
                r.errors,
            );
            agg.ops += r.ops;
            agg.errors += r.errors;
            agg.elapsed += r.elapsed;
            agg.throughputs.push(throughput);
        }
        if cfg.runs > 1 {
            let (mean, sd) = mean_stddev(&agg.throughputs);
            eprintln!(
                "loadgen: {} over {} runs: {mean:.1} ± {sd:.1} ops/s",
                strategy.name(),
                cfg.runs,
            );
        }
        results.push(agg);
    }
    let federation = (cfg.branches > 1).then(|| {
        let f = run_federated(&w, &cfg);
        eprintln!(
            "loadgen: federated ops={} errors={} ({:.1} ops/s), settle gross={}µ net={}µ in {}µs",
            f.ops,
            f.errors,
            f.ops as f64 / f.elapsed.as_secs_f64().max(1e-9),
            f.gross_micro,
            f.net_micro,
            f.settle_elapsed.as_micros(),
        );
        if f.residual_micro != 0 || f.pending_after != 0 {
            eprintln!(
                "loadgen: WARNING settlement residue: clearing {}µ, {} pending credits",
                f.residual_micro, f.pending_after
            );
        }
        f
    });
    let market = cfg.market.then(|| {
        let m = run_market_phase(&cfg);
        let (mean, sd) = mean_stddev(&m.payment_rates);
        eprintln!(
            "loadgen: market over {} runs: {mean:.1} ± {sd:.1} payments/s, invariants {}",
            m.runs,
            if m.invariants_ok { "OK" } else { "VIOLATED" },
        );
        m
    });
    let recovery = cfg.recovery.then(|| {
        let r = run_recovery_phase(&cfg);
        let (mean, sd) = mean_stddev(&r.restart_to_serving_ms);
        eprintln!(
            "loadgen: recovery over {} runs: restart-to-serving {mean:.1} ± {sd:.1} ms, \
             invariants {}",
            r.runs,
            if r.invariants_ok { "OK" } else { "VIOLATED" },
        );
        r
    });
    let json = render_json(&cfg, &results, federation.as_ref(), market.as_ref(), recovery.as_ref());
    let mut file = std::fs::File::create(&cfg.out)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", cfg.out));
    file.write_all(json.as_bytes()).expect("write results");
    eprintln!("loadgen: wrote {}", cfg.out);
    if recovery.as_ref().is_some_and(|r| !r.invariants_ok) {
        eprintln!("loadgen: recovery drill invariants violated");
        std::process::exit(1);
    }
    // A recovery-drill run is a complete run even when the strategy
    // window was too short to land a payment on a loaded machine.
    if results.iter().all(|r| r.ops == 0) && recovery.is_none() {
        eprintln!("loadgen: no operation completed — check configuration");
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("loadgen") => loadgen(&args[1..]),
        _ => usage(),
    }
}
