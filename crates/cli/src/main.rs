//! `gridbank` — the GridBank administration/operations command line.
//!
//! Operates a durable bank: state persists in a store directory (the
//! one on-disk format, docs/STORAGE.md — `gridbank store --dir` inspects
//! it), so successive invocations compose like a real banking
//! deployment. Administrator operations follow §5.2.1; client queries
//! follow §5.2.
//!
//! ```text
//! gridbank --db bank.store create-account --cert "/O=UWA/OU=CSSE/CN=alice"
//! gridbank --db bank.store deposit --account 01-0001-00000001 --amount 100
//! gridbank --db bank.store transfer --from 01-0001-00000001 \
//!          --to 01-0001-00000002 --amount 12.5
//! gridbank --db bank.store statement --account 01-0001-00000001
//! gridbank --db bank.store accounts
//! ```

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use gridbank_core::accounts::GbAccounts;
use gridbank_core::admin::GbAdmin;
use gridbank_core::api::HealthReport;
use gridbank_core::client::GridBankClient;
use gridbank_core::clock::Clock;
use gridbank_core::coop::BarterStats;
use gridbank_core::db::{AccountId, Database};
use gridbank_core::federation::direct_mesh;
use gridbank_core::port::InProcessBank;
use gridbank_core::server::{GridBank, GridBankConfig};
use gridbank_core::store::StoreConfig;
use gridbank_crypto::cert::SubjectName;
use gridbank_crypto::keys::KeyMaterial;
use gridbank_rur::Credits;
use gridbank_sim::deploy::{DeployConfig, Deployment};

const ADMIN_CERT: &str = "/O=GridBank/OU=Admin/CN=operator";

struct Args {
    flags: Vec<(String, String)>,
    command: Option<String>,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut flags = Vec::new();
        let mut command = None;
        let mut i = 0;
        while i < argv.len() {
            let a = &argv[i];
            if let Some(name) = a.strip_prefix("--") {
                let value = argv.get(i + 1).ok_or_else(|| format!("--{name} needs a value"))?;
                flags.push((name.to_string(), value.clone()));
                i += 2;
            } else {
                if command.is_some() {
                    return Err(format!("unexpected argument `{a}`"));
                }
                command = Some(a.clone());
                i += 1;
            }
        }
        Ok(Args { flags, command })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags.iter().rev().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name).ok_or_else(|| format!("missing required flag --{name}"))
    }
}

fn parse_amount(s: &str) -> Result<Credits, String> {
    s.parse::<Credits>().map_err(|e| e.to_string())
}

fn parse_account(s: &str) -> Result<AccountId, String> {
    AccountId::parse(s).ok_or_else(|| format!("`{s}` is not a bb-bbbb-nnnnnnnn account id"))
}

struct Bank {
    accounts: GbAccounts,
    admin: GbAdmin,
}

impl Bank {
    /// Opens (or creates) the store directory at `db_path`.
    fn load(db_path: &str) -> Result<Bank, String> {
        let (db, _) = Database::open(1, 1, StoreConfig::at(db_path))
            .map_err(|e| format!("{db_path}: {e}"))?;
        let accounts = GbAccounts::new(Arc::new(db), Clock::starting_at(now_wallclock_ms()));
        let admin = GbAdmin::new(accounts.clone(), [ADMIN_CERT.to_string()]);
        Ok(Bank { accounts, admin })
    }

    /// Every commit is already on disk; the checkpoint keeps the next
    /// invocation's replay tail short.
    fn save(&self) -> Result<(), String> {
        self.accounts.db().checkpoint().map(|_| ()).map_err(|e| e.to_string())
    }
}

fn now_wallclock_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Boots the self-hosted federation `settle`, `top` and
/// `metrics --remote` observe (DESIGN.md §4 "Booting a bank") — the
/// in-process transport has no external listeners, so the "remote"
/// commands boot the deployment they scrape.
fn start_world(branches: u16) -> Result<Deployment, String> {
    let config = DeployConfig::federated(branches, |b| GridBankConfig {
        signer_height: 9,
        key_material: KeyMaterial { seed: 0xB4A2 + b as u64 },
        ..GridBankConfig::default()
    });
    Ok(Deployment::boot(config)?)
}

/// One funded payer per branch, connected through the real handshake.
fn fund_payers(world: &Deployment) -> Result<(Vec<GridBankClient>, Vec<AccountId>), String> {
    let mut payers = Vec::new();
    let mut accounts = Vec::new();
    for b in world.branch_ids() {
        let dn = SubjectName::new("Demo", "Payers", &format!("payer-{b}"));
        let mut payer = world.identity(dn, 10 + b as u64)?.connect(b).map_err(|e| e.to_string())?;
        let account = payer.create_account(None).map_err(|e| e.to_string())?;
        let mut admin = world.admin(b)?;
        admin.admin_deposit(account, Credits::from_gd(1_000)).map_err(|e| e.to_string())?;
        payers.push(payer);
        accounts.push(account);
    }
    Ok((payers, accounts))
}

/// Drives `rounds` ring-wise rounds of cross-branch payments: every
/// branch pays the next one `amount` per round.
fn ring_payments(
    payers: &mut [GridBankClient],
    accounts: &[AccountId],
    rounds: u64,
    amount: Credits,
) -> Result<(), String> {
    let n = payers.len();
    for k in 0..rounds {
        for b in 0..n {
            let to = accounts[(b + 1) % n];
            payers[b]
                .direct_transfer(to, amount, &format!("payee.vo{}.org/{k}", b + 1))
                .map_err(|e| format!("payment {k} from branch {}: {e}", b + 1))?;
        }
    }
    Ok(())
}

/// `gridbank metrics`: runs a small in-process workload against a fresh
/// bank with telemetry enabled and prints the registry snapshot —
/// per-variant RPC latency percentiles, counters, and gauges. With
/// `--format jsonl` emits JSON-lines instead of the text table;
/// `--filter <prefix>` narrows the output to matching metric names.
fn run_metrics(args: &Args) -> Result<String, String> {
    if args.get("remote").is_some() {
        // Scrape a live server's ops plane over RPC instead.
        return run_remote_metrics(args);
    }
    gridbank_obs::set_telemetry(true);
    // Height 9 = 512 one-time signatures — enough for the ~120 signed
    // confirmations/cheques the workload below produces.
    let clock = Clock::new();
    let bank = Arc::new(GridBank::new(
        GridBankConfig { signer_height: 9, ..GridBankConfig::default() },
        clock.clone(),
    ));
    let setup = |e| format!("workload setup failed: {e}");
    let mut admin = InProcessBank::new(Arc::clone(&bank), SubjectName(ADMIN_CERT.into()));
    let mut alice = InProcessBank::new(Arc::clone(&bank), SubjectName::new("UWA", "CSSE", "alice"));
    let gsp = SubjectName::new("UM", "GRIDS", "gsp-alpha");
    let account = alice.create_account(None).map_err(setup)?;
    let gsp_account =
        InProcessBank::new(Arc::clone(&bank), gsp.clone()).create_account(None).map_err(setup)?;
    admin.admin_deposit(account, Credits::from_gd(10_000)).map_err(setup)?;

    // Exercise a representative request mix so the per-variant latency
    // histograms have enough samples for stable percentiles. Outcomes
    // are not the point here; the registry is.
    for i in 0..100u64 {
        let _ = alice.my_account();
        let _ = alice.account_details(account);
        let _ = alice.statement(account, 0, u64::MAX);
        let _ = alice.check_funds(account, Credits::from_micro(1_000));
        let _ = alice.direct_transfer(gsp_account, Credits::from_micro(10_000), "gsp.grid.org");
        if i % 10 == 0 {
            let _ = alice.request_cheque(&gsp.0, Credits::from_gd(1), 60_000);
        }
    }
    bank.sweep_expired_instruments();

    // Federate with a second in-process branch so `--filter ib` has
    // data: cross-branch payments, one forwarded read, one netting pass.
    let bank2 = Arc::new(GridBank::new(
        GridBankConfig { branch: 2, signer_height: 9, ..GridBankConfig::default() },
        clock.clone(),
    ));
    let routers = direct_mesh(&[Arc::clone(&bank), Arc::clone(&bank2)]);
    let remote = InProcessBank::new(bank2, gsp)
        .create_account(None)
        .map_err(|e| format!("federation setup failed: {e}"))?;
    for _ in 0..5 {
        let _ = alice.direct_transfer(remote, Credits::from_micro(10_000), "gsp.vo2.org");
    }
    let _ = admin.account_details(remote);
    routers[0].settle_once().map_err(|e| format!("settle failed: {e}"))?;

    let snapshot = match args.get("filter") {
        Some(prefix) => gridbank_obs::registry().snapshot().filtered(prefix),
        None => gridbank_obs::registry().snapshot(),
    };
    match args.get("format") {
        Some("jsonl") => Ok(gridbank_obs::render_jsonl(&snapshot)),
        None | Some("text") => Ok(gridbank_obs::render_text(&snapshot)),
        Some(other) => Err(format!("unknown --format `{other}` (text|jsonl)")),
    }
}

/// `gridbank settle`: a self-contained federation demo over live RPC.
/// Boots one live server per branch ([`start_world`]), drives
/// cross-branch payments ring-wise through real authenticated client
/// connections, then runs one §6 netting pass and prints the gross→net compression.
/// Fails (non-zero exit) unless every clearing account nets to zero and
/// no outbound credit is left unacknowledged.
fn run_settle(args: &Args) -> Result<String, String> {
    let branches: u16 = match args.get("branches") {
        Some(v) => v.parse().map_err(|e| format!("--branches: {e}"))?,
        None => 2,
    };
    if branches < 2 {
        return Err("--branches must be at least 2".into());
    }
    let payments: u64 = match args.get("payments") {
        Some(v) => v.parse().map_err(|e| format!("--payments: {e}"))?,
        None => 4,
    };
    let amount = parse_amount(args.get("amount").unwrap_or("10"))?;

    let world = start_world(branches)?;
    let (mut payers, accounts) = fund_payers(&world)?;

    // Ring of cross-branch payments: every branch pays the next one.
    let sent = payments * branches as u64;
    let started = Instant::now();
    ring_payments(&mut payers, &accounts, payments, amount)?;
    let paying = started.elapsed();

    // One netting pass (branch 1 proposes; remaining pairs drain too).
    let mut out = format!(
        "federated settle: {branches} branches, {sent} cross-branch payments of {amount}\n"
    );
    let mut gross = Credits::ZERO;
    let mut net = Credits::ZERO;
    let started = Instant::now();
    for router in world.routers() {
        let report = router.settle_once().map_err(|e| e.to_string())?;
        for p in &report.pairs {
            out.push_str(&format!(
                "pair {:04}<->{:04}: gross {} -> net {}\n",
                p.branch_a,
                p.branch_b,
                p.gross_a_to_b.saturating_add(p.gross_b_to_a),
                p.net.abs()
            ));
        }
        gross = gross.saturating_add(report.total_gross());
        net = net.saturating_add(report.total_net());
    }
    let netting = started.elapsed();
    out.push_str(&format!("total gross {gross} -> net {net}\n"));
    out.push_str(&format!(
        "{sent} cross-branch payments in {:.1} ms ({:.0}/s); netting pass {} µs\n",
        paying.as_secs_f64() * 1e3,
        sent as f64 / paying.as_secs_f64().max(1e-9),
        netting.as_micros()
    ));

    // The acceptance check: clearing accounts net to zero and no credit
    // is stranded.
    let (residual, stranded) = world.settlement_residue();
    if !residual.is_zero() || stranded > 0 {
        return Err(format!(
            "settlement left residue: clearing {residual}, {stranded} unacknowledged credits"
        ));
    }
    out.push_str("clearing accounts net to zero; no stranded credits");
    Ok(out)
}

/// `gridbank market` — the population-scale market economy demo: Zipf
/// spot traffic, flash-crowd capacity auctions, a co-op barter ring,
/// and PayWord streams over two live federated branches, ending with
/// the hard invariant check (see `docs/ECONOMY.md`).
fn run_market_demo(args: &Args) -> Result<String, String> {
    use gridbank_sim::market::{run_market, EconomyConfig};

    let mut cfg = EconomyConfig::default();
    if let Some(v) = args.get("population") {
        cfg.population_per_branch = v.parse().map_err(|e| format!("--population: {e}"))?;
    }
    if let Some(v) = args.get("payments") {
        cfg.spot_payments = v.parse().map_err(|e| format!("--payments: {e}"))?;
    }
    if let Some(v) = args.get("auctions") {
        cfg.auctions = v.parse().map_err(|e| format!("--auctions: {e}"))?;
    }
    if let Some(v) = args.get("seed") {
        let parsed = match v.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => v.parse(),
        };
        cfg.seed = parsed.map_err(|e| format!("--seed: {e}"))?;
    }
    if cfg.population_per_branch < cfg.payers_per_branch + cfg.barter_members + cfg.payword_streams
    {
        return Err("--population too small to seat payers, barter members and streams".into());
    }

    let started = Instant::now();
    let report = run_market(&cfg)?;
    let elapsed = started.elapsed().as_secs_f64();
    let mut out = format!(
        "market economy: {} accounts over 2 branches, seed {:#x}\n",
        report.population * 2,
        cfg.seed
    );
    out.push_str(&format!(
        "spot payments:   {} committed ({} cross-branch, net {} settled)\n",
        report.spot_payments, report.cross_branch_payments, report.settlement_net
    ));
    out.push_str(&format!(
        "auctions:        {} settled ({} dutch, {} english), volume {}, {} duplicate re-sends deduped\n",
        report.auctions_settled,
        report.dutch_auctions,
        report.english_auctions,
        report.auction_volume,
        report.duplicate_settlements_deduped
    ));
    out.push_str(&format!(
        "barter ring:     volume {}, equilibrium gap {}\n",
        report.barter_volume, report.barter_equilibrium_gap
    ));
    out.push_str(&format!(
        "payword streams: {} redeemed, {} released at chain close\n",
        report.payword_paid, report.payword_released
    ));
    out.push_str(&format!(
        "conservation:    {} -> {} (journal {}+{} entries)\n",
        report.initial_total, report.final_total, report.journal_len[0], report.journal_len[1]
    ));
    out.push_str(&format!("ledger digest:   {:#018x}\n", report.ledger_digest));
    out.push_str(&format!(
        "elapsed {elapsed:.2} s, {:.0} spot payments/s\n",
        f64::from(report.spot_payments) / elapsed.max(1e-9)
    ));

    // The acceptance check: every hard invariant, or a nonzero exit.
    report.verify()?;
    out.push_str("invariants: conservation, exactly-once settlement, zero stranded credit — OK");
    Ok(out)
}

/// The five server-side request stages (`server.stage.<name>_ns`).
const STAGES: [&str; 5] = ["decode", "dispatch", "lock", "journal", "reply"];

/// Maps `--remote` addresses onto branch numbers: `bank` is an alias
/// for branch 1, `branch-N` selects a specific branch.
fn branch_for_address(addr: &str, branches: u16) -> Result<u16, String> {
    if addr == "bank" {
        return Ok(1);
    }
    if let Some(n) = addr.strip_prefix("branch-") {
        if let Ok(b) = n.parse::<u16>() {
            if (1..=branches).contains(&b) {
                return Ok(b);
            }
        }
    }
    Err(format!("`{addr}`: expected `bank` or `branch-1..={branches}`"))
}

/// Pulls a numeric field out of one flat JSON line as rendered by the
/// server's JSON-lines exporter (no nesting in the fields we read).
fn json_num(line: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\":");
    let rest = &line[line.find(&tag)? + tag.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// The JSON line describing instrument `name`, if the scrape has one.
fn json_line<'a>(jsonl: &'a str, name: &str) -> Option<&'a str> {
    let tag = format!("\"name\":\"{name}\"");
    jsonl.lines().find(|l| l.contains(&tag))
}

/// Renders a nanosecond quantity for the dashboard.
fn fmt_ns(ns: f64) -> String {
    if ns >= 1_000_000.0 {
        format!("{:.1}ms", ns / 1_000_000.0)
    } else if ns >= 1_000.0 {
        format!("{:.1}µs", ns / 1_000.0)
    } else {
        format!("{ns:.0}ns")
    }
}

/// A unicode sparkline of `values`, scaled to their maximum.
fn spark(values: &[u64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().copied().max().unwrap_or(0).max(1);
    values.iter().map(|v| BARS[((*v as u128 * 7) / max as u128) as usize]).collect()
}

/// The health report as a human-readable block.
fn render_health(h: &HealthReport) -> String {
    let mut out = format!(
        "branch {:04} {}\n  {} connections\n  signer {}/{} leaves left\n",
        h.branch,
        h.state.name(),
        h.connections,
        h.signer_remaining,
        h.signer_capacity,
    );
    for p in &h.peers {
        out.push_str(&format!(
            "  peer {:04}: clearing {} · {}\n",
            p.branch,
            p.clearing,
            if p.reachable { "reachable" } else { "unreachable" },
        ));
    }
    out
}

/// The health report as one JSON line, shaped like the server's
/// JSON-lines metric output so the two can share a parser.
fn health_jsonl(h: &HealthReport) -> String {
    let peers: Vec<String> = h
        .peers
        .iter()
        .map(|p| {
            format!(
                "{{\"branch\":{},\"clearing\":\"{}\",\"reachable\":{}}}",
                p.branch, p.clearing, p.reachable,
            )
        })
        .collect();
    format!(
        "{{\"type\":\"health\",\"branch\":{},\"state\":\"{}\",\"connections\":{},\
         \"signer_remaining\":{},\"signer_capacity\":{},\
         \"peers\":[{}]}}",
        h.branch,
        h.state.name(),
        h.connections,
        h.signer_remaining,
        h.signer_capacity,
        peers.join(","),
    )
}

/// `gridbank metrics --remote <addr>`: scrapes a live server's ops
/// plane over RPC instead of reading the in-process registry. Boots the
/// same self-hosted federation as `settle` (the in-process network has
/// no external listeners), drives a cross-branch payment load so every
/// `server.stage.*` histogram has samples, demonstrates the `OPS_ADMIN`
/// gate by showing a regular payer refused, then queries health and
/// metrics as the enrolled ops identity. `--filter` is applied
/// server-side; the metrics body is the server-rendered JSON lines.
fn run_remote_metrics(args: &Args) -> Result<String, String> {
    use gridbank_core::api::{OpsQuery, OpsReport};
    use gridbank_core::error::BankError;

    gridbank_obs::set_telemetry(true);
    gridbank_obs::set_flight_recorder(true);
    let addr = args.require("remote")?;
    let branches = 2u16;
    let branch = branch_for_address(addr, branches)?;
    let world = start_world(branches)?;
    let (mut payers, accounts) = fund_payers(&world)?;
    ring_payments(&mut payers, &accounts, 5, Credits::from_micro(5_000))?;
    for payer in payers.iter_mut() {
        payer.my_account().map_err(|e| e.to_string())?;
    }

    // The ops plane is its own trust role: a regular payer is refused
    // with a typed error before any telemetry leaves the server.
    let refusal = match payers[0].ops_query(OpsQuery::Health) {
        Err(BankError::NotAuthorized(why)) => why,
        other => return Err(format!("ops gate failed open for a payer: {other:?}")),
    };

    let mut ops = world.ops(branch)?;
    let health = match ops.ops_query(OpsQuery::Health).map_err(|e| e.to_string())? {
        OpsReport::Health(h) => h,
        other => return Err(format!("unexpected ops report: {other:?}")),
    };
    let filter = args.get("filter").map(str::to_string);
    let jsonl = match ops.ops_query(OpsQuery::Metrics { filter }).map_err(|e| e.to_string())? {
        OpsReport::Metrics { jsonl } => jsonl,
        other => return Err(format!("unexpected ops report: {other:?}")),
    };
    match args.get("format") {
        Some("jsonl") => Ok(format!(
            "{{\"type\":\"ops-gate\",\"refused\":\"{}\"}}\n{}\n{jsonl}",
            refusal.replace('"', "'"),
            health_jsonl(&health)
        )),
        None | Some("text") => Ok(format!(
            "== ops scrape from {addr} (branch {branch} of a live {branches}-branch \
             federation) ==\nops gate: payer refused ({refusal})\n{}\
             -- metrics (server-rendered JSON lines) --\n{jsonl}",
            render_health(&health)
        )),
        Some(other) => Err(format!("unknown --format `{other}` (text|jsonl)")),
    }
}

/// `gridbank top`: a terminal dashboard over the ops plane. Boots the
/// self-hosted federation, keeps a cross-branch payment load running,
/// and between frames scrapes `OpsQuery::{Health,Metrics}` from
/// branch 1 as the enrolled `OPS_ADMIN` — rendering throughput, the five
/// `server.stage.*` histograms (count, p50/p95/p99, and a p95 trend
/// sparkline across frames), peer reachability, and the health
/// verdict. `--frames N` bounds the run (default 4) so it terminates.
fn run_top(args: &Args) -> Result<String, String> {
    use gridbank_core::api::{OpsQuery, OpsReport};
    use std::fmt::Write as _;

    let frames: u32 = match args.get("frames") {
        Some(v) => v.parse().map_err(|e| format!("--frames: {e}"))?,
        None => 4,
    };
    if frames == 0 {
        return Err("--frames must be at least 1".into());
    }
    gridbank_obs::set_telemetry(true);
    gridbank_obs::set_flight_recorder(true);
    let world = start_world(2)?;
    let (mut payers, accounts) = fund_payers(&world)?;
    let mut ops = world.ops(1)?;

    let mut out = String::new();
    let mut trend: Vec<Vec<u64>> = vec![Vec::new(); STAGES.len()];
    let mut last_total = 0u64;
    for frame in 1..=frames {
        // A burst of mixed load so every frame has fresh samples:
        // cross-branch payments (journal + lock stages) plus reads.
        ring_payments(&mut payers, &accounts, 3, Credits::from_micro(2_500))?;
        for payer in payers.iter_mut() {
            payer.my_account().map_err(|e| e.to_string())?;
        }

        let health = match ops.ops_query(OpsQuery::Health).map_err(|e| e.to_string())? {
            OpsReport::Health(h) => h,
            other => return Err(format!("unexpected ops report: {other:?}")),
        };
        let jsonl =
            match ops.ops_query(OpsQuery::Metrics { filter: None }).map_err(|e| e.to_string())? {
                OpsReport::Metrics { jsonl } => jsonl,
                other => return Err(format!("unexpected ops report: {other:?}")),
            };

        // Dispatch-stage count == requests the server has executed.
        let total = json_line(&jsonl, "server.stage.dispatch_ns")
            .and_then(|l| json_num(l, "count"))
            .unwrap_or(0.0) as u64;
        let _ = writeln!(out, "── gridbank top · frame {frame}/{frames} ──");
        let _ = writeln!(
            out,
            "branch {:04} {} · {} connections · {} req this frame ({total} total)",
            health.branch,
            health.state.name(),
            health.connections,
            total.saturating_sub(last_total),
        );
        last_total = total;
        let _ = writeln!(
            out,
            "signer {}/{} leaves left",
            health.signer_remaining, health.signer_capacity,
        );
        let _ = writeln!(
            out,
            "{:<10} {:>8} {:>10} {:>10} {:>10}  p95 trend",
            "stage", "count", "p50", "p95", "p99"
        );
        for (i, stage) in STAGES.iter().enumerate() {
            let name = format!("server.stage.{stage}_ns");
            let (count, p50, p95, p99) = match json_line(&jsonl, &name) {
                Some(l) => (
                    json_num(l, "count").unwrap_or(0.0),
                    json_num(l, "p50").unwrap_or(0.0),
                    json_num(l, "p95").unwrap_or(0.0),
                    json_num(l, "p99").unwrap_or(0.0),
                ),
                None => (0.0, 0.0, 0.0, 0.0),
            };
            trend[i].push(p95 as u64);
            let _ = writeln!(
                out,
                "{stage:<10} {:>8} {:>10} {:>10} {:>10}  {}",
                count as u64,
                fmt_ns(p50),
                fmt_ns(p95),
                fmt_ns(p99),
                spark(&trend[i]),
            );
        }
        for p in &health.peers {
            let _ = writeln!(
                out,
                "peer {:04}: {} · clearing {}",
                p.branch,
                if p.reachable { "reachable" } else { "unreachable" },
                p.clearing,
            );
        }
        let retained = json_line(&jsonl, "obs.flight.retained")
            .and_then(|l| json_num(l, "value"))
            .unwrap_or(0.0) as u64;
        let _ = writeln!(out, "flight recorder: {retained} slow/errored traces retained\n");
    }
    Ok(out)
}

/// `gridbank store --dir PATH` — read-only inventory of a durable store
/// directory (docs/STORAGE.md): the log's segments, compaction and
/// torn-tail state, then the snapshot generations, the newest valid one
/// and the journal tail a restart would replay. Never opens the store
/// for writing.
fn run_store(args: &Args) -> Result<String, String> {
    use std::fmt::Write as _;

    let dir = std::path::Path::new(args.require("dir")?);
    let inv = gridbank_core::store::inspect(dir).map_err(|e| e.to_string())?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "store {} — format v{}, bank {:02} branch {:04}",
        dir.display(),
        inv.manifest.version,
        inv.manifest.bank,
        inv.manifest.branch,
    );
    let _ = writeln!(out, "log segments       {:>12}", inv.segments);
    let _ = writeln!(out, "log bytes          {:>12}", inv.segment_bytes);
    let _ = writeln!(out, "compacted through  {:>12}", inv.compacted_through);
    let _ = writeln!(out, "torn tail          {:>12}", if inv.torn_tail { "YES" } else { "no" });
    let _ = writeln!(
        out,
        "{:>6} {:>14} {:>12} {:>10} {:>6}",
        "snaps", "snapshot lsn", "snap bytes", "accounts", "tail"
    );
    let _ = writeln!(
        out,
        "{:>6} {:>14} {:>12} {:>10} {:>6}",
        inv.snapshots,
        inv.snapshot_lsn,
        inv.snapshot_bytes,
        inv.snapshot_accounts,
        inv.tail_entries,
    );
    let _ = write!(
        out,
        "totals: {} accounts snapshotted, {} tail entries to replay, {} bytes on disk",
        inv.snapshot_accounts,
        inv.tail_entries,
        inv.total_bytes(),
    );
    Ok(out)
}

fn run(args: &Args) -> Result<String, String> {
    let db_path = args.get("db").unwrap_or("gridbank.store");
    let command = args.command.as_deref().ok_or_else(usage)?;
    if command == "metrics" {
        // Self-contained workload: never touches the store.
        return run_metrics(args);
    }
    if command == "settle" {
        // Self-contained federated demo: never touches the store.
        return run_settle(args);
    }
    if command == "market" {
        // Self-contained market economy demo: never touches the store.
        return run_market_demo(args);
    }
    if command == "top" {
        // Self-contained ops dashboard: never touches the store.
        return run_top(args);
    }
    if command == "store" {
        // Offline durable-store inventory: read-only, never opens the
        // store for writing (docs/STORAGE.md).
        return run_store(args);
    }
    let bank = Bank::load(db_path)?;
    let out = match command {
        "create-account" => {
            let cert = args.require("cert")?;
            let org = args.get("org").map(str::to_string);
            let id = bank.accounts.create_account(cert, org).map_err(|e| e.to_string())?;
            format!("created account {id} for {cert}")
        }
        "deposit" | "withdraw" => {
            let account = parse_account(args.require("account")?)?;
            let amount = parse_amount(args.require("amount")?)?;
            let txid = if command == "deposit" {
                bank.admin.deposit(ADMIN_CERT, &account, amount)
            } else {
                bank.admin.withdraw(ADMIN_CERT, &account, amount)
            }
            .map_err(|e| e.to_string())?;
            format!("{command} {amount} on {account} (tx {txid})")
        }
        "transfer" => {
            let from = parse_account(args.require("from")?)?;
            let to = parse_account(args.require("to")?)?;
            let amount = parse_amount(args.require("amount")?)?;
            let txid = bank
                .accounts
                .transfer(&from, &to, amount, Vec::new())
                .map_err(|e| e.to_string())?;
            format!("transferred {amount}: {from} -> {to} (tx {txid})")
        }
        "credit-limit" => {
            let account = parse_account(args.require("account")?)?;
            let amount = parse_amount(args.require("amount")?)?;
            bank.admin
                .change_credit_limit(ADMIN_CERT, &account, amount)
                .map_err(|e| e.to_string())?;
            format!("credit limit on {account} set to {amount}")
        }
        "cancel" => {
            let txid: u64 = args.require("tx")?.parse().map_err(|e| format!("--tx: {e}"))?;
            let rev = bank.admin.cancel_transfer(ADMIN_CERT, txid).map_err(|e| e.to_string())?;
            format!("transfer {txid} reversed by tx {rev}")
        }
        "close-account" => {
            let account = parse_account(args.require("account")?)?;
            let to = args.get("transfer-to").map(parse_account).transpose()?;
            bank.admin.close_account(ADMIN_CERT, &account, to).map_err(|e| e.to_string())?;
            format!("account {account} closed")
        }
        "balance" => {
            let record = if let Some(acct) = args.get("account") {
                bank.accounts.account_details(&parse_account(acct)?)
            } else {
                bank.accounts.account_by_cert(args.require("cert")?)
            }
            .map_err(|e| e.to_string())?;
            format!(
                "{} [{}]\n  available: {}\n  locked:    {}\n  credit:    {}",
                record.id,
                record.certificate_name,
                record.available,
                record.locked,
                record.credit_limit
            )
        }
        "statement" => {
            let account = parse_account(args.require("account")?)?;
            let st = bank.accounts.statement(&account, 0, u64::MAX).map_err(|e| e.to_string())?;
            let mut out = format!(
                "statement for {} ({} transactions, {} transfers)\n",
                account,
                st.transactions.len(),
                st.transfers.len()
            );
            for t in &st.transactions {
                out.push_str(&format!(
                    "  tx {:>6}  {:>10?}  {:>18}  @{}\n",
                    t.transaction_id,
                    t.tx_type,
                    t.amount.to_string(),
                    t.date_ms
                ));
            }
            out
        }
        "accounts" => {
            let mut out =
                String::from("account           available         locked            cert\n");
            for r in bank.accounts.db().all_accounts() {
                out.push_str(&format!(
                    "{}  {:>16}  {:>14}  {}\n",
                    r.id,
                    r.available.to_string(),
                    r.locked.to_string(),
                    r.certificate_name
                ));
            }
            out.push_str(&format!("total funds: {}", bank.accounts.db().total_funds()));
            out
        }
        "branches" => {
            // Peer branches as witnessed by this bank's ledger: one
            // clearing account per peer plus any credits journalled as
            // shipped but not yet acknowledged (§6).
            let local = 1u16;
            let pending = bank.accounts.db().ib_pending_snapshot();
            let mut rows: Vec<(u16, AccountId, Credits, usize)> = Vec::new();
            for r in bank.accounts.db().all_accounts() {
                if let Some(peer) =
                    gridbank_core::branch::parse_clearing_cert(local, &r.certificate_name)
                {
                    let outstanding = pending.iter().filter(|p| p.to.branch == peer).count();
                    rows.push((peer, r.id, r.available, outstanding));
                }
            }
            rows.sort();
            if rows.is_empty() {
                String::from("no peer branches (no clearing accounts on ledger)")
            } else {
                let mut out =
                    String::from("peer    clearing account  parked balance    pending credits\n");
                for (peer, id, parked, outstanding) in rows {
                    out.push_str(&format!(
                        "{peer:04}    {id}  {:>14}  {outstanding:>15}\n",
                        parked.to_string()
                    ));
                }
                out.push_str(&format!(
                    "unacknowledged outbound credits (all peers): {}",
                    pending.len()
                ));
                out
            }
        }
        "barter-stats" => {
            let stats = BarterStats::compute(bank.accounts.db(), 0, u64::MAX);
            let mut out = String::from("account           consumed          provided\n");
            let mut ids: Vec<_> = stats.balances.keys().copied().collect();
            ids.sort();
            for id in ids {
                let b = stats.balances[&id];
                out.push_str(&format!(
                    "{}  {:>16}  {:>16}\n",
                    id,
                    b.consumed.to_string(),
                    b.provided.to_string()
                ));
            }
            out.push_str(&format!("equilibrium gap: {}", stats.equilibrium_gap()));
            out
        }
        other => return Err(format!("unknown command `{other}`\n{}", usage())),
    };
    bank.save()?;
    Ok(out)
}

fn usage() -> String {
    "usage: gridbank [--db DIR] COMMAND [flags]\n\
     commands:\n\
       create-account --cert DN [--org NAME]\n\
       deposit        --account ID --amount G$\n\
       withdraw       --account ID --amount G$\n\
       transfer       --from ID --to ID --amount G$\n\
       credit-limit   --account ID --amount G$\n\
       cancel         --tx TXID\n\
       close-account  --account ID [--transfer-to ID]\n\
       balance        --account ID | --cert DN\n\
       statement      --account ID\n\
       accounts\n\
       branches\n\
       barter-stats\n\
       metrics        [--format text|jsonl] [--filter prefix] [--remote ADDR]\n\
       top            [--frames N]\n\
       store          --dir PATH\n\
       settle         [--branches N] [--payments N] [--amount G$]\n\
       market         [--population N] [--payments N] [--auctions N] [--seed N]"
        .to_string()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match Args::parse(&argv).and_then(|args| run(&args)) {
        Ok(out) => {
            println!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("gridbank: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::parse(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn amount_parsing() {
        assert_eq!(parse_amount("12").unwrap(), Credits::from_gd(12));
        assert_eq!(parse_amount("12.5").unwrap(), Credits::from_micro(12_500_000));
        assert_eq!(parse_amount("0.000001").unwrap(), Credits::from_micro(1));
        assert_eq!(parse_amount("-3.25").unwrap(), Credits::from_micro(-3_250_000));
        for refused in ["1.0000001", "abc", "1.-5", "1.+5", "1.", "."] {
            assert!(parse_amount(refused).is_err(), "{refused:?} must be refused");
        }
    }

    #[test]
    fn arg_parsing() {
        let a =
            args(&["--db", "x.store", "deposit", "--account", "01-0001-00000001", "--amount", "5"]);
        assert_eq!(a.command.as_deref(), Some("deposit"));
        assert_eq!(a.get("db"), Some("x.store"));
        assert_eq!(a.require("amount").unwrap(), "5");
        assert!(a.require("missing").is_err());
        assert!(Args::parse(&["--flag".to_string()]).is_err());
        assert!(Args::parse(&["a".to_string(), "b".to_string()]).is_err());
    }

    #[test]
    fn end_to_end_against_temp_store() {
        let dir = std::env::temp_dir().join(format!("gridbank-cli-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let db = dir.join("bank.store");
        let db = db.to_str().unwrap();

        let out = run(&args(&["--db", db, "create-account", "--cert", "/CN=alice"])).unwrap();
        assert!(out.contains("01-0001-00000001"));
        run(&args(&["--db", db, "create-account", "--cert", "/CN=bob"])).unwrap();
        run(&args(&["--db", db, "deposit", "--account", "01-0001-00000001", "--amount", "100"]))
            .unwrap();
        run(&args(&[
            "--db",
            db,
            "transfer",
            "--from",
            "01-0001-00000001",
            "--to",
            "01-0001-00000002",
            "--amount",
            "30.5",
        ]))
        .unwrap();

        // State persisted across invocations.
        let out = run(&args(&["--db", db, "balance", "--cert", "/CN=bob"])).unwrap();
        assert!(out.contains("G$30.500000"), "{out}");
        let out = run(&args(&["--db", db, "accounts"])).unwrap();
        assert!(out.contains("total funds: G$100.000000"), "{out}");
        let out = run(&args(&["--db", db, "statement", "--account", "01-0001-00000001"])).unwrap();
        assert!(out.contains("Deposit"), "{out}");
        let out = run(&args(&["--db", db, "barter-stats"])).unwrap();
        assert!(out.contains("equilibrium gap"), "{out}");
        // The CLI's own bank is an ordinary store: `store` inspects it,
        // and each command left it checkpointed.
        let out = run(&args(&["store", "--dir", db])).unwrap();
        assert!(out.contains("2 accounts snapshotted, 0 tail entries to replay"), "{out}");

        // `metrics` runs its own workload and reports per-variant
        // latency percentiles for at least five request kinds.
        let out = run(&args(&["metrics"])).unwrap();
        for variant in ["MyAccount", "AccountDetails", "Statement", "CheckFunds", "DirectTransfer"]
        {
            assert!(
                out.contains(&format!("rpc.server.latency_ns/{variant}")),
                "missing {variant} in:\n{out}"
            );
        }
        assert!(out.contains("p99"), "{out}");
        let out = run(&args(&["metrics", "--format", "jsonl"])).unwrap();
        assert!(out.contains("\"type\":\"histogram\""), "{out}");
        assert!(run(&args(&["metrics", "--format", "xml"])).is_err());

        // `--filter` narrows the snapshot to one name prefix.
        let out = run(&args(&["metrics", "--filter", "core.transfer."])).unwrap();
        assert!(out.contains("core.transfer.count"), "{out}");
        assert!(!out.contains("rpc.server.latency_ns"), "{out}");

        // The workload includes a federated exchange, so inter-branch
        // metrics are observable through the same filter mechanism.
        let out = run(&args(&["metrics", "--filter", "ib."])).unwrap();
        assert!(out.contains("ib.transfers"), "{out}");
        assert!(out.contains("ib.settle.gross"), "{out}");
        assert!(out.contains("ib.forwarded"), "{out}");

        // `settle` runs a live two-branch federation over RPC and must
        // report fully-netted clearing accounts.
        let out = run(&args(&["settle", "--payments", "1"])).unwrap();
        assert!(out.contains("clearing accounts net to zero"), "{out}");
        assert!(out.contains("gross"), "{out}");
        let timing = out.lines().find(|l| l.starts_with("2 cross-branch payments in ")).unwrap();
        assert!(timing.contains(" ms (") && timing.contains("/s); netting pass "), "{out}");

        // `branches` on a ledger with no clearing accounts says so.
        let out = run(&args(&["--db", db, "branches"])).unwrap();
        assert!(out.contains("no peer branches"), "{out}");

        // Errors are surfaced, not panics.
        assert!(run(&args(&[
            "--db",
            db,
            "withdraw",
            "--account",
            "01-0001-00000002",
            "--amount",
            "999"
        ]))
        .is_err());
        assert!(run(&args(&["--db", db, "nonsense"])).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_inventory_reads_a_durable_store() {
        use gridbank_core::db::AccountRecord;
        use gridbank_core::store::StoreConfig;

        let dir =
            std::env::temp_dir().join(format!("gridbank-cli-store-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();

        // Build a real store: accounts, a checkpoint, and a two-entry
        // journal tail on top of it.
        let (db, _) = Database::open(1, 1, StoreConfig::at(&dir).no_fsync()).unwrap();
        for n in 1..=12u32 {
            db.insert_account(AccountRecord {
                id: AccountId::new(1, 1, n),
                certificate_name: format!("/CN=holder-{n}"),
                organization: None,
                available: Credits::from_gd(5),
                locked: Credits::ZERO,
                currency: "GridDollar".into(),
                credit_limit: Credits::ZERO,
            })
            .unwrap();
        }
        db.checkpoint().unwrap();
        for n in 13..=14u32 {
            db.insert_account(AccountRecord {
                id: AccountId::new(1, 1, n),
                certificate_name: format!("/CN=holder-{n}"),
                organization: None,
                available: Credits::from_gd(5),
                locked: Credits::ZERO,
                currency: "GridDollar".into(),
                credit_limit: Credits::ZERO,
            })
            .unwrap();
        }
        drop(db);

        let out = run(&args(&["store", "--dir", dir.to_str().unwrap()])).unwrap();
        assert!(out.contains("format v5"), "{out}");
        // One segment closed by the checkpoint, one holding the tail.
        assert!(out.contains("log segments                  2\n"), "{out}");
        assert!(out.contains("torn tail                    no\n"), "{out}");
        // One snapshot generation at LSN 12, twelve accounts in it, two
        // entries past it.
        assert!(out.contains("     1             12"), "{out}");
        assert!(out.contains("12 accounts snapshotted"), "{out}");
        assert!(out.contains("2 tail entries to replay"), "{out}");

        assert!(run(&args(&["store"])).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_rejects_non_store_directories_with_typed_errors() {
        let base = std::env::temp_dir()
            .join(format!("gridbank-cli-notastore-test-{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        std::fs::create_dir_all(&base).unwrap();

        // A directory that does not exist.
        let missing = base.join("missing");
        let err = run(&args(&["store", "--dir", missing.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("not a gridbank store"), "{err}");
        assert!(err.contains("directory does not exist"), "{err}");

        // A directory that exists but holds nothing.
        let empty = base.join("empty");
        std::fs::create_dir_all(&empty).unwrap();
        let err = run(&args(&["store", "--dir", empty.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("not a gridbank store"), "{err}");
        assert!(err.contains("directory is empty"), "{err}");

        // A non-empty directory that was never a store (no MANIFEST).
        let other = base.join("other");
        std::fs::create_dir_all(&other).unwrap();
        std::fs::write(other.join("notes.txt"), b"hello").unwrap();
        let err = run(&args(&["store", "--dir", other.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("not a gridbank store"), "{err}");
        assert!(err.contains("no MANIFEST file"), "{err}");

        // A damaged store is still a *storage* error, not NotAStore:
        // a MANIFEST exists but cannot be verified.
        let broken = base.join("broken");
        std::fs::create_dir_all(&broken).unwrap();
        std::fs::write(broken.join("MANIFEST"), b"short").unwrap();
        let err = run(&args(&["store", "--dir", broken.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("storage error"), "{err}");
        assert!(!err.contains("not a gridbank store"), "{err}");

        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn ops_plane_consumers() {
        // `metrics --remote` boots a live federation and scrapes its
        // ops plane over RPC as the enrolled OPS_ADMIN; the gate line
        // proves a regular payer was refused first.
        let out = run(&args(&["metrics", "--remote", "bank", "--format", "jsonl"])).unwrap();
        assert!(out.contains("\"type\":\"ops-gate\""), "{out}");
        assert!(out.contains("\"state\":\"Healthy\""), "{out}");
        for stage in STAGES {
            let name = format!("\"name\":\"server.stage.{stage}_ns\"");
            let line = out
                .lines()
                .find(|l| l.contains(&name))
                .unwrap_or_else(|| panic!("missing {stage} stage in:\n{out}"));
            assert!(json_num(line, "count").unwrap_or(0.0) > 0.0, "{stage} empty: {line}");
        }

        // Server-side filtering narrows the scrape; bad targets error.
        let out =
            run(&args(&["metrics", "--remote", "branch-2", "--filter", "server.stage."])).unwrap();
        assert!(out.contains("server.stage.decode_ns"), "{out}");
        assert!(!out.contains("\"name\":\"rpc.server"), "{out}");
        assert!(run(&args(&["metrics", "--remote", "branch-9"])).is_err());

        // `top` renders every stage row, peer reachability, and the
        // health verdict on each frame.
        let out = run(&args(&["top", "--frames", "2"])).unwrap();
        assert!(out.contains("frame 2/2"), "{out}");
        for stage in STAGES {
            assert!(out.contains(stage), "missing {stage} in:\n{out}");
        }
        assert!(out.contains("Healthy"), "{out}");
        assert!(out.contains("peer 0002: reachable"), "{out}");
        assert!(out.contains("leaves left"), "{out}");
        assert!(out.contains("flight recorder:"), "{out}");
        assert!(run(&args(&["top", "--frames", "0"])).is_err());
    }

    #[test]
    fn market_demo_reports_invariants() {
        // A trimmed `market` run drives the full economy — spot
        // payments, auctions, barter, PayWord — through live servers
        // and must end on the invariant verdict line.
        let out =
            run(&args(&["market", "--population", "60", "--payments", "30", "--auctions", "2"]))
                .unwrap();
        assert!(out.contains("market economy: 120 accounts"), "{out}");
        assert!(out.contains("2 settled (1 dutch, 1 english)"), "{out}");
        assert!(out.contains("ledger digest:"), "{out}");
        let timing = out.lines().find(|l| l.starts_with("elapsed ")).unwrap();
        assert!(timing.ends_with(" spot payments/s"), "{out}");
        assert!(
            out.contains(
                "invariants: conservation, exactly-once settlement, zero stranded credit — OK"
            ),
            "{out}"
        );

        // A population too small to seat the cast is rejected up front.
        assert!(run(&args(&["market", "--population", "3"])).is_err());
        assert!(run(&args(&["market", "--seed", "oops"])).is_err());
    }
}
