//! Market-driven economy at population scale, asserted end-to-end
//! through the live bank.
//!
//! The paper's GRACE economic-model menu (§2.2: "commodity market,
//! posted price, **bargaining, tendering and auction models**") meets
//! the §6 federation here: a two-branch [`Deployment`] (DESIGN.md §4
//! "Booting a bank"), a population of accounts per branch, and four
//! concurrent traffic classes driven by one deterministic clock:
//!
//! * **Spot payments** — Poisson arrivals modulated by a
//!   [`DiurnalCurve`] rush-hour cycle, recipients drawn from a
//!   [`ZipfSampler`] hot set, a seeded share crossing branches through
//!   the federation router.
//! * **Flash-crowd auctions** — a scarce GSP announces capacity
//!   auctions ([`GridServiceProvider::announce_auction`]): Dutch while
//!   idle, English once its machines fill; the broker drives each
//!   session ([`run_auction`]) and the winner settles through the live
//!   bank under the session's stable idempotency key, with a deliberate
//!   duplicate re-send that must dedup bank-side ([`settle_award`]).
//! * **Co-op barter ring** — a Figure-4 community on branch 2 seeded
//!   with [`allocate_initial_credits`], exchanging services in a ring.
//! * **PayWord streams** — long-running hash chains redeemed
//!   incrementally by the provider, closed out at expiry.
//!
//! Every run ends in hard evidence, collected into an
//! [`EconomyReport`] and checked by [`EconomyReport::verify`]: global
//! conservation (Σ funds across both branches unchanged, clearing
//! accounts included), zero residual clearing and zero pending
//! inter-branch credits after netting, zero stranded locked funds,
//! `ib.credit.stranded` unmoved, and **exactly-once settlement** of
//! every auction win (ledger rows grouped by (drawer, recipient,
//! amount) match the settlements one-for-one despite the duplicate
//! re-sends). The report also carries an FNV-1a digest of the full
//! per-branch ledger state, so two same-seed runs can be asserted
//! byte-identical.

use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use gridbank_broker::auction::{run_auction, settle_award, AuctionBidder};
use gridbank_core::client::{ClientHashChain, GridBankClient};
use gridbank_core::coop::{allocate_initial_credits, BarterStats};
use gridbank_core::db::AccountId;
use gridbank_core::port::InProcessBank;
use gridbank_core::server::{GridBank, GridBankConfig};
use gridbank_crypto::cert::SubjectName;
use gridbank_crypto::keys::KeyMaterial;
use gridbank_gsp::charging::PaymentInstrument;
use gridbank_gsp::provider::{GridServiceProvider, GspConfig};
use gridbank_meter::levels::AccountingLevel;
use gridbank_meter::machine::{JobSpec, MachineSpec, OsFlavour};
use gridbank_rur::record::ChargeableItem;
use gridbank_rur::Credits;
use gridbank_trade::pricing::FlatPricing;
use gridbank_trade::rates::ServiceRates;
use gridbank_trade::session::{AuctionKind, AuctionSession};

use crate::deploy::{DeployConfig, Deployment, OPERATOR};
use crate::workload::{DiurnalCurve, JobSizeDistribution, WorkloadConfig, ZipfSampler};

/// Market scenario parameters.
#[derive(Clone, Debug)]
pub struct EconomyConfig {
    /// Master seed; every draw and identity derives from it.
    pub seed: u64,
    /// Accounts created in each of the two branches.
    pub population_per_branch: usize,
    /// Wire-connected paying consumers per branch (drawn from the
    /// population tail so they stay clear of the Zipf hot set).
    pub payers_per_branch: usize,
    /// Spot payments across the whole run.
    pub spot_payments: usize,
    /// Percentage of spot payments that cross branches (0..=100).
    pub cross_branch_pct: u8,
    /// Zipf exponent for recipient popularity, in permille
    /// (1000 = the classic `s = 1`).
    pub zipf_s_permille: u32,
    /// Flash-crowd capacity auctions to run.
    pub auctions: usize,
    /// Bidders the broker represents per auction (≤ payers_per_branch).
    pub bidders_per_auction: usize,
    /// Co-op barter community size on branch 2.
    pub barter_members: usize,
    /// Ring rounds the community exchanges.
    pub barter_rounds: usize,
    /// Concurrent long-running PayWord streams.
    pub payword_streams: usize,
    /// Words per hash chain.
    pub payword_words: u32,
    /// Incremental redemption calls per stream.
    pub payword_redemptions: u32,
    /// Mean Poisson inter-arrival gap for spot payments, virtual ms.
    pub mean_interarrival_ms: u64,
    /// Optional day/night cycle over the arrivals.
    pub diurnal: Option<DiurnalCurve>,
    /// Bank signer height (2^h signed instruments per branch).
    pub signer_height: usize,
}

impl Default for EconomyConfig {
    fn default() -> Self {
        EconomyConfig {
            seed: 0x6B1D_2003,
            population_per_branch: 300,
            payers_per_branch: 3,
            spot_payments: 120,
            cross_branch_pct: 35,
            zipf_s_permille: 1_100,
            auctions: 3,
            bidders_per_auction: 3,
            barter_members: 5,
            barter_rounds: 3,
            payword_streams: 2,
            payword_words: 8,
            payword_redemptions: 3,
            mean_interarrival_ms: 40,
            diurnal: Some(DiurnalCurve { period_ms: 60_000, trough_pct: 20 }),
            signer_height: 9,
        }
    }
}

/// What the scenario measured — and the evidence behind it.
#[derive(Clone, Debug)]
pub struct EconomyReport {
    /// Accounts per branch.
    pub population: usize,
    /// Spot payments that committed.
    pub spot_payments: u32,
    /// Of those, how many crossed branches.
    pub cross_branch_payments: u32,
    /// Auction wins settled through the bank.
    pub auctions_settled: u32,
    /// Auctions announced under the Dutch (idle-provider) mechanism.
    pub dutch_auctions: u32,
    /// Auctions announced under the English (flash-crowd) mechanism.
    pub english_auctions: u32,
    /// Sum of winning prices.
    pub auction_volume: Credits,
    /// Duplicate settlement re-sends that deduped to the original
    /// confirmation (must equal `auctions_settled`).
    pub duplicate_settlements_deduped: u32,
    /// Ledger rows grouped by (drawer, recipient, amount) matched the
    /// settlements one-for-one.
    pub exactly_once_ok: bool,
    /// Value exchanged around the barter ring.
    pub barter_volume: Credits,
    /// Largest |provided − consumed| across community members.
    pub barter_equilibrium_gap: Credits,
    /// Total redeemed through PayWord streams.
    pub payword_paid: Credits,
    /// Reservations released when the chains closed.
    pub payword_released: Credits,
    /// Net obligations moved by the settlement pass.
    pub settlement_net: Credits,
    /// Σ funds across both branches before traffic.
    pub initial_total: Credits,
    /// Σ funds across both branches after settlement.
    pub final_total: Credits,
    /// Σ |clearing balances| after settlement.
    pub residual_clearing: Credits,
    /// Inter-branch credits still unacknowledged after settlement.
    pub pending_after: usize,
    /// Σ locked µG$ still reserved after sweeps and chain closes.
    pub stranded_locked_micro: i128,
    /// `ib.credit.stranded` counter movement across the run.
    pub stranded_credit_delta: u64,
    /// Journal length per branch.
    pub journal_len: [usize; 2],
    /// FNV-1a digest over both branches' sorted account state and
    /// journal lengths — byte-identical across same-seed runs.
    pub ledger_digest: u64,
}

impl EconomyReport {
    /// Eager cross-branch credits exactly offset by clearing drains?
    pub fn conserved(&self) -> bool {
        self.initial_total == self.final_total
    }

    /// Checks every hard invariant the scenario promises; `Err` carries
    /// all violations joined together.
    pub fn verify(&self) -> Result<(), String> {
        let mut faults = Vec::new();
        if !self.conserved() {
            faults.push(format!(
                "conservation violated: {} before, {} after",
                self.initial_total, self.final_total
            ));
        }
        if self.residual_clearing != Credits::ZERO {
            faults.push(format!("residual clearing {}", self.residual_clearing));
        }
        if self.pending_after != 0 {
            faults.push(format!("{} inter-branch credits still pending", self.pending_after));
        }
        if self.stranded_locked_micro != 0 {
            faults.push(format!("{}µG$ locked funds stranded", self.stranded_locked_micro));
        }
        if self.stranded_credit_delta != 0 {
            faults.push(format!("ib.credit.stranded moved by {}", self.stranded_credit_delta));
        }
        if !self.exactly_once_ok {
            faults.push("auction settlements did not apply exactly once".into());
        }
        if self.duplicate_settlements_deduped != self.auctions_settled {
            faults.push(format!(
                "{} of {} duplicate re-sends deduped",
                self.duplicate_settlements_deduped, self.auctions_settled
            ));
        }
        if faults.is_empty() {
            Ok(())
        } else {
            Err(faults.join("; "))
        }
    }
}

fn pop_dn(branch: usize, index: usize) -> SubjectName {
    SubjectName(format!("/O=Market/OU=Pop/CN=pop-{branch}-{index:06}"))
}

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// FNV-1a over both branches' sorted account state plus journal
/// lengths: the determinism witness.
fn ledger_digest(banks: &[&Arc<GridBank>]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for bank in banks {
        let mut accounts = bank.all_accounts();
        accounts.sort_by_key(|a| a.id);
        for a in &accounts {
            fnv(&mut h, &a.id.bank.to_le_bytes());
            fnv(&mut h, &a.id.branch.to_le_bytes());
            fnv(&mut h, &a.id.number.to_le_bytes());
            fnv(&mut h, a.certificate_name.as_bytes());
            fnv(&mut h, &a.available.micro().to_le_bytes());
            fnv(&mut h, &a.locked.micro().to_le_bytes());
        }
        fnv(&mut h, &(bank.accounts.db().journal_len() as u64).to_le_bytes());
    }
    h
}

/// One scheduled interleave point in the spot-payment stream.
enum MarketEvent {
    Auction(usize),
    BarterRound,
    StreamRedeem(usize),
}

/// Runs the full market scenario; see module docs. Deterministic under
/// `cfg.seed` — the returned report's `ledger_digest` is identical
/// across same-seed runs.
pub fn run_market(cfg: &EconomyConfig) -> Result<EconomyReport, String> {
    if cfg.payers_per_branch == 0 || cfg.spot_payments == 0 {
        return Err("market needs at least one payer and one payment".into());
    }
    if cfg.bidders_per_auction > cfg.payers_per_branch {
        return Err("bidders_per_auction must not exceed payers_per_branch".into());
    }
    let reserved = cfg.payers_per_branch + cfg.barter_members + cfg.payword_streams;
    if cfg.population_per_branch < reserved + 10 {
        return Err(format!(
            "population_per_branch {} too small for {reserved} reserved identities",
            cfg.population_per_branch
        ));
    }

    let world = Deployment::boot(DeployConfig {
        seed: cfg.seed,
        // The CA signs one certificate per server, settlement route and
        // wire identity — more than a small test CA's 16 leaves.
        ca_height: 10,
        ..DeployConfig::federated(2, |b| GridBankConfig {
            signer_height: cfg.signer_height,
            key_material: KeyMaterial { seed: 0x6B1D + b as u64 },
            ..GridBankConfig::default()
        })
    })?;
    let banks: Vec<&Arc<GridBank>> = world.banks().collect();
    let connect = |dn: SubjectName, seed: u64, branch: u16| -> Result<GridBankClient, String> {
        world.identity(dn, seed)?.connect(branch).map_err(|e| e.to_string())
    };
    let mut operator = InProcessBank::new(Arc::clone(banks[0]), SubjectName(OPERATOR.into()));

    // Population: every account exists in the live ledger, bound to its
    // own certificate. Created through the dispatcher (same
    // authorization path as the wire, no handshake per account — the
    // wire clients below re-attach to these identities).
    let mut population: Vec<Vec<AccountId>> = vec![Vec::new(), Vec::new()];
    for (b, bank) in banks.iter().enumerate() {
        for i in 0..cfg.population_per_branch {
            let account = InProcessBank::new(Arc::clone(bank), pop_dn(b, i))
                .create_account(None)
                .map_err(|e| format!("population account {b}/{i}: {e}"))?;
            population[b].push(account);
        }
    }

    // Payers: wire clients re-attaching to tail population identities
    // (the Zipf hot set lives at the head, so payers rarely pay
    // themselves and never dominate the receiving side).
    let mut payers: Vec<Vec<GridBankClient>> = vec![Vec::new(), Vec::new()];
    let mut payer_accounts: Vec<Vec<AccountId>> = vec![Vec::new(), Vec::new()];
    let mut payer_dns: Vec<Vec<String>> = vec![Vec::new(), Vec::new()];
    for b in 0..2usize {
        let mut admin = world.admin(b as u16 + 1)?;
        for j in 0..cfg.payers_per_branch {
            let idx = cfg.population_per_branch - 1 - j;
            let dn = pop_dn(b, idx);
            let client = connect(dn.clone(), 10_000 + (b as u64) * 1_000 + j as u64, b as u16 + 1)?;
            admin
                .admin_deposit(population[b][idx], Credits::from_gd(2_000))
                .map_err(|e| format!("fund payer {b}/{j}: {e}"))?;
            payers[b].push(client);
            payer_accounts[b].push(population[b][idx]);
            payer_dns[b].push(dn.0);
        }
    }

    // The scarce provider on branch 1: a wire identity for PayWord
    // redemption plus the in-process provider stack (meter, template
    // pool, charging module) behind the same certificate and account.
    let gsp_dn = SubjectName::new("Market", "GSP", "gsp-1");
    let gsp_cert = "/O=Market/OU=GSP/CN=gsp-1".to_string();
    let mut gsp_client = connect(gsp_dn.clone(), 40_000, 1)?;
    let gsp_account = gsp_client.create_account(None).map_err(|e| format!("gsp account: {e}"))?;
    let base_rates = ServiceRates::new()
        .with(ChargeableItem::Cpu, Credits::from_gd(2))
        .with(ChargeableItem::WallClock, Credits::from_gd(1))
        .with(ChargeableItem::Memory, Credits::from_milli(10))
        .with(ChargeableItem::Network, Credits::from_milli(5));
    let mut provider = GridServiceProvider::new(
        GspConfig {
            cert: gsp_cert.clone(),
            host: "gsp-1.market".into(),
            machines: (0..2)
                .map(|m| MachineSpec {
                    host: format!("gsp-1-node-{m}"),
                    os: OsFlavour::Linux,
                    speed: 100,
                    cores: 4,
                    memory_mb: 16_384,
                })
                .collect(),
            base_rates,
            pool_size: 8,
            accounting_level: AccountingLevel::Standard,
            machine_seed: cfg.seed,
        },
        banks[0].verifying_key(),
        InProcessBank::new(Arc::clone(banks[0]), gsp_dn),
        Box::new(FlatPricing),
    );

    // The consumer whose cheque-paid job makes the provider scarce,
    // flipping later announcements from Dutch to English.
    let filler_dn = SubjectName::new("Market", "Occupy", "filler");
    let mut filler_port = InProcessBank::new(Arc::clone(banks[0]), filler_dn);
    let filler_account =
        filler_port.create_account(None).map_err(|e| format!("filler account: {e}"))?;
    operator
        .admin_deposit(filler_account, Credits::from_gd(500))
        .map_err(|e| format!("filler deposit: {e}"))?;

    // PayWord streams: dedicated consumers on branch 1 (kept disjoint
    // from the auction bidders so the exactly-once grouping below can
    // never collide with stream redemptions).
    const CHAIN_VALIDITY_MS: u64 = 600_000;
    let mut stream_clients = Vec::new();
    let mut chains: Vec<ClientHashChain> = Vec::new();
    let mut redeemed: Vec<u32> = Vec::new();
    for s in 0..cfg.payword_streams {
        let idx = cfg.population_per_branch - 1 - cfg.payers_per_branch - s;
        let mut client = connect(pop_dn(0, idx), 20_000 + s as u64, 1)?;
        operator
            .admin_deposit(population[0][idx], Credits::from_gd(100))
            .map_err(|e| format!("stream {s} deposit: {e}"))?;
        let chain = client
            .request_hash_chain(
                &gsp_cert,
                cfg.payword_words,
                Credits::from_milli(20),
                CHAIN_VALIDITY_MS,
            )
            .map_err(|e| format!("stream {s} chain: {e}"))?;
        stream_clients.push(client);
        chains.push(chain);
        redeemed.push(0);
    }

    // Barter community on branch 2, seeded Figure-4 style.
    let mut barter_clients = Vec::new();
    let mut barter_accounts = Vec::new();
    let mut barter_allocs = Vec::new();
    let mut seed_rng = StdRng::seed_from_u64(cfg.seed ^ 0x0BA7_7E12);
    for m in 0..cfg.barter_members {
        let idx = cfg.population_per_branch - 1 - cfg.payers_per_branch - m;
        let client = connect(pop_dn(1, idx), 25_000 + m as u64, 2)?;
        barter_clients.push(client);
        barter_accounts.push(population[1][idx]);
        barter_allocs.push((population[1][idx], seed_rng.random_range(10u64..30)));
    }
    if !barter_allocs.is_empty() {
        allocate_initial_credits(&banks[1].admin, OPERATOR, &barter_allocs, Credits::from_gd(1))
            .map_err(|e| format!("barter allocation: {e}"))?;
    }

    // Everything is minted; from here the economy must conserve.
    let stranded_before =
        gridbank_obs::registry().snapshot().counter("ib.credit.stranded").unwrap_or(0);
    let initial_total = world.total_funds();
    let barter_window_start = world.clock.now_ms();

    // Spot-payment arrival schedule, with auctions / barter rounds /
    // stream redemptions interleaved at fixed points.
    let workload = WorkloadConfig {
        seed: cfg.seed,
        count: cfg.spot_payments,
        consumers: cfg.payers_per_branch * 2,
        mean_interarrival_ms: cfg.mean_interarrival_ms,
        sizes: JobSizeDistribution::Constant(10),
        memory_mb: 64,
        network_mb: 1,
        diurnal: cfg.diurnal,
    };
    let events = workload.generate();
    let mut schedule: HashMap<usize, Vec<MarketEvent>> = HashMap::new();
    let clamp = |i: usize| i.min(events.len().saturating_sub(1));
    for a in 0..cfg.auctions {
        let at = clamp((a + 1) * events.len() / (cfg.auctions + 1));
        schedule.entry(at).or_default().push(MarketEvent::Auction(a));
    }
    for r in 0..cfg.barter_rounds {
        let at = clamp((r + 1) * events.len() / (cfg.barter_rounds + 1));
        schedule.entry(at).or_default().push(MarketEvent::BarterRound);
    }
    let stream_calls = cfg.payword_streams * cfg.payword_redemptions as usize;
    for c in 0..stream_calls {
        let at = clamp((c + 1) * events.len() / (stream_calls + 1));
        schedule.entry(at).or_default().push(MarketEvent::StreamRedeem(c));
    }

    let zipf = ZipfSampler::new(cfg.population_per_branch, cfg.zipf_s_permille);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5107_A301);
    let word_step = (cfg.payword_words / cfg.payword_redemptions.max(1)).max(1);

    let mut spot_count = 0u32;
    let mut cross_count = 0u32;
    let mut auctions_settled = 0u32;
    let mut dutch_auctions = 0u32;
    let mut english_auctions = 0u32;
    let mut auction_volume = Credits::ZERO;
    let mut dups_deduped = 0u32;
    let mut settle_triples: Vec<(AccountId, AccountId, Credits)> = Vec::new();
    let mut barter_volume = Credits::ZERO;
    let mut payword_paid = Credits::ZERO;

    let mut last_ms = 0u64;
    for (k, ev) in events.iter().enumerate() {
        world.clock.advance(ev.arrival_ms.saturating_sub(last_ms));
        last_ms = ev.arrival_ms;

        // The spot payment itself: Zipf-popular recipient, seeded share
        // crossing branches through the live federation route.
        let b_from = ev.consumer % 2;
        let j = (ev.consumer / 2) % cfg.payers_per_branch;
        let cross = rng.random_range(0u32..100) < cfg.cross_branch_pct as u32;
        let b_to = if cross { 1 - b_from } else { b_from };
        let mut rank = zipf.sample(&mut rng);
        if population[b_to][rank] == payer_accounts[b_from][j] {
            rank = (rank + 1) % cfg.population_per_branch;
        }
        // lint:allow(money-arith) bounded literal draw builds a fixture amount; cannot overflow
        let amount = Credits::from_micro((rng.random_range(50i64..500) * 1_000 + 7) as i128);
        payers[b_from][j]
            .direct_transfer(population[b_to][rank], amount, "spot.market")
            .map_err(|e| format!("spot payment {k}: {e}"))?;
        spot_count += 1;
        gridbank_obs::count("market.payments", 1);
        if cross {
            cross_count += 1;
            gridbank_obs::count("market.cross_branch", 1);
        }

        let Some(actions) = schedule.remove(&k) else { continue };
        for action in actions {
            match action {
                MarketEvent::Auction(a) => {
                    let now = world.clock.now_ms();
                    let announcement = provider
                        .announce_auction(a as u64 + 1, "burst capacity", now)
                        .map_err(|e| format!("auction {a} announce: {e:?}"))?;
                    let base = match announcement.kind {
                        AuctionKind::English { reserve, .. } => {
                            english_auctions += 1;
                            reserve
                        }
                        AuctionKind::Dutch { floor, .. } => {
                            dutch_auctions += 1;
                            floor
                        }
                        AuctionKind::FirstPriceSealed { reserve }
                        | AuctionKind::Vickrey { reserve } => reserve,
                    };
                    let mut session = AuctionSession::open(announcement);
                    let mut bidders = Vec::new();
                    for (i, dn) in payer_dns[0].iter().take(cfg.bidders_per_auction).enumerate() {
                        let pct = 110 + 25 * i as u64 + rng.random_range(0u64..20);
                        let valuation = base
                            .mul_ratio(pct, 100)
                            .map_err(|e| format!("auction {a} valuation: {e}"))?;
                        bidders.push(AuctionBidder { bidder: dn.clone(), valuation });
                    }
                    let settlement = run_auction(&mut session, &bidders)
                        .map_err(|e| format!("auction {a}: {e}"))?;
                    let widx = payer_dns[0]
                        .iter()
                        .position(|dn| *dn == settlement.award.winner)
                        .ok_or_else(|| format!("auction {a}: unknown winner"))?;
                    let confirmation = settle_award(
                        &mut payers[0][widx],
                        &settlement,
                        gsp_account,
                        "gsp-1.market",
                    )
                    .map_err(|e| format!("auction {a} settle: {e}"))?;
                    // Deliberate duplicate re-send of the same
                    // settlement: the bank must replay the remembered
                    // confirmation, not apply a second transfer.
                    let duplicate = settle_award(
                        &mut payers[0][widx],
                        &settlement,
                        gsp_account,
                        "gsp-1.market",
                    )
                    .map_err(|e| format!("auction {a} re-send: {e}"))?;
                    if duplicate.body == confirmation.body {
                        dups_deduped += 1;
                    }
                    settle_triples.push((
                        confirmation.body.drawer,
                        confirmation.body.recipient,
                        settlement.award.price,
                    ));
                    auction_volume = auction_volume.saturating_add(settlement.award.price);
                    auctions_settled += 1;
                    gridbank_obs::count("market.auctions.settled", 1);

                    if a == 0 {
                        // Flash crowd: a cheque-paid job fills half the
                        // provider's machines, so every later
                        // announcement is an English ascending auction.
                        let quote = provider
                            .quote(world.clock.now_ms(), 1_000_000)
                            .map_err(|e| format!("occupancy quote: {e:?}"))?;
                        let cheque = filler_port
                            .request_cheque(&gsp_cert, Credits::from_gd(50), 10_000_000)
                            .map_err(|e| format!("occupancy cheque: {e}"))?;
                        provider
                            .execute_job(
                                "/O=Market/OU=Occupy/CN=filler",
                                PaymentInstrument::Cheque(cheque),
                                &JobSpec::cpu_bound(360_000_000),
                                &quote.rates,
                                world.clock.now_ms(),
                            )
                            .map_err(|e| format!("occupancy job: {e:?}"))?;
                    }
                }
                MarketEvent::BarterRound => {
                    let n = barter_clients.len();
                    for i in 0..n {
                        let amount = Credits::from_milli(rng.random_range(50i64..250));
                        let to = barter_accounts[(i + 1) % n];
                        barter_clients[i]
                            .direct_transfer(to, amount, "barter.coop")
                            .map_err(|e| format!("barter transfer: {e}"))?;
                        barter_volume = barter_volume.saturating_add(amount);
                        gridbank_obs::count("market.barter.volume_micro", amount.metric_micro());
                    }
                }
                MarketEvent::StreamRedeem(c) => {
                    let s = c % cfg.payword_streams.max(1);
                    let next = (redeemed[s] + word_step).min(cfg.payword_words);
                    if next > redeemed[s] {
                        let payword = chains[s]
                            .payword(next)
                            .map_err(|e| format!("stream {s} payword {next}: {e:?}"))?;
                        let paid = gsp_client
                            .redeem_payword(
                                chains[s].commitment.clone(),
                                chains[s].signature.clone(),
                                payword,
                                Vec::new(),
                            )
                            .map_err(|e| format!("stream {s} redeem: {e}"))?;
                        payword_paid = payword_paid.saturating_add(paid);
                        redeemed[s] = next;
                        gridbank_obs::count("market.payword.redeemed_micro", paid.metric_micro());
                    }
                }
            }
        }
    }
    let barter_window_end = world.clock.now_ms().saturating_add(1);

    // Close out: expire the chains, release their reservations, sweep,
    // and net the clearing accounts.
    world.clock.advance(CHAIN_VALIDITY_MS + 100_000);
    let mut payword_released = Credits::ZERO;
    for (s, chain) in chains.iter().enumerate() {
        let released = stream_clients[s]
            .close_hash_chain(chain.commitment.clone())
            .map_err(|e| format!("stream {s} close: {e}"))?;
        payword_released = payword_released.saturating_add(released);
    }
    for bank in &banks {
        bank.sweep_expired_instruments();
    }
    let mut settlement_net = Credits::ZERO;
    for router in world.routers() {
        let report = router.settle_once().map_err(|e| format!("settlement: {e}"))?;
        settlement_net = settlement_net.saturating_add(report.total_net());
    }

    // Evidence.
    let final_total = world.total_funds();
    let (residual_clearing, pending_after) = world.settlement_residue();
    let stranded_locked_micro: i128 =
        banks.iter().flat_map(|b| b.all_accounts()).map(|a| a.locked.micro()).sum();
    let stranded_after =
        gridbank_obs::registry().snapshot().counter("ib.credit.stranded").unwrap_or(0);

    // Exactly-once: group the auction settlements by (drawer,
    // recipient, amount) and demand the ledger carry precisely that
    // many rows per group — the duplicate re-sends must not show.
    let mut expected: HashMap<(AccountId, AccountId, i128), usize> = HashMap::new();
    for (drawer, recipient, amount) in &settle_triples {
        // lint:allow(money-arith) increments a usize occurrence counter; .micro() is only a map key
        *expected.entry((*drawer, *recipient, amount.micro())).or_default() += 1;
    }
    let mut observed: HashMap<(AccountId, AccountId, i128), usize> = HashMap::new();
    for t in banks[0].accounts.db().all_transfers() {
        let key = (t.drawer, t.recipient, t.amount.micro());
        if expected.contains_key(&key) {
            *observed.entry(key).or_default() += 1;
        }
    }
    let exactly_once_ok = expected == observed;

    let barter_stats =
        BarterStats::compute(banks[1].accounts.db(), barter_window_start, barter_window_end);
    let barter_equilibrium_gap = barter_accounts
        .iter()
        .filter_map(|a| barter_stats.balances.get(a))
        .map(|b| b.net().abs())
        .fold(Credits::ZERO, Credits::max);

    Ok(EconomyReport {
        population: cfg.population_per_branch,
        spot_payments: spot_count,
        cross_branch_payments: cross_count,
        auctions_settled,
        dutch_auctions,
        english_auctions,
        auction_volume,
        duplicate_settlements_deduped: dups_deduped,
        exactly_once_ok,
        barter_volume,
        barter_equilibrium_gap,
        payword_paid,
        payword_released,
        settlement_net,
        initial_total,
        final_total,
        residual_clearing,
        pending_after,
        stranded_locked_micro,
        stranded_credit_delta: stranded_after.saturating_sub(stranded_before),
        journal_len: [banks[0].accounts.db().journal_len(), banks[1].accounts.db().journal_len()],
        ledger_digest: ledger_digest(&banks),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> EconomyConfig {
        EconomyConfig {
            population_per_branch: 120,
            spot_payments: 60,
            auctions: 2,
            barter_rounds: 2,
            ..EconomyConfig::default()
        }
    }

    #[test]
    fn market_economy_small_run_passes_every_invariant() {
        let report = run_market(&small()).expect("scenario runs");
        report.verify().expect("invariants hold");
        assert_eq!(report.auctions_settled, 2);
        assert_eq!(report.dutch_auctions, 1, "idle provider opens Dutch");
        assert_eq!(report.english_auctions, 1, "scarce provider flips to English");
        assert!(report.cross_branch_payments > 0, "some traffic must cross branches");
        assert!(report.payword_paid > Credits::ZERO);
        assert!(report.barter_volume > Credits::ZERO);
        assert!(report.auction_volume > Credits::ZERO);
    }

    #[test]
    fn same_seed_market_runs_are_byte_identical() {
        let a = run_market(&small()).expect("first run");
        let b = run_market(&small()).expect("second run");
        assert_eq!(a.ledger_digest, b.ledger_digest, "ledger state must be byte-identical");
        assert_eq!(a.journal_len, b.journal_len);
        assert_eq!(a.final_total, b.final_total);
        assert_eq!(a.auction_volume, b.auction_volume);

        let c = run_market(&EconomyConfig { seed: 0x0DD_5EED, ..small() }).expect("third run");
        assert_ne!(a.ledger_digest, c.ledger_digest, "different seeds must diverge");
    }
}
