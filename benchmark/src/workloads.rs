//! The four workloads. Each one sets up its own world, runs phases of
//! its work units as a closed loop over the wire, and checks what the
//! bank did against what its clients were told.

use std::path::{Path, PathBuf};

use gridbank_core::api::{BankRequest, BankResponse};
use gridbank_core::direct::TransferConfirmation;
use gridbank_core::payword::ChainCommitment;
use gridbank_core::{AccountId, BankError, GridBankClient, GridCheque, StoreConfig};
use gridbank_crypto::cert::SubjectName;
use gridbank_crypto::merkle::MerkleSignature;
use gridbank_rur::record::{ResourceUsageRecord, UsageAmount};
use gridbank_rur::{ChargeableItem, Credits, Duration as RurDuration, RurBuilder};

use crate::phase::{closed_loop, is_fatal, slide, Phase, PhaseResult, Pipe, PIPELINE_DEPTH};
use crate::rng::{SplitMix64, Zipf};
use crate::world::{self, BankSpec, World, OPERATOR};

/// One in this many instruments is kept and verified after the run.
const KEEP_EVERY: u64 = 100;

/// The sample of bank-signed instruments a lane keeps: every
/// [`KEEP_EVERY`]th it is handed, the first included.
pub struct Kept<T> {
    seen: u64,
    items: Vec<T>,
}

impl<T> Kept<T> {
    fn new() -> Self {
        Kept { seen: 0, items: Vec::new() }
    }

    fn offer(&mut self, item: impl FnOnce() -> T) {
        if self.seen.is_multiple_of(KEEP_EVERY) {
            self.items.push(item());
        }
        self.seen += 1;
    }
}

/// Every kept instrument must verify under the bank's key.
fn check_kept<'a, T: 'a>(
    checks: &mut Checks,
    what: &str,
    kept: impl Iterator<Item = &'a Kept<T>>,
    verifies: impl Fn(&T) -> bool,
) {
    let items: Vec<&T> = kept.flat_map(|k| &k.items).collect();
    let bad = items.iter().filter(|i| !verifies(i)).count();
    checks.that(
        &format!("sampled {what} verify under the bank key"),
        !items.is_empty() && bad == 0,
        || format!("{bad} of {} failed", items.len()),
    );
}

/// Funds each payer starts with — far more than a run can spend.
const PAYER_FUNDS: Credits = Credits::from_gd(10_000_000);

/// Instruments stay valid for the whole run: the clock does not move
/// while a phase runs.
const VALIDITY_MS: u64 = 1_000_000_000;

/// How much of a workload one run does.
#[derive(Clone, Debug)]
pub struct Sizing {
    pub warmup_units: u64,
    pub measured_units: u64,
    pub signer_height: usize,
    /// Accounts and transfers `statement_mix` loads before it starts.
    pub prefill: (usize, usize),
}

/// Named pass/fail checks of a run's outputs.
#[derive(Default)]
pub struct Checks(pub Vec<(String, bool, String)>);

impl Checks {
    pub fn that(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.0.push((name.to_string(), ok, if ok { String::new() } else { detail() }));
    }

    pub fn all_pass(&self) -> bool {
        self.0.iter().all(|(_, ok, _)| *ok)
    }
}

/// The booted world of a workload and what a restart needs to know.
pub struct Base {
    pub world: World,
    pub bank_spec: BankSpec,
    /// The subject whose first RPC marks the bank as serving.
    pub first: SubjectName,
    /// Cold boot to the first answered RPC, seconds.
    pub boot_s: f64,
    /// Everything deposited from outside; Σ funds must equal it.
    pub deposited: Credits,
}

impl Base {
    fn boot(
        seed: u64,
        bank_spec: BankSpec,
        first: SubjectName,
    ) -> Result<(Base, GridBankClient), String> {
        let ca = world::new_ca(seed);
        let (world, client, boot_s) = World::boot_to_serving(seed, ca, &bank_spec, &first)?;
        Ok((Base { world, bank_spec, first, boot_s, deposited: Credits::ZERO }, client))
    }

    fn fund(&mut self, account: &AccountId, amount: Credits) -> Result<(), String> {
        self.world
            .bank
            .admin
            .deposit(OPERATOR, account, amount)
            .map_err(|e| format!("deposit: {e}"))?;
        self.deposited = self.deposited.saturating_add(amount);
        Ok(())
    }

    fn balance(&self, account: &AccountId) -> Credits {
        self.world.bank.accounts.account_details(account).map_or(Credits::ZERO, |r| r.available)
    }
}

/// The subjects of the client threads' payer connections.
fn payers() -> Vec<SubjectName> {
    (0..world::client_threads()).map(|i| world::subject("Payer", &format!("payer-{i}"))).collect()
}

/// One authenticated connection per subject; the first is the one the
/// boot already made.
fn connect_all(
    base: &mut Base,
    first_client: GridBankClient,
    subjects: &[SubjectName],
) -> Result<Vec<GridBankClient>, String> {
    let mut clients = vec![first_client];
    for subject in &subjects[1..] {
        clients.push(base.world.connect(subject)?);
    }
    Ok(clients)
}

fn enroll(client: &mut GridBankClient) -> Result<AccountId, String> {
    client.create_account(None).map_err(|e| format!("create_account: {e}"))
}

fn memory_bank(sizing: &Sizing) -> BankSpec {
    BankSpec { signer_height: sizing.signer_height, admins: Vec::new(), store: None, tls_height: 6 }
}

pub trait Workload: Sized + Sync {
    /// One client thread's connections and its tally of acknowledgements.
    type Lane: Send;

    /// Builds the world up to the point where the first op can be sent.
    /// `dir` is where a durable bank keeps its store.
    fn setup(seed: u64, sizing: &Sizing, dir: &Path) -> Result<(Self, Vec<Self::Lane>), String>;

    fn base(&self) -> &Base;

    fn into_base(self) -> Base;

    /// Bank signatures the units `first..first + units` consume.
    fn signatures(seed: u64, first: u64, units: u64) -> u64;

    fn run(&self, lanes: &mut [Self::Lane], phase: Phase) -> Result<PhaseResult, String>;

    /// Checks the bank's books against the lanes' tallies.
    fn check(&self, lanes: &[Self::Lane], checks: &mut Checks);
}

// ---------------------------------------------------------------- paybefore

const PAYEES: usize = 64;
const TRANSFER: Credits = Credits::from_micro(100);

pub struct PayBefore {
    base: Base,
    seed: u64,
    payees: Vec<AccountId>,
}

pub struct PayBeforeLane {
    payer: GridBankClient,
    /// Acknowledged transfers per payee.
    paid: Vec<u64>,
    kept: Kept<TransferConfirmation>,
}

/// A connection sending keyed transfers: unit `n` pays
/// `payees[n % payees.len()]` under idempotency key `key_base + n`.
pub struct TransferPipe<'a> {
    pub client: &'a mut GridBankClient,
    pub payees: &'a [AccountId],
    pub key_base: u64,
}

pub fn transfer_request(to: AccountId) -> BankRequest {
    BankRequest::DirectTransfer { to, amount: TRANSFER, recipient_address: "payee.host".into() }
}

fn confirmed(response: BankResponse) -> Result<TransferConfirmation, BankError> {
    match response {
        BankResponse::Confirmed(c) => Ok(c),
        other => Err(BankError::Protocol(format!("unexpected response {other:?}"))),
    }
}

impl Pipe for TransferPipe<'_> {
    type Response = TransferConfirmation;

    fn send(&mut self, unit: u64) -> Result<u64, BankError> {
        let to = self.payees[unit as usize % self.payees.len()];
        self.client.send_pipelined(Some(self.key_base.wrapping_add(unit)), &transfer_request(to))
    }

    fn recv(&mut self, id: u64) -> Result<TransferConfirmation, BankError> {
        self.client.recv_pipelined(id).and_then(confirmed)
    }
}

impl Workload for PayBefore {
    type Lane = PayBeforeLane;

    fn setup(
        seed: u64,
        sizing: &Sizing,
        _dir: &Path,
    ) -> Result<(Self, Vec<PayBeforeLane>), String> {
        let payers = payers();
        let (mut base, first_client) = Base::boot(seed, memory_bank(sizing), payers[0].clone())?;
        let mut payees = Vec::with_capacity(PAYEES);
        for i in 0..PAYEES {
            let cert = world::subject("Payee", &format!("payee-{i}")).0;
            payees.push(
                base.world.bank.accounts.create_account(&cert, None).map_err(|e| e.to_string())?,
            );
        }
        let mut lanes = Vec::new();
        for mut payer in connect_all(&mut base, first_client, &payers)? {
            let account = enroll(&mut payer)?;
            base.fund(&account, PAYER_FUNDS)?;
            lanes.push(PayBeforeLane { payer, paid: vec![0; PAYEES], kept: Kept::new() });
        }
        Ok((PayBefore { base, seed, payees }, lanes))
    }

    fn base(&self) -> &Base {
        &self.base
    }

    fn into_base(self) -> Base {
        self.base
    }

    fn signatures(_seed: u64, _first: u64, units: u64) -> u64 {
        units
    }

    fn run(&self, lanes: &mut [PayBeforeLane], phase: Phase) -> Result<PhaseResult, String> {
        closed_loop(lanes, phase, 1, |lane, queue, rec| {
            let PayBeforeLane { payer, paid, kept } = lane;
            let mut pipe = TransferPipe {
                client: payer,
                payees: &self.payees,
                key_base: self.seed.rotate_left(24),
            };
            slide(
                &mut pipe,
                PIPELINE_DEPTH,
                rec,
                || queue.claim(),
                |unit, confirmation| {
                    paid[unit as usize % PAYEES] += 1;
                    kept.offer(|| confirmation);
                },
            )
        })
    }

    fn check(&self, lanes: &[PayBeforeLane], checks: &mut Checks) {
        let wrong: Vec<String> = self
            .payees
            .iter()
            .enumerate()
            .filter_map(|(i, account)| {
                let acknowledged: u64 = lanes.iter().map(|l| l.paid[i]).sum();
                let expected = Credits::from_micro(TRANSFER.micro() * i128::from(acknowledged));
                let held = self.base.balance(account);
                (held != expected)
                    .then(|| format!("{account}: holds {held}, acknowledged {expected}"))
            })
            .collect();
        checks.that("payee balances equal acknowledged payments", wrong.is_empty(), || {
            wrong.join("; ")
        });
        let key = self.base.world.bank.verifying_key();
        check_kept(checks, "confirmations", lanes.iter().map(|l| &l.kept), |c| {
            c.verify(&key).is_ok()
        });
    }
}

// ------------------------------------------------------------------ payword

const CHAIN_LENGTH: u32 = 32;
const WORD_VALUE: Credits = Credits::from_micro(100);

pub struct PayWordStream {
    base: Base,
}

pub struct PayWordLane {
    payer: GridBankClient,
    payee: GridBankClient,
    payee_cert: String,
    payee_account: AccountId,
    /// Acknowledged redeems.
    redeemed: u64,
    kept: Kept<(ChainCommitment, MerkleSignature)>,
}

/// A payer and the payee it pays, each on its own connection.
struct Pair {
    payer: GridBankClient,
    payee: GridBankClient,
    payee_cert: String,
    payee_account: AccountId,
}

/// One payer/payee pair per client thread; `first_client` is payer 0.
fn pairs(base: &mut Base, first_client: GridBankClient) -> Result<Vec<Pair>, String> {
    connect_all(base, first_client, &payers())?
        .into_iter()
        .enumerate()
        .map(|(i, mut payer)| {
            let payer_account = enroll(&mut payer)?;
            base.fund(&payer_account, PAYER_FUNDS)?;
            let payee_subject = world::subject("Payee", &format!("payee-{i}"));
            let mut payee = base.world.connect(&payee_subject)?;
            let payee_account = enroll(&mut payee)?;
            Ok(Pair { payer, payee, payee_cert: payee_subject.0, payee_account })
        })
        .collect()
}

impl Workload for PayWordStream {
    type Lane = PayWordLane;

    fn setup(seed: u64, sizing: &Sizing, _dir: &Path) -> Result<(Self, Vec<PayWordLane>), String> {
        let (mut base, first_client) =
            Base::boot(seed, memory_bank(sizing), payers().swap_remove(0))?;
        let lanes = pairs(&mut base, first_client)?
            .into_iter()
            .map(|p| PayWordLane {
                payer: p.payer,
                payee: p.payee,
                payee_cert: p.payee_cert,
                payee_account: p.payee_account,
                redeemed: 0,
                kept: Kept::new(),
            })
            .collect();
        Ok((PayWordStream { base }, lanes))
    }

    fn base(&self) -> &Base {
        &self.base
    }

    fn into_base(self) -> Base {
        self.base
    }

    fn signatures(_seed: u64, _first: u64, units: u64) -> u64 {
        units
    }

    fn run(&self, lanes: &mut [PayWordLane], phase: Phase) -> Result<PhaseResult, String> {
        closed_loop(lanes, phase, u64::from(CHAIN_LENGTH), |lane, queue, rec| {
            while let Some(unit) = queue.claim() {
                let chain = match rec.call("core.client.call.request_hash_chain", || {
                    lane.payer.request_hash_chain(
                        &lane.payee_cert,
                        CHAIN_LENGTH,
                        WORD_VALUE,
                        VALIDITY_MS,
                    )
                }) {
                    Ok(chain) => chain,
                    Err(e) if is_fatal(&e) => return Err(e),
                    Err(_) => {
                        rec.fail(u64::from(CHAIN_LENGTH));
                        continue;
                    }
                };
                for k in 1..=CHAIN_LENGTH {
                    let acknowledged =
                        rec.op(unit * u64::from(CHAIN_LENGTH) + u64::from(k), |rec| {
                            let word = chain.payword(k)?;
                            let (commitment, signature) =
                                (chain.commitment.clone(), chain.signature.clone());
                            rec.call("core.client.call.redeem_payword", || {
                                lane.payee.redeem_payword(commitment, signature, word, Vec::new())
                            })
                        })?;
                    if acknowledged == Some(WORD_VALUE) {
                        lane.redeemed += 1;
                    }
                }
                lane.kept.offer(|| (chain.commitment, chain.signature));
            }
            Ok(())
        })
    }

    fn check(&self, lanes: &[PayWordLane], checks: &mut Checks) {
        let wrong: Vec<String> = lanes
            .iter()
            .filter_map(|l| {
                let expected = Credits::from_micro(WORD_VALUE.micro() * i128::from(l.redeemed));
                let held = self.base.balance(&l.payee_account);
                (held != expected)
                    .then(|| format!("{}: holds {held}, acknowledged {expected}", l.payee_account))
            })
            .collect();
        checks.that("payee balances equal acknowledged redeems", wrong.is_empty(), || {
            wrong.join("; ")
        });
        let key = self.base.world.bank.verifying_key();
        check_kept(checks, "chain commitments", lanes.iter().map(|l| &l.kept), |(c, s)| {
            gridbank_core::GridHashChain::verify_commitment(c, s, &key).is_ok()
        });
    }
}

// ------------------------------------------------------------------- cheque

const CHEQUE_RESERVED: Credits = Credits::from_gd(2);
const CHEQUE_CHARGE: Credits = Credits::from_gd(1);

pub struct ChequeDurable {
    base: Base,
}

pub struct ChequeLane {
    payer: GridBankClient,
    payee: GridBankClient,
    payee_cert: String,
    payee_account: AccountId,
    /// The one-line usage record every redemption carries.
    rur: ResourceUsageRecord,
    /// Cycles acknowledged with the expected (paid, released).
    settled: u64,
    kept: Kept<GridCheque>,
}

/// A one-line usage record naming `payee_cert` as the provider and
/// charging [`CHEQUE_CHARGE`].
pub fn one_line_rur(payee_cert: &str) -> ResourceUsageRecord {
    RurBuilder::default()
        .user("consumer.host", world::subject("Payer", "payer").0)
        .job("job-1", "bench", 0, 3_600_000)
        .resource("provider.host", payee_cert, None, 1)
        .line(ChargeableItem::Cpu, UsageAmount::Time(RurDuration::from_hours(1)), CHEQUE_CHARGE)
        .build()
        .expect("a well-formed usage record")
}

/// Where a durable workload keeps its store.
pub fn store_config(dir: &Path) -> StoreConfig {
    // Small enough that every shard in use checkpoints several times.
    StoreConfig { snapshot_every: 256, ..StoreConfig::at(dir) }
}

impl Workload for ChequeDurable {
    type Lane = ChequeLane;

    fn setup(seed: u64, sizing: &Sizing, dir: &Path) -> Result<(Self, Vec<ChequeLane>), String> {
        let bank_spec = BankSpec { store: Some(store_config(dir)), ..memory_bank(sizing) };
        let (mut base, first_client) = Base::boot(seed, bank_spec, payers().swap_remove(0))?;
        let lanes = pairs(&mut base, first_client)?
            .into_iter()
            .map(|p| ChequeLane {
                rur: one_line_rur(&p.payee_cert),
                payer: p.payer,
                payee: p.payee,
                payee_cert: p.payee_cert,
                payee_account: p.payee_account,
                settled: 0,
                kept: Kept::new(),
            })
            .collect();
        Ok((ChequeDurable { base }, lanes))
    }

    fn base(&self) -> &Base {
        &self.base
    }

    fn into_base(self) -> Base {
        self.base
    }

    fn signatures(_seed: u64, _first: u64, units: u64) -> u64 {
        units
    }

    fn run(&self, lanes: &mut [ChequeLane], phase: Phase) -> Result<PhaseResult, String> {
        closed_loop(lanes, phase, 1, |lane, queue, rec| {
            while let Some(unit) = queue.claim() {
                let outcome = rec.op(unit, |rec| {
                    let cheque = rec.call("core.client.call.request_cheque", || {
                        lane.payer.request_cheque(&lane.payee_cert, CHEQUE_RESERVED, VALIDITY_MS)
                    })?;
                    lane.kept.offer(|| cheque.clone());
                    let rur = lane.rur.clone();
                    let settled = rec.call("core.client.call.redeem_cheque", || {
                        lane.payee.redeem_cheque(cheque, rur)
                    })?;
                    Ok(settled)
                })?;
                if outcome == Some((CHEQUE_CHARGE, CHEQUE_CHARGE)) {
                    lane.settled += 1;
                }
            }
            Ok(())
        })
    }

    fn check(&self, lanes: &[ChequeLane], checks: &mut Checks) {
        let wrong: Vec<String> = lanes
            .iter()
            .filter_map(|l| {
                let expected = Credits::from_micro(CHEQUE_CHARGE.micro() * i128::from(l.settled));
                let held = self.base.balance(&l.payee_account);
                (held != expected)
                    .then(|| format!("{}: holds {held}, acknowledged {expected}", l.payee_account))
            })
            .collect();
        checks.that("payee balances equal acknowledged redemptions", wrong.is_empty(), || {
            wrong.join("; ")
        });
        let key = self.base.world.bank.verifying_key();
        let now = self.base.world.clock.now_ms();
        check_kept(checks, "cheques", lanes.iter().map(|l| &l.kept), |c| {
            c.verify(&key, None, now).is_ok()
        });
    }
}

// ---------------------------------------------------------------- statement

/// Virtual milliseconds between two prefilled transfers.
const PREFILL_STEP_MS: u64 = 10;
/// Share of the ledger's time span one statement asks for.
const WINDOW_SHARE: u64 = 10;
/// One unit in this many is a transfer; the rest are statements.
const WRITE_EVERY: u64 = 10;
/// What every prefilled account holder is given.
const HOLDER_FUNDS: Credits = Credits::from_gd(1_000_000);

pub struct StatementMix {
    base: Base,
    seed: u64,
    accounts: Vec<AccountId>,
    /// Commit times of the prefilled transfers touching each account,
    /// ascending — what a statement over a window must return.
    history: Vec<Vec<u64>>,
    zipf: Zipf,
    /// Each account's balance once the prefill is done, micro-credits.
    prefilled: Vec<i128>,
    /// The ledger spans `1..horizon_ms`; the clock rests at the horizon.
    horizon_ms: u64,
}

pub struct StatementLane {
    client: GridBankClient,
    /// Acknowledged transfers per account.
    paid: Vec<u64>,
    /// Statements whose rows were not the ones the prefill put there.
    wrong_statements: u64,
    kept: Kept<TransferConfirmation>,
}

/// What one unit of `statement_mix` asks for.
enum Ask {
    Statement { account: usize, start_ms: u64, end_ms: u64 },
    Transfer { account: usize },
}

/// The generator of one unit's inputs after its first draw, and that
/// draw: whether the unit is a transfer.
fn unit_draw(seed: u64, unit: u64) -> (bool, SplitMix64) {
    let mut rng = SplitMix64::stream(seed, 0x57A7, unit);
    (rng.below(WRITE_EVERY) == 0, rng)
}

impl StatementMix {
    fn ask(&self, unit: u64) -> Ask {
        let (write, mut rng) = unit_draw(self.seed, unit);
        let account = self.zipf.sample(&mut rng);
        if write {
            return Ask::Transfer { account };
        }
        let window = self.horizon_ms / WINDOW_SHARE;
        let start_ms = 1 + rng.below(self.horizon_ms - window);
        Ask::Statement { account, start_ms, end_ms: start_ms + window }
    }

    fn rows_in(&self, account: usize, start_ms: u64, end_ms: u64) -> usize {
        let dates = &self.history[account];
        dates.partition_point(|&d| d < end_ms) - dates.partition_point(|&d| d < start_ms)
    }
}

impl Workload for StatementMix {
    type Lane = StatementLane;

    fn setup(
        seed: u64,
        sizing: &Sizing,
        _dir: &Path,
    ) -> Result<(Self, Vec<StatementLane>), String> {
        let (n_accounts, n_transfers) = sizing.prefill;
        let auditors: Vec<SubjectName> = (0..world::client_threads())
            .map(|i| SubjectName::new("GridBank", "Admin", &format!("auditor-{i}")))
            .collect();
        let bank_spec = BankSpec {
            admins: auditors.iter().map(|s| s.0.clone()).collect(),
            ..memory_bank(sizing)
        };
        let (mut base, first_client) = Base::boot(seed, bank_spec, auditors[0].clone())?;

        // The ledger is loaded in-process and unsigned: it is the state
        // the workload reads, not work the workload measures.
        let ledger = base.world.bank.accounts.clone();
        let mut accounts = Vec::with_capacity(n_accounts);
        for i in 0..n_accounts {
            let cert = world::subject("Holder", &format!("holder-{i}")).0;
            let account = ledger.create_account(&cert, None).map_err(|e| e.to_string())?;
            base.fund(&account, HOLDER_FUNDS)?;
            accounts.push(account);
        }
        let mut history = vec![Vec::new(); n_accounts];
        let mut prefilled = vec![HOLDER_FUNDS.micro(); n_accounts];
        let mut rng = SplitMix64::stream(seed, 0x1ED6, 0);
        base.world.clock.advance(1);
        for _ in 0..n_transfers {
            let from = rng.below(n_accounts as u64) as usize;
            let to = (from + 1 + rng.below(n_accounts as u64 - 1) as usize) % n_accounts;
            let now = base.world.clock.now_ms();
            ledger
                .transfer(&accounts[from], &accounts[to], TRANSFER, Vec::new())
                .map_err(|e| format!("prefill transfer: {e}"))?;
            history[from].push(now);
            history[to].push(now);
            prefilled[from] -= TRANSFER.micro();
            prefilled[to] += TRANSFER.micro();
            base.world.clock.advance(PREFILL_STEP_MS);
        }
        let horizon_ms = base.world.clock.now_ms();

        let mut lanes = Vec::new();
        for mut client in connect_all(&mut base, first_client, &auditors)? {
            let own = enroll(&mut client)?;
            base.fund(&own, PAYER_FUNDS)?;
            lanes.push(StatementLane {
                client,
                paid: vec![0; n_accounts],
                wrong_statements: 0,
                kept: Kept::new(),
            });
        }
        let zipf = Zipf::new(n_accounts, 1.0);
        Ok((StatementMix { base, seed, accounts, history, prefilled, zipf, horizon_ms }, lanes))
    }

    fn base(&self) -> &Base {
        &self.base
    }

    fn into_base(self) -> Base {
        self.base
    }

    fn signatures(seed: u64, first: u64, units: u64) -> u64 {
        (first..first + units).filter(|&u| unit_draw(seed, u).0).count() as u64
    }

    fn run(&self, lanes: &mut [StatementLane], phase: Phase) -> Result<PhaseResult, String> {
        closed_loop(lanes, phase, 1, |lane, queue, rec| {
            while let Some(unit) = queue.claim() {
                match self.ask(unit) {
                    Ask::Statement { account, start_ms, end_ms } => {
                        let statement = rec.op(unit, |rec| {
                            rec.call("core.client.call.statement", || {
                                lane.client.statement(self.accounts[account], start_ms, end_ms)
                            })
                        })?;
                        if let Some(st) = statement {
                            let rows = self.rows_in(account, start_ms, end_ms);
                            let in_window = |d: u64| (start_ms..end_ms).contains(&d);
                            let right = st.account.id == self.accounts[account]
                                && st.transfers.len() == rows
                                && st.transactions.len() == rows
                                && st.transfers.iter().all(|t| in_window(t.date_ms))
                                && st.transactions.iter().all(|t| in_window(t.date_ms));
                            lane.wrong_statements += u64::from(!right);
                        }
                    }
                    Ask::Transfer { account } => {
                        let key = self.seed.rotate_left(24).wrapping_add(unit);
                        let request = transfer_request(self.accounts[account]);
                        let confirmation = rec.op(unit, |rec| {
                            rec.call("core.client.call.direct_transfer", || {
                                lane.client.call_keyed(Some(key), &request).and_then(confirmed)
                            })
                        })?;
                        if let Some(confirmation) = confirmation {
                            lane.paid[account] += 1;
                            lane.kept.offer(|| confirmation);
                        }
                    }
                }
            }
            Ok(())
        })
    }

    fn check(&self, lanes: &[StatementLane], checks: &mut Checks) {
        let wrong: u64 = lanes.iter().map(|l| l.wrong_statements).sum();
        checks.that(
            "every statement held exactly the prefilled rows of its window",
            wrong == 0,
            || format!("{wrong} statements differed"),
        );
        let mismatched = self
            .accounts
            .iter()
            .enumerate()
            .filter(|(i, a)| {
                let acknowledged: u64 = lanes.iter().map(|l| l.paid[*i]).sum();
                let expected = self.prefilled[*i] + TRANSFER.micro() * i128::from(acknowledged);
                self.base.balance(a).micro() != expected
            })
            .count();
        checks.that(
            "holder balances equal the prefill plus acknowledged transfers",
            mismatched == 0,
            || format!("{mismatched} holders differ"),
        );
        let key = self.base.world.bank.verifying_key();
        check_kept(checks, "confirmations", lanes.iter().map(|l| &l.kept), |c| {
            c.verify(&key).is_ok()
        });
    }
}

/// A directory for one set-up's store, under the git-ignored
/// `benchmark/.run/` — the same filesystem as the repository.
pub fn run_dir(workload: &str, seed: u64, round: usize) -> PathBuf {
    Path::new("benchmark/.run").join(format!("{workload}-{seed}-{}-{round}", std::process::id()))
}
