//! The layer budget: each layer's cost, measured from outside by timing
//! calls into its public functions. A probe reports the median of
//! [`CALLS`] timed calls after [`WARMUP`] unrecorded ones, unless its
//! comment names another count.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use gridbank_core::api::{BankRequest, BankResponse};
use gridbank_core::{
    store, AccountId, Clock, Database, GbAccounts, GridBank, GridBankClient, StoreConfig,
};
use gridbank_crypto::cert::SubjectName;
use gridbank_crypto::hmac::hmac_sha256;
use gridbank_crypto::keys::{KeyMaterial, SigningIdentity};
use gridbank_crypto::sha256::{sha256, Digest};
use gridbank_net::transport::{Address, Network};
use gridbank_net::SecureChannel;
use gridbank_rur::record::ResourceUsageRecord;
use gridbank_rur::{Credits, Decode, Encode};

use crate::phase::{self, Phase, PIPELINE_DEPTH};
use crate::rng::SplitMix64;
use crate::stats;
use crate::workloads::{one_line_rur, transfer_request, TransferPipe};
use crate::world::{self, BankSpec, World, OPERATOR};

const WARMUP: usize = 20;
const CALLS: usize = 200;

pub type Budget = BTreeMap<&'static str, f64>;

/// Median nanoseconds of `f`, each call timed on its own.
fn median_ns(warmup: usize, calls: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..warmup {
        f();
    }
    let samples: Vec<u64> = (0..calls)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as u64
        })
        .collect();
    stats::median_u64(&samples)
}

/// Median nanoseconds of one of `batch` back-to-back calls of `f` — for
/// work too short to time one call at a time.
fn median_ns_batched(batch: usize, mut f: impl FnMut()) -> f64 {
    median_ns(WARMUP, CALLS, || (0..batch).for_each(|_| f())) / batch as f64
}

fn micros(ns: f64) -> f64 {
    ns / 1e3
}

fn millis(ns: f64) -> f64 {
    ns / 1e6
}

/// One compression of the program's SHA-256, from hashing 16 KiB (256
/// blocks and one of padding). A layer metric and nothing else: the
/// host's speed is read off [`crate::yardstick`], which the program
/// cannot change.
fn sha256_block_ns() -> f64 {
    let data = vec![0xA5u8; 16 * 1024];
    median_ns(WARMUP, 5 * CALLS, || {
        black_box(sha256(black_box(&data)));
    }) / 257.0
}

fn expect_ok(what: &str, response: BankResponse) -> Result<BankResponse, String> {
    match response {
        BankResponse::Error { message, .. } => {
            Err(format!("probe {what}: bank refused: {message}"))
        }
        ok => Ok(ok),
    }
}

/// Request and response of one op: their encoded size, and the median
/// time to encode and decode both.
fn codec(request: &BankRequest, response: &BankResponse) -> (f64, f64) {
    let bytes = request.to_bytes().len() + response.to_bytes().len();
    let ns = median_ns(WARMUP, CALLS, || {
        let req = black_box(request).to_bytes();
        black_box(BankRequest::from_bytes(&req).expect("request decodes"));
        let resp = black_box(response).to_bytes();
        black_box(BankResponse::from_bytes(&resp).expect("response decodes"));
    });
    (bytes as f64, micros(ns))
}

/// A ledger of `accounts` funded holders, for the history probes.
struct Ledger {
    accounts: GbAccounts,
    holders: Vec<AccountId>,
    rng: SplitMix64,
    /// Transfers made through [`Ledger::transfer`].
    transfers: usize,
}

impl Ledger {
    fn new(db: Database, clock: Clock, holders: usize, seed: u64) -> Result<Ledger, String> {
        let accounts = GbAccounts::new(Arc::new(db), clock);
        let mut ids = Vec::with_capacity(holders);
        for i in 0..holders {
            let id = accounts
                .create_account(&world::subject("Holder", &format!("holder-{i}")).0, None)
                .map_err(|e| e.to_string())?;
            accounts
                .db()
                .with_account_mut(&id, |r| {
                    r.available = Credits::from_gd(1_000_000);
                    Ok(())
                })
                .map_err(|e| e.to_string())?;
            ids.push(id);
        }
        Ok(Ledger { accounts, holders: ids, rng: SplitMix64::new(seed), transfers: 0 })
    }

    /// One transfer between two random holders, one virtual ms later.
    fn transfer(&mut self) {
        let n = self.holders.len() as u64;
        let from = self.rng.below(n) as usize;
        let to = (from + 1 + self.rng.below(n - 1) as usize) % self.holders.len();
        self.accounts.clock().advance(1);
        self.accounts
            .transfer(&self.holders[from], &self.holders[to], Credits::from_micro(100), Vec::new())
            .expect("a funded holder can pay");
        self.transfers += 1;
    }

    fn grow_to(&mut self, transfers: usize) {
        while self.transfers < transfers {
            self.transfer();
        }
    }
}

/// Every isolated probe. Takes about ten seconds.
pub fn isolated(seed: u64, scratch: &Path) -> Result<Budget, String> {
    let mut b = Budget::new();
    crypto(seed, &mut b);
    history(seed, &mut b)?;
    storage(seed, scratch, &mut b)?;
    bank_and_wire(seed, &mut b)?;
    let rur = one_line_rur("/O=Bench/OU=Payee/CN=payee");
    b.insert(
        "rur.codec.roundtrip_us",
        micros(median_ns(WARMUP, CALLS, || {
            let bytes = black_box(&rur).to_bytes();
            black_box(ResourceUsageRecord::from_bytes(&bytes).expect("record decodes"));
        })),
    );
    gridbank_obs::set_telemetry(true);
    let histogram = gridbank_obs::registry().histogram("bench.probe.record_ns");
    b.insert("obs.record_ns", median_ns_batched(1000, || histogram.record(black_box(1234))));
    gridbank_obs::set_telemetry(false);
    Ok(b)
}

fn crypto(seed: u64, b: &mut Budget) {
    b.insert("crypto.sha256.block_ns", sha256_block_ns());
    let (key, msg) = ([7u8; 32], [9u8; 32]);
    b.insert(
        "crypto.hmac.tag_ns",
        median_ns_batched(100, || {
            black_box(hmac_sha256(black_box(&key), black_box(&msg)));
        }),
    );
    // Key generation takes over a second: three calls, no warm-up.
    let mut identity = None;
    let keygen = median_ns(0, 3, || {
        identity = Some(SigningIdentity::generate_with_height(KeyMaterial { seed }, "probe", 10));
    });
    b.insert("crypto.merkle.keygen_ms_h10", millis(keygen));
    let identity = identity.expect("generated above");
    let message = [3u8; 96];
    let mut signatures = Vec::with_capacity(WARMUP + CALLS);
    let sign = median_ns(WARMUP, CALLS, || {
        signatures.push(identity.sign(black_box(&message)).expect("leaves remain"));
    });
    b.insert("crypto.merkle.sign_us", micros(sign));
    let key = identity.verifying_key();
    let mut next = signatures.iter().cycle();
    let verify = median_ns(WARMUP, CALLS, || {
        key.verify(black_box(&message), next.next().expect("cycle")).expect("signature verifies");
    });
    b.insert("crypto.merkle.verify_us", micros(verify));
    b.insert("crypto.merkle.sig_bytes_h10", signatures[0].to_bytes().len() as f64);
}

/// A sealed duplex pair over the in-process network, for timing
/// `SecureChannel::send` and `recv`.
struct ChannelPair {
    sender: SecureChannel,
    receiver: SecureChannel,
}

impl ChannelPair {
    fn new() -> Result<ChannelPair, String> {
        let network = Network::new();
        let address = Address::new("probe");
        let listener = network.bind(address.clone()).map_err(|e| e.to_string())?;
        let near =
            network.connect(Address::new("probe-client"), &address).map_err(|e| e.to_string())?;
        let far = listener.accept().map_err(|e| e.to_string())?;
        let secret = Digest([0x42; 32]);
        Ok(ChannelPair {
            sender: SecureChannel::new(near, &secret, true),
            receiver: SecureChannel::new(far, &secret, false),
        })
    }

    /// Seals and sends `plaintext`, then receives and opens it; the
    /// nanoseconds each half took.
    fn pass(&mut self, plaintext: &[u8]) -> Result<[u64; 2], String> {
        let t = Instant::now();
        self.sender.send(black_box(plaintext)).map_err(|e| e.to_string())?;
        let sent = t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        black_box(self.receiver.recv().map_err(|e| e.to_string())?);
        Ok([sent, t.elapsed().as_nanos() as u64])
    }
}

/// The layers a depth-1 pay-before transfer passes through, in order —
/// the small request sealed and opened, dispatched, the signed 16 KiB
/// confirmation sealed and opened — and the transfer itself over the
/// wire. They are timed in turns, one call of each per round, so that
/// the host's drift falls on all of them alike when the layers are
/// summed against the whole. Returns a confirmation.
fn serial_budget(
    bank: &GridBank,
    payer_subject: &SubjectName,
    payer: &mut GridBankClient,
    transfer: &BankRequest,
    b: &mut Budget,
) -> Result<BankResponse, String> {
    const NAMES: [&str; 6] = [
        "net.channel.send_us_256b",
        "net.channel.recv_us_256b",
        "net.channel.send_us_16k",
        "net.channel.recv_us_16k",
        "core.server.handle_us_direct_transfer",
        "bench.serial_latency_us_paybefore",
    ];
    let mut pair = ChannelPair::new()?;
    let (small, large) = (vec![0x5Au8; 256], vec![0x5Au8; 16 * 1024]);
    let mut samples: [Vec<u64>; 6] = std::array::from_fn(|_| Vec::with_capacity(CALLS));
    let mut confirmation = None;
    for round in 0..WARMUP + CALLS {
        let [send_small, recv_small] = pair.pass(&small)?;
        let [send_large, recv_large] = pair.pass(&large)?;
        let t = Instant::now();
        let handled = bank.handle(payer_subject, black_box(transfer.clone()));
        let handle = t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let answer = payer.call_keyed(Some(1_000_000 + round as u64), transfer);
        let wire = t.elapsed().as_nanos() as u64;
        answer.map_err(|e| format!("probe transfer over the wire: {e}"))?;
        confirmation = Some(expect_ok("direct_transfer", handled)?);
        if round >= WARMUP {
            let round = [send_small, recv_small, send_large, recv_large, handle, wire];
            samples.iter_mut().zip(round).for_each(|(all, one)| all.push(one));
        }
    }
    for (name, samples) in NAMES.iter().zip(&samples) {
        b.insert(name, micros(stats::median_u64(samples)));
    }
    Ok(confirmation.expect("at least one round"))
}

/// One statement's worth of scanning: both range queries over a window
/// a tenth of the ledger's span, for a holder picked at random.
fn statement_scan_us(ledger: &mut Ledger) -> f64 {
    let horizon = ledger.accounts.clock().now_ms();
    let window = horizon / 10;
    let db = Arc::clone(ledger.accounts.db());
    let holders = ledger.holders.clone();
    let rng = &mut ledger.rng;
    micros(median_ns(WARMUP, CALLS, || {
        let account = holders[rng.below(holders.len() as u64) as usize];
        let start = rng.below(horizon - window);
        black_box(db.transactions_in_range(&account, start, start + window));
        black_box(db.transfers_in_range(&account, start, start + window));
    }))
}

/// Memory-mode ledger probes: commit cost, and scan cost at two sizes.
fn history(seed: u64, b: &mut Budget) -> Result<(), String> {
    let mut ledger = Ledger::new(Database::new(1, 1), Clock::new(), 1000, seed)?;
    b.insert("core.db.transfer_commit_us", micros(median_ns(WARMUP, CALLS, || ledger.transfer())));
    ledger.grow_to(10_000);
    b.insert("core.db.statement_scan_us_10k", statement_scan_us(&mut ledger));
    ledger.grow_to(100_000);
    b.insert("core.db.statement_scan_us_100k", statement_scan_us(&mut ledger));
    Ok(())
}

/// No checkpoint may run on its own while commits are being timed.
fn probe_store(dir: &Path, fsync: bool) -> StoreConfig {
    StoreConfig { fsync, snapshot_every: u64::MAX, ..StoreConfig::at(dir) }
}

fn open_ledger(dir: &Path, fsync: bool, seed: u64) -> Result<Ledger, String> {
    let _ = std::fs::remove_dir_all(dir);
    let (db, _) = Database::open(1, 1, probe_store(dir, fsync))
        .map_err(|e| format!("open {}: {e}", dir.display()))?;
    Ledger::new(db, Clock::new(), 1000, seed)
}

/// On-disk store probes: commit with and without fsync, bytes written
/// per commit, checkpoint at two ledger sizes, recovery of a tail.
fn storage(seed: u64, scratch: &Path, b: &mut Budget) -> Result<(), String> {
    let dir = scratch.join("probe-fsync");
    let mut synced = open_ledger(&dir, true, seed)?;
    b.insert("core.store.commit_us_fsync", micros(median_ns(WARMUP, CALLS, || synced.transfer())));
    drop(synced);
    let _ = std::fs::remove_dir_all(&dir);

    let dir = scratch.join("probe-nofsync");
    let mut ledger = open_ledger(&dir, false, seed)?;
    let bytes =
        |dir: &Path| store::inspect(dir).map(|i| i.total_bytes()).map_err(|e| e.to_string());
    let before = bytes(&dir)?;
    b.insert(
        "core.store.commit_us_nofsync",
        micros(median_ns(WARMUP, CALLS, || ledger.transfer())),
    );
    let commits = (WARMUP + CALLS) as f64;
    b.insert("core.store.bytes_per_commit", (bytes(&dir)? - before) as f64 / commits);

    // A checkpoint rewrites every shard: one call at each size.
    for (size, name) in
        [(10_000, "core.store.checkpoint_ms_10k"), (100_000, "core.store.checkpoint_ms_100k")]
    {
        ledger.grow_to(size);
        let t = Instant::now();
        ledger.accounts.db().snapshot_all().map_err(|e| format!("checkpoint: {e}"))?;
        b.insert(name, t.elapsed().as_secs_f64() * 1e3);
    }
    // Recovery: load the checkpoint, replay a 2,000-entry tail. One call.
    ledger.grow_to(102_000);
    let funds = ledger.accounts.db().total_funds();
    drop(ledger);
    let t = Instant::now();
    let (reopened, report) =
        Database::open(1, 1, probe_store(&dir, false)).map_err(|e| format!("reopen: {e}"))?;
    b.insert("core.store.recovery_ms", t.elapsed().as_secs_f64() * 1e3);
    if reopened.total_funds() != funds || report.snapshots_loaded == 0 {
        return Err(format!("recovery probe lost state: {report:?}"));
    }
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// A live bank: the serial pay-before budget, keyed transfers at depth 1
/// and depth 8, in-process `handle` per request type, then the
/// handshake and the RPC floor.
fn bank_and_wire(seed: u64, b: &mut Budget) -> Result<(), String> {
    // Signatures: 220 each for transfers, cheques and chains in-process,
    // 220 + 300 + 300 on the wire — 1,480 of the 2,048 an 11-high tree
    // has.
    let spec = BankSpec { signer_height: 11, admins: Vec::new(), store: None, tls_height: 8 };
    let payer_subject = world::subject("Payer", "probe-payer");
    let payee_subject = world::subject("Payee", "probe-payee");
    let (mut world, mut payer, _) =
        World::boot_to_serving(seed, world::new_ca(seed), &spec, &payer_subject)?;
    let bank: Arc<GridBank> = Arc::clone(&world.bank);
    let payer_account = payer.create_account(None).map_err(|e| e.to_string())?;
    let payee_account =
        bank.accounts.create_account(&payee_subject.0, None).map_err(|e| e.to_string())?;
    bank.admin
        .deposit(OPERATOR, &payer_account, Credits::from_gd(10_000_000))
        .map_err(|e| e.to_string())?;
    b.insert(
        "crypto.merkle.sig_bytes_h11",
        bank.signer.sign(b"probe").map_err(|e| e.to_string())?.to_bytes().len() as f64,
    );

    let transfer = transfer_request(payee_account);
    let confirmation = serial_budget(&bank, &payer_subject, &mut payer, &transfer, b)?;

    // 300 keyed transfers on one connection at depth 1, then at depth 8.
    let mut at_depth = |depth: usize, first_unit: u64| {
        phase::closed_loop(
            std::slice::from_mut(&mut payer),
            Phase { first_unit, units: 300, traced: false },
            1,
            |client, queue, rec| {
                let mut pipe = TransferPipe { client, payees: &[payee_account], key_base: 0 };
                phase::slide(&mut pipe, depth, rec, || queue.claim(), |_, _| {})
            },
        )
    };
    let serial = at_depth(1, 2_000_000)?;
    let pipelined = at_depth(PIPELINE_DEPTH, 3_000_000)?;
    if serial.failed + pipelined.failed > 0 {
        return Err("probe transfers were refused".into());
    }
    b.insert("net.rpc.pipeline_gain", pipelined.ops_per_s() / serial.ops_per_s());

    // In-process dispatch, no wire. Each probe keeps its responses: the
    // next one redeems them.
    let handle = |who: &SubjectName, request: BankRequest| bank.handle(who, request);
    let request_cheque = BankRequest::RequestCheque {
        payee_cert: payee_subject.0.clone(),
        amount: Credits::from_gd(2),
        validity_ms: 1_000_000,
    };
    let mut cheques = Vec::new();
    let ns =
        median_ns(WARMUP, CALLS, || cheques.push(handle(&payer_subject, request_cheque.clone())));
    b.insert("core.server.handle_us_request_cheque", micros(ns));
    let cheque_response = expect_ok("request_cheque", cheques[0].clone())?;

    let rur = one_line_rur(&payee_subject.0);
    let mut redeems: Vec<BankRequest> = cheques
        .into_iter()
        .filter_map(|r| match r {
            BankResponse::Cheque(cheque) => {
                Some(BankRequest::RedeemCheque { cheque, rur: rur.clone() })
            }
            _ => None,
        })
        .collect();
    if redeems.len() != WARMUP + CALLS {
        return Err("probe request_cheque: a cheque was refused".into());
    }
    let redeem_cheque = redeems[0].clone();
    let mut redeemed = Vec::new();
    let ns = median_ns(WARMUP, CALLS, || {
        redeemed.push(handle(&payee_subject, redeems.pop().expect("one cheque per call")));
    });
    b.insert("core.server.handle_us_redeem_cheque", micros(ns));
    let redeemed_response = expect_ok("redeem_cheque", redeemed.pop().expect("200 calls"))?;

    let request_chain = BankRequest::RequestHashChain {
        payee_cert: payee_subject.0.clone(),
        length: 32,
        value_per_word: Credits::from_micro(100),
        validity_ms: 1_000_000,
    };
    let mut chains = Vec::new();
    let ns =
        median_ns(WARMUP, CALLS, || chains.push(handle(&payer_subject, request_chain.clone())));
    b.insert("core.server.handle_us_request_chain32", micros(ns));

    // Words 1..32 of as many chains as 220 redeems need.
    let mut words = Vec::new();
    for response in chains {
        let BankResponse::HashChain { commitment, signature, chain } =
            expect_ok("request_chain", response)?
        else {
            return Err("probe request_chain: unexpected response".into());
        };
        for (index, word) in chain.iter().enumerate().skip(1) {
            words.push(BankRequest::RedeemPayWord {
                commitment: commitment.clone(),
                signature: signature.clone(),
                payword: gridbank_core::PayWord { index: index as u32, word: *word },
                rur_blob: Vec::new(),
            });
        }
        if words.len() >= WARMUP + CALLS {
            break;
        }
    }
    let redeem_word = words[0].clone();
    let mut words = words.into_iter();
    let mut paid = Vec::new();
    let ns = median_ns(WARMUP, CALLS, || {
        paid.push(handle(&payee_subject, words.next().expect("one word per call")));
    });
    b.insert("core.server.handle_us_redeem_payword", micros(ns));
    let word_response = expect_ok("redeem_payword", paid.pop().expect("200 calls"))?;

    let ns = median_ns(WARMUP, CALLS, || {
        black_box(handle(&payer_subject, BankRequest::MyAccount));
    });
    b.insert("core.server.handle_us_my_account", micros(ns));

    // Statements over a 100,000-transfer ledger, as `statement_mix` asks
    // them: a window a tenth of the span, about 40 rows.
    let mut ledger = Ledger {
        accounts: bank.accounts.clone(),
        holders: Vec::new(),
        rng: SplitMix64::new(seed ^ 0x57),
        transfers: 0,
    };
    for i in 0..1000 {
        let cert = world::subject("Holder", &format!("holder-{i}")).0;
        let id = bank.accounts.create_account(&cert, None).map_err(|e| e.to_string())?;
        bank.admin
            .deposit(OPERATOR, &id, Credits::from_gd(1_000_000))
            .map_err(|e| e.to_string())?;
        ledger.holders.push(id);
    }
    ledger.grow_to(100_000);
    let horizon = world.clock.now_ms();
    let operator = SubjectName(OPERATOR.to_string());
    let mut statement_request = None;
    let mut statement_response = None;
    let ns = median_ns(WARMUP, CALLS, || {
        let account = ledger.holders[ledger.rng.below(1000) as usize];
        let start_ms = ledger.rng.below(horizon - horizon / 10);
        let request = BankRequest::Statement { account, start_ms, end_ms: start_ms + horizon / 10 };
        statement_response = Some(handle(&operator, request.clone()));
        statement_request = Some(request);
    });
    b.insert("core.server.handle_us_statement", micros(ns));
    let statement_response = expect_ok("statement", statement_response.expect("200 calls"))?;

    for (suffix, request, response) in [
        ("transfer", &transfer, &confirmation),
        ("redeem", &redeem_word, &word_response),
        ("statement", &statement_request.expect("200 calls"), &statement_response),
    ] {
        let (bytes, us) = codec(request, response);
        let (bytes_name, us_name) = match suffix {
            "transfer" => ("core.api.bytes_transfer", "core.api.codec_us_transfer"),
            "redeem" => ("core.api.bytes_redeem", "core.api.codec_us_redeem"),
            _ => ("core.api.bytes_statement", "core.api.codec_us_statement"),
        };
        b.insert(bytes_name, bytes);
        b.insert(us_name, us);
    }
    let cycle = [
        request_cheque.to_bytes().len(),
        cheque_response.to_bytes().len(),
        redeem_cheque.to_bytes().len(),
        redeemed_response.to_bytes().len(),
    ];
    b.insert("core.api.bytes_cheque_cycle", cycle.iter().sum::<usize>() as f64);

    // The wire. A handshake takes milliseconds: 100 calls after 10.
    let mut credentials = world.credentials(&world::subject("Payer", "probe-dialer"), 7)?;
    let now = world.clock.now_ms();
    let ca_key = world.ca.verifying_key();
    let ns = median_ns(WARMUP, CALLS, || {
        credentials.proxy.verify_chain(black_box(&ca_key), now).expect("chain verifies");
    });
    b.insert("crypto.cert.verify_chain_us", micros(ns));
    let mut dial_error = None;
    let ns = median_ns(10, 100, || {
        if let Err(e) = world.dial(&mut credentials) {
            dial_error = Some(e.to_string());
        }
    });
    if let Some(e) = dial_error {
        return Err(format!("probe connect: {e}"));
    }
    b.insert("net.handshake.connect_ms", millis(ns));

    let mut rpc_error = None;
    let ns = median_ns(WARMUP, CALLS, || {
        if let Err(e) = payer.my_account() {
            rpc_error = Some(e.to_string());
        }
    });
    if let Some(e) = rpc_error {
        return Err(format!("probe my_account: {e}"));
    }
    b.insert("net.rpc.floor_us", micros(ns));

    // What `serial_budget` timed, and the codec between them.
    let layers = [
        "net.channel.send_us_256b",
        "net.channel.recv_us_256b",
        "core.api.codec_us_transfer",
        "core.server.handle_us_direct_transfer",
        "net.channel.send_us_16k",
        "net.channel.recv_us_16k",
    ];
    let covered: f64 = layers.iter().map(|l| b[l]).sum();
    b.insert(
        "bench.budget_coverage_paybefore_serial",
        covered / b["bench.serial_latency_us_paybefore"],
    );
    Ok(())
}
