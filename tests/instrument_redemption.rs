//! E32 — redemption decides as the bank's signature does. A cheque or
//! chain that is byte for byte what the bank issued against a reservation
//! is recognised from the reservation's record; every other input has the
//! bank signature verified and gets the answer it always got: a tampered
//! body or a flipped signature byte is an invalid instrument, a replayed
//! payword index is already redeemed, and a bank that lost its
//! reservations in a reboot refuses a genuine instrument it no longer
//! holds funds for. Once the bank has paid a chain over a link, the
//! client names the chain by id alone, and the bank answers that short
//! form from the chain's reservation with the same outcomes.

// Test fixtures build inputs with plain arithmetic; the workspace
// `clippy::arithmetic_side_effects` wall targets production money paths
// (see docs/STATIC_ANALYSIS.md §lint wall).
#![allow(clippy::arithmetic_side_effects)]

use std::sync::{Arc, Mutex};

use gridbank_suite::bank::api::{kinds, BankRequest, BankResponse, OpsQuery, OpsReport};
use gridbank_suite::bank::clock::Clock;
use gridbank_suite::bank::port::InProcessBank;
use gridbank_suite::bank::server::{ops_identity, GridBank, GridBankConfig};
use gridbank_suite::bank::store::StoreConfig;
use gridbank_suite::bank::{BankError, PayWord};
use gridbank_suite::crypto::cert::SubjectName;
use gridbank_suite::crypto::merkle::MerkleSignature;
use gridbank_suite::rur::codec::{Decode, Encode};
use gridbank_suite::rur::record::{ChargeableItem, RurBuilder, UsageAmount};
use gridbank_suite::rur::units::Duration;
use gridbank_suite::rur::{Credits, ResourceUsageRecord};

/// Telemetry counters are process-wide: the tests here take turns so
/// the partition test reads only its own redeems.
static SERIAL: Mutex<()> = Mutex::new(());

const PAYER: &str = "/O=O/OU=U/CN=payer";
const PAYEE: &str = "/O=O/OU=U/CN=payee";

fn config() -> GridBankConfig {
    GridBankConfig {
        signer_height: 6,
        ops_admins: vec![ops_identity("watch")],
        ..GridBankConfig::default()
    }
}

/// A durable bank with a funded payer and a payee, and its store so the
/// bank can be rebooted from the same key material.
struct World {
    bank: Arc<GridBank>,
    store: StoreConfig,
    payer: InProcessBank,
    payee: InProcessBank,
}

impl World {
    fn new() -> World {
        let store = StoreConfig::scratch("instrument-redemption");
        let (bank, _) = GridBank::open_durable(config(), Clock::new(), store.clone()).unwrap();
        let bank = Arc::new(bank);
        let mut payer = InProcessBank::new(bank.clone(), SubjectName(PAYER.into()));
        let account = payer.create_account(None).unwrap();
        let mut payee = InProcessBank::new(bank.clone(), SubjectName(PAYEE.into()));
        payee.create_account(None).unwrap();
        let operator = SubjectName("/O=GridBank/OU=Admin/CN=operator".into());
        bank.handle(
            &operator,
            BankRequest::AdminDeposit { account, amount: Credits::from_gd(100) },
        );
        World { bank, store, payer, payee }
    }

    /// Kills the bank and opens its store again: accounts survive, the
    /// reservations behind outstanding instruments do not.
    fn reboot(self) -> World {
        let World { bank, store, payer, payee } = self;
        drop((payer, payee, bank));
        let (bank, _) = GridBank::open_durable(config(), Clock::new(), store.clone()).unwrap();
        let bank = Arc::new(bank);
        let payer = InProcessBank::new(bank.clone(), SubjectName(PAYER.into()));
        let payee = InProcessBank::new(bank.clone(), SubjectName(PAYEE.into()));
        World { bank, store, payer, payee }
    }
}

fn rur(hours: u64) -> ResourceUsageRecord {
    RurBuilder::default()
        .user("h", PAYER)
        .job("j", "app", 0, hours * 3_600_000)
        .resource("r", PAYEE, None, 1)
        .line(
            ChargeableItem::Cpu,
            UsageAmount::Time(Duration::from_hours(hours)),
            Credits::from_gd(1),
        )
        .build()
        .unwrap()
}

/// The genuine signature with one byte of its encoding flipped.
fn flipped(signature: &MerkleSignature) -> MerkleSignature {
    let mut forged = signature.clone();
    forged.ots.revealed[0].0[0] ^= 0x01;
    forged
}

fn invalid(result: Result<impl std::fmt::Debug, BankError>) {
    assert!(matches!(result, Err(BankError::InvalidInstrument(_))), "{result:?}");
}

fn already_redeemed(result: Result<impl std::fmt::Debug, BankError>) {
    assert!(matches!(result, Err(BankError::AlreadyRedeemed(_))), "{result:?}");
}

fn lost_reservation(result: Result<impl std::fmt::Debug, BankError>) {
    assert!(
        matches!(&result, Err(BankError::InvalidInstrument(m)) if m.contains("no reservation")),
        "{result:?}"
    );
}

#[test]
fn cheque_redemption_decides_as_the_signature_does() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut w = World::new();
    let cheque = w.payer.request_cheque(PAYEE, Credits::from_gd(10), 100_000).unwrap();
    let kept = w.payer.request_cheque(PAYEE, Credits::from_gd(10), 100_000).unwrap();

    // A body tampered under the live id.
    let mut tampered = cheque.clone();
    tampered.body.reserved = Credits::from_gd(1_000_000);
    invalid(w.payee.redeem_cheque(tampered, rur(2)));
    // One flipped signature byte over the genuine body.
    let mut forged = cheque.clone();
    forged.signature = flipped(&cheque.signature);
    invalid(w.payee.redeem_cheque(forged, rur(2)));
    // The genuine cheque pays, once.
    let paid = w.payee.redeem_cheque(cheque.clone(), rur(2)).unwrap();
    assert_eq!(paid, (Credits::from_gd(2), Credits::from_gd(8)));
    already_redeemed(w.payee.redeem_cheque(cheque, rur(2)));

    // After a reboot with the same key the signature still verifies, but
    // nothing backs the cheque any more.
    let mut w = w.reboot();
    lost_reservation(w.payee.redeem_cheque(kept, rur(2)));
    assert_eq!(w.payee.my_account().unwrap().available, Credits::from_gd(2));
}

#[test]
fn payword_redemption_decides_as_the_signature_does() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut w = World::new();
    let chain = w.payer.request_hash_chain(PAYEE, 8, Credits::from_gd(1), 100_000).unwrap();
    let (commitment, signature) = (chain.commitment.clone(), chain.signature.clone());
    let word = |k| chain.payword(k).unwrap();

    // A commitment tampered under the live id.
    let mut tampered = commitment.clone();
    tampered.value_per_word = Credits::from_gd(1_000);
    invalid(w.payee.redeem_payword(tampered, signature.clone(), word(1), vec![]));
    // One flipped signature byte over the genuine commitment.
    invalid(w.payee.redeem_payword(commitment.clone(), flipped(&signature), word(1), vec![]));
    // The genuine chain pays the words past the highest index paid.
    let paid = w.payee.redeem_payword(commitment.clone(), signature.clone(), word(3), vec![]);
    assert_eq!(paid.unwrap(), Credits::from_gd(3));
    already_redeemed(w.payee.redeem_payword(
        commitment.clone(),
        signature.clone(),
        word(3),
        vec![],
    ));
    already_redeemed(w.payee.redeem_payword(
        commitment.clone(),
        signature.clone(),
        word(2),
        vec![],
    ));
    let paid = w.payee.redeem_payword(commitment.clone(), signature.clone(), word(5), vec![]);
    assert_eq!(paid.unwrap(), Credits::from_gd(2));

    let mut w = w.reboot();
    lost_reservation(w.payee.redeem_payword(commitment, signature, word(6), vec![]));
    assert_eq!(w.payee.my_account().unwrap().available, Credits::from_gd(5));
}

fn counter(bank: &GridBank, name: &str) -> u64 {
    let watch = SubjectName(ops_identity("watch"));
    let query = OpsQuery::Metrics { filter: Some("core.instrument.".into()) };
    let BankResponse::OpsReport { report: OpsReport::Metrics { jsonl } } =
        bank.handle(&watch, BankRequest::OpsQuery { query })
    else {
        panic!("ops query refused");
    };
    let prefix = format!("{{\"type\":\"counter\",\"name\":\"{name}\",\"value\":");
    jsonl
        .lines()
        .find_map(|line| line.strip_prefix(prefix.as_str()))
        .and_then(|rest| rest.trim_end_matches('}').parse().ok())
        .unwrap_or(0)
}

#[test]
fn every_redeem_is_either_recognised_or_verified() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    gridbank_suite::obs::set_telemetry(true);
    let mut w = World::new();
    let before = |name| counter(&w.bank, name);
    let (recognised, verified) =
        (before("core.instrument.recognised"), before("core.instrument.verified"));
    let by_id = before("core.instrument.by_id");

    let cheque = w.payer.request_cheque(PAYEE, Credits::from_gd(10), 100_000).unwrap();
    let chain = w.payer.request_hash_chain(PAYEE, 8, Credits::from_gd(1), 100_000).unwrap();
    for k in 1..=4 {
        // Through the request codec, as a server decodes it off the wire:
        // the decoded commitment and signature are still recognised.
        let request = BankRequest::RedeemPayWord {
            commitment: chain.commitment.clone(),
            signature: chain.signature.clone(),
            payword: chain.payword(k).unwrap(),
            rur_blob: Vec::new(),
        };
        let decoded = BankRequest::from_bytes(&request.to_bytes()).unwrap();
        let response = w.bank.handle(&SubjectName(PAYEE.into()), decoded);
        assert!(matches!(response, BankResponse::Redeemed { .. }), "{response:?}");
    }
    let mut forged = cheque.clone();
    forged.signature = flipped(&cheque.signature);
    invalid(w.payee.redeem_cheque(forged, rur(1)));
    w.payee.redeem_cheque(cheque, rur(1)).unwrap();
    // The short form, decoded off the wire too, is neither: it presents
    // no instrument to recognise or verify.
    for k in 5..=8 {
        let request = BankRequest::RedeemPayWordById {
            chain_id: chain.commitment.chain_id,
            payword: chain.payword(k).unwrap(),
            rur_blob: Vec::new(),
        };
        let decoded = BankRequest::from_bytes(&request.to_bytes()).unwrap();
        let response = w.bank.handle(&SubjectName(PAYEE.into()), decoded);
        assert!(matches!(response, BankResponse::Redeemed { .. }), "{response:?}");
    }

    let after = |name| counter(&w.bank, name);
    assert_eq!(after("core.instrument.recognised") - recognised, 5);
    assert_eq!(after("core.instrument.verified") - verified, 1);
    assert_eq!(after("core.instrument.by_id") - by_id, 4);
    gridbank_suite::obs::set_telemetry(false);
}

/// `payee` asks for `word` of chain `chain_id` by id alone, as the
/// client does once the bank has paid that chain over its link.
fn redeem_by_id(
    client: &mut InProcessBank,
    chain_id: u64,
    payword: PayWord,
) -> Result<Credits, BankError> {
    match client.call_keyed(
        None,
        &BankRequest::RedeemPayWordById { chain_id, payword, rur_blob: Vec::new() },
    )? {
        BankResponse::Redeemed { paid, .. } => Ok(paid),
        other => panic!("unexpected answer {other:?}"),
    }
}

#[test]
fn a_redeem_by_chain_id_decides_as_the_full_form_does() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    gridbank_suite::obs::set_telemetry(true);
    let mut w = World::new();
    let chain = w.payer.request_hash_chain(PAYEE, 8, Credits::from_gd(1), 100_000).unwrap();
    let (commitment, signature) = (chain.commitment.clone(), chain.signature.clone());
    let id = commitment.chain_id;
    let word = |k| chain.payword(k).unwrap();
    let by_id_before = counter(&w.bank, "core.instrument.by_id");

    // The first paid word ships the instrument; every later one through
    // the same client names the chain by id.
    let paid = w.payee.redeem_payword(commitment.clone(), signature.clone(), word(2), vec![]);
    assert_eq!(paid.unwrap(), Credits::from_gd(2));
    let paid = w.payee.redeem_payword(commitment.clone(), signature.clone(), word(4), vec![]);
    assert_eq!(paid.unwrap(), Credits::from_gd(2));
    // Replays, at the last index paid and below it.
    already_redeemed(w.payee.redeem_payword(
        commitment.clone(),
        signature.clone(),
        word(4),
        vec![],
    ));
    already_redeemed(w.payee.redeem_payword(
        commitment.clone(),
        signature.clone(),
        word(3),
        vec![],
    ));
    // A word that does not hash to the last word paid.
    let wrong = PayWord { index: 5, word: word(6).word };
    invalid(w.payee.redeem_payword(commitment.clone(), signature.clone(), wrong, vec![]));
    assert_eq!(counter(&w.bank, "core.instrument.by_id") - by_id_before, 4);
    // A caller who is not the payee, and an id the bank holds nothing for.
    let refused = redeem_by_id(&mut w.payer, id, word(5));
    assert!(matches!(refused, Err(BankError::NotAuthorized(_))), "{refused:?}");
    lost_reservation(redeem_by_id(&mut w.payee, id + 1_000, word(5)));
    // After expiry.
    w.bank.clock().advance(100_000);
    let expired = w.payee.redeem_payword(commitment.clone(), signature.clone(), word(5), vec![]);
    assert!(
        matches!(&expired, Err(BankError::InvalidInstrument(m)) if m.contains("chain expired")),
        "{expired:?}"
    );
    assert_eq!(w.payee.my_account().unwrap().available, Credits::from_gd(4));

    // A rebooted bank refuses the short form as it refuses the full one.
    let mut w = w.reboot();
    lost_reservation(redeem_by_id(&mut w.payee, id, word(5)));
    gridbank_suite::obs::set_telemetry(false);
}

/// Two threads leave a [`SpinBarrier::wait`] within nanoseconds of each
/// other, where a sleeping barrier wakes them tens of microseconds apart,
/// longer than a redeem takes.
#[derive(Default)]
struct SpinBarrier {
    arrived: std::sync::atomic::AtomicU64,
}

impl SpinBarrier {
    /// Waits for the other thread's `round`-th arrival; `round` counts
    /// this thread's calls from 1.
    fn wait(&self, round: u64) {
        use std::sync::atomic::Ordering::SeqCst;
        self.arrived.fetch_add(1, SeqCst);
        while self.arrived.load(SeqCst) < 2 * round {
            std::hint::spin_loop();
        }
    }
}

/// Two connections redeem the interleaved words of the same chains at
/// once: each word is checked against the last word paid outside the
/// reservation's lock, so a redeem that checked against a word another
/// has since replaced must check again. Paid exactly once per word, the
/// payee holds the value of every chain's highest index.
#[test]
fn interleaved_redeems_of_one_chain_pay_each_word_once() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const CHAINS: u32 = 4;
    const WORDS: u32 = 400;
    let mut w = World::new();
    let value = Credits::from_micro(100);
    let chains: Vec<_> = (0..CHAINS)
        .map(|_| w.payer.request_hash_chain(PAYEE, WORDS, value, 1_000_000).unwrap())
        .collect();
    let barrier = SpinBarrier::default();
    // A thread records what it did not expect and keeps to the barrier,
    // so a fault fails the assertions below instead of stranding the
    // other thread at the barrier.
    let unexpected: Vec<BankResponse> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..2u32)
            .map(|parity| {
                let (bank, chains, barrier) = (&w.bank, &chains, &barrier);
                s.spawn(move || {
                    let payee = SubjectName(PAYEE.into());
                    let mut unexpected = Vec::new();
                    let mut round = 0;
                    for chain in chains {
                        for k in (1..=WORDS).filter(|k| k % 2 == parity) {
                            round += 1;
                            barrier.wait(round);
                            let request = BankRequest::RedeemPayWordById {
                                chain_id: chain.commitment.chain_id,
                                payword: chain.payword(k).unwrap(),
                                rur_blob: Vec::new(),
                            };
                            match bank.handle(&payee, request) {
                                BankResponse::Redeemed { .. } => {}
                                BankResponse::Error { kind: kinds::ALREADY_REDEEMED, .. } => {}
                                other => unexpected.push(other),
                            }
                        }
                    }
                    unexpected
                })
            })
            .collect();
        threads.into_iter().flat_map(|t| t.join().unwrap()).collect()
    });
    assert!(unexpected.is_empty(), "{unexpected:?}");
    let expected = Credits::from_micro(100 * i128::from(WORDS * CHAINS));
    assert_eq!(w.payee.my_account().unwrap().available, expected);
}
