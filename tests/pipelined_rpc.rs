//! E10 — pipelined RPC against a live bank: many in-flight requests per
//! connection, served in request order on the connection's thread and
//! matched by correlation id, exactly-once keyed mutations across
//! connections and under link faults (see `docs/PROTOCOLS.md` §1 for the
//! pipelining state machine). The requests a connection had waiting are
//! served as one batch, whose transfer confirmations share one signature
//! (`docs/PROTOCOLS.md` §3).

// Test fixtures build inputs with plain arithmetic; the workspace
// `clippy::arithmetic_side_effects` wall targets production money paths
// (see docs/STATIC_ANALYSIS.md §lint wall).
#![allow(clippy::arithmetic_side_effects)]

use std::time::{Duration, Instant};

use gridbank_suite::bank::api::{BankRequest, BankResponse};
use gridbank_suite::bank::client::GridBankClient;
use gridbank_suite::bank::direct::TransferConfirmation;
use gridbank_suite::bank::server::GridBankConfig;
use gridbank_suite::bank::{AccountId, BankError};
use gridbank_suite::crypto::cert::SubjectName;
use gridbank_suite::net::fault::{FaultPlan, FaultRates};
use gridbank_suite::rur::Credits;
use gridbank_suite::sim::deploy::{DeployConfig, Deployment, Identity};

fn world() -> Deployment {
    Deployment::boot(DeployConfig::single(GridBankConfig {
        signer_height: 9,
        ..GridBankConfig::default()
    }))
    .unwrap()
}

fn identity(w: &Deployment, cn: &str, seed: u64) -> Identity {
    w.identity(SubjectName::new("Org", "Unit", cn), seed).unwrap()
}

fn connect(w: &Deployment, cn: &str, seed: u64) -> Result<GridBankClient, BankError> {
    identity(w, cn, seed).connect(1)
}

#[test]
fn pipelined_transfers_settle_exactly_once() {
    let w = world();
    let mut alice = connect(&w, "alice", 10).unwrap();
    let alice_account = alice.create_account(None).unwrap();
    let mut bob = connect(&w, "bob", 11).unwrap();
    let bob_account = bob.create_account(None).unwrap();
    let mut admin = w.admin(1).unwrap();
    admin.admin_deposit(alice_account, Credits::from_gd(100)).unwrap();

    // Pipeline 20 keyed transfers plus interleaved reads on one
    // connection, then collect every response by correlation id.
    const N: u64 = 20;
    let transfer = BankRequest::DirectTransfer {
        to: bob_account,
        amount: Credits::from_gd(1),
        recipient_address: "bob.host".into(),
    };
    let mut ids = Vec::new();
    for k in 0..N {
        ids.push(alice.send_pipelined(Some(0xA000 + k), &transfer).unwrap());
        if k % 5 == 0 {
            ids.push(alice.send_pipelined(None, &BankRequest::MyAccount).unwrap());
        }
    }
    let mut confirmed = 0;
    for id in ids {
        match alice.recv_pipelined(id).unwrap() {
            BankResponse::Confirmed(_) | BankResponse::Confirmation { .. } => confirmed += 1,
            BankResponse::Account(_) => {}
            other => panic!("unexpected response: {other:?}"),
        }
    }
    assert_eq!(confirmed, N);
    assert_eq!(alice.my_account().unwrap().available, Credits::from_gd(100 - N as i64));
    assert_eq!(bob.my_account().unwrap().available, Credits::from_gd(N as i64));
    assert_eq!(w.bank(1).unwrap().all_transfers().len(), N as usize);
}

#[test]
fn duplicate_keys_in_one_pipeline_are_deduplicated() {
    // The same idempotency key submitted three times back-to-back in one
    // pipeline window: the connection serves them in order, so the
    // second and third copies find the first's stamp in the dedup cache.
    let w = world();
    let mut alice = connect(&w, "alice", 20).unwrap();
    let alice_account = alice.create_account(None).unwrap();
    let mut bob = connect(&w, "bob", 21).unwrap();
    let bob_account = bob.create_account(None).unwrap();
    let mut admin = w.admin(1).unwrap();
    admin.admin_deposit(alice_account, Credits::from_gd(50)).unwrap();

    let transfer = BankRequest::DirectTransfer {
        to: bob_account,
        amount: Credits::from_gd(7),
        recipient_address: "bob.host".into(),
    };
    const KEY: u64 = 0xD0D0_1111;
    let first = alice.send_pipelined(Some(KEY), &transfer).unwrap();
    let second = alice.send_pipelined(Some(KEY), &transfer).unwrap();
    let third = alice.send_pipelined(Some(KEY), &transfer).unwrap();
    let txid_of = |resp: BankResponse| match resp {
        BankResponse::Confirmed(conf) => conf.body.transaction_id,
        BankResponse::Confirmation { transaction_id } => transaction_id,
        other => panic!("unexpected response: {other:?}"),
    };
    let t1 = txid_of(alice.recv_pipelined(first).unwrap());
    let t2 = txid_of(alice.recv_pipelined(second).unwrap());
    let t3 = txid_of(alice.recv_pipelined(third).unwrap());
    assert_eq!(t1, t2);
    assert_eq!(t2, t3);
    // Exactly one application: one transfer row, one debit.
    assert_eq!(w.bank(1).unwrap().all_transfers().len(), 1);
    assert_eq!(alice.my_account().unwrap().available, Credits::from_gd(43));
    assert_eq!(bob.my_account().unwrap().available, Credits::from_gd(7));

    // The case the in-flight key guard is for: a resilient client resends
    // a key on a second connection while the first copy may still be
    // served on the first. Each connection has a server thread of its
    // own, so the two copies race into the bank: one applies, the other
    // waits for its stamp and answers with the same transaction.
    let mut again = connect(&w, "alice", 22).unwrap();
    const ROUNDS: u64 = 4;
    for round in 0..ROUNDS {
        let key = KEY + 1 + round;
        let a = alice.send_pipelined(Some(key), &transfer).unwrap();
        let b = again.send_pipelined(Some(key), &transfer).unwrap();
        let (ta, tb) = std::thread::scope(|scope| {
            let other = scope.spawn(|| txid_of(again.recv_pipelined(b).unwrap()));
            (txid_of(alice.recv_pipelined(a).unwrap()), other.join().unwrap())
        });
        assert_eq!(ta, tb, "round {round}: the two copies answered different transactions");
    }
    // One transfer row and one debit per key.
    assert_eq!(w.bank(1).unwrap().all_transfers().len(), 1 + ROUNDS as usize);
    assert_eq!(alice.my_account().unwrap().available, Credits::from_gd(43 - 7 * ROUNDS as i64));
    assert_eq!(bob.my_account().unwrap().available, Credits::from_gd(7 + 7 * ROUNDS as i64));
}

#[test]
fn pipelined_batch_survives_reorder_faults_with_keyed_retries() {
    // Reorder faults at the transport layer break the secure channel's
    // strict sequence check — a pipelined batch dies mid-flight instead
    // of being silently misordered. The client reconnects and retries
    // the whole batch with the *same* keys; dedup keeps every transfer
    // exactly-once no matter where the batch was cut.
    let w = world();
    let alice_account = connect(&w, "alice", 30).unwrap().create_account(None).unwrap();
    let mut bob = connect(&w, "bob", 31).unwrap();
    let bob_account = bob.create_account(None).unwrap();
    let mut admin = w.admin(1).unwrap();
    admin.admin_deposit(alice_account, Credits::from_gd(100)).unwrap();

    // Every link dialled from here on carries the injector; the first
    // two sends each way (the handshake) are never faulted.
    let injector = w.install_faults(FaultPlan::symmetric(
        0xBEEF,
        FaultRates { reorder_pm: 120, ..FaultRates::NONE },
    ));
    injector.arm(true);
    let mut alice_identity = identity(&w, "alice", 32);
    // A reordered frame is held back until the next one; when it is a
    // window's last, nothing follows. The short timeout ends that wait
    // well inside the server's 10 s idle close (docs/PROTOCOLS.md §1),
    // which would otherwise hang up bob's quiet connection meanwhile.
    let mut dial = || {
        let mut alice = alice_identity.connect(1).expect("dial through the storm");
        alice.set_call_timeout(Some(Duration::from_millis(100)));
        alice
    };
    let mut alice = dial();

    const N: u64 = 12;
    let transfer = |k: u64| BankRequest::DirectTransfer {
        to: bob_account,
        amount: Credits::from_gd(1),
        recipient_address: format!("bob.host/{k}"),
    };
    let mut settled = vec![false; N as usize];
    let mut windows = 0;
    while settled.iter().any(|s| !s) {
        windows += 1;
        assert!(windows <= 50, "batch never settled under reorder faults");
        // (Re-)send every unsettled key in one pipelined window.
        let mut window = Vec::new();
        let mut broken = false;
        for k in 0..N {
            if settled[k as usize] {
                continue;
            }
            match alice.send_pipelined(Some(0xE000 + k), &transfer(k)) {
                Ok(id) => window.push((k, id)),
                Err(_) => {
                    broken = true;
                    break;
                }
            }
        }
        for (k, id) in window {
            if broken {
                break;
            }
            match alice.recv_pipelined(id) {
                Ok(BankResponse::Confirmed(_)) | Ok(BankResponse::Confirmation { .. }) => {
                    settled[k as usize] = true;
                }
                Ok(other) => panic!("unexpected response: {other:?}"),
                Err(_) => broken = true,
            }
        }
        if broken {
            // The channel is integrity-poisoned; reconnect (the fault
            // plan's skip_first window protects the new handshake).
            alice = dial();
        }
    }
    injector.arm(false);
    assert!(injector.counts().reordered > 0, "the storm never reordered a frame");
    assert!(windows > 1, "no window was ever cut");

    // Every key applied exactly once despite arbitrary mid-batch cuts.
    assert_eq!(w.bank(1).unwrap().all_transfers().len(), N as usize);
    let mut check = connect(&w, "alice", 500).unwrap();
    assert_eq!(check.my_account().unwrap().available, Credits::from_gd(100 - N as i64));
    assert_eq!(bob.my_account().unwrap().available, Credits::from_gd(N as i64));
}

/// A payer enrolled and funded with G$`funds`, and a payee's account.
fn payer_and_payee(w: &Deployment, seed: u64, funds: i64) -> (GridBankClient, AccountId) {
    let mut alice = connect(w, "alice", seed).unwrap();
    let alice_account = alice.create_account(None).unwrap();
    let bob_account = connect(w, "bob", seed + 1).unwrap().create_account(None).unwrap();
    w.admin(1).unwrap().admin_deposit(alice_account, Credits::from_gd(funds)).unwrap();
    (alice, bob_account)
}

fn transfer(to: AccountId, gd: i64) -> BankRequest {
    BankRequest::DirectTransfer {
        to,
        amount: Credits::from_gd(gd),
        recipient_address: "bob.host".into(),
    }
}

/// Occupies the connection's server thread with a request that takes it
/// tens of milliseconds (issuing and shipping a long hash chain), and
/// returns once the server is busy with it: whatever is pipelined next
/// is all waiting in the link when the server reads again, so one drain
/// takes it. Returns the slow request's correlation id.
fn occupy_the_server(client: &mut GridBankClient) -> u64 {
    let slow = BankRequest::RequestHashChain {
        payee_cert: "/O=Org/OU=Unit/CN=bob".into(),
        length: 100_000,
        value_per_word: Credits::from_micro(1),
        validity_ms: 60_000,
    };
    let id = client.send_pipelined(None, &slow).unwrap();
    std::thread::sleep(Duration::from_millis(20));
    id
}

fn receipt(response: BankResponse) -> TransferConfirmation {
    match response {
        BankResponse::Confirmed(c) => c,
        other => panic!("expected a receipt, got {other:?}"),
    }
}

#[test]
fn a_drained_mix_is_answered_in_order_under_one_signature() {
    let w = world();
    let (mut alice, bob_account) = payer_and_payee(&w, 50, 100);
    let statement = BankRequest::Statement {
        account: alice.my_account().unwrap().id,
        start_ms: 0,
        end_ms: u64::MAX,
    };
    let bank_key = w.bank(1).unwrap().verifying_key();
    // A drain is what the link holds when the server reads; a host that
    // stalls the client mid-window can split one, so a few tries are
    // allowed. Every try must answer in order with receipts that verify.
    let shared = (0..5u64).any(|attempt| {
        let slow = occupy_the_server(&mut alice);
        let ids = [
            alice.send_pipelined(None, &statement).unwrap(),
            alice.send_pipelined(Some(0xBA00 + 2 * attempt), &transfer(bob_account, 1)).unwrap(),
            alice.send_pipelined(Some(0xBA01 + 2 * attempt), &transfer(bob_account, 2)).unwrap(),
        ];
        assert!(matches!(alice.recv_pipelined(slow).unwrap(), BankResponse::HashChain { .. }));
        let mut answers = ids.map(|id| alice.recv_pipelined(id).unwrap()).into_iter();
        assert!(matches!(answers.next(), Some(BankResponse::Statement { .. })));
        let first = receipt(answers.next().unwrap());
        let second = receipt(answers.next().unwrap());
        assert_eq!(
            (first.body.amount, second.body.amount),
            (Credits::from_gd(1), Credits::from_gd(2))
        );
        first.verify(&bank_key).unwrap();
        second.verify(&bank_key).unwrap();
        first.signature.leaf_index == second.signature.leaf_index
            && (first.batch.index, second.batch.index, first.batch.count) == (0, 1, 2)
    });
    assert!(shared, "no drain ever signed the two transfers together");
}

#[test]
fn opposite_key_orders_on_two_connections_finish() {
    // One subject, two connections: the first pipelines keys A then B,
    // the second B then A, at once. A batch that waited for a key while
    // holding another would deadlock here; a batch closes first.
    let w = world();
    let (mut first, bob_account) = payer_and_payee(&w, 60, 1_000);
    let mut second = connect(&w, "alice", 62).unwrap();
    const ROUNDS: u64 = 20;
    let (done, finished) = std::sync::mpsc::channel();
    // A thread of its own, not a scoped one: on a deadlock the test
    // fails at the timeout instead of waiting for it forever.
    std::thread::spawn(move || {
        for round in 0..ROUNDS {
            let (a, b) = (0xAB00 + 2 * round, 0xAB01 + 2 * round);
            let one = [a, b].map(|k| first.send_pipelined(Some(k), &transfer(bob_account, 1)));
            let two = [b, a].map(|k| second.send_pipelined(Some(k), &transfer(bob_account, 1)));
            let (from_first, from_second) = std::thread::scope(|inner| {
                let other = inner
                    .spawn(|| two.map(|id| receipt(second.recv_pipelined(id.unwrap()).unwrap())));
                let mine = one.map(|id| receipt(first.recv_pipelined(id.unwrap()).unwrap()));
                (mine, other.join().unwrap())
            });
            // Both connections answer each key with its one transfer.
            assert_eq!(from_first[0].body, from_second[1].body);
            assert_eq!(from_first[1].body, from_second[0].body);
        }
        done.send(()).unwrap();
    });
    finished
        .recv_timeout(Duration::from_secs(120))
        .expect("two connections with opposite key orders did not finish");
    assert_eq!(w.bank(1).unwrap().all_transfers().len(), 2 * ROUNDS as usize);
    let bob = w.bank(1).unwrap().accounts.account_details(&bob_account).unwrap().available;
    assert_eq!(bob, Credits::from_gd(2 * ROUNDS as i64));
}

#[test]
fn an_exhausted_key_refuses_every_receipt_and_a_retry_moves_nothing() {
    let w = Deployment::boot(DeployConfig::single(GridBankConfig {
        signer_height: 2,
        ..GridBankConfig::default()
    }))
    .unwrap();
    let (mut alice, bob_account) = payer_and_payee(&w, 70, 100);
    for _ in 0..4 {
        alice.direct_transfer(bob_account, Credits::from_gd(1), "bob.host").unwrap();
    }
    let keys = [0xEE01, 0xEE02, 0xEE03];
    let bank = w.bank(1).unwrap();
    let held = || bank.accounts.account_details(&bob_account).unwrap().available;
    let ids = keys.map(|k| alice.send_pipelined(Some(k), &transfer(bob_account, 1)).unwrap());
    // The bank answers each with `BankError::Crypto(IdentityExhausted)`,
    // which crosses the wire as an error of kind "other" with its message.
    for id in ids {
        match alice.recv_pipelined(id) {
            Err(BankError::Protocol(m)) if m.contains("signing identity exhausted") => {}
            other => panic!("expected the exhausted key's error, got {other:?}"),
        }
    }
    // The transfers committed before the signature failed; their stamps
    // remember it, so a retry answers them and moves nothing.
    let (rows, before) = (bank.all_transfers().len(), held());
    assert_eq!((rows, before), (7, Credits::from_gd(7)));
    for k in keys {
        let id = alice.send_pipelined(Some(k), &transfer(bob_account, 1)).unwrap();
        let answer = alice.recv_pipelined(id).unwrap();
        assert!(matches!(answer, BankResponse::Confirmation { .. }), "{answer:?}");
    }
    assert_eq!((bank.all_transfers().len(), held()), (rows, before));
}

#[test]
fn each_request_of_a_drain_keeps_its_own_serve_span() {
    gridbank_suite::obs::set_telemetry(true);
    let w = world();
    let (mut alice, bob_account) = payer_and_payee(&w, 80, 100);
    let bank_key = w.bank(1).unwrap().verifying_key();
    let drained = (0..5u64).find_map(|attempt| {
        let slow = occupy_the_server(&mut alice);
        // Each request is sent under a root span of its own.
        let sent: Vec<(u64, u64, u64)> = (0..3)
            .map(|k| {
                let root = gridbank_suite::obs::root_span("test", "pipelined_request");
                let ctx = root.context().expect("telemetry is on");
                let key = 0x5A00 + 3 * attempt + k;
                let id = alice.send_pipelined(Some(key), &transfer(bob_account, 1)).unwrap();
                (id, ctx.trace_id, ctx.parent_span)
            })
            .collect();
        alice.recv_pipelined(slow).unwrap();
        let receipts: Vec<_> =
            sent.iter().map(|(id, _, _)| receipt(alice.recv_pipelined(*id).unwrap())).collect();
        for r in &receipts {
            r.verify(&bank_key).unwrap();
        }
        let one_batch = receipts.iter().all(|r| r.batch.count == 3);
        one_batch.then_some(sent)
    });
    let sent = drained.expect("no drain ever held the three transfers");
    // Serve spans close just after their replies leave.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let spans = gridbank_suite::obs::buffered_spans();
        let serves: Vec<Vec<_>> = sent
            .iter()
            .map(|&(_, trace, parent)| {
                spans
                    .iter()
                    .filter(|s| s.name == "rpc_serve" && s.trace_id == trace)
                    .map(|s| s.parent_span == parent)
                    .collect()
            })
            .collect();
        if serves.iter().all(|under| under == &[true]) {
            break;
        }
        assert!(Instant::now() < deadline, "serve spans per request: {serves:?}");
        std::thread::sleep(Duration::from_millis(5));
    }
}
