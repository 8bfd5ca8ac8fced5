//! E10 — pipelined RPC against a live bank: many in-flight requests per
//! connection, served in request order on the connection's thread and
//! matched by correlation id, exactly-once keyed mutations across
//! connections and under link faults (see `docs/PROTOCOLS.md` §1 for the
//! pipelining state machine).

// Test fixtures build inputs with plain arithmetic; the workspace
// `clippy::arithmetic_side_effects` wall targets production money paths
// (see docs/STATIC_ANALYSIS.md §lint wall).
#![allow(clippy::arithmetic_side_effects)]

use std::time::Duration;

use gridbank_suite::bank::api::{BankRequest, BankResponse};
use gridbank_suite::bank::client::GridBankClient;
use gridbank_suite::bank::server::GridBankConfig;
use gridbank_suite::bank::BankError;
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
