//! E10 — pipelined RPC against a live bank: many in-flight requests per
//! connection, responses matched by correlation id, exactly-once keyed
//! mutations under concurrency and link faults (see `docs/PROTOCOLS.md`
//! §1 for the pipelining state machine).

// Test fixtures build inputs with plain arithmetic; the workspace
// `clippy::arithmetic_side_effects` wall targets production money paths
// (see docs/STATIC_ANALYSIS.md §lint wall).
#![allow(clippy::arithmetic_side_effects)]

use gridbank_suite::bank::api::{BankRequest, BankResponse};
use gridbank_suite::bank::client::GridBankClient;
use gridbank_suite::bank::db::GroupCommitConfig;
use gridbank_suite::bank::server::{GridBankConfig, ServerTuning};
use gridbank_suite::bank::BankError;
use gridbank_suite::crypto::cert::SubjectName;
use gridbank_suite::net::fault::{FaultPlan, FaultRates};
use gridbank_suite::rur::Credits;
use gridbank_suite::sim::deploy::{DeployConfig, Deployment, Identity};

fn world(tuning: ServerTuning) -> Deployment {
    Deployment::boot(DeployConfig {
        tuning,
        ..DeployConfig::single(GridBankConfig {
            signer_height: 9,
            // A wide grouping window so pipelined workers share journal
            // flushes — the configuration this suite is meant to stress.
            group_commit: GroupCommitConfig { max_batch: 32, max_delay_micros: 500 },
            ..GridBankConfig::default()
        })
    })
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
    // A small worker pool (2 workers, shallow queue) so requests really
    // do execute concurrently and out of submission order.
    let w = world(ServerTuning { workers: 2, queue_depth: 8, max_connections: 64 });
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
    // The same idempotency key submitted twice back-to-back in one
    // pipeline window: with 4 workers both copies can be mid-execution
    // at once, and the in-flight key guard must still collapse them to
    // a single applied transfer.
    let w = world(ServerTuning { workers: 4, queue_depth: 16, max_connections: 64 });
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
}

#[test]
fn pipelined_batch_survives_reorder_faults_with_keyed_retries() {
    // Reorder faults at the transport layer break the secure channel's
    // strict sequence check — a pipelined batch dies mid-flight instead
    // of being silently misordered. The client reconnects and retries
    // the whole batch with the *same* keys; dedup keeps every transfer
    // exactly-once no matter where the batch was cut.
    let w = world(ServerTuning::default());
    let mut alice_identity = identity(&w, "alice", 30);
    let mut alice = alice_identity.connect(1).unwrap();
    let alice_account = alice.create_account(None).unwrap();
    let mut bob = connect(&w, "bob", 31).unwrap();
    let bob_account = bob.create_account(None).unwrap();
    let mut admin = w.admin(1).unwrap();
    admin.admin_deposit(alice_account, Credits::from_gd(100)).unwrap();

    let injector = w.install_faults(FaultPlan {
        seed: 0xBEEF,
        to_server: FaultRates { reorder_pm: 120, ..FaultRates::NONE },
        to_client: FaultRates { reorder_pm: 120, ..FaultRates::NONE },
        // Let the handshake through; fault only steady-state traffic.
        skip_first: 12,
    });
    injector.arm(true);

    const N: u64 = 12;
    let transfer = |k: u64| BankRequest::DirectTransfer {
        to: bob_account,
        amount: Credits::from_gd(1),
        recipient_address: format!("bob.host/{k}"),
    };
    let mut settled = vec![false; N as usize];
    let mut attempts = 0;
    while settled.iter().any(|s| !s) {
        attempts += 1;
        assert!(attempts <= 50, "batch never settled under reorder faults");
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
            injector.arm(false);
            alice = alice_identity.connect(1).expect("reconnect");
            injector.arm(true);
        }
    }
    injector.arm(false);

    // Every key applied exactly once despite arbitrary mid-batch cuts.
    assert_eq!(w.bank(1).unwrap().all_transfers().len(), N as usize);
    let mut check = connect(&w, "alice", 500).unwrap();
    assert_eq!(check.my_account().unwrap().available, Credits::from_gd(100 - N as i64));
    assert_eq!(bob.my_account().unwrap().available, Credits::from_gd(N as i64));
}
