//! The one bootstrap (`gridbank_sim::deploy`, DESIGN.md §4 "Booting a
//! bank"): a federated boot settles to zero before and after one branch
//! is killed and rebooted, a durable branch survives kill + reboot on
//! the same store with its journal count intact, a resilient client
//! stays exactly-once through a reorder storm, and a route's
//! reachability follows its failed attempts.

// Test fixtures build inputs with plain arithmetic; the workspace
// `clippy::arithmetic_side_effects` wall targets production money paths
// (see docs/STATIC_ANALYSIS.md §lint wall).
#![allow(clippy::arithmetic_side_effects)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use gridbank_suite::bank::api::{BankRequest, BankResponse};
use gridbank_suite::bank::client::GridBankClient;
use gridbank_suite::bank::db::TransactionType;
use gridbank_suite::bank::resilient::{Connector, ResilientBankClient, UNREACHABLE_AFTER};
use gridbank_suite::bank::server::GridBankConfig;
use gridbank_suite::bank::store::StoreConfig;
use gridbank_suite::bank::BankError;
use gridbank_suite::crypto::cert::{create_proxy, CertificateAuthority, SubjectName};
use gridbank_suite::crypto::keys::{KeyMaterial, SigningIdentity};
use gridbank_suite::crypto::rng::DeterministicStream;
use gridbank_suite::net::fault::{FaultPlan, FaultRates};
use gridbank_suite::net::transport::Address;
use gridbank_suite::rur::Credits;
use gridbank_suite::sim::deploy::{address, BranchConfig, DeployConfig, Deployment, OPERATOR};

fn bank_config() -> GridBankConfig {
    GridBankConfig { signer_height: 8, ..GridBankConfig::default() }
}

fn subject(cn: &str) -> SubjectName {
    SubjectName::new("Test", "Deploy", cn)
}

/// Runs one netting pass on every router; returns the net moved.
/// One durable branch on a scratch store, and where that store is.
fn durable_branch(tag: &str) -> (Deployment, std::path::PathBuf) {
    let store = StoreConfig::scratch(tag);
    let dir = store.dir.clone();
    let world = Deployment::boot(DeployConfig {
        branches: vec![BranchConfig { bank: bank_config(), store: Some(store) }],
        ..DeployConfig::single(bank_config())
    })
    .unwrap();
    (world, dir)
}

fn settle(world: &Deployment) -> Credits {
    let mut net = Credits::ZERO;
    for router in world.routers() {
        net = net.saturating_add(router.settle_once().unwrap().total_net());
    }
    assert_eq!(world.settlement_residue(), (Credits::ZERO, 0));
    net
}

#[test]
fn two_branches_settle_keyed_cross_branch_transfers_across_a_reboot() {
    let store = StoreConfig::scratch("deploy-federated");
    let dir = store.dir.clone();
    let mut config = DeployConfig::federated(2, |_| bank_config());
    config.branches[1].store = Some(store);
    let mut world = Deployment::boot(config).unwrap();
    let mut payee = world.identity(subject("payee"), 21).unwrap().connect(2).unwrap();
    let payee_account = payee.create_account(None).unwrap();
    let mut payer = world.identity(subject("payer"), 11).unwrap().connect(1).unwrap();
    let payer_account = payer.create_account(None).unwrap();
    world.admin(1).unwrap().admin_deposit(payer_account, Credits::from_gd(100)).unwrap();
    let before = world.total_funds();

    // The same key twice: the second send must replay the first answer.
    let transfer = BankRequest::DirectTransfer {
        to: payee_account,
        amount: Credits::from_gd(7),
        recipient_address: "payee.vo2.org".into(),
    };
    for _ in 0..2 {
        let reply = payer.call_keyed(Some(0xFEED), &transfer).unwrap();
        assert!(matches!(reply, BankResponse::Confirmed(_)), "{reply:?}");
    }
    assert_eq!(payee.my_account().unwrap().available, Credits::from_gd(7));
    assert_eq!(payer.my_account().unwrap().available, Credits::from_gd(93));
    assert_eq!(settle(&world), Credits::from_gd(7), "one obligation of G$7 was netted");
    assert_eq!(world.total_funds(), before);

    // Kill the payee's branch while branch 1 still holds a dialled
    // route to it; the reboot must find the same ledger and rejoin.
    let digest = world.bank(2).unwrap().accounts.db().state_digest();
    drop(payee);
    world.kill(2).unwrap();
    world.reboot(2).unwrap();
    assert_eq!(world.bank(2).unwrap().accounts.db().state_digest(), digest);
    assert_eq!(world.total_funds(), before);
    let reply = payer.call_keyed(Some(0xFEEE), &transfer).unwrap();
    assert!(matches!(reply, BankResponse::Confirmed(_)), "{reply:?}");
    assert_eq!(settle(&world), Credits::from_gd(7));
    assert_eq!(world.total_funds(), before);
    drop(world);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn durable_branch_survives_kill_and_reboot_without_a_journal_mirror() {
    let (mut world, dir) = durable_branch("deploy-single");

    let mut alice = world.identity(subject("alice"), 10).unwrap().connect(1).unwrap();
    let alice_account = alice.create_account(None).unwrap();
    let mut bob = world.identity(subject("bob"), 11).unwrap().connect(1).unwrap();
    let bob_account = bob.create_account(None).unwrap();
    world.admin(1).unwrap().admin_deposit(alice_account, Credits::from_gd(50)).unwrap();

    let db = |w: &Deployment| w.bank(1).unwrap().accounts.db().clone();
    let before_payments = db(&world).journal_len();
    assert!(before_payments > 0, "accounts and the deposit were journaled");
    for k in 0..5 {
        alice.direct_transfer(bob_account, Credits::from_gd(1), &format!("bob.host/{k}")).unwrap();
    }
    let entries = db(&world).journal_len();
    assert!(entries >= before_payments + 5, "every payment reached the journal");
    let digest = db(&world).state_digest();
    let funds = world.total_funds();

    drop((alice, bob));
    world.kill(1).unwrap();
    assert!(world.bank(1).is_err(), "a killed branch has no bank");
    world.reboot(1).unwrap();

    assert!(world.recovery(1).is_some(), "the reboot recovered from the store");
    assert_eq!(db(&world).state_digest(), digest);
    assert_eq!(world.total_funds(), funds);
    assert_eq!(db(&world).journal_len(), entries, "the count survives the restart");

    // The rebooted branch serves, and keeps counting where it stopped.
    let mut alice = world.identity(subject("alice"), 12).unwrap().connect(1).unwrap();
    alice.direct_transfer(bob_account, Credits::from_gd(1), "bob.host/after").unwrap();
    assert!(db(&world).journal_len() > entries);
    drop(world);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn statements_read_the_same_from_a_snapshot_and_a_replayed_tail() {
    let (mut world, dir) = durable_branch("deploy-statements");
    let mut alice = world.identity(subject("alice"), 20).unwrap().connect(1).unwrap();
    let alice_account = alice.create_account(None).unwrap();
    let mut bob = world.identity(subject("bob"), 21).unwrap().connect(1).unwrap();
    let bob_account = bob.create_account(None).unwrap();
    world.admin(1).unwrap().admin_deposit(alice_account, Credits::from_gd(50)).unwrap();

    let db = |w: &Deployment| w.bank(1).unwrap().accounts.db().clone();
    // Every account's whole statement: the index is in no snapshot and
    // no journal, so recovery has to rebuild all of it.
    let statements = |w: &Deployment| -> Vec<_> {
        let db = db(w);
        db.all_accounts().iter().map(|r| db.statement(&r.id, 0, u64::MAX).unwrap()).collect()
    };
    // Rows on both sides of a checkpoint: the first come back through
    // the snapshot fold, the rest through the replayed tail.
    for k in 0..4 {
        alice.direct_transfer(bob_account, Credits::from_gd(2), &format!("bob.host/{k}")).unwrap();
    }
    db(&world).checkpoint().unwrap();
    for k in 0..3 {
        bob.direct_transfer(alice_account, Credits::from_gd(1), &format!("alice.host/{k}"))
            .unwrap();
    }
    let (before, digest) = (statements(&world), db(&world).state_digest());
    let (funds, entries) = (world.total_funds(), db(&world).journal_len());
    let of = |account| before.iter().find(|st| st.account.id == account).unwrap();
    assert_eq!(of(alice_account).transfers.len(), 7);
    assert_eq!(of(alice_account).transactions.len(), 8, "the deposit and seven payments");
    assert_eq!(of(bob_account).transactions.len(), 7);

    drop((alice, bob));
    world.kill(1).unwrap();
    world.reboot(1).unwrap();
    let report = world.recovery(1).expect("the reboot recovered from the store");
    assert_eq!(report.snapshots_loaded, 1, "{report:?}");
    // Replay is bounded by the tail past the checkpoint, not by history.
    assert!(
        0 < report.tail_entries_replayed && report.tail_entries_replayed < entries,
        "{report:?}"
    );
    assert_eq!(statements(&world), before);
    assert_eq!(db(&world).state_digest(), digest);
    assert_eq!(world.total_funds(), funds);

    // The rebooted branch answers over the wire.
    let mut alice = world.identity(subject("alice"), 22).unwrap().connect(1).unwrap();
    assert_eq!(alice.my_account().unwrap().id, alice_account);
    drop((alice, world));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resilient_retries_stay_exactly_once_under_a_reorder_storm() {
    let world = Deployment::boot(DeployConfig::single(bank_config())).unwrap();
    let mut bob = world.identity(subject("bob"), 31).unwrap().connect(1).unwrap();
    let bob_account = bob.create_account(None).unwrap();
    // Set up on a plain link, hung up before the storm so that every
    // frame alice sends afterwards rides a link the injector can fault.
    let mut setup = world.identity(subject("alice"), 30).unwrap().connect(1).unwrap();
    let alice_account = setup.create_account(None).unwrap();
    drop(setup);
    world.admin(1).unwrap().admin_deposit(alice_account, Credits::from_gd(100)).unwrap();

    // Reordered frames break the channel's sequence check, so every hit
    // costs alice her connection; her connector dials a fresh one and
    // the retry rides it under the same idempotency key.
    let injector = world.install_faults(FaultPlan {
        seed: 0xBEEF,
        to_server: FaultRates { reorder_pm: 150, ..FaultRates::NONE },
        to_client: FaultRates { reorder_pm: 150, ..FaultRates::NONE },
        // Let each handshake through; fault only steady-state traffic.
        skip_first: 12,
    });
    let mut alice = world.identity(subject("alice"), 32).unwrap().resilient(1);
    // The typed API is the same over every link: the operator tops alice
    // up through the storm too, an operation the retrying client could
    // not express before it shared the wire client's methods.
    let mut operator = world.identity(SubjectName(OPERATOR.into()), 33).unwrap().resilient(1);
    injector.arm(true);
    const N: i64 = 24;
    for k in 0..N {
        alice.direct_transfer(bob_account, Credits::from_gd(1), &format!("bob.host/{k}")).unwrap();
        operator.admin_deposit(alice_account, Credits::from_gd(1)).unwrap();
    }
    let statement = alice.statement(alice_account, 0, u64::MAX).unwrap();
    injector.arm(false);

    assert!(injector.counts().total() > 0, "the storm never happened");
    assert_eq!(world.bank(1).unwrap().all_transfers().len(), N as usize);
    assert_eq!(statement.transfers.len(), N as usize);
    // The set-up deposit plus one per round, each applied exactly once.
    let deposits =
        statement.transactions.iter().filter(|t| t.tx_type == TransactionType::Deposit).count();
    assert_eq!(deposits, 1 + N as usize);
    assert_eq!(bob.my_account().unwrap().available, Credits::from_gd(N));
    assert_eq!(alice.my_account().unwrap().available, Credits::from_gd(100));
}

#[test]
fn a_route_is_unreachable_after_eight_failed_attempts_until_one_round_trip() {
    let world = Deployment::boot(DeployConfig::single(bank_config())).unwrap();
    // Both kinds of answer reset the count: a success, and a typed bank
    // error (an unknown subject may only enrol, so `MyAccount` is
    // refused) — each is a round trip that worked.
    for (seed, enrol) in [(40, true), (41, false)] {
        let down = Arc::new(AtomicBool::new(true));
        let mut identity = world.identity(subject(&format!("route-{seed}")), seed).unwrap();
        let switch = Arc::clone(&down);
        // While down, dial a branch nobody serves: refused at once and
        // not retried, so each call is one failed attempt.
        let connector: Connector =
            Box::new(move || identity.connect(if switch.load(Ordering::Relaxed) { 9 } else { 1 }));
        let mut route = ResilientBankClient::new(connector, seed);
        for call in 1..=UNREACHABLE_AFTER {
            assert!(route.my_account().is_err());
            assert_eq!(route.reachable(), call < UNREACHABLE_AFTER, "after call {call}");
        }
        down.store(false, Ordering::Relaxed);
        if enrol {
            route.create_account(None).unwrap();
        } else {
            let refused = route.my_account().unwrap_err();
            assert!(matches!(refused, BankError::NotAuthorized(_)), "{refused:?}");
        }
        assert!(route.reachable());
    }
}

/// A client whose certificate another CA signed is refused at the
/// handshake, and the server counts the refusal instead of dropping it
/// unseen. No other test here fails a server handshake, so the
/// process-wide counter moves by this one dial only.
#[test]
fn a_handshake_refused_for_a_foreign_ca_is_counted() {
    let world = Deployment::boot(DeployConfig::single(bank_config())).unwrap();
    let foreign = CertificateAuthority::new(
        SubjectName::new("Elsewhere", "CA", "Root"),
        SigningIdentity::generate_small(KeyMaterial { seed: 0xF0 }, "foreign-ca"),
    );
    let key = SigningIdentity::generate_small(KeyMaterial { seed: 0xF1 }, "client");
    let dn = subject("stranger");
    let certificate = foreign.issue(dn, key.verifying_key(), 0, u64::MAX / 2).unwrap();
    let proxy_key = SigningIdentity::generate_small(KeyMaterial { seed: 0xF2 }, "proxy");
    let proxy =
        create_proxy(&key, &certificate, proxy_key.verifying_key(), 0, u64::MAX / 2, 1).unwrap();

    gridbank_suite::obs::set_telemetry(true);
    let failures = || {
        gridbank_suite::obs::registry()
            .snapshot()
            .counter("net.server.handshake_failures")
            .unwrap_or(0)
    };
    let before = failures();
    let dialled = GridBankClient::connect(
        &world.network,
        Address::new("stranger#1"),
        &address(1),
        world.ca.verifying_key(),
        world.clock.now_ms(),
        &proxy,
        &proxy_key,
        &mut DeterministicStream::from_u64(0xF3, b"nonce"),
    );
    assert!(dialled.is_err(), "a foreign-CA client was served");
    // The server thread counts after the client has seen the refusal.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while failures() == before && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert_eq!(failures() - before, 1);
    gridbank_suite::obs::set_telemetry(false);
}
