//! E9 adjunct — crash consistency: after arbitrary banking activity, a
//! bank killed and reopened on its store holds identical state ("GB
//! database" durability, §3.2/§5.1). Every "crash" here is the recovery
//! a deployment runs: drop the bank, open the same store again.

// Test fixtures build inputs with plain arithmetic; the workspace
// `clippy::arithmetic_side_effects` wall targets production money paths
// (see docs/STATIC_ANALYSIS.md §lint wall).
#![allow(clippy::arithmetic_side_effects)]

use std::sync::Arc;

use gridbank_suite::bank::accounts::GbAccounts;
use gridbank_suite::bank::admin::GbAdmin;
use gridbank_suite::bank::clock::Clock;
use gridbank_suite::bank::db::{Database, JournalEntry};
use gridbank_suite::bank::guarantee::FundsGuarantee;
use gridbank_suite::bank::store::{open_store, StoreConfig};
use gridbank_suite::rur::{Credits, Decode};

const ADMIN: &str = "/CN=admin";

/// Every entry in the closed store at `store`, in LSN order: a scratch
/// store is never checkpointed, so its tail is its whole journal.
fn journal_of(store: &StoreConfig) -> Vec<JournalEntry> {
    let (state, _log) = open_store(1, 1, store.clone()).unwrap();
    state.tail.into_iter().map(|(_lsn, entry)| entry).collect()
}

/// Copies a store directory, as a crash at this instant would leave it.
fn copy_store(from: &std::path::Path, to: &std::path::Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap().map(Result::unwrap) {
        let target = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_store(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), target).unwrap();
        }
    }
}

#[test]
fn journal_replay_reconstructs_full_banking_state() {
    let store = StoreConfig::scratch("crash-full");
    let db = Arc::new(Database::open(1, 1, store.clone()).unwrap().0);
    let accounts = GbAccounts::new(db.clone(), Clock::new());
    let admin = GbAdmin::new(accounts.clone(), [ADMIN.to_string()]);
    let guarantee = FundsGuarantee::new(accounts.clone());

    // A realistic mix of activity.
    let a = accounts.create_account("/CN=alice", Some("UWA".into())).unwrap();
    let b = accounts.create_account("/CN=bob", None).unwrap();
    let c = accounts.create_account("/CN=carol", None).unwrap();
    admin.deposit(ADMIN, &a, Credits::from_gd(100)).unwrap();
    admin.deposit(ADMIN, &b, Credits::from_gd(50)).unwrap();
    accounts.clock().advance(1_000);
    accounts.transfer(&a, &b, Credits::from_gd(10), vec![1, 2, 3]).unwrap();
    let res = guarantee.reserve(&a, Credits::from_gd(20)).unwrap();
    guarantee.settle(res, &c, Credits::from_gd(7), vec![4, 5]).unwrap();
    admin.change_credit_limit(ADMIN, &b, Credits::from_gd(5)).unwrap();
    admin.withdraw(ADMIN, &b, Credits::from_gd(15)).unwrap();
    let txid = accounts.transfer(&b, &c, Credits::from_gd(3), vec![]).unwrap();
    admin.cancel_transfer(ADMIN, txid).unwrap();
    admin.close_account(ADMIN, &c, Some(a)).unwrap();

    // "Crash": only the store survives; reopen it.
    let histories = |db: &Database| {
        [a, b].map(|id| {
            (db.transactions_in_range(&id, 0, u64::MAX), db.transfers_in_range(&id, 0, u64::MAX))
        })
    };
    let (all, funds, history) = (db.all_accounts(), db.total_funds(), histories(&db));
    drop((accounts, admin, guarantee, db));
    let rebuilt = Database::open(1, 1, store).unwrap().0;

    // Account state identical.
    assert_eq!(rebuilt.all_accounts(), all);
    assert_eq!(rebuilt.total_funds(), funds);
    assert_eq!(rebuilt.account_count(), 2);

    // Histories identical for surviving accounts.
    assert_eq!(histories(&rebuilt), history);

    // The rebuilt database keeps working: new ids don't collide, new
    // operations succeed.
    let rebuilt_accounts = GbAccounts::new(Arc::new(rebuilt), Clock::new());
    let d = rebuilt_accounts.create_account("/CN=dave", None).unwrap();
    assert!(d.number > b.number);
    let rebuilt_admin = GbAdmin::new(rebuilt_accounts.clone(), [ADMIN.to_string()]);
    rebuilt_admin.deposit(ADMIN, &d, Credits::from_gd(1)).unwrap();
    rebuilt_accounts.transfer(&d, &a, Credits::from_gd(1), vec![]).unwrap();
}

#[test]
fn journal_prefix_replays_to_a_consistent_earlier_state() {
    // Crash after every acknowledged operation: the store directory is
    // copied as each operation returns, and every copy must reopen to
    // exactly what the live bank held at that moment (never negative
    // locks, never past a credit limit) — the store is crash-consistent
    // at every acknowledged boundary, not just the end. (Cuts *inside* a
    // batch are tests/storage_recovery.rs's torn-tail cases.)
    let store = StoreConfig::scratch("crash-prefix");
    let db = Arc::new(Database::open(1, 1, store.clone()).unwrap().0);
    let accounts = GbAccounts::new(db.clone(), Clock::new());
    let admin = GbAdmin::new(accounts.clone(), [ADMIN.to_string()]);
    let mut cuts = Vec::new();
    let mut crash_here = || {
        let copy = StoreConfig::scratch("crash-cut");
        copy_store(&store.dir, &copy.dir);
        cuts.push((copy, db.total_funds(), db.all_accounts()));
    };
    let a = accounts.create_account("/CN=a", None).unwrap();
    crash_here();
    let b = accounts.create_account("/CN=b", None).unwrap();
    crash_here();
    admin.deposit(ADMIN, &a, Credits::from_gd(40)).unwrap();
    crash_here();
    for i in 0..10 {
        accounts.transfer(&a, &b, Credits::from_gd(1), vec![i]).unwrap();
        crash_here();
        accounts.lock_funds(&a, Credits::from_gd(1)).unwrap();
        crash_here();
        accounts.unlock_funds(&a, Credits::from_gd(1)).unwrap();
        crash_here();
    }

    assert_eq!(cuts.len(), 33);
    for (cut, (copy, funds, all)) in cuts.into_iter().enumerate() {
        let reopened = Database::open(1, 1, copy.clone()).unwrap().0;
        assert_eq!(reopened.total_funds(), funds, "cut {cut}: funds");
        assert_eq!(reopened.all_accounts(), all, "cut {cut}: accounts");
        for record in all {
            assert!(record.locked >= Credits::ZERO, "cut {cut}: negative lock");
            assert!(record.available >= -record.credit_limit, "cut {cut}: overdraft");
        }
        let _ = std::fs::remove_dir_all(&copy.dir);
    }
}

#[test]
fn crash_between_apply_and_ack_keeps_the_retry_exactly_once() {
    // The client sends a keyed DirectTransfer; the bank applies it and
    // journals the idempotency stamp atomically with the transfer — and
    // then "crashes" before the response reaches the client. On the
    // reopened bank, the client's retry (same key) must be answered from
    // the recovered dedup cache: same transaction id, no second transfer,
    // and still exactly one journal entry for the key.
    use gridbank_suite::bank::api::{BankRequest, BankResponse};
    use gridbank_suite::bank::server::{GridBank, GridBankConfig};
    use gridbank_suite::crypto::cert::SubjectName;

    let config = || GridBankConfig { signer_height: 5, ..GridBankConfig::default() };
    let store = StoreConfig::scratch("crash-ack");
    let (bank, _) = GridBank::open_durable(config(), Clock::new(), store.clone()).unwrap();
    let alice = SubjectName::new("Org", "Unit", "alice");
    let bob = SubjectName::new("Org", "Unit", "bob");
    let operator = SubjectName("/O=GridBank/OU=Admin/CN=operator".into());

    let alice_account = match bank.handle(&alice, BankRequest::CreateAccount { organization: None })
    {
        BankResponse::AccountCreated { account } => account,
        other => panic!("create failed: {other:?}"),
    };
    let bob_account = match bank.handle(&bob, BankRequest::CreateAccount { organization: None }) {
        BankResponse::AccountCreated { account } => account,
        other => panic!("create failed: {other:?}"),
    };
    bank.handle(
        &operator,
        BankRequest::AdminDeposit { account: alice_account, amount: Credits::from_gd(10) },
    );

    const KEY: u64 = 0xDEAD_BEEF;
    let request = BankRequest::DirectTransfer {
        to: bob_account,
        amount: Credits::from_gd(4),
        recipient_address: "bob.grid.org".into(),
    };
    let original_txid = match bank.handle_keyed(&alice, Some(KEY), request.clone()) {
        BankResponse::Confirmed(conf) => conf.body.transaction_id,
        other => panic!("transfer failed: {other:?}"),
    };

    let idem_entries = |journal: &[JournalEntry]| {
        journal
            .iter()
            .filter(|e| matches!(e, JournalEntry::Idem { key, .. } if *key == KEY))
            .count()
    };
    // Crash: only the store survives. The response above never reached
    // the client.
    let funds = bank.total_funds();
    drop(bank);
    assert_eq!(idem_entries(&journal_of(&store)), 1, "the apply journals exactly one stamp");
    let (rebuilt, _) = GridBank::open_durable(config(), Clock::new(), store.clone()).unwrap();
    assert_eq!(rebuilt.total_funds(), funds);

    // The client retries with the same key and must get the same
    // transaction back — the recovered stamp holds the placeholder
    // confirmation committed atomically with the transfer.
    let journal_len = rebuilt.accounts.db().journal_len();
    match rebuilt.handle_keyed(&alice, Some(KEY), request.clone()) {
        BankResponse::Confirmation { transaction_id } => {
            assert_eq!(transaction_id, original_txid)
        }
        other => panic!("retry not deduplicated: {other:?}"),
    }
    assert_eq!(rebuilt.all_transfers().len(), 1, "no second transfer row");
    assert_eq!(rebuilt.accounts.db().journal_len(), journal_len, "dedup hit journals nothing");
    let alice_rec = rebuilt
        .all_accounts()
        .into_iter()
        .find(|r| r.id == alice_account)
        .expect("alice survives replay");
    assert_eq!(alice_rec.available, Credits::from_gd(6), "charged exactly once");

    // A *different* key is a new logical operation and applies again.
    match rebuilt.handle_keyed(&alice, Some(KEY + 1), request) {
        BankResponse::Confirmed(conf) => {
            assert_ne!(conf.body.transaction_id, original_txid)
        }
        other => panic!("fresh key refused: {other:?}"),
    }
    assert_eq!(rebuilt.all_transfers().len(), 2);
    drop(rebuilt);
    assert_eq!(idem_entries(&journal_of(&store)), 1, "still one stamp for the retried key");
}

#[test]
fn failed_group_commit_member_never_reaches_the_journal() {
    // Concurrent keyed DirectTransfers each journal their batch as one
    // frame under the accounts lock. One whose application fails
    // (insufficient funds) must journal nothing: no Update/Transfer/Idem
    // row of it reaches the journal, while the concurrent successful
    // ones commit normally — and the post-crash bank agrees.
    use gridbank_suite::bank::api::{BankRequest, BankResponse};
    use gridbank_suite::bank::server::{GridBank, GridBankConfig};
    use gridbank_suite::crypto::cert::SubjectName;

    let config = || GridBankConfig { signer_height: 6, ..GridBankConfig::default() };
    let store = StoreConfig::scratch("crash-group");
    let (bank, _) = GridBank::open_durable(config(), Clock::new(), store.clone()).unwrap();
    let operator = SubjectName("/O=GridBank/OU=Admin/CN=operator".into());

    let subjects: Vec<SubjectName> =
        (0..4).map(|i| SubjectName::new("Org", "Unit", &format!("payer{i}"))).collect();
    let broke = SubjectName::new("Org", "Unit", "broke");
    let sink = SubjectName::new("Org", "Unit", "sink");
    let open =
        |s: &SubjectName| match bank.handle(s, BankRequest::CreateAccount { organization: None }) {
            BankResponse::AccountCreated { account } => account,
            other => panic!("create failed: {other:?}"),
        };
    for s in &subjects {
        let account = open(s);
        bank.handle(&operator, BankRequest::AdminDeposit { account, amount: Credits::from_gd(50) });
    }
    let broke_account = open(&broke);
    let sink_account = open(&sink);

    let transfer = BankRequest::DirectTransfer {
        to: sink_account,
        amount: Credits::from_gd(5),
        recipient_address: "sink.grid.org".into(),
    };
    std::thread::scope(|scope| {
        for (i, s) in subjects.iter().enumerate() {
            let (bank, transfer) = (&bank, transfer.clone());
            scope.spawn(move || {
                let reply = bank.handle_keyed(s, Some(1000 + i as u64), transfer);
                assert!(matches!(reply, BankResponse::Confirmed(_)), "payer {i}: {reply:?}");
            });
        }
        let (bank, transfer, broke) = (&bank, transfer.clone(), &broke);
        scope.spawn(move || {
            // Zero balance: application fails before anything is
            // journaled, while the other transfers commit around it.
            let reply = bank.handle_keyed(broke, Some(2000), transfer);
            assert!(matches!(reply, BankResponse::Error { .. }), "broke payer: {reply:?}");
        });
    });

    let (all, funds) = (bank.all_accounts(), bank.total_funds());
    drop(bank);
    let journal = journal_of(&store);
    let broke_deposits: Vec<_> = journal
        .iter()
        .filter(|e| matches!(e, JournalEntry::Update(r) if r.id == broke_account))
        .collect();
    assert!(broke_deposits.is_empty(), "failed transfer left journal rows: {broke_deposits:?}");
    assert!(
        !journal.iter().any(|e| matches!(e, JournalEntry::Idem { key: 2000, .. })),
        "failed transfer must not consume its idempotency key"
    );

    // Crash and reopen: the rebuilt bank matches the live one, the four
    // successful transfers survived, and the failed transfer's retry (same
    // key) applies cleanly once funded.
    let (rebuilt, _) = GridBank::open_durable(config(), Clock::new(), store).unwrap();
    assert_eq!(rebuilt.all_accounts(), all);
    assert_eq!(rebuilt.total_funds(), funds);
    assert_eq!(rebuilt.all_transfers().len(), 4);
    rebuilt.handle(
        &operator,
        BankRequest::AdminDeposit { account: broke_account, amount: Credits::from_gd(10) },
    );
    let transfer = BankRequest::DirectTransfer {
        to: sink_account,
        amount: Credits::from_gd(5),
        recipient_address: "sink.grid.org".into(),
    };
    match rebuilt.handle_keyed(&broke, Some(2000), transfer) {
        BankResponse::Confirmed(_) => {}
        other => panic!("retry after funding failed: {other:?}"),
    }
    assert_eq!(rebuilt.all_transfers().len(), 5);
}

#[test]
fn replay_rediscovers_clearing_accounts_and_reships_pending_credits() {
    // A cross-branch payment parks the amount in the drawer branch's
    // clearing account and journals a pending IbCredit. If the branch
    // crashes before the peer acknowledges, recovery must (1) rediscover
    // the existing Clearing/CN=branch-A-vs-B account instead of lazily
    // creating a duplicate, and (2) rebuild the pending credit so the
    // re-ship delivers it exactly once.
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    use gridbank_suite::bank::api::{BankRequest, BankResponse};
    use gridbank_suite::bank::client::BankLink;
    use gridbank_suite::bank::federation::{direct_peer, FederationRouter};
    use gridbank_suite::bank::port::DirectLink;
    use gridbank_suite::bank::server::{GridBank, GridBankConfig};
    use gridbank_suite::bank::BankError;
    use gridbank_suite::crypto::cert::SubjectName;
    use gridbank_suite::net::error::NetError;

    /// A peer link with a breakable wire: while `down`, every call fails
    /// like a dead network — after the underlying delivery may or may
    /// not have happened, which is exactly the ambiguity the pending
    /// journal must survive.
    struct FlakyPeer {
        inner: DirectLink,
        down: Arc<AtomicBool>,
    }
    impl BankLink for FlakyPeer {
        fn call_keyed(
            &mut self,
            key: Option<u64>,
            request: &BankRequest,
        ) -> Result<BankResponse, BankError> {
            if self.down.load(Ordering::Relaxed) {
                return Err(BankError::Net(NetError::Disconnected));
            }
            self.inner.call_keyed(key, request)
        }
    }

    let config =
        |branch: u16| GridBankConfig { branch, signer_height: 6, ..GridBankConfig::default() };
    let clock = Clock::new();
    let store = StoreConfig::scratch("crash-ib");
    let reopen = || GridBank::open_durable(config(1), Clock::new(), store.clone()).unwrap().0;
    let home = Arc::new(GridBank::open_durable(config(1), clock.clone(), store.clone()).unwrap().0);
    let remote = Arc::new(GridBank::new(config(2), clock.clone()));
    let home_router = FederationRouter::install(&home);
    let remote_router = FederationRouter::install(&remote);
    remote_router.add_peer(1, direct_peer(&home, 2));
    let down = Arc::new(AtomicBool::new(false));
    home_router.add_peer(2, FlakyPeer { inner: direct_peer(&remote, 1), down: Arc::clone(&down) });

    let alice = SubjectName::new("Org", "Unit", "alice");
    let bob = SubjectName::new("Org", "Unit", "bob");
    let operator = SubjectName("/O=GridBank/OU=Admin/CN=operator".into());
    let open = |bank: &GridBank, s: &SubjectName| match bank
        .handle(s, BankRequest::CreateAccount { organization: None })
    {
        BankResponse::AccountCreated { account } => account,
        other => panic!("create failed: {other:?}"),
    };
    let alice_account = open(&home, &alice);
    let bob_account = open(&remote, &bob);
    home.handle(
        &operator,
        BankRequest::AdminDeposit { account: alice_account, amount: Credits::from_gd(100) },
    );

    // First payment delivers normally and establishes the clearing
    // account; then the wire dies and a second payment strands its
    // credit in the pending set.
    let pay = |key: u64| {
        home.handle_keyed(
            &alice,
            Some(key),
            BankRequest::DirectTransfer {
                to: bob_account,
                amount: Credits::from_gd(10),
                recipient_address: "bob.grid.org".into(),
            },
        )
    };
    assert!(matches!(pay(1), BankResponse::Confirmed(_)));
    down.store(true, Ordering::Relaxed);
    assert!(matches!(pay(2), BankResponse::Confirmed(_)), "stranded ship still confirms locally");
    let clearing = home_router.clearing_account(2).unwrap();
    assert_eq!(home_router.clearing_balance(2), Credits::from_gd(20));
    assert_eq!(home.accounts.db().ib_pending_snapshot().len(), 1);
    let accounts_before = home.accounts.db().account_count();

    // Crash the home branch: only its store survives (the dead bank
    // lingers in the mesh's `Arc` cycle, as a killed process's files do).
    let rebuilt = Arc::new(reopen());
    let rebuilt_router = FederationRouter::install(&rebuilt);
    rebuilt_router.add_peer(2, direct_peer(&remote, 1));

    // Rediscovery, not re-creation: same clearing account id, no
    // duplicate Clearing/CN rows.
    assert_eq!(rebuilt_router.clearing_account(2).unwrap(), clearing);
    assert_eq!(rebuilt.accounts.db().account_count(), accounts_before);
    assert_eq!(rebuilt_router.clearing_balance(2), Credits::from_gd(20));

    // The pending credit survived the crash and re-ships exactly once.
    assert_eq!(rebuilt.accounts.db().ib_pending_snapshot().len(), 1);
    assert_eq!(rebuilt_router.ship_pending(), 1);
    assert!(rebuilt.accounts.db().ib_pending_snapshot().is_empty());
    let bob_balance = || {
        remote
            .all_accounts()
            .into_iter()
            .find(|r| r.id == bob_account)
            .expect("bob exists")
            .available
    };
    assert_eq!(bob_balance(), Credits::from_gd(20), "both credits applied exactly once");

    // Idempotent: a second re-ship pass (or a retry of the first) finds
    // nothing and changes nothing — the dedup key rode along.
    assert_eq!(rebuilt_router.ship_pending(), 0);
    assert_eq!(bob_balance(), Credits::from_gd(20));

    // And a crash *after* the ack recovers to an empty pending set.
    assert!(reopen().accounts.db().ib_pending_snapshot().is_empty());
}

#[test]
fn empty_and_corrupt_journals_are_handled() {
    let empty = Database::open(1, 1, StoreConfig::scratch("crash-empty")).unwrap().0;
    assert_eq!(empty.account_count(), 0);
    assert_eq!(empty.total_funds(), Credits::ZERO);

    assert!(JournalEntry::from_bytes(&[1, 2, 3]).is_err());
}
