//! On-disk store — crash recovery suite (docs/STORAGE.md).
//!
//! Every test follows the same shape: run real banking traffic against a
//! durable bank, "kill" it (drop the process state so only the files
//! survive), damage the files the way a specific crash would, reopen,
//! and assert the durability contract: conservation of funds,
//! exactly-once idempotency and cross-branch credits, and tail-only
//! replay (the [`RecoveryReport`] counts exactly the entries past the
//! last durable snapshot).

// Test fixtures build inputs with plain arithmetic; the workspace
// `clippy::arithmetic_side_effects` wall targets production money paths
// (see docs/STATIC_ANALYSIS.md §lint wall).
#![allow(clippy::arithmetic_side_effects)]

use std::path::{Path, PathBuf};
use std::sync::Arc;

use gridbank_suite::bank::api::{BankRequest, BankResponse};
use gridbank_suite::bank::clock::Clock;
use gridbank_suite::bank::server::{GridBank, GridBankConfig};
use gridbank_suite::bank::store::{self, StoreConfig};
use gridbank_suite::bank::BankError;
use gridbank_suite::crypto::cert::SubjectName;
use gridbank_suite::rur::Credits;

fn config() -> GridBankConfig {
    GridBankConfig { signer_height: 5, ..GridBankConfig::default() }
}

fn open_account(bank: &GridBank, s: &SubjectName) -> gridbank_suite::bank::AccountId {
    match bank.handle(s, BankRequest::CreateAccount { organization: None }) {
        BankResponse::AccountCreated { account } => account,
        other => panic!("create failed: {other:?}"),
    }
}

const OPERATOR: &str = "/O=GridBank/OU=Admin/CN=operator";

fn deposit(bank: &GridBank, account: gridbank_suite::bank::AccountId, gd: i64) {
    let operator = SubjectName(OPERATOR.into());
    match bank
        .handle(&operator, BankRequest::AdminDeposit { account, amount: Credits::from_gd(gd) })
    {
        BankResponse::Confirmed(_) | BankResponse::Confirmation { .. } => {}
        other => panic!("deposit failed: {other:?}"),
    }
}

fn balance_of(bank: &GridBank, id: gridbank_suite::bank::AccountId) -> Credits {
    bank.all_accounts().into_iter().find(|r| r.id == id).expect("account exists").available
}

/// The log's segment files, oldest first.
fn segments(dir: &Path) -> Vec<PathBuf> {
    let mut segs: Vec<PathBuf> = std::fs::read_dir(dir.join("log"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "gbj"))
        .collect();
    segs.sort();
    segs
}

/// Tears the tail: cuts three bytes off the log's newest segment. The
/// cut lands inside the final frame, exactly like an interrupted write.
fn tear_log_tail(dir: &Path) {
    let newest = segments(dir).pop().expect("the log has a segment");
    let f = std::fs::OpenOptions::new().write(true).open(newest).unwrap();
    f.set_len(f.metadata().unwrap().len() - 3).unwrap();
}

/// Writes the log's `COMPACTED` marker by hand (docs/STORAGE.md §2.4).
fn write_compacted_marker(dir: &Path, through: u64) {
    let mut body = Vec::new();
    body.extend_from_slice(&0x4742_4354u32.to_be_bytes()); // "GBCT"
    body.extend_from_slice(&store::FORMAT_VERSION.to_be_bytes());
    body.extend_from_slice(&through.to_be_bytes());
    let check = store::fnv64(&body);
    body.extend_from_slice(&check.to_le_bytes());
    std::fs::write(dir.join("log").join("COMPACTED"), body).unwrap();
}

#[test]
fn restart_replays_only_the_journal_tail() {
    let store = StoreConfig::scratch("tail-only");
    let (bank, report) = GridBank::open_durable(config(), Clock::new(), store.clone()).unwrap();
    assert_eq!(report.tail_entries_replayed, 0, "fresh store replays nothing");

    let alice = SubjectName::new("Org", "Unit", "alice");
    let bob = SubjectName::new("Org", "Unit", "bob");
    let a = open_account(&bank, &alice);
    let b = open_account(&bank, &bob);
    deposit(&bank, a, 100);
    for key in 0..10u64 {
        let reply = bank.handle_keyed(
            &alice,
            Some(key),
            BankRequest::DirectTransfer {
                to: b,
                amount: Credits::from_gd(1),
                recipient_address: "bob.grid.org".into(),
            },
        );
        assert!(matches!(reply, BankResponse::Confirmed(_)), "{reply:?}");
    }

    // Checkpoint, then a known number of journal entries on top.
    let before_checkpoint = bank.accounts.db().journal_len();
    let stats = bank.accounts.db().checkpoint().unwrap();
    assert!(stats.bytes > 0);
    for key in 10..13u64 {
        let reply = bank.handle_keyed(
            &alice,
            Some(key),
            BankRequest::DirectTransfer {
                to: b,
                amount: Credits::from_gd(1),
                recipient_address: "bob.grid.org".into(),
            },
        );
        assert!(matches!(reply, BankResponse::Confirmed(_)), "{reply:?}");
    }
    let tail_entries = bank.accounts.db().journal_len() - before_checkpoint;
    assert!(tail_entries > 0);
    let digest = bank.accounts.db().state_digest();
    let funds = bank.total_funds();

    // Kill: drop all in-memory state; only the files survive.
    drop(bank);

    // The offline inspector and the recovery report must agree: only
    // the tail past the snapshot is replayed, not the full history.
    let inspection = store::inspect(&store.dir).unwrap();
    assert_eq!(inspection.tail_entries, tail_entries, "inspector sees the tail");

    let (rebuilt, report) = GridBank::open_durable(config(), Clock::new(), store.clone()).unwrap();
    assert_eq!(report.tail_entries_replayed, tail_entries, "tail-only replay");
    assert_eq!(report.snapshots_loaded, 1, "state restored from the snapshot");
    assert_eq!(report.torn_tails, 0);
    assert_eq!(rebuilt.accounts.db().state_digest(), digest, "identical logical state");
    assert_eq!(rebuilt.total_funds(), funds, "conservation");

    // The rebuilt bank keeps serving, and replayed dedup still holds:
    // a retried key returns the original outcome without re-applying.
    match rebuilt.handle_keyed(
        &alice,
        Some(12),
        BankRequest::DirectTransfer {
            to: b,
            amount: Credits::from_gd(1),
            recipient_address: "bob.grid.org".into(),
        },
    ) {
        BankResponse::Confirmation { .. } => {}
        other => panic!("retry not deduplicated: {other:?}"),
    }
    assert_eq!(rebuilt.total_funds(), funds, "dedup hit moved no money");
}

#[test]
fn kill_mid_snapshot_falls_back_one_generation() {
    let store = StoreConfig::scratch("mid-snapshot");
    let (bank, _) = GridBank::open_durable(config(), Clock::new(), store.clone()).unwrap();
    let alice = SubjectName::new("Org", "Unit", "alice");
    let bob = SubjectName::new("Org", "Unit", "bob");
    let a = open_account(&bank, &alice);
    let b = open_account(&bank, &bob);
    deposit(&bank, a, 50);

    // Two snapshot generations (retain_snapshots = 2 keeps both), with
    // traffic between and after them.
    bank.accounts.db().checkpoint().unwrap();
    let pay = |key: u64| {
        let reply = bank.handle_keyed(
            &alice,
            Some(key),
            BankRequest::DirectTransfer {
                to: b,
                amount: Credits::from_gd(2),
                recipient_address: "bob.grid.org".into(),
            },
        );
        assert!(matches!(reply, BankResponse::Confirmed(_)), "{reply:?}");
    };
    pay(1);
    bank.accounts.db().checkpoint().unwrap();
    pay(2);
    let digest = bank.accounts.db().state_digest();
    let funds = bank.total_funds();
    drop(bank);

    // Kill mid-snapshot: the newest generation is half-written. Corrupt
    // it and leave a stray tmp file behind.
    let sdir = store.dir.join("snapshots");
    let mut snaps: Vec<PathBuf> = std::fs::read_dir(&sdir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "gbs"))
        .collect();
    snaps.sort();
    assert_eq!(snaps.len(), 2, "both generations retained");
    let newest = snaps.pop().unwrap();
    let mut bytes = std::fs::read(&newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&newest, bytes).unwrap();
    std::fs::write(sdir.join("snap-999.gbs.tmp"), b"half-written").unwrap();

    let (rebuilt, report) = GridBank::open_durable(config(), Clock::new(), store.clone()).unwrap();
    assert_eq!(report.snapshots_skipped, 1, "corrupt generation skipped");
    assert_eq!(report.snapshots_loaded, 1, "older generation restored");
    assert_eq!(rebuilt.accounts.db().state_digest(), digest, "no state lost");
    assert_eq!(rebuilt.total_funds(), funds, "conservation");
    // Exactly-once held: both payments exist, no duplicates.
    assert_eq!(rebuilt.all_transfers().len(), 2);
    assert_eq!(balance_of(&rebuilt, b), Credits::from_gd(4));
}

#[test]
fn kill_mid_compaction_before_deletion_recovers_cleanly() {
    // Compaction writes the COMPACTED marker *before* deleting
    // segments. A crash between the two steps leaves a marker that
    // promises less than the files deliver — which is harmless, and the
    // next recovery must treat it that way.
    let store = StoreConfig::scratch("mid-compaction");
    let (bank, _) = GridBank::open_durable(config(), Clock::new(), store.clone()).unwrap();
    let alice = SubjectName::new("Org", "Unit", "alice");
    let a = open_account(&bank, &alice);
    deposit(&bank, a, 25);
    bank.accounts.db().checkpoint().unwrap();
    deposit(&bank, a, 5);
    let digest = bank.accounts.db().state_digest();
    let funds = bank.total_funds();
    drop(bank);

    // Hand-craft the crash state: a valid marker at the cut — the
    // snapshot's LSN — with every segment still there.
    let cut = store::inspect(&store.dir).unwrap().snapshot_lsn;
    assert!(cut > 0, "the checkpoint wrote a snapshot");
    write_compacted_marker(&store.dir, cut);

    let (rebuilt, report) = GridBank::open_durable(config(), Clock::new(), store.clone()).unwrap();
    assert!(report.tail_entries_replayed > 0, "post-snapshot deposit replays");
    assert_eq!(rebuilt.accounts.db().state_digest(), digest);
    assert_eq!(rebuilt.total_funds(), funds);
}

#[test]
fn compaction_marker_past_every_snapshot_fails_loudly() {
    // The converse crash shape — the journal prefix is gone (marker
    // says so) but no retained snapshot covers it — must refuse to
    // serve rather than silently lose history.
    let store = StoreConfig::scratch("marker-gap");
    let (bank, _) = GridBank::open_durable(config(), Clock::new(), store.clone()).unwrap();
    let alice = SubjectName::new("Org", "Unit", "alice");
    let a = open_account(&bank, &alice);
    deposit(&bank, a, 10);
    bank.accounts.db().checkpoint().unwrap();
    drop(bank);

    write_compacted_marker(&store.dir, u64::MAX);

    match GridBank::open_durable(config(), Clock::new(), store.clone()) {
        Err(BankError::Storage(why)) => {
            assert!(why.contains("compacted"), "unexpected message: {why}")
        }
        Ok(_) => panic!("recovery must refuse a compacted-past-snapshots store"),
        Err(other) => panic!("wrong error: {other}"),
    }
}

#[test]
fn torn_segment_tail_drops_the_whole_final_batch() {
    // Truncate the final frame of the log's newest segment — the torn
    // write a power cut leaves behind. The final commit batch (a
    // transfer) must disappear *atomically*: both sides of the transfer
    // gone, never one.
    let store = StoreConfig::scratch("torn-tail");
    let (bank, _) = GridBank::open_durable(config(), Clock::new(), store.clone()).unwrap();
    let alice = SubjectName::new("Org", "Unit", "alice");
    let bob = SubjectName::new("Org", "Unit", "bob");
    let a = open_account(&bank, &alice);
    let b = open_account(&bank, &bob);
    deposit(&bank, a, 100);
    bank.accounts.db().checkpoint().unwrap();
    let digest_before_transfer = bank.accounts.db().state_digest();
    let funds = bank.total_funds();

    let reply = bank.handle_keyed(
        &alice,
        Some(7),
        BankRequest::DirectTransfer {
            to: b,
            amount: Credits::from_gd(30),
            recipient_address: "bob.grid.org".into(),
        },
    );
    assert!(matches!(reply, BankResponse::Confirmed(_)), "{reply:?}");
    drop(bank);

    tear_log_tail(&store.dir);

    let (rebuilt, report) = GridBank::open_durable(config(), Clock::new(), store.clone()).unwrap();
    assert_eq!(report.torn_tails, 1, "the cut is a tolerated torn tail");
    // All-or-nothing: the bank is exactly at its pre-transfer state.
    assert_eq!(rebuilt.accounts.db().state_digest(), digest_before_transfer);
    assert_eq!(rebuilt.total_funds(), funds, "conservation under torn writes");
    assert_eq!(balance_of(&rebuilt, a), Credits::from_gd(100));
    assert_eq!(balance_of(&rebuilt, b), Credits::ZERO);

    // The ack never reached the client, so its retry must *apply* (the
    // dropped batch took its idempotency stamp with it) — exactly once
    // end to end.
    let reply = rebuilt.handle_keyed(
        &alice,
        Some(7),
        BankRequest::DirectTransfer {
            to: b,
            amount: Credits::from_gd(30),
            recipient_address: "bob.grid.org".into(),
        },
    );
    assert!(matches!(reply, BankResponse::Confirmed(_)), "retry re-applies: {reply:?}");
    assert_eq!(balance_of(&rebuilt, b), Credits::from_gd(30));
    drop(rebuilt);

    // Recovery repaired the torn file (cut the dead frame off), so a
    // third open replays a clean log: no torn tail, same state.
    let (again, report) = GridBank::open_durable(config(), Clock::new(), store.clone()).unwrap();
    assert_eq!(report.torn_tails, 0, "repair made recovery idempotent");
    assert_eq!(balance_of(&again, b), Credits::from_gd(30));
}

#[test]
fn torn_deposit_disappears_whole() {
    // A deposit's balance update and the §5.1 TRANSACTION RECORD that
    // evidences it are one commit batch: a write torn inside it takes
    // both — never money credited with no row to show for it.
    let store = StoreConfig::scratch("torn-deposit");
    let (bank, _) = GridBank::open_durable(config(), Clock::new(), store.clone()).unwrap();
    let a = open_account(&bank, &SubjectName::new("Org", "Unit", "alice"));
    deposit(&bank, a, 100);
    bank.accounts.db().checkpoint().unwrap();
    let digest_before_deposit = bank.accounts.db().state_digest();
    deposit(&bank, a, 5);
    drop(bank);

    tear_log_tail(&store.dir);
    let (rebuilt, _) = GridBank::open_durable(config(), Clock::new(), store).unwrap();
    assert_eq!(
        rebuilt.accounts.db().state_digest(),
        digest_before_deposit,
        "the update goes with its torn row"
    );
    assert_eq!(balance_of(&rebuilt, a), Credits::from_gd(100));
}

#[test]
fn pending_ib_credit_survives_restart_and_ships_exactly_once() {
    use gridbank_suite::bank::client::BankLink;
    use gridbank_suite::bank::federation::{direct_peer, FederationRouter};
    use gridbank_suite::net::error::NetError;

    /// A permanently dead wire: every ship attempt fails, so the credit
    /// stays in the journal-backed pending set.
    struct DeadPeer;
    impl BankLink for DeadPeer {
        fn call_keyed(
            &mut self,
            _key: Option<u64>,
            _request: &BankRequest,
        ) -> Result<BankResponse, BankError> {
            Err(BankError::Net(NetError::Disconnected))
        }
    }

    let store = StoreConfig::scratch("ib-credit");
    let branch_config =
        |branch: u16| GridBankConfig { branch, signer_height: 5, ..GridBankConfig::default() };
    let clock = Clock::new();
    let (home, _) = GridBank::open_durable(branch_config(1), clock.clone(), store.clone()).unwrap();
    let home = Arc::new(home);
    let remote = Arc::new(GridBank::new(branch_config(2), clock.clone()));
    let home_router = FederationRouter::install(&home);
    FederationRouter::install(&remote).add_peer(1, direct_peer(&home, 2));
    // The peer link for branch 2 is a dead wire: the ship attempt fails
    // and the credit stays pending.
    home_router.add_peer(2, DeadPeer);

    let alice = SubjectName::new("Org", "Unit", "alice");
    let bob = SubjectName::new("Org", "Unit", "bob");
    let a = open_account(&home, &alice);
    let bob_account = open_account(&remote, &bob);
    deposit(&home, a, 40);
    let reply = home.handle_keyed(
        &alice,
        Some(9),
        BankRequest::DirectTransfer {
            to: bob_account,
            amount: Credits::from_gd(15),
            recipient_address: "bob.grid.org".into(),
        },
    );
    assert!(matches!(reply, BankResponse::Confirmed(_)), "{reply:?}");
    assert_eq!(home.accounts.db().ib_pending_snapshot().len(), 1);
    assert_eq!(home_router.clearing_balance(2), Credits::from_gd(15));
    drop(home_router);
    drop(home);

    // Restart from disk: the pending credit must still be owed.
    let (rebuilt, _) =
        GridBank::open_durable(branch_config(1), Clock::new(), store.clone()).unwrap();
    let rebuilt = Arc::new(rebuilt);
    assert_eq!(rebuilt.accounts.db().ib_pending_snapshot().len(), 1, "pending survived the kill");
    let router = FederationRouter::install(&rebuilt);
    router.add_peer(2, direct_peer(&remote, 1));
    assert_eq!(router.ship_pending(), 1, "re-ship delivers the stranded credit");
    assert_eq!(balance_of(&remote, bob_account), Credits::from_gd(15), "credited exactly once");
    assert_eq!(router.ship_pending(), 0, "nothing left to ship");
    drop(router);
    drop(rebuilt);

    // And the ack is durable too: a second restart owes nothing.
    let (again, _) = GridBank::open_durable(branch_config(1), Clock::new(), store.clone()).unwrap();
    assert!(again.accounts.db().ib_pending_snapshot().is_empty());
    assert_eq!(balance_of(&remote, bob_account), Credits::from_gd(15));
}

#[test]
fn incremental_checkpoints_bound_the_tail_under_live_traffic() {
    // With a small `snapshot_every`, the server's own post-dispatch
    // checkpointing keeps the replay tail and the log bounded without
    // any explicit checkpoint call (docs/STORAGE.md §4 "Bounds").
    const EVERY: u64 = 8;
    const RETAIN: u64 = 2;
    /// The largest batch here: a keyed transfer's two updates, two
    /// TRANSACTION rows, its TRANSFER row and its stamp.
    const BATCH: u64 = 6;
    let scratch = StoreConfig::scratch("incremental");
    let store = StoreConfig {
        snapshot_every: EVERY,
        retain_snapshots: RETAIN as usize,
        segment_bytes: 4096, // force rotation too
        ..scratch.clone()
    };
    // signer_height 9 = 512 one-time signatures, enough for 200 signed
    // transfer confirmations.
    let wide = GridBankConfig { signer_height: 9, ..GridBankConfig::default() };
    let (bank, _) = GridBank::open_durable(wide, Clock::new(), store).unwrap();
    let alice = SubjectName::new("Org", "Unit", "alice");
    let bob = SubjectName::new("Org", "Unit", "bob");
    let a = open_account(&bank, &alice);
    let b = open_account(&bank, &bob);
    deposit(&bank, a, 1_000);
    for key in 0..200u64 {
        let reply = bank.handle_keyed(
            &alice,
            Some(key),
            BankRequest::DirectTransfer {
                to: b,
                amount: Credits::from_gd(1),
                recipient_address: "bob.grid.org".into(),
            },
        );
        assert!(matches!(reply, BankResponse::Confirmed(_)), "{reply:?}");
    }
    let total_entries = bank.accounts.db().journal_len() as u64;
    let digest = bank.accounts.db().state_digest();
    drop(bank);

    // The log keeps what the oldest retained snapshot does not cover —
    // `retain_snapshots` checkpoint intervals — and the one segment that
    // holds the cut: everything older is gone.
    let inspection = store::inspect(&scratch.dir).unwrap();
    let cut = inspection.compacted_through;
    assert!(cut > 0, "the cut never left LSN 0");
    assert!(
        total_entries - cut <= RETAIN * (EVERY + BATCH),
        "{} entries kept behind the head of a {total_entries}-entry log",
        total_entries - cut
    );
    let first_lsn = |segment: &PathBuf| {
        let header = std::fs::read(segment).unwrap();
        u64::from_be_bytes(header[8..16].try_into().unwrap())
    };
    let segs = segments(&scratch.dir);
    assert!(first_lsn(&segs[0]) > 1, "the log's first segment was never dropped");
    assert!(segs.get(1).is_none_or(|next| first_lsn(next) > cut + 1), "a covered segment is kept");

    let (rebuilt, report) = GridBank::open_durable(config(), Clock::new(), scratch).unwrap();
    assert_eq!(report.snapshots_loaded, 1, "the server checkpointed on its own");
    assert!(
        (report.tail_entries_replayed as u64) < EVERY + BATCH,
        "replay is bounded by the tail, not the {total_entries}-entry history \
         (replayed {})",
        report.tail_entries_replayed
    );
    assert_eq!(rebuilt.accounts.db().state_digest(), digest);
}

/// ISSUE acceptance: restart-to-serving bounded by tail length at one
/// million accounts. Ignored in the default run (it builds a seven-digit
/// account table); run manually in release:
///
/// ```text
/// cargo test --release --test storage_recovery -- --ignored --nocapture
/// ```
///
/// Results are recorded in EXPERIMENTS.md §E19.
#[test]
#[ignore = "millions of accounts; run in release for EXPERIMENTS.md E19"]
fn bounded_recovery_at_one_million_accounts() {
    use gridbank_suite::bank::db::{AccountId, AccountRecord, Database};

    let store = StoreConfig::scratch("million");
    const ACCOUNTS: u32 = 1_000_000;
    const TAIL: u32 = 2_000;

    let (db, _) = Database::open(1, 1, store.clone()).unwrap();
    let populate_started = std::time::Instant::now();
    for n in 1..=ACCOUNTS {
        db.insert_account(AccountRecord {
            id: AccountId::new(1, 1, n),
            certificate_name: format!("/CN=holder-{n}"),
            organization: None,
            available: Credits::from_gd(10),
            locked: Credits::ZERO,
            currency: "GridDollar".into(),
            credit_limit: Credits::ZERO,
        })
        .unwrap();
    }
    println!("populate: {} accounts in {:?}", ACCOUNTS, populate_started.elapsed());
    let snap_started = std::time::Instant::now();
    let stats = db.checkpoint().unwrap();
    println!("checkpoint: {} MiB in {:?}", stats.bytes / (1024 * 1024), snap_started.elapsed());
    // A bounded tail on top of the snapshot.
    for n in 1..=TAIL {
        db.insert_account(AccountRecord {
            id: AccountId::new(1, 1, ACCOUNTS + n),
            certificate_name: format!("/CN=tail-{n}"),
            organization: None,
            available: Credits::from_gd(1),
            locked: Credits::ZERO,
            currency: "GridDollar".into(),
            credit_limit: Credits::ZERO,
        })
        .unwrap();
    }
    let funds = db.total_funds();
    drop(db);

    let (rebuilt, report) = Database::open(1, 1, store.clone()).unwrap();
    println!(
        "recovery: {} accounts, {} tail entries replayed, {} segments, {} ms",
        report.accounts, report.tail_entries_replayed, report.segments_scanned, report.elapsed_ms
    );
    assert_eq!(report.accounts, (ACCOUNTS + TAIL) as usize);
    assert_eq!(report.tail_entries_replayed, TAIL as usize, "tail-only, even at 1M accounts");
    assert_eq!(rebuilt.total_funds(), funds);
    let _ = std::fs::remove_dir_all(&store.dir);
}

#[test]
fn staggered_snapshots_keep_the_newest_idempotency_keys() {
    // A snapshot lands in the middle of a stream of stamps and cache
    // evictions are never journaled, so recovery must order the
    // snapshot's stamps and the tail's by when they were recorded and
    // keep the newest `idem_capacity` — or stale stamps from the
    // snapshot push out recent ones from the tail and a retry charges
    // twice.
    let store = StoreConfig::scratch("idem-staggered");
    let config = || GridBankConfig { signer_height: 7, idem_capacity: 8, ..config() };
    let (bank, _) = GridBank::open_durable(config(), Clock::new(), store.clone()).unwrap();

    let payee = open_account(&bank, &SubjectName::new("Org", "Unit", "payee"));
    let payers: Vec<SubjectName> =
        (0..6).map(|i| SubjectName::new("Org", "Unit", &format!("payer-{i}"))).collect();
    for payer in &payers {
        deposit(&bank, open_account(&bank, payer), 100);
    }
    // Key k (1..=36) belongs to payer (k - 1) % 6, round (k - 1) / 6.
    let pay = |bank: &GridBank, key: u64| {
        let reply = bank.handle_keyed(
            &payers[(key as usize - 1) % 6],
            Some(key),
            BankRequest::DirectTransfer {
                to: payee,
                amount: Credits::from_gd(1),
                recipient_address: "payee.grid.org".into(),
            },
        );
        // A key remembered across a restart answers with the journaled
        // placeholder instead of the signed confirmation.
        let done = matches!(reply, BankResponse::Confirmed(_) | BankResponse::Confirmation { .. });
        assert!(done, "key {key}: {reply:?}");
    };
    let db = bank.accounts.db();
    for key in 1..=36u64 {
        pay(&bank, key);
        if key == 12 {
            // Holds the eight newest of twelve stamps; 24 more follow.
            db.snapshot_all().unwrap();
        }
    }

    // The live bank remembers the newest eight keys.
    (29..=36u64).for_each(|key| pay(&bank, key));
    assert_eq!(balance_of(&bank, payee), Credits::from_gd(36));
    let digest = db.state_digest();
    drop(bank);

    let (reopened, _) = GridBank::open_durable(config(), Clock::new(), store.clone()).unwrap();
    assert_eq!(reopened.accounts.db().state_digest(), digest, "same stamps remembered");
    (29..=36u64).for_each(|key| pay(&reopened, key));
    assert_eq!(balance_of(&reopened, payee), Credits::from_gd(36), "a remembered key re-applied");
}

#[test]
fn a_commit_is_one_frame_in_one_file() {
    use gridbank_suite::bank::db::JournalEntry;

    let store = StoreConfig::scratch("one-frame");
    let (bank, _) = GridBank::open_durable(config(), Clock::new(), store.clone()).unwrap();
    let alice = SubjectName::new("Org", "Unit", "alice");
    let a = open_account(&bank, &alice);
    let b = open_account(&bank, &SubjectName::new("Org", "Unit", "bob"));
    deposit(&bank, a, 100);
    let before = bank.accounts.db().journal_len() as u64;
    let reply = bank.handle_keyed(
        &alice,
        Some(1),
        BankRequest::DirectTransfer {
            to: b,
            amount: Credits::from_gd(1),
            recipient_address: "bob.grid.org".into(),
        },
    );
    assert!(matches!(reply, BankResponse::Confirmed(_)), "{reply:?}");
    drop(bank);

    // Every commit so far is in the one segment of the one log, and the
    // store is nothing but its manifest, that log and the (still empty)
    // snapshot directory.
    assert_eq!(segments(&store.dir).len(), 1);
    let mut names: Vec<_> =
        std::fs::read_dir(&store.dir).unwrap().map(|e| e.unwrap().file_name()).collect();
    names.sort();
    assert_eq!(names, ["MANIFEST", "log", "snapshots"]);
    assert_eq!(std::fs::read_dir(store.dir.join("snapshots")).unwrap().count(), 0);
    let tail = store::open_store(1, 1, store.clone()).unwrap().0.tail;

    // The transfer's batch reads back whole, in commit order, on
    // consecutive LSNs.
    let batch: Vec<_> = tail.iter().filter(|(lsn, _)| *lsn > before).collect();
    let lsns: Vec<u64> = batch.iter().map(|(lsn, _)| *lsn).collect();
    assert_eq!(lsns, (before + 1..=before + 6).collect::<Vec<_>>());
    assert!(matches!(&batch[0].1, JournalEntry::Update(r) if r.id == a));
    assert!(matches!(&batch[1].1, JournalEntry::Update(r) if r.id == b));
    assert!(matches!(batch[2].1, JournalEntry::Transaction(_)));
    assert!(matches!(batch[3].1, JournalEntry::Transaction(_)));
    assert!(matches!(batch[4].1, JournalEntry::Transfer(_)));
    assert!(matches!(batch[5].1, JournalEntry::Idem { key: 1, .. }));
}

#[test]
fn a_flipped_byte_before_the_final_segment_is_fatal() {
    // A bad frame in the final segment is a torn tail; the same damage
    // with a later segment behind it is lost history — acknowledged
    // batches followed it — and recovery must say so, not cut it off.
    let store = StoreConfig::scratch("mid-log");
    let (bank, _) = GridBank::open_durable(config(), Clock::new(), store.clone()).unwrap();
    let a = open_account(&bank, &SubjectName::new("Org", "Unit", "alice"));
    deposit(&bank, a, 10);
    bank.accounts.db().checkpoint().unwrap(); // closes the first segment
    deposit(&bank, a, 5);
    drop(bank);

    let segs = segments(&store.dir);
    assert_eq!(segs.len(), 2);
    let mut bytes = std::fs::read(&segs[0]).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&segs[0], bytes).unwrap();

    match GridBank::open_durable(config(), Clock::new(), store.clone()) {
        Err(BankError::Storage(why)) => {
            assert!(why.contains("mid-log corruption"), "unexpected message: {why}")
        }
        Ok(_) => panic!("recovery must refuse a log damaged before its final segment"),
        Err(other) => panic!("wrong error: {other}"),
    }
}

#[test]
fn a_version_3_store_is_refused() {
    // FORMAT_VERSION 3 kept sixteen snapshot directories and recorded
    // the shard count in its manifest; there is no reader for it, and a
    // store is not migratable by accident.
    let store = StoreConfig::scratch("v3-manifest");
    std::fs::create_dir_all(&store.dir).unwrap();
    let mut manifest = Vec::new();
    for word in [0x4742_4D46u32, 3, 1, 1, 16] {
        manifest.extend_from_slice(&word.to_be_bytes()); // "GBMF", version, bank, branch, shards
    }
    let check = store::fnv64(&manifest);
    manifest.extend_from_slice(&check.to_le_bytes());
    std::fs::write(store.dir.join("MANIFEST"), manifest).unwrap();

    match GridBank::open_durable(config(), Clock::new(), store) {
        Err(BankError::Storage(why)) => {
            assert!(why.contains("unsupported store version 3"), "unexpected message: {why}")
        }
        Ok(_) => panic!("a version-3 store must be refused"),
        Err(other) => panic!("wrong error: {other}"),
    }
}

#[test]
fn a_version_4_store_is_refused() {
    // FORMAT_VERSION 4 remembered a transfer confirmation under a
    // signature of its own; a version-5 stamp carries its receipt batch's
    // proof beside the signature, and no reader decodes the old one.
    let store = StoreConfig::scratch("v4-manifest");
    std::fs::create_dir_all(&store.dir).unwrap();
    let mut manifest = Vec::new();
    for word in [0x4742_4D46u32, 4, 1, 1] {
        manifest.extend_from_slice(&word.to_be_bytes()); // "GBMF", version, bank, branch
    }
    let check = store::fnv64(&manifest);
    manifest.extend_from_slice(&check.to_le_bytes());
    std::fs::write(store.dir.join("MANIFEST"), manifest).unwrap();

    match GridBank::open_durable(config(), Clock::new(), store) {
        Err(BankError::Storage(why)) => {
            assert!(why.contains("unsupported store version 4"), "unexpected message: {why}")
        }
        Ok(_) => panic!("a version-4 store must be refused"),
        Err(other) => panic!("wrong error: {other}"),
    }
}

/// PR 11's open finding (ROADMAP item 1): about once in 200–500
/// kill/reopen cycles the reopened `state_digest()` differed from the
/// pre-kill one. Each cycle here races two cheque-paying threads against
/// the server's own checkpoints, kills the bank and compares the tables
/// the digest folds, so a mismatch names the table. Counts at the parent
/// commit and at this one are in EXPERIMENTS.md §E24.
///
/// ```text
/// cargo test --release --test storage_recovery -- --ignored kill_reopen_soak --nocapture
/// ```
#[test]
#[ignore = "minutes; EXPERIMENTS.md E24"]
fn kill_reopen_soak_keeps_the_digest() {
    use gridbank_suite::bank::db::Database;
    use gridbank_suite::rur::record::{ChargeableItem, RurBuilder, UsageAmount};
    use gridbank_suite::rur::units::Duration;

    const CYCLES: usize = 2_000;
    const PAYMENTS: u64 = 20;

    /// The tables `state_digest()` folds, each sorted, as comparable text.
    fn tables(db: &Database, stamps: &[(String, u64)]) -> [(&'static str, Vec<String>); 5] {
        let accounts = db.all_accounts();
        let mut rows: Vec<String> = accounts
            .iter()
            .flat_map(|r| db.transactions_in_range(&r.id, 0, u64::MAX))
            .map(|t| format!("{t:?}"))
            .collect();
        rows.sort();
        let mut transfers: Vec<String> =
            db.all_transfers().iter().map(|t| format!("{t:?}")).collect();
        transfers.sort();
        [
            ("accounts", accounts.iter().map(|r| format!("{r:?}")).collect()),
            ("TRANSACTION rows", rows),
            ("TRANSFER rows", transfers),
            (
                "pending credits",
                db.ib_pending_snapshot().iter().map(|p| format!("{p:?}")).collect(),
            ),
            (
                "idempotency keys",
                stamps
                    .iter()
                    .filter(|(cert, key)| db.idem_lookup(cert, *key).is_some())
                    .map(|(cert, key)| format!("{cert} {key}"))
                    .collect(),
            ),
        ]
    }

    let mut mismatches = Vec::new();
    for cycle in 0..CYCLES {
        let store = StoreConfig { snapshot_every: 8, ..StoreConfig::scratch("soak") };
        // 80 cheque and redemption signatures a cycle.
        let small = GridBankConfig { signer_height: 7, ..GridBankConfig::default() };
        let (bank, _) = GridBank::open_durable(small, Clock::new(), store.clone()).unwrap();
        let parties: Vec<(SubjectName, SubjectName)> = (0..2)
            .map(|t| {
                let payer = SubjectName::new("Org", "Unit", &format!("payer-{t}"));
                let payee = SubjectName::new("Org", "Unit", &format!("payee-{t}"));
                deposit(&bank, open_account(&bank, &payer), 1_000);
                open_account(&bank, &payee);
                (payer, payee)
            })
            .collect();
        std::thread::scope(|s| {
            for (t, (payer, payee)) in parties.iter().enumerate() {
                let bank = &bank;
                s.spawn(move || {
                    for i in 0..PAYMENTS {
                        let key = (t as u64) * 1_000 + 2 * i;
                        let reply = bank.handle_keyed(
                            payer,
                            Some(key),
                            BankRequest::RequestCheque {
                                payee_cert: payee.0.clone(),
                                amount: Credits::from_gd(2),
                                validity_ms: 100_000,
                            },
                        );
                        let BankResponse::Cheque(cheque) = reply else { panic!("{reply:?}") };
                        let rur = RurBuilder::default()
                            .user("host", &payer.0)
                            .job("job", "app", 0, 3_600_000)
                            .resource("resource", &payee.0, None, 1)
                            .line(
                                ChargeableItem::Cpu,
                                UsageAmount::Time(Duration::from_hours(1)),
                                Credits::from_gd(1),
                            )
                            .build()
                            .unwrap();
                        let reply = bank.handle_keyed(
                            payee,
                            Some(key + 1),
                            BankRequest::RedeemCheque { cheque, rur },
                        );
                        assert!(matches!(reply, BankResponse::Redeemed { .. }), "{reply:?}");
                    }
                });
            }
        });
        let stamps: Vec<(String, u64)> = parties
            .iter()
            .enumerate()
            .flat_map(|(t, (payer, payee))| {
                (0..PAYMENTS).flat_map(move |i| {
                    let key = (t as u64) * 1_000 + 2 * i;
                    [(payer.0.clone(), key), (payee.0.clone(), key + 1)]
                })
            })
            .collect();
        let db = bank.accounts.db();
        let (digest, before) = (db.state_digest(), tables(db, &stamps));
        drop(bank);

        let (reopened, _) = Database::open(1, 1, store.clone()).unwrap();
        if reopened.state_digest() != digest {
            let after = tables(&reopened, &stamps);
            let differing: Vec<&str> =
                before.iter().zip(&after).filter(|(b, a)| b != a).map(|(b, _)| b.0).collect();
            println!("cycle {cycle}: digest differs in {differing:?}");
            mismatches.push((cycle, differing));
        }
        drop(reopened);
        let _ = std::fs::remove_dir_all(&store.dir);
    }
    println!("{} of {CYCLES} kill/reopen cycles changed the digest", mismatches.len());
    assert!(mismatches.is_empty(), "{mismatches:?}");
}
