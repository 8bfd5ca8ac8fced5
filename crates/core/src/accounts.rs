//! GB Accounts — the core module interacting with the GB database.
//!
//! §3.2: "It provides functions for basic account operations such as
//! creation of accounts, requesting and updating account details, transfer
//! of funds from one account to another, locking funds and transfer from
//! locked funds. This module is independent of payment scheme, protocols
//! used and underlying security model."

use std::sync::Arc;

use gridbank_rur::Credits;

use crate::clock::Clock;
pub use crate::db::Statement;
use crate::db::{
    AccountId, AccountRecord, CommitRows, Database, IdemStamp, PendingIbCredit, TransactionRecord,
    TransactionType, TransferRecord,
};
use crate::error::BankError;

/// Idempotency instructions for a keyed transfer. The dedup stamp is
/// journaled atomically with the transfer; since the transaction id is
/// allocated inside the transfer, the recorded response is produced by
/// `response_of(txid)` (a capture-free fn keeps this layer protocol-
/// independent — the caller decides the response encoding).
#[derive(Clone)]
pub struct IdemKey {
    /// Certificate name of the caller.
    pub cert: String,
    /// Client-generated idempotency key.
    pub key: u64,
    /// Builds the encoded response to remember, from the transaction id.
    pub response_of: fn(u64) -> Vec<u8>,
}

impl IdemKey {
    fn stamp(self, txid: u64) -> IdemStamp {
        IdemStamp { cert: self.cert, key: self.key, response: (self.response_of)(txid) }
    }
}

/// The accounts layer.
#[derive(Clone)]
pub struct GbAccounts {
    db: Arc<Database>,
    clock: Clock,
}

impl GbAccounts {
    /// Wraps a database and clock.
    pub fn new(db: Arc<Database>, clock: Clock) -> Self {
        GbAccounts { db, clock }
    }

    /// Access to the underlying database (bank-internal modules).
    pub fn db(&self) -> &Arc<Database> {
        &self.db
    }

    /// The shared clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Creates an account for a certificate name; zero balances, zero
    /// credit limit (§5.1 default), GridDollar currency.
    pub fn create_account(
        &self,
        certificate_name: &str,
        organization: Option<String>,
    ) -> Result<AccountId, BankError> {
        if certificate_name.is_empty() {
            return Err(BankError::Protocol("empty certificate name".into()));
        }
        let record = AccountRecord {
            id: self.db.allocate_account_id(),
            certificate_name: certificate_name.to_string(),
            organization,
            available: Credits::ZERO,
            locked: Credits::ZERO,
            currency: "GridDollar".into(),
            credit_limit: Credits::ZERO,
        };
        let id = record.id;
        self.db.insert_account(record)?;
        Ok(id)
    }

    /// Request Account Details / Check Balance (§5.2).
    pub fn account_details(&self, id: &AccountId) -> Result<AccountRecord, BankError> {
        self.db.get_account(id)
    }

    /// Details by certificate name.
    pub fn account_by_cert(&self, cert: &str) -> Result<AccountRecord, BankError> {
        self.db.account_by_cert(cert)
    }

    /// Update Account Details (§5.2): "Only CertificateName and
    /// OrganizationName can be modified." Balances, currency, limits and
    /// the id in the submitted record are ignored.
    pub fn update_details(&self, submitted: &AccountRecord) -> Result<(), BankError> {
        self.db.rename_account(
            &submitted.id,
            &submitted.certificate_name,
            submitted.organization.clone(),
        )
    }

    /// Request Account Statement (§5.2).
    pub fn statement(
        &self,
        id: &AccountId,
        start_ms: u64,
        end_ms: u64,
    ) -> Result<Statement, BankError> {
        self.db.statement(id, start_ms, end_ms)
    }

    /// Transfers `amount` from `from` to `to`, recording the paired
    /// transaction rows and a transfer row carrying `rur_blob` as
    /// evidence. The drawer may go negative up to its credit limit.
    pub fn transfer(
        &self,
        from: &AccountId,
        to: &AccountId,
        amount: Credits,
        rur_blob: Vec<u8>,
    ) -> Result<u64, BankError> {
        self.transfer_keyed(from, to, amount, rur_blob, None)
    }

    /// [`GbAccounts::transfer`] with an optional idempotency stamp that
    /// commits atomically with the balance updates and audit rows — the
    /// exactly-once building block for retried `DirectTransfer`s.
    pub fn transfer_keyed(
        &self,
        from: &AccountId,
        to: &AccountId,
        amount: Credits,
        rur_blob: Vec<u8>,
        idem: Option<IdemKey>,
    ) -> Result<u64, BankError> {
        self.transfer_inner(from, to, amount, rur_blob, idem, None)
    }

    /// The first leg of a cross-branch payment (§6): debits `from` into
    /// the local `clearing` account and records the pending [`IbCredit`]
    /// for the remote payee in the *same* commit — funds parked and the
    /// obligation to ship them are journaled together, so a crash either
    /// sees both (recovery re-ships the credit) or neither.
    ///
    /// [`IbCredit`]: crate::api::BankRequest::IbCredit
    pub fn transfer_with_ib_credit(
        &self,
        from: &AccountId,
        clearing: &AccountId,
        amount: Credits,
        rur_blob: Vec<u8>,
        idem: Option<IdemKey>,
        credit: PendingIbCredit,
    ) -> Result<u64, BankError> {
        self.transfer_inner(from, clearing, amount, rur_blob, idem, Some(credit))
    }

    fn transfer_inner(
        &self,
        from: &AccountId,
        to: &AccountId,
        amount: Credits,
        rur_blob: Vec<u8>,
        idem: Option<IdemKey>,
        ib_out: Option<PendingIbCredit>,
    ) -> Result<u64, BankError> {
        if !amount.is_positive() {
            return Err(BankError::NonPositiveAmount);
        }
        let (txid, mut rows) = self.transfer_rows(from, to, amount, rur_blob, idem);
        rows.ib_out = ib_out;
        self.db.two_account_commit(
            from,
            to,
            |a, b| {
                // §5.1 gives every account a Currency; a single branch
                // clears only like-for-like (FX is a §6 inter-bank
                // concern).
                if a.currency != b.currency {
                    return Err(BankError::Protocol(format!(
                        "currency mismatch: {} pays in {}, {} holds {}",
                        a.id, a.currency, b.id, b.currency
                    )));
                }
                let new_avail = a.available.checked_sub(amount)?;
                if new_avail < a.credit_limit.negated() {
                    return Err(BankError::InsufficientFunds {
                        account: a.id,
                        needed: amount,
                        spendable: a.spendable(),
                    });
                }
                a.available = new_avail;
                b.available = b.available.checked_add(amount)?;
                Ok(())
            },
            rows,
        )?;
        self.note_transfer(amount);
        Ok(txid)
    }

    /// Perform Funds Availability Check (§5.2): "the amount is transferred
    /// into locked balance for guarantee". Moves available → locked.
    pub fn lock_funds(&self, id: &AccountId, amount: Credits) -> Result<(), BankError> {
        if !amount.is_positive() {
            return Err(BankError::NonPositiveAmount);
        }
        self.db.with_account_mut(id, |r| {
            let new_avail = r.available.checked_sub(amount)?;
            if new_avail < r.credit_limit.negated() {
                return Err(BankError::InsufficientFunds {
                    account: r.id,
                    needed: amount,
                    spendable: r.spendable(),
                });
            }
            r.available = new_avail;
            r.locked = r.locked.checked_add(amount)?;
            Ok(())
        })?;
        gridbank_obs::count("core.lock_funds.count", 1);
        gridbank_obs::observe("core.lock_funds.volume_micro", amount.metric_micro());
        Ok(())
    }

    /// Releases locked funds back to available (instrument expired or
    /// under-used).
    pub fn unlock_funds(&self, id: &AccountId, amount: Credits) -> Result<(), BankError> {
        if !amount.is_positive() {
            return Err(BankError::NonPositiveAmount);
        }
        self.db.with_account_mut(id, |r| {
            if r.locked < amount {
                return Err(BankError::InsufficientLockedFunds {
                    account: r.id,
                    needed: amount,
                    locked: r.locked,
                });
            }
            r.locked = r.locked.checked_sub(amount)?;
            r.available = r.available.checked_add(amount)?;
            Ok(())
        })
    }

    /// Settles a guaranteed instrument (§3.2, §3.4) in one commit: pays
    /// `pay` out of `from`'s locked funds to `to`, with the transfer's
    /// rows, and returns `release` of them to `from`'s available balance.
    /// One journal frame holds both, so no crash or refusal can separate
    /// the payout from the release: a refused settlement moves nothing.
    pub fn settle_locked(
        &self,
        from: &AccountId,
        to: &AccountId,
        pay: Credits,
        release: Credits,
        rur_blob: Vec<u8>,
    ) -> Result<(), BankError> {
        if !pay.is_positive() || release.is_negative() {
            return Err(BankError::NonPositiveAmount);
        }
        let (_, rows) = self.transfer_rows(from, to, pay, rur_blob, None);
        self.db.two_account_commit(
            from,
            to,
            |a, b| {
                let claimed = pay.checked_add(release)?;
                if a.locked < claimed {
                    return Err(BankError::InsufficientLockedFunds {
                        account: a.id,
                        needed: claimed,
                        locked: a.locked,
                    });
                }
                a.locked = a.locked.checked_sub(claimed)?;
                a.available = a.available.checked_add(release)?;
                b.available = b.available.checked_add(pay)?;
                Ok(())
            },
            rows,
        )?;
        self.note_transfer(pay);
        Ok(())
    }

    /// Builds the audit rows for a transfer so they can be committed in
    /// the same critical section as the balance mutation.
    fn transfer_rows(
        &self,
        from: &AccountId,
        to: &AccountId,
        amount: Credits,
        rur_blob: Vec<u8>,
        idem: Option<IdemKey>,
    ) -> (u64, CommitRows) {
        let txid = self.db.allocate_transaction_id();
        let now = self.clock.now_ms();
        let transactions = vec![
            TransactionRecord {
                transaction_id: txid,
                account: *from,
                tx_type: TransactionType::Transfer,
                date_ms: now,
                amount: amount.negated(),
            },
            TransactionRecord {
                transaction_id: txid,
                account: *to,
                tx_type: TransactionType::Transfer,
                date_ms: now,
                amount,
            },
        ];
        let transfer = TransferRecord {
            transaction_id: txid,
            date_ms: now,
            drawer: *from,
            amount,
            recipient: *to,
            rur_blob,
            // Correlates this audit row with the active span trace
            // (0 = no trace was active).
            trace_id: gridbank_obs::current_trace_id(),
        };
        let rows = CommitRows::transfer(transactions, transfer, idem.map(|k| k.stamp(txid)));
        (txid, rows)
    }

    fn note_transfer(&self, amount: Credits) {
        gridbank_obs::count("core.transfer.count", 1);
        gridbank_obs::observe("core.transfer.volume_micro", amount.metric_micro());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn setup() -> (GbAccounts, AccountId, AccountId) {
        let db = Arc::new(Database::new(1, 1));
        let acc = GbAccounts::new(db.clone(), Clock::new());
        let a = acc.create_account("/CN=alice", Some("UWA".into())).unwrap();
        let b = acc.create_account("/CN=gsp", None).unwrap();
        db.with_account_mut(&a, |r| {
            r.available = Credits::from_gd(100);
            Ok(())
        })
        .unwrap();
        (acc, a, b)
    }

    #[test]
    fn create_and_lookup() {
        let (acc, a, _) = setup();
        let r = acc.account_details(&a).unwrap();
        assert_eq!(r.certificate_name, "/CN=alice");
        assert_eq!(r.currency, "GridDollar");
        assert_eq!(r.credit_limit, Credits::ZERO);
        assert_eq!(acc.account_by_cert("/CN=alice").unwrap().id, a);
        assert!(matches!(acc.account_by_cert("/CN=nobody"), Err(BankError::UnknownSubject(_))));
        assert!(acc.create_account("", None).is_err());
        assert!(matches!(
            acc.create_account("/CN=alice", None),
            Err(BankError::DuplicateAccount(_))
        ));
    }

    #[test]
    fn transfer_moves_funds_and_records() {
        let (acc, a, b) = setup();
        acc.clock().advance(500);
        let txid = acc.transfer(&a, &b, Credits::from_gd(30), vec![9, 9]).unwrap();
        assert_eq!(acc.account_details(&a).unwrap().available, Credits::from_gd(70));
        assert_eq!(acc.account_details(&b).unwrap().available, Credits::from_gd(30));
        let st = acc.statement(&a, 0, 1_000).unwrap();
        assert_eq!(st.transactions.len(), 1);
        assert_eq!(st.transactions[0].amount, Credits::from_gd(-30));
        assert_eq!(st.transactions[0].tx_type, TransactionType::Transfer);
        assert_eq!(st.transfers.len(), 1);
        assert_eq!(st.transfers[0].transaction_id, txid);
        assert_eq!(st.transfers[0].rur_blob, vec![9, 9]);
        // Recipient sees the positive leg.
        let st_b = acc.statement(&b, 0, 1_000).unwrap();
        assert_eq!(st_b.transactions[0].amount, Credits::from_gd(30));
    }

    #[test]
    fn a_statement_is_one_cut_of_balance_and_rows() {
        // Alice opens with G$100 that no row explains; every later
        // change to her balance commits together with its row, so a
        // statement taken in one cut always adds up.
        use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
        let (acc, a, b) = setup();
        let (start, done) = (std::sync::Barrier::new(2), AtomicBool::new(false));
        std::thread::scope(|s| {
            s.spawn(|| {
                start.wait();
                for i in 0..4_000 {
                    let (from, to) = if i % 2 == 0 { (&a, &b) } else { (&b, &a) };
                    acc.transfer(from, to, Credits::from_gd(1), vec![]).unwrap();
                }
                done.store(true, SeqCst);
            });
            s.spawn(|| {
                start.wait();
                while !done.load(SeqCst) {
                    let st = acc.statement(&a, 0, u64::MAX).unwrap();
                    let posted = (st.transactions.iter())
                        .fold(Credits::from_gd(100), |sum, t| sum.saturating_add(t.amount));
                    assert_eq!(posted, st.account.available, "a balance without its rows");
                    assert_eq!(st.transfers.len(), st.transactions.len());
                }
            });
        });
    }

    #[test]
    fn overdraft_respects_credit_limit() {
        let (acc, a, b) = setup();
        assert!(matches!(
            acc.transfer(&a, &b, Credits::from_gd(101), vec![]),
            Err(BankError::InsufficientFunds { .. })
        ));
        // Grant credit; now the same transfer passes and goes negative.
        acc.db()
            .with_account_mut(&a, |r| {
                r.credit_limit = Credits::from_gd(10);
                Ok(())
            })
            .unwrap();
        acc.transfer(&a, &b, Credits::from_gd(105), vec![]).unwrap();
        assert_eq!(acc.account_details(&a).unwrap().available, Credits::from_gd(-5));
        // But not beyond the limit.
        assert!(acc.transfer(&a, &b, Credits::from_gd(6), vec![]).is_err());
    }

    #[test]
    fn non_positive_amounts_rejected_everywhere() {
        let (acc, a, b) = setup();
        for amt in [Credits::ZERO, Credits::from_gd(-1)] {
            assert!(matches!(acc.transfer(&a, &b, amt, vec![]), Err(BankError::NonPositiveAmount)));
            assert!(matches!(acc.lock_funds(&a, amt), Err(BankError::NonPositiveAmount)));
            assert!(matches!(acc.unlock_funds(&a, amt), Err(BankError::NonPositiveAmount)));
            assert!(matches!(
                acc.settle_locked(&a, &b, amt, Credits::ZERO, vec![]),
                Err(BankError::NonPositiveAmount)
            ));
        }
        acc.lock_funds(&a, Credits::from_gd(5)).unwrap();
        assert!(matches!(
            acc.settle_locked(&a, &b, Credits::from_gd(1), Credits::from_gd(-1), vec![]),
            Err(BankError::NonPositiveAmount)
        ));
    }

    #[test]
    fn lock_transfer_unlock_cycle() {
        let (acc, a, b) = setup();
        acc.lock_funds(&a, Credits::from_gd(40)).unwrap();
        let r = acc.account_details(&a).unwrap();
        assert_eq!(r.available, Credits::from_gd(60));
        assert_eq!(r.locked, Credits::from_gd(40));

        // Locked funds can't be locked again beyond available.
        assert!(acc.lock_funds(&a, Credits::from_gd(61)).is_err());

        // Claiming more than the lock holds moves nothing.
        assert!(matches!(
            acc.settle_locked(&a, &b, Credits::from_gd(25), Credits::from_gd(16), vec![]),
            Err(BankError::InsufficientLockedFunds { .. })
        ));
        assert_eq!(acc.account_details(&a).unwrap(), r);

        // Pay 25 from the lock and release the other 15, in one commit.
        let entries = acc.db().journal_len();
        acc.settle_locked(&a, &b, Credits::from_gd(25), Credits::from_gd(15), vec![]).unwrap();
        assert_eq!(acc.db().journal_len(), entries + 5, "two updates, two legs, one transfer");
        let r = acc.account_details(&a).unwrap();
        assert_eq!(r.available, Credits::from_gd(75));
        assert_eq!(r.locked, Credits::ZERO);
        assert_eq!(acc.account_details(&b).unwrap().available, Credits::from_gd(25));

        // Over-claiming the lock fails.
        assert!(matches!(
            acc.settle_locked(&a, &b, Credits::from_gd(1), Credits::ZERO, vec![]),
            Err(BankError::InsufficientLockedFunds { .. })
        ));
        assert!(acc.unlock_funds(&a, Credits::from_gd(1)).is_err());
    }

    #[test]
    fn update_details_only_touches_allowed_fields() {
        let (acc, a, _) = setup();
        let mut submitted = acc.account_details(&a).unwrap();
        submitted.organization = Some("UniMelb".into());
        submitted.available = Credits::from_gd(999_999); // must be ignored
        submitted.credit_limit = Credits::from_gd(999_999); // ignored
        acc.update_details(&submitted).unwrap();
        let r = acc.account_details(&a).unwrap();
        assert_eq!(r.organization.as_deref(), Some("UniMelb"));
        assert_eq!(r.available, Credits::from_gd(100));
        assert_eq!(r.credit_limit, Credits::ZERO);
    }

    #[test]
    fn cert_rename_updates_index() {
        let (acc, a, _) = setup();
        let mut submitted = acc.account_details(&a).unwrap();
        submitted.certificate_name = "/CN=alice-renamed".into();
        acc.update_details(&submitted).unwrap();
        assert!(acc.account_by_cert("/CN=alice").is_err());
        assert_eq!(acc.account_by_cert("/CN=alice-renamed").unwrap().id, a);
        // Renaming onto an existing subject is refused.
        let mut clash = acc.account_details(&a).unwrap();
        clash.certificate_name = "/CN=gsp".into();
        assert!(matches!(acc.update_details(&clash), Err(BankError::DuplicateAccount(_))));
    }

    #[test]
    fn cross_currency_transfers_are_refused() {
        let (acc, a, b) = setup();
        // Re-denominate b's account in a VO-local currency (§1: "VOs can
        // choose to introduce their own currency").
        acc.db()
            .with_account_mut(&b, |r| {
                r.currency = "PhysGrid$".into();
                Ok(())
            })
            .unwrap();
        assert!(matches!(
            acc.transfer(&a, &b, Credits::from_gd(1), vec![]),
            Err(BankError::Protocol(_))
        ));
        // No partial effects.
        assert_eq!(acc.account_details(&a).unwrap().available, Credits::from_gd(100));
        assert_eq!(acc.account_details(&b).unwrap().available, Credits::ZERO);
    }

    #[test]
    fn a_failed_payment_leaves_the_payer_untouched() {
        // `AdminDeposit` takes any amount off the wire, so a payee can
        // sit at the top of the range: crediting it overflows *after*
        // the closure debited the payer.
        let (acc, a, b) = setup();
        acc.db()
            .with_account_mut(&b, |r| {
                r.available = Credits::MAX;
                Ok(())
            })
            .unwrap();
        let (payer, digest) = (acc.account_details(&a).unwrap(), acc.db().state_digest());
        assert!(acc.transfer(&a, &b, Credits::from_gd(1), vec![]).is_err());
        assert_eq!(acc.account_details(&a).unwrap(), payer, "the payer was debited for nothing");
        assert_eq!(acc.db().state_digest(), digest);

        // The same shape in one account: `locked` overflows after
        // `available` was reduced.
        acc.db()
            .with_account_mut(&a, |r| {
                r.locked = Credits::MAX;
                Ok(())
            })
            .unwrap();
        assert!(acc.lock_funds(&a, Credits::from_gd(1)).is_err());
        assert_eq!(acc.account_details(&a).unwrap().available, Credits::from_gd(100));
    }

    #[test]
    fn concurrent_mixed_operations_conserve_funds() {
        let db = Arc::new(Database::new(1, 1));
        let acc = GbAccounts::new(db.clone(), Clock::new());
        let mut ids = Vec::new();
        for i in 0..6 {
            let id = acc.create_account(&format!("/CN=u{i}"), None).unwrap();
            db.with_account_mut(&id, |r| {
                r.available = Credits::from_gd(1_000);
                Ok(())
            })
            .unwrap();
            ids.push(id);
        }
        let before = db.total_funds();
        std::thread::scope(|s| {
            for t in 0..6 {
                let acc = acc.clone();
                let ids = ids.clone();
                s.spawn(move || {
                    for k in 0..100usize {
                        let me = ids[t];
                        let other = ids[(t + 1 + k % 4) % ids.len()];
                        if me == other {
                            continue;
                        }
                        match k % 4 {
                            0 => {
                                let _ = acc.transfer(&me, &other, Credits::from_gd(1), vec![]);
                            }
                            1 => {
                                let _ = acc.lock_funds(&me, Credits::from_gd(2));
                            }
                            2 => {
                                let _ = acc.settle_locked(
                                    &me,
                                    &other,
                                    Credits::from_gd(1),
                                    Credits::from_gd(1),
                                    vec![],
                                );
                            }
                            _ => {
                                let _ = acc.unlock_funds(&me, Credits::from_gd(1));
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(db.total_funds(), before, "credits were created or destroyed");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn random_op_sequences_conserve_funds(ops in prop::collection::vec((0u8..4, 0usize..4, 0usize..4, 1i64..50), 1..60)) {
            let db = Arc::new(Database::new(1, 1));
            let acc = GbAccounts::new(db.clone(), Clock::new());
            let mut ids = Vec::new();
            for i in 0..4 {
                let id = acc.create_account(&format!("/CN=p{i}"), None).unwrap();
                db.with_account_mut(&id, |r| { r.available = Credits::from_gd(100); Ok(()) }).unwrap();
                ids.push(id);
            }
            let before = db.total_funds();
            for (op, from, to, amt) in ops {
                let from = ids[from];
                let to = ids[to];
                let amount = Credits::from_gd(amt);
                let _ = match op {
                    0 => acc.transfer(&from, &to, amount, vec![]).map(|_| ()),
                    1 => acc.lock_funds(&from, amount),
                    2 => acc.settle_locked(&from, &to, amount, Credits::from_gd(amt % 3), vec![]),
                    _ => acc.unlock_funds(&from, amount),
                };
                // Invariants that must hold after every op, success or not:
                for id in &ids {
                    let r = db.get_account(id).unwrap();
                    prop_assert!(r.locked >= Credits::ZERO, "negative lock on {id}");
                    prop_assert!(r.available >= -r.credit_limit, "over-overdraft on {id}");
                }
            }
            prop_assert_eq!(db.total_funds(), before);
        }
    }
}
