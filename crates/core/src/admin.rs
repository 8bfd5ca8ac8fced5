//! GB Admin — privileged account management.
//!
//! §3.2: "GB Admin module provides account management such as deposit,
//! withdrawal, change credit limit, cancel transfers and close account
//! functions. These functions are performed by GridBank's administrators
//! who are responsible for transferring real money to and from clients."
//!
//! Administrators are identified by certificate name in the administrator
//! table; the same table feeds the connection gate (§3.2).

use std::collections::HashSet;
use std::sync::Arc;

use crate::sync::RwLock;

use gridbank_rur::Credits;

use crate::accounts::GbAccounts;
use crate::db::{AccountId, TransactionRecord, TransactionType};
use crate::error::BankError;

/// The admin module: the administrator table plus privileged operations.
#[derive(Clone)]
pub struct GbAdmin {
    accounts: GbAccounts,
    admins: Arc<RwLock<HashSet<String>>>,
}

impl GbAdmin {
    /// Creates the module with an initial administrator set.
    pub fn new(accounts: GbAccounts, admins: impl IntoIterator<Item = String>) -> Self {
        GbAdmin { accounts, admins: Arc::new(RwLock::new(admins.into_iter().collect())) }
    }

    /// True if the subject is in the administrator table.
    pub fn is_admin(&self, certificate_name: &str) -> bool {
        self.admins.read().contains(certificate_name)
    }

    /// Adds an administrator (bootstrap/ops path).
    pub fn add_admin(&self, certificate_name: String) {
        self.admins.write().insert(certificate_name);
    }

    fn require_admin(&self, caller: &str) -> Result<(), BankError> {
        if self.is_admin(caller) {
            Ok(())
        } else {
            Err(BankError::NotAuthorized(format!("`{caller}` is not an administrator")))
        }
    }

    /// Deposit (§5.2.1): administrator received real funds out-of-band and
    /// credits the GridBank account.
    pub fn deposit(
        &self,
        caller: &str,
        account: &AccountId,
        amount: Credits,
    ) -> Result<u64, BankError> {
        self.require_admin(caller)?;
        if !amount.is_positive() {
            return Err(BankError::NonPositiveAmount);
        }
        self.accounts.db().one_account_commit(account, |r| {
            r.available = r.available.checked_add(amount)?;
            Ok(self.posting(r.id, TransactionType::Deposit, amount))
        })
    }

    /// The TRANSACTION RECORD evidencing money that crossed the bank's
    /// edge, under a fresh transaction id — committed in the same journal
    /// batch as the balance it explains.
    fn posting(
        &self,
        account: AccountId,
        tx_type: TransactionType,
        amount: Credits,
    ) -> (u64, Option<TransactionRecord>) {
        let transaction_id = self.accounts.db().allocate_transaction_id();
        let date_ms = self.accounts.clock().now_ms();
        let row = TransactionRecord { transaction_id, account, tx_type, date_ms, amount };
        (transaction_id, Some(row))
    }

    /// Withdraw (§5.2.1): moves funds out of the bank (to a real account,
    /// out of scope). Only available funds can leave; locks stay.
    pub fn withdraw(
        &self,
        caller: &str,
        account: &AccountId,
        amount: Credits,
    ) -> Result<u64, BankError> {
        self.require_admin(caller)?;
        if !amount.is_positive() {
            return Err(BankError::NonPositiveAmount);
        }
        self.accounts.db().one_account_commit(account, |r| {
            let next = r.available.checked_sub(amount)?;
            if next.is_negative() {
                return Err(BankError::InsufficientFunds {
                    account: r.id,
                    needed: amount,
                    spendable: r.available,
                });
            }
            r.available = next;
            Ok(self.posting(r.id, TransactionType::Withdrawal, amount.negated()))
        })
    }

    /// Change credit limit (§5.2.1).
    pub fn change_credit_limit(
        &self,
        caller: &str,
        account: &AccountId,
        new_limit: Credits,
    ) -> Result<(), BankError> {
        self.require_admin(caller)?;
        if new_limit.is_negative() {
            return Err(BankError::NonPositiveAmount);
        }
        self.accounts.db().with_account_mut(account, |r| {
            // Lowering the limit below the current overdraft would make the
            // account instantly inconsistent; refuse.
            if r.available < new_limit.negated() {
                return Err(BankError::InsufficientFunds {
                    account: r.id,
                    needed: r.available.negated(),
                    spendable: new_limit,
                });
            }
            r.credit_limit = new_limit;
            Ok(())
        })
    }

    /// Cancel Transfer (§5.2.1): compensating reversal of a committed
    /// transfer, identified by transaction id. The recipient must still
    /// have the funds available.
    pub fn cancel_transfer(&self, caller: &str, transaction_id: u64) -> Result<u64, BankError> {
        self.require_admin(caller)?;
        let db = self.accounts.db();
        let t = db
            .transfer_by_id(transaction_id)
            .ok_or_else(|| BankError::Protocol(format!("no transfer {transaction_id}")))?;
        // Reverse: recipient pays the drawer back.
        self.accounts.transfer(&t.recipient, &t.drawer, t.amount, Vec::new())
    }

    /// Close account (§5.2.1): the outstanding balance is transferred to
    /// another GridBank account (or withdrawn); locked funds must be
    /// settled first.
    pub fn close_account(
        &self,
        caller: &str,
        account: &AccountId,
        transfer_remainder_to: Option<AccountId>,
    ) -> Result<(), BankError> {
        self.require_admin(caller)?;
        let record = self.accounts.account_details(account)?;
        if !record.locked.is_zero() {
            return Err(BankError::AccountNotEmpty(*account));
        }
        if record.available.is_negative() {
            return Err(BankError::AccountNotEmpty(*account));
        }
        if record.available.is_positive() {
            match transfer_remainder_to {
                Some(dest) => {
                    self.accounts.transfer(account, &dest, record.available, Vec::new())?;
                }
                None => {
                    self.withdraw(caller, account, record.available)?;
                }
            }
        }
        self.accounts.db().remove_account(account)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Clock;
    use crate::db::Database;

    const ADMIN: &str = "/CN=gb-admin";

    fn setup() -> (GbAdmin, GbAccounts, AccountId, AccountId) {
        let db = Arc::new(Database::new(1, 1));
        let accounts = GbAccounts::new(db, Clock::new());
        let admin = GbAdmin::new(accounts.clone(), [ADMIN.to_string()]);
        let a = accounts.create_account("/CN=alice", None).unwrap();
        let b = accounts.create_account("/CN=bob", None).unwrap();
        (admin, accounts, a, b)
    }

    #[test]
    fn only_admins_may_operate() {
        let (admin, _acc, a, _) = setup();
        assert!(matches!(
            admin.deposit("/CN=alice", &a, Credits::from_gd(5)),
            Err(BankError::NotAuthorized(_))
        ));
        assert!(!admin.is_admin("/CN=alice"));
        admin.add_admin("/CN=alice".into());
        assert!(admin.is_admin("/CN=alice"));
        admin.deposit("/CN=alice", &a, Credits::from_gd(5)).unwrap();
    }

    #[test]
    fn deposit_and_withdraw_post_transactions() {
        let (admin, acc, a, _) = setup();
        admin.deposit(ADMIN, &a, Credits::from_gd(50)).unwrap();
        admin.withdraw(ADMIN, &a, Credits::from_gd(20)).unwrap();
        let r = acc.account_details(&a).unwrap();
        assert_eq!(r.available, Credits::from_gd(30));
        let st = acc.statement(&a, 0, u64::MAX).unwrap();
        assert_eq!(st.transactions.len(), 2);
        assert_eq!(st.transactions[0].tx_type, TransactionType::Deposit);
        assert_eq!(st.transactions[1].tx_type, TransactionType::Withdrawal);
        assert_eq!(st.transactions[1].amount, Credits::from_gd(-20));
        // Withdrawing more than available fails.
        assert!(admin.withdraw(ADMIN, &a, Credits::from_gd(31)).is_err());
    }

    #[test]
    fn credit_limit_changes_are_guarded() {
        let (admin, acc, a, b) = setup();
        admin.deposit(ADMIN, &a, Credits::from_gd(10)).unwrap();
        admin.change_credit_limit(ADMIN, &a, Credits::from_gd(5)).unwrap();
        acc.transfer(&a, &b, Credits::from_gd(13), vec![]).unwrap(); // now at -3
                                                                     // Cannot drop the limit below the live overdraft.
        assert!(admin.change_credit_limit(ADMIN, &a, Credits::from_gd(2)).is_err());
        admin.change_credit_limit(ADMIN, &a, Credits::from_gd(3)).unwrap();
        assert!(admin.change_credit_limit(ADMIN, &a, Credits::from_gd(-1)).is_err());
    }

    #[test]
    fn cancel_transfer_reverses() {
        let (admin, acc, a, b) = setup();
        admin.deposit(ADMIN, &a, Credits::from_gd(40)).unwrap();
        let txid = acc.transfer(&a, &b, Credits::from_gd(15), vec![]).unwrap();
        admin.cancel_transfer(ADMIN, txid).unwrap();
        assert_eq!(acc.account_details(&a).unwrap().available, Credits::from_gd(40));
        assert_eq!(acc.account_details(&b).unwrap().available, Credits::ZERO);
        assert!(admin.cancel_transfer(ADMIN, 424_242).is_err());
    }

    #[test]
    fn close_account_paths() {
        let (admin, acc, a, b) = setup();
        admin.deposit(ADMIN, &a, Credits::from_gd(25)).unwrap();

        // Locked funds block closure.
        acc.lock_funds(&a, Credits::from_gd(5)).unwrap();
        assert!(matches!(
            admin.close_account(ADMIN, &a, Some(b)),
            Err(BankError::AccountNotEmpty(_))
        ));
        acc.unlock_funds(&a, Credits::from_gd(5)).unwrap();

        // Remainder transfers to b.
        admin.close_account(ADMIN, &a, Some(b)).unwrap();
        assert!(acc.account_details(&a).is_err());
        assert_eq!(acc.account_details(&b).unwrap().available, Credits::from_gd(25));

        // Close with withdrawal (no destination).
        admin.close_account(ADMIN, &b, None).unwrap();
        assert!(acc.account_details(&b).is_err());
    }

    #[test]
    fn conservation_only_broken_by_deposit_withdraw() {
        let (admin, acc, a, b) = setup();
        let db = acc.db();
        assert_eq!(db.total_funds(), Credits::ZERO);
        admin.deposit(ADMIN, &a, Credits::from_gd(100)).unwrap();
        assert_eq!(db.total_funds(), Credits::from_gd(100));
        acc.transfer(&a, &b, Credits::from_gd(30), vec![]).unwrap();
        assert_eq!(db.total_funds(), Credits::from_gd(100));
        admin.withdraw(ADMIN, &b, Credits::from_gd(10)).unwrap();
        assert_eq!(db.total_funds(), Credits::from_gd(90));
    }
}
