//! The GridBank Payment Module (GBPM).
//!
//! §2.2: "GRB interacts with GridBank Payment Module to manage funds on
//! user's behalf. The user can then set the budget to prevent
//! overspending." §6: "GridBank Payment Module receives requests for job
//! execution from the Grid Resource Broker, obtains a payment instrument
//! from the GridBank, forwards the payment to GBCM and submits the job."

use gridbank_core::cheque::GridCheque;
use gridbank_core::client::ClientHashChain;
use gridbank_core::client::{BankClient, BankLink};
use gridbank_core::db::AccountId;
use gridbank_core::direct::TransferConfirmation;
use gridbank_rur::Credits;

use crate::error::BrokerError;

/// Budget bookkeeping: the user's cap, what has been spent, and what is
/// committed to not-yet-settled instruments.
#[derive(Clone, Copy, Debug, Default)]
pub struct BudgetTracker {
    /// The user's total budget.
    pub budget: Credits,
    /// Finalized spending.
    pub spent: Credits,
    /// Value locked in outstanding instruments.
    pub committed: Credits,
}

impl BudgetTracker {
    /// Creates a tracker with the given cap.
    pub fn new(budget: Credits) -> Self {
        BudgetTracker { budget, ..Default::default() }
    }

    /// Headroom available for new commitments.
    pub fn remaining(&self) -> Credits {
        self.budget
            .checked_sub(self.spent)
            .and_then(|r| r.checked_sub(self.committed))
            .unwrap_or(Credits::ZERO)
            .max(Credits::ZERO)
    }

    /// Reserves headroom for a new instrument.
    pub fn commit(&mut self, amount: Credits) -> Result<(), BrokerError> {
        if amount > self.remaining() {
            return Err(BrokerError::BudgetExhausted { completed: 0 });
        }
        self.committed = self.committed.saturating_add(amount);
        Ok(())
    }

    /// Settles an instrument: `paid` becomes spending, the rest of the
    /// commitment is released.
    pub fn settle(&mut self, committed: Credits, paid: Credits) {
        self.committed = self.committed.checked_sub(committed).unwrap_or(Credits::ZERO);
        self.spent = self.spent.saturating_add(paid);
    }

    /// Releases a commitment entirely (instrument unused).
    pub fn release(&mut self, committed: Credits) {
        self.committed = self.committed.checked_sub(committed).unwrap_or(Credits::ZERO);
    }
}

/// The payment module: a bank client plus budget tracking.
pub struct PaymentModule<L: BankLink> {
    /// The bank client the module drives.
    pub port: BankClient<L>,
    /// Budget state.
    pub tracker: BudgetTracker,
    account: Option<AccountId>,
    /// Instrument requests that failed on a *transient* bank-link
    /// condition (a retryable transport error). The
    /// commitment was rolled back; the broker can re-issue these once
    /// the bank is reachable again instead of failing the batch.
    pub deferred: u64,
}

/// Classifies a bank failure for degraded-mode accounting: transient
/// link conditions count as deferrals, everything else propagates as-is.
fn note_degraded(e: &BrokerError, deferred: &mut u64) {
    if e.is_transient() {
        *deferred = deferred.saturating_add(1);
        gridbank_obs::count("broker.payment.deferred", 1);
    }
}

impl<L: BankLink> PaymentModule<L> {
    /// Wraps a port with a budget.
    pub fn new(port: BankClient<L>, budget: Credits) -> Self {
        PaymentModule { port, tracker: BudgetTracker::new(budget), account: None, deferred: 0 }
    }

    /// Ensures the user has an account (creating one on first use) and
    /// returns its id.
    pub fn ensure_account(
        &mut self,
        organization: Option<String>,
    ) -> Result<AccountId, BrokerError> {
        if let Some(id) = self.account {
            return Ok(id);
        }
        let id = match self.port.my_account() {
            Ok(record) => record.id,
            Err(_) => self.port.create_account(organization)?,
        };
        self.account = Some(id);
        Ok(id)
    }

    /// Current bank balance (available).
    pub fn balance(&mut self) -> Result<Credits, BrokerError> {
        Ok(self.port.my_account()?.available)
    }

    /// Obtains a cheque within the budget; the commitment is tracked.
    pub fn obtain_cheque(
        &mut self,
        payee_cert: &str,
        amount: Credits,
        validity_ms: u64,
    ) -> Result<GridCheque, BrokerError> {
        let _span = gridbank_obs::span("broker.payment", "obtain_cheque");
        self.tracker.commit(amount)?;
        match self.port.request_cheque(payee_cert, amount, validity_ms) {
            Ok(c) => Ok(c),
            Err(e) => {
                self.tracker.release(amount);
                let e: BrokerError = e.into();
                note_degraded(&e, &mut self.deferred);
                Err(e)
            }
        }
    }

    /// Settles a cheque outcome against the budget.
    pub fn settle_cheque(&mut self, cheque: &GridCheque, paid: Credits) {
        let _span = gridbank_obs::span("broker.payment", "settle_cheque");
        self.tracker.settle(cheque.body.reserved, paid);
    }

    /// Obtains a hash chain within the budget.
    pub fn obtain_chain(
        &mut self,
        payee_cert: &str,
        length: u32,
        value_per_word: Credits,
        validity_ms: u64,
    ) -> Result<ClientHashChain, BrokerError> {
        let _span = gridbank_obs::span("broker.payment", "obtain_chain");
        let total =
            value_per_word.checked_mul(length as i128).map_err(|e| BrokerError::Bank(e.into()))?;
        self.tracker.commit(total)?;
        match self.port.request_hash_chain(payee_cert, length, value_per_word, validity_ms) {
            Ok(c) => Ok(c),
            Err(e) => {
                self.tracker.release(total);
                let e: BrokerError = e.into();
                note_degraded(&e, &mut self.deferred);
                Err(e)
            }
        }
    }

    /// Pay-before-use: direct transfer of a fixed price.
    pub fn prepay(
        &mut self,
        to: AccountId,
        amount: Credits,
        recipient_address: &str,
    ) -> Result<TransferConfirmation, BrokerError> {
        let _span = gridbank_obs::span("broker.payment", "prepay");
        self.tracker.commit(amount)?;
        match self.port.direct_transfer(to, amount, recipient_address) {
            Ok(conf) => {
                self.tracker.settle(amount, amount);
                Ok(conf)
            }
            Err(e) => {
                self.tracker.release(amount);
                let e: BrokerError = e.into();
                note_degraded(&e, &mut self.deferred);
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridbank_core::api::BankRequest;
    use gridbank_core::clock::Clock;
    use gridbank_core::port::{DirectLink, InProcessBank};
    use gridbank_core::server::{GridBank, GridBankConfig};
    use gridbank_crypto::cert::SubjectName;
    use std::sync::Arc;

    fn setup(budget: i64) -> (Arc<GridBank>, PaymentModule<DirectLink>, SubjectName) {
        let bank = Arc::new(GridBank::new(
            GridBankConfig { signer_height: 6, ..GridBankConfig::default() },
            Clock::new(),
        ));
        let alice = SubjectName::new("UWA", "CSSE", "alice");
        let module = PaymentModule::new(
            InProcessBank::new(bank.clone(), alice.clone()),
            Credits::from_gd(budget),
        );
        (bank, module, alice)
    }

    #[test]
    fn tracker_arithmetic() {
        let mut t = BudgetTracker::new(Credits::from_gd(10));
        assert_eq!(t.remaining(), Credits::from_gd(10));
        t.commit(Credits::from_gd(6)).unwrap();
        assert_eq!(t.remaining(), Credits::from_gd(4));
        assert!(t.commit(Credits::from_gd(5)).is_err());
        // Paid 2 of the 6 committed.
        t.settle(Credits::from_gd(6), Credits::from_gd(2));
        assert_eq!(t.spent, Credits::from_gd(2));
        assert_eq!(t.remaining(), Credits::from_gd(8));
        t.commit(Credits::from_gd(3)).unwrap();
        t.release(Credits::from_gd(3));
        assert_eq!(t.remaining(), Credits::from_gd(8));
    }

    #[test]
    fn ensure_account_is_idempotent() {
        let (_bank, mut m, _alice) = setup(10);
        let a = m.ensure_account(Some("UWA".into())).unwrap();
        let b = m.ensure_account(None).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn cheque_respects_budget_and_settles() {
        let (bank, mut m, _alice) = setup(10);
        let account = m.ensure_account(None).unwrap();
        let admin = SubjectName("/O=GridBank/OU=Admin/CN=operator".into());
        bank.handle(&admin, BankRequest::AdminDeposit { account, amount: Credits::from_gd(100) });
        // GSP account for the payee.
        let gsp = SubjectName::new("O", "U", "gsp");
        let mut gsp_port = InProcessBank::new(bank.clone(), gsp);
        gsp_port.create_account(None).unwrap();

        let cheque = m.obtain_cheque("/O=O/OU=U/CN=gsp", Credits::from_gd(6), 10_000).unwrap();
        assert_eq!(m.tracker.remaining(), Credits::from_gd(4));
        // Over-budget cheque refused even though the bank balance allows.
        assert!(matches!(
            m.obtain_cheque("/O=O/OU=U/CN=gsp", Credits::from_gd(5), 10_000),
            Err(BrokerError::BudgetExhausted { .. })
        ));
        m.settle_cheque(&cheque, Credits::from_gd(2));
        assert_eq!(m.tracker.spent, Credits::from_gd(2));
        assert_eq!(m.tracker.remaining(), Credits::from_gd(8));
    }

    #[test]
    fn transient_bank_failures_count_as_deferrals() {
        use gridbank_core::api::BankResponse;
        use gridbank_core::error::BankError;
        use gridbank_net::NetError;

        // One method is the whole fake: each request fails the way a
        // flaky link (or, for the chain, the bank itself) would.
        struct UnreachableBank;
        impl BankLink for UnreachableBank {
            fn call_keyed(
                &mut self,
                _key: Option<u64>,
                request: &BankRequest,
            ) -> Result<BankResponse, BankError> {
                Err(match request {
                    BankRequest::DirectTransfer { .. } | BankRequest::RequestCheque { .. } => {
                        BankError::Net(NetError::Disconnected)
                    }
                    BankRequest::RequestHashChain { .. } => BankError::NotAuthorized("nope".into()),
                    _ => BankError::Net(NetError::Timeout),
                })
            }
        }

        let mut m = PaymentModule::new(BankClient::over(UnreachableBank), Credits::from_gd(10));
        // Disconnected cheque request: transient, commitment released.
        let err = m.obtain_cheque("/CN=gsp", Credits::from_gd(2), 1_000).unwrap_err();
        assert!(err.is_transient());
        assert_eq!(m.deferred, 1);
        // Disconnected prepay: transient too.
        let err = m.prepay(AccountId::new(0, 1, 1), Credits::from_gd(1), "gsp").unwrap_err();
        assert!(err.is_transient());
        assert_eq!(m.deferred, 2);
        // A real refusal is NOT transient and not deferred.
        let Err(err) = m.obtain_chain("/CN=gsp", 2, Credits::from_gd(1), 1_000) else {
            panic!("expected an error");
        };
        assert!(!err.is_transient());
        assert_eq!(m.deferred, 2);
        // Every rollback happened: full budget headroom remains.
        assert_eq!(m.tracker.remaining(), Credits::from_gd(10));
    }

    #[test]
    fn failed_bank_call_releases_commitment() {
        let (_bank, mut m, _alice) = setup(10);
        m.ensure_account(None).unwrap();
        // No deposit: the bank refuses the reservation; the budget
        // commitment must be rolled back.
        let err = m.obtain_cheque("/CN=gsp", Credits::from_gd(5), 10_000);
        assert!(matches!(err, Err(BrokerError::Bank(_))));
        assert_eq!(m.tracker.remaining(), Credits::from_gd(10));
    }

    #[test]
    fn prepay_settles_immediately() {
        let (bank, mut m, _alice) = setup(10);
        let account = m.ensure_account(None).unwrap();
        let admin = SubjectName("/O=GridBank/OU=Admin/CN=operator".into());
        bank.handle(&admin, BankRequest::AdminDeposit { account, amount: Credits::from_gd(100) });
        let gsp = SubjectName::new("O", "U", "gsp");
        let mut gsp_port = InProcessBank::new(bank.clone(), gsp);
        let gsp_acct = gsp_port.create_account(None).unwrap();

        let conf = m.prepay(gsp_acct, Credits::from_gd(3), "gsp.org").unwrap();
        assert_eq!(conf.body.amount, Credits::from_gd(3));
        assert_eq!(m.tracker.spent, Credits::from_gd(3));
        assert_eq!(m.tracker.committed, Credits::ZERO);
        assert_eq!(m.balance().unwrap(), Credits::from_gd(97));
    }

    #[test]
    fn chain_commitment_counts_whole_value() {
        let (bank, mut m, _alice) = setup(10);
        let account = m.ensure_account(None).unwrap();
        let admin = SubjectName("/O=GridBank/OU=Admin/CN=operator".into());
        bank.handle(&admin, BankRequest::AdminDeposit { account, amount: Credits::from_gd(100) });
        let gsp = SubjectName::new("O", "U", "gsp");
        let mut gsp_port = InProcessBank::new(bank.clone(), gsp);
        gsp_port.create_account(None).unwrap();

        m.obtain_chain("/O=O/OU=U/CN=gsp", 8, Credits::from_gd(1), 10_000).unwrap();
        assert_eq!(m.tracker.remaining(), Credits::from_gd(2));
        assert!(m.obtain_chain("/O=O/OU=U/CN=gsp", 3, Credits::from_gd(1), 10_000).is_err());
    }
}
