//! The direct link: a bank in the same process, no handshake.
//!
//! The simulation/bench fast path — requests go straight into the
//! dispatcher under a fixed identity, through exactly the authorization
//! and idempotency checks a wire request meets. One of the three links
//! of DESIGN.md §4 "Calling a bank".

use std::sync::Arc;

use gridbank_crypto::cert::SubjectName;

use crate::api::{BankRequest, BankResponse};
use crate::client::{typed, BankClient, BankLink};
use crate::error::BankError;
use crate::server::GridBank;

/// Calls a bank's dispatcher directly as `caller`.
pub struct DirectLink {
    bank: Arc<GridBank>,
    caller: SubjectName,
}

impl DirectLink {
    /// Binds an identity to a bank.
    pub fn new(bank: Arc<GridBank>, caller: SubjectName) -> Self {
        DirectLink { bank, caller }
    }
}

impl BankLink for DirectLink {
    fn call_keyed(
        &mut self,
        key: Option<u64>,
        request: &BankRequest,
    ) -> Result<BankResponse, BankError> {
        typed(self.bank.handle_keyed(&self.caller, key, request.clone()))
    }
}

/// The typed client over a [`DirectLink`].
pub type InProcessBank = BankClient<DirectLink>;

impl InProcessBank {
    /// Binds an identity to a bank.
    pub fn new(bank: Arc<GridBank>, caller: SubjectName) -> Self {
        BankClient::over(DirectLink::new(bank, caller))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Clock;
    use crate::server::GridBankConfig;
    use gridbank_rur::codec::Encode;
    use gridbank_rur::Credits;

    const ADMIN: &str = "/O=GridBank/OU=Admin/CN=operator";

    fn bank() -> Arc<GridBank> {
        Arc::new(GridBank::new(
            GridBankConfig { signer_height: 5, ..GridBankConfig::default() },
            Clock::new(),
        ))
    }

    #[test]
    fn in_process_port_round_trip() {
        let bank = bank();
        let alice = SubjectName::new("UWA", "CSSE", "alice");
        let mut port = InProcessBank::new(bank.clone(), alice);
        let account = port.create_account(Some("UWA".into())).unwrap();
        assert_eq!(port.my_account().unwrap().id, account);
        // Funding via admin then a cheque round-trip through the port.
        let mut admin = InProcessBank::new(bank.clone(), SubjectName(ADMIN.into()));
        admin.admin_deposit(account, Credits::from_gd(10)).unwrap();
        let gsp = SubjectName::new("O", "U", "gsp");
        let mut gsp_port = InProcessBank::new(bank.clone(), gsp);
        gsp_port.create_account(None).unwrap();
        let cheque = port.request_cheque("/O=O/OU=U/CN=gsp", Credits::from_gd(5), 1_000).unwrap();
        assert_eq!(cheque.body.reserved, Credits::from_gd(5));
        // Errors map back to typed BankError.
        let err = port.request_cheque("/CN=gsp2", Credits::from_gd(50), 1_000);
        assert!(matches!(err, Err(BankError::InsufficientFunds { .. })));
    }

    #[test]
    fn keyed_mutation_sent_twice_applies_once() {
        let bank = bank();
        let mut alice = InProcessBank::new(bank.clone(), SubjectName::new("UWA", "CSSE", "alice"));
        let from = alice.create_account(None).unwrap();
        let to = InProcessBank::new(bank.clone(), SubjectName::new("O", "U", "gsp"))
            .create_account(None)
            .unwrap();
        InProcessBank::new(bank.clone(), SubjectName(ADMIN.into()))
            .admin_deposit(from, Credits::from_gd(10))
            .unwrap();
        let pay = BankRequest::DirectTransfer {
            to,
            amount: Credits::from_gd(4),
            recipient_address: "gsp.grid.org".into(),
        };
        let first = alice.call_keyed(Some(7), &pay).unwrap();
        let again = alice.call_keyed(Some(7), &pay).unwrap();
        assert_eq!(first.to_bytes(), again.to_bytes());
        assert_eq!(alice.my_account().unwrap().available, Credits::from_gd(6));
        // A different key is a different payment.
        alice.call_keyed(Some(8), &pay).unwrap();
        assert_eq!(alice.my_account().unwrap().available, Credits::from_gd(2));
    }
}
