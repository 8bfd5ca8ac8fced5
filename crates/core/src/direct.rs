//! Direct funds transfer — the pay-before-use protocol (§3.1).
//!
//! "The first policy is appropriate for services that have a fixed cost,
//! for example, to access a directory service. A simple funds transfer
//! protocol is designed to enable GSC to request funds transfer with the
//! confirmation send to GSP. GSC establishes secure connection with
//! GridBank to provide account details of GSC and GSP as well as amount
//! and URL of GSP. GridBank performs the funds transfer and sends the
//! confirmation to the specified URL of the GSP via another secure
//! channel."
//!
//! The confirmation here is a *signed receipt*: the GSC (or the bank
//! itself) can deliver it to the GSP's address, and the GSP verifies it
//! offline against the bank's key — equivalent evidence to the paper's
//! pushed confirmation, minus a second live connection.

use gridbank_crypto::keys::{SigningIdentity, VerifyingKey};
use gridbank_crypto::merkle::MerkleSignature;
use gridbank_rur::codec::{ByteReader, ByteWriter, Decode, Encode};
use gridbank_rur::{Credits, RurError};

use crate::accounts::{GbAccounts, IdemKey};
use crate::db::AccountId;
use crate::error::BankError;

/// The signed body of a transfer confirmation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfirmationBody {
    /// The committed transaction id.
    pub transaction_id: u64,
    /// Paying account.
    pub drawer: AccountId,
    /// Receiving account.
    pub recipient: AccountId,
    /// Amount moved.
    pub amount: Credits,
    /// Commit time.
    pub date_ms: u64,
    /// The GSP address ("URL") the confirmation is destined for.
    pub recipient_address: String,
}

impl Encode for ConfirmationBody {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u8(1);
        w.put_u64(self.transaction_id);
        w.put_str(&self.drawer.to_string());
        w.put_str(&self.recipient.to_string());
        self.amount.encode(w);
        w.put_u64(self.date_ms);
        w.put_str(&self.recipient_address);
    }
}

impl Decode for ConfirmationBody {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, RurError> {
        let v = r.get_u8()?;
        if v != 1 {
            return Err(RurError::Decode(format!("confirmation version {v}")));
        }
        let transaction_id = r.get_u64()?;
        let drawer =
            AccountId::parse(&r.get_str()?).ok_or_else(|| RurError::Decode("bad drawer".into()))?;
        let recipient = AccountId::parse(&r.get_str()?)
            .ok_or_else(|| RurError::Decode("bad recipient".into()))?;
        Ok(ConfirmationBody {
            transaction_id,
            drawer,
            recipient,
            amount: Credits::decode(r)?,
            date_ms: r.get_u64()?,
            recipient_address: r.get_str()?,
        })
    }
}

/// A bank-signed transfer confirmation.
#[derive(Clone, Debug)]
pub struct TransferConfirmation {
    /// The signed fields.
    pub body: ConfirmationBody,
    /// Bank signature.
    pub signature: MerkleSignature,
}

impl TransferConfirmation {
    /// Verifies the bank's signature.
    pub fn verify(&self, bank_key: &VerifyingKey) -> Result<(), BankError> {
        bank_key
            .verify(&self.body.to_bytes(), &self.signature)
            .map_err(|_| BankError::InvalidInstrument("bad signature on confirmation".into()))
    }
}

/// Executes a pay-before-use direct transfer and signs the confirmation.
pub fn direct_transfer(
    accounts: &GbAccounts,
    signer: &SigningIdentity,
    from: &AccountId,
    to: &AccountId,
    amount: Credits,
    recipient_address: &str,
) -> Result<TransferConfirmation, BankError> {
    direct_transfer_keyed(accounts, signer, from, to, amount, recipient_address, None)
}

/// [`direct_transfer`] with an optional idempotency key. The dedup stamp
/// is journaled atomically with the transfer, so a retried request after
/// a crash cannot re-apply; the signature happens after the commit, so
/// the stamp remembers an unsigned placeholder confirmation that the
/// server upgrades to the signed response once signing completes.
pub fn direct_transfer_keyed(
    accounts: &GbAccounts,
    signer: &SigningIdentity,
    from: &AccountId,
    to: &AccountId,
    amount: Credits,
    recipient_address: &str,
    idem: Option<IdemKey>,
) -> Result<TransferConfirmation, BankError> {
    let transaction_id = accounts.transfer_keyed(from, to, amount, Vec::new(), idem)?;
    let body = ConfirmationBody {
        transaction_id,
        drawer: *from,
        recipient: *to,
        amount,
        date_ms: accounts.clock().now_ms(),
        recipient_address: recipient_address.to_string(),
    };
    let sign_timer = gridbank_obs::Stopwatch::start();
    let signature = signer.sign(&body.to_bytes())?;
    sign_timer.record_named("core.signer.sign_ns");
    Ok(TransferConfirmation { body, signature })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Clock;
    use crate::db::Database;
    use gridbank_crypto::keys::KeyMaterial;
    use std::sync::Arc;

    fn setup() -> (GbAccounts, SigningIdentity, AccountId, AccountId) {
        let db = Arc::new(Database::new(1, 1));
        let acc = GbAccounts::new(db.clone(), Clock::starting_at(42));
        let a = acc.create_account("/CN=gsc", None).unwrap();
        let b = acc.create_account("/CN=gsp", None).unwrap();
        db.with_account_mut(&a, |r| {
            r.available = Credits::from_gd(20);
            Ok(())
        })
        .unwrap();
        let signer = SigningIdentity::generate_small(KeyMaterial { seed: 3 }, "bank");
        (acc, signer, a, b)
    }

    #[test]
    fn transfer_and_verifiable_confirmation() {
        let (acc, signer, a, b) = setup();
        let conf =
            direct_transfer(&acc, &signer, &a, &b, Credits::from_gd(5), "gsp.grid.org").unwrap();
        conf.verify(&signer.verifying_key()).unwrap();
        assert_eq!(conf.body.amount, Credits::from_gd(5));
        assert_eq!(conf.body.date_ms, 42);
        assert_eq!(conf.body.recipient_address, "gsp.grid.org");
        assert_eq!(acc.account_details(&b).unwrap().available, Credits::from_gd(5));
        // Codec round-trip.
        let decoded = ConfirmationBody::from_bytes(&conf.body.to_bytes()).unwrap();
        assert_eq!(decoded, conf.body);
    }

    #[test]
    fn tampered_confirmation_fails() {
        let (acc, signer, a, b) = setup();
        let mut conf =
            direct_transfer(&acc, &signer, &a, &b, Credits::from_gd(5), "gsp.grid.org").unwrap();
        conf.body.amount = Credits::from_gd(500);
        assert!(conf.verify(&signer.verifying_key()).is_err());
    }

    #[test]
    fn failed_transfer_issues_no_confirmation() {
        let (acc, signer, a, b) = setup();
        let err = direct_transfer(&acc, &signer, &a, &b, Credits::from_gd(21), "x");
        assert!(matches!(err, Err(BankError::InsufficientFunds { .. })));
        // No money moved.
        assert_eq!(acc.account_details(&b).unwrap().available, Credits::ZERO);
    }
}
