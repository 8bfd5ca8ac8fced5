//! GridCheque — the pay-after-use payment instrument (§3.1, §3.4).
//!
//! "When the service charge is unknown beforehand, GSC forwards a payment
//! order in the form of a digital cheque to GSP. The cheque is made out to
//! GSP so no one else can redeem it. After computation has finished, GSP
//! calculates total cost and forwards the cheque along with resource usage
//! record to GridBank for processing. This can be done in batches. Such
//! scheme is based on NetCheque and relies on public key cryptography."
//!
//! A [`GridCheque`] is signed by the *bank* (the bank issues the cheque to
//! the GSC against locked funds, §3.4); the GSP validates it offline
//! against the bank's well-known key before accepting a job, and redeems
//! it with the RUR after execution. Redemption recomputes the charge from
//! the RUR itself — a signed cheque plus a conforming RUR is the whole
//! evidence chain.

use gridbank_crypto::keys::{SigningIdentity, VerifyingKey};
use gridbank_crypto::merkle::MerkleSignature;
use gridbank_rur::codec::{ByteReader, ByteWriter, Decode, Encode};
use gridbank_rur::record::ResourceUsageRecord;
use gridbank_rur::{Credits, RurError};

use crate::db::AccountId;
use crate::error::BankError;
use crate::guarantee::FundsGuarantee;

/// The signed body of a GridCheque.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChequeBody {
    /// Instrument id — also the reservation id guaranteeing it.
    pub cheque_id: u64,
    /// Drawer (GSC) account.
    pub drawer: AccountId,
    /// Payee certificate name — "made out to GSP so no one else can
    /// redeem it".
    pub payee_cert: String,
    /// Reserved (maximum) amount.
    pub reserved: Credits,
    /// Issue time, virtual ms.
    pub issued_ms: u64,
    /// Redemption deadline, virtual ms.
    pub expires_ms: u64,
    /// Issuing branch number.
    pub branch: u16,
}

impl Encode for ChequeBody {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u8(1); // version
        w.put_u64(self.cheque_id);
        w.put_str(&self.drawer.to_string());
        w.put_str(&self.payee_cert);
        self.reserved.encode(w);
        w.put_u64(self.issued_ms);
        w.put_u64(self.expires_ms);
        w.put_u32(self.branch as u32);
    }
}

impl Decode for ChequeBody {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, RurError> {
        let v = r.get_u8()?;
        if v != 1 {
            return Err(RurError::Decode(format!("cheque version {v}")));
        }
        let cheque_id = r.get_u64()?;
        let drawer = AccountId::parse(&r.get_str()?)
            .ok_or_else(|| RurError::Decode("bad drawer id".into()))?;
        let payee_cert = r.get_str()?;
        let reserved = Credits::decode(r)?;
        Ok(ChequeBody {
            cheque_id,
            drawer,
            payee_cert,
            reserved,
            issued_ms: r.get_u64()?,
            expires_ms: r.get_u64()?,
            branch: r.get_u32()? as u16,
        })
    }
}

/// A bank-signed cheque.
#[derive(Clone, Debug)]
pub struct GridCheque {
    /// The signed fields.
    pub body: ChequeBody,
    /// Bank signature over [`ChequeBody`]'s canonical encoding.
    pub signature: MerkleSignature,
}

impl GridCheque {
    /// Verifies the bank signature and (optionally) the payee binding.
    pub fn verify(
        &self,
        bank_key: &VerifyingKey,
        expect_payee: Option<&str>,
        now_ms: u64,
    ) -> Result<(), BankError> {
        bank_key
            .verify(&self.body.to_bytes(), &self.signature)
            .map_err(|_| BankError::InvalidInstrument("bad bank signature on cheque".into()))?;
        self.check_terms(expect_payee, now_ms)
    }

    /// The checks [`Self::verify`] makes after the signature: the payee
    /// binding (when given) and expiry.
    fn check_terms(&self, expect_payee: Option<&str>, now_ms: u64) -> Result<(), BankError> {
        if let Some(p) = expect_payee {
            if self.body.payee_cert != p {
                return Err(BankError::InvalidInstrument(format!(
                    "cheque payable to `{}`, not `{p}`",
                    self.body.payee_cert
                )));
            }
        }
        if now_ms >= self.body.expires_ms {
            return Err(BankError::InvalidInstrument(format!(
                "cheque expired at {} (now {now_ms})",
                self.body.expires_ms
            )));
        }
        Ok(())
    }
}

/// Bank-side cheque issuance and redemption.
pub struct ChequeOffice<'a> {
    /// The guarantee registry backing cheque reservations.
    pub guarantee: &'a FundsGuarantee,
    /// The bank's signing identity.
    pub signer: &'a SigningIdentity,
    /// Branch number stamped into cheques.
    pub branch: u16,
}

/// Result of redeeming one cheque.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Redemption {
    /// Cheque that was redeemed.
    pub cheque_id: u64,
    /// Amount actually paid to the payee.
    pub paid: Credits,
    /// Unused reservation returned to the drawer.
    pub released: Credits,
}

impl ChequeOffice<'_> {
    /// Issues a cheque: locks `amount` on the drawer and signs the body.
    /// "The exact amount will depend on the budget constraint set with the
    /// GRB" (§3.4).
    pub fn issue(
        &self,
        drawer: &AccountId,
        payee_cert: &str,
        amount: Credits,
        now_ms: u64,
        validity_ms: u64,
    ) -> Result<GridCheque, BankError> {
        if payee_cert.is_empty() {
            return Err(BankError::Protocol("cheque needs a payee".into()));
        }
        let cheque_id =
            self.guarantee.reserve_until(drawer, amount, now_ms.saturating_add(validity_ms))?;
        let body = ChequeBody {
            cheque_id,
            drawer: *drawer,
            payee_cert: payee_cert.to_string(),
            reserved: amount,
            issued_ms: now_ms,
            expires_ms: now_ms.saturating_add(validity_ms),
            branch: self.branch,
        };
        let signature = self.guarantee.sign_instrument(cheque_id, self.signer, &body.to_bytes())?;
        Ok(GridCheque { body, signature })
    }

    /// Redeems a cheque against a usage record. The redeemer must be the
    /// payee; the charge is recomputed from the RUR; payment is capped at
    /// the reservation (§3.4) and the remainder released. A cheque that is
    /// byte for byte the one this bank issued against its reservation is
    /// recognised; any other has its bank signature verified.
    pub fn redeem(
        &self,
        cheque: &GridCheque,
        rur: &ResourceUsageRecord,
        redeemer_cert: &str,
        payee_account: &AccountId,
        now_ms: u64,
    ) -> Result<Redemption, BankError> {
        if self.guarantee.recognises(
            cheque.body.cheque_id,
            &cheque.body.to_bytes(),
            &cheque.signature,
        ) {
            cheque.check_terms(Some(redeemer_cert), now_ms)?;
        } else {
            cheque.verify(&self.signer.verifying_key(), Some(redeemer_cert), now_ms)?;
        }
        rur.validate()?;
        // The RUR must name the payee as the provider — a cheque cannot be
        // redeemed with someone else's usage evidence.
        if rur.resource.certificate_name != cheque.body.payee_cert {
            return Err(BankError::InvalidInstrument(format!(
                "RUR provider `{}` is not the cheque payee `{}`",
                rur.resource.certificate_name, cheque.body.payee_cert
            )));
        }
        let charge = rur.total_cost()?;
        let (paid, released) =
            self.guarantee.settle(cheque.body.cheque_id, payee_account, charge, rur.to_bytes())?;
        Ok(Redemption { cheque_id: cheque.body.cheque_id, paid, released })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accounts::GbAccounts;
    use crate::clock::Clock;
    use crate::db::Database;
    use gridbank_crypto::keys::KeyMaterial;
    use gridbank_rur::record::{ChargeableItem, RurBuilder, UsageAmount};
    use gridbank_rur::units::Duration;
    use std::sync::Arc;

    struct Fixture {
        guarantee: FundsGuarantee,
        accounts: GbAccounts,
        signer: SigningIdentity,
        gsc: AccountId,
        gsp: AccountId,
    }

    fn fixture() -> Fixture {
        let db = Arc::new(Database::new(1, 1));
        let accounts = GbAccounts::new(db.clone(), Clock::new());
        let gsc = accounts.create_account("/CN=alice", None).unwrap();
        let gsp = accounts.create_account("/CN=gsp-alpha", None).unwrap();
        db.with_account_mut(&gsc, |r| {
            r.available = Credits::from_gd(100);
            Ok(())
        })
        .unwrap();
        Fixture {
            guarantee: FundsGuarantee::new(accounts.clone()),
            accounts,
            signer: SigningIdentity::generate_small(KeyMaterial { seed: 5 }, "bank"),
            gsc,
            gsp,
        }
    }

    fn office<'a>(f: &'a Fixture) -> ChequeOffice<'a> {
        ChequeOffice { guarantee: &f.guarantee, signer: &f.signer, branch: 1 }
    }

    fn rur_for(provider: &str, cpu_hours: u64, rate_gd: i64) -> ResourceUsageRecord {
        RurBuilder::default()
            .user("h", "/CN=alice")
            .job("j", "app", 0, cpu_hours * 3_600_000)
            .resource("r", provider, None, 1)
            .line(
                ChargeableItem::Cpu,
                UsageAmount::Time(Duration::from_hours(cpu_hours)),
                Credits::from_gd(rate_gd),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn issue_locks_funds_and_signs() {
        let f = fixture();
        let cheque =
            office(&f).issue(&f.gsc, "/CN=gsp-alpha", Credits::from_gd(30), 0, 1_000).unwrap();
        assert_eq!(f.accounts.account_details(&f.gsc).unwrap().locked, Credits::from_gd(30));
        cheque.verify(&f.signer.verifying_key(), Some("/CN=gsp-alpha"), 10).unwrap();
        // Body survives its codec.
        let decoded = ChequeBody::from_bytes(&cheque.body.to_bytes()).unwrap();
        assert_eq!(decoded, cheque.body);
    }

    #[test]
    fn cheque_cannot_be_redeemed_by_others() {
        let f = fixture();
        let cheque =
            office(&f).issue(&f.gsc, "/CN=gsp-alpha", Credits::from_gd(30), 0, 1_000).unwrap();
        assert!(matches!(
            cheque.verify(&f.signer.verifying_key(), Some("/CN=gsp-beta"), 10),
            Err(BankError::InvalidInstrument(_))
        ));
    }

    #[test]
    fn tampered_cheque_rejected() {
        let f = fixture();
        let mut cheque =
            office(&f).issue(&f.gsc, "/CN=gsp-alpha", Credits::from_gd(30), 0, 1_000).unwrap();
        cheque.body.reserved = Credits::from_gd(1_000_000);
        assert!(cheque.verify(&f.signer.verifying_key(), None, 10).is_err());
    }

    #[test]
    fn redeem_pays_actual_charge_and_releases_rest() {
        let f = fixture();
        let o = office(&f);
        let cheque = o.issue(&f.gsc, "/CN=gsp-alpha", Credits::from_gd(30), 0, 10_000_000).unwrap();
        // Actual usage: 2 CPU-hours at 5 G$/h = 10 G$.
        let rur = rur_for("/CN=gsp-alpha", 2, 5);
        let red = o.redeem(&cheque, &rur, "/CN=gsp-alpha", &f.gsp, 100).unwrap();
        assert_eq!(red.paid, Credits::from_gd(10));
        assert_eq!(red.released, Credits::from_gd(20));
        assert_eq!(f.accounts.account_details(&f.gsp).unwrap().available, Credits::from_gd(10));
        let gsc = f.accounts.account_details(&f.gsc).unwrap();
        assert_eq!(gsc.available, Credits::from_gd(90));
        assert_eq!(gsc.locked, Credits::ZERO);
        // The transfer carries the RUR blob as evidence.
        let st = f.accounts.statement(&f.gsp, 0, u64::MAX).unwrap();
        assert_eq!(st.transfers.len(), 1);
        let stored = ResourceUsageRecord::from_bytes(&st.transfers[0].rur_blob).unwrap();
        assert_eq!(stored, rur);
    }

    #[test]
    fn charge_capped_at_reservation() {
        let f = fixture();
        let o = office(&f);
        let cheque = o.issue(&f.gsc, "/CN=gsp-alpha", Credits::from_gd(10), 0, 10_000_000).unwrap();
        // Usage worth 50 G$ against a 10 G$ guarantee.
        let rur = rur_for("/CN=gsp-alpha", 10, 5);
        let red = o.redeem(&cheque, &rur, "/CN=gsp-alpha", &f.gsp, 100).unwrap();
        assert_eq!(red.paid, Credits::from_gd(10));
    }

    #[test]
    fn double_redemption_rejected() {
        let f = fixture();
        let o = office(&f);
        let cheque = o.issue(&f.gsc, "/CN=gsp-alpha", Credits::from_gd(10), 0, 10_000_000).unwrap();
        let rur = rur_for("/CN=gsp-alpha", 1, 5);
        o.redeem(&cheque, &rur, "/CN=gsp-alpha", &f.gsp, 100).unwrap();
        assert!(matches!(
            o.redeem(&cheque, &rur, "/CN=gsp-alpha", &f.gsp, 100),
            Err(BankError::AlreadyRedeemed(_))
        ));
    }

    #[test]
    fn foreign_rur_rejected() {
        let f = fixture();
        let o = office(&f);
        let cheque = o.issue(&f.gsc, "/CN=gsp-alpha", Credits::from_gd(10), 0, 10_000_000).unwrap();
        let rur = rur_for("/CN=gsp-beta", 1, 5);
        assert!(matches!(
            o.redeem(&cheque, &rur, "/CN=gsp-alpha", &f.gsp, 100),
            Err(BankError::InvalidInstrument(_))
        ));
    }

    #[test]
    fn expired_cheque_rejected() {
        let f = fixture();
        let o = office(&f);
        let cheque = o.issue(&f.gsc, "/CN=gsp-alpha", Credits::from_gd(10), 0, 500).unwrap();
        let rur = rur_for("/CN=gsp-alpha", 1, 5);
        assert!(o.redeem(&cheque, &rur, "/CN=gsp-alpha", &f.gsp, 600).is_err());
        assert_eq!(f.accounts.account_details(&f.gsc).unwrap().locked, Credits::from_gd(10));
    }
}
