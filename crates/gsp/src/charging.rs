//! The GridBank Charging Module (GBCM).
//!
//! §6 summarizes its duties: "determining legitimacy of payment
//! instruments passed to it by the GridBank Payment Module, setting up
//! and removing (after execution of user application) temporary local
//! accounts, calculating total charge using the Resource Usage Record and
//! the service rates passed by the Grid Trade Service, and redeeming the
//! payment with the GridBank server."
//!
//! Account setup/removal lives in [`crate::provider`] (it owns the pool
//! and mapfile); this module is instrument validation, charge
//! calculation, and redemption.

use gridbank_core::cheque::GridCheque;
use gridbank_core::client::{BankClient, BankLink};
use gridbank_core::direct::TransferConfirmation;
use gridbank_core::payword::{ChainCommitment, GridHashChain, PayWord};
use gridbank_crypto::keys::VerifyingKey;
use gridbank_crypto::merkle::MerkleSignature;
use gridbank_rur::codec::Encode;
use gridbank_rur::record::ResourceUsageRecord;
use gridbank_rur::Credits;
use gridbank_trade::rates::ServiceRates;

use crate::error::GspError;

/// The credentials a GSC presents with a job (§2.3: "we consider such
/// credentials to be a payment instrument that GSC obtains from the
/// GridBank").
#[derive(Clone, Debug)]
pub enum PaymentInstrument {
    /// Pay-after-use: a bank-signed cheque made out to this GSP.
    Cheque(GridCheque),
    /// Pay-as-you-go: a bank-signed hash-chain commitment; paywords flow
    /// during execution.
    HashChain {
        /// The commitment.
        commitment: ChainCommitment,
        /// Bank signature over the commitment.
        signature: MerkleSignature,
    },
    /// Pay-before-use: a bank-signed confirmation that the fixed price
    /// was already transferred.
    Prepaid(TransferConfirmation),
}

impl PaymentInstrument {
    /// The guaranteed value this instrument carries.
    pub fn guaranteed_value(&self) -> Credits {
        match self {
            PaymentInstrument::Cheque(c) => c.body.reserved,
            PaymentInstrument::HashChain { commitment, .. } => commitment
                .value_per_word
                .checked_mul(commitment.length as i128)
                .unwrap_or(Credits::MAX),
            PaymentInstrument::Prepaid(conf) => conf.body.amount,
        }
    }
}

/// The charging module, bound to the GSP's identity and a bank client.
pub struct ChargingModule<L: BankLink> {
    /// The bank's well-known verifying key (instruments check offline).
    pub bank_key: VerifyingKey,
    /// This GSP's certificate name.
    pub gsp_cert: String,
    /// Bank access for redemption.
    pub port: BankClient<L>,
}

impl<L: BankLink> ChargingModule<L> {
    /// Creates a module.
    pub fn new(bank_key: VerifyingKey, gsp_cert: impl Into<String>, port: BankClient<L>) -> Self {
        ChargingModule { bank_key, gsp_cert: gsp_cert.into(), port }
    }

    /// Validates an instrument *before* granting access (§2.3: access is
    /// granted only on a "well-formed payment instrument").
    pub fn validate_instrument(
        &mut self,
        instrument: &PaymentInstrument,
        now_ms: u64,
    ) -> Result<(), GspError> {
        let kind = match instrument {
            PaymentInstrument::Cheque(_) => "Cheque",
            PaymentInstrument::HashChain { .. } => "HashChain",
            PaymentInstrument::Prepaid(_) => "Prepaid",
        };
        let mut span = gridbank_obs::span("gsp.charging", "validate_instrument");
        span.attr("instrument", kind.to_string());
        let timer = gridbank_obs::Stopwatch::start();
        let out = self.validate_instrument_inner(instrument, now_ms);
        gridbank_obs::count(
            if out.is_ok() {
                "gsp.charging.instruments_accepted"
            } else {
                "gsp.charging.instruments_rejected"
            },
            1,
        );
        timer.record_named_label("gsp.charging.validate_ns", kind);
        out
    }

    fn validate_instrument_inner(
        &mut self,
        instrument: &PaymentInstrument,
        now_ms: u64,
    ) -> Result<(), GspError> {
        match instrument {
            PaymentInstrument::Cheque(cheque) => cheque
                .verify(&self.bank_key, Some(&self.gsp_cert), now_ms)
                .map_err(|e| GspError::PaymentRejected(e.to_string())),
            PaymentInstrument::HashChain { commitment, signature } => {
                GridHashChain::verify_commitment(commitment, signature, &self.bank_key)
                    .map_err(|e| GspError::PaymentRejected(e.to_string()))?;
                if commitment.payee_cert != self.gsp_cert {
                    return Err(GspError::PaymentRejected(format!(
                        "chain payable to `{}`",
                        commitment.payee_cert
                    )));
                }
                if now_ms >= commitment.expires_ms {
                    return Err(GspError::PaymentRejected("chain expired".into()));
                }
                Ok(())
            }
            PaymentInstrument::Prepaid(conf) => {
                conf.verify(&self.bank_key)
                    .map_err(|e| GspError::PaymentRejected(e.to_string()))?;
                let my_account = self.port.my_account()?;
                if conf.body.recipient != my_account.id {
                    return Err(GspError::PaymentRejected(format!(
                        "prepaid confirmation pays {}, not this GSP's account {}",
                        conf.body.recipient, my_account.id
                    )));
                }
                Ok(())
            }
        }
    }

    /// "Calculating total charge using the Resource Usage Record and the
    /// service rates": conformance check then itemized total (§2.1).
    pub fn compute_charge(
        &self,
        rates: &ServiceRates,
        rur: &ResourceUsageRecord,
    ) -> Result<Credits, GspError> {
        let _span = gridbank_obs::span("gsp.charging", "compute_charge");
        let timer = gridbank_obs::Stopwatch::start();
        let charge = rates.charge(rur);
        timer.record_named("gsp.charging.compute_charge_ns");
        Ok(charge?)
    }

    /// Redeems a cheque with the bank; returns (paid, released).
    pub fn redeem_cheque(
        &mut self,
        cheque: GridCheque,
        rur: ResourceUsageRecord,
    ) -> Result<(Credits, Credits), GspError> {
        let _span = gridbank_obs::span("gsp.charging", "redeem_cheque");
        let timer = gridbank_obs::Stopwatch::start();
        let out = self.port.redeem_cheque(cheque, rur);
        timer.record_named("gsp.charging.redeem_cheque_ns");
        Ok(out?)
    }

    /// Redeems paywords up to `payword.index`; verifies the word against
    /// the commitment locally first (no point shipping junk to the bank).
    pub fn redeem_payword(
        &mut self,
        commitment: &ChainCommitment,
        signature: &MerkleSignature,
        payword: PayWord,
        rur: Option<&ResourceUsageRecord>,
    ) -> Result<Credits, GspError> {
        let _span = gridbank_obs::span("gsp.charging", "redeem_payword");
        let verify_timer = gridbank_obs::Stopwatch::start();
        let verified = payword.verify(&commitment.root, commitment.length);
        verify_timer.record_named("gsp.charging.payword_verify_ns");
        verified.map_err(|e| GspError::PaymentRejected(e.to_string()))?;
        let blob = rur.map(|r| r.to_bytes()).unwrap_or_default();
        let timer = gridbank_obs::Stopwatch::start();
        let out = self.port.redeem_payword(commitment.clone(), signature.clone(), payword, blob);
        timer.record_named("gsp.charging.redeem_payword_ns");
        Ok(out?)
    }

    /// Converts a charge into the number of paywords that cover it
    /// (ceiling division). May exceed the chain length — callers compare
    /// against `commitment.length` to detect an underfunded chain.
    pub fn words_for_charge(commitment: &ChainCommitment, charge: Credits) -> u32 {
        if !charge.is_positive() {
            return 0;
        }
        // Both operands are positive here (guarded above; value_per_word
        // is clamped to >= 1), so widening into u128 is exact and
        // div_ceil replaces the overflow-prone `(a + b - 1) / b` idiom.
        let per = commitment.value_per_word.micro().max(1) as u128;
        let words = (charge.micro() as u128).div_ceil(per);
        words.min(u32::MAX as u128) as u32
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
    use gridbank_rur::record::{ChargeableItem, RurBuilder, UsageAmount};
    use gridbank_rur::units::Duration;
    use std::sync::Arc;

    struct World {
        bank: Arc<GridBank>,
        gsc: SubjectName,
        gsp: SubjectName,
    }

    fn world() -> World {
        let bank = Arc::new(GridBank::new(
            GridBankConfig { signer_height: 6, ..GridBankConfig::default() },
            Clock::new(),
        ));
        let gsc = SubjectName::new("UWA", "CSSE", "alice");
        let gsp = SubjectName::new("UM", "GRIDS", "gsp-alpha");
        let admin = SubjectName("/O=GridBank/OU=Admin/CN=operator".into());
        let mut gsc_port = InProcessBank::new(bank.clone(), gsc.clone());
        let acct = gsc_port.create_account(None).unwrap();
        let mut gsp_port = InProcessBank::new(bank.clone(), gsp.clone());
        gsp_port.create_account(None).unwrap();
        bank.handle(
            &admin,
            BankRequest::AdminDeposit { account: acct, amount: Credits::from_gd(100) },
        );
        World { bank, gsc, gsp }
    }

    fn gbcm(w: &World) -> ChargingModule<DirectLink> {
        ChargingModule::new(
            w.bank.verifying_key(),
            w.gsp.0.clone(),
            InProcessBank::new(w.bank.clone(), w.gsp.clone()),
        )
    }

    fn rur(w: &World, hours: u64, rate: Credits) -> ResourceUsageRecord {
        RurBuilder::default()
            .user("h", &w.gsc.0)
            .job("j", "a", 0, hours * 3_600_000)
            .resource("r", &w.gsp.0, None, 1)
            .line(ChargeableItem::Cpu, UsageAmount::Time(Duration::from_hours(hours)), rate)
            .build()
            .unwrap()
    }

    #[test]
    fn cheque_validate_and_redeem() {
        let w = world();
        let mut gsc_port = InProcessBank::new(w.bank.clone(), w.gsc.clone());
        let cheque = gsc_port.request_cheque(&w.gsp.0, Credits::from_gd(20), 100_000).unwrap();
        let mut m = gbcm(&w);
        m.validate_instrument(&PaymentInstrument::Cheque(cheque.clone()), 10).unwrap();

        let rates = ServiceRates::new().with(ChargeableItem::Cpu, Credits::from_gd(3));
        let record = rur(&w, 2, Credits::from_gd(3));
        let charge = m.compute_charge(&rates, &record).unwrap();
        assert_eq!(charge, Credits::from_gd(6));
        let (paid, released) = m.redeem_cheque(cheque, record).unwrap();
        assert_eq!(paid, Credits::from_gd(6));
        assert_eq!(released, Credits::from_gd(14));
    }

    #[test]
    fn wrong_payee_cheque_rejected_before_work() {
        let w = world();
        let mut gsc_port = InProcessBank::new(w.bank.clone(), w.gsc.clone());
        let cheque = gsc_port
            .request_cheque("/O=Other/OU=X/CN=gsp-beta", Credits::from_gd(20), 100_000)
            .unwrap();
        let mut m = gbcm(&w);
        assert!(matches!(
            m.validate_instrument(&PaymentInstrument::Cheque(cheque), 10),
            Err(GspError::PaymentRejected(_))
        ));
    }

    #[test]
    fn nonconforming_rur_never_reaches_the_bank() {
        let w = world();
        let m = gbcm(&w);
        // Rates price CPU at 3 but the RUR claims 9.
        let rates = ServiceRates::new().with(ChargeableItem::Cpu, Credits::from_gd(3));
        let record = rur(&w, 1, Credits::from_gd(9));
        assert!(matches!(m.compute_charge(&rates, &record), Err(GspError::Trade(_))));
    }

    #[test]
    fn hash_chain_validate_and_incremental_redeem() {
        let w = world();
        let mut gsc_port = InProcessBank::new(w.bank.clone(), w.gsc.clone());
        let chain =
            gsc_port.request_hash_chain(&w.gsp.0, 10, Credits::from_gd(1), 100_000).unwrap();
        let mut m = gbcm(&w);
        let instrument = PaymentInstrument::HashChain {
            commitment: chain.commitment.clone(),
            signature: chain.signature.clone(),
        };
        m.validate_instrument(&instrument, 10).unwrap();
        assert_eq!(instrument.guaranteed_value(), Credits::from_gd(10));

        // Charge of 2.5 G$ needs 3 words.
        let words = ChargingModule::<DirectLink>::words_for_charge(
            &chain.commitment,
            Credits::from_micro(2_500_000),
        );
        assert_eq!(words, 3);
        let pw = chain.payword(words).unwrap();
        let paid = m.redeem_payword(&chain.commitment, &chain.signature, pw, None).unwrap();
        assert_eq!(paid, Credits::from_gd(3));

        // A forged word fails locally.
        let forged = PayWord { index: 5, word: gridbank_crypto::sha256::sha256(b"nope") };
        assert!(matches!(
            m.redeem_payword(&chain.commitment, &chain.signature, forged, None),
            Err(GspError::PaymentRejected(_))
        ));
    }

    #[test]
    fn prepaid_validation_checks_recipient() {
        let w = world();
        let mut gsc_port = InProcessBank::new(w.bank.clone(), w.gsc.clone());
        let mut m = gbcm(&w);
        let gsp_account = m.port.my_account().unwrap().id;
        let conf =
            gsc_port.direct_transfer(gsp_account, Credits::from_gd(2), "gsp.grid.org").unwrap();
        m.validate_instrument(&PaymentInstrument::Prepaid(conf), 5).unwrap();

        // A confirmation paying someone else is refused.
        let mallory = SubjectName::new("E", "E", "mallory");
        let mut mallory_port = InProcessBank::new(w.bank.clone(), mallory);
        let mallory_acct = mallory_port.create_account(None).unwrap();
        let conf2 = gsc_port.direct_transfer(mallory_acct, Credits::from_gd(2), "x").unwrap();
        assert!(matches!(
            m.validate_instrument(&PaymentInstrument::Prepaid(conf2), 5),
            Err(GspError::PaymentRejected(_))
        ));
    }

    #[test]
    fn words_for_charge_boundaries() {
        let w = world();
        let mut gsc_port = InProcessBank::new(w.bank.clone(), w.gsc.clone());
        let chain = gsc_port.request_hash_chain(&w.gsp.0, 5, Credits::from_gd(2), 100_000).unwrap();
        let c = &chain.commitment;
        type M = ChargingModule<DirectLink>;
        assert_eq!(M::words_for_charge(c, Credits::ZERO), 0);
        assert_eq!(M::words_for_charge(c, Credits::from_micro(1)), 1);
        assert_eq!(M::words_for_charge(c, Credits::from_gd(2)), 1);
        assert_eq!(M::words_for_charge(c, Credits::from_micro(2_000_001)), 2);
        // May exceed the chain length — the caller detects underfunding.
        assert_eq!(M::words_for_charge(c, Credits::from_gd(1_000)), 500);
        assert!(M::words_for_charge(c, Credits::from_gd(1_000)) > c.length);
    }
}
