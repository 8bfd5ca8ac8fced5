//! GridHash — the pay-as-you-go payment instrument (§3.1).
//!
//! "A hash chain scheme based on PayWord would allow service consumers to
//! dynamically pay service providers for CPU time or per each computation
//! result delivered."
//!
//! The bank generates a hash chain `w_n → w_{n-1} → … → w_0` with
//! `w_i = H(w_{i+1})`, signs a commitment to the *root* `w_0`, the chain
//! length and the value per payword, and locks `n × value` on the drawer
//! (§3.4 guarantee). The GSC holds the full chain and pays the GSP by
//! revealing successive paywords: revealing `w_k` proves entitlement to
//! `k` paywords because `H^k(w_k) = w_0` is one-way. The GSP redeems
//! incrementally or at the end; the bank keeps the highest word paid per
//! chain, so replaying an old payword pays nothing, and a new word is
//! checked by hashing it back to the last word paid, not to the root.

use gridbank_crypto::keys::{SigningIdentity, VerifyingKey};
use gridbank_crypto::merkle::MerkleSignature;
use gridbank_crypto::rng::DeterministicStream;
use gridbank_crypto::sha256::{iterate_hash, sha256, Digest};
use gridbank_rur::codec::{ByteReader, ByteWriter, Decode, Encode};
use gridbank_rur::{Credits, RurError};

use crate::sync::Mutex;

use crate::db::AccountId;
use crate::error::BankError;
use crate::guarantee::{ChainTerms, FundsGuarantee};

/// One revealed payword: the preimage and its index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PayWord {
    /// Chain index: revealing `word` at index `k` pays for `k` units.
    pub index: u32,
    /// The `k`-th preimage of the committed root.
    pub word: Digest,
}

impl PayWord {
    /// Verifies this payword against a committed root.
    pub fn verify(&self, root: &Digest, max_len: u32) -> Result<(), BankError> {
        if self.index == 0 || self.index > max_len {
            return Err(BankError::InvalidInstrument(format!(
                "payword index {} outside 1..={max_len}",
                self.index
            )));
        }
        if iterate_hash(self.word, self.index as usize) != *root {
            return Err(BankError::InvalidInstrument(
                "payword does not hash to the committed root".into(),
            ));
        }
        Ok(())
    }

    /// Verifies this payword against `paid`, a word already known to lie
    /// on the same chain (its root at index 0, or the last word paid),
    /// with one hash per index between the two: a later word must hash
    /// to `paid`, an earlier one must be what `paid` hashes to. For a
    /// `paid` on the chain this accepts exactly what [`PayWord::verify`]
    /// against the root accepts.
    pub fn verify_from(&self, paid: &PayWord, max_len: u32) -> Result<(), BankError> {
        if self.index == 0 || self.index > max_len {
            return Err(BankError::InvalidInstrument(format!(
                "payword index {} outside 1..={max_len}",
                self.index
            )));
        }
        let linked = match self.index.checked_sub(paid.index) {
            Some(ahead) => iterate_hash(self.word, ahead as usize) == paid.word,
            None => {
                iterate_hash(paid.word, paid.index.saturating_sub(self.index) as usize) == self.word
            }
        };
        if !linked {
            return Err(BankError::InvalidInstrument(format!(
                "payword does not hash to the word paid at index {}",
                paid.index
            )));
        }
        Ok(())
    }
}

/// The bank-signed chain commitment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChainCommitment {
    /// Instrument id — also the reservation id.
    pub chain_id: u64,
    /// Drawer (GSC) account.
    pub drawer: AccountId,
    /// Payee certificate name the chain is bound to.
    pub payee_cert: String,
    /// Chain root `w_0`.
    pub root: Digest,
    /// Chain length `n`.
    pub length: u32,
    /// Value of each payword.
    pub value_per_word: Credits,
    /// Issue time.
    pub issued_ms: u64,
    /// Expiry.
    pub expires_ms: u64,
}

impl Encode for ChainCommitment {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u8(1);
        w.put_u64(self.chain_id);
        w.put_str(&self.drawer.to_string());
        w.put_str(&self.payee_cert);
        w.put_bytes(self.root.as_bytes());
        w.put_u32(self.length);
        self.value_per_word.encode(w);
        w.put_u64(self.issued_ms);
        w.put_u64(self.expires_ms);
    }
}

impl Decode for ChainCommitment {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, RurError> {
        let v = r.get_u8()?;
        if v != 1 {
            return Err(RurError::Decode(format!("chain version {v}")));
        }
        let chain_id = r.get_u64()?;
        let drawer = AccountId::parse(&r.get_str()?)
            .ok_or_else(|| RurError::Decode("bad drawer id".into()))?;
        let payee_cert = r.get_str()?;
        let root_bytes = r.get_bytes()?;
        if root_bytes.len() != 32 {
            return Err(RurError::Decode("bad root length".into()));
        }
        let mut root = [0u8; 32];
        root.copy_from_slice(root_bytes);
        Ok(ChainCommitment {
            chain_id,
            drawer,
            payee_cert,
            root: Digest(root),
            length: r.get_u32()?,
            value_per_word: Credits::decode(r)?,
            issued_ms: r.get_u64()?,
            expires_ms: r.get_u64()?,
        })
    }
}

/// What the GSC receives: the signed commitment plus the secret chain.
pub struct GridHashChain {
    /// The bank-signed commitment (shareable with the GSP).
    pub commitment: ChainCommitment,
    /// Bank signature over the commitment.
    pub signature: MerkleSignature,
    /// The full chain, `chain[i] = w_i` for `i` in `0..=n`. `chain[0]` is
    /// the public root; higher indices are secret until spent.
    chain: Vec<Digest>,
}

impl GridHashChain {
    /// The payword paying for `k` units (1-based).
    pub fn payword(&self, k: u32) -> Result<PayWord, BankError> {
        if k == 0 || k > self.commitment.length {
            return Err(BankError::InvalidInstrument(format!(
                "cannot spend {k} of {} paywords",
                self.commitment.length
            )));
        }
        Ok(PayWord { index: k, word: self.chain[k as usize] })
    }

    /// Verifies the bank signature on the commitment.
    pub fn verify_commitment(
        commitment: &ChainCommitment,
        signature: &MerkleSignature,
        bank_key: &VerifyingKey,
    ) -> Result<(), BankError> {
        bank_key
            .verify(&commitment.to_bytes(), signature)
            .map_err(|_| BankError::InvalidInstrument("bad bank signature on chain".into()))
    }
}

/// Bank-side chain issuance and redemption. A chain's terms and the last
/// word paid live on its reservation ([`ChainTerms`],
/// [`FundsGuarantee::settle_words`]).
pub struct PayWordOffice<'a> {
    /// Guarantee registry backing chain reservations.
    pub guarantee: &'a FundsGuarantee,
    /// Bank signing identity.
    pub signer: &'a SigningIdentity,
    /// Secret-generation stream (bank-internal).
    pub secrets: &'a Mutex<DeterministicStream>,
}

impl PayWordOffice<'_> {
    /// Issues a chain of `length` paywords each worth `value_per_word`,
    /// locking the full value on the drawer.
    pub fn issue(
        &self,
        drawer: &AccountId,
        payee_cert: &str,
        length: u32,
        value_per_word: Credits,
        now_ms: u64,
        validity_ms: u64,
    ) -> Result<GridHashChain, BankError> {
        if length == 0 {
            return Err(BankError::Protocol("zero-length chain".into()));
        }
        if !value_per_word.is_positive() {
            return Err(BankError::NonPositiveAmount);
        }
        let total = value_per_word.checked_mul(length as i128)?;
        let chain_id =
            self.guarantee.reserve_until(drawer, total, now_ms.saturating_add(validity_ms))?;

        // Build the chain from a fresh secret tip.
        let tip = {
            let mut s = self.secrets.lock();
            // Mix the chain id in so two chains never share a tip.
            sha256(&[s.next_digest().as_bytes().as_slice(), &chain_id.to_be_bytes()].concat())
        };
        let mut chain = vec![Digest::ZERO; (length as usize).saturating_add(1)];
        chain[length as usize] = tip;
        let mut next = tip;
        for word in chain.iter_mut().take(length as usize).rev() {
            *word = sha256(next.as_bytes());
            next = *word;
        }
        let commitment = ChainCommitment {
            chain_id,
            drawer: *drawer,
            payee_cert: payee_cert.to_string(),
            root: chain[0],
            length,
            value_per_word,
            issued_ms: now_ms,
            expires_ms: now_ms.saturating_add(validity_ms),
        };
        self.guarantee.record_chain(
            chain_id,
            ChainTerms {
                payee_cert: payee_cert.to_string(),
                length,
                value_per_word,
                paid: PayWord { index: 0, word: commitment.root },
            },
        );
        let signature =
            self.guarantee.sign_instrument(chain_id, self.signer, &commitment.to_bytes())?;
        Ok(GridHashChain { commitment, signature, chain })
    }

    /// Redeems up to payword `pay.index`. Pays the *delta* over the
    /// highest previously redeemed index — incremental redemption; a
    /// replay of an old or equal index pays zero and errors. A commitment
    /// and signature that are byte for byte the ones this bank issued
    /// against the chain's reservation are recognised; any others have the
    /// bank signature verified. The word is then paid from the
    /// reservation's record, as [`PayWordOffice::redeem_by_id`] pays it.
    pub fn redeem(
        &self,
        commitment: &ChainCommitment,
        signature: &MerkleSignature,
        pay: &PayWord,
        payee_account: &AccountId,
        rur_blob: Vec<u8>,
        now_ms: u64,
    ) -> Result<Credits, BankError> {
        if !self.guarantee.recognises(commitment.chain_id, &commitment.to_bytes(), signature) {
            GridHashChain::verify_commitment(commitment, signature, &self.signer.verifying_key())?;
        }
        if now_ms >= commitment.expires_ms {
            return Err(BankError::InvalidInstrument("chain expired".into()));
        }
        self.guarantee.settle_words(
            commitment.chain_id,
            pay,
            &commitment.payee_cert,
            now_ms,
            || Ok(*payee_account),
            rur_blob,
        )
    }

    /// Redeems up to payword `pay.index` of chain `chain_id` from the
    /// chain's reservation alone: the bank checks that `caller_cert` is
    /// the payee it recorded at issue, that the chain has not expired, and
    /// that the word hashes to the last word paid. Counts one
    /// `core.instrument.by_id`.
    pub fn redeem_by_id(
        &self,
        chain_id: u64,
        pay: &PayWord,
        caller_cert: &str,
        payee: impl FnOnce() -> Result<AccountId, BankError>,
        rur_blob: Vec<u8>,
        now_ms: u64,
    ) -> Result<Credits, BankError> {
        gridbank_obs::count("core.instrument.by_id", 1);
        self.guarantee.settle_words(chain_id, pay, caller_cert, now_ms, payee, rur_blob)
    }

    /// Closes out a chain after final redemption or expiry, releasing the
    /// unspent reservation to the drawer.
    pub fn close(&self, commitment: &ChainCommitment, now_ms: u64) -> Result<Credits, BankError> {
        let redeemed_idx = self
            .guarantee
            .get(commitment.chain_id)
            .and_then(|r| r.chain)
            .map_or(0, |chain| chain.paid.index);
        // Before expiry, only a fully spent chain may close early.
        if now_ms < commitment.expires_ms && redeemed_idx < commitment.length {
            return Err(BankError::InvalidInstrument(
                "chain still live and not fully spent".into(),
            ));
        }
        self.guarantee.release(commitment.chain_id).or_else(|e| {
            // Fully settled chains have nothing to release.
            if redeemed_idx == commitment.length {
                if let BankError::AlreadyRedeemed(_) = e {
                    return Ok(Credits::ZERO);
                }
            }
            Err(e)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accounts::GbAccounts;
    use crate::clock::Clock;
    use crate::db::Database;
    use gridbank_crypto::keys::KeyMaterial;
    use proptest::prelude::*;
    use std::sync::Arc;

    struct Fixture {
        guarantee: FundsGuarantee,
        accounts: GbAccounts,
        signer: SigningIdentity,
        secrets: Mutex<DeterministicStream>,
        gsc: AccountId,
        gsp: AccountId,
    }

    fn fixture() -> Fixture {
        let db = Arc::new(Database::new(1, 1));
        let accounts = GbAccounts::new(db.clone(), Clock::new());
        let gsc = accounts.create_account("/CN=alice", None).unwrap();
        let gsp = accounts.create_account("/CN=gsp", None).unwrap();
        db.with_account_mut(&gsc, |r| {
            r.available = Credits::from_gd(100);
            Ok(())
        })
        .unwrap();
        Fixture {
            guarantee: FundsGuarantee::new(accounts.clone()),
            accounts,
            signer: SigningIdentity::generate_small(KeyMaterial { seed: 8 }, "bank"),
            secrets: Mutex::new(DeterministicStream::from_u64(77, b"chains")),
            gsc,
            gsp,
        }
    }

    fn office<'a>(f: &'a Fixture) -> PayWordOffice<'a> {
        PayWordOffice { guarantee: &f.guarantee, signer: &f.signer, secrets: &f.secrets }
    }

    #[test]
    fn issue_builds_valid_chain_and_locks_funds() {
        let f = fixture();
        let chain =
            office(&f).issue(&f.gsc, "/CN=gsp", 20, Credits::from_gd(1), 0, 10_000).unwrap();
        assert_eq!(f.accounts.account_details(&f.gsc).unwrap().locked, Credits::from_gd(20));
        // Every payword verifies against the root.
        for k in 1..=20 {
            chain.payword(k).unwrap().verify(&chain.commitment.root, 20).unwrap();
        }
        assert!(chain.payword(0).is_err());
        assert!(chain.payword(21).is_err());
        // Commitment codec round-trips.
        let decoded = ChainCommitment::from_bytes(&chain.commitment.to_bytes()).unwrap();
        assert_eq!(decoded, chain.commitment);
    }

    #[test]
    fn paywords_are_one_way() {
        let f = fixture();
        let chain = office(&f).issue(&f.gsc, "/CN=gsp", 5, Credits::from_gd(1), 0, 10_000).unwrap();
        // Knowing w_2 gives w_1 (hash forward) but never w_3: a forged
        // index-3 claim with a guessed word fails.
        let forged = PayWord { index: 3, word: sha256(b"guess") };
        assert!(forged.verify(&chain.commitment.root, 5).is_err());
        // Claiming a valid word at the wrong index also fails.
        let w2 = chain.payword(2).unwrap();
        let wrong_index = PayWord { index: 3, word: w2.word };
        assert!(wrong_index.verify(&chain.commitment.root, 5).is_err());
    }

    #[test]
    fn incremental_redemption_pays_deltas() {
        let f = fixture();
        let o = office(&f);
        let chain = o.issue(&f.gsc, "/CN=gsp", 10, Credits::from_gd(1), 0, 10_000).unwrap();
        let c = &chain.commitment;
        let s = &chain.signature;

        // Redeem through 3: pays 3.
        let paid = o.redeem(c, s, &chain.payword(3).unwrap(), &f.gsp, vec![], 10).unwrap();
        assert_eq!(paid, Credits::from_gd(3));
        // Redeem through 7: pays 4 more.
        let paid = o.redeem(c, s, &chain.payword(7).unwrap(), &f.gsp, vec![], 20).unwrap();
        assert_eq!(paid, Credits::from_gd(4));
        assert_eq!(f.accounts.account_details(&f.gsp).unwrap().available, Credits::from_gd(7));

        // Replaying index 7 or lower is refused.
        assert!(matches!(
            o.redeem(c, s, &chain.payword(7).unwrap(), &f.gsp, vec![], 30),
            Err(BankError::AlreadyRedeemed(_))
        ));
        assert!(matches!(
            o.redeem(c, s, &chain.payword(2).unwrap(), &f.gsp, vec![], 30),
            Err(BankError::AlreadyRedeemed(_))
        ));

        // Close before expiry with words left is refused; after expiry the
        // drawer gets the remaining 3 back.
        assert!(o.close(c, 100).is_err());
        assert_eq!(o.close(c, 10_001).unwrap(), Credits::from_gd(3));
        let gsc = f.accounts.account_details(&f.gsc).unwrap();
        assert_eq!(gsc.available, Credits::from_gd(93));
        assert_eq!(gsc.locked, Credits::ZERO);
    }

    #[test]
    fn fully_spent_chain_closes_early() {
        let f = fixture();
        let o = office(&f);
        let chain = o.issue(&f.gsc, "/CN=gsp", 4, Credits::from_gd(2), 0, 10_000).unwrap();
        o.redeem(
            &chain.commitment,
            &chain.signature,
            &chain.payword(4).unwrap(),
            &f.gsp,
            vec![],
            5,
        )
        .unwrap();
        assert_eq!(o.close(&chain.commitment, 6).unwrap(), Credits::ZERO);
        assert_eq!(f.accounts.account_details(&f.gsp).unwrap().available, Credits::from_gd(8));
    }

    #[test]
    fn expired_chain_rejects_redemption() {
        let f = fixture();
        let o = office(&f);
        let chain = o.issue(&f.gsc, "/CN=gsp", 4, Credits::from_gd(1), 0, 100).unwrap();
        assert!(matches!(
            o.redeem(
                &chain.commitment,
                &chain.signature,
                &chain.payword(1).unwrap(),
                &f.gsp,
                vec![],
                100
            ),
            Err(BankError::InvalidInstrument(_))
        ));
    }

    #[test]
    fn forged_commitment_rejected() {
        let f = fixture();
        let o = office(&f);
        let chain = o.issue(&f.gsc, "/CN=gsp", 4, Credits::from_gd(1), 0, 10_000).unwrap();
        let mut forged = chain.commitment.clone();
        forged.value_per_word = Credits::from_gd(1_000);
        assert!(matches!(
            o.redeem(&forged, &chain.signature, &chain.payword(1).unwrap(), &f.gsp, vec![], 10),
            Err(BankError::InvalidInstrument(_))
        ));
    }

    #[test]
    fn issue_validates_inputs() {
        let f = fixture();
        let o = office(&f);
        assert!(o.issue(&f.gsc, "/CN=gsp", 0, Credits::from_gd(1), 0, 10).is_err());
        assert!(o.issue(&f.gsc, "/CN=gsp", 5, Credits::ZERO, 0, 10).is_err());
        // Total beyond balance.
        assert!(matches!(
            o.issue(&f.gsc, "/CN=gsp", 200, Credits::from_gd(1), 0, 10),
            Err(BankError::InsufficientFunds { .. })
        ));
    }

    #[test]
    fn distinct_chains_have_distinct_roots() {
        let f = fixture();
        let o = office(&f);
        let c1 = o.issue(&f.gsc, "/CN=gsp", 4, Credits::from_gd(1), 0, 10_000).unwrap();
        let c2 = o.issue(&f.gsc, "/CN=gsp", 4, Credits::from_gd(1), 0, 10_000).unwrap();
        assert_ne!(c1.commitment.root, c2.commitment.root);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Checking each word against the last word accepted, as the bank
        /// does, accepts exactly the words that hash to the root: over
        /// index sequences that climb, repeat and fall back, with every
        /// fourth word on average taken from another index or another
        /// chain.
        #[test]
        fn the_delta_check_accepts_what_the_root_check_accepts(
            tip in any::<u64>(),
            steps in proptest::collection::vec((-3i64..=6, 0u8..8), 1..40),
        ) {
            const N: u32 = 24;
            let mut chain = vec![sha256(&tip.to_be_bytes())];
            for _ in 0..N {
                let next = sha256(chain[chain.len() - 1].as_bytes());
                chain.push(next);
            }
            chain.reverse();
            let root = chain[0];
            let mut paid = PayWord { index: 0, word: root };
            let mut index = 0i64;
            for (step, swap) in steps {
                index = (index + step).clamp(0, i64::from(N) + 1);
                let at = index as u32;
                let word = match swap {
                    0 => chain[((at + 1) % (N + 1)) as usize],
                    1 => sha256(&[swap, at as u8]),
                    _ => chain.get(at as usize).copied().unwrap_or(root),
                };
                let pay = PayWord { index: at, word };
                let by_root = pay.verify(&root, N).is_ok();
                prop_assert_eq!(pay.verify_from(&paid, N).is_ok(), by_root);
                if by_root && at > paid.index {
                    paid = pay;
                }
            }
        }
    }

    #[test]
    fn a_redeem_by_id_pays_from_the_reservation_alone() {
        let f = fixture();
        let o = office(&f);
        let chain = o.issue(&f.gsc, "/CN=gsp", 10, Credits::from_gd(1), 0, 1_000).unwrap();
        let id = chain.commitment.chain_id;
        let by_id = |k: u32, cert: &str, now| {
            o.redeem_by_id(id, &chain.payword(k).unwrap(), cert, || Ok(f.gsp), vec![], now)
        };
        assert_eq!(by_id(4, "/CN=gsp", 10).unwrap(), Credits::from_gd(4));
        assert!(matches!(by_id(6, "/CN=alice", 10), Err(BankError::NotAuthorized(_))));
        assert!(matches!(by_id(4, "/CN=gsp", 10), Err(BankError::AlreadyRedeemed(_))));
        assert!(matches!(by_id(6, "/CN=gsp", 1_000), Err(BankError::InvalidInstrument(_))));
        // The full form and the short form advance the same record.
        let full = o.redeem(
            &chain.commitment,
            &chain.signature,
            &chain.payword(7).unwrap(),
            &f.gsp,
            vec![],
            20,
        );
        assert_eq!(full.unwrap(), Credits::from_gd(3));
        assert_eq!(by_id(10, "/CN=gsp", 30).unwrap(), Credits::from_gd(3));
        assert_eq!(f.accounts.account_details(&f.gsp).unwrap().available, Credits::from_gd(10));
        assert_eq!(o.close(&chain.commitment, 40).unwrap(), Credits::ZERO);
    }
}
