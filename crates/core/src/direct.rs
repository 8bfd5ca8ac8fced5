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
//!
//! Receipts are signed in batches, as Certificate Transparency signs a
//! tree head (RFC 6962 §2.1): the bank commits the confirmation bodies
//! that a connection had waiting to one Merkle root, signs the root and
//! the batch size once, and each receipt carries its audit path
//! ([`BatchProof`]). A batch of one has an empty path.

use gridbank_crypto::keys::{SigningIdentity, VerifyingKey};
use gridbank_crypto::merkle::{leaf_hash, root_from_path, MerkleSignature, MerkleTree};
use gridbank_crypto::sha256::{Digest, DIGEST_LEN};
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

/// Where a receipt sits in the batch one bank signature covers: the
/// audit path of RFC 6962 §2.1, with the batch size bound beside it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchProof {
    /// The receipt's position in its batch.
    pub index: u32,
    /// How many receipts the batch signature covers.
    pub count: u32,
    /// Sibling digests from the receipt's leaf to just below the batch
    /// root: [`BatchProof::path_len`]`(count)` of them.
    pub path: Vec<Digest>,
}

impl BatchProof {
    /// The audit path length of a batch of `count`: ⌈log₂ count⌉.
    pub fn path_len(count: u32) -> usize {
        count.checked_next_power_of_two().map_or(32, u32::trailing_zeros) as usize
    }

    /// The proof for leaf `index` of `tree`.
    fn of(tree: &MerkleTree, index: usize) -> Self {
        let narrow = |n: usize| u32::try_from(n).unwrap_or(u32::MAX);
        BatchProof {
            index: narrow(index),
            count: narrow(tree.len()),
            path: tree.auth_path(index).unwrap_or_default(),
        }
    }
}

/// The first bytes of the message a receipt batch's signature signs. The
/// leading 0xFF is no version byte: every other encoding the bank key
/// signs (cheque body, chain commitment, confirmation body) starts with
/// version 1, so none of their decoders accepts a batch message.
const BATCH_DOMAIN: &[u8] = b"\xFFgridbank-receipts";

/// Length of [`batch_message`].
pub const BATCH_MESSAGE_LEN: usize = BATCH_DOMAIN.len() + 4 + DIGEST_LEN;

/// The message one batch signature signs: `BATCH_DOMAIN ‖ count (u32 BE)
/// ‖ root`. Binding `count` keeps the tree's padding, which repeats the
/// last leaf, from answering for an index past the batch.
pub fn batch_message(count: u32, root: &Digest) -> [u8; BATCH_MESSAGE_LEN] {
    let mut message = [0u8; BATCH_MESSAGE_LEN];
    let (domain, rest) = message.split_at_mut(BATCH_DOMAIN.len());
    domain.copy_from_slice(BATCH_DOMAIN);
    let (count_bytes, root_bytes) = rest.split_at_mut(4);
    count_bytes.copy_from_slice(&count.to_be_bytes());
    root_bytes.copy_from_slice(root.as_bytes());
    message
}

/// A bank-signed transfer confirmation: its body, where the body sits in
/// the batch of receipts the signature covers, and that signature.
#[derive(Clone, Debug)]
pub struct TransferConfirmation {
    /// The confirmed fields.
    pub body: ConfirmationBody,
    /// The body's place under the signed batch root.
    pub batch: BatchProof,
    /// Bank signature over [`batch_message`].
    pub signature: MerkleSignature,
}

impl TransferConfirmation {
    /// Verifies the bank's signature over the body's batch: the audit
    /// path must have the length `count` implies and `index` must lie in
    /// the batch, then the root it recomputes must be the one signed.
    pub fn verify(&self, bank_key: &VerifyingKey) -> Result<(), BankError> {
        let BatchProof { index, count, path } = &self.batch;
        if index >= count || path.len() != BatchProof::path_len(*count) {
            return Err(BankError::InvalidInstrument("confirmation outside its batch".into()));
        }
        let leaf = leaf_hash(&self.body.to_bytes());
        let root = root_from_path(&leaf, *index as usize, path);
        bank_key
            .verify(&batch_message(*count, &root), &self.signature)
            .map_err(|_| BankError::InvalidInstrument("bad signature on confirmation".into()))
    }
}

/// One signature over a batch of confirmation bodies, and the tree whose
/// root it signs.
pub(crate) struct SignedBatch {
    tree: MerkleTree,
    signature: MerkleSignature,
}

impl SignedBatch {
    /// The receipts of the signed bodies, handed back in the order they
    /// were signed, each beside the tag it came with: the body with its
    /// proof and the batch signature, which the last receipt takes and
    /// every other one copies.
    pub(crate) fn receipts<T>(
        self,
        bodies: impl IntoIterator<Item = (ConfirmationBody, T)>,
    ) -> impl Iterator<Item = (TransferConfirmation, T)> {
        let SignedBatch { tree, signature } = self;
        let signatures = std::iter::repeat_n(signature, tree.len());
        bodies.into_iter().zip(signatures).enumerate().map(
            move |(index, ((body, tag), signature))| {
                let batch = BatchProof::of(&tree, index);
                (TransferConfirmation { body, batch, signature }, tag)
            },
        )
    }
}

/// Signs a batch of confirmation bodies with one signature over the
/// Merkle root of their encodings (leaves and nodes carry `merkle`'s
/// domain prefixes). Every receipt signature the bank makes is made here.
pub(crate) fn sign_receipts<'a>(
    signer: &SigningIdentity,
    bodies: impl IntoIterator<Item = &'a ConfirmationBody>,
) -> Result<SignedBatch, BankError> {
    let leaves: Vec<Digest> = bodies.into_iter().map(|b| leaf_hash(&b.to_bytes())).collect();
    if leaves.is_empty() {
        return Err(BankError::Protocol("a receipt batch needs a receipt".into()));
    }
    let tree = MerkleTree::from_leaf_digests(leaves);
    let count = u32::try_from(tree.len())
        .map_err(|_| BankError::Protocol("receipt batch too large".into()))?;
    let sign_timer = gridbank_obs::Stopwatch::start();
    let signature = signer.sign(&batch_message(count, &tree.root()))?;
    sign_timer.record_named("core.signer.sign_ns");
    gridbank_obs::observe("core.signer.batch_size", u64::from(count));
    Ok(SignedBatch { tree, signature })
}

/// Commits a pay-before-use direct transfer and returns the body of its
/// confirmation, unsigned: the server signs it with the rest of its batch
/// ([`sign_receipts`]). With `idem`, the dedup stamp is journaled
/// atomically with the transfer, so a retried request after a crash
/// cannot re-apply; it remembers an unsigned placeholder that the server
/// upgrades to the signed response once the batch is signed.
pub(crate) fn commit_transfer(
    accounts: &GbAccounts,
    from: &AccountId,
    to: &AccountId,
    amount: Credits,
    recipient_address: String,
    idem: Option<IdemKey>,
) -> Result<ConfirmationBody, BankError> {
    let transaction_id = accounts.transfer_keyed(from, to, amount, Vec::new(), idem)?;
    Ok(ConfirmationBody {
        transaction_id,
        drawer: *from,
        recipient: *to,
        amount,
        date_ms: accounts.clock().now_ms(),
        recipient_address,
    })
}

/// Executes a pay-before-use direct transfer and signs its confirmation
/// as a batch of one.
pub fn direct_transfer(
    accounts: &GbAccounts,
    signer: &SigningIdentity,
    from: &AccountId,
    to: &AccountId,
    amount: Credits,
    recipient_address: &str,
) -> Result<TransferConfirmation, BankError> {
    let body = commit_transfer(accounts, from, to, amount, recipient_address.to_string(), None)?;
    let signed = sign_receipts(signer, [&body])?;
    signed
        .receipts([(body, ())])
        .next()
        .map(|(receipt, ())| receipt)
        .ok_or_else(|| BankError::Protocol("a batch of one has one receipt".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Clock;
    use crate::db::Database;
    use gridbank_crypto::keys::KeyMaterial;
    use proptest::prelude::*;
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

    /// A body like the ones the known-answer script encodes.
    fn body(k: u64) -> ConfirmationBody {
        ConfirmationBody {
            transaction_id: 7 + k,
            drawer: AccountId::new(1, 1, 1),
            recipient: AccountId::new(1, 1, 2),
            amount: Credits::from_gd(k as i64 + 1),
            date_ms: 42,
            recipient_address: format!("gsp.grid.org/{k}"),
        }
    }

    /// A key with room for every proptest case, generated once.
    fn batch_signer() -> &'static SigningIdentity {
        static SIGNER: std::sync::OnceLock<SigningIdentity> = std::sync::OnceLock::new();
        SIGNER.get_or_init(|| {
            SigningIdentity::generate_with_height(KeyMaterial { seed: 11 }, "batch", 9)
        })
    }

    fn signed_batch(count: u64) -> Vec<TransferConfirmation> {
        let bodies: Vec<ConfirmationBody> = (0..count).map(body).collect();
        let signed = sign_receipts(batch_signer(), &bodies).unwrap();
        signed.receipts(bodies.into_iter().map(|b| (b, ()))).map(|(r, ())| r).collect()
    }

    /// The root and signed message of a batch of three, against digests
    /// printed by an independent script (Python `hashlib`, offline):
    ///
    /// ```python
    /// import hashlib, struct
    /// def s(x): return struct.pack('>I', len(x)) + x
    /// def body(txid, drawer, recipient, micro, date_ms, addr):
    ///     return (b'\x01' + struct.pack('>Q', txid) + s(drawer.encode())
    ///             + s(recipient.encode()) + micro.to_bytes(16, 'big', signed=True)
    ///             + struct.pack('>Q', date_ms) + s(addr.encode()))
    /// H = lambda b: hashlib.sha256(b).digest()
    /// leaf = lambda p: H(b'\x00gridbank-leaf' + p)
    /// node = lambda l, r: H(b'\x01gridbank-node' + l + r)
    /// bodies = [body(7 + k, '01-0001-00000001', '01-0001-00000002',
    ///                1_000_000 * (k + 1), 42, 'gsp.grid.org/%d' % k) for k in range(3)]
    /// ls = [leaf(b) for b in bodies]
    /// ls.append(ls[-1])  # padded to four by repeating the last leaf
    /// n01, n23 = node(ls[0], ls[1]), node(ls[2], ls[3])
    /// root = node(n01, n23)
    /// msg = b'\xffgridbank-receipts' + struct.pack('>I', 3) + root
    /// print('n01', n01.hex()); print('n23', n23.hex())
    /// print('root', root.hex()); print('message', msg.hex())
    /// ```
    ///
    /// Any change to the body encoding, the leaf or node hash, the padding
    /// or the signed message fails here.
    #[test]
    fn a_batch_root_matches_an_independent_reference() {
        let n01 = "61e04a1bc4b9e2b08bdb9f2155795fb6d0dfac98fa425a52153b51b8f4b333d7";
        let n23 = "1486ecf4b48b98a2fb466bd746fe7e2d95f1f4ea73ec621f3234e58c953dcaaa";
        let root = "a2c843f657e6b55771f157f65fcdbe9ac265df7e388e874f442c517a57c94e8e";
        let receipts = signed_batch(3);
        let paths: Vec<Vec<String>> =
            receipts.iter().map(|r| r.batch.path.iter().map(Digest::to_hex).collect()).collect();
        // Receipt 2's sibling is its own padded copy.
        let leaf2 = leaf_hash(&receipts[2].body.to_bytes()).to_hex();
        assert_eq!(paths[0][1], n23);
        assert_eq!(paths[2], [leaf2.as_str(), n01]);
        for r in &receipts {
            assert_eq!((r.batch.index < 3, r.batch.count), (true, 3));
            let leaf = leaf_hash(&r.body.to_bytes());
            let recomputed = root_from_path(&leaf, r.batch.index as usize, &r.batch.path);
            assert_eq!(recomputed.to_hex(), root);
            r.verify(&batch_signer().verifying_key()).unwrap();
        }
        let message = batch_message(3, &Digest::from_hex(root).unwrap());
        let hex: String = message.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "ff6772696462616e6b2d726563656970747300000003\
             a2c843f657e6b55771f157f65fcdbe9ac265df7e388e874f442c517a57c94e8e"
        );
        // One signature covers the batch.
        assert!(receipts.iter().all(|r| r.signature == receipts[0].signature));
    }

    #[test]
    fn no_other_signed_type_decodes_a_batch_message() {
        let message = batch_message(3, &Digest::ZERO);
        assert!(ConfirmationBody::from_bytes(&message).is_err());
        assert!(crate::cheque::ChequeBody::from_bytes(&message).is_err());
        assert!(crate::payword::ChainCommitment::from_bytes(&message).is_err());
        // And each of those starts with a version byte a batch message
        // never has.
        assert_ne!(body(0).to_bytes()[0], message[0]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// A receipt verifies in its own place only: each of these edits
        /// is refused.
        #[test]
        fn a_receipt_verifies_only_in_its_own_place(
            count in 1u64..=9,
            pick in any::<usize>(),
            other in any::<usize>(),
            bit in 0usize..256,
        ) {
            let key = batch_signer().verifying_key();
            let receipts = signed_batch(count);
            let i = pick % receipts.len();
            let j = other % receipts.len();
            let r = &receipts[i];
            prop_assert!(r.verify(&key).is_ok());
            let refused = |edit: &dyn Fn(&mut TransferConfirmation)| {
                let mut forged = r.clone();
                edit(&mut forged);
                forged.verify(&key).is_err()
            };
            // A flipped bit in a path digest.
            if !r.batch.path.is_empty() {
                let level = bit % r.batch.path.len();
                prop_assert!(refused(&|f| f.batch.path[level].0[bit / 8] ^= 1 << (bit % 8)));
            }
            // Another receipt's index, with this body and path.
            if j != i {
                prop_assert!(refused(&|f| f.batch.index = j as u32));
            }
            // Every index past the batch, the padded duplicates of the
            // last leaf among them.
            let width = (count as u32).next_power_of_two();
            for past in count as u32..width.max(count as u32 + 1) {
                prop_assert!(refused(&|f| f.batch.index = past));
            }
            // A changed count, with a path of the length it implies.
            for claimed in [count as u32 + 1, (count as u32).saturating_sub(1), width * 2] {
                prop_assert!(refused(&|f| {
                    f.batch.count = claimed;
                    f.batch.path.resize(BatchProof::path_len(claimed), Digest::ZERO);
                }));
            }
            // This body under another receipt's proof.
            if j != i {
                prop_assert!(refused(&|f| f.batch = receipts[j].batch.clone()));
            }
            // A path one digest too long or too short.
            prop_assert!(refused(&|f| f.batch.path.push(Digest::ZERO)));
            if !r.batch.path.is_empty() {
                prop_assert!(refused(&|f| { f.batch.path.pop(); }));
            }
        }
    }

    /// In a batch of five, leaf 4 repeats at positions 5 to 7 of the
    /// padded tree: its path computes the signed root from index 5 too,
    /// and only the signed count refuses it.
    #[test]
    fn the_padded_duplicate_computes_the_root_but_is_refused() {
        let receipts = signed_batch(5);
        let last = &receipts[4];
        let leaf = leaf_hash(&last.body.to_bytes());
        assert_eq!(
            root_from_path(&leaf, 5, &last.batch.path),
            root_from_path(&leaf, 4, &last.batch.path)
        );
        let mut forged = last.clone();
        forged.batch.index = 5;
        assert!(forged.verify(&batch_signer().verifying_key()).is_err());
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
