//! Winternitz one-time signatures (W-OTS) over SHA-256.
//!
//! A W-OTS key signs exactly one message (a second signature under the
//! same key reveals chain values an attacker can walk forward from).
//! [`crate::merkle`] lifts these one-time keys into the multi-use Merkle
//! signature scheme used for certificates and cheque signing, and is the
//! only caller that may hand a leaf key to `sign_digest`.
//!
//! Layout: the message digest is read as 64 base-16 digits, followed by
//! the 3 base-16 digits of the checksum `Σ (15 − digit)`; each of the 67
//! digits owns one hash chain of 15 steps. The secret key is a 32-byte
//! leaf key, whose ChaCha20 keystream ([`crate::aead`]) gives the 67 chain
//! starts in its first 2,144 B (34 blocks); the public key is the 67 chain
//! ends, and the *compact* public key committed in Merkle leaves is the
//! hash of all the ends. A signature
//! reveals, per chain, the value `digit` steps from the start; the
//! verifier walks the remaining `15 − digit` steps, so verification
//! *recomputes* the compact key instead of comparing against a carried
//! copy. Raising any message digit lowers the checksum, and a chain
//! cannot be walked backwards, so no other digest is signable from the
//! revealed values. DESIGN.md §2 has the arithmetic behind `W = 16`.
//!
//! The 67 chains of a key are independent, so one walker, `walk_chains`,
//! takes every step of key generation, signing and verification: it
//! hashes four chains at a time through the 4-lane SHA-256 compression
//! (`sha256::one_block_lanes`), each lane producing the same bytes the
//! one-step-per-compression walk would.

use crate::aead;
use crate::error::CryptoError;
use crate::sha256::{one_block_lanes, Digest, Sha256, DIGEST_LEN, LANES};

/// The Winternitz parameter: digits are base `W`.
const W: usize = 16;
/// Steps from a chain's start to its end.
const STEPS: u8 = (W - 1) as u8;
/// Base-16 digits of a message digest.
const MSG_DIGITS: usize = DIGEST_LEN * 2;
/// Base-16 digits of the checksum, whose maximum is `64 × 15 = 0x3c0`.
const CHECKSUM_DIGITS: usize = 3;
/// Hash chains per key: one per message digit and per checksum digit.
pub const CHAINS: usize = MSG_DIGITS + CHECKSUM_DIGITS;

/// A W-OTS signature: one revealed value per chain.
#[derive(Clone, PartialEq, Eq)]
pub struct OneTimeSignature {
    /// `revealed[i]` sits `digit[i]` steps from the start of chain `i`.
    pub revealed: Box<[Digest; CHAINS]>,
}

impl OneTimeSignature {
    /// Serialized size in bytes (fixed).
    pub const ENCODED_LEN: usize = CHAINS * DIGEST_LEN;

    /// Appends the flat encoding: the revealed values in chain order.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        for d in self.revealed.iter() {
            out.extend_from_slice(d.as_bytes());
        }
    }

    /// Parses the flat encoding produced by [`Self::write_to`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        if bytes.len() != Self::ENCODED_LEN {
            return Err(CryptoError::Malformed(format!(
                "one-time signature must be {} bytes, got {}",
                Self::ENCODED_LEN,
                bytes.len()
            )));
        }
        let mut revealed = Box::new([Digest::ZERO; CHAINS]);
        for (slot, chunk) in revealed.iter_mut().zip(bytes.chunks_exact(DIGEST_LEN)) {
            slot.0.copy_from_slice(chunk);
        }
        Ok(OneTimeSignature { revealed })
    }
}

impl std::fmt::Debug for OneTimeSignature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "OneTimeSignature({} bytes)", Self::ENCODED_LEN)
    }
}

/// The 64 message digits (high nibble first) followed by the 3 checksum
/// digits (most significant first).
fn digits(digest: &Digest) -> [u8; CHAINS] {
    let mut out = [0u8; CHAINS];
    let mut checksum = 0u16;
    for (pair, byte) in out.chunks_exact_mut(2).zip(digest.0.iter()) {
        pair[0] = byte >> 4;
        pair[1] = byte & 0x0f;
        checksum += u16::from(STEPS - pair[0]) + u16::from(STEPS - pair[1]);
    }
    out[MSG_DIGITS] = (checksum >> 8) as u8;
    out[MSG_DIGITS + 1] = (checksum >> 4 & 0x0f) as u8;
    out[MSG_DIGITS + 2] = (checksum & 0x0f) as u8;
    out
}

/// The bit length of one chain step's input, `value ‖ chain ‖ position`
/// (34 B): word 15 of its padded block.
const STEP_BITS: u32 = 8 * (DIGEST_LEN as u32 + 2);

/// Walks each chain `c` of `values` from position `from[c]` up to `to[c]`
/// (none when `to[c] ≤ from[c]`), [`LANES`] chains to a compression.
///
/// Step `position` of chain `chain` hashes `value ‖ chain ‖ position`,
/// which pads into one block: words 0–7 are the value, word 8 is
/// `chain << 24 | position << 16 | 0x8000` (the two bytes, then the
/// padding's `0x80`), and word 15 is [`STEP_BITS`]. The input is distinct
/// for every (chain, position) pair, so no value is meaningful on a second
/// chain or at a second height. Values stay big-endian words from load to
/// store. Chains are taken longest first; a lane whose chain ends loads
/// the next waiting one, and an idle lane's result is ignored.
fn walk_chains(values: &mut [Digest; CHAINS], from: &[u8; CHAINS], to: &[u8; CHAINS]) {
    let steps = |c: usize| to[c].saturating_sub(from[c]);
    let mut order: [usize; CHAINS] = std::array::from_fn(|c| c);
    order.sort_unstable_by_key(|&c| std::cmp::Reverse(steps(c)));
    let mut waiting = order.into_iter().take_while(|&c| steps(c) > 0);
    let mut words = [[0u32; LANES]; 16];
    words[15] = [STEP_BITS; LANES];
    let mut lanes: [Option<(usize, u8)>; LANES] = [None; LANES];
    loop {
        for (l, lane) in lanes.iter_mut().enumerate() {
            if lane.is_none() {
                *lane = waiting.next().map(|c| {
                    for (word, bytes) in words.iter_mut().zip(values[c].0.chunks_exact(4)) {
                        word[l] = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
                    }
                    (c, from[c])
                });
            }
            if let Some((chain, position)) = *lane {
                words[8][l] = (chain as u32) << 24 | u32::from(position) << 16 | 0x8000;
            }
        }
        if lanes.iter().all(Option::is_none) {
            return;
        }
        let out = one_block_lanes(&words);
        for (l, lane) in lanes.iter_mut().enumerate() {
            let Some((chain, position)) = lane else { continue };
            for (word, next) in words.iter_mut().zip(out) {
                word[l] = next[l];
            }
            *position += 1;
            if *position == to[*chain] {
                for (bytes, word) in values[*chain].0.chunks_exact_mut(4).zip(&words) {
                    bytes.copy_from_slice(&word[l].to_be_bytes());
                }
                *lane = None;
            }
        }
    }
}

/// The 67 chain starts of `leaf_key`: the first 2,144 B of its ChaCha20
/// keystream at nonce 0, counter 0.
fn chain_starts(leaf_key: &Digest) -> [Digest; CHAINS] {
    let mut starts = [[0u8; DIGEST_LEN]; CHAINS];
    aead::keystream_fill(&leaf_key.0, starts.as_flattened_mut());
    starts.map(Digest)
}

/// SHA-256 over the 67 chain ends: the compact public key.
fn compact(ends: &[Digest; CHAINS]) -> Digest {
    let mut h = Sha256::new();
    for end in ends {
        h.update(end.as_bytes());
    }
    h.finalize()
}

/// Derives a key's compact public half, SHA-256 over the 67 chain ends.
pub(crate) fn public_key(leaf_key: &Digest) -> Digest {
    let mut ends = chain_starts(leaf_key);
    walk_chains(&mut ends, &[0; CHAINS], &[STEPS; CHAINS]);
    compact(&ends)
}

/// Signs a digest by walking each chain start to its digit. The caller
/// must never pass the same `leaf_key` for two different digests.
pub(crate) fn sign_digest(leaf_key: &Digest, digest: &Digest) -> OneTimeSignature {
    let mut revealed = Box::new(chain_starts(leaf_key));
    walk_chains(&mut revealed, &[0; CHAINS], &digits(digest));
    OneTimeSignature { revealed }
}

/// Recomputes the compact public key a signature on `digest` commits to;
/// the signature is valid iff this equals the signer's key.
pub fn public_key_from_signature(digest: &Digest, sig: &OneTimeSignature) -> Digest {
    let mut ends = *sig.revealed;
    walk_chains(&mut ends, &digits(digest), &[STEPS; CHAINS]);
    compact(&ends)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::{sha256, sha256_one_block};
    use proptest::prelude::*;

    /// The reference step: the hashed input of one chain step, `value ‖
    /// chain ‖ position`, laid out byte by byte.
    fn step_input(value: &Digest, chain: u8, position: u8) -> [u8; DIGEST_LEN + 2] {
        let mut input = [0u8; DIGEST_LEN + 2];
        input[..DIGEST_LEN].copy_from_slice(value.as_bytes());
        input[DIGEST_LEN] = chain;
        input[DIGEST_LEN + 1] = position;
        input
    }

    /// The reference walk: `value` along `chain` from position `from` up to
    /// position `to`, one compression after another.
    fn walk(mut value: Digest, chain: usize, from: u8, to: u8) -> Digest {
        for position in from..to {
            value = sha256_one_block(&step_input(&value, chain as u8, position));
        }
        value
    }

    /// [`walk_chains`] against [`walk`], chain by chain.
    fn walks_match(values: [Digest; CHAINS], from: [u8; CHAINS], to: [u8; CHAINS]) -> bool {
        let mut walked = values;
        walk_chains(&mut walked, &from, &to);
        (0..CHAINS).all(|c| walked[c] == walk(values[c], c, from[c], to[c]))
    }

    fn leaf_key() -> Digest {
        sha256(b"wots-test")
    }

    fn digest_with_digit(chain: usize, digit: u8) -> Digest {
        let mut d = sha256(b"base");
        let byte = &mut d.0[chain / 2];
        *byte = if chain.is_multiple_of(2) {
            (*byte & 0x0f) | digit << 4
        } else {
            (*byte & 0xf0) | digit
        };
        d
    }

    #[test]
    fn sign_verify_round_trip_and_wrong_message_rejected() {
        let pk = public_key(&leaf_key());
        let digest = sha256(b"pay 10 G$ to gsp-alpha");
        let sig = sign_digest(&leaf_key(), &digest);
        assert_eq!(public_key_from_signature(&digest, &sig), pk);
        assert_ne!(public_key_from_signature(&sha256(b"pay 11 G$ to gsp-alpha"), &sig), pk);
    }

    #[test]
    fn wrong_key_rejected_and_generation_is_deterministic() {
        let other = public_key(&sha256(b"other leaf key"));
        assert_eq!(public_key(&leaf_key()), public_key(&leaf_key()));
        assert_ne!(public_key(&leaf_key()), other);
        let digest = sha256(b"msg");
        assert_ne!(public_key_from_signature(&digest, &sign_digest(&leaf_key(), &digest)), other);
    }

    #[test]
    fn checksum_digits_of_the_extreme_digests() {
        // All-zero digest: every digit is 0, checksum 64 × 15 = 0x3c0.
        let zero = digits(&Digest::ZERO);
        assert!(zero[..MSG_DIGITS].iter().all(|&d| d == 0));
        assert_eq!(zero[MSG_DIGITS..], [0x3, 0xc, 0x0]);
        // All-ones digest: every digit is 15, checksum 0x000.
        let ones = digits(&Digest([0xff; DIGEST_LEN]));
        assert!(ones[..MSG_DIGITS].iter().all(|&d| d == STEPS));
        assert_eq!(ones[MSG_DIGITS..], [0, 0, 0]);
    }

    #[test]
    fn digit_extraction_is_high_nibble_first() {
        let mut d = Digest::ZERO;
        d.0[0] = 0xa5;
        d.0[31] = 0x0f;
        let got = digits(&d);
        assert_eq!((got[0], got[1], got[62], got[63]), (0xa, 0x5, 0x0, 0xf));
        let checksum = 64 * 15 - (0xa + 0x5 + 0xf);
        assert_eq!(
            got[MSG_DIGITS..],
            [(checksum >> 8) as u8, (checksum >> 4 & 15) as u8, (checksum & 15) as u8]
        );
    }

    #[test]
    fn forward_walk_on_any_message_chain_is_rejected() {
        // An attacker holding a signature on a digest whose digit on
        // `chain` is 7 can walk that chain's revealed value one step
        // forward, to where a digest with digit 8 there would reveal it.
        // That digest's checksum is one lower, so a checksum chain would
        // have to be walked *back*; the forgery recomputes another key.
        let pk = public_key(&leaf_key());
        for chain in 0..MSG_DIGITS {
            let signed = digest_with_digit(chain, 7);
            let target = digest_with_digit(chain, 8);
            let mut forged = sign_digest(&leaf_key(), &signed);
            assert_eq!(public_key_from_signature(&signed, &forged), pk);
            forged.revealed[chain] = walk(forged.revealed[chain], chain, 7, 8);
            // The walked message chain now ends where the real key's does…
            assert_eq!(
                walk(forged.revealed[chain], chain, 8, STEPS),
                walk(sign_digest(&leaf_key(), &target).revealed[chain], chain, 8, STEPS)
            );
            // …and the signature is still refused, for both digests.
            assert_ne!(public_key_from_signature(&target, &forged), pk, "chain {chain}");
            assert_ne!(public_key_from_signature(&signed, &forged), pk, "chain {chain}");
        }
    }

    #[test]
    fn a_flip_at_each_position_is_rejected() {
        let pk = public_key(&leaf_key());
        let digest = sha256(b"msg");
        let sig = sign_digest(&leaf_key(), &digest);
        for chain in 0..CHAINS {
            let mut bad = sig.clone();
            bad.revealed[chain].0[chain % DIGEST_LEN] ^= 0x01;
            assert_ne!(public_key_from_signature(&digest, &bad), pk, "chain {chain}");
        }
    }

    #[test]
    fn no_two_chains_or_positions_share_a_step_input() {
        let value = sha256(b"same value everywhere");
        let mut seen = std::collections::HashSet::new();
        for chain in 0..CHAINS as u8 {
            for position in 0..STEPS {
                assert!(seen.insert(step_input(&value, chain, position)));
            }
        }
        assert_eq!(seen.len(), CHAINS * usize::from(STEPS));
        // And a step is exactly one SHA-256 block once padded.
        assert!(step_input(&value, 0, 0).len() <= crate::sha256::ONE_BLOCK_MAX);
    }

    #[test]
    fn the_walker_matches_the_reference_at_the_edges() {
        let values: [Digest; CHAINS] = std::array::from_fn(|c| sha256(&[c as u8]));
        // Every chain empty, every chain whole, and work on one chain only.
        assert!(walks_match(values, [0; CHAINS], [0; CHAINS]));
        assert!(walks_match(values, [STEPS; CHAINS], [STEPS; CHAINS]));
        assert!(walks_match(values, [0; CHAINS], [STEPS; CHAINS]));
        for chain in [0, 1, LANES, CHAINS - 1] {
            let mut to = [0; CHAINS];
            to[chain] = STEPS;
            assert!(walks_match(values, [0; CHAINS], to), "chain {chain}");
        }
        // A start past the end walks nothing, as `from..to` is empty.
        assert!(walks_match(values, [STEPS; CHAINS], [0; CHAINS]));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The lanes walk every chain to exactly the value the one-chain,
        /// one-compression-per-step reference reaches.
        #[test]
        fn the_walker_matches_the_reference_walk(
            starts in proptest::collection::vec(any::<u8>(), CHAINS * DIGEST_LEN),
            spans in proptest::collection::vec((0..=STEPS, 0..=STEPS), CHAINS),
        ) {
            let mut values = [Digest::ZERO; CHAINS];
            for (value, bytes) in values.iter_mut().zip(starts.chunks_exact(DIGEST_LEN)) {
                value.0.copy_from_slice(bytes);
            }
            let from = std::array::from_fn(|c| spans[c].0.min(spans[c].1));
            let to = std::array::from_fn(|c| spans[c].0.max(spans[c].1));
            prop_assert!(walks_match(values, from, to));
        }
    }

    #[test]
    fn signature_encoding_round_trip_and_wrong_lengths() {
        let digest = sha256(b"encode me");
        let sig = sign_digest(&leaf_key(), &digest);
        let mut bytes = Vec::new();
        sig.write_to(&mut bytes);
        assert_eq!(bytes.len(), OneTimeSignature::ENCODED_LEN);
        assert_eq!(bytes.len(), 2_144);
        assert_eq!(OneTimeSignature::from_bytes(&bytes).unwrap(), sig);
        bytes.push(0);
        for wrong in [&bytes[..], &bytes[..bytes.len() - 2], &[]] {
            assert!(matches!(OneTimeSignature::from_bytes(wrong), Err(CryptoError::Malformed(_))));
        }
    }
}
