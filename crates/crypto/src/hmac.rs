//! HMAC-SHA256 (RFC 2104) and an HKDF-expand-style key derivation helper.
//!
//! Used by the secure channel in `gridbank-net` for message authentication
//! codes and session-key derivation, and by [`crate::rng`] for deterministic
//! key-material streams.

use crate::sha256::{sha256, Digest, Sha256, DIGEST_LEN};

const BLOCK_LEN: usize = 64;
const IPAD: u8 = 0x36;
const OPAD: u8 = 0x5c;

/// Incremental HMAC, for MACing framed messages without concatenation.
///
/// The state is the two SHA-256 midstates left by the key's inner and
/// outer pad blocks, so a clone taken before any `update` is a keyed
/// state: MACing many messages under one key costs the two pad
/// compressions once, and each message a 200-byte copy.
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    outer: Sha256,
}

impl HmacSha256 {
    /// Starts an HMAC computation under `key`. Keys longer than the
    /// 64-byte block size are hashed first, per RFC 2104.
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let kh = sha256(key);
            key_block[..DIGEST_LEN].copy_from_slice(kh.as_bytes());
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let (mut inner, mut outer) = (Sha256::new(), Sha256::new());
        inner.update(&key_block.map(|k| k ^ IPAD));
        outer.update(&key_block.map(|k| k ^ OPAD));
        HmacSha256 { inner, outer }
    }

    /// The MAC of a message of at most
    /// [`ONE_BLOCK_MAX`](crate::sha256::ONE_BLOCK_MAX) bytes under a keyed
    /// state that has been fed nothing: the message and the inner digest
    /// each pad into one block laid out directly, so it costs two
    /// compressions and no copy of the state. A keystream block of the
    /// sealed channel is one of these. Panics on a longer message.
    pub fn tag_short(&self, message: &[u8]) -> Digest {
        self.outer.finalize_one_block(self.inner.finalize_one_block(message).as_bytes())
    }

    /// Feeds message bytes.
    pub fn update(&mut self, data: &[u8]) -> &mut Self {
        self.inner.update(data);
        self
    }

    /// Finishes and returns the MAC.
    pub fn finalize(mut self) -> Digest {
        self.outer.update(self.inner.finalize().as_bytes());
        self.outer.finalize()
    }
}

/// Computes `HMAC-SHA256(key, message)` in one call.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> Digest {
    let mut mac = HmacSha256::new(key);
    mac.update(message);
    mac.finalize()
}

/// Constant-shape MAC comparison.
///
/// Compares every byte regardless of where the first mismatch occurs so the
/// comparison time does not leak the mismatch position.
pub fn mac_eq(a: &Digest, b: &Digest) -> bool {
    let mut diff = 0u8;
    for i in 0..DIGEST_LEN {
        diff |= a.0[i] ^ b.0[i];
    }
    diff == 0
}

/// HKDF-expand-style derivation: produces `out_len` bytes of key material
/// from a pseudorandom key and a context/info string.
///
/// `out = T(1) || T(2) || ...` with `T(i) = HMAC(prk, T(i-1) || info || i)`.
pub fn hkdf_expand(prk: &[u8], info: &[u8], out_len: usize) -> Vec<u8> {
    assert!(out_len <= 255 * DIGEST_LEN, "hkdf output too long");
    let mut out = Vec::with_capacity(out_len);
    let mut prev: Option<Digest> = None;
    let mut counter = 1u8;
    while out.len() < out_len {
        let mut mac = HmacSha256::new(prk);
        if let Some(p) = &prev {
            mac.update(p.as_bytes());
        }
        mac.update(info);
        mac.update(&[counter]);
        let t = mac.finalize();
        let take = (out_len - out.len()).min(DIGEST_LEN);
        out.extend_from_slice(&t.as_bytes()[..take]);
        prev = Some(t);
        counter = counter.wrapping_add(1);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::ONE_BLOCK_MAX;

    // RFC 4231 test vectors for HMAC-SHA256.
    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        let mac = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            mac.to_hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2_jefe() {
        let mac = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            mac.to_hex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3_fifty_dd() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let mac = hmac_sha256(&key, &data);
        assert_eq!(
            mac.to_hex(),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaau8; 131];
        let mac = hmac_sha256(&key, b"Test Using Larger Than Block-Size Key - Hash Key First");
        assert_eq!(
            mac.to_hex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let key = b"incremental key";
        let msg = b"part one | part two | part three";
        let oneshot = hmac_sha256(key, msg);
        let mut inc = HmacSha256::new(key);
        inc.update(b"part one | ");
        inc.update(b"part two | ");
        inc.update(b"part three");
        assert_eq!(inc.finalize(), oneshot);
    }

    #[test]
    fn a_keyed_state_clone_macs_each_message_independently() {
        let keyed = HmacSha256::new(b"one key, many messages");
        for msg in [&b"first"[..], b"", &[0x5A; 200]] {
            let mut mac = keyed.clone();
            mac.update(msg);
            assert_eq!(mac.finalize(), hmac_sha256(b"one key, many messages", msg));
        }
    }

    #[test]
    fn the_short_message_path_matches_the_incremental_one_at_every_length() {
        let keyed = HmacSha256::new(b"one key, many short messages");
        let msg: Vec<u8> = (1u8..=ONE_BLOCK_MAX as u8).collect();
        for len in 0..=ONE_BLOCK_MAX {
            let mut mac = keyed.clone();
            mac.update(&msg[..len]);
            assert_eq!(keyed.tag_short(&msg[..len]), mac.finalize(), "len {len}");
        }
    }

    #[test]
    fn mac_eq_detects_any_flip() {
        let key = b"k";
        let m = hmac_sha256(key, b"msg");
        assert!(mac_eq(&m, &m.clone()));
        for byte in 0..DIGEST_LEN {
            let mut bad = m;
            bad.0[byte] ^= 1;
            assert!(!mac_eq(&m, &bad), "flip at byte {byte} not detected");
        }
    }

    #[test]
    fn hkdf_lengths_and_determinism() {
        let prk = hmac_sha256(b"salt", b"ikm");
        for len in [0usize, 1, 31, 32, 33, 64, 100] {
            let a = hkdf_expand(prk.as_bytes(), b"ctx", len);
            let b = hkdf_expand(prk.as_bytes(), b"ctx", len);
            assert_eq!(a.len(), len);
            assert_eq!(a, b);
        }
        // Different info strings diverge.
        let a = hkdf_expand(prk.as_bytes(), b"ctx-a", 32);
        let b = hkdf_expand(prk.as_bytes(), b"ctx-b", 32);
        assert_ne!(a, b);
        // Prefix property: longer outputs extend shorter ones.
        let short = hkdf_expand(prk.as_bytes(), b"ctx", 16);
        let long = hkdf_expand(prk.as_bytes(), b"ctx", 48);
        assert_eq!(&long[..16], &short[..]);
    }
}
