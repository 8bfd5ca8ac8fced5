//! ChaCha20-Poly1305 (RFC 8439), implemented from scratch.
//!
//! The sealed channel in `gridbank-net` encrypts and authenticates every
//! frame with it, and the one-time signing keys draw their secrets from
//! its keystream (`keystream_fill`). ChaCha20 is 20 rounds of 32-bit add,
//! rotate and xor over a 64-byte block; Poly1305 is evaluated in five
//! 26-bit limbs with 64-bit products (the "donna-32" layout). Both work on
//! the caller's buffer: [`seal_in_place`] and [`open_in_place`] allocate
//! nothing.

/// Bytes of key.
pub const KEY_LEN: usize = 32;
/// Bytes of nonce.
pub const NONCE_LEN: usize = 12;
/// Bytes of authentication tag.
pub const TAG_LEN: usize = 16;

/// "expand 32-byte k", the first row of every ChaCha20 state.
const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

fn le32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]])
}

/// The ChaCha20 state for `key` and `nonce` at block `counter`.
fn chacha_state(key: &[u8; KEY_LEN], counter: u32, nonce: &[u8; NONCE_LEN]) -> [u32; 16] {
    let mut state = [0u32; 16];
    state[..4].copy_from_slice(&SIGMA);
    for (word, bytes) in state[4..12].iter_mut().zip(key.chunks_exact(4)) {
        *word = le32(bytes);
    }
    state[12] = counter;
    for (word, bytes) in state[13..].iter_mut().zip(nonce.chunks_exact(4)) {
        *word = le32(bytes);
    }
    state
}

#[inline(always)]
fn quarter_round(x: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    x[a] = x[a].wrapping_add(x[b]);
    x[d] = (x[d] ^ x[a]).rotate_left(16);
    x[c] = x[c].wrapping_add(x[d]);
    x[b] = (x[b] ^ x[c]).rotate_left(12);
    x[a] = x[a].wrapping_add(x[b]);
    x[d] = (x[d] ^ x[a]).rotate_left(8);
    x[c] = x[c].wrapping_add(x[d]);
    x[b] = (x[b] ^ x[c]).rotate_left(7);
}

/// The ChaCha20 block function (RFC 8439 §2.3): the serialized 64-byte
/// keystream block of `state`.
fn chacha_block(state: &[u32; 16]) -> [u8; 64] {
    let mut x = *state;
    for _ in 0..10 {
        quarter_round(&mut x, 0, 4, 8, 12);
        quarter_round(&mut x, 1, 5, 9, 13);
        quarter_round(&mut x, 2, 6, 10, 14);
        quarter_round(&mut x, 3, 7, 11, 15);
        quarter_round(&mut x, 0, 5, 10, 15);
        quarter_round(&mut x, 1, 6, 11, 12);
        quarter_round(&mut x, 2, 7, 8, 13);
        quarter_round(&mut x, 3, 4, 9, 14);
    }
    let mut out = [0u8; 64];
    for ((bytes, word), start) in out.chunks_exact_mut(4).zip(x).zip(state) {
        bytes.copy_from_slice(&word.wrapping_add(*start).to_le_bytes());
    }
    out
}

/// XORs the keystream from `state`'s block counter onwards into `buf`
/// (RFC 8439 §2.4).
fn chacha_xor(mut state: [u32; 16], buf: &mut [u8]) {
    for chunk in buf.chunks_mut(64) {
        for (byte, key) in chunk.iter_mut().zip(chacha_block(&state)) {
            *byte ^= key;
        }
        state[12] = state[12].wrapping_add(1);
    }
}

/// Fills `out` with the ChaCha20 keystream of `key` at nonce 0, from
/// block 0 on. This is a key-derivation PRG, not a channel keystream: the
/// one-time signing keys read their chain starts from it
/// ([`crate::wots`]), each under a key that keys nothing else.
pub(crate) fn keystream_fill(key: &[u8; KEY_LEN], out: &mut [u8]) {
    let mut state = chacha_state(key, 0, &[0; NONCE_LEN]);
    for chunk in out.chunks_mut(64) {
        chunk.copy_from_slice(&chacha_block(&state)[..chunk.len()]);
        state[12] = state[12].wrapping_add(1);
    }
}

const LIMB: u32 = 0x3ff_ffff;

/// Poly1305 (RFC 8439 §2.5) in 26-bit limbs: the accumulator `h`, the
/// clamped key half `r`, and `s = r · 5` for the reduction modulo
/// 2^130 − 5.
struct Poly1305 {
    r: [u32; 5],
    s: [u32; 4],
    h: [u32; 5],
    pad: [u32; 4],
}

impl Poly1305 {
    fn new(key: &[u8; 32]) -> Self {
        let r = [
            le32(&key[0..]) & 0x3ff_ffff,
            (le32(&key[3..]) >> 2) & 0x3ff_ff03,
            (le32(&key[6..]) >> 4) & 0x3ff_c0ff,
            (le32(&key[9..]) >> 6) & 0x3f0_3fff,
            (le32(&key[12..]) >> 8) & 0x00f_ffff,
        ];
        Poly1305 {
            r,
            s: [r[1] * 5, r[2] * 5, r[3] * 5, r[4] * 5],
            h: [0; 5],
            pad: [le32(&key[16..]), le32(&key[20..]), le32(&key[24..]), le32(&key[28..])],
        }
    }

    /// Absorbs one 16-byte block; `hibit` is the 2^128 bit, `1 << 24` in
    /// the top limb for a whole block and 0 for a final partial block
    /// that was padded with `0x01`.
    fn block(&mut self, m: &[u8; 16], hibit: u32) {
        let [r0, r1, r2, r3, r4] = self.r.map(u64::from);
        let [s1, s2, s3, s4] = self.s.map(u64::from);
        let h0 = u64::from(self.h[0] + (le32(&m[0..]) & LIMB));
        let h1 = u64::from(self.h[1] + ((le32(&m[3..]) >> 2) & LIMB));
        let h2 = u64::from(self.h[2] + ((le32(&m[6..]) >> 4) & LIMB));
        let h3 = u64::from(self.h[3] + ((le32(&m[9..]) >> 6) & LIMB));
        let h4 = u64::from(self.h[4] + ((le32(&m[12..]) >> 8) | hibit));

        let d0 = h0 * r0 + h1 * s4 + h2 * s3 + h3 * s2 + h4 * s1;
        let mut d1 = h0 * r1 + h1 * r0 + h2 * s4 + h3 * s3 + h4 * s2;
        let mut d2 = h0 * r2 + h1 * r1 + h2 * r0 + h3 * s4 + h4 * s3;
        let mut d3 = h0 * r3 + h1 * r2 + h2 * r1 + h3 * r0 + h4 * s4;
        let mut d4 = h0 * r4 + h1 * r3 + h2 * r2 + h3 * r1 + h4 * r0;

        d1 += d0 >> 26;
        d2 += d1 >> 26;
        d3 += d2 >> 26;
        d4 += d3 >> 26;
        // The carry out of the top limb wraps around times five. In u64 it
        // cannot overflow; in u32 that would rest on an argument about
        // the limb bounds, with `(d4 >> 26) * 5` near 2^31.
        let h0 = (d0 & u64::from(LIMB)) + (d4 >> 26) * 5;
        self.h = [
            (h0 as u32) & LIMB,
            (d1 as u32 & LIMB) + (h0 >> 26) as u32,
            d2 as u32 & LIMB,
            d3 as u32 & LIMB,
            d4 as u32 & LIMB,
        ];
    }

    /// Absorbs `data` zero-padded to a multiple of 16 bytes, every block
    /// whole, as the AEAD construction lays out AAD and ciphertext.
    fn padded(&mut self, data: &[u8]) {
        // Whole blocks are copied at a length known at compile time; a
        // per-block variable-length copy halves Poly1305's speed.
        let mut blocks = data.chunks_exact(16);
        for m in &mut blocks {
            let mut block = [0u8; 16];
            block.copy_from_slice(m);
            self.block(&block, 1 << 24);
        }
        let rest = blocks.remainder();
        if !rest.is_empty() {
            let mut block = [0u8; 16];
            block[..rest.len()].copy_from_slice(rest);
            self.block(&block, 1 << 24);
        }
    }

    /// Fully reduces `h` modulo 2^130 − 5 and returns `(h + pad) mod 2^128`.
    fn finish(self) -> [u8; TAG_LEN] {
        // Carry h1 → h2 → h3 → h4 → h0 (times five) → h1.
        let mut h = self.h;
        for i in 1..6 {
            let (from, to) = (i % 5, (i + 1) % 5);
            let carry = h[from] >> 26;
            h[from] &= LIMB;
            h[to] += if to == 0 { carry * 5 } else { carry };
        }
        // g = h + 5 − 2^130: the carry out of its top limb is set exactly
        // when h ≥ p, and then g is the reduced value.
        let mut g = h;
        let mut carry = 5;
        for limb in &mut g {
            *limb += carry;
            carry = *limb >> 26;
            *limb &= LIMB;
        }
        let take_g = 0u32.wrapping_sub(carry);
        let [h0, h1, h2, h3, h4]: [u32; 5] =
            std::array::from_fn(|i| (h[i] & !take_g) | (g[i] & take_g));

        let words = [
            h0 | (h1 << 26),
            (h1 >> 6) | (h2 << 20),
            (h2 >> 12) | (h3 << 14),
            (h3 >> 18) | (h4 << 8),
        ];
        let mut tag = [0u8; TAG_LEN];
        let mut carry = 0u64;
        for ((bytes, word), pad) in tag.chunks_exact_mut(4).zip(words).zip(self.pad) {
            carry += u64::from(word) + u64::from(pad);
            bytes.copy_from_slice(&(carry as u32).to_le_bytes());
            carry >>= 32;
        }
        tag
    }
}

/// The AEAD tag over `aad` and `ciphertext` (RFC 8439 §2.8): Poly1305
/// under the first half of block 0, over both inputs zero-padded to 16
/// bytes and then their two little-endian 64-bit lengths.
fn aead_tag(
    key: &[u8; KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    aad: &[u8],
    ciphertext: &[u8],
) -> [u8; TAG_LEN] {
    let mut one_time_key = [0u8; 32];
    one_time_key.copy_from_slice(&chacha_block(&chacha_state(key, 0, nonce))[..32]);
    let mut mac = Poly1305::new(&one_time_key);
    mac.padded(aad);
    mac.padded(ciphertext);
    let mut lengths = [0u8; 16];
    lengths[..8].copy_from_slice(&(aad.len() as u64).to_le_bytes());
    lengths[8..].copy_from_slice(&(ciphertext.len() as u64).to_le_bytes());
    mac.block(&lengths, 1 << 24);
    mac.finish()
}

/// Encrypts `buf` where it lies and returns the tag that authenticates it
/// together with `aad`.
pub fn seal_in_place(
    key: &[u8; KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    aad: &[u8],
    buf: &mut [u8],
) -> [u8; TAG_LEN] {
    chacha_xor(chacha_state(key, 1, nonce), buf);
    aead_tag(key, nonce, aad, buf)
}

/// Checks `tag` against `aad` and the ciphertext in `buf` and, only if it
/// matches, decrypts `buf` where it lies. The tag is compared in constant
/// shape: every byte, whatever the first mismatch. On `false` `buf` is
/// untouched.
pub fn open_in_place(
    key: &[u8; KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    aad: &[u8],
    buf: &mut [u8],
    tag: &[u8; TAG_LEN],
) -> bool {
    let expected = aead_tag(key, nonce, aad, buf);
    if expected.iter().zip(tag).fold(0u8, |diff, (a, b)| diff | (a ^ b)) != 0 {
        return false;
    }
    chacha_xor(chacha_state(key, 1, nonce), buf);
    true
}

#[cfg(test)]
mod tests {
    //! Every expected value below is RFC 8439's, and each was also
    //! recomputed offline by Python's `cryptography` package:
    //! `ciphers.algorithms.ChaCha20` (16-byte nonce = counter LE ‖ nonce)
    //! for the block and encryption vectors,
    //! `hazmat.primitives.poly1305.Poly1305.generate_tag` for the
    //! Poly1305 ones and `ciphers.aead.ChaCha20Poly1305` for the AEAD.

    use super::*;
    use proptest::prelude::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
    }

    fn array<const N: usize>(s: &str) -> [u8; N] {
        hex(s).try_into().unwrap()
    }

    fn to_hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// One-shot Poly1305 of a message of any length: a final partial
    /// block is padded with `0x01` and absorbed without the 2^128 bit.
    fn poly1305(key: &[u8; 32], msg: &[u8]) -> [u8; TAG_LEN] {
        let mut mac = Poly1305::new(key);
        let mut blocks = msg.chunks_exact(16);
        for m in &mut blocks {
            mac.block(m.try_into().unwrap(), 1 << 24);
        }
        let rest = blocks.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 16];
            last[..rest.len()].copy_from_slice(rest);
            last[rest.len()] = 1;
            mac.block(&last, 0);
        }
        mac.finish()
    }

    const SUNSCREEN: &[u8] = b"Ladies and Gentlemen of the class of '99: If I could offer you \
        only one tip for the future, sunscreen would be it.";

    fn counting_key() -> [u8; KEY_LEN] {
        std::array::from_fn(|i| i as u8)
    }

    #[test]
    fn rfc8439_2_3_2_block_function() {
        let state = chacha_state(&counting_key(), 1, &array("000000090000004a00000000"));
        assert_eq!(
            to_hex(&chacha_block(&state)),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
             d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
        );
    }

    #[test]
    fn rfc8439_2_4_2_encryption() {
        let mut buf = SUNSCREEN.to_vec();
        chacha_xor(chacha_state(&counting_key(), 1, &array("000000000000004a00000000")), &mut buf);
        assert_eq!(
            to_hex(&buf),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b\
             f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8\
             07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736\
             5af90bbf74a35be6b40b8eedf2785e42874d"
        );
    }

    #[test]
    fn keystream_fill_is_chacha_xor_over_zeros_at_counter_0() {
        let (mut filled, mut xored) = ([0xAAu8; 2_144], [0u8; 2_144]);
        keystream_fill(&counting_key(), &mut filled);
        chacha_xor(chacha_state(&counting_key(), 0, &[0; NONCE_LEN]), &mut xored);
        assert_eq!(filled, xored);
    }

    #[test]
    fn rfc8439_2_5_2_poly1305() {
        let key = array("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
        assert_eq!(
            to_hex(&poly1305(&key, b"Cryptographic Forum Research Group")),
            "a8061dc1305136c6c22b8baf0c0127a9"
        );
    }

    #[test]
    fn rfc8439_2_8_2_aead() {
        let key: [u8; KEY_LEN] = std::array::from_fn(|i| 0x80 + i as u8);
        let nonce = array("070000004041424344454647");
        let aad = hex("50515253c0c1c2c3c4c5c6c7");
        let mut buf = SUNSCREEN.to_vec();
        let tag = seal_in_place(&key, &nonce, &aad, &mut buf);
        assert_eq!(
            to_hex(&buf),
            "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6\
             3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36\
             92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc\
             3ff4def08e4b7a9de576d26586cec64b6116"
        );
        assert_eq!(to_hex(&tag), "1ae10b594f09e26a7e902ecbd0600691");
        assert!(open_in_place(&key, &nonce, &aad, &mut buf, &tag));
        assert_eq!(buf, SUNSCREEN);
    }

    const IETF: &[u8] = b"Any submission to the IETF intended by the Contributor for publication \
        as all or part of an IETF Internet-Draft or RFC and any statement made within the context \
        of an IETF activity is considered an \"IETF Contribution\". Such statements include oral \
        statements in IETF sessions, as well as written and electronic communications made at any \
        time or place, which are addressed to";

    const JABBERWOCKY: &[u8] = b"'Twas brillig, and the slithy toves\nDid gyre and gimble in the \
        wabe:\nAll mimsy were the borogoves,\nAnd the mome raths outgrabe.";

    /// RFC 8439 Appendix A.3, all eleven: #5–#11 are the ones built to
    /// reach the final `h ≥ p` subtraction and to carry across every limb.
    #[test]
    fn rfc8439_appendix_a3_poly1305() {
        let s = "36e5f6b5c5e06070f0efca96227a863e";
        let (r1, r2, z) = (
            "01".to_owned() + &"00".repeat(15),
            "02".to_owned() + &"00".repeat(15),
            "00".repeat(16),
        );
        let r10 = "01000000000000000400000000000000";
        let vectors: [(String, Vec<u8>, &str); 11] = [
            (z.repeat(2), vec![0; 64], "00000000000000000000000000000000"),
            (z.clone() + s, IETF.to_vec(), s),
            (s.to_owned() + &z, IETF.to_vec(), "f3477e7cd95417af89a6b8794c310cf0"),
            (
                "1c9240a5eb55d38af333888604f6b5f0473917c1402b80099dca5cbc207075c0".into(),
                JABBERWOCKY.to_vec(),
                "4541669a7eaaee61e708dc7cbcc5eb62",
            ),
            (r2.clone() + &z, hex(&"ff".repeat(16)), "03000000000000000000000000000000"),
            (r2.clone() + &"ff".repeat(16), hex(&r2), "03000000000000000000000000000000"),
            (
                r1.clone() + &z,
                hex(&("ff".repeat(16) + "f0" + &"ff".repeat(15) + "11" + &"00".repeat(15))),
                "05000000000000000000000000000000",
            ),
            (
                r1.clone() + &z,
                hex(&("ff".repeat(16) + "fb" + &"fe".repeat(15) + &"01".repeat(16))),
                "00000000000000000000000000000000",
            ),
            (
                r2 + &z,
                hex(&("fd".to_owned() + &"ff".repeat(15))),
                "faffffffffffffffffffffffffffffff",
            ),
            (
                r10.to_owned() + &z,
                hex(&("e33594d7505e43b900000000000000003394d7505e4379cd0100000000000000"
                    .to_owned()
                    + &z
                    + "01000000000000000000000000000000")),
                "14000000000000005500000000000000",
            ),
            (
                r10.to_owned() + &z,
                hex(&("e33594d7505e43b900000000000000003394d7505e4379cd0100000000000000"
                    .to_owned()
                    + &z)),
                "13000000000000000000000000000000",
            ),
        ];
        for (n, (key, msg, tag)) in vectors.iter().enumerate() {
            assert_eq!(to_hex(&poly1305(&array(key), msg)), *tag, "A.3 #{}", n + 1);
        }
    }

    #[test]
    fn a_wrong_tag_leaves_the_ciphertext_untouched() {
        let key = counting_key();
        let nonce = [7u8; NONCE_LEN];
        let mut buf = b"pay 1 G$".to_vec();
        let mut tag = seal_in_place(&key, &nonce, b"hdr", &mut buf);
        let sealed = buf.clone();
        tag[15] ^= 0x80;
        assert!(!open_in_place(&key, &nonce, b"hdr", &mut buf, &tag));
        assert_eq!(buf, sealed);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Seal then open round-trips at any length, and one flipped bit
        /// anywhere in AAD, ciphertext or tag is refused.
        #[test]
        fn round_trips_and_refuses_any_flipped_bit(
            len in 0usize..3000,
            aad in proptest::collection::vec(any::<u8>(), 0..40),
            seed in any::<u8>(),
            flip in any::<u64>(),
        ) {
            let key: [u8; KEY_LEN] = std::array::from_fn(|i| seed.wrapping_mul(i as u8 + 1));
            let nonce: [u8; NONCE_LEN] = std::array::from_fn(|i| seed ^ i as u8);
            let plain: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_add(seed)).collect();
            let mut buf = plain.clone();
            let tag = seal_in_place(&key, &nonce, &aad, &mut buf);
            let (sealed, mut opened) = (buf.clone(), buf);
            prop_assert!(open_in_place(&key, &nonce, &aad, &mut opened, &tag));
            prop_assert_eq!(&opened, &plain);

            let bits = 8 * (aad.len() + sealed.len() + TAG_LEN) as u64;
            let bit = flip % bits;
            let (at, mask) = ((bit / 8) as usize, 1u8 << (bit % 8));
            let (mut aad, mut ct, mut tag) = (aad, sealed, tag);
            if at < aad.len() {
                aad[at] ^= mask;
            } else if at < aad.len() + ct.len() {
                ct[at - aad.len()] ^= mask;
            } else {
                tag[at - aad.len() - ct.len()] ^= mask;
            }
            prop_assert!(!open_in_place(&key, &nonce, &aad, &mut ct, &tag));
        }
    }
}
