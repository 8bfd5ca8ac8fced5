//! FIPS 180-4 SHA-256, implemented from scratch.
//!
//! This is the single primitive the rest of the crate (HMAC, Winternitz
//! chains, Merkle) and the PayWord hash chains in `gridbank-core` are built on.
//! The implementation is a straightforward, allocation-free translation of
//! the specification: incremental [`Sha256`] hasher plus the one-shot
//! [`sha256`] helper.
//!
//! The rounds exist once, in `compress_lanes`, written over `N`
//! independent blocks held struct-of-arrays. [`Sha256`] compresses with
//! its 1-lane instance; the Winternitz walker ([`crate::wots`]) hashes
//! four chain steps per pass through the 4-lane instance,
//! `one_block_lanes`, whose lanes LLVM interleaves on one core. Safe,
//! portable Rust: no intrinsics and no per-target code.

use std::fmt;

/// Length of a SHA-256 digest in bytes.
pub const DIGEST_LEN: usize = 32;

/// A 32-byte SHA-256 digest.
///
/// `Digest` is `Copy` and ordered so it can be used directly as a map key,
/// sorted, or compared in constant code. The `Display` impl renders
/// lowercase hex, which is also what [`Digest::to_hex`] returns.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Digest(pub [u8; DIGEST_LEN]);

impl Digest {
    /// All zero bytes, useful as a sentinel (not the digest of the empty
    /// message, which is `e3b0c442…`).
    pub const ZERO: Digest = Digest([0u8; DIGEST_LEN]);

    /// Returns the raw bytes.
    #[inline]
    pub fn as_bytes(&self) -> &[u8; DIGEST_LEN] {
        &self.0
    }

    /// Builds a digest from raw bytes.
    #[inline]
    pub fn from_bytes(bytes: [u8; DIGEST_LEN]) -> Self {
        Digest(bytes)
    }

    /// Parses a digest from a 64-character lowercase/uppercase hex string.
    pub fn from_hex(hex: &str) -> Option<Self> {
        if hex.len() != DIGEST_LEN * 2 {
            return None;
        }
        let mut out = [0u8; DIGEST_LEN];
        let bytes = hex.as_bytes();
        for (i, chunk) in bytes.chunks_exact(2).enumerate() {
            let hi = (chunk[0] as char).to_digit(16)?;
            let lo = (chunk[1] as char).to_digit(16)?;
            out[i] = ((hi << 4) | lo) as u8;
        }
        Some(Digest(out))
    }

    /// Lowercase hex rendering of the digest.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(DIGEST_LEN * 2);
        for b in &self.0 {
            use fmt::Write;
            let _ = write!(s, "{b:02x}");
        }
        s
    }

    /// A short 8-hex-character prefix, handy for log lines and IDs.
    pub fn short(&self) -> String {
        self.to_hex()[..8].to_string()
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({})", self.short())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; DIGEST_LEN]> for Digest {
    fn from(b: [u8; DIGEST_LEN]) -> Self {
        Digest(b)
    }
}

/// SHA-256 round constants (first 32 bits of the fractional parts of the
/// cube roots of the first 64 primes).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// ```
/// use gridbank_crypto::sha256::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// assert_eq!(
///     h.finalize().to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 { state: H0, buf: [0u8; 64], buf_len: 0, total_len: 0 }
    }

    /// Feeds bytes into the hasher.
    pub fn update(&mut self, data: &[u8]) -> &mut Self {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;
        // Fill a partially filled buffer first.
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(input.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&input[..take]);
            self.buf_len += take;
            input = &input[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            } else {
                // Input fully absorbed into a still-partial buffer.
                debug_assert!(input.is_empty());
                return self;
            }
        }
        // Whole blocks straight from the input.
        let mut chunks = input.chunks_exact(64);
        for block in &mut chunks {
            let mut b = [0u8; 64];
            b.copy_from_slice(block);
            self.compress(&b);
        }
        let rem = chunks.remainder();
        self.buf[..rem.len()].copy_from_slice(rem);
        self.buf_len = rem.len();
        self
    }

    /// Consumes the hasher and returns the digest.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80 then zeros until 8 bytes remain in the block.
        let mut pad = [0u8; 72];
        pad[0] = 0x80;
        let pad_len = if self.buf_len < 56 { 56 - self.buf_len } else { 120 - self.buf_len };
        // update() tracks total_len; compensate since padding is not message.
        let saved = self.total_len;
        self.update(&pad[..pad_len]);
        self.update(&bit_len.to_be_bytes());
        self.total_len = saved;
        debug_assert_eq!(self.buf_len, 0);
        self.state_digest()
    }

    /// The digest of everything absorbed so far followed by `tail`, for a
    /// hasher standing on a block boundary and a tail of at most
    /// [`ONE_BLOCK_MAX`] bytes: the padded last block is laid out directly
    /// and compressed once, without the incremental hasher's buffering and
    /// without consuming `self`. Panics on a longer tail or a hasher
    /// holding a partial block.
    // Inlined so that `sha256_one_block`'s fresh hasher folds away: each
    // PayWord step is one compression.
    #[inline]
    pub fn finalize_one_block(&self, tail: &[u8]) -> Digest {
        assert!(self.buf_len == 0, "{} bytes are buffered short of a block", self.buf_len);
        assert!(tail.len() <= ONE_BLOCK_MAX, "{} bytes do not pad into one block", tail.len());
        let mut block = [0u8; 64];
        block[..tail.len()].copy_from_slice(tail);
        block[tail.len()] = 0x80;
        let bit_len = self.total_len.wrapping_add(tail.len() as u64).wrapping_mul(8);
        block[56..].copy_from_slice(&bit_len.to_be_bytes());
        let mut last = Sha256 { state: self.state, ..Sha256::new() };
        last.compress(&block);
        last.state_digest()
    }

    fn state_digest(&self) -> Digest {
        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }

    /// One compression: the 1-lane instance of [`compress_lanes`].
    #[inline]
    fn compress(&mut self, block: &[u8; 64]) {
        let mut words = [[0u32; 1]; 16];
        for (word, chunk) in words.iter_mut().zip(block.chunks_exact(4)) {
            word[0] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        let mut state = self.state.map(|word| [word]);
        compress_lanes(&mut state, &words);
        self.state = state.map(|[word]| word);
    }
}

/// Lanes the Winternitz walker hashes side by side: in standalone loops
/// four beat two (no faster than one lane) and eight (spilled registers).
pub(crate) const LANES: usize = 4;

/// The SHA-256 compression function applied to `N` independent blocks at
/// once. State and message are struct-of-arrays (`state[j][l]` is word `j`
/// of lane `l`) and every operation is a plain loop over the lanes, which
/// LLVM unrolls and interleaves, so the lanes' independent dependency
/// chains fill one core's execution units. This is the only copy of the
/// rounds.
#[inline(always)]
fn compress_lanes<const N: usize>(state: &mut [[u32; N]; 8], block: &[[u32; N]; 16]) {
    let mut w = [[0u32; N]; 64];
    w[..16].copy_from_slice(block);
    for i in 16..64 {
        #[allow(clippy::needless_range_loop)] // l indexes four rows of the schedule
        for l in 0..N {
            let (x, y) = (w[i - 15][l], w[i - 2][l]);
            let s0 = x.rotate_right(7) ^ x.rotate_right(18) ^ (x >> 3);
            let s1 = y.rotate_right(17) ^ y.rotate_right(19) ^ (y >> 10);
            w[i][l] = w[i - 16][l].wrapping_add(s0).wrapping_add(w[i - 7][l]).wrapping_add(s1);
        }
    }
    // K folded into the schedule, where one row's adds cover every lane
    // together, so each round adds one term fewer per lane.
    for (w, k) in w.iter_mut().zip(K) {
        for word in w.iter_mut() {
            *word = word.wrapping_add(k);
        }
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for w in w.iter() {
        let (mut new_a, mut new_e) = ([0u32; N], [0u32; N]);
        for l in 0..N {
            let s1 = e[l].rotate_right(6) ^ e[l].rotate_right(11) ^ e[l].rotate_right(25);
            let ch = ((f[l] ^ g[l]) & e[l]) ^ g[l];
            let t1 = h[l].wrapping_add(s1).wrapping_add(ch).wrapping_add(w[l]);
            let s0 = a[l].rotate_right(2) ^ a[l].rotate_right(13) ^ a[l].rotate_right(22);
            let maj = ((b[l] ^ c[l]) & a[l]) ^ (b[l] & c[l]);
            new_e[l] = d[l].wrapping_add(t1);
            new_a[l] = t1.wrapping_add(s0.wrapping_add(maj));
        }
        (h, g, f, e, d, c, b, a) = (g, f, e, new_e, c, b, a, new_a);
    }
    for (word, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        for l in 0..N {
            word[l] = word[l].wrapping_add(add[l]);
        }
    }
}

/// SHA-256 of [`LANES`] independent messages of one block each, already
/// padded and read as big-endian words (`words[j][l]` is word `j` of lane
/// `l`'s block); returns each lane's digest as big-endian words the same
/// way. The Winternitz walker's one compression.
pub(crate) fn one_block_lanes(words: &[[u32; LANES]; 16]) -> [[u32; LANES]; 8] {
    let mut state = H0.map(|word| [word; LANES]);
    compress_lanes(&mut state, words);
    state
}

/// One-shot SHA-256 of `data`.
#[inline]
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Longest message that pads into a single SHA-256 block.
pub const ONE_BLOCK_MAX: usize = 55;

/// SHA-256 of a message of at most [`ONE_BLOCK_MAX`] bytes in one
/// compression ([`Sha256::finalize_one_block`] on a fresh hasher). A
/// PayWord chain is walked with these back to back.
/// Panics on a longer message.
pub fn sha256_one_block(msg: &[u8]) -> Digest {
    Sha256::new().finalize_one_block(msg)
}

/// SHA-256 over the concatenation of several byte slices without copying
/// them into a single buffer first.
pub fn sha256_concat(parts: &[&[u8]]) -> Digest {
    let mut h = Sha256::new();
    for p in parts {
        h.update(p);
    }
    h.finalize()
}

/// Hashes a digest `n` times: `H^n(x)`. The backbone of PayWord chains.
/// A 32-byte word pads into one block, so a step is one compression.
pub fn iterate_hash(mut d: Digest, n: usize) -> Digest {
    for _ in 0..n {
        d = sha256_one_block(&d.0);
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `msgs` padded into one block each, as [`one_block_lanes`] reads them.
    fn padded_lanes(msgs: &[&[u8]; LANES]) -> [[u32; LANES]; 16] {
        let mut words = [[0u32; LANES]; 16];
        for (l, msg) in msgs.iter().enumerate() {
            let mut block = [0u8; 64];
            block[..msg.len()].copy_from_slice(msg);
            block[msg.len()] = 0x80;
            block[56..].copy_from_slice(&(msg.len() as u64 * 8).to_be_bytes());
            for (word, bytes) in words.iter_mut().zip(block.chunks_exact(4)) {
                word[l] = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
            }
        }
        words
    }

    /// Lane `l` of [`one_block_lanes`]'s output as a digest.
    fn lane_digest(state: &[[u32; LANES]; 8], l: usize) -> Digest {
        let mut out = [0u8; DIGEST_LEN];
        for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
            bytes.copy_from_slice(&word[l].to_be_bytes());
        }
        Digest(out)
    }

    #[test]
    fn lanes_hash_abc_beside_other_messages() {
        let max = [0xffu8; ONE_BLOCK_MAX];
        let state = one_block_lanes(&padded_lanes(&[b"", &max, b"abc", b"a"]));
        assert_eq!(
            lane_digest(&state, 2).to_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        for (l, msg) in [&b""[..], &max, b"abc", b"a"].iter().enumerate() {
            assert_eq!(lane_digest(&state, l), sha256(msg), "lane {l}");
        }
    }

    proptest! {
        /// Every lane is the one-block SHA-256 of its own message, whatever
        /// the other lanes hold.
        #[test]
        fn lanes_match_the_one_block_hash(
            msgs in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..=ONE_BLOCK_MAX),
                LANES,
            ),
        ) {
            let lanes: [&[u8]; LANES] = std::array::from_fn(|l| &msgs[l][..]);
            let state = one_block_lanes(&padded_lanes(&lanes));
            for (l, msg) in lanes.iter().enumerate() {
                prop_assert_eq!(lane_digest(&state, l), sha256_one_block(msg), "lane {}", l);
            }
        }
    }

    // NIST / well-known vectors.
    #[test]
    fn empty_message() {
        assert_eq!(
            sha256(b"").to_hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            sha256(b"abc").to_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            sha256(&data).to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot_at_all_split_points() {
        let msg: Vec<u8> = (0u8..=255).cycle().take(300).collect();
        let want = sha256(&msg);
        for split in 0..msg.len() {
            let mut h = Sha256::new();
            h.update(&msg[..split]);
            h.update(&msg[split..]);
            assert_eq!(h.finalize(), want, "split at {split}");
        }
    }

    #[test]
    fn concat_helper_matches() {
        assert_eq!(sha256_concat(&[b"ab", b"c"]), sha256(b"abc"));
        assert_eq!(sha256_concat(&[]), sha256(b""));
    }

    #[test]
    fn one_block_fast_path_matches_the_hasher_at_every_length() {
        let msg: Vec<u8> = (1u8..=ONE_BLOCK_MAX as u8).collect();
        for len in 0..=ONE_BLOCK_MAX {
            assert_eq!(sha256_one_block(&msg[..len]), sha256(&msg[..len]), "len {len}");
        }
    }

    #[test]
    fn one_block_finish_after_whole_blocks_matches_the_hasher() {
        let head = [0x36u8; 128];
        let tail: Vec<u8> = (1u8..=ONE_BLOCK_MAX as u8).collect();
        for blocks in 0..=2 {
            let mut h = Sha256::new();
            h.update(&head[..blocks * 64]);
            for len in [0, 1, 18, 32, ONE_BLOCK_MAX] {
                let mut whole = h.clone();
                whole.update(&tail[..len]);
                assert_eq!(h.finalize_one_block(&tail[..len]), whole.finalize(), "{blocks}+{len}");
            }
        }
    }

    #[test]
    fn length_boundary_paddings() {
        // Lengths around the 55/56/64-byte padding boundaries.
        for len in [0usize, 1, 54, 55, 56, 57, 63, 64, 65, 119, 120, 121, 128] {
            let msg = vec![0xABu8; len];
            let mut h = Sha256::new();
            for b in &msg {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), sha256(&msg), "len {len}");
        }
    }

    #[test]
    fn hex_round_trip() {
        let d = sha256(b"round trip");
        assert_eq!(Digest::from_hex(&d.to_hex()), Some(d));
        assert_eq!(Digest::from_hex("xyz"), None);
        assert_eq!(Digest::from_hex(&"0".repeat(63)), None);
        assert_eq!(Digest::from_hex(&"zz".repeat(32)), None);
    }

    #[test]
    fn iterate_hash_matches_the_sha256_loop() {
        let mut want = sha256(b"word");
        let start = want;
        for n in 0..40 {
            assert_eq!(iterate_hash(start, n), want, "n {n}");
            want = sha256(want.as_bytes());
        }
    }

    #[test]
    fn iterate_hash_composes() {
        let x = sha256(b"seed");
        let once_then_twice = iterate_hash(iterate_hash(x, 1), 2);
        assert_eq!(once_then_twice, iterate_hash(x, 3));
        assert_eq!(iterate_hash(x, 0), x);
    }

    #[test]
    fn digest_ordering_is_bytewise() {
        let mut v = [sha256(b"1"), sha256(b"2"), sha256(b"3")];
        v.sort();
        for w in v.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
    }
}
