//! Merkle trees and the Merkle signature scheme (MSS).
//!
//! MSS turns `2^h` Winternitz one-time keys ([`crate::wots`]) into a single
//! long-lived identity: the public key is the Merkle root over the compact
//! one-time public keys, and each signature carries the one-time
//! signature, the leaf index, and the authentication path up to the root.
//!
//! The tree is also used on its own: `gridbank-core` commits a batch of
//! transfer confirmations to one root, signs the root once, and hands each
//! receipt its leaf's auth path (`direct::sign_receipts`).

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::error::CryptoError;
use crate::rng::DeterministicStream;
use crate::sha256::{sha256, sha256_concat, Digest, DIGEST_LEN};
use crate::wots::{self, OneTimeSignature};

/// Domain-separation prefixes so leaves can never be confused with nodes.
const LEAF_PREFIX: &[u8] = b"\x00gridbank-leaf";
const NODE_PREFIX: &[u8] = b"\x01gridbank-node";

/// Hashes a leaf payload into the tree's leaf digest.
pub fn leaf_hash(payload: &[u8]) -> Digest {
    sha256_concat(&[LEAF_PREFIX, payload])
}

/// Hashes two child digests into their parent.
pub fn node_hash(left: &Digest, right: &Digest) -> Digest {
    sha256_concat(&[NODE_PREFIX, left.as_bytes(), right.as_bytes()])
}

/// A complete binary Merkle tree over pre-hashed leaves.
///
/// Leaf count is padded to the next power of two by repeating the last
/// leaf digest, a standard construction that keeps auth paths uniform.
/// Because of the padding, a path alone does not say how many leaves are
/// real: a protocol that commits to a count of leaves must sign the count
/// beside the root (CVE-2012-2459 is the bug when it does not).
#[derive(Clone, Debug)]
pub struct MerkleTree {
    /// Every level end to end in one buffer: the `width` (padded) leaves
    /// first, then each parent level, the root last.
    nodes: Vec<Digest>,
    /// Padded leaf count, a power of two.
    width: usize,
    real_leaves: usize,
}

impl MerkleTree {
    /// Builds a tree over already-hashed leaf digests, growing the parent
    /// levels in the leaves' own buffer.
    ///
    /// Panics if `leaves` is empty (an empty commitment is meaningless).
    pub fn from_leaf_digests(mut nodes: Vec<Digest>) -> Self {
        assert!(!nodes.is_empty(), "Merkle tree needs at least one leaf");
        let real_leaves = nodes.len();
        let width = real_leaves.next_power_of_two();
        nodes.reserve_exact(2 * width - 1 - real_leaves);
        let pad = *nodes.last().expect("nonempty");
        nodes.resize(width, pad);
        let (mut start, mut len) = (0, width);
        while len > 1 {
            for left in (start..start + len).step_by(2) {
                let parent = node_hash(&nodes[left], &nodes[left + 1]);
                nodes.push(parent);
            }
            start += len;
            len /= 2;
        }
        MerkleTree { nodes, width, real_leaves }
    }

    /// Builds a tree by hashing raw leaf payloads first.
    pub fn from_payloads<T: AsRef<[u8]>>(payloads: &[T]) -> Self {
        Self::from_leaf_digests(payloads.iter().map(|p| leaf_hash(p.as_ref())).collect())
    }

    /// The committed root.
    pub fn root(&self) -> Digest {
        *self.nodes.last().expect("nonempty")
    }

    /// Number of real (unpadded) leaves.
    pub fn len(&self) -> usize {
        self.real_leaves
    }

    /// Always false: a tree is built from at least one leaf.
    pub fn is_empty(&self) -> bool {
        false // constructor forbids empty trees; method exists for clippy symmetry
    }

    /// Tree height (number of levels above the leaves).
    pub fn height(&self) -> usize {
        self.width.trailing_zeros() as usize
    }

    /// Authentication path for leaf `index`: one sibling digest per tree
    /// level, from the leaf level to just below the root.
    pub fn auth_path(&self, index: usize) -> Option<Vec<Digest>> {
        if index >= self.real_leaves {
            return None;
        }
        let mut siblings = Vec::with_capacity(self.height());
        let (mut start, mut len, mut idx) = (0, self.width, index);
        while len > 1 {
            siblings.push(self.nodes[start + (idx ^ 1)]);
            start += len;
            len /= 2;
            idx >>= 1;
        }
        Some(siblings)
    }
}

/// Recomputes a root from the leaf digest at `index` and its auth path.
pub fn root_from_path(leaf: &Digest, index: usize, path: &[Digest]) -> Digest {
    let mut acc = *leaf;
    let mut idx = index;
    for sib in path {
        acc = if idx & 1 == 0 { node_hash(&acc, sib) } else { node_hash(sib, &acc) };
        idx >>= 1;
    }
    acc
}

/// Verifies that `leaf` sits at `index` under `root`. An index the path
/// is too short to address is refused rather than read modulo the width.
pub fn verify_path(
    root: &Digest,
    leaf: &Digest,
    index: usize,
    path: &[Digest],
) -> Result<(), CryptoError> {
    // The bits of `index` above the path's height; a height of the full
    // word width or more leaves none.
    let beyond_width =
        u32::try_from(path.len()).ok().and_then(|h| index.checked_shr(h)).unwrap_or(0);
    if beyond_width == 0 && root_from_path(leaf, index, path) == *root {
        Ok(())
    } else {
        Err(CryptoError::BadAuthPath)
    }
}

/// A multi-use Merkle (MSS) signature.
///
/// It carries neither the one-time public key nor a second copy of the
/// index: verification recomputes the key from `ots`, and `leaf_index` is
/// bound by being the position `path` is walked from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MerkleSignature {
    /// Index of the one-time key used.
    pub leaf_index: usize,
    /// The one-time Winternitz signature.
    pub ots: OneTimeSignature,
    /// Sibling digests authenticating the one-time key under the
    /// identity's root, from the leaf level to just below the root.
    pub path: Vec<Digest>,
}

/// Deepest auth path the codec accepts (a `usize` leaf index addresses no more).
const MAX_PATH_LEN: usize = 64;

impl MerkleSignature {
    /// Exact encoded size in bytes; fixed given the tree height.
    pub fn encoded_len(&self) -> usize {
        8 + OneTimeSignature::ENCODED_LEN + 8 + self.path.len() * DIGEST_LEN
    }

    /// Canonical byte encoding — `leaf_index ‖ ots ‖ path length ‖ path`,
    /// integers as big-endian `u64` — the one layout every wire message,
    /// certificate and instrument embeds.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        out.extend_from_slice(&(self.leaf_index as u64).to_be_bytes());
        self.ots.write_to(&mut out);
        out.extend_from_slice(&(self.path.len() as u64).to_be_bytes());
        for s in &self.path {
            out.extend_from_slice(s.as_bytes());
        }
        out
    }

    /// Parses the [`Self::to_bytes`] encoding; the input must be exact.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        const HEADER: usize = 8 + OneTimeSignature::ENCODED_LEN + 8;
        fn be_u64(b: &[u8]) -> u64 {
            u64::from_be_bytes(b.try_into().expect("caller slices 8 bytes"))
        }
        if bytes.len() < HEADER {
            return Err(CryptoError::Malformed("signature truncated".into()));
        }
        let (header, path_bytes) = bytes.split_at(HEADER);
        let leaf_index = usize::try_from(be_u64(&header[..8]))
            .map_err(|_| CryptoError::Malformed("leaf index out of range".into()))?;
        let ots = OneTimeSignature::from_bytes(&header[8..HEADER - 8])?;
        let n = be_u64(&header[HEADER - 8..]);
        // Checked against the bytes actually present before anything is
        // allocated for the path.
        if n > MAX_PATH_LEN as u64 || path_bytes.len() as u64 != n * DIGEST_LEN as u64 {
            return Err(CryptoError::Malformed(format!(
                "auth path of {n} digests disagrees with {} remaining bytes",
                path_bytes.len()
            )));
        }
        let path = path_bytes
            .chunks_exact(DIGEST_LEN)
            .map(|c| Digest(c.try_into().expect("chunks_exact yields DIGEST_LEN bytes")))
            .collect();
        Ok(MerkleSignature { leaf_index, ots, path })
    }
}

/// The signing half of an MSS identity: the seed, the tree over the
/// one-time public keys, and a counter of leaves handed out. Seed and
/// tree never change after generation, so signing takes `&self`: a
/// signer claims its leaf with one atomic update and derives that leaf's
/// secrets without excluding other signers.
pub struct MerkleSigner {
    stream_root: DeterministicStream,
    tree: MerkleTree,
    next_leaf: AtomicUsize,
}

/// Fewest leaves a key-generation thread is given, so that a small tree
/// is generated on the caller's thread alone.
const MIN_LEAVES_PER_THREAD: usize = 64;

impl MerkleSigner {
    /// Generates an identity with `2^height` one-time keys, the leaves on
    /// every available core; the node levels, about one compression in
    /// five hundred, are hashed after on the caller's thread.
    pub fn generate(stream: &DeterministicStream, height: usize) -> Self {
        let count = 1usize << height;
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let threads = cores.min(count / MIN_LEAVES_PER_THREAD).max(1);
        let tree = MerkleTree::from_leaf_digests(leaf_digests(stream, count, threads));
        MerkleSigner { stream_root: stream.clone(), tree, next_leaf: AtomicUsize::new(0) }
    }

    /// The public key: the Merkle root.
    pub fn public_root(&self) -> Digest {
        self.tree.root()
    }

    /// Total signature capacity.
    pub fn capacity(&self) -> usize {
        self.tree.len()
    }

    /// Signatures still available.
    pub fn remaining(&self) -> usize {
        self.capacity() - self.next_leaf.load(Ordering::SeqCst)
    }

    /// Signs a message, consuming one leaf. The claim is a single atomic
    /// read-modify-write, so no two callers ever receive the same index
    /// and the counter never passes the capacity.
    pub fn sign(&self, message: &[u8]) -> Result<MerkleSignature, CryptoError> {
        let capacity = self.capacity();
        let leaf_index = self
            .next_leaf
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| (n < capacity).then_some(n + 1))
            .map_err(|_| CryptoError::IdentityExhausted { capacity })?;
        let ots = wots::sign_digest(&leaf_key(&self.stream_root, leaf_index), &sha256(message));
        let path = self.tree.auth_path(leaf_index).expect("claimed index is below capacity");
        Ok(MerkleSignature { leaf_index, ots, path })
    }
}

/// The key of one-time key `index` under an identity's stream: one HMAC
/// block over `label ‖ "/ots/" ‖ index`, two compressions.
fn leaf_key(stream: &DeterministicStream, index: usize) -> Digest {
    stream.child_block(b"ots/", index as u64)
}

/// The leaf digests of one-time keys `0..count`, in index order, derived
/// in `threads` contiguous ranges: the caller derives the first and a
/// scoped thread each of the others, every one into its own part of the
/// one vector, so no thread allocates.
fn leaf_digests(stream: &DeterministicStream, count: usize, threads: usize) -> Vec<Digest> {
    let mut leaves = vec![Digest::ZERO; count];
    let per_thread = count.div_ceil(threads);
    std::thread::scope(|scope| {
        let mut parts = leaves.chunks_mut(per_thread).enumerate();
        let (_, mine) = parts.next().expect("a tree has at least one leaf");
        for (k, part) in parts {
            scope.spawn(move || fill_leaf_digests(stream, k * per_thread, part));
        }
        fill_leaf_digests(stream, 0, mine);
    });
    leaves
}

/// Writes the leaf digest of one-time key `first + j` into `out[j]`.
fn fill_leaf_digests(stream: &DeterministicStream, first: usize, out: &mut [Digest]) {
    for (index, leaf) in (first..).zip(out) {
        *leaf = leaf_hash(wots::public_key(&leaf_key(stream, index)).as_bytes());
    }
}

/// Verifies an MSS signature against an identity root: the one-time key
/// the signature recomputes must be the leaf at `leaf_index`.
pub fn verify_merkle(
    root: &Digest,
    message: &[u8],
    sig: &MerkleSignature,
) -> Result<(), CryptoError> {
    let leaf_key = wots::public_key_from_signature(&sha256(message), &sig.ots);
    let leaf = leaf_hash(leaf_key.as_bytes());
    // A wrong message, a tampered one-time signature, a wrong index and a
    // wrong path all surface here, as a root that does not match.
    verify_path(root, &leaf, sig.leaf_index, &sig.path).map_err(|_| CryptoError::BadSignature)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn stream(label: &[u8]) -> DeterministicStream {
        DeterministicStream::from_u64(0xBEEF, label)
    }

    #[test]
    fn tree_roots_are_deterministic_and_leaf_sensitive() {
        let a = MerkleTree::from_payloads(&[b"a".as_slice(), b"b", b"c"]);
        let b = MerkleTree::from_payloads(&[b"a".as_slice(), b"b", b"c"]);
        let c = MerkleTree::from_payloads(&[b"a".as_slice(), b"b", b"d"]);
        assert_eq!(a.root(), b.root());
        assert_ne!(a.root(), c.root());
        assert_eq!(a.len(), 3);
        assert_eq!(a.height(), 2);
    }

    #[test]
    fn auth_paths_verify_for_every_leaf() {
        let payloads: Vec<Vec<u8>> = (0..13u8).map(|i| vec![i; 4]).collect();
        let tree = MerkleTree::from_payloads(&payloads);
        for (i, p) in payloads.iter().enumerate() {
            let path = tree.auth_path(i).unwrap();
            verify_path(&tree.root(), &leaf_hash(p), i, &path).unwrap();
        }
        assert!(tree.auth_path(13).is_none());
    }

    #[test]
    fn wrong_leaf_or_index_fails() {
        let tree = MerkleTree::from_payloads(&[b"x".as_slice(), b"y", b"z", b"w"]);
        let path = tree.auth_path(1).unwrap();
        verify_path(&tree.root(), &leaf_hash(b"y"), 1, &path).unwrap();
        assert!(verify_path(&tree.root(), &leaf_hash(b"not-y"), 1, &path).is_err());
        assert!(verify_path(&tree.root(), &leaf_hash(b"y"), 2, &path).is_err());
        // An index beyond the tree is not read modulo its width.
        assert_eq!(root_from_path(&leaf_hash(b"y"), 1 + 4, &path), tree.root());
        assert_eq!(
            verify_path(&tree.root(), &leaf_hash(b"y"), 1 + 4, &path),
            Err(CryptoError::BadAuthPath)
        );
    }

    #[test]
    fn single_leaf_tree() {
        let tree = MerkleTree::from_payloads(&[b"only".as_slice()]);
        assert_eq!(tree.height(), 0);
        let path = tree.auth_path(0).unwrap();
        assert!(path.is_empty());
        verify_path(&tree.root(), &leaf_hash(b"only"), 0, &path).unwrap();
    }

    #[test]
    fn leaf_and_node_domains_are_separated() {
        // A leaf over 64 bytes must not equal a node over two 32-byte digests.
        let l = Digest::ZERO;
        let r = Digest::ZERO;
        let mut payload = Vec::new();
        payload.extend_from_slice(l.as_bytes());
        payload.extend_from_slice(r.as_bytes());
        assert_ne!(leaf_hash(&payload), node_hash(&l, &r));
    }

    #[test]
    fn mss_sign_verify_until_exhaustion() {
        let signer = MerkleSigner::generate(&stream(b"mss"), 2);
        let root = signer.public_root();
        assert_eq!(signer.capacity(), 4);
        for i in 0..4 {
            let msg = format!("message {i}");
            let sig = signer.sign(msg.as_bytes()).unwrap();
            assert_eq!(sig.leaf_index, i);
            verify_merkle(&root, msg.as_bytes(), &sig).unwrap();
            // Cross-message verification must fail.
            assert_eq!(verify_merkle(&root, b"other", &sig), Err(CryptoError::BadSignature));
        }
        assert_eq!(signer.remaining(), 0);
        let exhausted = Err(CryptoError::IdentityExhausted { capacity: 4 });
        assert_eq!(signer.sign(b"one too many"), exhausted);
        // A refused claim does not move the counter.
        assert_eq!(signer.sign(b"two too many"), exhausted);
        assert_eq!(signer.remaining(), 0);
    }

    #[test]
    fn mss_rejects_cross_identity_signatures() {
        let alice = MerkleSigner::generate(&stream(b"alice"), 2);
        let bob = MerkleSigner::generate(&stream(b"bob"), 2);
        let sig = alice.sign(b"msg").unwrap();
        assert!(verify_merkle(&bob.public_root(), b"msg", &sig).is_err());
    }

    #[test]
    fn mss_signature_tamper_rejected() {
        let signer = MerkleSigner::generate(&stream(b"tamper"), 2);
        let root = signer.public_root();
        let sig = signer.sign(b"msg").unwrap();
        verify_merkle(&root, b"msg", &sig).unwrap();

        for chain in 0..crate::wots::CHAINS {
            let mut bad = sig.clone();
            bad.ots.revealed[chain].0[31] ^= 0x80;
            assert!(verify_merkle(&root, b"msg", &bad).is_err(), "chain {chain}");
        }

        let mut bad_path = sig.clone();
        bad_path.path[0] = Digest::ZERO;
        assert!(verify_merkle(&root, b"msg", &bad_path).is_err());

        // Nothing but the path binds the index: every other index of the
        // tree, and the same index beyond the tree's width, must fail it.
        for wrong in [1, 2, 3, sig.leaf_index + 4, usize::MAX] {
            let mut moved = sig.clone();
            moved.leaf_index = wrong;
            assert!(verify_merkle(&root, b"msg", &moved).is_err(), "index {wrong}");
        }

        // A signature cut from one leaf does not verify with another's path.
        let mut spliced = signer.sign(b"msg").unwrap();
        spliced.ots = sig.ots.clone();
        assert!(verify_merkle(&root, b"msg", &spliced).is_err());
    }

    #[test]
    fn mss_is_deterministic_per_seed() {
        let a = MerkleSigner::generate(&stream(b"same"), 3);
        let b = MerkleSigner::generate(&stream(b"same"), 3);
        assert_eq!(a.public_root(), b.public_root());
        assert_eq!(a.sign(b"m").unwrap(), b.sign(b"m").unwrap());
        let c = MerkleSigner::generate(&stream(b"diff"), 3);
        assert_ne!(a.public_root(), c.public_root());
    }

    #[test]
    fn a_one_leaf_identity_generates_and_signs() {
        let signer = MerkleSigner::generate(&stream(b"one"), 0);
        assert_eq!(signer.capacity(), 1);
        let sig = signer.sign(b"only").unwrap();
        assert!(sig.path.is_empty());
        verify_merkle(&signer.public_root(), b"only", &sig).unwrap();
        assert_eq!(signer.sign(b"again"), Err(CryptoError::IdentityExhausted { capacity: 1 }));
    }

    #[test]
    fn signature_bytes_round_trip() {
        let signer = MerkleSigner::generate(&stream(b"codec"), 3);
        let root = signer.public_root();
        let sig = signer.sign(b"message").unwrap();
        let bytes = sig.to_bytes();
        assert_eq!(bytes.len(), sig.encoded_len());
        assert_eq!(bytes.len(), 8 + 2_144 + 8 + 3 * 32);
        let back = MerkleSignature::from_bytes(&bytes).unwrap();
        assert_eq!(back, sig);
        verify_merkle(&root, b"message", &back).unwrap();
        // Truncation (by a byte, by a whole sibling) and trailing garbage
        // (a byte, a whole digest) all fail with the typed error.
        let mut extended = bytes.clone();
        extended.extend_from_slice(&[0; 32]);
        for wrong in [
            &bytes[..bytes.len() - 1],
            &bytes[..bytes.len() - 32],
            &bytes[..100],
            &extended[..bytes.len() + 1],
            &extended[..],
        ] {
            assert!(matches!(MerkleSignature::from_bytes(wrong), Err(CryptoError::Malformed(_))));
        }
    }

    #[test]
    fn hostile_path_length_is_refused_before_allocation() {
        let signer = MerkleSigner::generate(&stream(b"hostile"), 1);
        let mut bytes = signer.sign(b"m").unwrap().to_bytes();
        let count_at = 8 + OneTimeSignature::ENCODED_LEN;
        for claimed in [0u64, 2, 65, u64::MAX / 32 + 1, u64::MAX] {
            bytes[count_at..count_at + 8].copy_from_slice(&claimed.to_be_bytes());
            assert!(
                matches!(MerkleSignature::from_bytes(&bytes), Err(CryptoError::Malformed(_))),
                "claimed {claimed}"
            );
        }
    }

    #[test]
    fn the_previous_signature_layout_is_refused() {
        // leaf_index ‖ 512 digests ‖ leaf key ‖ path index ‖ count ‖ path,
        // as a height-10 signature was laid out before W-OTS.
        let mut old = Vec::new();
        old.extend_from_slice(&7u64.to_be_bytes());
        old.extend_from_slice(&[0xAB; 512 * 32 + 32]);
        old.extend_from_slice(&7u64.to_be_bytes());
        old.extend_from_slice(&10u64.to_be_bytes());
        old.extend_from_slice(&[0xCD; 10 * 32]);
        assert!(matches!(MerkleSignature::from_bytes(&old), Err(CryptoError::Malformed(_))));
    }

    #[test]
    fn encoded_len_reports_path_growth() {
        let small = MerkleSigner::generate(&stream(b"s"), 1);
        let big = MerkleSigner::generate(&stream(b"b"), 4);
        let s = small.sign(b"m").unwrap();
        let g = big.sign(b"m").unwrap();
        assert_eq!(g.encoded_len() - s.encoded_len(), 3 * 32);
        assert_eq!(g.to_bytes().len(), g.encoded_len());
    }

    proptest! {
        #[test]
        fn from_bytes_never_panics_on_random_input(
            bytes in proptest::collection::vec(any::<u8>(), 0..3_000),
            claimed in any::<u64>(),
        ) {
            // Random bytes of any length are refused, never a panic; so
            // are bytes of a valid length unless the path count agrees.
            prop_assert!(MerkleSignature::from_bytes(&bytes).is_err());
            let mut shaped = bytes;
            shaped.resize(8 + OneTimeSignature::ENCODED_LEN + 8 + 64, 0x5A);
            let count_at = 8 + OneTimeSignature::ENCODED_LEN;
            shaped[count_at..count_at + 8].copy_from_slice(&claimed.to_be_bytes());
            prop_assert_eq!(MerkleSignature::from_bytes(&shaped).is_ok(), claimed == 2);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// However many threads derive the leaves, they are the ones one
        /// serial pass derives, and `generate` builds that tree.
        #[test]
        fn no_split_changes_the_tree(height in 0usize..=8, threads in 1usize..=5) {
            let stream = stream(b"split");
            let count = 1usize << height;
            let serial = leaf_digests(&stream, count, 1);
            prop_assert_eq!(&leaf_digests(&stream, count, threads), &serial);
            let generated = MerkleSigner::generate(&stream, height).public_root();
            prop_assert_eq!(generated, MerkleTree::from_leaf_digests(serial).root());
        }
    }
}
