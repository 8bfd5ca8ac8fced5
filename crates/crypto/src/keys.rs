//! High-level key types: [`SigningIdentity`] / [`VerifyingKey`].
//!
//! These wrap the Merkle signature scheme behind the interface the rest of
//! the workspace uses: generate from a seed, sign bytes, verify bytes.

use crate::error::CryptoError;
use crate::merkle::{verify_merkle, MerkleSignature, MerkleSigner};
use crate::rng::DeterministicStream;
use crate::sha256::Digest;

/// Default tree height: 2^10 = 1024 signatures per identity, enough for any
/// scenario in the test/bench suite. Every leaf key is generated up front,
/// about 0.3 ms of CPU each in a release build, spread over every core
/// (`crypto.merkle.keygen_ms_h10` ≈ 160 ms on two cores).
pub const DEFAULT_HEIGHT: usize = 10;

/// Seed material for deterministic identity generation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KeyMaterial {
    /// Master seed; independent identities should use distinct labels.
    pub seed: u64,
}

/// The public half of an identity: the Merkle root digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct VerifyingKey(pub Digest);

impl VerifyingKey {
    /// Verifies `sig` over `message`.
    pub fn verify(&self, message: &[u8], sig: &MerkleSignature) -> Result<(), CryptoError> {
        verify_merkle(&self.0, message, sig)
    }

    /// Stable hex fingerprint, used in subject bindings and logs.
    pub fn fingerprint(&self) -> String {
        self.0.short()
    }
}

impl std::fmt::Debug for VerifyingKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "VerifyingKey({})", self.fingerprint())
    }
}

/// A long-lived signing identity. Signing consumes one-time leaves
/// through `&self`: the signer claims each leaf atomically and holds no
/// lock while it signs.
pub struct SigningIdentity {
    signer: MerkleSigner,
    public: VerifyingKey,
}

impl SigningIdentity {
    /// Generates an identity with `2^height` signatures from seed+label.
    pub fn generate_with_height(material: KeyMaterial, label: &str, height: usize) -> Self {
        let stream = DeterministicStream::from_u64(material.seed, label.as_bytes());
        let signer = MerkleSigner::generate(&stream, height);
        let public = VerifyingKey(signer.public_root());
        SigningIdentity { signer, public }
    }

    /// Generates an identity with the [`DEFAULT_HEIGHT`] capacity.
    pub fn generate(material: KeyMaterial, label: &str) -> Self {
        Self::generate_with_height(material, label, DEFAULT_HEIGHT)
    }

    /// A small identity (2^4 = 16 signatures) for fast unit tests.
    pub fn generate_small(material: KeyMaterial, label: &str) -> Self {
        Self::generate_with_height(material, label, 4)
    }

    /// The public verifying key.
    pub fn verifying_key(&self) -> VerifyingKey {
        self.public
    }

    /// Signs a message, consuming one one-time leaf.
    pub fn sign(&self, message: &[u8]) -> Result<MerkleSignature, CryptoError> {
        self.signer.sign(message)
    }

    /// Remaining signature capacity.
    pub fn remaining(&self) -> usize {
        self.signer.remaining()
    }

    /// Total signature capacity, `2^height`.
    pub fn capacity(&self) -> usize {
        self.signer.capacity()
    }
}

impl std::fmt::Debug for SigningIdentity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SigningIdentity(pub={})", self.public.fingerprint())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_round_trip() {
        let id = SigningIdentity::generate_small(KeyMaterial { seed: 1 }, "user/alice");
        let vk = id.verifying_key();
        let sig = id.sign(b"hello grid").unwrap();
        vk.verify(b"hello grid", &sig).unwrap();
        assert!(vk.verify(b"hello grid!", &sig).is_err());
    }

    #[test]
    fn identities_are_label_distinct() {
        let a = SigningIdentity::generate_small(KeyMaterial { seed: 1 }, "a");
        let b = SigningIdentity::generate_small(KeyMaterial { seed: 1 }, "b");
        let a2 = SigningIdentity::generate_small(KeyMaterial { seed: 1 }, "a");
        assert_ne!(a.verifying_key().0, b.verifying_key().0);
        assert_eq!(a.verifying_key().0, a2.verifying_key().0);
    }

    #[test]
    fn capacity_decreases_and_exhausts() {
        let id = SigningIdentity::generate_with_height(KeyMaterial { seed: 3 }, "x", 2);
        assert_eq!(id.remaining(), 4);
        for _ in 0..4 {
            id.sign(b"m").unwrap();
        }
        assert_eq!(id.remaining(), 0);
        assert!(matches!(id.sign(b"m"), Err(CryptoError::IdentityExhausted { .. })));
    }

    /// The root and the first revealed value were printed by this Python
    /// script, which derives the keys from the layout in `merkle` and
    /// `wots` with `hashlib`, `hmac` and the `cryptography` package's
    /// ChaCha20, not from this crate:
    ///
    /// ```text
    /// import hashlib, hmac
    /// from cryptography.hazmat.primitives.ciphers import Cipher, algorithms
    /// sha = lambda b: hashlib.sha256(b).digest()
    /// seed = sha((1).to_bytes(8, "big"))
    /// def starts(i):
    ///     key = hmac.new(seed, b"kat/ots/" + i.to_bytes(8, "big"), hashlib.sha256).digest()
    ///     prg = Cipher(algorithms.ChaCha20(key, bytes(16)), None).encryptor()
    ///     ks = prg.update(bytes(67 * 32))
    ///     return [ks[32 * c:32 * c + 32] for c in range(67)]
    /// def walk(v, c, a, b):
    ///     for p in range(a, b):
    ///         v = sha(v + bytes([c, p]))
    ///     return v
    /// def leaf(i):
    ///     pk = sha(b"".join(walk(s, c, 0, 15) for c, s in enumerate(starts(i))))
    ///     return sha(b"\x00gridbank-leaf" + pk)
    /// node = lambda l, r: sha(b"\x01gridbank-node" + l + r)
    /// print("root", node(node(leaf(0), leaf(1)), node(leaf(2), leaf(3))).hex())
    /// d = sha(b"known answer")
    /// print("revealed0", walk(starts(0)[0], 0, 0, d[0] >> 4).hex())
    /// ```
    ///
    /// Any change to the leaf key, the chain starts, a chain step or the
    /// tree fails here; the verifier's side is pinned by every round trip.
    #[test]
    fn keys_match_an_independent_reference() {
        let id = SigningIdentity::generate_with_height(KeyMaterial { seed: 1 }, "kat", 2);
        assert_eq!(
            id.verifying_key().0.to_hex(),
            "3cfadfe3f5bdd6264b250c845fd78b8028f395aa7b135c59b2484ae3ed1bfa5f"
        );
        let sig = id.sign(b"known answer").unwrap();
        assert_eq!(
            sig.ots.revealed[0].to_hex(),
            "fa79cce44cae2c6009f64eb0bef5d8c379fe7005ee7daa314defebe0b551d4b1"
        );
    }

    #[test]
    fn concurrent_signing_is_safe() {
        let id = SigningIdentity::generate_with_height(KeyMaterial { seed: 9 }, "conc", 5);
        let vk = id.verifying_key();
        // All four threads leave the barrier together, so their claims on
        // the leaf counter overlap instead of running one after another.
        let start = std::sync::Barrier::new(4);
        let signed: Vec<(String, MerkleSignature)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let (id, start) = (&id, &start);
                    scope.spawn(move || {
                        start.wait();
                        (0..8)
                            .map(|i| {
                                let msg = format!("t{t}m{i}");
                                let sig = id.sign(msg.as_bytes()).unwrap();
                                (msg, sig)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        let mut indices = std::collections::HashSet::new();
        for (msg, sig) in &signed {
            vk.verify(msg.as_bytes(), sig).unwrap();
            assert!(indices.insert(sig.leaf_index), "leaf reused across threads");
        }
        assert_eq!(indices.len(), 32);
        // The whole key went, exactly: nothing skipped, nothing left.
        assert_eq!(id.remaining(), 0);
        assert!(matches!(id.sign(b"m"), Err(CryptoError::IdentityExhausted { capacity: 32 })));
    }
}
