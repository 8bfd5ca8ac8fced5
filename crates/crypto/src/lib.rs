//! # gridbank-crypto
//!
//! Cryptographic substrate for the GridBank reproduction, replacing the
//! Globus Security Infrastructure (GSI) that the paper builds on.
//!
//! The paper relies on GSI for four things:
//!
//! 1. **Identity** — X.509v3 certificates whose subject names are the
//!    Grid-wide unique client identifiers stored in GridBank accounts.
//! 2. **Single sign-on** — short-lived *proxy certificates* signed by the
//!    user's long-term key, so the user's passphrase is entered once.
//! 3. **Mutual authentication** — both ends of a connection prove control of
//!    their certified keys before any bank message flows.
//! 4. **Non-repudiation** — usage records and charge calculations are signed
//!    by the GSP so disputes can be settled.
//!
//! This crate provides all four from scratch, with no external crypto
//! dependencies:
//!
//! * [`mod@sha256`] — FIPS 180-4 SHA-256, the primitive everything below
//!   but [`aead`] is built from (PayWord hash chains in `gridbank-core` use
//!   it directly). One round function, run on one block or on four
//!   independent blocks side by side.
//! * [`hmac`] — HMAC-SHA256 and a simple HKDF-style key derivation.
//! * [`aead`] — ChaCha20-Poly1305 (RFC 8439), the sealed channel's cipher
//!   and MAC, and the one-time keys' PRG (ChaCha20 alone); the one
//!   primitive not built on SHA-256.
//! * [`wots`] — Winternitz one-time signatures (67 hash chains, 2,144 B),
//!   their chain starts drawn from a leaf key's ChaCha20 keystream and
//!   their chains walked four to a compression pass.
//! * [`merkle`] — Merkle trees and the Merkle signature scheme (MSS), turning
//!   one-time Winternitz keys into a multi-use signing identity.
//! * [`keys`] — seeded key generation and the [`keys::SigningIdentity`] type.
//! * [`cert`] — certificates, certificate authorities, proxy certificates and
//!   chain validation.
//! * [`rng`] — a deterministic SHA-256 counter-mode stream used wherever
//!   reproducible randomness is required.
//!
//! The schemes are real (unforgeable under standard hash assumptions), small
//! enough to audit, and deterministic under seeded RNGs, which the
//! simulation-driven experiments require. They are **not** constant-time and
//! are not intended for production use outside this reproduction.

pub mod aead;
pub mod cert;
pub mod error;
pub mod hmac;
pub mod keys;
pub mod merkle;
pub mod rng;
pub mod sha256;
pub mod wots;

pub use cert::{Certificate, CertificateAuthority, CertificateBody, ProxyCertificate, SubjectName};
pub use error::CryptoError;
pub use hmac::{hkdf_expand, hmac_sha256};
pub use keys::{KeyMaterial, SigningIdentity, VerifyingKey};
pub use merkle::{MerkleSignature, MerkleTree};
pub use rng::DeterministicStream;
pub use sha256::{sha256, Digest, Sha256, DIGEST_LEN};

/// Convenience prelude for downstream crates.
pub mod prelude {
    pub use crate::cert::{Certificate, CertificateAuthority, ProxyCertificate, SubjectName};
    pub use crate::error::CryptoError;
    pub use crate::keys::{SigningIdentity, VerifyingKey};
    pub use crate::sha256::{sha256, Digest};
}
