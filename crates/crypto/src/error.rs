//! Error type shared across the crypto crate.

use std::fmt;

/// Errors produced by signature, certificate, and key operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CryptoError {
    /// A signature failed verification against the claimed public key.
    BadSignature,
    /// A Merkle signing identity ran out of one-time leaf keys.
    IdentityExhausted {
        /// Total number of signatures the identity could ever produce.
        capacity: usize,
    },
    /// A Merkle authentication path did not reconstruct the committed root.
    BadAuthPath,
    /// A certificate chain failed validation.
    InvalidCertificate(String),
    /// A certificate or proxy was used outside its validity window.
    Expired {
        /// Validity end, in the epoch the issuer used.
        not_after: u64,
        /// Time at which validation was attempted.
        now: u64,
    },
    /// A proxy certificate's delegation depth was exceeded.
    DelegationTooDeep,
    /// Malformed serialized input.
    Malformed(String),
}

impl fmt::Display for CryptoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CryptoError::BadSignature => write!(f, "signature verification failed"),
            CryptoError::IdentityExhausted { capacity } => {
                write!(f, "signing identity exhausted after {capacity} signatures")
            }
            CryptoError::BadAuthPath => {
                write!(f, "Merkle authentication path does not match committed root")
            }
            CryptoError::InvalidCertificate(why) => write!(f, "invalid certificate: {why}"),
            CryptoError::Expired { not_after, now } => {
                write!(f, "credential expired at {not_after}, now {now}")
            }
            CryptoError::DelegationTooDeep => write!(f, "proxy delegation depth exceeded"),
            CryptoError::Malformed(what) => write!(f, "malformed input: {what}"),
        }
    }
}

impl std::error::Error for CryptoError {}
