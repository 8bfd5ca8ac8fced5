//! Error type for the network substrate.

use std::fmt;

use gridbank_crypto::CryptoError;

/// Errors from transport, handshake, secure channel, and RPC layers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// No listener is bound at the target address.
    NoSuchAddress(String),
    /// The address is already bound by another listener.
    AddressInUse(String),
    /// The peer closed the connection.
    Disconnected,
    /// A blocking receive timed out.
    Timeout,
    /// The handshake failed (bad credentials, bad signature, ...).
    Handshake(String),
    /// The connection gate refused admission.
    Refused {
        /// Authenticated subject that was refused.
        subject: String,
        /// Gate-provided reason.
        reason: String,
    },
    /// A sealed frame failed authentication or replay checks.
    ChannelIntegrity(String),
    /// A malformed wire message.
    Malformed(String),
    /// Crypto layer failure during handshake or sealing.
    Crypto(CryptoError),
}

impl NetError {
    /// Whether a retry of the same operation can plausibly succeed.
    ///
    /// Transient transport conditions — a timed-out receive, a peer that
    /// went away, or a secure channel whose sequence discipline was
    /// violated by loss/reordering — are retryable after reconnecting.
    /// Protocol, credential, and crypto failures are deterministic and
    /// retrying them would only repeat the failure.
    pub fn is_retryable(&self) -> bool {
        matches!(self, NetError::Timeout | NetError::Disconnected | NetError::ChannelIntegrity(_))
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::NoSuchAddress(a) => write!(f, "no listener at address `{a}`"),
            NetError::AddressInUse(a) => write!(f, "address `{a}` already bound"),
            NetError::Disconnected => write!(f, "peer disconnected"),
            NetError::Timeout => write!(f, "receive timed out"),
            NetError::Handshake(why) => write!(f, "handshake failed: {why}"),
            NetError::Refused { subject, reason } => {
                write!(f, "connection refused for `{subject}`: {reason}")
            }
            NetError::ChannelIntegrity(why) => write!(f, "channel integrity violation: {why}"),
            NetError::Malformed(why) => write!(f, "malformed message: {why}"),
            NetError::Crypto(e) => write!(f, "crypto failure: {e}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<CryptoError> for NetError {
    fn from(e: CryptoError) -> Self {
        NetError::Crypto(e)
    }
}
