//! # gridbank-net
//!
//! In-process "Grid I/O": the communication substrate standing in for the
//! Globus I/O API / GSS-API stack the paper builds GridBank's transport on
//! (§3.2: "Secure communication between all participants of any GridBank
//! transaction use Globus I/O API, which implements GSS API").
//!
//! Layers, bottom-up:
//!
//! * [`transport`] — a process-local message network: named endpoints,
//!   bind/connect/accept, bounded duplex links built on crossbeam
//!   channels. Deterministic and dependency-free, so tests and the
//!   discrete-event simulator can run thousands of connections.
//! * [`handshake`] — GSS-style **mutual authentication**: the client
//!   presents its proxy-certificate chain (single sign-on), the server its
//!   certificate; both sign the session transcript; session keys are
//!   derived from the transcript via HKDF.
//! * [`channel`] — [`channel::SecureChannel`]: sealed frames with
//!   keystream encryption, per-direction HMAC, and strict sequence numbers
//!   (replay/reorder rejection). Confidentiality here is keystream-based
//!   rather than a negotiated DH secret — a documented simulation
//!   substitute (DESIGN.md §2) — while authenticity and integrity are real
//!   signatures/MACs from `gridbank-crypto`.
//! * [`gate`] — the paper's DoS limiter: "Only clients with existing
//!   account or administrator privilege are authorized and connected";
//!   the gate decides from the authenticated subject name *before* the
//!   handshake completes.
//! * [`rpc`] — request/response correlation over a secure channel, the
//!   shape every GridBank protocol message uses. Frame ids are
//!   **correlation ids**: clients may pipeline many requests per
//!   connection, and servers send each response as its worker finishes
//!   (see `docs/PROTOCOLS.md` §1).
//! * [`fault`] — deterministic fault injection at the transport layer
//!   (drop/duplicate/reorder/reset, seed-driven) for chaos testing.
//! * [`retry`] — capped-exponential-backoff retry policy with
//!   decorrelated jitter plus a circuit breaker for failing peers.

#![forbid(unsafe_code)]

pub mod channel;
pub mod error;
pub mod fault;
pub mod gate;
pub mod handshake;
pub mod retry;
pub mod rpc;
pub mod transport;
pub(crate) mod wire;

pub use channel::{SecureChannel, SecureReceiver, SecureSender};
pub use error::NetError;
pub use fault::{FaultCounts, FaultInjector, FaultPlan, FaultRates};
pub use gate::{AdmissionDecision, ConnectionGate};
pub use handshake::{client_handshake, server_handshake, HandshakeConfig, PeerIdentity};
pub use retry::{BackoffSchedule, BreakerState, CircuitBreaker, RetryPolicy};
pub use rpc::{PipelinedRequest, ResponseWriter, RpcClient, RpcServer};
pub use transport::{Address, Duplex, Listener, Network, RecvHalf, SendHalf};
