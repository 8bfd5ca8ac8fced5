//! The retry link: retries, reconnects, and exactly-once keys.
//!
//! [`RetryLink`] drives a wire [`GridBankClient`] with the machinery a
//! broker needs to survive a flaky bank link (`docs/RESILIENCE.md`);
//! one of the three links of DESIGN.md §4 "Calling a bank". It owns the
//! one retry rule and has no options:
//!
//! * every attempt that fails with a *retryable* transport error
//!   ([`gridbank_net::NetError::is_retryable`]) tears the connection down
//!   and retries at once over a **fresh handshake**, up to [`ATTEMPTS`]
//!   attempts per call;
//! * [`UNREACHABLE_AFTER`] consecutive failed attempts, counted across
//!   calls, mark the bank unreachable ([`BankLink::reachable`], the ops
//!   plane's per-route signal) until one round trip succeeds;
//! * mutating requests are stamped with a **stable idempotency key**
//!   that is reused across every retry of the same logical operation,
//!   so the bank's dedup cache makes "maybe it applied" retries safe.
//!
//! Typed bank errors (insufficient funds, not authorized, ...) mean the
//! round trip *worked*; they are returned immediately and reset the
//! failure count.

use std::time::Duration;

use crate::api::{BankRequest, BankResponse};
use crate::client::{BankClient, BankLink, GridBankClient};
use crate::error::BankError;

/// Attempts per logical request, the first included.
pub const ATTEMPTS: u32 = 12;

/// Consecutive failed attempts after which the bank counts as
/// unreachable.
pub const UNREACHABLE_AFTER: u32 = 8;

/// Per-attempt response timeout: short, so a dropped reply fails fast
/// and retries. Retries follow at once — on the in-process transport
/// faults are per message, not per time window.
const CALL_TIMEOUT: Duration = Duration::from_millis(100);

/// Builds a fresh authenticated connection (full handshake).
pub type Connector = Box<dyn FnMut() -> Result<GridBankClient, BankError> + Send>;

/// A link with retry, reconnect, a reachability count, and
/// idempotency-key stamping over wire connections dialled on demand.
pub struct RetryLink {
    connector: Connector,
    client: Option<GridBankClient>,
    consecutive_failures: u32,
    key_seed: u64,
    ops: u64,
}

/// The typed client over a [`RetryLink`], so GBPM/GBCM code can run
/// over a faulty link unchanged.
pub type ResilientBankClient = BankClient<RetryLink>;

impl ResilientBankClient {
    /// Wraps a connector. `key_seed` decorrelates this client's
    /// idempotency keys from other clients'.
    pub fn new(connector: Connector, key_seed: u64) -> Self {
        BankClient::over(RetryLink {
            connector,
            client: None,
            consecutive_failures: 0,
            key_seed,
            ops: 0,
        })
    }
}

impl RetryLink {
    /// A fresh idempotency key for one logical mutating operation. The
    /// key stays fixed across every retry of that operation.
    fn fresh_key(&mut self) -> u64 {
        self.ops = self.ops.wrapping_add(1);
        self.key_seed ^ self.ops.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    fn attempt(
        &mut self,
        key: Option<u64>,
        request: &BankRequest,
    ) -> Result<BankResponse, BankError> {
        let client = match self.client.take() {
            Some(live) => self.client.insert(live),
            None => {
                let mut fresh = (self.connector)()?;
                fresh.set_call_timeout(Some(CALL_TIMEOUT));
                self.client.insert(fresh)
            }
        };
        client.call_keyed(key, request)
    }
}

impl BankLink for RetryLink {
    /// Sends one logical request with retries. A mutating request sent
    /// without a key is stamped with a fresh stable one; reads retry
    /// bare (always safe to repeat). A caller-supplied key is reused on
    /// every retry — the federation layer re-ships journaled `IbCredit`s
    /// under the durable key from their pending row, so a delivery
    /// retried across crashes still dedups against the original.
    fn call_keyed(
        &mut self,
        key: Option<u64>,
        request: &BankRequest,
    ) -> Result<BankResponse, BankError> {
        let key = key.or_else(|| request.is_mutating().then(|| self.fresh_key()));
        let mut attempts = 0u32;
        loop {
            attempts = attempts.saturating_add(1);
            gridbank_obs::count("net.retry.attempts", 1);
            let e = match self.attempt(key, request) {
                Err(BankError::Net(e)) => e,
                // A typed bank error is a *successful* round trip.
                outcome => {
                    self.consecutive_failures = 0;
                    return outcome;
                }
            };
            self.consecutive_failures = self.consecutive_failures.saturating_add(1);
            // The channel's state is suspect (lost frames break the
            // sequence discipline): reconnect from scratch.
            self.client = None;
            // Refused, handshake, malformed frame, ... would only fail
            // again.
            if !e.is_retryable() {
                return Err(BankError::Net(e));
            }
            if attempts == ATTEMPTS {
                gridbank_obs::count("net.retry.giveups", 1);
                return Err(BankError::Net(e));
            }
        }
    }

    fn reachable(&self) -> bool {
        self.consecutive_failures < UNREACHABLE_AFTER
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridbank_net::NetError;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    /// A connector that fails with `err` on every dial, and its dial
    /// count.
    fn failing(err: NetError) -> (Connector, Arc<AtomicU32>) {
        let dials = Arc::new(AtomicU32::new(0));
        let counted = Arc::clone(&dials);
        let connector: Connector = Box::new(move || {
            counted.fetch_add(1, Ordering::Relaxed);
            Err(BankError::Net(err.clone()))
        });
        (connector, dials)
    }

    #[test]
    fn retryable_errors_are_dialled_exactly_attempts_times() {
        assert_eq!(ATTEMPTS, 12);
        let (connector, dials) = failing(NetError::Timeout);
        let mut c = ResilientBankClient::new(connector, 7);
        assert!(matches!(c.my_account(), Err(BankError::Net(NetError::Timeout))));
        assert_eq!(dials.load(Ordering::Relaxed), ATTEMPTS);
        // Twelve failed attempts in one call are past the reachability
        // count on their own.
        assert!(!c.reachable());
    }

    #[test]
    fn non_retryable_errors_are_dialled_once() {
        let (connector, dials) = failing(NetError::Handshake("bad credentials".into()));
        let mut c = ResilientBankClient::new(connector, 7);
        assert!(matches!(c.my_account(), Err(BankError::Net(NetError::Handshake(_)))));
        assert_eq!(dials.load(Ordering::Relaxed), 1);
    }

    // The reset by one success or one typed bank error needs a live
    // bank: tests/deployment.rs
    // `a_route_is_unreachable_after_eight_failed_attempts_until_one_round_trip`.
    #[test]
    fn the_eighth_consecutive_failed_attempt_across_calls_is_unreachable() {
        assert_eq!(UNREACHABLE_AFTER, 8);
        // A refused dial is not retried: one failed attempt per call.
        let refused = NetError::Refused { subject: "/CN=b".into(), reason: "down".into() };
        let (connector, dials) = failing(refused);
        let mut c = ResilientBankClient::new(connector, 7);
        for call in 1..=UNREACHABLE_AFTER {
            assert!(matches!(c.my_account(), Err(BankError::Net(NetError::Refused { .. }))));
            assert_eq!(c.reachable(), call < UNREACHABLE_AFTER, "after call {call}");
        }
        assert_eq!(dials.load(Ordering::Relaxed), UNREACHABLE_AFTER);
    }

    #[test]
    fn idempotency_keys_are_unique_per_operation() {
        let mut c = ResilientBankClient::new(failing(NetError::Timeout).0, 7).into_link();
        let a = c.fresh_key();
        let b = c.fresh_key();
        assert_ne!(a, b);
        let mut other = ResilientBankClient::new(failing(NetError::Timeout).0, 8).into_link();
        assert_ne!(a, other.fresh_key());
    }
}
