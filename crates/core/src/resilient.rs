//! The retry link: retries, reconnects, and exactly-once keys.
//!
//! [`RetryLink`] drives a wire [`GridBankClient`] with the machinery a
//! broker needs to survive a flaky bank link (`docs/RESILIENCE.md`);
//! one of the three links of DESIGN.md §4 "Calling a bank":
//!
//! * every attempt that fails with a *retryable* transport error
//!   ([`gridbank_net::NetError::is_retryable`]) tears the connection down and retries
//!   over a **fresh handshake**, following a seeded [`RetryPolicy`]
//!   schedule;
//! * a [`CircuitBreaker`] fails calls fast once the bank looks dead,
//!   and probes it again after a cooldown (graceful degradation);
//! * mutating requests are stamped with a **stable idempotency key**
//!   that is reused across every retry of the same logical operation,
//!   so the bank's dedup cache makes "maybe it applied" retries safe.
//!
//! Typed bank errors (insufficient funds, not authorized, ...) mean the
//! round trip *worked*; they are returned immediately and count as
//! breaker successes.

use std::time::Duration;

use gridbank_net::retry::{BreakerState, CircuitBreaker, RetryPolicy};

use crate::api::{BankRequest, BankResponse};
use crate::client::{BankClient, BankLink, GridBankClient};
use crate::clock::Clock;
use crate::error::BankError;

/// Per-attempt response timeout: short, so a dropped reply fails fast
/// and retries. Retries follow at once — on the in-process transport
/// faults are per message, not per time window.
const CALL_TIMEOUT: Duration = Duration::from_millis(100);

/// Builds a fresh authenticated connection (full handshake).
pub type Connector = Box<dyn FnMut() -> Result<GridBankClient, BankError> + Send>;

/// A link with retry, reconnect, circuit-breaker, and idempotency-key
/// stamping over wire connections dialled on demand.
pub struct RetryLink {
    connector: Connector,
    client: Option<GridBankClient>,
    policy: RetryPolicy,
    breaker: CircuitBreaker,
    clock: Clock,
    key_seed: u64,
    ops: u64,
}

/// The typed client over a [`RetryLink`], so GBPM/GBCM code can run
/// over a faulty link unchanged.
pub type ResilientBankClient = BankClient<RetryLink>;

impl ResilientBankClient {
    /// Wraps a connector. `key_seed` decorrelates this client's
    /// idempotency keys (and its jitter stream) from other clients'.
    pub fn new(connector: Connector, policy: RetryPolicy, clock: Clock, key_seed: u64) -> Self {
        BankClient::over(RetryLink {
            connector,
            client: None,
            policy: policy.with_seed(policy.seed ^ key_seed),
            breaker: CircuitBreaker::new(8, 1_000),
            clock,
            key_seed,
            ops: 0,
        })
    }

    /// Replaces the circuit breaker (threshold/cooldown tuning).
    pub fn with_breaker(self, breaker: CircuitBreaker) -> Self {
        BankClient::over(RetryLink { breaker, ..self.into_link() })
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
        let mut schedule = self.policy.schedule();
        loop {
            self.breaker.admit(self.clock.now_ms()).map_err(BankError::Net)?;
            gridbank_obs::count("net.retry.attempts", 1);
            match self.attempt(key, request) {
                Ok(resp) => {
                    self.breaker.record_success();
                    return Ok(resp);
                }
                Err(BankError::Net(e)) if e.is_retryable() => {
                    self.breaker.record_failure(self.clock.now_ms());
                    // The channel's state is suspect (lost frames break
                    // the sequence discipline): reconnect from scratch.
                    self.client = None;
                    match schedule.next() {
                        Some(delay_ms) => gridbank_obs::observe("net.retry.backoff_ms", delay_ms),
                        None => {
                            gridbank_obs::count("net.retry.giveups", 1);
                            return Err(BankError::Net(e));
                        }
                    }
                }
                Err(BankError::Net(e)) => {
                    // Non-retryable transport failure (refused, handshake,
                    // malformed frame, ...). Report it: if this was the
                    // half-open probe, the breaker must re-open with a
                    // fresh cooldown — swallowing the outcome would leave
                    // it wedged in HalfOpen, fast-failing forever.
                    self.breaker.record_failure(self.clock.now_ms());
                    self.client = None;
                    return Err(BankError::Net(e));
                }
                Err(e) => {
                    // A typed bank error is a *successful* round trip.
                    self.breaker.record_success();
                    return Err(e);
                }
            }
        }
    }

    fn breaker_state(&self) -> Option<&'static str> {
        Some(match self.breaker.state() {
            BreakerState::Closed => "Closed",
            BreakerState::Open { .. } => "Open",
            BreakerState::HalfOpen => "HalfOpen",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridbank_net::NetError;

    fn dead_connector() -> Connector {
        Box::new(|| Err(BankError::Net(NetError::Timeout)))
    }

    fn policy() -> RetryPolicy {
        RetryPolicy { base_delay_ms: 1, max_delay_ms: 4, max_attempts: 3, deadline_ms: 50, seed: 1 }
    }

    #[test]
    fn gives_up_after_max_attempts_on_retryable_errors() {
        let mut c = ResilientBankClient::new(dead_connector(), policy(), Clock::new(), 7);
        let err = c.my_account();
        assert!(matches!(err, Err(BankError::Net(NetError::Timeout))));
    }

    #[test]
    fn fatal_errors_do_not_retry() {
        let counter = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0));
        let c2 = counter.clone();
        let connector: Connector = Box::new(move || {
            c2.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Err(BankError::Net(NetError::Handshake("bad credentials".into())))
        });
        let mut c = ResilientBankClient::new(connector, policy(), Clock::new(), 7);
        let err = c.my_account();
        assert!(matches!(err, Err(BankError::Net(NetError::Handshake(_)))));
        assert_eq!(counter.load(std::sync::atomic::Ordering::Relaxed), 1);
    }

    #[test]
    fn breaker_opens_under_persistent_failure_and_fails_fast() {
        let clock = Clock::new();
        let counter = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0));
        let c2 = counter.clone();
        let connector: Connector = Box::new(move || {
            c2.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Err(BankError::Net(NetError::Timeout))
        });
        let mut c = ResilientBankClient::new(connector, policy(), clock.clone(), 7)
            .with_breaker(CircuitBreaker::new(2, 10_000));
        assert!(c.my_account().is_err());
        assert_eq!(c.breaker_state(), Some("Open"));
        let after_first = counter.load(std::sync::atomic::Ordering::Relaxed);
        // Now calls fail fast without touching the connector.
        let err = c.my_account();
        assert!(matches!(err, Err(BankError::Net(NetError::CircuitOpen))));
        assert_eq!(counter.load(std::sync::atomic::Ordering::Relaxed), after_first);
        // After the cooldown exactly one probe is admitted; its failure
        // re-opens the circuit, so the call again fails fast.
        clock.advance(10_001);
        let err = c.my_account();
        assert!(matches!(err, Err(BankError::Net(NetError::CircuitOpen))));
        assert_eq!(counter.load(std::sync::atomic::Ordering::Relaxed), after_first + 1);
        assert_eq!(c.breaker_state(), Some("Open"));
    }

    // Regression: a half-open probe that dies with a *non-retryable*
    // transport error (e.g. reconnect refused while the peer is down)
    // must report the failure and re-open the circuit. Before the fix
    // the outcome was swallowed, leaving the breaker wedged in HalfOpen
    // — every later call failed fast forever, even after recovery.
    #[test]
    fn failed_probe_with_fatal_error_reopens_instead_of_wedging() {
        let clock = Clock::new();
        let calls = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0));
        let c2 = calls.clone();
        let connector: Connector = Box::new(move || {
            let n = c2.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let err = if n < 2 {
                NetError::Timeout // trip the breaker
            } else {
                NetError::Refused { subject: "broker".into(), reason: "peer down".into() }
            };
            Err(BankError::Net(err))
        });
        let mut c = ResilientBankClient::new(connector, policy(), clock.clone(), 7)
            .with_breaker(CircuitBreaker::new(2, 10_000));
        assert!(c.my_account().is_err());
        assert_eq!(c.breaker_state(), Some("Open"));
        // Cooldown elapses; the probe fails with the fatal Refused.
        clock.advance(10_001);
        let err = c.my_account();
        assert!(matches!(err, Err(BankError::Net(NetError::Refused { .. }))));
        // The breaker re-opened with a fresh cooldown — not HalfOpen.
        assert_eq!(c.breaker_state(), Some("Open"));
        let err = c.my_account();
        assert!(matches!(err, Err(BankError::Net(NetError::CircuitOpen))));
        // After another cooldown the next probe is admitted again: the
        // client recovers instead of being bricked.
        clock.advance(10_001);
        let before = calls.load(std::sync::atomic::Ordering::Relaxed);
        assert!(c.my_account().is_err());
        assert_eq!(calls.load(std::sync::atomic::Ordering::Relaxed), before + 1);
    }

    #[test]
    fn idempotency_keys_are_unique_per_operation() {
        let mut c =
            ResilientBankClient::new(dead_connector(), policy(), Clock::new(), 7).into_link();
        let a = c.fresh_key();
        let b = c.fresh_key();
        assert_ne!(a, b);
        let mut other =
            ResilientBankClient::new(dead_connector(), policy(), Clock::new(), 8).into_link();
        assert_ne!(a, other.fresh_key());
    }
}
