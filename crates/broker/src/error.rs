//! Broker error type.

use std::fmt;

use gridbank_core::BankError;
use gridbank_gsp::GspError;
use gridbank_trade::TradeError;

/// Errors from the consumer-side pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BrokerError {
    /// No provider matched the discovery query.
    NoProviders,
    /// No schedule satisfies the deadline/budget constraints.
    Infeasible(String),
    /// The budget was exhausted mid-batch.
    BudgetExhausted {
        /// Jobs completed before exhaustion.
        completed: usize,
    },
    /// Negotiation with a provider failed.
    Negotiation(TradeError),
    /// Bank interaction failed.
    Bank(BankError),
    /// Provider-side failure.
    Provider(GspError),
}

impl BrokerError {
    /// Whether this failure is a transient bank-link condition — a
    /// retryable transport error — rather than a real refusal.
    /// Transient failures mean "the bank is unreachable right now": the
    /// broker should defer the affected job and carry on (graceful
    /// degradation) instead of aborting the batch or treating the funds
    /// as gone.
    pub fn is_transient(&self) -> bool {
        match self {
            BrokerError::Bank(BankError::Net(e)) => e.is_retryable(),
            _ => false,
        }
    }
}

impl fmt::Display for BrokerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BrokerError::NoProviders => write!(f, "no providers matched the query"),
            BrokerError::Infeasible(why) => write!(f, "no feasible schedule: {why}"),
            BrokerError::BudgetExhausted { completed } => {
                write!(f, "budget exhausted after {completed} jobs")
            }
            BrokerError::Negotiation(e) => write!(f, "negotiation: {e}"),
            BrokerError::Bank(e) => write!(f, "bank: {e}"),
            BrokerError::Provider(e) => write!(f, "provider: {e}"),
        }
    }
}

impl std::error::Error for BrokerError {}

impl From<TradeError> for BrokerError {
    fn from(e: TradeError) -> Self {
        BrokerError::Negotiation(e)
    }
}

impl From<BankError> for BrokerError {
    fn from(e: BankError) -> Self {
        BrokerError::Bank(e)
    }
}

impl From<GspError> for BrokerError {
    fn from(e: GspError) -> Self {
        BrokerError::Provider(e)
    }
}
