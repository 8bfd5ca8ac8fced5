//! The Grid Agent.
//!
//! §2.2: the broker "deploys the Grid Agent responsible for setting up
//! execution environment on GSP's machine and downloading the application
//! and data from remote locations if they are not already on the
//! machine". The agent models that setup as a fixed deploy latency plus a
//! per-MB staging cost, and caches staged applications per provider so
//! repeat submissions skip the download — exactly the "if they are not
//! already on the machine" clause.

use std::collections::HashSet;

use gridbank_core::client::BankLink;
use gridbank_gsp::charging::PaymentInstrument;
use gridbank_gsp::provider::{GridServiceProvider, JobOutcome};
use gridbank_meter::machine::JobSpec;
use gridbank_trade::rates::ServiceRates;

use crate::error::BrokerError;

/// The agent and its staging cache.
pub struct GridAgent {
    /// Environment setup latency per submission, virtual ms.
    pub setup_ms: u64,
    /// Staging latency per MB of application+data on first contact.
    pub staging_ms_per_mb: u64,
    /// Application size to stage, MB.
    pub app_size_mb: u64,
    staged: HashSet<String>,
}

impl GridAgent {
    /// Creates an agent with the given overheads.
    pub fn new(setup_ms: u64, staging_ms_per_mb: u64, app_size_mb: u64) -> Self {
        GridAgent { setup_ms, staging_ms_per_mb, app_size_mb, staged: HashSet::new() }
    }

    /// Deploy overhead for a submission to `provider_cert` at this point:
    /// setup plus (first time only) staging.
    pub fn deploy_overhead_ms(&mut self, provider_cert: &str) -> u64 {
        let staging = if self.staged.insert(provider_cert.to_string()) {
            self.staging_ms_per_mb.saturating_mul(self.app_size_mb)
        } else {
            0
        };
        self.setup_ms.saturating_add(staging)
    }

    /// True if the application is already staged at the provider.
    pub fn is_staged(&self, provider_cert: &str) -> bool {
        self.staged.contains(provider_cert)
    }

    /// Deploys and runs one job: overheads shift the start time, then the
    /// provider executes the §2 pipeline.
    #[allow(clippy::too_many_arguments)]
    pub fn run<L: BankLink>(
        &mut self,
        provider: &mut GridServiceProvider<L>,
        consumer_cert: &str,
        instrument: PaymentInstrument,
        job: &JobSpec,
        agreed: &ServiceRates,
        now_ms: u64,
    ) -> Result<JobOutcome, BrokerError> {
        let start = now_ms.saturating_add(self.deploy_overhead_ms(&provider.cert));
        Ok(provider.execute_job(consumer_cert, instrument, job, agreed, start)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staging_happens_once_per_provider() {
        let mut agent = GridAgent::new(100, 10, 50);
        assert!(!agent.is_staged("/CN=gsp-a"));
        // First contact: setup + 500ms staging.
        assert_eq!(agent.deploy_overhead_ms("/CN=gsp-a"), 600);
        assert!(agent.is_staged("/CN=gsp-a"));
        // Second contact: setup only.
        assert_eq!(agent.deploy_overhead_ms("/CN=gsp-a"), 100);
        // A different provider stages afresh.
        assert_eq!(agent.deploy_overhead_ms("/CN=gsp-b"), 600);
    }

    #[test]
    fn zero_overhead_agent() {
        let mut agent = GridAgent::new(0, 0, 0);
        assert_eq!(agent.deploy_overhead_ms("/CN=x"), 0);
        assert_eq!(agent.deploy_overhead_ms("/CN=x"), 0);
    }
}
