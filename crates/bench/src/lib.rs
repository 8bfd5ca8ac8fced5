//! Shared fixtures for the GridBank benchmark harness.
//!
//! One bench target per experiment in EXPERIMENTS.md (E2, E4–E6,
//! E8–E13). Every bench uses [`quick`] Criterion settings so the full
//! suite finishes in minutes while still reporting stable medians.

use std::sync::Arc;

use criterion::Criterion;

use gridbank_core::branch::SettlementReport;
use gridbank_core::clock::Clock;
use gridbank_core::db::AccountId;
use gridbank_core::federation::{direct_mesh, settle_all, FederationRouter};
use gridbank_core::port::InProcessBank;
use gridbank_core::server::{GridBank, GridBankConfig};
use gridbank_crypto::cert::SubjectName;
use gridbank_rur::Credits;

/// Criterion tuned for a broad suite: small samples, short measurement.
///
/// Set `GRIDBANK_TELEMETRY=1` to run the same suite with tracing and
/// metrics live (`gridbank_obs` reads it on first use) — the pair of
/// runs quantifies the telemetry overhead (EXPERIMENTS.md E14).
pub fn quick() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_millis(800))
        .warm_up_time(std::time::Duration::from_millis(200))
        .without_plots()
        .configure_from_args()
}

/// The standard administrator subject.
pub fn admin() -> SubjectName {
    SubjectName("/O=GridBank/OU=Admin/CN=operator".into())
}

/// A bank with `2^signer_height` signing capacity.
pub fn bank(signer_height: usize) -> Arc<GridBank> {
    Arc::new(GridBank::new(
        GridBankConfig { signer_height, ..GridBankConfig::default() },
        Clock::new(),
    ))
}

/// Creates and funds an account, returning its port and id.
pub fn funded(bank: &Arc<GridBank>, cn: &str, gd: i64) -> (InProcessBank, AccountId) {
    let subject = SubjectName::new("Bench", "Users", cn);
    let mut port = InProcessBank::new(bank.clone(), subject);
    let id = port.create_account(None).expect("fresh account");
    if gd > 0 {
        InProcessBank::new(bank.clone(), admin())
            .admin_deposit(id, Credits::from_gd(gd))
            .expect("operator deposit");
    }
    (port, id)
}

/// Branches `1..=n` in one process, meshed over direct links (§6), each
/// with one funded member.
pub struct Federation {
    /// The banks, branch `b` at index `b - 1`.
    pub banks: Vec<Arc<GridBank>>,
    /// Their routers, in the same order.
    pub routers: Vec<Arc<FederationRouter>>,
    /// One member account per branch.
    pub members: Vec<AccountId>,
}

impl Federation {
    /// Boots `branches` banks and funds one member on each with `gd`.
    pub fn new(branches: u16, gd: i64) -> Federation {
        let clock = Clock::new();
        let banks: Vec<Arc<GridBank>> = (1..=branches)
            .map(|branch| {
                let config =
                    GridBankConfig { branch, signer_height: 2, ..GridBankConfig::default() };
                Arc::new(GridBank::new(config, clock.clone()))
            })
            .collect();
        let members =
            banks.iter().map(|bank| funded(bank, &format!("m{}", bank.branch()), gd).1).collect();
        Federation { routers: direct_mesh(&banks), banks, members }
    }

    /// Member `i` pays member `j` across branches.
    pub fn pay(&self, i: usize, j: usize, amount: Credits) {
        self.routers[i]
            .cross_branch_transfer(&self.members[i], &self.members[j], amount, Vec::new(), None)
            .expect("cross-branch payment");
    }

    /// One settlement round on every branch.
    pub fn settle(&self) -> SettlementReport {
        settle_all(&self.routers).expect("settlement round")
    }
}
