//! Chaos harness: Figure-1 payment flows over a fault-injected link.
//!
//! Boots a single-branch [`Deployment`] (DESIGN.md §4 "Booting a
//! bank") with consumers and one GSP, then pushes payments through a
//! [`gridbank_net::FaultInjector`] that drops, duplicates, reorders, and
//! resets frames deterministically under a seed. Consumers and the GSP
//! use [`Identity::resilient`] clients, so every logical operation
//! retries over fresh handshakes with a stable idempotency key.
//!
//! The harness returns a [`ChaosReport`] with the raw material for the
//! conservation assertions the E15 experiment makes:
//!
//! * **no double-apply** — every logical transfer uses a unique
//!   `(drawer, recipient, amount)` triple, so a duplicate row in the
//!   transfer table is proof a retry re-applied;
//! * **no stranded locks** — after the run, instrument expiry plus one
//!   sweep must release every locked credit;
//! * **conservation** — Σ(available+locked) is the same before and
//!   after the storm.

use gridbank_core::db::AccountId;
use gridbank_core::server::GridBankConfig;
use gridbank_crypto::cert::SubjectName;
use gridbank_net::{FaultCounts, FaultPlan, FaultRates};
use gridbank_rur::record::{ChargeableItem, RurBuilder, UsageAmount};
use gridbank_rur::units::Duration as RurDuration;
use gridbank_rur::Credits;

use crate::deploy::{DeployConfig, Deployment, Identity};

/// Knobs for one chaos run.
#[derive(Clone, Copy, Debug)]
pub struct ChaosConfig {
    /// Seed for the fault plan (and derived idempotency-key streams).
    pub seed: u64,
    /// Per-mille rate applied uniformly to drop/duplicate/reorder/reset.
    pub fault_rate_pm: u32,
    /// Number of consumer identities.
    pub consumers: usize,
    /// Direct transfers each consumer attempts.
    pub transfers_per_consumer: usize,
    /// Cheque buy+redeem round trips each consumer attempts.
    pub cheques_per_consumer: usize,
    /// Bank-side dedup cache capacity; 0 disables exactly-once dedup
    /// (the "teeth" mode that must make double-applies observable).
    pub idem_capacity: usize,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 1,
            fault_rate_pm: 200,
            consumers: 3,
            transfers_per_consumer: 4,
            cheques_per_consumer: 2,
            idem_capacity: gridbank_core::db::DEFAULT_IDEM_CAPACITY,
        }
    }
}

/// What happened during a chaos run.
#[derive(Clone, Debug, Default)]
pub struct ChaosReport {
    /// Direct transfers the consumer got a confirmation for.
    pub acked_transfers: usize,
    /// Direct transfers that exhausted their retry budget.
    pub gave_up_transfers: usize,
    /// Cheques the consumer actually received.
    pub acked_cheques: usize,
    /// Cheque requests that exhausted their retry budget.
    pub gave_up_cheques: usize,
    /// Cheque redemptions the GSP got an ack for.
    pub acked_redemptions: usize,
    /// Redemptions that exhausted their retry budget.
    pub gave_up_redemptions: usize,
    /// Operations the bank *rejected* on a retry (e.g. "already
    /// redeemed"). Always 0 with dedup enabled — the cache returns the
    /// original result instead; with `idem_capacity: 0` the retries show
    /// up here when a deeper layer (the funds guarantee) refuses them.
    pub rejected_retries: usize,
    /// Transfer rows whose `(drawer, recipient, amount)` triple appears
    /// more than once — each logical operation uses a unique triple, so
    /// anything above zero is a double-applied payment.
    pub double_applied: usize,
    /// Acked transfers with no matching row at all (lost writes).
    pub lost_writes: usize,
    /// Funds still locked after expiry + sweep.
    pub stranded_locked: Credits,
    /// Σ(available+locked) before faults were armed.
    pub initial_total: Credits,
    /// Σ(available+locked) after the storm and the sweep.
    pub final_total: Credits,
    /// Faults the injector actually fired.
    pub faults: FaultCounts,
}

impl ChaosReport {
    /// Whether Σ(available+locked) survived the storm unchanged.
    pub fn conserved(&self) -> bool {
        self.initial_total == self.final_total
    }

    /// Total logical operations attempted.
    pub fn attempted_ops(&self) -> usize {
        self.acked_transfers
            + self.gave_up_transfers
            + self.acked_cheques
            + self.gave_up_cheques
            + self.acked_redemptions
            + self.gave_up_redemptions
    }
}

/// Certifies `cn`; `connect` gives the plain client world preparation
/// uses, `resilient` the retrying one the storm runs through.
fn identity(w: &Deployment, cn: &str, seed: u64) -> Identity {
    w.identity(SubjectName::new("Org", "Unit", cn), seed).expect("CA certifies the subject")
}

const GSP_CN: &str = "gsp-alpha";
const GSP_CERT: &str = "/O=Org/OU=Unit/CN=gsp-alpha";
const CHEQUE_VALIDITY_MS: u64 = 60_000;

/// Unique per-operation amount: the triple `(drawer, recipient, amount)`
/// identifies one logical payment, so duplicates in the transfer table
/// betray a double-apply.
fn op_amount(consumer: usize, op: usize) -> Credits {
    Credits::from_micro(1_000_000 + (consumer as i128 + 1) * 10_000 + (op as i128 + 1))
}

/// Runs one chaos storm and reports what survived.
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosReport {
    // A chaos panic is a forensic event: if the flight recorder is on,
    // its retained slow/errored traces ride along with the panic output
    // so the failing request's span tree is not lost with the process.
    gridbank_obs::install_panic_hook();
    let w = Deployment::boot(DeployConfig::single(GridBankConfig {
        signer_height: 9,
        idem_capacity: cfg.idem_capacity,
        ..GridBankConfig::default()
    }))
    .expect("world boots");
    let injector =
        w.install_faults(FaultPlan::symmetric(cfg.seed, FaultRates::uniform(cfg.fault_rate_pm)));
    let bank = w.bank(1).expect("branch 1 runs");
    let mut report = ChaosReport::default();

    // ---- Setup on a quiet network: accounts and deposits. ----
    let mut consumer_accounts = Vec::new();
    for i in 0..cfg.consumers {
        let mut c =
            identity(&w, &format!("consumer-{i}"), 100 + i as u64).connect(1).expect("connects");
        consumer_accounts.push(c.create_account(Some("Org".into())).expect("account"));
    }
    let mut gsp_setup = identity(&w, GSP_CN, 500).connect(1).expect("connects");
    let gsp_account = gsp_setup.create_account(None).expect("gsp account");
    let mut admin = w.admin(1).expect("operator connects");
    for account in &consumer_accounts {
        admin.admin_deposit(*account, Credits::from_gd(1_000)).expect("deposit");
    }
    report.initial_total = bank.total_funds();

    // ---- Storm. ----
    injector.arm(true);
    let mut acked_amounts: Vec<Credits> = Vec::new();
    for (i, _account) in consumer_accounts.iter().enumerate() {
        let mut consumer =
            identity(&w, &format!("consumer-{i}"), 0x5EED ^ ((i as u64) << 8)).resilient(1);
        // One GSP client per consumer; distinct key seeds keep their
        // idempotency keys from colliding under the shared GSP cert.
        let mut gsp = identity(&w, GSP_CN, 0x6500_0000 ^ ((i as u64) << 8)).resilient(1);
        for j in 0..cfg.transfers_per_consumer {
            let amount = op_amount(i, j);
            match consumer.direct_transfer(gsp_account, amount, "gsp.grid.org") {
                Ok(_) => {
                    report.acked_transfers += 1;
                    acked_amounts.push(amount);
                }
                Err(gridbank_core::BankError::Net(_)) => report.gave_up_transfers += 1,
                Err(e) if cfg.idem_capacity == 0 => {
                    let _ = e;
                    report.rejected_retries += 1;
                }
                Err(e) => panic!("unexpected transfer failure: {e}"),
            }
        }
        for j in 0..cfg.cheques_per_consumer {
            // Charge == cheque value, and unique per (consumer, op):
            // redemption moves the whole reservation, and the resulting
            // transfer row is unique for double-apply detection.
            let amount = op_amount(i, 100 + j);
            let cheque = match consumer.request_cheque(GSP_CERT, amount, CHEQUE_VALIDITY_MS) {
                Ok(c) => {
                    report.acked_cheques += 1;
                    c
                }
                Err(gridbank_core::BankError::Net(_)) => {
                    report.gave_up_cheques += 1;
                    continue;
                }
                Err(e) if cfg.idem_capacity == 0 => {
                    let _ = e;
                    report.rejected_retries += 1;
                    continue;
                }
                Err(e) => panic!("unexpected cheque failure: {e}"),
            };
            let rur = RurBuilder::default()
                .user(format!("consumer-{i}.host"), format!("/O=Org/OU=Unit/CN=consumer-{i}"))
                .job(format!("job-{i}-{j}"), "chaos", 0, 3_600_000)
                .resource("r1", GSP_CERT, None, 1)
                .line(ChargeableItem::Cpu, UsageAmount::Time(RurDuration::from_hours(1)), amount)
                .build()
                .expect("rur");
            match gsp.redeem_cheque(cheque, rur) {
                Ok((paid, _released)) => {
                    report.acked_redemptions += 1;
                    acked_amounts.push(paid);
                }
                Err(gridbank_core::BankError::Net(_)) => report.gave_up_redemptions += 1,
                Err(e) if cfg.idem_capacity == 0 => {
                    // Without the dedup cache a retried redemption gets
                    // "already redeemed" from the guarantee layer.
                    let _ = e;
                    report.rejected_retries += 1;
                }
                Err(e) => panic!("unexpected redemption failure: {e}"),
            }
        }
    }
    injector.arm(false);
    report.faults = injector.counts();

    // ---- Settle: expire unredeemed instruments, release locks. ----
    w.clock.advance(CHEQUE_VALIDITY_MS * 2);
    bank.sweep_expired_instruments();

    // ---- Evidence. ----
    let transfers = bank.all_transfers();
    let mut seen: std::collections::HashMap<(AccountId, AccountId, Credits), usize> =
        std::collections::HashMap::new();
    for t in &transfers {
        *seen.entry((t.drawer, t.recipient, t.amount)).or_default() += 1;
    }
    report.double_applied = seen.values().filter(|&&n| n > 1).map(|n| n - 1).sum();
    for amount in &acked_amounts {
        let present = transfers.iter().any(|t| t.amount == *amount);
        if !present {
            report.lost_writes += 1;
        }
    }
    report.stranded_locked = bank
        .all_accounts()
        .iter()
        .try_fold(Credits::ZERO, |sum, a| sum.checked_add(a.locked))
        .expect("locked funds sum within Credits::MAX");
    report.final_total = bank.total_funds();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_network_applies_everything_exactly_once() {
        // Rate 0: the harness itself must be loss-free and conserving.
        let cfg = ChaosConfig {
            fault_rate_pm: 0,
            consumers: 1,
            transfers_per_consumer: 2,
            cheques_per_consumer: 1,
            ..ChaosConfig::default()
        };
        let report = run_chaos(&cfg);
        assert_eq!(report.acked_transfers, 2);
        assert_eq!(report.acked_cheques, 1);
        assert_eq!(report.acked_redemptions, 1);
        assert_eq!(report.double_applied, 0);
        assert_eq!(report.lost_writes, 0);
        assert_eq!(report.stranded_locked, Credits::ZERO);
        assert!(report.conserved());
        assert_eq!(report.faults.total(), 0);
    }
}
