//! Restart-to-serving drill: a live durable branch is killed and
//! rebooted, and the clock runs until a wire client gets answers again.
//!
//! The scenario measures the claim docs/STORAGE.md §5 makes — restart
//! time is bounded by the journal *tail*, not by history. A one-branch
//! durable [`Deployment`] (DESIGN.md §4 "Booting a bank") takes seeded
//! keyed payments through a real authenticated client; the ledger is
//! checkpointed; a further slice of payments forms the replay tail;
//! [`Deployment::kill`] stops the branch and waits until nothing holds
//! its bank; and [`Deployment::reboot`] reopens the same store
//! directory. The report carries both halves of the restart
//! cost — storage recovery and server boot to first served RPC — plus
//! the digest/conservation evidence that nothing was lost, feeding the
//! `gridbank-bench --recovery` section and EXPERIMENTS.md §E19.

use std::sync::Arc;
use std::time::Instant;

use gridbank_core::db::AccountId;
use gridbank_core::port::InProcessBank;
use gridbank_core::resilient::ResilientBankClient;
use gridbank_core::server::GridBankConfig;
use gridbank_core::store::StoreConfig;
use gridbank_crypto::cert::SubjectName;
use gridbank_crypto::keys::KeyMaterial;
use gridbank_rur::Credits;

use crate::deploy::{BranchConfig, DeployConfig, Deployment, OPERATOR};

/// Parameters of the recovery drill.
#[derive(Clone, Debug)]
pub struct RecoveryConfig {
    /// Master seed for identities and keys.
    pub seed: u64,
    /// Accounts created before the kill.
    pub accounts: usize,
    /// Keyed wire payments before the checkpoint.
    pub payments: usize,
    /// Keyed wire payments *after* the checkpoint — the replay tail a
    /// restart must work through.
    pub tail_payments: usize,
    /// `fsync` on commit (the production durability contract).
    pub fsync: bool,
    /// Bank signer height (2^h signed instruments).
    pub signer_height: usize,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            seed: 0xD15C_0001,
            accounts: 200,
            payments: 60,
            tail_payments: 20,
            fsync: false,
            signer_height: 9,
        }
    }
}

/// Evidence from one kill/restart cycle.
#[derive(Clone, Debug, Default)]
pub struct RecoveryDrillReport {
    /// Accounts alive at the kill.
    pub accounts: usize,
    /// Journal entries committed across the whole run.
    pub journal_entries_total: usize,
    /// Entries the restart actually replayed (past the snapshot).
    pub tail_entries_replayed: usize,
    /// 1 when the state was restored from a snapshot file.
    pub snapshots_loaded: usize,
    /// Storage recovery alone: open store → state folded, ms.
    pub recovery_ms: u64,
    /// Kill → first answered RPC over the wire, ms.
    pub restart_to_serving_ms: u64,
    /// State digest identical before the kill and after recovery.
    pub digest_match: bool,
    /// Σ funds identical before the kill and after recovery.
    pub funds_match: bool,
}

impl RecoveryDrillReport {
    /// Hard pass/fail: nothing lost, and replay was tail-only.
    pub fn verify(&self) -> Result<(), String> {
        if !self.digest_match {
            return Err("state digest diverged across the restart".into());
        }
        if !self.funds_match {
            return Err("conservation violated across the restart".into());
        }
        if self.snapshots_loaded != 1 {
            return Err("the state was not recovered from a snapshot".into());
        }
        if self.tail_entries_replayed >= self.journal_entries_total {
            return Err(format!(
                "replay was not tail-only: {} of {} entries replayed",
                self.tail_entries_replayed, self.journal_entries_total
            ));
        }
        Ok(())
    }
}

fn deploy_config(cfg: &RecoveryConfig, store: StoreConfig) -> DeployConfig {
    let bank = GridBankConfig {
        signer_height: cfg.signer_height,
        key_material: KeyMaterial { seed: 0xD15C },
        ..GridBankConfig::default()
    };
    DeployConfig {
        seed: cfg.seed,
        ca_height: 10,
        branches: vec![BranchConfig { bank, store: Some(store) }],
        ..DeployConfig::single(GridBankConfig::default())
    }
}

/// Runs the drill: populate → pay → checkpoint → tail → kill →
/// reboot → probe until serving.
pub fn run_recovery(cfg: &RecoveryConfig) -> Result<RecoveryDrillReport, String> {
    // A scratch store never checkpoints on its own: the drill drives
    // checkpoints explicitly so the tail is exact.
    let store = StoreConfig { fsync: cfg.fsync, ..StoreConfig::scratch("recovery-drill") };
    let store_dir = store.dir.clone();
    let mut world = Deployment::boot(deploy_config(cfg, store))?;
    let bank = Arc::clone(world.bank(1)?);

    // Population + funding, server-side (the wire carries payments;
    // enrollment volume is not what this drill measures).
    let mut operator = InProcessBank::new(Arc::clone(&bank), SubjectName(OPERATOR.into()));
    let mut holders: Vec<AccountId> = Vec::with_capacity(cfg.accounts);
    for i in 0..cfg.accounts {
        let dn = SubjectName(format!("/O=Grid/OU=Pop/CN=holder-{i:06}"));
        let account = InProcessBank::new(Arc::clone(&bank), dn)
            .create_account(None)
            .map_err(|e| format!("create holder {i}: {e}"))?;
        operator
            .admin_deposit(account, Credits::from_gd(100))
            .map_err(|e| format!("fund holder {i}: {e}"))?;
        holders.push(account);
    }

    // Keyed payments over the real wire.
    let payer_dn = SubjectName("/O=Grid/OU=Payer/CN=payer-0".into());
    let mut payer = world.identity(payer_dn.clone(), cfg.seed)?.resilient(1);
    let payer_account = payer.create_account(None).map_err(|e| format!("create payer: {e}"))?;
    operator
        .admin_deposit(payer_account, Credits::from_gd(1_000_000))
        .map_err(|e| format!("fund payer: {e}"))?;
    drop(operator);
    let pay = |payer: &mut ResilientBankClient, n: usize, salt: u64| -> Result<(), String> {
        for k in 0..n {
            let to = holders[(k.wrapping_mul(31).wrapping_add(salt as usize)) % holders.len()];
            payer
                .direct_transfer(to, Credits::from_gd(1), &format!("holder-{k}.grid.org"))
                .map_err(|e| format!("payment {k}: {e}"))?;
        }
        Ok(())
    };
    pay(&mut payer, cfg.payments, 1)?;

    // Checkpoint, then the tail the restart will have to replay.
    bank.accounts.db().checkpoint().map_err(|e| e.to_string())?;
    pay(&mut payer, cfg.tail_payments, 2)?;

    let digest = bank.accounts.db().state_digest();
    let funds = bank.total_funds();
    let journal_entries_total = bank.accounts.db().journal_len();
    let accounts = bank.accounts.db().account_count();

    // The kill: drop every handle of ours, stop the server, and wait
    // until its connection threads have let go of the bank too.
    drop(bank);
    drop(payer);
    world.kill(1)?;

    // Reboot from disk and probe — reconnecting through the full
    // handshake on every transport failure — until the wire answers.
    let restart_started = Instant::now();
    world.reboot(1)?;
    let mut probe = world.identity(payer_dn, cfg.seed.wrapping_add(99))?.resilient(1);
    probe.await_serving(64).map_err(|e| format!("never served again: {e}"))?;
    let restart_to_serving_ms = restart_started.elapsed().as_millis() as u64;
    let recovery = world.recovery(1).ok_or("the rebooted branch reports no recovery")?;
    let bank = world.bank(1)?;

    let report = RecoveryDrillReport {
        accounts,
        journal_entries_total,
        tail_entries_replayed: recovery.tail_entries_replayed,
        snapshots_loaded: recovery.snapshots_loaded,
        recovery_ms: recovery.elapsed_ms,
        restart_to_serving_ms,
        digest_match: bank.accounts.db().state_digest() == digest,
        funds_match: bank.total_funds() == funds,
    };
    let _ = std::fs::remove_dir_all(&store_dir);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_drill_round_trips() {
        let cfg = RecoveryConfig {
            accounts: 40,
            payments: 12,
            tail_payments: 5,
            ..RecoveryConfig::default()
        };
        let report = run_recovery(&cfg).expect("drill runs");
        report.verify().expect("evidence holds");
        assert!(report.tail_entries_replayed > 0, "the tail payments left a tail");
        assert_eq!(report.accounts, 40 + 1, "holders plus the wire payer");
    }
}
