//! E10 — §6 multi-branch settlement at scale: many branches, randomized
//! cross-VO payment traffic, netting correctness, conservation.

// Test fixtures build inputs with plain arithmetic; the workspace
// `clippy::arithmetic_side_effects` wall targets production money paths
// (see docs/STATIC_ANALYSIS.md §lint wall).
#![allow(clippy::arithmetic_side_effects)]

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use gridbank_suite::bank::branch::SettlementReport;
use gridbank_suite::bank::clock::Clock;
use gridbank_suite::bank::db::AccountId;
use gridbank_suite::bank::federation::{direct_mesh, settle_all, FederationRouter};
use gridbank_suite::bank::server::{GridBank, GridBankConfig};
use gridbank_suite::bank::BankError;
use gridbank_suite::rur::Credits;

const ADMIN: &str = "/O=GridBank/OU=Admin/CN=operator";

/// Branches `1..=n` in one process, meshed over direct links.
struct Federation {
    banks: Vec<Arc<GridBank>>,
    routers: Vec<Arc<FederationRouter>>,
}

impl Federation {
    fn bank(&self, branch: u16) -> &GridBank {
        &self.banks[branch as usize - 1]
    }

    fn router(&self, branch: u16) -> &FederationRouter {
        &self.routers[branch as usize - 1]
    }

    fn pay(&self, from: AccountId, to: AccountId, amount: Credits, rur_blob: Vec<u8>) {
        self.router(from.branch).cross_branch_transfer(&from, &to, amount, rur_blob, None).unwrap();
    }

    fn settle(&self) -> Result<SettlementReport, BankError> {
        settle_all(&self.routers)
    }

    fn total_funds(&self) -> Credits {
        self.banks.iter().map(|b| b.total_funds()).sum()
    }
}

fn build_federation(branches: u16, members_per_branch: usize) -> (Federation, Vec<Vec<AccountId>>) {
    let clock = Clock::new();
    let banks: Vec<Arc<GridBank>> = (1..=branches)
        .map(|branch| {
            let config = GridBankConfig { branch, signer_height: 4, ..GridBankConfig::default() };
            Arc::new(GridBank::new(config, clock.clone()))
        })
        .collect();
    let accounts = banks
        .iter()
        .map(|bank| {
            (0..members_per_branch)
                .map(|m| {
                    let cert = format!("/O=vo-{}/CN=member-{m}", bank.branch());
                    let id = bank.accounts.create_account(&cert, None).unwrap();
                    bank.admin.deposit(ADMIN, &id, Credits::from_gd(1_000)).unwrap();
                    id
                })
                .collect()
        })
        .collect();
    let routers = direct_mesh(&banks);
    (Federation { banks, routers }, accounts)
}

#[test]
fn randomized_traffic_nets_correctly() {
    let branches = 5u16;
    let (ib, accounts) = build_federation(branches, 3);
    let initial_total = Credits::from_gd(1_000 * branches as i64 * 3);
    assert_eq!(ib.total_funds(), initial_total);

    let mut rng = StdRng::seed_from_u64(99);
    let mut gross_expected = Credits::ZERO;
    let mut sent = 0u32;
    for _ in 0..200 {
        let from_branch = rng.random_range(0..branches as usize);
        let to_branch = rng.random_range(0..branches as usize);
        if from_branch == to_branch {
            continue;
        }
        let from = accounts[from_branch][rng.random_range(0..3usize)];
        let to = accounts[to_branch][rng.random_range(0..3usize)];
        let amount = Credits::from_milli(rng.random_range(100..5_000));
        ib.pay(from, to, amount, Vec::new());
        gross_expected = gross_expected.checked_add(amount).unwrap();
        sent += 1;
    }
    assert!(sent > 100);

    let report = ib.settle().unwrap();
    // Gross in the report equals what we actually sent.
    assert_eq!(report.total_gross(), gross_expected);
    // Netting never exceeds gross and pairwise |net| ≤ gross of the pair.
    assert!(report.total_net() <= report.total_gross());
    for p in &report.pairs {
        let pair_gross = p.gross_a_to_b.checked_add(p.gross_b_to_a).unwrap();
        assert!(p.net.abs() <= pair_gross);
        // Net is exactly the signed difference.
        assert_eq!(p.net, p.gross_a_to_b.checked_add(-p.gross_b_to_a).unwrap());
    }

    // After settlement the federation's internal funds return to the
    // initial total: the eager payee credits are exactly offset by the
    // clearing-account drains.
    assert_eq!(ib.total_funds(), initial_total);

    // All clearing accounts are empty.
    for a in 1..=branches {
        for b in 1..=branches {
            if a != b {
                assert_eq!(ib.router(a).clearing_balance(b), Credits::ZERO);
            }
        }
    }

    // A second settlement finds nothing.
    assert!(ib.settle().unwrap().pairs.is_empty());
}

#[test]
fn settlement_rounds_compose() {
    // Settle between waves of traffic; final books must match a single
    // big settlement's effect.
    let (ib, accounts) = build_federation(3, 1);
    let a = accounts[0][0];
    let b = accounts[1][0];
    let c = accounts[2][0];

    ib.pay(a, b, Credits::from_gd(10), Vec::new());
    let r1 = ib.settle().unwrap();
    assert_eq!(r1.total_net(), Credits::from_gd(10));

    ib.pay(b, a, Credits::from_gd(4), Vec::new());
    ib.pay(b, c, Credits::from_gd(6), Vec::new());
    let r2 = ib.settle().unwrap();
    assert_eq!(r2.total_net(), Credits::from_gd(10));

    // Balances: a: 1000-10+4, b: 1000+10-4-6, c: 1000+6.
    let get = |ib: &Federation, branch: u16, id: AccountId| {
        ib.bank(branch).accounts.account_details(&id).unwrap().available
    };
    assert_eq!(get(&ib, 1, a), Credits::from_gd(994));
    assert_eq!(get(&ib, 2, b), Credits::from_gd(1_000));
    assert_eq!(get(&ib, 3, c), Credits::from_gd(1_006));
    assert_eq!(ib.total_funds(), Credits::from_gd(3_000));
}

mod wire {
    //! Wire-level chaos variant: two live branch servers federated over
    //! an RPC link that a seeded [`FaultInjector`] drops, duplicates,
    //! reorders, and resets. Payments cross branches *during* the storm
    //! (so inline `IbCredit` shipping suffers the faults too); once the
    //! network heals, settlement must leave conservation intact, every
    //! credit applied exactly once, and zero stranded clearing.

    use std::sync::Arc;

    use gridbank_suite::bank::api::{BankRequest, BankResponse};
    use gridbank_suite::bank::db::TransactionType;
    use gridbank_suite::bank::server::GridBankConfig;
    use gridbank_suite::bank::BankError;
    use gridbank_suite::crypto::cert::SubjectName;
    use gridbank_suite::crypto::keys::KeyMaterial;
    use gridbank_suite::net::fault::{FaultInjector, FaultPlan, FaultRates};
    use gridbank_suite::rur::Credits;
    use gridbank_suite::sim::deploy::{DeployConfig, Deployment};

    const FAULT_RATE_PM: u32 = 160;

    fn seeds() -> Vec<u64> {
        if let Ok(s) = std::env::var("CHAOS_SEED") {
            return vec![s.parse().expect("CHAOS_SEED must be a u64")];
        }
        vec![7, 23]
    }

    fn build(seed: u64) -> (Deployment, Arc<FaultInjector>) {
        let f = Deployment::boot(DeployConfig::federated(2, |b| GridBankConfig {
            signer_height: 9,
            key_material: KeyMaterial { seed: 0xB4A2 ^ b as u64 },
            ..GridBankConfig::default()
        }))
        .unwrap();
        let plan = FaultPlan::symmetric(seed, FaultRates::uniform(FAULT_RATE_PM));
        let injector = f.install_faults(plan);
        (f, injector)
    }

    /// Unique per-payment amount: a repeated deposit amount at the payee
    /// is proof of a double-applied `IbCredit`.
    fn op_amount(branch: u16, op: usize) -> Credits {
        Credits::from_micro(1_000_000 + (branch as i128) * 10_000 + op as i128 + 1)
    }

    #[test]
    fn federated_chaos_storm_settles_exactly_once() {
        for seed in seeds() {
            let (f, injector) = build(seed);

            // Quiet-network setup: one funded payer and one payee per
            // branch; traffic will flow both ways so netting is real.
            let mut payers = Vec::new();
            let mut payees = Vec::new();
            for b in 1..=2u16 {
                let payer_dn = SubjectName::new("Org", "Unit", &format!("payer-{b}"));
                // Retries ride fresh handshakes with stable keys, the
                // configuration the exactly-once guarantees are stated for.
                let mut payer = f.identity(payer_dn, 0x100 + b as u64).unwrap().resilient(b);
                let payer_account = payer.create_account(None).unwrap();
                let payee_dn = SubjectName::new("Org", "Unit", &format!("payee-{b}"));
                let mut payee = f.identity(payee_dn, 0x200 + b as u64).unwrap().resilient(b);
                payees.push(payee.create_account(None).unwrap());
                let operator = SubjectName("/O=GridBank/OU=Admin/CN=operator".into());
                let funded = f.bank(b).unwrap().handle(
                    &operator,
                    BankRequest::AdminDeposit {
                        account: payer_account,
                        amount: Credits::from_gd(1_000),
                    },
                );
                assert!(matches!(funded, BankResponse::Confirmation { .. }), "{funded:?}");
                payers.push(payer);
            }
            let initial_total = f.total_funds();

            // Storm: cross-branch payments while the wire misbehaves —
            // including the inter-branch IbCredit hops.
            injector.arm(true);
            let mut acked: Vec<(u16, Credits)> = Vec::new();
            let mut gave_up = 0;
            for op in 0..6 {
                for b in 1..=2u16 {
                    let payee = payees[(2 - b) as usize];
                    let amount = op_amount(b, op);
                    match payers[(b - 1) as usize].direct_transfer(payee, amount, "payee.grid.org")
                    {
                        Ok(_) => acked.push((3 - b, amount)),
                        Err(BankError::Net(_)) => gave_up += 1,
                        Err(e) => panic!("seed {seed}: unexpected refusal: {e}"),
                    }
                }
            }
            injector.arm(false);
            assert!(
                injector.counts().total() > 0,
                "seed {seed}: no faults fired; the storm never happened"
            );
            let _ = gave_up; // conservation must hold whatever the ack rate

            // The network heals; both branches re-ship and settle. Two
            // passes: only the lower branch id proposes for a pair, so
            // credits the higher branch re-ships during its own pass
            // drain on the proposer's next round.
            for _ in 0..2 {
                for router in f.routers() {
                    router.settle_once().unwrap_or_else(|e| panic!("seed {seed}: settle: {e}"));
                }
            }

            // No double-applied IbCredit: every deposit amount at each
            // payee is unique, and every acked payment landed.
            for (i, payee) in payees.iter().enumerate() {
                let branch = i as u16 + 1;
                let mut amounts: Vec<Credits> = f
                    .bank(branch)
                    .unwrap()
                    .accounts
                    .db()
                    .transactions_in_range(payee, 0, u64::MAX)
                    .into_iter()
                    .filter(|t| t.tx_type == TransactionType::Deposit)
                    .map(|t| t.amount)
                    .collect();
                let applied = amounts.len();
                amounts.sort();
                amounts.dedup();
                assert_eq!(
                    applied,
                    amounts.len(),
                    "seed {seed}: double-applied IbCredit at branch {branch}"
                );
                for (to, amount) in acked.iter().filter(|(to, _)| *to == branch) {
                    assert!(
                        amounts.contains(amount),
                        "seed {seed}: acked payment of {amount} to branch {to} never landed"
                    );
                }
            }

            // Conservation and zero stranded clearing.
            assert_eq!(f.total_funds(), initial_total, "seed {seed}: funds not conserved");
            for (i, (bank, router)) in f.banks().zip(f.routers()).enumerate() {
                for peer in router.peer_branches() {
                    assert_eq!(
                        router.clearing_balance(peer),
                        Credits::ZERO,
                        "seed {seed}: stranded clearing at branch {}",
                        i + 1
                    );
                }
                assert!(
                    bank.accounts.db().ib_pending_snapshot().is_empty(),
                    "seed {seed}: unacknowledged credits left at branch {}",
                    i + 1
                );
            }
        }
    }
}

#[test]
fn cross_branch_rur_evidence_is_preserved() {
    let (ib, accounts) = build_federation(2, 1);
    let blob = vec![0xAB; 64];
    ib.pay(accounts[0][0], accounts[1][0], Credits::from_gd(1), blob.clone());
    // The drawer branch's transfer row carries the RUR blob.
    let transfers = ib.bank(1).accounts.db().transfers_in_range(&accounts[0][0], 0, u64::MAX);
    assert_eq!(transfers.len(), 1);
    assert_eq!(transfers[0].rur_blob, blob);
}
