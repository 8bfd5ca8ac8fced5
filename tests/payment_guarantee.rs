//! E7 — §3.4 payment guarantee: clients can never overspend; locked
//! funds make every issued instrument good for its face value.

// Test fixtures build inputs with plain arithmetic; the workspace
// `clippy::arithmetic_side_effects` wall targets production money paths
// (see docs/STATIC_ANALYSIS.md §lint wall).
#![allow(clippy::arithmetic_side_effects)]

use std::sync::Arc;

use proptest::prelude::*;

use gridbank_suite::bank::api::BankRequest;
use gridbank_suite::bank::clock::Clock;
use gridbank_suite::bank::port::InProcessBank;
use gridbank_suite::bank::server::{GridBank, GridBankConfig};
use gridbank_suite::bank::BankError;
use gridbank_suite::crypto::cert::SubjectName;
use gridbank_suite::rur::record::{ChargeableItem, RurBuilder, UsageAmount};
use gridbank_suite::rur::units::Duration;
use gridbank_suite::rur::Credits;

fn bank() -> Arc<GridBank> {
    Arc::new(GridBank::new(
        GridBankConfig { signer_height: 7, ..GridBankConfig::default() },
        Clock::new(),
    ))
}

fn admin() -> SubjectName {
    SubjectName("/O=GridBank/OU=Admin/CN=operator".into())
}

fn funded_pair(bank: &Arc<GridBank>, gd: i64) -> (InProcessBank, InProcessBank, String) {
    let alice = SubjectName::new("O", "U", "payer");
    let gsp = SubjectName::new("O", "U", "payee");
    let mut a = InProcessBank::new(bank.clone(), alice);
    let account = a.create_account(None).unwrap();
    let mut g = InProcessBank::new(bank.clone(), gsp.clone());
    g.create_account(None).unwrap();
    bank.handle(&admin(), BankRequest::AdminDeposit { account, amount: Credits::from_gd(gd) });
    (a, g, gsp.0)
}

#[test]
fn cannot_issue_instruments_beyond_balance() {
    let bank = bank();
    let (mut alice, _gsp_port, gsp) = funded_pair(&bank, 10);

    // A 10 G$ balance supports at most 10 G$ of outstanding instruments.
    alice.request_cheque(&gsp, Credits::from_gd(6), 100_000).unwrap();
    alice.request_hash_chain(&gsp, 4, Credits::from_gd(1), 100_000).unwrap();
    // 6 + 4 locked; nothing left to promise.
    assert!(matches!(
        alice.request_cheque(&gsp, Credits::from_gd(1), 100_000),
        Err(BankError::InsufficientFunds { .. })
    ));
    assert!(matches!(
        alice.request_hash_chain(&gsp, 1, Credits::from_gd(1), 100_000),
        Err(BankError::InsufficientFunds { .. })
    ));
    // Direct transfers can't touch locked funds either.
    let payee_account = {
        let mut g = InProcessBank::new(bank.clone(), SubjectName::new("O", "U", "payee"));
        g.my_account().unwrap().id
    };
    assert!(matches!(
        alice.direct_transfer(payee_account, Credits::from_gd(1), "x"),
        Err(BankError::InsufficientFunds { .. })
    ));
}

#[test]
fn every_issued_cheque_is_fully_covered() {
    // Even if the usage record claims far more than the reservation, the
    // payee receives exactly the reserved amount and the drawer's other
    // funds are untouched.
    let bank = bank();
    let (mut alice, mut gsp_port, gsp) = funded_pair(&bank, 20);
    let cheque = alice.request_cheque(&gsp, Credits::from_gd(5), 100_000).unwrap();
    let greedy_rur = RurBuilder::default()
        .user("h", "/O=O/OU=U/CN=payer")
        .job("j", "a", 0, 100 * 3_600_000)
        .resource("r", &gsp, None, 1)
        .line(
            ChargeableItem::Cpu,
            UsageAmount::Time(Duration::from_hours(100)),
            Credits::from_gd(10),
        )
        .build()
        .unwrap();
    let (paid, released) = gsp_port.redeem_cheque(cheque, greedy_rur).unwrap();
    assert_eq!(paid, Credits::from_gd(5));
    assert_eq!(released, Credits::ZERO);
    let rec = alice.my_account().unwrap();
    assert_eq!(rec.available, Credits::from_gd(15));
    assert_eq!(rec.locked, Credits::ZERO);
}

#[test]
fn credit_limits_extend_spendable_funds_but_still_bound_them() {
    let bank = bank();
    let (mut alice, _gsp_port, gsp) = funded_pair(&bank, 5);
    let account = alice.my_account().unwrap().id;
    bank.handle(
        &admin(),
        BankRequest::AdminCreditLimit { account, new_limit: Credits::from_gd(3) },
    );
    // Can now lock 8 total.
    alice.request_cheque(&gsp, Credits::from_gd(8), 100_000).unwrap();
    assert!(alice.request_cheque(&gsp, Credits::from_micro(1), 100_000).is_err());
    let rec = alice.my_account().unwrap();
    assert_eq!(rec.available, Credits::from_gd(-3));
    assert_eq!(rec.locked, Credits::from_gd(8));
}

#[test]
fn expired_instruments_are_swept_back_to_drawers() {
    let bank = bank();
    let (mut alice, _gsp_port, gsp) = funded_pair(&bank, 30);

    // Two short-lived instruments and one long-lived cheque.
    alice.request_cheque(&gsp, Credits::from_gd(5), 1_000).unwrap();
    alice.request_hash_chain(&gsp, 10, Credits::from_gd(1), 1_000).unwrap();
    let long = alice.request_cheque(&gsp, Credits::from_gd(4), 1_000_000).unwrap();

    let rec = alice.my_account().unwrap();
    assert_eq!(rec.locked, Credits::from_gd(19));

    // Nothing to sweep yet.
    assert_eq!(bank.sweep_expired_instruments().0, 0);

    // Past the short expiries: the sweeper releases 15 G$.
    bank.clock().advance(2_000);
    let (count, released) = bank.sweep_expired_instruments();
    assert_eq!(count, 2);
    assert_eq!(released, Credits::from_gd(15));
    let rec = alice.my_account().unwrap();
    assert_eq!(rec.available, Credits::from_gd(26));
    assert_eq!(rec.locked, Credits::from_gd(4));

    // The long-lived cheque still redeems normally afterwards.
    let mut gsp_port = InProcessBank::new(bank.clone(), SubjectName::new("O", "U", "payee"));
    let rur = RurBuilder::default()
        .user("h", "/O=O/OU=U/CN=payer")
        .job("j", "a", 0, 3_600_000)
        .resource("r", &gsp, None, 1)
        .line(ChargeableItem::Cpu, UsageAmount::Time(Duration::from_hours(1)), Credits::from_gd(2))
        .build()
        .unwrap();
    let (paid, released) = gsp_port.redeem_cheque(long, rur).unwrap();
    assert_eq!(paid, Credits::from_gd(2));
    assert_eq!(released, Credits::from_gd(2));
}

/// A one-line RUR billing `hours` CPU-hours at 1 G$ from `provider`.
fn rur_from(provider: &str, hours: u64) -> gridbank_suite::rur::ResourceUsageRecord {
    RurBuilder::default()
        .user("h", "/O=O/OU=U/CN=payer")
        .job("j", "a", 0, hours * 3_600_000)
        .resource("r", provider, None, 1)
        .line(
            ChargeableItem::Cpu,
            UsageAmount::Time(Duration::from_hours(hours)),
            Credits::from_gd(1),
        )
        .build()
        .unwrap()
}

/// Advances past every expiry, sweeps, and checks nothing stays locked.
fn swept_clean(bank: &Arc<GridBank>, payer: &mut InProcessBank, total: Credits) {
    bank.clock().advance(1_000_000);
    bank.sweep_expired_instruments();
    assert_eq!(payer.my_account().unwrap().locked, Credits::ZERO);
    assert_eq!(bank.total_funds(), total);
}

#[test]
fn a_self_payable_cheque_that_fails_to_pay_stays_sweepable() {
    let bank = bank();
    let (mut alice, _gsp_port, _gsp) = funded_pair(&bank, 30);
    let total = bank.total_funds();
    let me = "/O=O/OU=U/CN=payer";
    let cheque = alice.request_cheque(me, Credits::from_gd(10), 1_000).unwrap();
    // The payout is a transfer from the drawer to itself, which the
    // accounts layer refuses.
    assert!(matches!(alice.redeem_cheque(cheque, rur_from(me, 3)), Err(BankError::Protocol(_))));
    assert_eq!(alice.my_account().unwrap().locked, Credits::from_gd(10));
    swept_clean(&bank, &mut alice, total);
}

#[test]
fn a_self_payable_chain_that_fails_to_pay_stays_sweepable() {
    let bank = bank();
    let (mut alice, _gsp_port, _gsp) = funded_pair(&bank, 30);
    let total = bank.total_funds();
    let chain =
        alice.request_hash_chain("/O=O/OU=U/CN=payer", 8, Credits::from_gd(1), 1_000).unwrap();
    for _ in 0..2 {
        // Refused the same way twice: the failed payout advanced nothing.
        assert!(matches!(
            alice.redeem_payword(
                chain.commitment.clone(),
                chain.signature.clone(),
                chain.payword(3).unwrap(),
                vec![]
            ),
            Err(BankError::Protocol(_))
        ));
    }
    assert_eq!(alice.my_account().unwrap().locked, Credits::from_gd(8));
    swept_clean(&bank, &mut alice, total);
}

#[test]
fn an_instrument_the_bank_cannot_sign_locks_nothing() {
    // Sixteen one-time leaves: sixteen cheques, then the key is spent.
    let config = GridBankConfig { signer_height: 4, ..GridBankConfig::default() };
    let bank = Arc::new(GridBank::new(config, Clock::new()));
    let (mut alice, _gsp_port, gsp) = funded_pair(&bank, 30);
    let total = bank.total_funds();
    for _ in 0..16 {
        alice.request_cheque(&gsp, Credits::from_gd(1), 1_000).unwrap();
    }
    let exhausted = |r: Result<(), BankError>| matches!(r, Err(BankError::Protocol(m)) if m.contains("signing identity exhausted"));
    assert!(exhausted(alice.request_cheque(&gsp, Credits::from_gd(1), 1_000).map(drop)));
    assert!(exhausted(alice.request_hash_chain(&gsp, 4, Credits::from_gd(1), 1_000).map(drop)));
    assert_eq!(alice.my_account().unwrap().locked, Credits::from_gd(16));
    swept_clean(&bank, &mut alice, total);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// Any interleaving of instrument issuance/redemption never lets the
    /// payer's obligations exceed deposits, and conservation holds.
    #[test]
    fn guarantee_invariants_under_random_instrument_traffic(
        ops in prop::collection::vec((0u8..3, 1i64..8), 1..24)
    ) {
        let bank = bank();
        let (mut alice, mut gsp_port, gsp) = funded_pair(&bank, 30);
        let initial = bank.accounts.db().total_funds();
        let mut cheques = Vec::new();
        for (op, amount) in ops {
            match op {
                0 => {
                    if let Ok(c) = alice.request_cheque(&gsp, Credits::from_gd(amount), 100_000) {
                        cheques.push(c);
                    }
                }
                1 => {
                    if let Some(cheque) = cheques.pop() {
                        let hours = amount as u64;
                        let rur = RurBuilder::default()
                            .user("h", "/O=O/OU=U/CN=payer")
                            .job("j", "a", 0, hours * 3_600_000)
                            .resource("r", &gsp, None, 1)
                            .line(
                                ChargeableItem::Cpu,
                                UsageAmount::Time(Duration::from_hours(hours)),
                                Credits::from_gd(1),
                            )
                            .build()
                            .unwrap();
                        let _ = gsp_port.redeem_cheque(cheque, rur);
                    }
                }
                _ => {
                    let _ = alice.request_hash_chain(
                        &gsp,
                        amount as u32,
                        Credits::from_gd(1),
                        100_000,
                    );
                }
            }
            let rec = alice.my_account().unwrap();
            prop_assert!(rec.available >= Credits::ZERO, "overdraft without credit: {rec:?}");
            prop_assert!(rec.locked >= Credits::ZERO);
            prop_assert_eq!(bank.accounts.db().total_funds(), initial);
        }
    }
}
