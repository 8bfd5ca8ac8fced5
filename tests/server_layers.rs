//! E3 — Figure 3's layering: the three payment-protocol modules operate
//! against the *same* accounts layer without interfering, and the
//! security layer's account-table gate stands in front of everything.

// Test fixtures build inputs with plain arithmetic; the workspace
// `clippy::arithmetic_side_effects` wall targets production money paths
// (see docs/STATIC_ANALYSIS.md §lint wall).
#![allow(clippy::arithmetic_side_effects)]

use std::sync::Arc;

use gridbank_suite::bank::api::BankRequest;
use gridbank_suite::bank::clock::Clock;
use gridbank_suite::bank::port::InProcessBank;
use gridbank_suite::bank::server::{GridBank, GridBankConfig};
use gridbank_suite::crypto::cert::SubjectName;
use gridbank_suite::rur::record::{ChargeableItem, RurBuilder, UsageAmount};
use gridbank_suite::rur::units::Duration;
use gridbank_suite::rur::Credits;

fn bank() -> Arc<GridBank> {
    Arc::new(GridBank::new(
        GridBankConfig { signer_height: 8, ..GridBankConfig::default() },
        Clock::new(),
    ))
}

fn admin() -> SubjectName {
    SubjectName("/O=GridBank/OU=Admin/CN=operator".into())
}

fn rur(
    consumer: &str,
    provider: &str,
    hours: u64,
    rate: Credits,
) -> gridbank_suite::rur::ResourceUsageRecord {
    RurBuilder::default()
        .user("h", consumer)
        .job("j", "app", 0, hours * 3_600_000)
        .resource("r", provider, None, 1)
        .line(ChargeableItem::Cpu, UsageAmount::Time(Duration::from_hours(hours)), rate)
        .build()
        .unwrap()
}

#[test]
fn three_protocols_share_one_accounts_layer() {
    let bank = bank();
    let alice = SubjectName::new("UWA", "CSSE", "alice");
    let gsp = SubjectName::new("UM", "GRIDS", "gsp");
    let mut alice_port = InProcessBank::new(bank.clone(), alice.clone());
    let account = alice_port.create_account(None).unwrap();
    let mut gsp_port = InProcessBank::new(bank.clone(), gsp.clone());
    let gsp_account = gsp_port.create_account(None).unwrap();
    bank.handle(&admin(), BankRequest::AdminDeposit { account, amount: Credits::from_gd(100) });

    let total_before = bank.accounts.db().total_funds();

    // Protocol 1: pay-before-use — 10 G$ fixed.
    let conf = alice_port.direct_transfer(gsp_account, Credits::from_gd(10), "gsp").unwrap();
    conf.verify(&bank.verifying_key()).unwrap();

    // Protocol 2: pay-as-you-go — chain of 20 × 0.5 G$, spend 8 words.
    let chain =
        alice_port.request_hash_chain(&gsp.0, 20, Credits::from_milli(500), 100_000).unwrap();
    let pw = chain.payword(8).unwrap();
    let paid = gsp_port
        .redeem_payword(chain.commitment.clone(), chain.signature.clone(), pw, vec![])
        .unwrap();
    assert_eq!(paid, Credits::from_gd(4));

    // Protocol 3: pay-after-use — cheque for 30, charge 12.
    let cheque = alice_port.request_cheque(&gsp.0, Credits::from_gd(30), 100_000).unwrap();
    let (paid, released) =
        gsp_port.redeem_cheque(cheque, rur(&alice.0, &gsp.0, 2, Credits::from_gd(6))).unwrap();
    assert_eq!(paid, Credits::from_gd(12));
    assert_eq!(released, Credits::from_gd(18));

    // The accounts layer below is consistent: conservation holds, and the
    // GSP's earnings are the sum across all three protocols.
    assert_eq!(bank.accounts.db().total_funds(), total_before);
    let gsp_balance = gsp_port.my_account().unwrap().available;
    assert_eq!(gsp_balance, Credits::from_gd(10 + 4 + 12));

    // Alice: 100 − 10 direct − 4 paywords − 12 cheque − 6 still locked
    // on the chain's 12 unspent words.
    let alice_rec = alice_port.my_account().unwrap();
    assert_eq!(alice_rec.available, Credits::from_gd(100 - 10 - 4 - 12 - 6));
    assert_eq!(alice_rec.locked, Credits::from_gd(6));
}

#[test]
fn unknown_subject_is_limited_to_enrollment() {
    let bank = bank();
    let stranger = SubjectName::new("X", "Y", "stranger");
    // Everything but CreateAccount is refused before enrollment — the
    // protocol-layer mirror of the connection gate.
    for req in [
        BankRequest::MyAccount,
        BankRequest::EstimatePrice {
            desc: gridbank_suite::bank::pricing::ResourceDescription {
                cpu_speed: 1,
                cpu_count: 1,
                memory_mb: 1,
                storage_mb: 1,
                bandwidth_mbps: 1,
            },
            min_similarity_ppk: 0,
        },
        BankRequest::AdminDeposit {
            account: gridbank_suite::bank::db::AccountId::new(1, 1, 1),
            amount: Credits::from_gd(1),
        },
    ] {
        let resp = bank.handle(&stranger, req);
        assert!(
            matches!(resp, gridbank_suite::bank::BankResponse::Error { .. }),
            "stranger got through: {resp:?}"
        );
    }
    // Enrollment works, then MyAccount does too.
    let resp = bank.handle(&stranger, BankRequest::CreateAccount { organization: None });
    assert!(matches!(resp, gridbank_suite::bank::BankResponse::AccountCreated { .. }));
    let resp = bank.handle(&stranger, BankRequest::MyAccount);
    assert!(matches!(resp, gridbank_suite::bank::BankResponse::Account(_)));
}

#[test]
fn instruments_are_not_interchangeable_across_protocols() {
    // A cheque id cannot be redeemed through the payword path and vice
    // versa: each protocol module validates its own instrument format and
    // signature domain.
    let bank = bank();
    let alice = SubjectName::new("UWA", "CSSE", "alice");
    let gsp = SubjectName::new("UM", "GRIDS", "gsp");
    let mut alice_port = InProcessBank::new(bank.clone(), alice.clone());
    let account = alice_port.create_account(None).unwrap();
    let mut gsp_port = InProcessBank::new(bank.clone(), gsp.clone());
    gsp_port.create_account(None).unwrap();
    bank.handle(&admin(), BankRequest::AdminDeposit { account, amount: Credits::from_gd(100) });

    let cheque = alice_port.request_cheque(&gsp.0, Credits::from_gd(10), 100_000).unwrap();
    let chain = alice_port.request_hash_chain(&gsp.0, 4, Credits::from_gd(1), 100_000).unwrap();

    // Present the *cheque's* signature with the chain commitment: the
    // signature covers different bytes, so verification fails.
    let err = gsp_port.redeem_payword(
        chain.commitment.clone(),
        cheque.signature.clone(),
        chain.payword(1).unwrap(),
        vec![],
    );
    assert!(err.is_err());

    // Proper redemptions still work afterwards (no state was corrupted).
    gsp_port
        .redeem_payword(
            chain.commitment.clone(),
            chain.signature.clone(),
            chain.payword(1).unwrap(),
            vec![],
        )
        .unwrap();
    gsp_port.redeem_cheque(cheque, rur(&alice.0, &gsp.0, 1, Credits::from_gd(3))).unwrap();
}

#[test]
fn admin_operations_compose_with_payment_state() {
    let bank = bank();
    let a = SubjectName::new("O", "U", "payer");
    let mut port = InProcessBank::new(bank.clone(), a.clone());
    let account = port.create_account(None).unwrap();
    bank.handle(&admin(), BankRequest::AdminDeposit { account, amount: Credits::from_gd(50) });

    let gsp = SubjectName::new("O", "U", "gsp");
    let mut gsp_port = InProcessBank::new(bank.clone(), gsp.clone());
    gsp_port.create_account(None).unwrap();

    // Lock 30 behind a cheque; the admin cannot close the account while
    // the lock is live, and withdrawal is limited to available funds.
    let _cheque = port.request_cheque(&gsp.0, Credits::from_gd(30), 100_000).unwrap();
    let resp = bank.handle(&admin(), BankRequest::AdminCloseAccount { account, transfer_to: None });
    assert!(matches!(resp, gridbank_suite::bank::BankResponse::Error { .. }));
    let resp =
        bank.handle(&admin(), BankRequest::AdminWithdraw { account, amount: Credits::from_gd(21) });
    assert!(matches!(resp, gridbank_suite::bank::BankResponse::Error { .. }));
    let resp =
        bank.handle(&admin(), BankRequest::AdminWithdraw { account, amount: Credits::from_gd(20) });
    assert!(matches!(resp, gridbank_suite::bank::BankResponse::Confirmation { .. }));
}
