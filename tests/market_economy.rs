//! The population-scale market economy, end-to-end through live
//! servers: 100k accounts across two federated branches, a Zipf hot
//! set under a diurnal arrival curve, flash-crowd capacity auctions
//! settled exactly-once through the bank (with deliberate duplicate
//! re-sends), a co-op barter ring, and concurrent PayWord streams —
//! every hard invariant checked by `EconomyReport::verify`.

// Test fixtures build inputs with plain arithmetic; the workspace
// `clippy::arithmetic_side_effects` wall targets production money paths
// (see docs/STATIC_ANALYSIS.md §lint wall).
#![allow(clippy::arithmetic_side_effects)]

use gridbank_suite::rur::Credits;
use gridbank_suite::sim::market::{run_market, EconomyConfig};
use gridbank_suite::sim::workload::DiurnalCurve;

fn population_config() -> EconomyConfig {
    EconomyConfig {
        seed: 0x6B1D_2003,
        // 50k accounts per branch — 100k across the federation.
        population_per_branch: 50_000,
        payers_per_branch: 4,
        spot_payments: 1_500,
        cross_branch_pct: 35,
        zipf_s_permille: 1_100,
        auctions: 3,
        bidders_per_auction: 4,
        barter_members: 6,
        barter_rounds: 3,
        payword_streams: 3,
        // 4 redemption calls of ⌊14/4⌋ = 3 words leave a 2-word tail,
        // so closing at expiry must release a nonzero reservation.
        payword_words: 14,
        payword_redemptions: 4,
        mean_interarrival_ms: 30,
        diurnal: Some(DiurnalCurve { period_ms: 200_000, trough_pct: 15 }),
        // 2^12 signed instruments per branch covers the traffic.
        signer_height: 12,
    }
}

#[test]
fn population_scale_market_conserves_and_settles_exactly_once() {
    let cfg = population_config();
    let report = run_market(&cfg).expect("scenario runs");

    // Hard invariants: conservation across both ledgers (clearing and
    // suspense included), zero residual clearing after netting, zero
    // pending inter-branch credits, zero stranded locked funds, the
    // `ib.credit.stranded` counter unmoved, and exactly-once
    // settlement of every auction win despite duplicate re-sends.
    report.verify().unwrap_or_else(|faults| panic!("market invariants violated: {faults}"));

    // The economy actually exercised every traffic class at scale.
    assert_eq!(report.population, 50_000);
    assert_eq!(report.spot_payments, 1_500);
    assert!(
        report.cross_branch_payments > 300,
        "expected a third of {} payments to cross branches, saw {}",
        report.spot_payments,
        report.cross_branch_payments
    );
    assert_eq!(report.auctions_settled, 3);
    assert_eq!(report.dutch_auctions, 1, "the first auction finds the provider idle");
    assert_eq!(report.english_auctions, 2, "flash crowd flips later auctions to English");
    assert_eq!(report.duplicate_settlements_deduped, 3);
    assert!(report.exactly_once_ok);
    assert!(report.auction_volume > Credits::ZERO);
    assert!(report.barter_volume > Credits::ZERO);
    assert!(report.payword_paid > Credits::ZERO);
    assert!(report.payword_released > Credits::ZERO, "unspent chain tails must release");
    assert_eq!(report.stranded_locked, Credits::ZERO);
    assert_eq!(report.stranded_credit_delta, 0);
}
