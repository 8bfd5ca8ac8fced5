//! Co-operative operating model (§4.1, Figure 4).
//!
//! "In co-operative computing environments, all participants both consume
//! and provide services; when participants provide services, they earn
//! credits … Each participant may be initially allocated a certain amount
//! of credits. The amount depends on the value of the resource the
//! participant owns."
//!
//! This module provides the two bank-side pieces:
//!
//! * [`allocate_initial_credits`] — the community's initial allocation,
//!   proportional to declared resource value;
//! * [`BarterStats`] — per-participant consumed/provided totals computed
//!   from the transfer table, reproducing Figure 4's account view, plus
//!   the equilibrium gap the "community pricing authority" watches.

use std::collections::HashMap;

use gridbank_rur::Credits;

use crate::admin::GbAdmin;
use crate::db::{AccountId, Database};
use crate::error::BankError;

/// Deposits `value_units × per_unit` into each participant's account —
/// how the community seeds a barter economy. Returns the total minted.
pub fn allocate_initial_credits(
    admin: &GbAdmin,
    admin_cert: &str,
    allocations: &[(AccountId, u64)],
    per_unit: Credits,
) -> Result<Credits, BankError> {
    let mut total = Credits::ZERO;
    for (account, units) in allocations {
        if *units == 0 {
            continue;
        }
        let amount = per_unit.checked_mul(*units as i128)?;
        admin.deposit(admin_cert, account, amount)?;
        total = total.checked_add(amount)?;
    }
    Ok(total)
}

/// Consumed/provided totals for one participant (Figure 4's annotations).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BarterBalance {
    /// Value of services this participant consumed from others.
    pub consumed: Credits,
    /// Value of services this participant provided to others.
    pub provided: Credits,
}

impl BarterBalance {
    /// provided − consumed; positive for net providers.
    pub fn net(&self) -> Credits {
        self.provided.saturating_add(self.consumed.negated())
    }
}

/// Community-wide barter statistics.
#[derive(Clone, Debug, Default)]
pub struct BarterStats {
    /// Per-account balances.
    pub balances: HashMap<AccountId, BarterBalance>,
}

impl BarterStats {
    /// Computes stats from the bank's transfer table over a time window.
    pub fn compute(db: &Database, start_ms: u64, end_ms: u64) -> Self {
        let mut balances: HashMap<AccountId, BarterBalance> = HashMap::new();
        db.for_each_transfer(|t| {
            if t.date_ms < start_ms || t.date_ms >= end_ms {
                return;
            }
            balances.entry(t.drawer).or_default().consumed =
                balances.entry(t.drawer).or_default().consumed.saturating_add(t.amount);
            balances.entry(t.recipient).or_default().provided =
                balances.entry(t.recipient).or_default().provided.saturating_add(t.amount);
        });
        BarterStats { balances }
    }

    /// The largest |provided − consumed| across participants — zero at
    /// perfect price equilibrium ("GSPs are paid approximately as much
    /// currency as they will use to access other Grid services").
    pub fn equilibrium_gap(&self) -> Credits {
        self.balances.values().map(|b| b.net().abs()).max().unwrap_or(Credits::ZERO)
    }

    /// Total value exchanged in the window.
    pub fn total_exchanged(&self) -> Credits {
        self.balances.values().map(|b| b.provided).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accounts::GbAccounts;
    use crate::clock::Clock;
    use std::sync::Arc;

    const ADMIN: &str = "/CN=gb-admin";

    fn setup(n: usize) -> (GbAdmin, GbAccounts, Vec<AccountId>) {
        let db = Arc::new(Database::new(1, 1));
        let acc = GbAccounts::new(db, Clock::new());
        let admin = GbAdmin::new(acc.clone(), [ADMIN.to_string()]);
        let ids = (0..n).map(|i| acc.create_account(&format!("/CN=p{i}"), None).unwrap()).collect();
        (admin, acc, ids)
    }

    #[test]
    fn initial_allocation_proportional_to_value() {
        let (admin, acc, ids) = setup(3);
        let total = allocate_initial_credits(
            &admin,
            ADMIN,
            &[(ids[0], 10), (ids[1], 5), (ids[2], 0)],
            Credits::from_gd(2),
        )
        .unwrap();
        assert_eq!(total, Credits::from_gd(30));
        assert_eq!(acc.account_details(&ids[0]).unwrap().available, Credits::from_gd(20));
        assert_eq!(acc.account_details(&ids[1]).unwrap().available, Credits::from_gd(10));
        assert_eq!(acc.account_details(&ids[2]).unwrap().available, Credits::ZERO);
    }

    #[test]
    fn barter_stats_track_both_directions() {
        let (admin, acc, ids) = setup(3);
        allocate_initial_credits(
            &admin,
            ADMIN,
            &[(ids[0], 10), (ids[1], 10), (ids[2], 10)],
            Credits::from_gd(1),
        )
        .unwrap();
        // Ring of services: 0 pays 1 pays 2 pays 0.
        acc.transfer(&ids[0], &ids[1], Credits::from_gd(4), vec![]).unwrap();
        acc.transfer(&ids[1], &ids[2], Credits::from_gd(4), vec![]).unwrap();
        acc.transfer(&ids[2], &ids[0], Credits::from_gd(4), vec![]).unwrap();

        let stats = BarterStats::compute(acc.db(), 0, u64::MAX);
        for id in &ids {
            let b = stats.balances[id];
            assert_eq!(b.consumed, Credits::from_gd(4));
            assert_eq!(b.provided, Credits::from_gd(4));
            assert_eq!(b.net(), Credits::ZERO);
        }
        assert_eq!(stats.equilibrium_gap(), Credits::ZERO);
        assert_eq!(stats.total_exchanged(), Credits::from_gd(12));
    }

    #[test]
    fn unbalanced_trade_shows_gap() {
        let (admin, acc, ids) = setup(2);
        allocate_initial_credits(&admin, ADMIN, &[(ids[0], 10), (ids[1], 10)], Credits::from_gd(1))
            .unwrap();
        // Participant 0 only consumes.
        acc.transfer(&ids[0], &ids[1], Credits::from_gd(7), vec![]).unwrap();
        let stats = BarterStats::compute(acc.db(), 0, u64::MAX);
        assert_eq!(stats.equilibrium_gap(), Credits::from_gd(7));
        assert_eq!(stats.balances[&ids[0]].net(), Credits::from_gd(-7));
        assert_eq!(stats.balances[&ids[1]].net(), Credits::from_gd(7));
    }

    #[test]
    fn window_filters_apply() {
        let (admin, acc, ids) = setup(2);
        allocate_initial_credits(&admin, ADMIN, &[(ids[0], 10)], Credits::from_gd(1)).unwrap();
        acc.transfer(&ids[0], &ids[1], Credits::from_gd(1), vec![]).unwrap();
        acc.clock().advance(1000);
        acc.transfer(&ids[0], &ids[1], Credits::from_gd(2), vec![]).unwrap();
        let early = BarterStats::compute(acc.db(), 0, 500);
        assert_eq!(early.total_exchanged(), Credits::from_gd(1));
        let late = BarterStats::compute(acc.db(), 500, u64::MAX);
        assert_eq!(late.total_exchanged(), Credits::from_gd(2));
    }
}
