//! Multiple GridBank branches and inter-branch settlement (§6).
//!
//! "In the future, GridBank system will be expanded to provide multiple
//! servers/branches across the Grid to achieve scalability … It is
//! precisely for this purpose that GridBank accounts have branch numbers.
//! Each Virtual Organization associates a GridBank server that all
//! participants of the organization use. If a GSC is from one VO and GSP
//! is from another, then their respective servers will need to define
//! protocols for settling accounts between the branches."
//!
//! The paper's future work, implemented by
//! [`FederationRouter`](crate::federation::FederationRouter): each branch
//! is a full bank with its own database and a **clearing account** per
//! peer branch; a cross-branch payment debits the drawer into the local
//! clearing account while the payee's branch credits the payee
//! immediately, and a settlement round nets the pairwise liabilities so
//! only the net amount moves between banks. This module holds what that
//! protocol computes with and does no I/O: the clearing-account naming
//! and rediscovery helpers, and the pure [`NettingEngine`] with its
//! report types.

use std::collections::HashMap;

use gridbank_rur::Credits;

use crate::accounts::GbAccounts;
use crate::db::AccountId;
use crate::error::BankError;

/// The administrator identity settlement runs under.
pub const SETTLEMENT_ADMIN: &str = "/O=GridBank/OU=Settlement/CN=interbank";

/// Certificate name of the clearing account branch `local` holds for
/// flows toward branch `peer`. Deterministic, so crash recovery can
/// rediscover the account instead of minting a duplicate.
pub fn clearing_cert(local: u16, peer: u16) -> String {
    format!("/O=GridBank/OU=Clearing/CN=branch-{local:04}-vs-{peer:04}")
}

/// Inverse of [`clearing_cert`]: the peer branch id, if `cert` names one
/// of `local`'s clearing accounts.
pub fn parse_clearing_cert(local: u16, cert: &str) -> Option<u16> {
    let prefix = format!("/O=GridBank/OU=Clearing/CN=branch-{local:04}-vs-");
    cert.strip_prefix(&prefix)?.parse().ok()
}

/// Scans the database for `local`'s clearing accounts — the crash-
/// recovery path: journal replay restores the account rows, and this
/// rebinds peer → clearing id so the branch reuses them.
pub fn discover_clearing_accounts(accounts: &GbAccounts, local: u16) -> HashMap<u16, AccountId> {
    accounts
        .db()
        .all_accounts()
        .into_iter()
        .filter_map(|r| parse_clearing_cert(local, &r.certificate_name).map(|peer| (peer, r.id)))
        .collect()
}

/// Looks up the clearing account for `peer` in `clearing`, rebinding
/// from the certificate index or creating it on first use.
pub fn clearing_account_for(
    clearing: &mut HashMap<u16, AccountId>,
    accounts: &GbAccounts,
    local: u16,
    peer: u16,
) -> Result<AccountId, BankError> {
    if let Some(id) = clearing.get(&peer) {
        return Ok(*id);
    }
    let cert = clearing_cert(local, peer);
    // Rediscover before creating: after a crash-replay the account row
    // exists but the in-memory binding is gone.
    let id = match accounts.account_by_cert(&cert) {
        Ok(record) => record.id,
        Err(BankError::UnknownSubject(_)) => {
            accounts.create_account(&cert, Some("GridBank".into()))?
        }
        Err(e) => return Err(e),
    };
    clearing.insert(peer, id);
    Ok(id)
}

/// Pairwise settlement outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PairSettlement {
    /// Lower-numbered branch of the pair.
    pub branch_a: u16,
    /// Higher-numbered branch of the pair.
    pub branch_b: u16,
    /// Gross flow a→b since the last settlement.
    pub gross_a_to_b: Credits,
    /// Gross flow b→a.
    pub gross_b_to_a: Credits,
    /// The single net payment that actually crossed banks (positive means
    /// a paid b).
    pub net: Credits,
}

/// A settlement round's report.
#[derive(Clone, Debug, Default)]
pub struct SettlementReport {
    /// Per-pair outcomes.
    pub pairs: Vec<PairSettlement>,
}

impl SettlementReport {
    /// Total gross value that flowed between branches.
    pub fn total_gross(&self) -> Credits {
        self.pairs.iter().map(|p| p.gross_a_to_b.saturating_add(p.gross_b_to_a)).sum()
    }

    /// Total value that actually moved at settlement.
    pub fn total_net(&self) -> Credits {
        self.pairs.iter().map(|p| p.net.abs()).sum()
    }
}

/// The pure §6 netting engine: accrues gross pairwise flows and computes
/// per-pair netting outcomes. It never touches accounts — the
/// [`FederationRouter`](crate::federation::FederationRouter) applies the
/// resulting drains to its own books.
#[derive(Clone, Debug, Default)]
pub struct NettingEngine {
    /// Gross flows accrued since the last settlement: (from, to) → amount.
    pending: HashMap<(u16, u16), Credits>,
}

impl NettingEngine {
    /// An empty engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accrues a gross flow `from` → `to`.
    pub fn note(&mut self, from: u16, to: u16, amount: Credits) {
        let entry = self.pending.entry((from, to)).or_insert(Credits::ZERO);
        *entry = entry.saturating_add(amount);
    }

    /// True when no flow is pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Drains every pending pair into netting outcomes, lower-numbered
    /// branch first, sorted by pair.
    pub fn drain_pairs(&mut self) -> Vec<PairSettlement> {
        let mut pairs: Vec<(u16, u16)> =
            self.pending.keys().map(|&(a, b)| if a < b { (a, b) } else { (b, a) }).collect();
        pairs.sort_unstable();
        pairs.dedup();
        pairs
            .into_iter()
            .map(|(a, b)| {
                let gross_ab = self.pending.remove(&(a, b)).unwrap_or(Credits::ZERO);
                let gross_ba = self.pending.remove(&(b, a)).unwrap_or(Credits::ZERO);
                Self::pair(a, b, gross_ab, gross_ba)
            })
            .collect()
    }

    /// The netting rule for one pair: only the difference crosses banks.
    /// Accepts the branches in either order and normalizes lower-first.
    pub fn pair(a: u16, b: u16, gross_a_to_b: Credits, gross_b_to_a: Credits) -> PairSettlement {
        let (a, b, gross_ab, gross_ba) = if a <= b {
            (a, b, gross_a_to_b, gross_b_to_a)
        } else {
            (b, a, gross_b_to_a, gross_a_to_b)
        };
        PairSettlement {
            branch_a: a,
            branch_b: b,
            gross_a_to_b: gross_ab,
            gross_b_to_a: gross_ba,
            net: gross_ab.saturating_add(gross_ba.negated()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn netting_engine_pairs_and_drains() {
        let mut eng = NettingEngine::new();
        assert!(eng.is_empty());
        eng.note(1, 2, Credits::from_gd(30));
        eng.note(2, 1, Credits::from_gd(12));
        eng.note(2, 1, Credits::from_gd(3));
        eng.note(3, 1, Credits::from_gd(7));
        let pairs = eng.drain_pairs();
        assert!(eng.is_empty());
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[0].gross_a_to_b, Credits::from_gd(30));
        assert_eq!(pairs[0].gross_b_to_a, Credits::from_gd(15));
        assert_eq!(pairs[0].net, Credits::from_gd(15));
        // (3,1) normalized lower-first: gross flows b→a.
        assert_eq!(pairs[1].branch_a, 1);
        assert_eq!(pairs[1].branch_b, 3);
        assert_eq!(pairs[1].gross_a_to_b, Credits::ZERO);
        assert_eq!(pairs[1].gross_b_to_a, Credits::from_gd(7));
        assert_eq!(pairs[1].net, Credits::from_gd(-7));
        // The pure pair rule is order-insensitive.
        assert_eq!(
            NettingEngine::pair(5, 2, Credits::from_gd(1), Credits::from_gd(4)),
            NettingEngine::pair(2, 5, Credits::from_gd(4), Credits::from_gd(1))
        );
    }

    #[test]
    fn clearing_cert_round_trips() {
        assert_eq!(parse_clearing_cert(1, &clearing_cert(1, 2)), Some(2));
        assert_eq!(parse_clearing_cert(3, &clearing_cert(1, 2)), None);
        assert_eq!(parse_clearing_cert(1, "/CN=alice"), None);
    }
}
