//! Payment guarantee (§3.4).
//!
//! "To guarantee payment when issuing GridCheques, GridBank will have to
//! lock a certain amount of funds for the cheque to be valid … Each GSP
//! will receive a cheque with a reserved amount, which is transferred to
//! the 'locked' balance of the GSC's account."
//!
//! [`FundsGuarantee`] is the shared reservation registry behind both
//! GridCheques and GridHash chains: `reserve` locks funds against an
//! instrument id; `settle` pays the payee the actual charge (capped at the
//! reservation) and releases the remainder; `release` returns everything.
//!
//! A reservation also remembers the instrument the bank signed against it
//! ([`FundsGuarantee::sign_instrument`]), so a redemption presenting those
//! exact bytes is recognised ([`FundsGuarantee::recognises`]) instead of
//! having the bank re-verify its own signature. A hash chain's
//! reservation also keeps the chain's terms and the last word paid
//! ([`ChainTerms`]), so a redeem that names the chain by id alone is
//! checked with one hash per word it pays ([`FundsGuarantee::settle_words`]).
//! A failed payout, release or signature undoes its claim on the
//! reservation: no error leaves funds locked that the sweeper cannot
//! return.

use std::collections::HashMap;
use std::sync::Arc;

use crate::sync::Mutex;

use gridbank_crypto::keys::SigningIdentity;
use gridbank_crypto::merkle::MerkleSignature;
use gridbank_crypto::sha256::{Digest, Sha256};
use gridbank_rur::Credits;

use crate::accounts::GbAccounts;
use crate::db::AccountId;
use crate::error::BankError;
use crate::payword::PayWord;

/// State of one reservation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Reservation {
    /// Drawer account whose funds are locked.
    pub account: AccountId,
    /// Originally reserved amount.
    pub reserved: Credits,
    /// Amount already settled to payees.
    pub settled: Credits,
    /// True once fully settled/released; terminal.
    pub closed: bool,
    /// Instrument expiry, virtual ms; `u64::MAX` when the caller manages
    /// lifetime itself. The sweeper releases overdue reservations.
    pub expires_ms: u64,
    /// SHA-256 of the signed instrument this reservation backs, body ‖
    /// signature encoding exactly as handed out; `None` until its body is
    /// signed.
    pub instrument: Option<Digest>,
    /// The terms of the hash chain this reservation backs; `None` for a
    /// cheque.
    pub chain: Option<ChainTerms>,
}

/// What a chain's reservation keeps of the chain the bank issued against
/// it: enough to pay a word that names the chain by id alone.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChainTerms {
    /// Payee certificate name the chain is bound to.
    pub payee_cert: String,
    /// Chain length `n`.
    pub length: u32,
    /// Value of each payword.
    pub value_per_word: Credits,
    /// The highest word paid and its index: `w_0` at index 0 until the
    /// first redeem.
    pub paid: PayWord,
}

/// The outcome of a compare-and-commit on a chain's paid word.
enum WordClaim {
    /// The words past the expected index are claimed: `amount` moves from
    /// `drawer`'s locked funds.
    Claimed { drawer: AccountId, amount: Credits },
    /// Another redeem moved the paid word first; check against this one.
    Moved(PayWord),
}

/// SHA-256 of `body ‖ signature.to_bytes()`, fed from the signature's
/// fields so its 2.5 KB encoding is never copied into a buffer. Both
/// instrument bodies decode field by field to a fixed end, so no other
/// (body, signature) split of the same bytes is a well-formed instrument.
fn instrument_digest(body: &[u8], signature: &MerkleSignature) -> Digest {
    let mut h = Sha256::new();
    h.update(body);
    h.update(&(signature.leaf_index as u64).to_be_bytes());
    for d in signature.ots.revealed.iter() {
        h.update(d.as_bytes());
    }
    h.update(&(signature.path.len() as u64).to_be_bytes());
    for d in &signature.path {
        h.update(d.as_bytes());
    }
    h.finalize()
}

fn no_reservation(id: u64) -> BankError {
    BankError::InvalidInstrument(format!("no reservation {id}"))
}

impl Reservation {
    /// Locked amount still outstanding.
    pub fn outstanding(&self) -> Credits {
        self.reserved.checked_sub(self.settled).unwrap_or(Credits::ZERO)
    }
}

/// The reservation registry.
#[derive(Clone)]
pub struct FundsGuarantee {
    accounts: GbAccounts,
    reservations: Arc<Mutex<HashMap<u64, Reservation>>>,
    next_id: Arc<std::sync::atomic::AtomicU64>,
}

impl FundsGuarantee {
    /// Creates an empty registry over the accounts layer.
    pub fn new(accounts: GbAccounts) -> Self {
        FundsGuarantee {
            accounts,
            reservations: Arc::new(Mutex::new(HashMap::new())),
            next_id: Arc::new(std::sync::atomic::AtomicU64::new(1)),
        }
    }

    /// Locks `amount` of `account`'s funds; returns the reservation id.
    /// The reservation never expires on its own; use
    /// [`Self::reserve_until`] for instrument-backed reservations.
    pub fn reserve(&self, account: &AccountId, amount: Credits) -> Result<u64, BankError> {
        self.reserve_until(account, amount, u64::MAX)
    }

    /// Locks `amount` until `expires_ms`; [`Self::sweep_expired`] returns
    /// overdue reservations to their drawers.
    pub fn reserve_until(
        &self,
        account: &AccountId,
        amount: Credits,
        expires_ms: u64,
    ) -> Result<u64, BankError> {
        self.accounts.lock_funds(account, amount)?;
        let id = self.next_id.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.reservations.lock().insert(
            id,
            Reservation {
                account: *account,
                reserved: amount,
                settled: Credits::ZERO,
                closed: false,
                expires_ms,
                instrument: None,
                chain: None,
            },
        );
        Ok(id)
    }

    /// Records on reservation `id` the terms of the hash chain it backs,
    /// its root as the word paid at index 0.
    pub fn record_chain(&self, id: u64, terms: ChainTerms) {
        if let Some(r) = self.reservations.lock().get_mut(&id) {
            r.chain = Some(terms);
        }
    }

    /// Signs the instrument `body` backed by reservation `id` and records
    /// the SHA-256 of body and signature there. When the bank cannot sign
    /// (its key is exhausted) the reservation is released, so no funds
    /// stay locked behind an instrument that was never handed out.
    pub fn sign_instrument(
        &self,
        id: u64,
        signer: &SigningIdentity,
        body: &[u8],
    ) -> Result<MerkleSignature, BankError> {
        let sign_timer = gridbank_obs::Stopwatch::start();
        let signature = match signer.sign(body) {
            Ok(signature) => signature,
            Err(e) => {
                // The signing error is the one to report; a release that
                // fails too leaves the reservation open for the sweeper.
                let _ = self.release(id);
                return Err(e.into());
            }
        };
        sign_timer.record_named("core.signer.sign_ns");
        let digest = instrument_digest(body, &signature);
        if let Some(r) = self.reservations.lock().get_mut(&id) {
            r.instrument = Some(digest);
        }
        Ok(signature)
    }

    /// Whether `body ‖ signature` is exactly the instrument this bank
    /// signed against reservation `id`: then it needs no signature check.
    /// Any other input — a changed byte, an unknown id, a bank that lost
    /// its reservations — answers false and must be verified. Every call
    /// counts one `core.instrument.recognised` or
    /// `core.instrument.verified`, so the two partition redemptions.
    pub fn recognises(&self, id: u64, body: &[u8], signature: &MerkleSignature) -> bool {
        let digest = instrument_digest(body, signature);
        let known = self.reservations.lock().get(&id).and_then(|r| r.instrument) == Some(digest);
        gridbank_obs::count(
            if known { "core.instrument.recognised" } else { "core.instrument.verified" },
            1,
        );
        known
    }

    /// Closes open reservation `id` so that no concurrent settler or
    /// sweeper can also move its funds; returns the drawer and the amount
    /// still locked for it.
    fn claim(&self, id: u64) -> Result<(AccountId, Credits), BankError> {
        let mut map = self.reservations.lock();
        let r = map.get_mut(&id).ok_or_else(|| no_reservation(id))?;
        if r.closed {
            return Err(BankError::AlreadyRedeemed(format!("reservation {id}")));
        }
        r.closed = true;
        Ok((r.account, r.outstanding()))
    }

    /// Reopens a claimed reservation after the commit behind the claim
    /// was refused; a refused commit moved nothing.
    fn reopen(&self, id: u64) {
        if let Some(r) = self.reservations.lock().get_mut(&id) {
            r.closed = false;
        }
    }

    /// Releases every open reservation whose expiry has passed — the
    /// bank's housekeeping pass for cheques and chains that were never
    /// (fully) redeemed. Returns `(reservation_id, amount_released)`
    /// pairs.
    pub fn sweep_expired(&self, now_ms: u64) -> Vec<(u64, Credits)> {
        let overdue: Vec<u64> = {
            let map = self.reservations.lock();
            map.iter()
                .filter(|(_, r)| !r.closed && r.expires_ms <= now_ms)
                .map(|(id, _)| *id)
                .collect()
        };
        let mut out = Vec::with_capacity(overdue.len());
        for id in overdue {
            if let Ok(released) = self.release(id) {
                out.push((id, released));
            }
        }
        out
    }

    /// Reads a reservation's state.
    pub fn get(&self, id: u64) -> Option<Reservation> {
        self.reservations.lock().get(&id).cloned()
    }

    /// Settles `charge` (capped at the outstanding reservation) to
    /// `payee`, attaching `rur_blob` as evidence, and releases the
    /// remainder, in one commit ([`GbAccounts::settle_locked`]). Returns
    /// `(paid, released)`. Terminal for the reservation.
    pub fn settle(
        &self,
        id: u64,
        payee: &AccountId,
        charge: Credits,
        rur_blob: Vec<u8>,
    ) -> Result<(Credits, Credits), BankError> {
        if charge.is_negative() {
            return Err(BankError::NonPositiveAmount);
        }
        // Claim the reservation first so concurrent settlers can't both
        // pay; the one commit below only touches the claimed amount, and
        // a refused commit moves nothing and reopens the claim, so a
        // later settle or the sweeper still finds it all locked.
        let (drawer, outstanding) = self.claim(id)?;
        let pay = charge.min(outstanding);
        let release = outstanding.checked_sub(pay)?;
        let moved = if pay.is_positive() {
            self.accounts.settle_locked(&drawer, payee, pay, release, rur_blob)
        } else if release.is_positive() {
            self.accounts.unlock_funds(&drawer, release)
        } else {
            Ok(())
        };
        if let Err(e) = moved {
            self.reopen(id);
            return Err(e);
        }
        if let Some(r) = self.reservations.lock().get_mut(&id) {
            r.settled = r.settled.saturating_add(pay);
        }
        Ok((pay, release))
    }

    /// Pays a chain's paywords up to `pay.index` out of its reservation
    /// *without closing it* — the incremental redemption of pay-as-you-go
    /// hash chains — to `caller_cert`, who must be the chain's payee,
    /// resolved to an account by `payee`. Pays the chain's value per word
    /// for each word past the highest index paid, checked with one hash
    /// per word from the last word paid ([`PayWord::verify_from`]); a
    /// genuine word at that index or a lower one is already redeemed.
    ///
    /// The check, the claim on the reservation's headroom and the new
    /// paid word are one compare-and-commit: the hashing runs outside the
    /// lock, and the claim commits only if the word it was checked
    /// against is still the last one paid, else it checks again against
    /// the newer one. A failed payout puts back the old word with its
    /// index.
    pub fn settle_words(
        &self,
        id: u64,
        pay: &PayWord,
        caller_cert: &str,
        now_ms: u64,
        payee: impl FnOnce() -> Result<AccountId, BankError>,
        rur_blob: Vec<u8>,
    ) -> Result<Credits, BankError> {
        let (mut from, length) = {
            let map = self.reservations.lock();
            let r = map.get(&id).ok_or_else(|| no_reservation(id))?;
            let chain = r.chain.as_ref().ok_or_else(|| {
                BankError::InvalidInstrument(format!("reservation {id} backs no hash chain"))
            })?;
            if chain.payee_cert != caller_cert {
                return Err(BankError::NotAuthorized(format!(
                    "chain payable to `{}`, not `{caller_cert}`",
                    chain.payee_cert
                )));
            }
            if now_ms >= r.expires_ms {
                return Err(BankError::InvalidInstrument("chain expired".into()));
            }
            (chain.paid, chain.length)
        };
        let payee = payee()?;
        let (drawer, amount) = loop {
            pay.verify_from(&from, length)?;
            if pay.index <= from.index {
                return Err(BankError::AlreadyRedeemed(format!(
                    "chain {id} already redeemed through index {}",
                    from.index
                )));
            }
            match self.claim_words(id, &from, pay)? {
                WordClaim::Claimed { drawer, amount } => break (drawer, amount),
                WordClaim::Moved(paid) => from = paid,
            }
        };
        if let Err(e) =
            self.accounts.settle_locked(&drawer, &payee, amount, Credits::ZERO, rur_blob)
        {
            if let Some(r) = self.reservations.lock().get_mut(&id) {
                r.settled = r.settled.checked_sub(amount).unwrap_or(Credits::ZERO);
                // A later redeem that already claimed past `pay.index` paid
                // only its own delta; the words up to `pay.index` stay
                // unpaid and their funds locked until the chain closes or
                // expires.
                if let Some(chain) = r.chain.as_mut().filter(|c| c.paid.index == pay.index) {
                    chain.paid = from;
                }
            }
            return Err(e);
        }
        Ok(amount)
    }

    /// Claims the words from `from` up to `pay` if `from` is still the
    /// chain's last word paid, making `pay` the last word paid.
    fn claim_words(&self, id: u64, from: &PayWord, pay: &PayWord) -> Result<WordClaim, BankError> {
        let mut map = self.reservations.lock();
        let r = map.get_mut(&id).ok_or_else(|| no_reservation(id))?;
        let outstanding = r.outstanding();
        let (closed, drawer) = (r.closed, r.account);
        let chain = r.chain.as_mut().ok_or_else(|| no_reservation(id))?;
        if chain.paid.index != from.index {
            return Ok(WordClaim::Moved(chain.paid));
        }
        let words = i128::from(pay.index.saturating_sub(from.index));
        let amount = chain.value_per_word.checked_mul(words)?;
        if !amount.is_positive() {
            return Err(BankError::NonPositiveAmount);
        }
        if closed {
            return Err(BankError::AlreadyRedeemed(format!("reservation {id}")));
        }
        if outstanding < amount {
            return Err(BankError::InsufficientLockedFunds {
                account: drawer,
                needed: amount,
                locked: outstanding,
            });
        }
        chain.paid = *pay;
        r.settled = r.settled.saturating_add(amount);
        Ok(WordClaim::Claimed { drawer, amount })
    }

    /// Releases the whole outstanding reservation back to the drawer
    /// (instrument expired unused). Terminal.
    pub fn release(&self, id: u64) -> Result<Credits, BankError> {
        let (drawer, outstanding) = self.claim(id)?;
        if outstanding.is_positive() {
            if let Err(e) = self.accounts.unlock_funds(&drawer, outstanding) {
                self.reopen(id);
                return Err(e);
            }
        }
        Ok(outstanding)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Clock;
    use crate::db::Database;

    fn setup() -> (FundsGuarantee, GbAccounts, AccountId, AccountId) {
        let db = Arc::new(Database::new(1, 1));
        let acc = GbAccounts::new(db.clone(), Clock::new());
        let a = acc.create_account("/CN=gsc", None).unwrap();
        let p = acc.create_account("/CN=gsp", None).unwrap();
        db.with_account_mut(&a, |r| {
            r.available = Credits::from_gd(100);
            Ok(())
        })
        .unwrap();
        (FundsGuarantee::new(acc.clone()), acc, a, p)
    }

    #[test]
    fn reserve_then_settle_with_remainder() {
        let (g, acc, a, p) = setup();
        let id = g.reserve(&a, Credits::from_gd(40)).unwrap();
        assert_eq!(acc.account_details(&a).unwrap().locked, Credits::from_gd(40));

        let (paid, released) = g.settle(id, &p, Credits::from_gd(25), vec![]).unwrap();
        assert_eq!(paid, Credits::from_gd(25));
        assert_eq!(released, Credits::from_gd(15));
        let r = acc.account_details(&a).unwrap();
        assert_eq!(r.available, Credits::from_gd(75));
        assert_eq!(r.locked, Credits::ZERO);
        assert_eq!(acc.account_details(&p).unwrap().available, Credits::from_gd(25));
    }

    #[test]
    fn a_refused_settlement_moves_nothing_and_stays_open() {
        let (g, acc, a, p) = setup();
        let id = g.reserve(&a, Credits::from_gd(40)).unwrap();
        let drawer = acc.account_details(&a).unwrap();
        // Paying the drawer itself is refused by the commit, which then
        // moves neither the payout nor the release.
        assert!(matches!(
            g.settle(id, &a, Credits::from_gd(25), vec![]),
            Err(BankError::Protocol(_))
        ));
        assert_eq!(acc.account_details(&a).unwrap(), drawer);
        let r = g.get(id).unwrap();
        assert_eq!((r.closed, r.settled), (false, Credits::ZERO));
        // A later valid settle pays from the whole reservation.
        let settled = g.settle(id, &p, Credits::from_gd(25), vec![]).unwrap();
        assert_eq!(settled, (Credits::from_gd(25), Credits::from_gd(15)));
        let r = acc.account_details(&a).unwrap();
        assert_eq!((r.available, r.locked), (Credits::from_gd(75), Credits::ZERO));
    }

    #[test]
    fn settlement_caps_at_reservation() {
        let (g, acc, a, p) = setup();
        let id = g.reserve(&a, Credits::from_gd(10)).unwrap();
        // Charge exceeds the guarantee: payee gets only the reserved 10.
        let (paid, released) = g.settle(id, &p, Credits::from_gd(99), vec![]).unwrap();
        assert_eq!(paid, Credits::from_gd(10));
        assert_eq!(released, Credits::ZERO);
        assert_eq!(acc.account_details(&p).unwrap().available, Credits::from_gd(10));
    }

    #[test]
    fn double_settlement_rejected() {
        let (g, _acc, a, p) = setup();
        let id = g.reserve(&a, Credits::from_gd(10)).unwrap();
        g.settle(id, &p, Credits::from_gd(5), vec![]).unwrap();
        assert!(matches!(
            g.settle(id, &p, Credits::from_gd(5), vec![]),
            Err(BankError::AlreadyRedeemed(_))
        ));
        assert!(matches!(g.release(id), Err(BankError::AlreadyRedeemed(_))));
    }

    #[test]
    fn release_returns_funds() {
        let (g, acc, a, _p) = setup();
        let id = g.reserve(&a, Credits::from_gd(30)).unwrap();
        let back = g.release(id).unwrap();
        assert_eq!(back, Credits::from_gd(30));
        let r = acc.account_details(&a).unwrap();
        assert_eq!(r.available, Credits::from_gd(100));
        assert_eq!(r.locked, Credits::ZERO);
    }

    #[test]
    fn reserve_fails_without_funds() {
        let (g, _acc, a, _p) = setup();
        assert!(matches!(
            g.reserve(&a, Credits::from_gd(101)),
            Err(BankError::InsufficientFunds { .. })
        ));
        assert!(g.reserve(&a, Credits::ZERO).is_err());
    }

    /// A chain of `n` words over reservation `id`, payable to `/CN=gsp`
    /// at G$1 a word: `w[k]` is word `k`, `w[0]` the root.
    fn chain(g: &FundsGuarantee, id: u64, n: u32) -> Vec<Digest> {
        let mut w = vec![gridbank_crypto::sha256::sha256(b"tip")];
        for _ in 0..n {
            let next = gridbank_crypto::sha256::sha256(w[w.len() - 1].as_bytes());
            w.push(next);
        }
        w.reverse();
        g.record_chain(
            id,
            ChainTerms {
                payee_cert: "/CN=gsp".into(),
                length: n,
                value_per_word: Credits::from_gd(1),
                paid: PayWord { index: 0, word: w[0] },
            },
        );
        w
    }

    #[test]
    fn partial_settlement_accumulates() {
        let (g, acc, a, p) = setup();
        let id = g.reserve(&a, Credits::from_gd(30)).unwrap();
        let w = chain(&g, id, 31);
        let word = |index: u32| PayWord { index, word: w[index as usize] };
        let pay = |index| g.settle_words(id, &word(index), "/CN=gsp", 0, || Ok(p), vec![]);
        assert_eq!(pay(10).unwrap(), Credits::from_gd(10));
        assert_eq!(pay(25).unwrap(), Credits::from_gd(15));
        // A replayed or lower index pays nothing.
        assert!(matches!(pay(25), Err(BankError::AlreadyRedeemed(_))));
        assert!(matches!(pay(3), Err(BankError::AlreadyRedeemed(_))));
        // A word that is not the chain's at its index is refused.
        let forged = PayWord { index: 26, word: w[27] };
        assert!(matches!(
            g.settle_words(id, &forged, "/CN=gsp", 0, || Ok(p), vec![]),
            Err(BankError::InvalidInstrument(_))
        ));
        // Exceeding the outstanding lock is refused.
        assert!(matches!(pay(31), Err(BankError::InsufficientLockedFunds { .. })));
        assert_eq!(g.get(id).unwrap().chain.unwrap().paid, word(25));
        // Final settle closes and releases the tail.
        let (paid, released) = g.settle(id, &p, Credits::ZERO, vec![]).unwrap();
        assert_eq!(paid, Credits::ZERO);
        assert_eq!(released, Credits::from_gd(5));
        assert_eq!(acc.account_details(&p).unwrap().available, Credits::from_gd(25));
        assert_eq!(acc.account_details(&a).unwrap().available, Credits::from_gd(75));
    }

    #[test]
    fn a_failed_payout_puts_back_the_old_word_with_its_index() {
        let (g, acc, a, p) = setup();
        let id = g.reserve(&a, Credits::from_gd(8)).unwrap();
        let w = chain(&g, id, 8);
        let word = |index: u32| PayWord { index, word: w[index as usize] };
        g.settle_words(id, &word(2), "/CN=gsp", 0, || Ok(p), vec![]).unwrap();
        // Paying the drawer's own locked funds to itself fails in the
        // accounts layer, after the claim.
        assert!(g.settle_words(id, &word(5), "/CN=gsp", 0, || Ok(a), vec![]).is_err());
        let r = g.get(id).unwrap();
        assert_eq!((r.chain.unwrap().paid, r.settled), (word(2), Credits::from_gd(2)));
        // The words it claimed are paid to the payee from the old word.
        assert_eq!(
            g.settle_words(id, &word(5), "/CN=gsp", 0, || Ok(p), vec![]).unwrap(),
            Credits::from_gd(3)
        );
        assert_eq!(acc.account_details(&p).unwrap().available, Credits::from_gd(5));
    }

    #[test]
    fn chain_words_go_only_to_the_payee_before_expiry() {
        let (g, _acc, a, p) = setup();
        let id = g.reserve_until(&a, Credits::from_gd(8), 100).unwrap();
        let w = chain(&g, id, 8);
        let one = PayWord { index: 1, word: w[1] };
        assert!(matches!(
            g.settle_words(id, &one, "/CN=gsc", 0, || Ok(a), vec![]),
            Err(BankError::NotAuthorized(_))
        ));
        assert!(matches!(
            g.settle_words(id, &one, "/CN=gsp", 100, || Ok(p), vec![]),
            Err(BankError::InvalidInstrument(m)) if m == "chain expired"
        ));
        assert!(matches!(
            g.settle_words(id + 1, &one, "/CN=gsp", 0, || Ok(p), vec![]),
            Err(BankError::InvalidInstrument(m)) if m.contains("no reservation")
        ));
        let cheque = g.reserve(&a, Credits::from_gd(1)).unwrap();
        assert!(matches!(
            g.settle_words(cheque, &one, "/CN=gsp", 0, || Ok(p), vec![]),
            Err(BankError::InvalidInstrument(_))
        ));
    }

    #[test]
    fn sweep_releases_only_overdue_open_reservations() {
        let (g, acc, a, p) = setup();
        let expired = g.reserve_until(&a, Credits::from_gd(10), 100).unwrap();
        let live = g.reserve_until(&a, Credits::from_gd(20), 1_000).unwrap();
        let settled = g.reserve_until(&a, Credits::from_gd(5), 100).unwrap();
        g.settle(settled, &p, Credits::from_gd(5), vec![]).unwrap();

        let swept = g.sweep_expired(100);
        assert_eq!(swept, vec![(expired, Credits::from_gd(10))]);
        // The live reservation is untouched; the settled one already
        // closed; the expired one cannot be settled afterwards.
        assert_eq!(acc.account_details(&a).unwrap().locked, Credits::from_gd(20));
        assert!(matches!(
            g.settle(expired, &p, Credits::from_gd(1), vec![]),
            Err(BankError::AlreadyRedeemed(_))
        ));
        g.settle(live, &p, Credits::from_gd(20), vec![]).unwrap();
        // Second sweep finds nothing.
        assert!(g.sweep_expired(10_000).is_empty());
    }

    #[test]
    fn concurrent_settlers_pay_exactly_once() {
        let (g, acc, a, p) = setup();
        let id = g.reserve(&a, Credits::from_gd(20)).unwrap();
        let successes = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let g = g.clone();
                let successes = &successes;
                s.spawn(move || {
                    if g.settle(id, &p, Credits::from_gd(20), vec![]).is_ok() {
                        successes.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(successes.load(std::sync::atomic::Ordering::Relaxed), 1);
        assert_eq!(acc.account_details(&p).unwrap().available, Credits::from_gd(20));
    }
}
