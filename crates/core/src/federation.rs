//! Wire-level multi-branch federation (§6 over RPC).
//!
//! Each [`crate::server::GridBank`] learns its branch id and a peer
//! directory (the [`FederationRouter`]), and cross-branch traffic
//! travels as typed wire messages over whichever link reaches the peer
//! (DESIGN.md §4 "Calling a bank" — a direct link federates banks inside
//! one process, a retry link federates live servers):
//!
//! * `IbCredit` — delivers the payee-side credit of a cross-branch
//!   payment. The sending branch debits the drawer into its clearing
//!   account and journals a [`PendingIbCredit`] **in the same commit
//!   batch**, then ships the credit under the durable idempotency key
//!   from that row. Crash, reconnect, and re-ship all collapse into
//!   exactly-once delivery via the receiver's dedup cache.
//! * `IbSettleProposal` / `IbSettleAck` — one §6 netting round for a
//!   branch pair. The proposer reports its gross outbound flow; each
//!   side drains its own clearing account; only the net difference
//!   crosses banks on the external rail.
//!
//! The pure arithmetic lives in [`NettingEngine`]; this module owns the
//! peer table, the durable re-ship queue, and the settlement daemon.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::sync::{Mutex, RwLock};

use gridbank_crypto::cert::SubjectName;
use gridbank_rur::Credits;

use crate::accounts::{GbAccounts, IdemKey};
use crate::admin::GbAdmin;
use crate::api::{BankRequest, BankResponse};
use crate::branch::{
    clearing_account_for, discover_clearing_accounts, NettingEngine, PairSettlement,
    SettlementReport, SETTLEMENT_ADMIN,
};
use crate::client::{BankClient, BankLink};
use crate::db::{AccountId, PendingIbCredit};
use crate::error::BankError;
use crate::port::DirectLink;
use crate::server::GridBank;

/// The settlement identity branch `branch` uses when calling a peer
/// (delivering credits, proposing settlements, forwarding reads). Peers
/// trust it for exactly those federation operations via
/// [`FederationRouter::add_peer`] — it is never an administrator.
pub fn settlement_identity(branch: u16) -> String {
    format!("/O=GridBank/OU=Settlement/CN=branch-{branch:04}")
}

/// A direct link into `bank` that calls as `origin_branch`'s settlement
/// identity — federates several banks inside one process without a
/// network (simulations, tests, the CLI's offline demos).
pub fn direct_peer(bank: &Arc<GridBank>, origin_branch: u16) -> DirectLink {
    DirectLink::new(Arc::clone(bank), SubjectName(settlement_identity(origin_branch)))
}

/// Federates `banks` inside one process: installs a router on each and
/// wires the full mesh over [`direct_peer`] links. Routers come back in
/// the order of `banks`.
pub fn direct_mesh(banks: &[Arc<GridBank>]) -> Vec<Arc<FederationRouter>> {
    let routers: Vec<_> = banks.iter().map(FederationRouter::install).collect();
    for (from, router) in banks.iter().zip(&routers) {
        for to in banks.iter().filter(|to| to.branch() != from.branch()) {
            router.add_peer(to.branch(), direct_peer(to, from.branch()));
        }
    }
    routers
}

/// One settlement round on every router of a mesh, pairs pooled — each
/// pair is settled by its lower branch's round.
pub fn settle_all(routers: &[Arc<FederationRouter>]) -> Result<SettlementReport, BankError> {
    let mut report = SettlementReport::default();
    for router in routers {
        report.pairs.extend(router.settle_once()?.pairs);
    }
    Ok(report)
}

/// The typed client toward one peer, behind a lock so the router can
/// call from any thread.
type PeerClient = Arc<Mutex<BankClient<Box<dyn BankLink + Send>>>>;

/// The branch-aware routing layer a federated [`GridBank`] consults for
/// any request whose target account lives on another branch, plus the
/// settlement machinery (outbound credit shipping, §6 netting rounds).
pub struct FederationRouter {
    local_branch: u16,
    accounts: GbAccounts,
    admin: GbAdmin,
    clearing: Mutex<HashMap<u16, AccountId>>,
    peers: RwLock<BTreeMap<u16, PeerClient>>,
    /// Settlement identities of federated peers — trusted to deliver
    /// `IbCredit`s and propose settlements here, and nothing else.
    /// Deliberately disjoint from the administrator set.
    peer_identities: RwLock<HashSet<String>>,
    /// Serializes settlement rounds on this router, so the daemon and a
    /// manual `settle` never interleave a pair's read-propose-withdraw.
    settle_lock: Mutex<()>,
}

impl FederationRouter {
    /// Builds a router over `bank`'s accounts stack and installs it, so
    /// the dispatcher starts routing foreign-branch requests through it.
    /// Existing clearing accounts (e.g. restored by journal replay) are
    /// rediscovered from the certificate index.
    pub fn install(bank: &Arc<GridBank>) -> Arc<FederationRouter> {
        bank.admin.add_admin(SETTLEMENT_ADMIN.to_string());
        let clearing = discover_clearing_accounts(&bank.accounts, bank.branch());
        let router = Arc::new(FederationRouter {
            local_branch: bank.branch(),
            accounts: bank.accounts.clone(),
            admin: bank.admin.clone(),
            clearing: Mutex::new(clearing),
            peers: RwLock::new(BTreeMap::new()),
            peer_identities: RwLock::new(HashSet::new()),
            settle_lock: Mutex::new(()),
        });
        bank.install_federation(Arc::clone(&router));
        router
    }

    /// This router's branch id.
    pub fn local_branch(&self) -> u16 {
        self.local_branch
    }

    /// Registers a route to `peer_branch` and trusts that branch's
    /// settlement identity to deliver credits and propose settlements
    /// here — a federation-scoped trust, deliberately narrower than the
    /// administrator set (a peer can never withdraw from or close member
    /// accounts).
    pub fn add_peer(&self, peer_branch: u16, link: impl BankLink + Send + 'static) {
        self.peer_identities.write().insert(settlement_identity(peer_branch));
        let client = BankClient::over(Box::new(link) as Box<dyn BankLink + Send>);
        self.peers.write().insert(peer_branch, Arc::new(Mutex::new(client)));
    }

    /// Whether `cert` is a federated peer branch's settlement identity.
    pub fn is_peer(&self, cert: &str) -> bool {
        self.peer_identities.read().contains(cert)
    }

    /// Known peer branch ids, ascending.
    pub fn peer_branches(&self) -> Vec<u16> {
        self.peers.read().keys().copied().collect()
    }

    /// Per-peer ops-plane health: clearing balance plus link
    /// reachability. A peer behind an `Open` breaker is currently being
    /// failed fast, not called — unreachable until its cooldown probe
    /// succeeds. Links without a breaker count as reachable.
    pub fn peer_health(&self) -> Vec<crate::api::PeerHealth> {
        self.peer_clients()
            .into_iter()
            .map(|(branch, client)| {
                let breaker = client.lock().breaker_state();
                crate::api::PeerHealth {
                    branch,
                    clearing: self.clearing_balance(branch),
                    reachable: breaker != Some("Open"),
                    breaker: breaker.map(str::to_string),
                }
            })
            .collect()
    }

    fn peer(&self, branch: u16) -> Result<PeerClient, BankError> {
        self.peers.read().get(&branch).cloned().ok_or(BankError::UnknownBranch(branch))
    }

    fn peer_clients(&self) -> Vec<(u16, PeerClient)> {
        self.peers.read().iter().map(|(b, c)| (*b, Arc::clone(c))).collect()
    }

    /// The clearing account this branch holds toward `peer` (created or
    /// rediscovered on first use).
    pub fn clearing_account(&self, peer: u16) -> Result<AccountId, BankError> {
        clearing_account_for(&mut self.clearing.lock(), &self.accounts, self.local_branch, peer)
    }

    /// Balance currently parked in the clearing account toward `peer`.
    pub fn clearing_balance(&self, peer: u16) -> Credits {
        self.clearing
            .lock()
            .get(&peer)
            .and_then(|id| self.accounts.account_details(id).ok())
            .map(|r| r.available)
            .unwrap_or(Credits::ZERO)
    }

    /// Parked value backing credits toward `peer` that the peer has not
    /// acknowledged yet — excluded from settlement drains so money never
    /// leaves before its credit is delivered.
    fn pending_toward(&self, peer: u16) -> Credits {
        self.accounts
            .db()
            .ib_pending_snapshot()
            .into_iter()
            .filter(|c| c.to.branch == peer)
            .fold(Credits::ZERO, |acc, c| acc.saturating_add(c.amount))
    }

    /// A durable, restart-unique key for an outbound credit: branch id
    /// in the high bits, a journal-replay-monotonic counter below.
    fn next_credit_key(&self) -> u64 {
        ((self.local_branch as u64) << 48) | self.accounts.db().allocate_transaction_id()
    }

    /// Forwards a read to the home branch of its target account.
    pub fn forward(&self, home: u16, request: &BankRequest) -> Result<BankResponse, BankError> {
        let client = self.peer(home)?;
        gridbank_obs::count("ib.forwarded", 1);
        let mut client = client.lock();
        client.call_keyed(None, request)
    }

    /// A cross-branch payment: debits `from` into the clearing account
    /// toward `to.branch` with the outbound credit journaled in the same
    /// commit batch, then ships the `IbCredit`. Returns the local
    /// transaction id.
    ///
    /// Failure handling: a typed rejection from the payee's branch
    /// reverses the clearing debit and fails the payment; an unreachable
    /// peer leaves the credit pending, to be re-shipped by
    /// [`FederationRouter::ship_pending`] — the payer's money is safe in
    /// clearing until delivery.
    pub fn cross_branch_transfer(
        &self,
        from: &AccountId,
        to: &AccountId,
        amount: Credits,
        rur_blob: Vec<u8>,
        idem: Option<IdemKey>,
    ) -> Result<u64, BankError> {
        let mut span = gridbank_obs::span("server.federation", "cross_branch_transfer");
        span.attr("home", to.branch.to_string());
        let client = self.peer(to.branch)?;
        let clearing = self.clearing_account(to.branch)?;
        let credit = PendingIbCredit {
            key: self.next_credit_key(),
            to: *to,
            amount,
            origin: self.local_branch,
            drawer: *from,
            idem: idem.as_ref().map(|k| (k.cert.clone(), k.key)),
        };
        let txid = self.accounts.transfer_with_ib_credit(
            from,
            &clearing,
            amount,
            rur_blob.clone(),
            idem,
            credit.clone(),
        )?;
        match self.ship_credit(&client, &credit, rur_blob) {
            Ok(()) => {}
            Err(BankError::Net(_)) => {
                // Peer unreachable after retries: the journaled pending
                // row keeps the credit alive for a later re-ship.
                gridbank_obs::count("ib.credit.stranded", 1);
                span.attr("delivery", "deferred");
            }
            Err(e) => {
                // The peer answered and said no (payee closed, not
                // authorized, ...): compensate the clearing debit and
                // drop the idem stamp that committed with it — a retry
                // under the same key must see this rejection, never the
                // stamped placeholder success.
                self.accounts.db().ib_ack(credit.key);
                self.accounts.transfer(&clearing, from, amount, Vec::new())?;
                if let Some((cert, key)) = &credit.idem {
                    self.accounts.db().idem_invalidate(cert, *key);
                }
                return Err(e);
            }
        }
        gridbank_obs::count("ib.transfers", 1);
        gridbank_obs::count("ib.transfers_micro", amount.metric_micro());
        Ok(txid)
    }

    /// Delivers one credit and acknowledges it on success.
    fn ship_credit(
        &self,
        client: &PeerClient,
        credit: &PendingIbCredit,
        rur_blob: Vec<u8>,
    ) -> Result<(), BankError> {
        client.lock().ib_credit(credit.key, credit.to, credit.amount, credit.origin, rur_blob)?;
        self.accounts.db().ib_ack(credit.key);
        Ok(())
    }

    /// Re-ships every unacknowledged outbound credit (crash recovery and
    /// partition healing). Receiver-side dedup under the durable key
    /// makes repeats harmless. Returns how many deliveries succeeded.
    pub fn ship_pending(&self) -> usize {
        let mut shipped = 0usize;
        for credit in self.accounts.db().ib_pending_snapshot() {
            let Ok(client) = self.peer(credit.to.branch) else { continue };
            match self.ship_credit(&client, &credit, Vec::new()) {
                Ok(()) => shipped = shipped.saturating_add(1),
                Err(BankError::Net(_)) => {}
                Err(_) => {
                    // A typed rejection on a re-ship (payee closed
                    // between crash and recovery, ...): compensate the
                    // payer exactly like the synchronous rejection path
                    // would have, instead of letting the parked value
                    // drain away at the next settlement.
                    gridbank_obs::count("ib.credit.rejected", 1);
                    if self.accounts.db().ib_ack(credit.key) {
                        self.refund_rejected(&credit);
                    }
                }
            }
        }
        shipped
    }

    /// Compensates a rejected outbound credit once its pending row is
    /// acked: the parked value returns to the drawer — or, if the drawer
    /// is gone too, parks in the branch's suspense account for operator
    /// resolution — and the payment's idem stamp is invalidated so the
    /// payer's retry re-attempts instead of reading a stale success.
    fn refund_rejected(&self, credit: &PendingIbCredit) {
        let refunded = self.clearing_account(credit.to.branch).and_then(|clearing| {
            self.accounts.transfer(&clearing, &credit.drawer, credit.amount, Vec::new()).or_else(
                |_| {
                    let suspense = self.suspense_account()?;
                    self.accounts.transfer(&clearing, &suspense, credit.amount, Vec::new())
                },
            )
        });
        if refunded.is_err() {
            gridbank_obs::count("ib.credit.refund_failed", 1);
        }
        if let Some((cert, key)) = &credit.idem {
            self.accounts.db().idem_invalidate(cert, *key);
        }
    }

    /// The branch's suspense account (created or rediscovered on first
    /// use): absorbs compensation value whose original owner is
    /// unreachable, keeping conservation intact until an operator
    /// resolves it.
    fn suspense_account(&self) -> Result<AccountId, BankError> {
        let cert = format!("/O=GridBank/OU=Suspense/CN=branch-{:04}", self.local_branch);
        match self.accounts.account_by_cert(&cert) {
            Ok(record) => Ok(record.id),
            Err(_) => self.accounts.create_account(&cert, None),
        }
    }

    /// Applies an inbound `IbCredit`: credits the payee against the
    /// origin branch's liability. The dispatcher has already checked the
    /// caller against [`FederationRouter::is_peer`]; the deposit itself
    /// runs under the local settlement administrator, so peers never
    /// need (and never hold) administrator rights here.
    pub fn apply_ib_credit(
        &self,
        to: &AccountId,
        amount: Credits,
        origin_branch: u16,
    ) -> Result<u64, BankError> {
        // Ensure the mirrored clearing account exists: it absorbs this
        // branch's own outbound flow toward the origin at settlement.
        self.clearing_account(origin_branch)?;
        let txid = self.admin.deposit(SETTLEMENT_ADMIN, to, amount)?;
        gridbank_obs::count("ib.credits_applied", 1);
        Ok(txid)
    }

    /// Answers an inbound `IbSettleProposal` from `origin_branch`: drains
    /// this branch's delivered clearing balance toward the origin and
    /// reports it as the gross return flow.
    pub fn apply_settle_proposal(&self, origin_branch: u16) -> Result<Credits, BankError> {
        let clearing = self.clearing_account(origin_branch)?;
        let parked = self.accounts.account_details(&clearing)?.available;
        let gross_back = parked.saturating_add(self.pending_toward(origin_branch).negated());
        if gross_back.is_positive() {
            self.admin.withdraw(SETTLEMENT_ADMIN, &clearing, gross_back)?;
        }
        Ok(if gross_back.is_positive() { gross_back } else { Credits::ZERO })
    }

    /// One §6 netting round over RPC: re-ships stranded credits, then
    /// proposes a settlement to every peer *this router is the proposer
    /// for*, draining both sides' clearing accounts so only the net
    /// difference crosses banks.
    ///
    /// Exactly one side proposes per pair — the lower branch id — so two
    /// concurrent daemons can never both act as proposer and race each
    /// other's read-propose-withdraw on the same pair (the higher side's
    /// clearing drains inside its
    /// [`FederationRouter::apply_settle_proposal`]). A round never
    /// aborts mid-loop: a failing pair is counted
    /// (`ib.settle.peer_errors`) and retried next round.
    pub fn settle_once(&self) -> Result<SettlementReport, BankError> {
        let mut span = gridbank_obs::span("server.federation", "settle_once");
        let _round = self.settle_lock.lock();
        self.ship_pending();
        let mut report = SettlementReport::default();
        for (peer_branch, client) in self.peer_clients() {
            if peer_branch < self.local_branch {
                continue; // the peer proposes for this pair
            }
            match self.settle_pair(peer_branch, &client) {
                Ok(Some(pair)) => {
                    gridbank_obs::count(
                        "ib.settle.gross",
                        pair.gross_a_to_b.saturating_add(pair.gross_b_to_a).metric_micro(),
                    );
                    gridbank_obs::count("ib.settle.net", pair.net.abs().metric_micro());
                    gridbank_obs::count("ib.settle.rounds", 1);
                    report.pairs.push(pair);
                }
                Ok(None) => {}
                Err(BankError::Net(_)) => {} // peer down: settle next round
                Err(_) => {
                    gridbank_obs::count("ib.settle.peer_errors", 1);
                }
            }
        }
        span.attr("pairs", report.pairs.len().to_string());
        Ok(report)
    }

    /// The proposer's side of one pair's netting round.
    fn settle_pair(
        &self,
        peer_branch: u16,
        client: &PeerClient,
    ) -> Result<Option<PairSettlement>, BankError> {
        let clearing = self.clearing_account(peer_branch)?;
        let parked = self.accounts.account_details(&clearing)?.available;
        let gross_out = parked.saturating_add(self.pending_toward(peer_branch).negated());
        let gross_out = if gross_out.is_positive() { gross_out } else { Credits::ZERO };
        let key = self.next_credit_key();
        let ack = client.lock().ib_settle_proposal(key, self.local_branch, gross_out)?;
        if gross_out.is_positive() {
            self.admin.withdraw(SETTLEMENT_ADMIN, &clearing, gross_out)?;
        }
        if !gross_out.is_positive() && !ack.is_positive() {
            return Ok(None);
        }
        Ok(Some(NettingEngine::pair(self.local_branch, peer_branch, gross_out, ack)))
    }

    /// Per-pair settlement preview without draining anything: the pairs
    /// a settlement round *would* produce from current clearing
    /// balances. Diagnostics (`gridbank branches`).
    pub fn settlement_preview(&self) -> Vec<PairSettlement> {
        self.peer_branches()
            .into_iter()
            .map(|peer| {
                NettingEngine::pair(
                    self.local_branch,
                    peer,
                    self.clearing_balance(peer),
                    Credits::ZERO,
                )
            })
            .collect()
    }

    /// Starts the settlement daemon: a thread running
    /// [`FederationRouter::settle_once`] every `interval` until the
    /// returned handle is dropped.
    pub fn start_daemon(self: &Arc<Self>, interval: Duration) -> SettlementDaemon {
        let router = Arc::clone(self);
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            while !stop_flag.load(Ordering::Relaxed) {
                std::thread::park_timeout(interval);
                if stop_flag.load(Ordering::Relaxed) {
                    break;
                }
                if router.settle_once().is_err() {
                    gridbank_obs::count("ib.settle.daemon_errors", 1);
                }
            }
        });
        SettlementDaemon { stop, handle: Some(handle) }
    }
}

/// Handle to the periodic settlement thread; dropping it stops the
/// daemon and joins the thread.
pub struct SettlementDaemon {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Drop for SettlementDaemon {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            handle.thread().unpark();
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Clock;
    use crate::port::InProcessBank;
    use crate::server::{GateMode, GridBankConfig};

    const ADMIN: &str = "/O=GridBank/OU=Admin/CN=operator";

    fn config(branch: u16) -> GridBankConfig {
        GridBankConfig {
            branch,
            signer_height: 6,
            gate_mode: GateMode::AllowEnrollment,
            ..GridBankConfig::default()
        }
    }

    /// Branches `1..=n` in one process, fully meshed over direct links.
    fn federated_mesh(n: u16) -> Vec<(Arc<GridBank>, Arc<FederationRouter>)> {
        let clock = Clock::new();
        let banks: Vec<_> =
            (1..=n).map(|b| Arc::new(GridBank::new(config(b), clock.clone()))).collect();
        let routers = direct_mesh(&banks);
        banks.into_iter().zip(routers).collect()
    }

    fn federated_pair(
    ) -> (Arc<GridBank>, Arc<GridBank>, Arc<FederationRouter>, Arc<FederationRouter>) {
        let mut mesh = federated_mesh(2);
        let (b, rb) = mesh.pop().unwrap();
        let (a, ra) = mesh.pop().unwrap();
        (a, b, ra, rb)
    }

    /// [`federated_pair`] with branch 1 on a scratch store; [`revive`] on
    /// that store is branch 1 after a crash (the first bank lingers in
    /// the mesh's `Arc` cycle, as a killed process's files would).
    fn durable_pair(
        tag: &str,
    ) -> (crate::store::StoreConfig, Arc<GridBank>, Arc<GridBank>, Arc<FederationRouter>) {
        let (store, clock) = (crate::store::StoreConfig::scratch(tag), Clock::new());
        let (a, _) = GridBank::open_durable(config(1), clock.clone(), store.clone()).unwrap();
        let banks = [Arc::new(a), Arc::new(GridBank::new(config(2), clock))];
        let ra = direct_mesh(&banks).swap_remove(0);
        let [a, b] = banks;
        (store, a, b, ra)
    }

    fn revive(store: crate::store::StoreConfig) -> Arc<GridBank> {
        Arc::new(GridBank::open_durable(config(1), Clock::new(), store).unwrap().0)
    }

    fn open_funded(bank: &GridBank, cert: &str, gd: i64) -> AccountId {
        let id = bank.accounts.create_account(cert, None).unwrap();
        if gd > 0 {
            bank.admin.deposit(ADMIN, &id, Credits::from_gd(gd)).unwrap();
        }
        id
    }

    #[test]
    fn cross_branch_transfer_credits_payee_and_acks() {
        let (a, b, ra, _rb) = federated_pair();
        let alice = open_funded(&a, "/CN=alice", 100);
        let gsp = open_funded(&b, "/CN=gsp", 0);
        ra.cross_branch_transfer(&alice, &gsp, Credits::from_gd(30), vec![], None).unwrap();
        assert_eq!(a.accounts.account_details(&alice).unwrap().available, Credits::from_gd(70));
        assert_eq!(b.accounts.account_details(&gsp).unwrap().available, Credits::from_gd(30));
        assert_eq!(ra.clearing_balance(2), Credits::from_gd(30));
        // Delivered: nothing pending for re-ship.
        assert!(a.accounts.db().ib_pending_snapshot().is_empty());
    }

    #[test]
    fn settle_round_nets_and_zeroes_clearing() {
        let (a, b, ra, rb) = federated_pair();
        let alice = open_funded(&a, "/CN=alice", 100);
        let gsp = open_funded(&b, "/CN=gsp", 50);
        ra.cross_branch_transfer(&alice, &gsp, Credits::from_gd(30), vec![], None).unwrap();
        rb.cross_branch_transfer(&gsp, &alice, Credits::from_gd(12), vec![], None).unwrap();

        let report = ra.settle_once().unwrap();
        assert_eq!(report.pairs.len(), 1);
        let p = &report.pairs[0];
        assert_eq!(p.gross_a_to_b, Credits::from_gd(30));
        assert_eq!(p.gross_b_to_a, Credits::from_gd(12));
        assert_eq!(p.net, Credits::from_gd(18));
        assert_eq!(report.total_gross(), Credits::from_gd(42));
        assert_eq!(report.total_net(), Credits::from_gd(18));
        assert_eq!(ra.clearing_balance(2), Credits::ZERO);
        assert_eq!(rb.clearing_balance(1), Credits::ZERO);
        // Nothing left: a second round settles no pairs.
        assert!(ra.settle_once().unwrap().pairs.is_empty());
        assert!(rb.settle_once().unwrap().pairs.is_empty());
        // Global books: 150 initial, minted 42 at delivery, drained 42.
        let total = a.total_funds().saturating_add(b.total_funds());
        assert_eq!(total, Credits::from_gd(150));
    }

    #[test]
    fn typed_rejection_compensates_the_drawer() {
        let (a, b, ra, _rb) = federated_pair();
        let alice = open_funded(&a, "/CN=alice", 100);
        // Payee account never opened on branch 2.
        let ghost = AccountId::new(1, 2, 999);
        let err = ra.cross_branch_transfer(&alice, &ghost, Credits::from_gd(10), vec![], None);
        assert!(err.is_err());
        assert_eq!(a.accounts.account_details(&alice).unwrap().available, Credits::from_gd(100));
        assert_eq!(ra.clearing_balance(2), Credits::ZERO);
        assert!(a.accounts.db().ib_pending_snapshot().is_empty());
        assert_eq!(b.total_funds(), Credits::ZERO);
    }

    #[test]
    fn settlement_identity_is_stable() {
        assert_eq!(settlement_identity(3), "/O=GridBank/OU=Settlement/CN=branch-0003");
    }

    #[test]
    fn rejected_payment_is_not_remembered_as_success() {
        let (store, a, _b, _ra) = durable_pair("fed-stamp");
        let mut payer = InProcessBank::new(Arc::clone(&a), SubjectName("/CN=alice".into()));
        let alice = open_funded(&a, "/CN=alice", 100);
        let pay = BankRequest::DirectTransfer {
            to: AccountId::new(1, 2, 999),
            amount: Credits::from_gd(10),
            recipient_address: "ghost.grid.org".into(),
        };
        assert!(payer.call_keyed(Some(42), &pay).is_err());
        // The stamp committed with the clearing debit must not survive
        // the compensation: a retry re-attempts and sees the rejection,
        // never a cached success for a refunded payment.
        assert!(payer.call_keyed(Some(42), &pay).is_err());
        assert!(a.accounts.db().idem_lookup("/CN=alice", 42).is_none());
        assert_eq!(a.accounts.account_details(&alice).unwrap().available, Credits::from_gd(100));
        // Crash recovery cannot resurrect the stamp either.
        assert!(revive(store).accounts.db().idem_lookup("/CN=alice", 42).is_none());
    }

    #[test]
    fn reship_rejection_refunds_drawer_and_drops_stamp() {
        struct SwitchPeer {
            inner: DirectLink,
            down: Arc<AtomicBool>,
        }
        impl BankLink for SwitchPeer {
            fn call_keyed(
                &mut self,
                key: Option<u64>,
                request: &BankRequest,
            ) -> Result<BankResponse, BankError> {
                if self.down.load(Ordering::Relaxed) {
                    return Err(BankError::Net(gridbank_net::NetError::Disconnected));
                }
                self.inner.call_keyed(key, request)
            }
        }

        let (a, b, ra, _rb) = federated_pair();
        let mut payer = InProcessBank::new(Arc::clone(&a), SubjectName("/CN=alice".into()));
        let alice = open_funded(&a, "/CN=alice", 100);
        let down = Arc::new(AtomicBool::new(true));
        ra.add_peer(2, SwitchPeer { inner: direct_peer(&b, 1), down: Arc::clone(&down) });
        // Wire down: the payment confirms locally and the credit strands.
        let pay = BankRequest::DirectTransfer {
            to: AccountId::new(1, 2, 999),
            amount: Credits::from_gd(10),
            recipient_address: "ghost.grid.org".into(),
        };
        assert!(payer.call_keyed(Some(7), &pay).is_ok());
        assert_eq!(a.accounts.db().ib_pending_snapshot().len(), 1);
        assert!(a.accounts.db().idem_lookup("/CN=alice", 7).is_some());
        // Wire heals; the re-ship is rejected (the payee never existed):
        // the drawer gets the parked value back instead of losing it to
        // the next settlement drain, and the stale success stamp goes.
        down.store(false, Ordering::Relaxed);
        assert_eq!(ra.ship_pending(), 0);
        assert!(a.accounts.db().ib_pending_snapshot().is_empty());
        assert_eq!(a.accounts.account_details(&alice).unwrap().available, Credits::from_gd(100));
        assert_eq!(ra.clearing_balance(2), Credits::ZERO);
        assert!(a.accounts.db().idem_lookup("/CN=alice", 7).is_none());
        assert_eq!(b.total_funds(), Credits::ZERO);
    }

    #[test]
    fn peer_identity_is_never_an_admin() {
        let (a, _b, ra, _rb) = federated_pair();
        let victim = open_funded(&a, "/CN=victim", 50);
        assert!(ra.is_peer(&settlement_identity(2)));
        assert!(!a.admin.is_admin(&settlement_identity(2)));
        let mut peer = InProcessBank::new(Arc::clone(&a), SubjectName(settlement_identity(2)));
        assert!(matches!(
            peer.admin_withdraw(victim, Credits::from_gd(50)),
            Err(BankError::NotAuthorized(_))
        ));
        assert_eq!(a.accounts.account_details(&victim).unwrap().available, Credits::from_gd(50));
    }

    #[test]
    fn only_the_lower_branch_proposes() {
        let (a, b, ra, rb) = federated_pair();
        let alice = open_funded(&a, "/CN=alice", 100);
        let gsp = open_funded(&b, "/CN=gsp", 50);
        ra.cross_branch_transfer(&alice, &gsp, Credits::from_gd(30), vec![], None).unwrap();
        rb.cross_branch_transfer(&gsp, &alice, Credits::from_gd(12), vec![], None).unwrap();
        // The higher branch never acts as proposer: its round settles no
        // pairs and leaves its own clearing intact.
        assert!(rb.settle_once().unwrap().pairs.is_empty());
        assert_eq!(rb.clearing_balance(1), Credits::from_gd(12));
        // Concurrent rounds from both sides settle the pair exactly once.
        let (from_a, from_b) = std::thread::scope(|s| {
            let ha = s.spawn(|| ra.settle_once().unwrap());
            let hb = s.spawn(|| rb.settle_once().unwrap());
            (ha.join().unwrap(), hb.join().unwrap())
        });
        assert!(from_b.pairs.is_empty());
        assert_eq!(from_a.pairs.len(), 1);
        assert_eq!(from_a.pairs[0].net, Credits::from_gd(18));
        assert_eq!(ra.clearing_balance(2), Credits::ZERO);
        assert_eq!(rb.clearing_balance(1), Credits::ZERO);
        let total = a.total_funds().saturating_add(b.total_funds());
        assert_eq!(total, Credits::from_gd(150));
    }

    #[test]
    fn same_branch_and_unknown_branch_rejected() {
        let (a, _b, ra, _rb) = federated_pair();
        let alice = open_funded(&a, "/CN=alice", 100);
        let bob = open_funded(&a, "/CN=bob", 0);
        // A router has no route to itself: same-branch payments belong
        // on the local path.
        assert!(matches!(
            ra.cross_branch_transfer(&alice, &bob, Credits::from_gd(1), vec![], None),
            Err(BankError::UnknownBranch(1))
        ));
        let ghost = AccountId::new(1, 9, 1);
        assert!(matches!(
            ra.cross_branch_transfer(&alice, &ghost, Credits::from_gd(1), vec![], None),
            Err(BankError::UnknownBranch(9))
        ));
        assert_eq!(a.accounts.account_details(&alice).unwrap().available, Credits::from_gd(100));
    }

    #[test]
    fn insufficient_funds_fail_before_any_remote_effect() {
        let (a, b, ra, rb) = federated_pair();
        let alice = open_funded(&a, "/CN=alice", 100);
        let gsp = open_funded(&b, "/CN=gsp", 10);
        let err = ra.cross_branch_transfer(&alice, &gsp, Credits::from_gd(101), vec![], None);
        assert!(matches!(err, Err(BankError::InsufficientFunds { .. })));
        assert_eq!(b.accounts.account_details(&gsp).unwrap().available, Credits::from_gd(10));
        assert!(a.accounts.db().ib_pending_snapshot().is_empty());
        assert!(ra.settle_once().unwrap().pairs.is_empty());
        assert!(rb.settle_once().unwrap().pairs.is_empty());
    }

    #[test]
    fn clearing_accounts_rediscovered_after_replay() {
        let (store, a, b, ra) = durable_pair("fed-clearing");
        let alice = open_funded(&a, "/CN=alice", 100);
        let gsp = open_funded(&b, "/CN=gsp", 10);
        ra.cross_branch_transfer(&alice, &gsp, Credits::from_gd(30), vec![], None).unwrap();

        // "Crash" branch 1: reopen its store.
        let revived = revive(store);
        let count_before = revived.accounts.db().account_count();
        let router = FederationRouter::install(&revived);
        // The parked balance is visible again without any lazy creation…
        assert_eq!(router.clearing_balance(2), Credits::from_gd(30));
        // …and asking for the clearing account reuses the replayed row
        // instead of erroring on the duplicate certificate.
        let id = router.clearing_account(2).unwrap();
        assert_eq!(revived.accounts.account_details(&id).unwrap().available, Credits::from_gd(30));
        assert_eq!(revived.accounts.db().account_count(), count_before);
    }

    #[test]
    fn three_branch_ring_settles_pairwise() {
        let mesh = federated_mesh(3);
        let accounts: Vec<AccountId> = mesh
            .iter()
            .enumerate()
            .map(|(i, (bank, _))| open_funded(bank, &format!("/CN=p{i}"), 50))
            .collect();
        // Ring payments of equal value: every pair nets to the ring value.
        for i in 0..3 {
            let (from, to) = (accounts[i], accounts[(i + 1) % 3]);
            mesh[i]
                .1
                .cross_branch_transfer(&from, &to, Credits::from_gd(10), vec![], None)
                .unwrap();
        }
        let routers: Vec<_> = mesh.iter().map(|(_, router)| Arc::clone(router)).collect();
        let report = settle_all(&routers).unwrap();
        assert_eq!(report.pairs.len(), 3);
        assert_eq!(report.total_gross(), Credits::from_gd(30));
        // Pairwise netting can't cancel a ring: each pair still moves 10.
        assert_eq!(report.total_net(), Credits::from_gd(30));
        // Everyone ends where they started.
        for ((bank, _), id) in mesh.iter().zip(&accounts) {
            assert_eq!(bank.accounts.account_details(id).unwrap().available, Credits::from_gd(50));
        }
        let total: Credits = mesh.iter().map(|(bank, _)| bank.total_funds()).sum();
        assert_eq!(total, Credits::from_gd(150));
    }

    #[test]
    fn peer_health_reports_the_links_breaker() {
        use crate::resilient::ResilientBankClient;
        use gridbank_net::retry::RetryPolicy;

        let (_a, _b, ra, _rb) = federated_pair();
        let unreachable = ResilientBankClient::new(
            Box::new(|| Err(BankError::Net(gridbank_net::NetError::Disconnected))),
            RetryPolicy {
                base_delay_ms: 1,
                max_delay_ms: 1,
                max_attempts: 1,
                deadline_ms: 1,
                seed: 1,
            },
            Clock::new(),
            1,
        );
        ra.add_peer(3, unreachable.into_link());
        let health = ra.peer_health();
        // A direct link has no breaker; a retry link starts Closed.
        assert_eq!((health[0].branch, health[0].breaker.as_deref()), (2, None));
        assert_eq!((health[1].branch, health[1].breaker.as_deref()), (3, Some("Closed")));
        assert!(health.iter().all(|h| h.reachable));
    }
}
