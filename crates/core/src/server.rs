//! The GridBank server: the assembled bank plus its network front-end.
//!
//! [`GridBank`] wires the layers of Figure 3 together — database, GB
//! Accounts, GB Admin, the three payment protocol modules, the §4 model
//! helpers — behind a single [`GridBank::handle`] dispatcher whose caller
//! identity always comes from the authenticated channel.
//!
//! [`GridBankServer`] is the GB Security Protocol module in action: it
//! accepts connections, runs the GSS-style mutual handshake, applies the
//! §3.2 connection gate ("If the subject name appears either in the
//! accounts or in administrator tables, then the client is authorized to
//! establish a connection. Otherwise connection is refused"), and serves
//! the RPC loop per connection.
//!
//! Request execution is **pipelined**: each connection keeps a cheap
//! reader thread that decodes frames and submits them to a shared,
//! bounded worker pool ([`ServerTuning`]); workers run the bank dispatch
//! and send each result through the connection's `ResponseWriter` as
//! soon as it is ready. A full job queue blocks the readers —
//! backpressure instead of unbounded thread growth.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use crate::sync::{
    rank, AtomicBool, AtomicU64, Condvar, Mutex, OrderedMutex, OrderedRwLock, Ordering,
};

use gridbank_crypto::cert::{Certificate, SubjectName};
use gridbank_crypto::keys::{KeyMaterial, SigningIdentity, VerifyingKey};
use gridbank_crypto::rng::DeterministicStream;
use gridbank_net::gate::{AdmissionDecision, ConnectionGate};
use gridbank_net::rpc::RpcServer;
use gridbank_net::transport::{Address, Network};
use gridbank_net::{server_handshake, HandshakeConfig, NetError};
use gridbank_rur::codec::{Decode, Encode};
use gridbank_rur::record::ChargeableItem;
use gridbank_rur::record::UsageAmount;
use gridbank_rur::Credits;

use crate::accounts::GbAccounts;
use crate::admin::GbAdmin;
use crate::api::{error_kind, BankRequest, BankResponse};
use crate::cheque::ChequeOffice;
use crate::clock::Clock;
use crate::db::{AccountId, Database};
use crate::error::BankError;
use crate::guarantee::FundsGuarantee;
use crate::payword::PayWordOffice;
use crate::pricing::{PriceEstimator, ResourceDescription};

/// How the connection gate treats subjects without accounts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GateMode {
    /// Exactly the paper's §3.2 rule: unknown subjects are refused at the
    /// handshake; accounts must be opened by an administrator.
    Strict,
    /// Unknown subjects may connect but can only call `CreateAccount`
    /// (self-enrollment); everything else answers NotAuthorized.
    AllowEnrollment,
}

/// GridBank construction parameters.
#[derive(Clone, Debug)]
pub struct GridBankConfig {
    /// Bank number for issued account ids.
    pub bank: u16,
    /// Branch number (one per VO, §6).
    pub branch: u16,
    /// Administrator certificate names.
    pub admins: Vec<String>,
    /// Operations-plane administrator certificate names: trusted to read
    /// telemetry, health, and traces via [`BankRequest::OpsQuery`], and
    /// nothing more (deliberately *not* account administrators).
    pub ops_admins: Vec<String>,
    /// Seed for the bank's signing identity and chain secrets.
    pub key_material: KeyMaterial,
    /// MSS tree height: the bank can sign `2^height` instruments/
    /// handshakes before re-keying.
    pub signer_height: usize,
    /// Gate behaviour for unknown subjects.
    pub gate_mode: GateMode,
    /// Bound on the idempotency dedup cache (exactly-once retries).
    /// 0 disables deduplication — chaos tests use that to prove their
    /// double-charge assertions have teeth.
    pub idem_capacity: usize,
    /// Group-commit tuning for the write-ahead journal (`max_batch <= 1`
    /// turns grouping off).
    pub group_commit: crate::db::GroupCommitConfig,
}

impl Default for GridBankConfig {
    fn default() -> Self {
        GridBankConfig {
            bank: 1,
            branch: 1,
            admins: vec!["/O=GridBank/OU=Admin/CN=operator".into()],
            ops_admins: Vec::new(),
            key_material: KeyMaterial { seed: 0xB4A2 },
            signer_height: 12,
            gate_mode: GateMode::AllowEnrollment,
            idem_capacity: crate::db::DEFAULT_IDEM_CAPACITY,
            group_commit: crate::db::GroupCommitConfig::default(),
        }
    }
}

/// The assembled bank.
pub struct GridBank {
    /// Accounts layer.
    pub accounts: GbAccounts,
    /// Admin layer.
    pub admin: GbAdmin,
    /// Guarantee registry (§3.4).
    pub guarantee: FundsGuarantee,
    /// The bank's signing identity (cheques, chains, confirmations,
    /// handshakes).
    pub signer: Arc<SigningIdentity>,
    /// Wall time spent generating `signer`'s tree when the bank was built.
    keygen_ms: i64,
    /// §4.2 price estimator.
    pub estimator: PriceEstimator,
    clock: Clock,
    config: GridBankConfig,
    chain_secrets: Mutex<DeterministicStream>,
    descriptions: OrderedRwLock<HashMap<String, ResourceDescription>>,
    /// Idempotency keys currently being applied. With pipelining, two
    /// requests carrying the same key can reach workers concurrently;
    /// the duplicate waits here until the original finishes, then hits
    /// the dedup cache instead of re-applying.
    in_flight_keys: Mutex<HashSet<(String, u64)>>,
    key_released: Condvar,
    /// Branch-aware routing (§6 federation). `None` means standalone:
    /// foreign-branch requests answer `NotHomeBranch` redirects.
    federation: OrderedRwLock<Option<Arc<crate::federation::FederationRouter>>>,
    /// Certificates trusted for the ops plane (`OpsQuery`).
    ops_admins: OrderedRwLock<HashSet<String>>,
    /// Live front-end statistics feeding health reports; installed by
    /// [`GridBankServer::start_tuned`], absent for in-process banks.
    ops_source: OrderedRwLock<Option<Arc<dyn OpsSource>>>,
}

/// The canonical certificate name for an ops-plane administrator, the
/// federation's `OU=Ops` naming convention (mirrors the settlement
/// identities of `crate::federation`).
pub fn ops_identity(name: &str) -> String {
    format!("/O=GridBank/OU=Ops/CN={name}")
}

/// Live statistics the network front-end exposes to the ops plane.
///
/// [`GridBank`] itself can report journal and federation health, but
/// worker-pool saturation and connection counts live in the server; the
/// server installs an implementation via
/// [`GridBank::install_ops_source`].
pub trait OpsSource: Send + Sync {
    /// Worker threads currently executing a request.
    fn workers_busy(&self) -> u32;
    /// Worker threads in the pool.
    fn workers_total(&self) -> u32;
    /// Connections currently live.
    fn connections(&self) -> u32;
}

impl GridBank {
    /// Builds a bank from configuration and a shared clock.
    pub fn new(config: GridBankConfig, clock: Clock) -> Self {
        let db = Arc::new(Database::new(config.bank, config.branch));
        Self::with_database(config, clock, db)
    }

    /// Opens (or creates) a bank backed by the on-disk store at
    /// `store.dir` — durable mode. Recovery loads the newest valid
    /// snapshot and replays only the journal tail past it
    /// (docs/STORAGE.md §5); the returned report says how much. Account
    /// state, audit rows, *and consumed idempotency keys* are restored,
    /// so a client retrying a request the pre-crash bank already applied
    /// still gets the original (deduplicated) outcome. All subsequent
    /// commits write through to disk via the group-commit queue, and the
    /// server checkpoints whenever the log is `store.snapshot_every`
    /// entries past the newest snapshot.
    pub fn open_durable(
        config: GridBankConfig,
        clock: Clock,
        store: crate::store::StoreConfig,
    ) -> Result<(Self, crate::store::RecoveryReport), BankError> {
        let (db, report) = Database::open(config.bank, config.branch, store)?;
        Ok((Self::with_database(config, clock, Arc::new(db)), report))
    }

    fn with_database(config: GridBankConfig, clock: Clock, db: Arc<Database>) -> Self {
        db.set_idem_capacity(config.idem_capacity);
        db.set_group_commit(config.group_commit);
        let accounts = GbAccounts::new(db, clock.clone());
        let admin = GbAdmin::new(accounts.clone(), config.admins.iter().cloned());
        let guarantee = FundsGuarantee::new(accounts.clone());
        let keygen = Instant::now();
        let signer = Arc::new(SigningIdentity::generate_with_height(
            config.key_material,
            &format!("gridbank-{}-{}", config.bank, config.branch),
            config.signer_height,
        ));
        let keygen_ms = keygen.elapsed().as_millis() as i64;
        let chain_secrets = Mutex::new(DeterministicStream::from_u64(
            config.key_material.seed ^ 0x5EC2E75,
            b"gridbank-chain-secrets",
        ));
        let ops_admins = OrderedRwLock::new(
            rank::OPS_ADMINS,
            "ops-admins",
            config.ops_admins.iter().cloned().collect(),
        );
        GridBank {
            accounts,
            admin,
            guarantee,
            signer,
            keygen_ms,
            estimator: PriceEstimator::new(),
            clock,
            config,
            chain_secrets,
            descriptions: OrderedRwLock::new(rank::DESCRIPTIONS, "descriptions", HashMap::new()),
            in_flight_keys: Mutex::new(HashSet::new()),
            key_released: Condvar::new(),
            federation: OrderedRwLock::new(rank::FEDERATION, "federation", None),
            ops_admins,
            ops_source: OrderedRwLock::new(rank::OPS_SOURCE, "ops-source", None),
        }
    }

    /// Installs the federation router; usually via
    /// [`crate::federation::FederationRouter::install`].
    pub fn install_federation(&self, router: Arc<crate::federation::FederationRouter>) {
        *self.federation.write() = Some(router);
    }

    /// The installed federation router, if any.
    pub fn federation(&self) -> Option<Arc<crate::federation::FederationRouter>> {
        self.federation.read().clone()
    }

    /// Whether `cert` is the settlement identity of a federated peer
    /// branch — trusted to deliver `IbCredit`s and propose settlements,
    /// and nothing more (deliberately *not* an administrator).
    pub fn is_federation_peer(&self, cert: &str) -> bool {
        self.federation().is_some_and(|r| r.is_peer(cert))
    }

    /// Whether `cert` may read the ops plane ([`BankRequest::OpsQuery`]).
    pub fn is_ops_admin(&self, cert: &str) -> bool {
        self.ops_admins.read().contains(cert)
    }

    /// Grants `cert` ops-plane access. Ops administrators can read
    /// telemetry, health, and traces; they hold no account privileges.
    pub fn add_ops_admin(&self, cert: impl Into<String>) {
        self.ops_admins.write().insert(cert.into());
    }

    /// Installs the front-end statistics feed for health reports;
    /// called by [`GridBankServer::start_tuned`].
    pub fn install_ops_source(&self, source: Arc<dyn OpsSource>) {
        *self.ops_source.write() = Some(source);
    }

    /// Assembles the structured health report the ops plane serves:
    /// journal lag, group-commit backlog, worker saturation, signing
    /// leaves left, and per-peer clearing balances with route
    /// reachability, classified into an overall
    /// [`crate::api::HealthState`].
    pub fn health_report(&self) -> crate::api::HealthReport {
        use crate::api::HealthState;
        let db = self.accounts.db();
        let journal_flush_lag = db.journal_flush_lag();
        let group_commit_queue = db.commit_queue_depth() as u64;
        let source = self.ops_source.read().clone();
        let (workers_busy, workers_total, connections) = match source {
            Some(src) => (src.workers_busy(), src.workers_total(), src.connections()),
            None => (0, 0, 0),
        };
        let peers = self.federation().map(|router| router.peer_health()).unwrap_or_default();
        // Classification: an unreachable peer branch means cross-branch
        // payments are failing now, so the branch is Unhealthy. A
        // saturated worker pool or a journal trailing by more than one
        // full commit group mean degraded service but nothing lost.
        let unreachable = peers.iter().any(|p| !p.reachable);
        let saturated = workers_total > 0 && workers_busy >= workers_total;
        let lagging = journal_flush_lag > db.group_commit().max_batch as u64;
        // The bank key is a finite supply of one-time leaves and an
        // exhausted one refuses every payment: below one fifth left the
        // operator still has time to roll the key.
        let signer_remaining = self.signer.remaining() as u64;
        let signer_capacity = self.signer.capacity() as u64;
        let signer_low = signer_remaining.saturating_mul(5) < signer_capacity;
        // A failed disk append means acknowledgements are no longer
        // crash-durable (docs/STORAGE.md §3.4) — Unhealthy, like an
        // unreachable peer: operators must act now.
        let disk_failed = !db.disk_healthy();
        let state = if unreachable || disk_failed {
            HealthState::Unhealthy
        } else if saturated || lagging || signer_low {
            HealthState::Degraded
        } else {
            HealthState::Healthy
        };
        crate::api::HealthReport {
            branch: self.config.branch,
            state,
            journal_flush_lag,
            group_commit_queue,
            workers_busy,
            workers_total,
            connections,
            signer_remaining,
            signer_capacity,
            peers,
        }
    }

    /// Routes a request targeting an account homed on `home`: forwarded
    /// over the federation when a router is installed, otherwise
    /// answered with a typed redirect the client can follow itself.
    fn forward_or_redirect(
        &self,
        home: u16,
        request: BankRequest,
    ) -> Result<BankResponse, BankError> {
        match self.federation() {
            Some(router) => router.forward(home, &request),
            None => Err(BankError::NotHomeBranch { home }),
        }
    }

    /// The bank's verifying key, which GSPs pin to validate instruments.
    pub fn verifying_key(&self) -> VerifyingKey {
        self.signer.verifying_key()
    }

    /// The shared clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The branch number.
    pub fn branch(&self) -> u16 {
        self.config.branch
    }

    /// Σ(available+locked) across every account — the conservation
    /// quantity chaos and property tests track.
    pub fn total_funds(&self) -> gridbank_rur::Credits {
        self.accounts.db().total_funds()
    }

    /// Snapshot of every account (chaos assertions, diagnostics).
    pub fn all_accounts(&self) -> Vec<crate::db::AccountRecord> {
        self.accounts.db().all_accounts()
    }

    /// Snapshot of every transfer row (double-apply detection).
    pub fn all_transfers(&self) -> Vec<crate::db::TransferRecord> {
        self.accounts.db().all_transfers()
    }

    fn cheque_office(&self) -> ChequeOffice<'_> {
        ChequeOffice {
            guarantee: &self.guarantee,
            signer: &self.signer,
            branch: self.config.branch,
        }
    }

    fn payword_office(&self) -> PayWordOffice<'_> {
        PayWordOffice {
            guarantee: &self.guarantee,
            signer: &self.signer,
            secrets: &self.chain_secrets,
        }
    }

    /// The §3.2 admission rule as a [`ConnectionGate`].
    pub fn gate(self: &Arc<Self>) -> BankGate {
        BankGate { bank: Arc::clone(self) }
    }

    /// Housekeeping pass: releases the locked funds behind every expired,
    /// unredeemed cheque or hash chain back to its drawer. Deployments
    /// run this periodically; simulations call it when the clock jumps.
    /// Returns the number of reservations released and the total value.
    pub fn sweep_expired_instruments(&self) -> (usize, Credits) {
        let mut span = gridbank_obs::span("server.payment", "sweep_expired");
        let released = self.guarantee.sweep_expired(self.clock.now_ms());
        let total = released.iter().fold(Credits::ZERO, |acc, (_, c)| acc.saturating_add(*c));
        span.attr("released", released.len().to_string());
        gridbank_obs::count("core.sweep.released_count", released.len() as u64);
        gridbank_obs::count("core.sweep.released_micro", total.metric_micro());
        (released.len(), total)
    }

    fn require_owner_or_admin(
        &self,
        caller_cert: &str,
        account: &AccountId,
    ) -> Result<(), BankError> {
        let record = self.accounts.account_details(account)?;
        if record.certificate_name == caller_cert || self.admin.is_admin(caller_cert) {
            Ok(())
        } else {
            Err(BankError::NotAuthorized(format!("`{caller_cert}` does not own account {account}")))
        }
    }

    /// Dispatches one request on behalf of an authenticated caller.
    pub fn handle(&self, caller: &SubjectName, request: BankRequest) -> BankResponse {
        self.handle_keyed(caller, None, request)
    }

    /// [`GridBank::handle`] with the request's idempotency key (if the
    /// wire frame carried one). A mutating request whose key was already
    /// consumed returns the remembered original response instead of
    /// re-applying — the exactly-once contract retried clients rely on.
    /// Keys never dedup reads, and error responses are never remembered
    /// (a failed attempt may legitimately succeed on retry).
    pub fn handle_keyed(
        &self,
        caller: &SubjectName,
        idem_key: Option<u64>,
        request: BankRequest,
    ) -> BankResponse {
        // Security layer: the caller's wire identity is resolved here, so
        // this span covers identity mapping plus everything dispatched.
        let variant = request.variant_name();
        let mut span = gridbank_obs::span("server.security", "handle");
        span.attr("request", variant.to_string());
        let timer = gridbank_obs::Stopwatch::start();
        gridbank_obs::count("rpc.server.requests", 1);
        let caller_cert = caller.base_identity().0;
        let keyed = idem_key.filter(|_| request.is_mutating());
        // Serialize same-key arrivals before the cache lookup: with
        // pipelined connections a duplicate can land on another worker
        // while the original is mid-apply, and must wait for its stamp.
        // The lock stage covers this serialization point for every
        // request — near-zero for unkeyed reads, visible when duplicate
        // keys contend.
        let lock_timer = gridbank_obs::Stopwatch::start();
        let _key_guard = keyed.map(|key| {
            let entry = (caller_cert.clone(), key);
            let mut in_flight = self.in_flight_keys.lock();
            while !in_flight.insert(entry.clone()) {
                gridbank_obs::count("core.idem.in_flight_wait", 1);
                self.key_released.wait(&mut in_flight);
            }
            KeyGuard { bank: self, entry }
        });
        lock_timer.record_named("server.stage.lock_ns");
        if let Some(key) = keyed {
            if let Some(bytes) = self.accounts.db().idem_lookup(&caller_cert, key) {
                if let Ok(resp) = BankResponse::from_bytes(&bytes) {
                    gridbank_obs::count("core.idem.hit", 1);
                    span.attr("idem", "hit");
                    timer.record_named_label("rpc.server.latency_ns", variant);
                    return resp;
                }
            }
            gridbank_obs::count("core.idem.miss", 1);
        }
        // DirectTransfer commits its dedup stamp atomically inside the
        // transfer batch; every other mutating variant is stamped here
        // after it succeeds.
        let stamped_inline = matches!(request, BankRequest::DirectTransfer { .. });
        let resp = match self.dispatch(&caller_cert, keyed, request) {
            Ok(resp) => {
                if let Some(key) = keyed {
                    if stamped_inline {
                        // Upgrade the journaled placeholder to the fully
                        // signed response (cache-only; no second journal
                        // entry for the same key).
                        self.accounts.db().idem_upgrade(&caller_cert, key, resp.to_bytes());
                    } else {
                        self.accounts.db().idem_record(&caller_cert, key, resp.to_bytes());
                    }
                }
                resp
            }
            Err(e) => {
                gridbank_obs::count("rpc.server.errors", 1);
                span.attr("error", e.to_string());
                BankResponse::Error {
                    kind: error_kind(&e),
                    message: e.to_string(),
                    detail: crate::api::error_detail(&e),
                }
            }
        };
        // Checkpointing rides the request path (no dedicated thread):
        // after dispatch, with no database locks held, snapshot once the
        // journal tail reached the configured threshold.
        // Concurrent workers skip instead of queueing; a no-op in
        // non-durable mode.
        if let Err(e) = self.accounts.db().maybe_checkpoint() {
            gridbank_obs::count("db.snapshot.errors", 1);
            eprintln!("gridbank: incremental checkpoint failed: {e}");
        }
        // Published after every dispatch, the only place leaves are
        // spent, with the time their generation took at boot beside them.
        // The registry is process-wide: with several branches in one
        // process the last writer wins, and `HealthReport` is the
        // per-branch reading.
        gridbank_obs::gauge_set("core.signer.remaining", self.signer.remaining() as i64);
        gridbank_obs::gauge_set("core.signer.capacity", self.signer.capacity() as i64);
        gridbank_obs::gauge_set("core.signer.keygen_ms", self.keygen_ms);
        timer.record_named_label("rpc.server.latency_ns", variant);
        resp
    }

    fn release_key(&self, entry: &(String, u64)) {
        self.in_flight_keys.lock().remove(entry);
        self.key_released.notify_all();
    }

    fn dispatch(
        &self,
        caller_cert: &str,
        idem_key: Option<u64>,
        request: BankRequest,
    ) -> Result<BankResponse, BankError> {
        // Enrollment-mode restriction: unknown subjects may only enroll.
        let known = self.accounts.db().subject_known(caller_cert)
            || self.admin.is_admin(caller_cert)
            || self.is_federation_peer(caller_cert)
            || self.is_ops_admin(caller_cert);
        if !known && !matches!(request, BankRequest::CreateAccount { .. }) {
            return Err(BankError::NotAuthorized(format!("`{caller_cert}` has no account")));
        }
        let now = self.clock.now_ms();
        // The serving layer's span: named after the §3.2 module
        // (accounts / payment / pricing) that owns the variant.
        let mut layer_span = gridbank_obs::span(request.layer(), request.variant_name());
        layer_span.attr("caller", caller_cert.to_string());
        match request {
            BankRequest::CreateAccount { organization } => {
                let account = self.accounts.create_account(caller_cert, organization)?;
                Ok(BankResponse::AccountCreated { account })
            }
            BankRequest::MyAccount => {
                Ok(BankResponse::Account(self.accounts.account_by_cert(caller_cert)?))
            }
            BankRequest::AccountDetails { account } => {
                if account.branch != self.config.branch {
                    return self.forward_or_redirect(
                        account.branch,
                        BankRequest::AccountDetails { account },
                    );
                }
                self.require_owner_or_admin(caller_cert, &account)?;
                Ok(BankResponse::Account(self.accounts.account_details(&account)?))
            }
            BankRequest::UpdateAccount { account, certificate_name, organization } => {
                self.require_owner_or_admin(caller_cert, &account)?;
                let mut record = self.accounts.account_details(&account)?;
                record.certificate_name = certificate_name;
                record.organization = organization;
                self.accounts.update_details(&record)?;
                Ok(BankResponse::Confirmation { transaction_id: 0 })
            }
            BankRequest::Statement { account, start_ms, end_ms } => {
                if account.branch != self.config.branch {
                    return self.forward_or_redirect(
                        account.branch,
                        BankRequest::Statement { account, start_ms, end_ms },
                    );
                }
                self.require_owner_or_admin(caller_cert, &account)?;
                let st = self.accounts.statement(&account, start_ms, end_ms)?;
                Ok(BankResponse::Statement {
                    account: st.account,
                    transactions: st.transactions,
                    transfers: st.transfers,
                })
            }
            BankRequest::CheckFunds { account, amount } => {
                self.require_owner_or_admin(caller_cert, &account)?;
                self.accounts.lock_funds(&account, amount)?;
                Ok(BankResponse::Confirmation { transaction_id: 0 })
            }
            BankRequest::DirectTransfer { to, amount, recipient_address } => {
                let from = self.accounts.account_by_cert(caller_cert)?.id;
                // The journaled stamp remembers a plain confirmation of
                // the committed txid; handle_keyed upgrades the cached
                // copy to the signed response after signing.
                let idem = idem_key.map(|key| crate::accounts::IdemKey {
                    cert: caller_cert.to_string(),
                    key,
                    response_of: |txid| {
                        BankResponse::Confirmation { transaction_id: txid }.to_bytes()
                    },
                });
                if to.branch != self.config.branch {
                    // Foreign payee: debit into clearing and ship the
                    // credit to the home branch (or redirect when this
                    // bank is not federated).
                    let Some(router) = self.federation() else {
                        return Err(BankError::NotHomeBranch { home: to.branch });
                    };
                    let transaction_id =
                        router.cross_branch_transfer(&from, &to, amount, Vec::new(), idem)?;
                    let body = crate::direct::ConfirmationBody {
                        transaction_id,
                        drawer: from,
                        recipient: to,
                        amount,
                        date_ms: now,
                        recipient_address,
                    };
                    let sign_timer = gridbank_obs::Stopwatch::start();
                    let signature = self.signer.sign(&body.to_bytes())?;
                    sign_timer.record_named("core.signer.sign_ns");
                    return Ok(BankResponse::Confirmed(crate::direct::TransferConfirmation {
                        body,
                        signature,
                    }));
                }
                let conf = crate::direct::direct_transfer_keyed(
                    &self.accounts,
                    &self.signer,
                    &from,
                    &to,
                    amount,
                    &recipient_address,
                    idem,
                )?;
                Ok(BankResponse::Confirmed(conf))
            }
            BankRequest::RequestCheque { payee_cert, amount, validity_ms } => {
                let drawer = self.accounts.account_by_cert(caller_cert)?.id;
                let cheque =
                    self.cheque_office().issue(&drawer, &payee_cert, amount, now, validity_ms)?;
                Ok(BankResponse::Cheque(cheque))
            }
            BankRequest::RedeemCheque { cheque, rur } => {
                let payee = self.accounts.account_by_cert(caller_cert)?.id;
                let red = self.cheque_office().redeem(&cheque, &rur, caller_cert, &payee, now)?;
                self.observe_redemption(caller_cert, &rur);
                Ok(BankResponse::Redeemed { paid: red.paid, released: red.released })
            }
            BankRequest::RequestHashChain { payee_cert, length, value_per_word, validity_ms } => {
                let drawer = self.accounts.account_by_cert(caller_cert)?.id;
                let chain = self.payword_office().issue(
                    &drawer,
                    &payee_cert,
                    length,
                    value_per_word,
                    now,
                    validity_ms,
                )?;
                let mut full = Vec::with_capacity((length as usize).saturating_add(1));
                full.push(chain.commitment.root);
                for k in 1..=length {
                    full.push(chain.payword(k)?.word);
                }
                Ok(BankResponse::HashChain {
                    commitment: chain.commitment,
                    signature: chain.signature,
                    chain: full,
                })
            }
            BankRequest::RedeemPayWord { commitment, signature, payword, rur_blob } => {
                if commitment.payee_cert != caller_cert {
                    return Err(BankError::NotAuthorized(format!(
                        "chain payable to `{}`, not `{caller_cert}`",
                        commitment.payee_cert
                    )));
                }
                let payee = self.accounts.account_by_cert(caller_cert)?.id;
                let paid = self.payword_office().redeem(
                    &commitment,
                    &signature,
                    &payword,
                    &payee,
                    rur_blob,
                    now,
                )?;
                Ok(BankResponse::Redeemed { paid, released: Credits::ZERO })
            }
            BankRequest::CloseHashChain { commitment } => {
                self.require_owner_or_admin(caller_cert, &commitment.drawer)?;
                let released = self.payword_office().close(&commitment, now)?;
                Ok(BankResponse::Redeemed { paid: Credits::ZERO, released })
            }
            BankRequest::RegisterResourceDescription { desc } => {
                self.descriptions.write().insert(caller_cert.to_string(), desc);
                Ok(BankResponse::Confirmation { transaction_id: 0 })
            }
            BankRequest::EstimatePrice { desc, min_similarity_ppk } => {
                let price = self.estimator.estimate(&desc, min_similarity_ppk)?;
                Ok(BankResponse::Estimate { price })
            }
            BankRequest::RedeemChequeBatch { items } => {
                let payee = self.accounts.account_by_cert(caller_cert)?.id;
                let office = self.cheque_office();
                let results = items
                    .into_iter()
                    .map(|(cheque, rur)| {
                        match office.redeem(&cheque, &rur, caller_cert, &payee, now) {
                            Ok(red) => {
                                self.observe_redemption(caller_cert, &rur);
                                Ok((red.paid, red.released))
                            }
                            Err(e) => Err((error_kind(&e), e.to_string())),
                        }
                    })
                    .collect();
                Ok(BankResponse::RedeemedBatch { results })
            }
            BankRequest::AdminDeposit { account, amount } => {
                let txid = self.admin.deposit(caller_cert, &account, amount)?;
                Ok(BankResponse::Confirmation { transaction_id: txid })
            }
            BankRequest::AdminWithdraw { account, amount } => {
                let txid = self.admin.withdraw(caller_cert, &account, amount)?;
                Ok(BankResponse::Confirmation { transaction_id: txid })
            }
            BankRequest::AdminCreditLimit { account, new_limit } => {
                self.admin.change_credit_limit(caller_cert, &account, new_limit)?;
                Ok(BankResponse::Confirmation { transaction_id: 0 })
            }
            BankRequest::AdminCancelTransfer { transaction_id } => {
                let txid = self.admin.cancel_transfer(caller_cert, transaction_id)?;
                Ok(BankResponse::Confirmation { transaction_id: txid })
            }
            BankRequest::AdminCloseAccount { account, transfer_to } => {
                self.admin.close_account(caller_cert, &account, transfer_to)?;
                Ok(BankResponse::Confirmation { transaction_id: 0 })
            }
            BankRequest::IbCredit { to, amount, origin_branch, rur_blob: _ } => {
                let router = self.federation().ok_or_else(|| {
                    BankError::Protocol("bank is not part of a federation".into())
                })?;
                if !router.is_peer(caller_cert) {
                    return Err(BankError::NotAuthorized(format!(
                        "`{caller_cert}` may not deliver inter-branch credits"
                    )));
                }
                if to.branch != self.config.branch {
                    return Err(BankError::NotHomeBranch { home: to.branch });
                }
                let txid = router.apply_ib_credit(&to, amount, origin_branch)?;
                Ok(BankResponse::Confirmation { transaction_id: txid })
            }
            BankRequest::IbSettleProposal { origin_branch, gross_out } => {
                let router = self.federation().ok_or_else(|| {
                    BankError::Protocol("bank is not part of a federation".into())
                })?;
                if !router.is_peer(caller_cert) {
                    return Err(BankError::NotAuthorized(format!(
                        "`{caller_cert}` may not propose settlements"
                    )));
                }
                layer_span.attr("gross_out", gross_out.to_string());
                let gross_back = router.apply_settle_proposal(origin_branch)?;
                Ok(BankResponse::IbSettleAck { gross_back })
            }
            BankRequest::OpsQuery { query } => {
                // The ops plane is its own trust role: account owners,
                // administrators, and federation peers are all refused
                // unless also enrolled as ops administrators.
                if !self.is_ops_admin(caller_cert) {
                    return Err(BankError::NotAuthorized(format!(
                        "`{caller_cert}` may not query the ops plane"
                    )));
                }
                use crate::api::{OpsQuery, OpsReport};
                match query {
                    OpsQuery::Metrics { filter } => {
                        let snapshot = gridbank_obs::registry().snapshot();
                        let snapshot = match filter.as_deref() {
                            Some(prefix) => snapshot.filtered(prefix),
                            None => snapshot,
                        };
                        layer_span.attr("query", "metrics");
                        Ok(BankResponse::OpsReport {
                            report: OpsReport::Metrics {
                                jsonl: gridbank_obs::render_jsonl(&snapshot),
                            },
                        })
                    }
                    OpsQuery::Health => {
                        layer_span.attr("query", "health");
                        Ok(BankResponse::OpsReport {
                            report: OpsReport::Health(self.health_report()),
                        })
                    }
                    OpsQuery::Traces => {
                        layer_span.attr("query", "traces");
                        Ok(BankResponse::OpsReport {
                            report: OpsReport::Traces { rendered: gridbank_obs::flight::dump() },
                        })
                    }
                }
            }
        }
    }

    /// Feeds the §4.2 estimator when a redemption reveals a realized
    /// price: unit price = charge / CPU-hours, attributed to the payee's
    /// registered resource description.
    fn observe_redemption(&self, payee_cert: &str, rur: &gridbank_rur::ResourceUsageRecord) {
        let Some(desc) = self.descriptions.read().get(payee_cert).copied() else {
            return;
        };
        let Ok(total) = rur.total_cost() else { return };
        let Some(line) = rur.line(ChargeableItem::Cpu) else { return };
        let UsageAmount::Time(cpu) = line.usage else { return };
        if cpu.as_ms() == 0 || !total.is_positive() {
            return;
        }
        // Unit price in µG$ per CPU-hour.
        if let Ok(unit) = total.mul_ratio(gridbank_rur::units::MS_PER_HOUR, cpu.as_ms()) {
            self.estimator.observe(desc, unit);
        }
    }
}

/// The §3.2 connection gate over the bank's tables.
pub struct BankGate {
    bank: Arc<GridBank>,
}

impl ConnectionGate for BankGate {
    fn admit(&self, subject: &SubjectName) -> AdmissionDecision {
        let cert = subject.base_identity().0;
        let known = self.bank.accounts.db().subject_known(&cert)
            || self.bank.admin.is_admin(&cert)
            || self.bank.is_federation_peer(&cert)
            || self.bank.is_ops_admin(&cert);
        match (known, self.bank.config.gate_mode) {
            (true, _) | (false, GateMode::AllowEnrollment) => AdmissionDecision::Allow,
            (false, GateMode::Strict) => {
                AdmissionDecision::Deny("no account or administrator privilege".into())
            }
        }
    }
}

/// Sizing knobs for the network front-end.
///
/// The defaults suit tests and small simulations; the reference
/// benchmark (`benchmark/`) sets `workers` to the host's core count.
#[derive(Clone, Copy, Debug)]
pub struct ServerTuning {
    /// Worker threads executing requests, shared across connections.
    pub workers: usize,
    /// Bound on the shared job queue. When it fills, connection readers
    /// block on submit — backpressure toward the clients.
    pub queue_depth: usize,
    /// Connections beyond this are dropped at accept time (the client
    /// sees a failed handshake and may retry).
    pub max_connections: usize,
}

impl Default for ServerTuning {
    fn default() -> Self {
        ServerTuning { workers: 4, queue_depth: 256, max_connections: 1024 }
    }
}

type Job = Box<dyn FnOnce() + Send + 'static>;

/// The shared bounded execution pool behind every connection.
///
/// Workers pull jobs from one bounded channel (receiver behind a mutex —
/// the vendored channel is single-consumer) and exit when every submit
/// handle is gone, so the pool drains naturally at shutdown.
struct WorkerPool {
    submit: crossbeam::channel::Sender<Job>,
    /// Workers currently executing a job — the saturation signal the
    /// ops plane reports.
    busy: Arc<AtomicU64>,
}

impl WorkerPool {
    fn start(tuning: ServerTuning) -> Self {
        let (tx, rx) = crossbeam::channel::bounded::<Job>(tuning.queue_depth.max(1));
        let rx = Arc::new(OrderedMutex::new(rank::WORKER_INBOX, "worker-inbox", rx));
        let busy = Arc::new(AtomicU64::new(0));
        for _ in 0..tuning.workers.max(1) {
            let rx = Arc::clone(&rx);
            let busy = Arc::clone(&busy);
            std::thread::spawn(move || loop {
                // Hold the lock only while waiting, never while running
                // the job, so workers execute in parallel.
                // lint:allow(blocking-under-lock) the lock exists solely to share the
                // receiver; it guards no bank state and jobs run outside it
                let job = rx.lock().recv();
                match job {
                    Ok(job) => {
                        busy.fetch_add(1, Ordering::Relaxed);
                        job();
                        busy.fetch_sub(1, Ordering::Relaxed);
                    }
                    Err(_) => break,
                }
            });
        }
        WorkerPool { submit: tx, busy }
    }
}

/// The server's [`OpsSource`]: worker saturation from the pool, live
/// connections from the accept loop's gauge.
struct ServerOps {
    busy: Arc<AtomicU64>,
    workers: u32,
    live: Arc<AtomicU64>,
}

impl OpsSource for ServerOps {
    fn workers_busy(&self) -> u32 {
        self.busy.load(Ordering::Relaxed).min(u32::MAX as u64) as u32
    }

    fn workers_total(&self) -> u32 {
        self.workers
    }

    fn connections(&self) -> u32 {
        self.live.load(Ordering::Relaxed).min(u32::MAX as u64) as u32
    }
}

/// Releases an in-flight idempotency key on every exit path from
/// `handle_keyed`, waking any duplicate waiting to consult the cache.
struct KeyGuard<'a> {
    bank: &'a GridBank,
    entry: (String, u64),
}

impl Drop for KeyGuard<'_> {
    fn drop(&mut self) {
        self.bank.release_key(&self.entry);
    }
}

/// Decrements the live-connection gauge when a connection thread exits,
/// however it exits.
struct LiveGuard(Arc<AtomicU64>);

impl Drop for LiveGuard {
    fn drop(&mut self) {
        // checked_sub in the update itself: an underflowing decrement
        // (a guard outliving its increment — an accounting bug) pins
        // the counter at zero instead of wrapping it to u64::MAX.
        let live = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1))
            .map_or(0, |prev| prev.saturating_sub(1));
        gridbank_obs::gauge_set("net.server.live_connections", live as i64);
    }
}

/// Server-side credentials for the handshake.
#[derive(Clone)]
pub struct ServerCredentials {
    /// The bank's CA-issued certificate.
    pub certificate: Certificate,
    /// The identity whose key the certificate binds.
    pub identity: Arc<SigningIdentity>,
    /// The CA key used to validate client chains.
    pub ca_key: VerifyingKey,
}

/// The running network front-end.
pub struct GridBankServer {
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    /// Address the server is bound to.
    pub address: Address,
    connections: Arc<AtomicU64>,
}

impl GridBankServer {
    /// Binds `address` on `network` and starts serving `bank` with the
    /// given pool and admission sizing.
    ///
    /// Per connection, a reader thread decodes pipelined requests and
    /// submits them to the shared bounded worker pool; workers dispatch
    /// into the bank and complete the connection's `ResponseWriter`.
    pub fn start_tuned(
        network: &Network,
        address: Address,
        bank: Arc<GridBank>,
        credentials: ServerCredentials,
        nonce_seed: u64,
        tuning: ServerTuning,
    ) -> Result<Self, NetError> {
        let listener = network.bind(address.clone())?;
        let stop = Arc::new(AtomicBool::new(false));
        let connections = Arc::new(AtomicU64::new(0));
        let stop2 = Arc::clone(&stop);
        let conns = Arc::clone(&connections);
        let clock = bank.clock().clone();
        let pool = WorkerPool::start(tuning);
        let live = Arc::new(AtomicU64::new(0));
        bank.install_ops_source(Arc::new(ServerOps {
            busy: Arc::clone(&pool.busy),
            workers: tuning.workers.max(1) as u32,
            live: Arc::clone(&live),
        }));
        let accept_thread = std::thread::spawn(move || {
            let gate = bank.gate();
            let mut conn_seq = 0u64;
            loop {
                if stop2.load(Ordering::Relaxed) {
                    break;
                }
                let duplex = match listener.accept_timeout(std::time::Duration::from_millis(50)) {
                    Ok(d) => d,
                    Err(NetError::Timeout) => continue,
                    Err(_) => break,
                };
                if live.load(Ordering::Relaxed) >= tuning.max_connections as u64 {
                    // Over the admission cap: drop the link before the
                    // handshake; resilient clients retry.
                    gridbank_obs::count("net.server.refused_connections", 1);
                    continue;
                }
                conn_seq = conn_seq.wrapping_add(1);
                let total = conns.fetch_add(1, Ordering::Relaxed).saturating_add(1);
                gridbank_obs::gauge_set("net.server.connection_count", total as i64);
                let now_live = live.fetch_add(1, Ordering::Relaxed).saturating_add(1);
                gridbank_obs::gauge_set("net.server.live_connections", now_live as i64);
                let guard = LiveGuard(Arc::clone(&live));
                let bank = Arc::clone(&bank);
                let credentials = credentials.clone();
                let clock = clock.clone();
                let jobs = pool.submit.clone();
                let mut nonces =
                    DeterministicStream::from_u64(nonce_seed ^ conn_seq, b"gridbank-server-nonce");
                let gate_bank = Arc::clone(&gate.bank);
                std::thread::spawn(move || {
                    let _guard = guard;
                    let config =
                        HandshakeConfig { ca_key: credentials.ca_key, now: clock.now_ms() };
                    let gate = BankGate { bank: gate_bank };
                    let hs = server_handshake(
                        duplex,
                        &config,
                        &credentials.certificate,
                        &credentials.identity,
                        &gate,
                        &mut nonces,
                    );
                    let (channel, peer) = match hs {
                        Ok(ok) => ok,
                        Err(_) => return, // refused or failed; nothing to serve
                    };
                    let _ = RpcServer::serve_pipelined(channel, |req, writer| {
                        let bank = Arc::clone(&bank);
                        let peer = peer.clone();
                        let writer = Arc::clone(writer);
                        let job: Job = Box::new(move || {
                            // Queue stage: reader decode → worker pickup.
                            if let Some(enqueued) = req.enqueued {
                                gridbank_obs::observe(
                                    "server.stage.queue_ns",
                                    enqueued.elapsed().as_nanos() as u64,
                                );
                            }
                            let response = {
                                // Join the client's trace so the dispatch
                                // nests under the caller's rpc span.
                                let mut span =
                                    gridbank_obs::span_under(req.trace, "net", "rpc_serve");
                                span.attr("peer", peer.base.0.clone());
                                let decode_timer = gridbank_obs::Stopwatch::start();
                                let decoded = BankRequest::from_bytes(&req.payload);
                                decode_timer.record_named("server.stage.decode_ns");
                                let dispatch_timer = gridbank_obs::Stopwatch::start();
                                let resp = match decoded {
                                    Ok(r) => bank.handle_keyed(&peer.subject, req.idem_key, r),
                                    Err(e) => BankResponse::Error {
                                        kind: crate::api::kinds::OTHER,
                                        message: format!("malformed request: {e}"),
                                        detail: 0,
                                    },
                                };
                                dispatch_timer.record_named("server.stage.dispatch_ns");
                                resp.to_bytes()
                            };
                            // An error here means the peer hung up; the
                            // reader loop will notice and wind down.
                            let reply_timer = gridbank_obs::Stopwatch::start();
                            let _ = writer.complete(req.id, response);
                            reply_timer.record_named("server.stage.reply_ns");
                        });
                        // Blocking on a full queue is the backpressure
                        // path; an error means the pool is gone.
                        jobs.send(job).map_err(|_| NetError::Disconnected)
                    });
                });
            }
            // Dropping the pool's submit handle lets workers exit once
            // the last connection reader hangs up.
        });
        Ok(GridBankServer { stop, accept_thread: Some(accept_thread), address, connections })
    }

    /// Total connections accepted so far.
    pub fn connection_count(&self) -> u64 {
        self.connections.load(Ordering::Relaxed)
    }

    /// Stops the accept loop (established connections drain naturally).
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for GridBankServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bank() -> Arc<GridBank> {
        let config = GridBankConfig { signer_height: 6, ..GridBankConfig::default() };
        Arc::new(GridBank::new(config, Clock::new()))
    }

    fn subject(cn: &str) -> SubjectName {
        SubjectName::new("UWA", "CSSE", cn)
    }

    #[test]
    fn enrollment_then_operations() {
        let b = bank();
        let alice = subject("alice");
        // Unknown subjects can only enroll.
        let resp = b.handle(&alice, BankRequest::MyAccount);
        assert!(matches!(resp, BankResponse::Error { .. }));
        let resp = b.handle(&alice, BankRequest::CreateAccount { organization: None });
        let BankResponse::AccountCreated { account } = resp else {
            panic!("expected AccountCreated, got {resp:?}")
        };
        let resp = b.handle(&alice, BankRequest::MyAccount);
        let BankResponse::Account(rec) = resp else { panic!("{resp:?}") };
        assert_eq!(rec.id, account);
    }

    #[test]
    fn ownership_is_enforced() {
        let b = bank();
        let alice = subject("alice");
        let bob = subject("bob");
        let BankResponse::AccountCreated { account: alice_acct } =
            b.handle(&alice, BankRequest::CreateAccount { organization: None })
        else {
            panic!()
        };
        b.handle(&bob, BankRequest::CreateAccount { organization: None });
        // Bob cannot read Alice's account or statement.
        let resp = b.handle(&bob, BankRequest::AccountDetails { account: alice_acct });
        assert!(
            matches!(resp, BankResponse::Error { kind, .. } if kind == crate::api::kinds::NOT_AUTHORIZED)
        );
        let resp =
            b.handle(&bob, BankRequest::Statement { account: alice_acct, start_ms: 0, end_ms: 10 });
        assert!(matches!(resp, BankResponse::Error { .. }));
        // An admin can.
        let admin = SubjectName("/O=GridBank/OU=Admin/CN=operator".into());
        let resp = b.handle(&admin, BankRequest::AccountDetails { account: alice_acct });
        assert!(matches!(resp, BankResponse::Account(_)));
    }

    #[test]
    fn full_cheque_cycle_through_dispatcher() {
        let b = bank();
        let alice = subject("alice");
        let gsp = subject("gsp-alpha");
        let admin = SubjectName("/O=GridBank/OU=Admin/CN=operator".into());
        let BankResponse::AccountCreated { account: alice_acct } =
            b.handle(&alice, BankRequest::CreateAccount { organization: None })
        else {
            panic!()
        };
        b.handle(&gsp, BankRequest::CreateAccount { organization: None });
        b.handle(
            &admin,
            BankRequest::AdminDeposit { account: alice_acct, amount: Credits::from_gd(50) },
        );

        let BankResponse::Cheque(cheque) = b.handle(
            &alice,
            BankRequest::RequestCheque {
                payee_cert: gsp.base_identity().0,
                amount: Credits::from_gd(20),
                validity_ms: 100_000,
            },
        ) else {
            panic!()
        };
        // GSP redeems with a usage record worth 8 G$.
        let rur = gridbank_rur::record::RurBuilder::default()
            .user("h", &alice.0)
            .job("j", "a", 0, 3_600_000)
            .resource("r", &gsp.0, None, 1)
            .line(
                ChargeableItem::Cpu,
                UsageAmount::Time(gridbank_rur::units::Duration::from_hours(1)),
                Credits::from_gd(8),
            )
            .build()
            .unwrap();
        let resp =
            b.handle(&gsp, BankRequest::RedeemCheque { cheque: cheque.clone(), rur: rur.clone() });
        let BankResponse::Redeemed { paid, released } = resp else { panic!("{resp:?}") };
        assert_eq!(paid, Credits::from_gd(8));
        assert_eq!(released, Credits::from_gd(12));
        // A second redemption fails.
        let resp = b.handle(&gsp, BankRequest::RedeemCheque { cheque, rur });
        assert!(
            matches!(resp, BankResponse::Error { kind, .. } if kind == crate::api::kinds::ALREADY_REDEEMED)
        );
    }

    #[test]
    fn payword_cycle_through_dispatcher() {
        let b = bank();
        let alice = subject("alice");
        let gsp = subject("gsp");
        let admin = SubjectName("/O=GridBank/OU=Admin/CN=operator".into());
        let BankResponse::AccountCreated { account: alice_acct } =
            b.handle(&alice, BankRequest::CreateAccount { organization: None })
        else {
            panic!()
        };
        b.handle(&gsp, BankRequest::CreateAccount { organization: None });
        b.handle(
            &admin,
            BankRequest::AdminDeposit { account: alice_acct, amount: Credits::from_gd(50) },
        );

        let resp = b.handle(
            &alice,
            BankRequest::RequestHashChain {
                payee_cert: gsp.base_identity().0,
                length: 10,
                value_per_word: Credits::from_gd(1),
                validity_ms: 100_000,
            },
        );
        let BankResponse::HashChain { commitment, signature, chain } = resp else {
            panic!("{resp:?}")
        };
        assert_eq!(chain.len(), 11);
        assert_eq!(chain[0], commitment.root);
        // Mallory can't redeem a chain payable to the GSP.
        let mallory = subject("mallory");
        b.handle(&mallory, BankRequest::CreateAccount { organization: None });
        let resp = b.handle(
            &mallory,
            BankRequest::RedeemPayWord {
                commitment: commitment.clone(),
                signature: signature.clone(),
                payword: crate::payword::PayWord { index: 4, word: chain[4] },
                rur_blob: vec![],
            },
        );
        assert!(
            matches!(resp, BankResponse::Error { kind, .. } if kind == crate::api::kinds::NOT_AUTHORIZED)
        );
        // GSP redeems incrementally.
        let resp = b.handle(
            &gsp,
            BankRequest::RedeemPayWord {
                commitment: commitment.clone(),
                signature: signature.clone(),
                payword: crate::payword::PayWord { index: 4, word: chain[4] },
                rur_blob: vec![],
            },
        );
        let BankResponse::Redeemed { paid, .. } = resp else { panic!("{resp:?}") };
        assert_eq!(paid, Credits::from_gd(4));
    }

    #[test]
    fn idempotency_key_dedups_retried_mutations() {
        let store = crate::store::StoreConfig::scratch("server-idem");
        let config = || GridBankConfig { signer_height: 6, ..GridBankConfig::default() };
        let (b, _) = GridBank::open_durable(config(), Clock::new(), store.clone()).unwrap();
        let alice = subject("alice");
        let gsp = subject("gsp");
        let admin = SubjectName("/O=GridBank/OU=Admin/CN=operator".into());
        let BankResponse::AccountCreated { account: alice_acct } =
            b.handle(&alice, BankRequest::CreateAccount { organization: None })
        else {
            panic!()
        };
        let BankResponse::AccountCreated { account: gsp_acct } =
            b.handle(&gsp, BankRequest::CreateAccount { organization: None })
        else {
            panic!()
        };
        b.handle(
            &admin,
            BankRequest::AdminDeposit { account: alice_acct, amount: Credits::from_gd(50) },
        );
        let transfer = || BankRequest::DirectTransfer {
            to: gsp_acct,
            amount: Credits::from_gd(10),
            recipient_address: "gsp.grid.org".into(),
        };
        // First keyed call applies and returns a signed confirmation.
        let r1 = b.handle_keyed(&alice, Some(77), transfer());
        let BankResponse::Confirmed(conf) = &r1 else { panic!("{r1:?}") };
        conf.verify(&b.verifying_key()).unwrap();
        // A retry with the same key returns the remembered (signed)
        // response without moving funds again.
        let r2 = b.handle_keyed(&alice, Some(77), transfer());
        let BankResponse::Confirmed(conf2) = &r2 else { panic!("{r2:?}") };
        assert_eq!(conf2.body, conf.body);
        let gsp_balance = |b: &GridBank| b.accounts.account_details(&gsp_acct).unwrap().available;
        assert_eq!(gsp_balance(&b), Credits::from_gd(10));
        // A different key is a different logical operation.
        let r3 = b.handle_keyed(&alice, Some(78), transfer());
        assert!(matches!(r3, BankResponse::Confirmed(_)));
        assert_eq!(gsp_balance(&b), Credits::from_gd(20));
        // Keys are per-caller: the same number from another subject does
        // not collide.
        let r4 = b.handle_keyed(&gsp, Some(77), BankRequest::MyAccount);
        assert!(matches!(r4, BankResponse::Account(_)));
        // Error responses are not remembered: a failed keyed attempt may
        // succeed when retried.
        let huge = BankRequest::DirectTransfer {
            to: gsp_acct,
            amount: Credits::from_gd(1_000),
            recipient_address: "x".into(),
        };
        assert!(matches!(b.handle_keyed(&alice, Some(79), huge), BankResponse::Error { .. }));
        let r5 = b.handle_keyed(&alice, Some(79), transfer());
        assert!(matches!(r5, BankResponse::Confirmed(_)));
        // Crash recovery: the reopened store preserves the dedup, so
        // the retry still cannot double-apply.
        drop(b);
        let (rebuilt, _) = GridBank::open_durable(config(), Clock::new(), store).unwrap();
        let before = gsp_balance(&rebuilt);
        let r6 = rebuilt.handle_keyed(&alice, Some(77), transfer());
        assert!(matches!(r6, BankResponse::Confirmation { .. } | BankResponse::Confirmed(_)));
        assert_eq!(gsp_balance(&rebuilt), before);
    }

    #[test]
    fn idem_capacity_zero_disables_dedup() {
        let config =
            GridBankConfig { signer_height: 6, idem_capacity: 0, ..GridBankConfig::default() };
        let b = Arc::new(GridBank::new(config, Clock::new()));
        let alice = subject("alice");
        let gsp = subject("gsp");
        let admin = SubjectName("/O=GridBank/OU=Admin/CN=operator".into());
        let BankResponse::AccountCreated { account: alice_acct } =
            b.handle(&alice, BankRequest::CreateAccount { organization: None })
        else {
            panic!()
        };
        let BankResponse::AccountCreated { account: gsp_acct } =
            b.handle(&gsp, BankRequest::CreateAccount { organization: None })
        else {
            panic!()
        };
        b.handle(
            &admin,
            BankRequest::AdminDeposit { account: alice_acct, amount: Credits::from_gd(50) },
        );
        let transfer = || BankRequest::DirectTransfer {
            to: gsp_acct,
            amount: Credits::from_gd(10),
            recipient_address: "gsp.grid.org".into(),
        };
        // With dedup disabled the same key double-applies.
        b.handle_keyed(&alice, Some(1), transfer());
        b.handle_keyed(&alice, Some(1), transfer());
        assert_eq!(b.accounts.account_details(&gsp_acct).unwrap().available, Credits::from_gd(20));
    }

    #[test]
    fn ops_plane_is_its_own_trust_role() {
        let b = bank();
        let ops = SubjectName(ops_identity("watcher"));
        let admin = SubjectName("/O=GridBank/OU=Admin/CN=operator".into());
        let alice = subject("alice");
        let BankResponse::AccountCreated { account: alice_acct } =
            b.handle(&alice, BankRequest::CreateAccount { organization: None })
        else {
            panic!()
        };
        b.handle(
            &admin,
            BankRequest::AdminDeposit { account: alice_acct, amount: Credits::from_gd(50) },
        );
        let health_query = || BankRequest::OpsQuery { query: crate::api::OpsQuery::Health };
        // Nobody is trusted for the ops plane yet: account owners and
        // full administrators alike are refused with a typed error.
        for caller in [&alice, &admin] {
            let resp = b.handle(caller, health_query());
            assert!(
                matches!(resp, BankResponse::Error { kind, .. } if kind == crate::api::kinds::NOT_AUTHORIZED),
                "{resp:?}"
            );
        }
        b.add_ops_admin(ops.0.clone());
        assert!(b.is_ops_admin(&ops.0));
        // The ops admin reads health but holds no account privileges.
        let resp = b.handle(&ops, health_query());
        let BankResponse::OpsReport { report: crate::api::OpsReport::Health(h) } = resp else {
            panic!("{resp:?}")
        };
        assert_eq!(h.branch, 1);
        assert_eq!(h.state, crate::api::HealthState::Healthy);
        let resp = b.handle(
            &ops,
            BankRequest::AdminWithdraw { account: alice_acct, amount: Credits::from_gd(50) },
        );
        assert!(
            matches!(resp, BankResponse::Error { kind, .. } if kind == crate::api::kinds::NOT_AUTHORIZED),
            "{resp:?}"
        );
        assert_eq!(
            b.accounts.account_details(&alice_acct).unwrap().available,
            Credits::from_gd(50)
        );
        // Metrics come back as JSON-lines, optionally prefix-filtered.
        let resp = b.handle(
            &ops,
            BankRequest::OpsQuery {
                query: crate::api::OpsQuery::Metrics { filter: Some("rpc.".into()) },
            },
        );
        let BankResponse::OpsReport { report: crate::api::OpsReport::Metrics { jsonl } } = resp
        else {
            panic!("{resp:?}")
        };
        assert!(jsonl.starts_with("{\"type\":\"meta\""), "{jsonl}");
        assert!(!jsonl.contains("\"name\":\"core."), "filter leaked: {jsonl}");
    }

    #[test]
    fn signer_headroom_degrades_health_before_the_key_runs_out() {
        use crate::api::HealthState;
        let config = GridBankConfig { signer_height: 4, ..GridBankConfig::default() };
        let b = GridBank::new(config, Clock::new());
        let (alice, gsp) = (subject("alice"), subject("gsp"));
        let admin = SubjectName("/O=GridBank/OU=Admin/CN=operator".into());
        let [from, to] = [&alice, &gsp].map(|who| {
            match b.handle(who, BankRequest::CreateAccount { organization: None }) {
                BankResponse::AccountCreated { account } => account,
                other => panic!("{other:?}"),
            }
        });
        b.handle(&admin, BankRequest::AdminDeposit { account: from, amount: Credits::from_gd(50) });
        let pay = || BankRequest::DirectTransfer {
            to,
            amount: Credits::from_gd(1),
            recipient_address: "gsp.grid.org".into(),
        };

        // 16 leaves; "below one fifth" is 3 or fewer left.
        let mut states = Vec::new();
        for signed in 1..=16u64 {
            let resp = b.handle(&alice, pay());
            assert!(matches!(resp, BankResponse::Confirmed(_)), "{resp:?}");
            let h = b.health_report();
            assert_eq!((h.signer_remaining, h.signer_capacity), (16 - signed, 16));
            states.push(h.state);
        }
        assert!(states[..12].iter().all(|s| *s == HealthState::Healthy), "{states:?}");
        assert!(states[12..].iter().all(|s| *s == HealthState::Degraded), "{states:?}");

        // The seventeenth signature is refused with the typed error, in
        // process and (as its message) over the request path.
        let typed = crate::direct::direct_transfer(
            &b.accounts,
            &b.signer,
            &from,
            &to,
            Credits::from_gd(1),
            "gsp.grid.org",
        );
        assert!(
            matches!(
                typed,
                Err(BankError::Crypto(gridbank_crypto::CryptoError::IdentityExhausted {
                    capacity: 16
                }))
            ),
            "{typed:?}"
        );
        let resp = b.handle(&alice, pay());
        assert!(
            matches!(&resp, BankResponse::Error { message, .. } if message.contains("exhausted")),
            "{resp:?}"
        );
    }

    #[test]
    fn pricing_pipeline_observes_redemptions() {
        let b = bank();
        let alice = subject("alice");
        let gsp = subject("gsp");
        let admin = SubjectName("/O=GridBank/OU=Admin/CN=operator".into());
        let BankResponse::AccountCreated { account: alice_acct } =
            b.handle(&alice, BankRequest::CreateAccount { organization: None })
        else {
            panic!()
        };
        b.handle(&gsp, BankRequest::CreateAccount { organization: None });
        b.handle(
            &admin,
            BankRequest::AdminDeposit { account: alice_acct, amount: Credits::from_gd(50) },
        );
        let desc = ResourceDescription {
            cpu_speed: 1000,
            cpu_count: 8,
            memory_mb: 16_384,
            storage_mb: 100_000,
            bandwidth_mbps: 1000,
        };
        b.handle(&gsp, BankRequest::RegisterResourceDescription { desc });

        // No history yet.
        let resp = b.handle(&alice, BankRequest::EstimatePrice { desc, min_similarity_ppk: 0 });
        assert!(matches!(resp, BankResponse::Error { .. }));

        // One cheque redemption at 3 G$/CPU-hour feeds the estimator.
        let BankResponse::Cheque(cheque) = b.handle(
            &alice,
            BankRequest::RequestCheque {
                payee_cert: gsp.0.clone(),
                amount: Credits::from_gd(10),
                validity_ms: 100_000,
            },
        ) else {
            panic!()
        };
        let rur = gridbank_rur::record::RurBuilder::default()
            .user("h", &alice.0)
            .job("j", "a", 0, 3_600_000)
            .resource("r", &gsp.0, None, 1)
            .line(
                ChargeableItem::Cpu,
                UsageAmount::Time(gridbank_rur::units::Duration::from_hours(2)),
                Credits::from_gd(3),
            )
            .build()
            .unwrap();
        b.handle(&gsp, BankRequest::RedeemCheque { cheque, rur });

        let resp = b.handle(&alice, BankRequest::EstimatePrice { desc, min_similarity_ppk: 0 });
        let BankResponse::Estimate { price } = resp else { panic!("{resp:?}") };
        assert_eq!(price, Credits::from_gd(3));
    }
}

// ---------------------------------------------------------------------------
// Loom model: concurrent duplicate mutations through the real dispatcher.
// ---------------------------------------------------------------------------
//
// Built only under `RUSTFLAGS="--cfg loom"`: `crate::sync` swaps to the
// vendored yield-injecting primitives, so the in-flight key guard and
// idempotency cache inside `handle_keyed` run under randomized
// interleavings (see docs/STATIC_ANALYSIS.md).

#[cfg(all(loom, test))]
mod loom_model {
    use super::*;
    use std::sync::atomic::{AtomicU64 as StdAtomicU64, Ordering as StdOrdering};

    /// Three threads race the same idempotency key through the real
    /// `handle_keyed` path (in-flight guard, dedup cache, transfer).
    /// Exactly one transfer may apply per key, and every racer must see
    /// the identical signed confirmation.
    #[test]
    fn duplicate_keyed_transfers_apply_exactly_once() {
        // The bank (and its Merkle signer) is built once: keygen is far
        // too slow to repeat per interleaving. Height 9 = 512 one-time
        // signatures, enough for the default 128 model iterations (one
        // confirmation is signed per iteration; the racers that lose
        // the key race get the remembered bytes, not a fresh signature).
        let config = GridBankConfig { signer_height: 9, ..GridBankConfig::default() };
        let bank = Arc::new(GridBank::new(config, Clock::new()));
        let alice = SubjectName::new("UWA", "CSSE", "alice");
        let gsp = SubjectName::new("UWA", "CSSE", "gsp");
        let admin = SubjectName("/O=GridBank/OU=Admin/CN=operator".into());
        let BankResponse::AccountCreated { account: from } =
            bank.handle(&alice, BankRequest::CreateAccount { organization: None })
        else {
            panic!("alice enrollment failed")
        };
        let BankResponse::AccountCreated { account: to } =
            bank.handle(&gsp, BankRequest::CreateAccount { organization: None })
        else {
            panic!("gsp enrollment failed")
        };
        bank.handle(
            &admin,
            BankRequest::AdminDeposit { account: from, amount: Credits::from_gd(1_000_000) },
        );

        let amount = Credits::from_micro(7);
        let iteration = StdAtomicU64::new(0);
        loom::model(move || {
            let n = iteration.fetch_add(1, StdOrdering::SeqCst) + 1;
            let key = 1_000 + n;
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    let bank = Arc::clone(&bank);
                    let alice = alice.clone();
                    loom::thread::spawn(move || {
                        bank.handle_keyed(
                            &alice,
                            Some(key),
                            BankRequest::DirectTransfer {
                                to,
                                amount,
                                recipient_address: "gsp.grid.org".into(),
                            },
                        )
                    })
                })
                .collect();
            let responses: Vec<BankResponse> =
                handles.into_iter().map(|h| h.join().expect("racer thread")).collect();
            // Every racer observes the identical remembered confirmation.
            let first = responses[0].to_bytes();
            for r in &responses {
                assert!(matches!(r, BankResponse::Confirmed(_)), "unexpected response {r:?}");
                assert_eq!(r.to_bytes(), first, "racers saw divergent responses");
            }
            // The transfer applied exactly once per key: after n keys
            // the recipient holds exactly n * amount.
            let BankResponse::Account(rec) =
                bank.handle(&admin, BankRequest::AccountDetails { account: to })
            else {
                panic!("balance read failed")
            };
            assert_eq!(
                rec.available,
                Credits::from_micro(7 * n as i128),
                "duplicate transfer applied"
            );
        });
    }
}
