//! The one way to boot a bank: see DESIGN.md §4 "Booting a bank".
//!
//! A [`Deployment`] owns everything Figure 1 puts around a GridBank
//! server — the in-process network, the virtual clock, the certificate
//! authority, one [`GridBank`] + [`GridBankServer`] per branch (in
//! memory or on a durable store) and, with more than one branch, the
//! full mesh of resilient settlement routes — and hands out
//! authenticated connections through one path: [`Deployment::identity`]
//! then [`Identity::connect`] or [`Identity::connector`]. Simulations,
//! the CLI, the integration tests and the examples all stand their
//! worlds up here.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gridbank_core::client::GridBankClient;
use gridbank_core::clock::Clock;
use gridbank_core::federation::FederationRouter;
use gridbank_core::resilient::{Connector, ResilientBankClient};
use gridbank_core::server::{
    ops_identity, GridBank, GridBankConfig, GridBankServer, ServerCredentials, ServerTuning,
};
use gridbank_core::store::{RecoveryReport, StoreConfig};
use gridbank_core::BankError;
use gridbank_crypto::cert::{
    create_proxy, Certificate, CertificateAuthority, ProxyCertificate, SubjectName,
};
use gridbank_crypto::keys::{KeyMaterial, SigningIdentity, VerifyingKey};
use gridbank_crypto::rng::DeterministicStream;
use gridbank_crypto::CryptoError;
use gridbank_net::retry::{CircuitBreaker, RetryPolicy};
use gridbank_net::transport::{Address, Network};
use gridbank_net::{FaultInjector, FaultPlan, NetError};
use gridbank_rur::Credits;

/// The administrator every [`GridBankConfig`] trusts by default.
pub const OPERATOR: &str = "/O=GridBank/OU=Admin/CN=operator";

/// Certificates and proxies never expire inside a run.
const NOT_AFTER: u64 = u64::MAX / 2;

/// How long [`Deployment::kill`] waits for server threads to let go of
/// the bank before reporting [`DeployError::StillHeld`].
const KILL_WAIT: Duration = Duration::from_secs(10);

/// How [`Identity::resilient`] clients retry: enough attempts to ride
/// out a chaos storm, under the configuration the exactly-once
/// guarantees are stated for (docs/RESILIENCE.md).
const RETRY_POLICY: RetryPolicy = RetryPolicy {
    base_delay_ms: 1,
    max_delay_ms: 16,
    max_attempts: 12,
    deadline_ms: 1_000_000,
    seed: 0,
};

/// One branch of a deployment.
#[derive(Clone, Debug)]
pub struct BranchConfig {
    /// The bank's own configuration; `bank.branch` must equal the
    /// branch's 1-based position in [`DeployConfig::branches`].
    pub bank: GridBankConfig,
    /// `Some` opens the bank on disk ([`GridBank::open_durable`]);
    /// `None` keeps it in memory.
    pub store: Option<StoreConfig>,
}

/// What a deployment is built from, so a reboot can build the same one.
#[derive(Clone, Debug)]
pub struct DeployConfig {
    /// Every identity, nonce stream and route seed derives from this.
    pub seed: u64,
    /// Height of the CA's signing tree: one leaf per issued certificate.
    pub ca_height: usize,
    /// Worker-pool and admission sizing of every branch's server.
    pub tuning: ServerTuning,
    /// The branches, in branch-number order starting at 1.
    pub branches: Vec<BranchConfig>,
}

impl DeployConfig {
    /// One in-memory branch.
    pub fn single(bank: GridBankConfig) -> Self {
        DeployConfig {
            seed: 1,
            ca_height: 4,
            tuning: ServerTuning::default(),
            branches: vec![BranchConfig { bank, store: None }],
        }
    }

    /// `n` federated in-memory branches; `bank(b)` configures branch `b`.
    pub fn federated(n: u16, bank: impl Fn(u16) -> GridBankConfig) -> Self {
        let branches = (1..=n)
            .map(|b| BranchConfig { bank: GridBankConfig { branch: b, ..bank(b) }, store: None })
            .collect();
        DeployConfig { branches, ..DeployConfig::single(GridBankConfig::default()) }
    }
}

/// Why a deployment could not be booted, killed or dialled.
#[derive(Debug)]
pub enum DeployError {
    /// The bank, its store, the network or the PKI refused.
    Bank(BankError),
    /// Server threads still held the killed bank after the wait — a
    /// client of that branch was not dropped before the kill.
    StillHeld {
        /// The branch that was being killed.
        branch: u16,
        /// Handles on the bank beside the deployment's own.
        holders: usize,
    },
}

impl fmt::Display for DeployError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeployError::Bank(e) => write!(f, "{e}"),
            DeployError::StillHeld { branch, holders } => write!(
                f,
                "{holders} handles still hold branch {branch}'s bank {}s after shutdown",
                KILL_WAIT.as_secs()
            ),
        }
    }
}

impl std::error::Error for DeployError {}

impl From<BankError> for DeployError {
    fn from(e: BankError) -> Self {
        DeployError::Bank(e)
    }
}

impl From<CryptoError> for DeployError {
    fn from(e: CryptoError) -> Self {
        DeployError::Bank(e.into())
    }
}

impl From<NetError> for DeployError {
    fn from(e: NetError) -> Self {
        DeployError::Bank(e.into())
    }
}

impl From<DeployError> for String {
    fn from(e: DeployError) -> String {
        e.to_string()
    }
}

/// A CA-certified subject that can open connections: the end-entity
/// key signs short-lived proxies (single sign-on), each proxy signs
/// one handshake per leaf, and a spent proxy is replaced by the next.
pub struct Identity {
    network: Network,
    clock: Clock,
    ca_key: VerifyingKey,
    dn: SubjectName,
    seed: u64,
    certificate: Certificate,
    key: SigningIdentity,
    proxy: Option<(ProxyCertificate, SigningIdentity)>,
    proxies: u64,
    dials: u64,
}

impl Identity {
    /// Opens one connection to `branch` through the full mutual-auth
    /// handshake, with a nonce stream fresh to this dial.
    pub fn connect(&mut self, branch: u16) -> Result<GridBankClient, BankError> {
        let (proxy, proxy_id) = match self.proxy.take().filter(|(_, id)| id.remaining() > 0) {
            Some(live) => self.proxy.insert(live),
            None => {
                self.proxies = self.proxies.wrapping_add(1);
                let seed = self.seed ^ 0x9999 ^ (self.proxies << 40);
                let id = SigningIdentity::generate_small(KeyMaterial { seed }, "proxy");
                let key = id.verifying_key();
                let proxy = create_proxy(&self.key, &self.certificate, key, 0, NOT_AFTER, 1)?;
                self.proxy.insert((proxy, id))
            }
        };
        self.dials = self.dials.wrapping_add(1);
        let mut nonces = DeterministicStream::from_u64(self.seed ^ (self.dials << 32), b"nonce");
        GridBankClient::connect(
            &self.network,
            Address::new(format!("{}#{}", self.dn.0, self.dials)),
            &address(branch),
            self.ca_key,
            self.clock.now_ms(),
            proxy,
            proxy_id,
            &mut nonces,
        )
    }

    /// A reconnecting dialler for [`ResilientBankClient`]: every retry
    /// rides a fresh handshake under the same certified subject.
    pub fn connector(mut self, branch: u16) -> Connector {
        Box::new(move || self.connect(branch))
    }

    /// A retrying client of `branch`: every retry reconnects through
    /// [`Identity::connector`] and resends under the same idempotency
    /// key. Breaker cooldown 0, because the virtual clock does not
    /// advance on its own and any positive cooldown would pin an opened
    /// circuit shut forever; with 0 every admit after a trip is a probe.
    pub fn resilient(self, branch: u16) -> ResilientBankClient {
        let (clock, seed) = (self.clock.clone(), self.seed);
        ResilientBankClient::new(self.connector(branch), RETRY_POLICY, clock, seed)
            .with_breaker(CircuitBreaker::new(8, 0))
    }
}

/// The address branch `b`'s server listens at.
pub fn address(branch: u16) -> Address {
    Address::new(format!("branch-{branch}"))
}

/// Position of `branch` in the per-branch vectors (out of range for 0).
fn index(branch: u16) -> usize {
    usize::from(branch).wrapping_sub(1)
}

/// A running branch.
struct Live {
    bank: Arc<GridBank>,
    router: Option<Arc<FederationRouter>>,
    recovery: Option<RecoveryReport>,
    _server: GridBankServer,
}

/// A booted world; see the module docs.
pub struct Deployment {
    /// The private in-process network every branch listens on.
    pub network: Network,
    /// The virtual clock every branch and client reads.
    pub clock: Clock,
    /// The certificate authority every party trusts.
    pub ca: CertificateAuthority,
    config: DeployConfig,
    /// Index `b - 1` holds branch `b`; `None` while it is killed.
    live: Vec<Option<Live>>,
    /// Operator and ops identities handed out so far (seed spacing).
    staff: AtomicU64,
}

impl Deployment {
    /// Boots every branch and, with more than one, the settlement mesh.
    pub fn boot(config: DeployConfig) -> Result<Deployment, DeployError> {
        let ca = CertificateAuthority::new(
            SubjectName::new("GridBank", "CA", "Root"),
            SigningIdentity::generate_with_height(
                KeyMaterial { seed: config.seed ^ 0xCA },
                "ca",
                config.ca_height,
            ),
        );
        let mut world = Deployment {
            network: Network::new(),
            clock: Clock::new(),
            ca,
            live: config.branches.iter().map(|_| None).collect(),
            config,
            staff: AtomicU64::new(0),
        };
        for b in world.branch_ids() {
            world.start(b)?;
        }
        for from in world.branch_ids() {
            for to in world.branch_ids().filter(|to| *to != from) {
                world.wire(from, to)?;
            }
        }
        Ok(world)
    }

    /// Branch numbers, ascending from 1.
    pub fn branch_ids(&self) -> impl Iterator<Item = u16> {
        1..=self.config.branches.len() as u16
    }

    fn slot(&self, branch: u16) -> Result<&Live, DeployError> {
        self.live
            .get(index(branch))
            .and_then(Option::as_ref)
            .ok_or(DeployError::Bank(BankError::UnknownBranch(branch)))
    }

    /// The bank behind `branch`'s server.
    pub fn bank(&self, branch: u16) -> Result<&Arc<GridBank>, DeployError> {
        Ok(&self.slot(branch)?.bank)
    }

    /// Every running branch's bank, in branch order.
    pub fn banks(&self) -> impl Iterator<Item = &Arc<GridBank>> {
        self.live.iter().flatten().map(|l| &l.bank)
    }

    /// Every running branch's federation router, in branch order;
    /// empty for a single-branch deployment.
    pub fn routers(&self) -> impl Iterator<Item = &Arc<FederationRouter>> {
        self.live.iter().flatten().filter_map(|l| l.router.as_ref())
    }

    /// What recovery did when `branch` last opened its durable store.
    pub fn recovery(&self, branch: u16) -> Option<&RecoveryReport> {
        self.slot(branch).ok()?.recovery.as_ref()
    }

    /// Σ funds over every running branch, clearing accounts included.
    pub fn total_funds(&self) -> Credits {
        self.banks().map(|b| b.total_funds()).fold(Credits::ZERO, |a, c| a.saturating_add(c))
    }

    /// What settlement left behind: Σ |clearing balance| over every
    /// route, and the inter-branch credits still unacknowledged. Both
    /// are zero after a complete netting pass.
    pub fn settlement_residue(&self) -> (Credits, usize) {
        let mut residual = Credits::ZERO;
        for router in self.routers() {
            for peer in router.peer_branches() {
                residual = residual.saturating_add(router.clearing_balance(peer).abs());
            }
        }
        let pending = self.banks().map(|b| b.accounts.db().ib_pending_snapshot().len()).sum();
        (residual, pending)
    }

    /// Opens `branch`'s bank (recovering its store, if it has one) and
    /// starts its server.
    fn start(&mut self, branch: u16) -> Result<(), DeployError> {
        let spec = self
            .config
            .branches
            .get(index(branch))
            .filter(|s| s.bank.branch == branch)
            .ok_or(BankError::UnknownBranch(branch))?;
        let (bank, recovery) = match &spec.store {
            None => (GridBank::new(spec.bank.clone(), self.clock.clone()), None),
            Some(store) => {
                let (bank, report) =
                    GridBank::open_durable(spec.bank.clone(), self.clock.clone(), store.clone())?;
                (bank, Some(report))
            }
        };
        let bank = Arc::new(bank);
        bank.add_ops_admin(ops_identity("deploy"));
        let seed = self.config.seed ^ (u64::from(branch) << 16);
        let identity = Arc::new(SigningIdentity::generate(KeyMaterial { seed }, "bank-tls"));
        let certificate = self.ca.issue(
            SubjectName::new("GridBank", "Server", &format!("branch-{branch:04}")),
            identity.verifying_key(),
            0,
            NOT_AFTER,
        )?;
        let server = GridBankServer::start_tuned(
            &self.network,
            address(branch),
            Arc::clone(&bank),
            ServerCredentials { certificate, identity, ca_key: self.ca.verifying_key() },
            seed ^ 0x5E,
            self.config.tuning,
        )?;
        let router = (self.live.len() > 1).then(|| FederationRouter::install(&bank));
        self.live[index(branch)] = Some(Live { bank, router, recovery, _server: server });
        Ok(())
    }

    /// Gives `from` a fresh, not yet dialled settlement route to `to`,
    /// replacing (and so hanging up) any earlier one.
    fn wire(&self, from: u16, to: u16) -> Result<(), DeployError> {
        let Some(router) = &self.slot(from)?.router else { return Ok(()) };
        let seed = self.config.seed ^ 0x5E77_0000 ^ (u64::from(from) << 8) ^ u64::from(to);
        let dn = SubjectName::new("GridBank", "Settlement", &format!("branch-{from:04}"));
        router.add_peer(to, self.identity(dn, seed)?.resilient(to).into_link());
        Ok(())
    }

    /// Certifies `dn` under the deployment's CA. `seed` keys the
    /// subject's end-entity identity, its proxies and its nonces.
    pub fn identity(&self, dn: SubjectName, seed: u64) -> Result<Identity, DeployError> {
        let key = SigningIdentity::generate_small(KeyMaterial { seed }, "client");
        let certificate = self.ca.issue(dn.clone(), key.verifying_key(), 0, NOT_AFTER)?;
        Ok(Identity {
            network: self.network.clone(),
            clock: self.clock.clone(),
            ca_key: self.ca.verifying_key(),
            dn,
            seed,
            certificate,
            key,
            proxy: None,
            proxies: 0,
            dials: 0,
        })
    }

    fn staff(&self, dn: String, branch: u16) -> Result<GridBankClient, DeployError> {
        let n = self.staff.fetch_add(1, Ordering::Relaxed);
        let seed = self.config.seed ^ 0xAD00_0000 ^ n;
        Ok(self.identity(SubjectName(dn), seed)?.connect(branch)?)
    }

    /// A connection to `branch` as [`OPERATOR`], the account
    /// administrator.
    pub fn admin(&self, branch: u16) -> Result<GridBankClient, DeployError> {
        self.staff(OPERATOR.into(), branch)
    }

    /// A connection to `branch` as the ops-plane administrator every
    /// branch enrols at boot: trusted to read telemetry, nothing more.
    pub fn ops(&self, branch: u16) -> Result<GridBankClient, DeployError> {
        self.staff(ops_identity("deploy"), branch)
    }

    /// Installs a fault injector for `plan` on the network — every link
    /// dialled from now on carries it — and returns it, disarmed.
    pub fn install_faults(&self, plan: FaultPlan) -> Arc<FaultInjector> {
        let injector = FaultInjector::new(plan);
        self.network.install_faults(Arc::clone(&injector));
        injector
    }

    /// Kills `branch`: stops its server, hangs up the peers' routes to
    /// it, and waits until no server thread still holds the bank, so a
    /// [`Deployment::reboot`] never reopens the store under a live
    /// writer. The caller drops its own clients of the branch first.
    pub fn kill(&mut self, branch: u16) -> Result<(), DeployError> {
        let live = self.live.get_mut(index(branch)).and_then(Option::take);
        let Live { bank, router, _server: server, .. } =
            live.ok_or(BankError::UnknownBranch(branch))?;
        drop(server);
        drop(router);
        for from in self.branch_ids().filter(|from| *from != branch) {
            if self.slot(from).is_ok() {
                self.wire(from, branch)?;
            }
        }
        let deadline = Instant::now() + KILL_WAIT;
        while Arc::strong_count(&bank) > 1 {
            if Instant::now() > deadline {
                let holders = Arc::strong_count(&bank).saturating_sub(1);
                return Err(DeployError::StillHeld { branch, holders });
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(())
    }

    /// Boots a killed `branch` again from its configuration — on the
    /// same store, when it has one — and re-dials its routes.
    pub fn reboot(&mut self, branch: u16) -> Result<(), DeployError> {
        if self.slot(branch).is_ok() {
            return Err(BankError::Protocol(format!("branch {branch} is still running")).into());
        }
        self.start(branch)?;
        for to in self.branch_ids().filter(|to| *to != branch) {
            if self.slot(to).is_ok() {
                self.wire(branch, to)?;
            }
        }
        Ok(())
    }
}
