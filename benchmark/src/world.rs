//! Standing up the system under test: a certificate authority, a bank,
//! its wire server on the in-process network, and authenticated clients.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gridbank_core::server::{GateMode, ServerCredentials};
use gridbank_core::{
    BankError, Clock, GridBank, GridBankClient, GridBankConfig, GridBankServer, GroupCommitConfig,
    RecoveryReport, ServerTuning, StoreConfig,
};
use gridbank_crypto::cert::{create_proxy, CertificateAuthority, SubjectName};
use gridbank_crypto::keys::{KeyMaterial, SigningIdentity};
use gridbank_crypto::rng::DeterministicStream;
use gridbank_net::transport::{Address, Network};

/// The administrator every bank config trusts by default.
pub const OPERATOR: &str = "/O=GridBank/OU=Admin/CN=operator";

/// Certificates and proxies never expire inside a run.
const NOT_AFTER: u64 = u64::MAX / 2;

/// Cores this process may use; the server gets one worker for each.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Client threads of a closed loop.
pub fn client_threads() -> usize {
    cores().min(2)
}

/// What a bank is built from, so a restart can build the same one.
#[derive(Clone)]
pub struct BankSpec {
    pub signer_height: usize,
    /// Extra administrator certificate names beside [`OPERATOR`].
    pub admins: Vec<String>,
    /// `Some` opens the bank on disk; `None` keeps it in memory.
    pub store: Option<StoreConfig>,
    /// Height of the server's handshake identity: one leaf per accepted
    /// connection.
    pub tls_height: usize,
}

pub fn new_ca(seed: u64) -> CertificateAuthority {
    CertificateAuthority::new(
        SubjectName::new("GridBank", "CA", "Root"),
        SigningIdentity::generate_with_height(KeyMaterial { seed: seed ^ 0xCA }, "ca", 8),
    )
}

pub fn subject(unit: &str, cn: &str) -> SubjectName {
    SubjectName::new("Bench", unit, cn)
}

pub struct World {
    pub network: Network,
    pub clock: Clock,
    pub ca: CertificateAuthority,
    pub bank: Arc<GridBank>,
    /// What recovery did, when the bank was opened on disk.
    pub recovery: Option<RecoveryReport>,
    server: GridBankServer,
    seed: u64,
    connections: u64,
}

impl World {
    /// Builds the bank (opening its store, if it has one) and starts its
    /// server with one worker per core.
    pub fn boot(seed: u64, ca: CertificateAuthority, spec: &BankSpec) -> Result<World, String> {
        let clock = Clock::new();
        let mut admins = vec![OPERATOR.to_string()];
        admins.extend(spec.admins.iter().cloned());
        let config = GridBankConfig {
            admins,
            key_material: KeyMaterial { seed: seed ^ 0xB4A2 },
            signer_height: spec.signer_height,
            gate_mode: GateMode::AllowEnrollment,
            group_commit: GroupCommitConfig::default(),
            ..GridBankConfig::default()
        };
        let (bank, recovery) = match &spec.store {
            None => (GridBank::new(config, clock.clone()), None),
            Some(store) => {
                let (bank, report) = GridBank::open_durable(config, clock.clone(), store.clone())
                    .map_err(|e| format!("open_durable: {e}"))?;
                (bank, Some(report))
            }
        };
        let bank = Arc::new(bank);
        let identity = Arc::new(SigningIdentity::generate_with_height(
            KeyMaterial { seed: seed ^ 0x715 },
            "bank-tls",
            spec.tls_height,
        ));
        let certificate = ca
            .issue(
                SubjectName::new("GridBank", "Server", "gridbank-0001"),
                identity.verifying_key(),
                0,
                NOT_AFTER,
            )
            .map_err(|e| format!("bank certificate: {e}"))?;
        let network = Network::new();
        let server = GridBankServer::start_tuned(
            &network,
            Address::new("bank"),
            Arc::clone(&bank),
            ServerCredentials { certificate, identity, ca_key: ca.verifying_key() },
            seed ^ 0x5E,
            ServerTuning {
                workers: cores(),
                queue_depth: 256,
                max_connections: 1 << spec.tls_height,
            },
        )
        .map_err(|e| format!("server start: {e}"))?;
        Ok(World { network, clock, ca, bank, recovery, server, seed, connections: 0 })
    }

    /// Boots and waits for the first answer over the wire: the caller's
    /// account record, or the bank's typed refusal when `first` has no
    /// account yet. Returns the seconds that took.
    pub fn boot_to_serving(
        seed: u64,
        ca: CertificateAuthority,
        spec: &BankSpec,
        first: &SubjectName,
    ) -> Result<(World, GridBankClient, f64), String> {
        let started = Instant::now();
        let mut world = World::boot(seed, ca, spec)?;
        let mut client = world.connect(first)?;
        match client.my_account() {
            Ok(_) | Err(BankError::NotAuthorized(_) | BankError::UnknownSubject(_)) => {}
            Err(e) => return Err(format!("first RPC after boot: {e}")),
        }
        Ok((world, client, started.elapsed().as_secs_f64()))
    }

    /// A fresh end-entity identity, its CA-issued certificate and a
    /// proxy good for `2^proxy_height` handshakes.
    pub fn credentials(
        &mut self,
        subject: &SubjectName,
        proxy_height: usize,
    ) -> Result<Credentials, String> {
        self.connections += 1;
        let seed = self.seed ^ (self.connections << 20);
        let identity = SigningIdentity::generate_small(KeyMaterial { seed }, "client");
        let certificate = self
            .ca
            .issue(subject.clone(), identity.verifying_key(), 0, NOT_AFTER)
            .map_err(|e| format!("certificate for {}: {e}", subject.0))?;
        let proxy_identity = SigningIdentity::generate_with_height(
            KeyMaterial { seed: seed ^ 0x9999 },
            "proxy",
            proxy_height,
        );
        let proxy =
            create_proxy(&identity, &certificate, proxy_identity.verifying_key(), 0, NOT_AFTER, 1)
                .map_err(|e| format!("proxy for {}: {e}", subject.0))?;
        Ok(Credentials {
            proxy,
            proxy_identity,
            nonces: DeterministicStream::from_u64(seed, b"bench-nonce"),
            host: format!("host-{}", self.connections),
            dials: 0,
        })
    }

    /// Connects `subject` through the full mutual-auth handshake.
    pub fn connect(&mut self, subject: &SubjectName) -> Result<GridBankClient, String> {
        let mut credentials = self.credentials(subject, 4)?;
        self.dial(&mut credentials).map_err(|e| format!("connect {}: {e}", subject.0))
    }

    /// One handshake with existing credentials.
    pub fn dial(&self, c: &mut Credentials) -> Result<GridBankClient, BankError> {
        c.dials += 1;
        GridBankClient::connect(
            &self.network,
            Address::new(format!("{}-{}", c.host, c.dials)),
            &Address::new("bank"),
            self.ca.verifying_key(),
            self.clock.now_ms(),
            &c.proxy,
            &c.proxy_identity,
            &mut c.nonces,
        )
    }

    /// Kills the bank: stops the server and waits until nothing holds
    /// the bank any more, so a reopen never overlaps the old instance.
    /// Every client must already be dropped. The CA outlives the bank.
    pub fn kill(self) -> Result<CertificateAuthority, String> {
        let World { network, ca, bank, server, .. } = self;
        drop(server);
        drop(network);
        let deadline = Instant::now() + Duration::from_secs(10);
        while Arc::strong_count(&bank) > 1 {
            if Instant::now() > deadline {
                return Err("server threads still hold the bank 10 s after shutdown".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(ca)
    }
}

/// What a subject needs to open connections.
pub struct Credentials {
    pub proxy: gridbank_crypto::cert::ProxyCertificate,
    pub proxy_identity: SigningIdentity,
    nonces: DeterministicStream,
    host: String,
    dials: u64,
}
