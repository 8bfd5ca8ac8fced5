//! E1 — Figure 1 end to end, over the authenticated network path.
//!
//! One bank server, two providers (four resources total), one consumer.
//! Everything flows over mutually-authenticated secure channels: account
//! opening, deposits, cheque purchase, job execution, metering,
//! redemption, statements.

// Test fixtures build inputs with plain arithmetic; the workspace
// `clippy::arithmetic_side_effects` wall targets production money paths
// (see docs/STATIC_ANALYSIS.md §lint wall).
#![allow(clippy::arithmetic_side_effects)]

use gridbank_suite::bank::client::GridBankClient;
use gridbank_suite::bank::server::{GateMode, GridBankConfig};
use gridbank_suite::bank::BankError;
use gridbank_suite::crypto::cert::{
    create_proxy, CertificateAuthority, ProxyCertificate, SubjectName,
};
use gridbank_suite::crypto::keys::{KeyMaterial, SigningIdentity};
use gridbank_suite::crypto::rng::DeterministicStream;
use gridbank_suite::gsp::charging::PaymentInstrument;
use gridbank_suite::gsp::provider::{GridServiceProvider, GspConfig};
use gridbank_suite::meter::levels::AccountingLevel;
use gridbank_suite::meter::machine::{JobSpec, MachineSpec, OsFlavour};
use gridbank_suite::net::transport::Address;
use gridbank_suite::net::NetError;
use gridbank_suite::rur::codec::Decode;
use gridbank_suite::rur::record::{ChargeableItem, ResourceUsageRecord};
use gridbank_suite::rur::Credits;
use gridbank_suite::sim::deploy::{self, DeployConfig, Deployment};
use gridbank_suite::trade::pricing::FlatPricing;
use gridbank_suite::trade::rates::ServiceRates;

fn world(gate_mode: GateMode) -> Deployment {
    Deployment::boot(DeployConfig::single(GridBankConfig {
        gate_mode,
        signer_height: 9,
        ..GridBankConfig::default()
    }))
    .unwrap()
}

fn connect(w: &Deployment, cn: &str, seed: u64) -> Result<GridBankClient, BankError> {
    w.identity(SubjectName::new("Org", "Unit", cn), seed).unwrap().connect(1)
}

/// One handshake with a hand-minted (deliberately broken) credential,
/// against the deployment's network and CA key.
fn dial(
    w: &Deployment,
    proxy: &ProxyCertificate,
    proxy_id: &SigningIdentity,
    nonce_seed: u64,
) -> Result<GridBankClient, BankError> {
    GridBankClient::connect(
        &w.network,
        Address::new("intruder.host"),
        &deploy::address(1),
        w.ca.verifying_key(),
        w.clock.now_ms(),
        proxy,
        proxy_id,
        &mut DeterministicStream::from_u64(nonce_seed, b"nonce"),
    )
}

fn rates() -> ServiceRates {
    ServiceRates::new()
        .with(ChargeableItem::Cpu, Credits::from_gd(2))
        .with(ChargeableItem::Memory, Credits::from_milli(10))
        .with(ChargeableItem::Network, Credits::from_milli(5))
}

#[test]
fn figure1_interaction_over_the_wire() {
    let w = world(GateMode::AllowEnrollment);

    // Consumer and provider enroll over authenticated channels.
    let mut alice = connect(&w, "alice", 10).expect("alice connects");
    let alice_account = alice.create_account(Some("UWA".into())).unwrap();
    let mut gsp_client = connect(&w, "gsp-alpha", 11).expect("gsp connects");
    gsp_client.create_account(None).unwrap();

    let mut operator = w.admin(1).unwrap();
    operator.admin_deposit(alice_account, Credits::from_gd(200)).unwrap();

    // Two providers, four resources between them (R1-R4 of Figure 1);
    // this one serves the job, its GBCM redeeming over the wire.
    let gsp_cert = "/O=Org/OU=Unit/CN=gsp-alpha".to_string();
    let mut provider = GridServiceProvider::new(
        GspConfig {
            cert: gsp_cert.clone(),
            host: "gsp-alpha.grid.org".into(),
            machines: (1..=4)
                .map(|i| MachineSpec {
                    host: format!("r{i}"),
                    os: OsFlavour::Linux,
                    speed: 150,
                    cores: 4,
                    memory_mb: 8_192,
                })
                .collect(),
            base_rates: rates(),
            pool_size: 4,
            accounting_level: AccountingLevel::Standard,
            machine_seed: 7,
        },
        w.bank(1).unwrap().verifying_key(),
        gsp_client,
        Box::new(FlatPricing),
    );

    let quote = provider.quote(w.clock.now_ms(), 60_000).unwrap();
    let cheque = alice.request_cheque(&gsp_cert, Credits::from_gd(30), 600_000).unwrap();
    let job = JobSpec {
        work: 900_000,
        parallelism: 2,
        memory_mb: 512,
        storage_mb: 0,
        network_mb: 20,
        sys_pct: 5,
    };
    let outcome = provider
        .execute_job(
            "/O=Org/OU=Unit/CN=alice",
            PaymentInstrument::Cheque(cheque),
            &job,
            &quote.rates,
            w.clock.now_ms(),
        )
        .expect("job executes");

    assert!(outcome.charge.is_positive());
    assert_eq!(outcome.paid, outcome.charge);

    // Bank-side state reflects the deal, and the stored RUR decodes.
    let alice_rec = alice.my_account().unwrap();
    assert_eq!(alice_rec.available, Credits::from_gd(200).checked_sub(outcome.paid).unwrap());
    assert_eq!(alice_rec.locked, Credits::ZERO);
    let st = alice.statement(alice_account, 0, u64::MAX).unwrap();
    assert_eq!(st.transfers.len(), 1);
    let stored = ResourceUsageRecord::from_bytes(&st.transfers[0].rur_blob).unwrap();
    assert_eq!(stored, outcome.rur);
    assert_eq!(stored.resource.certificate_name, gsp_cert);
}

#[test]
fn strict_gate_refuses_unknown_subjects_at_connection() {
    let w = world(GateMode::Strict);
    // Nobody has an account yet: the connection itself is refused —
    // "clients simply cannot send any requests before a connection is
    // established" (§3.2).
    let err = match connect(&w, "stranger", 77) {
        Err(e) => e,
        Ok(_) => panic!("stranger should be refused"),
    };
    assert!(matches!(err, BankError::Net(NetError::Refused { .. })), "got {err:?}");

    // An admin is in the administrator table, so the gate admits them;
    // they can then act on the bank.
    let mut operator = w.admin(1).unwrap();
    // The admin has no account, and strict mode has no enrollment: the
    // protocol-level restriction still applies to account-less calls
    // other than account creation.
    let r = operator.my_account();
    assert!(r.is_err());
}

#[test]
fn forged_client_chain_never_reaches_the_bank() {
    let w = world(GateMode::AllowEnrollment);
    // A client whose certificate chain is signed by a rogue CA.
    let rogue_ca = CertificateAuthority::new(
        SubjectName::new("Rogue", "CA", "Root"),
        SigningIdentity::generate_small(KeyMaterial { seed: 666 }, "rogue"),
    );
    let id = SigningIdentity::generate_small(KeyMaterial { seed: 70 }, "mallory");
    let dn = SubjectName::new("Evil", "Org", "mallory");
    let cert = rogue_ca.issue(dn, id.verifying_key(), 0, u64::MAX / 2).unwrap();
    let proxy_id = SigningIdentity::generate_small(KeyMaterial { seed: 71 }, "proxy");
    let proxy = create_proxy(&id, &cert, proxy_id.verifying_key(), 0, u64::MAX / 2, 1).unwrap();
    assert!(dial(&w, &proxy, &proxy_id, 72).is_err());
}

#[test]
fn expired_proxy_is_rejected_later() {
    let w = world(GateMode::AllowEnrollment);
    // Issue a proxy valid only until t=1000.
    let id = SigningIdentity::generate_small(KeyMaterial { seed: 80 }, "carol");
    let dn = SubjectName::new("Org", "Unit", "carol");
    let cert = w.ca.issue(dn, id.verifying_key(), 0, u64::MAX / 2).unwrap();
    let proxy_id = SigningIdentity::generate_small(KeyMaterial { seed: 81 }, "proxy");
    let proxy = create_proxy(&id, &cert, proxy_id.verifying_key(), 0, 1_000, 1).unwrap();

    // Works now...
    assert!(dial(&w, &proxy, &proxy_id, 82).is_ok());

    // ...but not after the virtual clock passes the proxy expiry: single
    // sign-on credentials are short-lived by design.
    w.clock.advance(2_000);
    assert!(dial(&w, &proxy, &proxy_id, 83).is_err());
}
