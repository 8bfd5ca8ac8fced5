//! Full §5.2/§5.2.1 API surface over the authenticated wire: every
//! operation the paper lists, exercised through the remote client against
//! a live server, including the admin suite and hash chains.

// Test fixtures build inputs with plain arithmetic; the workspace
// `clippy::arithmetic_side_effects` wall targets production money paths
// (see docs/STATIC_ANALYSIS.md §lint wall).
#![allow(clippy::arithmetic_side_effects)]

use gridbank_suite::bank::client::GridBankClient;
use gridbank_suite::bank::db::TransactionType;
use gridbank_suite::bank::pricing::ResourceDescription;
use gridbank_suite::bank::server::GridBankConfig;
use gridbank_suite::bank::BankError;
use gridbank_suite::crypto::cert::SubjectName;
use gridbank_suite::rur::record::{ChargeableItem, RurBuilder, UsageAmount};
use gridbank_suite::rur::units::Duration;
use gridbank_suite::rur::Credits;
use gridbank_suite::sim::deploy::{DeployConfig, Deployment};

fn world() -> Deployment {
    Deployment::boot(DeployConfig::single(GridBankConfig {
        signer_height: 10,
        ..GridBankConfig::default()
    }))
    .unwrap()
}

fn connect(w: &Deployment, dn: SubjectName, seed: u64) -> GridBankClient {
    w.identity(dn, seed).unwrap().connect(1).expect("connects")
}

#[test]
fn every_listed_operation_works_over_the_wire() {
    let w = world();
    let mut admin = connect(&w, SubjectName("/O=GridBank/OU=Admin/CN=operator".into()), 50);
    let mut alice = connect(&w, SubjectName::new("UWA", "CSSE", "alice"), 51);
    let mut gsp = connect(&w, SubjectName::new("UM", "GRIDS", "gsp"), 52);
    let gsp_cert = "/O=UM/OU=GRIDS/CN=gsp".to_string();

    // Create New Account.
    let alice_acct = alice.create_account(Some("UWA".into())).unwrap();
    let gsp_acct = gsp.create_account(None).unwrap();

    // Admin: deposit + change credit limit.
    admin.admin_deposit(alice_acct, Credits::from_gd(100)).unwrap();
    admin.admin_credit_limit(alice_acct, Credits::from_gd(10)).unwrap();

    // Check Balance / Request Account Details.
    let rec = alice.my_account().unwrap();
    assert_eq!(rec.available, Credits::from_gd(100));
    assert_eq!(rec.credit_limit, Credits::from_gd(10));
    assert_eq!(alice.account_details(alice_acct).unwrap().id, alice_acct);

    // Update Account Details (org only).
    alice
        .update_account(alice_acct, "/O=UWA/OU=CSSE/CN=alice".into(), Some("UWA-HPC".into()))
        .unwrap();
    assert_eq!(alice.my_account().unwrap().organization.as_deref(), Some("UWA-HPC"));

    // Perform Funds Availability Check (locks).
    alice.check_funds(alice_acct, Credits::from_gd(5)).unwrap();
    assert_eq!(alice.my_account().unwrap().locked, Credits::from_gd(5));

    // Request Direct Transfer with confirmation.
    let conf = alice.direct_transfer(gsp_acct, Credits::from_gd(7), "gsp.host").unwrap();
    conf.verify(&w.bank(1).unwrap().verifying_key()).unwrap();

    // Request + Redeem GridCheque.
    let cheque = alice.request_cheque(&gsp_cert, Credits::from_gd(20), 1_000_000).unwrap();
    let rur = RurBuilder::default()
        .user("h", "/O=UWA/OU=CSSE/CN=alice")
        .job("j", "a", 0, 3_600_000)
        .resource("r", &gsp_cert, None, 1)
        .line(ChargeableItem::Cpu, UsageAmount::Time(Duration::from_hours(1)), Credits::from_gd(4))
        .build()
        .unwrap();
    let (paid, released) = gsp.redeem_cheque(cheque, rur).unwrap();
    assert_eq!(paid, Credits::from_gd(4));
    assert_eq!(released, Credits::from_gd(16));

    // Request + Redeem GridHash chain (incremental), then close at expiry.
    let chain = alice.request_hash_chain(&gsp_cert, 10, Credits::from_gd(1), 5_000).unwrap();
    chain.verify(&w.bank(1).unwrap().verifying_key()).unwrap();
    let pw = chain.payword(6).unwrap();
    let paid =
        gsp.redeem_payword(chain.commitment.clone(), chain.signature.clone(), pw, vec![]).unwrap();
    assert_eq!(paid, Credits::from_gd(6));
    w.clock.advance(10_000);
    let released = alice.close_hash_chain(chain.commitment.clone()).unwrap();
    assert_eq!(released, Credits::from_gd(4));

    // Register description + estimate (history exists from the cheque).
    let desc = ResourceDescription {
        cpu_speed: 1000,
        cpu_count: 4,
        memory_mb: 8_192,
        storage_mb: 100_000,
        bandwidth_mbps: 1_000,
    };
    gsp.register_resource_description(desc).unwrap();
    // Feed one more redemption so the estimator has an observation bound
    // to the registered description.
    let cheque = alice.request_cheque(&gsp_cert, Credits::from_gd(10), 1_000_000).unwrap();
    let rur = RurBuilder::default()
        .user("h", "/O=UWA/OU=CSSE/CN=alice")
        .job("j2", "a", 0, 3_600_000)
        .resource("r", &gsp_cert, None, 2)
        .line(ChargeableItem::Cpu, UsageAmount::Time(Duration::from_hours(2)), Credits::from_gd(3))
        .build()
        .unwrap();
    gsp.redeem_cheque(cheque, rur).unwrap();
    let estimate = alice.estimate_price(desc, 0).unwrap();
    assert_eq!(estimate, Credits::from_gd(3));

    // Request Account Statement: full history on both sides.
    let st = alice.statement(alice_acct, 0, u64::MAX).unwrap();
    assert!(st.transactions.iter().any(|t| t.tx_type == TransactionType::Deposit));
    assert!(st.transfers.len() >= 3); // direct + 2 cheques + chain legs

    // Admin: cancel the direct transfer.
    admin.admin_cancel_transfer(conf.body.transaction_id).unwrap();

    // Admin: withdraw + close the GSP account into Alice's.
    let gsp_balance = gsp.my_account().unwrap().available;
    admin.admin_withdraw(gsp_acct, Credits::from_gd(1)).unwrap();
    admin.admin_close_account(gsp_acct, Some(alice_acct)).unwrap();
    // After closure the subject is gone: the protocol gate answers
    // NotAuthorized (it can only enroll again).
    assert!(matches!(
        gsp.my_account(),
        Err(BankError::NotAuthorized(_) | BankError::UnknownSubject(_))
    ));
    // Alice received the remainder.
    let expected = gsp_balance
        .checked_sub(Credits::from_gd(1)) // withdrawn
        .unwrap()
        .checked_sub(Credits::from_gd(7)) // cancelled direct transfer went back earlier
        .unwrap();
    let alice_final = alice.my_account().unwrap();
    assert!(alice_final.available >= expected, "{alice_final:?} vs {expected}");

    // Conservation: the bank's books still balance (withdrawals left).
    assert!(w.bank(1).unwrap().accounts.db().total_funds().is_positive());
}

#[test]
fn batch_redemption_over_the_wire_is_per_entry() {
    let w = world();
    let mut admin = connect(&w, SubjectName("/O=GridBank/OU=Admin/CN=operator".into()), 70);
    let mut alice = connect(&w, SubjectName::new("UWA", "CSSE", "alice"), 71);
    let mut gsp = connect(&w, SubjectName::new("UM", "GRIDS", "gsp"), 72);
    let gsp_cert = "/O=UM/OU=GRIDS/CN=gsp".to_string();
    let alice_acct = alice.create_account(None).unwrap();
    gsp.create_account(None).unwrap();
    admin.admin_deposit(alice_acct, Credits::from_gd(100)).unwrap();

    let mk_rur = |provider: &str, hours: u64| {
        RurBuilder::default()
            .user("h", "/O=UWA/OU=CSSE/CN=alice")
            .job(format!("j-{provider}-{hours}"), "a", 0, hours * 3_600_000)
            .resource("r", provider, None, 1)
            .line(
                ChargeableItem::Cpu,
                UsageAmount::Time(Duration::from_hours(hours)),
                Credits::from_gd(2),
            )
            .build()
            .unwrap()
    };
    let c1 = alice.request_cheque(&gsp_cert, Credits::from_gd(10), 1_000_000).unwrap();
    let c2 = alice.request_cheque(&gsp_cert, Credits::from_gd(10), 1_000_000).unwrap();
    let c3 = alice.request_cheque(&gsp_cert, Credits::from_gd(10), 1_000_000).unwrap();

    let results = gsp
        .redeem_cheque_batch(vec![
            (c1, mk_rur(&gsp_cert, 1)),          // ok: 2 G$
            (c2, mk_rur("/CN=someone-else", 1)), // wrong provider
            (c3, mk_rur(&gsp_cert, 3)),          // ok: 6 G$
        ])
        .unwrap();
    assert_eq!(results.len(), 3);
    assert_eq!(results[0].as_ref().unwrap().0, Credits::from_gd(2));
    assert!(matches!(results[1], Err(BankError::InvalidInstrument(_))));
    assert_eq!(results[2].as_ref().unwrap().0, Credits::from_gd(6));
    // The failed entry's reservation is still locked (reclaimable later).
    let rec = alice.my_account().unwrap();
    assert_eq!(rec.locked, Credits::from_gd(10));
    assert_eq!(gsp.my_account().unwrap().available, Credits::from_gd(8));
}

#[test]
fn client_trace_context_propagates_into_server_spans_and_audit_trail() {
    use gridbank_suite::obs;

    let w = world();
    // Telemetry is process-global: sibling tests in this binary may emit
    // spans too, so every assertion below filters by this root's id.
    obs::set_telemetry(true);
    let root = obs::root_span("test", "wire_trace");
    let root_id = root.trace_id();
    assert_ne!(root_id, 0, "live root span carries a trace id");

    let mut admin = connect(&w, SubjectName("/O=GridBank/OU=Admin/CN=operator".into()), 80);
    let mut alice = connect(&w, SubjectName::new("UWA", "CSSE", "alice"), 81);
    let mut gsp = connect(&w, SubjectName::new("UM", "GRIDS", "gsp"), 82);
    let alice_acct = alice.create_account(None).unwrap();
    let gsp_acct = gsp.create_account(None).unwrap();
    admin.admin_deposit(alice_acct, Credits::from_gd(50)).unwrap();
    let signed_before = obs::registry().histogram("core.signer.sign_ns").count();
    alice.direct_transfer(gsp_acct, Credits::from_gd(3), "gsp.host").unwrap();
    // The confirmation's signature was timed on its own, inside dispatch.
    assert!(obs::registry().histogram("core.signer.sign_ns").count() > signed_before);
    let st = alice.statement(alice_acct, 0, u64::MAX).unwrap();

    drop(root);
    let spans = obs::take_spans();
    obs::set_telemetry(false);

    // The client's trace id crossed the wire: spans from the transport,
    // the security layer, and both bank layers all share it.
    let components: Vec<&str> =
        spans.iter().filter(|s| s.trace_id == root_id).map(|s| s.component).collect();
    for expected in ["net", "server.security", "server.accounts", "server.payment"] {
        assert!(
            components.contains(&expected),
            "no {expected} span joined trace {root_id:#x}: {components:?}"
        );
    }
    // The server-side handler for the transfer sits under the trace and
    // names the variant it dispatched.
    assert!(spans.iter().any(|s| s.trace_id == root_id
        && s.component == "server.payment"
        && s.name == "DirectTransfer"));
    // And the audit trail correlates: the committed transfer record was
    // stamped with the same trace id.
    let transfer = st.transfers.first().expect("transfer recorded");
    assert_eq!(transfer.trace_id, root_id);
    // The rendered tree places the remote spans under the client's root.
    let rendered = obs::render_trace(root_id, &spans);
    assert!(rendered.contains("test::wire_trace"));
    assert!(rendered.contains("server.payment::DirectTransfer"));
}

#[test]
fn non_admin_cannot_call_admin_operations_remotely() {
    let w = world();
    let mut mallory = connect(&w, SubjectName::new("E", "E", "mallory"), 60);
    let acct = mallory.create_account(None).unwrap();
    for result in [
        mallory.admin_deposit(acct, Credits::from_gd(1_000_000)).map(|_| ()),
        mallory.admin_withdraw(acct, Credits::from_gd(1)).map(|_| ()),
        mallory.admin_credit_limit(acct, Credits::from_gd(9)).map(|_| ()),
        mallory.admin_cancel_transfer(1).map(|_| ()),
        mallory.admin_close_account(acct, None),
    ] {
        assert!(matches!(result, Err(BankError::NotAuthorized(_))), "{result:?}");
    }
    // And the account is untouched.
    assert_eq!(mallory.my_account().unwrap().available, Credits::ZERO);
}
