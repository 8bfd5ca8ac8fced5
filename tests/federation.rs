//! Trace-context propagation across federated forwarding (PR 6).
//!
//! A client-side root span must cover the whole cross-branch payment
//! path: the payer's `rpc_call`, branch 1's `rpc_serve`, the
//! inter-branch `rpc_call` branch 1 makes as a federation client to
//! ship the `IbCredit`, and branch 2's `rpc_serve` — one trace id
//! stitched across three independently-connected parties by the wire
//! protocol's 16-byte trace header. The same request, forced slow, must
//! land in the flight recorder as a complete tree.
//!
//! Kept to a single `#[test]` because the span store and flight
//! recorder are process-global.

// Test fixtures build inputs with plain arithmetic; the workspace
// `clippy::arithmetic_side_effects` wall targets production money paths
// (see docs/STATIC_ANALYSIS.md §lint wall).
#![allow(clippy::arithmetic_side_effects)]

use std::time::{Duration, Instant};

use gridbank_suite::bank::client::GridBankClient;
use gridbank_suite::bank::server::GridBankConfig;
use gridbank_suite::crypto::cert::SubjectName;
use gridbank_suite::crypto::keys::KeyMaterial;
use gridbank_suite::obs::flight;
use gridbank_suite::sim::deploy::{DeployConfig, Deployment};

/// Two live server stacks federated over real RPC: branch 1 routes to
/// branch 2 through a pooled resilient client, exactly like the CLI's
/// `settle` world.
fn two_branch_world() -> Deployment {
    Deployment::boot(DeployConfig::federated(2, |b| GridBankConfig {
        signer_height: 8,
        key_material: KeyMaterial { seed: 0xFED0 + b as u64 },
        ..GridBankConfig::default()
    }))
    .unwrap()
}

fn connect(world: &Deployment, dn: SubjectName, seed: u64, branch: u16) -> GridBankClient {
    world.identity(dn, seed).unwrap().connect(branch).unwrap()
}

#[test]
fn trace_context_crosses_federated_forwarding() {
    gridbank_suite::obs::set_telemetry(true);
    let world = two_branch_world();

    // A payee on branch 2 and a funded payer on branch 1: paying the
    // payee crosses the federation (clearing debit at branch 1, then an
    // exactly-once `IbCredit` shipped to branch 2 over live RPC).
    let mut payee = connect(&world, SubjectName::new("Test", "Traces", "payee"), 21, 2);
    let payee_account = payee.create_account(None).unwrap();
    let mut payer = connect(&world, SubjectName::new("Test", "Traces", "payer"), 11, 1);
    let payer_account = payer.create_account(None).unwrap();
    let mut admin = world.admin(1).unwrap();
    admin.admin_deposit(payer_account, gridbank_suite::rur::Credits::from_gd(100)).unwrap();

    // Retain everything: threshold 0 marks every request slow, so the
    // cross-branch payment below must land in the flight recorder.
    flight::configure(flight::FlightConfig { slow_threshold_us: 0, capacity: 8 });
    gridbank_suite::obs::set_flight_recorder(true);
    let _ = gridbank_suite::obs::take_spans();

    let trace_id = {
        let root = gridbank_suite::obs::root_span("test", "federated_payment");
        payer
            .direct_transfer(
                payee_account,
                gridbank_suite::rur::Credits::from_gd(1),
                "payee.vo2.org",
            )
            .unwrap();
        root.trace_id()
    };

    // Server-side serve spans close just after the reply is written, so
    // they can trail the client's return by a scheduling quantum.
    let deadline = Instant::now() + Duration::from_secs(10);
    let ours = loop {
        let spans = gridbank_suite::obs::buffered_spans();
        let ours: Vec<_> = spans.into_iter().filter(|s| s.trace_id == trace_id).collect();
        let serves = ours.iter().filter(|s| s.name == "rpc_serve").count();
        if serves >= 2 || Instant::now() > deadline {
            break ours;
        }
        std::thread::sleep(Duration::from_millis(5));
    };

    // One trace, two hops: the payer's rpc_call and branch 1's
    // rpc_serve, then the federation's own rpc_call shipping the
    // IbCredit and branch 2's rpc_serve — all under the client root.
    let count = |name: &str| ours.iter().filter(|s| s.name == name).count();
    assert!(count("rpc_serve") >= 2, "both serve spans in trace {trace_id:#x}: {ours:#?}");
    assert!(count("rpc_call") >= 2, "both call spans in trace {trace_id:#x}: {ours:#?}");
    assert_eq!(count("cross_branch_transfer"), 1, "{ours:#?}");
    assert_eq!(count("federated_payment"), 1, "{ours:#?}");

    // The tree is complete: exactly one root, and every other span's
    // parent is present in the same trace.
    let ids: std::collections::HashSet<u64> = ours.iter().map(|s| s.span_id).collect();
    let roots: Vec<_> = ours.iter().filter(|s| s.parent_span == 0).collect();
    assert_eq!(roots.len(), 1, "{ours:#?}");
    assert_eq!(roots[0].name, "federated_payment");
    for span in &ours {
        assert!(
            span.parent_span == 0 || ids.contains(&span.parent_span),
            "span {} ({}) has a parent outside the trace:\n{ours:#?}",
            span.span_id,
            span.name,
        );
    }

    // The forced-slow request was retained by the flight recorder with
    // its full cross-process tree, and the dump renders it.
    let retained = flight::retained();
    let tree = retained
        .iter()
        .find(|t| t.trace_id == trace_id)
        .unwrap_or_else(|| panic!("trace {trace_id:#x} not retained: {retained:#?}"));
    assert!(tree.spans.iter().filter(|s| s.name == "rpc_serve").count() >= 2, "{tree:#?}");
    let dump = flight::dump();
    assert!(dump.contains("federated_payment"), "{dump}");
    assert!(dump.contains("rpc_serve"), "{dump}");

    gridbank_suite::obs::set_flight_recorder(false);

    // Sanity: the credit really landed on branch 2.
    let rec = world.bank(2).unwrap().accounts.account_details(&payee_account).unwrap();
    assert_eq!(rec.available, gridbank_suite::rur::Credits::from_gd(1));
}
