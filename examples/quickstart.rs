//! Quickstart: the complete Figure 1 interaction, over the wire.
//!
//! One GridBank server, one consumer (Alice), one provider (gsp-alpha):
//!
//! 1. one `Deployment` boots the CA, the bank and its server, which
//!    gates connections on its account tables;
//! 2. a CA-certified Alice signs a *proxy* (single sign-on);
//! 3. both parties open accounts over mutually-authenticated channels;
//! 4. Alice buys a GridCheque; the provider validates it, executes her
//!    job under a template account, meters usage into a GGF RUR,
//!    and redeems cheque + RUR with the bank;
//! 5. statements show the transfer with the RUR stored as evidence.
//!
//! Run with: `cargo run --example quickstart`
//!
//! Pass `--trace` to enable telemetry: the whole flow runs under one
//! trace whose span tree (broker, net, server layers, GSP charging) is
//! printed at the end, and whose trace id is stamped into the bank's
//! transfer record — the audit trail and the trace correlate.

use gridbank_suite::bank::server::GridBankConfig;
use gridbank_suite::broker::payment::PaymentModule;
use gridbank_suite::crypto::cert::SubjectName;
use gridbank_suite::gsp::charging::PaymentInstrument;
use gridbank_suite::gsp::provider::{GridServiceProvider, GspConfig};
use gridbank_suite::meter::levels::AccountingLevel;
use gridbank_suite::meter::machine::{JobSpec, MachineSpec, OsFlavour};
use gridbank_suite::rur::record::ChargeableItem;
use gridbank_suite::rur::Credits;
use gridbank_suite::sim::deploy::{self, DeployConfig, Deployment};
use gridbank_suite::trade::pricing::FlatPricing;
use gridbank_suite::trade::rates::ServiceRates;

fn main() {
    println!("=== GridBank quickstart: Figure 1, end to end ===\n");

    let tracing = std::env::args().any(|a| a == "--trace");
    if tracing {
        gridbank_suite::obs::set_telemetry(true);
    }
    // While live, every client call below carries this root's trace
    // context over the wire, so the server's spans join the same trace.
    let root = tracing.then(|| gridbank_suite::obs::root_span("quickstart", "figure1"));
    let root_trace_id = root.as_ref().map_or(0, |s| s.trace_id());

    // --- PKI, bank and server, booted the one way (DESIGN.md §4) ---------
    // A CA everyone trusts, the bank, and its server gating connections
    // on the account tables, all on a private in-process network.
    let world =
        Deployment::boot(DeployConfig::single(GridBankConfig::default())).expect("bank boots");
    let (bank, clock) = (world.bank(1).expect("branch 1 runs"), &world.clock);
    println!("[pki ] CA online: {}", world.ca.name());
    println!("[bank] GridBank listening at {}\n", deploy::address(1).0);

    // --- Accounts over authenticated channels -------------------------
    // Each party holds a CA-issued long-term certificate and connects
    // with a short-lived proxy it signed itself — the single sign-on
    // credential everything else uses.
    let alice_dn = SubjectName::new("UWA", "CSSE", "alice");
    let gsp_dn = SubjectName::new("UniMelb", "GRIDS", "gsp-alpha");
    let connect = |dn: &SubjectName, seed: u64| {
        let mut identity = world.identity(dn.clone(), seed).expect("issue certificate");
        identity.connect(1).expect("handshake with the bank")
    };

    let mut alice = connect(&alice_dn, 10);
    let alice_account = alice.create_account(Some("UWA".into())).expect("alice account");
    println!("[gsc ] Alice opened account {alice_account}");

    let mut gsp_client = connect(&gsp_dn, 11);
    let gsp_account = gsp_client.create_account(Some("UniMelb".into())).expect("gsp account");
    println!("[gsp ] gsp-alpha opened account {gsp_account}");

    let mut operator = world.admin(1).expect("operator connects");
    operator.admin_deposit(alice_account, Credits::from_gd(100)).expect("admin deposit");
    println!("[bank] operator deposited G$100 into Alice's account\n");

    // --- The provider --------------------------------------------------
    let rates = ServiceRates::new()
        .with(ChargeableItem::Cpu, Credits::from_gd(2))
        .with(ChargeableItem::Memory, Credits::from_milli(10))
        .with(ChargeableItem::Network, Credits::from_milli(5));
    let mut provider = GridServiceProvider::new(
        GspConfig {
            cert: gsp_dn.0.clone(),
            host: "gsp-alpha.grid.org".into(),
            machines: vec![MachineSpec {
                host: "node-1".into(),
                os: OsFlavour::Linux,
                speed: 200,
                cores: 8,
                memory_mb: 32_768,
            }],
            base_rates: rates,
            pool_size: 4,
            accounting_level: AccountingLevel::Standard,
            machine_seed: 1234,
        },
        bank.verifying_key(),
        gsp_client, // the provider's GBCM talks to the bank over the wire
        Box::new(FlatPricing),
    );

    // --- Negotiate, pay, execute (Figure 1 steps) ----------------------
    let quote = provider.quote(clock.now_ms(), 60_000).expect("GTS quote");
    println!(
        "[gts ] quoted rates: {} per CPU-hour (quote #{})",
        quote.rates.price(ChargeableItem::Cpu).unwrap(),
        quote.quote_id
    );

    let mut gbpm = PaymentModule::new(alice, Credits::from_gd(50));
    let cheque =
        gbpm.obtain_cheque(&gsp_dn.0, Credits::from_gd(20), 600_000).expect("GridCheque issued");
    println!(
        "[gbpm] GridCheque #{} for {} payable to {}",
        cheque.body.cheque_id, cheque.body.reserved, cheque.body.payee_cert
    );

    let job = JobSpec {
        work: 1_200_000, // ~6s on this machine
        parallelism: 4,
        memory_mb: 2_048,
        storage_mb: 0,
        network_mb: 120,
        sys_pct: 8,
    };
    let outcome = provider
        .execute_job(
            &alice_dn.0,
            PaymentInstrument::Cheque(cheque.clone()),
            &job,
            &quote.rates,
            clock.now_ms(),
        )
        .expect("job executes and settles");
    gbpm.settle_cheque(&cheque, outcome.paid);

    println!(
        "[gsp ] job ran under template account `{}` on {}",
        outcome.local_account, outcome.machine_host
    );
    println!(
        "[grm ] RUR: {} usage lines, span {}",
        outcome.rur.lines.len(),
        outcome.rur.job.span()
    );
    for line in &outcome.rur.lines {
        println!(
            "        {:<9} {:>14}  @ {}/{}",
            line.item.name(),
            line.usage.to_string(),
            line.price_per_unit,
            line.item.unit()
        );
    }
    println!(
        "[gbcm] charge {} — paid {}, released {}\n",
        outcome.charge, outcome.paid, outcome.released
    );

    // --- Statements -----------------------------------------------------
    let mut alice = gbpm.port; // reclaim the client
    let record = alice.my_account().expect("balance");
    println!("[bank] Alice:     available {}, locked {}", record.available, record.locked);
    let st = alice.statement(alice_account, 0, u64::MAX).expect("statement");
    println!(
        "[bank] statement: {} transactions, {} transfer (RUR evidence {} bytes)",
        st.transactions.len(),
        st.transfers.len(),
        st.transfers.first().map(|t| t.rur_blob.len()).unwrap_or(0)
    );

    if tracing {
        drop(root);
        let spans = gridbank_suite::obs::take_spans();
        println!("\n--- span trace ---");
        print!("{}", gridbank_suite::obs::render_trace(root_trace_id, &spans));
        let audit_trace = st.transfers.first().map(|t| t.trace_id).unwrap_or(0);
        println!(
            "[obs ] transfer record trace id {audit_trace:#018x} {} root trace",
            if audit_trace == root_trace_id { "matches" } else { "DOES NOT MATCH" }
        );
        assert_eq!(audit_trace, root_trace_id, "audit trail correlates with the trace");
    }

    println!("\nDone: consumer, provider and bank agree, with a signed audit trail.");
}
