//! E6 — §2.3 access scalability: many consumers share a small pool of
//! template accounts with dynamic grid-mapfile bindings, concurrently.

// Test fixtures build inputs with plain arithmetic; the workspace
// `clippy::arithmetic_side_effects` wall targets production money paths
// (see docs/STATIC_ANALYSIS.md §lint wall).
#![allow(clippy::arithmetic_side_effects)]

use std::sync::Arc;
use std::time::Duration as StdDuration;

use gridbank_suite::bank::api::BankRequest;
use gridbank_suite::bank::clock::Clock;
use gridbank_suite::bank::port::InProcessBank;
use gridbank_suite::bank::server::{GridBank, GridBankConfig};
use gridbank_suite::crypto::cert::SubjectName;
use gridbank_suite::gsp::charging::PaymentInstrument;
use gridbank_suite::gsp::provider::{GridServiceProvider, GspConfig};
use gridbank_suite::gsp::template::TemplatePool;
use gridbank_suite::gsp::GridMapfile;
use gridbank_suite::meter::levels::AccountingLevel;
use gridbank_suite::meter::machine::{JobSpec, MachineSpec, OsFlavour};
use gridbank_suite::rur::record::ChargeableItem;
use gridbank_suite::rur::Credits;
use gridbank_suite::trade::pricing::FlatPricing;
use gridbank_suite::trade::rates::ServiceRates;

#[test]
fn many_consumers_few_template_accounts() {
    // 24 consumers, pool of 3 accounts: everyone eventually gets served
    // because bindings are transient.
    let pool = Arc::new(TemplatePool::new("grid", 3, 0o700));
    let mapfile = Arc::new(GridMapfile::new());
    let served = Arc::new(std::sync::atomic::AtomicUsize::new(0));

    std::thread::scope(|s| {
        for c in 0..24 {
            let pool = pool.clone();
            let mapfile = mapfile.clone();
            let served = served.clone();
            s.spawn(move || {
                let cert = format!("/CN=consumer-{c}");
                let account = pool
                    .acquire(StdDuration::from_secs(10))
                    .expect("pool should cycle fast enough");
                mapfile.bind(&cert, &account.local_name).expect("fresh binding");
                // "Execute" briefly while bound.
                std::thread::yield_now();
                assert_eq!(mapfile.lookup(&cert).as_deref(), Some(account.local_name.as_str()));
                mapfile.unbind(&cert).expect("still bound");
                pool.release(account);
                served.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            });
        }
    });

    assert_eq!(served.load(std::sync::atomic::Ordering::Relaxed), 24);
    assert_eq!(pool.free_count(), 3);
    assert!(mapfile.is_empty(), "all bindings removed after execution");
    let stats = pool.stats();
    assert_eq!(stats.acquisitions, 24);
    assert_eq!(stats.releases, 24);
    assert!(stats.high_watermark <= 3);
}

#[test]
fn provider_pipeline_recycles_accounts_across_paying_consumers() {
    let bank = Arc::new(GridBank::new(
        GridBankConfig { signer_height: 9, ..GridBankConfig::default() },
        Clock::new(),
    ));
    let admin = SubjectName("/O=GridBank/OU=Admin/CN=operator".into());
    let gsp = SubjectName::new("UM", "GRIDS", "gsp");
    let mut gsp_port = InProcessBank::new(bank.clone(), gsp.clone());
    gsp_port.create_account(None).unwrap();
    let rates = ServiceRates::new().with(ChargeableItem::Cpu, Credits::from_gd(1));
    let mut provider = GridServiceProvider::new(
        GspConfig {
            cert: gsp.0.clone(),
            host: "gsp.grid.org".into(),
            machines: vec![MachineSpec {
                host: "node".into(),
                os: OsFlavour::Linux,
                speed: 500,
                cores: 8,
                memory_mb: 16_384,
            }],
            base_rates: rates.clone(),
            pool_size: 2, // deliberately tiny
            accounting_level: AccountingLevel::Standard,
            machine_seed: 3,
        },
        bank.verifying_key(),
        InProcessBank::new(bank.clone(), gsp.clone()),
        Box::new(FlatPricing),
    );

    // 10 distinct consumers run jobs sequentially through a pool of 2.
    let mut local_accounts = std::collections::HashSet::new();
    for c in 0..10 {
        let consumer = SubjectName::new("Org", "Users", &format!("user-{c}"));
        let mut port = InProcessBank::new(bank.clone(), consumer.clone());
        let account = port.create_account(None).unwrap();
        bank.handle(&admin, BankRequest::AdminDeposit { account, amount: Credits::from_gd(10) });
        let cheque = port.request_cheque(&gsp.0, Credits::from_gd(5), 1_000_000).unwrap();
        let outcome = provider
            .execute_job(
                &consumer.0,
                PaymentInstrument::Cheque(cheque),
                &JobSpec::cpu_bound(100_000),
                &rates,
                0,
            )
            .unwrap();
        local_accounts.insert(outcome.local_account);
    }
    assert_eq!(provider.jobs_served, 10);
    // Only pool accounts were ever used.
    assert!(local_accounts.len() <= 2, "used {local_accounts:?}");
    assert!(provider.mapfile.is_empty());
    assert_eq!(provider.pool.free_count(), 2);
    // Every consumer is charged against their own bank account.
    for c in 0..10 {
        let rec = bank.accounts.account_by_cert(&format!("/O=Org/OU=Users/CN=user-{c}")).unwrap();
        assert!(rec.available < Credits::from_gd(10), "user-{c} was never charged");
        assert_eq!(rec.locked, Credits::ZERO);
    }
}

#[test]
fn binding_conflicts_are_impossible_by_construction() {
    // Even under racing bind attempts, a local account never serves two
    // certs and a cert never holds two accounts.
    let mapfile = Arc::new(GridMapfile::new());
    let pool = Arc::new(TemplatePool::new("grid", 4, 0o700));
    std::thread::scope(|s| {
        for t in 0..8 {
            let mapfile = mapfile.clone();
            let pool = pool.clone();
            s.spawn(move || {
                for i in 0..100 {
                    let cert = format!("/CN=t{t}-i{i}");
                    if let Some(acct) = pool.try_acquire() {
                        mapfile.bind(&cert, &acct.local_name).expect("fresh pair");
                        mapfile.unbind(&cert).unwrap();
                        pool.release(acct);
                    }
                }
            });
        }
    });
    assert!(mapfile.is_empty());
    assert_eq!(pool.free_count(), 4);
}
