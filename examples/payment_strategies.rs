//! Tour of the three payment strategies (§3.1) and the DBC scheduling
//! algorithms behind the broker (§2.2, refs [2,5]).
//!
//! Part 1 pays for the same job three ways — pay-before-use (direct
//! transfer), pay-as-you-go (GridHash chain), pay-after-use (GridCheque)
//! — and shows what each party holds afterwards.
//!
//! Part 2 sweeps a batch over deadline×budget with all four DBC
//! algorithms, printing the completion/cost/makespan table the Nimrod-G
//! evaluations report.
//!
//! Run with: `cargo run --example payment_strategies`

use std::sync::Arc;

use gridbank_suite::bank::api::BankRequest;
use gridbank_suite::bank::clock::Clock;
use gridbank_suite::bank::port::{DirectLink, InProcessBank};
use gridbank_suite::bank::server::{GridBank, GridBankConfig};
use gridbank_suite::broker::broker::GridResourceBroker;
use gridbank_suite::broker::job::{JobBatch, QosConstraints};
use gridbank_suite::broker::payment::PaymentModule;
use gridbank_suite::broker::scheduling::Algorithm;
use gridbank_suite::crypto::cert::SubjectName;
use gridbank_suite::gsp::charging::PaymentInstrument;
use gridbank_suite::gsp::provider::{GridServiceProvider, GspConfig};
use gridbank_suite::meter::levels::AccountingLevel;
use gridbank_suite::meter::machine::{JobSpec, MachineSpec, OsFlavour};
use gridbank_suite::rur::record::ChargeableItem;
use gridbank_suite::rur::units::MS_PER_HOUR;
use gridbank_suite::rur::Credits;
use gridbank_suite::trade::pricing::FlatPricing;
use gridbank_suite::trade::rates::ServiceRates;

fn make_provider(
    bank: &Arc<GridBank>,
    name: &str,
    speed: u32,
    price: Credits,
    seed: u64,
) -> GridServiceProvider<DirectLink> {
    let cert = format!("/O=Grid/OU=GSP/CN={name}");
    let subject = SubjectName(cert.clone());
    let mut port = InProcessBank::new(bank.clone(), subject.clone());
    port.create_account(None).expect("provider account");
    GridServiceProvider::new(
        GspConfig {
            cert,
            host: format!("{name}.grid.org"),
            machines: vec![MachineSpec {
                host: format!("{name}-node"),
                os: OsFlavour::Linux,
                speed,
                cores: 4,
                memory_mb: 16_384,
            }],
            base_rates: ServiceRates::new().with(ChargeableItem::Cpu, price),
            pool_size: 8,
            accounting_level: AccountingLevel::Standard,
            machine_seed: seed,
        },
        bank.verifying_key(),
        InProcessBank::new(bank.clone(), subject),
        Box::new(FlatPricing),
    )
}

fn main() {
    let clock = Clock::new();
    let bank = Arc::new(GridBank::new(GridBankConfig::default(), clock.clone()));
    let admin = SubjectName("/O=GridBank/OU=Admin/CN=operator".into());
    let alice = SubjectName::new("UWA", "CSSE", "alice");
    let mut alice_port = InProcessBank::new(bank.clone(), alice.clone());
    let alice_account = alice_port.create_account(None).expect("account");
    bank.handle(
        &admin,
        BankRequest::AdminDeposit { account: alice_account, amount: Credits::from_gd(10_000) },
    );

    println!("=== Part 1: the three payment strategies (§3.1) ===\n");
    let rates = ServiceRates::new().with(ChargeableItem::Cpu, Credits::from_gd(2));
    let job = JobSpec {
        work: 720_000,
        parallelism: 1,
        memory_mb: 0,
        storage_mb: 0,
        network_mb: 0,
        sys_pct: 0,
    };

    // -- Pay before use ------------------------------------------------
    let mut p1 = make_provider(&bank, "gsp-prepaid", 100, Credits::from_gd(2), 1);
    let p1_account = p1.gbcm.port.my_account().unwrap().id;
    let fixed_price = Credits::from_gd(5);
    let conf = alice_port
        .direct_transfer(p1_account, fixed_price, "gsp-prepaid.grid.org")
        .expect("prepay");
    let out = p1
        .execute_job(&alice.0, PaymentInstrument::Prepaid(conf), &job, &rates, clock.now_ms())
        .expect("prepaid job");
    println!("pay-before-use : fixed price {fixed_price}, metered charge {} (provider keeps the fixed price)", out.charge);

    // -- Pay as you go ---------------------------------------------------
    let mut p2 = make_provider(&bank, "gsp-streaming", 100, Credits::from_gd(2), 2);
    let chain = alice_port
        .request_hash_chain(&p2.cert, 5_000, Credits::from_milli(1), 10_000_000)
        .expect("hash chain");
    let commitment = chain.commitment.clone();
    let signature = chain.signature.clone();
    let mut revealed = 0u32;
    let out = {
        let mut source = |k: u32| {
            revealed = k;
            chain.payword(k).map_err(gridbank_suite::gsp::GspError::Bank)
        };
        p2.execute_streamed_job(
            &alice.0,
            &commitment,
            &signature,
            &mut source,
            &job,
            &rates,
            clock.now_ms(),
            1_000,
        )
        .expect("streamed job")
    };
    println!(
        "pay-as-you-go  : charge {}, paid {} via {} paywords of {}",
        out.charge, out.paid, revealed, commitment.value_per_word
    );

    // -- Pay after use ---------------------------------------------------
    let mut p3 = make_provider(&bank, "gsp-postpaid", 100, Credits::from_gd(2), 3);
    let cheque =
        alice_port.request_cheque(&p3.cert, Credits::from_gd(10), 10_000_000).expect("cheque");
    let out = p3
        .execute_job(&alice.0, PaymentInstrument::Cheque(cheque), &job, &rates, clock.now_ms())
        .expect("cheque job");
    println!(
        "pay-after-use  : reserved G$10.000000, charge {}, paid {}, released {}\n",
        out.charge, out.paid, out.released
    );

    println!("=== Part 2: DBC scheduling sweep (Nimrod-G algorithms) ===\n");
    // Two providers: cheap/slow and expensive/fast.
    println!(
        "{:<18} {:>9} {:>7} {:>12} {:>14}",
        "algorithm", "deadline", "done%", "cost", "makespan"
    );
    for deadline_h in [1u64, 2, 4] {
        for alg in Algorithm::ALL {
            let bank = Arc::new(GridBank::new(GridBankConfig::default(), Clock::new()));
            let admin = SubjectName("/O=GridBank/OU=Admin/CN=operator".into());
            let user = SubjectName::new("UWA", "CSSE", "sweeper");
            let mut gbpm = PaymentModule::new(
                InProcessBank::new(bank.clone(), user.clone()),
                Credits::from_gd(40),
            );
            let account = gbpm.ensure_account(None).unwrap();
            bank.handle(
                &admin,
                BankRequest::AdminDeposit { account, amount: Credits::from_gd(100_000) },
            );
            let mut providers = vec![
                make_provider(&bank, "cheap", 100, Credits::from_gd(1), 10),
                make_provider(&bank, "fast", 400, Credits::from_gd(8), 11),
            ];
            let mut broker = GridResourceBroker::new(user.0.clone(), gbpm);
            let batch = JobBatch::sweep(
                "sweep",
                JobSpec {
                    work: 90_000_000, // 15 min on cheap, ~4 min on fast
                    parallelism: 1,
                    memory_mb: 0,
                    storage_mb: 0,
                    network_mb: 0,
                    sys_pct: 0,
                },
                16,
                QosConstraints {
                    deadline_ms: deadline_h.saturating_mul(MS_PER_HOUR),
                    budget: Credits::from_gd(40),
                },
            );
            match broker.run_batch(alg, &batch, &mut providers, 0) {
                Ok(r) => println!(
                    "{:<18} {:>8}h {:>6}% {:>12} {:>13.2}m",
                    alg.name(),
                    deadline_h,
                    r.completion_pct(),
                    r.total_paid.to_string(),
                    r.makespan_ms as f64 / 60_000.0
                ),
                Err(e) => println!("{:<18} {:>8}h   failed: {e}", alg.name(), deadline_h),
            }
        }
        println!();
    }
    println!(
        "Tighter deadlines force traffic onto the fast/expensive resource\n\
         (cost rises); looser deadlines let cost-optimization save money\n\
         at the price of a longer makespan — the classic Nimrod-G result."
    );
}
