//! E12 — deadline×budget sweeps over the four DBC algorithms, executed
//! against real providers with real payments (not just planned).

// Test fixtures build inputs with plain arithmetic; the workspace
// `clippy::arithmetic_side_effects` wall targets production money paths
// (see docs/STATIC_ANALYSIS.md §lint wall).
#![allow(clippy::arithmetic_side_effects)]

use gridbank_suite::broker::job::{JobBatch, QosConstraints};
use gridbank_suite::broker::scheduling::Algorithm;
use gridbank_suite::meter::machine::JobSpec;
use gridbank_suite::rur::units::MS_PER_HOUR;
use gridbank_suite::rur::Credits;
use gridbank_suite::sim::scenario::GridScenario;
use gridbank_suite::sim::topology::{build_grid, TopologyConfig};

fn grid() -> GridScenario {
    build_grid(&TopologyConfig {
        seed: 31,
        providers: 4,
        machines_per_provider: 2,
        speed_range: (100, 400),
        cpu_price_milli_range: (1_000, 8_000),
        cores: 4,
        pool_size: 16,
        dynamic_pricing: false,
        signer_height: 10,
        price_milli_per_speed_unit: None,
    })
}

fn batch(deadline_ms: u64, budget: Credits) -> JobBatch {
    JobBatch::sweep(
        "sweep",
        JobSpec {
            work: 45_000_000, // 7.5 min on a 100-speed box
            parallelism: 1,
            memory_mb: 0,
            storage_mb: 0,
            network_mb: 0,
            sys_pct: 0,
        },
        12,
        QosConstraints { deadline_ms, budget },
    )
}

fn run(algorithm: Algorithm, deadline_ms: u64, budget: Credits) -> (usize, Credits, u64) {
    let mut grid = grid();
    let mut broker = grid.new_consumer("qos-user", Credits::from_gd(10_000), budget);
    match broker.run_batch(algorithm, &batch(deadline_ms, budget), &mut grid.providers, 0) {
        Ok(r) => (r.completed, r.total_paid, r.makespan_ms),
        Err(_) => (0, Credits::ZERO, 0),
    }
}

#[test]
fn loose_qos_all_algorithms_complete_within_constraints() {
    let budget = Credits::from_gd(100);
    for alg in Algorithm::ALL {
        let (done, paid, makespan) = run(alg, 6 * MS_PER_HOUR, budget);
        assert_eq!(done, 12, "{}", alg.name());
        assert!(paid <= budget, "{} overspent: {paid}", alg.name());
        assert!(
            makespan <= 6 * MS_PER_HOUR + MS_PER_HOUR / 10,
            "{} blew the deadline: {makespan}",
            alg.name()
        );
    }
}

#[test]
fn cost_opt_dominates_on_price_time_opt_on_makespan() {
    let budget = Credits::from_gd(100);
    let deadline = 6 * MS_PER_HOUR;
    let (_, cost_paid, cost_makespan) = run(Algorithm::CostOpt, deadline, budget);
    let (_, time_paid, time_makespan) = run(Algorithm::TimeOpt, deadline, budget);
    assert!(cost_paid <= time_paid, "cost-opt paid {cost_paid} > time-opt {time_paid}");
    assert!(
        time_makespan <= cost_makespan,
        "time-opt makespan {time_makespan} > cost-opt {cost_makespan}"
    );
}

#[test]
fn tightening_deadline_raises_cost() {
    // The classic DBC crossover: as the deadline shrinks, cost-opt is
    // forced off the cheap/slow resource onto the fast/expensive one.
    // Handcrafted market: cheap@1G$/h speed 100 vs fast@8G$/h speed 400,
    // two machines each. 12 jobs of 7.5 slow-minutes:
    //   8h   → all cheap            ≈ 1.5 G$
    //   0.5h → 8 cheap + 4 fast     ≈ 2.0 G$
    //   0.2h → 2 cheap + 10 fast    ≈ 2.75 G$
    use gridbank_suite::bank::api::BankRequest;
    use gridbank_suite::bank::clock::Clock;
    use gridbank_suite::bank::port::InProcessBank;
    use gridbank_suite::bank::server::{GridBank, GridBankConfig};
    use gridbank_suite::broker::broker::GridResourceBroker;
    use gridbank_suite::broker::payment::PaymentModule;
    use gridbank_suite::crypto::cert::SubjectName;
    use gridbank_suite::gsp::provider::{GridServiceProvider, GspConfig};
    use gridbank_suite::meter::levels::AccountingLevel;
    use gridbank_suite::meter::machine::{MachineSpec, OsFlavour};
    use gridbank_suite::rur::record::ChargeableItem;
    use gridbank_suite::trade::pricing::FlatPricing;
    use gridbank_suite::trade::rates::ServiceRates;
    use std::sync::Arc;

    let run_with_deadline = |deadline_ms: u64| -> (usize, Credits) {
        let bank = Arc::new(GridBank::new(
            GridBankConfig { signer_height: 8, ..GridBankConfig::default() },
            Clock::new(),
        ));
        let admin = SubjectName("/O=GridBank/OU=Admin/CN=operator".into());
        let mk = |name: &str, speed: u32, price_gd: i64, seed: u64| {
            let cert = format!("/O=G/OU=GSP/CN={name}");
            let subject = SubjectName(cert.clone());
            let mut port = InProcessBank::new(bank.clone(), subject.clone());
            port.create_account(None).unwrap();
            GridServiceProvider::new(
                GspConfig {
                    cert,
                    host: format!("{name}.grid"),
                    machines: (0..2)
                        .map(|m| MachineSpec {
                            host: format!("{name}-{m}"),
                            os: OsFlavour::Linux,
                            speed,
                            cores: 1,
                            memory_mb: 8_192,
                        })
                        .collect(),
                    base_rates: ServiceRates::new()
                        .with(ChargeableItem::Cpu, Credits::from_gd(price_gd)),
                    pool_size: 8,
                    accounting_level: AccountingLevel::Standard,
                    machine_seed: seed,
                },
                bank.verifying_key(),
                InProcessBank::new(bank.clone(), subject),
                Box::new(FlatPricing),
            )
        };
        let mut providers = vec![mk("cheap", 100, 1, 1), mk("fast", 400, 8, 2)];
        let user = SubjectName::new("O", "U", "sweeper");
        let mut gbpm = PaymentModule::new(
            InProcessBank::new(bank.clone(), user.clone()),
            Credits::from_gd(500),
        );
        let account = gbpm.ensure_account(None).unwrap();
        bank.handle(
            &admin,
            BankRequest::AdminDeposit { account, amount: Credits::from_gd(10_000) },
        );
        let mut broker = GridResourceBroker::new(user.0, gbpm);
        match broker.run_batch(
            Algorithm::CostOpt,
            &batch(deadline_ms, Credits::from_gd(500)),
            &mut providers,
            0,
        ) {
            Ok(r) => (r.completed, r.total_paid),
            Err(_) => (0, Credits::ZERO),
        }
    };

    let mut costs = Vec::new();
    for deadline_ms in [8 * MS_PER_HOUR, MS_PER_HOUR / 2, MS_PER_HOUR / 5] {
        let (done, paid) = run_with_deadline(deadline_ms);
        assert_eq!(done, 12, "deadline {deadline_ms}ms");
        costs.push((deadline_ms, paid));
    }
    assert!(
        costs[0].1 <= costs[1].1 && costs[1].1 <= costs[2].1,
        "cost should not decrease as deadline tightens: {costs:?}"
    );
    assert!(costs[0].1 < costs[2].1, "expected a strict rise: {costs:?}");
}

#[test]
fn shrinking_budget_degrades_completion() {
    let deadline = 6 * MS_PER_HOUR;
    let mut completions = Vec::new();
    for budget_gd in [100i64, 2, 1] {
        let (done, paid, _) = run(Algorithm::TimeOpt, deadline, Credits::from_gd(budget_gd));
        assert!(paid <= Credits::from_gd(budget_gd));
        completions.push((budget_gd, done));
    }
    assert_eq!(completions[0].1, 12);
    assert!(
        completions[0].1 >= completions[1].1 && completions[1].1 >= completions[2].1,
        "completion should not improve as budget shrinks: {completions:?}"
    );
    assert!(completions[2].1 < 12, "a 1 G$ budget cannot complete everything");
}

#[test]
fn impossible_deadline_fails_cleanly() {
    let (done, paid, _) = run(Algorithm::TimeOpt, 1_000, Credits::from_gd(100));
    assert_eq!(done, 0);
    assert_eq!(paid, Credits::ZERO);
}
