//! The assembled Grid Resource Broker.
//!
//! Figure 1's consumer-side flow: "the user submits application
//! processing requirements along with QoS requirements (e.g., deadline
//! and budget) to the Grid Resource Broker. The GRB interacts with GSP's
//! Grid Trading Service … to establish the cost of services and then
//! selects suitable GSP. It then submits user jobs to the GSP for
//! processing along with details of its chargeable account ID in the
//! GridBank or GridCheque purchased from the GridBank."

use gridbank_core::client::BankLink;
use gridbank_gsp::charging::PaymentInstrument;
use gridbank_gsp::provider::{GridServiceProvider, JobOutcome};
use gridbank_rur::Credits;

use crate::agent::GridAgent;
use crate::error::BrokerError;
use crate::job::JobBatch;
use crate::payment::PaymentModule;
use crate::scheduling::{schedule, Algorithm, ResourceView, Schedule};

/// What came back from running a batch.
#[derive(Debug)]
pub struct BrokerReport {
    /// Algorithm used.
    pub algorithm: Algorithm,
    /// The plan that was dispatched.
    pub planned: Schedule,
    /// Tasks completed and paid.
    pub completed: usize,
    /// Tasks that failed or were never dispatched.
    pub failed: usize,
    /// Total actually paid to providers.
    pub total_paid: Credits,
    /// Total itemized charges (may exceed paid when reservations capped).
    pub total_charge: Credits,
    /// Observed makespan: latest job completion minus batch start.
    pub makespan_ms: u64,
    /// Per-task outcomes, in dispatch order.
    pub outcomes: Vec<JobOutcome>,
    /// Indices (into the batch) of tasks that failed or were unplaced.
    pub failed_tasks: Vec<usize>,
}

impl BrokerReport {
    /// Fraction of the batch completed, in percent.
    pub fn completion_pct(&self) -> u32 {
        let total = self.completed.saturating_add(self.failed);
        if total == 0 {
            return 100;
        }
        self.completed.saturating_mul(100).checked_div(total).unwrap_or(0) as u32
    }
}

/// The broker.
pub struct GridResourceBroker<L: BankLink> {
    /// The consumer's certificate name.
    pub consumer_cert: String,
    /// The payment module.
    pub gbpm: PaymentModule<L>,
    /// The deployment agent.
    pub agent: GridAgent,
    /// Reservation margin over the cost estimate, percent (200 = reserve
    /// twice the estimate, since RURs also bill memory/storage/network).
    pub cheque_margin_pct: u32,
}

impl<L: BankLink> GridResourceBroker<L> {
    /// Builds a broker for a consumer identity.
    pub fn new(consumer_cert: impl Into<String>, gbpm: PaymentModule<L>) -> Self {
        GridResourceBroker {
            consumer_cert: consumer_cert.into(),
            gbpm,
            agent: GridAgent::new(0, 0, 0),
            cheque_margin_pct: 200,
        }
    }

    /// Negotiates a quote with every provider and builds resource views.
    pub fn negotiate<LL: BankLink>(
        &mut self,
        providers: &mut [GridServiceProvider<LL>],
        parallelism: u32,
        now_ms: u64,
        quote_validity_ms: u64,
    ) -> Result<Vec<ResourceView>, BrokerError> {
        let mut views = Vec::with_capacity(providers.len());
        for (idx, p) in providers.iter_mut().enumerate() {
            let quote = p.quote(now_ms, quote_validity_ms)?;
            // One view per machine: a provider with k machines is k
            // independent queues to the planner, matching the provider's
            // own least-loaded dispatch.
            for _ in 0..p.machine_count().max(1) {
                views.push(ResourceView {
                    provider_idx: idx,
                    price_per_hour: quote.rates.total_time_price_per_hour(),
                    speed: p.effective_speed(parallelism),
                    free_at_ms: now_ms,
                });
            }
        }
        Ok(views)
    }

    /// Runs a contract-net tender across the providers (the GRACE
    /// alternative to taking posted prices): announce, collect every
    /// GTS's quoted rates as bids, and award the cheapest. Returns the
    /// winning provider's index and agreed rates.
    pub fn tender<LL: BankLink>(
        &mut self,
        providers: &mut [GridServiceProvider<LL>],
        now_ms: u64,
        quote_validity_ms: u64,
    ) -> Result<(usize, gridbank_trade::rates::ServiceRates), BrokerError> {
        use gridbank_trade::negotiation::{Bid, Tender};
        if providers.is_empty() {
            return Err(BrokerError::NoProviders);
        }
        let mut tender = Tender::announce();
        for p in providers.iter_mut() {
            let quote = p.quote(now_ms, quote_validity_ms)?;
            tender.submit(Bid { provider: p.cert.clone(), rates: quote.rates })?;
        }
        let winner = tender.award()?;
        let idx = providers
            .iter()
            .position(|p| p.cert == winner.provider)
            .expect("winner came from this provider set");
        Ok((idx, winner.rates))
    }

    /// Like [`Self::run_batch`] but resubmits failed tasks up to
    /// `max_attempts` times — the broker-side resilience loop for flaky
    /// providers (execution failures consume no payment, so retries only
    /// cost what actually completes). Time advances by the previous
    /// attempt's makespan between rounds.
    pub fn run_batch_with_retry<LL: BankLink>(
        &mut self,
        algorithm: Algorithm,
        batch: &JobBatch,
        providers: &mut [GridServiceProvider<LL>],
        now_ms: u64,
        max_attempts: u32,
    ) -> Result<BrokerReport, BrokerError> {
        let mut report = self.run_batch(algorithm, batch, providers, now_ms)?;
        let mut attempt = 1;
        while !report.failed_tasks.is_empty() && attempt < max_attempts {
            attempt = attempt.saturating_add(1);
            let retry_indices = std::mem::take(&mut report.failed_tasks);
            let retry_batch = JobBatch {
                application: batch.application.clone(),
                tasks: retry_indices.iter().map(|&i| batch.tasks[i].clone()).collect(),
                qos: batch.qos,
            };
            let retry_now = now_ms.saturating_add(report.makespan_ms);
            match self.run_batch(algorithm, &retry_batch, providers, retry_now) {
                Ok(r) => {
                    report.completed = report.completed.saturating_add(r.completed);
                    report.failed = r.failed;
                    report.total_paid = report.total_paid.saturating_add(r.total_paid);
                    report.total_charge = report.total_charge.saturating_add(r.total_charge);
                    report.makespan_ms = report
                        .makespan_ms
                        .max(r.makespan_ms.saturating_add(retry_now.saturating_sub(now_ms)));
                    report.outcomes.extend(r.outcomes);
                    // Map retry-batch indices back into the original batch.
                    report.failed_tasks =
                        r.failed_tasks.iter().map(|&i| retry_indices[i]).collect();
                }
                Err(_) => {
                    // Whole retry round infeasible (e.g. deadline passed):
                    // the outstanding tasks stay failed.
                    report.failed_tasks = retry_indices;
                    break;
                }
            }
        }
        Ok(report)
    }

    /// Runs a whole batch: negotiate → schedule → dispatch with cheques →
    /// settle, enforcing the batch QoS budget throughout.
    pub fn run_batch<LL: BankLink>(
        &mut self,
        algorithm: Algorithm,
        batch: &JobBatch,
        providers: &mut [GridServiceProvider<LL>],
        now_ms: u64,
    ) -> Result<BrokerReport, BrokerError> {
        if providers.is_empty() {
            return Err(BrokerError::NoProviders);
        }
        self.gbpm.ensure_account(None)?;
        let parallelism = batch.tasks.first().map(|t| t.parallelism).unwrap_or(1);
        let quote_validity = batch.qos.deadline_ms.saturating_sub(now_ms).max(1);
        let views = self.negotiate(providers, parallelism, now_ms, quote_validity)?;

        let works: Vec<u64> = batch.tasks.iter().map(|t| t.work).collect();
        let plan = schedule(algorithm, &works, &views, batch.qos, now_ms)?;
        if plan.assignments.is_empty() && !batch.is_empty() {
            return Err(BrokerError::Infeasible(format!(
                "{} tasks, none schedulable under deadline {} / budget {}",
                batch.len(),
                batch.qos.deadline_ms,
                batch.qos.budget
            )));
        }

        // Re-quote once per provider actually used and hold those rates
        // for the whole batch (one rates agreement per provider, §2.1).
        let mut agreed = Vec::with_capacity(providers.len());
        for p in providers.iter_mut() {
            agreed.push(p.quote(now_ms, quote_validity)?.rates);
        }

        let mut report = BrokerReport {
            algorithm,
            completed: 0,
            failed: plan.unscheduled,
            total_paid: Credits::ZERO,
            total_charge: Credits::ZERO,
            makespan_ms: 0,
            outcomes: Vec::with_capacity(plan.assignments.len()),
            failed_tasks: plan.unscheduled_tasks.clone(),
            planned: Schedule::default(),
        };

        for assignment in &plan.assignments {
            let view = &views[assignment.resource_idx];
            let provider = &mut providers[view.provider_idx];
            // Reserve estimate × margin, capped by remaining budget.
            let est = assignment.cost.max(Credits::from_micro(1));
            let with_margin = est.mul_ratio(self.cheque_margin_pct as u64, 100).unwrap_or(est);
            let reserve = with_margin.min(self.gbpm.tracker.remaining());
            if !reserve.is_positive() {
                report.failed = report.failed.saturating_add(1);
                report.failed_tasks.push(assignment.task_idx);
                continue;
            }
            let cheque = match self.gbpm.obtain_cheque(&provider.cert, reserve, quote_validity) {
                Ok(c) => c,
                Err(_) => {
                    report.failed = report.failed.saturating_add(1);
                    report.failed_tasks.push(assignment.task_idx);
                    continue;
                }
            };
            let job = &batch.tasks[assignment.task_idx];
            let rates = &agreed[view.provider_idx];
            match self.agent.run(
                provider,
                &self.consumer_cert,
                PaymentInstrument::Cheque(cheque.clone()),
                job,
                rates,
                now_ms,
            ) {
                Ok(outcome) => {
                    self.gbpm.settle_cheque(&cheque, outcome.paid);
                    report.completed = report.completed.saturating_add(1);
                    report.total_paid = report.total_paid.saturating_add(outcome.paid);
                    report.total_charge = report.total_charge.saturating_add(outcome.charge);
                    report.makespan_ms =
                        report.makespan_ms.max(outcome.end_ms.saturating_sub(now_ms));
                    report.outcomes.push(outcome);
                }
                Err(_) => {
                    // The cheque was never redeemed; its lock will expire
                    // at the bank. Release the budget commitment.
                    self.gbpm.tracker.release(cheque.body.reserved);
                    report.failed = report.failed.saturating_add(1);
                    report.failed_tasks.push(assignment.task_idx);
                }
            }
        }
        report.planned = plan;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::QosConstraints;
    use gridbank_core::api::BankRequest;
    use gridbank_core::clock::Clock;
    use gridbank_core::port::{DirectLink, InProcessBank};
    use gridbank_core::server::{GridBank, GridBankConfig};
    use gridbank_crypto::cert::SubjectName;
    use gridbank_meter::levels::AccountingLevel;
    use gridbank_meter::machine::{JobSpec, MachineSpec, OsFlavour};
    use gridbank_rur::record::ChargeableItem;
    use gridbank_rur::units::MS_PER_HOUR;
    use gridbank_trade::pricing::FlatPricing;
    use gridbank_trade::rates::ServiceRates;
    use std::sync::Arc;

    struct World {
        bank: Arc<GridBank>,
        broker: GridResourceBroker<DirectLink>,
        providers: Vec<GridServiceProvider<DirectLink>>,
    }

    fn provider(
        bank: &Arc<GridBank>,
        name: &str,
        speed: u32,
        price: Credits,
        seed: u64,
    ) -> GridServiceProvider<DirectLink> {
        let cert = format!("/O=Grid/OU=GSP/CN={name}");
        let subject = SubjectName(cert.clone());
        let mut port = InProcessBank::new(bank.clone(), subject.clone());
        port.create_account(None).unwrap();
        GridServiceProvider::new(
            gridbank_gsp::provider::GspConfig {
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

    fn world(budget_gd: i64) -> World {
        let bank = Arc::new(GridBank::new(
            GridBankConfig { signer_height: 8, ..GridBankConfig::default() },
            Clock::new(),
        ));
        let alice = SubjectName::new("UWA", "CSSE", "alice");
        let admin = SubjectName("/O=GridBank/OU=Admin/CN=operator".into());
        let mut gbpm = PaymentModule::new(
            InProcessBank::new(bank.clone(), alice.clone()),
            Credits::from_gd(budget_gd),
        );
        let account = gbpm.ensure_account(None).unwrap();
        bank.handle(
            &admin,
            BankRequest::AdminDeposit { account, amount: Credits::from_gd(1_000_000) },
        );
        let providers = vec![
            provider(&bank, "cheap", 100, Credits::from_gd(1), 1),
            provider(&bank, "fast", 400, Credits::from_gd(8), 2),
        ];
        World { bank, broker: GridResourceBroker::new(alice.0, gbpm), providers }
    }

    fn batch(count: usize, work: u64, deadline_ms: u64, budget_gd: i64) -> JobBatch {
        JobBatch::sweep(
            "sweep",
            JobSpec {
                work,
                parallelism: 1,
                memory_mb: 64,
                storage_mb: 0,
                network_mb: 1,
                sys_pct: 5,
            },
            count,
            QosConstraints { deadline_ms, budget: Credits::from_gd(budget_gd) },
        )
    }

    #[test]
    fn batch_completes_within_qos() {
        let mut w = world(1_000);
        // 6 tasks × ~18 min each on the slow machine.
        let b = batch(6, 108_000_000, 4 * MS_PER_HOUR, 100);
        let report = w.broker.run_batch(Algorithm::TimeOpt, &b, &mut w.providers, 0).unwrap();
        assert_eq!(report.completed, 6, "report: {report:?}");
        assert_eq!(report.failed, 0);
        assert_eq!(report.completion_pct(), 100);
        assert!(report.total_paid.is_positive());
        // Observed makespan respects the deadline (within jitter).
        assert!(report.makespan_ms <= 4 * MS_PER_HOUR + MS_PER_HOUR / 10);
        // Budget was honoured.
        assert!(w.broker.gbpm.tracker.spent <= Credits::from_gd(100));
        // Providers were actually paid through the bank.
        let paid: Credits =
            w.providers.iter_mut().map(|p| p.gbcm.port.my_account().unwrap().available).sum();
        assert_eq!(paid, report.total_paid);
    }

    #[test]
    fn cost_opt_cheaper_time_opt_faster() {
        let mut w1 = world(1_000);
        let b = batch(8, 54_000_000, 2 * MS_PER_HOUR, 500);
        let cost_report =
            w1.broker.run_batch(Algorithm::CostOpt, &b, &mut w1.providers, 0).unwrap();
        let mut w2 = world(1_000);
        let time_report =
            w2.broker.run_batch(Algorithm::TimeOpt, &b, &mut w2.providers, 0).unwrap();
        assert_eq!(cost_report.completed, 8);
        assert_eq!(time_report.completed, 8);
        assert!(cost_report.total_paid <= time_report.total_paid);
        assert!(time_report.makespan_ms <= cost_report.makespan_ms);
    }

    #[test]
    fn infeasible_batch_is_reported() {
        let mut w = world(1_000);
        // 1 task needing ~15 hours on the fast machine, 1-hour deadline.
        let b = batch(1, 21_600_000_000, MS_PER_HOUR, 100);
        assert!(matches!(
            w.broker.run_batch(Algorithm::TimeOpt, &b, &mut w.providers, 0),
            Err(BrokerError::Infeasible(_))
        ));
    }

    #[test]
    fn budget_shortfall_degrades_gracefully() {
        let mut w = world(2);
        // Tasks cost ~0.3 G$ each (18 min at 1 G$/h) plus margin; a 2 G$
        // budget cannot cover 20 of them.
        let b = batch(20, 108_000_000, 100 * MS_PER_HOUR, 2);
        let report = w.broker.run_batch(Algorithm::CostOpt, &b, &mut w.providers, 0).unwrap();
        assert!(report.completed > 0);
        assert!(report.failed > 0);
        assert!(report.completed + report.failed == 20);
        assert!(w.broker.gbpm.tracker.spent <= Credits::from_gd(2));
    }

    #[test]
    fn tender_awards_cheapest_provider() {
        let mut w = world(100);
        let (idx, rates) = w.broker.tender(&mut w.providers, 0, 10_000).unwrap();
        assert_eq!(w.providers[idx].cert, "/O=Grid/OU=GSP/CN=cheap");
        assert_eq!(rates.price(ChargeableItem::Cpu), Some(Credits::from_gd(1)));
        let mut empty: Vec<GridServiceProvider<DirectLink>> = Vec::new();
        assert!(matches!(w.broker.tender(&mut empty, 0, 10_000), Err(BrokerError::NoProviders)));
    }

    #[test]
    fn retry_recovers_from_flaky_providers() {
        let mut w = world(1_000);
        // Both providers fail half their executions.
        for p in &mut w.providers {
            p.inject_failures(50, 0xFA11);
        }
        let b = batch(10, 54_000_000, 48 * MS_PER_HOUR, 500);

        // One attempt: some failures are expected (seeded: statistically
        // certain at 50% over 10 jobs).
        let mut w1 = world(1_000);
        for p in &mut w1.providers {
            p.inject_failures(50, 0xFA11);
        }
        let single = w1.broker.run_batch(Algorithm::TimeOpt, &b, &mut w1.providers, 0).unwrap();
        assert!(single.failed > 0, "fault injection had no effect");
        assert_eq!(single.failed_tasks.len(), single.failed);

        // With retries the batch completes.
        let report =
            w.broker.run_batch_with_retry(Algorithm::TimeOpt, &b, &mut w.providers, 0, 10).unwrap();
        assert_eq!(report.completed, 10, "{report:?}");
        assert!(report.failed_tasks.is_empty());
        // Failed executions were never paid: paid equals sum of outcomes.
        let paid: Credits = report.outcomes.iter().map(|o| o.paid).sum();
        assert_eq!(paid, report.total_paid);
    }

    #[test]
    fn retry_gives_up_after_max_attempts() {
        let mut w = world(1_000);
        for p in &mut w.providers {
            p.inject_failures(100, 1); // always fails
        }
        let b = batch(4, 54_000_000, 48 * MS_PER_HOUR, 500);
        let report =
            w.broker.run_batch_with_retry(Algorithm::TimeOpt, &b, &mut w.providers, 0, 3).unwrap();
        assert_eq!(report.completed, 0);
        assert_eq!(report.failed_tasks.len(), 4);
        // Nothing was paid for failed work.
        assert_eq!(report.total_paid, Credits::ZERO);
        assert_eq!(w.broker.gbpm.tracker.spent, Credits::ZERO);
    }

    #[test]
    fn no_providers_error() {
        let mut w = world(10);
        let b = batch(1, 1_000, 1_000, 10);
        let mut empty: Vec<GridServiceProvider<DirectLink>> = Vec::new();
        assert!(matches!(
            w.broker.run_batch(Algorithm::CostOpt, &b, &mut empty, 0),
            Err(BrokerError::NoProviders)
        ));
        let _ = &w.bank;
    }
}
