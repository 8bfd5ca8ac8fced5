//! The assembled Grid Service Provider.
//!
//! Ties together the §2 pipeline: validate the payment instrument (GBCM)
//! → assign a template account and bind the grid-mapfile (§2.3) → execute
//! on the least-loaded machine → meter and convert usage (GRM, Figure 2)
//! → conformance-check against the agreed rates → redeem with GridBank →
//! unbind and return the account to the pool.

use gridbank_core::client::{BankClient, BankLink};
use gridbank_core::payword::{ChainCommitment, PayWord};
use gridbank_crypto::keys::VerifyingKey;
use gridbank_crypto::merkle::MerkleSignature;
use gridbank_meter::levels::AccountingLevel;
use gridbank_meter::machine::{JobSpec, Machine, MachineSpec};
use gridbank_meter::meter::{GridResourceMeter, MeteredJob};
use gridbank_rur::record::{ChargeableItem, ResourceUsageRecord};
use gridbank_rur::Credits;
use gridbank_trade::directory::ProviderAd;
use gridbank_trade::pricing::{PricingPolicy, Utilization};
use gridbank_trade::rates::{RateQuote, ServiceRates};
use gridbank_trade::session::{Announcement, AuctionKind};

use crate::charging::{ChargingModule, PaymentInstrument};
use crate::error::GspError;
use crate::mapfile::GridMapfile;
use crate::template::TemplatePool;

/// Provider construction parameters.
pub struct GspConfig {
    /// The provider's certificate name.
    pub cert: String,
    /// Host/endpoint name.
    pub host: String,
    /// The machines behind this provider (R1–R4 of Figure 1).
    pub machines: Vec<MachineSpec>,
    /// Base service rates before pricing-policy adjustment.
    pub base_rates: ServiceRates,
    /// Template account pool size (§2.3).
    pub pool_size: usize,
    /// Accounting level the meter runs at.
    pub accounting_level: AccountingLevel,
    /// Seed for machine jitter.
    pub machine_seed: u64,
}

/// Everything the consumer gets back after a paid job.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// The combined (aggregated) usage record.
    pub rur: ResourceUsageRecord,
    /// The itemized charge.
    pub charge: Credits,
    /// Amount actually paid to the provider.
    pub paid: Credits,
    /// Reservation released back to the consumer (cheque path).
    pub released: Credits,
    /// The template account the job ran under.
    pub local_account: String,
    /// Machine that served the job.
    pub machine_host: String,
    /// Virtual completion time.
    pub end_ms: u64,
}

struct MachineState {
    machine: Machine,
    busy_until_ms: u64,
}

/// The provider.
pub struct GridServiceProvider<L: BankLink> {
    /// Certificate name.
    pub cert: String,
    /// Host name.
    pub host: String,
    machines: Vec<MachineState>,
    /// Template account pool (public for the scalability experiments).
    pub pool: TemplatePool,
    /// The grid-mapfile.
    pub mapfile: GridMapfile,
    meter: GridResourceMeter,
    /// The charging module.
    pub gbcm: ChargingModule<L>,
    base_rates: ServiceRates,
    pricing: Box<dyn PricingPolicy>,
    accounting_level: AccountingLevel,
    next_quote: u64,
    next_job: u64,
    /// Jobs completed, for diagnostics.
    pub jobs_served: u64,
    /// Optional failure injection: (percent, seeded rng).
    failure: Option<(u8, rand::rngs::StdRng)>,
}

impl<L: BankLink> GridServiceProvider<L> {
    /// Builds a provider; `pricing` maps load to quoted rates.
    pub fn new(
        config: GspConfig,
        bank_key: VerifyingKey,
        port: BankClient<L>,
        pricing: Box<dyn PricingPolicy>,
    ) -> Self {
        let machines = config
            .machines
            .into_iter()
            .enumerate()
            .map(|(i, spec)| MachineState {
                machine: Machine::new(spec, config.machine_seed.wrapping_add(i as u64)),
                busy_until_ms: 0,
            })
            .collect();
        GridServiceProvider {
            gbcm: ChargingModule::new(bank_key, config.cert.clone(), port),
            cert: config.cert,
            host: config.host,
            machines,
            pool: TemplatePool::new("grid", config.pool_size, 0o700),
            mapfile: GridMapfile::new(),
            meter: GridResourceMeter::new(""),
            base_rates: config.base_rates,
            pricing,
            accounting_level: config.accounting_level,
            next_quote: 1,
            next_job: 1,
            jobs_served: 0,
            failure: None,
        }
    }

    /// Enables fault injection: each execution fails with `pct`% chance
    /// (deterministic under `seed`). Used by resilience tests and the
    /// broker-retry experiments; failed jobs consume no payment.
    pub fn inject_failures(&mut self, pct: u8, seed: u64) {
        use rand::SeedableRng;
        self.failure = Some((pct.min(100), rand::rngs::StdRng::seed_from_u64(seed)));
    }

    /// Fraction of machines busy at `now`, as a [`Utilization`].
    pub fn utilization(&self, now_ms: u64) -> Utilization {
        if self.machines.is_empty() {
            return Utilization::new(0);
        }
        let busy = self.machines.iter().filter(|m| m.busy_until_ms > now_ms).count();
        Utilization::new(
            busy.saturating_mul(100).checked_div(self.machines.len()).unwrap_or(0) as u8
        )
    }

    /// The Grid Trade Server's quote: pricing policy applied to base
    /// rates at the current load.
    pub fn quote(&mut self, now_ms: u64, validity_ms: u64) -> Result<RateQuote, GspError> {
        let rates = self.pricing.quote(&self.base_rates, self.utilization(now_ms))?;
        let quote_id = self.next_quote;
        self.next_quote = self.next_quote.wrapping_add(1);
        Ok(RateQuote {
            provider: self.cert.clone(),
            rates,
            valid_until: now_ms.saturating_add(validity_ms),
            quote_id,
        })
    }

    /// Announces an auction for capacity, priced off the live quote.
    ///
    /// The mechanism follows the load: a scarce provider (half or more
    /// of its machines busy) sells by **English** ascending auction with
    /// the demand-adjusted hourly price as the reserve — a flash crowd
    /// bids the price up from there; an idle provider moves stock by
    /// **Dutch** descending auction opening at twice the posted hourly
    /// price and never clearing below it.
    pub fn announce_auction(
        &mut self,
        auction_id: u64,
        item: impl Into<String>,
        now_ms: u64,
    ) -> Result<Announcement, GspError> {
        let quote = self.quote(now_ms, 60_000)?;
        let hourly = quote.rates.total_time_price_per_hour();
        let kind = if self.utilization(now_ms).0 >= 50 {
            let increment =
                hourly.mul_ratio(1, 10).map_err(GspError::Record)?.max(Credits::from_micro(1));
            AuctionKind::English { reserve: hourly, increment }
        } else {
            let start = hourly.checked_mul(2).map_err(GspError::Record)?;
            let decrement =
                hourly.mul_ratio(1, 8).map_err(GspError::Record)?.max(Credits::from_micro(1));
            AuctionKind::Dutch { start, decrement, floor: hourly }
        };
        Ok(Announcement { auction_id, seller: self.cert.clone(), item: item.into(), kind })
    }

    /// The GMD advertisement for this provider.
    pub fn advertisement(&self) -> ProviderAd {
        let speed = self.machines.iter().map(|m| m.machine.spec.speed).max().unwrap_or(0);
        let cores: u32 = self.machines.iter().map(|m| m.machine.spec.cores).sum();
        let memory: u64 = self.machines.iter().map(|m| m.machine.spec.memory_mb).sum();
        ProviderAd {
            provider: self.cert.clone(),
            address: self.host.clone(),
            host_type: self
                .machines
                .first()
                .map(|m| m.machine.spec.os.host_type().to_string())
                .unwrap_or_else(|| "unknown".into()),
            cpu_speed: speed,
            cpu_count: cores,
            memory_mb: memory,
            storage_mb: 1_000_000,
            bandwidth_mbps: 1_000,
            rates: self.base_rates.clone(),
        }
    }

    /// The best throughput (work units/ms) any single machine offers a
    /// job with the given parallelism — the broker's speed estimate.
    pub fn effective_speed(&self, parallelism: u32) -> u64 {
        self.machines
            .iter()
            .map(|m| {
                (m.machine.spec.speed as u64)
                    .saturating_mul(m.machine.spec.cores.min(parallelism.max(1)) as u64)
            })
            .max()
            .unwrap_or(0)
    }

    /// Number of machines behind this provider.
    pub fn machine_count(&self) -> usize {
        self.machines.len()
    }

    fn pick_machine(&mut self) -> Result<usize, GspError> {
        if self.machines.is_empty() {
            return Err(GspError::Unserviceable("provider has no machines".into()));
        }
        Ok(self
            .machines
            .iter()
            .enumerate()
            .min_by_key(|(_, m)| m.busy_until_ms)
            .map(|(i, _)| i)
            .expect("nonempty"))
    }

    fn run_and_meter(
        &mut self,
        consumer_cert: &str,
        job: &JobSpec,
        agreed: &ServiceRates,
        now_ms: u64,
    ) -> Result<(ResourceUsageRecord, u64), GspError> {
        if let Some((pct, rng)) = &mut self.failure {
            use rand::Rng;
            if rng.random_range(0..100u8) < *pct {
                return Err(GspError::Unserviceable("injected execution failure".into()));
            }
        }
        let idx = self.pick_machine()?;
        let start = now_ms.max(self.machines[idx].busy_until_ms);
        let exec = self.machines[idx].machine.execute(job, start);
        self.machines[idx].busy_until_ms = exec.end_ms;
        let host = self.machines[idx].machine.spec.host.clone();
        let host_type = self.machines[idx].machine.spec.os.host_type().to_string();

        let job_id = format!("{}-job-{}", self.host, self.next_job);
        self.next_job = self.next_job.wrapping_add(1);
        let metered = MeteredJob {
            user_host: "submit.host".into(),
            user_cert: consumer_cert.to_string(),
            job_id,
            application: "grid-app".into(),
            executions: vec![(host, host_type, exec.native)],
        };
        let prices: Vec<(ChargeableItem, Credits)> = agreed.iter().collect();
        let meter = GridResourceMeter::new(self.cert.clone());
        let rur = meter.build_rur(&metered, &prices, self.accounting_level)?;
        let _ = &self.meter; // field kept for future multi-resource jobs
        Ok((rur, exec.end_ms))
    }

    /// The full §2 pipeline for cheque or prepaid instruments. Hash-chain
    /// payments use [`Self::execute_streamed_job`].
    pub fn execute_job(
        &mut self,
        consumer_cert: &str,
        instrument: PaymentInstrument,
        job: &JobSpec,
        agreed: &ServiceRates,
        now_ms: u64,
    ) -> Result<JobOutcome, GspError> {
        if matches!(instrument, PaymentInstrument::HashChain { .. }) {
            return Err(GspError::PaymentRejected(
                "hash chains pay per interval; use execute_streamed_job".into(),
            ));
        }
        // 1. Legitimacy of the payment instrument (before any work).
        self.gbcm.validate_instrument(&instrument, now_ms)?;

        // 2. Template account + grid-mapfile binding (§2.3).
        let account = self
            .pool
            .try_acquire()
            .ok_or(GspError::PoolExhausted { pool_size: self.pool.size() })?;
        if let Err(e) = self.mapfile.bind(consumer_cert, &account.local_name) {
            self.pool.release(account);
            return Err(e);
        }

        // 3-5. Execute, meter, convert (cleanup on any failure).
        let result = self.run_and_meter(consumer_cert, job, agreed, now_ms);
        let (rur, end_ms) = match result {
            Ok(ok) => ok,
            Err(e) => {
                let _ = self.mapfile.unbind(consumer_cert);
                self.pool.release(account);
                return Err(e);
            }
        };

        // 6. Total charge with conformance check (§2.1).
        let charge = match self.gbcm.compute_charge(agreed, &rur) {
            Ok(c) => c,
            Err(e) => {
                let _ = self.mapfile.unbind(consumer_cert);
                self.pool.release(account);
                return Err(e);
            }
        };

        // 7. Redeem.
        let redemption = match &instrument {
            PaymentInstrument::Cheque(cheque) => {
                self.gbcm.redeem_cheque(cheque.clone(), rur.clone())
            }
            PaymentInstrument::Prepaid(conf) => {
                // Fixed price was paid up front; the job must fit it.
                if conf.body.amount < charge {
                    Err(GspError::PaymentRejected(format!(
                        "prepaid {} does not cover charge {charge}",
                        conf.body.amount
                    )))
                } else {
                    Ok((conf.body.amount, Credits::ZERO))
                }
            }
            PaymentInstrument::HashChain { .. } => unreachable!("rejected above"),
        };

        // 8. Remove the association and return the account (§2.3).
        let _ = self.mapfile.unbind(consumer_cert);
        let local_account = account.local_name.clone();
        self.pool.release(account);

        let (paid, released) = redemption?;
        self.jobs_served = self.jobs_served.saturating_add(1);
        let machine_host = rur.resource.host.clone();
        Ok(JobOutcome { rur, charge, paid, released, local_account, machine_host, end_ms })
    }

    /// Pay-as-you-go execution: the job is metered in intervals and the
    /// consumer's payword source is asked for payment covering the
    /// cumulative charge after each interval; redemption happens
    /// incrementally (GridHash, §3.1).
    #[allow(clippy::too_many_arguments)] // the §3.1 streamed protocol's full context
    pub fn execute_streamed_job(
        &mut self,
        consumer_cert: &str,
        commitment: &ChainCommitment,
        signature: &MerkleSignature,
        payword_source: &mut dyn FnMut(u32) -> Result<PayWord, GspError>,
        job: &JobSpec,
        agreed: &ServiceRates,
        now_ms: u64,
        interval_ms: u64,
    ) -> Result<JobOutcome, GspError> {
        let instrument = PaymentInstrument::HashChain {
            commitment: commitment.clone(),
            signature: signature.clone(),
        };
        self.gbcm.validate_instrument(&instrument, now_ms)?;

        let account = self
            .pool
            .try_acquire()
            .ok_or(GspError::PoolExhausted { pool_size: self.pool.size() })?;
        if let Err(e) = self.mapfile.bind(consumer_cert, &account.local_name) {
            self.pool.release(account);
            return Err(e);
        }

        let run = (|| -> Result<JobOutcome, GspError> {
            let (rur, end_ms) = self.run_and_meter(consumer_cert, job, agreed, now_ms)?;
            let charge = self.gbcm.compute_charge(agreed, &rur)?;

            // Slice the execution into intervals and demand paywords as
            // the cumulative charge grows.
            let total_words = ChargingModule::<L>::words_for_charge(commitment, charge);
            if total_words > commitment.length {
                return Err(GspError::PaymentRejected(format!(
                    "charge {charge} exceeds the chain's {} words",
                    commitment.length
                )));
            }
            let n_intervals = (rur.job.span().as_ms().div_ceil(interval_ms.max(1))).max(1) as u32;
            let mut highest: u32 = 0;
            let mut last_pw: Option<PayWord> = None;
            for i in 1..=n_intervals {
                // Words owed after interval i (proportional, final
                // interval owes everything).
                let owed = if i == n_intervals {
                    total_words
                } else {
                    (total_words as u64)
                        .saturating_mul(i as u64)
                        .checked_div(n_intervals as u64)
                        .unwrap_or(0) as u32
                };
                if owed > highest {
                    let pw = payword_source(owed)?;
                    pw.verify(&commitment.root, commitment.length)
                        .map_err(|e| GspError::PaymentRejected(e.to_string()))?;
                    if pw.index != owed {
                        return Err(GspError::PaymentRejected(format!(
                            "expected payword {owed}, got {}",
                            pw.index
                        )));
                    }
                    highest = owed;
                    last_pw = Some(pw);
                }
            }
            // Single bank redemption for the highest index, with the RUR
            // as evidence.
            let paid = match last_pw {
                Some(pw) => self.gbcm.redeem_payword(commitment, signature, pw, Some(&rur))?,
                None => Credits::ZERO,
            };
            self.jobs_served = self.jobs_served.saturating_add(1);
            Ok(JobOutcome {
                machine_host: rur.resource.host.clone(),
                rur,
                charge,
                paid,
                released: Credits::ZERO,
                local_account: account.local_name.clone(),
                end_ms,
            })
        })();

        let _ = self.mapfile.unbind(consumer_cert);
        self.pool.release(account);
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridbank_core::api::BankRequest;
    use gridbank_core::clock::Clock;
    use gridbank_core::port::{DirectLink, InProcessBank};
    use gridbank_core::server::{GridBank, GridBankConfig};
    use gridbank_crypto::cert::SubjectName;
    use gridbank_meter::machine::OsFlavour;
    use gridbank_trade::pricing::FlatPricing;
    use std::sync::Arc;

    struct World {
        bank: Arc<GridBank>,
        gsc: SubjectName,
        gsp: SubjectName,
        provider: GridServiceProvider<DirectLink>,
    }

    fn rates() -> ServiceRates {
        ServiceRates::new()
            .with(ChargeableItem::Cpu, Credits::from_gd(2))
            .with(ChargeableItem::WallClock, Credits::from_gd(1))
            .with(ChargeableItem::Memory, Credits::from_milli(10))
            .with(ChargeableItem::Storage, Credits::from_milli(2))
            .with(ChargeableItem::Network, Credits::from_milli(5))
            .with(ChargeableItem::Software, Credits::from_milli(100))
    }

    fn world(pool_size: usize) -> World {
        let bank = Arc::new(GridBank::new(
            GridBankConfig { signer_height: 7, ..GridBankConfig::default() },
            Clock::new(),
        ));
        let gsc = SubjectName::new("UWA", "CSSE", "alice");
        let gsp = SubjectName::new("UM", "GRIDS", "gsp-alpha");
        let admin = SubjectName("/O=GridBank/OU=Admin/CN=operator".into());
        let mut gsc_port = InProcessBank::new(bank.clone(), gsc.clone());
        let acct = gsc_port.create_account(None).unwrap();
        let mut gsp_port = InProcessBank::new(bank.clone(), gsp.clone());
        gsp_port.create_account(None).unwrap();
        bank.handle(
            &admin,
            BankRequest::AdminDeposit { account: acct, amount: Credits::from_gd(1_000) },
        );
        let config = GspConfig {
            cert: gsp.0.clone(),
            host: "gsp-alpha.grid.org".into(),
            machines: vec![
                MachineSpec {
                    host: "node-1".into(),
                    os: OsFlavour::Linux,
                    speed: 100,
                    cores: 4,
                    memory_mb: 16_384,
                },
                MachineSpec {
                    host: "node-2".into(),
                    os: OsFlavour::Linux,
                    speed: 200,
                    cores: 8,
                    memory_mb: 32_768,
                },
            ],
            base_rates: rates(),
            pool_size,
            accounting_level: AccountingLevel::Standard,
            machine_seed: 99,
        };
        let provider = GridServiceProvider::new(
            config,
            bank.verifying_key(),
            InProcessBank::new(bank.clone(), gsp.clone()),
            Box::new(FlatPricing),
        );
        World { bank, gsc, gsp, provider }
    }

    fn job() -> JobSpec {
        JobSpec {
            work: 200_000,
            parallelism: 2,
            memory_mb: 512,
            storage_mb: 64,
            network_mb: 10,
            sys_pct: 10,
        }
    }

    #[test]
    fn cheque_job_end_to_end() {
        let mut w = world(4);
        let mut gsc_port = InProcessBank::new(w.bank.clone(), w.gsc.clone());
        let quote = w.provider.quote(0, 10_000).unwrap();
        let cheque = gsc_port.request_cheque(&w.gsp.0, Credits::from_gd(100), 1_000_000).unwrap();
        let outcome = w
            .provider
            .execute_job(&w.gsc.0, PaymentInstrument::Cheque(cheque), &job(), &quote.rates, 0)
            .unwrap();
        assert!(outcome.charge.is_positive());
        assert_eq!(outcome.paid, outcome.charge);
        assert_eq!(outcome.paid.checked_add(outcome.released).unwrap(), Credits::from_gd(100));
        assert_eq!(w.provider.jobs_served, 1);
        // Pipeline cleaned up after itself.
        assert!(w.provider.mapfile.is_empty());
        assert_eq!(w.provider.pool.free_count(), 4);
        // The GSP actually got paid.
        let gsp_rec = w.provider.gbcm.port.my_account().unwrap();
        assert_eq!(gsp_rec.available, outcome.paid);
        // RUR conforms and names both parties.
        assert_eq!(outcome.rur.user.certificate_name, w.gsc.0);
        assert_eq!(outcome.rur.resource.certificate_name, w.gsp.0);
    }

    #[test]
    fn pool_exhaustion_surfaces() {
        let mut w = world(0);
        let mut gsc_port = InProcessBank::new(w.bank.clone(), w.gsc.clone());
        let cheque = gsc_port.request_cheque(&w.gsp.0, Credits::from_gd(10), 1_000_000).unwrap();
        let err = w.provider.execute_job(
            &w.gsc.0,
            PaymentInstrument::Cheque(cheque),
            &job(),
            &rates(),
            0,
        );
        assert!(matches!(err, Err(GspError::PoolExhausted { pool_size: 0 })));
    }

    #[test]
    fn invalid_instrument_means_no_execution() {
        let mut w = world(2);
        let mut gsc_port = InProcessBank::new(w.bank.clone(), w.gsc.clone());
        // Cheque made out to someone else.
        let cheque =
            gsc_port.request_cheque("/CN=other-gsp", Credits::from_gd(10), 1_000_000).unwrap();
        let err = w.provider.execute_job(
            &w.gsc.0,
            PaymentInstrument::Cheque(cheque),
            &job(),
            &rates(),
            0,
        );
        assert!(matches!(err, Err(GspError::PaymentRejected(_))));
        assert_eq!(w.provider.jobs_served, 0);
        assert_eq!(w.provider.pool.free_count(), 2);
    }

    #[test]
    fn machines_load_balance() {
        let mut w = world(8);
        let mut gsc_port = InProcessBank::new(w.bank.clone(), w.gsc.clone());
        let mut hosts = std::collections::HashSet::new();
        for _ in 0..4 {
            let cheque =
                gsc_port.request_cheque(&w.gsp.0, Credits::from_gd(50), 1_000_000).unwrap();
            let outcome = w
                .provider
                .execute_job(&w.gsc.0, PaymentInstrument::Cheque(cheque), &job(), &rates(), 0)
                .unwrap();
            hosts.insert(outcome.machine_host);
        }
        assert_eq!(hosts.len(), 2, "both machines should serve jobs");
        // Utilization reflects busy machines at t=0.
        assert_eq!(w.provider.utilization(0).0, 100);
        assert_eq!(w.provider.utilization(u64::MAX - 1).0, 0);
    }

    #[test]
    fn streamed_job_pays_with_paywords() {
        let mut w = world(2);
        let mut gsc_port = InProcessBank::new(w.bank.clone(), w.gsc.clone());
        let chain = gsc_port
            .request_hash_chain(&w.gsp.0, 2_000, Credits::from_milli(10), 1_000_000)
            .unwrap();
        let commitment = chain.commitment.clone();
        let signature = chain.signature.clone();
        let mut requests = Vec::new();
        let outcome = {
            let chain_words = &chain.chain;
            let mut source = |k: u32| {
                requests.push(k);
                Ok(PayWord { index: k, word: chain_words[k as usize] })
            };
            w.provider
                .execute_streamed_job(
                    &w.gsc.0,
                    &commitment,
                    &signature,
                    &mut source,
                    &job(),
                    &rates(),
                    0,
                    200,
                )
                .unwrap()
        };
        assert!(outcome.charge.is_positive());
        // Paid the word-granularity ceiling of the charge.
        assert!(outcome.paid >= outcome.charge);
        let over = outcome.paid.checked_sub(outcome.charge).unwrap();
        assert!(over < Credits::from_milli(10), "overpay {over} exceeds one word");
        // Payword demands were monotonically increasing.
        assert!(!requests.is_empty());
        assert!(requests.windows(2).all(|w| w[0] < w[1]));
        // GSP received the words' value.
        let gsp_rec = w.provider.gbcm.port.my_account().unwrap();
        assert_eq!(gsp_rec.available, outcome.paid);
    }

    #[test]
    fn streamed_job_rejects_short_chain() {
        let mut w = world(2);
        let mut gsc_port = InProcessBank::new(w.bank.clone(), w.gsc.clone());
        // A 1-word chain can't possibly cover the job.
        let chain =
            gsc_port.request_hash_chain(&w.gsp.0, 1, Credits::from_milli(1), 1_000_000).unwrap();
        let mut source = |k: u32| chain.payword(k).map_err(GspError::Bank);
        let err = w.provider.execute_streamed_job(
            &w.gsc.0,
            &chain.commitment,
            &chain.signature,
            &mut source,
            &job(),
            &rates(),
            0,
            200,
        );
        assert!(matches!(err, Err(GspError::PaymentRejected(_))));
        // Cleanup happened.
        assert_eq!(w.provider.pool.free_count(), 2);
        assert!(w.provider.mapfile.is_empty());
    }

    #[test]
    fn quote_reflects_load_with_supply_demand_pricing() {
        use gridbank_trade::pricing::SupplyDemandPricing;
        let mut w = world(4);
        // Swap in supply/demand pricing.
        w.provider.pricing = Box::new(SupplyDemandPricing::default());
        let idle_quote = w.provider.quote(0, 1000).unwrap();
        // Occupy both machines.
        let mut gsc_port = InProcessBank::new(w.bank.clone(), w.gsc.clone());
        for _ in 0..2 {
            let cheque =
                gsc_port.request_cheque(&w.gsp.0, Credits::from_gd(50), 1_000_000).unwrap();
            w.provider
                .execute_job(&w.gsc.0, PaymentInstrument::Cheque(cheque), &job(), &rates(), 0)
                .unwrap();
        }
        let busy_quote = w.provider.quote(0, 1000).unwrap();
        assert!(
            busy_quote.rates.total_time_price_per_hour()
                > idle_quote.rates.total_time_price_per_hour(),
            "price should rise under load"
        );
    }
}
