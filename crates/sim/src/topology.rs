//! Grid topology construction.
//!
//! Builds a heterogeneous grid around one GridBank: providers with
//! seeded-random speeds, prices, core counts and OS flavours, plus the
//! market directory entries brokers discover them through.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use gridbank_core::clock::Clock;
use gridbank_core::port::InProcessBank;
use gridbank_core::server::{GridBank, GridBankConfig};
use gridbank_crypto::cert::SubjectName;
use gridbank_gsp::provider::{GridServiceProvider, GspConfig};
use gridbank_meter::levels::AccountingLevel;
use gridbank_meter::machine::{MachineSpec, OsFlavour};
use gridbank_rur::record::ChargeableItem;
use gridbank_rur::Credits;
use gridbank_trade::directory::MarketDirectory;
use gridbank_trade::pricing::{FlatPricing, PricingPolicy, SupplyDemandPricing};
use gridbank_trade::rates::ServiceRates;

use crate::scenario::GridScenario;

/// Topology parameters.
#[derive(Clone, Debug)]
pub struct TopologyConfig {
    /// Master seed.
    pub seed: u64,
    /// Number of providers.
    pub providers: usize,
    /// Machines per provider.
    pub machines_per_provider: usize,
    /// Per-core speed range (work units/ms).
    pub speed_range: (u32, u32),
    /// CPU price range in milli-G$ per hour.
    pub cpu_price_milli_range: (i64, i64),
    /// Cores per machine.
    pub cores: u32,
    /// Template pool size per provider.
    pub pool_size: usize,
    /// Use supply/demand pricing instead of flat posted prices.
    pub dynamic_pricing: bool,
    /// Bank signer height (2^h instruments).
    pub signer_height: usize,
    /// When set, CPU price is `speed × this` milli-G$ per hour instead of
    /// a random draw — the co-operative model's community valuation rule
    /// (§4.1: allocation "depends on the value of the resource"), which
    /// makes equal work cost equal value on any machine.
    pub price_milli_per_speed_unit: Option<i64>,
}

impl Default for TopologyConfig {
    fn default() -> Self {
        TopologyConfig {
            seed: 0x6B1D,
            providers: 4,
            machines_per_provider: 2,
            speed_range: (100, 400),
            cpu_price_milli_range: (500, 4_000),
            cores: 4,
            pool_size: 8,
            dynamic_pricing: false,
            signer_height: 12,
            price_milli_per_speed_unit: None,
        }
    }
}

const OS_CYCLE: [OsFlavour; 3] = [OsFlavour::Linux, OsFlavour::Solaris, OsFlavour::Cray];

/// Builds the grid: bank + providers + directory.
pub fn build_grid(config: &TopologyConfig) -> GridScenario {
    let clock = Clock::new();
    let bank = Arc::new(GridBank::new(
        GridBankConfig { signer_height: config.signer_height, ..GridBankConfig::default() },
        clock.clone(),
    ));
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut providers = Vec::with_capacity(config.providers);
    let mut directory = MarketDirectory::new();

    for p in 0..config.providers {
        let cert = format!("/O=Grid/OU=GSP/CN=gsp-{p:02}");
        let subject = SubjectName(cert.clone());
        let mut port = InProcessBank::new(bank.clone(), subject.clone());
        port.create_account(Some("Grid".into())).expect("fresh cert");

        let speed = rng.random_range(config.speed_range.0..=config.speed_range.1);
        let price_milli = match config.price_milli_per_speed_unit {
            Some(k) => speed as i64 * k,
            None => {
                rng.random_range(config.cpu_price_milli_range.0..=config.cpu_price_milli_range.1)
            }
        };
        let os = OS_CYCLE[p % OS_CYCLE.len()];
        let machines = (0..config.machines_per_provider)
            .map(|m| MachineSpec {
                host: format!("gsp-{p:02}-node-{m}"),
                os,
                speed,
                cores: config.cores,
                memory_mb: 16_384,
            })
            .collect();
        let base_rates = ServiceRates::new()
            .with(ChargeableItem::Cpu, Credits::from_milli(price_milli))
            .with(ChargeableItem::Memory, Credits::from_micro(1_000))
            .with(ChargeableItem::Network, Credits::from_micro(2_000));
        let pricing: Box<dyn PricingPolicy> = if config.dynamic_pricing {
            Box::new(SupplyDemandPricing::default())
        } else {
            Box::new(FlatPricing)
        };
        let provider = GridServiceProvider::new(
            GspConfig {
                cert,
                host: format!("gsp-{p:02}.grid.org"),
                machines,
                base_rates,
                pool_size: config.pool_size,
                accounting_level: AccountingLevel::Standard,
                machine_seed: config.seed.wrapping_add(1000 + p as u64),
            },
            bank.verifying_key(),
            port,
            pricing,
        );
        directory.register(provider.advertisement());
        providers.push(provider);
    }

    GridScenario {
        clock,
        bank,
        providers,
        directory,
        admin: SubjectName("/O=GridBank/OU=Admin/CN=operator".into()),
        seed: config.seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_requested_shape() {
        let config = TopologyConfig {
            providers: 5,
            machines_per_provider: 3,
            signer_height: 5,
            ..TopologyConfig::default()
        };
        let grid = build_grid(&config);
        assert_eq!(grid.providers.len(), 5);
        assert_eq!(grid.directory.all().len(), 5);
        for p in &grid.providers {
            assert_eq!(p.machine_count(), 3);
            assert_eq!(p.pool.size(), 8);
        }
        // Every provider has a bank account (gate would admit them).
        for p in 0..5 {
            assert!(grid
                .bank
                .accounts
                .account_by_cert(&format!("/O=Grid/OU=GSP/CN=gsp-{p:02}"))
                .is_ok());
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let config = TopologyConfig { signer_height: 5, ..TopologyConfig::default() };
        let a = build_grid(&config);
        let b = build_grid(&config);
        for (pa, pb) in a.providers.iter().zip(&b.providers) {
            assert_eq!(pa.advertisement().cpu_speed, pb.advertisement().cpu_speed);
            assert_eq!(
                pa.advertisement().rates.price(ChargeableItem::Cpu),
                pb.advertisement().rates.price(ChargeableItem::Cpu)
            );
        }
    }

    #[test]
    fn os_flavours_cycle() {
        let config = TopologyConfig { providers: 3, signer_height: 5, ..TopologyConfig::default() };
        let grid = build_grid(&config);
        let types: Vec<String> =
            grid.providers.iter().map(|p| p.advertisement().host_type).collect();
        assert_eq!(types, vec!["Linux/x86", "Solaris/sparc", "Cray"]);
    }
}
