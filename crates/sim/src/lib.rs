//! # gridbank-sim
//!
//! The testing substrate the paper names: "'GridSim' is a Grid simulation
//! toolkit for resource modeling and application scheduling, which can be
//! used to simulate rather than build a computational Grid for testing
//! purposes" (§1). Everything is deterministic under a seed.
//!
//! * [`engine`] — a discrete-event simulation core: virtual clock, a
//!   stable (time, sequence)-ordered event queue, and a deferred
//!   scheduler so events can schedule further events while borrowing the
//!   world.
//! * [`workload`] — seeded workload generation: Poisson arrivals and job
//!   size distributions.
//! * [`topology`] — grid construction: heterogeneous providers (speed,
//!   price, OS flavour) and funded consumers around one GridBank.
//! * [`metrics`] — small statistics helpers for experiment reports.
//! * [`scenario`] — the drivers behind the paper's figures: the
//!   end-to-end open-market scenario (Figure 1), the co-operative barter
//!   community (Figure 4), and the competitive market with bank-assisted
//!   price estimation (§4.2).
//! * [`deploy`] — the one way to boot a bank: CA, network, clock, one
//!   server per branch, the settlement mesh, and every authenticated
//!   connection (DESIGN.md §4 "Booting a bank").
//! * [`chaos`] — the E15 fault-injection harness: Figure-1 payment flows
//!   over a seeded lossy network, with conservation evidence for the
//!   exactly-once guarantees (see `docs/RESILIENCE.md`).
//! * [`market`] — the population-scale market economy: Zipf/diurnal
//!   spot traffic, flash-crowd capacity auctions settled exactly-once
//!   through live servers, a co-op barter ring, and PayWord streams,
//!   all ending in hard conservation evidence.

pub mod chaos;
pub mod deploy;
pub mod engine;
pub mod market;
pub mod metrics;
pub mod scenario;
pub mod topology;
pub mod workload;

pub use chaos::{run_chaos, ChaosConfig, ChaosReport};
pub use deploy::{BranchConfig, DeployConfig, DeployError, Deployment, Identity};
pub use engine::Simulator;
pub use market::{run_market, EconomyConfig, EconomyReport};
pub use scenario::{CoopReport, GridScenario, MarketReport, ScenarioConfig};
pub use topology::{build_grid, TopologyConfig};
pub use workload::{JobSizeDistribution, WorkloadConfig, WorkloadEvent};
