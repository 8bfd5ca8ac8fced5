//! Ablations for the design choices DESIGN.md calls out.
//!
//! Three knobs, each printed as a small table before the timing runs:
//!
//! 1. **Cheque reservation margin** — the broker reserves estimate×margin
//!    (§3.4); too little and providers get short-paid when actual usage
//!    exceeds the estimate, too much and budget headroom is wasted.
//! 2. **Pairwise netting** (§6) — gross vs net settlement volume under
//!    random cross-branch traffic: what netting actually saves.
//! 3. **Supply/demand vs flat pricing** — revenue distribution when
//!    providers reprice under load.

use std::hint::black_box;

use criterion::Criterion;

use gridbank_bench::{quick, Federation};
use gridbank_broker::job::{JobBatch, QosConstraints};
use gridbank_broker::scheduling::Algorithm;
use gridbank_meter::machine::JobSpec;
use gridbank_rur::units::MS_PER_HOUR;
use gridbank_rur::Credits;
use gridbank_sim::scenario::{run_open_market, ScenarioConfig};
use gridbank_sim::topology::{build_grid, TopologyConfig};
use gridbank_sim::workload::{JobSizeDistribution, WorkloadConfig};

fn margin_table() {
    println!("\n[ablation 1] cheque reservation margin (estimate×margin vs actual charge)");
    println!(
        "{:>8} {:>12} {:>14} {:>14} {:>12}",
        "margin%", "completed", "charged", "paid", "shortfall"
    );
    for margin in [100u32, 125, 200, 400] {
        let grid = build_grid(&TopologyConfig {
            seed: 5,
            providers: 3,
            machines_per_provider: 2,
            signer_height: 9,
            ..TopologyConfig::default()
        });
        let mut grid = grid;
        let mut broker =
            grid.new_consumer("margin-probe", Credits::from_gd(10_000), Credits::from_gd(1_000));
        broker.cheque_margin_pct = margin;
        // Jobs with heavy memory+network components the CPU-hour estimate
        // cannot see: at 100% margin the reservation under-covers.
        let batch = JobBatch::sweep(
            "ablation",
            JobSpec {
                work: 2_000_000,
                parallelism: 1,
                memory_mb: 8_192,
                storage_mb: 2_048,
                network_mb: 500,
                sys_pct: 10,
            },
            10,
            QosConstraints { deadline_ms: 8 * MS_PER_HOUR, budget: Credits::from_gd(1_000) },
        );
        let report = broker.run_batch(Algorithm::CostOpt, &batch, &mut grid.providers, 0).unwrap();
        let shortfall = report.total_charge.checked_sub(report.total_paid).unwrap_or(Credits::ZERO);
        println!(
            "{:>8} {:>12} {:>14} {:>14} {:>12}",
            margin,
            report.completed,
            report.total_charge.to_string(),
            report.total_paid.to_string(),
            shortfall.to_string(),
        );
    }
    println!("(shortfall → provider under-payment when reservations under-cover; 200% eliminates it here)");
}

fn netting_table() {
    println!("\n[ablation 2] pairwise netting benefit vs federation size");
    println!("{:>9} {:>10} {:>14} {:>14} {:>8}", "branches", "payments", "gross", "net", "saved%");
    for branches in [2u16, 4, 8] {
        let fed = Federation::new(branches, 100_000);
        let mut payments = 0u32;
        for round in 0..20u64 {
            for i in 0..branches as usize {
                for j in 0..branches as usize {
                    if i != j {
                        let milli = ((round * 7 + i as u64 * 3 + j as u64) % 50 + 1) as i64 * 100;
                        fed.pay(i, j, Credits::from_milli(milli));
                        payments += 1;
                    }
                }
            }
        }
        let report = fed.settle();
        let gross = report.total_gross();
        let net = report.total_net();
        let saved_pct =
            if gross.is_positive() { 100 - (net.micro() * 100 / gross.micro()) } else { 0 };
        println!(
            "{:>9} {:>10} {:>14} {:>14} {:>7}%",
            branches,
            payments,
            gross.to_string(),
            net.to_string(),
            saved_pct,
        );
    }
}

fn pricing_table() {
    println!("\n[ablation 3] flat vs supply/demand pricing: market outcome");
    println!("{:>10} {:>10} {:>14} {:>16}", "pricing", "completed", "total paid", "revenue spread");
    for dynamic in [false, true] {
        let config = ScenarioConfig {
            topology: TopologyConfig {
                seed: 11,
                providers: 4,
                machines_per_provider: 2,
                dynamic_pricing: dynamic,
                signer_height: 9,
                ..TopologyConfig::default()
            },
            workload: WorkloadConfig {
                seed: 12,
                count: 24,
                consumers: 4,
                mean_interarrival_ms: 50,
                sizes: JobSizeDistribution::Uniform { lo: 2_000_000, hi: 6_000_000 },
                memory_mb: 0,
                network_mb: 0,
                diurnal: None,
            },
            algorithm: Algorithm::CostOpt,
            deadline_ms: 8 * MS_PER_HOUR,
            budget: Credits::from_gd(1_000),
        };
        let report = run_open_market(&config);
        let max = report.provider_revenue.iter().max().copied().unwrap_or(Credits::ZERO);
        let min = report.provider_revenue.iter().min().copied().unwrap_or(Credits::ZERO);
        println!(
            "{:>10} {:>10} {:>14} {:>16}",
            if dynamic { "dynamic" } else { "flat" },
            report.completed,
            report.total_paid.to_string(),
            format!("{}..{}", min, max),
        );
    }
    println!("(dynamic pricing raises busy providers' quotes, spreading load and revenue)");
}

fn bench(c: &mut Criterion) {
    margin_table();
    netting_table();
    pricing_table();

    // One timed path: full market run, flat vs dynamic pricing.
    let mut g = c.benchmark_group("ablation");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_millis(600));
    for dynamic in [false, true] {
        let label = if dynamic { "market_dynamic_pricing" } else { "market_flat_pricing" };
        g.bench_function(label, |b| {
            let config = ScenarioConfig {
                topology: TopologyConfig {
                    seed: 21,
                    providers: 3,
                    machines_per_provider: 2,
                    dynamic_pricing: dynamic,
                    signer_height: 8,
                    ..TopologyConfig::default()
                },
                workload: WorkloadConfig {
                    seed: 22,
                    count: 8,
                    consumers: 2,
                    mean_interarrival_ms: 50,
                    sizes: JobSizeDistribution::Constant(1_000_000),
                    memory_mb: 0,
                    network_mb: 0,
                    diurnal: None,
                },
                algorithm: Algorithm::CostOpt,
                deadline_ms: 8 * MS_PER_HOUR,
                budget: Credits::from_gd(1_000),
            };
            b.iter(|| black_box(run_open_market(&config).completed));
        });
    }
    g.finish();
}

fn main() {
    let mut c = quick();
    bench(&mut c);
    c.final_summary();
}
