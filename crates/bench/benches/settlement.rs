//! E10 — §6 inter-branch settlement: cross-branch transfer latency and
//! netting cost as the federation grows.

use std::hint::black_box;

use criterion::{BenchmarkId, Criterion, Throughput};

use gridbank_bench::{funded, quick, Federation};
use gridbank_rur::Credits;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("settlement");

    g.bench_function("cross_branch_transfer", |b| {
        let fed = Federation::new(2, 1_000_000);
        b.iter(|| fed.pay(0, 1, Credits::from_micro(10)));
    });

    // Same-branch transfer for comparison (the local fast path).
    g.bench_function("local_transfer_baseline", |b| {
        let bank = gridbank_bench::bank(2);
        let (_, a) = funded(&bank, "a2", 1_000_000);
        let (_, to) = funded(&bank, "b2", 0);
        b.iter(|| bank.accounts.transfer(&a, &to, Credits::from_micro(10), Vec::new()).unwrap());
    });

    // Settlement cost vs federation size: all-pairs traffic, then net.
    for branches in [2u16, 4, 8] {
        g.throughput(Throughput::Elements((branches as u64) * (branches as u64 - 1)));
        g.bench_with_input(
            BenchmarkId::new("all_pairs_traffic_and_settle", branches),
            &branches,
            |b, &n| {
                b.iter_with_setup(
                    || {
                        let fed = Federation::new(n, 1_000_000);
                        for i in 0..n as usize {
                            for j in 0..n as usize {
                                if i != j {
                                    fed.pay(
                                        i,
                                        j,
                                        Credits::from_gd(1 + (i as i64 * 3 + j as i64) % 7),
                                    );
                                }
                            }
                        }
                        fed
                    },
                    |fed| black_box(fed.settle().total_net()),
                )
            },
        );
    }

    g.finish();
}

fn main() {
    let mut c = quick();
    bench(&mut c);
    c.final_summary();
}
