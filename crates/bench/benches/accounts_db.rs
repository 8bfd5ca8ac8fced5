//! E9 — accounts/DB layer throughput: the §5.1 record operations.
//!
//! Regenerates: account creation rate, lookup by certificate name and
//! transfer throughput (uncontended and contended across threads).
//! Statement cost and recovery cost are the reference benchmark's
//! `core.db.statement_scan_us_{10k,100k}` and `core.store.recovery_ms`
//! probes.

use std::hint::black_box;
use std::sync::Arc;

use criterion::{BenchmarkId, Criterion};

use gridbank_bench::quick;
use gridbank_core::accounts::GbAccounts;
use gridbank_core::clock::Clock;
use gridbank_core::db::Database;
use gridbank_rur::Credits;

fn setup(accounts_n: usize) -> (GbAccounts, Vec<gridbank_core::db::AccountId>) {
    let db = Arc::new(Database::new(1, 1));
    let acc = GbAccounts::new(db.clone(), Clock::new());
    let ids: Vec<_> = (0..accounts_n)
        .map(|i| {
            let id = acc.create_account(&format!("/CN=user-{i}"), None).unwrap();
            db.with_account_mut(&id, |r| {
                r.available = Credits::from_gd(1_000_000);
                Ok(())
            })
            .unwrap();
            id
        })
        .collect();
    (acc, ids)
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("accounts_db");

    g.bench_function("create_account", |b| {
        let db = Arc::new(Database::new(1, 1));
        let acc = GbAccounts::new(db, Clock::new());
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            acc.create_account(&format!("/CN=new-{i}"), None).unwrap()
        });
    });

    g.bench_function("lookup_by_cert", |b| {
        let (acc, _) = setup(1_000);
        b.iter(|| acc.account_by_cert(black_box("/CN=user-500")).unwrap());
    });

    g.bench_function("transfer_uncontended", |b| {
        let (acc, ids) = setup(2);
        b.iter(|| acc.transfer(&ids[0], &ids[1], Credits::from_micro(1), Vec::new()).unwrap());
    });

    for threads in [2usize, 4, 8] {
        g.bench_with_input(
            BenchmarkId::new("transfer_contended", threads),
            &threads,
            |b, &threads| {
                let (acc, ids) = setup(16);
                b.iter(|| {
                    std::thread::scope(|s| {
                        for t in 0..threads {
                            let acc = acc.clone();
                            let ids = &ids;
                            s.spawn(move || {
                                for k in 0..50usize {
                                    let from = ids[(t * 3 + k) % ids.len()];
                                    let to = ids[(t * 3 + k + 1) % ids.len()];
                                    if from != to {
                                        let _ = acc.transfer(
                                            &from,
                                            &to,
                                            Credits::from_micro(1),
                                            Vec::new(),
                                        );
                                    }
                                }
                            });
                        }
                    })
                });
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
