//! E5 — the three payment strategies (§3.1) head to head: latency of a
//! complete payment through each protocol, plus batched cheque
//! redemption (§3.1: "This can be done in batches").

use std::hint::black_box;

use criterion::{BenchmarkId, Criterion};

use gridbank_bench::{bank, funded, quick};
use gridbank_rur::record::{ChargeableItem, RurBuilder, UsageAmount};
use gridbank_rur::units::Duration;
use gridbank_rur::Credits;

fn rur(payee: &str, hours: u64) -> gridbank_rur::ResourceUsageRecord {
    RurBuilder::default()
        .user("h", "/O=Bench/OU=Users/CN=payer")
        .job("j", "a", 0, hours * 3_600_000)
        .resource("r", payee, None, 1)
        .line(
            ChargeableItem::Cpu,
            UsageAmount::Time(Duration::from_hours(hours)),
            Credits::from_gd(1),
        )
        .build()
        .unwrap()
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("protocols");
    // Each issued instrument consumes one MSS leaf of the bank's 2^14
    // signing capacity; keep the sampling window small enough that no
    // bench exhausts its bank.
    g.measurement_time(std::time::Duration::from_millis(300));
    g.warm_up_time(std::time::Duration::from_millis(100));
    const PAYEE: &str = "/O=Bench/OU=Users/CN=payee";

    // Pay-before-use: one direct transfer with signed confirmation.
    g.bench_function("pay_before_use_direct_transfer", |b| {
        let bank = bank(14);
        let (mut payer, _) = funded(&bank, "payer", 10_000_000);
        let (_, payee_id) = funded(&bank, "payee", 0);
        b.iter(|| payer.direct_transfer(payee_id, Credits::from_micro(10), "payee.host").unwrap());
    });

    // Pay-after-use: issue + redeem one cheque.
    g.bench_function("pay_after_use_cheque_cycle", |b| {
        let bank = bank(14);
        let (mut payer, _) = funded(&bank, "payer", 10_000_000);
        let (mut payee, _) = funded(&bank, "payee", 0);
        let record = rur(PAYEE, 1);
        b.iter(|| {
            let cheque = payer.request_cheque(PAYEE, Credits::from_gd(2), 1_000_000).unwrap();
            payee.redeem_cheque(cheque, record.clone()).unwrap()
        });
    });

    // Pay-as-you-go: issue a chain of 16 then redeem it all.
    g.bench_function("pay_as_you_go_chain_cycle_16", |b| {
        let bank = bank(14);
        let (mut payer, _) = funded(&bank, "payer", 10_000_000);
        let (mut payee, _) = funded(&bank, "payee", 0);
        b.iter(|| {
            let chain =
                payer.request_hash_chain(PAYEE, 16, Credits::from_micro(100), 1_000_000).unwrap();
            let pw = chain.payword(16).unwrap();
            payee
                .redeem_payword(chain.commitment.clone(), chain.signature.clone(), pw, vec![])
                .unwrap()
        });
    });

    // Batched cheque redemption amortizes per-call overhead.
    for batch in [1usize, 8, 32] {
        g.bench_with_input(BenchmarkId::new("cheque_redeem_batch", batch), &batch, |b, &n| {
            let bank = bank(14);
            let (mut payer, _) = funded(&bank, "payer", 100_000_000);
            let (mut payee, _) = funded(&bank, "payee", 0);
            b.iter_with_setup(
                || {
                    (0..n)
                        .map(|_| {
                            (
                                payer
                                    .request_cheque(PAYEE, Credits::from_gd(2), 1_000_000)
                                    .unwrap(),
                                rur(PAYEE, 1),
                            )
                        })
                        .collect::<Vec<_>>()
                },
                |batch| {
                    for (cheque, record) in batch {
                        black_box(payee.redeem_cheque(cheque, record).unwrap());
                    }
                },
            );
        });
    }

    g.finish();
}

fn main() {
    let mut c = quick();
    bench(&mut c);
    c.final_summary();
}
