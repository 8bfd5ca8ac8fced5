//! E11 — PayWord/GridHash scaling (ref [21]): chain generation,
//! single-payword verification, and redemption as functions of chain
//! length. PayWord's selling point is that verification costs `k` hashes
//! while signatures cost thousands — these curves show exactly that.

use std::hint::black_box;

use criterion::{BenchmarkId, Criterion, Throughput};

use gridbank_bench::{bank, funded, quick};
use gridbank_crypto::sha256::{iterate_hash, sha256};
use gridbank_rur::Credits;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("payword");
    g.measurement_time(std::time::Duration::from_millis(400));
    g.warm_up_time(std::time::Duration::from_millis(100));
    const PAYEE: &str = "/O=Bench/OU=Users/CN=payee";

    // Raw chain construction: n hashes.
    for len in [64u32, 256, 1024, 4096] {
        g.throughput(Throughput::Elements(len as u64));
        g.bench_with_input(BenchmarkId::new("chain_generation", len), &len, |b, &len| {
            let tip = sha256(b"tip");
            b.iter(|| {
                let mut chain = vec![tip; (len + 1) as usize];
                for i in (0..len as usize).rev() {
                    chain[i] = sha256(chain[i + 1].as_bytes());
                }
                black_box(chain[0])
            });
        });
    }

    // Verification of payword k costs k hashes: linear in the index.
    for k in [1usize, 16, 256, 4096] {
        g.throughput(Throughput::Elements(k as u64));
        g.bench_with_input(BenchmarkId::new("payword_verify", k), &k, |b, &k| {
            let tip = sha256(b"tip");
            let word = tip;
            let root = iterate_hash(word, k);
            b.iter(|| {
                assert_eq!(iterate_hash(black_box(word), k), root);
            });
        });
    }

    // Full bank-side issue for growing lengths (locks funds + signs).
    for len in [16u32, 128, 1024] {
        g.bench_with_input(BenchmarkId::new("bank_issue_chain", len), &len, |b, &len| {
            let bank = bank(13);
            let (mut payer, _) = funded(&bank, "payer", 100_000_000);
            let (_payee, _) = funded(&bank, "payee", 0);
            b.iter(|| {
                black_box(
                    payer
                        .request_hash_chain(PAYEE, len, Credits::from_micro(1), 1_000_000)
                        .unwrap()
                        .commitment
                        .root,
                )
            });
        });
    }

    // Incremental redemption: 8 redemptions walking up one chain.
    g.bench_function("incremental_redemption_8_steps", |b| {
        let bank = bank(13);
        let (mut payer, _) = funded(&bank, "payer", 100_000_000);
        let (mut payee, _) = funded(&bank, "payee", 0);
        b.iter_with_setup(
            || payer.request_hash_chain(PAYEE, 64, Credits::from_micro(1), 1_000_000).unwrap(),
            |chain| {
                for step in 1..=8u32 {
                    let pw = chain.payword(step * 8).unwrap();
                    payee
                        .redeem_payword(
                            chain.commitment.clone(),
                            chain.signature.clone(),
                            pw,
                            vec![],
                        )
                        .unwrap();
                }
            },
        );
    });

    g.finish();
}

fn main() {
    let mut c = quick();
    bench(&mut c);
    c.final_summary();
}
