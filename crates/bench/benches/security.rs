//! E13 — the security substrate (GSI substitute): hash/MAC throughput,
//! signature sign/verify, certificate-chain validation, the mutual
//! handshake, and sealed-channel throughput. Signature and certificate
//! sizes are printed alongside (the size/latency trade is the point of
//! comparing hash-based signatures to the RSA certificates GSI used).

use std::hint::black_box;
use std::sync::Arc;

use criterion::{BenchmarkId, Criterion, Throughput};

use gridbank_bench::quick;
use gridbank_crypto::cert::{create_proxy, CertificateAuthority, SubjectName};
use gridbank_crypto::hmac::hmac_sha256;
use gridbank_crypto::keys::{KeyMaterial, SigningIdentity};
use gridbank_crypto::rng::DeterministicStream;
use gridbank_crypto::sha256::sha256;
use gridbank_net::channel::SecureChannel;
use gridbank_net::gate::OpenGate;
use gridbank_net::transport::{Address, Network};
use gridbank_net::{client_handshake, server_handshake, HandshakeConfig};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("security");
    g.measurement_time(std::time::Duration::from_millis(400));
    g.warm_up_time(std::time::Duration::from_millis(100));

    // Hash and MAC throughput.
    for size in [64usize, 1024, 16 * 1024] {
        let data = vec![0xA5u8; size];
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_with_input(BenchmarkId::new("sha256", size), &data, |b, data| {
            b.iter(|| sha256(black_box(data)))
        });
        g.bench_with_input(BenchmarkId::new("hmac_sha256", size), &data, |b, data| {
            b.iter(|| hmac_sha256(b"key", black_box(data)))
        });
    }
    g.throughput(Throughput::Elements(1));

    // MSS sign / verify, with size report. Height 13: at ~0.16 ms a
    // signature the sign bench spends some 3,000 leaves.
    let signer = SigningIdentity::generate_with_height(KeyMaterial { seed: 1 }, "bench", 13);
    let vk = signer.verifying_key();
    let sample = signer.sign(b"sample").unwrap();
    println!(
        "[sizes] MSS signature: {} bytes; public key: 32 bytes; capacity 2^13",
        sample.to_bytes().len()
    );
    g.bench_function("mss_sign", |b| b.iter(|| signer.sign(black_box(b"message")).unwrap()));
    g.bench_function("mss_verify", |b| {
        b.iter(|| vk.verify(black_box(b"sample"), &sample).unwrap())
    });

    // Certificate chain validation (CA cert + user cert + proxy).
    let ca = CertificateAuthority::new(
        SubjectName::new("GB", "CA", "Root"),
        SigningIdentity::generate_with_height(KeyMaterial { seed: 2 }, "ca", 10),
    );
    let user = SigningIdentity::generate_with_height(KeyMaterial { seed: 3 }, "user", 10);
    let cert = ca
        .issue(SubjectName::new("O", "U", "user"), user.verifying_key(), 0, u64::MAX / 2)
        .unwrap();
    let proxy_id = SigningIdentity::generate_with_height(KeyMaterial { seed: 4 }, "proxy", 10);
    let proxy = create_proxy(&user, &cert, proxy_id.verifying_key(), 0, u64::MAX / 2, 1).unwrap();
    g.bench_function("proxy_chain_validation", |b| {
        b.iter(|| proxy.verify_chain(&ca.verifying_key(), black_box(100)).unwrap())
    });

    // Full mutual handshake: the per-connection cost of the §3.2 gate.
    g.bench_function("mutual_handshake", |b| {
        // Tall identities so repeated handshakes don't exhaust leaves.
        let server_id =
            Arc::new(SigningIdentity::generate_with_height(KeyMaterial { seed: 5 }, "srv", 14));
        let server_cert = ca
            .issue(
                SubjectName::new("GB", "Srv", "bank"),
                server_id.verifying_key(),
                0,
                u64::MAX / 2,
            )
            .unwrap();
        let client_proxy_id =
            SigningIdentity::generate_with_height(KeyMaterial { seed: 6 }, "cli", 14);
        let client_proxy =
            create_proxy(&user, &cert, client_proxy_id.verifying_key(), 0, u64::MAX / 2, 1)
                .unwrap();
        let network = Network::new();
        let listener = network.bind(Address::new("srv")).unwrap();
        let config = HandshakeConfig { ca_key: ca.verifying_key(), now: 100 };
        let mut n = 0u64;
        b.iter(|| {
            n += 1;
            let link = network.connect(Address::new("cli"), &Address::new("srv")).unwrap();
            let server_link = listener.accept().unwrap();
            std::thread::scope(|s| {
                let handle = s.spawn(|| {
                    let mut nonces = DeterministicStream::from_u64(n, b"s");
                    server_handshake(
                        server_link,
                        &config,
                        &server_cert,
                        &server_id,
                        &OpenGate,
                        &mut nonces,
                    )
                    .unwrap()
                });
                let mut nonces = DeterministicStream::from_u64(n, b"c");
                let client =
                    client_handshake(link, &config, &client_proxy, &client_proxy_id, &mut nonces)
                        .unwrap();
                let _server = handle.join().unwrap();
                black_box(client.1)
            })
        });
    });

    // Sealed channel throughput at several frame sizes.
    for size in [256usize, 4 * 1024, 64 * 1024] {
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_with_input(
            BenchmarkId::new("sealed_channel_roundtrip", size),
            &size,
            |b, &size| {
                let network = Network::new();
                let listener = network.bind(Address::new("srv")).unwrap();
                let link = network.connect(Address::new("cli"), &Address::new("srv")).unwrap();
                let server_link = listener.accept().unwrap();
                let secret = sha256(b"bench-secret");
                let mut client = SecureChannel::new(link, &secret, true);
                let mut server = SecureChannel::new(server_link, &secret, false);
                let payload = vec![0x5Au8; size];
                b.iter(|| {
                    client.send(&payload).unwrap();
                    black_box(server.recv().unwrap())
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
