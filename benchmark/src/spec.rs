//! The frozen definition of the benchmark: workloads and their sizes,
//! end-to-end metrics and their bounds, per-layer metrics and what each
//! should move. `BENCHMARK.json` repeats the names, units and bounds; a
//! unit test holds the two together.

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`); the
/// work rates below were calibrated against it.
pub const RUN_SECONDS: u64 = 6;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_ROUNDS: usize = 3;

/// Kill-and-reopen cycles on a durable workload; `restart_to_serving_s`
/// is their median.
pub const RESTART_ROUNDS: usize = 3;

/// Slices the measured phase is run in, with the host's speed read
/// around each; the throughput and CPU metrics are medians over them.
pub const SLICES: usize = 12;

/// Share of a signing key a run may plan to use.
pub const SIGNER_HEADROOM: f64 = 0.9;

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
    /// Work units per second of `--seconds`. Calibrated once, at the
    /// commit that added the benchmark, so the measured phase lasts
    /// about `--seconds` there; never scaled at run time, so the work a
    /// run does depends on nothing but its arguments.
    pub units_per_second: u64,
    /// Acknowledged ops one unit makes (a PayWord chain makes 32).
    pub ops_per_unit: u64,
    pub warmup_units: u64,
    /// Height of the bank's signing tree: `2^height` signatures.
    pub signer_height: usize,
}

impl WorkloadSpec {
    /// Units of the measured phase of a `seconds`-long run.
    pub fn measured_units(&self, seconds: u64) -> u64 {
        self.units_per_second * seconds
    }
}

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "paybefore_pipelined",
        why: "Pay-before-use at pipeline depth 8: one bank signature and one 16 KiB sealed response per op, so signing and sealing large responses do most of the work and storage does none.",
        units_per_second: 540,
        ops_per_unit: 1,
        warmup_units: 200,
        signer_height: 12,
    },
    WorkloadSpec {
        name: "payword_stream",
        why: "Pay-as-you-go: 32 redeems per signed chain, so signing is amortised away and signature verification plus sealing 16 KiB requests dominate; a faster signer must show no change here.",
        units_per_second: 24,
        ops_per_unit: 32,
        warmup_units: 4,
        signer_height: 10,
    },
    WorkloadSpec {
        name: "cheque_durable",
        why: "Pay-after-use on the on-disk store with fsync: the only workload where journal append, fsync, checkpoints and recovery sit on the blocking path, followed by a kill and reopen.",
        units_per_second: 220,
        ops_per_unit: 1,
        warmup_units: 50,
        signer_height: 11,
    },
    WorkloadSpec {
        name: "statement_mix",
        why: "90% statements over a 100,000-transfer ledger beside 10% transfers: the linear history scans do most of the work and the writes contend for the same vectors.",
        units_per_second: 1300,
        ops_per_unit: 1,
        warmup_units: 100,
        signer_height: 11,
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd { name: "ops_per_s", unit: "1/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "latency_p50_ms", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "latency_p95_ms", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "cpu_ms_per_op", unit: "ms", better: Better::Lower, bound: 0.20 },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", better: Better::Lower, bound: 0.15 },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric and workload a change to this should move.
    pub moves: &'static str,
}

/// A per-layer metric where less is better — all but a few.
const fn layer(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Lower, moves }
}

const fn layer_higher(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Higher, moves }
}

pub const PER_LAYER: [PerLayer; 65] = [
    layer("crypto.sha256.block_ns", "ns", "cpu_ms_per_op and ops_per_s on all four"),
    layer("crypto.hmac.tag_ns", "ns", "through net.channel.*: ops_per_s on paybefore_pipelined and payword_stream"),
    layer("crypto.merkle.keygen_ms_h10", "ms", "setup_s and restart_to_serving_s on all four; no ops_per_s"),
    layer("crypto.merkle.sign_us", "us", "ops_per_s on paybefore_pipelined and cheque_durable; latency_p95_ms on statement_mix; not payword_stream"),
    layer("crypto.merkle.verify_us", "us", "ops_per_s on payword_stream and cheque_durable; not paybefore_pipelined"),
    layer("crypto.merkle.sig_bytes_h10", "B", "core.api.bytes_*, hence net.channel.*_16k"),
    layer("crypto.merkle.sig_bytes_h11", "B", "core.api.bytes_*, hence net.channel.*_16k"),
    layer("crypto.cert.verify_chain_us", "us", "net.handshake.connect_ms, hence setup_s"),
    layer("net.channel.send_us_256b", "us", "latency_p50_ms on statement_mix"),
    layer("net.channel.recv_us_256b", "us", "latency_p50_ms on statement_mix"),
    layer("net.channel.send_us_16k", "us", "ops_per_s on paybefore_pipelined (server seals) and payword_stream (client seals)"),
    layer("net.channel.recv_us_16k", "us", "ops_per_s on paybefore_pipelined (client opens) and payword_stream (server opens)"),
    layer("net.handshake.connect_ms", "ms", "setup_s and restart_to_serving_s"),
    layer("net.rpc.floor_us", "us", "latency_p50_ms on statement_mix and payword_stream"),
    layer_higher("net.rpc.pipeline_gain", "ratio", "ops_per_s and latency_p95_ms on paybefore_pipelined only"),
    layer("core.api.codec_us_transfer", "us", "cpu_ms_per_op on paybefore_pipelined"),
    layer("core.api.codec_us_redeem", "us", "cpu_ms_per_op on payword_stream"),
    layer("core.api.codec_us_statement", "us", "cpu_ms_per_op on statement_mix"),
    layer("core.api.bytes_transfer", "B", "net.channel.* share of paybefore_pipelined"),
    layer("core.api.bytes_redeem", "B", "net.channel.* share of payword_stream"),
    layer("core.api.bytes_cheque_cycle", "B", "net.channel.* share of cheque_durable"),
    layer("core.api.bytes_statement", "B", "net.channel.* share of statement_mix"),
    layer("core.server.handle_us_direct_transfer", "us", "dispatch share of latency_p50_ms on paybefore_pipelined"),
    layer("core.server.handle_us_request_cheque", "us", "dispatch share of latency_p50_ms on cheque_durable"),
    layer("core.server.handle_us_redeem_cheque", "us", "dispatch share of latency_p50_ms on cheque_durable"),
    layer("core.server.handle_us_request_chain32", "us", "1/32 of an op on payword_stream"),
    layer("core.server.handle_us_redeem_payword", "us", "dispatch share of latency_p50_ms on payword_stream"),
    layer("core.server.handle_us_my_account", "us", "net.rpc.floor_us"),
    layer("core.server.handle_us_statement", "us", "latency_p50_ms and ops_per_s on statement_mix only"),
    layer("core.db.transfer_commit_us", "us", "every write path; a rise is a lock or journal regression"),
    layer("core.db.statement_scan_us_10k", "us", "latency_p50_ms on statement_mix; with _100k the history-independence test"),
    layer("core.db.statement_scan_us_100k", "us", "latency_p50_ms on statement_mix"),
    layer("core.store.commit_us_nofsync", "us", "latency_p50_ms on cheque_durable; nothing elsewhere"),
    layer("core.store.commit_us_fsync", "us", "latency_p50_ms on cheque_durable; nothing elsewhere"),
    layer("core.store.bytes_per_commit", "B", "write amplification; cpu_ms_per_op on cheque_durable"),
    layer("core.store.checkpoint_ms_10k", "ms", "the tail beyond latency_p95_ms on cheque_durable (latency_p99_ms, kept ungated); peak_rss_mb"),
    layer("core.store.checkpoint_ms_100k", "ms", "the tail beyond latency_p95_ms on cheque_durable (latency_p99_ms, kept ungated); peak_rss_mb"),
    layer("core.store.recovery_ms", "ms", "restart_to_serving_s on cheque_durable"),
    layer("core.store.flushes_per_op", "count", "group-commit sharing on paybefore_pipelined and cheque_durable"),
    layer_higher("core.store.batch_size_mean", "count", "group-commit sharing on paybefore_pipelined and cheque_durable"),
    layer("rur.codec.roundtrip_us", "us", "cpu_ms_per_op on cheque_durable"),
    layer("obs.record_ns", "ns", "bench.trace_overhead_share"),
    layer("core.client.call_us.direct_transfer", "us", "latency_p95_ms on statement_mix (its write mode)"),
    layer("core.client.call_us.request_cheque", "us", "latency_p50_ms on cheque_durable"),
    layer("core.client.call_us.redeem_cheque", "us", "latency_p50_ms on cheque_durable"),
    layer("core.client.call_us.request_hash_chain", "us", "1/32 of an op on payword_stream"),
    layer("core.client.call_us.redeem_payword", "us", "latency_p50_ms on payword_stream"),
    layer("core.client.call_us.statement", "us", "latency_p50_ms on statement_mix"),
    layer("core.client.send_us", "us", "client share of cpu_ms_per_op on paybefore_pipelined"),
    layer("core.client.recv_wait_us", "us", "latency_p50_ms on paybefore_pipelined"),
    layer("core.server.stage_us.queue", "us", "informational: the program's own stage histograms"),
    layer("core.server.stage_us.decode", "us", "informational"),
    layer("core.server.stage_us.dispatch", "us", "informational"),
    layer("core.server.stage_us.lock", "us", "informational"),
    layer("core.server.stage_us.journal", "us", "informational"),
    layer("core.server.stage_us.reply", "us", "informational"),
    layer("bench.alloc_count_per_op", "count", "cpu_ms_per_op on every workload"),
    layer("bench.alloc_bytes_per_op", "B", "cpu_ms_per_op and peak_rss_mb on every workload"),
    layer("bench.signatures_per_op", "count", "about 1 on paybefore_pipelined and cheque_durable, 1/32 on payword_stream, 0.1 on statement_mix"),
    layer("bench.op_self_us", "us", "time inside an op outside any client call: harness overhead when unpipelined, parking behind earlier ops in the window when pipelined"),
    layer("bench.trace_overhead_share", "ratio", "must stay below 0.10 or the spans are too fine"),
    layer("bench.latency_p99_ms", "ms", "the tail beyond latency_p95_ms, ungated: head-of-line parking on paybefore_pipelined, fsync stalls and checkpoints on cheque_durable"),
    layer("bench.restart_to_serving_s", "s", "ungated: kill to first answered RPC on the reopened store on cheque_durable, a cold boot elsewhere; mostly key generation, so it moves with setup_s"),
    layer("bench.serial_latency_us_paybefore", "us", "the depth-1 latency the layer probes are summed against"),
    layer_higher("bench.budget_coverage_paybefore_serial", "ratio", "layers sum to the end-to-end latency when this is near 1"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
            .expect("BENCHMARK.json parses")
    }

    fn str_of<'a>(v: &'a Json, key: &str) -> &'a str {
        v.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("no string `{key}` in {v}"))
    }

    #[test]
    fn benchmark_json_matches_the_tables_here() {
        let file = benchmark_json();
        let keys: Vec<&str> = file.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        assert_eq!(file.get("run_seconds").and_then(Json::as_f64), Some(RUN_SECONDS as f64));

        let workloads = file.get("workloads").unwrap().items();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (listed, spec) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(str_of(listed, "name"), spec.name);
            assert_eq!(str_of(listed, "why"), spec.why);
            assert!(spec.why.len() <= 200 && !spec.why.contains('\n'), "{}", spec.name);
        }

        let end_to_end = file.get("end_to_end").unwrap().items();
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (listed, spec) in end_to_end.iter().zip(&END_TO_END) {
            assert_eq!(str_of(listed, "name"), spec.name);
            assert_eq!(str_of(listed, "unit"), spec.unit);
            assert_eq!(str_of(listed, "better"), spec.better.as_str());
            assert_eq!(listed.get("bound").and_then(Json::as_f64), Some(spec.bound));
            assert!(spec.bound > 0.0 && spec.bound <= 0.25);
        }

        let per_layer = file.get("per_layer").unwrap().items();
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (listed, spec) in per_layer.iter().zip(&PER_LAYER) {
            assert_eq!(str_of(listed, "name"), spec.name);
            assert_eq!(str_of(listed, "unit"), spec.unit);
            assert_eq!(str_of(listed, "better"), spec.better.as_str());
        }
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| name_ok(n)), "{names:?}");
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used twice");
        assert!(END_TO_END.iter().all(|m| unit_ok(m.unit)));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit)));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(END_TO_END.iter().find(|m| m.name == "setup_s").unwrap().bound, largest);
    }
}
