//! The host-speed yardstick: a fixed loop of the benchmark's own that
//! says how fast the host is at this moment, so that timings taken on a
//! shared machine can be scaled to one reference speed.
//!
//! Nothing in this file calls the program under test. The bank spends
//! most of its time hashing, so the loop is a SHA-256 compression too —
//! when the host slows down, the loop and every workload slow down
//! together — but it is this file's own compression, not
//! `gridbank_crypto`'s: a change that makes the program's hashing faster
//! leaves the yardstick where it was, and shows in full in every metric
//! scaled by it.

use std::hint::black_box;
use std::time::Instant;

/// The speed of the reference host every time is scaled to: nanoseconds
/// per block of the loop below, about what the host the benchmark was
/// built on does when it is left alone.
pub const REFERENCE_BLOCK_NS: f64 = 300.0;

const INITIAL: [u32; 8] = [
    0x6a09_e667,
    0xbb67_ae85,
    0x3c6e_f372,
    0xa54f_f53a,
    0x510e_527f,
    0x9b05_688c,
    0x1f83_d9ab,
    0x5be0_cd19,
];

#[rustfmt::skip]
const ROUND: [u32; 64] = [
    0x428a_2f98, 0x7137_4491, 0xb5c0_fbcf, 0xe9b5_dba5, 0x3956_c25b, 0x59f1_11f1, 0x923f_82a4, 0xab1c_5ed5,
    0xd807_aa98, 0x1283_5b01, 0x2431_85be, 0x550c_7dc3, 0x72be_5d74, 0x80de_b1fe, 0x9bdc_06a7, 0xc19b_f174,
    0xe49b_69c1, 0xefbe_4786, 0x0fc1_9dc6, 0x240c_a1cc, 0x2de9_2c6f, 0x4a74_84aa, 0x5cb0_a9dc, 0x76f9_88da,
    0x983e_5152, 0xa831_c66d, 0xb003_27c8, 0xbf59_7fc7, 0xc6e0_0bf3, 0xd5a7_9147, 0x06ca_6351, 0x1429_2967,
    0x27b7_0a85, 0x2e1b_2138, 0x4d2c_6dfc, 0x5338_0d13, 0x650a_7354, 0x766a_0abb, 0x81c2_c92e, 0x9272_2c85,
    0xa2bf_e8a1, 0xa81a_664b, 0xc24b_8b70, 0xc76c_51a3, 0xd192_e819, 0xd699_0624, 0xf40e_3585, 0x106a_a070,
    0x19a4_c116, 0x1e37_6c08, 0x2748_774c, 0x34b0_bcb5, 0x391c_0cb3, 0x4ed8_aa4a, 0x5b9c_ca4f, 0x682e_6ff3,
    0x748f_82ee, 0x78a5_636f, 0x84c8_7814, 0x8cc7_0208, 0x90be_fffa, 0xa450_6ceb, 0xbef9_a3f7, 0xc671_78f2,
];

/// One SHA-256 compression (FIPS 180-4, section 6.2.2) of `block` into
/// `state`.
fn compress(state: &mut [u32; 8], block: &[u8]) {
    let mut w = [0u32; 64];
    for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    }
    for t in 16..64 {
        let s0 = w[t - 15].rotate_right(7) ^ w[t - 15].rotate_right(18) ^ (w[t - 15] >> 3);
        let s1 = w[t - 2].rotate_right(17) ^ w[t - 2].rotate_right(19) ^ (w[t - 2] >> 10);
        w[t] = w[t - 16].wrapping_add(s0).wrapping_add(w[t - 7]).wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for (k, word) in ROUND.iter().zip(&w) {
        let big1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let choose = (e & f) ^ (!e & g);
        let t1 = h.wrapping_add(big1).wrapping_add(choose).wrapping_add(*k).wrapping_add(*word);
        let big0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let majority = (a & b) ^ (a & c) ^ (b & c);
        let t2 = big0.wrapping_add(majority);
        (h, g, f, e, d, c, b, a) = (g, f, e, d.wrapping_add(t1), c, b, a, t1.wrapping_add(t2));
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// How fast the host is at one moment, in nanoseconds per block of the
/// loop.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Reading {
    /// By the wall clock: what a caller waiting for the work sees. Grows
    /// when the hypervisor gives the core to another guest.
    pub wall_ns: f64,
    /// By the thread's own CPU time, which does not count time the core
    /// was taken away: grows only when the core itself is slower (clock
    /// speed, a busy sibling thread). The wall reading when the kernel
    /// does not tell.
    pub cpu_ns: f64,
}

/// CPU time this thread has used, nanoseconds, as of the scheduler's
/// last tick: the first field of `/proc/thread-self/schedstat`.
fn thread_cpu_ns() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    stat.split_ascii_whitespace().next()?.parse().ok()
}

/// Reads the host's speed while `threads` threads each compress a fixed
/// 24 MiB (some 100 ms) at once — as many threads as the phase this
/// brackets keeps busy.
pub fn read(threads: usize) -> Reading {
    const PASSES: u32 = 1500;
    const BLOCKS: usize = 256;
    let data = vec![0xA5u8; BLOCKS * 64];
    let per_thread: Vec<Reading> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let (started, cpu_before) = (Instant::now(), thread_cpu_ns());
                    let mut state = INITIAL;
                    for _ in 0..PASSES {
                        for block in black_box(&data).chunks_exact(64) {
                            compress(&mut state, block);
                        }
                    }
                    black_box(state);
                    let wall = started.elapsed().as_nanos() as f64;
                    let cpu = match (cpu_before, thread_cpu_ns()) {
                        (Some(before), Some(after)) if after > before => after - before,
                        _ => wall,
                    };
                    let blocks = f64::from(PASSES) * BLOCKS as f64;
                    Reading { wall_ns: wall / blocks, cpu_ns: cpu / blocks }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("the loop cannot panic")).collect()
    });
    let mean = |f: fn(&Reading) -> f64| per_thread.iter().map(f).sum::<f64>() / threads as f64;
    Reading { wall_ns: mean(|r| r.wall_ns), cpu_ns: mean(|r| r.cpu_ns) }
}

/// The factor that takes a time measured between two readings of
/// `block_ns` (one before, one after) to the reference host: below 1
/// when the host was slower than the reference. A rate is divided by it.
pub fn time_scale(before: f64, after: f64) -> f64 {
    REFERENCE_BLOCK_NS / ((before + after) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_loop_is_a_sha256_compression() {
        // "abc", padded to one block.
        let mut block = [0u8; 64];
        block[..3].copy_from_slice(b"abc");
        block[3] = 0x80;
        block[63] = 24;
        let mut state = INITIAL;
        compress(&mut state, &block);
        let expected = [
            0xba78_16bf,
            0x8f01_cfea,
            0x4141_40de,
            0x5dae_2223,
            0xb003_61a3,
            0x9617_7a9c,
            0xb410_ff61,
            0xf200_15ad,
        ];
        assert_eq!(state, expected);
    }

    #[test]
    fn the_yardstick_calls_nothing_of_the_program_under_test() {
        // A yardstick that ran the program's own code would shrink with
        // it, and hide the very gain (or loss) it is there to show.
        let source = include_str!("yardstick.rs");
        let code = source.split("#[cfg(test)]").next().expect("the part before the tests");
        let needle = ["gridbank", "_"].concat();
        let uses: Vec<&str> = code
            .lines()
            .filter(|l| !l.trim_start().starts_with("//"))
            .filter(|l| l.contains(&needle) || l.contains("crate::"))
            .collect();
        assert!(uses.is_empty(), "{uses:?}");
    }

    #[test]
    fn time_scale_takes_a_slow_host_down_to_the_reference() {
        assert_eq!(time_scale(REFERENCE_BLOCK_NS, REFERENCE_BLOCK_NS), 1.0);
        // Twice as slow before, thrice after: times shrink by 2.5.
        assert_eq!(time_scale(2.0 * REFERENCE_BLOCK_NS, 3.0 * REFERENCE_BLOCK_NS), 0.4);
        let now = read(2);
        assert!(now.wall_ns > 10.0 && now.wall_ns < 100_000.0, "{now:?}");
        // CPU time never runs ahead of the wall clock by more than the
        // scheduler's tick it is read at.
        assert!(now.cpu_ns > 10.0 && now.cpu_ns < 1.2 * now.wall_ns, "{now:?}");
    }
}
