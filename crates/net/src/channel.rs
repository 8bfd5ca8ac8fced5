//! Sealed message channel over an authenticated link.
//!
//! After the handshake both sides hold a shared transcript secret; this
//! module derives one ChaCha20-Poly1305 key per direction from it
//! (client→server and server→client) and seals every frame (RFC 8439
//! §2.8, [`gridbank_crypto::aead`]):
//!
//! ```text
//! key    := HKDF-expand(secret, "c2s/aead" | "s2c/aead", 32)
//! nonce  := 0u32 || seq(8)          (big-endian)
//! frame  := seq(8) || ciphertext || tag(16)
//! ciphertext, tag := ChaCha20-Poly1305(key, nonce, aad = seq(8), plaintext)
//! ```
//!
//! A frame is built, and opened, in one buffer: sealing allocates the
//! frame, opening nothing.
//!
//! Sequence numbers are strict: a replayed, dropped or reordered frame is
//! an integrity error, matching the GSS wrap/unwrap semantics GridBank
//! assumes from Globus I/O. The sequence is checked before the tag, and a
//! refused frame does not advance it.
//!
//! A channel is owned whole by one thread. The server's connection thread
//! opens a request and seals its response on the same channel
//! (`RpcServer::serve`), so the channel has no split halves.

use gridbank_crypto::aead::{open_in_place, seal_in_place, KEY_LEN, NONCE_LEN, TAG_LEN};
use gridbank_crypto::hmac::hkdf_expand;
use gridbank_crypto::sha256::Digest;

use crate::error::NetError;
use crate::transport::Duplex;

/// Bytes of sequence number in front of the ciphertext.
const SEQ_LEN: usize = 8;

/// The AEAD key of one direction.
type DirectionKeys = [u8; KEY_LEN];

fn direction_keys(secret: &[u8], label: &[u8]) -> DirectionKeys {
    let mut key = [0u8; KEY_LEN];
    key.copy_from_slice(&hkdf_expand(secret, &[label, b"/aead"].concat(), KEY_LEN));
    key
}

/// Frame `seq`'s nonce. The key it is used under is derived from the
/// handshake transcript T2 = H(T1 ‖ sig_S), so a (key, nonce) pair
/// repeats only if a whole transcript does. The server's part of T1 is
/// a nonce stream seeded with `nonce_seed ^ conn_seq`, and `conn_seq`
/// restarts at 0 when a bank reboots. So does the signer's next leaf:
/// until it resumes past every leaf already used, a rebooted bank
/// repeats both its nonce stream and the one-time keys it signs T2 with,
/// and a client that repeats its own hello derives the same keys again.
/// Once the leaves resume, the server's fresh one-time signature alone
/// keeps each T2 distinct.
fn nonce(seq: u64) -> [u8; NONCE_LEN] {
    let mut nonce = [0u8; NONCE_LEN];
    nonce[NONCE_LEN - SEQ_LEN..].copy_from_slice(&seq.to_be_bytes());
    nonce
}

/// Seals one plaintext under the direction key at sequence `seq`. The
/// frame is the only allocation.
fn seal_frame(key: &DirectionKeys, seq: u64, plaintext: &[u8]) -> Vec<u8> {
    let timer = gridbank_obs::Stopwatch::start();
    let mut frame = Vec::with_capacity(SEQ_LEN + plaintext.len() + TAG_LEN);
    frame.extend_from_slice(&seq.to_be_bytes());
    frame.extend_from_slice(plaintext);
    let (header, body) = frame.split_at_mut(SEQ_LEN);
    let tag = seal_in_place(key, &nonce(seq), header, body);
    frame.extend_from_slice(&tag);
    gridbank_obs::count("net.channel.sealed_bytes", plaintext.len() as u64);
    timer.record_named("net.channel.seal_ns");
    frame
}

/// Checks the strict sequence, then the tag, and only then decrypts the
/// frame, in the buffer it arrived in.
fn open_frame(
    key: &DirectionKeys,
    expected_seq: u64,
    mut frame: Vec<u8>,
) -> Result<Vec<u8>, NetError> {
    let timer = gridbank_obs::Stopwatch::start();
    if frame.len() < SEQ_LEN + TAG_LEN {
        return Err(NetError::ChannelIntegrity("frame too short".into()));
    }
    let body_end = frame.len() - TAG_LEN;
    let (sealed, tag_bytes) = frame.split_at_mut(body_end);
    let (header, body) = sealed.split_at_mut(SEQ_LEN);
    let mut seq_arr = [0u8; SEQ_LEN];
    seq_arr.copy_from_slice(header);
    let seq = u64::from_be_bytes(seq_arr);
    if seq != expected_seq {
        return Err(NetError::ChannelIntegrity(format!(
            "sequence violation: expected {expected_seq}, got {seq} (replay or drop)"
        )));
    }
    let mut tag = [0u8; TAG_LEN];
    tag.copy_from_slice(tag_bytes);
    if !open_in_place(key, &nonce(seq), header, body, &tag) {
        return Err(NetError::ChannelIntegrity("tag mismatch".into()));
    }
    frame.truncate(body_end);
    frame.drain(..SEQ_LEN);
    gridbank_obs::count("net.channel.opened_bytes", frame.len() as u64);
    timer.record_named("net.channel.open_ns");
    Ok(frame)
}

/// An established secure channel.
pub struct SecureChannel {
    duplex: Duplex,
    send_keys: DirectionKeys,
    recv_keys: DirectionKeys,
    send_seq: u64,
    recv_seq: u64,
}

impl SecureChannel {
    /// Builds a channel from a raw link and the handshake secret.
    ///
    /// `is_client` selects which directional keys to send/receive with.
    pub fn new(duplex: Duplex, transcript_secret: &Digest, is_client: bool) -> Self {
        let c2s = direction_keys(transcript_secret.as_bytes(), b"c2s");
        let s2c = direction_keys(transcript_secret.as_bytes(), b"s2c");
        let (send_keys, recv_keys) = if is_client { (c2s, s2c) } else { (s2c, c2s) };
        SecureChannel { duplex, send_keys, recv_keys, send_seq: 0, recv_seq: 0 }
    }

    /// Seals and sends one message.
    pub fn send(&mut self, plaintext: &[u8]) -> Result<(), NetError> {
        let seq = self.send_seq;
        self.send_seq += 1;
        self.duplex.send(seal_frame(&self.send_keys, seq, plaintext))
    }

    /// Receives, authenticates, and opens one message.
    pub fn recv(&mut self) -> Result<Vec<u8>, NetError> {
        let frame = self.duplex.recv()?;
        self.open(frame)
    }

    /// Receives with an explicit timeout.
    pub fn recv_timeout(&mut self, timeout: std::time::Duration) -> Result<Vec<u8>, NetError> {
        let frame = self.duplex.recv_timeout(timeout)?;
        self.open(frame)
    }

    fn open(&mut self, frame: Vec<u8>) -> Result<Vec<u8>, NetError> {
        let plain = open_frame(&self.recv_keys, self.recv_seq, frame)?;
        self.recv_seq += 1;
        Ok(plain)
    }

    /// The remote transport address (diagnostics).
    pub fn peer(&self) -> &crate::transport::Address {
        &self.duplex.peer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{Address, Network};
    use gridbank_crypto::sha256::sha256;

    /// The two raw ends of one fresh link: (client's, server's).
    fn links() -> (Duplex, Duplex) {
        let net = Network::new();
        let listener = net.bind(Address::new("srv")).unwrap();
        let client_link = net.connect(Address::new("cli"), &Address::new("srv")).unwrap();
        (client_link, listener.accept().unwrap())
    }

    fn pair(secret: &Digest) -> (SecureChannel, SecureChannel) {
        let (client_link, server_link) = links();
        (
            SecureChannel::new(client_link, secret, true),
            SecureChannel::new(server_link, secret, false),
        )
    }

    #[test]
    fn round_trip_both_directions() {
        let secret = sha256(b"shared");
        let (mut c, mut s) = pair(&secret);
        c.send(b"to server").unwrap();
        assert_eq!(s.recv().unwrap(), b"to server");
        s.send(b"to client").unwrap();
        assert_eq!(c.recv().unwrap(), b"to client");
        // Several in a row, including empty.
        for msg in [&b""[..], b"x", b"a longer message with some length to it"] {
            c.send(msg).unwrap();
            assert_eq!(s.recv().unwrap(), msg);
        }
    }

    #[test]
    fn sealed_and_opened_bytes_are_counted_and_timed_while_telemetry_is_on() {
        let registry = gridbank_obs::registry();
        let sealed = registry.counter("net.channel.sealed_bytes");
        let opened = registry.counter("net.channel.opened_bytes");
        let seal_ns = registry.histogram("net.channel.seal_ns");
        let open_ns = registry.histogram("net.channel.open_ns");
        let (mut c, mut s) = pair(&sha256(b"counted"));
        gridbank_obs::set_telemetry(true);
        let before = (sealed.get(), opened.get(), seal_ns.count(), open_ns.count());
        c.send(&[7u8; 100]).unwrap();
        s.recv().unwrap();
        // Telemetry is process-global and sibling tests seal frames too:
        // at least this frame's plaintext and timing, not exactly it.
        assert!(sealed.get() - before.0 >= 100);
        assert!(opened.get() - before.1 >= 100);
        assert!(seal_ns.count() > before.2);
        assert!(open_ns.count() > before.3);
        gridbank_obs::set_telemetry(false);
    }

    #[test]
    fn ciphertext_differs_from_plaintext() {
        let secret = sha256(b"s");
        let net = Network::new();
        let listener = net.bind(Address::new("srv")).unwrap();
        let client_link = net.connect(Address::new("cli"), &Address::new("srv")).unwrap();
        let server_link = listener.accept().unwrap();
        let mut c = SecureChannel::new(client_link, &secret, true);
        c.send(b"SECRET BALANCE 1000").unwrap();
        // Inspect the raw frame on the wire.
        let frame = server_link.recv().unwrap();
        let body = &frame[8..frame.len() - TAG_LEN];
        assert_eq!(body.len(), b"SECRET BALANCE 1000".len());
        assert_ne!(body, b"SECRET BALANCE 1000");
    }

    #[test]
    fn wrong_secret_fails_mac() {
        let net = Network::new();
        let listener = net.bind(Address::new("srv")).unwrap();
        let client_link = net.connect(Address::new("cli"), &Address::new("srv")).unwrap();
        let server_link = listener.accept().unwrap();
        let mut c = SecureChannel::new(client_link, &sha256(b"secret-a"), true);
        let mut s = SecureChannel::new(server_link, &sha256(b"secret-b"), false);
        c.send(b"msg").unwrap();
        assert!(matches!(s.recv(), Err(NetError::ChannelIntegrity(_))));
    }

    #[test]
    fn tampered_frame_rejected() {
        let secret = sha256(b"s");
        let net = Network::new();
        let listener = net.bind(Address::new("srv")).unwrap();
        let client_link = net.connect(Address::new("cli"), &Address::new("srv")).unwrap();
        let server_link = listener.accept().unwrap();
        let mut c = SecureChannel::new(client_link, &secret, true);
        c.send(b"pay 1 G$").unwrap();
        let mut frame = server_link.recv().unwrap();
        frame[9] ^= 0x80; // flip a ciphertext bit
        let mut s = SecureChannel::new(
            {
                // rebuild a channel around a fresh link carrying the tampered frame
                let l2 = net.bind(Address::new("srv2")).unwrap();
                let c2 = net.connect(Address::new("x"), &Address::new("srv2")).unwrap();
                c2.send(frame).unwrap();
                l2.accept().unwrap()
            },
            &secret,
            false,
        );
        assert!(matches!(s.recv(), Err(NetError::ChannelIntegrity(_))));
    }

    #[test]
    fn replay_rejected() {
        let secret = sha256(b"s");
        let net = Network::new();
        let listener = net.bind(Address::new("srv")).unwrap();
        let client_link = net.connect(Address::new("cli"), &Address::new("srv")).unwrap();
        let server_link = listener.accept().unwrap();
        let mut c = SecureChannel::new(client_link, &secret, true);
        c.send(b"withdraw").unwrap();

        let frame = server_link.recv().unwrap();
        let mut s = SecureChannel::new(
            {
                let l2 = net.bind(Address::new("srv2")).unwrap();
                let c2 = net.connect(Address::new("x"), &Address::new("srv2")).unwrap();
                c2.send(frame.clone()).unwrap();
                c2.send(frame).unwrap(); // replay
                l2.accept().unwrap()
            },
            &secret,
            false,
        );
        assert_eq!(s.recv().unwrap(), b"withdraw");
        assert!(matches!(s.recv(), Err(NetError::ChannelIntegrity(_))));
    }

    #[test]
    fn directions_use_distinct_keys() {
        // A frame sent client->server must not be accepted as server->client.
        let secret = sha256(b"s");
        let net = Network::new();
        let listener = net.bind(Address::new("srv")).unwrap();
        let client_link = net.connect(Address::new("cli"), &Address::new("srv")).unwrap();
        let server_link = listener.accept().unwrap();
        let mut c = SecureChannel::new(client_link, &secret, true);
        c.send(b"msg").unwrap();
        let frame = server_link.recv().unwrap();
        // Feed the c2s frame into the *client* side (expects s2c keys).
        let l2 = net.bind(Address::new("srv2")).unwrap();
        let c2 = net.connect(Address::new("x"), &Address::new("srv2")).unwrap();
        c2.send(frame).unwrap();
        let mut reflected = SecureChannel::new(l2.accept().unwrap(), &secret, true);
        assert!(matches!(reflected.recv(), Err(NetError::ChannelIntegrity(_))));
    }

    /// The lengths straddle ChaCha20's 64-byte block and Poly1305's 16-byte
    /// one; 2,651 is a signed transfer confirmation.
    const GOLDEN_LENGTHS: [usize; 8] = [0, 1, 31, 32, 33, 64, 100, 2651];

    /// SHA-256 over the frames of [`GOLDEN_LENGTHS`], sealed in order at
    /// sequences 0–7 by the client (or server) end of a fresh channel.
    fn wire_digest(is_client: bool) -> Digest {
        let (near, far) = links();
        let mut sender = SecureChannel::new(near, &sha256(b"golden wire bytes"), is_client);
        let mut wire = Vec::new();
        for len in GOLDEN_LENGTHS {
            let plain: Vec<u8> = (0..len).map(|i| (i * 7 + len) as u8).collect();
            sender.send(&plain).unwrap();
            wire.extend_from_slice(&far.recv().unwrap());
        }
        sha256(&wire)
    }

    /// The expected values were printed by this Python script, which builds
    /// the frames from the layout in the module doc with the `cryptography`
    /// package's ChaCha20-Poly1305, not from this crate:
    ///
    /// ```text
    /// import hashlib, hmac
    /// from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305
    /// secret = hashlib.sha256(b"golden wire bytes").digest()
    /// for label in (b"c2s", b"s2c"):
    ///     key = hmac.new(secret, label + b"/aead\x01", hashlib.sha256).digest()
    ///     wire = b""
    ///     for seq, n in enumerate([0, 1, 31, 32, 33, 64, 100, 2651]):
    ///         plain = bytes((i * 7 + n) & 0xFF for i in range(n))
    ///         header = seq.to_bytes(8, "big")
    ///         aead = ChaCha20Poly1305(key)
    ///         wire += header + aead.encrypt(b"\0" * 4 + header, plain, header)
    ///     print(label.decode(), hashlib.sha256(wire).hexdigest())
    /// ```
    ///
    /// Any change to the key derivation, nonce, AAD, cipher, tag or frame
    /// layout fails here.
    #[test]
    fn wire_bytes_match_an_independent_rfc8439_reference() {
        assert_eq!(
            wire_digest(true).to_hex(),
            "76f97170a3ace2bd45afcb5fce84d24a6b9793d560cc61aad52e813331f65697"
        );
        assert_eq!(
            wire_digest(false).to_hex(),
            "82d0c2d80d6d6effaa4f7679313cd5ae2e706f2f24439dbb0659fff1cf0cf426"
        );
    }

    /// Every truncation of a 100-byte message's frame and a flipped bit at
    /// every byte of it (sequence, ciphertext, tag) is refused, and a
    /// refused frame does not advance the receive sequence: the good frame
    /// still opens right after it.
    #[test]
    fn every_truncation_and_bit_flip_is_refused_without_advancing_the_sequence() {
        let secret = sha256(b"s");
        let plain: Vec<u8> = (0u8..100).collect();
        let good = seal_frame(&direction_keys(secret.as_bytes(), b"c2s"), 0, &plain);
        assert_eq!(good.len(), SEQ_LEN + plain.len() + TAG_LEN);
        let truncated = (0..good.len()).map(|len| good[..len].to_vec());
        let flipped = (0..good.len()).map(|at| {
            let mut frame = good.clone();
            frame[at] ^= 1 << (at % 8);
            frame
        });
        for bad in truncated.chain(flipped) {
            let (raw, server_link) = links();
            let mut server = SecureChannel::new(server_link, &secret, false);
            raw.send(bad.clone()).unwrap();
            assert!(matches!(server.recv(), Err(NetError::ChannelIntegrity(_))), "opened {bad:?}");
            raw.send(good.clone()).unwrap();
            assert_eq!(server.recv().unwrap(), plain);
        }
    }
}
