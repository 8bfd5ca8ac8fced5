//! Request/response correlation over a secure channel, with pipelining.
//!
//! Every GridBank protocol interaction (§5.2's operations) is a request
//! followed by one response. The 8-byte frame id is a **correlation id**:
//! [`RpcClient`] may keep several requests in flight on one connection
//! ([`RpcClient::send_request`] / [`RpcClient::recv_response`]) and
//! matches responses to requests by id, buffering responses that arrive
//! for other in-flight ids. [`RpcClient::call`] is the depth-1 special
//! case.
//!
//! On the server, [`RpcServer::serve`] — the one serve loop — runs each
//! request to completion on the connection's own thread: it opens the
//! frame, hands the borrowed [`Request`] to the handler, and seals and
//! sends the handler's answer before it reads the next frame. One
//! connection's **responses therefore leave in request order**;
//! parallelism comes from connections, each served by its own thread.
//! Clients still match responses by id. See `docs/PROTOCOLS.md` §1 for
//! the pipelining state machine.
//!
//! Mutating requests may carry a client-generated **idempotency key**
//! (flagged on the kind byte, like the trace context), which the server
//! uses to deduplicate retries — see `docs/RESILIENCE.md`.

use std::collections::{HashMap, HashSet};
use std::time::Duration;

use gridbank_obs::TraceContext;

use crate::channel::SecureChannel;
use crate::error::NetError;
use crate::handshake::PeerIdentity;

const KIND_REQUEST: u8 = 0;
const KIND_RESPONSE: u8 = 1;
/// Flag bit on the kind byte: a [`TraceContext`] (16 bytes) follows the
/// kind byte, before the payload. Absent for untraced peers, so old and
/// new frames interoperate.
const FLAG_TRACE: u8 = 0x80;
/// Flag bit on the kind byte: an 8-byte idempotency key follows the
/// (optional) trace context, before the payload. Absent for requests
/// that are safe to re-apply, so old and new frames interoperate.
const FLAG_IDEM: u8 = 0x40;
const FLAGS: u8 = FLAG_TRACE | FLAG_IDEM;

fn encode(
    id: u64,
    kind: u8,
    trace: Option<TraceContext>,
    idem_key: Option<u64>,
    payload: &[u8],
) -> Vec<u8> {
    let trace_len = trace.map_or(0, |_| TraceContext::WIRE_LEN);
    let idem_len = idem_key.map_or(0, |_| 8);
    let mut out = Vec::with_capacity(9 + trace_len + idem_len + payload.len());
    out.extend_from_slice(&id.to_be_bytes());
    let mut kind_byte = kind;
    if trace.is_some() {
        kind_byte |= FLAG_TRACE;
    }
    if idem_key.is_some() {
        kind_byte |= FLAG_IDEM;
    }
    out.push(kind_byte);
    if let Some(ctx) = trace {
        out.extend_from_slice(&ctx.to_bytes());
    }
    if let Some(key) = idem_key {
        out.extend_from_slice(&key.to_be_bytes());
    }
    out.extend_from_slice(payload);
    out
}

/// A decoded frame: `(id, kind, trace context, idempotency key, payload)`.
type Frame<'a> = (u64, u8, Option<TraceContext>, Option<u64>, &'a [u8]);

fn decode(msg: &[u8]) -> Result<Frame<'_>, NetError> {
    if msg.len() < 9 {
        return Err(NetError::Malformed("rpc frame too short".into()));
    }
    let mut id_arr = [0u8; 8];
    id_arr.copy_from_slice(&msg[..8]);
    let id = u64::from_be_bytes(id_arr);
    let kind = msg[8] & !FLAGS;
    let mut at = 9;
    let trace = if msg[8] & FLAG_TRACE != 0 {
        let end = at + TraceContext::WIRE_LEN;
        if msg.len() < end {
            return Err(NetError::Malformed("rpc frame truncates trace context".into()));
        }
        let ctx = TraceContext::from_bytes(&msg[at..end])
            .ok_or_else(|| NetError::Malformed("bad trace context".into()))?;
        at = end;
        Some(ctx)
    } else {
        None
    };
    let idem = if msg[8] & FLAG_IDEM != 0 {
        let end = at + 8;
        if msg.len() < end {
            return Err(NetError::Malformed("rpc frame truncates idempotency key".into()));
        }
        let mut key_arr = [0u8; 8];
        key_arr.copy_from_slice(&msg[at..end]);
        at = end;
        Some(u64::from_be_bytes(key_arr))
    } else {
        None
    };
    Ok((id, kind, trace, idem, &msg[at..]))
}

/// Client end: correlation-id request/response calls, pipelined or
/// sequential.
pub struct RpcClient {
    channel: SecureChannel,
    next_id: u64,
    timeout: Option<Duration>,
    /// Correlation ids sent but not yet resolved.
    outstanding: HashSet<u64>,
    /// Responses that arrived for a still-unclaimed in-flight id.
    ready: HashMap<u64, Vec<u8>>,
    /// Authenticated identity of the server.
    pub server: PeerIdentity,
}

impl RpcClient {
    /// Wraps an established secure channel.
    pub fn new(channel: SecureChannel, server: PeerIdentity) -> Self {
        RpcClient {
            channel,
            next_id: 1,
            timeout: None,
            outstanding: HashSet::new(),
            ready: HashMap::new(),
            server,
        }
    }

    /// Overrides the per-call response timeout. `None` (the default)
    /// uses the transport's standard timeout; resilient clients set a
    /// short timeout so faulted calls fail fast and retry.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) {
        self.timeout = timeout;
    }

    /// Sends `payload` and waits for the matching response. The caller's
    /// active trace context (if telemetry is on) rides in the frame, so
    /// the server's spans join the client's trace.
    pub fn call(&mut self, payload: &[u8]) -> Result<Vec<u8>, NetError> {
        self.call_inner(None, payload)
    }

    /// Like [`RpcClient::call`], but stamps the request with an
    /// idempotency key so the server can deduplicate retries of the
    /// same logical operation.
    pub fn call_with_key(&mut self, idem_key: u64, payload: &[u8]) -> Result<Vec<u8>, NetError> {
        self.call_inner(Some(idem_key), payload)
    }

    fn call_inner(&mut self, idem_key: Option<u64>, payload: &[u8]) -> Result<Vec<u8>, NetError> {
        let mut span = gridbank_obs::span("net", "rpc_call");
        let timer = gridbank_obs::Stopwatch::start();
        let id = self.send_request_inner(idem_key, payload)?;
        span.attr("request_id", id.to_string());
        let body = self.recv_response(id)?;
        timer.record_named("rpc.client.call_ns");
        Ok(body)
    }

    /// Sends a request without waiting, returning its correlation id.
    /// Pair with [`RpcClient::recv_response`]; any number of requests may
    /// be in flight on the connection at once.
    pub fn send_request(&mut self, payload: &[u8]) -> Result<u64, NetError> {
        self.send_request_inner(None, payload)
    }

    /// [`RpcClient::send_request`] with an idempotency key stamped on the
    /// frame.
    pub fn send_request_with_key(
        &mut self,
        idem_key: u64,
        payload: &[u8],
    ) -> Result<u64, NetError> {
        self.send_request_inner(Some(idem_key), payload)
    }

    fn send_request_inner(
        &mut self,
        idem_key: Option<u64>,
        payload: &[u8],
    ) -> Result<u64, NetError> {
        let id = self.next_id;
        self.next_id += 1;
        self.channel.send(&encode(
            id,
            KIND_REQUEST,
            gridbank_obs::current_context(),
            idem_key,
            payload,
        ))?;
        self.outstanding.insert(id);
        gridbank_obs::observe("rpc.client.in_flight", self.outstanding.len() as u64);
        Ok(id)
    }

    /// Waits for the response to correlation id `id`. Responses arriving
    /// for *other* in-flight ids are buffered and handed out when their
    /// id is claimed; a response for an id that was never issued (or was
    /// already resolved) is a protocol error.
    pub fn recv_response(&mut self, id: u64) -> Result<Vec<u8>, NetError> {
        if !self.outstanding.contains(&id) {
            return Err(NetError::Malformed(format!("correlation id {id} is not in flight")));
        }
        loop {
            if let Some(body) = self.ready.remove(&id) {
                self.outstanding.remove(&id);
                return Ok(body);
            }
            let reply = match self.timeout {
                Some(t) => self.channel.recv_timeout(t)?,
                None => self.channel.recv()?,
            };
            let (rid, kind, _trace, _idem, body) = decode(&reply)?;
            if kind != KIND_RESPONSE {
                return Err(NetError::Malformed(format!("expected response, got kind {kind}")));
            }
            if !self.outstanding.contains(&rid) || self.ready.contains_key(&rid) {
                return Err(NetError::Malformed(format!(
                    "response id {rid} does not match any in-flight request"
                )));
            }
            self.ready.insert(rid, body.to_vec());
        }
    }

    /// Number of requests currently awaiting a response.
    pub fn in_flight(&self) -> usize {
        self.outstanding.len()
    }
}

/// One opened request, borrowed from the frame it arrived in.
pub struct Request<'a> {
    /// Client correlation id, echoed on the response frame.
    pub id: u64,
    /// Trace context carried by the frame, if any.
    pub trace: Option<TraceContext>,
    /// Idempotency key carried by the frame, if any.
    pub idem_key: Option<u64>,
    /// Request payload.
    pub payload: &'a [u8],
}

/// Server-side connection loop.
pub struct RpcServer;

impl RpcServer {
    /// Serves one connection on the calling thread: each request is
    /// opened, handed to `handle`, and answered with the bytes `handle`
    /// returns, sealed on the same channel, before the next request is
    /// read. Responses leave in request order. Returns when the peer
    /// disconnects; propagates integrity and protocol errors.
    pub fn serve<H>(mut channel: SecureChannel, mut handle: H) -> Result<(), NetError>
    where
        H: FnMut(Request<'_>) -> Vec<u8>,
    {
        loop {
            let msg = match channel.recv() {
                Ok(m) => m,
                Err(NetError::Disconnected) => return Ok(()),
                Err(e) => return Err(e),
            };
            let (id, kind, trace, idem_key, payload) = decode(&msg)?;
            if kind != KIND_REQUEST {
                return Err(NetError::Malformed(format!("expected request, got kind {kind}")));
            }
            let response = handle(Request { id, trace, idem_key, payload });
            let reply_timer = gridbank_obs::Stopwatch::start();
            match channel.send(&encode(id, KIND_RESPONSE, None, None, &response)) {
                Ok(()) => {}
                Err(NetError::Disconnected) => return Ok(()),
                Err(e) => return Err(e),
            }
            reply_timer.record_named("server.stage.reply_ns");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{Address, Network};
    use gridbank_crypto::cert::SubjectName;
    use gridbank_crypto::sha256::sha256;
    use proptest::prelude::*;

    fn channel_pair() -> (SecureChannel, SecureChannel) {
        let net = Network::new();
        let listener = net.bind(Address::new("srv")).unwrap();
        let c = net.connect(Address::new("cli"), &Address::new("srv")).unwrap();
        let s = listener.accept().unwrap();
        let secret = sha256(b"test-secret");
        (SecureChannel::new(c, &secret, true), SecureChannel::new(s, &secret, false))
    }

    fn peer(cn: &str) -> PeerIdentity {
        let subject = SubjectName::new("O", "U", cn);
        PeerIdentity { base: subject.clone(), subject }
    }

    /// Serves `channel` until the client hangs up, answering each
    /// request with `handler(idempotency key, payload)`.
    fn serve_with(channel: SecureChannel, mut handler: impl FnMut(Option<u64>, &[u8]) -> Vec<u8>) {
        RpcServer::serve(channel, |req| handler(req.idem_key, req.payload)).unwrap();
    }

    #[test]
    fn echo_round_trips() {
        let (c, s) = channel_pair();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let p = peer("alice");
                serve_with(s, |_key, payload| {
                    let mut out = p.base.common_name().unwrap().as_bytes().to_vec();
                    out.push(b':');
                    out.extend_from_slice(payload);
                    out
                });
            });
            let mut client = RpcClient::new(c, peer("bank"));
            assert_eq!(client.call(b"ping").unwrap(), b"alice:ping");
            assert_eq!(client.call(b"pong").unwrap(), b"alice:pong");
            // Dropping the client ends the server loop cleanly (join on scope exit).
        });
    }

    #[test]
    fn many_sequential_calls_keep_ids_aligned() {
        let (c, s) = channel_pair();
        std::thread::scope(|scope| {
            scope.spawn(|| serve_with(s, |_key, payload| payload.to_vec()));
            let mut client = RpcClient::new(c, peer("bank"));
            for i in 0..100u32 {
                let msg = i.to_be_bytes();
                assert_eq!(client.call(&msg).unwrap(), msg);
            }
        });
    }

    #[test]
    fn idempotency_key_reaches_the_handler() {
        let (c, s) = channel_pair();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                serve_with(s, |key, _payload| key.unwrap_or(0).to_be_bytes().to_vec());
            });
            let mut client = RpcClient::new(c, peer("bank"));
            assert_eq!(client.call(b"no-key").unwrap(), 0u64.to_be_bytes());
            assert_eq!(client.call_with_key(0xFEED, b"keyed").unwrap(), 0xFEEDu64.to_be_bytes());
            // The key is per-call, not sticky.
            assert_eq!(client.call(b"no-key").unwrap(), 0u64.to_be_bytes());
        });
    }

    #[test]
    fn pipelined_responses_match_their_correlation_ids() {
        // The server answers the two pipelined requests in *reverse*
        // order; the client must still hand each caller the body for its
        // own correlation id, buffering the early-arriving other one.
        let (c, mut s) = channel_pair();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let mut frames = Vec::new();
                for _ in 0..2 {
                    let msg = s.recv().unwrap();
                    let (id, kind, _t, _k, payload) = decode(&msg).unwrap();
                    assert_eq!(kind, KIND_REQUEST);
                    frames.push((id, payload.to_vec()));
                }
                for (id, payload) in frames.into_iter().rev() {
                    let mut out = b"re:".to_vec();
                    out.extend_from_slice(&payload);
                    s.send(&encode(id, KIND_RESPONSE, None, None, &out)).unwrap();
                }
            });
            let mut client = RpcClient::new(c, peer("bank"));
            let a = client.send_request(b"alpha").unwrap();
            let b = client.send_request(b"beta").unwrap();
            assert_eq!(client.in_flight(), 2);
            // Claim in send order even though arrival order is reversed.
            assert_eq!(client.recv_response(a).unwrap(), b"re:alpha");
            assert_eq!(client.recv_response(b).unwrap(), b"re:beta");
            assert_eq!(client.in_flight(), 0);
        });
    }

    #[test]
    fn unknown_correlation_ids_are_protocol_errors() {
        let (c, mut s) = channel_pair();
        let mut client = RpcClient::new(c, peer("bank"));
        // Claiming an id that was never issued fails immediately.
        assert!(matches!(client.recv_response(99), Err(NetError::Malformed(_))));
        // A response for an id that is not in flight is rejected.
        let id = client.send_request(b"x").unwrap();
        let req = s.recv().unwrap();
        let (rid, _, _, _, _) = decode(&req).unwrap();
        assert_eq!(rid, id);
        s.send(&encode(id + 1000, KIND_RESPONSE, None, None, b"bogus")).unwrap();
        assert!(matches!(client.recv_response(id), Err(NetError::Malformed(_))));
    }

    #[test]
    fn responses_leave_in_request_order() {
        // Three requests pipelined on one connection: the raw frames the
        // server sends back carry their ids in the order they were sent,
        // whatever each request costs to serve.
        let (mut c, s) = channel_pair();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                serve_with(s, |_key, payload| {
                    if payload == b"slow" {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    payload.to_vec()
                });
            });
            for (id, payload) in [(5u64, &b"slow"[..]), (3, b"fast"), (9, b"also fast")] {
                c.send(&encode(id, KIND_REQUEST, None, None, payload)).unwrap();
            }
            let mut seen = Vec::new();
            for _ in 0..3 {
                let frame = c.recv().unwrap();
                let (id, kind, trace, idem, _body) = decode(&frame).unwrap();
                assert_eq!((kind, trace, idem), (KIND_RESPONSE, None, None));
                seen.push(id);
            }
            assert_eq!(seen, [5, 3, 9]);
            // Hanging up ends the serve loop cleanly.
            drop(c);
        });
    }

    #[test]
    fn malformed_frame_detected() {
        assert!(matches!(decode(&[1, 2, 3]), Err(NetError::Malformed(_))));
        let frame = encode(7, KIND_REQUEST, None, None, b"abc");
        let (id, kind, trace, idem, body) = decode(&frame).unwrap();
        assert_eq!((id, kind, trace, idem, body), (7, KIND_REQUEST, None, None, &b"abc"[..]));
    }

    #[test]
    fn trace_context_rides_the_kind_flag() {
        let ctx = TraceContext { trace_id: 0xDEAD_BEEF, parent_span: 42 };
        let frame = encode(9, KIND_REQUEST, Some(ctx), None, b"xyz");
        assert_eq!(frame.len(), 9 + TraceContext::WIRE_LEN + 3);
        let (id, kind, trace, idem, body) = decode(&frame).unwrap();
        assert_eq!((id, kind, trace, idem, body), (9, KIND_REQUEST, Some(ctx), None, &b"xyz"[..]));
        // A frame that claims a trace context but truncates it is rejected.
        assert!(matches!(decode(&frame[..12]), Err(NetError::Malformed(_))));
    }

    #[test]
    fn idempotency_key_rides_after_the_trace_context() {
        let ctx = TraceContext { trace_id: 7, parent_span: 3 };
        let frame = encode(4, KIND_REQUEST, Some(ctx), Some(0xAB), b"p");
        assert_eq!(frame.len(), 9 + TraceContext::WIRE_LEN + 8 + 1);
        let (id, kind, trace, idem, body) = decode(&frame).unwrap();
        assert_eq!(
            (id, kind, trace, idem, body),
            (4, KIND_REQUEST, Some(ctx), Some(0xAB), &b"p"[..])
        );
        // A frame that claims a key but truncates it is rejected.
        let frame = encode(4, KIND_REQUEST, None, Some(0xAB), b"");
        assert!(matches!(decode(&frame[..12]), Err(NetError::Malformed(_))));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // Idempotency-key frame codec round-trips for every combination
        // of id, key presence, trace presence, and payload.
        #[test]
        fn frame_codec_round_trips(
            id in any::<u64>(),
            key in proptest::option::of(any::<u64>()),
            trace in proptest::option::of((any::<u64>(), any::<u64>())),
            payload in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let ctx = trace.map(|(t, s)| TraceContext { trace_id: t, parent_span: s });
            let frame = encode(id, KIND_REQUEST, ctx, key, &payload);
            let (rid, kind, rtrace, ridem, body) = decode(&frame).unwrap();
            prop_assert_eq!(rid, id);
            prop_assert_eq!(kind, KIND_REQUEST);
            prop_assert_eq!(rtrace, ctx);
            prop_assert_eq!(ridem, key);
            prop_assert_eq!(body, &payload[..]);
        }
    }
}
