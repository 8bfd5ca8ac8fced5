//! The sealed channel builds a frame, and opens it, in one buffer:
//! sealing a message allocates the frame and nothing else, opening it
//! allocates nothing. A per-block or per-frame scratch `Vec` in
//! `channel.rs` fails this test (the from-scratch keystream it replaced
//! made 86 allocations each way for this message).
//!
//! The serve loop opens a request in the buffer it arrived in and lends
//! the payload to the handler: per request it allocates only the
//! response's RPC frame and its sealed frame.

// The one unsafe item in the package: a `GlobalAlloc` that counts. The
// library itself is `#![forbid(unsafe_code)]`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gridbank_crypto::cert::SubjectName;
use gridbank_crypto::sha256::sha256;
use gridbank_net::{Address, Network, PeerIdentity, RpcClient, RpcServer, SecureChannel};

thread_local! {
    /// Allocations made by this thread; const-initialised and without a
    /// destructor, so reading it inside the allocator allocates nothing.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn note() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter beside the calls
// touches no memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` came from this allocator, hence from `System`,
        // with `layout`; all three arguments are the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations_during<T>(work: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = work();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

#[test]
fn sealing_allocates_the_frame_and_opening_allocates_nothing() {
    let net = Network::new();
    let listener = net.bind(Address::new("srv")).unwrap();
    let near = net.connect(Address::new("cli"), &Address::new("srv")).unwrap();
    let far = listener.accept().unwrap();
    let secret = sha256(b"allocation count");
    let mut sender = SecureChannel::new(near, &secret, true);
    let mut receiver = SecureChannel::new(far, &secret, false);
    // A signed transfer confirmation's size (`core.api.bytes_transfer`).
    let plain = vec![0x5Au8; 2651];

    // Once unmeasured, so anything the link sets up lazily is in place.
    sender.send(&plain).unwrap();
    assert_eq!(receiver.recv().unwrap(), plain);

    let (sealing, sent) = allocations_during(|| sender.send(&plain));
    sent.unwrap();
    let (opening, opened) = allocations_during(|| receiver.recv());
    assert_eq!(opened.unwrap(), plain);
    assert_eq!((sealing, opening), (1, 0), "(sealing, opening) allocations");
}

/// Per request, on the serving thread: the handler's reply (here a copy
/// of a ready-made one), the RPC frame around it and the sealed frame,
/// three. Receiving and opening the request, decoding its header and
/// lending its payload allocate nothing; the loop this replaced copied
/// the payload too and read four with this harness.
#[test]
fn serving_a_request_allocates_the_reply_and_its_two_frames_only() {
    const REQUESTS: usize = 8;
    let net = Network::new();
    let listener = net.bind(Address::new("srv")).unwrap();
    let near = net.connect(Address::new("cli"), &Address::new("srv")).unwrap();
    let far = listener.accept().unwrap();
    let secret = sha256(b"serve allocation count");
    let subject = SubjectName::new("O", "U", "bank");
    let server_identity = PeerIdentity { base: subject.clone(), subject };
    let mut client = RpcClient::new(SecureChannel::new(near, &secret, true), server_identity);
    let server = SecureChannel::new(far, &secret, false);
    // A PayWord redeem's size (`core.api.bytes_redeem`).
    let request = vec![0xA5u8; 2735];
    let reply = vec![0x5Au8; 64];

    // Every request is queued before the server starts, so its thread
    // never waits on the link while it is being counted.
    let ids: Vec<u64> = (0..REQUESTS).map(|_| client.send_request(&request).unwrap()).collect();
    let serving = std::thread::spawn(move || {
        let mut marks = Vec::with_capacity(REQUESTS);
        RpcServer::serve(server, |req| {
            assert_eq!(req.payload.len(), 2735);
            marks.push(ALLOCATIONS.with(Cell::get));
            reply.clone()
        })
        .unwrap();
        marks
    });
    for id in ids {
        assert_eq!(client.recv_response(id).unwrap(), vec![0x5Au8; 64]);
    }
    drop(client);
    let marks = serving.join().unwrap();
    assert_eq!(marks.len(), REQUESTS);
    let per_request: Vec<u64> = marks.windows(2).map(|w| w[1] - w[0]).collect();
    assert_eq!(per_request, vec![3; REQUESTS - 1], "allocations between consecutive requests");
}
