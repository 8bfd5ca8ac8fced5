//! The sealed channel builds a frame, and opens it, in one buffer:
//! sealing a message allocates the frame and nothing else, opening it
//! allocates nothing. A per-block or per-frame scratch `Vec` in
//! `channel.rs` fails this test (the from-scratch keystream it replaced
//! made 86 allocations each way for this message).
//!
//! The serve loop opens a request in the buffer it arrived in and lends
//! the payload to the handler: per request it allocates only the
//! response's sealed frame, and per drain the list of requests it lends.

// The one unsafe item in the package: a `GlobalAlloc` that counts. The
// library itself is `#![forbid(unsafe_code)]`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, Barrier};

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

/// On the serving thread, a drain of `n` requests allocates `2n + 1`:
/// per request the handler's reply (here a copy of a ready-made one) and
/// its sealed frame, and once per drain the list of requests lent to the
/// handler. Receiving and opening the requests, decoding their headers
/// and lending their payloads allocate nothing, and the RPC frame around
/// each reply is built in a buffer the loop keeps. A batch of one
/// therefore costs the three allocations a request cost before the loop
/// drained (reply, RPC frame, sealed frame).
#[test]
fn serving_a_drain_allocates_the_replies_their_frames_and_one_list() {
    // The drains the server will take, in order.
    const WINDOWS: [usize; 4] = [8, 8, 1, 3];
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

    // The handler meets the client once it holds a drain, and holds the
    // drain until the client has queued the next window whole: every
    // drain is exactly one window, and the server never waits on an empty
    // link while it is counted. The first drain sizes every buffer the
    // loop reuses; its cost is left out.
    let held = Arc::new(Barrier::new(2));
    let mut send_window =
        |n: usize| -> Vec<u64> { (0..n).map(|_| client.send_request(&request).unwrap()).collect() };
    let mut ids = send_window(WINDOWS[0]);
    let serving = std::thread::spawn({
        let held = Arc::clone(&held);
        move || {
            // (allocations so far, requests in the drain) at each drain.
            let mut marks: Vec<(u64, usize)> = Vec::with_capacity(WINDOWS.len());
            RpcServer::serve(server, |requests, responses| {
                marks.push((ALLOCATIONS.with(Cell::get), requests.len()));
                held.wait();
                held.wait();
                for req in requests {
                    assert_eq!(req.payload.len(), 2735);
                    responses.push(reply.clone());
                }
            })
            .unwrap();
            marks
        }
    });
    for n in &WINDOWS[1..] {
        held.wait();
        ids.extend(send_window(*n));
        held.wait();
    }
    held.wait();
    held.wait();
    for id in ids {
        assert_eq!(client.recv_response(id).unwrap(), vec![0x5Au8; 64]);
    }
    drop(client);
    let marks = serving.join().unwrap();
    assert_eq!(marks.iter().map(|m| m.1).collect::<Vec<_>>(), WINDOWS);
    // Each drain's cost is read from its mark to the next one's.
    let costs: Vec<u64> = marks.windows(2).skip(1).map(|w| w[1].0 - w[0].0).collect();
    let pinned: Vec<u64> = WINDOWS[1..3].iter().map(|&n| 2 * n as u64 + 1).collect();
    assert_eq!(costs, pinned, "allocations of each drain of n after the first, against 2n + 1");
}
