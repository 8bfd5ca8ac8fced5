//! The sealed channel builds a frame, and opens it, in one buffer:
//! sealing a message allocates the frame and nothing else, opening it
//! allocates nothing. A per-block or per-frame scratch `Vec` in
//! `channel.rs` fails this test (the from-scratch keystream it replaced
//! made 86 allocations each way for this message).

// The one unsafe item in the package: a `GlobalAlloc` that counts. The
// library itself is `#![forbid(unsafe_code)]`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gridbank_crypto::sha256::sha256;
use gridbank_net::{Address, Network, SecureChannel};

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
