//! What one in-process redeem or signed transfer allocates, pinned exactly.
//! A redeem the bank recognises hashes the presented body and signature
//! where they lie, and signing derives a one-time key's secrets without a
//! formatted label: a copy of the 2.5 KB signature encoding into a `Vec`
//! of its own, or any other allocation added to `GridBank::handle` on
//! these paths, fails this test and has to move the pinned counts on
//! purpose.

// The one unsafe item in the package: a `GlobalAlloc` that counts. The
// library itself is `#![forbid(unsafe_code)]`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gridbank_core::api::{BankRequest, BankResponse};
use gridbank_core::clock::Clock;
use gridbank_core::payword::ChainCommitment;
use gridbank_core::server::{GridBank, GridBankConfig};
use gridbank_core::PayWord;
use gridbank_crypto::cert::SubjectName;
use gridbank_crypto::merkle::MerkleSignature;
use gridbank_crypto::sha256::Digest;
use gridbank_rur::record::{ChargeableItem, RurBuilder, UsageAmount};
use gridbank_rur::units::Duration;
use gridbank_rur::Credits;

thread_local! {
    /// Allocations made by this thread; const-initialised and without a
    /// destructor, so reading it inside the allocator allocates nothing.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn note() {
    ALLOCATIONS.with(|n| n.set(n.get().wrapping_add(1)));
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
    (ALLOCATIONS.with(Cell::get).wrapping_sub(before), out)
}

const PAYER: &str = "/O=Grid/OU=Alloc/CN=payer";
const PAYEE: &str = "/O=Grid/OU=Alloc/CN=payee";

/// A memory-mode bank with a funded payer and a payee, telemetry off.
fn bank() -> GridBank {
    gridbank_obs::set_telemetry(false);
    let bank = GridBank::new(
        GridBankConfig { signer_height: 5, ..GridBankConfig::default() },
        Clock::new(),
    );
    let payer = bank.accounts.create_account(PAYER, None).unwrap();
    bank.accounts.create_account(PAYEE, None).unwrap();
    let operator = "/O=GridBank/OU=Admin/CN=operator";
    bank.admin.deposit(operator, &payer, Credits::from_gd(1_000)).unwrap();
    bank
}

/// Allocations of each of `requests`, made in turn by `caller` under the
/// key beside it; the first is the warm-up and is left out. Vectors that
/// double as rows are appended allocate on some requests and not others,
/// so the pinned number is the fewest any request made.
fn fewest_allocations(
    bank: &GridBank,
    caller: &str,
    requests: Vec<(Option<u64>, BankRequest)>,
    answered: fn(&BankResponse) -> bool,
) -> u64 {
    let caller = SubjectName(caller.into());
    let mut counts = Vec::with_capacity(requests.len());
    for (key, request) in requests {
        let (n, response) = allocations_during(|| bank.handle_keyed(&caller, key, request));
        assert!(answered(&response), "{response:?}");
        counts.push(n);
    }
    counts.into_iter().skip(1).min().unwrap()
}

fn redeemed(response: &BankResponse) -> bool {
    matches!(response, BankResponse::Redeemed { .. })
}

/// A chain of eight words, payable to the payee: its commitment, its
/// signature and its words `w_0..=w_8`.
fn issue_chain(bank: &GridBank) -> (ChainCommitment, MerkleSignature, Vec<Digest>) {
    let issued = bank.handle(
        &SubjectName(PAYER.into()),
        BankRequest::RequestHashChain {
            payee_cert: PAYEE.into(),
            length: 8,
            value_per_word: Credits::from_gd(1),
            validity_ms: 1_000_000,
        },
    );
    let BankResponse::HashChain { commitment, signature, chain } = issued else {
        panic!("chain refused: {issued:?}");
    };
    (commitment, signature, chain)
}

#[test]
fn a_recognised_payword_redeem_allocates_a_pinned_count() {
    let bank = bank();
    let (commitment, signature, chain) = issue_chain(&bank);
    let requests = (1..=8)
        .map(|index| BankRequest::RedeemPayWord {
            commitment: commitment.clone(),
            signature: signature.clone(),
            payword: PayWord { index, word: chain[index as usize] },
            rur_blob: Vec::new(),
        })
        .map(|request| (None, request))
        .collect();
    let n = fewest_allocations(&bank, PAYEE, requests, redeemed);
    assert_eq!(n, 23, "RedeemPayWord allocations");
}

/// The short form allocates what the full form does less the eight of
/// encoding the commitment, which only the full form hashes to recognise
/// it: 15 against 23.
#[test]
fn a_payword_redeem_by_chain_id_allocates_a_pinned_count() {
    let bank = bank();
    let (commitment, _, chain) = issue_chain(&bank);
    let requests = (1..=8)
        .map(|index| BankRequest::RedeemPayWordById {
            chain_id: commitment.chain_id,
            payword: PayWord { index, word: chain[index as usize] },
            rur_blob: Vec::new(),
        })
        .map(|request| (None, request))
        .collect();
    let n = fewest_allocations(&bank, PAYEE, requests, redeemed);
    assert_eq!(n, 15, "RedeemPayWordById allocations");
}

/// The payout and the release of the rest of the reservation are one
/// commit; a release committed on its own would add five allocations:
/// its journal batch and two copies of the drawer's record, two strings
/// each.
#[test]
fn a_recognised_cheque_redeem_allocates_a_pinned_count() {
    let bank = bank();
    let rur = RurBuilder::default()
        .user("h", PAYER)
        .job("j", "app", 0, 3_600_000)
        .resource("r", PAYEE, None, 1)
        .line(ChargeableItem::Cpu, UsageAmount::Time(Duration::from_hours(1)), Credits::from_gd(1))
        .build()
        .unwrap();
    let requests = (0..8)
        .map(|_| {
            let issued = bank.handle(
                &SubjectName(PAYER.into()),
                BankRequest::RequestCheque {
                    payee_cert: PAYEE.into(),
                    amount: Credits::from_gd(2),
                    validity_ms: 1_000_000,
                },
            );
            let BankResponse::Cheque(cheque) = issued else {
                panic!("cheque refused: {issued:?}");
            };
            (None, BankRequest::RedeemCheque { cheque, rur: rur.clone() })
        })
        .collect();
    let n = fewest_allocations(&bank, PAYEE, requests, redeemed);
    assert_eq!(n, 28, "RedeemCheque allocations");
}

/// A keyed pay-before transfer as a batch of one: debit, credit, the
/// remembered response, the confirmation waiting for its batch (one
/// entry), the batch's one-leaf tree and one signature over its root,
/// whose one-time key is derived without allocating. The signature moves
/// into the batch's last receipt, and a batch of one has an empty path.
#[test]
fn a_signed_keyed_transfer_allocates_a_pinned_count() {
    let bank = bank();
    let payee = bank.accounts.account_by_cert(PAYEE).unwrap().id;
    let requests = (1..=8)
        .map(|key| {
            let request = BankRequest::DirectTransfer {
                to: payee,
                amount: Credits::from_gd(1),
                recipient_address: "payee.grid.org".into(),
            };
            (Some(key), request)
        })
        .collect();
    let confirmed = |r: &BankResponse| matches!(r, BankResponse::Confirmed(_));
    let n = fewest_allocations(&bank, PAYER, requests, confirmed);
    assert_eq!(n, 53, "DirectTransfer allocations");
}
