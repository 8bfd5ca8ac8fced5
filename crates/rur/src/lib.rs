//! # gridbank-rur
//!
//! The OS-independent **Resource Usage Record** (RUR) the paper takes from
//! the Global Grid Forum effort (§5.1, refs [13, 20]), plus everything the
//! Grid Resource Meter needs to produce one:
//!
//! * [`money`] — fixed-point Grid currency ([`money::Credits`], µG$
//!   precision) with checked arithmetic. The paper stores balances as SQL
//!   `FLOAT`; we deliberately substitute exact fixed point so conservation
//!   invariants are testable (DESIGN.md §4).
//! * [`units`] — durations, data sizes, and the MB·hour composite unit the
//!   paper prices memory and storage in.
//! * [`record`] — the typed RUR (user / job / resource details, usage and
//!   price-per-unit for each chargeable item, total job cost) and its
//!   builder.
//! * [`native`] — simulated *raw* accounting records in three native
//!   flavours (Linux getrusage, Solaris acct, Cray CSA) and the
//!   **conversion unit** that filters them into standard RURs — exactly
//!   the GRM pipeline of Figure 2.
//! * [`aggregate`] — merging the per-resource records R1–R4 of Figure 1
//!   into one combined GSP-level RUR.
//! * [`codec`] — the canonical length-prefixed binary encoding (GridBank
//!   stores RURs as BLOBs) and a reusable byte reader/writer other crates
//!   share.
//! * [`text`] — an XML-like human-readable rendering with a parser, since
//!   the paper notes sites may define textual formats that the GRM then
//!   translates.

// The workspace-level `clippy::arithmetic_side_effects` wall guards
// production money paths; test fixtures may build inputs with plain
// arithmetic (see docs/STATIC_ANALYSIS.md §lint wall).
#![cfg_attr(test, allow(clippy::arithmetic_side_effects))]
// Library code returns typed errors, never panics: a malformed frame
// or a torn journal must surface as `NetError` / `RurError` /
// `BankError`, not abort the process. Tests may unwrap.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

pub mod aggregate;
pub mod codec;
pub mod error;
pub mod money;
pub mod native;
pub mod record;
pub mod text;
pub mod units;

pub use aggregate::aggregate_records;
pub use codec::{ByteReader, ByteWriter, Decode, Encode};
pub use error::RurError;
pub use money::Credits;
pub use record::{
    ChargeableItem, JobDetails, ResourceDetails, ResourceUsageRecord, RurBuilder, UsageLine,
    UserDetails,
};
pub use units::{DataSize, Duration, MbHours};
