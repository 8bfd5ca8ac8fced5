//! # gridbank-core
//!
//! **GridBank** — the Grid Accounting Services Architecture (GASA) server
//! and client, the primary contribution of the paper. A secure Grid-wide
//! accounting and (micro)payment system: it maintains consumer and
//! provider accounts and resource-usage records, and speaks the three
//! payment protocols of §3.1 behind the layered architecture of Figure 3.
//!
//! ## Layer map (Figure 3 → modules)
//!
//! | Paper layer | Modules |
//! |---|---|
//! | GB database | [`db`] (tables, indexes, journal), [`store`] (on-disk segments + snapshots) |
//! | GB Accounts | [`accounts`] (create/get/update, transfer, lock funds, transfer-from-locked) |
//! | GB Admin | [`admin`] (deposit, withdraw, credit limit, cancel, close) |
//! | Payment Protocol Layer | [`cheque`] (GridCheque, pay-after-use), [`payword`] (GridHash chains, pay-as-you-go), [`direct`] (funds transfer, pay-before-use) |
//! | GB Security | [`server`] (GSS handshake + account-table connection gate), signing via `gridbank-crypto` |
//! | GridBank API | [`api`] (wire protocol for §5.2/§5.2.1), [`client`] (typed client over a link: wire, [`port`] direct, [`resilient`] retry) |
//!
//! Beyond the server core:
//!
//! * [`guarantee`] — §3.4 payment guarantee: funds locked against issued
//!   cheques/chains so clients can never overspend.
//! * [`pricing`] — §4.2 competitive model: price estimation from the
//!   (confidential) transaction history.
//! * [`coop`] — §4.1 co-operative model: initial credit allocation by
//!   resource value and barter-balance statistics.
//! * [`federation`] — §6 future work, implemented: one GridBank branch
//!   per Virtual Organization, branch-aware request routing,
//!   exactly-once `IbCredit` delivery, and a settlement daemon netting
//!   clearing accounts; [`branch`] holds its pure netting arithmetic
//!   and clearing-account helpers.
//! * [`clock`] — the virtual clock every time-dependent component reads.
//!
//! Money is exact fixed-point ([`gridbank_rur::Credits`]); every transfer
//! preserves Σ(available+locked) — property-tested in `accounts`.

#![forbid(unsafe_code)]
// The workspace `clippy::arithmetic_side_effects` wall guards
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

pub mod accounts;
pub mod admin;
pub mod api;
pub mod branch;
pub mod cheque;
pub mod client;
pub mod clock;
pub mod coop;
pub mod db;
pub mod direct;
pub mod error;
pub mod federation;
pub mod guarantee;
pub mod payword;
pub mod port;
pub mod pricing;
pub mod resilient;
pub mod server;
pub mod store;
pub(crate) mod sync;

pub use accounts::GbAccounts;
pub use admin::GbAdmin;
pub use api::{BankRequest, BankResponse};
pub use cheque::GridCheque;
pub use client::{BankClient, BankLink, GridBankClient};
pub use clock::Clock;
pub use db::{
    AccountId, AccountRecord, CheckpointStats, Database, GroupCommitConfig, TransactionRecord,
    TransactionType, TransferRecord,
};
pub use error::BankError;
pub use federation::{
    direct_mesh, direct_peer, settle_all, settlement_identity, FederationRouter, SettlementDaemon,
};
pub use payword::{GridHashChain, PayWord};
pub use port::{DirectLink, InProcessBank};
pub use resilient::{ResilientBankClient, RetryLink};
pub use server::{GridBank, GridBankConfig, GridBankServer, ServerTuning};
pub use store::{RecoveryReport, StoreConfig, StoreInspection};
