//! The GridBank wire API (§5.2, §5.2.1).
//!
//! Every operation the paper lists is a [`BankRequest`] variant; the
//! server answers with a [`BankResponse`]. The caller's identity is never
//! in the message — it comes from the authenticated channel (the
//! certificate subject name), which is what makes "Create New Account:
//! Input: Client's Certificate" and payee-bound redemption sound.
//!
//! Messages use the shared binary codec from `gridbank-rur`.

use gridbank_crypto::merkle::MerkleSignature;
use gridbank_crypto::sha256::{Digest, DIGEST_LEN};
use gridbank_rur::codec::{ByteReader, ByteWriter, Decode, Encode};
use gridbank_rur::record::ResourceUsageRecord;
use gridbank_rur::{Credits, RurError};

use crate::cheque::{ChequeBody, GridCheque};
use crate::db::{AccountId, AccountRecord, TransactionRecord, TransactionType, TransferRecord};
use crate::direct::{ConfirmationBody, TransferConfirmation};
use crate::error::BankError;
use crate::payword::{ChainCommitment, PayWord};
use crate::pricing::ResourceDescription;

impl Encode for AccountId {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u32(self.bank as u32);
        w.put_u32(self.branch as u32);
        w.put_u32(self.number);
    }
}

impl Decode for AccountId {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, RurError> {
        Ok(AccountId {
            bank: r.get_u32()? as u16,
            branch: r.get_u32()? as u16,
            number: r.get_u32()?,
        })
    }
}

impl Encode for AccountRecord {
    fn encode(&self, w: &mut ByteWriter) {
        self.id.encode(w);
        w.put_str(&self.certificate_name);
        w.put_opt_str(self.organization.as_deref());
        self.available.encode(w);
        self.locked.encode(w);
        w.put_str(&self.currency);
        self.credit_limit.encode(w);
    }
}

impl Decode for AccountRecord {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, RurError> {
        Ok(AccountRecord {
            id: AccountId::decode(r)?,
            certificate_name: r.get_str()?,
            organization: r.get_opt_str()?,
            available: Credits::decode(r)?,
            locked: Credits::decode(r)?,
            currency: r.get_str()?,
            credit_limit: Credits::decode(r)?,
        })
    }
}

impl Encode for TransactionRecord {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.transaction_id);
        self.account.encode(w);
        w.put_u8(self.tx_type.tag());
        w.put_u64(self.date_ms);
        self.amount.encode(w);
    }
}

impl Decode for TransactionRecord {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, RurError> {
        Ok(TransactionRecord {
            transaction_id: r.get_u64()?,
            account: AccountId::decode(r)?,
            tx_type: TransactionType::from_tag(r.get_u8()?)
                .ok_or_else(|| RurError::Decode("bad tx type".into()))?,
            date_ms: r.get_u64()?,
            amount: Credits::decode(r)?,
        })
    }
}

impl Encode for TransferRecord {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.transaction_id);
        w.put_u64(self.date_ms);
        self.drawer.encode(w);
        self.amount.encode(w);
        self.recipient.encode(w);
        w.put_bytes(&self.rur_blob);
        w.put_u64(self.trace_id);
    }
}

impl Decode for TransferRecord {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, RurError> {
        Ok(TransferRecord {
            transaction_id: r.get_u64()?,
            date_ms: r.get_u64()?,
            drawer: AccountId::decode(r)?,
            amount: Credits::decode(r)?,
            recipient: AccountId::decode(r)?,
            rur_blob: r.get_bytes()?.to_vec(),
            trace_id: r.get_u64()?,
        })
    }
}

impl Encode for ResourceDescription {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u32(self.cpu_speed);
        w.put_u32(self.cpu_count);
        w.put_u64(self.memory_mb);
        w.put_u64(self.storage_mb);
        w.put_u32(self.bandwidth_mbps);
    }
}

impl Decode for ResourceDescription {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, RurError> {
        Ok(ResourceDescription {
            cpu_speed: r.get_u32()?,
            cpu_count: r.get_u32()?,
            memory_mb: r.get_u64()?,
            storage_mb: r.get_u64()?,
            bandwidth_mbps: r.get_u32()?,
        })
    }
}

fn put_sig(w: &mut ByteWriter, sig: &MerkleSignature) {
    w.put_bytes(&sig.to_bytes());
}

fn get_sig(r: &mut ByteReader<'_>) -> Result<MerkleSignature, RurError> {
    MerkleSignature::from_bytes(r.get_bytes()?)
        .map_err(|e| RurError::Decode(format!("bad signature: {e}")))
}

fn put_digest(w: &mut ByteWriter, d: &Digest) {
    w.put_bytes(d.as_bytes());
}

fn get_digest(r: &mut ByteReader<'_>) -> Result<Digest, RurError> {
    let b = r.get_bytes()?;
    if b.len() != DIGEST_LEN {
        return Err(RurError::Decode("bad digest length".into()));
    }
    let mut a = [0u8; DIGEST_LEN];
    a.copy_from_slice(b);
    Ok(Digest(a))
}

impl Encode for GridCheque {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_bytes(&self.body.to_bytes());
        put_sig(w, &self.signature);
    }
}

impl Decode for GridCheque {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, RurError> {
        let body = ChequeBody::from_bytes(r.get_bytes()?)?;
        Ok(GridCheque { body, signature: get_sig(r)? })
    }
}

impl Encode for crate::db::JournalEntry {
    fn encode(&self, w: &mut ByteWriter) {
        use crate::db::JournalEntry as J;
        match self {
            J::Create(r) => {
                w.put_u8(0);
                r.encode(w);
            }
            J::Update(r) => {
                w.put_u8(1);
                r.encode(w);
            }
            J::Remove(id) => {
                w.put_u8(2);
                id.encode(w);
            }
            J::Transaction(t) => {
                w.put_u8(3);
                t.encode(w);
            }
            J::Transfer(t) => {
                w.put_u8(4);
                t.encode(w);
            }
            J::Idem { cert, key, response, seq } => {
                w.put_u8(5);
                w.put_str(cert);
                w.put_u64(*key);
                w.put_bytes(response);
                w.put_u64(*seq);
            }
            J::IbOut(credit) => {
                w.put_u8(6);
                w.put_u64(credit.key);
                credit.to.encode(w);
                credit.amount.encode(w);
                w.put_u32(credit.origin as u32);
                credit.drawer.encode(w);
                match &credit.idem {
                    Some((cert, key)) => {
                        w.put_u8(1);
                        w.put_str(cert);
                        w.put_u64(*key);
                    }
                    None => w.put_u8(0),
                }
            }
            J::IbAck { key } => {
                w.put_u8(7);
                w.put_u64(*key);
            }
            J::IdemDrop { cert, key } => {
                w.put_u8(8);
                w.put_str(cert);
                w.put_u64(*key);
            }
        }
    }
}

impl Decode for crate::db::JournalEntry {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, RurError> {
        use crate::db::JournalEntry as J;
        Ok(match r.get_u8()? {
            0 => J::Create(AccountRecord::decode(r)?),
            1 => J::Update(AccountRecord::decode(r)?),
            2 => J::Remove(AccountId::decode(r)?),
            3 => J::Transaction(TransactionRecord::decode(r)?),
            4 => J::Transfer(TransferRecord::decode(r)?),
            5 => J::Idem {
                cert: r.get_str()?,
                key: r.get_u64()?,
                response: r.get_bytes()?.to_vec(),
                seq: r.get_u64()?,
            },
            6 => J::IbOut(crate::db::PendingIbCredit {
                key: r.get_u64()?,
                to: AccountId::decode(r)?,
                amount: Credits::decode(r)?,
                origin: r.get_u32()? as u16,
                drawer: AccountId::decode(r)?,
                idem: match r.get_u8()? {
                    0 => None,
                    1 => Some((r.get_str()?, r.get_u64()?)),
                    t => return Err(RurError::Decode(format!("bad idem flag {t}"))),
                },
            }),
            7 => J::IbAck { key: r.get_u64()? },
            8 => J::IdemDrop { cert: r.get_str()?, key: r.get_u64()? },
            t => return Err(RurError::Decode(format!("bad journal tag {t}"))),
        })
    }
}

/// A client request (identity comes from the channel, never the message).
#[derive(Clone, Debug)]
pub enum BankRequest {
    /// Create New Account (§5.2); subject = authenticated caller.
    CreateAccount {
        /// Optional organization name.
        organization: Option<String>,
    },
    /// Details of the caller's own account.
    MyAccount,
    /// Request Account Details / Check Balance (§5.2).
    AccountDetails {
        /// Account to read.
        account: AccountId,
    },
    /// Update Account Details (§5.2); only cert/org fields apply.
    UpdateAccount {
        /// Account to update (must be the caller's).
        account: AccountId,
        /// New certificate name.
        certificate_name: String,
        /// New organization.
        organization: Option<String>,
    },
    /// Request Account Statement (§5.2).
    Statement {
        /// Account.
        account: AccountId,
        /// Window start (inclusive), virtual ms.
        start_ms: u64,
        /// Window end (exclusive).
        end_ms: u64,
    },
    /// Perform Funds Availability Check (§5.2): locks the amount.
    CheckFunds {
        /// Account to lock on (must be the caller's).
        account: AccountId,
        /// Amount to lock.
        amount: Credits,
    },
    /// Request Direct Transfer (§5.2); drawer = the caller's account.
    DirectTransfer {
        /// Recipient account.
        to: AccountId,
        /// Amount.
        amount: Credits,
        /// GSP address the confirmation is destined for.
        recipient_address: String,
    },
    /// Request GridCheque (§5.2); drawer = the caller's account.
    RequestCheque {
        /// Payee certificate name the cheque is made out to.
        payee_cert: String,
        /// Reserved amount.
        amount: Credits,
        /// Validity window, ms.
        validity_ms: u64,
    },
    /// Redeem GridCheque (§5.2); the caller must be the payee.
    RedeemCheque {
        /// The cheque.
        cheque: GridCheque,
        /// The usage record evidence.
        rur: ResourceUsageRecord,
    },
    /// Request GridHash chain (§5.2); drawer = the caller's account.
    RequestHashChain {
        /// Payee certificate name.
        payee_cert: String,
        /// Number of paywords.
        length: u32,
        /// Value of each payword.
        value_per_word: Credits,
        /// Validity window, ms.
        validity_ms: u64,
    },
    /// Redeem GridHash chain (§5.2); the caller must be the payee.
    RedeemPayWord {
        /// The signed chain commitment.
        commitment: ChainCommitment,
        /// Bank signature over the commitment.
        signature: MerkleSignature,
        /// Highest payword being redeemed.
        payword: PayWord,
        /// Binary RUR evidence (may be empty for interim redemptions).
        rur_blob: Vec<u8>,
    },
    /// Close a hash chain (release unspent reservation after expiry).
    CloseHashChain {
        /// The commitment to close.
        commitment: ChainCommitment,
    },
    /// Registers the caller's resource description (feeds §4.2 pricing).
    RegisterResourceDescription {
        /// Hardware description of the caller's resource.
        desc: ResourceDescription,
    },
    /// §4.2: market price estimate for a described resource.
    EstimatePrice {
        /// Description to price.
        desc: ResourceDescription,
        /// Minimum similarity (parts per 1024) for history to count.
        min_similarity_ppk: u64,
    },
    /// Redeem a batch of cheques in one round trip (§3.1: "This can be
    /// done in batches"); entries settle independently.
    RedeemChequeBatch {
        /// (cheque, evidence) pairs.
        items: Vec<(GridCheque, ResourceUsageRecord)>,
    },
    /// Admin: Deposit funds (§5.2.1).
    AdminDeposit {
        /// Target account.
        account: AccountId,
        /// Amount.
        amount: Credits,
    },
    /// Admin: Withdraw (§5.2.1).
    AdminWithdraw {
        /// Source account.
        account: AccountId,
        /// Amount.
        amount: Credits,
    },
    /// Admin: Change credit limit (§5.2.1).
    AdminCreditLimit {
        /// Target account.
        account: AccountId,
        /// New limit.
        new_limit: Credits,
    },
    /// Admin: Cancel Transfer (§5.2.1).
    AdminCancelTransfer {
        /// Transaction id of the transfer to reverse.
        transaction_id: u64,
    },
    /// Admin: Close account (§5.2.1).
    AdminCloseAccount {
        /// Account to close.
        account: AccountId,
        /// Where the outstanding balance goes (None = withdraw).
        transfer_to: Option<AccountId>,
    },
    /// Inter-branch (§6): credit a local payee on behalf of a remote
    /// drawer whose branch already parked the funds in its clearing
    /// account. Sent branch-to-branch only (callers must be settlement
    /// admins); always stamped with an idempotency key so redelivery
    /// after a crash or link fault applies exactly once.
    IbCredit {
        /// The payee account (must be home on the receiving branch).
        to: AccountId,
        /// Amount to credit.
        amount: Credits,
        /// Branch where the drawer (and the parked funds) live.
        origin_branch: u16,
        /// Binary RUR evidence carried along with the payment.
        rur_blob: Vec<u8>,
    },
    /// Inter-branch (§6): open a pairwise netting round. The proposer
    /// names the gross amount parked on its side for the receiver; the
    /// receiver drains its own clearing account toward the proposer and
    /// answers with [`BankResponse::IbSettleAck`].
    IbSettleProposal {
        /// The proposing branch.
        origin_branch: u16,
        /// Gross flow parked at the proposer for the receiver's members.
        gross_out: Credits,
    },
    /// Ops plane: live introspection of a running branch over the
    /// secure channel. Gated on the `OPS_ADMIN` trust role (mirroring
    /// the federation peer set); everyone else gets a typed
    /// `NotAuthorized` error. Read-only by construction.
    OpsQuery {
        /// What to report.
        query: OpsQuery,
    },
}

/// What an [`BankRequest::OpsQuery`] asks the serving branch for.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OpsQuery {
    /// Full metrics snapshot rendered server-side as JSON-lines,
    /// optionally narrowed to instruments whose name starts with
    /// `filter`.
    Metrics {
        /// Name-prefix filter; `None` = everything.
        filter: Option<String>,
    },
    /// Structured health report ([`HealthReport`]).
    Health,
    /// Dump of the flight recorder's retained slow/errored span trees,
    /// rendered server-side.
    Traces,
}

/// Coarse health verdict of a branch, worst-signal-wins (semantics in
/// `docs/OBSERVABILITY.md` §Ops plane).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HealthState {
    /// All signals nominal.
    Healthy,
    /// Operating, but a resilience signal is degraded (journal backlog,
    /// signing leaves running low).
    Degraded,
    /// A peer route is unreachable (cross-branch payments to it are
    /// failing), or the disk failed.
    Unhealthy,
}

impl HealthState {
    /// Wire tag.
    pub fn tag(self) -> u8 {
        match self {
            HealthState::Healthy => 0,
            HealthState::Degraded => 1,
            HealthState::Unhealthy => 2,
        }
    }

    /// Parses a wire tag.
    pub fn from_tag(tag: u8) -> Option<HealthState> {
        match tag {
            0 => Some(HealthState::Healthy),
            1 => Some(HealthState::Degraded),
            2 => Some(HealthState::Unhealthy),
            _ => None,
        }
    }

    /// Stable display name (`Healthy` / `Degraded` / `Unhealthy`).
    pub fn name(self) -> &'static str {
        match self {
            HealthState::Healthy => "Healthy",
            HealthState::Degraded => "Degraded",
            HealthState::Unhealthy => "Unhealthy",
        }
    }
}

/// One federation peer's slice of a [`HealthReport`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PeerHealth {
    /// The peer branch id.
    pub branch: u16,
    /// Balance of the local clearing account held against that peer
    /// (positive = we owe the peer at the next netting round).
    pub clearing: Credits,
    /// False when the route's last attempts all failed in transport
    /// ([`crate::client::BankLink::reachable`]).
    pub reachable: bool,
}

/// Structured answer to [`OpsQuery::Health`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HealthReport {
    /// The serving branch.
    pub branch: u16,
    /// Worst-signal-wins verdict.
    pub state: HealthState,
    /// Live client connections, each served by a thread of its own.
    pub connections: u32,
    /// One-time signing leaves the bank key has left: every confirmation,
    /// cheque and chain commitment consumes one, and none come back.
    pub signer_remaining: u64,
    /// Leaves the bank key was generated with, `2^signer_height`.
    pub signer_capacity: u64,
    /// Per-peer clearing balances and reachability; empty when the
    /// branch is not federated.
    pub peers: Vec<PeerHealth>,
}

/// Server's answer to an [`BankRequest::OpsQuery`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OpsReport {
    /// Metrics snapshot, rendered as JSON-lines.
    Metrics {
        /// `gridbank_obs::render_jsonl` output.
        jsonl: String,
    },
    /// Structured health report.
    Health(HealthReport),
    /// Flight-recorder dump (rendered span trees, may be empty).
    Traces {
        /// `gridbank_obs::flight::dump` output.
        rendered: String,
    },
}

impl Encode for OpsQuery {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            OpsQuery::Metrics { filter } => {
                w.put_u8(0);
                w.put_opt_str(filter.as_deref());
            }
            OpsQuery::Health => w.put_u8(1),
            OpsQuery::Traces => w.put_u8(2),
        }
    }
}

impl Decode for OpsQuery {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, RurError> {
        Ok(match r.get_u8()? {
            0 => OpsQuery::Metrics { filter: r.get_opt_str()? },
            1 => OpsQuery::Health,
            2 => OpsQuery::Traces,
            t => return Err(RurError::Decode(format!("unknown ops query tag {t}"))),
        })
    }
}

impl Encode for PeerHealth {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u32(self.branch as u32);
        self.clearing.encode(w);
        w.put_u8(self.reachable as u8);
    }
}

impl Decode for PeerHealth {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, RurError> {
        Ok(PeerHealth {
            branch: r.get_u32()? as u16,
            clearing: Credits::decode(r)?,
            reachable: r.get_u8()? != 0,
        })
    }
}

impl Encode for HealthReport {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u32(self.branch as u32);
        w.put_u8(self.state.tag());
        w.put_u32(self.connections);
        w.put_u64(self.signer_remaining);
        w.put_u64(self.signer_capacity);
        w.put_u32(self.peers.len() as u32);
        for p in &self.peers {
            p.encode(w);
        }
    }
}

impl Decode for HealthReport {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, RurError> {
        let branch = r.get_u32()? as u16;
        let state = HealthState::from_tag(r.get_u8()?)
            .ok_or_else(|| RurError::Decode("bad health state tag".into()))?;
        let connections = r.get_u32()?;
        let signer_remaining = r.get_u64()?;
        let signer_capacity = r.get_u64()?;
        let n = r.get_u32()? as usize;
        if n > 1 << 16 {
            return Err(RurError::Decode("too many peers".into()));
        }
        let mut peers = Vec::with_capacity(n);
        for _ in 0..n {
            peers.push(PeerHealth::decode(r)?);
        }
        Ok(HealthReport { branch, state, connections, signer_remaining, signer_capacity, peers })
    }
}

impl Encode for OpsReport {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            OpsReport::Metrics { jsonl } => {
                w.put_u8(0);
                w.put_str(jsonl);
            }
            OpsReport::Health(report) => {
                w.put_u8(1);
                report.encode(w);
            }
            OpsReport::Traces { rendered } => {
                w.put_u8(2);
                w.put_str(rendered);
            }
        }
    }
}

impl Decode for OpsReport {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, RurError> {
        Ok(match r.get_u8()? {
            0 => OpsReport::Metrics { jsonl: r.get_str()? },
            1 => OpsReport::Health(HealthReport::decode(r)?),
            2 => OpsReport::Traces { rendered: r.get_str()? },
            t => return Err(RurError::Decode(format!("unknown ops report tag {t}"))),
        })
    }
}

impl BankRequest {
    /// The variant's stable name — the label under which telemetry
    /// records per-request latency (`rpc.server.latency_ns/<name>`).
    pub fn variant_name(&self) -> &'static str {
        match self {
            BankRequest::CreateAccount { .. } => "CreateAccount",
            BankRequest::MyAccount => "MyAccount",
            BankRequest::AccountDetails { .. } => "AccountDetails",
            BankRequest::UpdateAccount { .. } => "UpdateAccount",
            BankRequest::Statement { .. } => "Statement",
            BankRequest::CheckFunds { .. } => "CheckFunds",
            BankRequest::DirectTransfer { .. } => "DirectTransfer",
            BankRequest::RequestCheque { .. } => "RequestCheque",
            BankRequest::RedeemCheque { .. } => "RedeemCheque",
            BankRequest::RequestHashChain { .. } => "RequestHashChain",
            BankRequest::RedeemPayWord { .. } => "RedeemPayWord",
            BankRequest::CloseHashChain { .. } => "CloseHashChain",
            BankRequest::RegisterResourceDescription { .. } => "RegisterResourceDescription",
            BankRequest::EstimatePrice { .. } => "EstimatePrice",
            BankRequest::RedeemChequeBatch { .. } => "RedeemChequeBatch",
            BankRequest::AdminDeposit { .. } => "AdminDeposit",
            BankRequest::AdminWithdraw { .. } => "AdminWithdraw",
            BankRequest::AdminCreditLimit { .. } => "AdminCreditLimit",
            BankRequest::AdminCancelTransfer { .. } => "AdminCancelTransfer",
            BankRequest::AdminCloseAccount { .. } => "AdminCloseAccount",
            BankRequest::IbCredit { .. } => "IbCredit",
            BankRequest::IbSettleProposal { .. } => "IbSettleProposal",
            BankRequest::OpsQuery { .. } => "OpsQuery",
        }
    }

    /// Whether the request mutates bank state. Mutating requests are the
    /// ones a resilient client must stamp with an idempotency key before
    /// retrying — re-sending a read is always safe. Every variant is
    /// named: a new one fails to compile until it is classified.
    #[deny(clippy::wildcard_enum_match_arm)]
    pub fn is_mutating(&self) -> bool {
        match self {
            BankRequest::MyAccount
            | BankRequest::AccountDetails { .. }
            | BankRequest::Statement { .. }
            | BankRequest::EstimatePrice { .. }
            | BankRequest::OpsQuery { .. } => false,
            // CheckFunds *locks* funds (§3.4 guarantee) — replaying it
            // unkeyed would strand a second lock.
            BankRequest::CheckFunds { .. }
            | BankRequest::CreateAccount { .. }
            | BankRequest::UpdateAccount { .. }
            | BankRequest::DirectTransfer { .. }
            | BankRequest::RequestCheque { .. }
            | BankRequest::RedeemCheque { .. }
            | BankRequest::RequestHashChain { .. }
            | BankRequest::RedeemPayWord { .. }
            | BankRequest::CloseHashChain { .. }
            | BankRequest::RegisterResourceDescription { .. }
            | BankRequest::RedeemChequeBatch { .. }
            | BankRequest::AdminDeposit { .. }
            | BankRequest::AdminWithdraw { .. }
            | BankRequest::AdminCreditLimit { .. }
            | BankRequest::AdminCancelTransfer { .. }
            | BankRequest::AdminCloseAccount { .. }
            | BankRequest::IbCredit { .. }
            | BankRequest::IbSettleProposal { .. } => true,
        }
    }

    /// Which GridBank server layer (§3.2) services the request — the
    /// component name on the dispatch span.
    pub fn layer(&self) -> &'static str {
        match self {
            BankRequest::CreateAccount { .. }
            | BankRequest::MyAccount
            | BankRequest::AccountDetails { .. }
            | BankRequest::UpdateAccount { .. }
            | BankRequest::Statement { .. }
            | BankRequest::CheckFunds { .. }
            | BankRequest::AdminDeposit { .. }
            | BankRequest::AdminWithdraw { .. }
            | BankRequest::AdminCreditLimit { .. }
            | BankRequest::AdminCancelTransfer { .. }
            | BankRequest::AdminCloseAccount { .. } => "server.accounts",
            BankRequest::DirectTransfer { .. }
            | BankRequest::RequestCheque { .. }
            | BankRequest::RedeemCheque { .. }
            | BankRequest::RequestHashChain { .. }
            | BankRequest::RedeemPayWord { .. }
            | BankRequest::CloseHashChain { .. }
            | BankRequest::RedeemChequeBatch { .. } => "server.payment",
            BankRequest::RegisterResourceDescription { .. } | BankRequest::EstimatePrice { .. } => {
                "server.pricing"
            }
            BankRequest::IbCredit { .. } | BankRequest::IbSettleProposal { .. } => {
                "server.federation"
            }
            BankRequest::OpsQuery { .. } => "server.ops",
        }
    }
}

/// Server response.
#[derive(Clone, Debug)]
pub enum BankResponse {
    /// Account created.
    AccountCreated {
        /// The new account id.
        account: AccountId,
    },
    /// An account record.
    Account(AccountRecord),
    /// A statement.
    Statement {
        /// Account as of the query.
        account: AccountRecord,
        /// Transactions in range.
        transactions: Vec<TransactionRecord>,
        /// Transfers in range.
        transfers: Vec<TransferRecord>,
    },
    /// Generic confirmation carrying the transaction id (0 when none).
    Confirmation {
        /// Transaction id, if one was committed.
        transaction_id: u64,
    },
    /// A signed direct-transfer confirmation.
    Confirmed(TransferConfirmation),
    /// An issued cheque.
    Cheque(GridCheque),
    /// An issued hash chain (commitment + signature + the secret chain).
    HashChain {
        /// The signed commitment.
        commitment: ChainCommitment,
        /// Bank signature.
        signature: MerkleSignature,
        /// Full chain `w_0..=w_n` (w_0 public root, rest secret).
        chain: Vec<Digest>,
    },
    /// Result of a redemption.
    Redeemed {
        /// Amount paid to the payee.
        paid: Credits,
        /// Amount released back to the drawer.
        released: Credits,
    },
    /// A price estimate.
    Estimate {
        /// Estimated G$ per CPU-hour.
        price: Credits,
    },
    /// Per-entry outcomes of a batch redemption: `Ok((paid, released))`
    /// or `Err((kind, message))` per cheque, in submission order.
    RedeemedBatch {
        /// One result per submitted cheque.
        results: Vec<Result<(Credits, Credits), (u8, String)>>,
    },
    /// Failure.
    Error {
        /// Coarse error kind ([`error_kind`] / [`error_from_wire`]).
        kind: u8,
        /// Human-readable message.
        message: String,
        /// Kind-specific structured payload ([`error_detail`]): for
        /// [`kinds::NOT_HOME_BRANCH`] the account's home branch id.
        /// Zero when the kind carries none.
        detail: u32,
    },
    /// Answer to [`BankRequest::IbSettleProposal`]: the receiver's side
    /// of the pairwise netting round.
    IbSettleAck {
        /// Gross flow the receiver had parked for the proposer's members
        /// (now drained on the receiver's books).
        gross_back: Credits,
    },
    /// Answer to an [`BankRequest::OpsQuery`].
    OpsReport {
        /// The requested report.
        report: OpsReport,
    },
}

/// Coarse error kinds that survive the wire.
pub mod kinds {
    /// Anything not otherwise classified.
    pub const OTHER: u8 = 0;
    /// Insufficient (spendable or locked) funds.
    pub const INSUFFICIENT: u8 = 1;
    /// Instrument already redeemed.
    pub const ALREADY_REDEEMED: u8 = 2;
    /// Caller not authorized.
    pub const NOT_AUTHORIZED: u8 = 3;
    /// Unknown subject/account.
    pub const UNKNOWN_ACCOUNT: u8 = 4;
    /// Invalid payment instrument.
    pub const INVALID_INSTRUMENT: u8 = 5;
    /// Duplicate account.
    pub const DUPLICATE: u8 = 6;
    /// The account lives on another branch (typed redirect; the home
    /// branch id rides in the error frame's structured detail field).
    pub const NOT_HOME_BRANCH: u8 = 7;
}

/// Maps a [`BankError`] to its wire kind.
pub fn error_kind(e: &BankError) -> u8 {
    match e {
        BankError::InsufficientFunds { .. } | BankError::InsufficientLockedFunds { .. } => {
            kinds::INSUFFICIENT
        }
        BankError::AlreadyRedeemed(_) => kinds::ALREADY_REDEEMED,
        BankError::NotAuthorized(_) => kinds::NOT_AUTHORIZED,
        BankError::NoSuchAccount(_) | BankError::UnknownSubject(_) => kinds::UNKNOWN_ACCOUNT,
        BankError::InvalidInstrument(_) => kinds::INVALID_INSTRUMENT,
        BankError::DuplicateAccount(_) => kinds::DUPLICATE,
        BankError::NotHomeBranch { .. } => kinds::NOT_HOME_BRANCH,
        _ => kinds::OTHER,
    }
}

/// The kind-specific structured payload an error frame carries alongside
/// the kind and message — for [`kinds::NOT_HOME_BRANCH`] the home branch
/// id, zero for every other kind.
pub fn error_detail(e: &BankError) -> u32 {
    match e {
        BankError::NotHomeBranch { home } => *home as u32,
        _ => 0,
    }
}

/// Reconstructs a coarse [`BankError`] from a wire error.
pub fn error_from_wire(kind: u8, message: String, detail: u32) -> BankError {
    match kind {
        kinds::INSUFFICIENT => BankError::InsufficientFunds {
            account: AccountId::new(0, 0, 0),
            needed: Credits::ZERO,
            spendable: Credits::ZERO,
        },
        kinds::ALREADY_REDEEMED => BankError::AlreadyRedeemed(message),
        kinds::NOT_AUTHORIZED => BankError::NotAuthorized(message),
        kinds::UNKNOWN_ACCOUNT => BankError::UnknownSubject(message),
        kinds::INVALID_INSTRUMENT => BankError::InvalidInstrument(message),
        kinds::DUPLICATE => BankError::DuplicateAccount(message),
        kinds::NOT_HOME_BRANCH => BankError::NotHomeBranch { home: detail as u16 },
        _ => BankError::Protocol(message),
    }
}

impl Encode for BankRequest {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            BankRequest::CreateAccount { organization } => {
                w.put_u8(0);
                w.put_opt_str(organization.as_deref());
            }
            BankRequest::MyAccount => w.put_u8(1),
            BankRequest::AccountDetails { account } => {
                w.put_u8(2);
                account.encode(w);
            }
            BankRequest::UpdateAccount { account, certificate_name, organization } => {
                w.put_u8(3);
                account.encode(w);
                w.put_str(certificate_name);
                w.put_opt_str(organization.as_deref());
            }
            BankRequest::Statement { account, start_ms, end_ms } => {
                w.put_u8(4);
                account.encode(w);
                w.put_u64(*start_ms);
                w.put_u64(*end_ms);
            }
            BankRequest::CheckFunds { account, amount } => {
                w.put_u8(5);
                account.encode(w);
                amount.encode(w);
            }
            BankRequest::DirectTransfer { to, amount, recipient_address } => {
                w.put_u8(6);
                to.encode(w);
                amount.encode(w);
                w.put_str(recipient_address);
            }
            BankRequest::RequestCheque { payee_cert, amount, validity_ms } => {
                w.put_u8(7);
                w.put_str(payee_cert);
                amount.encode(w);
                w.put_u64(*validity_ms);
            }
            BankRequest::RedeemCheque { cheque, rur } => {
                w.put_u8(8);
                cheque.encode(w);
                rur.encode(w);
            }
            BankRequest::RequestHashChain { payee_cert, length, value_per_word, validity_ms } => {
                w.put_u8(9);
                w.put_str(payee_cert);
                w.put_u32(*length);
                value_per_word.encode(w);
                w.put_u64(*validity_ms);
            }
            BankRequest::RedeemPayWord { commitment, signature, payword, rur_blob } => {
                w.put_u8(10);
                w.put_bytes(&commitment.to_bytes());
                put_sig(w, signature);
                w.put_u32(payword.index);
                put_digest(w, &payword.word);
                w.put_bytes(rur_blob);
            }
            BankRequest::CloseHashChain { commitment } => {
                w.put_u8(11);
                w.put_bytes(&commitment.to_bytes());
            }
            BankRequest::RegisterResourceDescription { desc } => {
                w.put_u8(12);
                desc.encode(w);
            }
            BankRequest::EstimatePrice { desc, min_similarity_ppk } => {
                w.put_u8(13);
                desc.encode(w);
                w.put_u64(*min_similarity_ppk);
            }
            BankRequest::RedeemChequeBatch { items } => {
                w.put_u8(19);
                w.put_u32(items.len() as u32);
                for (cheque, rur) in items {
                    cheque.encode(w);
                    rur.encode(w);
                }
            }
            BankRequest::AdminDeposit { account, amount } => {
                w.put_u8(14);
                account.encode(w);
                amount.encode(w);
            }
            BankRequest::AdminWithdraw { account, amount } => {
                w.put_u8(15);
                account.encode(w);
                amount.encode(w);
            }
            BankRequest::AdminCreditLimit { account, new_limit } => {
                w.put_u8(16);
                account.encode(w);
                new_limit.encode(w);
            }
            BankRequest::AdminCancelTransfer { transaction_id } => {
                w.put_u8(17);
                w.put_u64(*transaction_id);
            }
            BankRequest::AdminCloseAccount { account, transfer_to } => {
                w.put_u8(18);
                account.encode(w);
                match transfer_to {
                    Some(t) => {
                        w.put_u8(1);
                        t.encode(w);
                    }
                    None => w.put_u8(0),
                }
            }
            BankRequest::IbCredit { to, amount, origin_branch, rur_blob } => {
                w.put_u8(20);
                to.encode(w);
                amount.encode(w);
                w.put_u32(*origin_branch as u32);
                w.put_bytes(rur_blob);
            }
            BankRequest::IbSettleProposal { origin_branch, gross_out } => {
                w.put_u8(21);
                w.put_u32(*origin_branch as u32);
                gross_out.encode(w);
            }
            BankRequest::OpsQuery { query } => {
                w.put_u8(22);
                query.encode(w);
            }
        }
    }
}

impl Decode for BankRequest {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, RurError> {
        Ok(match r.get_u8()? {
            0 => BankRequest::CreateAccount { organization: r.get_opt_str()? },
            1 => BankRequest::MyAccount,
            2 => BankRequest::AccountDetails { account: AccountId::decode(r)? },
            3 => BankRequest::UpdateAccount {
                account: AccountId::decode(r)?,
                certificate_name: r.get_str()?,
                organization: r.get_opt_str()?,
            },
            4 => BankRequest::Statement {
                account: AccountId::decode(r)?,
                start_ms: r.get_u64()?,
                end_ms: r.get_u64()?,
            },
            5 => BankRequest::CheckFunds {
                account: AccountId::decode(r)?,
                amount: Credits::decode(r)?,
            },
            6 => BankRequest::DirectTransfer {
                to: AccountId::decode(r)?,
                amount: Credits::decode(r)?,
                recipient_address: r.get_str()?,
            },
            7 => BankRequest::RequestCheque {
                payee_cert: r.get_str()?,
                amount: Credits::decode(r)?,
                validity_ms: r.get_u64()?,
            },
            8 => BankRequest::RedeemCheque {
                cheque: GridCheque::decode(r)?,
                rur: ResourceUsageRecord::decode(r)?,
            },
            9 => BankRequest::RequestHashChain {
                payee_cert: r.get_str()?,
                length: r.get_u32()?,
                value_per_word: Credits::decode(r)?,
                validity_ms: r.get_u64()?,
            },
            10 => BankRequest::RedeemPayWord {
                commitment: ChainCommitment::from_bytes(r.get_bytes()?)?,
                signature: get_sig(r)?,
                payword: PayWord { index: r.get_u32()?, word: get_digest(r)? },
                rur_blob: r.get_bytes()?.to_vec(),
            },
            11 => BankRequest::CloseHashChain {
                commitment: ChainCommitment::from_bytes(r.get_bytes()?)?,
            },
            12 => {
                BankRequest::RegisterResourceDescription { desc: ResourceDescription::decode(r)? }
            }
            13 => BankRequest::EstimatePrice {
                desc: ResourceDescription::decode(r)?,
                min_similarity_ppk: r.get_u64()?,
            },
            14 => BankRequest::AdminDeposit {
                account: AccountId::decode(r)?,
                amount: Credits::decode(r)?,
            },
            15 => BankRequest::AdminWithdraw {
                account: AccountId::decode(r)?,
                amount: Credits::decode(r)?,
            },
            16 => BankRequest::AdminCreditLimit {
                account: AccountId::decode(r)?,
                new_limit: Credits::decode(r)?,
            },
            17 => BankRequest::AdminCancelTransfer { transaction_id: r.get_u64()? },
            18 => BankRequest::AdminCloseAccount {
                account: AccountId::decode(r)?,
                transfer_to: match r.get_u8()? {
                    0 => None,
                    1 => Some(AccountId::decode(r)?),
                    t => return Err(RurError::Decode(format!("bad option tag {t}"))),
                },
            },
            19 => {
                let n = r.get_u32()? as usize;
                if n > 4096 {
                    return Err(RurError::Decode(format!("batch of {n} too large")));
                }
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push((GridCheque::decode(r)?, ResourceUsageRecord::decode(r)?));
                }
                BankRequest::RedeemChequeBatch { items }
            }
            20 => BankRequest::IbCredit {
                to: AccountId::decode(r)?,
                amount: Credits::decode(r)?,
                origin_branch: r.get_u32()? as u16,
                rur_blob: r.get_bytes()?.to_vec(),
            },
            21 => BankRequest::IbSettleProposal {
                origin_branch: r.get_u32()? as u16,
                gross_out: Credits::decode(r)?,
            },
            22 => BankRequest::OpsQuery { query: OpsQuery::decode(r)? },
            t => return Err(RurError::Decode(format!("unknown request tag {t}"))),
        })
    }
}

impl Encode for BankResponse {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            BankResponse::AccountCreated { account } => {
                w.put_u8(0);
                account.encode(w);
            }
            BankResponse::Account(record) => {
                w.put_u8(1);
                record.encode(w);
            }
            BankResponse::Statement { account, transactions, transfers } => {
                w.put_u8(2);
                account.encode(w);
                w.put_u32(transactions.len() as u32);
                for t in transactions {
                    t.encode(w);
                }
                w.put_u32(transfers.len() as u32);
                for t in transfers {
                    t.encode(w);
                }
            }
            BankResponse::Confirmation { transaction_id } => {
                w.put_u8(3);
                w.put_u64(*transaction_id);
            }
            BankResponse::Confirmed(conf) => {
                w.put_u8(4);
                w.put_bytes(&conf.body.to_bytes());
                put_sig(w, &conf.signature);
            }
            BankResponse::Cheque(cheque) => {
                w.put_u8(5);
                cheque.encode(w);
            }
            BankResponse::HashChain { commitment, signature, chain } => {
                w.put_u8(6);
                w.put_bytes(&commitment.to_bytes());
                put_sig(w, signature);
                w.put_u32(chain.len() as u32);
                for d in chain {
                    put_digest(w, d);
                }
            }
            BankResponse::Redeemed { paid, released } => {
                w.put_u8(7);
                paid.encode(w);
                released.encode(w);
            }
            BankResponse::Estimate { price } => {
                w.put_u8(8);
                price.encode(w);
            }
            BankResponse::Error { kind, message, detail } => {
                w.put_u8(9);
                w.put_u8(*kind);
                w.put_str(message);
                w.put_u32(*detail);
            }
            BankResponse::RedeemedBatch { results } => {
                w.put_u8(10);
                w.put_u32(results.len() as u32);
                for r in results {
                    match r {
                        Ok((paid, released)) => {
                            w.put_u8(1);
                            paid.encode(w);
                            released.encode(w);
                        }
                        Err((kind, message)) => {
                            w.put_u8(0);
                            w.put_u8(*kind);
                            w.put_str(message);
                        }
                    }
                }
            }
            BankResponse::IbSettleAck { gross_back } => {
                w.put_u8(11);
                gross_back.encode(w);
            }
            BankResponse::OpsReport { report } => {
                w.put_u8(12);
                report.encode(w);
            }
        }
    }
}

impl Decode for BankResponse {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, RurError> {
        Ok(match r.get_u8()? {
            0 => BankResponse::AccountCreated { account: AccountId::decode(r)? },
            1 => BankResponse::Account(AccountRecord::decode(r)?),
            2 => {
                let account = AccountRecord::decode(r)?;
                let nt = r.get_u32()? as usize;
                if nt > 1 << 20 {
                    return Err(RurError::Decode("statement too large".into()));
                }
                let mut transactions = Vec::with_capacity(nt);
                for _ in 0..nt {
                    transactions.push(TransactionRecord::decode(r)?);
                }
                let nf = r.get_u32()? as usize;
                if nf > 1 << 20 {
                    return Err(RurError::Decode("statement too large".into()));
                }
                let mut transfers = Vec::with_capacity(nf);
                for _ in 0..nf {
                    transfers.push(TransferRecord::decode(r)?);
                }
                BankResponse::Statement { account, transactions, transfers }
            }
            3 => BankResponse::Confirmation { transaction_id: r.get_u64()? },
            4 => BankResponse::Confirmed(TransferConfirmation {
                body: ConfirmationBody::from_bytes(r.get_bytes()?)?,
                signature: get_sig(r)?,
            }),
            5 => BankResponse::Cheque(GridCheque::decode(r)?),
            6 => {
                let commitment = ChainCommitment::from_bytes(r.get_bytes()?)?;
                let signature = get_sig(r)?;
                let n = r.get_u32()? as usize;
                if n > 1 << 20 {
                    return Err(RurError::Decode("chain too long".into()));
                }
                let mut chain = Vec::with_capacity(n);
                for _ in 0..n {
                    chain.push(get_digest(r)?);
                }
                BankResponse::HashChain { commitment, signature, chain }
            }
            7 => {
                BankResponse::Redeemed { paid: Credits::decode(r)?, released: Credits::decode(r)? }
            }
            8 => BankResponse::Estimate { price: Credits::decode(r)? },
            9 => BankResponse::Error {
                kind: r.get_u8()?,
                message: r.get_str()?,
                detail: r.get_u32()?,
            },
            10 => {
                let n = r.get_u32()? as usize;
                if n > 4096 {
                    return Err(RurError::Decode(format!("batch of {n} too large")));
                }
                let mut results = Vec::with_capacity(n);
                for _ in 0..n {
                    results.push(match r.get_u8()? {
                        1 => Ok((Credits::decode(r)?, Credits::decode(r)?)),
                        0 => Err((r.get_u8()?, r.get_str()?)),
                        t => return Err(RurError::Decode(format!("bad batch result tag {t}"))),
                    });
                }
                BankResponse::RedeemedBatch { results }
            }
            11 => BankResponse::IbSettleAck { gross_back: Credits::decode(r)? },
            12 => BankResponse::OpsReport { report: OpsReport::decode(r)? },
            t => return Err(RurError::Decode(format!("unknown response tag {t}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: BankRequest) -> BankRequest {
        BankRequest::from_bytes(&req.to_bytes()).unwrap()
    }

    #[test]
    fn simple_requests_round_trip() {
        let cases = vec![
            BankRequest::CreateAccount { organization: Some("UWA".into()) },
            BankRequest::MyAccount,
            BankRequest::AccountDetails { account: AccountId::new(1, 2, 3) },
            BankRequest::Statement { account: AccountId::new(1, 1, 1), start_ms: 5, end_ms: 10 },
            BankRequest::CheckFunds {
                account: AccountId::new(1, 1, 1),
                amount: Credits::from_gd(5),
            },
            BankRequest::DirectTransfer {
                to: AccountId::new(1, 1, 2),
                amount: Credits::from_gd(3),
                recipient_address: "gsp.org".into(),
            },
            BankRequest::RequestCheque {
                payee_cert: "/CN=gsp".into(),
                amount: Credits::from_gd(10),
                validity_ms: 1000,
            },
            BankRequest::AdminCancelTransfer { transaction_id: 99 },
            BankRequest::AdminCloseAccount { account: AccountId::new(1, 1, 4), transfer_to: None },
            BankRequest::AdminCloseAccount {
                account: AccountId::new(1, 1, 4),
                transfer_to: Some(AccountId::new(1, 1, 5)),
            },
            BankRequest::IbCredit {
                to: AccountId::new(1, 2, 7),
                amount: Credits::from_gd(4),
                origin_branch: 1,
                rur_blob: vec![9, 9, 9],
            },
            BankRequest::IbSettleProposal { origin_branch: 2, gross_out: Credits::from_gd(110) },
            BankRequest::OpsQuery { query: OpsQuery::Metrics { filter: None } },
            BankRequest::OpsQuery {
                query: OpsQuery::Metrics { filter: Some("server.stage.".into()) },
            },
            BankRequest::OpsQuery { query: OpsQuery::Health },
            BankRequest::OpsQuery { query: OpsQuery::Traces },
        ];
        for req in cases {
            let back = round_trip_request(req.clone());
            assert_eq!(format!("{back:?}"), format!("{req:?}"));
        }
    }

    #[test]
    fn responses_round_trip() {
        let rec = AccountRecord {
            id: AccountId::new(1, 1, 7),
            certificate_name: "/CN=x".into(),
            organization: None,
            available: Credits::from_gd(5),
            locked: Credits::from_gd(1),
            currency: "GridDollar".into(),
            credit_limit: Credits::ZERO,
        };
        let cases = vec![
            BankResponse::AccountCreated { account: rec.id },
            BankResponse::Account(rec.clone()),
            BankResponse::Statement {
                account: rec,
                transactions: vec![TransactionRecord {
                    transaction_id: 1,
                    account: AccountId::new(1, 1, 7),
                    tx_type: TransactionType::Deposit,
                    date_ms: 9,
                    amount: Credits::from_gd(5),
                }],
                transfers: vec![TransferRecord {
                    transaction_id: 2,
                    date_ms: 10,
                    drawer: AccountId::new(1, 1, 7),
                    amount: Credits::from_gd(1),
                    recipient: AccountId::new(1, 1, 8),
                    rur_blob: vec![1, 2],
                    trace_id: 0xABCD,
                }],
            },
            BankResponse::Confirmation { transaction_id: 3 },
            BankResponse::Redeemed { paid: Credits::from_gd(2), released: Credits::from_gd(1) },
            BankResponse::Estimate { price: Credits::from_milli(1500) },
            BankResponse::Error {
                kind: kinds::INSUFFICIENT,
                message: "no funds".into(),
                detail: 0,
            },
            BankResponse::Error {
                kind: kinds::NOT_HOME_BRANCH,
                message: "account's home branch is 7".into(),
                detail: 7,
            },
            BankResponse::IbSettleAck { gross_back: Credits::from_gd(42) },
            BankResponse::OpsReport {
                report: OpsReport::Metrics { jsonl: "{\"name\":\"x\"}\n".into() },
            },
            BankResponse::OpsReport {
                report: OpsReport::Health(HealthReport {
                    branch: 1,
                    state: HealthState::Degraded,
                    connections: 6,
                    signer_remaining: 700,
                    signer_capacity: 4096,
                    peers: vec![
                        PeerHealth { branch: 2, clearing: Credits::from_gd(7), reachable: true },
                        PeerHealth { branch: 3, clearing: Credits::ZERO, reachable: false },
                    ],
                }),
            },
            BankResponse::OpsReport { report: OpsReport::Traces { rendered: "trace".into() } },
        ];
        for resp in cases {
            let back = BankResponse::from_bytes(&resp.to_bytes()).unwrap();
            assert_eq!(format!("{back:?}"), format!("{resp:?}"));
        }
    }

    #[test]
    fn unknown_tags_rejected() {
        assert!(BankRequest::from_bytes(&[200]).is_err());
        assert!(BankResponse::from_bytes(&[200]).is_err());
        assert!(BankRequest::from_bytes(&[]).is_err());
    }

    #[test]
    fn journal_entries_round_trip() {
        use crate::db::{JournalEntry, TransactionType};
        let rec = AccountRecord {
            id: AccountId::new(1, 1, 9),
            certificate_name: "/CN=j".into(),
            organization: Some("Org".into()),
            available: Credits::from_gd(3),
            locked: Credits::ZERO,
            currency: "GridDollar".into(),
            credit_limit: Credits::from_gd(1),
        };
        let journal = vec![
            JournalEntry::Create(rec.clone()),
            JournalEntry::Update(rec.clone()),
            JournalEntry::Transaction(TransactionRecord {
                transaction_id: 5,
                account: rec.id,
                tx_type: TransactionType::Deposit,
                date_ms: 11,
                amount: Credits::from_gd(3),
            }),
            JournalEntry::Transfer(TransferRecord {
                transaction_id: 6,
                date_ms: 12,
                drawer: rec.id,
                amount: Credits::from_gd(1),
                recipient: AccountId::new(1, 1, 10),
                rur_blob: vec![7, 7],
                trace_id: 42,
            }),
            JournalEntry::IbOut(crate::db::PendingIbCredit {
                key: 0xFEED_0001,
                to: AccountId::new(1, 2, 3),
                amount: Credits::from_gd(8),
                origin: 1,
                drawer: rec.id,
                idem: Some(("/CN=j".into(), 44)),
            }),
            JournalEntry::IbOut(crate::db::PendingIbCredit {
                key: 0xFEED_0002,
                to: AccountId::new(1, 2, 4),
                amount: Credits::from_gd(2),
                origin: 1,
                drawer: rec.id,
                idem: None,
            }),
            JournalEntry::IbAck { key: 0xFEED_0001 },
            JournalEntry::Idem { cert: "/CN=j".into(), key: 44, response: vec![1, 2, 3], seq: 9 },
            JournalEntry::IdemDrop { cert: "/CN=j".into(), key: 44 },
            JournalEntry::Remove(rec.id),
        ];
        for entry in journal {
            let bytes = entry.to_bytes();
            assert_eq!(JournalEntry::from_bytes(&bytes).unwrap(), entry);
            // Truncation and an unknown tag are checked.
            assert!(JournalEntry::from_bytes(&bytes[..bytes.len() - 1]).is_err());
            let mut bad = bytes.clone();
            bad[0] = 0xFF;
            assert!(JournalEntry::from_bytes(&bad).is_err());
        }
    }

    #[test]
    fn error_kind_mapping() {
        let e = BankError::NotAuthorized("x".into());
        let k = error_kind(&e);
        assert!(matches!(error_from_wire(k, "x".into(), 0), BankError::NotAuthorized(_)));
        let e = BankError::AlreadyRedeemed("c".into());
        assert!(matches!(
            error_from_wire(error_kind(&e), "c".into(), 0),
            BankError::AlreadyRedeemed(_)
        ));
        assert_eq!(error_kind(&BankError::NonPositiveAmount), kinds::OTHER);
    }

    #[test]
    fn not_home_branch_round_trips_home_id() {
        let e = BankError::NotHomeBranch { home: 7 };
        let kind = error_kind(&e);
        assert_eq!(kind, kinds::NOT_HOME_BRANCH);
        assert_eq!(error_detail(&e), 7);
        match error_from_wire(kind, e.to_string(), error_detail(&e)) {
            BankError::NotHomeBranch { home } => assert_eq!(home, 7),
            other => panic!("expected NotHomeBranch, got {other:?}"),
        }
        // The id is structured: rewording (or a proxy mangling) the
        // human-readable message cannot degrade the redirect.
        assert!(matches!(
            error_from_wire(kinds::NOT_HOME_BRANCH, "garbled".into(), 7),
            BankError::NotHomeBranch { home: 7 }
        ));
        assert_eq!(error_detail(&BankError::NonPositiveAmount), 0);
    }
}
