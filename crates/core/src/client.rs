//! The typed GridBank client — the one way to call a bank.
//!
//! §3.3: "The Security Layer is identical to the server. The Protocol
//! Layer has same protocol modules as the server with corresponding
//! client functionality. GridBank API provides an interface to the
//! Protocol layer, which is responsible for obtaining payment instruments
//! or performing direct transfers."
//!
//! [`BankClient`] exposes one method per §5.2/§5.2.1/§6 operation over
//! any [`BankLink`]; DESIGN.md §4 "Calling a bank" describes the trait,
//! the three links and where idempotency keys are stamped. This module
//! owns the wire link: [`GridBankClient`] connects over the in-process
//! network and runs the mutual handshake with the caller's proxy
//! certificate (single sign-on). The GBPM (broker side) and GBCM
//! (provider side) are built on this client.

use gridbank_crypto::cert::ProxyCertificate;
use gridbank_crypto::keys::{SigningIdentity, VerifyingKey};
use gridbank_crypto::merkle::MerkleSignature;
use gridbank_crypto::rng::DeterministicStream;
use gridbank_crypto::sha256::Digest;
use gridbank_net::rpc::RpcClient;
use gridbank_net::transport::{Address, Network};
use gridbank_net::{client_handshake, HandshakeConfig};
use gridbank_rur::codec::{Decode, Encode};
use gridbank_rur::record::ResourceUsageRecord;
use gridbank_rur::Credits;

use crate::accounts::Statement;
use crate::api::{error_from_wire, BankRequest, BankResponse};
use crate::cheque::GridCheque;
use crate::db::{AccountId, AccountRecord};
use crate::direct::TransferConfirmation;
use crate::error::BankError;
use crate::payword::{ChainCommitment, GridHashChain, PayWord};
use crate::pricing::ResourceDescription;

/// A hash chain as received from the bank (client side holds the secret
/// words; `chain[0]` is the public root).
pub struct ClientHashChain {
    /// The signed commitment (share with the GSP).
    pub commitment: ChainCommitment,
    /// Bank signature over the commitment.
    pub signature: MerkleSignature,
    /// `w_0..=w_n`.
    pub chain: Vec<Digest>,
}

impl ClientHashChain {
    /// The payword paying for `k` units.
    pub fn payword(&self, k: u32) -> Result<PayWord, BankError> {
        if k == 0 || k as usize >= self.chain.len() {
            return Err(BankError::InvalidInstrument(format!(
                "cannot spend {k} of {} paywords",
                self.chain.len().saturating_sub(1)
            )));
        }
        Ok(PayWord { index: k, word: self.chain[k as usize] })
    }

    /// Validates the bank's signature (GSP-side acceptance check).
    pub fn verify(&self, bank_key: &VerifyingKey) -> Result<(), BankError> {
        GridHashChain::verify_commitment(&self.commitment, &self.signature, bank_key)
    }
}

/// One hop to a bank: the only thing a transport has to provide.
pub trait BankLink {
    /// Sends one request, optionally stamped with an idempotency key
    /// that stays stable across retries of the same logical operation.
    /// A wire [`BankResponse::Error`] comes back as the typed
    /// [`BankError`], so callers can tell "the bank said no" from "the
    /// bank was unreachable".
    fn call_keyed(
        &mut self,
        key: Option<u64>,
        request: &BankRequest,
    ) -> Result<BankResponse, BankError>;

    /// Whether the bank behind the link can currently be reached — the
    /// ops plane's per-route signal. Links that cannot fail in transport
    /// are always reachable.
    fn reachable(&self) -> bool {
        true
    }
}

impl<L: BankLink + ?Sized> BankLink for Box<L> {
    fn call_keyed(
        &mut self,
        key: Option<u64>,
        request: &BankRequest,
    ) -> Result<BankResponse, BankError> {
        (**self).call_keyed(key, request)
    }

    fn reachable(&self) -> bool {
        (**self).reachable()
    }
}

/// Turns a decoded wire `Error` frame back into the typed error.
pub(crate) fn typed(resp: BankResponse) -> Result<BankResponse, BankError> {
    match resp {
        BankResponse::Error { kind, message, detail } => {
            Err(error_from_wire(kind, message, detail))
        }
        resp => Ok(resp),
    }
}

fn unexpected(resp: BankResponse) -> BankError {
    BankError::Protocol(format!("unexpected response {resp:?}"))
}

/// The wire link: one authenticated connection to a bank server.
pub struct WireLink {
    rpc: RpcClient,
}

impl BankLink for WireLink {
    fn call_keyed(
        &mut self,
        key: Option<u64>,
        request: &BankRequest,
    ) -> Result<BankResponse, BankError> {
        let raw = match key {
            Some(key) => self.rpc.call_with_key(key, &request.to_bytes())?,
            None => self.rpc.call(&request.to_bytes())?,
        };
        typed(BankResponse::from_bytes(&raw)?)
    }
}

/// The typed §5.2/§5.2.1/§6 API over a link.
pub struct BankClient<L: BankLink> {
    link: L,
    /// The chain commitment and signature the bank last paid a word of
    /// over this link: a redeem presenting exactly these names the chain
    /// by id alone ([`BankClient::redeem_payword`]).
    paid_chain: Option<(ChainCommitment, MerkleSignature)>,
}

/// A connected, authenticated GridBank client.
pub type GridBankClient = BankClient<WireLink>;

impl GridBankClient {
    /// Connects and authenticates with a proxy certificate.
    #[allow(clippy::too_many_arguments)]
    pub fn connect(
        network: &Network,
        from: Address,
        bank_address: &Address,
        ca_key: VerifyingKey,
        now_ms: u64,
        proxy: &ProxyCertificate,
        proxy_identity: &SigningIdentity,
        nonce_stream: &mut DeterministicStream,
    ) -> Result<Self, BankError> {
        let duplex = network.connect(from, bank_address)?;
        let config = HandshakeConfig { ca_key, now: now_ms };
        let (channel, server) =
            client_handshake(duplex, &config, proxy, proxy_identity, nonce_stream)?;
        Ok(BankClient::over(WireLink { rpc: RpcClient::new(channel, server) }))
    }

    /// Overrides the per-call response timeout (`None` restores the
    /// transport default). The retry link sets a short timeout so
    /// faulted calls fail fast and retry.
    pub fn set_call_timeout(&mut self, timeout: Option<std::time::Duration>) {
        self.link.rpc.set_timeout(timeout);
    }

    /// Sends a request without waiting for its response, returning the
    /// correlation id; any number may be in flight at once. Pair with
    /// [`GridBankClient::recv_pipelined`]. Mutations should carry an
    /// idempotency key so a retry after a broken pipeline stays
    /// exactly-once.
    pub fn send_pipelined(
        &mut self,
        idem_key: Option<u64>,
        request: &BankRequest,
    ) -> Result<u64, BankError> {
        let bytes = request.to_bytes();
        Ok(match idem_key {
            Some(key) => self.link.rpc.send_request_with_key(key, &bytes)?,
            None => self.link.rpc.send_request(&bytes)?,
        })
    }

    /// Waits for the response to a pipelined request by correlation id.
    pub fn recv_pipelined(&mut self, id: u64) -> Result<BankResponse, BankError> {
        typed(BankResponse::from_bytes(&self.link.rpc.recv_response(id)?)?)
    }
}

impl<L: BankLink> BankClient<L> {
    /// The typed API over `link`.
    pub fn over(link: L) -> Self {
        BankClient { link, paid_chain: None }
    }

    /// Gives the link back (to hand it to a
    /// [`FederationRouter`](crate::federation::FederationRouter)).
    pub fn into_link(self) -> L {
        self.link
    }

    /// Whether the link's bank can currently be reached
    /// ([`BankLink::reachable`]).
    pub fn reachable(&self) -> bool {
        self.link.reachable()
    }

    fn call(&mut self, request: &BankRequest) -> Result<BankResponse, BankError> {
        self.link.call_keyed(None, request)
    }

    /// Sends a request under a caller-chosen idempotency key — the
    /// server then dedups retries of the same logical operation (see
    /// `docs/RESILIENCE.md`). With `None` the link decides: the retry
    /// link stamps a fresh key on a mutating request, the others send
    /// it bare.
    pub fn call_keyed(
        &mut self,
        idem_key: Option<u64>,
        request: &BankRequest,
    ) -> Result<BankResponse, BankError> {
        self.link.call_keyed(idem_key, request)
    }

    /// Create New Account (§5.2).
    pub fn create_account(&mut self, organization: Option<String>) -> Result<AccountId, BankError> {
        match self.call(&BankRequest::CreateAccount { organization })? {
            BankResponse::AccountCreated { account } => Ok(account),
            other => Err(unexpected(other)),
        }
    }

    /// The caller's own account record.
    pub fn my_account(&mut self) -> Result<AccountRecord, BankError> {
        match self.call(&BankRequest::MyAccount)? {
            BankResponse::Account(r) => Ok(r),
            other => Err(unexpected(other)),
        }
    }

    /// Request Account Details / Check Balance (§5.2).
    pub fn account_details(&mut self, account: AccountId) -> Result<AccountRecord, BankError> {
        match self.call(&BankRequest::AccountDetails { account })? {
            BankResponse::Account(r) => Ok(r),
            other => Err(unexpected(other)),
        }
    }

    /// Update Account Details (§5.2).
    pub fn update_account(
        &mut self,
        account: AccountId,
        certificate_name: String,
        organization: Option<String>,
    ) -> Result<(), BankError> {
        match self.call(&BankRequest::UpdateAccount { account, certificate_name, organization })? {
            BankResponse::Confirmation { .. } => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Request Account Statement (§5.2).
    pub fn statement(
        &mut self,
        account: AccountId,
        start_ms: u64,
        end_ms: u64,
    ) -> Result<Statement, BankError> {
        match self.call(&BankRequest::Statement { account, start_ms, end_ms })? {
            BankResponse::Statement { account, transactions, transfers } => {
                Ok(Statement { account, transactions, transfers })
            }
            other => Err(unexpected(other)),
        }
    }

    /// Queries the ops plane: a metrics snapshot, a structured health
    /// report, or the flight-recorder trace dump. The caller's base
    /// identity must be enrolled as an `OPS_ADMIN` on the bank
    /// (`GridBank::add_ops_admin`); everyone else — account admins
    /// included — gets [`BankError::NotAuthorized`].
    pub fn ops_query(
        &mut self,
        query: crate::api::OpsQuery,
    ) -> Result<crate::api::OpsReport, BankError> {
        match self.call(&BankRequest::OpsQuery { query })? {
            BankResponse::OpsReport { report } => Ok(report),
            other => Err(unexpected(other)),
        }
    }

    /// Perform Funds Availability Check (§5.2): locks the amount.
    pub fn check_funds(&mut self, account: AccountId, amount: Credits) -> Result<(), BankError> {
        match self.call(&BankRequest::CheckFunds { account, amount })? {
            BankResponse::Confirmation { .. } => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Request Direct Transfer (§5.2) — the pay-before-use protocol.
    pub fn direct_transfer(
        &mut self,
        to: AccountId,
        amount: Credits,
        recipient_address: &str,
    ) -> Result<TransferConfirmation, BankError> {
        match self.call(&BankRequest::DirectTransfer {
            to,
            amount,
            recipient_address: recipient_address.to_string(),
        })? {
            BankResponse::Confirmed(c) => Ok(c),
            other => Err(unexpected(other)),
        }
    }

    /// Request GridCheque (§5.2) — pay-after-use.
    pub fn request_cheque(
        &mut self,
        payee_cert: &str,
        amount: Credits,
        validity_ms: u64,
    ) -> Result<GridCheque, BankError> {
        match self.call(&BankRequest::RequestCheque {
            payee_cert: payee_cert.to_string(),
            amount,
            validity_ms,
        })? {
            BankResponse::Cheque(c) => Ok(c),
            other => Err(unexpected(other)),
        }
    }

    /// Redeem GridCheque (§5.2); returns (paid, released).
    pub fn redeem_cheque(
        &mut self,
        cheque: GridCheque,
        rur: ResourceUsageRecord,
    ) -> Result<(Credits, Credits), BankError> {
        match self.call(&BankRequest::RedeemCheque { cheque, rur })? {
            BankResponse::Redeemed { paid, released } => Ok((paid, released)),
            other => Err(unexpected(other)),
        }
    }

    /// Redeem a batch of cheques in one round trip (§3.1); entries settle
    /// independently and failures are returned per entry.
    #[allow(clippy::type_complexity)]
    pub fn redeem_cheque_batch(
        &mut self,
        items: Vec<(GridCheque, ResourceUsageRecord)>,
    ) -> Result<Vec<Result<(Credits, Credits), BankError>>, BankError> {
        match self.call(&BankRequest::RedeemChequeBatch { items })? {
            BankResponse::RedeemedBatch { results } => Ok(results
                .into_iter()
                .map(|r| r.map_err(|(kind, msg)| error_from_wire(kind, msg, 0)))
                .collect()),
            other => Err(unexpected(other)),
        }
    }

    /// Request GridHash chain (§5.2) — pay-as-you-go.
    pub fn request_hash_chain(
        &mut self,
        payee_cert: &str,
        length: u32,
        value_per_word: Credits,
        validity_ms: u64,
    ) -> Result<ClientHashChain, BankError> {
        match self.call(&BankRequest::RequestHashChain {
            payee_cert: payee_cert.to_string(),
            length,
            value_per_word,
            validity_ms,
        })? {
            BankResponse::HashChain { commitment, signature, chain } => {
                Ok(ClientHashChain { commitment, signature, chain })
            }
            other => Err(unexpected(other)),
        }
    }

    /// Redeem GridHash chain up to `payword` (§5.2); returns the amount
    /// newly paid. The first paid redeem of a chain over this link ships
    /// the commitment and signature (`RedeemPayWord`); while later ones
    /// present byte for byte the same pair, they name the chain by id
    /// alone (`RedeemPayWordById`), and the bank answers them from the
    /// chain's reservation as it would have answered the full form.
    pub fn redeem_payword(
        &mut self,
        commitment: ChainCommitment,
        signature: MerkleSignature,
        payword: PayWord,
        rur_blob: Vec<u8>,
    ) -> Result<Credits, BankError> {
        let paid_before =
            self.paid_chain.as_ref().is_some_and(|(c, s)| *c == commitment && *s == signature);
        let request = if paid_before {
            BankRequest::RedeemPayWordById { chain_id: commitment.chain_id, payword, rur_blob }
        } else {
            BankRequest::RedeemPayWord { commitment, signature, payword, rur_blob }
        };
        let paid = match self.call(&request)? {
            BankResponse::Redeemed { paid, .. } => paid,
            other => return Err(unexpected(other)),
        };
        if let BankRequest::RedeemPayWord { commitment, signature, .. } = request {
            self.paid_chain = Some((commitment, signature));
        }
        Ok(paid)
    }

    /// Closes a hash chain, releasing the unspent reservation.
    pub fn close_hash_chain(&mut self, commitment: ChainCommitment) -> Result<Credits, BankError> {
        match self.call(&BankRequest::CloseHashChain { commitment })? {
            BankResponse::Redeemed { released, .. } => Ok(released),
            other => Err(unexpected(other)),
        }
    }

    /// Registers the caller's resource description (§4.2 pricing input).
    pub fn register_resource_description(
        &mut self,
        desc: ResourceDescription,
    ) -> Result<(), BankError> {
        match self.call(&BankRequest::RegisterResourceDescription { desc })? {
            BankResponse::Confirmation { .. } => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// §4.2 market price estimate.
    pub fn estimate_price(
        &mut self,
        desc: ResourceDescription,
        min_similarity_ppk: u64,
    ) -> Result<Credits, BankError> {
        match self.call(&BankRequest::EstimatePrice { desc, min_similarity_ppk })? {
            BankResponse::Estimate { price } => Ok(price),
            other => Err(unexpected(other)),
        }
    }

    /// Admin: deposit (§5.2.1).
    pub fn admin_deposit(&mut self, account: AccountId, amount: Credits) -> Result<u64, BankError> {
        match self.call(&BankRequest::AdminDeposit { account, amount })? {
            BankResponse::Confirmation { transaction_id } => Ok(transaction_id),
            other => Err(unexpected(other)),
        }
    }

    /// Admin: withdraw (§5.2.1).
    pub fn admin_withdraw(
        &mut self,
        account: AccountId,
        amount: Credits,
    ) -> Result<u64, BankError> {
        match self.call(&BankRequest::AdminWithdraw { account, amount })? {
            BankResponse::Confirmation { transaction_id } => Ok(transaction_id),
            other => Err(unexpected(other)),
        }
    }

    /// Admin: change credit limit (§5.2.1).
    pub fn admin_credit_limit(
        &mut self,
        account: AccountId,
        new_limit: Credits,
    ) -> Result<(), BankError> {
        match self.call(&BankRequest::AdminCreditLimit { account, new_limit })? {
            BankResponse::Confirmation { .. } => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Admin: cancel transfer (§5.2.1).
    pub fn admin_cancel_transfer(&mut self, transaction_id: u64) -> Result<u64, BankError> {
        match self.call(&BankRequest::AdminCancelTransfer { transaction_id })? {
            BankResponse::Confirmation { transaction_id } => Ok(transaction_id),
            other => Err(unexpected(other)),
        }
    }

    /// Inter-branch: delivers a cross-branch credit to this bank (the
    /// payee's home branch). `key` must be the durable key from the
    /// origin's journaled pending-credit row so re-deliveries dedup.
    pub fn ib_credit(
        &mut self,
        key: u64,
        to: AccountId,
        amount: Credits,
        origin_branch: u16,
        rur_blob: Vec<u8>,
    ) -> Result<u64, BankError> {
        match self
            .call_keyed(Some(key), &BankRequest::IbCredit { to, amount, origin_branch, rur_blob })?
        {
            BankResponse::Confirmation { transaction_id } => Ok(transaction_id),
            other => Err(unexpected(other)),
        }
    }

    /// Inter-branch: proposes one §6 netting round to this bank; returns
    /// the peer's gross return flow (`IbSettleAck`).
    pub fn ib_settle_proposal(
        &mut self,
        key: u64,
        origin_branch: u16,
        gross_out: Credits,
    ) -> Result<Credits, BankError> {
        match self
            .call_keyed(Some(key), &BankRequest::IbSettleProposal { origin_branch, gross_out })?
        {
            BankResponse::IbSettleAck { gross_back } => Ok(gross_back),
            other => Err(unexpected(other)),
        }
    }

    /// Admin: close account (§5.2.1).
    pub fn admin_close_account(
        &mut self,
        account: AccountId,
        transfer_to: Option<AccountId>,
    ) -> Result<(), BankError> {
        match self.call(&BankRequest::AdminCloseAccount { account, transfer_to })? {
            BankResponse::Confirmation { .. } => Ok(()),
            other => Err(unexpected(other)),
        }
    }
}
