//! The one way into a request handler. A [`Batch`] answers one caller's
//! requests in order: it serializes same-key arrivals, answers a consumed
//! idempotency key from the dedup cache, stamps a mutating response, and
//! routes the request to its layer through `dispatch`. A transfer's
//! confirmation waits for the batch to close, which signs every waiting
//! confirmation with one signature. [`GridBank::handle_keyed`] is a batch
//! of one. `dispatch` is private to this module, so nothing else in the
//! crate can reach a handler around the cache.

use gridbank_crypto::cert::SubjectName;
use gridbank_rur::codec::{Decode, Encode};
use gridbank_rur::Credits;

use super::GridBank;
use crate::api::{error_detail, error_kind, BankRequest, BankResponse};
use crate::direct::ConfirmationBody;
use crate::error::BankError;
use Dispatched::{Answer, Unsigned};

/// What dispatching one request yields.
enum Dispatched {
    /// The complete response.
    Answer(BankResponse),
    /// A committed transfer, whose confirmation the batch signs.
    Unsigned(ConfirmationBody),
}

/// One caller's requests, answered in order, whose transfer confirmations
/// share one signature. Each request is dispatched as it is added; a
/// transfer commits at once and answers a placeholder, and its
/// confirmation body waits, holding its idempotency key in flight, until
/// [`Batch::close`] signs the Merkle root of every waiting body, puts
/// each receipt in its answer's place, upgrades each stamp and releases
/// each key.
///
/// A batch never waits for an idempotency key while it holds one: when a
/// request's key is in flight, whether on another connection or held by a
/// transfer earlier in this batch, the batch closes first. So two
/// connections that send the same keys in opposite orders cannot wait on
/// each other, and a key repeated within a batch finds its stamp signed.
pub(crate) struct Batch<'b> {
    bank: &'b GridBank,
    caller_cert: String,
    /// Bodies of committed transfers waiting for the batch signature,
    /// each beside the slot of its answer among the batch's answers and
    /// the idempotency key it holds in flight.
    waiting: Vec<(ConfirmationBody, (usize, Option<u64>))>,
}

impl GridBank {
    /// Opens a batch of requests from an authenticated caller.
    pub(crate) fn batch(&self, caller: &SubjectName) -> Batch<'_> {
        Batch { bank: self, caller_cert: caller.base_identity().0, waiting: Vec::new() }
    }

    /// [`GridBank::handle`] with the request's idempotency key (if the
    /// wire frame carried one), as a batch of one. A mutating request
    /// whose key was already consumed returns the remembered original
    /// response instead of re-applying — the exactly-once contract retried
    /// clients rely on. Keys never dedup reads, and error responses are
    /// never remembered (a failed attempt may legitimately succeed on
    /// retry).
    pub fn handle_keyed(
        &self,
        caller: &SubjectName,
        idem_key: Option<u64>,
        request: BankRequest,
    ) -> BankResponse {
        let mut batch = self.batch(caller);
        let mut answers = [batch.answer(idem_key, request, &mut [])];
        batch.close(&mut answers);
        let [answer] = answers;
        answer
    }

    /// Answers `requests` from `caller`, each with its idempotency key,
    /// as one batch: in order, and with one signature over the transfer
    /// confirmations among them, unless a key in flight closes the batch
    /// early (see `Batch`).
    pub fn handle_batch(
        &self,
        caller: &SubjectName,
        requests: impl IntoIterator<Item = (Option<u64>, BankRequest)>,
    ) -> Vec<BankResponse> {
        let mut batch = self.batch(caller);
        let mut answers = Vec::new();
        for (idem_key, request) in requests {
            let answer = batch.answer(idem_key, request, &mut answers);
            answers.push(answer);
        }
        batch.close(&mut answers);
        answers
    }
}

impl Batch<'_> {
    /// Dispatches `request` and returns its answer. `answered` holds the
    /// batch's earlier answers, in order: this answer's slot is
    /// `answered.len()`. A transfer answers a placeholder, which
    /// [`Batch::close`] replaces with the signed receipt; a close forced
    /// here by a key in flight fills earlier slots of `answered`.
    pub(crate) fn answer(
        &mut self,
        idem_key: Option<u64>,
        request: BankRequest,
        answered: &mut [BankResponse],
    ) -> BankResponse {
        let bank = self.bank;
        // Security layer: the caller's wire identity is resolved here, so
        // this span covers identity mapping plus everything dispatched.
        let variant = request.variant_name();
        let mut span = gridbank_obs::span("server.security", "handle");
        span.attr("request", variant.to_string());
        let timer = gridbank_obs::Stopwatch::start();
        gridbank_obs::count("rpc.server.requests", 1);
        let keyed = idem_key.filter(|_| request.is_mutating());
        // Serialize same-key arrivals before the cache lookup: a retry on
        // a second connection can arrive while the original is mid-apply
        // on the first, and must wait for its stamp.
        // The lock stage covers this serialization point for every
        // request — near-zero for unkeyed reads, visible when duplicate
        // keys contend.
        let lock_timer = gridbank_obs::Stopwatch::start();
        if let Some(key) = keyed {
            self.claim(key, answered);
        }
        lock_timer.record_named("server.stage.lock_ns");
        if let Some(key) = keyed {
            if let Some(bytes) = bank.accounts.db().idem_lookup(&self.caller_cert, key) {
                release(bank, &self.caller_cert, key);
                let resp = match BankResponse::from_bytes(&bytes) {
                    Ok(resp) => {
                        gridbank_obs::count("core.idem.hit", 1);
                        span.attr("idem", "hit");
                        resp
                    }
                    // The key was consumed, so its mutation was applied:
                    // a stamp that no longer decodes is refused, never
                    // applied a second time.
                    Err(e) => {
                        gridbank_obs::count("core.idem.unreadable", 1);
                        span.attr("idem", "unreadable");
                        error_response(&BankError::Storage(format!(
                            "the remembered response to key {key} cannot be read: {e}"
                        )))
                    }
                };
                timer.record_named_label("rpc.server.latency_ns", variant);
                return resp;
            }
            gridbank_obs::count("core.idem.miss", 1);
        }
        let resp = match bank.dispatch(&self.caller_cert, keyed, request) {
            Ok(Answer(resp)) => {
                // Every mutating variant but a transfer is stamped here,
                // after it succeeds.
                if let Some(key) = keyed {
                    bank.accounts.db().idem_record(&self.caller_cert, key, resp.to_bytes());
                    release(bank, &self.caller_cert, key);
                }
                resp
            }
            Ok(Unsigned(body)) => {
                // A transfer journaled its stamp with the commit; the key
                // stays in flight until the close upgrades it.
                let placeholder =
                    BankResponse::Confirmation { transaction_id: body.transaction_id };
                self.waiting.push((body, (answered.len(), keyed)));
                placeholder
            }
            Err(e) => {
                if let Some(key) = keyed {
                    release(bank, &self.caller_cert, key);
                }
                gridbank_obs::count("rpc.server.errors", 1);
                span.attr("error", e.to_string());
                error_response(&e)
            }
        };
        timer.record_named_label("rpc.server.latency_ns", variant);
        resp
    }

    /// Closes the batch: signs every waiting confirmation with one
    /// signature and puts each receipt in its slot of `answered`,
    /// upgrading its stamp and then releasing its key. A failed signature
    /// answers every receipt of the batch with the error, and their stamps
    /// keep the placeholder. Then, with no lock held, checkpoints if due
    /// and publishes the signer's gauges. The batch can take requests
    /// again afterwards.
    pub(crate) fn close(&mut self, answered: &mut [BankResponse]) {
        let Batch { bank, caller_cert, waiting } = self;
        let bank: &GridBank = bank;
        if !waiting.is_empty() {
            let sign_timer = gridbank_obs::Stopwatch::start();
            let db = bank.accounts.db();
            match crate::direct::sign_receipts(&bank.signer, waiting.iter().map(|(body, _)| body)) {
                Ok(signed) => {
                    for (receipt, (slot, key)) in signed.receipts(waiting.drain(..)) {
                        let answer = BankResponse::Confirmed(receipt);
                        if let Some(key) = key {
                            // Cache-only: the journaled placeholder keeps
                            // its one entry.
                            db.idem_upgrade(caller_cert, key, answer.to_bytes());
                            release(bank, caller_cert, key);
                        }
                        if let Some(place) = answered.get_mut(slot) {
                            *place = answer;
                        }
                    }
                }
                Err(e) => {
                    gridbank_obs::count("rpc.server.errors", waiting.len() as u64);
                    for (_, (slot, key)) in waiting.drain(..) {
                        if let Some(key) = key {
                            release(bank, caller_cert, key);
                        }
                        if let Some(place) = answered.get_mut(slot) {
                            *place = error_response(&e);
                        }
                    }
                }
            }
            sign_timer.record_named("server.stage.sign_ns");
        }
        // Checkpointing rides the request path (no dedicated thread):
        // after the batch, with no database locks held, snapshot once the
        // journal tail reached the configured threshold.
        // Concurrent connections skip instead of queueing; a no-op in
        // non-durable mode.
        if let Err(e) = bank.accounts.db().maybe_checkpoint() {
            gridbank_obs::count("db.snapshot.errors", 1);
            eprintln!("gridbank: incremental checkpoint failed: {e}");
        }
        // Published after every batch, the only place leaves are spent
        // on requests, with the time their generation took at boot beside
        // them. The registry is process-wide: with several branches in
        // one process the last writer wins, and `HealthReport` is the
        // per-branch reading.
        gridbank_obs::gauge_set("core.signer.remaining", bank.signer.remaining() as i64);
        gridbank_obs::gauge_set("core.signer.capacity", bank.signer.capacity() as i64);
        gridbank_obs::gauge_set("core.signer.keygen_ms", bank.keygen_ms);
    }

    /// Marks `key` in flight for this caller, waiting while another
    /// request has it. When the key is taken and this batch holds a key
    /// of its own, the batch closes first, so it never waits holding one.
    fn claim(&mut self, key: u64, answered: &mut [BankResponse]) {
        let bank = self.bank;
        let entry = (self.caller_cert.clone(), key);
        let mut in_flight = bank.in_flight_keys.lock();
        loop {
            if !in_flight.contains(&entry) {
                in_flight.insert(entry);
                return;
            }
            if self.waiting.iter().any(|(_, (_, held))| held.is_some()) {
                drop(in_flight);
                self.close(answered);
                in_flight = bank.in_flight_keys.lock();
                continue;
            }
            gridbank_obs::count("core.idem.in_flight_wait", 1);
            bank.key_released.wait(&mut in_flight);
        }
    }
}

/// Releases keys still held by a batch that was never closed (a panic
/// unwinding through a dispatch), waking any duplicate waiting for one.
impl Drop for Batch<'_> {
    fn drop(&mut self) {
        for (_, (_, key)) in self.waiting.drain(..) {
            if let Some(key) = key {
                release(self.bank, &self.caller_cert, key);
            }
        }
    }
}

/// Takes `key` out of flight for `cert`, waking any duplicate waiting to
/// consult the cache.
fn release(bank: &GridBank, cert: &str, key: u64) {
    bank.in_flight_keys.lock().remove(&(cert.to_string(), key));
    bank.key_released.notify_all();
}

/// The error frame that answers a request refused with `e`.
fn error_response(e: &BankError) -> BankResponse {
    BankResponse::Error { kind: error_kind(e), message: e.to_string(), detail: error_detail(e) }
}

impl GridBank {
    #[deny(clippy::wildcard_enum_match_arm)]
    fn dispatch(
        &self,
        caller_cert: &str,
        idem_key: Option<u64>,
        request: BankRequest,
    ) -> Result<Dispatched, BankError> {
        // Enrollment-mode restriction: unknown subjects may only enroll.
        let known = self.accounts.db().subject_known(caller_cert)
            || self.admin.is_admin(caller_cert)
            || self.is_federation_peer(caller_cert)
            || self.is_ops_admin(caller_cert);
        if !known && !matches!(request, BankRequest::CreateAccount { .. }) {
            return Err(BankError::NotAuthorized(format!("`{caller_cert}` has no account")));
        }
        let now = self.clock.now_ms();
        // The serving layer's span: named after the §3.2 module
        // (accounts / payment / pricing) that owns the variant.
        let mut layer_span = gridbank_obs::span(request.layer(), request.variant_name());
        layer_span.attr("caller", caller_cert.to_string());
        match request {
            BankRequest::CreateAccount { organization } => {
                let account = self.accounts.create_account(caller_cert, organization)?;
                Ok(Answer(BankResponse::AccountCreated { account }))
            }
            BankRequest::MyAccount => {
                Ok(Answer(BankResponse::Account(self.accounts.account_by_cert(caller_cert)?)))
            }
            BankRequest::AccountDetails { account } => {
                if account.branch != self.config.branch {
                    return self
                        .forward_or_redirect(
                            account.branch,
                            BankRequest::AccountDetails { account },
                        )
                        .map(Answer);
                }
                self.require_owner_or_admin(caller_cert, &account)?;
                Ok(Answer(BankResponse::Account(self.accounts.account_details(&account)?)))
            }
            BankRequest::UpdateAccount { account, certificate_name, organization } => {
                self.require_owner_or_admin(caller_cert, &account)?;
                let mut record = self.accounts.account_details(&account)?;
                record.certificate_name = certificate_name;
                record.organization = organization;
                self.accounts.update_details(&record)?;
                Ok(Answer(BankResponse::Confirmation { transaction_id: 0 }))
            }
            BankRequest::Statement { account, start_ms, end_ms } => {
                if account.branch != self.config.branch {
                    return self
                        .forward_or_redirect(
                            account.branch,
                            BankRequest::Statement { account, start_ms, end_ms },
                        )
                        .map(Answer);
                }
                self.require_owner_or_admin(caller_cert, &account)?;
                let st = self.accounts.statement(&account, start_ms, end_ms)?;
                Ok(Answer(BankResponse::Statement {
                    account: st.account,
                    transactions: st.transactions,
                    transfers: st.transfers,
                }))
            }
            BankRequest::CheckFunds { account, amount } => {
                self.require_owner_or_admin(caller_cert, &account)?;
                self.accounts.lock_funds(&account, amount)?;
                Ok(Answer(BankResponse::Confirmation { transaction_id: 0 }))
            }
            BankRequest::DirectTransfer { to, amount, recipient_address } => {
                let from = self.accounts.account_by_cert(caller_cert)?.id;
                // The journaled stamp remembers a plain confirmation of
                // the committed txid; the batch upgrades the cached copy
                // to the signed response when it signs.
                let idem = idem_key.map(|key| crate::accounts::IdemKey {
                    cert: caller_cert.to_string(),
                    key,
                    response_of: |txid| {
                        BankResponse::Confirmation { transaction_id: txid }.to_bytes()
                    },
                });
                if to.branch != self.config.branch {
                    // Foreign payee: debit into clearing and ship the
                    // credit to the home branch (or redirect when this
                    // bank is not federated).
                    let Some(router) = self.federation() else {
                        return Err(BankError::NotHomeBranch { home: to.branch });
                    };
                    let transaction_id =
                        router.cross_branch_transfer(&from, &to, amount, Vec::new(), idem)?;
                    return Ok(Unsigned(ConfirmationBody {
                        transaction_id,
                        drawer: from,
                        recipient: to,
                        amount,
                        date_ms: now,
                        recipient_address,
                    }));
                }
                let body = crate::direct::commit_transfer(
                    &self.accounts,
                    &from,
                    &to,
                    amount,
                    recipient_address,
                    idem,
                )?;
                Ok(Unsigned(body))
            }
            BankRequest::RequestCheque { payee_cert, amount, validity_ms } => {
                let drawer = self.accounts.account_by_cert(caller_cert)?.id;
                let cheque =
                    self.cheque_office().issue(&drawer, &payee_cert, amount, now, validity_ms)?;
                Ok(Answer(BankResponse::Cheque(cheque)))
            }
            BankRequest::RedeemCheque { cheque, rur } => {
                let payee = self.accounts.account_by_cert(caller_cert)?.id;
                let red = self.cheque_office().redeem(&cheque, &rur, caller_cert, &payee, now)?;
                self.observe_redemption(caller_cert, &rur);
                Ok(Answer(BankResponse::Redeemed { paid: red.paid, released: red.released }))
            }
            BankRequest::RequestHashChain { payee_cert, length, value_per_word, validity_ms } => {
                let drawer = self.accounts.account_by_cert(caller_cert)?.id;
                let chain = self.payword_office().issue(
                    &drawer,
                    &payee_cert,
                    length,
                    value_per_word,
                    now,
                    validity_ms,
                )?;
                let mut full = Vec::with_capacity((length as usize).saturating_add(1));
                full.push(chain.commitment.root);
                for k in 1..=length {
                    full.push(chain.payword(k)?.word);
                }
                Ok(Answer(BankResponse::HashChain {
                    commitment: chain.commitment,
                    signature: chain.signature,
                    chain: full,
                }))
            }
            BankRequest::RedeemPayWord { commitment, signature, payword, rur_blob } => {
                if commitment.payee_cert != caller_cert {
                    return Err(BankError::NotAuthorized(format!(
                        "chain payable to `{}`, not `{caller_cert}`",
                        commitment.payee_cert
                    )));
                }
                let payee = self.accounts.account_by_cert(caller_cert)?.id;
                let paid = self.payword_office().redeem(
                    &commitment,
                    &signature,
                    &payword,
                    &payee,
                    rur_blob,
                    now,
                )?;
                Ok(Answer(BankResponse::Redeemed { paid, released: Credits::ZERO }))
            }
            BankRequest::RedeemPayWordById { chain_id, payword, rur_blob } => {
                let paid = self.payword_office().redeem_by_id(
                    chain_id,
                    &payword,
                    caller_cert,
                    || Ok(self.accounts.account_by_cert(caller_cert)?.id),
                    rur_blob,
                    now,
                )?;
                Ok(Answer(BankResponse::Redeemed { paid, released: Credits::ZERO }))
            }
            BankRequest::CloseHashChain { commitment } => {
                self.require_owner_or_admin(caller_cert, &commitment.drawer)?;
                let released = self.payword_office().close(&commitment, now)?;
                Ok(Answer(BankResponse::Redeemed { paid: Credits::ZERO, released }))
            }
            BankRequest::RegisterResourceDescription { desc } => {
                self.descriptions.write().insert(caller_cert.to_string(), desc);
                Ok(Answer(BankResponse::Confirmation { transaction_id: 0 }))
            }
            BankRequest::EstimatePrice { desc, min_similarity_ppk } => {
                let price = self.estimator.estimate(&desc, min_similarity_ppk)?;
                Ok(Answer(BankResponse::Estimate { price }))
            }
            BankRequest::RedeemChequeBatch { items } => {
                let payee = self.accounts.account_by_cert(caller_cert)?.id;
                let office = self.cheque_office();
                let results = items
                    .into_iter()
                    .map(|(cheque, rur)| {
                        match office.redeem(&cheque, &rur, caller_cert, &payee, now) {
                            Ok(red) => {
                                self.observe_redemption(caller_cert, &rur);
                                Ok((red.paid, red.released))
                            }
                            Err(e) => Err((error_kind(&e), e.to_string())),
                        }
                    })
                    .collect();
                Ok(Answer(BankResponse::RedeemedBatch { results }))
            }
            BankRequest::AdminDeposit { account, amount } => {
                let txid = self.admin.deposit(caller_cert, &account, amount)?;
                Ok(Answer(BankResponse::Confirmation { transaction_id: txid }))
            }
            BankRequest::AdminWithdraw { account, amount } => {
                let txid = self.admin.withdraw(caller_cert, &account, amount)?;
                Ok(Answer(BankResponse::Confirmation { transaction_id: txid }))
            }
            BankRequest::AdminCreditLimit { account, new_limit } => {
                self.admin.change_credit_limit(caller_cert, &account, new_limit)?;
                Ok(Answer(BankResponse::Confirmation { transaction_id: 0 }))
            }
            BankRequest::AdminCancelTransfer { transaction_id } => {
                let txid = self.admin.cancel_transfer(caller_cert, transaction_id)?;
                Ok(Answer(BankResponse::Confirmation { transaction_id: txid }))
            }
            BankRequest::AdminCloseAccount { account, transfer_to } => {
                self.admin.close_account(caller_cert, &account, transfer_to)?;
                Ok(Answer(BankResponse::Confirmation { transaction_id: 0 }))
            }
            BankRequest::IbCredit { to, amount, origin_branch, rur_blob: _ } => {
                let router = self.federation().ok_or_else(|| {
                    BankError::Protocol("bank is not part of a federation".into())
                })?;
                if !router.is_peer(caller_cert) {
                    return Err(BankError::NotAuthorized(format!(
                        "`{caller_cert}` may not deliver inter-branch credits"
                    )));
                }
                if to.branch != self.config.branch {
                    return Err(BankError::NotHomeBranch { home: to.branch });
                }
                let txid = router.apply_ib_credit(&to, amount, origin_branch)?;
                Ok(Answer(BankResponse::Confirmation { transaction_id: txid }))
            }
            BankRequest::IbSettleProposal { origin_branch, gross_out } => {
                let router = self.federation().ok_or_else(|| {
                    BankError::Protocol("bank is not part of a federation".into())
                })?;
                if !router.is_peer(caller_cert) {
                    return Err(BankError::NotAuthorized(format!(
                        "`{caller_cert}` may not propose settlements"
                    )));
                }
                layer_span.attr("gross_out", gross_out.to_string());
                let gross_back = router.apply_settle_proposal(origin_branch)?;
                Ok(Answer(BankResponse::IbSettleAck { gross_back }))
            }
            BankRequest::OpsQuery { query } => {
                // The ops plane is its own trust role: account owners,
                // administrators, and federation peers are all refused
                // unless also enrolled as ops administrators.
                if !self.is_ops_admin(caller_cert) {
                    return Err(BankError::NotAuthorized(format!(
                        "`{caller_cert}` may not query the ops plane"
                    )));
                }
                use crate::api::{OpsQuery, OpsReport};
                match query {
                    OpsQuery::Metrics { filter } => {
                        let snapshot = gridbank_obs::registry().snapshot();
                        let snapshot = match filter.as_deref() {
                            Some(prefix) => snapshot.filtered(prefix),
                            None => snapshot,
                        };
                        layer_span.attr("query", "metrics");
                        Ok(Answer(BankResponse::OpsReport {
                            report: OpsReport::Metrics {
                                jsonl: gridbank_obs::render_jsonl(&snapshot),
                            },
                        }))
                    }
                    OpsQuery::Health => {
                        layer_span.attr("query", "health");
                        Ok(Answer(BankResponse::OpsReport {
                            report: OpsReport::Health(self.health_report()),
                        }))
                    }
                    OpsQuery::Traces => {
                        layer_span.attr("query", "traces");
                        Ok(Answer(BankResponse::OpsReport {
                            report: OpsReport::Traces { rendered: gridbank_obs::flight::dump() },
                        }))
                    }
                }
            }
        }
    }
}
