//! The one way into a request handler. [`GridBank::handle_keyed`]
//! serializes same-key arrivals, answers a consumed idempotency key from
//! the dedup cache and stamps a mutating response; `dispatch` routes the
//! request to its layer. `dispatch` is private to this module, so
//! nothing else in the crate can reach a handler around the cache.

use gridbank_crypto::cert::SubjectName;
use gridbank_rur::codec::{Decode, Encode};
use gridbank_rur::Credits;

use super::GridBank;
use crate::api::{error_kind, BankRequest, BankResponse};
use crate::error::BankError;

impl GridBank {
    /// [`GridBank::handle`] with the request's idempotency key (if the
    /// wire frame carried one). A mutating request whose key was already
    /// consumed returns the remembered original response instead of
    /// re-applying — the exactly-once contract retried clients rely on.
    /// Keys never dedup reads, and error responses are never remembered
    /// (a failed attempt may legitimately succeed on retry).
    pub fn handle_keyed(
        &self,
        caller: &SubjectName,
        idem_key: Option<u64>,
        request: BankRequest,
    ) -> BankResponse {
        // Security layer: the caller's wire identity is resolved here, so
        // this span covers identity mapping plus everything dispatched.
        let variant = request.variant_name();
        let mut span = gridbank_obs::span("server.security", "handle");
        span.attr("request", variant.to_string());
        let timer = gridbank_obs::Stopwatch::start();
        gridbank_obs::count("rpc.server.requests", 1);
        let caller_cert = caller.base_identity().0;
        let keyed = idem_key.filter(|_| request.is_mutating());
        // Serialize same-key arrivals before the cache lookup: a retry on
        // a second connection can arrive while the original is mid-apply
        // on the first, and must wait for its stamp.
        // The lock stage covers this serialization point for every
        // request — near-zero for unkeyed reads, visible when duplicate
        // keys contend.
        let lock_timer = gridbank_obs::Stopwatch::start();
        let _key_guard = keyed.map(|key| {
            let entry = (caller_cert.clone(), key);
            let mut in_flight = self.in_flight_keys.lock();
            while !in_flight.insert(entry.clone()) {
                gridbank_obs::count("core.idem.in_flight_wait", 1);
                self.key_released.wait(&mut in_flight);
            }
            KeyGuard { bank: self, entry }
        });
        lock_timer.record_named("server.stage.lock_ns");
        if let Some(key) = keyed {
            if let Some(bytes) = self.accounts.db().idem_lookup(&caller_cert, key) {
                if let Ok(resp) = BankResponse::from_bytes(&bytes) {
                    gridbank_obs::count("core.idem.hit", 1);
                    span.attr("idem", "hit");
                    timer.record_named_label("rpc.server.latency_ns", variant);
                    return resp;
                }
            }
            gridbank_obs::count("core.idem.miss", 1);
        }
        // DirectTransfer commits its dedup stamp atomically inside the
        // transfer batch; every other mutating variant is stamped here
        // after it succeeds.
        let stamped_inline = matches!(request, BankRequest::DirectTransfer { .. });
        let resp = match self.dispatch(&caller_cert, keyed, request) {
            Ok(resp) => {
                if let Some(key) = keyed {
                    if stamped_inline {
                        // Upgrade the journaled placeholder to the fully
                        // signed response (cache-only; no second journal
                        // entry for the same key).
                        self.accounts.db().idem_upgrade(&caller_cert, key, resp.to_bytes());
                    } else {
                        self.accounts.db().idem_record(&caller_cert, key, resp.to_bytes());
                    }
                }
                resp
            }
            Err(e) => {
                gridbank_obs::count("rpc.server.errors", 1);
                span.attr("error", e.to_string());
                BankResponse::Error {
                    kind: error_kind(&e),
                    message: e.to_string(),
                    detail: crate::api::error_detail(&e),
                }
            }
        };
        // Checkpointing rides the request path (no dedicated thread):
        // after dispatch, with no database locks held, snapshot once the
        // journal tail reached the configured threshold.
        // Concurrent connections skip instead of queueing; a no-op in
        // non-durable mode.
        if let Err(e) = self.accounts.db().maybe_checkpoint() {
            gridbank_obs::count("db.snapshot.errors", 1);
            eprintln!("gridbank: incremental checkpoint failed: {e}");
        }
        // Published after every dispatch, the only place leaves are
        // spent, with the time their generation took at boot beside them.
        // The registry is process-wide: with several branches in one
        // process the last writer wins, and `HealthReport` is the
        // per-branch reading.
        gridbank_obs::gauge_set("core.signer.remaining", self.signer.remaining() as i64);
        gridbank_obs::gauge_set("core.signer.capacity", self.signer.capacity() as i64);
        gridbank_obs::gauge_set("core.signer.keygen_ms", self.keygen_ms);
        timer.record_named_label("rpc.server.latency_ns", variant);
        resp
    }

    fn release_key(&self, entry: &(String, u64)) {
        self.in_flight_keys.lock().remove(entry);
        self.key_released.notify_all();
    }

    #[deny(clippy::wildcard_enum_match_arm)]
    fn dispatch(
        &self,
        caller_cert: &str,
        idem_key: Option<u64>,
        request: BankRequest,
    ) -> Result<BankResponse, BankError> {
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
                Ok(BankResponse::AccountCreated { account })
            }
            BankRequest::MyAccount => {
                Ok(BankResponse::Account(self.accounts.account_by_cert(caller_cert)?))
            }
            BankRequest::AccountDetails { account } => {
                if account.branch != self.config.branch {
                    return self.forward_or_redirect(
                        account.branch,
                        BankRequest::AccountDetails { account },
                    );
                }
                self.require_owner_or_admin(caller_cert, &account)?;
                Ok(BankResponse::Account(self.accounts.account_details(&account)?))
            }
            BankRequest::UpdateAccount { account, certificate_name, organization } => {
                self.require_owner_or_admin(caller_cert, &account)?;
                let mut record = self.accounts.account_details(&account)?;
                record.certificate_name = certificate_name;
                record.organization = organization;
                self.accounts.update_details(&record)?;
                Ok(BankResponse::Confirmation { transaction_id: 0 })
            }
            BankRequest::Statement { account, start_ms, end_ms } => {
                if account.branch != self.config.branch {
                    return self.forward_or_redirect(
                        account.branch,
                        BankRequest::Statement { account, start_ms, end_ms },
                    );
                }
                self.require_owner_or_admin(caller_cert, &account)?;
                let st = self.accounts.statement(&account, start_ms, end_ms)?;
                Ok(BankResponse::Statement {
                    account: st.account,
                    transactions: st.transactions,
                    transfers: st.transfers,
                })
            }
            BankRequest::CheckFunds { account, amount } => {
                self.require_owner_or_admin(caller_cert, &account)?;
                self.accounts.lock_funds(&account, amount)?;
                Ok(BankResponse::Confirmation { transaction_id: 0 })
            }
            BankRequest::DirectTransfer { to, amount, recipient_address } => {
                let from = self.accounts.account_by_cert(caller_cert)?.id;
                // The journaled stamp remembers a plain confirmation of
                // the committed txid; handle_keyed upgrades the cached
                // copy to the signed response after signing.
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
                    let body = crate::direct::ConfirmationBody {
                        transaction_id,
                        drawer: from,
                        recipient: to,
                        amount,
                        date_ms: now,
                        recipient_address,
                    };
                    let sign_timer = gridbank_obs::Stopwatch::start();
                    let signature = self.signer.sign(&body.to_bytes())?;
                    sign_timer.record_named("core.signer.sign_ns");
                    return Ok(BankResponse::Confirmed(crate::direct::TransferConfirmation {
                        body,
                        signature,
                    }));
                }
                let conf = crate::direct::direct_transfer_keyed(
                    &self.accounts,
                    &self.signer,
                    &from,
                    &to,
                    amount,
                    &recipient_address,
                    idem,
                )?;
                Ok(BankResponse::Confirmed(conf))
            }
            BankRequest::RequestCheque { payee_cert, amount, validity_ms } => {
                let drawer = self.accounts.account_by_cert(caller_cert)?.id;
                let cheque =
                    self.cheque_office().issue(&drawer, &payee_cert, amount, now, validity_ms)?;
                Ok(BankResponse::Cheque(cheque))
            }
            BankRequest::RedeemCheque { cheque, rur } => {
                let payee = self.accounts.account_by_cert(caller_cert)?.id;
                let red = self.cheque_office().redeem(&cheque, &rur, caller_cert, &payee, now)?;
                self.observe_redemption(caller_cert, &rur);
                Ok(BankResponse::Redeemed { paid: red.paid, released: red.released })
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
                Ok(BankResponse::HashChain {
                    commitment: chain.commitment,
                    signature: chain.signature,
                    chain: full,
                })
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
                Ok(BankResponse::Redeemed { paid, released: Credits::ZERO })
            }
            BankRequest::CloseHashChain { commitment } => {
                self.require_owner_or_admin(caller_cert, &commitment.drawer)?;
                let released = self.payword_office().close(&commitment, now)?;
                Ok(BankResponse::Redeemed { paid: Credits::ZERO, released })
            }
            BankRequest::RegisterResourceDescription { desc } => {
                self.descriptions.write().insert(caller_cert.to_string(), desc);
                Ok(BankResponse::Confirmation { transaction_id: 0 })
            }
            BankRequest::EstimatePrice { desc, min_similarity_ppk } => {
                let price = self.estimator.estimate(&desc, min_similarity_ppk)?;
                Ok(BankResponse::Estimate { price })
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
                Ok(BankResponse::RedeemedBatch { results })
            }
            BankRequest::AdminDeposit { account, amount } => {
                let txid = self.admin.deposit(caller_cert, &account, amount)?;
                Ok(BankResponse::Confirmation { transaction_id: txid })
            }
            BankRequest::AdminWithdraw { account, amount } => {
                let txid = self.admin.withdraw(caller_cert, &account, amount)?;
                Ok(BankResponse::Confirmation { transaction_id: txid })
            }
            BankRequest::AdminCreditLimit { account, new_limit } => {
                self.admin.change_credit_limit(caller_cert, &account, new_limit)?;
                Ok(BankResponse::Confirmation { transaction_id: 0 })
            }
            BankRequest::AdminCancelTransfer { transaction_id } => {
                let txid = self.admin.cancel_transfer(caller_cert, transaction_id)?;
                Ok(BankResponse::Confirmation { transaction_id: txid })
            }
            BankRequest::AdminCloseAccount { account, transfer_to } => {
                self.admin.close_account(caller_cert, &account, transfer_to)?;
                Ok(BankResponse::Confirmation { transaction_id: 0 })
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
                Ok(BankResponse::Confirmation { transaction_id: txid })
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
                Ok(BankResponse::IbSettleAck { gross_back })
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
                        Ok(BankResponse::OpsReport {
                            report: OpsReport::Metrics {
                                jsonl: gridbank_obs::render_jsonl(&snapshot),
                            },
                        })
                    }
                    OpsQuery::Health => {
                        layer_span.attr("query", "health");
                        Ok(BankResponse::OpsReport {
                            report: OpsReport::Health(self.health_report()),
                        })
                    }
                    OpsQuery::Traces => {
                        layer_span.attr("query", "traces");
                        Ok(BankResponse::OpsReport {
                            report: OpsReport::Traces { rendered: gridbank_obs::flight::dump() },
                        })
                    }
                }
            }
        }
    }
}

/// Releases an in-flight idempotency key on every exit path from
/// `handle_keyed`, waking any duplicate waiting to consult the cache.
struct KeyGuard<'a> {
    bank: &'a GridBank,
    entry: (String, u64),
}

impl Drop for KeyGuard<'_> {
    fn drop(&mut self) {
        self.bank.release_key(&self.entry);
    }
}
