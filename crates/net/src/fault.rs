//! Deterministic fault injection for the transport layer.
//!
//! A [`FaultInjector`] installed on a [`crate::transport::Network`]
//! attaches per-link fault state to every subsequently created duplex
//! link. Faults are drawn at *send* time from a seeded per-link,
//! per-direction RNG, so a given `(seed, connect-order, traffic)` triple
//! always produces the same loss pattern — chaos tests are reproducible
//! from their seed alone.
//!
//! Fault kinds (all rates in per-mille of sent messages):
//!
//! * **drop** — the message is silently discarded.
//! * **duplicate** — the message is delivered twice.
//! * **reorder** — the message is held back and delivered after the next
//!   one (a one-slot swap), modelling out-of-order delivery.
//! * **reset** — the link is poisoned: this send and every later
//!   operation on either end fails with `Disconnected`, modelling a
//!   connection reset.
//!
//! Above the secure channel, drop/duplicate/reorder surface as `Timeout`
//! or `ChannelIntegrity` (strict sequence numbers reject tampered
//! streams) and reset as `Disconnected` — all retryable, forcing the
//! resilient client through its full reconnect-and-retry path.
//!
//! The first `skip_first` sends in each direction of each link are never
//! faulted. The mutual handshake is exactly two messages per direction,
//! so the default (2) lets connections establish and then faults only
//! RPC traffic; set it to 0 to attack handshakes too. Scoping faults to
//! specific operations (e.g. only payment RPCs) is done by arming the
//! injector around those calls — see `docs/RESILIENCE.md`.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// SplitMix64 step — the deterministic, dependency-free RNG behind fault
/// draws.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-direction fault rates, in per-mille (0..=1000) of sent messages.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultRates {
    /// Probability (‰) a message is silently dropped.
    pub drop_pm: u32,
    /// Probability (‰) a message is delivered twice.
    pub duplicate_pm: u32,
    /// Probability (‰) a message is held back one slot (reordered).
    pub reorder_pm: u32,
    /// Probability (‰) the connection is reset on this send.
    pub reset_pm: u32,
}

impl FaultRates {
    /// No faults.
    pub const NONE: FaultRates =
        FaultRates { drop_pm: 0, duplicate_pm: 0, reorder_pm: 0, reset_pm: 0 };

    /// A uniform mix: each kind at `pm`‰ (total fault rate = 4·`pm`‰).
    pub fn uniform(pm: u32) -> FaultRates {
        FaultRates { drop_pm: pm, duplicate_pm: pm, reorder_pm: pm, reset_pm: pm }
    }

    fn total(&self) -> u32 {
        self.drop_pm + self.duplicate_pm + self.reorder_pm + self.reset_pm
    }
}

/// A full fault plan: seed, per-direction rates, handshake grace.
#[derive(Clone, Copy, Debug)]
pub struct FaultPlan {
    /// Master seed; every link derives its RNG from this.
    pub seed: u64,
    /// Faults applied to client→server traffic.
    pub to_server: FaultRates,
    /// Faults applied to server→client traffic.
    pub to_client: FaultRates,
    /// Number of initial sends per direction per link that are never
    /// faulted (2 = spare the mutual handshake).
    pub skip_first: u32,
}

impl FaultPlan {
    /// Symmetric plan: same rates both directions, handshake spared.
    pub fn symmetric(seed: u64, rates: FaultRates) -> FaultPlan {
        FaultPlan { seed, to_server: rates, to_client: rates, skip_first: 2 }
    }
}

/// What the injector decided for one message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FaultVerdict {
    /// Deliver normally.
    Deliver,
    /// Discard silently.
    Drop,
    /// Deliver twice.
    Duplicate,
    /// Hold back one slot.
    Reorder,
    /// Poison the link.
    Reset,
}

/// Counts of injected faults, for reports and assertions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Messages dropped.
    pub dropped: u64,
    /// Messages duplicated.
    pub duplicated: u64,
    /// Messages reordered.
    pub reordered: u64,
    /// Connections reset.
    pub resets: u64,
}

impl FaultCounts {
    /// Total faults injected.
    pub fn total(&self) -> u64 {
        self.dropped + self.duplicated + self.reordered + self.resets
    }
}

/// The installable injector. Create one, install it on a `Network`, and
/// arm it once setup traffic is done.
pub struct FaultInjector {
    plan: FaultPlan,
    armed: AtomicBool,
    links: AtomicU64,
    dropped: AtomicU64,
    duplicated: AtomicU64,
    reordered: AtomicU64,
    resets: AtomicU64,
}

impl FaultInjector {
    /// Builds an injector (initially disarmed) from a plan.
    pub fn new(plan: FaultPlan) -> Arc<FaultInjector> {
        Arc::new(FaultInjector {
            plan,
            armed: AtomicBool::new(false),
            links: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            duplicated: AtomicU64::new(0),
            reordered: AtomicU64::new(0),
            resets: AtomicU64::new(0),
        })
    }

    /// Arms or disarms fault injection. Disarmed links deliver normally,
    /// so tests can set up a clean world and then let chaos loose —
    /// or scope faults to specific RPC kinds by arming around them.
    pub fn arm(&self, on: bool) {
        self.armed.store(on, Ordering::SeqCst);
    }

    /// Whether faults are currently being injected.
    pub fn is_armed(&self) -> bool {
        self.armed.load(Ordering::SeqCst)
    }

    /// The plan this injector runs.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Snapshot of injected-fault counters.
    pub fn counts(&self) -> FaultCounts {
        FaultCounts {
            dropped: self.dropped.load(Ordering::Relaxed),
            duplicated: self.duplicated.load(Ordering::Relaxed),
            reordered: self.reordered.load(Ordering::Relaxed),
            resets: self.resets.load(Ordering::Relaxed),
        }
    }

    /// Builds the two per-direction fault ends for a new link. The link
    /// id comes from a connect-order counter, so single-threaded drivers
    /// get fully deterministic fault sequences.
    pub(crate) fn attach(self: &Arc<Self>) -> (LinkFaults, LinkFaults) {
        let link = self.links.fetch_add(1, Ordering::SeqCst);
        let reset = Arc::new(AtomicBool::new(false));
        let client_end = LinkFaults {
            injector: Arc::clone(self),
            rates: self.plan.to_server,
            rng: Mutex::new(self.plan.seed ^ (link << 1)),
            sent: AtomicU32::new(0),
            held: Mutex::new(None),
            reset: Arc::clone(&reset),
        };
        let server_end = LinkFaults {
            injector: Arc::clone(self),
            rates: self.plan.to_client,
            rng: Mutex::new(self.plan.seed ^ (link << 1) ^ 1),
            sent: AtomicU32::new(0),
            held: Mutex::new(None),
            reset,
        };
        (client_end, server_end)
    }

    fn record(&self, verdict: FaultVerdict) {
        let (counter, name) = match verdict {
            FaultVerdict::Deliver => return,
            FaultVerdict::Drop => (&self.dropped, "net.fault.injected.drop"),
            FaultVerdict::Duplicate => (&self.duplicated, "net.fault.injected.duplicate"),
            FaultVerdict::Reorder => (&self.reordered, "net.fault.injected.reorder"),
            FaultVerdict::Reset => (&self.resets, "net.fault.injected.reset"),
        };
        counter.fetch_add(1, Ordering::Relaxed);
        gridbank_obs::count(name, 1);
    }
}

/// One direction's fault state on one link, owned by the sending end.
pub(crate) struct LinkFaults {
    injector: Arc<FaultInjector>,
    rates: FaultRates,
    rng: Mutex<u64>,
    sent: AtomicU32,
    held: Mutex<Option<Vec<u8>>>,
    /// Shared with the opposite end: a reset poisons the whole link.
    reset: Arc<AtomicBool>,
}

impl LinkFaults {
    /// Whether a reset fault has poisoned this link.
    pub(crate) fn is_reset(&self) -> bool {
        self.reset.load(Ordering::SeqCst)
    }

    pub(crate) fn poison(&self) {
        self.reset.store(true, Ordering::SeqCst);
    }

    /// Takes the held-back (reordered) message, if any.
    pub(crate) fn take_held(&self) -> Option<Vec<u8>> {
        self.held.lock().take()
    }

    pub(crate) fn hold(&self, msg: Vec<u8>) {
        *self.held.lock() = Some(msg);
    }

    /// Draws the verdict for the next message in this direction.
    pub(crate) fn draw(&self) -> FaultVerdict {
        let seq = self.sent.fetch_add(1, Ordering::SeqCst);
        if !self.injector.is_armed() || seq < self.injector.plan.skip_first {
            return FaultVerdict::Deliver;
        }
        if self.rates.total() == 0 {
            return FaultVerdict::Deliver;
        }
        let roll = (splitmix64(&mut self.rng.lock()) % 1000) as u32;
        let verdict = if roll < self.rates.drop_pm {
            FaultVerdict::Drop
        } else if roll < self.rates.drop_pm + self.rates.duplicate_pm {
            FaultVerdict::Duplicate
        } else if roll < self.rates.drop_pm + self.rates.duplicate_pm + self.rates.reorder_pm {
            FaultVerdict::Reorder
        } else if roll < self.rates.total() {
            FaultVerdict::Reset
        } else {
            FaultVerdict::Deliver
        };
        self.injector.record(verdict);
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(end: &LinkFaults, n: usize) -> Vec<FaultVerdict> {
        (0..n).map(|_| end.draw()).collect()
    }

    #[test]
    fn disarmed_injector_never_faults() {
        let inj = FaultInjector::new(FaultPlan::symmetric(7, FaultRates::uniform(250)));
        let (c, _s) = inj.attach();
        assert!(drain(&c, 100).iter().all(|v| *v == FaultVerdict::Deliver));
        assert_eq!(inj.counts().total(), 0);
    }

    #[test]
    fn skip_first_spares_the_handshake() {
        let inj = FaultInjector::new(FaultPlan {
            seed: 1,
            to_server: FaultRates { drop_pm: 1000, ..FaultRates::NONE },
            to_client: FaultRates::NONE,
            skip_first: 2,
        });
        inj.arm(true);
        let (c, s) = inj.attach();
        // First two client sends (the handshake share) always deliver.
        assert_eq!(drain(&c, 2), vec![FaultVerdict::Deliver; 2]);
        // Everything after is dropped at 1000‰.
        assert_eq!(drain(&c, 5), vec![FaultVerdict::Drop; 5]);
        // The server direction has zero rates: never faulted.
        assert!(drain(&s, 20).iter().all(|v| *v == FaultVerdict::Deliver));
        assert_eq!(inj.counts().dropped, 5);
    }

    #[test]
    fn same_seed_same_verdict_sequence() {
        let draw_all = |seed: u64| {
            let inj = FaultInjector::new(FaultPlan::symmetric(seed, FaultRates::uniform(100)));
            inj.arm(true);
            let (c, _s) = inj.attach();
            drain(&c, 200)
        };
        assert_eq!(draw_all(42), draw_all(42));
        assert_ne!(draw_all(42), draw_all(43));
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let inj = FaultInjector::new(FaultPlan {
            seed: 99,
            to_server: FaultRates { drop_pm: 200, ..FaultRates::NONE },
            to_client: FaultRates::NONE,
            skip_first: 0,
        });
        inj.arm(true);
        let (c, _s) = inj.attach();
        let verdicts = drain(&c, 2000);
        let drops = verdicts.iter().filter(|v| **v == FaultVerdict::Drop).count();
        // 200‰ of 2000 = 400 expected; accept a generous band.
        assert!((250..550).contains(&drops), "got {drops} drops");
    }

    #[test]
    fn reset_poisons_both_ends() {
        let inj = FaultInjector::new(FaultPlan::symmetric(3, FaultRates::NONE));
        let (c, s) = inj.attach();
        assert!(!c.is_reset() && !s.is_reset());
        c.poison();
        assert!(c.is_reset() && s.is_reset());
    }
}
