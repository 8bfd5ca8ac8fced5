//! Process-local message transport.
//!
//! A [`Network`] is a cheaply clonable handle to a registry of named
//! listeners. [`Network::connect`] builds a bounded duplex link (a pair of
//! crossbeam channels) and delivers the server end to the listener's
//! accept queue. Messages are whole byte vectors — the transport is
//! message-oriented like Globus I/O's message mode, so no stream
//! re-framing is needed above it.
//!
//! A [`Duplex`] end is owned whole by one thread: a server connection's
//! thread receives each request and sends its response on the same end
//! (`RpcServer::serve`), so the link is never split into halves.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration as StdDuration;

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;

use crate::error::NetError;
use crate::fault::{FaultInjector, FaultVerdict, LinkFaults};

/// Capacity of each direction of a duplex link; a full peer applies
/// backpressure rather than unbounded buffering.
const LINK_CAPACITY: usize = 256;

/// Capacity of a listener's accept queue.
const ACCEPT_CAPACITY: usize = 1024;

/// Default blocking-receive timeout; generous for tests, short enough that
/// a wedged peer fails fast.
pub const DEFAULT_TIMEOUT: StdDuration = StdDuration::from_secs(10);

/// A network endpoint name, e.g. `"gridbank.vo-physics.org"`.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Address(pub String);

impl Address {
    /// Convenience constructor.
    pub fn new(s: impl Into<String>) -> Self {
        Address(s.into())
    }
}

impl std::fmt::Display for Address {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for Address {
    fn from(s: &str) -> Self {
        Address(s.to_string())
    }
}

/// One end of a bidirectional message link.
pub struct Duplex {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
    /// Fault state for the direction this end sends in; `None` when no
    /// injector was installed on the network.
    faults: Option<LinkFaults>,
    /// Address of the remote side, for diagnostics.
    pub peer: Address,
}

impl Duplex {
    /// Sends one message; fails if the peer hung up (or the link was
    /// reset by fault injection). Under an armed injector the link's
    /// verdict stream may drop, duplicate, reorder or reset the message.
    pub fn send(&self, msg: Vec<u8>) -> Result<(), NetError> {
        let raw_send = |m: Vec<u8>| self.tx.send(m).map_err(|_| NetError::Disconnected);
        let Some(faults) = &self.faults else {
            return raw_send(msg);
        };
        if faults.is_reset() {
            return Err(NetError::Disconnected);
        }
        let verdict = faults.draw();
        match verdict {
            FaultVerdict::Drop => return Ok(()),
            FaultVerdict::Reset => {
                faults.poison();
                return Err(NetError::Disconnected);
            }
            _ => {}
        }
        // A message held back by an earlier reorder verdict goes out
        // *after* this one, completing the one-slot swap.
        let held = faults.take_held();
        match verdict {
            FaultVerdict::Duplicate => {
                raw_send(msg.clone())?;
                raw_send(msg)?;
            }
            FaultVerdict::Reorder if held.is_none() => faults.hold(msg),
            _ => raw_send(msg)?,
        }
        if let Some(h) = held {
            raw_send(h)?;
        }
        Ok(())
    }

    /// Receives one message with the default timeout.
    pub fn recv(&self) -> Result<Vec<u8>, NetError> {
        self.recv_timeout(DEFAULT_TIMEOUT)
    }

    /// Receives one message, waiting at most `timeout`.
    pub fn recv_timeout(&self, timeout: StdDuration) -> Result<Vec<u8>, NetError> {
        if self.faults.as_ref().is_some_and(|f| f.is_reset()) {
            return Err(NetError::Disconnected);
        }
        self.rx.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => NetError::Timeout,
            RecvTimeoutError::Disconnected => NetError::Disconnected,
        })
    }

    /// Non-blocking receive; `Ok(None)` when no message is waiting.
    pub fn try_recv(&self) -> Result<Option<Vec<u8>>, NetError> {
        if self.faults.as_ref().is_some_and(|f| f.is_reset()) {
            return Err(NetError::Disconnected);
        }
        match self.rx.try_recv() {
            Ok(m) => Ok(Some(m)),
            Err(crossbeam::channel::TryRecvError::Empty) => Ok(None),
            Err(crossbeam::channel::TryRecvError::Disconnected) => Err(NetError::Disconnected),
        }
    }
}

/// A bound listener: accepts inbound duplex links.
pub struct Listener {
    incoming: Receiver<Duplex>,
    address: Address,
    network: Network,
}

impl Listener {
    /// The bound address.
    pub fn address(&self) -> &Address {
        &self.address
    }

    /// Accepts the next inbound connection with the default timeout.
    pub fn accept(&self) -> Result<Duplex, NetError> {
        self.accept_timeout(DEFAULT_TIMEOUT)
    }

    /// Accepts with an explicit timeout.
    pub fn accept_timeout(&self, timeout: StdDuration) -> Result<Duplex, NetError> {
        self.incoming.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => NetError::Timeout,
            RecvTimeoutError::Disconnected => NetError::Disconnected,
        })
    }

    /// Non-blocking accept.
    pub fn try_accept(&self) -> Result<Option<Duplex>, NetError> {
        match self.incoming.try_recv() {
            Ok(d) => Ok(Some(d)),
            Err(crossbeam::channel::TryRecvError::Empty) => Ok(None),
            Err(crossbeam::channel::TryRecvError::Disconnected) => Err(NetError::Disconnected),
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.network.registry.lock().remove(&self.address);
    }
}

/// A handle to an in-process network. Clones share the same namespace.
#[derive(Clone, Default)]
pub struct Network {
    registry: Arc<Mutex<HashMap<Address, Sender<Duplex>>>>,
    injector: Arc<Mutex<Option<Arc<FaultInjector>>>>,
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a fault injector: every link created from now on carries
    /// its fault state (faults fire only while the injector is armed).
    pub fn install_faults(&self, injector: Arc<FaultInjector>) {
        *self.injector.lock() = Some(injector);
    }

    /// Binds a listener at `address`.
    pub fn bind(&self, address: Address) -> Result<Listener, NetError> {
        let mut reg = self.registry.lock();
        if reg.contains_key(&address) {
            return Err(NetError::AddressInUse(address.0.clone()));
        }
        let (tx, rx) = bounded(ACCEPT_CAPACITY);
        reg.insert(address.clone(), tx);
        Ok(Listener { incoming: rx, address, network: self.clone() })
    }

    /// Connects to the listener at `address`, identifying ourselves (for
    /// diagnostics only — authentication happens in the handshake) as
    /// `from`.
    pub fn connect(&self, from: Address, address: &Address) -> Result<Duplex, NetError> {
        let accept_tx = {
            let reg = self.registry.lock();
            reg.get(address).cloned().ok_or_else(|| NetError::NoSuchAddress(address.0.clone()))?
        };
        let (c2s_tx, c2s_rx) = bounded(LINK_CAPACITY);
        let (s2c_tx, s2c_rx) = bounded(LINK_CAPACITY);
        let (client_faults, server_faults) = match self.injector.lock().as_ref() {
            Some(inj) => {
                let (c, s) = inj.attach();
                (Some(c), Some(s))
            }
            None => (None, None),
        };
        let client_end =
            Duplex { tx: c2s_tx, rx: s2c_rx, faults: client_faults, peer: address.clone() };
        let server_end = Duplex { tx: s2c_tx, rx: c2s_rx, faults: server_faults, peer: from };
        accept_tx.send(server_end).map_err(|_| NetError::NoSuchAddress(address.0.clone()))?;
        Ok(client_end)
    }

    /// Number of currently bound listeners (diagnostics).
    pub fn listener_count(&self) -> usize {
        self.registry.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_connect_send_recv() {
        let net = Network::new();
        let listener = net.bind(Address::new("bank")).unwrap();
        let client = net.connect(Address::new("alice"), &Address::new("bank")).unwrap();
        client.send(b"hello".to_vec()).unwrap();
        let server = listener.accept().unwrap();
        assert_eq!(server.peer.0, "alice");
        assert_eq!(server.recv().unwrap(), b"hello");
        server.send(b"world".to_vec()).unwrap();
        assert_eq!(client.recv().unwrap(), b"world");
    }

    #[test]
    fn connect_to_unbound_address_fails() {
        let net = Network::new();
        assert!(matches!(
            net.connect(Address::new("x"), &Address::new("nowhere")),
            Err(NetError::NoSuchAddress(_))
        ));
    }

    #[test]
    fn double_bind_fails() {
        let net = Network::new();
        let _l = net.bind(Address::new("bank")).unwrap();
        assert!(matches!(net.bind(Address::new("bank")), Err(NetError::AddressInUse(_))));
    }

    #[test]
    fn listener_drop_releases_address() {
        let net = Network::new();
        {
            let _l = net.bind(Address::new("bank")).unwrap();
            assert_eq!(net.listener_count(), 1);
        }
        assert_eq!(net.listener_count(), 0);
        let _l2 = net.bind(Address::new("bank")).unwrap();
    }

    #[test]
    fn disconnection_is_detected() {
        let net = Network::new();
        let listener = net.bind(Address::new("bank")).unwrap();
        let client = net.connect(Address::new("a"), &Address::new("bank")).unwrap();
        let server = listener.accept().unwrap();
        drop(client);
        assert!(matches!(server.recv(), Err(NetError::Disconnected)));
        assert!(server.send(b"x".to_vec()).is_err());
    }

    #[test]
    fn try_recv_and_try_accept() {
        let net = Network::new();
        let listener = net.bind(Address::new("bank")).unwrap();
        assert!(matches!(listener.try_accept(), Ok(None)));
        let client = net.connect(Address::new("a"), &Address::new("bank")).unwrap();
        let server = listener.try_accept().unwrap().unwrap();
        assert!(matches!(server.try_recv(), Ok(None)));
        client.send(b"m".to_vec()).unwrap();
        assert_eq!(server.try_recv().unwrap().unwrap(), b"m");
    }

    #[test]
    fn timeout_fires() {
        let net = Network::new();
        let listener = net.bind(Address::new("bank")).unwrap();
        let client = net.connect(Address::new("a"), &Address::new("bank")).unwrap();
        let _server = listener.accept().unwrap();
        assert!(matches!(
            client.recv_timeout(StdDuration::from_millis(10)),
            Err(NetError::Timeout)
        ));
    }

    #[test]
    fn separate_networks_are_isolated() {
        let net1 = Network::new();
        let net2 = Network::new();
        let _l = net1.bind(Address::new("bank")).unwrap();
        assert!(net2.connect(Address::new("a"), &Address::new("bank")).is_err());
    }

    // Regression: the retry layer distinguishes retry-after-reconnect
    // (peer gone) from retry-on-same-connection (slow peer). A hung-up
    // peer must surface as Disconnected, never as a timeout.
    #[test]
    fn disconnect_and_timeout_stay_distinct() {
        let net = Network::new();
        let listener = net.bind(Address::new("bank")).unwrap();
        let client = net.connect(Address::new("a"), &Address::new("bank")).unwrap();
        let server = listener.accept().unwrap();
        // Silent peer: timeout, and it is retryable.
        let e = client.recv_timeout(StdDuration::from_millis(5)).unwrap_err();
        assert_eq!(e, NetError::Timeout);
        assert!(e.is_retryable());
        // Hung-up peer: disconnected (not a timeout), also retryable.
        drop(server);
        let e = client.recv_timeout(StdDuration::from_millis(5)).unwrap_err();
        assert_eq!(e, NetError::Disconnected);
        assert!(e.is_retryable());
    }

    mod faults {
        use super::*;
        use crate::fault::{FaultInjector, FaultPlan, FaultRates};

        fn faulty_pair(plan: FaultPlan) -> (std::sync::Arc<FaultInjector>, Duplex, Duplex) {
            let net = Network::new();
            let inj = FaultInjector::new(plan);
            net.install_faults(inj.clone());
            inj.arm(true);
            let listener = net.bind(Address::new("srv")).unwrap();
            let client = net.connect(Address::new("cli"), &Address::new("srv")).unwrap();
            let server = listener.accept().unwrap();
            (inj, client, server)
        }

        #[test]
        fn dropped_messages_never_arrive() {
            let (inj, client, server) = faulty_pair(FaultPlan {
                seed: 5,
                to_server: FaultRates { drop_pm: 1000, ..FaultRates::NONE },
                to_client: FaultRates::NONE,
                skip_first: 0,
            });
            for i in 0..4u8 {
                client.send(vec![i]).unwrap();
            }
            assert_eq!(server.recv_timeout(StdDuration::from_millis(10)), Err(NetError::Timeout));
            assert_eq!(inj.counts().dropped, 4);
        }

        #[test]
        fn duplicates_arrive_twice() {
            let (inj, client, server) = faulty_pair(FaultPlan {
                seed: 5,
                to_server: FaultRates { duplicate_pm: 1000, ..FaultRates::NONE },
                to_client: FaultRates::NONE,
                skip_first: 0,
            });
            client.send(vec![7]).unwrap();
            assert_eq!(server.recv().unwrap(), vec![7]);
            assert_eq!(server.recv().unwrap(), vec![7]);
            assert_eq!(inj.counts().duplicated, 1);
        }

        #[test]
        fn reorder_swaps_adjacent_messages() {
            let (inj, client, server) = faulty_pair(FaultPlan {
                seed: 5,
                to_server: FaultRates { reorder_pm: 1000, ..FaultRates::NONE },
                to_client: FaultRates::NONE,
                skip_first: 0,
            });
            client.send(vec![1]).unwrap(); // held
            client.send(vec![2]).unwrap(); // delivered, then releases [1]
            assert_eq!(server.recv().unwrap(), vec![2]);
            assert_eq!(server.recv().unwrap(), vec![1]);
            assert!(inj.counts().reordered >= 1);
        }

        #[test]
        fn reset_poisons_the_link_for_both_ends() {
            let (inj, client, server) = faulty_pair(FaultPlan {
                seed: 5,
                to_server: FaultRates { reset_pm: 1000, ..FaultRates::NONE },
                to_client: FaultRates::NONE,
                skip_first: 0,
            });
            assert_eq!(client.send(vec![1]), Err(NetError::Disconnected));
            assert_eq!(client.send(vec![2]), Err(NetError::Disconnected));
            assert_eq!(server.try_recv(), Err(NetError::Disconnected));
            assert_eq!(inj.counts().resets, 1);
        }

        #[test]
        fn skip_first_lets_early_traffic_through() {
            let (_inj, client, server) = faulty_pair(FaultPlan {
                seed: 5,
                to_server: FaultRates { drop_pm: 1000, ..FaultRates::NONE },
                to_client: FaultRates::NONE,
                skip_first: 2,
            });
            client.send(vec![1]).unwrap();
            client.send(vec![2]).unwrap();
            client.send(vec![3]).unwrap(); // dropped
            assert_eq!(server.recv().unwrap(), vec![1]);
            assert_eq!(server.recv().unwrap(), vec![2]);
            assert_eq!(server.recv_timeout(StdDuration::from_millis(10)), Err(NetError::Timeout));
        }

        #[test]
        fn disarmed_and_fault_free_networks_behave_identically() {
            let (inj, client, server) =
                faulty_pair(FaultPlan::symmetric(9, FaultRates::uniform(250)));
            inj.arm(false);
            for i in 0..20u8 {
                client.send(vec![i]).unwrap();
                assert_eq!(server.recv().unwrap(), vec![i]);
            }
            assert_eq!(inj.counts().total(), 0);
        }
    }

    #[test]
    fn many_concurrent_connections() {
        let net = Network::new();
        let listener = net.bind(Address::new("bank")).unwrap();
        let mut handles = Vec::new();
        for i in 0..32 {
            let net = net.clone();
            handles.push(std::thread::spawn(move || {
                let c = net
                    .connect(Address::new(format!("client-{i}")), &Address::new("bank"))
                    .unwrap();
                c.send(format!("ping {i}").into_bytes()).unwrap();
                c.recv().unwrap()
            }));
        }
        for _ in 0..32 {
            let s = listener.accept().unwrap();
            let msg = s.recv().unwrap();
            let mut reply = b"pong ".to_vec();
            reply.extend_from_slice(&msg[5..]);
            s.send(reply).unwrap();
        }
        for h in handles {
            let reply = h.join().unwrap();
            assert!(reply.starts_with(b"pong "));
        }
    }
}
