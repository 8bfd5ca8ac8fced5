//! Running one phase of a workload: a closed loop of client threads
//! that share a fixed list of work units, each op timed raw.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use gridbank_core::BankError;

use crate::procfs;
use crate::trace::Span;

/// In-flight requests a pipelined connection keeps.
pub const PIPELINE_DEPTH: usize = 8;

/// A contiguous run of a workload's work units. Unit numbers never
/// repeat across the phases of one run, so idempotency keys and inputs
/// derived from them never collide.
#[derive(Clone, Copy, Debug)]
pub struct Phase {
    pub first_unit: u64,
    pub units: u64,
    /// Record benchmark-side spans.
    pub traced: bool,
}

impl Phase {
    pub fn end(&self) -> u64 {
        self.first_unit + self.units
    }
}

/// One acknowledged op: when the acknowledgement arrived and how long
/// after the send, both in nanoseconds on the phase's clock.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    pub end_ns: u64,
    pub latency_ns: u64,
}

/// A failure of the transport, the protocol or the disk ends the run; any
/// other error is the bank refusing one op.
pub fn is_fatal(e: &BankError) -> bool {
    matches!(e, BankError::Net(_) | BankError::Protocol(_) | BankError::Storage(_))
}

/// What one client thread records while it runs a phase.
pub struct Recorder {
    epoch: Instant,
    pub samples: Vec<Sample>,
    pub failed: u64,
    /// When this thread was let go at the start of the phase.
    began_ns: u64,
    spans: Option<Vec<Span>>,
    /// The op span calls are made under, and its op id.
    current_op: (u32, u64),
}

impl Recorder {
    fn new(epoch: Instant, expected_ops: usize, traced: bool) -> Self {
        Recorder {
            epoch,
            samples: Vec::with_capacity(expected_ops),
            failed: 0,
            began_ns: 0,
            // Pre-sized so a traced phase does not grow it mid-run: one
            // op span plus at most three call spans per op.
            spans: traced.then(|| Vec::with_capacity(expected_ops * 4)),
            current_op: (0, 0),
        }
    }

    #[cfg(test)]
    pub fn for_test(traced: bool) -> Self {
        Recorder::new(Instant::now(), 64, traced)
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Times one op. A refusal by the bank counts as a failed op; a
    /// transport or protocol failure is returned and ends the run.
    pub fn op<T>(
        &mut self,
        op_id: u64,
        f: impl FnOnce(&mut Recorder) -> Result<T, BankError>,
    ) -> Result<Option<T>, BankError> {
        let start_ns = self.now_ns();
        let slot = self.spans.as_mut().map(|spans| {
            spans.push(Span { name: "op", start_ns, end_ns: start_ns, parent: 0, op_id });
            spans.len() as u32
        });
        self.current_op = (slot.unwrap_or(0), op_id);
        let outcome = f(self);
        let end_ns = self.now_ns();
        self.current_op = (0, 0);
        if let (Some(spans), Some(slot)) = (self.spans.as_mut(), slot) {
            spans[slot as usize - 1].end_ns = end_ns;
        }
        self.settle(outcome, start_ns, end_ns)
    }

    /// Times a call into a layer — only when this phase is traced.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if self.spans.is_none() {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let (parent, op_id) = self.current_op;
        self.push_span(Span { name, start_ns, end_ns, parent, op_id });
        out
    }

    pub fn traced(&self) -> bool {
        self.spans.is_some()
    }

    fn push_span(&mut self, span: Span) -> u32 {
        match self.spans.as_mut() {
            Some(spans) => {
                spans.push(span);
                spans.len() as u32
            }
            None => 0,
        }
    }

    /// Counts ops that never got as far as being sent (their instrument
    /// was refused).
    pub fn fail(&mut self, ops: u64) {
        self.failed += ops;
    }

    fn settle<T>(
        &mut self,
        outcome: Result<T, BankError>,
        start_ns: u64,
        end_ns: u64,
    ) -> Result<Option<T>, BankError> {
        match outcome {
            Ok(v) => {
                self.samples.push(Sample { end_ns, latency_ns: end_ns.saturating_sub(start_ns) });
                Ok(Some(v))
            }
            Err(e) if is_fatal(&e) => Err(e),
            Err(_) => {
                self.failed += 1;
                Ok(None)
            }
        }
    }
}

/// A connection that can have several requests in flight.
pub trait Pipe {
    type Response;
    /// Sends the request of `unit`; returns its correlation id.
    fn send(&mut self, unit: u64) -> Result<u64, BankError>;
    /// Waits for the response to correlation id `id`.
    fn recv(&mut self, id: u64) -> Result<Self::Response, BankError>;
}

/// Drives `pipe` with a sliding window: up to `depth` requests in
/// flight, the oldest awaited first, a new one sent as soon as one is
/// acknowledged. Each op is timed from its send to its acknowledgement.
pub fn slide<P: Pipe>(
    pipe: &mut P,
    depth: usize,
    rec: &mut Recorder,
    mut next_unit: impl FnMut() -> Option<u64>,
    mut on_ack: impl FnMut(u64, P::Response),
) -> Result<(), BankError> {
    // (correlation id, unit, send time, op span)
    let mut in_flight: VecDeque<(u64, u64, u64, u32)> = VecDeque::with_capacity(depth);
    let mut exhausted = false;
    loop {
        while !exhausted && in_flight.len() < depth {
            let Some(unit) = next_unit() else {
                exhausted = true;
                break;
            };
            let start_ns = rec.now_ns();
            let op = rec.push_span(Span {
                name: "op",
                start_ns,
                end_ns: start_ns,
                parent: 0,
                op_id: unit,
            });
            let id = pipe.send(unit)?;
            let sent_ns = rec.now_ns();
            if rec.traced() {
                rec.push_span(Span {
                    name: "core.client.send",
                    start_ns,
                    end_ns: sent_ns,
                    parent: op,
                    op_id: unit,
                });
            }
            in_flight.push_back((id, unit, start_ns, op));
        }
        let Some((id, unit, start_ns, op)) = in_flight.pop_front() else {
            return Ok(());
        };
        let wait_ns = rec.now_ns();
        let outcome = pipe.recv(id);
        let end_ns = rec.now_ns();
        if let Some(spans) = rec.spans.as_mut() {
            spans[op as usize - 1].end_ns = end_ns;
            spans.push(Span {
                name: "core.client.recv_wait",
                start_ns: wait_ns,
                end_ns,
                parent: op,
                op_id: unit,
            });
        }
        if let Some(response) = rec.settle(outcome, start_ns, end_ns)? {
            on_ack(unit, response);
        }
    }
}

/// What a phase measured.
pub struct PhaseResult {
    /// From the start signal to the last acknowledgement.
    pub wall_s: f64,
    /// Process CPU seconds, user and system, spent meanwhile.
    pub cpu_s: f64,
    /// Every acknowledged op of every thread.
    pub samples: Vec<Sample>,
    pub failed: u64,
    /// One vector per client thread; empty unless the phase was traced.
    pub spans: Vec<Vec<Span>>,
}

impl PhaseResult {
    pub fn acknowledged(&self) -> u64 {
        self.samples.len() as u64
    }

    pub fn attempted(&self) -> u64 {
        self.acknowledged() + self.failed
    }

    pub fn ops_per_s(&self) -> f64 {
        self.acknowledged() as f64 / self.wall_s
    }

    /// Latencies in ascending order, nanoseconds.
    pub fn sorted_latencies_ns(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.samples.iter().map(|s| s.latency_ns).collect();
        v.sort_unstable();
        v
    }
}

/// Hands out the units of a phase to whichever thread asks next, so the
/// threads finish together however the work happens to fall.
pub struct UnitQueue {
    next: AtomicU64,
    end: u64,
}

impl UnitQueue {
    pub fn claim(&self) -> Option<u64> {
        let unit = self.next.fetch_add(1, Ordering::Relaxed);
        (unit < self.end).then_some(unit)
    }
}

/// Runs `phase` as a closed loop: one thread per lane, each taking the
/// next unclaimed unit when its previous one is acknowledged. `work`
/// runs a lane until the queue is empty.
pub fn closed_loop<L: Send>(
    lanes: &mut [L],
    phase: Phase,
    ops_per_unit: u64,
    work: impl Fn(&mut L, &UnitQueue, &mut Recorder) -> Result<(), BankError> + Sync,
) -> Result<PhaseResult, String> {
    let queue = UnitQueue { next: AtomicU64::new(phase.first_unit), end: phase.end() };
    let abort = AtomicBool::new(false);
    let barrier = Barrier::new(lanes.len() + 1);
    let epoch = Instant::now();
    let expected = (phase.units * ops_per_unit) as usize / lanes.len() + 64;
    let mut cpu_s = Ok(0.0);
    let recorders: Vec<Result<Recorder, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .iter_mut()
            .map(|lane| {
                let (queue, abort, barrier, work) = (&queue, &abort, &barrier, &work);
                scope.spawn(move || {
                    let mut rec = Recorder::new(epoch, expected, phase.traced);
                    barrier.wait();
                    rec.began_ns = rec.now_ns();
                    let outcome = work(lane, queue, &mut rec);
                    if outcome.is_err() {
                        // Stop the other lanes claiming more work.
                        abort.store(true, Ordering::Relaxed);
                        queue.next.store(queue.end, Ordering::Relaxed);
                    }
                    outcome.map(|()| rec).map_err(|e| format!("transport failure: {e}"))
                })
            })
            .collect();
        let cpu_before = procfs::cpu_seconds();
        barrier.wait();
        let joined: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client thread panicked".into())))
            .collect();
        cpu_s = cpu_before.and_then(|before| Ok(procfs::cpu_seconds()? - before));
        joined
    });
    let mut result = PhaseResult {
        wall_s: 0.0,
        cpu_s: cpu_s.map_err(|e| format!("process CPU time: {e}"))?,
        samples: Vec::new(),
        failed: 0,
        spans: Vec::new(),
    };
    let mut start_ns = u64::MAX;
    for rec in recorders {
        let rec = rec?;
        start_ns = start_ns.min(rec.began_ns);
        result.samples.extend(rec.samples);
        result.failed += rec.failed;
        result.spans.extend(rec.spans);
    }
    if abort.load(Ordering::Relaxed) {
        return Err("a client thread aborted".into());
    }
    let last_end = result.samples.iter().map(|s| s.end_ns).max().unwrap_or(start_ns);
    result.wall_s = last_end.saturating_sub(start_ns) as f64 / 1e9;
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pipe that answers in send order and checks the window.
    struct MockPipe {
        depth_limit: usize,
        in_flight: VecDeque<u64>,
        max_seen: usize,
        next_id: u64,
        refuse_unit: Option<u64>,
        sent: Vec<u64>,
    }

    impl Pipe for MockPipe {
        type Response = u64;
        fn send(&mut self, unit: u64) -> Result<u64, BankError> {
            self.next_id += 1;
            self.in_flight.push_back(self.next_id);
            self.max_seen = self.max_seen.max(self.in_flight.len());
            assert!(self.in_flight.len() <= self.depth_limit, "window exceeded");
            self.sent.push(unit);
            Ok(self.next_id)
        }
        fn recv(&mut self, id: u64) -> Result<u64, BankError> {
            assert_eq!(self.in_flight.pop_front(), Some(id), "awaited out of send order");
            let unit = self.sent[(id - 1) as usize];
            if self.refuse_unit == Some(unit) {
                return Err(BankError::NonPositiveAmount);
            }
            Ok(unit * 10)
        }
    }

    fn mock(refuse_unit: Option<u64>) -> MockPipe {
        MockPipe {
            depth_limit: PIPELINE_DEPTH,
            in_flight: VecDeque::new(),
            max_seen: 0,
            next_id: 0,
            refuse_unit,
            sent: Vec::new(),
        }
    }

    #[test]
    fn sliding_window_fills_to_depth_and_keeps_its_accounts_in_order() {
        let mut pipe = mock(None);
        let mut rec = Recorder::for_test(true);
        let mut units = 100..150u64;
        let mut acked = Vec::new();
        slide(
            &mut pipe,
            PIPELINE_DEPTH,
            &mut rec,
            || units.next(),
            |unit, resp| {
                assert_eq!(resp, unit * 10, "response credited to the wrong op");
                acked.push(unit);
            },
        )
        .unwrap();
        assert_eq!(pipe.max_seen, PIPELINE_DEPTH);
        assert_eq!(acked, (100..150).collect::<Vec<_>>());
        assert_eq!(rec.samples.len(), 50);
        assert_eq!(rec.failed, 0);
        // After the first fill the window slides one at a time: unit
        // 100 + 8 is sent only once unit 100 has been acknowledged.
        assert_eq!(pipe.sent, (100..150).collect::<Vec<_>>());
        // One op span, one send and one recv_wait per op, all tied.
        let spans = rec.spans.unwrap();
        assert_eq!(spans.len(), 150);
        for s in spans.iter().filter(|s| s.name != "op") {
            let parent = &spans[s.parent as usize - 1];
            assert_eq!((parent.name, parent.op_id), ("op", s.op_id));
            assert!(parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns);
        }
    }

    #[test]
    fn a_refusal_is_a_failed_op_and_a_transport_error_ends_the_run() {
        let mut pipe = mock(Some(3));
        let mut rec = Recorder::for_test(false);
        let mut units = 0..10u64;
        let mut acked = 0;
        slide(&mut pipe, 4, &mut rec, || units.next(), |_, _| acked += 1).unwrap();
        assert_eq!((acked, rec.samples.len(), rec.failed), (9, 9, 1));
        assert_eq!(pipe.max_seen, 4);

        let mut rec = Recorder::for_test(false);
        let refused = rec.op(1, |_| Err::<(), _>(BankError::NonPositiveAmount)).unwrap();
        assert!(refused.is_none() && rec.failed == 1);
        let broken = rec.op(2, |_| Err::<(), _>(BankError::Protocol("torn frame".into())));
        assert!(broken.is_err());
    }

    #[test]
    fn calls_hang_under_their_op_only_when_traced() {
        let mut rec = Recorder::for_test(true);
        rec.call("setup", || ());
        rec.op(7, |rec| {
            rec.call("first", || ());
            rec.call("second", || ());
            Ok(())
        })
        .unwrap();
        let spans = rec.spans.as_ref().unwrap();
        let shape: Vec<_> = spans.iter().map(|s| (s.name, s.parent, s.op_id)).collect();
        assert_eq!(shape, [("setup", 0, 0), ("op", 0, 7), ("first", 2, 7), ("second", 2, 7)]);

        let mut quiet = Recorder::for_test(false);
        quiet.op(1, |rec| Ok(rec.call("first", || 5))).unwrap();
        assert!(quiet.spans.is_none() && quiet.samples.len() == 1);
    }

    #[test]
    fn closed_loop_runs_every_unit_exactly_once() {
        let mut lanes = vec![Vec::new(), Vec::new()];
        let phase = Phase { first_unit: 10, units: 1000, traced: false };
        let result = closed_loop(&mut lanes, phase, 1, |lane: &mut Vec<u64>, queue, rec| {
            while let Some(unit) = queue.claim() {
                rec.op(unit, |_| {
                    lane.push(unit);
                    Ok(())
                })?;
            }
            Ok(())
        })
        .unwrap();
        let mut all: Vec<u64> = lanes.concat();
        all.sort_unstable();
        assert_eq!(all, (10..1010).collect::<Vec<_>>());
        assert_eq!((result.acknowledged(), result.failed), (1000, 0));
        assert!(result.wall_s > 0.0);
    }
}
