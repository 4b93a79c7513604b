//! The per-rank communicator: point-to-point messaging with virtual time.
//!
//! A [`Comm`] is handed to each rank's closure by the SPMD engine. It plays
//! the role of `MPI_COMM_WORLD`: it knows the rank, the communicator size,
//! and provides blocking `send`/`recv` (plus the collectives implemented in
//! [`crate::collectives`] on top of them).
//!
//! # Virtual time
//!
//! Real bytes move between real threads through channels, but *time* is
//! modeled: the sender charges endpoint overhead and stamps the message
//! with its departure time; the receiver advances to
//! `max(own clock, departure + transit)` (waiting counts as idle time) and
//! then charges its own endpoint overhead. Transit time comes from the
//! machine's [`crate::cost::NetworkModel`] and topology hop count. This is
//! a conservative parallel simulation: because every `recv` names its
//! source, virtual timestamps never need roll-back.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::clock::Clock;
use crate::collectives::{PointToPoint, COLL_TAG_BASE};
use crate::coop::{CoopShared, Deposit};
use crate::cost::MachineSpec;
use crate::error::SimError;
use crate::fault::FaultState;
use crate::payload::{checksum, decode_f64s, decode_u64s, encode_f64s, encode_u64s, DecodeError};
use crate::subcomm::{Group, GroupHost, SubComm};
use crate::trace::{Event, EventKind, PhaseStats, RankStats};
use crate::verify::{hash_f64s, CollFingerprint, VerifyState, USER_REPL_COMM, WORLD_COMM};

/// Highest tag value available to user point-to-point messages. Collectives
/// use tags above this range so that user traffic can never be confused
/// with collective traffic.
pub const MAX_USER_TAG: u64 = (1 << 32) - 1;

/// Panic payload used internally to carry a structured error out of a rank.
pub(crate) struct AbortPanic(pub SimError);

/// A message on the simulated wire.
#[derive(Debug)]
pub(crate) struct Envelope {
    pub tag: u64,
    /// Sender's virtual time at which the message left the NIC.
    pub depart: f64,
    /// Sender's per-rank message sequence number (1-based), so integrity
    /// and failure errors can name the exact message.
    pub seq: u64,
    /// FNV-1a checksum of `bytes` as sent; stamped only when a fault plan
    /// is active, verified on arrival.
    pub checksum: Option<u64>,
    pub bytes: Vec<u8>,
}

/// Polling slice for blocking receives; bounds how stale the abort flag can
/// get while a rank is blocked.
const RECV_SLICE: Duration = Duration::from_millis(25);

/// How a [`Comm`]'s envelopes physically move between ranks. Everything
/// else — virtual clocks, statistics, verification, fault injection — is
/// shared between the variants, which is what makes the two engines
/// bitwise identical.
pub(crate) enum Transport {
    /// Thread-per-rank engine: a full mesh of unbounded `mpsc` channels,
    /// blocked receives polling in wall-clock slices.
    Mesh {
        /// `inboxes[src]` receives messages sent by `src` to this rank.
        inboxes: Vec<Receiver<Envelope>>,
        /// `outboxes[dst]` sends messages from this rank to `dst`.
        outboxes: Vec<Sender<Envelope>>,
    },
    /// Cooperative engine: lazily created per-pair mailboxes inside the
    /// shared scheduler state; blocked ranks park on a condvar.
    Coop(Arc<CoopShared>),
}

/// What a [`Request`] is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReqKind {
    /// A buffered send: complete at post (like `MPI_Isend` with unlimited
    /// buffering); `wait` never blocks.
    Send,
    /// A posted receive: the envelope is pulled off the wire at `wait`.
    Recv { src: usize, tag: u64 },
    /// A non-blocking collective whose data movement already ran eagerly;
    /// only its remaining wire time is pending.
    Coll,
}

/// Handle for a non-blocking operation posted on a [`Comm`].
///
/// The operation progresses in *virtual* time while the rank keeps
/// computing: endpoint overhead (LogGP `o`) was charged on the CPU clock at
/// post, and the wire time (`L`/`g`/`G`) elapses concurrently with
/// subsequent [`Comm::work`]. [`Comm::wait`] blocks only for whatever wire
/// time has not yet been hidden, and credits the hidden portion to the
/// clock's overlap shadow accounting.
///
/// Every request must be retired by exactly one [`Comm::wait`] (or
/// [`Comm::waitall`]): waiting twice fails the run with
/// [`SimError::RequestMisuse`], and dropping an unwaited request panics the
/// owning rank — both name the culprit rank.
#[derive(Debug)]
#[must_use = "non-blocking requests must be retired with Comm::wait / Comm::waitall"]
pub struct Request {
    rank: usize,
    kind: ReqKind,
    /// Virtual time at post (after idle retraction): start of the window
    /// during which the operation's wire time can hide behind other work.
    window_start: f64,
    /// Virtual time at which the operation's wire activity finishes.
    /// Unknown at post for receives (the envelope carries it); `wait`
    /// computes it on arrival.
    completion: f64,
    done: bool,
}

impl Request {
    /// Whether this request has been retired by a `wait`.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// The rank that posted this request.
    pub fn rank(&self) -> usize {
        self.rank
    }
}

impl Drop for Request {
    fn drop(&mut self) {
        // Dropping an unretired request loses its completion accounting
        // (and, for receives, strands an envelope): fail loudly, naming
        // the culprit rank. Suppressed while already panicking so request
        // cleanup during an abort cannot mask the original error.
        if !self.done && !std::thread::panicking() {
            panic!("rank {}: non-blocking request dropped without wait", self.rank);
        }
    }
}

/// Name of the implicit phase bucket that holds everything outside an
/// explicit [`Comm::enter_phase`] span.
pub const DEFAULT_PHASE: &str = "other";

/// Per-phase message counters mirroring the time buckets in
/// [`crate::clock::Clock`]; merged with them into
/// [`crate::trace::PhaseStats`] when stats are snapshotted.
#[derive(Debug, Clone, Copy, Default)]
struct PhaseCounters {
    msgs_sent: u64,
    bytes_sent: u64,
    msgs_recvd: u64,
    bytes_recvd: u64,
    collectives: u64,
}

/// Per-rank communicator for one SPMD run. Not `Clone`: exactly one per
/// rank, mirroring an MPI process.
pub struct Comm {
    rank: usize,
    size: usize,
    spec: Arc<MachineSpec>,
    clock: Clock,
    stats: RankStats,
    /// The message-movement backend (see [`Transport`]).
    transport: Transport,
    /// Messages received out of tag order, keyed by source, in arrival
    /// order. Lazily created so an idle pair costs nothing at large `P`.
    stash: BTreeMap<usize, VecDeque<Envelope>>,
    abort: Arc<AtomicBool>,
    recv_timeout: Duration,
    /// Monotone counter giving every collective call a unique tag; all
    /// ranks must invoke collectives in the same order (SPMD discipline),
    /// exactly as MPI requires.
    coll_seq: u64,
    /// Monotone counter for user-level [`Comm::verify_replicated`] calls.
    repl_seq: u64,
    /// Phase names, parallel to the clock's time buckets; `[0]` is the
    /// implicit [`DEFAULT_PHASE`] bucket.
    phase_names: Vec<String>,
    /// Per-phase message counters, parallel to `phase_names`.
    phase_counters: Vec<PhaseCounters>,
    /// Stack of open `enter_phase` spans (bucket indices).
    phase_stack: Vec<usize>,
    /// Message event trace; `None` when tracing is disabled.
    events: Option<Vec<Event>>,
    /// Shared verification state; `None` when every check is disabled.
    verify: Option<Arc<VerifyState>>,
    /// Shared fault-injection state; `None` when no fault plan is active.
    fault: Option<Arc<FaultState>>,
    /// Shared in-flight replay log (see [`crate::replay`]); `None` when
    /// no localized-recovery supervisor installed one.
    replay: Option<crate::replay::ReplayLog>,
    /// `pulled_from[src]`: envelopes this rank has taken off the channel
    /// from `src` (stashed or matched); compared against the fault layer's
    /// delivered-send count to prove a wait is for a dropped message.
    pulled_from: Vec<u64>,
    /// Completion horizon of non-blocking collectives already posted:
    /// later posts may not complete before earlier ones (the wire is
    /// FIFO per endpoint), so each new completion is clamped to at least
    /// this value.
    nb_horizon: f64,
}

impl Comm {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        rank: usize,
        spec: Arc<MachineSpec>,
        transport: Transport,
        abort: Arc<AtomicBool>,
        recv_timeout: Duration,
        record_events: bool,
        verify: Option<Arc<VerifyState>>,
        fault: Option<Arc<FaultState>>,
        replay: Option<crate::replay::ReplayLog>,
    ) -> Self {
        let size = spec.p;
        Comm {
            rank,
            size,
            spec,
            clock: Clock::new(),
            stats: RankStats { rank, ..Default::default() },
            transport,
            stash: BTreeMap::new(),
            abort,
            recv_timeout,
            coll_seq: 0,
            repl_seq: 0,
            phase_names: vec![DEFAULT_PHASE.to_string()],
            phase_counters: vec![PhaseCounters::default()],
            phase_stack: Vec::new(),
            events: record_events.then(Vec::new),
            verify,
            fault,
            replay,
            pulled_from: vec![0; size],
            nb_horizon: 0.0,
        }
    }

    /// This rank's id in `0..size()`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the communicator.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The machine being simulated.
    pub fn machine(&self) -> &MachineSpec {
        &self.spec
    }

    /// Current virtual time on this rank, in seconds.
    pub fn now(&self) -> f64 {
        self.clock.now()
    }

    /// Charge `ops` abstract operations of local compute to the virtual
    /// clock (see [`crate::cost::ComputeModel::sec_per_op`]), scaled by
    /// this rank's relative speed on heterogeneous machines.
    pub fn work(&mut self, ops: u64) {
        self.fault_checkpoint();
        let dt = ops as f64 * self.spec.compute.sec_per_op / self.spec.speed(self.rank);
        self.clock.advance_compute(dt);
    }

    /// Charge an exact number of virtual seconds of local compute.
    pub fn work_secs(&mut self, secs: f64) {
        self.clock.advance_compute(secs);
    }

    /// Run `f`, measure its wall-clock duration, and charge it (scaled by
    /// [`crate::cost::ComputeModel::wall_scale`]) as virtual compute time.
    pub fn measured<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let dt = start.elapsed().as_secs_f64() * self.spec.compute.wall_scale;
        self.clock.advance_compute(dt);
        out
    }

    /// Open a named phase span: until the matching [`Comm::exit_phase`],
    /// every clock advance (compute, comm endpoint work, idle waits) and
    /// every message/collective on this rank is attributed to the bucket
    /// named `name`.
    ///
    /// Spans nest (an `"allreduce"` span inside an `"estep"` span takes
    /// over attribution until it closes), and re-entering a name later
    /// accumulates into the same bucket, so a phase entered once per EM
    /// cycle reports its total across the run. Phase buckets always
    /// partition the rank's elapsed time: whatever runs outside any span
    /// lands in the implicit [`DEFAULT_PHASE`] bucket.
    pub fn enter_phase(&mut self, name: &str) {
        let idx = match self.phase_names.iter().position(|n| n == name) {
            Some(idx) => idx,
            None => {
                let idx = self.clock.push_phase();
                self.phase_names.push(name.to_string());
                self.phase_counters.push(PhaseCounters::default());
                debug_assert_eq!(self.phase_names.len(), idx + 1);
                idx
            }
        };
        self.phase_stack.push(idx);
        self.clock.set_phase(idx);
    }

    /// Close the innermost open phase span, returning attribution to the
    /// enclosing span (or the default bucket when none is open). Calling
    /// with no span open is a no-op, so a helper that always pairs
    /// enter/exit stays safe even if its caller already unwound the stack.
    pub fn exit_phase(&mut self) {
        self.phase_stack.pop();
        self.clock.set_phase(self.phase_stack.last().copied().unwrap_or(0));
    }

    /// Name of the phase currently receiving attribution.
    pub fn current_phase(&self) -> &str {
        &self.phase_names[self.clock.current_phase()]
    }

    fn check_abort(&self) {
        if self.abort.load(Ordering::Relaxed) {
            std::panic::panic_any(AbortPanic(SimError::Aborted { rank: self.rank }));
        }
    }

    pub(crate) fn fail(&self, err: SimError) -> ! {
        self.abort.store(true, Ordering::Relaxed);
        std::panic::panic_any(AbortPanic(err));
    }

    /// Fault-injection checkpoint: die here when the plan says this rank
    /// crashes now. Deliberately does *not* set the shared abort flag —
    /// the peers must detect the failure through the fault records (that
    /// detection path is the machinery under test), not be torn down by
    /// the engine.
    fn fault_checkpoint(&mut self) {
        let Some(fs) = &self.fault else { return };
        if let Some(rec) =
            fs.crash_due(self.rank, self.stats.msgs_sent, self.clock.now(), self.current_phase())
        {
            std::panic::panic_any(AbortPanic(SimError::RankCrashed {
                rank: self.rank,
                seq: rec.seq,
                phase: rec.phase,
            }));
        }
    }

    /// Virtual-time timeout and checksum verification for an arriving
    /// envelope; `arrival` is the virtual time the receiver would have to
    /// wait until. No-op without an active fault plan.
    fn integrity_check(&mut self, src: usize, env: &Envelope, arrival: f64) {
        let Some(fs) = self.fault.clone() else { return };
        if let Some(limit) = fs.virtual_timeout() {
            let waited = arrival - self.clock.now();
            if waited > limit {
                let phase = self.current_phase().to_string();
                self.fail(SimError::Timeout {
                    rank: self.rank,
                    from: src,
                    seq: env.seq,
                    waited,
                    limit,
                    phase,
                });
            }
        }
        if let Some(expected) = env.checksum {
            let found = checksum(&env.bytes);
            if found != expected {
                self.fail(SimError::PayloadCorrupt {
                    rank: self.rank,
                    from: src,
                    seq: env.seq,
                    cause: DecodeError::ChecksumMismatch { expected, found },
                });
            }
        }
    }

    /// Send `bytes` to `dst` with `tag`. Buffered and non-blocking, like an
    /// `MPI_Send` that always finds buffer space.
    ///
    /// # Panics
    /// Panics if `dst` is out of range or `tag` exceeds [`MAX_USER_TAG`]
    /// (internal collective calls may use larger tags).
    pub fn send_bytes(&mut self, dst: usize, tag: u64, bytes: Vec<u8>) {
        assert!(dst < self.size, "send to rank {dst} but size is {}", self.size);
        self.check_abort();
        self.fault_checkpoint();
        self.stats.msgs_sent += 1;
        self.stats.bytes_sent += bytes.len() as u64;
        let cur = self.clock.current_phase();
        self.phase_counters[cur].msgs_sent += 1;
        self.phase_counters[cur].bytes_sent += bytes.len() as u64;
        self.clock.advance_comm(self.spec.network.overhead);
        if let Some(events) = &mut self.events {
            events.push(Event {
                t: self.clock.now(),
                kind: EventKind::Send,
                peer: dst,
                bytes: bytes.len(),
                tag,
            });
        }
        let seq = self.stats.msgs_sent;
        let mut bytes = bytes;
        let mut depart = self.clock.now();
        let mut sum = None;
        if let Some(fs) = self.fault.clone() {
            let phase = self.current_phase().to_string();
            let d = fs.on_send(self.rank, dst, seq, depart, &phase);
            let clean = checksum(&bytes);
            sum = Some(clean);
            depart += d.extra_delay;
            if let Some(factor) = d.degrade_factor {
                // Inflate departure by the extra per-byte wire time of the
                // degraded link; latency and endpoint overhead are as built.
                let per_byte = self.spec.transit(bytes.len(), self.rank, dst)
                    - self.spec.transit(0, self.rank, dst);
                depart += (factor - 1.0) * per_byte;
            }
            if let Some((byte, mask)) = d.corrupt {
                if bytes.is_empty() {
                    // Nothing to flip: corrupt the checksum instead so the
                    // fault is still observable on arrival.
                    sum = Some(clean ^ u64::from(mask));
                } else {
                    let i = byte % bytes.len();
                    bytes[i] ^= mask;
                }
            }
            if d.dropped {
                // The sender has charged all its costs and believes the
                // message left; the wire loses it. Never recorded with the
                // verifier, so the deadlock detector does not count it as
                // in flight.
                return;
            }
        }
        let env = Envelope { tag, depart, seq, checksum: sum, bytes };
        // Count the send before the envelope becomes visible, so the
        // deadlock detector can never see a quiescent edge with a message
        // actually in flight.
        if let Some(v) = &self.verify {
            v.record_send(self.rank, dst);
        }
        // A gone receiver means the run is aborting after a failure
        // elsewhere, or `dst` already finished its body and will never
        // receive again. The latter is legal for a buffered send (the
        // bytes are simply never read), but the verifier must not keep
        // counting it as in flight or the deadlock detector would treat
        // the edge to the finished rank as forever busy.
        match &self.transport {
            Transport::Mesh { outboxes, .. } => {
                if outboxes[dst].send(env).is_err() {
                    if let Some(v) = &self.verify {
                        v.unrecord_send(self.rank, dst);
                    }
                    self.check_abort();
                }
            }
            Transport::Coop(coop) => {
                let coop = Arc::clone(coop);
                match coop.deposit(self.rank, dst, env, self.clock.now()) {
                    Ok(Deposit::Delivered) => {}
                    Ok(Deposit::Closed) => {
                        if let Some(v) = &self.verify {
                            v.unrecord_send(self.rank, dst);
                        }
                        self.check_abort();
                    }
                    // Woken with a typed error (stall rescue or abort
                    // cascade) while parked on a full mailbox: the
                    // envelope never got in flight.
                    Err(err) => {
                        if let Some(v) = &self.verify {
                            v.unrecord_send(self.rank, dst);
                        }
                        self.fail(err);
                    }
                }
            }
        }
    }

    /// Blocking receive of a message from `src` with exactly `tag`.
    /// Messages from `src` with other tags are stashed and delivered to
    /// later matching receives in arrival order.
    pub fn recv_bytes(&mut self, src: usize, tag: u64) -> Vec<u8> {
        let env = self.pull_envelope(src, tag);
        self.accept(src, env)
    }

    /// Take the next envelope from `src` with exactly `tag` off the wire
    /// (or the stash), blocking in *wall-clock* time only. No virtual-time
    /// or statistics bookkeeping happens here; callers pair this with
    /// [`Comm::accept`] (blocking receive) or the non-blocking completion
    /// path in [`Comm::wait`].
    fn pull_envelope(&mut self, src: usize, tag: u64) -> Envelope {
        assert!(src < self.size, "recv from rank {src} but size is {}", self.size);
        self.fault_checkpoint();
        // First consume any stashed message with a matching tag.
        if let Some(q) = self.stash.get_mut(&src) {
            if let Some(pos) = q.iter().position(|e| e.tag == tag) {
                // lint:allow(unwrap): the index came from position() on the same deque
                return q.remove(pos).expect("position is valid");
            }
        }
        let detect = self.verify.as_ref().filter(|v| v.opts().detect_deadlock).cloned();
        if let Some(v) = &detect {
            v.register_wait(self.rank, src, tag);
        }
        if let Transport::Coop(coop) = &self.transport {
            // The cooperative scheduler needs no wall-clock deadline: a
            // wait that can never be satisfied is detected structurally
            // the moment the run has no runnable rank, and surfaces here
            // as a typed error.
            let coop = Arc::clone(coop);
            loop {
                self.check_abort();
                match coop.pull_or_block(
                    self.rank,
                    src,
                    tag,
                    self.pulled_from[src],
                    self.clock.now(),
                ) {
                    Ok(env) => {
                        self.pulled_from[src] += 1;
                        let matched = env.tag == tag;
                        if let Some(v) = &detect {
                            v.record_pull(self.rank, src, matched);
                        }
                        if matched {
                            return env;
                        }
                        self.stash.entry(src).or_default().push_back(env);
                    }
                    Err(err) => {
                        if let Some(v) = &detect {
                            v.clear_wait(self.rank);
                        }
                        self.fail(err);
                    }
                }
            }
        }
        let deadline = Instant::now() + self.recv_timeout;
        loop {
            self.check_abort();
            let polled = match &self.transport {
                Transport::Mesh { inboxes, .. } => inboxes[src].recv_timeout(RECV_SLICE),
                Transport::Coop(_) => unreachable!("cooperative pulls handled above"),
            };
            match polled {
                Ok(env) => {
                    self.pulled_from[src] += 1;
                    let matched = env.tag == tag;
                    if let Some(v) = &detect {
                        v.record_pull(self.rank, src, matched);
                    }
                    if matched {
                        return env;
                    }
                    self.stash.entry(src).or_default().push_back(env);
                }
                Err(RecvTimeoutError::Timeout) => {
                    // A quiet slice: first ask the fault layer whether this
                    // wait is provably hopeless (peer crashed, or the only
                    // unaccounted message on the link was dropped) — the
                    // typed replacement for a hang.
                    if let Some(err) = self
                        .fault
                        .as_ref()
                        .and_then(|fs| fs.diagnose_wait(self.rank, src, self.pulled_from[src]))
                    {
                        if let Some(v) = &detect {
                            v.clear_wait(self.rank);
                        }
                        self.fail(err);
                    }
                    // Then look for a provable deadlock before (long
                    // before) the wall-clock timeout trips — unless a
                    // fatal fault is on record. A crash or drop leaves a
                    // wait-for cycle in its wake (the victim's peers wait
                    // on each other through the missing message), and
                    // which rank's poll tick fires first is a wall-clock
                    // race; standing down keeps the diagnosis typed and
                    // deterministic, with the recv timeout as backstop.
                    let fault_pending = self.fault.as_ref().is_some_and(|fs| fs.has_fatal_record());
                    if !fault_pending {
                        if let Some(err) =
                            detect.as_ref().and_then(|v| v.scan_for_deadlock(self.rank))
                        {
                            self.fail(err);
                        }
                    }
                    if Instant::now() >= deadline {
                        if let Some(v) = &detect {
                            v.clear_wait(self.rank);
                        }
                        self.fail(SimError::RecvTimeout {
                            rank: self.rank,
                            from: src,
                            tag,
                            budget: self.recv_timeout,
                        });
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    // The sender's half is gone. If the fault layer knows
                    // why, report the culprit instead of a bare abort.
                    if let Some(err) = self
                        .fault
                        .as_ref()
                        .and_then(|fs| fs.diagnose_wait(self.rank, src, self.pulled_from[src]))
                    {
                        self.fail(err);
                    }
                    self.fail(SimError::Aborted { rank: self.rank });
                }
            }
        }
    }

    /// Book a received envelope: advance the virtual clock to its arrival
    /// and charge endpoint overhead.
    fn accept(&mut self, src: usize, env: Envelope) -> Vec<u8> {
        let transit = self.spec.transit(env.bytes.len(), src, self.rank);
        self.integrity_check(src, &env, env.depart + transit);
        self.clock.wait_until(env.depart + transit);
        self.clock.advance_comm(self.spec.network.overhead);
        self.stats.msgs_recvd += 1;
        self.stats.bytes_recvd += env.bytes.len() as u64;
        let cur = self.clock.current_phase();
        self.phase_counters[cur].msgs_recvd += 1;
        self.phase_counters[cur].bytes_recvd += env.bytes.len() as u64;
        if let Some(events) = &mut self.events {
            events.push(Event {
                t: self.clock.now(),
                kind: EventKind::Recv,
                peer: src,
                bytes: env.bytes.len(),
                tag: env.tag,
            });
        }
        self.replay_record(src, env.tag, env.seq, env.checksum, env.bytes.len());
        env.bytes
    }

    /// Log a delivered envelope's coordinates into the replay ring (when
    /// one is installed) and charge the bounded-ring write on this rank's
    /// clock — recovery logging is not free.
    fn replay_record(&mut self, src: usize, tag: u64, seq: u64, checksum: Option<u64>, len: usize) {
        let Some(log) = &self.replay else { return };
        log.record(
            self.rank,
            crate::replay::ReplayEntry { src, tag, seq, checksum: checksum.unwrap_or(0), len },
        );
        let dt = crate::replay::ReplayLog::WRITE_OPS as f64 * self.spec.compute.sec_per_op
            / self.spec.speed(self.rank);
        self.clock.advance_compute(dt);
    }

    /// Drop this rank's replay-ring entries: the checkpoint that was just
    /// published covers everything delivered so far, so none of it can
    /// need replaying. No-op when no log is installed.
    pub fn replay_truncate(&mut self) {
        if let Some(log) = &self.replay {
            log.truncate(self.rank);
        }
    }

    /// Typed send of an `f64` slice.
    pub fn send_f64s(&mut self, dst: usize, tag: u64, values: &[f64]) {
        self.send_bytes(dst, tag, encode_f64s(values));
    }

    /// Typed receive of an `f64` vector.
    pub fn recv_f64s(&mut self, src: usize, tag: u64) -> Vec<f64> {
        let env = self.pull_envelope(src, tag);
        let seq = env.seq;
        let bytes = self.accept(src, env);
        match decode_f64s(&bytes) {
            Ok(v) => v,
            Err(cause) => {
                self.fail(SimError::PayloadCorrupt { rank: self.rank, from: src, seq, cause })
            }
        }
    }

    /// Typed send of a `u64` slice.
    pub fn send_u64s(&mut self, dst: usize, tag: u64, values: &[u64]) {
        self.send_bytes(dst, tag, encode_u64s(values));
    }

    /// Typed receive of a `u64` vector.
    pub fn recv_u64s(&mut self, src: usize, tag: u64) -> Vec<u64> {
        let env = self.pull_envelope(src, tag);
        let seq = env.seq;
        let bytes = self.accept(src, env);
        match decode_u64s(&bytes) {
            Ok(v) => v,
            Err(cause) => {
                self.fail(SimError::PayloadCorrupt { rank: self.rank, from: src, seq, cause })
            }
        }
    }

    /// Non-blocking send of an `f64` slice. The message departs
    /// immediately (buffered, like [`Comm::send_f64s`]); the returned
    /// request completes at once, so `wait` never blocks — it exists to
    /// keep the post/wait protocol uniform across operation kinds.
    pub fn isend_f64s(&mut self, dst: usize, tag: u64, values: &[f64]) -> Request {
        self.send_f64s(dst, tag, values);
        let now = self.clock.now();
        Request {
            rank: self.rank,
            kind: ReqKind::Send,
            window_start: now,
            completion: now,
            done: false,
        }
    }

    /// Post a non-blocking receive of an `f64` vector from `src` with
    /// `tag`. The receive-side endpoint overhead (LogGP `o`) is charged on
    /// the CPU clock *now*; the message's wire time then elapses
    /// concurrently with subsequent [`Comm::work`]. The matching
    /// [`Comm::wait`] returns `Some(values)` after blocking only for
    /// whatever wire time was not hidden.
    pub fn irecv_f64s(&mut self, src: usize, tag: u64) -> Request {
        assert!(src < self.size, "irecv from rank {src} but size is {}", self.size);
        self.check_abort();
        self.fault_checkpoint();
        self.clock.advance_comm(self.spec.network.overhead);
        let now = self.clock.now();
        Request {
            rank: self.rank,
            kind: ReqKind::Recv { src, tag },
            window_start: now,
            completion: now, // provisional: the envelope carries the real one
            done: false,
        }
    }

    /// Retire a non-blocking request: advance the virtual clock over the
    /// operation's *exposed* remainder (idle), credit the portion that
    /// already elapsed behind other work to the overlap shadow accounting,
    /// and — for receives — deliver the payload (`Some`); sends and
    /// collectives return `None`.
    ///
    /// Waiting on a request twice fails the run with
    /// [`SimError::RequestMisuse`] naming this rank.
    pub fn wait(&mut self, req: &mut Request) -> Option<Vec<f64>> {
        if req.done {
            self.fail(SimError::RequestMisuse {
                rank: self.rank,
                detail: format!(
                    "request posted at t={:.9}s waited twice (kind {:?})",
                    req.window_start, req.kind
                ),
            });
        }
        req.done = true;
        match req.kind {
            ReqKind::Send | ReqKind::Coll => {
                self.finish_window(req.window_start, req.completion);
                None
            }
            ReqKind::Recv { src, tag } => {
                let env = self.pull_envelope(src, tag);
                let transit = self.spec.transit(env.bytes.len(), src, self.rank);
                let completion = (env.depart + transit).max(req.window_start);
                req.completion = completion;
                self.integrity_check(src, &env, completion);
                self.finish_window(req.window_start, completion);
                // Count the receive where it completes. Endpoint overhead
                // was already charged at post, so none is charged here.
                self.stats.msgs_recvd += 1;
                self.stats.bytes_recvd += env.bytes.len() as u64;
                let cur = self.clock.current_phase();
                self.phase_counters[cur].msgs_recvd += 1;
                self.phase_counters[cur].bytes_recvd += env.bytes.len() as u64;
                if let Some(events) = &mut self.events {
                    events.push(Event {
                        t: self.clock.now(),
                        kind: EventKind::Recv,
                        peer: src,
                        bytes: env.bytes.len(),
                        tag: env.tag,
                    });
                }
                self.replay_record(src, env.tag, env.seq, env.checksum, env.bytes.len());
                match decode_f64s(&env.bytes) {
                    Ok(v) => Some(v),
                    Err(cause) => self.fail(SimError::PayloadCorrupt {
                        rank: self.rank,
                        from: src,
                        seq: env.seq,
                        cause,
                    }),
                }
            }
        }
    }

    /// Retire every request in order, collecting each `wait`'s result.
    pub fn waitall(&mut self, reqs: &mut [Request]) -> Vec<Option<Vec<f64>>> {
        reqs.iter_mut().map(|r| self.wait(r)).collect()
    }

    /// Split a completed overlap window `[window_start, completion]` into
    /// its hidden part (elapsed behind other work since the post — shadow
    /// accounting) and its exposed remainder (charged as idle).
    fn finish_window(&mut self, window_start: f64, completion: f64) {
        let now = self.clock.now();
        let hidden = (completion.min(now) - window_start).max(0.0);
        self.clock.add_overlap(hidden);
        self.clock.wait_until(completion);
    }

    /// Snapshot the clock's idle accumulator before a non-blocking
    /// collective's eager data movement (see [`Comm::nb_retract`]).
    pub(crate) fn nb_idle_snapshot(&self) -> f64 {
        self.clock.idle()
    }

    /// Turn an eagerly-executed collective into a non-blocking request.
    ///
    /// The caller ran the full blocking movement (so buffers, messages,
    /// fingerprints, and replication hashes are exactly those of the
    /// blocking call); this retracts the idle the movement charged —
    /// leaving endpoint overhead on the CPU clock per LogGP — and records
    /// the as-if-blocking finish as the request's completion, clamped to
    /// the FIFO horizon of earlier posts.
    pub(crate) fn nb_retract(&mut self, idle_before: f64) -> Request {
        let finish = self.clock.now();
        let idle_delta = self.clock.idle() - idle_before;
        self.clock.retract_idle(idle_delta);
        let completion = finish.max(self.nb_horizon);
        self.nb_horizon = completion;
        Request {
            rank: self.rank,
            kind: ReqKind::Coll,
            window_start: self.clock.now(),
            completion,
            done: false,
        }
    }

    /// Snapshot of this rank's statistics with the clock folded in.
    pub fn stats(&self) -> RankStats {
        let mut s = self.stats.clone();
        s.elapsed = self.clock.now();
        s.compute = self.clock.compute();
        s.comm = self.clock.comm();
        s.idle = self.clock.idle();
        s.hidden_comm = self.clock.overlap();
        s.phases = self
            .phase_names
            .iter()
            .zip(self.clock.phase_times())
            .zip(&self.phase_counters)
            .map(|((name, t), c)| PhaseStats {
                name: name.clone(),
                compute: t.compute,
                comm: t.comm,
                idle: t.idle,
                hidden_comm: t.overlap,
                msgs_sent: c.msgs_sent,
                bytes_sent: c.bytes_sent,
                msgs_recvd: c.msgs_recvd,
                bytes_recvd: c.bytes_recvd,
                collectives: c.collectives,
            })
            .collect();
        s
    }

    /// Take the recorded event trace (empty when tracing was disabled).
    pub(crate) fn take_events(&mut self) -> Vec<Event> {
        self.events.take().unwrap_or_default()
    }

    /// Whether replication-invariant hashing is enabled for this run.
    /// Lets callers skip assembling a flattened buffer for
    /// [`verify_replicated`](Self::verify_replicated) when it is off.
    pub fn checks_replication(&self) -> bool {
        self.verify.as_ref().is_some_and(|v| v.opts().check_replication)
    }

    /// Assert that `data` is bitwise identical on every rank.
    ///
    /// Must be called by **all** ranks, in the same program order (like a
    /// collective); each call hashes the local buffer and cross-checks the
    /// digest against the other ranks'. A mismatch fails the run with
    /// [`SimError::ReplicationDivergence`] naming the diverging ranks and
    /// hashes. No-op (beyond one branch) unless
    /// [`crate::verify::VerifyOptions::check_replication`] is enabled, so
    /// calls can stay in production code paths.
    pub fn verify_replicated(&mut self, label: &str, data: &[f64]) {
        self.repl_seq += 1;
        self.check_replicated_in(USER_REPL_COMM, self.repl_seq, self.size, label, data);
    }

    /// Split the world communicator by color: ranks passing equal colors
    /// form a group. Collective over the world communicator.
    pub fn split(&mut self, color: u32) -> SubComm<'_> {
        Group::split_world(self, color)
    }
}

impl PointToPoint for Comm {
    fn rank(&self) -> usize {
        self.rank
    }
    fn size(&self) -> usize {
        self.size
    }
    fn machine(&self) -> &MachineSpec {
        &self.spec
    }
    fn send_f64s(&mut self, dst: usize, tag: u64, values: &[f64]) {
        Comm::send_f64s(self, dst, tag, values);
    }
    fn recv_f64s(&mut self, src: usize, tag: u64) -> Vec<f64> {
        Comm::recv_f64s(self, src, tag)
    }
    fn coll_enter(&mut self, fp: CollFingerprint) -> u64 {
        self.coll_seq += 1;
        self.stats.collectives += 1;
        self.phase_counters[self.clock.current_phase()].collectives += 1;
        self.check_collective_in(WORLD_COMM, self.coll_seq, self.size, fp);
        COLL_TAG_BASE + self.coll_seq
    }
    fn check_replicated_result(&mut self, label: &str, buf: &[f64]) {
        self.check_replicated_in(WORLD_COMM, self.coll_seq, self.size, label, buf);
    }
    fn mismatch(&self, detail: String) -> ! {
        self.fail(SimError::CollectiveMismatch { rank: self.rank, detail })
    }
}

impl GroupHost for Comm {
    fn coll_seq(&self) -> u64 {
        self.coll_seq
    }
    fn check_collective_in(&mut self, comm_id: u64, seq: u64, group: usize, fp: CollFingerprint) {
        let Some(v) = &self.verify else { return };
        if v.opts().check_collectives {
            if let Err(e) = v.check_collective(self.rank, comm_id, seq, group, fp) {
                self.fail(e);
            }
        }
    }
    fn check_replicated_in(
        &mut self,
        comm_id: u64,
        seq: u64,
        group: usize,
        label: &str,
        buf: &[f64],
    ) {
        let Some(v) = &self.verify else { return };
        if v.opts().check_replication {
            if let Err(e) =
                v.check_replication(self.rank, comm_id, seq, group, label, hash_f64s(buf))
            {
                self.fail(e);
            }
        }
    }
}
