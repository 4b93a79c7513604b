//! The per-rank native communicator: typed point-to-point messaging over
//! `mpsc` channels, tag-matched with a per-source stash, plus wall-clock
//! phase attribution feeding the same [`RankStats`] shapes the simulator
//! reports.
//!
//! # Timing model
//!
//! Where `mpsim` *charges* virtual time, this backend *measures* real
//! time. Every communication entry point closes the open interval since
//! the previous one and books it as **compute** in the current phase
//! bucket (whatever the rank did between comm calls was its own code);
//! the body of a send (serialize + enqueue) is booked as **comm**, and
//! time spent blocked inside a receive is booked as **idle** — waiting on
//! a peer is the native analogue of the simulator's wire-wait. The
//! buckets therefore partition elapsed wall time exactly like the
//! simulated clock's do: `Σ phases[i].total() == elapsed`.
//!
//! [`NativeComm::work`] is a timing no-op: the real kernel already ran on
//! this thread and its duration lands in the compute bucket implicitly.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mpsim::collectives::{self, COLL_TAG_BASE};
use mpsim::error::SimError;
use mpsim::traits::CommError;
use mpsim::verify::{USER_REPL_COMM, WORLD_COMM};
use mpsim::{
    AllreduceAlgo, CollFingerprint, Communicator, Group, GroupHost, MachineSpec, PhaseStats,
    PointToPoint, RankStats, ReduceOp, DEFAULT_PHASE,
};

/// How long a blocked receive sleeps per poll before re-checking the
/// abort flag and its deadline.
const RECV_SLICE: Duration = Duration::from_millis(10);

/// A typed message between ranks: `f64` payloads travel verbatim (no
/// byte codec — both endpoints share an address space), so bit patterns
/// are preserved trivially.
#[derive(Debug)]
pub(crate) struct Msg {
    pub tag: u64,
    pub values: Vec<f64>,
}

/// Panic payload carrying a typed [`CommError`] out of a rank thread;
/// `run_native` catches and classifies it, so backend failures surface
/// as errors, never as raw panics.
pub(crate) struct NativeAbort(pub CommError);

/// Cross-rank registry asserting that replicated values are bitwise
/// identical on every rank, mirroring the simulator's replication
/// verifier: the first rank to post a `(comm, seq, label)` key stores
/// its hash, later ranks compare, and the slot is retired once the whole
/// group has posted.
pub(crate) struct ReplCheck {
    slots: Mutex<ReplSlots>,
}

/// `(comm_id, seq)` → (label, first poster's hash, ranks posted so far).
type ReplSlots = std::collections::BTreeMap<(u64, u64), (String, u64, usize)>;

impl ReplCheck {
    pub(crate) fn new() -> Self {
        ReplCheck { slots: Mutex::new(std::collections::BTreeMap::new()) }
    }

    /// Post `hash` as this rank's digest for slot `(comm, seq)`; `group`
    /// ranks are expected in total.
    pub(crate) fn check(
        &self,
        rank: usize,
        comm: u64,
        seq: u64,
        group: usize,
        label: &str,
        hash: u64,
    ) -> Result<(), CommError> {
        let mut slots = match self.slots.lock() {
            Ok(g) => g,
            Err(_) => {
                return Err(CommError::Poisoned {
                    rank,
                    detail: "replication registry (another rank panicked mid-check)".into(),
                })
            }
        };
        let entry = slots.entry((comm, seq)).or_insert_with(|| (label.to_string(), hash, 0usize));
        if entry.0 != label || entry.1 != hash {
            return Err(CommError::Replication {
                rank,
                label: label.to_string(),
                detail: format!(
                    "hash {:#018x} (label {:?}) != first poster's {:#018x} (label {:?})",
                    hash, label, entry.1, entry.0
                ),
            });
        }
        entry.2 += 1;
        if entry.2 >= group {
            slots.remove(&(comm, seq));
        }
        Ok(())
    }
}

/// Wall-clock time and traffic attributed to one phase bucket.
#[derive(Debug, Clone, Default)]
pub(crate) struct Bucket {
    pub compute: f64,
    pub comm: f64,
    pub idle: f64,
    pub msgs_sent: u64,
    pub bytes_sent: u64,
    pub msgs_recvd: u64,
    pub bytes_recvd: u64,
    pub collectives: u64,
}

/// What a pending [`NativeReq`] still has to do at wait time.
#[derive(Debug)]
pub(crate) enum ReqKind {
    /// Already complete (sends run eagerly; non-blocking collectives run
    /// their data movement at post, like the simulator's).
    Ready,
    /// A posted receive; the wait pulls the matching message.
    Recv { src: usize, tag: u64 },
}

/// Handle for a non-blocking operation on the native backend. Must be
/// retired by exactly one [`NativeComm::wait`] / [`NativeComm::waitall`];
/// dropping an unwaited request panics (same contract as the simulator's
/// [`mpsim::Request`]).
#[must_use = "non-blocking requests must be waited"]
#[derive(Debug)]
pub struct NativeReq {
    pub(crate) rank: usize,
    pub(crate) kind: ReqKind,
    pub(crate) done: bool,
}

impl Drop for NativeReq {
    fn drop(&mut self) {
        if !self.done && !std::thread::panicking() {
            panic!("rank {}: non-blocking request dropped without wait", self.rank);
        }
    }
}

/// One rank's endpoint of the native shared-memory machine: the
/// wall-clock implementor of [`mpsim::Communicator`].
pub struct NativeComm {
    rank: usize,
    size: usize,
    machine: MachineSpec,
    /// Start of this rank's body, origin of [`NativeComm::now`].
    start: Instant,
    /// End of the last interval already booked into a bucket.
    last_stamp: Instant,
    /// `senders[dst]` enqueues into `dst`'s inbox from this rank.
    senders: Vec<Sender<Msg>>,
    /// `inboxes[src]` receives what `src` sent to this rank.
    inboxes: Vec<Receiver<Msg>>,
    /// Per-source out-of-order messages already drained from the channel.
    stash: Vec<VecDeque<Msg>>,
    pub(crate) abort: Arc<AtomicBool>,
    recv_timeout: Duration,
    /// Replication registry; `None` when checking is off.
    repl: Option<Arc<ReplCheck>>,
    /// Deterministic crash injection (see `NativeOptions::fault`).
    fault: Option<mpsim::FaultPlan>,
    /// Messages this rank has sent — the native send-sequence axis
    /// `FaultTrigger::AtSendSeq` counts along.
    send_seq: u64,
    coll_seq: u64,
    repl_seq: u64,
    phase_names: Vec<String>,
    buckets: Vec<Bucket>,
    phase_stack: Vec<usize>,
    cur_phase: usize,
}

impl NativeComm {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        rank: usize,
        size: usize,
        machine: MachineSpec,
        senders: Vec<Sender<Msg>>,
        inboxes: Vec<Receiver<Msg>>,
        abort: Arc<AtomicBool>,
        repl: Option<Arc<ReplCheck>>,
        recv_timeout: Duration,
        fault: Option<mpsim::FaultPlan>,
    ) -> Self {
        let now = Instant::now();
        NativeComm {
            rank,
            size,
            machine,
            start: now,
            last_stamp: now,
            senders,
            stash: (0..size).map(|_| VecDeque::new()).collect(),
            inboxes,
            abort,
            recv_timeout,
            repl,
            fault,
            send_seq: 0,
            coll_seq: 0,
            repl_seq: 0,
            phase_names: vec![DEFAULT_PHASE.to_string()],
            buckets: vec![Bucket::default()],
            phase_stack: Vec::new(),
            cur_phase: 0,
        }
    }

    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The machine description this native run is being compared against.
    /// Only its *decision* surface matters here — algorithm selection
    /// (`allreduce`, `network` for `Auto`) — so both backends take
    /// identical branches; its timing parameters predict nothing about
    /// real silicon.
    pub fn machine(&self) -> &MachineSpec {
        &self.machine
    }

    /// Wall-clock seconds since this rank's body started.
    pub fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Timing no-op: real compute is measured implicitly (the kernel
    /// already ran on this thread; its duration lands in the current
    /// phase's compute bucket at the next comm call). Kept so SPMD
    /// bodies written against the simulator run unchanged.
    pub fn work(&mut self, _ops: u64) {}

    /// Raise a typed backend failure: flag the abort (so peers blocked in
    /// receives fail fast instead of timing out) and unwind with the
    /// error as payload for `run_native` to classify.
    pub(crate) fn fail(&self, e: CommError) -> ! {
        self.abort.store(true, Ordering::SeqCst);
        std::panic::panic_any(NativeAbort(e));
    }

    // ---- wall-clock bookkeeping -------------------------------------

    /// Book the open interval since `last_stamp` as compute in the
    /// current phase (the rank was running its own code).
    pub(crate) fn stamp_compute(&mut self) {
        let now = Instant::now();
        self.buckets[self.cur_phase].compute += now.duration_since(self.last_stamp).as_secs_f64();
        self.last_stamp = now;
    }

    /// Book the open interval as communication endpoint work.
    fn stamp_comm(&mut self) {
        let now = Instant::now();
        self.buckets[self.cur_phase].comm += now.duration_since(self.last_stamp).as_secs_f64();
        self.last_stamp = now;
    }

    /// Book the open interval as idle (blocked waiting on a peer).
    fn stamp_idle(&mut self) {
        let now = Instant::now();
        self.buckets[self.cur_phase].idle += now.duration_since(self.last_stamp).as_secs_f64();
        self.last_stamp = now;
    }

    /// Open a named phase span; same nesting semantics as
    /// [`mpsim::Comm::enter_phase`].
    pub fn enter_phase(&mut self, name: &str) {
        self.stamp_compute();
        let idx = match self.phase_names.iter().position(|n| n == name) {
            Some(i) => i,
            None => {
                self.phase_names.push(name.to_string());
                self.buckets.push(Bucket::default());
                self.phase_names.len() - 1
            }
        };
        self.phase_stack.push(idx);
        self.cur_phase = idx;
    }

    /// Close the innermost open phase span.
    pub fn exit_phase(&mut self) {
        self.stamp_compute();
        self.phase_stack.pop();
        self.cur_phase = self.phase_stack.last().copied().unwrap_or(0);
    }

    /// Snapshot this rank's statistics in the same shape the simulator
    /// reports: per-phase buckets (synthetic `"other"` first) that
    /// partition elapsed wall time.
    pub fn stats(&mut self) -> RankStats {
        self.stamp_compute();
        let phases: Vec<PhaseStats> = self
            .phase_names
            .iter()
            .zip(&self.buckets)
            .map(|(name, b)| PhaseStats {
                name: name.clone(),
                compute: b.compute,
                comm: b.comm,
                idle: b.idle,
                hidden_comm: 0.0,
                msgs_sent: b.msgs_sent,
                bytes_sent: b.bytes_sent,
                msgs_recvd: b.msgs_recvd,
                bytes_recvd: b.bytes_recvd,
                collectives: b.collectives,
            })
            .collect();
        RankStats {
            rank: self.rank,
            elapsed: self.last_stamp.duration_since(self.start).as_secs_f64(),
            compute: phases.iter().map(|p| p.compute).sum(),
            comm: phases.iter().map(|p| p.comm).sum(),
            idle: phases.iter().map(|p| p.idle).sum(),
            hidden_comm: 0.0,
            msgs_sent: phases.iter().map(|p| p.msgs_sent).sum(),
            bytes_sent: phases.iter().map(|p| p.bytes_sent).sum(),
            msgs_recvd: phases.iter().map(|p| p.msgs_recvd).sum(),
            bytes_recvd: phases.iter().map(|p| p.bytes_recvd).sum(),
            collectives: self.coll_seq,
            phases,
        }
    }

    // ---- point-to-point ---------------------------------------------

    /// Blocking typed send. Buffered (the channel is unbounded), so
    /// send-then-recv exchange patterns cannot deadlock — the same
    /// guarantee the simulator's buffered sends give the collective
    /// schedules.
    pub fn send_f64s(&mut self, dst: usize, tag: u64, values: &[f64]) {
        self.stamp_compute();
        // Same injection point as the simulated transport: a due crash
        // fires at the send boundary, before any bytes move, so peers see
        // a vanished rank rather than a half-delivered collective.
        if let Some(plan) = &self.fault {
            if plan.crash_now(self.rank, self.send_seq, self.start.elapsed().as_secs_f64()) {
                let phase = self.phase_names[self.cur_phase].clone();
                self.fail(CommError::Sim(SimError::RankCrashed {
                    rank: self.rank,
                    seq: self.send_seq + 1,
                    phase,
                }));
            }
        }
        self.send_seq += 1;
        if dst >= self.size {
            self.fail(CommError::Sim(SimError::InvalidMachine(format!(
                "rank {}: send to nonexistent rank {dst}",
                self.rank
            ))));
        }
        let b = &mut self.buckets[self.cur_phase];
        b.msgs_sent += 1;
        b.bytes_sent += (values.len() * 8) as u64;
        if self.senders[dst].send(Msg { tag, values: values.to_vec() }).is_err() {
            self.fail(CommError::Disconnected {
                rank: self.rank,
                peer: dst,
                detail: format!("send of tag {tag} found the peer's inbox closed"),
            });
        }
        self.stamp_comm();
    }

    /// Blocking typed receive of the message from `src` carrying `tag`.
    /// Time spent blocked is booked as idle in the current phase.
    pub fn recv_f64s(&mut self, src: usize, tag: u64) -> Vec<f64> {
        self.stamp_compute();
        let msg = self.pull(src, tag);
        let b = &mut self.buckets[self.cur_phase];
        b.msgs_recvd += 1;
        b.bytes_recvd += (msg.values.len() * 8) as u64;
        self.stamp_idle();
        msg.values
    }

    /// Drain `src`'s channel until the message tagged `tag` appears,
    /// stashing out-of-order messages. Fails typed: abort flag →
    /// `Aborted`, closed channel → `Disconnected`, deadline →
    /// `Timeout`.
    fn pull(&mut self, src: usize, tag: u64) -> Msg {
        if src >= self.size {
            self.fail(CommError::Sim(SimError::InvalidMachine(format!(
                "rank {}: recv from nonexistent rank {src}",
                self.rank
            ))));
        }
        if let Some(pos) = self.stash[src].iter().position(|m| m.tag == tag) {
            if let Some(m) = self.stash[src].remove(pos) {
                return m;
            }
        }
        let deadline = Instant::now() + self.recv_timeout;
        loop {
            if self.abort.load(Ordering::SeqCst) {
                self.fail(CommError::Sim(SimError::Aborted { rank: self.rank }));
            }
            match self.inboxes[src].recv_timeout(RECV_SLICE) {
                Ok(m) if m.tag == tag => return m,
                Ok(m) => self.stash[src].push_back(m),
                Err(RecvTimeoutError::Timeout) => {
                    if Instant::now() >= deadline {
                        self.fail(CommError::Timeout { rank: self.rank, from: src, tag });
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    self.fail(CommError::Disconnected {
                        rank: self.rank,
                        peer: src,
                        detail: format!("peer's thread is gone while waiting for tag {tag}"),
                    });
                }
            }
        }
    }

    // ---- non-blocking -----------------------------------------------

    /// Non-blocking send. Data moves eagerly (the channel buffers), so
    /// the returned request is already complete; it must still be waited
    /// to satisfy the request discipline.
    pub fn isend_f64s(&mut self, dst: usize, tag: u64, values: &[f64]) -> NativeReq {
        self.send_f64s(dst, tag, values);
        NativeReq { rank: self.rank, kind: ReqKind::Ready, done: false }
    }

    /// Post a non-blocking receive; the matching [`NativeComm::wait`]
    /// pulls the payload.
    pub fn irecv_f64s(&mut self, src: usize, tag: u64) -> NativeReq {
        NativeReq { rank: self.rank, kind: ReqKind::Recv { src, tag }, done: false }
    }

    /// Retire a request. Receives return `Some(payload)`; completed
    /// sends and collectives return `None`. Waiting twice is a typed
    /// error, as on the simulator.
    pub fn wait(&mut self, req: &mut NativeReq) -> Option<Vec<f64>> {
        if req.done {
            self.fail(CommError::Request {
                rank: self.rank,
                detail: "request waited twice".into(),
            });
        }
        req.done = true;
        match req.kind {
            ReqKind::Ready => None,
            ReqKind::Recv { src, tag } => {
                self.stamp_compute();
                let msg = self.pull(src, tag);
                let b = &mut self.buckets[self.cur_phase];
                b.msgs_recvd += 1;
                b.bytes_recvd += (msg.values.len() * 8) as u64;
                self.stamp_idle();
                Some(msg.values)
            }
        }
    }

    /// Retire every request in order, collecting each wait's result.
    pub fn waitall(&mut self, reqs: &mut [NativeReq]) -> Vec<Option<Vec<f64>>> {
        reqs.iter_mut().map(|r| self.wait(r)).collect()
    }

    // ---- replication checking ---------------------------------------

    /// Whether replication-invariant hashing is enabled for this run.
    pub fn checks_replication(&self) -> bool {
        self.repl.is_some()
    }

    /// Assert that `data` is bitwise identical on every rank. Collective
    /// (all ranks must call it in the same order); no-op unless
    /// replication checking is enabled.
    pub fn verify_replicated(&mut self, label: &str, data: &[f64]) {
        self.repl_seq += 1;
        self.check_replicated_in(USER_REPL_COMM, self.repl_seq, self.size, label, data);
    }

    // ---- collectives: the shared schedules of `mpsim::collectives` ----

    /// Synchronize all ranks (dissemination barrier).
    pub fn barrier(&mut self) {
        collectives::barrier(self);
    }

    /// Broadcast `buf` from `root` to all ranks (binomial tree).
    pub fn broadcast_f64s(&mut self, root: usize, buf: &mut [f64]) {
        collectives::broadcast_f64s(self, root, buf);
    }

    /// Broadcast a single `u64` from `root`.
    pub fn broadcast_u64(&mut self, root: usize, value: u64) -> u64 {
        collectives::broadcast_u64(self, root, value)
    }

    /// Allreduce with the machine's default algorithm.
    pub fn allreduce_f64s(&mut self, buf: &mut [f64], op: ReduceOp) {
        let algo = self.machine.allreduce;
        collectives::allreduce_f64s_with(self, buf, op, algo);
    }

    /// Allreduce with an explicit algorithm. `Auto` resolves through the
    /// same pure selection function as the simulator — on the machine
    /// spec this run is compared against — so both backends dispatch to
    /// the same concrete schedule.
    pub fn allreduce_f64s_with(&mut self, buf: &mut [f64], op: ReduceOp, algo: AllreduceAlgo) {
        collectives::allreduce_f64s_with(self, buf, op, algo);
    }

    /// Allreduce of a single scalar; returns the reduced value.
    pub fn allreduce_scalar(&mut self, value: f64, op: ReduceOp) -> f64 {
        let mut buf = [value];
        self.allreduce_f64s(&mut buf, op);
        buf[0]
    }

    /// Non-blocking allreduce with the machine's default algorithm.
    pub fn iallreduce_f64s(&mut self, buf: &mut [f64], op: ReduceOp) -> NativeReq {
        let algo = self.machine.allreduce;
        self.iallreduce_f64s_with(buf, op, algo)
    }

    /// Non-blocking allreduce with an explicit algorithm. Like the
    /// simulator's, the data movement runs *eagerly*: on return `buf`
    /// already holds the reduction — bitwise identical to the blocking
    /// call — and the returned request is complete. The simulator defers
    /// only virtual wire time (hidden behind later `work`); on real
    /// silicon there is no deferred wire to hide, so the pipelined
    /// driver degenerates gracefully to its synchronous schedule.
    pub fn iallreduce_f64s_with(
        &mut self,
        buf: &mut [f64],
        op: ReduceOp,
        algo: AllreduceAlgo,
    ) -> NativeReq {
        collectives::allreduce_f64s_with(self, buf, op, algo);
        NativeReq { rank: self.rank, kind: ReqKind::Ready, done: false }
    }

    /// Gather each rank's vector to `root`, concatenated in rank order.
    pub fn gather_f64s(&mut self, root: usize, mine: &[f64]) -> Option<Vec<f64>> {
        collectives::gather_f64s(self, root, mine)
    }

    /// Allgather over a ring: `result[r]` is rank `r`'s contribution.
    pub fn allgather_f64s(&mut self, mine: &[f64]) -> Vec<Vec<f64>> {
        collectives::allgather_f64s(self, mine)
    }

    /// Split the world communicator by color: ranks passing equal colors
    /// form a group. Collective over the world communicator.
    pub fn split(&mut self, color: u32) -> NativeSubComm<'_> {
        Group::split_world(self, color)
    }
}

/// The native backend's group communicator.
pub type NativeSubComm<'a> = Group<'a, NativeComm>;

impl PointToPoint for NativeComm {
    fn rank(&self) -> usize {
        self.rank
    }
    fn size(&self) -> usize {
        self.size
    }
    fn machine(&self) -> &MachineSpec {
        &self.machine
    }
    fn send_f64s(&mut self, dst: usize, tag: u64, values: &[f64]) {
        NativeComm::send_f64s(self, dst, tag, values);
    }
    fn recv_f64s(&mut self, src: usize, tag: u64) -> Vec<f64> {
        NativeComm::recv_f64s(self, src, tag)
    }
    /// Count a collective in the current phase and allocate its tag. The
    /// native backend does not cross-check fingerprints.
    fn coll_enter(&mut self, _fp: CollFingerprint) -> u64 {
        self.coll_seq += 1;
        self.buckets[self.cur_phase].collectives += 1;
        COLL_TAG_BASE + self.coll_seq
    }
    fn check_replicated_result(&mut self, label: &str, buf: &[f64]) {
        self.check_replicated_in(WORLD_COMM, self.coll_seq, self.size, label, buf);
    }
    fn mismatch(&self, detail: String) -> ! {
        self.fail(CommError::Sim(SimError::CollectiveMismatch { rank: self.rank, detail }))
    }
}

impl GroupHost for NativeComm {
    fn coll_seq(&self) -> u64 {
        self.coll_seq
    }
    fn check_collective_in(&mut self, _: u64, _: u64, _: usize, _: CollFingerprint) {}
    fn check_replicated_in(
        &mut self,
        comm_id: u64,
        seq: u64,
        group: usize,
        label: &str,
        buf: &[f64],
    ) {
        let Some(repl) = self.repl.clone() else { return };
        let hash = mpsim::hash_f64s(buf);
        if let Err(e) = repl.check(self.rank, comm_id, seq, group, label, hash) {
            self.fail(e);
        }
    }
}

impl Communicator for NativeComm {
    type Req = NativeReq;
    type Group<'g> = NativeSubComm<'g>;

    fn now(&self) -> f64 {
        NativeComm::now(self)
    }
    fn work(&mut self, ops: u64) {
        NativeComm::work(self, ops);
    }
    fn enter_phase(&mut self, name: &str) {
        NativeComm::enter_phase(self, name);
    }
    fn exit_phase(&mut self) {
        NativeComm::exit_phase(self);
    }
    fn isend_f64s(&mut self, dst: usize, tag: u64, values: &[f64]) -> NativeReq {
        NativeComm::isend_f64s(self, dst, tag, values)
    }
    fn irecv_f64s(&mut self, src: usize, tag: u64) -> NativeReq {
        NativeComm::irecv_f64s(self, src, tag)
    }
    fn wait(&mut self, req: &mut NativeReq) -> Option<Vec<f64>> {
        NativeComm::wait(self, req)
    }
    fn iallreduce_f64s_with(
        &mut self,
        buf: &mut [f64],
        op: ReduceOp,
        algo: AllreduceAlgo,
    ) -> NativeReq {
        NativeComm::iallreduce_f64s_with(self, buf, op, algo)
    }
    fn checks_replication(&self) -> bool {
        NativeComm::checks_replication(self)
    }
    fn verify_replicated(&mut self, label: &str, data: &[f64]) {
        NativeComm::verify_replicated(self, label, data);
    }
    fn split(&mut self, color: u32) -> NativeSubComm<'_> {
        NativeComm::split(self, color)
    }
}
