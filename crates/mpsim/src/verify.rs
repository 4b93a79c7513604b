//! SPMD correctness verification: collective fingerprinting, wait-for-graph
//! deadlock detection, and replication-invariant hashing.
//!
//! A simulated SPMD program can go wrong in ways that a real MPI program
//! would only reveal as a hang or as silently wrong numbers: a rank calling
//! a different collective than its peers, a send/recv cycle, or a
//! supposedly replicated value drifting apart across ranks. This module
//! turns each of those into a precise, fast [`SimError`]:
//!
//! * **Collective fingerprinting** ([`VerifyOptions::check_collectives`]):
//!   every collective call posts a [`CollFingerprint`] — kind, root,
//!   reduction operator, element count — into a per-run registry keyed by
//!   `(communicator, sequence number)`. The first rank to arrive sets the
//!   reference; any later rank whose fingerprint differs fails the run
//!   immediately, naming both ranks and both calls.
//! * **Deadlock detection** ([`VerifyOptions::detect_deadlock`], on by
//!   default): every blocking receive registers which rank it waits on.
//!   The detector piggybacks on the receive polling loop and reports a
//!   [`SimError::Deadlock`] with the full wait-for graph as soon as it
//!   finds a cycle of quiescent waits, or a rank waiting on a peer whose
//!   body already returned — typically within one 25 ms polling slice
//!   instead of the 120 s receive timeout.
//! * **Replication hashing** ([`VerifyOptions::check_replication`]):
//!   allreduce and broadcast results — which the simulator guarantees to be
//!   bitwise identical on every rank — are hashed per rank and
//!   cross-checked; [`crate::Comm::verify_replicated`] extends the same
//!   check to any value the program asserts is replicated (P-AutoClass
//!   uses it on the model parameters across the EM loop).
//!
//! # Why the deadlock detector cannot false-positive
//!
//! An edge `r → s` ("r blocked receiving from s") is *quiescent* when `r`
//! has pulled every message `s` ever enqueued to it. Send counters are
//! bumped before the envelope enters the channel, and a rank's pull counter
//! and wait registration are updated under the same mutex the detector
//! locks, so a quiescent edge means there is genuinely nothing in flight.
//! A rank only registers as waiting *after* its preceding sends, so if the
//! detector sees every rank of a cycle registered and every edge quiescent,
//! none of them can ever be woken: that is a proof of deadlock, not a
//! timeout heuristic.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::collectives::ReduceOp;
use crate::error::SimError;

/// Lock a verifier mutex, recovering from poisoning: a rank that panics
/// (e.g. while aborting the run) may die holding a lock, and the detectors
/// on surviving ranks must keep working through the teardown rather than
/// cascade the panic.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Which verification layers run during an SPMD run (see
/// [`crate::SimOptions::verify`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyOptions {
    /// Cross-validate every collective call's fingerprint across ranks.
    pub check_collectives: bool,
    /// Detect send/recv cycles and waits on finished ranks; on by default
    /// (it costs nothing until a receive has already stalled for a slice).
    pub detect_deadlock: bool,
    /// Hash allreduce/broadcast results (and explicit
    /// [`crate::Comm::verify_replicated`] buffers) per rank and require
    /// bitwise identity.
    pub check_replication: bool,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        VerifyOptions { check_collectives: false, detect_deadlock: true, check_replication: false }
    }
}

impl VerifyOptions {
    /// Every check enabled.
    pub fn all() -> Self {
        VerifyOptions { check_collectives: true, detect_deadlock: true, check_replication: true }
    }

    /// Every check disabled (the fast path: no shared state is consulted).
    pub fn none() -> Self {
        VerifyOptions { check_collectives: false, detect_deadlock: false, check_replication: false }
    }

    pub(crate) fn any(&self) -> bool {
        self.check_collectives || self.detect_deadlock || self.check_replication
    }
}

/// The kind of collective a rank invoked (part of a [`CollFingerprint`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // variants mirror the Comm methods one-to-one
pub enum CollKind {
    Barrier,
    Broadcast,
    Reduce,
    Allreduce,
    Gather,
    Allgather,
    Scatter,
    Alltoall,
    Scan,
}

impl CollKind {
    /// Whether every rank must pass the same element count (gather-style
    /// collectives legitimately take different lengths per rank).
    fn uniform_len(self) -> bool {
        matches!(
            self,
            CollKind::Barrier
                | CollKind::Broadcast
                | CollKind::Reduce
                | CollKind::Allreduce
                | CollKind::Scan
        )
    }
}

/// What one rank claimed the collective at a given sequence number was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollFingerprint {
    /// Which collective was called.
    pub kind: CollKind,
    /// Root rank, for rooted collectives.
    pub root: Option<usize>,
    /// Reduction operator, for reductions.
    pub op: Option<ReduceOp>,
    /// Number of `f64` elements in the caller's buffer (compared only for
    /// collectives whose length must be uniform across ranks).
    pub elems: Option<usize>,
}

impl CollFingerprint {
    fn describe(&self) -> String {
        let mut s = format!("{:?}", self.kind);
        let mut args = Vec::new();
        if let Some(root) = self.root {
            args.push(format!("root={root}"));
        }
        if let Some(op) = self.op {
            args.push(format!("op={op:?}"));
        }
        if let Some(elems) = self.elems {
            args.push(format!("elems={elems}"));
        }
        if !args.is_empty() {
            s.push('(');
            s.push_str(&args.join(", "));
            s.push(')');
        }
        s
    }

    fn matches(&self, other: &CollFingerprint) -> bool {
        self.kind == other.kind
            && self.root == other.root
            && self.op == other.op
            && (!self.kind.uniform_len() || self.elems == other.elems)
    }
}

/// One blocked receive: the waiting rank's target and tag.
#[derive(Debug, Clone, Copy)]
struct Wait {
    on: usize,
    tag: u64,
}

/// Wait table and pull counters, kept under one mutex so the detector
/// always sees a consistent snapshot (see the module docs).
struct WaitTable {
    /// `waits[r]` is `Some` while rank `r` is blocked in `recv`.
    waits: Vec<Option<Wait>>,
    /// `pulled[dst][src]`: envelopes rank `dst` has taken off its channel
    /// from `src` (whether or not the tag matched).
    pulled: Vec<Vec<u64>>,
}

/// First poster's claim for one `(comm, seq)` slot of the registry.
struct Slot<T> {
    value: T,
    first_rank: usize,
    posted: usize,
    expected: usize,
}

/// A registry of first-poster claims, keyed by `(communicator, sequence)`.
type SlotRegistry<T> = Mutex<BTreeMap<(u64, u64), Slot<T>>>;

/// Shared verification state for one SPMD run.
pub(crate) struct VerifyState {
    opts: VerifyOptions,
    /// `sent[src][dst]`: envelopes `src` has enqueued toward `dst`,
    /// counted before the envelope enters the channel.
    sent: Vec<Vec<AtomicU64>>,
    /// Ranks whose body returned normally.
    done: Vec<AtomicBool>,
    table: Mutex<WaitTable>,
    fingerprints: SlotRegistry<CollFingerprint>,
    /// Replication hashes; the value carries (hash, label).
    hashes: SlotRegistry<(u64, String)>,
}

/// Communicator id of the world communicator in the verification registry.
pub const WORLD_COMM: u64 = 0;
/// Communicator id for user-level [`crate::Comm::verify_replicated`] calls.
pub const USER_REPL_COMM: u64 = u64::MAX;

impl VerifyState {
    pub(crate) fn new(p: usize, opts: VerifyOptions) -> Self {
        VerifyState {
            opts,
            sent: (0..p).map(|_| (0..p).map(|_| AtomicU64::new(0)).collect()).collect(),
            done: (0..p).map(|_| AtomicBool::new(false)).collect(),
            table: Mutex::new(WaitTable { waits: vec![None; p], pulled: vec![vec![0; p]; p] }),
            fingerprints: Mutex::new(BTreeMap::new()),
            hashes: Mutex::new(BTreeMap::new()),
        }
    }

    pub(crate) fn opts(&self) -> &VerifyOptions {
        &self.opts
    }

    /// Note that `rank`'s body returned; any rank still blocked on it can
    /// now be diagnosed. Ordering: the SeqCst store happens after all of
    /// the rank's sends, so a detector that reads `done == true` also sees
    /// the final send counters.
    pub(crate) fn mark_done(&self, rank: usize) {
        self.done[rank].store(true, Ordering::SeqCst);
    }

    /// Count an envelope about to be enqueued from `src` to `dst`.
    pub(crate) fn record_send(&self, src: usize, dst: usize) {
        self.sent[src][dst].fetch_add(1, Ordering::SeqCst);
    }

    /// Undo a [`record_send`](Self::record_send) whose envelope never made
    /// it into the channel (the receiver was already gone): the bytes were
    /// never visible, so no receiver can have pulled them.
    pub(crate) fn unrecord_send(&self, src: usize, dst: usize) {
        self.sent[src][dst].fetch_sub(1, Ordering::SeqCst);
    }

    /// Count an envelope pulled off `dst`'s channel from `src`; when its
    /// tag matched the blocked receive, the wait registration is cleared in
    /// the same critical section (so the detector can never see a consumed
    /// message alongside a stale wait).
    pub(crate) fn record_pull(&self, dst: usize, src: usize, matched: bool) {
        let mut t = lock(&self.table);
        t.pulled[dst][src] += 1;
        if matched {
            t.waits[dst] = None;
        }
    }

    /// Register that `rank` is entering a blocking receive on `on`.
    pub(crate) fn register_wait(&self, rank: usize, on: usize, tag: u64) {
        let mut t = lock(&self.table);
        t.waits[rank] = Some(Wait { on, tag });
    }

    /// Clear `rank`'s wait registration (timeout/failure exit paths).
    pub(crate) fn clear_wait(&self, rank: usize) {
        let mut t = lock(&self.table);
        t.waits[rank] = None;
    }

    /// Look for a provable deadlock involving `me` (called from the receive
    /// polling loop after a slice elapsed with no message). Returns the
    /// error to raise, or `None` if progress is still possible.
    pub(crate) fn scan_for_deadlock(&self, me: usize) -> Option<SimError> {
        let t = lock(&self.table);
        let p = t.waits.len();
        // Quiescent edge: nothing in flight from the wait target. Reading
        // `sent` after locking the table is safe because a registered
        // waiter's sends all precede its registration (see module docs).
        let quiescent =
            |r: usize, w: &Wait| t.pulled[r][w.on] == self.sent[w.on][r].load(Ordering::SeqCst);

        let render = |t: &WaitTable| -> String {
            let edges: Vec<String> = t
                .waits
                .iter()
                .enumerate()
                .filter_map(|(r, w)| {
                    w.as_ref().map(|w| {
                        let state = if self.done[w.on].load(Ordering::SeqCst) {
                            " [finished]"
                        } else if quiescent(r, w) {
                            ""
                        } else {
                            " [message in flight]"
                        };
                        format!("rank {r} waits on rank {}{state} (tag {:#x})", w.on, w.tag)
                    })
                })
                .collect();
            format!("wait-for graph: {}", edges.join("; "))
        };

        // Case 1: some rank waits (quiescently) on a rank that finished.
        for (r, w) in t.waits.iter().enumerate() {
            if let Some(w) = w {
                if self.done[w.on].load(Ordering::SeqCst) && quiescent(r, w) {
                    return Some(SimError::Deadlock {
                        rank: me,
                        cycle: Vec::new(),
                        detail: format!(
                            "rank {r} waits on rank {} which already finished; {}",
                            w.on,
                            render(&t)
                        ),
                    });
                }
            }
        }

        // Case 2: a cycle of quiescent waits. Follow the successor function
        // from each rank; a walk of length > p must have closed a cycle.
        let step = |r: usize| -> Option<usize> {
            t.waits[r].as_ref().filter(|w| quiescent(r, w)).map(|w| w.on)
        };
        let mut cur = me;
        let mut path = vec![me];
        while let Some(next) = step(cur) {
            if let Some(pos) = path.iter().position(|&r| r == next) {
                let cycle = path[pos..].to_vec();
                return Some(SimError::Deadlock { rank: me, cycle, detail: render(&t) });
            }
            path.push(next);
            cur = next;
            if path.len() > p {
                break; // unreachable: a repeat must occur first
            }
        }
        None
    }

    /// Post `fp` as `world_rank`'s claim for collective number `seq` on
    /// communicator `comm` (`expected` = number of ranks that will post).
    pub(crate) fn check_collective(
        &self,
        world_rank: usize,
        comm: u64,
        seq: u64,
        expected: usize,
        fp: CollFingerprint,
    ) -> Result<(), SimError> {
        let mut reg = lock(&self.fingerprints);
        post(&mut reg, world_rank, comm, seq, expected, fp, |mine, slot| {
            mine.matches(&slot.value).then_some(()).ok_or_else(|| SimError::CollectiveDivergence {
                rank: world_rank,
                seq,
                detail: format!(
                    "rank {} called {} but rank {} called {}{}",
                    slot.first_rank,
                    slot.value.describe(),
                    world_rank,
                    mine.describe(),
                    if comm == WORLD_COMM { String::new() } else { format!(" (comm {comm:#x})") },
                ),
            })
        })
    }

    /// Post `hash` as `world_rank`'s digest of a value that must be
    /// bitwise identical on all `expected` ranks of `comm`.
    pub(crate) fn check_replication(
        &self,
        world_rank: usize,
        comm: u64,
        seq: u64,
        expected: usize,
        label: &str,
        hash: u64,
    ) -> Result<(), SimError> {
        let mut reg = lock(&self.hashes);
        post(&mut reg, world_rank, comm, seq, expected, (hash, label.to_string()), |mine, slot| {
            (mine.0 == slot.value.0 && mine.1 == slot.value.1).then_some(()).ok_or_else(|| {
                SimError::ReplicationDivergence {
                    rank: world_rank,
                    seq,
                    detail: format!(
                        "\"{}\" hashed {:#018x} on rank {} but \"{}\" hashed {:#018x} on rank {}",
                        slot.value.1, slot.value.0, slot.first_rank, mine.1, mine.0, world_rank,
                    ),
                }
            })
        })
    }
}

/// Post a value into a `(comm, seq)` slot registry: the first poster sets
/// the reference, later posters are compared against it by `check`, and the
/// slot is garbage-collected once all expected ranks have posted.
fn post<T: Clone, F>(
    reg: &mut BTreeMap<(u64, u64), Slot<T>>,
    rank: usize,
    comm: u64,
    seq: u64,
    expected: usize,
    value: T,
    check: F,
) -> Result<(), SimError>
where
    F: FnOnce(&T, &Slot<T>) -> Result<(), SimError>,
{
    match reg.get_mut(&(comm, seq)) {
        None => {
            reg.insert((comm, seq), Slot { value, first_rank: rank, posted: 1, expected });
            Ok(())
        }
        Some(slot) => {
            check(&value, slot)?;
            slot.posted += 1;
            if slot.posted >= slot.expected {
                reg.remove(&(comm, seq));
            }
            Ok(())
        }
    }
}

/// FNV-1a over the bit patterns of an `f64` slice: cheap, deterministic,
/// and collision-resistant enough for divergence *detection* (a divergence
/// missed by a 64-bit hash collision is astronomically unlikely).
///
/// Public so other backends (and cross-backend gates like
/// `cargo xtask calibrate`) compute replication hashes with the exact
/// same function the simulated verifier uses.
pub fn hash_f64s(values: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(kind: CollKind) -> CollFingerprint {
        CollFingerprint { kind, root: None, op: None, elems: Some(4) }
    }

    #[test]
    fn fingerprints_match_on_equal_calls() {
        let v = VerifyState::new(3, VerifyOptions::all());
        for rank in 0..3 {
            v.check_collective(rank, WORLD_COMM, 1, 3, fp(CollKind::Allreduce)).unwrap();
        }
        // Slot was garbage-collected, so the same seq can be reused by a
        // later (sub)communicator generation without a stale comparison.
        assert!(v.fingerprints.lock().unwrap().is_empty());
    }

    #[test]
    fn fingerprint_divergence_names_both_ranks() {
        let v = VerifyState::new(2, VerifyOptions::all());
        v.check_collective(0, WORLD_COMM, 1, 2, fp(CollKind::Allreduce)).unwrap();
        let err = v.check_collective(1, WORLD_COMM, 1, 2, fp(CollKind::Barrier)).unwrap_err();
        match err {
            SimError::CollectiveDivergence { rank, seq, detail } => {
                assert_eq!(rank, 1);
                assert_eq!(seq, 1);
                assert!(detail.contains("rank 0"), "{detail}");
                assert!(detail.contains("Allreduce"), "{detail}");
                assert!(detail.contains("Barrier"), "{detail}");
            }
            other => panic!("expected CollectiveDivergence, got {other:?}"),
        }
    }

    #[test]
    fn gather_style_lengths_may_vary() {
        let v = VerifyState::new(2, VerifyOptions::all());
        let a = CollFingerprint { kind: CollKind::Gather, root: Some(0), op: None, elems: Some(3) };
        let b = CollFingerprint { elems: Some(7), ..a };
        v.check_collective(0, WORLD_COMM, 1, 2, a).unwrap();
        v.check_collective(1, WORLD_COMM, 1, 2, b).unwrap();
    }

    #[test]
    fn uniform_lengths_must_match() {
        let v = VerifyState::new(2, VerifyOptions::all());
        let a = CollFingerprint {
            kind: CollKind::Allreduce,
            root: None,
            op: Some(ReduceOp::Sum),
            elems: Some(3),
        };
        let b = CollFingerprint { elems: Some(7), ..a };
        v.check_collective(0, WORLD_COMM, 1, 2, a).unwrap();
        let err = v.check_collective(1, WORLD_COMM, 1, 2, b).unwrap_err();
        assert!(matches!(err, SimError::CollectiveDivergence { seq: 1, .. }), "{err:?}");
    }

    #[test]
    fn replication_divergence_reports_hashes() {
        let v = VerifyState::new(2, VerifyOptions::all());
        v.check_replication(0, WORLD_COMM, 1, 2, "wj", 0xAB).unwrap();
        let err = v.check_replication(1, WORLD_COMM, 1, 2, "wj", 0xCD).unwrap_err();
        match err {
            SimError::ReplicationDivergence { rank, seq, detail } => {
                assert_eq!(rank, 1);
                assert_eq!(seq, 1);
                assert!(detail.contains("wj"), "{detail}");
                assert!(detail.contains("rank 0"), "{detail}");
            }
            other => panic!("expected ReplicationDivergence, got {other:?}"),
        }
    }

    #[test]
    fn wait_cycle_is_detected_and_in_flight_messages_defer() {
        let v = VerifyState::new(2, VerifyOptions::all());
        v.register_wait(0, 1, 7);
        v.register_wait(1, 0, 7);
        // A message from 1 to 0 is in flight, so rank 0 may yet be woken:
        // edge 0→1 is not quiescent and nothing may be reported.
        v.record_send(1, 0);
        assert!(v.scan_for_deadlock(0).is_none(), "in-flight message must defer detection");
        // Rank 0 pulls it (wrong tag, stays blocked): now truly circular.
        v.record_pull(0, 1, false);
        let err = v.scan_for_deadlock(0).expect("cycle should be detected");
        match err {
            SimError::Deadlock { cycle, detail, .. } => {
                let mut c = cycle;
                c.sort_unstable();
                assert_eq!(c, vec![0, 1]);
                assert!(detail.contains("rank 0 waits on rank 1"), "{detail}");
            }
            other => panic!("expected Deadlock, got {other:?}"),
        }
    }

    #[test]
    fn wait_on_finished_rank_is_detected() {
        let v = VerifyState::new(3, VerifyOptions::all());
        v.register_wait(0, 2, 9);
        v.mark_done(2);
        let err = v.scan_for_deadlock(0).expect("finished peer should be detected");
        match err {
            SimError::Deadlock { cycle, detail, .. } => {
                assert!(cycle.is_empty());
                assert!(detail.contains("already finished"), "{detail}");
                assert!(detail.contains("rank 0 waits on rank 2"), "{detail}");
            }
            other => panic!("expected Deadlock, got {other:?}"),
        }
    }

    #[test]
    fn matched_pull_clears_the_wait() {
        let v = VerifyState::new(2, VerifyOptions::all());
        v.register_wait(0, 1, 7);
        v.record_send(1, 0);
        v.record_pull(0, 1, true);
        v.register_wait(1, 0, 8);
        v.mark_done(0); // rank 0 finished after its receive
        assert!(v.scan_for_deadlock(1).is_some(), "1 waits on finished 0");
        assert!(v.table.lock().unwrap().waits[0].is_none());
    }

    #[test]
    fn hash_distinguishes_values_and_orders() {
        assert_ne!(hash_f64s(&[1.0, 2.0]), hash_f64s(&[2.0, 1.0]));
        assert_ne!(hash_f64s(&[0.0]), hash_f64s(&[-0.0])); // bitwise, not ==
        assert_eq!(hash_f64s(&[1.5, -3.25]), hash_f64s(&[1.5, -3.25]));
    }
}
