//! SPMD correctness verification: collective fingerprinting and
//! replication-invariant hashing.
//!
//! A simulated SPMD program can go wrong in ways that a real MPI program
//! would only reveal as silently wrong numbers: a rank calling a
//! different collective than its peers, or a supposedly replicated value
//! drifting apart across ranks. This module turns each of those into a
//! precise, fast [`SimError`]:
//!
//! * **Collective fingerprinting** ([`VerifyOptions::check_collectives`]):
//!   every collective call posts a [`CollFingerprint`] — kind, root,
//!   reduction operator, element count — into a per-run registry keyed by
//!   `(communicator, sequence number)`. The first rank to arrive sets the
//!   reference; any later rank whose fingerprint differs fails the run
//!   immediately, naming both ranks and both calls.
//! * **Replication hashing** ([`VerifyOptions::check_replication`]):
//!   allreduce and broadcast results — which the simulator guarantees to be
//!   bitwise identical on every rank — are hashed per rank and
//!   cross-checked; [`crate::Comm::verify_replicated`] extends the same
//!   check to any value the program asserts is replicated (P-AutoClass
//!   uses it on the model parameters across the EM loop).
//!
//! Both layers post into the same first-poster registry, [`post`], which
//! the native backend reuses for its own replication checks.
//!
//! Deadlocks need no layer here: the scheduler proves a stall the moment
//! no rank is runnable and reports a [`SimError::Deadlock`] naming the
//! wait-for cycle, whatever these options say.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::collectives::ReduceOp;
use crate::error::SimError;

/// Lock a verifier mutex, recovering from poisoning: a rank that panics
/// (e.g. while aborting the run) may die holding a lock, and the checks
/// on surviving ranks must keep working through the teardown rather than
/// cascade the panic.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Which verification layers run during an SPMD run (see
/// [`crate::SimOptions::verify`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyOptions {
    /// Cross-validate every collective call's fingerprint across ranks.
    pub check_collectives: bool,
    /// Hash allreduce/broadcast results (and explicit
    /// [`crate::Comm::verify_replicated`] buffers) per rank and require
    /// bitwise identity.
    pub check_replication: bool,
}

impl VerifyOptions {
    /// Every check enabled.
    pub fn all() -> Self {
        VerifyOptions { check_collectives: true, check_replication: true }
    }

    /// Every check disabled (the fast path: no shared state is consulted);
    /// the same as the default.
    pub fn none() -> Self {
        VerifyOptions::default()
    }

    pub(crate) fn any(&self) -> bool {
        self.check_collectives || self.check_replication
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

/// First poster's claim for one `(comm, seq)` slot of a [`Registry`].
#[derive(Debug)]
pub struct Slot<T> {
    /// The first poster's value, which every later poster must match.
    pub value: T,
    /// The rank that posted first.
    pub first_rank: usize,
    posted: usize,
    expected: usize,
}

/// First-poster claims keyed by `(communicator, sequence)`; see [`post`].
pub type Registry<T> = BTreeMap<(u64, u64), Slot<T>>;

/// Shared verification state for one SPMD run.
pub(crate) struct VerifyState {
    opts: VerifyOptions,
    fingerprints: Mutex<Registry<CollFingerprint>>,
    /// Replication hashes; the value carries (hash, label).
    hashes: Mutex<Registry<(u64, String)>>,
}

/// Communicator id of the world communicator in the verification registry.
pub const WORLD_COMM: u64 = 0;
/// Communicator id for user-level [`crate::Comm::verify_replicated`] calls.
pub const USER_REPL_COMM: u64 = u64::MAX;

impl VerifyState {
    pub(crate) fn new(opts: VerifyOptions) -> Self {
        VerifyState {
            opts,
            fingerprints: Mutex::new(BTreeMap::new()),
            hashes: Mutex::new(BTreeMap::new()),
        }
    }

    pub(crate) fn opts(&self) -> &VerifyOptions {
        &self.opts
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

/// Post `rank`'s `value` into slot `(comm, seq)` of `reg`, where
/// `expected` ranks will post in all: the first poster sets the
/// reference, later posters are compared against it by `check`, and the
/// slot is garbage-collected once all expected ranks have posted (a
/// lone poster leaves none behind).
pub fn post<T, E, F>(
    reg: &mut Registry<T>,
    rank: usize,
    comm: u64,
    seq: u64,
    expected: usize,
    value: T,
    check: F,
) -> Result<(), E>
where
    F: FnOnce(&T, &Slot<T>) -> Result<(), E>,
{
    match reg.get_mut(&(comm, seq)) {
        None => {
            if expected > 1 {
                reg.insert((comm, seq), Slot { value, first_rank: rank, posted: 1, expected });
            }
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
        let v = VerifyState::new(VerifyOptions::all());
        for rank in 0..3 {
            v.check_collective(rank, WORLD_COMM, 1, 3, fp(CollKind::Allreduce)).unwrap();
        }
        // Slot was garbage-collected, so the same seq can be reused by a
        // later (sub)communicator generation without a stale comparison.
        assert!(v.fingerprints.lock().unwrap().is_empty());
    }

    #[test]
    fn fingerprint_divergence_names_both_ranks() {
        let v = VerifyState::new(VerifyOptions::all());
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
        let v = VerifyState::new(VerifyOptions::all());
        let a = CollFingerprint { kind: CollKind::Gather, root: Some(0), op: None, elems: Some(3) };
        let b = CollFingerprint { elems: Some(7), ..a };
        v.check_collective(0, WORLD_COMM, 1, 2, a).unwrap();
        v.check_collective(1, WORLD_COMM, 1, 2, b).unwrap();
    }

    #[test]
    fn uniform_lengths_must_match() {
        let v = VerifyState::new(VerifyOptions::all());
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
        let v = VerifyState::new(VerifyOptions::all());
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
    fn a_lone_poster_leaves_no_slot_behind() {
        // P = 1, or a one-member fleet group: every post is also the last.
        let v = VerifyState::new(VerifyOptions::all());
        for seq in 1..=3 {
            v.check_collective(0, WORLD_COMM, seq, 1, fp(CollKind::Allreduce)).unwrap();
            v.check_replication(0, WORLD_COMM, seq, 1, "wj", 0xAB).unwrap();
        }
        assert!(v.fingerprints.lock().unwrap().is_empty());
        assert!(v.hashes.lock().unwrap().is_empty());
    }

    #[test]
    fn hash_distinguishes_values_and_orders() {
        assert_ne!(hash_f64s(&[1.0, 2.0]), hash_f64s(&[2.0, 1.0]));
        assert_ne!(hash_f64s(&[0.0]), hash_f64s(&[-0.0])); // bitwise, not ==
        assert_eq!(hash_f64s(&[1.5, -3.25]), hash_f64s(&[1.5, -3.25]));
    }
}
