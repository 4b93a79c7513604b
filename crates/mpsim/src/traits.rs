//! Backend-neutral communication traits: the surface the P-AutoClass
//! driver actually uses, abstracted away from the simulator.
//!
//! [`Communicator`] captures exactly the operations `pautoclass::driver`,
//! `run`, and `recover` perform on a world communicator — point-to-point
//! sends/receives, the allreduce family (blocking and non-blocking),
//! broadcast/gather, phase spans, replication checks, and `split` — and
//! [`GroupCommunicator`] captures the subset a post-split group supports.
//! [`crate::Comm`] is the simulated implementor and `shmcomm::NativeComm`
//! the wall-clock one over OS threads; [`crate::subcomm::Group`] is the
//! group communicator over either, so one generic SPMD driver runs on
//! both backends.
//!
//! # Determinism contract
//!
//! Neither backend has collective schedules of its own: both implement
//! the [`PointToPoint`] supertrait, and every collective runs the one
//! generic schedule in [`crate::collectives`], whose fold order depends
//! only on `(algorithm, P, length)` — never on arrival order, scheduling,
//! or wall-clock races. Two backends running the same driver therefore
//! produce bitwise-identical `f64` results because the schedule exists
//! once, not because two copies are kept in step.
//!
//! # Errors
//!
//! Backends surface failures as [`CommError`], a backend-neutral type:
//! the simulator's typed [`SimError`]s pass through as
//! [`CommError::Sim`], while native-backend failure modes that have no
//! simulated analogue (a disconnected channel, a poisoned mutex) get
//! their own variants instead of escaping as raw panics.

use crate::collectives::{self, PointToPoint, ReduceOp};
use crate::comm::{Comm, Request};
use crate::cost::AllreduceAlgo;
use crate::error::SimError;
use crate::subcomm::SubComm;

/// A backend-neutral communication failure.
///
/// Every backend maps its failure modes here: the simulated engine's
/// errors arrive as [`CommError::Sim`] (preserving rank/sequence
/// diagnostics), and the native backend's shared-memory failure modes —
/// which the simulator cannot produce — get typed variants so callers
/// never have to parse panic strings.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CommError {
    /// A simulated-engine failure (rank panic, deadlock, verifier
    /// divergence, injected fault) with its full diagnostics.
    Sim(SimError),
    /// A rank's thread panicked with an unstructured payload.
    RankPanicked {
        /// The panicking rank, when identifiable.
        rank: usize,
        /// The panic message.
        detail: String,
    },
    /// A channel to a peer disconnected while traffic was still expected
    /// (the peer's thread is gone without a recorded cause).
    Disconnected {
        /// The rank that observed the disconnection.
        rank: usize,
        /// The peer whose endpoint vanished.
        peer: usize,
        /// What the rank was doing when the channel died.
        detail: String,
    },
    /// A shared lock was poisoned by a panic on another thread.
    Poisoned {
        /// The rank that found the lock poisoned.
        rank: usize,
        /// Which lock, and during what operation.
        detail: String,
    },
    /// A replicated value diverged across ranks on the native backend.
    Replication {
        /// The rank that detected the divergence.
        rank: usize,
        /// The caller-supplied label of the replicated value.
        label: String,
        /// Hash diagnostics.
        detail: String,
    },
    /// A non-blocking request was misused (waited twice).
    Request {
        /// The offending rank.
        rank: usize,
        /// What went wrong.
        detail: String,
    },
    /// A blocking receive exceeded the backend's wall-clock timeout.
    Timeout {
        /// The waiting rank.
        rank: usize,
        /// The peer it was waiting on.
        from: usize,
        /// The message tag it was waiting for.
        tag: u64,
    },
    /// The machine specification cannot be executed (e.g. zero ranks).
    InvalidMachine {
        /// Why the specification was rejected.
        detail: String,
    },
    /// The backend cannot express the requested mechanism (e.g. the
    /// native backend has no in-flight replay log, so
    /// `RecoveryPolicy::LocalReplay` is refused with this variant rather
    /// than silently degraded).
    Unsupported {
        /// The mechanism that was requested.
        what: String,
        /// Which backend refused it.
        backend: &'static str,
    },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::Sim(e) => write!(f, "{e}"),
            CommError::RankPanicked { rank, detail } => {
                write!(f, "rank {rank} panicked: {detail}")
            }
            CommError::Disconnected { rank, peer, detail } => {
                write!(f, "rank {rank}: channel to rank {peer} disconnected ({detail})")
            }
            CommError::Poisoned { rank, detail } => {
                write!(f, "rank {rank}: poisoned lock: {detail}")
            }
            CommError::Replication { rank, label, detail } => {
                write!(f, "rank {rank}: replicated value {label:?} diverged: {detail}")
            }
            CommError::Request { rank, detail } => {
                write!(f, "rank {rank}: request misuse: {detail}")
            }
            CommError::Timeout { rank, from, tag } => {
                write!(f, "rank {rank}: receive from rank {from} (tag {tag}) timed out")
            }
            CommError::InvalidMachine { detail } => write!(f, "invalid machine: {detail}"),
            CommError::Unsupported { what, backend } => {
                write!(f, "the {backend} backend does not support {what}")
            }
        }
    }
}

impl std::error::Error for CommError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CommError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for CommError {
    fn from(e: SimError) -> Self {
        CommError::Sim(e)
    }
}

/// The world-communicator surface the SPMD driver is generic over.
///
/// Implementations: [`crate::Comm`] (simulated virtual time) and
/// `shmcomm::NativeComm` (wall-clock OS threads). A backend implements the
/// [`PointToPoint`] supertrait plus the timing, non-blocking and
/// replication methods below; every collective defaults to the one shared
/// schedule in [`crate::collectives`]. All methods carry the SPMD
/// discipline of their concrete counterparts: collectives must be called
/// by every rank in the same order with compatible arguments, and every
/// non-blocking request must be retired by exactly one
/// [`Communicator::wait`] / [`Communicator::waitall`].
pub trait Communicator: PointToPoint {
    /// Handle for a non-blocking operation posted on this backend.
    type Req;
    /// The sub-communicator type [`Communicator::split`] produces; borrows
    /// the world communicator for its lifetime, exactly like
    /// [`crate::SubComm`].
    type Group<'g>: GroupCommunicator
    where
        Self: 'g;

    /// Current time on this rank, in seconds (virtual or wall-clock,
    /// depending on the backend).
    fn now(&self) -> f64;
    /// Account `ops` abstract operations of local compute. The simulator
    /// charges virtual time; the native backend measures real time
    /// implicitly, so this is free there.
    fn work(&mut self, ops: u64);
    /// Open a named phase span (see [`crate::Comm::enter_phase`]).
    fn enter_phase(&mut self, name: &str);
    /// Close the innermost open phase span.
    fn exit_phase(&mut self);

    /// Non-blocking send; the returned request must be waited.
    fn isend_f64s(&mut self, dst: usize, tag: u64, values: &[f64]) -> Self::Req;
    /// Post a non-blocking receive; the matching wait yields the payload.
    fn irecv_f64s(&mut self, src: usize, tag: u64) -> Self::Req;
    /// Retire a non-blocking request (receives yield `Some(payload)`).
    fn wait(&mut self, req: &mut Self::Req) -> Option<Vec<f64>>;
    /// Retire every request in order, collecting each wait's result.
    fn waitall(&mut self, reqs: &mut [Self::Req]) -> Vec<Option<Vec<f64>>> {
        reqs.iter_mut().map(|r| self.wait(r)).collect()
    }

    /// Synchronize all ranks.
    fn barrier(&mut self) {
        collectives::barrier(self);
    }
    /// Broadcast `buf` from `root` to all ranks.
    fn broadcast_f64s(&mut self, root: usize, buf: &mut [f64]) {
        collectives::broadcast_f64s(self, root, buf);
    }
    /// Gather each rank's vector to `root`, concatenated in rank order.
    fn gather_f64s(&mut self, root: usize, mine: &[f64]) -> Option<Vec<f64>> {
        collectives::gather_f64s(self, root, mine)
    }
    /// Allreduce with the machine's default algorithm.
    fn allreduce_f64s(&mut self, buf: &mut [f64], op: ReduceOp) {
        let algo = self.machine().allreduce;
        self.allreduce_f64s_with(buf, op, algo);
    }
    /// Allreduce with an explicit algorithm (`Auto` resolves identically
    /// on every rank and backend).
    fn allreduce_f64s_with(&mut self, buf: &mut [f64], op: ReduceOp, algo: AllreduceAlgo) {
        collectives::allreduce_f64s_with(self, buf, op, algo);
    }
    /// Allreduce of a single scalar; returns the reduced value.
    fn allreduce_scalar(&mut self, value: f64, op: ReduceOp) -> f64 {
        let mut buf = [value];
        self.allreduce_f64s(&mut buf, op);
        buf[0]
    }
    /// Non-blocking allreduce with the machine's default algorithm.
    fn iallreduce_f64s(&mut self, buf: &mut [f64], op: ReduceOp) -> Self::Req {
        let algo = self.machine().allreduce;
        self.iallreduce_f64s_with(buf, op, algo)
    }
    /// Non-blocking allreduce with an explicit algorithm. Data movement
    /// may run eagerly (both current backends do), which keeps results
    /// bitwise identical to the blocking call; only completion timing is
    /// deferred.
    fn iallreduce_f64s_with(
        &mut self,
        buf: &mut [f64],
        op: ReduceOp,
        algo: AllreduceAlgo,
    ) -> Self::Req;

    /// Drop this rank's in-flight replay-log entries (called by a
    /// checkpoint publisher right after a snapshot is stored: nothing
    /// delivered before the snapshot can need replaying). Default no-op
    /// for backends without a replay log, mirroring how
    /// [`Communicator::work`] is free on the native backend.
    fn replay_truncate(&mut self) {}

    /// Whether replication-invariant hashing is enabled for this run.
    fn checks_replication(&self) -> bool;
    /// Assert that `data` is bitwise identical on every rank (collective;
    /// no-op unless replication checking is enabled).
    fn verify_replicated(&mut self, label: &str, data: &[f64]);

    /// Split the communicator by color; ranks passing equal colors form a
    /// group. Collective over the world communicator.
    fn split(&mut self, color: u32) -> Self::Group<'_>;
}

/// The group-communicator surface a [`Communicator::split`] result
/// supports: the collectives the shrink-and-redistribute recovery path
/// uses, plus phase attribution on the underlying world clock. Its one
/// implementation is [`crate::subcomm::Group`], over either backend.
pub trait GroupCommunicator {
    /// The nested sub-communicator type [`GroupCommunicator::split`]
    /// produces; borrows this group (and through it the world
    /// communicator) for its lifetime.
    type Child<'c>: GroupCommunicator
    where
        Self: 'c;

    /// This rank's id within the group.
    fn rank(&self) -> usize;
    /// Group size.
    fn size(&self) -> usize;
    /// World ranks of the group, ascending.
    fn members(&self) -> &[usize];
    /// Account local compute on the member's world clock.
    fn work(&mut self, ops: u64);
    /// Open a named phase span on the underlying world communicator.
    fn enter_phase(&mut self, name: &str);
    /// Close the innermost open phase span on the world communicator.
    fn exit_phase(&mut self);
    /// Synchronize the group.
    fn barrier(&mut self);
    /// Broadcast from the group-rank `root` to the group.
    fn broadcast_f64s(&mut self, root: usize, buf: &mut [f64]);
    /// Allreduce over the group.
    fn allreduce_f64s(&mut self, buf: &mut [f64], op: ReduceOp);
    /// Allreduce of a single scalar over the group.
    fn allreduce_scalar(&mut self, value: f64, op: ReduceOp) -> f64 {
        let mut buf = [value];
        self.allreduce_f64s(&mut buf, op);
        buf[0]
    }
    /// Gather variable-length vectors to the group-rank `root`.
    fn gather_f64s(&mut self, root: usize, mine: &[f64]) -> Option<Vec<f64>>;
    /// Split this group by color: members passing equal colors form a
    /// nested sub-communicator (`MPI_Comm_split` on a non-world
    /// communicator). Collective over this group.
    fn split(&mut self, color: u32) -> Self::Child<'_>;
}

impl Communicator for Comm {
    type Req = Request;
    type Group<'g> = SubComm<'g>;

    fn now(&self) -> f64 {
        Comm::now(self)
    }
    fn work(&mut self, ops: u64) {
        Comm::work(self, ops);
    }
    fn enter_phase(&mut self, name: &str) {
        Comm::enter_phase(self, name);
    }
    fn exit_phase(&mut self) {
        Comm::exit_phase(self);
    }
    fn isend_f64s(&mut self, dst: usize, tag: u64, values: &[f64]) -> Request {
        Comm::isend_f64s(self, dst, tag, values)
    }
    fn irecv_f64s(&mut self, src: usize, tag: u64) -> Request {
        Comm::irecv_f64s(self, src, tag)
    }
    fn wait(&mut self, req: &mut Request) -> Option<Vec<f64>> {
        Comm::wait(self, req)
    }
    fn iallreduce_f64s_with(
        &mut self,
        buf: &mut [f64],
        op: ReduceOp,
        algo: AllreduceAlgo,
    ) -> Request {
        Comm::iallreduce_f64s_with(self, buf, op, algo)
    }
    fn replay_truncate(&mut self) {
        Comm::replay_truncate(self);
    }
    fn checks_replication(&self) -> bool {
        Comm::checks_replication(self)
    }
    fn verify_replicated(&mut self, label: &str, data: &[f64]) {
        Comm::verify_replicated(self, label, data);
    }
    fn split(&mut self, color: u32) -> SubComm<'_> {
        Comm::split(self, color)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::presets;
    use crate::engine::run_spmd_default;

    /// A generic SPMD body exercising the trait surface end to end on the
    /// simulated backend.
    fn generic_body<C: Communicator>(comm: &mut C) -> (f64, f64, usize) {
        comm.enter_phase("trait-test");
        let me = comm.rank() as f64;
        let sum = comm.allreduce_scalar(me + 1.0, ReduceOp::Sum);
        let mut buf = vec![me; 3];
        comm.allreduce_f64s_with(&mut buf, ReduceOp::Max, AllreduceAlgo::RecursiveDoubling);
        let mut req = comm.iallreduce_f64s(&mut buf, ReduceOp::Sum);
        comm.work(10);
        comm.wait(&mut req);
        let sub_size = {
            let sub = comm.split((comm.rank() % 2) as u32);
            sub.size()
        };
        comm.exit_phase();
        (sum, buf[0], sub_size)
    }

    #[test]
    fn comm_implements_the_trait() {
        let spec = presets::zero_cost(4);
        let out = run_spmd_default(&spec, |c| generic_body(c)).unwrap();
        for (rank, (sum, m, sub)) in out.per_rank.iter().enumerate() {
            assert_eq!(*sum, 10.0, "rank {rank}");
            // max over ranks = 3, then summed over 4 ranks by iallreduce.
            assert_eq!(*m, 12.0, "rank {rank}");
            assert_eq!(*sub, 2, "rank {rank}");
        }
    }

    #[test]
    fn comm_error_display_names_causes() {
        let e = CommError::from(SimError::Aborted { rank: 1 });
        assert!(std::error::Error::source(&e).is_some());
        let d = CommError::Disconnected { rank: 0, peer: 2, detail: "recv".into() };
        assert!(d.to_string().contains("rank 2"));
        let p = CommError::Poisoned { rank: 1, detail: "replication registry".into() };
        assert!(p.to_string().contains("poisoned"));
    }
}
